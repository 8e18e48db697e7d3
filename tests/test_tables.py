"""The CSV table layer: every file the CLI writes keeps its bytes, and every
reader follows one contract for headers, field counts and I/O errors."""

import ast
import hashlib
from pathlib import Path

import pytest

import refuelopt
from refuelopt import errors
from refuelopt.cli import main
from refuelopt.roadgraph import load_road_graph
from refuelopt.scenario import load_scenarios
from refuelopt.stations import load_stations
from refuelopt.telemetry import generate_synthetic_log, load_trip_log, save_trip_log
from refuelopt.tripgraph import import_graph_csv


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Every CSV that gen, a saved trip log, ingest, graph, predict and plan
    write, from fixed seeds, in one directory."""
    out = tmp_path_factory.mktemp("written")
    assert main(["gen", "--out-dir", str(out), "--seed", "3",
                 "--seeds-per-profile", "1"]) == 0
    config = str(out / "scenario.yaml")
    trace, samples, _ = generate_synthetic_log(load_scenarios(config)[0].profile, weeks=8)
    log = str(out / "trip_log.csv")
    save_trip_log(log, trace, samples)
    for argv in (["ingest", "--log", log],
                 ["graph", "--log", log, "--weeks", "8"],
                 ["predict", "--log", log, "--window", "5"],
                 ["plan", "--config", config]):
        assert main([*argv, "--out-dir", str(out)]) == 0
    return out


# sha256 of each written file, computed before the writers shared one
# helper: a dialect change made on both the writer and the reader side
# passes the round trips but not these.
@pytest.mark.parametrize("name,sha", [
    ("city_nodes.csv",
     "c4e1336185872b542cdccd4e94382c79641873e730907f80a29ccf84ef9e04ef"),
    ("city_edges.csv",
     "e1724cdfd59da28bb328926a94a9e7584a6d9e4d3301448332e5c0b5ee51a0aa"),
    ("stations.csv",
     "9e213ab2781af388fcfca4004d5e54311b489e3843b981456cc4647c60e3f61b"),
    ("trip_log.csv",
     "8d1b4bfab085e83a61226db6a5d2d2c4ca260f4013f7607d8750e8b042e56071"),
    ("stops.csv",
     "50f0d494c23873196dd275ebaf7d2386217dc47547d0d03a9ccef2c3c3e5ece4"),
    ("nodes.csv",
     "0d21d6badd104e33c7893a5dcb7f2bddbd943af8e2674aa1f3534d5c4c49afab"),
    ("edges.csv",
     "2affcfb06827dd71eb16398aa54fd902c2cbd78018e5910ba2a74e8cc5cecfe1"),
    # The log's quiet last Sunday is a 0 km day of the series: two folds.
    ("cv_metrics.csv",
     "21208dae208152f7192d75797dc4684d7356fd714e4886bcc9a0d4ce3480f52c"),
    ("plan.csv",
     "ea2b2a27c584d5021de2c556820a756aaa270c53ce365e9e836ab14915f79af2"),
])
def test_written_csv_bytes_are_pinned(written, name, sha):
    assert hashlib.sha256((written / name).read_bytes()).hexdigest() == sha


# One valid table per reader; the other file of a CSV pair stays valid.
ROAD_NODES = "id,lat,lon\nA,44.0,10.0\nB,44.0,10.001\n"
ROAD_EDGES = "from,to,length_m,time_s\nA,B,100.0,10.0\n"
POI_NODES = ("id,lat,lon,visits_total,visits_weekday,visits_weekend,category,days_visited\n"
             "STOP_001,44.0,10.0,3,2,1,MEDIUM,Mon|Sat\n")
POI_EDGES = "day,seq_index,dest_id,dest_lat,dest_lon\nMon,1,STOP_001,44.0,10.0\n"
STATIONS = ("station_id,lat,lon,brand,fuel_type,price_eur_l,observed_date\n"
            "PS_001,44.0,10.0,Alfa,petrol,1.8,2025-01-06\n")
TRIP_LOG = "timestamp,speed_kmh,lat,lon,fuel_l,can_msg\n0.0,10.0,44.0,10.0,5.0,1\n"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


READERS = {
    "road_nodes": (ROAD_NODES, lambda t, d: load_road_graph(t, _write(d / "e.csv", ROAD_EDGES))),
    "road_edges": (ROAD_EDGES, lambda t, d: load_road_graph(_write(d / "n.csv", ROAD_NODES), t)),
    "stations": (STATIONS, lambda t, d: load_stations(t)),
    "trip_nodes": (POI_NODES, lambda t, d: import_graph_csv(t, _write(d / "e.csv", POI_EDGES))),
    "trip_edges": (POI_EDGES, lambda t, d: import_graph_csv(_write(d / "n.csv", POI_NODES), t)),
    "trip_log": (TRIP_LOG, lambda t, d: load_trip_log(t)),
}


@pytest.mark.parametrize("reader", READERS)
def test_reader_contract(tmp_path, reader):
    text, load = READERS[reader]
    header, row = text.splitlines()[:2]
    target = tmp_path / "target.csv"
    load(_write(target, text), tmp_path)
    for bad in (f"wrong,header\n{row}\n", "", f"{header}\n{row}\u00e9\n"):
        target.write_bytes(bad.encode("latin-1"))
        with pytest.raises(errors.SchemaError) as exc:
            load(str(target), tmp_path)
        assert str(target) in str(exc.value)
    for bad_row in (row.rsplit(",", 1)[0], row + ",extra", "x" * 200_000):
        _write(target, f"{header}\n{bad_row}\n")
        with pytest.raises(errors.ParseError) as exc:
            load(str(target), tmp_path)
        assert exc.value.line == 2
    with pytest.raises(errors.IoError):
        load(str(tmp_path / "missing.csv"), tmp_path)


def test_parse_error_line_counts_quoted_line_breaks(tmp_path):
    header, row = STATIONS.splitlines()
    quoted = row.replace("Alfa", '"Al\nfa"')
    path = _write(tmp_path / "s.csv", f"{header}\n{quoted}\n{row},extra\n")
    with pytest.raises(errors.ParseError) as exc:
        load_stations(path)
    assert exc.value.line == 4
    # The trip-log reader checks each row's sample rule as it reads it.
    header, row = TRIP_LOG.splitlines()
    quoted = row.replace(",10.0,", ',"10.0\n",', 1)  # the speed
    path = _write(tmp_path / "log.csv", f"{header}\n{quoted}\n1.0,-5.0,,,,1\n")
    with pytest.raises(errors.ParseError) as exc:
        load_trip_log(path)
    assert (exc.value.line, str(exc.value)) == (4, "line 4: invalid speed -5.0")


def test_only_tables_opens_csv_files():
    # The CSV dialect is decided in one module: no other imports csv or
    # opens a file with its own newline handling.
    package = Path(refuelopt.__file__).parent
    csv_users = set()
    for source in package.glob("*.py"):
        text = source.read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        if "csv" in imported or "newline=" in text:
            csv_users.add(source.name)
    assert csv_users == {"tables.py"}
