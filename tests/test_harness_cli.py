import csv
import hashlib
import inspect
import math
import re
import tempfile
from dataclasses import fields, replace
from datetime import date, timedelta
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from refuelopt import errors, forest, harness, mileage, roadgraph, telemetry
from refuelopt.cli import build_parser, main
from refuelopt.geo import haversine_m
from refuelopt.harness import (STRATEGIES, build_context, run_cohort,
                               run_scenario, write_per_run_csv,
                               write_report_csv)
from refuelopt.optimizer import DEFAULT_REFUEL_DURATION_S, MODES, Mode, VehicleState
from refuelopt.roadgraph import DEFAULT_CORRIDOR_RADIUS_M, BuiltinRouter, RoadGraph
from refuelopt.scenario import (OBSERVATION_START, PROFILE_TEMPLATES, Scenario,
                                generate_scenario_dir, load_scenarios, make_profile,
                                make_station_catalog, parse_mode)
from refuelopt.stations import Station, forecast_week
from refuelopt.telemetry import (DEFAULT_GAP_THRESHOLD_S, generate_synthetic_log,
                                 integrate_daily_distance, save_trip_log)
from refuelopt.tripgraph import DEFAULT_CLUSTER_RADIUS_M


@pytest.fixture(scope="module")
def cohort(demo_scenario_config):
    return load_scenarios(demo_scenario_config)


@pytest.fixture(scope="module")
def trip_log_path(tmp_path_factory, cohort):
    p = tmp_path_factory.mktemp("logs") / "log.csv"
    scn = cohort[0]
    samples, _ = generate_synthetic_log(scn.profile, weeks=8)
    save_trip_log(str(p), samples)
    return str(p)


# --- scenario config ------------------------------------------------------------

def test_defaults_are_the_paper_constants():
    # Each paper value has one definition, and every default is that object.
    assert (DEFAULT_GAP_THRESHOLD_S, DEFAULT_CLUSTER_RADIUS_M, DEFAULT_CORRIDOR_RADIUS_M,
            DEFAULT_REFUEL_DURATION_S, forest.DEFAULT_N_TREES, forest.DEFAULT_MAX_DEPTH,
            OBSERVATION_START) == (120.0, 100.0, 2000.0, 300.0, 150, 6, date(2025, 1, 6))
    ingest = build_parser().parse_args(["ingest", "--log", "l", "--out-dir", "o"])
    graph = build_parser().parse_args(["graph", "--log", "l", "--out-dir", "o"])
    scn = {f.name: f.default for f in fields(Scenario)}
    for default in (ingest.gap_threshold, graph.gap_threshold, scn["gap_threshold_s"]):
        assert default is DEFAULT_GAP_THRESHOLD_S
    for default in (graph.cluster_radius, scn["cluster_radius_m"]):
        assert default is DEFAULT_CLUSTER_RADIUS_M
    assert scn["corridor_radius_m"] is DEFAULT_CORRIDOR_RADIUS_M
    assert scn["refuel_duration_s"] is DEFAULT_REFUEL_DURATION_S
    for fn in (mileage.fit_forest, mileage.sliding_cv):
        params = inspect.signature(fn).parameters
        assert params["n_trees"].default is forest.DEFAULT_N_TREES


def test_load_scenarios_shapes(cohort):
    assert len(cohort) == len(PROFILE_TEMPLATES)
    scn = cohort[0]
    assert scn.vehicle.tank_l == 50.0
    assert scn.mode.name == "balanced"
    assert scn.departure in scn.profile.anchors
    assert len(scn.stations) == 10


def test_load_scenarios_forecasts_prices_once(cohort, monkeypatch):
    assert all(s.forecast is cohort[0].forecast for s in cohort)
    assert cohort[0].forecast == forecast_week(cohort[0].history, cohort[0].fuel_type)

    def no_forecast(*args):
        raise AssertionError("build_context forecast again")

    monkeypatch.setattr(harness, "forecast_week", no_forecast)
    assert build_context(cohort[0]).day_prices


def test_fuel_type_without_prices_fails_each_run(demo_scenario_config, tmp_path):
    config = _edited_config(demo_scenario_config, ("fuel_type",), "diesel", tmp_path.name)
    scenarios = load_scenarios(config)
    assert all(s.forecast is None for s in scenarios)
    outcomes = run_scenario(scenarios[0])
    assert len(outcomes) == len(STRATEGIES)
    assert {o.error for o in outcomes} == {
        "EmptyHistory: no observations for fuel type 'diesel'"}


def test_parse_mode_presets_and_custom():
    assert parse_mode("fuel") is MODES["fuel"]
    m = parse_mode({"k_cost": 2.0, "k_time": 0.5})
    assert (m.k_cost, m.k_time) == (2.0, 0.5)
    with pytest.raises(errors.SchemaError):
        parse_mode("warp")
    for spec in (0, None, [], 1e300):  # each died with AttributeError
        with pytest.raises(errors.SchemaError, match="mode must be a preset name or a mapping"):
            parse_mode(spec)


def test_make_profile_deterministic(city):
    a = make_profile("commuter", 7, city)
    b = make_profile("commuter", 7, city)
    c = make_profile("commuter", 8, city)
    assert a == b
    assert a.anchors != c.anchors
    with pytest.raises(ValueError):
        make_profile("aviator", 7, city)


def test_station_catalog_price_spread(city):
    stations, history = make_station_catalog(seed=1, graph=city, count=12,
                                             end_day=OBSERVATION_START + timedelta(weeks=8))
    assert len(stations) == 12
    latest = [history.series[(s.station_id, "petrol")][-1][1] for s in stations]
    spread = (max(latest) - min(latest)) / (sum(latest) / len(latest))
    assert spread >= 0.02  # per-station bases differ by design
    assert all(len(obs) == 28 for obs in history.series.values())


def test_load_scenarios_rejects_broken_config(tmp_path, demo_scenario_config):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("city: {nodes: missing.csv, edges: missing.csv}\n")
    with pytest.raises((errors.SchemaError, errors.IoError)):
        load_scenarios(str(cfg))


def _edited_config(demo_scenario_config, path, value, name):
    """The demo config with the entry at `path` set to `value`, written next
    to the demo CSVs as `name`.yaml. Its mode is a mapping, so that `mode.*`
    paths exist."""
    with open(demo_scenario_config, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg["mode"] = {"k_cost": 1.0, "k_time": 1.0}
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = Path(demo_scenario_config).parent / f"{name}.yaml"
    with open(config, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return str(config)


@pytest.mark.parametrize("path", [
    ("simulaton",),
    ("city", "node"),
    ("vehicle", "fuel"),
    ("simulation", "corridor_radius"),
    ("simulation", "cv_window_weeks"),
    ("drivers", 1, "departur"),
    ("drivers", 0, "profile", "errand_rat"),
    ("mode", "k_costs"),
], ids=lambda p: ".".join(map(str, p)))
def test_load_scenarios_rejects_unknown_keys(tmp_path, demo_scenario_config, path):
    # A misspelled key next to the real ones must not fall back to a default.
    config = _edited_config(demo_scenario_config, path, 1, tmp_path.name)
    with pytest.raises(errors.SchemaError, match=str(path[-1])):
        load_scenarios(config)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("key,value,message", [
    (("profile", "anchors", "home"), [95.0, 10.9], "home"),
    (("profile", "anchors", "home"), [0.0, 10.9], "more than MAX_ANCHOR_SPREAD_KM = 100.0"),
    (("profile", "cruise_speed_kmh"), float("nan"), "cruise_speed_kmh"),
    (("profile", "cruise_speed_kmh"), 0.0, "cruise_speed_kmh"),
    (("profile", "errand_rate"), float("nan"), "errand_rate"),
    (("profile", "errand_rate"), -1.0, "errand_rate"),
    (("profile", "speed_noise_pct"), float("inf"), "speed_noise_pct"),
    (("profile", "gps_noise_m"), -1.0, "gps_noise_m"),
    (("profile", "schedule", "Mnday"), ["home", "work", "home"], "unknown weekday 'Mnday'"),
    (("profile", "schedule", "Mon"), ["home", "wrk", "home"], "undefined anchor 'wrk'"),
    (("profile", "errand_targets"), ["gym", "pool"], "errand target 'pool' not an anchor"),
    (("profile", "errand_targets"), [], "errand_rate > 0 but no errand_targets"),
    (("departure",), "nowhere", "departure 'nowhere' is not an anchor"),
    (("profile", "seed"), -1, "seed must be a whole number >= 0, got -1"),
    (("profile", "seed"), 1.5, "seed must be a whole number >= 0, got 1.5"),
    (("profile", "cruise_speed_kmh"), 1e300, "cruise_speed_kmh must be finite and in [0, 300.0]"),
    (("profile", "speed_noise_pct"), 1e300, "speed_noise_pct must be finite and in [0, 400.0]"),
    (("profile", "gps_noise_m"), 1e300, "gps_noise_m must be finite and in [0, 5000.0]"),
    (("profile", "errand_rate"), 1e300, "errand_rate must be finite and in [0, 50.0]"),
], ids=["anchor_lat_95", "anchor_far", "cruise_nan", "cruise_zero", "errand_nan", "errand_negative",
        "speed_noise_inf", "gps_noise_negative", "weekday_typo", "anchor_typo",
        "target_not_anchor", "rate_without_targets", "departure_not_anchor", "seed_negative",
        "seed_fraction", "cruise_huge", "speed_noise_huge", "gps_noise_huge", "errand_huge"])
def test_load_scenarios_rejects_out_of_range_profiles(tmp_path, demo_scenario_config,
                                                      key, value, message):
    # A NaN errand rate made the errand draw loop forever; a bad anchor or
    # cruise speed ended `simulate` with a raw traceback, as did a negative
    # seed. A schedule typo or an unknown departure failed every run of that
    # driver with exit 0, a fractional seed ran as a whole one, and a huge
    # speed noise overflowed the forest.
    config = _edited_config(demo_scenario_config, ("drivers", 0, *key), value, tmp_path.name)
    with pytest.raises(errors.SchemaError, match=re.escape(message)):
        load_scenarios(config)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "per_run.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("gap_threshold_s", float("nan")),
    ("gap_threshold_s", 0.0),
    ("cluster_radius_m", float("nan")),
    ("cluster_radius_m", -100.0),
    ("corridor_radius_m", float("nan")),
    ("corridor_radius_m", float("inf")),
    ("nearby_radius_m", 0.0),
    ("refuel_duration_s", float("nan")),
    ("refuel_duration_s", -1.0),
])
def test_load_scenarios_rejects_out_of_range_simulation(tmp_path, demo_scenario_config,
                                                        key, value):
    # A NaN cluster radius made every run an EmptyDayGraph row, and a NaN
    # corridor reported "no station within nan m"; both exited 0.
    config = _edited_config(demo_scenario_config, ("simulation", key), value, tmp_path.name)
    with pytest.raises(errors.SchemaError, match=f"simulation.{key} must be finite"):
        load_scenarios(config)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("path,value,message", [
    (("drivers", 0, "profile", "errand_rate"), True,
     "profile.errand_rate must be a number, got True"),
    (("drivers", 0, "profile", "gps_noise_m"), "10", "profile.gps_noise_m must be a number"),
    (("drivers", 0, "profile", "anchors", "home", 0), "44.6",
     "profile.anchors.home must be a number, got '44.6'"),
    (("drivers", 0, "profile", "anchors"), 5, "profile.anchors must be a mapping, got 5"),
    (("drivers", 0, "profile", "schedule"), ["Mon"], "profile.schedule must be a mapping"),
    (("simulation", "corridor_radius_m"), True, "simulation.corridor_radius_m must be a number"),
    (("vehicle", "tank_l"), "50", "vehicle.tank_l must be a number, got '50'"),
    (("vehicle", "rate_l_per_km"), 10 ** 400, "vehicle.rate_l_per_km must be a finite number"),
    (("mode", "k_cost"), True, "mode.k_cost must be a number, got True"),
    (("mode", "k_time"), "2", "mode.k_time must be a number, got '2'"),
], ids=["errand_rate_true", "gps_noise_string", "anchor_string", "anchors_scalar",
        "schedule_list", "corridor_true", "tank_string", "rate_past_float", "k_cost_true",
        "k_time_string"])
def test_config_numbers_must_be_yaml_numbers(tmp_path, demo_scenario_config, path, value,
                                             message):
    # float() read `true` as 1.0 (a 1 m corridor) and "50" as 50.0; an
    # integer past the float range, or anchors that are not a mapping, ended
    # `simulate` with a raw traceback.
    config = _edited_config(demo_scenario_config, path, value, tmp_path.name)
    with pytest.raises(errors.SchemaError, match=re.escape(message)):
        load_scenarios(config)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2


def test_config_numbers_may_be_integers_and_profile_keys_optional(tmp_path,
                                                                  demo_scenario_config):
    config = _edited_config(demo_scenario_config, ("vehicle", "tank_l"), 50, tmp_path.name)
    with open(config, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    cfg["mode"] = {"k_cost": 1, "k_time": 3}
    profile = cfg["drivers"][0]["profile"]
    for key in ("errand_targets", "errand_rate", "speed_noise_pct", "gps_noise_m",
                "cruise_speed_kmh"):
        del profile[key]
    Path(config).write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    scenarios = load_scenarios(config)
    assert repr(scenarios[0].vehicle.tank_l) == "50.0"
    assert (scenarios[0].mode.k_cost, scenarios[0].mode.k_time) == (1.0, 3.0)
    defaults = {f.name: f.default for f in fields(telemetry.DriverProfile)}
    assert scenarios[0].profile == replace(scenarios[0].profile, errand_targets=[],
                                           **{key: defaults[key] for key in
                                              ("errand_rate", "speed_noise_pct",
                                               "gps_noise_m", "cruise_speed_kmh")})


def test_load_scenarios_accepts_zero_refuel_duration(tmp_path, demo_scenario_config):
    config = _edited_config(demo_scenario_config, ("simulation", "refuel_duration_s"), 0.0,
                            tmp_path.name)
    assert {s.refuel_duration_s for s in load_scenarios(config)} == {0.0}


def test_load_scenarios_simulation_block_shape(tmp_path, demo_scenario_config):
    # An empty `simulation:` block keeps every default; a list is a schema error.
    config = _edited_config(demo_scenario_config, ("simulation",), None, tmp_path.name)
    assert {(s.observation_weeks, s.gap_threshold_s) for s in load_scenarios(config)} == \
        {(7, 120.0)}
    config = _edited_config(demo_scenario_config, ("simulation",), [7], tmp_path.name)
    with pytest.raises(errors.SchemaError, match="simulation must be a mapping"):
        load_scenarios(config)


@pytest.mark.parametrize("weeks", [0, -1, 3, 4.5, float("nan"), "7", True, 105, 1e300])
def test_load_scenarios_rejects_too_few_observation_weeks(tmp_path, demo_scenario_config,
                                                           weeks):
    # 0 ended `simulate` with a raw ValueError; 1-3 loaded, and then every run
    # failed as SeriesTooShort (the gate fits on 7·weeks - 14 rows of 14).
    # Past Scenario.MAX_OBSERVATION_WEEKS, 1e300 weeks would never finish.
    config = _edited_config(demo_scenario_config, ("simulation", "observation_weeks"), weeks,
                            tmp_path.name)
    with pytest.raises(errors.SchemaError,
                       match="observation_weeks must be a whole number >= 4"):
        load_scenarios(config)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2


def test_load_scenarios_accepts_four_whole_weeks(tmp_path, demo_scenario_config):
    config = _edited_config(demo_scenario_config, ("simulation", "observation_weeks"), 4.0,
                            tmp_path.name)
    assert {repr(s.observation_weeks) for s in load_scenarios(config)} == {"4"}


def test_load_scenarios_rejects_empty_cohort(tmp_path, demo_scenario_config):
    # `gen --seeds-per-profile 0` wrote this; simulate died with a raw ValueError.
    config = _edited_config(demo_scenario_config, ("drivers",), [], tmp_path.name)
    with pytest.raises(errors.SchemaError, match="at least one driver"):
        load_scenarios(config)
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_load_scenarios_rejects_repeated_driver_names(tmp_path, capsys, demo_scenario_config,
                                                      command):
    # simulate wrote two commuter_0 runs that per_run.csv could not tell
    # apart, and `plan --driver commuter_0` took the first.
    config = _edited_config(demo_scenario_config, ("drivers", 1, "name"), "commuter_0",
                            tmp_path.name)
    with pytest.raises(errors.SchemaError, match=r"repeated: \['commuter_0'\]"):
        load_scenarios(config)
    assert main([command, "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert "driver names must be unique" in capsys.readouterr().err


def test_cli_rejects_a_city_node_defined_twice(tmp_path, capsys):
    # A node defined again 20 m away loaded with the moved coordinate;
    # moved far enough, only the edge check caught it, at an edges.csv line.
    config = generate_scenario_dir(str(tmp_path), seed=3, n_seeds_per_profile=1)
    with open(tmp_path / "city_nodes.csv", "a", encoding="utf-8") as fh:
        fh.write("N05_05,44.65018,10.92\n")
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert "line 146: node N05_05 defined twice" in capsys.readouterr().err


@pytest.mark.parametrize("file, row, message", [
    ("city_edges.csv", "N00_00,ZZZ,500.0,40.0", "edge N00_00->ZZZ references unknown node"),
    ("stations.csv", "PS_001,44.63469592124779,10.889248828633917,Vento,petrol,1.8,2025-01-28",
     "duplicate observation for PS_001/petrol on 2025-01-28"),
    ("stations.csv", "PS_001,44.7,10.889248828633917,Vento,petrol,1.8,2025-03-01",
     "station PS_001 redefined with different identity"),
    ("stations.csv", "PS_001,44.63469592124779,10.889248828633917,Vento,petrol,1.8,2025-01-28\n"
     "PS_001,44.63469592124779,10.889248828633917,Vento,petrol,-1,2025-03-01",
     "duplicate observation for PS_001/petrol on 2025-01-28"),
], ids=["dangling_edge", "duplicate_observation", "redefined_station",
        "duplicate_before_bad_price"])
def test_cli_reports_a_bad_row_of_a_whole_file_check_at_its_line(tmp_path, capsys, file, row,
                                                                 message):
    # Checks made after the whole file is read exited 1 with no line number.
    # The edge check still runs after the read; station rows are checked as
    # they are read, so a repeat beats a bad price on the row after it.
    config = generate_scenario_dir(str(tmp_path), seed=3, n_seeds_per_profile=1)
    path = tmp_path / file
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    line = len(path.read_text(encoding="utf-8").splitlines()) - row.count("\n")
    assert main(["simulate", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"error: line {line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_malformed_yaml_is_a_schema_error(tmp_path, capsys, command):
    config = tmp_path / "broken.yaml"
    config.write_text("city: [unclosed\n")
    with pytest.raises(errors.SchemaError, match="broken.yaml"):
        load_scenarios(str(config))
    assert main([command, "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert "broken.yaml" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "plan"])
def test_config_that_is_not_utf8_is_a_schema_error(tmp_path, capsys, command):
    # A Latin-1 config died with a raw UnicodeDecodeError traceback, exit 1.
    config = tmp_path / "latin.yaml"
    config.write_bytes(b"name: caf\xe9\n")
    with pytest.raises(errors.SchemaError, match=r"latin\.yaml: not UTF-8: "):
        load_scenarios(str(config))
    assert main([command, "--config", str(config), "--out-dir", str(tmp_path)]) == 2
    assert "latin.yaml: not UTF-8: " in capsys.readouterr().err


# --- harness --------------------------------------------------------------------

def test_build_context_places_only_the_halts_fixes(cohort, monkeypatch):
    # Of each log, the replay reads only the fix at each halt: placing every
    # fix was a fifth of a metro_sweep pass.
    placed, halts = [], []
    place, find = telemetry._place, harness.detect_halts
    monkeypatch.setattr(telemetry, "_place",
                        lambda track, rows: placed.append(len(rows)) or place(track, rows))
    monkeypatch.setattr(harness, "detect_halts",
                        lambda *args, **kwargs: halts.append(find(*args, **kwargs)) or halts[-1])
    for scn in cohort:
        placed.clear()
        halts.clear()
        build_context(scn)
        assert placed == [len(halts[0])] and len(halts) == 1
        assert 0 < placed[0] < len(generate_synthetic_log(scn.profile, scn.observation_weeks)[0])


def test_build_context_is_reproducible(cohort):
    a = build_context(cohort[0])
    b = build_context(cohort[0])
    assert a.context_hash == b.context_hash
    assert a.day == b.day
    assert a.day_prices == b.day_prices
    assert a.delta_km == b.delta_km


def test_run_scenario_produces_all_strategies(cohort):
    outcomes = run_scenario(cohort[0])
    assert [o.strategy for o in outcomes] == list(STRATEGIES)
    ok = [o for o in outcomes if o.error is None]
    assert len(ok) == 3
    assert len({o.context_hash for o in ok}) == 1  # shared context
    assert all(o.cost_eur > 0 for o in ok)


def test_time_is_detour_overhead(cohort):
    outcomes = {o.strategy: o for o in run_scenario(cohort[0])}
    ra = outcomes["route_aware"]
    assert ra.error is None
    # Overhead includes the fixed refueling duration (5 min), so >= 5 min.
    assert ra.time_min >= cohort[0].refuel_duration_s / 60.0 - 1e-9


def test_cohort_aggregate_counts(cohort):
    report = run_cohort(cohort)
    assert len(report.outcomes) == len(cohort) * len(STRATEGIES)
    for row in report.rows:
        assert row.n_runs + row.n_failed == len(cohort)
    assert {r.strategy for r in report.rows} == set(STRATEGIES)
    with pytest.raises(ValueError):
        run_cohort([])


def test_parallel_equals_sequential(cohort):
    seq = run_cohort(cohort, jobs=1)
    par = run_cohort(cohort, jobs=2)
    assert par.outcomes == seq.outcomes
    assert par.rows == seq.rows


def test_failed_scenario_becomes_error_rows(cohort):
    # An undriveable vehicle (tiny range) makes every strategy fail.
    scn = replace(cohort[0], vehicle=replace(cohort[0].vehicle, fuel_l=0.01))
    outcomes = run_scenario(scn)
    assert all(o.error for o in outcomes)
    report = run_cohort([scn])
    assert all(r.n_failed == 1 and r.n_runs == 0 for r in report.rows)


def test_invalid_generated_log_fails_only_its_driver(cohort):
    # A valid anchor near the pole whose GPS noise pushes a fix past it ended
    # the whole `simulate` with a raw ValueError.
    p = cohort[0].profile
    polar = replace(p, anchors={name: (89.9999 - 0.002 * i, 10.0)
                                for i, name in enumerate(p.anchors)}, gps_noise_m=5000.0)
    report = run_cohort([replace(cohort[0], profile=polar), *cohort[1:]])
    errors_by_driver = {o.scenario: o.error for o in report.outcomes}
    assert errors_by_driver.pop(cohort[0].name).startswith(
        "InvalidProfile: invalid coordinates (90.0")
    assert list(errors_by_driver.values()) == [None] * (len(cohort) - 1)


def test_baselines_rank_by_one_shared_distance_table(cohort, monkeypatch):
    # The two distance-ranked baselines must order stations exactly as a
    # per-call scalar scan does.
    ctx = build_context(cohort[0])
    lat, lon = ctx.departure_coords
    twin = (lat + 0.01, lon - 0.01)
    stations = [Station("T2", *twin, "x"), Station("T1", *twin, "x"),  # equal distance
                Station("FAR", lat + 0.2, lon, "x"), Station("NEAR", lat, lon + 0.004, "x"),
                Station("UNPRICED", lat, lon, "x"), *cohort[0].stations]
    prices = {**ctx.day_prices, "T1": 1.5, "T2": 1.5, "FAR": 1.0, "NEAR": 1.6}
    ctx = replace(ctx, scenario=replace(ctx.scenario, stations=stations), day_prices=prices)
    priced = [s for s in stations if s.station_id in prices]
    scan = {s.station_id: haversine_m(lat, lon, s.lat, s.lon) for s in priced}
    radius = ctx.scenario.nearby_radius_m
    expected = {
        "nearest": [s.station_id for s in sorted(priced, key=lambda s: (
            haversine_m(lat, lon, s.lat, s.lon), s.station_id))],
        "cheapest_nearby": [s.station_id for s in sorted(
            (s for s in priced if haversine_m(lat, lon, s.lat, s.lon) <= radius),
            key=lambda s: (prices[s.station_id], haversine_m(lat, lon, s.lat, s.lon),
                           s.station_id))],
    }
    assert scan["T1"] == scan["T2"] and scan["FAR"] > radius and "NEAR" in expected[
        "cheapest_nearby"]
    orders = {}

    def record(ctx, order, error):
        orders[error] = [s.station_id for s in order]
        raise errors.NoReachableStation(error)

    monkeypatch.setattr(harness, "_first_reachable", record)
    for name in expected:
        with pytest.raises(errors.NoReachableStation):
            harness._STRATEGY_FNS[name](ctx, (cohort[0].mode,))
    assert list(orders.values()) == list(expected.values())
    assert orders["no station in fuel range"].index("T1") + 1 == \
        orders["no station in fuel range"].index("T2")


@pytest.fixture(scope="module")
def cohort_context(cohort):
    return build_context(cohort[0])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_screened_distance_ranking_matches_the_scalar_sort(cohort_context, data):
    # Points a few ulps apart, on mirrored offsets, tie or nearly tie in
    # distance; the radius is one station's scalar distance, an ulp off.
    lat, lon = cohort_context.departure_coords
    offsets = st.sampled_from([(0.01, 0.0), (-0.01, 0.0), (0.0, 0.014), (0.0, -0.014)])
    points = data.draw(st.lists(st.tuples(offsets, st.integers(-3, 3), st.integers(-3, 3)),
                                min_size=1, max_size=12))
    stations = [Station(f"S{i}", lat + dlat + a * math.ulp(lat + dlat),
                        lon + dlon + b * math.ulp(lon + dlon), "x")
                for i, ((dlat, dlon), a, b) in enumerate(points)]
    prices = {s.station_id: data.draw(st.sampled_from([1.5, 1.6])) for s in stations}
    ctx = replace(cohort_context, day_prices=prices,
                  scenario=replace(cohort_context.scenario, stations=stations))
    scalar = {s.station_id: haversine_m(lat, lon, s.lat, s.lon) for s in stations}
    radius = data.draw(st.sampled_from(sorted(scalar.values())))
    assert ctx.by_distance() == sorted(stations,
                                       key=lambda s: (scalar[s.station_id], s.station_id))
    for edge in (math.nextafter(radius, 0.0), radius, math.nextafter(radius, math.inf)):
        assert ctx.by_distance(edge, by_price=True) == sorted(
            (s for s in stations if scalar[s.station_id] <= edge),
            key=lambda s: (prices[s.station_id], scalar[s.station_id], s.station_id))


# Stations whose distance from QUERY numpy's `haversine_m_array` gets one
# ulp above (HIGH) and one ulp below (LOW) `haversine_m` on x86-64 glibc, as
# in test_routing: a ranking by the screen would drop HIGH at its own
# distance and keep LOW an ulp inside it.
QUERY = (44.66, 10.93)
SCREENED_HIGH = (44.66023093547619, 10.922962379721508)
SCREENED_LOW = (44.66493516540588, 10.911977992763937)


def test_nearby_radius_is_decided_by_haversine_m(cohort_context):
    stations = [Station("HIGH", *SCREENED_HIGH, "x"), Station("LOW", *SCREENED_LOW, "x")]
    ctx = replace(cohort_context, departure_coords=QUERY, day_prices={"HIGH": 1.6, "LOW": 1.5},
                  scenario=replace(cohort_context.scenario, stations=stations))
    high, low = haversine_m(*QUERY, *SCREENED_HIGH), haversine_m(*QUERY, *SCREENED_LOW)
    assert ctx.by_distance() == stations
    assert ctx.by_distance(high, by_price=True) == stations[:1]
    assert ctx.by_distance(low, by_price=True) == stations[::-1]
    assert ctx.by_distance(math.nextafter(low, 0.0), by_price=True) == stations[:1]


# sha256 of (per_run.csv, report.csv) for every preset mode on the demo
# cohort. Refactors of the strategies must keep these bytes; the narrow
# corridor and the low tank pin the error rows as well.
PINNED_DIGESTS = [
    ({}, "1f2d1a63f73cd32b94f40dbe536ac69b483eeafac6ade9a769e0ba25f8eeb265",
     "d65c24059bbb1e2606f05af9bffa3f4cef888762816b071a3d54b0020c8c41e5"),
    ({"corridor_radius_m": 50, "nearby_radius_m": 300},
     "020ac819299b9b3c1946e3e4b3887fc013daa279da35a6d8969c0e809725908b",
     "643323d8e39a97a9777a15270749cd7603fe2dab63512ac3dfaee3744017ecb2"),
    ({"vehicle": VehicleState(50, 0.5, 0.06)},
     "00f8a54caf183fea4ce3913dde6bfe9b0ba10221d7a7fb14dfcf21f8682d9d55",
     "0ea43033fd2ae990e2a63ce2038cf106702aead2e4fc1f37f5be3cc0d296da32"),
]


def csv_digests(report, tmp_path):
    """sha256 of the report's (per_run.csv, report.csv)."""
    pp, rp = tmp_path / "per_run.csv", tmp_path / "report.csv"
    write_per_run_csv(report, str(pp))
    write_report_csv(report, str(rp))
    return hashlib.sha256(pp.read_bytes()).hexdigest(), hashlib.sha256(rp.read_bytes()).hexdigest()


@pytest.mark.parametrize("overrides,per_run_sha,report_sha", PINNED_DIGESTS)
def test_cohort_csv_bytes_are_pinned(cohort, tmp_path, overrides, per_run_sha,
                                     report_sha):
    report = run_cohort([replace(s, **overrides) for s in cohort],
                        modes=tuple(MODES.values()))
    assert csv_digests(report, tmp_path) == (per_run_sha, report_sha)


def test_accepted_gate_bytes_are_pinned(tmp_path):
    # The demo cohort's gates all reject; in this 6-driver cohort
    # commuter_1's accepts, so these bytes pin the full-model fit,
    # forecast_next_week and delta_km as well.
    config = generate_scenario_dir(str(tmp_path / "scn"), seed=3, n_seeds_per_profile=2)
    report = run_cohort(load_scenarios(config), modes=tuple(MODES.values()))
    accepted = {(o.scenario, round(o.delta_km, 3)) for o in report.outcomes if o.gate_accepted}
    assert accepted == {("commuter_1", 7.612)}
    assert csv_digests(report, tmp_path) == (
        "4bee8b9c08cabaf4e90ec27deaca0558526c2ba0e793489f6d0265dbe098b820",
        "97915aa3c56a41a42a5d93763c7056c8e015e9c40c53ddf0a58adc7afa7e7862")


@pytest.fixture(scope="module")
def metro_cohort(tmp_path_factory):
    """A routing-heavy cohort: 40x40 city, 300 stations, one driver per profile."""
    config = generate_scenario_dir(str(tmp_path_factory.mktemp("metro")), seed=3,
                                   n_seeds_per_profile=1, city_rows=40, city_cols=40,
                                   station_count=300, observation_weeks=4)
    return load_scenarios(config)


# sha256 of (per_run.csv, report.csv) on the metro cohort under the preset
# modes plus one custom mode: departure trees, station snaps, corridor
# screening and stop -> waypoint legs at city scale. The narrow corridor
# widens and fails; the low tank makes the baselines route every station.
METRO_MODES = tuple(MODES.values()) + (Mode("k0.3_4", 0.3, 4.0),)
PINNED_METRO_DIGESTS = [
    ({}, "6709f5170a665be74e1b2858eebdd2d622c3384641ee5f7f26262a2b1b04bfe6",
     "fa1e5d64bdfdc85f6d018dfbc3bfd0acb457a73deabadef3365b1c101a1365b9"),
    ({"corridor_radius_m": 60, "nearby_radius_m": 400},
     "dd97b54d0fc4e7550a817453daba67a6e70401e3da10848b4a79fadd0f8766b6",
     "0a289333b75378feb343eac55a1da01db166ef906d8ed83b1e10cb6074c2e2ee"),
    ({"vehicle": VehicleState(50, 0.9, 0.06)},
     "6427fa60b2137afe284cce806d333272d1f57257dbbb4f0e4a6b84393c9ca38e",
     "a624587b00e10b017438541e440e123c136ba431a86e939d2f34e1be15b28f59"),
]


@pytest.mark.parametrize("overrides,per_run_sha,report_sha", PINNED_METRO_DIGESTS)
def test_metro_cohort_csv_bytes_are_pinned(metro_cohort, tmp_path, overrides,
                                           per_run_sha, report_sha):
    report = run_cohort([replace(s, **overrides) for s in metro_cohort], modes=METRO_MODES)
    assert csv_digests(report, tmp_path) == (per_run_sha, report_sha)


@pytest.mark.parametrize("name", ["demo", "metro"])
def test_a_separate_reversed_table_keeps_the_bytes(cohort, metro_cohort, tmp_path, name):
    # The same city with its edge rows reversed keeps a reversed in-edge
    # table of its own, which the router searches into each destination.
    scenarios, modes, (_, *digests) = {
        "demo": (cohort, tuple(MODES.values()), PINNED_DIGESTS[0]),
        "metro": (metro_cohort, METRO_MODES, PINNED_METRO_DIGESTS[0])}[name]
    graph = scenarios[0].graph
    assert all(s.graph is graph for s in scenarios) and graph.in_edges is graph.out_edges
    rows = [(graph.ids[u], graph.ids[v], length_m, time_s)
            for leaving in graph.out_edges for u, v, length_m, time_s in leaving]
    flipped = RoadGraph([(nid, *graph.nodes[nid]) for nid in graph.ids], rows[::-1])
    assert flipped.in_edges is not flipped.out_edges
    report = run_cohort([replace(s, graph=flipped) for s in scenarios], modes=modes)
    assert csv_digests(report, tmp_path) == tuple(digests)


@pytest.mark.parametrize("overrides", [o for o, _p, _r in PINNED_METRO_DIGESTS])
def test_metro_cohort_routes_without_fallbacks(metro_cohort, monkeypatch, overrides):
    # A router that fell back to the forward search on every leg would keep
    # every pinned byte; only its counter shows it.
    # On this twin-edge city each router also runs one search per node it
    # routes from or into: the search into a departure is the search out of it.
    routers, searches = [], []

    class CountingRouter(BuiltinRouter):
        def __init__(self, graph):
            super().__init__(graph)
            routers.append(self)

    class CountingSearch(roadgraph._Search):
        def __init__(self, edges, src):
            super().__init__(edges, src)
            searches.append(self)

    monkeypatch.setattr(harness, "BuiltinRouter", CountingRouter)
    monkeypatch.setattr(roadgraph, "_Search", CountingSearch)
    run_cohort([replace(s, **overrides) for s in metro_cohort], modes=METRO_MODES)
    assert len(routers) == len(metro_cohort)
    assert all(r._reverse for r in routers)
    assert [r.fallbacks for r in routers] == [0] * len(routers)
    both_ways = 0
    for r in routers:
        assert r._reverse is r._forward
        assert [s.src for s in r._forward.values()] == [r.graph.rank[n] for n in r._forward]
        legs = [key for key in r._routes if key[0] != key[1]]
        assert set(r._forward) <= {n for leg in legs for n in leg}
        both_ways += len(set(r._forward) & {a for a, _ in legs} & {b for _, b in legs})
    # Every search made is one router's search of one node.
    assert len(searches) == sum(len(r._forward) for r in routers)
    assert both_ways > 0


def test_metro_cohort_screens_no_station_in_a_run(metro_cohort, monkeypatch):
    # load_scenarios snapped the catalogue once: every run still asks for
    # its corridor stations' nodes, and the memo answers each of them.
    stations = {(s.lat, s.lon) for s in metro_cohort[0].stations}
    asked, screened = [], []
    snap, screen = RoadGraph.nearest_node, RoadGraph._screen
    monkeypatch.setattr(RoadGraph, "nearest_node",
                        lambda g, lat, lon: asked.append((lat, lon)) or snap(g, lat, lon))
    monkeypatch.setattr(RoadGraph, "_screen",
                        lambda g, points: screened.extend(points) or screen(g, points))
    run_cohort(metro_cohort, modes=METRO_MODES)
    assert stations.intersection(asked)
    assert stations.isdisjoint(screened)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: build_daily_flows drops each day's first "
                          "destination, so commuters plan a home -> home day")
def test_commuter_and_shift_worker_day_routes_leave_home(cohort):
    contexts = {s.name: build_context(s) for s in cohort
                if s.name.startswith(("commuter", "shift_worker"))}
    assert len(contexts) == 2
    assert {name: ctx.day_route.nodes for name, ctx in contexts.items()
            if len(ctx.day_route.nodes) == 1} == {}


def test_report_csv_layout(cohort, tmp_path):
    report = run_cohort(cohort)
    rp, pp = tmp_path / "report.csv", tmp_path / "per_run.csv"
    write_report_csv(report, str(rp))
    write_per_run_csv(report, str(pp))
    with open(rp) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "mode", "K1", "K2", "cost_mean", "cost_std",
                       "time_mean", "time_std", "n_runs", "n_failed"]
    assert len(rows) == 1 + len(report.rows)
    with open(pp) as fh:
        runs = list(csv.reader(fh))
    assert runs[0][:5] == ["scenario", "strategy", "mode", "K1", "K2"]
    assert len(runs) == 1 + len(report.outcomes)


# --- CLI ------------------------------------------------------------------------

def test_cli_gen_and_simulate_round_trip(tmp_path, capsys):
    gen_dir = tmp_path / "scn"
    assert main(["gen", "--out-dir", str(gen_dir), "--seed", "3",
                 "--seeds-per-profile", "1"]) == 0
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(gen_dir / "scenario.yaml"),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "per_run.csv").exists()
    printed = capsys.readouterr().out
    for strategy in STRATEGIES:
        assert strategy in printed


def test_cli_simulate_seed_is_byte_deterministic(demo_scenario_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        assert main(["simulate", "--config", demo_scenario_config,
                     "--out-dir", str(d), "--seed", "11"]) == 0
        outs.append(((d / "report.csv").read_bytes(), (d / "per_run.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_cli_plan_writes_csv_and_geojson(demo_scenario_config, tmp_path, capsys):
    out = tmp_path / "plan"
    assert main(["plan", "--config", demo_scenario_config,
                 "--out-dir", str(out), "--mode", "fuel"]) == 0
    with open(out / "plan.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["day", "station_id", "lat", "lon", "price_eur_l",
                       "C_eur", "T_min", "L", "mode"]
    assert (out / "plan.geojson").exists()


def test_cli_plan_widens_corridor_like_simulate(demo_scenario_config, tmp_path):
    # No station lies within 500 m of commuter_0's day route: plan must widen
    # the corridor as simulate does and pick the same station.
    base = Path(demo_scenario_config).parent
    cfg = yaml.safe_load(Path(demo_scenario_config).read_text())
    cfg["city"] = {k: str(base / v) for k, v in cfg["city"].items()}
    cfg["stations"] = str(base / cfg["stations"])
    cfg["simulation"]["corridor_radius_m"] = 500
    config = tmp_path / "corridor_500.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=False))
    assert main(["plan", "--config", str(config), "--out-dir", str(tmp_path / "plan"),
                 "--driver", "commuter_0"]) == 0
    assert main(["simulate", "--config", str(config),
                 "--out-dir", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "plan" / "plan.csv") as fh:
        planned = [r["station_id"] for r in csv.DictReader(fh)]
    with open(tmp_path / "sim" / "per_run.csv") as fh:
        simulated = [r["station_id"] for r in csv.DictReader(fh)
                     if (r["scenario"], r["strategy"]) == ("commuter_0", "route_aware")]
    assert planned == simulated
    assert len(planned) == 1


def test_cli_custom_mode_requires_weights(demo_scenario_config, tmp_path, capsys):
    out = tmp_path / "plan"
    for command in ("plan", "simulate"):
        for weights in ([], ["--k1", "0", "--k2", "0"]):
            assert main([command, "--config", demo_scenario_config,
                         "--out-dir", str(out), "--mode", "custom", *weights]) == 2
    assert main(["plan", "--config", demo_scenario_config,
                 "--out-dir", str(out), "--mode", "custom",
                 "--k1", "1", "--k2", "4"]) == 0


@pytest.mark.parametrize("flag", ["--k1", "--k2"])
@pytest.mark.parametrize("preset", [[], ["--mode", "fuel"]])
@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_weight_flags_without_custom_mode_are_rejected(tmp_path, capsys, command, preset, flag):
    # `simulate --k1 0 --k2 1` ran the config's mode and exited 0. The config
    # is missing: the flags are checked before it is read.
    assert main([command, "--config", str(tmp_path / "missing.yaml"), "--out-dir",
                 str(tmp_path), *preset, flag, "1"]) == 2
    assert f"{flag} is only read with --mode custom" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["plan", "simulate", "yaml"])
def test_non_finite_mode_weight_is_a_validation_error(demo_scenario_config, tmp_path, capsys,
                                                      weight, where):
    # --k1 nan exited 0 and wrote nan into per_run.csv; plan --k1 inf exited 1
    # with every stop "out of fuel range".
    if where == "yaml":
        config = _edited_config(demo_scenario_config, ("mode", "k_cost"), float(weight),
                                tmp_path.name)
        with pytest.raises(errors.SchemaError, match="weights must be finite"):
            load_scenarios(config)
        commands = [["simulate", "--config", config], ["plan", "--config", config]]
    else:
        # The config is missing: the flags are checked before it is read.
        commands = [[where, "--config", str(tmp_path / "missing.yaml"), "--mode", "custom",
                     f"--k1={weight}", "--k2", "1"]]
    out = tmp_path / "out"
    for command in commands:
        assert main([*command, "--out-dir", str(out)]) == 2
        assert "weights must be finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "plan", "predict"])
def test_cli_negative_seed_is_checked_before_any_work(demo_scenario_config, trip_log_path,
                                                      tmp_path, capsys, command):
    # Each died in numpy with "expected non-negative integer" (exit 1).
    source = ["--log", trip_log_path] if command == "predict" else [
        "--config", demo_scenario_config]
    assert main([command, *source, "--out-dir", str(tmp_path), "--seed=-3"]) == 2
    assert "seed must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_simulate_jobs_below_one_is_checked_before_the_config(tmp_path, capsys, jobs):
    # Both ran the cohort sequentially without a word.
    assert main(["simulate", "--config", str(tmp_path / "missing.yaml"),
                 "--out-dir", str(tmp_path), f"--jobs={jobs}"]) == 2
    assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value,what", [
    ("--weeks", "3", "observation_weeks must be a whole number >= 4"),
    ("--weeks", "0", "observation_weeks must be a whole number >= 4"),
    ("--weeks", "-1", "observation_weeks must be a whole number >= 4"),
    ("--seeds-per-profile", "0", "n_seeds_per_profile must be a whole number >= 1"),
    ("--stations", "0", "station_count must be a whole number >= 1"),
    ("--stations", "-2", "station_count must be a whole number >= 1"),
    ("--seed", "-1", "seed must be a whole number >= 0, got -1"),
])
def test_cli_gen_rejects_cohorts_that_cannot_run(tmp_path, capsys, flag, value, what):
    # Each wrote a config and exited 0; simulate then died or failed every run.
    out = tmp_path / "scn"
    assert main(["gen", "--out-dir", str(out), f"{flag}={value}"]) == 2
    assert what in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rows,cols,what", [
    (0, 12, "city_rows must be a whole number >= 1, got 0"),
    (-3, 12, "city_rows must be a whole number >= 1, got -3"),
    (2.5, 12, "city_rows must be a whole number >= 1, got 2.5"),
    (12, 0, "city_cols must be a whole number >= 1, got 0"),
    (1, 1, "the city needs at least 2 nodes, got 1x1"),
])
def test_generate_scenario_dir_rejects_a_city_without_roads(tmp_path, rows, cols, what):
    # 0 and -3 rows died with a raw ValueError after writing the city CSVs,
    # 2.5 with a TypeError; a 1x1 city wrote a config whose runs all failed
    # as ZeroWeekTotal.
    out = tmp_path / "scn"
    with pytest.raises(errors.SchemaError, match=f"^{re.escape(what)}$"):
        generate_scenario_dir(str(out), seed=3, n_seeds_per_profile=1,
                              city_rows=rows, city_cols=cols)
    assert not out.exists()


def test_generate_scenario_dir_runs_a_two_node_city(tmp_path):
    config = generate_scenario_dir(str(tmp_path), seed=3, n_seeds_per_profile=1,
                                   city_rows=1, city_cols=2.0)
    outcomes = run_cohort(load_scenarios(config)).outcomes
    assert outcomes and all(o.error is None for o in outcomes)


@pytest.mark.parametrize("whole", ["seed", "n_seeds_per_profile", "station_count",
                                   "observation_weeks"])
def test_generate_scenario_dir_writes_whole_floats_as_ints(tmp_path, whole):
    # seed=3.0 wrote `seed: 3000.0` for each driver; a whole float
    # n_seeds_per_profile died with a TypeError.
    args = {"seed": 3, "n_seeds_per_profile": 1, "station_count": 10, "observation_weeks": 7}
    generate_scenario_dir(str(tmp_path / "int"), **args)
    generate_scenario_dir(str(tmp_path / "float"), **{**args, whole: float(args[whole])})
    files = sorted(p.name for p in (tmp_path / "int").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "float").iterdir())
    for name in files:
        assert (tmp_path / "float" / name).read_bytes() == (tmp_path / "int" / name).read_bytes()


def test_cli_ingest_graph_predict(trip_log_path, tmp_path, capsys):
    out = tmp_path / "pipeline"
    assert main(["ingest", "--log", trip_log_path, "--out-dir", str(out)]) == 0
    assert (out / "stops.csv").exists()
    assert main(["graph", "--log", trip_log_path, "--out-dir", str(out)]) == 0
    assert (out / "nodes.csv").exists() and (out / "edges.csv").exists()
    assert main(["predict", "--log", trip_log_path, "--out-dir", str(out),
                 "--window", "4", "--seed", "0"]) == 0
    assert (out / "cv_metrics.csv").exists()
    assert "gate verdict" in capsys.readouterr().out


@pytest.mark.parametrize("weeks", [None])
def test_cli_graph_takes_its_weeks_from_the_log(trip_log_path, tmp_path, capsys, weeks):
    # A --weeks flag scaled the visit frequencies: the 8-week log found 5, 3
    # or 0 habitual destinations with --weeks 2, 8 or 40. The log's own
    # weeks, counted as predict counts them, decide.
    assert main(["graph", "--log", trip_log_path, "--out-dir", str(tmp_path / "graph")]) == 0
    assert capsys.readouterr().out.startswith("3 habitual destinations")


def test_cli_ingest_rejects_timestamps_datetime_cannot_date(tmp_path, capsys):
    # A finite timestamp past year 9999 died with OverflowError when its halt was dated.
    log = tmp_path / "log.csv"
    log.write_text("timestamp,speed_kmh,lat,lon,fuel_l,can_msg\n"
                   "1736150400.0,30.0,44.0,11.0,,1\n"
                   "1e20,0.0,44.0,11.0,,1\n")
    assert main(["ingest", "--log", str(log), "--out-dir", str(tmp_path)]) == 2
    assert "line 3: timestamp 1e+20 outside UTC years 1-9999" in capsys.readouterr().err
    assert not (tmp_path / "stops.csv").exists()


@pytest.fixture(scope="module")
def two_per_profile(tmp_path_factory):
    """Six seed-3 drivers: commuter_1's 7-week gate accepts."""
    out = tmp_path_factory.mktemp("two_per_profile")
    return load_scenarios(generate_scenario_dir(str(out), seed=3, n_seeds_per_profile=2))


@pytest.mark.parametrize("weeks", [7, 8])
@pytest.mark.parametrize("driver", range(6))
def test_cli_predict_gives_the_simulate_verdict(two_per_profile, tmp_path, capsys,
                                                driver, weeks):
    # With no --window, `predict` gates the same held-out week of the same
    # whole-week series as `simulate`, and writes that week's metrics. The
    # commuters' logs end in a quiet Sunday, a 0 km day of that series.
    scn = replace(two_per_profile[driver], observation_weeks=weeks)
    log, _ = generate_synthetic_log(scn.profile, weeks)
    if scn.name.startswith("commuter"):
        last_sunday = OBSERVATION_START + timedelta(days=7 * weeks - 1)
        assert max(integrate_daily_distance(log)) < last_sunday
    path = str(tmp_path / "log.csv")
    save_trip_log(path, log)
    assert main(["predict", "--log", path, "--seed", str(scn.seed),
                 "--out-dir", str(tmp_path)]) == 0
    ctx = build_context(scn)
    expected = "accepted" if ctx.gate_accepted else "rejected"
    assert f"gate verdict on most recent week: {expected}\n" in capsys.readouterr().out
    m = ctx.gate_metrics
    assert (tmp_path / "cv_metrics.csv").read_text() == \
        f"fold,mae,e_week,e_week_pct\n0,{m.mae!r},{m.e_week!r},{m.e_week_pct!r}\n"


@pytest.mark.parametrize("window", ["-1", "0", "1"])
def test_cli_predict_window_below_two_weeks_is_a_validation_error(trip_log_path, tmp_path,
                                                                  capsys, window):
    assert main(["predict", "--log", trip_log_path, "--out-dir", str(tmp_path),
                 "--window", window]) == 2
    assert "--window must be >= 2 weeks" in capsys.readouterr().err
    assert not (tmp_path / "cv_metrics.csv").exists()


@pytest.mark.parametrize("command", ["ingest", "graph"])
@pytest.mark.parametrize("threshold", ["0", "-5", "nan", "inf"])
def test_cli_gap_threshold_is_checked_before_the_log(tmp_path, capsys, command, threshold):
    # A NaN threshold wrote one "stop" per message pair; 0 died with a traceback.
    assert main([command, "--log", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path),
                 "--gap-threshold", threshold]) == 2
    assert "--gap-threshold must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf"])
def test_cli_cluster_radius_is_checked_before_the_log(tmp_path, capsys, radius):
    # A NaN radius made one cluster per halt; 0 and -1 died with a traceback.
    assert main(["graph", "--log", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path),
                 "--cluster-radius", radius]) == 2
    assert "--cluster-radius must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense\n")
    assert main(["ingest", "--log", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert main(["simulate", "--config", str(tmp_path / "none.yaml"),
                 "--out-dir", str(tmp_path)]) == 1
    assert main(["bogus-command"]) == 2


# --- input oracle ---------------------------------------------------------------

ORACLE_VALUES = [0, -1, 0.5, math.nan, math.inf, -math.inf, "", [], {}, None, 1e300]


def _leaves(node, path=()):
    """The path of every scalar in a parsed config."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in _leaves(child, (*path, key))]
    return [path]


@pytest.fixture(scope="module")
def tiny_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    config = generate_scenario_dir(str(out), seed=3, n_seeds_per_profile=1, observation_weeks=4)
    return out, yaml.safe_load(Path(config).read_text())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cli_simulate_input_oracle(tiny_cohort, data):
    # One config leaf, or one of `simulate`'s --seed, --k1 and --k2, gets an
    # odd value. `simulate` must exit 2 before writing a report, or exit 0
    # with no NaN in per_run.csv; nothing may escape as a traceback. An
    # anchor at 0, -1 or 0.5 is a valid spot thousands of km from the city,
    # which MAX_ANCHOR_SPREAD_KM rejects before any log is made.
    base, cfg = tiny_cohort
    target = data.draw(st.sampled_from(["--seed", "--k1", "--k2", *_leaves(cfg)]))
    value = data.draw(st.sampled_from(ORACLE_VALUES))
    flags = {"--seed": [f"--seed={value}"],
             "--k1": ["--mode", "custom", f"--k1={value}", "--k2", "1"],
             "--k2": ["--mode", "custom", "--k1", "1", f"--k2={value}"]}.get(target, [])
    edited = yaml.safe_load(yaml.safe_dump(cfg))
    if not flags:
        node = edited
        for key in target[:-1]:
            node = node[key]
        node[target[-1]] = value
    config = base / "oracle.yaml"
    config.write_text(yaml.safe_dump(edited, sort_keys=False))
    with tempfile.TemporaryDirectory() as out:
        code = main(["simulate", "--config", str(config), "--out-dir", out, *flags])
        per_run = Path(out) / "per_run.csv"
        assert code in (0, 2)
        if code == 0:
            assert "nan" not in per_run.read_text()
        else:
            assert not per_run.exists()
