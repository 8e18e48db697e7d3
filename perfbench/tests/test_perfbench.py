"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json

import pytest

import run
import spans
from conftest import BENCH
from refuelopt import harness, optimizer
from refuelopt.optimizer import CandidateStop, Mode, VehicleState
from refuelopt.roadgraph import Route
from refuelopt.stations import Station

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "cohort": {"n_seeds_per_profile": 1, "observation_weeks": 4},
    "metro_sweep": {"n_seeds_per_profile": 1, "city_rows": 12, "city_cols": 12,
                    "station_count": 30, "observation_weeks": 4},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, gen in TINY.items():
        monkeypatch.setitem(run.WORKLOADS[name], "gen", gen)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path / ".perfbench")


def patched_targets():
    targets = [getattr(harness, n) for names in spans.HARNESS_STAGES.values() for n in names]
    targets += list(harness._STRATEGY_FNS.values())
    targets += [getattr(owner, attr) for owner, attr, _p in spans.METHODS + spans.MODULE_FNS]
    return targets


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER_UNITS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_smoke(tiny, workload, trace):
    result = run.run(workload, seed=5, seconds=0, trace=bool(trace))
    assert result["correct"] and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(v["value"] == v["value"] for v in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    a, modes_a = run.set_up("metro_sweep", 7, tmp_path / "a")
    b, modes_b = run.set_up("metro_sweep", 7, tmp_path / "b")
    assert modes_a == modes_b and [s.profile for s in a] == [s.profile for s in b]
    c, _ = run.set_up("cohort", 7, tmp_path / "c")
    d, _ = run.set_up("cohort", 8, tmp_path / "d")
    assert [s.profile for s in c] == [s.profile for s in d]
    assert c[0].history.series != d[0].history.series


def test_wrappers_removed_and_self_times_non_negative(tiny, tmp_path):
    before = patched_targets()
    scenarios, modes = run.set_up("cohort", 3, tmp_path)
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            run.replay(scenarios[:1], modes)
            raise RuntimeError("leave the traced block early")
    assert [a is b for a, b in zip(patched_targets(), before)] == [True] * len(before)
    recorded = tracer.spans
    assert any(parent >= 0 for _n, _s, _e, parent, _scn, _a in recorded)
    assert min(spans.self_times(recorded)) >= 0.0
    assert {scn for *_x, scn, _a in recorded} == {scenarios[0].name}


def test_timed_pass_times_every_step_and_unpatches(tiny, tmp_path):
    before = (harness.build_context, dict(harness._STRATEGY_FNS))
    scenarios, modes = run.set_up("cohort", 3, tmp_path)
    sink = []
    run.replay(scenarios[:2], modes, sink)
    assert (harness.build_context, harness._STRATEGY_FNS) == before
    steps = 1 + len(harness.STRATEGIES)  # build_context, then one call per strategy
    names = [name for name, _w, _c in sink]
    assert names == [x for s in scenarios[:2] for x in [s.name, None] * steps]
    assert all(wall > 0 for _n, wall, _c in sink)
    replays, ref = run.replay_times([("plain", None, 0.0, sink)])
    assert len(replays) == 2 and len(ref) == 2 * steps
    kernel_s = [w for n, w, _c in sink[:2 * steps] if n is None]
    assert replays[0][2] == pytest.approx(sum(kernel_s) / steps)


def test_self_time_subtracts_direct_children():
    nested = [("a", 0.0, 10.0, -1, "", {}), ("b", 1.0, 4.0, 0, "", {}),
              ("c", 2.0, 3.0, 1, "", {}), ("d", 5.0, 9.0, 0, "", {})]
    assert spans.self_times(nested) == [3.0, 2.0, 1.0, 4.0]


def test_fit_forest_split_by_call_order():
    fits = [("harness.build_context", 0, 9, -1, "s", {}),
            ("mileage.fit_forest", 1, 2, 0, "s", {}),
            ("mileage.fit_forest", 3, 4, 0, "s", {}),
            ("harness.build_context", 10, 19, -1, "t", {}),
            ("mileage.fit_forest", 11, 12, 3, "t", {})]
    assert spans.metric_names(fits)[1:3] == ["mileage.fit_forest.gate",
                                             "mileage.fit_forest.full"]
    assert spans.metric_names(fits)[4] == "mileage.fit_forest.gate"


def test_select_stop_oracle_flags_a_wrong_pick():
    vehicle = VehicleState(tank_l=50.0, fuel_l=14.0, rate_l_per_km=0.06)
    mode = Mode("balanced", 1.0, 1.0)
    cands = [CandidateStop(station=Station(sid, 44.6, 10.9, "X"),
                           route=Route(("A", "B"), km, km * 60.0),
                           distance_km=km, corrected_km=km, time_s=km * 60.0,
                           price_eur_l=price)
             for sid, km, price in (("S1", 5.0, 1.80), ("S2", 6.0, 1.70))]
    select = optimizer.select_stop
    kwargs = {"refuel_duration_s": 300.0}
    right = select(cands, vehicle, mode, **kwargs)
    assert spans.HOOKS["optimizer.select_stop"](select, (cands, vehicle, mode), kwargs,
                                                right)["oracle_ok"]
    wrong = select([c for c in cands if c is not right.stop], vehicle, mode, **kwargs)
    assert not spans.HOOKS["optimizer.select_stop"](select, (cands, vehicle, mode),
                                                    kwargs, wrong)["oracle_ok"]


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cohort", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
