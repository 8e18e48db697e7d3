"""The benchmark's outside-in spans must still fit the package they wrap.

`perfbench/spans.py` patches names in `refuelopt` and reads call arguments
in its hooks; a change of a name, a signature or a return type in `src`
would break the traced benchmark without failing any other tier-1 test.
"""

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from refuelopt import harness
from refuelopt.scenario import load_scenarios
from refuelopt.telemetry import (DriverProfile, TripLog, TripSample, detect_halts,
                                 generate_synthetic_log)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    return importlib.import_module("spans")


def patch_targets(spans):
    """Everything `spans.Tracer` replaces while it is active."""
    targets = [getattr(harness, n) for names in spans.HARNESS_STAGES.values() for n in names]
    targets += list(harness._STRATEGY_FNS.values())
    targets += [getattr(owner, attr) for owner, attr, _p in spans.METHODS + spans.MODULE_FNS]
    return targets


def test_telemetry_spans_and_hooks_fit_src(spans, demo_scenario_config):
    scenarios = load_scenarios(demo_scenario_config)
    before = patch_targets(spans)
    with spans.Tracer() as tracer:
        assert not any(a is b for a, b in zip(patch_targets(spans), before))
        harness.run_cohort(scenarios, jobs=1)
    assert all(a is b for a, b in zip(patch_targets(spans), before))

    telemetry = [f"telemetry.{n}" for n in spans.HARNESS_STAGES["telemetry"]]
    fired = Counter((s[0], s[4]) for s in tracer.spans if s[0] in telemetry)
    assert fired == Counter({(name, scn.name): 1 for name in telemetry for scn in scenarios})
    fixes_in = {s[4]: s[5]["fixes_in"] for s in tracer.spans if s[0] == "telemetry.detect_halts"}
    for scn in scenarios:
        log, _truth = generate_synthetic_log(scn.profile, scn.observation_weeks)
        assert fixes_in[scn.name] == np.count_nonzero(log.located) > 0


def test_detect_halts_hook_binds_its_log(spans):
    # The hook takes the log by the parameter name `gps` and counts the
    # fixes of its rows, which must be 5-field TripSample rows.
    assert list(inspect.signature(detect_halts).parameters)[0] == "gps"
    log = TripLog([0.0, 1.0, 2.0], [0.0, 5.0, 0.0], [44.0, None, 44.1], [11.0, None, 11.1],
                  message=[True, False, True])
    assert [type(row) for row in log] == [TripSample] * 3
    assert [len(row) for row in log] == [5] * 3
    assert spans._detect_halts(detect_halts, (log,), {}, []) == {"fixes_in": 2, "halts_out": 0}


def test_detect_halts_hook_counts_every_fix_of_a_pending_log(spans):
    # A generated log's coordinates are placed on demand; the hook reads them
    # by iterating, which places every fix.
    profile = DriverProfile(seed=5, anchors={"home": (44.6, 10.9), "work": (44.65, 10.96)},
                            schedule={"Mon": ["home", "work", "home"]})
    log, _truth = generate_synthetic_log(profile, 2)
    assert log._place is not None
    halts = detect_halts(log)
    assert log._place is not None and len(halts) == 3  # the last arrival ends the log
    assert spans._detect_halts(detect_halts, (log,), {}, halts) == {
        "fixes_in": len(log), "halts_out": 3}
    assert log._place is None
