"""Outside-in spans around refuelopt's layers, for the benchmark's traced run.

`Tracer` replaces the names that callers resolve at call time with timing
wrappers and puts the originals back on exit:

- the stage functions `harness` imports (`refuelopt.harness.<fn>`), plus
  `harness.build_context` and `harness.run_scenario`;
- the entries of `harness._STRATEGY_FNS`, which hold the strategy functions
  themselves, so patching the module attributes would miss them;
- `mileage.fit_bagged_trees` and `optimizer.corridor_filter`, which
  `fit_forest` and `generate_candidates` resolve in their own modules;
- the `RoadGraph`, `BuiltinRouter` and `BaggedTrees` methods;
- `scenario.generate_scenario_dir` and `scenario.load_scenarios`.

A span is (name, start, end, parent index, scenario id, attrs). Hooks run
after a span closes and attach counts to it, so counts are aggregated from
the spans alone. The `select_stop` hook is also an oracle: it re-scans the
candidates it was given with `optimizer.objective` and the same tie-break
key, and records whether the pick matches.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from time import perf_counter

from refuelopt import errors, harness, mileage, optimizer, scenario
from refuelopt.forest import BaggedTrees
from refuelopt.roadgraph import BuiltinRouter, RoadGraph

# Span names, one per wrapped callable, grouped by the module (layer) that
# defines it. `mileage.fit_forest` spans are split into `.gate` and `.full`
# by their order inside `build_context`.
HARNESS_STAGES = {
    "telemetry": ("generate_synthetic_log", "detect_halts", "integrate_daily_distance"),
    "tripgraph": ("assign_clusters", "select_pois", "build_daily_flows"),
    "mileage": ("build_features", "fit_forest", "predict_week", "evaluate_metrics",
                "gate", "forecast_next_week", "extra_mileage_delta"),
    "stations": ("forecast_week",),
    "optimizer": ("generate_candidates", "select_stop"),
    "harness": ("build_context", "run_scenario"),
}
METHODS = ((RoadGraph, "nearest_node", "roadgraph.RoadGraph"),
           (BuiltinRouter, "shortest_route", "roadgraph.BuiltinRouter"),
           (BuiltinRouter, "one_stop_route", "roadgraph.BuiltinRouter"),
           (BaggedTrees, "predict", "forest.BaggedTrees"))
MODULE_FNS = ((mileage, "fit_bagged_trees", "forest"),
              (optimizer, "corridor_filter", "roadgraph"),
              (scenario, "generate_scenario_dir", "scenario"),
              (scenario, "load_scenarios", "scenario"))

SETUP_SPANS = ("scenario.generate_scenario_dir", "scenario.load_scenarios")
ROOT_SPAN = "harness.run_scenario"


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _detect_halts(fn, args, kwargs, result) -> dict:
    gps = _args(fn, args, kwargs)["gps"]
    return {"fixes_in": sum(1 for s in gps if s.lat is not None), "halts_out": len(result)}


def _fit_forest(fn, args, kwargs, result) -> dict:
    return {"rows": len(_args(fn, args, kwargs)["rows"])}


def _corridor_filter(fn, args, kwargs, result) -> dict:
    return {"tested": len(_args(fn, args, kwargs)["points"]), "kept": len(result)}


def _select_stop(fn, args, kwargs, result) -> dict:
    """Exhaustive oracle: the pick must minimise (L, C, t, station_id)."""
    a = _args(fn, args, kwargs)
    keys = []
    for c in a["candidates"]:
        score = optimizer.objective(c, a["vehicle"], a["mode"], a["refuel_duration_s"])
        if not math.isinf(score):
            keys.append((score, optimizer.fuel_cost(c, a["vehicle"]), c.time_s,
                         c.station.station_id))
    best = min(keys)
    ok = (result.stop.station.station_id, result.objective) == (best[3], best[0])
    return {"candidates": len(a["candidates"]), "reachable": len(keys), "oracle_ok": ok}


HOOKS = {
    "telemetry.detect_halts": _detect_halts,
    "tripgraph.assign_clusters": lambda fn, a, k, r: {"clusters": len(r)},
    "tripgraph.select_pois": lambda fn, a, k, r: {"pois": len(r[0])},
    "mileage.fit_forest": _fit_forest,
    "mileage.gate": lambda fn, a, k, r: {"accepted": bool(r)},
    "roadgraph.corridor_filter": _corridor_filter,
    "optimizer.generate_candidates": lambda fn, a, k, r: {"candidates": len(r)},
    "optimizer.select_stop": _select_stop,
}


class Tracer:
    """Context manager: patch on enter, record spans, restore on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._scenario = ""
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer, names in HARNESS_STAGES.items():
            for name in names:
                self._patch(harness, name, f"{layer}.{name}")
        for strategy, fn in list(harness._STRATEGY_FNS.items()):
            self._patch(harness._STRATEGY_FNS, strategy, f"harness.{fn.__name__}")
        for owner, attr, prefix in METHODS + MODULE_FNS:
            self._patch(owner, attr, f"{prefix}.{attr}")
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapper = self._wrap(name, original)
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if name == ROOT_SPAN:
                self._scenario = args[0].name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            attrs = {}
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors.RefuelOptError as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._scenario, attrs)
            if hook is not None:
                attrs.update(hook(fn, args, kwargs, result))
            return result

        return wrapper


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _scn, _attrs in spans:
        if parent >= 0:
            child_s[parent] += end - start
    return [end - start - child_s[i]
            for i, (_n, start, end, *_rest) in enumerate(spans)]


def metric_names(spans: list[tuple]) -> list[str]:
    """Span names with `mileage.fit_forest` split into `.gate` / `.full`
    by call order under its `build_context` parent."""
    fits_under: dict[int, int] = defaultdict(int)
    names = []
    for name, _s, _e, parent, _scn, _attrs in spans:
        if name == "mileage.fit_forest":
            name += (".gate", ".full")[min(fits_under[parent], 1)]
            fits_under[parent] += 1
        names.append(name)
    return names


# Every per-layer metric, with its unit; a span absent on a workload reads 0.
SPAN_METRICS = tuple(
    f"{layer}.{name}" for layer, names in HARNESS_STAGES.items() for name in names
    if name != "fit_forest") + (
    "mileage.fit_forest.gate", "mileage.fit_forest.full",
    "harness.strategy_nearest", "harness.strategy_cheapest_nearby",
    "harness.strategy_route_aware") + tuple(
    f"{prefix}.{attr}" for _owner, attr, prefix in METHODS + MODULE_FNS)
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in SPAN_METRICS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "telemetry.detect_halts.fixes_in": "count",
    "telemetry.detect_halts.halts_out": "count",
    "tripgraph.assign_clusters.clusters": "count",
    "tripgraph.select_pois.pois": "count",
    "mileage.fit_forest.gate.rows": "count",
    "mileage.fit_forest.full.rows": "count",
    "mileage.gate.accept_ratio": "ratio",
    "roadgraph.corridor_filter.kept_ratio": "ratio",
    "optimizer.generate_candidates.candidates": "count",
    "optimizer.generate_candidates.widenings": "count",
    "optimizer.generate_candidates.reachable_ratio": "ratio",
    "harness.failed.nearest": "count",
    "harness.failed.cheapest_nearby": "count",
    "harness.failed.route_aware": "count",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def layer_metrics(spans: list[tuple], per: int, setups: int) -> dict[str, float]:
    """`.calls` and `.self_s` of every span name plus the layer counts.

    Replay spans are divided by `per` (replay passes traced), set-up spans
    by `setups`, so every figure is per cohort replay or per set-up. The
    `harness.failed.*` and `trace.*` figures are left to the caller.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for name, own, span in zip(metric_names(spans), self_times(spans), spans):
        calls[name] += 1
        self_s[name] += own
        for key, value in span[5].items():
            attrs[name][key] += 1 if key == "error" else value
    out = {}
    for name in SPAN_METRICS:
        div = setups if name in SETUP_SPANS else per
        out[f"{name}.calls"] = calls[name] / div
        out[f"{name}.self_s"] = self_s[name] / div
    a = attrs
    out["telemetry.detect_halts.fixes_in"] = a["telemetry.detect_halts"]["fixes_in"] / per
    out["telemetry.detect_halts.halts_out"] = a["telemetry.detect_halts"]["halts_out"] / per
    out["tripgraph.assign_clusters.clusters"] = a["tripgraph.assign_clusters"]["clusters"] / per
    out["tripgraph.select_pois.pois"] = a["tripgraph.select_pois"]["pois"] / per
    for kind in ("gate", "full"):
        out[f"mileage.fit_forest.{kind}.rows"] = a[f"mileage.fit_forest.{kind}"]["rows"] / per
    out["mileage.gate.accept_ratio"] = _ratio(a["mileage.gate"]["accepted"],
                                              calls["mileage.gate"])
    out["roadgraph.corridor_filter.kept_ratio"] = _ratio(
        a["roadgraph.corridor_filter"]["kept"], a["roadgraph.corridor_filter"]["tested"])
    gen, sel = a["optimizer.generate_candidates"], a["optimizer.select_stop"]
    out["optimizer.generate_candidates.candidates"] = gen["candidates"] / per
    out["optimizer.generate_candidates.widenings"] = gen["error"] / per
    out["optimizer.generate_candidates.reachable_ratio"] = _ratio(sel["reachable"],
                                                                  sel["candidates"])
    return out


def oracle_counts(spans: list[tuple]) -> tuple[int, int]:
    """(select_stop calls checked, picks that matched the exhaustive scan)."""
    checked = [s[5]["oracle_ok"] for s in spans
               if s[0] == "optimizer.select_stop" and "oracle_ok" in s[5]]
    return len(checked), sum(checked)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
