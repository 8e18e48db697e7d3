#!/usr/bin/env python3
"""Cohort benchmark: replay synthetic driver cohorts through refuelopt.

Run from the repository root:

    python3 perfbench/run.py --workload cohort --seed 3 --seconds 50 --trace 0
    python3 perfbench/run.py            # every workload, one process each

A run sets the workload up several times (`generate_scenario_dir` then
`load_scenarios`), then replays the cohort with `harness.run_cohort(jobs=1)`
pass after pass until `--seconds` is spent: one warm-up pass, then at least
one timed pass. A timed pass times each `run_scenario`'s steps
(`build_context` and every strategy x mode call) and runs a fixed
reference kernel after each step. Replay times are reported in units of
the kernel's mean time, which tracks the speed a shared machine gives the
process at the time. After the timed region it writes each pass's
`per_run.csv` / `report.csv` and checks that their sha256 digests agree.
`--trace 1` alternates untraced and traced passes and reports per-layer
figures instead of end-to-end ones; see README.md. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import heapq
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import yaml

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# Every workload replays the same driver panel on every seed: the panel's
# profiles fix the telemetry, the forest fits and the gate verdicts, which
# are most of the work. Drawing the drivers from --seed made one pass cost
# up to 15 % (cohort) and 2.4x (metro_sweep) more on one seed than another.
PANEL_SEED = 3
SETUP_REPS = 9
SWEEP_POINTS = 5
REF_GRID = 45  # the reference kernel's Dijkstra grid side; one run takes ≈5 ms

WORKLOADS = {
    "cohort": {
        "gen": {"n_seeds_per_profile": 3},
        "market": True,
        "why": "the paper's 9-driver, 7-week setting; forest fits and "
               "detect_halts dominate, routing is under 1 %",
    },
    "metro_sweep": {
        "gen": {"n_seeds_per_profile": 2, "city_rows": 40, "city_cols": 40,
                "station_count": 300, "observation_weeks": 4},
        "market": False,
        "why": "40x40 city, 300 stations, 5 weight modes: routing dominates and "
               "every mode re-routes the same corridor candidates",
    },
}

END_TO_END = {
    "replay_ref": "ref",
    "replay_ref_p50": "ref",
    "replay_cpu_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "objective_ratio": "ratio",
}


def set_up(workload: str, seed: int, work: Path):
    """Write and load the workload's inputs; returns (scenarios, modes).

    `market` workloads draw the city and the station catalogue with its
    prices from `seed` and splice in the panel's drivers (anchors are grid
    nodes, so they exist in every city of the same size). metro_sweep keeps
    the panel's city and draws its (K1, K2) grid from `seed` instead: modes
    change decisions but not how much is routed.
    """
    from refuelopt import scenario
    from refuelopt.optimizer import Mode

    spec = WORKLOADS[workload]
    config = scenario.generate_scenario_dir(
        str(work / "market"), seed=seed if spec["market"] else PANEL_SEED, **spec["gen"])
    modes = None
    if spec["market"]:
        panel = scenario.generate_scenario_dir(str(work / "panel"), seed=PANEL_SEED,
                                               **spec["gen"])
        with open(config, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
        with open(panel, encoding="utf-8") as fh:
            cfg["drivers"] = yaml.safe_load(fh)["drivers"]
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
    else:
        rng = random.Random(seed)
        weights = [(round(10 ** rng.uniform(-1, 1), 3), round(10 ** rng.uniform(-1, 1), 3))
                   for _ in range(SWEEP_POINTS)]
        modes = tuple(Mode(f"k{k1:g}_{k2:g}", k1, k2) for k1, k2 in weights)
    return scenario.load_scenarios(config), modes


@functools.cache
def reference_kernel():
    """The fixed computation timed beside every replay step.

    It mixes the two kinds of work a replay spends its time on: a heap-based
    Dijkstra over a dict graph in pure Python (as in `roadgraph`) and small
    numpy sorts and reductions (as in `forest`). Its inputs never change, so
    its time changes only with the speed the machine gives the process.
    """
    rng = random.Random(0)
    n = REF_GRID
    graph = {(i, j): [((i + di, j + dj), rng.random())
                      for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0))
                      if 0 <= i + di < n and 0 <= j + dj < n]
             for i in range(n) for j in range(n)}
    table = np.random.default_rng(0).random((200, 8))

    def kernel() -> None:
        dist = {(0, 0): 0.0}
        heap = [(0.0, (0, 0))]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, cost in graph[u]:
                if d + cost < dist.get(v, math.inf):
                    dist[v] = d + cost
                    heapq.heappush(heap, (d + cost, v))
        for col in table.T:
            np.argsort(col)
            (col > 0.5).mean()

    return kernel


def replay(scenarios, modes, sink: list | None = None):
    """One `run_cohort` pass.

    With `sink`, times the sequential steps of each `run_scenario` (its
    `build_context` call and each strategy x mode call) and runs the
    reference kernel after each step, outside the step's time. Appends
    (scenario name, wall s, process s) for a step and (None, wall s,
    process s) for a kernel run to `sink`.
    """
    from refuelopt import harness

    if sink is None:
        return harness.run_cohort(scenarios, modes=modes, jobs=1)
    kernel = reference_kernel()

    def timed(fn, scenario_of):
        def wrapper(*args):
            w0, c0 = perf_counter(), process_time()
            try:
                return fn(*args)
            finally:
                w1, c1 = perf_counter(), process_time()
                kernel()
                sink.append((scenario_of(*args), w1 - w0, c1 - c0))
                sink.append((None, perf_counter() - w1, process_time() - c1))
        return wrapper

    build_context, strategy_fns = harness.build_context, dict(harness._STRATEGY_FNS)
    harness.build_context = timed(build_context, lambda scn: scn.name)
    for name, fn in strategy_fns.items():
        harness._STRATEGY_FNS[name] = timed(fn, lambda ctx, mode: ctx.scenario.name)
    try:
        return harness.run_cohort(scenarios, modes=modes, jobs=1)
    finally:
        harness.build_context = build_context
        harness._STRATEGY_FNS.update(strategy_fns)


def digests(report, out: Path) -> tuple[str, str]:
    from refuelopt import harness

    out.mkdir(parents=True, exist_ok=True)
    harness.write_per_run_csv(report, str(out / "per_run.csv"))
    harness.write_report_csv(report, str(out / "report.csv"))
    return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("per_run.csv", "report.csv"))


def objective_ratio(outcomes) -> float:
    """mean L(route_aware) / mean L(nearest), L = K1*cost_eur + K2*time_min,
    over scenario x mode pairs where both strategies succeeded."""
    loss = {(o.scenario, o.mode, o.strategy): o.k_cost * o.cost_eur + o.k_time * o.time_min
            for o in outcomes if o.error is None}
    pairs = [(v, loss[(s, m, "nearest")]) for (s, m, st), v in loss.items()
             if st == "route_aware" and (s, m, "nearest") in loss]
    if not pairs:
        return float("nan")
    return statistics.mean(p[0] for p in pairs) / statistics.mean(p[1] for p in pairs)


def consistent(report, scenarios, modes) -> bool:
    """Each scenario yields one outcome per strategy x mode, all strategies
    of a scenario share one context, and every pick is a known station."""
    from refuelopt import harness

    mode_names = [m.name for m in modes] if modes else [scenarios[0].mode.name]
    expected = [(s.name, st, m) for s in scenarios for st in harness.STRATEGIES
                for m in mode_names]
    if [(o.scenario, o.strategy, o.mode) for o in report.outcomes] != expected:
        return False
    stations = {st.station_id for st in scenarios[0].stations}
    contexts = {}
    return all(o.station_id in stations
               and contexts.setdefault(o.scenario, o.context_hash) == o.context_hash
               for o in report.outcomes if o.error is None)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    work = WORK / f"{workload}-{seed}-{trace:d}"
    shutil.rmtree(work, ignore_errors=True)

    setup_times = []
    for i in range(SETUP_REPS):
        start = perf_counter()
        with tracer or nullcontext():
            scenarios, modes = set_up(workload, seed, work / f"setup{i}")
        setup_times.append(perf_counter() - start)

    # Timed region: a warm-up pass, then timed passes. A traced run traces
    # every other pass after the warm-up, so its traced and untraced passes
    # see the same drift of a shared machine.
    reference_kernel()
    passes = []  # (kind, report, wall_s, sink); kind is warm-up, plain or traced
    min_passes = 3 if tracer else 2
    start = perf_counter()
    while True:
        kind = ("warm-up" if not passes else
                "traced" if tracer is not None and len(passes) % 2 == 0 else "plain")
        sink = [] if kind == "plain" else None
        w0 = perf_counter()
        with tracer if kind == "traced" else nullcontext():
            report = replay(scenarios, modes, sink)
        passes.append((kind, report, perf_counter() - w0, sink))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timed region.
    sums = [digests(rep, work / f"pass{i}") for i, (_k, rep, _w, _s) in enumerate(passes)]
    shutil.rmtree(work, ignore_errors=True)
    outcomes = [o for _k, rep, _w, _s in passes for o in rep.outcomes]
    errors_by_class = Counter(o.error.split(":")[0] for o in outcomes if o.error)
    ratio = objective_ratio(passes[0][1].outcomes)
    correct = (len(set(sums)) == 1 and math.isfinite(ratio)
               and all(consistent(rep, scenarios, modes) for _k, rep, _w, _s in passes))
    plain = [p for p in passes if p[0] == "plain"]
    print(f"{workload} seed={seed}: {len(scenarios)} scenarios x {len(passes)} passes "
          f"({len(plain)} timed untraced), {len(outcomes)} outcomes, "
          f"errors by class {dict(errors_by_class) or 'none'}")
    print(f"sha256 per_run.csv {sums[0][0]}")
    print(f"sha256 report.csv  {sums[0][1]}")
    print(f"digests identical across passes{' and traced/untraced' if trace else ''}: "
          f"{len(set(sums)) == 1}")

    if tracer is not None:
        metrics, units, oracle_ok = layer_figures(tracer, passes, f"{workload}-{seed}")
        correct = correct and oracle_ok
    else:
        replays, ref = replay_times(plain)
        wall = [w for w, _c, _k in replays]
        cpu = [c for _w, c, _k in replays]
        ref_wall = statistics.mean(w for w, _c in ref)
        ref_cpu = statistics.mean(c for _w, c in ref)
        metrics = {
            "replay_ref": statistics.mean(wall) / ref_wall,
            # Each replay against the kernel runs made during it.
            "replay_ref_p50": statistics.median(w / k for w, _c, k in replays),
            "replay_cpu_ref": statistics.mean(cpu) / ref_cpu,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - sum(errors_by_class.values()) / len(outcomes),
            "objective_ratio": ratio,
        }
        units = END_TO_END
        print(f"{len(wall)} driver replays: {len(wall) / sum(wall):.4g} drivers/s, "
              f"p50 {statistics.median(wall):.4g} s, {statistics.mean(cpu):.4g} cpu s each; "
              f"{len(ref)} reference kernel runs, mean {1e3 * ref_wall:.4g} ms "
              f"({1e3 * ref_cpu:.4g} cpu ms)")
    for name, value in metrics.items():
        print(f"  {name:55s} {value:14.6g} {units[name]}")
    return {"correct": bool(correct), "attempted": len(outcomes),
            "failed": sum(errors_by_class.values()),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def replay_times(plain):
    """Each driver's replay in each timed pass as (wall s, process s, mean
    wall s of the kernel runs after its steps), and each kernel run as
    (wall s, process s)."""
    replays, ref = [], []
    for _k, _rep, _w, sink in plain:
        per_driver = defaultdict(lambda: [0.0, 0.0, []])
        driver = None
        for name, wall, cpu in sink:
            if name is None:
                ref.append((wall, cpu))
                per_driver[driver][2].append(wall)
            else:
                driver = name
                per_driver[name][0] += wall
                per_driver[name][1] += cpu
        replays += [(w, c, statistics.mean(k)) for w, c, k in per_driver.values()]
    return replays, ref


def layer_figures(tracer, passes, tag: str):
    """Per-layer metrics of a traced run; also checks the select_stop
    oracle and writes the spans to `.perfbench/trace-<tag>.jsonl`."""
    from refuelopt import harness
    from spans import PER_LAYER_UNITS, layer_metrics, oracle_counts

    traced = [p for p in passes if p[0] == "traced"]
    plain = [p for p in passes if p[0] == "plain"]
    checked, matched = oracle_counts(tracer.spans)
    route_aware_ok = sum(1 for _k, rep, _w, _s in traced for o in rep.outcomes
                         if o.strategy == "route_aware" and o.error is None)
    print(f"select_stop oracle: {matched}/{checked} picks match "
          f"({route_aware_ok} route_aware outcomes)")

    metrics = layer_metrics(tracer.spans, per=len(traced), setups=SETUP_REPS)
    for strategy in harness.STRATEGIES:
        metrics[f"harness.failed.{strategy}"] = sum(
            1 for _k, rep, _w, _s in traced for o in rep.outcomes
            if o.strategy == strategy and o.error) / len(traced)
    layer_s = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                  and not k.startswith(("scenario.", "harness.run_scenario.")))
    metrics["trace.coverage_pct"] = 100.0 * layer_s / statistics.mean(p[2] for p in traced)
    # An untraced pass's wall time without its reference kernel runs.
    untraced_s = [w - sum(t for name, t, _c in sink if name is None)
                  for _k, _rep, w, sink in plain]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(p[2] for p in traced)
                                             / statistics.median(untraced_s) - 1.0)

    path = WORK / f"trace-{tag}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for name, s, e, parent, scn, attrs in tracer.spans:
            fh.write(json.dumps({"name": name, "start": s, "end": e, "parent": parent,
                                 "scenario": scn, **attrs}) + "\n")
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)})")
    return metrics, PER_LAYER_UNITS, checked == matched == route_aware_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: each in its own process)")
    parser.add_argument("--seed", type=int, default=PANEL_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "refuelopt" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/refuelopt not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload is None:
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, check=False).returncode != 0:
                return 1
        return 0
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
