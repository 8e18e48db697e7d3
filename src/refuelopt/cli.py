"""Command-line interface.

Subcommands:
  gen       write a synthetic city + driver cohort scenario directory
  ingest    trip log -> stop events CSV
  graph     trip log -> habitual trip graph CSV pair
  predict   trip log -> hold-out gate verdict (optional sliding-window CV report)
  plan      scenario config -> one refuel plan (CSV + GeoJSON)
  simulate  scenario config -> cohort comparison report

Exit codes: 0 success, 2 validation error (bad input or config), 1 runtime
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

from . import errors, harness, mileage, scenario as scenario_mod
from .optimizer import MODES, Mode, export_plan_csv, export_plan_geojson, select_stop
from .tables import write_table
from .telemetry import (DEFAULT_GAP_THRESHOLD_S, TripLog, detect_halts, integrate_daily_distance,
                        load_trip_log)
from .tripgraph import (DEFAULT_CLUSTER_RADIUS_M, assign_clusters, build_daily_flows,
                        export_graph_csv, select_pois)


def _mode_from_args(args) -> Mode | None:
    """The --mode preset, or None for the config's mode; run before the config is read."""
    if args.mode != "custom":
        for flag, weight in (("--k1", args.k1), ("--k2", args.k2)):
            if weight is not None:
                raise errors.SchemaError(f"{flag} is only read with --mode custom")
        return MODES[args.mode] if args.mode else None
    if args.k1 is None or args.k2 is None:
        raise errors.SchemaError("--mode custom requires --k1 and --k2")
    try:
        return Mode(name="custom", k_cost=args.k1, k_time=args.k2)
    except ValueError as exc:
        raise errors.SchemaError(f"--mode custom: {exc}") from None


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["fuel", "balanced", "time", "custom"],
                   default=None, help="preference preset (default: scenario config)")
    p.add_argument("--k1", type=float, default=None, help="cost weight for --mode custom")
    p.add_argument("--k2", type=float, default=None, help="time weight for --mode custom")


def cmd_gen(args) -> int:
    config = scenario_mod.generate_scenario_dir(
        args.out_dir, seed=args.seed, n_seeds_per_profile=args.seeds_per_profile,
        station_count=args.stations, observation_weeks=args.weeks)
    print(f"wrote scenario config to {config}")
    return 0


def _check_positive(flag: str, value: float) -> None:
    # Before reading the log: the stage would raise a bare ValueError or take NaN.
    if not 0 < value < math.inf:
        raise errors.SchemaError(f"{flag} must be positive and finite, got {value}")


def cmd_ingest(args) -> int:
    _check_positive("--gap-threshold", args.gap_threshold)
    events = detect_halts(load_trip_log(args.log), gap_threshold=args.gap_threshold)
    out = Path(args.out_dir) / "stops.csv"
    write_table(str(out), ["timestamp", "date", "lat", "lon"],
                ([repr(ev.timestamp), ev.day.isoformat(), repr(ev.lat), repr(ev.lon)]
                 for ev in events))
    print(f"{len(events)} stop events -> {out}")
    return 0


def _log_weeks(samples: TripLog) -> tuple[dict, date, int]:
    """The log's daily km, the Monday of its first day with driving, and its
    whole weeks from that Monday to the Sunday of its last day with driving."""
    daily_km = integrate_daily_distance(samples)
    if not daily_km:
        raise errors.SeriesTooShort("the log has no driving")
    monday = min(daily_km) - timedelta(days=min(daily_km).weekday())
    return daily_km, monday, (max(daily_km) - monday).days // 7 + 1


def cmd_graph(args) -> int:
    _check_positive("--gap-threshold", args.gap_threshold)
    _check_positive("--cluster-radius", args.cluster_radius)
    samples = load_trip_log(args.log)
    _daily_km, _monday, weeks = _log_weeks(samples)
    events = detect_halts(samples, gap_threshold=args.gap_threshold)
    clusters = assign_clusters(events, cluster_radius_m=args.cluster_radius)
    pois, all_nodes = select_pois(clusters, weeks)
    graph = build_daily_flows(pois)
    nodes_path = Path(args.out_dir) / "nodes.csv"
    edges_path = Path(args.out_dir) / "edges.csv"
    export_graph_csv(all_nodes, graph, str(nodes_path), str(edges_path))
    n_edges = sum(len(es) for es in graph.edges.values())
    print(f"{len(pois)} habitual destinations, {n_edges} edges "
          f"-> {nodes_path}, {edges_path}")
    return 0


def cmd_predict(args) -> int:
    if args.window is not None and args.window < 2:
        raise errors.SchemaError(f"--window must be >= 2 weeks (a fit needs 14 rows), "
                                 f"got {args.window}")
    if args.seed < 0:
        raise errors.SchemaError(f"--seed must be >= 0, got {args.seed}")
    _series, rows, metrics, accepted = harness.mileage_verdict(
        *_log_weeks(load_trip_log(args.log)), seed=args.seed)
    report = (mileage.sliding_cv(rows, window_weeks=args.window, seed=args.seed)
              if args.window else mileage.CvReport((metrics,), metrics))
    out = Path(args.out_dir) / "cv_metrics.csv"
    mileage.export_metrics_csv(report.folds, str(out))
    print(f"{len(report.folds)} folds; mean MAE {report.mean.mae:.2f} km/day, "
          f"mean E_week {report.mean.e_week:.2f} km, "
          f"mean E_week% {report.mean.e_week_pct:.1f}")
    print(f"gate verdict on most recent week: {('rejected', 'accepted')[accepted]}")
    print(f"per-fold metrics -> {out}")
    return 0


def cmd_plan(args) -> int:
    mode = _mode_from_args(args)
    scenarios = scenario_mod.load_scenarios(args.config)
    if args.driver:
        matching = [s for s in scenarios if s.name == args.driver]
        if not matching:
            raise errors.SchemaError(f"no driver named {args.driver!r} in config")
        scn = matching[0]
    else:
        scn = scenarios[0]
    if mode:
        scn = replace(scn, mode=mode)
    if args.seed is not None:
        scn = replace(scn, seed=args.seed)
    ctx = harness.build_context(scn)
    candidates = harness.corridor_candidates(ctx)
    plan = select_stop(candidates, scn.vehicle, scn.mode, day=ctx.day,
                       refuel_duration_s=scn.refuel_duration_s)
    out_csv = Path(args.out_dir) / "plan.csv"
    out_geojson = Path(args.out_dir) / "plan.geojson"
    export_plan_csv(plan, str(out_csv))
    export_plan_geojson(plan, candidates, scn.graph, str(out_geojson))
    print(f"{scn.name}: refuel {plan.stop.station.station_id} on {ctx.day} "
          f"({plan.cost_eur:.2f} EUR, {plan.time_min:.2f} min incl. day route)"
          f" -> {out_csv}, {out_geojson}")
    return 0


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise errors.SchemaError(f"--jobs must be >= 1, got {args.jobs}")
    mode = _mode_from_args(args)
    modes = (mode,) if mode else None
    scenarios = scenario_mod.load_scenarios(args.config)
    if args.seed is not None:
        scenarios = [replace(s, seed=args.seed) for s in scenarios]
    report = harness.run_cohort(scenarios, modes=modes, jobs=args.jobs)
    out_dir = Path(args.out_dir)
    harness.write_per_run_csv(report, str(out_dir / "per_run.csv"))
    harness.write_report_csv(report, str(out_dir / "report.csv"))
    print(f"{'strategy':<16} {'mode':<15} {'cost [EUR]':>14} {'time [min]':>14} runs failed")
    for r in report.rows:
        print(f"{r.strategy:<16} {r.mode:<15} "
              f"{r.cost_mean:8.2f} ± {r.cost_std:4.2f} "
              f"{r.time_mean:8.2f} ± {r.time_std:4.2f} {r.n_runs:4d} {r.n_failed:6d}")
    print(f"reports -> {out_dir / 'report.csv'}, {out_dir / 'per_run.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="refuelopt",
                                     description="Habit-aware refueling planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stations", type=int, default=10)
    p.add_argument("--weeks", type=int, default=7)
    p.add_argument("--seeds-per-profile", type=int, default=5)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("ingest", help="trip log -> stop events")
    p.add_argument("--log", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--gap-threshold", type=float, default=DEFAULT_GAP_THRESHOLD_S)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("graph", help="trip log -> habitual trip graph CSVs")
    p.add_argument("--log", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--gap-threshold", type=float, default=DEFAULT_GAP_THRESHOLD_S)
    p.add_argument("--cluster-radius", type=float, default=DEFAULT_CLUSTER_RADIUS_M)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("predict", help="hold-out gate verdict and CV report")
    p.add_argument("--log", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--window", type=int, help="also report sliding CV of N-week windows")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("plan", help="one refuel plan from a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--driver", default=None, help="driver name (default: first)")
    p.add_argument("--seed", type=int, default=None)
    _add_mode_flags(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("simulate", help="cohort comparison of strategies")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    _add_mode_flags(p)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.fn is not cmd_gen:  # gen checks its flags before it writes the directory
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        return args.fn(args)
    except (errors.SchemaError, errors.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (errors.RefuelOptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
