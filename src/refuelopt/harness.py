"""Multi-week simulation harness comparing refueling strategies.

Three strategies are replayed against the same per-scenario context (same
visited locations, same price snapshot, same vehicle), so differences come
only from how each picks its station:

  nearest          stop at the station closest to the departure point,
                   ignoring prices;
  cheapest_nearby  stop at the cheapest station within a fixed radius of
                   the departure point, ignoring the day's onward path;
  route_aware      the full pipeline: habitual day route, price-forecast
                   cheapest day, corridor candidates and weighted
                   cost/time selection.

Strategy contract: `strategy_*(ctx, modes)` returns one Outcome per mode, in
the order of `modes`. Routing happens once per call, whatever the number of
modes. A raised RefuelOptError is mode-independent (reachability depends only
on the vehicle, the corridor only on the route), so `run_scenario` turns it
into one error row per mode.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import date
from functools import cached_property

import numpy as np

from . import errors
from .geo import haversine_m_each
from .mileage import (DailyFeatureRow, PredictionMetrics, build_features,
                      evaluate_metrics, extra_mileage_delta, fill_weeks, fit_forest,
                      forecast_next_week, gate, predict_week)
from .optimizer import (CandidateStop, Mode, fuel_cost, generate_candidates,
                        route_candidate, select_stop)
from .roadgraph import BuiltinRouter, Route
from .scenario import Scenario
from .stations import Station, cheapest_day, forecast_week
from .tables import write_table
from .telemetry import (OBSERVATION_START, WEEKDAYS, detect_halts, generate_synthetic_log,
                        integrate_daily_distance)
from .tripgraph import assign_clusters, build_daily_flows, select_pois

STRATEGIES = ("nearest", "cheapest_nearby", "route_aware")

PER_RUN_HEADER = ["scenario", "strategy", "mode", "K1", "K2", "day",
                  "station_id", "cost_eur", "time_min", "gate_accepted",
                  "delta_km", "context_hash", "error"]
REPORT_HEADER = ["strategy", "mode", "K1", "K2", "cost_mean", "cost_std",
                 "time_mean", "time_std", "n_runs", "n_failed"]


@dataclass(frozen=True)
class ScenarioContext:
    """Everything the strategies share within one scenario run."""

    scenario: Scenario
    # Lives as long as the context: its route memo and departure search serve
    # every strategy of this scenario run and no other.
    router: BuiltinRouter
    day: str
    day_route: Route
    departure_node: str
    departure_coords: tuple[float, float]
    remaining_nodes: tuple[str, ...]
    day_prices: dict[str, float]
    delta_km: float
    gate_accepted: bool
    gate_metrics: PredictionMetrics   # of the held-out last observation week
    context_hash: str

    @cached_property
    def _priced(self) -> tuple[list[Station], np.ndarray, np.ndarray]:
        """The priced stations sorted by id, their day prices and their
        `haversine_m` from the departure point."""
        stations = sorted((s for s in self.scenario.stations if s.station_id in self.day_prices),
                          key=lambda s: s.station_id)
        prices = np.array([self.day_prices[s.station_id] for s in stations], dtype=float)
        return stations, prices, haversine_m_each(*self.departure_coords,
                                                  [s.lat for s in stations],
                                                  [s.lon for s in stations])

    def by_distance(self, radius_m: float = math.inf, by_price: bool = False) -> list[Station]:
        """The priced stations within `radius_m` of the departure point,
        sorted by (day price if `by_price`, `haversine_m`, id)."""
        stations, prices, dist = self._priced
        kept = np.flatnonzero(dist <= radius_m)
        keys = (dist[kept], prices[kept]) if by_price else (dist[kept],)
        return [stations[i] for i in kept[np.lexsort(keys)].tolist()]


@dataclass(frozen=True)
class Outcome:
    scenario: str
    strategy: str
    mode: str
    k_cost: float
    k_time: float
    day: str = ""
    station_id: str = ""
    cost_eur: float = 0.0
    time_min: float = 0.0
    gate_accepted: bool = False
    delta_km: float = 0.0
    context_hash: str = ""
    error: str | None = None


@dataclass(frozen=True)
class ReportRow:
    strategy: str
    mode: str
    k_cost: float
    k_time: float
    cost_mean: float
    cost_std: float
    time_mean: float
    time_std: float
    n_runs: int
    n_failed: int


@dataclass(frozen=True)
class AggregateReport:
    rows: tuple[ReportRow, ...]
    outcomes: tuple[Outcome, ...]


def mileage_verdict(daily_km: dict[date, float], monday: date, weeks: int, seed: int,
                    ) -> tuple[dict[date, float], list[DailyFeatureRow], PredictionMetrics, bool]:
    """`simulate`'s and `predict`'s one gate: fill whole weeks, fit on every row
    before the last week, then score and gate that held-out week. The stages go
    through this module's names, which the benchmark's tracer replaces."""
    series = fill_weeks(daily_km, monday, weeks)
    rows = build_features(series)
    model = fit_forest(rows[:-7], seed=seed)
    preds = predict_week(model, [replace(r, target=None) for r in rows[-7:]])
    metrics = evaluate_metrics([r.target for r in rows[-7:]], preds)
    return series, rows, metrics, gate(metrics)


def build_context(scn: Scenario) -> ScenarioContext:
    """Replay the scenario's observation period and fix the shared context."""
    samples, _truth = generate_synthetic_log(scn.profile, scn.observation_weeks)
    halts = detect_halts(samples, gap_threshold=scn.gap_threshold_s)
    driven_km = integrate_daily_distance(samples)
    del samples  # its pending fixes hold the generator's draws
    clusters = assign_clusters(halts, cluster_radius_m=scn.cluster_radius_m)
    pois, _all = select_pois(clusters, scn.observation_weeks)
    trip_graph = build_daily_flows(pois)
    daily_km, rows, metrics, accepted = mileage_verdict(
        driven_km, OBSERVATION_START, scn.observation_weeks, scn.seed)

    forecast = scn.forecast or forecast_week(scn.history, scn.fuel_type)
    graph = scn.graph
    router = BuiltinRouter(graph)

    # Cheapest forecast day, restricted to weekdays with a habitual route:
    # a day without transitions gives the optimizer nothing to work with.
    usable = [wd for wd in WEEKDAYS if trip_graph.edges.get(wd)]
    if not usable:
        raise errors.EmptyDayGraph(f"{scn.name}: no weekday has a habitual route")
    day = cheapest_day(forecast, usable)

    dep_coords = scn.profile.anchors[scn.departure]
    dep_node, _ = graph.nearest_node(*dep_coords)
    remaining = tuple(graph.nearest_node(e.dest_lat, e.dest_lon)[0]
                      for e in trip_graph.edges[day])
    day_route = router.one_stop_route(dep_node, remaining[0], list(remaining[1:]))

    delta_km = 0.0
    if accepted:
        full_model = fit_forest(rows, seed=scn.seed)
        next_week = forecast_next_week(full_model, daily_km)
        day_forecast = next(v for d, v in next_week.items()
                            if WEEKDAYS[d.weekday()] == day)
        delta_km = extra_mileage_delta(day_forecast, day_route.distance_km)

    day_prices = {sid: forecast.station_prices[sid][day]
                  for sid in forecast.station_prices}
    digest = hashlib.sha256(repr((
        day, sorted(day_prices.items()), dep_node, remaining,
        day_route.nodes, round(delta_km, 9),
        (scn.vehicle.tank_l, scn.vehicle.fuel_l, scn.vehicle.rate_l_per_km),
    )).encode()).hexdigest()

    return ScenarioContext(scenario=scn, router=router, day=day, day_route=day_route,
                           departure_node=dep_node, departure_coords=dep_coords,
                           remaining_nodes=remaining, day_prices=day_prices,
                           delta_km=delta_km, gate_accepted=accepted,
                           gate_metrics=metrics, context_hash=digest)


def corridor_candidates(ctx: ScenarioContext) -> list[CandidateStop]:
    """Corridor candidates on the context's day route, routed once.

    An empty corridor is not fatal: widen it (doubling, three tries) until a
    candidate appears, as sparse station coverage demands.
    """
    scn = ctx.scenario
    for attempt in range(4):
        try:
            return generate_candidates(
                ctx.router, ctx.day_route, ctx.departure_node,
                list(ctx.remaining_nodes), scn.stations, ctx.day_prices,
                delta_km=ctx.delta_km,
                corridor_radius_m=scn.corridor_radius_m * 2 ** attempt)
        except errors.NoCandidates:
            if attempt == 3:
                raise


def _plan_outcome(ctx: ScenarioContext, strategy: str, mode: Mode,
                  stop: CandidateStop) -> Outcome:
    # Reported time is the detour overhead over the habitual day route,
    # refueling duration included; the full-day driving time is common to
    # every strategy and would only obscure the comparison.
    overhead_min = (stop.time_s - ctx.day_route.time_s
                    + ctx.scenario.refuel_duration_s) / 60.0
    return Outcome(scenario=ctx.scenario.name, strategy=strategy, mode=mode.name,
                   k_cost=mode.k_cost, k_time=mode.k_time, day=ctx.day,
                   station_id=stop.station.station_id,
                   cost_eur=fuel_cost(stop, ctx.scenario.vehicle), time_min=overhead_min,
                   gate_accepted=ctx.gate_accepted, delta_km=ctx.delta_km,
                   context_hash=ctx.context_hash)


def _first_reachable(ctx: ScenarioContext, order: list[Station],
                     error: str) -> CandidateStop:
    """Route the stations in `order` one at a time; the first in fuel range wins."""
    scn = ctx.scenario
    remaining = list(ctx.remaining_nodes)
    for st in order:
        cand = route_candidate(ctx.router, ctx.departure_node, remaining, st,
                               ctx.day_prices[st.station_id], ctx.delta_km)
        if cand.reachable(scn.vehicle):
            return cand
    raise errors.NoReachableStation(error)


def strategy_nearest(ctx: ScenarioContext, modes: tuple[Mode, ...]) -> list[Outcome]:
    """Closest station to the departure point, price be damned."""
    stop = _first_reachable(ctx, ctx.by_distance(), "no station in fuel range")
    return [_plan_outcome(ctx, "nearest", mode, stop) for mode in modes]


def strategy_cheapest_nearby(ctx: ScenarioContext,
                             modes: tuple[Mode, ...]) -> list[Outcome]:
    """Cheapest station within a fixed radius of the departure point,
    selected without looking at the day's onward path."""
    scn = ctx.scenario
    order = ctx.by_distance(scn.nearby_radius_m, by_price=True)
    if not order:
        raise errors.NoReachableStation(
            f"no station within {scn.nearby_radius_m} m of the departure point")
    stop = _first_reachable(ctx, order, "no nearby station in fuel range")
    return [_plan_outcome(ctx, "cheapest_nearby", mode, stop) for mode in modes]


def strategy_route_aware(ctx: ScenarioContext,
                         modes: tuple[Mode, ...]) -> list[Outcome]:
    """Full pipeline: corridor candidates on the cheapest day's habitual
    route, routed once, then a weighted cost/time selection per mode."""
    scn = ctx.scenario
    candidates = corridor_candidates(ctx)
    return [_plan_outcome(ctx, "route_aware", mode,
                          select_stop(candidates, scn.vehicle, mode, day=ctx.day,
                                      refuel_duration_s=scn.refuel_duration_s).stop)
            for mode in modes]


_STRATEGY_FNS = {
    "nearest": strategy_nearest,
    "cheapest_nearby": strategy_cheapest_nearby,
    "route_aware": strategy_route_aware,
}


def _error_rows(scn: Scenario, strategy: str, modes: tuple[Mode, ...],
                exc: errors.RefuelOptError, context_hash: str = "") -> list[Outcome]:
    return [Outcome(scenario=scn.name, strategy=strategy, mode=m.name,
                    k_cost=m.k_cost, k_time=m.k_time, context_hash=context_hash,
                    error=f"{type(exc).__name__}: {exc}")
            for m in modes]


def run_scenario(scn: Scenario, strategies: tuple[str, ...] = STRATEGIES,
                 modes: tuple[Mode, ...] | None = None) -> list[Outcome]:
    """All strategy x mode outcomes for one scenario; failures become rows."""
    modes = modes or (scn.mode,)
    try:
        ctx = build_context(scn)
    except errors.RefuelOptError as exc:
        return [o for s in strategies for o in _error_rows(scn, s, modes, exc)]
    outcomes = []
    for strategy in strategies:
        try:
            outcomes += _STRATEGY_FNS[strategy](ctx, modes)
        except errors.RefuelOptError as exc:
            outcomes += _error_rows(scn, strategy, modes, exc, ctx.context_hash)
    return outcomes


def run_cohort(scenarios: list[Scenario], strategies: tuple[str, ...] = STRATEGIES,
               modes: tuple[Mode, ...] | None = None, jobs: int = 1) -> AggregateReport:
    """Replay every scenario under every strategy and mode and aggregate.

    Failed runs are excluded from the statistics but counted, never
    silently dropped. With jobs > 1 scenarios run in parallel processes;
    the result is identical to sequential execution.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_scenario = list(pool.map(run_scenario, scenarios,
                                         [strategies] * len(scenarios),
                                         [modes] * len(scenarios)))
    else:
        per_scenario = [run_scenario(s, strategies, modes) for s in scenarios]
    outcomes = [o for group in per_scenario for o in group]

    cells: dict[tuple, list[Outcome]] = {}  # first-seen order
    for o in outcomes:
        cells.setdefault((o.strategy, o.mode, o.k_cost, o.k_time), []).append(o)
    rows = []
    for (strategy, mode_name, k1, k2), cell in cells.items():
        ok = [o for o in cell if o.error is None]
        costs = [o.cost_eur for o in ok]
        times = [o.time_min for o in ok]
        rows.append(ReportRow(
            strategy=strategy, mode=mode_name, k_cost=k1, k_time=k2,
            cost_mean=statistics.mean(costs) if costs else 0.0,
            cost_std=statistics.pstdev(costs) if len(costs) > 1 else 0.0,
            time_mean=statistics.mean(times) if times else 0.0,
            time_std=statistics.pstdev(times) if len(times) > 1 else 0.0,
            n_runs=len(ok), n_failed=len(cell) - len(ok)))
    return AggregateReport(rows=tuple(rows), outcomes=tuple(outcomes))


def write_per_run_csv(report: AggregateReport, path: str) -> None:
    write_table(path, PER_RUN_HEADER,
                ([o.scenario, o.strategy, o.mode, repr(o.k_cost), repr(o.k_time),
                  o.day, o.station_id, repr(o.cost_eur), repr(o.time_min),
                  int(o.gate_accepted), repr(o.delta_km), o.context_hash, o.error or ""]
                 for o in report.outcomes))


def write_report_csv(report: AggregateReport, path: str) -> None:
    write_table(path, REPORT_HEADER,
                ([r.strategy, r.mode, repr(r.k_cost), repr(r.k_time),
                  repr(r.cost_mean), repr(r.cost_std), repr(r.time_mean),
                  repr(r.time_std), r.n_runs, r.n_failed]
                 for r in report.rows))
