"""End-to-end acceptance criteria for the refueling-itinerary engine.

Each test covers one numbered criterion and prints a single PASS line when
its assertions hold; tolerances and runtime budgets are pinned in the
asserts themselves.
"""

import math
import random
import statistics
import tempfile
import time
from datetime import date, timedelta

import pytest

from refuelopt import errors
from refuelopt.cli import main
from refuelopt.geo import haversine_m
from refuelopt.harness import build_context, corridor_candidates, run_cohort
from refuelopt.mileage import (GATE_E_WEEK_MAX, GATE_E_WEEK_PCT_MAX, GATE_MAE_MAX,
                               PredictionMetrics, build_features, evaluate_metrics, gate,
                               sliding_cv)
from refuelopt.optimizer import (MODES, CandidateStop, Mode, VehicleState, fuel_cost,
                                 objective, route_candidate, select_stop, time_cost)
from refuelopt.roadgraph import (BuiltinRouter, RoadGraph, Route,
                                 corridor_filter, generate_city,
                                 load_road_graph, point_polyline_distance_m,
                                 save_road_graph)
from refuelopt.scenario import generate_scenario_dir, load_scenarios
from refuelopt.stations import Station
from refuelopt.telemetry import (DriverProfile, detect_halts,
                                 generate_synthetic_log,
                                 integrate_daily_distance, load_trip_log,
                                 save_trip_log, ts_to_date)
from refuelopt.tripgraph import (DEFAULT_CLUSTER_RADIUS_M, FrequencyCategory, assign_clusters,
                                 build_daily_flows, categorize_frequency,
                                 export_graph_csv, import_graph_csv,
                                 select_pois)

MONDAY = date(2025, 1, 6)
M_PER_DEG = 111_194.9

VEHICLE = VehicleState(tank_l=50.0, fuel_l=14.0, rate_l_per_km=0.06)

# Weight grid ordered by increasing time emphasis (K2/K1 from 0 to infinity).
WEIGHT_GRID = ((1.0, 0.0), (10.0, 1.0), (1.0, 1.0), (1.0, 10.0), (0.0, 1.0))


def random_instance(seed):
    """5-50 candidates with at least one inside the fuel range."""
    rng = random.Random(seed)
    n = rng.randint(5, 50)
    cands = []
    for i in range(n):
        distance = rng.uniform(2.0, 80.0) if i == 0 else rng.uniform(2.0, 400.0)
        st = Station(station_id=f"S{i:03d}", lat=44.65, lon=10.92, brand="X")
        cands.append(CandidateStop(
            station=st, route=Route(nodes=("A",), distance_km=distance,
                                    time_s=rng.uniform(120.0, 5400.0)),
            distance_km=distance, corrected_km=distance + rng.uniform(0.0, 20.0),
            time_s=rng.uniform(120.0, 5400.0), price_eur_l=rng.uniform(1.5, 2.2)))
    return cands


def test_criterion_01_optimizer_matches_exhaustive_oracle():
    start = time.monotonic()
    checked = 0
    for seed in range(500):
        cands = random_instance(seed)
        for k1, k2 in WEIGHT_GRID:
            mode = Mode("grid", k1, k2)
            keys = [(objective(c, VEHICLE, mode), fuel_cost(c, VEHICLE),
                     c.time_s, c.station.station_id) for c in cands]
            finite = [k for k in keys if math.isfinite(k[0])]
            assert finite, "every instance must have a reachable candidate"
            plan = select_stop(cands, VEHICLE, mode)
            oracle = min(finite)
            assert plan.stop.station.station_id == oracle[3]
            assert plan.objective == pytest.approx(oracle[0], rel=1e-12)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: select_stop equals the exhaustive oracle on "
          f"{checked} instance-mode pairs, 0 mismatches, {elapsed:.1f}s < 10s")


def test_criterion_02_mode_sweep_monotonicity():
    violations = 0
    for seed in range(500):
        cands = random_instance(seed)
        times, costs = [], []
        for k1, k2 in WEIGHT_GRID:
            plan = select_stop(cands, VEHICLE, Mode("grid", k1, k2))
            times.append(time_cost(plan.stop) / 60.0)
            costs.append(fuel_cost(plan.stop, VEHICLE))
        for a, b in zip(times, times[1:]):
            if b > a + 1e-9:
                violations += 1
        for a, b in zip(costs, costs[1:]):
            if b < a - 1e-9:
                violations += 1
    assert violations == 0
    print("\nCRITERION 2 PASS: chosen time non-increasing and chosen cost "
          "non-decreasing across the 5-point weight sweep on 500 instances, "
          "0 violations")


def test_criterion_03_cohort_strategy_ordering():
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        config = generate_scenario_dir(tmp, seed=3, n_seeds_per_profile=5)
        scenarios = load_scenarios(config)
        assert len(scenarios) == 15
        history = scenarios[0].history
        latest = [history.series[(s.station_id, "petrol")][-1][1]
                  for s in scenarios[0].stations]
        dispersion = (max(latest) - min(latest)) / statistics.mean(latest)
        assert dispersion >= 0.05
        report = run_cohort(scenarios)
    rows = {r.strategy: r for r in report.rows}
    assert all(r.n_failed == 0 for r in report.rows)
    baseline = rows["nearest"]
    nearby = rows["cheapest_nearby"]
    full = rows["route_aware"]
    assert nearby.cost_mean <= baseline.cost_mean
    assert full.cost_mean <= baseline.cost_mean
    assert full.time_mean < nearby.time_mean
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nCRITERION 3 PASS: 15-scenario cohort (dispersion {dispersion:.1%}): "
          f"cost {nearby.cost_mean:.2f}/{full.cost_mean:.2f} <= "
          f"{baseline.cost_mean:.2f} EUR, time {full.time_mean:.2f} < "
          f"{nearby.time_mean:.2f} min, {elapsed:.1f}s < 60s")


def test_criterion_04_frequency_boundaries():
    eps = 1e-9
    expected = {
        0.0: FrequencyCategory.VERY_LOW,
        1.0: FrequencyCategory.VERY_LOW,
        1.0 + eps: FrequencyCategory.LOW,
        2.0: FrequencyCategory.LOW,
        2.0 + eps: FrequencyCategory.MEDIUM,
        4.0: FrequencyCategory.MEDIUM,
        4.0 + eps: FrequencyCategory.HIGH,
        10.0 - eps: FrequencyCategory.HIGH,
        10.0: FrequencyCategory.VERY_HIGH,
    }
    for v, cat in expected.items():
        assert categorize_frequency(v) is cat, f"v={v}"
    print("\nCRITERION 4 PASS: all 9 frequency-interval boundary points "
          "categorized exactly")


def test_criterion_05_metrics_formulas_and_gate_boundary():
    rng = random.Random(50)
    for trial in range(20):
        n = rng.randint(1, 14)
        y = [rng.uniform(0.5, 80.0) for _ in range(n)]
        y_hat = [rng.uniform(0.0, 80.0) for _ in range(n)]
        m = evaluate_metrics(y, y_hat)
        mae = sum(abs(a - b) for a, b in zip(y, y_hat)) / n
        e_week = abs(sum(y) - sum(y_hat))
        assert m.mae == pytest.approx(mae, rel=1e-12)
        assert m.e_week == pytest.approx(e_week, rel=1e-12)
        assert m.e_week_pct == pytest.approx(100.0 * e_week / sum(y), rel=1e-12)
    assert (GATE_MAE_MAX, GATE_E_WEEK_MAX, GATE_E_WEEK_PCT_MAX) == (2.5, 5.7, 21.3)
    assert gate(PredictionMetrics(2.5, 5.7, 21.3))
    assert not gate(PredictionMetrics(2.5000001, 5.7, 21.3))
    print("\nCRITERION 5 PASS: metrics match hand computation on 20 vectors "
          "(1e-12 relative); gate accepts exactly at (2.5, 5.7, 21.3)")


def _trend_series(cohort_seed, driver, weeks=13):
    rng = random.Random(f"trend:{cohort_seed}:{driver}")
    pattern = [rng.uniform(5.0, 40.0) for _ in range(7)]
    return {MONDAY + timedelta(days=i): max(0.0, pattern[i % 7] + rng.gauss(0.0, 4.0))
            for i in range(weeks * 7)}


def test_criterion_06_gate_behavior_and_window_trend():
    start = time.monotonic()
    # Noiseless weekly-periodic driver: the 6-week window must clear the gate.
    pattern = (22.0, 24.0, 18.0, 24.0, 31.0, 8.0, 0.5)
    periodic = {MONDAY + timedelta(days=i): pattern[i % 7] for i in range(56)}
    report = sliding_cv(build_features(periodic), window_weeks=6,
                        n_trees=50, seed=0)
    metrics = report.folds[-1]
    assert gate(metrics)
    assert metrics.e_week_pct < 5.0

    # Erratic driver with daily CV > 60 %: the gate must reject.
    rng = random.Random(99)
    vals = [rng.uniform(0.5, 100.0) if rng.random() < 0.35 else rng.uniform(0.5, 12.0)
            for _ in range(56)]
    cv = statistics.pstdev(vals) / statistics.mean(vals)
    assert cv > 0.6
    erratic = {MONDAY + timedelta(days=i): v for i, v in enumerate(vals)}
    report = sliding_cv(build_features(erratic), window_weeks=6,
                        n_trees=50, seed=0)
    assert not gate(report.folds[-1])

    # Longer training windows help: MAE(4w) >= MAE(6w) >= MAE(8w) averaged
    # over a frozen 12-driver cohort of noisy weekly patterns.
    maes = []
    for window in (4, 6, 8):
        fold_maes = []
        for driver in range(12):
            rows = build_features(_trend_series(1, driver))
            fold_maes.append(sliding_cv(rows, window_weeks=window,
                                        n_trees=50, seed=0).mean.mae)
        maes.append(statistics.mean(fold_maes))
    assert maes[0] >= maes[1] >= maes[2]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nCRITERION 6 PASS: periodic driver accepted (E_week% "
          f"{metrics.e_week_pct:.2f} < 5), erratic driver (CV {cv:.0%}) "
          f"rejected; window MAE trend {maes[0]:.2f} >= {maes[1]:.2f} >= "
          f"{maes[2]:.2f}, {elapsed:.1f}s < 30s")


def test_criterion_07_speed_integration_vs_geodesic():
    anchors = {"home": (44.600, 10.900), "work": (44.655, 10.955),
               "gym": (44.615, 10.875)}
    schedule = {d: ["home", "work", "gym", "home"]
                for d in ("Mon", "Tue", "Wed", "Thu", "Fri")}
    gaps = []
    for seed in range(100):
        profile = DriverProfile(seed=seed, anchors=anchors, schedule=schedule,
                                gps_noise_m=2.0)
        samples, _truth = generate_synthetic_log(profile, weeks=1)
        integrated = integrate_daily_distance(samples)
        geodesic = {}
        fixes = [s for s in samples if s.lat is not None]
        for a, b in zip(fixes, fixes[1:]):
            if b.timestamp - a.timestamp > 60.0:
                continue
            day = ts_to_date(a.timestamp)
            geodesic[day] = geodesic.get(day, 0.0) + haversine_m(
                a.lat, a.lon, b.lat, b.lon) / 1000.0
        for day, geo_km in geodesic.items():
            gaps.append(abs(integrated.get(day, 0.0) - geo_km))
    assert gaps
    median_gap = statistics.median(gaps)
    assert median_gap < 0.5
    print(f"\nCRITERION 7 PASS: median |speed-integrated - geodesic-summed| "
          f"daily distance {median_gap:.3f} km < 0.5 km over 100 tracks")


def _brute_force(graph, src, dst):
    ids = graph.ids
    adj = {ids[u]: [(ids[v], length_m, time_s) for _u, v, length_m, time_s in leaving]
           for u, leaving in enumerate(graph.out_edges)}
    best = None
    stack = [(src, (src,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == dst:
            key = (cost, path)
            if best is None or key < best:
                best = key
            continue
        for to, length_m, time_s in adj[node]:
            if to not in path:
                w = min(e[2] for e in adj[node] if e[0] == to)
                stack.append((to, path + (to,), cost + w))
    return best


def test_criterion_08_routing_and_corridor_oracles():
    rng = random.Random(8)
    pairs_checked = 0
    for trial in range(50):
        n = rng.randint(3, 12)
        ids = [f"X{i}" for i in range(n)]
        coords = {nid: (44.6 + (i // 4) * 0.005, 10.9 + (i % 4) * 0.005)
                  for i, nid in enumerate(ids)}
        edges = []
        for a in ids:
            for b in ids:
                if a != b and rng.random() < 0.35:
                    geo = max(1.0, haversine_m(*coords[a], *coords[b]))
                    edges.append((a, b, geo * rng.uniform(1.0, 2.0), rng.uniform(5.0, 600.0)))
        graph = RoadGraph([(nid, *coords[nid]) for nid in ids], edges)
        router = BuiltinRouter(graph)
        for src in ids:
            for dst in ids:
                expected = _brute_force(graph, src, dst)
                if expected is None:
                    with pytest.raises(errors.Unreachable):
                        router.shortest_route(src, dst)
                    continue
                got = router.shortest_route(src, dst)
                assert got.time_s == pytest.approx(expected[0], rel=1e-9, abs=1e-6)
                assert got.nodes == expected[1]
                pairs_checked += 1

    # Corridor filter vs a 1 m dense-sampling oracle.
    polyline = [(44.60 + 0.002 * i, 10.90 + 0.003 * math.sin(i)) for i in range(8)]
    dense = []
    for (la1, lo1), (la2, lo2) in zip(polyline, polyline[1:]):
        seg_m = haversine_m(la1, lo1, la2, lo2)
        steps = max(2, int(seg_m) + 1)
        dense.extend((la1 + (la2 - la1) * k / steps, lo1 + (lo2 - lo1) * k / steps)
                     for k in range(steps + 1))
    rng = random.Random(88)
    checked = 0
    for _ in range(200):
        lat = rng.uniform(44.59, 44.62)
        lon = rng.uniform(10.88, 10.93)
        analytic = point_polyline_distance_m(lat, lon, polyline)
        sampled = min(haversine_m(lat, lon, a, b) for a, b in dense)
        assert abs(analytic - sampled) <= 1.0
        radius = rng.uniform(200.0, 2500.0)
        inside = corridor_filter(polyline, [(lat, lon)], radius_m=radius) == [0]
        if abs(sampled - radius) > 1.0:  # outside the sampling ambiguity band
            assert inside == (sampled <= radius)
        checked += 1
    print(f"\nCRITERION 8 PASS: Dijkstra equals brute force on {pairs_checked} "
          f"reachable pairs over 50 graphs; corridor distance within 1 m of "
          f"the dense-sampling oracle on {checked} placements")


def _all_stations_optimum(ctx, mode):
    """The least objective over every priced station in fuel range, each
    routed as a one-stop day: the best stop any strategy could make."""
    scn = ctx.scenario
    scores = [objective(cand, scn.vehicle, mode, scn.refuel_duration_s)
              for cand in (route_candidate(ctx.router, ctx.departure_node,
                                           list(ctx.remaining_nodes), st,
                                           ctx.day_prices[st.station_id], ctx.delta_km)
                           for st in scn.stations if st.station_id in ctx.day_prices)
              if cand.reachable(scn.vehicle)]
    return min(scores)


def _route_aware_regret_pct(config):
    """{(mode, scenario): how far route_aware's objective is above the
    all-stations optimum, in %}, per preset mode."""
    regret = {}
    for scn in load_scenarios(config):
        ctx = build_context(scn)
        candidates = corridor_candidates(ctx)
        for mode in MODES.values():
            plan = select_stop(candidates, scn.vehicle, mode,
                               refuel_duration_s=scn.refuel_duration_s)
            regret[mode.name, scn.name] = 100.0 * (plan.objective
                                                   / _all_stations_optimum(ctx, mode) - 1.0)
    return regret


def test_route_aware_regret_against_all_stations_oracle(demo_scenario_config, tmp_path):
    # A measurement, not a gate on decisions: route_aware sees only the 2 km
    # corridor, while cheapest_nearby looks 5 km around the departure, so a
    # cheap station off the route can beat it when only the price counts.
    start = time.monotonic()
    demo = _route_aware_regret_pct(demo_scenario_config)
    full = _route_aware_regret_pct(generate_scenario_dir(str(tmp_path), seed=3))  # `gen`'s
    for regret in (demo, full):
        assert all(value >= 0.0 for value in regret.values())
        assert not any(regret[key] for key in regret if key[0] != "fuel_sensitive")
    assert {name: round(value, 4) for (mode, name), value in demo.items()
            if mode == "fuel_sensitive"} == {"commuter_0": 2.4138, "shift_worker_0": 0.0,
                                             "errand_runner_0": 0.0}
    fuel = [value for (mode, _), value in full.items() if mode == "fuel_sensitive"]
    assert (len(fuel), fuel.count(0.0), round(max(fuel), 2)) == (15, 6, 3.44)
    elapsed = time.monotonic() - start
    print(f"\nREGRET ORACLE: route_aware is the all-stations optimum in every balanced "
          f"and time_sensitive run; fuel_sensitive regret up to {max(fuel):.2f} % "
          f"({fuel.count(0.0)}/15 optimal), {elapsed:.1f}s")


def _early_stage_errors(config):
    """The cohort's worst errors of the early stages against the generator's
    truth: a driving day's integrated km relative to its true km, and a
    halt's and a promoted POI's distance in m to the nearest anchor."""
    km_err, halt_m, poi_m = [], [], []
    for scn in load_scenarios(config):
        samples, truth = generate_synthetic_log(scn.profile, scn.observation_weeks)
        driven = integrate_daily_distance(samples)
        assert set(driven) == {day for day, km in truth.items() if km > 0}
        km_err += [abs(km / truth[day] - 1.0) for day, km in driven.items()]
        halts = detect_halts(samples, scn.gap_threshold_s)
        pois, _ = select_pois(assign_clusters(halts, scn.cluster_radius_m),
                              scn.observation_weeks)
        anchors = scn.profile.anchors.values()
        halt_m += [min(haversine_m(h.lat, h.lon, *a) for a in anchors) for h in halts]
        poi_m += [min(haversine_m(p.lat, p.lon, *a) for a in anchors) for p in pois]
    return max(km_err), max(halt_m), max(poi_m)


def test_early_stages_against_the_generator_truth(demo_scenario_config, tmp_path):
    # The unit tests build their own halts; these score the stages on the
    # days, halts and anchors the generator simulated.
    for name, config in (("demo", demo_scenario_config),
                         ("seed 3", generate_scenario_dir(str(tmp_path), seed=3))):
        km_err, halt_m, poi_m = _early_stage_errors(config)
        assert km_err <= 0.10
        assert halt_m <= DEFAULT_CLUSTER_RADIUS_M and poi_m <= DEFAULT_CLUSTER_RADIUS_M
        print(f"\nSTAGE TRUTH ({name}): daily km within {100 * km_err:.1f} % of the "
              f"truth; halts within {halt_m:.1f} m and promoted POIs within {poi_m:.1f} m "
              f"of an anchor")


def test_criterion_09_simulation_determinism(tmp_path):
    config = generate_scenario_dir(str(tmp_path / "scn"), seed=6,
                                   n_seeds_per_profile=2)
    outputs = []
    for run, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / run
        assert main(["simulate", "--config", config, "--out-dir", str(out),
                     "--seed", "17", "--jobs", str(jobs)]) == 0
        outputs.append(((out / "report.csv").read_bytes(),
                        (out / "per_run.csv").read_bytes()))
    assert outputs[0] == outputs[1], "repeated runs must be byte-identical"
    assert outputs[0] == outputs[2], "parallel must equal sequential"
    print("\nCRITERION 9 PASS: simulate --seed 17 byte-identical across "
          "repeated runs and across jobs=1 vs jobs=2")


def test_criterion_10_round_trips(tmp_path):
    # Trip log: save -> load -> save, and the loaded log equals the saved one.
    anchors = {"home": (44.600, 10.900), "work": (44.655, 10.955),
               "gym": (44.615, 10.875)}
    schedule = {d: ["home", "work", "home"] for d in ("Mon", "Tue", "Wed",
                                                      "Thu", "Fri")}
    schedule["Sat"] = ["home", "gym", "home"]
    profile = DriverProfile(seed=5, anchors=anchors, schedule=schedule)
    samples, _ = generate_synthetic_log(profile, weeks=4)
    l1, l2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
    save_trip_log(str(l1), samples)
    loaded = load_trip_log(str(l1))
    assert loaded == samples
    save_trip_log(str(l2), loaded)
    assert l1.read_bytes() == l2.read_bytes()

    # Trip graph: observation -> export -> import -> export.
    halts = detect_halts(samples)
    clusters = assign_clusters(halts)
    pois, all_nodes = select_pois(clusters, 4)
    trip_graph = build_daily_flows(pois)
    n1, e1 = tmp_path / "n1.csv", tmp_path / "e1.csv"
    export_graph_csv(all_nodes, trip_graph, str(n1), str(e1))
    nodes2, graph2 = import_graph_csv(str(n1), str(e1))
    n2, e2 = tmp_path / "n2.csv", tmp_path / "e2.csv"
    export_graph_csv(nodes2, graph2, str(n2), str(e2))
    assert n1.read_bytes() == n2.read_bytes()
    assert e1.read_bytes() == e2.read_bytes()

    # Road graph: load -> save -> load.
    city = generate_city(seed=10, rows=8, cols=8)
    cn1, ce1 = tmp_path / "cn1.csv", tmp_path / "ce1.csv"
    save_road_graph(city, str(cn1), str(ce1))
    city2 = load_road_graph(str(cn1), str(ce1))
    cn2, ce2 = tmp_path / "cn2.csv", tmp_path / "ce2.csv"
    save_road_graph(city2, str(cn2), str(ce2))
    assert cn1.read_bytes() == cn2.read_bytes()
    assert ce1.read_bytes() == ce2.read_bytes()
    print("\nCRITERION 10 PASS: trip-log save->load->save, trip-graph "
          "export->import->export and road-graph save->load->save are "
          "byte-identical")
