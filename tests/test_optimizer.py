import csv
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from refuelopt import errors
from refuelopt.optimizer import (MODES, CandidateStop, Mode, VehicleState,
                                 export_plan_csv, export_plan_geojson,
                                 fuel_cost, generate_candidates, objective,
                                 select_stop, time_cost)
from refuelopt.roadgraph import BuiltinRouter, Route, generate_city
from refuelopt.stations import Station

VEHICLE = VehicleState(tank_l=50.0, fuel_l=14.0, rate_l_per_km=0.06)


def cand(sid="S1", distance_km=12.0, delta_km=0.0, time_s=900.0, price=1.80):
    st = Station(station_id=sid, lat=44.65, lon=10.92, brand="AcmeFuel")
    return CandidateStop(station=st, route=Route(nodes=("A",), distance_km=distance_km,
                                                 time_s=time_s),
                         distance_km=distance_km, corrected_km=distance_km + delta_km,
                         time_s=time_s, price_eur_l=price)


# --- vehicle and mode validation ------------------------------------------------

def test_vehicle_state_validation():
    with pytest.raises(ValueError):
        VehicleState(tank_l=50.0, fuel_l=60.0, rate_l_per_km=0.06)
    with pytest.raises(ValueError):
        VehicleState(tank_l=50.0, fuel_l=10.0, rate_l_per_km=0.0)
    # NaN or infinite rates and infinite tanks were accepted: every stop was
    # out of range, or every refill cost inf.
    for tank, rate in ((50.0, math.nan), (50.0, math.inf), (math.inf, 0.06)):
        with pytest.raises(ValueError):
            VehicleState(tank_l=tank, fuel_l=10.0, rate_l_per_km=rate)


def test_mode_presets_and_validation():
    assert (MODES["fuel"].k_cost, MODES["fuel"].k_time) == (1.0, 0.0)
    assert (MODES["balanced"].k_cost, MODES["balanced"].k_time) == (1.0, 1.0)
    assert (MODES["time"].k_cost, MODES["time"].k_time) == (1.0, 10.0)
    with pytest.raises(ValueError):
        Mode("bad", -1.0, 1.0)
    with pytest.raises(ValueError):
        Mode("bad", 0.0, 0.0)
    with pytest.raises(ValueError, match="mode name must be a string"):
        Mode(math.nan, 1.0, 1.0)  # from a YAML `mode: {name: .nan, ...}`


# --- cost components ------------------------------------------------------------

def test_fuel_cost_hand_computed():
    c = cand(distance_km=12.0, delta_km=3.0, price=1.80)
    # liters = 50 - 14 + 0.06 * 15 = 36.9; cost = 36.9 * 1.80 = 66.42
    assert fuel_cost(c, VEHICLE) == pytest.approx(66.42, rel=1e-12)


def test_time_cost_adds_refuel_duration():
    c = cand(time_s=900.0)
    assert time_cost(c) == pytest.approx(1200.0)
    assert time_cost(c, refuel_duration_s=0.0) == pytest.approx(900.0)


def test_objective_combines_euros_and_minutes():
    c = cand(distance_km=12.0, time_s=900.0, price=1.80)
    mode = Mode("custom", 2.0, 3.0)
    expected = 2.0 * fuel_cost(c, VEHICLE) + 3.0 * (900.0 + 300.0) / 60.0
    assert objective(c, VEHICLE, mode) == pytest.approx(expected, rel=1e-12)


def test_unreachable_candidate_scores_infinity():
    # range = 14 / 0.06 = 233.3 km; corrected 240 km is out of reach
    c = cand(distance_km=240.0)
    assert not c.reachable(VEHICLE)
    assert objective(c, VEHICLE, MODES["fuel"]) == math.inf
    # boundary: exactly at range is still reachable
    edge = cand(distance_km=VEHICLE.fuel_l / VEHICLE.rate_l_per_km)
    assert edge.reachable(VEHICLE)


def test_delta_raises_cost_and_can_exhaust_range():
    near = cand(distance_km=10.0, delta_km=0.0)
    far = cand(distance_km=10.0, delta_km=50.0)
    assert fuel_cost(far, VEHICLE) > fuel_cost(near, VEHICLE)
    out = cand(distance_km=200.0, delta_km=50.0)
    assert not out.reachable(VEHICLE)


# --- selection ------------------------------------------------------------------

def test_select_minimizes_objective():
    cheap_far = cand("S1", distance_km=20.0, time_s=2400.0, price=1.60)
    dear_near = cand("S2", distance_km=5.0, time_s=600.0, price=1.90)
    fuel_pick = select_stop([cheap_far, dear_near], VEHICLE, MODES["fuel"])
    time_pick = select_stop([cheap_far, dear_near], VEHICLE, MODES["time"])
    assert fuel_pick.stop.station.station_id == "S1"
    assert time_pick.stop.station.station_id == "S2"


def test_select_skips_unreachable():
    out = cand("S1", distance_km=300.0, price=0.10)
    ok = cand("S2", distance_km=10.0, price=1.90)
    plan = select_stop([out, ok], VEHICLE, MODES["fuel"])
    assert plan.stop.station.station_id == "S2"


def test_select_all_unreachable_raises():
    with pytest.raises(errors.NoReachableStation):
        select_stop([cand(distance_km=300.0)], VEHICLE, MODES["fuel"])
    with pytest.raises(ValueError):
        select_stop([], VEHICLE, MODES["fuel"])


def test_tie_break_cost_then_time_then_id():
    # Same objective under time-only weighting; cheaper fuel cost wins.
    a = cand("S2", distance_km=10.0, time_s=600.0, price=1.90)
    b = cand("S1", distance_km=10.0, time_s=600.0, price=1.80)
    plan = select_stop([a, b], VEHICLE, Mode("timeonly", 0.0, 1.0))
    assert plan.stop.station.station_id == "S1"
    # Identical candidates except id: smaller id wins.
    plan = select_stop([cand("S9"), cand("S3")], VEHICLE, MODES["balanced"])
    assert plan.stop.station.station_id == "S3"


@given(st.integers(0, 2 ** 32 - 1))
def test_select_matches_exhaustive_argmin(seed):
    import random
    rng = random.Random(seed)
    cands = [cand(f"S{i:02d}", distance_km=rng.uniform(1.0, 260.0),
                  time_s=rng.uniform(60.0, 3600.0), price=rng.uniform(1.5, 2.1))
             for i in range(rng.randint(1, 12))]
    k1, k2 = rng.choice([(1.0, 0.0), (10.0, 1.0), (1.0, 1.0), (1.0, 10.0), (0.0, 1.0)])
    mode = Mode("custom", k1, k2)
    keys = [(objective(c, VEHICLE, mode), fuel_cost(c, VEHICLE), c.time_s,
             c.station.station_id) for c in cands]
    finite = [k for k in keys if math.isfinite(k[0])]
    if not finite:
        with pytest.raises(errors.NoReachableStation):
            select_stop(cands, VEHICLE, mode)
        return
    plan = select_stop(cands, VEHICLE, mode)
    assert plan.stop.station.station_id == min(finite)[3]


def oracle_pick(candidates, vehicle, mode, refuel_duration_s):
    """Exhaustive reference: every candidate in range with its
    (L, fuel cost, routed time, station id) key, written out from the
    formulas; the smallest key wins, or None if nothing is in range."""
    keyed = []
    for c in candidates:
        if vehicle.rate_l_per_km * c.corrected_km > vehicle.fuel_l:
            continue
        liters = vehicle.tank_l - vehicle.fuel_l + vehicle.rate_l_per_km * c.corrected_km
        cost = liters * c.price_eur_l
        seconds = c.time_s + refuel_duration_s
        keyed.append(((mode.k_cost * cost + mode.k_time * seconds / 60.0,
                       cost, c.time_s, c.station.station_id), c, seconds / 60.0))
    return min(keyed, key=lambda k: k[0], default=None)


# Few distinct values, so objectives, fuel costs and times tie often; 300 km
# and a 240 km delta are beyond the 233 km range of VEHICLE. At 0 km the fuel costs
# are exact (36 l x 1.5 / 1.75 / 2.0 EUR = 54 / 63 / 72 EUR) and the times
# differ by 9 min, so under equal weights L ties while cost and time
# disagree (54 EUR + 24 min = 63 EUR + 15 min).
candidate_sets = st.lists(
    st.tuples(st.sampled_from([0.0, 10.0, 300.0]), st.sampled_from([0.0, 240.0]),
              st.sampled_from([600.0, 1140.0]), st.sampled_from([1.5, 1.75, 2.0])),
    min_size=1, max_size=10)


@settings(max_examples=300)
@given(specs=candidate_sets, ids=st.permutations([f"S{i}" for i in range(10)]),
       weights=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 3.0)]),
       refuel_s=st.sampled_from([0.0, 300.0]), order=st.permutations(range(10)))
@example(specs=[(0.0, 0.0, 600.0, 1.75), (0.0, 0.0, 1140.0, 1.5)], ids=["S1", "S0"],
         weights=(1.0, 1.0), refuel_s=300.0, order=range(10))
@example(specs=[(0.0, 0.0, 600.0, 1.5), (0.0, 0.0, 1140.0, 1.5)], ids=["S1", "S0"],
         weights=(1.0, 0.0), refuel_s=0.0, order=range(10))
def test_select_stop_matches_oracle_with_ties(specs, ids, weights, refuel_s, order):
    cands = [cand(sid, distance_km=d, delta_km=delta, time_s=t, price=p)
             for sid, (d, delta, t, p) in zip(ids, specs)]
    shuffled = [cands[i] for i in order if i < len(cands)]
    mode = Mode("custom", *weights)
    best = oracle_pick(cands, VEHICLE, mode, refuel_s)
    if best is None:
        with pytest.raises(errors.NoReachableStation):
            select_stop(shuffled, VEHICLE, mode, refuel_duration_s=refuel_s)
        return
    (objective_value, cost, _t, sid), stop, minutes = best
    plan = select_stop(shuffled, VEHICLE, mode, day="Mon", refuel_duration_s=refuel_s)
    assert plan.stop is stop and plan.stop.station.station_id == sid
    assert (plan.objective, plan.cost_eur, plan.time_min) == (objective_value, cost, minutes)
    assert (plan.day, plan.mode) == ("Mon", mode)


# --- candidate generation -------------------------------------------------------

@pytest.fixture(scope="module")
def city_setup():
    graph = generate_city(seed=2, rows=8, cols=8)
    router = BuiltinRouter(graph)
    day_route = router.shortest_route("N01_01", "N06_06")
    return graph, router, day_route


def test_candidates_respect_corridor(city_setup):
    graph, router, day_route = city_setup
    on_route = graph.nodes["N03_03"]
    far_away = (on_route[0] + 0.08, on_route[1])  # ~9 km north
    stations = [Station("NEAR", on_route[0], on_route[1], "A"),
                Station("FAR", far_away[0], far_away[1], "B")]
    prices = {"NEAR": 1.80, "FAR": 1.50}
    cands = generate_candidates(router, day_route, "N01_01", ["N06_06"],
                                stations, prices, corridor_radius_m=2000.0)
    assert [c.station.station_id for c in cands] == ["NEAR"]
    assert cands[0].time_s >= day_route.time_s - 1e-9  # detour can't beat direct


def test_candidates_skip_unpriced_stations(city_setup):
    graph, router, day_route = city_setup
    lat, lon = graph.nodes["N03_03"]
    stations = [Station("S1", lat, lon, "A"), Station("S2", lat, lon, "B")]
    cands = generate_candidates(router, day_route, "N01_01", ["N06_06"],
                                stations, {"S1": 1.80})
    assert [c.station.station_id for c in cands] == ["S1"]


def test_no_corridor_station_raises(city_setup):
    graph, router, day_route = city_setup
    lat, lon = graph.nodes["N03_03"]
    stations = [Station("FAR", lat + 0.5, lon, "A")]
    with pytest.raises(errors.NoCandidates):
        generate_candidates(router, day_route, "N01_01", ["N06_06"],
                            stations, {"FAR": 1.80})


def test_delta_propagates_to_corrected_distance(city_setup):
    graph, router, day_route = city_setup
    lat, lon = graph.nodes["N03_03"]
    stations = [Station("S1", lat, lon, "A")]
    cands = generate_candidates(router, day_route, "N01_01", ["N06_06"],
                                stations, {"S1": 1.80}, delta_km=7.5)
    assert cands[0].corrected_km == pytest.approx(cands[0].distance_km + 7.5)
    with pytest.raises(ValueError):
        generate_candidates(router, day_route, "N01_01", ["N06_06"],
                            stations, {"S1": 1.80}, delta_km=-1.0)


# --- exports --------------------------------------------------------------------

def test_plan_csv_layout(tmp_path):
    plan = select_stop([cand("S1", price=1.80)], VEHICLE, MODES["balanced"], day="Wed")
    p = tmp_path / "plan.csv"
    export_plan_csv(plan, str(p))
    rows = list(csv.reader(p.open()))
    assert rows[0] == ["day", "station_id", "lat", "lon", "price_eur_l",
                       "C_eur", "T_min", "L", "mode"]
    assert rows[1][0] == "Wed"
    assert rows[1][1] == "S1"
    assert float(rows[1][5]) == pytest.approx(plan.cost_eur, abs=0.005)
    assert rows[1][8] == "balanced"


def test_plan_geojson_roles(tmp_path, city_setup):
    graph, router, day_route = city_setup
    lat, lon = graph.nodes["N03_03"]
    stations = [Station("S1", lat, lon, "A"), Station("S2", lat, lon + 0.001, "B")]
    cands = generate_candidates(router, day_route, "N01_01", ["N06_06"],
                                stations, {"S1": 1.80, "S2": 1.70})
    plan = select_stop(cands, VEHICLE, MODES["fuel"], day="Mon")
    p = tmp_path / "plan.geojson"
    export_plan_geojson(plan, cands, graph, str(p))
    obj = json.loads(p.read_text())
    roles = [f["properties"]["role"] for f in obj["features"]]
    assert roles.count("route") == 1
    assert roles.count("chosen_station") == 1
    assert roles.count("corridor_station") == len(cands) - 1
    line = next(f for f in obj["features"] if f["properties"]["role"] == "route")
    assert line["geometry"]["type"] == "LineString"
    assert len(line["geometry"]["coordinates"]) == len(plan.stop.route.nodes)
