"""One-stop refuel selection along the day's habitual route.

Candidates are stations within the route corridor; each is scored with a
refill-to-full fuel cost and a detour time cost, scalarized by the user's
cost/time weights. Stations whose corrected route distance exceeds the
current fuel range are unreachable and score infinity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import errors
from .roadgraph import (DEFAULT_CORRIDOR_RADIUS_M, BuiltinRouter, RoadGraph, Route,
                        corridor_filter)
from .stations import Station
from .tables import write_table

DEFAULT_REFUEL_DURATION_S = 300.0

PLAN_CSV_HEADER = ["day", "station_id", "lat", "lon", "price_eur_l",
                   "C_eur", "T_min", "L", "mode"]


@dataclass(frozen=True)
class VehicleState:
    tank_l: float          # tank capacity
    fuel_l: float          # current fuel level
    rate_l_per_km: float   # consumption rate

    def __post_init__(self):
        # NaN fails every comparison; an infinite tank or rate made costs or ranges inf.
        if not 0 <= self.fuel_l <= self.tank_l < math.inf:
            raise ValueError(f"need 0 <= fuel_l <= tank_l < inf, got {self.fuel_l}, {self.tank_l}")
        if not 0 < self.rate_l_per_km < math.inf:
            raise ValueError(f"consumption rate must be finite and > 0, got {self.rate_l_per_km}")


@dataclass(frozen=True)
class Mode:
    name: str
    k_cost: float   # weight on euros
    k_time: float   # weight on minutes

    def __post_init__(self):
        # NaN fails both comparisons; an infinite weight scores every stop inf.
        if not (0 <= self.k_cost < math.inf and 0 <= self.k_time < math.inf
                and self.k_cost + self.k_time > 0):
            raise ValueError("weights must be finite, non-negative and not both zero")
        if not isinstance(self.name, str):  # a NaN name reached per_run.csv as "nan"
            raise ValueError(f"mode name must be a string, got {self.name!r}")


MODES = {
    "fuel": Mode("fuel_sensitive", 1.0, 0.0),
    "balanced": Mode("balanced", 1.0, 1.0),
    "time": Mode("time_sensitive", 1.0, 10.0),
}


@dataclass(frozen=True)
class CandidateStop:
    station: Station
    route: Route
    distance_km: float            # routed one-stop distance l
    corrected_km: float           # l + delta
    time_s: float                 # routed one-stop time t
    price_eur_l: float

    def reachable(self, vehicle: VehicleState) -> bool:
        return vehicle.rate_l_per_km * self.corrected_km <= vehicle.fuel_l


@dataclass(frozen=True)
class RefuelPlan:
    day: str
    stop: CandidateStop
    mode: Mode
    cost_eur: float
    time_min: float
    objective: float


def route_candidate(router: BuiltinRouter, current_node: str, remaining_nodes: list[str],
                    station: Station, price_eur_l: float, delta_km: float) -> CandidateStop:
    """Snap `station` to its nearest node of the router's graph and route the
    one-stop day current_node -> station -> remaining_nodes through it."""
    node, _snap_m = router.graph.nearest_node(station.lat, station.lon)
    route = router.one_stop_route(current_node, node, remaining_nodes)
    return CandidateStop(station=station, route=route, distance_km=route.distance_km,
                         corrected_km=route.distance_km + delta_km, time_s=route.time_s,
                         price_eur_l=price_eur_l)


def generate_candidates(router: BuiltinRouter, day_route: Route,
                        current_node: str, remaining_nodes: list[str],
                        stations: list[Station], prices: dict[str, float],
                        delta_km: float = 0.0,
                        corridor_radius_m: float = DEFAULT_CORRIDOR_RADIUS_M,
                        ) -> list[CandidateStop]:
    """Corridor-filter stations against the day's route and score the detours.

    `prices` maps station_id to the day's forecast price; stations without a
    price are skipped. `current_node` is the graph node of the preceding
    habitual destination, `remaining_nodes` the rest of the day's sequence.
    """
    if delta_km < 0:
        raise ValueError("delta_km must be non-negative")
    if not day_route.nodes:
        raise errors.EmptyDayGraph("selected day has no route")
    polyline = day_route.polyline(router.graph)
    priced = [s for s in stations if s.station_id in prices]
    keep = corridor_filter(polyline, [(s.lat, s.lon) for s in priced],
                           radius_m=corridor_radius_m)
    if not keep:
        raise errors.NoCandidates(
            f"no station within {corridor_radius_m} m of the route")
    return [route_candidate(router, current_node, remaining_nodes, priced[i],
                            prices[priced[i].station_id], delta_km) for i in keep]


def fuel_cost(candidate: CandidateStop, vehicle: VehicleState) -> float:
    """Refill-to-full cost: (tank - fuel + rate * corrected_km) * unit price."""
    liters = vehicle.tank_l - vehicle.fuel_l + vehicle.rate_l_per_km * candidate.corrected_km
    return liters * candidate.price_eur_l


def time_cost(candidate: CandidateStop,
              refuel_duration_s: float = DEFAULT_REFUEL_DURATION_S) -> float:
    """Routed one-stop time plus a fixed refueling duration, in seconds."""
    if refuel_duration_s < 0:
        raise ValueError("refuel duration must be non-negative")
    return candidate.time_s + refuel_duration_s


def objective(candidate: CandidateStop, vehicle: VehicleState, mode: Mode,
              refuel_duration_s: float = DEFAULT_REFUEL_DURATION_S) -> float:
    """Weighted cost: k_cost * euros + k_time * minutes; inf if unreachable."""
    if not candidate.reachable(vehicle):
        return math.inf
    return (mode.k_cost * fuel_cost(candidate, vehicle)
            + mode.k_time * time_cost(candidate, refuel_duration_s) / 60.0)


def select_stop(candidates: list[CandidateStop], vehicle: VehicleState, mode: Mode,
                day: str = "", refuel_duration_s: float = DEFAULT_REFUEL_DURATION_S,
                ) -> RefuelPlan:
    """Pick the candidate minimizing the objective.

    Ties break on lower fuel cost, then lower routed time, then station id.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    best = None
    best_key = None
    for c in candidates:
        score = objective(c, vehicle, mode, refuel_duration_s)
        if math.isinf(score):
            continue
        key = (score, fuel_cost(c, vehicle), c.time_s, c.station.station_id)
        if best_key is None or key < best_key:
            best, best_key = c, key
    if best is None:
        raise errors.NoReachableStation("every candidate is out of fuel range")
    return RefuelPlan(day=day, stop=best, mode=mode,
                      cost_eur=fuel_cost(best, vehicle),
                      time_min=time_cost(best, refuel_duration_s) / 60.0,
                      objective=best_key[0])


def export_plan_csv(plan: RefuelPlan, path: str) -> None:
    st = plan.stop.station
    write_table(path, PLAN_CSV_HEADER,
                [[plan.day, st.station_id, repr(st.lat), repr(st.lon),
                  repr(plan.stop.price_eur_l), f"{plan.cost_eur:.2f}",
                  f"{plan.time_min:.2f}", repr(plan.objective), plan.mode.name]])


def export_plan_geojson(plan: RefuelPlan, candidates: list[CandidateStop],
                        graph: RoadGraph, path: str) -> None:
    """Map of the chosen one-stop route, all corridor stations and the pick."""
    features = [{
        "type": "Feature",
        "properties": {"role": "route", "day": plan.day, "mode": plan.mode.name},
        "geometry": {
            "type": "LineString",
            "coordinates": [[lon, lat] for lat, lon in plan.stop.route.polyline(graph)],
        },
    }]
    for c in candidates:
        chosen = c.station.station_id == plan.stop.station.station_id
        features.append({
            "type": "Feature",
            "properties": {
                "role": "chosen_station" if chosen else "corridor_station",
                "station_id": c.station.station_id,
                "brand": c.station.brand,
                "price_eur_l": c.price_eur_l,
            },
            "geometry": {"type": "Point",
                         "coordinates": [c.station.lon, c.station.lat]},
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh, indent=2)
        fh.write("\n")
