"""Scenario configuration: a fully serializable description of one run.

A scenario bundles a road network, a station catalog with price history, a
synthetic driver profile and the vehicle state. Everything stochastic
derives from the scenario seed, so a config file pins down the whole
simulation. `generate_scenario_dir` writes a ready-to-run directory with
the city and station CSVs plus a YAML config referencing them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import yaml

from . import errors
from .geo import valid_coords
from .optimizer import MODES, Mode, VehicleState
from .roadgraph import (RoadGraph, generate_city, load_road_graph,
                        save_road_graph)
from .stations import (PriceHistory, Station, WeeklyPriceForecast, forecast_week,
                       load_stations, save_stations)
from .telemetry import WEEKDAYS, DriverProfile

OBSERVATION_START = date(2025, 1, 6)  # a Monday; schedules align to weekdays


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    profile: DriverProfile
    graph: RoadGraph = field(compare=False)
    stations: list[Station] = field(compare=False)
    history: PriceHistory = field(compare=False)
    vehicle: VehicleState
    mode: Mode
    fuel_type: str
    departure: str                     # anchor name of the departure POI
    observation_weeks: int = 7
    cluster_radius_m: float = 100.0
    gap_threshold_s: float = 120.0
    corridor_radius_m: float = 2000.0
    nearby_radius_m: float = 5000.0
    refuel_duration_s: float = 300.0
    # forecast_week(history, fuel_type), computed once by load_scenarios and
    # shared by the cohort; None makes build_context compute it.
    forecast: WeeklyPriceForecast | None = field(default=None, compare=False)


# The keys a cohort config may use, per mapping. An unknown key is rejected,
# not ignored: a misspelled optional key would silently keep its default.
CONFIG_KEYS = frozenset({"city", "stations", "fuel_type", "vehicle", "mode",
                         "simulation", "drivers"})
CITY_KEYS = frozenset({"nodes", "edges"})
VEHICLE_KEYS = frozenset({"tank_l", "fuel_l", "rate_l_per_km"})
SIMULATION_KEYS = frozenset({"observation_weeks", "cluster_radius_m", "gap_threshold_s",
                             "corridor_radius_m", "nearby_radius_m", "refuel_duration_s"})
DRIVER_KEYS = frozenset({"name", "departure", "profile"})
PROFILE_KEYS = frozenset({"seed", "anchors", "schedule", "errand_targets", "errand_rate",
                          "speed_noise_pct", "gps_noise_m", "cruise_speed_kmh"})
MODE_KEYS = frozenset({"name", "k_cost", "k_time"})


def _reject_unknown_keys(obj, allowed: frozenset, where: str) -> None:
    if isinstance(obj, dict):
        unknown = sorted(map(str, set(obj) - allowed))
        if unknown:
            raise errors.SchemaError(f"unknown key(s) {unknown} in {where}; "
                                     f"allowed: {sorted(allowed)}")


def _check_config_keys(cfg, where: str) -> None:
    """Reject unknown keys at every level of a cohort config. Mappings of the
    wrong type are left to the loader, which reports them as SchemaError."""
    if not isinstance(cfg, dict):
        return
    _reject_unknown_keys(cfg, CONFIG_KEYS, where)
    for key, allowed in (("city", CITY_KEYS), ("vehicle", VEHICLE_KEYS),
                         ("simulation", SIMULATION_KEYS)):
        _reject_unknown_keys(cfg.get(key), allowed, f"{where}: {key}")
    drivers = cfg.get("drivers")
    for i, drv in enumerate(drivers if isinstance(drivers, list) else ()):
        _reject_unknown_keys(drv, DRIVER_KEYS, f"{where}: drivers[{i}]")
        if isinstance(drv, dict):
            _reject_unknown_keys(drv.get("profile"), PROFILE_KEYS,
                                 f"{where}: drivers[{i}].profile")


def parse_mode(spec) -> Mode:
    """Accept a preset name or an explicit {k_cost, k_time} mapping."""
    if isinstance(spec, str):
        if spec not in MODES:
            raise errors.SchemaError(f"unknown mode {spec!r}; presets: {sorted(MODES)}")
        return MODES[spec]
    _reject_unknown_keys(spec, MODE_KEYS, "mode")
    return Mode(name=spec.get("name", "custom"),
                k_cost=float(spec["k_cost"]), k_time=float(spec["k_time"]))


def _profile_from_dict(obj: dict) -> DriverProfile:
    """Build a profile, rejecting out-of-range values with ValueError: a NaN
    errand rate would make the errand draw loop forever."""
    anchors = {name: (float(lat), float(lon))
               for name, (lat, lon) in obj["anchors"].items()}
    for name, (lat, lon) in anchors.items():
        if not valid_coords(lat, lon):
            raise ValueError(f"anchor {name!r} has invalid coordinates ({lat}, {lon})")
    profile = DriverProfile(
        seed=int(obj["seed"]),
        anchors=anchors,
        schedule={day: list(seq) for day, seq in obj["schedule"].items()},
        errand_targets=list(obj.get("errand_targets", [])),
        errand_rate=float(obj.get("errand_rate", 0.0)),
        speed_noise_pct=float(obj.get("speed_noise_pct", 5.0)),
        gps_noise_m=float(obj.get("gps_noise_m", 10.0)),
        cruise_speed_kmh=float(obj.get("cruise_speed_kmh", 50.0)))
    if not (math.isfinite(profile.cruise_speed_kmh) and profile.cruise_speed_kmh > 0):
        raise ValueError(f"cruise_speed_kmh must be finite and > 0, "
                         f"got {profile.cruise_speed_kmh}")
    for key in ("errand_rate", "speed_noise_pct", "gps_noise_m"):
        value = getattr(profile, key)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{key} must be finite and >= 0, got {value}")
    return profile


def _profile_to_dict(p: DriverProfile) -> dict:
    return {
        "seed": p.seed,
        "anchors": {name: [lat, lon] for name, (lat, lon) in p.anchors.items()},
        "schedule": {day: list(seq) for day, seq in p.schedule.items()},
        "errand_targets": list(p.errand_targets),
        "errand_rate": p.errand_rate,
        "speed_noise_pct": p.speed_noise_pct,
        "gps_noise_m": p.gps_noise_m,
        "cruise_speed_kmh": p.cruise_speed_kmh,
    }


def load_scenarios(config_path: str) -> list[Scenario]:
    """Read a cohort config: shared city/stations/vehicle plus a driver list."""
    base = Path(config_path).parent
    with open(config_path, encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise errors.SchemaError(f"{config_path}: malformed YAML: {exc}") from exc
    _check_config_keys(cfg, config_path)
    try:
        graph = load_road_graph(str(base / cfg["city"]["nodes"]),
                                str(base / cfg["city"]["edges"]))
        stations, history = load_stations(str(base / cfg["stations"]))
        veh = cfg["vehicle"]
        vehicle = VehicleState(tank_l=float(veh["tank_l"]),
                               fuel_l=float(veh["fuel_l"]),
                               rate_l_per_km=float(veh["rate_l_per_km"]))
        mode = parse_mode(cfg.get("mode", "balanced"))
        sim = cfg.get("simulation", {})
        fuel_type = cfg.get("fuel_type", "petrol")
        try:
            forecast = forecast_week(history, fuel_type)
        except errors.EmptyHistory:
            forecast = None  # every driver's run fails with it, as a row
        scenarios = []
        for drv in cfg["drivers"]:
            profile = _profile_from_dict(drv["profile"])
            scenarios.append(Scenario(
                name=drv["name"], seed=int(drv["profile"]["seed"]),
                profile=profile, graph=graph, stations=stations,
                history=history, vehicle=vehicle, mode=mode,
                fuel_type=fuel_type,
                departure=drv["departure"],
                observation_weeks=int(sim.get("observation_weeks", 7)),
                cluster_radius_m=float(sim.get("cluster_radius_m", 100.0)),
                gap_threshold_s=float(sim.get("gap_threshold_s", 120.0)),
                corridor_radius_m=float(sim.get("corridor_radius_m", 2000.0)),
                nearby_radius_m=float(sim.get("nearby_radius_m", 5000.0)),
                refuel_duration_s=float(sim.get("refuel_duration_s", 300.0)),
                forecast=forecast))
    except (KeyError, TypeError, ValueError) as exc:
        raise errors.SchemaError(f"{config_path}: {exc}") from exc
    return scenarios


# --- synthetic scenario generation ---------------------------------------------

PROFILE_TEMPLATES = ("commuter", "shift_worker", "errand_runner")


def _pick_anchor_nodes(rng: random.Random, graph: RoadGraph, count: int) -> list[tuple[float, float]]:
    """Spread anchors over the city: sample nodes, keeping them apart."""
    node_ids = sorted(graph.nodes)
    picks: list[tuple[float, float]] = []
    attempts = 0
    while len(picks) < count and attempts < 500:
        attempts += 1
        lat, lon = graph.nodes[rng.choice(node_ids)]
        if all(abs(lat - a) + abs(lon - b) > 0.004 for a, b in picks):
            picks.append((lat, lon))
    while len(picks) < count:
        picks.append(graph.nodes[rng.choice(node_ids)])
    return picks


def make_profile(template: str, seed: int, graph: RoadGraph) -> DriverProfile:
    """Instantiate a named driver template with anchors on the given city."""
    digest = hashlib.sha256(f"profile:{template}:{seed}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    spots = _pick_anchor_nodes(rng, graph, 5)
    anchors = {name: spots[i] for i, name in
               enumerate(("home", "work", "gym", "market", "mall"))}
    if template == "commuter":
        schedule = {d: ["home", "work", "home"] for d in WEEKDAYS[:5]}
        schedule["Tue"] = ["home", "work", "gym", "home"]
        schedule["Thu"] = ["home", "work", "gym", "home"]
        schedule["Sat"] = ["home", "market", "home"]
        errand_rate = 1.0
    elif template == "shift_worker":
        schedule = {d: ["home", "work", "home"] for d in ("Mon", "Wed", "Fri")}
        schedule["Tue"] = ["home", "market", "home"]
        schedule["Sat"] = ["home", "mall", "home"]
        errand_rate = 2.0
    elif template == "errand_runner":
        schedule = {d: ["home", "market", "work", "home"] for d in WEEKDAYS[:5]}
        schedule["Sat"] = ["home", "mall", "market", "home"]
        schedule["Sun"] = ["home", "gym", "home"]
        errand_rate = 3.0
    else:
        raise ValueError(f"unknown profile template {template!r}; "
                         f"choose from {PROFILE_TEMPLATES}")
    return DriverProfile(seed=seed, anchors=anchors, schedule=schedule,
                         errand_targets=["gym", "market", "mall"],
                         errand_rate=errand_rate)


def make_station_catalog(seed: int, graph: RoadGraph, count: int,
                         fuel_type: str = "petrol", base_price: float = 1.80,
                         dispersion_pct: float = 6.0, history_weeks: int = 4,
                         end_day: date | None = None,
                         ) -> tuple[list[Station], PriceHistory]:
    """Random stations over the city with a weekday-patterned price history.

    Station base prices spread +-dispersion_pct/2 around `base_price`; each
    station discounts one weekday slightly so the cheapest-day choice has
    real signal. History covers `history_weeks` whole weeks ending the day
    before `end_day`.
    """
    rng = random.Random(seed)
    node_ids = sorted(graph.nodes)
    if end_day is None:
        end_day = OBSERVATION_START + timedelta(weeks=8)
    lats = [graph.nodes[n][0] for n in node_ids]
    lons = [graph.nodes[n][1] for n in node_ids]
    stations = []
    series = {}
    brands = ("Alfa", "Bravo", "Quasar", "Vento", "Luce")
    for i in range(count):
        sid = f"PS_{i + 1:03d}"
        lat = rng.uniform(min(lats), max(lats))
        lon = rng.uniform(min(lons), max(lons))
        st = Station(station_id=sid, lat=lat, lon=lon, brand=rng.choice(brands))
        base = base_price * (1.0 + (dispersion_pct / 100.0) * rng.uniform(-0.5, 0.5))
        cheap_day = rng.randrange(7)
        obs = []
        for k in range(history_weeks * 7, 0, -1):
            d = end_day - timedelta(days=k)
            price = base - (0.02 if d.weekday() == cheap_day else 0.0)
            price += 0.002 * rng.uniform(-1.0, 1.0)
            obs.append((d, round(price, 3)))
        series[(sid, fuel_type)] = tuple(obs)
        stations.append(st)
    return stations, PriceHistory(series=series)


def generate_scenario_dir(out_dir: str, seed: int, n_seeds_per_profile: int = 5,
                          templates: tuple[str, ...] = PROFILE_TEMPLATES,
                          station_count: int = 10, city_rows: int = 12,
                          city_cols: int = 12, observation_weeks: int = 7,
                          mode: str = "balanced") -> str:
    """Write city CSVs, station CSV and a cohort config; returns the config path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = generate_city(seed, rows=city_rows, cols=city_cols)
    save_road_graph(graph, str(out / "city_nodes.csv"), str(out / "city_edges.csv"))
    end_day = OBSERVATION_START + timedelta(weeks=observation_weeks)
    stations, history = make_station_catalog(seed + 1, graph, station_count,
                                             end_day=end_day)
    save_stations(stations, history, str(out / "stations.csv"))

    drivers = []
    for template in templates:
        for k in range(n_seeds_per_profile):
            profile = make_profile(template, seed * 1000 + k, graph)
            drivers.append({
                "name": f"{template}_{k}",
                "departure": "home",
                "profile": _profile_to_dict(profile),
            })
    cfg = {
        "city": {"nodes": "city_nodes.csv", "edges": "city_edges.csv"},
        "stations": "stations.csv",
        "fuel_type": "petrol",
        "vehicle": {"tank_l": 50.0, "fuel_l": 14.0, "rate_l_per_km": 0.06},
        "mode": mode,
        "simulation": {"observation_weeks": observation_weeks},
        "drivers": drivers,
    }
    config_path = out / "scenario.yaml"
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return str(config_path)
