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
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path
from typing import ClassVar

import yaml

from . import errors
from .mileage import MIN_TRAIN_ROWS
from .optimizer import DEFAULT_REFUEL_DURATION_S, MODES, Mode, VehicleState
from .roadgraph import (DEFAULT_CORRIDOR_RADIUS_M, RoadGraph, generate_city, load_road_graph,
                        save_road_graph)
from .stations import (PriceHistory, Station, WeeklyPriceForecast, forecast_week,
                       load_stations, save_stations)
from .telemetry import DEFAULT_GAP_THRESHOLD_S, OBSERVATION_START, WEEKDAYS, DriverProfile
from .tripgraph import DEFAULT_CLUSTER_RADIUS_M

# The gate's fit trains on every feature row but the held-out last week:
# 7·weeks days, less the first week (it only feeds lag_7) and the held-out
# week, so 7·weeks - 14 rows, and a fit needs MIN_TRAIN_ROWS of them.
MIN_OBSERVATION_WEEKS = -(-(MIN_TRAIN_ROWS + 14) // 7)

# PyYAML's libyaml classes, where it was built with libyaml, share the pure
# classes' constructor and representer: they build the same objects and
# write the same text, several times faster. Only their error messages
# differ, so a document libyaml rejects is parsed again by the pure loader.
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_SafeDumper = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


@dataclass(frozen=True)
class Scenario:
    """One driver's run. Construction, and so `dataclasses.replace`, raises
    SchemaError unless every field is in range (see __post_init__)."""

    MAX_OBSERVATION_WEEKS: ClassVar[int] = 104  # generation and halts grow with it

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
    cluster_radius_m: float = DEFAULT_CLUSTER_RADIUS_M
    gap_threshold_s: float = DEFAULT_GAP_THRESHOLD_S
    corridor_radius_m: float = DEFAULT_CORRIDOR_RADIUS_M
    nearby_radius_m: float = 5000.0
    refuel_duration_s: float = DEFAULT_REFUEL_DURATION_S
    # forecast_week(history, fuel_type), computed once by load_scenarios and
    # shared by the cohort; None makes build_context compute it.
    forecast: WeeklyPriceForecast | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole_in("seed", self.seed, 0))
        object.__setattr__(self, "observation_weeks", _whole_in(
            "simulation.observation_weeks", self.observation_weeks, MIN_OBSERVATION_WEEKS,
            self.MAX_OBSERVATION_WEEKS))
        for key in ("name", "fuel_type"):
            if not isinstance(getattr(self, key), str):
                raise errors.SchemaError(f"{key} must be a string, got {getattr(self, key)!r}")
        if self.departure not in self.profile.anchors:
            raise errors.SchemaError(f"departure {self.departure!r} is not an anchor")
        # NaN fails every comparison: a NaN radius ran on without clusters or stations.
        for key in ("cluster_radius_m", "gap_threshold_s", "corridor_radius_m",
                    "nearby_radius_m", "refuel_duration_s"):
            value, zero_ok = getattr(self, key), key == "refuel_duration_s"
            if not (0 < value < math.inf or zero_ok and value == 0):
                raise errors.SchemaError(f"simulation.{key} must be finite and "
                                         f"{'>=' if zero_ok else '>'} 0, got {value}")


# The keys a cohort config may use, per mapping. An unknown key is rejected,
# not ignored: a misspelled optional key would silently keep its default.
CONFIG_KEYS = frozenset({"city", "stations", "fuel_type", "vehicle", "mode",
                         "simulation", "drivers"})
CITY_KEYS = frozenset({"nodes", "edges"})
VEHICLE_KEYS = frozenset(f.name for f in fields(VehicleState))
SIMULATION_KEYS = frozenset({"observation_weeks", "cluster_radius_m", "gap_threshold_s",
                             "corridor_radius_m", "nearby_radius_m", "refuel_duration_s"})
DRIVER_KEYS = frozenset({"name", "departure", "profile"})
PROFILE_KEYS = frozenset(f.name for f in fields(DriverProfile))
MODE_KEYS = frozenset(f.name for f in fields(Mode))


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
    if not isinstance(spec, dict):
        raise errors.SchemaError(f"mode must be a preset name or a mapping, got {spec!r}")
    _reject_unknown_keys(spec, MODE_KEYS, "mode")
    return Mode(name=spec.get("name", "custom"), k_cost=_number("mode.k_cost", spec["k_cost"]),
                k_time=_number("mode.k_time", spec["k_time"]))


def _profile_from_dict(obj: dict) -> DriverProfile:
    """A profile of the keys `obj` gives; DriverProfile supplies the rest.
    Its seed is left to Scenario to check."""
    if not isinstance(obj, dict):
        raise errors.SchemaError(f"profile must be a mapping, got {obj!r}")
    given = dict(obj)
    for key in ("anchors", "schedule"):
        if not isinstance(given.get(key, {}), dict):
            raise errors.SchemaError(f"profile.{key} must be a mapping, got {given[key]!r}")
    if "anchors" in given:
        given["anchors"] = {name: (_number(f"profile.anchors.{name}", lat),
                                   _number(f"profile.anchors.{name}", lon))
                            for name, (lat, lon) in given["anchors"].items()}
    if "schedule" in given:
        given["schedule"] = {day: list(seq) for day, seq in given["schedule"].items()}
    if "errand_targets" in given:
        given["errand_targets"] = list(given["errand_targets"])
    for key in ("errand_rate", "speed_noise_pct", "gps_noise_m", "cruise_speed_kmh"):
        if key in given:
            given[key] = _number(f"profile.{key}", given[key])
    return DriverProfile(**given)


def _profile_to_dict(p: DriverProfile) -> dict:
    """The profile's fields in field order, tuples written as YAML lists."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return [plain(item) for item in value] if isinstance(value, (list, tuple)) else value
    return {f.name: plain(getattr(p, f.name)) for f in fields(p)}


def _number(what: str, value) -> float:
    """`value` as a float if it is a YAML number (an int or a float, not a
    bool or a string), else SchemaError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise errors.SchemaError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise errors.SchemaError(f"{what} must be a finite number, got {value!r}") from None


def _whole_in(what: str, value, least: int, most: float = math.inf) -> int:
    """`value` as an int if it is a whole number in [least, most], else SchemaError."""
    whole = (isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer())
    if not (whole and least <= value <= most):
        bounds = f">= {least}" + (f" and <= {most}" if most < math.inf else "")
        raise errors.SchemaError(f"{what} must be a whole number {bounds}, got {value!r}")
    return int(value)


def _safe_load(fh):
    """`yaml.safe_load(fh)`: the same document, or the same YAMLError."""
    try:
        return yaml.load(fh, Loader=_SafeLoader)
    except yaml.YAMLError:
        fh.seek(0)
        return yaml.load(fh, Loader=yaml.SafeLoader)


def load_scenarios(config_path: str) -> list[Scenario]:
    """Read a cohort config: shared city/stations/vehicle plus a driver list."""
    base = Path(config_path).parent
    with open(config_path, encoding="utf-8") as fh:
        try:
            cfg = _safe_load(fh)
        except yaml.YAMLError as exc:
            raise errors.SchemaError(f"{config_path}: malformed YAML: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise errors.SchemaError(f"{config_path}: not UTF-8: {exc}") from None
    _check_config_keys(cfg, config_path)
    try:
        files = (cfg["city"]["nodes"], cfg["city"]["edges"], cfg["stations"])
        if not all(isinstance(name, str) and name for name in files):
            raise errors.SchemaError(f"file names must be non-empty strings, got {files}")
        graph = load_road_graph(str(base / files[0]), str(base / files[1]))
        stations, history = load_stations(str(base / files[2]))
        graph.nearest_nodes([(s.lat, s.lon) for s in stations])  # each run's snaps hit
        veh = cfg["vehicle"]
        vehicle = VehicleState(**{key: _number(f"vehicle.{key}", veh[key])
                                  for key in ("tank_l", "fuel_l", "rate_l_per_km")})
        mode = parse_mode(cfg.get("mode", "balanced"))
        sim = {} if cfg.get("simulation") is None else cfg["simulation"]  # `simulation:`
        if not isinstance(sim, dict):
            raise TypeError(f"simulation must be a mapping, got {type(sim).__name__}")
        settings = {key: value if key == "observation_weeks"
                    else _number(f"simulation.{key}", value) for key, value in sim.items()}
        if not cfg["drivers"]:
            raise errors.SchemaError("drivers must list at least one driver")
        fuel_type = cfg.get("fuel_type", "petrol")
        try:
            forecast = forecast_week(history, fuel_type)
        except errors.EmptyHistory:
            forecast = None  # every driver's run fails with it, as a row
        scenarios = []
        for drv in cfg["drivers"]:
            profile = _profile_from_dict(drv["profile"])
            scenarios.append(Scenario(
                name=drv["name"], seed=profile.seed,
                profile=profile, graph=graph, stations=stations,
                history=history, vehicle=vehicle, mode=mode,
                fuel_type=fuel_type,
                departure=drv["departure"],
                forecast=forecast,
                **settings))
        names = [scn.name for scn in scenarios]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise errors.SchemaError(f"driver names must be unique, repeated: {repeated}")
    except (KeyError, TypeError, ValueError, errors.SchemaError, errors.InvalidProfile) as exc:
        raise errors.SchemaError(f"{config_path}: {exc}") from exc
    return scenarios


# --- synthetic scenario generation ---------------------------------------------

PROFILE_TEMPLATES = ("commuter", "shift_worker", "errand_runner")


def _pick_anchor_nodes(rng: random.Random, graph: RoadGraph, count: int) -> list[tuple[float, float]]:
    """Spread anchors over the city: sample nodes, keeping them apart."""
    node_ids = graph.ids
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


def make_station_catalog(seed: int, graph: RoadGraph, count: int, end_day: date,
                         ) -> tuple[list[Station], PriceHistory]:
    """Random stations over the city with a weekday-patterned petrol price history.

    Station base prices spread +-3 % around 1.80 EUR/L; each station
    discounts one weekday slightly so the cheapest-day choice has real
    signal. History covers the 4 whole weeks ending the day before `end_day`.
    """
    rng = random.Random(seed)
    lats = [graph.nodes[n][0] for n in graph.ids]
    lons = [graph.nodes[n][1] for n in graph.ids]
    lat_range, lon_range = (min(lats), max(lats)), (min(lons), max(lons))
    days = [end_day - timedelta(days=k) for k in range(28, 0, -1)]
    weekdays = [d.weekday() for d in days]
    stations = []
    series = {}
    brands = ("Alfa", "Bravo", "Quasar", "Vento", "Luce")
    for i in range(count):
        sid = f"PS_{i + 1:03d}"
        lat = rng.uniform(*lat_range)
        lon = rng.uniform(*lon_range)
        st = Station(station_id=sid, lat=lat, lon=lon, brand=rng.choice(brands))
        base = 1.80 * (1.0 + 0.06 * rng.uniform(-0.5, 0.5))
        cheap_day = rng.randrange(7)
        obs = []
        for d, weekday in zip(days, weekdays):
            price = base - (0.02 if weekday == cheap_day else 0.0)
            price += 0.002 * rng.uniform(-1.0, 1.0)
            obs.append((d, round(price, 3)))
        series[(sid, "petrol")] = tuple(obs)
        stations.append(st)
    return stations, PriceHistory(series=series)


def generate_scenario_dir(out_dir: str, seed: int, n_seeds_per_profile: int = 5,
                          station_count: int = 10, city_rows: int = 12,
                          city_cols: int = 12, observation_weeks: int = 7) -> str:
    """Write city CSVs, station CSV and a cohort config of `n_seeds_per_profile`
    drivers per PROFILE_TEMPLATES template in the `balanced` mode; returns the
    config path.

    Raises SchemaError, before writing anything, for a config that
    load_scenarios would reject or in which every run would fail.
    """
    seed = _whole_in("seed", seed, 0)
    observation_weeks = _whole_in("observation_weeks", observation_weeks,
                                  MIN_OBSERVATION_WEEKS, Scenario.MAX_OBSERVATION_WEEKS)
    n_seeds_per_profile = _whole_in("n_seeds_per_profile", n_seeds_per_profile, 1)
    station_count = _whole_in("station_count", station_count, 1)
    city_rows = _whole_in("city_rows", city_rows, 1)
    city_cols = _whole_in("city_cols", city_cols, 1)
    if city_rows * city_cols < 2:  # no road to drive: every week totals zero
        raise errors.SchemaError(f"the city needs at least 2 nodes, got {city_rows}x{city_cols}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    graph = generate_city(seed, rows=city_rows, cols=city_cols)
    save_road_graph(graph, str(out / "city_nodes.csv"), str(out / "city_edges.csv"))
    end_day = OBSERVATION_START + timedelta(weeks=observation_weeks)
    stations, history = make_station_catalog(seed + 1, graph, station_count, end_day)
    save_stations(stations, history, str(out / "stations.csv"))

    drivers = []
    for template in PROFILE_TEMPLATES:
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
        "mode": "balanced",
        "simulation": {"observation_weeks": observation_weeks},
        "drivers": drivers,
    }
    config_path = out / "scenario.yaml"
    with open(config_path, "w", encoding="utf-8") as fh:
        yaml.dump(cfg, fh, Dumper=_SafeDumper, sort_keys=False)
    return str(config_path)
