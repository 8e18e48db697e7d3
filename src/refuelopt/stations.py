"""Fuel-station catalog, price history and the cheapest-day forecast.

The weekly price forecast is weekday-seasonal persistence: for every
station and weekday, the forecast is the mean of that weekday's observed
prices over the last LOOKBACK_WEEKS (4) weeks, falling back to the
station's most recent observation. The area price for a weekday is the
cheapest station's forecast, and the refueling day is the weekday with the
lowest area price.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, timedelta

from . import errors
from .geo import valid_coords
from .tables import read_table, write_table
from .telemetry import WEEKDAYS

STATIONS_HEADER = ["station_id", "lat", "lon", "brand", "fuel_type",
                   "price_eur_l", "observed_date"]

LOOKBACK_WEEKS = 4


@dataclass(frozen=True)
class Station:
    station_id: str
    lat: float
    lon: float
    brand: str


@dataclass(frozen=True)
class PriceHistory:
    # (station_id, fuel_type) -> [(date, price €/L)] sorted by date
    series: dict[tuple[str, str], tuple[tuple[date, float], ...]]

    def latest_date(self) -> date:
        return max(d for obs in self.series.values() for d, _ in obs)


@dataclass(frozen=True)
class WeeklyPriceForecast:
    fuel_type: str
    # station_id -> weekday -> €/L
    station_prices: dict[str, dict[str, float]]
    # weekday -> cheapest forecast €/L over stations
    area_prices: dict[str, float]


def load_stations(path: str) -> tuple[list[Station], PriceHistory]:
    """Read the station CSV (one row per station x fuel x observation date).

    Each distinct coordinate pair and date string is parsed once. A station's
    rows must agree on its identity as parsed floats, so `44.6` and `44.60`
    are one latitude.
    """
    points: dict[tuple[str, str], tuple[float, float, bool]] = {}
    days: dict[str, date] = {}

    def parse(row):
        point = points.get((row[1], row[2]))
        if point is None:
            lat, lon = float(row[1]), float(row[2])
            point = points[(row[1], row[2])] = (lat, lon, valid_coords(lat, lon))
        price = float(row[5])
        observed = days.get(row[6])
        if observed is None:
            observed = days[row[6]] = date.fromisoformat(row[6])
        lat, lon, valid = point
        if not valid:
            raise ValueError(f"invalid coordinates ({lat}, {lon})")
        if price <= 0:
            raise ValueError(f"price must be positive, got {price}")
        if not price < math.inf:
            raise ValueError(f"price must be finite, got {price}")
        return row[0], lat, lon, row[3], row[4], price, observed

    rows = read_table(path, STATIONS_HEADER, parse)

    identity: dict[str, tuple[float, float, str]] = {}
    series: dict[tuple[str, str], dict[date, float]] = {}
    for sid, lat, lon, brand, fuel, price, observed in rows:
        if identity.setdefault(sid, (lat, lon, brand)) != (lat, lon, brand):
            raise errors.DuplicateId(f"station {sid} redefined with different identity")
        obs = series.get((sid, fuel))
        if obs is None:
            obs = series[(sid, fuel)] = {}
        elif observed in obs:
            raise errors.DuplicateId(f"duplicate observation for {sid}/{fuel} on {observed}")
        obs[observed] = price

    history = PriceHistory(series={k: tuple(sorted(v.items())) for k, v in series.items()})
    return [Station(sid, *ident) for sid, ident in identity.items()], history


def save_stations(stations: list[Station], history: PriceHistory, path: str) -> None:
    identity = {s.station_id: [repr(s.lat), repr(s.lon), s.brand] for s in stations}
    days: dict[date, str] = {}
    write_table(path, STATIONS_HEADER,
                ([sid, *identity[sid], fuel, repr(price),
                  days.get(d) or days.setdefault(d, d.isoformat())]
                 for sid, fuel in sorted(history.series)
                 for d, price in history.series[(sid, fuel)]))


def forecast_week(history: PriceHistory, fuel_type: str) -> WeeklyPriceForecast:
    """Per-station, per-weekday price forecast over the last LOOKBACK_WEEKS
    weeks of observations, plus the area (cheapest) price."""
    keys = [k for k in history.series if k[1] == fuel_type]
    if not keys:
        raise errors.EmptyHistory(f"no observations for fuel type {fuel_type!r}")
    anchor = history.latest_date()
    horizon = anchor - timedelta(weeks=LOOKBACK_WEEKS)

    station_prices: dict[str, dict[str, float]] = {}
    for sid, fuel in keys:
        obs = history.series[(sid, fuel)]
        last_price = obs[-1][1]
        # Grouped in observation order, so each mean sums in date order.
        by_weekday: list[list[float]] = [[] for _ in WEEKDAYS]
        for d, p in obs:
            if d > horizon:
                by_weekday[d.weekday()].append(p)
        station_prices[sid] = {wd: sum(vals) / len(vals) if vals else last_price
                               for wd, vals in zip(WEEKDAYS, by_weekday)}

    area = {wd: min(prices[wd] for prices in station_prices.values())
            for wd in WEEKDAYS}
    return WeeklyPriceForecast(fuel_type=fuel_type, station_prices=station_prices,
                               area_prices=area)


def cheapest_day(forecast: WeeklyPriceForecast, days: Iterable[str] = WEEKDAYS) -> str:
    """Weekday of `days` with the lowest area price; ties go to the earliest
    weekday."""
    return min(days, key=lambda wd: (forecast.area_prices[wd], WEEKDAYS.index(wd)))
