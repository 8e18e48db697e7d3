"""Fuel-station catalog, price history and the cheapest-day forecast.

The weekly price forecast is weekday-seasonal persistence: for every
station and weekday, the forecast is the mean of that weekday's observed
prices over the last few weeks, falling back to the station's most recent
observation. The area price for a weekday is the cheapest station's
forecast, and the refueling day is the weekday with the lowest area price.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date, timedelta

from . import errors
from .geo import valid_coords
from .tables import read_table, write_table
from .telemetry import WEEKDAYS

STATIONS_HEADER = ["station_id", "lat", "lon", "brand", "fuel_type",
                   "price_eur_l", "observed_date"]

STALE_AFTER_DAYS = 14


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
    stale_stations: frozenset[str] = frozenset()


def load_stations(path: str) -> tuple[list[Station], PriceHistory]:
    """Read the station CSV (one row per station x fuel x observation date)."""
    def parse(row):
        sid, brand, fuel = row[0], row[3], row[4]
        lat, lon, price = float(row[1]), float(row[2]), float(row[5])
        observed = date.fromisoformat(row[6])
        if not valid_coords(lat, lon):
            raise ValueError(f"invalid coordinates ({lat}, {lon})")
        if price <= 0:
            raise ValueError(f"price must be positive, got {price}")
        return sid, lat, lon, brand, fuel, price, observed

    rows = read_table(path, STATIONS_HEADER, parse)

    stations: dict[str, Station] = {}
    series: dict[tuple[str, str], dict[date, float]] = {}
    for sid, lat, lon, brand, fuel, price, observed in rows:
        if sid in stations:
            st = stations[sid]
            if (st.lat, st.lon, st.brand) != (lat, lon, brand):
                raise errors.DuplicateId(f"station {sid} redefined with different identity")
        else:
            stations[sid] = Station(station_id=sid, lat=lat, lon=lon, brand=brand)
        obs = series.setdefault((sid, fuel), {})
        if observed in obs:
            raise errors.DuplicateId(f"duplicate observation for {sid}/{fuel} on {observed}")
        obs[observed] = price

    history = PriceHistory(series={k: tuple(sorted(v.items())) for k, v in series.items()})
    return list(stations.values()), history


def save_stations(stations: list[Station], history: PriceHistory, path: str) -> None:
    identity = {s.station_id: [repr(s.lat), repr(s.lon), s.brand] for s in stations}
    write_table(path, STATIONS_HEADER,
                ([sid, *identity[sid], fuel, repr(price), d.isoformat()]
                 for sid, fuel in sorted(history.series)
                 for d, price in history.series[(sid, fuel)]))


def forecast_week(history: PriceHistory, fuel_type: str,
                  lookback_weeks: int = 4) -> WeeklyPriceForecast:
    """Per-station, per-weekday price forecast plus the area (cheapest) price."""
    keys = [k for k in history.series if k[1] == fuel_type]
    if not keys:
        raise errors.EmptyHistory(f"no observations for fuel type {fuel_type!r}")
    anchor = history.latest_date()
    horizon = anchor - timedelta(weeks=lookback_weeks)
    stale_cutoff = anchor - timedelta(days=STALE_AFTER_DAYS)

    station_prices: dict[str, dict[str, float]] = {}
    stale: set[str] = set()
    for sid, fuel in keys:
        obs = history.series[(sid, fuel)]
        last_date, last_price = obs[-1]
        if last_date < stale_cutoff:
            stale.add(sid)
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
                               area_prices=area, stale_stations=frozenset(stale))


def cheapest_day(forecast: WeeklyPriceForecast, days: Iterable[str] = WEEKDAYS) -> str:
    """Weekday of `days` with the lowest area price; ties go to the earliest
    weekday."""
    return min(days, key=lambda wd: (forecast.area_prices[wd], WEEKDAYS.index(wd)))
