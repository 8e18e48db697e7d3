"""Trip-log ingestion and synthetic driver log generation.

Vehicle halts are inferred from silences in the on-board message stream:
while the engine runs messages arrive continuously, so a gap longer than a
threshold marks a stop. Daily traveled distance is integrated from speed
samples rather than GPS displacement, so it keeps working through GPS
outages.

Samples travel as a `TripLog`: one read-only float64 array per field, with
masks for the rows whose coordinates and fuel level are given, so an absent
value stays distinct from a NaN one. It iterates and indexes as
`TripSample` rows, made on demand. `detect_halts` and
`integrate_daily_distance` work on its columns; a list of rows, as
`load_trip_log` returns, goes through `TripLog.of` first.

A synthetic log is a pure function of (profile, weeks, sample_period_s,
start_day), and its bytes are pinned by tests. `random.Random(profile.seed)`
is its only source of randomness, so the order of the draws is part of the
output and must not change:

1. For each week in turn, the errands: `_poisson` draws `random()` until
   the product falls under exp(-errand_rate); each errand then draws
   `choice(days with visits)` and `choice(errand_targets)`.
2. Then, day by day and leg by leg: one `random()` for the leg's speed
   factor, `uniform(-0.1, 0.1)`. Each moving fix draws one `random()` for its
   speed noise, `uniform(-1, 1)`, and two for its GPS offset, one Box-Muller
   pair: `gauss(0, gps_noise_m)` east, then north. The arrival fix draws one
   more pair, and the parked time one `random()`, `uniform(1800, 5400)`.

`generate_synthetic_log` inlines `uniform` and `gauss` with CPython's own
arithmetic (`a + (b - a) * r`, and `gauss`'s Box-Muller with `gauss_next`
always empty, since the calls come in pairs); the tests check the inlined
draws against the library calls. It returns its fixes as a `TripLog`,
checked as a whole.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import errors
from .geo import haversine_m, valid_coords
from .tables import read_table, write_table

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

TRIP_LOG_HEADER = ["timestamp", "speed_kmh", "lat", "lon", "fuel_l", "can_msg"]

DEFAULT_GAP_THRESHOLD_S = 120.0
DEFAULT_DROPOUT_CUTOFF_S = 60.0


def ts_to_date(ts: float) -> date:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


@dataclass(frozen=True)
class CanTrace:
    """Timestamps (UTC seconds) at which a bus message was observed."""

    message_times: list[float]

    def __post_init__(self):
        times = np.asarray(self.message_times, dtype=float)
        if not np.isfinite(times).all():
            raise ValueError("message times must be finite")
        if (times[1:] < times[:-1]).any():
            raise ValueError("message times must be non-decreasing")


class _TripSampleFields(NamedTuple):
    timestamp: float
    speed_kmh: float
    lat: float | None = None
    lon: float | None = None
    fuel_l: float | None = None


class TripSample(_TripSampleFields):
    """One speed reading, with an optional GPS fix and fuel level.

    An immutable tuple: it also compares equal to a plain 5-tuple of its
    fields. Construction validates; `TripLog` validates a whole log at once
    and then builds its rows with `tuple.__new__`.
    """

    __slots__ = ()

    def __new__(cls, timestamp: float, speed_kmh: float, lat: float | None = None,
                lon: float | None = None, fuel_l: float | None = None):
        # A NaN day would reach datetime only when daily distance is summed.
        if not math.isfinite(timestamp):
            raise ValueError(f"non-finite timestamp {timestamp}")
        if not math.isfinite(speed_kmh) or speed_kmh < 0:
            raise ValueError(f"invalid speed {speed_kmh}")
        if (lat is None) != (lon is None):
            raise ValueError("lat and lon must be given together")
        if lat is not None and not valid_coords(lat, lon):
            raise ValueError(f"invalid coordinates ({lat}, {lon})")
        if fuel_l is not None and fuel_l < 0:
            raise ValueError(f"invalid fuel level {fuel_l}")
        return super().__new__(cls, timestamp, speed_kmh, lat, lon, fuel_l)

    @classmethod
    def _make(cls, iterable) -> "TripSample":
        # namedtuple's _make (and so _replace) would skip __new__'s checks.
        return cls(*iterable)


class TripLog(Sequence):
    """Trip samples held as columns: one read-only float64 array per field.

    `located` marks the rows with coordinates and `fueled` the rows with a
    fuel level; elsewhere `lat`, `lon` and `fuel_l` hold NaN, which a given
    fuel level may also be. Indexing and iteration give `TripSample` rows, a
    slice gives a TripLog, and a log equals a TripLog or list with equal rows.

    The constructor takes one sequence per field; `lat`, `lon` and `fuel_l`
    may be None (absent from every row) or hold None in the absent rows. It
    checks every row as `TripSample` does, with array comparisons; if one
    fails, it walks the rows and raises `TripSample`'s error for the first
    invalid one.
    """

    __slots__ = ("timestamp", "speed_kmh", "lat", "lon", "fuel_l", "located", "fueled")
    __hash__ = None

    def __init__(self, timestamp, speed_kmh, lat=None, lon=None, fuel_l=None):
        ts = np.array(timestamp, dtype=float)
        speed = np.array(speed_kmh, dtype=float)
        n = len(ts)
        (lat, has_lat), (lon, has_lon), (fuel, fueled) = (
            _column(c, n) for c in (lat, lon, fuel_l))
        if not len(speed) == len(lat) == len(lon) == len(fuel) == n:
            raise ValueError("trip log columns differ in length")
        # NaN fails every comparison, as in TripSample and valid_coords.
        in_range = (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
        if not (np.isfinite(ts).all() and ((speed >= 0.0) & (speed < math.inf)).all()
                and (has_lat == has_lon).all() and (in_range | ~has_lat).all()
                and not (fuel[fueled] < 0.0).any()):
            for row in zip(ts.tolist(), speed.tolist(), _or_none(lat, has_lat),
                           _or_none(lon, has_lon), _or_none(fuel, fueled)):
                TripSample(*row)
        self._set(ts, speed, lat, lon, fuel, has_lat, fueled)

    def _set(self, *columns) -> None:
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            setattr(self, name, column)

    @classmethod
    def of(cls, samples) -> "TripLog":
        """`samples` as a TripLog: itself if it is one, else built from its rows."""
        if isinstance(samples, TripLog):
            return samples
        return cls(*(list(zip(*samples)) or ((), ())))

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self):
        return map(tuple.__new__, repeat(TripSample), zip(
            self.timestamp.tolist(), self.speed_kmh.tolist(),
            _or_none(self.lat, self.located), _or_none(self.lon, self.located),
            _or_none(self.fuel_l, self.fueled)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            log = TripLog.__new__(TripLog)
            log._set(*(getattr(self, name)[index] for name in self.__slots__))
            return log
        i = range(len(self))[index]
        located, fueled = self.located[i], self.fueled[i]
        return tuple.__new__(TripSample, (
            self.timestamp[i].item(), self.speed_kmh[i].item(),
            self.lat[i].item() if located else None, self.lon[i].item() if located else None,
            self.fuel_l[i].item() if fueled else None))

    def __eq__(self, other):
        if isinstance(other, (TripLog, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TripLog({len(self)} rows)"


def _column(values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A float column and the mask of its given entries (None is absent)."""
    if values is None:
        return np.full(n, math.nan), np.zeros(n, dtype=bool)
    column = np.array(values, dtype=float)
    given = ~np.isnan(column)
    if not given.all():  # a None entry, or a given NaN
        given = np.array([v is not None for v in values], dtype=bool)
    return column, given


def _or_none(column: np.ndarray, given: np.ndarray) -> list:
    """The column as floats, with None where no value is given."""
    if given.all():
        return column.tolist()
    if not given.any():
        return [None] * len(column)
    return [v if g else None for v, g in zip(column.tolist(), given.tolist())]


@dataclass(frozen=True)
class StopEvent:
    timestamp: float
    day: date
    lat: float
    lon: float


@dataclass(frozen=True)
class DriverProfile:
    """Synthetic driver: anchors, a per-weekday visit schedule and noise knobs.

    The seed fully determines the generated log. `schedule` maps weekday
    names to the ordered anchor visits of that day (the first entry is where
    the day starts). `errand_rate` is the expected number of extra round
    trips per week, each one to a random member of `errand_targets`.
    """

    seed: int
    anchors: dict[str, tuple[float, float]]
    schedule: dict[str, list[str]]
    errand_targets: list[str] = field(default_factory=list)
    errand_rate: float = 0.0
    speed_noise_pct: float = 5.0
    gps_noise_m: float = 10.0
    cruise_speed_kmh: float = 50.0


def detect_halts(trace: CanTrace, gps: Sequence[TripSample],
                 gap_threshold: float = DEFAULT_GAP_THRESHOLD_S) -> list[StopEvent]:
    """Find vehicle stops as message gaps longer than `gap_threshold` seconds.

    Each qualifying gap yields one StopEvent at the gap's start t0, located at
    the GPS fix nearest in time to it: the fix minimising (|t - t0|, t), and
    of fixes with equal timestamps the one that comes first in `gps`. So a
    tie between a fix before and one after t0 goes to the earlier one, and
    the order of `gps` matters only among fixes with equal timestamps.
    Fixes without coordinates are ignored. Raises NoLocationFix if no fix
    lies within `gap_threshold` of a gap start.
    """
    if not 0 < gap_threshold < math.inf:
        raise ValueError(f"gap_threshold must be positive and finite, got {gap_threshold}")
    message_times = trace.message_times
    if not message_times:
        raise errors.EmptyTrace("trace has no messages")
    log = TripLog.of(gps)
    gaps = np.flatnonzero(~(np.diff(np.asarray(message_times, dtype=float)) <= gap_threshold))
    located = np.flatnonzero(log.located)
    order = located[np.argsort(log.timestamp[located], kind="stable")]
    times = log.timestamp[order].tolist()
    events: list[StopEvent] = []
    for g in gaps.tolist():
        t0 = message_times[g]
        if not times:
            raise errors.NoLocationFix(f"no GPS fix near gap at t={t0}")
        # Start at the first fix at or after t0 and step back while the earlier
        # fix is no farther. |t - t0| only grows going back, so this stops
        # after the latest fix before t0, unless rounding makes earlier
        # timestamps equally far, or fixes share its timestamp.
        i = bisect_left(times, t0)
        dist = abs(times[i] - t0) if i < len(times) else math.inf
        while i > 0 and abs(times[i - 1] - t0) <= dist:
            i -= 1
            dist = abs(times[i] - t0)
        if dist > gap_threshold:
            raise errors.NoLocationFix(f"no GPS fix within {gap_threshold}s of gap at t={t0}")
        k = order[i]
        events.append(StopEvent(timestamp=t0, day=ts_to_date(t0),
                                lat=log.lat[k].item(), lon=log.lon[k].item()))
    return events


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def integrate_daily_distance(samples: Sequence[TripSample],
                             gap_cutoff_s: float = DEFAULT_DROPOUT_CUTOFF_S) -> dict[date, float]:
    """Per-calendar-day traveled km as the sum of speed_i * dt_i over sample pairs.

    Pairs spanning more than `gap_cutoff_s` contribute nothing: a stale speed
    must not be multiplied across a sensor dropout. Each pair is attributed
    to the day of its earlier sample. Each day's total adds its pairs left
    to right, starting from 0.0, and the days keep the order of their first
    pair.
    """
    if not gap_cutoff_s >= 0:
        raise ValueError(f"gap_cutoff_s must be >= 0, got {gap_cutoff_s}")
    log = TripLog.of(samples)
    ts = log.timestamp
    with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN as in floats
        dt = ts[1:] - ts[:-1]
        back = np.flatnonzero(dt < 0)
        # Pairs before the first decrease, as a pair-by-pair walk sees them.
        pairs = np.flatnonzero(~(dt[:back[0] if back.size else len(dt)] > gap_cutoff_s))
        t = ts[pairs]
        km = log.speed_kmh[pairs] * dt[pairs] / 3600.0
        days = np.floor(t / 86_400.0)
        into_day = t - days * 86_400.0
    # ts_to_date rounds to the microsecond, so within 1 ms of midnight the
    # day comes from ts_to_date. So it does for |t| >= 6e10 s, near or past
    # the ends of datetime's range, where ts_to_date raises.
    exact = (into_day >= 0.001) & (into_day < 86_399.999) & (np.abs(t) < 6e10)
    ordinals = np.where(exact, days, 0.0).astype(np.int64) + _EPOCH_ORDINAL
    for j in np.flatnonzero(~exact).tolist():
        ordinals[j] = ts_to_date(t[j].item()).toordinal()
    if back.size:
        raise errors.NegativeInterval(f"timestamps decrease at t={ts[back[0]].item()}")
    # Without an error, the pairs' earlier samples are finite and in time
    # order, so each day's pairs form one run. cumsum adds left to right.
    starts = np.flatnonzero(np.diff(ordinals, prepend=-1)).tolist()
    return {date.fromordinal(ordinals[lo].item()):
            np.concatenate(([0.0], km[lo:hi])).cumsum()[-1].item()
            for lo, hi in zip(starts, starts[1:] + [len(ordinals)])}


def load_trip_log(path: str) -> tuple[CanTrace, list[TripSample]]:
    """Read a trip-log CSV, returning the message trace and time-sorted samples.

    Schema: `timestamp,speed_kmh,lat,lon,fuel_l,can_msg`; lat/lon/fuel_l may
    be empty. Raises SchemaError on a wrong header and ParseError with the
    offending line number otherwise.
    """
    def parse(row):
        ts, speed = float(row[0]), float(row[1])
        lat, lon, fuel = (float(v) if v != "" else None for v in row[2:5])
        can_msg = int(row[5])
        # float() accepts nan/inf; TripSample rejects a non-finite timestamp.
        if fuel is not None and not math.isfinite(fuel):
            raise ValueError(f"non-finite fuel level {row[4]!r}")
        sample = TripSample(timestamp=ts, speed_kmh=speed, lat=lat, lon=lon, fuel_l=fuel)
        if can_msg not in (0, 1):
            raise ValueError(f"can_msg must be 0 or 1, got {can_msg}")
        return can_msg, sample

    rows = read_table(path, TRIP_LOG_HEADER, parse)
    samples = sorted((s for _, s in rows), key=lambda s: s.timestamp)
    message_times = sorted(s.timestamp for can_msg, s in rows if can_msg == 1)
    return CanTrace(message_times=message_times), samples


def save_trip_log(path: str, trace: CanTrace, samples: list[TripSample]) -> None:
    """Write a trip-log CSV (inverse of load_trip_log for message-bearing samples)."""
    msg_times = set(trace.message_times)
    write_table(path, TRIP_LOG_HEADER,
                ([repr(s.timestamp), repr(s.speed_kmh),
                  "" if s.lat is None else repr(s.lat),
                  "" if s.lon is None else repr(s.lon),
                  "" if s.fuel_l is None else repr(s.fuel_l),
                  1 if s.timestamp in msg_times else 0]
                 for s in sorted(samples, key=lambda s: s.timestamp)))


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's method; lam is small here (errands per week).
    if lam <= 0:
        return 0
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


_TWOPI = 2.0 * math.pi  # random.gauss's TWOPI


def generate_synthetic_log(profile: DriverProfile, weeks: int,
                           sample_period_s: float = 5.0,
                           start_day: date = date(2025, 1, 6),
                           ) -> tuple[CanTrace, TripLog, dict[date, float]]:
    """Simulate `weeks` of driving for a synthetic driver.

    Returns the message trace, GPS/speed samples and the ground-truth daily
    traveled km (geodesic leg lengths, for oracle comparisons). Deterministic
    for a fixed (profile, weeks): the only randomness source is the profile
    seed. `start_day` must be a Monday so schedules line up with weekdays.
    """
    if weeks < 1:
        raise ValueError("weeks must be >= 1")
    if start_day.weekday() != 0:
        raise ValueError("start_day must be a Monday")
    if not sample_period_s > 0:
        raise ValueError("sample_period_s must be positive")
    for day_name, seq in profile.schedule.items():
        if day_name not in WEEKDAYS:
            raise errors.InvalidProfile(f"unknown weekday {day_name!r}")
        for name in seq:
            if name not in profile.anchors:
                raise errors.InvalidProfile(f"schedule references undefined anchor {name!r}")
    for name in profile.errand_targets:
        if name not in profile.anchors:
            raise errors.InvalidProfile(f"errand target {name!r} not an anchor")
    if not math.isfinite(profile.errand_rate):
        # The errand draw would never end on NaN, nor in practice on inf.
        raise errors.InvalidProfile(f"errand_rate must be finite, got {profile.errand_rate!r}")
    if profile.errand_rate > 0 and not profile.errand_targets:
        raise errors.InvalidProfile("errand_rate > 0 but no errand_targets")

    rng = random.Random(profile.seed)

    # Materialize the per-calendar-day visit sequences, with errands spliced
    # in as round trips from a scheduled anchor.
    day_plans: list[tuple[date, list[str]]] = []
    for w in range(weeks):
        week_plans: list[list[str]] = []
        for d in range(7):
            week_plans.append(list(profile.schedule.get(WEEKDAYS[d], [])))
        for _ in range(_poisson(rng, profile.errand_rate)):
            candidates = [i for i, seq in enumerate(week_plans) if seq]
            if not candidates:
                break
            di = rng.choice(candidates)
            seq = week_plans[di]
            # Errands are end-of-day round trips, so the habitual part of the
            # day stays intact and each errand adds 2 x dist(last stop, target).
            target = rng.choice(profile.errand_targets)
            seq.extend([target, seq[-1]])
        for d in range(7):
            day_plans.append((start_day + timedelta(days=7 * w + d), week_plans[d]))

    # One column per field; every fix is also a bus message, so `times` is
    # the message trace as well.
    times: list[float] = []
    speeds: list[float] = []
    lats: list[float] = []
    lons: list[float] = []
    truth: dict[date, float] = {}
    try:
        _drive(profile, rng, day_plans, sample_period_s, truth, times, speeds, lats, lons)
    except Exception:
        # An invalid fix made before the failure is reported instead, as if
        # each fix had been checked when it was made.
        TripLog(times, speeds, lats, lons)
        raise
    samples = TripLog(times, speeds, lats, lons)
    return CanTrace(message_times=times), samples, truth


def _drive(profile: DriverProfile, rng: random.Random,
           day_plans: list[tuple[date, list[str]]], sample_period_s: float,
           truth: dict[date, float], times: list[float], speeds: list[float],
           lats: list[float], lons: list[float]) -> None:
    """Append every day's fixes to the columns and its leg lengths to `truth`.

    Draws in the order the module docstring fixes.
    """
    rnd = rng.random
    sqrt, log, cos, sin, radians = math.sqrt, math.log, math.cos, math.sin, math.radians
    add_t, add_speed, add_lat, add_lon = times.append, speeds.append, lats.append, lons.append
    anchors = profile.anchors
    cruise = profile.cruise_speed_kmh
    sigma = profile.gps_noise_m
    noise_frac = profile.speed_noise_pct / 100.0
    for cal_day, seq in day_plans:
        truth.setdefault(cal_day, 0.0)
        if len(seq) < 2:
            continue
        t = datetime(cal_day.year, cal_day.month, cal_day.day,
                     7, 0, 0, tzinfo=timezone.utc).timestamp()
        for a_name, b_name in zip(seq, seq[1:]):
            a = anchors[a_name]
            b = anchors[b_name]
            a_lat, a_lon, b_lat, b_lon = a[0], a[1], b[0], b[1]
            leg_dlat, leg_dlon = b_lat - a_lat, b_lon - a_lon
            dist_km = haversine_m(a_lat, a_lon, b_lat, b_lon) / 1000.0
            truth[cal_day] += dist_km
            trip_speed = cruise * (1.0 + (-0.1 + 0.2 * rnd()))
            covered = 0.0
            while covered < dist_km:
                speed = trip_speed * (1.0 + noise_frac * (-1.0 + 2.0 * rnd()))
                if not speed > 1.0:  # max(1.0, speed), NaN included
                    speed = 1.0
                frac = covered / dist_km  # in [0, 1], as covered < dist_km
                lat = a_lat + frac * leg_dlat
                x2pi = rnd() * _TWOPI
                g2rad = sqrt(-2.0 * log(1.0 - rnd()))
                dx = 0.0 + cos(x2pi) * g2rad * sigma
                dy = 0.0 + sin(x2pi) * g2rad * sigma
                c = cos(radians(lat))
                add_t(t)
                add_speed(speed)
                add_lat(lat + dy / 111_194.9)
                add_lon(a_lon + frac * leg_dlon + dx / (111_194.9 * (c if c > 0.01 else 0.01)))
                covered += speed * sample_period_s / 3600.0
                t += sample_period_s
            # Arrival fix: zero speed, parked at the destination.
            x2pi = rnd() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - rnd()))
            dx = 0.0 + cos(x2pi) * g2rad * sigma
            dy = 0.0 + sin(x2pi) * g2rad * sigma
            c = cos(radians(b_lat))
            add_t(t)
            add_speed(0.0)
            add_lat(b_lat + dy / 111_194.9)
            add_lon(b_lon + dx / (111_194.9 * (c if c > 0.01 else 0.01)))
            t += 1800.0 + 3600.0 * rnd()  # parked: bus silent
