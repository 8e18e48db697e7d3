"""Trip-log ingestion and synthetic driver log generation.

Vehicle halts are inferred from silences in the on-board message stream:
while the engine runs messages arrive continuously, so a gap longer than a
threshold marks a stop. Daily traveled distance is integrated from speed
samples rather than GPS displacement, so it keeps working through GPS
outages.

Samples travel as a `TripLog`, the in-memory form of the trip-log CSV and
the one trip-log type: one read-only float64 array per field, with masks
for the rows whose coordinates and fuel level are given (so an absent value
stays distinct from a NaN one) and for the rows that are bus messages
(`can_msg`). It holds the one rule every log keeps: each row keeps the
sample rule, which `load_trip_log` applies row by row, and the rows are in
time order. So `load_trip_log` of a saved log gives back an equal log.

A synthetic log is a pure function of (profile, weeks, sample_period_s),
and its bytes are pinned by tests. `random.Random(profile.seed)`
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

`generate_synthetic_log` spells out `uniform` and `gauss` in CPython's own
arithmetic (`a + (b - a) * r`, and `gauss`'s Box-Muller with `gauss_next`
always empty, since the calls come in pairs); the tests check this against
the library calls. After the errands it hands the generator's state to
numpy's MT19937, whose `random()` gives the same doubles, and makes the
fixes in two phases over one buffer of draws:

- Phase 1 walks the legs in order, since where a leg's draws start depends
  on how many fixes the legs before it took. For a window of the leg's
  stride-3 speed draws it computes the speeds and their running sum with
  `cumsum`, which adds in order as a per-fix `covered += step` does, and
  finds the fix count by bisection. Days sum their time steps the same way.
- Phase 2 (`_place`) places the fixes of any rows asked for: the position
  on the leg plus the GPS offset, with the operations of a per-fix loop in
  its order. `log`, `sin` and `cos` go through `math` one value at a time,
  because numpy's versions may differ from libm's in the last bit. Every
  operation is elementwise, so a row gets the same bits whichever other
  rows are placed with it.

Phase 2 runs on demand: the log keeps the draws and the legs, `detect_halts`
places only the fixes at its gap starts, and reading `lat` or `lon` places
every fix once. So the generator must know before placement that every fix
is in range. A Box-Muller radius is at most sqrt(-2 ln 2**-53) < 8.5717,
since `1 - u >= 2**-53`, and a fix lies between its leg's anchors before
its offset. So if every anchor keeps 8.5717 sigma of offset (over the 0.01
floor of the east offset's cosine) inside the range, every fix does. Only
a profile that fails this bound (an anchor near a pole or the antimeridian,
or a large sigma) has its fixes placed and checked at generation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from functools import partial
from itertools import combinations, repeat
from typing import ClassVar, NamedTuple

import numpy as np

from . import errors
from .geo import haversine_m, valid_coords
from .tables import read_table, write_table

WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")

TRIP_LOG_HEADER = ["timestamp", "speed_kmh", "lat", "lon", "fuel_l", "can_msg"]

DEFAULT_GAP_THRESHOLD_S = 120.0
DROPOUT_CUTOFF_S = 60.0
OBSERVATION_START = date(2025, 1, 6)  # a Monday; schedules align to weekdays
MIN_SAMPLE_PERIOD_S = 1.0  # a leg's fixes grow as 1 / period (see DriverProfile)


# The timestamps `ts_to_date` converts: UTC years 1 to 9999.
FIRST_TIMESTAMP = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
END_TIMESTAMP = datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp() + 86_400.0


def ts_to_date(ts: float) -> date:
    return datetime.fromtimestamp(ts, tz=timezone.utc).date()


def _in_range(ts):
    """Whether `ts_to_date` converts `ts` (a float or an array); NaN does not."""
    return (ts >= FIRST_TIMESTAMP) & (ts < END_TIMESTAMP)


class TripSample(NamedTuple):
    """One row of a `TripLog`: a speed reading, with an optional GPS fix and
    fuel level (None when absent). A plain tuple; the log checks its rows."""

    timestamp: float
    speed_kmh: float
    lat: float | None = None
    lon: float | None = None
    fuel_l: float | None = None


def _sample_rule(ts, speed, lat, lon, fuel, has_lat, has_lon) -> tuple:
    """The sample rule over one row's floats or over columns: each check's
    pass mask, and the message for a row whose first failed check it is.
    An absent coordinate or fuel level reads as 0.0; NaN fails every
    comparison. The timestamp range is the one `ts_to_date` converts."""
    return ((abs(ts) < math.inf, "non-finite timestamp {0}"),
            (_in_range(ts), "timestamp {0} outside UTC years 1-9999"),
            ((speed >= 0.0) & (speed < math.inf), "invalid speed {1}"),
            (has_lat == has_lon, "lat and lon must be given together"),
            ((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0),
             "invalid coordinates ({2}, {3})"),
            (abs(fuel) < math.inf, "non-finite fuel level {4}"),
            (fuel >= 0.0, "invalid fuel level {4}"))


def _check_row(ts, speed, lat, lon, fuel) -> None:
    """Raise ValueError if one row, with None for an absent value, breaks the sample rule."""
    for ok, message in _sample_rule(ts, speed, 0.0 if lat is None else lat,
                                    0.0 if lon is None else lon, 0.0 if fuel is None else fuel,
                                    lat is not None, lon is not None):
        if not ok:
            raise ValueError(message.format(ts, speed, lat, lon, fuel))


class TripLog:
    """Trip samples in time order, held as columns: one read-only float64
    array per field.

    `located` marks the rows with coordinates, `fueled` the rows with a fuel
    level and `message` the bus messages; elsewhere `lat`, `lon` and `fuel_l`
    hold NaN. Iteration gives `TripSample` rows, and a log equals a TripLog
    with equal rows and message flags.

    The constructor takes one sequence per field; `lat`, `lon` and `fuel_l`
    may be None (absent from every row) or hold None in the absent rows, and
    `message` None (every row is a message). Every row must keep the sample
    rule: a finite timestamp within UTC years 1-9999, a finite speed >= 0,
    coordinates given together and in range, and a given fuel level finite
    and >= 0. Otherwise it raises ValueError naming the first invalid row's
    first failed check. Only then is time order checked: a decrease raises
    ValueError naming the first decreasing pair's earlier timestamp.

    A generated log passes `place` instead of `lat` and `lon`: every row is
    a fix, and `place(rows)` returns the coordinates of an int array of rows,
    which its caller vouches are in range. They stay pending until read:
    `fixes(rows)` places only `rows`, and reading `lat` or `lon` (so also
    iteration, `==` and `save_trip_log`) places every fix once and keeps the
    columns.
    """

    __slots__ = ("timestamp", "speed_kmh", "_lat", "_lon", "fuel_l", "located", "fueled",
                 "message", "_place")
    __hash__ = None

    def __init__(self, timestamp, speed_kmh, lat=None, lon=None, fuel_l=None, message=None,
                 *, place=None):
        ts = np.array(timestamp, dtype=float)
        speed = np.array(speed_kmh, dtype=float)
        n = len(ts)
        if place is None:
            (lat, has_lat), (lon, has_lon) = _column(lat, n), _column(lon, n)
            rule_lat, rule_lon = np.where(has_lat, lat, 0.0), np.where(has_lon, lon, 0.0)
        else:  # every row is a fix; a zero-stride 0.0 stands in for the pending coordinates
            lat = lon = rule_lat = rule_lon = np.broadcast_to(0.0, n)
            has_lat = has_lon = np.ones(n, dtype=bool)
        fuel, fueled = _column(fuel_l, n)
        message = np.ones(n, dtype=bool) if message is None else np.array(message, dtype=bool)
        if not len(speed) == len(lat) == len(lon) == len(fuel) == len(message) == n:
            raise ValueError("trip log columns differ in length")
        rule = _sample_rule(ts, speed, rule_lat, rule_lon, np.where(fueled, fuel, 0.0),
                            has_lat, has_lon)
        ok = np.logical_and.reduce([passes for passes, _ in rule])
        if not ok.all():
            i = int(ok.argmin())
            _check_row(ts[i].item(), speed[i].item(),
                       *(c[i].item() if given[i] else None
                         for c, given in ((lat, has_lat), (lon, has_lon), (fuel, fueled))))
        back = ts[1:] < ts[:-1]
        if back.any():
            raise ValueError(f"timestamps decrease at t={ts[back.argmax()].item()}")
        for name, column in zip(self.__slots__,
                                (ts, speed, lat, lon, fuel, has_lat, fueled, message)):
            column.flags.writeable = False
            setattr(self, name, column)
        if place is not None:
            self._lat = self._lon = None
        self._place = place

    @property
    def lat(self) -> np.ndarray:
        self._place_all()
        return self._lat

    @property
    def lon(self) -> np.ndarray:
        self._place_all()
        return self._lon

    def fixes(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The lat and lon columns at `rows`, an int array of row indices.
        Of a pending log it places only those rows."""
        if self._place is None:
            return self._lat[rows], self._lon[rows]
        return self._place(rows)

    def _place_all(self) -> None:
        if self._place is not None:
            self._lat, self._lon = _every_fix(self._place, len(self))
            self._place = None  # and with it the draws

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self):
        return map(tuple.__new__, repeat(TripSample), zip(
            self.timestamp.tolist(), self.speed_kmh.tolist(),
            _or_none(self.lat, self.located), _or_none(self.lon, self.located),
            _or_none(self.fuel_l, self.fueled)))

    def __eq__(self, other):
        if isinstance(other, TripLog):
            return list(self) == list(other) and np.array_equal(self.message, other.message)
        return NotImplemented

    def __repr__(self) -> str:
        return f"TripLog({len(self)} rows)"


def _column(values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A float column and the mask of its given entries (None is absent)."""
    if values is None:  # a zero-stride NaN: an absent column takes no memory
        return np.broadcast_to(math.nan, n), np.zeros(n, dtype=bool)
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

    Construction raises InvalidProfile unless every anchor has valid
    coordinates, no two anchors are more than MAX_ANCHOR_SPREAD_KM apart, the
    schedule's days are WEEKDAYS, its visits and the errand targets are
    anchors, a positive errand rate has targets, 0 < cruise_speed_kmh and 0
    <= errand_rate, speed_noise_pct, gps_noise_m, each at most its MAX_*
    (which keep a week's distance modest). Since a fix moves at least 1 km/h,
    a leg then takes at most about MAX_ANCHOR_SPREAD_KM * 3600 /
    sample_period_s fixes: 72 000 at a 5 s period, ≈1 440 at 50 km/h, and
    360 000 at MIN_SAMPLE_PERIOD_S.
    """

    MAX_ANCHOR_SPREAD_KM: ClassVar[float] = 100.0  # a city's span; bounds a leg's fixes
    MAX_CRUISE_SPEED_KMH: ClassVar[float] = 300.0
    MAX_ERRAND_RATE: ClassVar[float] = 50.0  # errands per week
    MAX_SPEED_NOISE_PCT: ClassVar[float] = 400.0
    MAX_GPS_NOISE_M: ClassVar[float] = 5000.0

    seed: int
    anchors: dict[str, tuple[float, float]]
    schedule: dict[str, list[str]]
    errand_targets: list[str] = field(default_factory=list)
    errand_rate: float = 0.0
    speed_noise_pct: float = 5.0
    gps_noise_m: float = 10.0
    cruise_speed_kmh: float = 50.0

    def __post_init__(self):
        for name, coords in self.anchors.items():
            _check(valid_coords(*coords), f"anchor {name!r} has invalid coordinates {coords}")
        for (a, at), (b, bt) in combinations(self.anchors.items(), 2):
            km = haversine_m(*at, *bt) / 1000.0
            _check(km <= self.MAX_ANCHOR_SPREAD_KM, f"anchors {a!r} and {b!r} are {km:.1f} km "
                   f"apart, more than MAX_ANCHOR_SPREAD_KM = {self.MAX_ANCHOR_SPREAD_KM}")
        for day_name, seq in self.schedule.items():
            _check(day_name in WEEKDAYS, f"unknown weekday {day_name!r}")
            for name in seq:
                _check(name in self.anchors, f"schedule references undefined anchor {name!r}")
        for name in self.errand_targets:
            _check(name in self.anchors, f"errand target {name!r} not an anchor")
        # NaN fails every comparison: a NaN errand rate made the errand draw loop forever.
        for key in ("cruise_speed_kmh", "errand_rate", "speed_noise_pct", "gps_noise_m"):
            value, top = getattr(self, key), getattr(self, f"MAX_{key.upper()}")
            _check(0 <= value <= top, f"{key} must be finite and in [0, {top}], got {value}")
        _check(self.cruise_speed_kmh > 0, "cruise_speed_kmh must be > 0, got 0")
        _check(self.errand_targets or not self.errand_rate,
               "errand_rate > 0 but no errand_targets")


def _check(ok, message: str) -> None:
    if not ok:
        raise errors.InvalidProfile(message)


def detect_halts(gps: TripLog, gap_threshold: float = DEFAULT_GAP_THRESHOLD_S) -> list[StopEvent]:
    """Find vehicle stops as gaps longer than `gap_threshold` seconds between
    the log's message rows.

    Each qualifying gap yields one StopEvent at the gap's start t0, located at
    the GPS fix nearest in time to it: the row with coordinates minimising
    (|t - t0|, t), and of fixes with equal timestamps the first in the log.
    So a tie between a fix before and one after t0 goes to the earlier one.
    Raises EmptyTrace if no row is a message, and NoLocationFix if no fix
    lies within `gap_threshold` of a gap start. Of a log whose coordinates
    are pending it places only the halts' fixes, once every gap has one.
    """
    if not 0 < gap_threshold < math.inf:
        raise ValueError(f"gap_threshold must be positive and finite, got {gap_threshold}")
    message_times = gps.timestamp[gps.message]
    if not len(message_times):
        raise errors.EmptyTrace("the log has no messages")
    gaps = np.flatnonzero(np.diff(message_times) > gap_threshold)
    located = np.flatnonzero(gps.located)
    times = gps.timestamp[located].tolist()
    starts = message_times[gaps].tolist()
    nearest: list[int] = []
    for t0 in starts:
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
        nearest.append(i)
    lat, lon = gps.fixes(located[nearest])
    return [StopEvent(timestamp=t0, day=ts_to_date(t0), lat=a, lon=b)
            for t0, a, b in zip(starts, lat.tolist(), lon.tolist())]


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


@np.errstate(over="ignore")  # huge speeds overflow to inf, as floats do
def integrate_daily_distance(samples: TripLog) -> dict[date, float]:
    """Per-calendar-day traveled km as the sum of speed_i * dt_i over sample pairs.

    Pairs spanning more than DROPOUT_CUTOFF_S contribute nothing: a stale
    speed must not be multiplied across a sensor dropout. Each pair is
    attributed to the day of its earlier sample. Each day's total adds its
    pairs left to right, starting from 0.0, and the days keep the order of
    their first pair.
    """
    ts = samples.timestamp
    dt = ts[1:] - ts[:-1]
    pairs = np.flatnonzero(dt <= DROPOUT_CUTOFF_S)
    # Row-sized temporaries are made in place where they can be and dropped
    # after their last use, which keeps the peak near four columns.
    km = samples.speed_kmh.take(pairs)
    km *= dt.take(pairs)
    del dt
    km /= 3600.0
    t = ts.take(pairs)
    del pairs
    days = np.floor(t / 86_400.0)
    into_day = days * 86_400.0
    np.subtract(t, into_day, out=into_day)
    # ts_to_date rounds to the microsecond, so within 1 ms of midnight the
    # day comes from ts_to_date. So it does for |t| >= 6e10 s, near the ends
    # of the range a TripLog admits.
    exact = (into_day >= 0.001) & (into_day < 86_399.999)
    del into_day
    exact &= np.abs(t) < 6e10
    days[~exact] = 0.0
    ordinals = days.astype(np.int64)
    del days
    ordinals += _EPOCH_ORDINAL
    for j in np.flatnonzero(~exact).tolist():
        ordinals[j] = ts_to_date(t[j].item()).toordinal()
    del t, exact
    # The log is in time order, so each day's pairs form one run; cumsum
    # adds left to right.
    starts = np.flatnonzero(np.diff(ordinals, prepend=-1)).tolist()
    return {date.fromordinal(ordinals[lo].item()):
            np.concatenate(([0.0], km[lo:hi])).cumsum()[-1].item()
            for lo, hi in zip(starts, starts[1:] + [len(ordinals)])}


def load_trip_log(path: str) -> TripLog:
    """Read a trip-log CSV into a TripLog, its rows sorted stably by time.

    Schema: `timestamp,speed_kmh,lat,lon,fuel_l,can_msg`; lat/lon/fuel_l may
    be empty, and `can_msg` (0 or 1) is the row's message flag. Raises
    SchemaError on a wrong header and ParseError with the line number of the
    first bad row otherwise: each row is checked against the sample rule as
    it is read.
    """
    def parse(row):
        ts, speed = float(row[0]), float(row[1])
        lat, lon, fuel = (float(v) if v != "" else None for v in row[2:5])
        can_msg = int(row[5])
        _check_row(ts, speed, lat, lon, fuel)
        if can_msg not in (0, 1):
            raise ValueError(f"can_msg must be 0 or 1, got {can_msg}")
        return ts, speed, lat, lon, fuel, can_msg == 1

    rows = read_table(path, TRIP_LOG_HEADER, parse)
    rows.sort(key=lambda row: row[0])
    return TripLog(*zip(*rows) if rows else ((),) * 6)


def save_trip_log(path: str, log: TripLog) -> None:
    """Write a trip-log CSV, one row per log row in log order, so that
    `load_trip_log` of the file equals `log`."""
    write_table(path, TRIP_LOG_HEADER,
                ([*("" if v is None else repr(v) for v in s), int(m)]
                 for s, m in zip(log, log.message.tolist())))


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
_DEG = math.pi / 180.0  # math.radians's factor
BLOCK_FIXES = 4096  # fixes placed per call when a log places every fix
_MAX_RADIUS = 8.5717  # > sqrt(106 ln 2), the largest Box-Muller radius of a draw
_ROUNDING_DEG = 1e-9  # far above the rounding of a fix's arithmetic or of the bound's


def generate_synthetic_log(profile: DriverProfile, weeks: int,
                           sample_period_s: float = 5.0,
                           ) -> tuple[TripLog, dict[date, float]]:
    """Simulate `weeks` of driving for a synthetic driver, from the Monday
    OBSERVATION_START.

    Returns the trip log, in which every row is a bus message with a GPS fix,
    and the ground-truth daily traveled km (geodesic leg lengths, for oracle
    comparisons). Deterministic for a fixed (profile, weeks): the only
    randomness source is the profile seed. Raises InvalidProfile for a log that
    fails the TripLog checks, such as a day whose driving runs past the next
    day's 07:00 start.

    The log's coordinates stay pending (see TripLog) when the profile keeps
    every fix in range (`_fixes_in_range`); otherwise they are placed and
    checked here, so a log fails at generation either way.
    """
    if weeks < 1:
        raise ValueError("weeks must be >= 1")
    if not sample_period_s >= MIN_SAMPLE_PERIOD_S:
        raise ValueError(f"sample_period_s must be >= {MIN_SAMPLE_PERIOD_S} s, "
                         f"got {sample_period_s}")

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
            day_plans.append((OBSERVATION_START + timedelta(days=7 * w + d), week_plans[d]))

    # Every leg's length first, to size the draws.
    truth: dict[date, float] = {}
    days: list[tuple[float, list[tuple]]] = []
    for cal_day, seq in day_plans:
        truth.setdefault(cal_day, 0.0)
        if len(seq) < 2:
            continue
        legs: list[tuple] = []
        days.append((datetime(cal_day.year, cal_day.month, cal_day.day,
                              7, 0, 0, tzinfo=timezone.utc).timestamp(), legs))
        for a_name, b_name in zip(seq, seq[1:]):
            a, b = profile.anchors[a_name], profile.anchors[b_name]
            dist_km = haversine_m(a[0], a[1], b[0], b[1]) / 1000.0
            truth[cal_day] += dist_km
            legs.append((a[0], a[1], b[0], b[1], dist_km))
    with np.errstate(all="ignore"):  # a huge period overflows to an invalid timestamp
        ts, speed, place = _drive(profile, rng, days, sample_period_s)
    try:
        if _fixes_in_range(profile):
            return TripLog(ts, speed, place=place), truth
        return TripLog(ts, speed, *_every_fix(place, len(ts))), truth
    except ValueError as exc:
        raise errors.InvalidProfile(str(exc)) from exc


def _fixes_in_range(profile: DriverProfile) -> bool:
    """Whether every fix a log of `profile` can hold has valid coordinates:
    the bound of the module docstring."""
    reach = _MAX_RADIUS * profile.gps_noise_m / 111_194.9
    return all(abs(lat) + reach + _ROUNDING_DEG <= 90.0
               and abs(lon) + reach / 0.01 + _ROUNDING_DEG <= 180.0
               for lat, lon in profile.anchors.values())


def _draw_stream(rng: random.Random) -> np.random.Generator:
    """A numpy generator whose `random()` continues `rng.random()` bit for bit.

    Both are MT19937 and build a double from two 32-bit words the same way,
    so the state carries over as its 624 key words and its position.
    """
    state = rng.getstate()[1]
    bits = np.random.MT19937(0)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(state[:624], dtype=np.uint32), "pos": state[624]}}
    return np.random.Generator(bits)


def _fixes_at(dist_km: float, speed: float, period: float) -> int:
    """About how many fixes a leg takes at `speed` km/h (floored at 1)."""
    fixes = dist_km * 3600.0 / (period * (speed if speed > 1.0 else 1.0))
    return int(fixes) if fixes < 1e6 else 1_000_000


def _grown(a: np.ndarray, need: int) -> np.ndarray:
    """`a` copied to the front of an array at least `need` and 1.5 x as long."""
    out = np.empty(a.shape[:-1] + (max(need, a.shape[-1] * 3 // 2),))
    out[..., :a.shape[-1]] = a
    return out


class _Draws:
    """The stream's next `random()` values `u`, drawn ahead into one buffer,
    and the speed factor `1 + noise_frac * uniform(-1, 1)` made from each."""

    def __init__(self, rng: random.Random, size: int, noise_frac: float):
        self.stream = _draw_stream(rng)
        self.noise_frac = noise_frac
        self.u = self.factor = np.empty(0)
        self.reserve(size)

    def reserve(self, need: int) -> None:
        old = len(self.u)
        if need > old:
            self.u = _grown(self.u, need)
            self.stream.random(out=self.u[old:])
            self.factor = _grown(self.factor, len(self.u))
            self.factor[old:] = 1.0 + self.noise_frac * (-1.0 + 2.0 * self.u[old:])


def _drive(profile: DriverProfile, rng: random.Random, days: list[tuple[float, list[tuple]]],
           period: float) -> tuple[np.ndarray, np.ndarray, partial]:
    """Phase 1 over `days` (each a 07:00 start and its legs): every fix's
    timestamp and speed, and the placement of its coordinates, pending.

    Walks the legs in order and finds each leg's fix count, speeds and
    timestamps. Draws in the order the module docstring fixes.
    """
    cruise = profile.cruise_speed_kmh
    # A leg takes 3 draws per moving fix and 4 more.
    estimate = sum(_fixes_at(leg[4], cruise, period) + 2 for _, legs in days for leg in legs)
    draws = _Draws(rng, 3 * estimate + estimate // 8 + 64, profile.speed_noise_pct / 100.0)
    # Row 0 holds time steps until each day is summed, and row 2 the km
    # covered before each moving fix, which `_place` turns into a position.
    cols = np.empty((3, estimate + estimate // 16 + 16))
    cols[0] = period
    p = n = 0  # the leg's first draw and first fix
    leg_rows: list[tuple] = []
    for start, legs in days:
        day = n
        for a_lat, a_lon, b_lat, b_lon, dist_km in legs:
            draws.reserve(p + 4)
            trip_speed = cruise * (1.0 + (-0.1 + 0.2 * draws.u.item(p)))
            # w moving fixes are computed at once, k of them kept; a leg of
            # length 0 has none, only its arrival fix.
            w = _fixes_at(dist_km, trip_speed, period) + 8 if dist_km > 0.0 else 0
            k = 0
            while True:  # widen the window until the leg ends inside it
                draws.reserve(p + 3 * w + 4)
                if n + w + 1 > cols.shape[1]:
                    old = cols.shape[1]
                    cols = _grown(cols, n + w + 1)
                    cols[0, old:] = period
                if not w:
                    break
                speed = np.fmax(trip_speed * draws.factor[p + 1:p + 1 + 3 * w:3], 1.0,
                                out=cols[1, n:n + w])
                covered = (speed * period / 3600.0).cumsum()
                k = int(covered.searchsorted(dist_km)) + 1  # fixes while covered < dist_km
                if k <= w:
                    cols[2, n + 1:n + k] = covered[:k - 1]
                    break
                w *= 2
            cols[0, n] = start
            cols[1, n + k] = 0.0  # the arrival fix, parked at b
            cols[2, n] = cols[2, n + k] = 0.0
            start = 1800.0 + 3600.0 * draws.u.item(p + 3 * k + 3)
            leg_rows.append((p, k, n, dist_km, a_lat, a_lon, b_lat, b_lon,
                             b_lat - a_lat, b_lon - a_lon))
            p += 3 * k + 4
            n += k + 1
        np.cumsum(cols[0, day:n], out=cols[0, day:n])
    table = np.array(leg_rows).reshape(-1, 10)
    track = (table[:, :3].astype(np.int64).T, table[:, 3:].T, cols[2, :n].copy(), draws.u[:p],
             profile.gps_noise_m)
    return cols[0, :n], cols[1, :n], partial(_place, track)


def _libm(fn, values: list) -> np.ndarray:
    # numpy's log, sin and cos may differ from libm's in the last bit.
    return np.fromiter(map(fn, values), float, len(values))


def _place(track: tuple, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lat and lon of `rows` (row indices of the log `_drive` made
    `track` for): each fix's spot on its leg plus one `gauss(0, sigma)` pair
    east, then north."""
    (p, k, first), (dist_km, a_lat, a_lon, b_lat, b_lon, d_lat, d_lon), covered, u, sigma = track
    leg = first.searchsorted(rows, "right") - 1
    i = rows - first[leg]
    arrival = i == k[leg]
    with np.errstate(invalid="ignore"):  # a zero-length leg's arrival divides 0 by 0
        frac = covered[rows] / dist_km[leg]
    lat = np.where(arrival, b_lat[leg], a_lat[leg] + frac * d_lat[leg])
    lon = np.where(arrival, b_lon[leg], a_lon[leg] + frac * d_lon[leg])
    g = p[leg] + 2 + 3 * i - arrival  # the pair's first draw
    x2pi = (u[g] * _TWOPI).tolist()
    g2rad = np.sqrt(-2.0 * _libm(math.log, (1.0 - u[g + 1]).tolist()))
    dx = 0.0 + _libm(math.cos, x2pi) * g2rad * sigma
    dy = 0.0 + _libm(math.sin, x2pi) * g2rad * sigma
    c = np.fmax(_libm(math.cos, (lat * _DEG).tolist()), 0.01)
    return lat + dy / 111_194.9, lon + dx / (111_194.9 * c)


def _every_fix(place, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only lat and lon columns of all `n` rows, placed BLOCK_FIXES rows at a time."""
    lat, lon = np.empty(n), np.empty(n)
    for lo in range(0, n, BLOCK_FIXES):
        hi = min(lo + BLOCK_FIXES, n)
        lat[lo:hi], lon[lo:hi] = place(np.arange(lo, hi))
    lat.flags.writeable = lon.flags.writeable = False
    return lat, lon
