import hashlib
import math
import random
import re
import statistics
import tracemalloc
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refuelopt import errors, telemetry
from refuelopt.geo import haversine_m, valid_coords
from refuelopt.roadgraph import generate_city
from refuelopt.scenario import generate_scenario_dir, load_scenarios, make_profile
from refuelopt.telemetry import (_TWOPI, END_TIMESTAMP, FIRST_TIMESTAMP, WEEKDAYS, DriverProfile,
                                 StopEvent, TripLog, TripSample, _draw_stream, _poisson,
                                 detect_halts, generate_synthetic_log, integrate_daily_distance,
                                 load_trip_log, save_trip_log, ts_to_date)

T0 = 1_736_150_400.0  # 2025-01-06 08:00 UTC


def fix(ts, lat=44.0, lon=11.0, speed=30.0):
    return TripSample(timestamp=ts, speed_kmh=speed, lat=lat, lon=lon)


def log_of(rows, message=None):
    """The TripLog of a list of TripSample rows and their message flags."""
    return TripLog(*([row[k] for row in rows] for k in range(5)), message=message)


def with_messages(fixes, message_times):
    """A log of `fixes`, none of them a message, and a fixless message row at
    each of `message_times`, sorted stably by time."""
    rows = sorted([(f, False) for f in fixes] + [(TripSample(t, 0.0), True)
                                                 for t in message_times],
                  key=lambda r: r[0].timestamp)
    return log_of([row for row, _ in rows], [m for _, m in rows])


# --- detect_halts ---------------------------------------------------------------

def test_single_gap_yields_one_halt():
    times = [T0 + i for i in range(60)] + [T0 + 360 + i for i in range(60)]
    events = detect_halts(log_of([fix(t) for t in times]), gap_threshold=120)
    assert len(events) == 1
    assert events[0].timestamp == T0 + 59


def test_continuous_messages_yield_no_halt():
    times = [T0 + i for i in range(3600)]
    assert detect_halts(with_messages([fix(T0)], times), gap_threshold=120) == []


def test_scripted_gaps_against_independent_scan():
    # gaps of 60 s, 130 s, 500 s; threshold 120 s
    times = [T0, T0 + 10]
    for gap in (60.0, 130.0, 500.0):
        times.append(times[-1] + gap)
        times.append(times[-1] + 10)
    events = detect_halts(log_of([fix(t) for t in times]), gap_threshold=120)
    expected_starts = [a for a, b in zip(times, times[1:]) if b - a > 120]
    assert [e.timestamp for e in events] == expected_starts
    assert len(events) == 2


@given(st.lists(st.floats(0.1, 400.0).filter(lambda g: abs(g - 120.0) > 1.0),
                min_size=1, max_size=30))
def test_halt_count_matches_bruteforce_gap_scan(gaps):
    times = [T0]
    for g in gaps:
        times.append(times[-1] + g)
    events = detect_halts(log_of([fix(t) for t in times]), gap_threshold=120)
    assert len(events) == sum(1 for g in gaps if g > 120)


def test_empty_trace_raises():
    # A log with no message rows, whether or not it has fixes.
    for log in (log_of([]), log_of([fix(T0), fix(T0 + 300)], message=[False, False])):
        with pytest.raises(errors.EmptyTrace, match="^the log has no messages$"):
            detect_halts(log)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trip_log_rejects_non_finite_times(bad):
    # NaN compares false, so it would slip past the order check.
    with pytest.raises(ValueError, match=f"^non-finite timestamp {bad}$"):
        TripLog([T0, bad, T0 + 1], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
def test_detect_halts_rejects_non_finite_or_non_positive_threshold(threshold):
    # A NaN threshold made every message pair a stop.
    with pytest.raises(ValueError, match="gap_threshold must be positive and finite"):
        detect_halts(log_of([fix(T0), fix(T0 + 1)]), gap_threshold=threshold)


def test_no_location_fix_raises():
    gps = with_messages([fix(T0 + 10_000)], [T0, T0 + 300])  # fix far from the gap start
    with pytest.raises(errors.NoLocationFix):
        detect_halts(gps, gap_threshold=120)


def test_halt_located_at_nearest_fix():
    gps = with_messages([fix(T0 - 30, lat=44.1), fix(T0 + 5, lat=44.2), fix(T0 + 90, lat=44.3)],
                        [T0, T0 + 300])
    events = detect_halts(gps, gap_threshold=120)
    assert events[0].lat == 44.2
    assert type(events[0].timestamp) is float  # not np.float64, whose repr differs


def full_scan_halts(rows, message, gap_threshold):
    """Reference detect_halts over TripSample rows and their message flags:
    scans every fix for every gap between message rows."""
    message_times = [row.timestamp for row, m in zip(rows, message) if m]
    if not message_times:
        raise errors.EmptyTrace("the log has no messages")
    fixes = [s for s in rows if s.lat is not None]
    events = []
    for t0, t1 in zip(message_times, message_times[1:]):
        if t1 - t0 <= gap_threshold:
            continue
        if not fixes:
            raise errors.NoLocationFix(f"no GPS fix near gap at t={t0}")
        nearest = min(fixes, key=lambda s: (abs(s.timestamp - t0), s.timestamp))
        if abs(nearest.timestamp - t0) > gap_threshold:
            raise errors.NoLocationFix(f"no GPS fix within {gap_threshold}s of gap at t={t0}")
        events.append(StopEvent(timestamp=t0, day=ts_to_date(t0),
                                lat=nearest.lat, lon=nearest.lon))
    return events


def halts_or_error(fn, *args):
    try:
        return fn(*args)
    except errors.RefuelOptError as exc:
        return type(exc), str(exc)


def test_halt_ties_go_to_the_earlier_fix():
    gps = with_messages([fix(T0 - 5, lat=44.1), fix(T0 - 5, lat=44.2), fix(T0 + 5, lat=44.3)],
                        [T0, T0 + 300])
    assert detect_halts(gps, gap_threshold=120)[0].lat == 44.1
    # 100 - 1e-20 and 100 - 2e-20 both round to 100: the earlier fix wins.
    gps = with_messages([fix(1e-20, lat=44.1), fix(2e-20, lat=44.2), fix(200.0, lat=44.3)],
                        [100.0, 400.0])
    events = detect_halts(gps, gap_threshold=120)
    assert events[0].lat == 44.1
    assert events == full_scan_halts(list(gps), gps.message.tolist(), 120)


# Small pools of timestamps so that fixes and messages share exact values;
# the float ranges include subnormals, where distances round together.
halt_times = st.one_of(st.floats(-1e4, 1e4), st.floats(T0, T0 + 1e4))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_detect_halts_matches_full_scan(data):
    # One time-sorted log; each row may have a fix and may be a message.
    pool = data.draw(st.lists(halt_times, min_size=1, max_size=6))
    stamp = st.one_of(st.sampled_from(pool), halt_times)
    drawn = sorted(data.draw(st.lists(st.tuples(stamp, st.booleans(), st.booleans()),
                                      max_size=30)), key=lambda d: d[0])
    rows = [fix(t, lat=40.0 + i / 1000) if located else TripSample(t, 0.0)
            for i, (t, located, _) in enumerate(drawn)]
    message = [m for _, _, m in drawn]
    threshold = data.draw(st.floats(0.5, 300.0))
    assert halts_or_error(detect_halts, log_of(rows, message), threshold) == \
        halts_or_error(full_scan_halts, rows, message, threshold)


def test_fixes_sharing_a_timestamp_keep_their_order():
    # Of fixes with equal timestamps the first in the log wins, and a stable
    # sort by time (as load_trip_log's) keeps the order they came in.
    gps = [fix(T0 + 10.0 * (i % 3), lat=40.0 + i / 1000) for i in range(1000)]
    for fixes, lat in ((gps, 40.0), (gps[::-1], 40.999)):
        log = with_messages(fixes, [T0 + 5.0, T0 + 300.0])  # T0 and T0 + 10 tie: T0 wins
        events = detect_halts(log, gap_threshold=120)
        assert events == full_scan_halts(list(log), log.message.tolist(), 120)
        assert [e.lat for e in events] == [lat]


def test_detect_halts_matches_full_scan_on_cohort(tmp_path):
    # The benchmark's seed-3 cohort: 9 drivers, 7 weeks each.
    config = generate_scenario_dir(str(tmp_path), seed=3, n_seeds_per_profile=3)
    for scn in load_scenarios(config):
        samples, _ = generate_synthetic_log(scn.profile, scn.observation_weeks)
        events = detect_halts(samples, scn.gap_threshold_s)
        assert events == full_scan_halts(list(samples), samples.message.tolist(),
                                         scn.gap_threshold_s)


# --- integrate_daily_distance ---------------------------------------------------

def test_constant_speed_hour():
    samples = log_of([fix(T0 + i, speed=60.0) for i in range(3601)])
    totals = integrate_daily_distance(samples)
    assert totals[date(2025, 1, 6)] == pytest.approx(60.0, rel=1e-9)


def test_zero_speed_no_distance():
    samples = log_of([fix(T0 + i, speed=0.0) for i in range(100)])
    assert integrate_daily_distance(samples)[date(2025, 1, 6)] == 0.0


def test_piecewise_profile_matches_rectangle_rule():
    # 30 km/h for 600 s then 90 km/h for 1200 s, 1 Hz sampling
    samples = [fix(T0 + i, speed=30.0) for i in range(600)]
    samples += [fix(T0 + 600 + i, speed=90.0) for i in range(1201)]
    totals = integrate_daily_distance(log_of(samples))
    expected = sum(s.speed_kmh * 1.0 / 3600.0 for s in samples[:-1])
    assert expected == pytest.approx(35.0, abs=0.05)
    assert totals[date(2025, 1, 6)] == pytest.approx(expected, rel=1e-9)


def test_negative_zero_speed_adds_up_to_zero():
    # A day's sum starts from 0.0, and 0.0 + -0.0 is 0.0.
    samples = log_of([fix(T0 + i, speed=-0.0) for i in range(3)])
    assert repr(integrate_daily_distance(samples)) == "{datetime.date(2025, 1, 6): 0.0}"


def test_dropout_pairs_contribute_nothing():
    samples = log_of([fix(T0, speed=50.0), fix(T0 + 3600, speed=50.0)])
    assert integrate_daily_distance(samples).get(date(2025, 1, 6), 0.0) == 0.0


def test_decreasing_timestamps_raise():
    # A log is in time order: equal timestamps are fine, a decrease is not.
    assert len(log_of([fix(T0), fix(T0), fix(T0 + 1)])) == 3
    with pytest.raises(ValueError, match=f"^timestamps decrease at t={T0 + 10}$"):
        log_of([fix(T0), fix(T0 + 10), fix(T0), fix(T0 - 5)])


def test_huge_speeds_add_up_to_inf():
    # A pair's km, or only the day's sum, overflows: inf, as the per-pair sum
    # gives, with no overflow warning.
    for samples in ([fix(T0, speed=1.7e308), fix(T0 + 60.0)],
                    [fix(T0 + i, speed=1.7e308) for i in range(5000)]):
        assert integrate_daily_distance(log_of(samples)) == \
            per_pair_daily_distance(samples) == {date(2025, 1, 6): math.inf}


def per_pair_daily_distance(samples):
    """Reference integrate_daily_distance (60 s dropout cut-off): derives the
    day of every pair."""
    totals = {}
    for a, b in zip(samples, samples[1:]):
        dt = b.timestamp - a.timestamp
        if dt < 0:
            raise ValueError(f"timestamps decrease at t={a.timestamp}")
        if dt > 60.0:
            continue
        day = ts_to_date(a.timestamp)
        totals[day] = totals.get(day, 0.0) + a.speed_kmh * dt / 3600.0
    return totals


MIDNIGHT = T0 + 16 * 3600.0  # 2025-01-07 00:00 UTC


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-30.0, 30.0), st.floats(0.0, 120.0)), max_size=30),
       st.integers(0, 3))
def test_daily_distance_matches_per_pair_days(steps, late):
    # Samples around midnight, one 0.4 us before it, which ts_to_date rounds
    # to the next day; moving `late` samples to the end makes the log
    # decrease, and TripLog refuses exactly those logs, as the reference does.
    assert ts_to_date(MIDNIGHT - 4e-7) == date(2025, 1, 7)
    samples = [fix(MIDNIGHT + off, speed=v)
               for off, v in sorted(steps + [(-4e-7, 50.0), (-1e-3, 40.0)])]
    samples = samples[late:] + samples[:late]

    def result(fn, samples):
        try:
            return repr(fn(samples))
        except ValueError as exc:
            return str(exc)

    assert result(lambda rows: integrate_daily_distance(log_of(rows)), samples) == \
        result(per_pair_daily_distance, samples)


LAST_TIMESTAMP = math.nextafter(END_TIMESTAMP, 0.0)


@pytest.mark.parametrize("ts", [1e20, -1e20, END_TIMESTAMP,
                                math.nextafter(FIRST_TIMESTAMP, -math.inf)])
def test_timestamps_outside_datetime_range_are_rejected(ts):
    # Such a timestamp built a sample, and daily distance or a halt's date
    # then died with datetime's OverflowError or ValueError.
    with pytest.raises((OverflowError, ValueError)):
        ts_to_date(ts)
    message = re.escape(f"timestamp {ts} outside UTC years 1-9999")
    with pytest.raises(ValueError, match=message):
        TripLog([ts], [10.0])
    with pytest.raises(ValueError, match=message):
        TripLog([T0, ts], [10.0, 10.0])


def test_daily_distance_at_the_ends_of_the_range():
    # The first and last timestamps ts_to_date converts are valid, and their
    # pairs land on the first and last days.
    assert ts_to_date(FIRST_TIMESTAMP) == date(1, 1, 1)
    assert ts_to_date(LAST_TIMESTAMP) == date(9999, 12, 31)
    samples = [TripSample(FIRST_TIMESTAMP, 36.0), TripSample(FIRST_TIMESTAMP + 10.0, 0.0),
               TripSample(LAST_TIMESTAMP - 10.0, 72.0), TripSample(LAST_TIMESTAMP, 0.0)]
    last_km = 72.0 * (LAST_TIMESTAMP - (LAST_TIMESTAMP - 10.0)) / 3600.0
    assert integrate_daily_distance(log_of(samples)) == per_pair_daily_distance(samples) == {
        date(1, 1, 1): 0.1, date(9999, 12, 31): last_km}


# --- trip-log CSV ---------------------------------------------------------------

LOG_HEADER = "timestamp,speed_kmh,lat,lon,fuel_l,can_msg\n"


def test_load_well_formed(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text(LOG_HEADER
                 + f"{T0},30.0,44.0,11.0,40.0,1\n"
                 + f"{T0 + 1},31.0,44.0,11.0,,1\n"
                 + f"{T0 + 2},32.0,,,,0\n")
    samples = load_trip_log(str(p))
    assert isinstance(samples, TripLog) and len(samples) == 3
    assert samples.message.tolist() == [True, True, False]
    assert not samples.message.flags.writeable
    assert list(samples)[2].lat is None


def test_load_sorts_shuffled_rows(tmp_path):
    # The sort is stable, and each row keeps its message flag.
    p = tmp_path / "log.csv"
    p.write_text(LOG_HEADER
                 + f"{T0 + 2},32.0,,,,1\n"
                 + f"{T0},30.0,,,,0\n"
                 + f"{T0 + 1},31.0,,,,1\n"
                 + f"{T0},29.0,,,,1\n")
    samples = load_trip_log(str(p))
    assert [(s.timestamp, s.speed_kmh) for s in samples] == [
        (T0, 30.0), (T0, 29.0), (T0 + 1, 31.0), (T0 + 2, 32.0)]
    assert samples.message.tolist() == [False, True, True, True]


def test_load_rejects_out_of_range_latitude(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text(LOG_HEADER + f"{T0},30.0,999.0,11.0,,1\n")
    with pytest.raises(errors.ParseError) as exc:
        load_trip_log(str(p))
    assert exc.value.line == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["timestamp", "fuel_l"])
def test_load_rejects_non_finite_timestamp_and_fuel(tmp_path, bad, column):
    p = tmp_path / "log.csv"
    row = {"timestamp": f"{T0 + 1}", "fuel_l": "40.0"}
    row[column] = bad
    p.write_text(LOG_HEADER
                 + f"{T0},30.0,44.0,11.0,40.0,1\n"
                 + f"{row['timestamp']},31.0,44.0,11.0,{row['fuel_l']},1\n"
                 + f"{T0 + 2},32.0,44.0,11.0,40.0,1\n")
    with pytest.raises(errors.ParseError) as exc:
        load_trip_log(str(p))
    assert exc.value.line == 3
    assert "non-finite" in str(exc.value)


def test_load_rejects_wrong_header(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("time,speed\n1,2\n")
    with pytest.raises(errors.SchemaError):
        load_trip_log(str(p))


# --- synthetic generation -------------------------------------------------------

def profile(seed=1, errand_rate=0.0, **kw):
    anchors = {
        "home": (44.600, 10.900),
        "work": (44.650, 10.960),
        "gym": (44.620, 10.880),
    }
    schedule = {d: ["home", "work", "home"] for d in ("Mon", "Tue", "Wed", "Thu", "Fri")}
    return DriverProfile(seed=seed, anchors=anchors, schedule=schedule,
                         errand_targets=["gym"], errand_rate=errand_rate, **kw)


def test_generation_is_deterministic():
    a = generate_synthetic_log(profile(), weeks=2)
    b = generate_synthetic_log(profile(), weeks=2)
    assert a == b


def test_zero_errands_give_identical_weeks():
    _, truth = generate_synthetic_log(profile(), weeks=3)
    days = sorted(truth)
    weekly = [sum(truth[d] for d in days[7 * w:7 * w + 7]) for w in range(3)]
    assert weekly[0] == pytest.approx(weekly[1], rel=1e-12)
    assert weekly[1] == pytest.approx(weekly[2], rel=1e-12)


@settings(deadline=None)
@given(st.just(None))
def test_errand_rate_shifts_mean_weekly_distance(_):
    # Monte-Carlo over seeds: errands are end-of-day round trips from home,
    # so each adds exactly 2 x dist(home, gym).
    p0 = profile()
    round_trip = 2 * haversine_m(*p0.anchors["home"], *p0.anchors["gym"]) / 1000.0
    rate = 3.0
    extras = []
    for seed in range(120):
        _, base = generate_synthetic_log(profile(seed=seed), weeks=1)
        _, more = generate_synthetic_log(profile(seed=seed, errand_rate=rate), weeks=1)
        extras.append(sum(more.values()) - sum(base.values()))
    mean_extra = statistics.mean(extras)
    assert mean_extra == pytest.approx(rate * round_trip, rel=0.25)


def test_invalid_profile_rejected():
    # Construction holds every profile check: a schedule typo reached only the
    # generator, so a cohort config with one loaded and failed every run.
    base = {"seed": 1, "anchors": {"home": (44.0, 11.0), "gym": (44.01, 11.0)},
            "schedule": {"Mon": ["home", "gym", "home"]}}
    for change, message in [
        ({"schedule": {"Mon": ["home", "nowhere"]}},
         "schedule references undefined anchor 'nowhere'"),
        ({"schedule": {"Mnday": ["home", "gym"]}}, "unknown weekday 'Mnday'"),
        ({"errand_targets": ["gym", "pool"], "errand_rate": 1.0},
         "errand target 'pool' not an anchor"),
        ({"errand_rate": 1.0}, "errand_rate > 0 but no errand_targets"),
        ({"cruise_speed_kmh": 0.0}, "cruise_speed_kmh must be > 0, got 0"),
        ({"cruise_speed_kmh": 300.5}, "cruise_speed_kmh must be finite and in [0, 300.0], "
                                      "got 300.5"),
        ({"speed_noise_pct": 1e300}, "speed_noise_pct must be finite and in [0, 400.0], "
                                     "got 1e+300"),
        ({"gps_noise_m": 5000.5}, "gps_noise_m must be finite and in [0, 5000.0], got 5000.5"),
        ({"errand_targets": ["gym"], "errand_rate": 50.5},
         "errand_rate must be finite and in [0, 50.0], got 50.5"),
        # A valid anchor 4 900 km away made a log of millions of fixes.
        ({"anchors": {"home": (44.0, 11.0), "gym": (44.01, 11.0), "far": (0.0, 10.9)}},
         "anchors 'home' and 'far' are 4892.6 km apart, more than MAX_ANCHOR_SPREAD_KM = 100.0"),
    ]:
        with pytest.raises(errors.InvalidProfile) as exc:
            DriverProfile(**(base | change))
        assert str(exc.value) == message
    # Each bound is itself valid.
    DriverProfile(**base, errand_targets=["gym"], errand_rate=50.0, speed_noise_pct=400.0,
                  gps_noise_m=5000.0, cruise_speed_kmh=300.0)
    DriverProfile(seed=1, anchors={"a": (0.0, 0.0), "b": (0.899, 0.0)}, schedule={})  # 99.97 km
    with pytest.raises(errors.InvalidProfile, match="'a' and 'b' are 100.1 km apart"):
        DriverProfile(seed=1, anchors={"a": (0.0, 0.0), "b": (0.9, 0.0)}, schedule={})


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_non_finite_errand_rate_rejected(rate):
    with pytest.raises(errors.InvalidProfile, match="errand_rate must be finite"):
        generate_synthetic_log(profile(errand_rate=rate), weeks=1)


def test_halts_cluster_at_anchors():
    samples, _ = generate_synthetic_log(profile(), weeks=2)
    events = detect_halts(samples, gap_threshold=120)
    anchors = list(profile().anchors.values())
    for ev in events:
        assert min(haversine_m(ev.lat, ev.lon, a[0], a[1]) for a in anchors) < 100


def reference_generate_synthetic_log(*args, **kwargs):
    """generate_synthetic_log with library draws and each fix checked as it
    is made: the definition the fast generator must match. A log that fails a
    check raises InvalidProfile with the check's message."""
    try:
        return reference_log(*args, **kwargs)
    except ValueError as exc:
        raise errors.InvalidProfile(str(exc)) from exc


def checked(row):
    """`row`, after checking it as a one-row TripLog."""
    TripLog(*([value] for value in row))
    return row


def reference_log(profile, weeks, sample_period_s=5.0, start_day=date(2025, 1, 6)):
    def offset_deg(lat, dx_m, dy_m):
        dlat = dy_m / 111_194.9
        dlon = dx_m / (111_194.9 * max(0.01, math.cos(math.radians(lat))))
        return dlat, dlon

    rng = random.Random(profile.seed)
    day_plans = []
    for w in range(weeks):
        week_plans = [list(profile.schedule.get(WEEKDAYS[d], [])) for d in range(7)]
        for _ in range(_poisson(rng, profile.errand_rate)):
            candidates = [i for i, seq in enumerate(week_plans) if seq]
            if not candidates:
                break
            seq = week_plans[rng.choice(candidates)]
            seq.extend([rng.choice(profile.errand_targets), seq[-1]])
        for d in range(7):
            day_plans.append((start_day + timedelta(days=7 * w + d), week_plans[d]))

    samples, truth = [], {}
    noise_frac = profile.speed_noise_pct / 100.0
    for cal_day, seq in day_plans:
        truth.setdefault(cal_day, 0.0)
        if len(seq) < 2:
            continue
        t = datetime(cal_day.year, cal_day.month, cal_day.day,
                     7, 0, 0, tzinfo=timezone.utc).timestamp()
        for a_name, b_name in zip(seq, seq[1:]):
            a = profile.anchors[a_name]
            b = profile.anchors[b_name]
            dist_km = haversine_m(a[0], a[1], b[0], b[1]) / 1000.0
            truth[cal_day] += dist_km
            trip_speed = profile.cruise_speed_kmh * (1.0 + rng.uniform(-0.1, 0.1))
            covered = 0.0
            while covered < dist_km:
                speed = max(1.0, trip_speed * (1.0 + noise_frac * rng.uniform(-1.0, 1.0)))
                frac = min(1.0, covered / dist_km) if dist_km > 0 else 1.0
                lat = a[0] + frac * (b[0] - a[0])
                lon = a[1] + frac * (b[1] - a[1])
                dlat, dlon = offset_deg(lat, rng.gauss(0.0, profile.gps_noise_m),
                                        rng.gauss(0.0, profile.gps_noise_m))
                samples.append(checked(TripSample(timestamp=t, speed_kmh=speed,
                                                  lat=lat + dlat, lon=lon + dlon)))
                covered += speed * sample_period_s / 3600.0
                t += sample_period_s
            dlat, dlon = offset_deg(b[0], rng.gauss(0.0, profile.gps_noise_m),
                                    rng.gauss(0.0, profile.gps_noise_m))
            samples.append(checked(TripSample(timestamp=t, speed_kmh=0.0,
                                              lat=b[0] + dlat, lon=b[1] + dlon)))
            t += rng.uniform(1800.0, 5400.0)
    return log_of(samples), truth


def outcome(generate, *args, **kwargs):
    """The log's repr, or the type and message of the exception raised."""
    try:
        log, truth = generate(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", repr((list(log), log.message.tolist(), truth))


# sha256 of repr((message_times, samples, truth)), pinned from the generator
# that built and checked one TripSample per fix with rng.uniform/rng.gauss.
LOG_CASES = {
    "errands": (lambda: profile(seed=7, errand_rate=3.0), 2,
                "22bf5807064eb800ffbc10ba5f1db9f4ff58b6c5e1329f679d04d09fb662a495"),
    "zero_length_leg": (lambda: DriverProfile(
        seed=2, anchors={"home": (44.6, 10.9), "work": (44.65, 10.96)},
        schedule={"Mon": ["home", "home", "work"], "Sat": ["work", "home"]}), 1,
        "1079767f529065c419f70d726b81084f61ddf90df60905e9af38855d81ec4d4f"),
    "no_gps_noise": (lambda: profile(seed=3, gps_noise_m=0), 1,
                     "75448aa70d9d03a6812fd7fc20a71808d23ce6926a8deb5557d2a07bdfe64a37"),
    "no_speed_noise": (lambda: profile(seed=4, speed_noise_pct=0), 1,
                       "03d9d6837f5e4cd2b9f5402c12037a53a5c8d945bd73c9b68571c3ac67b3d405"),
    "one_week": (lambda: profile(seed=5), 1,
                 "ddb743163d495f4fb305688a9f4d2a24d7756213826ef7c970fe244fd45a87a1"),
    "thirteen_weeks": (lambda: profile(seed=6, errand_rate=1.5), 13,
                       "e11234e1f8887b1f71ebcf2180b3acda725be53c9b18723318fe51b9e70d0410"),
    # cos(89.6 deg) < 0.01: the east offset's cos clamp is in effect.
    "near_pole": (lambda: DriverProfile(
        seed=8, anchors={"a": (89.60, 10.0), "b": (89.75, 30.0)},
        schedule={"Tue": ["a", "b", "a"], "Sun": ["b", "a"]},
        errand_targets=["b"], errand_rate=2.0), 2,
        "cfdfafb8a8a78d76b83466a55a180dc784fa40c2edb3c3aacfe2d45e3cf6105a"),
}


def log_digest(make, weeks):
    samples, truth = generate_synthetic_log(make(), weeks)
    message_times = samples.timestamp[samples.message].tolist()
    assert message_times == [s.timestamp for s in samples]
    return hashlib.sha256(repr((message_times, list(samples), truth)).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(LOG_CASES))
def test_generated_log_bytes_are_pinned(case):
    make, weeks, digest = LOG_CASES[case]
    assert log_digest(make, weeks) == digest


@pytest.mark.parametrize("guess, block", [(0, 1), (0, 10**9), (3, 7)])
def test_log_bytes_do_not_depend_on_sizes(monkeypatch, guess, block):
    # Fix-count guesses only size the buffers and the first window of each
    # leg, and blocks only batch the rows placed: guessing 0 or 3 fixes makes
    # every window widen and every buffer grow, and a block may hold one row
    # or all.
    monkeypatch.setattr(telemetry, "_fixes_at", lambda *args: guess)
    monkeypatch.setattr(telemetry, "BLOCK_FIXES", block)
    for make, weeks, digest in LOG_CASES.values():
        assert log_digest(make, weeks) == digest


def built(kwargs):
    """DriverProfile(**kwargs), or None after checking that construction
    rejects kwargs with an anchor past a pole or a non-finite cruise speed."""
    if (all(valid_coords(*a) for a in kwargs["anchors"].values())
            and 0 < kwargs["cruise_speed_kmh"] <= DriverProfile.MAX_CRUISE_SPEED_KMH):
        return DriverProfile(**kwargs)
    with pytest.raises(errors.InvalidProfile):
        DriverProfile(**kwargs)
    return None


@st.composite
def driver_profiles(draw):
    # Keyword arguments for DriverProfile. Anchors cluster around a base
    # point, so legs stay short; bases near a pole or the antimeridian let the
    # noise push fixes out of range, and some anchors past the pole.
    base_lat = draw(st.sampled_from([89.97, -89.97]) | st.floats(-89.99, 89.99))
    base_lon = draw(st.sampled_from([179.97, -179.97]) | st.floats(-179.99, 179.99))
    offset = st.floats(-0.05, 0.05)
    names = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    anchors = {n: (base_lat + draw(offset), base_lon + draw(offset)) for n in names}
    schedule = {d: draw(st.lists(st.sampled_from(names), max_size=4))
                for d in draw(st.sets(st.sampled_from(WEEKDAYS), min_size=1))}
    targets = draw(st.lists(st.sampled_from(names), max_size=3))
    return dict(
        seed=draw(st.integers(0, 2**32)), anchors=anchors, schedule=schedule,
        errand_targets=targets,
        errand_rate=draw(st.floats(0.0, 4.0)) if targets else 0.0,
        speed_noise_pct=draw(st.sampled_from([0.0, 5.0]) | st.floats(0.0, 150.0)),
        gps_noise_m=draw(st.sampled_from([0, 10]) | st.floats(0.0, 5000.0)),
        cruise_speed_kmh=draw(st.sampled_from([50.0, math.nan, math.inf])
                              | st.floats(5.0, 150.0)))


@settings(max_examples=80, deadline=None)
@given(driver_profiles(), st.integers(1, 2), st.sampled_from([5.0, 1.0, 37.5]))
def test_generator_matches_reference(kwargs, weeks, period):
    p = built(kwargs)
    if p is not None:
        assert (outcome(generate_synthetic_log, p, weeks, sample_period_s=period)
                == outcome(reference_generate_synthetic_log, p, weeks, sample_period_s=period))


@st.composite
def long_leg_profiles(draw):
    # Keyword arguments for DriverProfile: legs of up to 0.7 deg, hundreds of
    # fixes each, and speed noise past 100 %, so fix windows widen. A cruise
    # speed below 1 km/h crawls at the 1 km/h floor, so its anchors stay close;
    # a NaN or infinite one cannot be built.
    cruise = draw(st.sampled_from([math.nan, math.inf]) | st.floats(0.01, 0.99)
                  | st.floats(40.0, 150.0))
    offset = st.floats(-0.002, 0.002) if cruise < 1.0 else st.floats(-0.25, 0.25)
    base_lat, base_lon = draw(st.floats(-60.0, 60.0)), draw(st.floats(-170.0, 170.0))
    names = [f"a{i}" for i in range(draw(st.integers(2, 4)))]
    anchors = {n: (base_lat + draw(offset), base_lon + draw(offset)) for n in names}
    schedule = {d: draw(st.lists(st.sampled_from(names), min_size=2, max_size=4))
                for d in draw(st.sets(st.sampled_from(WEEKDAYS), min_size=1))}
    return dict(
        seed=draw(st.integers(0, 2**32)), anchors=anchors, schedule=schedule,
        errand_targets=names[:1], errand_rate=draw(st.floats(0.0, 3.0)),
        speed_noise_pct=draw(st.sampled_from([0.0, 5.0]) | st.floats(100.0, 400.0)),
        gps_noise_m=draw(st.sampled_from([0, 10]) | st.floats(0.0, 5000.0)),
        cruise_speed_kmh=cruise)


@settings(max_examples=15, deadline=None)
@given(long_leg_profiles(), st.integers(3, 4), st.sampled_from([5.0, 37.5]))
def test_generator_matches_reference_on_long_logs(kwargs, weeks, period):
    p = built(kwargs)
    if p is not None:
        assert (outcome(generate_synthetic_log, p, weeks, sample_period_s=period)
                == outcome(reference_generate_synthetic_log, p, weeks, sample_period_s=period))


# --- coordinates placed on demand ------------------------------------------------

def generated(kwargs, weeks, period):
    """The log of DriverProfile(**kwargs), or None if the profile or its log is rejected."""
    p = built(kwargs)
    try:
        return None if p is None else generate_synthetic_log(p, weeks, sample_period_s=period)[0]
    except errors.InvalidProfile:
        return None


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


any_profiles = driver_profiles() | long_leg_profiles()


@settings(max_examples=60, deadline=None)
@given(any_profiles, st.integers(1, 2), st.sampled_from([5.0, 1.0, 37.5]), st.data())
def test_fixes_on_demand_match_the_placed_columns(kwargs, weeks, period, data):
    # Placement is elementwise, so any subset of rows gets the bits that
    # placing every row gives them.
    log = generated(kwargs, weeks, period)
    if log is None:
        return
    subsets = st.sets(st.integers(0, len(log) - 1), max_size=60) if len(log) else st.just(())
    rows = np.array(sorted(data.draw(subsets)), dtype=np.int64)
    on_demand = tuple(map(bits, log.fixes(rows)))
    assert (log._place is not None) == telemetry._fixes_in_range(built(kwargs))
    assert on_demand == (bits(log.lat[rows]), bits(log.lon[rows]))
    assert log._place is None and log.located.all()
    assert tuple(map(bits, log.fixes(rows))) == on_demand


@settings(max_examples=60, deadline=None)
@given(any_profiles, st.integers(1, 2), st.sampled_from([5.0, 1.0, 37.5]), st.data())
def test_detect_halts_on_a_pending_log_matches_the_placed_log(kwargs, weeks, period, data):
    # Gap thresholds below the sample period make every row a gap start.
    pending = generated(kwargs, weeks, period)
    if pending is None:
        return
    gap = data.draw(st.sampled_from([period / 2, period, 120.0]) | st.floats(0.01, 7200.0))
    placed = generated(kwargs, weeks, period)
    eager = TripLog(placed.timestamp, placed.speed_kmh, placed.lat, placed.lon,
                    message=placed.message)
    was_pending = pending._place is not None
    assert halts_or_error(detect_halts, pending, gap) == halts_or_error(detect_halts, eager, gap)
    assert (pending._place is not None) == was_pending  # it placed only the halts' rows
    assert list(pending) == list(eager)


@st.composite
def bound_profiles(draw):
    # Keyword arguments for DriverProfile with an anchor just inside or just
    # outside the bound that lets a log keep its coordinates pending: near
    # a pole for the north offset, near the antimeridian for the east one.
    sigma = draw(st.sampled_from([10.0, 5000.0]) | st.floats(0.0, 5000.0))
    reach = telemetry._MAX_RADIUS * sigma / 111_194.9 + telemetry._ROUNDING_DEG
    east = draw(st.booleans())
    edge = 180.0 - reach / 0.01 if east else 90.0 - reach
    step = draw(st.sampled_from([-0.1, -1e-9, 0.0, 1e-9, 0.1, 0.4]) | st.floats(-0.5, 0.5))
    sign = draw(st.sampled_from([1.0, -1.0]))
    at = sign * min(edge + step, 180.0 if east else 90.0)
    other = at - sign * draw(st.floats(0.0, 0.05))
    spot = (lambda v: (44.6, v)) if east else (lambda v: (v, 10.9))
    anchors = {"a": spot(at), "b": spot(other)}
    return dict(seed=draw(st.integers(0, 2**32)), anchors=anchors,
                schedule={"Mon": ["a", "b", "a"], "Wed": ["b", "a", "a"]},
                errand_targets=["b"], errand_rate=draw(st.floats(0.0, 3.0)), gps_noise_m=sigma)


@settings(max_examples=40, deadline=None)
@given(bound_profiles(), st.sampled_from([5.0, 37.5]))
def test_generator_matches_reference_at_the_pending_bound(kwargs, period):
    p = DriverProfile(**kwargs)
    got = outcome(generate_synthetic_log, p, 1, sample_period_s=period)
    assert got == outcome(reference_generate_synthetic_log, p, 1, sample_period_s=period)
    if telemetry._fixes_in_range(p):
        assert got[0] == "ok"


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 2**130], ids=["0", "7", "2**40+3", "2**130"])
@pytest.mark.parametrize("words, pos", [(0, 624), (1, 1), (623, 623), (624, 624), (1300, 52)])
def test_draw_stream_continues_random(seed, words, pos):
    # The numpy generator takes over the 624 key words and the position in
    # them; 32-bit draws move that position, and setstate can put it at 0.
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    version, internal, gauss_next = rng.getstate()
    assert internal[624] == pos
    for state in ((version, internal, gauss_next), (version, internal[:624] + (0,), gauss_next)):
        rng.setstate(state)
        stream = _draw_stream(rng)
        assert stream.random(1500).tolist() == [rng.random() for _ in range(1500)]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 2**40 + 3])
def test_inlined_draws_match_the_random_library(seed):
    # The generator spells out uniform(a, b) and gauss(0, sigma) in CPython's
    # arithmetic; this fails if the library's definitions change.
    assert _TWOPI == random.TWOPI
    lib, raw = random.Random(seed), random.Random(seed)
    for sigma in (10.0, 0, 0.0, 37.5, 5000.0):
        for _ in range(40):
            assert lib.uniform(-0.1, 0.1) == -0.1 + 0.2 * raw.random()
            assert lib.uniform(-1.0, 1.0) == -1.0 + 2.0 * raw.random()
            x2pi = raw.random() * _TWOPI
            g2rad = math.sqrt(-2.0 * math.log(1.0 - raw.random()))
            assert repr(lib.gauss(0.0, sigma)) == repr(0.0 + math.cos(x2pi) * g2rad * sigma)
            assert repr(lib.gauss(0.0, sigma)) == repr(0.0 + math.sin(x2pi) * g2rad * sigma)
            assert lib.uniform(1800.0, 5400.0) == 1800.0 + 3600.0 * raw.random()
    assert lib.getstate() == raw.getstate()


HOME_WORK = {"home": (44.6, 10.9), "work": (44.65, 10.96)}
ROUND_TRIP = {"Mon": ["home", "work", "home"]}
INVALID = errors.InvalidProfile


@pytest.mark.parametrize("kwargs, expected", [
    # Anchors past a pole or whose leg overflows, and non-finite cruise speeds,
    # reached the generator's error paths; construction now rejects them.
    ({"anchors": {**HOME_WORK, "far": (95.0, 10.9)}, "schedule": {"Mon": ["home", "far"]}},
     (INVALID, "anchor 'far' has invalid coordinates (95.0, 10.9)")),
    ({"anchors": {**HOME_WORK, "far": (95.0, 10.9), "bad": (math.inf, 1.0)},
      "schedule": {"Mon": ["home", "far"], "Tue": ["home", "bad"]}},
     (INVALID, "anchor 'far' has invalid coordinates (95.0, 10.9)")),
    ({"anchors": HOME_WORK, "schedule": ROUND_TRIP, "cruise_speed_kmh": math.inf},
     (INVALID, "cruise_speed_kmh must be finite and in [0, 300.0], got inf")),
    ({"anchors": HOME_WORK, "schedule": ROUND_TRIP, "cruise_speed_kmh": math.nan},
     (INVALID, "cruise_speed_kmh must be finite and in [0, 300.0], got nan")),
    ({"anchors": {"a": (-1e308, 10.0), "b": (1e308, 10.0)}, "schedule": {"Mon": ["a", "b"]}},
     (INVALID, "anchor 'a' has invalid coordinates (-1e+308, 10.0)")),
    # Valid anchors near the pole: GPS noise pushes a fix past it.
    ({"anchors": {"home": (89.9999, 10.0), "work": (89.99, 10.5)}, "schedule": ROUND_TRIP,
      "gps_noise_m": 5000.0},
     (INVALID, "invalid coordinates (90.01967768663395, 3.826531659683071)")),
    # Below 1 km/h the generator crawls at the 1 km/h floor.
    ({"anchors": {"home": (44.6, 10.9), "work": (44.602, 10.903)}, "schedule": ROUND_TRIP,
      "cruise_speed_kmh": 0.5}, "ok"),
    # About 20 errands a day run Monday past Tuesday's 07:00 start: the
    # log's last Monday row, at Tuesday 16:54, comes before Tuesday's first.
    ({"anchors": HOME_WORK, "schedule": {**ROUND_TRIP, "Tue": ["home", "work", "home"]},
      "errand_targets": ["work"], "errand_rate": 40.0},
     (INVALID, "timestamps decrease at t=1736268899.2856607")),
], ids=["out_of_range", "out_of_range_then_inf", "inf_cruise", "nan_cruise", "overflowing_leg",
        "near_pole_noise", "crawl", "crowded_days"])
def test_generator_error_paths_match_reference(kwargs, expected):
    try:
        p = DriverProfile(seed=1, **kwargs)
    except INVALID as exc:
        assert (INVALID, str(exc)) == expected
        return
    got = outcome(generate_synthetic_log, p, 1)
    assert got == outcome(reference_generate_synthetic_log, p, 1)
    assert (got[0] if expected == "ok" else got) == expected


def test_generation_memory_stays_bounded():
    # The log's buffers add to the benchmark's peak RSS, which has a 5 %
    # bound. 20 weeks of this profile make 21.5 k fixes, about as many as the
    # largest metro_sweep driver, whose log peaked at 3.76 MB when its fixes
    # were appended to lists one at a time; this one peaks at about 2.5 MB.
    generate_synthetic_log(profile(seed=9), weeks=1)
    tracemalloc.start()
    try:
        samples, _ = generate_synthetic_log(profile(seed=9), weeks=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) > 20_000
    assert peak <= 3.0e6


def test_daily_distance_memory_stays_bounded():
    # The metro_sweep errand_runner_0 log: 20 817 fixes. Its row-sized
    # temporaries peaked at 1.52 MB, about nine columns; now about 0.7 MB.
    profile = make_profile("errand_runner", 3000, generate_city(3, 40, 40))
    samples, _ = generate_synthetic_log(profile, 4)
    assert len(samples) == 20_817
    tracemalloc.start()
    try:
        integrate_daily_distance(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


def test_generator_rejects_non_positive_period():
    # A tiny positive period made a leg's fix window double until memory ran out.
    for period in (0.0, -5.0, math.nan, 0.5, 1e-300):
        with pytest.raises(ValueError, match="sample_period_s"):
            generate_synthetic_log(profile(), weeks=1, sample_period_s=period)


# --- TripSample -----------------------------------------------------------------

def test_trip_sample_contract():
    s = TripSample(1.5, 30.0, 44.0, 11.0)
    assert s == TripSample(timestamp=1.5, speed_kmh=30.0, lat=44.0, lon=11.0)
    assert hash(s) == hash(TripSample(timestamp=1.5, speed_kmh=30.0, lat=44.0, lon=11.0))
    assert repr(s) == "TripSample(timestamp=1.5, speed_kmh=30.0, lat=44.0, lon=11.0, fuel_l=None)"
    assert repr(TripSample(2.0, 0.0, fuel_l=7.5)) == (
        "TripSample(timestamp=2.0, speed_kmh=0.0, lat=None, lon=None, fuel_l=7.5)")
    bare = TripSample(2.0, 0.0)
    assert (bare.timestamp, bare.speed_kmh, bare.lat, bare.lon, bare.fuel_l) == (
        2.0, 0.0, None, None, None)
    assert s == (1.5, 30.0, 44.0, 11.0, None)  # a tuple now
    for name in ("timestamp", "speed_kmh", "lat", "lon", "fuel_l", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0.0)


# Changes that make a valid sample break the rule, and the message naming it.
TRIP_SAMPLE_ERRORS = [
    ({"speed_kmh": math.nan}, "invalid speed nan"),
    ({"speed_kmh": math.inf}, "invalid speed inf"),
    ({"speed_kmh": -1.0}, "invalid speed -1.0"),
    ({"lat": 44.0}, "lat and lon must be given together"),
    ({"lon": 11.0}, "lat and lon must be given together"),
    ({"lat": 91.0, "lon": 0.0}, "invalid coordinates (91.0, 0.0)"),
    ({"lat": 0.0, "lon": math.nan}, "invalid coordinates (0.0, nan)"),
    ({"fuel_l": -2.0}, "invalid fuel level -2.0"),
    ({"timestamp": math.nan}, "non-finite timestamp nan"),
    ({"timestamp": -math.inf}, "non-finite timestamp -inf"),
    # A given fuel level must be finite too, so save_trip_log never writes a
    # log that load_trip_log refuses.
    ({"fuel_l": math.nan}, "non-finite fuel level nan"),
    ({"fuel_l": math.inf}, "non-finite fuel level inf"),
    ({"fuel_l": -math.inf}, "non-finite fuel level -inf"),
]

VALID_ROW = {"timestamp": 0.0, "speed_kmh": 10.0, "lat": 44.0, "lon": 11.0, "fuel_l": 40.0}


@pytest.mark.parametrize("kwargs, message", TRIP_SAMPLE_ERRORS)
def test_trip_sample_validation_messages(tmp_path, kwargs, message):
    # load_trip_log checks each row with the log's rule as it reads it: the
    # first bad row in the file is reported, with its line number, before a
    # later row that cannot even be parsed.
    row = {"timestamp": 1.0, "speed_kmh": 10.0} | kwargs
    fields = ["" if row.get(name) is None else repr(row[name]) for name in TripSample._fields]
    p = tmp_path / "log.csv"
    p.write_text(LOG_HEADER + "0.0,10.0,44.0,11.0,40.0,1\n"
                 + ",".join(fields) + ",1\n" + "2.0,10.0,,,,2\n")
    with pytest.raises(errors.ParseError) as exc:
        load_trip_log(str(p))
    assert (exc.value.line, str(exc.value)) == (3, f"line 3: {message}")


# --- TripLog --------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", TRIP_SAMPLE_ERRORS)
def test_trip_log_reports_the_first_invalid_row(kwargs, message):
    rows = [VALID_ROW,
            {"timestamp": 1.0, "speed_kmh": 10.0} | kwargs,
            {"timestamp": 2.0, "speed_kmh": -5.0}]
    with pytest.raises(ValueError) as exc:
        TripLog(*([row.get(name) for row in rows] for name in TripSample._fields))
    assert str(exc.value) == message


trip_rows = st.builds(
    lambda t, speed, where, fuel: TripSample(t, speed, *where, fuel),
    st.floats(FIRST_TIMESTAMP, END_TIMESTAMP, exclude_max=True),
    st.sampled_from([0.0, -0.0]) | st.floats(0.0, 300.0),
    st.just((None, None)) | st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
    st.none() | st.sampled_from([0.0, -0.0]) | st.floats(0.0, 80.0))


def test_the_row_rule_wins_over_order():
    # A log with a bad row and a decreasing pair names the bad row's check,
    # whether the bad row comes before, inside or after the decrease.
    for speeds in ([-1.0, 10.0, 10.0, 10.0], [10.0, 10.0, -1.0, 10.0],
                   [10.0, 10.0, 10.0, -1.0]):
        with pytest.raises(ValueError, match=r"^invalid speed -1\.0$"):
            TripLog([T0, T0 + 10, T0, T0 + 20], speeds)
    with pytest.raises(ValueError, match="^lat and lon must be given together$"):
        TripLog([T0 + 10, T0], [10.0, 10.0], lat=[None, 44.0])


sorted_rows = st.lists(st.tuples(trip_rows, st.booleans()), max_size=20).map(
    lambda drawn: sorted(drawn, key=lambda d: d[0].timestamp))


@given(sorted_rows)
def test_trip_log_round_trip_is_exact(drawn):
    # repr tells -0.0 from 0.0, NaN from None and float from np.float64.
    rows, message = [row for row, _ in drawn], [m for _, m in drawn]
    log = log_of(rows, message)
    assert len(log) == len(rows)
    assert repr(list(log)) == repr(rows)
    assert log.message.tolist() == message
    assert log == log_of(list(log), log.message)
    assert log_of(rows) == log_of(rows, [True] * len(rows))
    if rows:
        assert log != log_of(rows[1:], message[1:])
        assert log != log_of(rows, [not m for m in message])
    with pytest.raises(ValueError, match="^trip log columns differ in length$"):
        log_of(rows, message + [True])


# Saving a message at T0 + 0.5 without a fix, over fixes at T0, T0 and T0 + 1,
# once lost it: the message column came from the fixes' timestamps.
FOUND = [(fix(T0), True), (fix(T0, lat=44.1), False), (TripSample(T0 + 0.5, 0.0), True),
         (fix(T0 + 1.0), False)]


@settings(deadline=None)
@given(sorted_rows,
       st.none() | st.tuples(st.integers(0, 19), st.sampled_from([math.nan, math.inf,
                                                                  -math.inf])))
@example(drawn=FOUND, bad_fuel=None)
def test_save_load_round_trip(tmp_path_factory, drawn, bad_fuel):
    # Every log TripLog accepts, message flags included, comes back from
    # save -> load equal, with exact row reprs (-0.0 stays -0.0, None stays
    # None). A non-finite fuel level is refused when the log is built.
    rows, message = [row for row, _ in drawn], [m for _, m in drawn]
    columns = [[row[k] for row in rows] for k in range(5)]
    if bad_fuel is not None and bad_fuel[0] < len(rows):
        columns[4][bad_fuel[0]] = bad_fuel[1]
        with pytest.raises(ValueError, match=f"^non-finite fuel level {bad_fuel[1]}$"):
            TripLog(*columns)
        return
    log = TripLog(*columns, message=message)
    path = str(tmp_path_factory.getbasetemp() / "round_trip.csv")
    save_trip_log(path, log)
    loaded = load_trip_log(path)
    assert loaded == log
    assert repr(list(loaded)) == repr(rows)
    assert loaded.message.tolist() == message
    if drawn is FOUND:
        assert loaded.timestamp[loaded.message].tolist() == [T0, T0 + 0.5]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_log_and_its_rows_agree(data):
    pool = data.draw(st.lists(halt_times, min_size=1, max_size=6))
    stamp = st.one_of(st.sampled_from(pool), halt_times)
    speed = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 120.0)
    drawn = sorted(data.draw(st.lists(st.tuples(stamp, speed, st.booleans(), st.booleans()),
                                      max_size=25)), key=lambda d: d[0])
    rows = [fix(t, lat=40.0 + i / 1000, speed=v) if located else TripSample(t, v)
            for i, (t, v, located, _) in enumerate(drawn)]
    message = [m for *_, m in drawn]
    log = log_of(rows, message)
    threshold = data.draw(st.floats(0.5, 300.0))
    assert halts_or_error(detect_halts, log, threshold) == \
        halts_or_error(full_scan_halts, rows, message, threshold)
    assert repr(integrate_daily_distance(log)) == repr(per_pair_daily_distance(rows))


def test_daily_distance_matches_per_pair_days_on_cohort(tmp_path):
    config = generate_scenario_dir(str(tmp_path), seed=3, n_seeds_per_profile=1)
    for scn in load_scenarios(config):
        samples, _ = generate_synthetic_log(scn.profile, scn.observation_weeks)
        assert repr(integrate_daily_distance(samples)) == \
            repr(per_pair_daily_distance(list(samples)))
