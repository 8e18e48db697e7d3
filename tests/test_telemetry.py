import statistics
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from refuelopt import errors
from refuelopt.geo import haversine_m
from refuelopt.scenario import OBSERVATION_START, generate_scenario_dir, load_scenarios
from refuelopt.telemetry import (CanTrace, DriverProfile, StopEvent, TripSample,
                                 detect_halts, generate_synthetic_log,
                                 integrate_daily_distance, load_trip_log,
                                 save_trip_log, ts_to_date)

T0 = 1_736_150_400.0  # 2025-01-06 08:00 UTC


def fix(ts, lat=44.0, lon=11.0, speed=30.0):
    return TripSample(timestamp=ts, speed_kmh=speed, lat=lat, lon=lon)


# --- detect_halts ---------------------------------------------------------------

def test_single_gap_yields_one_halt():
    times = [T0 + i for i in range(60)] + [T0 + 360 + i for i in range(60)]
    gps = [fix(t) for t in times]
    events = detect_halts(CanTrace(times), gps, gap_threshold=120)
    assert len(events) == 1
    assert events[0].timestamp == T0 + 59


def test_continuous_messages_yield_no_halt():
    times = [T0 + i for i in range(3600)]
    assert detect_halts(CanTrace(times), [fix(T0)], gap_threshold=120) == []


def test_scripted_gaps_against_independent_scan():
    # gaps of 60 s, 130 s, 500 s; threshold 120 s
    times = [T0, T0 + 10]
    for gap in (60.0, 130.0, 500.0):
        times.append(times[-1] + gap)
        times.append(times[-1] + 10)
    gps = [fix(t) for t in times]
    events = detect_halts(CanTrace(times), gps, gap_threshold=120)
    expected_starts = [a for a, b in zip(times, times[1:]) if b - a > 120]
    assert [e.timestamp for e in events] == expected_starts
    assert len(events) == 2


@given(st.lists(st.floats(0.1, 400.0).filter(lambda g: abs(g - 120.0) > 1.0),
                min_size=1, max_size=30))
def test_halt_count_matches_bruteforce_gap_scan(gaps):
    times = [T0]
    for g in gaps:
        times.append(times[-1] + g)
    gps = [fix(t) for t in times]
    events = detect_halts(CanTrace(times), gps, gap_threshold=120)
    assert len(events) == sum(1 for g in gaps if g > 120)


def test_empty_trace_raises():
    with pytest.raises(errors.EmptyTrace):
        detect_halts(CanTrace([]), [fix(T0)])


def test_no_location_fix_raises():
    times = [T0, T0 + 300]
    gps = [fix(T0 + 10_000)]  # far from the gap start
    with pytest.raises(errors.NoLocationFix):
        detect_halts(CanTrace(times), gps, gap_threshold=120)


def test_halt_located_at_nearest_fix():
    times = [T0, T0 + 300]
    gps = [fix(T0 - 30, lat=44.1), fix(T0 + 5, lat=44.2), fix(T0 + 90, lat=44.3)]
    events = detect_halts(CanTrace(times), gps, gap_threshold=120)
    assert events[0].lat == 44.2


def full_scan_halts(trace, gps, gap_threshold):
    """Reference detect_halts: scans every fix for every gap."""
    if not trace.message_times:
        raise errors.EmptyTrace("trace has no messages")
    fixes = [s for s in gps if s.lat is not None]
    events = []
    for t0, t1 in zip(trace.message_times, trace.message_times[1:]):
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


def halts_or_error(fn, trace, gps, gap_threshold):
    try:
        return fn(trace, gps, gap_threshold)
    except errors.RefuelOptError as exc:
        return type(exc), str(exc)


def test_halt_ties_go_to_the_earlier_fix():
    times = [T0, T0 + 300]
    gps = [fix(T0 + 5, lat=44.3), fix(T0 - 5, lat=44.1), fix(T0 - 5, lat=44.2)]
    assert detect_halts(CanTrace(times), gps, gap_threshold=120)[0].lat == 44.1
    # 100 - 1e-20 and 100 - 2e-20 both round to 100: the earlier fix wins.
    gps = [fix(2e-20, lat=44.2), fix(1e-20, lat=44.1), fix(200.0, lat=44.3)]
    events = detect_halts(CanTrace([100.0, 400.0]), gps, gap_threshold=120)
    assert events[0].lat == 44.1
    assert events == full_scan_halts(CanTrace([100.0, 400.0]), gps, 120)


# Small pools of timestamps so that fixes and messages share exact values;
# the float ranges include subnormals, where distances round together.
halt_times = st.one_of(st.floats(-1e4, 1e4), st.floats(T0, T0 + 1e4))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_detect_halts_matches_full_scan(data):
    pool = data.draw(st.lists(halt_times, min_size=1, max_size=6))
    stamp = st.one_of(st.sampled_from(pool), halt_times)
    drawn = data.draw(st.lists(st.tuples(stamp, st.booleans()), max_size=25))
    gps = [fix(t, lat=40.0 + i / 1000) if located else TripSample(t, 0.0)
           for i, (t, located) in enumerate(drawn)]
    trace = CanTrace(sorted(data.draw(st.lists(stamp, max_size=12))))
    threshold = data.draw(st.floats(0.5, 300.0))
    assert halts_or_error(detect_halts, trace, gps, threshold) == \
        halts_or_error(full_scan_halts, trace, gps, threshold)


def test_detect_halts_matches_full_scan_on_cohort(tmp_path):
    # The benchmark's seed-3 cohort: 9 drivers, 7 weeks each.
    config = generate_scenario_dir(str(tmp_path), seed=3, n_seeds_per_profile=3)
    for scn in load_scenarios(config):
        trace, samples, _ = generate_synthetic_log(scn.profile, scn.observation_weeks,
                                                   start_day=OBSERVATION_START)
        events = detect_halts(trace, samples, scn.gap_threshold_s)
        assert events == full_scan_halts(trace, samples, scn.gap_threshold_s)
        assert detect_halts(trace, samples[::-1], scn.gap_threshold_s) == events


# --- integrate_daily_distance ---------------------------------------------------

def test_constant_speed_hour():
    samples = [fix(T0 + i, speed=60.0) for i in range(3601)]
    totals = integrate_daily_distance(samples)
    assert totals[date(2025, 1, 6)] == pytest.approx(60.0, rel=1e-9)


def test_zero_speed_no_distance():
    samples = [fix(T0 + i, speed=0.0) for i in range(100)]
    assert integrate_daily_distance(samples)[date(2025, 1, 6)] == 0.0


def test_piecewise_profile_matches_rectangle_rule():
    # 30 km/h for 600 s then 90 km/h for 1200 s, 1 Hz sampling
    samples = [fix(T0 + i, speed=30.0) for i in range(600)]
    samples += [fix(T0 + 600 + i, speed=90.0) for i in range(1201)]
    totals = integrate_daily_distance(samples)
    expected = sum(s.speed_kmh * 1.0 / 3600.0 for s in samples[:-1])
    assert expected == pytest.approx(35.0, abs=0.05)
    assert totals[date(2025, 1, 6)] == pytest.approx(expected, rel=1e-9)


def test_dropout_pairs_contribute_nothing():
    samples = [fix(T0, speed=50.0), fix(T0 + 3600, speed=50.0)]
    assert integrate_daily_distance(samples).get(date(2025, 1, 6), 0.0) == 0.0


def test_decreasing_timestamps_raise():
    with pytest.raises(errors.NegativeInterval):
        integrate_daily_distance([fix(T0 + 10), fix(T0)])


def per_pair_daily_distance(samples, gap_cutoff_s=60.0):
    """Reference integrate_daily_distance: derives the day of every pair."""
    totals = {}
    for a, b in zip(samples, samples[1:]):
        dt = b.timestamp - a.timestamp
        if dt < 0:
            raise errors.NegativeInterval(f"timestamps decrease at t={a.timestamp}")
        if dt > gap_cutoff_s:
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
    # to the next day; moving `late` samples to the end makes the log decrease.
    assert ts_to_date(MIDNIGHT - 4e-7) == date(2025, 1, 7)
    samples = [fix(MIDNIGHT + off, speed=v)
               for off, v in sorted(steps + [(-4e-7, 50.0), (-1e-3, 40.0)])]
    samples = samples[late:] + samples[:late]

    def result(fn):
        try:
            return fn(samples)
        except errors.NegativeInterval as exc:
            return str(exc)

    assert repr(result(integrate_daily_distance)) == repr(result(per_pair_daily_distance))


# --- trip-log CSV ---------------------------------------------------------------

LOG_HEADER = "timestamp,speed_kmh,lat,lon,fuel_l,can_msg\n"


def test_load_well_formed(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text(LOG_HEADER
                 + f"{T0},30.0,44.0,11.0,40.0,1\n"
                 + f"{T0 + 1},31.0,44.0,11.0,,1\n"
                 + f"{T0 + 2},32.0,,,,0\n")
    trace, samples = load_trip_log(str(p))
    assert len(samples) == 3
    assert trace.message_times == [T0, T0 + 1]
    assert samples[2].lat is None


def test_load_sorts_shuffled_rows(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text(LOG_HEADER
                 + f"{T0 + 2},32.0,,,,1\n"
                 + f"{T0},30.0,,,,1\n"
                 + f"{T0 + 1},31.0,,,,1\n")
    trace, samples = load_trip_log(str(p))
    assert [s.timestamp for s in samples] == [T0, T0 + 1, T0 + 2]
    assert trace.message_times == [T0, T0 + 1, T0 + 2]


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


def test_save_load_round_trip(tmp_path):
    samples = [fix(T0 + i, speed=20.0 + i) for i in range(5)]
    trace = CanTrace([s.timestamp for s in samples[:3]])
    p = tmp_path / "log.csv"
    save_trip_log(str(p), trace, samples)
    trace2, samples2 = load_trip_log(str(p))
    assert trace2 == trace
    assert samples2 == samples


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
    _, _, truth = generate_synthetic_log(profile(), weeks=3)
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
        _, _, base = generate_synthetic_log(profile(seed=seed), weeks=1)
        _, _, more = generate_synthetic_log(profile(seed=seed, errand_rate=rate), weeks=1)
        extras.append(sum(more.values()) - sum(base.values()))
    mean_extra = statistics.mean(extras)
    assert mean_extra == pytest.approx(rate * round_trip, rel=0.25)


def test_invalid_profile_rejected():
    bad = DriverProfile(seed=1, anchors={"home": (44.0, 11.0)},
                        schedule={"Mon": ["home", "nowhere"]})
    with pytest.raises(errors.InvalidProfile):
        generate_synthetic_log(bad, weeks=1)


def test_halts_cluster_at_anchors():
    trace, samples, _ = generate_synthetic_log(profile(), weeks=2)
    events = detect_halts(trace, samples, gap_threshold=120)
    anchors = list(profile().anchors.values())
    for ev in events:
        assert min(haversine_m(ev.lat, ev.lon, a[0], a[1]) for a in anchors) < 100
