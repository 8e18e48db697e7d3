import hashlib
import math
import random
import statistics
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from refuelopt import errors
from refuelopt.geo import haversine_m
from refuelopt.scenario import OBSERVATION_START, generate_scenario_dir, load_scenarios
from refuelopt.telemetry import (_TWOPI, WEEKDAYS, CanTrace, DriverProfile, StopEvent,
                                 TripSample, _poisson, detect_halts,
                                 generate_synthetic_log, integrate_daily_distance,
                                 load_trip_log, save_trip_log, ts_to_date)

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


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_non_finite_errand_rate_rejected(rate):
    with pytest.raises(errors.InvalidProfile, match="errand_rate must be finite"):
        generate_synthetic_log(profile(errand_rate=rate), weeks=1)


def test_halts_cluster_at_anchors():
    trace, samples, _ = generate_synthetic_log(profile(), weeks=2)
    events = detect_halts(trace, samples, gap_threshold=120)
    anchors = list(profile().anchors.values())
    for ev in events:
        assert min(haversine_m(ev.lat, ev.lon, a[0], a[1]) for a in anchors) < 100


def reference_generate_synthetic_log(profile, weeks, sample_period_s=5.0,
                                     start_day=date(2025, 1, 6)):
    """generate_synthetic_log with library draws and one validated TripSample
    per fix: the definition the fast generator must match (valid profiles only)."""
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

    samples, message_times, truth = [], [], {}
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
                samples.append(TripSample(timestamp=t, speed_kmh=speed,
                                          lat=lat + dlat, lon=lon + dlon))
                message_times.append(t)
                covered += speed * sample_period_s / 3600.0
                t += sample_period_s
            dlat, dlon = offset_deg(b[0], rng.gauss(0.0, profile.gps_noise_m),
                                    rng.gauss(0.0, profile.gps_noise_m))
            samples.append(TripSample(timestamp=t, speed_kmh=0.0,
                                      lat=b[0] + dlat, lon=b[1] + dlon))
            message_times.append(t)
            t += rng.uniform(1800.0, 5400.0)
    return CanTrace(message_times=message_times), samples, truth


def outcome(generate, *args, **kwargs):
    """The log's repr, or the type and message of the exception raised."""
    try:
        trace, samples, truth = generate(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", repr((trace.message_times, samples, truth))


# sha256 of repr((message_times, samples, truth)), pinned from the generator
# that built one validated TripSample per fix with rng.uniform/rng.gauss.
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


@pytest.mark.parametrize("case", sorted(LOG_CASES))
def test_generated_log_bytes_are_pinned(case):
    make, weeks, digest = LOG_CASES[case]
    trace, samples, truth = generate_synthetic_log(make(), weeks)
    assert trace.message_times == [s.timestamp for s in samples]
    assert hashlib.sha256(repr((trace.message_times, samples, truth)).encode()).hexdigest() == digest


@st.composite
def driver_profiles(draw):
    # Anchors cluster around a base point, so legs stay short; bases near a
    # pole or the antimeridian let the noise push fixes out of range.
    base_lat = draw(st.sampled_from([89.97, -89.97]) | st.floats(-89.99, 89.99))
    base_lon = draw(st.sampled_from([179.97, -179.97]) | st.floats(-179.99, 179.99))
    offset = st.floats(-0.05, 0.05)
    names = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    anchors = {n: (base_lat + draw(offset), base_lon + draw(offset)) for n in names}
    schedule = {d: draw(st.lists(st.sampled_from(names), max_size=4))
                for d in draw(st.sets(st.sampled_from(WEEKDAYS), min_size=1))}
    targets = draw(st.lists(st.sampled_from(names), max_size=3))
    return DriverProfile(
        seed=draw(st.integers(0, 2**32)), anchors=anchors, schedule=schedule,
        errand_targets=targets,
        errand_rate=draw(st.floats(0.0, 4.0)) if targets else 0.0,
        speed_noise_pct=draw(st.sampled_from([0.0, 5.0]) | st.floats(0.0, 150.0)),
        gps_noise_m=draw(st.sampled_from([0, 10]) | st.floats(0.0, 5000.0)),
        cruise_speed_kmh=draw(st.sampled_from([50.0, math.nan, math.inf])
                              | st.floats(5.0, 150.0)))


@settings(max_examples=80, deadline=None)
@given(driver_profiles(), st.integers(1, 2), st.sampled_from([5.0, 1.0, 37.5]))
def test_generator_matches_reference(p, weeks, period):
    assert (outcome(generate_synthetic_log, p, weeks, sample_period_s=period)
            == outcome(reference_generate_synthetic_log, p, weeks, sample_period_s=period))


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


@pytest.mark.parametrize("anchors, schedule, cruise, expected", [
    # A leg that ends past the pole: its first fix is out of range.
    ({**HOME_WORK, "far": (95.0, 10.9)}, {"Mon": ["home", "far"]}, 50.0,
     (ValueError, "invalid coordinates (90.0004625053669, 10.90261347029511)")),
    # The same, with a later leg whose anchor makes haversine_m fail: the
    # invalid fix comes first, so its error is the one raised.
    ({**HOME_WORK, "far": (95.0, 10.9), "bad": (math.inf, 1.0)},
     {"Mon": ["home", "far"], "Tue": ["home", "bad"]}, 50.0,
     (ValueError, "invalid coordinates (90.0004625053669, 10.90261347029511)")),
    (HOME_WORK, {"Mon": ["home", "work", "home"]}, math.inf,
     (ValueError, "invalid speed inf")),
    # max(1.0, nan) is 1.0: a NaN cruise speed yields 1 km/h, not an error.
    (HOME_WORK, {"Mon": ["home", "work", "home"]}, math.nan, "ok"),
], ids=["out_of_range", "out_of_range_then_inf", "inf_cruise", "nan_cruise"])
def test_generator_error_paths_match_reference(anchors, schedule, cruise, expected):
    p = DriverProfile(seed=1, anchors=anchors, schedule=schedule, cruise_speed_kmh=cruise)
    got = outcome(generate_synthetic_log, p, 1)
    assert got == outcome(reference_generate_synthetic_log, p, 1)
    if expected == "ok":
        assert got[0] == "ok"
    else:
        assert got == expected


def test_generator_rejects_non_positive_period():
    for period in (0.0, -5.0, math.nan):
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
    with pytest.raises(ValueError, match="invalid speed -1.0"):
        s._replace(speed_kmh=-1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"speed_kmh": math.nan}, "invalid speed nan"),
    ({"speed_kmh": math.inf}, "invalid speed inf"),
    ({"speed_kmh": -1.0}, "invalid speed -1.0"),
    ({"lat": 44.0}, "lat and lon must be given together"),
    ({"lon": 11.0}, "lat and lon must be given together"),
    ({"lat": 91.0, "lon": 0.0}, "invalid coordinates (91.0, 0.0)"),
    ({"lat": 0.0, "lon": math.nan}, "invalid coordinates (0.0, nan)"),
    ({"fuel_l": -2.0}, "invalid fuel level -2.0"),
])
def test_trip_sample_validation_messages(kwargs, message):
    with pytest.raises(ValueError) as exc:
        TripSample(**({"timestamp": 0.0, "speed_kmh": 10.0} | kwargs))
    assert str(exc.value) == message
