from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from refuelopt import errors
from refuelopt.stations import (STALE_AFTER_DAYS, STATIONS_HEADER, PriceHistory,
                                WeeklyPriceForecast, cheapest_day, forecast_week,
                                load_stations, save_stations)
from refuelopt.telemetry import WEEKDAYS

MONDAY = date(2025, 1, 6)
HEADER = ",".join(STATIONS_HEADER) + "\n"


def row(sid, price, observed, lat=44.65, lon=10.92, brand="AcmeFuel", fuel="diesel"):
    return f"{sid},{lat},{lon},{brand},{fuel},{price},{observed.isoformat()}\n"


def history(obs):
    """obs: (station_id, fuel) -> list of (date, price)."""
    return PriceHistory(series={k: tuple(sorted(v)) for k, v in obs.items()})


# --- loading --------------------------------------------------------------------

def test_load_groups_observations_per_station(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text(HEADER
                 + row("S1", 1.80, MONDAY)
                 + row("S1", 1.78, MONDAY + timedelta(days=1))
                 + row("S2", 1.85, MONDAY, lat=44.66))
    stations, hist = load_stations(str(p))
    assert sorted(s.station_id for s in stations) == ["S1", "S2"]
    s1 = next(s for s in stations if s.station_id == "S1")
    assert hist.series[(s1.station_id, "diesel")][-1] == (MONDAY + timedelta(days=1), 1.78)
    assert hist.series[("S1", "diesel")] == ((MONDAY, 1.80),
                                             (MONDAY + timedelta(days=1), 1.78))


def test_load_rejects_identity_conflict(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text(HEADER + row("S1", 1.80, MONDAY)
                 + row("S1", 1.78, MONDAY + timedelta(days=1), lat=45.0))
    with pytest.raises(errors.DuplicateId):
        load_stations(str(p))


def test_load_rejects_duplicate_observation(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text(HEADER + row("S1", 1.80, MONDAY) + row("S1", 1.81, MONDAY))
    with pytest.raises(errors.DuplicateId):
        load_stations(str(p))
    # The same day under another fuel or station is no duplicate; a repeat
    # far down a long series is.
    days = [MONDAY + timedelta(days=k) for k in range(400)]
    rows = "".join(row("S1", 1.80, d) + row("S1", 1.70, d, fuel="petrol")
                   + row("S2", 1.90, d, lat=44.66) for d in days)
    p.write_text(HEADER + rows)
    assert len(load_stations(str(p))[1].series[("S1", "petrol")]) == 400
    p.write_text(HEADER + rows + row("S1", 1.79, days[123], fuel="petrol"))
    with pytest.raises(errors.DuplicateId,
                       match=r"^duplicate observation for S1/petrol on 2025-05-09$"):
        load_stations(str(p))


def test_load_rejects_nonpositive_price_and_bad_date(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text(HEADER + row("S1", -1.0, MONDAY))
    with pytest.raises(errors.ParseError):
        load_stations(str(p))
    p.write_text(HEADER + "S1,44.65,10.92,AcmeFuel,diesel,1.80,not-a-date\n")
    with pytest.raises(errors.ParseError):
        load_stations(str(p))


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text("nope\n")
    with pytest.raises(errors.SchemaError):
        load_stations(str(p))


def test_save_load_save_is_byte_identical(tmp_path):
    p1 = tmp_path / "s1.csv"
    p1.write_text(HEADER
                  + row("S1", 1.80, MONDAY)
                  + row("S1", 1.78, MONDAY + timedelta(days=1))
                  + row("S2", 1.85, MONDAY, lat=44.66, fuel="petrol"))
    stations, hist = load_stations(str(p1))
    p2 = tmp_path / "s2.csv"
    save_stations(stations, hist, str(p2))
    stations2, hist2 = load_stations(str(p2))
    p3 = tmp_path / "s3.csv"
    save_stations(stations2, hist2, str(p3))
    assert p2.read_bytes() == p3.read_bytes()
    assert hist2 == hist


# --- forecasting ----------------------------------------------------------------

def test_weekday_mean_over_lookback():
    # Station S1: Mondays at 1.70, 1.74, 1.78 in the last 3 weeks.
    obs = {("S1", "diesel"): [(MONDAY + timedelta(weeks=w), 1.70 + 0.04 * w)
                              for w in range(3)]}
    fc = forecast_week(history(obs), "diesel")
    assert fc.station_prices["S1"]["Mon"] == pytest.approx((1.70 + 1.74 + 1.78) / 3)
    # Weekdays with no observations fall back to the latest price.
    assert fc.station_prices["S1"]["Thu"] == pytest.approx(1.78)


def test_lookback_window_excludes_old_observations():
    old = MONDAY - timedelta(weeks=6)
    obs = {("S1", "diesel"): [(old, 0.50), (MONDAY, 1.80),
                              (MONDAY + timedelta(weeks=1), 1.90),
                              (MONDAY + timedelta(weeks=4), 1.70)]}
    fc = forecast_week(history(obs), "diesel", lookback_weeks=4)
    # Anchor is the newest observation; only Mondays within 4 weeks count.
    assert fc.station_prices["S1"]["Mon"] == pytest.approx((1.90 + 1.70) / 2)


def test_area_price_is_cheapest_station():
    obs = {("S1", "diesel"): [(MONDAY, 1.80)],
           ("S2", "diesel"): [(MONDAY, 1.75)],
           ("S3", "petrol"): [(MONDAY, 1.10)]}
    fc = forecast_week(history(obs), "diesel")
    assert fc.area_prices["Mon"] == pytest.approx(1.75)
    assert set(fc.station_prices) == {"S1", "S2"}  # other fuel excluded


def test_stale_stations_flagged():
    obs = {("S1", "diesel"): [(MONDAY, 1.80)],
           ("S2", "diesel"): [(MONDAY + timedelta(days=20), 1.75)]}
    fc = forecast_week(history(obs), "diesel")
    assert fc.stale_stations == {"S1"}


def test_unknown_fuel_type_raises():
    obs = {("S1", "diesel"): [(MONDAY, 1.80)]}
    with pytest.raises(errors.EmptyHistory):
        forecast_week(history(obs), "lpg")


def test_cheapest_day_argmin_and_tie_order():
    days = [MONDAY + timedelta(days=i) for i in range(7)]
    prices = [1.80, 1.80, 1.75, 1.80, 1.75, 1.80, 1.80]  # Wed and Fri tie
    obs = {("S1", "diesel"): list(zip(days, prices))}
    fc = forecast_week(history(obs), "diesel")
    assert cheapest_day(fc) == "Wed"


def reference_forecast_week(history, fuel_type, lookback_weeks=4):
    """forecast_week as one list scan per weekday: the definition it must match."""
    keys = [k for k in history.series if k[1] == fuel_type]
    anchor = history.latest_date()
    horizon = anchor - timedelta(weeks=lookback_weeks)
    stale_cutoff = anchor - timedelta(days=STALE_AFTER_DAYS)
    station_prices, stale = {}, set()
    for sid, fuel in keys:
        obs = history.series[(sid, fuel)]
        last_date, last_price = obs[-1]
        if last_date < stale_cutoff:
            stale.add(sid)
        per_day = {}
        for wd_index, wd in enumerate(WEEKDAYS):
            vals = [p for d, p in obs if d.weekday() == wd_index and d > horizon]
            per_day[wd] = sum(vals) / len(vals) if vals else last_price
        station_prices[sid] = per_day
    area = {wd: min(prices[wd] for prices in station_prices.values()) for wd in WEEKDAYS}
    return WeeklyPriceForecast(fuel_type=fuel_type, station_prices=station_prices,
                               area_prices=area, stale_stations=frozenset(stale))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
           st.tuples(st.sampled_from(["S1", "S2", "S3"]), st.sampled_from(["diesel", "petrol"])),
           st.dictionaries(st.integers(0, 90), st.integers(500, 3000).map(lambda c: c / 1000),
                           min_size=1, max_size=60),
           min_size=1, max_size=6),
       st.integers(1, 12))
def test_forecast_week_matches_per_weekday_scans(series, lookback_weeks):
    hist = history({k: [(MONDAY + timedelta(days=i), p) for i, p in obs.items()]
                    for k, obs in series.items()})
    for fuel in {fuel for _, fuel in series}:
        got = forecast_week(hist, fuel, lookback_weeks=lookback_weeks)
        want = reference_forecast_week(hist, fuel, lookback_weeks=lookback_weeks)
        assert got == want
        assert list(got.station_prices) == list(want.station_prices)
