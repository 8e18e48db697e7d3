import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from refuelopt import errors
from refuelopt.forest import fit_bagged_trees
from refuelopt.mileage import (FEATURE_NAMES, GateThresholds, ScalerStats,
                               build_features, evaluate_metrics,
                               extra_mileage_delta, fill_weeks, fit_forest,
                               forecast_next_week, gate, predict_week,
                               sliding_cv)

MONDAY = date(2025, 1, 6)


def series(values, start=MONDAY):
    return {start + timedelta(days=i): float(v) for i, v in enumerate(values)}


def weekly_pattern(weeks, pattern=(20, 22, 18, 25, 30, 5, 0), noise=None, seed=0):
    import random
    rng = random.Random(seed)
    vals = []
    for _ in range(weeks):
        for p in pattern:
            v = p + (rng.gauss(0, noise) if noise else 0.0)
            vals.append(max(0.0, v))
    return series(vals)


# --- features -------------------------------------------------------------------

def test_build_features_lags_and_rolling_mean():
    km = series(range(20))  # day i drives i km
    rows = build_features(km)
    assert len(rows) == 13
    r = rows[0]
    assert r.day == MONDAY + timedelta(days=7)
    assert (r.lag_1, r.lag_7) == (6.0, 0.0)
    assert r.roll_7_mean == pytest.approx(sum(range(7)) / 7.0)
    assert r.target == 7.0
    assert r.day_of_week == 1 and r.month == 1
    last = rows[-1]
    assert (last.lag_1, last.lag_7, last.target) == (18.0, 12.0, 19.0)


def test_fill_weeks_zeroes_quiet_days_and_keeps_the_rest():
    km = {MONDAY + timedelta(days=2): 5.0, MONDAY + timedelta(days=15): 7.0}
    filled = fill_weeks(km, MONDAY, 2)
    assert sorted(filled) == [MONDAY + timedelta(days=i) for i in (*range(14), 15)]
    assert filled[MONDAY + timedelta(days=2)] == 5.0
    assert filled[MONDAY + timedelta(days=13)] == 0.0  # a quiet last Sunday
    assert filled[MONDAY + timedelta(days=15)] == 7.0  # outside the weeks: kept
    assert len(km) == 2
    with pytest.raises(ValueError, match="Monday"):
        fill_weeks(km, MONDAY + timedelta(days=1), 2)


def test_build_features_requires_14_consecutive_days():
    with pytest.raises(errors.SeriesTooShort):
        build_features(series(range(13)))
    km = series(range(20))
    del km[MONDAY + timedelta(days=9)]
    with pytest.raises(errors.SeriesTooShort):
        build_features(km)


def test_missing_trip_stats_use_flags_not_zeros():
    km = series(range(20))
    stats = {MONDAY + timedelta(days=8): (3, 41.0, 72.0)}
    rows = build_features(km, trip_stats=stats)
    with_stats = rows[1].vector()
    without = rows[0].vector()
    names = list(FEATURE_NAMES)
    assert with_stats[names.index("has_trip_stats")] == 1.0
    assert with_stats[names.index("n_trips")] == 3.0
    assert with_stats[names.index("avg_speed")] == 41.0
    assert without[names.index("has_trip_stats")] == 0.0
    assert without[names.index("has_speed_stats")] == 0.0


def test_scaler_drops_constant_features():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    sc = ScalerStats.fit(X, ("a", "b"))
    assert sc.kept == (True, False)
    Xs = sc.transform(X)
    assert Xs.shape == (3, 1)
    assert Xs.mean() == pytest.approx(0.0, abs=1e-12)
    assert Xs.std() == pytest.approx(1.0, abs=1e-12)


# --- ensemble -------------------------------------------------------------------

def test_fit_is_deterministic_per_seed():
    km = weekly_pattern(5, noise=2.0)
    rows = build_features(km)
    test_rows = [replace(r, target=None) for r in rows[-7:]]
    m1 = fit_forest(rows[:-7], n_trees=30, seed=7)
    m2 = fit_forest(rows[:-7], n_trees=30, seed=7)
    m3 = fit_forest(rows[:-7], n_trees=30, seed=8)
    assert predict_week(m1, test_rows) == predict_week(m2, test_rows)
    assert predict_week(m1, test_rows) != predict_week(m3, test_rows)


def test_learns_weekly_pattern():
    km = weekly_pattern(8)
    rows = build_features(km)
    model = fit_forest(rows[:-7], n_trees=50, seed=1)
    preds = predict_week(model, [replace(r, target=None) for r in rows[-7:]])
    actual = [r.target for r in rows[-7:]]
    metrics = evaluate_metrics(actual, preds)
    assert metrics.mae < 1.0


def test_predictions_bounded_by_training_targets():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 4))
    y = rng.uniform(10.0, 50.0, size=40)
    trees = fit_bagged_trees(X, y, n_trees=20, max_depth=6, seed=0)
    preds = trees.predict(rng.normal(size=(30, 4)) * 5)
    assert np.all(preds >= y.min() - 1e-9)
    assert np.all(preds <= y.max() + 1e-9)


def test_negative_means_clamp_to_zero():
    km = weekly_pattern(5, noise=2.0)
    rows = build_features(km)
    neg_rows = [replace(r, target=r.target - 100.0) for r in rows]
    model = fit_forest(neg_rows[:-7], n_trees=10, seed=0)
    preds = predict_week(model, [replace(r, target=None) for r in neg_rows[-7:]])
    assert preds == [0.0] * 7


def test_degenerate_constant_features():
    rows = build_features(series([10.0] * 21))
    # day_of_week and month vary, so craft rows that truly are constant
    const = [replace(r, day_of_week=3, month=1, lag_1=5.0, lag_7=5.0,
                     roll_7_mean=5.0) for r in rows]
    model = fit_forest(const, n_trees=10, seed=0)
    assert model.degenerate
    assert predict_week(model, const) == [10.0] * len(const)


def test_feature_mismatch_rejected():
    rows = build_features(series(range(21)))
    model = fit_forest(rows, n_trees=5, seed=0)
    bad = replace(model, scaler=replace(model.scaler, feature_names=("x",)))
    with pytest.raises(errors.FeatureMismatch):
        predict_week(bad, rows)


# --- metrics and gate -----------------------------------------------------------

def test_metrics_hand_computed():
    y = [10.0, 20.0, 30.0, 0.0, 15.0, 25.0, 5.0]
    y_hat = [12.0, 18.0, 33.0, 1.0, 15.0, 20.0, 6.0]
    m = evaluate_metrics(y, y_hat)
    assert m.mae == pytest.approx((2 + 2 + 3 + 1 + 0 + 5 + 1) / 7.0, rel=1e-12)
    assert m.e_week == pytest.approx(0.0, abs=1e-12)  # totals both 105
    assert m.e_week_pct == pytest.approx(0.0, abs=1e-12)


def test_metrics_weekly_error_is_signed_cancellation():
    m = evaluate_metrics([10.0, 10.0], [5.0, 15.0])
    assert m.mae == 5.0
    assert m.e_week == 0.0


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=14),
       st.floats(-5.0, 5.0))
def test_constant_shift_metrics(y, shift):
    y_hat = [v + shift for v in y]
    m = evaluate_metrics(y, y_hat)
    assert m.mae == pytest.approx(abs(shift), rel=1e-9, abs=1e-9)
    assert m.e_week == pytest.approx(abs(shift) * len(y), rel=1e-9, abs=1e-9)


def test_metrics_error_cases():
    with pytest.raises(errors.LengthMismatch):
        evaluate_metrics([1.0], [1.0, 2.0])
    with pytest.raises(errors.LengthMismatch):
        evaluate_metrics([], [])
    with pytest.raises(errors.ZeroWeekTotal):
        evaluate_metrics([0.0, 0.0], [1.0, 1.0])


def test_gate_boundaries_inclusive():
    from refuelopt.mileage import PredictionMetrics
    t = GateThresholds()
    assert gate(PredictionMetrics(2.5, 5.7, 21.3), t)
    assert not gate(PredictionMetrics(2.5 + 1e-9, 5.7, 21.3), t)
    assert not gate(PredictionMetrics(2.5, 5.7 + 1e-9, 21.3), t)
    assert not gate(PredictionMetrics(2.5, 5.7, 21.3 + 1e-9), t)
    assert (t.mae_max, t.e_week_max, t.e_week_pct_max) == (2.5, 5.7, 21.3)


# --- cross-validation -----------------------------------------------------------

def test_sliding_cv_fold_layout():
    rows = build_features(weekly_pattern(9, noise=1.0))  # 56 rows = 8 weeks
    report = sliding_cv(rows, window_weeks=4, n_trees=10, seed=0)
    assert len(report.folds) == 4
    assert all(math.isfinite(m.mae) for m in report.folds)
    assert report.mean.mae == pytest.approx(
        sum(m.mae for m in report.folds) / 4.0, rel=1e-12)


def test_sliding_cv_mean_of_one_fold_is_that_fold():
    rows = build_features(weekly_pattern(6, noise=1.0))  # 35 rows = 5 weeks
    report = sliding_cv(rows, window_weeks=4, n_trees=10, seed=0)
    assert report.folds == (report.mean,)


def test_sliding_cv_insufficient_history():
    rows = build_features(weekly_pattern(3))
    with pytest.raises(errors.InsufficientHistory):
        sliding_cv(rows, window_weeks=6, n_trees=5)


@pytest.mark.parametrize("window", [-1, 0, 1])
def test_sliding_cv_rejects_window_below_two_weeks(window):
    rows = build_features(weekly_pattern(6))
    with pytest.raises(ValueError, match="window_weeks must be >= 2"):
        sliding_cv(rows, window_weeks=window, n_trees=5)


# --- recursive forecast ---------------------------------------------------------

def test_forecast_covers_next_seven_days():
    km = weekly_pattern(6)
    rows = build_features(km)
    model = fit_forest(rows, n_trees=30, seed=2)
    out = forecast_next_week(model, km)
    last = max(km)
    assert sorted(out) == [last + timedelta(days=i) for i in range(1, 8)]
    assert all(v >= 0.0 for v in out.values())


def test_forecast_tracks_periodic_series():
    km = weekly_pattern(8)
    rows = build_features(km)
    model = fit_forest(rows, n_trees=50, seed=2)
    out = forecast_next_week(model, km)
    pattern = (20, 22, 18, 25, 30, 5, 0)
    for d, v in out.items():
        assert v == pytest.approx(pattern[d.weekday()], abs=2.0)


# --- extra mileage --------------------------------------------------------------

@given(st.floats(0.0, 500.0), st.floats(0.0, 500.0))
def test_delta_is_clamped_surplus(y_hat, routed):
    d = extra_mileage_delta(y_hat, routed)
    assert d == max(y_hat - routed, 0.0)
    assert d >= 0.0


def test_delta_rejects_negative_inputs():
    with pytest.raises(ValueError):
        extra_mileage_delta(-1.0, 5.0)
