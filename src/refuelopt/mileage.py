"""Next-week daily mileage forecasting and its acceptance gate.

A bagged regression-tree ensemble (150 trees, depth 6) is trained on daily
driving history with five features: day of week, month, `lag_1`, `lag_7`
and `roll_7_mean` (the km one day, one week and the mean of the seven days
before). There is no standardisation; constant columns are dropped, since
a tree depends only on each feature's order. The forecast is only
trusted when three error scores on a held-out validation week all fall
under fixed thresholds; an accepted forecast yields the extra-mileage
correction applied to candidate refueling routes.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from datetime import date, timedelta

import numpy as np

from . import errors
from .forest import DEFAULT_MAX_DEPTH, DEFAULT_N_TREES, BaggedTrees, fit_bagged_trees, load_trees
from .tables import write_table

# A forest fit needs at least this many feature rows.
MIN_TRAIN_ROWS = 14

# The acceptance gate's thresholds on PredictionMetrics' three scores.
GATE_MAE_MAX = 2.5
GATE_E_WEEK_MAX = 5.7
GATE_E_WEEK_PCT_MAX = 21.3


@dataclass(frozen=True)
class DailyFeatureRow:
    day: date
    day_of_week: int          # 1 = Monday .. 7 = Sunday
    month: int
    lag_1: float
    lag_7: float
    roll_7_mean: float
    target: float | None = None

    def vector(self) -> list[float]:
        return [float(self.day_of_week), float(self.month),
                self.lag_1, self.lag_7, self.roll_7_mean]


@dataclass(frozen=True)
class ForestModel:
    """Trees fitted on the `DailyFeatureRow.vector()` columns that vary in training."""

    trees: BaggedTrees
    columns: np.ndarray


@dataclass(frozen=True)
class PredictionMetrics:
    mae: float
    e_week: float
    e_week_pct: float


@dataclass(frozen=True)
class CvReport:
    folds: tuple[PredictionMetrics, ...]
    mean: PredictionMetrics


def fill_weeks(daily_km: dict[date, float], monday: date, weeks: int) -> dict[date, float]:
    """`daily_km` over `weeks` whole weeks from `monday`, with 0 km on each day
    without driving. Days outside those weeks are kept as given."""
    if monday.weekday() != 0:
        raise ValueError(f"weeks must start on a Monday, got {monday}")
    days = (monday + timedelta(days=i) for i in range(7 * weeks))
    return {**dict.fromkeys(days, 0.0), **daily_km}


def build_features(daily_km: dict[date, float]) -> list[DailyFeatureRow]:
    """Turn a consecutive daily-km series into feature rows with targets.

    Rows start at day 8 so the one-week lag exists.
    """
    days = sorted(daily_km)
    if len(days) < 14:
        raise errors.SeriesTooShort(f"need >= 14 days, got {len(days)}")
    for a, b in zip(days, days[1:]):
        if (b - a).days != 1:
            raise errors.SeriesTooShort(f"series not consecutive at {a} -> {b}")
    km = [daily_km[d] for d in days]
    rows = []
    for i in range(7, len(days)):
        d = days[i]
        rows.append(DailyFeatureRow(
            day=d, day_of_week=d.weekday() + 1, month=d.month,
            lag_1=km[i - 1], lag_7=km[i - 7],
            roll_7_mean=sum(km[i - 7:i]) / 7.0, target=km[i]))
    return rows


def fit_forest(rows: list[DailyFeatureRow], n_trees: int = DEFAULT_N_TREES,
               seed: int = 0) -> ForestModel:
    """Train the depth-DEFAULT_MAX_DEPTH ensemble on feature rows carrying targets."""
    if len(rows) < MIN_TRAIN_ROWS:
        raise errors.SeriesTooShort(f"need >= {MIN_TRAIN_ROWS} training rows, got {len(rows)}")
    if any(r.target is None or not math.isfinite(r.target) for r in rows):
        raise ValueError("every training row needs a finite target")
    X = np.array([r.vector() for r in rows])
    y = np.array([r.target for r in rows])
    columns = np.flatnonzero(X.min(axis=0) < X.max(axis=0))
    if len(columns):
        trees = fit_bagged_trees(X[:, columns], y, n_trees=n_trees, max_depth=DEFAULT_MAX_DEPTH,
                                 seed=seed)
    else:  # nothing to split on: one leaf holding the mean target
        leaf = {"v": float(np.mean(y))}
        trees = load_trees({"seed": seed, "max_depth": DEFAULT_MAX_DEPTH, "trees": [leaf]})
    return ForestModel(trees, columns)


def predict_week(model: ForestModel, rows: list[DailyFeatureRow]) -> list[float]:
    """Forecast daily km for feature rows; negative tree means clamp to 0."""
    X = np.array([r.vector() for r in rows])
    preds = model.trees.predict(X[:, model.columns])
    return [max(0.0, float(p)) for p in preds]


def evaluate_metrics(y: list[float], y_hat: list[float]) -> PredictionMetrics:
    """Daily MAE, absolute weekly-total error, and its percentage of the actual total."""
    if len(y) != len(y_hat):
        raise errors.LengthMismatch(f"{len(y)} actuals vs {len(y_hat)} predictions")
    if not y:
        raise errors.LengthMismatch("empty vectors")
    mae = sum(abs(a - p) for a, p in zip(y, y_hat)) / len(y)
    e_week = abs(sum(y) - sum(y_hat))
    total = sum(y)
    if total <= 0:
        raise errors.ZeroWeekTotal("actual weekly total is zero")
    return PredictionMetrics(mae=mae, e_week=e_week, e_week_pct=100.0 * e_week / total)


def gate(metrics: PredictionMetrics) -> bool:
    """Accept the forecast iff every error is at or under its GATE_* threshold."""
    return (metrics.mae <= GATE_MAE_MAX
            and metrics.e_week <= GATE_E_WEEK_MAX
            and metrics.e_week_pct <= GATE_E_WEEK_PCT_MAX)


def sliding_cv(rows: list[DailyFeatureRow], window_weeks: int,
               n_trees: int = DEFAULT_N_TREES, seed: int = 0) -> CvReport:
    """Sliding-window cross-validation: train on `window_weeks`, test the next week.

    The window advances one week per fold; train and test never overlap and
    the test week always follows the training window.
    """
    if window_weeks < 2:
        raise ValueError(f"window_weeks must be >= 2 (a fit needs 14 rows), got {window_weeks}")
    w = window_weeks * 7
    n_folds = (len(rows) - w) // 7
    if n_folds < 1:
        raise errors.InsufficientHistory(
            f"need >= {window_weeks + 1} weeks of rows, got {len(rows)} days")
    folds = []
    for f in range(n_folds):
        train = rows[f * 7:f * 7 + w]
        test = rows[f * 7 + w:f * 7 + w + 7]
        model = fit_forest(train, n_trees=n_trees, seed=seed)
        preds = predict_week(model, [replace(r, target=None) for r in test])
        folds.append(evaluate_metrics([r.target for r in test], preds))
    return CvReport(folds=tuple(folds), mean=PredictionMetrics(
        *(statistics.mean(getattr(m, name) for m in folds)
          for name in ("mae", "e_week", "e_week_pct"))))


def forecast_next_week(model: ForestModel, daily_km: dict[date, float],
                       ) -> dict[date, float]:
    """Forecast the 7 days after the series end, feeding predictions back
    into the lag features day by day."""
    days = sorted(daily_km)
    km = {d: daily_km[d] for d in days}
    out: dict[date, float] = {}
    for _ in range(7):
        d = days[-1] + timedelta(days=1)
        hist = [km[d - timedelta(days=k)] for k in range(7, 0, -1)]
        row = DailyFeatureRow(day=d, day_of_week=d.weekday() + 1, month=d.month,
                              lag_1=hist[-1], lag_7=hist[0],
                              roll_7_mean=sum(hist) / 7.0)
        pred = predict_week(model, [row])[0]
        out[d] = pred
        km[d] = pred
        days.append(d)
    return out


def extra_mileage_delta(y_hat_day: float, routed_day_km: float) -> float:
    """Forecast surplus over the habitual day's routed distance, clamped at 0."""
    if y_hat_day < 0 or routed_day_km < 0:
        raise ValueError("inputs must be non-negative")
    return max(y_hat_day - routed_day_km, 0.0)


def export_metrics_csv(folds, path: str) -> None:
    write_table(path, ["fold", "mae", "e_week", "e_week_pct"],
                ([i, repr(m.mae), repr(m.e_week), repr(m.e_week_pct)]
                 for i, m in enumerate(folds)))
