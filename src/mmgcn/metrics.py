"""Evaluation and analysis: error metrics, temporal-drift instrumentation,
feature-independence scoring, and modality-relationship export."""

from __future__ import annotations

import warnings

import numpy as np

from .data import intervals_per_day
from .numerics import NumericalFailure

PATTERN_SMOOTHING = 1e-9


def rmse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root mean squared error over all cells."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.size == 0:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
        )
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


def _weekly_patterns(values: np.ndarray, week: int) -> np.ndarray:
    """City-total demand per time-of-week bin, one smoothed probability
    vector per week."""
    total = values.shape[1]
    if total == 0 or total % week != 0:
        raise ValueError(f"series of {total} intervals does not cover whole weeks of {week}")
    city = values.sum(axis=0).reshape(-1, week)
    smoothed = city + PATTERN_SMOOTHING
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def kl_temporal_drift(train_values, test_values, interval_minutes: int) -> list:
    """Per test week, the KL divergence from the last training week's temporal
    pattern to that week's; both ``(V, T)`` arrays must cover whole weeks."""
    week = 7 * intervals_per_day(interval_minutes)
    train_patterns = _weekly_patterns(np.asarray(train_values, dtype=float), week)
    test_patterns = _weekly_patterns(np.asarray(test_values, dtype=float), week)
    return [_kl(train_patterns[-1], pattern) for pattern in test_patterns]


def feature_independence(cov: np.ndarray, include_diagonal: bool = True) -> float:
    """Negative log Frobenius norm of a feature covariance matrix.

    Higher means weaker co-variation between hidden features.  Constant
    features have zero covariance; that degenerate case returns +inf with a
    warning.  ``include_diagonal=False`` scores only off-diagonal entries,
    for readings that exclude the variances themselves.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] < 2:
        raise ValueError(f"need a square covariance of at least 2 features, got {cov.shape}")
    if not include_diagonal:
        cov = cov - np.diag(np.diagonal(cov))
    norm = float(np.linalg.norm(cov))
    if norm == 0.0:
        warnings.warn("feature covariance is exactly zero; independence is unbounded",
                      stacklevel=2)
        return float("inf")
    return -float(np.log(norm))


def modality_relationship(sigma: np.ndarray) -> np.ndarray:
    """Scale-free modality relationships R_ij = S_ij / sqrt(S_ii S_jj) of the
    modality-mode covariance ``sigma``."""
    diag = np.diagonal(sigma)
    if (diag <= 0).any():
        raise NumericalFailure("modality covariance has a non-positive diagonal")
    scale = np.sqrt(diag)
    matrix = np.clip(sigma / np.outer(scale, scale), -1.0, 1.0)
    np.fill_diagonal(matrix, 1.0)
    return matrix


def stack_targets(samples) -> np.ndarray:
    return np.stack([s.target[:, 0] for s in samples])
