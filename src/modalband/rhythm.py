"""Rhythmic cycle detection on a fitted band's midpoint curve.

A sampled curve peak qualifies as rhythmic when it strictly exceeds every
curve value within a window before and after it, and each window contains
a strict local minimum.  The cycle spans trough to trough around the
peak; the peak-to-trough midpoint ratios grade the rhythm.  Troughs are
the lowest local minimum in each window, so adjacent cycles share the
trough between their peaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RhythmCycle", "detect_rhythms", "classify_ratio"]

DEFAULT_WINDOW = 24.0  # one day, for curves indexed in hours
DEFAULT_THRESHOLDS = (1.25, 1.5)


@dataclass(frozen=True)
class RhythmCycle:
    """Trough-peak-trough triple with midpoint ratios and a grade.

    ``ratio1`` and ``ratio2`` compare the peak value with the preceding
    and following trough values.  When a trough value is at or below zero
    the ratios are undefined: both are reported as 0.0, the grade is
    "none", and ``ratio_undefined`` is set.  The field order is the
    column order of the CLI's cycle table.
    """

    trough1_x: float
    peak_x: float
    trough2_x: float
    ratio1: float
    ratio2: float
    classification: str
    ratio_undefined: bool = False

    @property
    def period(self) -> float:
        return self.trough2_x - self.trough1_x


def classify_ratio(ratio: float, thresholds=DEFAULT_THRESHOLDS) -> str:
    """Grade a peak-to-trough ratio: significant, mild, or none."""
    mild, significant = thresholds
    if not 0.0 < mild < significant:
        raise ValueError(f"thresholds must satisfy 0 < mild < significant, got {thresholds}")
    if ratio >= significant:
        return "significant"
    if ratio >= mild:
        return "mild"
    return "none"


def _strict_local_minima(values: np.ndarray) -> np.ndarray:
    interior = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    return np.flatnonzero(interior) + 1


def _strict_local_maxima(values: np.ndarray) -> np.ndarray:
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    return np.flatnonzero(interior) + 1


def _lowest(minima: np.ndarray, values: np.ndarray) -> int:
    """Index of the lowest-valued minimum; ties go to the leftmost."""
    return int(minima[np.argmin(values[minima])])


def detect_rhythms(curve, window: float = DEFAULT_WINDOW,
                   thresholds=DEFAULT_THRESHOLDS) -> list[RhythmCycle]:
    """Detect rhythmic cycles on a sampled curve.

    Parameters
    ----------
    curve : array_like
        Rows (x, value) with strictly increasing x, at least 3 rows; x and
        ``window`` share the same unit.
    window : float
        Dominance span checked before and after each candidate peak.
    thresholds : (float, float)
        Ratio cut points for the "mild" and "significant" grades.

    Returns
    -------
    list of RhythmCycle
        Cycles in x order; adjacent cycles share a trough instead of
        overlapping.
    """
    arr = np.asarray(curve, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("curve must be an array of (x, value) rows")
    if arr.shape[0] < 3:
        raise ValueError(f"need at least 3 curve points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("curve contains non-finite values")
    x, v = arr[:, 0], arr[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("curve x values must be strictly increasing")
    if not 0.0 < window < np.inf:  # False for NaN
        raise ValueError(f"window must be positive and finite, got {window}")
    classify_ratio(0.0, thresholds)  # validates the thresholds

    minima = _strict_local_minima(v)
    qualified = []  # (peak index, preceding trough index, following trough index)
    for peak in _strict_local_maxima(v):
        before = np.flatnonzero((x >= x[peak] - window) & (x < x[peak]))
        after = np.flatnonzero((x > x[peak]) & (x <= x[peak] + window))
        if before.size and v[before].max() >= v[peak]:
            continue
        if after.size and v[after].max() >= v[peak]:
            continue
        mins_before = minima[(x[minima] >= x[peak] - window) & (minima < peak)]
        mins_after = minima[(minima > peak) & (x[minima] <= x[peak] + window)]
        if mins_before.size == 0 or mins_after.size == 0:
            continue
        qualified.append((peak, _lowest(mins_before, v), _lowest(mins_after, v)))
    # two qualified peaks lie more than a window apart, so a minimum seen by
    # both windows is a candidate for both troughs and the lowest-leftmost
    # rule picks the same one: consecutive cycles share a trough, never overlap

    cycles = []
    for peak, t1, t2 in qualified:
        if v[t1] <= 0.0 or v[t2] <= 0.0:
            cycles.append(RhythmCycle(
                trough1_x=float(x[t1]), peak_x=float(x[peak]), trough2_x=float(x[t2]),
                ratio1=0.0, ratio2=0.0, classification="none", ratio_undefined=True,
            ))
            continue
        r1 = float(v[peak] / v[t1])
        r2 = float(v[peak] / v[t2])
        cycles.append(RhythmCycle(
            trough1_x=float(x[t1]), peak_x=float(x[peak]), trough2_x=float(x[t2]),
            ratio1=r1, ratio2=r2,
            classification=classify_ratio(min(r1, r2), thresholds),
        ))
    return cycles
