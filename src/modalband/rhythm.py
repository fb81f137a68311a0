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
THRESHOLDS = (1.25, 1.5)  # the least ratios of a "mild" and a "significant" rhythm


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


def classify_ratio(ratio: float) -> str:
    """Grade a peak-to-trough ratio: "significant" from 1.5, "mild" from
    1.25, else "none" (the cut points ``THRESHOLDS``)."""
    mild, significant = THRESHOLDS
    if ratio >= significant:
        return "significant"
    if ratio >= mild:
        return "mild"
    return "none"


def _strict_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the interior points below both neighbours; ``-values`` gives maxima."""
    mask = np.zeros(values.size, bool)
    mask[1:-1] = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    return mask


def detect_rhythms(curve, window: float = DEFAULT_WINDOW) -> list[RhythmCycle]:
    """Detect rhythmic cycles on a sampled curve.

    Parameters
    ----------
    curve : array_like
        Rows (x, value) with strictly increasing x, at least 3 rows; x and
        ``window`` share the same unit.
    window : float
        Dominance span checked before and after each candidate peak.

    Returns
    -------
    list of RhythmCycle
        Cycles in x order, graded by :func:`classify_ratio`; adjacent
        cycles share a trough instead of overlapping.
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

    minima = _strict_minima(v)
    peaks = np.flatnonzero(_strict_minima(-v))
    # x is strictly increasing, so each peak's window is one slice
    start = np.searchsorted(x, x[peaks] - window, "left")
    stop = np.searchsorted(x, x[peaks] + window, "right")
    cycles = []
    for peak, a, b in zip(peaks, start, stop):
        if np.count_nonzero(v[a:b] >= v[peak]) > 1:
            continue  # another value in the window reaches the peak
        before = a + np.flatnonzero(minima[a:peak])
        after = peak + 1 + np.flatnonzero(minima[peak + 1:b])
        if before.size == 0 or after.size == 0:
            continue
        # the lowest minimum on each side; ties go to the leftmost.  Two
        # qualified peaks lie more than a window apart, so a minimum seen by
        # both windows is a candidate for both troughs and this rule picks
        # the same one: consecutive cycles share a trough, never overlap
        t1 = before[np.argmin(v[before])]
        t2 = after[np.argmin(v[after])]
        undefined = bool(v[t1] <= 0.0 or v[t2] <= 0.0)
        r1, r2 = (0.0, 0.0) if undefined else (float(v[peak] / v[t1]), float(v[peak] / v[t2]))
        cycles.append(RhythmCycle(
            trough1_x=float(x[t1]), peak_x=float(x[peak]), trough2_x=float(x[t2]),
            ratio1=r1, ratio2=r2, ratio_undefined=undefined,
            classification="none" if undefined else classify_ratio(min(r1, r2)),
        ))
    return cycles
