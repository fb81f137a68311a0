"""Piecewise-polynomial spline primitives in normalized segment form.

A spline on knots xi_0 < ... < xi_b is stored segment-major: segment j
(width D_j = xi_j - xi_{j-1}) carries d+1 coefficients of the local
polynomial

    u_j(x) = sum_k c_k<j> * t^k,   t = (x - xi_{j-1}) / D_j in [0, 1].

Segments are right-closed: a knot belongs to the segment ending at it,
except xi_0 which belongs to the first segment.  This module builds the
three structural matrices of the band-fitting program: cross-knot
continuity constraints up to a smoothness order, the exact curvature
penalty integral, and a per-segment sufficient condition for pointwise
nonnegativity of a polynomial on its segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

__all__ = [
    "SplineBasis",
    "design_matrix",
    "continuity_matrix",
    "penalty_matrix",
    "noncross_matrix",
    "eval_spline",
]


@dataclass(frozen=True)
class SplineBasis:
    """Knot grid with polynomial degree and cross-knot smoothness order."""

    knots: np.ndarray
    degree: int = 3
    smoothness: int = 2

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        if self.degree < 1:
            raise ValueError(f"degree must be at least 1, got {self.degree}")
        if not 0 <= self.smoothness <= self.degree:
            raise ValueError(
                f"smoothness must lie in [0, degree], got {self.smoothness}"
            )
        object.__setattr__(self, "knots", knots)

    @classmethod
    def uniform(cls, lo: float, hi: float, segments: int = 20,
                degree: int = 3, smoothness: int = 2) -> "SplineBasis":
        """Equally spaced knots spanning [lo, hi]."""
        if segments < 1:
            raise ValueError(f"segments must be at least 1, got {segments}")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return cls(np.linspace(lo, hi, segments + 1), degree, smoothness)

    @property
    def segments(self) -> int:
        return self.knots.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.knots)

    @property
    def size(self) -> int:
        """Coefficient count of one curve: segments * (degree + 1)."""
        return self.segments * (self.degree + 1)

    def segment_index(self, x) -> np.ndarray:
        """0-based segment of each point; right-closed except the first knot."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.knots[0]) or np.any(x > self.knots[-1]):
            bad = x[(x < self.knots[0]) | (x > self.knots[-1])]
            raise ValueError(
                f"point {bad.flat[0]} outside the knot range "
                f"[{self.knots[0]}, {self.knots[-1]}]"
            )
        idx = np.searchsorted(self.knots, x, side="left") - 1
        return np.maximum(idx, 0)


def design_matrix(x, basis: SplineBasis) -> np.ndarray:
    """Evaluation rows: row k dotted with coefficients gives the spline at x[k]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    seg = basis.segment_index(x)
    d = basis.degree
    t = (x - basis.knots[seg]) / basis.widths[seg]
    rows = np.zeros((x.size, basis.size))
    powers = t[:, None] ** np.arange(d + 1)
    cols = seg[:, None] * (d + 1) + np.arange(d + 1)
    np.put_along_axis(rows, cols, powers, axis=1)
    return rows


def _check_segments(basis: SplineBasis) -> None:
    if basis.segments < 2:
        raise ValueError("continuity constraints need at least 2 segments")


def _check_degree(basis: SplineBasis) -> None:
    if basis.degree < 2:
        raise ValueError("curvature penalty needs degree at least 2")


def continuity_matrix(basis: SplineBasis) -> np.ndarray:
    """Constraint rows forcing derivative agreement at interior knots.

    One row per interior knot and derivative order g in [0, smoothness]:
    the g-th derivative of the left segment at its right edge minus the
    g-th derivative of the right segment at its left edge.  A coefficient
    vector c is continuous to the smoothness order iff H @ c = 0.
    """
    _check_segments(basis)
    b, d, rho = basis.segments, basis.degree, basis.smoothness
    widths = basis.widths
    H = np.zeros(((b - 1) * (rho + 1), basis.size))
    r = 0
    for j in range(b - 1):
        for g in range(rho + 1):
            for k in range(g, d + 1):
                H[r, j * (d + 1) + k] = factorial(k) / factorial(k - g) / widths[j] ** g
            H[r, (j + 1) * (d + 1) + g] = -factorial(g) / widths[j + 1] ** g
            r += 1
    return H


def penalty_matrix(basis: SplineBasis) -> np.ndarray:
    """Quadratic form of the integrated squared second derivative.

    Block-diagonal per segment; on segment j the (k, g) entry for
    k, g >= 2 is k(k-1)g(g-1) / (D_j^3 (k+g-3)), the exact integral of
    t^(k-2) * t^(g-2) curvature products.  Always symmetric PSD.
    """
    _check_degree(basis)
    d = basis.degree
    widths = basis.widths
    Q = np.zeros((basis.size, basis.size))
    for j in range(basis.segments):
        base = j * (d + 1)
        for k in range(2, d + 1):
            for g in range(2, d + 1):
                Q[base + k, base + g] = (
                    k * (k - 1) * g * (g - 1) / (widths[j] ** 3 * (k + g - 3))
                )
    return Q


def noncross_matrix(basis: SplineBasis) -> np.ndarray:
    """Sufficient condition for segmentwise nonnegativity of a polynomial.

    Per segment, row g (0 <= g <= d) reads

        sum_{k<=g} (d-k)! / ((d-g)! (g-k)!) * c_k  >=  0;

    if all d+1 rows are nonnegative the polynomial is nonnegative on the
    whole segment.  The condition is sufficient, not necessary.  Applied
    to the difference of two coefficient vectors it keeps one spline above
    the other.
    """
    d = basis.degree
    G = np.zeros((basis.size, basis.size))
    for j in range(basis.segments):
        base = j * (d + 1)
        for g in range(d + 1):
            for k in range(g + 1):
                G[base + g, base + k] = (
                    factorial(d - k) / (factorial(d - g) * factorial(g - k))
                )
    return G


def eval_spline(coeffs, basis: SplineBasis, x):
    """Evaluate the spline at x (scalar or array) via segment-local Horner."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.size,):
        raise ValueError(
            f"expected {basis.size} coefficients, got shape {coeffs.shape}"
        )
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    seg = basis.segment_index(x_arr)
    d = basis.degree
    t = (x_arr - basis.knots[seg]) / basis.widths[seg]
    local = coeffs.reshape(basis.segments, d + 1)[seg]
    out = local[:, d].copy()
    for k in range(d - 1, -1, -1):
        out = out * t + local[:, k]
    return float(out[0]) if np.ndim(x) == 0 else out
