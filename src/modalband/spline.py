"""C^2 cubic spline primitives in normalized segment form.

A spline on knots xi_0 < ... < xi_b is stored segment-major: segment j
(width D_j = xi_j - xi_{j-1}) carries the 4 coefficients of the local cubic

    u_j(x) = sum_k c_k<j> * t^k,   t = (x - xi_{j-1}) / D_j in [0, 1].

Segments are right-closed: a knot belongs to the segment ending at it,
except xi_0 which belongs to the first segment.  The fit's unknowns are
the b + 3 cubic B-spline coefficients on the clamped knot vector, which
``SplineBasis.null_space`` maps to segment-local powers.  This module also
builds the exact curvature penalty integral, a per-segment sufficient
condition for nonnegativity of a cubic on its segment, and the power-form
design and continuity rows that the map is checked against.  The basis
keeps the penalty and non-crossing rows in B-spline coordinates, P'QP and
GP, which depend on the knot grid alone, so every fit on a grid shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

__all__ = [
    "SplineBasis",
    "bspline_matrix",
    "design_matrix",
    "continuity_matrix",
    "penalty_matrix",
    "noncross_matrix",
    "eval_spline",
]


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, like null_space's cache
class SplineBasis:
    """Knot grid of C^2 cubic splines; owns its B-spline map and the stage-2
    penalty and non-crossing rows in B-spline coordinates, each built once."""

    knots: np.ndarray
    degree = 3  # class constants, not fields: every fit is a C^2 cubic
    smoothness = 2

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) <= 0.0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @classmethod
    def uniform(cls, lo: float, hi: float, segments: int = 20) -> "SplineBasis":
        """Equally spaced knots spanning [lo, hi]."""
        if segments < 1:
            raise ValueError(f"segments must be at least 1, got {segments}")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return cls(np.linspace(lo, hi, segments + 1))

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

    @cached_property
    def null_space(self) -> np.ndarray:
        """The map P (size x segments + 3) from B-spline coefficients to segment-local
        powers, spanning null(continuity_matrix): per segment, the 4 x 4 Vandermonde
        solve of its B-splines at t = 0, 1/3, 2/3, 1.  Read-only, as every fit shares it."""
        b, t = self.segments, np.linspace(0.0, 1.0, 4)
        rows = _bspline_rows(self, np.repeat(np.arange(b), 4), (self.widths[:, None] * t).ravel())
        P = np.linalg.solve(np.vander(t, 4, increasing=True), rows.reshape(b, 4, b + 3))
        P = P.reshape(self.size, b + 3)
        P.setflags(write=False)
        return P

    @cached_property
    def penalty(self) -> np.ndarray:
        """P'QP (segments + 3 square): ``penalty_matrix`` in B-spline coordinates.
        Read-only, built once like ``null_space``."""
        P = self.null_space
        QN = P.T @ penalty_matrix(self) @ P
        QN.setflags(write=False)
        return QN

    @cached_property
    def noncross(self) -> np.ndarray:
        """GP (size x segments + 3): ``noncross_matrix`` in B-spline coordinates.
        Read-only, built once like ``null_space``."""
        GN = noncross_matrix(self) @ self.null_space
        GN.setflags(write=False)
        return GN


def _bspline_rows(basis: SplineBasis, seg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The segments + 3 cubic B-splines on the clamped knot vector at offset
    u into segment ``seg``, by de Boor's recursion; four per row are nonzero."""
    tau = np.pad(basis.knots, 3, mode="edge")
    k = np.arange(1, 4)[:, None]
    start = basis.knots[seg]  # tau[mu], with x = start + u in [tau[mu], tau[mu + 1]]
    right = (tau[seg + 3 + k] - start) - u  # tau[mu + k] - x
    left = u - (tau[seg + 4 - k] - start)   # x - tau[mu + 1 - k]
    values = np.zeros((4, u.size))
    values[0] = 1.0
    for d in range(1, 4):
        saved = 0.0
        for r in range(d):
            term = values[r] / (right[r] + left[d - 1 - r])
            values[r] = saved + right[r] * term
            saved = left[d - 1 - r] * term
        values[d] = saved
    rows = np.zeros((u.size, basis.segments + 3))
    np.put_along_axis(rows, seg[:, None] + np.arange(4), values.T, axis=1)
    return rows


def bspline_matrix(x, basis: SplineBasis) -> np.ndarray:
    """B-spline rows: row k dotted with B-spline coefficients gives the spline at x[k]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    seg = basis.segment_index(x)
    return _bspline_rows(basis, seg, x - basis.knots[seg])


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


def continuity_matrix(basis: SplineBasis) -> np.ndarray:
    """Constraint rows forcing derivative agreement at interior knots.

    One row per interior knot and derivative order g in [0, smoothness]:
    the g-th derivative of the left segment at its right edge minus the
    g-th derivative of the right segment at its left edge.  A coefficient
    vector c is continuous to the smoothness order iff H @ c = 0.
    """
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
    block = [[factorial(d - k) / (factorial(d - g) * factorial(g - k)) if k <= g else 0.0
              for k in range(d + 1)] for g in range(d + 1)]
    return np.kron(np.eye(basis.segments), block)


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
