"""Shortest covering intervals of weighted step distributions.

The modal interval at level alpha is the narrowest interval holding at
least mass alpha.  Candidate endpoints are the atoms of positive mass;
interval mass is counted on the closed interval, so the left endpoint's
atom is included.  Ties in width are broken toward the smallest left
endpoint.

The scan behind :func:`estimate_levels_all` and :func:`estimate_intervals_at`
takes each distinct query value once, 64 to a block in order of x,
against the source sample of :func:`_capped_source`: every observation
up to 1000 of them, and above that a seeded 1000-point subsample plus
each observation it leaves without kernel support.  A block visits one
run of the sources sorted by x, from its queries' smallest left reach to
their largest right reach, and the distinct responses among them: every
weight beyond a query's reach is under the relative floor of :mod:`.kde`,
so it is zero.  The masses are sequential sums, which zero weights, left
out or not, do not change, and a zero-mass atom is no endpoint, so the
scan's endpoints and levels equal, bit for bit, those of
:func:`shortest_interval` and :func:`mi_quantile_levels` on one
``conditional_cdf`` per query, which stay as the per-query reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kde import (
    _SQRT_2PI,
    RELATIVE_FLOOR,
    WEIGHT_FLOOR,
    Dataset,
    WeightedECDF,
    _check_bandwidth,
    _find_root,
    conditional_cdf,
    gaussian_kernel,
)

__all__ = [
    "ModalInterval",
    "QuantileLevelSet",
    "shortest_interval",
    "mi_quantile_levels",
    "estimate_levels_all",
    "estimate_intervals_at",
    "true_mi_normal",
    "true_mi_lognormal",
]

_QUERY_BLOCK = 64  # queries per kernel block of the level scan
_SOURCE_SIZE = 1000  # above this many observations, stage 1 draws a subsample this size

# Kernel exponents below this give weights under WEIGHT_FLOOR / e, which the
# floor zeroes anyway; clamping them there keeps np.exp out of the subnormal
# range, where it leaves its fast vector path.
_MIN_EXPONENT = float(np.log(WEIGHT_FLOOR * _SQRT_2PI)) - 1.0


@dataclass(frozen=True)
class ModalInterval:
    """Interval [low, up] requested to hold mass at least ``coverage``."""

    low: float
    up: float
    coverage: float

    @property
    def width(self) -> float:
        return self.up - self.low


@dataclass(frozen=True)
class QuantileLevelSet:
    """Per-observation quantile levels of the two interval endpoints."""

    p_low: np.ndarray
    p_up: np.ndarray

    def __post_init__(self):
        p_low = np.asarray(self.p_low, dtype=float)
        p_up = np.asarray(self.p_up, dtype=float)
        if p_low.shape != p_up.shape or p_low.ndim != 1:
            raise ValueError("level arrays must be 1-d and of equal length")
        if np.any(p_low <= 0.0) or np.any(p_up >= 1.0) or np.any(p_low >= p_up):
            raise ValueError("levels must satisfy 0 < p_low < p_up < 1")
        object.__setattr__(self, "p_low", p_low)
        object.__setattr__(self, "p_up", p_up)

    def __len__(self) -> int:
        return self.p_low.size


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"coverage level must lie in (0, 1), got {alpha}")


def _shortest_indices(values, cum, pw, alpha):
    """Index pair (i, j) of the narrowest closed interval with mass >= alpha.

    Two-pointer sweep: the smallest feasible j is nondecreasing in i because
    closed-interval mass cum[j] - cum[i] + pw[i] shrinks as i advances.
    """
    m = values.size
    best = None
    j = 0
    for i in range(m):
        if pw[i] == 0.0:
            continue  # a zero-mass atom is no endpoint
        if j < i:
            j = i
        ci = cum[i] - pw[i]
        while j < m and cum[j] - ci < alpha:
            j += 1
        if j == m:
            break  # larger i only lowers the mass further
        width = values[j] - values[i]
        if best is None or width < best[0]:
            best = (width, i, j)
    if best is None:
        raise ValueError(f"no interval reaches coverage {alpha}")
    return best[1], best[2]


def shortest_interval(ecdf: WeightedECDF, alpha: float) -> ModalInterval:
    """Narrowest closed interval with mass at least alpha.

    Endpoints are atoms of positive mass; equal-width ties go to the
    smallest left endpoint.  A single atom carrying mass >= alpha
    yields a zero-width interval.
    """
    _check_alpha(alpha)
    i, j = _shortest_indices(ecdf.values, ecdf.cum, ecdf.point_weight, alpha)
    return ModalInterval(float(ecdf.values[i]), float(ecdf.values[j]), alpha)


def _levels_at_indices(cum, pw, i, j):
    """Quantile levels of interval endpoints, clamped away from {0, 1}.

    One distribution per row of ``cum``/``pw``, one index pair per entry
    of ``i``/``j``.
    """
    # half the smallest positive weight, floored so 1 - eps < 1 holds in
    # float64 even when far-tail kernel weights underflow.  A lone atom
    # (weight 1) takes the floor too, as it does when its neighbours carry
    # weights under machine epsilon.
    smallest = np.min(pw, axis=1, where=pw > 0.0, initial=np.inf)
    smallest[smallest == 1.0] = 0.0
    eps = np.maximum(0.5 * smallest, np.finfo(float).eps)
    rows = np.arange(cum.shape[0])
    p_up = np.minimum(cum[rows, j], 1.0 - eps)
    p_low = np.maximum(cum[rows, i] - pw[rows, i], eps)
    return p_low, p_up


def mi_quantile_levels(ecdf: WeightedECDF, mi: ModalInterval):
    """Quantile levels (p_low, p_up) of the interval endpoints under ecdf.

    p_up is the CDF value at the upper endpoint; p_low is the CDF value
    just below the lower endpoint, so that p_up - p_low equals the closed
    interval's mass.  Both are clamped into (0, 1) by half the smallest
    point weight (machine epsilon for a lone atom) so downstream quantile
    losses stay non-degenerate.
    """
    values = ecdf.values
    i = int(np.searchsorted(values, mi.low))
    j = int(np.searchsorted(values, mi.up))
    if i >= values.size or values[i] != mi.low:
        raise ValueError(f"lower endpoint {mi.low} is not a support point")
    if j >= values.size or values[j] != mi.up:
        raise ValueError(f"upper endpoint {mi.up} is not a support point")
    p_low, p_up = _levels_at_indices(ecdf.cum[None], ecdf.point_weight[None], i, j)
    return float(p_low[0]), float(p_up[0])


# ---------------------------------------------------------------------------
# Per-observation interval scan
# ---------------------------------------------------------------------------

def _nearest_gap(xs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Distance from each x0 to its nearest point of the sorted ``xs``."""
    k = np.searchsorted(xs, x0)
    left, right = xs[np.maximum(k - 1, 0)], xs[np.minimum(k, xs.size - 1)]
    return np.minimum(np.abs(x0 - left), np.abs(right - x0))


def _capped_source(data: Dataset, h: float, rng) -> Dataset:
    """Source sample of the conditional distributions at bandwidth h.

    Up to _SOURCE_SIZE observations it is the data.  Above, it is a seeded
    subsample of that size plus every observation whose nearest subsample
    point is beyond the kernel's nonzero reach, in data order, so each
    observation still supports its own conditional distribution.
    """
    n = len(data)
    if n <= _SOURCE_SIZE:
        return data
    keep = np.zeros(n, dtype=bool)
    keep[np.random.default_rng(rng).choice(n, size=_SOURCE_SIZE, replace=False)] = True
    keep |= gaussian_kernel(_nearest_gap(np.sort(data.x[keep]), data.x) / h) < WEIGHT_FLOOR
    return Dataset(data.x[keep], data.y[keep])


class _Block:
    """Work arrays of the level scan, allocated once per scan.

    They hold ``rows`` queries against the ``n`` sources of the widest
    window, with at most ``m`` distinct responses.  :meth:`view` lays a
    smaller block over the leading elements of each, so every block's
    arrays are contiguous, and every block writes into them with ``out=``:
    the scan does not return rows x m temporaries to the allocator per block.
    """

    _PER_SOURCE = ("u", "w", "floored", "bins")
    _PER_VALUE = ("pw", "below", "spare", "first", "at", "wrong", "mask")

    def __init__(self, rows: int, n: int, m: int):
        self.u = np.empty((rows, n))             # scaled source-query distances
        self.w = np.empty((rows, n))             # kernel exponents, then weights
        self.floored = np.empty((rows, n), bool)  # weights under the row's floor
        self.bins = np.empty((rows, n), np.intp)  # pooling bin of each weight
        self.pw = np.empty((rows, m))
        self.edged = np.empty((rows, m + 2))
        self.below = np.empty((rows, m))
        self.spare = np.empty((rows, m))         # targets, checked masses, widths
        self.first = np.empty((rows, m), np.intp)
        self.at = np.empty((rows, m), np.intp)   # gather indices, then j
        self.wrong = np.empty((rows, m), bool)
        self.mask = np.empty((rows, m), bool)

    def view(self, rows: int, n: int, m: int) -> "_Block":
        def lead(a, cols):
            return a.reshape(-1)[:rows * cols].reshape(rows, cols)

        view = object.__new__(_Block)
        for name in self._PER_SOURCE:
            setattr(view, name, lead(getattr(self, name), n))
        for name in self._PER_VALUE:
            setattr(view, name, lead(getattr(self, name), m))
        # each row holds [-inf, cum, inf], so a search index k reads cum[k]
        # at k + 1 and both neighbours exist
        view.edged = lead(self.edged, m + 2)
        view.edged[:, 0] = -np.inf
        view.edged[:, -1] = np.inf
        view.offset = ((m + 2) * np.arange(rows) + 1)[:, None]  # row starts in edged
        return view


def _shortest_rows(values, cum, pw, alpha):
    """The pair (i, j) of :func:`_shortest_indices` for every row of cum/pw.

    Rows are distributions on the same support ``values``; j is
    ``values.size`` in a row where no interval reaches alpha.
    """
    rows, m = pw.shape
    block = _Block(rows, 0, m).view(rows, 0, m)
    block.edged[:, 1:-1] = cum
    block.pw[...] = pw
    return _shortest_in_block(values, block, alpha)


def _shortest_in_block(values, b: _Block, alpha):
    """:func:`_shortest_rows` on the rows of ``b.edged`` and ``b.pw``."""
    rows, m = b.pw.shape
    cum = b.edged[:, 1:-1]
    np.subtract(cum, b.pw, out=b.below)  # mass left of each candidate low end
    np.add(b.below, alpha, out=b.spare)
    for r in range(rows):
        b.first[r] = cum[r].searchsorted(b.spare[r])
    # rounding can make cum[j] >= below + alpha disagree with the sweep's
    # closed-mass test cum[j] - below >= alpha, so check the test on both
    # sides of each j (with cum[-1] = -inf and cum[m] = inf) and redo the
    # entries that fail it
    # every take uses mode="clip" (the indices are in range): under the
    # default mode, take writes through a temporary copy of out
    edged = b.edged.reshape(-1)
    np.add(b.first, b.offset, out=b.at)
    np.take(edged, b.at, out=b.spare, mode="clip")
    np.subtract(b.spare, b.below, out=b.spare)
    np.less(b.spare, alpha, out=b.wrong)
    np.subtract(b.at, 1, out=b.at)
    np.take(edged, b.at, out=b.spare, mode="clip")
    np.subtract(b.spare, b.below, out=b.spare)
    np.greater_equal(b.spare, alpha, out=b.mask)
    np.logical_or(b.wrong, b.mask, out=b.wrong)
    if b.wrong.any():  # rare, and a 2-d nonzero costs more than the check
        for r, k in zip(*np.nonzero(b.wrong)):
            b.first[r, k] = np.searchsorted(cum[r] - b.below[r, k], alpha)
    # the sweep skips zero-mass atoms, never moves j left of i or of the
    # previous j, and stops once j reaches m
    np.equal(b.pw, 0.0, out=b.mask)
    np.copyto(b.first, 0, where=b.mask)
    np.maximum(b.first, np.arange(m), out=b.first)
    j = np.maximum.accumulate(b.first, axis=1, out=b.at)
    np.copyto(j, m, where=b.mask)
    width = np.take(np.append(values, np.inf), j, out=b.spare, mode="clip")
    np.subtract(width, values, out=width)
    i = np.argmin(width, axis=1)  # leftmost of equal widths
    return i, j[np.arange(rows), i]


def _windows(source_x: np.ndarray, x0: np.ndarray, h: float):
    """Query slice and source window of each block of the level scan.

    ``x0`` holds sorted, distinct, finite queries, taken _QUERY_BLOCK at a
    time.  A query's weights fall below RELATIVE_FLOOR times its largest
    weight, which sits at its nearest source (distance d), beyond the reach
    h * sqrt((d/h)^2 - 2 ln RELATIVE_FLOOR).  A block's window is the run
    of sources sorted by x from its queries' smallest left reach to their
    largest right reach, in source order: every weight outside it, and
    every weight inside it beyond its own query's reach, is zero after the
    floor.  Returns a list of (slice, window) pairs.
    """
    order = np.argsort(source_x, kind="stable")
    xs = source_x[order]
    d = _nearest_gap(xs, x0)
    # the pad covers the kernel's rounding, which moves a weight at the
    # reach by ~1e-14 of itself; x0 +- reach rounds to the float nearest
    # it, so no source between it and the exact bound is missed
    reach = h * np.sqrt((d / h) ** 2 - 2.0 * np.log(RELATIVE_FLOOR)) * (1.0 + 2.0**-20)
    starts = np.arange(0, x0.size, _QUERY_BLOCK)
    lo = np.minimum.reduceat(np.searchsorted(xs, x0 - reach, "left"), starts)
    hi = np.maximum.reduceat(np.searchsorted(xs, x0 + reach, "right"), starts)
    return [(slice(s, s + _QUERY_BLOCK), np.sort(order[a:b]))
            for s, a, b in zip(starts, lo, hi)]


def _scan(data: Dataset, queries: np.ndarray, alpha: float, h: float, rng):
    """Rows low, up, p_low, p_up of the conditional shortest interval at
    each query covariate, from the source sample of :func:`_capped_source`.

    Each block of :func:`_windows` forms the kernel weights of its window,
    floors them as :func:`conditional_cdf` does, and pools them onto the
    window's distinct responses in source order.  The sources and
    responses it leaves out, like the window's sources beyond a query's
    reach, carry zero weight, which changes no sequential sum of
    ``WeightedECDF.from_samples``, so the levels equal those of one
    conditional CDF per query to the last bit.
    """
    _check_alpha(alpha)
    _check_bandwidth(h)
    source = _capped_source(data, h, rng)
    values, inverse = np.unique(source.y, return_inverse=True)
    failing = ~np.isfinite(queries)
    # the first failing query in the caller's order decides the error, so
    # the queries after the first non-finite one need no scan; replicated
    # queries share one scan row
    scanned = queries[:np.argmax(failing)] if failing.any() else queries
    distinct, back = np.unique(scanned, return_inverse=True)
    windows = _windows(source.x, distinct, h)
    widest = max((window.size for _, window in windows), default=0)
    full = _Block(min(_QUERY_BLOCK, distinct.size), widest, min(widest, values.size))
    out = np.empty((4, distinct.size))
    failed = np.zeros(distinct.size, bool)
    for block, window in windows:
        x0 = distinct[block]
        rows = x0.size
        support, local = np.unique(inverse[window], return_inverse=True)
        b = full.view(rows, window.size, support.size)
        # gaussian_kernel((source.x - x0) / h), floored as in conditional_cdf
        np.subtract(source.x[window], x0[:, None], out=b.u)
        np.divide(b.u, h, out=b.u)
        np.multiply(b.u, -0.5, out=b.w)
        np.multiply(b.w, b.u, out=b.w)
        np.maximum(b.w, _MIN_EXPONENT, out=b.w)
        np.exp(b.w, out=b.w)
        np.divide(b.w, _SQRT_2PI, out=b.w)
        floor = np.maximum(RELATIVE_FLOOR * b.w.max(axis=1), WEIGHT_FLOOR)
        np.less(b.w, floor[:, None], out=b.floored)
        np.copyto(b.w, 0.0, where=b.floored)
        # row r pools its weights into bins r*m to r*m + m - 1 of the support
        np.add(local, support.size * np.arange(rows)[:, None], out=b.bins)
        # np.bincount, not np.add.at into b.pw: add.at is slow before numpy 1.25
        pooled = np.bincount(b.bins.ravel(), weights=b.w.ravel(), minlength=b.pw.size)
        pooled = pooled.reshape(b.pw.shape)
        # WeightedECDF.from_samples on each row: the total is the last
        # cumulative sum, not a separate (pairwise) row sum
        cum = np.cumsum(pooled, axis=1, out=b.edged[:, 1:-1])
        total = cum[:, -1].copy()
        supported = total > 0.0
        total[~supported] = 1.0
        np.divide(pooled, total[:, None], out=b.pw)
        np.divide(cum, total[:, None], out=cum)
        i, j = _shortest_in_block(values[support], b, alpha)
        failed[block] = ~supported | (j == support.size)
        if failed[block].any():
            continue
        out[2, block], out[3, block] = _levels_at_indices(cum, b.pw, i, j)
        out[0, block], out[1, block] = values[support[i]], values[support[j]]
    failing[:back.size] |= failed[back]
    if failing.any():
        # the per-query reference raises the error of the first failing
        # query in the caller's order
        x_bad = float(queries[np.argmax(failing)])
        shortest_interval(conditional_cdf(x_bad, source, h), alpha)
        raise RuntimeError(f"the level scan and its reference disagree at x0={x_bad}")
    return out[:, back]


def estimate_levels_all(data: Dataset, alpha: float, h: float, rng=0) -> QuantileLevelSet:
    """Quantile levels of the conditional shortest interval at every x_i.

    For each observation the conditional distribution of Y at x_i is formed
    by kernel weighting, its shortest interval with mass alpha is located,
    and the interval endpoints are converted to quantile levels.  Above
    1000 observations the conditional distributions are built from a seeded
    random subsample of 1000, plus each observation that the subsample
    leaves without kernel support; levels are still produced at all n
    observation points.

    Parameters
    ----------
    data : Dataset
        Observed sample.
    alpha : float
        Target coverage in (0, 1).
    h : float
        Kernel bandwidth.
    rng : int, sequence of ints, or numpy Generator
        Seed for the subsample draw; ignored when n <= 1000.
    """
    _, _, p_low, p_up = _scan(data, data.x, alpha, h, rng)
    return QuantileLevelSet(p_low=p_low, p_up=p_up)


def estimate_intervals_at(data: Dataset, queries, alpha: float, h: float, rng=0):
    """Conditional shortest-interval endpoints at arbitrary query covariates.

    Returns (low, up) arrays aligned with ``queries``.  This is the direct
    kernel-CDF interval estimate, with no smoothing stage on top.
    ``queries`` is a scalar or a 1-d array.
    """
    queries = np.asarray(queries, dtype=float)
    if queries.ndim > 1:
        raise ValueError(f"queries must be a scalar or a 1-d array, got shape {queries.shape}")
    queries = np.atleast_1d(queries)
    low, up, _, _ = _scan(data, queries, alpha, h, rng)
    return low, up


# ---------------------------------------------------------------------------
# Exact intervals for known conditional distributions
# ---------------------------------------------------------------------------

def true_mi_normal(mu: float, sigma: float, alpha: float) -> ModalInterval:
    """Shortest interval with mass alpha of a normal distribution.

    By symmetry and unimodality it is centered at the mean:
    [mu - z*sigma, mu + z*sigma] with z the (1+alpha)/2 normal quantile.
    """
    _check_alpha(alpha)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    from statistics import NormalDist  # 3-5 ms to import, so not on every command's path

    z = NormalDist().inv_cdf(0.5 * (1.0 + alpha))
    return ModalInterval(mu - z * sigma, mu + z * sigma, alpha)


def true_mi_lognormal(mu: float, sigma: float, alpha: float) -> ModalInterval:
    """Shortest interval with mass alpha of a log-normal distribution.

    The density is equal at both ends of the shortest interval, which on
    the standard-normal scale z = (log y - mu) / sigma means
    z_low + z_up = -2 sigma.  Along that line the mass
    Phi(z_up) - Phi(z_low) rises from 0 to 1 as z_low falls from -sigma,
    so z_low is the root of a bracketed, monotone equation.
    """
    _check_alpha(alpha)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    from statistics import NormalDist

    standard = NormalDist()
    cdf = standard.cdf

    def excess_mass(z_low):
        return cdf(-2.0 * sigma - z_low) - cdf(z_low) - alpha

    # at this z_low each tail holds at most (1 - alpha)/2, so the mass is >= alpha
    far = standard.inv_cdf(0.5 * (1.0 - alpha)) - 2.0 * sigma
    z_low = _find_root(excess_mass, far, -sigma)
    low, up = np.exp(mu + sigma * np.array([z_low, -2.0 * sigma - z_low]))
    return ModalInterval(float(low), float(up), alpha)
