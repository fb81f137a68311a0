"""Kernel machinery: Gaussian kernel, plug-in bandwidth selection, and
kernel-weighted conditional distributions.

Conventions:
    u = (x_i - x0) / h
    K(u) = exp(-u^2 / 2) / sqrt(2*pi)        (standard normal density)
    f_hat(x) = (1 / (n*h)) * sum_i K((x - x_i) / h)

The conditional CDF of Y given X = x0 is the kernel-weighted empirical
distribution of the responses: each observation y_i carries weight
K((x_i - x0)/h), and the weights are normalized to sum to one.  A weight
under RELATIVE_FLOOR = 2^-53 times the query's largest weight is set to
zero: it is under half an ulp of the total.  So the kernel can be cut at
a finite reach, sqrt(d^2 + 106 ln 2 h^2) from a query whose nearest
observation is d away (8.6h for d = 0).  The masses are sequential sums,
which zero weights anywhere leave unchanged bit for bit.

The bandwidth's pilot functionals read the kernel at the bin centers of an
exact histogram of all pairwise distances.  Most pairs are counted by FFT
correlation of sub-bin residue classes whose distances cannot straddle a
bin edge, and the rest one by one: linear in n for spread-out samples,
with O(n) memory.  The density weights f_hat(x_i)^(1/5) are
linearly binned on an h/32 grid and convolved by FFT, O(n log n), within
5e-5 (relative) of the exact pair sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "WeightedECDF",
    "gaussian_kernel",
    "select_bandwidth",
    "normal_reference_bandwidth",
    "conditional_cdf",
    "density_weights",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))

# Kernel weights below this are treated as exactly zero so that queries far
# outside the covariate support fail loudly instead of dividing 0 by 0.
WEIGHT_FLOOR = 1e-300

# A weight below this fraction of its query's largest weight is zero too: it
# is under half an ulp of the query's total, which it would not change.  The
# largest weight always survives, so a query still lacks support exactly when
# every weight is under WEIGHT_FLOOR.
RELATIVE_FLOOR = 2.0**-53

_PAIR_BINS = 1000  # resolution of the pairwise-distance histogram
_PAIR_BLOCK = 4096  # pairs binned one by one per step

# density-weight grid: h/32 steps, kernel cut at 12h = 384 steps, where a
# term is below exp(-72) of the self term
_GRID_PER_H = 32
_REACH = 12 * _GRID_PER_H


@dataclass(frozen=True)
class Dataset:
    """Paired covariate/response sample. Arrays are 1-d, equal length, finite."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("x and y must be one-dimensional")
        if x.size != y.size:
            raise ValueError(
                f"length mismatch: {x.size} covariate values vs {y.size} responses"
            )
        if x.size == 0:
            raise ValueError("empty dataset")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class WeightedECDF:
    """Step distribution on sorted distinct values with positive total mass.

    ``cum[k]`` is the probability mass of ``(-inf, values[k]]``; the final
    entry is exactly one.  ``point_weight[k]`` is the mass of the atom at
    ``values[k]``.
    """

    values: np.ndarray
    cum: np.ndarray
    point_weight: np.ndarray

    @classmethod
    def from_samples(cls, values, weights) -> "WeightedECDF":
        """Build the distribution from raw samples and nonnegative weights."""
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if np.any(weights < 0.0):
            raise ValueError("negative weights")
        uniq, inverse = np.unique(values, return_inverse=True)
        pooled = np.bincount(inverse, weights=weights, minlength=uniq.size)
        # sequential sums, which zero weights anywhere leave unchanged
        cum = np.cumsum(pooled)
        total = cum[-1]
        if total <= 0.0:
            raise ValueError("all weights are zero")
        return cls(values=uniq, cum=cum / total, point_weight=pooled / total)


def gaussian_kernel(u):
    """Standard normal density, elementwise."""
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * u * u) / _SQRT_2PI


# ---------------------------------------------------------------------------
# Bandwidth selection
# ---------------------------------------------------------------------------

def _robust_scale(x: np.ndarray) -> float:
    """min(sample sd, IQR/1.349); falls back to the sd when the IQR is zero.

    The quartiles are np.percentile's linear ones, to the bit, read off a
    partition: np.percentile's first call imports numpy.ma, 10-17 ms.
    """
    sd = float(x.std(ddof=1))
    at = (x.size - 1) * np.array([0.75, 0.25])
    below = np.floor(at).astype(np.intp)
    above = np.minimum(below + 1, x.size - 1)
    ordered = np.partition(x, [*below, *above])
    a, b, t = ordered[below], ordered[above], at - below
    q75, q25 = np.where(t >= 0.5, b - (b - a) * (1.0 - t), a + (b - a) * t)
    iqr = float(q75 - q25)
    if iqr > 0.0:
        return min(sd, iqr / 1.349)
    return sd


def normal_reference_bandwidth(x) -> float:
    """Normal-reference rule h = 1.06 * sigma_hat * n^(-1/5)."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 points for a bandwidth")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate sample: all covariate values are identical")
    return 1.06 * _robust_scale(x) * n ** (-0.2)


def _pair_counts(x: np.ndarray, nbins: int):
    """Exact histogram of pairwise distances |x_i - x_j| over i < j.

    The counts equal those of ``np.histogram`` with ``nbins`` bins over
    [0, span].  Returns bin-center distances and pair counts; the diagonal
    (i = j) is excluded and added analytically by the functional estimators,
    which read the kernel at the bin centers.

    Equal values are distance 0 and go in bin 0.  Each of the m distinct
    values u goes in sub-cell sigma = floor((u - u_0) nbins S / span), S
    of them to a bin, where S is the power of two nearest m / 32 (at least
    4); sigma = G S + rho splits it into a bin cell G and a residue rho.

    For u_i < u_j whose residues differ by delta = 2 .. S-2 cyclically,
    sigma_j - sigma_i = q S + delta with q = G_j - G_i - [rho_j < rho_i],
    so (u_j - u_i) nbins / span lies in (q + 1/S, q + 1 - 1/S): at least a
    sub-cell, span / (nbins S), from either edge of bin q.  The rounding
    of the two sigmas, of fl(u_j - u_i) and of the linspace edges is at
    most 9 * 2^-53 span in all, under 2^-9 of a sub-cell while
    nbins S <= 2^40, so such a pair is in bin q.  These pairs are counted
    by lag: each residue group's bin-cell histogram is transformed once
    (length 2 nbins), correlated with the groups at least two residues
    below, and one inverse transform gives the lag sums.  They are
    integers below n^2 whose float error is about log2(2 nbins) 2^-52 n^2
    at most (2.4e-5 at n = 10^5; 2.2e-6 was the largest seen there, on
    lognormal and Cauchy draws), so rounding recovers them exactly for n
    up to about 10^7.

    The other pairs, within a residue group or between cyclically
    adjacent groups, about 3 m^2 / (2 S) of them, are binned one by one by
    np.histogram's rule, in blocks of at most _PAIR_BLOCK pairs (or one
    value's partners).  With groups of about 32 values, both parts grow
    linearly in m for spread-out values, with O(n + nbins) memory; values
    that all sit near bin edges put every pair in the second part, O(m^2)
    as before.
    """
    u, mult = np.unique(x, return_counts=True)
    m = u.size
    span = float(u[-1] - u[0])
    weight = mult.astype(float)
    counts = np.zeros(nbins)
    counts[0] = weight @ (weight - 1.0) / 2.0  # equal values

    # the values in order of residue, then of value, and group 0 again
    # after group S-1; group g is values[bounds[g]:bounds[g+1]]
    S = 1 << max(2, round(math.log2(m / 32.0)))
    sigma = ((u - u[0]) * (nbins * S / span)).astype(np.intp)
    np.minimum(sigma, nbins * S - 1, out=sigma)  # the top value sits on the closed edge
    order = np.argsort(sigma % S, kind="stable")
    sigma = sigma[order]
    bounds = np.searchsorted(sigma % S, np.arange(S + 1))
    order = np.concatenate([order, order[:bounds[1]]])
    values, weights = u[order], weight[order]
    del u, mult, weight, order  # bounds the peak memory

    # residue gaps 2 .. S-2: group g against the groups r <= g-2 before it.
    # Lag q >= 0 puts the upper value in group g, in bin q; lag -k puts it
    # in group r, in bin k-1.  Group 0 is next to group S-1.
    length = 2 * nbins
    spectrum = np.zeros(nbins + 1, dtype=complex)
    before = np.zeros(nbins + 1, dtype=complex)  # transforms of groups <= g-2
    first = previous = 0.0
    for g in range(S):
        lo, hi = bounds[g], bounds[g + 1]
        hist = np.bincount(sigma[lo:hi] // S, weights[lo:hi], minlength=nbins)
        current = np.fft.rfft(hist, length)
        spectrum += np.conj(before - first if g == S - 1 else before) * current
        before += previous
        previous = current
        if g == 0:
            first = current
    lags = np.rint(np.fft.irfft(spectrum, length))
    counts += lags[:nbins]
    counts[:-1] += lags[:nbins:-1]
    del sigma

    # residue gaps 0 and 1: a value's partners are the rest of its group
    # and the next group, one run of the order above
    runs = np.repeat(np.append(bounds[2:], m + bounds[1]), np.diff(bounds))
    runs -= np.arange(1, m + 1)
    done = np.concatenate([[0], np.cumsum(runs)])
    # the bins of np.histogram over [0, span]: edges[k] <= d < edges[k+1],
    # with the last bin closed
    inner = np.linspace(0.0, span, nbins + 1)[1:-1]
    a = 0
    while a < m:
        b = max(a + 1, int(np.searchsorted(done, done[a] + _PAIR_BLOCK, "right")) - 1)
        i = np.repeat(np.arange(a, b), runs[a:b])
        j = np.repeat(done[a:b], runs[a:b])
        np.subtract(np.arange(done[a], done[b]), j, out=j)  # place in the run
        j += i
        j += 1
        d = values[j]
        d -= values[i]
        np.abs(d, out=d)
        w = weights[j]
        w *= weights[i]
        counts += np.bincount(np.searchsorted(inner, d, "right"), w, minlength=nbins)
        a = b
    centers = (np.arange(nbins) + 0.5) * (span / nbins)
    return centers, counts


def _psi_sum(r: int, g: float, centers: np.ndarray, counts: np.ndarray, n: int) -> float:
    """Pilot estimate of psi_r, the integral of f^(r) f, at bandwidth g.

    psi_4 is the integrated squared second density derivative and psi_6
    minus the squared third's.  K^(r)(u) = He_r(u) K(u) for even r.  Where
    g^(r+1) overflows or underflows the estimate is not finite, not an error.
    """
    hermite = {4: lambda u: u**4 - 6.0 * u**2 + 3.0,
               6: lambda u: u**6 - 15.0 * u**4 + 45.0 * u**2 - 15.0}[r]
    u = centers / g
    term = hermite(u) * np.exp(-0.5 * u * u) / _SQRT_2PI
    s = 2.0 * float(counts @ term) + n * hermite(0.0) / _SQRT_2PI
    with np.errstate(all="ignore"):
        return float(s / (n * (n - 1) * np.float64(g) ** (r + 1)))


def _find_root(f, lo: float, hi: float, xtol: float = 0.0, maxiter: int = 200) -> float:
    """Root of f on a bracket [lo, hi] whose end values differ in sign.

    Illinois regula falsi: step to where the chord crosses zero (to the
    midpoint when that is not strictly inside), keep the half that changes
    sign, and halve the stored value of an end kept twice running.  Stops
    at a bracket at most ``xtol`` wide or with no float inside, at a zero,
    or after ``maxiter`` steps; returns NaN where f is not finite.
    """
    flo, fhi = f(lo), f(hi)
    kept = 0  # -1: lo moved last, 1: hi moved last
    for _ in range(maxiter):
        if hi - lo <= xtol:
            break
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if not np.isfinite(fx):
            return np.nan
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, fx
            if kept == 1:
                flo *= 0.5
            kept = 1
    return 0.5 * (lo + hi)


def select_bandwidth(x) -> float:
    """Solve-the-equation plug-in bandwidth for a Gaussian kernel.

    Solves h = [ R(K) / (n * psi4(g(h)) ) ]^(1/5) where the pilot bandwidth
    g(h) is calibrated from pairwise-distance functionals of the sample.
    Falls back to the normal-reference rule when the root search fails.

    Parameters
    ----------
    x : array_like
        Sample of covariate values, at least 10 points, not all identical.

    Returns
    -------
    float
        Selected bandwidth, always strictly positive.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise ValueError(f"need at least 10 points to select a bandwidth, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite values in sample")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate sample: all covariate values are identical")

    h = _plug_in_root(x, n, sd)
    if not np.isfinite(h) or h <= 0.0:
        return normal_reference_bandwidth(x)
    return float(h)


def _plug_in_root(x: np.ndarray, n: int, sd: float) -> float:
    """Root of the plug-in equation; NaN for a pilot functional that is not
    positive, an undefined bracket end or inner point, or no bracket."""
    scale = _robust_scale(x)
    centers, counts = _pair_counts(x, _PAIR_BINS)

    a = 1.24 * scale * n ** (-1.0 / 7.0)
    b = 1.23 * scale * n ** (-1.0 / 9.0)
    td = -_psi_sum(6, b, centers, counts, n)
    sda = _psi_sum(4, a, centers, counts, n)
    if not np.isfinite(td) or td <= 0.0 or not np.isfinite(sda) or sda <= 0.0:
        return np.nan
    alpha2 = 1.357 * (sda / td) ** (1.0 / 7.0)

    def gap(h: float) -> float:
        psi = _psi_sum(4, alpha2 * h ** (5.0 / 7.0), centers, counts, n)
        if not np.isfinite(psi) or psi <= 0.0:
            return np.nan
        return (1.0 / (2.0 * np.sqrt(np.pi) * n * psi)) ** 0.2 - h

    hmax = 1.144 * sd * n ** (-0.2)
    lo, hi = 0.1 * hmax, hmax
    flo, fhi = gap(lo), gap(hi)
    for attempt in range(99):
        if not (np.isfinite(flo) and np.isfinite(fhi)):
            return np.nan
        if flo * fhi <= 0.0:
            return _find_root(gap, lo, hi, xtol=1e-12 * scale)
        if attempt % 2 == 0:
            hi *= 1.2
            fhi = gap(hi)
        else:
            lo /= 1.2
            flo = gap(lo)
    return np.nan


# ---------------------------------------------------------------------------
# Conditional distribution and observation weights
# ---------------------------------------------------------------------------

def _check_bandwidth(h: float) -> None:
    """Refuse a bandwidth that is not a positive finite number."""
    if not 0.0 < h < np.inf:  # False for NaN
        raise ValueError(f"bandwidth must be positive and finite, got {h}")


def conditional_cdf(x0: float, data: Dataset, h: float) -> WeightedECDF:
    """Kernel-weighted empirical distribution of Y at the covariate value x0.

    Parameters
    ----------
    x0 : float
        Query point; must carry nonzero kernel mass from the sample.
    data : Dataset
        Observed sample.
    h : float
        Kernel bandwidth, strictly positive.

    Returns
    -------
    WeightedECDF
        Conditional step distribution of the responses at x0.
    """
    _check_bandwidth(h)
    if not np.isfinite(x0):
        raise ValueError("query point must be finite")
    w = gaussian_kernel((data.x - x0) / h)
    w[w < max(WEIGHT_FLOOR, RELATIVE_FLOOR * w.max())] = 0.0
    if w.sum() <= 0.0:
        raise ValueError(
            f"no kernel support at x0={x0}: all weights underflow at bandwidth {h}"
        )
    return WeightedECDF.from_samples(data.y, w)


def density_weights(data: Dataset, h: float) -> np.ndarray:
    """Observation weights w_i = f_hat(x_i)^(1/5) from the covariate KDE.

    Points in dense covariate regions receive larger weights; the power
    1/5 compresses the dynamic range.

    The density is linearly binned on a grid of step h/32, convolved with
    the kernel sampled out to 12h, and read back at each x_i with the same
    two linear weights.  Gaps wider than the kernel reach are shrunk by a
    whole number of steps first, so the grid has at most about 390 points
    per observation whatever the covariate span.
    """
    _check_bandwidth(h)
    x = data.x
    n = x.size
    order = np.argsort(x)
    t = x[order]
    t -= t[0]
    t /= h / _GRID_PER_H  # grid coordinates; sorted, starting at 0
    # shrink each gap wider than reach + 3 steps to just under that: the
    # grid points on its two sides stay more than the reach apart, so the
    # cut kernel joins none of them, as it would not have before
    cut = np.maximum(np.floor(np.diff(t)) - (_REACH + 2), 0.0)
    t[1:] -= np.cumsum(cut)
    k = t.astype(np.intp)
    frac = t - k
    size = int(k[-1]) + 2
    counts = (np.bincount(k, 1.0 - frac, minlength=size)
              + np.bincount(k + 1, frac, minlength=size))
    # circular convolution: a length of at least size + reach keeps the
    # wrapped terms off every grid point that is read back
    length = 1 << (size + _REACH - 1).bit_length()
    lag = np.arange(_REACH + 1) / _GRID_PER_H
    kernel = np.zeros(length)
    kernel[:_REACH + 1] = np.exp(-0.5 * lag * lag)
    kernel[length - _REACH:] = kernel[_REACH:0:-1]
    grid = np.fft.irfft(np.fft.rfft(counts, length) * np.fft.rfft(kernel), length)
    dens = np.empty(n)
    dens[order] = (1.0 - frac) * grid[k] + frac * grid[k + 1]
    dens /= n * h * _SQRT_2PI
    return dens**0.2
