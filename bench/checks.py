"""Reference computations the benchmark checks modalband's outputs against.

Nothing here imports modalband: the data generators, the exact conditional
modal intervals, the kernel-weighted ECDF, the shortest-interval scan, the
kernel density and the piecewise-polynomial evaluation are written out
again from their definitions, so a fault in the program cannot hide in
the reference.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy import optimize
from scipy.special import ndtri

SQRT_2PI = math.sqrt(2.0 * math.pi)
WEIGHT_FLOOR = 1e-300  # kernel weights below this count as zero, as documented

# Tolerances, fixed before any run.
LEVEL_ATOL = 1e-9          # stage-1 levels: same arithmetic, only summation order may differ
WEIGHT_RTOL = 5e-3         # density weights f^(1/5): 2.5% on the density, which a
                           # linearly binned KDE on a few hundred bins meets
CONTINUITY_RTOL = 1e-7     # derivative jumps at knots, relative to their size
CROSSING_TOL = 1e-6        # the program's own non-crossing tolerance
CSV_RTOL = 1e-8            # CSV values carry nine significant digits
COVERAGE_Z = 4.0           # binomial standard errors allowed for held-out coverage
DENSE_GRID = 20001         # points of the grid the band is checked on


# ---------------------------------------------------------------------------
# Data-generating processes and their exact modal intervals
# ---------------------------------------------------------------------------

def dist1_mean(x):
    return (3.0 - 0.2 * x) * np.sin(np.pi * x) + 5.0


def dist1_sd(x):
    return 2.0 - 0.15 * x


def draw_dist1(n: int, rng: np.random.Generator):
    """X ~ U(0, 10), Y | x ~ N(dist1_mean(x), dist1_sd(x)^2)."""
    x = rng.uniform(0.0, 10.0, n)
    return x, rng.normal(dist1_mean(x), dist1_sd(x))


def hourly_logmean(x):
    return 1.0 + 0.3 * np.sin(2.0 * np.pi * x / 24.0)


HOURLY_LOGSD = 0.4


def hourly_x(hours: int, replicates: int = 2) -> np.ndarray:
    """Hourly covariate 0, 1, ..., hours with each hour repeated."""
    return np.repeat(np.arange(0, hours + 1, 1.0), replicates)


def draw_hourly(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Y = exp(1 + 0.3 sin(2 pi x / 24) + 0.4 eps), eps ~ N(0, 1)."""
    return np.exp(hourly_logmean(x) + rng.normal(0.0, HOURLY_LOGSD, x.size))


def normal_modal_interval(x, alpha: float):
    """Exact shortest interval of dist 1 at x: mean -/+ z sd (closed form)."""
    z = NormalDist().inv_cdf(0.5 * (1.0 + alpha))
    mu, sd = dist1_mean(x), dist1_sd(x)
    return mu - z * sd, mu + z * sd


def lognormal_modal_interval(mu, sigma: float, alpha: float):
    """Exact shortest interval of LogNormal(mu, sigma^2) holding mass alpha.

    The interval is [exp(mu + sigma z(p)), exp(mu + sigma z(p + alpha))] at
    the p minimizing its width; the minimizer does not depend on mu, so one
    bounded scalar minimization serves every x.
    """
    def width(p):
        return math.exp(sigma * ndtri(p + alpha)) - math.exp(sigma * ndtri(p))

    res = optimize.minimize_scalar(
        width, bounds=(1e-12, 1.0 - alpha - 1e-12), method="bounded",
        options={"xatol": 1e-13},
    )
    mu = np.asarray(mu, dtype=float)
    return (np.exp(mu + sigma * ndtri(res.x)),
            np.exp(mu + sigma * ndtri(res.x + alpha)))


def rmse_sum(lower, upper, true_low, true_up) -> float:
    """sqrt(mean upper error^2) + sqrt(mean lower error^2)."""
    return float(np.sqrt(np.mean((upper - true_up) ** 2))
                 + np.sqrt(np.mean((lower - true_low) ** 2)))


# ---------------------------------------------------------------------------
# Stage 1: kernel-weighted ECDF, brute-force shortest interval, direct KDE
# ---------------------------------------------------------------------------

def kernel_ecdf(x0: float, src_x: np.ndarray, src_y: np.ndarray, h: float):
    """Distinct sorted responses, their CDF and atom masses at covariate x0."""
    u = (src_x - x0) / h
    w = np.exp(-0.5 * u * u) / SQRT_2PI
    w[w < WEIGHT_FLOOR] = 0.0
    order = np.argsort(src_y, kind="stable")
    ys, ws = src_y[order], w[order]
    values, start = np.unique(ys, return_index=True)
    pw = np.add.reduceat(ws, start) / ws.sum()
    return values, np.cumsum(pw), pw


def brute_force_levels(values, cum, pw, alpha: float, block: int = 256):
    """Levels (p_low, p_up) of the narrowest closed interval with mass >= alpha.

    Scans all O(m^2) endpoint pairs; equal widths go to the smallest left
    endpoint.  Levels are clamped into (0, 1) by half the smallest positive
    atom mass (at least machine epsilon), as the method specifies.
    """
    m = values.size
    below = cum - pw  # mass strictly below each support point
    best = (math.inf, -1, -1)
    cols = np.arange(m)
    for i0 in range(0, m, block):
        rows = np.arange(i0, min(i0 + block, m))
        mass = cum[None, :] - below[rows, None]
        width = values[None, :] - values[rows, None]
        width[(mass < alpha) | (cols[None, :] < rows[:, None])] = math.inf
        k = int(np.argmin(width))  # row-major: smallest i wins a tie
        r, j = divmod(k, m)
        if width[r, j] < best[0]:
            best = (float(width[r, j]), int(rows[r]), j)
    if best[1] < 0:
        raise ValueError(f"no interval reaches mass {alpha}")
    _, i, j = best
    eps = max(0.5 * float(pw[pw > 0.0].min()), float(np.finfo(float).eps))
    return max(float(below[i]), eps), min(float(cum[j]), 1.0 - eps)


def direct_density(points: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Gaussian KDE f(p) = sum_i K((p - x_i)/h) / (n h), summed directly."""
    out = np.empty(points.size)
    for k, p in enumerate(points):
        u = (p - x) / h
        out[k] = np.exp(-0.5 * u * u).sum() / SQRT_2PI
    return out / (x.size * h)


# ---------------------------------------------------------------------------
# Stage 2: piecewise polynomials in normalized segment form
# ---------------------------------------------------------------------------

def eval_piecewise(coeffs, knots, degree: int, x) -> np.ndarray:
    """Value at x of the spline whose segment j is sum_k c[j, k] t^k,
    t = (x - knot_j) / (knot_{j+1} - knot_j)."""
    knots = np.asarray(knots, dtype=float)
    c = np.asarray(coeffs, dtype=float).reshape(knots.size - 1, degree + 1)
    x = np.asarray(x, dtype=float)
    seg = np.clip(np.searchsorted(knots, x, side="left") - 1, 0, knots.size - 2)
    t = (x - knots[seg]) / (knots[seg + 1] - knots[seg])
    powers = t[:, None] ** np.arange(degree + 1)[None, :]
    return np.einsum("ik,ik->i", powers, c[seg])


def continuity_faults(coeffs, knots, degree: int, order: int) -> list[str]:
    """Derivative jumps of order 0..order at interior knots beyond tolerance."""
    knots = np.asarray(knots, dtype=float)
    widths = np.diff(knots)
    c = np.asarray(coeffs, dtype=float).reshape(widths.size, degree + 1)
    faults = []
    for j in range(widths.size - 1):
        for g in range(order + 1):
            left = sum(c[j, k] * math.perm(k, g) for k in range(g, degree + 1)) / widths[j] ** g
            right = c[j + 1, g] * math.factorial(g) / widths[j + 1] ** g
            if abs(left - right) > CONTINUITY_RTOL * (1.0 + abs(left) + abs(right)):
                faults.append(
                    f"derivative {g} jumps by {left - right:.3e} at knot {knots[j + 1]:.6g}"
                )
    return faults


def band_faults(band: dict, min_order: int = 2) -> tuple[list[str], float]:
    """C^2 continuity and non-crossing of one band; returns (faults, margin).

    ``band`` holds ``knots``, ``degree``, ``smoothness``, ``upper`` and
    ``lower``; the margin is min(upper - lower) on a dense grid.
    """
    knots, degree = band["knots"], band["degree"]
    faults = []
    if band["smoothness"] < min_order:
        faults.append(f"band is declared C^{band['smoothness']}, not C^{min_order}")
    for name in ("upper", "lower"):
        faults += [f"{name}: {f}" for f in
                   continuity_faults(band[name], knots, degree, min_order)]
    grid = np.linspace(knots[0], knots[-1], DENSE_GRID)
    gap = (eval_piecewise(band["upper"], knots, degree, grid)
           - eval_piecewise(band["lower"], knots, degree, grid))
    margin = float(gap.min())
    if margin < -CROSSING_TOL:
        faults.append(f"crossing: lower exceeds upper by {-margin:.3e}")
    return faults, margin


def coverage_fault(inside: np.ndarray, alpha: float, n_train: int) -> str | None:
    """Held-out coverage outside alpha +/- z binomial standard errors.

    The allowance adds the binomial error of the held-out sample and that of
    a band estimated from n_train points.
    """
    cov = float(np.mean(inside))
    half = COVERAGE_Z * math.sqrt(alpha * (1.0 - alpha)) * (
        1.0 / math.sqrt(inside.size) + 1.0 / math.sqrt(n_train))
    if abs(cov - alpha) > half:
        return f"held-out coverage {cov:.4f} outside {alpha} +/- {half:.4f}"
    return None


def close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * (1.0 + np.abs(b))))
