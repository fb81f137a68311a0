"""Band quality metrics and penalty selection by cross-validation.

The selection score is coverage-penalized width: normalized mean width
when empirical coverage reaches the target, exponentially inflated when
it falls short.  Lower is better.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .intervals import _check_alpha
from .kde import Dataset
from .pipeline import _basis_for, _check_seed, run_step1, run_step2
from .solver import FittedBand, _check_iters, _check_penalty_grid
from .spline import SplineBasis

__all__ = [
    "BandMetrics",
    "CvResult",
    "band_metrics",
    "mcwc_score",
    "rmse_bounds",
    "select_lambda_cv",
]

ETA = 20.0  # the criterion's penalty rate per unit of coverage shortfall


@dataclass(frozen=True)
class BandMetrics:
    """Coverage and width summaries of a band on a test set."""

    micp: float        # fraction of test points inside the band
    nmmiw: float       # mean width normalized by the test response range
    mcwc: float        # coverage-penalized width criterion (lower is better)
    aiw: float         # mean width, unnormalized
    n_used: int        # test points inside the fitted covariate domain
    n_outside: int     # test points dropped for lying outside it


def mcwc_score(nmmiw: float, micp: float, alpha: float) -> float:
    """Coverage-penalized width: nmmiw, inflated by exp(-ETA*(micp - alpha))
    when coverage misses the target."""
    if micp >= alpha:
        return nmmiw
    return nmmiw * float(np.exp(-ETA * (micp - alpha)))


def band_metrics(band: FittedBand, test: Dataset, alpha: float) -> BandMetrics:
    """Evaluate a fitted band on held-out data.

    Test points outside the fitted knot range are dropped and counted.
    The response range used for normalization is taken over the retained
    test points and must be positive.  The criterion ``mcwc`` is
    :func:`mcwc_score`, at the penalty rate ``ETA``.
    """
    lo, hi = band.basis.knots[0], band.basis.knots[-1]
    inside = (test.x >= lo) & (test.x <= hi)
    n_outside = int((~inside).sum())
    if n_outside:
        warnings.warn(
            f"dropping {n_outside} test points outside the fitted range "
            f"[{lo}, {hi}]",
            RuntimeWarning,
            stacklevel=2,
        )
    x, y = test.x[inside], test.y[inside]
    if x.size == 0:
        raise ValueError("no test points inside the fitted covariate range")
    y_range = float(y.max() - y.min())
    if y_range <= 0.0:
        raise ValueError("test responses have zero range")

    micp, aiw = _coverage_and_width(y, band.lower_at(x), band.upper_at(x))
    nmmiw = aiw / y_range
    return BandMetrics(
        micp=micp,
        nmmiw=nmmiw,
        mcwc=mcwc_score(nmmiw, micp, alpha),
        aiw=aiw,
        n_used=int(x.size),
        n_outside=n_outside,
    )


def _coverage_and_width(y, lower, upper):
    """Fraction of y inside [lower, upper], and the mean width."""
    return float(np.mean((y >= lower) & (y <= upper))), float(np.mean(upper - lower))


def _bound_rmse(lower, upper, truth) -> float:
    """Upper-curve RMSE plus lower-curve RMSE against truth rows (x, low, up)."""
    return float(np.sqrt(np.mean((upper - truth[:, 2]) ** 2))
                 + np.sqrt(np.mean((lower - truth[:, 1]) ** 2)))


def rmse_bounds(band: FittedBand, truth) -> float:
    """Sum of the two bound-curve RMSEs against exact interval endpoints.

    ``truth`` is an array of rows (x, low, up); the score is
    sqrt(mean (upper errors)^2) + sqrt(mean (lower errors)^2).
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim != 2 or truth.shape[1] != 3 or truth.shape[0] == 0:
        raise ValueError("truth must be a nonempty array of (x, low, up) rows")
    x = truth[:, 0]
    return _bound_rmse(band.lower_at(x), band.upper_at(x), truth)


@dataclass(frozen=True)
class CvResult:
    """Cross-validation table and the selected penalty."""

    lambdas: np.ndarray     # penalty grid, as given
    fold_scores: np.ndarray # (grid, folds) criterion values, NaN where a fit failed
    mean_scores: np.ndarray # per-penalty fold means, NaN where any fold failed
    selected: float
    selected_index: int


def select_lambda_cv(
    data: Dataset,
    grid,
    folds: int = 5,
    alpha: float = 0.5,
    seed: int = 0,
    *,
    basis: SplineBasis | None = None,
    iters: int = 1000,
) -> CvResult:
    """Pick the penalty minimizing mean coverage-penalized width across folds.

    Folds are a seeded uniform shuffle split into ``folds`` near-equal
    parts.  Each fold fit reruns both stages on the training part only.
    A fold whose stage 1 is refused raises its error, as every penalty
    would then lack that fold.  A penalty with a fold fit that the library
    refuses (ValueError or RuntimeError) is excluded with a warning; any
    other error, such as MemoryError, propagates.  Ties take the first
    (smallest-index) grid entry.

    Parameters
    ----------
    data : Dataset
        Full sample; needs at least 20 points per fold.
    grid : sequence of float
        Candidate penalty values, all positive, finite and distinct.
    folds : int
        Number of folds, at least 2.
    alpha : float
        Coverage target of the fits and of the criterion, whose penalty
        rate is ``ETA``.
    seed : int
        Seed for the fold shuffle and per-fold subsample draws, at least 0.
    basis : SplineBasis, optional
        Knot grid of every fold fit, covering x's range; by default 20 uniform C^2 cubic segments.
    iters : int
        ADMM iterations per fold fit, at least 1.
    """
    grid = np.asarray(list(grid), dtype=float)
    _check_penalty_grid(grid)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    _check_iters(iters)
    _check_alpha(alpha)
    _check_seed(seed)
    n = len(data)
    if n < 20 * folds:
        raise ValueError(f"need at least {20 * folds} points for {folds} folds, got {n}")

    basis = _basis_for(data, basis)

    order = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(order, folds)
    fold_scores = np.full((grid.size, folds), np.nan)

    for v, held in enumerate(parts):
        mask = np.ones(n, dtype=bool)
        mask[held] = False
        train = Dataset(data.x[mask], data.y[mask])
        test = Dataset(data.x[held], data.y[held])
        step1 = run_step1(train, alpha, rng=[seed, v])
        for g, lam in enumerate(grid):
            try:
                band = run_step2(train, step1, basis, lam, iters=iters)
                fold_scores[g, v] = band_metrics(band, test, alpha).mcwc
            except (ValueError, RuntimeError) as exc:
                warnings.warn(
                    f"fold {v} fit at penalty {lam} failed: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    complete = ~np.isnan(fold_scores).any(axis=1)
    for g in np.flatnonzero(~complete):
        warnings.warn(
            f"penalty {grid[g]} excluded: one or more folds failed",
            RuntimeWarning,
            stacklevel=2,
        )
    if not complete.any():
        raise RuntimeError("cross-validation failed on every penalty value")

    mean_scores = np.where(complete, fold_scores.mean(axis=1), np.nan)
    selected_index = int(np.nanargmin(mean_scores))
    return CvResult(
        lambdas=grid,
        fold_scores=fold_scores,
        mean_scores=mean_scores,
        selected=float(grid[selected_index]),
        selected_index=selected_index,
    )
