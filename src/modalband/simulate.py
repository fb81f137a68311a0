"""Simulation study harness for the band estimator.

Two benchmark data-generating processes on X ~ Uniform(0, 10):

    1. Y | x ~ Normal(mean1(x), sd1(x)^2), a damped sine mean with
       linearly shrinking noise;
    2. Y | x ~ LogNormal(logmean2(x), logsd2(x)^2), skewed with a
       parabolic log-scale.

Each replication draws fresh training and test sets from seeded,
counter-based generator streams, fits the band at every penalty value on
a shared stage-1 output, and scores bound-curve RMSE on a fixed truth
grid plus coverage and width on the test set.  A comparator arm reads the
interval straight off the kernel conditional CDFs with no smoothing
stage.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import astuple, dataclass
from itertools import groupby

import numpy as np

from .intervals import (
    _check_alpha,
    estimate_intervals_at,
    true_mi_lognormal,
    true_mi_normal,
)
from .kde import Dataset
from .model_select import _bound_rmse, _coverage_and_width, band_metrics, rmse_bounds
from .pipeline import _check_seed, run_step1, run_step2, write_csv
from .solver import _check_iters, _check_penalty_grid
from .spline import SplineBasis

__all__ = [
    "SimConfig",
    "RepResult",
    "ExperimentRow",
    "DEFAULT_LAMBDA_GRID",
    "dist1_mean",
    "dist1_sd",
    "dist2_logmean",
    "dist2_logsd",
    "gen_dist1",
    "gen_dist2",
    "true_band",
    "default_truth_grid",
    "run_replications",
    "aggregate",
    "run_experiment",
    "write_replication_csv",
    "write_summary_csv",
]

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

METHOD_BAND = "kde_mir"   # two-stage band estimator
METHOD_RAW = "kde"        # intervals read directly off the kernel CDFs

_DOMAIN = (0.0, 10.0)


def dist1_mean(x):
    x = np.asarray(x, dtype=float)
    return (3.0 - 0.2 * x) * np.sin(np.pi * x) + 5.0


def dist1_sd(x):
    x = np.asarray(x, dtype=float)
    return 2.0 - 0.15 * x


def dist2_logmean(x):
    x = np.asarray(x, dtype=float)
    return 1.0 - np.sin(0.4 * np.pi * x)


def dist2_logsd(x):
    x = np.asarray(x, dtype=float)
    return 0.04 * x**2 - 0.4 * x + 1.2


def _uniform_x(n: int, rng) -> np.ndarray:
    return rng.uniform(_DOMAIN[0], _DOMAIN[1], size=n)


def gen_dist1(n: int, rng) -> Dataset:
    """Draw n points from benchmark distribution 1 (conditional normal)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(rng)
    x = _uniform_x(n, rng)
    y = rng.normal(dist1_mean(x), dist1_sd(x))
    return Dataset(x, y)


def gen_dist2(n: int, rng) -> Dataset:
    """Draw n points from benchmark distribution 2 (conditional log-normal)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(rng)
    x = _uniform_x(n, rng)
    y = rng.lognormal(dist2_logmean(x), dist2_logsd(x))
    return Dataset(x, y)


def default_truth_grid() -> np.ndarray:
    """Evaluation grid 0.0, 0.1, ..., 10.0 used for bound-curve RMSE."""
    return np.round(np.arange(101) * 0.1, 10)


def true_band(dist: int, alpha: float, grid) -> np.ndarray:
    """Exact shortest-interval endpoints as rows (x, low, up) on a grid."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    rows = np.empty((grid.size, 3))
    for k, x in enumerate(grid):
        if dist == 1:
            mi = true_mi_normal(float(dist1_mean(x)), float(dist1_sd(x)), alpha)
        elif dist == 2:
            mi = true_mi_lognormal(float(dist2_logmean(x)), float(dist2_logsd(x)), alpha)
        else:
            raise ValueError(f"unknown distribution {dist}; use 1 or 2")
        rows[k] = (x, mi.low, mi.up)
    return rows


@dataclass(frozen=True)
class SimConfig:
    """One simulation experiment: a distribution, sample size, penalty grid.

    Each replication fits the band at every penalty in ``lambdas`` (distinct
    values) and always scores the unsmoothed comparator arm as well.
    """

    dist: int
    n: int
    replications: int = 50
    lambdas: tuple = DEFAULT_LAMBDA_GRID
    alpha: float = 0.5
    seed: int = 0
    test_size: int = 1000
    iterations: int = 1000

    def __post_init__(self):
        if self.dist not in (1, 2):
            raise ValueError(f"unknown distribution {self.dist}; use 1 or 2")
        if self.n < 10:
            raise ValueError(f"n must be at least 10, got {self.n}")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications}")
        _check_penalty_grid(self.lambdas)
        _check_alpha(self.alpha)
        _check_seed(self.seed)
        if self.test_size < 10:
            raise ValueError(f"test_size must be at least 10, got {self.test_size}")
        _check_iters(self.iterations)
        object.__setattr__(self, "lambdas", tuple(float(l) for l in self.lambdas))


@dataclass(frozen=True)
class RepResult:
    """One (method, penalty, replication) outcome. cp is in percent.

    The field order is the column order of ``replications.csv``.
    """

    method: str
    dist: int
    n: int
    lam: float      # NaN for the comparator arm, which has no penalty
    rep: int
    rmse: float
    cp: float
    aiw: float
    step1_s: float
    step2_s: float


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregate over replications of one (method, penalty) cell.

    The field order is the column order of ``summary.csv``.
    """

    method: str
    dist: int
    n: int
    lam: float
    reps: int
    rmse_mean: float
    rmse_sd: float
    cp_mean: float
    cp_sd: float
    aiw_mean: float
    aiw_sd: float
    step1_mean: float
    step2_mean: float


def _stream(seed: int, rep: int, role: int) -> np.random.Generator:
    """Independent counter-based stream for (replication, role)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, rep, role])))


def _generate(config: SimConfig, n: int, rng) -> Dataset:
    return gen_dist1(n, rng) if config.dist == 1 else gen_dist2(n, rng)


def _run_one_rep(config: SimConfig, rep: int, truth: np.ndarray,
                 basis: SplineBasis) -> list[RepResult]:
    train = _generate(config, config.n, _stream(config.seed, rep, 0))
    test = _generate(config, config.test_size, _stream(config.seed, rep, 1))

    t0 = time.perf_counter()
    step1 = run_step1(train, config.alpha, rng=_stream(config.seed, rep, 2))
    step1_s = time.perf_counter() - t0

    results = []
    for lam in config.lambdas:
        t0 = time.perf_counter()
        band = run_step2(train, step1, basis, lam, iters=config.iterations)
        step2_s = time.perf_counter() - t0
        metrics = band_metrics(band, test, config.alpha)
        results.append(RepResult(
            method=METHOD_BAND, dist=config.dist, n=config.n, lam=lam, rep=rep,
            rmse=rmse_bounds(band, truth), cp=metrics.micp * 100.0, aiw=metrics.aiw,
            step1_s=step1_s, step2_s=step2_s,
        ))

    t0 = time.perf_counter()
    # one scan over the truth grid and the test covariates, with the same
    # subsample draw as stage 1
    low, up = estimate_intervals_at(
        train, np.concatenate([truth[:, 0], test.x]), config.alpha,
        step1.bandwidth, rng=_stream(config.seed, rep, 2),
    )
    raw_s = time.perf_counter() - t0
    g = len(truth)
    micp, aiw = _coverage_and_width(test.y, low[g:], up[g:])
    results.append(RepResult(
        method=METHOD_RAW, dist=config.dist, n=config.n, lam=np.nan, rep=rep,
        rmse=_bound_rmse(low[:g], up[:g], truth), cp=micp * 100.0, aiw=aiw,
        step1_s=raw_s, step2_s=0.0,
    ))
    return results


def run_replications(config: SimConfig) -> list[RepResult]:
    """Run all replications in order.

    Each replication draws from its own derived seed streams, so its
    results do not depend on the others.  A failing replication is recorded
    and skipped; more than 10% failures aborts the experiment.
    """
    truth = true_band(config.dist, config.alpha, default_truth_grid())
    basis = SplineBasis.uniform(*_DOMAIN)  # one B-spline map for every replication
    results: list[RepResult] = []
    failures: list[tuple[int, str]] = []
    for rep in range(config.replications):
        try:
            results.extend(_run_one_rep(config, rep, truth, basis))
        except Exception as exc:  # noqa: BLE001 - collected, bounded below
            failures.append((rep, str(exc)))

    for rep, message in failures:
        warnings.warn(
            f"replication {rep} (seed [{config.seed}, {rep}]) failed: {message}",
            RuntimeWarning,
            stacklevel=2,
        )
    if len(failures) > 0.1 * config.replications:
        detail = "; ".join(f"rep {r}: {m}" for r, m in failures[:5])
        raise RuntimeError(
            f"{len(failures)} of {config.replications} replications failed: {detail}"
        )
    return results


def _cell(r: RepResult):
    """Sort key of a result's (method, dist, n, penalty) cell: band arm first,
    and the comparator's NaN penalty as +inf, since NaN != NaN."""
    return (r.method != METHOD_BAND, r.method, r.dist, r.n, np.inf if np.isnan(r.lam) else r.lam)


def aggregate(results: list[RepResult]) -> list[ExperimentRow]:
    """Mean/SD summaries per (method, n, penalty) cell, band arm first."""
    rows = []
    for (_, method, dist, n, _), cell in groupby(sorted(results, key=_cell), key=_cell):
        cell = list(cell)

        def stats(field):
            v = np.array([getattr(r, field) for r in cell])
            return float(v.mean()), float(v.std(ddof=1)) if v.size > 1 else 0.0

        rows.append(ExperimentRow(
            method, dist, n, cell[0].lam, len(cell), *stats("rmse"), *stats("cp"),
            *stats("aiw"), stats("step1_s")[0], stats("step2_s")[0],
        ))
    return rows


def run_experiment(config: SimConfig) -> list[ExperimentRow]:
    """Replications plus aggregation in one call."""
    return aggregate(run_replications(config))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_replication_csv(path: str, results: list[RepResult]) -> None:
    """Per-replication rows, one per (method, penalty, replication)."""
    write_csv(path, "method,dist,n,lambda,rep,rmse,cp,aiw,step1_s,step2_s",
              map(astuple, results))


def write_summary_csv(path: str, rows: list[ExperimentRow]) -> None:
    """Aggregated rows with mean/SD columns per (method, n, lambda) cell."""
    write_csv(path, "method,dist,n,lambda,reps,rmse_mean,rmse_sd,cp_mean,cp_sd,"
                    "aiw_mean,aiw_sd,step1_s_mean,step2_s_mean", map(astuple, rows))
