"""Two-stage band fit: interval levels from kernel CDFs, then the spline fit.

Stage 1 selects a bandwidth, extracts per-observation shortest-interval
quantile levels, and computes density-based observation weights.  Stage 2
assembles the convex program and runs ADMM.  Both stages are exposed
separately so cross-validation and simulation can share stage-1 output
across penalty values.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .intervals import QuantileLevelSet, _check_alpha, _check_cap, estimate_levels_all
from .kde import Dataset, density_weights, select_bandwidth
from .solver import FittedBand, _check_iters, _check_penalty, admm_fit, assemble
from .spline import SplineBasis

__all__ = [
    "Step1Result",
    "run_step1",
    "run_step2",
    "fit_band",
    "save_model",
    "load_model",
    "atomic_write_text",
    "write_csv",
]


def _check_seed(seed) -> None:
    """Refuse a negative integer seed by name, as numpy does not; other seeds pass."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class Step1Result:
    """Bandwidth, per-observation levels, and observation weights."""

    bandwidth: float
    levels: QuantileLevelSet
    weights: np.ndarray


def run_step1(data: Dataset, alpha: float = 0.5, *, cap: int = 1000, rng=0) -> Step1Result:
    """Plug-in bandwidth, interval levels and weights for every observation.

    The observation weights are the covariate density at each x_i raised
    to the power 1/5.

    Parameters
    ----------
    data : Dataset
        Observed sample.
    alpha : float
        Target coverage of the conditional shortest interval.
    cap : int
        Largest source-sample size for the conditional distributions; above
        it a seeded subsample is used.
    rng : int, sequence of ints, or numpy Generator
        Seed for the subsample draw; an int must be non-negative.
    """
    _check_alpha(alpha)
    _check_cap(cap)
    _check_seed(rng)
    h = select_bandwidth(data.x)
    levels = estimate_levels_all(data, alpha, h, cap=cap, rng=rng)
    weights = density_weights(data, h)
    return Step1Result(bandwidth=h, levels=levels, weights=weights)


def run_step2(
    data: Dataset,
    step1: Step1Result,
    basis: SplineBasis,
    lam: float,
    *,
    iters: int = 1000,
) -> FittedBand:
    """Fit the non-crossing bound curves at one penalty value."""
    problem = assemble(data, step1.levels, step1.weights, basis, lam)
    return admm_fit(problem, iters=iters)


def _basis_for(data: Dataset, basis: SplineBasis | None) -> SplineBasis:
    """``basis``, refused unless it covers x, or by default 20 uniform C^2
    cubic segments over x's range."""
    if basis is None:
        return SplineBasis.uniform(float(data.x.min()), float(data.x.max()))
    basis.segment_index(data.x)  # raises for x outside the knots
    return basis


def fit_band(
    data: Dataset,
    alpha: float = 0.5,
    lam: float = 1e-2,
    basis: SplineBasis | None = None,
    *,
    cap: int = 1000,
    rng=0,
    iters: int = 1000,
):
    """Full two-stage fit; returns (band, step1).

    Without a ``basis`` the grid is 20 uniform C^2 cubic segments over x's
    range.  The solver settings and the basis are checked before stage 1.
    """
    _check_iters(iters)
    _check_penalty(lam)
    basis = _basis_for(data, basis)
    step1 = run_step1(data, alpha, cap=cap, rng=rng)
    band = run_step2(data, step1, basis, lam, iters=iters)
    return band, step1


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def atomic_write_text(path: str, text: str) -> None:
    """Write a file fully or not at all: temp file in place, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # its text would name the temp file, not the target
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    """One CSV field: strings as given, integers as digits, floats at nine
    significant digits with NaN as an empty field."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):  # bool is an int
        return str(int(value))
    value = float(value)
    return "" if np.isnan(value) else format(value, ".9g")


def write_csv(path: str, header: str, rows) -> None:
    """Write a CSV atomically: the ``header`` line, then one line per row."""
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_model(path: str, band: FittedBand, config: dict | None = None) -> None:
    """Persist a fitted band as JSON with full float precision."""
    payload = {
        "knots": band.basis.knots.tolist(),
        "degree": band.basis.degree,
        "smoothness": band.basis.smoothness,
        "upper": band.upper.tolist(),
        "lower": band.lower.tolist(),
        "config": config or {},
        "residuals": {
            "iterations": band.iterations,
            "primal": band.primal_residual,
            "dual": band.dual_residual,
            "noncross_violation": band.noncross_violation,
        },
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def load_model(path: str):
    """Load a fitted band saved by :func:`save_model`; returns (band, config)."""
    try:
        with open(path) as handle:  # OSError passes through to the caller
            payload = json.load(handle)
        basis = SplineBasis(np.asarray(payload["knots"], dtype=float))
        order = int(payload["degree"]), int(payload["smoothness"])
        upper = np.asarray(payload["upper"], dtype=float)
        lower = np.asarray(payload["lower"], dtype=float)
        residuals = payload.get("residuals", {})
        iterations = int(residuals.get("iterations", 0))
        primal = float(residuals.get("primal", np.nan))
        dual = float(residuals.get("dual", np.nan))
        violation = float(residuals.get("noncross_violation", np.nan))
    except KeyError as exc:
        raise ValueError(f"model file {path} is missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        # not JSON text, a field of the wrong JSON type, or a top level that is no object
        raise ValueError(f"model file {path} is malformed: {exc}") from exc
    if order != (basis.degree, basis.smoothness):
        raise ValueError(f"model file {path} holds splines of degree {order[0]} and smoothness "
                         f"{order[1]}; only C^2 cubics (degree 3, smoothness 2) load")
    if upper.shape != (basis.size,) or lower.shape != (basis.size,):
        raise ValueError(
            f"model file {path} has inconsistent coefficient counts"
        )
    band = FittedBand(
        upper=upper,
        lower=lower,
        basis=basis,
        iterations=iterations,
        primal_residual=primal,
        dual_residual=dual,
        noncross_violation=violation,
    )
    return band, payload.get("config", {})
