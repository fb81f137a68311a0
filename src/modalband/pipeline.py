"""Two-stage band fit: interval levels from kernel CDFs, then the spline fit.

Stage 1 selects a bandwidth, extracts per-observation shortest-interval
quantile levels, and computes density-based observation weights.  Stage 2
assembles the convex program and runs ADMM.  Both stages are exposed
separately so cross-validation and simulation can share stage-1 output
across penalty values.  Its persistence section reads and writes every
file: CSV inputs and tables, and the model JSON.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

from .intervals import QuantileLevelSet, _check_alpha, estimate_levels_all
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
    "read_csv",
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


def run_step1(data: Dataset, alpha: float = 0.5, *, rng=0) -> Step1Result:
    """Plug-in bandwidth, interval levels and weights for every observation.

    The observation weights are the covariate density at each x_i raised
    to the power 1/5.

    Parameters
    ----------
    data : Dataset
        Observed sample, refused when every response is the same.
    alpha : float
        Target coverage of the conditional shortest interval.
    rng : int, sequence of ints, or numpy Generator
        Seed for the subsample draw of the conditional distributions above
        1000 observations; an int must be non-negative.
    """
    _check_alpha(alpha)
    _check_seed(rng)
    if data.y.min() == data.y.max():  # every level would be flat, and the band arbitrary
        raise ValueError(f"degenerate sample: every response equals {data.y[0]}")
    h = select_bandwidth(data.x)
    levels = estimate_levels_all(data, alpha, h, rng=rng)
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


def _uniform_basis(x: np.ndarray, segments: int = 20) -> SplineBasis:
    """``segments`` uniform C^2 cubic segments over x's range, refused when x takes one value."""
    if x.min() == x.max():
        raise ValueError("degenerate sample: all covariate values are identical")
    return SplineBasis.uniform(float(x.min()), float(x.max()), segments)


def _basis_for(data: Dataset, basis: SplineBasis | None) -> SplineBasis:
    """``basis``, refused unless it covers x, or by default 20 uniform C^2
    cubic segments over x's range; with its stage-2 penalty and non-crossing
    rows built, so a grid too large for memory fails before stage 1."""
    if basis is None:
        basis = _uniform_basis(data.x)
    else:
        basis.segment_index(data.x)  # raises for x outside the knots
    basis.penalty, basis.noncross  # built once, shared by every fit on the grid
    return basis


def fit_band(
    data: Dataset,
    alpha: float = 0.5,
    lam: float = 1e-2,
    basis: SplineBasis | None = None,
    *,
    rng=0,
    iters: int = 1000,
):
    """Full two-stage fit; returns (band, step1).

    Without a ``basis`` the grid is 20 uniform C^2 cubic segments over x's
    range.  The solver settings and the basis are checked, and the basis's
    stage-2 matrices built, before stage 1.
    """
    _check_iters(iters)
    _check_penalty(lam)
    basis = _basis_for(data, basis)
    step1 = run_step1(data, alpha, rng=rng)
    band = run_step2(data, step1, basis, lam, iters=iters)
    return band, step1


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _output_mode(path: str) -> int:
    """Permission bits of the file at ``path``, or for a new file what the umask allows."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write_text(path: str, text: str) -> None:
    """Write a file fully or not at all: temp file in place, then rename.
    The file keeps the mode of the one it replaces; a new one gets what the
    umask allows, as with ``open``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, _output_mode(path))
        os.replace(tmp, path)
    except OSError as exc:  # its text would name the temp file, not the target
        raise OSError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read_text(path: str) -> str:
    """The file's text, decoded from UTF-8 once, less a leading byte-order
    mark; an unreadable file, or a byte that is not UTF-8, is one error."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}: line {line}: byte {raw[exc.start]:#04x} is not UTF-8"
        ) from None
    return text.removeprefix("\ufeff")


# one line and its end, which is \r\n, \r or \n as in ``open(newline="")``;
# matched in place, where io.StringIO would copy the text at 4 bytes a character
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def read_csv(path: str, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Read a headered UTF-8 CSV of finite numbers; errors name the file line."""
    rows = csv.reader(map(re.Match.group, _LINE.finditer(_read_text(path))))
    values: list[float] = []  # every cell, row after row, reshaped once at the end
    try:
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [cell.strip() for cell in header]
        if header != list(columns):
            raise ValueError(
                f"{path}: line 1: expected header '{','.join(columns)}', "
                f"got '{','.join(header)}'"
            )
        for row in rows:
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(
                    f"{path}: line {rows.line_num}: expected {len(columns)} fields, "
                    f"got {len(row)}"
                )
            for cell in row:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {rows.line_num}: non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(values[-1]):
                    raise ValueError(f"{path}: line {rows.line_num}: non-finite value {cell!r}")
    except csv.Error as exc:
        raise ValueError(f"{path}: line {rows.line_num}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no data rows")
    arr = np.array(values).reshape(-1, len(columns))
    return {name: arr[:, k] for k, name in enumerate(columns)}


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
    text = _read_text(path)
    try:
        payload = json.loads(text)
        basis = SplineBasis(np.asarray(payload["knots"], dtype=float))
        order = payload["degree"], payload["smoothness"]
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
    if order != (basis.degree, basis.smoothness):  # as given: "3", 3.9 and true are refused
        degree, smoothness = map(json.dumps, order)  # and named as the file writes them
        raise ValueError(f"model file {path} holds splines of degree {degree} and smoothness "
                         f"{smoothness}; only C^2 cubics (degree 3, smoothness 2) load")
    if upper.shape != (basis.size,) or lower.shape != (basis.size,):
        raise ValueError(
            f"model file {path} has inconsistent coefficient counts"
        )
    if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
        raise ValueError(f"model file {path} holds non-finite coefficients")
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
