"""Command-line interface.

Commands: fit, cv, simulate, band, rhythm.  Inputs are headered CSV
files; every output file is written atomically (temp file plus rename)
with numbers at nine significant digits.  Errors print a single
machine-parsable line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import astuple

import numpy as np

from .kde import Dataset
from .model_select import select_lambda_cv
from .pipeline import fit_band, load_model, save_model, write_csv
from .rhythm import DEFAULT_THRESHOLDS, DEFAULT_WINDOW, detect_rhythms
from .simulate import (
    DEFAULT_LAMBDA_GRID,
    SimConfig,
    aggregate,
    run_replications,
    write_replication_csv,
    write_summary_csv,
)
from .spline import SplineBasis

__all__ = ["main"]


class CliError(Exception):
    """User-facing failure: message is printed as a single stderr line."""


def _read_csv(path: str, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Read a headered numeric CSV; malformed rows name their line number."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        header = [cell.strip() for cell in header]
        if header != list(columns):
            raise CliError(
                f"{path}: line 1: expected header '{','.join(columns)}', "
                f"got '{','.join(header)}'"
            )
        data: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise CliError(
                    f"{path}: line {lineno}: expected {len(columns)} fields, got {len(row)}"
                )
            try:
                data.append([float(cell) for cell in row])
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                raise CliError(
                    f"{path}: line {lineno}: non-numeric value {bad!r}"
                ) from None
    if not data:
        raise CliError(f"{path}: no data rows")
    arr = np.asarray(data, dtype=float)
    return {name: arr[:, k] for k, name in enumerate(columns)}


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _load_dataset(path: str) -> Dataset:
    cols = _read_csv(path, ("x", "y"))
    try:
        return Dataset(cols["x"], cols["y"])
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _parse_lambdas(raw: str | None):
    if raw is None:
        return DEFAULT_LAMBDA_GRID
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise CliError(f"invalid --lambdas value: {raw!r}") from exc
    if not values:
        raise CliError("--lambdas must list at least one value")
    return values


def _write_band_csv(path: str, band, grid: np.ndarray) -> None:
    lower = band.lower_at(grid)
    upper = band.upper_at(grid)
    mid = 0.5 * (lower + upper)
    write_csv(path, "x,lower,upper,midpoint", zip(grid, lower, upper, mid))


def _check_grid_points(points: int) -> None:
    if points < 2:
        raise CliError(f"--grid-points must be at least 2, got {points}")


def _band_grid(lo: float, hi: float, points: int) -> np.ndarray:
    _check_grid_points(points)
    if not lo < hi:
        raise CliError(f"empty evaluation range [{lo}, {hi}]")
    return np.linspace(lo, hi, points)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    data = _load_dataset(args.input)
    if (args.knot_min is None) != (args.knot_max is None):
        raise CliError("--knot-min and --knot-max must be given together")
    if args.band is not None:
        _check_grid_points(args.grid_points)  # before the fit, so no model is left
    try:
        basis = None
        if args.knot_min is not None:
            basis = SplineBasis.uniform(
                args.knot_min, args.knot_max, args.segments, args.degree, args.smoothness
            )
        band, step1 = fit_band(
            data,
            alpha=args.alpha,
            lam=args.penalty,
            basis=basis,
            segments=args.segments,
            degree=args.degree,
            smoothness=args.smoothness,
            cap=args.cap,
            rng=args.seed,
            iters=args.iters,
        )
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from exc

    config = {
        "input": os.path.abspath(args.input),
        "alpha": args.alpha,
        "lambda": args.penalty,
        "iterations": args.iters,
        "cap": args.cap,
        "seed": args.seed,
        "bandwidth": step1.bandwidth,
    }
    save_model(args.model, band, config)
    print(f"model written to {args.model} (bandwidth {step1.bandwidth:.9g})")
    if args.band is not None:
        grid = _band_grid(band.basis.knots[0], band.basis.knots[-1], args.grid_points)
        _write_band_csv(args.band, band, grid)
        print(f"band written to {args.band}")
    return 0


def _cmd_cv(args) -> int:
    data = _load_dataset(args.input)
    lambdas = _parse_lambdas(args.lambdas)
    try:
        result = select_lambda_cv(
            data,
            lambdas,
            folds=args.folds,
            alpha=args.alpha,
            eta=args.eta,
            seed=args.seed,
            segments=args.segments,
            degree=args.degree,
            smoothness=args.smoothness,
            cap=args.cap,
            iters=args.iters,
        )
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from exc

    selected = [int(k == result.selected_index) for k in range(result.lambdas.size)]
    write_csv(args.output, "lambda,mean_mcwc,selected",
              zip(result.lambdas, result.mean_scores, selected))
    print(f"selected lambda {result.selected:.9g} (table in {args.output})")
    return 0


def _cmd_simulate(args) -> int:
    lambdas = _parse_lambdas(args.lambdas)
    try:
        config = SimConfig(
            dist=args.dist,
            n=args.n,
            replications=args.reps,
            lambdas=lambdas,
            alpha=args.alpha,
            seed=args.seed,
            cap=args.cap,
            test_size=args.test_size,
            iterations=args.iters,
            include_raw_kde=not args.no_raw_kde,
        )
        results = run_replications(config)
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from exc

    os.makedirs(args.out_dir, exist_ok=True)
    rep_path = os.path.join(args.out_dir, "replications.csv")
    summary_path = os.path.join(args.out_dir, "summary.csv")
    write_replication_csv(rep_path, results)
    write_summary_csv(summary_path, aggregate(results))
    print(f"wrote {rep_path} and {summary_path}")
    return 0


def _cmd_band(args) -> int:
    try:
        band, _ = load_model(args.model)
    except OSError as exc:
        raise CliError(f"cannot read {args.model}: {exc.strerror}") from exc
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    lo = band.basis.knots[0] if args.grid_min is None else args.grid_min
    hi = band.basis.knots[-1] if args.grid_max is None else args.grid_max
    if lo < band.basis.knots[0] or hi > band.basis.knots[-1]:
        raise CliError(
            f"evaluation range [{lo}, {hi}] leaves the fitted domain "
            f"[{band.basis.knots[0]}, {band.basis.knots[-1]}]"
        )
    grid = _band_grid(lo, hi, args.grid_points)
    _write_band_csv(args.output, band, grid)
    print(f"band written to {args.output}")
    return 0


def _cmd_rhythm(args) -> int:
    cols = _read_csv(args.input, ("x", "lower", "upper", "midpoint"))
    curve = np.column_stack([cols["x"], cols["midpoint"]])
    thresholds = (args.mild, args.significant)
    try:
        cycles = detect_rhythms(curve, window=args.window, thresholds=thresholds)
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}") from exc

    write_csv(args.output,
              "trough1_x,peak_x,trough2_x,ratio1,ratio2,classification,ratio_undefined",
              map(astuple, cycles))
    print(f"{len(cycles)} cycles written to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_fit_params(sub, with_penalty: bool = True) -> None:
    sub.add_argument("--alpha", type=float, default=0.5, help="target coverage (default 0.5)")
    if with_penalty:
        sub.add_argument("--penalty", type=float, default=1e-2,
                         help="curvature penalty strength (default 1e-2)")
    sub.add_argument("--segments", type=int, default=20, help="spline segments (default 20)")
    sub.add_argument("--degree", type=int, default=3, help="polynomial degree (default 3)")
    sub.add_argument("--smoothness", type=int, default=2,
                     help="continuous derivative order at knots (default 2)")
    sub.add_argument("--cap", type=int, default=1000,
                     help="largest sample used for conditional CDFs (default 1000)")
    sub.add_argument("--iters", type=int, default=1000,
                     help="ADMM iterations, always run in full (default 1000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalband",
        description="Smooth non-crossing bands for the most concentrated "
                    "region of Y given X.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="fit a band to x,y data")
    fit.add_argument("--input", required=True, help="CSV with header x,y")
    fit.add_argument("--model", required=True, help="output model JSON path")
    fit.add_argument("--band", help="optional band CSV path (x,lower,upper,midpoint)")
    fit.add_argument("--grid-points", type=int, default=201,
                     help="band CSV grid resolution (default 201)")
    fit.add_argument("--knot-min", type=float, help="left knot (default: data minimum)")
    fit.add_argument("--knot-max", type=float, help="right knot (default: data maximum)")
    fit.add_argument("--seed", type=int, default=0,
                     help="seed for the large-n subsample draw (default 0)")
    _add_fit_params(fit)
    fit.set_defaults(func=_cmd_fit)

    cv = commands.add_parser("cv", help="cross-validate the penalty strength")
    cv.add_argument("--input", required=True, help="CSV with header x,y")
    cv.add_argument("--output", required=True, help="output CSV (lambda,mean_mcwc,selected)")
    cv.add_argument("--lambdas", help="comma-separated penalty grid "
                                      "(default 1e-4,1e-3,1e-2,1e-1,1)")
    cv.add_argument("--folds", type=int, default=5, help="fold count (default 5)")
    cv.add_argument("--eta", type=float, default=20.0,
                    help="coverage shortfall penalty rate (default 20)")
    cv.add_argument("--seed", type=int, required=True, help="fold shuffle seed (required)")
    _add_fit_params(cv, with_penalty=False)
    cv.set_defaults(func=_cmd_cv)

    sim = commands.add_parser("simulate", help="run the benchmark simulation study")
    sim.add_argument("--dist", type=int, required=True, choices=(1, 2),
                     help="benchmark distribution")
    sim.add_argument("--n", type=int, required=True, help="training sample size")
    sim.add_argument("--reps", type=int, default=50, help="replications (default 50)")
    sim.add_argument("--lambdas", help="comma-separated penalty grid "
                                       "(default 1e-4,1e-3,1e-2,1e-1,1)")
    sim.add_argument("--alpha", type=float, default=0.5, help="target coverage (default 0.5)")
    sim.add_argument("--cap", type=int, default=1000,
                     help="largest sample used for conditional CDFs (default 1000)")
    sim.add_argument("--test-size", type=int, default=1000,
                     help="fresh test points per replication (default 1000)")
    sim.add_argument("--iters", type=int, default=1000,
                     help="ADMM iterations, always run in full (default 1000)")
    sim.add_argument("--no-raw-kde", action="store_true",
                     help="skip the unsmoothed kernel-CDF comparator arm")
    sim.add_argument("--seed", type=int, required=True, help="base seed (required)")
    sim.add_argument("--out-dir", default=".",
                     help="directory for replications.csv and summary.csv")
    sim.set_defaults(func=_cmd_simulate)

    band = commands.add_parser("band", help="evaluate a saved model on a grid")
    band.add_argument("--model", required=True, help="model JSON from fit")
    band.add_argument("--output", required=True, help="band CSV path")
    band.add_argument("--grid-min", type=float, help="grid start (default: first knot)")
    band.add_argument("--grid-max", type=float, help="grid end (default: last knot)")
    band.add_argument("--grid-points", type=int, default=201,
                      help="grid resolution (default 201)")
    band.set_defaults(func=_cmd_band)

    rhythm = commands.add_parser("rhythm", help="detect rhythmic cycles in a band CSV")
    rhythm.add_argument("--input", required=True,
                        help="band CSV with header x,lower,upper,midpoint")
    rhythm.add_argument("--output", required=True, help="cycle CSV path")
    rhythm.add_argument("--window", type=float, default=DEFAULT_WINDOW,
                        help="dominance window in x units (default 24)")
    rhythm.add_argument("--mild", type=float, default=DEFAULT_THRESHOLDS[0],
                        help="mild-rhythm ratio threshold (default 1.25)")
    rhythm.add_argument("--significant", type=float, default=DEFAULT_THRESHOLDS[1],
                        help="significant-rhythm ratio threshold (default 1.5)")
    rhythm.set_defaults(func=_cmd_rhythm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # fit, cv and simulate hand the seed to numpy, which refuses a negative one
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
