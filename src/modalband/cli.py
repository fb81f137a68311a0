"""Command-line interface.

Commands: fit, cv, simulate, band, rhythm.  Each command parses its
arguments, checks its paths, calls the library and prints; the files are
read and written by :mod:`modalband.pipeline` (headered CSV inputs, atomic
outputs with numbers at nine significant digits).  Errors print a single
machine-parsable line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple

import numpy as np

from .kde import Dataset
from .model_select import select_lambda_cv
from .pipeline import fit_band, load_model, read_csv, save_model, write_csv
from .rhythm import DEFAULT_WINDOW, detect_rhythms
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

BAND_POINTS = 201  # grid of fit's band CSV, and band's default grid


def _check_outputs(outputs, inputs=()) -> None:
    """Refuse, before any input is read, an output whose directory is missing,
    that is a directory, or that names one of the inputs or another output."""
    taken = dict.fromkeys(map(os.path.realpath, inputs), "it is also an input")
    for path in filter(None, outputs):
        real = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"cannot write {path}: no such directory")
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: is a directory")
        if real in taken:
            raise ValueError(f"cannot write {path}: {taken[real]}")
        taken[real] = "it is named twice as an output"


def _parse_lambdas(raw: str):
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"invalid --lambdas value: {raw!r}") from exc
    if not values:
        raise ValueError("--lambdas must list at least one value")
    return values


def _basis(args, data: Dataset) -> SplineBasis:
    """``--segments`` uniform knot intervals over the data's x range."""
    return SplineBasis.uniform(float(data.x.min()), float(data.x.max()), args.segments)


def _write_band_csv(path: str, band, lo: float, hi: float, points: int) -> None:
    """The band on ``points`` evenly spaced x from ``lo`` to ``hi``."""
    if points < 2:
        raise ValueError(f"--grid-points must be at least 2, got {points}")
    if not lo < hi:
        raise ValueError(f"empty evaluation range [{lo}, {hi}]")
    grid = np.linspace(lo, hi, points)
    lower, upper = band.lower_at(grid), band.upper_at(grid)
    write_csv(path, "x,lower,upper,midpoint", zip(grid, lower, upper, 0.5 * (lower + upper)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_fit(args) -> int:
    _check_outputs((args.model, args.band), (args.input,))
    data = Dataset(**read_csv(args.input, ("x", "y")))
    band, step1 = fit_band(
        data,
        alpha=args.alpha,
        lam=args.penalty,
        basis=_basis(args, data),
        rng=args.seed,
        iters=args.iters,
    )

    config = {
        "input": os.path.abspath(args.input),
        "alpha": args.alpha,
        "lambda": args.penalty,
        "iterations": args.iters,
        "seed": args.seed,
        "bandwidth": step1.bandwidth,
    }
    save_model(args.model, band, config)
    print(f"model written to {args.model} (bandwidth {step1.bandwidth:.9g})")
    if args.band is not None:
        _write_band_csv(args.band, band, band.basis.knots[0], band.basis.knots[-1], BAND_POINTS)
        print(f"band written to {args.band}")
    return 0


def _cmd_cv(args) -> int:
    _check_outputs((args.output,), (args.input,))
    data = Dataset(**read_csv(args.input, ("x", "y")))
    result = select_lambda_cv(
        data,
        _parse_lambdas(args.lambdas),
        folds=args.folds,
        alpha=args.alpha,
        seed=args.seed,
        basis=_basis(args, data),
        iters=args.iters,
    )

    selected = [int(k == result.selected_index) for k in range(result.lambdas.size)]
    write_csv(args.output, "lambda,mean_mcwc,selected",
              zip(result.lambdas, result.mean_scores, selected))
    print(f"selected lambda {result.selected:.9g} (table in {args.output})")
    return 0


def _cmd_simulate(args) -> int:
    config = SimConfig(
        dist=args.dist,
        n=args.n,
        replications=args.reps,
        lambdas=_parse_lambdas(args.lambdas),
        alpha=args.alpha,
        seed=args.seed,
        test_size=args.test_size,
        iterations=args.iters,
    )
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ValueError(
            f"cannot create output directory {args.out_dir}: {exc.strerror}"
        ) from exc
    rep_path = os.path.join(args.out_dir, "replications.csv")
    summary_path = os.path.join(args.out_dir, "summary.csv")
    _check_outputs((rep_path, summary_path))
    results = run_replications(config)

    write_replication_csv(rep_path, results)
    write_summary_csv(summary_path, aggregate(results))
    print(f"wrote {rep_path} and {summary_path}")
    return 0


def _cmd_band(args) -> int:
    _check_outputs((args.output,), (args.model,))
    band, _ = load_model(args.model)
    lo = band.basis.knots[0] if args.grid_min is None else args.grid_min
    hi = band.basis.knots[-1] if args.grid_max is None else args.grid_max
    if lo < band.basis.knots[0] or hi > band.basis.knots[-1]:
        raise ValueError(
            f"evaluation range [{lo}, {hi}] leaves the fitted domain "
            f"[{band.basis.knots[0]}, {band.basis.knots[-1]}]"
        )
    _write_band_csv(args.output, band, lo, hi, args.grid_points)
    print(f"band written to {args.output}")
    return 0


def _cmd_rhythm(args) -> int:
    _check_outputs((args.output,), (args.input,))
    cols = read_csv(args.input, ("x", "lower", "upper", "midpoint"))
    curve = np.column_stack([cols["x"], cols["midpoint"]])
    try:
        cycles = detect_rhythms(curve, window=args.window)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from exc

    write_csv(args.output,
              "trough1_x,peak_x,trough2_x,ratio1,ratio2,classification,ratio_undefined",
              map(astuple, cycles))
    print(f"{len(cycles)} cycles written to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_fit_params(sub, knot_grid: bool = True) -> None:
    """Options that fit, cv and simulate share; simulate has no knot grid options."""
    sub.add_argument("--alpha", type=float, default=0.5,
                     help="target coverage (default %(default)s)")
    if knot_grid:
        sub.add_argument("--segments", type=int, default=20,
                         help="C^2 cubic spline segments (default %(default)s)")
    sub.add_argument("--iters", type=int, default=1000,
                     help="ADMM iterations, always run in full (default %(default)s)")


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
    fit.add_argument("--band", help=f"optional band CSV path (x,lower,upper,midpoint), "
                                    f"{BAND_POINTS} points across the knot range")
    fit.add_argument("--seed", type=int, default=0,
                     help="seed for the large-n subsample draw (default %(default)s)")
    fit.add_argument("--penalty", type=float, default=1e-2,
                     help="curvature penalty strength (default %(default)s)")
    _add_fit_params(fit)
    fit.set_defaults(func=_cmd_fit)

    cv = commands.add_parser("cv", help="cross-validate the penalty strength")
    cv.add_argument("--input", required=True, help="CSV with header x,y")
    cv.add_argument("--output", required=True, help="output CSV (lambda,mean_mcwc,selected)")
    cv.add_argument("--lambdas", default=",".join(map(str, DEFAULT_LAMBDA_GRID)),
                    help="comma-separated penalty grid (default %(default)s)")
    cv.add_argument("--folds", type=int, default=5, help="fold count (default %(default)s)")
    cv.add_argument("--seed", type=int, required=True, help="fold shuffle seed (required)")
    _add_fit_params(cv)
    cv.set_defaults(func=_cmd_cv)

    sim = commands.add_parser("simulate", help="run the benchmark simulation study")
    sim.add_argument("--dist", type=int, required=True, choices=(1, 2),
                     help="benchmark distribution")
    sim.add_argument("--n", type=int, required=True, help="training sample size")
    sim.add_argument("--reps", type=int, default=50, help="replications (default %(default)s)")
    sim.add_argument("--lambdas", default=",".join(map(str, DEFAULT_LAMBDA_GRID)),
                     help="comma-separated penalty grid (default %(default)s)")
    _add_fit_params(sim, knot_grid=False)
    sim.add_argument("--test-size", type=int, default=1000,
                     help="fresh test points per replication (default %(default)s)")
    sim.add_argument("--seed", type=int, required=True, help="base seed (required)")
    sim.add_argument("--out-dir", default=".",
                     help="directory for replications.csv and summary.csv")
    sim.set_defaults(func=_cmd_simulate)

    band = commands.add_parser("band", help="evaluate a saved model on a grid")
    band.add_argument("--model", required=True, help="model JSON from fit")
    band.add_argument("--output", required=True, help="band CSV path")
    band.add_argument("--grid-min", type=float, help="grid start (default: first knot)")
    band.add_argument("--grid-max", type=float, help="grid end (default: last knot)")
    band.add_argument("--grid-points", type=int, default=BAND_POINTS,
                      help="grid resolution (default %(default)s)")
    band.set_defaults(func=_cmd_band)

    rhythm = commands.add_parser("rhythm", help="detect rhythmic cycles in a band CSV")
    rhythm.add_argument("--input", required=True,
                        help="band CSV with header x,lower,upper,midpoint")
    rhythm.add_argument("--output", required=True, help="cycle CSV path")
    rhythm.add_argument("--window", type=float, default=DEFAULT_WINDOW,
                        help="dominance window in x units (default %(default)s)")
    rhythm.set_defaults(func=_cmd_rhythm)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
