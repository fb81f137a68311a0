"""Run one ``modalband`` CLI command with probes on the library's modules.

Usage: python3 bench/child.py <modalband arguments...>

Environment:
    BENCH_OUT    file the probe record is pickled to when the command ends
    BENCH_TRACE  "1" to time every probed call (spans), "0" to capture only

Capture probes keep what the benchmark's correctness checks need and the
CLI does not print: stage-1 levels with their conditional-CDF source,
density weights, and every band the solver returns.  They add one wrapper
call per stage.  Tracing wraps the module attributes the program calls
through and records a span (name, start, end, parent) per call, kept in
memory and written once at exit.  Probe points that a later version of the
program no longer has are listed as missing instead of failing the run.
"""

from __future__ import annotations

import inspect
import os
import pickle
import sys
import time
from functools import wraps

SPANS: list = []      # [name, start, end, parent index, attrs]
STACK: list = []
CAPTURE: dict = {"levels": [], "weights": [], "bands": [], "missing": []}
_last_source: list = [None]


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _timed(fn, name, attrs=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        SPANS.append([name, 0.0, 0.0, STACK[-1] if STACK else -1, None])
        STACK.append(idx)
        SPANS[idx][1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            SPANS[idx][2] = time.perf_counter()
            STACK.pop()
        if attrs is not None:
            try:
                SPANS[idx][4] = attrs(args, kwargs, result)
            except Exception as exc:  # noqa: BLE001 - a probe must not break the command
                CAPTURE["missing"].append(f"{name}: {exc!r}")
        return result
    return wrapper


def _captured(fn, record):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        try:
            record(_bind(fn, args, kwargs), result)
        except Exception as exc:  # noqa: BLE001 - a probe must not break the command
            CAPTURE["missing"].append(f"{fn.__module__}.{fn.__name__}: {exc!r}")
        return result
    return wrapper


def _record_source(bound, result):
    _last_source[0] = result


def _record_levels(bound, result):
    src = _last_source[0]
    CAPTURE["levels"].append({
        "x": bound["data"].x, "alpha": float(bound["alpha"]), "h": float(bound["h"]),
        "p_low": result.p_low, "p_up": result.p_up,
        "src_x": None if src is None else src.x,
        "src_y": None if src is None else src.y,
    })


def _record_weights(bound, result):
    CAPTURE["weights"].append({
        "x": bound["data"].x, "h": float(bound["h"]),
        "exponent": float(bound.get("exponent", 0.2)), "w": result,
    })


def _record_band(bound, result):
    problem = bound["problem"]
    basis = result.basis
    CAPTURE["bands"].append({
        "lam": float(getattr(problem, "lam", float("nan"))),
        "n": int(getattr(problem, "n", 0)),
        "budget": int(bound.get("iters", 1000)),
        "knots": basis.knots, "degree": basis.degree, "smoothness": basis.smoothness,
        "upper": result.upper, "lower": result.lower,
        "iterations": int(result.iterations),
        "primal": float(result.primal_residual), "dual": float(result.dual_residual),
    })


class _LinalgProxy:
    """Stand-in for the scipy.linalg module one library module calls through."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _array_bytes(obj) -> int:
    """Bytes held by the array fields of an object, dense or scipy.sparse."""
    total = 0
    for value in vars(obj).values():
        parts = [getattr(value, k, None) for k in ("data", "indices", "indptr")]
        if hasattr(value, "nnz") and all(hasattr(p, "nbytes") for p in parts):
            total += sum(p.nbytes for p in parts)
        elif hasattr(value, "nbytes"):
            total += int(value.nbytes)
    return total


def _len_data(args, kwargs, result):
    return len(args[0]) if args else len(kwargs["data"])


def _install(trace: bool) -> None:
    import modalband.cli  # noqa: F401 - imports every library module
    mods = {name: sys.modules[f"modalband.{name}"] for name in
            ("cli", "pipeline", "kde", "intervals", "solver", "spline",
             "model_select", "simulate", "rhythm")}

    def patch(mod, attr, make):
        module = mods[mod]
        fn = getattr(module, attr, None)
        if fn is None:
            CAPTURE["missing"].append(f"{mod}.{attr}")
            return
        setattr(module, attr, make(fn))

    # capture probes: the innermost wrapper, so spans include them
    patch("intervals", "_capped_source", lambda f: _captured(f, _record_source))
    patch("pipeline", "estimate_levels_all", lambda f: _captured(f, _record_levels))
    patch("pipeline", "density_weights", lambda f: _captured(f, _record_weights))
    patch("pipeline", "admm_fit", lambda f: _captured(f, _record_band))
    if not trace:
        return

    def timed(name, attrs=None):
        return lambda f: _timed(f, name, attrs)

    def result_value(args, kwargs, result):
        return float(result)

    patch("pipeline", "select_bandwidth", timed("kde.bandwidth", result_value))
    patch("kde", "normal_reference_bandwidth", timed("kde.reference", result_value))
    patch("pipeline", "density_weights", timed("kde.weights"))
    patch("intervals", "conditional_cdf",
          timed("kde.cdf", lambda a, k, r: len(a[1]) if len(a) > 1 else len(k["data"])))
    patch("pipeline", "estimate_levels_all", timed("intervals.levels", _len_data))
    patch("simulate", "estimate_intervals_at", timed("intervals.raw_kde"))
    for attr in ("design_matrix", "penalty_matrix", "continuity_matrix", "noncross_matrix"):
        patch("solver", attr, timed("spline.matrices"))
    patch("solver", "eval_spline",
          timed("spline.eval", lambda a, k, r: int(getattr(r, "size", 1))))
    patch("pipeline", "assemble",
          timed("solver.assemble", lambda a, k, r: _array_bytes(r)))
    patch("solver", "prox_quantile_loss", timed("solver.prox"))
    patch("pipeline", "admm_fit", timed(
        "solver.admm",
        lambda a, k, r: (int(r.iterations), int(k.get("iters", a[1] if len(a) > 1 else 1000)),
                         float(r.primal_residual), float(r.dual_residual))))
    linalg = getattr(mods["solver"], "linalg", None)
    if linalg is not None and hasattr(linalg, "lu_factor"):
        mods["solver"].linalg = _LinalgProxy(linalg, lu_factor=_timed(
            linalg.lu_factor, "solver.factor", lambda a, k, r: int(a[0].shape[0])))
    else:
        CAPTURE["missing"].append("solver.linalg.lu_factor")
    for mod in ("pipeline", "model_select", "simulate"):
        patch(mod, "run_step1", timed("pipeline.step1"))
        patch(mod, "run_step2", timed("pipeline.step2"))
    patch("cli", "save_model", timed("pipeline.io"))
    patch("cli", "load_model", timed("pipeline.io"))
    patch("cli", "select_lambda_cv", timed("model_select.cv"))
    for mod, attr in (("model_select", "band_metrics"), ("simulate", "band_metrics"),
                      ("simulate", "rmse_bounds")):
        patch(mod, attr, timed("model_select.metrics"))
    patch("simulate", "true_band", timed("simulate.truth"))
    patch("cli", "run_replications", timed("simulate.rep"))
    patch("simulate", "_run_one_rep", timed("simulate.rep"))
    patch("cli", "detect_rhythms", timed("rhythm.detect"))


def main(argv: list[str]) -> int:
    out = os.environ.get("BENCH_OUT")
    _install(os.environ.get("BENCH_TRACE") == "1")
    from modalband.cli import main as cli_main
    code = 1
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if out:
            with open(out, "wb") as handle:
                pickle.dump({"spans": SPANS, **CAPTURE}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
