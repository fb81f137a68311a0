"""modalband benchmark: runs the CLI the way users run it and checks its outputs.

    python3 bench/run.py --workload fit-dist1-n10k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --smoke --seed 1 --seconds 1 --trace 1

Each operation's commands run one after another, one process at a time.
A run sets up its inputs (three times, reporting the median), then repeats
whole rounds of its operations until --seconds have passed.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it runs every
operation once untraced and once traced, prints per-layer metrics from
the traced copies and writes BENCH_<workload>.json with every span.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from workloads import Step

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 120.0
# One BLAS thread per process: on a small shared machine, threaded BLAS in
# the solver's small products turned a 3% run-to-run spread into 13%.
BLAS_THREADS = 1

# span name -> per-layer time metric (self time)
SPAN_METRIC = {
    "kde.bandwidth": "kde.bandwidth_s", "kde.reference": "kde.bandwidth_s",
    "kde.weights": "kde.weights_s", "kde.cdf": "kde.cdf_s",
    "intervals.levels": "intervals.levels_s", "intervals.raw_kde": "intervals.raw_kde_s",
    "spline.matrices": "spline.matrices_s", "spline.eval": "spline.eval_s",
    "solver.assemble": "solver.assemble_s", "solver.factor": "solver.factor_s",
    "solver.admm": "solver.admm_s", "solver.prox": "solver.prox_s",
    "pipeline.step1": "pipeline.step1_s", "pipeline.step2": "pipeline.step2_s",
    "pipeline.io": "pipeline.io_s", "model_select.cv": "model_select.cv_s",
    "model_select.metrics": "model_select.metrics_s", "simulate.truth": "simulate.truth_s",
    "simulate.rep": "simulate.rep_s", "rhythm.detect": "rhythm.detect_s",
}
COUNT_METRICS = (
    "kde.bandwidth_calls", "kde.bandwidth_fallbacks", "kde.cdf_calls",
    "intervals.level_queries", "intervals.raw_kde_calls", "spline.eval_points",
    "solver.admm_fits", "solver.admm_iters", "solver.admm_at_budget", "model_select.cv_folds",
)
ATTR_SPANS = {"kde.reference", "kde.cdf", "intervals.levels", "spline.eval",
              "solver.assemble", "solver.factor", "solver.admm"}  # spans that carry a value
EXTREME_METRICS = {  # largest (smallest for the margin) over the run: unit
    "intervals.source_n": "count", "solver.design_mb": "MB", "solver.factor_dim": "count",
    "solver.primal_res_max": "norm", "solver.dual_res_max": "norm",
    "solver.noncross_margin_min": "y",
}


class CheckoutError(Exception):
    """The checkout lacks the program, or the program cannot start."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONWARNINGS"] = "default"
    env.pop("MODALBAND_WORKERS", None)  # no worker pool: one process at a time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Launcher:
    """Starts one CLI command at a time and measures it from outside."""

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.count = 0

    def __call__(self, argv: list, trace: bool = False) -> Step:
        self.count += 1
        record_path = self.work / f"probe-{self.count}.pkl"
        err_path = self.work / f"stderr-{self.count}.txt"
        env = dict(self.env, BENCH_OUT=str(record_path), BENCH_TRACE="1" if trace else "0")
        with open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), *argv], cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        record = {}
        if record_path.exists():
            with open(record_path, "rb") as handle:
                record = pickle.load(handle)  # written by child.py for this run
            record_path.unlink()
        err_path.unlink()
        return Step(argv=argv, wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
                    code=proc.returncode, stderr=stderr, record=record)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def layer_metrics(spans: list, out: dict) -> float:
    """Add one process's spans to ``out``; returns the summed self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = 0.0
    for k, (name, start, end, parent, attrs) in enumerate(spans):
        self_s = (end - start) - child_time[k]
        total += self_s
        out[SPAN_METRIC[name]] = out.get(SPAN_METRIC[name], 0.0) + self_s
        under = spans[parent][0] if parent >= 0 else ""
        if attrs is None and name in ATTR_SPANS:
            continue  # the probe could not read its value
        if name == "kde.bandwidth":
            out["kde.bandwidth_calls"] += 1
        elif name == "kde.reference" and under == "kde.bandwidth" and attrs == spans[parent][4]:
            out["kde.bandwidth_fallbacks"] += 1
        elif name == "kde.cdf":
            out["kde.cdf_calls"] += 1
            if under == "intervals.levels":
                out["intervals.source_n"] = max(out["intervals.source_n"], attrs)
        elif name == "intervals.levels":
            out["intervals.level_queries"] += attrs
        elif name == "intervals.raw_kde":
            out["intervals.raw_kde_calls"] += 1
        elif name == "spline.eval":
            out["spline.eval_points"] += attrs
        elif name == "solver.assemble":
            out["solver.design_mb"] = max(out["solver.design_mb"], attrs / 1e6)
        elif name == "solver.factor":
            out["solver.factor_dim"] = max(out["solver.factor_dim"], attrs)
        elif name == "solver.admm":
            iterations, budget, primal, dual = attrs
            out["solver.admm_fits"] += 1
            out["solver.admm_iters"] += iterations
            out["solver.admm_at_budget"] += int(iterations >= budget)
            out["solver.primal_res_max"] = max(out["solver.primal_res_max"], primal)
            out["solver.dual_res_max"] = max(out["solver.dual_res_max"], dual)
        elif name == "pipeline.step1" and under == "model_select.cv":
            out["model_select.cv_folds"] += 1
    return total


def per_layer(traced: list, untraced: list) -> dict:
    """Per-operation means of self times and counts over the traced operations."""
    sums = {m: 0.0 for m in set(SPAN_METRIC.values()) | set(COUNT_METRICS)}
    sums.update({m: 0.0 for m in EXTREME_METRICS})
    sums["solver.noncross_margin_min"] = float("inf")
    other = 0.0
    for outcome in traced:
        library = sum(layer_metrics(step.record.get("spans", []), sums) for step in outcome.steps)
        other += outcome.wall - library
        if outcome.margins:
            sums["solver.noncross_margin_min"] = min(sums["solver.noncross_margin_min"],
                                                     min(outcome.margins))
    if sums["solver.noncross_margin_min"] == float("inf"):
        sums["solver.noncross_margin_min"] = 0.0
    n = len(traced)
    metrics = {}
    for name in sorted(sums):
        if name in EXTREME_METRICS:
            metrics[name] = (sums[name], EXTREME_METRICS[name])
        elif name in COUNT_METRICS:
            metrics[name] = (sums[name] / n, "count")
        else:
            metrics[name] = (sums[name] / n, "s")
    loop_s = sums["solver.admm_s"] + sums["solver.prox_s"]
    metrics["solver.admm_s_per_iter"] = (
        loop_s / sums["solver.admm_iters"] if sums["solver.admm_iters"] else 0.0, "s")
    metrics["cli.other_s"] = (other / n, "s")
    traced_s = statistics.fmean(o.wall for o in traced)
    untraced_s = statistics.fmean(o.wall for o in untraced)
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def environment() -> dict:
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__, "git_sha": sha}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = workloads.WORKLOADS[name](smoke)
    work = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        launch = Launcher(work, child_env())
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = workload.setup(work, seed)
            warm = launch(["--help"])
            setups.append(time.perf_counter() - start)
            if warm.code != 0:
                raise CheckoutError(f"modalband does not start: {warm.stderr.strip()[-300:]}")

        check_rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
        untraced, traced = [], []
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            for op in ops:
                untraced.append(workload.run(op, launch, check_rng))
                if trace:
                    traced.append(workload.run(op, lambda a: launch(a, trace=True), check_rng))
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = untraced + traced
    failed = [o for o in attempted if o.failed]
    good = [o for o in untraced if not o.failed]
    correct = all(o.known_fault for o in failed) and bool(good)
    result = {
        "workload": name, "seed": seed, "rounds": rounds, "correct": correct,
        "attempted": len(attempted), "failed": len(failed),
        "failures": sorted({f"{o.op}: {f}" for o in failed for f in o.failures}),
    }
    if trace:
        result["metrics"] = per_layer(traced, untraced)
        missing = sorted({m for o in traced for s in o.steps for m in s.record.get("missing", [])})
        write_bench_file(name, seed, traced, result, missing)
    else:
        result["metrics"] = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s": (statistics.median(o.wall for o in good) if good else float("nan"), "s"),
            "peak_rss_mb": (max(o.rss_mb for o in attempted), "MB"),
            "rmse": (statistics.fmean(o.rmse for o in good) if good else float("nan"), "y"),
        }
        result["samples"] = len(good)
    return result


def write_bench_file(name, seed, traced, result, missing) -> None:
    payload = {
        "label": name, "seed": seed, "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "missing_probes": missing,
        "operations": [{
            "op": o.op, "wall_s": o.wall, "failures": o.failures,
            "steps": [{"argv": s.argv, "wall_s": s.wall, "rss_mb": s.rss_mb,
                       "spans": [[n, a, b, p] for n, a, b, p, _ in s.record.get("spans", [])]}
                      for s in o.steps],
        } for o in traced],
    }
    (ROOT / f"BENCH_{name}.json").write_text(json.dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def report(result: dict) -> None:
    print(f"# {result['workload']} (seed {result['seed']}, {result['rounds']} round(s)): "
          f"attempted {result['attempted']}, failed {result['failed']}"
          + (f", op_s over {result['samples']} operations" if "samples" in result else ""))
    for failure in result["failures"]:
        print(f"#   failed: {failure}")
    for key, (value, unit) in result["metrics"].items():
        print(f"{result['workload']:>16} {key:<30} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; runs in seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modalband" / "cli.py").is_file():
        print(f"error: no modalband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"# environment: {json.dumps(environment())}")
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.smoke))
            report(results[-1])
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def metrics(r, prefix):  # a metric that could not be measured prints as null
        return {prefix + k: {"value": v if math.isfinite(v) else None, "unit": u}
                for k, (v, u) in r["metrics"].items()}

    single = len(results) == 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: v for r in results
                    for k, v in metrics(r, "" if single else r["workload"] + ".").items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
