"""The benchmark's workloads: their inputs, operations and output checks.

An operation is one unit of user work made of one or more ``modalband``
CLI commands.  Each workload builds a fixed round of operations; a run
repeats whole rounds, so the same seed gives the same inputs, the same
checks and the same quality figures.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ALPHA = 0.5
LEVEL_SAMPLE = 8      # observations per stage-1 call checked by brute force
WEIGHT_SAMPLE = 64    # observations per density-weight call checked directly
HELD_OUT = 4000       # held-out points for the coverage check
KNOWN_FAULT = "crossing"
# The program's inputs are fixed; the seed picks the held-out sets and the
# observations the checks sample.  Seeded inputs cross on a few percent of
# fits (see README.md), so a seeded failure count would depend on the seed.
DATA_SEED = 0
CAP = 1000            # the CLI's default --cap


@dataclass
class Step:
    argv: list
    wall: float
    rss_mb: float
    code: int
    stderr: str
    record: dict


@dataclass
class Outcome:
    op: str
    steps: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rmse: float = math.nan
    margins: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.steps)

    @property
    def rss_mb(self) -> float:
        return max((s.rss_mb for s in self.steps), default=0.0)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def known_fault(self) -> bool:
        return self.failed and all(f.startswith(KNOWN_FAULT) for f in self.failures)


def _stream(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def _write_xy(path: Path, x, y) -> None:
    with open(path, "w") as handle:
        handle.write("x,y\n")
        handle.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _load_band(path: Path) -> dict:
    payload = json.loads(path.read_text())
    return {key: (np.asarray(payload[key], dtype=float) if key in ("knots", "upper", "lower")
                  else int(payload[key]))
            for key in ("knots", "degree", "smoothness", "upper", "lower")}


def _eval(band: dict, x):
    lower = checks.eval_piecewise(band["lower"], band["knots"], band["degree"], x)
    upper = checks.eval_piecewise(band["upper"], band["knots"], band["degree"], x)
    return lower, upper


# ---------------------------------------------------------------------------
# Checks shared by every operation
# ---------------------------------------------------------------------------

def _step_faults(step: Step) -> list[str]:
    faults = []
    if step.code != 0:
        tail = step.stderr.strip().splitlines()[-1:] or [""]
        faults.append(f"{step.argv[0]} exited {step.code}: {tail[0]}")
    if "non-crossing violated" in step.stderr:
        faults.append(f"{KNOWN_FAULT} warning from {step.argv[0]}")
    return faults


def _stage1_faults(record: dict, rng: np.random.Generator) -> list[str]:
    """(a) levels by brute force at sampled observations; (b) direct KDE weights."""
    faults = []
    for call in record.get("levels", []):
        if call["src_x"] is None:
            faults.append("levels: conditional-CDF source was not captured")
            continue
        idx = rng.choice(call["x"].size, size=min(LEVEL_SAMPLE, call["x"].size), replace=False)
        for i in idx:
            values, cum, pw = checks.kernel_ecdf(call["x"][i], call["src_x"], call["src_y"], call["h"])
            ref = checks.brute_force_levels(values, cum, pw, call["alpha"])
            got = (call["p_low"][i], call["p_up"][i])
            if max(abs(got[0] - ref[0]), abs(got[1] - ref[1])) > checks.LEVEL_ATOL:
                faults.append(f"levels at x={call['x'][i]:.6g}: {got} vs brute force {ref}")
                break
    for call in record.get("weights", []):
        idx = rng.choice(call["x"].size, size=min(WEIGHT_SAMPLE, call["x"].size), replace=False)
        ref = checks.direct_density(call["x"][idx], call["x"], call["h"]) ** call["exponent"]
        err = np.max(np.abs(call["w"][idx] / ref - 1.0))
        if not err <= checks.WEIGHT_RTOL:
            faults.append(f"density weights off a direct KDE by {err:.2e} (relative)")
    return faults


def _common(out: Outcome, rng: np.random.Generator) -> None:
    for step in out.steps:
        out.failures += _step_faults(step)
        out.failures += _stage1_faults(step.record, rng)
        for band in step.record.get("bands", []):
            faults, margin = checks.band_faults(band)
            out.failures += faults
            out.margins.append(margin)


def _model_faults(model: Path, band_csv: Path, lo=None, hi=None) -> tuple[list[str], dict | None]:
    """(c) on the saved model, and the band CSV against the model's own values.

    The CSV grid is np.linspace(lo, hi, rows), by default over the knots; the
    band is evaluated on that exact grid, since the printed x is rounded.
    """
    try:
        band = _load_band(model)
    except (OSError, ValueError, KeyError) as exc:
        return [f"model {model.name} unreadable: {exc}"], None
    faults, _ = checks.band_faults(band)
    rows = _read_csv(band_csv)
    cols = {k: np.array([float(r[k]) for r in rows]) for k in ("x", "lower", "upper", "midpoint")}
    grid = np.linspace(band["knots"][0] if lo is None else lo,
                       band["knots"][-1] if hi is None else hi, len(rows))
    lower, upper = _eval(band, grid)
    if not (checks.close(cols["x"], grid, checks.CSV_RTOL)
            and checks.close(cols["lower"], lower, checks.CSV_RTOL)
            and checks.close(cols["upper"], upper, checks.CSV_RTOL)
            and checks.close(cols["midpoint"], 0.5 * (lower + upper), checks.CSV_RTOL)):
        faults.append(f"{band_csv.name} disagrees with the model's coefficients")
    return faults, band


def _rmse_fault(out: Outcome) -> None:
    """(e) the quality score must be finite."""
    if not math.isfinite(out.rmse):
        out.failures.append(f"rmse is not finite: {out.rmse}")


# ---------------------------------------------------------------------------
# fit-dist1-n10k
# ---------------------------------------------------------------------------

class FitDist1:
    name = "fit-dist1-n10k"
    why = ("modalband fit on n=10000 (fixed draws): the O(n^2) kde layers, the level "
           "scan and the dense 2n x 160 design dominate time and memory")

    def __init__(self, smoke: bool):
        self.n = 300 if smoke else 10_000
        self.ops = 1 if smoke else 2

    def setup(self, work: Path, seed: int) -> list:
        grid = np.linspace(0.1, 9.9, 99)
        self.truth = (grid, *checks.normal_modal_interval(grid, ALPHA))
        ops = []
        for k in range(self.ops):
            x, y = checks.draw_dist1(self.n, _stream(DATA_SEED, 1, k, 0))
            _write_xy(work / f"fit{k}.csv", x, y)
            test = checks.draw_dist1(HELD_OUT, _stream(seed, 1, k, 1))
            ops.append((f"fit{k}", work, test))
        return ops

    def run(self, op, cli, rng) -> Outcome:
        name, work, (tx, ty) = op
        out = Outcome(name)
        model, band_csv = work / f"{name}.json", work / f"{name}-band.csv"
        out.steps.append(cli(["fit", "--input", str(work / f"{name}.csv"), "--model", str(model),
                              "--band", str(band_csv), "--alpha", str(ALPHA),
                              "--penalty", "1e-2", "--seed", "0"]))
        _common(out, rng)
        if out.steps[-1].code != 0:
            return out
        faults, band = _model_faults(model, band_csv)
        out.failures += faults
        if band is not None:
            lower, upper = _eval(band, np.clip(tx, band["knots"][0], band["knots"][-1]))
            # stage 1 reads every level off a subsample of at most CAP points
            fault = checks.coverage_fault((ty >= lower) & (ty <= upper), ALPHA,
                                          min(self.n, CAP))
            out.failures += [fault] if fault else []
            grid, true_low, true_up = self.truth
            keep = (grid >= band["knots"][0]) & (grid <= band["knots"][-1])
            lower, upper = _eval(band, grid[keep])
            out.rmse = checks.rmse_sum(lower, upper, true_low[keep], true_up[keep])
            _rmse_fault(out)
        return out


# ---------------------------------------------------------------------------
# sim-dist1-n1k
# ---------------------------------------------------------------------------

class SimDist1:
    name = "sim-dist1-n1k"
    why = ("one simulate replication at n=1000: stage 1 once, five ADMM solves and "
           "the raw-KDE comparator; binning the bandwidth should not move it")

    LAMBDA = 1e-2  # the band arm the quality score is read from
    SIM_SEEDS = (1, 2, 3, 4)  # fixed --seed values of the simulate commands

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.n = 150 if smoke else 1000
        self.sim_seeds = self.SIM_SEEDS[:1] if smoke else self.SIM_SEEDS

    def setup(self, work: Path, seed: int) -> list:
        grid = np.round(np.arange(101) * 0.1, 10)
        self.truth = (grid, *checks.normal_modal_interval(grid, ALPHA))
        ops = []
        for k, sim_seed in enumerate(self.sim_seeds):
            test = checks.draw_dist1(HELD_OUT, _stream(seed, 2, k, 1))
            ops.append((f"sim{k}", work / f"sim{k}", sim_seed, test))
        return ops

    def run(self, op, cli, rng) -> Outcome:
        name, out_dir, sim_seed, (tx, ty) = op
        out = Outcome(name)
        argv = ["simulate", "--dist", "1", "--n", str(self.n), "--reps", "1",
                "--seed", str(sim_seed), "--out-dir", str(out_dir)]
        if self.smoke:
            argv += ["--test-size", "100"]
        out.steps.append(cli(argv))
        _common(out, rng)
        if out.steps[-1].code != 0:
            return out
        rows = _read_csv(out_dir / "replications.csv")
        methods = sorted(r["method"] for r in rows)
        if methods != ["kde"] + ["kde_mir"] * 5:
            out.failures.append(f"replications.csv holds arms {methods}")
        bands = [b for b in out.steps[-1].record.get("bands", []) if b["lam"] == self.LAMBDA]
        if len(bands) != 1:
            out.failures.append(f"{len(bands)} captured bands at lambda {self.LAMBDA}")
            return out
        band = bands[0]
        lower, upper = _eval(band, tx)
        fault = checks.coverage_fault((ty >= lower) & (ty <= upper), ALPHA, self.n)
        out.failures += [fault] if fault else []
        grid, true_low, true_up = self.truth
        lower, upper = _eval(band, grid)
        out.rmse = checks.rmse_sum(lower, upper, true_low, true_up)
        _rmse_fault(out)
        reported = [float(r["rmse"]) for r in rows
                    if r["method"] == "kde_mir" and float(r["lambda"]) == self.LAMBDA]
        if not reported or abs(reported[0] - out.rmse) > 1e-6 * out.rmse:
            out.failures.append(f"replications.csv rmse {reported} vs recomputed {out.rmse:.9g}")
        return out


# ---------------------------------------------------------------------------
# cv-hourly-n482
# ---------------------------------------------------------------------------

class CvHourly:
    name = "cv-hourly-n482"
    why = ("the paper's application on one fixed hourly dataset (0-240 h, 2 replicates): "
           "cv over 5 folds x 5 penalties, then fit, band and rhythm")

    # The paper's application is one fixed dataset, and so is this one.
    # Seeded hourly draws cross on about 1% of fits (see README.md), which
    # would make the failure count depend on the seed.  On this draw,
    # cv --seed 1 returns a crossing fold band every time: the one operation
    # that is expected to fail while that fault stands.
    DATA_SEED = 7
    CV_SEED = "1"

    def __init__(self, smoke: bool):
        self.smoke = smoke
        self.hours = 60 if smoke else 240
        self.fits = 1 if smoke else 4  # fit/band/rhythm operations per round

    def setup(self, work: Path, seed: int) -> list:
        x = checks.hourly_x(self.hours)
        self.n = x.size
        self.data = work / "hourly.csv"
        _write_xy(self.data, x, checks.draw_hourly(x, np.random.default_rng(self.DATA_SEED)))
        grid = np.arange(0, self.hours + 1, 1.0)
        self.truth = checks.lognormal_modal_interval(
            checks.hourly_logmean(grid), checks.HOURLY_LOGSD, ALPHA)
        rng = _stream(seed, 3)
        tx = rng.integers(0, self.hours + 1, HELD_OUT).astype(float)
        self.held_out = (tx, checks.draw_hourly(tx, rng))
        self.penalty = None
        return [("cv", work)] + [(f"fit{k}", work) for k in range(self.fits)]

    def run(self, op, cli, rng) -> Outcome:
        name, work = op
        out = Outcome(name)
        if name == "cv":
            table = work / "cv.csv"
            argv = ["cv", "--input", str(self.data), "--output", str(table),
                    "--seed", self.CV_SEED, "--alpha", str(ALPHA)]
            if self.smoke:
                argv += ["--folds", "2", "--lambdas", "1e-2,1e-1"]
            out.steps.append(cli(argv))
            _common(out, rng)
            if out.steps[-1].code == 0:
                self.penalty, fault = self._cv_table(table)
                out.failures += [fault] if fault else []
            return out

        if self.penalty is None:
            out.failures.append("no penalty: the cv operation gave no table")
            return out
        model, band_csv = work / f"{name}.json", work / f"{name}-band.csv"
        cycles = work / f"{name}-cycles.csv"
        for argv in (["fit", "--input", str(self.data), "--model", str(model),
                      "--penalty", self.penalty, "--alpha", str(ALPHA)],
                     ["band", "--model", str(model), "--output", str(band_csv),
                      "--grid-min", "0", "--grid-max", str(self.hours),
                      "--grid-points", str(self.hours + 1)],
                     ["rhythm", "--input", str(band_csv), "--output", str(cycles),
                      "--window", "24"]):
            out.steps.append(cli(argv))
            if out.steps[-1].code != 0:
                break
        _common(out, rng)
        if out.steps[-1].code != 0:
            return out
        faults, band = _model_faults(model, band_csv, 0.0, float(self.hours))
        out.failures += faults
        if band is None:
            return out
        out.failures += self._rhythm_faults(band_csv, cycles)
        tx, ty = self.held_out
        lower, upper = _eval(band, tx)
        fault = checks.coverage_fault((ty >= lower) & (ty <= upper), ALPHA, self.n)
        out.failures += [fault] if fault else []
        rows = _read_csv(band_csv)
        lower = np.array([float(r["lower"]) for r in rows])
        upper = np.array([float(r["upper"]) for r in rows])
        out.rmse = checks.rmse_sum(lower, upper, *self.truth)
        _rmse_fault(out)
        return out

    @staticmethod
    def _cv_table(path: Path):
        """(e) exactly one penalty is marked, and it has the smallest mean score."""
        rows = _read_csv(path)
        marked = [r for r in rows if r["selected"] == "1"]
        if len(marked) != 1:
            return None, f"cv table marks {len(marked)} penalties"
        scores = [float(r["mean_mcwc"]) if r["mean_mcwc"] else math.inf for r in rows]
        best = rows[int(np.argmin(scores))]
        if best is not marked[0]:
            return marked[0]["lambda"], "cv table marks a penalty without the smallest score"
        return marked[0]["lambda"], None

    @staticmethod
    def _rhythm_faults(band_csv: Path, cycles_csv: Path) -> list[str]:
        """Each cycle's peak dominates its 24 h window and its ratios match the band."""
        rows = _read_csv(band_csv)
        x = np.array([float(r["x"]) for r in rows])
        mid = np.array([float(r["midpoint"]) for r in rows])
        faults = []
        for c in _read_csv(cycles_csv):
            t1, pk, t2 = (float(c[k]) for k in ("trough1_x", "peak_x", "trough2_x"))
            i1, ip, i2 = (int(np.argmin(np.abs(x - v))) for v in (t1, pk, t2))
            window = (np.abs(x - pk) <= 24.0) & (x != pk)
            ok = t1 < pk < t2 and np.all(mid[window] < mid[ip])
            if ok and c["ratio_undefined"] == "0":
                ok = (abs(float(c["ratio1"]) - mid[ip] / mid[i1]) <= 1e-6 * mid[ip] / mid[i1]
                      and abs(float(c["ratio2"]) - mid[ip] / mid[i2]) <= 1e-6 * mid[ip] / mid[i2])
            if not ok:
                faults.append(f"rhythm cycle at peak {pk} does not match the band midpoint")
        return faults


WORKLOADS = {cls.name: cls for cls in (FitDist1, SimDist1, CvHourly)}
