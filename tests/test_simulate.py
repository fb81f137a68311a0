"""Benchmark data generators, replication harness, and CSV emission."""

import dataclasses
import warnings

import numpy as np
import pytest

from modalband import simulate
from modalband.simulate import (
    METHOD_BAND,
    METHOD_RAW,
    RepResult,
    SimConfig,
    aggregate,
    default_truth_grid,
    dist1_mean,
    dist1_sd,
    dist2_logmean,
    dist2_logsd,
    gen_dist1,
    gen_dist2,
    run_experiment,
    run_replications,
    true_band,
    write_replication_csv,
    write_summary_csv,
)

import conftest


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def tiny_config(**overrides):
    base = dict(
        dist=1, n=100, replications=1, lambdas=(1e-2,), seed=11,
        test_size=100,
    )
    base.update(overrides)
    return SimConfig(**base)


def non_timing_fields(result: RepResult) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("step1_s")
    fields.pop("step2_s")
    return fields


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_distribution_formula_values():
    assert dist1_mean(0.0) == 5.0
    assert dist1_sd(0.0) == 2.0
    assert float(dist1_mean(10.0)) == pytest.approx(5.0, abs=1e-12)
    assert float(dist1_sd(10.0)) == pytest.approx(0.5, abs=1e-12)
    assert float(dist2_logmean(1.25)) == pytest.approx(0.0, abs=1e-15)
    assert float(dist2_logsd(5.0)) == pytest.approx(0.2, abs=1e-12)
    assert float(dist2_logsd(0.0)) == pytest.approx(1.2, abs=1e-15)


def test_gen_dist1_standardized_residuals():
    data = gen_dist1(40_000, philox(2, 0))
    z = (data.y - dist1_mean(data.x)) / dist1_sd(data.x)
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert abs(z.std(ddof=1) - 1.0) < 4.0 / np.sqrt(2.0 * z.size)
    assert data.x.min() >= 0.0 and data.x.max() <= 10.0


def test_gen_dist2_standardized_log_residuals():
    data = gen_dist2(40_000, philox(2, 1))
    z = (np.log(data.y) - dist2_logmean(data.x)) / dist2_logsd(data.x)
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert abs(z.std(ddof=1) - 1.0) < 4.0 / np.sqrt(2.0 * z.size)
    assert np.all(data.y > 0.0)


def test_lognormal_median_at_left_edge():
    # log-mean is 1 at x=0, so the conditional median there is e
    draws = np.exp(philox(2, 2).normal(dist2_logmean(0.0), dist2_logsd(0.0), 100_000))
    assert np.median(draws) == pytest.approx(np.e, rel=0.02)


def test_generators_are_deterministic_in_the_key():
    a = gen_dist1(50, philox(9, 0))
    b = gen_dist1(50, philox(9, 0))
    c = gen_dist1(50, philox(9, 1))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)


def test_generators_reject_nonpositive_n():
    with pytest.raises(ValueError, match="n must be positive"):
        gen_dist1(0, philox(0))
    with pytest.raises(ValueError, match="n must be positive"):
        gen_dist2(-3, philox(0))


# ---------------------------------------------------------------------------
# exact band
# ---------------------------------------------------------------------------

def test_default_truth_grid_spacing():
    grid = default_truth_grid()
    assert grid.size == 101
    assert grid[0] == 0.0 and grid[-1] == 10.0
    assert np.allclose(np.diff(grid), 0.1, atol=1e-12)
    assert grid[3] == 0.3  # rounded to an exact decimal


def test_true_band_dist1_normal_interval():
    rows = true_band(1, 0.5, [0.0])
    z75 = 0.6744897501960817
    assert rows.shape == (1, 3)
    assert rows[0, 0] == 0.0
    assert rows[0, 1] == pytest.approx(5.0 - 2.0 * z75, abs=1e-9)
    assert rows[0, 2] == pytest.approx(5.0 + 2.0 * z75, abs=1e-9)


def test_true_band_dist1_symmetric_about_mean():
    grid = default_truth_grid()
    rows = true_band(1, 0.5, grid)
    assert np.allclose(rows[:, 1] + rows[:, 2], 2.0 * dist1_mean(grid), atol=1e-9)


def test_true_band_dist2_narrower_than_equal_tails():
    ndtri = pytest.importorskip("scipy.special").ndtri
    grid = default_truth_grid()
    rows = true_band(2, 0.5, grid)
    lm, ls = dist2_logmean(grid), dist2_logsd(grid)
    equal_tail = np.exp(lm + ndtri(0.75) * ls) - np.exp(lm + ndtri(0.25) * ls)
    width = rows[:, 2] - rows[:, 1]
    assert np.all(width < equal_tail)
    assert np.all(rows[:, 1] > 0.0)


def test_true_band_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution"):
        true_band(3, 0.5, [0.0])


# ---------------------------------------------------------------------------
# SimConfig
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown distribution 3"):
        SimConfig(dist=3, n=100)
    with pytest.raises(ValueError, match="at least 10"):
        SimConfig(dist=1, n=5)
    with pytest.raises(ValueError, match="replications must be positive"):
        SimConfig(dist=1, n=100, replications=0)
    with pytest.raises(ValueError, match="penalty grid must be nonempty"):
        SimConfig(dist=1, n=100, lambdas=())
    with pytest.raises(ValueError, match="penalty strength must be positive and finite, got -1.0"):
        SimConfig(dist=1, n=100, lambdas=(1e-2, -1.0))
    with pytest.raises(ValueError, match="^penalty grid repeats 0.01$"):
        SimConfig(dist=1, n=100, lambdas=(1e-2, 0.01, 1e-1))
    with pytest.raises(ValueError, match=r"coverage level must lie in \(0, 1\), got 1.0"):
        SimConfig(dist=1, n=100, alpha=1.0)
    with pytest.raises(ValueError, match="test_size"):
        SimConfig(dist=1, n=100, test_size=5)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SimConfig(dist=1, n=100, seed=-1)


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------

def test_replications_build_the_continuity_null_space_once(grid_builds):
    results = run_replications(tiny_config(replications=3, iterations=50))
    assert len(results) == 6  # three replications, band and comparator arms
    (basis,) = grid_builds["blocks"]
    assert grid_builds == {"blocks": [basis], "penalty": [basis], "noncross": [basis]}


def test_replications_deterministic_up_to_timing():
    config = tiny_config()
    a = run_replications(config)
    b = run_replications(config)
    assert len(a) == len(b) == 2  # band arm plus comparator arm
    assert a[0].method == METHOD_BAND and a[1].method == METHOD_RAW
    assert np.isnan(a[1].lam)
    for ra, rb in zip(a, b):
        fa, fb = non_timing_fields(ra), non_timing_fields(rb)
        fa["lam"], fb["lam"] = repr(fa["lam"]), repr(fb["lam"])  # NaN-safe
        assert fa == fb


def test_replication_failure_is_skipped_with_warning(monkeypatch):
    real = simulate.run_step1
    calls = {"count": 0}

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 4:
            raise RuntimeError("synthetic failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "run_step1", flaky)
    config = tiny_config(replications=12)
    with pytest.warns(RuntimeWarning, match=r"replication 3 \(seed \[11, 3\]\) failed"):
        results = run_replications(config)
    assert len(results) == 2 * 11  # band and comparator rows of the other replications
    for method in (METHOD_BAND, METHOD_RAW):
        reps = sorted(r.rep for r in results if r.method == method)
        assert reps == [r for r in range(12) if r != 3]


def test_running_out_of_memory_ends_the_replications(monkeypatch, recwarn):
    # only the library's refusals are recorded as failed replications
    def stage_one(*args, **kwargs):
        raise MemoryError("synthetic")

    monkeypatch.setattr(simulate, "run_step1", stage_one)
    with pytest.raises(MemoryError, match="^synthetic$"):
        run_replications(tiny_config(replications=3))
    assert not recwarn.list


def test_too_many_failures_abort(monkeypatch):
    def failing_stage_one(*args, **kwargs):
        raise ValueError("stage 1 failed")

    monkeypatch.setattr(simulate, "run_step1", failing_stage_one)
    with pytest.warns(RuntimeWarning, match="failed"):
        with pytest.raises(RuntimeError, match="1 of 1 replications failed"):
            run_replications(tiny_config())


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def synthetic_results():
    rows = []
    for lam, rmses in [(1e-1, (0.5, 0.7)), (1e-2, (0.4, 0.6))]:
        for rep, rmse in enumerate(rmses):
            rows.append(RepResult(
                method=METHOD_BAND, dist=1, n=100, lam=lam, rep=rep,
                rmse=rmse, cp=49.0 + rep, aiw=1.5 + rep, step1_s=0.1, step2_s=0.2,
            ))
    for rep in range(3):
        rows.append(RepResult(
            method=METHOD_RAW, dist=1, n=100, lam=float("nan"), rep=rep,
            rmse=1.0 + rep, cp=55.0, aiw=2.0, step1_s=0.05, step2_s=0.0,
        ))
    return rows


def test_aggregate_groups_and_orders_cells():
    rows = aggregate(synthetic_results())
    assert [(r.method, r.lam if not np.isnan(r.lam) else None) for r in rows] == [
        (METHOD_BAND, 1e-2), (METHOD_BAND, 1e-1), (METHOD_RAW, None),
    ]
    assert [r.reps for r in rows] == [2, 2, 3]
    band = rows[0]
    assert band.rmse_mean == pytest.approx(0.5)
    assert band.rmse_sd == pytest.approx(np.std([0.4, 0.6], ddof=1))
    assert band.cp_mean == pytest.approx(49.5)
    raw = rows[2]
    assert raw.rmse_mean == pytest.approx(2.0)
    assert np.isnan(raw.lam)


def test_aggregate_single_rep_sd_is_zero():
    rows = aggregate(synthetic_results()[:1])
    assert rows[0].reps == 1
    assert rows[0].rmse_sd == 0.0


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_replication_csv_format(tmp_path):
    path = tmp_path / "replications.csv"
    write_replication_csv(str(path), synthetic_results())
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "method,dist,n,lambda,rep,rmse,cp,aiw,step1_s,step2_s"
    assert len(lines) == 1 + 7
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == METHOD_BAND
    assert float(first[3]) == 0.1
    raw_row = lines[5].split(",")
    assert raw_row[0] == METHOD_RAW
    assert raw_row[3] == ""  # comparator arm has no penalty
    assert not list(tmp_path.glob(".tmp-*"))


def test_summary_csv_format(tmp_path):
    path = tmp_path / "summary.csv"
    write_summary_csv(str(path), aggregate(synthetic_results()))
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "method,dist,n,lambda,reps,rmse_mean,rmse_sd,cp_mean,cp_sd,"
        "aiw_mean,aiw_sd,step1_s_mean,step2_s_mean"
    )
    assert len(lines) == 1 + 3
    fields = lines[1].split(",")
    assert fields[0] == METHOD_BAND and fields[4] == "2"
    assert float(fields[5]) == pytest.approx(0.5)
    assert lines[3].split(",")[3] == ""


def test_csv_uses_nine_significant_digits(tmp_path):
    value = 0.123456789123456
    row = RepResult(
        method=METHOD_BAND, dist=1, n=100, lam=1e-2, rep=0,
        rmse=value, cp=49.0, aiw=1.0, step1_s=0.0, step2_s=0.0,
    )
    path = tmp_path / "r.csv"
    write_replication_csv(str(path), [row])
    written = path.read_text().splitlines()[1].split(",")[5]
    assert written == "0.123456789"
    assert float(written) == pytest.approx(value, rel=1e-8)


# ---------------------------------------------------------------------------
# statistical behavior across sample sizes and penalties
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_rmse_improves_with_sample_size(size_sweep):
    ns = sorted(size_sweep)
    rmse = [size_sweep[n].rmse_mean for n in ns]
    inversions = [max(b - a, 0.0) for a, b in zip(rmse, rmse[1:])]
    assert sum(v > 0 for v in inversions) <= 1
    assert max(inversions, default=0.0) <= 0.05
    assert abs(size_sweep[3000].cp_mean - 50.0) < abs(size_sweep[500].cp_mean - 50.0)


@pytest.mark.slow
def test_penalty_curve_has_interior_minimum(dist1_experiment):
    rows, _ = dist1_experiment
    by_lam = conftest.rows_by_lambda(rows, METHOD_BAND)
    lams = sorted(by_lam)
    rmse = [by_lam[lam].rmse_mean for lam in lams]
    best = int(np.argmin(rmse))
    assert 0 < best < len(lams) - 1
    assert rmse[best] < rmse[0] and rmse[best] < rmse[-1]
