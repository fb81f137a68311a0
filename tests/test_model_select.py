"""Band quality metrics and cross-validated penalty selection."""

import warnings

import numpy as np
import pytest

from modalband import model_select
from modalband.kde import Dataset
from modalband.model_select import (
    band_metrics,
    mcwc_score,
    rmse_bounds,
    select_lambda_cv,
)
from modalband.simulate import gen_dist1, gen_dist2
from modalband.solver import FittedBand
from modalband.spline import SplineBasis


def constant_band(low=2.0, up=8.0, lo_knot=0.0, hi_knot=10.0):
    """Band with flat bounds: a single cubic segment, constant coefficients."""
    basis = SplineBasis([lo_knot, hi_knot])
    upper = np.array([up, 0.0, 0.0, 0.0])
    lower = np.array([low, 0.0, 0.0, 0.0])
    return FittedBand(upper=upper, lower=lower, basis=basis)


def ten_segments(data):
    return SplineBasis.uniform(data.x.min(), data.x.max(), segments=10)


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


# ---------------------------------------------------------------------------
# mcwc_score
# ---------------------------------------------------------------------------

def test_mcwc_no_penalty_at_or_above_target():
    assert mcwc_score(0.37, 0.5, 0.5) == 0.37
    assert mcwc_score(0.37, 0.93, 0.5) == 0.37


def test_mcwc_penalty_value():
    assert abs(mcwc_score(1.0, 0.45, 0.5) - np.e) < 1e-12


def test_mcwc_strictly_decreasing_in_coverage_below_target():
    micps = np.linspace(0.05, 0.49, 12)
    scores = [mcwc_score(0.4, m, 0.5) for m in micps]
    assert all(a > b for a, b in zip(scores, scores[1:]))
    assert all(s > 0.4 for s in scores)


# ---------------------------------------------------------------------------
# band_metrics
# ---------------------------------------------------------------------------

def test_band_metrics_hand_computation():
    band = constant_band(2.0, 8.0)
    test = Dataset([1.0, 3.0, 5.0, 6.0, 7.0, 9.0], [1.0, 2.0, 3.0, 5.0, 8.0, 9.0])
    metrics = band_metrics(band, test, alpha=0.5)
    assert metrics.micp == pytest.approx(4.0 / 6.0, abs=1e-15)
    assert metrics.aiw == pytest.approx(6.0, abs=1e-12)
    assert metrics.nmmiw == pytest.approx(6.0 / 8.0, abs=1e-12)
    assert metrics.mcwc == metrics.nmmiw  # coverage met
    assert metrics.n_used == 6
    assert metrics.n_outside == 0


def test_band_metrics_penalized_when_coverage_short():
    band = constant_band(2.0, 8.0)
    test = Dataset([1.0, 3.0, 5.0, 6.0, 7.0, 9.0], [1.0, 2.0, 3.0, 5.0, 8.0, 9.0])
    metrics = band_metrics(band, test, alpha=0.8)
    expected = metrics.nmmiw * np.exp(-20.0 * (4.0 / 6.0 - 0.8))
    assert metrics.mcwc == pytest.approx(expected, rel=1e-14)


def test_band_metrics_drops_points_outside_domain():
    band = constant_band(2.0, 8.0)
    test = Dataset([1.0, 5.0, 12.0], [3.0, 5.0, 100.0])
    with pytest.warns(RuntimeWarning, match="dropping 1 test points"):
        metrics = band_metrics(band, test, alpha=0.5)
    assert metrics.n_outside == 1
    assert metrics.n_used == 2
    assert metrics.micp == 1.0


def test_band_metrics_errors():
    band = constant_band(2.0, 8.0)
    with pytest.raises(ValueError, match="zero range"):
        band_metrics(band, Dataset([1.0, 2.0], [3.0, 3.0]), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="no test points inside"):
            band_metrics(band, Dataset([11.0, 12.0], [3.0, 4.0]), 0.5)


def test_band_metrics_permutation_invariant():
    rng = np.random.default_rng(9)
    band = constant_band(2.0, 8.0)
    x = rng.uniform(0.0, 10.0, 200)
    y = rng.uniform(0.0, 10.0, 200)
    order = rng.permutation(200)
    a = band_metrics(band, Dataset(x, y), 0.5)
    b = band_metrics(band, Dataset(x[order], y[order]), 0.5)
    assert a.micp == b.micp
    assert a.aiw == pytest.approx(b.aiw, rel=1e-12)
    assert a.mcwc == pytest.approx(b.mcwc, rel=1e-12)


# ---------------------------------------------------------------------------
# rmse_bounds
# ---------------------------------------------------------------------------

def test_rmse_bounds_exact_fit_is_zero():
    band = constant_band(2.0, 8.0)
    truth = np.column_stack([np.linspace(0, 10, 21), np.full(21, 2.0), np.full(21, 8.0)])
    assert rmse_bounds(band, truth) == 0.0


def test_rmse_bounds_unit_offset():
    band = constant_band(2.0, 9.0)
    truth = np.column_stack([np.linspace(0, 10, 21), np.full(21, 2.0), np.full(21, 8.0)])
    assert rmse_bounds(band, truth) == pytest.approx(1.0, abs=1e-12)


def test_rmse_bounds_matches_naive_loop():
    rng = np.random.default_rng(31)
    basis = SplineBasis([0.0, 10.0])
    band = FittedBand(upper=rng.normal(size=4), lower=rng.normal(size=4), basis=basis)
    truth = np.column_stack([
        rng.uniform(0.0, 10.0, 40), rng.normal(size=40), rng.normal(size=40),
    ])
    up_err = [band.upper_at(float(x)) - up for x, _, up in truth]
    low_err = [band.lower_at(float(x)) - low for x, low, _ in truth]
    naive = np.sqrt(np.mean(np.square(up_err))) + np.sqrt(np.mean(np.square(low_err)))
    assert rmse_bounds(band, truth) == pytest.approx(naive, rel=1e-12)
    shuffled = truth[rng.permutation(40)]
    assert rmse_bounds(band, shuffled) == pytest.approx(naive, rel=1e-12)


def test_rmse_bounds_rejects_bad_truth():
    band = constant_band()
    with pytest.raises(ValueError, match=r"\(x, low, up\) rows"):
        rmse_bounds(band, np.zeros((0, 3)))
    with pytest.raises(ValueError, match=r"\(x, low, up\) rows"):
        rmse_bounds(band, np.zeros(3))
    with pytest.raises(ValueError, match=r"\(x, low, up\) rows"):
        rmse_bounds(band, np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# select_lambda_cv
# ---------------------------------------------------------------------------

def test_cv_singleton_grid():
    data = gen_dist1(120, philox(55))
    result = select_lambda_cv(data, [1e-2], folds=2, seed=0, basis=ten_segments(data))
    assert result.selected == 1e-2
    assert result.selected_index == 0
    assert np.array_equal(result.lambdas, [1e-2])
    assert result.fold_scores.shape == (1, 2)
    assert np.all(np.isfinite(result.fold_scores))
    assert result.mean_scores[0] == pytest.approx(result.fold_scores[0].mean())


def test_cv_tie_takes_first_grid_entry(monkeypatch):
    # every fold is fitted at 1e-2, so both penalties score alike
    data = gen_dist1(120, philox(56))
    real = model_select.run_step2

    def fixed_penalty(train, step1, basis, lam, **kwargs):
        return real(train, step1, basis, 1e-2, **kwargs)

    monkeypatch.setattr(model_select, "run_step2", fixed_penalty)
    result = select_lambda_cv(data, [1e-1, 1e-2], folds=2, seed=1, basis=ten_segments(data))
    assert result.mean_scores[0] == result.mean_scores[1]
    assert result.selected_index == 0
    assert result.selected == 1e-1  # the first entry, not the smallest


def test_cv_deterministic_for_fixed_seed():
    data = gen_dist1(120, philox(57))
    a = select_lambda_cv(data, [1e-2, 1e-1], folds=2, seed=4, basis=ten_segments(data))
    b = select_lambda_cv(data, [1e-2, 1e-1], folds=2, seed=4, basis=ten_segments(data))
    assert np.array_equal(a.fold_scores, b.fold_scores)
    assert a.selected == b.selected


def test_cv_builds_the_continuity_null_space_once(grid_builds, monkeypatch):
    # 5 folds x 5 penalties fit 25 bands on one basis, whose grid-only
    # matrices are all built before the first fold's stage 1
    data = gen_dist1(120, philox(57))
    real = model_select.run_step1

    def stage_one(*args, **kwargs):
        assert all(len(builds) == 1 for builds in grid_builds.values())
        return real(*args, **kwargs)

    monkeypatch.setattr(model_select, "run_step1", stage_one)
    result = select_lambda_cv(data, [1e-4, 1e-3, 1e-2, 1e-1, 1.0], folds=5, seed=4, iters=50)
    assert result.fold_scores.shape == (5, 5)
    assert np.all(np.isfinite(result.fold_scores))
    (basis,) = grid_builds["blocks"]
    assert grid_builds == {"blocks": [basis], "penalty": [basis], "noncross": [basis]}


def test_cv_excludes_penalty_with_failed_fold(monkeypatch):
    data = gen_dist1(120, philox(58))
    real = model_select.run_step2

    def flaky(train, step1, basis, lam, **kwargs):
        if lam == 1.0:
            raise RuntimeError("synthetic failure")
        return real(train, step1, basis, lam, **kwargs)

    monkeypatch.setattr(model_select, "run_step2", flaky)
    with pytest.warns(RuntimeWarning, match="excluded"):
        result = select_lambda_cv(data, [1e-2, 1.0], folds=2, seed=2, basis=ten_segments(data))
    assert result.selected == 1e-2
    assert np.isnan(result.mean_scores[1])
    assert np.isfinite(result.mean_scores[0])


def test_cv_raises_a_refused_fold_stage_one(monkeypatch, recwarn):
    # every penalty would lack that fold, so the refusal itself is the error
    data = gen_dist1(120, philox(59))

    def refused(*args, **kwargs):
        raise ValueError("synthetic refusal")

    monkeypatch.setattr(model_select, "run_step1", refused)
    with pytest.raises(ValueError, match="^synthetic refusal$"):
        select_lambda_cv(data, [1e-2, 1e-1], folds=2, seed=0, basis=ten_segments(data))
    assert not recwarn.list


def test_cv_raises_when_everything_fails(monkeypatch):
    data = gen_dist1(120, philox(59))

    def broken(train, step1, basis, lam, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(model_select, "run_step2", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="every penalty value"):
            select_lambda_cv(data, [1e-2], folds=2, seed=0, basis=ten_segments(data))


def test_cv_validation_errors():
    data = gen_dist1(120, philox(60))
    with pytest.raises(ValueError, match="penalty grid must be nonempty"):
        select_lambda_cv(data, [], folds=2, seed=0)
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"penalty strength must be positive and finite, got {lam}"):
            select_lambda_cv(data, [1e-2, lam], folds=2, seed=0)
    with pytest.raises(ValueError, match="^penalty grid repeats 0.01$"):
        select_lambda_cv(data, [1e-2, 0.01, 1e-1], folds=2, seed=0)
    with pytest.raises(ValueError, match="at least 2 folds"):
        select_lambda_cv(data, [1e-2], folds=1, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        select_lambda_cv(data, [1e-2], folds=2, seed=-1)
    with pytest.raises(ValueError, match="outside the knot range"):
        select_lambda_cv(data, [1e-2], folds=2, seed=0, basis=SplineBasis.uniform(0.0, 5.0))
    small = gen_dist1(30, philox(61))
    with pytest.raises(ValueError, match="need at least 40 points"):
        select_lambda_cv(small, [1e-2], folds=2, seed=0)


@pytest.mark.slow
def test_cv_prefers_moderate_penalties_consistently():
    # the underpenalized and overpenalized ends of the default grid should
    # rarely win on fresh lognormal-band data of moderate size
    grid = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    hits = 0
    for k in range(20):
        data = gen_dist2(1000, philox(1000, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = select_lambda_cv(data, grid, folds=5, seed=k)
        hits += result.selected in (1e-2, 1e-1)
    assert hits >= 16
