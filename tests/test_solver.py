"""Program assembly, proximal steps, and ADMM convergence."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import conftest
from modalband import pipeline, solver
from modalband.intervals import QuantileLevelSet, _capped_source, estimate_intervals_at
from modalband.kde import Dataset, conditional_cdf
from modalband.model_select import select_lambda_cv
from modalband.pipeline import fit_band, run_step1, run_step2
from modalband.simulate import gen_dist1
from modalband.solver import (
    _choose_span,
    admm_fit,
    assemble,
    objective,
    prox_quantile_loss,
    quantile_loss,
)
from modalband.spline import (
    SplineBasis,
    _gram,
    continuity_matrix,
    design_matrix,
    eval_spline,
    noncross_matrix,
    penalty_matrix,
)


def small_problem(n=3, lam=1e-2):
    data = Dataset([0.2, 1.0, 1.7], [1.0, 2.0, 3.0])
    levels = QuantileLevelSet([0.2, 0.25, 0.3], [0.7, 0.75, 0.8])
    basis = SplineBasis([0.0, 1.0, 2.0])
    return assemble(data, levels, np.ones(n), basis, lam), data, levels, basis


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------

def test_assemble_block_shapes():
    problem, data, levels, basis = small_problem()
    assert problem.values.shape == (3, 4)
    assert basis.penalty.shape == (5, 5)
    assert basis.noncross.shape == (8, 4)
    assert basis.blocks.shape == (2, 4, 4)
    # the grid-only blocks live on the basis, not on each program, and no
    # row is stored densely
    for name in ("A", "N", "AN", "QN", "GN"):
        assert not hasattr(problem, name)
    AN = conftest.dense_rows(problem.first, problem.values, 5)
    assert np.array_equal(AN, conftest.bspline_rows(data.x, basis))
    assert np.allclose(AN, design_matrix(data.x, basis) @ conftest.dense_map(basis),
                       rtol=0.0, atol=1e-14)
    assert problem.n == 3
    assert np.array_equal(problem.first, basis.segment_index(data.x))
    assert np.array_equal(problem.p, [0.7, 0.75, 0.8, 0.2, 0.25, 0.3])
    assert np.array_equal(problem.y, np.tile(data.y, 2))
    assert np.array_equal(problem.w, np.ones(6))


def test_assemble_blocks_match_single_curve_matrices():
    data = Dataset(np.linspace(0.1, 2.9, 6), np.arange(6.0))
    levels = QuantileLevelSet(np.full(6, 0.25), np.full(6, 0.75))
    # segments + 3 B-spline coefficients per curve: 20 C^2 cubic segments give 23
    for segments in (1, 2, 7, 20):
        basis = SplineBasis.uniform(0.0, 3.0, segments)
        problem = assemble(data, levels, np.ones(6), basis, 1e-2)
        P = conftest.dense_map(basis)
        dim = 4 * segments - 3 * (segments - 1)
        assert P.shape == (basis.size, dim) == (basis.size, segments + 3)
        AN = conftest.dense_rows(problem.first, problem.values, segments + 3)
        assert np.allclose(AN, design_matrix(data.x, basis) @ P, rtol=0.0, atol=1e-14)
        assert problem.basis is basis
        dense = P.T @ penalty_matrix(basis) @ P
        assert np.max(np.abs(basis.penalty - dense)) <= 1e-13 * np.max(np.abs(dense))
        GN = conftest.dense_rows(np.arange(basis.size) // 4, basis.noncross, segments + 3)
        assert np.array_equal(GN, noncross_matrix(basis) @ P)
        assert np.max(np.abs(continuity_matrix(basis) @ P), initial=0.0) <= 1e-12


def test_assemble_design_evaluates_both_curves():
    problem, data, levels, basis = small_problem()
    rng = np.random.default_rng(3)
    # continuous coefficients P theta, the only ones the program represents
    theta_up = rng.normal(size=5)
    P = conftest.dense_map(basis)
    upper = P @ theta_up
    lower = P @ rng.normal(size=5)
    A = design_matrix(data.x, basis)
    assert np.allclose(A @ upper, eval_spline(upper, basis, data.x), atol=1e-14)
    assert np.allclose(A @ lower, eval_spline(lower, basis, data.x), atol=1e-14)
    AN = conftest.dense_rows(problem.first, problem.values, 5)
    assert np.allclose(AN @ theta_up, A @ upper, atol=1e-14)
    # the objective pairs the upper curve with p_up and the lower with p_low
    loss = (quantile_loss(data.y - eval_spline(upper, basis, data.x), levels.p_up).sum()
            + quantile_loss(data.y - eval_spline(lower, basis, data.x), levels.p_low).sum())
    penalty = upper @ penalty_matrix(basis) @ upper + lower @ penalty_matrix(basis) @ lower
    value = objective(problem, np.concatenate([upper, lower]))
    assert value == pytest.approx(loss + problem.lam * penalty, rel=1e-13)


def test_assemble_validation():
    data = Dataset([0.2, 1.0, 1.7], [1.0, 2.0, 3.0])
    levels = QuantileLevelSet([0.2, 0.3], [0.7, 0.8])
    basis = SplineBasis([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="level count"):
        assemble(data, levels, np.ones(3), basis, 1e-2)
    levels3 = QuantileLevelSet([0.2, 0.25, 0.3], [0.7, 0.75, 0.8])
    with pytest.raises(ValueError, match="weight shape"):
        assemble(data, levels3, np.ones(4), basis, 1e-2)
    with pytest.raises(ValueError, match="positive and finite"):
        assemble(data, levels3, [1.0, 0.0, 1.0], basis, 1e-2)
    with pytest.raises(ValueError, match="penalty strength"):
        assemble(data, levels3, np.ones(3), basis, 0.0)
    outside = Dataset([0.2, 1.0, 2.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="outside the knot range"):
        assemble(outside, levels3, np.ones(3), basis, 1e-2)


# ---------------------------------------------------------------------------
# loss, prox, projection
# ---------------------------------------------------------------------------

def test_quantile_loss_values():
    assert quantile_loss(2.0, 0.25) == 0.5
    assert quantile_loss(-2.0, 0.25) == 1.5
    assert quantile_loss(0.0, 0.9) == 0.0
    assert np.array_equal(quantile_loss([1.0, -1.0], 0.75), [0.75, 0.25])


def test_quantile_loss_nonnegative_and_convex_in_t():
    rng = np.random.default_rng(5)
    t = rng.normal(size=1000) * 3.0
    p = rng.uniform(0.05, 0.95, 1000)
    loss = quantile_loss(t, p)
    assert np.all(loss >= 0.0)
    # midpoint convexity along t
    mid = quantile_loss(t / 2.0, p)
    assert np.all(mid <= 0.5 * loss + 0.5 * quantile_loss(np.zeros_like(t), p) + 1e-15)


def test_prox_branch_examples():
    # residual above the upper kink: move up by gamma*p*w
    assert prox_quantile_loss(0.0, 0.5, 2.0, 1.0, 1.0) == 0.5
    # residual below the lower kink: move down by gamma*(1-p)*w
    assert prox_quantile_loss(2.0, 0.5, 0.0, 1.0, 1.0) == 1.5
    # inside the kink window: land exactly on y
    assert prox_quantile_loss(0.2, 0.5, 0.3, 1.0, 1.0) == 0.3
    out = prox_quantile_loss(np.array([0.0, 2.0, 0.2]), 0.5,
                             np.array([2.0, 0.0, 0.3]), 1.0, 1.0)
    assert np.array_equal(out, [0.5, 1.5, 0.3])


def test_prox_matches_golden_section_search():
    rng = np.random.default_rng(17)
    size = 100_000
    z = rng.uniform(-5.0, 5.0, size)
    y = rng.uniform(-5.0, 5.0, size)
    p = rng.uniform(0.02, 0.98, size)
    w = rng.uniform(0.1, 5.0, size)
    gamma = rng.uniform(0.1, 3.0, size)
    direct = prox_quantile_loss(z, p, y, w, gamma)

    def value(v):
        return w * quantile_loss(y - v, p) + (v - z) ** 2 / (2.0 * gamma)

    # strictly convex objective, so golden-section search converges
    lo = np.minimum(y, z) - gamma * w - 1.0
    hi = np.maximum(y, z) + gamma * w + 1.0
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        a = hi - invphi * (hi - lo)
        b = lo + invphi * (hi - lo)
        keep_left = value(a) < value(b)
        hi = np.where(keep_left, b, hi)
        lo = np.where(keep_left, lo, a)
    assert np.max(np.abs(direct - 0.5 * (lo + hi))) < 1e-6


def test_objective_hand_check_at_zero():
    problem, data, levels, basis = small_problem()
    expected = float(np.sum(quantile_loss(problem.y, problem.p)))
    assert objective(problem, np.zeros(16)) == pytest.approx(expected, abs=1e-14)


def test_objective_refuses_discontinuous_coefficients():
    # a jump at the middle knot: no theta gives it, so P theta = c has no solution
    problem, data, levels, basis = small_problem()
    jump = np.zeros(16)
    jump[4] = 1.0  # constant term of the second segment of the upper curve
    with pytest.raises(ValueError, match="not continuous"):
        objective(problem, jump)
    P = conftest.dense_map(basis)
    continuous = np.concatenate([P[:, 0], P[:, 1]])
    assert np.isfinite(objective(problem, continuous))



# ---------------------------------------------------------------------------
# admm_fit
# ---------------------------------------------------------------------------

def test_admm_recovers_parallel_lines():
    # alternating responses in {0, 1}: the 0.75 curve is the constant 1 and
    # the 0.25 curve the constant 0, both exactly optimal at any penalty
    n = 200
    x = np.linspace(0.05, 9.95, n)
    y = (np.arange(n) % 2).astype(float)
    data = Dataset(x, y)
    levels = QuantileLevelSet(np.full(n, 0.25), np.full(n, 0.75))
    basis = SplineBasis.uniform(0.0, 10.0, segments=8)
    problem = assemble(data, levels, np.ones(n), basis, lam=1.0)
    band = admm_fit(problem, iters=8000)
    assert band.iterations == 8000  # no early stop
    grid = np.linspace(0.0, 10.0, 501)
    assert np.max(np.abs(band.upper_at(grid) - 1.0)) < 1e-4
    assert np.max(np.abs(band.lower_at(grid))) < 1e-4
    assert band.primal_residual < 1e-4
    assert band.dual_residual < 1e-4


def test_admm_solution_is_constrained_local_minimum():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(41)
    n = 60
    x = np.sort(rng.uniform(0.0, 10.0, n))
    y = np.sin(x) + rng.normal(0.0, 0.3, n)
    data = Dataset(x, y)
    levels = QuantileLevelSet(np.full(n, 0.3), np.full(n, 0.7))
    basis = SplineBasis.uniform(0.0, 10.0, segments=5)
    problem = assemble(data, levels, np.ones(n), basis, lam=1e-2)
    band = admm_fit(problem, iters=20_000)
    c_star = np.concatenate([band.upper, band.lower])
    base = objective(problem, c_star)

    H = linalg.block_diag(continuity_matrix(basis), continuity_matrix(basis))
    G = np.hstack([noncross_matrix(basis), -noncross_matrix(basis)])
    slack = G @ c_star
    active = G[slack <= 1e-8]
    directions = linalg.null_space(np.vstack([H, active]))
    assert directions.shape[1] > 0
    checked = 0
    for _ in range(200):
        step = directions @ rng.normal(size=directions.shape[1])
        step *= 1e-3 / np.linalg.norm(step)
        candidate = c_star + step
        if (G @ candidate).min() < -1e-12:
            continue  # left the feasible set through an inactive row
        assert objective(problem, candidate) >= base - 1e-5 * (1.0 + abs(base))
        checked += 1
    assert checked >= 100


def test_fitted_band_satisfies_constraints():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([77])))
    data = gen_dist1(500, rng)
    band, _ = fit_band(data, alpha=0.5, lam=1e-2)
    H_single = continuity_matrix(band.basis)
    assert np.max(np.abs(H_single @ band.upper)) <= 1e-6
    assert np.max(np.abs(H_single @ band.lower)) <= 1e-6
    assert band.noncross_violation <= 1e-6
    grid = np.linspace(band.basis.knots[0], band.basis.knots[-1], 1001)
    assert (band.upper_at(grid) - band.lower_at(grid)).min() >= -1e-6
    scale = np.sqrt(2.0 * len(data) + band.basis.size)
    assert band.primal_residual < 1e-4 * scale
    assert band.dual_residual < 1e-4 * scale


@pytest.fixture
def no_bandwidth(monkeypatch):
    def bandwidth(*args, **kwargs):
        raise AssertionError("bandwidth selected")

    monkeypatch.setattr(pipeline, "select_bandwidth", bandwidth)


@pytest.mark.parametrize("n", [500, 2000])  # below and above the 1000-point subsample
def test_negative_integer_seed_is_refused_before_the_bandwidth(no_bandwidth, n):
    data = gen_dist1(n, 1)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            fit_band(data, rng=seed)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            run_step1(data, rng=seed)


def test_fit_band_refuses_an_unfittable_basis_before_the_bandwidth(no_bandwidth):
    with pytest.raises(ValueError, match=r"^point \S+ outside the knot range \[0\.0, 5\.0\]$"):
        fit_band(gen_dist1(100, 1), basis=SplineBasis.uniform(0.0, 5.0))


def test_one_segment_fits_one_cubic_band():
    data = gen_dist1(500, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        band, _ = fit_band(data, basis=SplineBasis.uniform(0.0, 10.0, 1))
    assert band.upper.shape == band.lower.shape == (4,)
    assert np.all(np.isfinite(band.upper)) and np.all(np.isfinite(band.lower))
    grid = np.linspace(0.0, 10.0, 1001)
    assert band.noncross_violation == 0.0
    assert np.all(band.upper_at(grid) >= band.lower_at(grid))


# ---------------------------------------------------------------------------
# fit_band and select_lambda_cv on edge inputs, end to end
# ---------------------------------------------------------------------------

def skewed_covariate(n, seed=3):
    """A skewed covariate: x ~ lognormal(0, 2), y = sin(log x) + noise."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 2.0, n)
    return Dataset(x, np.sin(np.log(x)) + rng.normal(0.0, 0.3, n))


def hourly(replicates):
    x = np.repeat(np.arange(0.0, 241.0), replicates)
    noise = np.random.default_rng(7).normal(0.0, 0.4, x.size)
    return Dataset(x, np.exp(1.0 + 0.3 * np.sin(2.0 * np.pi * x / 24.0) + noise))


def rounded(data):
    return Dataset(data.x, np.round(data.y))


def cauchy_covariate(n):
    rng = np.random.default_rng(5)
    x = rng.standard_cauchy(n)
    return Dataset(x, np.arctan(x) + rng.normal(0.0, 0.3, n))


def shifted_covariate(data):
    return Dataset(data.x + 1e6, data.y)


def cv_then_fit(data):
    result = select_lambda_cv(data, (1e-3, 1e-1), folds=5)
    assert np.all(np.isfinite(result.fold_scores))
    return fit_band(data, lam=result.selected)


EDGE_INPUTS = {
    "hourly-x10": lambda: fit_band(hourly(10)),
    "rounded-y": lambda: fit_band(rounded(gen_dist1(500, 1))),
    "n10": lambda: fit_band(gen_dist1(10, 1)),
    "lognormal-x": lambda: fit_band(skewed_covariate(500)),
    "cauchy-x": lambda: fit_band(cauchy_covariate(500)),
    "x-plus-1e6": lambda: fit_band(shifted_covariate(gen_dist1(500, 1))),
    "lognormal-x-above-cap": lambda: fit_band(skewed_covariate(2000)),
    "lognormal-x-n5000": lambda: fit_band(skewed_covariate(5000)),
    "cv-20-per-fold": lambda: cv_then_fit(gen_dist1(100, 1)),
}


# above 1000 observations the source adds back every observation that its
# subsample leaves without kernel support, so these fit
MUST_FIT = {"lognormal-x-above-cap", "lognormal-x-n5000"}


@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_edge_inputs_fit_or_raise_one_value_error(name):
    # the one warning allowed is ADMM's small crossing when its iteration
    # budget runs out unconverged (5e-6 to 4e-5 on the inputs seen so far)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            band, _ = EDGE_INPUTS[name]()
        except ValueError:
            if name in MUST_FIT:
                raise
            band = None
    for w in caught:
        assert "non-crossing violated" in str(w.message), str(w.message)
    if band is not None:
        assert np.all(np.isfinite(band.upper)) and np.all(np.isfinite(band.lower))
        assert band.noncross_violation <= 1e-3


def test_a_covariate_that_leaves_most_segments_empty_is_refused_and_says_so():
    # 18 of the 20 uniform segments over the Cauchy draw's 38 000-wide span
    # hold no observation: their B-splines are pinned only by the penalty,
    # ~1e-12 at these widths, so the normal matrix is numerically singular
    message = (r"^rank-deficient constraints: singular normal matrix; "
               r"18 of 20 knot segments hold no observation$")
    with pytest.raises(ValueError, match=message):
        fit_band(cauchy_covariate(500))
    # the lognormal draw leaves 13 of 20 empty and still fits
    data = skewed_covariate(500)
    basis = SplineBasis.uniform(data.x.min(), data.x.max())
    assert np.unique(basis.segment_index(data.x)).size == 20 - 13
    band, _ = fit_band(data, basis=basis)
    assert np.all(np.isfinite(band.upper)) and np.all(np.isfinite(band.lower))


def test_a_penalty_term_that_overflows_is_refused_without_a_numpy_warning():
    # 2 lam P'QP is inf, and inf * 0 leaves NaN in the normal matrix
    problem = band_problem(hourly(2), lam=1e308)
    message = (r"^rank-deficient constraints: singular normal matrix; the penalty term "
               r"outweighs the data term inf to 1 ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            admm_fit(problem, iters=5)


def test_an_observation_left_out_by_the_subsample_is_added_back():
    # x = 769.70 of this draw is neither in the seeded 1000-point subsample
    # nor within the kernel's nonzero reach of any point of it
    data = skewed_covariate(2000)
    x_far = 769.6986181969256
    drawn = np.random.default_rng(0).choice(2000, size=1000, replace=False)
    assert x_far in data.x and x_far not in data.x[drawn]
    band, step1 = fit_band(data)
    assert np.all(np.isfinite(band.upper)) and np.all(np.isfinite(band.lower))
    source = _capped_source(data, step1.bandwidth, 0)
    assert x_far in source.x
    with pytest.raises(ValueError, match=r"^no kernel support at x0=769\.6986181969256: "):
        conditional_cdf(x_far, Dataset(data.x[drawn], data.y[drawn]), step1.bandwidth)
    # a query that is no observation keeps the reference's text
    with pytest.raises(ValueError, match=r"^no kernel support at x0=-100\.0: all "
                                         r"weights underflow at bandwidth 0\.5$"):
        estimate_intervals_at(data, [-100.0], 0.5, 0.5)


def test_midpoint_tracks_conditional_median():
    rng = np.random.default_rng(42)
    n = 600
    x = np.linspace(0.0, 10.0, n)
    y = 2.0 * np.sin(x) + rng.normal(0.0, 0.4, n)
    data = Dataset(x, y)
    levels = QuantileLevelSet(np.full(n, 0.25), np.full(n, 0.75))
    basis = SplineBasis.uniform(0.0, 10.0, segments=20)
    problem = assemble(data, levels, np.ones(n), basis, lam=1e-3)
    band = admm_fit(problem, iters=4000)
    grid = np.linspace(0.0, 10.0, 201)
    gap = band.midpoint_at(grid) - 2.0 * np.sin(grid)
    assert np.sqrt(np.mean(gap**2)) < 0.2


def test_band_shifts_with_responses():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([88])))
    data = gen_dist1(200, rng)
    shifted = Dataset(data.x, data.y + 100.0)
    basis = SplineBasis.uniform(data.x.min(), data.x.max(), segments=10)
    kwargs = dict(alpha=0.5, lam=1e-2, basis=basis, iters=20_000)
    band, _ = fit_band(data, **kwargs)
    band_shifted, _ = fit_band(shifted, **kwargs)
    grid = np.linspace(data.x.min(), data.x.max(), 1000)
    up_gap = band_shifted.upper_at(grid) - band.upper_at(grid) - 100.0
    low_gap = band_shifted.lower_at(grid) - band.lower_at(grid) - 100.0
    assert np.max(np.abs(up_gap)) <= 1e-6
    assert np.max(np.abs(low_gap)) <= 1e-6


def test_admm_rejects_underdetermined_problem():
    # one observation cannot pin down the linear null direction through it
    data = Dataset([0.4], [1.0])
    levels = QuantileLevelSet([0.25], [0.75])
    basis = SplineBasis.uniform(0.0, 1.0, segments=2)
    problem = assemble(data, levels, np.ones(1), basis, 1e-2)
    with pytest.raises(ValueError, match="rank-deficient constraints"):
        admm_fit(problem)


def test_admm_rejects_bad_budget():
    problem, _, _, _ = small_problem()
    with pytest.raises(ValueError, match="iteration budget"):
        admm_fit(problem, iters=0)


def test_admm_refuses_non_finite_iterates():
    problem, _, _, _ = small_problem()
    y = problem.y.copy()
    y[0] = np.nan
    with pytest.raises(RuntimeError, match="^non-finite iterates after 5 iterations$"):
        admm_fit(dataclasses.replace(problem, y=y), iters=5)


def kkt_admm_reference(problem, x, iters):
    """ADMM at step size 1 over all 2m coefficients of the dense design at
    x, continuity carried as KKT equality rows; returns the coefficients and
    the last iterate's primal and dual residual norms, the dual one
    projected onto the continuous splines, range(N)."""
    linalg = pytest.importorskip("scipy.linalg")
    block_diag, lu_factor, lu_solve = linalg.block_diag, linalg.lu_factor, linalg.lu_solve
    basis = problem.basis
    H_single = continuity_matrix(basis)
    A = block_diag(design_matrix(x, basis), design_matrix(x, basis))
    Q = block_diag(penalty_matrix(basis), penalty_matrix(basis))
    H = block_diag(H_single, H_single)
    G = np.hstack([noncross_matrix(basis), -noncross_matrix(basis)])
    m2, nH = A.shape[1], H.shape[0]
    K = np.block([
        [2.0 * problem.lam * Q + A.T @ A + G.T @ G, H.T],
        [H, np.zeros((nH, nH))],
    ])
    lu = lu_factor(K)
    z1, u1 = np.zeros(A.shape[0]), np.zeros(A.shape[0])
    z2, u2 = np.zeros(G.shape[0]), np.zeros(G.shape[0])
    for _ in range(iters):
        rhs = np.concatenate([A.T @ (z1 - u1) + G.T @ (z2 - u2), np.zeros(nH)])
        c = lu_solve(lu, rhs)[:m2]
        Ac, Gc = A @ c, G @ c
        z1_prev, z2_prev = z1, z2
        z1 = prox_quantile_loss(Ac + u1, problem.p, problem.y, problem.w, 1.0)
        z2 = np.maximum(Gc + u2, 0.0)
        u1 = u1 + Ac - z1
        u2 = u2 + Gc - z2
    primal = np.hypot(np.linalg.norm(Ac - z1), np.linalg.norm(Gc - z2))
    N = block_diag(conftest.dense_map(basis), conftest.dense_map(basis))
    g = N.T @ (A.T @ (z1 - z1_prev) + G.T @ (z2 - z2_prev))
    dual = np.linalg.norm(N @ np.linalg.solve(N.T @ N, g))
    return c, primal, dual


def test_null_space_admm_matches_kkt_form():
    rng = np.random.default_rng(44)
    n = 80
    x = np.sort(rng.uniform(0.0, 10.0, n))
    y = np.sin(x) + rng.normal(0.0, 0.3, n)
    data = Dataset(x, y)
    levels = QuantileLevelSet(np.full(n, 0.3), np.full(n, 0.7))
    basis = SplineBasis.uniform(0.0, 10.0, segments=6)
    problem = assemble(data, levels, rng.uniform(0.5, 2.0, n), basis, lam=1e-2)
    band = admm_fit(problem, iters=300)
    assert band.iterations == 300
    reference, primal, dual = kkt_admm_reference(problem, x, 300)
    assert np.max(np.abs(np.concatenate([band.upper, band.lower]) - reference)) <= 1e-9
    # the non-crossing rows are active here, so both residuals include them
    assert band.primal_residual == pytest.approx(primal, rel=1e-8)
    assert band.dual_residual == pytest.approx(dual, rel=1e-8)

    H = continuity_matrix(basis)
    for budget in (1, 2):
        early = admm_fit(problem, iters=budget)
        assert np.max(np.abs(H @ early.upper)) <= 1e-12
        assert np.max(np.abs(H @ early.lower)) <= 1e-12
    assert np.max(np.abs(early.upper)) > 0.1  # the check is not vacuous


def dense_admm_reference(problem, iters=1000):
    """Stage 2's ADMM loop on one dense (2, n + m) layout over E = [AN; GN],
    before the rows were grouped by knot segments, with the normal matrix
    summed by the solver's ``_gram``; returns both curves' coefficients,
    the last iterate's primal residual norm and its dual one, the
    B-spline-coordinate residual g = E'(z - z_prev) taken to coefficients
    and projected onto the continuous splines, P (P'P)^-1 g, on the dense
    map P."""
    basis = problem.basis
    r = basis.segments + 3
    noncross_first = np.arange(basis.size) // 4
    AN = conftest.dense_rows(problem.first, problem.values, r)
    GN = conftest.dense_rows(noncross_first, basis.noncross, r)
    n, m = len(AN), len(GN)
    M = (np.kron(np.eye(2), 2.0 * problem.lam * basis.penalty
                 + _gram(problem.first, problem.values, r))
         + np.kron([[1.0, -1.0], [-1.0, 1.0]], _gram(noncross_first, basis.noncross, r)))
    L_inv = np.linalg.inv(np.linalg.cholesky(M))
    M_inv = L_inv.T @ L_inv
    E = np.asfortranarray(np.vstack([AN, GN]))
    Et = E.T
    y = np.zeros((2, n + m))
    lo = np.zeros((2, n + m))
    hi = np.zeros((2, n + m))
    y[:, :n] = problem.y.reshape(2, n)
    lo[:, :n] = -((1.0 - problem.p) * problem.w).reshape(2, n)
    hi[:, :n] = (problem.p * problem.w).reshape(2, n)
    hi[0, n:] = np.inf
    W = np.zeros((2, n + m))
    C = np.zeros((2, n + m))
    v = np.empty((2, n + m))
    T = np.empty((2, r))
    B = np.empty((2, r))
    theta, rhs = T.reshape(-1), B.reshape(-1)
    g_up, g_low, q_up, q_low = v[0, n:], v[1, n:], W[0, n:], W[1, n:]
    for it in range(1, iters + 1):
        if it == iters:
            W_prev, C_prev = W.copy(), C.copy()
        np.dot(W, E, out=B)
        np.dot(M_inv, rhs, out=theta)
        np.dot(T, Et, out=v)
        g_up -= g_low
        np.subtract(C, v, out=v)
        np.add(y, v, out=C)
        np.maximum(C, lo, out=C)
        np.minimum(C, hi, out=C)
        np.subtract(C, v, out=W)
        W += C
        np.negative(q_up, out=q_low)
    # to local powers segment by segment, as the solver maps them, so that
    # only the loops are compared
    window = np.arange(basis.segments)[:, None] + np.arange(4)
    upper, lower = (basis.blocks @ T[:, window, None]).reshape(2, basis.size)
    dz = (W - C) - (W_prev - C_prev)
    dz[1, n:] = -dz[0, n:]
    P = conftest.dense_map(basis)
    dual = np.linalg.norm(P @ np.linalg.solve(P.T @ P, (dz @ E).T))
    return upper, lower, np.linalg.norm(C_prev - C), dual


def uniform_covariate(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, n)
    return Dataset(x, np.sin(x) + rng.normal(0.0, 0.3, n))


def band_problem(data, basis=None, lam=1e-2):
    """The program at levels 0.25 and 0.75, by default on 20 uniform segments over x."""
    n = len(data)
    basis = basis or SplineBasis.uniform(data.x.min(), data.x.max())
    levels = QuantileLevelSet(np.full(n, 0.25), np.full(n, 0.75))
    weights = np.random.default_rng(1).uniform(0.5, 2.0, n)
    return assemble(data, levels, weights, basis, lam)


GROUPED_INPUTS = {  # the program and an iteration budget
    "uniform-n3000": lambda: (band_problem(uniform_covariate(3000)), 1000),
    "hourly-x2": lambda: (band_problem(hourly(2), lam=0.1), 1000),
    "lognormal-x-n500": lambda: (band_problem(skewed_covariate(500)), 1000),
    # knots every half hour, so every other segment holds no observation; the
    # dense loop takes ~2 ms an iteration on this 483-column design
    "hourly-480-segments": lambda: (
        band_problem(hourly(2), SplineBasis.uniform(0.0, 240.0, 480), 0.1), 200),
    "one-segment": lambda: (
        band_problem(uniform_covariate(500), SplineBasis.uniform(0.0, 10.0, 1)), 1000),
}


@pytest.mark.parametrize("name", GROUPED_INPUTS)
def test_rows_grouped_by_segments_match_the_dense_loop(monkeypatch, name):
    problem, iters = GROUPED_INPUTS[name]()
    segments = problem.basis.segments

    def fit(span):
        monkeypatch.setattr(solver, "_choose_span", lambda counts: span)
        return admm_fit(problem, iters)

    # one group holds today's arrays, so it gives today's numbers to the bit
    upper, lower, primal, _ = dense_admm_reference(problem, iters)
    one = fit(segments)
    assert np.array_equal(one.upper, upper) and np.array_equal(one.lower, lower)
    assert one.primal_residual == primal
    # more groups sum each product in another order
    rtol = 1e-9 if name == "lognormal-x-n500" else 1e-12
    for span in sorted({min(span, segments) for span in (1, 2, 3, 7)}):
        band = fit(span)
        for got, want in ((band.upper, one.upper), (band.lower, one.lower)):
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), span
        assert band.primal_residual == pytest.approx(one.primal_residual, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name", ["uniform-n3000", "hourly-x2", "hourly-480-segments"])
def test_dual_residual_closed_form_matches_the_dense_projection(monkeypatch, name):
    # sqrt(g' (P'P)^-1 g) with P'P the Gram of the blocks' rows, against
    # ||P (P'P)^-1 g|| on the dense map, after the same loop to the bit
    problem, iters = GROUPED_INPUTS[name]()
    monkeypatch.setattr(solver, "_choose_span", lambda counts: problem.basis.segments)
    dual = dense_admm_reference(problem, iters)[3]
    assert admm_fit(problem, iters).dual_residual == pytest.approx(dual, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x, one_group", [
    (hourly(2).x, True),
    (np.random.default_rng(0).uniform(0.0, 10.0, 500), True),
    (skewed_covariate(500).x, True),
    (np.random.default_rng(0).uniform(0.0, 10.0, 10_000), False),
], ids=["hourly-x2", "uniform-n500", "lognormal-x-n500", "uniform-n10000"])
def test_span_chooser_takes_one_group_only_on_small_or_skewed_designs(x, one_group):
    basis = SplineBasis.uniform(x.min(), x.max())
    counts = np.bincount(basis.segment_index(x), minlength=basis.segments)
    assert (_choose_span(counts) == basis.segments) == one_group


def test_band_and_dual_residual_do_not_depend_on_the_bspline_coordinates():
    problem = band_problem(uniform_covariate(1000))
    basis = problem.basis
    d = np.random.default_rng(2).uniform(0.5, 2.0, basis.segments + 3)

    four = np.arange(4)

    class Rescaled(SplineBasis):  # coordinates theta / d
        blocks = basis.blocks * d[np.arange(basis.segments)[:, None, None] + four]

    band = admm_fit(problem)
    values = problem.values * d[problem.first[:, None] + four]
    other = admm_fit(dataclasses.replace(problem, values=values, basis=Rescaled(basis.knots)))
    for got, want in ((other.upper, band.upper), (other.lower, band.lower)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert other.dual_residual == pytest.approx(band.dual_residual, rel=1e-9, abs=0.0)


def objective_by_least_squares(problem, c):
    """The objective at theta solving P theta = c in least squares on the dense map."""
    C = np.asarray(c, dtype=float).reshape(2, -1)
    T = np.linalg.lstsq(conftest.dense_map(problem.basis), C.T, rcond=None)[0].T
    AN = conftest.dense_rows(problem.first, problem.values, problem.basis.segments + 3)
    r = problem.y - (T @ AN.T).ravel()
    penalty = np.sum(T @ problem.basis.penalty * T)
    return float(problem.w @ quantile_loss(r, problem.p) + problem.lam * penalty)


@pytest.mark.filterwarnings("ignore:non-crossing violated")  # 100 iterations leave a crossing
@pytest.mark.parametrize("data", [uniform_covariate(1000), hourly(2), skewed_covariate(500)],
                         ids=["uniform-n1000", "hourly-x2", "lognormal-x-n500"])
def test_objective_reads_theta_off_the_blocks(data):
    problem = band_problem(data)
    P = conftest.dense_map(problem.basis)
    band = admm_fit(problem, iters=100)
    rng = np.random.default_rng(5)
    for c in (np.concatenate([band.upper, band.lower]),
              (P @ rng.normal(size=(P.shape[1], 2))).T.ravel()):
        want = objective_by_least_squares(problem, c)
        assert objective(problem, c) == pytest.approx(want, rel=1e-12, abs=0.0)
    # a jump in the value at each interior knot leaves no theta
    jump = np.concatenate([band.upper, band.lower])
    jump[4::4] += 1e-3
    with pytest.raises(ValueError, match="not continuous"):
        objective(problem, jump)


def test_stage_2_memory_stays_below_a_copy_of_the_dense_design():
    # at the dense layout, the Fortran copy of [AN; GN] alone took 18.4 MB
    # and the fit's traced peak 37 MB
    n = 100_000
    data = uniform_covariate(n)
    levels = QuantileLevelSet(np.full(n, 0.25), np.full(n, 0.75))
    problem = assemble(data, levels, np.ones(n), SplineBasis.uniform(0.0, 10.0), 1e-2)
    tracemalloc.start()
    try:
        admm_fit(problem, iters=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6, peak / 1e6


@pytest.mark.parametrize("segments", [1, 2, 7, 20, 480])
def test_banded_gram_matches_the_dense_products(segments):
    data = uniform_covariate(1000)
    basis = SplineBasis.uniform(0.0, 10.0, segments)
    problem = band_problem(data, basis)
    P = conftest.dense_map(basis)
    A = design_matrix(data.x, basis) @ P
    G = noncross_matrix(basis) @ P
    for got, want in ((_gram(problem.first, problem.values, segments + 3), A.T @ A),
                      (_gram(np.arange(basis.size) // 4, basis.noncross, segments + 3), G.T @ G)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_assemble_stores_each_row_once():
    # with the dense n x 23 design in the program, the traced peak read 34.5 MB
    n = 100_000
    data = uniform_covariate(n)
    levels = QuantileLevelSet(np.full(n, 0.25), np.full(n, 0.75))
    weights = np.ones(n)
    basis = SplineBasis.uniform(0.0, 10.0)
    tracemalloc.start()
    try:
        assemble(data, levels, weights, basis, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, peak / 1e6


@pytest.mark.parametrize("data, lam", [
    (gen_dist1(1000, 0), 1e-2),
    (hourly(2), 0.1),
], ids=["dist1-n1000", "hourly-x2"])
def test_band_does_not_depend_on_the_order_of_the_observations(data, lam):
    # both n <= 1 000, so stage 1 draws no subsample
    band, step1 = fit_band(data, lam=lam)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(data))
        other, other_step1 = fit_band(Dataset(data.x[order], data.y[order]), lam=lam)
        assert other_step1.bandwidth == step1.bandwidth
        for got, want in ((other.upper, band.upper), (other.lower, band.lower)):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), seed
