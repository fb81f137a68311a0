"""Program assembly, proximal steps, and ADMM convergence."""

import numpy as np
import pytest
from scipy.linalg import block_diag, lu_factor, lu_solve, null_space

from modalband import pipeline
from modalband.intervals import QuantileLevelSet
from modalband.kde import Dataset
from modalband.pipeline import fit_band, run_step1, run_step2
from modalband.simulate import gen_dist1
from modalband.solver import (
    admm_fit,
    assemble,
    objective,
    prox_quantile_loss,
    quantile_loss,
)
from modalband.spline import (
    SplineBasis,
    continuity_matrix,
    design_matrix,
    eval_spline,
    noncross_matrix,
    penalty_matrix,
)


def small_problem(n=3, lam=1e-2):
    data = Dataset([0.2, 1.0, 1.7], [1.0, 2.0, 3.0])
    levels = QuantileLevelSet([0.2, 0.25, 0.3], [0.7, 0.75, 0.8])
    basis = SplineBasis([0.0, 1.0, 2.0], degree=3, smoothness=2)
    return assemble(data, levels, np.ones(n), basis, lam), data, levels, basis


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------

def test_assemble_block_shapes():
    problem, data, levels, basis = small_problem()
    assert problem.A.shape == (3, 8)
    assert problem.Q.shape == (8, 8)
    assert problem.G.shape == (8, 8)
    assert problem.N.shape == (8, 5)
    assert problem.n == 3
    assert np.array_equal(problem.p, [0.7, 0.75, 0.8, 0.2, 0.25, 0.3])
    assert np.array_equal(problem.y, np.tile(data.y, 2))
    assert np.array_equal(problem.w, np.ones(6))


def test_assemble_blocks_match_single_curve_matrices():
    data = Dataset(np.linspace(0.1, 2.9, 6), np.arange(6.0))
    levels = QuantileLevelSet(np.full(6, 0.25), np.full(6, 0.75))
    # (segments, degree, smoothness, null-space dimension); 20 C^2 cubics give 23
    for segments, degree, smoothness, dim in [(2, 3, 2, 5), (20, 3, 2, 23),
                                              (7, 2, 1, 9), (5, 4, 0, 21)]:
        basis = SplineBasis.uniform(0.0, 3.0, segments, degree, smoothness)
        problem = assemble(data, levels, np.ones(6), basis, 1e-2)
        assert np.array_equal(problem.A, design_matrix(data.x, basis))
        assert np.array_equal(problem.Q, penalty_matrix(basis))
        assert np.array_equal(problem.G, noncross_matrix(basis))
        N = problem.N
        assert dim == (degree + 1) * segments - (smoothness + 1) * (segments - 1)
        assert N.shape == (basis.size, dim)
        assert np.allclose(N.T @ N, np.eye(dim), atol=1e-13)
        assert np.max(np.abs(continuity_matrix(basis) @ N)) <= 1e-12


def test_assemble_design_evaluates_both_curves():
    problem, data, levels, basis = small_problem()
    rng = np.random.default_rng(3)
    upper = rng.normal(size=basis.size)
    lower = rng.normal(size=basis.size)
    assert np.allclose(problem.A @ upper, eval_spline(upper, basis, data.x), atol=1e-14)
    assert np.allclose(problem.A @ lower, eval_spline(lower, basis, data.x), atol=1e-14)
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

    H = block_diag(continuity_matrix(basis), continuity_matrix(basis))
    G = np.hstack([noncross_matrix(basis), -noncross_matrix(basis)])
    slack = G @ c_star
    active = G[slack <= 1e-8]
    directions = null_space(np.vstack([H, active]))
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


@pytest.mark.parametrize("n", [500, 2000])  # below and above cap
def test_negative_integer_seed_is_refused_before_the_bandwidth(no_bandwidth, n):
    data = gen_dist1(n, 1)
    for seed in (-1, np.int64(-1)):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            fit_band(data, rng=seed)
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            run_step1(data, rng=seed)


@pytest.mark.parametrize("basis, message", [
    (SplineBasis([0.0, 10.0]), "continuity constraints need at least 2 segments"),
    (SplineBasis.uniform(0.0, 10.0, degree=1, smoothness=1),
     "curvature penalty needs degree at least 2"),
], ids=["one-segment", "linear"])
def test_fit_band_refuses_an_unfittable_basis_before_the_bandwidth(
    no_bandwidth, basis, message
):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit_band(gen_dist1(100, 1), basis=basis)


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


def kkt_admm_reference(problem, iters):
    """ADMM at step size 1 over all 2m coefficients, continuity carried as
    KKT equality rows; returns the coefficients and the last iterate's
    primal and dual residual norms, the dual one in null-space coordinates."""
    H_single = continuity_matrix(problem.basis)
    A = block_diag(problem.A, problem.A)
    Q = block_diag(problem.Q, problem.Q)
    H = block_diag(H_single, H_single)
    G = np.hstack([problem.G, -problem.G])
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
    N = block_diag(problem.N, problem.N)
    dual = np.linalg.norm(N.T @ (A.T @ (z1 - z1_prev) + G.T @ (z2 - z2_prev)))
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
    reference, primal, dual = kkt_admm_reference(problem, 300)
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
