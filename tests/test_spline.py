"""Spline design rows, continuity and penalty matrices, non-crossing rows."""

import numpy as np
import pytest

from modalband.spline import (
    SplineBasis,
    continuity_matrix,
    design_matrix,
    eval_spline,
    noncross_matrix,
    penalty_matrix,
)


def random_basis(rng, degree=3, smoothness=2, max_segments=6):
    segments = int(rng.integers(2, max_segments + 1))
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 2.0, segments))])
    return SplineBasis(knots, degree, smoothness)


def cubic_stencil_derivatives(coeffs, basis, knot, eps, side):
    """Value, slope, curvature at a knot from 4 one-sided sample points.

    A cubic is reproduced exactly by its interpolant through any 4 points,
    so this reads the one-sided limits without touching the coefficients.
    """
    pts = knot + side * eps * np.arange(1, 5)
    vals = eval_spline(coeffs, basis, pts)
    poly = np.polynomial.polynomial.polyfit(pts - knot, vals, 3)
    return poly[0], poly[1], 2.0 * poly[2]


# ---------------------------------------------------------------------------
# SplineBasis
# ---------------------------------------------------------------------------

def test_basis_validation():
    with pytest.raises(ValueError, match="at least two knots"):
        SplineBasis([1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        SplineBasis([0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="degree"):
        SplineBasis([0.0, 1.0], degree=0)
    with pytest.raises(ValueError, match="smoothness"):
        SplineBasis([0.0, 1.0], degree=2, smoothness=3)
    with pytest.raises(ValueError, match="finite"):
        SplineBasis([0.0, np.inf])


def test_uniform_basis_construction():
    basis = SplineBasis.uniform(0.0, 10.0, segments=20)
    assert basis.segments == 20
    assert basis.size == 80
    assert np.allclose(basis.widths, 0.5)
    with pytest.raises(ValueError, match="segments"):
        SplineBasis.uniform(0.0, 1.0, segments=0)
    with pytest.raises(ValueError, match="lo < hi"):
        SplineBasis.uniform(2.0, 1.0)


def test_basis_compares_and_hashes_by_identity():
    # the null space is cached per object, so two bases on equal knots are
    # two keys, and comparing them does not reach the knot arrays
    a, b = SplineBasis.uniform(0.0, 1.0), SplineBasis.uniform(0.0, 1.0)
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1


def test_segment_index_right_closed():
    basis = SplineBasis([0.0, 1.0, 2.0], degree=3)
    assert np.array_equal(basis.segment_index([0.0, 0.5, 1.0, 1.5, 2.0]),
                          [0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="outside the knot range"):
        basis.segment_index([2.1])


# ---------------------------------------------------------------------------
# design rows
# ---------------------------------------------------------------------------

def test_design_row_at_segment_edges():
    basis = SplineBasis([0.0, 1.0, 2.0], degree=3)
    assert np.array_equal(design_matrix([1.0], basis)[0],
                          [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(design_matrix([0.0], basis)[0],
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_design_row_at_unit_segment_midpoint():
    basis = SplineBasis([0.0, 1.0, 2.0], degree=3)
    assert np.array_equal(design_matrix([0.5], basis)[0, :4], [1.0, 0.5, 0.25, 0.125])


def test_design_matrix_stacks_rows():
    rng = np.random.default_rng(1)
    basis = random_basis(rng)
    x = rng.uniform(basis.knots[0], basis.knots[-1], 20)
    mat = design_matrix(x, basis)
    for k in range(20):
        assert np.array_equal(mat[k], design_matrix(x[k:k + 1], basis)[0])


def test_design_row_rejects_out_of_range():
    basis = SplineBasis([0.0, 1.0], degree=2)
    with pytest.raises(ValueError, match="outside the knot range"):
        design_matrix([1.5], basis)


# ---------------------------------------------------------------------------
# continuity_matrix
# ---------------------------------------------------------------------------

def test_continuity_value_row_unit_widths():
    basis = SplineBasis([0.0, 1.0, 2.0], degree=3, smoothness=0)
    H = continuity_matrix(basis)
    assert H.shape == (1, 8)
    assert np.array_equal(H[0], [1.0, 1.0, 1.0, 1.0, -1.0, 0.0, 0.0, 0.0])


def test_continuity_row_count():
    basis = SplineBasis([0.0, 0.7], degree=3, smoothness=2)
    basis2 = SplineBasis([0.0, 0.7, 1.1], degree=3, smoothness=2)
    with pytest.raises(ValueError, match="at least 2 segments"):
        continuity_matrix(basis)
    assert continuity_matrix(basis2).shape == (3, 8)


def test_continuity_null_space_gives_smooth_splines():
    rng = np.random.default_rng(21)
    for _ in range(10):
        basis = random_basis(rng)
        ns = basis.null_space
        coeffs = ns @ rng.normal(size=ns.shape[1])
        eps = 1e-2 * basis.widths.min()
        for knot in basis.knots[1:-1]:
            left = cubic_stencil_derivatives(coeffs, basis, knot, eps, -1.0)
            right = cubic_stencil_derivatives(coeffs, basis, knot, eps, +1.0)
            for a, b in zip(left, right):
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_null_space_is_built_once_and_read_only(continuity_calls):
    basis = SplineBasis.uniform(0.0, 3.0, segments=5)
    N = basis.null_space
    assert basis.null_space is N
    assert continuity_calls == [basis]
    assert N.shape == (20, 20 - 3 * 4)
    assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-13)
    assert not N.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        N[0, 0] = 1.0


def test_continuity_rows_scale_with_knot_spacing():
    rng = np.random.default_rng(22)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 4))])
    rho = 2
    H1 = continuity_matrix(SplineBasis(knots, 3, rho))
    H2 = continuity_matrix(SplineBasis(2.0 * knots, 3, rho))
    for r in range(H1.shape[0]):
        g = r % (rho + 1)
        assert np.allclose(H2[r], H1[r] * 2.0 ** (-g), rtol=1e-12)


# ---------------------------------------------------------------------------
# penalty_matrix
# ---------------------------------------------------------------------------

def test_penalty_block_unit_width_cubic():
    basis = SplineBasis([0.0, 1.0], degree=3)
    Q = penalty_matrix(basis)
    assert np.array_equal(Q[2:4, 2:4], [[4.0, 6.0], [6.0, 12.0]])
    assert np.count_nonzero(Q) == 4


def test_penalty_vanishes_on_linear_splines():
    basis = SplineBasis.uniform(0.0, 5.0, segments=4)
    coeffs = np.zeros(basis.size)
    coeffs[0::4] = 1.0  # constants
    coeffs[1::4] = 2.0  # slopes
    Q = penalty_matrix(basis)
    assert coeffs @ Q @ coeffs == 0.0


def test_penalty_matches_numeric_quadrature():
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(23)
    for _ in range(100):
        basis = random_basis(rng, max_segments=4)
        coeffs = rng.normal(size=basis.size)
        quadratic_form = coeffs @ penalty_matrix(basis) @ coeffs

        def curvature_sq(x, basis=basis, coeffs=coeffs):
            j = int(basis.segment_index(np.asarray([x]))[0])
            width = basis.widths[j]
            t = (x - basis.knots[j]) / width
            local = coeffs[j * 4:(j + 1) * 4]
            second = 2.0 * local[2] + 6.0 * local[3] * t
            return (second / width**2) ** 2

        total = 0.0
        for j in range(basis.segments):
            part, _ = integrate.quad(curvature_sq, basis.knots[j], basis.knots[j + 1])
            total += part
        assert abs(quadratic_form - total) < 1e-8 * max(1.0, abs(total))


def test_penalty_positive_semidefinite():
    rng = np.random.default_rng(24)
    for _ in range(20):
        basis = random_basis(rng)
        eigenvalues = np.linalg.eigvalsh(penalty_matrix(basis))
        assert eigenvalues.min() >= -1e-10


def test_penalty_requires_curvature():
    with pytest.raises(ValueError, match="degree at least 2"):
        penalty_matrix(SplineBasis([0.0, 1.0], degree=1, smoothness=1))


# ---------------------------------------------------------------------------
# noncross_matrix
# ---------------------------------------------------------------------------

def test_noncross_block_rows_cubic():
    basis = SplineBasis([0.0, 1.0], degree=3)
    G = noncross_matrix(basis)
    assert np.array_equal(G, [[1.0, 0.0, 0.0, 0.0],
                              [3.0, 1.0, 0.0, 0.0],
                              [3.0, 2.0, 1.0, 0.0],
                              [1.0, 1.0, 1.0, 1.0]])


def test_noncross_nonnegative_coefficients_pass():
    rng = np.random.default_rng(25)
    basis = random_basis(rng)
    delta = rng.uniform(0.0, 1.0, basis.size)
    G = noncross_matrix(basis)
    assert np.all(G @ delta >= 0.0)
    grid = np.linspace(basis.knots[0], basis.knots[-1], 500)
    assert eval_spline(delta, basis, grid).min() >= 0.0


def test_noncross_condition_is_sufficient():
    rng = np.random.default_rng(26)
    draws_per_basis = 100
    for _ in range(100):
        degree = int(rng.integers(2, 6))
        basis = random_basis(rng, degree=degree, smoothness=0, max_segments=4)
        G = noncross_matrix(basis)
        # G is blockwise lower-triangular with unit diagonal, so any
        # nonnegative image pulls back to a coefficient difference that
        # satisfies the condition with equality margin zero
        images = rng.exponential(size=(basis.size, draws_per_basis))
        deltas = np.linalg.solve(G, images)
        assert (G @ deltas).min() >= -1e-12
        grid = np.linspace(basis.knots[0], basis.knots[-1], 1000)
        values = design_matrix(grid, basis) @ deltas
        assert values.min() >= -1e-10


# ---------------------------------------------------------------------------
# eval_spline
# ---------------------------------------------------------------------------

def test_eval_constant_spline():
    basis = SplineBasis.uniform(0.0, 4.0, segments=4)
    coeffs = np.zeros(basis.size)
    coeffs[0::4] = 7.0
    grid = np.linspace(0.0, 4.0, 101)
    assert np.allclose(eval_spline(coeffs, basis, grid), 7.0, atol=1e-14)


def test_eval_matches_design_row():
    rng = np.random.default_rng(27)
    for _ in range(200):
        basis = random_basis(rng, degree=int(rng.integers(1, 6)), smoothness=0)
        coeffs = rng.normal(size=basis.size)
        x = float(rng.uniform(basis.knots[0], basis.knots[-1]))
        direct = eval_spline(coeffs, basis, x)
        via_row = float(design_matrix([x], basis)[0] @ coeffs)
        assert abs(direct - via_row) < 1e-14 * max(1.0, abs(via_row))


def test_eval_scalar_and_array_forms():
    basis = SplineBasis([0.0, 2.0], degree=2)
    coeffs = np.array([1.0, 2.0, 3.0])
    scalar = eval_spline(coeffs, basis, 1.0)
    assert isinstance(scalar, float)
    assert np.allclose(eval_spline(coeffs, basis, [1.0, 1.0]), scalar)


def test_eval_rejects_bad_inputs():
    basis = SplineBasis([0.0, 1.0], degree=3)
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        eval_spline(np.ones(3), basis, 0.5)
    with pytest.raises(ValueError, match="outside the knot range"):
        eval_spline(np.ones(4), basis, -0.2)
