"""Spline design rows, the B-spline map, continuity and penalty matrices,
non-crossing rows."""

import numpy as np
import pytest

import conftest
from modalband.spline import (
    SplineBasis,
    continuity_matrix,
    design_matrix,
    eval_spline,
    noncross_matrix,
    penalty_matrix,
)


def random_basis(rng, max_segments=6):
    segments = int(rng.integers(2, max_segments + 1))
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 2.0, segments))])
    return SplineBasis(knots)


def wide_basis(rng):
    """1 to 24 segments whose widths span six decades, at an offset."""
    widths = 10.0 ** rng.uniform(-3.0, 3.0, int(rng.integers(1, 25)))
    return SplineBasis(rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(widths)]))


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
    with pytest.raises(ValueError, match="finite"):
        SplineBasis([0.0, np.inf])
    # every basis is a C^2 cubic: the order is a read-only constant, no argument
    basis = SplineBasis([0.0, 1.0])
    assert (basis.degree, basis.smoothness) == (3, 2)
    with pytest.raises(AttributeError):
        basis.degree = 2
    with pytest.raises(TypeError):
        SplineBasis([0.0, 1.0], 2)


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
    # the B-spline map is cached per object, so two bases on equal knots are
    # two keys, and comparing them does not reach the knot arrays
    a, b = SplineBasis.uniform(0.0, 1.0), SplineBasis.uniform(0.0, 1.0)
    assert a == a and a != b
    assert {a: 1, b: 2}[a] == 1


def test_segment_index_right_closed():
    basis = SplineBasis([0.0, 1.0, 2.0])
    assert np.array_equal(basis.segment_index([0.0, 0.5, 1.0, 1.5, 2.0]),
                          [0, 0, 0, 1, 1])
    with pytest.raises(ValueError, match="outside the knot range"):
        basis.segment_index([2.1])


# ---------------------------------------------------------------------------
# design rows
# ---------------------------------------------------------------------------

def test_design_row_at_segment_edges():
    basis = SplineBasis([0.0, 1.0, 2.0])
    assert np.array_equal(design_matrix([1.0], basis)[0],
                          [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(design_matrix([0.0], basis)[0],
                          [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_design_row_at_unit_segment_midpoint():
    basis = SplineBasis([0.0, 1.0, 2.0])
    assert np.array_equal(design_matrix([0.5], basis)[0, :4], [1.0, 0.5, 0.25, 0.125])


def test_design_matrix_stacks_rows():
    rng = np.random.default_rng(1)
    basis = random_basis(rng)
    x = rng.uniform(basis.knots[0], basis.knots[-1], 20)
    mat = design_matrix(x, basis)
    for k in range(20):
        assert np.array_equal(mat[k], design_matrix(x[k:k + 1], basis)[0])


def test_design_row_rejects_out_of_range():
    basis = SplineBasis([0.0, 1.0])
    with pytest.raises(ValueError, match="outside the knot range"):
        design_matrix([1.5], basis)
    with pytest.raises(ValueError, match="outside the knot range"):
        basis.segment_index([-0.5])


# ---------------------------------------------------------------------------
# B-spline rows and the map to local powers
# ---------------------------------------------------------------------------

def test_bspline_rows_match_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(28)
    for _ in range(50):
        basis = wide_basis(rng)
        knots = basis.knots
        x = np.concatenate([rng.uniform(knots[0], knots[-1], 100), knots])
        rows = conftest.bspline_rows(x, basis)
        clamped = np.concatenate([[knots[0]] * 3, knots, [knots[-1]] * 3])
        expected = interpolate.BSpline(clamped, np.eye(basis.segments + 3), 3)(x)
        assert np.max(np.abs(rows - expected)) <= 1e-14
        # at most four nonzero B-splines, the partition of unity
        assert np.all(np.count_nonzero(rows, axis=1) <= 4)
        assert rows.min() >= 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-14


def test_null_space_maps_bsplines_to_local_powers():
    rng = np.random.default_rng(29)
    for _ in range(50):
        basis = wide_basis(rng)
        P = basis.null_space
        assert P.shape == (basis.size, basis.segments + 3)
        # continuous to second order, relative to each constraint row's scale
        H = continuity_matrix(basis)
        if H.size:
            scale = np.abs(H).max(axis=1)
            assert np.max(np.abs(H @ P).max(axis=1) / scale) <= 1e-12
        # P's powers evaluate to the B-splines themselves
        x = rng.uniform(basis.knots[0], basis.knots[-1], 100)
        assert np.max(np.abs(design_matrix(x, basis) @ P - conftest.bspline_rows(x, basis))) <= 1e-12


def test_null_space_spans_the_continuity_null_space():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(30)
    for _ in range(20):
        basis = random_basis(rng, max_segments=20)
        P = basis.null_space
        N = linalg.null_space(continuity_matrix(basis))
        assert N.shape[1] == P.shape[1] == basis.segments + 3
        assert np.max(np.abs(N @ (N.T @ P) - P)) <= 1e-12 * np.abs(P).max()
    # one segment has no constraint: P maps onto every cubic
    P = SplineBasis([0.0, 2.0]).null_space
    assert np.linalg.matrix_rank(P) == 4


# ---------------------------------------------------------------------------
# continuity_matrix
# ---------------------------------------------------------------------------

def test_continuity_value_row_unit_widths():
    basis = SplineBasis([0.0, 1.0, 2.0])
    H = continuity_matrix(basis)
    assert H.shape == (3, 8)
    assert np.array_equal(H[0], [1.0, 1.0, 1.0, 1.0, -1.0, 0.0, 0.0, 0.0])


def test_continuity_row_count():
    # one segment has no interior knot, so no constraint row
    assert continuity_matrix(SplineBasis([0.0, 0.7])).shape == (0, 4)
    assert continuity_matrix(SplineBasis([0.0, 0.7, 1.1])).shape == (3, 8)


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


def test_null_space_is_built_once_and_read_only(grid_builds):
    basis = SplineBasis.uniform(0.0, 3.0, segments=5)
    P = basis.null_space
    assert basis.null_space is P
    assert grid_builds["null_space"] == [basis]
    assert P.shape == (20, 5 + 3)
    # the penalty and non-crossing rows in B-spline coordinates; each reuses
    # the one map, and GP keeps the four nonzeros of each row, which sit at
    # B-splines j ... j + 3 on segment j
    QN, GN = basis.penalty, basis.noncross
    assert basis.penalty is QN and basis.noncross is GN
    assert grid_builds == {"null_space": [basis], "penalty": [basis], "noncross": [basis]}
    assert np.array_equal(QN, P.T @ penalty_matrix(basis) @ P)
    assert np.array_equal(conftest.dense_rows(np.arange(20) // 4, GN, 5 + 3),
                          noncross_matrix(basis) @ P)
    assert QN.shape == (5 + 3, 5 + 3) and GN.shape == (20, 4)
    for matrix in (P, QN, GN):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


def test_continuity_rows_scale_with_knot_spacing():
    rng = np.random.default_rng(22)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 4))])
    rho = 2
    H1 = continuity_matrix(SplineBasis(knots))
    H2 = continuity_matrix(SplineBasis(2.0 * knots))
    for r in range(H1.shape[0]):
        g = r % (rho + 1)
        assert np.allclose(H2[r], H1[r] * 2.0 ** (-g), rtol=1e-12)


# ---------------------------------------------------------------------------
# penalty_matrix
# ---------------------------------------------------------------------------

def test_penalty_block_unit_width_cubic():
    basis = SplineBasis([0.0, 1.0])
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


# ---------------------------------------------------------------------------
# noncross_matrix
# ---------------------------------------------------------------------------

def test_noncross_block_rows_cubic():
    basis = SplineBasis([0.0, 1.0])
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
        basis = random_basis(rng, max_segments=4)
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
        basis = random_basis(rng)
        coeffs = rng.normal(size=basis.size)
        x = float(rng.uniform(basis.knots[0], basis.knots[-1]))
        direct = eval_spline(coeffs, basis, x)
        via_row = float(design_matrix([x], basis)[0] @ coeffs)
        assert abs(direct - via_row) < 1e-14 * max(1.0, abs(via_row))


def test_eval_scalar_and_array_forms():
    basis = SplineBasis([0.0, 2.0])
    coeffs = np.array([1.0, 2.0, 3.0, 4.0])
    scalar = eval_spline(coeffs, basis, 1.0)
    assert isinstance(scalar, float)
    assert np.allclose(eval_spline(coeffs, basis, [1.0, 1.0]), scalar)


def test_eval_rejects_bad_inputs():
    basis = SplineBasis([0.0, 1.0])
    with pytest.raises(ValueError, match="expected 4 coefficients"):
        eval_spline(np.ones(3), basis, 0.5)
    with pytest.raises(ValueError, match="outside the knot range"):
        eval_spline(np.ones(4), basis, -0.2)
