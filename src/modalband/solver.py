"""Joint band fit as a convex program solved by ADMM.

The two bound curves share one coefficient vector c = (c_up, c_low).  The
objective is the weighted quantile loss of both curves at their
per-observation levels plus a curvature penalty,

    sum_i w_i J_{p_i}(y_i - (A c)_i) + lambda * c' Q c,

subject to C^2 continuity at the knots and the segmentwise non-crossing
condition (G c >= 0).  Continuity holds by construction: each curve is
P theta, with theta its cubic B-spline coefficients and P the basis's
``null_space``, so the program has 2r unknowns instead of 2m (46 instead
of 160 for 20 segments), and row i of A P holds the B-splines at x_i.
The basis builds P, P'Q P and G P once per knot grid; :func:`assemble`
builds only the data rows, so every fit on a grid shares the rest.
Splitting with z1 = A P theta and z2 = G P theta gives ADMM updates, at
step size 1, in which z1 is a componentwise quantile-loss proximal step
and z2 a projection onto the nonnegative orthant.  The theta-update is an
unconstrained least-squares problem whose 2r x 2r normal matrix is
Cholesky-factored and inverted once per fit.  Both z-steps are one clip
of a single array, so an iteration costs three small matrix products and
a handful of vector operations.  A design row is zero outside its knot
segment's four B-splines, so the rows are grouped by runs of ``span``
segments, touching span + 3 B-splines each, and each design product is
one stacked product over the groups.  ``span`` minimizes an estimated time
per iteration; small or skewed designs get one group, the whole design as
one block.  Only numpy is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .intervals import QuantileLevelSet
from .kde import Dataset
from .spline import SplineBasis, _bspline_rows, eval_spline

__all__ = [
    "MirProblem",
    "FittedBand",
    "assemble",
    "quantile_loss",
    "prox_quantile_loss",
    "objective",
    "admm_fit",
]


@dataclass(frozen=True)
class MirProblem:
    """Assembled program for one band fit, in B-spline coordinates theta.

    Holds what the data and the penalty decide.  With P = ``basis.null_space``
    (m x r), both curves share the design ``AN`` = A P (n x r), the B-splines
    at x; the penalty P'Q P and the non-crossing rows G P on
    theta_up - theta_low depend on the knot grid alone and are read from
    ``basis.penalty`` and ``basis.noncross``.  ``p``, ``y`` and ``w`` stack
    the upper-curve rows first, then the lower.  ``first`` holds each row's
    first nonzero B-spline, which is its knot segment: row i of ``AN`` is
    zero outside columns first[i] ... first[i] + 3.  ``empty_segments``
    counts the knot segments that hold no observation.
    """

    AN: np.ndarray
    first: np.ndarray
    p: np.ndarray
    y: np.ndarray
    w: np.ndarray
    lam: float
    basis: SplineBasis
    n: int
    empty_segments: int


@dataclass(frozen=True)
class FittedBand:
    """Fitted bound curves with solver diagnostics."""

    upper: np.ndarray
    lower: np.ndarray
    basis: SplineBasis
    iterations: int = 0
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    noncross_violation: float = np.nan

    def upper_at(self, x):
        return eval_spline(self.upper, self.basis, x)

    def lower_at(self, x):
        return eval_spline(self.lower, self.basis, x)

    def midpoint_at(self, x):
        return 0.5 * (self.upper_at(x) + self.lower_at(x))


def _check_penalty(lam: float) -> None:
    """Refuse a penalty strength that is not a positive finite number."""
    if not 0.0 < lam < np.inf:  # False for NaN
        raise ValueError(f"penalty strength must be positive and finite, got {lam}")


def _check_penalty_grid(grid) -> None:
    """Refuse an empty grid, a repeated value, or any value :func:`_check_penalty` refuses."""
    if len(grid) == 0:
        raise ValueError("penalty grid must be nonempty")
    seen = set()
    for lam in grid:
        _check_penalty(lam)
        if lam in seen:
            raise ValueError(f"penalty grid repeats {float(lam)}")
        seen.add(lam)


def _check_iters(iters: int) -> None:
    """Refuse an iteration budget below one."""
    if iters < 1:
        raise ValueError(f"iteration budget must be at least 1, got {iters}")


def assemble(
    data: Dataset,
    levels: QuantileLevelSet,
    weights,
    basis: SplineBasis,
    lam: float,
) -> MirProblem:
    """Build the program coupling the two bound curves.

    Stores the single-curve design rows in the basis's B-spline coordinates;
    the penalty and non-crossing blocks stay on the basis.  Level order
    matches the stacking: upper-curve levels first, then lower-curve levels.
    """
    weights = np.asarray(weights, dtype=float)
    n = len(data)
    if len(levels) != n:
        raise ValueError(f"level count {len(levels)} does not match n={n}")
    if weights.shape != (n,):
        raise ValueError(f"weight shape {weights.shape} does not match n={n}")
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    _check_penalty(lam)

    seg = basis.segment_index(data.x)  # raises when x leaves the knot range
    return MirProblem(
        AN=_bspline_rows(basis, seg, data.x - basis.knots[seg]),
        first=seg,
        p=np.concatenate([levels.p_up, levels.p_low]),
        y=np.concatenate([data.y, data.y]),
        w=np.concatenate([weights, weights]),
        lam=float(lam),
        basis=basis,
        n=n,
        empty_segments=int(np.count_nonzero(np.bincount(seg, minlength=basis.segments) == 0)),
    )


def quantile_loss(t, p):
    """Tilted absolute loss: p*t for t >= 0, (p-1)*t for t < 0."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, p * t, (p - 1.0) * t)


def prox_quantile_loss(z, p, y, w, gamma):
    """Proximal step of v -> w * J_p(y - v) with step size gamma.

    Minimizes w * J_p(y - v) + (1/(2*gamma)) * (v - z)^2.  All arguments
    broadcast elementwise.
    """
    z = np.asarray(z, dtype=float)
    t_up = gamma * np.asarray(p) * np.asarray(w)
    t_down = gamma * (1.0 - np.asarray(p)) * np.asarray(w)
    r = np.asarray(y) - z
    return np.where(r >= t_up, z + t_up, np.where(r <= -t_down, z - t_down, y))


def objective(problem: MirProblem, c) -> float:
    """Penalized quantile-loss objective at stacked coefficients (c_up, c_low), evaluated
    at theta solving P theta = c in least squares; refused when that leaves a
    residual above 1e-9 (1 + ||c||)."""
    C = np.asarray(c, dtype=float).reshape(2, -1)
    P = problem.basis.null_space
    T = np.linalg.lstsq(P, C.T, rcond=None)[0].T  # rows theta_up, theta_low
    if np.linalg.norm(C - T @ P.T) > 1e-9 * (1.0 + np.linalg.norm(C)):
        raise ValueError("coefficients are not continuous to the basis's smoothness order")
    r = problem.y - (T @ problem.AN.T).ravel()
    penalty = np.sum(T @ problem.basis.penalty * T)
    return float(problem.w @ quantile_loss(r, problem.p) + problem.lam * penalty)


_NONCROSS_GRID = 1001


def _rank_deficient(problem: MirProblem, reason: str, penalty, data) -> ValueError:
    """The refusal of a singular normal matrix, naming its cause: knot
    segments that hold no observation, or else a penalty term 2 lam P'QP
    that outweighs the data term A'A (it grows as x's unit shrinks, cubed)."""
    ratio = np.abs(penalty).max() / np.abs(data).max()
    if problem.empty_segments or not ratio > 1.0:
        cause = (f"{problem.empty_segments} of {problem.basis.segments} knot segments "
                 "hold no observation")
    else:
        cause = (f"the penalty term outweighs the data term {ratio:.3g} to 1 (largest "
                 "entries of 2 lam P'QP and A'A); rescaling x or lowering --penalty helps")
    return ValueError(f"rank-deficient constraints: {reason}; {cause}")


# Estimated time of one ADMM iteration, in microseconds, on rows grouped by
# runs of knot segments: a fixed cost once there is more than one group,
# then costs per stored row slot (the clip steps), per multiply-add of the
# two stacked products and per (groups span + 3) x groups (span + 3) block
# of the theta-update's GEMV.  Fitted by least squares to whole-fit medians
# at every span on 20- and 35-segment designs of n = 200 ... 3 000 (one BLAS
# thread, 2-core x86-64, numpy 2.4, OpenBLAS 0.3.31; CHANGES.md has them),
# the first raised from 1.6 to 2.2 so that hourly x 2 and uniform n = 500,
# where every span ran within 3% of one group, keep one group.
_COST_GROUPS, _COST_SLOT, _COST_MAC, _COST_GEMV = 2.2, 6e-3, 2.7e-4, 1.5e-3


def _span_cost(edges: list, span: int) -> float:
    """Estimated time of one iteration with ``span`` knot segments per group;
    ``edges`` holds the running row counts of the segments, from 0."""
    segments = len(edges) - 1
    groups = -(-segments // span)
    largest = max(edges[min(k + span, segments)] - edges[k] for k in range(0, segments, span))
    slots = groups * (largest + 4 * span)
    width = span + 3  # B-splines a group touches
    return ((groups > 1) * _COST_GROUPS + slots * (_COST_SLOT + _COST_MAC * width)
            + _COST_GEMV * (groups * span + 3) * groups * width)


def _choose_span(counts: np.ndarray) -> int:
    """The span, 1 ... segments, of least estimated time per iteration, from
    the row count of each segment."""
    edges = [0, *np.cumsum(counts).tolist()]
    return min(range(1, len(counts) + 1), key=lambda span: _span_cost(edges, span))


def _grouped_rows(problem: MirProblem, span: int):
    """The split rows of both curves grouped by runs of ``span`` knot segments.

    Group k holds the loss rows of segments k span ... (k + 1) span - 1 in
    their order, zero-padded to the largest group, then a tail of those
    segments' 4 span non-crossing rows; every row in it is zero outside
    the span + 3 B-splines k span ... k span + span + 2.  Returns the design
    D, (groups, span + 3, slots), one row per slot stored as a column, and
    y, lo and hi, (groups, 2, slots).  A padding slot has a zero design and
    y = lo = hi = 0.  With one group, D[0] is [AN; GN]' in row order.
    """
    AN, GN, n = problem.AN, problem.basis.noncross, problem.n
    segments = problem.basis.segments
    groups = -(-segments // span)
    group = problem.first // span
    counts = np.bincount(group, minlength=groups)
    tail = counts.max()
    slots = tail + 4 * span
    slot = np.empty(n, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    slot[np.argsort(group, kind="stable")] = np.arange(n) - np.repeat(starts, counts)

    y, lo, hi = (np.zeros((groups, 2, slots)) for _ in range(3))
    at = group * 2 * slots + slot  # flat index of each loss row on curve 0
    at = np.concatenate([at, at + slots])  # then on curve 1, stacked as y, p and w are
    np.put(y, at, problem.y)
    np.put(lo, at, -((1.0 - problem.p) * problem.w))
    np.put(hi, at, problem.p * problem.w)
    hi[:, 0, tail:] = np.inf

    # the loss rows, then segment j's 4 non-crossing rows, which sit
    # 4 (j - k span) slots into group k's tail
    seg = np.repeat(np.arange(segments), 4)
    rows_first = np.concatenate([problem.first, seg])
    rows_group = rows_first // span
    rows_slot = np.concatenate([slot, tail + np.arange(4 * segments) - 4 * span * rows_group[n:]])
    four = np.arange(4)
    values = np.concatenate([  # each row's B-splines first ... first + 3
        np.take(AN, (np.arange(n) * AN.shape[1] + problem.first)[:, None] + four),
        np.take(GN, (np.arange(4 * segments) * GN.shape[1] + seg)[:, None] + four)])
    # flat index in D of each row's B-spline rows_first, then + slots per next one
    at = (rows_group * (span + 3) + rows_first - span * rows_group) * slots + rows_slot
    D = np.zeros((groups, span + 3, slots))
    np.put(D, at[:, None] + slots * four, values)
    return D, y, lo, hi


def admm_fit(problem: MirProblem, iters: int = 1000) -> FittedBand:
    """Run scaled ADMM on the assembled program for exactly ``iters`` steps.

    The iterate is theta = (theta_up, theta_low), the curves' B-spline
    coefficients, so continuity holds exactly at every iteration.
    The theta-update solves an unconstrained quadratic subproblem with
    the inverse of its normal matrix, formed once from a Cholesky factor.
    There is no early stop: the primal and dual residual norms are those
    of the last iterate, the dual one projected onto the continuous
    splines, P (P'P)^-1 theta-coordinate residual, so that no choice of
    B-spline coordinates changes it.

    Parameters
    ----------
    problem : MirProblem
        Assembled program from :func:`assemble`.
    iters : int
        Number of iterations, at least 1.

    Returns
    -------
    FittedBand
        Coefficients of both curves plus the last iterate's residuals and a
        grid check of the non-crossing constraint.
    """
    _check_iters(iters)
    AN, GN = problem.AN, problem.basis.noncross
    r = AN.shape[1]
    G = np.hstack([GN, -GN])  # non-crossing rows on theta_up - theta_low

    penalty, data = 2.0 * problem.lam * problem.basis.penalty, AN.T @ AN
    M = np.kron(np.eye(2), penalty + data) + G.T @ G
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise _rank_deficient(problem, str(exc), penalty, data) from exc
    pivots = np.diag(L) ** 2
    if pivots.min() <= pivots.max() * 1e-13:
        raise _rank_deficient(problem, "singular normal matrix", penalty, data)
    L_inv = np.linalg.inv(L)
    M_inv = L_inv.T @ L_inv

    # Each curve's split rows are grouped by runs of `span` knot segments
    # (see _grouped_rows): a group's slots on both curves are one (2, slots)
    # block, and its window of theta times its D is A theta on its loss
    # slots.  The tail of curve 0 minus that of curve 1 is G theta.  The state is
    # W = z - u and C = -u.  On a loss slot the prox step is
    # z = v + clip(y - v, -(1 - p) w, p w) at v = A theta + u; a
    # non-crossing slot has y = 0 and the bounds 0 and +inf, so z is the
    # projection max(v, 0).  The dual update then leaves u = -clip(...).
    # Theta sits in a zero-padded (2, groups span + 3) buffer; group k reads
    # the window k span ... k span + span + 2 of it, and M_inv's columns are
    # gathered so that one GEMV both sums the groups' products and solves.
    span = _choose_span(np.bincount(problem.first, minlength=problem.basis.segments))
    D, y, lo, hi = _grouped_rows(problem, span)
    groups, _, slots = y.shape
    tail, width = slots - 4 * span, groups * span + 3
    M_pad = np.zeros((2, width, 2, width))
    M_pad[:, :r, :, :r] = M_inv.reshape(2, r, 2, r)
    cols = (np.arange(groups)[:, None, None] * span + np.arange(2)[:, None] * width
            + np.arange(span + 3)).ravel()  # entry (k, c, j) of the products
    M_cols = np.ascontiguousarray(M_pad.reshape(2 * width, 2 * width)[:, cols])
    B = np.empty((groups, 2, span + 3))
    T = np.zeros((2, width))
    step, row = T.strides[1], T.strides[0]
    windows = np.lib.stride_tricks.as_strided(
        T, (groups, 2, span + 3), (span * step, row, step), writeable=False)
    theta, rhs = T.reshape(-1), B.reshape(-1)
    product = np.matmul
    if groups == 1:  # np.dot on the one 2-D block costs less per call than matmul on a stack
        D, y, lo, hi, B, windows = D[0], y[0], lo[0], hi[0], B[0], windows[0]
        product = np.dot
    # in C order both W @ D' and the windows @ D read contiguous memory, the
    # fast layout for these thin BLAS products
    Dt = D.swapaxes(-1, -2)
    # one block, so that their relative offsets, which moved the loop's time
    # by several percent at n = 482, do not depend on the allocator
    W, C, v = np.zeros((3,) + y.shape)
    g_up, g_low = v[..., 0, tail:], v[..., 1, tail:]
    q_up, q_low = W[..., 0, tail:], W[..., 1, tail:]

    for it in range(1, iters + 1):
        if it == iters:
            W_prev, C_prev = W.copy(), C.copy()
        product(W, Dt, out=B)  # A'(z1 - u1) + G'(z2 - u2), per group
        np.dot(M_cols, rhs, out=theta)
        product(windows, D, out=v)
        g_up -= g_low
        np.subtract(C, v, out=v)  # -(A theta + u)
        np.add(y, v, out=C)
        np.maximum(C, lo, out=C)
        np.minimum(C, hi, out=C)
        np.subtract(C, v, out=W)  # z - u = (A theta + u) + 2 clip(...)
        W += C
        np.negative(q_up, out=q_low)

    # primal: A theta - z = u - u_prev; dual: A'(z - z_prev), G rows
    # included, taken to coefficients P theta and projected onto range(P)
    P = problem.basis.null_space
    primal = np.linalg.norm(C_prev - C)
    dz = (W - C) - (W_prev - C_prev)
    dz[..., 1, tail:] = -dz[..., 0, tail:]
    g = np.bincount(cols, np.matmul(dz, Dt).ravel(), minlength=2 * width)
    dual = np.linalg.norm(P @ np.linalg.solve(P.T @ P, g.reshape(2, width)[:, :r].T))
    if not (np.all(np.isfinite(T)) and np.isfinite(primal) and np.isfinite(dual)):
        raise RuntimeError(f"non-finite iterates after {iters} iterations")

    upper, lower = P @ T[0, :r], P @ T[1, :r]
    grid = np.linspace(problem.basis.knots[0], problem.basis.knots[-1], _NONCROSS_GRID)
    gap = eval_spline(upper, problem.basis, grid) - eval_spline(lower, problem.basis, grid)
    violation = float(max(0.0, -gap.min()))
    if violation > 1e-6:
        warnings.warn(
            f"non-crossing violated by {violation:.3e} on the evaluation grid",
            RuntimeWarning,
            stacklevel=2,
        )

    return FittedBand(
        upper=upper,
        lower=lower,
        basis=problem.basis,
        iterations=iters,
        primal_residual=float(primal),
        dual_residual=float(dual),
        noncross_violation=violation,
    )
