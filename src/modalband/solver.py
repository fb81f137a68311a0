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
of a single (2, n + m) array, so an iteration costs three small matrix
products and a handful of vector operations.  Only numpy is needed.
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
    the upper-curve rows first, then the lower.  ``empty_segments`` counts
    the knot segments that hold no observation.
    """

    AN: np.ndarray
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


def admm_fit(problem: MirProblem, iters: int = 1000) -> FittedBand:
    """Run scaled ADMM on the assembled program for exactly ``iters`` steps.

    The iterate is theta = (theta_up, theta_low), the curves' B-spline
    coefficients, so continuity holds exactly at every iteration.
    The theta-update solves an unconstrained quadratic subproblem with
    the inverse of its normal matrix, formed once from a Cholesky factor.
    There is no early stop: the primal and dual residual norms are those
    of the last iterate, the dual one measured in theta coordinates.

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
    n, r = AN.shape
    m = GN.shape[0]
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

    # The split rows share one (2, n + m) layout: row 0 holds the upper
    # curve's n loss rows and then the m non-crossing rows, row 1 the lower
    # curve's loss rows and m slots that mirror row 0's with the sign of
    # G's second block.  With E = [AN; GN] and theta as the 2 x r matrix T,
    # T @ E.T is A theta on the loss rows; row 0's tail minus row 1's tail
    # is G theta.  The state is W = z - u and C = -u.  On a loss row the
    # prox step is z = v + clip(y - v, -(1 - p) w, p w) at v = A theta + u;
    # a non-crossing row has y = 0 and the bounds 0 and +inf, so z is the
    # projection max(v, 0).  The dual update then leaves u = -clip(...).
    # in Fortran order both W @ E and T @ E.T read contiguous memory, the
    # fast layout for these thin BLAS products
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
        np.dot(W, E, out=B)  # A'(z1 - u1) + G'(z2 - u2)
        np.dot(M_inv, rhs, out=theta)
        np.dot(T, Et, out=v)
        g_up -= g_low
        np.subtract(C, v, out=v)  # -(A theta + u)
        np.add(y, v, out=C)
        np.maximum(C, lo, out=C)
        np.minimum(C, hi, out=C)
        np.subtract(C, v, out=W)  # z - u = (A theta + u) + 2 clip(...)
        W += C
        np.negative(q_up, out=q_low)

    # primal: A theta - z = u - u_prev; dual: A'(z - z_prev), G rows included
    primal = np.linalg.norm(C_prev - C)
    dz = (W - C) - (W_prev - C_prev)
    dz[1, n:] = -dz[0, n:]
    dual = np.linalg.norm(dz @ E)
    if not (np.all(np.isfinite(theta)) and np.isfinite(primal) and np.isfinite(dual)):
        raise RuntimeError(f"non-finite iterates after {iters} iterations")

    P = problem.basis.null_space
    upper, lower = P @ theta[:r], P @ theta[r:]
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
