"""Streaming matrix factorization engine for dependent data.

Maintains a dictionary ``W`` (d x r) together with running sufficient
statistics ``(A, B, r_scalar)`` of previously computed codes.  Each arriving
minibatch ``X`` is sparse-coded against the current dictionary, the statistics
are folded in with a decaying weight ``w_t = t**-beta``, and the dictionary is
refit on the quadratic surrogate objective ``tr(W A W^T) - 2 tr(W B)`` over a
union of compact convex pieces.  In one nonnegative piece whose ball does
not bind, the refit is one nonnegative least-squares problem per row of W,
solved exactly by block principal pivoting; otherwise it runs accelerated
projected gradient (FISTA with gradient restart) with step 1/L, L the
largest eigenvalue of ``A + kappa1 I``.  On multi-piece
(non-convex) constraint sets each piece's refit is additionally pulled back
into the trust ellipsoid ``tr((B^T - W A)(W_prev - W)^T) <= 0`` spanned
between the previous iterate and the unconstrained minimum, which guarantees
second-order growth of the quadratic objective per update.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

_FEAS_TOL = 1e-12

# OnlineNMF.step calls the public sparse_code and dictionary_update, so that
# anything wrapping those names (a profiler, a counting test double) sees every
# solve, and reads what they did from the dict it places here: "code" records
# (iterations, converged, last change, columns coded) and "dict" (iterations,
# converged).
# None outside a step.
_SOLVER_COUNTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "onmf_solver_counts", default=None)

# Projected-gradient steps the coding takes between two tests of its
# stopping rule.
_TEST_EVERY = 8

# sparse_code solves only the distinct columns of a batch when at least one
# column in this many ties with another.  Fewer repeats save less than the
# grouping costs: ising-omf batches repeat 2 % of their columns, and coding
# only their distinct columns took a median of 123.1 ms per 100 calls
# against 115.2 ms for every column (its CLI run at seed 2701, 15 runs).
_REPEATS_WORTH = 8


def _record_counts(key: str, *report) -> None:
    counts = _SOLVER_COUNTS.get()
    if counts is not None:
        counts[key] = report


def _check_budget(tol, max_iter) -> None:
    """A solver's stopping rule: ``tol`` finite and nonnegative, at least one
    step."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and nonnegative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


def _check_penalty(name: str, value: float) -> None:
    """A penalty weight: finite and nonnegative (NaN passes ``value < 0``)."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


class ZeroDictionaryError(ValueError):
    """Raised when sparse coding is attempted against an all-zero dictionary."""


# ---------------------------------------------------------------------------
# Constraint sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintPiece:
    """One compact convex piece: entrywise lower bound plus Frobenius ball.

    ``{W : W_ij >= lower, ||W||_F <= radius}``, with ``lower`` finite and
    nonnegative.  With ``lower == 0`` the set is a cone intersected with a
    centered ball, for which clamp-then-rescale is the exact Euclidean
    projection; otherwise the projection alternates the two steps (POCS),
    which reaches a feasible point but in general not the nearest one.
    """

    radius: float
    lower: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("piece radius must be positive and finite")
        if not (math.isfinite(self.lower) and self.lower >= 0):
            raise ValueError("piece lower bound must be finite and nonnegative")

    def project(self, W: np.ndarray) -> np.ndarray:
        """Clamp at ``lower``, then alternate rescaling into the ball and
        clamping until the norm is within a relative 1e-12 of ``radius``, or
        for 200 rounds."""
        W = np.asarray(W, dtype=float)
        if self.lower > 0 and self.lower * math.sqrt(W.size) > self.radius:
            raise ValueError("empty constraint piece for this shape")
        W = np.maximum(W, self.lower)
        for _ in range(200):
            nrm = float(np.linalg.norm(W))
            if nrm <= self.radius * (1.0 + 1e-12):
                break
            W = np.maximum(W * (self.radius / nrm), self.lower)
        return W


@dataclass(frozen=True)
class ConstraintSpec:
    """Disjoint union of compact convex pieces admissible for the dictionary."""

    pieces: tuple[ConstraintPiece, ...]

    def __post_init__(self):
        if len(self.pieces) < 1:
            raise ValueError("need at least one constraint piece")

    @classmethod
    def nonnegative(cls, radius: float) -> "ConstraintSpec":
        return cls(pieces=(ConstraintPiece(radius=radius),))


@dataclass
class Dictionary:
    """Current dictionary matrix, its constraint set, and the active piece."""

    W: np.ndarray
    constraint: ConstraintSpec
    active_piece: int = 0

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or 0 in self.W.shape:
            raise ValueError("dictionary must be a 2-d matrix with at least "
                             "one row and one atom")
        if not np.isfinite(self.W).all():
            raise ValueError("non-finite dictionary entries")
        if not 0 <= self.active_piece < len(self.constraint.pieces):
            raise ValueError("active piece index out of range")

    @property
    def shape(self) -> tuple[int, int]:
        return self.W.shape


@dataclass(frozen=True)
class WeightSchedule:
    """Step weights w_t = t**-beta with beta in (3/4, 1]."""

    beta: float = 1.0

    def __post_init__(self):
        if not 0.75 < self.beta <= 1.0:
            raise ValueError("beta must lie in (3/4, 1]")

    def weight(self, t: int) -> float:
        if t < 1:
            raise ValueError("weights are defined for t >= 1")
        return float(t) ** (-self.beta)


@dataclass
class AggregateStats:
    """Running sufficient statistics (A, B, r_scalar) of codes seen so far."""

    A: np.ndarray
    B: np.ndarray
    r_scalar: float = 0.0
    t: int = 0
    kappa1: float = 0.0

    @classmethod
    def zeros(cls, r: int, d: int, kappa1: float = 0.0) -> "AggregateStats":
        return cls(A=np.zeros((r, r)), B=np.zeros((r, d)), r_scalar=0.0, t=0,
                   kappa1=kappa1)


# ---------------------------------------------------------------------------
# Sparse coding
# ---------------------------------------------------------------------------


def _pg_solve(gram, wx, lam, kappa2, tol, max_iter):
    """Projected gradient on the nonnegative orthant with a fixed safe step,
    started at zero.

    The step s = 1/(2 tr(gram) + kappa2) turns H - s (2 (gram H - wx) + lam +
    kappa2 H), clamped at zero, into the affine map H <- max(M H + c, 0) with
    M = (1 - s kappa2) I - 2 s gram and c = s (2 wx - lam), both formed once;
    ``wx`` is not used after c is formed.

    The stop statistic is the largest Euclidean change of one column in the
    last step, tested at the end of each window of K = ``_TEST_EVERY`` steps
    and at ``max_iter``; the solve stops there when it is below ``tol``.
    Every column below ``tol`` needs the window's sum of squared changes,
    one ``vdot``, at most n tol^2, so the columns are summed only when that
    holds.  Rounding in that ``vdot`` can only delay a stop by one window:
    the changes do not grow in exact arithmetic, so the next window end
    passes unless they stall.  Returns (H, iterations, converged); converged
    is true only when the change test stopped the loop.  Records them for
    ``OnlineNMF.step`` under "code", with the statistic of the last step
    taken and the number of columns coded.
    """
    step = 1.0 / (2.0 * float(np.trace(gram)) + kappa2)
    M = (-2.0 * step) * gram
    M.flat[::M.shape[0] + 1] += 1.0 - step * kappa2
    c = np.multiply(wx, 2.0)
    c -= lam
    c *= step
    del wx                               # frees a W^T X the caller dropped
    H = np.zeros_like(c)
    H_next = np.empty_like(c)
    # Clamp against an array, not the scalar 0.0: on numpy 2.4.6 a scalar
    # operand takes np.maximum's slow loop, 3.5-3.8 us at 16 x 500 against
    # 0.88-0.93 us with this floor (one AMD EPYC core; the step's matmul
    # takes 2.75 us).  The results are the same bytes.
    floor = np.zeros_like(c)
    bound = c.shape[1] * tol * tol
    done = 0
    converged = False
    while not converged and done < max_iter:
        for _ in range(min(_TEST_EVERY, max_iter - done)):
            # np.dot, not np.matmul: the same dgemm and bytes, less call
            # overhead (0.69 against 0.96 us at 16 x 80, one AMD EPYC core)
            np.dot(M, H, out=H_next)
            H_next += c
            np.maximum(H_next, floor, out=H_next)
            H, H_next = H_next, H
        done = min(done + _TEST_EVERY, max_iter)
        H_next -= H                      # minus the last change
        change = None
        if np.vdot(H_next, H_next) <= bound:
            change = _largest_column_change(H_next)
            converged = change < tol
    if change is None:
        change = _largest_column_change(H_next)
    _record_counts("code", done, converged, change, H.shape[1])
    return H, done, converged


def _largest_column_change(D) -> float:
    """The largest Euclidean norm of a column of D."""
    return math.sqrt(np.einsum("ij,ij->j", D, D).max())


@functools.cache
def _fingerprint(d: int) -> np.ndarray:
    """Fixed random integer weights below 2^40 for the d rows of a batch,
    shared by every call: read-only."""
    weights = np.floor(np.random.default_rng(d).random(d) * 2.0**40)
    weights.flags.writeable = False
    return weights


def _distinct_columns(X):
    """The distinct columns of X: (first, inverse) with
    ``X[:, first][:, inverse]`` equal to X byte for byte, or None when fewer
    than one column in ``_REPEATS_WORTH`` ties with another.

    A column's fingerprint is its dot product with fixed integer weights,
    one mat-vec ``v @ X``.  Columns are sorted stably by fingerprint, and
    only neighbours whose fingerprints tie are compared, by their bytes:
    -0.0 and 0.0 stay apart, and two different columns with one fingerprint
    at worst miss a merge.  So do equal columns whose dot products BLAS
    rounds differently (it may, at another position in the batch); on
    columns of small integers, such as 0/1 patches, the sums are exact and
    equal columns always merge.
    """
    f = _fingerprint(X.shape[0]) @ X
    order = f.argsort(kind="stable")
    f = f[order]
    tied = (f[1:] == f[:-1]).nonzero()[0]   # sorted position p + 1 ties p
    if tied.size * _REPEATS_WORTH < X.shape[1]:
        return None
    bits = X.view(np.uint64)
    same = (bits[:, order[tied + 1]] == bits[:, order[tied]]).all(axis=0)
    if not same.any():
        return None
    new = np.ones(X.shape[1], dtype=bool)    # sorted: not its predecessor
    new[tied[same] + 1] = False
    inverse = np.empty(X.shape[1], dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return order[new], inverse


def sparse_code(X, W, lam: float = 1.0, kappa2: float = 0.0,
                tol: float = 1e-6, max_iter: int = 200) -> np.ndarray:
    """Nonnegative code H minimizing
    ||X - WH||_F^2 + lam*||H||_1 + (kappa2/2)*||H||_F^2.

    Projected gradient descent from H = 0 with step
    s = 1/(2 tr(W^T W) + kappa2), run as the affine map H <- max(M H + c, 0)
    with M = (1 - s kappa2) I - 2 s W^T W and c = s (2 W^T X - lam); stopped
    when the largest Euclidean change of one column between successive
    iterates falls below ``tol``, or after ``max_iter`` steps.  The
    objective is non-increasing across iterations and the columns of X are
    solved independently.  So each column is held to ``tol`` on its own, as
    the paper's Algorithm 1 defines each code by its own column: no column
    stops earlier than it would coded alone, and ``tol`` means the same at
    any batch width.

    When at least one column in ``_REPEATS_WORTH`` repeats another, each
    distinct column of X is solved once, and equal columns (byte for byte)
    share its code.  A column that repeats m times weighs in the stop rule
    exactly as one copy, so the codes are those of the distinct columns
    coded as a batch.

    The rule is tested only at the end of each window of eight steps and at
    ``max_iter``; the map is nonexpansive on each column, so in exact
    arithmetic a solve stops at most seven steps after its first passing
    step, with a code no worse.  ``tol`` must be finite and nonnegative and
    ``max_iter`` at least 1.  Inside ``OnlineNMF.step`` the iteration count,
    whether the change test fired, the largest column change of the last
    step and the number of distinct columns coded are reported in the
    ``StepResult``.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    if X.ndim != 2 or W.ndim != 2 or X.shape[0] != W.shape[0]:
        raise ValueError("incompatible shapes for data and dictionary")
    if not (np.isfinite(X).all() and np.isfinite(W).all()):
        raise ValueError("non-finite input")
    _check_penalty("lambda", lam)
    _check_penalty("kappa2", kappa2)
    _check_budget(tol, max_iter)
    gram = W.T @ W
    if float(np.trace(gram)) <= 0.0:
        raise ZeroDictionaryError("zero dictionary")
    groups = _distinct_columns(X)
    if groups is None:
        return _pg_solve(gram, W.T @ X, lam, kappa2, tol, max_iter)[0]
    first, inverse = groups
    return _pg_solve(gram, W.T @ X[:, first], lam, kappa2, tol,
                     max_iter)[0][:, inverse]


def coding_objective(X, W, H, lam: float, kappa2: float = 0.0) -> float:
    """Value of the sparse-coding objective at a given code."""
    resid = X - W @ H
    val = float(np.sum(resid * resid)) + lam * float(np.abs(H).sum())
    if kappa2 > 0:
        val += 0.5 * kappa2 * float(np.sum(H * H))
    return val


def kkt_residual(X, W, H, lam: float, kappa2: float = 0.0) -> float:
    """Norm of the projected-gradient displacement at H (zero at optimality)."""
    gram = W.T @ W
    step = 1.0 / (2.0 * float(np.trace(gram)) + kappa2)
    grad = 2.0 * (gram @ H - W.T @ X) + lam + kappa2 * H
    return float(np.linalg.norm(np.maximum(H - step * grad, 0.0) - H))


# ---------------------------------------------------------------------------
# Aggregate and surrogate bookkeeping
# ---------------------------------------------------------------------------


def update_aggregates(stats: AggregateStats, H, X, schedule: WeightSchedule,
                      lam: float = 0.0) -> AggregateStats:
    """Fold one (code, data) pair into the running statistics.

    A' = (1-w)A + w H H^T, B' = (1-w)B + w H X^T and the scalar remainder
    r' = (1-w)r + w(tr(X X^T) + lam*||H||_1), with w the schedule weight at
    step t+1.
    """
    H = np.asarray(H, dtype=float)
    X = np.asarray(X, dtype=float)
    r, n = H.shape
    if X.shape[1] != n or stats.A.shape != (r, r) or stats.B.shape[0] != r \
            or stats.B.shape[1] != X.shape[0]:
        raise ValueError("dimension mismatch between statistics, code and data")
    w = schedule.weight(stats.t + 1)
    A = (1.0 - w) * stats.A + w * (H @ H.T)
    A = 0.5 * (A + A.T)
    B = (1.0 - w) * stats.B + w * (H @ X.T)
    r_scalar = (1.0 - w) * stats.r_scalar \
        + w * (float(np.sum(X * X)) + lam * float(np.abs(H).sum()))
    return AggregateStats(A=A, B=B, r_scalar=r_scalar, t=stats.t + 1,
                          kappa1=stats.kappa1)


def _quad_objective(W, A, B) -> float:
    """tr(W A W^T) - 2 tr(W B)."""
    return float(np.sum((W @ A) * W) - 2.0 * np.sum(W * B.T))


def surrogate_loss(W, stats: AggregateStats) -> float:
    """tr(W A W^T) - 2 tr(W B) + r_scalar for the given dictionary."""
    W = np.asarray(W, dtype=float)
    if W.shape[1] != stats.A.shape[0] or W.shape[0] != stats.B.shape[1]:
        raise ValueError("dictionary incompatible with statistics")
    return _quad_objective(W, stats.A, stats.B) + stats.r_scalar


def ellipsoid_gap(W, W_prev, stats: AggregateStats) -> float:
    """Value of tr((B^T - W A)(W_prev - W)^T); feasible when <= 0."""
    W = np.asarray(W, dtype=float)
    W_prev = np.asarray(W_prev, dtype=float)
    return float(np.sum((stats.B.T - W @ stats.A) * (W_prev - W)))


def growth_check(W1, W2, stats: AggregateStats) -> float:
    """Second-order growth margin g(W1) - g(W2) - tr((W1-W2) A (W1-W2)^T).

    Nonnegative (up to floating point) whenever W2 was produced from W1 by a
    dictionary update that respected the trust ellipsoid.
    """
    W1 = np.asarray(W1, dtype=float)
    W2 = np.asarray(W2, dtype=float)
    A, B = stats.A, stats.B
    delta = W1 - W2
    return (_quad_objective(W1, A, B) - _quad_objective(W2, A, B)
            - float(np.sum((delta @ A) * delta)))


# ---------------------------------------------------------------------------
# Dictionary update
# ---------------------------------------------------------------------------


def _accelerated_descent(W, piece, A, B, L, tol, max_iter):
    """FISTA with gradient restart inside one piece, from ``W``.

    Each step projects ``Y - (Y A - B^T) / L`` into the piece, at the
    extrapolated point Y.  The momentum restarts (Y = W) whenever the
    gradient map Y - W_next has a positive inner product with the step
    W_next - W.  Stops when the Frobenius change between successive
    iterates falls below ``tol`` or after ``max_iter`` steps.  Returns
    (W, iterations, converged).
    """
    Y, t = W, 1.0
    for it in range(1, max_iter + 1):
        W_next = piece.project(Y - (Y @ A - B.T) / L)
        change = W_next - W
        restart = np.vdot(Y - W_next, change) > 0.0
        W = W_next
        if np.linalg.norm(change) < tol:
            return W, it, True
        if restart:
            Y, t = W, 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            Y = W + (t - 1.0) / t_next * change
            t = t_next
    return W, max_iter, False


def _ellipsoid_step(start, D, W_prev, stats) -> float:
    """Largest s in [0, 1] with ``ellipsoid_gap(start + s D, W_prev)`` at most
    ``_FEAS_TOL``, for a ``start`` that meets that bound.

    Along the segment the gap is the convex quadratic a s^2 + b s + c, so s
    is its larger root (in the form that does not cancel), or 1 when the
    whole segment is feasible.
    """
    A = stats.A
    DA = D @ A
    a = float(np.sum(DA * D))
    b = -float(np.sum((stats.B.T - start @ A) * D) + np.sum(DA * (W_prev - start)))
    c = ellipsoid_gap(start, W_prev, stats) - _FEAS_TOL
    if a + b + c <= 0.0:
        return 1.0
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    s = -2.0 * c / (b + disc) if b > 0.0 else (disc - b) / (2.0 * a)
    return min(max(s, 0.0), 1.0)


def _ridged(stats: AggregateStats) -> np.ndarray:
    """A + kappa1 I, the quadratic form of the surrogate."""
    A, kappa1 = stats.A, stats.kappa1
    return A + kappa1 * np.eye(A.shape[0]) if kappa1 > 0 else A


def _nnls_refit(start, Q, B, max_iter):
    """Minimise ``tr(W Q W^T) - 2 tr(W B)`` over ``W >= 0`` exactly, by block
    principal pivoting on the rows of W (Kim & Park 2011), from the support
    of ``start``.

    Row i solves ``min w Q w^T - 2 w b`` over ``w >= 0``, ``b = B[:, i]``.
    Each round solves the rows still infeasible in one stacked call, with Q
    on the row's passive set F and the identity elsewhere, and flips the
    infeasible indices: ``w < 0`` on F, and off F a gradient ``Q w - b``
    below minus its rounding bound ``(u + 1) eps (|Q| |w| + |b|)``.  It
    flips all of them while their number falls, three more times, then
    only the largest (Júdice & Pires 1994).  An atom whose rows of Q and B
    are zero has zero gradient, so its column keeps the start's.

    Returns (W, rounds), or None when ``max_iter`` rounds leave a row
    infeasible or Q on the other u atoms is numerically singular: its
    condition number ``||Q||_F ||Q^-1||_F`` reaches ``1 / (u eps)``, the
    threshold of ``numpy.linalg.matrix_rank``.  That number bounds the
    2-norm condition of every F x F block of Q, so the one test covers every
    round.  (``inv`` runs the LAPACK routine the solves run; ``eigvalsh``
    would page in 0.65 MiB more of the library.)
    """
    W = start.copy()
    used = np.flatnonzero(Q.any(axis=1) | B.any(axis=1))
    if used.size == 0:
        return W, 0
    Qu = Q[np.ix_(used, used)]
    try:
        cond = np.linalg.norm(Qu) * np.linalg.norm(np.linalg.inv(Qu))
    except np.linalg.LinAlgError:
        return None
    if not cond * used.size * np.finfo(float).eps < 1.0:
        return None
    P = B[used].T                        # row i: B[:, i] on the used atoms
    Q_abs = np.abs(Qu)
    gamma = (used.size + 1) * np.finfo(float).eps   # bounds the rounding of y
    F = W[:, used] > 0.0                 # passive sets, from the start's support
    eye = np.eye(used.size)
    rows = np.arange(P.shape[0])         # rows not yet known to be feasible
    fewest = np.full(rows.size, used.size + 1)
    tries = np.full(rows.size, 3)
    for rounds in range(1, max_iter + 1):
        Fr, Pr = F[rows], P[rows]
        # the stacked systems die with the call, so two rounds' never coexist
        x = np.linalg.solve(np.where(Fr[:, :, None] & Fr[:, None, :], Qu, eye),
                            np.where(Fr, Pr, 0.0)[:, :, None])[:, :, 0]
        y = x @ Qu
        y -= Pr
        # A gradient above minus its rounding bound counts as nonnegative;
        # else an index with x = y = 0 at the minimum flips for ever.
        slack = np.abs(x) @ Q_abs
        slack += np.abs(Pr)
        bad = np.where(Fr, x < 0.0, y < -gamma * slack)
        W[np.ix_(rows, used)] = x
        n_bad = bad.sum(axis=1)
        left = n_bad > 0
        if not left.any():
            return W, rounds
        rows, bad, n_bad = rows[left], bad[left], n_bad[left]
        fall = n_bad < fewest[rows]
        whole = fall | (tries[rows] > 0)
        fewest[rows] = np.where(fall, n_bad, fewest[rows])
        tries[rows] = np.where(fall, 3, tries[rows] - whole)
        last = used.size - 1 - np.argmax(bad[:, ::-1], axis=1)
        bad[~whole] = False
        bad[~whole, last[~whole]] = True
        F[rows] ^= bad
    return None


def _refit(W_prev: Dictionary, stats: AggregateStats, tol: float,
           max_iter: int) -> tuple[Dictionary, int, bool]:
    """``dictionary_update`` plus the rounds of the exact path, or the
    iterations and the converged flag of the descent in the piece it returns
    (0 and False when no piece is feasible)."""
    spec = W_prev.constraint
    piece = spec.pieces[0]
    if len(spec.pieces) == 1 and piece.lower == 0.0:
        exact = _nnls_refit(piece.project(W_prev.W), _ridged(stats), stats.B,
                            max_iter)
        if exact is not None:
            W, rounds = exact
            if np.vdot(W, W) <= piece.radius * piece.radius:
                return Dictionary(W, spec), rounds, True
    return _descent_refit(W_prev, stats, tol, max_iter)


def _descent_refit(W_prev: Dictionary, stats: AggregateStats, tol: float,
                   max_iter: int) -> tuple[Dictionary, int, bool]:
    """``_refit`` by accelerated projected gradient in every piece."""
    spec = W_prev.constraint
    A, B = stats.A, stats.B
    A_ridge = _ridged(stats)
    L = float(np.linalg.eigvalsh(A_ridge)[-1]) or 1.0
    W0 = np.asarray(W_prev.W, dtype=float)
    enforce = len(spec.pieces) > 1

    best = None
    best_val = math.inf
    for idx, piece in enumerate(spec.pieces):
        start = piece.project(W0)
        if enforce and ellipsoid_gap(start, W0, stats) > _FEAS_TOL:
            # fall back to the ellipsoid midpoint between the previous iterate
            # and the unconstrained minimum, projected into the piece
            target = (np.linalg.pinv(A, hermitian=True) @ B).T
            start = piece.project(0.5 * (W0 + target))
            if ellipsoid_gap(start, W0, stats) > _FEAS_TOL:
                continue
        W, iters, converged = _accelerated_descent(start, piece, A_ridge, B, L,
                                                   tol, max_iter)
        if enforce:
            D = W - start
            W = start + _ellipsoid_step(start, D, W0, stats) * D
        val = _quad_objective(W, A_ridge, B)
        start_val = _quad_objective(start, A_ridge, B)
        if val > start_val:
            # the accelerated iterates need not descend; never end above start
            W, val = start, start_val
        if val < best_val:
            best, best_val = (Dictionary(W, spec, idx), iters, converged), val

    if best is None:
        logger.warning("dictionary update found no feasible piece; "
                       "keeping the previous dictionary")
        return Dictionary(W0.copy(), spec, W_prev.active_piece), 0, False
    return best


def dictionary_update(W_prev: Dictionary, stats: AggregateStats,
                      tol: float = 1e-6, max_iter: int = 100) -> Dictionary:
    """Refit the dictionary against the current statistics.

    Minimises ``tr(W (A + kappa1 I) W^T) - 2 tr(W B)`` over the constraint
    set.  When the set is one piece with lower bound 0, the exact minimiser
    over ``W >= 0`` is found first, by block principal pivoting on the rows
    of W (``_nnls_refit``), in at most ``max_iter`` rounds; if it lies in
    the piece's ball it is returned, converged, and ``tol`` plays no part.

    Otherwise (the ball binds, A + kappa1 I is numerically singular on the
    atoms in use, or the rounds run out), and for every other constraint
    set, the refit runs accelerated projected gradient (FISTA with gradient
    restart) independently inside every constraint piece and returns the
    best per-piece solution (lowest piece index wins on ties).  Each
    iteration is the projection into the piece of
    ``Y - (Y (A + kappa1 I) - B^T) / L`` at the extrapolated point Y, with L
    the largest eigenvalue of A + kappa1 I (1 when it is zero); iterations
    stop when the Frobenius change between successive iterates falls below
    ``tol`` or after ``max_iter`` of them.  On constraint sets with more
    than one piece, the only case where the trust ellipsoid is not
    redundant, each piece's result is then moved back along the segment
    from its feasible start to the farthest point inside the ellipsoid.  A
    piece whose result lies above its start in the objective keeps its
    start.

    Inside ``OnlineNMF.step`` the rounds or iterations and whether the refit
    converged are reported in the ``StepResult``.  Columns whose rows of A
    (plus ridge) and B are zero have zero gradient, so both solvers leave
    them in place, and they move only if the ball binds.  If no piece
    yields a feasible iterate the previous dictionary is returned unchanged
    and a warning is logged.  ``tol`` must be finite and nonnegative and
    ``max_iter`` at least 1.
    """
    _check_budget(tol, max_iter)
    new, iters, converged = _refit(W_prev, stats, tol, max_iter)
    _record_counts("dict", iters, converged)
    return new


def init_dictionary(d: int, r: int, constraint: ConstraintSpec,
                    rng) -> Dictionary:
    """Uniform [0,1] entries projected into the first constraint piece."""
    return Dictionary(constraint.pieces[0].project(rng.random((d, r))),
                      constraint)


# ---------------------------------------------------------------------------
# Weighted empirical loss (diagnostic over matrices the caller keeps)
# ---------------------------------------------------------------------------


def empirical_weights(t: int, schedule: WeightSchedule) -> np.ndarray:
    """Weights w_s^t = w_s * prod_{j>s} (1 - w_j); they sum to one for t >= 1."""
    if t < 1:
        raise ValueError("need at least one step")
    w = np.array([schedule.weight(s) for s in range(1, t + 1)])
    out = np.empty(t)
    tail = 1.0
    for s in range(t - 1, -1, -1):
        out[s] = w[s] * tail
        tail *= 1.0 - w[s]
    return out


def empirical_loss(W, history, schedule: WeightSchedule, lam: float = 1.0,
                   kappa2: float = 0.0, tol: float = 1e-9,
                   max_iter: int = 5000) -> float:
    """Weighted empirical loss f_t(W) over ``history``, the matrices fed to
    the engine so far in order (the engine keeps only the aggregates).

    Re-solves the sparse coding problem for every stored matrix (stacked into
    one batch since columns are independent) and returns the weighted sum of
    the per-matrix objectives.  Diagnostic only: cost grows linearly with the
    stored history.
    """
    if not history:
        raise ValueError("history must be non-empty")
    W = np.asarray(W, dtype=float)
    stacked = np.concatenate([np.asarray(X, dtype=float) for X in history], axis=1)
    H = sparse_code(stacked, W, lam=lam, kappa2=kappa2, tol=tol, max_iter=max_iter)
    weights = empirical_weights(len(history), schedule)
    total = 0.0
    pos = 0
    for s, X in enumerate(history):
        n = X.shape[1]
        total += weights[s] * coding_objective(X, W, H[:, pos:pos + n], lam)
        pos += n
    return float(total)


# ---------------------------------------------------------------------------
# Online engine
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    """Code, surrogate value after the update, the plug-in coding loss, and
    what the two solvers did.

    ``code_iters`` counts projected-gradient iterations of the coding.
    ``dict_iters`` counts the dictionary update's block-pivoting rounds when
    its exact path solved the refit (0 when no atom is in use), and
    ``dict_converged`` is then true.  Otherwise ``dict_iters`` counts
    accelerated projected-gradient iterations in the piece it kept.  A
    converged flag of a gradient solver is true only when its change test
    stopped it, false when it ran to its cap.  ``code_change`` is the
    largest Euclidean change of one column in the coding's last step, the
    statistic its stopping rule compares with ``code_tol``.  ``code_columns``
    is the number of columns the coding solved: the batch's distinct columns
    when it repeats enough of them to code each once (see ``sparse_code``),
    else all of its columns.
    """

    code: np.ndarray
    surrogate: float
    coding_loss: float
    code_iters: int
    code_converged: bool
    code_change: float
    code_columns: int
    dict_iters: int
    dict_converged: bool


@dataclass
class OnlineNMF:
    """Single-owner streaming factorization state.

    Each ``step`` codes its batch with ``sparse_code``, every column held to
    ``code_tol`` on its own (the largest column change of a step is below
    it) or stopped after ``code_max_iter`` steps, then refits the dictionary
    with ``dictionary_update`` under ``dict_tol`` and ``dict_max_iter``.
    One ``step`` at a time mutates the engine; independent engines on disjoint
    state are safe to drive concurrently.
    """

    dictionary: Dictionary
    lam: float = 1.0
    kappa1: float = 0.0
    kappa2: float = 0.0
    schedule: WeightSchedule = field(default_factory=WeightSchedule)
    code_tol: float = 1e-6
    code_max_iter: int = 200
    dict_tol: float = 1e-6
    dict_max_iter: int = 100

    def __post_init__(self):
        d, r = self.dictionary.shape
        _check_penalty("lambda", self.lam)
        _check_penalty("kappa1", self.kappa1)
        _check_penalty("kappa2", self.kappa2)
        _check_budget(self.code_tol, self.code_max_iter)
        _check_budget(self.dict_tol, self.dict_max_iter)
        self.stats = AggregateStats.zeros(r, d, kappa1=self.kappa1)

    @property
    def W(self) -> np.ndarray:
        return self.dictionary.W

    def step(self, X) -> StepResult:
        """Sparse-code X, fold in the statistics, refit the dictionary."""
        X = np.asarray(X, dtype=float)
        if X.size == 0:
            raise ValueError("empty data matrix")
        if not np.isfinite(X).all():
            raise ValueError("non-finite data matrix")
        if X.min() < 0:
            raise ValueError("data matrix must be nonnegative")
        counts = {}
        token = _SOLVER_COUNTS.set(counts)
        try:
            H = sparse_code(X, self.W, lam=self.lam, kappa2=self.kappa2,
                            tol=self.code_tol, max_iter=self.code_max_iter)
            loss = coding_objective(X, self.W, H, self.lam)
            self.stats = update_aggregates(self.stats, H, X, self.schedule,
                                           self.lam)
            self.dictionary = dictionary_update(
                self.dictionary, self.stats, tol=self.dict_tol,
                max_iter=self.dict_max_iter)
        finally:
            _SOLVER_COUNTS.reset(token)
        code_iters, code_converged, code_change, code_columns = counts["code"]
        dict_iters, dict_converged = counts["dict"]
        return StepResult(code=H, surrogate=surrogate_loss(self.W, self.stats),
                          coding_loss=loss, code_iters=code_iters,
                          code_converged=code_converged,
                          code_change=code_change, code_columns=code_columns,
                          dict_iters=dict_iters, dict_converged=dict_converged)


def init_engine(d: int, r: int, radius: float, rng, beta: float = 1.0,
                **options) -> OnlineNMF:
    """Engine on an ``init_dictionary`` in the nonnegative ball of ``radius``;
    ``options`` are the other ``OnlineNMF`` fields."""
    dictionary = init_dictionary(d, r, ConstraintSpec.nonnegative(radius), rng)
    return OnlineNMF(dictionary, schedule=WeightSchedule(beta), **options)


def learn(engine: OnlineNMF, batches, iters: int) -> list[tuple[int, float]]:
    """Step the engine on the next ``iters`` matrices of ``batches``.

    Returns ``(t, surrogate)`` after every step, t from 1.  Draws no matrix
    past the last step, so a stream that advances a chain as it yields stops
    where the last step's matrix was taken.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    return [(t, engine.step(X).surrogate)
            for t, X in enumerate(itertools.islice(batches, iters), start=1)]


# ---------------------------------------------------------------------------
# Plain-text serialization
# ---------------------------------------------------------------------------


def _write_matrix(fh, M: np.ndarray) -> None:
    fh.write(f"{M.shape[0]} {M.shape[1]}\n")
    for row in M:
        fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _line(lines, pos: int, expected: str) -> str:
    """Line ``pos + 1`` of a file, or a `ValueError` where the file ends."""
    if pos >= len(lines):
        raise ValueError(f"file ends at line {len(lines)}; expected {expected}")
    return lines[pos]


def _read_matrix(lines, pos: int):
    parts = _line(lines, pos, f"a matrix header at line {pos + 1}").split()
    if len(parts) != 2:
        raise ValueError(f"bad matrix header at line {pos + 1}")
    rows, cols = int(parts[0]), int(parts[1])
    M = np.empty((rows, cols))
    for i in range(rows):
        vals = _line(lines, pos + 1 + i, f"{rows} matrix rows after the header "
                     f"at line {pos + 1}").split()
        if len(vals) != cols:
            raise ValueError(f"bad matrix row at line {pos + 2 + i}")
        M[i] = [float(v) for v in vals]
    return M, pos + 1 + rows


def save_dictionary(path, W) -> None:
    """Write a matrix as 'd r' header plus d rows of shortest-repr values."""
    W = np.asarray(W, dtype=float)
    with open(path, "w") as fh:
        _write_matrix(fh, W)


def load_dictionary(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    M, _ = _read_matrix(lines, 0)
    return M


def save_aggregates(path, stats: AggregateStats, beta: float) -> None:
    """A then B in the matrix text format, plus a 't r_scalar kappa1 beta' trailer."""
    with open(path, "w") as fh:
        _write_matrix(fh, stats.A)
        _write_matrix(fh, stats.B)
        fh.write(f"{stats.t} {repr(float(stats.r_scalar))} "
                 f"{repr(float(stats.kappa1))} {repr(float(beta))}\n")


def load_aggregates(path) -> tuple[AggregateStats, float]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    A, pos = _read_matrix(lines, 0)
    B, pos = _read_matrix(lines, pos)
    trailer = _line(lines, pos, f"the 't r_scalar kappa1 beta' trailer at "
                    f"line {pos + 1}").split()
    if len(trailer) != 4:
        raise ValueError("bad aggregates trailer")
    t, r_scalar, kappa1, beta = (int(trailer[0]), float(trailer[1]),
                                 float(trailer[2]), float(trailer[3]))
    return AggregateStats(A=A, B=B, r_scalar=r_scalar, t=t, kappa1=kappa1), beta
