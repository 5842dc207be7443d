"""Streaming matrix factorization engine for dependent data.

Maintains a dictionary ``W`` (d x r) together with running sufficient
statistics ``(A, B, r_scalar)`` of previously computed codes.  Each arriving
minibatch ``X`` is sparse-coded against the current dictionary, the statistics
are folded in with a decaying weight ``w_t = t**-beta``, and the dictionary is
refit by block coordinate descent on the quadratic surrogate objective
``tr(W A W^T) - 2 tr(W B)`` over a union of compact convex pieces.  On
multi-piece (non-convex) constraint sets the refit is additionally restricted
to the trust ellipsoid ``tr((B^T - W A)(W_prev - W)^T) <= 0`` spanned between
the previous iterate and the unconstrained minimum, which guarantees
second-order growth of the quadratic objective per update.
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

_FEAS_TOL = 1e-12

# OnlineNMF.step calls the public sparse_code and dictionary_update, so that
# anything wrapping those names (a profiler, a counting test double) sees every
# solve, and reads what they did from the dict it places here: each records
# (iterations or sweeps, converged) under "code" or "dict".  None outside a step.
_SOLVER_COUNTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "onmf_solver_counts", default=None)


def _record_counts(key: str, count: int, converged: bool) -> None:
    counts = _SOLVER_COUNTS.get()
    if counts is not None:
        counts[key] = (count, converged)


class ZeroDictionaryError(ValueError):
    """Raised when sparse coding is attempted against an all-zero dictionary."""


# ---------------------------------------------------------------------------
# Constraint sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintPiece:
    """One compact convex piece: entrywise lower bound plus Frobenius ball.

    ``{W : W_ij >= lower, ||W||_F <= radius}``.  With ``lower <= 0`` the set is
    a cone intersected with a centered ball, for which clamp-then-rescale is
    the exact Euclidean projection; for ``lower > 0`` the projection alternates
    the two steps (POCS), which converges to a feasible point.
    """

    radius: float
    lower: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("piece radius must be positive and finite")
        if not math.isfinite(self.lower):
            raise ValueError("piece lower bound must be finite")

    def project(self, W: np.ndarray) -> np.ndarray:
        W = np.asarray(W, dtype=float)
        if self.lower > 0 and self.lower * math.sqrt(W.size) > self.radius:
            raise ValueError("empty constraint piece for this shape")
        return _clamp_and_rescale(W, self.lower, self.radius)

    def project_column(self, col: np.ndarray, rest_sq: float) -> np.ndarray | None:
        """Project one column given the squared norm of the other columns.

        Returns None when the column slice of the piece is empty (the radius
        budget left over is too small for the lower bound).
        """
        allowed = math.sqrt(max(self.radius ** 2 - rest_sq, 0.0))
        if self.lower > 0 and self.lower * math.sqrt(col.size) > allowed:
            return None
        if allowed == 0.0:
            return np.zeros(col.shape) if self.lower <= 0 else None
        return _clamp_and_rescale(col, self.lower, allowed)


def _clamp_and_rescale(V: np.ndarray, lower: float, bound: float) -> np.ndarray:
    """Alternate clamping at ``lower`` and rescaling into the ball of radius ``bound``.

    One round is the exact projection when ``lower <= 0``; otherwise the
    alternation converges to a feasible point.  Stops once the norm is within
    a relative 1e-12 of ``bound``, or after 200 rounds.
    """
    V = np.maximum(V, lower)
    for _ in range(200):
        nrm = float(np.linalg.norm(V))
        if nrm <= bound * (1.0 + 1e-12):
            return V
        V = np.maximum(V * (bound / nrm), lower)
    return V


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
    M = (1 - s kappa2) I - 2 s gram and c = s (2 wx - lam), both formed once.
    Stops when the Frobenius change between successive iterates falls below
    ``tol`` or after ``max_iter`` steps.  Returns (H, iterations, converged);
    converged is true only when the change test stopped the loop.
    """
    step = 1.0 / (2.0 * float(np.trace(gram)) + kappa2)
    M = (-2.0 * step) * gram
    M.flat[::M.shape[0] + 1] += 1.0 - step * kappa2
    c = step * (2.0 * wx - lam)
    H = np.zeros_like(wx)
    H_next = np.empty_like(H)
    for it in range(1, max_iter + 1):
        np.matmul(M, H, out=H_next)
        H_next += c
        np.maximum(H_next, 0.0, out=H_next)
        H -= H_next                      # H now holds minus the change
        delta = math.sqrt(np.vdot(H, H))
        H, H_next = H_next, H
        if delta < tol:
            return H, it, True
    return H, max_iter, False


def sparse_code(X, W, lam: float = 1.0, kappa2: float = 0.0,
                tol: float = 1e-6, max_iter: int = 200) -> np.ndarray:
    """Nonnegative code H minimizing ||X - WH||_F^2 + lam*||H||_1 + (kappa2/2)*||H||_F^2.

    Projected gradient descent from H = 0 with step
    s = 1/(2 tr(W^T W) + kappa2), run as the affine map H <- max(M H + c, 0)
    with M = (1 - s kappa2) I - 2 s W^T W and c = s (2 W^T X - lam); stopped
    when the Frobenius change between successive iterates falls below ``tol``
    or after ``max_iter`` steps.  The objective is non-increasing across
    iterations and the columns of X are solved independently.  A batch shares
    the Frobenius stopping rule: the whole change bounds each column's change,
    so a column coded in a batch is never stopped earlier than it would be if
    coded alone.  Inside
    ``OnlineNMF.step`` the iteration count and whether the change test fired
    are reported in the ``StepResult``.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    if X.ndim != 2 or W.ndim != 2 or X.shape[0] != W.shape[0]:
        raise ValueError("incompatible shapes for data and dictionary")
    if not (np.isfinite(X).all() and np.isfinite(W).all()):
        raise ValueError("non-finite input")
    if lam < 0 or kappa2 < 0:
        raise ValueError("penalties must be nonnegative")
    gram = W.T @ W
    if float(np.trace(gram)) <= 0.0:
        raise ZeroDictionaryError("zero dictionary")
    H, iters, converged = _pg_solve(gram, W.T @ X, lam, kappa2, tol, max_iter)
    _record_counts("code", iters, converged)
    return H


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


def _bisect_to_ellipsoid(Wt, j, cand, old, W_prev, stats):
    """Blend column j (row j of ``Wt``) between candidate and previous value
    until feasible.

    The matrix with the previous column is feasible by induction, so bisection
    along the segment (which stays inside the convex piece slice) terminates
    at a feasible point.
    """
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        Wt[j] = (1.0 - mid) * cand + mid * old
        if ellipsoid_gap(Wt.T, W_prev, stats) <= _FEAS_TOL:
            hi = mid
        else:
            lo = mid
    col = (1.0 - hi) * cand + hi * old
    Wt[j] = col
    return col


def _piece_descent(Wt, piece, Mt, B_scaled, cols, W0, stats, enforce, tol,
                   max_iter):
    """Damped block coordinate descent inside one piece on W transposed, in place.

    Row j of ``Wt`` is column j of W; its step is the affine map
    W m_j + b_j/(A_jj + 1), with m_j and b_j/(A_jj + 1) the rows j of ``Mt``
    and ``B_scaled``, clamped at the piece's lower bound.  The checking loop
    runs ``project_column`` only when the column's squared norm exceeds the
    radius budget the other columns leave, the one case where the ball can
    bind, and keeps the ellipsoid when ``enforce`` is on.

    Without the ellipsoid a sweep first runs check-free: three array calls
    per column, written straight into the row.  After it, the ball provably
    never bound if the sum over columns of the larger of the new and the old
    squared norm is below radius^2 (1 - 1e-9): every budget test of the
    checking loop compares a sum no larger than that one.  Then the sweep is
    exactly the checking loop's.  Otherwise the sweep is undone from its
    saved copy and rerun by the checking loop, which also runs every later
    sweep.  Returns (sweeps, converged).
    """
    lower, radius_sq = piece.lower, piece.radius ** 2
    proof_bound = radius_sq * (1.0 - 1e-9)
    m_rows, b_rows, w_rows = list(Mt), list(B_scaled), list(Wt)
    buf = np.empty(Wt.shape[1])
    change = np.empty_like(Wt)
    checked = enforce
    old_sq = np.einsum("ij,ij->i", Wt, Wt)
    col_sq = None
    for sweep in range(1, max_iter + 1):
        change[...] = Wt
        if not checked:
            for j in cols:
                np.dot(m_rows[j], Wt, out=buf)
                np.add(buf, b_rows[j], out=w_rows[j])
                np.maximum(w_rows[j], lower, out=w_rows[j])
            new_sq = np.einsum("ij,ij->i", Wt, Wt)
            if float(np.maximum(new_sq, old_sq).sum()) < proof_bound:
                old_sq = new_sq
            else:
                Wt[...] = change
                checked = True
        if checked:
            if col_sq is None:
                # the squared norms the checking loop keeps: each is the dot
                # of its row with itself
                col_sq = [float(row.dot(row)) for row in w_rows]
            for j in cols:
                np.dot(m_rows[j], Wt, out=buf)
                np.add(buf, b_rows[j], out=buf)
                np.maximum(buf, lower, out=buf)
                new_sq = float(buf.dot(buf))
                rest = sum(col_sq) - col_sq[j]
                new_col = buf
                if new_sq > radius_sq - rest:
                    new_col = piece.project_column(buf, rest)
                    if new_col is None:
                        continue
                    new_sq = float(new_col.dot(new_col))
                if enforce:
                    old = Wt[j].copy()
                    Wt[j] = new_col
                    if ellipsoid_gap(Wt.T, W0, stats) > _FEAS_TOL:
                        new_col = _bisect_to_ellipsoid(Wt, j, new_col, old, W0,
                                                       stats)
                        new_sq = float(new_col.dot(new_col))
                else:
                    Wt[j] = new_col
                col_sq[j] = new_sq
        change -= Wt
        if math.sqrt(np.vdot(change, change)) < tol:
            return sweep, True
    return max_iter, False


def _refit(W_prev: Dictionary, stats: AggregateStats, tol: float,
           max_iter: int) -> tuple[Dictionary, int, bool]:
    """``dictionary_update`` plus the sweeps and the converged flag of the
    descent in the piece it returns (0 and False when no piece is feasible)."""
    spec = W_prev.constraint
    A, B, kappa1 = stats.A, stats.B, stats.kappa1
    r = A.shape[0]
    A_ridge = A + kappa1 * np.eye(r) if kappa1 > 0 else A
    diag_ridge = np.diag(A_ridge)
    denom = diag_ridge + 1.0
    Mt = np.eye(r) - A_ridge.T / denom[:, None]
    B_scaled = B / denom[:, None]
    cols = [j for j in range(r) if diag_ridge[j] > 0.0]
    W0 = np.asarray(W_prev.W, dtype=float)
    enforce = len(spec.pieces) > 1

    best = None
    best_val = math.inf
    for idx, piece in enumerate(spec.pieces):
        start = W0 if idx == W_prev.active_piece else piece.project(W0)
        if enforce and ellipsoid_gap(start, W0, stats) > _FEAS_TOL:
            # fall back to the ellipsoid midpoint between the previous iterate
            # and the unconstrained minimum, projected into the piece
            target = (np.linalg.pinv(A, hermitian=True) @ B).T
            start = piece.project(0.5 * (W0 + target))
            if ellipsoid_gap(start, W0, stats) > _FEAS_TOL:
                continue
        Wt = start.T.copy()
        sweeps, converged = _piece_descent(Wt, piece, Mt, B_scaled, cols, W0,
                                           stats, enforce, tol, max_iter)
        W = np.ascontiguousarray(Wt.T)
        val = _quad_objective(W, A_ridge, B)
        if val < best_val:
            best, best_val = (Dictionary(W, spec, idx), sweeps, converged), val

    if best is None:
        logger.warning("dictionary update found no feasible piece; "
                       "keeping the previous dictionary")
        return Dictionary(W0.copy(), spec, W_prev.active_piece), 0, False
    return best


def dictionary_update(W_prev: Dictionary, stats: AggregateStats,
                      tol: float = 1e-6, max_iter: int = 100) -> Dictionary:
    """Refit the dictionary against the current statistics.

    Runs damped block coordinate descent on
    ``tr(W (A + kappa1 I) W^T) - 2 tr(W B)`` independently inside every
    constraint piece and returns the best per-piece solution (lowest piece
    index wins on ties).  Iterates are kept inside the trust ellipsoid
    exactly when the constraint set has more than one piece, the only case
    where the ellipsoid is not redundant.  A sweep updates every column j by
    the damped step W_j - (W a_j - b_j)/(A_jj + 1), computed as the affine
    map W m_j + b_j/(A_jj + 1) with m_j = e_j - a_j/(A_jj + 1) and then
    projected into the piece; sweeps stop when the Frobenius change of a
    sweep falls below ``tol`` or after ``max_iter`` sweeps.  Inside
    ``OnlineNMF.step`` the sweep count and whether the change test fired are
    reported in the ``StepResult``.

    Columns whose diagonal aggregate (plus ridge) is zero are never touched.
    If no piece yields a feasible iterate the previous dictionary is returned
    unchanged and a warning is logged.
    """
    new, sweeps, converged = _refit(W_prev, stats, tol, max_iter)
    _record_counts("dict", sweeps, converged)
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

    ``code_iters`` counts projected-gradient iterations of the coding and
    ``dict_sweeps`` block coordinate descent sweeps of the dictionary update
    (in the piece it kept).  Each converged flag is true only when that
    solver's change test stopped it, false when it ran to its cap.
    """

    code: np.ndarray
    surrogate: float
    coding_loss: float
    code_iters: int
    code_converged: bool
    dict_sweeps: int
    dict_converged: bool


@dataclass
class OnlineNMF:
    """Single-owner streaming factorization state.

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
        if not self.kappa1 >= 0:
            raise ValueError("kappa1 must be nonnegative")
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
        code_iters, code_converged = counts["code"]
        dict_sweeps, dict_converged = counts["dict"]
        return StepResult(code=H, surrogate=surrogate_loss(self.W, self.stats),
                          coding_loss=loss, code_iters=code_iters,
                          code_converged=code_converged,
                          dict_sweeps=dict_sweeps,
                          dict_converged=dict_converged)


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


def _read_matrix(lines, pos: int):
    parts = lines[pos].split()
    if len(parts) != 2:
        raise ValueError(f"bad matrix header at line {pos + 1}")
    rows, cols = int(parts[0]), int(parts[1])
    M = np.empty((rows, cols))
    for i in range(rows):
        vals = lines[pos + 1 + i].split()
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
    trailer = lines[pos].split()
    if len(trailer) != 4:
        raise ValueError("bad aggregates trailer")
    t, r_scalar, kappa1, beta = (int(trailer[0]), float(trailer[1]),
                                 float(trailer[2]), float(trailer[3]))
    return AggregateStats(A=A, B=B, r_scalar=r_scalar, t=t, kappa1=kappa1), beta
