import functools
import logging
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from onmf import factorization
from onmf import (AggregateStats, ConstraintPiece, ConstraintSpec, Dictionary,
                  OnlineNMF, WeightSchedule, ZeroDictionaryError,
                  coding_objective, dictionary_update, ellipsoid_gap,
                  empirical_loss, empirical_weights, growth_check,
                  init_dictionary, init_engine, kkt_residual, learn,
                  load_aggregates, load_dictionary, save_aggregates,
                  save_dictionary, sparse_code, surrogate_loss,
                  update_aggregates)


# ---------------------------------------------------------------------------
# sparse_code
# ---------------------------------------------------------------------------


def test_identity_dictionary_recovers_data():
    X = np.array([[1.0, 0.0], [0.0, 2.0]])
    H = sparse_code(X, np.eye(2), lam=0.0, tol=1e-12, max_iter=5000)
    assert np.allclose(H, X, atol=1e-9)
    assert coding_objective(X, np.eye(2), H, 0.0) < 1e-16


def test_large_lambda_kills_all_coordinates():
    rng = np.random.default_rng(0)
    X = rng.random((4, 3))
    W = rng.random((4, 2))
    lam = 2.0 * float(np.max(W.T @ X)) + 1e-9
    H = sparse_code(X, W, lam=lam, tol=1e-12, max_iter=1000)
    assert np.all(H == 0.0)
    # KKT at H = 0: the smooth gradient is dominated by the penalty
    assert np.all(-2.0 * (W.T @ X) + lam >= 0.0)


def test_objective_matches_long_run_oracle():
    # frozen value of an independent fixed-step (1e-4) projected-gradient
    # descent run to 3e6 iterations on this exact seeded instance
    oracle = 1.4408377810139197
    rng = np.random.default_rng(1)
    X = rng.random((4, 3))
    W = rng.random((4, 2))
    ours = coding_objective(X, W, sparse_code(X, W, lam=0.1, tol=1e-12,
                                              max_iter=20000), 0.1)
    assert abs(ours - oracle) < 1e-4


def test_objective_nonincreasing_across_iterations():
    rng = np.random.default_rng(2)
    X = rng.random((5, 4))
    W = rng.random((5, 3))
    prev = coding_objective(X, W, np.zeros((3, 4)), 0.3, kappa2=0.2)
    for t in range(1, 51):
        H = sparse_code(X, W, lam=0.3, kappa2=0.2, tol=0.0, max_iter=t)
        cur = coding_objective(X, W, H, 0.3, kappa2=0.2)
        assert cur <= prev + 1e-12
        prev = cur


def test_code_norm_respects_penalty_bound():
    # lam*||H||_1 never exceeds the objective at H = 0, so ||H||_F <= R^2/lam
    rng = np.random.default_rng(21)
    for _ in range(20):
        X = rng.random((5, 3))
        W = rng.random((5, 4))
        lam = float(rng.uniform(0.2, 2.0))
        H = sparse_code(X, W, lam=lam, tol=1e-9, max_iter=5000)
        assert np.linalg.norm(H) <= np.sum(X * X) / lam + 1e-9


def test_kkt_residual_below_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.random((4, 2))
        W = rng.random((4, 3))
        lam = float(rng.choice([0.0, 0.1, 1.0]))
        H = sparse_code(X, W, lam=lam, tol=1e-9, max_iter=20000)
        assert kkt_residual(X, W, H, lam) <= 1e-9


def test_zero_dictionary_and_nonfinite_errors():
    X = np.ones((2, 2))
    with pytest.raises(ZeroDictionaryError, match="zero dictionary"):
        sparse_code(X, np.zeros((2, 2)), lam=0.0)
    with pytest.raises(ValueError, match="non-finite"):
        sparse_code(np.array([[np.nan, 0.0]]).T @ np.ones((1, 2)), np.eye(2))
    with pytest.raises(ValueError):
        sparse_code(X, np.ones((3, 2)))


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name, label", [("lam", "lambda"),
                                         ("kappa2", "kappa2")])
def test_coding_refuses_a_penalty_not_finite_and_nonnegative(name, label,
                                                             value):
    # NaN passes a test of value < 0 and would code every column as NaN;
    # the engine's ridge kappa1 has its own test below
    message = f"{label} must be finite and nonnegative"
    with pytest.raises(ValueError, match=message):
        sparse_code(np.ones((2, 2)), np.eye(2), **{name: value})
    with pytest.raises(ValueError, match=message):
        init_engine(4, 2, 10.0, np.random.default_rng(0), **{name: value})


# ---------------------------------------------------------------------------
# aggregates and surrogate
# ---------------------------------------------------------------------------


def test_first_step_overwrites_aggregates():
    rng = np.random.default_rng(4)
    stats = AggregateStats.zeros(2, 3)
    H = rng.random((2, 4))
    X = rng.random((3, 4))
    out = update_aggregates(stats, H, X, WeightSchedule(1.0), lam=0.5)
    assert np.allclose(out.A, H @ H.T)
    assert np.allclose(out.B, H @ X.T)
    assert out.t == 1


def test_zero_code_is_pure_decay():
    rng = np.random.default_rng(5)
    A = rng.random((2, 2))
    A = A @ A.T
    B = rng.random((2, 3))
    stats = AggregateStats(A=A, B=B, r_scalar=1.0, t=3)
    out = update_aggregates(stats, np.zeros((2, 4)), np.zeros((3, 4)),
                            WeightSchedule(0.8), lam=0.5)
    w = 4.0 ** -0.8
    assert np.allclose(out.A, (1 - w) * A)
    assert np.allclose(out.B, (1 - w) * B)


@pytest.mark.parametrize("kappa1",
                         [-5.0, -1e-12, float("nan"), float("inf")])
def test_statistics_refuse_a_negative_ridge(kappa1):
    with pytest.raises(ValueError,
                       match="kappa1 must be finite and nonnegative"):
        init_engine(4, 2, 10.0, np.random.default_rng(0), kappa1=kappa1)
    engine = init_engine(4, 2, 10.0, np.random.default_rng(0), kappa1=0.0)
    assert engine.stats.kappa1 == 0.0


def test_balanced_weights_constant_stream_is_exact_average():
    rng = np.random.default_rng(6)
    H = rng.random((2, 3))
    X = rng.random((4, 3))
    stats = AggregateStats.zeros(2, 4)
    for _ in range(17):
        stats = update_aggregates(stats, H, X, WeightSchedule(1.0))
    assert np.allclose(stats.A, H @ H.T, atol=1e-12)
    assert np.allclose(stats.B, H @ X.T, atol=1e-12)


def test_surrogate_special_cases():
    rng = np.random.default_rng(7)
    stats = AggregateStats(A=np.eye(2), B=np.zeros((2, 3)), r_scalar=0.7, t=1)
    W = rng.random((3, 2))
    assert surrogate_loss(np.zeros((3, 2)), stats) == pytest.approx(0.7)
    stats0 = AggregateStats(A=np.eye(2), B=np.zeros((2, 3)), r_scalar=0.0, t=1)
    assert surrogate_loss(W, stats0) == pytest.approx(np.sum(W * W))


def test_first_step_surrogate_equals_plugin_objective():
    rng = np.random.default_rng(8)
    X = rng.random((3, 2))
    W = rng.random((3, 2))
    H = sparse_code(X, W, lam=0.4, tol=1e-10, max_iter=5000)
    stats = update_aggregates(AggregateStats.zeros(2, 3), H, X,
                              WeightSchedule(1.0), lam=0.4)
    assert surrogate_loss(W, stats) == pytest.approx(
        coding_objective(X, W, H, 0.4), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(min_value=1, max_value=60),
       beta=st.floats(min_value=0.7500001, max_value=1.0, exclude_min=True))
def test_empirical_weights_sum_to_one(t, beta):
    w = empirical_weights(t, WeightSchedule(beta))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)


def test_empirical_loss_single_and_constant_history():
    rng = np.random.default_rng(9)
    X = rng.random((3, 2))
    W = rng.random((3, 2))
    sched = WeightSchedule(1.0)
    H = sparse_code(X, W, lam=0.2, tol=1e-11, max_iter=20000)
    single = empirical_loss(W, [X], sched, lam=0.2)
    assert single == pytest.approx(coding_objective(X, W, H, 0.2), abs=1e-8)
    repeated = empirical_loss(W, [X] * 7, sched, lam=0.2)
    assert repeated == pytest.approx(single, abs=1e-8)


# ---------------------------------------------------------------------------
# dictionary update
# ---------------------------------------------------------------------------


def test_scalar_boundary_clamp():
    spec = ConstraintSpec.nonnegative(2.0)
    prev = Dictionary(np.array([[0.0]]), spec)
    stats = AggregateStats(A=np.array([[1.0]]), B=np.array([[3.0]]),
                           r_scalar=0.0, t=1)
    new = dictionary_update(prev, stats, tol=1e-12, max_iter=300)
    assert new.W[0, 0] == pytest.approx(2.0, abs=1e-9)
    # hand-computed growth margin: g(0) - g(2) - (0-2)*1*(0-2) = 8 - 4
    assert growth_check(prev.W, new.W, stats) == pytest.approx(4.0, abs=1e-8)


def test_interior_minimum_is_reached():
    rng = np.random.default_rng(10)
    Wstar = rng.random((4, 3)) * 0.3 + 0.1
    spec = ConstraintSpec.nonnegative(10.0)
    prev = init_dictionary(4, 3, spec, rng)
    stats = AggregateStats(A=np.eye(3), B=Wstar.T.copy(), r_scalar=0.0, t=1)
    new = dictionary_update(prev, stats, tol=1e-14, max_iter=400)
    assert np.abs(new.W - Wstar).max() < 1e-10


def test_single_piece_matches_plain_block_descent():
    rng = np.random.default_rng(11)
    d, r = 4, 3
    M = rng.random((r, r + 1))
    A = M @ M.T
    B = rng.random((r, d))
    spec = ConstraintSpec.nonnegative(5.0)
    W0 = spec.pieces[0].project(rng.random((d, r)))
    prev = Dictionary(W0.copy(), spec)
    stats = AggregateStats(A=A, B=B, r_scalar=0.0, t=1)
    got = dictionary_update(prev, stats, tol=1e-10, max_iter=150)

    # independent plain block coordinate descent (damped column steps) to
    # the same minimum
    W = W0.copy()
    for _ in range(150):
        before = W.copy()
        for j in range(r):
            cand = W[:, j] - (W @ A[:, j] - B[j, :]) / (A[j, j] + 1.0)
            cand = np.maximum(cand, 0.0)
            rest = np.sum(W ** 2) - np.sum(W[:, j] ** 2)
            allowed = np.sqrt(max(25.0 - rest, 0.0))
            nrm = np.linalg.norm(cand)
            if nrm > allowed:
                cand *= allowed / nrm
            W[:, j] = cand
        if np.linalg.norm(W - before) < 1e-10:
            break
    assert np.allclose(got.W, W, atol=1e-12)


def test_objective_nonincreasing_and_feasible():
    rng = np.random.default_rng(12)
    for _ in range(40):
        d, r = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        M = rng.random((r, r + 1))
        A = M @ M.T + 0.01 * np.eye(r)
        B = rng.standard_normal((r, d))
        spec = ConstraintSpec.nonnegative(2.0)
        W0 = spec.pieces[0].project(rng.random((d, r)))
        prev = Dictionary(W0, spec)
        stats = AggregateStats(A=A, B=B, r_scalar=0.0, t=2)
        new = dictionary_update(prev, stats, tol=1e-10, max_iter=100)

        def g(W):
            return float(np.sum((W @ A) * W) - 2.0 * np.sum(W * B.T))

        assert g(new.W) <= g(W0) + 1e-10
        assert ellipsoid_gap(new.W, prev.W, stats) <= 1e-8


def test_multi_piece_switching_and_tie_break():
    # the second piece holds the global minimum; the update should find it
    spec = ConstraintSpec(pieces=(ConstraintPiece(radius=0.5, lower=0.0),
                                  ConstraintPiece(radius=6.0, lower=1.0)))
    prev = Dictionary(np.full((2, 1), 0.3), spec, active_piece=0)
    stats = AggregateStats(A=np.array([[1.0]]), B=np.array([[2.0, 2.0]]),
                           r_scalar=0.0, t=1)
    new = dictionary_update(prev, stats, tol=1e-12, max_iter=200)
    assert new.active_piece == 1
    assert np.allclose(new.W, 2.0, atol=1e-8)


def test_growth_margins_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(100):
        d, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        M = rng.random((r, r + 2))
        A = M @ M.T + 0.05 * np.eye(r)
        B = rng.standard_normal((r, d))
        spec = ConstraintSpec.nonnegative(1.5)
        prev = Dictionary(spec.pieces[0].project(rng.random((d, r))), spec)
        stats = AggregateStats(A=A, B=B, r_scalar=0.0, t=1)
        new = dictionary_update(prev, stats, tol=1e-10, max_iter=80)
        assert growth_check(prev.W, new.W, stats) >= -1e-8
    # degenerate case: identical dictionaries
    assert growth_check(prev.W, prev.W, stats) == 0.0


def test_unused_atom_column_is_left_alone():
    # zero diagonal aggregate row: the atom was never used, so it stays put
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    B = np.array([[0.5, 0.5], [0.0, 0.0]])
    spec = ConstraintSpec.nonnegative(5.0)
    W0 = np.array([[0.2, 0.7], [0.2, 0.7]])
    prev = Dictionary(W0.copy(), spec)
    stats = AggregateStats(A=A, B=B, r_scalar=0.0, t=1)
    new = dictionary_update(prev, stats, tol=1e-12, max_iter=100)
    assert np.allclose(new.W[:, 1], W0[:, 1])


# ---------------------------------------------------------------------------
# fused solver loops against the step-by-step references
# ---------------------------------------------------------------------------


def _reference_pg_solve(gram, wx, lam, kappa2, tol, max_iter):
    """Projected gradient from zero written out per step, with the gradient
    formed anew each iteration, stopped when the largest change of one
    column falls below tol; returns (H, iterations, converged)."""
    step = 1.0 / (2.0 * float(np.trace(gram)) + kappa2)
    H = np.zeros_like(wx)
    for it in range(1, max_iter + 1):
        grad = 2.0 * (gram @ H - wx) + lam
        if kappa2 > 0:
            grad += kappa2 * H
        H_next = np.maximum(H - step * grad, 0.0)
        delta = float(np.linalg.norm(H_next - H, axis=0).max())
        H = H_next
        if delta < tol:
            return H, it, True
    return H, max_iter, False


def _reference_lipschitz(A):
    """The largest eigenvalue of A, or 1 for a zero matrix."""
    return float(np.linalg.eigvalsh(A)[-1]) or 1.0


def _reference_ellipsoid_step(start, W, W0, stats):
    """The largest feasible s on the segment from ``start`` to ``W`` by a
    60-step bisection."""
    if ellipsoid_gap(W, W0, stats) <= 1e-12:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ellipsoid_gap(start + mid * (W - start), W0, stats) <= 1e-12:
            lo = mid
        else:
            hi = mid
    return lo


def _reference_descent(start, piece, A_ridge, B, L, tol, max_iter):
    """FISTA with gradient restart written out per step, with the gradient
    formed anew each iteration, clamped at the scalar ``piece.lower`` and
    projected only when it leaves the ball; returns (W, iterations,
    converged, steps on which the ball bound)."""
    W, Y, t, bound = start.copy(), start.copy(), 1.0, 0
    for it in range(1, max_iter + 1):
        grad = 2.0 * (Y @ A_ridge - B.T)
        W_next = np.maximum(Y - grad / (2.0 * L), piece.lower)
        if np.linalg.norm(W_next) > piece.radius:
            W_next = piece.project(W_next)
            bound += 1
        step = W_next - W
        restart = float(np.sum((Y - W_next) * step)) > 0.0
        W = W_next
        if float(np.linalg.norm(step)) < tol:
            return W, it, True, bound
        if restart:
            Y, t = W.copy(), 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            Y = W + (t - 1.0) / t_next * step
            t = t_next
    return W, max_iter, False, bound


def _reference_dictionary_update(W_prev, stats, tol, max_iter):
    """``_reference_descent`` in each piece, then the bisection back into
    the ellipsoid and the guard that keeps the start; returns (W, kept
    piece, iterations in the kept piece)."""
    spec = W_prev.constraint
    A, B, kappa1 = stats.A, stats.B, stats.kappa1
    r = A.shape[0]
    A_ridge = A + kappa1 * np.eye(r) if kappa1 > 0 else A
    L = _reference_lipschitz(A_ridge)
    W0 = np.asarray(W_prev.W, dtype=float)
    enforce = len(spec.pieces) > 1

    def g(W):
        return float(np.sum((W @ A_ridge) * W) - 2.0 * np.sum(W * B.T))

    best, best_val = None, np.inf
    for idx, piece in enumerate(spec.pieces):
        start = piece.project(W0)
        if enforce and ellipsoid_gap(start, W0, stats) > 1e-12:
            target = (np.linalg.pinv(A, hermitian=True) @ B).T
            start = piece.project(0.5 * (W0 + target))
            if ellipsoid_gap(start, W0, stats) > 1e-12:
                continue
        W, iters, _, _ = _reference_descent(start, piece, A_ridge, B, L, tol,
                                            max_iter)
        if enforce:
            W = start + _reference_ellipsoid_step(start, W, W0, stats) * (W - start)
        if g(W) > g(start):
            W = start.copy()
        if g(W) < best_val:
            best, best_val = (W, idx, iters), g(W)
    return best


def _rel_diff(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


CODING_CASES = {
    "elastic-net": dict(n=6, lam=0.3, kappa2=0.4, max_iter=300),
    "no-l1": dict(n=6, lam=0.0, max_iter=300),
    "one-column": dict(n=1, lam=0.2, max_iter=300),
    "one-iteration": dict(n=6, lam=0.2, max_iter=1),
}


@pytest.mark.parametrize("name", sorted(CODING_CASES))
def test_affine_projected_gradient_matches_reference(name):
    case = CODING_CASES[name]
    rng = np.random.default_rng(31)
    X = rng.random((9, case["n"]))
    W = rng.random((9, 4))
    lam, kappa2, max_iter = case["lam"], case.get("kappa2", 0.0), case["max_iter"]
    want, ref_iters, ref_conv = _reference_pg_solve(W.T @ W, W.T @ X, lam, kappa2,
                                                    0.0, max_iter)
    got = sparse_code(X, W, lam=lam, kappa2=kappa2, tol=0.0, max_iter=max_iter)
    assert _rel_diff(got, want) <= 1e-12
    _, iters, converged = factorization._pg_solve(W.T @ W, W.T @ X, lam, kappa2,
                                                  0.0, max_iter)
    assert (iters, converged) == (ref_iters, ref_conv) == (max_iter, False)


def test_affine_projected_gradient_stops_where_reference_stops():
    # The reference tests every step; the solve stops at the end of the
    # window in which the reference stopped, with the reference's code there.
    rng = np.random.default_rng(32)
    X = rng.random((9, 5))
    W = rng.random((9, 4))
    gram, wx = W.T @ W, W.T @ X
    ref_iters, ref_conv = _reference_pg_solve(gram, wx, 0.2, 0.0, 1e-8,
                                              100000)[1:]
    got = factorization._pg_solve(gram, wx, 0.2, 0.0, 1e-8, 100000)
    _assert_same_solve(got, _window_end_pg_solve(gram, wx, 0.2, 0.0, 1e-8,
                                                 100000))
    assert ref_conv and got[2]
    assert ref_iters % TEST_EVERY != 0
    assert got[1] == -(-ref_iters // TEST_EVERY) * TEST_EVERY < 100000
    want = _reference_pg_solve(gram, wx, 0.2, 0.0, 0.0, got[1])[0]
    assert _rel_diff(got[0], want) <= 1e-12


def _column_change(D):
    """The largest Euclidean norm of a column of D, summed as the solver
    sums it (so a tol one ulp above it stops both)."""
    return math.sqrt(np.einsum("ij,ij->j", D, D).max())


def _per_step_pg_solve(gram, wx, lam, kappa2, tol, max_iter, every=1):
    """The fused affine loop, one step at a time, that tests the stopping
    rule, the largest change of one column below tol, after every
    ``every``-th step and after step ``max_iter``; returns (H, iterations,
    converged)."""
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
        H -= H_next
        delta = _column_change(H)
        H, H_next = H_next, H
        if (it % every == 0 or it == max_iter) and delta < tol:
            return H, it, True
    return H, max_iter, False


TEST_EVERY = factorization._TEST_EVERY
# the rule _pg_solve keeps: tested at each window's end and at max_iter
_window_end_pg_solve = functools.partial(_per_step_pg_solve, every=TEST_EVERY)


def _change_of_step(gram, wx, lam, k):
    """Largest column change of step k of the per-step loop, computed as it
    is."""
    before = _per_step_pg_solve(gram, wx, lam, 0.0, 0.0, k - 1)[0] if k > 1 \
        else np.zeros_like(wx)
    before -= _per_step_pg_solve(gram, wx, lam, 0.0, 0.0, k)[0]
    return _column_change(before)


def _assert_same_solve(got, want):
    # bytes, not array_equal, which takes -0.0 for 0.0
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 8), r=st.integers(1, 8), n=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([(1.0, 1.0), (0.01, 100.0)]),
       lam=st.sampled_from([0.0, 0.1, 1.0]), kappa2=st.sampled_from([0.0, 0.2]),
       tol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6]),
       max_iter=st.integers(1, 3 * TEST_EVERY + 1)
       | st.sampled_from([200, 1000, 5000]))
def test_windowed_stop_test_matches_testing_every_step(d, r, n, seed, scale,
                                                       lam, kappa2, tol,
                                                       max_iter):
    # The window-end loop stops only on a passing step, so never before the
    # loop that tests every step, and converges only if that loop does.
    rng = np.random.default_rng(seed)
    W = scale[0] * rng.random((d, r))
    X = scale[1] * rng.random((d, n))
    gram, wx = W.T @ W, W.T @ X
    got = factorization._pg_solve(gram, W.T @ X, lam, kappa2, tol, max_iter)
    _assert_same_solve(got, _window_end_pg_solve(gram, wx, lam, kappa2, tol,
                                                 max_iter))
    every_step = _per_step_pg_solve(gram, wx, lam, kappa2, tol, max_iter)
    assert got[1] >= every_step[1] and got[2] <= every_step[2]


@pytest.mark.parametrize("residue", range(TEST_EVERY))
def test_windowed_stop_test_stops_at_every_step_of_a_window(residue):
    # tol just above the change of step `stop` stops the per-step loop there,
    # at each position in a window; the solve runs on to that window's end,
    # or to a cap that comes first, under caps on and off the window grid
    rng = np.random.default_rng(33)
    W = rng.random((6, 3))
    X = rng.random((6, 4))
    gram, wx = W.T @ W, W.T @ X
    changes = [_change_of_step(gram, wx, 0.1, k)
               for k in range(1, 5 * TEST_EVERY)]
    assert all(b < a for a, b in zip(changes, changes[1:]))
    stop = 2 * TEST_EVERY + residue + 1
    tol = np.nextafter(changes[stop - 1], np.inf)
    for max_iter in (stop, stop + 1, 3 * TEST_EVERY, 4 * TEST_EVERY + 3, 10000):
        every_step = _per_step_pg_solve(gram, wx, 0.1, 0.0, tol, max_iter)
        assert every_step[1:3] == (min(stop, max_iter), stop <= max_iter)
        want = _window_end_pg_solve(gram, wx, 0.1, 0.0, tol, max_iter)
        assert want[1:3] == (min(3 * TEST_EVERY, max_iter), True)
        _assert_same_solve(
            factorization._pg_solve(gram, wx.copy(), 0.1, 0.0, tol, max_iter),
            want)


def test_columns_are_summed_only_where_a_window_end_can_stop(monkeypatch):
    # One vdot per window end: the column statistic is summed only where the
    # sum of squares allows every column below tol, and for the report.
    calls = []

    def counted(D):
        calls.append(D.shape)
        return real(D)

    real = factorization._largest_column_change
    monkeypatch.setattr(factorization, "_largest_column_change", counted)
    rng = np.random.default_rng(53)
    W = rng.random((6, 3))
    X = rng.random((6, 4))
    gram, wx = W.T @ W, W.T @ X
    for tol, max_iter, want in [(0.0, 5 * TEST_EVERY, (5 * TEST_EVERY, False)),
                                (1e3, 5 * TEST_EVERY, (TEST_EVERY, True))]:
        calls.clear()
        got = factorization._pg_solve(gram, wx.copy(), 0.1, 0.0, tol, max_iter)
        assert got[1:] == want and calls == [(3, 4)]


def test_windowed_stop_test_allows_for_rounding_rises():
    # Large codes: near tol = 1e-12 rounding makes the change rise inside a
    # window, from below tol at step 271 back above it by the window's end,
    # so the solve runs past that window.
    rng = np.random.default_rng(46)
    W = 0.01 * rng.random((3, 3))
    X = 100.0 * rng.random((3, 3))
    gram, wx = W.T @ W, W.T @ X
    assert _per_step_pg_solve(gram, wx, 1.0, 0.0, 1e-12, 5000)[1:] == (271,
                                                                      True)
    window_end = -(-271 // TEST_EVERY) * TEST_EVERY
    assert _change_of_step(gram, wx, 1.0, window_end) >= 1e-12
    want = _window_end_pg_solve(gram, wx, 1.0, 0.0, 1e-12, 5000)
    assert want[2] and want[1] > window_end
    _assert_same_solve(
        factorization._pg_solve(gram, wx.copy(), 1.0, 0.0, 1e-12, 5000), want)


# ---------------------------------------------------------------------------
# repeated columns: each distinct column is coded once
# ---------------------------------------------------------------------------


def _coded(X, W, **options):
    """``sparse_code`` with what it records: (H, iterations, converged,
    columns coded)."""
    counts = {}
    token = factorization._SOLVER_COUNTS.set(counts)
    try:
        H = sparse_code(X, W, **options)
    finally:
        factorization._SOLVER_COUNTS.reset(token)
    iters, converged, _, columns = counts["code"]
    return H, iters, converged, columns


def _assert_codes_as_full_width(X, W, lam, kappa2, tol, max_iter):
    """sparse_code on X against the window-end loop over every column of X."""
    want, iters, converged = _window_end_pg_solve(W.T @ W, W.T @ X, lam,
                                                  kappa2, tol, max_iter)
    got = _coded(X, W, lam=lam, kappa2=kappa2, tol=tol, max_iter=max_iter)
    assert got[1:3] == (iters, converged)
    assert np.abs(got[0] - want).max() <= 1e-12
    return got


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 8), r=st.integers(1, 6), distinct=st.integers(1, 5),
       extra=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       values=st.sampled_from(["binary", "eighths", "random"]),
       lam=st.sampled_from([0.0, 0.1, 1.0]), kappa2=st.sampled_from([0.0, 0.2]),
       tol=st.sampled_from([0.0, 1e-8, 1e-6, 1e-4]),
       max_iter=st.sampled_from([1, 7, 60, 5000]))
def test_repeated_columns_code_as_the_full_batch(d, r, distinct, extra, seed,
                                                 values, lam, kappa2, tol,
                                                 max_iter):
    rng = np.random.default_rng(seed)
    W = rng.random((d, r))
    base = rng.random((d, distinct))
    if values == "binary":               # 0/1 columns, as network patches
        base = (base < 0.5).astype(float)
    elif values == "eighths":
        base = np.floor(8.0 * base) / 8.0
    X = base[:, rng.integers(distinct, size=distinct + extra)]
    H, _, _, columns = _assert_codes_as_full_width(X, W, lam, kappa2, tol,
                                                   max_iter)
    if values != "random":   # exact fingerprints: every repeat is merged
        assert columns == len({col.tobytes() for col in X.T})
    perm = rng.permutation(X.shape[1])
    H_perm = _assert_codes_as_full_width(X[:, perm], W, lam, kappa2, tol,
                                         max_iter)[0]
    assert np.abs(H_perm - H[:, perm]).max() <= 1e-12


@pytest.mark.parametrize("tol, max_iter, converged",
                         [(1e-7, 100000, True), (1e-7, 40, False)])
def test_repeated_columns_stop_where_the_full_batch_stops(tol, max_iter,
                                                          converged):
    rng = np.random.default_rng(47)
    W = rng.random((9, 4))
    X = np.floor(8.0 * rng.random((9, 5)))[:, [0, 1, 0, 2, 3, 1, 0, 4, 4, 0]]
    H, iters, flag, columns = _assert_codes_as_full_width(X, W, 0.2, 0.0, tol,
                                                          max_iter)
    assert flag == converged and columns == 5
    assert (iters < max_iter) == converged
    assert H[:, 0].tobytes() == H[:, 2].tobytes() == H[:, 9].tobytes()


def test_repeats_do_not_weigh_in_the_stop_rule():
    # 40 copies of one column and one other stop at the step where the two
    # distinct columns alone stop, with _pg_solve's codes for those two.
    rng = np.random.default_rng(48)
    W = rng.random((6, 3))
    pair = rng.random((6, 2))
    X = pair[:, [0] * 40 + [1]]
    gram = W.T @ W
    stop = 30                            # the pair's first passing step
    tol = np.nextafter(_change_of_step(gram, W.T @ pair, 0.1, stop), np.inf)
    assert _per_step_pg_solve(gram, W.T @ pair, 0.1, 0.0, tol,
                              10000)[1:] == (stop, True)
    window_end = -(-stop // TEST_EVERY) * TEST_EVERY
    alone = factorization._pg_solve(gram, W.T @ pair, 0.1, 0.0, tol, 10000)
    _assert_same_solve(alone, _window_end_pg_solve(gram, W.T @ pair, 0.1,
                                                   0.0, tol, 10000))
    assert alone[1:] == (window_end, True)
    H, iters, converged, columns = _assert_codes_as_full_width(
        X, W, 0.1, 0.0, tol, 10000)
    assert (iters, converged, columns) == (window_end, True, 2)
    assert H.tobytes() == alone[0][:, [0] * 40 + [1]].tobytes()


def test_a_patch_gets_one_code_in_batches_of_any_multiplicity():
    # One 0/1 patch, 9 times in a batch of 8 distinct columns and 4 times in
    # one of 16: both batches run to the cap and code it to the same bytes.
    # The widths are multiples of 8, so no column lands in a BLAS remainder
    # tile.
    rng = np.random.default_rng(52)
    W = rng.random((9, 4))
    patches = np.unique((rng.random((40, 9)) < 0.5).astype(float), axis=0).T
    patch, small, large = patches[:, :1], patches[:, 1:8], patches[:, 8:23]
    batches = [np.hstack([patch] * 9 + [small]),
               np.hstack([patch] * 4 + [large])]
    codes = []
    for X, width in zip(batches, (8, 16)):
        H, iters, converged, columns = _coded(X, W, lam=0.2, tol=0.0,
                                              max_iter=60)
        assert (iters, converged, columns) == (60, False, width)
        codes.append(H[:, 0])
    assert codes[0].tobytes() == codes[1].tobytes()


def test_signed_zeros_are_different_columns():
    # Columns equal as values but not as bytes share a fingerprint but are
    # coded apart; the copies of each are merged.
    W = np.random.default_rng(49).random((4, 3))
    col = np.array([1.0, 0.0, 0.5, 0.0])
    neg = col.copy()
    neg[1] = -0.0
    X = np.stack([col, col, neg, neg, neg], axis=1)
    H, _, _, columns = _assert_codes_as_full_width(X, W, 0.1, 0.0, 1e-9, 5000)
    assert columns == 2
    dictionary = Dictionary(W, ConstraintSpec.nonnegative(10.0))
    assert OnlineNMF(dictionary, lam=0.1).step(X).code_columns == 2


def test_a_shared_fingerprint_never_merges_different_columns(monkeypatch):
    # With every fingerprint equal, only bytes decide: equal neighbours in
    # the (stable) order merge, and nothing else does.
    monkeypatch.setattr(factorization, "_fingerprint", lambda d: np.zeros(d))
    rng = np.random.default_rng(50)
    W = rng.random((5, 3))
    base = rng.random((5, 3))
    X = base[:, [0, 0, 1, 2, 2, 2, 0]]
    H, _, _, columns = _assert_codes_as_full_width(X, W, 0.2, 0.0, 1e-8, 5000)
    assert columns == 4                  # the last copy of 0 is not merged
    assert np.abs(H[:, 0] - H[:, 6]).max() <= 1e-12


@pytest.mark.parametrize("repeats", [0, 1])
def test_batches_with_few_repeats_take_one_full_width_solve(repeats):
    # Below one repeat in _REPEATS_WORTH columns no column is merged.
    rng = np.random.default_rng(51)
    W = rng.random((6, 3))
    n = 2 * factorization._REPEATS_WORTH
    X = np.floor(8.0 * rng.random((6, n)))
    X[:, :repeats] = X[:, n - repeats:]
    H, iters, converged, columns = _coded(X, W, lam=0.2, tol=1e-8,
                                          max_iter=5000)
    assert columns == n
    _assert_same_solve((H, iters, converged), _window_end_pg_solve(
        W.T @ W, W.T @ X, 0.2, 0.0, 1e-8, 5000))


def _dict_case(rng, d, r, spec, kappa1=0.0, b_scale=1.0, zero_col=None):
    M = rng.random((r, r + 2))
    A = M @ M.T
    B = rng.random((r, d)) * b_scale
    if zero_col is not None:
        A[zero_col, :] = A[:, zero_col] = 0.0
        B[zero_col, :] = 0.0
    W0 = spec.pieces[0].project(rng.random((d, r)) * 0.1)
    return Dictionary(W0, spec), AggregateStats(A=A, B=B, r_scalar=0.0, t=3,
                                                kappa1=kappa1)


DICT_CASES = {
    "ridge": dict(spec=ConstraintSpec.nonnegative(10.0), kappa1=0.3),
    "zero-diagonal": dict(spec=ConstraintSpec.nonnegative(10.0), zero_col=2),
    "tight-radius": dict(spec=ConstraintSpec.nonnegative(0.6), b_scale=4.0),
    "lower-bound": dict(
        spec=ConstraintSpec(pieces=(ConstraintPiece(radius=3.0, lower=0.05),)),
        b_scale=2.0),
    "two-pieces-ellipsoid": dict(
        spec=ConstraintSpec(pieces=(ConstraintPiece(radius=0.8),
                                    ConstraintPiece(radius=6.0, lower=0.2))),
        b_scale=3.0),
}


# The cases whose single piece has lower bound 0 and a ball that does not
# bind; dictionary_update solves them exactly, the others by the descent.
EXACT_CASES = ("ridge", "zero-diagonal")


@pytest.mark.parametrize("name", sorted(DICT_CASES))
def test_fused_dictionary_update_matches_reference(name):
    prev, stats = _dict_case(np.random.default_rng(33), 6, 4, **DICT_CASES[name])
    want, want_piece, ref_iters = _reference_dictionary_update(
        prev, stats, 0.0, 40)
    new, iters, converged = factorization._descent_refit(prev, stats, 0.0, 40)
    assert new.active_piece == want_piece
    assert _rel_diff(new.W, want) <= 1e-12
    assert (iters, converged) == (ref_iters, False) == (40, False)
    if name not in EXACT_CASES:
        assert dictionary_update(prev, stats, tol=0.0,
                                 max_iter=40).W.tobytes() == new.W.tobytes()
    piece = prev.constraint.pieces[new.active_piece]
    assert np.linalg.norm(new.W) <= piece.radius * (1.0 + 1e-9)
    assert new.W.min() >= piece.lower


def test_fused_dictionary_update_stops_where_reference_stops():
    prev, stats = _dict_case(np.random.default_rng(34), 6, 4,
                             ConstraintSpec.nonnegative(10.0), kappa1=0.1)
    want, _, ref_iters = _reference_dictionary_update(prev, stats, 1e-10, 5000)
    new, iters, converged = factorization._descent_refit(prev, stats, 1e-10,
                                                         5000)
    assert converged
    assert iters == ref_iters < 5000
    assert _rel_diff(new.W, want) <= 1e-12


def _nnls_reference(start, stats):
    """Row i of W minimises w Q w^T - 2 w b_i over w >= 0, Q = A + kappa1 I:
    ``||C w - z||^2`` with ``Q = C^T C`` and ``C^T z = b_i``, solved by
    scipy on the atoms whose rows of Q or B are nonzero; the other atoms
    keep the start's column."""
    Q = stats.A + stats.kappa1 * np.eye(stats.A.shape[0])
    used = np.flatnonzero(Q.any(axis=1) | stats.B.any(axis=1))
    C = np.linalg.cholesky(Q[np.ix_(used, used)]).T
    W = start.copy()
    for i in range(W.shape[0]):
        W[i, used] = scipy.optimize.nnls(
            C, np.linalg.solve(C.T, stats.B[used, i]))[0]
    return W


@pytest.mark.parametrize("name", EXACT_CASES)
def test_exact_cases_match_nnls(name):
    prev, stats = _dict_case(np.random.default_rng(33), 6, 4, **DICT_CASES[name])
    new, rounds, converged = factorization._refit(prev, stats, 0.0, 40)
    assert converged and 1 <= rounds <= 5
    assert np.abs(new.W - _nnls_reference(prev.W, stats)).max() <= 1e-12
    assert dictionary_update(prev, stats, tol=0.0,
                             max_iter=40).W.tobytes() == new.W.tobytes()
    if name == "zero-diagonal":
        # the unused atom keeps its column, byte for byte
        assert new.W[:, 2].tobytes() == prev.W[:, 2].tobytes()
        assert prev.W[:, 2].min() > 0.0


REFIT_PIECES = {
    "cone": (ConstraintPiece(radius=10.0), False),
    "cone-ball-binds": (ConstraintPiece(radius=0.6), True),
    "lower": (ConstraintPiece(radius=10.0, lower=0.05), False),
    "lower-ball-binds": (ConstraintPiece(radius=0.8, lower=0.05), True),
}


@pytest.mark.parametrize("tol, max_iter, converged",
                         [(0.0, 40, False), (1e-10, 5000, True)])
@pytest.mark.parametrize("name", sorted(REFIT_PIECES))
def test_refit_clamp_matches_the_scalar_floor_loop(name, tol, max_iter,
                                                   converged):
    # the descent against the per-step reference, which clamps at the
    # scalar floor and projects only when the step leaves the ball
    piece, binds = REFIT_PIECES[name]
    prev, stats = _dict_case(np.random.default_rng(36), 6, 4,
                             ConstraintSpec(pieces=(piece,)), b_scale=4.0)
    L = _reference_lipschitz(stats.A)
    start = piece.project(prev.W)
    want, want_iters, want_conv, bound = _reference_descent(
        start, piece, stats.A, stats.B, L, tol, max_iter)
    assert want_conv == converged and (bound > 0) == binds
    got, iters, conv = factorization._accelerated_descent(
        start, piece, stats.A, stats.B, L, tol, max_iter)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert (iters, conv) == (want_iters, want_conv)


def _ball_case(kind):
    """A = I, so the minimum over the nonnegative orthant is B^T.

    "shift": column 0 (squared norm 0.8) shrinks to zero while column 1 grows
    towards squared norm 0.6, inside radius^2 = 0.9.  "swapped": the same
    with the two columns swapped.  "binds": column 0 grows towards squared
    norm 1.0, outside radius^2 = 0.8, so the minimum lies on the sphere.
    """
    W0 = np.zeros((3, 2))
    B = np.zeros((2, 3))
    if kind in ("shift", "swapped"):
        shrinks, grows = (0, 1) if kind == "shift" else (1, 0)
        W0[:, shrinks] = np.sqrt(0.8 / 3)
        B[grows] = np.sqrt(0.6 / 3)
        radius = np.sqrt(0.9)
    else:
        W0[:, 1] = 0.01
        B[0] = np.sqrt(1.0 / 3)
        radius = np.sqrt(0.8)
    return (Dictionary(W0, ConstraintSpec.nonnegative(radius)),
            AggregateStats(A=np.eye(2), B=B, r_scalar=0.0, t=3))


@pytest.mark.parametrize("kind", ["shift", "swapped", "binds"])
def test_ball_cases_match_reference(kind):
    prev, stats = _ball_case(kind)
    fista, fista_iters, _ = factorization._descent_refit(prev, stats, 0.0, 30)
    want, want_piece, ref_iters = _reference_dictionary_update(prev, stats,
                                                               0.0, 30)
    assert (fista.active_piece, fista_iters) == (want_piece, ref_iters)
    assert _rel_diff(fista.W, want) <= 1e-12
    new, iters, converged = factorization._refit(prev, stats, 0.0, 30)
    radius = prev.constraint.pieces[0].radius
    assert np.linalg.norm(new.W) <= radius * (1.0 + 1e-12)
    if kind == "binds":
        # the exact minimiser leaves the ball, so the descent refits
        assert new.W.tobytes() == fista.W.tobytes()
        assert (iters, converged) == (ref_iters, False)
        assert np.linalg.norm(new.W) == pytest.approx(radius, rel=1e-12)
    else:
        # A = I: one round solves the identity on B's support
        assert np.array_equal(new.W, stats.B.T)
        assert (iters, converged) == (2, True)


@pytest.mark.parametrize("seed", range(4))
def test_dictionary_update_matches_nnls_row_by_row(seed):
    # with no binding ball, the refit is one nonnegative least-squares
    # problem per row of W, with or without the ridge
    rng = np.random.default_rng(50 + seed)
    r, d = 6, 9
    M = rng.random((r, r + 2))
    A = M @ M.T
    B = rng.standard_normal((r, d))
    spec = ConstraintSpec.nonnegative(1e6)
    prev = Dictionary(spec.pieces[0].project(rng.random((d, r))), spec)
    for kappa1 in (0.0, 0.3):
        stats = AggregateStats(A=A, B=B, r_scalar=0.0, t=1, kappa1=kappa1)
        new, rounds, converged = factorization._refit(prev, stats, 1e-13,
                                                      100000)
        assert converged and 1 <= rounds <= 6
        assert np.abs(new.W - _nnls_reference(prev.W, stats)).max() <= 1e-10


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 10), r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kappa1=st.sampled_from([0.0, 0.05]), unused=st.integers(0, 2),
       support=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_exact_refit_matches_nnls_from_any_support(d, r, seed, kappa1, unused,
                                                   support):
    # any warm start reaches the minimiser; unused atoms keep their column
    rng = np.random.default_rng(seed)
    M = rng.random((r, r + 2))
    A = M @ M.T
    B = rng.standard_normal((r, d))
    unused = min(unused, r) if kappa1 == 0.0 else 0
    A[:unused] = A[:, :unused] = B[:unused] = 0.0
    W0 = rng.random((d, r)) * (rng.random((d, r)) < support)
    stats = AggregateStats(A=A, B=B, r_scalar=0.0, t=1, kappa1=kappa1)
    Q = stats.A + kappa1 * np.eye(r)
    got = factorization._nnls_refit(W0, Q, B, 1000)
    assert got is not None
    W, rounds = got
    assert 0 <= rounds <= 20 and (rounds == 0) == (unused == r)
    assert W[:, :unused].tobytes() == W0[:, :unused].tobytes()
    if unused < r:
        want = _nnls_reference(W0, stats)
        assert np.abs(W - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_exact_refit_stops_on_a_degenerate_row():
    # At the minimum (0, 0, 2, 1) index 0 has both w = 0 and gradient 0.
    # Comparing the computed gradient with 0 exactly, the rounds alternate
    # between {2, 3} (gradient -8.9e-16 at index 0) and {0, 2, 3} (w_0 < 0).
    Q = np.array([[10.0, -7.0, 3.0, -6.0], [-7.0, 13.0, -1.0, 4.0],
                  [3.0, -1.0, 3.0, -5.0], [-6.0, 4.0, -5.0, 13.0]])
    b = np.array([[0.0], [-3.0], [1.0], [3.0]])
    got = factorization._nnls_refit(np.array([[0.0, 1.0, 0.0, 1.0]]), Q, b, 100)
    assert got is not None
    W, rounds = got
    assert rounds <= 3
    assert np.abs(W - [[0.0, 0.0, 2.0, 1.0]]).max() <= 1e-14
    assert W.min() >= 0.0


def _full_exchange_cycles(Q, b, F):
    """Whether flipping every infeasible index each round revisits a set."""
    seen = set()
    while F.tobytes() not in seen:
        seen.add(F.tobytes())
        x = np.zeros_like(b)
        x[F] = np.linalg.solve(Q[np.ix_(F, F)], b[F])
        bad = np.where(F, x < 0.0, Q @ x - b < 0.0)
        if not bad.any():
            return False
        F = F ^ bad
    return True


@pytest.mark.parametrize("seed", [2283, 2499, 3513, 6589, 10163])
def test_exact_refit_leaves_a_cycle_of_full_exchanges(seed):
    # from these starts, flipping whole infeasible sets cycles; the backup
    # rule's single flips reach the minimum
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((4, 4))
    Q, b, F = M @ M.T, rng.standard_normal(4), rng.random(4) < 0.5
    assert _full_exchange_cycles(Q, b, F.copy())
    got = factorization._nnls_refit(F[None, :] * 1.0, Q, b[:, None], 100)
    assert got is not None and got[1] <= 20
    stats = AggregateStats(A=Q, B=b[:, None], r_scalar=0.0, t=1)
    assert np.abs(got[0] - _nnls_reference(F[None, :] * 1.0, stats)).max() \
        <= 1e-9


# A rank-one A, as a stream of one repeated pattern gives (LAPACK finds it
# singular), and an A whose condition number, about 4e15, passes 1 / (3 eps).
SINGULAR_GRAMS = {
    "rank-one": np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]),
    "numerically-singular": np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0],
                                      [0.0, 0.0, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_GRAMS))
def test_rank_deficient_refit_falls_back_to_the_descent(name):
    prev = Dictionary(np.full((4, 3), 0.2), ConstraintSpec.nonnegative(10.0))
    A = SINGULAR_GRAMS[name]
    stats = AggregateStats(A=A, B=A @ np.array([[1.0, 0.0, 2.0, 3.0],
                                                [0.5, 1.0, 0.0, 1.0],
                                                [1.0, 1.0, 1.0, 0.0]]),
                           r_scalar=0.0, t=2)
    Q = factorization._ridged(stats)
    assert factorization._nnls_refit(prev.W, Q, stats.B, 100) is None
    for tol, max_iter in [(0.0, 40), (1e-10, 5000)]:
        new, iters, converged = factorization._refit(prev, stats, tol, max_iter)
        want, want_iters, want_conv = factorization._descent_refit(
            prev, stats, tol, max_iter)
        assert new.W.tobytes() == want.W.tobytes()
        assert (iters, converged) == (want_iters, want_conv)


def test_refit_that_needs_more_rounds_than_its_cap_falls_back():
    prev, stats = _dict_case(np.random.default_rng(33), 6, 4,
                             **DICT_CASES["ridge"])
    _, rounds, _ = factorization._refit(prev, stats, 0.0, 40)
    assert rounds >= 2
    Q = factorization._ridged(stats)
    assert factorization._nnls_refit(prev.W, Q, stats.B, rounds - 1) is None
    new, iters, converged = factorization._refit(prev, stats, 0.0, rounds - 1)
    want, _, _ = factorization._descent_refit(prev, stats, 0.0, rounds - 1)
    assert new.W.tobytes() == want.W.tobytes()
    assert (iters, converged) == (rounds - 1, False)


def test_ellipsoid_step_is_the_largest_feasible_point():
    rng = np.random.default_rng(35)
    shortened = 0
    for _ in range(40):
        d, r = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        M = rng.random((r, r + 1))
        stats = AggregateStats(A=M @ M.T + 0.01 * np.eye(r),
                               B=rng.standard_normal((r, d)), r_scalar=0.0, t=1)
        W0 = rng.random((d, r))
        # the ellipsoid is the A-ball on the segment from W0 to the
        # unconstrained minimum; start anywhere on that segment
        target = np.linalg.solve(stats.A, stats.B).T
        start = W0 + rng.random() * (target - W0)
        W = start + rng.standard_normal((d, r)) * rng.choice([0.1, 1.0, 10.0])
        s = factorization._ellipsoid_step(start, W - start, W0, stats)
        assert s == pytest.approx(_reference_ellipsoid_step(start, W, W0, stats),
                                  abs=1e-9)
        assert ellipsoid_gap(start + s * (W - start), W0, stats) <= 1e-10
        shortened += s < 1.0
    assert 10 <= shortened < 40


def test_update_keeps_the_start_when_the_descent_ends_above_it(monkeypatch):
    # no piece with a nonnegative lower bound was seen to make the descent
    # end above its start, so a stand-in descent does; A = I and B = start^T
    # make the start the minimiser
    piece = ConstraintPiece(radius=2.0, lower=0.1)
    prev = Dictionary(np.full((3, 2), 0.5), ConstraintSpec(pieces=(piece,)))
    start = piece.project(prev.W)
    stats = AggregateStats(A=np.eye(2), B=start.T.copy(), r_scalar=0.0, t=1)
    above = np.full((3, 2), 1.0)
    monkeypatch.setattr(factorization, "_accelerated_descent",
                        lambda W, *args: (above, 7, True))
    assert surrogate_loss(above, stats) > surrogate_loss(start, stats) + 1.0
    new = dictionary_update(prev, stats, tol=1e-10, max_iter=100)
    assert new.W.tobytes() == start.tobytes()


@pytest.mark.parametrize("lower", [-0.5, float("nan"), float("inf")])
def test_piece_refuses_a_lower_bound_not_finite_and_nonnegative(lower):
    with pytest.raises(ValueError,
                       match="piece lower bound must be finite and nonnegative"):
        ConstraintPiece(radius=1.0, lower=lower)


def test_update_with_no_feasible_piece_keeps_the_previous_dictionary(caplog):
    # A = I and B = W_prev^T make the trust ellipsoid the single point
    # W_prev, which lies outside both pieces: neither a piece's start nor
    # the midpoint fallback is feasible
    spec = ConstraintSpec(pieces=(ConstraintPiece(radius=0.5),
                                  ConstraintPiece(radius=0.5, lower=0.1)))
    prev = Dictionary(np.full((3, 2), 1.0), spec, active_piece=1)
    stats = AggregateStats(A=np.eye(2), B=prev.W.T.copy(), r_scalar=0.0, t=1)
    counts = {}
    token = factorization._SOLVER_COUNTS.set(counts)
    try:
        with caplog.at_level(logging.WARNING, logger="onmf.factorization"):
            new = dictionary_update(prev, stats)
    finally:
        factorization._SOLVER_COUNTS.reset(token)
    assert new.W.tobytes() == prev.W.tobytes()
    assert new.active_piece == 1
    assert counts["dict"] == (0, False)
    assert [r.getMessage() for r in caplog.records] == [
        "dictionary update found no feasible piece; keeping the previous "
        "dictionary"]


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def test_exactly_representable_stream_drives_surrogate_to_zero():
    rng = np.random.default_rng(14)
    spec = ConstraintSpec.nonnegative(50.0)
    dictionary = init_dictionary(6, 3, spec, rng)
    X = dictionary.W @ rng.random((3, 4))  # exactly representable from the start
    eng = OnlineNMF(dictionary, lam=0.0,
                    code_tol=1e-11, code_max_iter=5000,
                    dict_tol=1e-10, dict_max_iter=200)
    last = np.inf
    for _ in range(50):
        last = eng.step(X).surrogate
    assert last < 1e-6


def test_surrogate_dominates_empirical_loss_and_is_nonnegative():
    rng = np.random.default_rng(15)
    spec = ConstraintSpec.nonnegative(10.0)
    eng = OnlineNMF(init_dictionary(3, 2, spec, rng), lam=0.5,
                    code_tol=1e-10, code_max_iter=3000)
    history = []
    for _ in range(40):
        history.append(rng.random((3, 2)))
        res = eng.step(history[-1])
        assert res.surrogate >= -1e-12
        ft = empirical_loss(eng.W, history, eng.schedule, lam=eng.lam,
                            kappa2=eng.kappa2)
        assert res.surrogate >= ft - 1e-8


def test_aggregate_bounds_hold_along_runs():
    rng = np.random.default_rng(16)
    lam, radius = 0.7, 2.0
    spec = ConstraintSpec.nonnegative(10.0)
    eng = OnlineNMF(init_dictionary(4, 3, spec, rng), lam=lam)
    for _ in range(60):
        X = rng.random((4, 3))
        nrm = np.linalg.norm(X)
        if nrm > radius:
            X *= radius / nrm
        eng.step(X)
        assert np.linalg.norm(eng.stats.A) <= radius ** 4 / lam ** 2 + 1e-9
        assert np.linalg.norm(eng.stats.B) <= radius ** 3 / lam + 1e-9


def test_step_rejects_bad_data():
    rng = np.random.default_rng(17)
    spec = ConstraintSpec.nonnegative(10.0)
    eng = OnlineNMF(init_dictionary(3, 2, spec, rng))
    with pytest.raises(ValueError, match="nonnegative"):
        eng.step(np.array([[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        eng.step(np.full((3, 2), np.inf))


def test_iterate_stability_with_ridge():
    rng = np.random.default_rng(18)
    spec = ConstraintSpec.nonnegative(10.0)
    eng = OnlineNMF(init_dictionary(4, 2, spec, rng), lam=1.0, kappa1=0.1)
    ratios = []
    for t in range(1, 300):
        before = eng.W.copy()
        eng.step(rng.random((4, 3)))
        ratios.append(np.linalg.norm(eng.W - before) / eng.schedule.weight(t))
    assert np.isfinite(max(ratios))


def test_step_reports_solver_iterations():
    rng = np.random.default_rng(22)
    spec = ConstraintSpec.nonnegative(10.0)
    X = rng.random((4, 3))
    eng = OnlineNMF(init_dictionary(4, 2, spec, rng), lam=0.5,
                    code_tol=1e-8, code_max_iter=100000,
                    dict_tol=1e-8, dict_max_iter=100000)
    res = eng.step(X)
    assert res.code_converged and 1 <= res.code_iters < 100000
    assert res.dict_converged and 1 <= res.dict_iters < 100000
    # one round does not solve this refit exactly, so at a cap of one the
    # refit falls back to the descent and runs its one step
    capped = OnlineNMF(init_dictionary(4, 2, spec, rng), lam=0.5,
                       code_tol=0.0, code_max_iter=1,
                       dict_tol=0.0, dict_max_iter=1)
    res = capped.step(X)
    assert (res.code_iters, res.code_converged) == (1, False)
    assert (res.dict_iters, res.dict_converged) == (1, False)


@pytest.mark.parametrize("max_iter", [200, 7])
def test_step_reports_the_change_of_the_last_coding_step(max_iter):
    # The change of the last step is the largest KKT residual of one column
    # at the iterate before the returned code: the iterate that
    # max_iter - 1 steps reach.
    rng = np.random.default_rng(26)
    spec = ConstraintSpec.nonnegative(10.0)
    X = rng.random((6, 5))
    eng = OnlineNMF(init_dictionary(6, 3, spec, rng), lam=0.3, kappa2=0.2,
                    code_tol=1e-3, code_max_iter=max_iter)
    W = eng.W.copy()
    res = eng.step(X)
    assert res.code_converged == (max_iter == 200)
    before = sparse_code(X, W, lam=0.3, kappa2=0.2, tol=0.0,
                         max_iter=res.code_iters - 1)
    want = max(kkt_residual(X[:, [j]], W, before[:, [j]], 0.3, kappa2=0.2)
               for j in range(X.shape[1]))
    assert res.code_change == pytest.approx(want, rel=1e-12)
    assert (res.code_change < 1e-3) == res.code_converged


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 8), r=st.integers(1, 6), n=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1), repeats=st.booleans(),
       lam=st.sampled_from([0.0, 0.1, 1.0]),
       tol=st.sampled_from([0.0, 1e-8, 1e-6, 1e-3, 1e-1]),
       max_iter=st.integers(1, 3 * TEST_EVERY + 1)
       | st.sampled_from([200, 5000]))
def test_step_stops_the_coding_only_at_window_ends(d, r, n, seed, repeats, lam,
                                                   tol, max_iter):
    # With repeats, 0/1 columns drawn from three: the distinct-column solve.
    rng = np.random.default_rng(seed)
    X = rng.random((d, n))
    if repeats:
        X = (rng.random((d, 3)) < 0.5)[:, rng.integers(3, size=n)] * 1.0
    eng = OnlineNMF(init_dictionary(d, r, ConstraintSpec.nonnegative(10.0),
                                    rng), lam=lam, code_tol=tol,
                    code_max_iter=max_iter)
    res = eng.step(X)
    assert res.code_iters % TEST_EVERY == 0 or res.code_iters == max_iter
    assert 1 <= res.code_iters <= max_iter
    assert res.code_converged == (res.code_change < tol)


BAD_BUDGETS = [dict(max_iter=0), dict(max_iter=-1), dict(tol=-1e-9),
               dict(tol=float("nan")), dict(tol=float("inf"))]
BUDGET_IDS = ["max_iter=0", "max_iter=-1", "tol<0", "tol=nan", "tol=inf"]


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=BUDGET_IDS)
def test_sparse_code_rejects_a_bad_budget(budget):
    with pytest.raises(ValueError, match="max_iter|tol"):
        sparse_code(np.ones((2, 2)), np.eye(2), **budget)


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=BUDGET_IDS)
def test_dictionary_update_rejects_a_bad_budget(budget):
    prev = Dictionary(np.ones((2, 2)), ConstraintSpec.nonnegative(10.0))
    stats = AggregateStats.zeros(2, 2)
    with pytest.raises(ValueError, match="max_iter|tol"):
        dictionary_update(prev, stats, **budget)


@pytest.mark.parametrize("solver", ["code", "dict"])
@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=BUDGET_IDS)
def test_engine_rejects_a_bad_budget(solver, budget):
    dictionary = Dictionary(np.ones((2, 2)), ConstraintSpec.nonnegative(10.0))
    options = {f"{solver}_{key}": value for key, value in budget.items()}
    with pytest.raises(ValueError, match="max_iter|tol"):
        OnlineNMF(dictionary, **options)


def _engine_pair(seed):
    spec = ConstraintSpec.nonnegative(10.0)
    return [OnlineNMF(init_dictionary(5, 3, spec, np.random.default_rng(seed)),
                      lam=0.3, kappa1=0.05) for _ in range(2)]


def test_learn_matches_a_hand_written_step_loop():
    rng = np.random.default_rng(23)
    stream = [rng.random((5, 4)) for _ in range(12)]
    eng, ref = _engine_pair(24)
    trace = learn(eng, iter(stream), len(stream))
    ref_trace = [(t, ref.step(X).surrogate) for t, X in enumerate(stream, 1)]
    assert trace == ref_trace
    assert np.array_equal(eng.W, ref.W)
    assert np.array_equal(eng.stats.A, ref.stats.A)
    assert np.array_equal(eng.stats.B, ref.stats.B)
    assert (eng.stats.r_scalar, eng.stats.t) == (ref.stats.r_scalar,
                                                 ref.stats.t)


def test_learn_draws_exactly_iters_matrices():
    rng = np.random.default_rng(25)
    drawn = []

    def stream():
        while True:
            drawn.append(len(drawn))
            yield rng.random((5, 2))

    eng, _ = _engine_pair(26)
    trace = learn(eng, stream(), 7)
    assert len(drawn) == 7
    assert [t for t, _ in trace] == list(range(1, 8))
    assert eng.stats.t == 7


def test_weight_schedule_validation():
    with pytest.raises(ValueError):
        WeightSchedule(0.5)
    with pytest.raises(ValueError):
        WeightSchedule(1.2)
    assert WeightSchedule(1.0).weight(4) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dictionary_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(19)
    W = rng.standard_normal((5, 3)) * np.exp(rng.standard_normal((5, 3)) * 8)
    path = tmp_path / "w.txt"
    save_dictionary(path, W)
    back = load_dictionary(path)
    assert back.shape == (5, 3)
    assert np.array_equal(back, W)
    header = path.read_text().splitlines()[0]
    assert header == "5 3"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
                min_size=4, max_size=4))
def test_serialization_roundtrip_property(tmp_path_factory, vals):
    W = np.array(vals).reshape(2, 2)
    path = tmp_path_factory.mktemp("ser") / "w.txt"
    save_dictionary(path, W)
    assert np.array_equal(load_dictionary(path), W)


@pytest.mark.parametrize("load, text, message", [
    (load_dictionary, "", "file ends at line 0; expected a matrix header at "
     "line 1"),
    (load_dictionary, "9 1\n1.0\n1.0\n", "file ends at line 3; expected 9 "
     "matrix rows after the header at line 1"),
    (load_aggregates, "1 1\n2.0\n1 2\n3.0 4.0\n", "file ends at line 4; "
     "expected the 't r_scalar kappa1 beta' trailer at line 5"),
], ids=["no-header", "missing-rows", "missing-trailer"])
def test_truncated_matrix_files_say_where_they_end(tmp_path, load, text,
                                                   message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == message


def test_aggregates_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(20)
    stats = AggregateStats(A=rng.standard_normal((3, 3)),
                           B=rng.standard_normal((3, 4)),
                           r_scalar=float(rng.standard_normal()),
                           t=17, kappa1=0.1)
    path = tmp_path / "agg.txt"
    save_aggregates(path, stats, beta=0.9)
    back, beta = load_aggregates(path)
    assert np.array_equal(back.A, stats.A)
    assert np.array_equal(back.B, stats.B)
    assert back.r_scalar == stats.r_scalar
    assert back.t == 17 and back.kappa1 == 0.1 and beta == 0.9
