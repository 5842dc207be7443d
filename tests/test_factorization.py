import numpy as np
import pytest
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


@pytest.mark.parametrize("kappa1", [-5.0, -1e-12, float("nan")])
def test_statistics_refuse_a_negative_ridge(kappa1):
    with pytest.raises(ValueError, match="kappa1 must be nonnegative"):
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

    # independent plain BCD with the same damped column step
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
    formed anew each iteration; returns (H, iterations, converged)."""
    step = 1.0 / (2.0 * float(np.trace(gram)) + kappa2)
    H = np.zeros_like(wx)
    for it in range(1, max_iter + 1):
        grad = 2.0 * (gram @ H - wx) + lam
        if kappa2 > 0:
            grad += kappa2 * H
        H_next = np.maximum(H - step * grad, 0.0)
        delta = float(np.linalg.norm(H_next - H))
        H = H_next
        if delta < tol:
            return H, it, True
    return H, max_iter, False


def _reference_dictionary_update(W_prev, stats, tol, max_iter):
    """Block coordinate descent with the damped column step written out per
    column; returns (W, kept piece, sweeps in the kept piece)."""
    spec = W_prev.constraint
    A, B, kappa1 = stats.A, stats.B, stats.kappa1
    r = A.shape[0]
    A_ridge = A + kappa1 * np.eye(r) if kappa1 > 0 else A
    diag_ridge = np.diag(A_ridge).copy()
    W0 = np.asarray(W_prev.W, dtype=float)
    enforce = len(spec.pieces) > 1

    def bisect(W, j, cand, old):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            W[:, j] = (1.0 - mid) * cand + mid * old
            if ellipsoid_gap(W, W0, stats) <= 1e-12:
                hi = mid
            else:
                lo = mid
        col = (1.0 - hi) * cand + hi * old
        W[:, j] = col
        return col

    best, best_val = None, np.inf
    for idx, piece in enumerate(spec.pieces):
        start = W0 if idx == W_prev.active_piece else piece.project(W0)
        if enforce and ellipsoid_gap(start, W0, stats) > 1e-12:
            target = (np.linalg.pinv(A, hermitian=True) @ B).T
            start = piece.project(0.5 * (W0 + target))
            if ellipsoid_gap(start, W0, stats) > 1e-12:
                continue
        W = start.copy()
        col_sq = np.einsum("ij,ij->j", W, W)
        sweeps = 0
        for _ in range(max_iter):
            sweeps += 1
            W_before = W.copy()
            for j in range(r):
                if diag_ridge[j] <= 0.0:
                    continue
                cand = W[:, j] - (W @ A_ridge[:, j] - B[j, :]) / (A_ridge[j, j] + 1.0)
                rest = float(col_sq.sum() - col_sq[j])
                new_col = piece.project_column(cand, rest)
                if new_col is None:
                    continue
                if enforce:
                    old = W[:, j].copy()
                    W[:, j] = new_col
                    if ellipsoid_gap(W, W0, stats) > 1e-12:
                        new_col = bisect(W, j, new_col, old)
                else:
                    W[:, j] = new_col
                col_sq[j] = float(new_col @ new_col)
            if float(np.linalg.norm(W - W_before)) < tol:
                break
        val = float(np.sum((W @ A_ridge) * W) - 2.0 * np.sum(W * B.T))
        if val < best_val:
            best, best_val = (W, idx, sweeps), val
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
    rng = np.random.default_rng(32)
    X = rng.random((9, 5))
    W = rng.random((9, 4))
    gram, wx = W.T @ W, W.T @ X
    want, ref_iters, ref_conv = _reference_pg_solve(gram, wx, 0.2, 0.0, 1e-8,
                                                    100000)
    got, iters, converged = factorization._pg_solve(gram, wx, 0.2, 0.0, 1e-8,
                                                    100000)
    assert ref_conv and converged
    assert iters == ref_iters < 100000
    assert _rel_diff(got, want) <= 1e-12


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


@pytest.mark.parametrize("name", sorted(DICT_CASES))
def test_fused_dictionary_update_matches_reference(name):
    prev, stats = _dict_case(np.random.default_rng(33), 6, 4, **DICT_CASES[name])
    want, want_piece, ref_sweeps = _reference_dictionary_update(
        prev, stats, 0.0, 40)
    new, sweeps, converged = factorization._refit(prev, stats, 0.0, 40)
    assert new.active_piece == want_piece
    assert _rel_diff(new.W, want) <= 1e-12
    assert (sweeps, converged) == (ref_sweeps, False) == (40, False)
    assert np.array_equal(dictionary_update(prev, stats, tol=0.0,
                                            max_iter=40).W, new.W)
    piece = prev.constraint.pieces[new.active_piece]
    assert np.linalg.norm(new.W) <= piece.radius * (1.0 + 1e-9)
    assert new.W.min() >= piece.lower


def test_fused_dictionary_update_stops_where_reference_stops():
    prev, stats = _dict_case(np.random.default_rng(34), 6, 4,
                             ConstraintSpec.nonnegative(10.0), kappa1=0.1)
    want, _, ref_sweeps = _reference_dictionary_update(prev, stats, 1e-10, 5000)
    new, sweeps, converged = factorization._refit(prev, stats, 1e-10, 5000)
    assert converged
    assert sweeps == ref_sweeps < 5000
    assert _rel_diff(new.W, want) <= 1e-12


def _checking_piece_descent(Wt, piece, Mt, B_scaled, cols, W0, stats, enforce,
                            tol, max_iter):
    """The descent with the budget test at every column: the fused loop
    before sweeps without the ellipsoid could run check-free."""
    lower, radius_sq = piece.lower, piece.radius ** 2
    m_rows, b_rows = list(Mt), list(B_scaled)
    col_sq = [float(row.dot(row)) for row in Wt]
    buf = np.empty(Wt.shape[1])
    change = np.empty_like(Wt)
    for sweep in range(1, max_iter + 1):
        change[...] = Wt
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
                if ellipsoid_gap(Wt.T, W0, stats) > 1e-12:
                    new_col = factorization._bisect_to_ellipsoid(
                        Wt, j, new_col, old, W0, stats)
                    new_sq = float(new_col.dot(new_col))
            else:
                Wt[j] = new_col
            col_sq[j] = new_sq
        change -= Wt
        if float(np.sqrt(np.vdot(change, change))) < tol:
            return sweep, True
    return max_iter, False


def _ball_case(kind):
    """A = I, so each sweep moves every column halfway to its row of B.

    "shift": column 0 (squared norm 0.8) shrinks while column 1 grows towards
    squared norm 0.6, inside radius^2 = 0.9.  The first sweep's sum of the
    larger squared norm per column is 0.8 + 0.15 >= 0.9, yet no budget test
    fires.  "mid-sweep": the same with the columns swapped, so the growing
    column comes first and binds in the first sweep, although the squared
    norms after that sweep sum to 0.35.  "binds": column 0 grows towards
    squared norm 1.0 and first meets radius^2 = 0.8 in the fourth sweep.
    """
    W0 = np.zeros((3, 2))
    B = np.zeros((2, 3))
    if kind in ("shift", "mid-sweep"):
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


def _count_projections(monkeypatch):
    calls = []
    project = ConstraintPiece.project_column

    def counted(self, col, rest_sq):
        calls.append(rest_sq)
        return project(self, col, rest_sq)

    monkeypatch.setattr(ConstraintPiece, "project_column", counted)
    return calls


def test_failed_ball_proof_redoes_the_sweep_without_binding(monkeypatch):
    prev, stats = _ball_case("shift")
    calls = _count_projections(monkeypatch)
    one, _, _ = factorization._refit(prev, stats, 0.0, 1)
    old_sq = np.sum(prev.W ** 2, axis=0)
    new_sq = np.sum(one.W ** 2, axis=0)
    assert np.maximum(old_sq, new_sq).sum() >= 0.9
    new, sweeps, _ = factorization._refit(prev, stats, 0.0, 30)
    assert calls == []
    want, want_piece, ref_sweeps = _reference_dictionary_update(prev, stats,
                                                                0.0, 30)
    assert (new.active_piece, sweeps) == (want_piece, ref_sweeps)
    assert _rel_diff(new.W, want) <= 1e-12


@pytest.mark.parametrize("kind,first", [("binds", 4), ("mid-sweep", 1)])
def test_ball_binding_matches_reference(kind, first, monkeypatch):
    prev, stats = _ball_case(kind)
    calls = _count_projections(monkeypatch)
    factorization._refit(prev, stats, 0.0, first - 1)
    assert calls == []
    new, sweeps, _ = factorization._refit(prev, stats, 0.0, 30)
    assert calls
    want, want_piece, ref_sweeps = _reference_dictionary_update(prev, stats,
                                                                0.0, 30)
    assert (new.active_piece, sweeps) == (want_piece, ref_sweeps)
    assert _rel_diff(new.W, want) <= 1e-12
    radius = prev.constraint.pieces[0].radius
    assert np.linalg.norm(new.W) <= radius * (1.0 + 1e-12)


@pytest.mark.parametrize("name", sorted(DICT_CASES) + [
    "ball-shift", "ball-mid-sweep", "ball-binds"])
def test_check_free_sweeps_change_no_bit(name, monkeypatch):
    if name.startswith("ball-"):
        prev, stats = _ball_case(name[len("ball-"):])
    else:
        prev, stats = _dict_case(np.random.default_rng(33), 6, 4,
                                 **DICT_CASES[name])
    got = factorization._refit(prev, stats, 0.0, 40)
    monkeypatch.setattr(factorization, "_piece_descent", _checking_piece_descent)
    want = factorization._refit(prev, stats, 0.0, 40)
    assert np.array_equal(got[0].W, want[0].W)
    assert (got[0].active_piece, got[1], got[2]) == \
        (want[0].active_piece, want[1], want[2])


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
    assert res.dict_converged and 1 <= res.dict_sweeps < 100000
    capped = OnlineNMF(init_dictionary(4, 2, spec, rng), lam=0.5,
                       code_tol=0.0, code_max_iter=1,
                       dict_tol=0.0, dict_max_iter=1)
    res = capped.step(X)
    assert (res.code_iters, res.code_converged) == (1, False)
    assert (res.dict_sweeps, res.dict_converged) == (1, False)


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
