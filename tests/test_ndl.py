import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cycle_network, edge_pairs, mann_whitney_auc,
                     smallworld_network)
from onmf import (ConstraintSpec, CorruptionError, DegenerateAggregatesError,
                  NDLParams, Network, OnlineNMF, ReconstructionState,
                  RocError, WeightSchedule, candidate_pairs, chain_update,
                  coding_objective, corrupt_network,
                  denoise_classify, dominance_scores, init_dictionary,
                  initial_homomorphism, lower_tail_is_positive,
                  mesoscale_patch, ndl, ndl_learn, nr_reconstruct, roc_auc,
                  sparse_code)
from onmf.networks import MCMC_MODES

CHAIN_PATTERN = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


# ---------------------------------------------------------------------------
# learning
# ---------------------------------------------------------------------------


def test_cycle_stream_learns_the_chain_atom():
    net = cycle_network(10)
    rng = np.random.default_rng(7)
    nd = ndl_learn(net, NDLParams(k=3, atoms=4, iters=60, batch=50, lam=0.0), rng)
    target = CHAIN_PATTERN.reshape(-1, 1)
    h = sparse_code(target, nd.W, lam=0.0, tol=1e-12, max_iter=5000)
    assert coding_objective(target, nd.W, h, 0.0) < 1e-4
    matches = []
    for j in range(nd.W.shape[1]):
        tile = nd.W[:, j].reshape(3, 3)
        if tile.max() > tile.min():
            scaled = (tile - tile.min()) / (tile.max() - tile.min())
            matches.append(np.array_equal(scaled >= 0.5, CHAIN_PATTERN > 0))
    assert any(matches)


def test_more_atoms_fit_at_least_as_well():
    net = smallworld_network(40, 6, 0.2, seed=3)
    small = ndl_learn(net, NDLParams(k=3, atoms=1, iters=40, batch=40, lam=1.0),
                      np.random.default_rng(11))
    big = ndl_learn(net, NDLParams(k=3, atoms=9, iters=40, batch=40, lam=1.0),
                    np.random.default_rng(11))
    assert big.loss_trace[-1][1] <= small.loss_trace[-1][1]


def test_ndl_determinism():
    net = cycle_network(8)
    params = NDLParams(k=3, atoms=3, iters=15, batch=20, lam=0.5)
    a = ndl_learn(net, params, np.random.default_rng(123))
    b = ndl_learn(net, params, np.random.default_rng(123))
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.stats.A, b.stats.A)
    assert a.loss_trace == b.loss_trace


def _ndl_learn_by_step_loop(net, params, rng):
    """Reference: the chain, the minibatches and the engine written out."""
    x = initial_homomorphism(net, params.k, rng)
    constraint = ConstraintSpec.nonnegative(params.dict_radius)
    dictionary = init_dictionary(params.k ** 2, params.atoms, constraint, rng)
    engine = OnlineNMF(dictionary, lam=params.lam, kappa1=params.kappa1,
                       kappa2=params.kappa2,
                       schedule=WeightSchedule(params.beta), code_tol=1e-8,
                       code_max_iter=500, dict_tol=1e-8, dict_max_iter=100)
    trace = []
    for t in range(1, params.iters + 1):
        X = np.empty((params.k ** 2, params.batch))
        for j in range(params.batch):
            x = chain_update(net, params.k, x, rng, params.mcmc)
            X[:, j] = mesoscale_patch(net, x).reshape(-1)
        trace.append((t, engine.step(X).surrogate))
    return engine, trace


@pytest.mark.parametrize("mcmc", MCMC_MODES)
def test_ndl_learn_matches_the_step_loop(mcmc):
    net = smallworld_network(40, 6, 0.2, seed=4)
    params = NDLParams(k=4, atoms=5, iters=12, batch=25, lam=0.5, mcmc=mcmc,
                       kappa1=0.01)
    rng = np.random.default_rng(31)
    nd = ndl_learn(net, params, rng)
    ref_rng = np.random.default_rng(31)
    engine, trace = _ndl_learn_by_step_loop(net, params, ref_rng)
    assert np.array_equal(nd.W, engine.W)
    assert np.array_equal(nd.stats.A, engine.stats.A)
    assert np.array_equal(nd.stats.B, engine.stats.B)
    assert nd.loss_trace == trace
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_ndl_params_validation():
    with pytest.raises(ValueError):
        NDLParams(k=0, atoms=2)
    with pytest.raises(ValueError):
        NDLParams(k=3, atoms=2, lam=-1.0)
    with pytest.raises(ValueError):
        NDLParams(k=3, atoms=2, mcmc="metropolis")


def test_dominance_scores():
    assert np.allclose(dominance_scores(np.eye(4)), 0.25)
    assert np.allclose(dominance_scores(np.diag([4.0, 1.0])), [2 / 3, 1 / 3])
    rng = np.random.default_rng(0)
    M = rng.random((5, 5))
    scores = dominance_scores(M @ M.T)
    assert scores.sum() == pytest.approx(1.0)
    assert np.all(scores >= 0)
    with pytest.raises(DegenerateAggregatesError):
        dominance_scores(np.zeros((3, 3)))


def test_learned_dominance_is_a_distribution():
    net = cycle_network(6)
    nd = ndl_learn(net, NDLParams(k=3, atoms=5, iters=10, batch=15, lam=1.0),
                   np.random.default_rng(2))
    scores = dominance_scores(nd.stats.A)
    assert scores.sum() == pytest.approx(1.0)
    assert np.all(scores >= 0)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


class DictReconstruction:
    """Reference: the per-pair sums and counts kept in dicts keyed by
    unordered pairs, the tuples (min(u, v), max(u, v)), each block summed per
    pair with ``bincount`` and then added to the pair's running sum."""

    def __init__(self):
        self.sums, self.counts = {}, {}

    def fold_many(self, us, vs, values):
        base = int(max(us.max(), vs.max())) + 1
        keys, inverse = np.unique(np.minimum(us, vs) * base
                                  + np.maximum(us, vs), return_inverse=True)
        block_sums = np.bincount(inverse, weights=values)
        block_counts = np.bincount(inverse)
        for key, s, c in zip(keys.tolist(), block_sums.tolist(),
                             block_counts.tolist()):
            pair = divmod(key, base)
            self.sums[pair] = self.sums.get(pair, 0.0) + s
            self.counts[pair] = self.counts.get(pair, 0) + c

    def pair_score(self, u, v):
        pair = (min(u, v), max(u, v))
        if pair not in self.counts:
            return 0.0
        return self.sums[pair] / self.counts[pair]


def _pairs(n, keys):
    """(u, v) tuples of pair keys u * n + v."""
    us, vs = np.divmod(np.asarray(keys), n)
    return list(zip(us.tolist(), vs.tolist()))


def _state_dicts(state):
    """Sums and counts of a ReconstructionState keyed by (u, v), sentinel
    excluded."""
    pairs = _pairs(state.n, state.keys[:-1])
    return (dict(zip(pairs, state.sums[:-1].tolist())),
            dict(zip(pairs, state.counts[:-1].tolist())))


def test_fold_first_visit_stores_exact_value():
    state = ReconstructionState(5)
    state.fold_many(np.array([3]), np.array([4]), np.array([0.7]))
    assert state.keys.tolist() == [3 * 5 + 4, 5 * 5]
    assert state.sums.tolist() == [0.7, 0.0]
    assert state.counts.tolist() == [1, 0]
    assert state.pair_score(3, 4) == 0.7


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1,
                max_size=40))
def test_fold_tracks_the_arithmetic_mean(values):
    state = ReconstructionState(2)
    for v in values:
        state.fold_many(np.array([0]), np.array([1]), np.array([v]))
    assert state.counts.tolist() == [len(values), 0]
    assert abs(state.pair_score(0, 1) - np.mean(values)) < 1e-10


def test_pair_score_combines_both_orientations():
    state = ReconstructionState(6)
    state.fold_many(np.array([0, 1]), np.array([1, 0]), np.array([1.0, 0.0]))
    state.fold_many(np.array([1]), np.array([0]), np.array([0.0]))
    # one key per node pair, min(u, v) * n + max(u, v)
    assert state.keys.tolist() == [0 * 6 + 1, 6 * 6]
    assert state.counts.tolist() == [3, 0]
    assert state.pair_score(0, 1) == pytest.approx(1.0 / 3.0)
    assert state.pair_score(1, 0) == state.pair_score(0, 1)
    assert state.pair_score(4, 5) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_array_state_matches_the_dict_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    state, ref = ReconstructionState(n), DictReconstruction()
    every = np.arange(n * n)
    # an empty state scores every pair 0
    assert state.scores(every).tolist() == [0.0] * (n * n)
    for _ in range(int(rng.integers(1, 6))):
        size = int(rng.integers(3, 30))
        us, vs = rng.integers(0, n, size), rng.integers(0, n, size)
        # a self-pair in every block, both orientations of one pair, and
        # repeats within the block
        us[0], vs[0] = 0, 0
        us[-1], vs[-1] = vs[1], us[1]
        us, vs = np.concatenate([us, us[:3]]), np.concatenate([vs, vs[:3]])
        values = rng.random(len(us)) * rng.choice([1e-3, 1.0, 1e3], len(us))
        state.fold_many(us, vs, values)
        ref.fold_many(us, vs, values)
        keys = sorted(ref.counts)
        assert _pairs(n, state.keys[:-1]) == keys
        assert state.keys[-1] == n * n
        assert state.counts.tolist() == [ref.counts[p] for p in keys] + [0]
        assert state.sums.tolist() == [ref.sums[p] for p in keys] + [0.0]
        want = [ref.pair_score(u, v) for u, v in _pairs(n, every)]
        assert state.scores(every).tolist() == want
        assert [state.pair_score(u, v)
                for u, v in _pairs(n, every)] == want


def test_exact_atom_reconstructs_the_cycle():
    net = cycle_network(10)
    W = CHAIN_PATTERN.reshape(-1, 1)
    rng = np.random.default_rng(5)
    state = nr_reconstruct(net, W, iters=3000, lam=0.0, mcmc="pivot", rng=rng)
    us, vs = np.divmod(state.keys[:-1], net.n)
    errors = np.abs(state.scores(state.keys[:-1]) - net.weights_at(us, vs))
    assert len(errors) and errors.max() < 0.05
    counts_mono = all(c >= 1 for c in state.counts[:-1].tolist())
    assert counts_mono


def test_reconstruction_determinism():
    net = cycle_network(8)
    W = CHAIN_PATTERN.reshape(-1, 1)
    a = nr_reconstruct(net, W, iters=500, lam=0.0, rng=np.random.default_rng(9))
    b = nr_reconstruct(net, W, iters=500, lam=0.0, rng=np.random.default_rng(9))
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.sums, b.sums)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("mcmc", MCMC_MODES)
def test_blocked_reconstruction_matches_one_step_at_a_time(mcmc):
    net = smallworld_network(30, 4, 0.2, seed=5)
    W = np.random.default_rng(1).random((9, 4))
    iters = ndl.RECON_BLOCK + 7
    # tol=0 runs every solve to max_iter, alone or in a block, so both sides
    # take the same projected-gradient steps on every column.
    rng = np.random.default_rng(3)
    state = nr_reconstruct(net, W, iters=iters, lam=0.5, mcmc=mcmc, rng=rng,
                           code_tol=0.0, code_max_iter=50)

    ref_rng = np.random.default_rng(3)
    x = initial_homomorphism(net, 3, ref_rng)
    sums, counts = {}, {}
    for _ in range(iters):
        x = chain_update(net, 3, x, ref_rng, mcmc)
        patch = mesoscale_patch(net, x).reshape(-1, 1)
        h = sparse_code(patch, W, lam=0.5, tol=0.0, max_iter=50)
        approx = (W @ h).reshape(3, 3)
        for a in range(3):
            for b in range(3):
                pair = (min(x[a], x[b]), max(x[a], x[b]))
                sums[pair] = sums.get(pair, 0.0) + float(approx[a, b])
                counts[pair] = counts.get(pair, 0) + 1

    state_sums, state_counts = _state_dicts(state)
    assert state_counts == counts
    assert max(abs(state_sums[p] / state_counts[p] - sums[p] / counts[p])
               for p in counts) < 1e-12
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_reconstruction_codes_each_block_in_one_call(monkeypatch):
    columns = []

    def counting_sparse_code(X, *args, **kwargs):
        columns.append(X.shape[1])
        return sparse_code(X, *args, **kwargs)

    monkeypatch.setattr(ndl, "sparse_code", counting_sparse_code)
    iters = 2 * ndl.RECON_BLOCK + 3
    nr_reconstruct(cycle_network(8), CHAIN_PATTERN.reshape(-1, 1),
                   iters=iters, rng=np.random.default_rng(0))
    assert len(columns) == math.ceil(iters / ndl.RECON_BLOCK)
    assert sum(columns) == iters


def test_reconstruct_validates_dictionary_shape():
    net = cycle_network(6)
    with pytest.raises(ValueError, match="perfect square"):
        nr_reconstruct(net, np.ones((8, 2)), iters=10,
                       rng=np.random.default_rng(0))


def test_reconstruct_needs_a_generator():
    net = cycle_network(6)
    with pytest.raises(TypeError, match="rng"):
        nr_reconstruct(net, np.eye(4), 10)


def test_reconstruct_refuses_negative_iters_and_keeps_zero():
    net = cycle_network(6)
    with pytest.raises(ValueError, match="iters must be nonnegative"):
        nr_reconstruct(net, np.eye(4), -5, rng=np.random.default_rng(0))
    state = nr_reconstruct(net, np.eye(4), 0, rng=np.random.default_rng(0))
    assert state.keys.tolist() == [36] and state.counts.tolist() == [0]


@pytest.mark.parametrize("kwargs,message", [
    (dict(lam=-1.0), "lambda must be nonnegative"),
    (dict(mcmc="bogus"), "unknown MCMC mode 'bogus'"),
], ids=["lambda-negative", "mcmc-unknown"])
@pytest.mark.parametrize("iters", [0, 10])
def test_reconstruct_refuses_bad_lambda_and_mode_before_drawing(kwargs, message,
                                                                iters):
    net = cycle_network(6)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        nr_reconstruct(net, np.eye(4), iters, rng=rng, **kwargs)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------


def test_subtractive_corruption_counts_and_connectivity():
    net = smallworld_network(30, 4, 0.2, seed=1)
    edges_before = len(edge_pairs(net))
    rng = np.random.default_rng(4)
    result = corrupt_network(net, "subtractive", 0.5, rng)
    removed = edges_before - len(edge_pairs(result.corrupted))
    assert removed == int(np.ceil(0.5 * edges_before))
    assert _is_connected(result.corrupted)
    # the universe is exactly the corrupted graph's non-edges, and flipped
    # lists the removed edges, all inside it
    n = net.n
    non_edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if result.corrupted.weights_at(u, v) == 0}
    pairs = candidate_pairs(result.corrupted, "subtractive")
    assert set(_pairs(n, pairs)) == non_edges
    assert result.flipped.dtype == np.int64 and len(result.flipped) == removed
    assert set(_pairs(n, result.flipped)) == (
        set(edge_pairs(net)) - set(edge_pairs(result.corrupted)))
    assert np.isin(result.flipped, pairs).all()


def _is_connected(net):
    """Depth-first search from node 0 reaches every node."""
    seen, stack = {0}, [0]
    while stack:
        for b in net.out_edges.row(stack.pop())[0].tolist():
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == net.n


def test_disconnected_graph_has_no_subtractive_corruption():
    two_triangles = Network.from_edges(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], undirected=True)
    with pytest.raises(CorruptionError, match="connected graph"):
        corrupt_network(two_triangles, "subtractive", 0.3,
                        np.random.default_rng(0))


def _connected_without(adj, u, v):
    """Is v still reachable from u if edge (u, v) is ignored?"""
    seen = {u}
    stack = [u]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if a == u and b == v:
                continue
            if b == v:
                return True
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return False


def _removed_by_dfs(net, fraction, rng):
    """Reference: walk the shuffled edges, one DFS per candidate removal."""
    edges = edge_pairs(net)
    quota = math.ceil(fraction * len(edges))
    adj = [set(int(b) for b in net.out_edges.row(v)[0]) for v in range(net.n)]
    removed = []
    for idx in rng.permutation(len(edges)):
        if len(removed) == quota:
            break
        u, v = edges[int(idx)]
        if _connected_without(adj, u, v):
            adj[u].discard(v)
            adj[v].discard(u)
            removed.append((u, v))
    if len(removed) < quota:
        raise CorruptionError("infeasible quota")
    return set(removed)


@pytest.mark.parametrize("n, ring, fraction, seed", [
    (60, 2, 0.1, 0), (60, 4, 0.5, 1), (150, 6, 0.1, 2), (150, 6, 0.5, 3),
    (400, 10, 0.5, 4), (400, 4, 0.1, 5), (80, 2, 0.9, 6)])
def test_subtractive_corruption_matches_the_dfs_reference(n, ring, fraction,
                                                          seed):
    import networkx as nx

    graph = nx.connected_watts_strogatz_graph(n, ring, 0.3, seed=seed)
    net = Network.from_edges(list(graph.edges()), undirected=True)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        removed = _removed_by_dfs(net, fraction, ref_rng)
    except CorruptionError:
        with pytest.raises(CorruptionError):
            corrupt_network(net, "subtractive", fraction, rng)
    else:
        result = corrupt_network(net, "subtractive", fraction, rng)
        kept = [e for e in edge_pairs(net) if e not in removed]
        assert edge_pairs(result.corrupted) == kept
        non_edges = _non_edges_by_loop(result.corrupted)
        keys = candidate_pairs(result.corrupted, "subtractive")
        assert _pairs(net.n, result.flipped) == sorted(removed)
        genuine = ~np.isin(keys, result.flipped)
        assert list(zip(_pairs(net.n, keys), genuine.tolist())) == [
            (pair, pair not in removed) for pair in non_edges]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_tree_has_no_removable_edges():
    tree = Network.from_edges([(0, 1), (1, 2), (1, 3), (3, 4)], undirected=True)
    with pytest.raises(CorruptionError):
        corrupt_network(tree, "subtractive", 0.5, np.random.default_rng(0))


def test_additive_corruption_counts():
    net = cycle_network(12)
    rng = np.random.default_rng(5)
    result = corrupt_network(net, "additive", 0.5, rng)
    edges_after = edge_pairs(result.corrupted)
    assert len(edges_after) == 18  # 12 original + ceil(0.5*12)
    added = _pairs(net.n, result.flipped)
    assert len(added) == 6  # the fifty-percent-new-edges regime
    pairs = candidate_pairs(result.corrupted, "additive")
    assert _pairs(net.n, pairs) == edges_after
    assert set(added) == set(edges_after) - set(edge_pairs(net))


def test_additive_on_complete_graph_errors():
    k5 = Network.from_edges([(a, b) for a in range(5) for b in range(a + 1, 5)],
                            undirected=True)
    with pytest.raises(CorruptionError, match="non-adjacent"):
        corrupt_network(k5, "additive", 0.5, np.random.default_rng(0))


def test_corruption_requires_simple_graph():
    directed = Network.from_edges([(0, 1), (1, 2)])
    with pytest.raises(CorruptionError, match="simple"):
        corrupt_network(directed, "subtractive", 0.5, np.random.default_rng(0))


def _non_edges_by_loop(net):
    return [(u, v) for u in range(net.n) for v in range(u + 1, net.n)
            if net.weights_at(u, v) == 0]


def test_candidate_pairs_and_labels_keep_the_nested_loop_order():
    net = smallworld_network(40, 4, 0.3, seed=3)
    result = corrupt_network(net, "subtractive", 0.3, np.random.default_rng(8))
    loop = _non_edges_by_loop(result.corrupted)
    keys = candidate_pairs(result.corrupted, "subtractive")
    assert keys.dtype == np.int64
    assert keys.tolist() == [u * net.n + v for u, v in loop]
    assert result.flipped.dtype == np.int64
    assert (np.diff(result.flipped) > 0).all()
    # additive insertions index the same pool of non-adjacent pairs
    pool = _non_edges_by_loop(net)
    result = corrupt_network(net, "additive", 0.3, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    quota = math.ceil(0.3 * len(edge_pairs(net)))
    added = {pool[int(i)] for i in rng.permutation(len(pool))[:quota]}
    edges = edge_pairs(result.corrupted)
    assert set(_pairs(net.n, result.flipped)) == added <= set(edges)
    assert (np.diff(result.flipped) > 0).all()
    keys = candidate_pairs(result.corrupted, "additive")
    assert keys.dtype == np.int64
    assert keys.tolist() == [u * net.n + v for u, v in edges]


# ---------------------------------------------------------------------------
# classification and ROC
# ---------------------------------------------------------------------------


def _toy_reconstruction(corrupted, mode, rng):
    state = ReconstructionState(corrupted.n)
    us, vs = np.divmod(candidate_pairs(corrupted, mode), corrupted.n)
    state.fold_many(us, vs, rng.random(len(us)))
    return state


def test_threshold_extremes():
    net = cycle_network(8)
    rng = np.random.default_rng(6)
    result = corrupt_network(net, "additive", 0.5, rng)
    state = _toy_reconstruction(result.corrupted, "additive", rng)
    scores = state.scores(candidate_pairs(result.corrupted, "additive"))
    everything = denoise_classify(scores, np.inf)
    assert everything.all()
    nothing = denoise_classify(scores, 0.0)
    assert not nothing.any()


def test_candidate_scores_are_pair_scores_in_candidate_order():
    rng = np.random.default_rng(9)
    net = smallworld_network(20, 4, 0.2, seed=3)
    for mode in ("subtractive", "additive"):
        corrupted = corrupt_network(net, mode, 0.3, rng).corrupted
        keys = candidate_pairs(corrupted, mode)
        pairs = _pairs(net.n, keys)
        # visited in one orientation, in the other, or never
        state, ref = ReconstructionState(net.n), DictReconstruction()
        for i, (u, v) in enumerate(pairs):
            if i % 3 < 2:
                a, b = (u, v) if i % 3 else (v, u)
                block = np.array([a]), np.array([b]), np.array([rng.random()])
                state.fold_many(*block)
                ref.fold_many(*block)
        scores = state.scores(keys)
        assert scores.shape == keys.shape
        assert scores.tolist() == [ref.pair_score(u, v) for u, v in pairs]
        assert scores.tolist() == [state.pair_score(u, v) for u, v in pairs]


def test_roc_is_a_monotone_staircase_with_unit_endpoints():
    rng = np.random.default_rng(7)
    scores = rng.integers(0, 5, 60).astype(float)
    labels = rng.integers(0, 2, 60).astype(bool)
    roc = roc_auc(scores, labels, lower_is_positive=True)
    fprs = [p[1] for p in roc.points]
    tprs = [p[2] for p in roc.points]
    assert (fprs[0], tprs[0]) == (0.0, 0.0)
    assert (fprs[-1], tprs[-1]) == (1.0, 1.0)
    assert all(a <= b + 1e-12 for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(tprs, tprs[1:]))
    assert 0.0 <= roc.auc <= 1.0


def test_auc_perfect_separation_and_pure_ties():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([True, True, False, False])
    assert roc_auc(scores, labels, lower_is_positive=True).auc == 1.0
    tied = np.full(4, 0.5)
    assert roc_auc(tied, labels, lower_is_positive=True).auc == 0.5


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.booleans()), min_size=4, max_size=30))
def test_auc_equals_mann_whitney_and_flip_identity(items):
    labels = np.array([lab for _, lab in items])
    if len(set(labels.tolist())) < 2:
        return
    scores = np.array([float(s) for s, _ in items])
    for lower in (True, False):
        roc = roc_auc(scores, labels, lower_is_positive=lower)
        assert abs(roc.auc - mann_whitney_auc(scores, labels, lower)) < 1e-9
    lo = roc_auc(scores, labels, lower_is_positive=True).auc
    hi = roc_auc(scores, labels, lower_is_positive=False).auc
    assert lo + hi == pytest.approx(1.0, abs=1e-12)


def _roc_by_threshold_sweep(scores, labels, lower_is_positive):
    """Reference ROC: rescan every pair at every distinct score."""
    scores, labels = scores.tolist(), labels.tolist()
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    values = sorted(set(scores), reverse=not lower_is_positive)
    points = []
    for th in values + [math.inf if lower_is_positive else -math.inf]:
        hits = [i for i, s in enumerate(scores)
                if (s < th if lower_is_positive else s > th)]
        tp = sum(1 for i in hits if labels[i])
        points.append((th, (len(hits) - tp) / n_neg, tp / n_pos))
    fprs = np.array([p[1] for p in points])
    tprs = np.array([p[2] for p in points])
    return points, float(np.sum(np.diff(fprs) * (tprs[1:] + tprs[:-1]) / 2.0))


@pytest.mark.parametrize("n_pos", [1, 37, 199])
def test_roc_matches_a_brute_force_threshold_sweep(n_pos):
    rng = np.random.default_rng(n_pos)
    n = 200
    scores = rng.integers(0, 12, n) / 4
    labels = np.zeros(n, dtype=bool)
    labels[rng.choice(n, n_pos, replace=False)] = True
    for lower in (True, False):
        roc = roc_auc(scores, labels, lower_is_positive=lower)
        points, auc = _roc_by_threshold_sweep(scores, labels, lower)
        assert roc.points == points
        assert roc.auc == auc


def test_roc_does_not_depend_on_the_order_of_the_pairs():
    rng = np.random.default_rng(10)
    scores = rng.integers(0, 6, 80).astype(float)
    labels = rng.integers(0, 2, 80).astype(bool)
    for lower in (True, False):
        want = roc_auc(scores, labels, lower_is_positive=lower)
        for _ in range(3):
            order = rng.permutation(80)
            got = roc_auc(scores[order], labels[order],
                          lower_is_positive=lower)
            assert got.points == want.points
            assert got.auc == want.auc


def test_roc_single_class_errors():
    with pytest.raises(RocError):
        roc_auc(np.array([0.5, 0.7]), np.array([True, True]))
    with pytest.raises(ValueError, match="aligned"):
        roc_auc(np.array([0.5]), np.array([True, False]))


def test_the_corruption_mode_picks_the_tail():
    assert lower_tail_is_positive("additive") is True
    assert lower_tail_is_positive("subtractive") is False
    with pytest.raises(ValueError, match="unknown corruption mode"):
        lower_tail_is_positive("sideways")


def test_sweeping_thresholds_gives_monotone_predictions():
    rng = np.random.default_rng(8)
    net = smallworld_network(20, 4, 0.2, seed=2)
    result = corrupt_network(net, "subtractive", 0.3, rng)
    state = _toy_reconstruction(result.corrupted, "subtractive", rng)
    scores = state.scores(candidate_pairs(result.corrupted, "subtractive"))
    prev_positive = -1
    for theta in sorted(set(scores.tolist()) | {0.0, np.inf}):
        preds = denoise_classify(scores, theta)
        count = int(preds.sum())
        assert count >= prev_positive
        prev_positive = count
