import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cycle_network, dense_network, dict_network, edge_pairs,
                     empirical_distribution, path_network,
                     weighted_5node_network)
from onmf import (EdgeListError, Network, OracleSizeError,
                  SamplingError, chain_update, chain_walk_sample,
                  glauber_conditional, hom_distribution_bruteforce,
                  hom_weights, initial_homomorphism, mesoscale_patch,
                  rejection_sample_hom, tv_distance)
from onmf.networks import _acceptance


# ---------------------------------------------------------------------------
# network construction and parsing
# ---------------------------------------------------------------------------


def test_edge_list_parsing(tmp_path):
    path = tmp_path / "net.txt"
    path.write_text("# comment line\na b\nb c 2.5\n\nc a 0.5\n")
    net = Network.from_edge_list_file(path)
    assert net.labels == ["a", "b", "c"]
    assert net.weights_at(0, 1) == 1.0
    assert net.weights_at(1, 2) == 2.5
    assert net.weights_at(2, 0) == 0.5
    assert net.weights_at(1, 0) == 0.0
    undirected = Network.from_edge_list_file(path, undirected=True)
    assert undirected.weights_at(1, 0) == 1.0


def test_edge_list_errors_cite_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b\na b c d\n")
    with pytest.raises(EdgeListError, match="line 2"):
        Network.from_edge_list_file(path)
    path.write_text("a b notanumber\n")
    with pytest.raises(EdgeListError, match="line 1"):
        Network.from_edge_list_file(path)
    path.write_text("a b -2\n")
    with pytest.raises(EdgeListError, match="line 1"):
        Network.from_edge_list_file(path)


def test_duplicate_edges_accumulate():
    net = Network.from_edges([("a", "b", 1.0), ("a", "b", 2.0)])
    assert net.weights_at(0, 1) == 3.0


def test_simple_and_bidirectional_flags():
    assert cycle_network(5).is_simple
    assert cycle_network(5).is_bidirectional
    weighted = weighted_5node_network()
    assert weighted.is_bidirectional and not weighted.is_simple
    directed = Network.from_edges([(0, 1), (1, 2)])
    assert not directed.is_bidirectional and not directed.is_simple


def test_power_row_sums_match_dense_powers():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        M = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        net = dense_network(M)
        k = int(rng.integers(2, 6))
        ladder = net.power_row_sums(k)
        for j in range(k):
            expect = np.linalg.matrix_power(M, j) @ np.ones(n)
            assert np.allclose(ladder[j], expect, atol=1e-9)


# ---------------------------------------------------------------------------
# rejection sampling
# ---------------------------------------------------------------------------


def test_single_node_motif_accepts_anything():
    net = Network.from_edges([(0, 1)])
    x = rejection_sample_hom(net, 1, np.random.default_rng(0))
    assert x[0] in (0, 1)


def test_single_edge_network_pins_the_homomorphism():
    net = Network.from_edges([("u", "v")])  # one directed edge
    x = rejection_sample_hom(net, 2, np.random.default_rng(1))
    assert x == (0, 1)


def test_complete_graph_acceptance_fraction():
    # K3 with the 2-chain: 6 of the 9 ordered pairs are homomorphisms
    net = Network.from_edges(
        [(a, b) for a in range(3) for b in range(3) if a != b])
    k = 2
    valid = sum(hom_weights(net, k, [x])[0] > 0
                for x in itertools.product(range(3), repeat=2))
    assert valid == 6


def test_rejection_failure_raises():
    net = Network.from_edges([(0, 1)])  # a 3-chain needs a walk of two edges
    with pytest.raises(SamplingError, match="no homomorphism"):
        rejection_sample_hom(net, 3, np.random.default_rng(2), max_tries=200)


def test_chain_walk_sample_produces_valid_homs():
    net = weighted_5node_network()
    k = 4
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = chain_walk_sample(net, k, rng)
        assert hom_weights(net, k, [x])[0] > 0


def test_initial_homomorphism_falls_back_to_walk():
    # 60-node cycle with a 6-chain: rejection at a tight budget is hopeless
    net = cycle_network(60)
    k = 6
    x = initial_homomorphism(net, k, np.random.default_rng(4), max_tries=5)
    assert hom_weights(net, k, [x])[0] > 0


@pytest.mark.parametrize("k", [0, -1])
def test_chain_length_below_one_is_refused(k):
    net = cycle_network(4)
    rng = np.random.default_rng(0)
    for refuse in (lambda: initial_homomorphism(net, k, rng),
                   lambda: hom_distribution_bruteforce(net, k)):
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == "chain length k must be at least 1"


# ---------------------------------------------------------------------------
# Glauber chain
# ---------------------------------------------------------------------------


def test_glauber_single_node_motif_resamples_uniformly():
    net = Network.from_edges([(0, 1), (1, 2)])
    cand, probs = glauber_conditional(net, 1, (0,), 0)
    assert len(cand) == 3
    assert np.allclose(probs, 1.0 / 3.0)


def test_glauber_star_graph_conditional():
    # star: center c = 0, leaves 1..4; resampling node 0 of a 2-chain with
    # x(2) = center gives the uniform law over the center's neighbors
    edges = [(0, leaf) for leaf in range(1, 5)]
    net = Network.from_edges(edges, undirected=True)
    cand, probs = glauber_conditional(net, 2, (1, 0), 0)
    assert sorted(int(c) for c in cand) == [1, 2, 3, 4]
    assert np.allclose(probs, 0.25)


def test_glauber_preserves_homomorphism_validity():
    net = weighted_5node_network()
    k = 3
    rng = np.random.default_rng(5)
    x = rejection_sample_hom(net, k, rng)
    for _ in range(2000):
        x = chain_update(net, k, x, rng, "glauber")
        assert hom_weights(net, k, [x])[0] > 0


def test_glauber_matches_uniform_on_odd_cycle():
    # C5 is non-bipartite, so the chain is irreducible over all homomorphisms
    net = cycle_network(5)
    k = 3
    oracle = hom_distribution_bruteforce(net, k)
    assert len(oracle) == 20
    rng = np.random.default_rng(6)
    x = rejection_sample_hom(net, k, rng)
    counts = {}
    for _ in range(100000):
        x = chain_update(net, k, x, rng, "glauber")
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


def test_glauber_on_even_cycles_conserves_endpoint_parity():
    # single-site resampling cannot change the bipartition class of the
    # images, so on C6 only half of Hom(F, G) is reachable from one start
    net = cycle_network(6)
    k = 3
    rng = np.random.default_rng(7)
    x = (0, 1, 2)
    for _ in range(5000):
        x = chain_update(net, k, x, rng, "glauber")
        assert x[0] % 2 == 0 and x[1] % 2 == 1 and x[2] % 2 == 0


def test_glauber_is_uniform_within_the_reachable_class_on_c6():
    # the parity obstruction splits Hom(3-chain, C6) into two closed classes
    # of 12; within the start's class the chain is exactly uniform
    net = cycle_network(6)
    k = 3
    full = hom_distribution_bruteforce(net, k)
    start = (0, 1, 2)
    reachable = {x for x in full
                 if x[0] % 2 == 0 and x[1] % 2 == 1 and x[2] % 2 == 0}
    assert len(reachable) == 12
    oracle = {x: 1.0 / len(reachable) for x in reachable}
    rng = np.random.default_rng(14)
    x = start
    counts = {}
    for _ in range(100000):
        x = chain_update(net, k, x, rng, "glauber")
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


# ---------------------------------------------------------------------------
# Pivot chain
# ---------------------------------------------------------------------------


def test_symmetric_network_in_out_ratio_is_one():
    net = weighted_5node_network()
    assert np.allclose(net.in_sums, net.out_sums)
    for v in range(net.n):
        for ell, w in zip(*net.out_edges.row(v)):
            assert _acceptance(net, 3, v, int(ell), float(w), False) == 1.0


def test_regular_graph_exact_acceptance_is_one():
    net = cycle_network(6)  # 2-regular
    k = 3
    for v in range(6):
        for ell, w in zip(*net.out_edges.row(v)):
            assert _acceptance(net, k, v, int(ell), float(w), True) == 1.0


def test_pivot_acceptance_clamped_to_unit_interval():
    net = weighted_5node_network()
    k = 4
    for v in range(net.n):
        for ell, w in zip(*net.out_edges.row(v)):
            for exact in (True, False):
                lam = _acceptance(net, k, v, int(ell), float(w), exact)
                assert 0.0 <= lam <= 1.0


def test_pivot_preserves_homomorphism_validity():
    net = weighted_5node_network()
    k = 3
    rng = np.random.default_rng(9)
    x = rejection_sample_hom(net, k, rng)
    for mode in ("pivot", "pivot-approx"):
        y = x
        for _ in range(2000):
            y = chain_update(net, k, y, rng, mode)
            assert hom_weights(net, k, [y])[0] > 0


def test_pivot_dead_end_returns_input():
    net = Network.from_edges([(0, 1)])  # node 1 has no outgoing edge
    k = 2
    assert chain_update(net, k, (1, 0), np.random.default_rng(10),
                        "pivot") == (1, 0)


@pytest.mark.parametrize("x", [(1, 0), (0, 1)], ids=["dead-end", "live"])
def test_pivot_rejects_an_unknown_mode_before_drawing(x):
    net = Network.from_edges([(0, 1)])  # node 1 has no outgoing edge
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown MCMC mode 'bogus'"):
        chain_update(net, 2, x, rng, "bogus")
    assert rng.bit_generator.state == state


def test_pivot_exact_matches_motif_distribution():
    net = weighted_5node_network()
    k = 3
    oracle = hom_distribution_bruteforce(net, k)
    rng = np.random.default_rng(11)
    x = rejection_sample_hom(net, k, rng)
    counts = {}
    steps = 100000
    for _ in range(steps):
        x = chain_update(net, k, x, rng, "pivot")
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


def test_pivot_exact_is_unbiased_on_irregular_simple_graphs():
    net = path_network(3)
    k = 2
    oracle = hom_distribution_bruteforce(net, k)
    rng = np.random.default_rng(12)
    x = rejection_sample_hom(net, k, rng)
    counts = {}
    for _ in range(50000):
        x = chain_update(net, k, x, rng, "pivot")
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


# ---------------------------------------------------------------------------
# brute-force oracle, patches, total variation
# ---------------------------------------------------------------------------


def test_oracle_uniform_on_binary_networks():
    net = cycle_network(4)
    oracle = hom_distribution_bruteforce(net, 3)
    assert len(oracle) == 16  # 4 * 2 * 2
    assert all(p == pytest.approx(1 / 16) for p in oracle.values())


def test_oracle_directed_cycle():
    net = Network.from_edges([(i, (i + 1) % 4) for i in range(4)])
    oracle = hom_distribution_bruteforce(net, 2)
    assert len(oracle) == 4
    assert all(p == pytest.approx(0.25) for p in oracle.values())


def test_oracle_guard_and_empty_hom_set():
    big = dense_network(np.ones((60, 60)))
    with pytest.raises(OracleSizeError):
        hom_distribution_bruteforce(big, 5)
    empty = Network.from_edges([(0, 1)])
    with pytest.raises(SamplingError):
        hom_distribution_bruteforce(empty, 3)


def test_oracle_weights_follow_products():
    net = weighted_5node_network()
    k = 2
    oracle = hom_distribution_bruteforce(net, k)
    z = sum(hom_weights(net, k, [x])[0]
            for x in itertools.product(range(5), repeat=2))
    assert oracle[(0, 1)] == pytest.approx(net.weights_at(0, 1) / z)


def test_mesoscale_patch_chain_pattern():
    net = cycle_network(6)
    k = 3
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    for x in hom_distribution_bruteforce(net, k):
        assert np.array_equal(mesoscale_patch(net, x), expected)


def test_mesoscale_patch_diagonal_zero_on_simple_graphs():
    net = cycle_network(7)
    k = 4
    rng = np.random.default_rng(13)
    x = rejection_sample_hom(net, k, rng)
    for _ in range(200):
        x = chain_update(net, k, x, rng, "pivot")
        patch = mesoscale_patch(net, x)
        assert np.all(np.diag(patch) == 0.0)
        assert np.all(patch[np.arange(3), np.arange(1, 4)] == 1.0)
        assert np.all(patch[np.arange(1, 4), np.arange(3)] == 1.0)


def test_tv_distance_basic_cases():
    assert tv_distance({0: 1.0}, {0: 1.0}) == 0.0
    assert tv_distance({0: 1.0}, {1: 1.0}) == 1.0
    assert tv_distance({0: 1.0, 1: 0.0}, {0: 0.5, 1: 0.5}) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="sum to one"):
        tv_distance({0: 0.7}, {0: 1.0})


@settings(max_examples=50, deadline=None)
@given(weights=st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=2, max_size=6),
       weights2=st.lists(st.floats(min_value=1e-3, max_value=1.0),
                         min_size=2, max_size=6))
def test_tv_distance_properties(weights, weights2):
    n = min(len(weights), len(weights2))
    p = dict(enumerate(np.array(weights[:n]) / sum(weights[:n])))
    q = dict(enumerate(np.array(weights2[:n]) / sum(weights2[:n])))
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(tv_distance(q, p))
    assert tv_distance(p, p) == 0.0


# ---------------------------------------------------------------------------
# CSR core against the dict-and-loop reference
# ---------------------------------------------------------------------------
#
# RefNetwork and the ref_* functions are the network layer as it was before
# the CSR core: a dict of positive weights, per-node (targets, weights,
# cumsum) tuples and per-candidate loops.  The CSR code must agree with them
# exactly.


class RefNetwork:
    def __init__(self, n, weights, labels=None):
        if n < 1:
            raise ValueError("network needs at least one node")
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n:
            raise ValueError("label count must match node count")
        self.n = n
        self.weights = {}
        for (a, b), w in weights.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("edge endpoint out of range")
            w = float(w)
            if not np.isfinite(w) or w < 0:
                raise ValueError("edge weights must be finite and nonnegative")
            if w > 0:
                self.weights[(int(a), int(b))] = w
        self.out, self.inn = [], []
        for dest, flip in ((self.out, False), (self.inn, True)):
            lists = [[] for _ in range(n)]
            for (a, b), w in self.weights.items():
                lists[b if flip else a].append((a if flip else b, w))
            for items in lists:
                items.sort()
                tgt = np.array([t for t, _ in items], dtype=np.int64)
                wts = np.array([w for _, w in items], dtype=float)
                dest.append((tgt, wts, np.cumsum(wts)))
        self.out_sums = np.array([c[-1] if len(c) else 0.0 for _, _, c in self.out])
        self.in_sums = np.array([c[-1] if len(c) else 0.0 for _, _, c in self.inn])

    def weight(self, a, b):
        return self.weights.get((a, b), 0.0)

    @property
    def is_simple(self):
        return all(a != b and w == 1.0 and self.weights.get((b, a)) == 1.0
                   for (a, b), w in self.weights.items())

    @property
    def is_bidirectional(self):
        return all((b, a) in self.weights for (a, b) in self.weights)

    def undirected_edges(self):
        return sorted({(min(a, b), max(a, b)) for (a, b) in self.weights if a != b})


def ref_from_edges(edges, undirected=False):
    index, labels, weights = {}, [], {}

    def intern(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(str(label))
        return index[label]

    for edge in edges:
        u, v = intern(edge[0]), intern(edge[1])
        w = float(edge[2]) if len(edge) > 2 else 1.0
        weights[(u, v)] = weights.get((u, v), 0.0) + w
        if undirected and u != v:
            weights[(v, u)] = weights.get((v, u), 0.0) + w
    return RefNetwork(len(labels), weights, labels)


def ref_ladder(ref, k):
    """Row sums of A^j, each a sequential sum over the row's edges."""
    ladder = np.ones((k, ref.n))
    for j in range(1, k):
        for v in range(ref.n):
            acc = 0.0
            for b, w in zip(*ref.out[v][:2]):
                acc += w * ladder[j - 1][b]
            ladder[j, v] = acc
    return ladder


def chain_edges(k):
    """The k-chain's edges (i, i + 1), in chain order."""
    return [(i, i + 1) for i in range(k - 1)]


def ref_hom_weight(ref, k, x):
    total = 1.0
    for i, j in chain_edges(k):
        a = ref.weight(x[i], x[j])
        if a <= 0.0:
            return 0.0
        total *= a
    return total


def ref_glauber_conditional(ref, k, x, v):
    out_terms = [x[i] for i, j in chain_edges(k) if j == v]
    in_terms = [x[j] for i, j in chain_edges(k) if i == v]
    if not out_terms and not in_terms:
        return np.arange(ref.n), np.full(ref.n, 1.0 / ref.n)
    pools = [ref.out[u][0] for u in out_terms]
    pools += [ref.inn[u][0] for u in in_terms]
    cand = min(pools, key=len)
    weights = np.ones(len(cand))
    for idx, w_node in enumerate(cand):
        p = 1.0
        for u in out_terms:
            a = ref.weight(u, int(w_node))
            if a <= 0.0:
                p = 0.0
                break
            p *= a
        if p > 0.0:
            for u in in_terms:
                a = ref.weight(int(w_node), u)
                if a <= 0.0:
                    p = 0.0
                    break
                p *= a
        weights[idx] = p
    return cand, weights / float(weights.sum())


def ref_rejection(ref, k, rng, max_tries):
    """One try at a time; returns (map or None, tries drawn)."""
    for t in range(max_tries):
        x = tuple(int(v) for v in rng.integers(0, ref.n, size=k))
        if ref_hom_weight(ref, k, x) > 0:
            return x, t + 1
    return None, max_tries


def _random_weighted(rng, n, density, loops=True, isolated=0):
    """Directed weighted edge list on n nodes plus `isolated` unused ones;
    repeats some pairs so that duplicates accumulate."""
    edges = []
    for a in range(n):
        for b in range(n):
            if (loops or a != b) and rng.random() < density:
                edges.append((a, b, float(rng.choice([1.0, rng.random() * 3]))))
    edges += [edges[int(i)] for i in rng.integers(len(edges), size=len(edges) // 4)]
    weights = {}
    for a, b, w in edges:
        weights[(a, b)] = weights.get((a, b), 0.0) + w
    return n + isolated, weights


def _pair_cases():
    rng = np.random.default_rng(20)
    cases = []
    for n, density, isolated in ((1, 0.9, 0), (5, 0.5, 2), (12, 0.3, 3),
                                 (40, 0.15, 0), (30, 0.02, 10)):
        n_all, weights = _random_weighted(rng, n, density, isolated=isolated)
        cases.append((n_all, weights))
    cases.append((4, {(0, 1): 0.0, (2, 3): 0.0}))           # no positive weight
    cases.append((3, {(0, 1): 2.0, (1, 1): 0.0, (2, 0): 0.5, (1, 2): 0.0}))
    sym = {}
    for a, b in ((0, 1), (1, 2), (2, 0), (2, 3)):
        sym[(a, b)] = sym[(b, a)] = 1.0
    cases.append((5, sym))                                   # simple, isolated 4
    return cases


@pytest.mark.parametrize("case", range(len(_pair_cases())))
def test_csr_core_matches_the_dict_reference(case):
    n, weights = _pair_cases()[case]
    net, ref = dict_network(n, weights), RefNetwork(n, weights)
    nodes = np.arange(n)
    full = np.array([[ref.weight(a, b) for b in range(n)] for a in range(n)])
    assert np.array_equal(net.weights_at(nodes[:, None], nodes[None, :]), full)
    assert len(net.out_edges.indices) == len(ref.weights)
    for v in range(n):
        assert np.array_equal(net.out_edges.row(v)[0], ref.out[v][0])
        assert np.array_equal(net.in_edges.row(v)[0], ref.inn[v][0])
        s, e = net.out_edges.indptr[v], net.out_edges.indptr[v + 1]
        assert np.array_equal(net.out_edges.weights[s:e], ref.out[v][1])
        assert np.array_equal(net.out_edges.cum[s:e], ref.out[v][2])
        s, e = net.in_edges.indptr[v], net.in_edges.indptr[v + 1]
        assert np.array_equal(net.in_edges.cum[s:e], ref.inn[v][2])
    assert np.array_equal(net.out_sums, ref.out_sums)
    assert np.array_equal(net.in_sums, ref.in_sums)
    assert net.is_simple == ref.is_simple
    assert net.is_bidirectional == ref.is_bidirectional
    if ref.is_bidirectional:
        assert edge_pairs(net) == ref.undirected_edges()
    rng = np.random.default_rng(case)
    for k in (1, 3, 5):
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(0, n, size=k))
            expect = np.array([[ref.weight(a, b) for b in x] for a in x])
            assert np.array_equal(mesoscale_patch(net, x), expect)
        maps = rng.integers(0, n, size=(7, k))
        stacked = mesoscale_patch(net, maps)
        assert stacked.shape == (7, k, k)
        for x, patch in zip(maps, stacked):
            assert np.array_equal(patch, mesoscale_patch(net, x))


def test_undirected_pairs_set_each_orientation_once():
    pairs = [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1)]
    weights = {}
    for u, v in pairs:
        weights[(u, v)] = weights[(v, u)] = 1.0
    net, ref = Network.from_undirected_pairs(5, pairs), RefNetwork(5, weights)
    assert len(net.out_edges.indices) == len(ref.weights) == 5
    nodes = np.arange(5)
    assert np.array_equal(net.weights_at(nodes[:, None], nodes[None, :]),
                          [[ref.weight(a, b) for b in range(5)]
                           for a in range(5)])


def test_from_edges_accumulates_like_the_dict_reference():
    rng = np.random.default_rng(21)
    labels = [f"v{i}" for i in range(15)]
    edges = [(labels[int(a)], labels[int(b)], float(rng.random()))
             for a, b in rng.integers(0, 15, size=(120, 2))]
    edges += [(labels[int(a)], labels[int(b)]) for a, b in rng.integers(0, 15, size=(20, 2))]
    for undirected in (False, True):
        net = Network.from_edges(edges, undirected=undirected)
        ref = ref_from_edges(edges, undirected=undirected)
        assert net.labels == [str(lab) for lab in dict.fromkeys(
            lab for e in edges for lab in e[:2])]
        assert len(net.out_edges.indices) == len(ref.weights)
        for (a, b), w in ref.weights.items():
            assert net.weights_at(a, b) == w


def test_power_row_sums_and_tail_tables_are_sequential_row_sums():
    rng = np.random.default_rng(22)
    n, weights = _random_weighted(rng, 25, 0.4)
    net, ref = dict_network(n, weights), RefNetwork(n, weights)
    k = 5
    ladder = net.power_row_sums(k)
    assert np.array_equal(ladder, ref_ladder(ref, k))
    tables = net.tail_cdfs(k)
    assert tables.shape == (k - 1, len(net.out_edges.indices))
    for j in range(k - 1):
        for v in range(n):
            tgt, wts, _ = ref.out[v]
            s, e = net.out_edges.indptr[v], net.out_edges.indptr[v + 1]
            assert np.array_equal(tables[j, s:e], np.cumsum(wts * ladder[j][tgt]))


def test_patches_above_the_old_dense_limit():
    n = 4001
    net = cycle_network(n)
    x = (0, 1, 2, 4000, 17)
    expect = np.array([[1.0 if (a - b) % n in (1, n - 1) else 0.0 for b in x]
                       for a in x])
    assert np.array_equal(mesoscale_patch(net, x), expect)


def test_network_arrays_are_read_only():
    net = weighted_5node_network()
    for arr in (net.out_edges.weights, net.in_edges.indices, net.out_edges.cum):
        with pytest.raises(ValueError):
            arr[0] = 9.0


# (k, directed): every chain length from 1 to 4, on directed weighted networks
# and on symmetric ones
CHAIN_CASES = [(1, True), (2, False), (3, True), (3, False), (4, True)]


def _weighted_pair(rng, n, density, directed, isolated=0):
    """A random weighted network and its dict reference, with weights drawn
    afresh and, unless `directed`, made symmetric."""
    size, weights = _random_weighted(rng, n, density, isolated=isolated)
    weights = {pair: float(rng.random() * 3) for pair in weights}
    if not directed:
        weights = {pair: w for (a, b), w in weights.items()
                   for pair in ((a, b), (b, a))}
    return dict_network(size, weights), RefNetwork(size, weights)


@pytest.mark.parametrize("case", range(len(CHAIN_CASES)))
def test_glauber_conditional_matches_the_per_candidate_loop(case):
    k, directed = CHAIN_CASES[case]
    rng = np.random.default_rng(24 + case)
    ties = 0    # inner nodes whose two rows differ but have equal sizes
    for n, density in ((6, 0.6), (9, 0.45)):
        net, ref = _weighted_pair(rng, n, density, directed)
        homs = [x for x in itertools.product(range(net.n), repeat=k)
                if ref_hom_weight(ref, k, x) > 0]
        assert homs
        for idx in rng.permutation(len(homs))[:40]:
            x = homs[int(idx)]
            for v in range(k):
                cand, probs = glauber_conditional(net, k, x, v)
                ref_cand, ref_probs = ref_glauber_conditional(ref, k, x, v)
                assert np.array_equal(cand, ref_cand)
                assert np.array_equal(probs, ref_probs)
                if 0 < v < k - 1:
                    into, out = ref.out[x[v - 1]][0], ref.inn[x[v + 1]][0]
                    ties += (len(into) == len(out)
                             and not np.array_equal(into, out))
    assert k < 3 or ties


@pytest.mark.parametrize("case", range(len(CHAIN_CASES)))
def test_bruteforce_oracle_matches_the_enumeration_loop(case):
    k, directed = CHAIN_CASES[case]
    net, ref = _weighted_pair(np.random.default_rng(30 + case), 7, 0.5,
                              directed)
    table = {}
    for x in itertools.product(range(net.n), repeat=k):
        w = ref_hom_weight(ref, k, x)
        if w > 0:
            table[x] = w
    total = sum(table.values())
    oracle = hom_distribution_bruteforce(net, k)
    assert list(oracle.items()) == [(x, w / total) for x, w in table.items()]


def _ref_sample_cdf(rng, cum):
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)


def ref_pivot_update(ref, ladder, k, x, rng, mode):
    v = x[0]
    if ref.out_sums[v] <= 0.0:
        return x
    tgt, wts, cum = ref.out[v]
    ell = int(tgt[_ref_sample_cdf(rng, cum)])
    if mode == "pivot-approx":
        lam = min(1.0, float(ref.in_sums[v] / ref.out_sums[v]))
    else:
        rp = ladder[k - 1]
        num = rp[ell] * ref.weight(ell, v) * ref.out_sums[v]
        den = rp[v] * ref.weight(v, ell) * ref.out_sums[ell]
        lam = 0.0 if den <= 0.0 else min(1.0, float(num / den))
    if rng.random() > lam:
        return x
    new = [ell]
    for i in range(1, k):
        tgt, wts, cum = ref.out[new[-1]]
        if not len(tgt):
            return x
        if mode == "pivot":
            ext = wts * ladder[k - 1 - i][tgt]
            if float(ext.sum()) <= 0.0:
                return x
            new.append(int(tgt[_ref_sample_cdf(rng, np.cumsum(ext))]))
        else:
            new.append(int(tgt[_ref_sample_cdf(rng, cum)]))
    return tuple(new)


def ref_glauber_update(ref, k, x, rng):
    v = int(rng.integers(k))
    cand, probs = ref_glauber_conditional(ref, k, x, v)
    new = list(x)
    new[v] = int(cand[_ref_sample_cdf(rng, np.cumsum(probs))])
    return tuple(new)


@pytest.mark.parametrize("mode", ["pivot", "pivot-approx", "glauber"])
def test_chain_trajectories_match_the_reference(mode):
    rng = np.random.default_rng(25)
    size, weights = _random_weighted(rng, 14, 0.3, loops=False, isolated=2)
    for (a, b), w in list(weights.items()):   # mostly two-way, a few one-way
        if rng.random() < 0.8:
            weights[(b, a)] = w
    net, ref = dict_network(size, weights), RefNetwork(size, weights)
    k = 4
    ladder = ref_ladder(ref, k)
    x = y = rejection_sample_hom(net, k, np.random.default_rng(0))
    rng_new, rng_ref = np.random.default_rng(26), np.random.default_rng(26)
    moves = 0
    for _ in range(3000):
        moved = chain_update(net, k, x, rng_new, mode)
        moves += moved != x
        x = moved
        if mode == "glauber":
            y = ref_glauber_update(ref, k, y, rng_ref)
        else:
            y = ref_pivot_update(ref, ladder, k, y, rng_ref, mode)
        assert x == y
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    assert mode == "glauber" or moves > 300
    if mode != "glauber":
        return
    # every chain length on rows long enough (8 and more) that numpy's
    # pairwise total differs from a sequential sum; the conditional along the
    # way must match exactly.
    for case, (k, directed) in enumerate(CHAIN_CASES):
        net, ref = _weighted_pair(rng, 12, 0.75, directed, isolated=1)
        x = y = rejection_sample_hom(net, k, np.random.default_rng(case))
        rng_new = np.random.default_rng(27 + case)
        rng_ref = np.random.default_rng(27 + case)
        for _ in range(300):
            x = chain_update(net, k, x, rng_new, "glauber")
            y = ref_glauber_update(ref, k, y, rng_ref)
            assert x == y
            for v in range(k):
                probs = glauber_conditional(net, k, x, v)[1]
                assert np.array_equal(probs, ref_glauber_conditional(ref, k, x, v)[1])
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("n", [3, 200, 5000, 2 ** 31 + 7, 2 ** 33])
def test_batched_integer_draws_equal_separate_draws(n):
    # rejection_sample_hom relies on this property of numpy's Generator
    one, many = np.random.default_rng(n), np.random.default_rng(n)
    rows = np.array([one.integers(0, n, size=3) for _ in range(101)])
    assert np.array_equal(many.integers(0, n, size=(101, 3)), rows)
    assert one.bit_generator.state == many.bit_generator.state


def _rejection_pair(ref_net, net, k, seed, max_tries):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expect, used = ref_rejection(ref_net, k, ref_rng, max_tries)
    if expect is None:
        with pytest.raises(SamplingError, match="no homomorphism"):
            rejection_sample_hom(net, k, rng, max_tries=max_tries)
    else:
        assert rejection_sample_hom(net, k, rng, max_tries=max_tries) == expect
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return used, expect is not None


def test_rejection_sampling_matches_one_try_at_a_time():
    from onmf.networks import _REJECTION_CHUNK as chunk
    # one directed edge among 40 nodes: a 2-chain try hits with p = 1/1600
    sparse = {(3, 7): 1.0}
    net, ref = dict_network(40, sparse), RefNetwork(40, sparse)
    k = 2
    seen = set()
    for seed in range(60):
        used, hit = _rejection_pair(ref, net, k, seed, 3 * chunk + 37)
        if hit and used <= chunk:
            seen.add("first chunk")
        elif hit and used <= 3 * chunk:
            seen.add("later chunk")
        elif hit:
            seen.add("partial last chunk")
        else:
            seen.add("no hit")
    assert seen == {"first chunk", "later chunk", "partial last chunk", "no hit"}
    # a dense network hits on the first try; a 3-chain on one edge never hits
    dense_net = weighted_5node_network()
    dense_ref = ref_from_edges([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0),
                                (2, 0, 0.5), (0, 2, 0.5), (2, 3, 1.5), (3, 2, 1.5),
                                (3, 4, 1.0), (4, 3, 1.0), (4, 0, 2.5), (0, 4, 2.5)])
    assert _rejection_pair(dense_ref, dense_net, 3, 1, 50)[1]
    assert not _rejection_pair(ref, net, 3, 2, chunk + 5)[1]


# ---------------------------------------------------------------------------
# input validation: every constructor, the same exception and message
# ---------------------------------------------------------------------------

RANGE = (ValueError, "edge endpoint out of range")
WEIGHT = (ValueError, "edge weights must be finite and nonnegative")
LABELS = (ValueError, "label count must match node count")
EMPTY = (ValueError, "network needs at least one node")
LENGTHS = (ValueError, "src, dst and weights must have equal lengths")
SHAPE = (ValueError, "src, dst and weights must be one-dimensional")
INTEGER = (ValueError, "edge endpoints must be integers")
REPEAT = (ValueError, "each (src, dst) pair may appear only once")


def _write(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    return path


VALIDATION_CASES = [
    ("init-range-high", lambda p: Network(3, [0], [3], [1.0]), RANGE),
    ("init-range-negative", lambda p: Network(3, [-1], [0], [1.0]), RANGE),
    ("init-negative", lambda p: Network(3, [0], [1], [-1.0]), WEIGHT),
    ("init-nan", lambda p: Network(3, [0], [1], [float("nan")]), WEIGHT),
    ("init-inf", lambda p: Network(3, [0], [1], [float("inf")]), WEIGHT),
    ("init-first-bad-is-weight",
     lambda p: Network(3, [0, 0], [1, 5], [-1.0, 1.0]), WEIGHT),
    ("init-first-bad-is-range",
     lambda p: Network(3, [0, 0], [5, 1], [1.0, -1.0]), RANGE),
    ("init-labels", lambda p: Network(3, [], [], [], labels=["a"]), LABELS),
    ("init-empty", lambda p: Network(0, [], [], []), EMPTY),
    ("init-lengths", lambda p: Network(3, [0, 1], [1], [1.0]), LENGTHS),
    ("init-2d-ends", lambda p: Network(3, [[0, 1]], [[1, 2]], [1.0]), SHAPE),
    ("init-2d-all", lambda p: Network(3, [[0, 1], [1, 2]], [[1, 2], [2, 0]],
                                      [[1.0, 1.0], [1.0, 1.0]]), SHAPE),
    ("init-2d-weights", lambda p: Network(3, [0], [1], [[1.0]]), SHAPE),
    ("init-fractional-src",
     lambda p: Network(3, [0.7, 1], [1, 2], [1.0, 1.0]), INTEGER),
    ("init-float-dst", lambda p: Network(3, [0], [1.0], [1.0]), INTEGER),
    ("init-repeated-pair",
     lambda p: Network(3, [0, 0], [1, 1], [1.0, 2.0]), REPEAT),
    ("init-repeated-zero-pair",
     lambda p: Network(3, [0, 2, 0], [1, 0, 1], [0.0, 1.0, 2.0]), REPEAT),
    ("pairs-range", lambda p: Network.from_undirected_pairs(3, [(0, 3)]), RANGE),
    ("pairs-range-negative",
     lambda p: Network.from_undirected_pairs(3, [(0, 1), (-1, 2)]), RANGE),
    ("pairs-labels",
     lambda p: Network.from_undirected_pairs(2, [(0, 1)], labels=["a"]), LABELS),
    ("pairs-empty", lambda p: Network.from_undirected_pairs(0, []), EMPTY),
    ("edges-negative", lambda p: Network.from_edges([("a", "b", -1.0)]), WEIGHT),
    ("edges-nan", lambda p: Network.from_edges([("a", "b", float("nan"))]),
     WEIGHT),
    ("edges-inf", lambda p: Network.from_edges([("a", "b", float("inf"))]),
     WEIGHT),
    ("edges-none", lambda p: Network.from_edges([]),
     (EdgeListError, "no edges found")),
    ("file-negative", lambda p: Network.from_edge_list_file(_write(p, "a b -1\n")),
     (EdgeListError, "line 1: weight must be nonnegative")),
    ("file-nan", lambda p: Network.from_edge_list_file(_write(p, "a b 1\nb c nan\n")),
     (EdgeListError, "line 2: weight must be nonnegative")),
    ("file-inf", lambda p: Network.from_edge_list_file(_write(p, "a b inf\n")),
     (EdgeListError, "line 1: weight must be nonnegative")),
    ("file-none", lambda p: Network.from_edge_list_file(_write(p, "# only\n")),
     (EdgeListError, "no edges found")),
]


@pytest.mark.parametrize("build, expected",
                         [case[1:] for case in VALIDATION_CASES],
                         ids=[case[0] for case in VALIDATION_CASES])
def test_constructors_validate_with_the_same_messages(tmp_path, build, expected):
    exc_type, message = expected
    with pytest.raises(exc_type) as info:
        build(tmp_path)
    assert type(info.value) is exc_type
    assert message in str(info.value)
    if exc_type is ValueError:
        assert str(info.value) == message
