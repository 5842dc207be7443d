import bisect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cycle_network, dense_network, dict_network, edge_pairs,
                     empirical_distribution, path_network, ref_rejection,
                     reference_edge_list, same_network, smallworld_network,
                     weighted_5node_network)
from onmf import (EdgeListError, MotifChain, Network, OracleSizeError,
                  SamplingError, chain_update, glauber_conditional,
                  hom_distribution_bruteforce, hom_weights,
                  initial_homomorphism, mesoscale_patch, sample_homomorphisms,
                  tv_distance)
from onmf import networks
from onmf.networks import MCMC_MODES, chain_steps


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


# Pieces of generated edge-list files.  Separators are whitespace to
# ``str.split`` but no line break to a text file; '#x' is a label unless it
# leads its line; 'n' and 'n\x00' are two labels; '1_0' is a float to Python.
NODE_NAMES = ["a", "b", "\xe9", "\u8282\u70b9", "n", "n\x00", "0", "00", "#x",
              "a_b"]
SEPARATORS = [" ", "\t", "\x0c", "\xa0", "\x0b", "\x1c", "\x85", "\u2028",
              "\u3000", " \t "]
WEIGHTS = ["1", "2.5", "1e3", "1_0", "0", "-0.0", "1E-2", "+4"]
BAD_WEIGHTS = ["x", "1__0", "--1", "0x10", "1,5"]
NEGATIVE_WEIGHTS = ["-1", "nan", "inf", "-inf", "-1e-300"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def edge_list_texts(draw, bad_lines: int):
    """Text of an edge-list file with blank, comment and edge lines, and
    `bad_lines` malformed lines of any of the three kinds at drawn places."""
    pad = st.sampled_from(["", " ", "\t", "\xa0 "])
    label = st.sampled_from(NODE_NAMES)
    first_label = st.sampled_from([name for name in NODE_NAMES if name != "#x"])

    def tokens_line(tokens):
        seps = draw(st.lists(st.sampled_from(SEPARATORS),
                             min_size=len(tokens), max_size=len(tokens)))
        body = "".join(sep + tok for sep, tok in zip(seps, tokens))
        return draw(pad) + body[len(seps[0]):] + draw(pad)

    def good_line():
        kind = draw(st.sampled_from(["blank", "comment", "edge", "edge"]))
        if kind == "blank":
            return draw(pad)
        if kind == "comment":
            return draw(pad) + "#" + "".join(draw(st.lists(
                st.sampled_from(NODE_NAMES + SEPARATORS), max_size=3)))
        ends = [draw(label), draw(label)]
        if draw(st.booleans()):
            ends.append(draw(st.sampled_from(WEIGHTS)))
        return tokens_line(ends)

    def bad_line():
        # a bad line cannot lead with '#x': that would make it a comment
        width = draw(st.sampled_from([1, 4, 3, 3]))
        tokens = [draw(first_label)]
        tokens += [draw(label) for _ in range(min(width, 2) - 1)]
        if width == 4:
            tokens += [draw(label), draw(label)]
        elif width == 3:
            tokens.append(draw(st.sampled_from(BAD_WEIGHTS + NEGATIVE_WEIGHTS)))
        return tokens_line(tokens)

    lines = [good_line() for _ in range(draw(st.integers(0, 12)))]
    for _ in range(bad_lines):
        lines.insert(draw(st.integers(0, len(lines))), bad_line())
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""   # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends))


def _both_loaders(path, undirected):
    """The loader's and the per-line reference's network, or their errors."""
    out = []
    for load in (Network.from_edge_list_file, reference_edge_list):
        try:
            out.append(load(path, undirected=undirected))
        except ValueError as exc:
            out.append((type(exc), str(exc)))
    return out


@settings(max_examples=200, deadline=None)
@given(text=edge_list_texts(bad_lines=0))
def test_edge_list_loader_matches_the_per_line_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    for undirected in (False, True):
        net, ref = _both_loaders(path, undirected)
        if isinstance(ref, Network):
            assert same_network(net, ref)
        else:
            assert net == ref == (EdgeListError, f"{path}: no edges found")


@settings(max_examples=200, deadline=None)
@given(text=edge_list_texts(bad_lines=3))
def test_edge_list_loader_reports_the_references_first_bad_line(
        tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    net, ref = _both_loaders(path, False)
    assert ref[0] is EdgeListError and net == ref


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


def scaled_rows(ladder):
    """`ladder` with each row after the first times 2^-e, e the exponent
    ``np.frexp`` gives the row's maximum, as `Network.power_row_sums` scales
    its rows."""
    ladder = np.array(ladder, dtype=float)
    for row in ladder[1:]:
        row[:] = np.ldexp(row, -np.frexp(row.max())[1])
    return ladder


def test_power_row_sums_match_dense_powers():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        M = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        net = dense_network(M)
        k = int(rng.integers(2, 6))
        ladder = net.power_row_sums(k)
        expect = scaled_rows([np.linalg.matrix_power(M, j) @ np.ones(n)
                              for j in range(k)])
        assert np.allclose(ladder, expect, rtol=1e-12, atol=0.0)
        ref = RefNetwork(n, {(a, b): M[a, b] for a, b in zip(*np.nonzero(M))})
        assert ladder.tobytes() == scaled_rows(ref_ladder(ref, k)).tobytes()


# ---------------------------------------------------------------------------
# exact sampling
# ---------------------------------------------------------------------------


def test_single_node_motif_accepts_anything():
    net = Network.from_edges([(0, 1)])
    x = initial_homomorphism(net, 1, np.random.default_rng(0))
    assert x[0] in (0, 1)


def test_single_edge_network_pins_the_homomorphism():
    net = Network.from_edges([("u", "v")])  # one directed edge
    x = initial_homomorphism(net, 2, np.random.default_rng(1))
    assert x == (0, 1)


def test_complete_graph_acceptance_fraction():
    # K3 with the 2-chain: 6 of the 9 ordered pairs are homomorphisms
    net = Network.from_edges(
        [(a, b) for a in range(3) for b in range(3) if a != b])
    k = 2
    valid = sum(hom_weights(net, k, [x])[0] > 0
                for x in itertools.product(range(3), repeat=2))
    assert valid == 6


# Draws per sampler check, and the chance that one check fails although the
# sampler is exact.  With m draws from a law p on the states s, the expected
# TV of their empirical law is at most 0.5 * sum_s sqrt(p(s) (1 - p(s)) / m),
# and one draw moves the TV by at most 1 / m, so by McDiarmid's inequality
# the TV passes that mean by more than sqrt(ln(1 / FALSE_ALARM) / (2 m)) with
# probability at most FALSE_ALARM.
DRAWS, FALSE_ALARM = 20000, 1e-6


def _sampled_tv_bound(oracle, m=DRAWS):
    p = np.array(list(oracle.values()))
    return (0.5 * np.sum(np.sqrt(p * (1.0 - p) / m))
            + np.sqrt(np.log(1.0 / FALSE_ALARM) / (2 * m)))


def _sampled_law(X) -> dict:
    states, counts = np.unique(X, axis=0, return_counts=True)
    return {tuple(x): c / len(X) for x, c in zip(states.tolist(), counts.tolist())}


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), k=st.integers(1, 4),
       weights=st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.3, 2.5]),
                        min_size=25, max_size=25),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_homomorphisms_follow_the_chain_weight_law(n, k, weights, seed):
    # directed and weighted, with self-loops, one-way edges and dead ends; the
    # session's chance of a false failure is at most 40 * FALSE_ALARM
    M = np.array(weights[:n * n]).reshape(n, n)
    net = dense_network(M)
    rng = np.random.default_rng(seed)
    try:
        oracle = hom_distribution_bruteforce(net, k)
    except SamplingError:
        state = rng.bit_generator.state
        with pytest.raises(SamplingError, match="no homomorphism exists"):
            sample_homomorphisms(net, k, rng, DRAWS)
        assert rng.bit_generator.state == state
        return
    X = sample_homomorphisms(net, k, rng, DRAWS)
    assert X.shape == (DRAWS, k) and X.dtype == np.int64
    assert np.all(hom_weights(net, k, X) > 0)
    assert tv_distance(_sampled_law(X), oracle) <= _sampled_tv_bound(oracle)


def test_sampled_homomorphisms_are_homomorphisms_on_large_sparse_graphs():
    for net, k in ((smallworld_network(300, 4, 0.1, seed=2), 8),
                   (cycle_network(60), 6)):
        X = sample_homomorphisms(net, k, np.random.default_rng(14), 5000)
        assert np.all(hom_weights(net, k, X) > 0)
        empty = sample_homomorphisms(net, k, np.random.default_rng(14), 0)
        assert empty.shape == (0, k) and empty.dtype == np.int64


def test_no_homomorphism_raises_before_drawing():
    # one edge: no walk of two edges, so no 3-chain homomorphism
    net, k = Network.from_edges([(0, 1)]), 3
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    for sample in (lambda: sample_homomorphisms(net, k, rng, 10),
                   lambda: initial_homomorphism(net, k, rng)):
        with pytest.raises(SamplingError, match="no homomorphism exists"):
            sample()
    assert rng.bit_generator.state == state
    # every factor positive but the product not: 1e-200 squared underflows
    # to 0, yet the one homomorphism is drawn
    net = dict_network(3, {(0, 1): 1e-200, (1, 2): 1e-200})
    assert sample_homomorphisms(net, k, rng, 10).tolist() == [[0, 1, 2]] * 10
    assert initial_homomorphism(net, k, rng) == (0, 1, 2)


def test_sampled_homomorphisms_stay_on_rows_with_subnormal_totals():
    # a subnormal total t rounds U * t up to t for about one U in six, so the
    # first sum above the target would lie past the row's last entry to rise:
    # node 0's row of 3-chain path masses is [3 * 2**-1074, 0] (node 2 is a
    # dead end), and the ladder's last row is that total at node 0, 0 elsewhere
    w = 3 * 2.0 ** -1074
    net = dict_network(4, {(0, 1): w, (0, 2): 1.0, (1, 3): 1.0})
    X = sample_homomorphisms(net, 3, np.random.default_rng(15), 1000)
    assert X.tolist() == [[0, 1, 3]] * 1000


def test_initial_homomorphism_is_one_draw_of_the_sampler():
    net = smallworld_network(200, 8, 0.1, seed=1)
    for k, seed in ((1, 0), (2, 1), (6, 2), (10, 3)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x = initial_homomorphism(net, k, rng)
        assert x == tuple(sample_homomorphisms(net, k, ref_rng, 1)[0].tolist())
        assert all(type(v) is int for v in x)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_initial_homomorphism_on_a_long_cycle_takes_one_call():
    # 60-node cycle with a 6-chain: a uniform try is a homomorphism with
    # probability 60 * 2**5 / 60**6, about 4e-8; the start costs one call of
    # k uniforms
    net = cycle_network(60)
    k = 6
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    x = initial_homomorphism(net, k, rng)
    assert hom_weights(net, k, [x])[0] > 0
    ref_rng.random((k, 1))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
    cand, probs = glauber_conditional(MotifChain(net, 1, "glauber"), (0,), 0)
    assert len(cand) == 3
    assert np.allclose(probs, 1.0 / 3.0)


def test_glauber_one_chain_steps_match_the_uncached_draw():
    # The 1-chain's law and running sums are built once per chain; the draws
    # equal those of building them anew at every step, as the step once did.
    # A step reads two uniforms, the position int(1 * U) = 0 and the value.
    net = smallworld_network(200, 4, 0.1, seed=3)
    chain = MotifChain(net, 1, "glauber")
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    x = ref = (7,)
    for _ in range(2000):
        x = chain_update(chain, x, rng)
        assert int(1 * ref_rng.random()) == 0
        cand, probs = list(range(net.n)), [1.0 / net.n] * net.n
        cum = list(itertools.accumulate(probs))
        u = ref_rng.random() * cum[-1]
        ref = (cand[min(bisect.bisect_right(cum, u), len(cand) - 1)],)
        assert x == ref
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    cand, probs = glauber_conditional(chain, x, 0)
    assert cand == list(range(net.n)) and probs == [1.0 / net.n] * net.n


def test_glauber_star_graph_conditional():
    # star: center c = 0, leaves 1..4; resampling node 0 of a 2-chain with
    # x(2) = center gives the uniform law over the center's neighbors
    edges = [(0, leaf) for leaf in range(1, 5)]
    net = Network.from_edges(edges, undirected=True)
    cand, probs = glauber_conditional(MotifChain(net, 2, "glauber"), (1, 0), 0)
    assert sorted(int(c) for c in cand) == [1, 2, 3, 4]
    assert np.allclose(probs, 0.25)


def test_glauber_preserves_homomorphism_validity():
    net = weighted_5node_network()
    k = 3
    rng = np.random.default_rng(5)
    x = ref_rejection(net, k, rng)
    chain = MotifChain(net, k, "glauber")
    for _ in range(2000):
        x = chain_update(chain, x, rng)
        assert hom_weights(net, k, [x])[0] > 0


def test_glauber_matches_uniform_on_odd_cycle():
    # C5 is non-bipartite, so the chain is irreducible over all homomorphisms
    net = cycle_network(5)
    k = 3
    oracle = hom_distribution_bruteforce(net, k)
    assert len(oracle) == 20
    rng = np.random.default_rng(6)
    x = ref_rejection(net, k, rng)
    chain = MotifChain(net, k, "glauber")
    counts = {}
    for _ in range(100000):
        x = chain_update(chain, x, rng)
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


def test_glauber_on_even_cycles_conserves_endpoint_parity():
    # single-site resampling cannot change the bipartition class of the
    # images, so on C6 only half of Hom(F, G) is reachable from one start
    net = cycle_network(6)
    k = 3
    rng = np.random.default_rng(7)
    x = (0, 1, 2)
    chain = MotifChain(net, k, "glauber")
    for _ in range(5000):
        x = chain_update(chain, x, rng)
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
    chain = MotifChain(net, k, "glauber")
    counts = {}
    for _ in range(100000):
        x = chain_update(chain, x, rng)
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


# ---------------------------------------------------------------------------
# Pivot chain
# ---------------------------------------------------------------------------


def _acceptance_table(net, k, exact):
    """The Pivot step's acceptance of every out-edge, in `out_edges` order."""
    return np.asarray(MotifChain(net, k, "pivot" if exact else
                                 "pivot-approx")._pivot[3])


def test_symmetric_network_in_out_ratio_is_one():
    net = weighted_5node_network()
    assert np.allclose(net.in_sums, net.out_sums)
    assert np.all(_acceptance_table(net, 3, False) == 1.0)


def test_regular_graph_exact_acceptance_is_one():
    net = cycle_network(6)  # 2-regular
    assert np.all(_acceptance_table(net, 3, True) == 1.0)


def test_pivot_acceptance_clamped_to_unit_interval():
    net = weighted_5node_network()
    for exact in (True, False):
        lam = _acceptance_table(net, 4, exact)
        assert lam.shape == net.out_edges.indices.shape
        assert np.all((0.0 <= lam) & (lam <= 1.0))


def test_pivot_preserves_homomorphism_validity():
    net = weighted_5node_network()
    k = 3
    rng = np.random.default_rng(9)
    x = ref_rejection(net, k, rng)
    for mode in ("pivot", "pivot-approx"):
        y, chain = x, MotifChain(net, k, mode)
        for _ in range(2000):
            y = chain_update(chain, y, rng)
            assert hom_weights(net, k, [y])[0] > 0


def test_pivot_dead_end_returns_input():
    net = Network.from_edges([(0, 1)])  # node 1 has no outgoing edge
    k = 2
    assert chain_update(MotifChain(net, k, "pivot"), (1, 0),
                        np.random.default_rng(10)) == (1, 0)


@pytest.mark.parametrize("x", [(1, 0), (0, 1)], ids=["dead-end", "live"])
def test_pivot_rejects_an_unknown_mode_before_drawing(x):
    net = Network.from_edges([(0, 1)])  # node 1 has no outgoing edge
    rng = np.random.default_rng(10)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown MCMC mode 'bogus'"):
        chain_update(MotifChain(net, 2, "bogus"), x, rng)
    assert rng.bit_generator.state == state


def _refused_before_drawing(step, message):
    """`step(rng)` raises `ValueError` with `message` and draws nothing."""
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as info:
        step(rng)
    assert str(info.value) == message
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mode", MCMC_MODES)
def test_chain_update_refuses_a_map_of_the_wrong_length(mode):
    # (0, 1, 2, 3) is a homomorphism of C6 but a 4-chain map: the Glauber
    # step once resampled one of its first three nodes and returned
    # (0, 1, 0, 3)
    net = cycle_network(6)
    for x, size in (((0, 1, 2, 3), 4), ((0, 1), 2)):
        _refused_before_drawing(
            lambda rng: chain_update(MotifChain(net, 3, mode), x, rng),
            f"vertex map has {size} entries, the 3-chain needs 3")
        _refused_before_drawing(
            lambda rng: chain_steps(MotifChain(net, 3, mode), x, rng, 5),
            f"vertex map has {size} entries, the 3-chain needs 3")


@pytest.mark.parametrize("mode", MCMC_MODES)
@pytest.mark.parametrize("k", [0, -1, -2])
def test_chain_update_refuses_a_chain_length_below_one(mode, k):
    # k = 0 once reached numpy's `high <= 0` in the Glauber draw
    net = cycle_network(6)
    _refused_before_drawing(
        lambda rng: chain_update(MotifChain(net, k, mode), (), rng),
        "chain length k must be at least 1")
    _refused_before_drawing(
        lambda rng: chain_steps(MotifChain(net, k, mode), (), rng, 5),
        "chain length k must be at least 1")


@pytest.mark.parametrize("mode", MCMC_MODES)
def test_chain_steps_refuse_a_start_that_is_not_a_homomorphism(mode):
    # (0, 3, 1) on C6 has weight 0: a Glauber step from it once moved to
    # another such map or raised AssertionError, depending on the draw
    net = cycle_network(6)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            chain_steps(MotifChain(net, 3, mode), (0, 3, 1), rng, 5)
        assert str(info.value) == ("vertex map is not a homomorphism of the "
                                   "3-chain: its weight is 0")
        assert rng.bit_generator.state == state


def test_nodes_outside_the_network_are_refused():
    # node 4 of 3 once read the key 0 * 3 + 4 of the pair (1, 1), so
    # weights_at(0, 4) gave A(1, 1) = 2.0 and a chain stepped from (0, 4)
    net = Network(3, [0, 1], [1, 1], [1.0, 2.0])
    for a, b in ((0, 4), (-1, 1), ([0, 1], [1, 3]), (3, [0])):
        with pytest.raises(ValueError) as info:
            net.weights_at(a, b)
        assert str(info.value) == "node index out of range"
    with pytest.raises(ValueError, match="node index out of range"):
        hom_weights(net, 2, [(0, 4)])
    with pytest.raises(ValueError, match="node index out of range"):
        mesoscale_patch(net, (0, 4))
    for mode in MCMC_MODES:
        _refused_before_drawing(
            lambda rng: chain_steps(MotifChain(net, 2, mode), (0, 4), rng, 3),
            "node index out of range")


def test_node_indices_that_are_not_integers_are_refused():
    # a cast once truncated 0.9 to node 0 and read True as node 1, and
    # hom_weights at k = 2 read two columns of a three-column map
    net = Network(3, [0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 3, 4])
    for refuse in (lambda: net.weights_at(0.9, 1.2),
                   lambda: net.weights_at(True, 2),
                   lambda: net.weights_at([0, 1], np.array([1.0, 2.0])),
                   lambda: mesoscale_patch(net, (0.7, 1.9)),
                   lambda: mesoscale_patch(net, np.array([[True, False]])),
                   lambda: hom_weights(net, 2, [[0.0, 1.0]])):
        with pytest.raises(ValueError, match="node indices must be integers"):
            refuse()
    for X in ([[0, 1, 2]], [0, 1], [[[0, 1]]]):
        with pytest.raises(ValueError, match=r"must form an \(m, 2\) array"):
            hom_weights(net, 2, X)
    # integers of any width, and empty index arrays, are read as before
    assert net.weights_at(np.uint8(1), np.int32(2)) == 3.0
    assert net.weights_at([], []).shape == (0,)
    assert hom_weights(net, 2, np.empty((0, 2))).shape == (0,)
    assert mesoscale_patch(net, np.array([0, 1], dtype=np.uint16)).tolist() == [
        [0.0, 1.0], [2.0, 0.0]]


@pytest.mark.parametrize("mode", MCMC_MODES)
def test_chain_steps_weigh_the_start_once_per_block(mode, monkeypatch):
    # the start's edge factors are read once, in one lookup
    net = cycle_network(6)
    chain = MotifChain(net, 3, mode)
    lookup, calls = net.weights_at, []

    def spy(a, b):
        calls.append((tuple(a), tuple(b)))
        return lookup(a, b)

    monkeypatch.setattr(net, "weights_at", spy)
    maps = chain_steps(chain, (0, 1, 2), np.random.default_rng(13), 50)
    assert len(maps) == 50 and calls == [((0, 1), (1, 2))]


def test_glauber_step_from_a_non_homomorphism_raises_value_error():
    chain = MotifChain(cycle_network(6), 3, "glauber")
    raised = 0
    for seed in range(20):
        try:
            chain_update(chain, (0, 3, 1), np.random.default_rng(seed))
        except ValueError as exc:
            assert str(exc) == ("vertex map is not a homomorphism of the "
                                "3-chain: chain node 1 has no candidate")
            raised += 1
    assert raised
    with pytest.raises(ValueError, match="not a homomorphism"):
        glauber_conditional(chain, (0, 3, 1), 1)


@pytest.mark.parametrize("v", [-1, 3])
def test_glauber_conditional_refuses_a_node_outside_the_chain(v):
    # v = -1 once read x(-2) and x(0) for its neighbors: the law of the
    # wrong positions on K4, an AssertionError on C6
    for net in (dense_network(np.ones((4, 4)) - np.eye(4)), cycle_network(6)):
        _refused_before_drawing(
            lambda rng: glauber_conditional(MotifChain(net, 3, "glauber"),
                                            (0, 1, 2), v),
            f"chain node v must lie in 0..2, got {v}")


def test_glauber_conditional_refuses_a_map_of_the_wrong_length():
    net = cycle_network(6)
    chain = MotifChain(net, 3, "glauber")
    for x in ((0, 1, 2, 3), (0, 1)):
        _refused_before_drawing(
            lambda rng: glauber_conditional(chain, x, 1),
            f"vertex map has {len(x)} entries, the 3-chain needs 3")
    _refused_before_drawing(
        lambda rng: glauber_conditional(MotifChain(net, 0, "glauber"), (), 0),
        "chain length k must be at least 1")


def test_pivot_exact_matches_motif_distribution():
    net = weighted_5node_network()
    k = 3
    oracle = hom_distribution_bruteforce(net, k)
    rng = np.random.default_rng(11)
    x = ref_rejection(net, k, rng)
    chain = MotifChain(net, k, "pivot")
    counts = {}
    steps = 100000
    for _ in range(steps):
        x = chain_update(chain, x, rng)
        counts[x] = counts.get(x, 0) + 1
    assert tv_distance(empirical_distribution(counts), oracle) < 0.05


def test_pivot_exact_is_unbiased_on_irregular_simple_graphs():
    net = path_network(3)
    k = 2
    oracle = hom_distribution_bruteforce(net, k)
    rng = np.random.default_rng(12)
    x = ref_rejection(net, k, rng)
    chain = MotifChain(net, k, "pivot")
    counts = {}
    for _ in range(50000):
        x = chain_update(chain, x, rng)
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


def test_oracle_is_scale_free_under_powers_of_two():
    # the path 0 - 1 - 2 of 1e-120 edges: its 4-chain maps weigh 1e-360,
    # once a product of 0 each and "no homomorphism exists"
    edges = ([0, 1, 1, 2], [1, 0, 2, 1])
    unit = hom_distribution_bruteforce(Network(3, *edges, [1.0] * 4), 4)
    tiny = Network(3, *edges, [1e-120] * 4)
    assert hom_distribution_bruteforce(tiny, 4) == unit
    assert len(unit) == 8 and set(unit.values()) == {0.125}
    # a weighted network scaled by 2^s has the law of the unscaled one,
    # byte for byte, while `hom_weights` stays the plain product
    net = weighted_5node_network()
    src, dst = net._edge_ends()
    for k in (2, 3, 4):
        law = hom_distribution_bruteforce(net, k)
        for s in (-1000, -400, 400, 1000):
            scaled = Network(net.n, src, dst, np.ldexp(net.out_edges.weights, s))
            assert hom_distribution_bruteforce(scaled, k) == law
    assert hom_weights(tiny, 4, [(0, 1, 0, 1)])[0] == 0.0


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
    x = ref_rejection(net, k, rng)
    chain = MotifChain(net, k, "pivot")
    for _ in range(200):
        x = chain_update(chain, x, rng)
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
    # the move table of either Pivot chain: each out-row's running sums
    moves = [np.asarray(MotifChain(net, 3, mode)._pivot[2])
             for mode in ("pivot", "pivot-approx")]
    for v in range(n):
        assert np.array_equal(net.out_edges.row(v)[0], ref.out[v][0])
        assert np.array_equal(net.in_edges.row(v)[0], ref.inn[v][0])
        s, e = net.out_edges.indptr[v], net.out_edges.indptr[v + 1]
        assert np.array_equal(net.out_edges.weights[s:e], ref.out[v][1])
        for move in moves:
            assert np.array_equal(move[s:e], ref.out[v][2])
        s, e = net.in_edges.indptr[v], net.in_edges.indptr[v + 1]
        assert np.array_equal(net.in_edges.weights[s:e], ref.inn[v][1])
    assert np.array_equal(net.out_sums, ref.out_sums)
    assert np.array_equal(net.in_sums, ref.in_sums)
    symmetric = all(ref.weight(b, a) == w for (a, b), w in ref.weights.items())
    assert (net.in_edges is net.out_edges) == symmetric
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
    assert ladder.tobytes() == scaled_rows(ref_ladder(ref, k)).tobytes()
    # exact Pivot draws tail position i from running-sum row k-2-i, the
    # last of them row 0, its move table
    _, _, move, _, tails = MotifChain(net, k, "pivot")._pivot
    assert len(tails) == k - 1 and tails[-1] is move
    for i, table in enumerate(tails):
        j = k - 2 - i
        assert len(table) == len(net.out_edges.indices)
        for v in range(n):
            tgt, wts, _ = ref.out[v]
            s, e = net.out_edges.indptr[v], net.out_edges.indptr[v + 1]
            assert np.array_equal(table[s:e], np.cumsum(wts * ladder[j][tgt]))
    # approximate Pivot draws every tail position from its move table
    _, _, move, _, tails = MotifChain(net, k, "pivot-approx")._pivot
    assert len(tails) == k - 1 and all(table is move for table in tails)
    # a 1-chain has no tail
    assert MotifChain(net, 1, "pivot")._pivot[4] == ()


def test_chains_build_their_tables_once(monkeypatch):
    # exact Pivot builds the path-mass ladder once, for its acceptance and
    # its tail rows alike, and Glauber builds no running-sum table at all
    net = weighted_5node_network()
    ladders, sums = [], []
    power_row_sums, row_cumsum = Network.power_row_sums, networks._row_cumsum

    def ladder_spy(self, k):
        ladders.append(k)
        return power_row_sums(self, k)

    def cumsum_spy(*args):
        sums.append(args)
        return row_cumsum(*args)

    monkeypatch.setattr(Network, "power_row_sums", ladder_spy)
    monkeypatch.setattr(networks, "_row_cumsum", cumsum_spy)
    for k in (1, 2, 4):
        ladders.clear()
        MotifChain(net, k, "pivot")
        assert ladders == [k]
        ladders.clear()
        MotifChain(net, k, "pivot-approx")
        assert ladders == []
        sums.clear()
        chain = MotifChain(net, k, "glauber")
        chain_steps(chain, tuple(range(k)), np.random.default_rng(k), 50)
        assert sums == []


def test_patches_above_the_old_dense_limit():
    n = 4001
    net = cycle_network(n)
    x = (0, 1, 2, 4000, 17)
    expect = np.array([[1.0 if (a - b) % n in (1, n - 1) else 0.0 for b in x]
                       for a in x])
    assert np.array_equal(mesoscale_patch(net, x), expect)


def test_network_arrays_are_read_only():
    net = weighted_5node_network()
    arrays = [net.out_edges.weights, net.in_edges.indices]
    # and the tables a Pivot chain builds: move table, acceptance, tail rows
    for mode in ("pivot", "pivot-approx"):
        _, _, move, accept, tails = MotifChain(net, 4, mode)._pivot
        arrays += [np.asarray(table) for table in (move, accept, *tails)]
    for arr in arrays:
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
        chain = MotifChain(net, k, "glauber")
        homs = [x for x in itertools.product(range(net.n), repeat=k)
                if ref_hom_weight(ref, k, x) > 0]
        assert homs
        for idx in rng.permutation(len(homs))[:40]:
            x = homs[int(idx)]
            for v in range(k):
                cand, probs = glauber_conditional(chain, x, v)
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
    v = int(k * rng.random())
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
    x = y = ref_rejection(net, k, np.random.default_rng(0))
    chain = MotifChain(net, k, mode)
    rng_new, rng_ref = np.random.default_rng(26), np.random.default_rng(26)
    moves = 0
    for _ in range(3000):
        moved = chain_update(chain, x, rng_new)
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
        x = y = ref_rejection(net, k, np.random.default_rng(case))
        chain = MotifChain(net, k, "glauber")
        rng_new = np.random.default_rng(27 + case)
        rng_ref = np.random.default_rng(27 + case)
        for _ in range(300):
            x = chain_update(chain, x, rng_new)
            y = ref_glauber_update(ref, k, y, rng_ref)
            assert x == y
            for v in range(k):
                probs = glauber_conditional(chain, x, v)[1]
                assert np.array_equal(probs, ref_glauber_conditional(ref, k, x, v)[1])
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def _run_against_reference(chain, ref, seed, steps=400):
    """Steps a map with the `MotifChain` `chain` and the reference of its
    mode on `ref` from the same start and seed; each state and the final
    generator states must agree.  Returns the number of moves."""
    k, mode = chain.k, chain.mode
    ladder = ref_ladder(ref, k)
    x = y = ref_rejection(chain.net, k, np.random.default_rng(seed))
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    moves = 0
    for _ in range(steps):
        moved = chain_update(chain, x, rng_new)
        moves += moved != x
        x = moved
        if mode == "glauber":
            y = ref_glauber_update(ref, k, y, rng_ref)
        else:
            y = ref_pivot_update(ref, ladder, k, y, rng_ref, mode)
        assert x == y
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return moves


def test_network_refuses_a_weight_sum_past_float64():
    # each weight is finite; once the first network was built with out_sums
    # [inf, 0], and its chains warned of an overflow
    for src, dst in (([0, 0], [0, 1]), ([0, 1], [1, 1])):
        with pytest.raises(ValueError, match="must have a finite sum"):
            Network(2, src, dst, [1.5e308] * 2)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Network.from_edges([(0, 1, 1e308), (0, 1, 1e308)])


def _network_near_1e300():
    """Size and weights of a network whose weights lie near 1e300, so that
    unscaled path masses would overflow from the ladder's second row on;
    node 10 is a dead end, and some edges are one-way."""
    rng = np.random.default_rng(35)
    size, weights = _random_weighted(rng, 10, 0.35, loops=False)
    for (a, b), w in list(weights.items()):
        if rng.random() < 0.8:
            weights[(b, a)] = w
    weights.update({(a, size): 1.0 for a in (2, 5)})
    size += 1
    return size, {pair: float(rng.random() + 0.5) * 1e300 for pair in weights}


def _scaled_copies(size, weights, s):
    """The network of `weights` and its copy with every weight times 2^s."""
    return (dict_network(size, weights),
            dict_network(size, {e: np.ldexp(w, s)
                                for e, w in weights.items()}))


def _same_chains(net, scaled, k, seed, m=20):
    """The acceptance tables of both Pivot modes, `m` draws of
    `sample_homomorphisms`, every Glauber law at those draws and `m` steps
    of each mode from the first draw are equal on `net` and `scaled`."""
    for exact in (True, False):
        assert (_acceptance_table(scaled, k, exact).tobytes()
                == _acceptance_table(net, k, exact).tobytes())
    X = sample_homomorphisms(net, k, np.random.default_rng(seed), m)
    assert np.array_equal(
        sample_homomorphisms(scaled, k, np.random.default_rng(seed), m), X)
    pair = [MotifChain(g, k, "glauber") for g in (net, scaled)]
    for x in X.tolist():
        for v in range(k):
            assert (glauber_conditional(pair[0], x, v)
                    == glauber_conditional(pair[1], x, v))
    start = tuple(X[0].tolist())
    for mode in MCMC_MODES:
        maps = [chain_steps(MotifChain(g, k, mode), start,
                            np.random.default_rng(seed), m)
                for g in (net, scaled)]
        assert maps[0] == maps[1]


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 5), k=st.integers(1, 4),
       weights=st.lists(st.one_of(st.just(0.0),
                                  st.floats(0.5, 4.0, exclude_max=True)),
                        min_size=25, max_size=25),
       s=st.integers(-1000, 1000), seed=st.integers(0, 2 ** 32 - 1))
def test_chains_are_scale_free_under_powers_of_two(n, k, weights, s, seed):
    # The k-chain law does not change when A is scaled, and 2^s scales these
    # weights exactly, so tables, draws and laws are those of the unscaled
    # network, byte for byte: directed, with self-loops, one-way edges and
    # dead ends.  Once an exact ratio read 0 or inf / inf where a product of
    # its factors left the normal range (s near -260 or +255 at k = 3).
    M = np.array(weights[:n * n]).reshape(n, n)
    net, scaled = dense_network(M), dense_network(np.ldexp(M, s))
    try:
        hom_distribution_bruteforce(net, k)
    except SamplingError:
        for g in (net, scaled):
            with pytest.raises(SamplingError, match="no homomorphism exists"):
                sample_homomorphisms(g, k, np.random.default_rng(seed), 1)
        return
    _same_chains(net, scaled, k, seed)


def test_chains_on_uniform_weights_of_1e_120():
    # the 4-chain's homomorphisms weigh 1e-360, below the smallest double;
    # once the ladder's last row read 0 and the sampler raised "no
    # homomorphism exists", and the exact acceptance table read all zeros
    edges = ([0, 1, 1, 2], [1, 0, 2, 1])
    tiny = Network(3, *edges, [1e-120] * 4)
    unit = Network(3, *edges, [1.0] * 4)
    assert hom_weights(tiny, 4, [(0, 1, 0, 1)])[0] == 0.0
    assert _acceptance_table(unit, 4, True).tolist() == [1.0] * 4
    _same_chains(unit, tiny, 4, seed=41)


def test_exact_pivot_acceptance_keeps_a_ratio_whose_products_underflow():
    # at k = 2 the move 0 -> 1 of this 2-cycle has the ratio 2^-600, whose
    # products 2^-1201 over 2^-601 once read 0 through a quotient of like
    # factors whose own product underflowed
    net = Network(2, [0, 1], [1, 0], [1.0, 2.0 ** -600])
    assert _acceptance_table(net, 2, True).tolist() == [2.0 ** -600, 1.0]
    # one product at a time: the move 0 -> 1 has the products 2^-1100
    # (rounds to 0) over 2^-200, the move 1 -> 0 their inverse
    net = Network(3, [0, 1, 1, 2], [1, 0, 2, 1],
                  [2.0 ** -100, 2.0 ** -1000, 1.0, 1.0])
    assert _acceptance_table(net, 2, True).tolist() == [2.0 ** -900, 1.0,
                                                        1.0, 1.0]


def test_exact_pivot_runs_on_weights_near_1e300():
    # once refused with "the path mass of the k-chain overflows float64":
    # the chain is that of the weights scaled by 2^-997, which lie near 1,
    # and accepts no move onto the edges into the dead end
    size, weights = _network_near_1e300()
    near_one, net = _scaled_copies(size, weights, -997)
    for k in (2, 3, 4):
        assert (_acceptance_table(net, k, True).tobytes()
                == _acceptance_table(near_one, k, True).tobytes())
    assert np.all(_acceptance_table(net, 2, True)[
        net._edge_ends()[1] == size - 1] == 0.0)


def test_sampler_draws_on_weights_near_1e300():
    # once refused with "the path mass of the k-chain overflows float64"
    size, weights = _network_near_1e300()
    near_one, net = _scaled_copies(size, weights, -997)
    for k in (2, 3, 4):
        X = sample_homomorphisms(net, k, np.random.default_rng(46), 1000)
        assert np.array_equal(
            X, sample_homomorphisms(near_one, k, np.random.default_rng(46),
                                    1000))
        assert np.all(net.weights_at(X[:, :-1], X[:, 1:]) > 0)


@pytest.mark.parametrize("w", [1e300, 1e-200])
def test_glauber_laws_on_weights_near_1e300_and_1e_200(w):
    # the middle node's law multiplies two weights: 1e600 once read inf and
    # the law [nan], 1e-400 once read 0 and raised "chain node 1 has no
    # candidate"; the start (0, 1, 2) weighs 1e-400 at w = 1e-200, which
    # rounds to 0, but its factors are positive
    edges = ([0, 1, 1, 2], [1, 0, 2, 1])
    net, unit = Network(3, *edges, [w] * 4), Network(3, *edges, [1.0] * 4)
    chain = MotifChain(net, 3, "glauber")
    assert glauber_conditional(chain, (1, 0, 1), 1) == ([0, 2], [0.5, 0.5])
    _same_chains(unit, net, 3, seed=43)
    assert chain_steps(chain, (0, 1, 2), np.random.default_rng(44), 5)


class _CountedUniforms:
    """A generator's ``random()`` one call at a time, counting the calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self):
        self.calls += 1
        return self.rng.random()


class _LastUniform:
    """A generator whose every ``random()`` is the largest double below 1,
    counting the calls."""

    def __init__(self):
        self.calls = 0

    def random(self):
        self.calls += 1
        return 1.0 - 2.0 ** -53


def test_glauber_step_at_the_largest_uniform_resamples_the_last_node():
    # int(k * U) < k for U = 1 - 2^-53: the last chain node, resampled to
    # the last candidate of its law, which differs from its value on C6
    net = cycle_network(6)
    for k in range(1, 65):
        chain = MotifChain(net, k, "glauber")
        x = tuple(i % 2 for i in range(k))
        cand, probs = glauber_conditional(chain, x, k - 1)
        want = x[:-1] + (cand[max(i for i, p in enumerate(probs) if p > 0)],)
        assert want != x
        last = _LastUniform()
        assert chain_update(chain, x, last) == want
        assert last.calls == 2


def _same_state(a, b) -> bool:
    """Equal bit generator states, nested dicts of numbers and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key])
                                            for key in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("mode", MCMC_MODES)
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox])
def test_chain_steps_match_one_step_at_a_time(bit_generator, mode):
    # directed and weighted, with self-loops, one-way edges and a dead end
    # (node 12 has in-edges only), so steps are rejected or stop in the tail
    rng = np.random.default_rng(38)
    size, weights = _random_weighted(rng, 12, 0.25)
    weights.update({(a, 12): 1.0 for a in range(0, 12, 3)})
    net = dict_network(size + 1, weights)
    k = 4
    x = y = ref_rejection(net, k, np.random.default_rng(0))
    chain = MotifChain(net, k, mode)
    block, one = np.random.Generator(bit_generator(39)), \
        np.random.Generator(bit_generator(39))
    counted = _CountedUniforms(one)
    used = set()
    for m in (1, 1, 7, 300, 1, 80):
        maps = chain_steps(chain, x, block, m)
        steps = []
        for _ in range(m):
            calls = counted.calls
            y = chain_update(chain, y, counted)
            used.add(counted.calls - calls)
            steps.append(y)
        assert maps == steps
        assert _same_state(block.bit_generator.state, one.bit_generator.state)
        x = maps[-1]
    assert chain_steps(chain, x, block, 0) == []
    assert _same_state(block.bit_generator.state, one.bit_generator.state)
    # a Glauber step draws exactly 2 uniforms and a Pivot step at most
    # k + 1, so m of them at most the m (k + 1) a block draws ahead;
    # rejected moves draw 2, and approximate tails also stop at the dead end
    assert used == ({2} if mode == "glauber" else
                    {2, k + 1} if mode == "pivot" else {2, 3, 4, k + 1})


@pytest.mark.parametrize("mode", MCMC_MODES)
def test_chain_steps_call_chain_update_as_the_trace_reads_it(mode,
                                                            monkeypatch):
    # perfbench/probe.py wraps `networks.chain_update` by its module
    # attribute, reads the map from the third positional argument or the
    # keyword x, and notes a move where the result differs from it
    notes = []

    def traced(*args, **kwargs):
        out = step(*args, **kwargs)
        notes.append(int(out != (args[2] if len(args) > 2
                                 else kwargs.get("x", None))))
        return out

    step = networks.chain_update
    monkeypatch.setattr(networks, "chain_update", traced)
    rng = np.random.default_rng(38)
    size, weights = _random_weighted(rng, 12, 0.25)
    weights.update({(a, 12): 1.0 for a in range(0, 12, 3)})
    net = dict_network(size + 1, weights)
    chain = MotifChain(net, 4, mode)
    x = ref_rejection(net, 4, np.random.default_rng(0))
    moves = []
    for m in (1, 50, 7):
        notes.clear()
        maps = chain_steps(chain, x, rng, m)
        assert len(notes) == m
        assert notes == [int(y != z) for y, z in zip(maps, [x] + maps[:-1])]
        moves += notes
        x = maps[-1]
    assert 0 < sum(moves) < len(moves)


def test_chains_on_warm_caches_match_the_reference():
    # the caches a chain fills (Glauber's rows and laws) must serve a later
    # map stepped with the same `MotifChain` as if it were the first
    rng = np.random.default_rng(29)
    size, weights = _random_weighted(rng, 14, 0.3, loops=False, isolated=2)
    for (a, b), w in list(weights.items()):   # mostly two-way, a few one-way
        if rng.random() < 0.8:
            weights[(b, a)] = float(rng.random() * 3)
    net, ref = dict_network(size, weights), RefNetwork(size, weights)
    assert net.in_edges is not net.out_edges
    glauber = MotifChain(net, 4, "glauber")
    assert _run_against_reference(glauber, ref, 40)
    assert glauber._out_rows[1] and glauber._in_rows[1] and glauber._laws
    assert _run_against_reference(glauber, ref, 41)
    for k, seeds in ((3, (42, 44)), (5, (43,))):
        pivot = MotifChain(net, k, "pivot")
        for seed in seeds:
            assert _run_against_reference(pivot, ref, seed) > 40


def test_chains_leave_the_network_as_built():
    # every mode, and two maps sharing one chain, read the network and keep
    # what they cache to themselves
    rng = np.random.default_rng(29)
    size, weights = _random_weighted(rng, 14, 0.3, isolated=2)
    net = dict_network(size, weights)
    parts = (net, net.out_edges, net.in_edges)
    assert parts[1] is not parts[2]
    built = [dict(vars(part)) for part in parts]
    for k, mode in itertools.product((1, 3), MCMC_MODES):
        chain = MotifChain(net, k, mode)
        for seed in (0, 1):
            x = initial_homomorphism(net, k, np.random.default_rng(seed))
            chain_steps(chain, x, np.random.default_rng(seed), 300)
        if mode == "glauber":
            glauber_conditional(chain, x, 0)
    for part, before in zip(parts, built):
        after = vars(part)
        assert after.keys() == before.keys()
        for key, value in before.items():
            assert after[key] is value
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable


def _rising_law(ref, k, x, v):
    """The reference conditional of node v as the step draws from it: the
    running sums that rise, then the candidates at which they rise."""
    cand, probs = ref_glauber_conditional(ref, k, x, v)
    cum = np.cumsum(probs)
    rise = np.diff(cum, prepend=0.0) > 0
    return tuple(cum[rise].tolist()) + tuple(int(b) for b in cand[rise])


def _cached_law(chain, x, v):
    """The law the Glauber step draws node v of x from: the chain's cached
    one, built and cached on a miss."""
    n, k = chain.net.n, chain.k
    key = (x[v - 1] if v else n) * (n + 1) + (x[v + 1] if v < k - 1 else n)
    return chain._laws.get(key) or networks._glauber_law(chain, x, v, key)


def _glauber_against_reference(ref, runs, steps):
    """Steps the Glauber maps `runs`, a list of (`MotifChain`, seed), in
    turn, one step each per round, and their references on `ref`; every
    state, the cached law of every node of it, and the final generator states
    must agree, and no chain's law cache may ever hold more candidates than
    the network has edges.  Returns the number of times a cache was emptied
    and the number of laws met that leave out a zero-probability
    candidate."""
    maps = []
    for chain, seed in runs:
        x = ref_rejection(chain.net, chain.k, np.random.default_rng(seed))
        maps.append([chain, x, x, np.random.default_rng(seed),
                     np.random.default_rng(seed)])
    held = {chain: 0 for chain, _ in runs}
    emptied = shortened = 0

    def watch(chain, value):
        nonlocal emptied
        entries = sum(len(law) >> 1 for law in chain._laws.values())
        assert entries == chain._law_entries <= len(chain.net.out_edges.indices)
        emptied += len(chain._laws) < held[chain]
        held[chain] = len(chain._laws)
        return value

    for _ in range(steps):
        for run in maps:
            chain, x, y, rng_new, rng_ref = run
            k = chain.k
            run[1] = x = watch(chain, chain_update(chain, x, rng_new))
            run[2] = y = ref_glauber_update(ref, k, y, rng_ref)
            assert x == y
            for v in range(k):
                law = watch(chain, _cached_law(chain, x, v))
                assert law == _rising_law(ref, k, x, v)
                shortened += len(law) < 2 * len(glauber_conditional(
                    chain, x, v)[0])
    for _, _, _, rng_new, rng_ref in maps:
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return emptied, shortened


def test_glauber_laws_leave_out_zero_probability_candidates():
    # directed, weighted, with self-loops and one-way edges: a candidate of
    # the smaller row that the other row lacks has probability 0 and sits
    # inside the running sums, which the cached law leaves out
    rng = np.random.default_rng(31)
    size, weights = _random_weighted(rng, 12, 0.35, isolated=1)
    weights = {pair: float(rng.choice([1.0, rng.random() * 3]))
               for pair in weights}
    net, ref = dict_network(size, weights), RefNetwork(size, weights)
    assert any(a == b for a, b in weights)
    assert any((b, a) not in weights for a, b in weights)
    _, shortened = _glauber_against_reference(
        ref, [(MotifChain(net, 4, "glauber"), 50)], 600)
    assert shortened > 100


def test_glauber_laws_serve_every_chain_length_on_one_network():
    # one chain object per length: the law of node v depends on x(v-1) and
    # x(v+1) only, keyed by them or by the end marker n
    rng = np.random.default_rng(32)
    size, weights = _random_weighted(rng, 10, 0.4)
    net, ref = dict_network(size, weights), RefNetwork(size, weights)
    chains = {k: MotifChain(net, k, "glauber") for k in (2, 3, 4)}
    _glauber_against_reference(
        ref, [(chains[2], 51), (chains[3], 52), (chains[4], 53)], 400)
    n = net.n
    for k, chain in chains.items():
        ends = [divmod(key, n + 1) for key in chain._laws]
        assert any(a == n for a, _ in ends) and any(b == n for _, b in ends)
        assert any(a < n and b < n for a, b in ends) == (k > 2)


def test_glauber_law_cache_empties_itself_when_full():
    # 16 edges on 4 nodes, all with self-loops: the 3-chain meets up to 24
    # laws (16 inner pairs, 4 + 4 ends) of 4 candidates each and the 2-chain
    # up to 8, more than each chain's bound of 16 candidates
    M = np.random.default_rng(33).random((4, 4)) + 0.5
    net = dense_network(M)
    ref = RefNetwork(4, {(a, b): M[a, b] for a in range(4) for b in range(4)})
    emptied, _ = _glauber_against_reference(
        ref, [(MotifChain(net, 3, "glauber"), 54),
              (MotifChain(net, 2, "glauber"), 55)], 300)
    assert emptied > 3


def _patch_stacks(n, rng, net):
    """(stack, path the rule u^2 < m k^2 picks) pairs, u the distinct nodes
    of the stack: m x 1 stacks, both sides of the boundary and one chain
    trajectory, which revisits its nodes."""
    x = ref_rejection(net, 4, rng)
    chain = MotifChain(net, 4, "pivot")
    walk = []
    for _ in range(60):
        x = chain_update(chain, x, rng)
        walk.append(x)
    distinct = rng.permutation(n)
    return [
        (np.array([[3], [5], [3], [3], [5], [5], [3]]), "block"),   # 4 < 7
        (distinct[:7, None], "entries"),                           # 49 >= 7
        (distinct[:8].reshape(4, 2), "entries"),                  # 64 >= 16
        (np.array([[1, 2], [2, 3], [3, 1], [1, 1]]), "block"),     # 9 < 16
        (distinct[:4].reshape(1, 4), "entries"),                  # 16 == 16
        (distinct[:15].reshape(3, 5), "entries"),                 # 225 >= 75
        (np.array(walk), "block"),                                # u <= n
        (np.empty((0, 3), dtype=np.int64), "entries"),
    ]


def test_stacked_patches_equal_the_per_entry_lookup(monkeypatch):
    rng = np.random.default_rng(31)
    size, weights = _random_weighted(rng, 12, 0.4, isolated=4)
    assert any(a == b for a, b in weights)                   # self-loops
    assert any((b, a) not in weights for a, b in weights)     # directed
    net = dict_network(size, weights)
    lookup = Network.weights_at
    shapes = []

    def spy(self, a, b):
        shapes.append(np.broadcast_shapes(np.shape(a), np.shape(b)))
        return lookup(self, a, b)

    for stack, path in _patch_stacks(size, rng, net):
        m, k = stack.shape
        want = lookup(net, stack[:, :, None], stack[:, None, :])
        monkeypatch.setattr(Network, "weights_at", spy)
        got = mesoscale_patch(net, stack)
        monkeypatch.setattr(Network, "weights_at", lookup)
        assert got.shape == want.shape == (m, k, k)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        u = len(np.unique(stack))
        assert shapes == [(u, u) if path == "block" else (m, k, k)]
        shapes.clear()


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
    ("pairs-fractional",
     lambda p: Network.from_undirected_pairs(3, [(0, 1), (0.7, 1.9)]), INTEGER),
    ("pairs-bool",
     lambda p: Network.from_undirected_pairs(3, [(True, False)]), INTEGER),
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
