"""Shared oracles and builders for the test suite.

Everything here is deliberately independent of the library's hot paths:
enumeration oracles recompute distributions from first principles so chain
and solver outputs can be checked against them.
"""

import itertools

import numpy as np

from onmf import EdgeListError, Network, hom_weights
from onmf.sources import _neighbor_table


def exact_boltzmann(n: int, temperature: float) -> dict:
    """Exact lattice Boltzmann distribution by enumerating all 2^(n*n) states."""
    nbrs, counts = _neighbor_table(n)
    edges = set()
    for s in range(n * n):
        for a in range(counts[s]):
            t = int(nbrs[s, a])
            edges.add((min(s, t), max(s, t)))
    edges = sorted(edges)
    states = []
    energies = []
    for bits in itertools.product((-1, 1), repeat=n * n):
        states.append(bits)
        energies.append(sum(bits[u] * bits[v] for u, v in edges))
    weights = np.exp(np.array(energies, dtype=float) / temperature)
    weights /= weights.sum()
    return dict(zip(states, weights))


def empirical_distribution(counts: dict) -> dict:
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def dict_network(n: int, weights: dict) -> Network:
    """Network from a ``{(a, b): w}`` dict, entries in the dict's order."""
    ends = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
    return Network(n, ends[:, 0], ends[:, 1], list(weights.values()))


def reference_edge_list(path, undirected: bool = False) -> Network:
    """The edge-list file parsed one line at a time with ``str.split`` and
    its labels interned through a dict: the per-line reference of
    `Network.from_edge_list_file`."""
    index, labels, ends, values = {}, [], [], []

    def intern(label):
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise EdgeListError(
                    f"{path}: line {lineno}: expected 'u v [w]', got {line!r}")
            w = 1.0
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise EdgeListError(
                        f"{path}: line {lineno}: bad weight {parts[2]!r}")
                if not np.isfinite(w) or w < 0:
                    raise EdgeListError(
                        f"{path}: line {lineno}: weight must be nonnegative")
            ends += [intern(parts[0]), intern(parts[1])]
            values.append(w)
    if not labels:
        raise EdgeListError(f"{path}: no edges found")
    n = len(labels)
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    w = np.array(values)
    if undirected:   # each edge adds to (u, v), then to (v, u) if u != v
        both = np.column_stack([u, v, v, u]).reshape(-1, 2)
        keep = np.column_stack([u == u, u != v]).ravel()
        u, v = both[keep].T
        w = np.repeat(w, 2)[keep]
    keys, inverse = np.unique(u * n + v, return_inverse=True)
    src, dst = np.divmod(keys, n)
    return Network(n, src, dst, np.bincount(inverse, weights=w), labels)


def same_network(a: Network, b: Network) -> bool:
    """Equal labels, edge keys, weights, row sums and CSR tables."""
    return (a.n == b.n and a.labels == b.labels
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("_keys", "_key_weights", "out_sums", "in_sums"))
            and all(np.array_equal(getattr(x, part), getattr(y, part))
                    for x, y in ((a.out_edges, b.out_edges),
                                 (a.in_edges, b.in_edges))
                    for part in ("indptr", "indices", "weights")))


def ref_rejection(net: Network, k: int, rng):
    """A k-chain homomorphism drawn by rejection: uniform maps, one size-k
    ``integers`` draw at a time, until one has positive weight (at most
    200 000 tries).  Tests whose chains start from it keep their random
    streams."""
    for _ in range(200000):
        x = tuple(int(v) for v in rng.integers(0, net.n, size=k))
        if hom_weights(net, k, [x])[0] > 0:
            return x
    raise AssertionError(f"no {k}-chain homomorphism in 200 000 tries")


def dense_network(M) -> Network:
    """Network of the nonzero entries of a square matrix."""
    M = np.asarray(M, dtype=float)
    src, dst = np.nonzero(M)
    return Network(len(M), src, dst, M[src, dst])


def cycle_network(n: int) -> Network:
    return Network.from_edges([(i, (i + 1) % n) for i in range(n)],
                              undirected=True)


def path_network(n: int) -> Network:
    return Network.from_edges([(i, i + 1) for i in range(n - 1)],
                              undirected=True)


def weighted_5node_network() -> Network:
    """Symmetric weighted 5-node network with a triangle (aperiodic walk)."""
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (2, 3, 1.5),
             (3, 4, 1.0), (4, 0, 2.5)]
    both = []
    for u, v, w in edges:
        both.append((u, v, w))
        both.append((v, u, w))
    return Network.from_edges(both)


def smallworld_network(n: int, k: int, p: float, seed: int) -> Network:
    import networkx as nx

    G = nx.watts_strogatz_graph(n, k, p, seed=seed)
    return Network.from_edges(list(G.edges()), undirected=True)


def edge_pairs(net: Network) -> list[tuple[int, int]]:
    """Sorted (u, v) pairs, u < v, of a symmetric network's edges."""
    us, vs = np.divmod(net.undirected_keys(), net.n)
    return list(zip(us.tolist(), vs.tolist()))


def mann_whitney_auc(scores, labels, lower_is_positive: bool,
                     tie_credit: float = 0.5) -> float:
    """Direct pairwise Mann-Whitney statistic, by default with half credit
    for ties, for aligned sequences of scores and boolean labels."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp == sn:
                total += tie_credit
            elif (sp < sn) == lower_is_positive:
                total += 1.0
    return total / (len(pos) * len(neg))


def sparse_coding_instances(count: int = 100, seed: int = 20240521):
    """Deterministic random sparse-coding instances for the oracle comparison.

    Dictionaries are redrawn until the positive spectrum of W^T W clears 0.06,
    the level at which the fixed-step reference descent converges within its
    iteration budget.
    """
    rng = np.random.default_rng(seed)
    lams = (0.0, 0.1, 1.0)
    out = []
    for i in range(count):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        X = rng.random((d, n))
        while True:
            W = rng.random((d, r)) + 0.05
            eigs = np.linalg.eigvalsh(W.T @ W)
            positive = eigs[eigs > 1e-10]
            if positive.size and positive.min() >= 0.06:
                break
        out.append((X, W, lams[i % 3]))
    return out
