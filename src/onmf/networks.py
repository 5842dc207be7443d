"""Weighted networks and the motif-sampling Markov chains.

A network is a node set with a sparse nonnegative weight map.  The motif is
the k-chain, the directed path 1 -> 2 -> ... -> k.  A vertex map x: [k] -> V
is a homomorphism when the product A(x(1), x(2)) ... A(x(k-1), x(k)) of the
weights along it is positive.  Rejection sampling draws a first
homomorphism; `chain_update` then takes one step of the chain its mode names:
"glauber" (single-coordinate conditional resampling), "pivot" or
"pivot-approx" (random-walk move of the first node with a
Metropolis-Hastings correction, then successive resampling of the tail).

The exact Pivot acceptance ("pivot") combines the path-count ratio with the
proposal ratio, and the tail is resampled from conditionals weighted by
remaining path counts, so the chain's stationary law on bidirectional
networks is the chain weight distribution itself.  "pivot-approx" keeps only
the in/out weight ratio and extends the tail by plain neighbor weights,
trading exactness for speed.

A network stores its positive weights once, in compressed sparse row (CSR)
form: `Adjacency` holds the out-edges and, transposed, the in-edges.  Weight
lookups go through the sorted edge keys ``a * n + b``, so ``A(a, b)`` over
whole arrays of pairs is one binary search and one gather.

A chain step touches a handful of rows, so it runs on Python scalars: per-node
tables are cached on the network as lists (O(n), never per edge), and a
neighbor is drawn from a CSR running-sum table by ``bisect`` over the row's
span.  Products, quotients and running sums of Python floats round exactly as
numpy's elementwise operations and sequential ``cumsum`` do, so the chains
draw the same states from the same random stream.  The one exception is the
total of a Glauber conditional: numpy adds an array pairwise, which a Python
sum does not reproduce, so that total stays a numpy sum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

_ORACLE_GUARD = 10 ** 7
# Rejection tries drawn and tested per batch.
_REJECTION_CHUNK = 1024
# Vertex maps the brute-force oracle weighs per batch.
_ORACLE_BLOCK = 65536


class EdgeListError(ValueError):
    """Malformed edge-list input."""


class SamplingError(RuntimeError):
    """Homomorphism sampling failed (none found within the try budget)."""


class OracleSizeError(ValueError):
    """Brute-force enumeration would exceed the size guard."""


def _row_cumsum(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of each row's slice of `values`, restarting per row.

    Rows of equal length are summed together along the second axis of a 2-D
    block, which adds in the same order as the 1-D cumsum of each row.
    """
    out = np.empty_like(values)
    deg = np.diff(indptr)
    order = np.argsort(deg, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(deg[order])) + 1):
        d = deg[rows[0]]
        if d:
            idx = indptr[rows][:, None] + np.arange(d)
            out[idx] = np.cumsum(values[idx], axis=1)
    return out


@dataclass(frozen=True)
class Adjacency:
    """One direction of a network's edges in CSR form.

    Row v spans ``indptr[v]:indptr[v + 1]``: its neighbors in ascending order
    in `indices`, their weights in `weights` and the running sum of those
    weights within the row in `cum` (the inverse-CDF table for sampling a
    neighbor).  The arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    cum: np.ndarray

    @classmethod
    def from_sorted(cls, n: int, rows, cols, weights) -> "Adjacency":
        """Build from entries sorted by (row, col), one per pair."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        adj = cls(indptr, cols, weights, _row_cumsum(indptr, weights))
        for arr in (adj.indptr, adj.indices, adj.weights, adj.cum):
            arr.flags.writeable = False
        return adj

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of v and the weights of those edges (views)."""
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.weights[s:e]


class Network:
    """Node set plus sparse nonnegative weight matrix A.

    The positive entries live in two CSR tables, `out_edges` (row a holds the
    b with A(a, b) > 0) and `in_edges` (its transpose), plus the sorted keys
    ``a * n + b`` of the out-edges with a sentinel ``n * n`` appended, so that
    `weights_at` finds A(a, b) by ``searchsorted``.  Built once and
    read-only afterwards, so many chains may read one network concurrently.

    Entry i of the aligned one-dimensional arrays `src`, `dst` and
    `weights` sets A(src[i], dst[i]); the endpoints are integer node indices
    and each pair appears at most once.
    """

    def __init__(self, n: int, src, dst, weights,
                 labels: list[str] | None = None):
        if n < 1:
            raise ValueError("network needs at least one node")
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n:
            raise ValueError("label count must match node count")
        src, dst = np.asarray(src), np.asarray(dst)
        weights = np.asarray(weights, dtype=float)
        if not src.ndim == dst.ndim == weights.ndim == 1:
            raise ValueError("src, dst and weights must be one-dimensional")
        if not len(src) == len(dst) == len(weights):
            raise ValueError("src, dst and weights must have equal lengths")
        if len(src) and not (src.dtype.kind in "iu" and dst.dtype.kind in "iu"):
            raise ValueError("edge endpoints must be integers")
        inside = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        valid = np.isfinite(weights) & (weights >= 0)
        bad = np.flatnonzero(~(inside & valid))
        if len(bad):   # report the first bad entry, range before weight
            if not inside[bad[0]]:
                raise ValueError("edge endpoint out of range")
            raise ValueError("edge weights must be finite and nonnegative")
        self.n = n = int(n)
        self.labels = list(labels)
        keys = src.astype(np.int64) * n + dst.astype(np.int64)
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("each (src, dst) pair may appear only once")
        weights = weights[order]
        keep = weights > 0
        keys = keys[keep]
        rows, cols = np.divmod(keys, n)
        # lookup tables: the sentinel key matches no pair, its weight is 0
        self._keys = np.append(keys, n * n)
        self._key_weights = np.append(weights[keep], 0.0)
        for arr in (self._keys, self._key_weights):
            arr.flags.writeable = False
        self.out_edges = Adjacency.from_sorted(n, rows, cols,
                                               self._key_weights[:-1])
        t = np.argsort(cols * n + rows)
        self.in_edges = Adjacency.from_sorted(n, cols[t], rows[t],
                                              self._key_weights[t])
        # row sums added in row order, as the last entry of each row's cum
        self.out_sums = np.bincount(rows, self.out_edges.weights, minlength=n)
        self.in_sums = np.bincount(cols, self.out_edges.weights, minlength=n)
        self._pow_cache: dict[int, np.ndarray] = {}
        self._tail_cache: dict[int, np.ndarray] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, edges, undirected: bool = False) -> "Network":
        """Build from (u, v[, w]) tuples with arbitrary hashable node labels.

        Labels are interned to indices in first-seen order; missing weights
        default to 1.0; duplicate pairs accumulate, in input order.
        """
        index: dict = {}
        labels: list[str] = []
        ends: list[int] = []
        values: list[float] = []

        def intern(label):
            if label not in index:
                index[label] = len(labels)
                labels.append(str(label))
            return index[label]

        for edge in edges:
            ends.append(intern(edge[0]))
            ends.append(intern(edge[1]))
            values.append(float(edge[2]) if len(edge) > 2 else 1.0)
        if not labels:
            raise EdgeListError("no edges found")
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
        return cls(n, src, dst, np.bincount(inverse, weights=w), labels)

    @classmethod
    def from_edge_list_file(cls, path, undirected: bool = False) -> "Network":
        """Parse 'u v [w]' lines; '#' starts a comment; labels are strings."""
        edges = []
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) not in (2, 3):
                    raise EdgeListError(
                        f"{path}: line {lineno}: expected 'u v [w]', got {line!r}")
                if len(parts) == 3:
                    try:
                        w = float(parts[2])
                    except ValueError:
                        raise EdgeListError(
                            f"{path}: line {lineno}: bad weight {parts[2]!r}")
                    if not np.isfinite(w) or w < 0:
                        raise EdgeListError(
                            f"{path}: line {lineno}: weight must be nonnegative")
                    edges.append((parts[0], parts[1], w))
                else:
                    edges.append((parts[0], parts[1]))
        if not edges:
            raise EdgeListError(f"{path}: no edges found")
        return cls.from_edges(edges, undirected=undirected)

    @classmethod
    def from_undirected_pairs(cls, n: int, pairs, labels=None) -> "Network":
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        ends = np.unique(np.concatenate([ends, ends[:, ::-1]]), axis=0)
        return cls(n, ends[:, 0], ends[:, 1], np.ones(len(ends)), labels)

    # -- queries ------------------------------------------------------------

    def weights_at(self, a, b) -> np.ndarray:
        """A(a, b) for node index arrays `a` and `b`, broadcast; 0 off-edge."""
        q = np.asarray(a, dtype=np.int64) * self.n + b
        pos = self._keys.searchsorted(q)
        return self._key_weights[pos] * (self._keys[pos] == q)

    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and target of every edge, in `out_edges` order."""
        return np.divmod(self._keys[:-1], self.n)

    def undirected_keys(self) -> np.ndarray:
        """Ascending keys ``u * n + v`` of the edges with u < v; requires a
        symmetric weight map."""
        if not self.is_bidirectional:
            raise ValueError("undirected edge list needs a bidirectional network")
        src, dst = self._edge_ends()
        return self._keys[:-1][src < dst]

    @cached_property
    def is_simple(self) -> bool:
        src, dst = self._edge_ends()
        return bool(np.all(src != dst) and np.all(self.out_edges.weights == 1.0)
                    and np.all(self.weights_at(dst, src) == 1.0))

    @cached_property
    def is_bidirectional(self) -> bool:
        src, dst = self._edge_ends()
        return bool(np.all(self.weights_at(dst, src) > 0.0))

    # -- per-node lists for the chains' scalar steps ---------------------------

    @cached_property
    def _out_ptr(self) -> list[int]:
        return self.out_edges.indptr.tolist()

    @cached_property
    def _in_ptr(self) -> list[int]:
        return self.in_edges.indptr.tolist()

    @cached_property
    def _sums(self) -> tuple[list[float], list[float]]:
        """`out_sums` and `in_sums` as lists."""
        return self.out_sums.tolist(), self.in_sums.tolist()

    def power_row_sums(self, k: int) -> np.ndarray:
        """Ladder of row sums of A^j for j = 0..k-1, via repeated mat-vecs.

        Row j holds (A^j 1)(v) per node; row k-1 is the path-weight mass of
        length-(k-1) extensions used by the exact Pivot chain.
        """
        if k < 1:
            raise ValueError("need k >= 1")
        if k not in self._pow_cache:
            src, dst = self._edge_ends()
            wts = self.out_edges.weights
            ladder = np.empty((k, self.n))
            ladder[0] = 1.0
            for j in range(1, k):
                ladder[j] = np.bincount(src, weights=wts * ladder[j - 1][dst],
                                        minlength=self.n)
            self._pow_cache[k] = ladder
        return self._pow_cache[k]

    def tail_cdfs(self, k: int) -> np.ndarray:
        """Inverse-CDF tables of the exact Pivot chain's tail extensions.

        Row j holds, along `out_edges`, the running sum within each node's
        row of A(a, b) (A^j 1)(b): the weight of extending a path from a
        through b by j more edges.  Rows j = 0..k-2 serve a k-chain.
        """
        if k not in self._tail_cache:
            ladder = self.power_row_sums(k)
            ptr, dst = self.out_edges.indptr, self.out_edges.indices
            tables = np.empty((k - 1, len(dst)))
            for j in range(k - 1):
                tables[j] = _row_cumsum(ptr, self.out_edges.weights * ladder[j][dst])
            tables.flags.writeable = False
            self._tail_cache[k] = tables
        return self._tail_cache[k]


# ---------------------------------------------------------------------------
# Chain homomorphisms
# ---------------------------------------------------------------------------


def _check_chain_length(k: int) -> None:
    if k < 1:
        raise ValueError("chain length k must be at least 1")


def hom_weights(net: Network, k: int, X) -> np.ndarray:
    """k-chain weight of every vertex map in the rows of the (m, k) array X:
    the product A(x(1), x(2)) ... A(x(k-1), x(k)) of the weights along the
    map, positive iff the map is a homomorphism.

    The factors multiply in chain order, starting from 1.0.
    """
    X = np.asarray(X, dtype=np.int64)
    total = np.ones(len(X))
    for i in range(k - 1):
        total *= net.weights_at(X[:, i], X[:, i + 1])
    return total


def _draw(rng, cum, s: int, e: int) -> int:
    """Inverse-CDF draw from the running sums ``cum[s:e]``: the first position
    in [s, e) whose sum exceeds ``U * cum[e - 1]``, and at most e - 1."""
    u = rng.random() * cum[e - 1]
    return min(bisect_right(cum, u, s, e), e - 1)


def _row_weight(adj: Adjacency, ptr: list[int], a: int, b: int) -> float:
    """Weight of neighbor b in row a of `adj` (A(a, b) for out-edges, A(b, a)
    for in-edges); 0.0 when b is not in the row."""
    s, e = ptr[a], ptr[a + 1]
    pos = bisect_left(adj.indices, b, s, e)
    return float(adj.weights[pos]) if pos < e and adj.indices[pos] == b else 0.0


def _row_weights(adj: Adjacency, ptr: list[int], a: int, nodes: list) -> list:
    """`_row_weight` of each of `nodes` in row a of `adj`, read from the row
    as one dict."""
    s, e = ptr[a], ptr[a + 1]
    row = dict(zip(adj.indices[s:e].tolist(), adj.weights[s:e].tolist()))
    return [row.get(b, 0.0) for b in nodes]


def rejection_sample_hom(net: Network, k: int, rng, max_tries: int = 200000):
    """Propose i.i.d. uniform vertex maps until one has positive k-chain
    weight.

    Tries are drawn and tested `_REJECTION_CHUNK` at a time.  On a hit the
    generator is rewound and exactly the tries up to the hit are drawn again,
    so the map returned and the generator's final state are those of drawing
    one size-k try at a time (a batched ``integers`` draw yields the same
    values and state as that many separate draws).
    """
    done = 0
    while done < max_tries:
        m = min(_REJECTION_CHUNK, max_tries - done)
        state = rng.bit_generator.state
        tries = rng.integers(0, net.n, size=(m, k))
        hits = np.flatnonzero(hom_weights(net, k, tries) > 0)
        if len(hits):
            rng.bit_generator.state = state
            tries = rng.integers(0, net.n, size=(int(hits[0]) + 1, k))
            return tuple(int(v) for v in tries[-1])
        done += m
    raise SamplingError("no homomorphism found by rejection sampling")


def chain_walk_sample(net: Network, k: int, rng):
    """Greedy k-chain homomorphism by walking successive out-edges.

    Far cheaper than rejection sampling on sparse networks with long chains;
    the draw is not from the chain weight distribution, which is irrelevant
    for initializing an ergodic chain.  Gives up after 10 000 walks.
    """
    ptr, indices, cum = net._out_ptr, net.out_edges.indices, net.out_edges.cum
    for _ in range(10000):
        x = [int(rng.integers(net.n))]
        ok = True
        for _ in range(k - 1):
            s, e = ptr[x[-1]], ptr[x[-1] + 1]
            if s == e:
                ok = False
                break
            x.append(int(indices[_draw(rng, cum, s, e)]))
        if ok:
            return tuple(x)
    raise SamplingError("no homomorphism found by chain walking")


def initial_homomorphism(net: Network, k: int, rng, max_tries: int = 20000):
    """Rejection sampling with a chain-walk fallback for k >= 2.

    Rejection acceptance decays like hom(k-chain, G)/n^k, hopeless for long
    chains on large sparse networks; the fallback trades the proposal law
    (irrelevant for initializing an ergodic chain) for a guaranteed start.
    """
    _check_chain_length(k)
    try:
        return rejection_sample_hom(net, k, rng, max_tries=max_tries)
    except SamplingError:
        if k >= 2:
            return chain_walk_sample(net, k, rng)
        raise


def glauber_conditional(net: Network, k: int, x, v: int):
    """Candidate nodes and probabilities, as Python lists, for resampling
    chain node v.

    p(w) is proportional to A(x(v-1), w) A(w, x(v+1)), leaving out a factor
    whose neighbor lies beyond the chain's ends; for k = 1 the law is uniform
    over all nodes.  The candidates are the smaller of the two rows, the
    out-row of x(v-1) on a tie, and that row's weights are its own factor.
    """
    if k == 1:
        return list(range(net.n)), [1.0 / net.n] * net.n
    rows = []
    if v > 0:         # A(x(v-1), w) > 0: w is an out-neighbor of x(v-1)
        rows.append((net.out_edges, net._out_ptr, x[v - 1]))
    if v < k - 1:     # A(w, x(v+1)) > 0: w is an in-neighbor of x(v+1)
        rows.append((net.in_edges, net._in_ptr, x[v + 1]))
    # the smaller row first, the out-row of x(v-1) on a tie (a stable sort)
    rows.sort(key=lambda row: row[1][row[2] + 1] - row[1][row[2]])
    (adj, ptr, node), *others = rows
    s, e = ptr[node], ptr[node + 1]
    cand = adj.indices[s:e].tolist()
    weights = adj.weights[s:e].tolist()
    for adj, ptr, node in others:
        other = _row_weights(adj, ptr, node, cand)
        weights = [w * f for w, f in zip(weights, other)]
    total = float(np.add.reduce(weights))   # pairwise, as ndarray.sum adds
    if total <= 0.0:
        raise AssertionError("empty Glauber conditional for a valid homomorphism")
    return cand, [w / total for w in weights]


def _glauber_update(net: Network, k: int, x, rng):
    """Resample one uniformly chosen chain node from its exact conditional."""
    v = int(rng.integers(k))
    cand, probs = glauber_conditional(net, k, x, v)
    new = list(x)
    new[v] = cand[_draw(rng, list(accumulate(probs)), 0, len(cand))]
    return tuple(new)


def _acceptance(net: Network, k: int, v: int, ell: int, w_v_ell: float,
                exact: bool) -> float:
    """Pivot move v -> ell's acceptance given w_v_ell = A(v, ell), in [0, 1]."""
    out_sums, in_sums = net._sums
    if not exact:
        return min(1.0, in_sums[v] / out_sums[v])
    rp = net.power_row_sums(k)[k - 1]
    num = rp[ell] * _row_weight(net.out_edges, net._out_ptr, ell, v) * out_sums[v]
    den = rp[v] * w_v_ell * out_sums[ell]
    if den <= 0.0:
        return 0.0
    return min(1.0, num / den)


def _pivot_update(net: Network, k: int, x, rng, exact: bool):
    """One Pivot chain step for the k-chain.

    Moves the pivot x(1) by one weighted random-walk step, accepts it with the
    Metropolis-Hastings probability, then resamples x(2..k) successively.  On
    rejection (or a dead-end pivot or tail extension) the input homomorphism
    is returned unchanged.
    """
    v = x[0]
    if net._sums[0][v] <= 0.0:
        return x
    ptr, out = net._out_ptr, net.out_edges
    pick = _draw(rng, out.cum, ptr[v], ptr[v + 1])
    ell = int(out.indices[pick])
    if rng.random() > _acceptance(net, k, v, ell, float(out.weights[pick]),
                                  exact):
        return x
    # tail position i extends by an edge weighted by the (k-1-i)-edge path
    # mass beyond it (exact) or by the edge weight alone (approximate)
    tables = net.tail_cdfs(k)[::-1] if exact else (out.cum,) * (k - 1)
    new = [ell]
    for cum in tables:
        s, e = ptr[new[-1]], ptr[new[-1] + 1]
        if s == e or cum[e - 1] <= 0.0:
            return x
        new.append(int(out.indices[_draw(rng, cum, s, e)]))
    return tuple(new)


MCMC_MODES = ("glauber", "pivot", "pivot-approx")


def chain_update(net: Network, k: int, x, rng, mode: str):
    """One step from the k-chain homomorphism x of the chain `mode` names,
    one of `MCMC_MODES`; an unknown mode is refused before any draw."""
    if mode == "glauber":
        return _glauber_update(net, k, x, rng)
    if mode == "pivot":
        return _pivot_update(net, k, x, rng, exact=True)
    if mode == "pivot-approx":
        return _pivot_update(net, k, x, rng, exact=False)
    raise ValueError(f"unknown MCMC mode {mode!r}")


def hom_distribution_bruteforce(net: Network, k: int) -> dict:
    """Exact k-chain weight distribution over V^[k] by full enumeration: each
    homomorphism x weighs A(x(1), x(2)) ... A(x(k-1), x(k)), normalized.

    Guarded at n^k <= 10^7 states; uniform over the walks of k nodes (k - 1
    edges) when the weights are binary.
    """
    _check_chain_length(k)
    if net.n ** k > _ORACLE_GUARD:
        raise OracleSizeError(f"{net.n}^{k} states exceed the enumeration guard")
    shape = (net.n,) * k
    states = net.n ** k
    table = {}
    for start in range(0, states, _ORACLE_BLOCK):
        # maps in lexicographic order, as itertools.product lists them
        flat = np.arange(start, min(start + _ORACLE_BLOCK, states))
        X = np.column_stack(np.unravel_index(flat, shape))
        w = hom_weights(net, k, X)
        hit = w > 0
        table.update(zip(map(tuple, X[hit].tolist()), w[hit].tolist()))
    if not table:
        raise SamplingError("no homomorphism exists")
    total = sum(table.values())
    return {x: w / total for x, w in table.items()}


def mesoscale_patch(net: Network, x) -> np.ndarray:
    """k x k matrix of target weights between the images of the chain nodes.

    `x` may also be an (m, k) stack of vertex maps, one per row; the m
    patches then come back as an (m, k, k) array from one lookup.
    """
    idx = np.asarray(x, dtype=np.int64)
    return net.weights_at(idx[..., :, None], idx[..., None, :])


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two ``{state: probability}`` dicts:
    half the L1 distance, a state missing from one dict counting as 0."""
    if abs(sum(p.values()) - 1.0) > 1e-9 or abs(sum(q.values()) - 1.0) > 1e-9:
        raise ValueError("distributions must sum to one")
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
