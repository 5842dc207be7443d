"""Weighted networks and the motif-sampling Markov chains.

A network is a node set with a sparse nonnegative weight map.  The motif is
the k-chain, the directed path 1 -> 2 -> ... -> k.  A vertex map x: [k] -> V
is a homomorphism when the product A(x(1), x(2)) ... A(x(k-1), x(k)) of the
weights along it is positive.  The chain weight law, each homomorphism in
proportion to that product, is a path measure, so `sample_homomorphisms`
draws from it exactly, node by node, and a chain starts from one such draw
(`initial_homomorphism`).  `chain_update` then takes one step of a
`MotifChain` of mode "glauber" (single-coordinate conditional resampling),
"pivot" or "pivot-approx" (random-walk move of the first node with a
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
whole arrays of pairs is one binary search and one gather.  A network is
read-only; the tables a chain reads belong to its `MotifChain`.

A chain step touches a handful of rows, so it runs on Python scalars, and a
chain visits a few hundred nodes, not the whole graph.  Glauber caches the
rows of the nodes it visits as lists, at most O(E) entries, and the
conditional laws it builds, keyed by the two neighbors that fix a law, at
most max(E, n) entries.  Pivot copies nothing per node: on large graphs most
of its visits are first visits to a row, so it reads the CSR arrays through
``memoryview``s, which index to Python scalars, draws a neighbor by
``bisect`` over the row's span of a running-sum table and reads its
acceptance from a table aligned with the out-edges.  Both chains draw only
uniforms, a Glauber step exactly two, so `chain_steps` draws those of a
block of steps in one call.  Products, quotients and running sums of Python
floats round exactly as numpy's elementwise operations and sequential
``cumsum`` do, so the chains draw the same states from the same random
stream.  The one exception is the total of a Glauber conditional: numpy adds
an array pairwise, which a Python sum does not reproduce, so that total
stays a numpy sum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import length_hint
from types import SimpleNamespace

import numpy as np

_ORACLE_GUARD = 10 ** 7
# Vertex maps the brute-force oracle weighs per batch.
_ORACLE_BLOCK = 65536


class EdgeListError(ValueError):
    """Malformed edge-list input."""


class SamplingError(RuntimeError):
    """No homomorphism exists, so none can be drawn."""


class OracleSizeError(ValueError):
    """Brute-force enumeration would exceed the size guard."""


def _row_cumsum(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Read-only ``np.cumsum`` of each row's slice of `values`, per row.

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
    out.flags.writeable = False
    return out


def _token_spans(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the maximal runs of non-whitespace in the
    character codes `codes`, whitespace being what ``str.split`` splits on.

    Every code up to 32 is whitespace but the controls 0-8 and 14-27; those
    and the codes above 127 are looked up one distinct character at a time.
    """
    space = codes <= 32
    rare = np.flatnonzero((codes < 9) | ((codes > 13) & (codes < 28))
                          | (codes > 127))
    chars, which = np.unique(codes[rare], return_inverse=True)
    space[rare] = np.array([chr(c).isspace() for c in chars.tolist()],
                           dtype=bool)[which]
    bounds = np.flatnonzero(np.diff(~space, prepend=False, append=False))
    return bounds[0::2], bounds[1::2]


def _intern(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Intern the tokens ``codes[starts[i]:ends[i]]`` in first-seen order.

    Returns the index of each distinct token's first occurrence, ascending,
    and each token's id, its label's rank in that order.  Tokens of one
    length are compared together, as fixed-width strings gathered through a
    sliding window over the codes, so the strings take no more memory than
    the codes however long one label is.
    """
    length = ends - starts
    first = np.empty(len(starts), dtype=np.int64)
    for size in np.flatnonzero(np.bincount(length)).tolist():
        sel = np.flatnonzero(length == size)
        names = np.lib.stride_tricks.sliding_window_view(codes, size)[starts[sel]]
        _, at, inverse = np.unique(names.view(f"<U{size}").ravel(),
                                   return_index=True, return_inverse=True)
        first[sel] = sel[at[inverse]]
    return np.unique(first, return_inverse=True)


def _read_edge_list(path):
    """Node ids ``u0, v0, u1, v1, ...``, one weight per edge and the labels
    in first-seen order of an edge-list file.

    The lines are split as ``str.split`` splits them, with array operations
    on the character codes of the whole text.
    """
    with open(path) as fh:
        text = fh.read()
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    starts, ends = _token_spans(codes)
    # '\n' is the one line break; a line's first token leads it, and the
    # lines led by a '#' are comments
    breaks = np.flatnonzero(codes == ord("\n"))
    lines = breaks.searchsorted(starts)
    heads = np.flatnonzero(np.diff(lines, prepend=-1))
    width = np.diff(heads, append=len(starts))
    data = codes[starts[heads]] != ord("#")
    heads, width = heads[data], width[data]
    lines = lines[heads]

    fail, problem = len(heads), ""   # the first bad line and its fault
    bad = np.flatnonzero((width < 2) | (width > 3))
    if len(bad):
        fail = int(bad[0])
        bounds = np.concatenate(([-1], breaks, [len(text)]))
        line = text[bounds[lines[fail]] + 1:bounds[lines[fail] + 1]].strip()
        problem = f"expected 'u v [w]', got {line!r}"
    weights = np.ones(fail)
    for i in np.flatnonzero(width[:fail] == 3).tolist():
        token = text[starts[heads[i] + 2]:ends[heads[i] + 2]]
        try:
            weights[i] = w = float(token)
        except ValueError:
            fail, problem = i, f"bad weight {token!r}"
            break
        if not np.isfinite(w) or w < 0:
            fail, problem = i, "weight must be nonnegative"
            break
    if problem:
        raise EdgeListError(f"{path}: line {lines[fail] + 1}: {problem}")
    if not len(heads):
        raise EdgeListError(f"{path}: no edges found")

    tokens = np.column_stack([heads, heads + 1]).ravel()
    starts, ends = starts[tokens], ends[tokens]
    firsts, ids = _intern(codes, starts, ends)
    labels = [text[a:b] for a, b in zip(starts[firsts].tolist(),
                                        ends[firsts].tolist())]
    return ids, weights, labels


def _lookup_tables(n: int, src, dst, weights) -> tuple[np.ndarray, np.ndarray]:
    """Ascending keys ``a * n + b`` of the positive entries and their weights,
    each with a sentinel appended: the key ``n * n`` matches no pair, and its
    weight is 0.  A pair given twice raises `ValueError`.

    A function of its own so that its temporaries are freed before the
    network builds its CSR tables, the peak of its memory use.
    """
    keys = src.astype(np.int64) * n + dst.astype(np.int64)
    order = np.argsort(keys)
    keys = keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("each (src, dst) pair may appear only once")
    weights = weights[order]
    keep = weights > 0
    return np.append(keys[keep], n * n), np.append(weights[keep], 0.0)


def _node_indices(x, n: int | None = None) -> np.ndarray:
    """`x` as an int64 array; `ValueError` unless it is empty or of integers
    (not bools), which a cast would truncate or read as nodes 0 and 1, and,
    given n, in 0..n-1."""
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise ValueError("node indices must be integers")
    if n is not None and x.size and not 0 <= x.min() <= x.max() < n:
        raise ValueError("node index out of range")
    return x.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Adjacency:
    """One direction of a network's edges in CSR form.

    Row v spans ``indptr[v]:indptr[v + 1]``: its neighbors in ascending order
    in `indices` and their weights in `weights`.  The arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_sorted(cls, n: int, rows, cols, weights) -> "Adjacency":
        """Build from entries sorted by (row, col), one per pair."""
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        adj = cls(indptr, cols, weights)
        for arr in (adj.indptr, adj.indices, adj.weights):
            arr.flags.writeable = False
        return adj

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbors of v and the weights of those edges (views)."""
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.weights[s:e]


class Network:
    """Node set plus sparse nonnegative weight matrix A.

    The positive entries live in two CSR tables, `out_edges` (row a holds the
    b with A(a, b) > 0) and `in_edges` (its transpose, the same object when A
    is symmetric), plus the sorted keys ``a * n + b`` of the out-edges with a
    sentinel ``n * n`` appended, so that `weights_at` finds A(a, b) by
    ``searchsorted``, and the row sums `out_sums` and `in_sums`.  These are
    read-only, and a network keeps nothing else: the running sums a chain
    draws from and its caches belong to its `MotifChain`.

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
        self._keys, self._key_weights = _lookup_tables(n, src, dst, weights)
        rows, cols = np.divmod(self._keys[:-1], n)
        # row sums added in row order, as a running sum of each row ends;
        # kept finite, so that no running sum or path mass overflows
        self.out_sums = np.bincount(rows, self._key_weights[:-1], minlength=n)
        self.in_sums = np.bincount(cols, self._key_weights[:-1], minlength=n)
        if not np.isfinite([self.out_sums, self.in_sums]).all():
            raise ValueError("the weights out of or into a node must have "
                             "a finite sum")
        self.out_edges = Adjacency.from_sorted(n, rows, cols,
                                               self._key_weights[:-1])
        t = np.argsort(cols * n + rows)
        in_rows, in_cols, in_weights = cols[t], rows[t], self._key_weights[t]
        if (np.array_equal(in_rows, rows) and np.array_equal(in_cols, cols)
                and np.array_equal(in_weights, self.out_edges.weights)):
            # a symmetric map is its own transpose: one table
            self.in_edges = self.out_edges
        else:
            self.in_edges = Adjacency.from_sorted(n, in_rows, in_cols,
                                                  in_weights)
        for arr in (self._keys, self._key_weights, self.out_sums, self.in_sums):
            arr.flags.writeable = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_edges(cls, edges, undirected: bool = False) -> "Network":
        """Build from (u, v[, w]) tuples whose node labels are numbers or
        strings.

        Labels are interned to indices in first-seen order; missing weights
        default to 1.0; duplicate pairs accumulate, in input order.
        """
        edges = list(edges)
        if not edges:
            raise EdgeListError("no edges found")
        ends = [label for edge in edges for label in edge[:2]]
        _, first, inverse = np.unique(ends, return_index=True,
                                      return_inverse=True)
        firsts, ids = np.unique(first[inverse], return_inverse=True)
        weights = [float(edge[2]) if len(edge) > 2 else 1.0 for edge in edges]
        return cls._from_ids(ids, weights,
                             [str(ends[i]) for i in firsts.tolist()], undirected)

    @classmethod
    def from_edge_list_file(cls, path, undirected: bool = False) -> "Network":
        """Parse 'u v [w]' lines; '#' starts a comment; labels are strings.

        The grammar is that of ``line.strip().split()`` on each line of the
        text file; the first bad line raises `EdgeListError`, as does a sum
        of weights past float64.
        """
        ids, weights, labels = _read_edge_list(path)
        try:
            return cls._from_ids(ids, weights, labels, undirected)
        except ValueError:   # each weight read is finite: a sum is not
            raise EdgeListError(f"{path}: the weights of a pair or of a node "
                                "sum past float64") from None

    @classmethod
    def _from_ids(cls, ids, weights, labels, undirected) -> "Network":
        """Build from node ids ``u0, v0, u1, v1, ...`` and one weight per edge.

        Duplicate pairs accumulate in input order; undirected, each edge adds
        to (u, v), then to (v, u) if u != v.
        """
        n = len(labels)
        u, v = ids[0::2], ids[1::2]
        keys = u * n + v
        weights = np.asarray(weights, dtype=float)
        if undirected:
            keep = np.ones(2 * len(u), dtype=bool)
            keep[1::2] = u != v
            keys = np.column_stack([keys, v * n + u]).ravel()[keep]
            weights = np.repeat(weights, 2)[keep]
        keys, inverse = np.unique(keys, return_inverse=True)
        weights = np.bincount(inverse, weights=weights)
        del inverse   # not held through the constructor's own peak
        return cls(n, *np.divmod(keys, n), weights, labels)

    @classmethod
    def from_undirected_pairs(cls, n: int, pairs, labels=None) -> "Network":
        ends = np.asarray(pairs).reshape(-1, 2)
        u, v = ends[:, 0], ends[:, 1]
        if ends.dtype.kind not in "iu" or not np.all((ends >= 0) & (ends < n)):
            return cls(n, u, v, np.ones(len(u)), labels)   # which names it
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        # sorted and deduplicated by hand: a values-only np.unique hashes
        # (numpy >= 2.3), about 50x slower than sorting these keys, and its
        # first call imports numpy.ma
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        keys = keys[np.diff(keys, prepend=-1) > 0]
        src, dst = np.divmod(keys, n)
        return cls(n, src, dst, np.ones(len(keys)), labels)

    # -- queries ------------------------------------------------------------

    def weights_at(self, a, b) -> np.ndarray:
        """A(a, b) for node index arrays `a` and `b`, broadcast; 0 off-edge.
        An index that is not an integer or lies outside 0..n-1 raises
        `ValueError`."""
        a, b = _node_indices(a, self.n), _node_indices(b, self.n)
        q = a * self.n + b
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

    @property
    def is_simple(self) -> bool:
        src, dst = self._edge_ends()
        return bool(np.all(src != dst) and np.all(self.out_edges.weights == 1.0)
                    and np.all(self.weights_at(dst, src) == 1.0))

    @property
    def is_bidirectional(self) -> bool:
        src, dst = self._edge_ends()
        return bool(np.all(self.weights_at(dst, src) > 0.0))

    def power_row_sums(self, k: int) -> np.ndarray:
        """Ladder of row sums of A^j for j = 0..k-1, via repeated mat-vecs.

        Row j holds (A^j 1)(v) per node, the path-weight mass of the
        length-j walks from v, times the power of two that puts the row's
        maximum in [0.5, 1) (row 0 is 1); row k-1 weighs the first node of
        the exact Pivot chain and of `sample_homomorphisms`, the rows below
        it their tails.  Its readers compare entries of one row only, and a
        power of two scales a normal double exactly, so the scaling keeps
        rows in range and changes no draw.  The ladder is built on every
        call and not kept: a Glauber chain needs it for its start alone.
        """
        if k < 1:
            raise ValueError("need k >= 1")
        src, dst = self._edge_ends()
        wts = self.out_edges.weights
        ladder = np.empty((k, self.n))
        ladder[0] = 1.0
        for j in range(1, k):
            ladder[j] = np.bincount(src, weights=wts * ladder[j - 1][dst],
                                    minlength=self.n)
            np.ldexp(ladder[j], -np.frexp(ladder[j].max())[1], out=ladder[j])
        return ladder


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

    The factors multiply in chain order, starting from 1.0.  An X that is
    not an (m, k) array of integers raises `ValueError`.
    """
    X = _node_indices(X)
    if X.ndim != 2 or X.shape[1] != k:
        raise ValueError(f"vertex maps must form an (m, {k}) array")
    total = np.ones(len(X))
    for i in range(k - 1):
        total *= net.weights_at(X[:, i], X[:, i + 1])
    return total


def _draw(rng, cum, s: int, e: int) -> int:
    """Inverse-CDF draw from the running sums ``cum[s:e]``: the first position
    in [s, e) whose sum exceeds ``U * cum[e - 1]``, and at most e - 1."""
    u = rng.random() * cum[e - 1]
    return min(bisect_right(cum, u, s, e), e - 1)


def sample_homomorphisms(net: Network, k: int, rng, m: int) -> np.ndarray:
    """m independent draws from the k-chain weight law, the rows of an
    (m, k) int64 array.

    The law is a path measure, so it is sampled forward: x(0) with weight
    ``(A^(k-1) 1)(v)``, the last row of `power_row_sums`, and x(i+1) given
    x(i) from the out-row of x(i) with weight ``A(x(i), w) (A^(k-2-i) 1)(w)``.
    A draw inverts the running sums of its own row, as `_draw` does, at the
    first entry whose sum exceeds U times the row's total, but never past
    the last entry to rise, so it never lands on a weight of 0.  The rows
    the m draws read at one position are padded to the longest of them.  The
    k m uniforms come from one ``random`` call, x(0)'s first.

    `SamplingError` is raised before any draw when no homomorphism exists,
    the ladder's last row being all zero.
    """
    _check_chain_length(k)
    ladder = net.power_row_sums(k)
    cum = np.cumsum(ladder[k - 1])
    total = cum[-1]
    if total <= 0.0:
        raise SamplingError("no homomorphism exists")
    u = rng.random((k, m))
    x = np.empty((m, k), dtype=np.int64)
    x[:, 0] = np.minimum(cum.searchsorted(u[0] * total, "right"),
                         cum.searchsorted(total))
    out = net.out_edges
    ptr, nbrs, wts = out.indptr, out.indices, out.weights
    draws = np.arange(m)
    for i in range(k - 1):
        s, e = ptr[x[:, i]], ptr[x[:, i] + 1]
        # entries past a row's end repeat its last one, so their sums reach
        # at least the row's total and are never counted below
        at = np.minimum(s[:, None] + np.arange(np.max(e - s, initial=0)),
                        e[:, None] - 1)
        cum = np.cumsum(wts[at] * ladder[k - 2 - i][nbrs[at]], axis=1)
        total = cum[draws, e - s - 1][:, None]
        pick = np.minimum(np.sum(cum <= u[i + 1][:, None] * total, axis=1),
                          np.sum(cum < total, axis=1))
        x[:, i + 1] = nbrs[s + pick]
    return x


def initial_homomorphism(net: Network, k: int, rng) -> tuple:
    """A chain's start: one draw of `sample_homomorphisms`, as a tuple of
    Python ints."""
    return tuple(sample_homomorphisms(net, k, rng, 1)[0].tolist())


def _check_map(k: int, x) -> None:
    if len(x) != k:
        raise ValueError(f"vertex map has {len(x)} entries, the {k}-chain "
                         f"needs {k}")


MCMC_MODES = ("glauber", "pivot", "pivot-approx")


class MotifChain:
    """What the k-chain sampler of mode `mode` (one of `MCMC_MODES`) reads
    from `net`, built once; `chain_update` and `chain_steps` step a map with
    it.  Maps that share one, as the chains of one `hom-diag` run do, share
    its caches.

    Glauber keeps the rows it visits as lists (`_row_lists`) and its
    conditional laws (`_glauber_law`), the k = 1 law among them.  Pivot
    keeps, in the order it reads them, the row offsets as a list and
    read-only ``memoryview``s of the out-neighbors, its move table, each
    out-edge's acceptance and its tail rows.  Running-sum row j sums
    ``A(a, b) * power_row_sums(k)[j][b]`` within each out-row a; row 0 is
    the move table.  Exact, tail node i draws from row k-2-i (one ladder
    builds them all); approximate, every draw reads row 0.
    The move v -> ell along an out-edge is accepted with probability min(1, r).
    Approximate, r is ``in_sums[v] / out_sums[v]``.  Exact, r is
    ``rp[ell] * A(ell, v) * out_sums[v]`` over
    ``rp[v] * A(v, ell) * out_sums[ell]``, with rp the path-mass row
    ``power_row_sums(k)[k - 1]``, and 0 where that denominator is 0.  Each
    product is formed as ``np.frexp`` mantissas multiplied in that order and
    exponents summed, and r as their quotient scaled once by ``np.ldexp``,
    so no product overflows or underflows; wherever both products are
    normal, r rounds as their plain quotient does.  A k below 1 and an
    unknown mode raise `ValueError`.
    """

    def __init__(self, net: Network, k: int, mode: str):
        _check_chain_length(k)
        if mode not in MCMC_MODES:
            raise ValueError(f"unknown MCMC mode {mode!r}")
        self.net, self.k, self.mode = net, k, mode
        if mode == "glauber":
            self._update = _glauber_update
            # (table, cache) per direction; a symmetric network has one
            self._out_rows = (net.out_edges, {})
            self._in_rows = (self._out_rows if net.in_edges is net.out_edges
                             else (net.in_edges, {}))
            self._laws: dict[int, tuple] = {}
            self._law_entries = 0   # candidates held over all laws
            self._law_bound = len(net.out_edges.indices)
            return
        out = net.out_edges
        src, dst = net._edge_ends()
        if mode == "pivot":
            ladder = net.power_row_sums(k)
            rp, sums = ladder[k - 1], net.out_sums
            num = (rp[dst], net.weights_at(dst, src), sums[src])
            den = (rp[src], out.weights, sums[dst])
        else:
            ladder = np.ones((1, net.n))   # row 0 of every ladder
            num, den = (net.in_sums[src],), (net.out_sums[src],)
        rows = [memoryview(_row_cumsum(out.indptr, out.weights * ladder[j][dst]))
                for j in range(max(len(ladder) - 1, 1))]
        tails = rows[:k - 1][::-1] if mode == "pivot" else rows * (k - 1)
        split = []   # mantissas multiplied in order, exponents summed
        for factors in (num, den):
            mant, exp = np.frexp(factors[0])
            for m, e in map(np.frexp, factors[1:]):
                mant *= m
                exp += e
            split += [mant, exp]
        nm, ne, dm, de = split
        # a mantissa product lies in [1/8, 1), so past 2^3 the ratio is above 1
        accept = np.fmin(1.0, np.ldexp(
            np.divide(nm, dm, out=np.zeros(len(dm)), where=dm != 0.0),
            np.minimum(ne - de, 3)))
        accept.flags.writeable = False
        self._update = _pivot_update
        self._pivot = (out.indptr.tolist(), memoryview(out.indices), rows[0],
                       memoryview(accept), tuple(tails))


def _row_lists(rows: tuple, v: int) -> tuple[list[int], list[float]]:
    """Row v of a Glauber chain's (table, cache) pair as Python lists, read
    once and then cached: its neighbors, ascending, and their weights times
    the power of two that puts their maximum in [0.5, 1), so that products
    of two rows stay in range.  The lists are shared: do not modify them."""
    table, cache = rows
    try:
        return cache[v]
    except KeyError:
        s, e = table.indptr[v], table.indptr[v + 1]
        w = table.weights[s:e]
        exp = np.frexp(w.max(initial=0.0))[1]
        row = cache[v] = (table.indices[s:e].tolist(),
                          np.ldexp(w, -exp).tolist())
        return row


def glauber_conditional(chain: MotifChain, x, v: int):
    """Candidate nodes and probabilities, as Python lists, for resampling
    chain node v of the map x under the Glauber chain `chain`.

    p(w) is proportional to A(x(v-1), w) A(w, x(v+1)), leaving out a factor
    whose neighbor lies beyond the chain's ends; for k = 1 the law is uniform
    over all nodes.  The candidates are the smaller of the two rows, the
    out-row of x(v-1) on a tie, and that row's weights are its own factor;
    a candidate missing from the other row has probability 0.  The law is
    built anew on every call from the rows the chain caches (`_row_lists`,
    scaled by powers of two, which leaves the law as it is), so the
    candidate list may be a cached row: read it, do not modify it.
    The chain step does not call this function on every step: it draws from
    the chain's cache of these laws (`_glauber_law`).  A chain of another
    mode, a map whose length is not k, or a v outside 0..k-1, raises
    `ValueError` before any row is read; so does a law with no candidate of
    positive weight, which only a map that is not a homomorphism has.
    """
    if chain.mode != "glauber":
        raise ValueError(f"a {chain.mode!r} chain has no Glauber conditional")
    k = chain.k
    _check_map(k, x)
    if not 0 <= v < k:
        raise ValueError(f"chain node v must lie in 0..{k - 1}, got {v}")
    if k == 1:
        return list(range(chain.net.n)), [1.0 / chain.net.n] * chain.net.n
    if v == 0:        # A(w, x(v+1)) > 0: w is an in-neighbor of x(v+1)
        cand, weights = _row_lists(chain._in_rows, x[1])
    elif v == k - 1:  # A(x(v-1), w) > 0: w is an out-neighbor of x(v-1)
        cand, weights = _row_lists(chain._out_rows, x[v - 1])
    else:             # the smaller row's weights times the other's
        row = _row_lists(chain._out_rows, x[v - 1])
        other = _row_lists(chain._in_rows, x[v + 1])
        if len(other[0]) < len(row[0]):   # the out-row of x(v-1) on a tie
            row, other = other, row
        cand, own = row
        # both rows ascend, so each candidate's search starts where the
        # previous one's ended
        nodes, factors = other
        at, end, weights = 0, len(nodes), []
        for b, w in zip(cand, own):
            at = bisect_left(nodes, b, at, end)
            weights.append(w * factors[at] if at < end and nodes[at] == b
                           else 0.0)
    total = float(np.add.reduce(weights))   # pairwise, as ndarray.sum adds
    if total <= 0.0:
        raise ValueError(f"vertex map is not a homomorphism of the {k}-chain: "
                         f"chain node {v} has no candidate")
    return cand, [w / total for w in weights]


def _glauber_law(chain: MotifChain, x, v: int, key: int) -> tuple:
    """`glauber_conditional` as the step draws from it, built and cached per
    chain under `key`: the running sums that rise, then the candidates at
    which they rise.

    The law depends on x(v-1) and x(v+1) alone, so the step keys it by
    ``x(v-1) * (n + 1) + x(v+1)``, the node index n standing for a neighbor
    beyond an end of the chain, reads it with one lookup and calls this
    function only on a miss; at k = 1 its one key, ``n * (n + 1) + n``,
    holds the uniform law.  An inverse-CDF draw never lands on a candidate
    whose running sum equals its predecessor's (``U * cum[-1] < cum[-1]``
    for ``U < 1``), so leaving those out draws the same nodes.  The cache is
    emptied when a new law would take its candidates past the E positive
    entries of A; a law holds at most one row's, or the n nodes at k = 1,
    so the cache holds at most max(E, n) candidates.
    """
    cand, probs = glauber_conditional(chain, x, v)
    nodes, cum, last = [], [], 0.0
    for b, s in zip(cand, accumulate(probs)):
        if s > last:
            nodes.append(b)
            cum.append(s)
            last = s
    laws = chain._laws
    chain._law_entries += len(nodes)
    if chain._law_entries > chain._law_bound:
        laws.clear()
        chain._law_entries = len(nodes)
    law = laws[key] = tuple(cum + nodes)
    return law


def _glauber_update(chain: MotifChain, x, rng):
    """Resample one uniformly chosen chain node from its exact conditional.

    The step calls only ``rng.random()``, exactly twice: the node is
    ``int(k * U)``, below k for every U < 1, and its new value the
    inverse-CDF draw of the second uniform from the cached law: the first
    candidate whose running sum exceeds U times the law's total.  That total
    is about 1, a normal double, so ``U * total < total`` and the draw never
    passes the last candidate.
    """
    k, n = chain.k, chain.net.n
    v = int(k * rng.random())
    key = (x[v - 1] if v else n) * (n + 1) + (x[v + 1] if v < k - 1 else n)
    law = chain._laws.get(key) or _glauber_law(chain, x, v, key)
    m = len(law) >> 1
    new = list(x)
    new[v] = law[m + bisect_right(law, rng.random() * law[m - 1], 0, m)]
    return tuple(new)


def _pivot_update(chain: MotifChain, x, rng):
    """One Pivot chain step for the k-chain.

    Moves the pivot x(1) by one weighted random-walk step, accepts it with the
    Metropolis-Hastings probability, then resamples x(2..k) successively.  On
    rejection (or a dead-end pivot or tail extension) the input homomorphism
    is returned unchanged.  The step calls only ``rng.random()``, at most
    k + 1 times.
    """
    ptr, nbrs, cum, accept, tails = chain._pivot
    s, e = ptr[x[0]], ptr[x[0] + 1]
    if s == e:
        return x
    pick = _draw(rng, cum, s, e)
    if rng.random() > accept[pick]:
        return x
    # tail position i extends by an edge weighted by the (k-1-i)-edge path
    # mass beyond it (exact) or by the edge weight alone (approximate)
    new = [nbrs[pick]]
    for cum in tails:
        s, e = ptr[new[-1]], ptr[new[-1] + 1]
        if s == e or cum[e - 1] <= 0.0:
            return x
        new.append(nbrs[_draw(rng, cum, s, e)])
    return tuple(new)


def chain_update(chain: MotifChain, x, rng):
    """One step of `chain` from the homomorphism x of its k-chain.  A map
    whose length is not k is refused with `ValueError` before any draw."""
    if len(x) != chain.k:
        _check_map(chain.k, x)
    return chain._update(chain, x, rng)


def chain_steps(chain: MotifChain, x, rng, m: int) -> list:
    """The maps of m successive `chain_update` steps of `chain` from x, in
    order.

    A step draws only uniforms, exactly 2 (Glauber) or at most k + 1
    (Pivot), so the block's steps read theirs from the m times as many
    uniforms drawn in one call.  Where a Pivot step used fewer, the
    generator is then rewound and exactly the uniforms used are drawn again,
    which leaves it where m separate steps leave it (a batched ``random``
    draw yields the same values and state as that many separate draws).
    Each step is still one `chain_update` call.  A start x with an edge
    factor ``A(x(i), x(i+1))`` of 0, or with a node outside the network, is
    refused with `ValueError` before any draw.
    """
    k = chain.k
    _check_map(k, x)
    if not np.all(chain.net.weights_at(x[:-1], x[1:]) > 0.0):
        raise ValueError(f"vertex map is not a homomorphism of the {k}-chain: "
                         "its weight is 0")
    drawn = m * (2 if chain.mode == "glauber" else k + 1)
    state = rng.bit_generator.state
    uniforms = iter(rng.random(drawn).tolist())
    # served in order by `random`, as ``Generator.random()`` serves them
    source = SimpleNamespace(random=uniforms.__next__)
    maps = []
    try:
        for _ in range(m):
            # x by keyword: perfbench/probe.py wraps `chain_update` and counts
            # a move where the result differs from the keyword x
            x = chain_update(chain, x=x, rng=source)
            maps.append(x)
    finally:
        left = length_hint(uniforms)
        if left:
            rng.bit_generator.state = state
            rng.random(drawn - left)
    return maps


def hom_distribution_bruteforce(net: Network, k: int) -> dict:
    """Exact k-chain weight distribution over V^[k] by full enumeration: each
    homomorphism x weighs A(x(1), x(2)) ... A(x(k-1), x(k)), normalized.

    Guarded at n^k <= 10^7 states; uniform over the walks of k nodes (k - 1
    edges) when the weights are binary.  Each factor is scaled by the power
    of two that puts the largest weight in [0.5, 1), so tiny or huge weights
    stay in range and the law keeps its bytes where the products were normal.
    """
    _check_chain_length(k)
    if net.n ** k > _ORACLE_GUARD:
        raise OracleSizeError(f"{net.n}^{k} states exceed the enumeration guard")
    shape = (net.n,) * k
    states = net.n ** k
    e = int(np.frexp(net.out_edges.weights.max(initial=0.0))[1])
    table = {}
    for start in range(0, states, _ORACLE_BLOCK):
        # maps in lexicographic order, as itertools.product lists them
        flat = np.arange(start, min(start + _ORACLE_BLOCK, states))
        X = np.column_stack(np.unravel_index(flat, shape))
        w = np.ones(len(X))   # `hom_weights` times 2^-e per factor
        for i in range(k - 1):
            w *= np.ldexp(net.weights_at(X[:, i], X[:, i + 1]), -e)
        hit = w > 0
        table.update(zip(map(tuple, X[hit].tolist()), w[hit].tolist()))
    if not table:
        raise SamplingError("no homomorphism exists")
    total = sum(table.values())
    return {x: w / total for x, w in table.items()}


def mesoscale_patch(net: Network, x) -> np.ndarray:
    """k x k matrix of target weights between the images of the chain nodes.

    `x` may also be an (m, k) stack of vertex maps, one per row; the m
    patches then come back as an (m, k, k) array.  When the stack holds u
    distinct nodes with u^2 < m k^2 (a chain revisits its nodes), the u x u
    block among them is looked up once and the patches are gathered from it;
    otherwise every entry is looked up.  Both give the same values.
    """
    idx = np.asarray(x)   # `weights_at` refuses indices that are not integers
    nodes = np.sort(idx, axis=None)
    new = nodes[1:] != nodes[:-1]     # where the next distinct node starts
    if (np.count_nonzero(new) + 1) ** 2 < idx.size * idx.shape[-1]:
        nodes = nodes[np.append(True, new)]
        block = net.weights_at(nodes[:, None], nodes[None, :])
        at = nodes.searchsorted(idx)
        return block[at[..., :, None], at[..., None, :]]
    return net.weights_at(idx[..., :, None], idx[..., None, :])


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two ``{state: probability}`` dicts:
    half the L1 distance, a state missing from one dict counting as 0."""
    if abs(sum(p.values()) - 1.0) > 1e-9 or abs(sum(q.values()) - 1.0) > 1e-9:
        raise ValueError("distributions must sum to one")
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))
