"""Network dictionary learning, reconstruction, corruption, and denoising.

Learning drives the streaming factorization engine with minibatches of
vectorized mesoscale patches produced by a motif-sampling chain.
Reconstruction runs a single chain, sparse-codes the patches it visits against
a learned dictionary in blocks of ``RECON_BLOCK`` chain steps (one matrix solve
per block), and averages the approximations per node pair.
Denoising corrupts a simple graph, reconstructs it, and classifies candidate
pairs by their reconstructed weight, scored with an ROC curve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .factorization import AggregateStats, init_engine, learn, sparse_code
from .networks import (MCMC_MODES, Network, chain_update, initial_homomorphism,
                       mesoscale_patch)

# Chain steps whose patches nr_reconstruct codes in one sparse_code call.
RECON_BLOCK = 512


class CorruptionError(ValueError):
    """Requested corruption cannot be realized on this graph."""


class DegenerateAggregatesError(ValueError):
    """All aggregate diagonal entries are zero; no atom was ever used."""


class RocError(ValueError):
    """ROC computation needs at least one positive and one negative label."""


@dataclass
class NDLParams:
    """Knobs for network dictionary learning."""

    k: int
    atoms: int
    iters: int = 100
    batch: int = 100
    lam: float = 1.0
    dict_radius: float = 1000.0
    mcmc: str = "pivot"
    beta: float = 1.0
    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self):
        if min(self.k, self.atoms, self.iters, self.batch) < 1:
            raise ValueError("counts must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.mcmc not in MCMC_MODES:
            raise ValueError(f"mcmc mode must be one of {MCMC_MODES}")


@dataclass
class NetworkDictionary:
    """Learned atoms plus the aggregates that produced them."""

    W: np.ndarray
    stats: AggregateStats
    k: int
    loss_trace: list = field(default_factory=list)


def dominance_scores(P: np.ndarray) -> np.ndarray:
    """Normalized square roots of the diagonal aggregate entries."""
    diag = np.sqrt(np.maximum(np.diag(np.asarray(P, dtype=float)), 0.0))
    total = float(diag.sum())
    if total <= 0.0:
        raise DegenerateAggregatesError("degenerate aggregates")
    return diag / total


def _motif_patches(net: Network, k: int, x, rng, mcmc: str, sizes):
    """Advance the chain from x by each block size m in turn, yielding per
    block the homomorphisms as the rows of an (m, k) array and their
    vectorized patches as the columns of the C-contiguous k^2 x m matrix,
    made by one `mesoscale_patch` call."""
    for m in sizes:
        maps = []
        for _ in range(m):
            x = chain_update(net, k, x, rng, mcmc)
            maps.append(x)
        xs = np.array(maps, dtype=np.int64)
        yield xs, np.ascontiguousarray(mesoscale_patch(net, xs).reshape(m, -1).T)


def ndl_learn(net: Network, params: NDLParams, rng) -> NetworkDictionary:
    """Learn a network dictionary from a motif-sampling chain.

    Per iteration, `batch` chain updates produce mesoscale patches vectorized
    into a k^2 x batch matrix which drives one engine step with balanced
    weights (beta defaults to 1).
    """
    blocks = _motif_patches(net, params.k,
                            initial_homomorphism(net, params.k, rng), rng,
                            params.mcmc, itertools.repeat(params.batch))
    engine = init_engine(params.k ** 2, params.atoms, params.dict_radius, rng,
                         beta=params.beta, lam=params.lam, kappa1=params.kappa1,
                         kappa2=params.kappa2, code_tol=1e-8, code_max_iter=500,
                         dict_tol=1e-8, dict_max_iter=100)
    trace = learn(engine, (X for _, X in blocks), params.iters)
    return NetworkDictionary(W=engine.W.copy(), stats=engine.stats,
                             k=params.k, loss_trace=trace)


# ---------------------------------------------------------------------------
# Network reconstruction
# ---------------------------------------------------------------------------


class ReconstructionState:
    """Per visited node pair {u, v}: the sum and the number of folded
    proposals in either orientation, at ascending keys
    ``min(u, v) * n + max(u, v)``.  Like ``Network`` keys, the arrays end in
    a sentinel key ``n * n`` with sum 0 and count 0."""

    def __init__(self, n: int):
        self.n = n
        self.keys = np.array([n * n], dtype=np.int64)
        self.sums = np.zeros(1)
        self.counts = np.zeros(1, dtype=np.int64)

    def _key(self, us, vs) -> np.ndarray:
        return np.minimum(us, vs) * self.n + np.maximum(us, vs)

    def fold_many(self, us: np.ndarray, vs: np.ndarray,
                  values: np.ndarray) -> None:
        """Fold proposals values[i] at pairs {us[i], vs[i]}.  A block's values
        are summed per pair in index order, then added to the pair's sum."""
        size = len(self.keys)
        self.keys, inverse = np.unique(
            np.concatenate([self.keys, self._key(us, vs)]), return_inverse=True)
        old, new = inverse[:size], inverse[size:]
        sums = np.bincount(new, weights=values, minlength=len(self.keys))
        counts = np.bincount(new, minlength=len(self.keys))
        sums[old] += self.sums
        counts[old] += self.counts
        self.sums, self.counts = sums, counts

    def scores(self, pairs) -> np.ndarray:
        """Mean proposal at each pair key ``u * n + v``, in either
        orientation; 0 for pairs never visited."""
        keys = self._key(*np.divmod(np.asarray(pairs, dtype=np.int64), self.n))
        pos = self.keys.searchsorted(keys)
        return np.divide(self.sums[pos], self.counts[pos],
                         out=np.zeros(keys.shape), where=self.keys[pos] == keys)

    def pair_score(self, u: int, v: int) -> float:
        """``scores`` of the one pair (u, v)."""
        return float(self.scores(u * self.n + v))


def nr_reconstruct(net: Network, W: np.ndarray, iters: int, rng,
                   lam: float = 0.0, mcmc: str = "pivot",
                   code_tol: float = 1e-8, code_max_iter: int = 500
                   ) -> ReconstructionState:
    """Reconstruct a network by averaging dictionary approximations of patches.

    The chain advances ``RECON_BLOCK`` steps at a time, keeping each step's
    homomorphism x and mesoscale patch.  The block's patches are sparse-coded
    against W in one call, and entry (a, b) of each step's k x k approximation
    W h is folded into the mean at node pair (x[a], x[b]).  Coding draws no
    random numbers, so the chain's trajectory does not depend on the block
    size.  ``iters``, ``lam`` and ``mcmc`` are checked before any draw.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if mcmc not in MCMC_MODES:
        raise ValueError(f"unknown MCMC mode {mcmc!r}")
    W = np.asarray(W, dtype=float)
    k2, _ = W.shape
    k = int(round(math.sqrt(k2)))
    if k * k != k2:
        raise ValueError("dictionary rows must be a perfect square")
    sizes = [min(RECON_BLOCK, iters - start)
             for start in range(0, iters, RECON_BLOCK)]
    blocks = _motif_patches(net, k, initial_homomorphism(net, k, rng), rng,
                            mcmc, sizes)
    state = ReconstructionState(net.n)
    rows, cols = np.divmod(np.arange(k2), k)
    for xs, X in blocks:
        H = sparse_code(X, W, lam=lam, tol=code_tol, max_iter=code_max_iter)
        state.fold_many(xs[:, rows].ravel(), xs[:, cols].ravel(),
                        (W @ H).T.ravel())
    return state


# ---------------------------------------------------------------------------
# Corruption and denoising
# ---------------------------------------------------------------------------


@dataclass
class CorruptionResult:
    """Corrupted network plus ``flipped``, the ascending keys ``u * n + v``
    (u < v) of the pairs the corruption changed: the removed edges
    (subtractive) or the injected ones (additive).

    Within the candidate universe ``candidate_pairs(corrupted, mode)`` the
    flipped pairs are the corrupted ones; every other candidate is genuine.
    """

    corrupted: Network
    flipped: np.ndarray


def corrupt_network(net: Network, mode: str, fraction: float, rng) -> CorruptionResult:
    """Corrupt a simple graph by deleting or injecting ceil(fraction*|E|) edges.

    Subtractive deletions walk the edges in one shuffled order and delete each
    edge whose removal keeps the graph connected, until the quota is met (an
    edge skipped as a bridge stays a bridge, so one pass reaches any feasible
    quota).  Edge i is deleted exactly when edges later in the order already
    join its endpoints, so the deleted edges are the first ``quota`` edges
    outside the spanning forest that Kruskal's union-find builds from the end
    of the order; the graph is connected when that forest has n - 1 edges.
    Additive insertions are uniform over non-adjacent pairs.
    """
    if not net.is_simple:
        raise CorruptionError("corruption requires a simple graph")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    n = net.n
    edges = net.undirected_keys()
    quota = math.ceil(fraction * len(edges))

    if mode == "subtractive":
        order = edges[rng.permutation(len(edges))]
        root = list(range(n))

        def find(a):
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a

        spare = []          # edges that later edges already join, last first
        for key in order[::-1].tolist():
            ru, rv = find(key // n), find(key % n)
            if ru == rv:
                spare.append(key)
            else:
                root[ru] = rv
        if len(edges) - len(spare) < n - 1:
            raise CorruptionError("subtractive corruption requires a connected graph")
        flipped = np.array(spare[::-1][:quota], dtype=np.int64)
        if len(flipped) < quota:
            raise CorruptionError(
                f"only {len(flipped)} of {quota} edges removable without "
                "disconnecting the graph")
        kept = edges[~np.isin(edges, flipped)]
    elif mode == "additive":
        pool = candidate_pairs(net, "subtractive")
        if quota > len(pool):
            raise CorruptionError(
                f"cannot add {quota} edges: only {len(pool)} non-adjacent pairs")
        flipped = pool[rng.permutation(len(pool))[:quota]]
        kept = np.concatenate([edges, flipped])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    corrupted = Network.from_undirected_pairs(
        n, np.column_stack(np.divmod(kept, n)), labels=net.labels)
    return CorruptionResult(corrupted=corrupted, flipped=np.sort(flipped))


def candidate_pairs(corrupted: Network, mode: str) -> np.ndarray:
    """Classification universe as ascending keys ``u * n + v``, u < v, of a
    symmetric network: its non-edges (subtractive) or edges (additive)."""
    edges = corrupted.undirected_keys()
    if mode == "additive":
        return edges
    if mode != "subtractive":
        raise ValueError(f"unknown corruption mode {mode!r}")
    absent = np.triu(np.ones((corrupted.n, corrupted.n), dtype=bool), 1)
    absent.flat[edges] = False
    return np.flatnonzero(absent)


def lower_tail_is_positive(mode: str) -> bool:
    """Which reconstructed-weight tail flags a corrupted pair: injected edges
    (additive) are the low tail, removed edges (subtractive) the high one."""
    if mode not in ("additive", "subtractive"):
        raise ValueError(f"unknown corruption mode {mode!r}")
    return mode == "additive"


def denoise_classify(scores: np.ndarray, theta: float,
                     lower_is_positive: bool = True) -> np.ndarray:
    """Flag the scores strictly below theta, or strictly above it when not
    ``lower_is_positive``."""
    return scores < theta if lower_is_positive else scores > theta


@dataclass
class RocResult:
    """Threshold-swept ROC points and the trapezoid area under the curve."""

    points: list
    auc: float


def roc_auc(scores, labels, lower_is_positive: bool = True) -> RocResult:
    """ROC curve and AUC for scores against aligned boolean positive labels.

    Thresholds sweep all distinct score values (strict comparison), so tied
    scores advance the curve diagonally and the trapezoid AUC equals the
    Mann-Whitney statistic with half credit for ties.  One sort groups the
    ties; cumulative label counts over the groups give every point, in
    O(n log n) for n pairs.  The order of the pairs does not matter.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape:
        raise ValueError("scores and labels must be aligned, one per pair")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise RocError("need at least one positive and one negative label")
    uniques, group = np.unique(s, return_inverse=True)
    pos = np.bincount(group[y], minlength=len(uniques))
    neg = np.bincount(group[~y], minlength=len(uniques))
    if lower_is_positive:
        thresholds = np.append(uniques, math.inf)
    else:
        thresholds = np.append(uniques[::-1], -math.inf)
        pos, neg = pos[::-1], neg[::-1]
    # Counts predicted positive at each threshold: all tie groups before it.
    fprs = np.append(0, np.cumsum(neg)) / n_neg
    tprs = np.append(0, np.cumsum(pos)) / n_pos
    points = list(zip(thresholds.tolist(), fprs.tolist(), tprs.tolist()))
    auc = float(np.sum(np.diff(fprs) * (tprs[1:] + tprs[:-1]) / 2.0))
    return RocResult(points=points, auc=auc)
