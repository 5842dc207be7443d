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

import math
from dataclasses import dataclass, field

import numpy as np

from .factorization import AggregateStats, init_engine, learn, sparse_code
from .networks import (Motif, Network, chain_update, initial_homomorphism,
                       mesoscale_patch)

MCMC_MODES = ("pivot", "pivot-approx", "glauber")

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

    @property
    def P(self) -> np.ndarray:
        return self.stats.A

    @property
    def Q(self) -> np.ndarray:
        return self.stats.B

    @property
    def dominance(self) -> np.ndarray:
        return dominance_scores(self.P)


def dominance_scores(P: np.ndarray) -> np.ndarray:
    """Normalized square roots of the diagonal aggregate entries."""
    diag = np.sqrt(np.maximum(np.diag(np.asarray(P, dtype=float)), 0.0))
    total = float(diag.sum())
    if total <= 0.0:
        raise DegenerateAggregatesError("degenerate aggregates")
    return diag / total


def _walk_patches(net: Network, motif: Motif, x, rng, mcmc: str, m: int):
    """Advance the chain m steps from x: the homomorphisms as the rows of an
    (m, k) array and their vectorized patches as the columns of the
    C-contiguous k^2 x m matrix, made by one `mesoscale_patch` call."""
    maps = []
    for _ in range(m):
        x = chain_update(net, motif, x, rng, mcmc)
        maps.append(x)
    xs = np.array(maps, dtype=np.int64)
    X = np.ascontiguousarray(mesoscale_patch(net, xs).reshape(m, -1).T)
    return xs, X


def ndl_learn(net: Network, params: NDLParams, rng) -> NetworkDictionary:
    """Learn a network dictionary from a motif-sampling chain.

    Per iteration, `batch` chain updates produce mesoscale patches vectorized
    into a k^2 x batch matrix which drives one engine step with balanced
    weights (beta defaults to 1).
    """
    motif = Motif.chain(params.k)
    x = initial_homomorphism(net, motif, rng)
    engine = init_engine(params.k ** 2, params.atoms, params.dict_radius, rng,
                         beta=params.beta, lam=params.lam, kappa1=params.kappa1,
                         kappa2=params.kappa2, code_tol=1e-8, code_max_iter=500,
                         dict_tol=1e-8, dict_max_iter=100)

    def minibatches(x):
        while True:
            xs, X = _walk_patches(net, motif, x, rng, params.mcmc, params.batch)
            x = tuple(xs[-1].tolist())
            yield X

    trace = learn(engine, minibatches(x), params.iters)
    return NetworkDictionary(W=engine.W.copy(), stats=engine.stats,
                             k=params.k, loss_trace=trace)


# ---------------------------------------------------------------------------
# Network reconstruction
# ---------------------------------------------------------------------------


@dataclass
class ReconstructionState:
    """Per ordered node pair: the sum and the number of folded proposals."""

    sums: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def means(self) -> dict:
        """Mean proposal per visited pair."""
        return {pair: s / self.counts[pair] for pair, s in self.sums.items()}

    def fold(self, pair: tuple[int, int], value: float) -> None:
        """Fold one proposal into the pair's sum and count."""
        self.sums[pair] = self.sums.get(pair, 0.0) + value
        self.counts[pair] = self.counts.get(pair, 0) + 1

    def fold_many(self, us: np.ndarray, vs: np.ndarray,
                  values: np.ndarray) -> None:
        """Fold proposals values[i] at pairs (us[i], vs[i]), in index order."""
        base = int(max(us.max(), vs.max())) + 1
        keys, inverse = np.unique(us * base + vs, return_inverse=True)
        block_sums = np.bincount(inverse, weights=values)
        block_counts = np.bincount(inverse)
        sums, counts = self.sums, self.counts
        for key, s, c in zip(keys.tolist(), block_sums.tolist(),
                             block_counts.tolist()):
            pair = divmod(key, base)
            sums[pair] = sums.get(pair, 0.0) + s
            counts[pair] = counts.get(pair, 0) + c

    def pair_score(self, u: int, v: int) -> float:
        """(s_uv + s_vu) / (c_uv + c_vu), both orientations; 0 if never visited."""
        count = self.counts.get((u, v), 0) + self.counts.get((v, u), 0)
        if not count:
            return 0.0
        total = self.sums.get((u, v), 0.0) + self.sums.get((v, u), 0.0)
        return total / count


def nr_reconstruct(net: Network, W: np.ndarray, iters: int,
                   lam: float = 0.0, mcmc: str = "pivot", rng=None,
                   code_tol: float = 1e-8, code_max_iter: int = 500
                   ) -> ReconstructionState:
    """Reconstruct a network by averaging dictionary approximations of patches.

    The chain advances ``RECON_BLOCK`` steps at a time, keeping each step's
    homomorphism x and mesoscale patch.  The block's patches are sparse-coded
    against W in one call, and entry (a, b) of each step's k x k approximation
    W h is folded into the mean at node pair (x[a], x[b]).  Coding draws no
    random numbers, so the chain's trajectory does not depend on the block
    size.
    """
    if rng is None:
        raise ValueError("nr_reconstruct needs a random generator rng")
    W = np.asarray(W, dtype=float)
    k2, _ = W.shape
    k = int(round(math.sqrt(k2)))
    if k * k != k2:
        raise ValueError("dictionary rows must be a perfect square")
    motif = Motif.chain(k)
    x = initial_homomorphism(net, motif, rng)
    state = ReconstructionState()
    rows, cols = np.divmod(np.arange(k2), k)
    for start in range(0, iters, RECON_BLOCK):
        xs, X = _walk_patches(net, motif, x, rng, mcmc,
                              min(RECON_BLOCK, iters - start))
        x = tuple(xs[-1].tolist())
        H = sparse_code(X, W, lam=lam, tol=code_tol, max_iter=code_max_iter)
        state.fold_many(xs[:, rows].ravel(), xs[:, cols].ravel(),
                        (W @ H).T.ravel())
    return state


# ---------------------------------------------------------------------------
# Corruption and denoising
# ---------------------------------------------------------------------------


@dataclass
class CorruptionResult:
    """Corrupted network plus ground-truth labels over the candidate universe.

    For subtractive noise the universe is the corrupted graph's non-edges and
    a label of True marks a genuine non-edge (False marks a removed true
    edge).  For additive noise the universe is the corrupted graph's edges and
    True marks a genuine edge (False marks an injected one).
    """

    corrupted: Network
    labels: dict


def is_connected(net: Network) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b in net.out_neighbors(a):
            b = int(b)
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == net.n


def _non_edges(net: Network) -> list[tuple[int, int]]:
    """Pairs u < v with A(u, v) = 0, in lexicographic order."""
    us, vs = np.triu_indices(net.n, 1)
    absent = net.weights_at(us, vs) == 0.0
    return list(zip(us[absent].tolist(), vs[absent].tolist()))


def corrupt_network(net: Network, mode: str, fraction: float, rng) -> CorruptionResult:
    """Corrupt a simple graph by deleting or injecting ceil(fraction*|E|) edges.

    Subtractive deletions walk the edges in one shuffled order and delete each
    edge whose removal keeps the graph connected, until the quota is met (an
    edge skipped as a bridge stays a bridge, so one pass reaches any feasible
    quota).  Edge i is deleted exactly when edges later in the order already
    join its endpoints, so the deleted edges are the first ``quota`` edges
    outside the spanning forest that Kruskal's union-find builds from the end
    of the order.  Additive insertions are uniform over non-adjacent pairs.
    """
    if not net.is_simple:
        raise CorruptionError("corruption requires a simple graph")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie in (0, 1)")
    edges = net.undirected_edges()
    quota = math.ceil(fraction * len(edges))

    if mode == "subtractive":
        if not is_connected(net):
            raise CorruptionError("subtractive corruption requires a connected graph")
        order = [edges[int(idx)] for idx in rng.permutation(len(edges))]
        root = list(range(net.n))

        def find(a):
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a

        spare = []          # edges that later edges already join, last first
        for u, v in reversed(order):
            ru, rv = find(u), find(v)
            if ru == rv:
                spare.append((u, v))
            else:
                root[ru] = rv
        removed = spare[::-1][:quota]
        if len(removed) < quota:
            raise CorruptionError(
                f"only {len(removed)} of {quota} edges removable without "
                "disconnecting the graph")
        removed_set = set(removed)
        kept = [e for e in edges if e not in removed_set]
        corrupted = Network.from_undirected_pairs(net.n, kept, labels=net.labels)
        labels = {pair: pair not in removed_set
                  for pair in _non_edges(corrupted)}
        return CorruptionResult(corrupted=corrupted, labels=labels)

    if mode == "additive":
        pool = _non_edges(net)
        if quota > len(pool):
            raise CorruptionError(
                f"cannot add {quota} edges: only {len(pool)} non-adjacent pairs")
        order = rng.permutation(len(pool))
        added = {pool[int(idx)] for idx in order[:quota]}
        corrupted = Network.from_undirected_pairs(
            net.n, edges + sorted(added), labels=net.labels)
        labels = {pair: pair not in added for pair in corrupted.undirected_edges()}
        return CorruptionResult(corrupted=corrupted, labels=labels)

    raise ValueError(f"unknown corruption mode {mode!r}")


def candidate_pairs(corrupted: Network, mode: str) -> list[tuple[int, int]]:
    """Classification universe: non-edges (subtractive) or edges (additive)."""
    if mode == "subtractive":
        return _non_edges(corrupted)
    if mode == "additive":
        return corrupted.undirected_edges()
    raise ValueError(f"unknown corruption mode {mode!r}")


def candidate_scores(corrupted: Network, recons: ReconstructionState,
                     mode: str) -> dict:
    """Reconstructed weight ``pair_score`` of every candidate pair, keyed in
    ``candidate_pairs`` order; pairs the chain never visited score 0."""
    return {pair: recons.pair_score(*pair)
            for pair in candidate_pairs(corrupted, mode)}


def denoise_classify(scores: dict, theta: float,
                     lower_is_positive: bool = True) -> dict:
    """Classify scored pairs against a threshold.

    Default rule flags a pair as positive when its score is strictly below
    theta.  Flip ``lower_is_positive`` to flag strictly-above instead.
    """
    return {pair: score < theta if lower_is_positive else score > theta
            for pair, score in scores.items()}


@dataclass
class RocResult:
    """Threshold-swept ROC points and the trapezoid area under the curve."""

    points: list
    auc: float


def roc_auc(scores: dict, labels: dict, lower_is_positive: bool = True) -> RocResult:
    """ROC curve and AUC for a score map against boolean positive labels.

    Thresholds sweep all distinct score values (strict comparison), so tied
    scores advance the curve diagonally and the trapezoid AUC equals the
    Mann-Whitney statistic with half credit for ties.  One sort groups the
    ties; cumulative label counts over the groups give every point, in
    O(n log n) for n pairs.  Neither dict's order matters.
    """
    if scores.keys() != labels.keys():
        raise ValueError("scores and labels must cover the same pairs")
    y = np.array([bool(labels[k]) for k in scores])
    s = np.array([float(v) for v in scores.values()])
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise RocError("need at least one positive and one negative label")
    uniques, group = np.unique(s, return_inverse=True)
    pos = np.bincount(group[y], minlength=len(uniques))
    neg = np.bincount(group[~y], minlength=len(uniques))
    if lower_is_positive:
        thresholds = list(uniques) + [math.inf]
    else:
        thresholds = list(uniques[::-1]) + [-math.inf]
        pos, neg = pos[::-1], neg[::-1]
    # Counts predicted positive at each threshold: all tie groups before it.
    tp = [0] + np.cumsum(pos).tolist()
    fp = [0] + np.cumsum(neg).tolist()
    points = [(float(th), f / n_neg, t / n_pos)
              for th, f, t in zip(thresholds, fp, tp)]
    fprs = np.array([p[1] for p in points])
    tprs = np.array([p[2] for p in points])
    auc = float(np.sum(np.diff(fprs) * (tprs[1:] + tprs[:-1]) / 2.0))
    return RocResult(points=points, auc=auc)
