"""The benchmark's workloads: inputs made from a seed, the `onmf` command
line that processes them, and the checks on what the command wrote.

Every check is computed here, apart from the package (networkx and scipy do
the graph and least-squares work), from properties the method must have.
A check raises `CheckError`; some also return quality figures that the
benchmark reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.optimize import nnls
from scipy.stats import rankdata


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def small_world(n, ring, p, seed, path):
    """Connected Watts-Strogatz graph, written as one 'u v' line per edge."""
    graph = nx.connected_watts_strogatz_graph(n, ring, p, seed=seed)
    with open(path, "w") as fh:
        for u, v in sorted(graph.edges()):
            fh.write(f"{u} {v}\n")
    return graph


def _pair(u, v):
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# Readers for the files the CLI writes
# ---------------------------------------------------------------------------


def read_edges(path):
    with open(path) as fh:
        return [_pair(int(a), int(b)) for a, b in (line.split() for line in fh)]


def read_labels(path):
    labels = {}
    with open(path) as fh:
        _require(fh.readline().strip() == "u,v,label", "labels.csv header")
        for line in fh:
            u, v, flag = line.strip().split(",")
            _require(flag in ("true", "false"), f"bad label {flag!r}")
            labels[_pair(int(u), int(v))] = flag == "true"
    return labels


def read_recons(path):
    scores = {}
    with open(path) as fh:
        for line in fh:
            u, v, w = line.split()
            scores[_pair(int(u), int(v))] = float(w)
    return scores


def read_roc(path):
    points, auc = [], None
    with open(path) as fh:
        _require(fh.readline().strip() == "threshold,fpr,tpr", "roc.csv header")
        for line in fh:
            parts = line.strip().split(",")
            if parts[0] == "auc":
                auc = float(parts[1])
            else:
                points.append((float(parts[1]), float(parts[2])))
    _require(auc is not None, "roc.csv has no auc line")
    return np.array(points), auc


def read_matrix(path):
    with open(path) as fh:
        rows, cols = (int(v) for v in fh.readline().split())
        M = np.array([[float(v) for v in line.split()] for line in fh])
    _require(M.shape == (rows, cols), f"{path.name}: header {rows}x{cols} "
             f"but {M.shape} values")
    return M


def read_trace(path):
    with open(path) as fh:
        _require(fh.readline().strip() == "t,surrogate", "loss_trace.csv header")
        return [(int(t), float(v)) for t, v in
                (line.strip().split(",") for line in fh)]


def read_pgm(path):
    data = Path(path).read_bytes()
    magic, width, height, maxval, raster = data.split(maxsplit=4)
    _require(magic == b"P5" and maxval == b"255", "not an 8-bit P5 PGM")
    width, height = int(width), int(height)
    _require(len(raster) == width * height, "PGM raster size")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def check_dictionary(out, rows, atoms, radius):
    """The dictionary lies in the constraint set: W >= 0, ||W||_F <= radius."""
    W = read_matrix(out / "dictionary.txt")
    _require(W.shape == (rows, atoms), f"dictionary shape {W.shape}")
    _require(np.isfinite(W).all(), "non-finite dictionary entry")
    _require(W.min() >= 0.0, f"negative dictionary entry {W.min()}")
    norm = float(np.linalg.norm(W))
    _require(norm <= radius * (1 + 1e-9), f"||W||_F = {norm} > {radius}")
    _require(norm > 0.0, "zero dictionary")


def check_loss_trace(out, iters):
    """One surrogate per step, and the last tenth below the first tenth."""
    trace = read_trace(out / "loss_trace.csv")
    _require([t for t, _ in trace] == list(range(1, iters + 1)),
             "loss trace does not hold steps 1..iters")
    values = np.array([v for _, v in trace])
    _require(np.isfinite(values).all() and values.min() > 0, "bad surrogate")
    tenth = max(1, iters // 10)
    first, last = values[:tenth].mean(), values[-tenth:].mean()
    _require(last < first, f"surrogate did not fall: first tenth {first}, "
             f"last tenth {last}")


def fit_error(W, patches):
    """Relative residual of nonnegative least-squares fits of the columns."""
    resid = sum(nnls(W, x)[1] ** 2 for x in patches.T)
    return math.sqrt(resid / float(np.sum(patches * patches)))


def beats_random_atoms(W, patches, seed):
    """Learned atoms must fit better than as many seeded uniform random ones.

    Returns the quality figure 1 - relative residual of the learned atoms.
    """
    random_atoms = np.random.default_rng([seed, 2]).random(W.shape)
    learned, chance = fit_error(W, patches), fit_error(random_atoms, patches)
    _require(learned < chance, f"learned atoms fit with relative error "
             f"{learned}, random atoms with {chance}")
    return {"score": 1.0 - learned}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Denoise:
    """`onmf denoise`: subtractive noise on a small-world graph, then score."""

    n: int = 200
    ring: int = 8
    p: float = 0.1
    fraction: float = 0.5
    motif_k: int = 6
    atoms: int = 16
    iters: int = 60
    batch: int = 80
    recon_iters: int = 3000
    min_auc: float = 0.7
    input_sets: int = 1

    @property
    def learn_columns(self):
        return self.iters * self.batch

    @property
    def recon_steps(self):
        return self.recon_iters

    def prepare(self, folder, seed):
        edges = folder / "graph.edgelist"
        graph = small_world(self.n, self.ring, self.p, seed, edges)
        return {"seed": seed, "edges": edges, "graph": graph}

    def setup_target(self, ctx):
        return [str(ctx["edges"])]

    def argv(self, ctx, out):
        return ["denoise", "--edges", str(ctx["edges"]), "--undirected",
                "--out-dir", str(out), "--seed", str(ctx["seed"]),
                "--motif-k", str(self.motif_k), "--mcmc", "pivot",
                "--mode", "subtractive", "--fraction", str(self.fraction),
                "--atoms", str(self.atoms), "--iters", str(self.iters),
                "--batch", str(self.batch),
                "--recon-iters", str(self.recon_iters)]

    def checks(self):
        return {"corrupted_count": self.check_count,
                "corrupted_subset": self.check_subset,
                "corrupted_connected": self.check_connected,
                "labels_cover_non_edges": self.check_labels_cover,
                "labels_mark_removed": self.check_labels_removed,
                "auc_is_mann_whitney": self.check_mann_whitney,
                "roc_staircase": self.check_staircase,
                "auc_floor": self.check_auc_floor}

    @staticmethod
    def _edges(ctx):
        return {_pair(u, v) for u, v in ctx["graph"].edges()}

    def check_count(self, ctx, out):
        """|E'| = |E| - ceil(fraction |E|), with no pair listed twice."""
        kept = read_edges(out / "corrupted.edgelist")
        total = len(self._edges(ctx))
        want = total - math.ceil(self.fraction * total)
        _require(len(kept) == len(set(kept)) == want,
                 f"{len(kept)} corrupted edges, want {want}")

    def check_subset(self, ctx, out):
        extra = set(read_edges(out / "corrupted.edgelist")) - self._edges(ctx)
        _require(not extra, f"corrupted graph has new edges {sorted(extra)[:3]}")

    def check_connected(self, ctx, out):
        graph = nx.Graph()
        graph.add_nodes_from(ctx["graph"].nodes())
        graph.add_edges_from(read_edges(out / "corrupted.edgelist"))
        _require(nx.is_connected(graph), "corrupted graph is disconnected")

    def check_labels_cover(self, ctx, out):
        kept = set(read_edges(out / "corrupted.edgelist"))
        non_edges = {(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                     if (u, v) not in kept}
        _require(set(read_labels(out / "labels.csv")) == non_edges,
                 "labels.csv does not cover exactly the corrupted non-edges")

    def check_labels_removed(self, ctx, out):
        removed = self._edges(ctx) - set(read_edges(out / "corrupted.edgelist"))
        marked = {pair for pair, flag in read_labels(out / "labels.csv").items()
                  if not flag}
        _require(marked == removed, "false labels are not the removed edges")

    def check_mann_whitney(self, ctx, out):
        """roc.csv's AUC equals P(s+ > s-) + P(s+ = s-)/2 from the files.

        Positives are removed edges (label false), scores come from
        recons.edgelist with 0 for pairs the chain never visited.  Its six
        significant digits can reorder only pairs whose scores lie within
        1e-5 relative of each other, which bounds the difference.
        """
        labels = read_labels(out / "labels.csv")
        recons = read_recons(out / "recons.edgelist")
        pairs = sorted(labels)
        s = np.array([recons.get(p, 0.0) for p in pairs])
        pos = np.array([not labels[p] for p in pairs])
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        _require(n_pos and n_neg, "labels need both classes")
        ranks = rankdata(s)
        mw = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        neg = np.sort(s[~pos])
        sp = s[pos]
        close = (np.searchsorted(neg, sp * (1 + 1.1e-5), side="right")
                 - np.searchsorted(neg, sp * (1 - 1.1e-5), side="left"))
        tol = float(close[sp > 0].sum()) / (n_pos * n_neg) + 1e-12
        _, auc = read_roc(out / "roc.csv")
        _require(abs(auc - mw) <= tol,
                 f"AUC {auc} but Mann-Whitney gives {mw} (tolerance {tol})")
        return {"score": auc}

    def check_staircase(self, ctx, out):
        """Monotone ROC from (0,0) to (1,1) whose trapezoid area is the AUC."""
        points, auc = read_roc(out / "roc.csv")
        fpr, tpr = points[:, 0], points[:, 1]
        _require(tuple(points[0]) == (0.0, 0.0) and tuple(points[-1]) == (1.0, 1.0),
                 "ROC does not run from (0,0) to (1,1)")
        _require((np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all(),
                 "ROC is not monotone")
        area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
        _require(abs(area - auc) <= 1e-9, f"ROC area {area} but AUC {auc}")

    def check_auc_floor(self, ctx, out):
        _, auc = read_roc(out / "roc.csv")
        _require(auc >= self.min_auc, f"AUC {auc} < {self.min_auc}")


@dataclass(frozen=True)
class Ising:
    """`onmf ising-learn`: online NMF on a Gibbs chain's spin patches."""

    lattice: int = 50
    temperature: float = 2.26
    patch: int = 10
    atoms: int = 25
    batch: int = 100
    epoch: int = 1000
    iters: int = 100
    radius: float = 1000.0
    chains: int = 8
    fit_patches: int = 1000
    # How long dictionary_update and sparse_code take to converge depends on
    # the chain's seed by about 10 %, so each round learns from three streams.
    input_sets: int = 3

    @property
    def learn_columns(self):
        return self.iters * self.batch

    recon_steps = 0

    def prepare(self, folder, seed):
        reference = self.reference_patches(np.random.default_rng([seed, 1]))
        return {"seed": seed, "reference": reference}

    def setup_target(self, ctx):
        return ["ising", str(self.lattice), str(self.temperature)]

    def argv(self, ctx, out):
        return ["ising-learn", "--out-dir", str(out), "--seed", str(ctx["seed"]),
                "--lattice", str(self.lattice),
                "--temperature", str(self.temperature),
                "--patch", str(self.patch), "--atoms", str(self.atoms),
                "--batch", str(self.batch), "--epoch", str(self.epoch),
                "--iters", str(self.iters), "--dict-radius", str(self.radius)]

    def checks(self):
        return {"dictionary_feasible": self.check_dictionary,
                "surrogate_falls": self.check_trace,
                "final_config_is_spin_grid": self.check_config,
                "beats_random_atoms": self.check_fit}

    def check_dictionary(self, ctx, out):
        check_dictionary(out, self.patch ** 2, self.atoms, self.radius)

    def check_trace(self, ctx, out):
        check_loss_trace(out, self.iters)

    def check_config(self, ctx, out):
        grid = read_pgm(out / "final_config.pgm")
        _require(grid.shape == (self.lattice, self.lattice),
                 f"final config is {grid.shape}")
        _require(np.isin(grid, (0, 255)).all(), "final config is not +-1")

    def reference_patches(self, rng):
        """Spin patches from the benchmark's own heat-bath chains, in {0, 1}.

        `chains` lattices start from random spins, as the CLI's does, and
        make as many sweeps as the CLI's stream makes site updates, updating
        the two checkerboard colours in turn.  After each sweep a few patches
        are cut at random corners of random chains, so the set mixes early
        and late configurations as the stream does.
        """
        n, k = self.lattice, self.patch
        sweeps = max(1, round(self.iters * self.epoch / n ** 2))
        per_sweep = max(1, self.fit_patches // sweeps)
        spins = 2 * rng.integers(0, 2, size=(self.chains, n, n)) - 1
        colour = np.indices((n, n)).sum(axis=0) % 2
        span = np.arange(k)
        cols = []
        for _ in range(sweeps):
            for c in (0, 1):
                field = sum(np.roll(spins, step, axis)
                            for step in (1, -1) for axis in (1, 2))
                p_up = 1.0 / (1.0 + np.exp(-2.0 * field / self.temperature))
                fresh = np.where(rng.random(spins.shape) < p_up, 1, -1)
                spins = np.where(colour == c, fresh, spins)
            for chain, (r, q) in zip(rng.integers(self.chains, size=per_sweep),
                                     rng.integers(0, n, size=(per_sweep, 2))):
                cols.append(spins[chain][np.ix_((r + span) % n, (q + span) % n)])
        return (np.array(cols).reshape(len(cols), k * k).T + 1) / 2.0

    def check_fit(self, ctx, out):
        """The learned atoms fit reference spin patches better than random atoms.

        Quality: 1 - relative NNLS residual with the learned atoms.
        """
        W = read_matrix(out / "dictionary.txt")
        return beats_random_atoms(W, ctx["reference"], ctx["seed"])


@dataclass(frozen=True)
class NetworkLearn:
    """`onmf ndl-learn`: Glauber chain patches of a large small-world graph."""

    n: int = 5000
    ring: int = 10
    p: float = 0.1
    motif_k: int = 10
    atoms: int = 16
    batch: int = 500
    iters: int = 30
    radius: float = 1000.0
    fit_patches: int = 1000
    input_sets: int = 1

    @property
    def learn_columns(self):
        return self.iters * self.batch

    recon_steps = 0

    def prepare(self, folder, seed):
        edges = folder / "graph.edgelist"
        graph = small_world(self.n, self.ring, self.p, seed, edges)
        patches = self.chain_patches(graph, np.random.default_rng([seed, 1]))
        return {"seed": seed, "edges": edges, "graph": graph, "patches": patches}

    def setup_target(self, ctx):
        return [str(ctx["edges"])]

    def argv(self, ctx, out):
        return ["ndl-learn", "--edges", str(ctx["edges"]), "--undirected",
                "--out-dir", str(out), "--seed", str(ctx["seed"]),
                "--motif-k", str(self.motif_k), "--mcmc", "glauber",
                "--atoms", str(self.atoms), "--batch", str(self.batch),
                "--iters", str(self.iters), "--dict-radius", str(self.radius)]

    def checks(self):
        return {"dictionary_feasible": self.check_dictionary,
                "dominance_sums_to_one": self.check_dominance,
                "beats_random_atoms": self.check_fit}

    def check_dictionary(self, ctx, out):
        check_dictionary(out, self.motif_k ** 2, self.atoms, self.radius)

    def check_dominance(self, ctx, out):
        with open(out / "dominance.csv") as fh:
            _require(fh.readline().strip() == "atom,score", "dominance header")
            rows = [line.strip().split(",") for line in fh]
        _require([int(a) for a, _ in rows] == list(range(self.atoms)),
                 "dominance.csv does not list every atom once")
        scores = np.array([float(s) for _, s in rows])
        _require(scores.min() >= 0 and abs(scores.sum() - 1.0) <= 1e-9,
                 f"dominance scores sum to {scores.sum()}")

    def chain_patches(self, graph, rng):
        """k x k adjacency patches along random walks of k nodes, one per column."""
        nbrs = {v: list(graph.neighbors(v)) for v in graph.nodes()}
        k = self.motif_k
        cols = []
        for _ in range(self.fit_patches):
            walk = [int(rng.integers(self.n))]
            for _ in range(k - 1):
                step = nbrs[walk[-1]]
                walk.append(step[int(rng.integers(len(step)))])
            cols.append([float(a != b and graph.has_edge(a, b))
                         for a in walk for b in walk])
        return np.array(cols).T

    def check_fit(self, ctx, out):
        """The learned atoms fit fresh chain patches better than random atoms.

        Quality: 1 - relative NNLS residual with the learned atoms.
        """
        W = read_matrix(out / "dictionary.txt")
        return beats_random_atoms(W, ctx["patches"], ctx["seed"])


WORKLOADS = {
    "denoise-sw200": Denoise(),
    "ising-omf": Ising(),
    "ndl-glauber-5k": NetworkLearn(),
}

# The same workloads at a size that runs in seconds, for selftest.py.
TINY = {
    "denoise-sw200": replace(WORKLOADS["denoise-sw200"], n=60, ring=6,
                             iters=10, batch=40, recon_iters=600),
    "ising-omf": replace(WORKLOADS["ising-omf"], lattice=20, patch=5, atoms=9,
                         batch=50, epoch=200, iters=20, fit_patches=50),
    "ndl-glauber-5k": replace(WORKLOADS["ndl-glauber-5k"], n=300, ring=6,
                              motif_k=5, atoms=9, batch=50, iters=10,
                              fit_patches=50),
}


def evaluate(workload, ctx, out):
    """Run every check; return the quality figures they produce."""
    figures = {}
    for check in workload.checks().values():
        figures.update(check(ctx, out) or {})
    return figures
