"""Markov-dependent data streams: Ising Gibbs sampler and image patch samplers.

Spin configurations live on an N x N torus treated as a simple graph (for
N = 2 each site has two distinct neighbors, not four wrapped duplicates).
Patches are extracted with periodic boundary conditions and flattened in
row-major order, one column per patch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .factorization import sparse_code
from .pgm import spins_to_levels


# ---------------------------------------------------------------------------
# Ising model on the square lattice
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _neighbor_lists(n: int) -> list[list[int]]:
    """Distinct torus neighbors of each flat site index, in increasing order."""
    return [sorted({(i + 1) % n * n + j, (i - 1) % n * n + j,
                    i * n + (j + 1) % n, i * n + (j - 1) % n} - {i * n + j})
            for i in range(n) for j in range(n)]


@lru_cache(maxsize=None)
def _neighbor_table(n: int):
    """The neighbor lists padded with -1 into n^2 rows of 4, and their lengths."""
    lists = _neighbor_lists(n)
    nbrs = -np.ones((n * n, 4), dtype=np.int64)
    for flat, row in enumerate(lists):
        nbrs[flat, :len(row)] = row
    return nbrs, np.array([len(row) for row in lists], dtype=np.int64)


@dataclass
class IsingConfig:
    """Spin configuration on the N x N torus at a fixed temperature."""

    spins: np.ndarray
    temperature: float

    def __post_init__(self):
        # C order, so that the samplers' flat view writes into these spins
        self.spins = np.ascontiguousarray(self.spins, dtype=np.int64)
        if self.spins.ndim != 2 or self.spins.shape[0] != self.spins.shape[1]:
            raise ValueError("spins must form a square grid")
        if not np.isin(self.spins, (-1, 1)).all():
            raise ValueError("spins must be -1 or +1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    @property
    def n(self) -> int:
        return self.spins.shape[0]

    @classmethod
    def random(cls, n: int, temperature: float, rng) -> "IsingConfig":
        spins = 2 * rng.integers(0, 2, size=(n, n)) - 1
        return cls(spins=spins, temperature=temperature)


def conditional_plus_probability(neighbor_sum: float, temperature: float) -> float:
    """Heat-bath probability of spin +1 given the neighbor spin sum.

    0.0, the limit, where the exponential overflows (strong field against +1
    at a low temperature).
    """
    try:
        return 1.0 / (1.0 + math.exp(-2.0 * neighbor_sum / temperature))
    except OverflowError:
        return 0.0


def ising_gibbs_step(config: IsingConfig, rng) -> IsingConfig:
    """Resample one uniformly chosen site from its conditional distribution.

    Mutates the configuration in place and returns it; the chain satisfies
    detailed balance for the lattice Boltzmann measure at the configuration's
    temperature.  Draws what ``ising_gibbs_run(config, 1, rng)`` draws.
    """
    n = config.n
    site = int(rng.integers(n * n))
    _run_by_sites(config.spins.reshape(-1), _neighbor_lists(n), (site,),
                  (rng.random(),), _plus_table(config.temperature))
    return config


# Updates drawn per call of the generator, and the fewest updates that
# ising_gibbs_run schedules by levels; shorter runs hold few updates per level
# and the per-site loop is faster.
_GIBBS_BLOCK = 16384
_LEVEL_MIN_UPDATES = 256


@lru_cache(maxsize=None)
def _plus_table(temperature: float) -> tuple[float, ...]:
    """``conditional_plus_probability`` at neighbor sums s = -4..4 (index s + 4)."""
    return tuple(conditional_plus_probability(s, temperature)
                 for s in range(-4, 5))


def _update_levels(sites: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Dependency level of each update in a run of site updates.

    Update b reads its four neighbors and writes its own site, so it must
    follow the last earlier update at its site or at any neighbor; its level
    is one more than the largest of theirs (-1 where there is none).  Updates
    of one level touch pairwise distinct, non-adjacent sites.  Needs four
    distinct neighbors per site, which lattices with n >= 3 have.
    """
    count = len(sites)
    size = 5 * count
    # five events per update in run order, four neighbor reads and then the
    # write (event 5 b + 4); a stable sort groups them by site, in run order
    # within a site
    events = np.empty((count, 5), dtype=np.min_scalar_type(len(nbrs) - 1))
    events[:, :4] = nbrs[sites]
    events[:, 4] = sites
    events = events.reshape(-1)
    order = np.argsort(events, kind="stable")
    events = events[order]
    # in grouped order, the position of the last write before each event
    last = np.full(size, -1)
    last[1:] = np.where(order[:-1] % 5 == 4, np.arange(size - 1), -1)
    np.maximum.accumulate(last, out=last)
    # the write event each event follows at its site; `size` for none
    seen = np.where((last >= 0) & (events[last] == events), order[last], size)
    preds = np.empty(size, dtype=np.intp)
    preds[order] = seen
    preds = preds.reshape(count, 5).T.copy()
    # levels by write event, with -1 at the `size` sentinel
    levels = np.full(size + 1, -1)
    writes = levels[4:size:5]
    while True:
        new = np.maximum.reduce(levels[preds])
        new += 1
        if np.array_equal(new, writes):
            return new
        writes[...] = new


def _run_by_levels(flat: np.ndarray, nbrs: np.ndarray, sites: np.ndarray,
                   us: np.ndarray, table: np.ndarray) -> None:
    """Apply the site updates (sites[b], us[b]) in order, one level at a time."""
    levels = _update_levels(sites, nbrs)
    # a level is below the piece's length, at most _GIBBS_BLOCK < 2^16, and
    # a stable sort of 16-bit keys is a radix sort
    order = np.argsort(levels.astype(np.uint16), kind="stable")
    sites, us = sites[order], us[order]
    around = nbrs[sites].T.copy()
    start = 0
    for stop in np.cumsum(np.bincount(levels)).tolist():
        s = np.add.reduce(flat[around[:, start:stop]])
        s += 4
        flat[sites[start:stop]] = np.where(us[start:stop] < table[s], 1, -1)
        start = stop


def _run_by_sites(flat: np.ndarray, neighbors: list[list[int]], sites,
                  us, table) -> None:
    """Apply the site updates (sites[b], us[b]) one after another."""
    for site, u in zip(sites, us):
        s = 4
        for q in neighbors[site]:
            s += flat.item(q)
        flat[site] = 1 if u < table[s] else -1


def ising_gibbs_run(config: IsingConfig, steps: int, rng) -> IsingConfig:
    """Advance the Gibbs chain by ``steps`` random-scan site updates.

    Sites and uniforms are drawn in blocks of ``_GIBBS_BLOCK`` (one
    ``integers`` and one ``random`` call each), and update b sets its site to
    +1 when its uniform is below p+ at its neighbor sum, else to -1.  p+
    comes from ``conditional_plus_probability`` at the nine possible sums,
    tabulated once per temperature.  A block runs in pieces of n^2/2
    updates.  A piece of at least ``_LEVEL_MIN_UPDATES`` updates on a
    lattice of n >= 3 runs by dependency levels (``_update_levels``): each
    level is one array gather, compare and scatter.  Shorter pieces, and the
    2 x 2 lattice, run the per-site loop.  Every update reads the spins it
    would read in draw order, so both paths leave the same spins and the
    same generator state.
    """
    n = config.n
    nbrs, _ = _neighbor_table(n)
    neighbors = _neighbor_lists(n)
    flat = config.spins.reshape(-1)
    table = _plus_table(config.temperature)
    level_table = np.array(table)
    piece = max(n * n // 2, 1)
    done = 0
    while done < steps:
        block = min(steps - done, _GIBBS_BLOCK)
        sites = rng.integers(0, n * n, size=block)
        us = rng.random(block)
        for a in range(0, block, piece):
            run_sites, run_us = sites[a:a + piece], us[a:a + piece]
            if n >= 3 and len(run_sites) >= _LEVEL_MIN_UPDATES:
                _run_by_levels(flat, nbrs, run_sites, run_us, level_table)
            else:
                _run_by_sites(flat, neighbors, run_sites.tolist(),
                              run_us.tolist(), table)
        done += block
    return config


def _extract_patches(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     k: int) -> np.ndarray:
    """(count, k, k) patches at the given top-left corners, wrapping both axes."""
    h, w = grid.shape
    rr = (rows[:, None, None] + np.arange(k)[None, :, None]) % h
    cc = (cols[:, None, None] + np.arange(k)[None, None, :]) % w
    return grid[rr, cc]


def _check_patches(k: int, count: int, size: int, grid: str) -> None:
    if k < 1:
        raise ValueError("patch size must be positive")
    if k > size:
        raise ValueError(f"patch size exceeds {grid} size")
    if count < 0:
        raise ValueError("patch count must be nonnegative")


def spin_patch_minibatch(config: IsingConfig, k: int, count: int, rng) -> np.ndarray:
    """k^2 x count matrix of flattened spin patches mapped to {0, 1}.

    Top-left corners are uniform over the torus; each column is one patch in
    row-major order.
    """
    _check_patches(k, count, config.n, "lattice")
    rows = rng.integers(0, config.n, size=count)
    cols = rng.integers(0, config.n, size=count)
    patches = _extract_patches(config.spins, rows, cols, k)
    return spins_to_levels(patches).reshape(count, k * k).T


def ising_patch_stream(config: IsingConfig, epoch: int, k: int, count: int,
                       rng):
    """Endless spin patch minibatches, each ``epoch`` Gibbs updates of
    ``config`` (in place) after the last."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    _check_patches(k, count, config.n, "lattice")
    return (spin_patch_minibatch(ising_gibbs_run(config, epoch, rng), k, count,
                                 rng) for _ in itertools.count())


# ---------------------------------------------------------------------------
# Image patch streams
# ---------------------------------------------------------------------------


# Row and column offsets of the four cardinal moves, indexed by the drawn move.
_WALK_ROWS = np.array([1, -1, 0, 0])
_WALK_COLS = np.array([0, 0, 1, -1])


def image_patch_stream(image: np.ndarray, k: int, count: int, rng,
                       mode: str = "iid"):
    """Endless patch minibatches ``(X, corners)`` from an image, i.i.d.-uniform
    or by symmetric random walk.

    X is k^2 x count, and row i of the count x 2 array ``corners`` is the
    (row, col) of patch i.  The walk's start corner is drawn uniformly when
    the stream is made, in both modes.  In walk mode each patch is taken after
    one single-pixel step of the corner in a uniformly random cardinal
    direction (periodic wrap), a minibatch's ``count`` moves drawn in one
    ``integers`` call, and the next minibatch walks on from its last corner;
    in iid mode corners are uniform over all wrapped positions.
    """
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    _check_patches(k, count, min(h, w), "image")
    if mode not in ("iid", "walk"):
        raise ValueError(f"unknown sampling mode {mode!r}")

    def minibatches(row, col):
        while True:
            if mode == "iid":
                rows = rng.integers(0, h, size=count)
                cols = rng.integers(0, w, size=count)
            else:
                moves = rng.integers(4, size=count)
                rows = (row + np.cumsum(_WALK_ROWS[moves])) % h
                cols = (col + np.cumsum(_WALK_COLS[moves])) % w
                if count:
                    row, col = int(rows[-1]), int(cols[-1])
            X = _extract_patches(image, rows, cols, k).reshape(count, k * k).T
            yield X, np.stack([rows, cols], axis=1)

    return minibatches(int(rng.integers(h)), int(rng.integers(w)))


def reconstruct_grid(image: np.ndarray, W: np.ndarray, k: int,
                     lam: float = 0.0, stride: int = 1) -> np.ndarray:
    """Reconstruct an image by sparse-coding every stride-grid patch against W.

    Patch approximations W @ h are averaged at overlapping pixels and the
    result is clipped to [0, 1].  The grid always includes the last valid
    corner of each axis, and a stride of at most k leaves no gap between
    neighboring patches, so every pixel is covered.  Each pixel's
    approximations are added in patch order, row-major over the corners.
    """
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    if W.shape[0] != k * k:
        raise ValueError("dictionary rows must equal k^2")
    if k > min(h, w):
        raise ValueError("patch size exceeds image size")
    if stride < 1:
        raise ValueError("stride must be positive")
    if stride > k:
        raise ValueError("stride must not exceed the patch size, or the "
                         "pixels between patches are never covered")
    corners = []
    for size in (h, w):
        axis = np.arange(0, size - k + 1, stride)
        corners.append(axis if axis[-1] == size - k
                       else np.append(axis, size - k))
    rows, cols = (a.ravel() for a in np.meshgrid(*corners, indexing="ij"))
    # flat pixel index of every patch entry, one patch after another
    pixels = _extract_patches(np.arange(h * w).reshape(h, w), rows, cols,
                              k).ravel()
    P = np.ascontiguousarray(image.reshape(-1)[pixels].reshape(len(rows), -1).T)
    H = sparse_code(P, W, lam=lam, tol=1e-8, max_iter=1000)
    acc = np.bincount(pixels, weights=(W @ H).T.ravel(), minlength=h * w)
    cnt = np.bincount(pixels, minlength=h * w)
    return np.clip(acc / cnt, 0.0, 1.0).reshape(h, w)
