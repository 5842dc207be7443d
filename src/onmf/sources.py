"""Markov-dependent data streams: Ising Gibbs sampler and image patch samplers.

Spin configurations live on an N x N torus treated as a simple graph (for
N = 2 each site has two distinct neighbors, not four wrapped duplicates).
Patches are extracted with periodic boundary conditions and flattened in
row-major order, one column per patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .factorization import sparse_code


# ---------------------------------------------------------------------------
# Ising model on the square lattice
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _neighbor_table(n: int):
    """Distinct torus neighbors per flat site index, padded with -1."""
    nbrs = -np.ones((n * n, 4), dtype=np.int64)
    counts = np.zeros(n * n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            seen = sorted({((i + 1) % n, j), ((i - 1) % n, j),
                           (i, (j + 1) % n), (i, (j - 1) % n)} - {(i, j)})
            flat = i * n + j
            counts[flat] = len(seen)
            for a, (r, c) in enumerate(seen):
                nbrs[flat, a] = r * n + c
    return nbrs, counts


@dataclass
class IsingConfig:
    """Spin configuration on the N x N torus at a fixed temperature."""

    spins: np.ndarray
    temperature: float

    def __post_init__(self):
        self.spins = np.asarray(self.spins, dtype=np.int64)
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
    """Heat-bath probability of spin +1 given the neighbor spin sum."""
    return 1.0 / (1.0 + math.exp(-2.0 * neighbor_sum / temperature))


def ising_gibbs_step(config: IsingConfig, rng) -> IsingConfig:
    """Resample one uniformly chosen site from its conditional distribution.

    Mutates the configuration in place and returns it; the chain satisfies
    detailed balance for the lattice Boltzmann measure at the configuration's
    temperature.
    """
    n = config.n
    nbrs, counts = _neighbor_table(n)
    flat = config.spins.reshape(-1)
    site = int(rng.integers(n * n))
    s = 0
    for a in range(counts[site]):
        s += flat[nbrs[site, a]]
    p_plus = conditional_plus_probability(float(s), config.temperature)
    flat[site] = 1 if rng.random() < p_plus else -1
    return config


def ising_gibbs_run(config: IsingConfig, steps: int, rng) -> IsingConfig:
    """Advance the Gibbs chain by many site updates (block-drawn randomness)."""
    n = config.n
    nbrs, counts = _neighbor_table(n)
    flat = config.spins.reshape(-1)
    inv_t = 2.0 / config.temperature
    done = 0
    while done < steps:
        block = min(steps - done, 16384)
        sites = rng.integers(0, n * n, size=block)
        us = rng.random(block)
        for b in range(block):
            site = sites[b]
            s = 0
            for a in range(counts[site]):
                s += flat[nbrs[site, a]]
            p_plus = 1.0 / (1.0 + math.exp(-inv_t * s))
            flat[site] = 1 if us[b] < p_plus else -1
        done += block
    return config


def spins_to_levels(spins: np.ndarray) -> np.ndarray:
    """Affine map {-1, +1} -> {0, 1}; inverse of levels_to_spins."""
    return (np.asarray(spins, dtype=float) + 1.0) * 0.5


def levels_to_spins(levels: np.ndarray) -> np.ndarray:
    return (2.0 * np.asarray(levels, dtype=float) - 1.0).astype(np.int64)


def _extract_patches(grid: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     k: int) -> np.ndarray:
    """(count, k, k) patches at the given top-left corners, wrapping both axes."""
    h, w = grid.shape
    rr = (rows[:, None, None] + np.arange(k)[None, :, None]) % h
    cc = (cols[:, None, None] + np.arange(k)[None, None, :]) % w
    return grid[rr, cc]


def spin_patch_minibatch(config: IsingConfig, k: int, count: int, rng) -> np.ndarray:
    """k^2 x count matrix of flattened spin patches mapped to {0, 1}.

    Top-left corners are uniform over the torus; each column is one patch in
    row-major order.
    """
    if k > config.n:
        raise ValueError("patch size exceeds lattice size")
    rows = rng.integers(0, config.n, size=count)
    cols = rng.integers(0, config.n, size=count)
    patches = _extract_patches(config.spins, rows, cols, k)
    return spins_to_levels(patches).reshape(count, k * k).T


def ising_patch_stream(config: IsingConfig, epoch: int, k: int, count: int,
                       rng):
    """Endless spin patch minibatches, each ``epoch`` Gibbs updates of
    ``config`` (in place) after the last."""
    while True:
        ising_gibbs_run(config, epoch, rng)
        yield spin_patch_minibatch(config, k, count, rng)


# ---------------------------------------------------------------------------
# Image patch streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchWalker:
    """Top-left corner of a k x k window walking on a periodic grid."""

    row: int
    col: int
    k: int
    height: int
    width: int

    @classmethod
    def random(cls, height: int, width: int, k: int, rng) -> "PatchWalker":
        return cls(row=int(rng.integers(height)), col=int(rng.integers(width)),
                   k=k, height=height, width=width)


_WALK_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def image_patch_minibatch(image: np.ndarray, k: int, count: int,
                          mode: str = "iid", walker: PatchWalker | None = None,
                          rng=None, return_corners: bool = False):
    """Patch minibatch from an image, i.i.d.-uniform or by symmetric random walk.

    Returns ``(X, walker)`` where X is k^2 x count.  In walk mode each patch is
    taken after one single-pixel step of the corner in a uniformly random
    cardinal direction (periodic wrap); in iid mode corners are uniform over
    all wrapped positions and the walker is returned unchanged.
    """
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    if k > min(h, w):
        raise ValueError("patch size exceeds image size")
    if mode == "iid":
        rows = rng.integers(0, h, size=count)
        cols = rng.integers(0, w, size=count)
    elif mode == "walk":
        if walker is None:
            walker = PatchWalker.random(h, w, k, rng)
        r, c = walker.row, walker.col
        rows = np.empty(count, dtype=np.int64)
        cols = np.empty(count, dtype=np.int64)
        for i in range(count):
            dr, dc = _WALK_MOVES[int(rng.integers(4))]
            r = (r + dr) % h
            c = (c + dc) % w
            rows[i] = r
            cols[i] = c
        walker = replace(walker, row=int(r), col=int(c))
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    X = _extract_patches(image, rows, cols, k).reshape(count, k * k).T
    if return_corners:
        return X, walker, np.stack([rows, cols], axis=1)
    return X, walker


def reconstruct_grid(image: np.ndarray, W: np.ndarray, k: int,
                     lam: float = 0.0, stride: int = 1,
                     tol: float = 1e-8, max_iter: int = 1000) -> np.ndarray:
    """Reconstruct an image by sparse-coding every stride-grid patch against W.

    Patch approximations W @ h are averaged at overlapping pixels and the
    result is clipped to [0, 1].  The grid always includes the last valid
    corner so every pixel is covered.
    """
    image = np.asarray(image, dtype=float)
    h, w = image.shape
    if W.shape[0] != k * k:
        raise ValueError("dictionary rows must equal k^2")
    if k > min(h, w):
        raise ValueError("patch size exceeds image size")
    rows = list(range(0, h - k + 1, stride))
    if rows[-1] != h - k:
        rows.append(h - k)
    cols = list(range(0, w - k + 1, stride))
    if cols[-1] != w - k:
        cols.append(w - k)
    corners = [(r, c) for r in rows for c in cols]
    P = np.stack([image[r:r + k, c:c + k].reshape(-1) for r, c in corners], axis=1)
    H = sparse_code(P, W, lam=lam, tol=tol, max_iter=max_iter)
    approx = W @ H
    acc = np.zeros_like(image)
    cnt = np.zeros_like(image)
    for i, (r, c) in enumerate(corners):
        acc[r:r + k, c:c + k] += approx[:, i].reshape(k, k)
        cnt[r:r + k, c:c + k] += 1.0
    return np.clip(acc / cnt, 0.0, 1.0)
