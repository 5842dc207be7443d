import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import empirical_distribution, exact_boltzmann
from onmf import sources
from onmf import (IsingConfig, conditional_plus_probability,
                  image_patch_stream, ising_gibbs_run, ising_gibbs_step,
                  ising_patch_stream, read_pgm, read_spins_pgm,
                  reconstruct_grid, sparse_code, spin_patch_minibatch,
                  spins_to_levels, tv_distance, write_pgm, write_spins_pgm)
from onmf.pgm import PgmError


# ---------------------------------------------------------------------------
# Gibbs sampler
# ---------------------------------------------------------------------------


def test_conditional_probability_values():
    assert conditional_plus_probability(0.0, 1.0) == pytest.approx(0.5)
    # S = +4 at T = 2: Boltzmann ratio 1/(1+e^-4)
    assert conditional_plus_probability(4.0, 2.0) == pytest.approx(
        1.0 / (1.0 + math.exp(-4.0)), abs=1e-12)
    assert conditional_plus_probability(4.0, 2.0) == pytest.approx(0.98201, abs=1e-5)


def test_detailed_balance_of_site_update():
    # pi(x+) P(x+ -> x-) == pi(x-) P(x- -> x+) at a site with neighbor sum S;
    # P(-1) equals the +1 probability under the flipped field, which avoids
    # catastrophic cancellation in the check
    for T in (0.5, 1.0, 2.26, 5.0):
        for S in range(-4, 5):
            p_plus = conditional_plus_probability(S, T)
            p_minus = conditional_plus_probability(-S, T)
            assert abs(1.0 - p_plus - p_minus) < 1e-15
            ratio = math.exp(2.0 * S / T)  # pi(x+)/pi(x-)
            assert ratio * p_minus == pytest.approx(p_plus, rel=1e-12)


def test_gibbs_step_changes_one_site_at_most():
    rng = np.random.default_rng(0)
    cfg = IsingConfig.random(5, 2.0, rng)
    before = cfg.spins.copy()
    ising_gibbs_step(cfg, rng)
    assert int(np.sum(cfg.spins != before)) <= 1


def test_gibbs_small_lattice_reaches_equilibrium():
    # quick version of the exactness gate: 2x2 lattice at moderate temperature
    pi = exact_boltzmann(2, 2.26)
    rng = np.random.default_rng(3)
    cfg = IsingConfig.random(2, 2.26, rng)
    counts = {}
    for _ in range(200000):
        ising_gibbs_step(cfg, rng)
        key = tuple(cfg.spins.reshape(-1))
        counts[key] = counts.get(key, 0) + 1
    assert tv_distance(empirical_distribution(counts), pi) < 0.05


def test_gibbs_3x3_cold_is_exact_up_to_global_flip():
    # at T = 0.5 the two ground basins do not mix within 1e6 steps, but the
    # lattice Boltzmann measure is global-flip symmetric, so folding the
    # empirical measure over the flip isolates within-basin exactness
    pi = exact_boltzmann(3, 0.5)
    rng = np.random.default_rng(21)
    cfg = IsingConfig.random(3, 0.5, rng)
    counts = {}
    steps = 10 ** 6
    for _ in range(steps):
        ising_gibbs_step(cfg, rng)
        key = tuple(cfg.spins.reshape(-1))
        counts[key] = counts.get(key, 0) + 1
    folded = {}
    for key, c in counts.items():
        flipped = tuple(-s for s in key)
        folded[key] = folded.get(key, 0.0) + c / (2.0 * steps)
        folded[flipped] = folded.get(flipped, 0.0) + c / (2.0 * steps)
    assert tv_distance(folded, pi) < 0.05


def test_gibbs_run_matches_step_distribution():
    # the block runner is just a faster driver for repeated single steps
    rng = np.random.default_rng(4)
    cfg = IsingConfig.random(3, 5.0, rng)
    ising_gibbs_run(cfg, 5000, rng)
    assert np.isin(cfg.spins, (-1, 1)).all()


def _reference_gibbs_run(config, steps, rng):
    """The per-site loop: blocks of 16 384 draws, then one update per draw,
    p+ from math.exp (0.0 where it overflows)."""
    n = config.n
    nbrs, counts = sources._neighbor_table(n)
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
            try:
                p_plus = 1.0 / (1.0 + math.exp(-inv_t * s))
            except OverflowError:
                p_plus = 0.0
            flat[site] = 1 if us[b] < p_plus else -1
        done += block
    return config


def _gibbs_pair(n, temperature, start, seed):
    """Two identical (config, rng) pairs: all up, all down or random spins."""
    pairs = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        if start == "random":
            cfg = IsingConfig.random(n, temperature, rng)
        else:
            sign = 1 if start == "up" else -1
            cfg = IsingConfig(spins=np.full((n, n), sign), temperature=temperature)
        pairs.append((cfg, rng))
    return pairs


GIBBS_RUNS = {
    "2x2-loop": (2, [1000]),
    "3x3-loop": (3, [1000]),
    "8x8-loop": (8, [2000]),
    "30x30-20-step-calls": (30, [20] * 30),
    "30x30": (30, [2000]),
    "50x50-epochs": (50, [1000, 1000, 200]),
    "50x50-across-block": (50, [16384 + 700]),
}


@pytest.mark.parametrize("name", sorted(GIBBS_RUNS))
def test_gibbs_run_matches_site_loop(name):
    n, calls = GIBBS_RUNS[name]
    for temperature in (0.001, 0.5, 2.26, 50.0):
        for start in ("up", "down", "random"):
            (want, ref_rng), (got, rng) = _gibbs_pair(n, temperature, start,
                                                      seed=n + len(calls))
            for steps in calls:
                _reference_gibbs_run(want, steps, ref_rng)
                ising_gibbs_run(got, steps, rng)
                assert np.array_equal(got.spins, want.spins), (temperature, start)
                assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [3, 5, 8, 30])
def test_level_schedule_matches_site_loop_on_small_lattices(n, monkeypatch):
    # every piece runs by levels, however short, on every lattice it allows
    monkeypatch.setattr(sources, "_LEVEL_MIN_UPDATES", 1)
    for temperature in (0.001, 2.26, 50.0):
        (want, ref_rng), (got, rng) = _gibbs_pair(n, temperature, "random",
                                                  seed=3 * n)
        for steps in (1, 7, 3 * n * n):
            _reference_gibbs_run(want, steps, ref_rng)
            ising_gibbs_run(got, steps, rng)
            assert np.array_equal(got.spins, want.spins)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_update_levels_follow_the_last_conflicting_update():
    rng = np.random.default_rng(40)
    n = 6
    nbrs, _ = sources._neighbor_table(n)
    sites = rng.integers(0, n * n, size=200)
    last = [-1] * (n * n)
    want = []
    for site in sites.tolist():
        level = 1 + max(last[q] for q in [site, *nbrs[site].tolist()])
        last[site] = level
        want.append(level)
    got = sources._update_levels(sites, nbrs)
    assert got.tolist() == want
    for level in range(max(want) + 1):
        group = sites[got == level]
        assert len(set(group.tolist())) == len(group)
        assert not np.isin(nbrs[group], group).any()


def test_cold_down_spins_stay_down():
    # 2 * 4 / 0.001 overflows math.exp: p+ is its limit 0.0, not an error
    assert conditional_plus_probability(-4.0, 0.001) == 0.0
    assert conditional_plus_probability(4.0, 0.001) == 1.0
    rng = np.random.default_rng(41)
    cfg = IsingConfig(spins=-np.ones((4, 4), dtype=int), temperature=0.001)
    for _ in range(50):
        ising_gibbs_step(cfg, rng)
    ising_gibbs_run(cfg, 500, rng)
    assert (cfg.spins == -1).all()


def test_gibbs_updates_reach_spins_given_as_a_transposed_view():
    spins = -np.ones((30, 30), dtype=np.int64)
    cfg = IsingConfig(spins=spins.T, temperature=50.0)
    rng = np.random.default_rng(42)
    ising_gibbs_run(cfg, 5000, rng)
    for _ in range(500):
        ising_gibbs_step(cfg, rng)
    assert (cfg.spins == 1).any()


def test_ising_config_validation():
    with pytest.raises(ValueError):
        IsingConfig(spins=np.array([[1, 2], [1, 1]]), temperature=1.0)
    with pytest.raises(ValueError):
        IsingConfig(spins=np.ones((2, 2), dtype=int), temperature=-1.0)


# ---------------------------------------------------------------------------
# spin patches
# ---------------------------------------------------------------------------


def test_uniform_configs_give_constant_patches():
    rng = np.random.default_rng(5)
    up = IsingConfig(spins=np.ones((6, 6), dtype=int), temperature=1.0)
    X = spin_patch_minibatch(up, 3, 10, rng)
    assert X.shape == (9, 10)
    assert np.all(X == 1.0)
    down = IsingConfig(spins=-np.ones((6, 6), dtype=int), temperature=1.0)
    assert np.all(spin_patch_minibatch(down, 3, 10, rng) == 0.0)


def test_checkerboard_patch_columns():
    n = 6
    grid = np.fromfunction(lambda i, j: (i + j) % 2 * 2 - 1, (n, n)).astype(int)
    cfg = IsingConfig(spins=grid, temperature=1.0)
    rng = np.random.default_rng(6)
    X = spin_patch_minibatch(cfg, 2, 50, rng)
    allowed = {(0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 1.0)}
    for col in X.T:
        assert tuple(col) in allowed


def test_patch_size_guard():
    cfg = IsingConfig(spins=np.ones((3, 3), dtype=int), temperature=1.0)
    with pytest.raises(ValueError):
        spin_patch_minibatch(cfg, 4, 1, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4))
def test_spin_level_map_roundtrip(tmp_path_factory, bits):
    # read_spins_pgm applies the inverse map on read
    spins = np.array(bits).reshape(2, 2)
    path = tmp_path_factory.getbasetemp() / "levels.pgm"
    write_pgm(path, spins_to_levels(spins))
    assert np.array_equal(read_spins_pgm(path), spins)


# ---------------------------------------------------------------------------
# image patches
# ---------------------------------------------------------------------------


def test_constant_image_gives_constant_columns():
    rng = np.random.default_rng(7)
    image = np.full((8, 8), 0.37)
    X, corners = next(image_patch_stream(image, 3, 12, rng, mode="iid"))
    assert X.shape == (9, 12) and corners.shape == (12, 2)
    assert np.allclose(X, 0.37)


def _start_corner(seed, height, width):
    """The corner a stream made from default_rng(seed) starts its walk at."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(height)), int(rng.integers(width))


def test_walk_moves_one_step_per_patch():
    rng = np.random.default_rng(8)
    image = np.zeros((7, 9))
    stream = image_patch_stream(image, 2, 40, rng, mode="walk")
    prev = _start_corner(8, 7, 9)
    for _ in range(3):     # the next minibatch walks on from the last corner
        _, corners = next(stream)
        for r, c in corners:
            dr = (r - prev[0]) % 7
            dc = (c - prev[1]) % 9
            assert ((dr in (1, 7 - 1) and dc == 0)
                    or (dc in (1, 9 - 1) and dr == 0))
            prev = (r, c)


def _reference_walk(start, height, width, count, rng):
    """The walk one draw per step on a periodic height x width grid from the
    corner `start`: the corners it visits."""
    r, c = start
    corners = []
    for _ in range(count):
        dr, dc = ((1, 0), (-1, 0), (0, 1), (0, -1))[int(rng.integers(4))]
        r = (r + dr) % height
        c = (c + dc) % width
        corners.append((r, c))
    return corners


@pytest.mark.parametrize("count", [0, 1, 2, 97, 1000])
def test_walk_matches_one_draw_per_step(count):
    image = np.zeros((7, 9))
    for seed in range(5):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        start = int(ref_rng.integers(7)), int(ref_rng.integers(9))
        want = _reference_walk(start, 7, 9, 2 * count, ref_rng)
        stream = image_patch_stream(image, 2, count, rng, mode="walk")
        got = [rc for _ in range(2) for rc in next(stream)[1].tolist()]
        assert got == [list(rc) for rc in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("mode", ["iid", "walk"])
def test_stream_draws_the_start_corner_when_made(mode):
    rng, ref_rng = np.random.default_rng(16), np.random.default_rng(16)
    image_patch_stream(np.zeros((5, 6)), 2, 10, rng, mode=mode)
    ref_rng.integers(5)
    ref_rng.integers(6)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_iid_corner_distribution_is_uniform():
    from scipy import stats

    rng = np.random.default_rng(9)
    image = np.zeros((3, 3))
    _, corners = next(image_patch_stream(image, 2, 100000, rng, mode="iid"))
    flat = corners[:, 0] * 3 + corners[:, 1]
    freq = np.bincount(flat, minlength=9)
    assert stats.chisquare(freq).pvalue > 0.01


def test_walker_visits_every_position():
    rng = np.random.default_rng(10)
    image = np.zeros((10, 10))
    _, corners = next(image_patch_stream(image, 2, 100000, rng, mode="walk"))
    assert len({(int(r), int(c)) for r, c in corners}) == 100


def test_patch_mode_validation():
    # refused when the stream is made, before any minibatch is drawn
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="patch size exceeds image size"):
        image_patch_stream(np.zeros((4, 4)), 5, 1, rng, mode="iid")
    with pytest.raises(ValueError, match="unknown sampling mode"):
        image_patch_stream(np.zeros((4, 4)), 2, 1, rng, mode="spiral")


@pytest.mark.parametrize("k,count,message", [
    (0, 5, "patch size must be positive"),
    (-2, 5, "patch size must be positive"),
    (2, -1, "patch count must be nonnegative"),
], ids=["k-0", "k-negative", "count-negative"])
def test_patch_samplers_refuse_a_bad_size_or_count(k, count, message):
    # every sampler refuses before drawing; a stream when it is made
    cfg = IsingConfig(spins=np.ones((4, 4), dtype=int), temperature=1.0)
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        spin_patch_minibatch(cfg, k, count, rng)
    with pytest.raises(ValueError, match=message):
        ising_patch_stream(cfg, 1, k, count, rng)
    with pytest.raises(ValueError, match=message):
        image_patch_stream(np.zeros((4, 4)), k, count, rng, mode="walk")
    assert rng.bit_generator.state == state


def test_patch_minibatch_needs_a_generator():
    with pytest.raises(TypeError, match="rng"):
        image_patch_stream(np.zeros((4, 4)), 2, 3)


# ---------------------------------------------------------------------------
# grid reconstruction
# ---------------------------------------------------------------------------


def test_exact_patch_basis_reconstructs_image():
    # stripe image whose patch space is spanned by two binary patterns
    image = np.tile(np.array([0.0, 1.0]), (8, 4))
    k = 2
    atoms = {tuple(image[r:r + k, c:c + k].reshape(-1))
             for r in range(7) for c in range(7)}
    W = np.array(sorted(atoms)).T
    out = reconstruct_grid(image, W, k, lam=0.0, stride=1)
    assert np.abs(out - image).max() < 1e-6


def test_stride_k_is_blockwise_independent():
    rng = np.random.default_rng(12)
    image = rng.random((6, 6))
    W = rng.random((9, 4)) + 0.1
    out = reconstruct_grid(image, W, 3, lam=0.1, stride=3)
    for r in (0, 3):
        for c in (0, 3):
            patch = image[r:r + 3, c:c + 3].reshape(-1, 1)
            # coded alone under the grid's stopping rule
            h = sparse_code(patch, W, lam=0.1, tol=1e-8, max_iter=1000)
            assert np.allclose(out[r:r + 3, c:c + 3],
                               np.clip((W @ h).reshape(3, 3), 0, 1), atol=1e-8)


def test_constant_atom_preserves_patch_means():
    rng = np.random.default_rng(13)
    image = rng.random((4, 4))
    W = np.full((4, 1), 0.5)
    out = reconstruct_grid(image, W, 2, lam=0.0, stride=2)
    for r in (0, 2):
        for c in (0, 2):
            block = image[r:r + 2, c:c + 2]
            assert np.allclose(out[r:r + 2, c:c + 2], block.mean(), atol=1e-8)


def _reference_grid(image, W, k, lam, stride):
    """reconstruct_grid as a loop over the corners, adding each patch's
    approximation and count to its pixels in turn."""
    h, w = image.shape
    rows = sorted(set(range(0, h - k + 1, stride)) | {h - k})
    cols = sorted(set(range(0, w - k + 1, stride)) | {w - k})
    corners = [(r, c) for r in rows for c in cols]
    P = np.stack([image[r:r + k, c:c + k].reshape(-1) for r, c in corners],
                 axis=1)
    approx = W @ sparse_code(P, W, lam=lam, tol=1e-8, max_iter=1000)
    acc, cnt = np.zeros_like(image), np.zeros_like(image)
    for i, (r, c) in enumerate(corners):
        acc[r:r + k, c:c + k] += approx[:, i].reshape(k, k)
        cnt[r:r + k, c:c + k] += 1.0
    return np.clip(acc / cnt, 0.0, 1.0)


@pytest.mark.parametrize("shape, k, stride, lam", [
    ((12, 12), 3, 1, 0.0), ((13, 9), 4, 3, 0.2), ((10, 17), 5, 5, 1.0),
    ((8, 8), 8, 2, 0.0), ((9, 11), 2, 2, 0.05)])
def test_grid_matches_the_per_corner_loop(shape, k, stride, lam):
    rng = np.random.default_rng(17)
    image = rng.random(shape)
    W = rng.random((k * k, 5))
    out = reconstruct_grid(image, W, k, lam=lam, stride=stride)
    assert np.array_equal(out, _reference_grid(image, W, k, lam, stride))


def test_stride_above_the_patch_size_is_refused():
    image = np.random.default_rng(18).random((96, 80))
    W = np.ones((36, 2))
    with pytest.raises(ValueError, match="never covered"):
        reconstruct_grid(image, W, 6, stride=7)
    assert reconstruct_grid(image, W, 6, stride=6).shape == (96, 80)


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------


def test_pgm_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(14)
    gray = rng.integers(0, 256, size=(5, 7)).astype(float) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, gray)
    back = read_pgm(path)
    assert back.shape == (5, 7)
    assert np.array_equal(back, gray)
    assert path.read_bytes().startswith(b"P5\n7 5\n255\n")


def test_pgm_comment_headers_are_parsed(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 1] == pytest.approx(128 / 255)


def test_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(PgmError, match="P5"):
        read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n4 4\n255\nab")
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(trunc)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "out.pgm", np.full((2, 2), 1.5))


def test_spin_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    spins = 2 * rng.integers(0, 2, size=(6, 6)) - 1
    path = tmp_path / "spins.pgm"
    write_spins_pgm(path, spins)
    assert np.array_equal(read_spins_pgm(path), spins)
    gray = tmp_path / "gray.pgm"
    gray.write_bytes(b"P5\n2 1\n255\n" + bytes([7, 255]))
    with pytest.raises(PgmError, match="0 and 255"):
        read_spins_pgm(gray)
