"""Command-line front end for the factorization, Ising, image, and network pipelines.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A flag value that a library check rejects is a usage error; the faults of an
input file are data errors, raised where the file is read.  Every run writes
a metadata.txt of 'key: value' lines (full config, seed, versions); reruns
with identical metadata produce byte-identical numeric outputs.
"""

from __future__ import annotations

import argparse
import math
import platform
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .factorization import (ZeroDictionaryError, _check_penalty, init_engine,
                            learn, load_dictionary, save_aggregates,
                            save_dictionary)
from .ndl import (CORRUPTION_MODES, CorruptionError, DegenerateAggregatesError,
                  NDLParams, RocError, candidate_pairs, corrupt_network,
                  denoise_classify, dominance_scores, folds_chain_entries,
                  lower_tail_is_positive, ndl_learn, nr_reconstruct, roc_auc)
from .networks import (MCMC_MODES, EdgeListError, MotifChain, Network,
                       OracleSizeError, SamplingError, chain_steps,
                       hom_distribution_bruteforce, initial_homomorphism,
                       tv_distance)
from .pgm import PgmError, read_pgm, read_spins_pgm, write_pgm, write_spins_pgm
from .sources import (IsingConfig, image_patch_stream, ising_patch_stream,
                      reconstruct_grid)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class DataError(Exception):
    """Malformed content in an input file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


# metadata.txt keys that record the run rather than set a flag; a --config
# file's lines under these keys are not read as flags.
_PROVENANCE = ("command", "out_dir", "onmf_version", "numpy_version",
               "python_version")


def _write_metadata(out_dir: Path, args) -> None:
    """Sorted 'key: value' lines of the provenance keys and of every flag
    but --config and the unset (None) ones, so the file replays as a
    --config file."""
    entries = {key: val for key, val in vars(args).items()
               if key not in ("func", "config") and val is not None}
    entries.update(zip(_PROVENANCE, (args.command, str(args.out_dir),
                                     __version__, np.__version__,
                                     platform.python_version())))
    with open(out_dir / "metadata.txt", "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key}: {entries[key]}\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one line of comma-joined fields per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _atom_grid_image(W: np.ndarray, k: int) -> np.ndarray:
    """Tile min-max-normalized k x k atoms into one grid with 1px separators."""
    r = W.shape[1]
    cols = math.ceil(math.sqrt(r))
    rows = math.ceil(r / cols)
    canvas = np.ones((rows * (k + 1) + 1, cols * (k + 1) + 1))
    for j in range(r):
        tile = W[:, j].reshape(k, k)
        lo, hi = float(tile.min()), float(tile.max())
        norm = (tile - lo) / (hi - lo) if hi > lo else np.zeros_like(tile)
        rr, cc = divmod(j, cols)
        top, left = rr * (k + 1) + 1, cc * (k + 1) + 1
        canvas[top:top + k, left:left + k] = norm
    return canvas


@contextmanager
def _learned_outputs(out_dir: Path, W: np.ndarray, k: int, P: np.ndarray,
                     trace):
    """dictionary.txt, loss_trace.csv and atoms.pgm on entry, the command's
    own files in the body, dominance.csv on exit.  When no atom was ever used,
    exit writes no dominance.csv and raises DegenerateAggregatesError."""
    save_dictionary(out_dir / "dictionary.txt", W)
    _write_csv(out_dir / "loss_trace.csv", "t,surrogate",
               ((t, float(v)) for t, v in trace))
    write_pgm(out_dir / "atoms.pgm", _atom_grid_image(W, k))
    yield
    _write_csv(out_dir / "dominance.csv", "atom,score",
               enumerate(map(float, dominance_scores(P))))


def _write_pairs(path: Path, header, net: Network, pairs: np.ndarray,
                 sep: str, column=None, fmt=str) -> None:
    """A header line unless header is None, then per pair key u * n + v the
    labels of u and v and, given a column, fmt of the pair's entry, joined by
    sep.  Each 65 536 pairs are formatted into one string and written once."""
    names = net.labels
    with open(path, "w") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, len(pairs), 1 << 16):
            part = slice(start, start + (1 << 16))
            us, vs = np.divmod(pairs[part], net.n)
            fields = [[names[u] for u in us.tolist()],
                      [names[v] for v in vs.tolist()]]
            if column is not None:
                fields.append(map(fmt, column[part].tolist()))
            fh.write("\n".join(map(sep.join, zip(*fields))) + "\n")


def _write_weighted_edges(path: Path, net: Network, recons) -> None:
    """Reconstructed weight of every visited pair u <= v, 6 significant
    digits."""
    _write_pairs(path, None, net, recons.keys[:-1], " ",
                 recons.sums[:-1] / recons.counts[:-1], "{:.6g}".format)


def _write_flags(path: Path, net: Network, column: str, pairs: np.ndarray,
                 flags: np.ndarray) -> None:
    """``u,v,<column>`` rows of true/false, one per pair key."""
    _write_pairs(path, f"u,v,{column}", net, pairs, ",", flags,
                 ("false", "true").__getitem__)


def _load_dictionary(args) -> np.ndarray:
    """The ``--dict`` matrix, which must have ``--motif-k`` squared rows."""
    try:
        W = load_dictionary(args.dict)
    except ValueError as exc:
        raise DataError(f"{args.dict}: {exc}") from exc
    if not np.isfinite(W).all():
        raise DataError(f"{args.dict}: non-finite dictionary entry")
    if W.shape[1] == 0:
        raise DataError(f"{args.dict}: dictionary has no atoms")
    if W.shape[0] != args.motif_k ** 2:
        raise UsageError(f"dictionary has {W.shape[0]} rows; "
                         f"--motif-k {args.motif_k} needs {args.motif_k ** 2}")
    return W


def _ndl_params(args) -> NDLParams:
    return NDLParams(k=args.motif_k, atoms=args.atoms, iters=args.iters,
                     batch=args.batch, lam=args.lam, dict_radius=args.dict_radius,
                     mcmc=args.mcmc, beta=args.beta, kappa1=args.kappa1,
                     kappa2=args.kappa2)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ndl_learn(args, out_dir: Path) -> None:
    net = Network.from_edge_list_file(args.edges, undirected=args.undirected)
    rng = np.random.default_rng(args.seed)
    nd = ndl_learn(net, _ndl_params(args), rng)
    with _learned_outputs(out_dir, nd.W, nd.k, nd.stats.A, nd.loss_trace):
        save_aggregates(out_dir / "aggregates.txt", nd.stats, args.beta)


def cmd_reconstruct(args, out_dir: Path) -> None:
    net = Network.from_edge_list_file(args.edges, undirected=args.undirected)
    W = _load_dictionary(args)
    rng = np.random.default_rng(args.seed)
    recons = nr_reconstruct(net, W, iters=args.iters, lam=args.lam,
                            mcmc=args.mcmc, rng=rng)
    _write_weighted_edges(out_dir / "recons.edgelist", net, recons)


def cmd_denoise(args, out_dir: Path) -> None:
    if args.recon_iters < 0:
        raise UsageError("--recon-iters must be nonnegative")
    _check_penalty("--recon-lambda", args.recon_lambda)
    net = Network.from_edge_list_file(args.edges, undirected=args.undirected)
    rng = np.random.default_rng(args.seed)
    if args.fraction is not None and args.labels is not None:
        raise UsageError("give --fraction or --labels, not both")

    corrupted = net
    if args.fraction is not None:
        result = corrupt_network(net, args.mode, args.fraction, rng)
        corrupted = result.corrupted
    elif args.labels is None:
        raise UsageError("need --fraction to corrupt or --labels for a "
                         "pre-corrupted network")
    pairs = candidate_pairs(corrupted, args.mode)
    if args.fraction is not None:
        # the flipped pairs are candidates; found by a search, as np.isin
        # would import numpy.ma
        labels = np.ones(len(pairs), dtype=bool)
        labels[pairs.searchsorted(result.flipped)] = False
    else:
        keys, labels = _read_labels(args.labels, net)
        if not np.array_equal(keys, pairs):
            raise DataError(f"{args.labels}: labels must cover exactly the "
                            f"{args.mode} candidate pairs")

    if args.dict is not None:
        W = _load_dictionary(args)
    else:
        W = ndl_learn(corrupted, _ndl_params(args), rng).W
        save_dictionary(out_dir / "dictionary.txt", W)
    if args.fraction is not None:    # once learning has checked its flags
        _write_pairs(out_dir / "corrupted.edgelist", None, net,
                     corrupted.undirected_keys(), " ")

    recons = nr_reconstruct(corrupted, W, iters=args.recon_iters,
                            lam=args.recon_lambda, mcmc=args.mcmc, rng=rng,
                            chain_entries=folds_chain_entries(args.mode))
    _write_flags(out_dir / "labels.csv", net, "label", pairs, labels)
    _write_weighted_edges(out_dir / "recons.edgelist", net, recons)

    scores = recons.scores(pairs)
    lower = lower_tail_is_positive(args.mode)
    roc = roc_auc(scores, ~labels, lower_is_positive=lower)
    _write_csv(out_dir / "roc.csv", "threshold,fpr,tpr",
               roc.points + [("auc", roc.auc)])
    if args.threshold is not None:
        predictions = denoise_classify(scores, args.threshold,
                                       lower_is_positive=lower)
        _write_flags(out_dir / "predictions.csv", net, "positive", pairs,
                     predictions)


def _read_labels(path, net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pair keys u * n + v (u < v) of a labels.csv, and their
    labels."""
    index = {lab: i for i, lab in enumerate(net.labels)}
    keys, labels, linenos = array("q"), bytearray(), array("q")
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or lineno == 1 and line.startswith("u,v,"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{path}: line {lineno}: expected 'u,v,label'")
            if parts[0] not in index or parts[1] not in index:
                raise DataError(f"{path}: line {lineno}: unknown node label")
            label = parts[2].strip().lower()
            if label not in ("true", "false"):
                raise DataError(f"{path}: line {lineno}: label must be true "
                                f"or false, got {parts[2]!r}")
            u, v = index[parts[0]], index[parts[1]]
            keys.append(min(u, v) * net.n + max(u, v))
            labels.append(label == "true")
            linenos.append(lineno)
    keys = np.frombuffer(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeats = order[1:][keys[1:] == keys[:-1]]
    if repeats.size:
        lineno = linenos[int(repeats.min())]   # the first repeat's row
        raise DataError(f"{path}: line {lineno}: pair listed twice")
    return keys, np.frombuffer(labels, dtype=bool)[order]


def _engine(args, rng):
    return init_engine(args.patch ** 2, args.atoms, args.dict_radius, rng,
                       beta=args.beta, lam=args.lam, kappa1=args.kappa1,
                       kappa2=args.kappa2)


def cmd_ising_learn(args, out_dir: Path) -> None:
    if args.patch < 1:
        raise UsageError("--patch must be positive")
    if args.patch > args.lattice:
        raise UsageError("--patch must not exceed --lattice")
    rng = np.random.default_rng(args.seed)
    if args.init_config is not None:
        spins = read_spins_pgm(args.init_config)
        if spins.shape[0] != args.lattice:
            raise UsageError("--init-config size must match --lattice")
        config = IsingConfig(spins=spins, temperature=args.temperature)
    else:
        config = IsingConfig.random(args.lattice, args.temperature, rng)
    engine = _engine(args, rng)
    stream = ising_patch_stream(config, args.epoch, args.patch, args.batch, rng)
    trace = learn(engine, stream, args.iters)
    with _learned_outputs(out_dir, engine.W, args.patch, engine.stats.A, trace):
        write_spins_pgm(out_dir / "final_config.pgm", config.spins)


def cmd_image_learn(args, out_dir: Path) -> None:
    if args.patch < 1:
        raise UsageError("--patch must be positive")
    if args.stride < 1:
        raise UsageError("--stride must be positive")
    if args.stride > args.patch:
        raise UsageError("--stride must not exceed --patch, or the pixels "
                         "between patches are never reconstructed")
    _check_penalty("--recon-lambda", args.recon_lambda)
    image = read_pgm(args.image)
    rng = np.random.default_rng(args.seed)
    engine = _engine(args, rng)
    stream = image_patch_stream(image, args.patch, args.batch, rng,
                                mode=args.mode)
    corners = []

    def minibatches():
        for X, batch_corners in stream:
            corners.append(batch_corners)
            yield X

    trace = learn(engine, minibatches(), args.iters)
    with _learned_outputs(out_dir, engine.W, args.patch, engine.stats.A, trace):
        recon = reconstruct_grid(image, engine.W, args.patch,
                                 lam=args.recon_lambda, stride=args.stride)
        write_pgm(out_dir / "reconstruction.pgm", recon)
        if args.mode == "walk":
            _write_csv(out_dir / "positions.csv", "t,row,col",
                       ((t, r, c) for t, batch in enumerate(corners, start=1)
                        for r, c in batch.tolist()))


def cmd_hom_diag(args, out_dir: Path) -> None:
    net = Network.from_edge_list_file(args.edges, undirected=args.undirected)
    if args.chains < 1:
        raise UsageError("--chains must be positive")
    if args.iters < 1:
        raise UsageError("--iters must be positive")
    k = args.motif_k
    try:
        oracle = hom_distribution_bruteforce(net, k)
    except OracleSizeError as exc:
        raise OracleSizeError(f"{exc}; rerun with a smaller graph or motif")
    chain = MotifChain(net, k, args.mcmc)   # its caches serve every chain
    children = np.random.SeedSequence(args.seed).spawn(args.chains)
    for c, child in enumerate(children):
        rng = np.random.default_rng(child)
        suffix = f"_chain{c}" if args.chains > 1 else ""
        x = initial_homomorphism(net, k, rng)
        counts: dict = {}
        tv_rows = []
        # one TV row per 1 000 steps and one at the end
        for done in range(0, args.iters, 1000):
            step = min(done + 1000, args.iters)
            for x in chain_steps(chain, x, rng, step - done):
                counts[x] = counts.get(x, 0) + 1
            emp = {k: v / step for k, v in counts.items()}
            tv_rows.append((step, float(tv_distance(emp, oracle))))
        _write_csv(out_dir / f"empirical_dist{suffix}.csv", "state,frequency",
                   (("-".join(net.labels[v] for v in state),
                     counts[state] / args.iters) for state in sorted(counts)))
        _write_csv(out_dir / f"tv_trace{suffix}.csv", "step,tv", tv_rows)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", required=True)
    common.add_argument("--config", default=None,
                        help="file of 'key: value' lines read as flags")
    network = argparse.ArgumentParser(add_help=False)
    network.add_argument("--edges", required=True)
    network.add_argument("--undirected", action="store_true")
    network.add_argument("--motif-k", type=int, default=3)
    network.add_argument("--mcmc", choices=MCMC_MODES, default="pivot")
    learning = argparse.ArgumentParser(add_help=False)
    learning.add_argument("--lambda", dest="lam", type=float, default=1.0)
    learning.add_argument("--kappa1", type=float, default=0.0)
    learning.add_argument("--kappa2", type=float, default=0.0)
    learning.add_argument("--beta", type=float, default=1.0)
    learning.add_argument("--dict-radius", type=float, default=1000.0)

    parser = _Parser(prog="onmf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ndl-learn", parents=[common, network, learning],
                       help="learn a network dictionary")
    p.add_argument("--atoms", type=int, default=16)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.set_defaults(func=cmd_ndl_learn)

    p = sub.add_parser("reconstruct", parents=[common, network],
                       help="reconstruct a network with a dictionary")
    p.add_argument("--dict", required=True)
    p.add_argument("--iters", type=int, default=20000)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("denoise", parents=[common, network, learning],
                       help="corrupt, reconstruct, and score a network")
    p.add_argument("--mode", choices=CORRUPTION_MODES, default="subtractive")
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--labels", default=None,
                   help="labels.csv for a pre-corrupted input")
    p.add_argument("--dict", default=None)
    p.add_argument("--atoms", type=int, default=16)
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--batch", type=int, default=80)
    p.add_argument("--recon-iters", type=int, default=20000)
    p.add_argument("--recon-lambda", type=float, default=0.0)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("ising-learn", parents=[common, learning],
                       help="dictionary learning from a Gibbs chain")
    p.add_argument("--lattice", type=int, default=50)
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--epoch", type=int, default=1, help="Gibbs updates per minibatch")
    p.add_argument("--patch", type=int, default=10)
    p.add_argument("--atoms", type=int, default=25)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--init-config", default=None, help="PGM spin grid to start from")
    p.set_defaults(func=cmd_ising_learn)

    p = sub.add_parser("image-learn", parents=[common, learning],
                       help="dictionary learning from image patches")
    p.add_argument("--image", required=True)
    p.add_argument("--mode", choices=["iid", "walk"], default="iid")
    p.add_argument("--patch", type=int, default=10)
    p.add_argument("--atoms", type=int, default=25)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--batch", type=int, default=200)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--recon-lambda", type=float, default=0.0)
    p.set_defaults(func=cmd_image_learn)

    p = sub.add_parser("hom-diag", parents=[common, network],
                       help="chain diagnostics against the exact oracle")
    p.add_argument("--iters", type=int, default=100000)
    p.add_argument("--chains", type=int, default=1)
    p.set_defaults(func=cmd_hom_diag)
    return parser


def _expand_config(argv: list) -> list:
    """argv with the --config file's 'key: value' lines put right after the
    subcommand as flags: ``--key=value``, a bare ``--key`` for true and
    nothing for false.  Flags given on the command line come later, so they
    win.  Provenance keys are not flags, so a run's metadata.txt replays as a
    config file (``lam``, as written there, is argparse's abbreviation of
    ``--lambda``); its ``command`` must name the subcommand."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, colon, value = line.partition(":")
                if not colon:
                    raise UsageError(f"{path}: line {lineno}: expected "
                                     "'key: value'")
                key, value = key.strip(), value.strip()
                if key == "command" and value != argv[0]:
                    raise UsageError(f"{path}: line {lineno}: recorded for "
                                     f"command {value!r}, not {argv[0]!r}")
                if key in _PROVENANCE:
                    continue
                flag = "--" + key.replace("_", "-")
                if value.lower() == "true":
                    flags.append(flag)
                elif value.lower() != "false":
                    flags.append(f"{flag}={value}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_expand_config(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_metadata(out_dir, args)
        args.func(args, out_dir)
    except (DataError, EdgeListError, PgmError, OracleSizeError,
            CorruptionError, UnicodeDecodeError, FileNotFoundError,
            IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SamplingError, DegenerateAggregatesError, RocError,
            ZeroDictionaryError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:    # UsageError, or a library check on a flag
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
