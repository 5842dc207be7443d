import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import edge_pairs, mann_whitney_auc, smallworld_network
import onmf
from onmf import read_pgm, read_spins_pgm, write_pgm, write_spins_pgm
from onmf.cli import main

CHAIN_PATTERN = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def write_cycle(path, n=10):
    lines = [f"{i} {(i + 1) % n}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_smallworld(path, n=40, k=4, p=0.2, seed=1):
    net = smallworld_network(n, k, p, seed)
    lines = [f"{net.labels[u]} {net.labels[v]}" for u, v in edge_pairs(net)]
    path.write_text("\n".join(lines) + "\n")
    return path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# ndl-learn
# ---------------------------------------------------------------------------


def test_ndl_learn_outputs_and_atom_pattern(tmp_path):
    edges = write_cycle(tmp_path / "cycle.txt")
    out = tmp_path / "run"
    code = run("ndl-learn", "--edges", edges, "--undirected", "--motif-k", 3,
               "--atoms", 4, "--iters", 40, "--batch", 30, "--lambda", 0.0,
               "--seed", 7, "--out-dir", out)
    assert code == 0
    for name in ("dictionary.txt", "aggregates.txt", "loss_trace.csv",
                 "atoms.pgm", "dominance.csv", "metadata.txt"):
        assert (out / name).exists()
    # the atom grid tiles are per-tile min-max normalized with a 1px border
    grid = read_pgm(out / "atoms.pgm")
    k, cols = 3, 2
    found = False
    for j in range(4):
        rr, cc = divmod(j, cols)
        tile = grid[rr * (k + 1) + 1:rr * (k + 1) + 1 + k,
                    cc * (k + 1) + 1:cc * (k + 1) + 1 + k]
        found = found or np.array_equal(tile >= 0.5, CHAIN_PATTERN > 0)
    assert found
    trace = (out / "loss_trace.csv").read_text().splitlines()
    assert trace[0] == "t,surrogate"
    assert len(trace) == 41
    dom = (out / "dominance.csv").read_text().splitlines()
    total = sum(float(line.split(",")[1]) for line in dom[1:])
    assert total == pytest.approx(1.0)


def test_ndl_learn_rerun_is_byte_identical(tmp_path):
    edges = write_cycle(tmp_path / "cycle.txt")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("ndl-learn", "--edges", edges, "--undirected",
                   "--motif-k", 3, "--atoms", 3, "--iters", 10, "--batch", 20,
                   "--seed", 42, "--out-dir", out) == 0
        outs.append(out)
    for name in ("dictionary.txt", "aggregates.txt", "loss_trace.csv",
                 "atoms.pgm", "dominance.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_malformed_edge_line_exits_2_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b\na b c d\n")
    assert run("ndl-learn", "--edges", bad, "--out-dir", tmp_path / "o") == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_edges_file_exits_2(tmp_path):
    assert run("ndl-learn", "--edges", tmp_path / "nope.txt",
               "--out-dir", tmp_path / "o") == 2


def test_usage_error_exits_1(tmp_path):
    assert run("ndl-learn") == 1
    assert run("no-such-command") == 1


def test_sampling_failure_exits_3(tmp_path, capsys):
    # two isolated dead-end arcs admit no 3-chain homomorphism at all
    edges = tmp_path / "arcs.txt"
    edges.write_text("a b\nc d\n")
    assert run("ndl-learn", "--edges", edges, "--motif-k", 3, "--atoms", 2,
               "--iters", 2, "--batch", 5, "--out-dir", tmp_path / "o") == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    edges = write_cycle(tmp_path / "cycle.txt")
    flags = {"edges": edges, "motif-k": 3, "atoms": 3, "iters": 5,
             "batch": 10, "dict-radius": 100.0, "seed": 9}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# every flag of the run\nundirected: true\n" + "".join(
        f"{key.replace('-', '_')}: {value}\n" for key, value in flags.items()))
    assert run("ndl-learn", "--config", cfg, "--out-dir", tmp_path / "a") == 0
    argv = [a for key, value in flags.items() for a in (f"--{key}", value)]
    assert run("ndl-learn", *argv, "--undirected",
               "--out-dir", tmp_path / "b") == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        a, b = ((tmp_path / d / name).read_bytes().splitlines() for d in "ab")
        assert [l for l in a if not l.startswith(b"out_dir:")] == \
            [l for l in b if not l.startswith(b"out_dir:")]
    assert run("ndl-learn", "--config", tmp_path / "none.cfg",
               "--out-dir", tmp_path / "c") == 1


# A --config file's lines become flags right after the subcommand, so they
# are checked as on the command line, and explicit flags come later and win.
# A refused value exits 1 before any output folder is made.
CONFIG_BASE = {
    "ndl-learn": ["--atoms", 2, "--iters", 2, "--batch", 5],
    "denoise": ["--fraction", 0.2, "--atoms", 2, "--iters", 2, "--batch", 5,
                "--recon-iters", 10],
    "reconstruct": ["--dict", "{dict}", "--iters", 10],
    "hom-diag": ["--iters", 10],
}
CONFIG_CASES = {
    "lambda-key": ("ndl-learn", "lambda: 0.5\n", [], "lam: 0.5"),
    "explicit-flag-wins": ("ndl-learn", "seed: 9\n", ["--seed", 4], "seed: 4"),
    "switch-not-true-or-false": ("ndl-learn", "undirected: yes\n", [], None),
    "mode-not-a-choice": ("denoise", "mode: sideways\n", [], None),
    "mcmc-not-a-choice": ("hom-diag", "mcmc: bogus\n", [], None),
    "reconstruct-takes-no-kappa1": ("reconstruct", "", ["--kappa1", 0.1], None),
    "hom-diag-takes-no-lambda": ("hom-diag", "", ["--lambda", 1], None),
    "file-not-utf8": ("ndl-learn", "\xff: 1\n", [], None),
}


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_config_values_are_checked_as_flags(tmp_path, capsys, case):
    command, config, flags, recorded = CONFIG_CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(config.encode("latin-1"))    # "\xff" is not UTF-8
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("9 1\n" + "1.0\n" * 9)
    base = [dict_path if a == "{dict}" else a for a in CONFIG_BASE[command]]
    out = tmp_path / "o"
    code = run(command, "--edges", write_cycle(tmp_path / "cycle.txt"),
               "--undirected", *base, "--config", cfg, *flags, "--out-dir", out)
    if recorded is None:
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()
    else:
        assert code == 0
        assert recorded in (out / "metadata.txt").read_text().splitlines()


# A run's metadata.txt replays as a --config file: the replay writes the same
# files, byte for byte, but for the out_dir line of its metadata.txt.  Under
# another subcommand the file exits 1 before any output folder is made.
REPLAY_FLAGS = {
    "ndl-learn": ["--atoms", 3, "--iters", 5, "--batch", 10, "--lambda", 0.5],
    "denoise": ["--fraction", 0.3, "--atoms", 3, "--iters", 5, "--batch", 10,
                "--lambda", 0.5, "--recon-iters", 500],
}


@pytest.mark.parametrize("command", sorted(REPLAY_FLAGS))
def test_metadata_replays_as_config(tmp_path, command):
    edges = write_smallworld(tmp_path / "sw.txt")
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(command, "--edges", edges, "--undirected", "--motif-k", 3,
               *REPLAY_FLAGS[command], "--seed", 4, "--out-dir", first) == 0
    metadata = first / "metadata.txt"
    assert run(command, "--config", metadata, "--out-dir", second) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        a, b = ([line for line in (d / name).read_bytes().splitlines()
                 if not (name == "metadata.txt" and line.startswith(b"out_dir:"))]
                for d in (first, second))
        assert a == b
    other = tmp_path / "other"
    another_command = "ndl-learn" if command == "denoise" else "denoise"
    assert run(another_command, "--config", metadata, "--out-dir", other) == 1
    assert not other.exists()


# ---------------------------------------------------------------------------
# reconstruct / denoise
# ---------------------------------------------------------------------------


def test_reconstruct_roundtrip(tmp_path):
    edges = write_cycle(tmp_path / "cycle.txt")
    learn_out = tmp_path / "learn"
    assert run("ndl-learn", "--edges", edges, "--undirected", "--motif-k", 3,
               "--atoms", 2, "--iters", 30, "--batch", 30, "--lambda", 0.0,
               "--seed", 3, "--out-dir", learn_out) == 0
    recon_out = tmp_path / "recon"
    assert run("reconstruct", "--edges", edges, "--undirected", "--motif-k", 3,
               "--dict", learn_out / "dictionary.txt", "--iters", 2000,
               "--seed", 3, "--out-dir", recon_out) == 0
    rows = (recon_out / "recons.edgelist").read_text().splitlines()
    weights = {}
    for row in rows:
        u, v, w = row.split()
        weights[(u, v)] = float(w)
    for (u, v), w in weights.items():
        truth = 1.0 if (int(v) - int(u)) % 10 in (1, 9) else 0.0
        assert abs(w - truth) < 0.05


def test_reconstruct_k_mismatch_exits_1(tmp_path):
    edges = write_cycle(tmp_path / "cycle.txt")
    learn_out = tmp_path / "learn"
    assert run("ndl-learn", "--edges", edges, "--undirected", "--motif-k", 3,
               "--atoms", 2, "--iters", 5, "--batch", 10, "--seed", 0,
               "--out-dir", learn_out) == 0
    assert run("reconstruct", "--edges", edges, "--undirected", "--motif-k", 4,
               "--dict", learn_out / "dictionary.txt",
               "--out-dir", tmp_path / "r") == 1


def test_denoise_pipeline_outputs(tmp_path):
    edges = write_smallworld(tmp_path / "sw.txt")
    out = tmp_path / "den"
    assert run("denoise", "--edges", edges, "--undirected", "--motif-k", 3,
               "--mode", "subtractive", "--fraction", 0.5, "--atoms", 6,
               "--iters", 20, "--batch", 30, "--recon-iters", 4000,
               "--threshold", 0.1, "--seed", 1, "--out-dir", out) == 0
    for name in ("corrupted.edgelist", "labels.csv", "dictionary.txt",
                 "recons.edgelist", "roc.csv", "predictions.csv"):
        assert (out / name).exists()
    rows = (out / "roc.csv").read_text().splitlines()
    assert rows[0] == "threshold,fpr,tpr"
    assert rows[-1].startswith("auc,")
    auc = float(rows[-1].split(",")[1])
    assert 0.0 <= auc <= 1.0
    first = rows[1].split(",")
    last = rows[-2].split(",")
    assert (float(first[1]), float(first[2])) == (0.0, 0.0)
    assert (float(last[1]), float(last[2])) == (1.0, 1.0)
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "u,v,label"


def test_additive_denoise_flags_the_lower_tail(tmp_path):
    # An additive run flags the low reconstructed weights: its ROC and its
    # --threshold predictions, recomputed from the files, take the lower tail.
    # The chain entries fold 0, so a candidate edge scores the share of its
    # visits in which the dictionary joins its ends off the chain.
    # recons.edgelist rounds the exact scores to six digits.  Rounding is
    # monotone, so it keeps every strict order of the exact scores but may
    # tie pairs they order: the AUC lies between the statistics from the
    # files that count those ties as losses and as wins.
    edges = write_smallworld(tmp_path / "sw.txt", n=60, k=6, p=0.1, seed=3)
    out = tmp_path / "den"
    assert run("denoise", "--edges", edges, "--undirected", "--motif-k", 5,
               "--mode", "additive", "--fraction", 0.3, "--atoms", 16,
               "--iters", 20, "--batch", 40, "--recon-iters", 6000,
               "--threshold", 0.25, "--seed", 1, "--out-dir", out) == 0
    weights = {}
    for row in (out / "recons.edgelist").read_text().splitlines():
        u, v, w = row.split()
        weights[u, v] = float(w)
    rows = [line.split(",") for line in
            (out / "labels.csv").read_text().splitlines()[1:]]
    scores = [weights.get((u, v), 0.0) for u, v, _ in rows]
    positives = [label == "false" for _, _, label in rows]
    auc = float((out / "roc.csv").read_text().splitlines()[-1].split(",")[1])
    low = mann_whitney_auc(scores, positives, True, tie_credit=0.0)
    high = mann_whitney_auc(scores, positives, True, tie_credit=1.0)
    assert low - 1e-12 <= auc <= high + 1e-12
    assert auc > 0.8
    predictions = (out / "predictions.csv").read_text().splitlines()[1:]
    flags = [s < 0.25 for s in scores]
    assert 0 < sum(flags) < len(flags)
    assert predictions == [f"{u},{v},{str(flag).lower()}"
                           for (u, v, _), flag in zip(rows, flags)]


def test_denoise_leaves_numpy_ma_unimported(tmp_path):
    # np.isin calls a values-only np.unique, which imports numpy.ma on its
    # first call (numpy 2.3+); membership in the flipped pairs is a search
    edges = write_smallworld(tmp_path / "sw.txt")
    code = ("import sys\n"
            "from onmf.cli import main\n"
            "for mode in ('subtractive', 'additive'):\n"
            f"    assert main(['denoise', '--edges', {str(edges)!r}, "
            "'--undirected', '--motif-k', '3', '--mode', mode, "
            "'--fraction', '0.3', '--atoms', '3', '--iters', '3', "
            "'--batch', '10', '--recon-iters', '200', '--seed', '1', "
            f"'--out-dir', {str(tmp_path)!r} + '/' + mode]) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(onmf.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    for mode in ("subtractive", "additive"):
        assert (tmp_path / mode / "roc.csv").exists()


def test_denoise_precorrupted_with_labels_roundtrip(tmp_path):
    edges = write_smallworld(tmp_path / "sw.txt")
    first = tmp_path / "first"
    assert run("denoise", "--edges", edges, "--undirected", "--motif-k", 3,
               "--mode", "subtractive", "--fraction", 0.4, "--atoms", 4,
               "--iters", 15, "--batch", 20, "--recon-iters", 3000,
               "--seed", 2, "--out-dir", first) == 0
    second = tmp_path / "second"
    assert run("denoise", "--edges", first / "corrupted.edgelist",
               "--undirected", "--motif-k", 3,
               "--labels", first / "labels.csv",
               "--dict", first / "dictionary.txt",
               "--recon-iters", 3000, "--seed", 2, "--out-dir", second) == 0
    auc = float((second / "roc.csv").read_text().splitlines()[-1].split(",")[1])
    assert 0.0 <= auc <= 1.0


def test_labels_header_is_only_line_1(tmp_path):
    # nodes named u and v: their pair's row starts with "u,v," like the header
    edges = tmp_path / "c5.txt"
    edges.write_text("u a\na b\nb v\nv c\nc u\n")
    first = tmp_path / "first"
    assert run("denoise", "--edges", edges, "--undirected", "--fraction", 0.2,
               "--atoms", 2, "--iters", 5, "--batch", 10,
               "--recon-iters", 200, "--seed", 1, "--out-dir", first) == 0
    assert "u,v,true" in (first / "labels.csv").read_text().splitlines()[1:]
    second = tmp_path / "second"
    assert run("denoise", "--edges", first / "corrupted.edgelist",
               "--undirected", "--labels", first / "labels.csv",
               "--dict", first / "dictionary.txt", "--recon-iters", 200,
               "--seed", 1, "--out-dir", second) == 0

    def pairs(path):    # the rerun numbers the nodes in its own order
        rows = (line.split(",") for line in path.read_text().splitlines()[1:])
        return {(frozenset(row[:2]), row[2]) for row in rows}

    assert pairs(second / "labels.csv") == pairs(first / "labels.csv")


def test_denoise_additive_on_complete_graph_exits_2(tmp_path):
    k5 = tmp_path / "k5.txt"
    k5.write_text("\n".join(f"{a} {b}" for a in range(5)
                            for b in range(a + 1, 5)) + "\n")
    assert run("denoise", "--edges", k5, "--undirected", "--mode", "additive",
               "--fraction", 0.5, "--out-dir", tmp_path / "o") == 2


def test_denoise_without_fraction_needs_labels(tmp_path):
    edges = write_smallworld(tmp_path / "sw.txt")
    assert run("denoise", "--edges", edges, "--undirected",
               "--out-dir", tmp_path / "o") == 1


@pytest.mark.parametrize("rows, fault", [
    (["0,2,true", "0,3,yes"], "label must be true or false"),
    (["0,2,true", "2,0,false"], "pair listed twice"),
])
def test_labels_file_faults_exit_2_with_line_number(tmp_path, capsys, rows,
                                                    fault):
    labels = tmp_path / "labels.csv"
    labels.write_text("u,v,label\n" + "\n".join(rows) + "\n")
    assert run("denoise", "--edges", write_cycle(tmp_path / "cycle.txt"),
               "--undirected", "--labels", labels,
               "--out-dir", tmp_path / "o") == 2
    assert f"data error: {labels}: line 3: {fault}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["0 1 1e308\n0 1 1e308\n",
                                  "0 1 1.5e308\n0 2 1.5e308\n",
                                  "0 1 1.5e308\n2 1 1.5e308\n"],
                         ids=["repeated-pair", "out-row", "in-row"])
def test_weight_sums_past_float64_exit_2_naming_the_file(tmp_path, capsys,
                                                         text):
    # every weight is finite, but the sum of a repeated pair or of a node's
    # row is not: once exit 1 with "error:", or a RuntimeWarning before exit 3
    edges = tmp_path / "huge.txt"
    edges.write_text(text)
    assert run("hom-diag", "--edges", edges, "--motif-k", 2,
               "--out-dir", tmp_path / "o") == 2
    assert capsys.readouterr().err.splitlines() == [
        f"data error: {edges}: the weights of a pair or of a node sum past "
        "float64"]


# A file whose content is malformed exits 2; a flag value the library rejects
# exits 1.  Both print one message line, never a traceback.
EXIT_CASES = {
    "malformed-dict": (2, ["reconstruct", "--edges", "{cycle}", "--undirected",
                           "--dict", "{bad_dict}"]),
    "labels-miss-candidates": (2, ["denoise", "--edges", "{cycle}",
                                   "--undirected", "--labels", "{labels}",
                                   "--dict", "{dict}", "--recon-iters", 100]),
    "atoms-0": (1, ["ndl-learn", "--edges", "{cycle}", "--atoms", 0]),
    "temperature-negative": (1, ["ising-learn", "--temperature", -1]),
    "beta-0.5": (1, ["ndl-learn", "--edges", "{cycle}", "--undirected",
                     "--beta", 0.5, "--iters", 1]),
    "fraction-1.5": (1, ["denoise", "--edges", "{cycle}", "--undirected",
                         "--fraction", 1.5]),
    "lambda-negative": (1, ["ndl-learn", "--edges", "{cycle}",
                            "--lambda", -1]),
    "dict-radius-0": (1, ["ndl-learn", "--edges", "{cycle}", "--undirected",
                          "--dict-radius", 0, "--iters", 1]),
    "config-value-not-a-number": (1, ["ndl-learn", "--edges", "{cycle}",
                                      "--config", "{config}"]),
    "dict-truncated": (2, ["reconstruct", "--edges", "{cycle}", "--undirected",
                           "--dict", "{short_dict}"]),
    "dict-no-atoms": (2, ["reconstruct", "--edges", "{cycle}", "--undirected",
                          "--dict", "{empty_dict}", "--iters", 10]),
    "init-config-not-square": (2, ["ising-learn", "--temperature", 2.0,
                                   "--lattice", 6, "--patch", 3,
                                   "--init-config", "{wide_spins}"]),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_bad_files_exit_2_and_bad_flag_values_exit_1(tmp_path, capsys, case):
    code, argv = EXIT_CASES[case]
    files = {"cycle": write_cycle(tmp_path / "cycle.txt"),
             "bad_dict": tmp_path / "bad_dict.txt",
             "dict": tmp_path / "dict.txt",
             "labels": tmp_path / "labels.csv",
             "config": tmp_path / "run.cfg",
             "empty_dict": tmp_path / "empty_dict.txt",
             "short_dict": tmp_path / "short_dict.txt",
             "wide_spins": tmp_path / "wide.pgm"}
    files["bad_dict"].write_text("2 2\n1 x\n")
    files["empty_dict"].write_text("9 0\n" + "\n" * 9)
    files["short_dict"].write_text("9 1\n1.0\n1.0\n")
    write_spins_pgm(files["wide_spins"], np.ones((6, 4), dtype=int))
    files["dict"].write_text("9 1\n" + "1.0\n" * 9)
    # one of the 35 non-edges of the 10-cycle
    files["labels"].write_text("u,v,label\n0,2,true\n")
    files["config"].write_text("atoms: many\n")
    argv = [files[a[1:-1]] if str(a).startswith("{") else a for a in argv]
    assert run(*argv, "--out-dir", tmp_path / "o") == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("data error: " if code == 2 else "error: ")


# A count or flag value out of its range is refused with a message naming it,
# before any output but metadata.txt: where the library takes it, or up front
# in the command when the library takes it only after the learned outputs.
DENOISE_SW = ["denoise", "--edges", "{smallworld}", "--undirected",
              "--fraction", 0.2]
COUNT_CASES = {
    "hom-diag-chains-0": (["hom-diag", "--edges", "{cycle}", "--undirected",
                           "--chains", 0], "--chains must be positive"),
    "hom-diag-iters-0": (["hom-diag", "--edges", "{cycle}", "--undirected",
                          "--iters", 0], "--iters must be positive"),
    "hom-diag-iters-negative": (["hom-diag", "--edges", "{cycle}",
                                 "--undirected", "--iters", -3],
                                "--iters must be positive"),
    "hom-diag-motif-k-0": (["hom-diag", "--edges", "{cycle}", "--undirected",
                            "--motif-k", 0],
                           "chain length k must be at least 1"),
    "hom-diag-motif-k-negative": (["hom-diag", "--edges", "{cycle}",
                                   "--undirected", "--motif-k", -1],
                                  "chain length k must be at least 1"),
    "denoise-motif-k-0": (DENOISE_SW + ["--motif-k", 0],
                          "counts must be positive"),
    "denoise-atoms-0": (DENOISE_SW + ["--atoms", 0], "counts must be positive"),
    "denoise-beta-0.5": (DENOISE_SW + ["--beta", 0.5],
                         "beta must lie in (3/4, 1]"),
    "denoise-dict-radius-0": (DENOISE_SW + ["--dict-radius", 0],
                              "piece radius must be positive and finite"),
    "denoise-recon-iters-negative": (DENOISE_SW + ["--recon-iters", -1],
                                     "--recon-iters must be nonnegative"),
    "denoise-recon-lambda-negative": (DENOISE_SW + ["--recon-lambda", -1],
                                      "--recon-lambda must be finite and "
                                      "nonnegative"),
    "denoise-recon-lambda-nan": (DENOISE_SW + ["--recon-lambda", "nan"],
                                 "--recon-lambda must be finite and "
                                 "nonnegative"),
    "denoise-fraction-and-labels": (["denoise", "--edges", "{cycle}",
                                     "--undirected", "--fraction", 0.3,
                                     "--labels", "{missing}"],
                                    "give --fraction or --labels, not both"),
    "ising-epoch-negative": (["ising-learn", "--epoch", -4],
                             "epoch must be nonnegative"),
    "ising-batch-0": (["ising-learn", "--batch", 0], "empty data matrix"),
    "ising-batch-negative": (["ising-learn", "--batch", -1],
                             "patch count must be nonnegative"),
    "ising-patch-0": (["ising-learn", "--patch", 0],
                      "--patch must be positive"),
    "ising-patch-negative": (["ising-learn", "--patch", -2],
                             "--patch must be positive"),
    "ising-iters-negative": (["ising-learn", "--iters", -3],
                             "iters must be nonnegative"),
    "image-batch-0": (["image-learn", "--image", "{image}", "--patch", 3,
                       "--atoms", 2, "--batch", 0], "empty data matrix"),
    "image-batch-negative": (["image-learn", "--image", "{image}", "--patch", 3,
                              "--atoms", 2, "--batch", -1],
                             "patch count must be nonnegative"),
    "image-stride-0": (["image-learn", "--image", "{image}", "--patch", 3,
                        "--atoms", 2, "--iters", 2, "--batch", 5,
                        "--stride", 0], "--stride must be positive"),
    "image-stride-negative": (["image-learn", "--image", "{image}",
                               "--patch", 3, "--atoms", 2, "--iters", 2,
                               "--batch", 5, "--stride", -2],
                              "--stride must be positive"),
    "image-patch-negative": (["image-learn", "--image", "{image}",
                              "--patch", -2, "--atoms", 2, "--iters", 2,
                              "--batch", 5], "--patch must be positive"),
    "image-stride-above-patch": (["image-learn", "--image", "{image}",
                                  "--patch", 3, "--atoms", 2, "--iters", 2,
                                  "--batch", 5, "--stride", 4],
                                 "--stride must not exceed --patch, or the "
                                 "pixels between patches are never "
                                 "reconstructed"),
    "image-recon-lambda-negative": (["image-learn", "--image", "{image}",
                                     "--patch", 3, "--atoms", 2, "--iters", 2,
                                     "--batch", 5, "--recon-lambda", -1],
                                    "--recon-lambda must be finite and "
                                    "nonnegative"),
    "image-recon-lambda-inf": (["image-learn", "--image", "{image}",
                                "--patch", 3, "--atoms", 2, "--iters", 2,
                                "--batch", 5, "--recon-lambda", "inf"],
                               "--recon-lambda must be finite and "
                               "nonnegative"),
    "reconstruct-iters-negative": (["reconstruct", "--edges", "{cycle}",
                                    "--undirected", "--dict", "{dict}",
                                    "--iters", -5],
                                   "iters must be nonnegative"),
    "reconstruct-lambda-negative": (["reconstruct", "--edges", "{cycle}",
                                     "--undirected", "--dict", "{dict}",
                                     "--lambda", -1, "--iters", 0],
                                    "lambda must be finite and nonnegative"),
    "reconstruct-lambda-inf": (["reconstruct", "--edges", "{cycle}",
                                "--undirected", "--dict", "{dict}",
                                "--lambda", "inf", "--iters", 0],
                               "lambda must be finite and nonnegative"),
    "ndl-kappa1-negative": (["ndl-learn", "--edges", "{cycle}", "--undirected",
                             "--kappa1", -5, "--iters", 1],
                            "kappa1 must be finite and nonnegative"),
    "ndl-lambda-nan": (["ndl-learn", "--edges", "{cycle}", "--undirected",
                        "--lambda", "nan", "--iters", 1],
                       "lambda must be finite and nonnegative"),
    "ising-kappa2-inf": (["ising-learn", "--kappa2", "inf"],
                         "kappa2 must be finite and nonnegative"),
}
ISING_SMALL = ["--temperature", 2.0, "--lattice", 6, "--patch", 3,
               "--atoms", 2]


@pytest.mark.parametrize("case", sorted(COUNT_CASES))
def test_out_of_range_counts_exit_1_before_any_output(tmp_path, capsys, case):
    argv, message = COUNT_CASES[case]
    files = {"cycle": write_cycle(tmp_path / "cycle.txt"),
             "smallworld": write_smallworld(tmp_path / "sw.txt", n=30),
             "dict": tmp_path / "dict.txt",
             "image": tmp_path / "image.pgm",
             "missing": tmp_path / "missing.csv"}
    files["dict"].write_text("9 1\n" + "1.0\n" * 9)
    write_pgm(files["image"], np.random.default_rng(0).random((8, 8)))
    argv = [files[a[1:-1]] if str(a).startswith("{") else a for a in argv]
    if argv[0] == "ising-learn":    # the case's own flags come later and win
        argv[1:1] = ISING_SMALL
    out = tmp_path / "o"
    assert run(*argv, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert sorted(p.name for p in out.iterdir()) == ["metadata.txt"]


def test_zero_reconstruction_steps_stay_valid(tmp_path):
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("9 1\n" + "1.0\n" * 9)
    out = tmp_path / "r"
    assert run("reconstruct", "--edges", write_cycle(tmp_path / "cycle.txt"),
               "--undirected", "--dict", dict_path, "--iters", 0,
               "--out-dir", out) == 0
    assert (out / "recons.edgelist").read_text() == ""


# ---------------------------------------------------------------------------
# ising-learn
# ---------------------------------------------------------------------------


def test_ising_learn_outputs(tmp_path):
    out = tmp_path / "ising"
    assert run("ising-learn", "--lattice", 20, "--temperature", 5.0,
               "--epoch", 50, "--patch", 4, "--atoms", 6, "--iters", 15,
               "--batch", 30, "--seed", 2, "--out-dir", out) == 0
    for name in ("dictionary.txt", "loss_trace.csv", "atoms.pgm",
                 "final_config.pgm", "metadata.txt"):
        assert (out / name).exists()
    cfg = read_pgm(out / "final_config.pgm")
    assert np.isin(cfg, (0.0, 1.0)).all()


def test_ising_learn_patch_guard(tmp_path):
    assert run("ising-learn", "--lattice", 5, "--temperature", 1.0,
               "--patch", 9, "--out-dir", tmp_path / "o") == 1


def test_frozen_all_up_configuration_fits_with_one_atom(tmp_path):
    init = tmp_path / "up.pgm"
    write_pgm(init, np.ones((12, 12)))
    out = tmp_path / "frozen"
    assert run("ising-learn", "--lattice", 12, "--temperature", 0.001,
               "--epoch", 10, "--patch", 4, "--atoms", 1, "--iters", 25,
               "--batch", 20, "--lambda", 0.0, "--init-config", init,
               "--seed", 4, "--out-dir", out) == 0
    rows = (out / "loss_trace.csv").read_text().splitlines()[1:]
    assert float(rows[-1].split(",")[1]) < 1e-6


@pytest.mark.parametrize("layout", ["all-down", "two-domains"])
def test_cold_lattice_with_down_spins_stays_frozen(tmp_path, layout):
    # at T = 0.001 a down site with a negative neighbor sum has p+ = 0, the
    # limit of 1 / (1 + exp(2 |s| / T)), whose exponential overflows
    spins = -np.ones((12, 12), dtype=int)
    if layout == "two-domains":
        spins[6:] = 1      # straight walls: every site keeps 3 like neighbors
    init = tmp_path / "init.pgm"
    write_spins_pgm(init, spins)
    out = tmp_path / "cold"
    code = run("ising-learn", "--lattice", 12, "--temperature", 0.001,
               "--epoch", 300, "--patch", 4, "--atoms", 4, "--iters", 10,
               "--batch", 20, "--init-config", init, "--seed", 7,
               "--out-dir", out)
    # all-down patches are all zero: no atom is ever used, which the CLI
    # reports as degenerate aggregates (exit 3) after writing the lattice
    assert code == (3 if layout == "all-down" else 0)
    assert np.array_equal(read_spins_pgm(out / "final_config.pgm"), spins)


def test_subcritical_stream_is_more_compressible(tmp_path):
    finals = {}
    for T in (0.5, 5.0):
        out = tmp_path / f"T{T}"
        assert run("ising-learn", "--lattice", 25, "--temperature", T,
                   "--epoch", 100, "--patch", 5, "--atoms", 8, "--iters", 60,
                   "--batch", 50, "--seed", 6, "--out-dir", out) == 0
        rows = (out / "loss_trace.csv").read_text().splitlines()[1:]
        finals[T] = float(rows[-1].split(",")[1])
    assert finals[0.5] < finals[5.0]


def test_epoch_sweep_traces_trend_downward(tmp_path):
    for tau in (10, 100):
        out = tmp_path / f"tau{tau}"
        iters = 2000 // tau
        assert run("ising-learn", "--lattice", 20, "--temperature", 0.5,
                   "--epoch", tau, "--patch", 4, "--atoms", 6,
                   "--iters", iters, "--batch", 30, "--seed", 8,
                   "--out-dir", out) == 0
        vals = [float(r.split(",")[1]) for r in
                (out / "loss_trace.csv").read_text().splitlines()[1:]]
        dec = max(1, len(vals) // 10)
        assert np.mean(vals[-dec:]) < np.mean(vals[:dec])


# ---------------------------------------------------------------------------
# image-learn
# ---------------------------------------------------------------------------


def stripe_image(tmp_path, h=40, w=40):
    image = np.tile(np.array([0.0, 1.0]), (h, w // 2))
    path = tmp_path / "stripes.pgm"
    write_pgm(path, image)
    return path, image


def test_image_learn_stripe_psnr(tmp_path):
    path, image = stripe_image(tmp_path)
    out = tmp_path / "img"
    assert run("image-learn", "--image", path, "--mode", "iid", "--patch", 10,
               "--atoms", 10, "--iters", 40, "--batch", 60, "--lambda", 0.0,
               "--stride", 5, "--seed", 5, "--out-dir", out) == 0
    recon = read_pgm(out / "reconstruction.pgm")
    mse = float(np.mean((recon - image) ** 2))
    psnr = 10.0 * np.log10(1.0 / mse) if mse > 0 else np.inf
    assert psnr > 30.0


def test_image_learn_walk_positions_log(tmp_path):
    path, _ = stripe_image(tmp_path, 20, 20)
    out = tmp_path / "walk"
    assert run("image-learn", "--image", path, "--mode", "walk", "--patch", 4,
               "--atoms", 4, "--iters", 5, "--batch", 20, "--stride", 4,
               "--seed", 6, "--out-dir", out) == 0
    rows = (out / "positions.csv").read_text().splitlines()[1:]
    coords = [(int(r.split(",")[1]), int(r.split(",")[2])) for r in rows]
    for (r0, c0), (r1, c1) in zip(coords, coords[1:]):
        dr, dc = (r1 - r0) % 20, (c1 - c0) % 20
        assert (dr in (1, 19) and dc == 0) or (dc in (1, 19) and dr == 0)


def test_constant_image_reconstructs_exactly(tmp_path):
    path = tmp_path / "const.pgm"
    write_pgm(path, np.full((16, 16), 100 / 255))
    out = tmp_path / "const"
    assert run("image-learn", "--image", path, "--mode", "iid", "--patch", 4,
               "--atoms", 1, "--iters", 10, "--batch", 20, "--lambda", 0.0,
               "--seed", 7, "--out-dir", out) == 0
    recon = read_pgm(out / "reconstruction.pgm")
    assert np.allclose(recon, 100 / 255, atol=1 / 255 + 1e-9)


def test_image_learn_rejects_non_pgm(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_text("not an image")
    assert run("image-learn", "--image", bad, "--out-dir", tmp_path / "o") == 2


# ---------------------------------------------------------------------------
# all learning commands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, own_outputs", [
    ("ndl-learn", ["aggregates.txt"]),
    ("ising-learn", ["final_config.pgm"]),
    ("image-learn", ["reconstruction.pgm", "positions.csv"]),
])
def test_degenerate_aggregates_exit_3_after_every_other_output(
        tmp_path, capsys, command, own_outputs):
    # so large a penalty codes every patch as zero: no atom is ever used
    flags = {"ndl-learn": ["--edges", write_cycle(tmp_path / "cycle.txt"),
                           "--undirected"],
             "ising-learn": ["--lattice", 12, "--temperature", 2.0,
                             "--epoch", 20],
             "image-learn": ["--image", stripe_image(tmp_path, 12, 12)[0],
                             "--mode", "walk"]}[command]
    out = tmp_path / "out"
    patch = [] if command == "ndl-learn" else ["--patch", 3]
    assert run(command, *flags, *patch, "--atoms", 3, "--iters", 4,
               "--batch", 10, "--lambda", 1e9, "--seed", 1,
               "--out-dir", out) == 3
    assert "numerical failure: degenerate aggregates" in capsys.readouterr().err
    for name in ["metadata.txt", "dictionary.txt", "loss_trace.csv",
                 "atoms.pgm"] + own_outputs:
        assert (out / name).exists(), name
    assert not (out / "dominance.csv").exists()


# ---------------------------------------------------------------------------
# hom-diag
# ---------------------------------------------------------------------------


def test_hom_diag_glauber_on_odd_cycle(tmp_path):
    edges = write_cycle(tmp_path / "c5.txt", n=5)
    out = tmp_path / "diag"
    assert run("hom-diag", "--edges", edges, "--undirected", "--motif-k", 3,
               "--mcmc", "glauber", "--iters", 20000, "--seed", 3,
               "--out-dir", out) == 0
    rows = (out / "tv_trace.csv").read_text().splitlines()
    assert rows[0] == "step,tv"
    assert float(rows[-1].split(",")[1]) < 0.1
    dist = (out / "empirical_dist.csv").read_text().splitlines()
    freq = sum(float(r.split(",")[1]) for r in dist[1:])
    assert freq == pytest.approx(1.0)


def test_hom_diag_multiple_chains(tmp_path):
    edges = write_cycle(tmp_path / "c5.txt", n=5)
    out = tmp_path / "multi"
    assert run("hom-diag", "--edges", edges, "--undirected", "--motif-k", 2,
               "--mcmc", "pivot", "--iters", 3000, "--chains", 2,
               "--seed", 4, "--out-dir", out) == 0
    for c in (0, 1):
        assert (out / f"tv_trace_chain{c}.csv").exists()
        assert (out / f"empirical_dist_chain{c}.csv").exists()


def test_hom_diag_pivot_approx_logs_tv_without_bound(tmp_path):
    # irregular graph: the approximate chain's bias is recorded, not asserted
    edges = write_smallworld(tmp_path / "sw.txt", n=12, k=4, p=0.3, seed=5)
    out = tmp_path / "approx"
    assert run("hom-diag", "--edges", edges, "--undirected", "--motif-k", 3,
               "--mcmc", "pivot-approx", "--iters", 20000, "--seed", 5,
               "--out-dir", out) == 0
    rows = (out / "tv_trace.csv").read_text().splitlines()
    final_tv = float(rows[-1].split(",")[1])
    assert 0.0 <= final_tv <= 1.0


@pytest.mark.parametrize("mode", ["glauber", "pivot", "pivot-approx"])
def test_hom_diag_on_weights_of_1e_120_writes_the_unit_weight_outputs(
        tmp_path, mode):
    # the oracle once weighed each 4-chain map of this path 1e-360, which
    # rounds to 0, and exited 3 with "no homomorphism exists"
    outs = []
    for name, w in (("tiny", "1e-120"), ("unit", "1")):
        edges = tmp_path / f"{name}.txt"
        edges.write_text(f"0 1 {w}\n1 2 {w}\n")
        outs.append(tmp_path / f"{name}-out")
        assert run("hom-diag", "--edges", edges, "--undirected", "--motif-k",
                   4, "--mcmc", mode, "--iters", 2000, "--seed", 6,
                   "--out-dir", outs[-1]) == 0
    for name in ("tv_trace.csv", "empirical_dist.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_hom_diag_oracle_guard(tmp_path):
    big = tmp_path / "big.txt"
    big.write_text("\n".join(f"{i} {(i + 1) % 70}" for i in range(70)) + "\n")
    assert run("hom-diag", "--edges", big, "--undirected", "--motif-k", 5,
               "--iters", 10, "--out-dir", tmp_path / "o") == 2


def test_metadata_written_and_stable(tmp_path):
    edges = write_cycle(tmp_path / "cycle.txt")
    outs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert run("hom-diag", "--edges", edges, "--undirected", "--motif-k", 2,
                   "--iters", 1000, "--seed", 5, "--out-dir", out) == 0
        outs.append((out / "metadata.txt").read_text())
    a = [l for l in outs[0].splitlines() if not l.startswith("out_dir")]
    b = [l for l in outs[1].splitlines() if not l.startswith("out_dir")]
    assert a == b
    assert any(l.startswith("command: hom-diag") for l in a)
    assert any(l.startswith("seed: 5") for l in a)


# ---------------------------------------------------------------------------
# scripts/compare_outputs.py
# ---------------------------------------------------------------------------


COMPARE_OUTPUTS = Path(__file__).resolve().parents[1] / "scripts" / \
    "compare_outputs.py"


def _compare_outputs(old, new):
    return subprocess.run([sys.executable, str(COMPARE_OUTPUTS), str(old),
                           str(new), "--rtol", "0"],
                          capture_output=True, text=True)


def test_compare_outputs_masks_input_paths_only(tmp_path):
    # The same reconstruction from copies of its inputs in two folders:
    # metadata.txt differs in its dict:, edges: and out_dir: lines alone.
    learned = tmp_path / "learned"
    assert run("ndl-learn", "--edges", write_cycle(tmp_path / "cycle.txt"),
               "--undirected", "--motif-k", 3, "--atoms", 4, "--iters", 5,
               "--batch", 10, "--seed", 1, "--out-dir", learned) == 0
    outs = []
    for side in ("a", "b"):
        inputs = tmp_path / f"inputs-{side}"
        inputs.mkdir()
        shutil.copy(learned / "dictionary.txt", inputs)
        out = tmp_path / f"out-{side}"
        assert run("reconstruct", "--edges", write_cycle(inputs / "cycle.txt"),
                   "--undirected", "--motif-k", 3, "--dict",
                   inputs / "dictionary.txt", "--iters", 200, "--seed", 2,
                   "--out-dir", out) == 0
        outs.append(out)
    meta = [(out / "metadata.txt").read_text().splitlines() for out in outs]
    assert {a.split(":")[0] for a, b in zip(*meta) if a != b} == \
        {"dict", "edges", "out_dir"}
    done = _compare_outputs(*outs)
    assert done.returncode == 0, done.stdout
    # one number changed in one output file
    edgelist = outs[1] / "recons.edgelist"
    rows = edgelist.read_text().splitlines()
    u, v, w = rows[0].split()
    rows[0] = f"{u} {v} {float(w) + 1e-3!r}"
    edgelist.write_text("\n".join(rows) + "\n")
    done = _compare_outputs(*outs)
    assert done.returncode == 1
    assert "recons.edgelist: values differ on 1 of" in done.stdout
