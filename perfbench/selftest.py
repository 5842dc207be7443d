"""Self-test of the benchmark harness, kept apart from the package's tests.

    python3 perfbench/selftest.py

Run from the root of a checkout; it takes about half a minute.  Every
workload runs at a tiny size (workloads.TINY) through the plain and the
traced probe and must pass all of its output checks and yield every
per-layer metric.  Then each check gets an output tampered in the way that
check exists to catch, and must reject it.  Last, run.py must refuse to run
where there are no sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from run import PER_LAYER, Checkout, invoke, layer_metrics
from workloads import TINY, CheckError, evaluate, read_edges, read_matrix


def _lines(path):
    return path.read_text().splitlines(keepends=True)


def _write_lines(path, lines):
    path.write_text("".join(lines))


def _write_matrix(path, M):
    rows = [f"{M.shape[0]} {M.shape[1]}\n"]
    rows += [" ".join(repr(float(v)) for v in row) + "\n" for row in M]
    _write_lines(path, rows)


def _edit_line(path, index, edit):
    lines = _lines(path)
    lines[index] = edit(lines[index])
    _write_lines(path, lines)


# -- tampering, one per check: (output folder, inputs) --

def drop_edge(out, ctx):
    _write_lines(out / "corrupted.edgelist", _lines(out / "corrupted.edgelist")[:-1])


def foreign_edge(out, ctx):
    graph = ctx["graph"]
    u, v = next((u, v) for u in graph for v in graph
                if u < v and not graph.has_edge(u, v))
    _edit_line(out / "corrupted.edgelist", 0, lambda _: f"{u} {v}\n")


def isolate_node(out, ctx):
    """Move every kept edge at node 0 to a removed edge away from node 0."""
    kept = read_edges(out / "corrupted.edgelist")
    removed = sorted({tuple(sorted(e)) for e in ctx["graph"].edges()} - set(kept))
    at_zero = [e for e in kept if 0 in e]
    spare = [e for e in removed if 0 not in e][:len(at_zero)]
    assert len(spare) == len(at_zero)
    edges = [e for e in kept if 0 not in e] + spare
    _write_lines(out / "corrupted.edgelist", [f"{u} {v}\n" for u, v in edges])


def drop_label(out, ctx):
    _write_lines(out / "labels.csv", _lines(out / "labels.csv")[:-1])


def flip_removed_label(out, ctx):
    lines = _lines(out / "labels.csv")
    i = next(i for i, line in enumerate(lines) if line.endswith(",false\n"))
    lines[i] = lines[i].replace(",false", ",true")
    _write_lines(out / "labels.csv", lines)


def _set_auc(out, value):
    _edit_line(out / "roc.csv", -1, lambda _: f"auc,{value!r}\n")


def shift_auc(out, ctx):
    auc = float(_lines(out / "roc.csv")[-1].split(",")[1])
    _set_auc(out, auc + 0.01)


def reverse_roc(out, ctx):
    lines = _lines(out / "roc.csv")
    _write_lines(out / "roc.csv", lines[:1] + lines[1:-1][::-1] + lines[-1:])


def low_auc(out, ctx):
    _set_auc(out, 0.5)


def negative_atom_entry(out, ctx):
    W = read_matrix(out / "dictionary.txt")
    W[0, 0] = -1e-3
    _write_matrix(out / "dictionary.txt", W)


def rising_surrogate(out, ctx):
    lines = _lines(out / "loss_trace.csv")
    values = [line.split(",")[1] for line in lines[1:]][::-1]
    _write_lines(out / "loss_trace.csv", lines[:1] + [
        f"{t},{v}" for t, v in enumerate(values, start=1)])


def grey_spin(out, ctx):
    data = bytearray((out / "final_config.pgm").read_bytes())
    data[-1] = 128
    (out / "final_config.pgm").write_bytes(bytes(data))


def unnormalised_dominance(out, ctx):
    _edit_line(out / "dominance.csv", 1,
               lambda line: f"0,{2 * float(line.split(',')[1])!r}\n")


def one_entry_atoms(out, ctx):
    """Every atom on a patch's first entry: one pixel, or a graph patch's
    first diagonal entry, which is always 0."""
    W = read_matrix(out / "dictionary.txt")
    W[:] = 0.0
    W[0, :] = 1.0
    _write_matrix(out / "dictionary.txt", W)


TAMPER = {
    "denoise-sw200": {
        "corrupted_count": drop_edge,
        "corrupted_subset": foreign_edge,
        "corrupted_connected": isolate_node,
        "labels_cover_non_edges": drop_label,
        "labels_mark_removed": flip_removed_label,
        "auc_is_mann_whitney": shift_auc,
        "roc_staircase": reverse_roc,
        "auc_floor": low_auc,
    },
    "ising-omf": {
        "dictionary_feasible": negative_atom_entry,
        "surrogate_falls": rising_surrogate,
        "final_config_is_spin_grid": grey_spin,
        "beats_random_atoms": one_entry_atoms,
    },
    "ndl-glauber-5k": {
        "dictionary_feasible": negative_atom_entry,
        "dominance_sums_to_one": unnormalised_dominance,
        "beats_random_atoms": one_entry_atoms,
    },
}


def selftest_workload(box, name, workload):
    ctx = workload.prepare(box.work, seed=3)
    out = box.work / f"{name}-out"
    _, _, report = box.probe(["run", "plain", "-", "--", *workload.argv(ctx, out)])
    if report["rc"] != 0:
        raise SystemExit(f"{name}: onmf exited with {report['rc']}")
    evaluate(workload, ctx, out)
    traced = layer_metrics(invoke(box, workload, ctx, "trace"), workload)
    missing = set(PER_LAYER) - set(traced) - {"trace.overhead_s"}
    if missing:
        raise SystemExit(f"{name}: traced run lacks {sorted(missing)}")
    checks = workload.checks()
    if set(checks) != set(TAMPER[name]):
        raise SystemExit(f"{name}: checks without a tampering test: "
                         f"{sorted(set(checks) ^ set(TAMPER[name]))}")
    for check_name, tamper in TAMPER[name].items():
        copy = box.work / "tampered"
        shutil.copytree(out, copy)
        try:
            tamper(copy, ctx)
            checks[check_name](ctx, copy)
        except CheckError as exc:
            print(f"{name}: {check_name} rejects {tamper.__name__}: {exc}")
        else:
            raise SystemExit(f"{name}: {check_name} accepted {tamper.__name__}")
        finally:
            shutil.rmtree(copy)


def main():
    box = Checkout(Path.cwd(), "selftest")
    try:
        for name, workload in TINY.items():
            selftest_workload(box, name, workload)
        bare = box.work / "bare"
        bare.mkdir()
        done = subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                               "--workload", "ising-omf", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        if done.returncode == 0 or done.stdout:
            raise SystemExit("run.py measured something without sources")
        print("run.py refuses a folder without sources:", done.stderr.strip())
    finally:
        box.close()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
