"""Benchmark of the `onmf` CLI on one workload; see README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are made from the seed.  Each
operation is one CLI invocation in its own process, checked afterwards, and
rounds of them repeat until S seconds have passed.  The last line of
standard output is a JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a traced invocation with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)   # before numpy is imported, here and in children

from workloads import WORKLOADS, CheckError, evaluate  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150
# speed.py's unit of work takes this long on the reference CPU speed; every
# end-to-end time is scaled to it.
REF_UNIT_S = 0.3e-3
SPEED_SLACK_S = 0.05

# Metric names and units, as BENCHMARK.json at the checkout's root lists them.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

LAYERS = ("networks", "sources", "factorization", "ndl", "cli")


class Checkout:
    """The checkout under test, a scratch folder inside it, and the CPU speed.

    This process and every child it starts are pinned to one CPU, on which
    speed.py samples how fast that CPU is running (see README.md).
    """

    def __init__(self, root: Path, label: str):
        self.src = root / "src"
        if not (self.src / "onmf" / "cli.py").is_file():
            raise FileNotFoundError(f"no onmf sources under {self.src}")
        self.work = root / ".perfbench_work" / f"{label}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src),
                        PERFBENCH_SRC=str(self.src), **PINNED)
        self.count = 0
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.speed_log = self.work / "speed.txt"
        self.sampler = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), str(self.speed_log)],
            env=self.env)

    def speed_factor(self, t0, t1):
        """Reference unit time over the mean unit time seen in [t0, t1].

        The mean, because a run time sums the time per unit of work over
        everything the CPU did during it.
        """
        units = []
        if self.speed_log.is_file():
            # Drop the text after the last newline: a line still being written.
            for line in self.speed_log.read_text().split("\n")[:-1]:
                start, dur = (float(v) for v in line.split())
                if t0 - SPEED_SLACK_S <= start <= t1 + SPEED_SLACK_S:
                    units.append(dur)
        if not units:
            raise RuntimeError("the CPU speed sampler recorded nothing")
        return REF_UNIT_S / statistics.fmean(units)

    def probe(self, args):
        """Run probe.py in a child process.

        Returns the wall seconds, the speed factor over that time and the
        child's report.
        """
        self.count += 1
        report = self.work / f"report{self.count}.json"
        cmd = [sys.executable, str(HERE / "probe.py"), args[0], str(report),
               *args[1:]]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=OP_TIMEOUT_S)
        t1 = time.perf_counter()
        if done.returncode != 0 or not report.is_file():
            raise RuntimeError(f"exit {done.returncode}: {done.stderr[-2000:]}")
        return t1 - t0, self.speed_factor(t0, t1), json.loads(report.read_text())

    def close(self):
        self.sampler.terminate()
        self.sampler.wait()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def digest(out: Path) -> str:
    """Hash of every output but metadata.txt, which names the output folder."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "metadata.txt":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def invoke(box, workload, ctx, mode):
    """One operation: the CLI in a child process, then every output check."""
    out = box.work / f"out{box.count + 1}"
    spans = box.work / f"spans{box.count + 1}.txt"
    wall, speed, report = box.probe(["run", mode, str(spans), "--",
                                     *workload.argv(ctx, out)])
    if report["rc"] != 0:
        raise RuntimeError(f"onmf exited with {report['rc']}")
    figures = evaluate(workload, ctx, out)
    op = {"wall_s": wall, "speed": speed, "report": report, "figures": figures,
          "digest": digest(out),
          "output_bytes": sum(p.stat().st_size for p in out.iterdir())}
    if mode == "trace":
        op["spans"] = read_spans(spans)
    else:
        t0, t1 = report["learn_window"]
        op["learn_s"], op["learn_speed"] = t1 - t0, box.speed_factor(t0, t1)
    shutil.rmtree(out)
    return op


def read_spans(path):
    spans = []
    with open(path) as fh:
        for line in fh:
            name, layer, start, end, parent, note = line.split()
            spans.append((name, layer, int(end) - int(start), int(parent),
                          int(note)))
    return spans


def layer_metrics(op, workload):
    """Per-layer figures of one traced invocation, times at reference speed."""
    speed = op["speed"]
    spans = [(name, layer, dur * speed, parent, note)
             for name, layer, dur, parent, note in op["spans"]]
    child = [0] * len(spans)
    for _, _, dur, parent, _ in spans:
        if parent >= 0:
            child[parent] += dur
    calls, total, own, notes = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for (name, layer, dur, _, note), inner in zip(spans, child):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + dur
        own[name] = own.get(name, 0) + dur - inner
        notes[name] = notes.get(name, 0) + note
        layer_self[layer] += dur - inner

    def per(name, unit_ns, base=None):
        count = calls.get(name, 0) if base is None else base
        return total.get(name, 0) / unit_ns / count if count else 0.0

    sec = 1e9
    m = {f"{layer}.self_s": layer_self[layer] / sec for layer in LAYERS}
    recon_s = total.get("nr_reconstruct", 0) / sec
    m.update({
        "networks.build_s": (total.get("Network.from_edge_list_file", 0)
                             + total.get("Network.from_undirected_pairs", 0)) / sec,
        "networks.chain_update.calls": calls.get("chain_update", 0),
        "networks.chain_update.us_per_call": per("chain_update", 1e3),
        "networks.chain_update.moved_ratio":
            notes.get("chain_update", 0) / calls["chain_update"]
            if calls.get("chain_update") else 0.0,
        "networks.mesoscale_patch.calls": calls.get("mesoscale_patch", 0),
        "networks.mesoscale_patch.us_per_call": per("mesoscale_patch", 1e3),
        "networks.initial_homomorphism.ms": total.get("initial_homomorphism", 0) / 1e6,
        "sources.ising_gibbs_run.ns_per_site":
            per("ising_gibbs_run", 1, notes.get("ising_gibbs_run", 0)),
        "sources.spin_patch_minibatch.us_per_call": per("spin_patch_minibatch", 1e3),
        "factorization.sparse_code.calls": calls.get("sparse_code", 0),
        "factorization.sparse_code.columns": notes.get("sparse_code", 0),
        "factorization.sparse_code.us_per_column":
            per("sparse_code", 1e3, notes.get("sparse_code", 0)),
        "factorization.sparse_code.kkt_median": op["report"]["kkt_median"],
        "factorization.dictionary_update.calls": calls.get("dictionary_update", 0),
        "factorization.dictionary_update.ms_per_call": per("dictionary_update", 1e6),
        "factorization.OnlineNMF.step.self_ms": own.get("OnlineNMF.step", 0) / 1e6,
        "ndl.ndl_learn.self_s": own.get("ndl_learn", 0) / sec,
        "ndl.nr_reconstruct.self_s": own.get("nr_reconstruct", 0) / sec,
        "ndl.nr_reconstruct.steps_per_s":
            workload.recon_steps / recon_s if recon_s else 0.0,
        "ndl.corrupt_network_s": total.get("corrupt_network", 0) / sec,
        "ndl.candidate_pairs_s": total.get("candidate_pairs", 0) / sec,
        "ndl.roc_auc_s": total.get("roc_auc", 0) / sec,
        "cli.output_bytes": op["output_bytes"],
        "trace.wall_s": op["wall_s"] * speed,
        "trace.coverage": sum(layer_self.values()) / sec / (op["wall_s"] * speed),
    })
    return m


def end_to_end(ops, setups, workload):
    """Per input set the median over its invocations, then the mean over the
    sets; times are scaled to the reference CPU speed."""
    def figure(value):
        per_set = {}
        for op in ops:
            per_set.setdefault(op["set"], []).append(value(op))
        return statistics.fmean(statistics.median(v) for v in per_set.values())

    return {
        "setup_s": statistics.median(setups),
        "wall_s": figure(lambda op: op["wall_s"] * op["speed"]),
        "learn_patches_per_s": figure(
            lambda op: workload.learn_columns / (op["learn_s"] * op["learn_speed"])),
        "peak_rss_mb": figure(lambda op: op["report"]["peak_rss_kb"] / 1024),
        "score": figure(lambda op: op["figures"]["score"]),
    }


def per_layer(ops, workload):
    traced = [op for op in ops if "spans" in op]
    plain = [op for op in ops if "spans" not in op]
    rows = [layer_metrics(op, workload) for op in traced]
    m = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(
        op["wall_s"] * op["speed"] for op in plain)
    return m


def measure(box, workload, seed, seconds, trace):
    """Set-up probes, then whole rounds of operations for `seconds`.

    A round runs the CLI once on each of the workload's input sets (seeds
    seed * n + i); a traced round runs it untraced and traced on the first.
    """
    contexts = []
    for i in range(workload.input_sets):
        folder = box.work / f"input{i}"
        folder.mkdir()
        contexts.append(workload.prepare(folder, seed * workload.input_sets + i))
    setups = []
    for _ in range(0 if trace else SETUP_REPEATS):
        _, speed, report = box.probe(["setup", *workload.setup_target(contexts[0])])
        setups.append(report["setup_s"] * speed)
    plan = ([(0, "plain"), (0, "trace")] if trace
            else [(i, "plain") for i in range(len(contexts))])
    ops, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for i, mode in plan:
            attempted += 1
            try:
                ops.append(dict(invoke(box, workload, contexts[i], mode), set=i))
            except (RuntimeError, CheckError, subprocess.TimeoutExpired,
                    OSError, ValueError, KeyError, IndexError) as exc:
                failed += 1
                print(f"operation {attempted} ({mode}) failed: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return ops, setups, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # Unwind on SIGTERM too, so the sampler and the scratch folder go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        box = Checkout(Path.cwd(), args.workload)
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of an onmf checkout",
              file=sys.stderr)
        return 2
    try:
        ops, setups, attempted, failed = measure(box, workload, args.seed,
                                                 args.seconds, args.trace)
    finally:
        box.close()
    kinds = {(op["set"], "spans" in op) for op in ops}
    if len(kinds) < (2 if args.trace else workload.input_sets):
        print("error: no operation of some kind succeeded", file=sys.stderr)
        return 1
    # Every invocation on one input set must write the same bytes.
    correct = all(len({op["digest"] for op in ops if op["set"] == i}) == 1
                  for i, _ in kinds)
    if args.trace:
        values, units = per_layer(ops, workload), PER_LAYER
    else:
        values, units = end_to_end(ops, setups, workload), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
