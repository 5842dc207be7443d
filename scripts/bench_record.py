#!/usr/bin/env python3
"""Record the benchmark of one checkout in BENCH_<LABEL>.json.

    python3 scripts/bench_record.py LABEL [--root DIR]

Runs the checkout's own `perfbench/run.py` on every workload `BENCHMARK.json`
lists, at seed 1 for the run length that file sets, once with `--trace 0`
(the end-to-end metrics) and once with `--trace 1` (the per-layer metrics),
from the root of the checkout (`--root`, default the one holding this
script).  Writes `BENCH_<LABEL>.json` at that root: the git SHA of its HEAD
and whether `src/`, `perfbench/` or `BENCHMARK.json` differed from it, the
python and numpy versions, and per workload the two runs' `correct`,
`attempted`, `failed` and metric values.  A run that fails is recorded with
its exit code and the end of its standard error.

Run one checkout at a time: `perfbench/run.py` pins itself to one CPU and
normalises its times by that CPU's speed, so two records made at once slow
each other down.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEED = 1


def git(root: Path, *args: str) -> str:
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"]
                         for name, m in result["metrics"].items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--root", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "label": args.label,
        "git_sha": git(root, "rev-parse", "HEAD"),
        "dirty": bool(git(root, "status", "--porcelain", "--", "src",
                          "perfbench", "BENCHMARK.json")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            print(f"{workload} --trace {trace}", file=sys.stderr, flush=True)
            runs[f"trace{trace}"] = run_workload(root, workload, SEED,
                                                 seconds, trace)
        record["workloads"][workload] = runs
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(out)
    ok = all("metrics" in run for runs in record["workloads"].values()
             for run in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
