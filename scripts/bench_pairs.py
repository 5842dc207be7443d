#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload over alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload NAME --seeds 11 12 ...

For each seed, runs `perfbench/run.py --trace 0` of the PARENT checkout and
of the CHANGE checkout, one after the other, for the run length that
CHANGE's `BENCHMARK.json` sets; the side that runs first alternates from
seed to seed.  For every end-to-end metric it prints the median and the
first and third quartiles of each side, the pairs that CHANGE won (better
in the metric's direction, a tie wins nothing) and whether a claimed gain
would hold: CHANGE wins at least 9 in 10 of the pairs, and the medians
differ, in the better direction, by more than PARENT's interquartile range.
A pair in which either run fails is reported and left out.

Run nothing else on the machine meanwhile: `perfbench/run.py` pins itself
to one CPU and scales its times by that CPU's speed.  Exits 1 when no pair
completed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from bench_record import run_workload

WIN_SHARE = 0.9


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of both sides, pairs won by `change`, and the claim rule."""
    sign = 1.0 if better == "higher" else -1.0
    p = np.percentile(parent, [25, 50, 75])
    c = np.percentile(change, [25, 50, 75])
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c[1] - p[1])
    return {"parent": p.tolist(), "change": c.tolist(), "won": int(won),
            "pairs": len(parent), "gap": float(gap), "parent_iqr": p[2] - p[0],
            "claim": won >= WIN_SHARE * len(parent) and gap > p[2] - p[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {name: {"parent": [], "change": []} for name in metrics}
    for i, seed in enumerate(args.seeds):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        runs = {}
        for side in sides:
            runs[side] = run_workload(roots[side], args.workload, seed,
                                      spec["run_seconds"], 0)
        failed = [side for side, run in runs.items() if "metrics" not in run
                  or run["failed"] or not run["correct"]]
        line = f"seed {seed} ({sides[0]} first)"
        if failed:
            print(f"{line}: {' and '.join(failed)} failed, pair left out",
                  flush=True)
            continue
        for name in metrics:
            for side in sides:
                values[name][side].append(runs[side]["metrics"][name])
        print(f"{line}: " + ", ".join(
            f"{name} {runs['parent']['metrics'][name]:.4g} -> "
            f"{runs['change']['metrics'][name]:.4g}" for name in metrics),
            flush=True)

    if not values[next(iter(metrics))]["parent"]:
        print("no pair completed")
        return 1
    print(f"\n{args.workload}: median [q1, q3] per side; a positive gap "
          "is a gain of CHANGE")
    print(f"{'metric':20} {'parent':>32} {'change':>32} {'won':>7} "
          f"{'gap':>10} {'parent IQR':>10}  claim")
    for name, m in metrics.items():
        s = summarize(values[name]["parent"], values[name]["change"],
                      m["better"])
        sides = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                 for q in (s["parent"], s["change"])]
        print(f"{name:20} {sides[0]:>32} {sides[1]:>32} "
              f"{s['won']:>3}/{s['pairs']:<3} {s['gap']:>10.4g} "
              f"{s['parent_iqr']:>10.4g}  {'holds' if s['claim'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
