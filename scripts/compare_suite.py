#!/usr/bin/env python3
"""Run the byte-identity suite of `onmf` commands in two checkouts and compare
their outputs.

    python3 scripts/compare_suite.py PARENT CHANGE [--rtol 0] [--work DIR]

A change meant to keep every output byte-identical runs this suite against
its parent.  It writes four inputs into the work folder: `sw200-1.txt`,
`sw200-2.txt` and `sw5k.txt` are `small_world(200, 8, 0.1, S, path)` for S =
1 and 2 and `small_world(5000, 10, 0.1, 1, path)`, from CHANGE's
`perfbench/workloads.py`, and `d40.txt` is a directed weighted 40-node edge
list, the lines `a b w` for a != b kept with probability 0.1 and w uniform
in [0.5, 3] rounded to 3 digits, drawn from `numpy.random.default_rng(40)`.
Then it runs these 19 commands, each with `--seed 1` unless it names its
seed, once with each checkout's `src` on `PYTHONPATH` (one BLAS thread):
  - `onmf denoise --edges sw200-S.txt --undirected --seed S --motif-k 6
    --mcmc pivot --mode subtractive --fraction 0.5 --atoms 16 --iters 60
    --batch 80 --recon-iters 3000` for S = 1 and 2 (the `denoise-sw200`
    flags);
  - `onmf ndl-learn --edges sw5k.txt --undirected --motif-k 10 --mcmc
    glauber --atoms 16 --batch 500 --iters 30 --dict-radius 1000.0` (the
    `ndl-glauber-5k` flags);
  - for each M of `glauber`, `pivot` and `pivot-approx`:
    - `onmf ndl-learn --edges d40.txt --motif-k 4 --mcmc M --atoms 8
      --iters 20 --batch 40`;
    - `onmf hom-diag --edges d40.txt --motif-k 3 --mcmc M --iters 20000`;
    - `onmf hom-diag --edges d40.txt --motif-k 1 --mcmc M --iters 5000`;
    - `onmf ndl-learn --edges sw200-1.txt --undirected --motif-k 5 --mcmc M
      --atoms 8 --iters 20 --batch 40`;
    - `onmf ndl-learn --edges sw200-1.txt --undirected --motif-k 1 --mcmc
      M`, which exits 3 ("degenerate aggregates");
  - `onmf denoise --edges sw200-1.txt --undirected --mode additive
    --fraction 0.3 --mcmc glauber --motif-k 6 --atoms 16 --iters 30
    --batch 80 --recon-iters 3000`.

Each pair of output folders is compared by `compare_outputs.py` at
`--rtol` (0 by default: any byte difference), and each pair of exit codes
and stderr texts must be equal.  Prints one line per command, the output
differences on it, and exits 1 on any difference.  Without `--work` the
work folder is a new temporary folder, removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import compare_outputs

SIDES = ("parent", "change")
DENOISE_SW200 = ("--motif-k 6 --mcmc pivot --mode subtractive --fraction 0.5 "
                 "--atoms 16 --iters 60 --batch 80 --recon-iters 3000")
COMMANDS = [
    ("denoise-sw200-1", "denoise --edges sw200-1.txt --undirected --seed 1 "
     + DENOISE_SW200),
    ("denoise-sw200-2", "denoise --edges sw200-2.txt --undirected --seed 2 "
     + DENOISE_SW200),
    ("ndl-glauber-5k", "ndl-learn --edges sw5k.txt --undirected --motif-k 10 "
     "--mcmc glauber --atoms 16 --batch 500 --iters 30 --dict-radius 1000.0"),
    *((name.format(m=m), command.format(m=m))
      for m in ("glauber", "pivot", "pivot-approx")
      for name, command in [
          ("ndl-d40-{m}", "ndl-learn --edges d40.txt --motif-k 4 --mcmc {m} "
           "--atoms 8 --iters 20 --batch 40"),
          ("hom-diag-d40-k3-{m}", "hom-diag --edges d40.txt --motif-k 3 "
           "--mcmc {m} --iters 20000"),
          ("hom-diag-d40-k1-{m}", "hom-diag --edges d40.txt --motif-k 1 "
           "--mcmc {m} --iters 5000"),
          ("ndl-sw200-k5-{m}", "ndl-learn --edges sw200-1.txt --undirected "
           "--motif-k 5 --mcmc {m} --atoms 8 --iters 20 --batch 40"),
          ("ndl-sw200-k1-{m}", "ndl-learn --edges sw200-1.txt --undirected "
           "--motif-k 1 --mcmc {m}"),
      ]),
    ("denoise-additive", "denoise --edges sw200-1.txt --undirected --mode "
     "additive --fraction 0.3 --mcmc glauber --motif-k 6 --atoms 16 "
     "--iters 30 --batch 80 --recon-iters 3000"),
]


def write_inputs(work: Path, change: Path) -> None:
    sys.path.insert(0, str(change / "perfbench"))
    from workloads import small_world
    for seed in (1, 2):
        small_world(200, 8, 0.1, seed, work / f"sw200-{seed}.txt")
    small_world(5000, 10, 0.1, 1, work / "sw5k.txt")
    r = np.random.default_rng(40)
    (work / "d40.txt").write_text("".join(
        f"{a} {b} {round(r.uniform(0.5, 3), 3)}\n"
        for a in range(40) for b in range(40) if a != b and r.random() < 0.1))


def run(root: Path, cwd: Path, name: str, command: str):
    """Run `onmf COMMAND --out-dir NAME` from `cwd`, where the inputs are
    one folder up; returns (exit code, stderr)."""
    argv = command.split()
    if "--seed" not in argv:
        argv += ["--seed", "1"]
    argv = [f"../{a}" if a.endswith(".txt") else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "onmf.cli", *argv,
                           "--out-dir", name], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stderr


def compare(roots, work: Path, rtol: float) -> bool:
    """Run and compare every command; True when all of them agree."""
    same = True
    for name, command in COMMANDS:
        results = [run(root, work / side, name, command)
                   for side, root in zip(SIDES, roots)]
        notes = []
        if results[0][0] != results[1][0]:
            notes.append("exit codes {} -> {}".format(*(r[0] for r in results)))
        if results[0][1] != results[1][1]:
            notes.append("stderr differs")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if compare_outputs.main([str(work / side / name) for side in SIDES]
                                    + ["--rtol", str(rtol)]):
                notes += out.getvalue().splitlines()
        same &= not notes
        print(f"{name}: exit {results[1][0]}, "
              + ("; ".join(notes) if notes else "same"))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0)
    parser.add_argument("--work", type=Path, default=None)
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_suite_"))
    try:
        for side in SIDES:
            (work / side).mkdir(parents=True, exist_ok=True)
        write_inputs(work, roots[1])
        same = compare(roots, work, args.rtol)
    finally:
        if args.work is None:
            shutil.rmtree(work)
    print("every command agrees" if same else "some commands differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
