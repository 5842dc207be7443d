#!/usr/bin/env python3
"""Replay one workload's sparse-coding calls on two checkouts' solvers.

    python3 scripts/replay_coding.py PARENT CHANGE --workload NAME --seed S

Builds the inputs of the benchmark workload NAME for seed S with CHANGE's
`perfbench/workloads.py` (the first input set, as `perfbench/run.py` numbers
them) and runs PARENT's `onmf` command line on them once, in a child process
that calls this script again with `--record`.  The child wraps
`sparse_code` wherever the package refers to it and records each call's
(X, W, lam, kappa2, tol, max_iter).

Then it runs the projected-gradient solver `factorization._pg_solve` of both
checkouts on every recorded call: once to compare, then five times per group
of calls with the same shapes and arguments, alternating the sides, to time
them.  Prints per group the calls, columns and iterations, the best of the
five totals in ms for each side, and the time per iteration in us.  Exits 1
unless every code is equal entry for entry and every iteration count and
converged flag matches.

Both sides run in this one process, pinned to one CPU and one BLAS thread,
so run nothing else on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)   # before numpy is imported, here and in the child

import numpy as np  # noqa: E402

REPEATS = 5
ARGS = ("lam", "kappa2", "tol", "max_iter")


def record(calls_path: str, argv: list[str]) -> int:
    """Run `onmf` with every `sparse_code` call recorded to `calls_path`."""
    import onmf.cli
    modules = [m for name, m in sys.modules.items()
               if name.startswith("onmf.") and m is not None]
    original = sys.modules["onmf.factorization"].sparse_code
    signature = inspect.signature(original)
    calls = []

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = bound.arguments
        calls.append((np.array(values["X"], dtype=float),
                      np.array(values["W"], dtype=float),
                      [float(values[name]) for name in ARGS]))
        return original(*args, **kwargs)

    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, recorded)
    rc = onmf.cli.main(argv)
    arrays = {}
    for i, (X, W, args) in enumerate(calls):
        arrays[f"X{i}"], arrays[f"W{i}"], arrays[f"a{i}"] = X, W, np.array(args)
    np.savez(calls_path, count=len(calls), **arrays)
    return rc


def load_calls(path: Path) -> list[tuple]:
    with np.load(path) as data:
        return [(data[f"X{i}"], data[f"W{i}"], *data[f"a{i}"])
                for i in range(int(data["count"]))]


def load_factorization(root: Path, name: str):
    """The checkout's `onmf/factorization.py`, imported as module `name`."""
    spec = importlib.util.spec_from_file_location(
        name, root / "src" / "onmf" / "factorization.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solve(module, problem):
    gram, wx, lam, kappa2, tol, max_iter = problem
    return module._pg_solve(gram, wx, lam, kappa2, tol, int(max_iter))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--record"]:
        return record(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    sys.path.insert(0, str(change / "perfbench"))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        ctx = workload.prepare(folder, args.seed * workload.input_sets)
        calls_path = folder / "calls.npz"
        env = dict(os.environ, PYTHONPATH=str(parent / "src"))
        done = subprocess.run([sys.executable, __file__, "--record",
                               str(calls_path), "--",
                               *workload.argv(ctx, folder / "out")], env=env)
        if done.returncode != 0:
            print(f"PARENT's onmf exited with {done.returncode}")
            return 1
        calls = load_calls(calls_path)

    sides = {"parent": load_factorization(parent, "parent_factorization"),
             "change": load_factorization(change, "change_factorization")}
    groups, mismatched = {}, 0
    for X, W, *rest in calls:
        problem = (W.T @ W, W.T @ X, *rest)
        H0, it0, conv0 = solve(sides["parent"], problem)
        H1, it1, conv1 = solve(sides["change"], problem)
        if not (np.array_equal(H0, H1) and (it0, conv0) == (it1, conv1)):
            mismatched += 1
        key = (W.shape[0], W.shape[1], *rest)
        group = groups.setdefault(key, {"problems": [], "columns": 0,
                                        "iters": 0})
        group["problems"].append(problem)
        group["columns"] += X.shape[1]
        group["iters"] += it0

    print(f"{args.workload} seed {args.seed}: {len(calls)} sparse_code calls "
          f"recorded from {parent}")
    print(f"{'d x r, lam, kappa2, tol, max_iter':42} {'calls':>5} "
          f"{'columns':>7} {'iters':>6} {'parent ms':>9} {'change ms':>9} "
          f"{'ratio':>6} {'parent us/it':>12} {'change us/it':>12}")
    for key, group in groups.items():
        best = {"parent": np.inf, "change": np.inf}
        for rep in range(REPEATS):
            for side in (["parent", "change"] if rep % 2 == 0
                         else ["change", "parent"]):
                t0 = time.perf_counter()
                for problem in group["problems"]:
                    solve(sides[side], problem)
                best[side] = min(best[side], time.perf_counter() - t0)
        d, r, lam, kappa2, tol, max_iter = key
        label = f"{d} x {r}, {lam:g}, {kappa2:g}, {tol:g}, {int(max_iter)}"
        print(f"{label:42} {len(group['problems']):>5} {group['columns']:>7} "
              f"{group['iters']:>6} {best['parent'] * 1e3:>9.2f} "
              f"{best['change'] * 1e3:>9.2f} "
              f"{best['change'] / best['parent']:>6.3f} "
              f"{best['parent'] * 1e6 / group['iters']:>12.2f} "
              f"{best['change'] * 1e6 / group['iters']:>12.2f}")
    if mismatched:
        print(f"{mismatched} of {len(calls)} calls differ in code, iteration "
              "count or converged flag")
        return 1
    print(f"all {len(calls)} codes, iteration counts and converged flags "
          "are identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
