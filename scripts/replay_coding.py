#!/usr/bin/env python3
"""Replay one workload's coding and refit calls on two checkouts' solvers.

    python3 scripts/replay_coding.py PARENT CHANGE --workload NAME --seed S

Builds the inputs of the benchmark workload NAME for seed S with CHANGE's
`perfbench/workloads.py` (the first input set, as `perfbench/run.py` numbers
them) and runs PARENT's `onmf` command line on them once, in a child process
that calls this script again with `--record`.  The child wraps
`sparse_code` and `dictionary_update` wherever the package refers to them
and records each coding call's (X, W, lam, kappa2, tol, max_iter) and each
refit call's (W, its constraint pieces and active piece, A, B, kappa1, tol,
max_iter).

Then it runs both checkouts' public coding function
`factorization.sparse_code` (reading its iterations and converged flag from
the counts it records for `OnlineNMF.step`) and dictionary refit
`factorization._refit` on every recorded call: once to compare, then five
times per group of calls with the same shapes and arguments, alternating
the sides, to time them.  Prints per group the calls, then for each side
the columns (coding) or converged calls (refit) and the iterations (the
exact refit's rounds), the best of the five totals in ms, and the time per
iteration in us.  Under each refit group it prints how many of its calls
each side's `_refit` sent to `_descent_refit`, the accelerated projected
gradient fallback, rather than solving them by block principal pivoting.
For each coding group whose codes are not byte-equal, it
also prints in how many calls they differ, in how many of those the
iteration count or converged flag differs, and the largest code difference.
For each refit group whose W differ, it prints in how many of those calls
CHANGE's surrogate `tr(W (A + kappa1 I) W^T) - 2 tr(W B)` lies above
PARENT's, and the largest relative difference each way.  Exits 1 unless
every code and every refit W is equal byte for byte and every iteration
count, converged flag and chosen piece matches.

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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED)   # before numpy is imported, here and in the child

import numpy as np  # noqa: E402

REPEATS = 5
SIDES = ("parent", "change")
CODE_ARGS = ("lam", "kappa2", "tol", "max_iter")


def code_call(values) -> dict:
    return {"X": np.array(values["X"], dtype=float),
            "W": np.array(values["W"], dtype=float),
            "args": np.array([float(values[name]) for name in CODE_ARGS])}


def refit_call(values) -> dict:
    prev, stats = values["W_prev"], values["stats"]
    return {"W": np.array(prev.W, dtype=float),
            "pieces": np.array([(p.radius, p.lower)
                                for p in prev.constraint.pieces]),
            "A": np.array(stats.A, dtype=float),
            "B": np.array(stats.B, dtype=float),
            "args": np.array([stats.kappa1, values["tol"], values["max_iter"],
                              prev.active_piece], dtype=float)}


RECORDED = {"sparse_code": code_call, "dictionary_update": refit_call}
FIELDS = {"sparse_code": ("X", "W", "args"),
          "dictionary_update": ("W", "pieces", "A", "B", "args")}


def record(calls_path: str, argv: list[str]) -> int:
    """Run `onmf` with every coding and refit call recorded to `calls_path`."""
    import onmf.cli
    modules = [m for name, m in sys.modules.items()
               if name.startswith("onmf.") and m is not None]
    factorization = sys.modules["onmf.factorization"]
    calls = {name: [] for name in RECORDED}

    def wrap(name):
        original = getattr(factorization, name)
        signature = inspect.signature(original)

        def recorded(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls[name].append(RECORDED[name](bound.arguments))
            return original(*args, **kwargs)
        return original, recorded

    for original, recorded in map(wrap, RECORDED):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, recorded)
    rc = onmf.cli.main(argv)
    arrays = {}
    for name, found in calls.items():
        arrays[f"{name}_count"] = len(found)
        for i, call in enumerate(found):
            for key, value in call.items():
                arrays[f"{name}{i}_{key}"] = value
    np.savez(calls_path, **arrays)
    return rc


def load_calls(path: Path) -> dict[str, list[dict]]:
    with np.load(path) as data:
        return {name: [{key: data[f"{name}{i}_{key}"] for key in fields}
                       for i in range(int(data[f"{name}_count"]))]
                for name, fields in FIELDS.items()}


def load_factorization(root: Path, name: str):
    """The checkout's `onmf/factorization.py`, imported as module `name`."""
    spec = importlib.util.spec_from_file_location(
        name, root / "src" / "onmf" / "factorization.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def code_problem(module, call):
    return (call["X"], call["W"], *call["args"])


def solve(module, problem):
    """`sparse_code` on the call, with the iterations and converged flag it
    records for `OnlineNMF.step`."""
    X, W, lam, kappa2, tol, max_iter = problem
    counts = {}
    token = module._SOLVER_COUNTS.set(counts)
    try:
        H = module.sparse_code(X, W, lam=lam, kappa2=kappa2, tol=tol,
                               max_iter=int(max_iter))
    finally:
        module._SOLVER_COUNTS.reset(token)
    return H, *counts["code"][:2]


def refit_problem(module, call):
    """`_refit`'s arguments built from the checkout's own classes."""
    kappa1, tol, max_iter, active = call["args"]
    spec = module.ConstraintSpec(tuple(
        module.ConstraintPiece(radius=float(radius), lower=float(lower))
        for radius, lower in call["pieces"]))
    prev = module.Dictionary(call["W"].copy(), spec, int(active))
    stats = module.AggregateStats(A=call["A"], B=call["B"],
                                  kappa1=float(kappa1))
    return prev, stats, float(tol), int(max_iter)


def refit(module, problem):
    return module._refit(*problem)


def fallbacks(module, problem) -> int:
    """How many times `_refit` on `problem` calls `_descent_refit`."""
    calls = []
    descent = module._descent_refit

    def counted(*args):
        calls.append(args)
        return descent(*args)
    module._descent_refit = counted
    try:
        module._refit(*problem)
    finally:
        module._descent_refit = descent
    return len(calls)


def same_code(a, b) -> bool:
    return a[0].tobytes() == b[0].tobytes() and a[1:] == b[1:]


def code_difference(a, b) -> float:
    return float(np.abs(a[0] - b[0]).max(initial=0.0))


def refit_surrogate(call, out) -> float:
    kappa1 = call["args"][0]
    W, A, B = out[0].W, call["A"], call["B"]
    return float(np.sum((W @ A) * W) + kappa1 * np.sum(W * W)
                 - 2.0 * np.sum(W * B.T))


def same_refit(a, b) -> bool:
    return (a[0].W.tobytes() == b[0].W.tobytes()
            and a[0].active_piece == b[0].active_piece and a[1:] == b[1:])


def code_label(call) -> str:
    d, r = call["W"].shape
    lam, kappa2, tol, max_iter = call["args"]
    return f"{d} x {r}, {lam:g}, {kappa2:g}, {tol:g}, {int(max_iter)}"


def refit_label(call) -> str:
    d, r = call["W"].shape
    kappa1, tol, max_iter, _ = call["args"]
    pieces = " ".join(f"({radius:g}, {lower:g})"
                      for radius, lower in call["pieces"])
    return f"{d} x {r}, {pieces}, {kappa1:g}, {tol:g}, {int(max_iter)}"


@dataclass(frozen=True)
class Solver:
    build: Callable      # (module, call) -> the solver's arguments
    run: Callable        # (module, arguments) -> (output, iterations, flag)
    same: Callable       # (one side's result, the other's) -> bool
    label: Callable      # call -> the label of its group of alike calls
    header: str          # what the label shows
    counted: str         # what a group counts besides calls and iterations
    count: Callable      # (call, result) -> its share of that count
    objective: Callable | None = None    # (call, result) -> the value to
                                         # compare where the outputs differ
    difference: Callable | None = None   # (one side's result, the other's)
                                         # -> the largest output difference
    fallbacks: Callable | None = None    # (module, arguments) -> the calls to
                                         # the fallback solver


SOLVERS = {
    "sparse_code": Solver(code_problem, solve, same_code, code_label,
                          "d x r, lam, kappa2, tol, max_iter", "columns",
                          lambda call, out: call["X"].shape[1],
                          difference=code_difference),
    "dictionary_update": Solver(
        refit_problem, refit, same_refit, refit_label,
        "d x r, (radius, lower), kappa1, tol, max_iter", "conv",
        lambda call, out: int(out[2]), refit_surrogate, fallbacks=fallbacks),
}


def best_of(modules, problems, run) -> dict[str, float]:
    """Best of REPEATS totals per side over `problems`, alternating sides."""
    best = dict.fromkeys(SIDES, np.inf)
    for rep in range(REPEATS):
        for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
            t0 = time.perf_counter()
            for problem in problems[side]:
                run(modules[side], problem)
            best[side] = min(best[side], time.perf_counter() - t0)
    return best


def replay(name, calls, modules) -> int:
    """Compare and time both sides on `calls`; the number that differ."""
    solver = SOLVERS[name]
    groups, mismatched = {}, 0
    for call in calls:
        problems = {side: solver.build(modules[side], call) for side in SIDES}
        out = {side: solver.run(modules[side], problems[side])
               for side in SIDES}
        group = groups.setdefault(solver.label(call), {
            "problems": {side: [] for side in SIDES},
            "count": dict.fromkeys(SIDES, 0), "iters": dict.fromkeys(SIDES, 0),
            "fallbacks": dict.fromkeys(SIDES, 0), "excess": [],
            "differences": [], "counts_differ": 0})
        if not solver.same(out["parent"], out["change"]):
            mismatched += 1
            if solver.difference:
                group["differences"].append(
                    solver.difference(out["parent"], out["change"]))
                group["counts_differ"] += out["parent"][1:] != out["change"][1:]
            if solver.objective:
                parent, change = (solver.objective(call, out[side])
                                  for side in SIDES)
                group["excess"].append((change - parent)
                                       / max(abs(parent), 1e-300))
        for side in SIDES:
            group["problems"][side].append(problems[side])
            group["count"][side] += solver.count(call, out[side])
            group["iters"][side] += out[side][1]
            if solver.fallbacks:
                group["fallbacks"][side] += solver.fallbacks(modules[side],
                                                             problems[side])

    print(f"\n{name}: {len(calls)} calls (parent/change where two counts)")
    print(f"{solver.header:48} {'calls':>5} {solver.counted:>11} {'iters':>13} "
          f"{'parent ms':>9} {'change ms':>9} {'ratio':>6} "
          f"{'parent us/it':>12} {'change us/it':>12}")
    for label, group in groups.items():
        best = best_of(modules, group["problems"], solver.run)
        count, iters = group["count"], group["iters"]
        print(f"{label:48} {len(group['problems']['parent']):>5} "
              f"{count['parent']:>5}/{count['change']:<5} "
              f"{iters['parent']:>6}/{iters['change']:<6} "
              f"{best['parent'] * 1e3:>9.2f} {best['change'] * 1e3:>9.2f} "
              f"{best['change'] / best['parent']:>6.3f} "
              f"{best['parent'] * 1e6 / max(iters['parent'], 1):>12.2f} "
              f"{best['change'] * 1e6 / max(iters['change'], 1):>12.2f}")
        if solver.fallbacks:
            print("    sent to _descent_refit: parent "
                  f"{group['fallbacks']['parent']}, change "
                  f"{group['fallbacks']['change']}")
        if group["differences"]:
            print(f"    codes not byte-equal in {len(group['differences'])} "
                  f"calls, {group['counts_differ']} of them in iteration "
                  "count or converged flag; largest code difference "
                  f"{max(group['differences']):.2e}")
        excess = np.array(group["excess"])
        if excess.size:
            print(f"    W differ in {excess.size} calls: change's surrogate "
                  f"above parent's in {int(np.sum(excess > 0))}; largest "
                  f"relative difference {max(excess.max(), 0.0):.2e} above, "
                  f"{max(-excess.min(), 0.0):.2e} below")
    return mismatched


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

    modules = {side: load_factorization(root, f"{side}_factorization")
               for side, root in zip(SIDES, (parent, change))}
    print(f"{args.workload} seed {args.seed}: calls recorded from {parent}")
    failed = False
    for name, found in calls.items():
        mismatched = replay(name, found, modules)
        if mismatched:
            print(f"{mismatched} of {len(found)} {name} calls differ in "
                  "output, iteration count or converged flag")
            failed = True
    if failed:
        return 1
    print("\nall codes and refits, iteration counts and converged flags are "
          "identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
