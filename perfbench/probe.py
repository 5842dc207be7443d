"""Run one `onmf` set-up or CLI invocation in this process and report on it.

    python3 probe.py setup REPORT (EDGES | ising LATTICE TEMPERATURE)
    python3 probe.py run REPORT (plain | trace) SPANS -- ONMF-ARGS...

`run.py` starts this file as a child process, one per operation, with
PYTHONPATH pointing at the checkout's `src/`.  The report is a JSON object.

`setup` times importing `onmf` and loading the workload's input.

`run plain` calls `onmf.cli.main` with two hooks on calls that happen once
per invocation: the return of `init_dictionary` and the call of
`save_dictionary` bracket the learning loop.

`run trace` wraps the public functions of every layer (see `TRACED`), keeps
one span per call in memory and writes them to SPANS when the CLI returns:
one line per span, `name layer start_ns end_ns parent note`.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

START = time.perf_counter()

# (module, attribute, layer) of every function the traced run wraps.  A
# dotted attribute is a method or classmethod on a class of that module.
TRACED = [
    ("networks", "Network.from_edge_list_file", "networks"),
    ("networks", "Network.from_undirected_pairs", "networks"),
    ("networks", "initial_homomorphism", "networks"),
    ("networks", "chain_update", "networks"),
    ("networks", "mesoscale_patch", "networks"),
    ("sources", "ising_gibbs_run", "sources"),
    ("sources", "spin_patch_minibatch", "sources"),
    ("factorization", "init_dictionary", "factorization"),
    ("factorization", "sparse_code", "factorization"),
    ("factorization", "dictionary_update", "factorization"),
    ("factorization", "OnlineNMF.step", "factorization"),
    ("factorization", "save_dictionary", "factorization"),
    ("factorization", "save_aggregates", "factorization"),
    ("ndl", "ndl_learn", "ndl"),
    ("ndl", "nr_reconstruct", "ndl"),
    ("ndl", "corrupt_network", "ndl"),
    ("ndl", "candidate_pairs", "ndl"),
    ("ndl", "roc_auc", "ndl"),
    ("ndl", "dominance_scores", "ndl"),
    ("ndl", "ReconstructionState.pair_score", "ndl"),
    ("cli", "main", "cli"),
]


def _modules():
    import onmf
    import onmf.cli
    return {name: sys.modules[f"onmf.{name}"]
            for name in ("networks", "sources", "factorization", "ndl", "cli")}


def _patch(modules, module, attr, make_wrapper):
    """Replace a function everywhere the package refers to it by name.

    `from .x import f` copies the reference into the importing module, so
    every module attribute bound to the original object is rebound too.
    """
    owner = modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, meth, make_wrapper(raw))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for mod in modules.values():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Span recorder: one [name, layer, start, end, parent, note] per call."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.codes = []      # (X, W, H, lam, kappa2) per sparse_code call

    def wrapper(self, name, layer, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    spans[idx] = [name, layer, start, clock(), parent, 0]
                    stack.pop()
                if note is not None:
                    spans[idx][5] = note(args, kwargs, out)
                return out
            return traced
        return make

    def install(self, modules):
        notes = {
            # 1 when the chain moved, 0 when it returned the same state
            "chain_update": lambda a, k, out: int(out != _arg(a, k, 2, "x", None)),
            # site updates
            "ising_gibbs_run": lambda a, k, out: _arg(a, k, 1, "steps", 0),
            "sparse_code": self._note_code,
        }
        for module, attr, layer in TRACED:
            _patch(modules, module, attr,
                   self.wrapper(attr, layer, notes.get(attr)))

    def _note_code(self, args, kwargs, H):
        X = args[0] if args else kwargs["X"]
        W = args[1] if len(args) > 1 else kwargs["W"]
        self.codes.append((X, W, H, _arg(args, kwargs, 2, "lam", 1.0),
                           _arg(args, kwargs, 3, "kappa2", 0.0)))
        return H.shape[1]

    def kkt_median(self):
        """Median over coded columns of ||min(h, grad)||, 0 at an optimum.

        The gradient of ||x - W h||^2 + lam |h|_1 + (kappa2/2) |h|^2 on the
        nonnegative orthant; computed here, apart from the package.
        """
        import numpy as np
        if not self.codes:
            return 0.0
        res = []
        for X, W, H, lam, kappa2 in self.codes:
            X, W, H = (np.asarray(m, dtype=float) for m in (X, W, H))
            grad = 2.0 * (W.T @ (W @ H - X)) + lam + kappa2 * H
            res.append(np.linalg.norm(np.minimum(H, grad), axis=0))
        return float(np.median(np.concatenate(res)))

    def dump(self, path):
        with open(path, "w") as fh:
            for name, layer, start, end, parent, note in self.spans:
                fh.write(f"{name} {layer} {start} {end} {parent} {note}\n")


def _plain_hooks(modules, marks):
    clock = time.perf_counter

    def after(key):
        def make(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                out = fn(*args, **kwargs)
                marks.setdefault(key, clock())
                return out
            return hooked
        return make

    def before_save(fn):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            marks.setdefault("learn_end", clock())
            return fn(*args, **kwargs)
        return hooked

    _patch(modules, "factorization", "init_dictionary", after("learn_start"))
    _patch(modules, "factorization", "save_dictionary", before_save)


def peak_rss_kb():
    """Peak resident set of this process since its exec.

    VmHWM, because ru_maxrss also counts the forking parent's pages.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _check_origin(onmf_file):
    """Refuse to measure an `onmf` other than the checkout's own."""
    want = os.path.realpath(os.environ.get("PERFBENCH_SRC", ""))
    if not want or not os.path.realpath(onmf_file).startswith(want + os.sep):
        raise SystemExit(f"imported onmf from {onmf_file}, not from {want!r}")


def setup(report, target):
    import onmf
    _check_origin(onmf.__file__)
    if target[0] == "ising":
        import numpy as np
        onmf.IsingConfig.random(int(target[1]), float(target[2]),
                                np.random.default_rng(0))
    else:
        onmf.Network.from_edge_list_file(target[0], undirected=True)
    elapsed = time.perf_counter() - START
    with open(report, "w") as fh:
        json.dump({"setup_s": elapsed}, fh)


def run(report, mode, spans_path, argv):
    modules = _modules()
    _check_origin(modules["cli"].__file__)
    marks = {}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(modules)
    else:
        _plain_hooks(modules, marks)
    rc = modules["cli"].main(argv)
    out = {"rc": rc, "peak_rss_kb": peak_rss_kb()}
    if "learn_start" in marks and "learn_end" in marks:
        out["learn_window"] = [marks["learn_start"], marks["learn_end"]]
    if tracer is not None:
        tracer.dump(spans_path)
        out["kkt_median"] = tracer.kkt_median()
    with open(report, "w") as fh:
        json.dump(out, fh)
    return rc


def main(argv):
    if len(argv) >= 3 and argv[0] == "setup":
        setup(argv[1], argv[2:])
        return 0
    if len(argv) >= 5 and argv[0] == "run" and argv[4] == "--":
        return run(argv[1], argv[2], argv[3], argv[5:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
