#!/usr/bin/env python3
"""End-to-end network denoising on synthetic small-world graphs.

For each seed: corrupt a Watts-Strogatz graph (50% subtractive or additive
noise), learn a 6-chain dictionary on the corrupted graph, reconstruct it,
and report the ROC AUC for recovering the corrupted pairs (high weight flags
a removed edge, low weight an injected one), the wall time of each phase and
the peak resident memory so far (VmHWM).

Usage: python3 scripts/denoise_smallworld.py [--nodes 200] [--ring 8]
           [subtractive|additive] [seeds...]
"""

import argparse
import time

import networkx as nx
import numpy as np

from onmf import (NDLParams, Network, candidate_pairs, corrupt_network,
                  folds_chain_entries, lower_tail_is_positive, ndl_learn,
                  nr_reconstruct, roc_auc)


def peak_rss_mib():
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kib) / 1024


def run(mode, seed, nodes, ring):
    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    G = nx.watts_strogatz_graph(nodes, ring, 0.1, seed=seed)
    net = Network.from_edges(list(G.edges()), undirected=True)
    rng = np.random.default_rng(seed)
    result = corrupt_network(net, mode, 0.5, rng)
    corrupt_s = lap()
    nd = ndl_learn(result.corrupted,
                   NDLParams(k=6, atoms=16, iters=60, batch=80, lam=1.0), rng)
    learn_s = lap()
    recons = nr_reconstruct(result.corrupted, nd.W, iters=20000, lam=0.0,
                            mcmc="pivot", rng=rng,
                            chain_entries=folds_chain_entries(mode))
    recon_s = lap()
    pairs = candidate_pairs(result.corrupted, mode)
    positives = np.isin(pairs, result.flipped)
    roc = roc_auc(recons.scores(pairs), positives,
                  lower_is_positive=lower_tail_is_positive(mode))
    score_s = lap()
    print(f"mode={mode} seed={seed} nodes={nodes} ring={ring}: "
          f"AUC={roc.auc:.4f} ({positives.sum()} corrupted / {len(pairs)} "
          f"candidates); corrupt {corrupt_s:.2f} s, learn {learn_s:.2f} s, "
          f"reconstruct {recon_s:.2f} s, score {score_s:.2f} s; "
          f"peak RSS {peak_rss_mib():.0f} MiB")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=200)
    parser.add_argument("--ring", type=int, default=8,
                        help="ring degree of the Watts-Strogatz graph")
    parser.add_argument("mode", nargs="?", default="subtractive",
                        choices=["subtractive", "additive"])
    parser.add_argument("seeds", nargs="*", type=int, default=[0, 1, 2])
    args = parser.parse_args()
    for seed in args.seeds:
        run(args.mode, seed, args.nodes, args.ring)


if __name__ == "__main__":
    main()
