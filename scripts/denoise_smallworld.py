#!/usr/bin/env python3
"""End-to-end network denoising on synthetic small-world graphs.

For each seed: corrupt a 200-node Watts-Strogatz graph (50% subtractive or
additive noise), learn a 6-chain dictionary on the corrupted graph,
reconstruct it, and report the ROC AUC for recovering the corrupted pairs.

Usage: python3 scripts/denoise_smallworld.py [subtractive|additive] [seeds...]
"""

import sys

import networkx as nx
import numpy as np

from onmf import (NDLParams, Network, candidate_scores, corrupt_network,
                  ndl_learn, nr_reconstruct, roc_auc)


def run(mode, seed):
    G = nx.watts_strogatz_graph(200, 8, 0.1, seed=seed)
    net = Network.from_edges(list(G.edges()), undirected=True)
    rng = np.random.default_rng(seed)
    result = corrupt_network(net, mode, 0.5, rng)
    nd = ndl_learn(result.corrupted,
                   NDLParams(k=6, atoms=16, iters=60, batch=80, lam=1.0), rng)
    recons = nr_reconstruct(result.corrupted, nd.W, iters=20000, lam=0.0,
                            mcmc="pivot", rng=rng)
    scores = candidate_scores(result.corrupted, recons, mode)
    positives = {p: not genuine for p, genuine in result.labels.items()}
    roc = roc_auc(scores, positives, lower_is_positive=False)
    print(f"mode={mode} seed={seed}: AUC={roc.auc:.4f} "
          f"({sum(positives.values())} corrupted / {len(scores)} candidates)")


def main():
    args = sys.argv[1:]
    mode = args[0] if args else "subtractive"
    seeds = [int(s) for s in args[1:]] or [0, 1, 2]
    for seed in seeds:
        run(mode, seed)


if __name__ == "__main__":
    main()
