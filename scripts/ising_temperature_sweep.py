#!/usr/bin/env python3
"""Dictionary learning from Gibbs trajectories across temperatures and epochs.

Desk-scale sweep: for each temperature in {0.5, 2.26, 5.0} and each
subsampling epoch, learn patch dictionaries from a single Gibbs trajectory and
report the surrogate loss trend.

Usage: python3 scripts/ising_temperature_sweep.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from onmf import IsingConfig, init_engine, ising_patch_stream, learn

LATTICE = 50
PATCH = 10
ATOMS = 25
BATCH = 100
TOTAL_GIBBS = 200_000
EPOCHS = (200, 1000, 4000)
TEMPERATURES = (0.5, 2.26, 5.0)


def run(temperature, epoch, seed, out_dir):
    rng = np.random.default_rng(seed)
    config = IsingConfig.random(LATTICE, temperature, rng)
    engine = init_engine(PATCH ** 2, ATOMS, 1000.0, rng, lam=1.0)
    stream = ising_patch_stream(config, epoch, PATCH, BATCH, rng)
    trace = [v for _, v in learn(engine, stream, TOTAL_GIBBS // epoch)]
    path = out_dir / f"trace_T{temperature}_tau{epoch}.csv"
    with open(path, "w") as fh:
        fh.write("t,surrogate\n")
        for i, v in enumerate(trace, start=1):
            fh.write(f"{i},{v!r}\n")
    dec = max(1, len(trace) // 10)
    print(f"T={temperature:<5} tau={epoch:<5} steps={len(trace):<4} "
          f"first-decile={np.mean(trace[:dec]):9.1f} "
          f"last-decile={np.mean(trace[-dec:]):9.1f} -> {path.name}")


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("ising_sweep_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    for temperature in TEMPERATURES:
        for epoch in EPOCHS:
            run(temperature, epoch, seed=0, out_dir=out_dir)


if __name__ == "__main__":
    main()
