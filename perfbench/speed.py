"""Sample the speed of the CPU this process runs on, until terminated or
orphaned.

    python3 speed.py OUT

Every 10 ms it times one fixed unit of work (a short Python loop around a
25 x 25 matrix-vector product, about 0.3 ms) and appends
`start_seconds duration_seconds` to OUT, on the monotonic clock that
`time.perf_counter` reads in every process.  `run.py` starts it on the CPU
its operations are pinned to and scales each measured time by the reference
unit time over the mean unit time seen while it ran (see README.md).
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.010


def unit(A, v):
    s = 0
    x = v.copy()
    for i in range(60):
        x = A @ x
        x /= x.sum()
        for j in range(20):
            s += (i * j) % 7
    return s


def main(out):
    rng = np.random.default_rng(0)
    A, v = rng.random((25, 25)), rng.random(25)
    parent = os.getppid()
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        while os.getppid() == parent:   # stop if run.py dies without us
            t0 = time.perf_counter()
            unit(A, v)
            t1 = time.perf_counter()
            os.write(fd, f"{t0!r} {t1 - t0!r}\n".encode())
            time.sleep(max(0.0, PERIOD_S - (t1 - t0)))
    finally:
        os.close(fd)


if __name__ == "__main__":
    main(sys.argv[1])
