"""Compare two `onmf` CLI output folders, for example before and after a change.

    python3 scripts/compare_outputs.py OLD NEW [--rtol 1e-9]

Matrix files (the dictionary and aggregates text format: every token a
number) are compared entry by entry; for each one the largest absolute
difference and that difference relative to the largest entry of OLD are
printed.  Every other file is compared byte for byte and listed when it
differs.  `metadata.txt` is compared with its `out_dir:` line masked, since
that line names the output folder.

Exits 1 when a matrix differs by more than `--rtol` relative, when the two
matrices of a file differ in shape, or when a file exists on one side only.
With `--rtol 0` it also exits 1 on any byte difference in any file, so exit
0 means the two folders hold the same bytes; with a positive `--rtol` a byte
difference outside the matrices is reported but does not fail.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np


def read_numbers(path: Path) -> list[list[float]] | None:
    """The file's lines as lists of floats, or None if some token is not one."""
    try:
        return [[float(tok) for tok in line.split()]
                for line in path.read_text().splitlines()]
    except (UnicodeDecodeError, ValueError):
        return None


def read_bytes(path: Path) -> bytes:
    """The file's bytes, with the `out_dir:` line of metadata.txt masked."""
    data = path.read_bytes()
    if path.name == "metadata.txt":
        data = re.sub(rb"(?m)^out_dir: .*$", b"out_dir: *", data)
    return data


def compare_matrix(old: list[list[float]], new: list[list[float]]):
    """(largest absolute difference, relative to the largest |OLD| entry),
    or None when the two files do not have the same layout."""
    if [len(row) for row in old] != [len(row) for row in new]:
        return None
    a = np.array([v for row in old for v in row])
    b = np.array([v for row in new for v in row])
    diff = float(np.max(np.abs(a - b), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    return diff, (diff / scale if scale > 0 else math.inf if diff else 0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-9)
    args = parser.parse_args(argv)
    for folder in (args.old, args.new):
        if not folder.is_dir():
            print(f"error: {folder} is not a folder", file=sys.stderr)
            return 2

    def files(folder):
        return {p.relative_to(folder).as_posix() for p in folder.rglob("*")
                if p.is_file()}

    old_files, new_files = files(args.old), files(args.new)
    strict = args.rtol == 0
    failed = False
    for name in sorted(old_files ^ new_files):
        side = "OLD" if name in old_files else "NEW"
        print(f"only in {side}: {name}")
        failed = True
    differing = []
    for name in sorted(old_files & new_files):
        old_path, new_path = args.old / name, args.new / name
        old_bytes, new_bytes = read_bytes(old_path), read_bytes(new_path)
        old_nums = read_numbers(old_path) if name.endswith(".txt") else None
        new_nums = read_numbers(new_path) if old_nums is not None else None
        if old_nums is None or new_nums is None:
            if old_bytes != new_bytes:
                differing.append(name)
            continue
        result = compare_matrix(old_nums, new_nums)
        if result is None:
            print(f"matrix {name}: layouts differ")
            failed = True
            continue
        diff, rel = result
        bad = rel > args.rtol
        failed |= bad
        print(f"matrix {name}: max abs diff {diff:.3g}, relative {rel:.3g}"
              + (f"  > rtol {args.rtol:g}" if bad else ""))
        if strict and not bad and old_bytes != new_bytes:
            print(f"matrix {name}: same values, different bytes")
            failed = True
    if differing:
        print("other files that differ byte for byte: " + ", ".join(differing))
        failed |= strict
    else:
        print("every other file is byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
