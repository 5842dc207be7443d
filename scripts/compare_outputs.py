"""Compare two `onmf` CLI output folders, for example before and after a change.

    python3 scripts/compare_outputs.py OLD NEW [--rtol 1e-9]

Files are compared byte for byte, `metadata.txt` with its path lines
masked: `out_dir:`, which names the output folder, and `dict:`, `edges:`,
`labels:`, `image:` and `init_config:`, which name input files that two
runs may read from different folders.  A text file that differs is split
into lines and each line into tokens on commas and whitespace.
When the two files have the same layout (tokens per line) and the same
non-numeric tokens, the number of lines whose values differ is printed with
the largest absolute difference of their numbers and that difference
relative to the largest finite |number| of OLD.  Any other difference is
printed as is: a layout or a word that differs, or a binary file.

Exits 1 when a file exists on one side only, when two files differ in any
way other than their numbers, or when their numbers differ by more than
`--rtol` relative.  With `--rtol 0` it exits 1 on any byte difference, so
exit 0 means the two folders hold the same bytes outside those path lines.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np


PATH_LINES = re.compile(
    rb"(?m)^(out_dir|dict|edges|labels|image|init_config): .*$")


def read_bytes(path: Path) -> bytes:
    """The file's bytes, with the path lines of metadata.txt masked."""
    data = path.read_bytes()
    if path.name == "metadata.txt":
        data = PATH_LINES.sub(rb"\1: *", data)
    return data


def _token(tok: str) -> float | str:
    try:
        return float(tok)
    except ValueError:
        return tok


def read_table(data: bytes) -> list[list[float | str]] | None:
    """The lines of a text file split on commas and whitespace, each token a
    float where it reads as one; None for a file that is not UTF-8 text."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    return [[_token(tok) for tok in re.split(r"[\s,]+", line) if tok]
            for line in text.splitlines()]


def compare_tables(old: list, new: list):
    """(lines whose values differ, largest absolute difference of the
    numbers, that difference relative to the largest finite |OLD| number),
    or why the two tables cannot be compared number by number."""
    if [len(row) for row in old] != [len(row) for row in new]:
        return "layouts differ"
    tokens = [(a, b) for ra, rb in zip(old, new) for a, b in zip(ra, rb)]
    if any(a != b for a, b in tokens if str in (type(a), type(b))):
        return "words differ"
    a, b = (np.array([t[i] for t in tokens if type(t[0]) is float])
            for i in (0, 1))
    same = (a == b) | (np.isnan(a) & np.isnan(b))    # inf == inf
    diff = np.abs(np.subtract(a, b, out=np.zeros_like(a), where=~same))
    diff = float(np.max(np.nan_to_num(diff, nan=np.inf), initial=0.0))
    scale = float(np.max(np.abs(a[np.isfinite(a)]), initial=0.0))
    rel = diff / scale if scale > 0 else np.inf if diff else 0.0
    return sum(ra != rb for ra, rb in zip(old, new)), diff, rel


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
    common = sorted(old_files & new_files)
    differing = 0
    for name in common:
        old_bytes = read_bytes(args.old / name)
        new_bytes = read_bytes(args.new / name)
        if old_bytes == new_bytes:
            continue
        differing += 1
        old, new = read_table(old_bytes), read_table(new_bytes)
        if old is None or new is None:
            result = "binary files differ"
        else:
            result = compare_tables(old, new)
        if isinstance(result, str):
            print(f"{name}: {result}")
            failed = True
            continue
        lines, diff, rel = result
        bad = rel > args.rtol
        failed |= bad or strict
        print(f"{name}: values differ on {lines} of {len(old)} lines, max abs "
              f"diff {diff:.3g}, relative {rel:.3g}"
              + (f"  > rtol {args.rtol:g}" if bad else ""))
    print(f"{len(common) - differing} of {len(common)} common files are "
          "byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
