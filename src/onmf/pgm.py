"""Binary PGM (P5) image I/O, plus the {0,255} spin-grid convention."""

from __future__ import annotations

import numpy as np


class PgmError(ValueError):
    """Malformed PGM input."""


def write_pgm(path, gray: np.ndarray) -> None:
    """Write a [0,1] grayscale array as binary PGM with maxval 255, row-major."""
    gray = np.asarray(gray, dtype=float)
    if gray.ndim != 2:
        raise ValueError("image must be 2-d")
    if not np.isfinite(gray).all() or gray.min() < 0 or gray.max() > 1:
        raise ValueError("pixel values must lie in [0, 1]")
    data = np.rint(gray * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _read_tokens(buf: bytes, count: int):
    """First `count` whitespace-separated header tokens, honoring '#' comments."""
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(buf):
            raise PgmError("truncated PGM header")
        ch = buf[i:i + 1]
        if ch == b"#":
            while i < len(buf) and buf[i:i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(buf) and not buf[j:j + 1].isspace() and buf[j:j + 1] != b"#":
                j += 1
            tokens.append(buf[i:j])
            i = j
    return tokens, i + 1  # skip the single whitespace after the last token


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    tokens, offset = _read_tokens(buf, 4)
    if tokens[0] != b"P5":
        raise PgmError("not a binary PGM (P5) file")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise PgmError("non-numeric PGM header field") from exc
    if w <= 0 or h <= 0 or not 0 < maxval <= 255:
        raise PgmError("unsupported PGM dimensions or maxval")
    raster = buf[offset:offset + w * h]
    if len(raster) != w * h:
        raise PgmError("truncated PGM raster")
    data = np.frombuffer(raster, dtype=np.uint8).reshape(h, w)
    return data.astype(float) / float(maxval)


def spins_to_levels(spins: np.ndarray) -> np.ndarray:
    """Affine map {-1, +1} -> {0, 1}; `read_spins_pgm` maps back."""
    return (np.asarray(spins, dtype=float) + 1.0) * 0.5


def write_spins_pgm(path, spins: np.ndarray) -> None:
    """Serialize a {-1,+1} spin grid as a {0,255} PGM."""
    write_pgm(path, spins_to_levels(spins))


def read_spins_pgm(path) -> np.ndarray:
    gray = read_pgm(path)
    if not np.isin(gray, (0.0, 1.0)).all():
        raise PgmError("spin PGM must contain only 0 and 255 pixels")
    if gray.shape[0] != gray.shape[1]:
        raise PgmError("spin PGM must be square")
    return (2.0 * gray - 1.0).astype(np.int64)
