"""CSV matrices with missing entries, and binary (P5) PGM images.

CSV files hold comma-separated decimal rows; the literal token ``NaN``
(case-insensitive) marks a missing entry.  Finite values are written with 17
significant digits so a write/read round trip is bit-identical.

PGM support covers the binary ``P5`` flavor with one byte per pixel
(maxval up to 255); pixel values are scaled to [0, 1] on read.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .types import MaskedMatrix


class ParseError(ValueError):
    """Malformed matrix or image file content."""


_WHITESPACE = b" \t\r\n\x0b\x0c"


def read_csv_matrix(path) -> MaskedMatrix:
    """Load a matrix with NaN-marked missing entries.

    Raises :class:`ParseError` naming the offending row (and column) for
    ragged rows, unparseable tokens, non-finite values, or an empty file.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    width = None
    values = []
    for r, line in enumerate(lines, start=1):
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: row {r} has {len(tokens)} fields, expected {width}"
            )
        row = []
        for c, token in enumerate(tokens, start=1):
            t = token.strip()
            try:
                x = float(t)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}, column {c}: cannot parse {t!r}"
                ) from None
            # float() reads "nan" in any case as the one NaN that marks a
            # missing entry; every other non-finite value is an error.
            if not math.isfinite(x) and t.lower() != "nan":
                raise ParseError(
                    f"{path}: row {r}, column {c}: non-finite value {t!r}"
                )
            row.append(x)
        values.append(row)
    values = np.array(values)
    return MaskedMatrix(values, np.isfinite(values))


def write_csv_matrix(path, X: MaskedMatrix) -> None:
    """Inverse of :func:`read_csv_matrix`; missing entries become ``NaN``."""
    lines = []
    for row_v, row_m in zip(X.values, X.mask):
        fields = [f"{v:.17g}" if ok else "NaN" for v, ok in zip(row_v, row_m)]
        lines.append(",".join(fields))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _next_pgm_token(data: bytes, pos: int):
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch in _WHITESPACE:
            pos += 1
        elif ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos : pos + 1] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise ParseError("unexpected end of PGM header")
    return data[start:pos], pos


def read_pgm(path) -> np.ndarray:
    """Load a binary PGM image as a float grid in [0, 1].

    Pixels are divided by the header's maxval, so any maxval in 1..255 maps
    onto the same scale.  Raises :class:`ParseError` naming the first pixel,
    in row-major order, whose value exceeds the maxval.
    """
    data = Path(path).read_bytes()
    magic, pos = _next_pgm_token(data, 0)
    if magic != b"P5":
        raise ParseError(f"{path}: not a binary PGM file (magic {magic!r})")
    dims = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_pgm_token(data, pos)
        try:
            dims.append(int(token))
        except ValueError:
            raise ParseError(f"{path}: bad {name} field {token!r}") from None
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad image size {width}x{height}")
    if not (1 <= maxval <= 255):
        raise ParseError(f"{path}: unsupported maxval {maxval} (need 1..255)")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise ParseError(f"{path}: truncated pixel data")
    grid = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if grid.max() > maxval:
        r, c = divmod(int(np.argmax(grid > maxval)), width)
        raise ParseError(
            f"{path}: row {r + 1}, column {c + 1}: pixel {grid[r, c]} above maxval {maxval}"
        )
    return grid.astype(float) / maxval


def write_pgm(path, grid) -> None:
    """Write a float grid as binary PGM, clamping to [0, 1] and quantizing
    to 255 levels."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2:
        raise ValueError(f"image grid must be 2-dimensional, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("image grid must be finite")
    q = np.rint(np.clip(g, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + q.tobytes())
