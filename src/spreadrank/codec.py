"""Compact base-q integer encoding of matrices, plus text file formats.

A matrix with entries a_ij maps to the integer sum of a_ij * q^((i-1)n+(j-1)),
i.e. digit position runs row-major with the (1,1) entry least significant.
Files are plain decimal text so published tables paste in directly.
"""

from __future__ import annotations

import numpy as np

from .errors import BadParameters, EncodingOverflow, ParseError
from .gf import SUPPORTED_Q


def _check_dims(q, n):
    if q not in SUPPORTED_Q:
        raise BadParameters(f"unsupported field size q={q}; q must be one of {SUPPORTED_Q}")
    if n < 1:
        raise BadParameters(f"bad dimensions q={q}, n={n}")
    if q ** (n * n) > 2**63:
        raise EncodingOverflow(f"q^(n^2) exceeds 64-bit range for q={q}, n={n}")


def decode(value, q, n):
    """Matrix whose (i, j) entry is the base-q digit at position (i-1)n+(j-1)."""
    _check_dims(q, n)
    value = int(value)
    if value < 0 or value >= q ** (n * n):
        raise EncodingOverflow(f"{value} out of range for q={q}, n={n}")
    digits = np.zeros(n * n, dtype=np.uint8)
    for pos in range(n * n):
        value, digits[pos] = divmod(value, q)[0], value % q
    return digits.reshape(n, n)


def encode(M, q):
    """Inverse of decode; digit positions run row-major from entry (1, 1)."""
    A = np.asarray(M)
    _check_dims(q, A.shape[0])
    return int(encode_rows(A.reshape(-1) % q, q))


def encode_rows(rows, q):
    """int64 base-q values of the rows along the last axis, entry 0 least
    significant; the entries must already be residues mod q."""
    width = rows.shape[-1]
    if q**width > 2**63:
        raise EncodingOverflow(f"q^{width} exceeds 64-bit range for q={q}")
    return rows.astype(np.int64) @ q ** np.arange(width, dtype=np.int64)


# ---------------------------------------------------------------------------
# File formats
#
# Spread set file:      line 1 "q n",   lines 2..n+1   one encoding per line
# Decomposition file:   line 1 "q n R", lines 2..R+1   one encoding per line
# ---------------------------------------------------------------------------


def _read_lines(path):
    """The lines of a UTF-8 text file that is not empty, else ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path!s} is not UTF-8 text ({exc.reason})") from exc
    if not lines:
        raise ParseError(f"empty file {path!s}", line=1)
    return lines


def _parse_header(line, want, path):
    parts = line.split()
    if len(parts) != want or not all(p.isascii() and p.isdigit() for p in parts):
        raise ParseError(f"bad header in {path!s}", line=1)
    values = [int(p) for p in parts]
    if values[0] < 2 or values[1] < 1:
        raise ParseError(f"header of {path!s} needs q >= 2 and n >= 1", line=1)
    return values


def _parse_body(lines, count, q, n, path):
    mats = []
    for k in range(count):
        lineno = k + 2
        if k >= len(lines):
            raise ParseError(f"expected {count} entries in {path!s}", line=lineno)
        text = lines[k].strip()
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"not a decimal encoding: {text!r}", line=lineno)
        try:
            mats.append(decode(int(text), q, n))
        except EncodingOverflow as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return mats


def read_spreadset_file(path):
    """Read a spread-set basis file.  Returns (q, n, list of matrices)."""
    lines = _read_lines(path)
    q, n = _parse_header(lines[0], 2, path)
    mats = _parse_body(lines[1:], n, q, n, path)
    return q, n, mats


def write_spreadset_file(path, q, n, mats):
    with open(path, "w") as fh:
        fh.write(f"{q} {n}\n")
        for M in mats:
            fh.write(f"{encode(M, q)}\n")


def read_decomposition_file(path):
    """Read a rank-one decomposition file.  Returns (q, n, R, list of matrices)."""
    lines = _read_lines(path)
    q, n, r = _parse_header(lines[0], 3, path)
    mats = _parse_body(lines[1:], r, q, n, path)
    return q, n, r, mats


def write_decomposition_file(path, q, n, mats):
    with open(path, "w") as fh:
        fh.write(f"{q} {n} {len(mats)}\n")
        for M in mats:
            fh.write(f"{encode(M, q)}\n")
