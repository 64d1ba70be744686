"""Exact reads for the binary feature (MSBF) and checkpoint (MSBC) files.

A file that ends early is a malformed input, not an internal fault: every
short read raises FormatError naming the file and the byte offset.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

__all__ = ["FormatError", "read_array", "read_exact", "read_struct", "skip"]


class FormatError(ValueError):
    """A binary input file is truncated or malformed."""


def _check_left(f, n: int, what: str):
    """FormatError unless binary file f holds n more bytes."""
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if n > left:
        raise FormatError(
            f"{f.name}: truncated {what} at byte {offset}: "
            f"needs {n} bytes, {max(left, 0)} left"
        )


def read_exact(f, n: int, what: str) -> bytes:
    """The next n bytes of binary file f; FormatError if fewer remain.

    The size is checked against the file before reading, so a corrupt
    length field never allocates more than the file holds.
    """
    _check_left(f, n, what)
    return f.read(n)


def read_array(f, dtype: str, shape: tuple, what: str) -> np.ndarray:
    """The next array of `shape` and `dtype` in binary file f, read straight
    into a new writable array; FormatError if fewer bytes remain. As with
    read_exact, the size is checked before anything is allocated."""
    n = np.dtype(dtype).itemsize * math.prod(shape)
    _check_left(f, n, what)
    out = np.empty(shape, dtype)
    if n and f.readinto(memoryview(out).cast("B")) != n:
        raise FormatError(f"{f.name}: {what} changed size while it was read")
    return out


def skip(f, n: int, what: str) -> int:
    """Move binary file f past its next n bytes and return their offset;
    FormatError if fewer remain."""
    _check_left(f, n, what)
    offset = f.tell()
    f.seek(n, os.SEEK_CUR)
    return offset


def read_struct(f, fmt: str, what: str) -> tuple:
    """struct.unpack(fmt, ...) over the next exactly-sized read of f."""
    return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), what))
