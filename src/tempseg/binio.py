"""Exact reads for the binary feature (MSBF) and checkpoint (MSBC) files.

A file that ends early is a malformed input, not an internal fault: every
short read raises FormatError naming the file and the byte offset.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

__all__ = ["FormatError", "Reader"]


class FormatError(ValueError):
    """A binary input file is truncated or malformed."""


class Reader:
    """Exact reads from binary file f. The file's size is read once, here,
    and every read is checked against it before anything is read or
    allocated, so a corrupt length field never allocates more than the file
    holds."""

    def __init__(self, f):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size

    def _check_left(self, n: int, what: str):
        """FormatError unless the file holds n more bytes."""
        offset = self.f.tell()
        left = self.size - offset
        if n > left:
            raise FormatError(
                f"{self.f.name}: truncated {what} at byte {offset}: "
                f"needs {n} bytes, {max(left, 0)} left"
            )

    def read_exact(self, n: int, what: str) -> bytes:
        """The next n bytes; FormatError if fewer remain."""
        self._check_left(n, what)
        data = self.f.read(n)
        if len(data) != n:
            raise FormatError(f"{self.f.name}: {what} changed size while it was read")
        return data

    def read_array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """The next array of `shape` and `dtype`, read straight into a new
        writable array; FormatError if fewer bytes remain."""
        n = np.dtype(dtype).itemsize * math.prod(shape)
        self._check_left(n, what)
        out = np.empty(shape, dtype)
        if n and self.f.readinto(memoryview(out).cast("B")) != n:
            raise FormatError(f"{self.f.name}: {what} changed size while it was read")
        return out

    def skip(self, n: int, what: str) -> int:
        """Move past the next n bytes and return their offset; FormatError
        if fewer remain."""
        self._check_left(n, what)
        offset = self.f.tell()
        self.f.seek(n, os.SEEK_CUR)
        return offset

    def read_struct(self, fmt: str, what: str) -> tuple:
        """struct.unpack(fmt, ...) over the next exactly-sized read."""
        return struct.unpack(fmt, self.read_exact(struct.calcsize(fmt), what))
