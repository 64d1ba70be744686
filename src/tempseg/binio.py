"""Exact reads for the binary feature (MSBF) and checkpoint (MSBC) files.

A file that ends early is a malformed input, not an internal fault: every
short read raises FormatError naming the file and the byte offset. A
`Reader` walks a file's mapping, which `map_file` makes.
"""

from __future__ import annotations

import mmap
import os
import struct

__all__ = ["FormatError", "Reader", "map_file"]


class FormatError(ValueError):
    """A binary input file is truncated or malformed."""


def map_file(f):
    """A read-only mapping of the open file f, or b"" for an empty file,
    which mmap refuses."""
    if os.fstat(f.fileno()).st_size == 0:
        return b""
    return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


class Reader:
    """Exact reads from `buf`, the bytes of the file `name` (a mapping),
    walked from its start. Every read is checked against the buffer's
    length before anything is unpacked, so a corrupt length field never
    reads or allocates past the file's end."""

    def __init__(self, buf, name: str):
        self.buf, self.name, self.pos = buf, name, 0

    def _take(self, n: int, what: str) -> int:
        """The offset of the next n bytes, then move past them; FormatError
        if fewer remain."""
        at, left = self.pos, len(self.buf) - self.pos
        if n > left:
            raise FormatError(
                f"{self.name}: truncated {what} at byte {at}: needs {n} bytes, {max(left, 0)} left"
            )
        self.pos = at + n
        return at

    def read_exact(self, n: int, what: str) -> bytes:
        """The next n bytes; FormatError if fewer remain."""
        at = self._take(n, what)
        return self.buf[at : at + n]

    def read_struct(self, fmt: str, what: str) -> tuple:
        """struct.unpack_from(fmt, ...) at the next exactly-sized field."""
        return struct.unpack_from(fmt, self.buf, self._take(struct.calcsize(fmt), what))

    def skip(self, n: int, what: str) -> int:
        """Move past the next n bytes and return their offset; FormatError
        if fewer remain."""
        return self._take(n, what)
