"""Exact reads for the binary feature (MSBF) and checkpoint (MSBC) files,
and whole-file writes by rename for every file the package writes.

A file that ends early is a malformed input, not an internal fault: every
short read raises FormatError naming the file and the byte offset. A
`Reader` walks a file's mapping, which `map_file` makes. `replacing`
writes a file beside its target and renames it onto the target.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct

__all__ = ["FormatError", "Reader", "map_file", "replacing"]


class FormatError(ValueError):
    """A binary input file is truncated or malformed."""


def map_file(f):
    """A read-only mapping of the open file f, or b"" for an empty file,
    which mmap refuses."""
    if os.fstat(f.fileno()).st_size == 0:
        return b""
    return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """An open file (mode "w" or "wb") beside `path`, renamed onto `path`
    when the block exits cleanly. So a failed write leaves the old file as
    it was, and a process that still maps the old file (see `map_file`)
    keeps reading the old inode; on any error the new file is removed and
    the error raised again."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


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
