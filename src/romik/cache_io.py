"""On-disk persistence for SequenceCache.

Binary, one file per sequence inside a cache directory: u.bin, v.bin and
d.bin hold u(n), v(n), d(n) for n = 0, 1, 2, ...; s.bin holds the s-table
in the form SequenceCache stores it, s^(n, k) = s(n, k) >> (E(n) - E(k))
with E(n) = v2((2n)!), flattened row by row, s^(1,1), s^(2,1), s^(2,2),
s^(3,1), ...  Each file is

    header    ASCII line 'ROMIKCACHE v3 seq=<u|v|d|s> count=<N>\\n'
    lengths   N little-endian uint32 byte lengths
    values    N integers, x as
              x.to_bytes((x.bit_length() + 8) // 8, "little", signed=True)

so each value has one encoding.  A load reads each file once, in order,
and raises CacheFormatError unless the header is exact, the count fits the
file size before anything is unpacked, the size is exactly header + 4N +
the sum of the lengths, each value has its own length, and the s count is
triangular: a torn, extended or re-counted file fails loudly rather than
yielding a plausible wrong value.  The stored s rows are handed to
``SequenceCache.from_stored`` as they are, with no per-entry conversion.

v2 files hold the same layout with s.bin in true s values; every v2 file
is rejected with CacheVersionError, so a v2 cache must be rebuilt.  v1
text files (*.txt) are not read; a directory holding only them loads as
empty and is refilled.
"""

from __future__ import annotations

import os
import struct
from math import isqrt

from .core import SequenceCache

MAGIC = "ROMIKCACHE"
VERSION = "v3"
SEQUENCE_FILES = {"u": "u.bin", "v": "v.bin", "d": "d.bin"}
S_TABLE_FILE = "s.bin"
_MAX_HEADER = 80  # bytes searched for the header's newline


class CacheFormatError(ValueError):
    """A cache file failed validation (bad header, size, length or shape)."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class CacheVersionError(CacheFormatError):
    """The cache file declares a version other than the supported one."""


def write_sequence(path: str, name: str, values: list[int]) -> None:
    """Write one sequence file (values indexed from 0)."""
    _write(path, name, [values])


def _write(path: str, name: str, chunks: list[list[int]]) -> None:
    # Streamed chunk by chunk: no file-sized buffer or full length list is built.
    with open(path, "wb") as handle:
        handle.write(f"{MAGIC} {VERSION} seq={name} count={sum(map(len, chunks))}\n".encode())
        for chunk in chunks:
            handle.write(struct.pack(f"<{len(chunk)}I", *[(x.bit_length() + 8) // 8 for x in chunk]))
        for chunk in chunks:
            for x in chunk:
                handle.write(x.to_bytes((x.bit_length() + 8) // 8, "little", signed=True))


def read_sequence(path: str, name: str) -> list[int]:
    """Read one sequence file back, enforcing header, count and sizes."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        line = handle.readline(_MAX_HEADER)
        if not line.endswith(b"\n"):
            raise CacheFormatError(path, f"no header line in the first {_MAX_HEADER} bytes")
        count = _parse_header(path, line[:-1].decode("ascii", "backslashreplace"), name)
        start = len(line) + 4 * count
        if count == 0 or start > size:
            raise CacheFormatError(path, f"count={count} does not fit a file of {size} bytes")
        # A read cut short (the file shrank after fstat) is padded, then caught by tell().
        lengths = struct.unpack(f"<{count}I", handle.read(4 * count).ljust(4 * count, b"\0"))
        declared = start + sum(lengths)
        if declared != size:
            raise CacheFormatError(path, f"file has {size} bytes, header and lengths declare {declared}")
        # Value by value: the file's bytes and all its values are never held at once.
        values: list[int] = []
        for length in lengths:
            x = int.from_bytes(handle.read(length), "little", signed=True)
            if length != (x.bit_length() + 8) // 8:
                raise CacheFormatError(path, f"value {len(values)} is not in its {length}-byte form")
            values.append(x)
        if handle.tell() != size:
            raise CacheFormatError(path, f"file changed while being read at byte {handle.tell()}")
    return values


def _parse_header(path: str, header: str, name: str) -> int:
    fields = header.split(" ")
    if fields[0] != MAGIC:
        raise CacheFormatError(path, f"not a {MAGIC} file (header {header!r})")
    if fields[1:2] != [VERSION]:
        found = (fields + [""])[1]
        raise CacheVersionError(path, f"unsupported version {found!r} (supported: {VERSION})")
    expected = f"{MAGIC} {VERSION} seq={name} count="
    count = header[len(expected):]
    if not (count.isascii() and count.isdigit()) or header != f"{expected}{int(count)}":
        raise CacheFormatError(path, f"expected header '{expected}<N>', found {header!r}")
    return int(count)


def write_s_table(path: str, rows: list[list[int]]) -> None:
    """Write the triangular s-table in stored form (rows[n-1] holds
    s^(n, 1..n), as ``SequenceCache.stored_s_rows`` returns it) row by row."""
    _write(path, "s", rows)


def read_s_table(path: str) -> list[list[int]]:
    """Read the triangular s-table back in stored form, enforcing complete
    triangle coverage."""
    values = read_sequence(path, "s")
    bound = (isqrt(8 * len(values) + 1) - 1) // 2
    done = bound * (bound + 1) // 2
    if done != len(values):
        short = f"row {bound + 1} stops after {len(values) - done} of {bound + 1} entries"
        raise CacheFormatError(path, f"count={len(values)} is not triangular: {short}")
    return [values[n * (n - 1) // 2:n * (n + 1) // 2] for n in range(1, bound + 1)]


def store_cache(directory: str, cache: SequenceCache) -> None:
    """Write every cached sequence (and the s-table, if built) into directory."""
    os.makedirs(directory, exist_ok=True)
    for name, filename in SEQUENCE_FILES.items():
        write_sequence(os.path.join(directory, filename), name, cache.known_values(name))
    if cache.s_bound:
        write_s_table(os.path.join(directory, S_TABLE_FILE), cache.stored_s_rows())


def load_cache(directory: str) -> SequenceCache:
    """Load whichever cache files exist in directory into a fresh cache.

    Missing files leave that sequence at its seed; present files must be
    valid.  Round trip with store_cache reproduces identical values.
    """
    kwargs: dict = {}
    for name, filename in SEQUENCE_FILES.items():
        path = os.path.join(directory, filename)
        if os.path.exists(path):
            kwargs[name] = read_sequence(path, name)
    s_path = os.path.join(directory, S_TABLE_FILE)
    if os.path.exists(s_path):
        kwargs["s_rows"] = read_s_table(s_path)
    return SequenceCache.from_stored(**kwargs)
