"""On-disk persistence for SequenceCache.

Binary, one file per sequence inside a cache directory: u.bin, v.bin and
d.bin hold u(n), v(n), d(n) for n = 0, 1, 2, ...; s.bin holds the s-table
in the form SequenceCache stores it, s^(n, k) = s(n, k) >> (E(n) - E(k))
with E(n) = v2((2n)!), flattened row by row, s^(1,1), s^(2,1), s^(2,2),
s^(3,1), ...  Each file is an ASCII header line followed by one or more
self-contained segments:

    header    'ROMIKCACHE v4 seq=<u|v|d|s>\\n'
    segment   uint32 N >= 1
              N uint32 byte lengths
              N integers, x as
                x.to_bytes((x.bit_length() + 8) // 8, "little", signed=True)
              uint32 zlib.crc32 of the segment's bytes before it

all little-endian, so each value has one encoding.  A segment closes once
its values reach SEGMENT_BYTES.

Segments are encoded and decoded in bulk passes, not value by value.  A
store lists the new values, computes all their lengths in one pass and
finds where each segment closes by bisecting the lengths' cumulative sums;
it then holds references to the new values, their lengths and sums, and
one segment's bytes.  A segment with no negative value is joined in one
unsigned pass, any other is encoded value by value in the signed form.  A
load decodes a segment's values unsigned in one pass and compares their
own lengths with the stored ones in another; only the values that differ,
the negatives and any value not in its own encoding, take a per-value
path that makes them negative or raises.  It holds the values read so far
and one segment's bytes.

Files only grow.  append_sequence is the one writer; store_cache calls it
for each file.  It opens the file in place, takes an exclusive POSIX
``flock``, walks the segment framing (checking every checksum) to learn
how many values the file holds, and appends only the values past that
count as new segments; a file it cannot validate is never truncated,
replaced or extended.  store_cache appends to s.bin whole rows.  The values
are deterministic, so two writers growing one directory leave correct
prefixes whichever appends first.  There is no fsync: it would cost each
store more than the append saves, and a crash leaves at worst a short or
garbled last segment, which the framing and checksum reject loudly.

load_cache lists the directory, which must exist, and reads each file
under a shared ``flock`` once, walking every segment.  It raises
CacheFormatError unless the header is exact, each segment's count fits the
bytes left before anything is unpacked, each segment ends within the file
and matches its checksum, the read ends exactly at the file size and the s
count is triangular: a torn, extended or garbled file fails loudly rather
than yielding a plausible wrong value.  (The checksum guards against damage,
not against an edit that rewrites it too.)  u, v and d are then decoded
whole, each value checked to have its own length.  s.bin is not: its unit
diagonal is checked on the bytes (each s^(n, n) must be the one byte 0x01),
and its segments are handed to ``SequenceCache.from_stored`` as a row
source with the row count.  A segment is decoded, its values' lengths
checked and its bytes dropped when the cache first reads a row reaching
into it, so a command reading rows 1..n decodes only the segments those
rows reach; its errors name s.bin and the value's index, and reach the
reader.  The rows come from the bytes read at load, never from the file
again, and are neither converted nor copied.  An empty file holds no
values; it is what a store leaves between creating a file and locking it.
Values that fail the checks of ``from_stored`` (seeds, d odd) raise
CacheFormatError naming their file.  read_s_table takes the same row source
whole.

Files of earlier versions (v2, v3: one header count, no segments) are
rejected with CacheVersionError; such a cache directory must be removed and
built again.  v1 text files (*.txt) are not read; a directory holding only
them loads as empty and is refilled.
"""

from __future__ import annotations

import fcntl
import io
import os
import struct
import zlib
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, compress, count, islice, repeat
from math import isqrt
from operator import ne

from .core import SequenceCache, StoredValueError

MAGIC = "ROMIKCACHE"
VERSION = "v4"
SEQUENCE_FILES = {"u": "u.bin", "v": "v.bin", "d": "d.bin"}
S_TABLE_FILE = "s.bin"
SEGMENT_BYTES = 1 << 16  # a segment closes once its values reach this size
_MAX_HEADER = 80  # bytes searched for the header's newline
_U32 = struct.Struct("<I")
_Segment = tuple[tuple[int, ...], bytes]  # value lengths; bytes from the values on


class CacheFormatError(ValueError):
    """A cache file failed validation (bad header, size, length, checksum or shape)."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message

    def refusing_store(self) -> "CacheFormatError":
        """This error, told to a run that would have stored into the file."""
        remedy = "not appended to: remove the cache directory and build it again"
        return type(self)(self.path, f"{self.reason}; {remedy}")


class CacheVersionError(CacheFormatError):
    """The cache file declares a version other than the supported one."""


def _write_segments(handle, name: str, values: Iterable[int]) -> None:
    # A segment closes at the first value whose cumulative length reaches
    # SEGMENT_BYTES past the segment's start; bisecting the cumulative sums
    # finds it.  Held at once: references to the new values, their lengths
    # and sums, and one segment's bytes.  A segment holding a negative value
    # is encoded value by value, as int.to_bytes takes ``signed`` only by
    # keyword.  The header goes out with the first segment, so nothing is
    # written when there are no values.
    values = list(values)
    lengths = [(x.bit_length() + 8) >> 3 for x in values]
    ends = list(accumulate(lengths, initial=0))
    header = _header(name) if handle.tell() == 0 else b""
    start = 0
    while start < len(values):
        stop = min(bisect_left(ends, ends[start] + SEGMENT_BYTES, start + 1), len(values))
        chunk, sizes = values[start:stop], lengths[start:stop]
        if min(chunk) >= 0:
            data = b"".join(map(int.to_bytes, chunk, sizes, repeat("little")))
        else:
            data = b"".join([x.to_bytes(n, "little", signed=True) for x, n in zip(chunk, sizes)])
        _write_segment(handle, header, sizes, data)
        header, start = b"", stop


def _write_segment(handle, header: bytes, lengths: list[int], data: bytes) -> None:
    head = struct.pack(f"<{len(lengths) + 1}I", len(lengths), *lengths)
    handle.write(header)
    handle.write(head)
    handle.write(data)
    handle.write(_U32.pack(zlib.crc32(data, zlib.crc32(head))))


def _header(name: str) -> bytes:
    return f"{MAGIC} {VERSION} seq={name}\n".encode("ascii")


def read_sequence(path: str, name: str) -> list[int]:
    """Read one sequence file back, enforcing header, framing, checksums and sizes."""
    values: list[int] = []
    for lengths, data in _segments(path, name):
        values += _decode(path, lengths, data, len(values))
    return values


def _segments(path: str, name: str) -> list[_Segment]:
    """Every segment of the file as ``_walk`` yields it, read under a shared
    ``flock``."""
    with open(path, "rb") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_SH)
        return list(_walk(handle, path, name))


def _decode(path: str, lengths: tuple[int, ...], data: bytes, first: int) -> list[int]:
    """The values of one segment, whose bytes data holds from its start,
    each checked to be in its own length.  first is the index, across
    segments, of the segment's first value."""
    decoded = list(map(int.from_bytes, map(io.BytesIO(data).read, lengths), repeat("little")))
    own = [(x.bit_length() + 8) >> 3 for x in decoded]
    if own != list(lengths):
        _signed(path, decoded, lengths, own, first)
    return decoded


def _signed(
    path: str, decoded: list[int], lengths: tuple[int, ...], own: list[int], first: int
) -> None:
    """Make negative in place each value decoded unsigned whose length
    differs from the one stored for it and whose top bit is set; raise for
    any value that is then still not in its own length.  Every negative
    value takes this path: unsigned, its top bit makes it one byte longer.
    first is the index, across segments, of the segment's first value."""
    for i in compress(count(), map(ne, own, lengths)):
        length = lengths[i]
        x = decoded[i]
        if length and x >> (8 * length - 1):
            x -= 1 << (8 * length)
            if (x.bit_length() + 8) >> 3 == length:
                decoded[i] = x
                continue
        raise CacheFormatError(path, f"value {first + i} is not in its {length}-byte form")


def _walk(handle, path: str, name: str) -> Iterator[_Segment]:
    """Yield each segment's lengths and value bytes, checked against the
    file size taken once here and against the segment's checksum.  The
    handle must be positioned at the start of the file."""
    size = os.fstat(handle.fileno()).st_size
    if size == 0:
        return
    line = handle.readline(_MAX_HEADER)
    if not line.endswith(b"\n"):
        raise CacheFormatError(path, f"no header line in the first {_MAX_HEADER} bytes")
    _check_header(path, line[:-1].decode("ascii", "backslashreplace"), name)
    position = len(line)
    if position == size:
        raise CacheFormatError(path, "no segment after the header")
    while position < size:
        # A read cut short (the file shrank after fstat) is caught by _read.
        left = size - position
        if left < 4:
            message = f"segment at byte {position} is cut inside its count ({left} bytes left)"
            raise CacheFormatError(path, message)
        head = _read(handle, path, 4)
        (count,) = _U32.unpack(head)
        if count == 0:
            raise CacheFormatError(path, f"segment at byte {position} holds no values")
        if 4 * count + 8 > left:
            message = f"segment at byte {position}: count={count} does not fit the {left} bytes left"
            raise CacheFormatError(path, message)
        packed = _read(handle, path, 4 * count)
        lengths = struct.unpack(f"<{count}I", packed)
        end = position + 4 * count + 8 + sum(lengths)
        if end > size:
            raise CacheFormatError(path, f"file has {size} bytes, header and lengths declare {end}")
        data = _read(handle, path, end - position - 4 * count - 4)
        crc = zlib.crc32(memoryview(data)[:-4], zlib.crc32(packed, zlib.crc32(head)))
        if crc != _U32.unpack_from(data, len(data) - 4)[0]:
            raise CacheFormatError(path, f"checksum mismatch in the segment at byte {position}")
        yield lengths, data
        position = end
    if handle.tell() != size:
        raise CacheFormatError(path, f"file changed while being read at byte {handle.tell()}")


def _read(handle, path: str, n: int) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise CacheFormatError(path, f"file changed while being read at byte {handle.tell()}")
    return data


def _check_header(path: str, header: str, name: str) -> None:
    fields = header.split(" ")
    if fields[0] != MAGIC:
        raise CacheFormatError(path, f"not a {MAGIC} file (header {header!r})")
    if fields[1:2] != [VERSION]:
        found = (fields + [""])[1]
        raise CacheVersionError(path, f"unsupported version {found!r} (supported: {VERSION})")
    expected = _header(name)[:-1].decode("ascii")
    if header != expected:
        raise CacheFormatError(path, f"expected header {expected!r}, found {header!r}")


def read_s_table(path: str) -> list[list[int]]:
    """Read the triangular s-table back in stored form, enforcing complete
    triangle coverage."""
    rows, _ = _s_table(path)
    return list(rows)


def _s_table(path: str) -> tuple[Iterator[list[int]], int]:
    """The rows of the s.bin at path, still to be decoded, and their count.
    Every check that needs no decoded value is made here, and the unit
    diagonal is checked on the bytes."""
    segments = _segments(path, "s")
    bound = _s_bound(path, sum(len(lengths) for lengths, _ in segments))
    _check_diagonal(path, segments)
    return _rows(path, segments, bound), bound


def _check_diagonal(path: str, segments: list[_Segment]) -> None:
    """Check that each s^(n, n), value n(n+1)/2 - 1, is stored as the one
    byte 0x01; one that is not is decoded only to name it."""
    n, first = 1, 0  # the next diagonal row; the index of the segment's first value
    for lengths, data in segments:
        at, offset = 0, 0  # a value of the segment and where its bytes start
        while (i := n * (n + 1) // 2 - 1 - first) < len(lengths):
            offset += sum(lengths[at:i])
            at = i
            if lengths[i] != 1 or data[offset] != 1:
                x = _decode(path, lengths[i:i + 1], data[offset:offset + lengths[i]], first + i)[0]
                raise CacheFormatError(path, f"s({n},{n}) = {x}, expected 1")
            n += 1
        first += len(lengths)


def _rows(path: str, segments: list[_Segment], bound: int) -> Iterator[list[int]]:
    """Yield rows 1..bound of the s-table from the walked segments of path.
    A segment is decoded, and dropped from segments, when the first row
    reaching into it is taken."""
    segments.reverse()  # popped from the end, first segment first
    values: list[int] = []  # decoded and not yet yielded, from index first on
    first = 0
    for n in range(1, bound + 1):
        while len(values) < n:
            values += _decode(path, *segments.pop(), first + len(values))
        yield values[:n]
        del values[:n]
        first += n


def _s_bound(path: str, count: int) -> int:
    bound = (isqrt(8 * count + 1) - 1) // 2
    done = bound * (bound + 1) // 2
    if done != count:
        short = f"row {bound + 1} stops after {count - done} of {bound + 1} entries"
        raise CacheFormatError(path, f"count={count} is not triangular: {short}")
    return bound


def store_cache(directory: str, cache: SequenceCache) -> None:
    """Append to the files in directory every cached value (and s-table row,
    if built) they do not hold yet; a file holding as many or more is left
    untouched."""
    try:
        # Restores every stored row first, so that a row failing to decode
        # refuses the store before any file is touched.
        s_rows = cache.stored_s_rows()
    except CacheFormatError as exc:
        raise exc.refusing_store() from None
    os.makedirs(directory, exist_ok=True)
    for name, filename in SEQUENCE_FILES.items():
        append_sequence(os.path.join(directory, filename), name, cache.known_values(name))
    if s_rows:
        append_sequence(os.path.join(directory, S_TABLE_FILE), "s", chain.from_iterable(s_rows))


def append_sequence(path: str, name: str, values: Iterable[int]) -> None:
    """Append to the file at path the values (indexed from 0) past those it
    holds, creating it if missing; for ``s`` the values are the held
    s-table flattened row by row.  Under an exclusive ``flock`` the file is
    validated first, and one that fails is left as it is."""
    with open(path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        handle.seek(0)
        try:
            count = sum(len(lengths) for lengths, _ in _walk(handle, path, name))
            if name == "s":
                _s_bound(path, count)
        except CacheFormatError as exc:
            raise exc.refusing_store() from None
        # In append mode every write lands at the end of the file.
        _write_segments(handle, name, islice(values, count, None))


def load_cache(directory: str) -> SequenceCache:
    """Load whichever cache files exist in directory into a fresh cache.

    The directory must exist.  Missing or empty files leave that sequence
    at its seed; present files must be valid, and a file whose values fail
    the checks of ``SequenceCache.from_stored`` (a seed other than 1, an
    even d) or whose diagonal s entry is not 1 raises CacheFormatError
    naming it.  The s rows are decoded as the cache first reads them, so
    a value of s.bin not in its own length raises CacheFormatError at that
    read.  Round trip with store_cache reproduces identical values.
    """
    names = os.listdir(directory)  # a missing directory is an error, not an empty cache
    kwargs: dict = {}
    for name, filename in SEQUENCE_FILES.items():
        if filename in names:
            kwargs[name] = read_sequence(os.path.join(directory, filename), name) or None
    if S_TABLE_FILE in names:
        kwargs["s_rows"], kwargs["s_count"] = _s_table(os.path.join(directory, S_TABLE_FILE))
    try:
        return SequenceCache.from_stored(**kwargs)
    except StoredValueError as exc:
        filename = SEQUENCE_FILES.get(exc.table, S_TABLE_FILE)
        raise CacheFormatError(os.path.join(directory, filename), str(exc)) from None
