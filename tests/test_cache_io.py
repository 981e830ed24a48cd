"""Tests for the on-disk cache format: round trips and corruption handling."""

import fcntl
import hashlib
import os
import random
import struct
import subprocess
import sys
import tempfile
import zlib
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import romik
from romik import SequenceCache, cache_io
from romik.cache_io import (
    CacheFormatError,
    CacheVersionError,
    append_sequence,
    load_cache,
    read_sequence,
    store_cache,
)
from romik.cli import main


@pytest.fixture
def small_cache():
    c = SequenceCache()
    c.d(8)
    c.u(8)
    c.v(8)
    return c


class TestRoundTrip:
    def test_store_then_load_identical(self, tmp_path, small_cache):
        store_cache(str(tmp_path), small_cache)
        loaded = load_cache(str(tmp_path))
        for name in ("u", "v", "d"):
            assert loaded.known_values(name) == small_cache.known_values(name)
        assert loaded.known_s_rows() == small_cache.known_s_rows()

    def test_loaded_cache_extends_consistently(self, tmp_path, small_cache):
        store_cache(str(tmp_path), small_cache)
        loaded = load_cache(str(tmp_path))
        fresh = SequenceCache()
        assert loaded.d(12) == fresh.d(12)

    def test_missing_files_leave_seeds(self, tmp_path):
        cache = load_cache(str(tmp_path))
        assert cache.known_values("d") == [1]
        assert cache.s_bound == 0

    def test_sequence_file_layout(self, tmp_path, small_cache):
        store_cache(str(tmp_path), small_cache)
        data = (tmp_path / "d.bin").read_bytes()
        header, rest = data.split(b"\n", 1)
        assert header == b"ROMIKCACHE v4 seq=d"
        count, *lengths = struct.unpack_from("<10I", rest)
        assert count == 9
        values = rest[4 * 10:-4]
        assert len(values) == sum(lengths)
        assert values[:1] == b"\x01"  # d(0) = 1
        assert values[2:3] == b"\xff"  # d(2) = -1
        assert rest[-4:] == struct.pack("<I", zlib.crc32(rest[:-4]))
        assert not (tmp_path / "d.txt").exists()

    def test_v1_text_files_are_not_read(self, tmp_path):
        (tmp_path / "d.txt").write_text("ROMIKCACHE v1 seq=d\n0 1\n1 1\n2 -1\n")
        assert load_cache(str(tmp_path)).known_values("d") == [1]


# The v2 files of the cache of d(4): the same layout, s.bin in true s values.
V2_FILES = {
    "u.bin": b"ROMIKCACHE v2 seq=u count=4\n"
    + bytes.fromhex("01000000 01000000 02000000 02000000")
    + bytes.fromhex("01 06 0001 906f"),
    "v.bin": b"ROMIKCACHE v2 seq=v count=5\n"
    + bytes.fromhex("01000000 01000000 01000000 02000000 03000000")
    + bytes.fromhex("01 01 2f e31c b16f25"),
    "d.bin": b"ROMIKCACHE v2 seq=d count=5\n"
    + bytes.fromhex("01000000 01000000 01000000 01000000 02000000")
    + bytes.fromhex("01 01 ff 33 5103"),
    # s rows [1], [24, 1], [1896, 120, 1], [314496, 24416, 336, 1]
    "s.bin": b"ROMIKCACHE v2 seq=s count=10\n"
    + bytes.fromhex(
        "01000000 01000000 01000000 02000000 01000000"
        " 01000000 03000000 02000000 02000000 01000000"
    )
    + bytes.fromhex("01 18 01 6807 78 01 80cc04 605f 5001 01"),
}


# The v3 files of the cache of d(4): one header count and no segments.
V3_FILES = {
    "u.bin": b"ROMIKCACHE v3 seq=u count=4\n"
    + bytes.fromhex("01000000 01000000 02000000 02000000")
    + bytes.fromhex("01 06 0001 906f"),
    "v.bin": b"ROMIKCACHE v3 seq=v count=5\n"
    + bytes.fromhex("01000000 01000000 01000000 02000000 03000000")
    + bytes.fromhex("01 01 2f e31c b16f25"),
    "d.bin": b"ROMIKCACHE v3 seq=d count=5\n"
    + bytes.fromhex("01000000 01000000 01000000 01000000 02000000")
    + bytes.fromhex("01 01 ff 33 5103"),
    "s.bin": b"ROMIKCACHE v3 seq=s count=10\n"
    + bytes.fromhex(
        "01000000 01000000 01000000 02000000 01000000"
        " 01000000 02000000 02000000 01000000 01000000"
    )
    + bytes.fromhex("01 06 01 ed00 3c 01 3213 f605 2a 01"),
}


class TestPinnedFormat:
    """Byte-exact files for the cache of d(4); any format drift fails here."""

    EXPECTED = {
        # u = 1, 6, 256, 28560
        "u.bin": b"ROMIKCACHE v4 seq=u\n"
        + bytes.fromhex("04000000")
        + bytes.fromhex("01000000 01000000 02000000 02000000")
        + bytes.fromhex("01 06 0001 906f")
        + bytes.fromhex("bc540b71"),
        # v = 1, 1, 47, 7395, 2453425
        "v.bin": b"ROMIKCACHE v4 seq=v\n"
        + bytes.fromhex("05000000")
        + bytes.fromhex("01000000 01000000 01000000 02000000 03000000")
        + bytes.fromhex("01 01 2f e31c b16f25")
        + bytes.fromhex("2bc0f208"),
        # d = 1, 1, -1, 51, 849
        "d.bin": b"ROMIKCACHE v4 seq=d\n"
        + bytes.fromhex("05000000")
        + bytes.fromhex("01000000 01000000 01000000 01000000 02000000")
        + bytes.fromhex("01 01 ff 33 5103")
        + bytes.fromhex("e28ec77f"),
        # stored rows s(n, k) >> (E(n) - E(k)): [1], [6, 1], [237, 60, 1], [4914, 1526, 42, 1]
        "s.bin": b"ROMIKCACHE v4 seq=s\n"
        + bytes.fromhex("0a000000")
        + bytes.fromhex(
            "01000000 01000000 01000000 02000000 01000000"
            " 01000000 02000000 02000000 01000000 01000000"
        )
        + bytes.fromhex("01 06 01 ed00 3c 01 3213 f605 2a 01")
        + bytes.fromhex("f576f91e"),
    }

    def test_store_writes_pinned_bytes(self, tmp_path):
        cache = SequenceCache()
        cache.d(4)
        store_cache(str(tmp_path), cache)
        assert sorted(os.listdir(tmp_path)) == sorted(self.EXPECTED)
        for name, expected in self.EXPECTED.items():
            assert (tmp_path / name).read_bytes() == expected, name

    def test_pinned_bytes_load(self, tmp_path):
        for name, data in self.EXPECTED.items():
            (tmp_path / name).write_bytes(data)
        loaded = load_cache(str(tmp_path))
        assert loaded.known_values("u") == [1, 6, 256, 28560]
        assert loaded.known_values("v") == [1, 1, 47, 7395, 2453425]
        assert loaded.known_values("d") == [1, 1, -1, 51, 849]
        assert loaded.stored_s_rows() == [[1], [6, 1], [237, 60, 1], [4914, 1526, 42, 1]]
        assert loaded.known_s_rows() == [[1], [24, 1], [1896, 120, 1], [314496, 24416, 336, 1]]

    def test_v2_files_are_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "v2", V2_FILES)

    def test_v3_files_are_rejected(self, tmp_path, capsys):
        self._assert_rejected(tmp_path, capsys, "v3", V3_FILES)

    def _assert_rejected(self, tmp_path, capsys, version, files):
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(CacheVersionError) as err:
            load_cache(str(tmp_path))
        assert f"unsupported version '{version}' (supported: v4)" in str(err.value)
        # cache build neither extends nor replaces them; it says what to do.
        assert main(["cache", "build", "--dir", str(tmp_path), "--max", "6"]) == 2
        assert "remove the cache directory and build it again" in capsys.readouterr().err
        for name in ("u.bin", "v.bin", "d.bin"):  # s.bin alone is rejected too
            assert (tmp_path / name).read_bytes() == files[name]
            (tmp_path / name).unlink()
        assert (tmp_path / "s.bin").read_bytes() == files["s.bin"]
        with pytest.raises(CacheVersionError):
            load_cache(str(tmp_path))
        assert main(["cache", "check", "--dir", str(tmp_path)]) == 2
        assert "unsupported version" in capsys.readouterr().err

    @pytest.mark.parametrize("x", [0, 1, -1, 127, 128, -128, -129, 255, 256, -(1 << 63), 7 ** 900])
    def test_each_value_has_one_encoding(self, tmp_path, x):
        path = str(tmp_path / "s.bin")
        append_sequence(path, "s", [x])
        data = (tmp_path / "s.bin").read_bytes()
        count, length = struct.unpack_from("<2I", data, data.index(b"\n") + 1)
        assert (count, length) == (1, (x.bit_length() + 8) // 8)
        assert read_sequence(path, "s") == [x]


class TestPinnedSegments:
    """Byte-exact files of ``cache build --max 90``, where s.bin spans four
    segments (it is one segment up to 60 rows), and the same bytes from a
    round trip through load_cache and store_cache: where segments close
    depends on the values alone."""

    SHA256 = {
        "u.bin": "e92af45fd7ada9798182097123afc14a9ff2ddefc861cd44c944196aa8eeb787",
        "v.bin": "25d4761ae1bfc2f6ddcfe95cb560c871fbbe43ac82651838d1ad95f91b7a95f5",
        "d.bin": "6d203177336d700a10040acca01ab14d2b66eae6be587afe707ec6134ca9ccfc",
        "s.bin": "0201cd6afe62920da037fd0f238aaaf2b28cd2e2ab988e01c6e67fd9a448577c",
    }

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("pin90") / "cache"
        assert main(["cache", "build", "--dir", str(directory), "--max", "90"]) == 0
        return directory

    def test_build_writes_pinned_bytes(self, built):
        assert sorted(os.listdir(built)) == sorted(self.SHA256)
        for name, digest in self.SHA256.items():
            data = (built / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
            assert len(_segment_starts(data)) == (4 if name == "s.bin" else 1), name

    def test_round_trip_writes_the_same_bytes(self, built, tmp_path):
        store_cache(str(tmp_path), load_cache(str(built)))
        for name in self.SHA256:
            assert (tmp_path / name).read_bytes() == (built / name).read_bytes(), name


HEADER_D = b"ROMIKCACHE v4 seq=d\n"


def _segment(lengths, values):
    body = struct.pack(f"<{len(lengths) + 1}I", len(lengths), *lengths) + values
    return body + struct.pack("<I", zlib.crc32(body))


def _segment_starts(data):
    """Offsets of each segment of a v4 file, parsed independently of cache_io."""
    position, starts = data.index(b"\n") + 1, []
    while position < len(data):
        starts.append(position)
        (count,) = struct.unpack_from("<I", data, position)
        lengths = struct.unpack_from(f"<{count}I", data, position + 4)
        position += 4 * count + 8 + sum(lengths)
    assert position == len(data)
    return starts


def _segment_counts(lengths, cap):
    """Value counts of the segments that lengths fill, each closing once its
    values reach cap bytes."""
    counts, n, size = [], 0, 0
    for length in lengths:
        n, size = n + 1, size + length
        if size >= cap:
            counts.append(n)
            n, size = 0, 0
    return counts + [n] if n else counts


class TestCorruption:
    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"ROMIKCACHE v1 seq=d\n0 1\n")
        with pytest.raises(CacheVersionError) as err:
            read_sequence(str(path), "d")
        assert "unsupported version 'v1'" in str(err.value)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"SOMETHINGELSE v4 seq=d\n" + _segment([1], b"\x01"))
        with pytest.raises(CacheFormatError):
            read_sequence(str(path), "d")

    def test_wrong_sequence_tag(self, tmp_path):
        path = tmp_path / "d.bin"
        append_sequence(str(path), "u", [1])
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert not isinstance(err.value, CacheVersionError)
        assert "seq=d" in str(err.value)

    def test_gap_is_named(self, tmp_path):
        # d = 1, 1, -1, 51 with the value d(2) cut out but the lengths kept.
        path = tmp_path / "d.bin"
        append_sequence(str(path), "d", [1, 1, -1, 51])
        data = path.read_bytes()
        cut = len(HEADER_D) + 4 + 4 * 4 + 2
        assert data[cut:cut + 1] == b"\xff"
        path.write_bytes(data[:cut] + data[cut + 1:])
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert f"file has {len(data) - 1} bytes" in str(err.value)
        assert f"declare {len(data)}" in str(err.value)
        assert err.value.path == str(path)

    def test_non_integer_value(self, tmp_path):
        # The header carries no count (v3 did); a count of any form, or any
        # other text after the sequence tag, is rejected.
        path = tmp_path / "d.bin"
        body = _segment([1], b"\x01")
        tails = (b" count=1", b" count=x", b" count=-1", b" count=04", b" ", b"\r", b"d", b"\xb2")
        for tail in tails:
            path.write_bytes(HEADER_D[:-1] + tail + b"\n" + body)
            with pytest.raises(CacheFormatError) as err:
                read_sequence(str(path), "d")
            assert "expected header" in str(err.value), tail
        path.write_bytes(HEADER_D + body)
        assert read_sequence(str(path), "d") == [1]

    @pytest.mark.parametrize("encoding", [
        b"\x01\x00",  # 1 in two bytes
        b"\xff\xff",  # -1 in two bytes
        b"\x80",  # -128, whose own length is two bytes, in one
        b"\x00\x80",  # -32768, whose own length is three bytes, in two
    ], ids=bytes.hex)
    def test_value_not_in_its_own_length(self, tmp_path, encoding):
        # Each decodes to its value but is not the file's encoding of it.
        # The canonical -1 before it must not shift the index.
        path = tmp_path / "d.bin"
        second = _segment([1, len(encoding)], b"\xff" + encoding)
        path.write_bytes(HEADER_D + _segment([1], b"\x01") + second)
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert f"value 2 is not in its {len(encoding)}-byte form" in str(err.value)

    def test_canonical_negatives_load_exactly(self, tmp_path):
        path = tmp_path / "d.bin"
        values = b"\x01" + b"\xff" + b"\x7f" + b"\x80\xff" + b"\x00\x01" + b"\x00"
        path.write_bytes(HEADER_D + _segment([1, 1, 1, 2, 2, 1], values))
        assert read_sequence(str(path), "d") == [1, -1, 127, -128, 256, 0]

    def test_zero_length_value(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(HEADER_D + _segment([1, 0], b"\x01"))
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "value 1 is not in its 0-byte form" in str(err.value)

    def test_count_checked_before_unpacking(self, tmp_path):
        path = tmp_path / "d.bin"
        # A second segment declaring 2^32 - 1 values in the 9 bytes left.
        huge = struct.pack("<I", 2 ** 32 - 1) + b"\x01\x00\x00\x00\x01"
        path.write_bytes(HEADER_D + _segment([1], b"\x01") + huge)
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        at = len(HEADER_D) + 13
        assert f"segment at byte {at}: count={2 ** 32 - 1} does not fit the 9 bytes left" in str(err.value)

    def test_file_shrinking_during_read_is_caught(self, tmp_path, monkeypatch):
        # The size is taken once, before reading; a file cut short after that
        # must not load, even where the short read still decodes (b"" -> 0).
        path = tmp_path / "d.bin"
        append_sequence(str(path), "d", [1, 1, -1])
        data = path.read_bytes()
        stat = os.stat_result((0,) * 6 + (len(data),) + (0,) * 3)
        monkeypatch.setattr(os, "fstat", lambda fd: stat)
        for cut in (1, 5, 9):  # inside the checksum, the value d(2), the lengths
            path.write_bytes(data[:-cut])
            with pytest.raises(CacheFormatError) as err:
                read_sequence(str(path), "d")
            assert "changed while being read" in str(err.value), cut

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"ROMIKCACHE v4 seq=d" + b"0" * 100)
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "no header line" in str(err.value)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(HEADER_D)
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "no segment after the header" in str(err.value)
        path.write_bytes(HEADER_D + _segment([], b""))
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert f"segment at byte {len(HEADER_D)} holds no values" in str(err.value)
        # An empty file is what a store leaves between creating and locking it.
        path.write_bytes(b"")
        assert read_sequence(str(path), "d") == []
        assert load_cache(str(tmp_path)).known_values("d") == [1]

    def test_s_table_gap(self, tmp_path, small_cache):
        # Rows 1..3 with s(2,2) missing: five entries, so row 3 is short.
        flat = [x for row in small_cache.known_s_rows()[:3] for x in row]
        del flat[2]
        path = tmp_path / "s.bin"
        append_sequence(str(path), "s", flat)
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(tmp_path)).stored_s_rows()
        assert "count=5 is not triangular: row 3 stops after 2 of 3 entries" in str(err.value)

    def test_s_table_truncated_row(self, tmp_path, small_cache):
        rows = small_cache.known_s_rows()
        path = tmp_path / "s.bin"
        append_sequence(str(path), "s", rows[0] + rows[1] + rows[2][:1])
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(tmp_path)).stored_s_rows()
        assert "row 3 stops after 1 of 3 entries" in str(err.value)

    def test_even_d_value_rejected_on_load(self, tmp_path):
        append_sequence(str(tmp_path / "d.bin"), "d", [1, 1, -1])
        ok = load_cache(str(tmp_path))
        assert ok.known_values("d") == [1, 1, -1]
        (tmp_path / "d.bin").unlink()
        append_sequence(str(tmp_path / "d.bin"), "d", [1, 1, -2])
        with pytest.raises(ValueError):
            load_cache(str(tmp_path))

    def test_bad_seed_rejected_on_load(self, tmp_path):
        append_sequence(str(tmp_path / "u.bin"), "u", [2, 6])
        with pytest.raises(ValueError):
            load_cache(str(tmp_path))

    def test_bad_diagonal_rejected_on_load(self, tmp_path):
        append_sequence(str(tmp_path / "s.bin"), "s", [1, 24, 3])
        with pytest.raises(ValueError):
            load_cache(str(tmp_path))


def _edit_value(data, index, edit):
    """The v4 file data with value index stored as edit(its bytes), and its
    segment's lengths and checksum rewritten to match."""
    first = 0
    for start in _segment_starts(data):
        (count,) = struct.unpack_from("<I", data, start)
        if index < first + count:
            lengths = list(struct.unpack_from(f"<{count}I", data, start + 4))
            begin = start + 4 + 4 * count
            end = begin + sum(lengths)
            i = index - first
            at = begin + sum(lengths[:i])
            stop = at + lengths[i]
            new = edit(data[at:stop])
            lengths[i] = len(new)
            values = data[begin:at] + new + data[stop:end]
            return data[:start] + _segment(lengths, values) + data[end + 4:]
        first += count
    raise IndexError(index)


def _drop(n):
    return lambda data: data[:-n]


def _shift_count(delta):
    def edit(data):
        last = _segment_starts(data)[-1]
        (count,) = struct.unpack_from("<I", data, last)
        return data[:last] + struct.pack("<I", count + delta) + data[last + 4:]
    return edit


# Each edit of the last segment and the check that catches it.
TORN = {
    "drop-1": (_drop(1), "header and lengths declare"),
    "drop-3": (_drop(3), "header and lengths declare"),
    "append-1": (lambda data: data + b"\x00", "is cut inside its count"),
    "count+1": (_shift_count(1), "header and lengths declare"),
    "count-1": (_shift_count(-1), "checksum mismatch"),
}


def _bulk(n):
    cache = SequenceCache()
    cache.d(n)
    cache.u(n)
    cache.v(n)
    return cache


def _stored_files(directory, *bounds):
    """The files of one directory grown by a store at each bound in turn."""
    for n in bounds:
        store_cache(str(directory), _bulk(n))
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


class TestTornWrite:
    """A file cut short, extended, or with an edited count in its last
    segment is rejected; it never loads as a plausible wrong table (v1 text
    loaded v.txt with its last 3 bytes dropped and returned a wrong v(40))."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        files = _stored_files(tmp_path_factory.mktemp("torn"), 20, 40)
        assert all(len(_segment_starts(data)) == 2 for data in files.values())
        return files

    @pytest.mark.parametrize("edit", sorted(TORN))
    @pytest.mark.parametrize("name", ["u", "v", "d", "s"])
    def test_rejected_by_load_and_cache_check(self, tmp_path, capsys, stored, name, edit):
        for filename, data in stored.items():
            (tmp_path / filename).write_bytes(data)
        path = tmp_path / f"{name}.bin"
        change, message = TORN[edit]
        path.write_bytes(change(stored[f"{name}.bin"]))
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(tmp_path))
        assert err.value.path == str(path)
        assert message in str(err.value)
        assert main(["cache", "check", "--dir", str(tmp_path)]) == 2
        assert f"romik: error: {path}: " in capsys.readouterr().err


class TestAppendOnly:
    """Growth appends segments past what a file holds and rewrites nothing."""

    @pytest.fixture
    def grown(self, tmp_path):
        """A directory stored at 20 and grown to 40 by the CLI, with the
        files as they were at 20."""
        directory = tmp_path / "cache"
        assert main(["cache", "build", "--dir", str(directory), "--max", "20"]) == 0
        first = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
        argv = ["compute", "--seq", "s", "--max", "40", "--cache-dir", str(directory)]
        assert main(argv) == 0
        return directory, first

    def test_growth_keeps_the_first_segment(self, grown, capsys):
        directory, first = grown
        for name, before in first.items():
            after = (directory / name).read_bytes()
            assert after[:len(before)] == before, name
        s_file = (directory / "s.bin").read_bytes()
        starts = _segment_starts(s_file)
        assert len(starts) > 1
        assert struct.unpack_from("<I", s_file, starts[0]) == (20 * 21 // 2,)  # rows 1..20
        assert load_cache(str(directory)).known_s_rows() == _bulk(40).known_s_rows()
        capsys.readouterr()
        assert main(["cache", "check", "--dir", str(directory)]) == 0
        assert "SEQ s ROWS 40" in capsys.readouterr().out

    @pytest.mark.parametrize("part, inside", [
        ("count", lambda start, data: start + 2),
        ("lengths", lambda start, data: start + 6),
        ("values", lambda start, data: len(data) - 6),
        ("checksum", lambda start, data: len(data) - 2),
    ])
    def test_cut_last_segment_is_rejected(self, grown, capsys, part, inside):
        directory, _ = grown
        path = directory / "s.bin"
        data = path.read_bytes()
        cut = data[:inside(_segment_starts(data)[-1], data)]
        path.write_bytes(cut)
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(directory))
        assert err.value.path == str(path)
        capsys.readouterr()
        assert main(["cache", "check", "--dir", str(directory)]) == 2
        assert f"romik: error: {path}: " in capsys.readouterr().err
        # A store never extends or repairs a file it cannot validate.
        with pytest.raises(CacheFormatError) as err:
            store_cache(str(directory), _bulk(44))
        assert "remove the cache directory" in str(err.value)
        assert path.read_bytes() == cut

    def test_flipped_value_byte_fails_checksum(self, grown):
        directory, _ = grown
        path = directory / "d.bin"
        data = bytearray(path.read_bytes())
        last = _segment_starts(bytes(data))[-1]
        data[-5] ^= 0x01  # the last byte of the last value, d(40)
        path.write_bytes(bytes(data))
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(directory))
        assert str(err.value) == f"{path}: checksum mismatch in the segment at byte {last}"

    def test_store_with_nothing_new_writes_nothing(self, grown):
        # Every write lands at the end of a file, so an unchanged size and
        # modification time mean no byte was written.
        directory, _ = grown

        def stats():
            return {name: (directory / name).stat() for name in sorted(os.listdir(directory))}

        before = {name: (st.st_size, st.st_mtime_ns) for name, st in stats().items()}
        store_cache(str(directory), load_cache(str(directory)))
        store_cache(str(directory), SequenceCache())  # nor does a cache holding only seeds
        assert {name: (st.st_size, st.st_mtime_ns) for name, st in stats().items()} == before

    def test_segments_close_at_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_io, "SEGMENT_BYTES", 64)
        values = _bulk(60).known_values("d")
        path = tmp_path / "d.bin"
        append_sequence(str(path), "d", values)
        data = path.read_bytes()
        starts = _segment_starts(data) + [len(data)]
        for start, end in zip(starts, starts[1:]):
            (count,) = struct.unpack_from("<I", data, start)
            lengths = struct.unpack_from(f"<{count}I", data, start + 4)
            assert sum(lengths[:-1]) < 64 <= sum(lengths) or end == len(data)
        assert len(starts) > 3
        assert read_sequence(str(path), "d") == values

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.one_of(
            st.sampled_from([0, 1, -1]),
            # the edges +-2^(8L-1) of each length, and their neighbours
            st.builds(lambda bits, sign, step: sign * (1 << bits) + step,
                      st.integers(0, 249).map(lambda length: 8 * length + 7),
                      st.sampled_from([1, -1]), st.integers(-1, 1)),
            st.integers(1 - (1 << 2000), (1 << 2000) - 1),
        ), min_size=1, max_size=40),
        split=st.integers(min_value=0),
        cap=st.integers(1, 600),
    )
    def test_round_trip_over_signs_and_sizes(self, values, split, cap):
        # Two appends, so that the second starts past a file's last segment.
        split %= len(values) + 1
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(cache_io, "SEGMENT_BYTES", cap):
            path = os.path.join(directory, "d.bin")
            append_sequence(path, "d", values[:split])
            append_sequence(path, "d", values)
            assert read_sequence(path, "d") == values
            data = Path(path).read_bytes()
        counts, lengths = [], []
        for start in _segment_starts(data):
            (n,) = struct.unpack_from("<I", data, start)
            counts.append(n)
            lengths += struct.unpack_from(f"<{n}I", data, start + 4)
        assert lengths == [(x.bit_length() + 8) >> 3 for x in values]
        expected = _segment_counts(lengths[:split], cap) + _segment_counts(lengths[split:], cap)
        assert counts == expected

    def test_two_processes_grow_one_directory(self, tmp_path):
        directory = tmp_path / "cache"
        assert main(["cache", "build", "--dir", str(directory), "--max", "12"]) == 0
        before = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(romik.__file__))}
        with ExitStack() as running:
            writers = []
            for n in (36, 48):
                argv = ["compute", "--seq", "s", "--max", str(n), "--cache-dir", str(directory)]
                writer = running.enter_context(subprocess.Popen(
                    [sys.executable, "-m", "romik", *argv],
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
                ))
                running.callback(writer.kill)  # a no-op once it has exited
                writers.append(writer)
            with ExitStack() as held:
                for name in before:  # loads may go on; every store must wait
                    handle = held.enter_context(open(directory / name, "rb"))
                    fcntl.flock(handle.fileno(), fcntl.LOCK_SH)
                with pytest.raises(subprocess.TimeoutExpired):
                    writers[0].wait(timeout=2)
                assert writers[1].poll() is None
                assert {name: (directory / name).read_bytes() for name in before} == before
            # Released: both stores now contend for each file's lock.
            for writer in writers:
                _, err = writer.communicate(timeout=120)
                assert writer.returncode == 0, err
        loaded = load_cache(str(directory))
        bulk = _bulk(48)
        assert loaded.s_bound == 48
        assert loaded.known_s_rows() == bulk.known_s_rows()
        for name in "uvd":
            values = loaded.known_values(name)
            assert values == bulk.known_values(name)[:len(values)], name
        for name, data in before.items():
            assert (directory / name).read_bytes().startswith(data), name


class TestFuzzedFiles:
    """Whatever the bytes, load_cache returns a cache or raises ValueError
    (CacheFormatError is one), which the CLI maps to exit 2; any other
    exception would escape as exit 1, the verdict-failure code."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        return _stored_files(tmp_path_factory.mktemp("fuzz"), 4, 8)

    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from(["u.bin", "v.bin", "d.bin", "s.bin"]),
        cut=st.integers(min_value=0, max_value=400),
        tail=st.binary(max_size=64),
        edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)), max_size=6),
    )
    def test_load_raises_only_value_errors(self, stored, name, cut, tail, edits):
        data = bytearray(stored[name])
        del data[len(data) - min(cut, len(data)):]
        data += tail
        for position, byte in edits:
            if data:
                data[position % len(data)] = byte
        with tempfile.TemporaryDirectory() as directory:
            for filename, original in stored.items():
                Path(directory, filename).write_bytes(bytes(data) if filename == name else original)
            try:
                load_cache(directory)
            except ValueError:
                pass


class TestSTableFile:
    def test_round_trip(self, tmp_path, small_cache):
        path = str(tmp_path / "s.bin")
        rows = small_cache.stored_s_rows()
        append_sequence(path, "s", chain.from_iterable(rows))
        assert load_cache(str(tmp_path)).stored_s_rows() == rows

    def test_header(self, tmp_path, small_cache):
        path = tmp_path / "s.bin"
        append_sequence(str(path), "s", chain.from_iterable(small_cache.stored_s_rows()))
        data = path.read_bytes()
        header, rest = data.split(b"\n", 1)
        assert header == b"ROMIKCACHE v4 seq=s"
        assert struct.unpack_from("<2I", rest) == (36, 1)  # rows 1..8; s(1,1) has 1 byte
        assert rest[4 * 37:4 * 37 + 1] == b"\x01"  # s(1,1) = 1


class TestRestoreOnDemand:
    """load_cache checks all of s.bin up front and decodes a row only when
    the cache first reads it."""

    @pytest.fixture(scope="class")
    def stored40(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("s40")
        store_cache(str(directory), _bulk(40))
        return directory

    @pytest.mark.parametrize("seed", range(6))
    def test_loaded_rows_answer_as_a_fresh_cache(self, stored40, seed):
        loaded, fresh = load_cache(str(stored40)), SequenceCache()
        assert loaded.s_bound == 40
        rng = random.Random(seed)
        for _ in range(8):
            n = rng.randint(1, 60)
            k = rng.randint(1, n)
            read = rng.choice(["s", "r", "d"])
            args = (n,) if read == "d" else (n, k)
            assert getattr(loaded, read)(*args) == getattr(fresh, read)(*args), (read, args)
        assert loaded.s_bound == max(40, fresh.s_bound)
        assert loaded.stored_s_rows()[:fresh.s_bound] == fresh.stored_s_rows()

    def test_planted_value_is_met_by_the_rows_reaching_it(self, tmp_path, capsys):
        # Grown from 40 to 60 rows, so rows 41..60 are a segment of their own:
        # a segment is what a read decodes.
        _stored_files(tmp_path, 40, 60)
        path = tmp_path / "s.bin"
        data = path.read_bytes()
        counts = [struct.unpack_from("<I", data, at)[0] for at in _segment_starts(data)]
        assert counts == [820, 1010]
        index = 50 * 49 // 2 + 9  # s^(50, 10), with a zero byte it does not need
        path.write_bytes(_edit_value(data, index, lambda b: b + b"\x00"))
        files = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        loaded = load_cache(str(tmp_path))
        assert loaded.s(40, 10) == _bulk(40).s(40, 10)
        with pytest.raises(CacheFormatError) as err:
            loaded.s(41, 1)
        assert err.value.path == str(path)
        assert f"value {index} is not in its " in str(err.value)
        with pytest.raises(ValueError, match="rows past 40 are not readable"):
            loaded.s(41, 1)  # a second read fails too
        with pytest.raises(CacheFormatError):
            load_cache(str(tmp_path)).stored_s_rows()

        directory = str(tmp_path)
        # The grid reads no cache dir, so it never meets the planted value.
        for max_n in ("10", "55"):
            assert main(["grid", "--prime", "5", "--max-n", max_n]) == 0
            expected = capsys.readouterr().out
            assert main(["grid", "--prime", "5", "--max-n", max_n, "--cache-dir", directory]) == 0
            assert capsys.readouterr() == (expected, "")
        # Each of these reaches row 50: cache check reads every row, and the
        # store of u's growth would write s.bin's rows.
        for argv, remedy in [
            (["compute", "--seq", "u", "--max", "70", "--cache-dir", directory], True),
            (["cache", "check", "--dir", directory], False),
        ]:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"romik: error: {path}: value {index} is not in its "), argv
            assert ("remove the cache directory and build it again" in err) == remedy, argv
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == files

    @pytest.mark.parametrize("encoding, reason", [
        (b"\x03", "s(35,35) = 3, expected 1"),
        (b"\xff", "s(35,35) = -1, expected 1"),
        (b"\x01\x00", f"value {35 * 36 // 2 - 1} is not in its 2-byte form"),
    ])
    def test_bad_diagonal_in_a_later_segment_is_refused_at_load(
        self, tmp_path, monkeypatch, encoding, reason
    ):
        monkeypatch.setattr(cache_io, "SEGMENT_BYTES", 256)
        store_cache(str(tmp_path), _bulk(40))
        path = tmp_path / "s.bin"
        data = path.read_bytes()
        index = 35 * 36 // 2 - 1  # s^(35, 35)
        (first_count,) = struct.unpack_from("<I", data, _segment_starts(data)[0])
        assert first_count < index
        path.write_bytes(_edit_value(data, index, lambda b: encoding))
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(tmp_path))
        assert str(err.value) == f"{path}: {reason}"

    def test_rows_are_restored_from_the_bytes_read_at_load(self, tmp_path):
        store_cache(str(tmp_path), _bulk(20))
        loaded = load_cache(str(tmp_path))
        store_cache(str(tmp_path), _bulk(30))  # another writer appends rows 21..30
        path = tmp_path / "s.bin"
        # and the file is garbled after that: the loaded cache never reads it again.
        path.write_bytes(_edit_value(path.read_bytes(), 0, lambda b: b"\x01\x00"))
        assert loaded.s_bound == 20
        assert loaded.stored_s_rows() == _bulk(20).stored_s_rows()
