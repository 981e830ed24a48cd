"""Tests for the on-disk cache format: round trips and corruption handling."""

import os
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romik import SequenceCache
from romik.cache_io import (
    CacheFormatError,
    CacheVersionError,
    load_cache,
    read_s_table,
    read_sequence,
    store_cache,
    write_s_table,
    write_sequence,
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
        assert header == b"ROMIKCACHE v3 seq=d count=9"
        lengths = struct.unpack_from("<9I", rest)
        values = rest[4 * 9:]
        assert len(values) == sum(lengths)
        assert values[:1] == b"\x01"  # d(0) = 1
        assert values[2:3] == b"\xff"  # d(2) = -1
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


class TestPinnedFormat:
    """Byte-exact files for the cache of d(4); any format drift fails here."""

    EXPECTED = {
        # u = 1, 6, 256, 28560
        "u.bin": b"ROMIKCACHE v3 seq=u count=4\n"
        + bytes.fromhex("01000000 01000000 02000000 02000000")
        + bytes.fromhex("01 06 0001 906f"),
        # v = 1, 1, 47, 7395, 2453425
        "v.bin": b"ROMIKCACHE v3 seq=v count=5\n"
        + bytes.fromhex("01000000 01000000 01000000 02000000 03000000")
        + bytes.fromhex("01 01 2f e31c b16f25"),
        # d = 1, 1, -1, 51, 849
        "d.bin": b"ROMIKCACHE v3 seq=d count=5\n"
        + bytes.fromhex("01000000 01000000 01000000 01000000 02000000")
        + bytes.fromhex("01 01 ff 33 5103"),
        # stored rows s(n, k) >> (E(n) - E(k)): [1], [6, 1], [237, 60, 1], [4914, 1526, 42, 1]
        "s.bin": b"ROMIKCACHE v3 seq=s count=10\n"
        + bytes.fromhex(
            "01000000 01000000 01000000 02000000 01000000"
            " 01000000 02000000 02000000 01000000 01000000"
        )
        + bytes.fromhex("01 06 01 ed00 3c 01 3213 f605 2a 01"),
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
        for name, data in V2_FILES.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(CacheVersionError) as err:
            load_cache(str(tmp_path))
        assert "unsupported version 'v2' (supported: v3)" in str(err.value)
        for name in ("u.bin", "v.bin", "d.bin"):  # s.bin alone is rejected too
            (tmp_path / name).unlink()
        with pytest.raises(CacheVersionError):
            load_cache(str(tmp_path))
        assert main(["cache", "check", "--dir", str(tmp_path)]) == 2
        assert "unsupported version" in capsys.readouterr().err

    @pytest.mark.parametrize("x", [0, 1, -1, 127, 128, -128, -129, 255, 256, -(1 << 63), 7 ** 900])
    def test_each_value_has_one_encoding(self, tmp_path, x):
        path = str(tmp_path / "s.bin")
        write_sequence(path, "s", [x])
        data = (tmp_path / "s.bin").read_bytes()
        (length,) = struct.unpack_from("<I", data, data.index(b"\n") + 1)
        assert length == (x.bit_length() + 8) // 8
        assert read_sequence(path, "s") == [x]


def _header(name, count):
    return f"ROMIKCACHE v3 seq={name} count={count}\n".encode("ascii")


class TestCorruption:
    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"ROMIKCACHE v1 seq=d\n0 1\n")
        with pytest.raises(CacheVersionError) as err:
            read_sequence(str(path), "d")
        assert "unsupported version 'v1'" in str(err.value)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"SOMETHINGELSE v3 seq=d count=1\n\x01\x00\x00\x00\x01")
        with pytest.raises(CacheFormatError):
            read_sequence(str(path), "d")

    def test_wrong_sequence_tag(self, tmp_path):
        path = tmp_path / "d.bin"
        write_sequence(str(path), "u", [1])
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert not isinstance(err.value, CacheVersionError)
        assert "seq=d" in str(err.value)

    def test_gap_is_named(self, tmp_path):
        # d = 1, 1, -1, 51 with the value d(2) cut out but the count kept.
        path = tmp_path / "d.bin"
        write_sequence(str(path), "d", [1, 1, -1, 51])
        data = path.read_bytes()
        path.write_bytes(data[:-2] + data[-1:])
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert f"file has {len(data) - 1} bytes" in str(err.value)
        assert f"declare {len(data)}" in str(err.value)
        assert err.value.path == str(path)

    def test_non_integer_value(self, tmp_path):
        # Only the count store_cache writes is read: no sign, space or leading zero.
        path = tmp_path / "d.bin"
        for count in (b"x", b"-1", b"+4", b"04", b"4 ", b"", b"\xb2"):
            path.write_bytes(b"ROMIKCACHE v3 seq=d count=" + count + b"\n" + bytes(4 * 4 + 4))
            with pytest.raises(CacheFormatError) as err:
                read_sequence(str(path), "d")
            assert "expected header" in str(err.value), count

    def test_value_not_in_its_own_length(self, tmp_path):
        # 1 stored in two bytes decodes to 1 but is not the file's encoding.
        path = tmp_path / "d.bin"
        path.write_bytes(_header("d", 1) + struct.pack("<I", 2) + b"\x01\x00")
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "value 0" in str(err.value)

    def test_zero_length_value(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(_header("d", 2) + struct.pack("<2I", 1, 0) + b"\x01")
        with pytest.raises(CacheFormatError):
            read_sequence(str(path), "d")

    def test_count_checked_before_unpacking(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(_header("d", 10 ** 40) + b"\x01\x00\x00\x00\x01")
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert f"count={10 ** 40} does not fit a file of" in str(err.value)

    def test_file_shrinking_during_read_is_caught(self, tmp_path, monkeypatch):
        # The size is taken once, before reading; a file cut short after that
        # must not load, even where the short read still decodes (b"" -> 0).
        path = tmp_path / "d.bin"
        write_sequence(str(path), "d", [1, 1, -1])
        data = path.read_bytes()
        stat = os.stat_result((0,) * 6 + (len(data),) + (0,) * 3)
        monkeypatch.setattr(os, "fstat", lambda fd: stat)
        path.write_bytes(data[:-1])  # the last value, d(2), is cut off
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "changed while being read" in str(err.value)
        path.write_bytes(data[:len(_header("d", 3)) + 6])  # cut inside the lengths
        with pytest.raises(CacheFormatError):
            read_sequence(str(path), "d")

    def test_missing_header_line(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"ROMIKCACHE v3 seq=d count=1" + b"0" * 100)
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "no header line" in str(err.value)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(_header("d", 0))
        with pytest.raises(CacheFormatError) as err:
            read_sequence(str(path), "d")
        assert "count=0 does not fit" in str(err.value)

    def test_s_table_gap(self, tmp_path, small_cache):
        # Rows 1..3 with s(2,2) missing: five entries, so row 3 is short.
        flat = [x for row in small_cache.known_s_rows()[:3] for x in row]
        del flat[2]
        path = tmp_path / "s.bin"
        write_sequence(str(path), "s", flat)
        with pytest.raises(CacheFormatError) as err:
            read_s_table(str(path))
        assert "count=5 is not triangular: row 3 stops after 2 of 3 entries" in str(err.value)

    def test_s_table_truncated_row(self, tmp_path, small_cache):
        rows = small_cache.known_s_rows()
        path = tmp_path / "s.bin"
        write_sequence(str(path), "s", rows[0] + rows[1] + rows[2][:1])
        with pytest.raises(CacheFormatError) as err:
            read_s_table(str(path))
        assert "row 3 stops after 1 of 3 entries" in str(err.value)

    def test_even_d_value_rejected_on_load(self, tmp_path):
        write_sequence(str(tmp_path / "d.bin"), "d", [1, 1, -1])
        ok = load_cache(str(tmp_path))
        assert ok.known_values("d") == [1, 1, -1]
        write_sequence(str(tmp_path / "d.bin"), "d", [1, 1, -2])
        with pytest.raises(ValueError):
            load_cache(str(tmp_path))

    def test_bad_seed_rejected_on_load(self, tmp_path):
        write_sequence(str(tmp_path / "u.bin"), "u", [2, 6])
        with pytest.raises(ValueError):
            load_cache(str(tmp_path))

    def test_bad_diagonal_rejected_on_load(self, tmp_path):
        write_s_table(str(tmp_path / "s.bin"), [[1], [24, 3]])
        with pytest.raises(ValueError):
            load_cache(str(tmp_path))


def _drop(n):
    return lambda data: data[:-n]


def _shift_count(delta):
    def edit(data):
        header, rest = data.split(b"\n", 1)
        prefix, count = header.rsplit(b"=", 1)
        return prefix + b"=" + str(int(count) + delta).encode() + b"\n" + rest
    return edit


TORN = {
    "drop-1": _drop(1),
    "drop-3": _drop(3),
    "append-1": lambda data: data + b"\x00",
    "count+1": _shift_count(1),
    "count-1": _shift_count(-1),
}


def _stored_files(directory, n):
    cache = SequenceCache()
    cache.d(n)
    cache.u(n)
    cache.v(n)
    store_cache(str(directory), cache)
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


class TestTornWrite:
    """A file cut short, extended, or with an edited count is rejected; it
    never loads as a plausible wrong table (v1 text loaded v.txt with its
    last 3 bytes dropped and returned a wrong v(40))."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        return _stored_files(tmp_path_factory.mktemp("torn"), 40)

    @pytest.mark.parametrize("edit", sorted(TORN))
    @pytest.mark.parametrize("name", ["u", "v", "d", "s"])
    def test_rejected_by_load_and_cache_check(self, tmp_path, capsys, stored, name, edit):
        for filename, data in stored.items():
            (tmp_path / filename).write_bytes(data)
        path = tmp_path / f"{name}.bin"
        path.write_bytes(TORN[edit](stored[f"{name}.bin"]))
        with pytest.raises(CacheFormatError) as err:
            load_cache(str(tmp_path))
        assert err.value.path == str(path)
        assert "header and lengths declare" in str(err.value)  # caught by the size check
        assert main(["cache", "check", "--dir", str(tmp_path)]) == 2
        assert f"romik: error: {path}: " in capsys.readouterr().err


class TestFuzzedFiles:
    """Whatever the bytes, load_cache returns a cache or raises ValueError
    (CacheFormatError is one), which the CLI maps to exit 2; any other
    exception would escape as exit 1, the verdict-failure code."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        return _stored_files(tmp_path_factory.mktemp("fuzz"), 8)

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
        write_s_table(path, rows)
        assert read_s_table(path) == rows

    def test_header(self, tmp_path, small_cache):
        path = tmp_path / "s.bin"
        write_s_table(str(path), small_cache.stored_s_rows())
        data = path.read_bytes()
        header, rest = data.split(b"\n", 1)
        assert header == b"ROMIKCACHE v3 seq=s count=36"  # rows 1..8
        assert struct.unpack_from("<I", rest) == (1,)
        assert rest[4 * 36:4 * 36 + 1] == b"\x01"  # s(1,1) = 1
