"""A stateful model of the cache session: commands run on one cache
directory while its files are damaged between them, and on a --cache-dir
that names a regular file or a path under one.

Each run prints what a fresh run with no cache directory prints, with its
exit code; or it exits 2 with ``romik: error:`` naming a damaged file, or
the path that is not a directory, and leaves every byte under the session's
root as it was.  ``grid`` has no session: whatever the path names, it
prints what a fresh run prints and leaves every byte as it was.  Edits that
rewrite a segment's checksum are left out: a value so edited is trusted by
the load."""

import contextlib
import functools
import io
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from romik import SequenceCache
from romik.cache_io import load_cache
from romik.cli import main

FILES = ("u.bin", "v.bin", "d.bin", "s.bin")
BOUNDS = (5, 12, 25, 40)
SMALL_BUILDS = (5, 12)
COMMANDS = [
    *(["compute", "--seq", seq, "--max", str(n)] for seq in ("d", "s") for n in BOUNDS),
    *(["verify", "--suite", suite, "--max", str(n)]
      for suite in ("parity", "mod5", "sums") for n in BOUNDS),
    *(["grid", "--prime", "7", "--max-n", str(n)] for n in BOUNDS),
    *(["scan-period", "--prime", "5", "--bound", str(n)] for n in (20, 40)),
    *(["cache", "build", "--max", str(n)] for n in BOUNDS),
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("ROMIK_CACHE_DIR", None)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _with_dir(argv, path):
    return [*argv, "--dir" if argv[0] == "cache" else "--cache-dir", path]


@functools.cache
def _references():
    """Each command's exit code and stdout from a fresh run (cache build's
    into a new directory, whose path reads {dir}), the true values to the
    largest bound, and the files of the small builds."""
    expected = {}
    builds = {}
    with tempfile.TemporaryDirectory() as root:
        for argv in COMMANDS:
            if argv[0] != "cache":
                expected[tuple(argv)] = _run(argv)[:2]
                continue
            directory = os.path.join(root, argv[-1])
            code, out, _ = _run(_with_dir(argv, directory))
            expected[tuple(argv)] = code, out.replace(directory, "{dir}")
            if int(argv[-1]) in SMALL_BUILDS:
                builds[argv[-1]] = {name: Path(directory, name).read_bytes() for name in FILES}
    assert {code for code, _ in expected.values()} == {0}  # so exit 2 is always a refusal
    true = SequenceCache()
    true.build_s_table(max(BOUNDS))
    true.u(max(BOUNDS))
    return expected, true, builds


class CacheSession(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.expected, self.true, self.builds = _references()
        self.root = tempfile.mkdtemp()
        self.directory = os.path.join(self.root, "c")
        self.plain = os.path.join(self.root, "plain")
        Path(self.plain).write_bytes(b"a regular file")
        self.suspect = set()  # files damaged since the last run that loaded them all

    def teardown(self):
        shutil.rmtree(self.root)

    def _names(self):
        return [name for name in FILES if os.path.isfile(os.path.join(self.directory, name))]

    def _snapshot(self):
        return {str(p): p.is_file() and p.read_bytes() for p in Path(self.root).rglob("*")}

    def _draw_file(self, data, nonempty=False):
        names = [
            name for name in self._names()
            if not nonempty or os.path.getsize(os.path.join(self.directory, name))
        ]
        name = data.draw(st.sampled_from(names))
        return name, os.path.join(self.directory, name)

    # -- commands ------------------------------------------------------

    @rule(argv=st.sampled_from(COMMANDS), cached=st.booleans())
    def run(self, argv, cached):
        cached = cached or argv[0] == "cache"
        before = self._snapshot()
        code, out, err = _run(_with_dir(argv, self.directory) if cached else argv)
        cached = cached and argv[0] != "grid"  # the grid loads and stores no cache dir
        if cached and code == 2:
            assert out == ""
            named = [os.path.join(self.directory, name) for name in self.suspect]
            assert any(err.startswith(f"romik: error: {path}: ") for path in named), err
            assert self._snapshot() == before
            return
        code_expected, out_expected = self.expected[tuple(argv)]
        assert (code, out, err) == (code_expected, out_expected.replace("{dir}", self.directory), "")
        if not cached:
            assert self._snapshot() == before
            return
        # The load read every file, and what the directory holds now is true.
        self.suspect.clear()
        held = load_cache(self.directory)
        for name in "uvd":
            values = held.known_values(name)
            assert values == self.true.known_values(name)[: len(values)]
        rows = held.stored_s_rows()
        assert rows == self.true.stored_s_rows()[: len(rows)]

    @rule(argv=st.sampled_from(COMMANDS), under=st.sampled_from(["", "c", "a/b"]), data=st.data())
    def run_on_a_file(self, argv, under, data):
        files = [self.plain, *(os.path.join(self.directory, name) for name in self._names())]
        file = data.draw(st.sampled_from(files))
        path = os.path.join(file, under) if under else file
        before = self._snapshot()
        if argv[0] == "grid":
            assert _run(_with_dir(argv, path)) == (*self.expected[tuple(argv)], "")
        else:
            assert _run(_with_dir(argv, path)) == (2, "", f"romik: error: {path}: Not a directory\n")
        assert self._snapshot() == before

    # -- damage --------------------------------------------------------

    @precondition(lambda self: self._names())
    @rule(data=st.data())
    def truncate(self, data):
        name, path = self._draw_file(data)
        os.truncate(path, data.draw(st.integers(0, os.path.getsize(path))))
        self.suspect.add(name)

    @precondition(lambda self: any(os.path.getsize(os.path.join(self.directory, n))
                                   for n in self._names()))
    @rule(data=st.data(), mask=st.integers(1, 255))
    def flip_a_byte(self, data, mask):
        name, path = self._draw_file(data, nonempty=True)
        contents = bytearray(Path(path).read_bytes())
        contents[data.draw(st.integers(0, len(contents) - 1))] ^= mask
        Path(path).write_bytes(contents)
        self.suspect.add(name)

    @precondition(lambda self: self._names())
    @rule(data=st.data(), tail=st.binary(min_size=1, max_size=24))
    def append_bytes(self, data, tail):
        name, path = self._draw_file(data)
        with open(path, "ab") as handle:
            handle.write(tail)
        self.suspect.add(name)

    @precondition(lambda self: self._names())
    @rule(data=st.data())
    def delete(self, data):
        name, path = self._draw_file(data)
        os.remove(path)
        self.suspect.discard(name)

    @precondition(lambda self: self._names())
    @rule(data=st.data(), bound=st.sampled_from([str(n) for n in SMALL_BUILDS]))
    def replace_with_a_smaller_build(self, data, bound):
        name, path = self._draw_file(data)
        Path(path).write_bytes(self.builds[bound][name])
        self.suspect.discard(name)


TestCacheSession = CacheSession.TestCase
TestCacheSession.settings = settings(max_examples=30, stateful_step_count=10, deadline=None)
