"""End-to-end tests of the command-line interface (in-process, and through
``python -m`` in a subprocess)."""

import os
import subprocess
import sys
from itertools import chain

import pytest

import romik
from romik import SequenceCache, cli
from romik.cache_io import append_sequence, read_s_table
from romik.cli import main

D_LINE = "1,1,-1,51,849,-26199,1341999,82018251,18703396449"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ROMIK_CACHE_DIR", raising=False)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_d_sequence(self, capsys):
        code, out, _ = run_cli(["compute", "--seq", "d", "--max", "8"], capsys)
        assert code == 0
        assert out.strip() == D_LINE

    def test_u_and_v(self, capsys):
        code, out, _ = run_cli(["compute", "--seq", "u", "--max", "4"], capsys)
        assert (code, out.strip()) == (0, "1,6,256,28560,6071040")
        code, out, _ = run_cli(["compute", "--seq", "v", "--max", "5"], capsys)
        assert (code, out.strip()) == (0, "1,1,47,7395,2453425,1399055625")

    def test_mod_reduction_matches_plain_output(self, capsys):
        code, plain, _ = run_cli(["compute", "--seq", "d", "--max", "12"], capsys)
        assert code == 0
        code, reduced, _ = run_cli(
            ["compute", "--seq", "d", "--max", "12", "--mod", "7"], capsys
        )
        assert code == 0
        expected = [str(int(x) % 7) for x in plain.strip().split(",")]
        assert reduced.strip().split(",") == expected

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--seq", "d", "--max", "3", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines() == ["n,value", "0,1", "1,1", "2,-1", "3,51"]

    def test_triangle_table(self, capsys):
        code, out, _ = run_cli(["compute", "--seq", "r", "--max", "3"], capsys)
        assert code == 0
        assert out.splitlines() == ["1: 1", "2: 48 1", "3: 7584 240 1"]

    def test_triangle_csv_mod(self, capsys):
        code, out, _ = run_cli(
            ["compute", "--seq", "s", "--max", "2", "--format", "csv", "--mod", "5"],
            capsys,
        )
        assert code == 0
        assert out.splitlines() == ["n,k,value", "1,1,1", "2,1,4", "2,2,1"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "d.csv"
        code, out, _ = run_cli(
            ["compute", "--seq", "d", "--max", "8", "--output", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == D_LINE

    def test_rejects_composite_mod(self, capsys):
        code, _, err = run_cli(
            ["compute", "--seq", "d", "--max", "4", "--mod", "9"], capsys
        )
        assert code == 2

    def test_rejects_bad_seq(self, capsys):
        code, _, _ = run_cli(["compute", "--seq", "x", "--max", "4"], capsys)
        assert code == 2


class TestGrid:
    def test_csv_and_pgm_encode_same_residues(self, capsys):
        code, csv_text, _ = run_cli(
            ["grid", "--prime", "5", "--max-n", "12", "--format", "csv"], capsys
        )
        assert code == 0
        code, pgm_text, _ = run_cli(
            ["grid", "--prime", "5", "--max-n", "12", "--format", "pgm"], capsys
        )
        assert code == 0
        pgm_rows = [line.split() for line in pgm_text.splitlines()[3:]]
        for line in csv_text.splitlines()[1:]:
            n, k, value = (int(x) for x in line.split(","))
            assert int(pgm_rows[n - 1][k - 1]) == value

    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--prime", "7", "--max-n", "3", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "n,k,residue",
            "1,1,1",
            "2,1,6",
            "2,2,1",
            "3,1,3",
            "3,2,2",
            "3,3,1",
        ]

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_table_matches_compute_mod_p(self, p, capsys):
        code, grid, _ = run_cli(
            ["grid", "--prime", str(p), "--max-n", "30", "--format", "table"], capsys
        )
        assert code == 0
        code, computed, _ = run_cli(
            ["compute", "--seq", "r", "--max", "30", "--mod", str(p)], capsys
        )
        assert (code, grid) == (0, computed)

    def test_pgm_header(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--prime", "7", "--max-n", "9", "--format", "pgm"], capsys
        )
        assert code == 0
        assert out.splitlines()[:3] == ["P2", "9 9", "6"]

    def test_highlight_n0_sidecar(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            [
                "grid", "--prime", "7", "--max-n", "30",
                "--output", str(target), "--highlight-n0",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "grid.csv.n0").read_text() == "n0=24\n"

    def test_highlight_n0_needs_three_mod_four(self, capsys):
        code, out, err = run_cli(
            ["grid", "--prime", "5", "--max-n", "10", "--highlight-n0"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("romik: error:")

    def test_rejects_composite_prime(self, capsys):
        code, _, _ = run_cli(["grid", "--prime", "6", "--max-n", "5"], capsys)
        assert code == 2


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "mod5", "--max", "25"], capsys)
        assert code == 0
        assert out.startswith("SUITE mod5 RANGE 1..25 PRIME 5 RESULT PASS")

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "parity", "--max", "10", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suite,lo,hi,prime,result,ce_n,ce_k,expected,actual"
        assert lines[1].startswith("parity,0,10,,PASS")

    def test_vanishing_requires_prime(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "vanishing"], capsys)
        assert code == 2

    def test_vanishing_rejects_one_mod_four(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "vanishing", "--prime", "5"], capsys)
        assert code == 2

    def test_uv_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "uv", "--prime", "5", "--max", "20"], capsys
        )
        assert code == 0
        assert "RESULT PASS" in out

    def test_corrupted_cache_fails_with_exit_one(self, tmp_path, capsys):
        cache = SequenceCache()
        cache.d(10)
        values = cache.known_values("d")
        values[6] += 2  # odd but off-pattern mod 5
        append_sequence(str(tmp_path / "d.bin"), "d", values)
        code, out, _ = run_cli(
            [
                "verify", "--suite", "mod5", "--max", "10",
                "--cache-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 1
        assert "RESULT FAIL" in out
        assert "CE n=6" in out

    def test_torn_cache_file_is_refused_before_any_output(self, tmp_path, capsys):
        directory = tmp_path / "store"
        code, _, _ = run_cli(["cache", "build", "--dir", str(directory), "--max", "10"], capsys)
        assert code == 0
        path = directory / "s.bin"
        torn = path.read_bytes()[:-1]
        path.write_bytes(torn)
        code, out, err = run_cli(
            ["verify", "--suite", "sums", "--cache-dir", str(directory)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"romik: error: {path}: ")
        assert "remove the cache directory and build it again" in err
        assert path.read_bytes() == torn

    def test_failed_store_prints_no_result(self, tmp_path, capsys):
        target = tmp_path / "regular-file"
        target.write_text("")
        code, out, err = run_cli(
            ["verify", "--suite", "sums", "--max", "5", "--cache-dir", str(target)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"romik: error: {target}: ")
        assert target.read_text() == ""

    def test_all_rejects_max_override(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "all", "--max", "10"], capsys)
        assert code == 2

    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert out.splitlines() == [
            f"SUITE {suite} RANGE {lo}..{hi} PRIME {p} RESULT PASS"
            for suite, lo, hi, p in [
                ("parity", 0, 150, "-"),
                ("mod5", 1, 150, 5),
                ("mod_p_vanishing", 5, 40, 3),
                ("mod_p_vanishing", 25, 60, 7),
                ("mod_p_vanishing", 61, 90, 11),
                ("uv_structure", 0, 40, 5),
                ("uv_structure", 0, 24, 3),
                ("uv_structure", 0, 44, 7),
                ("even_odd_sums", 3, 60, 5),
            ]
        ]

    @pytest.mark.parametrize("argv, first_line", [
        (["--suite", "sums"], "SUITE even_odd_sums RANGE 3..60 PRIME 5 RESULT PASS"),
        (["--suite", "uv", "--prime", "7"], "SUITE uv_structure RANGE 0..44 PRIME 7 RESULT PASS"),
        (["--suite", "uv", "--prime", "13"], "SUITE uv_structure RANGE 0..40 PRIME 13 RESULT PASS"),
        (["--suite", "vanishing", "--prime", "19"],
         "SUITE mod_p_vanishing RANGE 181..210 PRIME 19 RESULT PASS"),
    ])
    def test_single_suite_default_bounds(self, argv, first_line, capsys):
        code, out, _ = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert out.splitlines()[0] == first_line

    @pytest.mark.parametrize("suite", ["parity", "mod5", "sums"])
    def test_prime_less_suite_rejects_prime(self, suite, capsys):
        code, out, err = run_cli(["verify", "--suite", suite, "--prime", "7"], capsys)
        assert code == 2
        assert out == ""
        assert f"--suite {suite} takes no --prime" in err


class TestScanPeriod:
    def test_p5(self, capsys):
        code, out, _ = run_cli(["scan-period", "--prime", "5", "--bound", "30"], capsys)
        assert code == 0
        assert out.strip() == "PRIME 5 BOUND 30 PREPERIOD 1 PERIOD 2 CYCLE 4,1"

    def test_inconclusive_from_a_stored_cache(self, tmp_path, capsys):
        cache = SequenceCache()
        cache.d(20)
        values = cache.known_values("d")
        values[20] += 4  # odd, but breaks the period-2 cycle at the last index
        append_sequence(str(tmp_path / "d.bin"), "d", values)
        code, out, _ = run_cli(
            ["scan-period", "--prime", "5", "--bound", "20", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert (code, out) == (0, "PRIME 5 BOUND 20 INCONCLUSIVE\n")

    def test_rejects_three_mod_four(self, capsys):
        code, _, _ = run_cli(["scan-period", "--prime", "7", "--bound", "100"], capsys)
        assert code == 2

    def test_rejects_small_bound(self, capsys):
        code, _, _ = run_cli(["scan-period", "--prime", "13", "--bound", "10"], capsys)
        assert code == 2


class TestCacheCommand:
    def test_build_then_check(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        code, out, _ = run_cli(["cache", "build", "--dir", directory, "--max", "6"], capsys)
        assert code == 0
        code, out, _ = run_cli(["cache", "check", "--dir", directory], capsys)
        assert code == 0
        assert "SEQ d COUNT 7" in out
        assert "SEQ s ROWS 6" in out

    def test_check_rejects_gap(self, tmp_path, capsys):
        # d = 1, 1, -1 with the value d(1) cut out but the lengths kept.
        path = tmp_path / "d.bin"
        append_sequence(str(path), "d", [1, 1, -1])
        data = path.read_bytes()
        cut = len(data) - 4 - 2  # values end where the 4-byte checksum starts
        path.write_bytes(data[:cut] + data[cut + 1:])
        code, _, err = run_cli(["cache", "check", "--dir", str(tmp_path)], capsys)
        assert code == 2
        assert f"file has {len(data) - 1} bytes, header and lengths declare {len(data)}" in err

    def test_check_rejects_version(self, tmp_path, capsys):
        (tmp_path / "d.bin").write_bytes(b"ROMIKCACHE v1 seq=d\n0 1\n")
        code, _, err = run_cli(["cache", "check", "--dir", str(tmp_path)], capsys)
        assert code == 2
        assert "unsupported version" in err

    def test_build_appends_to_an_existing_directory(self, tmp_path, capsys):
        directory = tmp_path / "store"
        code, _, _ = run_cli(["cache", "build", "--dir", str(directory), "--max", "10"], capsys)
        assert code == 0
        before = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
        code, _, _ = run_cli(["cache", "build", "--dir", str(directory), "--max", "16"], capsys)
        assert code == 0
        for name, data in before.items():
            assert (directory / name).read_bytes().startswith(data), name
        code, out, _ = run_cli(["cache", "check", "--dir", str(directory)], capsys)
        assert (code, out.splitlines()[-2:]) == (0, ["SEQ d COUNT 17", "SEQ s ROWS 16"])

    def test_rebuild_over_a_full_directory_builds_nothing(self, tmp_path, capsys, monkeypatch):
        directory = tmp_path / "store"
        argv = ["cache", "build", "--dir", str(directory), "--max", "20"]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        before = {name: (directory / name).read_bytes() for name in os.listdir(directory)}
        built = []
        original = SequenceCache.build_s_table

        def spy(cache, max_n):
            bound = cache.s_bound
            original(cache, max_n)
            built.append(cache.s_bound - bound)

        monkeypatch.setattr(SequenceCache, "build_s_table", spy)
        code, again, _ = run_cli(argv, capsys)
        assert (code, again) == (0, first)
        assert sum(built) == 0
        assert {name: (directory / name).read_bytes() for name in os.listdir(directory)} == before

    def test_build_tops_up_tables_behind_d(self, tmp_path, capsys):
        # d.bin holds d(0..12) but v.bin and s.bin are missing, as after a
        # store that stopped once d.bin was written.
        cache = SequenceCache()
        cache.d(12)
        append_sequence(str(tmp_path / "d.bin"), "d", cache.known_values("d"))
        code, _, _ = run_cli(["cache", "build", "--dir", str(tmp_path), "--max", "12"], capsys)
        assert code == 0
        code, out, _ = run_cli(["cache", "check", "--dir", str(tmp_path)], capsys)
        assert (code, out.splitlines()) == (
            0, ["SEQ u COUNT 13", "SEQ v COUNT 13", "SEQ d COUNT 13", "SEQ s ROWS 12"]
        )

    def test_check_of_a_missing_directory_is_an_error(self, tmp_path, capsys):
        directory = tmp_path / "none"
        code, out, err = run_cli(["cache", "check", "--dir", str(directory)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"romik: error: {directory}: ")
        assert not directory.exists()

    def test_build_refuses_a_corrupt_file(self, tmp_path, capsys):
        directory = tmp_path / "store"
        code, _, _ = run_cli(["cache", "build", "--dir", str(directory), "--max", "10"], capsys)
        assert code == 0
        path = directory / "s.bin"
        torn = path.read_bytes()[:-1]
        path.write_bytes(torn)
        code, _, err = run_cli(["cache", "build", "--dir", str(directory), "--max", "16"], capsys)
        assert code == 2
        assert err.startswith(f"romik: error: {path}: ")
        assert "remove the cache directory and build it again" in err
        assert path.read_bytes() == torn

    @pytest.mark.parametrize("filename, values, reason", [
        ("d.bin", [1, 1, -2], "sequence d contains an even value"),
        ("u.bin", [2, 6], "sequence u must start with value 1"),
        ("s.bin", [1, 24, 3], "s(2,2) = 3, expected 1"),
    ])
    def test_build_names_a_file_that_fails_restore(self, tmp_path, capsys, filename, values, reason):
        # The file frames correctly; its values break an invariant of from_stored.
        path = tmp_path / filename
        append_sequence(str(path), filename[0], values)
        before = path.read_bytes()
        code, out, err = run_cli(["cache", "build", "--dir", str(tmp_path), "--max", "5"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"romik: error: {path}: {reason}; ")
        assert "remove the cache directory and build it again" in err
        assert os.listdir(tmp_path) == [filename]
        assert path.read_bytes() == before

    def test_growing_an_edited_table_is_an_error(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        code, _, _ = run_cli(["cache", "build", "--dir", directory, "--max", "10"], capsys)
        assert code == 0
        s_path = os.path.join(directory, "s.bin")
        rows = read_s_table(s_path)
        rows[9][4] += 1  # s(10, 5)
        os.unlink(s_path)
        append_sequence(s_path, "s", chain.from_iterable(rows))
        code, _, err = run_cli(
            ["compute", "--seq", "d", "--max", "16", "--cache-dir", directory], capsys
        )
        assert code == 2
        assert "not an integer" in err


class TestLibraryChecks:
    """Argument errors raised by the library surface as ``romik: error:``
    with exit 2, before any output and before the cache directory exists."""

    @pytest.mark.parametrize("argv", [
        ["scan-period", "--prime", "7", "--bound", "100"],
        ["grid", "--prime", "6", "--max-n", "5"],
        ["verify", "--suite", "vanishing", "--prime", "5"],
    ])
    def test_rejected_before_any_output(self, argv, tmp_path, capsys):
        directory = tmp_path / "cache"
        code, out, err = run_cli([*argv, "--cache-dir", str(directory)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("romik: error:")
        assert not directory.exists()


class TestParserChecks:
    """Bounds the CLI itself rejects exit 2 with a usage error, before any
    output and before the cache directory exists."""

    @pytest.mark.parametrize("argv", [
        ["compute", "--seq", "d", "--max", "-1", "--cache-dir"],
        ["compute", "--seq", "s", "--max", "0", "--cache-dir"],
        ["cache", "build", "--max", "-1", "--dir"],
    ])
    def test_rejected_before_any_output(self, argv, tmp_path, capsys):
        directory = tmp_path / "cache"
        code, out, err = run_cli([*argv, str(directory)], capsys)
        assert code == 2
        assert out == ""
        assert "error: --max must be >= " in err
        assert not directory.exists()


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["romik", "romik.cli"])
    def test_python_m_runs_the_cli(self, module):
        src = os.path.dirname(os.path.dirname(romik.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("ROMIK_CACHE_DIR", None)
        done = subprocess.run(
            [sys.executable, "-m", module, "verify", "--suite", "mod5", "--max", "10"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "SUITE mod5 RANGE 1..10 PRIME 5 RESULT PASS\n"


class TestCacheDirFlow:
    def test_compute_populates_and_reuses(self, tmp_path, capsys):
        directory = str(tmp_path / "cache")
        code, first, _ = run_cli(
            ["compute", "--seq", "d", "--max", "8", "--cache-dir", directory], capsys
        )
        assert code == 0
        assert os.path.exists(os.path.join(directory, "d.bin"))
        code, second, _ = run_cli(
            ["compute", "--seq", "d", "--max", "8", "--cache-dir", directory], capsys
        )
        assert code == 0
        assert first == second

    def test_store_comes_before_the_output(self, tmp_path, capsys):
        directory = tmp_path / "cache"
        target = tmp_path / "missing" / "d.txt"
        code, out, err = run_cli(
            ["compute", "--seq", "d", "--max", "8", "--cache-dir", str(directory),
             "--output", str(target)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"romik: error: {target}: ")
        assert (directory / "d.bin").exists()

    def test_small_grid_on_a_larger_directory_stores_nothing(self, tmp_path, capsys):
        directory = tmp_path / "cache"
        code, _, _ = run_cli(["cache", "build", "--dir", str(directory), "--max", "60"], capsys)
        assert code == 0

        def files():
            return {
                name: ((directory / name).read_bytes(), (directory / name).stat().st_mtime_ns)
                for name in sorted(os.listdir(directory))
            }

        before = files()
        argv = ["grid", "--prime", "7", "--max-n", "10"]
        code, out, _ = run_cli([*argv, "--cache-dir", str(directory)], capsys)
        assert (code, out) == run_cli(argv, capsys)[:2]
        assert code == 0
        assert files() == before

    def test_env_variable_is_honored(self, tmp_path, capsys, monkeypatch):
        directory = str(tmp_path / "envcache")
        monkeypatch.setenv("ROMIK_CACHE_DIR", directory)
        code, _, _ = run_cli(["compute", "--seq", "u", "--max", "5"], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(directory, "u.bin"))

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        env_dir = str(tmp_path / "envcache")
        flag_dir = str(tmp_path / "flagcache")
        monkeypatch.setenv("ROMIK_CACHE_DIR", env_dir)
        code, _, _ = run_cli(
            ["compute", "--seq", "u", "--max", "5", "--cache-dir", flag_dir], capsys
        )
        assert code == 0
        assert os.path.exists(os.path.join(flag_dir, "u.bin"))
        assert not os.path.exists(env_dir)


class TestCommandTable:
    @pytest.mark.parametrize("argv, code, built", [
        (["verify", "--suite", "mod5", "--max", "5"], 0, ["verify"]),
        (["--help"], 0, ["compute", "grid", "verify", "scan-period", "cache"]),
        (["bogus"], 2, ["compute", "grid", "verify", "scan-period", "cache"]),
    ], ids=["verify", "help", "unknown-word"])
    def test_a_run_builds_only_its_own_parser(self, argv, code, built, capsys, monkeypatch):
        called = []
        for name, (help_text, add_arguments, run) in cli.COMMANDS.items():
            def spy(parser, name=name, add_arguments=add_arguments):
                called.append(name)
                add_arguments(parser)
            monkeypatch.setitem(cli.COMMANDS, name, (help_text, spy, run))
        assert run_cli(argv, capsys)[0] == code
        assert called == built


# argparse owns the wording and the wrapping of these texts, which may change
# between CPython versions; they were captured with 3.11.
GOLDEN = {
    "--help": (
        0,
        """\
usage: romik [-h] {compute,grid,verify,scan-period,cache} ...

Exact computation and congruence verification for the Romik sequence d(n) and
its auxiliary tables.

positional arguments:
  {compute,grid,verify,scan-period,cache}
    compute             print sequence values
    grid                export the triangular grid r(n, k) mod p
    verify              run congruence verification suites
    scan-period         scan d(n) mod p for a residue period
    cache               manage the on-disk cache

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    "compute --help": (
        0,
        """\
usage: romik compute [-h] --seq {u,v,d,s,r} --max N [--mod P]
                     [--format {table,csv}] [--output PATH] [--cache-dir DIR]

options:
  -h, --help            show this help message and exit
  --seq {u,v,d,s,r}
  --max N               largest index n to print
  --mod P               reduce every value mod the prime P
  --format {table,csv}
  --output PATH         write here instead of stdout
  --cache-dir DIR
""",
        "",
    ),
    "grid --help": (
        0,
        """\
usage: romik grid [-h] --prime PRIME --max-n MAX_N [--format {table,csv,pgm}]
                  [--output PATH] [--highlight-n0] [--cache-dir DIR]

options:
  -h, --help            show this help message and exit
  --prime PRIME
  --max-n MAX_N
  --format {table,csv,pgm}
  --output PATH
  --highlight-n0        emit the k = n0 boundary as a sidecar marker (primes p
                        = 3 mod 4 only)
  --cache-dir DIR
""",
        "",
    ),
    "verify --help": (
        0,
        """\
usage: romik verify [-h] [--suite {parity,mod5,vanishing,uv,sums,all}]
                    [--prime PRIME] [--max N] [--format {table,csv}]
                    [--cache-dir DIR]

options:
  -h, --help            show this help message and exit
  --suite {parity,mod5,vanishing,uv,sums,all}
  --prime PRIME         prime for the vanishing/uv suites
  --max N               range bound override for a single suite
  --format {table,csv}
  --cache-dir DIR
""",
        "",
    ),
    "scan-period --help": (
        0,
        """\
usage: romik scan-period [-h] --prime PRIME --bound BOUND [--cache-dir DIR]

options:
  -h, --help       show this help message and exit
  --prime PRIME
  --bound BOUND    scan d(0..bound); must be at least 4p
  --cache-dir DIR
""",
        "",
    ),
    "cache --help": (
        0,
        """\
usage: romik cache [-h] {build,check} ...

positional arguments:
  {build,check}
    build        compute values and store them
    check        validate stored files and summarize

options:
  -h, --help     show this help message and exit
""",
        "",
    ),
    "cache build --help": (
        0,
        """\
usage: romik cache build [-h] --dir DIR --max N

options:
  -h, --help  show this help message and exit
  --dir DIR
  --max N
""",
        "",
    ),
    "cache check --help": (
        0,
        """\
usage: romik cache check [-h] --dir DIR

options:
  -h, --help  show this help message and exit
  --dir DIR
""",
        "",
    ),
    "": (
        2,
        "",
        """\
usage: romik [-h] {compute,grid,verify,scan-period,cache} ...
romik: error: the following arguments are required: command
""",
    ),
    "bogus": (
        2,
        "",
        """\
usage: romik [-h] {compute,grid,verify,scan-period,cache} ...
romik: error: argument command: invalid choice: 'bogus' (choose from 'compute', 'grid', 'verify', 'scan-period', 'cache')
""",
    ),
    "cache": (
        2,
        "",
        """\
usage: romik cache [-h] {build,check} ...
romik cache: error: the following arguments are required: cache_command
""",
    ),
    "verify --suite all --max 5": (
        2,
        "",
        """\
usage: romik [-h] {compute,grid,verify,scan-period,cache} ...
romik: error: --max/--prime apply to a single suite, not --suite all
""",
    ),
    "compute --seq s --max 0": (
        2,
        "",
        """\
usage: romik [-h] {compute,grid,verify,scan-period,cache} ...
romik: error: --max must be >= 1 for the s/r triangle
""",
    ),
    "grid --prime x --max-n 3": (
        2,
        "",
        """\
usage: romik grid [-h] --prime PRIME --max-n MAX_N [--format {table,csv,pgm}]
                  [--output PATH] [--highlight-n0] [--cache-dir DIR]
romik grid: error: argument --prime: invalid int value: 'x'
""",
    ),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="texts are CPython 3.11 argparse")
class TestGoldenText:
    """Exact stdout, stderr and exit code of help and usage errors, at a
    fixed terminal width."""

    @pytest.mark.parametrize(
        "argv", list(GOLDEN), ids=lambda argv: argv.replace(" ", "_") or "no-command"
    )
    def test_exact_text(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(argv.split(), capsys) == GOLDEN[argv]
