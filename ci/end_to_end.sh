#!/usr/bin/env bash
# The python -m entry point and the cache format, end to end.  Run from
# anywhere in a checkout:
#
#     bash ci/end_to_end.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Help and unknown words build every subparser; a named command builds only its own.
python -W error -m romik --help >/dev/null
python -m romik verify --help | grep -q -- --suite
status=0; python -m romik bogus || status=$?
test "$status" -eq 2
status=0; python -m romik verify --suite all --max 5 2> "$tmp/usage.txt" || status=$?
test "$status" -eq 2
grep -qxF "usage: romik [-h] {compute,grid,verify,scan-period,cache} ..." "$tmp/usage.txt"
python -W error -m romik verify --suite mod5 --max 10 | tee "$tmp/verify.txt"
grep -qx "SUITE mod5 RANGE 1..10 PRIME 5 RESULT PASS" "$tmp/verify.txt"
test "$(python -m romik verify --suite sums)" = "SUITE even_odd_sums RANGE 3..60 PRIME 5 RESULT PASS"
status=0; python -m romik verify --suite parity --prime 7 || status=$?
test "$status" -eq 2
test "$(python -m romik scan-period --prime 5 --bound 20)" = \
     "PRIME 5 BOUND 20 PREPERIOD 1 PERIOD 2 CYCLE 4,1"
test "$(python -m romik scan-period --prime 13 --bound 150 | cut -d' ' -f5-)" = \
     "$(python -m romik scan-period --prime 13 --bound 100 | cut -d' ' -f5-)"
for P in 2 5 7; do
  diff <(python -m romik grid --prime "$P" --max-n 40 --format csv | tail -n +2) \
       <(python -m romik compute --seq r --max 40 --mod "$P" --format csv | tail -n +2)
  diff <(python -m romik grid --prime "$P" --max-n 40 --format table) \
       <(python -m romik compute --seq r --max 40 --mod "$P")
  # The PGM: its header, then its pixel rows cut to the triangle k <= n.
  python -m romik grid --prime "$P" --max-n 40 --format pgm > "$tmp/grid.pgm"
  test "$(head -3 "$tmp/grid.pgm")" = "$(printf 'P2\n40 40\n%d' $((P - 1)))"
  diff <(tail -n +4 "$tmp/grid.pgm" |
           awk '{printf "%d:", NR; for (i = 1; i <= NR; i++) printf " %s", $i; print ""}') \
       <(python -m romik compute --seq r --max 40 --mod "$P")
done
# At p = 65537 the grid's slots are 128 bits wide, and its rows are the
# exact residues too; a PGM, whose maxval p - 1 must be below 65536, is
# refused there as a usage error.
diff <(python -m romik grid --prime 65537 --max-n 40 --format csv | tail -n +2) \
     <(python -m romik compute --seq r --max 40 --mod 65537 --format csv | tail -n +2)
status=0; python -m romik grid --prime 65537 --max-n 3 --format pgm > /dev/null || status=$?
test "$status" -eq 2
# The grid's per-prime table reaches past the exact table's bound: rows
# n <= 150 of a grid to 300 are the exact residues.
timeout 20 python -m romik grid --prime 5 --max-n 300 --format csv > "$tmp/grid300.csv"
diff <(awk -F, 'NR > 1 && $1 <= 150' "$tmp/grid300.csv") \
     <(python -m romik compute --seq r --max 150 --mod 5 --format csv | tail -n +2)
# The residue readers over stored rows 1..40 and rows grown past them
# print what a run with no cache dir prints.
python -m romik cache build --dir "$tmp/c40" --max 40
# Every build grows v and d with the rows: the s-table into a fresh
# directory stores the v, d and rows that cache build stores.
python -m romik compute --seq s --max 40 --cache-dir "$tmp/g40" > /dev/null
python -m romik cache check --dir "$tmp/g40" > "$tmp/g40.txt"
for line in "SEQ v COUNT 41" "SEQ d COUNT 41" "SEQ s ROWS 40"; do
  grep -qxF "$line" "$tmp/g40.txt"
done
for name in v d s; do
  cmp "$tmp/g40/$name.bin" "$tmp/c40/$name.bin"
done
for args in "verify" "scan-period --prime 13 --bound 100"; do
  rm -rf "$tmp/fresh40"
  cp -r "$tmp/c40" "$tmp/fresh40"
  python -m romik $args > "$tmp/plain.txt"
  python -m romik $args --cache-dir "$tmp/fresh40" > "$tmp/cached.txt"
  cmp "$tmp/plain.txt" "$tmp/cached.txt"
done
# The vanishing and sums suites read r mod p off the per-prime grid, never
# off stored rows: rows 1..20 stored again with s^(10, 3) + 1, checksums
# rewritten by store_cache, print what a run with no cache dir prints, and
# a sums run past the stored rows grows no table.
python -m romik cache build --dir "$tmp/e20" --max 20
python -W error - "$tmp/e20" "$tmp/edited20" <<'PY'
import sys
from romik.cache_io import load_cache, store_cache
from romik.core import SequenceCache
held = load_cache(sys.argv[1])
rows = [list(row) for row in held.stored_s_rows()]
rows[9][2] += 1
tables = {name: held.known_values(name) for name in "uvd"}
store_cache(sys.argv[2], SequenceCache.from_stored(**tables, s_rows=rows))
assert load_cache(sys.argv[2]).s(10, 3) != held.s(10, 3)
PY
for args in "verify --suite vanishing --prime 3 --max 20" "verify --suite sums --max 20"; do
  python -m romik $args > "$tmp/plain.txt"
  python -m romik $args --cache-dir "$tmp/edited20" > "$tmp/cached.txt"
  cmp "$tmp/plain.txt" "$tmp/cached.txt"
done
cp "$tmp/e20/s.bin" "$tmp/e20.bin"
python -m romik verify --suite sums --max 40 --cache-dir "$tmp/e20" > /dev/null
cmp "$tmp/e20.bin" "$tmp/e20/s.bin"
python -m romik cache build --dir "$tmp/c" --max 20
cp "$tmp/c/s.bin" "$tmp/s20.bin"
python -m romik cache build --dir "$tmp/c" --max 20
cmp "$tmp/s20.bin" "$tmp/c/s.bin"
python -m romik cache check --dir "$tmp/c" | tee "$tmp/check.txt"
grep -qx "SEQ s ROWS 20" "$tmp/check.txt"
# s and r shift the held rows back on read: restored rows 1..20 and rows
# 21..40 grown after them print what a run with no cache dir prints.
for args in "compute --seq s --max 40 --format csv" "compute --seq r --max 40"; do
  rm -rf "$tmp/fresh20"
  cp -r "$tmp/c" "$tmp/fresh20"
  python -m romik $args > "$tmp/plain.txt"
  python -m romik $args --cache-dir "$tmp/fresh20" > "$tmp/cached.txt"
  cmp "$tmp/plain.txt" "$tmp/cached.txt"
done
status=0; python -m romik cache check --dir "$tmp/none" || status=$?
test "$status" -eq 2
# A cache dir under a regular file is refused by the load, before any build.
printf 'a regular file' > "$tmp/file"
cp "$tmp/file" "$tmp/file.bak"
status=0
python -m romik cache build --max 60 --dir "$tmp/file/c" > "$tmp/file.out" 2> "$tmp/file.err" ||
  status=$?
test "$status" -eq 2
test ! -s "$tmp/file.out"
printf 'romik: error: %s: Not a directory\n' "$tmp/file/c" | cmp - "$tmp/file.err"
cmp "$tmp/file.bak" "$tmp/file"
python -m romik compute --seq s --max 60 --cache-dir "$tmp/c" > /dev/null
python -m romik cache check --dir "$tmp/c" | tee "$tmp/check60.txt"
grep -qx "SEQ s ROWS 60" "$tmp/check60.txt"
cmp -n "$(stat -c %s "$tmp/s20.bin")" "$tmp/s20.bin" "$tmp/c/s.bin"
test "$(stat -c %s "$tmp/c/s.bin")" -gt "$(stat -c %s "$tmp/s20.bin")"
cp -r "$tmp/c" "$tmp/torn"
truncate -s -1 "$tmp/torn/s.bin"
cp "$tmp/torn/s.bin" "$tmp/torn.bin"
status=0; python -m romik verify --suite sums --cache-dir "$tmp/torn" > "$tmp/torn.txt" || status=$?
test "$status" -eq 2
test ! -s "$tmp/torn.txt"
cmp "$tmp/torn.bin" "$tmp/torn/s.bin"
# A load decodes s.bin's rows as they are first read.  Plant a value that is
# not in its own length, checksum rewritten, in the second segment's first
# value, s^(21, 1): a grid to 10 does not reach it, cache check does.
cp -r "$tmp/c" "$tmp/planted"
python - "$tmp/planted/s.bin" <<'PY'
import struct, sys, zlib
path = sys.argv[1]
data = open(path, "rb").read()
first = data.index(b"\n") + 1
(count,) = struct.unpack_from("<I", data, first)
assert count == 210, count  # rows 1..20
start = first + 4 * count + 8 + sum(struct.unpack_from(f"<{count}I", data, first + 4))
(count,) = struct.unpack_from("<I", data, start)
lengths = list(struct.unpack_from(f"<{count}I", data, start + 4))
begin = start + 4 + 4 * count
end = begin + sum(lengths)
values = data[begin:begin + lengths[0]] + b"\0" + data[begin + lengths[0]:end]
lengths[0] += 1
body = struct.pack(f"<{count + 1}I", count, *lengths) + values
open(path, "wb").write(data[:start] + body + struct.pack("<I", zlib.crc32(body)) + data[end + 4:])
PY
python -m romik grid --prime 7 --max-n 10 --cache-dir "$tmp/planted" > /dev/null
status=0; python -m romik cache check --dir "$tmp/planted" > "$tmp/planted.txt" 2> "$tmp/planted.err" || status=$?
test "$status" -eq 2
test ! -s "$tmp/planted.txt"
grep -q "s.bin: value 210 is not in its" "$tmp/planted.err"
# Segments close where the values alone put them: a directory grown
# in steps, round-tripped into a fresh one, matches a one-shot build.
python -m romik compute --seq s --max 90 --cache-dir "$tmp/c" > /dev/null
cp "$tmp/c/s.bin" "$tmp/s90.bin"
python -m romik grid --prime 7 --max-n 10 --cache-dir "$tmp/c" > /dev/null
cmp "$tmp/s90.bin" "$tmp/c/s.bin"
python -W error -c 'import sys; from romik.cache_io import load_cache, store_cache; store_cache(sys.argv[2], load_cache(sys.argv[1]))' \
       "$tmp/c" "$tmp/c90"
python -m romik cache build --dir "$tmp/built90" --max 90
cmp "$tmp/built90/s.bin" "$tmp/c90/s.bin"
test "$(cmp -s "$tmp/c/s.bin" "$tmp/c90/s.bin"; echo $?)" -eq 1
# Rows 61..120 grown over 60 held rows split each row at a column that
# moves with n.  The grown files keep a segment boundary at row 60, so they
# are compared through a load/store round trip with a one-shot build.
python -m romik cache build --dir "$tmp/built120" --max 120
python -m romik cache build --dir "$tmp/grown120" --max 60
python -m romik cache build --dir "$tmp/grown120" --max 120
python -W error -c 'import sys; from romik.cache_io import load_cache, store_cache; store_cache(sys.argv[2], load_cache(sys.argv[1]))' \
       "$tmp/grown120" "$tmp/copied120"
for name in u v d s; do
  cmp "$tmp/copied120/$name.bin" "$tmp/built120/$name.bin"
done
# A large build forks a child for the later columns of each row when it may
# run on two CPUs; pinned to one CPU the same loop runs alone.  Both print
# the same verdicts and write the same u, v, d and rows.
if command -v taskset > /dev/null && [ "$(nproc)" -ge 2 ]; then
  python -m romik verify > "$tmp/free.txt"
  taskset -c 0 python -m romik verify > "$tmp/pinned.txt"
  cmp "$tmp/free.txt" "$tmp/pinned.txt"
  taskset -c 0 python -m romik cache build --dir "$tmp/pinned120" --max 120
  for name in u v d s; do
    cmp "$tmp/built120/$name.bin" "$tmp/pinned120/$name.bin"
  done
else
  echo "end to end: pinned and free builds not compared (needs taskset and two CPUs)"
fi
echo "end to end: all checks passed"
