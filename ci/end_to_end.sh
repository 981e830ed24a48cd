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
test "$(python -m romik scan-period --prime 13 --bound 150 | cut -d' ' -f5-)" = \
     "$(python -m romik scan-period --prime 13 --bound 100 | cut -d' ' -f5-)"
for P in 2 5 7; do
  diff <(python -m romik grid --prime "$P" --max-n 40 --format csv | tail -n +2) \
       <(python -m romik compute --seq r --max 40 --mod "$P" --format csv | tail -n +2)
  diff <(python -m romik grid --prime "$P" --max-n 40 --format table) \
       <(python -m romik compute --seq r --max 40 --mod "$P")
done
python -m romik cache build --dir "$tmp/c" --max 20
cp "$tmp/c/s.bin" "$tmp/s20.bin"
python -m romik cache build --dir "$tmp/c" --max 20
cmp "$tmp/s20.bin" "$tmp/c/s.bin"
python -m romik cache check --dir "$tmp/c" | tee "$tmp/check.txt"
grep -qx "SEQ s ROWS 20" "$tmp/check.txt"
status=0; python -m romik cache check --dir "$tmp/none" || status=$?
test "$status" -eq 2
python -m romik verify --suite sums --cache-dir "$tmp/c"
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
python -m romik verify --suite sums --max 90 --cache-dir "$tmp/c"
cp "$tmp/c/s.bin" "$tmp/s90.bin"
python -m romik grid --prime 7 --max-n 10 --cache-dir "$tmp/c" > /dev/null
cmp "$tmp/s90.bin" "$tmp/c/s.bin"
python -W error -c 'import sys; from romik.cache_io import load_cache, store_cache; store_cache(sys.argv[2], load_cache(sys.argv[1]))' \
       "$tmp/c" "$tmp/c90"
python -m romik cache build --dir "$tmp/built90" --max 90
cmp "$tmp/built90/s.bin" "$tmp/c90/s.bin"
test "$(cmp -s "$tmp/c/s.bin" "$tmp/c90/s.bin"; echo $?)" -eq 1
echo "end to end: all checks passed"
