#!/usr/bin/env bash
# Smoke checks that CI runs after the tier-1 tests: the traced benchmark on
# every workload and one short untraced run, then the command-line interface
# end to end. Run from any directory as `bash scripts/smoke.sh`; it stops at
# the first failing check.
set -eo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

# Benchmark correctness: a failing run fails the script; coin-dense's sweeps
# read a row table per block of many rows, runs-long's test the staircase a
# chunk of spans at a time and search it only for the spans of the chunks
# that the bound keeps.
for workload in many-small coin-dense runs-long; do
  python3 bench/run.py --workload "$workload" --trace 1 | tail -n 1 |
    python3 -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)'
done
# Only untraced rounds compare every serving output, the length tables among
# them, with the first round's; one short run of them must be correct with
# no failed operation.
python3 bench/run.py --workload runs-long --trace 0 --seconds 1 | tail -n 1 |
  python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(not (r["correct"] is True and r["failed"] == 0))'

# CLI: verify's oracle grid calls query; texts of up to 48 characters take
# the sequential sweep, of up to 512 mostly the numpy block path, with
# fair-coin and with geometric runs; experiment draws its corpus as verify
# does; pnf, query and build import their modules on demand, and a jsonl
# build writes the same file and reports its size as `bytes`, which
# file_size of the loaded index must equal; the format version 1, 2 and 3
# files of the same index, written by the tests' reference writer, must give
# query and pnf output byte-identical to the version 4 file's, since the
# writer makes only version 4 files and the loader reads all four; a .cix
# file cut 3 bytes short must exit 2 as truncated, one with a payload byte
# flipped must fail its checksum and exit 2, a sealed one whose corner
# lists cross, written by the reference writer, must exit 2 at its first
# query and in pnf, and pnf on a sealed one that claims a text of 2^60
# characters must exit 2 out of memory, with nothing on stdout.
python3 -m cornerindex verify --count 200 --length 48 --seed 7
python3 -m cornerindex verify --count 60 --length 512 --seed 11
python3 -m cornerindex verify --count 60 --length 512 --seed 11 --run-geometric 0.3
python3 -m cornerindex experiment --count 20 --length 512 --seed 11
python3 -m cornerindex experiment --count 20 --length 512 --seed 11 --run-geometric 0.3 --format jsonl
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
# 3,000 fair-coin characters (766 run pairs): each sweep forms 20 dense
# blocks, every one reading its row table.
python3 -c 'import random; r = random.Random(7); print("".join(r.choice("ab") for _ in range(3000)))' > "$dir/smoke.txt"
python3 -m cornerindex verify --input "$dir/smoke.txt"
# Texts whose sweeps are sparse from the first block, so every block bounds
# the staircase a chunk of spans at a time, checked here against the
# brute-force oracle: 3,000 characters in runs of 1 to 60 (56 run pairs)
# form 2 sparse blocks a sweep, and 4,000 characters in runs of 1 to 30
# (142 run pairs) form 10, of 1,024 spans or more each but the last.
python3 -c 'import random; r = random.Random(7); print("".join("ab"[i % 2] * r.randint(1, 60) for i in range(200))[:3000])' > "$dir/runs.txt"
python3 -m cornerindex verify --input "$dir/runs.txt"
python3 -c 'import random; r = random.Random(7); print("".join("ab"[i % 2] * r.randint(1, 30) for i in range(400))[:4000])' > "$dir/runs30.txt"
python3 -m cornerindex verify --input "$dir/runs30.txt"
python3 -m cornerindex build --input "$dir/smoke.txt" --index "$dir/smoke.cix"
python3 -m cornerindex bench --index "$dir/smoke.cix" --count 20000
python3 -m cornerindex pnf --index "$dir/smoke.cix" > /dev/null
printf '1 1\n1500 1500\n' | python3 -m cornerindex query --index "$dir/smoke.cix" --format jsonl
# The last query line needs no newline to be answered.
printf '1 1\n1500 1500' | python3 -m cornerindex query --index "$dir/smoke.cix" > "$dir/last.out"
test "$(cut -d ' ' -f 1-2 "$dir/last.out")" = "$(printf '1 1\n1500 1500')"
# A standard input in non-blocking mode would end a read with what the pipe
# holds, and a closed one has no stream: query and build --input - refuse
# both with exit 2, nothing on stdout and one error naming standard input.
python3 -c '
import os, subprocess, sys
cli = [sys.executable, "-m", "cornerindex"]
query = cli + ["query", "--index", sys.argv[1]]
build = cli + ["build", "--input", "-", "--index", sys.argv[2]]
for argv, ready in [(query, b"1 1\n"), (build, b"ab"), (["sh", "-c", "exec \"$@\" <&-", "sh", *query], None)]:
    r, w = os.pipe()
    os.set_blocking(r, False)
    os.write(w, ready or b"")
    child = subprocess.run(argv, stdin=r, capture_output=True, timeout=60)
    os.close(r)
    os.close(w)
    if child.returncode != 2 or child.stdout or b"standard input" not in child.stderr:
        sys.exit(f"{argv} on an unreadable stdin: exit {child.returncode}, {child.stdout!r}, {child.stderr!r}")
' "$dir/smoke.cix" "$dir/nonblocking.cix"
python3 -m cornerindex build --input "$dir/smoke.txt" --index "$dir/again.cix" --format jsonl | tee "$dir/build.jsonl"
cmp "$dir/smoke.cix" "$dir/again.cix"
python3 -c '
import json, os, sys
from cornerindex.persist import file_size, load_index
size = os.path.getsize(sys.argv[1])
reported = json.loads(open(sys.argv[2]).read())["bytes"]
if not size == file_size(load_index(sys.argv[1])) == reported:
    sys.exit(f"smoke.cix holds {size} bytes; build reported {reported}")
' "$dir/smoke.cix" "$dir/build.jsonl"
python3 -c '
import sys
sys.path.insert(0, "tests")
from conftest import index_bytes
from cornerindex.persist import load_index
index = load_index(sys.argv[1])
for version in (1, 2, 3):
    open(f"{sys.argv[2]}/v{version}.cix", "wb").write(index_bytes(index, version))
' "$dir/smoke.cix" "$dir"
printf '1 1\n1500 1500\n40 2\n2 40\n' > "$dir/queries.txt"
for name in smoke v1 v2 v3; do
  python3 -m cornerindex query --index "$dir/$name.cix" --input "$dir/queries.txt" --format jsonl > "$dir/$name.query"
  python3 -m cornerindex pnf --index "$dir/$name.cix" > "$dir/$name.pnf"
done
for name in v1 v2 v3; do
  cmp "$dir/smoke.query" "$dir/$name.query"
  cmp "$dir/smoke.pnf" "$dir/$name.pnf"
done
# The loader reads a stream to its end only if it opens like the magic, so
# the endless /dev/zero gets "bad magic" at once; a pipe loads as its file
# does, and bytes after the checksum are ignored.
status=0
timeout 10 python3 -m cornerindex query --index /dev/zero --input /dev/null 2> "$dir/zero.err" || status=$?
cat "$dir/zero.err"
test "$status" -eq 2
grep -q "bad magic" "$dir/zero.err"
python3 -m cornerindex query --index <(cat "$dir/smoke.cix") --input "$dir/queries.txt" --format jsonl > "$dir/fifo.query"
cmp "$dir/smoke.query" "$dir/fifo.query"
{ cat "$dir/smoke.cix"; printf 'trailing bytes'; } > "$dir/junk.cix"
python3 -m cornerindex query --index "$dir/junk.cix" --input "$dir/queries.txt" --format jsonl > "$dir/junk.query"
cmp "$dir/smoke.query" "$dir/junk.query"
# A reader that closes the pipe after one line, as `head -n 1` does: query
# stops quietly with exit 0, which pipefail checks, and an empty stderr.
python3 -c 'print("1 1\n" * 200000, end="")' > "$dir/many.txt"
python3 -m cornerindex query --index "$dir/again.cix" --input "$dir/many.txt" 2> "$dir/pipe.err" | head -n 1
test ! -s "$dir/pipe.err"
python3 -c 'import sys; raw = open(sys.argv[1], "rb").read(); open(sys.argv[2], "wb").write(raw[:-3])' "$dir/smoke.cix" "$dir/short.cix"
status=0
echo "1 1" | python3 -m cornerindex query --index "$dir/short.cix" 2> "$dir/short.err" || status=$?
cat "$dir/short.err"
test "$status" -eq 2
grep -q truncated "$dir/short.err"
python3 -c 'import sys; raw = bytearray(open(sys.argv[1], "rb").read()); raw[100] ^= 1; open(sys.argv[1], "wb").write(raw)' "$dir/smoke.cix"
status=0
echo "1 1" | python3 -m cornerindex query --index "$dir/smoke.cix" 2> "$dir/query.err" || status=$?
cat "$dir/query.err"
test "$status" -eq 2
grep -q checksum "$dir/query.err"
python3 -c '
import sys
sys.path.insert(0, "tests")
from conftest import cix_bytes
open(sys.argv[1], "wb").write(cix_bytes(4, 7, 3, 4, [(1, 0), (2, 3), (3, 4)], [(0, 2), (3, 4)], 3, 2))
open(sys.argv[2], "wb").write(cix_bytes(4, 0, 0, 0, [(2**60, 0)], [(0, 1)], 1, 1))
' "$dir/crossed.cix" "$dir/huge.cix"
status=0
echo "1 1" | python3 -m cornerindex query --index "$dir/crossed.cix" 2> "$dir/crossed.err" || status=$?
cat "$dir/crossed.err"
test "$status" -eq 2
grep -q cross "$dir/crossed.err"
status=0
python3 -m cornerindex pnf --index "$dir/crossed.cix" 2> "$dir/crossed.err" || status=$?
cat "$dir/crossed.err"
test "$status" -eq 2
grep -q cross "$dir/crossed.err"
status=0
python3 -m cornerindex pnf --index "$dir/huge.cix" > "$dir/huge.out" 2> "$dir/huge.err" || status=$?
cat "$dir/huge.err"
test "$status" -eq 2
grep -q "out of memory" "$dir/huge.err"
test ! -s "$dir/huge.out"
