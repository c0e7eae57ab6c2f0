#!/usr/bin/env python3
"""Seeded benchmark for cornerindex: building, serving and small-input overhead.

Run from the root of a checkout:

    python3 bench/run.py --workload coin-dense --seed 1 --seconds 15 --trace 0

Workloads and their generator parameters live in ``bench/workloads.json``.
Texts and query lines come from this file's own generator, seeded by
``--seed``; the package's ``textgen`` is not used, so editing it cannot
change a workload. All load is a closed loop in one process: each library
call, and each ``python -m cornerindex`` child, starts only after the
previous one has finished. There are no threads.

``--trace 0`` repeats rounds of every end-to-end measurement until
``--seconds`` have passed (at least three rounds) and reports medians.
``--trace 1`` records a span around each call into a layer (the package
modules ``rle``, ``corner``, ``persist``, ``pnf`` and the ``cli`` children)
and reports per-layer numbers, plus the tracing overhead against an untraced
pass over the same calls. The spans are written to
``.bench_out/spans-<workload>.tsv`` when the run ends.

Every output is checked against a reference outside the timed regions:
``oracle`` brute force on small texts, a seeded sample of
``sliding_window_query`` calls and windowed counts on large ones, and the
in-process results for CLI output. Disagreements and exceptions are counted
in ``failed``. Counts that must repeat exactly for one seed (runs, spans,
list sizes, peaks, bytes, hits) are compared across rounds and with earlier
runs of the same seed in this checkout; a difference counts as a failure.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from itertools import accumulate
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_ROUNDS = 3
# No round starts once this much wall time has passed, whatever --seconds says.
ROUND_LIMIT_S = 120.0
# A cheap serving phase is repeated until this much of it was timed.
LIGHT_S = 0.05
# In a traced run, each CLI command is repeated until this much was timed.
CLI_MIN_S = 0.6
# About the duration of reference_loop() on the 2-vCPU Xeon VM the baseline
# was recorded on, when nothing slows it. End-to-end timings are scaled by
# REF_S / (the loop's duration measured around each sample).
REF_S = 0.004
IMPORT_REPS = 5
OVERHEAD_PAIRS = 3

now = time.perf_counter
now_ns = time.perf_counter_ns
_AB = str.maketrans("01", "ab")


# -- inputs -----------------------------------------------------------------


def coin_text(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b").translate(_AB)


def runs_text(rng: random.Random, n: int, runs: int) -> str:
    cuts = [0, *sorted(rng.sample(range(1, n), runs - 1)), n]
    first = rng.randrange(2)
    return "".join(
        "ab"[(first + i) % 2] * (cuts[i + 1] - cuts[i]) for i in range(runs)
    )


def geometric_text(rng: random.Random, n: int, p: float) -> str:
    parts: list[str] = []
    total, letter, log_q = 0, rng.randrange(2), math.log1p(-p)
    while total < n:
        run = min(n - total, 1 + int(math.log(1.0 - rng.random()) / log_q))
        parts.append("ab"[letter] * run)
        total += run
        letter ^= 1
    return "".join(parts)


def make_queries(rng: random.Random, text: str, count: int) -> list[tuple[int, int]]:
    """Even positions: Parikh vector of a random substring (always occurs).
    Odd positions: uniform over [0, total_a] x [0, total_b] (mostly misses)."""
    prefix = list(accumulate((c == "a" for c in text), initial=0))
    n, total_a = len(text), prefix[-1]
    queries = []
    for k in range(count):
        if k % 2 == 0:
            i = rng.randrange(n)
            j = rng.randint(i + 1, n)
            a = prefix[j] - prefix[i]
            queries.append((a, j - i - a))
        else:
            queries.append((rng.randint(0, total_a), rng.randint(0, n - total_a)))
    return queries


def generate(name: str, spec: dict, seed: int) -> list[tuple[str, list]]:
    rng = random.Random(f"{name}:{seed}")
    kind = spec["kind"]
    if kind == "coin":
        texts = [coin_text(rng, spec["length"])]
    elif kind == "runs":
        texts = [runs_text(rng, spec["length"], spec["runs"])]
    else:
        texts = []
        for k in range(spec["texts"]):
            n = rng.randint(1, spec["max_length"])
            if k % 2 == 0:
                texts.append(coin_text(rng, n))
            else:
                texts.append(geometric_text(rng, n, spec["geometric_p"]))
    return [(t, make_queries(rng, t, spec["queries_per_text"])) for t in texts]


# -- bookkeeping ------------------------------------------------------------


class Ledger:
    """Operations attempted against the program, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._told = 0

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if self._told < 20:
            print(f"bench: FAIL {what}", file=sys.stderr)
            self._told += 1

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        if not ok:
            self.fail(what, n)


def ask(query, qs) -> list:
    """The closed query loop: one call per query, the next after the last."""
    return [query(x, y) for x, y in qs]


class NullTracer:
    """Same interface as Tracer, recording nothing."""

    def open(self, name, parent, tid):
        return None

    def close(self, sid) -> None:
        pass

    def call(self, name, parent, tid, fn, *args):
        return fn(*args)

    def queries(self, query, qs, parent, tid):
        return ask(query, qs)


NULL = NullTracer()


class Tracer(NullTracer):
    """Spans kept in memory: [name, start_ns, end_ns, parent_id, text_id].
    A span's id is its position in ``spans``."""

    def __init__(self):
        self.spans: list = []

    def open(self, name, parent, tid):
        self.spans.append([name, now_ns(), None, parent, tid])
        return len(self.spans) - 1

    def close(self, sid) -> None:
        self.spans[sid][2] = now_ns()

    def call(self, name, parent, tid, fn, *args):
        t0 = now_ns()
        out = fn(*args)
        self.spans.append((name, t0, now_ns(), parent, tid))
        return out

    def queries(self, query, qs, parent, tid):
        spans = self.spans
        out = []
        for x, y in qs:
            t0 = now_ns()
            r = query(x, y)
            t1 = now_ns()
            spans.append(("corner.query", t0, t1, parent, tid))
            out.append(r)
        return out

    def durations(self, name: str) -> dict[int, int]:
        """Total ns per text id over the spans with this name."""
        out: dict[int, int] = {}
        for s in self.spans:
            if s[0] == name:
                out[s[4]] = out.get(s[4], 0) + s[2] - s[1]
        return out

    def self_seconds(self, skip_root: int) -> dict[str, float]:
        """Per-layer self time (duration minus child spans), leaving out the
        subtree under ``skip_root``. The layer is the name's first part."""
        child = [0] * len(self.spans)
        skipped = {skip_root}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent in skipped:
                skipped.add(i)
            elif parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if i not in skipped:
                layer = name.split(".")[0]
                out[layer] = out.get(layer, 0.0) + (end - start - child[i]) / 1e9
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\ttext\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, tid) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{tid}\t{name}\t{start}\t{end}\n")


class Tally(list):
    """BuildTrace event list that counts appends instead of storing them,
    so sweeps with millions of candidates fit in memory."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def append(self, item) -> None:
        self.count += 1


@contextmanager
def collector_paused():
    """Collect, then keep the cyclic garbage collector off: its passes walk
    the benchmark's own heap, so their cost would vary with the harness."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed(fn, *args):
    with collector_paused():
        t0 = now()
        out = fn(*args)
        return now() - t0, out


def repeated(min_s, fn, *args):
    """Time fn until min_s is covered; per-call durations, last output."""
    times: list[float] = []
    with collector_paused():
        while sum(times) < min_s:
            t0 = now()
            out = fn(*args)
            times.append(now() - t0)
    return times, out


def reference_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i & 7
    return total


def host_ref() -> float:
    """How long reference_loop() takes right now: median of three runs."""
    times = []
    for _ in range(3):
        t0 = now()
        reference_loop()
        times.append(now() - t0)
    return median(times)


# -- the program under test ---------------------------------------------------


def import_package():
    if not os.path.isfile(os.path.join(SRC, "cornerindex", "__init__.py")):
        sys.exit(f"bench: no cornerindex package under {SRC}")
    sys.path.insert(0, SRC)
    import cornerindex

    if not os.path.abspath(cornerindex.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported cornerindex from {cornerindex.__file__}")
    return cornerindex


# Children are started by this small relay process, not by the benchmark
# itself: on Linux a child's peak RSS counts the memory of the process that
# forked it, and the benchmark holds every text, query and index in memory.
# The relay reads one JSON request per line and answers with the child's wall
# seconds, peak RSS in MB and exit code.
_LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, out_path, err_path = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss / 1024.0, proc.returncode]), flush=True)
"""


class Children:
    """Runs ``python -m cornerindex`` (or ``python -c``) one child at a time."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )

    def run(self, args: list[str], out_path: str) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one child."""
        err_path = os.path.join(self.tmp, "stderr.txt")
        self.launcher.stdin.write(json.dumps([[sys.executable, *args], out_path, err_path]) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        wall, mb, code = json.loads(reply)
        if code:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return wall, mb, code

    def cli(self, args: list[str], out_path: str):
        return self.run(["-m", "cornerindex", *args], out_path)

    def close(self) -> None:
        """Stop the launcher after its current child, and wait for it."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()


# -- checks ------------------------------------------------------------------


def check_outputs(cx, ledger, spec, rng, items, idxs, blobs, answers, loaded,
                  tables, pnfs):
    """Compare one pass's outputs with references computed here."""
    oracle_ids = set(rng.sample(range(len(items)), min(spec["oracle_texts"], len(items))))
    for k, (text, qs) in enumerate(items):
        idx, ans, tab, pn = idxs[k], answers[k], tables[k], pnfs[k]
        n = len(text)
        total_a = text.count("a")
        where = f"text {k}"
        ledger.check(
            (idx.n, idx.total_a, idx.total_b) == (n, total_a, n - total_a),
            f"{where}: index totals",
        )
        ledger.check(loaded[k] == idx, f"{where}: deserialize(serialize(index)) differs")
        ledger.check(len(blobs[k]) == cx.file_size(idx), f"{where}: serialized size")
        missed = sum(1 for i in range(0, len(qs), 2) if ans[i] is not True)
        ledger.check(not missed, f"{where}: {missed} occurring queries answered False", missed)

        picks = rng.sample(range(1, len(qs), 2), min(spec["window_checks"], len(qs) // 2))
        wrong = sum(1 for i in picks if ans[i] != cx.sliding_window_query(text, qs[i]))
        ledger.check(not wrong, f"{where}: {wrong} answers differ from sliding_window_query", wrong)

        if k in oracle_ids:
            naive = cx.bmin_bmax_naive(text)
            ledger.check(
                [idx.bmin(x) for x in range(total_a + 1)] == list(naive.bmin)
                and [idx.bmax(x) for x in range(total_a + 1)] == list(naive.bmax),
                f"{where}: staircases differ from bmin_bmax_naive",
            )
            pset = cx.parikh_set_bruteforce(text)
            wrong = sum(1 for q, a in zip(qs, ans) if a != (q in pset))
            ledger.check(not wrong, f"{where}: {wrong} answers differ from parikh_set_bruteforce", wrong)
            lo, hi = [n + 1] * (n + 1), [-1] * (n + 1)
            for x, y in pset:
                lo[x + y] = min(lo[x + y], x)
                hi[x + y] = max(hi[x + y], x)
            ledger.check(
                list(tab.min_a) == lo and list(tab.max_a) == hi,
                f"{where}: length tables differ from parikh_set_bruteforce",
            )
            ledger.check(cx.verify_pnf_relations(idx, pn), f"{where}: verify_pnf_relations")

        # Length tables against windowed a-counts at sampled lengths, and the
        # prefix normal forms against the tables at every length.
        prefix = prefix_counts(text, "a")
        ok = len(tab.min_a) == len(tab.max_a) == n + 1
        for m in rng.sample(range(1, n + 1), min(spec["table_checks"], n)) if ok else ():
            window = prefix[m:] - prefix[:-m]
            ok = ok and (tab.min_a[m], tab.max_a[m]) == (int(window.min()), int(window.max()))
        ledger.check(ok, f"{where}: length tables differ from windowed counts")
        ok = ok and len(pn.pnf_a) == len(pn.pnf_b) == n
        ok = ok and np.array_equal(prefix_counts(pn.pnf_a, "a"), tab.max_a)
        ok = ok and np.array_equal(prefix_counts(pn.pnf_b, "b"), np.arange(n + 1) - tab.min_a)
        ledger.check(ok, f"{where}: prefix normal forms disagree with the length tables")


def prefix_counts(s: str, letter: str):
    """Occurrences of letter in s[:m] for m = 0..len(s)."""
    hits = np.frombuffer(s.encode("ascii"), dtype=np.uint8) == ord(letter)
    return np.concatenate(([0], np.cumsum(hits, dtype=np.int64)))


def exact_counts(cx, rhos, idxs, blobs, answers) -> dict[str, int]:
    return {
        "rle.runs": sum(rhos),
        "corner.spans": sum(i.inspected_min + i.inspected_max for i in idxs),
        "corner.lmin_len": sum(len(i.l_min) for i in idxs),
        "corner.lmax_len": sum(len(i.l_max) for i in idxs),
        "corner.peak_min": sum(i.peak_min for i in idxs),
        "corner.peak_max": sum(i.peak_max for i in idxs),
        "persist.bytes": sum(len(b) for b in blobs),
        "corner.query_hits": sum(sum(a) for a in answers),
    }


def program_fingerprint() -> str:
    """Hash of the package sources and of this benchmark: counts are only
    compared between runs of the same program."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(SRC, "cornerindex", "*.py")))
    for path in [*paths, __file__, os.path.join(HERE, "workloads.json")]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_counts_across_runs(ledger, workload: str, seed: int, counts: dict) -> None:
    """Flag any count that differs from an earlier run of this seed and program."""
    path = os.path.join(OUT, f"counts-{workload}-{seed}-{program_fingerprint()}.json")
    try:
        with open(path, encoding="ascii") as fh:
            earlier = json.load(fh)
    except FileNotFoundError:
        earlier = {}
    for key in sorted(counts.keys() & earlier.keys()):
        ledger.check(
            counts[key] == earlier[key],
            f"count {key} is {counts[key]}, an earlier run of seed {seed} gave {earlier[key]}",
        )
    with open(path, "w", encoding="ascii") as fh:
        json.dump({**earlier, **counts}, fh, indent=1, sort_keys=True)


def check_cli_output(cx, ledger, cmd, k, code, files, idx, qs, answers, pnfs):
    where = f"cli {cmd} on text {k}"
    if code != 0:
        ledger.fail(f"{where}: exit code {code}")
    elif cmd == "build":
        try:
            built = cx.load_index(files["index"])
        except (OSError, ValueError) as exc:
            ledger.fail(f"{where}: the index it wrote does not load ({exc})")
        else:
            ledger.check(built == idx, f"{where}: index differs from build_index")
    elif cmd == "query":
        with open(files["query_out"], encoding="ascii", errors="replace") as fh:
            got = fh.read().splitlines()
        want = [f"{x}\t{y}\t{int(a)}" for (x, y), a in zip(qs, answers)]
        wrong = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
        ledger.check(not wrong, f"{where}: {wrong} lines differ from the library", wrong)
    else:
        with open(files["pnf_out"], encoding="ascii", errors="replace") as fh:
            got = fh.read().splitlines()
        ledger.check(got == [pnfs.pnf_a, pnfs.pnf_b], f"{where}: differs from pnf_from_index")


# -- runs ----------------------------------------------------------------------


class Bench:
    def __init__(self, cx, name, spec, seed, children):
        self.cx, self.name, self.spec, self.seed = cx, name, spec, seed
        self.items = generate(name, spec, seed)
        self.ledger = Ledger()
        self.children = children
        tmp = children.tmp
        self.rng = random.Random(f"{name}:{seed}:checks")
        cli_ids = random.Random(f"{name}:{seed}:cli").sample(
            range(len(self.items)), min(spec["cli_texts"], len(self.items))
        )
        self.cli_files = {}
        for k in sorted(cli_ids):
            text, qs = self.items[k]
            files = {f: os.path.join(tmp, f"{k}.{f}") for f in
                     ("text", "queries", "index", "build_out", "query_out", "pnf_out")}
            with open(files["text"], "w", encoding="ascii") as fh:
                fh.write(text + "\n")
            with open(files["queries"], "w", encoding="ascii") as fh:
                fh.writelines(f"{x} {y}\n" for x, y in qs)
            self.cli_files[k] = files
        # Compile the CLI's modules before anything is timed.
        self.children.run(["-c", "import cornerindex.cli"], os.path.join(tmp, "warmup"))

    def cli_command(self, cmd, tracer, parent, idxs, answers, pnfs, min_s=0.0):
        """One ``cmd`` child per CLI text, again until min_s of their wall
        time is covered; (text, wall seconds, peak MB) per child."""
        walls: list = []
        while not walls or sum(w for _, w, _ in walls) < min_s:
            for k, files in self.cli_files.items():
                args = {
                    "build": ["--input", files["text"], "--index", files["index"]],
                    "query": ["--index", files["index"], "--input", files["queries"],
                              "--format", "tsv"],
                    "pnf": ["--index", files["index"]],
                }[cmd]
                wall, mb, code = tracer.call(f"cli.{cmd}", parent, k, self.children.cli,
                                             [cmd, *args], files[f"{cmd}_out"])
                self.ledger.ops()
                check_cli_output(self.cx, self.ledger, cmd, k, code, files, idxs[k],
                                 self.items[k][1], answers[k], pnfs[k])
                walls.append((k, wall, mb))
        return walls

    def serialize(self, idx) -> bytes:
        buf = io.BytesIO()
        self.cx.serialize(idx, buf)
        return buf.getvalue()

    def untraced(self, seconds: float) -> dict:
        """Rounds of: build every text, then the CLI commands, with a sample of
        each in-process serving phase after every step, so that the samples of
        every metric spread over the whole run."""
        cx, items, ledger = self.cx, self.items, self.ledger
        nq = sum(len(qs) for _, qs in items)
        rhos = [cx.rho(cx.encode(t)) for t, _ in items]
        raw: dict[str, list] = {}
        scaled: dict[str, list] = {}
        refs: list[float] = []

        def step(fn, *args):
            """Run one step between two readings of the host's speed; keep its
            samples raw and scaled to REF_S (times down, rates up on a slow host)."""
            before = host_ref()
            got, result = fn(*args)
            ref = (before + host_ref()) / 2
            refs.append(ref)
            for key, values in got.items():
                raw.setdefault(key, []).extend(values)
                if key.endswith("_s"):
                    values = [v * REF_S / ref for v in values]
                elif key.endswith("_qps"):
                    values = [v * ref / REF_S for v in values]
                scaled.setdefault(key, []).extend(values)
            return result

        def setup():
            dt, idxs = timed(lambda: [cx.build_index(t) for t, _ in items])
            ledger.ops(len(items))
            return {"setup_s": [dt]}, idxs

        def serve(idxs, blobs):
            dt, answers = timed(lambda: [ask(i.query, qs) for i, (_, qs) in zip(idxs, items)])
            got = {"query_qps": [nq / dt]}
            calls = 0
            outputs = [answers]
            for key, phase in (
                ("load_s", lambda: [cx.deserialize(io.BytesIO(b)) for b in blobs]),
                ("tables_s", lambda: [i.length_tables() for i in idxs]),
                ("pnf_s", lambda: [cx.pnf_from_index(i) for i in idxs]),
            ):
                got[key], out = repeated(LIGHT_S, phase)
                calls += len(got[key])
                outputs.append(out)
            ledger.ops(nq + calls * len(items))
            return got, outputs

        def cli(cmd, idxs, answers, pnfs):
            walls = self.cli_command(cmd, NULL, None, idxs, answers, pnfs)
            if cmd == "build":
                got = {"build_cli_s": [w for _, w, _ in walls],
                       "build_rss_mb": [mb for _, _, mb in walls]}
            elif cmd == "query":
                got = {"query_cli_qps": [len(items[k][1]) / w for k, w, _ in walls]}
            else:
                got = {"pnf_cli_s": [w for _, w, _ in walls]}
            return got, None

        first = None
        start = now()
        rounds = 0
        while rounds < MIN_ROUNDS or now() - start < min(seconds, ROUND_LIMIT_S):
            rounds += 1
            try:
                idxs = step(setup)
                blobs = [self.serialize(i) for i in idxs]
                ledger.ops(len(items))
                outputs = step(serve, idxs, blobs)
                counts = exact_counts(cx, rhos, idxs, blobs, outputs[0])
                if first is None:
                    check_outputs(cx, ledger, self.spec, self.rng, items, idxs, blobs,
                                  *outputs)
                    check_counts_across_runs(ledger, self.name, self.seed, counts)
                    first = (idxs, counts, outputs)
                else:
                    ledger.check((idxs, counts) == first[:2],
                                 f"round {rounds}: indexes or counts differ from round 1")
                answers, _, _, pnfs = first[2]
                for cmd in ("build", "query", "pnf"):
                    step(cli, cmd, idxs, answers, pnfs)
                    # Serving samples between the CLI steps spread them over
                    # the run; each must repeat the first round's outputs.
                    outputs = step(serve, idxs, blobs)
                    wrong = sum(x != y for new, old in zip(outputs, first[2])
                                for x, y in zip(new, old))
                    ledger.check(not wrong, f"round {rounds}: {wrong} serving outputs "
                                 "differ from round 1", wrong)
            except Exception:
                ledger.fail(f"round {rounds} raised:\n{traceback.format_exc()}")
                break
        if refs:
            print(json.dumps({
                "raw_medians": {key: median(values) for key, values in raw.items()},
                "host_ref_s": {"median": median(refs), "min": min(refs), "max": max(refs)},
                "rounds": rounds,
            }))
        metrics = {key: median(values) for key, values in scaled.items()}
        if first is not None:
            counts = first[1]
            metrics["index_bytes_per_run"] = counts["persist.bytes"] / counts["rle.runs"]
        return metrics

    def build_pass(self, tracer):
        """encode and index_from_rle for each text, a span around each call."""
        cx = self.cx
        rles, idxs = [], []
        root = tracer.open("bench.build", None, None)
        for tid, (text, _) in enumerate(self.items):
            span = tracer.open("bench.text", root, tid)
            rles.append(tracer.call("rle.encode", span, tid, cx.encode, text))
            idxs.append(tracer.call("corner.index_from_rle", span, tid, cx.index_from_rle, rles[-1]))
            tracer.close(span)
        tracer.close(root)
        self.ledger.ops(2 * len(self.items))
        return rles, idxs

    def serve_pass(self, tracer, idxs):
        """Each index through queries, serialize, deserialize, length_tables
        and pnf_from_index, a span around each call."""
        cx = self.cx
        out: tuple[list, ...] = ([], [], [], [], [])
        root = tracer.open("bench.serve", None, None)
        for tid, ((_, qs), idx) in enumerate(zip(self.items, idxs)):
            span = tracer.open("bench.text", root, tid)
            answers = tracer.queries(idx.query, qs, span, tid)
            buf = io.BytesIO()
            tracer.call("persist.serialize", span, tid, cx.serialize, idx, buf)
            blob = buf.getvalue()
            loaded = tracer.call("persist.deserialize", span, tid, cx.deserialize, io.BytesIO(blob))
            tables = tracer.call("corner.length_tables", span, tid, idx.length_tables)
            pnfs = tracer.call("pnf.pnf_from_index", span, tid, cx.pnf_from_index, idx)
            tracer.close(span)
            for values, value in zip(out, (answers, blob, loaded, tables, pnfs)):
                values.append(value)
        tracer.close(root)
        self.ledger.ops(sum(4 + len(qs) for _, qs in self.items))
        return out

    def traced(self) -> dict:
        cx, items, ledger, spec = self.cx, self.items, self.ledger, self.spec
        tracer = Tracer()
        refs = [host_ref()]
        with collector_paused():
            rles, idxs = self.build_pass(tracer)
        # Tracing overhead: untraced and traced serve passes, alternated; the
        # spans of the first traced pass are the ones kept.
        plain, traced = [], []
        for rep in range(OVERHEAD_PAIRS):
            plain.append(timed(self.serve_pass, NULL, idxs)[0])
            dt, out = timed(self.serve_pass, tracer if rep == 0 else Tracer(), idxs)
            traced.append(dt)
            if rep == 0:
                answers, blobs, loaded, tables, pnfs = out
        refs.append(host_ref())
        check_outputs(cx, ledger, spec, self.rng, items, idxs, blobs, answers,
                      loaded, tables, pnfs)
        counts = exact_counts(cx, [cx.rho(r) for r in rles], idxs, blobs, answers)
        # Layer calls beyond the build and serve passes: the two sweeps on their own, the
        # sweeps again with BuildTrace counters, and the O(n^2) PNF check.
        extra = tracer.open("bench.extra", None, None)
        inserts = deletes = 0
        with collector_paused():
            for tid, (rle, idx) in enumerate(zip(rles, idxs)):
                lmin = tracer.call("corner.build_lmin", extra, tid, cx.build_lmin, rle)
                lmax = tracer.call("corner.build_lmax", extra, tid, cx.build_lmax, rle)
                ledger.check(lmin == idx.l_min and lmax == idx.l_max,
                             f"text {tid}: build_lmin/build_lmax differ from index_from_rle")
                candidates = 0
                for build in (cx.build_lmin, cx.build_lmax):
                    trace = cx.BuildTrace(Tally(), Tally(), Tally())
                    tracer.call("corner.build_traced", extra, tid, build, rle, trace)
                    candidates += trace.candidates.count
                    inserts += trace.inserted.count
                    deletes += trace.deleted.count
                ledger.ops(4)
                ledger.check(candidates == idx.inspected_min + idx.inspected_max,
                             f"text {tid}: BuildTrace candidates differ from inspected counts")
                if spec["verify_pnf"]:
                    ok = tracer.call("pnf.verify_pnf_relations", extra, tid,
                                     cx.verify_pnf_relations, idx, pnfs[tid])
                    ledger.ops()
                    ledger.check(ok is True, f"text {tid}: verify_pnf_relations")
        tracer.close(extra)
        refs.append(host_ref())
        counts.update({"corner.inserts": inserts, "corner.deletes": deletes})
        check_counts_across_runs(ledger, self.name, self.seed, counts)

        cli = tracer.open("bench.cli", None, None)
        probe = os.path.join(self.children.tmp, "probe")
        bare, startup = [], []
        for _ in range(IMPORT_REPS):
            bare.append(tracer.call("cli.bare", cli, None, self.children.run,
                                    ["-c", "pass"], probe)[0])
            startup.append(tracer.call("cli.import", cli, None, self.children.run,
                                       ["-c", "import cornerindex.cli"], probe)[0])
        walls = {cmd: self.cli_command(cmd, tracer, cli, idxs, answers, pnfs, CLI_MIN_S)
                 for cmd in ("build", "query", "pnf")}
        tracer.close(cli)
        refs.append(host_ref())
        tracer.write(os.path.join(OUT, f"spans-{self.name}.tsv"))

        names = ("rle.encode", "corner.index_from_rle", "corner.query", "corner.length_tables",
                 "corner.build_lmin", "corner.build_lmax", "persist.serialize",
                 "persist.deserialize", "pnf.pnf_from_index", "pnf.verify_pnf_relations")
        ns = {name: tracer.durations(name) for name in names}

        def seconds(name, *tids):
            per_text = ns[name]
            return sum(per_text.get(t, 0) for t in (tids or per_text)) / 1e9

        # CLI time beyond start-up and the in-process layer calls on the same text.
        start_s = median(startup)
        layer_calls = {
            "build": ("rle.encode", "corner.index_from_rle", "persist.serialize"),
            "query": ("persist.deserialize", "corner.query"),
            "pnf": ("persist.deserialize", "pnf.pnf_from_index"),
        }
        latencies = sorted(s[2] - s[1] for s in tracer.spans if s[0] == "corner.query")
        busy = tracer.self_seconds(extra)
        kept = counts["corner.lmin_len"] + counts["corner.lmax_len"]
        metrics = {
            "rle.encode_s": seconds("rle.encode"),
            "corner.lmin_s": seconds("corner.build_lmin"),
            "corner.lmax_s": seconds("corner.build_lmax"),
            "corner.insert_yield": inserts / counts["corner.spans"],
            "corner.keep_ratio": kept / inserts,
            "corner.query_p50_ns": latencies[len(latencies) // 2],
            "corner.query_p99_ns": latencies[int(0.99 * (len(latencies) - 1))],
            "corner.query_hit_share": counts["corner.query_hits"] / len(latencies),
            "corner.tables_s": seconds("corner.length_tables"),
            "persist.serialize_s": seconds("persist.serialize"),
            "persist.deserialize_s": seconds("persist.deserialize"),
            "pnf.materialize_s": seconds("pnf.pnf_from_index"),
            "pnf.verify_s": seconds("pnf.verify_pnf_relations"),
            "cli.import_s": start_s - median(bare),
            "trace.overhead_s": median(traced) - median(plain),
            "trace.spans": len(tracer.spans),
            "host.ref_s": median(refs),
            **counts,
        }
        for cmd, calls in layer_calls.items():
            metrics[f"cli.{cmd}_overhead_s"] = median(
                wall - start_s - sum(seconds(call, k) for call in calls)
                for k, wall, _ in walls[cmd]
            )
        for layer in ("rle", "corner", "persist", "pnf", "cli", "bench"):
            metrics[f"{layer}.self_s"] = busy.get(layer, 0.0)
        return metrics


def main(argv=None) -> int:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", type=int, default=workloads["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cx = import_package()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    children = Children(tmp)
    try:
        bench = Bench(cx, args.workload, workloads["workloads"][args.workload],
                      args.seed, children)
        try:
            measured = bench.traced() if args.trace else bench.untraced(args.seconds)
        except Exception:
            bench.ledger.fail(f"run raised:\n{traceback.format_exc()}")
            measured = {}
    finally:
        children.close()
        shutil.rmtree(tmp, ignore_errors=True)

    ledger = bench.ledger
    if args.trace:
        measured["failed_ops_ratio"] = ledger.failed / max(ledger.attempted, 1)
    metrics = {}
    for metric in contract["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": metric["unit"]}
        else:
            ledger.fail(f"metric {name} was not measured")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
