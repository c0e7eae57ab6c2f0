"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single line,
``criterion NN (name): PASS`` or ``... FAIL``, as it finishes. Run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines appear live;
without ``-s`` pytest shows them only for failing tests. Criteria with a
stated wall-clock budget assert it.

The heavyweight corpora (every binary string up to length 14, and 1000
seeded random strings up to length 512) are built once and shared by the
criteria that reuse them.
"""

import functools
import io
import itertools
import math
import random
import struct
import time

from conftest import index_bytes, seal, set_count
from cornerindex.build import assemble_lmin, build_index, build_lmin, lmin_candidates
from cornerindex.oracle import (
    bmin_bmax_naive,
    lemma1_witness_check,
    parikh_set_bruteforce,
    verify_interval_lemma,
)
from cornerindex.persist import (
    CorruptIndexError,
    IndexFormatError,
    deserialize,
    serialize,
)
from cornerindex.pnf import pnf_from_index, verify_pnf_relations
from cornerindex.rle import encode, rho
from cornerindex.textgen import coin_string, geometric_run_string

EXAMPLE = "aabababbaaabbaabbb"


def criterion(num: int, name: str, budget_s: float | None = None):
    """Print one pass/fail line per criterion; enforce its time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            t0 = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - t0
                if budget_s is not None and elapsed > budget_s:
                    raise AssertionError(
                        f"time budget exceeded: {elapsed:.1f}s > {budget_s:.0f}s"
                    )
            except BaseException:
                print(f"criterion {num:02d} ({name}): FAIL")
                raise
            print(f"criterion {num:02d} ({name}): PASS")

        return wrapper

    return deco


@functools.lru_cache(maxsize=None)
def small_corpus() -> tuple[str, ...]:
    """The empty string and every binary string of length 1..14."""
    out = [""]
    for n in range(1, 15):
        out.extend("".join(t) for t in itertools.product("ab", repeat=n))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def small_indexes():
    return tuple(build_index(s) for s in small_corpus())


@functools.lru_cache(maxsize=None)
def random_corpus() -> tuple[str, ...]:
    """1000 seeded strings of length 1..512, fair-coin and long-run mixes."""
    rng = random.Random(0xC0FFEE)
    texts = [coin_string(rng, rng.randint(1, 512)) for _ in range(500)]
    for _ in range(500):
        p = rng.choice((0.02, 0.05, 0.1, 0.25, 0.5))
        texts.append(geometric_run_string(rng, rng.randint(1, 512), p))
    return tuple(texts)


@functools.lru_cache(maxsize=None)
def random_indexes():
    return tuple(build_index(s) for s in random_corpus())


@criterion(1, "worked-example corner lists", budget_s=1.0)
def test_criterion_01_worked_example():
    idx = build_index(EXAMPLE)
    assert list(idx.l_min) == [(3, 0), (5, 2), (7, 4), (9, 6)]
    assert list(idx.l_max) == [(0, 3), (2, 5), (5, 7), (6, 8), (7, 9)]
    assert tuple(idx.bmin(x) for x in range(10)) == (0, 0, 0, 0, 2, 2, 4, 4, 6, 6)
    assert tuple(idx.bmax(x) for x in range(10)) == (3, 3, 5, 5, 5, 7, 8, 9, 9, 9)


@criterion(2, "construction trace", budget_s=1.0)
def test_criterion_02_construction_trace():
    from cornerindex.build import BuildTrace

    trace = BuildTrace()
    build_lmin(encode(EXAMPLE), trace)
    assert trace.candidates == [
        (2, 0), (1, 0), (1, 0), (3, 0), (2, 0),        # single a-run spans
        (3, 1), (2, 1), (4, 2), (5, 2),                # two a-runs
        (4, 2), (5, 3), (6, 4),                        # three
        (7, 4), (7, 5),                                # four
        (9, 6),                                        # all five
    ]
    inserted_then_deleted = set(trace.deleted)
    assert inserted_then_deleted == {(2, 0), (4, 2), (6, 4)}
    assert all(p in trace.inserted for p in inserted_then_deleted)


@criterion(3, "prefix normal forms", budget_s=1.0)
def test_criterion_03_normal_forms():
    idx = build_index(EXAMPLE)
    pair = pnf_from_index(idx)
    assert pair.pnf_a == "aaabbaabbaabbaabbb"
    assert pair.pnf_b == "bbbaabbaaabbababaa"
    assert verify_pnf_relations(idx, pair)


@criterion(4, "golden queries", budget_s=1.0)
def test_criterion_04_golden_queries():
    idx = build_index(EXAMPLE)
    assert idx.query(3, 3) is True
    assert idx.query(5, 1) is False
    f, big_f = idx.length_tables()
    assert big_f[6] == 4
    assert f[6] == 2


@criterion(5, "exhaustive oracle agreement", budget_s=300.0)
def test_criterion_05_exhaustive_oracle():
    corpus = small_corpus()
    assert len(corpus) == 32767  # empty string plus 32766 non-empty
    mismatches = 0
    for s, idx in zip(corpus, small_indexes()):
        pi = parikh_set_bruteforce(s)
        for x in range(idx.total_a + 2):
            for y in range(idx.total_b + 2):
                if idx.query(x, y) != ((x, y) in pi):
                    mismatches += 1
    assert mismatches == 0
    structural_failures = 0
    for s in corpus:
        if len(s) <= 12:
            if not verify_interval_lemma(s):
                structural_failures += 1
            if not lemma1_witness_check(s):
                structural_failures += 1
    assert structural_failures == 0


@criterion(6, "randomized oracle agreement", budget_s=120.0)
def test_criterion_06_randomized_oracle():
    mismatches = 0
    for i, (s, idx) in enumerate(zip(random_corpus(), random_indexes())):
        bmin, bmax = bmin_bmax_naive(s)
        if tuple(idx.bmin(x) for x in range(idx.total_a + 1)) != bmin:
            mismatches += 1
        if tuple(idx.bmax(x) for x in range(idx.total_a + 1)) != bmax:
            mismatches += 1
        # probe the decision boundary around every step of the staircase
        for x in range(idx.total_a + 1):
            lo, hi = bmin[x], bmax[x]
            if idx.query(x, lo) is not True or idx.query(x, hi) is not True:
                mismatches += 1
            if lo > 0 and idx.query(x, lo - 1):
                mismatches += 1
            if idx.query(x, hi + 1):
                mismatches += 1
        if idx.query(idx.total_a + 1, 0) or idx.query(idx.total_a + 1, idx.total_b):
            mismatches += 1
        # every 40th string also gets the full literal grid
        if i % 40 == 0:
            pi = parikh_set_bruteforce(s)
            for x in range(idx.total_a + 2):
                for y in range(idx.total_b + 2):
                    if idx.query(x, y) != ((x, y) in pi):
                        mismatches += 1
    assert mismatches == 0


@criterion(7, "size bounds")
def test_criterion_07_size_bounds():
    violations = 0
    for corpus, indexes in (
        (small_corpus(), small_indexes()),
        (random_corpus(), random_indexes()),
    ):
        for s, idx in zip(corpus, indexes):
            r = encode(s).pairs
            expected_candidates = r * (r + 1) // 2
            if idx.inspected_min != expected_candidates:
                violations += 1
            if idx.inspected_max != expected_candidates:
                violations += 1
            if idx.total_a and idx.total_b:
                if len(idx.l_min) > min(
                    idx.total_a, idx.total_b + 1, expected_candidates
                ):
                    violations += 1
                if len(idx.l_max) > min(
                    idx.total_b, idx.total_a + 1, expected_candidates
                ):
                    violations += 1
    assert violations == 0


@criterion(8, "run-count identity")
def test_criterion_08_run_count_identity():
    violations = 0
    for corpus, indexes in (
        (small_corpus(), small_indexes()),
        (random_corpus(), random_indexes()),
    ):
        for s, idx in zip(corpus, indexes):
            runs = encode(pnf_from_index(idx).pnf_a)
            if not s:
                # documented exception: the empty string keeps its mandatory
                # (0, 0) entry while having no runs at all
                if len(idx.l_min) != 1 or runs.pairs != 0:
                    violations += 1
                continue
            if 2 * len(idx.l_min) != 2 * runs.pairs:
                violations += 1
    assert violations == 0


@criterion(9, "construction scaling", budget_s=300.0)
def test_criterion_09_scaling():
    n = 100_000
    plan = ((200, 30), (2000, 5), (20000, 1))
    build_seconds: dict[int, float] = {}
    indexes = {}
    for run_count, repeats in plan:
        block = n // run_count
        s = ("a" * block + "b" * block) * (run_count // 2)
        assert len(s) == n and rho(encode(s)) == run_count
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            idx = build_index(s)
            best = min(best, time.perf_counter() - t0)
        build_seconds[run_count] = best
        indexes[run_count] = idx
    # construction cost normalized by rho^2 log rho stays within a 4x band
    constants = [
        build_seconds[r] / (r * r * math.log(r)) for r, _ in plan
    ]
    assert max(constants) <= 4.0 * min(constants), build_seconds
    # mean query latency grows no faster than logarithmically with rho
    latency: dict[int, float] = {}
    for run_count, _ in plan:
        idx = indexes[run_count]
        rng = random.Random(31)
        queries = [
            (rng.randint(0, idx.total_a), rng.randint(0, idx.total_b))
            for _ in range(20000)
        ]
        t0 = time.perf_counter()
        for x, y in queries:
            idx.query(x, y)
        latency[run_count] = (time.perf_counter() - t0) / len(queries)
    rhos = [r for r, _ in plan]
    for i, small in enumerate(rhos):
        for large in rhos[i + 1:]:
            allowed = 4.0 * latency[small] * (math.log(large) / math.log(small))
            assert latency[large] <= allowed, latency


@criterion(10, "persistence round trip", budget_s=60.0)
def test_criterion_10_persistence():
    # Each index round-trips through serialize, and the version 1 to 3
    # files that earlier writers made of it still load, peaks included.
    failures = 0
    for idx in random_indexes():
        buf = io.BytesIO()
        serialize(idx, buf)
        for raw in (buf.getvalue(), index_bytes(idx, 1), index_bytes(idx, 2),
                    index_bytes(idx, 3)):
            back = deserialize(io.BytesIO(raw))
            if back != idx or (back.peak_min, back.peak_max) != (
                idx.peak_min, idx.peak_max
            ):
                failures += 1
    assert failures == 0

    # Each damaged file gets its named error, in every format version. A
    # version 2 to 4 file is resealed after each edit, so that the named
    # check fires and not the checksum; the same edit left unsealed fails
    # the checksum. Version 4 stores no n or letter totals, so the checks
    # against them are made in versions 1 to 3 only; its example header is
    # 21 bytes, with one-byte fields.
    example = build_index(EXAMPLE)
    buf = io.BytesIO()
    serialize(example, buf)
    files = ((1, index_bytes(example, 1)), (2, index_bytes(example, 2)),
             (3, index_bytes(example, 3)), (4, buf.getvalue()))
    for version, good in files:
        close = bytes if version == 1 else seal
        head = {3: 72, 4: 21}.get(version, 68)

        def header(offset: int, value: int, width: str = "<Q") -> bytes:
            raw = bytearray(good)
            struct.pack_into(width, raw, offset, value)
            return close(raw)

        def entry(name: str, i: int, coord: int, value: int) -> bytes:
            return close(set_count(bytearray(good), name, i, coord, value))

        cases = [
            (b"WRONGMAG" + good[8:], IndexFormatError, "bad magic"),
            (good[:min(30, head - 1)], CorruptIndexError, "truncated header"),
            (header(8, 99, "<I"), IndexFormatError, "unsupported format version 99"),
            (good[:head + 2], CorruptIndexError, "truncated l_min payload"),
            (good[:-8], CorruptIndexError, "truncated l_max payload"),
            # in versions 3 and 4, a zero difference after the first value
            (entry("l_min", 1, 0, 3), CorruptIndexError, "not strictly increasing"),
            (entry("l_max", 2, 1, 5), CorruptIndexError, "not strictly increasing"),
            (entry("l_min", 0, 1, 1), CorruptIndexError, "does not start at b-count zero"),
            (entry("l_min", 3, 1, 11), CorruptIndexError, "b-count exceeds the total"),
            (entry("l_max", 0, 0, 1), CorruptIndexError, "does not start at a-count zero"),
            (entry("l_max", 4, 0, 10), CorruptIndexError, "a-count exceeds the total"),
        ]
        if version < 4:
            cases += [
                (header(20, 5), CorruptIndexError, "letter totals do not sum"),
                (header(36, 11), CorruptIndexError, "l_min claims 11 entries"),
                (header(44, 11), CorruptIndexError, "l_max claims 11 entries"),
                (header(36, 0), CorruptIndexError, "l_min is empty"),
                (entry("l_min", 3, 0, 8), CorruptIndexError, "does not end at the total a-count"),
                (entry("l_max", 4, 1, 10), CorruptIndexError, "does not end at the total b-count"),
            ]
        if version < 3:  # a version 3 difference cannot be negative
            cases.append(
                (entry("l_min", 0, 0, 6), CorruptIndexError, "not strictly increasing"))
        if version > 1:
            cases += [
                (good[:-1], CorruptIndexError, "truncated checksum"),
                (bytes(set_count(bytearray(good), "l_max", 1, 1, 4)),
                 CorruptIndexError, "checksum mismatch"),
            ]
        if version == 3:
            cases += [
                (good[:70], CorruptIndexError, "truncated header"),
                (header(69, 3, "<B"), CorruptIndexError, "unknown column width 3"),
            ]
        if version == 4:
            cases += [
                (good[:14], CorruptIndexError, "truncated header"),
                (header(12, 3, "<B"), CorruptIndexError, "unknown header field width 3"),
                (header(14, 3, "<B"), CorruptIndexError,
                 "unknown l_min b-count column width 3"),
                (header(17, 0, "<B"), CorruptIndexError, "l_min is empty"),
            ]
        for raw, exc_type, needle in cases:
            try:
                deserialize(io.BytesIO(raw))
            except exc_type as exc:
                assert needle in str(exc), (version, needle, str(exc))
            else:
                raise AssertionError(f"corrupt input accepted: expected {needle!r}")


@criterion(11, "insertion-order independence")
def test_criterion_11_order_independence():
    rng = random.Random(1234)
    mismatches = 0
    for _ in range(100):
        length = rng.randint(1, 300)
        if rng.random() < 0.5:
            s = coin_string(rng, length)
        else:
            s = geometric_run_string(rng, length, 0.15)
        r = encode(s)
        candidates = lmin_candidates(r)
        rng.shuffle(candidates)
        if assemble_lmin(candidates) != build_lmin(r):
            mismatches += 1
    assert mismatches == 0
