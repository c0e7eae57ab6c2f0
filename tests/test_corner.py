import copy
import hashlib
import io
import itertools
import pickle
import random
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE,
    EXAMPLE_BMAX,
    EXAMPLE_BMIN,
    EXAMPLE_LMAX,
    EXAMPLE_LMIN,
    HUGE_RUNS,
    all_binary_strings,
    assert_matches_reference,
    block_sizes,
    index_bytes,
    one_row_survivors,
    reference_corner_points,
    reference_length_tables,
    reference_query,
    reference_sweep,
    walk_blocks,
)
from cornerindex import build
from cornerindex.build import (
    BuildTrace,
    assemble_lmax,
    assemble_lmin,
    build_index,
    build_lmax,
    build_lmin,
    index_from_rle,
    lmax_candidates,
    lmin_candidates,
)
from cornerindex.corner import CornerIndex, CornerList, CorruptIndexError
from cornerindex.oracle import bmin_bmax_naive, parikh_set_bruteforce, sliding_window_query
from cornerindex.persist import deserialize, load_index, save_index, serialize
from cornerindex.rle import RunLengthEncoding, encode
from cornerindex.textgen import coin_string, geometric_run_string

binary_strings = st.text(alphabet="ab", max_size=80)


@st.composite
def run_lists(draw, max_pairs=60, run_length=st.integers(1, 12)):
    """Padded run lists of 1 to max_pairs run pairs: positive runs drawn
    from run_length, optionally a leading zero a-run and a trailing zero
    b-run."""
    r = draw(st.integers(1, max_pairs))
    runs = st.lists(run_length, min_size=r, max_size=r)
    a, b = draw(runs), draw(runs)
    if draw(st.booleans()):
        a[0] = 0
    if draw(st.booleans()):
        b[-1] = 0
    return RunLengthEncoding(tuple(a), tuple(b))


@st.composite
def near_corner_lists(draw):
    """Short point lists over a small range: strictly increasing ones, and
    ones broken by a negative head, by equal neighbours in one coordinate
    only, or by one arbitrary entry."""
    k = draw(st.integers(0, 6))
    xs, ys = (
        sorted(draw(st.sets(st.integers(0, 12), min_size=k, max_size=k)))
        for _ in range(2)
    )
    points = [list(p) for p in zip(xs, ys)]
    flaw = draw(st.sampled_from(["none", "negative head", "equal", "any"]))
    c = draw(st.integers(0, 1))
    if points and flaw == "negative head":
        points[0][c] = draw(st.integers(-3, -1))
    elif len(points) > 1 and flaw == "equal":
        i = draw(st.integers(1, k - 1))
        points[i][c] = points[i - 1][c]
    elif points and flaw == "any":
        points[draw(st.integers(0, k - 1))][c] = draw(st.integers(-3, 14))
    return [tuple(p) for p in points]


class TestCornerList:
    @given(near_corner_lists())
    @settings(max_examples=500)
    def test_validation_matches_per_entry_loop(self, points):
        xs = tuple(x for x, _ in points)
        ys = tuple(y for _, y in points)
        try:
            expected = reference_corner_points(points)
        except ValueError as exc:
            for make in (lambda: CornerList(points), lambda: CornerList._of(xs, ys)):
                with pytest.raises(ValueError) as info:
                    make()
                assert str(info.value) == str(exc)
            return
        for cl in (CornerList(points), CornerList._of(xs, ys)):
            assert (cl.xs, cl.ys) == expected
            assert type(cl.xs) is tuple and type(cl.ys) is tuple

    def test_requires_strict_increase(self):
        with pytest.raises(ValueError):
            CornerList([(0, 1), (1, 1)])
        with pytest.raises(ValueError):
            CornerList([(1, 0), (1, 2)])
        with pytest.raises(ValueError):
            CornerList([(-1, 0)])

    def test_counts_follow_the_query_rule(self):
        # as in query: integral values of other numeric types are stored as
        # the ints they equal, other numbers raise ValueError and text
        # TypeError, in the constructor and in both dominance filters
        np = pytest.importorskip("numpy")
        cl = CornerList([(np.int64(1), 0.0), (Fraction(3), True), (np.uint64(4), 2)])
        assert (cl.xs, cl.ys) == ((1, 3, 4), (0, 1, 2))
        assert all(type(v) is int for v in cl.xs + cl.ys)
        assert assemble_lmin([(np.int64(3), 0.0), (Fraction(5), 2)]) == CornerList([(3, 0), (5, 2)])
        assert assemble_lmax([(0.0, np.int8(3)), (2, Fraction(5))]) == CornerList([(0, 3), (2, 5)])
        for make in (CornerList, assemble_lmin, assemble_lmax):
            for points, message in (([(3, 0.9)], "b-count 0.9"), ([(1.5, 0)], "a-count 1.5"),
                                    ([(2, np.float64(0.5))], "b-count 0.5"),
                                    ([(float("nan"), 1)], "a-count nan"),
                                    ([(1, 1), (float("inf"), 2)], "a-count inf")):
                with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
                    make(points)
            for points in ([("3", 0)], [(3, b"0")], [(1, 0), (2, "1")], [(bytearray(b"3"), 0)]):
                with pytest.raises(TypeError, match="^a count must be a number, not "):
                    make(points)

    def test_slices_and_foreign_equality(self):
        l_min = build_index(EXAMPLE).l_min
        assert l_min[1:3] == ((5, 2), (7, 4)) and type(l_min[1:3]) is tuple
        assert l_min[::-2] == ((9, 6), (5, 2)) and l_min[9:] == ()
        # a list of the same pairs is another value
        assert l_min != EXAMPLE_LMIN and l_min != tuple(EXAMPLE_LMIN)
        assert l_min.__eq__(EXAMPLE_LMIN) is NotImplemented
        assert list(l_min) == EXAMPLE_LMIN and l_min == CornerList(EXAMPLE_LMIN)


class TestConstruction:
    def test_worked_example(self):
        r = encode(EXAMPLE)
        assert list(build_lmin(r)) == EXAMPLE_LMIN
        assert list(build_lmax(r)) == EXAMPLE_LMAX

    def test_candidate_trace(self):
        trace = BuildTrace()
        build_lmin(encode(EXAMPLE), trace)
        assert trace.candidates[:5] == [(2, 0), (1, 0), (1, 0), (3, 0), (2, 0)]
        assert len(trace.candidates) == 15
        assert set(trace.deleted) == {(2, 0), (4, 2), (6, 4)}

    def test_small_strings(self):
        # values pinned by the brute-force oracle
        assert list(build_lmin(encode("abba"))) == [(1, 0), (2, 2)]
        assert list(build_lmax(encode("abba"))) == [(0, 2)]
        assert list(build_lmin(encode("ab"))) == [(1, 0)]
        assert list(build_lmax(encode("ab"))) == [(0, 1)]

    def test_degenerate_conventions(self):
        for s, lmin, lmax in [
            ("", [(0, 0)], [(0, 0)]),
            ("aaaa", [(4, 0)], [(0, 0)]),
            ("bbbb", [(0, 0)], [(0, 4)]),
        ]:
            idx = build_index(s)
            assert list(idx.l_min) == lmin
            assert list(idx.l_max) == lmax

    def test_candidate_counts(self):
        # (peak_min, peak_max, inspected_min, inspected_max): peak_* is
        # persisted in .cix files and printed by the CLI, inspected_* is
        # r(r+1)/2; construction must not move either.
        big = coin_string(random.Random(2024), 2000)
        for s, counts in [
            ("", (1, 1, 0, 0)),
            ("a", (1, 1, 1, 1)),
            ("ba", (1, 1, 3, 3)),
            ("abba", (2, 1, 3, 3)),
            (EXAMPLE, (4, 5, 15, 15)),
            (big, (675, 645, 122265, 122265)),
        ]:
            r = encode(s)
            idx = build_index(s)
            assert (idx.peak_min, idx.peak_max,
                    idx.inspected_min, idx.inspected_max) == counts, s[:20]
            assert len(lmin_candidates(r)) == idx.inspected_min
            assert len(lmax_candidates(r)) == idx.inspected_max
        assert (len(idx.l_min), len(idx.l_max)) == (675, 645)  # the big row

    def test_traced_build_is_the_sequential_sweep(self):
        # A traced build of any size skips the block path, so its lists are
        # the untraced ones and its events those of the sequential sweep.
        # The loop below names each build function `build`, so the module
        # goes by another name here.
        from cornerindex import build as construction

        rle = encode(coin_string(random.Random(2024), 2000))
        assert rle.pairs * (rle.pairs + 1) // 2 > construction._BLOCK
        untraced = build_lmin(rle), build_lmax(rle)
        with mock.patch.object(construction, "_blocks", side_effect=AssertionError):
            for build, args, built in (
                (build_lmin, (rle.a_runs, rle.b_runs, True), untraced[0]),
                (build_lmax, (rle.b_runs, rle.a_runs, False), untraced[1]),
            ):
                trace = BuildTrace()
                assert build(rle, trace) == built
                assert trace == reference_sweep(*args)[2]

    def test_insertion_order_independent(self):
        rng = random.Random(7)
        for s in ["aabababbaaabbaabbb", "aabaa", "babab", "aabbbaaabab"]:
            r = encode(s)
            for _ in range(20):
                cands = lmin_candidates(r)
                rng.shuffle(cands)
                assert assemble_lmin(cands) == build_lmin(r)
                cands = lmax_candidates(r)
                rng.shuffle(cands)
                assert assemble_lmax(cands) == build_lmax(r)


def _shapes():
    r = 700
    rng = random.Random(3)
    return {
        "equal": RunLengthEncoding((50,) * r, (50,) * r),
        "decreasing": RunLengthEncoding(tuple(range(r, 0, -1)), (1,) * r),
        "increasing": RunLengthEncoding(tuple(range(1, r + 1)), (2,) * r),
        "dominant": RunLengthEncoding((1,) * 350 + (10_000,) + (1,) * 349, (1,) * r),
        "coin": encode(coin_string(rng, 2900)),
        "geometric": encode(geometric_run_string(rng, 7000, 0.2)),
        # about 120 run pairs, so each sweep is a single dense block
        "one block": encode(coin_string(rng, 480)),
    }


def _runs_long_shape():
    """2,000 random runs over 10^6 characters, cut as bench/run.py cuts its
    runs-long text."""
    rng = random.Random(2000)
    n = 10 ** 6
    cuts = sorted(rng.sample(range(1, n), 1999))
    runs = [end - start for start, end in zip([0, *cuts], [*cuts, n])]
    return RunLengthEncoding(tuple(runs[0::2]), tuple(runs[1::2]))


def _sweeps(rle):
    """build._blocks's arguments for the l_min and the l_max sweep."""
    return [(rle.a_runs, rle.b_runs), (rle.b_runs, rle.a_runs[1:])]


def _modes(blocks):
    """(dense, rows, cells per row) of each of walk_blocks's blocks."""
    return [(table is not None, *x.shape) for x, _, table, *_ in blocks]


def _block_kinds(modes):
    """The kinds of block among these modes."""
    kinds = set()
    if any(dense and rows > 1 for dense, rows, _ in modes):
        kinds.add("dense rows")
    if any(not dense for dense, _, _ in modes):
        kinds.add("sparse")
    if any(not dense and rows > 1 for dense, rows, _ in modes):
        kinds.add("masked cells")  # a sparse block with cells past a row's end
    if modes[0][0] and not modes[-1][0]:
        kinds.add("switch")
    # a sparse block after the first (so the staircase holds a pair) whose
    # rows span several chunks, which _undominated bounds one at a time
    if any(not dense and w > build._CHUNK for dense, _, w in modes[1:]):
        kinds.add("chunked")
    return kinds


_ALL_BLOCK_KINDS = {"dense rows", "sparse", "masked cells", "switch", "chunked"}


def _walked(rle):
    """(first runs, modes) of both sweeps of rle at the block sizes in force."""
    return [(sweep[0], _modes(walk_blocks(*sweep)[0])) for sweep in _sweeps(rle)]


@pytest.fixture(scope="module")
def shape_walks():
    """_walked of every shape at the default block sizes, walked once."""
    return {shape: _walked(rle) for shape, rle in _shapes().items()}


@pytest.fixture(scope="module")
def runs_long_walks():
    """_walked of the runs-long cuts at the default block sizes, walked once."""
    return _walked(_runs_long_shape())


def _assert_sizing_rule(first_runs, modes):
    """The blocks of a sweep over first_runs have the rows and modes the
    sizing rule gives them, with a-count ranges from plain prefix sums."""
    p = list(itertools.accumulate(first_runs, initial=0))
    dense, k = True, 1
    for read_table, g, w in modes:
        if dense:
            rows = max(1, min(w, build._DENSE_CELLS * build._BLOCK // w))
            # a longer span from the same start holds at least as many a's
            most = max(p[i + k + rows - 1] - p[i] for i in range(w - rows + 1))
            fewest = min(p[i + k] - p[i] for i in range(w))
            cells = rows * w - rows * (rows - 1) // 2
            dense = rows * (most - fewest + 1) <= build._TABLE * cells
        assert read_table is dense
        if dense:
            assert g == rows
        else:
            held = g * w - g * (g - 1) // 2
            assert held >= build._SPARSE_BLOCK or g == w
            # without its last row it would hold fewer
            assert held - (w - g + 1) < build._SPARSE_BLOCK
        k += g


def _random_runs(rng, r, first, second):
    """Padded run lists of r pairs, a-runs drawn by first(rng) and b-runs by
    second(rng), with a leading zero a-run or a trailing zero b-run at
    random, as run_lists() draws them."""
    a = [first(rng) for _ in range(r)]
    b = [second(rng) for _ in range(r)]
    if rng.random() < 0.5:
        a[0] = 0
    if rng.random() < 0.5:
        b[-1] = 0
    return RunLengthEncoding(tuple(a), tuple(b))


def _is_subsequence(part, whole):
    rest = iter(whole)
    return all(item in rest for item in part)


def _narrow_run(rng):
    return rng.randint(1, 3)


def _wide_run(rng):
    return rng.randint(1, 60)


def _long_run(rng):
    return rng.choice((1000, 1001))


def _run_list_run(rng):
    return rng.randint(1, 12)  # as run_lists() draws them


# Per mode: the block size, the range of run pairs, and how a-runs and
# b-runs are drawn. Every sweep starts dense and turns sparse at its first
# block whose row table is too wide. Narrow runs keep a sweep dense; wide
# runs over a few run pairs turn it sparse at its first block; long a-runs
# of two lengths keep the l_min sweep dense while its blocks are single rows
# and turn it sparse once they gather several; with more run pairs than two
# chunks, wide runs turn a sweep sparse within its first few blocks, and its
# later sparse rows span several chunks.
_PREFILTER_MODES = {
    "dense": (2, (8, 30), _narrow_run, _narrow_run),
    "sparse": (8, (3, 20), _wide_run, _wide_run),
    "switch": (1, (10, 25), _long_run, _narrow_run),
    "chunked": (8, (34, 50), _wide_run, _wide_run),
}


class TestBatchedSweep:
    """The numpy-prefiltered sweep against the sequential reference sweep:
    same lists, peaks and BuildTrace events."""

    @pytest.mark.parametrize("shape", sorted(_shapes()))
    def test_shapes(self, shape):
        rle = _shapes()[shape]
        if shape == "one block":
            assert [modes for _, modes in _walked(rle)] == [
                [(True, rle.pairs, rle.pairs)]] * 2
        else:
            assert rle.pairs > build._BLOCK
        assert_matches_reference(rle)

    def test_shapes_reach_every_block_kind(self, shape_walks):
        walks = itertools.chain(*shape_walks.values())
        assert set().union(*(_block_kinds(modes) for _, modes in walks)) == _ALL_BLOCK_KINDS

    def test_block_tables_are_the_formed_ranges(self, shape_walks):
        # A dense block's table is its formed range (walk_blocks checks it on
        # every dense block). While dense, a block takes as many rows as fit
        # in _DENSE_CELLS * _BLOCK cells (at least one) unless its row table
        # would hold more than _TABLE cells a span; then the sweep is sparse
        # for good. The blocks of each sweep cover all its rows.
        block, (lo, hi), first, second = _PREFILTER_MODES["chunked"]
        rng = random.Random("chunked")
        chunked = _random_runs(rng, rng.randint(lo, hi), first, second)
        seen = set()

        def check(walks):
            for first_runs, modes in walks:
                _assert_sizing_rule(first_runs, modes)
                assert sum(rows for _, rows, _ in modes) == len(first_runs)
                seen.update(dense for dense, _, _ in modes)

        check(itertools.chain(*shape_walks.values()))
        with block_sizes(block):
            check(_walked(chunked))
        assert seen == {True, False}

    def test_benchmark_shapes_pick_their_prefilter(self, runs_long_walks, shape_walks):
        # 2,000 random runs over 10^6 characters, as bench/run.py's runs-long
        # text is cut, form no dense block in either sweep (at 10^5
        # characters the same cuts form dense ones); fair-coin text forms no
        # sparse block.
        assert not any(dense for _, modes in runs_long_walks for dense, _, _ in modes)
        assert all(dense for _, modes in shape_walks["coin"] for dense, _, _ in modes)

    def test_sparse_blocks_group_rows_to_their_budget(self, runs_long_walks, shape_walks):
        # A sparse block takes the fewest rows that hold _SPARSE_BLOCK spans,
        # or all rows left, so a doubled budget forms fewer blocks. Dense
        # blocks never read the sparse budget.
        rle = _runs_long_shape()
        for first_runs, modes in runs_long_walks:
            _assert_sizing_rule(first_runs, modes)
            assert sum(rows for _, rows, _ in modes) == len(first_runs)
            assert any(rows > 1 for _, rows, _ in modes)
        with mock.patch.object(build, "_SPARSE_BLOCK", 2 * build._SPARSE_BLOCK):
            doubled = _walked(rle)
        assert all(len(more) < len(modes)
                   for (_, more), (_, modes) in zip(doubled, runs_long_walks))
        with mock.patch.object(build, "_SPARSE_BLOCK", 1):
            assert _walked(_shapes()["coin"]) == shape_walks["coin"]

    @pytest.mark.parametrize("mode", sorted(_PREFILTER_MODES))
    def test_prefilter_is_tight(self, mode):
        # Each block keeps exactly the spans that neither the staircase at
        # its start nor, while dense, a span of an earlier row dominates;
        # every insertion of the sequential sweep is among the survivors, and
        # a dense sweep keeps no more than one-row blocks do.
        block, (lo, hi), first, second = _PREFILTER_MODES[mode]
        rng = random.Random(mode)
        reached = set()
        with block_sizes(block):
            for _ in range(12):
                rle = _random_runs(rng, rng.randint(lo, hi), first, second)
                for sweep in _sweeps(rle):
                    blocks, survivors = walk_blocks(*sweep)
                    for bx, by, table, stair, keep, _ in blocks:
                        g, w = bx.shape
                        spans = [(d * w + i, d, int(bx[d, i]), int(by[d, i]))
                                 for d in range(g) for i in range(w - d)]
                        assert keep == [
                            p for p, d, x, y in spans
                            if not any(sx >= x and sy <= y for sx, sy in stair)
                            and not (table is not None and any(
                                d2 < d and x2 >= x and y2 <= y
                                for _, d2, x2, y2 in spans))
                        ]
                    # drop_last=True keeps the trace in the sweep's orientation
                    inserted = reference_sweep(*sweep, True)[2].inserted
                    assert _is_subsequence(inserted, survivors)
                    modes = _modes(blocks)
                    one_row = one_row_survivors(*sweep)
                    if all(dense for dense, _, _ in modes):
                        assert survivors == one_row
                    else:
                        assert _is_subsequence(one_row, survivors)
                    reached |= _block_kinds(modes)
        assert {"dense": "dense rows", "sparse": "masked cells",
                "switch": "switch", "chunked": "chunked"}[mode] in reached

    @pytest.mark.parametrize("rle, v1_digest, v2_digest, v3_digest, v4_digest", [
        # every block of both sweeps reads a row table
        (encode(coin_string(random.Random(2025), 3000)),
         "c687789f826ad98254cecf51d0b05550bc8437c41498934d1797f7a11d4b61d4",
         "587ccdc123a6723b394f6ed6acde003b8350ef90b50758db986f9dac03cf7666",
         "44b7d7c67b362275c2aebce4d04cc3debe825cbd6f1c4f5fcbf446991c93f490",
         "8d9ef0d045e9fd7481c6aadfff6a974c9fb381ad43b45b57412ff071b3a3e740"),
        # l_max reads row tables, l_min searches per candidate from its first block
        (_shapes()["dominant"],
         "1967186e72d362248acba312f2c53ab7089b5e74335444cee82f41f8d075c020",
         "c63516828e84e27bf3960a42bbaf31888e49721b1e5603308ce59c5f32c53cfc",
         "4ae2cfda762f7c38b37cada3165405233208fe6ebcf4a93622f556854a933076",
         "666cbe1d448d3cb30cf17ce68ec5ba3db262a0e9ffbadee389ddc5af074c6abd"),
        # the worked example, sequential sweep
        (encode(EXAMPLE),
         "7c9df65fa3086086686c69b6f78f305449f71a6825d155afd1f07a57b009513a",
         "d61fc75c759daca80980e71469100d3d533fd74c5127612bb76a04469a303423",
         "c6c62b5f2ca6ce4db50241500ae399e0f3bd5e8a93b65001e15dcc41e245501c",
         "8a83f9d6694c478c724c19b5f4d9c66e8a58dc0c20d3ffd929ab50364536c0b5"),
    ], ids=["coin", "dominant", "example"])
    def test_golden_bytes(self, rle, v1_digest, v2_digest, v3_digest, v4_digest):
        # .cix bytes pin both lists and both peaks in full: versions 1 to 3
        # through the reference writer, version 4 as serialize writes it;
        # the files of all four versions load back to the index and peaks
        index = build.index_from_rle(rle)
        sink = io.BytesIO()
        serialize(index, sink)
        files = (*(index_bytes(index, v) for v in (1, 2, 3)), sink.getvalue())
        for raw, digest in zip(files, (v1_digest, v2_digest, v3_digest, v4_digest)):
            assert hashlib.sha256(raw).hexdigest() == digest
            back = deserialize(io.BytesIO(raw))
            assert back == index
            assert (back.peak_min, back.peak_max) == (index.peak_min, index.peak_max)

    def test_compressed_scale(self):
        # A text of 10^12 characters given as 600 random runs: both sweeps
        # bound their sparse rows a chunk at a time.
        rng = random.Random(600)
        n = 10 ** 12
        cuts = sorted(rng.sample(range(1, n), 599))
        runs = [end - start for start, end in zip([0, *cuts], [*cuts, n])]
        rle = RunLengthEncoding(tuple(runs[0::2]), tuple(runs[1::2]))
        assert rle.total_a + rle.total_b == n
        for _, modes in _walked(rle):
            assert "chunked" in _block_kinds(modes)
        assert_matches_reference(rle)

    @given(run_lists(), st.sampled_from([1, 2, 3, 8, 64]),
           st.sampled_from([1, 2, 3, 8, 64]))
    @settings(max_examples=200, deadline=None)
    def test_any_runs_any_block_size(self, rle, plain, sparse):
        with block_sizes(plain, sparse):
            assert_matches_reference(rle)

    def test_small_block_sizes_reach_every_block_kind(self):
        # run lists as run_lists() draws them, at the block sizes of
        # test_any_runs_any_block_size, reach every kind of block
        rng = random.Random(12)
        kinds = set()
        for block in (1, 2, 3, 8, 64):
            with block_sizes(block):
                for _ in range(30):
                    r = rng.randint(1, 60)
                    rle = _random_runs(rng, r, _run_list_run, _run_list_run)
                    if rle.pairs * (rle.pairs + 1) // 2 > block:
                        for _, modes in _walked(rle):
                            kinds |= _block_kinds(modes)
                        assert_matches_reference(rle)
        assert kinds == _ALL_BLOCK_KINDS


class TestAgainstOracle:
    def test_exhaustive_small(self):
        for s in all_binary_strings(11):
            idx = build_index(s)
            tbl = bmin_bmax_naive(s)
            assert tuple(idx.bmin(x) for x in range(idx.total_a + 1)) == tbl.bmin, s
            assert tuple(idx.bmax(x) for x in range(idx.total_a + 1)) == tbl.bmax, s

    def test_query_matches_parikh_set(self):
        # every pair one step beyond the totals, and the half-way points
        # between them, which no substring holds
        for s in all_binary_strings(10):
            idx = build_index(s)
            pi = parikh_set_bruteforce(s)
            xs = [*range(-1, idx.total_a + 2), *(v + 0.5 for v in range(-1, idx.total_a + 1))]
            ys = [*range(-1, idx.total_b + 2), *(v + 0.5 for v in range(-1, idx.total_b + 1))]
            for x in xs:
                for y in ys:
                    assert idx.query(x, y) is ((x, y) in pi), (s, x, y)

    def test_corner_lists_are_staircase_corners(self):
        # stored entries are exactly the increase points plus the boundary one
        for s in all_binary_strings(9):
            idx = build_index(s)
            bmin, bmax = bmin_bmax_naive(s)
            ta = idx.total_a
            exp_min = [(i, bmin[i]) for i in range(ta + 1)
                       if i == ta or bmin[i] < bmin[i + 1]]
            exp_max = [(i, bmax[i]) for i in range(ta + 1)
                       if i == 0 or bmax[i] > bmax[i - 1]]
            assert list(idx.l_min) == exp_min, s
            assert list(idx.l_max) == exp_max, s


class TestQueries:
    def test_worked_example_queries(self):
        idx = build_index(EXAMPLE)
        assert idx.query(3, 3)
        assert not idx.query(5, 1)
        assert idx.query(0, 0)
        assert not idx.query(10, 0)
        assert not idx.query(-1, 2)
        assert not idx.query(2, -1)

    def test_lookup_range_errors(self):
        idx = build_index(EXAMPLE)
        with pytest.raises(ValueError):
            idx.bmin(10)
        with pytest.raises(ValueError):
            idx.bmax(-1)

    def test_lookup_rejects_absent_a_counts(self):
        # an a-count no substring has raises, whichever its type; integral
        # values of other types look up the int they equal
        np = pytest.importorskip("numpy")
        idx = build_index(EXAMPLE)
        for lookup in (idx.bmin, idx.bmax):
            for x in (3.5, -0.5, idx.total_a + 0.5, float("inf"), float("nan"),
                      -1, idx.total_a + 1, np.int64(-1), np.int64(idx.total_a + 1)):
                with pytest.raises(ValueError):
                    lookup(x)
        for x in range(idx.total_a + 1):
            for same in (np.int64(x), np.uint8(x), float(x), Fraction(x)):
                assert idx.bmin(same) == EXAMPLE_BMIN[x]
                assert idx.bmax(same) == EXAMPLE_BMAX[x]
                assert type(idx.bmin(same)) is int and type(idx.bmax(same)) is int

    def test_dense_tables(self):
        idx = build_index(EXAMPLE)
        assert tuple(idx.bmin(i) for i in range(10)) == EXAMPLE_BMIN
        assert tuple(idx.bmax(i) for i in range(10)) == EXAMPLE_BMAX

    @given(binary_strings, st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=300)
    def test_matches_sliding_window(self, s, x, y):
        assert build_index(s).query(x, y) == sliding_window_query(s, (x, y))

    @given(binary_strings, st.data())
    @settings(max_examples=300)
    def test_query_many_matches_query(self, s, data):
        idx = build_index(s)
        coordinate = st.one_of(
            st.integers(-3, idx.n + 3),
            st.integers(-(1 << 70), 1 << 70),
            st.integers((1 << 64) - 2, (1 << 64) + 2),
        )
        pairs = data.draw(st.lists(st.tuples(coordinate, coordinate), max_size=40))
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        got = idx.query_many(xs, ys)
        assert got == [idx.query(x, y) for x, y in pairs]
        assert all(type(v) is bool for v in got)
        assert idx.query_many(iter(xs), iter(ys)) == got

    @given(st.text(alphabet="ab", max_size=30))
    @settings(max_examples=200)
    def test_query_is_range_check_and_both_lookups(self, s):
        idx = build_index(s)
        pi = parikh_set_bruteforce(s)
        ta, tb = idx.total_a, idx.total_b
        xs = [*range(-3, ta + 4), ta + 0.5, 2.5, -0.5, 1 << 70, -(1 << 70)]
        ys = [*range(-3, tb + 4), tb + 0.5, 2.5, -0.5, 1 << 70, -(1 << 70)]
        for x in xs:
            for y in ys:
                got = idx.query(x, y)
                assert got is ((x, y) in pi)
                if type(x) is int:
                    # no substring holds a fractional count of b's
                    assert got is (0 <= x <= ta and y % 1 == 0
                                   and idx.bmin(x) <= y <= idx.bmax(x))

    def test_integral_numbers_of_other_types(self):
        np = pytest.importorskip("numpy")
        idx = build_index(EXAMPLE)
        for x in range(-1, idx.total_a + 2):
            for y in range(-1, idx.total_b + 2):
                expected = idx.query(x, y)
                for pair in ((np.int64(x), np.int64(y)), (float(x), y),
                             (x, float(y)), (np.int8(x), np.float32(y))):
                    assert idx.query(*pair) is expected
        assert idx.query(True, False) is idx.query(1, 0) is True
        for bad in (0.5, float("inf"), float("-inf"), float("nan"), np.float64(2.5)):
            assert idx.query(bad, 1) is False
            assert idx.query(1, bad) is False
        # a numpy count beyond int64 is compared exactly, not as a float
        top = (1 << 64) - 1
        huge = index_from_rle(RunLengthEncoding((top - 1,), (1,)))
        assert huge.query(np.uint64(top - 1), np.uint64(1)) is True
        assert huge.query(np.uint64(top), np.uint64(0)) is False
        assert huge.query(np.uint64(top - 1), np.uint64(2)) is False

    def test_text_counts_are_refused(self):
        # str and bytes would be formatted by the integrality test x % 1
        # ("%d" % 1 is "1"), so they are refused by name instead
        idx = build_index("aabab")
        for args in (("1", 1), (1, "1"), ("%d", 0), (b"1", 1), (1, bytearray(b"1"))):
            with pytest.raises(TypeError, match="a count must be a number"):
                idx.query(*args)
        for bad in ("1", b"1", bytearray(b"1")):
            for method in (idx.bmin, idx.bmax):
                with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
                    method(bad)
        assert idx.query(Fraction(3), True) is idx.query(3, 1) is True
        assert idx.bmin(Fraction(3)) == idx.bmin(3.0) == 1
        assert idx.bmax(True) == idx.bmax(1) == 2
        assert idx.query(2.5, 0) is False
        with pytest.raises(ValueError, match="not an integer"):
            idx.bmin(2.5)

    @given(run_lists())
    @example(encode(""))
    @example(encode("a"))
    @example(encode("b"))
    @example(encode("aaaa"))
    @example(encode("bbb"))
    @example(RunLengthEncoding((0, 3), (2, 0)))
    @example(RunLengthEncoding(*HUGE_RUNS[0]))
    @example(RunLengthEncoding(*HUGE_RUNS[1]))
    @example(RunLengthEncoding(*HUGE_RUNS[2]))
    @example(RunLengthEncoding(*HUGE_RUNS[3]))
    @example(RunLengthEncoding(*HUGE_RUNS[4]))
    def test_query_matches_reference(self, rle):
        # probe both sides of every segment boundary, then both sides of
        # both bounds of each probed a-count
        idx = index_from_rle(rle)
        starts = idx._segments[0]
        far = (1 << 70, -(1 << 70))
        xs = {*far, *(s + d for s in starts for d in (-1, 0, 1))}
        for x in xs:
            ys = {*far, -1, 0, 1, idx.total_b, idx.total_b + 1}
            if 0 <= x <= idx.total_a:
                lo, hi = idx.bmin(x), idx.bmax(x)
                # the bounds are the reference's: its answers change there
                assert reference_query(idx, x, lo) and reference_query(idx, x, hi)
                assert not reference_query(idx, x, lo - 1)
                assert not reference_query(idx, x, hi + 1)
                ys.update(lo + d for d in (-1, 0, 1))
                ys.update(hi + d for d in (-1, 0, 1))
            for y in ys:
                assert idx.query(x, y) is reference_query(idx, x, y), (x, y)

    @given(binary_strings)
    def test_symmetries(self, s):
        idx = build_index(s)
        rev = build_index(s[::-1])
        comp = build_index(s.translate(str.maketrans("ab", "ba")))
        for x in range(idx.total_a + 2):
            for y in range(idx.total_b + 2):
                v = idx.query(x, y)
                assert rev.query(x, y) == v
                assert comp.query(y, x) == v


class TestLengthTables:
    def test_worked_example(self):
        f, F = build_index(EXAMPLE).length_tables()
        assert F[6] == 4 and f[6] == 2
        assert f[0] == F[0] == 0
        assert f[18] == F[18] == 9

    @pytest.mark.parametrize(
        "s", ["", "a", "b", "aaa", "bbb", "ab", "ba"], ids=lambda s: s or "empty"
    )
    def test_short_strings(self, s):
        # zero padding runs and the (0, 0) entry: compare with brute force
        pairs = parikh_set_bruteforce(s)
        by_length = [[x for x, y in pairs if x + y == m] for m in range(len(s) + 1)]
        f, F = build_index(s).length_tables()
        assert tuple(f) == tuple(min(xs) for xs in by_length)
        assert tuple(F) == tuple(max(xs) for xs in by_length)

    def test_every_short_string(self):
        # the packed tables equal the list walk and the fewest and most
        # a's over the windows of each length
        for s in all_binary_strings(11):
            idx = build_index(s)
            f, F = map(tuple, idx.length_tables())
            assert (f, F) == reference_length_tables(idx), s
            for m in range(len(s) + 1):
                counts = [s.count("a", i, i + m) for i in range(len(s) - m + 1)]
                assert (f[m], F[m]) == (min(counts), max(counts)), (s, m)

    # short runs mixed with runs of up to 10^4
    @given(run_lists(12, st.one_of(st.integers(1, 3), st.integers(1, 10_000))))
    @settings(max_examples=60, deadline=None)
    def test_long_runs(self, rle):
        idx = index_from_rle(rle)
        f, F = idx.length_tables()
        assert (tuple(f), tuple(F)) == reference_length_tables(idx)

    def test_fields_are_packed(self):
        # 8 bytes an entry, and == between tables is a plain bool, as the
        # benchmark's comparison of every round's outputs needs
        tables = build_index(EXAMPLE).length_tables()
        for field in tables:
            assert type(field) is array and field.typecode == "Q"
            assert len(field) == len(EXAMPLE) + 1
        same = build_index(EXAMPLE).length_tables()
        assert (tables == same) is True and (tables != same) is False
        assert (tables == build_index(EXAMPLE[::-1] + "a").length_tables()) is False

    @given(binary_strings)
    @settings(max_examples=200)
    def test_consistent_with_queries(self, s):
        idx = build_index(s)
        f, F = idx.length_tables()
        for m in range(len(s) + 1):
            for x in range(idx.total_a + 1):
                if 0 <= m - x <= idx.total_b:
                    assert idx.query(x, m - x) == (f[m] <= x <= F[m])


def test_concurrent_queries_are_consistent():
    rng = random.Random(5)
    s = "".join(rng.choice("ab") for _ in range(3000))
    idx = build_index(s)
    grid = [(x, y) for x in range(0, idx.total_a + 1, 7)
            for y in range(0, idx.total_b + 1, 7)]
    expected = [idx.query(x, y) for x, y in grid]

    def worker(_):
        return [idx.query(x, y) for x, y in grid]

    with ThreadPoolExecutor(max_workers=8) as pool:
        for result in pool.map(worker, range(8)):
            assert result == expected


def test_segment_table_is_lazy_and_invisible(tmp_path):
    s = "aabbbabaaababbbaabab" * 5
    stream = io.BytesIO()
    serialize(build_index(s), stream)
    save_index(build_index(s), tmp_path / "s.cix")
    loaded = (
        build_index(s),
        index_from_rle(encode(s)),
        deserialize(io.BytesIO(stream.getvalue())),
        load_index(tmp_path / "s.cix"),
    )
    for idx in loaded:
        assert "_segments" not in vars(idx)
    fresh, queried = loaded[:2]
    pairs = [(x, y) for x in range(-1, fresh.total_a + 2)
             for y in range(-1, fresh.total_b + 2)]
    answers = [queried.query(x, y) for x, y in pairs]
    assert "_segments" in vars(queried)
    assert queried == fresh and hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh)
    assert pickle.dumps(queried) == pickle.dumps(fresh)
    for twin in (pickle.loads(pickle.dumps(queried)), copy.copy(queried),
                 copy.deepcopy(queried)):
        assert twin == fresh and "_segments" not in vars(twin)
        assert [twin.query(x, y) for x, y in pairs] == answers
    assert answers == [reference_query(fresh, x, y) for x, y in pairs]


def test_merge_refuses_exactly_crossed_lists():
    # Random anchored list pairs: the merge raises, naming the smallest x
    # with bmin(x) > bmax(x) by the reference searches, exactly when there
    # is one, and otherwise answers as the reference does.
    rng = random.Random(3)
    crossed = 0
    for _ in range(3000):
        total_a, total_b = rng.randint(0, 8), rng.randint(0, 8)
        k_min = rng.randint(1, min(total_a, total_b) + 1)
        k_max = rng.randint(1, min(total_a, total_b) + 1)
        l_min = CornerList(zip(
            [*sorted(rng.sample(range(total_a), k_min - 1)), total_a],
            [0, *sorted(rng.sample(range(1, total_b + 1), k_min - 1))]))
        l_max = CornerList(zip(
            [0, *sorted(rng.sample(range(1, total_a + 1), k_max - 1))],
            [*sorted(rng.sample(range(total_b), k_max - 1)), total_b]))
        idx = CornerIndex(l_min, l_max)
        bounds = [(l_min.ys[bisect_left(l_min.xs, x)], l_max.ys[bisect_right(l_max.xs, x) - 1])
                  for x in range(total_a + 1)]
        first = next((x for x, (low, high) in enumerate(bounds) if low > high), None)
        if first is None:
            assert all(idx.query(x, y) is reference_query(idx, x, y)
                       for x in range(-1, total_a + 2) for y in range(-1, total_b + 2))
            continue
        crossed += 1
        low, high = bounds[first]
        with pytest.raises(CorruptIndexError) as caught:
            idx.query(0, 0)
        assert str(caught.value) == (
            f"corner lists cross: bmin({first}) = {low} > bmax({first}) = {high}")
    assert 300 < crossed < 2700  # both outcomes are well exercised


def test_concurrent_first_queries():
    # four threads make the first queries on one fresh index at once, with
    # thread switches forced often, so several may build the table
    rng = random.Random(11)
    s = "".join(rng.choice("ab") for _ in range(2000))
    expected_index = build_index(s)
    grid = [(x, y) for x in range(-1, expected_index.total_a + 2, 5)
            for y in range(-1, expected_index.total_b + 2, 5)]
    expected = [expected_index.query(x, y) for x, y in grid]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            idx = build_index(s)
            start = threading.Barrier(4)

            def worker(_):
                start.wait(timeout=10)
                return [idx.query(x, y) for x, y in grid]

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(worker, range(4), timeout=60))
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


_EXAMPLE_REPR = (
    "CornerIndex(l_min=CornerList([(3, 0), (5, 2), (7, 4), (9, 6)]), "
    "l_max=CornerList([(0, 3), (2, 5), (5, 7), (6, 8), (7, 9)]), "
    "peak_min=4, peak_max=5, inspected_min=15, inspected_max=15, "
    "n=18, total_a=9, total_b=9)"
)


def test_index_is_a_frozen_value():
    idx = build_index(EXAMPLE)
    assert repr(idx) == _EXAMPLE_REPR
    l_min, l_max = CornerList(EXAMPLE_LMIN), CornerList(EXAMPLE_LMAX)
    by_keyword = CornerIndex(l_max=l_max, l_min=l_min, peak_min=4, peak_max=5,
                             inspected_min=15, inspected_max=15)
    assert repr(by_keyword) == _EXAMPLE_REPR
    assert repr(CornerIndex(l_min, l_max, 4, 5, 15, 15)) == _EXAMPLE_REPR
    # equality and hash see the lists only, not the instrumentation
    bare = CornerIndex(l_min, l_max)
    assert (bare.peak_min, bare.peak_max, bare.inspected_min, bare.inspected_max) == (1, 1, 0, 0)
    assert (bare.n, bare.total_a, bare.total_b) == (18, 9, 9)
    assert bare == idx == by_keyword and hash(bare) == hash(idx) == hash((l_min, l_max))
    assert {idx: 1}[bare] == 1
    assert idx != build_index("ab") and idx != (l_min, l_max)
    assert idx.__eq__((l_min, l_max)) is NotImplemented
    with pytest.raises(TypeError):
        CornerIndex(l_min, l_max, n=18)
    for name in ("l_min", "peak_min", "n", "total_a", "_segments", "other"):
        with pytest.raises(AttributeError):
            setattr(idx, name, 0)
    for name in ("l_min", "n"):
        with pytest.raises(AttributeError):
            delattr(idx, name)
    assert repr(idx) == _EXAMPLE_REPR
    # the query table, once built, stays out of repr, pickles and copies
    assert idx.query(3, 3) and "_segments" in vars(idx)
    assert repr(idx) == _EXAMPLE_REPR
    for twin in (pickle.loads(pickle.dumps(idx)), copy.copy(idx), copy.deepcopy(idx)):
        assert twin == idx and repr(twin) == _EXAMPLE_REPR
        assert "_segments" not in vars(twin)


def test_empty_corner_lists_are_refused():
    empty = CornerList([])
    for l_min, l_max in [(empty, CornerList(EXAMPLE_LMAX)), (CornerList(EXAMPLE_LMIN), empty)]:
        with pytest.raises(CorruptIndexError, match="^corner lists must not be empty$"):
            CornerIndex(l_min, l_max)


def test_trace_takes_any_sinks():
    class Sink(list):
        pass

    sinks = Sink(), Sink(), Sink()
    trace = BuildTrace(*sinks)
    assert (trace.candidates, trace.inserted, trace.deleted) == sinks
    assert all(got is sink for got, sink in
               zip((trace.candidates, trace.inserted, trace.deleted), sinks))
    build_lmin(encode(EXAMPLE), trace)
    plain = BuildTrace()
    build_lmin(encode(EXAMPLE), plain)
    assert trace == plain and len(sinks[0]) == 15
    assert BuildTrace(inserted=[(1, 0)]) == BuildTrace([], [(1, 0)], [])
    assert BuildTrace() != BuildTrace([(1, 0)]) and BuildTrace() != ([], [], [])
    assert repr(BuildTrace(deleted=[(2, 0)])) == (
        "BuildTrace(candidates=[], inserted=[], deleted=[(2, 0)])"
    )
    # each trace gets lists of its own; a trace is mutable and unhashable
    first, second = BuildTrace(), BuildTrace()
    first.candidates.append((1, 1))
    assert second.candidates == [] and second.inserted is not first.inserted
    first.deleted = [(0, 0)]
    assert first.deleted == [(0, 0)]
    with pytest.raises(TypeError):
        hash(first)
    twin = pickle.loads(pickle.dumps(plain))
    assert twin == plain and twin.candidates is not plain.candidates
