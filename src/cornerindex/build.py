"""Corner-list construction from a run-length encoding.

Construction works on the run-length encoding alone, in one sweep per
list. Every substring that starts and ends with a full a-run realizes a
candidate Parikh pair, and l_min is exactly the set of candidates that
survive a dominance filter (keep pairs with the most a's for the fewest
b's); l_max is the same sweep over spans of full b-runs in swapped
coordinates, which mirrors the dominance order. The sweep visits the
r(r+1)/2 spans by length k and start i and keeps a sorted working list
probed with bisect: a candidate costs one successor search, and the
deletions an insertion triggers are adjacent to the insertion point.

numpy forms the candidates a block of consecutive rows (each of fixed k)
at a time from uint64 prefix sums (``_blocks``), and drops in bulk every
candidate that the staircase, as it stood at the block's start, dominates
and, while the block's a-counts span a few table cells per candidate
(fair-coin text), every one that a candidate of an earlier row of the block
dominates (``_undominated``). Only the survivors reach the bisect step, in
(k, i) order. This is exact: once the sequential sweep has seen a pair, it
stores the pair or one that dominates it, so it would reject the same
candidates, and a rejected candidate never changes the list. The survivors
are therefore those of one-row blocks, whatever a block's size. A sparse
block (long runs, whose ranges are many times longer) drops whole each
chunk of a row whose fewest b's reach the successor of its most a's: the
successor b-count never falls as the a-count grows, so the per-span test
would reject every span of that chunk too. Lists and peaks are those of
the plain sequential sweep, which runs itself, on plain ints, when the
sweep has at most ``_BLOCK`` spans and when it is traced: the optional
``BuildTrace`` records that sweep's candidates and mutations at any size.
The candidate lists for the order-independence check come from the same
span generator.

Three budgets size the work, each for its own reason: ``_BLOCK`` spans is
the most a sweep runs on plain ints; a dense block holds at most
``_DENSE_CELLS * _BLOCK`` cells; a sparse block gathers short rows until
they hold ``_SPARSE_BLOCK`` spans. None changes a list or a peak.

numpy is imported by the first sweep that takes the block path, so loading
and querying an index, or building one of at most ``_BLOCK`` spans, never
imports it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .corner import CornerIndex, CornerList, ParikhVector
from .rle import MAX_TEXT_LENGTH, RunLengthEncoding, _count, _Record, encode

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BuildTrace",
    "build_lmin",
    "build_lmax",
    "build_index",
    "index_from_rle",
    "lmin_candidates",
    "lmax_candidates",
    "assemble_lmin",
    "assemble_lmax",
]


class BuildTrace(_Record):
    """Optional record of one list construction.

    A traced build is the plain sequential sweep: ``candidates`` is every
    pair it inspects in generation order (including pairs skipped because
    they carry no run content), ``inserted`` and ``deleted`` are the
    mutation events in order. Coordinates are in the list's natural
    (a_count, b_count) orientation. Each sink is a fresh list unless
    given; any object with ``append`` and slice assignment will do.
    Unlike the other value classes, a trace is mutable and unhashable.
    """

    _fields = ("candidates", "inserted", "deleted")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        candidates: list[ParikhVector] | None = None,
        inserted: list[ParikhVector] | None = None,
        deleted: list[ParikhVector] | None = None,
    ):
        self.candidates = [] if candidates is None else candidates
        self.inserted = [] if inserted is None else inserted
        self.deleted = [] if deleted is None else deleted

    def _swap_all(self) -> None:
        for lst in (self.candidates, self.inserted, self.deleted):
            lst[:] = [(b, a) for (a, b) in lst]


# A sweep of at most this many spans runs on plain ints and does without
# numpy: on fair-coin text the block path only catches up at about 300
# spans, and below 512 it saves at most some 40 us a sweep, far less than
# numpy's import (about 0.1 s) costs a command-line build.
_BLOCK = 512
# A dense block is a rectangle of at most _DENSE_CELLS * _BLOCK cells, or one
# longer row, whose row table holds at most _TABLE cells per span.
_DENSE_CELLS = 32
_TABLE = 8
# Spans per sparse block; short rows are grouped, since each block pays
# some 15 numpy calls and one _feed call whatever its size, while a larger
# block tests more spans against an older staircase, so more reach _feed.
# On 10^6 characters in 2,000 random runs, 1,024 builds about 15% faster
# than 512 or 4,096, and as fast as 1,536.
_SPARSE_BLOCK = 1024
# Cells per chunk of a sparse row, the unit the staircase bound drops whole.
_CHUNK = 16


def _blocks(
    first_runs: Sequence[int], second: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, tuple[np.uint64, int] | None]]:
    """The sweep's spans in (k, i) order, one numpy block at a time, as
    (x, y, table): ``table`` is the block's row-table range (hi, width), or
    None once the sweep is sparse.

    A block is g consecutive rows k..k+g-1 (span lengths k + d, every start
    i) laid out as one (g, w) rectangle, w = r - k + 1: row d holds its
    w - d spans in cells i < w - d. Each coordinate is one broadcast
    subtraction over a strided window of its prefix sums, which are padded
    past the last run with their last value, so a cell past the end of its
    row (i >= w - d) repeats the span from start i to the last run, which
    an earlier row of the block holds.

    A sweep starts dense: a dense block gathers as many rows as fit in
    ``_DENSE_CELLS * _BLOCK`` cells. Its a-counts run from row 0's fewest
    to row g - 1's most, since a longer span from the same start holds at
    least as many a's, so those two rows give its range before it is
    formed. The sweep turns sparse for good at the first block whose row
    table would hold more than ``_TABLE`` cells per span; from that block
    on, rows of at least ``_SPARSE_BLOCK`` spans stay alone and shorter rows
    are grouped until they hold ``_SPARSE_BLOCK`` spans. Spans are those of
    ``first_runs``, with ``second`` the runs between them. numpy is
    imported here, so only a sweep that takes the block path loads it.
    """
    import numpy as np

    r = len(first_runs)
    # Prefix sums, then copies of the last one a span uses (p1[r] and
    # gaps[r - 1]) up to 2r + 1 entries: a block's rows reach index
    # r + g - 1 of p1.
    p1 = np.empty(2 * r + 1, dtype=np.uint64)
    gaps = np.empty(2 * r + 1, dtype=np.uint64)
    for sums, runs in ((p1, first_runs), (gaps, second[: r - 1])):
        sums[0] = 0
        np.cumsum(np.array(runs, dtype=np.uint64), out=sums[1 : len(runs) + 1])
        sums[len(runs) + 1 :] = sums[len(runs)]
    dense = True  # one-way switch
    k = 1
    while k <= r:
        w = r - k + 1
        if dense:
            g = max(1, min(w, _DENSE_CELLS * _BLOCK // w))
            hi = (p1[k + g - 1 : r + g] - p1[:w]).max()
            width = int(hi - (p1[k : r + 1] - p1[:w]).min()) + 1
            dense = g * width <= _TABLE * (g * w - g * (g - 1) // 2)
        if not dense:
            g, m = 1, w
            while m < _SPARSE_BLOCK and g < w:
                m += w - g
                g += 1
        # Row d of the window (shape, dtype, buffer, offset, strides) that
        # starts at sums[j] is sums[j + d : j + d + w].
        x = np.ndarray((g, w), np.uint64, p1, 8 * k, (8, 8)) - p1[:w]
        y = np.ndarray((g, w), np.uint64, gaps, 8 * (k - 1), (8, 8)) - gaps[:w]
        yield x, y, (hi, width) if dense else None
        k += g


def _undominated(
    x: np.ndarray,
    y: np.ndarray,
    table: tuple[np.uint64, int] | None,
    mx: array,
    my: array,
) -> np.ndarray:
    """Flat positions, in (k, i) order, of the block's spans that no pair
    of the staircase mirrored in (mx, my) dominates and, given a row-table
    range, that no span of an earlier row of the block dominates either.

    A candidate's successor b-count is my at the first position whose
    a-count in mx is at least the candidate's. Given (hi, width), the row
    table E covers every a-count v from hi - width + 1 to hi: E[0, hi - v]
    is that successor, found by one search of the sorted range, and
    E[d, hi - v] is the smaller of E[d - 1, hi - v] and the fewest b's of a
    row d - 1 span with at least v a's. A candidate of row d survives when
    its entry exceeds its b-count; the cells past the end of a row, which
    repeat spans of earlier rows, fail that test. Without a table (a
    sparse block, where the ranges are many times the block length), those
    cells are first masked in y with the sentinel, then every row is cut
    into chunks of ``_CHUNK`` consecutive cells, each chunk whose fewest
    b's reach the successor of its most a's is dropped, and only the cells
    of the other chunks are searched one by one.
    """
    import numpy as np

    g, w = x.shape
    stair_x = np.frombuffer(mx, dtype=np.uint64)
    stair_y = np.frombuffer(my, dtype=np.uint64)

    def successor(v: np.ndarray) -> np.ndarray:
        return stair_y.take(stair_x.searchsorted(v))

    if table is not None:
        hi, width = table
        rows = np.full((g, width), stair_y[-1])
        rows[0] = successor(hi - np.arange(width, dtype=np.uint64))
        # Each cell's flat position in the table: row d starts at d * width.
        cells = (hi - x).view(np.intp)
        cells += np.arange(0, g * width, width)[:, None]
        # Each row's fewest b's per a-count, one table row down, then
        # minima over more a's (fewer hi - v) and over earlier rows. Row 0
        # already falls with hi - v, so a one-row table stays as it is.
        np.minimum.at(rows[1:].ravel(), cells[:-1].ravel(), y[:-1].ravel())
        np.minimum.accumulate(rows, axis=1, out=rows)
        np.minimum.accumulate(rows, axis=0, out=rows)
        return (rows.take(cells) > y).ravel().nonzero()[0]
    for d in range(1, g):
        y[d, w - d :] = stair_y[-1]
    starts = np.arange(0, w, _CHUNK)
    most = np.maximum.reduceat(x, starts, axis=1)
    fewest = np.minimum.reduceat(y, starts, axis=1)
    live = successor(most) > fewest
    cells = np.repeat(live, _CHUNK, axis=1)[:, :w].ravel().nonzero()[0]
    return cells[successor(x.take(cells)) > y.take(cells)]


def _spans(first_runs: Sequence[int], second: Sequence[int]) -> Iterator[ParikhVector]:
    """Every span's pair in (k, i) order, in plain ints: the span of k
    first runs starting at run i gives (sum of those runs, sum of the
    ``second`` runs strictly between them)."""
    p1 = list(accumulate(first_runs, initial=0))
    gaps = list(accumulate(second, initial=0))
    r = len(first_runs)
    return (
        (p1[i + k] - p1[i], gaps[i + k - 1] - gaps[i])
        for k in range(1, r + 1)
        for i in range(r - k + 1)
    )


def _feed(
    xs: list[int],
    ys: list[int],
    pairs: Iterable[ParikhVector],
    trace: BuildTrace | None = None,
) -> tuple[int, int]:
    """The sequential step: run pairs, in order, through the successor test,
    insert the undominated ones and prune what they dominate, recording it
    all in trace. Pairs with x == 0 carry no run content and are skipped.
    Returns the largest list size right after an insertion and the lowest
    position that changed (len(xs) when nothing did)."""
    peak = 0
    lo = len(xs)
    for x, y in pairs:
        if trace is not None:
            trace.candidates.append((x, y))
        if x == 0:
            continue
        idx = bisect_left(xs, x)
        if idx < len(xs):
            if ys[idx] <= y:
                # The successor has at least as many a's for at most as many
                # b's: the candidate is dominated (or already present).
                continue
            if xs[idx] == x:
                # Same a-count stored with more b's: the newcomer supersedes it.
                if trace is not None:
                    trace.deleted.append((x, ys[idx]))
                del xs[idx]
                del ys[idx]
        xs.insert(idx, x)
        ys.insert(idx, y)
        if trace is not None:
            trace.inserted.append((x, y))
        if len(xs) > peak:
            peak = len(xs)
        # Pairs dominated by (x, y) have smaller a-counts and b-counts >= y;
        # since stored b-counts increase with position they sit immediately
        # to the left of the insertion point, and nothing left of them moves.
        while idx and ys[idx - 1] >= y:
            idx -= 1
            if trace is not None:
                trace.deleted.append((xs[idx], ys[idx]))
            del xs[idx]
            del ys[idx]
        if idx < lo:
            lo = idx
    return peak, lo


def _sweep(
    first_runs: tuple[int, ...],
    second_runs: tuple[int, ...],
    drop_last: bool,
    trace: BuildTrace | None = None,
) -> tuple[CornerList, int]:
    """Dominance sweep over all r(r+1)/2 run spans; returns (list, peak).

    A span covers k consecutive first-coordinate runs starting at i; its
    second coordinate sums the second-coordinate runs strictly inside it.
    With ``drop_last`` the first runs are a-runs and the spanned b-runs drop
    the last one (l_min). Without it the first runs are b-runs and the
    spanned a-runs drop the first one (l_max, swept in swapped orientation,
    so its points and trace are swapped back before returning).

    A traced sweep, or one of at most ``_BLOCK`` spans, is the sequential
    sweep: every span, in (k, i) order, through the sequential step. Any
    other forms its spans one numpy block of rows at a time (``_blocks``:
    dense blocks of up to ``_DENSE_CELLS * _BLOCK`` cells, sparse ones of
    rows grouped to ``_SPARSE_BLOCK`` spans), prefilters each block
    against the staircase as it stood at the block's start and, while
    dense, against the block's earlier rows (``_undominated``), and sends
    the survivors through the sequential step in order. Candidates with
    x == 0 come only from a zero-length padding run; they are traced but
    skipped, and a list left empty gets the boundary entry (0, 0). The
    peak is the largest size the working list reaches right after an
    insertion.
    """
    r = len(first_runs)
    # The second-coordinate runs that separate consecutive first runs, so
    # a span's second coordinate is one difference of their prefix sums.
    second = second_runs if drop_last else second_runs[1:]
    xs: list[int] = []
    ys: list[int] = []
    if trace is not None or r * (r + 1) // 2 <= _BLOCK:
        # The block path records no trace; see _BLOCK for small sweeps.
        peak = _feed(xs, ys, _spans(first_runs, second), trace)[0]
    else:
        # uint64 copy of the staircase for the prefilter, synced after each
        # block. my ends with a sentinel that stands for "no successor": it
        # exceeds every b-count of a candidate with x > 0, since the letter
        # totals sum to at most MAX_TEXT_LENGTH.
        mx = array("Q")
        my = array("Q", [MAX_TEXT_LENGTH])
        peak = 0
        for bx, by, table in _blocks(first_runs, second):
            keep = _undominated(bx, by, table, mx, my)
            survivors = zip(bx.take(keep).tolist(), by.take(keep).tolist())
            block_peak, lo = _feed(xs, ys, survivors)
            peak = max(peak, block_peak)
            mx[lo:] = array("Q", xs[lo:])
            my[lo:-1] = array("Q", ys[lo:])
    if not xs:
        xs, ys = [0], [0]
    if not drop_last:
        xs, ys = ys, xs
        if trace is not None:
            trace._swap_all()
    return CornerList._of(tuple(xs), tuple(ys)), max(peak, len(xs))


def _filter(pairs: Iterable[ParikhVector]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order-free dominance filter in l_min orientation; returns the
    surviving first and second coordinates."""
    xs: list[int] = []
    ys: list[int] = []
    _feed(xs, ys, pairs)
    return (tuple(xs), tuple(ys)) if xs else ((0,), (0,))


def build_lmin(rle: RunLengthEncoding, trace: BuildTrace | None = None) -> CornerList:
    """Corners of the minimal-b staircase: for every stored (x, y), y is the
    fewest b's any substring with exactly x a's contains, and the stored
    a-counts are exactly those where that minimum is about to increase, plus
    the total a-count. Strings without a's yield the single entry (0, 0)."""
    return _sweep(rle.a_runs, rle.b_runs, True, trace)[0]


def build_lmax(rle: RunLengthEncoding, trace: BuildTrace | None = None) -> CornerList:
    """Corners of the maximal-b staircase, mirror of :func:`build_lmin`;
    always contains an entry at x = 0 whose b-count is the longest b-run.
    Strings without b's yield the single entry (0, 0)."""
    return _sweep(rle.b_runs, rle.a_runs, False, trace)[0]


def lmin_candidates(rle: RunLengthEncoding) -> list[ParikhVector]:
    """All r(r+1)/2 candidate pairs for l_min in generation order: the span
    of k consecutive a-runs starting at run i contributes (sum of those
    a-runs, sum of the b-runs strictly between them)."""
    return list(_spans(rle.a_runs, rle.b_runs))


def lmax_candidates(rle: RunLengthEncoding) -> list[ParikhVector]:
    """All r(r+1)/2 candidate pairs for l_max in generation order: the span
    of k consecutive b-runs starting at run i contributes (sum of the a-runs
    strictly between them, sum of those b-runs)."""
    return [(a, b) for b, a in _spans(rle.b_runs, rle.a_runs[1:])]


def assemble_lmin(candidates: Iterable[Sequence[int]]) -> CornerList:
    """Run the dominance filter over candidate pairs in the given order.

    The final list does not depend on the order; feeding a shuffled
    :func:`lmin_candidates` output reproduces :func:`build_lmin` exactly.
    """
    pairs = ((_count(p[0], "a-count"), _count(p[1], "b-count")) for p in candidates)
    return CornerList._of(*_filter(pairs))


def assemble_lmax(candidates: Iterable[Sequence[int]]) -> CornerList:
    """Order-independent dominance filter for the mirrored list."""
    pairs = ((_count(p[1], "b-count"), _count(p[0], "a-count")) for p in candidates)
    ys, xs = _filter(pairs)
    return CornerList._of(xs, ys)


def index_from_rle(rle: RunLengthEncoding) -> CornerIndex:
    """Build the full index from run lengths already in hand."""
    l_min, peak_min = _sweep(rle.a_runs, rle.b_runs, True)
    l_max, peak_max = _sweep(rle.b_runs, rle.a_runs, False)
    spans = rle.pairs * (rle.pairs + 1) // 2
    return CornerIndex(l_min, l_max, peak_min, peak_max, spans, spans)


def build_index(s: str) -> CornerIndex:
    """Encode the string and build its corner index."""
    return index_from_rle(encode(s))
