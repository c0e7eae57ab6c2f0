"""Corner index: jumbled-occurrence queries on a binary string.

A query pair (x, y) "occurs" in s when some substring of s contains exactly
x a's and y b's. For each a-count x the achievable b-counts form a contiguous
interval [bmin(x), bmax(x)], and both endpoint functions are monotone
staircases. The index stores only the corners of those staircases:

* ``l_min`` holds (x, bmin(x)) at every x where bmin is about to step up,
  plus the final entry at x = total_a;
* ``l_max`` holds (x, bmax(x)) at every x where bmax has just stepped up,
  plus the mandatory entry at x = 0.

Both lists are strictly increasing in both coordinates: bmin(x) is the
b-count of l_min's first entry at or after x, bmax(x) that of l_max's last
entry at or before x. The first lookup on an index merges the two lists, in
O(|l_min| + |l_max|), into one table of the a-count segments on which
neither bmin nor bmax changes, with both values per segment and sentinel
segments below 0 and above total_a that no b-count fits. ``bmin``, ``bmax``
and ``query`` each find x's segment with one binary search; a query then
compares y with the segment's two bounds. The merge also refuses lists
that cross (bmin(x) > bmax(x) for some x), which no string has.

Construction lives in ``build.py``, which this module never imports.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import chain
from operator import lt, sub
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .rle import MAX_TEXT_LENGTH, _count, _integral, _Record

__all__ = [
    "ParikhVector",
    "CornerList",
    "CornerIndex",
    "LengthTables",
]

# A Parikh vector of a binary string: (number of a's, number of b's).
ParikhVector = tuple[int, int]


class CorruptIndexError(ValueError):
    """Crossed corner lists, or an inconsistent corner-index file. The
    ``CornerIndex`` constructor raises it for an empty list or an anchor
    that does not hold, and the first lookup for lists that cross."""


class CornerList(Sequence):
    """Immutable list of (a_count, b_count) pairs, strictly increasing in
    both coordinates."""

    __slots__ = ("_xs", "_ys")

    def __init__(self, points: Iterable[Sequence[int]]):
        xs: list[int] = []
        ys: list[int] = []
        for p in points:
            xs.append(_count(p[0], "a-count"))
            ys.append(_count(p[1], "b-count"))
        self._init(tuple(xs), tuple(ys))

    @classmethod
    def _of(cls, xs: tuple[int, ...], ys: tuple[int, ...]) -> CornerList:
        """The list with coordinate tuples xs and ys, two equally long
        tuples of ints, validated as the public constructor validates."""
        self = cls.__new__(cls)
        self._init(xs, ys)
        return self

    @classmethod
    def _unchecked(cls, xs: tuple[int, ...], ys: tuple[int, ...]) -> CornerList:
        """The list with coordinate tuples xs and ys, which the caller has
        already shown to be non-negative and strictly increasing."""
        self = cls.__new__(cls)
        self._xs = xs
        self._ys = ys
        return self

    def _init(self, xs: tuple[int, ...], ys: tuple[int, ...]) -> None:
        # Each check is one C-level pass over a tuple.
        if xs and (xs[0] < 0 or ys[0] < 0):
            raise ValueError("corner entries must be non-negative")
        if not (all(map(lt, xs, xs[1:])) and all(map(lt, ys, ys[1:]))):
            raise ValueError(
                "corner list must be strictly increasing in both coordinates"
            )
        self._xs = xs
        self._ys = ys

    # -- sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._xs)

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return tuple(zip(self._xs[i], self._ys[i]))
        return (self._xs[i], self._ys[i])

    def __iter__(self) -> Iterator[ParikhVector]:
        return iter(zip(self._xs, self._ys))

    def __eq__(self, other) -> bool:
        if isinstance(other, CornerList):
            return self._xs == other._xs and self._ys == other._ys
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._xs, self._ys))

    def __repr__(self) -> str:
        return f"CornerList({list(self)!r})"

    @property
    def xs(self) -> tuple[int, ...]:
        return self._xs

    @property
    def ys(self) -> tuple[int, ...]:
        return self._ys


class LengthTables(NamedTuple):
    """Per-length a-count envelope: for every substring length m from 0 to
    n, ``min_a[m]`` and ``max_a[m]`` bound the a-counts over all length-m
    substrings, and every value between them is achieved. Each field is an
    ``array('Q')`` of n + 1 counts, 8 bytes an entry; ``==`` between two
    tables compares their entries and returns a bool."""

    min_a: Sequence[int]
    max_a: Sequence[int]


def _pnf_runs(
    firsts: Sequence[int], seconds: Sequence[int], total_second: int
) -> Iterator[tuple[int, int]]:
    """Run pairs of a prefix normal form, read off one corner list.

    The stored first coordinates are the prefix sums of the form's
    first-letter runs; the stored second coordinates, shifted one slot and
    closed off by the total, those of its second-letter runs. l_min read as
    (a-counts, b-counts) gives pnf_a's (a-run, b-run) pairs, and l_max read
    as (b-counts, a-counts) gives pnf_b's (b-run, a-run) pairs.
    """
    return zip(map(sub, firsts, (0, *firsts)),
               map(sub, (*seconds[1:], total_second), seconds))


def _prefix_counts(runs: Iterator[tuple[int, int]], steps: bytes) -> Sequence[int]:
    """Letter counts of a prefix normal form's prefixes, from length 0 to
    n, as an ``array('Q')``: ``steps`` holds what each of the form's two
    letters in a run pair adds to the count, 0 or 1."""
    # Imported here, so that serving an index loads neither module.
    from array import array

    import numpy as np

    lengths = array("Q", chain.from_iterable(runs))
    # np.repeat refuses uint64 repeat counts; run lengths that need the
    # 64th bit could not be expanded in memory anyway.
    expanded = np.repeat(np.frombuffer(steps * (len(lengths) >> 1), np.uint8),
                         np.frombuffer(lengths, np.int64))
    # The counts are summed in place in the array's own buffer, so the only
    # other allocation is one byte per letter for the steps.
    counts = array("Q", [0]) * (len(expanded) + 1)
    tail = np.frombuffer(counts, np.uint64)[1:]
    tail[:] = expanded
    np.add.accumulate(tail, out=tail)
    return counts


class CornerIndex(_Record):
    """Frozen query structure for one binary string.

    Carries both corner lists, which fix the letter totals (``total_a`` is
    l_min's last a-count, ``total_b`` l_max's last b-count) and ``n``; the
    constructor raises CorruptIndexError when a list is empty or the lists'
    anchors disagree. These derived fields, and the construction
    instrumentation peak_* and inspected_* (largest working-list size
    reached, candidates examined), are excluded from equality. The
    instrumentation is stored as unsigned 64-bit words, so the constructor
    raises ValueError naming the field when one is not an int in
    0..2**64 - 1.
    """

    _fields = ("l_min", "l_max", "peak_min", "peak_max", "inspected_min",
               "inspected_max", "n", "total_a", "total_b")
    _compared = 2

    def __init__(
        self,
        l_min: CornerList,
        l_max: CornerList,
        peak_min: int = 1,
        peak_max: int = 1,
        inspected_min: int = 0,
        inspected_max: int = 0,
    ):
        # MAX_TEXT_LENGTH is also the largest unsigned 64-bit word. One
        # chained test covers all four counters; only a failure looks for
        # the field to name.
        top = MAX_TEXT_LENGTH
        if not (type(peak_min) is type(peak_max) is type(inspected_min)
                is type(inspected_max) is int
                and 0 <= peak_min <= top and 0 <= peak_max <= top
                and 0 <= inspected_min <= top and 0 <= inspected_max <= top):
            counters = (peak_min, peak_max, inspected_min, inspected_max)
            for name, value in zip(self._fields[2:6], counters):
                if type(value) is not int or not 0 <= value <= top:
                    raise ValueError(f"{name} must be an int in 0..2**64 - 1, not {value!r}")
        # The coordinate tuples directly: this runs on every load.
        xs_min, ys_min = l_min._xs, l_min._ys
        xs_max, ys_max = l_max._xs, l_max._ys
        if not xs_min or not xs_max:
            raise CorruptIndexError("corner lists must not be empty")
        total_a = xs_min[-1]
        total_b = ys_max[-1]
        if ys_min[0] != 0:
            raise CorruptIndexError("l_min does not start at b-count zero")
        if ys_min[-1] > total_b:
            raise CorruptIndexError("l_min b-count exceeds the total")
        if xs_max[0] != 0:
            raise CorruptIndexError("l_max does not start at a-count zero")
        if xs_max[-1] > total_a:
            raise CorruptIndexError("l_max a-count exceeds the total")
        self.__dict__.update(
            l_min=l_min, l_max=l_max, peak_min=peak_min, peak_max=peak_max,
            inspected_min=inspected_min, inspected_max=inspected_max,
            n=total_a + total_b, total_a=total_a, total_b=total_b,
        )

    def bmin(self, x: int) -> int:
        """Fewest b's over substrings with exactly x a's (0 <= x <= total_a)."""
        return self._bounds(x)[0]

    def bmax(self, x: int) -> int:
        """Most b's over substrings with exactly x a's (0 <= x <= total_a)."""
        return self._bounds(x)[1]

    def _bounds(self, x: int) -> tuple[int, int]:
        """(bmin(x), bmax(x)); ValueError unless x is an integral a-count
        in 0..total_a. Integral values of other numeric types are looked
        up as the ints they equal, as in :meth:`query`."""
        x = _count(x, "a-count")
        starts, low, high = self._segments
        i = bisect_right(starts, x)
        if not 0 < i < len(starts):  # a sentinel row
            raise ValueError(f"a-count {x} out of range 0..{self.total_a}")
        return low[i], high[i]

    def query(self, x: int, y: int) -> bool:
        """Does some substring contain exactly x a's and y b's?

        Out-of-range and non-integral pairs are simply absent (returns
        False). Integral values of other numeric types, such as numpy
        integers or 2.0, are answered as the ints they equal. A str,
        bytes or bytearray count raises TypeError, and corner lists that
        cross raise CorruptIndexError.

        The first lookup on an index (query, bmin or bmax) builds the
        segment table in one O(|l_min| + |l_max|) merge: 13-26 µs for an
        index of a text of up to 512 characters, about 1 ms for one of
        4,000 corners. An index queried fewer than about 50 times does not
        earn that back.
        """
        if type(x) is not int or type(y) is not int:
            x, y = _integral(x), _integral(y)
            if x is None or y is None:
                return False
        starts, low, high = self._segments
        i = bisect_right(starts, x)
        return low[i] <= y <= high[i]

    @cached_property
    def _segments(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(starts, low, high): bmin(x) = low[i] and bmax(x) = high[i] for
        starts[i - 1] <= x < starts[i], where i = bisect_right(starts, x).

        starts holds every a-count at which bmin or bmax takes a new value:
        0, each l_max a-count, and each l_min a-count plus one, the last of
        which is total_a + 1. Rows 0 (x < 0) and len(starts) (x > total_a)
        hold low = 1 > high = 0, which no y satisfies. Built by the first
        lookup, not on load; threads that make first lookups at once may
        each build it, and all build the same table. Raises
        CorruptIndexError at the smallest x where the lists cross.
        """
        xs_min, ys_min = self.l_min._xs, self.l_min._ys
        ys_max = self.l_max._ys
        total_a = self.total_a
        # The a-count at which bmax next steps, after each l_max entry.
        steps_max = (*self.l_max._xs[1:], total_a + 1)
        starts, low, high = [], [1], [0]
        i = j = x = 0
        while x <= total_a:
            # Each x is the nearer of xs_min[i] + 1 and steps_max[j] for the
            # previous x's i and j, so i and j move on by at most one each.
            if steps_max[j] <= x:
                j += 1
            if xs_min[i] < x:
                i += 1
                # bmin(0) = 0, and a step of bmax alone cannot make the
                # lists cross, so a step of bmin is the only place to look.
                if ys_min[i] > ys_max[j]:
                    raise CorruptIndexError(
                        f"corner lists cross: bmin({x}) = {ys_min[i]} > "
                        f"bmax({x}) = {ys_max[j]}"
                    )
            starts.append(x)
            low.append(ys_min[i])
            high.append(ys_max[j])
            x = xs_min[i] + 1
            if steps_max[j] < x:  # a min() call would double the loop's time
                x = steps_max[j]
        starts.append(x)
        low.append(1)
        high.append(0)
        return tuple(starts), tuple(low), tuple(high)

    def __getstate__(self) -> dict:
        # Pickles and copies carry the corner lists, not the query table.
        state = self.__dict__.copy()
        state.pop("_segments", None)
        return state

    def query_many(self, xs: Iterable[int], ys: Iterable[int]) -> list[bool]:
        """:meth:`query` for each pair (x, y) of ``zip(xs, ys)``."""
        return list(map(self.query, xs, ys))

    def length_tables(self) -> LengthTables:
        """Expand the corner lists into per-length a-count bounds.

        max_a[m] is the a-count of pnf_a's m-prefix and min_a[m] that of
        pnf_b's: max_a rises over each of pnf_a's a-runs and stays flat
        over its b-runs, min_a stays flat over each of pnf_b's b-runs and
        rises over its a-runs. Each table is one numpy expansion of the
        form's O(|L|) run lengths into an ``array('Q')``: O(n) work in C,
        8 bytes an entry. numpy and array are imported here, not when the
        module loads. It first builds the lookup table, whose merge raises
        CorruptIndexError if the lists cross.
        """
        self._segments  # the lookup table, whose merge refuses crossed lists
        return LengthTables(
            _prefix_counts(_pnf_runs(self.l_max.ys, self.l_max.xs, self.total_a), b"\0\1"),
            _prefix_counts(_pnf_runs(self.l_min.xs, self.l_min.ys, self.total_b), b"\1\0"),
        )
