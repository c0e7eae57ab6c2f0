"""Prefix normal forms recovered from the corner index.

``pnf_a(s)`` is the unique binary string whose length-m prefix contains, for
every m, as many a's as the richest length-m substring of s; ``pnf_b`` is the
mirror for b's. Both are determined by the corner lists alone: the l_min
a-counts are pnf_a's a-run prefix sums and its b-counts, shifted by one,
pnf_a's b-run prefix sums; l_max gives pnf_b the same way after swapping the
roles of the two letters (Fici and Lipták, "On prefix normal words"). The
walk that reads the runs off a corner list lives in ``corner.py``, next to
``CornerIndex.length_tables``, whose tables are the a-counts of the two
forms' prefixes.

Run counting convention: with runs in padded form (a leading zero a-run or a
trailing zero b-run kept so runs pair up), pnf_a of a non-empty string always
has exactly as many run pairs as l_min has entries. The empty string is the
one degenerate exception: its l_min holds the mandatory (0, 0) entry while
the empty string has no runs at all.
"""

from __future__ import annotations

from itertools import accumulate

from .corner import CornerIndex, _pnf_runs
from .rle import _Record

__all__ = ["PnfPair", "pnf_from_index", "verify_pnf_relations"]


class PnfPair(_Record):
    """Both prefix normal forms of one string."""

    _fields = ("pnf_a", "pnf_b")

    def __init__(self, pnf_a: str, pnf_b: str):
        self.__dict__.update(pnf_a=pnf_a, pnf_b=pnf_b)


def pnf_from_index(index: CornerIndex) -> PnfPair:
    """Materialize both prefix normal forms from the corner lists; raise
    CorruptIndexError, as the index's first lookup does, if they cross."""
    index._segments  # the lookup table, whose merge refuses crossed lists
    l_min, l_max = index.l_min, index.l_max
    pnf_a = "".join(
        "a" * u + "b" * v for u, v in _pnf_runs(l_min.xs, l_min.ys, index.total_b)
    )
    pnf_b = "".join(
        "b" * u + "a" * v for u, v in _pnf_runs(l_max.ys, l_max.xs, index.total_a)
    )
    return PnfPair(pnf_a, pnf_b)


def verify_pnf_relations(index: CornerIndex, pnfs: PnfPair) -> bool:
    """Check the identities tying the normal forms back to the index.

    For every length m the a-count of pnf_a's m-prefix must equal the
    richest a-count over length-m substrings; the position of the i-th a in
    pnf_a locates the minimal-b staircase, and the position of the i+1-th a
    in pnf_b the maximal-b staircase (whose final value is the b total).
    Forms of the wrong length or with other than total_a a's fail. One scan
    of each string, plus a binary search per a for bmin and bmax.
    """
    from array import array  # here, so that `pnf --index` does not load it

    pnf_a, pnf_b = pnfs.pnf_a, pnfs.pnf_b
    n, total_a = index.n, index.total_a
    if len(pnf_a) != n or len(pnf_b) != n:
        return False
    a_counts = array("Q", accumulate(map("a".__eq__, pnf_a), initial=0))
    if a_counts != index.length_tables().max_a:
        return False
    where_a = [p for p, c in enumerate(pnf_a, 1) if c == "a"]
    where_b = [p for p, c in enumerate(pnf_b, 1) if c == "a"]
    if len(where_a) != total_a or len(where_b) != total_a:
        return False
    if index.bmin(0) != 0:
        return False
    if any(index.bmin(i) != p - i for i, p in enumerate(where_a, 1)):
        return False
    if any(index.bmax(i) != p - (i + 1) for i, p in enumerate(where_b)):
        return False
    return index.bmax(total_a) == index.total_b
