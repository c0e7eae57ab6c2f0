"""Prefix normal forms recovered from the corner index.

``pnf_a(s)`` is the unique binary string whose length-m prefix contains, for
every m, as many a's as the richest length-m substring of s; ``pnf_b`` is the
mirror for b's. Both are determined by the corner lists alone: the l_min
a-counts are pnf_a's a-run prefix sums and its b-counts, shifted by one,
pnf_a's b-run prefix sums; l_max gives pnf_b the same way after swapping the
roles of the two letters (Fici and Lipták, "On prefix normal words"). The
walk that reads the runs off a corner list lives in ``corner.py``, next to
``CornerIndex.length_tables``, whose tables are the a-counts of the two
forms' prefixes. Each form is also fixed by one staircase: the i-th a of
pnf_a follows exactly bmin(i) b's and the (i + 1)-th a of pnf_b bmax(i)
b's, which is how ``verify_pnf_relations`` rebuilds both from the index's
lookup table.

Run counting convention: with runs in padded form (a leading zero a-run or a
trailing zero b-run kept so runs pair up), pnf_a of a non-empty string always
has exactly as many run pairs as l_min has entries. The empty string is the
one degenerate exception: its l_min holds the mandatory (0, 0) entry while
the empty string has no runs at all.
"""

from __future__ import annotations

import sys

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
    CorruptIndexError, as the index's first lookup does, if they cross, and
    MemoryError if the forms do not fit in memory."""
    index._segments  # the lookup table, whose merge refuses crossed lists
    # No str is longer than sys.maxsize; "a" * n would raise OverflowError.
    if index.n > sys.maxsize:
        raise MemoryError(f"prefix normal forms of {index.n} characters")
    l_min, l_max = index.l_min, index.l_max
    pnf_a = "".join(
        "a" * u + "b" * v for u, v in _pnf_runs(l_min.xs, l_min.ys, index.total_b)
    )
    pnf_b = "".join(
        "b" * u + "a" * v for u, v in _pnf_runs(l_max.ys, l_max.xs, index.total_a)
    )
    return PnfPair(pnf_a, pnf_b)


def verify_pnf_relations(index: CornerIndex, pnfs: PnfPair) -> bool:
    """Check both normal forms against the index's bmin and bmax.

    The i-th a of pnf_a must follow exactly bmin(i) b's, for i = 1 to
    total_a, and the (i + 1)-th a of pnf_b exactly bmax(i) b's, for i = 0
    to total_a - 1; each form then closes with b's up to total_b. Both
    bounds are constant on each segment of the lookup table that ``query``
    answers from, so the check rebuilds the two forms in one pass over the
    segments and costs that plus two string comparisons. Forms of the
    wrong length, with a misplaced letter, or with a letter other than a
    or b fail. Raises CorruptIndexError, as the index's first lookup does,
    if the lists cross.
    """
    starts, low, high = index._segments
    total_a, total_b = index.total_a, index.total_b
    forms = []
    # Row i of the table covers a-counts starts[i - 1]..starts[i] - 1; pnf_a
    # places the a's of counts 1..total_a, pnf_b those of 0..total_a - 1.
    for bounds, first in ((low, 1), (high, 0)):
        parts, b_count = [], 0
        for start, end, bound in zip(starts, starts[1:], bounds[1:]):
            a_count = min(end, total_a + first) - max(start, first)
            parts.append("b" * (bound - b_count) + "a" * a_count)
            b_count = bound
        parts.append("b" * (total_b - b_count))
        forms.append("".join(parts))
    return [pnfs.pnf_a, pnfs.pnf_b] == forms
