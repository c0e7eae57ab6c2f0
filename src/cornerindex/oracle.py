"""Brute-force reference implementations for cross-checking the index.

Everything here works from first principles on the text itself and shares no
logic with the corner or prefix-normal-form modules; agreement between the
two sides is the evidence the test suite is built on. All routines except the
single-query scan materialize per-substring data, so they refuse texts longer
than a safety bound (default 4096) rather than silently burning CPU.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, groupby
from typing import NamedTuple, Sequence

from .rle import InputFormatError

__all__ = [
    "DEFAULT_MAX_TEXT",
    "TextTooLongError",
    "BminBmaxTable",
    "parikh_set_bruteforce",
    "bmin_bmax_naive",
    "sliding_window_query",
    "verify_interval_lemma",
    "lemma1_witness_check",
]

DEFAULT_MAX_TEXT = 4096


class TextTooLongError(InputFormatError):
    """Raised when a text exceeds the brute-force safety bound."""


def _check(s: str, max_n: int) -> None:
    if len(s) > max_n:
        raise TextTooLongError(
            f"text of length {len(s)} exceeds the brute-force bound {max_n}"
        )
    if s.strip("ab"):
        bad = s.strip("ab")[0]
        raise ValueError(f"not a binary string: unexpected character {bad!r}")


def parikh_set_bruteforce(s: str, max_n: int = DEFAULT_MAX_TEXT) -> set[tuple[int, int]]:
    """All (a_count, b_count) pairs realized by substrings of s, including
    (0, 0) for the empty substring. Plain O(n^2) enumeration."""
    _check(s, max_n)
    out = {(0, 0)}
    n = len(s)
    for i in range(n):
        a = 0
        b = 0
        for ch in s[i:]:
            if ch == "a":
                a += 1
            else:
                b += 1
            out.add((a, b))
    return out


class BminBmaxTable(NamedTuple):
    """Dense staircase tables indexed by a-count 0..|s|_a."""

    bmin: tuple[int, ...]
    bmax: tuple[int, ...]


def bmin_bmax_naive(s: str, max_n: int = DEFAULT_MAX_TEXT) -> BminBmaxTable:
    """Fewest/most b's over substrings with exactly x a's, for every x.

    Enumerates all substrings, vectorized one start position at a time.
    """
    _check(s, max_n)
    import numpy as np

    n = len(s)
    codes = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    prefix_a = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(codes == ord("a"), out=prefix_a[1:])
    total_a = int(prefix_a[-1])
    bmin = np.full(total_a + 1, n + 1, dtype=np.int64)
    bmax = np.full(total_a + 1, -1, dtype=np.int64)
    bmin[0] = 0  # empty substring
    bmax[0] = 0
    lengths = np.arange(1, n + 1, dtype=np.int64)
    for i in range(n):
        a_counts = prefix_a[i + 1 :] - prefix_a[i]
        b_counts = lengths[: n - i] - a_counts
        np.minimum.at(bmin, a_counts, b_counts)
        np.maximum.at(bmax, a_counts, b_counts)
    return BminBmaxTable(tuple(int(v) for v in bmin), tuple(int(v) for v in bmax))


def sliding_window_query(s: str, q: Sequence[int]) -> bool:
    """Single-query check: does a substring with exactly q = (x, y) a's and
    b's exist? One O(n) pass over windows of length x + y. No substring
    holds a fractional count, so a non-integral x or y gives False; a str,
    bytes or bytearray count raises TypeError, as in CornerIndex.query."""
    x, y = q[0], q[1]
    for v in (x, y):
        if isinstance(v, (str, bytes, bytearray)):
            raise TypeError(f"a count must be a number, not {type(v).__name__}")
    if x % 1 or y % 1:
        return False
    x, y = int(x), int(y)
    if x < 0 or y < 0:
        return False
    m = x + y
    n = len(s)
    if m == 0:
        return True
    if m > n:
        return False
    a_count = s.count("a", 0, m)
    if a_count == x:
        return True
    for i in range(m, n):
        if s[i] == "a":
            a_count += 1
        if s[i - m] == "a":
            a_count -= 1
        if a_count == x:
            return True
    return False


def verify_interval_lemma(s: str, max_n: int = DEFAULT_MAX_TEXT) -> bool:
    """For every substring length m, the achievable a-counts must form a
    contiguous interval. Checked directly against the brute-force set."""
    a_counts: dict[int, list[int]] = {}
    for x, y in parikh_set_bruteforce(s, max_n):
        a_counts.setdefault(x + y, []).append(x)
    # The set holds each a-count of a length once.
    return all(max(xs) - min(xs) + 1 == len(xs) for xs in a_counts.values())


def _span_vectors(s: str, letter: str) -> list[tuple[int, int]]:
    """Parikh vectors of all substrings that start and end with a complete
    run of ``letter`` (the empty substring counts as such a span)."""
    runs = [(ch, len(list(group))) for ch, group in groupby(s)]
    pa = list(accumulate((ln if ch == "a" else 0 for ch, ln in runs), initial=0))
    pb = list(accumulate((ln if ch == "b" else 0 for ch, ln in runs), initial=0))
    idx = [k for k, (ch, _) in enumerate(runs) if ch == letter]
    return [(0, 0)] + [
        (pa[k2 + 1] - pa[k1], pb[k2 + 1] - pb[k1])
        for i, k1 in enumerate(idx)
        for k2 in idx[i:]
    ]


def lemma1_witness_check(s: str, max_n: int = DEFAULT_MAX_TEXT) -> bool:
    """Every realized pair (x, y) must be witnessed from both sides: some
    substring made of whole a-runs at the ends realizes (x1, y1) with
    x1 >= x and y1 <= y, and some substring made of whole b-runs at the
    ends realizes (x2, y2) with x2 <= x and y2 >= y."""
    pi = parikh_set_bruteforce(s, max_n)

    wa = sorted(_span_vectors(s, "a"))
    xs_a = [x for x, _ in wa]
    suffix_min_y = list(accumulate((y for _, y in reversed(wa)), min))[::-1]
    wb = sorted(_span_vectors(s, "b"))
    xs_b = [x for x, _ in wb]
    prefix_max_y = list(accumulate((y for _, y in wb), max))

    for x, y in pi:
        i = bisect_left(xs_a, x)
        if i >= len(wa) or suffix_min_y[i] > y:
            return False
        j = bisect_right(xs_b, x) - 1
        if j < 0 or prefix_max_y[j] < y:
            return False
    return True
