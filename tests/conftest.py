import itertools
from bisect import bisect_left
from itertools import accumulate

from cornerindex.corner import BuildTrace, build_lmax, build_lmin, index_from_rle

# Running example used across the suite: 18 characters, 10 runs.
EXAMPLE = "aabababbaaabbaabbb"
EXAMPLE_BMIN = (0, 0, 0, 0, 2, 2, 4, 4, 6, 6)
EXAMPLE_BMAX = (3, 3, 5, 5, 5, 7, 8, 9, 9, 9)
EXAMPLE_LMIN = [(3, 0), (5, 2), (7, 4), (9, 6)]
EXAMPLE_LMAX = [(0, 3), (2, 5), (5, 7), (6, 8), (7, 9)]
EXAMPLE_PNF_A = "aaabbaabbaabbaabbb"
EXAMPLE_PNF_B = "bbbaabbaaabbababaa"


def all_binary_strings(max_len, min_len=0):
    """Every string over {a, b} with min_len <= length <= max_len."""
    for length in range(min_len, max_len + 1):
        for tpl in itertools.product("ab", repeat=length):
            yield "".join(tpl)


def reference_sweep(first_runs, second_runs, drop_last):
    """The sequential construction sweep as it was before batching: every
    span in (k, i) order goes through the successor test, in Python ints.

    Returns (points, peak, trace) for ``corner._sweep``'s arguments, with
    l_max (``drop_last`` false) swapped back to (a_count, b_count).
    """
    p1 = list(accumulate(first_runs, initial=0))
    gaps = list(accumulate(second_runs if drop_last else second_runs[1:], initial=0))
    r = len(first_runs)
    xs, ys = [], []
    trace = BuildTrace()
    peak = 0
    for k in range(1, r + 1):
        for i in range(r - k + 1):
            x = p1[i + k] - p1[i]
            y = gaps[i + k - 1] - gaps[i]
            trace.candidates.append((x, y))
            if x == 0:
                continue
            idx = bisect_left(xs, x)
            if idx < len(xs) and ys[idx] <= y:
                continue
            if idx < len(xs) and xs[idx] == x:
                trace.deleted.append((x, ys[idx]))
                del xs[idx], ys[idx]
            xs.insert(idx, x)
            ys.insert(idx, y)
            trace.inserted.append((x, y))
            peak = max(peak, len(xs))
            while idx > 0 and ys[idx - 1] >= y:
                idx -= 1
                trace.deleted.append((xs[idx], ys[idx]))
                del xs[idx], ys[idx]
    points = list(zip(xs, ys)) or [(0, 0)]
    if not drop_last:
        points = [(x, y) for y, x in points]
        trace = BuildTrace(*([(b, a) for a, b in events] for events in (
            trace.candidates, trace.inserted, trace.deleted)))
    return points, max(peak, len(points)), trace


def assert_matches_reference(rle):
    """Lists, peaks and every BuildTrace event of both sweeps equal the
    reference sweep's."""
    idx = index_from_rle(rle)
    for build, args, built, peak in (
        (build_lmin, (rle.a_runs, rle.b_runs, True), idx.l_min, idx.peak_min),
        (build_lmax, (rle.b_runs, rle.a_runs, False), idx.l_max, idx.peak_max),
    ):
        points, ref_peak, ref_trace = reference_sweep(*args)
        trace = BuildTrace()
        assert list(build(rle, trace)) == points
        assert list(built) == points
        assert peak == ref_peak
        assert trace == ref_trace
