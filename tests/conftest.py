import itertools
import struct
from bisect import bisect_left
from itertools import accumulate

from cornerindex.corner import (
    BuildTrace,
    CornerIndex,
    CornerList,
    build_lmax,
    build_lmin,
    index_from_rle,
)

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


def reference_corner_points(points):
    """The per-entry validation ``CornerList`` made before its checks became
    C-level passes: returns the stored (xs, ys) tuples, or raises its
    ValueError."""
    xs, ys = [], []
    for p in points:
        xs.append(int(p[0]))
        ys.append(int(p[1]))
    if xs and (xs[0] < 0 or ys[0] < 0):
        raise ValueError("corner entries must be non-negative")
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1] or ys[i] <= ys[i - 1]:
            raise ValueError(
                "corner list must be strictly increasing in both coordinates"
            )
    return tuple(xs), tuple(ys)


def reference_deserialize(source):
    """``persist.deserialize`` as it was before the tuple-slicing loader:
    entries read as a list of pairs, each list checked by the per-entry
    loop and the anchors read off the pairs."""
    from cornerindex.persist import (
        _CHUNK, _HEADER, FORMAT_VERSION, MAGIC, CorruptIndexError, IndexFormatError,
    )

    def read_pairs(count, name):
        chunks = []
        missing = 16 * count
        while missing:
            chunk = source.read(min(missing, _CHUNK))
            if not chunk:
                raise CorruptIndexError(f"truncated {name} payload")
            chunks.append(chunk)
            missing -= len(chunk)
        flat = struct.unpack(f"<{2 * count}Q", b"".join(chunks))
        return list(zip(flat[0::2], flat[1::2]))

    def validated_list(pairs, name):
        if not pairs:
            raise CorruptIndexError(f"{name} is empty")
        try:
            reference_corner_points(pairs)
        except ValueError:
            raise CorruptIndexError(
                f"{name} is not strictly increasing in both coordinates"
            ) from None
        return CornerList(pairs)

    if source.read(8) != MAGIC:
        raise IndexFormatError("bad magic; not a corner-index file")
    rest = source.read(_HEADER.size - 8)
    if len(rest) != _HEADER.size - 8:
        raise CorruptIndexError("truncated header")
    version, n, total_a, total_b, k_min, k_max, peak_min, peak_max = struct.unpack(
        "<I7Q", rest
    )
    if version != FORMAT_VERSION:
        raise IndexFormatError(f"unsupported format version {version}")
    if n != total_a + total_b:
        raise CorruptIndexError("letter totals do not sum to the text length")
    pairs_min = read_pairs(k_min, "l_min")
    pairs_max = read_pairs(k_max, "l_max")
    l_min = validated_list(pairs_min, "l_min")
    l_max = validated_list(pairs_max, "l_max")
    if pairs_min[-1][0] != total_a:
        raise CorruptIndexError("l_min does not end at the total a-count")
    if pairs_min[0][1] != 0:
        raise CorruptIndexError("l_min does not start at b-count zero")
    if pairs_min[-1][1] > total_b:
        raise CorruptIndexError("l_min b-count exceeds the total")
    if pairs_max[0][0] != 0:
        raise CorruptIndexError("l_max does not start at a-count zero")
    if pairs_max[-1][1] != total_b:
        raise CorruptIndexError("l_max does not end at the total b-count")
    if pairs_max[-1][0] > total_a:
        raise CorruptIndexError("l_max a-count exceeds the total")
    return CornerIndex(l_min, l_max, n, total_a, total_b, peak_min, peak_max)
