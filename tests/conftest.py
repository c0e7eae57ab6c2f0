import itertools
import struct
import zlib
from bisect import bisect_left, bisect_right
from itertools import accumulate
from unittest import mock

from cornerindex.build import BuildTrace, build_lmax, build_lmin, index_from_rle
from cornerindex.corner import CornerIndex, CornerList, _pnf_runs
from cornerindex.rle import MAX_TEXT_LENGTH

# Running example used across the suite: 18 characters, 10 runs.
EXAMPLE = "aabababbaaabbaabbb"
EXAMPLE_BMIN = (0, 0, 0, 0, 2, 2, 4, 4, 6, 6)
EXAMPLE_BMAX = (3, 3, 5, 5, 5, 7, 8, 9, 9, 9)
EXAMPLE_LMIN = [(3, 0), (5, 2), (7, 4), (9, 6)]
EXAMPLE_LMAX = [(0, 3), (2, 5), (5, 7), (6, 8), (7, 9)]
EXAMPLE_PNF_A = "aaabbaabbaabbaabbb"
EXAMPLE_PNF_B = "bbbaabbaaabbababaa"

# Run lists (a_runs, b_runs) with counts near 2^61, 2^62 and 2^63; the last
# two texts have the largest length allowed, 2^64 - 1. In the last one, a
# block of all four rows, as every block sweep forms first at block size 1,
# would need a row table of about 1.5 * 2^64 cells.
HUGE_RUNS = [
    ((1 << 62, (1 << 62) - 5, 3), (1 << 61, 7, 1 << 61)),
    ((0, 1, (1 << 63) - 1, 2), (5, 1 << 62, 9, 0)),
    (((1 << 63) + 11, 4), (3, (1 << 62) + 1)),
    ((MAX_TEXT_LENGTH - 2, 1), (1, 0)),
    ((1 << 61,) * 4, (1 << 61,) * 3 + ((1 << 61) - 1,)),
]


def all_binary_strings(max_len, min_len=0):
    """Every string over {a, b} with min_len <= length <= max_len."""
    for length in range(min_len, max_len + 1):
        for tpl in itertools.product("ab", repeat=length):
            yield "".join(tpl)


def reference_sweep(first_runs, second_runs, drop_last):
    """The sequential construction sweep as it was before batching: every
    span in (k, i) order goes through the successor test, in Python ints.

    Returns (points, peak, trace) for ``build._sweep``'s arguments, with
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


def block_sizes(plain, sparse=None):
    """Patch the sweep's plain-int threshold (``build._BLOCK``, which also
    sizes dense blocks) and its sparse block budget (``build._SPARSE_BLOCK``,
    ``plain`` unless given), so that small inputs reach every kind of
    block."""
    return mock.patch.multiple(
        "cornerindex.build",
        _BLOCK=plain,
        _SPARSE_BLOCK=plain if sparse is None else sparse,
    )


def reference_query(index, x, y):
    """``CornerIndex.query`` for integers x and y as it was before the
    segment table: a range check on x, then the successor search for bmin
    in l_min's a-counts and the predecessor search for bmax in l_max's."""
    if x < 0 or x > index.total_a:
        return False
    l_min, l_max = index.l_min, index.l_max
    return (
        l_min.ys[bisect_left(l_min.xs, x)]
        <= y
        <= l_max.ys[bisect_right(l_max.xs, x) - 1]
    )


def reference_length_tables(index):
    """``CornerIndex.length_tables`` as it was before its numpy expansion:
    one walk over the corner runs, extending lists of Python ints.

    Returns (min_a, max_a) as tuples. max_a rises over each of pnf_a's
    a-runs and stays flat over its b-runs; min_a stays flat over each of
    pnf_b's b-runs and rises over its a-runs.
    """
    max_a = [0]
    for u, v in _pnf_runs(index.l_min.xs, index.l_min.ys, index.total_b):
        c = max_a[-1]
        max_a += range(c + 1, c + u + 1)
        max_a += [c + u] * v
    min_a = [0]
    for u, v in _pnf_runs(index.l_max.ys, index.l_max.xs, index.total_a):
        c = min_a[-1]
        min_a += [c] * u
        min_a += range(c + 1, c + v + 1)
    return tuple(min_a), tuple(max_a)


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


_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _fit(value):
    """The narrowest of 1, 2, 4 and 8 bytes that holds value."""
    return next(w for w in (1, 2, 4, 8) if value < 256 ** w)


def _counts(raw):
    """The entry counts k_min and k_max that raw's header stores: in version
    4, the first two header fields, each as wide as the byte at 12 says."""
    if _version(raw) == 4:
        wh = raw[12]
        return tuple(int.from_bytes(raw[17 + wh * i:17 + wh * (i + 1)], "little")
                     for i in (0, 1))
    return struct.unpack_from("<2Q", raw, 36)


def v4_field(raw, i):
    """Offset and struct format of header field i of the version 4 file
    raw: k_min, k_max, peak_min and peak_max for i = 0 to 3."""
    wh = raw[12]
    return 17 + wh * i, "<" + _CODES[wh]


def _layout(raw):
    """The widths of the four columns of a version 2, 3 or 4 file (l_min
    a-counts, l_min b-counts, l_max a-counts, l_max b-counts), the offset of
    the first, and the size of its header and payload, all read off its
    header: version 2 sizes each column by its letter total, version 3
    stores the widths in the four bytes after the 68-byte header, version 4
    in the four bytes after its header field width, and its four header
    fields follow at that width."""
    version = _version(raw)
    k_min, k_max = _counts(raw)
    if version == 4:
        widths, start = tuple(raw[13:17]), 17 + 4 * raw[12]
    elif version == 3:
        widths, start = tuple(raw[68:72]), 72
    else:
        total_a, total_b = struct.unpack_from("<2Q", raw, 20)
        widths, start = (_fit(total_a), _fit(total_b)) * 2, 68
    return widths, start, start + (widths[0] + widths[1]) * k_min + (widths[2] + widths[3]) * k_max


def cix_bytes(version, n, total_a, total_b, l_min, l_max, peak_min, peak_max):
    """Reference .cix writer for the four format versions: the bytes of a
    file with these header fields and these lists of (a_count, b_count)
    pairs, laid out as ``version`` says, whether or not the fields are
    consistent.

    Version 1 stores each entry as two u64s and no checksum. Version 2
    stores four columns, each as wide as its letter total needs, and a CRC32
    of everything before it. Version 3 stores each column as its first count
    and then the difference from each count to the next, as wide as the
    largest of those needs, the four widths as bytes after the header, and
    the CRC32; each list must increase. Version 4 stores no n, total_a or
    total_b: after the version come the width of its header fields, the
    four column widths, then k_min, k_max and both peaks at that width, and
    the columns and CRC32 as in version 3."""
    if version == 1:
        flat = [v for lst in (l_min, l_max) for point in lst for v in point]
        return struct.pack(
            f"<8sI7Q{len(flat)}Q", b"CORNERIX", 1, n, total_a, total_b,
            len(l_min), len(l_max), peak_min, peak_max, *flat,
        )
    columns = [[point[coord] for point in lst] for lst in (l_min, l_max) for coord in (0, 1)]
    if version == 2:
        widths = (_fit(total_a), _fit(total_b)) * 2
    else:
        columns = [[b - a for a, b in zip([0, *col], col)] for col in columns]
        widths = [_fit(max(col, default=0)) for col in columns]
    if version == 4:
        fields = (len(l_min), len(l_max), peak_min, peak_max)
        wh = _fit(max(fields))
        header = struct.pack("<8sI5B", b"CORNERIX", 4, wh, *widths) + struct.pack(
            f"<4{_CODES[wh]}", *fields)
    else:
        header = struct.pack(
            "<8sI7Q", b"CORNERIX", version, n, total_a, total_b,
            len(l_min), len(l_max), peak_min, peak_max,
        )
        if version == 3:
            header += bytes(widths)
    body = header + b"".join(
        struct.pack(f"<{len(col)}{_CODES[width]}", *col)
        for col, width in zip(columns, widths)
    )
    return body + struct.pack("<I", zlib.crc32(body))


def index_bytes(index, version):
    """The index written by ``cix_bytes`` in the given format version;
    version 1 gives the bytes ``persist.serialize`` wrote before format
    version 2, version 2 those it wrote before version 3, version 3 those it
    wrote before version 4."""
    return cix_bytes(
        version, index.n, index.total_a, index.total_b, list(index.l_min),
        list(index.l_max), index.peak_min, index.peak_max,
    )


def _version(raw):
    return struct.unpack_from("<I", raw, 8)[0]


def cix_field(raw, name, i, coord):
    """Offset and struct format of one stored value in the .cix bytes raw:
    coordinate ``coord`` (0 for the a-count, 1 for the b-count) of entry
    ``i`` of list ``name``, laid out as the file's own header says. The
    value is that count in versions 1 and 2, and in versions 3 and 4 the
    difference from the entry before (the count itself for entry 0)."""
    k_min, k_max = _counts(raw)
    after = name == "l_max"
    if _version(raw) == 1:
        return 68 + 16 * (k_min * after + i) + 8 * coord, "<Q"
    widths, offset, _ = _layout(raw)
    column = 2 * after + coord
    offset += sum(w * k for w, k in zip(widths[:column], (k_min, k_min, k_max)))
    return offset + widths[column] * i, "<" + _CODES[widths[column]]


def stored(raw, name, i, coord):
    """The value ``cix_field`` locates in raw."""
    offset, fmt = cix_field(raw, name, i, coord)
    return struct.unpack_from(fmt, raw, offset)[0]


def count_at(raw, name, i, coord):
    """The count that raw stores as coordinate ``coord`` of entry ``i`` of
    list ``name``: in versions 3 and 4, the sum of its column up to entry i."""
    if _version(raw) in (3, 4):
        return sum(stored(raw, name, j, coord) for j in range(i + 1))
    return stored(raw, name, i, coord)


def set_count(raw, name, i, coord, value):
    """Make value the count ``count_at`` reads in raw, a bytearray, and
    leave every other count as it was: in versions 3 and 4, by moving the
    difference before the entry and the one after it. Raises struct.error
    when a stored value would not fit its column. Returns raw."""
    if _version(raw) not in (3, 4):
        offset, fmt = cix_field(raw, name, i, coord)
        struct.pack_into(fmt, raw, offset, value)
        return raw
    shift = value - count_at(raw, name, i, coord)
    count = _counts(raw)[name == "l_max"]
    for j, move in ((i, shift), (i + 1, -shift)):
        if j < count:
            offset, fmt = cix_field(raw, name, j, coord)
            struct.pack_into(fmt, raw, offset, stored(raw, name, j, coord) + move)
    return raw


def decoded_lists(raw):
    """The (a_count, b_count) lists l_min and l_max that a complete file
    raw of any version stores, each count read on its own."""
    counts = _counts(raw)
    return [
        [tuple(count_at(raw, name, i, coord) for coord in (0, 1)) for i in range(k)]
        for name, k in zip(("l_min", "l_max"), counts)
    ]


def seal(raw):
    """raw's header and the payload it declares (as much of it as raw
    holds), closed as a writer closes them: a version 2, 3 or 4 file gets a
    freshly computed CRC32; a file of another version, or one that ends
    before the header fields its layout needs, is returned as it is."""
    if _version(raw) not in (2, 3, 4):
        return bytes(raw)
    try:
        end = _layout(raw)[2]
    except (IndexError, struct.error):
        return bytes(raw)
    body = bytes(raw[:end])
    return body + struct.pack("<I", zlib.crc32(body))


def reference_deserialize(source):
    """``persist.deserialize`` of a version 1 file as it was before the
    tuple-slicing loader: entries read as a list of pairs, each list checked
    by the per-entry loop and the anchors read off the pairs."""
    from cornerindex.persist import _HEADER, MAGIC, CorruptIndexError, IndexFormatError

    chunk_size = 1 << 20  # bounded reads: a header may claim 2^58 entries

    def read_pairs(count, name):
        chunks = []
        missing = 16 * count
        while missing:
            chunk = source.read(min(missing, chunk_size))
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
    if version != 1:
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
    return CornerIndex(l_min, l_max, peak_min, peak_max)
