"""Binary on-disk format for corner indexes.

``serialize`` writes format version 4; ``deserialize`` reads versions 1
to 4. Layout of version 4, all integers little-endian:

    offset      size        field
    0           8           magic b"CORNERIX"
    8           4           format version (u32), 4
    12          1           header field width wh
    13          4           column widths w1, w2, w3, w4 (u8 each)
    17          wh          l_min entry count, k_min
    17 + wh     wh          l_max entry count, k_max
    17 + 2 wh   wh          peak working size while building l_min
    17 + 3 wh   wh          peak working size while building l_max
    17 + 4 wh   w1 * k_min  l_min a-counts
    ...         w2 * k_min  l_min b-counts
    ...         w3 * k_max  l_max a-counts
    ...         w4 * k_max  l_max b-counts
    ...         4           CRC32 (zlib.crc32, u32) of every byte before it

Each column stores its list's first count, then the difference from each
count to the next. Every width is the smallest of 1, 2, 4 and 8 bytes that
holds the largest value it covers: wh the four header fields, each column
its stored values. Consecutive corners differ by one run of a prefix normal
form, so the differences are run lengths and often need fewer bytes than
the counts. Stored values are unsigned, so a list is strictly increasing
exactly when no difference after its first value is zero. The text length
and the letter totals are not stored: total_a is l_min's last a-count and
total_b is l_max's last b-count.

Version 3, read only, has seven u64 header fields after the version, n,
total_a, total_b, k_min, k_max and the two peaks, then the four column
widths, the columns as in version 4, and the CRC32: 72 header bytes.

Version 2, read only, has the same header with version 2 and no width
bytes, then the four columns as absolute counts, each a-count column as
wide as total_a needs and each b-count column as wide as total_b needs by
the same rule, then the CRC32.

Version 1, read only, has the same header with version 1, then the k_min
l_min entries and the k_max l_max entries, each an (a_count u64, b_count
u64) pair, and no checksum: a payload edited so that it stays monotone and
within the totals loads as a different index.

A bad magic or unknown version raises IndexFormatError. Everything else a
reader can notice wrong about the payload raises CorruptIndexError with the
failing check named in the message. A width byte other than 1, 2, 4 or 8 is
rejected before any field after it is read, and a version 2 to 4 file whose
checksum does not match is rejected before its entries are decoded. In
versions 1 to 3, an entry count that the letter totals rule out is rejected
before the payload's length is checked.

``deserialize`` reads its stream once: the 12-byte prefix and, if that
opens like the magic, the rest of the stream to its end; a read that
returns None, as a non-blocking stream's does with nothing ready, ends the
stream there. Every claim is then checked against the bytes read before
anything is unpacked: each section's end, from the header's counts and
widths, is compared with their number. So a header may claim any count
(version 4 stores no totals to bound one), but nothing is allocated beyond
what the stream holds, and a file that ends early raises "truncated
header", "truncated l_min payload", "truncated l_max payload" or
"truncated checksum" for the first section it cuts. Bytes after the
checksum are read and ignored.

In versions 3 and 4, l_min's first a-count is pnf_a's first a-run, which is
its longest, and each later a-count difference is another of its a-runs, so
a later difference larger than the first is refused; so is one in l_max's
b-count column, whose values are pnf_b's b-runs. This check runs after all
the others.

Lists that cross (bmin(x) > bmax(x) for some x), as no string's lists do,
are refused by the index's lookup-table merge, not here: a crossed file
loads, and its first lookup raises CorruptIndexError. ``serialize`` builds
that table first, so it never writes such lists.
"""

from __future__ import annotations

import io
import struct
import zlib
from itertools import accumulate
from operator import sub
from typing import BinaryIO

from .corner import CornerIndex, CornerList, CorruptIndexError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "IndexFormatError",
    "CorruptIndexError",
    "serialize",
    "deserialize",
    "save_index",
    "load_index",
    "file_size",
]

MAGIC = b"CORNERIX"
FORMAT_VERSION = 4

_PREFIX = struct.Struct("<8sI")
_HEADER = struct.Struct("<8sI7Q")  # versions 1 to 3
_CRC = struct.Struct("<I")
_CRC_RESIDUE = 0x2144DF1C

# Struct code of each width, and the width for each number of bytes a value
# needs, 0 to 8.
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_WIDTH_BYTES = bytes(_CODES)
_WIDTHS = (1, 1, 2, 4, 4, 8, 8, 8, 8)
# The four version 4 header fields at each header field width, and what
# each of the five width bytes sizes.
_FIELDS = {w: struct.Struct(f"<4{code}") for w, code in _CODES.items()}
_SLOTS = ("header field", "l_min a-count column", "l_min b-count column",
          "l_max a-count column", "l_max b-count column")
_BYTES = bytes(range(256))


class IndexFormatError(ValueError):
    """Not a corner-index file, or a version this reader does not speak."""


def _width(largest: int) -> int:
    """Byte width of the narrowest unsigned field that holds every value
    from 0 to largest."""
    return _WIDTHS[(largest.bit_length() + 7) >> 3]


def _columns(index: CornerIndex) -> tuple[list[tuple[int, ...]], bytes]:
    """The four columns of index, each coordinate tuple of l_min and l_max
    as its first value and then its successive differences, and their
    widths."""
    columns = [
        (col[0], *map(sub, col[1:], col))
        for col in (index.l_min.xs, index.l_min.ys, index.l_max.xs, index.l_max.ys)
    ]
    return columns, bytes(_width(max(col)) for col in columns)


def file_size(index: CornerIndex) -> int:
    """Exact byte size serialize() will produce for this index: the size
    of the bytes it writes to memory. Raises CorruptIndexError, as
    serialize() does, if the lists cross."""
    return serialize(index, io.BytesIO())


def serialize(index: CornerIndex, sink: BinaryIO) -> int:
    """Write the index to a binary stream in the version 4 layout and return
    the number of bytes written; raise CorruptIndexError, as the index's
    first lookup does, if its lists cross."""
    index._segments  # the lookup table, whose merge refuses crossed lists
    columns, widths = _columns(index)
    fields = len(index.l_min), len(index.l_max), index.peak_min, index.peak_max
    wh = _width(max(fields))
    head = (_PREFIX.pack(MAGIC, FORMAT_VERSION) + bytes((wh,)) + widths
            + _FIELDS[wh].pack(*fields))
    body = struct.pack(
        "<" + "".join(f"{len(col)}{_CODES[w]}" for col, w in zip(columns, widths)),
        *columns[0], *columns[1], *columns[2], *columns[3],
    )
    return sink.write(head + body + _CRC.pack(zlib.crc32(body, zlib.crc32(head))))


def _need(raw: bytes, end: int, part: str) -> None:
    """Refuse raw as a file cut short in ``part`` if it ends before offset
    ``end``."""
    if len(raw) < end:
        raise CorruptIndexError(f"truncated {part}")


def _ends(raw: bytes, start: int, widths: tuple[int, ...] | bytes,
          k_min: int, k_max: int) -> tuple[int, int]:
    """The offsets at which l_min's and l_max's entries end in raw, the
    first entry at ``start`` and ``widths[i]`` bytes a value in column i,
    each checked to lie within raw."""
    mid = start + (widths[0] + widths[1]) * k_min
    end = mid + (widths[2] + widths[3]) * k_max
    _need(raw, mid, "l_min payload")
    _need(raw, end, "l_max payload")
    return mid, end


def _read_columns(
    raw: bytes, start: int, widths: tuple[int, ...] | bytes, k_min: int, k_max: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The offset at which the payload at ``start`` ends, after it is
    checked against the CRC32 that follows it, and its four columns,
    ``widths[i]`` bytes a value in column i: l_min a-counts, l_min
    b-counts, l_max a-counts, l_max b-counts."""
    mid, end = _ends(raw, start, widths, k_min, k_max)
    _need(raw, end + _CRC.size, "checksum")
    # CRC32 run over a message and then its own little-endian CRC always
    # ends at the same residue, so the check is one pass. The slice is raw
    # itself unless bytes follow the checksum.
    if zlib.crc32(raw[:end + _CRC.size]) != _CRC_RESIDUE:
        (stored,) = _CRC.unpack_from(raw, end)
        raise CorruptIndexError(
            f"checksum mismatch: the file stores CRC32 {stored:08x}, its "
            f"header and payload give {zlib.crc32(raw[:end]):08x}"
        )
    # Each column straight into its tuple: per-column formats recur across
    # files, so struct's format cache serves most of them, and no tuple is
    # sliced.
    w1, w2, w3, w4 = widths
    unpack = struct.unpack_from
    return end, (
        unpack(f"<{k_min}{_CODES[w1]}", raw, start),
        unpack(f"<{k_min}{_CODES[w2]}", raw, start + w1 * k_min),
        unpack(f"<{k_max}{_CODES[w3]}", raw, mid),
        unpack(f"<{k_max}{_CODES[w4]}", raw, mid + w3 * k_max),
    )


def _validated_list(xs: tuple[int, ...], ys: tuple[int, ...], name: str) -> CornerList:
    """The list of version 1 or 2 coordinate tuples xs and ys."""
    if not xs:
        raise CorruptIndexError(f"{name} is empty")
    try:
        return CornerList._of(xs, ys)
    except ValueError:
        # Stored entries are unsigned, so the only check that can fail
        # here is monotonicity.
        raise CorruptIndexError(
            f"{name} is not strictly increasing in both coordinates"
        ) from None


def _check_differences(dxs: tuple[int, ...], dys: tuple[int, ...], name: str) -> None:
    """Check a list stored as version 3 or 4 columns dxs and dys."""
    if not dxs:
        raise CorruptIndexError(f"{name} is empty")
    # One C-level truth test a value, cheaper than a pairwise pass over the
    # sums or tuple.count(0)'s comparisons.
    if not (all(dxs[1:]) and all(dys[1:])):
        raise CorruptIndexError(
            f"{name} is not strictly increasing in both coordinates"
        )


def _exceeds_first(diffs: tuple[int, ...], tops: bytes, width: int) -> bool:
    """Does a value of diffs after the first exceed it? ``tops`` holds the
    most significant byte of each later value, as stored ``width`` bytes
    wide."""
    # Deleting every byte up to the first value's top byte leaves the top
    # bytes of larger values: one C-level pass, over 20 times faster than
    # max() over int objects on a 4,000-value column. Only later values that
    # share the first's top byte, in a column wider than one byte, need max().
    first = diffs[0]
    top = first >> (8 * width - 8)
    if tops.translate(None, _BYTES[:top + 1]):
        return True
    if width == 1 or top not in tops:
        return False
    return max(diffs) > first


def _check_first_runs(
    raw: bytes, start: int, end: int, widths: bytes,
    dxs_min: tuple[int, ...], dys_max: tuple[int, ...],
) -> None:
    """Refuse l_min a-count differences (pnf_a's a-runs) or l_max b-count
    differences (pnf_b's b-runs) of which a later one exceeds the first: a
    prefix normal form's first run is its longest. l_min's a-counts open
    the payload, at ``start`` in raw, and l_max's b-counts close it, at
    ``end``; values are little-endian, so a value's top byte is its last."""
    w1, w4 = widths[0], widths[3]
    if _exceeds_first(dxs_min, raw[start + 2 * w1 - 1:start + w1 * len(dxs_min):w1], w1):
        name, coord, form, diffs = "l_min", "a", "pnf_a", dxs_min
    elif _exceeds_first(dys_max, raw[end - w4 * (len(dys_max) - 2) - 1:end:w4], w4):
        name, coord, form, diffs = "l_max", "b", "pnf_b", dys_max
    else:
        return
    raise CorruptIndexError(
        f"{name} stores {coord}-run {max(diffs)} after first {coord}-count "
        f"{diffs[0]}; {form}'s first {coord}-run is its longest"
    )


def _read_widths(raw: bytes, start: int, slots: tuple[str, ...]) -> bytes:
    """The width bytes at ``start`` in raw, one for each of ``slots``, each
    checked to be 1, 2, 4 or 8; an unknown one is named by its slot."""
    _need(raw, start + len(slots), "header")
    widths = raw[start:start + len(slots)]
    # Stripping the known widths leaves the first unknown one in front.
    unknown = widths.strip(_WIDTH_BYTES)
    if unknown:
        raise CorruptIndexError(
            f"unknown {slots[widths.index(unknown[0])]} width {unknown[0]}; "
            f"widths are 1, 2, 4 or 8 bytes"
        )
    return widths


def deserialize(source: BinaryIO) -> CornerIndex:
    """Read an index back from a binary stream, validating every structural
    invariant. The stream is read to its end unless its first bytes differ
    from the magic's."""
    raw = source.read(_PREFIX.size) or b""
    # A stream that does not open like the magic is refused after this one
    # read, so an endless one such as /dev/zero is never read to its end.
    if MAGIC.startswith(raw[:8]):
        raw += source.read() or b""
    if raw[:8] != MAGIC:
        raise IndexFormatError("bad magic; not a corner-index file")
    _need(raw, _PREFIX.size, "header")
    _, version = _PREFIX.unpack_from(raw)
    if version not in (1, 2, 3, 4):
        raise IndexFormatError(f"unsupported format version {version}")
    if version == 4:
        widths = _read_widths(raw, _PREFIX.size, _SLOTS)
        fields = _FIELDS[widths[0]]
        start = _PREFIX.size + len(_SLOTS) + fields.size
        _need(raw, start, "header")
        k_min, k_max, peak_min, peak_max = fields.unpack_from(raw, start - fields.size)
        widths = widths[1:]
    else:
        _need(raw, _HEADER.size, "header")
        _, _, n, total_a, total_b, k_min, k_max, peak_min, peak_max = _HEADER.unpack_from(raw)
        if n != total_a + total_b:
            raise CorruptIndexError("letter totals do not sum to the text length")
        # Both lists are strictly increasing in both coordinates, with
        # a-counts in 0..total_a and b-counts in 0..total_b.
        most = min(total_a, total_b) + 1
        for name, count in (("l_min", k_min), ("l_max", k_max)):
            if count > most:
                raise CorruptIndexError(
                    f"{name} claims {count} entries; letter totals {total_a} and "
                    f"{total_b} allow at most {most}"
                )
        start = _HEADER.size
        if version == 3:
            widths = _read_widths(raw, start, ("column",) * 4)
            start += len(widths)
    if version >= 3:
        end, (dxs_min, dys_min, dxs_max, dys_max) = _read_columns(
            raw, start, widths, k_min, k_max
        )
        _check_differences(dxs_min, dys_min, "l_min")
        _check_differences(dxs_max, dys_max, "l_max")
        l_min = CornerList._unchecked(tuple(accumulate(dxs_min)), tuple(accumulate(dys_min)))
        l_max = CornerList._unchecked(tuple(accumulate(dxs_max)), tuple(accumulate(dys_max)))
    else:
        if version == 1:
            # (a_count, b_count) pairs of u64s: 16 bytes an entry.
            mid, _ = _ends(raw, start, (8, 8, 8, 8), k_min, k_max)
            pairs_min = struct.unpack_from(f"<{2 * k_min}Q", raw, start)
            pairs_max = struct.unpack_from(f"<{2 * k_max}Q", raw, mid)
            xs_min, ys_min = pairs_min[0::2], pairs_min[1::2]
            xs_max, ys_max = pairs_max[0::2], pairs_max[1::2]
        else:
            wa, wb = _width(total_a), _width(total_b)
            _, (xs_min, ys_min, xs_max, ys_max) = _read_columns(
                raw, start, (wa, wb, wa, wb), k_min, k_max
            )
        l_min = _validated_list(xs_min, ys_min, "l_min")
        l_max = _validated_list(xs_max, ys_max, "l_max")
    if version < 4:
        if l_min.xs[-1] != total_a:
            raise CorruptIndexError("l_min does not end at the total a-count")
        if l_max.ys[-1] != total_b:
            raise CorruptIndexError("l_max does not end at the total b-count")
    # The constructor checks the anchors that tie the two lists together.
    index = CornerIndex(l_min, l_max, peak_min, peak_max)
    if version >= 3:
        _check_first_runs(raw, start, end, widths, dxs_min, dys_max)
    return index


def save_index(index: CornerIndex, path: str) -> int:
    """Write the index to the file at path; return its size in bytes."""
    with open(path, "wb") as fh:
        return serialize(index, fh)


def load_index(path: str) -> CornerIndex:
    """Read the index in the file at path, as ``deserialize`` reads a
    stream."""
    with open(path, "rb") as fh:
        return deserialize(fh)
