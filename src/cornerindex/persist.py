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
before any payload is read. Version 4 stores no totals and so has no such
bound; its part is played by the payload read, which takes at most 1 MiB at
a time and stops where the stream ends: a header may claim any count, but
nothing is allocated beyond what the stream holds, and a stream shorter
than the claim raises "truncated l_min payload" (or l_max, or checksum).
A read that returns None, as a non-blocking stream's does with nothing
ready, ends the stream there.

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
_CHUNK = 1 << 20

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


def _read(source: BinaryIO, size: int) -> bytes:
    """The next ``size`` bytes of source, or all that is left if fewer."""
    # Read in bounded chunks: a header may claim far more entries than the
    # stream holds, and a single read of that size would allocate it all.
    chunks = []
    while size:
        chunk = source.read(min(size, _CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_header(source: BinaryIO, size: int) -> bytes:
    """The next ``size`` bytes of a header. A stream may return fewer bytes
    than asked before it ends (an unbuffered pipe), or None (a non-blocking
    one with nothing ready), so a short read is topped up by ``_read``,
    which takes None as the end; a full one is the only call."""
    data = source.read(size) or b""
    if len(data) != size:
        data += _read(source, size - len(data))
        if len(data) != size:
            raise CorruptIndexError("truncated header")
    return data


def _read_pairs(
    source: BinaryIO, count: int, name: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The a-counts and b-counts of the next ``count`` version 1 entries."""
    data = _read(source, 16 * count)
    if len(data) != 16 * count:
        raise CorruptIndexError(f"truncated {name} payload")
    flat = struct.unpack(f"<{2 * count}Q", data)
    return flat[0::2], flat[1::2]


def _read_columns(
    source: BinaryIO, head: bytes, widths: tuple[int, ...] | bytes, k_min: int, k_max: int
) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """The payload after ``head``, checked against the CRC32 that closes
    it, and its four columns, ``widths[i]`` bytes a value in column i:
    l_min a-counts, l_min b-counts, l_max a-counts, l_max b-counts."""
    size_min = (widths[0] + widths[1]) * k_min
    size = size_min + (widths[2] + widths[3]) * k_max
    data = _read(source, size + _CRC.size)
    if len(data) != size + _CRC.size:
        if len(data) < size_min:
            raise CorruptIndexError("truncated l_min payload")
        if len(data) < size:
            raise CorruptIndexError("truncated l_max payload")
        raise CorruptIndexError("truncated checksum")
    # CRC32 run over a message and then its own little-endian CRC always
    # ends at the same residue, so the check needs no slice of the payload.
    if zlib.crc32(data, zlib.crc32(head)) != _CRC_RESIDUE:
        (stored,) = _CRC.unpack_from(data, size)
        computed = zlib.crc32(data[:size], zlib.crc32(head))
        raise CorruptIndexError(
            f"checksum mismatch: the file stores CRC32 {stored:08x}, its "
            f"header and payload give {computed:08x}"
        )
    # Each column straight into its tuple: per-column formats recur across
    # files, so struct's format cache serves most of them, and no tuple is
    # sliced.
    w1, w2, w3, w4 = widths
    unpack = struct.unpack_from
    return data, (
        unpack(f"<{k_min}{_CODES[w1]}", data),
        unpack(f"<{k_min}{_CODES[w2]}", data, w1 * k_min),
        unpack(f"<{k_max}{_CODES[w3]}", data, size_min),
        unpack(f"<{k_max}{_CODES[w4]}", data, size_min + w3 * k_max),
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
    data: bytes, widths: bytes, dxs_min: tuple[int, ...], dys_max: tuple[int, ...]
) -> None:
    """Refuse l_min a-count differences (pnf_a's a-runs) or l_max b-count
    differences (pnf_b's b-runs) of which a later one exceeds the first: a
    prefix normal form's first run is its longest. l_min's a-counts open
    the payload ``data`` and l_max's b-counts close it, before the CRC32;
    values are little-endian, so a value's top byte is its last."""
    w1, w4 = widths[0], widths[3]
    end = len(data) - _CRC.size
    if _exceeds_first(dxs_min, data[2 * w1 - 1:w1 * len(dxs_min):w1], w1):
        name, coord, form, diffs = "l_min", "a", "pnf_a", dxs_min
    elif _exceeds_first(dys_max, data[end - w4 * (len(dys_max) - 2) - 1:end:w4], w4):
        name, coord, form, diffs = "l_max", "b", "pnf_b", dys_max
    else:
        return
    raise CorruptIndexError(
        f"{name} stores {coord}-run {max(diffs)} after first {coord}-count "
        f"{diffs[0]}; {form}'s first {coord}-run is its longest"
    )


def _read_widths(source: BinaryIO, slots: tuple[str, ...]) -> bytes:
    """The next width bytes, one for each of ``slots``, each checked to be
    1, 2, 4 or 8; an unknown one is named by its slot."""
    widths = _read_header(source, len(slots))
    # Stripping the known widths leaves the first unknown one in front.
    unknown = widths.strip(_WIDTH_BYTES)
    if unknown:
        raise CorruptIndexError(
            f"unknown {slots[widths.index(unknown[0])]} width {unknown[0]}; "
            f"widths are 1, 2, 4 or 8 bytes"
        )
    return widths


def deserialize(source: BinaryIO) -> CornerIndex:
    """Read an index back, validating every structural invariant."""
    # As in _read_header, but the magic is checked before the length.
    prefix = source.read(_PREFIX.size) or b""
    if len(prefix) != _PREFIX.size:
        prefix += _read(source, _PREFIX.size - len(prefix))
    if prefix[:8] != MAGIC:
        raise IndexFormatError("bad magic; not a corner-index file")
    if len(prefix) != _PREFIX.size:
        raise CorruptIndexError("truncated header")
    _, version = _PREFIX.unpack(prefix)
    if version not in (1, 2, 3, 4):
        raise IndexFormatError(f"unsupported format version {version}")
    if version == 4:
        widths = _read_widths(source, _SLOTS)
        fields = _FIELDS[widths[0]]
        raw = _read_header(source, fields.size)
        k_min, k_max, peak_min, peak_max = fields.unpack(raw)
        head = prefix + widths + raw
        widths = widths[1:]
    else:
        head = prefix + _read_header(source, _HEADER.size - _PREFIX.size)
        _, _, n, total_a, total_b, k_min, k_max, peak_min, peak_max = _HEADER.unpack(head)
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
        if version == 3:
            widths = _read_widths(source, ("column",) * 4)
            head += widths
    if version >= 3:
        data, (dxs_min, dys_min, dxs_max, dys_max) = _read_columns(
            source, head, widths, k_min, k_max
        )
        _check_differences(dxs_min, dys_min, "l_min")
        _check_differences(dxs_max, dys_max, "l_max")
        l_min = CornerList._unchecked(tuple(accumulate(dxs_min)), tuple(accumulate(dys_min)))
        l_max = CornerList._unchecked(tuple(accumulate(dxs_max)), tuple(accumulate(dys_max)))
    else:
        if version == 1:
            xs_min, ys_min = _read_pairs(source, k_min, "l_min")
            xs_max, ys_max = _read_pairs(source, k_max, "l_max")
        else:
            wa, wb = _width(total_a), _width(total_b)
            _, (xs_min, ys_min, xs_max, ys_max) = _read_columns(
                source, head, (wa, wb, wa, wb), k_min, k_max
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
        _check_first_runs(data, widths, dxs_min, dys_max)
    return index


def save_index(index: CornerIndex, path: str) -> int:
    """Write the index to the file at path; return its size in bytes."""
    with open(path, "wb") as fh:
        return serialize(index, fh)


def load_index(path: str) -> CornerIndex:
    with open(path, "rb") as fh:
        return deserialize(fh)
