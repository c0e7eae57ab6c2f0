"""Binary on-disk format for corner indexes.

``serialize`` writes format version 2; ``deserialize`` reads versions 1
and 2. Layout of version 2, all integers little-endian:

    offset  size        field
    0       8           magic b"CORNERIX"
    8       4           format version (u32), 2
    12      8           n            total text length
    20      8           total_a
    28      8           total_b
    36      8           l_min entry count, k_min
    44      8           l_max entry count, k_max
    52      8           peak working size while building l_min
    60      8           peak working size while building l_max
    68      wa * k_min  l_min a-counts
    ...     wb * k_min  l_min b-counts
    ...     wa * k_max  l_max a-counts
    ...     wb * k_max  l_max b-counts
    ...     4           CRC32 (zlib.crc32, u32) of every byte before it

wa is the smallest of 1, 2, 4 and 8 bytes that holds total_a, and wb the
smallest that holds total_b: no stored count exceeds its letter total, so
the header fixes the widths and the file stores none.

Version 1, read only, has the same header with version 1, then the k_min
l_min entries and the k_max l_max entries, each an (a_count u64, b_count
u64) pair, and no checksum: a payload edited so that it stays monotone and
within the totals loads as a different index.

A bad magic or unknown version raises IndexFormatError. Everything else a
reader can notice wrong about the payload raises CorruptIndexError with the
failing check named in the message; an entry count that the letter totals
rule out is rejected before any payload is read, and a version 2 file whose
checksum does not match is rejected before its entries are decoded.

``serialize`` raises ValueError if the lists cross (bmin(x) > bmax(x) for
some x), as no string's lists do. The loader skips that check, a bisect per
l_min entry and a large share of a load, so a crossed file that another
writer sealed still loads.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from typing import BinaryIO

from .corner import CornerIndex, CornerList

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
FORMAT_VERSION = 2

_HEADER = struct.Struct("<8sI7Q")
_CRC = struct.Struct("<I")
_CRC_RESIDUE = 0x2144DF1C
_CHUNK = 1 << 20


class IndexFormatError(ValueError):
    """Not a corner-index file, or a version this reader does not speak."""


class CorruptIndexError(ValueError):
    """Structurally a corner-index file, but its content is inconsistent."""


# Indexed by the number of bytes a count needs, 0 to 8.
_COLUMNS = (("B", 1), ("B", 1), ("H", 2), ("I", 4), ("I", 4)) + (("Q", 8),) * 4


def _column(total: int) -> tuple[str, int]:
    """Struct code and byte width of the narrowest unsigned column that
    holds every count from 0 to total."""
    return _COLUMNS[(total.bit_length() + 7) >> 3]


def file_size(index: CornerIndex) -> int:
    """Exact byte size serialize() will produce for this index."""
    width = _column(index.total_a)[1] + _column(index.total_b)[1]
    return _HEADER.size + width * (len(index.l_min) + len(index.l_max)) + _CRC.size


def serialize(index: CornerIndex, sink: BinaryIO) -> None:
    """Write the index to a binary stream in the version 2 layout; raise
    ValueError, naming x and both bounds, at the first x with bmin(x) > bmax(x)."""
    l_min, l_max = index.l_min, index.l_max
    xs_max, ys_max = l_max.xs, l_max.ys
    # bmin is l_min.ys[i] on (l_min.xs[i - 1], l_min.xs[i]]; bmax is lowest at its start.
    for x, low in zip(l_min.xs, l_min.ys[1:]):
        high = ys_max[bisect_right(xs_max, x + 1) - 1]
        if low > high:
            raise ValueError(
                f"corner lists cross: bmin({x + 1}) = {low} > bmax({x + 1}) = {high}")
    head = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        index.n,
        index.total_a,
        index.total_b,
        len(index.l_min),
        len(index.l_max),
        index.peak_min,
        index.peak_max,
    )
    code_a = _column(index.total_a)[0]
    code_b = _column(index.total_b)[0]
    k_min, k_max = len(l_min), len(l_max)
    body = struct.pack(
        f"<{k_min}{code_a}{k_min}{code_b}{k_max}{code_a}{k_max}{code_b}",
        *l_min.xs, *l_min.ys, *l_max.xs, *l_max.ys,
    )
    sink.write(head + body + _CRC.pack(zlib.crc32(body, zlib.crc32(head))))


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
    source: BinaryIO, head: bytes, total_a: int, total_b: int, k_min: int, k_max: int
) -> tuple[tuple[int, ...], ...]:
    """The four version 2 columns after ``head``, checked against the CRC:
    l_min a-counts, l_min b-counts, l_max a-counts, l_max b-counts."""
    code_a, width_a = _column(total_a)
    code_b, width_b = _column(total_b)
    size_min = (width_a + width_b) * k_min
    size = size_min + (width_a + width_b) * k_max
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
    unpack = struct.unpack_from
    return (
        unpack(f"<{k_min}{code_a}", data),
        unpack(f"<{k_min}{code_b}", data, width_a * k_min),
        unpack(f"<{k_max}{code_a}", data, size_min),
        unpack(f"<{k_max}{code_b}", data, size_min + width_a * k_max),
    )


def _validated_list(xs: tuple[int, ...], ys: tuple[int, ...], name: str) -> CornerList:
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


def deserialize(source: BinaryIO) -> CornerIndex:
    """Read an index back, validating every structural invariant."""
    magic = source.read(8)
    if magic != MAGIC:
        raise IndexFormatError("bad magic; not a corner-index file")
    rest = source.read(_HEADER.size - 8)
    if len(rest) != _HEADER.size - 8:
        raise CorruptIndexError("truncated header")
    version, n, total_a, total_b, k_min, k_max, peak_min, peak_max = struct.unpack(
        "<I7Q", rest
    )
    if version not in (1, 2):
        raise IndexFormatError(f"unsupported format version {version}")
    if n != total_a + total_b:
        raise CorruptIndexError("letter totals do not sum to the text length")
    # Both lists are strictly increasing in both coordinates, with a-counts
    # in 0..total_a and b-counts in 0..total_b.
    most = min(total_a, total_b) + 1
    for name, count in (("l_min", k_min), ("l_max", k_max)):
        if count > most:
            raise CorruptIndexError(
                f"{name} claims {count} entries; letter totals {total_a} and "
                f"{total_b} allow at most {most}"
            )
    if version == 1:
        xs_min, ys_min = _read_pairs(source, k_min, "l_min")
        xs_max, ys_max = _read_pairs(source, k_max, "l_max")
    else:
        xs_min, ys_min, xs_max, ys_max = _read_columns(
            source, magic + rest, total_a, total_b, k_min, k_max
        )
    l_min = _validated_list(xs_min, ys_min, "l_min")
    l_max = _validated_list(xs_max, ys_max, "l_max")
    if xs_min[-1] != total_a:
        raise CorruptIndexError("l_min does not end at the total a-count")
    if ys_max[-1] != total_b:
        raise CorruptIndexError("l_max does not end at the total b-count")
    # The constructor checks the anchors that tie the two lists together.
    try:
        return CornerIndex(l_min, l_max, peak_min, peak_max)
    except ValueError as exc:
        raise CorruptIndexError(str(exc)) from None


def save_index(index: CornerIndex, path: str) -> None:
    with open(path, "wb") as fh:
        serialize(index, fh)


def load_index(path: str) -> CornerIndex:
    with open(path, "rb") as fh:
        return deserialize(fh)
