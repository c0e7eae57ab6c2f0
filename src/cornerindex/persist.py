"""Binary on-disk format for corner indexes.

Layout, all integers little-endian:

    offset  size  field
    0       8     magic b"CORNERIX"
    8       4     format version (u32), currently 1
    12      8     n            total text length
    20      8     total_a
    28      8     total_b
    36      8     l_min entry count
    44      8     l_max entry count
    52      8     peak working size while building l_min
    60      8     peak working size while building l_max
    68      16*k  l_min entries, each (a_count u64, b_count u64)
    ...     16*k  l_max entries, same shape

A bad magic or unknown version raises IndexFormatError. Everything else a
reader can notice wrong about the payload raises CorruptIndexError with the
failing check named in the message; an entry count that the letter totals
rule out is rejected before any payload is read.
"""

from __future__ import annotations

import struct
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
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sI7Q")
_CHUNK = 1 << 20


class IndexFormatError(ValueError):
    """Not a corner-index file, or a version this reader does not speak."""


class CorruptIndexError(ValueError):
    """Structurally a corner-index file, but its content is inconsistent."""


def file_size(index: CornerIndex) -> int:
    """Exact byte size serialize() will produce for this index."""
    return _HEADER.size + 16 * (len(index.l_min) + len(index.l_max))


def serialize(index: CornerIndex, sink: BinaryIO) -> None:
    """Write the index to a binary stream in the documented layout."""
    sink.write(
        _HEADER.pack(
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
    )
    for lst in (index.l_min, index.l_max):
        flat: list[int] = []
        for x, y in lst:
            flat.append(x)
            flat.append(y)
        sink.write(struct.pack(f"<{len(flat)}Q", *flat))


def _read_pairs(
    source: BinaryIO, count: int, name: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The a-counts and b-counts of the next ``count`` entries."""
    # Read in bounded chunks: a header may claim far more entries than the
    # stream holds, and a single read of that size would allocate it all.
    chunks = []
    missing = 16 * count
    while missing:
        chunk = source.read(min(missing, _CHUNK))
        if not chunk:
            raise CorruptIndexError(f"truncated {name} payload")
        chunks.append(chunk)
        missing -= len(chunk)
    flat = struct.unpack(f"<{2 * count}Q", b"".join(chunks))
    return flat[0::2], flat[1::2]


def _validated_list(xs: tuple[int, ...], ys: tuple[int, ...], name: str) -> CornerList:
    if not xs:
        raise CorruptIndexError(f"{name} is empty")
    try:
        return CornerList._of(xs, ys)
    except ValueError:
        # u64 entries are never negative, so the only check that can fail
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
    if version != FORMAT_VERSION:
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
    xs_min, ys_min = _read_pairs(source, k_min, "l_min")
    xs_max, ys_max = _read_pairs(source, k_max, "l_max")
    l_min = _validated_list(xs_min, ys_min, "l_min")
    l_max = _validated_list(xs_max, ys_max, "l_max")
    if xs_min[-1] != total_a:
        raise CorruptIndexError("l_min does not end at the total a-count")
    if ys_min[0] != 0:
        raise CorruptIndexError("l_min does not start at b-count zero")
    if ys_min[-1] > total_b:
        raise CorruptIndexError("l_min b-count exceeds the total")
    if xs_max[0] != 0:
        raise CorruptIndexError("l_max does not start at a-count zero")
    if ys_max[-1] != total_b:
        raise CorruptIndexError("l_max does not end at the total b-count")
    if xs_max[-1] > total_a:
        raise CorruptIndexError("l_max a-count exceeds the total")
    return CornerIndex(
        l_min=l_min,
        l_max=l_max,
        n=n,
        total_a=total_a,
        total_b=total_b,
        peak_min=peak_min,
        peak_max=peak_max,
    )


def save_index(index: CornerIndex, path: str) -> None:
    with open(path, "wb") as fh:
        serialize(index, fh)


def load_index(path: str) -> CornerIndex:
    with open(path, "rb") as fh:
        return deserialize(fh)
