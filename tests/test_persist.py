import io
import itertools
import os
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE,
    all_binary_strings,
    cix_bytes,
    cix_field,
    index_bytes,
    reference_deserialize,
    seal,
    set_count,
)
from cornerindex.build import build_index, index_from_rle
from cornerindex.cli import main
from cornerindex.corner import CornerIndex, CornerList
from cornerindex.rle import RunLengthEncoding
from cornerindex.textgen import coin_string, geometric_run_string
from cornerindex.persist import (
    FORMAT_VERSION,
    MAGIC,
    CorruptIndexError,
    IndexFormatError,
    deserialize,
    file_size,
    load_index,
    save_index,
    serialize,
)


def serialized(index) -> bytes:
    buf = io.BytesIO()
    serialize(index, buf)
    return buf.getvalue()


def example_bytes(version: int = FORMAT_VERSION) -> bytearray:
    """The worked example's file: version 2 from ``serialize``, version 1
    from the reference writer."""
    index = build_index(EXAMPLE)
    return bytearray(serialized(index) if version == 2 else index_bytes(index, 1))


def load(raw):
    return deserialize(io.BytesIO(bytes(raw)))


def roundtrip(index):
    return load(serialized(index))


class TestRoundTrip:
    def test_worked_example(self):
        idx = build_index(EXAMPLE)
        back = roundtrip(idx)
        assert back == idx
        assert back.peak_min == idx.peak_min
        assert back.peak_max == idx.peak_max
        assert [back.query(x, y) for x in range(11) for y in range(11)] == [
            idx.query(x, y) for x in range(11) for y in range(11)
        ]

    def test_degenerate(self):
        for s in ["", "a", "b", "aaaa", "bbbb"]:
            assert roundtrip(build_index(s)) == build_index(s)

    def test_files(self, tmp_path):
        idx = build_index("aabba" * 40)
        path = str(tmp_path / "sample.cix")
        save_index(idx, path)
        assert load_index(path) == idx

    def test_totals_follow_the_lists(self):
        # The letter totals are the lists' ends, so every index the
        # constructor accepts has column widths that hold its counts.
        idx = CornerIndex(CornerList([(300, 0)]), CornerList([(0, 1)]))
        assert (idx.n, idx.total_a, idx.total_b) == (301, 300, 1)
        back = roundtrip(idx)
        assert back == idx
        assert (back.n, back.total_a, back.total_b) == (301, 300, 1)

    @pytest.mark.parametrize("l_min, l_max, message", [
        ([(2, 1)], [(0, 3)], "l_min does not start at b-count zero"),
        ([(2, 0), (3, 5)], [(0, 3)], "l_min b-count exceeds the total"),
        ([(2, 0)], [(1, 3)], "l_max does not start at a-count zero"),
        ([(9, 0)], [(0, 1), (300, 292)], "l_max a-count exceeds the total"),
    ])
    def test_constructor_checks_anchors(self, l_min, l_max, message):
        with pytest.raises(ValueError, match=message):
            CornerIndex(CornerList(l_min), CornerList(l_max))

    def test_crossed_lists_are_not_written(self):
        # Each list is valid on its own and the anchors agree, but
        # bmin(1) = 3 > bmax(1) = 1, which no string has.
        idx = CornerIndex(CornerList([(0, 0), (2, 3)]),
                          CornerList([(0, 0), (1, 1), (2, 3)]))
        message = r"^corner lists cross: bmin\(1\) = 3 > bmax\(1\) = 1$"
        with pytest.raises(ValueError, match=message):
            serialized(idx)

    def test_every_short_string_is_written(self):
        for s in all_binary_strings(10):
            assert serialized(build_index(s))

    @given(st.text(alphabet="ab", max_size=50))
    @settings(max_examples=150)
    def test_any_string(self, s):
        # version 1 files, as the previous writer made them, still load
        idx = build_index(s)
        for raw in (serialized(idx), index_bytes(idx, 1)):
            back = load(raw)
            assert back == idx
            assert (back.peak_min, back.peak_max) == (idx.peak_min, idx.peak_max)


# Letter totals on both sides of each column width's limit.
WIDTH_CASES = [
    ((255, 1), (65_535, 0), 2, 2),
    ((256, 1), (65_534, 1), 2, 2),
    ((0, 1), (255, 0), 1, 1),
    ((1,), (65_536,), 1, 4),
    ((1 << 32, 2), ((1 << 32) - 2, 1), 8, 4),
    ((3, (1 << 63) + 5), (7, 0), 8, 1),
]


class TestLayout:
    def test_size_formula(self):
        # each a-count column is wa bytes wide and each b-count column wb,
        # the narrowest of 1, 2, 4 and 8 bytes that holds the letter total;
        # the bytes are those of the reference writer
        for a_runs, b_runs, wa, wb in WIDTH_CASES:
            idx = index_from_rle(RunLengthEncoding(a_runs, b_runs))
            raw = serialized(idx)
            assert len(raw) == file_size(idx)
            assert file_size(idx) == 68 + (wa + wb) * (len(idx.l_min) + len(idx.l_max)) + 4
            assert raw == index_bytes(idx, 2)
            assert roundtrip(idx) == idx

    def test_header_fields(self):
        raw = bytes(example_bytes())
        magic, version, n, ta, tb, kmin, kmax, pmin, pmax = struct.unpack_from(
            "<8sI7Q", raw
        )
        assert magic == MAGIC == b"CORNERIX"
        assert version == FORMAT_VERSION == 2
        assert (n, ta, tb) == (18, 9, 9)
        assert (kmin, kmax) == (4, 5)
        assert (pmin, pmax) == (4, 5)
        # totals of 9 fit one byte: four one-byte columns right after the
        # 68-byte header, then the CRC32 of everything before it
        assert raw[68:] == bytes([3, 5, 7, 9, 0, 2, 4, 6, 0, 2, 5, 6, 7, 3, 5, 7, 8, 9]) + (
            struct.pack("<I", zlib.crc32(raw[:-4]))
        )

    def test_version_1_header_fields(self):
        raw = bytes(example_bytes(1))
        assert struct.unpack_from("<8sI7Q", raw) == (MAGIC, 1, 18, 9, 9, 4, 5, 4, 5)
        # first l_min entry right after the 68-byte header, as two u64s
        assert struct.unpack_from("<2Q", raw, 68) == (3, 0)
        assert len(raw) == 68 + 16 * (4 + 5)


def corrupt(raw: bytearray, offset: int, value: int, width: str = "<Q") -> bytearray:
    struct.pack_into(width, raw, offset, value)
    return raw


def rejects_payload(version, raw, message):
    """A file that fails a check made on its entries gets that check's
    CorruptIndexError; in version 2 only once it is resealed, since the
    checksum is checked first: as edited, it gets the checksum error."""
    if version == 2:
        with pytest.raises(CorruptIndexError, match="checksum mismatch"):
            load(raw)
        raw = seal(raw)
    with pytest.raises(CorruptIndexError, match=message):
        load(raw)


def rejects_entry(name, i, coord, value, message):
    """Setting one stored count gets the named CorruptIndexError from both
    format versions."""
    for version in (1, 2):
        rejects_payload(version, set_count(example_bytes(version), name, i, coord, value), message)


class TestRejections:
    """Each damaged file gets its named error in format versions 1 and 2."""

    def test_bad_magic(self):
        for version in (1, 2):
            raw = example_bytes(version)
            raw[0:8] = b"NOTANIDX"
            with pytest.raises(IndexFormatError, match="bad magic"):
                load(raw)

    def test_truncated_header(self):
        for version in (1, 2):
            with pytest.raises(CorruptIndexError, match="truncated header"):
                load(example_bytes(version)[:40])

    def test_unsupported_version(self):
        for version, bad in itertools.product((1, 2), (0, 3)):
            raw = corrupt(example_bytes(version), 8, bad, "<I")
            with pytest.raises(IndexFormatError, match=f"unsupported format version {bad}"):
                load(raw)

    def test_totals_mismatch(self):
        # the header is checked before the payload and its checksum are
        # read, so a version 2 file gets the same error sealed or not
        v1, v2 = (corrupt(example_bytes(version), 20, 5) for version in (1, 2))  # total_a 9 -> 5
        for raw in (v1, v2, seal(v2)):
            with pytest.raises(CorruptIndexError, match="letter totals do not sum"):
                load(raw)

    def test_truncated_payload(self):
        # version 1 example: 144 payload bytes; version 2: 18, then 4 of CRC
        for version in (1, 2):
            raw = example_bytes(version)
            with pytest.raises(CorruptIndexError, match="truncated l_max payload"):
                load(raw[:-8])
            with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
                load(raw[:70])
        with pytest.raises(CorruptIndexError, match="truncated checksum"):
            load(example_bytes(2)[:-1])

    def test_count_beyond_file_size(self, tmp_path):
        # a header claiming 2^58 entries must not allocate the claimed
        # payload; totals of 2^58 letters each allow that many entries, so
        # the count passes the header checks and only the read can fail
        path = tmp_path / "huge.cix"
        for version in (1, 2):
            head = corrupt(example_bytes(version)[:68], 12, 1 << 59)
            struct.pack_into("<2Q", head, 20, 1 << 58, 1 << 58)
            path.write_bytes(corrupt(bytearray(head), 36, 1 << 58))
            with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
                load_index(str(path))
            # the example's 4 l_min entries take 16 bytes each in both
            # versions at these totals; none of the 2^58 l_max entries follow
            path.write_bytes(corrupt(bytearray(head), 44, 1 << 58) + bytes(16 * 4))
            with pytest.raises(CorruptIndexError, match="truncated l_max payload"):
                load_index(str(path))

    def test_count_beyond_totals(self, tmp_path, capsys):
        # totals of 9 and 9 allow at most 10 entries a list: each list is
        # strictly increasing with a-counts in 0..9 and b-counts in 0..9
        idx = build_index(EXAMPLE)
        eleven = [(i, i) for i in range(11)]
        path = tmp_path / "counts.cix"
        for version, (lists, name) in itertools.product((1, 2), (
            ((eleven, list(idx.l_max)), "l_min"),
            ((list(idx.l_min), eleven), "l_max"),
        )):
            path.write_bytes(cix_bytes(version, 18, 9, 9, *lists, 4, 5))
            message = f"{name} claims 11 entries; letter totals 9 and 9 allow at most 10"
            with pytest.raises(CorruptIndexError, match=message):
                load_index(str(path))
            assert main(["query", "--index", str(path), "--input", os.devnull]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        # checked before any payload is read: the header alone gets the same error
        for version in (1, 2):
            with pytest.raises(CorruptIndexError, match="l_min claims 288230376151711744"):
                load(corrupt(example_bytes(version), 36, 1 << 58)[:68])

    def test_empty_list(self):
        for version in (1, 2):
            raw = corrupt(example_bytes(version), 36, 0)  # l_min count -> 0
            rejects_payload(version, raw, "l_min is empty")

    def test_not_increasing(self):
        # swap the first two l_min entries
        for version in (1, 2):
            raw = example_bytes(version)
            for coord, (first, second) in enumerate(((3, 5), (0, 2))):
                set_count(raw, "l_min", 0, coord, second)
                set_count(raw, "l_min", 1, coord, first)
            rejects_payload(version, raw, "not strictly increasing")

    def test_lmin_end_anchor(self):
        rejects_entry("l_min", 3, 0, 8, "l_min does not end at the total")  # last x: 9 -> 8

    def test_lmin_start_anchor(self):
        rejects_entry("l_min", 0, 1, 1, "does not start at b-count zero")  # first y: 0 -> 1

    def test_lmin_y_bound(self):
        rejects_entry("l_min", 3, 1, 11, "l_min b-count exceeds the total")  # last y: 6 -> 11

    def test_lmax_start_anchor(self):
        rejects_entry("l_max", 0, 0, 1, "does not start at a-count zero")  # first x: 0 -> 1

    def test_lmax_end_anchor(self):
        rejects_entry("l_max", 4, 1, 10, "does not end at the total b-count")  # last y: 9 -> 10

    def test_lmax_x_bound(self):
        rejects_entry("l_max", 4, 0, 10, "l_max a-count exceeds the total")  # last x: 7 -> 10

    def test_empty_stream(self):
        with pytest.raises(IndexFormatError, match="bad magic"):
            deserialize(io.BytesIO(b""))


class TestSilentCorruption:
    """Rewriting the l_max entry (2, 5) as (1, 4), two stored counts, keeps
    the list monotone and inside the letter totals but turns bmax(2) from 5
    into 4."""

    def edited(self, version):
        raw = example_bytes(version)
        set_count(raw, "l_max", 1, 0, 1)
        return bytes(set_count(raw, "l_max", 1, 1, 4))

    def test_version_2_names_the_checksum(self, tmp_path, capsys):
        raw = self.edited(2)
        with pytest.raises(CorruptIndexError, match="checksum mismatch"):
            load(raw)
        path = tmp_path / "edited.cix"
        path.write_bytes(raw)
        assert main(["query", "--index", str(path), "--input", os.devnull]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_version_1_loads_it(self):
        # version 1 has no checksum: the edit loads as another index
        assert build_index(EXAMPLE).bmax(2) == 5
        assert load(self.edited(1)).bmax(2) == 4


def _outcome(load, raw: bytes):
    """What loading raw gives: the index with its peaks, or the error."""
    try:
        index = load(io.BytesIO(raw))
    except ValueError as exc:
        return type(exc), str(exc)
    return index, index.peak_min, index.peak_max


LOADER_TEXTS = pytest.mark.parametrize("text", [
    "", "a", "b", "abba", EXAMPLE,
    coin_string(random.Random(3), 64),
    geometric_run_string(random.Random(4), 200, 0.2),
], ids=["empty", "a", "b", "abba", "example", "coin-64", "runs-200"])

# Header u64s other than the entry counts, which the totals bound checks
# before the reference reads anything.
HEADER_OFFSETS = (12, 20, 28, 52, 60)


def _edits(value: int, width: int) -> set[int]:
    """Five other values of a ``width``-byte unsigned field holding value."""
    top = (1 << (8 * width)) - 1
    return {0, value ^ 1, (value + 1) & top, (value - 1) & top, value ^ (top + 1) >> 1} - {value}


@LOADER_TEXTS
def test_loader_matches_per_entry_reference(text):
    # Version 1: every u64 but the entry counts set to five other values,
    # and every 8-byte truncation: the loader gives the reference's index
    # or error.
    good = index_bytes(build_index(text), 1)
    cases = [good[:cut] for cut in range(0, len(good), 8)]
    for offset in (*HEADER_OFFSETS, *range(68, len(good), 8)):
        (v,) = struct.unpack_from("<Q", good, offset)
        for new in _edits(v, 8):
            cases.append(bytes(corrupt(bytearray(good), offset, new)))
    for raw in cases:
        assert _outcome(deserialize, raw) == _outcome(reference_deserialize, raw)


@LOADER_TEXTS
def test_resealed_edits_match_version_1_reference(text):
    # Version 2: the same header u64s, and every stored count set to five
    # other values that fit its column, each file resealed: the loader gives
    # what the reference gives for the same edit of the version 1 file.
    index = build_index(text)
    v1, v2 = index_bytes(index, 1), serialized(index)
    for offset in HEADER_OFFSETS:
        (v,) = struct.unpack_from("<Q", v2, offset)
        for new in _edits(v, 8):
            assert _outcome(deserialize, seal(corrupt(bytearray(v2), offset, new))) == (
                _outcome(reference_deserialize, bytes(corrupt(bytearray(v1), offset, new)))
            )
    for name, lst in (("l_min", index.l_min), ("l_max", index.l_max)):
        for i in range(len(lst)):
            for coord in (0, 1):
                offset, fmt = cix_field(v2, name, i, coord)
                for new in _edits(lst[i][coord], struct.calcsize(fmt)):
                    edited = seal(set_count(bytearray(v2), name, i, coord, new))
                    reference = bytes(set_count(bytearray(v1), name, i, coord, new))
                    assert _outcome(deserialize, edited) == (
                        _outcome(reference_deserialize, reference)
                    )
    # every strict prefix is rejected
    for cut in range(len(v2)):
        assert _outcome(deserialize, v2[:cut])[0] in (IndexFormatError, CorruptIndexError)


@st.composite
def mutants(draw):
    """A random index, its file in format version 1 or 2, and that file with
    one byte changed, a tail cut, bytes inserted or bytes deleted."""
    pairs = draw(st.integers(1, 24))
    # run lengths up to 70,000 give letter totals in 1-, 2- and 4-byte columns
    runs = st.lists(st.integers(1, draw(st.sampled_from([3, 300, 70_000]))),
                    min_size=pairs, max_size=pairs)
    a_runs, b_runs = draw(runs), draw(runs)
    if draw(st.booleans()):
        a_runs[0] = 0
    if draw(st.booleans()):
        b_runs[-1] = 0
    index = index_from_rle(RunLengthEncoding(a_runs, b_runs))
    version = draw(st.sampled_from([1, 2]))
    good = index_bytes(index, 1) if version == 1 else serialized(index)
    at = draw(st.integers(0, len(good) - 1))
    kind = draw(st.sampled_from(["flip", "truncate", "insert", "delete"]))
    if kind == "flip":
        raw = good[:at] + bytes([good[at] ^ draw(st.integers(1, 255))]) + good[at + 1:]
    elif kind == "truncate":
        raw = good[:at]
    elif kind == "insert":
        raw = good[:at] + draw(st.binary(min_size=1, max_size=16)) + good[at:]
    else:
        raw = good[:at] + good[at + draw(st.integers(1, 16)):]
    return index, version, raw


@given(mutants())
@settings(max_examples=400, deadline=None)
def test_mutated_files(mutant):
    # Only the two named errors escape; a version 2 mutant that loads is its
    # source, peaks included (the checksum covers the whole header).
    index, version, raw = mutant
    try:
        back = load(raw)
    except (IndexFormatError, CorruptIndexError):
        return
    if version == 2:
        assert back == index
        assert (back.peak_min, back.peak_max) == (index.peak_min, index.peak_max)
