import io
import itertools
import operator
import os
import random
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EXAMPLE,
    all_binary_strings,
    cix_bytes,
    cix_field,
    count_at,
    decoded_lists,
    index_bytes,
    reference_deserialize,
    seal,
    set_count,
    stored,
    v4_field,
)
from cornerindex.build import build_index, index_from_rle
from cornerindex.cli import main
from cornerindex.corner import CornerIndex, CornerList
from cornerindex.pnf import PnfPair, pnf_from_index, verify_pnf_relations
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


VERSIONS = (1, 2, 3, 4)
# The versions whose header stores n and the letter totals.
TOTALS = (1, 2, 3)


def example_bytes(version: int = FORMAT_VERSION) -> bytearray:
    """The worked example's file: version 4 from ``serialize``, versions 1
    to 3 from the reference writer."""
    index = build_index(EXAMPLE)
    return bytearray(serialized(index) if version == 4 else index_bytes(index, version))


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

    @pytest.mark.parametrize("value", [-1, 1 << 64, 2.5])
    @pytest.mark.parametrize("field", ["peak_min", "peak_max", "inspected_min", "inspected_max"])
    def test_constructor_checks_counters(self, field, value):
        # the counters are written as unsigned 64-bit words, so any other
        # value is refused by name before serialize or file_size sees it
        with pytest.raises(ValueError, match=rf"^{field} must be an int in 0\.\.2\*\*64 - 1"):
            CornerIndex(CornerList([(1, 0)]), CornerList([(0, 1)]), **{field: value})

    def test_largest_counters_round_trip(self):
        top = (1 << 64) - 1
        idx = CornerIndex(CornerList([(1, 0)]), CornerList([(0, 1)]), top, top, top, top)
        raw = serialized(idx)
        assert raw[12] == 8
        assert len(raw) == file_size(idx) == 17 + 4 * 8 + 4 + 4
        back = load(raw)
        assert back == idx
        assert (back.peak_min, back.peak_max) == (top, top)

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
        # version 1 to 3 files, as earlier writers made them, still load
        idx = build_index(s)
        for raw in (serialized(idx), index_bytes(idx, 1), index_bytes(idx, 2),
                    index_bytes(idx, 3)):
            back = load(raw)
            assert back == idx
            assert (back.peak_min, back.peak_max) == (idx.peak_min, idx.peak_max)


# Corner lists that are each valid and whose anchors agree, but that cross,
# with the smallest crossing x, bmin(x) and bmax(x). No later l_min a-count
# difference exceeds the first, nor any later l_max b-count difference, so
# files of versions 3 and 4 load them too. In the second pair the lists
# cross on 2..3, and bmin's later step, at x = 3, crosses too.
CROSSED = [
    ([(1, 0), (2, 3), (3, 4)], [(0, 2), (3, 4)], (2, 3, 2)),
    ([(1, 0), (2, 4), (3, 5), (4, 6)], [(0, 3), (4, 6)], (2, 4, 3)),
]


@pytest.mark.parametrize("l_min, l_max, crossing", CROSSED)
@pytest.mark.parametrize("version", (None, *VERSIONS))
def test_crossed_lists_are_refused(version, l_min, l_max, crossing):
    # Built directly (version None) or loaded from a file of any version,
    # the index exists; every lookup, serialize, file_size, length_tables,
    # pnf_from_index and verify_pnf_relations then refuse it, at any x,
    # naming the smallest crossing x and both bounds.
    if version is None:
        index = CornerIndex(CornerList(l_min), CornerList(l_max))
    else:
        total_a, total_b = l_min[-1][0], l_max[-1][1]
        index = load(cix_bytes(version, total_a + total_b, total_a, total_b,
                               l_min, l_max, len(l_min), len(l_max)))
        assert (list(index.l_min), list(index.l_max)) == (l_min, l_max)
    x, low, high = crossing
    message = rf"^corner lists cross: bmin\({x}\) = {low} > bmax\({x}\) = {high}$"
    for refused in (lambda: index.query(0, 0), lambda: index.query(x, high),
                    lambda: index.query_many([0], [0]), lambda: index.bmin(0),
                    lambda: index.bmax(index.total_a), lambda: serialized(index),
                    lambda: file_size(index), lambda: index.length_tables(),
                    lambda: pnf_from_index(index),
                    lambda: verify_pnf_relations(index, PnfPair("", ""))):
        with pytest.raises(CorruptIndexError, match=message):
            refused()


# Runs whose letter totals, first counts and differences fall on both sides
# of each width's limit, with the version 2 widths (wa, wb) of the a- and
# b-count columns and the version 3 widths of the four columns (l_min
# a-counts, l_min b-counts, l_max a-counts, l_max b-counts).
WIDTH_CASES = [
    # a first count (l_min's 255, 256) sets the width, a difference of 1 does not
    ((255, 1), (65_535, 0), (2, 2), (1, 2, 1, 2)),
    ((256, 1), (65_534, 1), (2, 2), (2, 2, 1, 2)),
    ((0, 1), (255, 0), (1, 1), (1, 1, 1, 1)),
    ((1,), (65_536,), (1, 4), (1, 1, 1, 4)),
    ((1 << 32, 2), ((1 << 32) - 2, 1), (8, 4), (8, 4, 1, 4)),
    ((3, (1 << 63) + 5), (7, 0), (8, 1), (8, 1, 1, 1)),
    # totals that need 8 bytes, and a column of differences that fit in 1:
    # l_max's a-counts 0, 1, 2, 3, then l_min's b-counts 0, 1, 2
    ((1, 1, 1, 1, 1 << 40), (1, 1, 1, 1, 0), (8, 1), (8, 1, 1, 1)),
    ((0, 1, 1, 1), (1 << 33, 1, 1, 0), (1, 8), (1, 1, 1, 8)),
    # a difference (l_max's 0 -> 300) sets the width, the first count does not
    ((0, 300, 1, 1), (1 << 33, 1, 1, 0), (2, 8), (2, 1, 2, 8)),
]


class TestLayout:
    def test_size_formula(self):
        # versions 3 and 4 store each column at its own width, the narrowest
        # of 1, 2, 4 and 8 bytes that holds its first count and each
        # difference; version 2 each a-count column at wa and each b-count
        # column at wb, the narrowest that holds the letter total. Version
        # 4's bytes are those of the reference writer, its header fields
        # all fit one byte here, and no column is wider than in version 2.
        for a_runs, b_runs, (wa, wb), widths in WIDTH_CASES:
            idx = index_from_rle(RunLengthEncoding(a_runs, b_runs))
            raw = serialized(idx)
            counts = (len(idx.l_min),) * 2 + (len(idx.l_max),) * 2
            payload = sum(map(operator.mul, widths, counts))
            assert len(raw) == file_size(idx)
            assert file_size(idx) == 21 + payload + 4
            assert tuple(raw[12:17]) == (1, *widths)
            assert raw == index_bytes(idx, 4)
            assert all(map(operator.le, widths, (wa, wb, wa, wb)))
            assert roundtrip(idx) == idx
            v3 = index_bytes(idx, 3)
            assert len(v3) == 72 + payload + 4
            assert tuple(v3[68:72]) == widths
            assert load(v3) == idx
            old = index_bytes(idx, 2)
            assert len(old) == 68 + (wa + wb) * (counts[0] + counts[2]) + 4
            assert load(old) == idx

    def test_header_fields(self):
        raw = bytes(example_bytes())
        assert struct.unpack_from("<8sI", raw) == (MAGIC, FORMAT_VERSION)
        assert MAGIC == b"CORNERIX" and FORMAT_VERSION == 4
        # header fields 1 byte wide, columns as in version 3; then k_min 4,
        # k_max 5, peak_min 4 and peak_max 5, one byte each; then each
        # column's first count and differences, one byte each, and the CRC32
        # of everything before it
        assert raw[12:17] == bytes([1, 1, 1, 1, 1])
        assert raw[17:21] == bytes([4, 5, 4, 5])
        assert raw[21:] == bytes([3, 2, 2, 2, 0, 2, 2, 2, 0, 2, 3, 1, 1,
                                  3, 2, 2, 1, 1]) + struct.pack("<I", zlib.crc32(raw[:-4]))
        assert len(raw) == file_size(build_index(EXAMPLE)) == 43
        assert raw.hex() == (
            "434f524e45524958040000000101010101040504050302020200020202000203"
            "010103020201015983bd9b"
        )

    def test_version_3_header_fields(self):
        raw = bytes(example_bytes(3))
        magic, version, n, ta, tb, kmin, kmax, pmin, pmax = struct.unpack_from(
            "<8sI7Q", raw
        )
        assert magic == MAGIC == b"CORNERIX"
        assert version == 3
        assert (n, ta, tb) == (18, 9, 9)
        assert (kmin, kmax) == (4, 5)
        assert (pmin, pmax) == (4, 5)
        # four width bytes of 1 after the 68-byte header, then each column's
        # first count and differences, l_min (3, 0), (5, 2), (7, 4), (9, 6)
        # and l_max (0, 3), (2, 5), (5, 7), (6, 8), (7, 9), one byte each,
        # then the CRC32 of everything before it
        assert raw[68:] == bytes([1, 1, 1, 1, 3, 2, 2, 2, 0, 2, 2, 2, 0, 2, 3, 1, 1,
                                  3, 2, 2, 1, 1]) + struct.pack("<I", zlib.crc32(raw[:-4]))
        assert raw.hex() == (
            "434f524e45524958030000001200000000000000090000000000000009000000"
            "0000000004000000000000000500000000000000040000000000000005000000"
            "000000000101010103020202000202020002030101030202010153082fb9"
        )

    @pytest.mark.parametrize("peaks, wh", [
        ((4, 5), 1), ((255, 5), 1), ((256, 5), 2), ((4, 65_535), 2),
        ((65_536, 5), 4), ((4, (1 << 32) - 1), 4), ((1 << 32, 5), 8), ((4, 1 << 40), 8),
    ])
    def test_header_field_width(self, peaks, wh):
        # the four version 4 header fields share the narrowest width that
        # holds the largest of them; here the peaks, set through the
        # constructor, and they round-trip at every width
        example = build_index(EXAMPLE)
        idx = CornerIndex(example.l_min, example.l_max, *peaks)
        raw = serialized(idx)
        assert raw[12] == wh
        assert len(raw) == file_size(idx) == 17 + 4 * wh + 18 + 4
        assert raw == index_bytes(idx, 4)
        back = load(raw)
        assert back == idx
        assert (back.peak_min, back.peak_max) == peaks

    def test_entry_count_sets_the_header_width(self):
        # a built index with over 255 entries in a list takes 2-byte fields
        idx = build_index(coin_string(random.Random(5), 3000))
        assert 255 < max(len(idx.l_min), len(idx.l_max), idx.peak_min, idx.peak_max) < 65_536
        raw = serialized(idx)
        assert raw[12] == 2
        assert struct.unpack_from("<4H", raw, 17) == (
            len(idx.l_min), len(idx.l_max), idx.peak_min, idx.peak_max)
        assert len(raw) == file_size(idx)
        back = load(raw)
        assert back == idx
        assert (back.peak_min, back.peak_max) == (idx.peak_min, idx.peak_max)

    def test_version_2_header_fields(self):
        raw = bytes(example_bytes(2))
        assert struct.unpack_from("<8sI7Q", raw) == (MAGIC, 2, 18, 9, 9, 4, 5, 4, 5)
        # totals of 9 fit one byte: four one-byte columns of counts right
        # after the 68-byte header, then the CRC32 of everything before it
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
    CorruptIndexError; in versions 2 to 4 only once it is resealed, since
    the checksum is checked first: as edited, it gets the checksum error."""
    if version > 1:
        with pytest.raises(CorruptIndexError, match="checksum mismatch"):
            load(raw)
        raw = seal(raw)
    with pytest.raises(CorruptIndexError, match=message):
        load(raw)


def rejects_entry(name, i, coord, value, message, versions=VERSIONS):
    """Setting one count gets the named CorruptIndexError from each of the
    given format versions."""
    for version in versions:
        rejects_payload(version, set_count(example_bytes(version), name, i, coord, value), message)


# Header size of the example's file by format version: version 3 adds four
# width bytes to version 2's, version 4 has five width bytes and four
# one-byte fields after the version.
HEAD = {1: 68, 2: 68, 3: 72, 4: 21}
# Offset and struct format of l_min's entry count in the example's file.
K_MIN = {1: (36, "<Q"), 2: (36, "<Q"), 3: (36, "<Q"), 4: (17, "<B")}


class TestRejections:
    """Each damaged file gets its named error in format versions 1 to 4."""

    def test_bad_magic(self):
        for version in VERSIONS:
            raw = example_bytes(version)
            raw[0:8] = b"NOTANIDX"
            with pytest.raises(IndexFormatError, match="bad magic"):
                load(raw)

    def test_truncated_header(self):
        for version in TOTALS:
            with pytest.raises(CorruptIndexError, match="truncated header"):
                load(example_bytes(version)[:40])
        for cut in range(68, 72):  # inside version 3's width bytes
            with pytest.raises(CorruptIndexError, match="truncated header"):
                load(example_bytes(3)[:cut])
        for cut in range(8, 21):  # inside version 4's prefix, widths and fields
            with pytest.raises(CorruptIndexError, match="truncated header"):
                load(example_bytes(4)[:cut])

    def test_unsupported_version(self):
        for version, bad in itertools.product(VERSIONS, (0, 5)):
            raw = corrupt(example_bytes(version), 8, bad, "<I")
            with pytest.raises(IndexFormatError, match=f"unsupported format version {bad}"):
                load(raw)

    def test_totals_mismatch(self):
        # the header is checked before the payload and its checksum are
        # read, so a version 2 or 3 file gets the same error sealed or not
        for version in TOTALS:
            raw = corrupt(example_bytes(version), 20, 5)  # total_a 9 -> 5
            for raw in (raw, seal(raw)):
                with pytest.raises(CorruptIndexError, match="letter totals do not sum"):
                    load(raw)

    def test_truncated_payload(self):
        # the example's payload: 144 bytes in version 1; 18, then 4 of CRC,
        # in versions 2 to 4
        for version in VERSIONS:
            raw = example_bytes(version)
            with pytest.raises(CorruptIndexError, match="truncated l_max payload"):
                load(raw[:-8])
            with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
                load(raw[:HEAD[version] + 2])
        for version in (2, 3, 4):
            with pytest.raises(CorruptIndexError, match="truncated checksum"):
                load(example_bytes(version)[:-1])

    def test_count_beyond_file_size(self, tmp_path):
        # a header claiming 2^58 entries must not allocate the claimed
        # payload; totals of 2^58 letters each allow that many entries, so
        # the count passes the header checks and only the read can fail
        path = tmp_path / "huge.cix"
        for version in TOTALS:
            head = corrupt(example_bytes(version)[:HEAD[version]], 12, 1 << 59)
            struct.pack_into("<2Q", head, 20, 1 << 58, 1 << 58)
            path.write_bytes(corrupt(bytearray(head), 36, 1 << 58))
            with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
                load_index(str(path))
            # the example's 4 l_min entries take 16 bytes each at these
            # totals in versions 1 and 2, and 2 bytes at the example's widths
            # in version 3; none of the 2^58 l_max entries follow
            entry = 2 if version == 3 else 16
            path.write_bytes(corrupt(bytearray(head), 44, 1 << 58) + bytes(entry * 4))
            with pytest.raises(CorruptIndexError, match="truncated l_max payload"):
                load_index(str(path))

    def test_count_beyond_totals(self, tmp_path, capsys):
        # totals of 9 and 9 allow at most 10 entries a list: each list is
        # strictly increasing with a-counts in 0..9 and b-counts in 0..9
        idx = build_index(EXAMPLE)
        eleven = [(i, i) for i in range(11)]
        path = tmp_path / "counts.cix"
        for version, (lists, name) in itertools.product(TOTALS, (
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
        for version in TOTALS:
            with pytest.raises(CorruptIndexError, match="l_min claims 288230376151711744"):
                load(corrupt(example_bytes(version), 36, 1 << 58)[:68])

    def test_unknown_width(self):
        # a version 3 width byte other than 1, 2, 4 or 8 is rejected with the
        # header, before the payload and its checksum are read
        for column, bad in itertools.product(range(4), (0, 3, 5, 16, 255)):
            raw = example_bytes(3)
            raw[68 + column] = bad
            for raw in (raw, seal(raw), raw[:72]):
                with pytest.raises(CorruptIndexError, match=f"unknown column width {bad};"):
                    load(raw)

    def test_unknown_width_version_4(self):
        # each of version 4's five width bytes is checked, and named, before
        # any header field after it is read
        slots = ("header field", "l_min a-count column", "l_min b-count column",
                 "l_max a-count column", "l_max b-count column")
        for (slot, name), bad in itertools.product(enumerate(slots), (0, 3, 5, 16, 255)):
            raw = example_bytes(4)
            raw[12 + slot] = bad
            for raw in (raw, seal(raw), raw[:17]):
                with pytest.raises(CorruptIndexError, match=f"^unknown {name} width {bad};"):
                    load(raw)

    def test_unknown_widths_name_the_first(self):
        # with two unknown width bytes, the error names the first of them,
        # and in version 4 its slot, whichever of the two values comes first
        slots = {3: ("column",) * 4,
                 4: ("header field", "l_min a-count column", "l_min b-count column",
                     "l_max a-count column", "l_max b-count column")}
        for version, start in ((3, 68), (4, 12)):
            for (first, second), (a, b) in itertools.product(
                itertools.combinations(range(len(slots[version])), 2),
                itertools.permutations((3, 16)),
            ):
                raw = example_bytes(version)
                raw[start + first], raw[start + second] = a, b
                name = slots[version][first]
                with pytest.raises(CorruptIndexError, match=f"^unknown {name} width {a};"):
                    load(raw)

    def test_count_beyond_file_size_version_4(self, tmp_path):
        # version 4 stores no totals to bound an entry count: a header with
        # 8-byte fields claiming 2^58 entries, followed by the example's 18
        # column bytes and CRC32, gets the truncation error from the read,
        # which allocates no more than the stream holds
        good = example_bytes(4)
        path = tmp_path / "huge.cix"
        for fields, message in (((1 << 58, 5, 4, 5), "truncated l_min payload"),
                                ((4, 1 << 58, 4, 5), "truncated l_max payload")):
            raw = good[:12] + bytes([8, 1, 1, 1, 1]) + struct.pack("<4Q", *fields) + good[21:]
            path.write_bytes(raw)
            for read in (lambda: load(raw), lambda: load_index(str(path))):
                tracemalloc.start()
                try:
                    with pytest.raises(CorruptIndexError, match=message):
                        read()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2 << 20

    def test_first_runs(self):
        # l_min's first a-count is pnf_a's first a-run, its longest, so a
        # later a-count difference that exceeds it is refused; so is a later
        # l_max b-count difference that exceeds l_max's first b-count, pnf_b's
        # first b-run. Each edit moves a list's last count from 9 to 13, a
        # run of 6 after l_min's first a-count 3 or of 5 after l_max's first
        # b-count 3, and in version 3 moves n and that total with it, so that
        # once resealed only this check fails.
        for version, (name, i, coord, total, message) in itertools.product((3, 4), (
            ("l_min", 3, 0, 20, "l_min stores a-run 6 after first a-count 3; "
                                "pnf_a's first a-run is its longest"),
            ("l_max", 4, 1, 28, "l_max stores b-run 5 after first b-count 3; "
                                "pnf_b's first b-run is its longest"),
        )):
            raw = set_count(example_bytes(version), name, i, coord, 13)
            if version == 3:
                corrupt(corrupt(raw, 12, 22), total, 13)
            rejects_payload(version, raw, f"^{message}$")
        # a later run equal to the first loads, one longer is refused, in
        # columns of one, two and four bytes a value; in the wider columns,
        # later runs whose top byte is below, equal to or above the first's
        for version, (l_min, l_max, message) in itertools.product((3, 4), (
            ([(3, 0), (6, 1)], [(0, 1), (6, 2)], None),
            ([(3, 0), (7, 1)], [(0, 1), (7, 2)], "l_min stores a-run 4 after first a-count 3;"),
            ([(600, 0), (900, 1)], [(0, 1), (900, 2)], None),
            ([(300, 0), (600, 1)], [(0, 1), (600, 2)], None),
            ([(300, 0), (601, 1)], [(0, 1), (601, 2)],
             "l_min stores a-run 301 after first a-count 300;"),
            ([(300, 0), (900, 1)], [(0, 1), (900, 2)],
             "l_min stores a-run 600 after first a-count 300;"),
            ([(70_000, 0), (140_000, 1)], [(0, 1), (140_000, 2)], None),
            ([(70_000, 0), (140_001, 1)], [(0, 1), (140_001, 2)],
             "l_min stores a-run 70001 after first a-count 70000;"),
            ([(1, 0)], [(0, 3), (1, 6)], None),
            ([(1, 0)], [(0, 3), (1, 7)], "l_max stores b-run 4 after first b-count 3;"),
            ([(1, 0)], [(0, 600), (1, 900)], None),
            ([(1, 0)], [(0, 300), (1, 600)], None),
            ([(1, 0)], [(0, 300), (1, 601)], "l_max stores b-run 301 after first b-count 300;"),
            ([(1, 0)], [(0, 300), (1, 900)], "l_max stores b-run 600 after first b-count 300;"),
        )):
            total_a, total_b = l_min[-1][0], l_max[-1][1]
            raw = cix_bytes(version, total_a + total_b, total_a, total_b, l_min, l_max, 1, 1)
            if message is None:
                assert list(load(raw).l_min) == l_min
            else:
                with pytest.raises(CorruptIndexError, match=message):
                    load(raw)
        # the lists of the first crossed pair of earlier suites fail it first
        for version in (3, 4):
            raw = cix_bytes(version, 5, 2, 3, [(0, 0), (2, 3)], [(0, 0), (1, 1), (2, 3)], 2, 3)
            with pytest.raises(CorruptIndexError, match="l_min stores a-run 2 after first a-count 0;"):
                load(raw)

    def test_empty_list(self):
        for version in VERSIONS:
            offset, fmt = K_MIN[version]
            raw = corrupt(example_bytes(version), offset, 0, fmt)  # l_min count -> 0
            rejects_payload(version, raw, "l_min is empty")

    def test_not_increasing(self):
        # swap the first two l_min entries
        for version in (1, 2):
            raw = example_bytes(version)
            for coord, (first, second) in enumerate(((3, 5), (0, 2))):
                set_count(raw, "l_min", 0, coord, second)
                set_count(raw, "l_min", 1, coord, first)
            rejects_payload(version, raw, "not strictly increasing")
        # one coordinate of entry 2 made equal to entry 1's, which versions 3
        # and 4 store as a zero difference after the first value
        for version, name, coord in itertools.product(VERSIONS, ("l_min", "l_max"), (0, 1)):
            raw = example_bytes(version)
            set_count(raw, name, 2, coord, count_at(raw, name, 1, coord))
            if version >= 3:
                assert stored(raw, name, 2, coord) == 0
            rejects_payload(version, raw, f"{name} is not strictly increasing")

    def test_lmin_end_anchor(self):
        rejects_entry("l_min", 3, 0, 8, "l_min does not end at the total", TOTALS)  # last x: 9 -> 8

    def test_lmin_start_anchor(self):
        rejects_entry("l_min", 0, 1, 1, "does not start at b-count zero")  # first y: 0 -> 1

    def test_lmin_y_bound(self):
        rejects_entry("l_min", 3, 1, 11, "l_min b-count exceeds the total")  # last y: 6 -> 11

    def test_lmax_start_anchor(self):
        rejects_entry("l_max", 0, 0, 1, "does not start at a-count zero")  # first x: 0 -> 1

    def test_lmax_end_anchor(self):
        rejects_entry("l_max", 4, 1, 10, "does not end at the total b-count", TOTALS)  # last y: 9 -> 10

    def test_version_4_totals_are_the_list_ends(self):
        # version 4 stores no totals: the same two edits, resealed, load as
        # the index whose totals are the edited ends
        raw = seal(set_count(example_bytes(4), "l_min", 3, 0, 8))
        assert (load(raw).total_a, load(raw).n) == (8, 17)
        raw = seal(set_count(example_bytes(4), "l_max", 4, 1, 10))
        assert (load(raw).total_b, load(raw).n) == (10, 19)

    def test_lmax_x_bound(self):
        rejects_entry("l_max", 4, 0, 10, "l_max a-count exceeds the total")  # last x: 7 -> 10

    def test_empty_stream(self):
        with pytest.raises(IndexFormatError, match="bad magic"):
            deserialize(io.BytesIO(b""))


class Trickle(io.RawIOBase):
    """An unbuffered stream over raw that returns at most ``step`` bytes a
    read before it ends, as a pipe or a socket may."""

    def __init__(self, raw, step):
        self.rest, self.step = memoryview(bytes(raw)), step

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), self.step, len(self.rest))
        buf[:n] = self.rest[:n]
        self.rest = self.rest[n:]
        return n


@pytest.mark.parametrize("step", [1, 3, 7])
def test_short_reads(step):
    # Files of every version load whole through a stream of short reads,
    # and each cut of them gets the error a stream of full reads gives.
    index = build_index(EXAMPLE)
    for version in VERSIONS:
        raw = example_bytes(version)
        back = deserialize(Trickle(raw, step))
        assert back == index
        assert (back.peak_min, back.peak_max) == (index.peak_min, index.peak_max)
        for cut in range(len(raw)):
            with pytest.raises(ValueError) as full:
                load(raw[:cut])
            with pytest.raises(ValueError) as short:
                deserialize(Trickle(raw[:cut], step))
            assert (type(short.value), str(short.value)) == (
                type(full.value), str(full.value))


class Stall(io.RawIOBase):
    """An unbuffered stream over raw whose reads return None once raw is
    served, as a non-blocking stream does when no data is ready."""

    def __init__(self, raw):
        self.rest = memoryview(bytes(raw))

    def readable(self):
        return True

    def readinto(self, buf):
        if not self.rest:
            return None
        n = min(len(buf), len(self.rest))
        buf[:n] = self.rest[:n]
        self.rest = self.rest[n:]
        return n


@pytest.mark.parametrize("buffered", [False, True], ids=["raw", "buffered"])
def test_stalled_reads(buffered):
    # A stream that stalls after k bytes of a file of any version fails as
    # the file cut to k bytes does, bare or under a BufferedReader, and one
    # that stalls after the whole file loads it.
    index = build_index(EXAMPLE)
    wrap = io.BufferedReader if buffered else (lambda stream: stream)
    for version in VERSIONS:
        raw = example_bytes(version)
        assert deserialize(wrap(Stall(raw))) == index
        for cut in range(len(raw)):
            with pytest.raises(ValueError) as full:
                load(raw[:cut])
            with pytest.raises(ValueError) as stalled:
                deserialize(wrap(Stall(raw[:cut])))
            assert (type(stalled.value), str(stalled.value)) == (
                type(full.value), str(full.value))


class Zeros(io.RawIOBase):
    """An endless unbuffered stream of zero bytes, as /dev/zero is, that
    counts its reads."""

    def __init__(self):
        self.reads = 0

    def readable(self):
        return True

    def readinto(self, buf):
        self.reads += 1
        buf[:] = bytes(len(buf))
        return len(buf)


@pytest.mark.parametrize("buffered", [False, True], ids=["raw", "buffered"])
def test_endless_stream_gets_bad_magic(buffered):
    # only a stream that opens like the magic is read to its end
    zeros = Zeros()
    with pytest.raises(IndexFormatError, match="bad magic"):
        deserialize(io.BufferedReader(zeros) if buffered else zeros)
    assert 1 <= zeros.reads <= 2


class Reads(io.BytesIO):
    """A stream over raw that records the size of each read."""

    def __init__(self, raw):
        super().__init__(bytes(raw))
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)


def test_stream_is_read_once():
    # the 12-byte prefix, then the rest to the end: no size the header
    # claims becomes a read, so 2^58 entries allocate nothing
    good = example_bytes(4)
    huge = good[:12] + bytes([8, 1, 1, 1, 1]) + struct.pack("<4Q", 1 << 58, 5, 4, 5) + good[21:]
    for version in VERSIONS:
        stream = Reads(example_bytes(version))
        assert deserialize(stream) == build_index(EXAMPLE)
        assert stream.sizes == [12, -1]
    stream = Reads(huge)
    with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
        deserialize(stream)
    assert stream.sizes == [12, -1]


def test_bytes_after_the_file_are_ignored(tmp_path):
    # the stream is read to its end; the file is the bytes its header
    # claims, and whatever follows them is ignored
    index = build_index(EXAMPLE)
    path = tmp_path / "junk.cix"
    for version in VERSIONS:
        raw = bytes(example_bytes(version))
        for junk in (b"\0", b"junk", raw, bytes(range(256)) * 4096):
            path.write_bytes(raw + junk)
            for back in (load(raw + junk), load_index(str(path)),
                         deserialize(Trickle(raw + junk[:64], 7))):
                assert back == index
                assert (back.peak_min, back.peak_max) == (index.peak_min, index.peak_max)


class TestSilentCorruption:
    """Rewriting the l_max entry (2, 5) as (1, 4), two counts, keeps the
    list monotone and inside the letter totals but turns bmax(2) from 5
    into 4."""

    def edited(self, version):
        raw = example_bytes(version)
        set_count(raw, "l_max", 1, 0, 1)
        return bytes(set_count(raw, "l_max", 1, 1, 4))

    def names_the_checksum(self, version, tmp_path, capsys):
        raw = self.edited(version)
        with pytest.raises(CorruptIndexError, match="checksum mismatch"):
            load(raw)
        path = tmp_path / "edited.cix"
        path.write_bytes(raw)
        assert main(["query", "--index", str(path), "--input", os.devnull]) == 2
        assert "checksum mismatch" in capsys.readouterr().err
        # resealed, the edit loads
        assert load(seal(raw)).bmax(2) == 4

    def test_version_2_names_the_checksum(self, tmp_path, capsys):
        self.names_the_checksum(2, tmp_path, capsys)

    def test_version_3_names_the_checksum(self, tmp_path, capsys):
        self.names_the_checksum(3, tmp_path, capsys)

    def test_version_4_names_the_checksum(self, tmp_path, capsys):
        self.names_the_checksum(4, tmp_path, capsys)

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
    v1, v2 = index_bytes(index, 1), index_bytes(index, 2)
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


def as_version_1(raw) -> bytes:
    """The version 1 file with raw's header fields and the lists raw
    stores, each count read on its own by the reference readers. A version
    4 file stores no n or letter totals; they are read off its lists, as its
    loader reads them."""
    l_min, l_max = decoded_lists(raw)
    if struct.unpack_from("<I", raw, 8)[0] != 4:
        n, total_a, total_b, peak_min, peak_max = struct.unpack_from("<3Q16x2Q", raw, 12)
    else:
        (peak_min,), (peak_max,) = (struct.unpack_from(fmt, raw, offset)
                                    for offset, fmt in (v4_field(raw, 2), v4_field(raw, 3)))
        total_a = l_min[-1][0] if l_min else 0
        total_b = l_max[-1][1] if l_max else 0
        n = total_a + total_b
    return cix_bytes(1, n, total_a, total_b, l_min, l_max, peak_min, peak_max)


def reference_outcome(raw):
    """What loading the version 3 or 4 file raw should give: what the
    version 1 reference loader gives for raw's header fields and lists, then
    the check that no run of pnf_a or pnf_b after the first that the lists
    store exceeds it."""
    outcome = _outcome(reference_deserialize, as_version_1(raw))
    if isinstance(outcome[0], CornerIndex):
        index = outcome[0]
        for name, counts, letter, form in (("l_min", index.l_min.xs, "a", "pnf_a"),
                                           ("l_max", index.l_max.ys, "b", "pnf_b")):
            runs = [b - a for a, b in zip((0, *counts), counts)]
            if any(run > runs[0] for run in runs):
                return CorruptIndexError, (
                    f"{name} stores {letter}-run {max(runs)} after first "
                    f"{letter}-count {runs[0]}; {form}'s first {letter}-run is its longest")
    return outcome


@LOADER_TEXTS
def test_resealed_version_3_edits_match_version_1_reference(text):
    # Version 3: the same header u64s, and every stored value (a first count
    # or a difference) set to five other values that fit its column, each
    # file resealed: the loader gives what the reference gives for the
    # version 1 file of the same header fields and the lists the edit stores.
    v3 = index_bytes(build_index(text), 3)
    edits = []
    for offset in HEADER_OFFSETS:
        (v,) = struct.unpack_from("<Q", v3, offset)
        edits += [(offset, "<Q", new) for new in _edits(v, 8)]
    k_min, k_max = struct.unpack_from("<2Q", v3, 36)
    for name, count in (("l_min", k_min), ("l_max", k_max)):
        for i, coord in itertools.product(range(count), (0, 1)):
            offset, fmt = cix_field(v3, name, i, coord)
            value = stored(v3, name, i, coord)
            edits += [(offset, fmt, new) for new in _edits(value, struct.calcsize(fmt))]
    for offset, fmt, new in edits:
        edited = seal(corrupt(bytearray(v3), offset, new, fmt))
        assert _outcome(deserialize, edited) == _outcome(reference_deserialize, as_version_1(edited))
    for cut in range(len(v3)):
        assert _outcome(deserialize, v3[:cut])[0] in (IndexFormatError, CorruptIndexError)


@LOADER_TEXTS
def test_resealed_version_4_edits_match_version_1_reference(text):
    # Version 4: both peaks and every stored value (a first count or a
    # difference) set to five other values that fit their fields, each
    # file resealed: the loader gives what the reference gives for the
    # version 1 file of the same peaks and lists, followed by the first-run
    # check. Every strict prefix gets a named error.
    v4 = serialized(build_index(text))
    edits = []
    for offset, fmt in (v4_field(v4, 2), v4_field(v4, 3)):
        (v,) = struct.unpack_from(fmt, v4, offset)
        edits += [(offset, fmt, new) for new in _edits(v, struct.calcsize(fmt))]
    lists = decoded_lists(v4)
    for name, lst in zip(("l_min", "l_max"), lists):
        for i, coord in itertools.product(range(len(lst)), (0, 1)):
            offset, field = cix_field(v4, name, i, coord)
            value = stored(v4, name, i, coord)
            edits += [(offset, field, new) for new in _edits(value, struct.calcsize(field))]
    for offset, field, new in edits:
        edited = seal(corrupt(bytearray(v4), offset, new, field))
        assert _outcome(deserialize, edited) == reference_outcome(edited)
    for cut in range(len(v4)):
        assert _outcome(deserialize, v4[:cut])[0] in (IndexFormatError, CorruptIndexError)


def every_byte(version):
    """Each byte of the worked example's file in the given version xored
    with every nonzero mask. As flipped, the file gets a named error.
    Resealed, it gets a named error or loads as the index its bytes store:
    the one the reference loader gives for the version 1 file of the same
    header fields and lists, peaks included. Every strict prefix gets a
    named error."""
    good = bytes(example_bytes(version))
    named = (IndexFormatError, CorruptIndexError)
    loaded = 0
    for at, mask in itertools.product(range(len(good)), range(1, 256)):
        raw = bytearray(good)
        raw[at] ^= mask
        with pytest.raises(named):
            load(raw)
        raw = seal(raw)
        try:
            load(raw)
        except named:
            continue
        loaded += 1
        assert _outcome(deserialize, raw) == reference_outcome(raw)
    # some resealed flips of peaks and counts do load
    assert loaded
    for cut in range(len(good)):
        with pytest.raises(named):
            load(good[:cut])


def test_every_byte_of_the_version_3_example():
    every_byte(3)


def test_every_byte_of_the_version_4_example():
    every_byte(4)


@st.composite
def mutants(draw):
    """A random index, its file in format version 1 to 4, and that file
    with one byte changed, a tail cut, bytes inserted or bytes deleted."""
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
    version = draw(st.sampled_from(VERSIONS))
    good = serialized(index) if version == 4 else index_bytes(index, version)
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
    # Only the two named errors escape; a version 2 to 4 mutant that loads
    # is its source, peaks included (the checksum covers the whole header).
    index, version, raw = mutant
    try:
        back = load(raw)
    except (IndexFormatError, CorruptIndexError):
        return
    if version > 1:
        assert back == index
        assert (back.peak_min, back.peak_max) == (index.peak_min, index.peak_max)
