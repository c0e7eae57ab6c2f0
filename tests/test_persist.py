import io
import os
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE, reference_deserialize
from cornerindex.cli import main
from cornerindex.corner import build_index
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


def roundtrip(index):
    buf = io.BytesIO()
    serialize(index, buf)
    buf.seek(0)
    return deserialize(buf)


def example_bytes() -> bytearray:
    buf = io.BytesIO()
    serialize(build_index(EXAMPLE), buf)
    return bytearray(buf.getvalue())


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

    @given(st.text(alphabet="ab", max_size=50))
    @settings(max_examples=150)
    def test_any_string(self, s):
        assert roundtrip(build_index(s)) == build_index(s)


class TestLayout:
    def test_size_formula(self):
        idx = build_index(EXAMPLE)
        buf = io.BytesIO()
        serialize(idx, buf)
        assert len(buf.getvalue()) == file_size(idx)
        assert file_size(idx) == 68 + 16 * (len(idx.l_min) + len(idx.l_max))

    def test_header_fields(self):
        raw = bytes(example_bytes())
        magic, version, n, ta, tb, kmin, kmax, pmin, pmax = struct.unpack_from(
            "<8sI7Q", raw
        )
        assert magic == MAGIC == b"CORNERIX"
        assert version == FORMAT_VERSION == 1
        assert (n, ta, tb) == (18, 9, 9)
        assert (kmin, kmax) == (4, 5)
        assert (pmin, pmax) == (4, 5)
        # first l_min entry right after the 68-byte header
        assert struct.unpack_from("<2Q", raw, 68) == (3, 0)


def corrupt(raw: bytearray, offset: int, value: int, width: str = "<Q") -> bytes:
    struct.pack_into(width, raw, offset, value)
    return bytes(raw)


def huge_totals() -> bytearray:
    """The example's bytes with n = 2^59 and letter totals of 2^58 each."""
    raw = example_bytes()
    struct.pack_into("<3Q", raw, 12, 1 << 59, 1 << 58, 1 << 58)
    return raw


class TestRejections:
    def test_bad_magic(self):
        raw = example_bytes()
        raw[0:8] = b"NOTANIDX"
        with pytest.raises(IndexFormatError, match="bad magic"):
            deserialize(io.BytesIO(bytes(raw)))

    def test_truncated_header(self):
        raw = bytes(example_bytes())[:40]
        with pytest.raises(CorruptIndexError, match="truncated header"):
            deserialize(io.BytesIO(raw))

    def test_unsupported_version(self):
        raw = corrupt(example_bytes(), 8, 2, "<I")
        with pytest.raises(IndexFormatError, match="unsupported format version 2"):
            deserialize(io.BytesIO(raw))

    def test_totals_mismatch(self):
        raw = corrupt(example_bytes(), 20, 5)  # total_a 9 -> 5
        with pytest.raises(CorruptIndexError, match="letter totals do not sum"):
            deserialize(io.BytesIO(raw))

    def test_truncated_payload(self):
        raw = bytes(example_bytes())[:-8]
        with pytest.raises(CorruptIndexError, match="truncated l_max payload"):
            deserialize(io.BytesIO(raw))
        raw = bytes(example_bytes())[:70]
        with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
            deserialize(io.BytesIO(raw))

    def test_count_beyond_file_size(self, tmp_path):
        # a header claiming 2^58 entries must not allocate the claimed
        # payload; totals of 2^58 letters each allow that many entries, so
        # the count passes the header checks and only the read can fail
        path = tmp_path / "huge.cix"
        path.write_bytes(corrupt(huge_totals(), 36, 1 << 58)[:68])
        with pytest.raises(CorruptIndexError, match="truncated l_min payload"):
            load_index(str(path))
        path.write_bytes(corrupt(huge_totals(), 44, 1 << 58))
        with pytest.raises(CorruptIndexError, match="truncated l_max payload"):
            load_index(str(path))

    def test_count_beyond_totals(self, tmp_path, capsys):
        # totals of 9 and 9 allow at most 10 entries a list: each list is
        # strictly increasing with a-counts in 0..9 and b-counts in 0..9
        raw = bytes(example_bytes())
        eleven = struct.pack("<22Q", *(v for i in range(11) for v in (i, i)))
        path = tmp_path / "counts.cix"
        for offset, payload, name in (
            (36, eleven + raw[68 + 4 * 16 :], "l_min"),
            (44, raw[68 : 68 + 4 * 16] + eleven, "l_max"),
        ):
            head = corrupt(bytearray(raw[:68]), offset, 11)
            path.write_bytes(head + payload)
            message = f"{name} claims 11 entries; letter totals 9 and 9 allow at most 10"
            with pytest.raises(CorruptIndexError, match=message):
                load_index(str(path))
            assert main(["query", "--index", str(path), "--input", os.devnull]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        # checked before any payload is read: the header alone gets the same error
        with pytest.raises(CorruptIndexError, match="l_min claims 288230376151711744"):
            deserialize(io.BytesIO(corrupt(example_bytes(), 36, 1 << 58)[:68]))

    def test_empty_list(self):
        raw = corrupt(example_bytes(), 36, 0)  # l_min count -> 0
        with pytest.raises(CorruptIndexError, match="l_min is empty"):
            deserialize(io.BytesIO(raw))

    def test_not_increasing(self):
        raw = example_bytes()
        # swap the first two l_min entries
        first = raw[68:84]
        raw[68:84] = raw[84:100]
        raw[84:100] = first
        with pytest.raises(CorruptIndexError, match="not strictly increasing"):
            deserialize(io.BytesIO(bytes(raw)))

    def test_lmin_end_anchor(self):
        raw = corrupt(example_bytes(), 68 + 3 * 16, 8)  # last l_min x: 9 -> 8
        with pytest.raises(CorruptIndexError, match="l_min does not end at the total"):
            deserialize(io.BytesIO(raw))

    def test_lmin_start_anchor(self):
        raw = corrupt(example_bytes(), 68 + 8, 1)  # first l_min y: 0 -> 1
        with pytest.raises(CorruptIndexError, match="does not start at b-count zero"):
            deserialize(io.BytesIO(raw))

    def test_lmin_y_bound(self):
        raw = corrupt(example_bytes(), 68 + 3 * 16 + 8, 11)  # last l_min y: 6 -> 11
        with pytest.raises(CorruptIndexError, match="l_min b-count exceeds the total"):
            deserialize(io.BytesIO(raw))

    def test_lmax_start_anchor(self):
        raw = corrupt(example_bytes(), 68 + 4 * 16, 1)  # first l_max x: 0 -> 1
        with pytest.raises(CorruptIndexError, match="does not start at a-count zero"):
            deserialize(io.BytesIO(raw))

    def test_lmax_end_anchor(self):
        raw = corrupt(example_bytes(), 68 + 8 * 16 + 8, 10)  # last l_max y: 9 -> 10
        with pytest.raises(CorruptIndexError, match="does not end at the total b-count"):
            deserialize(io.BytesIO(raw))

    def test_lmax_x_bound(self):
        raw = corrupt(example_bytes(), 68 + 8 * 16, 10)  # last l_max x: 7 -> 10
        with pytest.raises(CorruptIndexError, match="l_max a-count exceeds the total"):
            deserialize(io.BytesIO(raw))

    def test_empty_stream(self):
        with pytest.raises(IndexFormatError, match="bad magic"):
            deserialize(io.BytesIO(b""))


def _outcome(load, raw: bytes):
    """What loading raw gives: the index with its peaks, or the error."""
    try:
        index = load(io.BytesIO(raw))
    except ValueError as exc:
        return type(exc), str(exc)
    return index, index.peak_min, index.peak_max


@pytest.mark.parametrize("text", [
    "", "a", "b", "abba", EXAMPLE,
    coin_string(random.Random(3), 64),
    geometric_run_string(random.Random(4), 200, 0.2),
], ids=["empty", "a", "b", "abba", "example", "coin-64", "runs-200"])
def test_loader_matches_per_entry_reference(text):
    # Every u64 but the entry counts (which the totals bound checks before
    # the reference reads anything), set to five other values, and every
    # 8-byte truncation: the loader gives the reference's index or error.
    buf = io.BytesIO()
    serialize(build_index(text), buf)
    good = buf.getvalue()
    mask = (1 << 64) - 1
    cases = [good[:cut] for cut in range(0, len(good), 8)]
    for offset in (12, 20, 28, 52, 60, *range(68, len(good), 8)):
        (v,) = struct.unpack_from("<Q", good, offset)
        for new in {0, v ^ 1, (v + 1) & mask, (v - 1) & mask, v ^ (1 << 63)} - {v}:
            raw = bytearray(good)
            struct.pack_into("<Q", raw, offset, new)
            cases.append(bytes(raw))
    for raw in cases:
        assert _outcome(deserialize, raw) == _outcome(reference_deserialize, raw)
