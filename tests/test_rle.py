import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import HUGE_RUNS, assert_matches_reference, block_sizes
from cornerindex import build
from cornerindex.rle import (
    MAX_TEXT_LENGTH,
    InputFormatError,
    MalformedEncodingError,
    RunLengthEncoding,
    decode,
    encode,
    rho,
)

binary_strings = st.text(alphabet="ab", max_size=200)


def test_worked_example():
    r = encode("aabababbaaabbaabbb")
    assert r.a_runs == (2, 1, 1, 3, 2)
    assert r.b_runs == (1, 1, 2, 2, 3)
    assert rho(r) == 10
    assert r.pairs == 5


def test_empty_string():
    r = encode("")
    assert r.a_runs == () and r.b_runs == ()
    assert rho(r) == 0
    assert decode(r) == ""


def test_padding_conventions():
    assert encode("bbb").a_runs == (0,)
    assert encode("bbb").b_runs == (3,)
    assert encode("aaa").a_runs == (3,)
    assert encode("aaa").b_runs == (0,)
    assert encode("ba") == RunLengthEncoding((0, 1), (1, 0))


def test_decode_examples():
    assert decode(RunLengthEncoding((2, 1, 1, 3, 2), (1, 1, 2, 2, 3))) == "aabababbaaabbaabbb"
    assert decode(RunLengthEncoding((3,), (0,))) == "aaa"
    assert decode(RunLengthEncoding((0,), (4,))) == "bbbb"


def test_invalid_character_names_position():
    with pytest.raises(InputFormatError) as exc:
        encode("aabxba")
    assert exc.value.position == 3
    assert "'x'" in str(exc.value)
    assert "index 3" in str(exc.value)


@pytest.mark.parametrize("char", ["x", "A", "0", " ", "\x00", "\x7f", "é", "\u2028", "\ud800"],
                         ids=["x", "A", "0", "space", "nul", "del", "e-acute", "line-sep",
                              "surrogate"])
@pytest.mark.parametrize("at", [0, 4, 8], ids=["first", "middle", "last"])
def test_invalid_character_anywhere(char, at):
    # ASCII and non-ASCII alike: the first bad character is named with its
    # index, and a later one does not change that
    text = "abbabaabb"
    for tail in ("", "z"):
        bad = text[:at] + char + text[at + 1:] + tail
        with pytest.raises(InputFormatError) as exc:
            encode(bad)
        assert str(exc.value) == f"invalid character {char!r} at index {at}; expected 'a' or 'b'"
        assert exc.value.position == at


def test_interior_zero_runs_rejected():
    with pytest.raises(MalformedEncodingError):
        RunLengthEncoding((2, 0), (1, 1))
    with pytest.raises(MalformedEncodingError):
        RunLengthEncoding((2, 1), (0, 1))
    with pytest.raises(MalformedEncodingError):
        RunLengthEncoding((1, 1), (1,))
    with pytest.raises(MalformedEncodingError):
        RunLengthEncoding((-1,), (1,))


def test_total_length_limit():
    with pytest.raises(MalformedEncodingError, match="64-bit"):
        RunLengthEncoding((1 << 63,), (1 << 63,))
    with pytest.raises(MalformedEncodingError, match="64-bit"):
        RunLengthEncoding((1, 1), (1, MAX_TEXT_LENGTH - 2))
    assert RunLengthEncoding((MAX_TEXT_LENGTH,), (0,)).total_a == MAX_TEXT_LENGTH


@pytest.mark.parametrize("a_runs, b_runs, message", [
    ((1, 1), (1,), "a_runs and b_runs must pair up (2 vs 1 entries)"),
    ((1,), (1, 1), "a_runs and b_runs must pair up (1 vs 2 entries)"),
    ((-1,), (1,), "run lengths must be non-negative"),
    ((1,), (-1,), "run lengths must be non-negative"),
    ((2, 0), (1, 1), "interior a-run of length zero"),
    ((2, 1), (0, 1), "interior b-run of length zero"),
    ((1 << 63,), (1 << 63,), "run lengths exceed the 64-bit length limit"),
])
def test_malformed_encoding_messages(a_runs, b_runs, message):
    with pytest.raises(MalformedEncodingError) as exc:
        RunLengthEncoding(a_runs, b_runs)
    assert str(exc.value) == message
    with pytest.raises(MalformedEncodingError) as exc:
        RunLengthEncoding(b_runs=b_runs, a_runs=a_runs)
    assert str(exc.value) == message


def test_run_lengths_follow_the_count_rule():
    # integral values of other numeric types are the ints they equal; other
    # numbers are malformed run lengths, and text has the wrong type
    same = RunLengthEncoding([2.0, Fraction(1)], [np.uint8(1), 0.0])
    assert same == RunLengthEncoding([2, 1], [1, 0])
    assert all(type(v) is int for v in same.a_runs + same.b_runs)
    for a_runs, b_runs, message in (
        ([2.7], [1.2], "a-run 2.7"),
        ([2], [1.2], "b-run 1.2"),
        ([1, np.float64(0.5)], [1, 0], "a-run 0.5"),
        ([float("inf")], [0], "a-run inf"),
        ([1], [float("nan")], "b-run nan"),
    ):
        with pytest.raises(MalformedEncodingError, match=f"^{message} is not an integer$"):
            RunLengthEncoding(a_runs, b_runs)
    for bad in ("3", b"3", bytearray(b"3")):
        for a_runs, b_runs in (([bad], [2]), ([3], [bad])):
            with pytest.raises(TypeError, match=f"^a count must be a number, not {type(bad).__name__}$"):
                RunLengthEncoding(a_runs, b_runs)


def test_encoding_is_a_frozen_value():
    # any iterables of integral values, stored as tuples of ints
    r = RunLengthEncoding([0, np.int64(2)], iter([True, 0]))
    assert r.a_runs == (0, 2) and r.b_runs == (1, 0)
    assert all(type(v) is int for v in r.a_runs + r.b_runs)
    assert type(r.a_runs) is tuple and type(r.b_runs) is tuple
    same = RunLengthEncoding(b_runs=(1, 0), a_runs=(0, 2))
    assert r == same == encode("baa") and hash(r) == hash(same)
    assert r != RunLengthEncoding((0, 2), (1, 1)) and r != ((0, 2), (1, 0))
    assert repr(r) == "RunLengthEncoding(a_runs=(0, 2), b_runs=(1, 0))"
    assert {r: 1}[encode("baa")] == 1
    for name in ("a_runs", "b_runs", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, ())
    with pytest.raises(AttributeError):
        del r.a_runs
    assert r.a_runs == (0, 2)
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert twin == r and (twin.a_runs, twin.b_runs) == ((0, 2), (1, 0))


@given(st.one_of(binary_strings, st.sampled_from(["", "a", "b", "aaaa", "bbb"])))
def test_encode_equals_validated_encoding(s):
    # encode skips the constructor's checks: its runs are valid by construction
    r = encode(s)
    checked = RunLengthEncoding(r.a_runs, r.b_runs)
    assert r == checked and repr(r) == repr(checked) and hash(r) == hash(checked)
    assert all(type(v) is int for v in r.a_runs + r.b_runs)
    assert type(r.a_runs) is tuple and type(r.b_runs) is tuple


@pytest.mark.parametrize("a_runs, b_runs", HUGE_RUNS)
def test_huge_runs_build_exactly(a_runs, b_runs):
    # the numpy sweep works in uint64 (block size 1 sends these few runs
    # through it); sums near the limit must not wrap
    for block in (1, build._BLOCK):
        with block_sizes(block):
            assert_matches_reference(RunLengthEncoding(a_runs, b_runs))


@given(binary_strings)
def test_round_trip(s):
    r = encode(s)
    assert decode(r) == s
    # padded endpoints only: interior entries are positive
    assert all(u > 0 for u in r.a_runs[1:])
    assert all(v > 0 for v in r.b_runs[:-1])
    if r.pairs:
        assert 2 * r.pairs - 2 <= rho(r) <= 2 * r.pairs


@given(binary_strings)
def test_totals_match(s):
    r = encode(s)
    assert r.total_a == s.count("a")
    assert r.total_b == s.count("b")
