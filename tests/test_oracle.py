import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE, EXAMPLE_BMAX, EXAMPLE_BMIN, all_binary_strings
from cornerindex import oracle
from cornerindex.oracle import (
    DEFAULT_MAX_TEXT,
    TextTooLongError,
    bmin_bmax_naive,
    lemma1_witness_check,
    parikh_set_bruteforce,
    sliding_window_query,
    verify_interval_lemma,
)

binary_strings = st.text(alphabet="ab", max_size=60)


class TestParikhSet:
    def test_tiny_examples(self):
        assert parikh_set_bruteforce("") == {(0, 0)}
        assert parikh_set_bruteforce("ab") == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert parikh_set_bruteforce("ba") == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_worked_example_membership(self):
        pi = parikh_set_bruteforce(EXAMPLE)
        assert (3, 3) in pi
        assert (5, 1) not in pi
        assert (9, 9) in pi

    @given(binary_strings)
    @settings(max_examples=200)
    def test_size_bound(self, s):
        # at most one interval of y per x, never more than (n+1)^2 pairs
        pi = parikh_set_bruteforce(s)
        n = len(s)
        assert 1 <= len(pi) <= (n + 1) * (n + 1)
        assert all(0 <= x <= n and 0 <= y <= n for x, y in pi)


class TestStaircaseTables:
    def test_worked_example(self):
        tbl = bmin_bmax_naive(EXAMPLE)
        assert tbl.bmin == EXAMPLE_BMIN
        assert tbl.bmax == EXAMPLE_BMAX

    def test_degenerate(self):
        assert bmin_bmax_naive("") == ((0,), (0,))
        assert bmin_bmax_naive("bb") == ((0,), (2,))
        assert bmin_bmax_naive("aa") == ((0, 0, 0), (0, 0, 0))
        assert bmin_bmax_naive("aab") == ((0, 0, 0), (1, 1, 1))

    def test_agrees_with_set(self):
        # the two brute-force views must describe the same occurrences
        for s in all_binary_strings(9):
            pi = parikh_set_bruteforce(s)
            bmin, bmax = bmin_bmax_naive(s)
            derived = {
                (x, y)
                for x in range(len(bmin))
                for y in range(bmin[x], bmax[x] + 1)
            }
            assert derived == pi, s

    @given(binary_strings)
    def test_monotone(self, s):
        bmin, bmax = bmin_bmax_naive(s)
        assert all(bmin[i] <= bmin[i + 1] for i in range(len(bmin) - 1))
        assert all(bmax[i] <= bmax[i + 1] for i in range(len(bmax) - 1))


class TestSlidingWindow:
    def test_edges(self):
        assert sliding_window_query("", (0, 0))
        assert not sliding_window_query("", (1, 0))
        assert sliding_window_query("ab", (1, 1))
        assert not sliding_window_query("ab", (2, 0))
        assert not sliding_window_query("ab", (-1, 1))
        assert not sliding_window_query("ab", (1, -1))
        assert not sliding_window_query("ab", (3, 3))
        # no substring holds half a letter; integral floats count as ints
        assert not sliding_window_query("ab", (0.5, 0))
        assert not sliding_window_query("ab", (1, 0.5))
        assert not sliding_window_query("ab", (float("nan"), 0))
        assert sliding_window_query("ab", (1.0, 1.0))

    def test_text_counts_are_refused(self):
        # not formatted by the integrality test, as "%d" % 1 would be
        for q in (("1", 1), (1, b"1"), ("%d", 0), (bytearray(b"1"), 1)):
            with pytest.raises(TypeError, match="a count must be a number"):
                sliding_window_query("ab", q)

    @given(binary_strings, st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=300)
    def test_agrees_with_set(self, s, x, y):
        assert sliding_window_query(s, (x, y)) == ((x, y) in parikh_set_bruteforce(s))


class TestStructuralChecks:
    def test_interval_lemma_small(self):
        for s in all_binary_strings(9):
            assert verify_interval_lemma(s), s

    def test_witnesses_small(self):
        for s in all_binary_strings(9):
            assert lemma1_witness_check(s), s

    def test_interval_lemma_rejects_a_gap(self, monkeypatch):
        # length 2 of "aabb" has a-counts 0, 1 and 2; without the middle
        # one they are no interval
        pi = parikh_set_bruteforce("aabb")
        monkeypatch.setattr(oracle, "parikh_set_bruteforce", lambda s, max_n: pi - {(1, 1)})
        assert not verify_interval_lemma("aabb")

    @pytest.mark.parametrize("letter, coord", [("a", 0), ("b", 1)])
    def test_witnesses_reject_a_missing_span(self, monkeypatch, letter, coord):
        # the span over every run of a letter is the only witness of the
        # realized pair with all of that letter and the fewest of the other
        spans = oracle._span_vectors

        def without_widest(s, which):
            out = spans(s, which)
            if which == letter:
                out.remove(max(out, key=lambda v: v[coord]))
            return out

        monkeypatch.setattr(oracle, "_span_vectors", without_widest)
        assert not lemma1_witness_check(EXAMPLE)

    def test_span_vectors_match_definition(self):
        # Parikh vectors of the empty substring and of every substring that
        # starts and ends with a whole run of the letter
        for s in all_binary_strings(10):
            for letter in "ab":
                expected = [(0, 0)] + [
                    (s.count("a", i, j), s.count("b", i, j))
                    for i in range(len(s))
                    for j in range(i + 1, len(s) + 1)
                    if s[i] == s[j - 1] == letter
                    and s[i - 1:i] != letter and s[j:j + 1] != letter
                ]
                assert sorted(oracle._span_vectors(s, letter)) == sorted(expected), (s, letter)

    @given(binary_strings)
    @settings(max_examples=200)
    def test_interval_lemma(self, s):
        assert verify_interval_lemma(s)

    @given(binary_strings)
    @settings(max_examples=200)
    def test_witnesses(self, s):
        assert lemma1_witness_check(s)


class TestSafety:
    def test_length_refusal(self):
        with pytest.raises(TextTooLongError, match="exceeds the brute-force bound 5"):
            bmin_bmax_naive("a" * 6, max_n=5)
        with pytest.raises(TextTooLongError):
            parikh_set_bruteforce("ab" * 3000)
        assert DEFAULT_MAX_TEXT == 4096
        # the O(n) single-query scan has no such bound
        assert sliding_window_query("ab" * 3000, (3000, 3000))

    def test_rejects_other_characters(self):
        with pytest.raises(ValueError, match="unexpected character 'c'"):
            parikh_set_bruteforce("abcab")
        with pytest.raises(ValueError, match="unexpected character"):
            bmin_bmax_naive("0101")
