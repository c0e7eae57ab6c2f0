import copy
import pickle
import random
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE, EXAMPLE_PNF_A, EXAMPLE_PNF_B, all_binary_strings
from cornerindex.build import build_index, index_from_rle
from cornerindex.oracle import parikh_set_bruteforce
from cornerindex.pnf import PnfPair, pnf_from_index, verify_pnf_relations
from cornerindex.rle import RunLengthEncoding, encode

binary_strings = st.text(alphabet="ab", max_size=60)


class TestNormalForms:
    def test_worked_example(self):
        pnfs = pnf_from_index(build_index(EXAMPLE))
        assert pnfs == PnfPair(EXAMPLE_PNF_A, EXAMPLE_PNF_B)

    def test_pair_is_a_frozen_value(self):
        pair = PnfPair(EXAMPLE_PNF_A, EXAMPLE_PNF_B)
        same = PnfPair(pnf_b=EXAMPLE_PNF_B, pnf_a=EXAMPLE_PNF_A)
        assert pair == same and hash(pair) == hash(same)
        assert pair != PnfPair(EXAMPLE_PNF_B, EXAMPLE_PNF_A)
        assert pair != (EXAMPLE_PNF_A, EXAMPLE_PNF_B)
        assert {pair: "example"}[same] == "example"
        assert repr(PnfPair("ab", "ba")) == "PnfPair(pnf_a='ab', pnf_b='ba')"
        for name in ("pnf_a", "pnf_b", "other"):
            with pytest.raises(AttributeError):
                setattr(pair, name, "")
        with pytest.raises(AttributeError):
            del pair.pnf_a
        for twin in (pickle.loads(pickle.dumps(pair)), copy.copy(pair)):
            assert twin == pair and twin.pnf_b == EXAMPLE_PNF_B

    def test_degenerate(self):
        assert pnf_from_index(build_index("")) == PnfPair("", "")
        assert pnf_from_index(build_index("aaa")) == PnfPair("aaa", "aaa")
        assert pnf_from_index(build_index("b")) == PnfPair("b", "b")

    def test_relations_on_example(self):
        idx = build_index(EXAMPLE)
        assert verify_pnf_relations(idx, pnf_from_index(idx))

    def test_relations_reject_wrong_strings(self):
        idx = build_index(EXAMPLE)
        good = pnf_from_index(idx)
        assert not verify_pnf_relations(idx, PnfPair(good.pnf_a, good.pnf_a))
        assert not verify_pnf_relations(idx, PnfPair(good.pnf_a[::-1], good.pnf_b))
        assert not verify_pnf_relations(idx, PnfPair("a" * 18, good.pnf_b))
        assert not verify_pnf_relations(idx, PnfPair("", ""))
        assert not verify_pnf_relations(idx, PnfPair(good.pnf_a, "b" * 18))
        # right length and a-positions, but one a too many
        assert not verify_pnf_relations(build_index("b"), PnfPair("b", "a"))
        # the right a's, with every other letter spelled otherwise
        foreign = PnfPair(good.pnf_a.replace("b", "c"), good.pnf_b.replace("b", "x"))
        assert not verify_pnf_relations(idx, foreign)

        # every string of length <= 8: the true pair passes, and every
        # one-letter flip, adjacent swap that changes a form, form one
        # letter short or one b longer, and swap of differing forms fails
        def near_misses(form):
            for i, c in enumerate(form):
                yield form[:i] + "ab"[c == "a"] + form[i + 1:]
            for i in range(len(form) - 1):
                if form[i] != form[i + 1]:
                    yield form[:i] + form[i + 1] + form[i] + form[i + 2:]
            if form:
                yield form[:-1]
            yield form + "b"

        for text in all_binary_strings(8):
            idx = build_index(text)
            good = pnf_from_index(idx)
            a, b = good.pnf_a, good.pnf_b
            assert verify_pnf_relations(idx, PnfPair(a, b)), text
            wrong = [PnfPair(v, b) for v in near_misses(a)]
            wrong += [PnfPair(a, v) for v in near_misses(b)]
            if a != b:
                wrong.append(PnfPair(b, a))
            for pair in wrong:
                assert not verify_pnf_relations(idx, pair), (text, pair)

    def test_long_text(self):
        # n = 200,000 in 40 runs: the relations check is linear, and the
        # tables match windowed a-counts at seeded lengths
        rng = random.Random(40)
        cuts = sorted(rng.sample(range(1, 200_000), 39))
        runs = [b - a for a, b in zip([0, *cuts], [*cuts, 200_000])]
        idx = index_from_rle(RunLengthEncoding(tuple(runs[0::2]), tuple(runs[1::2])))
        assert verify_pnf_relations(idx, pnf_from_index(idx))
        text = "".join("ab"[k % 2] * r for k, r in enumerate(runs))
        prefix = np.cumsum(np.frombuffer(text.encode(), np.uint8) == ord("a"))
        prefix = np.concatenate(([0], prefix))
        f, F = idx.length_tables()
        for m in rng.sample(range(1, 200_001), 20):
            window = prefix[m:] - prefix[:-m]
            assert (f[m], F[m]) == (window.min(), window.max()), m

    def test_long_text_tables_are_packed(self):
        # test_long_text's index: the tables of its 200,001 lengths peak
        # at under 2.5 times their 16 bytes a length, where tuples of
        # Python ints took 4.4 times
        rng = random.Random(40)
        cuts = sorted(rng.sample(range(1, 200_000), 39))
        runs = [b - a for a, b in zip([0, *cuts], [*cuts, 200_000])]
        idx = index_from_rle(RunLengthEncoding(tuple(runs[0::2]), tuple(runs[1::2])))
        expected = idx.length_tables()  # imports numpy, builds the lookup table
        tracemalloc.start()
        try:
            tables = idx.length_tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tables == expected
        assert peak <= 2.5 * 16 * (idx.n + 1)

    @given(binary_strings)
    @settings(max_examples=300)
    def test_relations_hold(self, s):
        idx = build_index(s)
        assert verify_pnf_relations(idx, pnf_from_index(idx))

    @given(binary_strings)
    def test_prefix_normal(self, s):
        # each form maximizes its own letter across every prefix
        pnfs = pnf_from_index(build_index(s))
        for w, c in [(pnfs.pnf_a, "a"), (pnfs.pnf_b, "b")]:
            for m in range(len(w) + 1):
                windows = {w[i:i + m].count(c) for i in range(len(w) - m + 1)}
                assert w.count(c, 0, m) == max(windows)

    @given(binary_strings)
    @settings(max_examples=150)
    def test_each_form_keeps_its_own_staircase(self, s):
        # pnf_a reproduces the minimal-b corners, pnf_b the maximal-b ones;
        # neither form alone pins down the other side
        idx = build_index(s)
        pnfs = pnf_from_index(idx)
        assert build_index(pnfs.pnf_a).l_min == idx.l_min
        assert build_index(pnfs.pnf_b).l_max == idx.l_max

    def test_forms_are_one_sided(self):
        # "bab" admits no all-b pair of length two, but its a-form does
        pnfs = pnf_from_index(build_index("bab"))
        assert pnfs.pnf_a == "abb"
        assert (0, 2) in parikh_set_bruteforce("abb")
        assert (0, 2) not in parikh_set_bruteforce("bab")

    @given(binary_strings)
    @settings(max_examples=150)
    def test_idempotent(self, s):
        pnfs = pnf_from_index(build_index(s))
        again_a = pnf_from_index(build_index(pnfs.pnf_a))
        again_b = pnf_from_index(build_index(pnfs.pnf_b))
        assert again_a.pnf_a == pnfs.pnf_a
        assert again_b.pnf_b == pnfs.pnf_b


class TestRunCount:
    def test_matches_lmin_size(self):
        for s in all_binary_strings(10, min_len=1):
            idx = build_index(s)
            runs = encode(pnf_from_index(idx).pnf_a)
            assert len(runs.a_runs) == len(idx.l_min), s

    def test_empty_is_the_exception(self):
        idx = build_index("")
        assert len(idx.l_min) == 1
        assert encode("").pairs == 0


def test_forms_classify_strings():
    # strings share a pnf pair exactly when they share an occurrence set
    by_parikh: dict[frozenset, set[PnfPair]] = defaultdict(set)
    pairs_seen: dict[PnfPair, frozenset] = {}
    for s in all_binary_strings(10):
        key = frozenset(parikh_set_bruteforce(s))
        pair = pnf_from_index(build_index(s))
        by_parikh[key].add(pair)
        if pair in pairs_seen:
            assert pairs_seen[pair] == key
        else:
            pairs_seen[pair] = key
    assert all(len(v) == 1 for v in by_parikh.values())
