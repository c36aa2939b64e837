"""Automaton matching vs a naive per-pattern scan oracle."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hks import (DataError, Document, EmptyPoolError, KnowledgeElement,
                 KnowledgePool, MatcherConfig, annotate, annotate_all, build_automaton)
from hks.matcher import count_all
from hks.textnorm import normalize, tokenize_count

from helpers import (DOMAINS, naive_match_counts, naive_occurrences,
                     occurrence_counts, random_pool_elements, random_text,
                     ref_normalize, ref_token_count)


def make_pool(pairs):
    return KnowledgePool.from_elements(
        KnowledgeElement(s, d) for s, d in pairs)


def profile_of(text, pairs, **config):
    auto = build_automaton(make_pool(pairs), MatcherConfig(**config))
    return annotate(Document("t", text), auto)


class TestDefinitionalCases:
    def test_overlapping_patterns_raw(self):
        auto = build_automaton(make_pool([("ab", "life"), ("bc", "life")]),
                               MatcherConfig(boundary=False))
        assert auto.find_matches("abc") == [(0, "ab"), (1, "bc")]

    def test_repeated_single_char_raw(self):
        prof = profile_of("aaa", [("a", "life")], boundary=False)
        assert prof.n_k == 3
        assert prof.n_distinct == 1

    def test_duplicate_occurrences(self):
        prof = profile_of("graph theory and graph theory",
                          [("graph theory", "science")])
        assert prof.n_k == 2
        assert prof.n_distinct == 1
        assert prof.per_domain["science"] == (2, 1)

    def test_nested_all_occurrence(self):
        prof = profile_of("machine learning",
                          [("machine learning", "science"),
                           ("learning", "science")])
        assert prof.n_k == 2
        assert prof.n_distinct == 2

    def test_no_match_zero_profile(self):
        prof = profile_of("nothing here", [("quantum", "science")])
        assert (prof.n_k, prof.n_distinct) == (0, 0)
        assert all(v == (0, 0) for v in prof.per_domain.values())

    def test_empty_text_zero_profile(self):
        prof = profile_of("", [("ab", "life")])
        assert prof.n_p == 0
        assert prof.n_k == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            build_automaton(KnowledgePool.from_elements([]))

    def test_empty_surface_rejected(self):
        pool = KnowledgePool.from_elements([KnowledgeElement("ab", "life"),
                                            KnowledgeElement("", "art")])
        with pytest.raises(DataError, match="empty surface in pool"):
            build_automaton(pool)


class TestBoundaryRule:
    def test_word_surface_needs_boundaries(self):
        # "art" must not fire inside "start".
        assert profile_of("start", [("art", "art")]).n_k == 0
        assert profile_of("art start", [("art", "art")]).n_k == 1

    def test_punctuation_is_a_boundary(self):
        assert profile_of("(art)", [("art", "art")]).n_k == 1

    def test_multiword_surface_checked_at_edges(self):
        prof = profile_of("data sets", [("data set", "science")])
        assert prof.n_k == 0  # right edge extends into "sets"

    def test_cjk_flank_does_not_block(self):
        # An ideograph next to a Latin term is a boundary, not glue.
        assert profile_of("数art据", [("art", "art")]).n_k == 1

    def test_cjk_surface_matches_inside_run(self):
        prof = profile_of("数据库", [("数据", "science")])
        assert prof.n_k == 1

    def test_edge_punctuation_surface_unchecked(self):
        # Surface ending in '+' is not boundary-checked, so it matches
        # even when followed by a word character.
        prof = profile_of("c++x", [("c++", "science")])
        assert prof.n_k == 1

    def test_boundary_off_matches_substrings(self):
        assert profile_of("start", [("art", "art")], boundary=False).n_k == 1

    def test_normalization_applied_to_document(self):
        prof = profile_of("Machine  LEARNING rocks",
                          [("machine learning", "science")])
        assert prof.n_k == 1


class TestTokenCounts:
    def test_n_p_counted_on_normalized_text(self):
        prof = profile_of("Hello,  World", [("ab", "life")])
        assert prof.n_p == 2

    def test_mixed_cjk(self):
        prof = profile_of("data数据", [("ab", "life")])
        assert prof.n_p == 3


class TestSubstringPath:
    """Substring-path lookups at the end of the text and with a
    one-character shortest surface (prefix length 1)."""

    ELEMENTS = [("数", "science"), ("数据", "life")]

    # The ids keep their "<text>-all-<boundary>" form ("all": every
    # occurrence counts), so results stay comparable across versions.
    @pytest.mark.parametrize("boundary", [True, False],
                             ids=["all-True", "all-False"])
    @pytest.mark.parametrize("text", ["数", "数据数", "据 数", "ab数"])
    def test_slice_past_end_not_counted(self, text, boundary):
        # A slice of "数据"'s length taken at the final "数" is just "数";
        # it must not be counted a second time.
        auto = build_automaton(make_pool(self.ELEMENTS),
                               MatcherConfig(boundary=boundary))
        occurrences = naive_occurrences(text, self.ELEMENTS, boundary)
        prof = annotate(Document("x", text), auto)
        assert (prof.n_k, prof.n_distinct, prof.per_domain) == \
            occurrence_counts(occurrences, self.ELEMENTS)
        assert prof.n_k == text.count("数") + text.count("数据")

    def test_single_char_prefix_beside_span_surfaces(self):
        elements = [("+", "science"), ("c++", "art"), ("a-b", "life")]
        auto = build_automaton(make_pool(elements))
        text = "c++ a-b+ +c++"
        assert auto.find_matches(text) == naive_occurrences(text, elements)
        assert profile_of(text, elements).n_k == 9


class TestOracleEquivalence:
    def test_random_cases_match_naive_scan(self):
        rng = np.random.default_rng(1234)
        for case in range(300):
            elements = random_pool_elements(rng, 60)
            if not elements:
                continue
            auto = build_automaton(make_pool(elements))
            for _ in range(3):
                text = random_text(rng, 400)
                prof = annotate(Document("x", text), auto)
                n_k, n_distinct, per_domain = naive_match_counts(
                    text, elements)
                assert prof.n_k == n_k, (text, elements)
                assert prof.n_distinct == n_distinct
                assert prof.per_domain == per_domain

    def test_boundary_off_matches_naive_scan(self):
        rng = np.random.default_rng(99)
        for case in range(100):
            elements = random_pool_elements(rng, 40)
            if not elements:
                continue
            auto = build_automaton(make_pool(elements),
                                   MatcherConfig(boundary=False))
            text = random_text(rng, 300)
            prof = annotate(Document("x", text), auto)
            n_k, n_distinct, per_domain = naive_match_counts(
                text, elements, boundary=False)
            assert (prof.n_k, prof.n_distinct) == (n_k, n_distinct)
            assert prof.per_domain == per_domain

    def test_profile_invariants_hold(self):
        rng = np.random.default_rng(531)
        for _ in range(100):
            elements = random_pool_elements(rng, 80)
            if not elements:
                continue
            pool = make_pool(elements)
            auto = build_automaton(pool)
            prof = annotate(Document("x", random_text(rng, 500)), auto)
            assert prof.n_distinct <= prof.n_k
            assert sum(v[0] for v in prof.per_domain.values()) == prof.n_k
            assert sum(v[1] for v in prof.per_domain.values()) == prof.n_distinct
            for m, (occ, dis) in prof.per_domain.items():
                assert dis <= pool.per_domain_total[m]


# Pieces covering both matching paths: multi-run word surfaces ("a-b",
# "a b c"), CJK-bearing ones ("a数b" has word edges yet is matched as a
# raw substring), non-word edges ("-", "+", " "), Hangul (word-bounded
# like Latin) and a combining mark, which NFC folds into "é" after "e"
# and which is a word character on its own after CJK.
_SURFACE_PIECES = ["a", "b", "ab", "a-b", "a b c", "a数b", "e", "é",
                   "\u0301", "_", "1", "-", "+", " ", "数", "据", "한", "국"]
_TEXT_PIECES = _SURFACE_PIECES + [".", "!?", "--", "  ", "A", "É", "語"]

_surfaces = (st.lists(st.sampled_from(_SURFACE_PIECES), min_size=1, max_size=4)
             .map(lambda parts: ref_normalize("".join(parts))).filter(bool))
_pools = st.lists(st.tuples(_surfaces, st.sampled_from(DOMAINS)),
                  min_size=1, max_size=12, unique_by=lambda e: e[0])
_texts = st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(elements=_pools, text=_texts, boundary=st.booleans())
    def test_all_modes_match_naive_oracle(self, elements, text, boundary):
        pool = make_pool(elements)
        occurrences = naive_occurrences(text, elements, boundary)

        auto = build_automaton(pool, MatcherConfig(boundary=boundary))
        prof = annotate(Document("x", text), auto)
        assert (prof.n_k, prof.n_distinct, prof.per_domain) == \
            naive_match_counts(text, elements, boundary)
        assert auto.find_matches(text) == occurrences


class TestBatch:
    """annotate_all against the naive scan of each document alone: no
    match may cross from one document of a batch into the next."""

    @settings(max_examples=300, deadline=None)
    @given(elements=_pools, texts=st.lists(_texts, max_size=6),
           boundary=st.booleans())
    @example(elements=[("ab", "science"), ("bb", "art"), ("据数", "life"),
                       ("b", "society")],
             texts=["ab", "", "b", "b", "数据", "数", "b"], boundary=True)
    # The join must not read as U+0000, which a surface may hold.
    @example(elements=[("a\x00b", "art")], texts=["a", "b", "a\x00b"],
             boundary=False)
    def test_batch_matches_naive_per_document(self, elements, texts,
                                              boundary):
        auto = build_automaton(make_pool(elements),
                               MatcherConfig(boundary=boundary))
        profiles = annotate_all(
            [Document(str(i), t) for i, t in enumerate(texts)], auto)
        assert [(p.doc_id, p.n_p, (p.n_k, p.n_distinct, p.per_domain))
                for p in profiles] == \
            [(str(i), ref_token_count(ref_normalize(t)),
              naive_match_counts(t, elements, boundary))
             for i, t in enumerate(texts)]


class TestBatchTokenCount:
    """`count_all` counts the tokens of a whole batch in one pass; each
    document's count must be that of its normalized text alone, whatever
    sits beside it across the separator."""

    _blank = st.sampled_from(["", " ", "\t \n", "\u3000"])

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(_texts | _blank, min_size=1, max_size=8))
    @example(texts=[""])
    @example(texts=["ab"])
    @example(texts=["", "ab", " ", "b", "\t"])
    # Word characters and CJK on both sides of every separator.
    @example(texts=["ab", "ab", "数", "据", "a数", "数a", "\u0301b"])
    def test_batch_counts_each_text_alone(self, texts):
        auto = build_automaton(make_pool([("ab", "science")]))
        counts = count_all(texts, auto)
        assert counts.n_p.dtype == np.int64
        assert counts.n_p.tolist() == \
            [tokenize_count(normalize(t)) for t in texts] == \
            [ref_token_count(ref_normalize(t)) for t in texts]


def _thue_morse(n: int, zero: str, one: str) -> str:
    return "".join(one if bin(i).count("1") % 2 else zero for i in range(n))


class TestHashCollision:
    """The length-1024 Thue-Morse word over {a, b} and its complement
    have equal polynomial hashes mod 2^64 under any odd base."""

    WORD = _thue_morse(1024, "a", "b")
    COMPLEMENT = _thue_morse(1024, "b", "a")
    ELEMENTS = [(WORD, "science"), (COMPLEMENT, "art")]

    def test_the_surfaces_share_a_hash(self):
        auto = build_automaton(make_pool(self.ELEMENTS))
        ((length, keys, _, _),) = auto._tables
        assert length == 1024 and keys[0] == keys[1]

    @pytest.mark.parametrize("boundary", [True, False])
    @pytest.mark.parametrize("text", [
        WORD, COMPLEMENT, f"{WORD} {COMPLEMENT}", f"{COMPLEMENT}.{WORD}",
        f"{WORD} x {WORD}", WORD + COMPLEMENT, "ab" * 600,
    ], ids=["word", "complement", "both", "both-reversed", "word-twice",
            "joined", "neither"])
    def test_each_surface_counted_exactly(self, text, boundary):
        prof = profile_of(text, self.ELEMENTS, boundary=boundary)
        assert (prof.n_k, prof.n_distinct, prof.per_domain) == \
            naive_match_counts(text, self.ELEMENTS, boundary)
        if " " in text:
            assert prof.per_domain["science"][0] == text.count(self.WORD)
            assert prof.per_domain["art"][0] == text.count(self.COMPLEMENT)


class TestAdditivity:
    def test_concat_with_nonmatching_separator(self):
        # ';' never appears in generated patterns, so " ; " cannot
        # bridge a match across the join.
        rng = np.random.default_rng(77)
        for _ in range(50):
            elements = random_pool_elements(rng, 50)
            if not elements:
                continue
            auto = build_automaton(make_pool(elements))
            t1 = random_text(rng, 200)
            t2 = random_text(rng, 200)
            p1 = annotate(Document("a", t1), auto)
            p2 = annotate(Document("b", t2), auto)
            joined = annotate(Document("ab", t1 + " ; " + t2), auto)
            assert joined.n_k == p1.n_k + p2.n_k

    def test_exact_repetition_preserves_density(self):
        rng = np.random.default_rng(78)
        elements = random_pool_elements(rng, 50)
        auto = build_automaton(make_pool(elements))
        for _ in range(20):
            t = random_text(rng, 200)
            once = annotate(Document("a", t), auto)
            if once.n_p == 0:
                continue
            twice = annotate(Document("b", t + " ; " + t), auto)
            assert twice.n_k == 2 * once.n_k
            assert twice.n_p == 2 * once.n_p
            assert twice.n_distinct == once.n_distinct


class TestDeterminism:
    def test_repeat_annotation_identical(self):
        rng = np.random.default_rng(5)
        elements = random_pool_elements(rng, 100)
        auto = build_automaton(make_pool(elements))
        text = random_text(rng, 1000)
        first = annotate(Document("x", text), auto)
        for _ in range(3):
            again = annotate(Document("x", text), auto)
            assert again == first


class TestThreads:
    def test_shared_automaton_matches_serial(self):
        rng = np.random.default_rng(8)
        elements = random_pool_elements(rng, 200)
        auto = build_automaton(make_pool(elements))
        docs = [Document(str(i), random_text(rng, 400)) for i in range(200)]
        serial = [annotate(d, auto) for d in docs]
        results = [None, None]

        def work(slot):
            results[slot] = [annotate(d, auto) for d in docs]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert results == [serial, serial]
