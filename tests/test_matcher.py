"""Automaton matching vs a naive per-pattern scan oracle."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hks import (DataError, Document, EmptyPoolError, KnowledgeElement,
                 KnowledgePool, MatcherConfig, annotate, build_automaton)
from hks import textnorm
from hks.matcher import count_all

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
# and which is a word character on its own after CJK. Texts also hold
# line breaks, which normalize to a space like any whitespace.
_SURFACE_PIECES = ["a", "b", "ab", "a-b", "a b c", "a数b", "e", "é",
                   "\u0301", "_", "1", "-", "+", " ", "数", "据", "한", "국"]
_TEXT_PIECES = _SURFACE_PIECES + [".", "!?", "--", "  ", "A", "É", "語",
                                   "\n", "\r", "\u2028"]

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
    """count_all against the naive scan of each document alone: no
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
    @example(elements=[("a b", "art")], texts=["a\nb", "a\r\nb", "a\u2028b"],
             boundary=True)
    def test_batch_matches_naive_per_document(self, elements, texts,
                                              boundary):
        auto = build_automaton(make_pool(elements),
                               MatcherConfig(boundary=boundary))
        counts = count_all(texts, auto)
        assert all(column.shape[0] == len(texts) for column in counts)
        assert [(n_p, (n_k, n_distinct, dict(zip(DOMAINS, zip(o, u)))))
                for n_p, n_k, n_distinct, o, u in zip(
                    *(column.tolist() for column in counts))] == \
            [(ref_token_count(ref_normalize(t)),
              naive_match_counts(t, elements, boundary)) for t in texts]


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
            [ref_token_count(ref_normalize(t)) for t in texts]


def _thue_morse(n: int, zero: str, one: str) -> str:
    return "".join(one if bin(i).count("1") % 2 else zero for i in range(n))


# Banded pools: prefixes of a few 64-character stems, so surfaces of one
# band share their first characters and some are prefixes of others; a
# surface may have its last character swapped to differ only there.
# "-" edges and CJK take the substring path, a/b surfaces the word rule.
_STEM_CHARS = "ab-数"
_FILLERS = ["a", "b", " ", "-", "数", ".", "x"]


@st.composite
def _banded_cases(draw):
    stems = draw(st.lists(st.text(_STEM_CHARS, min_size=64, max_size=64),
                          min_size=1, max_size=3))
    lengths = draw(st.lists(st.integers(2, 64), min_size=3, max_size=12,
                            unique=True)
                   .filter(lambda ls: len({n.bit_length() for n in ls}) >= 3))
    pool = {}
    for n in lengths:
        surface = draw(st.sampled_from(stems))[:n]
        if draw(st.booleans()):
            surface = surface[:-1] + draw(st.sampled_from(_STEM_CHARS))
        pool[surface] = draw(st.sampled_from(DOMAINS))
    pieces = st.sampled_from(list(pool) + stems + _FILLERS)
    texts = draw(st.lists(st.lists(pieces, max_size=8).map("".join),
                          max_size=4))
    return list(pool.items()), texts


class TestBandedDifferential:
    """`count_all` and `find_matches` against the naive scan on pools of
    lengths 2-64 across at least three length bands, in both boundary
    modes."""

    @settings(max_examples=200, deadline=None)
    @given(case=_banded_cases())
    # A text ending inside a longer surface of the band; one surface a
    # prefix of another, and two that differ in their last character.
    @example(case=([("ab", "art"), ("abab", "life"), ("abab-ab", "science"),
                    ("abab-aa", "culture"), ("abab-abab", "society")],
                   ["abab-a", "abab-ab", "xabab-abab", "ab-abab-aa"]))
    # Equal heads and, on the first text, an equal full hash (see
    # TestAnchorCollision): only the codepoint compare refuses it.
    @example(case=([("ab", "art"), ("abab", "life"), ("c" * 1024, "culture"),
                    (_thue_morse(1024, "a", "b") + "ab", "science"),
                    (_thue_morse(1024, "b", "a") + "b", "art")],
                   [_thue_morse(1024, "b", "a") + "ab",
                    _thue_morse(1024, "a", "b") + "b abab"]))
    def test_batch_and_matches_equal_the_naive_scan(self, case):
        elements, texts = case
        for boundary in (True, False):
            auto = build_automaton(make_pool(elements),
                                   MatcherConfig(boundary=boundary))
            assert len(auto._bands) >= 3
            counts = count_all(texts, auto)
            assert [(n_k, n_distinct, dict(zip(DOMAINS, zip(o, u))))
                    for n_k, n_distinct, o, u in zip(
                        *(column.tolist() for column in counts[1:]))] == \
                [naive_match_counts(t, elements, boundary) for t in texts]
            for t in texts:
                assert auto.find_matches(t) == \
                    naive_occurrences(t, elements, boundary)


class TestHashCollision:
    """The length-1024 Thue-Morse word over {a, b} and its complement
    have equal polynomial hashes mod 2^64 under any odd base."""

    WORD = _thue_morse(1024, "a", "b")
    COMPLEMENT = _thue_morse(1024, "b", "a")
    ELEMENTS = [(WORD, "science"), (COMPLEMENT, "art")]

    def test_the_surfaces_share_a_hash(self):
        auto = build_automaton(make_pool(self.ELEMENTS))
        (band,) = auto._bands
        assert (band.anchor, band.width) == (1024, 1024)
        assert band.keys[0] == band.keys[1]

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


class TestAnchorCollision:
    """The Thue-Morse word extended by "ab" and its complement extended
    by "b" fall in one band, whose anchor length 1024 a third surface
    sets: their heads collide while the surfaces differ. A text holding
    one extension with the other's first 1024 characters also matches
    its full hash, so only the codepoint compare tells them apart."""

    WORD = TestHashCollision.WORD + "ab"
    COMPLEMENT = TestHashCollision.COMPLEMENT + "b"
    ELEMENTS = [("c" * 1024, "life"), (WORD, "science"),
                (COMPLEMENT, "art")]

    def test_the_heads_collide(self):
        auto = build_automaton(make_pool(self.ELEMENTS))
        (band,) = auto._bands
        assert (band.anchor, band.width) == (1024, 1026)
        assert len(set(band.heads.tolist())) == 2
        assert len(set(band.keys.tolist())) == 3

    @pytest.mark.parametrize("boundary", [True, False])
    @pytest.mark.parametrize("text", [
        WORD, COMPLEMENT, TestHashCollision.COMPLEMENT + "ab",
        TestHashCollision.WORD + "b", f"{WORD} {COMPLEMENT}",
        f"{COMPLEMENT}.{WORD}", WORD + COMPLEMENT, COMPLEMENT[:-1],
        "c" * 1026,
    ], ids=["word", "complement", "complement-ab", "word-b", "both",
            "both-reversed", "joined", "cut-short", "c-run"])
    def test_each_surface_counted_exactly(self, text, boundary):
        elements = self.ELEMENTS
        auto = build_automaton(make_pool(elements),
                               MatcherConfig(boundary=boundary))
        counts = count_all([text, text[:1030]], auto)
        assert [(n_k, n_distinct, dict(zip(DOMAINS, zip(o, u))))
                for n_k, n_distinct, o, u in zip(
                    *(column.tolist() for column in counts[1:]))] == \
            [naive_match_counts(t, elements, boundary)
             for t in (text, text[:1030])]
        assert auto.find_matches(text) == \
            naive_occurrences(text, elements, boundary)


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

    def test_threads_fill_fresh_shared_tables(self, monkeypatch):
        # Threads start on an unfilled class table and race to classify
        # the same codepoints, each in batches of its own length.
        rng = np.random.default_rng(9)
        auto = build_automaton(make_pool(random_pool_elements(rng, 200)))
        texts = [random_text(rng, 300) for _ in range(60)]
        sizes = (1, 3, 7, 60)
        serial = [[count_all(texts[i:i + size], auto)
                   for i in range(0, len(texts), size)] for size in sizes]
        monkeypatch.setattr(textnorm, "_class_table", None)
        results = [None] * len(sizes)

        def work(slot):
            size = sizes[slot]
            results[slot] = [count_all(texts[i:i + size], auto)
                             for i in range(0, len(texts), size)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(len(sizes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        for got, want in zip(results, serial):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
