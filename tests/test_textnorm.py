"""Normalization, character classes, and token counting."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hks import textnorm
from hks.textnorm import (CJK, WORD, class_table, classes, encode_codepoints,
                          normalize, normalize_lines, token_count_from_classes)

from helpers import is_cjk, is_word, ref_normalize, ref_token_count


def class_of(ch: str) -> int:
    """The class of `ch` as `classes` gives it."""
    return int(classes(encode_codepoints(ch))[0])


def scalar_classes(cps: np.ndarray) -> np.ndarray:
    """The class of each codepoint of `cps` by the scalar oracle, in the
    shape of `cps`."""
    return np.array([WORD * is_word(chr(cp)) | CJK * is_cjk(chr(cp))
                     for cp in cps.ravel().tolist()],
                    dtype=np.uint8).reshape(cps.shape)


def token_count(text: str) -> int:
    """The token count of `text` from its per-codepoint classes, as
    `count_all` counts it, once it equals the scalar segmenter's."""
    count = token_count_from_classes(classes(encode_codepoints(text)))
    assert count == ref_token_count(text), text
    return count


class TestNormalize:
    def test_case_and_whitespace(self):
        assert normalize("Machine  Learning ") == "machine learning"

    def test_tabs_and_newlines_collapse(self):
        assert normalize("graph\ttheory\n\nand  more") == "graph theory and more"

    def test_casefold_expands_sharp_s(self):
        assert normalize("STRASSE") == "strasse"
        assert normalize("straße") == "strasse"

    def test_nfc_composes(self):
        # e + combining acute == precomposed e-acute after NFC.
        assert normalize("café") == normalize("café")

    def test_refold_after_casefold_is_stable(self):
        # U+0130 folds to "i" + combining dot; a second NFC must leave
        # the result equal to its own normalization (idempotence).
        s = normalize("İstanbul")
        assert normalize(s) == s

    def test_idempotent_on_random_text(self):
        rng = np.random.default_rng(7)
        from helpers import random_text
        for _ in range(200):
            t = random_text(rng, 80)
            once = normalize(t)
            assert normalize(once) == once

    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        from helpers import random_text
        for _ in range(300):
            t = random_text(rng, 120)
            assert normalize(t) == ref_normalize(t)

    def test_empty(self):
        assert normalize("") == ""
        assert normalize("   \t\n") == ""


# Characters that str.split() breaks on though the file reader does not
# end a line there, characters whose casefold or NFC changes the length,
# combining marks, and other whitespace.
_TRICKY = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029",
           "\x0b", "\x0c", "\r", "\t", " ", "\xa0", "\u3000", "ß", "ẞ",
           "\u0130", "ﬁ", "\u212b", "Σ", "\u0301", "\u0327", "\u0323", "e",
           "A", "数", "\u200b"]
_LINE_TEXTS = st.lists(st.text(st.one_of(
    st.sampled_from(_TRICKY), st.characters(exclude_characters="\n")),
    max_size=8), max_size=12)


# Document texts: newlines and every other line or space separator,
# combining marks, Hangul jamo, folds that change length, CJK and NUL.
_DOC_CHARS = ["\n", "\r", "\x85", "\u2028", "\x1c", "\xa0", "\u3000",
              "\t", " ", "\u0301", "\u0307", "\u0327", "\u1100", "\u1161",
              "\u11a8", "\u0130", "ß", "ﬁ", "e", "A", "数", "語", "\0"]
_BATCHES = st.lists(st.text(st.one_of(
    st.sampled_from(_DOC_CHARS), st.characters()), max_size=8), max_size=12)


class TestNormalizeLines:
    @settings(max_examples=300, deadline=None)
    @given(texts=_LINE_TEXTS)
    @example(texts=["\u0301e", "e\u0301", "\u0327\u0301a"])
    @example(texts=["", " ", "\x1c", "\u2028", "\x85 a", "STRAẞE", "\u0130"])
    @example(texts=["a  b", " a", "a ", "a\u2028b", "a \x1fb"])
    def test_equals_normalize_of_each(self, texts):
        assert normalize_lines(texts) == [normalize(t) for t in texts]

    @settings(max_examples=300, deadline=None)
    @given(texts=_BATCHES)
    # A joiner that let neighbours compose would fold these into "é".
    @example(texts=["e", "\u0301"])
    @example(texts=["\u1100", "\u1161", "\u1100\n\u1161\u11a8"])
    @example(texts=["a\nb", "\n", "\r\n", "\u0130\n\u0307", ""])
    def test_batch_equals_reference(self, texts):
        # How documents are normalized: "\n" read as a space, one batch.
        assert normalize_lines([t.replace("\n", " ") for t in texts]) == \
            [ref_normalize(t) for t in texts]

    def test_empty_list(self):
        assert normalize_lines([]) == []

    def test_text_holding_a_newline_is_refused(self):
        with pytest.raises(ValueError):
            normalize_lines(["a\nb"])

    def test_every_space_but_the_space_is_unprintable(self):
        # The rule normalize_lines reads to skip the whitespace collapse.
        assert all(ch == " " or not ch.isprintable()
                   for ch in map(chr, range(sys.maxunicode + 1))
                   if ch.isspace())


class TestCharClass:
    def test_latin_letter_is_word(self):
        assert class_of("a") == WORD

    def test_digit_and_underscore_are_word(self):
        assert class_of("7") == WORD
        assert class_of("_") == WORD

    def test_space_and_punct_are_neither(self):
        assert class_of(" ") == 0
        assert class_of(".") == 0

    def test_han_is_word_and_cjk(self):
        assert class_of("数") == WORD | CJK

    def test_kana_is_cjk(self):
        assert class_of("の") & CJK

    def test_hangul_is_word_not_cjk(self):
        # Korean is space-delimited; Hangul segments like Latin words.
        assert class_of("한") == WORD

    def test_table_equals_scalar_on_every_codepoint(self, monkeypatch):
        # Exhaustive, through the demand-filled path of a fresh table.
        monkeypatch.setattr(textnorm, "_class_table", None)
        every = classes(np.arange(0x110000, dtype=np.uint32))
        assert every.shape == (0x110000,) and every.dtype == np.uint8
        scalar = np.fromiter(
            (WORD * is_word(ch) | CJK * is_cjk(ch)
             for ch in map(chr, range(0x110000))),
            dtype=np.uint8, count=0x110000)
        wrong = np.flatnonzero(every != scalar)
        assert not wrong.size, [hex(cp) for cp in wrong[:10]]
        # Every class was written back, and the gather reads it.
        assert np.array_equal(class_table() ^ textnorm._UNSEEN, scalar)
        assert np.array_equal(classes(np.arange(0x110000)), scalar)

    def test_only_the_codepoints_met_are_classified(self, monkeypatch):
        monkeypatch.setattr(textnorm, "_class_table", None)
        assert classes(encode_codepoints("abc")).tolist() == [WORD] * 3
        table = class_table()
        assert table.shape == (0x110000,) and table.dtype == np.uint8
        # Every other entry reads the sentinel, and its page stays zero.
        met = np.flatnonzero(table ^ textnorm._UNSEEN != textnorm._UNSEEN)
        assert met.tolist() == [ord("a"), ord("b"), ord("c")]
        assert np.flatnonzero(table).tolist() == met.tolist()

    def test_empty_array_classifies_nothing(self, monkeypatch):
        monkeypatch.setattr(textnorm, "_class_table", None)
        assert classes(np.zeros((0, 3), dtype=np.uint32)).shape == (0, 3)
        assert not class_table().any()

    # A few codepoints drawn often, so calls meet ones classified before:
    # letters, digits, space, a mark, CJK and an unassigned CJK slot.
    @settings(max_examples=200, deadline=None)
    @given(calls=st.lists(hnp.arrays(
        dtype=st.sampled_from([np.uint32, np.int64]),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                               max_side=6),
        elements=st.one_of(
            st.sampled_from([0x20, 0x41, 0x61, 0x37, 0x5F, 0x2E, 0x301,
                             0x6570, 0x306E, 0xD55C, 0x9FFF, 0x2EBEF]),
            st.integers(0, sys.maxunicode))), max_size=6))
    def test_equals_oracle_in_any_call_order(self, calls):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(textnorm, "_class_table", None)
            for cps in calls:
                got = classes(cps)
                assert got.shape == cps.shape and got.dtype == np.uint8
                assert np.array_equal(got, scalar_classes(cps)), cps


class TestTokenCount:
    def test_latin_words(self):
        assert token_count("graph neural network") == 3

    def test_cjk_chars_count_individually(self):
        assert token_count("数据") == 2

    def test_mixed(self):
        # "data数据 set" -> "data", two Han chars, "set".
        assert token_count("data数据 set") == 4

    def test_punctuation_separates(self):
        assert token_count("a.b,c") == 3
        assert token_count("...") == 0

    def test_empty(self):
        assert token_count("") == 0

    def test_matches_reference_segmenter(self):
        rng = np.random.default_rng(19)
        from helpers import random_text
        for _ in range(500):
            t = normalize(random_text(rng, 200))
            assert token_count(t) == ref_token_count(t)

    def test_encode_roundtrip(self):
        s = "ab数\U00020000c"
        cps = encode_codepoints(s)
        assert cps.dtype == np.uint32
        assert [chr(c) for c in cps] == list(s)


def test_unicodedata_normalize_is_called_in_one_place():
    # One implementation of the normalization rule: every reference to
    # unicodedata.normalize in the package sits in normalize_lines.
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, module, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "normalize"
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "unicodedata") or (
                    isinstance(child, ast.ImportFrom)
                    and child.module == "unicodedata"
                    and "normalize" in [a.name for a in child.names]):
                found.append((module, scope))
            visit(child, module, scope)

    src = Path(__file__).resolve().parent.parent / "src" / "hks"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert found and set(found) == {("textnorm", "normalize_lines")}, found
