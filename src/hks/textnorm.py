"""Text normalization, character classes, and token counting.

Matching is only well-defined if pool surfaces and document text go
through the *same* normalization, so both funnel through
:func:`normalize_lines`, a batch at a time. Token counting follows a
deterministic word-segmentation rule: a token is either a maximal run
of word characters (letters, digits, combining marks, connector
punctuation) or a single CJK character (Han ideographs and kana carry
no word delimiters, so each counts as one token). Classes are filled on
demand: :func:`classes` classifies only the codepoints a run meets, a
few dozen to a few thousand of the 1.1M.
"""

from __future__ import annotations

import sys
import unicodedata

import numpy as np

# Class bitmask values for the per-codepoint table.
WORD = 1
CJK = 2

# Han ideographs plus kana. Hangul is excluded on purpose: Korean text is
# space-delimited, so Hangul words segment like Latin ones.
_CJK_RANGES = (
    (0x3040, 0x309F),    # hiragana
    (0x30A0, 0x30FF),    # katakana
    (0x31F0, 0x31FF),    # katakana phonetic extensions
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified ideographs
    (0xF900, 0xFAFF),    # CJK compatibility ideographs
    (0xFF66, 0xFF9F),    # halfwidth katakana
    (0x20000, 0x2EBEF),  # CJK extensions B-F
    (0x30000, 0x323AF),  # CJK extensions G-H
)

_WORD_CATEGORIES = ("Lu", "Ll", "Lt", "Lm", "Lo", "Nd", "Nl", "No",
                    "Mn", "Mc", "Me", "Pc")

# What `classes` reads for a codepoint not met yet; classes are 0 to 3.
_UNSEEN = 0xFF
_class_table: np.ndarray | None = None


def normalize(text: str) -> str:
    """NFC + full case folding + whitespace collapse: `normalize_lines`
    of the text with each "\\n" read as the space it collapses to."""
    return normalize_lines([text.replace("\n", " ")])[0]


def normalize_lines(texts: list[str]) -> list[str]:
    """NFC + full case folding + whitespace collapse of each text, for
    texts holding no "\\n": the one implementation of the rule.

    Case folding can denormalize (e.g. U+0130 folds to "i" + combining
    dot), so NFC is applied again after folding. Whitespace runs collapse
    to single spaces and leading/trailing whitespace is stripped.

    NFC, casefold and NFC each run once over the texts joined by "\\n",
    which never composes, reorders or folds, so every text comes out as
    it would alone. Whitespace is collapsed text by text only when some
    text needs it: every whitespace character but " " is unprintable,
    so a printable column whose spaces are single and inner needs none.
    """
    if not texts:
        return []
    joined = unicodedata.normalize("NFC", "\n".join(texts)).casefold()
    folded = unicodedata.normalize("NFC", joined)
    lines = folded.split("\n")
    if len(lines) != len(texts):
        raise ValueError("normalize_lines: a text holds a newline")
    spaced = folded.replace("\n", " ")
    if not (spaced.isprintable() and "  " not in spaced
            and spaced[:1] != " " and spaced[-1:] != " "):
        lines = list(map(" ".join, map(str.split, lines)))
    return lines


def class_table() -> np.ndarray:
    """uint8 class table indexed by codepoint, one per process. An entry
    holds its class XOR _UNSEEN: zero, on a page never touched, until
    `classes`, its only reader, meets the codepoint."""
    global _class_table
    if _class_table is None:
        _class_table = np.zeros(sys.maxunicode + 1, dtype=np.uint8)
    return _class_table


def classes(cps: np.ndarray) -> np.ndarray:
    """The classes of the codepoints `cps`, any integer array, from
    `class_table()` once the ones it has not met are classified. Forked
    workers fill their own copy-on-write pages; threads write only the
    value a codepoint already has, so a race only repeats work."""
    table = class_table()
    # Decoded in place: a copy would add to the automaton build's peak.
    cls = table[cps]
    cls ^= _UNSEEN
    if cls.max(initial=0) == _UNSEEN:
        new = np.unique(cps[cls == _UNSEEN])
        found = WORD * np.array([unicodedata.category(chr(cp)) in _WORD_CATEGORIES
                                 for cp in new.tolist()], dtype=np.uint8)
        for lo, hi in _CJK_RANGES:
            found[(new >= lo) & (new <= hi)] |= CJK
        table[new] = found ^ _UNSEEN
        cls = table[cps]
        cls ^= _UNSEEN
    return cls


def encode_codepoints(text: str) -> np.ndarray:
    """Text as a uint32 codepoint array, the argument of `classes`."""
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def token_counts(cls: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Token count of each segment of a per-codepoint class array, as
    int64, in one pass over the whole array: segment i runs from
    `starts[i]` to `starts[i + 1]`, the last to the end. `starts` rise
    strictly, the last at most `cls.size`, so np.add.reduceat never meets
    two equal indices (for which it gives an element, not 0). A word run
    counts in the segment where it starts, so every segment but the first
    must start after a character that is not a word character."""
    n = cls.size
    cjk = (cls & CJK) != 0
    word = ((cls & WORD) != 0) & ~cjk
    # A run starts where a word char is not preceded by another word char.
    run = word.copy()
    run[1:] &= ~word[:-1]
    # One spare slot: an empty last segment starts at n and sums to 0.
    tokens = np.zeros(n + 1, dtype=bool)
    tokens[:n] = cjk | run
    return np.add.reduceat(tokens, starts, dtype=np.int64)


def token_count_from_classes(cls: np.ndarray) -> int:
    """Token count over a per-codepoint class array."""
    return int(token_counts(cls, np.zeros(1, dtype=np.intp))[0])

