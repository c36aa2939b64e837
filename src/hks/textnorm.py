"""Text normalization, character classes, and token counting.

Matching is only well-defined if pool surfaces and document text go
through the *same* normalization, so both sides funnel through
:func:`normalize`. Token counting follows a deterministic word-segmentation
rule: a token is either a maximal run of word characters (letters, digits,
combining marks, connector punctuation) or a single CJK character
(Han ideographs and kana carry no word delimiters, so each counts as
one token).
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

# Codepoints classified per step of the class-table build; divides
# sys.maxunicode + 1.
_CHUNK = 1 << 16
_class_table: np.ndarray | None = None


def normalize(text: str) -> str:
    """NFC + full case folding + whitespace collapse.

    Case folding can denormalize (e.g. U+0130 folds to "i" + combining
    dot), so NFC is applied again after folding. Whitespace runs collapse
    to single spaces and leading/trailing whitespace is stripped.
    """
    folded = unicodedata.normalize("NFC", text).casefold()
    return " ".join(unicodedata.normalize("NFC", folded).split())


def normalize_lines(texts: list[str]) -> list[str]:
    """`[normalize(text) for text in texts]`, for texts holding no "\\n".

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


def char_class(ch: str) -> int:
    """Class bitmask for a single character (scalar path)."""
    cls = 0
    if unicodedata.category(ch) in _WORD_CATEGORIES:
        cls |= WORD
    cp = ord(ch)
    for lo, hi in _CJK_RANGES:
        if lo <= cp <= hi:
            cls |= CJK
            break
    return cls


def class_table() -> np.ndarray:
    """uint8 class table indexed by codepoint, built lazily once.

    Categories are read _CHUNK codepoints at a time as one string of
    two-letter names, viewed as uint16 codes and mapped through a
    lookup over every code, which bounds the build's working memory.
    Shared by every document annotated in the process.
    """
    global _class_table
    if _class_table is None:
        word = np.zeros(1 << 16, dtype=np.uint8)
        word[_category_codes("".join(_WORD_CATEGORIES))] = WORD
        table = np.zeros(sys.maxunicode + 1, dtype=np.uint8)
        for lo in range(0, sys.maxunicode + 1, _CHUNK):
            names = "".join(map(unicodedata.category,
                                map(chr, range(lo, lo + _CHUNK))))
            classes = word[_category_codes(names)]
            # Chunks with no word character (most planes above 3) are
            # left unwritten, so their zero pages are never touched.
            if classes.any():
                table[lo:lo + _CHUNK] = classes
        for lo, hi in _CJK_RANGES:
            table[lo:hi + 1] |= CJK
        _class_table = table
    return _class_table


def _category_codes(names: str) -> np.ndarray:
    """One uint16 code per two-letter category name in `names`."""
    return np.frombuffer(names.encode("ascii"), dtype=np.uint16)


def encode_codepoints(text: str) -> np.ndarray:
    """Text as a uint32 codepoint array, the index into `class_table()`."""
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


def tokenize_count(text: str) -> int:
    """Token count of `text` under the documented segmentation rule.

    Counts maximal non-CJK word-character runs as one token each and
    every CJK character as its own token. Everything else (spaces,
    punctuation, symbols) separates tokens and is not counted.
    """
    if not text:
        return 0
    cps = encode_codepoints(text)
    return token_count_from_classes(class_table()[cps])
