"""Multi-pattern matching over the pool and per-document annotation.

Per document, counts every occurrence of every pool surface: total
occurrences (n_k), distinct surfaces (n_distinct), and the same pair per
domain. Overlapping and nested matches all count.

Boundary rule: surfaces made purely of word characters (no CJK) only
match when not flanked by word characters, so "art" never fires inside
"start". Surfaces containing CJK characters, or with non-word edges,
match as raw substrings: CJK text carries no word delimiters.

Every surface takes one matching path, a hash join over codepoints
(Karp & Rabin, IBM J. Res. Dev. 1987): surfaces are keyed by length and
a polynomial hash of their codepoints mod 2^64. Each text window of each
surface length is hashed from prefix sums; a flag table on the top hash
bits drops most windows, and the rest are looked up among that length's
sorted hashes. Every surface with an equal hash is checked against the
window's codepoints, so a shared hash never miscounts, and the boundary
rule reads the word flags beside the window. `count_all` matches a
batch of documents as one codepoint array, with SEPARATOR between
neighbours so that no window spans two documents, and returns the
batch's counts as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, EmptyPoolError, ResourceError
from .pool import DOMAINS, KnowledgePool
# perfbench/spans.py wraps `token_count_from_classes` here by name, so the
# import stays (tests/test_imports.py); the batch counts use `token_counts`.
from .textnorm import (CJK, WORD, class_table, encode_codepoints, normalize,
                       token_count_from_classes, token_counts)

# Odd, so invertible mod 2^64; no output depends on its value.
_BASE = 0x9E3779B97F4A7C15
_INVERSE = pow(_BASE, -1, 1 << 64)
# Beyond Unicode, so no surface holds it; its class is 0.
SEPARATOR = 0x110000


@dataclass
class Document:
    """One corpus text sample."""

    id: str
    text: str
    meta: dict | None = None


@dataclass
class KnowledgeProfile:
    """Per-document match counts consumed by the metrics layer.

    per_domain maps every domain name to (occurrences, distinct surfaces).
    """

    doc_id: str
    n_p: int
    n_k: int
    n_distinct: int
    per_domain: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass(frozen=True)
class MatcherConfig:
    """Matching options; `boundary` turns the word-boundary rule on."""

    boundary: bool = True


def _powers(base: int, n: int) -> np.ndarray:
    """base^1 .. base^n mod 2^64."""
    return np.cumprod(np.full(n, base, dtype=np.uint64))


class Automaton:
    """Immutable multi-pattern matcher built from a pool.

    Pattern ids are pool indices; `bounded[p]` says whether the boundary
    rule applies to pattern p. `_tables` holds, per surface length and
    shortest first, (length, sorted hashes, their pattern ids, their
    codepoint rows); `_filter` flags each top-bits value some hash has.

    Construction is deterministic for a given pool. Matching reads the
    instance and never writes it, so one instance may be shared across
    threads and forked processes.
    """

    def __init__(self, pool: KnowledgePool, config: MatcherConfig | None = None):
        if pool.total == 0:
            raise EmptyPoolError("cannot build an automaton from an empty pool")
        self.config = config or MatcherConfig()
        try:
            self._build(pool)
        except MemoryError as exc:
            raise ResourceError(
                f"out of memory building automaton over {pool.total} patterns"
            ) from exc

    def _build(self, pool: KnowledgePool) -> None:
        surfaces = pool.surfaces
        lens = np.fromiter(map(len, surfaces), dtype=np.int64,
                           count=pool.total)
        if lens.min() < 1:
            raise DataError("empty surface in pool; automaton patterns need length >= 1")
        self.pat_domain = pool.domain_ids
        self.pat_surfaces = surfaces
        self.bounded = np.zeros(pool.total, dtype=bool)
        # 16 to 32 flags per surface, so few windows pass by chance.
        bits = max(10, pool.total.bit_length() + 4)
        self._shift = 64 - bits
        self._filter = np.zeros(1 << bits, dtype=bool)
        self._tables = []
        powers = _powers(_BASE, int(lens.max()))
        order = np.argsort(lens, kind="stable")
        for ids in np.split(order, np.flatnonzero(np.diff(lens[order])) + 1):
            cps = encode_codepoints("".join([surfaces[i] for i in ids]))
            # One row per surface, in the narrowest type that fits.
            rows = cps.astype(np.min_scalar_type(int(cps.max()))).reshape(ids.size, -1)
            del cps  # dropped early: temporaries set the build's peak memory
            length = rows.shape[1]
            keys = np.zeros(ids.size, dtype=np.uint64)
            # Column by column: no temporary holds 8 bytes per codepoint.
            for k in range(length):
                keys += rows[:, k] * powers[k]
            if self.config.boundary:
                cls = class_table()[rows]
                self.bounded[ids] = ((cls[:, 0] == WORD) & (cls[:, -1] == WORD)
                                     & ~(cls & CJK).any(axis=1))
                del cls  # likewise
            self._filter[keys >> self._shift] = True
            rank = np.argsort(keys, kind="stable")
            self._tables.append((length, keys[rank], ids[rank], rows[rank]))

    def _hits(self, cps: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every boundary-surviving occurrence in the codepoints `cps`
        with classes `cls`, as (pattern ids, start indices)."""
        n = cps.size
        # prefix[i] sums cps[j] * B^(j + 2) over j < i, so the window
        # [i, i + L) hashes to (prefix[i + L] - prefix[i]) * B^-(i + 1),
        # the sum of its k-th codepoint times B^(k + 1), as its surface does.
        prefix = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(cps * _powers(_BASE, n + 1)[1:], out=prefix[1:])
        unshift = _powers(_INVERSE, n + 1)
        word = np.zeros(n + 2, dtype=bool)
        word[1:-1] = cls == WORD
        found = [(np.zeros(0, dtype=np.int64),) * 2]
        for length, keys, ids, rows in self._tables:
            if length > n:
                break
            h = (prefix[length:] - prefix[:-length]) * unshift[:-length]
            at = np.flatnonzero(self._filter[h >> self._shift])
            lo = np.searchsorted(keys, h[at], side="left")
            n_eq = np.searchsorted(keys, h[at], side="right") - lo
            # Every surface with an equal hash is a candidate.
            at = np.repeat(at, n_eq)
            cand = (np.repeat(lo + n_eq - np.cumsum(n_eq), n_eq)
                    + np.arange(at.size))
            same = (cps[at[:, None] + np.arange(length)] == rows[cand]).all(axis=1)
            at, pids = at[same], ids[cand[same]]
            # word[i + 1] flags text position i.
            free = ~(self.bounded[pids] & (word[at] | word[at + length + 1]))
            found.append((pids[free], at[free]))
        pids, starts = zip(*found)
        return np.concatenate(pids), np.concatenate(starts)

    def find_matches(self, text: str) -> list[tuple[int, str]]:
        """(start offset, surface) pairs in the normalized text, sorted."""
        cps = encode_codepoints(normalize(text))
        pids, starts = self._hits(cps, class_table()[cps])
        return sorted(zip(starts.tolist(),
                          [self.pat_surfaces[p] for p in pids.tolist()]))


def build_automaton(pool: KnowledgePool, config: MatcherConfig | None = None) -> Automaton:
    return Automaton(pool, config)


class MatchCounts(NamedTuple):
    """The counts of a batch of documents, row i holding document i:
    tokens `n_p`, occurrences `n_k` and distinct surfaces `n_distinct`,
    and per domain, one column per name of DOMAINS in order, occurrences
    and distinct surfaces."""

    n_p: np.ndarray
    n_k: np.ndarray
    n_distinct: np.ndarray
    occurrences: np.ndarray
    distinct: np.ndarray

    @classmethod
    def of(cls, profiles: Sequence[KnowledgeProfile]) -> MatchCounts:
        """The counts the profiles hold; a domain a profile lacks counts
        (0, 0)."""
        pairs = np.array([[p.per_domain.get(m, (0, 0)) for m in DOMAINS]
                          for p in profiles]).reshape(-1, len(DOMAINS), 2)
        return cls(np.array([p.n_p for p in profiles]),
                   np.array([p.n_k for p in profiles]),
                   np.array([p.n_distinct for p in profiles]),
                   pairs[..., 0], pairs[..., 1])

    def take(self, rows: np.ndarray) -> MatchCounts:
        """The rows at positions `rows`, in that order."""
        return MatchCounts._make(column[rows] for column in self)

    def profiles(self, ids: Sequence[str]) -> list[KnowledgeProfile]:
        """One profile per row, row i of the document with id `ids[i]`."""
        return [KnowledgeProfile(doc_id, n_p, n_k, n_distinct,
                                 dict(zip(DOMAINS, zip(o, u))))
                for doc_id, n_p, n_k, n_distinct, o, u in zip(
                    ids, *(column.tolist() for column in self))]


def count_all(texts: Sequence[str], automaton: Automaton) -> MatchCounts:
    """The counts of a batch of document texts, in order.

    The normalized texts are matched as one codepoint array, SEPARATOR
    between neighbours; tokens and matches are counted over the whole
    array at once and then per document.
    """
    texts = [normalize(text) for text in texts]
    sizes = np.array([len(t) + 1 for t in texts], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    cps = encode_codepoints("\0".join(texts)).copy()
    cls = class_table()[cps]
    # Each text's segment holds its separator too, so none is empty.
    n_p = token_counts(cls, starts)
    cps[starts[1:] - 1] = SEPARATOR
    pids, at = automaton._hits(cps, cls)

    def per_domain(doc: np.ndarray, pids: np.ndarray) -> np.ndarray:
        """Per document and domain, how many of the pairs it holds."""
        keys = doc * len(DOMAINS) + automaton.pat_domain[pids]
        return np.bincount(keys, minlength=len(texts) * len(DOMAINS)).reshape(
            len(texts), len(DOMAINS))

    doc = np.searchsorted(starts, at, side="right") - 1
    # Distinct surfaces: one per distinct (document, pattern id) pair.
    n_pat = automaton.pat_domain.size
    pairs = np.unique(doc * n_pat + pids)
    occurrences = per_domain(doc, pids)
    distinct = per_domain(pairs // n_pat, pairs % n_pat)
    return MatchCounts(n_p, occurrences.sum(axis=1), distinct.sum(axis=1),
                       occurrences, distinct)


def annotate_all(docs: Sequence[Document],
                 automaton: Automaton) -> list[KnowledgeProfile]:
    """Profiles of a batch of documents, in order; each equals what
    `annotate` gives for that document alone. The profiles of
    `count_all`."""
    return count_all([doc.text for doc in docs], automaton).profiles(
        [doc.id for doc in docs])


def annotate(doc: Document, automaton: Automaton) -> KnowledgeProfile:
    """Profile one document: token length plus occurrence counts.

    The document text is normalized here with the same rule applied to
    pool surfaces, which is what makes matching well-defined. Empty or
    matchless text yields the zero profile. A batch of one for
    `annotate_all`, which serves many documents at far less cost each.
    """
    return annotate_all([doc], automaton)[0]
