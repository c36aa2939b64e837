"""Multi-pattern matching over the pool and per-document annotation.

Per document, counts every occurrence of every pool surface: total
occurrences (n_k), distinct surfaces (n_distinct), and the same pair per
domain. Overlapping and nested matches all count.

Boundary rule: surfaces made purely of word characters (no CJK) only
match when not flanked by word characters, so "art" never fires inside
"start". Surfaces containing CJK characters, or with non-word edges,
match as raw substrings: CJK text carries no word delimiters.

Every surface takes one matching path, a hash join over codepoints
(Karp & Rabin, IBM J. Res. Dev. 1987) keyed by anchors (Wu & Manber,
"A fast algorithm for multi-pattern searching", 1994). Surfaces fall
into length bands 1, 2-3, 4-7, 8-15 and so on; each is keyed by a
polynomial hash mod 2^64 of its codepoints, the key its pool holds, and
by the same hash of its first A, its head, where A is the shortest
length in its band. A band of several lengths in which more than
_MAX_RUN surfaces share a head splits at its median length, so each
half takes its own anchor. Per band, each text window of length A is
hashed once from prefix sums; a flag table on the top hash bits drops
most windows, and the rest are looked up once among the band's sorted
heads. Each surface with an equal head
is a candidate, kept when it ends inside the text, its full-length
window hashes to its key, and the window's codepoints equal its own, so
a shared hash never miscounts; the boundary rule reads the word flags
beside the window. `count_all` matches a batch of documents as one
codepoint array, with SEPARATOR between neighbours so that no window
spans two documents, and returns the batch's counts as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, EmptyPoolError, ResourceError
from .pool import (DOMAINS, HASH_BASE, INVERSE, KnowledgePool, powers,
                   surface_starts)
# perfbench/spans.py wraps `class_table` and `token_count_from_classes`
# here by name, so the imports stay (tests/test_imports.py).
from .textnorm import (CJK, WORD, class_table, classes, encode_codepoints,
                       normalize, normalize_lines, token_count_from_classes,
                       token_counts)

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


# A text window expands into every surface of its head's run, so the
# build splits a band of several lengths until no run is longer.
_MAX_RUN = 32


class _Band(NamedTuple):
    """Surfaces of lengths `anchor` to `width`, sorted by anchor hash.

    `rows` holds their codepoints, one row of `width` per surface in
    length order, zero past the surface's length; sorted entry i is row
    `order[i]`. `heads` holds the hash of each surface's first `anchor`
    codepoints, and at the first index of each run of equal heads, `runs`
    holds the run's length. `keys` are the full hashes, `ids` the pattern
    ids and `lens` the lengths.
    """

    anchor: int
    width: int
    heads: np.ndarray
    runs: np.ndarray
    keys: np.ndarray
    ids: np.ndarray
    lens: np.ndarray
    order: np.ndarray
    rows: np.ndarray


class Automaton:
    """Immutable multi-pattern matcher built from a pool.

    Pattern ids are pool indices; `bounded[p]` says whether the boundary
    rule applies to pattern p. `_bands` holds the `_Band`s, anchors
    ascending; `_filter` flags each top-bits value some anchor hash has.

    Construction is deterministic for a given pool. Matching reads the
    instance and never writes it, so one instance may be shared across
    threads and forked processes.
    """

    def __init__(self, pool: KnowledgePool, config: MatcherConfig | None = None):
        if pool.total == 0:
            raise EmptyPoolError("cannot build an automaton from an empty pool")
        try:
            self._build(pool, (config or MatcherConfig()).boundary)
        except MemoryError as exc:
            raise ResourceError(
                f"out of memory building automaton over {pool.total} patterns"
            ) from exc

    def _build(self, pool: KnowledgePool, boundary: bool) -> None:
        lens = pool.lens
        if lens.min() < 1:
            raise DataError("empty surface in pool; automaton patterns need length >= 1")
        self.pat_domain = pool.domain_ids
        self._pool = pool
        self.bounded = np.zeros(pool.total, dtype=bool)
        # 16 to 32 flags per surface, so few windows pass by chance.
        bits = max(10, pool.total.bit_length() + 4)
        self._shift = 64 - bits
        self._filter = np.zeros(1 << bits, dtype=bool)
        self._bands = []
        starts = surface_starts(lens)
        order = np.argsort(lens, kind="stable")
        power = powers(HASH_BASE, int(lens[order[-1]]))
        # Bands 1, 2-3, 4-7, 8-15, ..., popped shortest first.
        work = [ids for ids in np.split(order, np.searchsorted(
            lens[order], 1 << np.arange(1, 32)))[::-1] if ids.size]
        while work:
            ids = work.pop()
            band_lens = lens[ids]
            anchor, width = int(band_lens[0]), int(band_lens[-1])
            # One row per surface, zero-padded to the band's width, filled
            # a length at a time from the pool's codepoints.
            rows = np.zeros((ids.size, width), pool.cps.dtype)
            edges = (np.flatnonzero(band_lens[1:] != band_lens[:-1]) + 1).tolist()
            for lo, hi in zip([0, *edges], [*edges, ids.size]):
                n = int(band_lens[lo])
                rows[lo:hi, :n] = np.lib.stride_tricks.sliding_window_view(
                    pool.cps, n)[starts[ids[lo:hi]]]
            if boundary:
                # Padding has class 0; a surface ends in column length - 1.
                cls = classes(rows)
                self.bounded[ids] = ((cls[:, 0] == WORD)
                                     & (cls[np.arange(ids.size), band_lens - 1] == WORD)
                                     & ~(cls & CJK).any(axis=1))
                del cls
            # In a band of one length, the heads are the keys; otherwise
            # column by column, so no temporary holds 8 bytes per codepoint.
            keys = heads = pool.keys[ids]
            if anchor < width:
                heads = np.zeros(ids.size, dtype=np.uint64)
                for k in range(anchor):
                    heads += rows[:, k] * power[k]
            # Not stable, so several times faster: a window checks every
            # surface of its head's run, in whatever order.
            rank = np.argsort(heads)
            heads, keys = ((heads[rank],) * 2 if keys is heads
                           else (heads[rank], keys[rank]))
            firsts = np.flatnonzero(np.diff(heads, prepend=~heads[:1]))
            runs = np.zeros(rank.size, dtype=np.int32)
            runs[firsts[:-1]] = np.diff(firsts)
            runs[firsts[-1]] = rank.size - firsts[-1]
            del firsts
            if anchor < width and runs.max() > _MAX_RUN:
                # At the median length, or past the anchor's if that is the
                # median: the upper half takes a longer anchor, so its
                # heads spread.
                cut = np.searchsorted(band_lens, max(band_lens[ids.size // 2], anchor + 1))
                work += [ids[cut:], ids[:cut]]
                continue
            self._filter[heads >> self._shift] = True
            ids = ids[rank]
            self._bands.append(_Band(
                anchor, width, heads, runs, keys,
                ids.astype(np.min_scalar_type(pool.total)),
                lens[ids].astype(np.min_scalar_type(width)),
                rank.astype(np.min_scalar_type(ids.size)), rows))

    @property
    def pat_surfaces(self) -> list[str]:
        """Each pattern's surface, decoded from the pool on first read."""
        return self._pool.surfaces

    def _hits(self, cps: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every boundary-surviving occurrence in the codepoints `cps`
        with classes `cls`, as (pattern ids, start indices)."""
        n = cps.size
        # prefix[i] sums cps[j] * B^(j + 2) over j < i, so the window
        # [i, i + L) hashes to (prefix[i + L] - prefix[i]) * B^-(i + 1),
        # the sum of its k-th codepoint times B^(k + 1), as its surface does.
        prefix = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(cps * powers(HASH_BASE, n + 1)[1:], out=prefix[1:])
        unshift = powers(INVERSE, n + 1)

        def hashed(at: np.ndarray, end: np.ndarray) -> np.ndarray:
            """The hashes of the windows [at, end)."""
            return (prefix[end] - prefix[at]) * unshift[at]

        word = np.zeros(n + 2, dtype=bool)
        word[1:-1] = cls == WORD
        found = [(np.zeros(0, dtype=np.int64),) * 2]
        for anchor, width, heads, runs, keys, ids, lens, order, rows in self._bands:
            if anchor > n:
                break
            # In place: a batch-long temporary sets the scan's peak memory.
            top = prefix[anchor:] - prefix[:-anchor]
            top *= unshift[:-anchor]
            top >>= self._shift
            at = np.flatnonzero(self._filter[top])
            del top
            h = hashed(at, at + anchor)
            lo = np.searchsorted(heads, h)
            n_eq = runs.take(lo, mode="clip") * (heads.take(lo, mode="clip") == h)
            # Every surface with an equal head is a candidate.
            at = np.repeat(at, n_eq)
            cand = (np.repeat(lo + n_eq - np.cumsum(n_eq), n_eq)
                    + np.arange(at.size))
            end = at + lens[cand]
            fits = end <= n
            at, cand, end = at[fits], cand[fits], end[fits]
            same = hashed(at, end) == keys[cand]
            at, cand, end = at[same], cand[same], end[same]
            # The first L codepoints of a width-long window, L its surface's.
            cols = np.arange(width)
            same = ((cps.take(at[:, None] + cols, mode="clip") == rows[order[cand]])
                    | (cols >= (end - at)[:, None])).all(axis=1)
            at, end, pids = at[same], end[same], ids[cand[same]]
            # word[i + 1] flags text position i.
            free = ~(self.bounded[pids] & (word[at] | word[end + 1]))
            found.append((pids[free], at[free]))
        pids, starts = zip(*found)
        return np.concatenate(pids), np.concatenate(starts)

    def find_matches(self, text: str) -> list[tuple[int, str]]:
        """(start offset, surface) pairs in the normalized text, sorted."""
        cps = encode_codepoints(normalize(text))
        pids, starts = self._hits(cps, classes(cps))
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


def count_all(texts: Sequence[str], automaton: Automaton) -> MatchCounts:
    """The counts of a batch of document texts, in order.

    The texts, each "\n" read as a space, are normalized as one batch
    and matched as one codepoint array, SEPARATOR between neighbours;
    tokens and matches are counted over the whole array at once and then
    per document.
    """
    texts = normalize_lines([text.replace("\n", " ") for text in texts])
    sizes = np.array([len(t) + 1 for t in texts], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    cps = encode_codepoints("\0".join(texts)).copy()
    cls = classes(cps)
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
    pairs = np.sort(doc * n_pat + pids)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # np.unique imports numpy.ma
    occurrences = per_domain(doc, pids)
    distinct = per_domain(pairs // n_pat, pairs % n_pat)
    return MatchCounts(n_p, occurrences.sum(axis=1), distinct.sum(axis=1),
                       occurrences, distinct)


def annotate(doc: Document, automaton: Automaton) -> KnowledgeProfile:
    """Profile one document: token length plus occurrence counts.

    The document text is normalized here with the same rule applied to
    pool surfaces, which is what makes matching well-defined. Empty or
    matchless text yields the zero profile. The one row of `count_all`
    for the document, which serves a batch at far less cost each.
    """
    n_p, n_k, n_distinct, occurrences, distinct = (
        column[0].tolist() for column in count_all([doc.text], automaton))
    return KnowledgeProfile(doc.id, n_p, n_k, n_distinct,
                            dict(zip(DOMAINS, zip(occurrences, distinct))))
