"""Multi-pattern matching over the pool and per-document annotation.

Per document, counts every occurrence of every pool surface: total
occurrences (n_k), distinct surfaces (n_distinct), and the same pair per
domain. Overlapping and nested matches all count.

Boundary rule: surfaces made purely of word characters (no CJK) only
match when not flanked by word characters, so "art" never fires inside
"start". Surfaces containing CJK characters, or with non-word edges,
match as raw substrings: CJK text carries no word delimiters.

Each surface takes one of two matching paths, fixed by its own text,
and both are dictionary lookups of text slices (the FlashText idea,
Singh 2017, arXiv:1711.00046):

- Span path: a surface the boundary rule applies to can only match from
  the start of a maximal run of non-CJK word characters to the end of a
  run. These surfaces sit in one {surface: pattern id} dict, and a
  document is matched by looking up each slice spanning k consecutive
  runs, for every run count k that some such surface has.
- Substring path: every other surface (CJK-bearing, non-word edges, or
  any surface once the boundary rule is off) sits in a second
  {surface: pattern id} dict. At each text position the slice as long
  as the shortest such surface is looked up in a prefix index, which
  lists the lengths of the surfaces starting with it; the slice of each
  listed length that fits inside the text is then looked up in the dict.

Both paths feed one list of (pattern id, end index) occurrences, from
which the counts and `find_matches` are derived.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyPoolError, ResourceError
from .pool import DOMAINS, KnowledgePool
from .textnorm import (CJK, WORD, class_table, encode_codepoints, normalize,
                       token_count_from_classes)

log = logging.getLogger(__name__)


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


class Automaton:
    """Immutable multi-pattern matcher built from a pool.

    Pattern ids are pool indices, shared by both matching paths (see
    the module docstring): `span_pids` maps each span-path surface to
    its id and `span_runs` lists the run counts those surfaces have; `sub_pids` maps every other surface to its id,
    and `sub_prefix` maps the first `sub_prefix_len` characters of those
    surfaces to the ascending lengths of the surfaces under that prefix.
    `sub_prefix_len` is the length of the shortest substring-path
    surface. The two paths hold disjoint ids, so their counts add.

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
        n_pat = pool.total
        surfaces = pool.surfaces
        if any(not s for s in surfaces):
            raise DataError("empty surface in pool; automaton patterns need length >= 1")

        lens = np.fromiter((len(s) for s in surfaces), dtype=np.int64, count=n_pat)
        pat_offsets = np.zeros(n_pat + 1, dtype=np.int64)
        np.cumsum(lens, out=pat_offsets[1:])

        # Per-pattern metadata, indexed by pattern id.
        self.pat_len = lens.astype(np.int32)
        self.pat_domain = pool.domain_ids
        self.pat_surfaces = surfaces
        pat_boundary, runs = _split_paths(
            np.frombuffer("".join(surfaces).encode("utf-32-le"), dtype=np.uint32),
            pat_offsets, self.config.boundary)
        span_ids = np.flatnonzero(pat_boundary)
        self.span_pids = {surfaces[p]: p for p in span_ids.tolist()}
        self.span_runs = sorted(set(runs[span_ids].tolist()))

        rest = np.flatnonzero(~pat_boundary).tolist()
        self.sub_pids = {surfaces[p]: p for p in rest}
        m = int(lens[rest].min()) if rest else 0
        by_prefix: dict[str, set[int]] = {}
        for s in self.sub_pids:
            by_prefix.setdefault(s[:m], set()).add(len(s))
        self.sub_prefix = {k: tuple(sorted(v)) for k, v in by_prefix.items()}
        self.sub_prefix_len = m
        log.debug("matcher built: %d span patterns, %d substring patterns, "
                  "%d prefixes of length %d", span_ids.size, len(rest),
                  len(self.sub_prefix), m)

    def _hits(self, text: str, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every boundary-surviving occurrence as (pattern ids, end indices)."""
        pids: list[int] = []
        ends: list[int] = []
        if self.span_runs:
            # Edges of the maximal word runs alternate start, end.
            word = np.zeros(cls.size + 2, dtype=np.int8)
            word[1:-1] = cls == WORD
            edges = np.flatnonzero(np.diff(word)).tolist()
            starts, stops = edges[0::2], edges[1::2]
            get = self.span_pids.get
            for k in self.span_runs:
                for s, e in zip(starts, stops[k - 1:]):
                    pid = get(text[s:e])
                    if pid is not None:
                        pids.append(pid)
                        ends.append(e - 1)
        if self.sub_pids:
            m = self.sub_prefix_len
            n = len(text)
            lookup = self.sub_prefix.get
            get = self.sub_pids.get
            for i in range(n - m + 1):
                lengths = lookup(text[i:i + m])
                if lengths is None:
                    continue
                for length in lengths:
                    e = i + length
                    # Past the end a slice is shorter than `length` and
                    # may equal another surface, counted at its own length.
                    if e > n:
                        break
                    pid = get(text[i:e])
                    if pid is not None:
                        pids.append(pid)
                        ends.append(e - 1)
        return np.asarray(pids, dtype=np.int64), np.asarray(ends, dtype=np.int64)

    def find_matches(self, text: str) -> list[tuple[int, str]]:
        """(start offset, surface) pairs in the normalized text, sorted."""
        text = normalize(text)
        pids, ends = self._hits(text, class_table()[encode_codepoints(text)])
        starts = ends - self.pat_len[pids] + 1
        found = [(int(s), self.pat_surfaces[p]) for s, p in zip(starts, pids)]
        found.sort()
        return found


def _split_paths(pat_buf: np.ndarray, pat_offsets: np.ndarray,
                 boundary: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per pattern: whether it takes the span path, and its word-run count.

    pat_buf holds the patterns concatenated as codepoints; pattern i is
    pat_buf[pat_offsets[i]:pat_offsets[i+1]].
    """
    cls_buf = class_table()[pat_buf]
    starts = pat_offsets[:-1]
    if boundary:
        seg_or = np.bitwise_or.reduceat(cls_buf, starts)
        pat_boundary = ((cls_buf[starts] == WORD) & (cls_buf[pat_offsets[1:] - 1] == WORD)
                        & ((seg_or & CJK) == 0))
    else:
        pat_boundary = np.zeros(starts.size, dtype=bool)
    # A run starts at a word character not preceded by one inside the
    # same pattern.
    word = cls_buf == WORD
    prev = np.roll(word, 1)
    prev[starts] = False
    run_starts = np.flatnonzero(word & ~prev)
    return pat_boundary, np.diff(np.searchsorted(run_starts, pat_offsets))


def build_automaton(pool: KnowledgePool, config: MatcherConfig | None = None) -> Automaton:
    return Automaton(pool, config)


def _tally(pids: np.ndarray, pat_domain: np.ndarray) -> np.ndarray:
    """Counts of the occurrences `pids`.

    In order: n_k, n_distinct, occurrences per domain, then distinct
    surfaces per domain, domains in DOMAINS order.
    """
    counts = np.zeros(12, dtype=np.int64)
    if pids.size:
        uniq = np.unique(pids)
        counts[0] = pids.size
        counts[1] = uniq.size
        counts[2:7] = np.bincount(pat_domain[pids], minlength=5)
        counts[7:12] = np.bincount(pat_domain[uniq], minlength=5)
    return counts


def annotate(doc: Document, automaton: Automaton) -> KnowledgeProfile:
    """Profile one document: token length plus occurrence counts.

    The document text is normalized here with the same rule applied to
    pool surfaces, which is what makes matching well-defined. Empty or
    matchless text yields the zero profile.
    """
    text = normalize(doc.text)
    cps = encode_codepoints(text)
    cls = class_table()[cps]
    n_p = token_count_from_classes(cls)

    pids, _ = automaton._hits(text, cls)
    counts = _tally(pids, automaton.pat_domain)

    per_domain = {name: (int(counts[2 + i]), int(counts[7 + i]))
                  for i, name in enumerate(DOMAINS)}
    return KnowledgeProfile(
        doc_id=doc.id,
        n_p=int(n_p),
        n_k=int(counts[0]),
        n_distinct=int(counts[1]),
        per_domain=per_domain,
    )
