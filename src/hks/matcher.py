"""Multi-pattern matching over the pool and per-document annotation.

Per document, counts every occurrence of every pool surface: total
occurrences (n_k), distinct surfaces (n_distinct), and the same pair per
domain. Overlapping and nested matches all count by default; a
leftmost-longest canonicalization is available as a config flag.

Boundary rule: surfaces made purely of word characters (no CJK) only
match when not flanked by word characters, so "art" never fires inside
"start". Surfaces containing CJK characters, or with non-word edges,
match as raw substrings: CJK text carries no word delimiters.

Each surface takes one of two matching paths, fixed by its own text:

- Span path: a surface the boundary rule applies to can only match from
  the start of a maximal run of non-CJK word characters to the end of a
  run. These surfaces sit in one {surface: pattern id} dict, and a
  document is matched by looking up each slice spanning k consecutive
  runs, for every run count k that some such surface has.
- Automaton path: every other surface (CJK-bearing, non-word edges, or
  any surface once the boundary rule is off) goes into an Aho-Corasick
  automaton and matches as a raw substring.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DataError, EmptyPoolError, ResourceError
from .pool import DOMAINS, KnowledgePool
from .textnorm import (CJK, WORD, class_table, encode_codepoints, normalize,
                       token_count_from_classes)

log = logging.getLogger(__name__)

_EPOCH_MAX = 2**31 - 1


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

    def to_dict(self) -> dict:
        return {
            "id": self.doc_id,
            "n_p": self.n_p,
            "n_k": self.n_k,
            "n_distinct": self.n_distinct,
            "domains": {d: [c[0], c[1]] for d, c in self.per_domain.items()},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KnowledgeProfile":
        return cls(
            doc_id=obj["id"],
            n_p=obj["n_p"],
            n_k=obj["n_k"],
            n_distinct=obj["n_distinct"],
            per_domain={d: (v[0], v[1]) for d, v in obj.get("domains", {}).items()},
        )


@dataclass(frozen=True)
class MatcherConfig:
    """Matching knobs; defaults reflect unmodified automaton output."""

    boundary: bool = True
    occurrence: str = "all"  # "all" | "leftmost_longest"

    def __post_init__(self):
        if self.occurrence not in ("all", "leftmost_longest"):
            raise DataError(f"unknown occurrence mode {self.occurrence!r}")


class Automaton:
    """Immutable multi-pattern matcher built from a pool.

    Pattern ids index the pool surfaces in sorted order and are shared
    by both matching paths (see the module docstring): `span_pids` maps
    each span-path surface to its id, `span_runs` lists the run counts
    those surfaces have, and the Aho-Corasick arrays cover the remaining
    surfaces only, with terminal ids that are global pattern ids. When
    every surface takes the span path no automaton is built and
    `n_nodes` is 0. The two paths hold disjoint ids, so their counts add.

    Construction is deterministic for a given pool. The automaton is
    safe to share read-only across processes (fork) but a single
    instance must not be scanned from two threads at once: distinctness
    tracking reuses a per-instance epoch-stamped array.
    """

    def __init__(self, pool: KnowledgePool, config: MatcherConfig | None = None):
        if pool.total == 0:
            raise EmptyPoolError("cannot build an automaton from an empty pool")
        self.pool = pool
        self.config = config or MatcherConfig()
        try:
            self._build(pool)
        except MemoryError as exc:
            raise ResourceError(
                f"out of memory building automaton over {pool.total} patterns"
            ) from exc
        self._epoch = 0

    def _build(self, pool: KnowledgePool) -> None:
        n_pat = pool.total
        order = sorted(range(n_pat), key=pool.surfaces.__getitem__)
        surfaces = [pool.surfaces[i] for i in order]
        if any(not s for s in surfaces):
            raise DataError("empty surface in pool; automaton patterns need length >= 1")

        lens = np.fromiter((len(s) for s in surfaces), dtype=np.int64, count=n_pat)
        pat_offsets = np.zeros(n_pat + 1, dtype=np.int64)
        np.cumsum(lens, out=pat_offsets[1:])

        # Per-pattern metadata, indexed by sorted pattern id.
        self.pat_len = lens.astype(np.int32)
        self.pat_domain = pool.domain_ids[order].astype(np.uint8)
        self.pat_surfaces = surfaces
        pat_boundary, runs = _split_paths(
            np.frombuffer("".join(surfaces).encode("utf-32-le"), dtype=np.uint32),
            pat_offsets, self.config.boundary)
        span_ids = np.flatnonzero(pat_boundary)
        self.span_pids = {surfaces[p]: p for p in span_ids.tolist()}
        self.span_runs = sorted(set(runs[span_ids].tolist()))

        rest = np.flatnonzero(~pat_boundary)
        self.n_nodes = 0
        if rest.size:
            self._build_automaton([surfaces[p] for p in rest], lens[rest], rest)
        log.debug("matcher built: %d span patterns, %d automaton patterns, "
                  "%d nodes", span_ids.size, rest.size, self.n_nodes)

    def _build_automaton(self, surfaces: list[str], lens: np.ndarray,
                         pids: np.ndarray) -> None:
        """Aho-Corasick arrays over sorted `surfaces` with global ids `pids`."""
        pat_offsets = np.zeros(len(surfaces) + 1, dtype=np.int64)
        np.cumsum(lens, out=pat_offsets[1:])
        pat_buf = np.frombuffer("".join(surfaces).encode("utf-32-le"), dtype=np.uint32)
        total = int(pat_offsets[-1])

        # Worst case one node per pattern codepoint, plus the root.
        parent = np.empty(total + 1, dtype=np.int32)
        label = np.empty(total + 1, dtype=np.uint32)
        term = np.full(total + 1, -1, dtype=np.int32)
        stack = np.zeros(int(lens.max()) + 1, dtype=np.int32)
        n_nodes = int(_kernels.build_trie(pat_buf, pat_offsets, parent, label, term, stack))

        # CSR edge arrays sorted by (parent, label); (parent, label) pairs
        # are unique in a trie so the sort key never collides.
        key = (parent[1:n_nodes].astype(np.int64) << 21) | label[1:n_nodes]
        edge_order = np.argsort(key)
        self.edge_child = (edge_order + 1).astype(np.int32)
        self.edge_label = label[1:n_nodes][edge_order].copy()
        counts = np.bincount(parent[1:n_nodes], minlength=n_nodes)
        self.edge_start = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.edge_start[1:])
        self.term = term[:n_nodes].copy()
        is_term = self.term >= 0
        self.term[is_term] = pids[self.term[is_term]]
        del parent, label, term, key, edge_order, counts

        self.fail = np.zeros(n_nodes, dtype=np.int32)
        self.out_link = np.zeros(n_nodes, dtype=np.int32)
        _kernels.build_links(self.edge_start, self.edge_label, self.edge_child,
                             self.term, self.fail, self.out_link)
        self._seen = np.full(len(self.pat_surfaces), -1, dtype=np.int32)
        self.n_nodes = n_nodes

    @property
    def pattern_count(self) -> int:
        return len(self.pat_surfaces)

    def _next_epoch(self) -> int:
        if self._epoch >= _EPOCH_MAX:
            self._seen.fill(-1)
            self._epoch = 0
        self._epoch += 1
        return self._epoch

    def _span_hits(self, text: str, cls: np.ndarray) -> tuple[list[int], list[int]]:
        """Span-path occurrences as (pattern ids, end indices)."""
        pids: list[int] = []
        ends: list[int] = []
        if not self.span_runs:
            return pids, ends
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
        return pids, ends

    def _count_all(self, text: str, cps: np.ndarray, cls: np.ndarray) -> np.ndarray:
        counts = np.zeros(12, dtype=np.int64)
        if self.n_nodes:
            _kernels.scan_count(cps, self.edge_start, self.edge_label, self.edge_child,
                                self.fail, self.out_link, self.term, self.pat_domain,
                                self._seen, self._next_epoch(), counts)
        pids, _ = self._span_hits(text, cls)
        _tally(np.asarray(pids, dtype=np.int64), self.pat_domain, counts)
        return counts

    def _collect(self, text: str, cps: np.ndarray,
                 cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All boundary-surviving occurrences as (pattern ids, end indices)."""
        pids, ends = self._span_hits(text, cls)
        pids = np.asarray(pids, dtype=np.int32)
        ends = np.asarray(ends, dtype=np.int64)
        if not self.n_nodes:
            return pids, ends
        cap = max(16, cps.size)
        while True:
            out_pid = np.empty(cap, dtype=np.int32)
            out_end = np.empty(cap, dtype=np.int64)
            found = int(_kernels.scan_collect(
                cps, self.edge_start, self.edge_label, self.edge_child,
                self.fail, self.out_link, self.term, out_pid, out_end))
            if found <= cap:
                return (np.concatenate((out_pid[:found], pids)),
                        np.concatenate((out_end[:found], ends)))
            cap = found

    def find_matches(self, text: str, normalized: bool = False) -> list[tuple[int, str]]:
        """(start offset, surface) pairs in the normalized text, sorted."""
        if not normalized:
            text = normalize(text)
        cps = encode_codepoints(text)
        if cps.size == 0:
            return []
        pids, ends = self._collect(text, cps, class_table()[cps])
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


def _tally(pids: np.ndarray, pat_domain: np.ndarray, counts: np.ndarray) -> None:
    """Add the counts of occurrences `pids` into `counts` (see scan_count)."""
    if not pids.size:
        return
    uniq = np.unique(pids)
    counts[0] += pids.size
    counts[1] += uniq.size
    counts[2:7] += np.bincount(pat_domain[pids], minlength=5)
    counts[7:12] += np.bincount(pat_domain[uniq], minlength=5)


def _leftmost_longest(pids: np.ndarray, ends: np.ndarray,
                      pat_len: np.ndarray) -> np.ndarray:
    """Greedy leftmost-longest filter over materialized occurrences."""
    lens = pat_len[pids].astype(np.int64)
    starts = ends - lens + 1
    order = np.lexsort((-lens, starts))
    keep = []
    cursor = -1
    for idx in order:
        s = starts[idx]
        if s >= cursor:
            keep.append(idx)
            cursor = s + lens[idx]
    return pids[np.asarray(keep, dtype=np.int64)] if keep else pids[:0]


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

    if cps.size == 0:
        counts = np.zeros(12, dtype=np.int64)
    elif automaton.config.occurrence == "all":
        counts = automaton._count_all(text, cps, cls)
    else:
        pids, ends = automaton._collect(text, cps, cls)
        counts = np.zeros(12, dtype=np.int64)
        _tally(_leftmost_longest(pids, ends, automaton.pat_len),
               automaton.pat_domain, counts)

    per_domain = {name: (int(counts[2 + i]), int(counts[7 + i]))
                  for i, name in enumerate(DOMAINS)}
    return KnowledgeProfile(
        doc_id=doc.id,
        n_p=int(n_p),
        n_k=int(counts[0]),
        n_distinct=int(counts[1]),
        per_domain=per_domain,
    )
