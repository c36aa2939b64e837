"""Knowledge-element pool: ingest, normalize, filter, deduplicate, index.

Pool files are UTF-8 TSV, one element per line::

    surface<TAB>domain[<TAB>source]

Surfaces are normalized (NFC, casefold, whitespace collapse) before the
length filter and dedup, so the stored pool is already in matchable form.
Surfaces shorter than 2 characters are dropped. The first occurrence of a
surface wins; later duplicates are counted, and duplicates that disagree
on the domain are additionally counted as conflicts.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, EmptyPoolError
from .files import line_chunks, reading
from .textnorm import normalize_lines

log = logging.getLogger(__name__)

DOMAINS = ("science", "society", "culture", "art", "life")
SOURCES = ("title_keyword", "model_extracted", "unknown")

_DOMAIN_ID = {name: i for i, name in enumerate(DOMAINS)}
_SOURCE_ID = {name: i for i, name in enumerate(SOURCES)}

MIN_SURFACE_CHARS = 2
# Bytes `load_pool` reads per step, before completing the last line.
CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class KnowledgeElement:
    """A normalized n-gram term with its domain and provenance tag."""

    surface: str
    domain: str
    source: str = "unknown"


@dataclass
class PoolLoadReport:
    """Per-load diagnostics; nothing is silently dropped."""

    read: int = 0
    kept: int = 0
    dropped_short: int = 0
    dropped_duplicate: int = 0
    domain_conflicts: int = 0
    unknown_domain: int = 0
    malformed: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


class KnowledgePool:
    """Deduplicated element set with per-domain totals.

    Stored column-wise (surface list + uint8 domain/source arrays) so a
    5M-element pool stays within a couple of GB. Immutable once loaded;
    safe for concurrent readers.
    """

    def __init__(self, surfaces: list[str], domain_ids: np.ndarray,
                 source_ids: np.ndarray, report: PoolLoadReport | None = None):
        self.surfaces = surfaces
        self.domain_ids = domain_ids
        self.source_ids = source_ids
        self.report = report

    @classmethod
    def from_elements(cls, elements: Iterable[KnowledgeElement]) -> "KnowledgePool":
        """Build from already-normalized elements (no filtering applied)."""
        surfaces: list[str] = []
        domains: list[int] = []
        sources: list[int] = []
        for el in elements:
            surfaces.append(el.surface)
            domains.append(_DOMAIN_ID[el.domain])
            sources.append(_SOURCE_ID[el.source])
        return cls(surfaces, np.asarray(domains, dtype=np.uint8),
                   np.asarray(sources, dtype=np.uint8))

    @property
    def total(self) -> int:
        """N_k: number of distinct elements in the pool."""
        return len(self.surfaces)

    @functools.cached_property
    def per_domain_total(self) -> dict[str, int]:
        """N_km for every domain, zero included. Cached; the id arrays
        never change after construction."""
        counts = np.bincount(self.domain_ids, minlength=len(DOMAINS))
        return {name: int(counts[i]) for i, name in enumerate(DOMAINS)}

    def elements(self) -> Iterator[KnowledgeElement]:
        for i, surface in enumerate(self.surfaces):
            yield KnowledgeElement(surface, DOMAINS[self.domain_ids[i]],
                                   SOURCES[self.source_ids[i]])


def load_pool(source: str | Path, strict: bool = False) -> KnowledgePool:
    """Load a TSV element file into a deduplicated pool.

    Lenient mode (default) counts and logs malformed or unknown-domain
    records and keeps going; strict mode raises on the first one. A pool
    with zero surviving elements is an error either way.

    The file is read CHUNK_BYTES bytes at a time, each chunk completed
    to the end of its last line, and every step runs over a whole chunk
    at once.
    """
    # Surface -> domain id * len(SOURCES) + source id of its first line;
    # a dict keeps insertion order, so its keys are the pool's surfaces.
    index: dict[str, int] = {}
    report = PoolLoadReport()
    lines = 0
    with reading(source) as stream:
        for chunk in line_chunks(stream, CHUNK_BYTES):
            lines += _load_chunk(chunk, lines, index, report, strict)

    if not index:
        raise EmptyPoolError("no elements survived filtering; pool is empty")
    report.kept = len(index)
    if (report.dropped_short or report.dropped_duplicate
            or report.unknown_domain or report.malformed):
        log.info(
            "pool load: kept %d of %d (short=%d dup=%d conflicts=%d "
            "unknown_domain=%d malformed=%d)",
            report.kept, report.read, report.dropped_short,
            report.dropped_duplicate, report.domain_conflicts,
            report.unknown_domain, report.malformed,
        )
    codes = np.fromiter(index.values(), dtype=np.uint8, count=len(index))
    domain_ids, source_ids = np.divmod(codes, len(SOURCES))
    return KnowledgePool(list(index), domain_ids, source_ids, report=report)


def _load_chunk(chunk: str, before: int, index: dict[str, int],
                report: PoolLoadReport, strict: bool) -> int:
    """Add the elements of `chunk`, whole pool lines of which the first
    is line `before + 1`, to `index` and their counts to `report`, as
    `load_pool` describes; returns the number of lines."""
    # A "\t" or "\n" byte never occurs inside a multibyte UTF-8 sequence.
    raw = np.frombuffer(chunk.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    # Every field of every line, in order.
    fields = chunk.replace("\t", "\n").split("\n")
    if chunk.endswith("\n"):
        del fields[-1]
    else:  # the file's last line, unterminated
        ends = np.append(ends, raw.size)
    n = ends.size
    tabs = np.diff(np.searchsorted(np.flatnonzero(raw == 9), ends), prepend=0)
    first = np.arange(n) + np.cumsum(tabs) - tabs  # each line's field
    rows = np.flatnonzero(tabs)  # the line of each row: a line with a tab
    at = first[rows]
    surfaces = list(map(fields.__getitem__, at.tolist()))
    domains = list(map(fields.__getitem__, (at + 1).tolist()))
    # A row without a third field takes the "" appended here.
    fields.append("")
    sources = list(map(fields.__getitem__, np.where(
        tabs[rows] > 1, at + 2, len(fields) - 1).tolist()))
    empty = np.diff(ends, prepend=-1) == 1
    blank = int(np.count_nonzero(empty))
    malformed = [(i, f"expected surface<TAB>domain, got "
                     f"{fields[first[i]]!r}")
                 for i in np.flatnonzero((tabs == 0) & ~empty).tolist()]
    domain_ids = _lookup(domains, _DOMAIN_ID, -1)
    unknown = np.flatnonzero(domain_ids < 0)
    report.read += n - blank
    report.malformed += len(malformed)
    report.unknown_domain += unknown.size
    for i, msg in sorted(malformed + [
            (i, f"unknown domain {domains[r].strip()!r}")
            for r, i in zip(unknown.tolist(), rows[unknown].tolist())]):
        msg = f"pool line {before + 1 + i}: {msg}"
        if strict:
            raise DataError(msg)
        log.warning(msg)

    codes = domain_ids * len(SOURCES) + _lookup(
        sources, _SOURCE_ID, _SOURCE_ID["unknown"])
    if unknown.size:
        known = domain_ids >= 0
        surfaces = list(compress(surfaces, known.tolist()))
        codes = codes[known]
    surfaces = normalize_lines(surfaces)
    long_enough = np.fromiter(map(len, surfaces), dtype=np.intp,
                              count=len(surfaces)) >= MIN_SURFACE_CHARS
    if not long_enough.all():
        report.dropped_short += int(np.count_nonzero(~long_enough))
        surfaces = list(compress(surfaces, long_enough.tolist()))
        codes = codes[long_enough]
    size = len(index)
    # The code each surface's first line left in the index: its own if new.
    prior = np.fromiter(map(index.setdefault, surfaces, codes.tolist()),
                        dtype=np.int16, count=len(surfaces))
    report.dropped_duplicate += len(surfaces) - (len(index) - size)
    report.domain_conflicts += int(np.count_nonzero(
        prior // len(SOURCES) != codes // len(SOURCES)))
    return n


def _lookup(values: list[str], ids: dict[str, int],
            missing: int) -> np.ndarray:
    """`ids.get(value.strip(), missing)` of every value, looking each
    distinct value up once."""
    table = {value: ids.get(value.strip(), missing) for value in set(values)}
    return np.fromiter(map(table.__getitem__, values), dtype=np.int16,
                       count=len(values))


@dataclass
class PoolStats:
    total: int
    per_domain: dict[str, int]
    per_source: dict[str, int]
    length_histogram: dict[int, int] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "total": self.total,
            "per_domain": self.per_domain,
            "per_source": self.per_source,
            "length_histogram": {str(k): v for k, v in sorted(self.length_histogram.items())},
        }
        return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def pool_stats(pool: KnowledgePool) -> PoolStats:
    """Per-domain counts and a surface-length histogram.

    Domain keys are emitted in alphabetical order so output is stable.
    """
    per_length = np.bincount(np.fromiter(map(len, pool.surfaces),
                                         dtype=np.intp, count=pool.total))
    src_counts = np.bincount(pool.source_ids, minlength=len(SOURCES))
    return PoolStats(
        total=pool.total,
        per_domain={d: pool.per_domain_total[d] for d in sorted(DOMAINS)},
        per_source={s: int(src_counts[_SOURCE_ID[s]]) for s in sorted(SOURCES)},
        length_histogram={n: int(per_length[n])
                          for n in np.flatnonzero(per_length).tolist()},
    )
