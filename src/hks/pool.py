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
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, EmptyPoolError
from .files import reading
from .textnorm import normalize

log = logging.getLogger(__name__)

DOMAINS = ("science", "society", "culture", "art", "life")
SOURCES = ("title_keyword", "model_extracted", "unknown")

_DOMAIN_ID = {name: i for i, name in enumerate(DOMAINS)}
_SOURCE_ID = {name: i for i, name in enumerate(SOURCES)}

MIN_SURFACE_CHARS = 2


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
    """
    surfaces: list[str] = []
    # One byte per kept element; numpy views them without a copy.
    domains = bytearray()
    sources = bytearray()
    index: dict[str, int] = {}
    read = dropped_short = dropped_duplicate = 0
    domain_conflicts = unknown_domain = malformed = 0

    with reading(source) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            read += 1
            parts = line.split("\t")
            if len(parts) < 2:
                malformed += 1
                msg = f"pool line {lineno}: expected surface<TAB>domain, got {line!r}"
                if strict:
                    raise DataError(msg)
                log.warning(msg)
                continue
            raw_surface, domain = parts[0], parts[1].strip()
            source_tag = parts[2].strip() if len(parts) > 2 and parts[2].strip() else "unknown"
            domain_id = _DOMAIN_ID.get(domain)
            if domain_id is None:
                unknown_domain += 1
                msg = f"pool line {lineno}: unknown domain {domain!r}"
                if strict:
                    raise DataError(msg)
                log.warning(msg)
                continue
            surface = normalize(raw_surface)
            if len(surface) < MIN_SURFACE_CHARS:
                dropped_short += 1
                continue
            prev = index.get(surface)
            if prev is not None:
                dropped_duplicate += 1
                if domains[prev] != domain_id:
                    domain_conflicts += 1
                continue
            index[surface] = len(surfaces)
            surfaces.append(surface)
            domains.append(domain_id)
            sources.append(_SOURCE_ID.get(source_tag, _SOURCE_ID["unknown"]))

    report = PoolLoadReport(
        read=read, kept=len(surfaces), dropped_short=dropped_short,
        dropped_duplicate=dropped_duplicate, domain_conflicts=domain_conflicts,
        unknown_domain=unknown_domain, malformed=malformed)
    if not surfaces:
        raise EmptyPoolError("no elements survived filtering; pool is empty")
    if dropped_short or dropped_duplicate or unknown_domain or malformed:
        log.info(
            "pool load: kept %d of %d (short=%d dup=%d conflicts=%d "
            "unknown_domain=%d malformed=%d)",
            report.kept, read, dropped_short, dropped_duplicate,
            domain_conflicts, unknown_domain, malformed,
        )
    return KnowledgePool(surfaces, np.frombuffer(domains, dtype=np.uint8),
                         np.frombuffer(sources, dtype=np.uint8), report=report)


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
    lengths: dict[int, int] = {}
    for surface in pool.surfaces:
        n = len(surface)
        lengths[n] = lengths.get(n, 0) + 1
    src_counts = np.bincount(pool.source_ids, minlength=len(SOURCES))
    return PoolStats(
        total=pool.total,
        per_domain={d: pool.per_domain_total[d] for d in sorted(DOMAINS)},
        per_source={s: int(src_counts[_SOURCE_ID[s]]) for s in sorted(SOURCES)},
        length_histogram=lengths,
    )
