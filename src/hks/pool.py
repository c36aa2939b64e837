"""Knowledge-element pool: ingest, normalize, filter, deduplicate, index.

Pool files are UTF-8 TSV, one element per line::

    surface<TAB>domain[<TAB>source]

Surfaces are normalized (NFC, casefold, whitespace collapse) before the
length filter and dedup, so the stored pool is already in matchable form.
Surfaces shorter than 2 characters are dropped. The first occurrence of a
surface wins; later duplicates are counted, and duplicates that disagree
on the domain are additionally counted as conflicts.

A loaded pool holds its surfaces as codepoint arrays, not strings: each
chunk of the file goes from bytes to codepoints and to each surface's
key, the hash the matcher's scan gives a text window (Karp & Rabin
1987), and the dedup and the matcher's build read those arrays.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, EmptyPoolError
from .files import line_chunks, reading
from .textnorm import encode_codepoints, normalize_lines

log = logging.getLogger(__name__)

DOMAINS = ("science", "society", "culture", "art", "life")
SOURCES = ("title_keyword", "model_extracted", "unknown")

_DOMAIN_ID = {name: i for i, name in enumerate(DOMAINS)}
_SOURCE_ID = {name: i for i, name in enumerate(SOURCES)}

MIN_SURFACE_CHARS = 2
# Bytes `load_pool` reads per step, before completing the last line.
CHUNK_BYTES = 1 << 16
# The base of every surface key and text window hash (Karp & Rabin
# 1987): odd, so invertible mod 2^64; no output depends on its value.
HASH_BASE = 0x9E3779B97F4A7C15
INVERSE = pow(HASH_BASE, -1, 1 << 64)
# A chunk with no surface: codepoints, lengths, keys and codes.
_EMPTY = (np.zeros(0, np.uint8), np.zeros(0, np.int32),
         np.zeros(0, np.uint64), np.zeros(0, np.int16))


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

    Stored column-wise, with no `str` per surface: `cps` holds every
    surface's codepoints in pool order, each surface followed by one
    "\\n", in the narrowest unsigned type that fits; `lens` holds the
    lengths (int32), `keys` the hashes `surface_keys` gives (uint64), and
    `domain_ids` and `source_ids` the uint8 ids. `surfaces` decodes the
    codepoints once, on first read; nothing in scoring reads it.
    Immutable once loaded; safe for concurrent readers.
    """

    def __init__(self, surfaces: list[str], domain_ids: np.ndarray,
                 source_ids: np.ndarray, report: PoolLoadReport | None = None):
        lens = np.fromiter(map(len, surfaces), dtype=np.int32,
                           count=len(surfaces))
        cps = encode_codepoints("\n".join([*surfaces, ""]))
        self._columns(cps, lens, surface_keys(cps, surface_starts(lens), lens),
                      domain_ids, source_ids, report)
        self.surfaces = list(surfaces)

    def _columns(self, cps: np.ndarray, lens: np.ndarray, keys: np.ndarray,
                 domain_ids: np.ndarray, source_ids: np.ndarray,
                 report: PoolLoadReport | None) -> None:
        self.cps = cps.astype(np.min_scalar_type(int(cps.max(initial=0))),
                              copy=False)
        self.lens = lens
        self.keys = keys
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
        return self.lens.size

    @functools.cached_property
    def surfaces(self) -> list[str]:
        """The surfaces as strings, in pool order."""
        text = self.cps.astype("<u4").tobytes().decode("utf-32-le")
        return [text[at:at + n] for at, n in
                zip(surface_starts(self.lens).tolist(), self.lens.tolist())]

    @functools.cached_property
    def per_domain_total(self) -> dict[str, int]:
        """N_km for every domain, zero included. Cached; the id arrays
        never change after construction."""
        counts = np.bincount(self.domain_ids, minlength=len(DOMAINS))
        return {name: int(counts[i]) for i, name in enumerate(DOMAINS)}


def powers(base: int, n: int) -> np.ndarray:
    """base^1 .. base^n mod 2^64."""
    return np.cumprod(np.full(n, base, dtype=np.uint64))


def surface_keys(cps: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                 tables: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> np.ndarray:
    """The key of each surface `cps[starts[i]:starts[i] + lens[i]]`: the
    sum of its k-th codepoint times HASH_BASE^(k + 1) mod 2^64, the hash
    the matcher's scan gives a text window. `tables` holds HASH_BASE^1..
    and its inverse's powers, at least `cps.size + 1` of each."""
    n = cps.size
    fwd, inv = tables or (powers(HASH_BASE, n + 1), powers(INVERSE, n + 1))
    # prefix[i] sums cps[j] * B^(j + 2) over j < i, so the surface at s
    # hashes to (prefix[s + L] - prefix[s]) * B^-(s + 1).
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(cps * fwd[1:n + 1], out=prefix[1:])
    return (prefix[starts + lens] - prefix[starts]) * inv[starts]


def surface_starts(lens: np.ndarray) -> np.ndarray:
    """Where each surface of lengths `lens` starts in a pool's `cps`."""
    ends = np.cumsum(lens + 1, dtype=np.int64)
    return ends - lens - 1


def load_pool(source: str | Path, strict: bool = False) -> KnowledgePool:
    """Load a TSV element file into a deduplicated pool.

    Lenient mode (default) counts and logs malformed or unknown-domain
    records and keeps going; strict mode raises on the first one. A pool
    with zero surviving elements is an error either way.

    The file is read CHUNK_BYTES bytes at a time, each chunk completed
    to the end of its last line, and every step runs over a whole chunk
    at once, down to each surface's codepoints and key. Duplicates are
    then found over the whole pool at once: equal surfaces have equal
    (length, key), and a surface is dropped only when its codepoints
    equal those of the first line with its (length, key).
    """
    report = PoolLoadReport()
    parts = []
    # Powers of HASH_BASE and its inverse, grown to fit the longest chunk
    # so far; dropped once the file is read.
    tables: list[np.ndarray] = []
    lines = 0
    with reading(source) as stream:
        for chunk in line_chunks(stream, CHUNK_BYTES):
            n, part = _load_chunk(chunk, lines, report, strict, tables)
            lines += n
            parts.append(part)
    del tables

    cps, lens, keys, codes = (np.concatenate(column)
                              for column in zip(*parts or [_EMPTY]))
    if not lens.size:
        raise EmptyPoolError("no elements survived filtering; pool is empty")
    first = _first_equal(cps, surface_starts(lens), lens, keys)
    keep = first == np.arange(first.size)
    domains = codes // len(SOURCES)
    report.domain_conflicts = int(np.count_nonzero(domains != domains[first]))
    report.kept = int(np.count_nonzero(keep))
    report.dropped_duplicate = lens.size - report.kept
    if report.dropped_duplicate:
        cps = cps[np.repeat(keep, lens + 1)]
        lens, keys, codes = lens[keep], keys[keep], codes[keep]
    if (report.dropped_short or report.dropped_duplicate
            or report.unknown_domain or report.malformed):
        log.info(
            "pool load: kept %d of %d (short=%d dup=%d conflicts=%d "
            "unknown_domain=%d malformed=%d)",
            report.kept, report.read, report.dropped_short,
            report.dropped_duplicate, report.domain_conflicts,
            report.unknown_domain, report.malformed,
        )
    domain_ids, source_ids = np.divmod(codes.astype(np.uint8), len(SOURCES))
    pool = KnowledgePool.__new__(KnowledgePool)
    pool._columns(cps, lens, keys, domain_ids, source_ids, report)
    return pool


def _load_chunk(chunk: str, before: int, report: PoolLoadReport,
                strict: bool, tables: list[np.ndarray]) -> tuple[int, tuple]:
    """The elements of `chunk`, whole pool lines of which the first is
    line `before + 1`, as `load_pool` describes, with their counts added
    to `report`: the number of lines, and the codepoints (each surface
    followed by "\\n"), lengths, keys and domain-and-source codes of
    the surfaces that are long enough, duplicates included. `tables`
    holds the powers `surface_keys` reads and grows to fit."""
    if not chunk.endswith("\n"):  # the file's last line, unterminated
        chunk += "\n"
    # A "\t" or "\n" byte never occurs inside a multibyte UTF-8 sequence.
    raw = np.frombuffer(chunk.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    n = ends.size
    starts = np.zeros(n, dtype=np.intp)
    starts[1:] = ends[:-1] + 1
    tab_at = np.flatnonzero(raw == 9)
    first = np.searchsorted(tab_at, starts)  # each line's first tab
    tabs = np.searchsorted(tab_at, ends) - first
    rows = np.flatnonzero(tabs)  # the line of each row: a line with a tab

    def field(k: int, rows: np.ndarray) -> str:
        """Field k of each of `rows`, lines with at least k tabs."""
        lo = starts[rows] if k == 0 else tab_at[first[rows] + k - 1] + 1
        hi = np.where(tabs[rows] > k,
                      tab_at.take(first[rows] + k, mode="clip"), ends[rows])
        return _decoded(raw, lo, hi)

    domains = field(1, rows).split("\n")[:-1]
    empty = ends == starts
    blank = int(np.count_nonzero(empty))
    malformed = [(i, f"expected surface<TAB>domain, got "
                     f"{raw[starts[i]:ends[i]].tobytes().decode()!r}")
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

    sources = np.full(rows.size, _SOURCE_ID["unknown"], dtype=np.int16)
    sourced = np.flatnonzero(tabs[rows] > 1)
    if sourced.size:
        sources[sourced] = _lookup(field(2, rows[sourced]).split("\n")[:-1],
                                   _SOURCE_ID, _SOURCE_ID["unknown"])
    codes = domain_ids * len(SOURCES) + sources
    if unknown.size:
        known = domain_ids >= 0
        rows, codes = rows[known], codes[known]
    if not rows.size:
        return n, _EMPTY
    cps = encode_codepoints(normalize_lines(field(0, rows)[:-1]) + "\n")
    ends = np.flatnonzero(cps == 10)
    lens = np.diff(ends, prepend=-1) - 1
    if not tables or tables[0].size <= cps.size:
        tables[:] = (powers(HASH_BASE, 2 * cps.size + 1),
                     powers(INVERSE, 2 * cps.size + 1))
    keys = surface_keys(cps, ends - lens, lens, tables)
    long_enough = lens >= MIN_SURFACE_CHARS
    if not long_enough.all():
        report.dropped_short += int(np.count_nonzero(~long_enough))
        cps = cps[np.repeat(long_enough, lens + 1)]
        lens, keys, codes = (lens[long_enough], keys[long_enough],
                             codes[long_enough])
    return n, (cps.astype(np.min_scalar_type(int(cps.max(initial=0)))),
               lens.astype(np.int32), keys, codes)


def _decoded(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> str:
    """The bytes `raw[lo[i]:hi[i]]` of each i, decoded, each followed by
    "\\n"; `raw[hi[i]]` is the "\\t" or "\\n" that ends the field."""
    # The fields with their ends as a mask that toggles at each field's
    # start and past its end, set by index: the fields are disjoint and
    # apart, so no start is another field's end + 1.
    toggles = np.zeros(raw.size + 1, dtype=bool)
    toggles[lo] = True
    toggles[hi + 1] = True
    picked = raw[np.logical_xor.accumulate(toggles[:-1])]
    picked[np.cumsum(hi - lo + 1) - 1] = 10
    return picked.tobytes().decode("utf-8")


def _first_equal(cps: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                 keys: np.ndarray) -> np.ndarray:
    """The index of the first surface equal to each surface.

    A sort groups the surfaces by (length, key), the length folded into
    the key; a surface equal to its group's first takes it. A group that
    holds some other surface, a hash collision, is sorted out one
    surface at a time."""
    folded = keys ^ lens.astype(np.uint64)
    # Not stable, so several times faster: a group's first surface is
    # the least index in it.
    order = np.argsort(folded)
    folded = folded[order]
    lead = np.ones(order.size, dtype=bool)
    np.not_equal(folded[1:], folded[:-1], out=lead[1:])
    group = np.empty_like(order)
    group[order] = np.cumsum(lead) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(lead))[group]
    later = np.flatnonzero(first != np.arange(first.size))
    differ = later[~_equal(cps, starts, lens, later, first[later])]
    if differ.size:
        mixed = np.zeros(lead.size, dtype=bool)
        mixed[group[differ]] = True
        seen: dict[bytes, int] = {}
        for i in np.flatnonzero(mixed[group]).tolist():
            at = int(starts[i])
            first[i] = seen.setdefault(cps[at:at + lens[i]].tobytes(), i)
    return first


def _equal(cps: np.ndarray, starts: np.ndarray, lens: np.ndarray,
           a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether surface a[i] equals surface b[i], for each i."""
    same = lens[a] == lens[b]
    pairs = np.flatnonzero(same)
    pairs = pairs[np.argsort(lens[a[pairs]], kind="stable")]
    for part in np.split(pairs, np.flatnonzero(np.diff(lens[a[pairs]])) + 1):
        if part.size:
            rows = np.lib.stride_tricks.sliding_window_view(
                cps, int(lens[a[part[0]]]))
            same[part] = (rows[starts[a[part]]]
                          == rows[starts[b[part]]]).all(axis=1)
    return same


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
    per_length = np.bincount(pool.lens)
    src_counts = np.bincount(pool.source_ids, minlength=len(SOURCES))
    return PoolStats(
        total=pool.total,
        per_domain={d: pool.per_domain_total[d] for d in sorted(DOMAINS)},
        per_source={s: int(src_counts[_SOURCE_ID[s]]) for s in sorted(SOURCES)},
        length_histogram={n: int(per_length[n])
                          for n in np.flatnonzero(per_length).tolist()},
    )
