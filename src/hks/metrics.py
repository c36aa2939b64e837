"""Knowledge scores over match profiles.

Density is occurrences per token, coverage is the fraction of the pool's
distinct surfaces present in the document, and the composite score is
density * ln(coverage + 1). Domain scores apply the same formula with
counts restricted to one domain's sub-pool. A small 3x3 family of
alternative scoring functions f(d) * g(c) is provided for the function
search in the analysis layer.

Scores are computed in float64; the persisted record keeps the integer
counts (n_k, n_distinct, n_p, per-domain pairs) so any downstream tool
can recompute the ratios at full precision.

`hks score` scores a batch of documents at a time from the matcher's
count arrays (`score_columns`) and encodes each value once, straight
into score lines and the column file's values (`encode_scores`);
`score_record` and `ScoreRecord` are the one-document view of the same
formulas and the same line.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, NamedTuple, Sequence

from .errors import DataError, DegenerateDocumentError, EmptyPoolError
from .files import JSON_ERRORS, canonical_json
from .matcher import KnowledgeProfile, MatchCounts
from .pool import DOMAINS, KnowledgePool

log = logging.getLogger(__name__)

# Each component of f(d) * g(c) by kind: its function and its label.
_COMPONENTS = {"identity": (lambda x: x, "{}"),
               "sin": (math.sin, "sin({})"),
               "ln1p": (math.log1p, "ln({}+1)")}
FUNC_KINDS = tuple(_COMPONENTS)
# The score fields of every record, in the order they are offered, and
# every name a score column can have: domains sorted, as in every output.
RECORD_SCORES = ("hks", "d", "c")
SCORE_FIELDS = (*RECORD_SCORES, *sorted(DOMAINS))
# A score line, its keys in canonical (sorted) order, each %s a JSON
# text: c, d, the domains member (',"domains":{...}' or ""), hks, id, the
# meta member (',"meta":...' or ""), n_distinct, n_k and n_p.
_LINE = ('{"c":%s,"d":%s%s,"hks":%s,"id":%s%s,'
         '"n_distinct":%s,"n_k":%s,"n_p":%s}')


def _tokens(profile: KnowledgeProfile) -> int:
    """n_p of a profiled document; one without tokens cannot be scored."""
    if profile.n_p <= 0:
        raise DegenerateDocumentError(
            f"document {profile.doc_id!r} has no tokens; cannot score"
        )
    return profile.n_p


def density(profile: KnowledgeProfile) -> float:
    """Occurrences per token, n_k / n_p. May exceed 1 under overlaps."""
    return profile.n_k / _tokens(profile)


def coverage(profile: KnowledgeProfile, pool: KnowledgePool) -> float:
    """Fraction of distinct pool surfaces present, n_distinct / N_k."""
    if pool.total <= 0:
        raise EmptyPoolError("coverage is undefined for an empty pool")
    return profile.n_distinct / pool.total


def hks_score(d: float, c: float) -> float:
    """Composite score d * ln(1 + c), accurate for small c via log1p."""
    if d < 0 or c < 0:
        raise DataError(f"negative score inputs d={d}, c={c}")
    return d * math.log1p(c)


def domain_score(profile: KnowledgeProfile, pool: KnowledgePool,
                 domain: str) -> tuple[float, float, float]:
    """(d_m, c_m, score_m) with counts restricted to one domain."""
    if domain not in DOMAINS:
        raise DataError(f"unknown domain {domain!r}; expected one of {DOMAINS}")
    n_km = pool.per_domain_total.get(domain, 0)
    if n_km <= 0:
        raise EmptyPoolError(f"pool has no elements in domain {domain!r}")
    occ, distinct = profile.per_domain.get(domain, (0, 0))
    d_m = occ / _tokens(profile)
    c_m = distinct / n_km
    return d_m, c_m, hks_score(d_m, c_m)


@dataclass(frozen=True)
class ScoreFunction:
    """One member of the f(d) * g(c) family, f and g drawn from
    identity, sin, and ln(x+1). All three components are nondecreasing
    and concave on [0, 1]."""

    f_kind: str = "identity"
    g_kind: str = "ln1p"

    def __post_init__(self):
        for kind in (self.f_kind, self.g_kind):
            if kind not in FUNC_KINDS:
                raise DataError(f"unknown function kind {kind!r}")

    @property
    def name(self) -> str:
        return (f"{_COMPONENTS[self.f_kind][1].format('d')}*"
                f"{_COMPONENTS[self.g_kind][1].format('c')}")


def eval_score_function(sf: ScoreFunction, d: float, c: float) -> float:
    """f(d) * g(c). d is passed raw even when > 1 (overlap semantics)."""
    return _COMPONENTS[sf.f_kind][0](d) * _COMPONENTS[sf.g_kind][0](c)


def all_score_functions() -> list[ScoreFunction]:
    """The 9 candidate scorers, in deterministic f-major order."""
    return [ScoreFunction(f, g) for f in FUNC_KINDS for g in FUNC_KINDS]


@dataclass
class ScoreRecord:
    """Persisted per-document score row.

    domains maps each domain name to its counts and score:
    {"n": occurrences, "distinct": distinct surfaces, "d": density,
    "c": coverage, "score": composite}. meta is an optional passthrough
    of the source document's metadata (used for grouping in analysis).
    """

    doc_id: str
    n_p: int
    n_k: int
    n_distinct: int
    d: float
    c: float
    hks: float
    domains: dict[str, dict] = field(default_factory=dict)
    meta: dict | None = None

    def to_json(self) -> str:
        """The record's score line, canonical JSON: what `encode_scores`
        writes for the same values."""
        return _LINE % (
            canonical_json(self.c), canonical_json(self.d),
            ',"domains":' + canonical_json(self.domains) if self.domains
            else "", canonical_json(self.hks), canonical_json(self.doc_id),
            "" if self.meta is None else ',"meta":' + canonical_json(self.meta),
            canonical_json(self.n_distinct), canonical_json(self.n_k),
            canonical_json(self.n_p))

    @classmethod
    def from_json(cls, line: str) -> "ScoreRecord":
        """The record on a score line; a line that is not one is a
        DataError."""
        try:
            obj = json.loads(line)
            return cls(
                doc_id=obj["id"],
                n_p=obj["n_p"],
                n_k=obj["n_k"],
                n_distinct=obj["n_distinct"],
                d=obj["d"],
                c=obj["c"],
                hks=obj["hks"],
                domains=obj.get("domains", {}),
                meta=obj.get("meta"),
            )
        except KeyError as exc:
            raise DataError(f"score record missing key {exc}") from exc
        except (*JSON_ERRORS, TypeError, AttributeError) as exc:
            raise DataError(f"not a score record ({exc})") from exc


class Scores(NamedTuple):
    """The scores of a batch of documents, one float list per field, item
    i of document i: d, c and hks, and per domain name (d, c, score) of
    that domain, for every domain or for none."""

    d: list[float]
    c: list[float]
    hks: list[float]
    domains: dict[str, tuple[list[float], list[float], list[float]]]


def score_columns(ids: Sequence[str], counts: MatchCounts,
                  pool: KnowledgePool, with_domains: bool = True) -> Scores:
    """The scores of the documents with ids `ids` and match `counts`,
    every n_p >= 1, by the formulas of density, coverage, hks_score and
    domain_score. Each ratio is one numpy float64 division over the
    batch, which equals Python's for counts below 2^53; each composite
    is `hks_score`, so math.log1p.

    Domains with an empty sub-pool get a zero score (nothing can match
    there); the strict single-domain entry point for callers who want
    the error is domain_score().
    """
    if pool.total <= 0:
        raise EmptyPoolError("coverage is undefined for an empty pool")
    n_p = counts.n_p
    d = (counts.n_k / n_p).tolist()
    c = (counts.n_distinct / pool.total).tolist()
    scores = Scores(d, c, list(map(hks_score, d, c)), {})
    for i, density_i in enumerate(d):
        if density_i > 1:
            log.debug("document %s has density %.3f > 1 (overlapping "
                      "matches)", ids[i], density_i)
    if with_domains:
        totals = [pool.per_domain_total[m] for m in DOMAINS]
        # Row j holds domain j; a domain without elements divides by 1
        # and is then zeroed.
        d_m = (counts.occurrences / n_p[:, None]).T.tolist()
        c_m = (counts.distinct / [max(t, 1) for t in totals]).T.tolist()
        zeros = [0.0] * len(d)
        for m, n_km, d_j, c_j in zip(DOMAINS, totals, d_m, c_m):
            scores.domains[m] = ((d_j, c_j, list(map(hks_score, d_j, c_j)))
                                 if n_km > 0 else (zeros, zeros, zeros))
    return scores


def encode_scores(ids: Sequence[str], metas: Sequence[dict | None],
                  counts: MatchCounts, scores: Scores
                  ) -> tuple[list[str], dict]:
    """The score line of each document, as `ScoreRecord.to_json` writes
    it, and the JSON text of each value of the columns they make, in the
    shape `ScoreTable.parse_lines` returns: "id", "n_p", "meta", each
    record score and "domains" (domain name -> score column).

    Each float is encoded once, by `float.__repr__`, which is what the
    json encoder writes for a finite float. Ids and metas go through
    `canonical_json`. Every line comes from one template.
    """
    names = sorted(scores.domains)
    columns = {"id": list(map(canonical_json, ids)),
               "n_p": list(map(str, counts.n_p.tolist())),
               "meta": list(map(canonical_json, metas)),
               **{name: list(map(float.__repr__, getattr(scores, name)))
                  for name in RECORD_SCORES}, "domains": {}}
    members = []  # per line, the domains member's %s texts
    for m in names:
        j = DOMAINS.index(m)
        d_m, c_m, s_m = scores.domains[m]
        columns["domains"][m] = score_m = list(map(float.__repr__, s_m))
        members += [map(float.__repr__, c_m), map(float.__repr__, d_m),
                    map(str, counts.distinct[:, j].tolist()),
                    map(str, counts.occurrences[:, j].tolist()), score_m]
    domains = ",".join(f'"{m}":{{"c":%s,"d":%s,"distinct":%s,"n":%s,'
                       f'"score":%s}}' for m in names)
    template = _LINE % ("%s", "%s",
                        ',"domains":{' + domains + "}" if domains else "",
                        *["%s"] * 6)
    meta = ["" if m is None else ',"meta":' + t
            for m, t in zip(metas, columns["meta"])]
    lines = list(map(template.__mod__, zip(
        columns["c"], columns["d"], *members, columns["hks"], columns["id"],
        meta, map(str, counts.n_distinct.tolist()),
        map(str, counts.n_k.tolist()), columns["n_p"])))
    return lines, columns


def score_record(profile: KnowledgeProfile, pool: KnowledgePool,
                 with_domains: bool = True,
                 meta: dict | None = None) -> ScoreRecord:
    """Assemble the persisted record for one profiled document: the
    scores `score_columns` gives it alone."""
    _tokens(profile)
    scores = score_columns([profile.doc_id], MatchCounts.of([profile]),
                           pool, with_domains)
    domains = {}
    for m, (d_m, c_m, s_m) in scores.domains.items():
        occ, distinct = profile.per_domain.get(m, (0, 0))
        domains[m] = {"n": occ, "distinct": distinct,
                      "d": d_m[0], "c": c_m[0], "score": s_m[0]}
    return ScoreRecord(
        doc_id=profile.doc_id,
        n_p=profile.n_p,
        n_k=profile.n_k,
        n_distinct=profile.n_distinct,
        d=scores.d[0], c=scores.c[0], hks=scores.hks[0],
        domains=domains,
        meta=meta,
    )


def _ids_ok(values: list) -> bool:
    return set(map(type, values)) <= {str} and "" not in values


def _counts_ok(values: list) -> bool:
    return set(map(type, values)) <= {int} and min(values, default=1) >= 1


def _is_finite(value) -> bool:
    """math.isfinite, False for a value it refuses."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def finite_numbers(values: list) -> bool:
    try:
        return (set(map(type, values)) <= {int, float}
                and all(map(math.isfinite, values)))
    except OverflowError:  # an int beyond float range
        return False


def _metas_ok(values: list) -> bool:
    return set(map(type, values)) <= {dict, type(None)}


@dataclass
class ScoreTable:
    """Phase two's view of scored documents: one list per column, row i
    holding the i-th record.

    scores maps each score field (d, c, hks and every domain name) to
    its column, each value kept exactly as `json.loads` returned it.
    Every row has the same domains, so every column is full. A table
    filled with `fields` (see `extend_columns`) holds only the columns
    named there: it maps every other score field of its records to
    None, so it still knows their names, and its meta is None unless
    "meta" is named. shards holds the path, manifest entry and row
    slice of each score shard read, in row order; it is empty for a
    table built by `from_records` or `take`.
    """

    ids: list[str] = field(default_factory=list)
    n_p: list[int] = field(default_factory=list)
    scores: dict[str, list | None] = field(
        default_factory=lambda: {name: [] for name in RECORD_SCORES})
    meta: list[dict | None] | None = field(default_factory=list)
    shards: list[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_records(cls, records: ScoreTable | Sequence[ScoreRecord],
                     ) -> ScoreTable:
        """The columns of a sequence of ScoreRecords; a ScoreTable is
        returned as it is. A record whose domains differ from the first
        record's, or with a score that is not a finite number (NaN,
        infinite, None, a str, an int beyond float range), is a
        DataError."""
        if isinstance(records, ScoreTable):
            return records
        ids, n_p, d, c, hks, meta = [], [], [], [], [], []
        names = records[0].domains.keys() if records else ()
        for r in records:
            ids.append(r.doc_id)
            n_p.append(r.n_p)
            d.append(r.d)
            c.append(r.c)
            hks.append(r.hks)
            meta.append(r.meta)
            # Comparing key views is the loop's costliest step; records
            # without domains, as a --no-domains run writes, skip it.
            if (r.domains or names) and r.domains.keys() != names:
                raise DataError(
                    f"record {r.doc_id!r} has domains {sorted(r.domains)}, "
                    f"not the {sorted(names)} of the first record "
                    f"{ids[0]!r}; the records of one table share one "
                    f"domain set")
        scores = {"d": d, "c": c, "hks": hks}
        for name in sorted(names):
            scores[name] = [r.domains[name]["score"] for r in records]
        for name, values in scores.items():
            try:
                if all(map(math.isfinite, values)):
                    continue
            except (TypeError, OverflowError):  # None, a str, a huge int
                pass
            row = list(map(_is_finite, values)).index(False)
            raise DataError(f"record {ids[row]!r}: {name!r} is not a "
                            f"finite number ({values[row]!r})")
        return cls(ids, n_p, scores, meta)

    def column(self, score_field: str) -> list:
        """The score column named by `score_field`: d, c, hks or a
        domain name (that domain's composite score); [] for an empty
        table. A field the records lack is a DataError naming the first
        one; a field they have that this table did not keep is a
        ValueError."""
        values = self.scores.get(score_field)
        if values is None and self.ids:
            if score_field in self.scores:
                raise ValueError(f"column {score_field!r} was not kept")
            available = [*RECORD_SCORES, *sorted(self.scores.keys()
                                                 - set(RECORD_SCORES))]
            raise DataError(
                f"record {self.ids[0]!r} has no score field "
                f"{score_field!r}; available: {', '.join(available)}")
        return values or []

    def take(self, rows: Sequence[int]) -> ScoreTable:
        """The rows at positions `rows`, in that order, of the columns
        this table holds."""
        def pick(col: list | None) -> list | None:
            return None if col is None else [col[i] for i in rows]

        return ScoreTable(pick(self.ids), pick(self.n_p),
                          {name: pick(col)
                           for name, col in self.scores.items()},
                          pick(self.meta))

    def parse_lines(self, lines: Iterable[str], source) -> dict:
        """The score records on `lines`, read from `source`, as the
        columns `extend_columns` takes and `pipeline.write_columns`
        writes: "id", "n_p", "meta", each record score and "domains"
        (domain name -> score column).

        Each line is parsed once and its fields go straight to the
        columns; n_k and n_distinct must be present but are not kept. A
        line that is not a score record, and one whose domains are not
        those of the first record (this table's first row when it has
        rows), are each a DataError naming `source` and the line.
        """
        ids, n_p, meta = [], [], []
        columns = {"id": ids, "n_p": n_p, "meta": meta,
                   **{name: [] for name in RECORD_SCORES}}
        columns["domains"] = domains = {
            name: [] for name in self.scores if name not in RECORD_SCORES}
        names = set(domains) if self.ids else None
        add_id, add_n_p, add_meta = ids.append, n_p.append, meta.append
        scores = [(name, columns[name].append) for name in RECORD_SCORES]
        adds = [(name, col.append) for name, col in domains.items()]
        # json.loads without its whitespace scans: the line is stripped.
        decode = json.JSONDecoder().raw_decode
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            try:
                obj, end = decode(line)
                if end != len(line):
                    raise ValueError(f"extra data at column {end + 1}")
                add_id(obj["id"])
                add_n_p(obj["n_p"])
                obj["n_k"], obj["n_distinct"]  # required, not kept
                for name, add in scores:
                    add(obj[name])
                entries = obj.get("domains", {})
                if entries.keys() != names:
                    if names is not None or entries.keys() & RECORD_SCORES:
                        raise DataError(f"{source}:{line_no}: domains "
                                        f"differ from the first record's")
                    domains.update((name, []) for name in entries)
                    names = set(domains)
                    adds = [(name, col.append)
                            for name, col in domains.items()]
                for name, add in adds:
                    add(entries[name]["score"])
                add_meta(obj.get("meta"))
            except KeyError as exc:
                raise DataError(f"{source}:{line_no}: not a score record "
                                f"(missing key {exc})") from exc
            except (*JSON_ERRORS, TypeError, AttributeError) as exc:
                raise DataError(f"{source}:{line_no}: not a score record "
                                f"({exc})") from exc
        return columns

    def extend_columns(self, columns: dict, source,
                       fields: Collection[str] | None = None) -> int:
        """Append the rows of `columns`, in the shape `parse_lines`
        returns (a parsed column file, or `parse_lines` of a shard), read
        from `source`; returns how many were appended. Ids and n_p are
        always appended; of the score fields and "meta", only those in
        `fields` (all when it is None), the others being set to None.

        Every column is checked, kept or not. Missing columns, columns
        of unequal lengths and domains other than the first row's are a
        DataError naming `source`. So is an id that is not a non-empty
        string, an n_p that is not an integer >= 1, a score that is not a
        finite number and a meta that is not an object, naming `source:k`
        for the k-th row of `columns`. Nothing is appended unless every
        check passes.
        """
        try:
            rows, domains = columns["id"], columns["domains"]
            names = [name for name in (self.scores if self.ids else domains)
                     if name not in RECORD_SCORES] if rows else []
            if rows and set(domains) != set(names):
                raise ValueError("domains differ from the first record's")
            # Whole columns are checked at once; a failing one is searched
            # value by value for the row.
            rules = [("id", rows, _ids_ok, "a non-empty string"),
                     ("n_p", columns["n_p"], _counts_ok, "an integer >= 1"),
                     *((name, columns[name], finite_numbers, "a finite number")
                       for name in RECORD_SCORES),
                     *((f"domains.{name}.score", domains[name],
                        finite_numbers, "a finite number") for name in names),
                     ("meta", columns["meta"], _metas_ok, "an object")]
            if any(type(values) is not list or len(values) != len(rows)
                   for _, values, _, _ in rules):
                raise ValueError("columns differ in length")
        except KeyError as exc:
            raise DataError(f"{source}: not a column file (missing key "
                            f"{exc})") from exc
        except (ValueError, TypeError) as exc:
            raise DataError(f"{source}: not a column file ({exc})") from exc
        for name, values, ok, what in rules:
            if not ok(values):
                row = next(k for k, v in enumerate(values) if not ok([v]))
                raise DataError(f"{source}:{row + 1}: {name!r} is "
                                f"not {what} ({values[row]!r})")

        def kept(name: str, values: list) -> list | None:
            return values if fields is None or name in fields else None

        self.extend(ScoreTable(
            rows, columns["n_p"],
            {name: kept(name, columns[name] if name in RECORD_SCORES
                        else domains[name])
             for name in (*RECORD_SCORES, *names)},
            kept("meta", columns["meta"])))
        return len(rows)

    def extend(self, part: ScoreTable) -> None:
        """Append the rows of `part`, a table of the same domain set
        whose columns are checked; a column `part` did not keep (None)
        is dropped from this table too."""
        self.ids.extend(part.ids)
        self.n_p.extend(part.n_p)
        if part.meta is None:
            self.meta = None
        else:
            self.meta.extend(part.meta)
        for name, values in part.scores.items():
            if values is None:
                self.scores[name] = None
            else:
                self.scores.setdefault(name, []).extend(values)
