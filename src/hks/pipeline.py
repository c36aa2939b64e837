"""End-to-end runs: score a sharded corpus, select, split, analyze.

Scoring reads a glob of JSONL shards (optionally gzipped), annotates
every document against the pool automaton, and writes one score shard
per input shard plus a manifest. The manifest is a pure function of
(pool bytes, corpus bytes, config): checksums and counts only, no
timings. Wall-clock diagnostics go to a separate run_stats.json sidecar
so reruns and crash-resumed runs stay byte-identical.

Parallelism is per input shard over forked workers sharing the
immutable parent automaton; each shard's output order is its input
order, so worker count never changes any output byte.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import json
import logging
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from .analysis import (PreferencePair, bucket_distribution, correlation_json,
                       correlation_matrix, function_search, function_search_csv)
from .errors import DataError
from .files import (canonical_json, line_digest, reading, verified_lines,
                    writing)
# perfbench/spans.py traces `annotate` here by name.
from .matcher import (Automaton, Document, MatcherConfig, annotate,
                      annotate_all, build_automaton)
from .metrics import ScoreTable, finite_numbers, score_record
from .pool import DOMAINS, KnowledgePool, load_pool
from .selection import SelectionSpec, select
from .textnorm import class_table

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
STATS_NAME = "run_stats.json"
# Characters of document text matched per annotate_all call.
BATCH_CHARS = 1 << 16


@dataclass(frozen=True)
class RunConfig:
    """Scoring-run configuration; hashed into the manifest."""

    pool_path: str
    corpus: str
    out_dir: str
    workers: int = 1
    strict: bool = False
    boundary: bool = True
    domain_scores: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise DataError(f"worker count must be >= 1, got {self.workers}")

    def canonical(self) -> dict:
        return dict(sorted(asdict(self).items()))


def _identity_config(config: RunConfig) -> dict:
    # Worker count never affects output bytes, so it is not identity.
    return {k: v for k, v in config.canonical().items() if k != "workers"}


def config_hash(config: RunConfig) -> str:
    payload = _identity_config(config)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class ShardOutcome:
    """Per-shard result; `records` and the output bytes are deterministic,
    the skip counters describe this run only."""

    input_path: str
    output_name: str
    sha256: str = ""
    records: int = 0
    read: int = 0
    malformed: int = 0
    degenerate: int = 0
    density_gt_1: int = 0
    replaced: int = 0


# Worker state inherited through fork; set once in the parent before
# the pool spawns so children share one read-only automaton.
_G_AUTOMATON: Automaton | None = None
_G_POOL: KnowledgePool | None = None
_G_CONFIG: RunConfig | None = None


def _parse_doc(line: str, shard: str, line_no: int, seen_ids: set) -> Document:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise DataError(f"{shard}:{line_no}: document is not an object")
    doc_id = obj.get("id")
    text = obj.get("text")
    if not isinstance(doc_id, str) or not doc_id:
        raise DataError(f"{shard}:{line_no}: missing or empty 'id'")
    if not isinstance(text, str):
        raise DataError(f"{shard}:{line_no}: missing 'text'")
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise DataError(f"{shard}:{line_no}: 'meta' is not an object")
    # json.loads turns a \udXXX escape outside a surrogate pair into a
    # lone surrogate, which UTF-8 cannot encode; only such lines pay.
    if "\\ud" in line or "\\uD" in line:
        try:
            json.dumps([doc_id, text, meta], ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"{shard}:{line_no}: unpaired surrogate "
                            f"escape ({exc.reason})") from exc
    # Claimed last, so a malformed line never shadows a later valid one.
    if doc_id in seen_ids:
        raise DataError(f"{shard}:{line_no}: duplicate id {doc_id!r}")
    seen_ids.add(doc_id)
    return Document(id=doc_id, text=text, meta=meta)


def _documents(fh: TextIO, in_path: str, strict: bool
               ) -> Iterator[tuple[int, str, Document | None]]:
    """(line number, stripped line, document) for each non-blank line of
    a corpus shard; the document is None for a malformed line or an id
    repeated in the shard, which strict mode raises on instead."""
    seen_ids: set[str] = set()
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = _parse_doc(line, in_path, line_no, seen_ids)
        except (json.JSONDecodeError, DataError) as exc:
            if strict:
                if isinstance(exc, DataError):
                    raise
                raise DataError(f"{in_path}:{line_no}: invalid JSON "
                                f"({exc})") from exc
            log.debug("%s:%d: skipped malformed line (%s)",
                      in_path, line_no, exc)
            doc = None
        yield line_no, line, doc


def _score_shard(task: tuple[str, str]) -> ShardOutcome:
    in_path, out_path = task
    automaton, pool, config = _G_AUTOMATON, _G_POOL, _G_CONFIG
    assert automaton is not None and pool is not None and config is not None
    out = Path(out_path)
    outcome = ShardOutcome(input_path=in_path, output_name=out.name)

    def score_batch(batch: list[tuple[int, Document]], dest: TextIO) -> None:
        docs = [doc for _, doc in batch]
        for (line_no, doc), profile in zip(batch, annotate_all(docs, automaton)):
            if profile.n_p == 0:
                outcome.degenerate += 1
                log.debug("%s:%d: document %r has no tokens; excluded",
                          in_path, line_no, doc.id)
                continue
            rec = score_record(profile, pool,
                               with_domains=config.domain_scores,
                               meta=doc.meta)
            if rec.d > 1:
                outcome.density_gt_1 += 1
            dest.write(rec.to_json() + "\n")

    with reading(in_path, config.strict) as fh, writing(out) as dest:
        batch: list[tuple[int, Document]] = []
        chars = 0
        for line_no, _, doc in _documents(fh, in_path, config.strict):
            outcome.read += 1
            if doc is None:
                outcome.malformed += 1
                continue
            batch.append((line_no, doc))
            chars += len(doc.text)
            if chars >= BATCH_CHARS:
                score_batch(batch, dest)
                batch, chars = [], 0
        score_batch(batch, dest)
        outcome.replaced = fh.replaced
    outcome.sha256, outcome.records = line_digest(out)
    return outcome


def _reused_shards(shards: list[str], outputs: list[Path],
                   recorded: list[dict] | None) -> dict[int, ShardOutcome]:
    """The outputs this run keeps, by input position. With a
    manifest from an earlier run (`recorded`, one entry per input), an
    output is kept only while its sha256 and record count equal its
    entry's; without one (a run that crashed before writing it), every
    output on disk is kept, paired with its input by position. Each
    output is hashed once, here."""
    kept: dict[int, ShardOutcome] = {}
    for i, (in_path, out) in enumerate(zip(shards, outputs)):
        if not out.exists():
            continue
        sha256, records = line_digest(out)
        if recorded is not None and (sha256, records) != (
                recorded[i]["sha256"], recorded[i]["records"]):
            log.warning("%s: differs from its %s entry; scoring it again",
                        out, MANIFEST_NAME)
            continue
        kept[i] = ShardOutcome(input_path=in_path, output_name=out.name,
                               sha256=sha256, records=records)
    return kept


def _read_manifest(scores_dir: Path, with_totals: bool = False
                   ) -> tuple[dict, list[dict], dict | None] | None:
    """A scoring run's recorded identity ("config_hash", "pool.sha256"),
    its shard entries ("input", "output", "sha256", "records") and, with
    `with_totals`, its pool totals ("elements", "per_domain"), or None
    when the directory has no manifest."""
    path = scores_dir / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        with reading(path) as fh:
            manifest = json.loads(fh.read())
        identity = {"config_hash": manifest["config_hash"],
                    "pool.sha256": manifest["pool"]["sha256"]}
        shards = [{"input": str(shard["input"]),
                   "output": str(shard["output"]),
                   "sha256": str(shard["sha256"]),
                   "records": int(shard["records"])}
                  for shard in manifest["shards"]]
        totals = None
        if with_totals:
            totals = {"elements": manifest["pool"]["elements"],
                      "per_domain": manifest["pool"]["per_domain"]}
            per_domain = totals["per_domain"]
            counts = [totals["elements"], *per_domain.values()]
            if (sorted(per_domain) != sorted(DOMAINS)
                    or not all(type(n) is int and n >= 0 for n in counts)
                    or sum(counts[1:]) != counts[0]):
                raise ValueError(f"pool totals {canonical_json(totals)}")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: not a score manifest ({exc!r})") from exc
    return identity, shards, totals


def run_score(config: RunConfig) -> dict:
    """Score every document in the corpus; returns the manifest dict.

    Existing output shards are kept (crash resume) while they still hash
    to their entry in the out dir's manifest, or, with no manifest, as
    they are; any other shard is scored again. Delete a shard file to
    force its regeneration. An existing manifest whose config hash, pool
    checksum or list of corpus files differs from this run's is refused
    with a DataError before any shard is reused. A run that keeps every
    shard of a manifest loads no pool and builds no matcher: the pool
    totals come from that manifest, written from a pool with the same
    checksum under the same config. Files under the out dir are never
    read as corpus. The manifest and shard bytes are identical whether a
    run was fresh, resumed, or parallel.
    """
    global _G_AUTOMATON, _G_POOL, _G_CONFIG
    started = time.monotonic()
    out_dir = Path(config.out_dir)
    out_root = out_dir.resolve()
    shards = [p for p in sorted(glob.glob(config.corpus, recursive=True))
              if os.path.isfile(p)
              and not Path(p).resolve().is_relative_to(out_root)]
    if not shards:
        raise DataError(f"no corpus files match {config.corpus!r}")

    identity = {"config_hash": config_hash(config),
                "pool.sha256": line_digest(config.pool_path)[0]}
    old = _read_manifest(out_dir, with_totals=True)
    recorded = old[0] if old else identity
    for name, value in identity.items():
        if recorded[name] != value:
            raise DataError(
                f"{out_dir / MANIFEST_NAME}: {name} differs from this run "
                f"({recorded[name]} != {value}); score into a new out dir "
                f"or empty this one")
    # Output shards pair with inputs by position.
    listed = [shard["input"] for shard in old[1]] if old else shards
    for i, (was, now) in enumerate(itertools.zip_longest(listed, shards)):
        if was != now:
            raise DataError(f"{out_dir / MANIFEST_NAME}: corpus file {i + 1} "
                            f"was {was}, this run reads {now}; score into a "
                            f"new out dir or empty this one")
    outputs = [out_dir / f"scores-{i:05d}.jsonl" for i in range(len(shards))]
    kept = _reused_shards(shards, outputs, old[1] if old else None)
    tasks = [(path, str(out)) for i, (path, out)
             in enumerate(zip(shards, outputs)) if i not in kept]
    pool = None
    if tasks or not old:
        pool = load_pool(config.pool_path, strict=config.strict)
        totals = {"elements": pool.total,
                  "per_domain": {d: int(n) for d, n in
                                 sorted(pool.per_domain_total.items())}}
    else:
        # Written after loading a pool of this sha256 under this
        # config_hash, so they are this pool's totals.
        totals = old[2]
    pool_loaded = build_started = time.monotonic()
    automaton = None
    if tasks:
        # Built once per process; warmed here so automaton_build_s
        # times the matcher alone.
        class_table()
        build_started = time.monotonic()
        automaton = build_automaton(pool, MatcherConfig(boundary=config.boundary))
    built_at = time.monotonic()

    _G_AUTOMATON, _G_POOL, _G_CONFIG = automaton, pool, config
    workers = min(config.workers, len(tasks))
    try:
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=workers) as procs:
                scored = procs.map(_score_shard, tasks, chunksize=1)
        else:
            scored = [_score_shard(t) for t in tasks]
    finally:
        _G_AUTOMATON, _G_POOL, _G_CONFIG = None, None, None
    scored_at = time.monotonic()
    elapsed = scored_at - started
    fresh = iter(scored)
    outcomes = [kept[i] if i in kept else next(fresh)
                for i in range(len(shards))]

    total_records = sum(o.records for o in outcomes)
    if total_records == 0:
        log.warning("corpus produced zero scored documents")
    manifest = {
        "version": 1,
        "config": _identity_config(config),
        "config_hash": identity["config_hash"],
        "pool": {
            "path": config.pool_path,
            "sha256": identity["pool.sha256"],
            **totals,
        },
        "records": total_records,
        "shards": [
            {"input": o.input_path, "output": o.output_name,
             "sha256": o.sha256, "records": o.records}
            for o in outcomes
        ],
    }
    with writing(out_dir / MANIFEST_NAME) as dest:
        dest.write(canonical_json(manifest) + "\n")

    input_bytes = sum(os.path.getsize(p) for p in shards)
    read = sum(o.read for o in outcomes)
    # Throughput covers the shards scored by this run, not resumed ones.
    read_bytes = sum(os.path.getsize(o.input_path) for o in scored)
    scoring_s = scored_at - built_at
    bounded = int(automaton.bounded.sum()) if automaton else None
    stats = {
        "elapsed_s": round(elapsed, 3),
        "pool_load_s": round(pool_loaded - started, 3),
        "automaton_build_s": round(built_at - build_started, 3),
        "bounded_patterns": bounded,
        "substring_patterns": pool.total - bounded if automaton else None,
        "workers": workers,
        "input_bytes": input_bytes,
        "docs_read": read,
        "docs_scored": total_records,
        "docs_per_s": round(read / scoring_s, 1) if read else None,
        "mb_per_s": round(read_bytes / scoring_s / 1e6, 2) if read else None,
        "skipped_malformed": sum(o.malformed for o in outcomes),
        "skipped_degenerate": sum(o.degenerate for o in outcomes),
        "density_gt_1": sum(o.density_gt_1 for o in outcomes),
        "replaced_sequences": sum(o.replaced for o in outcomes),
        "resumed_shards": len(kept),
        "pool_load": pool.report.to_dict() if pool and pool.report else None,
    }
    with writing(out_dir / STATS_NAME) as dest:
        dest.write(json.dumps(stats, sort_keys=True, indent=2) + "\n")
    log.info("scored %d documents from %d shards in %.1fs",
             read, len(shards), elapsed)
    return manifest


def load_score_records(scores_dir: str | Path) -> ScoreTable:
    """Every record of a scoring run's output directory, as columns.

    Reads the manifest once, then the shards it lists into the table's
    rows and `shards`, checking each one's sha256 as it reads it. A
    missing manifest, a shard that changed since scoring, a record count
    other than the manifest's, a line that is not a score record or
    holds a malformed value (see ScoreTable.extend_json), a document id
    seen twice (in one shard or across two) and a run with no records
    are each a DataError naming the directory or the shard files.
    """
    scores_dir = Path(scores_dir)
    manifest = _read_manifest(scores_dir)
    if manifest is None:
        raise DataError(f"{scores_dir}: no {MANIFEST_NAME}; phase two reads "
                        f"only the output directory of an `hks score` run")
    table = ScoreTable()
    shard_of: dict[str, Path] = {}
    for shard in manifest[1]:
        path, start = scores_dir / shard["output"], len(table)
        with verified_lines(path, shard["sha256"]) as lines:
            added = table.extend_json(lines, path)
            for doc_id in table.ids[start:]:
                if doc_id in shard_of:
                    raise DataError(f"duplicate document id {doc_id!r} "
                                    f"in {shard_of[doc_id]} and {path}")
                shard_of[doc_id] = path
            if added != shard["records"]:
                raise DataError(f"{path}: holds {added} records, the "
                                f"manifest lists {shard['records']}")
        table.shards.append((path, shard, slice(start, len(table))))
    if not len(table):
        raise DataError(f"score run under {scores_dir} holds zero records")
    return table


def run_select(scores_dir: str, spec: SelectionSpec, out_dir: str,
               emit_corpus: str | None = None) -> dict:
    """Select from a scored run; writes selected.jsonl + selection.json.

    selected.jsonl has one {"id", "n_p", "score"} line per selected
    document in selection order. With emit_corpus set, the corpus line
    `hks score` scored for each selected document is copied there too,
    in corpus order, from the inputs the manifest lists.
    """
    table = load_score_records(scores_dir)
    result = select(table, spec)
    row_of = dict(zip(table.ids, range(len(table))))
    rows = [row_of[doc_id] for doc_id in result.selected_ids]
    scores = table.column(spec.score_field) if rows else []
    if emit_corpus:
        # Written first, so that an input that fails leaves no selection
        # behind. Records are in shard order, so each shard's input is
        # read for the selected ids its score shard holds.
        selected = set(result.selected_ids)
        with writing(emit_corpus) as dest:
            for _, shard, span in table.shards:
                wanted = selected.intersection(table.ids[span])
                in_path = shard["input"]
                with reading(in_path, strict=False) as fh:
                    for _, line, doc in _documents(fh, in_path, strict=False):
                        if doc is not None and doc.id in wanted:
                            wanted.remove(doc.id)
                            dest.write(line + "\n")
                if wanted:
                    raise DataError(f"{in_path}: no longer holds selected "
                                    f"documents {sorted(wanted)}; it "
                                    f"changed after scoring")

    out = Path(out_dir)
    with writing(out / "selected.jsonl") as dest:
        for i in rows:
            dest.write(canonical_json({
                "id": table.ids[i], "n_p": table.n_p[i], "score": scores[i],
            }) + "\n")

    summary = {"spec": asdict(spec), **result.summary()}
    with writing(out / "selection.json") as dest:
        dest.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def run_split(scores_dir: str, token_budget: int, out_dir: str,
              score_field: str = "hks") -> dict:
    """Threshold-split a scored run into high.jsonl / low.jsonl.

    The records are parsed once to find the threshold; a second pass
    then copies each record's score line verbatim to its part, routed by
    its row, checking every shard's sha256 again as it streams.
    """
    from .selection import threshold_split
    table = load_score_records(scores_dir)
    high, low, threshold = threshold_split(table, token_budget, score_field)
    # The high part is every record scoring >= threshold.
    in_high = ([s >= threshold for s in table.column(score_field)]
               if threshold is not None else [False] * len(table))
    out = Path(out_dir)
    with writing(out / "high.jsonl") as high_dest, \
            writing(out / "low.jsonl") as low_dest:
        for path, shard, span in table.shards:
            # A shard whose line count changed fails its sha256 at the end.
            with verified_lines(path, shard["sha256"]) as lines:
                for line, is_high in zip(lines, in_high[span]):
                    (high_dest if is_high else low_dest).write(line + "\n")
    summary = {
        "score_field": score_field,
        "token_budget": token_budget,
        "threshold": threshold,
        "high_records": len(high),
        "high_tokens": sum(high.n_p),
        "low_records": len(low),
        "low_tokens": sum(low.n_p),
    }
    with writing(out / "split.json") as dest:
        dest.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def run_hist(scores_dir: str, metric: str, group_by: str, n_buckets: int,
             out_path: str) -> None:
    table = load_score_records(scores_dir)
    hist = bucket_distribution(table, metric, group_by, n_buckets)
    with writing(out_path) as dest:
        dest.write(hist.to_csv())


def _load_ext_columns(path: str,
                      names: Sequence[str]) -> dict[str, dict[str, float]]:
    """External baseline columns: JSONL of {"id": ..., <name>: value}.
    Of the requested `names`, a bool, NaN or ±Infinity value is a
    DataError and a value that is not a number counts as missing."""
    table: dict[str, dict[str, float]] = {}
    with reading(path, strict=False) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                doc_id = obj["id"]
                table[doc_id] = row = {
                    name: obj[name] for name in names
                    if isinstance(obj.get(name), (int, float))}
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{line_no}: bad external column "
                                f"row ({exc})") from exc
            for name, value in row.items():
                if not finite_numbers([value]):
                    raise DataError(f"{path}:{line_no}: ext:{name} is "
                                    f"{canonical_json(value)}, not a finite "
                                    f"number")
    return table


def run_corr(scores_dir: str, columns: Sequence[str], out_path: str,
             ext_path: str | None = None) -> dict:
    """Pairwise Spearman between score columns, joined on document id.

    Columns are d/c/hks/domain names, or ext:<name> drawn from the
    external JSONL. Documents missing any external value are dropped
    from all columns (inner join) with a warning.
    """
    table = load_score_records(scores_dir)
    ext_names = [c.split(":", 1)[1] for c in columns if c.startswith("ext:")]
    ext = _load_ext_columns(ext_path, ext_names) if ext_path else {}

    kept = table
    if ext_names:
        if not ext_path:
            raise DataError("ext: columns require an external column file")
        kept = table.take([i for i, doc_id in enumerate(table.ids)
                           if all(ext.get(doc_id, {}).get(n) is not None
                                  for n in ext_names)])
        dropped = len(table) - len(kept)
        if dropped:
            log.warning("%d of %d records lack external columns; dropped "
                        "from the correlation", dropped, len(table))
    if len(kept) < 2:
        raise DataError("fewer than 2 records with all requested columns")

    data: dict[str, list[float]] = {}
    for col in columns:
        if col.startswith("ext:"):
            name = col.split(":", 1)[1]
            data[col] = [ext[doc_id][name] for doc_id in kept.ids]
        else:
            data[col] = kept.column(col)
    result = correlation_matrix(data)
    with writing(out_path) as dest:
        dest.write(correlation_json(result) + "\n")
    return result


def load_pairs(path: str) -> list[PreferencePair]:
    pairs = []
    with reading(path, strict=False) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                pairs.append(PreferencePair.from_dict(json.loads(line)))
            except (ValueError, TypeError, DataError) as exc:
                raise DataError(f"{path}:{line_no}: not a preference pair "
                                f"({exc})") from exc
    return pairs


def run_fsearch(pairs_path: str, out_path: str,
                per_pair_normalize: bool = False) -> list:
    pairs = load_pairs(pairs_path)
    rows = function_search(pairs, per_pair_normalize)
    with writing(out_path) as dest:
        dest.write(function_search_csv(rows))
    return rows
