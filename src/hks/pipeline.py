"""End-to-end runs: score a sharded corpus, select, split, analyze.

Scoring reads a glob of JSONL shards (optionally gzipped), annotates
every document against the pool automaton, and writes one score shard
per input shard, with its column file beside it, plus a manifest. The
manifest is a pure function of (pool bytes, corpus bytes, config):
checksums and counts only, no timings. Wall-clock diagnostics go to a
separate run_stats.json sidecar so reruns and crash-resumed runs stay
byte-identical.

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
from typing import Iterable, Iterator, Sequence, TextIO

from .analysis import (PreferencePair, bucket_distribution, check_histogram,
                       correlation_json, correlation_matrix, function_search,
                       function_search_csv)
from .errors import DataError
from .files import (JSON_ERRORS, canonical_json, check_sha256, line_digest,
                    reading, verified_bytes, verified_lines, writing)
# perfbench/spans.py wraps `annotate` and `score_record` here by name, so
# the imports stay (tests/test_imports.py); scoring calls `count_all`,
# `score_columns` and `encode_scores`.
from .matcher import (Automaton, Document, MatcherConfig, annotate, count_all,
                      build_automaton)
from .metrics import (RECORD_SCORES, SCORE_FIELDS, ScoreTable, encode_scores,
                      finite_numbers, score_columns, score_record)
from .pool import KnowledgePool, load_pool
from .selection import SelectionSpec, check_budget, select
from .textnorm import class_table

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
STATS_NAME = "run_stats.json"
# Replaces ".jsonl" in a score shard's name to name its column file.
COLUMNS_SUFFIX = ".columns.json"
# Characters of document text matched per count_all call.
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
    # Neither the worker count nor where the run is written affects
    # output bytes, so neither is identity: a copied out dir resumes.
    return {k: v for k, v in config.canonical().items()
            if k not in ("workers", "out_dir")}


def config_hash(config: RunConfig) -> str:
    payload = _identity_config(config)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class ShardOutcome:
    """A shard this run scored: its manifest `entry` (see `_entry`) and
    counters that describe this run only."""

    entry: dict | None = None
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
        except (*JSON_ERRORS, DataError) as exc:
            if strict:
                if isinstance(exc, DataError):
                    raise
                raise DataError(f"{in_path}:{line_no}: invalid JSON "
                                f"({exc})") from exc
            log.debug("%s:%d: skipped malformed line (%s)",
                      in_path, line_no, exc)
            doc = None
        yield line_no, line, doc


def _json_object(members: dict[str, str]) -> str:
    """The JSON object whose members' values are the JSON texts
    `members` maps their keys to, as canonical_json writes it."""
    return "{" + ",".join(canonical_json(key) + ":" + value
                          for key, value in sorted(members.items())) + "}"


def _write_columns(path: str | Path, texts: dict[str, str],
                   shard_sha256: str, identity: dict) -> str:
    """`write_columns` of the columns whose JSON texts are `texts`."""
    with writing(path) as dest:
        dest.write(_json_object({
            **texts, **{key: canonical_json(value) for key, value in
                        {**identity, "shard_sha256": shard_sha256}.items()}})
            + "\n")
    return line_digest(path)[0]


def write_columns(path: str | Path, columns: dict, shard_sha256: str,
                  **identity: str) -> str:
    """Write to `path` the column file of the score shard whose sha256 is
    `shard_sha256`: its records' `columns`, as `ScoreTable.parse_lines`
    returns them, with the fields `identity` (see `_identity`) beside
    them; returns the file's sha256. Phase two reads the shard's columns
    from it when the manifest lists both (see `load_score_records`)."""
    return _write_columns(path, {name: canonical_json(values)
                                 for name, values in columns.items()},
                          shard_sha256, identity)


def _identity(in_path: str, run_hash: str, pool_sha256: str) -> dict:
    """The input, config_hash and pool sha256 a shard was scored under."""
    return {"input": in_path, "config_hash": run_hash,
            "pool_sha256": pool_sha256}


def _entry(in_path: str, out: Path, sha256: str, records: int,
           columns_sha256: str) -> dict:
    """The manifest entry of the score shard `out` scored from `in_path`,
    whose bytes hash to `sha256` and hold `records` lines, and whose
    column file hashes to `columns_sha256`."""
    return {"input": in_path, "output": out.name, "sha256": sha256,
            "records": records,
            "columns": out.with_suffix(COLUMNS_SUFFIX).name,
            "columns_sha256": columns_sha256}


def _score_shard(task: tuple[str, str, dict]) -> ShardOutcome:
    in_path, out_path, identity = task
    automaton, pool, config = _G_AUTOMATON, _G_POOL, _G_CONFIG
    assert automaton is not None and pool is not None and config is not None
    out = Path(out_path)
    outcome = ShardOutcome()
    # The JSON text of each value of the lines written, in the shape
    # `ScoreTable.parse_lines` returns.
    columns: dict = {"id": [], "n_p": [], "meta": [],
                     **{name: [] for name in RECORD_SCORES}, "domains": {}}

    def score_batch(batch: list[tuple[int, Document]], dest: TextIO) -> None:
        # A batch that scores nothing adds no domain columns either, so a
        # shard without scored records writes "domains":{} as parse_lines
        # reads it.
        if not batch:
            return
        counts = count_all([doc.text for _, doc in batch], automaton)
        if not counts.n_p.all():
            for i in (counts.n_p == 0).nonzero()[0].tolist():
                line_no, doc = batch[i]
                outcome.degenerate += 1
                log.debug("%s:%d: document %r has no tokens; excluded",
                          in_path, line_no, doc.id)
            kept = counts.n_p.nonzero()[0]
            if not kept.size:
                return
            counts = counts.take(kept)
            batch = [batch[i] for i in kept.tolist()]
        ids = [doc.id for _, doc in batch]
        scores = score_columns(ids, counts, pool, config.domain_scores)
        outcome.density_gt_1 += sum(d > 1 for d in scores.d)
        lines, texts = encode_scores(ids, [doc.meta for _, doc in batch],
                                     counts, scores)
        dest.write("".join(line + "\n" for line in lines))
        for name, values in texts.items():
            if name != "domains":
                columns[name] += values
        for name, values in texts["domains"].items():
            columns["domains"].setdefault(name, []).extend(values)

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
    sha256, records = line_digest(out)
    texts = {name: "[" + ",".join(values) + "]"
             for name, values in columns.items() if name != "domains"}
    texts["domains"] = _json_object({
        name: "[" + ",".join(values) + "]"
        for name, values in columns["domains"].items()})
    columns_sha256 = _write_columns(out.with_suffix(COLUMNS_SUFFIX), texts,
                                    sha256, identity)
    outcome.entry = _entry(in_path, out, sha256, records, columns_sha256)
    return outcome


def _read_manifest(scores_dir: Path) -> dict | None:
    """The manifest of a scoring run's output directory as parsed, or
    None when the directory has none. What callers trust is checked and
    nothing is coerced: "config_hash" and "pool.sha256" are present, and
    "shards" is a list of objects whose "input" is a string, "output" a
    file name in the directory (neither holding a NUL), "sha256" a
    string and "records" an int >= 0; an entry that lists a column file
    gives its name under "columns", by the rule of "output", and its
    sha256 under "columns_sha256", a string. Any other manifest is a
    DataError."""
    path = scores_dir / MANIFEST_NAME
    if not path.exists():
        return None

    def file_name(name) -> bool:
        return (isinstance(name, str) and "\0" not in name
                and name not in ("", ".", "..")
                and os.path.basename(name) == name)

    try:
        with reading(path) as fh:
            manifest = json.loads(fh.read())
        manifest["config_hash"], manifest["pool"]["sha256"]  # required
        if not isinstance(manifest["shards"], list):
            raise TypeError("shards is not a list")
        for shard in manifest["shards"]:
            records = shard["records"]
            if not (isinstance(shard["input"], str)
                    and "\0" not in shard["input"]
                    and file_name(shard["output"])
                    and isinstance(shard["sha256"], str)
                    and type(records) is int and records >= 0
                    and ("columns" not in shard
                         or file_name(shard["columns"])
                         and isinstance(shard["columns_sha256"], str))):
                raise ValueError(f"shard entry {shard!r}")
    except (*JSON_ERRORS, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a score manifest ({exc!r})") from exc
    return manifest


def _resume(out_dir: Path, run_hash: str, pool_sha256: str,
            shards: list[str], outputs: list[Path]
            ) -> tuple[dict[int, dict], dict | None]:
    """The manifest entries (see `_entry`) of the outputs a run into
    `out_dir` keeps, by input position, and the out dir's manifest as
    read (None when it has none). A manifest whose config_hash, pool
    sha256 or list of corpus files differs from this run's is a DataError
    before anything is kept. With a manifest, an output is kept only when
    the entry computed from it and its column file on disk equals the
    one listed for its position; without one (a run that crashed before
    writing it), only when its column file names its sha256 and this
    run's identity for its position (see `_identity`). Outputs pair with
    inputs by position."""
    path = out_dir / MANIFEST_NAME
    manifest = _read_manifest(out_dir)
    if manifest is not None:
        for name, was, now in (
                ("config_hash", manifest["config_hash"], run_hash),
                ("pool.sha256", manifest["pool"]["sha256"], pool_sha256)):
            if was != now:
                raise DataError(
                    f"{path}: {name} differs from this run ({was} != {now}); "
                    f"score into a new out dir or empty this one")
        # Output shards pair with inputs by position.
        inputs = (entry["input"] for entry in manifest["shards"])
        for i, (was, now) in enumerate(itertools.zip_longest(inputs, shards)):
            if was != now:
                raise DataError(f"{path}: corpus file {i + 1} was {was}, "
                                f"this run reads {now}; score into a new "
                                f"out dir or empty this one")
    kept: dict[int, dict] = {}
    for i, (in_path, out) in enumerate(zip(shards, outputs)):
        if not out.exists():
            continue
        columns = out.with_suffix(COLUMNS_SUFFIX)
        if columns.is_file():
            sha256, records = line_digest(out)
            entry = _entry(in_path, out, sha256, records,
                           line_digest(columns)[0])
            if manifest is not None:
                keep = entry == manifest["shards"][i]
            else:
                expected = {"shard_sha256": sha256,
                            **_identity(in_path, run_hash, pool_sha256)}
                try:
                    with reading(columns) as fh:
                        named = json.loads(fh.read())
                    keep = {k: named.get(k) for k in expected} == expected
                except (*JSON_ERRORS, DataError, AttributeError):
                    keep = False
            if keep:
                kept[i] = entry
                continue
        log.warning("%s: does not match its manifest entry or column file; "
                    "scoring it again", out)
    return kept, manifest


def run_score(config: RunConfig) -> dict:
    """Score every document in the corpus; returns the manifest dict.

    Outputs of an earlier run into the out dir are kept as `_resume`
    decides and every other shard is scored; a run that keeps every
    shard its manifest lists writes only run_stats.json, as it loads no
    pool and that manifest is the one it would write. Files under the
    out dir are never read as corpus. The manifest and shard bytes are
    identical whether a run was fresh, resumed, or parallel.
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

    run_hash = config_hash(config)
    pool_sha256 = line_digest(config.pool_path)[0]
    outputs = [out_dir / f"scores-{i:05d}.jsonl" for i in range(len(shards))]
    kept, manifest = _resume(out_dir, run_hash, pool_sha256, shards, outputs)
    tasks = [(path, str(out), _identity(path, run_hash, pool_sha256))
             for i, (path, out) in enumerate(zip(shards, outputs))
             if i not in kept]
    pool = None
    if tasks or manifest is None:
        pool = load_pool(config.pool_path, strict=config.strict)
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
    entries = [kept[i] if i in kept else next(fresh).entry
               for i in range(len(shards))]

    total_records = sum(entry["records"] for entry in entries)
    if total_records == 0:
        log.warning("corpus produced zero scored documents")
    if pool is not None:
        manifest = {
            "version": 2,
            "config": _identity_config(config),
            "config_hash": run_hash,
            "pool": {
                "path": config.pool_path,
                "sha256": pool_sha256,
                "elements": pool.total,
                "per_domain": pool.per_domain_total,
            },
            "records": total_records,
            "shards": entries,
        }
        with writing(out_dir / MANIFEST_NAME) as dest:
            dest.write(canonical_json(manifest) + "\n")

    input_bytes = sum(os.path.getsize(p) for p in shards)
    read = sum(o.read for o in scored)
    # Throughput covers the shards scored by this run, not resumed ones.
    read_bytes = sum(os.path.getsize(o.entry["input"]) for o in scored)
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
        "skipped_malformed": sum(o.malformed for o in scored),
        "skipped_degenerate": sum(o.degenerate for o in scored),
        "density_gt_1": sum(o.density_gt_1 for o in scored),
        "replaced_sequences": sum(o.replaced for o in scored),
        "resumed_shards": len(kept),
        "pool_load": pool.report.to_dict() if pool and pool.report else None,
    }
    with writing(out_dir / STATS_NAME) as dest:
        dest.write(json.dumps(stats, sort_keys=True, indent=2) + "\n")
    log.info("scored %d documents from %d shards in %.1fs",
             read, len(shards), elapsed)
    return manifest


def _listed_columns(scores_dir: Path, shard: dict) -> dict | None:
    """The parsed column file the manifest `shard` entry lists, or None
    when it lists none. A listed file whose bytes do not hash to the
    listed sha256, one that is not a JSON object and one that names a
    shard sha256 other than the entry's are each a DataError naming it."""
    if "columns" not in shard:
        return None
    path = scores_dir / shard["columns"]
    data = verified_bytes(path, shard["columns_sha256"])
    try:
        columns = json.loads(data)
        named = columns["shard_sha256"]
    except (*JSON_ERRORS, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a column file ({exc!r})") from exc
    if named != shard["sha256"]:
        raise DataError(f"{path}: names shard sha256 {named}, not the "
                        f"manifest's {shard['sha256']} of {shard['output']}")
    return columns


def load_score_records(scores_dir: str | Path) -> ScoreTable:
    """Every record of a scoring run's output directory, as columns.

    Reads the manifest once, then the shards it lists into the table's
    rows and `shards`, checking each one's sha256 as it reads it. A
    shard's columns come from its column file when the manifest lists
    that file, and otherwise from its lines, parsed once: the same
    columns (see ScoreTable.parse_lines), which one extend_columns call
    checks and appends. A missing manifest, a shard or listed column
    file that changed since scoring, a column file naming another
    shard's sha256, a record count other than the manifest's, a line
    that is not a score record, a malformed column or value, a document
    id seen twice (in one shard or across two) and a run with no records
    are each a DataError naming the directory or the file.
    """
    scores_dir = Path(scores_dir)
    manifest = _read_manifest(scores_dir)
    if manifest is None:
        raise DataError(f"{scores_dir}: no {MANIFEST_NAME}; phase two reads "
                        f"only the output directory of an `hks score` run")
    table = ScoreTable()
    shard_of: dict[str, Path] = {}
    from_columns = 0

    def counted(path: Path, added: int) -> None:
        if added != shard["records"]:
            raise DataError(f"{path}: holds {added} records, the "
                            f"manifest lists {shard['records']}")

    for shard in manifest["shards"]:
        path, start = scores_dir / shard["output"], len(table)
        columns = _listed_columns(scores_dir, shard)
        if columns is None:
            source = path
            with verified_lines(path, shard["sha256"]) as lines:
                columns = table.parse_lines(lines, path)
        else:
            source = scores_dir / shard["columns"]
            digest, count = line_digest(path)
            check_sha256(path, digest, shard["sha256"])
            counted(path, count)
            from_columns += 1
        counted(source, table.extend_columns(columns, source))
        for doc_id in table.ids[start:]:
            if doc_id in shard_of:
                raise DataError(f"duplicate document id {doc_id!r} "
                                f"in {shard_of[doc_id]} and {path}")
            shard_of[doc_id] = path
        table.shards.append((path, shard, slice(start, len(table))))
    log.debug("%s: read %d records from %d shards: %d from column files, "
              "%d parsed", scores_dir, len(table), len(table.shards),
              from_columns, len(table.shards) - from_columns)
    if not len(table):
        raise DataError(f"score run under {scores_dir} holds zero records")
    return table


def _check_outputs(inputs: Iterable[str | Path], *outputs: str | Path) -> None:
    """A DataError naming the first of `outputs` that is one of
    `inputs`, the files the command reads, or an output before it."""
    taken = {Path(p).resolve() for p in inputs}
    for out in outputs:
        resolved = Path(out).resolve()
        if resolved in taken:
            raise DataError(f"{out}: is a file this command reads or "
                            f"another of its outputs; write it elsewhere")
        taken.add(resolved)


def _open_run(scores_dir: str | Path, outputs: Sequence[str | Path],
              reads: Sequence[str | Path] = ()) -> ScoreTable:
    """The records of the score run under `scores_dir`, as
    `load_score_records` reads them, for a command that writes `outputs`
    and also reads `reads`. An output that is the run's manifest, a score
    shard, column file or corpus input it lists, one of `reads` or an
    output before it is a DataError naming it."""
    table = load_score_records(scores_dir)
    files = [Path(scores_dir) / MANIFEST_NAME, *reads]
    for path, shard, _ in table.shards:
        files += (path, path.with_name(shard.get("columns", path.name)),
                  Path(shard["input"]))
    _check_outputs(files, *outputs)
    return table


def run_select(scores_dir: str, spec: SelectionSpec, out_dir: str,
               emit_corpus: str | None = None) -> dict:
    """Select from a scored run; writes selected.jsonl + selection.json.

    selected.jsonl has one {"id", "n_p", "score"} line per selected
    document in selection order. With emit_corpus set, the corpus line
    `hks score` scored for each selected document is copied there too,
    in corpus order, from the inputs the manifest lists.
    """
    out = Path(out_dir)
    table = _open_run(scores_dir, [*([emit_corpus] if emit_corpus else []),
                                   out / "selected.jsonl",
                                   out / "selection.json"])
    result = select(table, spec)
    row_of = dict(zip(table.ids, range(len(table))))
    rows = [row_of[doc_id] for doc_id in result.selected_ids]
    scores = table.column(spec.score_field)
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
    then copies each record's score line verbatim to the part
    `threshold_split` put its id in, checking every shard's sha256 again
    as it streams.
    """
    from .selection import threshold_split
    check_budget(token_budget)
    out = Path(out_dir)
    table = _open_run(scores_dir, [out / "high.jsonl", out / "low.jsonl",
                                   out / "split.json"])
    high, low, threshold = threshold_split(table, token_budget, score_field)
    high_ids = set(high.ids)
    with writing(out / "high.jsonl") as high_dest, \
            writing(out / "low.jsonl") as low_dest:
        for path, shard, span in table.shards:
            # A shard whose line count changed fails its sha256 at the end.
            with verified_lines(path, shard["sha256"]) as lines:
                for line, doc_id in zip(lines, table.ids[span]):
                    dest = high_dest if doc_id in high_ids else low_dest
                    dest.write(line + "\n")
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
    check_histogram(metric, n_buckets)
    table = _open_run(scores_dir, [out_path])
    hist = bucket_distribution(table, metric, group_by, n_buckets)
    with writing(out_path) as dest:
        dest.write(hist.to_csv())


def _jsonl_rows(path: str, what: str, parse) -> Iterator:
    """`parse(value, line number)` of the JSON value on each non-blank
    line of the file at `path`, which is read as lenient UTF-8. A line
    that does not decode, and one `parse` raises a KeyError, TypeError,
    ValueError or DataError on, is a DataError naming `path:line`,
    `what` and the error."""
    with reading(path, strict=False) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = parse(json.loads(line), line_no)
            except (*JSON_ERRORS, KeyError, TypeError, DataError) as exc:
                raise DataError(f"{path}:{line_no}: {what} ({exc})") from exc
            yield row


def _load_ext_columns(path: str,
                      names: Sequence[str]) -> dict[str, dict[str, float]]:
    """External baseline columns: JSONL of {"id": ..., <name>: value}.
    An id on two lines is a DataError naming both; of the requested
    `names`, a bool, NaN or ±Infinity value is a DataError and a value
    that is not a number counts as missing."""
    table: dict[str, dict[str, float]] = {}
    line_of: dict[str, int] = {}

    def parse(obj, line_no: int) -> tuple:
        doc_id = obj["id"]
        return (line_no, doc_id, line_of.setdefault(doc_id, line_no),
                {name: obj[name] for name in names
                 if isinstance(obj.get(name), (int, float))})

    for line_no, doc_id, first, row in _jsonl_rows(
            path, "bad external column row", parse):
        if first != line_no:
            raise DataError(f"{path}:{line_no}: duplicate id {doc_id!r}, "
                            f"first on line {first}")
        for name, value in row.items():
            if not finite_numbers([value]):
                raise DataError(f"{path}:{line_no}: ext:{name} is "
                                f"{canonical_json(value)}, not a finite "
                                f"number")
        table[doc_id] = row
    return table


def run_corr(scores_dir: str, columns: Sequence[str], out_path: str,
             ext_path: str | None = None) -> dict:
    """Pairwise Spearman between score columns, joined on document id.

    Columns are d/c/hks/domain names, or ext:<name> drawn from the
    external JSONL. Documents missing any external value are dropped
    from all columns (inner join) with a warning.
    """
    ext_names = [c.split(":", 1)[1] for c in columns if c.startswith("ext:")]
    if ext_names and not ext_path:
        raise DataError("ext: columns require an external column file")
    for col in columns:
        if not col.startswith("ext:") and col not in SCORE_FIELDS:
            raise DataError(f"no score field {col!r}; available: "
                            f"{', '.join(SCORE_FIELDS)}, ext:<name>")
        if columns.count(col) > 1:
            raise DataError(f"column {col!r} is named more than once")
    table = _open_run(scores_dir, [out_path], [ext_path] if ext_path else [])
    ext = _load_ext_columns(ext_path, ext_names) if ext_path else {}
    kept = table
    if ext_names:
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
    return list(_jsonl_rows(path, "not a preference pair",
                            lambda obj, _: PreferencePair.from_dict(obj)))


def run_fsearch(pairs_path: str, out_path: str,
                per_pair_normalize: bool = False) -> list:
    _check_outputs([pairs_path], out_path)
    pairs = load_pairs(pairs_path)
    try:
        rows = function_search(pairs, per_pair_normalize)
    except DataError as exc:
        raise DataError(f"{pairs_path}: {exc}") from exc
    with writing(out_path) as dest:
        dest.write(function_search_csv(rows))
    return rows
