"""Corpus scoring runs: sharded output, manifest, resume, downstream ops."""

import gzip
import json
import math
import re
import shutil
from pathlib import Path

import pytest

import hks.pipeline
from hks import DataError, ScoreRecord, SelectionSpec
from hks.files import line_digest
from hks.pipeline import (RunConfig, config_hash, load_score_records, run_corr,
                          run_fsearch, run_hist, run_score, run_select,
                          run_split)
from hks.selection import threshold_split

POOL_TSV = """\
machine learning\tscience
graph theory\tscience
jazz\tart
social contract\tsociety
meditation\tlife
"""

DOC_A = {"id": "doc-a",
         "text": "Machine learning and graph theory inform machine "
                 "learning practice.",
         "meta": {"subset": "enc"}}
DOC_B = {"id": "doc-b",
         "text": "Jazz, meditation, and the social contract.",
         "meta": {"subset": "web"}}
DOC_C = {"id": "doc-c", "text": "Nothing relevant here at all."}

# Ids and meta holding U+2028 and U+0085, which str.splitlines() splits
# on and `hks score` writes raw, beside accented and CJK text.
UNICODE_DOCS = [
    {"id": "line\u2028sep", "text": "Machine learning and jazz.",
     "meta": {"subset": "a\u0085b"}},
    {"id": "café", "text": "Graph theory, graph theory and meditation.",
     "meta": {"note": "東京\u2028"}},
    {"id": "東京-\u0085", "text": "The social contract is jazz."},
    {"id": "plain", "text": "Nothing matches here."},
    {"id": "ünï\u2029", "text": "machine learning machine learning",
     "meta": {"k": "é\u2028\u0085"}},
]

A_HKS = (3 / 9) * math.log1p(2 / 5)
B_HKS = (3 / 6) * math.log1p(3 / 5)


def write_corpus(root: Path, shards) -> str:
    corpus = root / "shards"
    corpus.mkdir(exist_ok=True)
    for i, docs in enumerate(shards):
        path = corpus / f"shard-{i:03d}.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                        encoding="utf-8")
    return str(corpus / "shard-*.jsonl")


def scored_records(out_dir) -> list[ScoreRecord]:
    """The records a scoring run wrote, in shard order; lines are split
    on "\n" alone, since score lines hold U+2028 and U+0085 raw."""
    return [ScoreRecord.from_json(line)
            for path in sorted(Path(out_dir).glob("scores-*.jsonl"))
            for line in path.read_text(encoding="utf-8").split("\n") if line]


def toy_config(root: Path, **kw) -> RunConfig:
    pool_path = root / "pool.tsv"
    if not pool_path.exists():
        pool_path.write_text(POOL_TSV, encoding="utf-8")
    corpus = write_corpus(root, [[DOC_A], [DOC_B], [DOC_C]])
    defaults = dict(pool_path=str(pool_path), corpus=corpus,
                    out_dir=str(root / "out"))
    defaults.update(kw)
    return RunConfig(**defaults)


def files_under(root: Path) -> dict[Path, bytes]:
    """Bytes of every file under `root`."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def snapshot(out_dir: str) -> dict[str, bytes]:
    """Bytes of every deterministic output (run_stats.json excluded)."""
    out = Path(out_dir)
    files = sorted(p for p in out.iterdir()
                   if p.name == "manifest.json" or p.name.startswith("scores-"))
    return {p.name: p.read_bytes() for p in files}


class TestScoreRun:
    def test_hand_computed_records(self, tmp_path):
        config = toy_config(tmp_path)
        manifest = run_score(config)
        records = {r.doc_id: r
                   for r in scored_records(config.out_dir)}
        assert set(records) == {"doc-a", "doc-b", "doc-c"}

        a = records["doc-a"]
        assert (a.n_p, a.n_k, a.n_distinct) == (9, 3, 2)
        assert a.d == 3 / 9
        assert a.c == 2 / 5
        assert a.hks == A_HKS
        sci = a.domains["science"]
        assert (sci["n"], sci["distinct"]) == (3, 2)
        assert sci["c"] == 1.0
        assert sci["score"] == (3 / 9) * math.log1p(1.0)
        assert a.domains["art"]["score"] == 0.0
        assert a.domains["culture"] == {"n": 0, "distinct": 0, "d": 0.0,
                                        "c": 0.0, "score": 0.0}
        assert a.meta == {"subset": "enc"}

        b = records["doc-b"]
        assert (b.n_p, b.n_k, b.n_distinct) == (6, 3, 3)
        assert b.d == 0.5 and b.c == 3 / 5 and b.hks == B_HKS
        assert b.domains["art"]["d"] == 1 / 6
        assert b.domains["life"]["c"] == 1.0

        c = records["doc-c"]
        assert (c.n_k, c.d, c.c, c.hks) == (0, 0.0, 0.0, 0.0)
        assert c.meta is None

        assert manifest["records"] == 3
        assert len(manifest["shards"]) == 3

    def test_manifest_contents(self, tmp_path):
        config = toy_config(tmp_path)
        manifest = run_score(config)
        assert manifest["pool"]["sha256"] == line_digest(config.pool_path)[0]
        assert manifest["pool"]["elements"] == 5
        assert manifest["pool"]["per_domain"] == {
            "art": 1, "culture": 0, "life": 1, "science": 2, "society": 1}
        assert manifest["config_hash"] == config_hash(config)
        assert "workers" not in manifest["config"]
        for i, shard in enumerate(manifest["shards"]):
            assert shard["output"] == f"scores-{i:05d}.jsonl"
            assert shard["records"] == 1
        on_disk = json.loads(
            (Path(config.out_dir) / "manifest.json").read_text())
        assert on_disk == manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        shutil.rmtree(config.out_dir)
        run_score(config)
        assert snapshot(config.out_dir) == first

    def test_worker_count_never_changes_bytes(self, tmp_path):
        config = toy_config(tmp_path)
        run_score(config)
        serial = snapshot(config.out_dir)
        shutil.rmtree(config.out_dir)
        run_score(RunConfig(**{**config.canonical(), "workers": 2}))
        assert snapshot(config.out_dir) == serial

    def test_resume_regenerates_only_missing_shards(self, tmp_path):
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        out = Path(config.out_dir)
        (out / "scores-00001.jsonl").unlink()
        (out / "manifest.json").unlink()
        run_score(config)
        assert snapshot(config.out_dir) == first
        stats = json.loads((out / "run_stats.json").read_text())
        assert stats["resumed_shards"] == 2
        # Every toy surface is word-bounded, so none takes the substring path.
        assert stats["bounded_patterns"] + stats["substring_patterns"] == 5
        assert stats["substring_patterns"] == 0
        # Throughput covers only the one shard this run scored.
        assert stats["docs_read"] > 0
        assert stats["docs_per_s"] > 0 and stats["mb_per_s"] >= 0
        assert 0 <= stats["automaton_build_s"] <= stats["elapsed_s"]
        assert 0 <= stats["pool_load_s"] <= stats["elapsed_s"]
        run_score(config)
        stats = json.loads((out / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (3, 0)
        assert (stats["docs_per_s"], stats["mb_per_s"]) == (None, None)

    def test_resume_refuses_changed_config_or_pool(self, tmp_path):
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        changed = RunConfig(**{**config.canonical(), "boundary": False,
                               "domain_scores": False})
        with pytest.raises(DataError, match="config_hash"):
            run_score(changed)
        Path(config.pool_path).write_text(POOL_TSV + "free jazz\tart\n",
                                          encoding="utf-8")
        with pytest.raises(DataError, match="pool.sha256"):
            run_score(config)
        assert snapshot(config.out_dir) == first
        (Path(config.out_dir) / "manifest.json").write_text("[]\n")
        with pytest.raises(DataError, match="not a score manifest"):
            run_score(config)

    @pytest.mark.parametrize("change", ["added", "removed"])
    def test_resume_refuses_changed_corpus_files(self, tmp_path, change):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        data = tmp_path / "data"
        data.mkdir()
        for name, doc in (("a", DOC_A), ("z", DOC_B)):
            (data / f"{name}.jsonl").write_text(json.dumps(doc) + "\n",
                                                encoding="utf-8")
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=str(data / "*.jsonl"),
                           out_dir=str(tmp_path / "out"))
        run_score(config)
        first = snapshot(config.out_dir)
        if change == "added":
            (data / "b.jsonl").write_text(json.dumps(DOC_C) + "\n",
                                          encoding="utf-8")
            position, was, now = 2, data / "z.jsonl", data / "b.jsonl"
        else:
            (data / "a.jsonl").unlink()
            position, was, now = 1, data / "a.jsonl", data / "z.jsonl"
        manifest = Path(config.out_dir) / "manifest.json"
        with pytest.raises(DataError, match=re.escape(
                f"{manifest}: corpus file {position} was {was}, this run "
                f"reads {now};")):
            run_score(config)
        assert snapshot(config.out_dir) == first

    def test_rerun_scoring_nothing_loads_no_pool(self, tmp_path, monkeypatch):
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)

        def refuse(*args, **kwargs):
            raise AssertionError("a rerun that scores nothing called this")

        monkeypatch.setattr(hks.pipeline, "load_pool", refuse)
        monkeypatch.setattr(hks.pipeline, "build_automaton", refuse)
        run_score(config)
        assert snapshot(config.out_dir) == first
        stats = json.loads((Path(config.out_dir) / "run_stats.json").read_text())
        assert stats["resumed_shards"] == 3
        assert stats["automaton_build_s"] == 0
        assert (stats["bounded_patterns"], stats["substring_patterns"],
                stats["pool_load"]) == (None, None, None)

    @pytest.mark.parametrize("manifest", ["kept", "deleted"])
    def test_deleted_shard_loads_and_builds(self, tmp_path, monkeypatch,
                                            manifest):
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        calls = []
        for name in ("load_pool", "build_automaton"):
            real = getattr(hks.pipeline, name)
            monkeypatch.setattr(
                hks.pipeline, name,
                lambda *a, name=name, real=real, **kw:
                    calls.append(name) or real(*a, **kw))
        out = Path(config.out_dir)
        (out / "scores-00001.jsonl").unlink()
        if manifest == "deleted":
            (out / "manifest.json").unlink()
        run_score(config)
        assert calls == ["load_pool", "build_automaton"]
        assert snapshot(config.out_dir) == first

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("edit", ["rewritten", "truncated", "emptied"])
    def test_edited_shard_is_scored_again(self, tmp_path, caplog, edit,
                                          workers):
        config = toy_config(tmp_path, workers=workers)
        run_score(config)
        first = snapshot(config.out_dir)
        shard = Path(config.out_dir) / "scores-00000.jsonl"
        data = shard.read_bytes()
        shard.write_bytes({
            "rewritten": data.replace(b'"n_p":9', b'"n_p":8', 1),
            "truncated": data[:len(data) // 2],
            "emptied": b"",
        }[edit])
        assert shard.read_bytes() != data
        with caplog.at_level("WARNING", logger="hks.pipeline"):
            run_score(config)
        assert snapshot(config.out_dir) == first
        assert any(str(shard) in r.getMessage() for r in caplog.records)
        stats = json.loads((Path(config.out_dir) / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (2, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("manifest", ["kept", "deleted"])
    @pytest.mark.parametrize("edit", ["deleted", "stale", "not-json"])
    def test_shard_without_its_column_file_is_scored_again(
            self, tmp_path, caplog, edit, manifest, workers):
        config = toy_config(tmp_path, workers=workers)
        run_score(config)
        first = snapshot(config.out_dir)
        out = Path(config.out_dir)
        columns = out / "scores-00001.columns.json"
        if edit == "deleted":
            columns.unlink()
        elif edit == "stale":  # names another shard's sha256
            data = json.loads(columns.read_text(encoding="utf-8"))
            data["shard_sha256"] = "0" * 64
            columns.write_text(json.dumps(data), encoding="utf-8")
        else:
            columns.write_text("{not json", encoding="utf-8")
        if manifest == "deleted":
            (out / "manifest.json").unlink()
        with caplog.at_level("WARNING", logger="hks.pipeline"):
            run_score(config)
        assert snapshot(config.out_dir) == first
        assert any(str(out / "scores-00001.jsonl") in r.getMessage()
                   for r in caplog.records)
        stats = json.loads((out / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (2, 1)

    def test_out_dir_of_a_version_1_run_is_scored_again(self, tmp_path):
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        out = Path(config.out_dir)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["version"] = 1
        for shard in manifest["shards"]:
            (out / shard.pop("columns")).unlink()
            del shard["columns_sha256"]
        path.write_text(json.dumps(manifest))
        table = load_score_records(out)  # phase two parses its shards
        assert table.ids == ["doc-a", "doc-b", "doc-c"]
        run_score(config)
        assert snapshot(config.out_dir) == first
        stats = json.loads((out / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (0, 3)

    def test_rerun_keeping_every_shard_leaves_the_manifest(self, tmp_path,
                                                          monkeypatch):
        config = toy_config(tmp_path)
        run_score(config)
        out = Path(config.out_dir)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["pool"]["elements"] = 6  # hand-edited; never read
        path.write_text(json.dumps(manifest))
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        written = []
        real = hks.pipeline.writing
        monkeypatch.setattr(hks.pipeline, "writing",
                            lambda dest, *a, **kw: written.append(
                                Path(dest).name) or real(dest, *a, **kw))
        assert run_score(config) == manifest
        assert written == ["run_stats.json"]
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before

        # Scoring one shard again loads the pool, whose totals replace
        # the edited ones.
        (out / "scores-00001.jsonl").unlink()
        written.clear()
        assert run_score(config)["pool"]["elements"] == 5
        assert written == ["scores-00001.jsonl", "scores-00001.columns.json",
                           "manifest.json", "run_stats.json"]
        assert json.loads(path.read_text())["pool"]["elements"] == 5

    def test_entry_naming_another_output_is_scored_again(self, tmp_path):
        """A rerun keeps the manifest only when it is the one the rerun
        would write, so an entry must name its own output."""
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        path = Path(config.out_dir) / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"][0]["output"] = "scores-00001.jsonl"
        path.write_text(json.dumps(manifest))
        run_score(config)
        assert snapshot(config.out_dir) == first

    def test_entry_with_another_field_is_scored_again(self, tmp_path,
                                                      caplog):
        """A listed entry holding a field the rerun would not write is not
        the entry it would write: its shard is scored again and the
        manifest is rewritten."""
        config = toy_config(tmp_path)
        run_score(config)
        first = snapshot(config.out_dir)
        out = Path(config.out_dir)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["shards"][1]["note"] = "hand-added"
        path.write_text(json.dumps(manifest))
        with caplog.at_level("WARNING", logger="hks.pipeline"):
            run_score(config)
        assert snapshot(config.out_dir) == first
        assert any(str(out / "scores-00001.jsonl") in r.getMessage()
                   for r in caplog.records)
        stats = json.loads((out / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (2, 1)

    def test_copied_out_dir_keeps_every_shard(self, tmp_path):
        """The out dir is not part of config_hash, so a rerun into a copy
        of it keeps every shard and leaves the manifest as it is."""
        config = toy_config(tmp_path)
        run_score(config)
        copy = tmp_path / "copy"
        shutil.copytree(config.out_dir, copy)
        run_score(RunConfig(**{**config.canonical(), "out_dir": str(copy)}))
        assert snapshot(str(copy)) == snapshot(config.out_dir)
        stats = json.loads((copy / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (3, 0)

    def test_crash_resume_into_a_copy_keeps_its_shards(self, tmp_path):
        """With no manifest, the column files of a copied out dir still
        name this run's identity, so only the shard whose column file is
        not JSON is scored again."""
        config = toy_config(tmp_path)
        run_score(config)
        copy = tmp_path / "copy"
        shutil.copytree(config.out_dir, copy)
        (copy / "manifest.json").unlink()
        (copy / "scores-00001.columns.json").write_text("{not json",
                                                        encoding="utf-8")
        run_score(RunConfig(**{**config.canonical(), "out_dir": str(copy)}))
        assert snapshot(str(copy)) == snapshot(config.out_dir)
        stats = json.loads((copy / "run_stats.json").read_text())
        assert (stats["resumed_shards"], stats["docs_read"]) == (2, 1)

    @pytest.mark.parametrize("change", ["flags", "pool", "corpus"])
    def test_crash_resume_keeps_only_shards_of_this_run(self, tmp_path,
                                                        change):
        """A rerun without a manifest keeps a shard only when its column
        file names this run's config_hash, pool sha256 and input."""
        pool = tmp_path / "pool.tsv"
        pool.write_text(POOL_TSV, encoding="utf-8")
        data = tmp_path / "c"
        data.mkdir()
        for name, doc in (("a", DOC_A), ("z", DOC_B)):
            (data / f"{name}.jsonl").write_text(json.dumps(doc) + "\n",
                                                encoding="utf-8")
        config = RunConfig(pool_path=str(pool), corpus=str(data / "*.jsonl"),
                           out_dir=str(tmp_path / "out"))
        run_score(config)
        out = Path(config.out_dir)
        (out / "manifest.json").unlink()  # crashed before writing it
        if change == "flags":
            config = RunConfig(**{**config.canonical(),
                                  "domain_scores": False})
        elif change == "pool":
            pool.write_text(POOL_TSV.replace("meditation\tlife\n", ""),
                            encoding="utf-8")
        else:  # sorts between a and z, so z's output now pairs with b
            (data / "b.jsonl").write_text(json.dumps(DOC_C) + "\n",
                                          encoding="utf-8")
        run_score(config)
        resumed = snapshot(config.out_dir)
        stats = json.loads((out / "run_stats.json").read_text())
        assert stats["resumed_shards"] == (1 if change == "corpus" else 0)
        shutil.rmtree(out)
        run_score(config)
        assert resumed == snapshot(config.out_dir)

    def test_gzip_shards(self, tmp_path):
        pool_path = tmp_path / "pool.tsv"
        pool_path.write_text(POOL_TSV, encoding="utf-8")
        shard = tmp_path / "part.jsonl.gz"
        with gzip.open(shard, "wt", encoding="utf-8") as f:
            f.write(json.dumps(DOC_A) + "\n")
        config = RunConfig(pool_path=str(pool_path),
                           corpus=str(tmp_path / "*.jsonl.gz"),
                           out_dir=str(tmp_path / "out"))
        run_score(config)
        table = load_score_records(config.out_dir)
        assert table.ids == ["doc-a"] and table.column("hks") == [A_HKS]

    def test_no_matching_corpus(self, tmp_path):
        config = toy_config(tmp_path, corpus=str(tmp_path / "nope-*.jsonl"))
        with pytest.raises(DataError, match="no corpus files"):
            run_score(config)

    def test_empty_corpus_file_warns(self, tmp_path, caplog):
        pool_path = tmp_path / "pool.tsv"
        pool_path.write_text(POOL_TSV, encoding="utf-8")
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        config = RunConfig(pool_path=str(pool_path),
                           corpus=str(tmp_path / "*.jsonl"),
                           out_dir=str(tmp_path / "out"))
        with caplog.at_level("WARNING", logger="hks.pipeline"):
            manifest = run_score(config)
        assert manifest["records"] == 0
        assert any("zero scored" in r.message for r in caplog.records)

    def test_malformed_lines_lenient_vs_strict(self, tmp_path):
        root = tmp_path / "lenient"
        root.mkdir()
        (root / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        shard = root / "shards"
        shard.mkdir()
        (shard / "shard-000.jsonl").write_text(
            "this is not json\n" + json.dumps(DOC_A) + "\n"
            + json.dumps({"id": "no-text"}) + "\n",
            encoding="utf-8")
        config = RunConfig(pool_path=str(root / "pool.tsv"),
                           corpus=str(shard / "*.jsonl"),
                           out_dir=str(root / "out"))
        manifest = run_score(config)
        assert manifest["records"] == 1
        stats = json.loads((Path(config.out_dir) / "run_stats.json").read_text())
        assert stats["skipped_malformed"] == 2

        strict = RunConfig(**{**config.canonical(), "strict": True,
                              "out_dir": str(root / "out-strict")})
        with pytest.raises(DataError, match="shard-000.jsonl:1"):
            run_score(strict)

    def test_duplicate_id_within_shard(self, tmp_path):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        corpus = write_corpus(tmp_path, [[DOC_A, DOC_A]])
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=corpus, out_dir=str(tmp_path / "out"),
                           strict=True)
        with pytest.raises(DataError, match="duplicate id"):
            run_score(config)

    def test_duplicate_id_across_shards_allowed(self, tmp_path):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        corpus = write_corpus(tmp_path, [[DOC_A], [DOC_A]])
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=corpus, out_dir=str(tmp_path / "out"))
        assert run_score(config)["records"] == 2

    def test_degenerate_documents_excluded(self, tmp_path):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        corpus = write_corpus(
            tmp_path, [[DOC_A, {"id": "doc-x", "text": "!!! ??? ..."}]])
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=corpus, out_dir=str(tmp_path / "out"))
        manifest = run_score(config)
        assert manifest["records"] == 1
        stats = json.loads((Path(config.out_dir) / "run_stats.json").read_text())
        assert stats["skipped_degenerate"] == 1

    @pytest.mark.parametrize("batch_chars", [1, 2**30])
    def test_batch_size_never_changes_bytes(self, tmp_path, caplog,
                                            monkeypatch, batch_chars):
        (tmp_path / "pool.tsv").write_text(POOL_TSV + "東京\tculture\n",
                                           encoding="utf-8")
        texts = [d["text"] for d in [DOC_A, DOC_B, DOC_C, *UNICODE_DOCS]]
        # Over 2**16 characters, so the default size makes several batches.
        docs = [{"id": f"d{i}", "text": texts[i % len(texts)]}
                for i in range(2500)]
        docs[700:700] = [{"id": "none", "text": "!!! ..."},
                         {"id": "empty", "text": ""}]
        corpus = write_corpus(tmp_path, [docs, UNICODE_DOCS])
        shard = Path(corpus).parent / "shard-000.jsonl"
        shard.write_text(shard.read_text(encoding="utf-8") + "{not json\n"
                         + json.dumps(DOC_A) + "\n", encoding="utf-8")
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=corpus, out_dir=str(tmp_path / "out"))
        stats_path = Path(config.out_dir) / "run_stats.json"
        counters = ("docs_read", "docs_scored", "skipped_malformed",
                    "skipped_degenerate", "density_gt_1")

        def run():
            shutil.rmtree(config.out_dir, ignore_errors=True)
            caplog.clear()
            with caplog.at_level("DEBUG", logger="hks.pipeline"):
                run_score(config)
            stats = json.loads(stats_path.read_text())
            return (snapshot(config.out_dir),
                    [stats[k] for k in counters],
                    [r.getMessage() for r in caplog.records
                     if "no tokens" in r.getMessage()])

        default = run()
        monkeypatch.setattr(hks.pipeline, "BATCH_CHARS", batch_chars)
        assert run() == default
        assert default[1] == [2509, 2506, 1, 2, 0]
        assert default[2] == [
            f"{shard}:{line}: document {doc_id!r} has no tokens; excluded"
            for line, doc_id in [(701, "none"), (702, "empty")]]

    def test_density_above_one_counted(self, tmp_path):
        (tmp_path / "pool.tsv").write_text("ab\tscience\n", encoding="utf-8")
        corpus = write_corpus(tmp_path, [[{"id": "d", "text": "abab abab"}]])
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=corpus, out_dir=str(tmp_path / "out"),
                           boundary=False)
        run_score(config)
        assert load_score_records(config.out_dir).column("d") == [2.0]
        # 4 occurrences over 2 tokens
        stats = json.loads((Path(config.out_dir) / "run_stats.json").read_text())
        assert stats["density_gt_1"] == 1
        assert (stats["bounded_patterns"], stats["substring_patterns"]) == (0, 1)


@pytest.fixture()
def scored(tmp_path):
    config = toy_config(tmp_path)
    run_score(config)
    return tmp_path, config


class TestDownstream:
    def test_select_topk(self, scored):
        root, config = scored
        spec = SelectionSpec(strategy="topk", budget=15)
        summary = run_select(config.out_dir, spec, str(root / "sel"))
        assert summary["selected"] == 2
        assert summary["total_tokens"] == 15
        lines = [json.loads(s) for s in
                 (root / "sel" / "selected.jsonl").read_text().splitlines()]
        assert [l["id"] for l in lines] == ["doc-b", "doc-a"]
        assert lines[0] == {"id": "doc-b", "n_p": 6, "score": B_HKS}
        spec_json = json.loads((root / "sel" / "selection.json").read_text())
        assert spec_json["spec"]["strategy"] == "topk"
        assert spec_json["threshold"] == A_HKS

    def test_select_emit_corpus(self, scored):
        root, config = scored
        spec = SelectionSpec(strategy="topk", budget=15)
        emitted = root / "picked.jsonl"
        run_select(config.out_dir, spec, str(root / "sel"),
                   emit_corpus=str(emitted))
        docs = [json.loads(s) for s in emitted.read_text().splitlines()]
        # Source documents come back in corpus order, untouched.
        assert docs == [DOC_A, DOC_B]

    @pytest.mark.parametrize("shards", [
        # The scorer skips the second doc-a as a duplicate.
        [[DOC_A, {**DOC_A, "text": "jazz"}], [DOC_B]],
        # The scorer skips the first doc-a, whose meta is not an object.
        [[{**DOC_A, "meta": "enc"}, DOC_B], [DOC_A]],
        # A skipped line does not claim its id for the shard.
        [[{**DOC_A, "meta": "enc"}, DOC_A], [DOC_B]],
    ], ids=["duplicate", "bad-meta", "bad-meta-then-valid"])
    def test_emit_corpus_copies_only_the_scored_line(self, tmp_path, shards):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=write_corpus(tmp_path, shards),
                           out_dir=str(tmp_path / "out"))
        run_score(config)
        emitted = tmp_path / "picked.jsonl"
        run_select(config.out_dir,
                   SelectionSpec(strategy="topk", budget=2, by_docs=True),
                   str(tmp_path / "sel"), emit_corpus=str(emitted))
        scored = [doc for docs in shards for doc in docs
                  if doc in (DOC_A, DOC_B)]
        assert emitted.read_text(encoding="utf-8") == "".join(
            json.dumps(doc) + "\n" for doc in scored)

    def test_emit_corpus_names_a_missing_document(self, scored):
        root, config = scored
        shard = Path(config.corpus.replace("*", "001"))
        shard.write_text(json.dumps({**DOC_B, "id": "doc-z"}) + "\n",
                         encoding="utf-8")
        emitted = root / "picked.jsonl"
        with pytest.raises(DataError, match=re.escape(f"{shard}: ") + ".*'doc-b'"):
            run_select(config.out_dir, SelectionSpec(strategy="topk", budget=15),
                       str(root / "sel"), emit_corpus=str(emitted))
        assert not emitted.exists() and not (root / "sel").exists()

    @pytest.mark.parametrize("target", ["input", "manifest", "shard"])
    def test_emit_corpus_refuses_a_file_of_the_run(self, scored, target):
        root, config = scored
        out = Path(config.out_dir)
        emitted = {
            # Spelled otherwise than the manifest's input path.
            "input": root / "shards" / ".." / "shards" / "shard-000.jsonl",
            "manifest": out / "manifest.json",
            "shard": out / "scores-00001.jsonl",
        }[target]
        before = files_under(root)
        with pytest.raises(DataError, match=re.escape(f"{emitted}: ")):
            run_select(config.out_dir, SelectionSpec(strategy="topk", budget=15),
                       str(root / "sel"), emit_corpus=str(emitted))
        assert files_under(root) == before

    def test_run_with_zero_records_is_refused(self, tmp_path):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        config = RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                           corpus=write_corpus(
                               tmp_path, [[{"id": "blank", "text": ""}], []]),
                           out_dir=str(tmp_path / "out"))
        run_score(config)
        manifest = json.loads((Path(config.out_dir) / "manifest.json").read_text())
        assert [s["records"] for s in manifest["shards"]] == [0, 0]
        with pytest.raises(DataError, match="holds zero records"):
            run_split(config.out_dir, 6, str(tmp_path / "split"))
        assert not (tmp_path / "split").exists()

    @pytest.mark.parametrize("command", ["select", "split", "hist", "corr"])
    def test_phase_two_reads_the_manifest_once(self, scored, monkeypatch,
                                               command):
        root, config = scored
        reads, real = [], hks.pipeline._read_manifest

        def read_manifest(scores_dir):
            reads.append(scores_dir)
            return real(scores_dir)

        monkeypatch.setattr(hks.pipeline, "_read_manifest", read_manifest)
        out = config.out_dir
        {"select": lambda: run_select(
            out, SelectionSpec(strategy="topk", budget=15), str(root / "sel"),
            emit_corpus=str(root / "picked.jsonl")),
         "split": lambda: run_split(out, 6, str(root / "split")),
         "hist": lambda: run_hist(out, "hks", "subset", 4,
                                  str(root / "hist.csv")),
         "corr": lambda: run_corr(out, ["d", "hks"], str(root / "corr.json")),
         }[command]()
        assert reads == [Path(out)]

    @pytest.mark.parametrize("command", ["select", "split", "hist", "corr"])
    def test_phase_two_logs_where_its_records_came_from(self, scored, caplog,
                                                        command):
        root, config = scored
        out = config.out_dir
        with caplog.at_level("DEBUG", logger="hks.pipeline"):
            {"select": lambda: run_select(
                out, SelectionSpec(strategy="topk", budget=15),
                str(root / "sel")),
             "split": lambda: run_split(out, 6, str(root / "split")),
             "hist": lambda: run_hist(out, "hks", "subset", 4,
                                      str(root / "hist.csv")),
             "corr": lambda: run_corr(out, ["d", "hks"],
                                      str(root / "corr.json")),
             }[command]()
        assert [r.getMessage() for r in caplog.records
                if r.name == "hks.pipeline"] == [
            f"{out}: read 3 records from 3 shards: 3 from column files, "
            f"0 parsed"]

    def test_column_file_of_another_shard_is_refused(self, scored):
        _, config = scored
        out = Path(config.out_dir)
        columns = out / "scores-00000.columns.json"
        data = json.loads(columns.read_text(encoding="utf-8"))
        data["shard_sha256"] = "0" * 64
        columns.write_text(json.dumps(data), encoding="utf-8")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["shards"][0]["columns_sha256"] = line_digest(columns)[0]
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(
                f"{columns}: names shard sha256 {'0' * 64}, not the "
                f"manifest's {manifest['shards'][0]['sha256']} of "
                f"scores-00000.jsonl")):
            load_score_records(out)

    def test_split(self, scored):
        root, config = scored
        summary = run_split(config.out_dir, 6, str(root / "split"))
        assert summary["threshold"] == B_HKS
        assert summary["high_records"] == 1
        assert summary["high_tokens"] == 6
        assert summary["low_records"] == 2
        high = [json.loads(s) for s in
                (root / "split" / "high.jsonl").read_text().splitlines()]
        assert [h["id"] for h in high] == ["doc-b"]
        low = [json.loads(s) for s in
               (root / "split" / "low.jsonl").read_text().splitlines()]
        assert [l["id"] for l in low] == ["doc-a", "doc-c"]

    @pytest.mark.parametrize("share", [0, 0.3, 1])
    def test_split_copies_score_lines(self, tmp_path, share):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        corpus = write_corpus(tmp_path, [UNICODE_DOCS[:3], UNICODE_DOCS[3:]])
        out = tmp_path / "out"
        run_score(RunConfig(pool_path=str(tmp_path / "pool.tsv"),
                            corpus=corpus, out_dir=str(out)))
        shards = "".join(p.read_text(encoding="utf-8")
                         for p in sorted(out.glob("scores-*.jsonl")))
        assert "\u2028" in shards and "\u0085" in shards
        records = scored_records(out)
        budget = int(share * sum(r.n_p for r in records))
        high, low, threshold = threshold_split(records, budget)
        assert run_split(str(out), budget, str(tmp_path / "split"))[
            "threshold"] == threshold
        for name, part in (("high.jsonl", high), ("low.jsonl", low)):
            expected = "".join(r.to_json() + "\n" for r in part)
            assert (tmp_path / "split" / name).read_bytes() == \
                expected.encode("utf-8")

    @pytest.mark.parametrize("edit", [
        lambda data: data[:-20],  # the last line no longer parses
        lambda data: data.replace(b"doc-a", b"doc-\xff"),  # nor decodes
        lambda data: data + data.replace(b"doc-a", b"doc-z"),  # one too many
        lambda data: data + data.replace(b"doc-a", b"doc-b"),  # duplicate id
    ], ids=["parse", "decode", "count", "duplicate"])
    def test_changed_shard_is_named_as_changed(self, scored, edit):
        _, config = scored
        shard = Path(config.out_dir) / "scores-00000.jsonl"
        shard.write_bytes(edit(shard.read_bytes()))
        with pytest.raises(DataError, match=f"{shard}: sha256 .* differs"):
            load_score_records(config.out_dir)

    def test_hist(self, scored):
        root, config = scored
        out = root / "hist.csv"
        run_hist(config.out_dir, "hks", "subset", 4, str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "group,bucket,lo,hi,count"
        assert len(lines) == 1 + 3 * 4  # groups enc, web, unknown
        assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 3

    def test_corr_internal_columns(self, scored):
        root, config = scored
        out = root / "corr.json"
        result = run_corr(config.out_dir, ["d", "c", "hks"], str(out))
        # d, c, and hks all rank the toy docs identically.
        for row in result["rho"]:
            assert row == [1.0, 1.0, 1.0]
        assert json.loads(out.read_text()) == result

    def test_corr_external_join(self, scored, caplog):
        root, config = scored
        ext = root / "ext.jsonl"
        ext.write_text(
            json.dumps({"id": "doc-a", "ppl": 12.0}) + "\n"
            + json.dumps({"id": "doc-b", "ppl": 5.0}) + "\n",
            encoding="utf-8")
        with caplog.at_level("WARNING", logger="hks.pipeline"):
            result = run_corr(config.out_dir, ["hks", "ext:ppl"],
                              str(root / "corr.json"), ext_path=str(ext))
        # doc-c has no external value and is dropped from the join.
        assert any("lack external columns" in r.message
                   for r in caplog.records)
        names = result["columns"]
        i, j = names.index("hks"), names.index("ext:ppl")
        assert result["rho"][i][j] == -1.0

    @pytest.mark.parametrize("value", ["NaN", "true", "Infinity",
                                       "-Infinity"])
    def test_corr_rejects_non_finite_ext_value(self, scored, value):
        root, config = scored
        ext = root / "ext.jsonl"
        # Columns that were not requested are not inspected.
        ext.write_text('{"id": "doc-a", "ppl": 12.0, "other": NaN}\n'
                       f'{{"id": "doc-b", "ppl": {value}}}\n',
                       encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{ext}:2: ext:ppl is {value},")):
            run_corr(config.out_dir, ["hks", "ext:ppl"],
                     str(root / "corr.json"), ext_path=str(ext))

    def test_corr_rejects_a_repeated_ext_id(self, scored):
        root, config = scored
        ext = root / "ext.jsonl"
        ext.write_text('{"id": "doc-a", "ppl": 12.0}\n\n'
                       '{"id": "doc-b", "ppl": 5.0}\n'
                       '{"id": "doc-a", "ppl": 3.0}\n', encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{ext}:4: duplicate id 'doc-a', first on line 1")):
            run_corr(config.out_dir, ["hks", "ext:ppl"],
                     str(root / "corr.json"), ext_path=str(ext))
        assert not (root / "corr.json").exists()

    def test_fsearch(self, scored):
        root, _ = scored
        pairs = root / "pairs.jsonl"
        rows = [
            {"a": {"d": 0.1, "c": 0.1}, "b": {"d": 0.9, "c": 0.9},
             "label": 1.0},
            {"a": {"d": 0.8, "c": 0.7}, "b": {"d": 0.1, "c": 0.2},
             "label": 0.0},
            {"a": {"d": 0.5, "c": 0.5}, "b": {"d": 0.6, "c": 0.4},
             "label": 0.6},
        ]
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows),
                         encoding="utf-8")
        out = root / "fsearch.csv"
        result = run_fsearch(str(pairs), str(out))
        assert len(result) == 9
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "formula,f,g,rho"
        assert len(lines) == 10

    def test_missing_scores_dir(self, tmp_path):
        with pytest.raises(DataError):
            run_split(str(tmp_path / "nowhere"), 10, str(tmp_path / "o"))


@pytest.mark.parametrize("spec, named", [
    (dict(strategy="mix", budget=10, split_budget=6), "alpha"),
    (dict(strategy="mix", budget=10, alpha=0.5), "split budget"),
], ids=["no-alpha", "no-split-budget"])
def test_run_select_refuses_incomplete_mix_before_reading(scored, monkeypatch,
                                                          spec, named):
    root, config = scored

    def no_read(*args):
        raise AssertionError("a score shard was read")

    monkeypatch.setattr(hks.pipeline, "load_score_records", no_read)
    with pytest.raises(DataError, match=f"mix strategy requires.* {named}"):
        run_select(config.out_dir, SelectionSpec(**spec), str(root / "sel"))
    assert not (root / "sel").exists()
