"""Command-line interface: exit codes, flag validation, end-to-end flows."""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hks.pipeline
import hks.selection
from hks import KnowledgePool
from hks.cli import main
from hks.files import line_digest

from test_pipeline import (DOC_A, DOC_B, DOC_C, POOL_TSV, files_under,
                           snapshot, write_corpus)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
    corpus = write_corpus(tmp_path, [[DOC_A], [DOC_B], [DOC_C]])
    return tmp_path, corpus


def run_score(root, corpus, *extra):
    return main(["score", "--pool", str(root / "pool.tsv"),
                 "--corpus", corpus, "--out", str(root / "scores"), *extra])


# Each case sets up one bad input or output under `root` and returns
# (argv, the file the error must name, the exit code).

def _scored(root, corpus):
    assert run_score(root, corpus) == 0
    return root / "scores"


def _bad_utf8_corpus_strict(root, corpus):
    shard = root / "bad" / "shard.jsonl"
    shard.parent.mkdir()
    shard.write_bytes(b'{"id": "x", "text": "caf\xe9"}\n')
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus",
             str(shard), "--out", str(root / "s"), "--strict"], shard, 2)


def _truncated_gzip_corpus(root, corpus):
    shard = root / "bad" / "shard.jsonl.gz"
    shard.parent.mkdir()
    shard.write_bytes(gzip.compress(json.dumps(DOC_A).encode() * 50)[:40])
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus",
             str(shard), "--out", str(root / "s")], shard, 2)


def _not_gzip_corpus(root, corpus):
    shard = root / "bad" / "shard.jsonl.gz"
    shard.parent.mkdir()
    shard.write_text(json.dumps(DOC_A) + "\n", encoding="utf-8")
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus",
             str(shard), "--out", str(root / "s")], shard, 3)


def _bad_utf8_pool(root, corpus):
    pool = root / "bad.tsv"
    pool.write_bytes(b"caf\xe9 society\tculture\n")
    return (["score", "--pool", str(pool), "--corpus", corpus,
             "--out", str(root / "s")], pool, 2)


def _select_argv(root):
    return ["select", "--scores", str(root / "scores"), "--out",
            str(root / "sel"), "--budget-docs", "1"]


def _truncated_score_line(root, corpus):
    shard = _scored(root, corpus) / "scores-00000.jsonl"
    shard.write_bytes(shard.read_bytes()[:-20])
    return _select_argv(root), shard, 2


def _crc_flipped_gzip_corpus(root, corpus):
    shard = root / "bad" / "shard.jsonl.gz"
    shard.parent.mkdir()
    data = bytearray(gzip.compress((json.dumps(DOC_A) + "\n").encode()))
    data[-8] ^= 0xFF  # first byte of the CRC32 trailer
    shard.write_bytes(bytes(data))
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus",
             str(shard), "--out", str(root / "s")], shard, 2)


def _appended_score_record(root, corpus):
    shard = _scored(root, corpus) / "scores-00000.jsonl"
    rec = json.loads(shard.read_text(encoding="utf-8"))
    rec.update(id="injected", hks=9.0)
    with shard.open("a", encoding="utf-8") as f:
        f.write(json.dumps(rec) + "\n")
    return _select_argv(root), shard, 2


def _edited_score_record(root, corpus):
    shard = _scored(root, corpus) / "scores-00000.jsonl"
    data = shard.read_bytes()
    edited = data.replace(b'"n_p":9', b'"n_p":8', 1)
    assert edited != data and len(edited) == len(data)
    shard.write_bytes(edited)
    return _select_argv(root), shard, 2


def _missing_manifest(root, corpus):
    scores = _scored(root, corpus)
    (scores / "manifest.json").unlink()
    return _select_argv(root), scores, 2


def _malformed_shard_in_manifest(root, corpus):
    # The manifest vouches for the malformed shard and lists no column
    # file for it, so the line parse is what fails.
    scores = _scored(root, corpus)
    shard = scores / "scores-00000.jsonl"
    shard.write_bytes(shard.read_bytes()[:-20])
    manifest = json.loads((scores / "manifest.json").read_text())
    manifest["shards"][0]["sha256"] = line_digest(shard)[0]
    del manifest["shards"][0]["columns"]
    (scores / "manifest.json").write_text(json.dumps(manifest))
    return _select_argv(root), f"{shard}:1", 2


def _malformed_manifest(root, corpus):
    manifest = _scored(root, corpus) / "manifest.json"
    manifest.write_text('{"shards": 3}', encoding="utf-8")
    return (["split", "--scores", str(root / "scores"), "--out",
             str(root / "split"), "--budget-tokens", "6"], manifest, 2)


def _shards_not_a_list(root, corpus):
    manifest = _scored(root, corpus) / "manifest.json"
    data = json.loads(manifest.read_text())
    data["shards"] = {"0": data["shards"][0]}
    manifest.write_text(json.dumps(data))
    return _select_argv(root), f"{manifest}: not a score manifest", 2


def _column_file_not_an_object(root, corpus):
    # Listed with its own sha256, so the parse is what fails.
    scores = _scored(root, corpus)
    columns = scores / "scores-00000.columns.json"
    columns.write_text("[]\n", encoding="utf-8")
    manifest = json.loads((scores / "manifest.json").read_text())
    manifest["shards"][0]["columns_sha256"] = line_digest(columns)[0]
    (scores / "manifest.json").write_text(json.dumps(manifest))
    return _select_argv(root), f"{columns}: not a column file", 2


def _strict_second_line(root, line):
    shard = root / "bad" / "shard.jsonl"
    shard.parent.mkdir()
    shard.write_text(json.dumps(DOC_A) + "\n" + line + "\n",
                     encoding="utf-8")
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus",
             str(shard), "--out", str(root / "s"), "--strict"],
            f"{shard}:2", 2)


def _non_object_line_strict(root, corpus):
    return _strict_second_line(root, "[1, 2]")


def _empty_id_strict(root, corpus):
    return _strict_second_line(root, json.dumps({"id": "", "text": "jazz"}))


def _ext_second_row(root, corpus, row):
    ext = root / "ext.jsonl"
    ext.write_text(json.dumps({"id": "doc-a", "ppl": 1.0}) + "\n" + row
                   + "\n", encoding="utf-8")
    return (["analyze", "corr", "--scores", str(_scored(root, corpus)),
             "--columns", "d,ext:ppl", "--ext", str(ext),
             "--out", str(root / "corr.json")], f"{ext}:2", 2)


def _ext_row_not_json(root, corpus):
    return _ext_second_row(root, corpus, "{not json")


def _ext_row_without_id(root, corpus):
    return _ext_second_row(root, corpus, json.dumps({"ppl": 2.0}))


def _missing_pairs(root, corpus):
    pairs = root / "absent.jsonl"
    return (["analyze", "fsearch", "--pairs", str(pairs),
             "--out", str(root / "fs.csv")], pairs, 3)


def _missing_ext(root, corpus):
    ext = root / "absent.jsonl"
    return (["analyze", "corr", "--scores", str(_scored(root, corpus)),
             "--columns", "d,ext:ppl", "--ext", str(ext),
             "--out", str(root / "corr.json")], ext, 3)


def _score_out_under_file(root, corpus):
    blocker = root / "blocker"
    blocker.write_text("", encoding="utf-8")
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus", corpus,
             "--out", str(blocker / "scores")], blocker, 3)


def _pool_stats_out_under_file(root, corpus):
    blocker = root / "blocker"
    blocker.write_text("", encoding="utf-8")
    return (["pool", "stats", str(root / "pool.tsv"),
             "--out", str(blocker / "stats.json")], blocker, 3)


# JSON texts that json.loads fails on with an error other than a
# JSONDecodeError: nesting deeper than the decoder's recursion limit
# (RecursionError) and an integer beyond int's digit limit (ValueError).
# Each case below puts one where one reader meets it and returns (argv,
# exit code, the text stderr must hold or a check of the run's outputs).
NESTED = "[" * 200_000


def _lenient_second_line(root, line):
    shard = root / "bad" / "shard.jsonl"
    shard.parent.mkdir()
    shard.write_text(json.dumps(DOC_A) + "\n" + line + "\n",
                     encoding="utf-8")

    def skipped_as_malformed():
        stats = json.loads((root / "s" / "run_stats.json").read_text())
        assert (stats["docs_read"], stats["skipped_malformed"],
                stats["docs_scored"]) == (2, 1, 1)
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus",
             str(shard), "--out", str(root / "s")], 0, skipped_as_malformed)


def _nested_corpus_line_lenient(root, corpus):
    return _lenient_second_line(root, NESTED)


def _long_integer_corpus_line_lenient(root, corpus):
    return _lenient_second_line(root, '{"id": "b", "text": "jazz", '
                                      '"meta": {"n": ' + "1" * 5000 + "}}")


def _nested_corpus_line_strict(root, corpus):
    argv, named, code = _strict_second_line(root, NESTED)
    return argv, code, f"{named}: invalid JSON"


def _nested_preference_pair(root, corpus):
    pairs = root / "pairs.jsonl"
    pairs.write_text(json.dumps({"a": {"d": 0.1, "c": 0.2},
                                 "b": {"d": 0.3, "c": 0.4}, "label": 1.0})
                     + "\n" + NESTED + "\n", encoding="utf-8")
    return (["analyze", "fsearch", "--pairs", str(pairs), "--out",
             str(root / "fs.csv")], 2, f"{pairs}:2: not a preference pair")


def _nested_ext_row(root, corpus):
    argv, named, code = _ext_second_row(root, corpus, NESTED)
    return argv, code, f"{named}: bad external column row"


def _long_integer_ext_row(root, corpus):
    argv, named, code = _ext_second_row(
        root, corpus, '{"id": "doc-b", "ppl": ' + "1" * 5000 + "}")
    return argv, code, f"{named}: bad external column row"


def _nested_score_line(root, corpus):
    # Vouched for by the manifest, which lists no column file for it.
    scores = _scored(root, corpus)
    shard = scores / "scores-00000.jsonl"
    shard.write_text(NESTED + "\n", encoding="utf-8")
    manifest = json.loads((scores / "manifest.json").read_text())
    manifest["shards"][0]["sha256"] = line_digest(shard)[0]
    del manifest["shards"][0]["columns"]
    (scores / "manifest.json").write_text(json.dumps(manifest))
    return _select_argv(root), 2, f"{shard}:1: not a score record"


def _nested_manifest(root, corpus):
    manifest = _scored(root, corpus) / "manifest.json"
    manifest.write_text(NESTED, encoding="utf-8")
    return _select_argv(root), 2, f"{manifest}: not a score manifest"


def _nested_listed_column_file(root, corpus):
    scores = _scored(root, corpus)
    columns = scores / "scores-00000.columns.json"
    columns.write_text(NESTED, encoding="utf-8")
    manifest = json.loads((scores / "manifest.json").read_text())
    manifest["shards"][0]["columns_sha256"] = line_digest(columns)[0]
    (scores / "manifest.json").write_text(json.dumps(manifest))
    return _select_argv(root), 2, f"{columns}: not a column file"


def _nested_column_file_on_resume(root, corpus):
    # A run that stopped before its manifest: the shard whose column file
    # does not parse is scored again, as one naming another shard is.
    scores = _scored(root, corpus)
    columns = scores / "scores-00000.columns.json"
    scored = columns.read_bytes()
    (scores / "manifest.json").unlink()
    columns.write_text(NESTED, encoding="utf-8")

    def scored_again():
        assert columns.read_bytes() == scored
        stats = json.loads((scores / "run_stats.json").read_text())
        assert stats["resumed_shards"] == 2
    return (["score", "--pool", str(root / "pool.tsv"), "--corpus", corpus,
             "--out", str(scores)], 0, scored_again)


# One document per field holding a \udXXX escape outside a surrogate pair.
LONE_SURROGATE_DOCS = {
    "id": {"id": "sur\ud800", "text": "jazz"},
    "text": {"id": "t", "text": "\ud800 jazz"},
    "meta": {"id": "m", "text": "jazz", "meta": {"k": "\udfff"}},
}


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "score" in capsys.readouterr().out

    def test_missing_pool_file_is_resource_error(self, tmp_path):
        corpus = write_corpus(tmp_path, [[DOC_A]])
        assert main(["score", "--pool", str(tmp_path / "absent.tsv"),
                     "--corpus", corpus,
                     "--out", str(tmp_path / "scores")]) == 3

    @pytest.mark.parametrize("case", [
        _bad_utf8_corpus_strict, _truncated_gzip_corpus, _not_gzip_corpus,
        _crc_flipped_gzip_corpus, _bad_utf8_pool, _truncated_score_line,
        _appended_score_record, _edited_score_record, _missing_manifest,
        _malformed_shard_in_manifest,
        _malformed_manifest, _shards_not_a_list, _column_file_not_an_object,
        _non_object_line_strict, _empty_id_strict, _missing_pairs,
        _missing_ext, _ext_row_not_json, _ext_row_without_id,
        _score_out_under_file, _pool_stats_out_under_file,
    ], ids=lambda case: case.__name__.lstrip("_"))
    def test_bad_file_exit_code_names_file(self, workspace, capsys, case):
        root, _ = workspace
        argv, named, code = case(*workspace)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("hks: error: ") and str(named) in err
        # A failed run leaves no output shard and no temp file behind.
        assert list(root.glob("s/scores-*")) == []
        assert list(root.rglob("*.tmp")) == []
        assert not (root / "sel" / "selected.jsonl").exists()

    @pytest.mark.parametrize("case", [
        _nested_corpus_line_lenient, _nested_corpus_line_strict,
        _nested_preference_pair, _nested_ext_row, _nested_score_line,
        _nested_manifest, _nested_listed_column_file,
        _nested_column_file_on_resume, _long_integer_corpus_line_lenient,
        _long_integer_ext_row,
    ], ids=lambda case: case.__name__.lstrip("_"))
    def test_json_the_decoder_rejects_is_bad_data(self, workspace, capsys,
                                                  case):
        argv, code, expect = case(*workspace)
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        if callable(expect):
            expect()
        else:
            assert err.startswith("hks: error: ") and expect in err
            assert ("maximum recursion depth exceeded" in err
                    or "Exceeds the limit (4300 digits)" in err)

    def test_strict_failure_mid_shard_leaves_no_temp(self, workspace):
        root, _ = workspace
        shard = root / "mid" / "shard.jsonl"
        shard.parent.mkdir()
        shard.write_text(json.dumps(DOC_A) + "\n{not json\n", encoding="utf-8")
        assert main(["score", "--pool", str(root / "pool.tsv"), "--corpus",
                     str(shard), "--out", str(root / "s"), "--strict"]) == 2
        assert list((root / "s").glob("scores-*")) == []

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b'"doc-b"', b'"doc-z"'),
        lambda data: data + data.replace(b'"doc-b"', b'"doc-z"'),
        lambda data: b"",  # the shard held one line
    ], ids=["rewritten", "gains-a-line", "loses-a-line"])
    def test_shard_rewritten_between_split_passes(self, workspace, capsys,
                                                   monkeypatch, edit):
        root, corpus = workspace
        scores = _scored(root, corpus)
        shard = scores / "scores-00001.jsonl"
        real = hks.selection.threshold_split

        def rewrite_then_split(*args):
            shard.write_bytes(edit(shard.read_bytes()))
            return real(*args)

        monkeypatch.setattr(hks.selection, "threshold_split",
                            rewrite_then_split)
        capsys.readouterr()
        assert main(["split", "--scores", str(scores), "--out",
                     str(root / "split"), "--budget-tokens", "6"]) == 2
        err = capsys.readouterr().err
        assert f"{shard}: sha256" in err
        for left in ("high.jsonl", "low.jsonl", "split.json", "*.tmp"):
            assert list(root.rglob(left)) == []

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("field", sorted(LONE_SURROGATE_DOCS))
    def test_lone_surrogate_escape_is_malformed(self, workspace, capsys,
                                                field, strict):
        root, _ = workspace
        shard = root / "sur" / "shard.jsonl"
        shard.parent.mkdir()
        pair = {"id": "pair\U0001F600", "text": "jazz \U0001F600"}
        shard.write_text(json.dumps(pair) + "\n"
                         + json.dumps(LONE_SURROGATE_DOCS[field]) + "\n",
                         encoding="utf-8")
        argv = ["score", "--pool", str(root / "pool.tsv"), "--corpus",
                str(shard), "--out", str(root / "s")]
        capsys.readouterr()
        if strict:
            assert main([*argv, "--strict"]) == 2
            assert f"{shard}:2: unpaired surrogate" in capsys.readouterr().err
            assert list(root.glob("s/scores-*")) == []
            assert list(root.rglob("*.tmp")) == []
            return
        assert main(argv) == 0
        stats = json.loads((root / "s" / "run_stats.json").read_text())
        assert (stats["skipped_malformed"], stats["docs_scored"]) == (1, 1)
        (line,) = (root / "s" / "scores-00000.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert json.loads(line)["id"] == "pair\U0001F600"

    def test_resume_with_changed_flags_is_data_error(self, workspace):
        root, corpus = workspace
        assert run_score(root, corpus) == 0
        shard = root / "scores" / "scores-00000.jsonl"
        before = shard.read_bytes()
        assert run_score(root, corpus, "--no-boundary", "--no-domains") == 2
        assert run_score(root, corpus, "--seed", "3") == 1  # not a score flag
        assert shard.read_bytes() == before

    def test_cross_shard_duplicate_id_is_data_error(self, tmp_path, capsys):
        (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
        corpus = write_corpus(tmp_path, [[DOC_A], [DOC_B, DOC_A]])
        assert run_score(tmp_path, corpus) == 0
        assert main(["select", "--scores", str(tmp_path / "scores"),
                     "--out", str(tmp_path / "sel"),
                     "--budget-docs", "1"]) == 2
        err = capsys.readouterr().err
        assert "'doc-a'" in err
        assert "scores-00000.jsonl" in err and "scores-00001.jsonl" in err
        assert not (tmp_path / "sel" / "selected.jsonl").exists()

    def test_missing_scores_dir_is_data_error(self, tmp_path):
        assert main(["split", "--scores", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "o"),
                     "--budget-tokens", "10"]) == 2

    def test_budget_flag_conflicts(self, tmp_path):
        base = ["select", "--scores", str(tmp_path), "--out", str(tmp_path)]
        assert main(base + ["--budget-tokens", "5",
                            "--budget-docs", "5"]) == 1
        assert main(base) == 1  # no budget at all
        assert main(base + ["--strategy", "mix",
                            "--budget-tokens", "5"]) == 1  # no alpha

    def test_non_integer_budget_rejected(self, tmp_path):
        assert main(["split", "--scores", str(tmp_path),
                     "--out", str(tmp_path), "--budget-tokens", "1.5"]) == 1

    def test_infinite_budget_rejected(self, tmp_path, capsys):
        # 1e400 parses as float infinity, which has no integer value.
        assert main(["split", "--scores", str(tmp_path),
                     "--out", str(tmp_path), "--budget-tokens", "1e400"]) == 1
        assert "not a whole number: '1e400'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--strategy", "sample", "--seed", "-1"], "seed"),
        (["--strategy", "sample", "--seed", str(2**64)], "seed"),
        (["--strategy", "mix", "--alpha", "0.5", "--split-budget-tokens",
          "6", "--seed", "-1"], "seed"),
        (["--strategy", "mix", "--alpha", "0.5", "--split-budget-tokens",
          "6", "--seed", str(2**64)], "seed"),
        (["--strategy", "sample", "--tau", "nan"], "tau"),
        (["--strategy", "sample", "--tau", "inf"], "tau"),
        (["--strategy", "sample", "--tau", "1e309"], "tau"),
    ], ids=["sample-seed-negative", "sample-seed-2**64", "mix-seed-negative",
            "mix-seed-2**64", "tau-nan", "tau-inf", "tau-1e309"])
    def test_bad_seed_or_tau_is_data_error(self, workspace, capsys,
                                           monkeypatch, flags, named):
        root, corpus = workspace
        scores = _scored(root, corpus)

        def no_read(*args):
            raise AssertionError("a score shard was read")

        monkeypatch.setattr(hks.pipeline, "load_score_records", no_read)
        capsys.readouterr()
        assert main(["select", "--scores", str(scores), "--out",
                     str(root / "sel"), "--budget-tokens", "10",
                     *flags]) == 2
        assert f"hks: error: {named} must be" in capsys.readouterr().err
        assert not (root / "sel").exists()

    @pytest.mark.parametrize("field, value", [
        ("records", 2.9), ("records", "1"), ("records", True),
        ("sha256", 7), ("input", 7), ("input", "a\0b"), ("output", "../x"),
        ("output", "/x"), ("output", "scores-00000.jsonl\0")])
    @pytest.mark.parametrize("command", ["select", "split", "score"])
    def test_manifest_shard_entry_is_checked_not_coerced(
            self, workspace, capsys, command, field, value):
        root, corpus = workspace
        scores = _scored(root, corpus)
        manifest = scores / "manifest.json"
        data = json.loads(manifest.read_text())
        data["shards"][0][field] = value
        manifest.write_text(json.dumps(data))
        before = files_under(root)
        capsys.readouterr()
        assert main({
            "select": _select_argv(root),
            "split": ["split", "--scores", str(scores), "--out",
                      str(root / "split"), "--budget-tokens", "6"],
            "score": ["score", "--pool", str(root / "pool.tsv"), "--corpus",
                      corpus, "--out", str(scores)],
        }[command]) == 2
        assert (f"hks: error: {manifest}: not a score manifest"
                in capsys.readouterr().err)
        assert files_under(root) == before

    @pytest.mark.parametrize("field, value", [
        ("columns", "../x"), ("columns", "/x"), ("columns", ""),
        ("columns", 7), ("columns_sha256", 7), ("columns_sha256", None)])
    @pytest.mark.parametrize("command", ["select", "score"])
    def test_manifest_column_entry_is_checked(self, workspace, capsys,
                                              command, field, value):
        root, corpus = workspace
        scores = _scored(root, corpus)
        manifest = scores / "manifest.json"
        data = json.loads(manifest.read_text())
        data["shards"][0][field] = value
        manifest.write_text(json.dumps(data))
        before = files_under(root)
        capsys.readouterr()
        assert main({
            "select": _select_argv(root),
            "score": ["score", "--pool", str(root / "pool.tsv"), "--corpus",
                      corpus, "--out", str(scores)],
        }[command]) == 2
        assert (f"hks: error: {manifest}: not a score manifest"
                in capsys.readouterr().err)
        assert files_under(root) == before

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b'"n_p":[9]', b'"n_p":[8]'),
        lambda data: data[:-1],
        lambda data: b"",
    ], ids=["value", "truncated", "emptied"])
    def test_edited_column_file_is_named(self, workspace, capsys, edit):
        root, corpus = workspace
        columns = _scored(root, corpus) / "scores-00000.columns.json"
        data = columns.read_bytes()
        columns.write_bytes(edit(data))
        assert columns.read_bytes() != data
        capsys.readouterr()
        assert main(_select_argv(root)) == 2
        assert (f"hks: error: {columns}: sha256 "
                in capsys.readouterr().err)
        assert not (root / "sel").exists()

    @pytest.mark.parametrize("argv, target", [
        (["select", "--scores", "scores", "--out", "sel", "--budget-docs",
          "1", "--emit-corpus", "sel/selected.jsonl"], "sel/selected.jsonl"),
        (["analyze", "corr", "--scores", "scores", "--columns", "d,hks",
          "--out", "scores/manifest.json"], "scores/manifest.json"),
        (["analyze", "hist", "--scores", "scores", "--metric", "hks",
          "--group-by", "subset", "--out", "scores/scores-00000.jsonl"],
         "scores/scores-00000.jsonl"),
        (["split", "--scores", "scores", "--budget-tokens", "6", "--out",
          "shards/../shards"], "shards/../shards/high.jsonl"),
    ], ids=["emit-over-selected", "corr-over-manifest", "hist-over-shard",
            "split-over-input"])
    def test_output_over_the_run_or_another_output_is_refused(
            self, workspace, capsys, monkeypatch, argv, target):
        root, _ = workspace
        monkeypatch.chdir(root)
        shards = root / "shards"
        (shards / "shard-002.jsonl").rename(shards / "high.jsonl")
        assert main(["score", "--pool", "pool.tsv", "--corpus",
                     "shards/*.jsonl", "--out", "scores"]) == 0
        before = files_under(root)
        capsys.readouterr()
        assert main(argv) == 2
        assert f"hks: error: {target}: is " in capsys.readouterr().err
        assert files_under(root) == before

    def test_output_over_a_deleted_corpus_input_is_refused(
            self, workspace, capsys, monkeypatch):
        # A listed file that no longer exists still names a file of the
        # run.
        root, _ = workspace
        monkeypatch.chdir(root)
        assert main(["score", "--pool", "pool.tsv", "--corpus",
                     "shards/*.jsonl", "--out", "scores"]) == 0
        (root / "shards" / "shard-001.jsonl").unlink()
        before = files_under(root)
        capsys.readouterr()
        target = "shards/../shards/shard-001.jsonl"
        assert main(["analyze", "hist", "--scores", "scores", "--metric",
                     "hks", "--group-by", "subset", "--out", target]) == 2
        assert f"hks: error: {target}: is " in capsys.readouterr().err
        assert files_under(root) == before

    def test_corr_output_over_its_ext_file_is_refused(self, workspace,
                                                      capsys):
        root, corpus = workspace
        scores = _scored(root, corpus)
        ext = root / "ext.jsonl"
        ext.write_text("".join(json.dumps({"id": doc_id, "ppl": v}) + "\n"
                               for doc_id, v in (("doc-a", 1.0),
                                                 ("doc-b", 2.0))),
                       encoding="utf-8")
        before = files_under(root)
        capsys.readouterr()
        assert main(["analyze", "corr", "--scores", str(scores), "--columns",
                     "d,ext:ppl", "--ext", str(ext), "--out", str(ext)]) == 2
        assert f"hks: error: {ext}: is " in capsys.readouterr().err
        assert files_under(root) == before

    def test_fsearch_output_over_its_pairs_file_is_refused(self, tmp_path,
                                                           capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"a": {"d": 0.1, "c": 0.2},
                                     "b": {"d": 0.3, "c": 0.4},
                                     "label": 1.0}) + "\n", encoding="utf-8")
        before = files_under(tmp_path)
        capsys.readouterr()
        assert main(["analyze", "fsearch", "--pairs", str(pairs),
                     "--out", str(pairs)]) == 2
        assert f"hks: error: {pairs}: is " in capsys.readouterr().err
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("side, key, value", [
        ("a", "d", True), ("a", "c", "0.5"), ("a", "c", "inf"),
        ("a", "c", -5), ("b", "d", -0.5), ("b", "c", 1e400),
        ("b", "d", float("nan")), ("label", None, "1"),
        ("label", None, float("nan"))])
    def test_malformed_preference_pair_is_data_error(self, tmp_path, capsys,
                                                     side, key, value):
        pair = {"a": {"d": 0.1, "c": 0.2}, "b": {"d": 0.3, "c": 0.4},
                "label": 1.0}
        bad = json.loads(json.dumps(pair))
        if key is None:
            bad[side] = value
        else:
            bad[side][key] = value
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps(pair) + "\n" + json.dumps(bad) + "\n",
                         encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", "fsearch", "--pairs", str(pairs),
                     "--out", str(tmp_path / "fs.csv")]) == 2
        assert (f"hks: error: {pairs}:2: not a preference pair"
                in capsys.readouterr().err)
        assert not (tmp_path / "fs.csv").exists()

    def test_ext_column_without_ext_file_reads_no_shard(
            self, workspace, capsys, monkeypatch):
        root, corpus = workspace
        scores = _scored(root, corpus)

        def no_read(*args):
            raise AssertionError("a score shard was read")

        monkeypatch.setattr(hks.pipeline, "load_score_records", no_read)
        capsys.readouterr()
        assert main(["analyze", "corr", "--scores", str(scores), "--columns",
                     "d,ext:ppl", "--out", str(root / "corr.json")]) == 2
        assert ("hks: error: ext: columns require an external column file"
                in capsys.readouterr().err)
        assert not (root / "corr.json").exists()

    def test_bad_workers_flag(self, workspace):
        root, corpus = workspace
        assert run_score(root, corpus, "--workers", "lots") == 1

    def test_zero_workers_is_data_error(self, workspace, capsys):
        root, corpus = workspace
        capsys.readouterr()
        assert run_score(root, corpus, "--workers", "0") == 2
        assert ("hks: error: worker count must be >= 1, got 0"
                in capsys.readouterr().err)
        assert not (root / "scores").exists()

    def test_corr_of_fewer_than_two_joined_records(self, workspace, capsys):
        root, corpus = workspace
        scores = _scored(root, corpus)
        ext = root / "ext.jsonl"
        ext.write_text(json.dumps({"id": "doc-a", "ppl": 1.0}) + "\n",
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", "corr", "--scores", str(scores), "--columns",
                     "d,ext:ppl", "--ext", str(ext),
                     "--out", str(root / "corr.json")]) == 2
        assert ("hks: error: fewer than 2 records with all requested columns"
                in capsys.readouterr().err)
        assert not (root / "corr.json").exists()

    def test_log_flags_accepted_anywhere(self, workspace, capsys):
        # -v/-q may come before or after the subcommand.
        root, corpus = workspace
        pool = str(root / "pool.tsv")
        assert main(["pool", "stats", pool, "-q"]) == 0
        assert main(["-q", "pool", "stats", pool]) == 0
        capsys.readouterr()
        assert run_score(root, corpus, "--verbose") == 0


class TestPoolStats:
    def test_stdout_json(self, workspace, capsys):
        root, _ = workspace
        assert main(["pool", "stats", str(root / "pool.tsv")]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total"] == 5
        assert stats["per_domain"]["science"] == 2

    def test_out_file(self, workspace):
        root, _ = workspace
        out = root / "stats.json"
        assert main(["pool", "stats", str(root / "pool.tsv"),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 5

    def test_out_file_in_missing_dir(self, workspace):
        root, _ = workspace
        out = root / "new" / "dir" / "stats.json"
        assert main(["pool", "stats", str(root / "pool.tsv"),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 5

    def test_out_over_its_pool_is_refused(self, workspace, capsys,
                                          monkeypatch):
        root, _ = workspace
        monkeypatch.chdir(root)
        before = files_under(root)
        capsys.readouterr()
        assert main(["pool", "stats", "pool.tsv", "--out",
                     "shards/../pool.tsv"]) == 2
        assert ("hks: error: shards/../pool.tsv: is "
                in capsys.readouterr().err)
        assert files_under(root) == before


class TestSetupCost:
    """What `hks score` and `pool stats` leave out of their set-up."""

    def test_no_surface_is_decoded(self, workspace, monkeypatch, capsys):
        # Scoring and the stats read the pool's codepoint and length
        # arrays; decoding them into strings is for tests and find_matches.
        root, corpus = workspace

        def decoded(pool):
            raise AssertionError("pool surfaces decoded")

        monkeypatch.setattr(KnowledgePool, "surfaces", property(decoded))
        assert run_score(root, corpus) == 0
        capsys.readouterr()
        assert main(["pool", "stats", str(root / "pool.tsv")]) == 0
        assert json.loads(capsys.readouterr().out)["length_histogram"]

    def test_numpy_ma_is_not_imported(self, workspace):
        # The first np.unique of a process imports numpy.ma, about 12 ms.
        root, corpus = workspace
        argv = ["-q", "score", "--pool", str(root / "pool.tsv"), "--corpus",
                corpus, "--out", str(root / "scores")]
        code = ("import sys; from hks.cli import main; "
                f"assert main({argv!r}) == 0; "
                "sys.exit('numpy.ma' in sys.modules)")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0


class TestWalkthrough:
    def test_score_select_split_analyze(self, workspace, capsys):
        root, corpus = workspace
        scores = str(root / "scores")

        assert run_score(root, corpus) == 0
        assert "scored 3 documents" in capsys.readouterr().out
        assert (root / "scores" / "manifest.json").exists()

        # Scientific-notation budgets parse as whole token counts.
        assert main(["select", "--scores", scores,
                     "--out", str(root / "sel"),
                     "--budget-tokens", "1.5e1"]) == 0
        picked = [json.loads(s) for s in
                  (root / "sel" / "selected.jsonl").read_text().splitlines()]
        assert [p["id"] for p in picked] == ["doc-b", "doc-a"]

        assert main(["select", "--scores", scores,
                     "--out", str(root / "sel-sample"),
                     "--strategy", "sample", "--budget-docs", "2",
                     "--tau", "2", "--seed", "7"]) == 0
        assert main(["select", "--scores", scores,
                     "--out", str(root / "sel-mix"),
                     "--strategy", "mix", "--budget-tokens", "10",
                     "--alpha", "0.5", "--split-budget-tokens", "6",
                     "--seed", "7"]) == 0

        assert main(["split", "--scores", scores,
                     "--out", str(root / "split"),
                     "--budget-tokens", "6"]) == 0
        assert (root / "split" / "high.jsonl").exists()

        assert main(["analyze", "hist", "--scores", scores,
                     "--metric", "d", "--group-by", "subset",
                     "--buckets", "4", "--out", str(root / "h.csv")]) == 0
        assert (root / "h.csv").read_text().startswith("group,bucket")

        assert main(["analyze", "corr", "--scores", scores,
                     "--columns", "d,c,hks",
                     "--out", str(root / "corr.json")]) == 0
        corr = json.loads((root / "corr.json").read_text())
        assert corr["columns"] == ["c", "d", "hks"]

        pairs = root / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"a": {"d": 0.1, "c": 0.1},
                        "b": {"d": 0.9, "c": 0.9}, "label": 1.0}) + "\n"
            + json.dumps({"a": {"d": 0.8, "c": 0.9},
                          "b": {"d": 0.1, "c": 0.1}, "label": 0.0}) + "\n",
            encoding="utf-8")
        assert main(["analyze", "fsearch", "--pairs", str(pairs),
                     "--out", str(root / "fs.csv")]) == 0
        assert len((root / "fs.csv").read_text().strip().split("\n")) == 10

    def test_select_by_domain_field(self, workspace, capsys):
        root, corpus = workspace
        assert run_score(root, corpus) == 0
        capsys.readouterr()
        assert main(["select", "--scores", str(root / "scores"),
                     "--out", str(root / "sel-sci"),
                     "--budget-docs", "1", "--score-field", "science"]) == 0
        picked = [json.loads(s) for s in
                  (root / "sel-sci" / "selected.jsonl").read_text().splitlines()]
        # doc-a holds both science elements; doc-b only non-science ones.
        assert [p["id"] for p in picked] == ["doc-a"]

    def test_workers_flag(self, workspace):
        root, corpus = workspace
        assert run_score(root, corpus, "--workers", "2") == 0
        stats = json.loads((root / "scores" / "run_stats.json").read_text())
        assert stats["workers"] == 2

    @pytest.mark.parametrize("command", ["score", "select"])
    def test_worker_that_dies_is_a_resource_error(self, workspace, command):
        # The second shard's worker kills itself. A pool that waits for
        # it forever fails the subprocess timeout instead of the test.
        root, corpus = workspace
        scores = root / "scores"
        if command == "score":
            target = "_score_shard"
            argv = ["score", "--pool", str(root / "pool.tsv"), "--corpus",
                    corpus, "--out", str(scores), "--workers", "2"]
            run = f"scoring {corpus} into {scores}"
        else:
            assert run_score(root, corpus) == 0
            target = "_shard_part"
            argv = ["select", "--scores", str(scores), "--budget-docs", "1",
                    "--out", str(root / "sel")]
            run = f"loading {scores}"
        code = "\n".join([
            "import os, signal, sys",
            "import hks.pipeline",
            "from hks.cli import main",
            "hks.pipeline.LOAD_BYTES_PER_WORKER = 1",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            f"real = hks.pipeline.{target}",
            "def dying(task):",
            "    if 'scores-00001' in repr(task):",
            "        os.kill(os.getpid(), signal.SIGKILL)",
            "    return real(task)",
            f"hks.pipeline.{target} = dying",
            f"sys.exit(main({argv!r}))"])
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 3
        assert f"{run}: a worker process died" in proc.stderr
        assert not (root / "sel").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_undecodable_bytes_counted(self, workspace, workers):
        root, _ = workspace
        shards = root / "latin1"
        shards.mkdir()
        (shards / "a.jsonl").write_bytes(b'{"id": "x", "text": "caf\xe9 jazz"}\n')
        (shards / "b.jsonl").write_text(json.dumps(DOC_A) + "\n",
                                        encoding="utf-8")
        argv = ["score", "--pool", str(root / "pool.tsv"), "--corpus",
                str(shards / "*.jsonl"), "--workers", workers]
        assert main([*argv, "--out", str(root / "s")]) == 0
        stats = json.loads((root / "s" / "run_stats.json").read_text())
        assert (stats["replaced_sequences"], stats["skipped_malformed"],
                stats["docs_scored"]) == (1, 0, 2)
        manifest = (root / "s" / "manifest.json").read_text()
        assert "replaced" not in manifest
        assert main([*argv, "--out", str(root / "s2"), "--strict"]) == 2

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_leading_byte_order_mark_is_not_text(self, tmp_path, capsys,
                                                 suffix, strict):
        bom = b"\xef\xbb\xbf"
        pack = gzip.compress if suffix else bytes
        pool = tmp_path / f"pool.tsv{suffix}"
        pool.write_bytes(pack(bom + b"jazz\tart\ncooking\tlife\n"))
        shard = tmp_path / f"shard.jsonl{suffix}"
        shard.write_bytes(pack(bom + json.dumps(
            {"id": "a", "text": "jazz and cooking"}).encode() + b"\n"))
        capsys.readouterr()
        assert main(["pool", "stats", str(pool)]) == 0
        assert json.loads(capsys.readouterr().out)["length_histogram"] == \
            {"4": 1, "7": 1}
        assert main(["score", "--pool", str(pool), "--corpus", str(shard),
                     "--out", str(tmp_path / "s"), *strict]) == 0
        stats = json.loads((tmp_path / "s" / "run_stats.json").read_text())
        assert (stats["skipped_malformed"], stats["docs_scored"]) == (0, 1)
        (line,) = (tmp_path / "s" / "scores-00000.jsonl").read_text(
            encoding="utf-8").splitlines()
        record = json.loads(line)
        assert (record["id"], record["n_k"]) == ("a", 2)
        assert record["domains"]["art"]["n"] == 1

    def test_every_json_output_is_strict_json(self, workspace, capsys):
        # RFC 8259 has no NaN or Infinity. A command may refuse an extreme
        # flag, but what it writes must parse.
        root, corpus = workspace
        scores = str(root / "scores")
        assert run_score(root, corpus) == 0
        assert main(["pool", "stats", str(root / "pool.tsv"), "--out",
                     str(root / "stats.json")]) == 0
        select = ["select", "--scores", scores, "--budget-docs", "2"]
        for i, tau in enumerate(["0.001", "1e308", "inf", "1e309"]):
            main([*select, "--out", str(root / f"sample-{i}"), "--strategy",
                  "sample", "--tau", tau, "--seed", "3"])
        assert main([*select, "--out", str(root / "topk"), "--emit-corpus",
                     str(root / "emitted.jsonl")]) == 0
        assert main(["select", "--scores", scores, "--out",
                     str(root / "mix"), "--strategy", "mix",
                     "--budget-tokens", "10", "--alpha", "0.5",
                     "--split-budget-tokens", "6"]) == 0
        assert main(["split", "--scores", scores, "--out",
                     str(root / "split"), "--budget-tokens", "6"]) == 0
        assert main(["analyze", "corr", "--scores", scores, "--columns",
                     "d,c,hks,art", "--out", str(root / "corr.json")]) == 0
        capsys.readouterr()

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        written = sorted(root.rglob("*.json")) + sorted(root.rglob("*.jsonl"))
        assert len(written) >= 20
        for path in written:
            text = path.read_text(encoding="utf-8")
            docs = [text] if path.suffix == ".json" else text.splitlines()
            for doc in docs:
                json.loads(doc, parse_constant=refuse)
        assert (root / "sample-1" / "selection.json").exists()

    def test_no_boundary_and_no_domains_flags(self, workspace):
        root, corpus = workspace
        assert run_score(root, corpus, "--no-boundary", "--no-domains") == 0
        line = (root / "scores" / "scores-00000.jsonl").read_text().splitlines()[0]
        assert "domains" not in json.loads(line)

    def test_out_dir_inside_the_corpus_glob_is_not_corpus(self, workspace,
                                                          monkeypatch):
        root, _ = workspace
        monkeypatch.chdir(root)
        argv = ["score", "--pool", "pool.tsv", "--corpus",
                "shards/**/*.jsonl", "--out", "shards/scores"]
        assert main(argv) == 0
        first = snapshot(root / "shards" / "scores")
        assert len(json.loads(first["manifest.json"])["shards"]) == 3
        # The rerun's glob also matches the score shards the first wrote.
        assert main(argv) == 0
        assert snapshot(root / "shards" / "scores") == first

    def test_emit_corpus_reads_the_scored_shards(self, workspace,
                                                  monkeypatch):
        root, _ = workspace
        # Inputs are read as `hks score` recorded them, relative to the
        # directory it ran in.
        monkeypatch.chdir(root)
        assert main(["score", "--pool", "pool.tsv", "--corpus",
                     "shards/*.jsonl", "--out", "scores"]) == 0
        argv = ["select", "--scores", "scores", "--out", "sel",
                "--budget-tokens", "15", "--emit-corpus", "picked.jsonl"]
        assert main([*argv, "--corpus", "shards/*.jsonl"]) == 1
        assert main(argv) == 0
        assert (root / "picked.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps(doc) + "\n" for doc in (DOC_A, DOC_B))


def _no_read(*args):
    raise AssertionError("a score shard was read")


class TestArgumentErrorsReadNoShard:
    """A refused argument stops a phase-two command before it reads any
    score shard."""

    @pytest.mark.parametrize("argv, message", [
        (["split", "--out", "split", "--budget-tokens", "-1"],
         "token budget must be >= 0, got -1"),
        (["analyze", "hist", "--metric", "d", "--group-by", "subset",
          "--buckets", "0", "--out", "h.csv"],
         "need at least 1 bucket, got 0"),
        (["analyze", "corr", "--columns", "d,bogus", "--out", "corr.json"],
         "no score field 'bogus'; available: hks, d, c, art, culture, "
         "life, science, society, ext:<name>"),
        (["analyze", "corr", "--columns", "d,d", "--out", "corr.json"],
         "column 'd' is named more than once"),
        (["analyze", "corr", "--columns", "hks,d,hks", "--out", "corr.json"],
         "column 'hks' is named more than once"),
        (["analyze", "corr", "--columns", "d,ext:ppl,ext:ppl", "--ext",
          "ext.jsonl", "--out", "corr.json"],
         "column 'ext:ppl' is named more than once"),
    ], ids=["split-negative-budget", "hist-zero-buckets", "corr-bogus-column",
            "corr-column-twice", "corr-column-repeated-apart",
            "corr-ext-column-twice"])
    def test_refused_before_load(self, workspace, capsys, monkeypatch,
                                 argv, message):
        root, corpus = workspace
        scores = _scored(root, corpus)
        monkeypatch.setattr(hks.pipeline, "load_score_records", _no_read)
        monkeypatch.chdir(root)
        capsys.readouterr()
        assert main([*argv, "--scores", str(scores)]) == 2
        assert f"hks: error: {message}" in capsys.readouterr().err
        assert files_under(root / "scores").keys() == {
            scores / name for name in ("manifest.json", "run_stats.json",
                                       "scores-00000.jsonl",
                                       "scores-00001.jsonl",
                                       "scores-00002.jsonl",
                                       "scores-00000.columns.json",
                                       "scores-00001.columns.json",
                                       "scores-00002.columns.json")}
        assert not any(root.glob(argv[argv.index("--out") + 1]))

    def test_corr_of_one_column_is_usage_error(self, workspace, capsys,
                                               monkeypatch):
        root, corpus = workspace
        scores = _scored(root, corpus)
        monkeypatch.setattr(hks.pipeline, "load_score_records", _no_read)
        capsys.readouterr()
        assert main(["analyze", "corr", "--scores", str(scores), "--columns",
                     "d", "--out", str(root / "corr.json")]) == 1
        assert ("hks: error: --columns needs at least two entries"
                in capsys.readouterr().err)
        assert not (root / "corr.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "0.5", "--budget-tokens", "10"],
         "mix strategy requires a split budget"),
        (["--alpha", "0.5", "--split-budget-tokens", "6", "--budget-docs",
          "1"], "mix strategy budgets tokens, not documents"),
    ], ids=["no-split-budget", "budget-docs"])
    def test_incomplete_mix_is_usage_error(self, workspace, capsys,
                                           monkeypatch, flags, message):
        root, corpus = workspace
        scores = _scored(root, corpus)
        monkeypatch.setattr(hks.pipeline, "load_score_records", _no_read)
        capsys.readouterr()
        assert main(["select", "--scores", str(scores), "--out",
                     str(root / "sel"), "--strategy", "mix", *flags]) == 1
        assert f"hks: error: {message}" in capsys.readouterr().err
        assert not (root / "sel").exists()


# Each case leaves every candidate score finite but one: d*c of the first
# pair overflows; in the second case sin(d)*c spans -3.8e307 to 1.5e308.
OVERFLOWING_PAIRS = {
    "score": {"a": {"d": 1e300, "c": 1e300}, "b": {"d": 0.1, "c": 0.2}},
    "span": {"a": {"d": 4.71, "c": 3.8e307}, "b": {"d": 1, "c": 1.79e308}},
}


@pytest.mark.parametrize("normalize", [[], ["--per-pair-normalize"]],
                         ids=["global", "per-pair"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_PAIRS))
def test_fsearch_out_of_range_pairs_are_data_error(tmp_path, capsys, case,
                                                   normalize):
    pairs = tmp_path / "pairs.jsonl"
    rows = [{**OVERFLOWING_PAIRS[case], "label": 1.0},
            {"a": {"d": 0.3, "c": 0.1}, "b": {"d": 0.1, "c": 0.2},
             "label": 0.0},
            {"a": {"d": 0.2, "c": 0.3}, "b": {"d": 0.5, "c": 0.4},
             "label": 0.5}]
    pairs.write_text("".join(json.dumps(r) + "\n" for r in rows),
                     encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", "fsearch", "--pairs", str(pairs), "--out",
                 str(tmp_path / "fs.csv"), *normalize]) == 2
    err = capsys.readouterr().err
    assert f"hks: error: {pairs}: formula " in err
    assert "beyond float range" in err
    assert not (tmp_path / "fs.csv").exists()
