"""Command-line interface: exit codes, flag validation, end-to-end flows."""

import json
from pathlib import Path

import pytest

from hks.cli import main

from test_pipeline import DOC_A, DOC_B, DOC_C, POOL_TSV, write_corpus


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "pool.tsv").write_text(POOL_TSV, encoding="utf-8")
    corpus = write_corpus(tmp_path, [[DOC_A], [DOC_B], [DOC_C]])
    return tmp_path, corpus


def run_score(root, corpus, *extra):
    return main(["score", "--pool", str(root / "pool.tsv"),
                 "--corpus", corpus, "--out", str(root / "scores"), *extra])


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

    def test_bad_workers_env(self, workspace, monkeypatch):
        root, corpus = workspace
        monkeypatch.setenv("HKS_WORKERS", "lots")
        assert run_score(root, corpus) == 1

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

    def test_workers_env_override(self, workspace, monkeypatch, capsys):
        root, corpus = workspace
        monkeypatch.setenv("HKS_WORKERS", "2")
        assert run_score(root, corpus) == 0
        stats = json.loads((root / "scores" / "run_stats.json").read_text())
        assert stats["workers"] == 2

    def test_no_boundary_and_no_domains_flags(self, workspace):
        root, corpus = workspace
        assert run_score(root, corpus, "--no-boundary", "--no-domains") == 0
        line = (root / "scores" / "scores-00000.jsonl").read_text().splitlines()[0]
        assert "domains" not in json.loads(line)

    def test_emit_corpus_requires_corpus(self, workspace):
        root, corpus = workspace
        assert run_score(root, corpus) == 0
        assert main(["select", "--scores", str(root / "scores"),
                     "--out", str(root / "sel"),
                     "--budget-tokens", "15",
                     "--emit-corpus", str(root / "picked.jsonl")]) == 1
