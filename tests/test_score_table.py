"""Phase two on score columns: the table path against the record path,
and the values a score line must hold."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hks import (DataError, ScoreRecord, SelectionSpec, StratumExhaustedError,
                 bucket_distribution, correlation_matrix, select,
                 threshold_split)
from hks.cli import main
from hks.files import line_digest
from hks.pipeline import (load_score_records, run_corr, run_hist, run_select,
                          run_split)

from helpers import (DOMAINS, oracle_mix, oracle_sample, oracle_split,
                     oracle_topk)

ID_FORMS = ("doc\u2028{}", "東京-{}", "café-{}", "plain-{}",
            "ünï\u0085{}")


def write_scores(root: Path, shards: list[list[str]]) -> Path:
    """A score run directory holding each shard's lines and a manifest
    whose checksums and counts match them."""
    out = root / "scores"
    out.mkdir()
    entries = []
    for i, lines in enumerate(shards):
        path = out / f"scores-{i:05d}.jsonl"
        path.write_bytes("".join(line + "\n" for line in lines).encode())
        entries.append({"input": f"corpus-{i}.jsonl", "output": path.name,
                        "sha256": line_digest(path)[0],
                        "records": len(lines)})
    manifest = {"config_hash": "0" * 64, "pool": {"sha256": "0" * 64},
                "records": sum(e["records"] for e in entries),
                "shards": entries}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


def toy_records(seed: int, n: int, domains: bool) -> list[ScoreRecord]:
    """Records with Unicode ids and heavily tied scores."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        n_p = int(rng.integers(1, 40))
        d, c = float(rng.integers(0, 4)) / 4, float(rng.integers(0, 3)) / 8
        blocks = {m: {"n": 0, "distinct": 0, "d": 0.0, "c": 0.0,
                      "score": float(rng.integers(0, 3)) / 2}
                  for m in DOMAINS} if domains else {}
        group = rng.integers(0, 3)
        records.append(ScoreRecord(
            doc_id=ID_FORMS[i % len(ID_FORMS)].format(i), n_p=n_p,
            n_k=int(rng.integers(0, 9)), n_distinct=0, d=d, c=c,
            hks=d * math.log1p(c), domains=blocks,
            meta=None if group == 2 else {"subset": "ab"[group]}))
    return records


def outcome(fn, *args):
    """A call's result, or the type and text of the DataError it raised."""
    try:
        return fn(*args)
    except DataError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("domains", [True, False])
@pytest.mark.parametrize("seed", [1, 2])
def test_table_path_matches_record_path(tmp_path, seed, domains):
    records = toy_records(seed, 60, domains)
    lines = [r.to_json() for r in records]
    scores = write_scores(tmp_path, [lines[:25], lines[25:26], lines[26:]])
    table = load_score_records(scores)
    parsed = [ScoreRecord.from_json(line) for line in lines]
    assert table.ids == [r.doc_id for r in records]
    total = sum(r.n_p for r in records)

    for field in ("hks", "d", *(["science"] if domains else [])):
        rows = [(r.doc_id, r.n_p, r.domains[field]["score"] if
                 field in DOMAINS else getattr(r, field)) for r in records]
        for budget, by_docs in ((total // 3, False), (total, False),
                                (7, True), (0, True)):
            spec = SelectionSpec(budget=budget, by_docs=by_docs, seed=seed,
                                 score_field=field)
            got = select(table, spec)
            assert got == select(parsed, spec)
            assert (got.selected_ids, got.total_tokens, got.threshold) == \
                oracle_topk(rows, budget, by_docs)
            for tau, normalize in ((2.0, True), (0.5, False)):
                sample = SelectionSpec(strategy="sample", budget=budget,
                                       by_docs=by_docs, tau=tau, seed=seed,
                                       normalize=normalize, score_field=field)
                got = select(table, sample)
                assert got == select(parsed, sample)
                assert (got.selected_ids, got.total_tokens, got.threshold) \
                    == oracle_sample(rows, budget, by_docs, tau, seed,
                                     normalize)

        for split_budget in (0, total // 4, total):
            high, low, threshold = threshold_split(table, split_budget, field)
            r_high, r_low, r_threshold = threshold_split(parsed, split_budget,
                                                         field)
            assert (high.ids, low.ids, threshold) == (
                [r.doc_id for r in r_high], [r.doc_id for r in r_low],
                r_threshold)
            assert (high.ids, low.ids, threshold) == oracle_split(
                rows, split_budget)
            for alpha in (0.0, 0.5, 1.0):
                spec = SelectionSpec(strategy="mix", budget=total // 8,
                                     alpha=alpha, split_budget=split_budget,
                                     seed=seed, score_field=field)
                got = outcome(select, table, spec)
                assert got == outcome(select, parsed, spec)
                by_id = {row[0]: row for row in rows}
                expected = oracle_mix([by_id[i] for i in high.ids],
                                      [by_id[i] for i in low.ids], alpha,
                                      total // 8, seed)
                if expected is None:
                    assert got[0] is StratumExhaustedError
                else:
                    assert got.selected_ids == expected[0]

    for metric in ("hks", "d", "c"):
        hist = bucket_distribution(table, metric, "subset", 4)
        assert hist.to_csv() == bucket_distribution(
            parsed, metric, "subset", 4).to_csv()
    corr = run_corr(str(scores), ["d", "c", "hks"], str(tmp_path / "c.json"))
    assert corr == correlation_matrix(
        {c: [getattr(r, c) for r in parsed] for c in ("d", "c", "hks")})


def test_phase_two_builds_no_records(tmp_path, monkeypatch):
    scores = str(write_scores(tmp_path, [[r.to_json() for r in
                                          toy_records(3, 40, True)]]))

    def refuse(*args, **kwargs):
        raise AssertionError("phase two built a ScoreRecord")

    monkeypatch.setattr(ScoreRecord, "__init__", refuse)
    for strategy in ("topk", "sample", "mix"):
        run_select(scores, SelectionSpec(strategy=strategy, budget=50,
                                         alpha=0.5, split_budget=100),
                   str(tmp_path / strategy))
    run_split(scores, 100, str(tmp_path / "split"))
    run_hist(scores, "hks", "subset", 5, str(tmp_path / "hist.csv"))
    run_corr(scores, ["d", "c", "hks", "art"], str(tmp_path / "corr.json"))


def test_score_field_missing_from_a_no_domains_run(tmp_path, capsys):
    (tmp_path / "pool.tsv").write_text("jazz\tart\n", encoding="utf-8")
    (tmp_path / "docs.jsonl").write_text(
        json.dumps({"id": "doc-a", "text": "jazz and more jazz"}) + "\n",
        encoding="utf-8")
    scores = str(tmp_path / "scores")
    assert main(["score", "--pool", str(tmp_path / "pool.tsv"), "--corpus",
                 str(tmp_path / "docs.jsonl"), "--out", scores,
                 "--no-domains"]) == 0
    capsys.readouterr()
    assert main(["select", "--scores", scores, "--out",
                 str(tmp_path / "sel"), "--budget-docs", "1",
                 "--score-field", "science"]) == 2
    assert ("record 'doc-a' has no score field 'science'; available: "
            "hks, d, c") in capsys.readouterr().err


GOOD = {"id": "doc-b", "n_p": 6, "n_k": 1, "n_distinct": 1, "d": 0.25,
        "c": 0.5, "hks": 0.1, "meta": {"subset": "web"},
        "domains": {m: {"n": 0, "distinct": 0, "d": 0.0, "c": 0.0,
                        "score": 0.0} for m in DOMAINS}}
DROP = object()


def edited(**changes) -> str:
    """GOOD with keys changed, or removed when set to DROP; `science`
    sets that domain's score."""
    obj = json.loads(json.dumps(GOOD))
    for key, value in changes.items():
        if key == "science":
            obj["domains"]["science"]["score"] = value
        elif value is DROP:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(obj)


@pytest.mark.parametrize("line, message", [
    (edited(id=5), "'id' is not a non-empty string"),
    (edited(id=""), "'id' is not a non-empty string"),
    (edited(id=["doc-b"]), "'id' is not a non-empty string"),
    (edited(n_p="x"), "'n_p' is not an integer >= 1"),
    (edited(n_p=True), "'n_p' is not an integer >= 1"),
    (edited(n_p=0), "'n_p' is not an integer >= 1"),
    (edited(n_p=2.0), "'n_p' is not an integer >= 1"),
    (edited(hks=float("nan")), "'hks' is not a finite number"),
    (edited(d=float("inf")), "'d' is not a finite number"),
    (edited(c="0.5"), "'c' is not a finite number"),
    (edited(hks=True), "'hks' is not a finite number"),
    (edited(hks=None), "'hks' is not a finite number"),
    (edited(hks=10 ** 400), "'hks' is not a finite number"),
    (edited(science=float("nan")),
     "'domains.science.score' is not a finite number"),
    (edited(meta=["web"]), "'meta' is not an object"),
    (edited(meta="web"), "'meta' is not an object"),
    (edited(domains=DROP), "domains differ from the first record's"),
    (edited(n_k=DROP), "not a score record (missing key 'n_k')"),
], ids=["id-int", "id-empty", "id-list", "n_p-str", "n_p-bool", "n_p-zero",
        "n_p-float", "hks-nan", "d-inf", "c-str", "hks-bool", "hks-null",
        "hks-huge-int", "domain-nan", "meta-list", "meta-str",
        "domains-missing", "n_k-missing"])
def test_malformed_value_is_data_error_naming_its_line(tmp_path, capsys,
                                                       line, message):
    first = edited(id="doc-a")
    scores = write_scores(tmp_path, [[first], [first.replace("doc-a", "x"),
                                               line]])
    capsys.readouterr()
    for argv in (["select", "--budget-docs", "1", "--out", "sel"],
                 ["analyze", "corr", "--columns", "d,hks", "--out", "c.json"]):
        argv[-1] = str(tmp_path / argv[-1])
        assert main([*argv, "--scores", str(scores)]) == 2
        err = capsys.readouterr().err
        assert f"{scores / 'scores-00001.jsonl'}:2: {message}" in err
    with pytest.raises(DataError, match=re.escape(message)):
        load_score_records(scores)


@pytest.mark.parametrize("blank", ["", " \t"], ids=["empty", "whitespace"])
def test_blank_line_is_not_a_score_record(tmp_path, capsys, blank):
    scores = write_scores(tmp_path, [[edited(id="doc-a"), blank,
                                      edited(id="doc-c")]])
    # A manifest counting two records, as if blank lines were skipped.
    manifest = json.loads((scores / "manifest.json").read_text())
    manifest["records"] = manifest["shards"][0]["records"] = 2
    (scores / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["select", "--scores", str(scores), "--budget-docs", "1",
                 "--out", str(tmp_path / "sel")]) == 2
    assert (f"{scores / 'scores-00000.jsonl'}:2: not a score record"
            in capsys.readouterr().err)
    assert not (tmp_path / "sel").exists()


def test_duplicate_id_within_a_shard_is_named(tmp_path):
    line = edited(id="doc-a")
    scores = write_scores(tmp_path, [[edited(id="doc-0")], [line, line]])
    shard = scores / "scores-00001.jsonl"
    with pytest.raises(DataError, match=re.escape(
            f"duplicate document id 'doc-a' in {shard} and {shard}")):
        load_score_records(scores)
