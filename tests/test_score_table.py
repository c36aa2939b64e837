"""Phase two on score columns: the table path against the record path,
and the values a score line must hold."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hks import (DataError, ScoreRecord, SelectionSpec, StratumExhaustedError,
                 bucket_distribution, correlation_matrix, select,
                 threshold_split)
from hks.cli import main
from hks.files import canonical_json, line_digest, verified_lines
from hks.metrics import ScoreTable
from hks.pipeline import (COLUMNS_SUFFIX, load_score_records, run_corr,
                          run_hist, run_select, run_split, write_columns)

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
    (edited() + " {}", "not a score record (extra data at column "
                       f"{len(edited()) + 1})"),
], ids=["id-int", "id-empty", "id-list", "n_p-str", "n_p-bool", "n_p-zero",
        "n_p-float", "hks-nan", "d-inf", "c-str", "hks-bool", "hks-null",
        "hks-huge-int", "domain-nan", "meta-list", "meta-str",
        "domains-missing", "n_k-missing", "trailing-data"])
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


def renamed(domain: str, to: str) -> str:
    """GOOD with one domain block under another name."""
    obj = json.loads(edited())
    obj["domains"][to] = obj["domains"].pop(domain)
    return json.dumps(obj)


@pytest.mark.parametrize("shards, named", [
    ([[edited(id="doc-a"), renamed("art", "arts")]], "scores-00000.jsonl:2"),
    ([[edited(id="doc-a")], [renamed("life", "living")]],
     "scores-00001.jsonl:1"),
], ids=["within-a-shard", "across-shards"])
def test_renamed_domain_differs_from_the_first_record(tmp_path, capsys,
                                                      shards, named):
    scores = write_scores(tmp_path, shards)
    message = f"{scores / named}: domains differ from the first record's"
    capsys.readouterr()
    assert main(["select", "--scores", str(scores), "--budget-docs", "1",
                 "--out", str(tmp_path / "sel")]) == 2
    assert message in capsys.readouterr().err
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


def add_columns(scores: Path, edit=None) -> None:
    """List a column file for every shard of the run under `scores`,
    built from the shard's lines; `edit(columns)` may change the last
    shard's parsed columns before they are written."""
    manifest = json.loads((scores / "manifest.json").read_text())
    for entry in manifest["shards"]:
        shard = scores / entry["output"]
        with verified_lines(shard, entry["sha256"]) as lines:
            columns = ScoreTable().parse_lines(lines, shard)
        path = scores / entry["output"].replace(".jsonl", ".columns.json")
        entry["columns"] = path.name
        entry["columns_sha256"] = write_columns(path, columns,
                                                entry["sha256"])
    if edit is not None:
        columns = json.loads(path.read_text(encoding="utf-8"))
        edit(columns)
        path.write_text(canonical_json(columns), encoding="utf-8")
        entry["columns_sha256"] = line_digest(path)[0]
    (scores / "manifest.json").write_text(json.dumps(manifest))


def strict(table: ScoreTable) -> tuple:
    """Every column of `table`, with its key order, in a form where 1,
    1.0, True, -0.0 and 0.0 all differ."""
    return (canonical_json([table.ids, table.n_p, table.meta]),
            list(table.scores), canonical_json(list(table.scores.values())),
            [(path, span) for path, _, span in table.shards])


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
               | st.floats() | st.text(alphabet="aé東\u2028\u0085\\\"", max_size=4))
METAS = st.none() | st.dictionaries(
    st.text(alphabet="ké\u2028", max_size=3),
    st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                 max_leaves=6), max_size=3)
SCORES = st.floats(0, 4, allow_subnormal=True) | st.sampled_from([0.0, 1e-300])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shards=st.lists(st.lists(st.tuples(st.integers(1, 2 ** 40), SCORES,
                                          SCORES, SCORES, METAS,
                                          st.lists(SCORES, min_size=5,
                                                   max_size=5)),
                                max_size=6),
                       min_size=1, max_size=4),
       domains=st.booleans())
def test_column_files_give_the_parsed_table(tmp_path_factory, shards,
                                            domains):
    root = tmp_path_factory.mktemp("columns")
    rows = 0
    lines = []
    for shard in shards:
        lines.append([])
        for n_p, d, c, hks, meta, scores in shard:
            blocks = {m: {"n": 0, "distinct": 0, "d": 0.0, "c": 0.0,
                          "score": s} for m, s in zip(DOMAINS, scores)}
            lines[-1].append(ScoreRecord(
                doc_id=ID_FORMS[rows % len(ID_FORMS)].format(rows), n_p=n_p,
                n_k=0, n_distinct=0, d=d, c=c, hks=hks,
                domains=blocks if domains else {}, meta=meta).to_json())
            rows += 1
    scores = write_scores(root, lines)
    if not rows:
        with pytest.raises(DataError, match="holds zero records"):
            load_score_records(scores)
        return
    parsed = load_score_records(scores)
    add_columns(scores)
    assert strict(load_score_records(scores)) == strict(parsed)


def columns_run(tmp_path, edit) -> tuple[Path, Path]:
    first = edited(id="doc-a")
    scores = write_scores(tmp_path, [[first], [first.replace("doc-a", "x"),
                                               edited()]])
    add_columns(scores, edit)
    return scores, scores / "scores-00001.columns.json"


def set_value(key, value, domain=None):
    def edit(columns):
        (columns["domains"][domain] if domain else columns[key])[1] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (set_value("id", ""), ":2: 'id' is not a non-empty string"),
    (set_value("n_p", True), ":2: 'n_p' is not an integer >= 1"),
    (set_value("n_p", 2.0), ":2: 'n_p' is not an integer >= 1"),
    (set_value("hks", float("nan")), ":2: 'hks' is not a finite number"),
    (set_value("c", None), ":2: 'c' is not a finite number"),
    (set_value(None, "0", "science"),
     ":2: 'domains.science.score' is not a finite number"),
    (set_value("meta", ["web"]), ":2: 'meta' is not an object"),
    (lambda columns: columns["domains"].pop("art"),
     ": not a column file (domains differ from the first record's)"),
    (lambda columns: columns["d"].pop(),
     ": not a column file (columns differ in length)"),
    (lambda columns: columns.pop("meta"),
     ": not a column file (missing key 'meta')"),
    (lambda columns: columns.update(id="x"),
     ": not a column file (columns differ in length)"),
], ids=["id-empty", "n_p-bool", "n_p-float", "hks-nan", "c-null",
        "domain-str", "meta-list", "domains-differ", "short-column",
        "meta-missing", "ids-not-a-list"])
def test_malformed_column_is_data_error_naming_it(tmp_path, edit, message):
    scores, columns = columns_run(tmp_path, edit)
    with pytest.raises(DataError, match=re.escape(f"{columns}{message}")):
        load_score_records(scores)


def test_column_file_counts_and_ids_are_checked(tmp_path):
    scores, columns = columns_run(tmp_path, lambda c: c["id"].__setitem__(
        1, "x"))
    shard = scores / "scores-00001.jsonl"
    with pytest.raises(DataError, match=re.escape(
            f"duplicate document id 'x' in {shard} and {shard}")):
        load_score_records(scores)
    manifest = json.loads((scores / "manifest.json").read_text())
    manifest["shards"][1]["records"] = 3
    (scores / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=re.escape(
            f"{shard}: holds 2 records, the manifest lists 3")):
        load_score_records(scores)


@pytest.mark.parametrize("flags", [[], ["--no-domains"]],
                         ids=["domains", "no-domains"])
def test_scored_column_files_are_written_from_the_parsed_lines(tmp_path,
                                                               flags):
    (tmp_path / "pool.tsv").write_text(
        "machine learning\tscience\njazz\tart\ngraph theory\tscience\n",
        encoding="utf-8")
    texts = ["machine learning and jazz", "jazz jazz", "graph theory",
             "nothing here", "machine learning, graph theory and jazz"]
    metas = [None, {"subset": "a\u2028b"}, {"n": [1, -0.0, 1e400]},
             {"k": "é\u0085", "z": {"y": None}}, {}]
    for shard in range(2):
        (tmp_path / f"docs-{shard}.jsonl").write_text("".join(
            json.dumps({"id": ID_FORMS[i].format(shard), "text": text,
                        "meta": meta}) + "\n"
            for i, (text, meta) in enumerate(zip(texts, metas))
            if i != shard + 1), encoding="utf-8")
    scores = tmp_path / "scores"
    assert main(["score", "--pool", str(tmp_path / "pool.tsv"), "--corpus",
                 str(tmp_path / "docs-*.jsonl"), "--out", str(scores),
                 *flags]) == 0
    manifest = json.loads((scores / "manifest.json").read_text())
    for entry in manifest["shards"]:
        shard = scores / entry["output"]
        with verified_lines(shard, entry["sha256"]) as lines:
            columns = ScoreTable().parse_lines(lines, shard)
        assert "\u2028" in "".join(columns["id"])
        assert "\u0085" in "".join(columns["id"])
        assert bool(columns["domains"]) == (not flags)
        written = scores / entry["columns"]
        named = json.loads(written.read_bytes())
        identity = {key: named[key]
                    for key in ("input", "config_hash", "pool_sha256")}
        assert identity["input"] == entry["input"]
        again = tmp_path / f"again{COLUMNS_SUFFIX}"
        assert write_columns(again, columns, entry["sha256"], **identity) \
            == entry["columns_sha256"]
        assert again.read_bytes() == written.read_bytes()


@pytest.mark.parametrize("lines", [
    [], ["not json", '{"id": "x"}'],
    [json.dumps({"id": f"blank-{i}", "text": text})
     for i, text in enumerate(["", "   ", "\t\n"])]],
    ids=["empty", "malformed", "zero-tokens"])
def test_shard_without_scored_records_writes_the_parsed_columns(tmp_path,
                                                                lines):
    # With domain scores on, a shard that scores nothing still writes the
    # column file of its (empty) parsed lines: "domains":{}.
    (tmp_path / "pool.tsv").write_text("jazz\tart\ngraph theory\tscience\n",
                                       encoding="utf-8")
    (tmp_path / "docs.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8")
    scores = tmp_path / "scores"
    assert main(["score", "--pool", str(tmp_path / "pool.tsv"), "--corpus",
                 str(tmp_path / "docs.jsonl"), "--out", str(scores)]) == 0
    [entry] = json.loads((scores / "manifest.json").read_text())["shards"]
    assert entry["records"] == 0
    shard = scores / entry["output"]
    with verified_lines(shard, entry["sha256"]) as parsed:
        columns = ScoreTable().parse_lines(parsed, shard)
    written = scores / entry["columns"]
    named = json.loads(written.read_bytes())
    assert named["domains"] == {}
    again = tmp_path / f"again{COLUMNS_SUFFIX}"
    assert write_columns(again, columns, entry["sha256"],
                         **{key: named[key] for key in
                            ("input", "config_hash", "pool_sha256")}) \
        == entry["columns_sha256"]
    assert again.read_bytes() == written.read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["d", "c", "hks", "art"])
def test_record_list_with_a_non_finite_score_is_refused(field, bad):
    # Refused where the rows enter, whichever column a later read takes.
    records = toy_records(4, 6, True)
    target = records[3]
    if field in DOMAINS:
        target.domains[field]["score"] = bad
    else:
        setattr(target, field, bad)
    for ordered in (records, records[::-1]):
        with pytest.raises(DataError, match=(
                f"^record {re.escape(repr(target.doc_id))}: '{field}' is "
                f"not a finite number \\({bad!r}\\)$")):
            ScoreTable.from_records(ordered)


@pytest.mark.parametrize("bad", [None, "1.0", 10 ** 400],
                         ids=["none", "str", "huge-int"])
@pytest.mark.parametrize("field", ["d", "hks", "art"])
def test_record_list_with_a_score_that_is_no_number_is_refused(field, bad):
    # math.isfinite raises TypeError or OverflowError on these; the
    # refusal is the DataError a NaN gets, naming record and field.
    records = toy_records(4, 6, True)
    target = records[2]
    if field in DOMAINS:
        target.domains[field]["score"] = bad
    else:
        setattr(target, field, bad)
    for ordered in (records, records[::-1]):
        with pytest.raises(DataError, match=(
                f"^record {re.escape(repr(target.doc_id))}: '{field}' is "
                f"not a finite number \\({re.escape(repr(bad))}\\)$")):
            ScoreTable.from_records(ordered)


def test_column_of_a_loaded_table_is_its_list(tmp_path):
    scores = write_scores(tmp_path, [[r.to_json() for r in
                                      toy_records(5, 30, True)]])
    table = load_score_records(scores)
    for name in ("hks", "d", "art"):
        assert table.column(name) is table.scores[name]
