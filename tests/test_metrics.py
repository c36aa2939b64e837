"""Score formulas, the scoring-function family, and record round-trips."""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hks import (DataError, DegenerateDocumentError, Document, EmptyPoolError,
                 KnowledgeElement, KnowledgePool, KnowledgeProfile,
                 ScoreFunction, ScoreRecord, ScoreTable, all_score_functions,
                 annotate, build_automaton, coverage, density, domain_score,
                 eval_score_function, hks_score, score_record)
from hks.matcher import MatchCounts
from hks.metrics import encode_scores, score_columns
from hks.pool import DOMAINS

from helpers import ref_score_line


def profile(n_p=10, n_k=2, n_distinct=2, per_domain=None):
    return KnowledgeProfile(doc_id="t", n_p=n_p, n_k=n_k,
                            n_distinct=n_distinct,
                            per_domain=per_domain or {})


def pool_of(n_science=50, n_life=50):
    els = [KnowledgeElement(f"s{i:04d}", "science") for i in range(n_science)]
    els += [KnowledgeElement(f"l{i:04d}", "life") for i in range(n_life)]
    return KnowledgePool.from_elements(els)


class TestDensity:
    def test_direct(self):
        assert density(profile(n_p=10, n_k=2)) == 0.2

    def test_zero_matches(self):
        assert density(profile(n_p=10, n_k=0)) == 0.0

    def test_may_exceed_one(self):
        assert density(profile(n_p=7, n_k=25)) == 25 / 7

    def test_zero_tokens_rejected(self):
        with pytest.raises(DegenerateDocumentError):
            density(profile(n_p=0))


class TestCoverage:
    def test_direct(self):
        assert coverage(profile(n_distinct=2), pool_of(50, 50)) == 0.02

    def test_full(self):
        assert coverage(profile(n_distinct=100), pool_of(50, 50)) == 1.0

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            coverage(profile(), KnowledgePool.from_elements([]))

    def test_constructed_document(self):
        # 7 of 40 pool terms present: c must come out at exactly 7/40.
        els = [KnowledgeElement(f"term{i:02d}", "science") for i in range(40)]
        pool = KnowledgePool.from_elements(els)
        auto = build_automaton(pool)
        text = " and ".join(f"term{i:02d}" for i in range(7))
        prof = annotate(Document("x", text), auto)
        assert prof.n_distinct == 7
        assert coverage(prof, pool) == 7 / 40 == 0.175


class TestHksScore:
    def test_frozen_values(self):
        assert hks_score(0.2, 0.02) == pytest.approx(
            0.003960525459235943, rel=1e-15)
        assert hks_score(1.0, 1.0) == pytest.approx(
            0.6931471805599453, rel=1e-15)

    def test_zero_coverage_kills_score(self):
        for d in (0.0, 0.5, 3.0):
            assert hks_score(d, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            hks_score(-0.1, 0.5)
        with pytest.raises(DataError):
            hks_score(0.1, -0.5)

    def test_small_c_accuracy(self):
        # log1p keeps tiny coverage contributions from cancelling.
        c = 1e-15
        assert hks_score(1.0, c) == pytest.approx(c, rel=1e-9)
        assert hks_score(1.0, c) > 0

    def test_monotone_in_d_and_c(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = float(rng.uniform(0, 2))
            c = float(rng.uniform(0.001, 1))
            eps = 1e-6
            assert hks_score(d + eps, c) > hks_score(d, c)
            if d > 0:
                assert hks_score(d, min(c + eps, 1.0)) > hks_score(d, c)

    def test_zero_iff_either_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = float(rng.uniform(0.01, 2))
            c = float(rng.uniform(0.01, 1))
            assert hks_score(d, c) > 0
        assert hks_score(0.0, 0.7) == 0.0


class TestDomainScore:
    def test_formula(self):
        prof = profile(n_p=30, per_domain={"science": (3, 2)})
        d_m, c_m, s_m = domain_score(prof, pool_of(n_science=50), "science")
        assert d_m == 0.1
        assert c_m == 0.04
        assert s_m == pytest.approx(0.00392207131532813, rel=1e-15)

    def test_unmatched_domain_scores_zero(self):
        prof = profile(per_domain={})
        _, _, s_m = domain_score(prof, pool_of(), "science")
        assert s_m == 0.0

    def test_single_domain_pool_equals_generic(self):
        els = [KnowledgeElement(f"t{i:02d}", "science") for i in range(20)]
        pool = KnowledgePool.from_elements(els)
        prof = profile(n_p=10, n_k=4, n_distinct=3,
                       per_domain={"science": (4, 3)})
        d_m, c_m, s_m = domain_score(prof, pool, "science")
        assert s_m == hks_score(density(prof), coverage(prof, pool))

    def test_empty_subpool_rejected(self):
        with pytest.raises(EmptyPoolError, match="art"):
            domain_score(profile(), pool_of(), "art")

    def test_unknown_domain_rejected(self):
        with pytest.raises(DataError):
            domain_score(profile(), pool_of(), "finance")


class TestScoreFunctionFamily:
    def test_default_member_is_hks(self):
        sf = ScoreFunction("identity", "ln1p")
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = float(rng.uniform(0, 2))
            c = float(rng.uniform(0, 1))
            assert eval_score_function(sf, d, c) == hks_score(d, c)

    def test_frozen_value(self):
        sf = ScoreFunction("ln1p", "sin")
        assert eval_score_function(sf, 1.0, 1.0) == pytest.approx(
            0.583263240642594, rel=1e-15)

    def test_sin_zero(self):
        sf = ScoreFunction("sin", "sin")
        assert eval_score_function(sf, 0.0, 0.7) == 0.0

    def test_family_has_nine_distinct_names(self):
        fns = all_score_functions()
        names = [sf.name for sf in fns]
        assert len(fns) == 9
        assert len(set(names)) == 9
        assert "d*ln(c+1)" in names
        assert "sin(d)*sin(c)" in names
        assert "ln(d+1)*c" in names

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError):
            ScoreFunction("exp", "identity")

    def test_components_concave_on_unit_interval(self):
        # Discrete second differences of each g stay <= 0 (+1e-12).
        xs = np.linspace(0, 1, 201)
        for kind, fn in (("identity", lambda x: x),
                         ("sin", np.sin),
                         ("ln1p", np.log1p)):
            ys = fn(xs)
            second = ys[2:] - 2 * ys[1:-1] + ys[:-2]
            assert np.all(second <= 1e-12), kind

    def test_components_nondecreasing(self):
        xs = np.linspace(0, 1, 201)
        for fn in (lambda x: x, np.sin, np.log1p):
            ys = fn(xs)
            assert np.all(np.diff(ys) >= 0)


class TestScoreRecord:
    def inputs(self):
        prof = KnowledgeProfile(
            doc_id="doc-1", n_p=8, n_k=5, n_distinct=3,
            per_domain={"science": (3, 2), "culture": (2, 1),
                        "society": (0, 0), "art": (0, 0), "life": (0, 0)})
        els = [KnowledgeElement(f"s{i}", "science") for i in range(4)]
        els += [KnowledgeElement(f"c{i}", "culture") for i in range(1)]
        return prof, KnowledgePool.from_elements(els)

    def rec(self):
        return score_record(*self.inputs(), meta={"subset": "wiki"})

    def test_ratios_are_exact_quotients(self):
        # The floats are the IEEE quotients of the carried integers, so
        # a reader of the JSONL can recompute them bit-for-bit.
        rec = self.rec()
        assert rec.d == rec.n_k / rec.n_p == 5 / 8
        assert rec.c == 3 / 5
        assert rec.hks == rec.d * math.log1p(rec.c)

    def test_domain_block(self):
        rec = self.rec()
        sci = rec.domains["science"]
        assert (sci["n"], sci["distinct"]) == (3, 2)
        assert sci["d"] == 3 / 8
        assert sci["c"] == 2 / 4
        assert rec.domains["art"]["score"] == 0.0
        # One formula: non-empty domains score as domain_score does, and
        # domains without pool elements are all zeros.
        prof, pool = self.inputs()
        for m, block in rec.domains.items():
            got = (block["d"], block["c"], block["score"])
            if pool.per_domain_total[m]:
                assert got == domain_score(prof, pool, m)
            else:
                assert got == (0.0, 0.0, 0.0)

    def test_json_roundtrip(self):
        rec = self.rec()
        line = rec.to_json()
        again = ScoreRecord.from_json(line)
        assert again == rec
        assert again.to_json() == line

    def test_json_shape(self):
        obj = json.loads(self.rec().to_json())
        assert set(obj) == {"id", "n_p", "n_k", "n_distinct", "d", "c",
                            "hks", "domains", "meta"}
        assert obj["id"] == "doc-1"
        assert set(obj["domains"]) == {"science", "society", "culture",
                                       "art", "life"}

    def test_missing_key_rejected(self):
        with pytest.raises(DataError):
            ScoreRecord.from_json('{"id": "x"}')

    def test_line_the_decoder_rejects_is_data_error(self):
        # Too deep for the decoder, an integer of more digits than int()
        # converts, and JSON that is not an object.
        for line in ["[" * 200_000, "1" * 5_000, "[1]"]:
            with pytest.raises(DataError, match="^not a score record"):
                ScoreRecord.from_json(line)

    def test_without_domains(self):
        prof = KnowledgeProfile(doc_id="d", n_p=4, n_k=1, n_distinct=1,
                                per_domain={"life": (1, 1)})
        pool = KnowledgePool.from_elements([KnowledgeElement("ab", "life")])
        rec = score_record(prof, pool, with_domains=False)
        assert rec.domains == {}
        assert rec.meta is None
        assert "meta" not in json.loads(rec.to_json())


class TestScoreTable:
    def test_score_field_dispatch(self):
        rec = TestScoreRecord().rec()
        table = ScoreTable.from_records([rec])
        assert table.column("hks") == [rec.hks]
        assert table.column("d") == [rec.d]
        assert table.column("science") == [rec.domains["science"]["score"]]
        with pytest.raises(DataError, match="available: hks, d, c, art, "
                                            "culture, life, science"):
            table.column("ppl")

    def test_missing_domain_names_first_record_lacking_it(self):
        # One table holds one domain set: a record whose domains differ
        # from the first record's is refused by name, so no column has a
        # hole.
        rec = TestScoreRecord().rec()
        bare = ScoreRecord(doc_id="bare", n_p=3, n_k=0, n_distinct=0,
                           d=0.0, c=0.0, hks=0.0)
        fewer = dataclasses.replace(rec, doc_id="fewer", domains={
            m: v for m, v in rec.domains.items() if m != "art"})
        for records, named in [([rec, bare], "bare"), ([bare, rec], "doc-1"),
                               ([rec, rec, fewer], "fewer")]:
            with pytest.raises(DataError, match=f"^record '{named}' has "
                                                f"domains"):
                ScoreTable.from_records(records)
        table = ScoreTable.from_records([bare, bare])
        assert table.column("hks") == [0.0, 0.0]
        with pytest.raises(DataError, match="record 'bare' has no score "
                                            "field 'art'; available: hks, "
                                            "d, c$"):
            table.column("art")
        assert ScoreTable.from_records([]).column("art") == []

    def test_take_and_identity(self):
        rec = TestScoreRecord().rec()
        table = ScoreTable.from_records([rec])
        assert ScoreTable.from_records(table) is table
        part = table.take([0, 0])
        assert part.ids == ["doc-1", "doc-1"] and part.meta == [rec.meta] * 2
        assert len(table.take([])) == 0


# (f, g, name, f(0.25) * g(0.5), f(3.5) * g(2)) for every candidate, in
# all_score_functions() order; d = 3.5 exceeds 1 as overlaps allow.
CANDIDATES = [
    ("identity", "identity", "d*c", 0.125, 7.0),
    ("identity", "sin", "d*sin(c)", 0.11985638465105075, 3.182540993889886),
    ("identity", "ln1p", "d*ln(c+1)", 0.1013662770270411, 3.8451430103383837),
    ("sin", "identity", "sin(d)*c", 0.12370197962726147, -0.7015664553792397),
    ("sin", "sin", "sin(d)*sin(c)", 0.11861177641841196,
     -0.31896628631177854),
    ("sin", "ln1p", "sin(d)*ln(c+1)", 0.10031367308552304,
     -0.38537476459847986),
    ("ln1p", "identity", "ln(d+1)*c", 0.11157177565710488, 3.0081547935525483),
    ("ln1p", "sin", "ln(d+1)*sin(c)", 0.10698071727486963, 1.367653706635336),
    ("ln1p", "ln1p", "ln(d+1)*ln(c+1)", 0.09047692415725579,
     1.652397911206355),
]


def test_candidates_keep_their_names_and_values():
    fns = all_score_functions()
    assert [(sf.f_kind, sf.g_kind) for sf in fns] == [
        row[:2] for row in CANDIDATES]
    for sf, (_, _, name, low, high) in zip(fns, CANDIDATES):
        assert sf.name == name
        assert eval_score_function(sf, 0.25, 0.5) == low
        assert eval_score_function(sf, 3.5, 2) == high


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=8)
# Ids as a corpus line can hold them: anything but a lone surrogate.
_IDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1)


@st.composite
def _rows(draw):
    """(n_p, per-domain (occurrences, distinct) pairs) of one document:
    n_p up to 2^40, each count at most n_p and distinct at most the
    occurrences."""
    n_p = draw(st.integers(1, 2 ** 40))
    pairs = []
    for _ in DOMAINS:
        occ = draw(st.integers(0, n_p))
        pairs.append((occ, draw(st.integers(0, occ))))
    return n_p, pairs


class TestLineEncoder:
    """The batch path's score lines against the json module's encoding
    of a record built from the documented formulas one value at a time,
    and `ScoreRecord.to_json` against both."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(docs=st.lists(st.tuples(_IDS, _rows(), st.none() | st.dictionaries(
        st.text(), _JSON, max_size=3)), min_size=1, max_size=5),
        totals=st.lists(st.integers(0, 3), min_size=len(DOMAINS),
                        max_size=len(DOMAINS)).filter(any),
        with_domains=st.booleans())
    @example(docs=[('"q\\\x00\x1f\u2028é数', (3, [(7, 2)] + [(0, 0)] * 4),
                    {"k": ["é", {"z": None}], "a": 1.5})],
             totals=[2, 0, 0, 0, 0], with_domains=True)
    @example(docs=[("a", (2 ** 40, [(2 ** 40, 2 ** 40)] * 5), None)],
             totals=[1, 1, 1, 1, 1], with_domains=False)
    def test_lines_equal_the_dict_encoding(self, caplog, docs, totals,
                                           with_domains):
        pool = KnowledgePool(
            [f"s{i}" for i in range(sum(totals))],
            np.repeat(np.arange(len(DOMAINS), dtype=np.uint8), totals),
            np.zeros(sum(totals), dtype=np.uint8))
        ids = [doc_id for doc_id, _, _ in docs]
        metas = [meta for _, _, meta in docs]
        profiles = [KnowledgeProfile(
            doc_id, n_p, sum(o for o, _ in pairs), sum(u for _, u in pairs),
            dict(zip(DOMAINS, pairs))) for doc_id, (n_p, pairs), _ in docs]
        counts = MatchCounts.of(profiles)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="hks.metrics"):
            scores = score_columns(ids, counts, pool, with_domains)
        logged = [r.getMessage() for r in caplog.records]
        lines, texts = encode_scores(ids, metas, counts, scores)

        expected, dense = [], []
        for p, meta in zip(profiles, metas):
            d, c = p.n_k / p.n_p, p.n_distinct / pool.total
            domains = {}
            for m, (occ, distinct) in (p.per_domain.items()
                                       if with_domains else ()):
                total = pool.per_domain_total[m]
                d_m, c_m = (occ / p.n_p, distinct / total) if total \
                    else (0.0, 0.0)
                domains[m] = {"n": occ, "distinct": distinct, "d": d_m,
                              "c": c_m, "score": d_m * math.log1p(c_m)}
            record = ScoreRecord(p.doc_id, p.n_p, p.n_k, p.n_distinct, d, c,
                                 d * math.log1p(c), domains, meta)
            assert record.to_json() == ref_score_line(record)
            assert score_record(p, pool, with_domains, meta) == record
            expected.append(ref_score_line(record))
            if d > 1:
                dense.append(f"document {p.doc_id} has density {d:.3f} > 1 "
                             f"(overlapping matches)")
        assert lines == expected
        assert logged == dense
        # The column values are the texts of what the lines hold.
        parsed = ScoreTable().parse_lines(lines, "lines")
        dumps = lambda values: [json.dumps(
            v, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
            for v in values]
        assert texts == {**{name: dumps(values) for name, values
                            in parsed.items() if name != "domains"},
                         "domains": {name: dumps(values) for name, values
                                     in parsed["domains"].items()}}
