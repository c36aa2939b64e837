"""Selection strategies: ordering, budgets, sampling, mixtures."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hks import (DataError, SelectionSpec, StratumExhaustedError,
                 gumbel_topk_sample, mix, select, threshold_split, top_k)

from helpers import (make_record, oracle_mix, oracle_sample, oracle_split,
                     oracle_topk, softmax)


def records_from(scores, n_p=None):
    n_p = n_p or [10] * len(scores)
    return [make_record(f"doc-{i:04d}", n_p[i], s)
            for i, s in enumerate(scores)]


def random_records(rng, n, tokens=(5, 50)):
    scores = rng.permutation(n * 7)[:n] / (n * 7)  # distinct scores
    n_p = rng.integers(tokens[0], tokens[1] + 1, size=n)
    return records_from([float(s) for s in scores],
                        [int(t) for t in n_p])


class TestTopK:
    def test_doc_budget_ordering(self):
        recs = records_from([3.0, 2.0, 1.0])
        res = top_k(recs, SelectionSpec(budget=2, by_docs=True))
        assert res.selected_ids == ["doc-0000", "doc-0001"]
        assert res.threshold == 2.0

    def test_id_tiebreak(self):
        recs = records_from([2.0, 2.0])
        res = top_k(recs, SelectionSpec(budget=1, by_docs=True))
        assert res.selected_ids == ["doc-0000"]

    def test_token_budget_includes_crossing_doc(self):
        recs = records_from([4.0, 3.0, 2.0, 1.0], n_p=[5, 5, 5, 5])
        res = top_k(recs, SelectionSpec(budget=12))
        assert res.selected_ids == ["doc-0000", "doc-0001", "doc-0002"]
        assert res.total_tokens == 15

    def test_budget_zero_empty(self):
        res = top_k(records_from([1.0, 2.0]), SelectionSpec(budget=0))
        assert res.selected_ids == []
        assert res.threshold is None

    def test_budget_beyond_corpus_selects_all(self):
        recs = records_from([1.0, 2.0], n_p=[5, 5])
        res = top_k(recs, SelectionSpec(budget=10**9))
        assert len(res.selected_ids) == 2
        assert res.threshold == 1.0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            recs = random_records(rng, int(rng.integers(1, 200)))
            budget = int(rng.integers(0, 3000))
            res = top_k(recs, SelectionSpec(budget=budget))
            ordered = sorted(recs, key=lambda r: (-r.hks, r.doc_id))
            expect, total = [], 0
            for r in ordered:
                if total >= budget:
                    break
                expect.append(r.doc_id)
                total += r.n_p
            assert res.selected_ids == expect
            assert res.total_tokens == total

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            recs = random_records(rng, int(rng.integers(2, 100)))
            budget = int(rng.integers(1, 1500))
            spec = SelectionSpec(budget=budget)
            base = top_k(recs, spec)
            for f in (lambda x: 2 * x + 7, lambda x: x ** 3):
                mapped = [dataclasses.replace(r, hks=f(r.hks)) for r in recs]
                assert top_k(mapped, spec).selected_ids == base.selected_ids

    def test_input_order_irrelevant(self):
        rng = np.random.default_rng(9)
        recs = random_records(rng, 100)
        spec = SelectionSpec(budget=800)
        base = top_k(recs, spec)
        shuffled = list(recs)
        rng.shuffle(shuffled)
        assert top_k(shuffled, spec).selected_ids == base.selected_ids

    def test_no_duplicate_ids(self):
        rng = np.random.default_rng(10)
        recs = random_records(rng, 50)
        res = top_k(recs, SelectionSpec(budget=600))
        assert len(res.selected_ids) == len(set(res.selected_ids))


class TestGumbelSampling:
    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(11)
        recs = random_records(rng, 40)
        spec = SelectionSpec(strategy="sample", budget=200, seed=123)
        a = gumbel_topk_sample(recs, spec)
        b = gumbel_topk_sample(recs, spec)
        assert a.selected_ids == b.selected_ids
        shuffled = list(recs)
        rng.shuffle(shuffled)
        assert gumbel_topk_sample(shuffled, spec).selected_ids == a.selected_ids

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(12)
        recs = random_records(rng, 60)
        a = gumbel_topk_sample(recs, SelectionSpec(
            strategy="sample", budget=20, by_docs=True, seed=1))
        b = gumbel_topk_sample(recs, SelectionSpec(
            strategy="sample", budget=20, by_docs=True, seed=2))
        assert a.selected_ids != b.selected_ids

    def test_equal_scores_sample_uniformly(self):
        recs = records_from([1.0, 1.0])
        hits = 0
        trials = 20000
        for t in range(trials):
            spec = SelectionSpec(strategy="sample", budget=1, by_docs=True,
                                 seed=t)
            res = gumbel_topk_sample(recs, spec)
            hits += res.selected_ids == ["doc-0000"]
        freq = hits / trials
        assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / trials)

    def test_raw_mode_matches_softmax_closed_form(self):
        # Scores {2, 0} at tau=2: P(first) = e / (e + 1) ~ 0.7311.
        recs = records_from([2.0, 0.0])
        hits = 0
        trials = 20000
        for t in range(trials):
            spec = SelectionSpec(strategy="sample", budget=1, by_docs=True,
                                 tau=2.0, seed=t, normalize=False)
            hits += gumbel_topk_sample(recs, spec).selected_ids == ["doc-0000"]
        p = math.e / (math.e + 1)
        assert abs(hits / trials - p) < 3 * math.sqrt(p * (1 - p) / trials)

    def test_normalized_mode_uses_rescaled_scores(self):
        # {10, 8} min-max rescales to {1, 0}; at tau=1 P(first) is
        # e/(e+1), far from softmax(10,8)=0.881.
        recs = records_from([10.0, 8.0])
        hits = 0
        trials = 20000
        for t in range(trials):
            spec = SelectionSpec(strategy="sample", budget=1, by_docs=True,
                                 tau=1.0, seed=t)
            hits += gumbel_topk_sample(recs, spec).selected_ids == ["doc-0000"]
        p = math.e / (math.e + 1)
        assert abs(hits / trials - p) < 3 * math.sqrt(p * (1 - p) / trials)

    def test_first_pick_distribution_n4(self):
        scores = [0.0, 0.4, 0.8, 1.0]
        recs = records_from(scores)
        trials = 30000
        counts = {r.doc_id: 0 for r in recs}
        for t in range(trials):
            spec = SelectionSpec(strategy="sample", budget=1, by_docs=True,
                                 tau=2.0, seed=t, normalize=False)
            counts[gumbel_topk_sample(recs, spec).selected_ids[0]] += 1
        probs = softmax(scores, 2.0)
        for i, rec in enumerate(recs):
            p = probs[i]
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[rec.doc_id] / trials - p) <= 3 * se

    def test_zero_temperature_equals_topk(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            recs = random_records(rng, int(rng.integers(2, 60)))
            budget = int(rng.integers(1, 800))
            sample_spec = SelectionSpec(strategy="sample", budget=budget,
                                        tau=1e-6, seed=int(rng.integers(2**32)))
            topk_spec = SelectionSpec(budget=budget)
            assert (gumbel_topk_sample(recs, sample_spec).selected_ids
                    == top_k(recs, topk_spec).selected_ids)

    def test_without_replacement(self):
        rng = np.random.default_rng(14)
        recs = random_records(rng, 50)
        res = gumbel_topk_sample(recs, SelectionSpec(
            strategy="sample", budget=10**6, seed=5))
        assert len(res.selected_ids) == len(set(res.selected_ids)) == 50


class TestThresholdSplit:
    def test_four_doc_example(self):
        recs = records_from([4.0, 3.0, 2.0, 1.0], n_p=[5, 5, 5, 5])
        high, low, threshold = threshold_split(recs, 10)
        assert [r.doc_id for r in high] == ["doc-0000", "doc-0001"]
        assert [r.doc_id for r in low] == ["doc-0002", "doc-0003"]
        assert threshold == 3.0

    def test_budget_zero(self):
        recs = records_from([1.0, 2.0])
        high, low, threshold = threshold_split(recs, 0)
        assert high == []
        assert len(low) == 2
        assert threshold is None

    def test_budget_beyond_corpus(self):
        recs = records_from([1.0, 2.0], n_p=[5, 5])
        high, low, threshold = threshold_split(recs, 100)
        assert len(high) == 2
        assert low == []
        assert threshold == 1.0

    def test_sparse_corpus_empties_low(self, caplog):
        # Five matched documents among 95 zero scores: the split budget
        # reaches the zero scores, so the threshold is 0.0 and every
        # record lands high.
        recs = records_from([0.5] * 5 + [0.0] * 95)
        with caplog.at_level("WARNING", logger="hks.selection"):
            high, low, threshold = threshold_split(recs, 200)
        assert (len(high), low, threshold) == (100, [], 0.0)
        assert any("threshold 0.0 is the corpus's lowest hks score" in r.message
                   for r in caplog.records)
        spec = SelectionSpec(strategy="mix", budget=100, alpha=0.75,
                             split_budget=200)
        with pytest.raises(StratumExhaustedError) as exc:
            select(recs, spec)
        assert exc.value.stratum == "low"

    def test_negative_budget_rejected(self):
        with pytest.raises(DataError, match="token budget must be >= 0"):
            threshold_split(records_from([1.0, 2.0]), -1)

    def test_ties_at_threshold_go_high(self):
        recs = records_from([5.0, 3.0, 3.0, 1.0], n_p=[5, 5, 5, 5])
        high, low, threshold = threshold_split(recs, 10)
        assert threshold == 3.0
        assert [r.doc_id for r in high] == ["doc-0000", "doc-0001", "doc-0002"]

    def test_partition_property(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            recs = random_records(rng, int(rng.integers(1, 150)))
            budget = int(rng.integers(0, 2000))
            high, low, _ = threshold_split(recs, budget)
            ids = [r.doc_id for r in high] + [r.doc_id for r in low]
            assert sorted(ids) == sorted(r.doc_id for r in recs)
            assert not (set(r.doc_id for r in high)
                        & set(r.doc_id for r in low))


class TestMix:
    def corpus(self, rng, total_tokens=100_000):
        recs = []
        i = 0
        tokens = 0
        while tokens < total_tokens:
            n_p = int(rng.integers(20, 81))
            recs.append(make_record(f"doc-{i:05d}", n_p,
                                    float(rng.random())))
            tokens += n_p
            i += 1
        return recs

    def test_alpha_grid_accounting(self):
        rng = np.random.default_rng(16)
        recs = self.corpus(rng)
        high, low, _ = threshold_split(recs, 50_000)
        high_ids = {r.doc_id for r in high}
        low_ids = {r.doc_id for r in low}
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            res = mix(high, low, alpha, 40_000, seed=21)
            assert res.requested_alpha == alpha
            assert abs(res.realized_alpha - alpha) <= 0.02
            selected = set(res.selected_ids)
            if alpha == 1.0:
                assert selected <= high_ids
            if alpha == 0.0:
                assert selected <= low_ids

    def test_purity_at_extremes_is_exact(self):
        rng = np.random.default_rng(17)
        recs = self.corpus(rng, 20_000)
        high, low, _ = threshold_split(recs, 10_000)
        top = mix(high, low, 1.0, 8_000, seed=3)
        assert set(top.selected_ids) <= {r.doc_id for r in high}
        assert top.realized_alpha == 1.0
        bottom = mix(high, low, 0.0, 8_000, seed=3)
        assert set(bottom.selected_ids) <= {r.doc_id for r in low}
        assert bottom.realized_alpha == 0.0

    def test_exhausted_stratum_names_itself(self):
        recs = records_from([5.0, 1.0], n_p=[10, 10])
        high, low, _ = threshold_split(recs, 10)
        with pytest.raises(StratumExhaustedError, match="high"):
            mix(high, low, 1.0, 1000, seed=0)
        with pytest.raises(StratumExhaustedError, match="low"):
            mix(high, low, 0.0, 1000, seed=0)

    def test_deterministic_and_order_independent(self):
        rng = np.random.default_rng(18)
        recs = self.corpus(rng, 30_000)
        high, low, _ = threshold_split(recs, 15_000)
        res = mix(high, low, 0.5, 10_000, seed=77)
        again = mix(list(reversed(high)), list(reversed(low)), 0.5, 10_000,
                    seed=77)
        assert res.selected_ids == again.selected_ids
        other = mix(high, low, 0.5, 10_000, seed=78)
        assert res.selected_ids != other.selected_ids

    def test_no_duplicates(self):
        rng = np.random.default_rng(19)
        recs = self.corpus(rng, 30_000)
        high, low, _ = threshold_split(recs, 15_000)
        res = mix(high, low, 0.5, 12_000, seed=4)
        assert len(res.selected_ids) == len(set(res.selected_ids))

    def test_bad_alpha_rejected(self):
        with pytest.raises(DataError):
            mix([], [], 1.5, 100, seed=0)

    def test_negative_budget_rejected(self):
        recs = records_from([1.0, 2.0])
        with pytest.raises(DataError, match="token budget must be >= 0"):
            mix(recs, recs, 0.5, -1, seed=0)


class TestDispatch:
    def test_select_routes_strategies(self):
        rng = np.random.default_rng(20)
        recs = random_records(rng, 80)
        topk = select(recs, SelectionSpec(strategy="topk", budget=300))
        assert topk.selected_ids == top_k(
            recs, SelectionSpec(budget=300)).selected_ids
        sample = select(recs, SelectionSpec(strategy="sample", budget=300,
                                            seed=9))
        assert sample.selected_ids == gumbel_topk_sample(
            recs, SelectionSpec(strategy="sample", budget=300,
                                seed=9)).selected_ids

    def test_select_mix_end_to_end(self):
        rng = np.random.default_rng(21)
        recs = []
        for i in range(400):
            recs.append(make_record(f"doc-{i:04d}", int(rng.integers(20, 60)),
                                    float(rng.random())))
        spec = SelectionSpec(strategy="mix", budget=4000, alpha=0.75,
                             seed=5, split_budget=8000)
        res = select(recs, spec)
        assert res.threshold is not None
        assert abs(res.realized_alpha - 0.75) <= 0.02

    def test_mix_requires_alpha_and_split(self):
        recs = records_from([1.0, 2.0])
        with pytest.raises(DataError, match="alpha"):
            select(recs, SelectionSpec(strategy="mix", budget=10))
        with pytest.raises(DataError, match="split"):
            select(recs, SelectionSpec(strategy="mix", budget=10, alpha=0.5))

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SelectionSpec(strategy="best")
        with pytest.raises(DataError):
            SelectionSpec(tau=0.0)
        with pytest.raises(DataError):
            SelectionSpec(budget=-1)
        with pytest.raises(DataError):
            SelectionSpec(alpha=1.2)
        for tau in (math.nan, -math.inf):
            with pytest.raises(DataError, match="tau"):
                SelectionSpec(tau=tau)
        assert SelectionSpec(tau=math.inf).tau == math.inf
        for seed in (-1, 2**64):
            with pytest.raises(DataError, match="seed"):
                SelectionSpec(seed=seed)
        assert SelectionSpec(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_mix_rejects_seed_outside_8_bytes(self, seed):
        recs = records_from([1.0, 2.0])
        with pytest.raises(DataError, match="seed"):
            mix(recs, recs, 0.5, 1, seed)


# Ids mix ASCII, accented and CJK text, so UTF-8 key bytes and code-point
# id order both matter; scores come from a small set, so ties are common.
_rows = st.lists(
    st.tuples(st.text("aZé数据の-1", min_size=1, max_size=4),
              st.integers(1, 40),
              st.sampled_from([0.0, 0.1, 0.5, 0.5000000000000001, 1.0, 3.0])),
    max_size=25, unique_by=lambda row: row[0])


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(rows=_rows, budget=st.integers(0, 500), by_docs=st.booleans(),
           seed=st.integers(0, 2**64 - 1), tau=st.sampled_from([0.5, 2.0]),
           normalize=st.booleans(), alpha=st.sampled_from([0.0, 0.3, 1.0]),
           mix_budget=st.integers(0, 300))
    def test_strategies_match_oracle(self, rows, budget, by_docs, seed, tau,
                                     normalize, alpha, mix_budget):
        recs = [make_record(*row) for row in rows]
        spec = SelectionSpec(budget=budget, by_docs=by_docs, seed=seed,
                             tau=tau, normalize=normalize)
        res = top_k(recs, spec)
        assert ((res.selected_ids, res.total_tokens, res.threshold)
                == oracle_topk(rows, budget, by_docs))
        res = gumbel_topk_sample(recs, spec)
        assert ((res.selected_ids, res.total_tokens, res.threshold)
                == oracle_sample(rows, budget, by_docs, tau, seed, normalize))

        high, low, threshold = threshold_split(recs, budget)
        high_ids, low_ids, expect_threshold = oracle_split(rows, budget)
        assert ([r.doc_id for r in high], [r.doc_id for r in low],
                threshold) == (high_ids, low_ids, expect_threshold)

        by_id = {row[0]: row for row in rows}
        expect = oracle_mix([by_id[i] for i in high_ids],
                            [by_id[i] for i in low_ids], alpha, mix_budget,
                            seed)
        if expect is None:
            with pytest.raises(StratumExhaustedError):
                mix(high, low, alpha, mix_budget, seed)
        else:
            res = mix(high, low, alpha, mix_budget, seed)
            ids, high_tokens, low_tokens = expect
            assert res.selected_ids == ids
            assert res.total_tokens == high_tokens + low_tokens


# Expected picks written out, so the code and the oracle cannot drift
# together.
PINNED_ROWS = [("数据-1", 40, 0.9), ("café", 25, 0.5), ("doc-03", 60, 0.5),
               ("ñandú", 10, 0.0), ("学习の理", 35, 1.2), ("Zeta", 15, 0.75),
               ("élan", 50, 0.1), ("b", 20, 0.5), ("α-beta", 30, 0.3),
               ("x9", 45, 0.0)]


@pytest.mark.parametrize("seed, sample_ids, mix_ids", [
    (1, ["élan", "b", "数据-1", "Zeta"],
     ["b", "学习の理", "doc-03", "ñandú", "α-beta", "élan"]),
    (2, ["café", "学习の理", "b", "Zeta"],
     ["Zeta", "café", "b", "élan", "ñandú"]),
])
def test_pinned_sample_and_mix_ids(seed, sample_ids, mix_ids):
    recs = [make_record(*row) for row in PINNED_ROWS]
    sample = select(recs, SelectionSpec(strategy="sample", budget=4,
                                        by_docs=True, seed=seed))
    assert sample.selected_ids == sample_ids
    assert oracle_sample(PINNED_ROWS, 4, True, 2.0, seed, True)[0] == sample_ids
    mixed = select(recs, SelectionSpec(strategy="mix", budget=120, alpha=0.5,
                                       split_budget=150, seed=seed))
    assert mixed.selected_ids == mix_ids
    high, low, _ = oracle_split(PINNED_ROWS, 150)
    by_id = {row[0]: row for row in PINNED_ROWS}
    assert oracle_mix([by_id[i] for i in high], [by_id[i] for i in low],
                      0.5, 120, seed)[0] == mix_ids
