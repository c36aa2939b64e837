"""Histograms, rank correlation, and the scoring-function search."""

import csv
import math

import numpy as np
import pytest
import scipy.stats

from hks import (DataError, PreferencePair, ScoreFunction,
                 bucket_distribution, correlation_matrix, function_search,
                 pairwise_function_correlation, spearman)
from hks.metrics import eval_score_function

from helpers import brute_spearman, make_record


class TestSpearman:
    def test_identity_anchor(self):
        xs = [3.0, 1.0, 2.0, 5.0]
        assert spearman(xs, xs) == 1.0

    def test_reversal_anchor(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, xs[::-1]) == -1.0

    def test_matches_bruteforce_on_permutations(self):
        rng = np.random.default_rng(31)
        for _ in range(400):
            n = int(rng.integers(2, 9))
            xs = [float(v) for v in rng.permutation(n)]
            ys = [float(v) for v in rng.permutation(n)]
            assert spearman(xs, ys) == brute_spearman(xs, ys)

    def test_ties_match_scipy(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            expect = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expect, abs=1e-12)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(33)
        xs = list(rng.random(30))
        ys = list(rng.random(30))
        base = spearman(xs, ys)
        assert spearman([2 * x + 7 for x in xs], ys) == base
        assert spearman(xs, [y ** 3 for y in ys]) == base

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_constant_vector_rejected(self):
        with pytest.raises(DataError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            spearman([1.0], [2.0])


class TestBucketDistribution:
    def recs(self, values, group):
        return [make_record(f"{group}-{i:04d}", 10, v,
                            meta={"subset": group})
                for i, v in enumerate(values)]

    def test_single_record_single_bucket(self):
        hist = bucket_distribution(self.recs([0.5], "a"), "hks", "subset", 5)
        assert hist.counts["a"].sum() == 1
        assert (hist.counts["a"] == 1).sum() == 1
        assert np.all(np.diff(hist.edges) > 0)

    def test_conservation(self):
        rng = np.random.default_rng(34)
        a = self.recs(list(rng.random(1000)), "a")
        b = self.recs(list(rng.random(800)), "b")
        hist = bucket_distribution(a + b, "hks", "subset", 50)
        assert hist.counts["a"].sum() == 1000
        assert hist.counts["b"].sum() == 800

    def test_shared_global_edges(self):
        a = self.recs([0.0, 0.1], "a")
        b = self.recs([0.9, 1.0], "b")
        hist = bucket_distribution(a + b, "hks", "subset", 10)
        assert hist.edges[0] == 0.0
        assert hist.edges[-1] == 1.0
        # Group a occupies the low buckets, b the high ones.
        assert hist.counts["a"][:5].sum() == 2
        assert hist.counts["b"][5:].sum() == 2

    def test_missing_group_key_routes_to_unknown(self):
        recs = self.recs([0.3], "a") + [make_record("x", 10, 0.7)]
        hist = bucket_distribution(recs, "hks", "subset", 4)
        assert "unknown" in hist.counts
        assert hist.counts["unknown"].sum() == 1

    def test_planted_means_separate(self):
        rng = np.random.default_rng(35)
        low = self.recs(list(rng.normal(0.2, 0.02, 500)), "low")
        high = self.recs(list(rng.normal(0.8, 0.02, 500)), "high")
        hist = bucket_distribution(low + high, "hks", "subset", 10)
        half = len(hist.counts["high"]) // 2
        assert hist.counts["high"][half:].sum() == 500
        assert hist.counts["low"][:half].sum() == 500

    def test_metric_dispatch(self):
        recs = [make_record("x", 10, 0.5, d=0.25, c=0.75),
                make_record("y", 10, 0.1, d=0.5, c=0.1)]
        for metric in ("d", "c", "hks"):
            hist = bucket_distribution(recs, metric, "subset", 3)
            total = sum(v.sum() for v in hist.counts.values())
            assert total == 2

    def test_csv_shape(self):
        hist = bucket_distribution(
            self.recs([0.1, 0.9], "a") + self.recs([0.4], "b"),
            "hks", "subset", 2)
        lines = hist.to_csv().strip().split("\n")
        assert lines[0] == "group,bucket,lo,hi,count"
        assert len(lines) == 1 + 2 * 2  # 2 groups x 2 buckets
        counts = sum(int(line.split(",")[-1]) for line in lines[1:])
        assert counts == 3
        for line in lines[1:]:
            # lo/hi must round-trip as plain floats, not array reprs.
            _, _, lo, hi, _ = line.split(",")
            assert float(hi) > float(lo)

    def test_csv_quotes_groups_and_labels_non_strings_as_json(self):
        groups = ["web,news", ["x", "y"], True, 'say "hi"', "a"]
        recs = [make_record(f"d{i}", 10, 0.25 * i, meta={"subset": g})
                for i, g in enumerate(groups)]
        text = bucket_distribution(recs, "hks", "subset", 2).to_csv()
        rows = list(csv.reader(text.splitlines()))
        assert all(len(row) == 5 for row in rows)
        assert sorted({row[0] for row in rows[1:]}) == sorted(
            ["web,news", '["x","y"]', "true", 'say "hi"', "a"])
        # A plain string group is written bare, as before.
        assert "\na,1,0.5,1.0,1\n" in text
        assert '\n"web,news",0,' in text

    def test_validation(self):
        with pytest.raises(DataError):
            bucket_distribution([], "hks", "subset", 3)
        with pytest.raises(DataError):
            bucket_distribution(self.recs([0.1], "a"), "hks", "subset", 0)
        with pytest.raises(DataError):
            bucket_distribution(self.recs([0.1], "a"), "n_p", "subset", 3)


def sigmoid_labelled_pairs(rng, n, sf):
    """Noise-free preference pairs labelled by a planted formula."""
    pairs = []
    for _ in range(n):
        a = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        b = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        sa = eval_score_function(sf, *a)
        sb = eval_score_function(sf, *b)
        label = 1.0 / (1.0 + math.exp(sa - sb))
        pairs.append(PreferencePair(a=a, b=b, label=label))
    return pairs


class TestPairwiseCorrelation:
    def test_perfectly_aligned_labels(self):
        rng = np.random.default_rng(36)
        sf = ScoreFunction("identity", "ln1p")
        pairs = sigmoid_labelled_pairs(rng, 100, sf)
        assert pairwise_function_correlation(pairs, sf) == 1.0

    def test_anti_aligned_labels(self):
        rng = np.random.default_rng(37)
        sf = ScoreFunction("identity", "ln1p")
        pairs = [PreferencePair(p.a, p.b, 1.0 - p.label)
                 for p in sigmoid_labelled_pairs(rng, 100, sf)]
        assert pairwise_function_correlation(pairs, sf) == -1.0

    def test_rho_in_range(self):
        rng = np.random.default_rng(38)
        pairs = sigmoid_labelled_pairs(rng, 60, ScoreFunction("sin", "sin"))
        for sf in (ScoreFunction("identity", "identity"),
                   ScoreFunction("ln1p", "ln1p")):
            rho = pairwise_function_correlation(pairs, sf)
            assert -1.0 <= rho <= 1.0

    def test_per_pair_normalization_flag(self):
        rng = np.random.default_rng(39)
        sf = ScoreFunction("identity", "ln1p")
        pairs = sigmoid_labelled_pairs(rng, 80, sf)
        rho = pairwise_function_correlation(pairs, sf,
                                            per_pair_normalize=True)
        assert -1.0 <= rho <= 1.0

    def test_degenerate_labels_rejected(self):
        pairs = [PreferencePair((0.1, 0.2), (0.3, 0.4), 0.5),
                 PreferencePair((0.5, 0.6), (0.7, 0.8), 0.5)]
        with pytest.raises(DataError):
            pairwise_function_correlation(pairs,
                                          ScoreFunction("identity", "ln1p"))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(DataError):
            pairwise_function_correlation(
                [PreferencePair((0.1, 0.2), (0.3, 0.4), 1.0)],
                ScoreFunction("identity", "ln1p"))

    def test_label_validation(self):
        with pytest.raises(DataError):
            PreferencePair((0.1, 0.2), (0.3, 0.4), 1.5)

    def test_pair_parsing(self):
        pair = PreferencePair.from_dict(
            {"a": {"d": 0.1, "c": 0.2}, "b": {"d": 0.3, "c": 0.4},
             "label": 0.67})
        assert pair.a == (0.1, 0.2)
        assert pair.label == 0.67
        with pytest.raises(DataError):
            PreferencePair.from_dict({"a": {"d": 0.1}, "label": 0.5})


class TestFunctionSearch:
    def test_planted_formula_recovered(self):
        rng = np.random.default_rng(40)
        for f_kind, g_kind in (("identity", "identity"),
                               ("identity", "ln1p"),
                               ("sin", "sin")):
            planted = ScoreFunction(f_kind, g_kind)
            pairs = sigmoid_labelled_pairs(rng, 300, planted)
            rows = function_search(pairs)
            assert rows[0][1] == planted
            assert rows[0][2] == 1.0
            assert rows[1][2] < 1.0

    def test_nine_rows_cover_family(self):
        rng = np.random.default_rng(41)
        pairs = sigmoid_labelled_pairs(rng, 50,
                                       ScoreFunction("identity", "ln1p"))
        rows = function_search(pairs)
        assert len(rows) == 9
        assert len({name for name, _, _ in rows}) == 9
        rhos = [rho for _, _, rho in rows]
        assert rhos == sorted(rhos, reverse=True)
        assert all(-1.0 <= r <= 1.0 for r in rhos)


class TestCorrelationMatrix:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(42)
        cols = {"a": list(rng.random(40)), "b": list(rng.random(40)),
                "c": list(rng.random(40))}
        result = correlation_matrix(cols)
        names = result["columns"]
        rho = result["rho"]
        assert names == ["a", "b", "c"]
        for i in range(3):
            assert rho[i][i] == 1.0
            for j in range(3):
                assert rho[i][j] == rho[j][i]

    def test_needs_two_columns(self):
        with pytest.raises(DataError):
            correlation_matrix({"a": [1.0, 2.0]})


def test_spearman_sum_stays_exact_beyond_float_precision():
    # At n = 1.6M the squared rank differences sum past 2**53, where a
    # float sum rounds; the tie-free form must still use the exact sum.
    n = 1_600_000
    rng = np.random.default_rng(3)
    x, y = rng.permutation(n), rng.permutation(n)
    sd = sum((a - b) * (a - b) for a, b in zip(x.tolist(), y.tolist()))
    assert spearman(x.astype(float), y.astype(float)) == (
        1.0 - 6.0 * sd / (n * (n * n - 1)))
