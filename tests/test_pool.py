"""Pool ingestion: parsing, normalization, filtering, dedup, stats."""

import gzip
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hks import DataError, EmptyPoolError, ResourceError
from hks.pool import KnowledgeElement, KnowledgePool, load_pool, pool_stats

from helpers import random_pool_elements


def load_from_lines(lines, **opts):
    """The pool loaded from a file holding `lines`, each ended by "\n"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.tsv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        return load_pool(path, **opts)


class TestLoad:
    def test_basic(self):
        pool = load_from_lines([
            "graph theory\tscience",
            "jazz\tart\ttitle_keyword",
        ])
        assert pool.total == 2
        els = list(pool.elements())
        assert els[0] == KnowledgeElement("graph theory", "science", "unknown")
        assert els[1] == KnowledgeElement("jazz", "art", "title_keyword")

    def test_dedup_and_length_filter(self):
        # Duplicate kept once; single-char surface dropped.
        pool = load_from_lines([
            "graph theory\tscience",
            "graph theory\tscience",
            "x\tlife",
        ])
        assert pool.total == 1
        assert pool.report.dropped_duplicate == 1
        assert pool.report.dropped_short == 1
        assert pool.report.read == 3

    def test_first_occurrence_wins_and_conflicts_counted(self):
        pool = load_from_lines([
            "quantum field\tscience",
            "quantum field\tart",
        ])
        assert pool.total == 1
        assert next(pool.elements()).domain == "science"
        assert pool.report.domain_conflicts == 1

    def test_surfaces_normalized_before_dedup(self):
        pool = load_from_lines([
            "Machine  Learning \tscience",
            "machine learning\tscience",
        ])
        assert pool.total == 1
        assert pool.surfaces == ["machine learning"]
        assert pool.report.dropped_duplicate == 1

    def test_length_filter_after_normalization(self):
        # Whitespace collapses to nothing, leaving 1 char: dropped.
        pool = load_from_lines(["a \tlife", "ab\tlife"])
        assert pool.surfaces == ["ab"]
        assert pool.report.dropped_short == 1

    def test_unknown_domain_lenient_vs_strict(self):
        lines = ["ab\tlife", "cd\tfinance"]
        pool = load_from_lines(lines)
        assert pool.total == 1
        assert pool.report.unknown_domain == 1
        with pytest.raises(DataError):
            load_from_lines(lines, strict=True)

    def test_malformed_line_lenient_vs_strict(self):
        lines = ["no tab here", "ab\tlife"]
        pool = load_from_lines(lines)
        assert pool.total == 1
        assert pool.report.malformed == 1
        with pytest.raises(DataError, match="line 1"):
            load_from_lines(lines, strict=True)

    def test_unknown_source_tag_coerced(self):
        pool = load_from_lines(["ab\tlife\tscraped"])
        assert next(pool.elements()).source == "unknown"

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPoolError):
            load_from_lines(["x\tlife"])

    def test_missing_file_is_resource_error(self):
        with pytest.raises(ResourceError):
            load_pool("/nonexistent/pool.tsv")

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "pool.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("graph theory\tscience\n")
        pool = load_pool(path)
        assert pool.surfaces == ["graph theory"]

    def test_cjk_surfaces_survive(self):
        pool = load_from_lines(["数据\tscience"])
        assert pool.total == 1


class TestInvariants:
    def test_domain_totals_sum_to_total(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            elements = random_pool_elements(rng, 200)
            if not elements:
                continue
            pool = KnowledgePool.from_elements(
                KnowledgeElement(s, d) for s, d in elements)
            totals = pool.per_domain_total
            assert sum(totals.values()) == pool.total

    def test_surfaces_equal_own_normalization(self):
        from hks import normalize
        pool = load_from_lines([
            "Deep  LEARNING\tscience",
            "café culture\tculture",
        ])
        for el in pool.elements():
            assert el.surface == normalize(el.surface)
            assert len(el.surface) >= 2


class TestStats:
    def test_counts_and_histogram(self):
        pool = load_from_lines([
            "ab\tscience",
            "cde\tlife\tmodel_extracted",
            "fg\tlife",
        ])
        stats = pool_stats(pool)
        assert stats.total == 3
        assert stats.per_domain["science"] == 1
        assert stats.per_domain["life"] == 2
        assert stats.per_source["model_extracted"] == 1
        assert stats.per_source["unknown"] == 2
        assert stats.length_histogram == {2: 2, 3: 1}
        payload = json.loads(stats.to_json())
        assert payload["total"] == 3
        assert payload["length_histogram"]["2"] == 2
