"""Pool ingestion: parsing, normalization, filtering, dedup, stats."""

import contextlib
import gzip
import json
import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hks.matcher
import hks.pool
from hks import DataError, EmptyPoolError, ResourceError
from hks.matcher import MatcherConfig, build_automaton, count_all
from hks.pool import (DOMAINS, SOURCES, KnowledgeElement, KnowledgePool,
                      PoolStats, load_pool, pool_stats)

from helpers import (naive_match_counts, random_pool_elements,
                     ref_length_histogram, ref_load_pool)
from test_matcher import _thue_morse


def load_from_lines(lines, **opts):
    """The pool loaded from a file holding `lines`, each ended by "\n"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.tsv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        return load_pool(path, **opts)


def domains(pool):
    return [DOMAINS[i] for i in pool.domain_ids]


def sources(pool):
    return [SOURCES[i] for i in pool.source_ids]


class TestLoad:
    def test_basic(self):
        pool = load_from_lines([
            "graph theory\tscience",
            "jazz\tart\ttitle_keyword",
        ])
        assert pool.surfaces == ["graph theory", "jazz"]
        assert domains(pool) == ["science", "art"]
        assert sources(pool) == ["unknown", "title_keyword"]

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
        assert domains(pool) == ["science"]
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

    def test_source_only_from_a_third_field(self):
        # The malformed line gives the lines unequal tab counts.
        pool = load_from_lines(["ab\tlife",
                                "model_extracted\tart\ttitle_keyword",
                                "no tab"])
        assert sources(pool) == ["unknown", "title_keyword"]

    def test_unknown_source_tag_coerced(self):
        pool = load_from_lines(["ab\tlife\tscraped"])
        assert sources(pool) == ["unknown"]

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


def load_outcome(load, path, caplog, strict=False):
    """(pool columns and report, or error type and message; warnings)
    of `load` on the pool file at `path`."""
    caplog.clear()
    try:
        pool = load(path, strict=strict)
    except (DataError, UnicodeDecodeError) as exc:
        result = (type(exc), str(exc))
    else:
        result = (pool.surfaces, pool.domain_ids.tolist(),
                  pool.source_ids.tolist(), pool.report)
    return result, [r.getMessage() for r in caplog.records
                    if r.levelno >= logging.WARNING]


def assert_loads_like_oracle(path, caplog, strict=False, chunk_bytes=None):
    """load_pool, reading `chunk_bytes` bytes per step, gives the
    per-line oracle's pool and report, or its error, with the same
    warnings in the same order; returns that outcome."""
    want = load_outcome(ref_load_pool, path, caplog, strict)
    with mock.patch.object(hks.pool, "CHUNK_BYTES",
                           chunk_bytes or hks.pool.CHUNK_BYTES):
        assert load_outcome(load_pool, path, caplog, strict) == want
    return want


# Chunk sizes that put a chunk edge at every point of the short files
# below, and the size load_pool reads with.
CHUNK_SIZES = [*range(1, 13), None]


class TestChunks:
    @pytest.mark.parametrize("chunk_bytes", [1, 7, None])
    def test_line_longer_than_a_chunk(self, tmp_path, caplog, chunk_bytes):
        long = "Ab " * 30_000  # beyond CHUNK_BYTES
        path = tmp_path / "pool.tsv"
        path.write_text(f"xy\tlife\n{long}\tart\nzw\tscience\n"
                        f"{long}\tlife\n{long}\n", encoding="utf-8")
        (surfaces, _, _, report), warnings = assert_loads_like_oracle(
            path, caplog, chunk_bytes=chunk_bytes)
        assert surfaces == ["xy", long.lower().strip(), "zw"]
        assert report.domain_conflicts == 1 and report.malformed == 1
        assert warnings == [f"pool line 5: expected surface<TAB>domain, "
                            f"got {long!r}"]

    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
    def test_crlf_and_lone_cr_line_ends(self, tmp_path, caplog, chunk_bytes):
        path = tmp_path / "pool.tsv"
        path.write_bytes(b"ab\tlife\r\ncd\tart\ref\tscience\r\n\r\n\rgh\t"
                         b"finance\r\nij\r\r\nkl\tart\tmodel_extracted\r")
        (surfaces, _, sources, report), warnings = assert_loads_like_oracle(
            path, caplog, chunk_bytes=chunk_bytes)
        assert surfaces == ["ab", "cd", "ef", "kl"]
        assert sources == [2, 2, 2, 1]
        assert warnings == ["pool line 6: unknown domain 'finance'",
                            "pool line 7: expected surface<TAB>domain, "
                            "got 'ij'"]

    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
    @pytest.mark.parametrize("last", ["cd\tart", "cd\tfinance", "cd",
                                      "ab\tart", "cd\tart\tx\ty"])
    def test_no_trailing_newline(self, tmp_path, caplog, chunk_bytes, last):
        path = tmp_path / "pool.tsv"
        path.write_text(f"ab\tlife\n\n{last}", encoding="utf-8")
        (_, _, _, report), _ = assert_loads_like_oracle(
            path, caplog, chunk_bytes=chunk_bytes)
        assert report.read == 2

    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
    @pytest.mark.parametrize("strict", [False, True])
    def test_gzip_pool(self, tmp_path, caplog, chunk_bytes, strict):
        path = tmp_path / "pool.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8", newline="") as f:
            f.write("Graph Theory\tscience\r\nx\tlife\n\ngraph theory\tart"
                    "\njazz\n数据\tart\tmodel_extracted\n")
        result, warnings = assert_loads_like_oracle(
            path, caplog, strict, chunk_bytes)
        if strict:
            assert result == (DataError, "pool line 5: expected "
                              "surface<TAB>domain, got 'jazz'")
        else:
            assert result[0] == ["graph theory", "数据"]

    @pytest.mark.parametrize("chunk_bytes", [4, 16, 50, None])
    @pytest.mark.parametrize("strict", [False, True])
    def test_bad_lines_in_later_chunks(self, tmp_path, caplog, chunk_bytes,
                                       strict):
        lines = [f"w{i:02d} x\tlife" for i in range(30)]
        lines[12] = "w12 x\tfinance"
        lines[13] = "no tab here"
        lines[21] = "w21 x\tart "
        lines[26] = "\tscience"
        lines[27] = "w27 x\t"
        path = tmp_path / "pool.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result, warnings = assert_loads_like_oracle(
            path, caplog, strict, chunk_bytes)
        if strict:
            assert result == (DataError,
                              "pool line 13: unknown domain 'finance'")
            assert warnings == []
        else:
            assert warnings == [
                "pool line 13: unknown domain 'finance'",
                "pool line 14: expected surface<TAB>domain, "
                "got 'no tab here'",
                "pool line 28: unknown domain ''"]
            assert result[3].dropped_short == 1


    @pytest.mark.parametrize("chunk_bytes", [5, 4096, None])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_undecodable_bytes_after_bad_lines(self, tmp_path, caplog,
                                               chunk_bytes, end, strict):
        # The bad lines are in the first 8 KiB block the oracle's reader
        # decodes and the byte 0xff past its second, in one CHUNK_BYTES.
        lines = ["no tab here", "ab\tfinance",
                 *(f"w{i:04d}\tlife" for i in range(2000))]
        path = tmp_path / "pool.tsv"
        path.write_bytes(end.join(lines).encode("utf-8") + end.encode()
                         + b"\xff\tart" + end.encode() + b"cd\tart")
        want = load_outcome(ref_load_pool, path, caplog, strict)
        with mock.patch.object(hks.pool, "CHUNK_BYTES",
                               chunk_bytes or hks.pool.CHUNK_BYTES):
            got = load_outcome(load_pool, path, caplog, strict)
        if strict:
            assert got == want == ((DataError, "pool line 1: expected "
                                    "surface<TAB>domain, got 'no tab here'"),
                                   [])
        else:
            assert got[1] == want[1] == [
                "pool line 1: expected surface<TAB>domain, got 'no tab here'",
                "pool line 2: unknown domain 'finance'"]
            # The oracle reads with `open`, not `files.reading`.
            assert want[0][0] is UnicodeDecodeError
            assert got[0][0] is DataError
            assert got[0][1].startswith(f"{path}: cannot decode ('utf-8' "
                                        f"codec can't decode byte 0xff")


_CHARS = st.sampled_from(["a", "b", "B", "ß", "\u0130", "\u0301", " ", "\x1c",
                          "\x1f", "\x85", "\u2028", "\xa0", "数", "\r", "\t"])
_SURFACES = st.one_of(st.sampled_from(["ab", "AB", " a b", "a\u00a0b", "ss",
                                       "model_extracted"]),
                      st.text(_CHARS, max_size=5))
_DOMAINS = st.sampled_from([*DOMAINS, " art", "life\x1c", "\u0301art",
                            "Science", "finance", ""])
_SOURCES = st.sampled_from([*SOURCES, " title_keyword\u2028", "scraped", ""])
_LINES = st.one_of(
    st.just(""), _SURFACES,
    st.tuples(_SURFACES, _DOMAINS).map("\t".join),
    st.tuples(_SURFACES, _DOMAINS, _SOURCES).map("\t".join),
    st.tuples(_SURFACES, _DOMAINS, _SOURCES,
              st.text(_CHARS, max_size=3)).map("\t".join))
_POOLS = st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])),
                  max_size=25)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_POOLS, last=st.sampled_from(["", "\n", "\r\n"]),
       chunk_bytes=st.integers(1, 40), strict=st.booleans(),
       bom=st.booleans())
@example(lines=[("ab\tlife", "\n"), ("AB\tart", "\r\n"), ("", "\n"),
                ("\u0301a\tlife\tx\ty", "\r")], last="", chunk_bytes=3,
         strict=False, bom=False)
# A leading byte order mark is not part of the first surface.
@example(lines=[("jazz\tart", "\n"), ("\ufeffab\tlife", "\n")], last="",
         chunk_bytes=1, strict=False, bom=True)
@example(lines=[("", "\n"), ("jazz\tart", "\n")], last="", chunk_bytes=2,
         strict=True, bom=True)
def test_load_matches_per_line_oracle(tmp_path, caplog, lines, last,
                                      chunk_bytes, strict, bom):
    path = tmp_path / "pool.tsv"
    path.write_bytes(("\ufeff" * bom
                      + "".join(line + end for line, end in lines)
                      + last).encode("utf-8"))
    assert_loads_like_oracle(path, caplog, strict, chunk_bytes)


@contextlib.contextmanager
def colliding_keys():
    """Hash base 1 for pool keys and the scan alike: a key is then the
    sum of the codepoints, so anagrams share their (length, key)."""
    with mock.patch.multiple(hks.pool, HASH_BASE=1, INVERSE=1), \
            mock.patch.multiple(hks.matcher, HASH_BASE=1, INVERSE=1):
        yield


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_POOLS, chunk_bytes=st.integers(1, 40), strict=st.booleans())
@example(lines=[("ab\tlife", "\n"), ("ba\tart", "\n"), ("BA\tlife", "\n"),
                ("AB\tart\ttitle_keyword", "\r\n"), ("ba\tart", "\n")],
         chunk_bytes=40, strict=False)
def test_load_matches_per_line_oracle_with_colliding_keys(
        tmp_path, caplog, lines, chunk_bytes, strict):
    path = tmp_path / "pool.tsv"
    path.write_bytes("".join(line + end for line, end in lines).encode("utf-8"))
    with colliding_keys():
        assert_loads_like_oracle(path, caplog, strict, chunk_bytes)


class TestKeyCollisions:
    """Surfaces that share (length, key) are told apart by their
    codepoints: each distinct surface is kept, and a duplicate is
    counted against the first line of its own surface."""

    LINES = ["ab\tlife", "ba\tart", "AB\tscience", "bca\tart", "cab\tlife",
             "abc\tart", "ba\tlife\ttitle_keyword", "cab\tscience", "ab\tlife"]
    TEXTS = ["ab ba abc cab bca", "abcab", "cba bac acb", "xab ba.", ""]

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "pool.tsv"
        path.write_text("\n".join(self.LINES) + "\n", encoding="utf-8")
        return path

    def test_anagrams_load_like_the_oracle(self, path, caplog):
        with colliding_keys():
            (surfaces, _, _, report), _ = assert_loads_like_oracle(path, caplog)
            pool = load_pool(path)
        assert surfaces == ["ab", "ba", "bca", "cab", "abc"]
        assert (report.dropped_duplicate, report.domain_conflicts) == (4, 3)
        assert len(set(pool.keys.tolist())) == 2

    @pytest.mark.parametrize("boundary", [True, False])
    def test_anagrams_count_like_the_naive_scan(self, path, boundary):
        with colliding_keys():
            pool = load_pool(path)
            counts = count_all(self.TEXTS, build_automaton(
                pool, MatcherConfig(boundary=boundary)))
        elements = list(zip(pool.surfaces, [DOMAINS[i] for i in pool.domain_ids]))
        assert [(n_k, n_distinct, dict(zip(DOMAINS, zip(o, u))))
                for n_k, n_distinct, o, u in zip(
                    *(column.tolist() for column in counts[1:]))] == \
            [naive_match_counts(t, elements, boundary) for t in self.TEXTS]

    def test_thue_morse_pair_under_the_real_base(self, tmp_path, caplog):
        # The length-1024 Thue-Morse word and its complement share their
        # key under any odd base.
        word, complement = _thue_morse(1024, "a", "b"), _thue_morse(1024, "b", "a")
        path = tmp_path / "pool.tsv"
        path.write_text(f"{word}\tscience\n{complement}\tart\n"
                        f"{complement.upper()}\tlife\n{word}\tscience\n",
                        encoding="utf-8")
        (surfaces, _, _, report), _ = assert_loads_like_oracle(path, caplog)
        assert surfaces == [word, complement]
        assert (report.dropped_duplicate, report.domain_conflicts) == (2, 1)
        pool = load_pool(path)
        assert pool.keys[0] == pool.keys[1]

    def test_load_and_constructor_agree(self, path):
        pool = load_pool(path)
        built = KnowledgePool(pool.surfaces, pool.domain_ids, pool.source_ids)
        for name in ("cps", "lens", "keys"):
            assert getattr(built, name).tolist() == getattr(pool, name).tolist()


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
        assert pool.total == 2
        for surface in pool.surfaces:
            assert surface == normalize(surface)
            assert len(surface) >= 2


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

    @settings(max_examples=100, deadline=None)
    @given(elements=st.lists(st.tuples(
        st.text(max_size=12), st.sampled_from(DOMAINS),
        st.sampled_from(SOURCES)), max_size=30))
    def test_histogram_is_the_per_surface_count(self, elements):
        pool = KnowledgePool.from_elements(
            KnowledgeElement(*element) for element in elements)
        stats = pool_stats(pool)
        expected = ref_length_histogram(pool.surfaces)
        assert stats.length_histogram == expected
        assert all(type(k) is int and type(v) is int
                   for k, v in stats.length_histogram.items())
        assert stats.to_json() == PoolStats(
            stats.total, stats.per_domain, stats.per_source,
            expected).to_json()
