"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of the seed: the same seed writes the
same bytes. The program under test only ever sees the files written
here.

- score-latin: the acceptance criterion-11 generator. 200k two-word
  ASCII patterns and documents of about 100 filler tokens with 5
  planted word pairs, most of which are not in the pool (sparse
  matches, every pattern word-bounded).
- score-mixed: Latin, accented, CJK and punctuation text built from the
  alphabets of tests/helpers.py. About 20k surfaces of 3-12 characters,
  of which roughly one in ten is word-bounded; dense, overlapping
  matches.
- select-100k: score shards written directly in the format `hks score`
  writes, with a consistent manifest, from generated integer counts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from hks.matcher import KnowledgeProfile
from hks.metrics import score_record
from hks.pipeline import RunConfig, config_hash
from hks.pool import DOMAINS, KnowledgePool

from helpers import PATTERN_ALPHABET, TEXT_ALPHABET, ref_normalize

LATIN_PATTERNS = 200_000
LATIN_DOCS = 1_200
LATIN_SHARDS = 3

MIXED_SURFACES = 20_000
MIXED_DOCS = 1_500
MIXED_SHARDS = 3
MIXED_SEGMENTS = (2, 28)  # planted surfaces per document

SELECT_RECORDS = 100_000
SELECT_SHARDS = 4
SELECT_POOL = 50_000
SUBSETS = ("web", "books", "code", "news", "wiki")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def describe(root: Path, docs: int) -> dict:
    """sha256, bytes and document count of every generated file."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        files[str(path.relative_to(root))] = {
            "sha256": _sha256(path), "bytes": path.stat().st_size}
    return {"files": files, "documents": docs,
            "bytes": sum(f["bytes"] for f in files.values())}


def _write_shards(shard_dir: Path, lines: list[str], n_shards: int) -> None:
    shard_dir.mkdir(parents=True)
    per = -(-len(lines) // n_shards)
    for s in range(n_shards):
        part = lines[s * per:(s + 1) * per]
        (shard_dir / f"shard-{s:03d}.jsonl").write_text(
            "".join(line + "\n" for line in part), encoding="utf-8")


def score_latin(root: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 11])
    words = ["".join(t) for t in itertools.product(
        "bcdfghjklm", "aeiou", "klmnprstvz", "aeiou")]
    base = len(words)
    step = (base * base) // LATIN_PATTERNS
    offset = int(rng.integers(0, step))
    shift = int(rng.integers(0, len(DOMAINS)))
    root.mkdir(parents=True)
    with open(root / "pool.tsv", "w", encoding="utf-8") as f:
        for k in range(LATIN_PATTERNS):
            i, j = divmod(offset + k * step, base)
            f.write(f"{words[i]} {words[j]}\t"
                    f"{DOMAINS[(k + shift) % len(DOMAINS)]}\n")
    planted = [f"{words[int(i)]} {words[int(j)]}"
               for i, j in rng.integers(0, base, size=(500, 2))]
    lines = []
    for n in range(LATIN_DOCS):
        tokens = [f"x{int(v)}q" for v in rng.integers(0, 1000, size=100)]
        for k in rng.integers(0, len(planted), size=5):
            tokens.insert(int(rng.integers(0, len(tokens))), planted[int(k)])
        lines.append(json.dumps({
            "id": f"doc-{n:07d}", "text": " ".join(tokens),
            "meta": {"subset": SUBSETS[int(rng.integers(0, len(SUBSETS)))]}}))
    _write_shards(root / "shards", lines, LATIN_SHARDS)
    return describe(root, LATIN_DOCS)


def _mixed_string(rng, alphabet, n: int) -> str:
    return "".join(alphabet[i] for i in rng.choice(len(alphabet), size=n))


def score_mixed(root: Path, seed: int, surfaces: int = MIXED_SURFACES,
                docs: int = MIXED_DOCS) -> dict:
    rng = np.random.default_rng([seed, 22])
    # Random 3-12 character surfaces over this alphabet are word-bounded
    # (word characters at both edges, no CJK) about one time in ten.
    pool: dict[str, str] = {}
    while len(pool) < surfaces:
        n = int(rng.integers(3, 13))
        s = ref_normalize(_mixed_string(rng, PATTERN_ALPHABET, n))
        if len(s) >= 3 and s not in pool:
            pool[s] = DOMAINS[int(rng.integers(0, len(DOMAINS)))]
    items = list(pool.items())
    root.mkdir(parents=True)
    with open(root / "pool.tsv", "w", encoding="utf-8") as f:
        for s, dom in items:
            f.write(f"{s}\t{dom}\n")
    picks = [s for s, _ in items]
    lines = []
    for n in range(docs):
        parts = []
        for _ in range(int(rng.integers(*MIXED_SEGMENTS))):
            parts.append(_mixed_string(rng, TEXT_ALPHABET,
                                       int(rng.integers(0, 12))))
            parts.append(picks[int(rng.integers(0, len(picks)))])
        lines.append(json.dumps({
            "id": f"mx-{n:06d}", "text": "".join(parts),
            "meta": {"subset": SUBSETS[int(rng.integers(0, len(SUBSETS)))]}},
            ensure_ascii=False))
    _write_shards(root / "shards", lines, MIXED_SHARDS)
    return describe(root, docs)


def select_records(root: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 33])
    root.mkdir(parents=True)
    dom = rng.integers(0, len(DOMAINS), size=SELECT_POOL).astype(np.uint8)
    pool = KnowledgePool([f"e{i:06d}" for i in range(SELECT_POOL)], dom,
                         np.zeros(SELECT_POOL, dtype=np.uint8))
    pool_path = root / "pool.tsv"
    with open(pool_path, "w", encoding="utf-8") as f:
        for i, s in enumerate(pool.surfaces):
            f.write(f"{s}\t{DOMAINS[dom[i]]}\n")

    n = SELECT_RECORDS
    # Long-tailed token counts; about 40% of records match nothing, so
    # their score ties at zero and the id decides their order.
    n_p = np.maximum(1, rng.lognormal(5.5, 1.1, n)).astype(np.int64)
    matched = rng.random(n) >= 0.4
    occ = rng.poisson(n_p[:, None] * 0.01, (n, len(DOMAINS))) * matched[:, None]
    dist = np.minimum(occ, rng.poisson(3, (n, len(DOMAINS))) + 1)
    tags = rng.integers(0, 1 << 40, size=n)
    subset = rng.integers(0, len(SUBSETS), size=n)

    scores = root / "scores"
    scores.mkdir()
    shards = []
    per = -(-n // SELECT_SHARDS)
    for s in range(SELECT_SHARDS):
        out = []
        for i in range(s * per, min(n, (s + 1) * per)):
            o, d = occ[i].tolist(), dist[i].tolist()
            profile = KnowledgeProfile(
                doc_id=f"r{int(tags[i]):010x}-{i}", n_p=int(n_p[i]),
                n_k=sum(o), n_distinct=sum(d),
                per_domain={m: (o[k], d[k]) for k, m in enumerate(DOMAINS)})
            meta = {"subset": SUBSETS[subset[i]]}
            out.append(score_record(profile, pool, meta=meta).to_json())
        data = "".join(line + "\n" for line in out).encode("utf-8")
        name = f"scores-{s:05d}.jsonl"
        (scores / name).write_bytes(data)
        shards.append({"input": f"corpus/shard-{s:03d}.jsonl", "output": name,
                       "sha256": hashlib.sha256(data).hexdigest(),
                       "records": len(out)})
    config = RunConfig(pool_path=str(pool_path), corpus="corpus/*.jsonl",
                       out_dir=str(scores))
    manifest = {
        "version": 1,
        "config": {k: v for k, v in config.canonical().items()
                   if k != "workers"},
        "config_hash": config_hash(config),
        "pool": {"path": str(pool_path), "sha256": _sha256(pool_path),
                 "elements": pool.total,
                 "per_domain": dict(sorted(pool.per_domain_total.items()))},
        "records": n,
        "shards": shards,
    }
    (scores / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, ensure_ascii=False,
                   separators=(",", ":")) + "\n", encoding="utf-8")
    info = describe(root, n)
    info["tokens"] = int(n_p.sum())
    return info
