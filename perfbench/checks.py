"""Output checks against independent oracles, run after the timed
process has exited. Each check returns a list of failure messages; an
empty list is a pass. Nothing here calls into hks: records are parsed
with the json module and ranked with numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from helpers import DOMAINS, naive_match_counts, ref_normalize


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_pool(path: Path) -> dict[str, str]:
    """Normalized surface -> domain, first occurrence wins, as documented."""
    pool: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            surface, domain = line.rstrip("\n").split("\t")[:2]
            surface = ref_normalize(surface)
            if len(surface) >= 2:
                pool.setdefault(surface, domain)
    return pool


def read_corpus(glob: str) -> list[dict]:
    docs = []
    for shard in sorted(Path().glob(glob)):
        docs.extend(_jsonl(shard))
    return docs


class Scores:
    """Columns of one scores directory, parsed independently of hks."""

    def __init__(self, scores: Path):
        manifest = json.loads((scores / "manifest.json").read_text("utf-8"))
        self.shards = [scores / s["output"] for s in manifest["shards"]]
        self.lines = [line for p in self.shards
                      for line in p.read_text("utf-8").splitlines() if line]
        self.records = [json.loads(line) for line in self.lines]
        self.by_id = {r["id"]: r for r in self.records}
        self.ids = np.array([r["id"] for r in self.records])
        self.n_p = np.array([r["n_p"] for r in self.records], dtype=np.int64)
        self.hks = np.array([r["hks"] for r in self.records])


def _compare_counts(rec: dict, n_k: int, n_distinct: int,
                    per_domain: dict) -> list[str]:
    got = (rec["n_k"], rec["n_distinct"],
           {m: (rec["domains"][m]["n"], rec["domains"][m]["distinct"])
            for m in DOMAINS})
    want = (n_k, n_distinct, per_domain)
    return [] if got == want else [f"{rec['id']}: counts {got} != {want}"]


def latin_counts(scores: Scores, docs: list[dict],
                 pool: dict[str, str]) -> list[str]:
    """Every document against the adjacent-word-pair oracle: patterns are
    two words, so a match is exactly an adjacent pair in the pool."""
    fails = []
    if len(scores.records) != len(docs):
        fails.append(f"{len(scores.records)} records for {len(docs)} docs")
    for doc in docs:
        rec = scores.by_id.get(doc["id"])
        if rec is None:
            fails.append(f"{doc['id']}: no score record")
            continue
        words = doc["text"].split(" ")
        hits = Counter(f"{a} {b}" for a, b in zip(words, words[1:]))
        hits = {s: n for s, n in hits.items() if s in pool}
        per_domain = {m: (0, 0) for m in DOMAINS}
        for s, n in hits.items():
            occ, distinct = per_domain[pool[s]]
            per_domain[pool[s]] = (occ + n, distinct + 1)
        fails += _compare_counts(rec, sum(hits.values()), len(hits),
                                 per_domain)
        if rec["n_p"] != len(words):
            fails.append(f"{doc['id']}: n_p {rec['n_p']} != {len(words)}")
    return fails


def oracle_counts(docs: list[dict], pool: dict[str, str],
                  sample: list[int]) -> dict[str, tuple]:
    """naive_match_counts for a sample of documents. Only surfaces that
    occur somewhere in the normalized text can match, so the oracle is
    given exactly those."""
    lengths = sorted({len(s) for s in pool})
    out = {}
    for i in sample:
        doc = docs[i]
        norm = ref_normalize(doc["text"])
        present = {norm[j:j + n] for n in lengths
                   for j in range(len(norm) - n + 1)}
        elements = [(s, d) for s, d in pool.items() if s in present]
        out[doc["id"]] = naive_match_counts(doc["text"], elements)
    return out


def sampled_counts(scores: Scores, oracle: dict[str, tuple]) -> list[str]:
    fails = []
    for doc_id, want in oracle.items():
        rec = scores.by_id.get(doc_id)
        if rec is None:
            fails.append(f"{doc_id}: no score record")
            continue
        fails += _compare_counts(rec, *want)
    return fails


def same_bytes(a: Path, b: Path) -> list[str]:
    da = hashlib.sha256(a.read_bytes()).hexdigest()
    db = hashlib.sha256(b.read_bytes()).hexdigest()
    return [] if da == db else [f"{a} and {b} differ"]


def _spec(out: Path) -> dict:
    return json.loads((out / "selection.json").read_text("utf-8"))


def _crossing(n_p: list[int], budget: int, total: int) -> list[str]:
    """The last document taken is the one that crosses the budget."""
    taken = sum(n_p)
    if not n_p:
        return ["nothing selected"]
    if taken - n_p[-1] >= budget:
        return [f"budget {budget} already met before the last document"]
    if taken < budget and taken != total:
        return [f"stopped at {taken} tokens, short of budget {budget}"]
    return []


def topk(scores: Scores, out: Path) -> list[str]:
    budget = _spec(out)["spec"]["budget"]
    order = np.lexsort((scores.ids, -scores.hks))
    cum = np.cumsum(scores.n_p[order])
    k = min(len(order), int(np.searchsorted(cum, budget, side="left")) + 1)
    want = scores.ids[order[:k]].tolist()
    got = _jsonl(out / "selected.jsonl")
    fails = []
    if [r["id"] for r in got] != want:
        fails.append("topk order differs from lexsort on (-score, id)")
    if any(r["n_p"] != scores.by_id[r["id"]]["n_p"]
           or r["score"] != scores.by_id[r["id"]]["hks"] for r in got):
        fails.append("topk n_p or score differ from the score records")
    return fails + _crossing([r["n_p"] for r in got], budget,
                             int(scores.n_p.sum()))


def sample(scores: Scores, out_a: Path, out_b: Path) -> list[str]:
    fails = same_bytes(out_a / "selected.jsonl", out_b / "selected.jsonl")
    got = _jsonl(out_a / "selected.jsonl")
    ids = [r["id"] for r in got]
    if len(set(ids)) != len(ids) or any(i not in scores.by_id for i in ids):
        fails.append("sample ids repeat or are unknown")
        return fails
    return fails + _crossing([scores.by_id[i]["n_p"] for i in ids],
                             _spec(out_a)["spec"]["budget"],
                             int(scores.n_p.sum()))


def _records(path: Path, known: dict[str, dict]) -> list[dict]:
    """Parses a JSONL file, reusing records whose line is already known."""
    with open(path, encoding="utf-8") as f:
        return [known.get(line) or json.loads(line)
                for line in f.read().splitlines() if line]


def split(scores: Scores, out: Path) -> list[str]:
    known = dict(zip(scores.lines, scores.records))
    high = _records(out / "high.jsonl", known)
    low = _records(out / "low.jsonl", known)
    threshold = json.loads((out / "split.json").read_text("utf-8"))["threshold"]
    fails = []
    if Counter(r["id"] for r in high + low) != Counter(scores.ids.tolist()):
        fails.append("high and low do not cover every record exactly once")
    if high and min(r["hks"] for r in high) < threshold:
        fails.append("a high record scores below the threshold")
    if low and max(r["hks"] for r in low) >= threshold:
        fails.append("a low record scores at or above the threshold")
    return fails


def mix(scores: Scores, out: Path) -> list[str]:
    summary = _spec(out)
    spec = summary["spec"]
    alpha, budget = spec["alpha"], spec["budget"]
    threshold = summary["threshold"]
    ids = [r["id"] for r in _jsonl(out / "selected.jsonl")]
    high = [scores.by_id[i]["n_p"] for i in ids
            if scores.by_id[i]["hks"] >= threshold]
    low = [scores.by_id[i]["n_p"] for i in ids
           if scores.by_id[i]["hks"] < threshold]
    fails = []
    if ids[:len(high)] != [i for i in ids
                           if scores.by_id[i]["hks"] >= threshold]:
        fails.append("mix does not list the high stratum first")
    # Each stratum stops at the first document that reaches its target,
    # so it overshoots by less than one of its documents.
    for name, part, target in (("high", high, alpha * budget),
                               ("low", low, (1 - alpha) * budget)):
        if target > 0 and not (sum(part) >= target
                               and sum(part) - max(part) < target):
            fails.append(f"{name} stratum {sum(part)} tokens for target "
                         f"{target}")
    total = sum(high) + sum(low)
    if not total:
        return fails + ["mix selected nothing"]
    if summary["total_tokens"] != total or not math.isclose(
            summary["realized_alpha"], sum(high) / total, rel_tol=1e-12):
        fails.append("mix summary disagrees with the selected documents")
    return fails


def hist(scores: Scores, path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    groups = Counter(r.get("meta", {}).get("subset", "unknown")
                     for r in scores.records)
    counted = Counter()
    for row in rows:
        counted[row["group"]] += int(row["count"])
    return [] if counted == groups else ["histogram counts != group sizes"]


def _avg_ranks(x: np.ndarray) -> np.ndarray:
    _, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inv]


def corr(scores: Scores, path: Path) -> list[str]:
    result = json.loads(path.read_text("utf-8"))
    if result["columns"] != ["c", "d", "hks"]:
        return [f"correlated columns {result['columns']}"]
    cols = {c: _avg_ranks(np.array([r[c] for r in scores.records]))
            for c in result["columns"]}
    fails = []
    for i, a in enumerate(result["columns"]):
        for j, b in enumerate(result["columns"]):
            want = 1.0 if a == b else float(np.corrcoef(cols[a], cols[b])[0, 1])
            if not math.isclose(result["rho"][i][j], want, abs_tol=1e-9):
                fails.append(f"rho[{a},{b}] {result['rho'][i][j]} != {want}")
    return fails


def guarded(check, *args) -> list[str]:
    """A check that cannot read or parse its output fails rather than
    stopping the run."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def phase_two(scores: Scores, out: Path) -> dict[str, list[str]]:
    """Failures per checked command of one phase-two pass."""
    return {
        "select_topk": guarded(topk, scores, out / "topk"),
        "select_sample": guarded(sample, scores, out / "sample-a",
                                 out / "sample-b"),
        "select_mix": guarded(mix, scores, out / "mix"),
        "split": guarded(split, scores, out / "split"),
        "analyze_hist": guarded(hist, scores, out / "hist.csv"),
        "analyze_corr": guarded(corr, scores, out / "corr.json"),
    }
