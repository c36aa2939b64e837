"""Independent reference implementations and generators shared by tests.

Everything here is deliberately written from the documented rules, not
from the package internals: scalar loops, str.find scans, and stdlib
unicodedata, so package bugs cannot hide in a shared code path.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import logging
import math
import unicodedata
from fractions import Fraction

import numpy as np

WORD_CATS = {"Lu", "Ll", "Lt", "Lm", "Lo", "Nd", "Nl", "No",
             "Mn", "Mc", "Me", "Pc"}

CJK_RANGES = (
    (0x3040, 0x309F), (0x30A0, 0x30FF), (0x31F0, 0x31FF),
    (0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF),
    (0xFF66, 0xFF9F), (0x20000, 0x2EBEF), (0x30000, 0x323AF),
)

DOMAINS = ("science", "society", "culture", "art", "life")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in CJK_RANGES)


def is_word(ch: str) -> bool:
    return unicodedata.category(ch) in WORD_CATS


def is_word_noncjk(ch: str) -> bool:
    return is_word(ch) and not is_cjk(ch)


def ref_normalize(text: str) -> str:
    folded = unicodedata.normalize("NFC", text).casefold()
    return " ".join(unicodedata.normalize("NFC", folded).split())


def ref_load_pool(path, strict: bool = False):
    """The pool in the file at `path` (gzip by its `.gz` suffix), read one
    line at a time by the documented rules, with hks.pool's log lines,
    errors and report."""
    from hks import DataError, EmptyPoolError
    from hks.pool import DOMAINS, SOURCES, KnowledgePool, PoolLoadReport

    log = logging.getLogger("hks.pool")
    domain_id = {name: i for i, name in enumerate(DOMAINS)}
    source_id = {name: i for i, name in enumerate(SOURCES)}
    surfaces, domains, sources = [], [], []
    index = {}
    report = PoolLoadReport()
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            report.read += 1
            parts = line.split("\t")
            if len(parts) < 2:
                report.malformed += 1
                msg = f"pool line {lineno}: expected surface<TAB>domain, got {line!r}"
                if strict:
                    raise DataError(msg)
                log.warning(msg)
                continue
            raw_surface, domain = parts[0], parts[1].strip()
            source_tag = parts[2].strip() if len(parts) > 2 and parts[2].strip() else "unknown"
            if domain not in domain_id:
                report.unknown_domain += 1
                msg = f"pool line {lineno}: unknown domain {domain!r}"
                if strict:
                    raise DataError(msg)
                log.warning(msg)
                continue
            surface = ref_normalize(raw_surface)
            if len(surface) < 2:
                report.dropped_short += 1
                continue
            prev = index.get(surface)
            if prev is not None:
                report.dropped_duplicate += 1
                if domains[prev] != domain_id[domain]:
                    report.domain_conflicts += 1
                continue
            index[surface] = len(surfaces)
            surfaces.append(surface)
            domains.append(domain_id[domain])
            sources.append(source_id.get(source_tag, source_id["unknown"]))
    if not surfaces:
        raise EmptyPoolError("no elements survived filtering; pool is empty")
    report.kept = len(surfaces)
    return KnowledgePool(surfaces, np.asarray(domains, dtype=np.uint8),
                         np.asarray(sources, dtype=np.uint8), report=report)


def ref_length_histogram(surfaces) -> dict[int, int]:
    """Surface length -> how many of `surfaces` have it, counted one
    surface at a time."""
    lengths: dict[int, int] = {}
    for surface in surfaces:
        n = len(surface)
        lengths[n] = lengths.get(n, 0) + 1
    return lengths


def ref_score_line(record) -> str:
    """The score line of a ScoreRecord: one dict of its fields, domains
    and meta left out when empty or None, encoded whole by the json
    module with sorted keys, raw UTF-8 and no spaces."""
    obj = {
        "id": record.doc_id,
        "n_p": record.n_p,
        "n_k": record.n_k,
        "n_distinct": record.n_distinct,
        "d": record.d,
        "c": record.c,
        "hks": record.hks,
    }
    if record.domains:
        obj["domains"] = record.domains
    if record.meta is not None:
        obj["meta"] = record.meta
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))


def ref_token_count(text: str) -> int:
    """Scalar-loop reference segmenter: word-char runs + CJK singles."""
    count = 0
    in_word = False
    for ch in text:
        if is_cjk(ch):
            count += 1
            in_word = False
        elif is_word(ch):
            if not in_word:
                count += 1
            in_word = True
        else:
            in_word = False
    return count


def boundary_checked(surface: str) -> bool:
    """Whether the documented word-boundary rule applies to a surface."""
    if any(is_cjk(ch) for ch in surface):
        return False
    return is_word_noncjk(surface[0]) and is_word_noncjk(surface[-1])


def naive_occurrences(text: str, elements: list[tuple[str, str]],
                      boundary: bool = True) -> list[tuple[int, str]]:
    """Per-pattern str.find scan over normalized text.

    elements are (normalized surface, domain) pairs. Returns every
    (start offset, surface) occurrence, sorted.
    """
    norm = ref_normalize(text)
    found = []
    for surface, _ in elements:
        start = 0
        checked = boundary and boundary_checked(surface)
        while True:
            i = norm.find(surface, start)
            if i < 0:
                break
            start = i + 1
            if checked:
                if i > 0 and is_word_noncjk(norm[i - 1]):
                    continue
                j = i + len(surface)
                if j < len(norm) and is_word_noncjk(norm[j]):
                    continue
            found.append((i, surface))
    return sorted(found)


def occurrence_counts(occurrences: list[tuple[int, str]],
                      elements: list[tuple[str, str]]):
    """(n_k, n_distinct, {domain: (occ, distinct)}) of (start, surface)
    occurrences of the given (surface, domain) elements."""
    domain_of = dict(elements)
    per_domain = {m: [0, 0] for m in DOMAINS}
    for _, surface in occurrences:
        per_domain[domain_of[surface]][0] += 1
    distinct = {surface for _, surface in occurrences}
    for surface in distinct:
        per_domain[domain_of[surface]][1] += 1
    return (len(occurrences), len(distinct),
            {m: tuple(v) for m, v in per_domain.items()})


def naive_match_counts(text: str, elements: list[tuple[str, str]],
                       boundary: bool = True):
    """(n_k, n_distinct, {domain: (occ, distinct)}) from the naive scan."""
    return occurrence_counts(naive_occurrences(text, elements, boundary),
                             elements)


# Text/pool generators. The alphabet mixes short Latin words, digits,
# accented letters, CJK, and separators; ';' is reserved as a
# never-in-pattern delimiter for additivity tests.
PATTERN_ALPHABET = list("abcdefgh") + list("01") + list("ñéα") + \
    list("数据学习の理") + [" "]
TEXT_ALPHABET = PATTERN_ALPHABET + list(".,!?-_") + ["  ", "Z", "É", "習"]


def random_surface(rng: np.random.Generator, max_len: int = 8) -> str:
    n = int(rng.integers(1, max_len + 1))
    chars = rng.choice(len(PATTERN_ALPHABET), size=n)
    return ref_normalize("".join(PATTERN_ALPHABET[i] for i in chars))


def random_pool_elements(rng: np.random.Generator, max_patterns: int,
                         max_len: int = 8) -> list[tuple[str, str]]:
    count = int(rng.integers(1, max_patterns + 1))
    seen = {}
    for _ in range(count):
        s = random_surface(rng, max_len)
        if s and s not in seen:
            seen[s] = DOMAINS[int(rng.integers(0, len(DOMAINS)))]
    return list(seen.items())


def random_text(rng: np.random.Generator, max_len: int) -> str:
    n = int(rng.integers(0, max_len + 1))
    chars = rng.choice(len(TEXT_ALPHABET), size=n)
    return "".join(TEXT_ALPHABET[i] for i in chars)


def brute_spearman(xs, ys) -> float:
    """Tie-free brute-force rank-difference formula."""
    n = len(xs)
    rank_x = {v: r for r, v in enumerate(sorted(xs), start=1)}
    rank_y = {v: r for r, v in enumerate(sorted(ys), start=1)}
    sd = sum((rank_x[x] - rank_y[y]) ** 2 for x, y in zip(xs, ys))
    return 1.0 - 6.0 * sd / (n * (n * n - 1))


def softmax(scores, tau: float):
    import math
    exps = [math.exp(s / tau) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def exact_ratio(num: int, den: int) -> Fraction:
    return Fraction(num, den)


def make_record(doc_id: str, n_p: int, score: float, **extra):
    """A minimal ScoreRecord for selection/analysis tests."""
    from hks import ScoreRecord
    kwargs = dict(doc_id=doc_id, n_p=n_p, n_k=0, n_distinct=0,
                  d=0.0, c=0.0, hks=score)
    kwargs.update(extra)
    return ScoreRecord(**kwargs)


# Selection oracle. Rows are (doc_id, n_p, score) with distinct ids; each
# strategy ranks with sorted() on (-key, doc_id) and takes documents
# while the budget is not yet reached, so the crossing one is whole.

def oracle_uniform(seed: int, doc_id: str, *parts: str) -> float:
    """The documented (seed, parts, doc_id) key: blake2b with an 8-byte
    digest over the 8-byte big-endian seed and then each part and the
    id, every one UTF-8 encoded behind its 8-byte big-endian length;
    the digest's top 53 bits plus one half, over 2**53."""
    message = seed.to_bytes(8, "big")
    for text in (*parts, doc_id):
        raw = text.encode("utf-8")
        message += len(raw).to_bytes(8, "big") + raw
    digest = hashlib.blake2b(message, digest_size=8).digest()
    return ((int.from_bytes(digest, "big") >> 11) + 0.5) / 2**53


def oracle_take(rows, key, budget, by_docs: bool):
    """(rows taken, tokens) of the greedy prefix by (-key, id)."""
    ranked = sorted(rows, key=lambda row: (-key[row[0]], row[0]))
    taken, tokens = [], 0
    for row in ranked:
        if (len(taken) if by_docs else tokens) >= budget:
            break
        taken.append(row)
        tokens += row[1]
    return taken, tokens


def oracle_topk(rows, budget: int, by_docs: bool):
    """(ids, tokens, threshold): the lowest taken score."""
    taken, tokens = oracle_take(rows, {row[0]: row[2] for row in rows},
                                budget, by_docs)
    return [row[0] for row in taken], tokens, taken[-1][2] if taken else None


def oracle_sample(rows, budget: int, by_docs: bool, tau: float, seed: int,
                  normalize: bool):
    """Gumbel top-k: key = score/tau - ln(-ln u), with scores min-max
    rescaled to [0, 1] (all zero when constant) under normalize;
    (ids, tokens, threshold), the threshold being the lowest raw
    score taken."""
    scores = [row[2] for row in rows]
    if normalize and rows:
        lo, hi = min(scores), max(scores)
        scores = [(s - lo) / (hi - lo) if hi > lo else 0.0 for s in scores]
    key = {row[0]: s / tau - math.log(-math.log(oracle_uniform(seed, row[0])))
           for row, s in zip(rows, scores)}
    taken, tokens = oracle_take(rows, key, budget, by_docs)
    return ([row[0] for row in taken], tokens,
            min(row[2] for row in taken) if taken else None)


def oracle_split(rows, budget: int):
    """(high ids, low ids, threshold) in input order; the threshold is
    the lowest score in the top-`budget`-token prefix."""
    if budget == 0 or not rows:
        return [], [row[0] for row in rows], None
    threshold = oracle_topk(rows, budget, False)[2]
    return ([row[0] for row in rows if row[2] >= threshold],
            [row[0] for row in rows if row[2] < threshold], threshold)


def oracle_mix(high, low, alpha: float, budget: int, seed: int):
    """(ids, high tokens, low tokens) of the two strata, each drawn by
    ascending (seed, stratum, id) uniform until its token target
    (alpha*budget high, the rest low) is reached; None when a stratum
    holds fewer tokens than its target."""
    ids, tokens = [], []
    for label, rows, target in (("high", high, alpha * budget),
                                ("low", low, (1.0 - alpha) * budget)):
        if target <= 0:
            tokens.append(0)
            continue
        key = {row[0]: -oracle_uniform(seed, row[0], label) for row in rows}
        taken, got = oracle_take(rows, key, target, False)
        if got < target:
            return None
        ids += [row[0] for row in taken]
        tokens.append(got)
    return ids, tokens[0], tokens[1]
