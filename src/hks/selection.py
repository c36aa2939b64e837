"""Selection strategies over scored records.

Three ways to carve a training subset out of a scored corpus: plain
top-k by score under a token or document budget, Gumbel top-k softmax
sampling without replacement, and high/low threshold mixtures at a
requested high-knowledge fraction alpha.

Determinism contract: every strategy is a pure function of (records,
spec). Randomness comes only from a counter-style PRNG keyed by
(seed, doc_id) hashes, so results never depend on input shard order or
worker count.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence, Union

from .errors import DataError, MixSpecError, StratumExhaustedError
from .metrics import ScoreRecord, ScoreTable

log = logging.getLogger(__name__)

STRATEGIES = ("topk", "sample", "mix")
_U64 = struct.Struct(">Q").unpack

# Every strategy reads columns; callers holding records are adapted by
# ScoreTable.from_records.
Records = Union[ScoreTable, Sequence[ScoreRecord]]


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:  # hashed as 8 unsigned bytes
        raise DataError(f"seed must be in [0, 2**64), got {seed}")


def _check_alpha(alpha: float | None) -> None:
    if alpha is not None and not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise DataError(f"alpha must be in [0, 1], got {alpha}")


def check_budget(budget: int, name: str = "token budget") -> None:
    if budget < 0:
        raise DataError(f"{name} must be >= 0, got {budget}")


@dataclass(frozen=True)
class SelectionSpec:
    """Knobs for one selection run.

    budget counts tokens (sum of selected n_p) unless by_docs is set.
    tau is the softmax temperature for sampling. normalize min-max
    rescales scores to [0, 1] before the softmax; disable it to divide
    raw scores by tau instead (selection probabilities differ). mix
    needs alpha, split_budget and a token budget.
    """

    strategy: str = "topk"
    budget: int = 0
    by_docs: bool = False
    tau: float = 2.0
    alpha: float | None = None
    seed: int = 0
    score_field: str = "hks"
    normalize: bool = True
    split_budget: int | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise DataError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "mix":
            if self.alpha is None:
                raise MixSpecError("mix strategy requires alpha")
            if self.split_budget is None:
                raise MixSpecError("mix strategy requires a split budget "
                                   "(tokens defining the high/low threshold)")
            if self.by_docs:
                raise MixSpecError("mix strategy budgets tokens, not "
                                   "documents")
        if not 0 < self.tau < math.inf:  # NaN fails too
            raise DataError(f"tau must be finite and > 0, got {self.tau}")
        _check_seed(self.seed)
        check_budget(self.budget, "budget")
        _check_alpha(self.alpha)
        if self.split_budget is not None:
            check_budget(self.split_budget, "split budget")


@dataclass
class SelectionResult:
    selected_ids: list[str] = field(default_factory=list)
    total_tokens: int = 0
    threshold: float | None = None
    seed_used: int = 0
    requested_alpha: float | None = None
    realized_alpha: float | None = None

    def summary(self) -> dict:
        return {
            "selected": len(self.selected_ids),
            "total_tokens": self.total_tokens,
            "threshold": self.threshold,
            "seed": self.seed_used,
            "requested_alpha": self.requested_alpha,
            "realized_alpha": self.realized_alpha,
        }


def _hash_uniforms(doc_ids: Sequence[str], seed: int, *parts: str) -> list[float]:
    """Deterministic uniforms in (0, 1), one per id, keyed by seed, parts
    and id.

    Each key is one 8-byte blake2b digest of the 8-byte big-endian seed
    followed by every part and then the id, each UTF-8 encoded and
    preceded by its 8-byte big-endian length; the digest's top 53 bits,
    read big-endian, give u = (bits + 0.5) / 2**53. Everything before
    the id is hashed once per call, and that hash state copied per id.
    """
    head = hashlib.blake2b(seed.to_bytes(8, "big", signed=False),
                           digest_size=8)
    for p in parts:
        raw = p.encode("utf-8")
        head.update(len(raw).to_bytes(8, "big") + raw)
    out = []
    for doc_id in doc_ids:
        raw = doc_id.encode("utf-8")
        h = head.copy()
        h.update(len(raw).to_bytes(8, "big") + raw)
        out.append(((_U64(h.digest())[0] >> 11) + 0.5) * 2.0**-53)
    return out


def _rank_take(table: ScoreTable, keys: Sequence[float], budget: float,
               by_docs: bool) -> tuple[list[int], int]:
    """Rows of the greedy prefix of `table` ranked by (key desc, doc_id
    asc, row) under a token (or, with by_docs, a document) budget, and
    the tokens they hold; the crossing document is kept whole rather
    than truncated."""
    n_p = table.n_p
    taken: list[int] = []
    tokens = 0
    # The row closes each sort key, so rows tied on (key, doc_id) keep
    # input order.
    for _, _, i in sorted(zip([-k for k in keys], table.ids, range(len(n_p)))):
        if (len(taken) if by_docs else tokens) >= budget:
            break
        taken.append(i)
        tokens += n_p[i]
    return taken, tokens


def top_k(records: Records, spec: SelectionSpec) -> SelectionResult:
    """Highest-scoring records under the budget.

    Ordering is (score desc, doc_id asc); the id tie-break makes the
    result independent of input order.
    """
    table = ScoreTable.from_records(records)
    scores = table.column(spec.score_field)
    taken, tokens = _rank_take(table, scores, spec.budget, spec.by_docs)
    if len(taken) == len(table) and taken:
        corpus = len(table) if spec.by_docs else tokens
        if spec.budget > corpus:
            log.warning("budget %d exceeds corpus size %d; selecting all",
                        spec.budget, corpus)
    return SelectionResult(
        selected_ids=[table.ids[i] for i in taken],
        total_tokens=tokens,
        threshold=scores[taken[-1]] if taken else None,
        seed_used=spec.seed,
    )


def gumbel_topk_sample(records: Records,
                       spec: SelectionSpec) -> SelectionResult:
    """Softmax sampling without replacement via the Gumbel top-k trick.

    Each record gets key = score/tau + G with G standard Gumbel drawn
    from a (seed, doc_id)-keyed hash; taking descending keys until the
    budget realizes Plackett-Luce sampling from softmax(score/tau).
    With normalize on, scores are first min-max rescaled to [0, 1]
    (constant score vectors rescale to all zeros, i.e. uniform).
    """
    table = ScoreTable.from_records(records)
    scores = table.column(spec.score_field)
    scaled = scores
    if spec.normalize and scores:
        lo, hi = min(scores), max(scores)
        span = hi - lo
        scaled = ([(s - lo) / span for s in scores] if span > 0
                  else [0.0] * len(scores))
    # Standard Gumbel noise -ln(-ln u).
    uniforms = _hash_uniforms(table.ids, spec.seed)
    ln, tau = math.log, spec.tau
    keys = [s / tau - ln(-ln(u)) for s, u in zip(scaled, uniforms)]
    taken, tokens = _rank_take(table, keys, spec.budget, spec.by_docs)
    return SelectionResult(
        selected_ids=[table.ids[i] for i in taken],
        total_tokens=tokens,
        threshold=min(scores[i] for i in taken) if taken else None,
        seed_used=spec.seed,
    )


def threshold_split(records: Records, token_budget: int,
                    score_field: str = "hks") -> tuple[Records, Records,
                                                       float | None]:
    """Split the corpus at the score of the lowest record inside the
    top `token_budget` tokens.

    Returns (high, low, threshold) where high holds every record with
    score >= threshold (ties at the threshold all land high) and low is
    the complement; both preserve input order and are ScoreTables when
    `records` is one, lists of its records otherwise. Budget 0 puts
    everything in low with no threshold. An empty low (the threshold is
    the lowest score) is logged as a warning.
    """
    table = ScoreTable.from_records(records)
    check_budget(token_budget)
    high: list[int] = []
    low: Sequence[int] = range(len(table))
    threshold = None
    if len(table) and token_budget > 0:
        scores = table.column(score_field)
        taken, _ = _rank_take(table, scores, token_budget, False)
        threshold = scores[taken[-1]]
        high = [i for i, s in enumerate(scores) if s >= threshold]
        low = [i for i, s in enumerate(scores) if s < threshold]
        if not low:
            log.warning("split threshold %r is the corpus's lowest %s "
                        "score; every record is high and the low stratum "
                        "is empty", threshold, score_field)
    if table is records:
        return table.take(high), table.take(low), threshold
    return [records[i] for i in high], [records[i] for i in low], threshold


def _sample_stratum(table: ScoreTable, target: float, label: str,
                    seed: int) -> tuple[list[str], int]:
    """Ids of a uniformly ordered greedy draw of about `target` tokens."""
    if target <= 0:
        return [], 0
    uniforms = _hash_uniforms(table.ids, seed, label)
    # Key -u ranks by (u asc, doc_id asc).
    taken, tokens = _rank_take(table, [-u for u in uniforms], target, False)
    if tokens < target:
        raise StratumExhaustedError(label, int(math.ceil(target)), tokens)
    return [table.ids[i] for i in taken], tokens


def mix(high: Records, low: Records, alpha: float, token_budget: int,
        seed: int) -> SelectionResult:
    """Merge uniform samples of alpha*budget high tokens and
    (1-alpha)*budget low tokens.

    Sampling is by whole document: each stratum is put in a
    (seed, stratum, doc_id)-hashed uniform order and documents are taken
    until the token target is reached, so the realized alpha can differ
    from the request by at most one document per stratum. A stratum too
    small for its target raises a stratum-exhausted error naming it.
    """
    _check_alpha(alpha)
    check_budget(token_budget)
    _check_seed(seed)
    high_ids, high_tokens = _sample_stratum(
        ScoreTable.from_records(high), alpha * token_budget, "high", seed)
    low_ids, low_tokens = _sample_stratum(
        ScoreTable.from_records(low), (1.0 - alpha) * token_budget, "low",
        seed)
    total = high_tokens + low_tokens
    realized = high_tokens / total if total > 0 else None
    return SelectionResult(
        selected_ids=high_ids + low_ids,
        total_tokens=total,
        threshold=None,
        seed_used=seed,
        requested_alpha=alpha,
        realized_alpha=realized,
    )


def select(records: Records, spec: SelectionSpec) -> SelectionResult:
    """Dispatch on spec.strategy; mix needs spec.alpha and
    spec.split_budget (tokens defining the high/low threshold)."""
    table = ScoreTable.from_records(records)
    if spec.strategy == "topk":
        return top_k(table, spec)
    if spec.strategy == "sample":
        return gumbel_topk_sample(table, spec)
    high, low, threshold = threshold_split(table, spec.split_budget,
                                           spec.score_field)
    result = mix(high, low, spec.alpha, spec.budget, spec.seed)
    result.threshold = threshold
    return result
