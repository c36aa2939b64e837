"""Diagnostics over scored corpora.

Three tools: per-group score histograms over shared global bucket
edges, Spearman rank correlation between score columns, and a search
over the 9-member f(d)*g(c) scoring family ranked by correlation with
pairwise preference labels.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError
from .files import canonical_json
from .metrics import (RECORD_SCORES, ScoreFunction, ScoreRecord, ScoreTable,
                      all_score_functions, eval_score_function,
                      finite_numbers)

log = logging.getLogger(__name__)


@dataclass
class BucketHistogram:
    """Equal-width histogram shared across groups.

    edges has n_buckets + 1 strictly increasing values spanning the
    global min and max of the metric; counts maps each group label to
    its per-bucket count vector.
    """

    metric: str
    edges: np.ndarray
    counts: dict[str, np.ndarray] = field(default_factory=dict)

    def to_csv(self) -> str:
        """Long-form CSV: group,bucket,lo,hi,count with groups sorted,
        quoted only where a field needs it."""
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(("group", "bucket", "lo", "hi", "count"))
        for group in sorted(self.counts):
            vec = self.counts[group]
            for b, count in enumerate(vec):
                # Plain-float repr; numpy scalars stringify as np.float64(x).
                out.writerow((group, b, repr(float(self.edges[b])),
                              repr(float(self.edges[b + 1])), int(count)))
        return buf.getvalue()


def check_histogram(metric: str, n_buckets: int) -> None:
    """Refuse a histogram request that no record set could satisfy."""
    if n_buckets < 1:
        raise DataError(f"need at least 1 bucket, got {n_buckets}")
    if metric not in RECORD_SCORES:
        raise DataError(f"unknown metric {metric!r}; expected one of "
                        f"{RECORD_SCORES}")


def bucket_distribution(records: ScoreTable | Sequence[ScoreRecord],
                        metric: str, group_by: str,
                        n_buckets: int) -> BucketHistogram:
    """Histogram one metric per group over shared global edges.

    Edges are equal-width between the observed global min and max
    (widened by 0.5 either side when all values coincide, so edges stay
    strictly increasing). Records without the group key go to group
    "unknown" with a warning. A group value that is not a string is
    labelled by its compact JSON text (true, ["x","y"]).
    """
    check_histogram(metric, n_buckets)
    table = ScoreTable.from_records(records)
    if not len(table):
        raise DataError("cannot bucket an empty record set")

    scores = table.column(metric)
    values: dict[str, list[float]] = {}
    missing = 0
    for meta, score in zip(table.meta, scores):
        group = (meta or {}).get(group_by)
        if group is None:
            missing += 1
            group = "unknown"
        elif not isinstance(group, str):
            group = canonical_json(group)
        values.setdefault(group, []).append(score)
    if missing:
        log.warning("%d records missing group key %r; routed to 'unknown'",
                    missing, group_by)

    vmin, vmax = min(scores), max(scores)
    if vmin == vmax:
        vmin, vmax = vmin - 0.5, vmax + 0.5
    edges = np.linspace(vmin, vmax, n_buckets + 1)
    counts = {
        group: np.histogram(np.asarray(vec, dtype=np.float64), bins=edges)[0]
        for group, vec in values.items()
    }
    return BucketHistogram(metric=metric, edges=edges, counts=counts)


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """1-based ranks with ties assigned the mean of their positions, and
    whether any value is tied."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    # A tie group of size k ending at 1-based position u ranks u - (k-1)/2.
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inverse], counts.size != values.size


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Tie-free inputs use the exact rank-difference form
    1 - 6*sum(diff^2) / (n*(n^2-1)); ties fall back to the Pearson
    correlation of the average ranks. Constant vectors have no rank
    variance and are rejected.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"score vectors must match in length; "
                        f"got {x.shape} and {y.shape}")
    n = x.size
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DataError("constant score vector; rank correlation undefined")

    rx, x_tied = _average_ranks(x)
    ry, y_tied = _average_ranks(y)
    if not x_tied and not y_tied:
        diff = rx.astype(np.int64) - ry.astype(np.int64)
        # `step` squares of at most (n-1)^2 each sum within int64.
        step = max(1, (2**63 - 1) // (n - 1) ** 2)
        sd = sum(int(b @ b) for b in np.split(diff, range(step, n, step)))
        return 1.0 - 6.0 * sd / (n * (n * n - 1))
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) /
                 math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry))))


@dataclass(frozen=True)
class PreferencePair:
    """Two (d, c) points and a preference label in [0, 1]: 0 means the
    first text is preferred, 1 the second, fractions average annotators."""

    a: tuple[float, float]
    b: tuple[float, float]
    label: float

    def __post_init__(self):
        if not 0.0 <= self.label <= 1.0:
            raise DataError(f"label must be in [0, 1], got {self.label}")

    @classmethod
    def from_dict(cls, obj: dict) -> "PreferencePair":
        """The pair a parsed JSON object describes, values kept as parsed:
        each d, c and the label must be a finite number (not a bool), and
        each d and c >= 0."""
        try:
            a = (obj["a"]["d"], obj["a"]["c"])
            b = (obj["b"]["d"], obj["b"]["c"])
            label = obj["label"]
        except KeyError as exc:
            raise DataError(f"preference pair missing key {exc}") from exc
        if not (finite_numbers([*a, *b, label]) and min(*a, *b) >= 0):
            raise DataError(f"d and c must be finite numbers >= 0 and the "
                            f"label a finite number; got a={a}, b={b}, "
                            f"label={label!r}")
        return cls(a=a, b=b, label=label)


def pairwise_function_correlation(pairs: Sequence[PreferencePair],
                                  sf: ScoreFunction,
                                  per_pair_normalize: bool = False) -> float:
    """Spearman correlation between per-pair softmax(score of b) and the
    preference labels.

    Scores are min-max normalized over every text in the pair set before
    the softmax (per-pair normalization as an option), so the softmax
    sees comparable magnitudes across scoring functions. A score or a
    min-max span beyond float range is a DataError.
    """
    if len(pairs) < 2:
        raise DataError(f"need at least 2 preference pairs, got {len(pairs)}")
    scores = [(eval_score_function(sf, *p.a), eval_score_function(sf, *p.b))
              for p in pairs]
    # Python arithmetic overflows to inf without numpy's warning, and a
    # score beyond float range makes its span inf, nan or a huge int.
    spans = ([abs(a - b) for a, b in scores] if per_pair_normalize
             else [max(map(max, scores)) - min(map(min, scores))])
    if not finite_numbers(spans):
        raise DataError(f"formula {sf.name} gives a score, or a min-max "
                        f"span of scores, beyond float range")
    raw = np.array(scores, dtype=np.float64)
    axis = 1 if per_pair_normalize else None
    lo = raw.min(axis=axis, keepdims=True)
    span = raw.max(axis=axis, keepdims=True) - lo
    norm = (raw - lo) / np.where(span > 0, span, 1.0)
    p_b = 1.0 / (1.0 + np.exp(norm[:, 0] - norm[:, 1]))
    labels = [p.label for p in pairs]
    return spearman(p_b, labels)


def function_search(pairs: Sequence[PreferencePair],
                    per_pair_normalize: bool = False,
                    ) -> list[tuple[str, ScoreFunction, float]]:
    """Rank all 9 candidate scorers by label correlation, best first.

    Always returns 9 rows (one per candidate), sorted by rho descending
    with the formula name as tie-break.
    """
    rows = []
    for sf in all_score_functions():
        rho = pairwise_function_correlation(pairs, sf, per_pair_normalize)
        rows.append((sf.name, sf, rho))
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def function_search_csv(rows: Sequence[tuple[str, ScoreFunction, float]]) -> str:
    buf = io.StringIO()
    buf.write("formula,f,g,rho\n")
    for name, sf, rho in rows:
        buf.write(f"{name},{sf.f_kind},{sf.g_kind},{rho!r}\n")
    return buf.getvalue()


def correlation_matrix(columns: dict[str, Sequence[float]]) -> dict:
    """Pairwise Spearman matrix over named score columns.

    Columns must be equal-length and aligned by position (same document
    order). Returns a JSON-ready dict with sorted column names.
    """
    names = sorted(columns)
    if len(names) < 2:
        raise DataError("need at least 2 columns to correlate")
    matrix = [[1.0] * len(names) for _ in names]
    for i, a in enumerate(names):
        for j, b in enumerate(names[:i]):  # rho is symmetric
            matrix[i][j] = matrix[j][i] = spearman(columns[a], columns[b])
    return {"columns": names, "rho": matrix}


def correlation_json(result: dict) -> str:
    return json.dumps(result, sort_keys=True, ensure_ascii=False, indent=2)
