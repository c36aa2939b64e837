"""In-memory spans around calls into each hks layer, and the per-layer
metrics derived from them.

Spans are recorded by wrapping public functions of the hks modules from
outside (the program itself is not edited). Each span is a tuple
(id, parent id, name, command span id, document id, start, end, attrs).
During `hks score` every span of one document carries that document's
id; in phase two the per-record calls (`ScoreRecord.from_json`,
`ScoreRecord.to_json`) are folded into one span per command so a
100k-record load does not allocate 100k span tuples.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

import numpy as np

import hks.matcher
import hks.metrics
import hks.pipeline
import hks.selection

# name -> (unit, what it feeds: the end-to-end metric it moves, by workload)
PER_LAYER = {
    "pool.load_s": ("s", "setup_s on score-latin"),
    "pool.elements": ("count", "setup_s (pool size)"),
    "matcher.build_s": ("s", "setup_s on score-latin; tiny on score-mixed"),
    "matcher.nodes": ("count", "peak_rss_mb on score-latin"),
    "matcher.array_mb": ("MB", "peak_rss_mb on score-latin"),
    "matcher.annotate_s": ("s", "score_mb_per_s"),
    "matcher.doc_us_p50": ("us", "score_mb_per_s"),
    "matcher.doc_us_p99": ("us", "score_mb_per_s"),
    "matcher.doc_samples": ("count", "sample count behind doc_us_p50/p99"),
    "matcher.scan_s": ("s", "score_mb_per_s on both score workloads "
                            "(estimate: annotate minus timed textnorm)"),
    "matcher.codepoints": ("count", "score_mb_per_s"),
    "matcher.occurrences": ("count", "score_mb_per_s (output-link walks)"),
    "matcher.zero_match_share": ("share", "score_mb_per_s"),
    "textnorm.class_table_s": ("s", "setup_s"),
    "textnorm.normalize_s": ("s", "score_mb_per_s on score-mixed"),
    "textnorm.classes_s": ("s", "score_mb_per_s on score-mixed"),
    "textnorm.tokens": ("count", "score_mb_per_s"),
    "metrics.score_record_s": ("s", "score_mb_per_s"),
    "metrics.to_json_s": ("s", "score_mb_per_s"),
    "metrics.from_json_s": ("s", "setup_s and select_*_s on select-100k"),
    "metrics.record_kb": ("KB", "peak_rss_mb on select-100k"),
    "pipeline.parse_s": ("s", "score_mb_per_s"),
    "pipeline.load_scores_s": ("s", "setup_s and select_*_s on select-100k"),
    "pipeline.other_s": ("s", "every command: mean per command of wall "
                              "time outside traced children"),
    "selection.topk_s": ("s", "select_topk_s"),
    "selection.sample_s": ("s", "select_sample_s"),
    "selection.mix_s": ("s", "select_mix_s"),
    "selection.threshold_split_s": ("s", "split_s"),
    "selection.selected_docs": ("count", "select_topk_s"),
    "selection.selected_tokens": ("count", "select_topk_s"),
    "analysis.hist_s": ("s", "analyze_s"),
    "analysis.corr_s": ("s", "analyze_s"),
    "trace.overhead_ratio": ("ratio", "traced over untraced wall time of "
                                      "the probe command"),
}

# Phase-two commands whose record loads are folded per command.
_RECORD_CALLS = ("metrics.from_json", "metrics.to_json")


class _JsonProxy:
    """Stands in for the `json` module inside hks.pipeline so that its
    `loads` (corpus lines) is timed and everything else passes through."""

    def __init__(self, real, loads):
        self._real = real
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Wraps hks functions in place (install/uninstall) and keeps spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._folded: dict[tuple, list] = {}
        self._undo: list[tuple] = []
        self._pending_parse: list[int] = []
        self.doc: str | None = None
        self.per_doc = False
        self.command: int | None = None

    # -- recording ---------------------------------------------------
    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        return [sid, parent, name, self.command, self.doc,
                time.perf_counter(), 0.0, None]

    def _close(self, span: list) -> None:
        span[6] = time.perf_counter()
        self._stack.pop()
        self.spans[span[0]] = tuple(span)

    @contextlib.contextmanager
    def command_span(self, name: str):
        """Root span of one CLI command; yields its span id."""
        self.per_doc = name in ("score", "resume")
        span = self._open(name)
        self.command = span[3] = span[0]
        try:
            yield span[0]
        finally:
            self._close(span)
            self.command = None
            self.doc = None

    def _wrap(self, orig, name: str, attrs_of=None):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name in _RECORD_CALLS and not tracer.per_doc:
                t0 = time.perf_counter()
                result = orig(*args, **kwargs)
                t1 = time.perf_counter()
                parent = tracer._stack[-1] if tracer._stack else None
                slot = tracer._folded.setdefault(
                    (tracer.command, name, parent), [0, 0.0, t0, t1])
                slot[0] += 1
                slot[1] += t1 - t0
                slot[3] = t1
                return result
            if name == "matcher.annotate":
                tracer.doc = args[0].id
                for sid in tracer._pending_parse:
                    s = tracer.spans[sid]
                    tracer.spans[sid] = s[:4] + (tracer.doc,) + s[5:]
                tracer._pending_parse.clear()
            elif name == "pipeline.parse" and tracer.per_doc:
                tracer.doc = None
            span = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if attrs_of is not None:
                s = tracer.spans[span[0]]
                tracer.spans[span[0]] = s[:7] + (attrs_of(args, result),)
            if name == "pipeline.parse" and tracer.per_doc:
                tracer._pending_parse.append(span[0])
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, attrs_of=None) -> None:
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if raw is None:
            return
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, attrs_of))

    def install(self) -> None:
        pipe, match, sel = hks.pipeline, hks.matcher, hks.selection
        self._patch(pipe, "load_pool", "pool.load_pool",
                    lambda a, r: {"elements": r.total})
        self._patch(pipe, "build_automaton", "matcher.build_automaton",
                    _automaton_attrs)
        self._patch(pipe, "annotate", "matcher.annotate",
                    lambda a, r: {"n_k": r.n_k, "n_p": r.n_p})
        self._patch(match, "normalize", "textnorm.normalize")
        self._patch(match, "encode_codepoints", "textnorm.encode_codepoints",
                    lambda a, r: {"n": int(r.size)})
        self._patch(match, "class_table", "textnorm.class_table")
        self._patch(match, "token_count_from_classes",
                    "textnorm.token_count_from_classes")
        self._patch(pipe, "score_record", "metrics.score_record")
        self._patch(hks.metrics.ScoreRecord, "to_json", "metrics.to_json")
        self._patch(hks.metrics.ScoreRecord, "from_json", "metrics.from_json")
        self._patch(pipe, "load_score_records", "pipeline.load_score_records")
        self._patch(pipe, "select", "selection.select",
                    lambda a, r: {"strategy": a[1].strategy,
                                  "docs": len(r.selected_ids),
                                  "tokens": r.total_tokens})
        for fn in ("top_k", "gumbel_topk_sample", "mix", "threshold_split"):
            self._patch(sel, fn, f"selection.{fn}")
        self._patch(pipe, "bucket_distribution", "analysis.bucket_distribution")
        self._patch(pipe, "correlation_matrix", "analysis.correlation_matrix")
        real_json = pipe.json
        self._undo.append((pipe, "json", real_json))
        pipe.json = _JsonProxy(real_json,
                               self._wrap(real_json.loads, "pipeline.parse"))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def all_spans(self) -> list[tuple]:
        """Recorded spans plus one folded span per (command, record call)."""
        out = list(self.spans)
        for (cmd, name, parent), (count, total, t0, t1) in sorted(
                self._folded.items(), key=lambda kv: kv[1][2]):
            out.append((len(out), parent, name, cmd, None, t0, t1,
                        {"calls": count, "busy_s": total}))
        return out


def _automaton_attrs(args, automaton) -> dict:
    arrays = [v for k, v in vars(automaton).items()
              if not k.startswith("_") and isinstance(v, np.ndarray)]
    return {"nodes": int(getattr(automaton, "n_nodes", 0)),
            "array_mb": sum(a.nbytes for a in arrays) / 1e6}


def write_spans(path, spans: list[tuple], commands: dict[int, str]) -> None:
    keys = ("id", "parent", "name", "command", "doc", "start", "end", "attrs")
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            row = dict(zip(keys, s))
            row["command"] = commands.get(s[3])
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _dur(s) -> float:
    return s[6] - s[5]


def _busy(s) -> float:
    return s[7]["busy_s"] if s[7] and "busy_s" in s[7] else _dur(s)


def layer_metrics(spans: list[tuple], ops: list[dict], extra: dict) -> dict:
    """Per-layer metrics from the traced commands.

    `ops` lists every traced command as {"name", "span", "seconds"};
    `extra` holds values measured outside spans (class table, record
    size, tracing overhead). Times are medians over commands of one
    kind of the per-command total.
    """
    by_cmd: dict[int, list[tuple]] = {}
    for s in spans:
        if s[3] is not None and s[0] != s[3]:
            by_cmd.setdefault(s[3], []).append(s)
    kids: dict[int, list[tuple]] = {}
    for s in spans:
        if s[1] is not None:
            kids.setdefault(s[1], []).append(s)

    def cmds(kind):
        return [op for op in ops if op["name"] == kind]

    def per_cmd(kind, name, fn=_busy, direct=False):
        vals = []
        for op in cmds(kind):
            pool = kids.get(op["span"], []) if direct else by_cmd.get(op["span"], [])
            vals.append(sum(fn(s) for s in pool if s[2] == name))
        return statistics.median(vals) if vals else 0.0

    def attr(kind, name, key):
        for op in cmds(kind):
            for s in by_cmd.get(op["span"], []):
                if s[2] == name and s[7] and key in s[7]:
                    return s[7][key]
        return 0

    # Per-document view of the fresh scoring commands.
    doc_us, scan, norm, classes, cps, occ, zero, tokens = [], [], [], [], [], [], [], []
    for op in cmds("score"):
        t_scan = t_norm = t_cls = 0.0
        n_cp = n_occ = n_zero = n_tok = n_doc = 0
        for a in by_cmd.get(op["span"], []):
            if a[2] != "matcher.annotate":
                continue
            n_doc += 1
            doc_us.append(_dur(a) * 1e6)
            children = sorted(kids.get(a[0], []), key=lambda s: s[5])
            tn = [s for s in children if s[2].startswith("textnorm.")]
            gap = 0.0
            for i, s in enumerate(children[:-1]):
                if s[2] == "textnorm.class_table":
                    gap = max(0.0, children[i + 1][5] - s[6])
                    break
            t_norm += sum(_dur(s) for s in tn if s[2] == "textnorm.normalize")
            t_cls += gap + sum(_dur(s) for s in tn
                               if s[2] != "textnorm.normalize")
            t_scan += _dur(a) - gap - sum(_dur(s) for s in tn)
            n_cp += sum(s[7]["n"] for s in tn
                        if s[2] == "textnorm.encode_codepoints" and s[7])
            if a[7]:
                n_occ += a[7]["n_k"]
                n_tok += a[7]["n_p"]
                n_zero += a[7]["n_k"] == 0
        scan.append(t_scan)
        norm.append(t_norm)
        classes.append(t_cls)
        cps.append(n_cp)
        occ.append(n_occ)
        tokens.append(n_tok)
        zero.append(n_zero / n_doc if n_doc else 0.0)

    def med(vals):
        return statistics.median(vals) if vals else 0.0

    phase_two = [op for op in ops if op["name"] not in ("score", "resume")]
    other = []
    for op in ops:
        children = kids.get(op["span"], [])
        other.append(op["seconds"] - sum(_busy(s) for s in children))

    return {
        "pool.load_s": per_cmd("score", "pool.load_pool"),
        "pool.elements": attr("score", "pool.load_pool", "elements"),
        "matcher.build_s": per_cmd("score", "matcher.build_automaton"),
        "matcher.nodes": attr("score", "matcher.build_automaton", "nodes"),
        "matcher.array_mb": attr("score", "matcher.build_automaton",
                                 "array_mb"),
        "matcher.annotate_s": per_cmd("score", "matcher.annotate"),
        "matcher.doc_us_p50": (float(np.percentile(doc_us, 50))
                               if doc_us else 0.0),
        "matcher.doc_us_p99": (float(np.percentile(doc_us, 99))
                               if doc_us else 0.0),
        "matcher.doc_samples": len(doc_us),
        "matcher.scan_s": med(scan),
        "matcher.codepoints": med(cps),
        "matcher.occurrences": med(occ),
        "matcher.zero_match_share": med(zero),
        "textnorm.class_table_s": extra["class_table_s"],
        "textnorm.normalize_s": med(norm),
        "textnorm.classes_s": med(classes),
        "textnorm.tokens": med(tokens),
        "metrics.score_record_s": per_cmd("score", "metrics.score_record"),
        "metrics.to_json_s": per_cmd("score", "metrics.to_json"),
        "metrics.from_json_s": med([
            sum(_busy(s) for s in by_cmd.get(op["span"], [])
                if s[2] == "metrics.from_json") for op in phase_two]),
        "metrics.record_kb": extra["record_kb"],
        "pipeline.parse_s": per_cmd("score", "pipeline.parse"),
        "pipeline.load_scores_s": med([
            sum(_dur(s) for s in kids.get(op["span"], [])
                if s[2] == "pipeline.load_score_records")
            for op in phase_two]),
        "pipeline.other_s": sum(other) / len(other) if other else 0.0,
        "selection.topk_s": per_cmd("select_topk", "selection.select",
                                    direct=True),
        "selection.sample_s": per_cmd("select_sample", "selection.select",
                                      direct=True),
        "selection.mix_s": per_cmd("select_mix", "selection.select",
                                   direct=True),
        "selection.threshold_split_s": per_cmd(
            "split", "selection.threshold_split", direct=True),
        "selection.selected_docs": attr("select_topk", "selection.select",
                                        "docs"),
        "selection.selected_tokens": attr("select_topk", "selection.select",
                                          "tokens"),
        "analysis.hist_s": per_cmd("analyze_hist",
                                   "analysis.bucket_distribution",
                                   direct=True),
        "analysis.corr_s": per_cmd("analyze_corr",
                                   "analysis.correlation_matrix", direct=True),
        "trace.overhead_ratio": extra["overhead_ratio"],
    }
