"""Command-line entry point.

Subcommands: pool stats, score, select, split, analyze (hist, corr,
fsearch). Exit codes: 0 success, 1 usage error, 2 data error,
3 resource error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import HksError, UsageError
from .files import writing
from .metrics import RECORD_SCORES, SCORE_FIELDS
from .pool import load_pool, pool_stats
from .pipeline import (RunConfig, run_corr, run_fsearch, run_hist, run_score,
                       run_select, run_split)
from .selection import STRATEGIES, SelectionSpec

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems at exit code 2; this toolkit
    reserves 2 for data errors, so parser errors are re-raised."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _count(value: str) -> int:
    """Token/document counts; accepts 2e10-style scientific shorthand."""
    try:
        if any(c in value for c in ".eE"):
            f = float(value)
            if f != int(f):
                raise ValueError
            return int(f)
        return int(value)
    except (ValueError, OverflowError):  # OverflowError: int(inf)
        raise argparse.ArgumentTypeError(f"not a whole number: {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hks",
                     description="Knowledge-based corpus scoring and selection")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings only")
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # flag given before the subcommand from being reset to the default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    common.add_argument("-q", "--quiet", action="store_true",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    scored = argparse.ArgumentParser(add_help=False)
    scored.add_argument("--scores", required=True,
                        help="directory produced by `hks score`")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_pool = sub.add_parser("pool", help="pool utilities")
    pool_sub = p_pool.add_subparsers(dest="pool_command", required=True,
                                     parser_class=_Parser)
    p_stats = pool_sub.add_parser("stats", help="load a pool and print stats",
                                  parents=[common])
    p_stats.add_argument("pool", help="TSV pool file (surface, domain[, source])")
    p_stats.add_argument("--strict", action="store_true",
                         help="abort on the first malformed record")
    p_stats.add_argument("--out", help="write JSON here instead of stdout")

    p_score = sub.add_parser("score", help="score a corpus against a pool",
                             parents=[common])
    p_score.add_argument("--pool", required=True, help="TSV pool file")
    p_score.add_argument("--corpus", required=True,
                         help="glob of JSONL corpus shards (optionally .gz)")
    p_score.add_argument("--out", required=True, help="output directory")
    p_score.add_argument("--workers", type=int, default=1,
                         help="parallel shard workers")
    p_score.add_argument("--strict", action="store_true",
                         help="abort on malformed input lines")
    p_score.add_argument("--no-boundary", action="store_true",
                         help="match surfaces as raw substrings")
    p_score.add_argument("--no-domains", action="store_true",
                         help="skip per-domain score columns")

    p_select = sub.add_parser("select", help="select documents from a scored run",
                              parents=[common, scored])
    p_select.add_argument("--out", required=True, help="output directory")
    p_select.add_argument("--strategy", choices=STRATEGIES,
                          default="topk")
    budget = p_select.add_mutually_exclusive_group(required=True)
    budget.add_argument("--budget-tokens", type=_count,
                        help="token budget (sum of selected n_p)")
    budget.add_argument("--budget-docs", type=_count,
                        help="document-count budget")
    p_select.add_argument("--tau", type=float, default=2.0,
                          help="softmax temperature for sampling")
    p_select.add_argument("--alpha", type=float,
                          help="high-knowledge token fraction (mix)")
    p_select.add_argument("--split-budget-tokens", type=_count,
                          help="token budget defining the high/low threshold (mix)")
    p_select.add_argument("--seed", type=int, default=0)
    p_select.add_argument("--score-field", choices=SCORE_FIELDS, default="hks")
    p_select.add_argument("--no-normalize", action="store_true",
                          help="softmax raw scores instead of min-max "
                               "rescaled ones")
    p_select.add_argument("--emit-corpus",
                          help="also write the selected source documents here")

    p_split = sub.add_parser("split",
                             help="threshold-split a scored run into high/low",
                             parents=[common, scored])
    p_split.add_argument("--out", required=True)
    p_split.add_argument("--budget-tokens", type=_count, required=True,
                         help="token budget of the high prefix")
    p_split.add_argument("--score-field", choices=SCORE_FIELDS, default="hks")

    p_an = sub.add_parser("analyze", help="diagnostics over scored runs")
    an_sub = p_an.add_subparsers(dest="analyze_command", required=True,
                                 parser_class=_Parser)
    p_hist = an_sub.add_parser("hist", help="per-group score histogram CSV",
                                parents=[common, scored])
    p_hist.add_argument("--metric", choices=RECORD_SCORES, required=True)
    p_hist.add_argument("--group-by", required=True,
                        help="document meta key to group on")
    p_hist.add_argument("--buckets", type=int, default=50)
    p_hist.add_argument("--out", required=True, help="CSV output path")

    p_corr = an_sub.add_parser("corr",
                               help="pairwise rank correlation between columns",
                               parents=[common, scored])
    p_corr.add_argument("--columns", required=True,
                        help="comma list: d,c,hks, domain names, ext:<name>")
    p_corr.add_argument("--ext",
                        help="JSONL with external columns keyed by id")
    p_corr.add_argument("--out", required=True, help="JSON output path")

    p_fs = an_sub.add_parser("fsearch",
                             help="rank candidate scoring functions against "
                                  "preference pairs",
                             parents=[common])
    p_fs.add_argument("--pairs", required=True,
                      help="JSONL pairs: {a:{d,c}, b:{d,c}, label}")
    p_fs.add_argument("--out", required=True, help="CSV output path")
    p_fs.add_argument("--per-pair-normalize", action="store_true",
                      help="min-max normalize within each pair instead of "
                           "globally")
    return parser


def _cmd_pool_stats(args) -> int:
    pool = load_pool(args.pool, strict=args.strict)
    payload = pool_stats(pool).to_json()
    if args.out:
        with writing(args.out) as out:
            out.write(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_score(args) -> int:
    config = RunConfig(
        pool_path=args.pool,
        corpus=args.corpus,
        out_dir=args.out,
        workers=args.workers,
        strict=args.strict,
        boundary=not args.no_boundary,
        domain_scores=not args.no_domains,
    )
    manifest = run_score(config)
    print(f"scored {manifest['records']} documents into "
          f"{len(manifest['shards'])} shards under {args.out}")
    return 0


def _select_spec(args) -> SelectionSpec:
    if args.strategy == "mix":
        if args.alpha is None:
            raise UsageError("mix strategy requires --alpha")
        if args.split_budget_tokens is None:
            raise UsageError("mix strategy requires --split-budget-tokens")
        if args.budget_docs is not None:
            raise UsageError("mix strategy budgets tokens, not documents")
    by_docs = args.budget_docs is not None
    return SelectionSpec(
        strategy=args.strategy,
        budget=args.budget_docs if by_docs else args.budget_tokens,
        by_docs=by_docs,
        tau=args.tau,
        alpha=args.alpha,
        seed=args.seed,
        score_field=args.score_field,
        normalize=not args.no_normalize,
        split_budget=args.split_budget_tokens,
    )


def _cmd_select(args) -> int:
    summary = run_select(args.scores, _select_spec(args), args.out,
                         emit_corpus=args.emit_corpus)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_split(args) -> int:
    summary = run_split(args.scores, args.budget_tokens, args.out,
                        score_field=args.score_field)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _cmd_analyze(args) -> int:
    if args.analyze_command == "hist":
        run_hist(args.scores, args.metric, args.group_by, args.buckets,
                 args.out)
        print(f"wrote {args.out}")
    elif args.analyze_command == "corr":
        columns = [c.strip() for c in args.columns.split(",") if c.strip()]
        if len(columns) < 2:
            raise UsageError("--columns needs at least two entries")
        run_corr(args.scores, columns, args.out, ext_path=args.ext)
        print(f"wrote {args.out}")
    else:
        rows = run_fsearch(args.pairs, args.out,
                           per_pair_normalize=args.per_pair_normalize)
        best = rows[0]
        print(f"wrote {args.out}; best formula {best[0]} (rho={best[2]:.4f})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        level = (logging.DEBUG if args.verbose
                 else logging.WARNING if args.quiet else logging.INFO)
        logging.basicConfig(level=level,
                            format="%(levelname)s %(name)s: %(message)s",
                            stream=sys.stderr)
        if args.command == "pool":
            return _cmd_pool_stats(args)
        if args.command == "score":
            return _cmd_score(args)
        if args.command == "select":
            return _cmd_select(args)
        if args.command == "split":
            return _cmd_split(args)
        return _cmd_analyze(args)
    except HksError as exc:
        print(f"hks: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
