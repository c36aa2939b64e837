"""Hash every output of the hks commands on one seed's benchmark inputs.

A change that claims byte-identical outputs runs this once on the old
source tree and once on the new, over the same inputs, and compares:

    python tools/identity.py generate --seed 7 INPUTS
    python tools/identity.py run --src OLD/src --inputs INPUTS --out A
    python tools/identity.py run --src NEW/src --inputs INPUTS --out B
    python tools/identity.py --compare A/identity.json B/identity.json

`generate` writes the inputs of the score-latin, score-mixed and
select-100k workloads as `perfbench/run.py` does, and an edge-case pool
made from score-mixed's (see `edge_pool`). `run` scores each corpus
with default flags and with `--no-boundary --no-domains` (`--workers`
is passed to both), runs `pool stats` on each pool, and on each score
run of a workload and on select-100k's records runs topk, sample and mix
selections, one with `--emit-corpus` (where the corpus exists), `split`,
`analyze hist` and `analyze corr`; where the run has domain columns, a
selection with `--score-field art` and `corr` over the `science` column
too. The edge-case pool gets `pool stats` and both score runs, against
score-mixed's corpus. Each command is a `python -m hks.cli` subprocess
of the tree under `--src`. Every output but `run_stats.json` goes into
OUT/identity.json as `{relative path: sha256}`. Runs compare equal only
when they read the same INPUTS directory, since a manifest records its
input paths. `--compare A B` prints each path added, removed or changed
between two such files and exits 1 if any is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import unicodedata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("score-latin", "score-mixed", "select-100k")
EDGE = "edge-pool"
# Token budgets as shares of a run's tokens, as the benchmark takes them.
TOPK_SHARE, MIX_SHARE, SPLIT_SHARE = 0.25, 0.04, 0.05


def generate(seed: int, inputs: Path) -> None:
    """Each workload's inputs under INPUTS/<workload>/inputs, and the
    parameters `run` reads in INPUTS/<workload>/params.json."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import run as bench

    for workload in WORKLOADS:
        work = (inputs / workload).resolve()
        work.mkdir(parents=True)
        params, _ = bench.generate(workload, seed, work)
        (work / "params.json").write_text(json.dumps(params), "utf-8")
    mixed = json.loads((inputs / "score-mixed" / "params.json").read_text("utf-8"))
    work = (inputs / EDGE).resolve()
    work.mkdir()
    (work / "pool.tsv").write_bytes(edge_pool(Path(mixed["pool"])))
    (work / "params.json").write_text(json.dumps(
        {"pool": str(work / "pool.tsv"), "corpus": mixed["corpus"]}), "utf-8")


def edge_pool(pool: Path) -> bytes:
    """Every line of the pool at `pool` in order, each with one variant
    by its line number: a duplicate after casefold or NFC with another
    domain, or after whitespace collapse with padded or non-space
    whitespace; a third field, known, unknown or padded, or a fourth; an
    unknown domain, a padded domain, a line with no tab, a 1-character
    surface or a blank line. A byte order mark leads, lines end in "\n",
    "\r\n" or a lone "\r", and two surfaces that share their key under
    any hash base (the length-1024 Thue-Morse word and its complement)
    close the file."""
    from hks.pool import DOMAINS

    def thue_morse(zero: str, one: str) -> str:
        return "".join(one if bin(i).count("1") % 2 else zero for i in range(1024))

    lines = []
    for i, line in enumerate(pool.read_text("utf-8").splitlines()):
        surface, domain = line.split("\t")[:2]
        other = DOMAINS[(DOMAINS.index(domain) + 1) % len(DOMAINS)]
        spaced = surface.replace(" ", "\u2003 ")
        lines += [line, [
            f"{surface.upper()}\t{other}",
            f"{unicodedata.normalize('NFD', surface)}\t{other}",
            f" {spaced}\xa0\t{domain}",
            f"{surface}\u3000~\t{domain}\tmodel_extracted",
            f"{surface}~\t{domain}\ttitle_keyword",
            f"{surface}~~\t{domain}\tscraped",
            f"{surface}~~~\t{domain}\t title_keyword \textra",
            f"{surface}!\tfinance",
            f"{surface}?",
            f"{surface[:1]}\t{domain}",
            f"{surface}!!\t {other}\x1c",
            "",
        ][i % 12]]
    lines += [f"{thue_morse('a', 'b')}\tscience", f"{thue_morse('b', 'a')}\tart"]
    ends = ["\n"] * 5 + ["\r\n", "\r"]
    return ("\ufeff" + "".join(line + ends[i % len(ends)]
                               for i, line in enumerate(lines))).encode("utf-8")


def hks(src: Path, out: Path, *argv) -> None:
    """One `python -m hks.cli` command of the tree at `src`, in `out`."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    proc = subprocess.run([sys.executable, "-m", "hks.cli", "-q", *map(str, argv)],
                          cwd=out, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"hks {' '.join(map(str, argv))} exited {proc.returncode}:\n"
                 f"{proc.stderr}")


def tokens(scores: Path) -> int:
    """The tokens of the documents a score run holds."""
    return sum(json.loads(line)["n_p"] for path in sorted(scores.glob("*.jsonl"))
               for line in path.open(encoding="utf-8"))


def phase_two(src: Path, out: Path, scores: str, name: str, total: int,
              domains: bool = True, emit: bool = True) -> None:
    """Every phase-two command on the run at `scores`, writing under
    names that start with `name` in `out`. `total` is the run's tokens;
    `domains` says whether it has domain columns, and `emit` whether its
    corpus files exist."""
    def budget(share: float) -> int:
        return max(1, int(total * share))

    sel = ["select", "--scores", scores, "--seed", 1]
    topk = ["--budget-tokens", budget(TOPK_SHARE)]
    hks(src, out, *sel, "--out", f"{name}.topk", *topk)
    hks(src, out, *sel, "--out", f"{name}.sample", "--strategy", "sample", *topk)
    hks(src, out, *sel, "--out", f"{name}.mix", "--strategy", "mix",
        "--alpha", 0.75, "--budget-tokens", budget(MIX_SHARE),
        "--split-budget-tokens", budget(SPLIT_SHARE))
    if domains:
        hks(src, out, *sel, "--out", f"{name}.art", "--score-field", "art", *topk)
    if emit:
        hks(src, out, *sel, "--out", f"{name}.emit", "--budget-docs", 20,
            "--emit-corpus", f"{name}.corpus")
    hks(src, out, "split", "--scores", scores, "--out", f"{name}.split",
        "--budget-tokens", budget(SPLIT_SHARE))
    hks(src, out, "analyze", "hist", "--scores", scores, "--metric", "hks",
        "--group-by", "subset", "--out", f"{name}.hist.csv")
    hks(src, out, "analyze", "corr", "--scores", scores, "--columns",
        "d,c,hks,science" if domains else "d,c,hks", "--out", f"{name}.corr.json")


def run(src: Path, inputs: Path, out: Path, workers: int) -> None:
    out.mkdir(parents=True)
    for workload in (*WORKLOADS, EDGE):
        params = json.loads((inputs / workload / "params.json").read_text("utf-8"))
        hks(src, out, "pool", "stats", params["pool"], "--out", f"{workload}.pool.json")
        for tag, flags in (("score", []),
                           ("plain", ["--no-boundary", "--no-domains"])):
            scores = f"{workload}.{tag}"
            hks(src, out, "score", "--pool", params["pool"], "--corpus",
                params["corpus"], "--out", scores, "--workers", workers, *flags)
            if workload != EDGE:
                phase_two(src, out, scores, scores, tokens(out / scores),
                          domains=not flags)
        if "scores" in params:
            # The generated records list corpus files that do not exist,
            # so nothing can be emitted from them.
            phase_two(src, out, params["scores"], f"{workload}.records",
                      params["tokens"], emit=False)
    hashes = {path.relative_to(out).as_posix():
              hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.rglob("*"))
              if path.is_file() and path.name != "run_stats.json"}
    (out / "identity.json").write_text(json.dumps(hashes, indent=1), "utf-8")
    print(f"{len(hashes)} outputs hashed into {out / 'identity.json'}")


def compare(a: Path, b: Path) -> int:
    old, new = (json.loads(p.read_text("utf-8")) for p in (a, b))
    diffs = ([f"added {p}" for p in sorted(new.keys() - old.keys())]
             + [f"removed {p}" for p in sorted(old.keys() - new.keys())]
             + [f"changed {p}" for p in sorted(old.keys() & new.keys())
                if old[p] != new[p]])
    print("\n".join(diffs) or f"{len(old)} outputs identical")
    return 1 if diffs else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="two identity.json files to compare")
    sub = ap.add_subparsers(dest="command")
    p_gen = sub.add_parser("generate", help="write one seed's inputs")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("inputs", type=Path)
    p_run = sub.add_parser("run", help="run and hash every command")
    p_run.add_argument("--src", type=Path, required=True,
                       help="the src directory of the tree to run")
    p_run.add_argument("--inputs", type=Path, required=True)
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.command == "generate":
        generate(args.seed, args.inputs)
    elif args.command == "run":
        run(args.src, args.inputs.resolve(), args.out, args.workers)
    else:
        ap.error("give a command or --compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
