"""hks benchmark: one workload run, end to end.

    python3 perfbench/run.py --workload score-latin --seed 1 --seconds 15 \
        --trace 0

Run from the repository root. The run generates its inputs from the seed
under .perfbench/work/ (generation time is kept out of every metric),
starts workload.py in one fresh process that drives `hks.cli.main` with
`--workers 1` and HKS_WORKERS unset, checks every output against
independent oracles once that process has exited, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones: medians over the
run's samples, with every time rescaled to nominal machine speed (see
workload.timed). With --trace 1 they are the per-layer ones from spans,
unscaled.
The line before it holds the details: the environment, the sha256, bytes
and document counts of the inputs, every sample, the unscaled medians
and every check failure; the same details are kept under
.perfbench/results/.

Workloads (why each was chosen is in BENCHMARK.json):
- score-latin: criterion-11 data, 200k word-bounded two-word patterns,
  sparse matches; the matcher scan and the 200k-pattern build dominate.
- score-mixed: Latin/accented/CJK/punctuation text, about 20k surfaces of
  which about 10% are word-bounded; dense overlapping matches exercise
  output-link walks and NFC/casefold on non-ASCII text.
- select-100k: 100k score records written as `hks score` writes them;
  parsing and per-record objects dominate phase two, no matching.

Every workload runs both phases so every end-to-end metric exists on
each: the score workloads run phase two on the scores they produce, and
select-100k scores a small mixed corpus between its phase-two commands.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("score-latin", "score-mixed", "select-100k")
CHILD_TIMEOUT_S = 165
MIXED_ORACLE_DOCS = 100


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy

    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "HKS_NO_JIT": os.environ.get("HKS_NO_JIT"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    return None


def generate(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Writes the inputs; returns (params for workload.py, input record)."""
    import gen

    inputs = work / "inputs"
    params = {}
    if workload == "score-latin":
        info = gen.score_latin(inputs, seed)
        # One iteration takes about as long as a run; two give every
        # score-latin metric at least two samples.
        params["min_iterations"] = 2
    elif workload == "score-mixed":
        info = gen.score_mixed(inputs, seed)
        params["min_iterations"] = 1
    else:
        info = gen.select_records(inputs / "select", seed)
        small = gen.score_mixed(inputs / "small", seed, surfaces=2_000,
                                docs=150)
        params = {"scores": str(inputs / "select" / "scores"),
                  "tokens": info["tokens"]}
        info = {"select": info, "small": small}
        inputs = inputs / "small"
    corpus = inputs / "shards"
    params.update(pool=str(inputs / "pool.tsv"),
                  corpus=str(corpus / "*.jsonl"),
                  corpus_bytes=sum(p.stat().st_size
                                   for p in corpus.glob("*.jsonl")),
                  probe="select_topk" if workload == "select-100k"
                  else "score")
    return params, info


def check(workload: str, seed: int, params: dict, result: dict) -> dict:
    """Failures keyed by "<index>:<command>"; empty lists pass."""
    import checks

    fails: dict[str, list[str]] = {}
    docs = checks.read_corpus(params["corpus"])
    pool = checks.read_pool(Path(params["pool"]))
    if workload != "score-latin":
        oracle = checks.oracle_counts(docs, pool, sorted(random.Random(
            seed).sample(range(len(docs)), min(MIXED_ORACLE_DOCS, len(docs)))))
    first = []

    def check_scores(score_dir: Path) -> list[str]:
        scores = checks.Scores(score_dir)
        if workload == "score-latin":
            f = checks.latin_counts(scores, docs, pool)
        else:
            f = checks.sampled_counts(scores, oracle)
        first[:] = first or scores.shards
        for a, b in zip(first, scores.shards):
            f += checks.same_bytes(a, b)
        return f

    for k, score_dir in enumerate(map(Path, result["done"]["scores"])):
        fails[f"{k}:score"] = checks.guarded(check_scores, score_dir)
        fails[f"{k}:resume"] = checks.guarded(
            checks.same_bytes, score_dir / "manifest.fresh.json",
            score_dir / "manifest.json")
    parsed: dict[str, checks.Scores | str] = {}
    for k, (score_dir, out) in enumerate(result["done"]["phase_two"]):
        if score_dir not in parsed:
            try:
                parsed[score_dir] = checks.Scores(Path(score_dir))
            except (OSError, ValueError, KeyError) as exc:
                parsed[score_dir] = f"unreadable scores {score_dir}: {exc}"
        scores = parsed[score_dir]
        if isinstance(scores, str):
            fails[f"{k}:phase_two"] = [scores]
            continue
        for name, f in checks.phase_two(scores, Path(out)).items():
            fails[f"{k}:{name}"] = f
    return fails


def end_to_end(workload: str, params: dict, result: dict) -> tuple:
    """(metrics, raw): every time rescaled to nominal machine speed (see
    workload.timed), and the same medians unscaled."""
    ops = [op for op in result["ops"] if not op["traced"]]
    setup = result["setup"]
    if workload != "select-100k":
        # A score run's set-up includes the first class_table() call,
        # which the process pays once, before its first set-up.
        first = result["class_table_s"] * result["class_table_speed"]
        setup = [(s + first / v, v) for s, v in setup]

    def medians(scale: bool) -> dict:
        def value(seconds, speed):
            return seconds * speed if scale else seconds

        def times(name):
            return [value(op["seconds"], op["speed"]) for op in ops
                    if op["name"] == name]

        med = statistics.median
        return {
            "setup_s": med(value(s, r) for s, r in setup),
            "score_mb_per_s": params["corpus_bytes"] / 1e6 / med(times("score")),
            "resume_s": med(times("resume")),
            "peak_rss_mb": result["peak_rss_mb"],
            "select_topk_s": med(times("select_topk")),
            "select_sample_s": med(times("select_sample")),
            "select_mix_s": med(times("select_mix")),
            "split_s": med(times("split")),
            "analyze_s": med(h + c for h, c in zip(times("analyze_hist"),
                                                   times("analyze_corr"))),
        }

    units = {"score_mb_per_s": "MB/s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units.get(k, "s")}
               for k, v in medians(True).items()}
    return metrics, medians(False)


def per_layer(result: dict) -> dict:
    import spans

    return {k: {"value": v, "unit": spans.PER_LAYER[k][0]}
            for k, v in result["per_layer"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hks" / "cli.py").is_file():
        return _fail(f"no hks sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "helpers.py").is_file():
        return _fail(f"no oracle module {ROOT / 'tests' / 'helpers.py'}")
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

    work = Path(".perfbench") / "work" / args.workload
    results = Path(".perfbench") / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        t0 = time.perf_counter()
        params, inputs = generate(args.workload, args.seed, work)
        gen_s = time.perf_counter() - t0
        (work / "params.json").write_text(json.dumps(params), "utf-8")

        env = {k: v for k, v in os.environ.items() if k != "HKS_WORKERS"}
        env["PYTHONHASHSEED"] = "0"  # same dict and set layout every run
        cmd = [sys.executable, str(BENCH / "workload.py"),
               "--workload", args.workload, "--params", str(work / "params.json"),
               "--work", str(work), "--seconds", str(args.seconds),
               "--seed", str(args.seed), "--trace", str(args.trace),
               "--out", str(stem) + ".child.json"]
        try:
            proc = subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return _fail(f"workload process exceeded {CHILD_TIMEOUT_S}s")
        if proc.returncode != 0:
            return _fail(f"workload process exited with {proc.returncode}")
        result = json.loads(Path(str(stem) + ".child.json").read_text("utf-8"))

        t1 = time.perf_counter()
        fails = check(args.workload, args.seed, params, result)
        check_s = time.perf_counter() - t1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    rc_failed = [op for op in ops if op["rc"] != 0]
    check_failed = {k: v[:5] for k, v in fails.items() if v}
    attempted = len(ops)
    failed = min(attempted, len(rc_failed) + len(check_failed))
    if args.trace:
        metrics, raw = per_layer(result), None
    else:
        metrics, raw = end_to_end(args.workload, params, result)
    speeds = [op["speed"] for op in ops]
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "inputs": inputs, "generate_s": gen_s, "check_s": check_s,
        "checks_run": len(fails), "check_failures": check_failed,
        "command_failures": [{"name": op["name"], "rc": op["rc"]}
                             for op in rc_failed],
        "ops": [{"name": op["name"], "seconds": op["seconds"],
                 "speed": op["speed"], "traced": op["traced"]}
                for op in ops],
        "setup_samples": result["setup"],
        "unscaled_medians": raw,
        "speed": {"median": statistics.median(speeds),
                  "min": min(speeds), "max": max(speeds)},
        "class_table_s": result["class_table_s"],
        "spans": result.get("spans"),
    }
    if args.trace:
        import spans
        details["feeds"] = {k: v[1] for k, v in spans.PER_LAYER.items()}
    line = {"correct": failed == 0 and bool(fails), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    Path(str(stem) + ".json").write_text(
        json.dumps({"details": details, **line}, indent=1), "utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
