"""One workload run in a fresh process: drives `hks.cli.main(argv)` one
command at a time (a closed loop, one client) and times each command.

Started by run.py with the generated inputs already on disk; writes its
timings (and, traced, its spans and per-layer metrics) to --out. Output
checks happen in run.py after this process has exited, so they add
nothing to the timings or to this process's peak RSS.

Each iteration of a score workload scores the corpus into a fresh
directory, reruns the same command so that every shard resumes, runs
phase two on the scores it produced, measures set-up and runs phase two
again. select-100k measures set-up, runs phase two on 100k generated
records with a small score and resume after each command, and measures
set-up again. A run repeats iterations until --seconds have passed, at
least once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import hks.cli  # noqa: E402
from hks.matcher import build_automaton  # noqa: E402
from hks.metrics import ScoreRecord  # noqa: E402
from hks.pipeline import load_score_records  # noqa: E402
from hks.pool import load_pool  # noqa: E402
from hks.textnorm import class_table  # noqa: E402

import spans  # noqa: E402

# Token budgets as shares of the scored corpus. The split budget stays
# inside the nonzero-score head of every workload (about 15% of the
# score-latin tokens match), so both mix strata are non-empty.
TOPK_SHARE = 0.25
SPLIT_SHARE = 0.05
MIX_SHARE = 0.04
MIX_ALPHA = "0.75"
TAU = "2"


# Machine speed. On a shared machine the speed of this process's CPU
# changes by up to 2x for seconds at a time. A fixed reference task is
# timed before and after every measured step and, every PROBE_PERIOD_S
# during it, from a timer signal; each step's seconds are rescaled to
# the speed at which one unit of the task takes NOMINAL_UNIT_S. The task
# mixes JSON round trips of a score record with numpy element reads,
# which track the slowdowns of phase two and of the pure-Python scan
# closely. The task's own time inside a step is subtracted from the step.
NOMINAL_UNIT_S = 0.0016
EDGE_UNITS = 4
PROBE_PERIOD_S = 0.25
_REF_RECORD = json.dumps({
    "id": "r00c0ffee42-17", "n_p": 321, "n_k": 5, "n_distinct": 4,
    "d": 0.0155, "c": 8.0e-05, "hks": 1.24e-06, "meta": {"subset": "web"},
    "domains": {m: {"n": 1, "distinct": 1, "d": 0.003, "c": 1.6e-05,
                    "score": 5.0e-08}
                for m in ("science", "society", "culture", "art", "life")}})
_REF_ARRAY = np.arange(4096, dtype=np.int32)


def _reference(units: int) -> tuple[float, float]:
    """(speed relative to nominal, seconds spent) for `units` of the task."""
    t0 = time.perf_counter()
    for i in range(30 * units):
        obj = json.loads(_REF_RECORD)
        obj["k"] = str(i)
        json.dumps(obj, sort_keys=True)
    acc = 0
    for i in range(3000 * units):
        acc += int(_REF_ARRAY[i & 4095]) & 7
    spent = time.perf_counter() - t0
    return NOMINAL_UNIT_S * units / spent, spent


def timed(fn, probe: bool = True) -> tuple[float, float, object]:
    """(seconds, mean relative speed during them, result).

    The heap is collected first so each step starts as it would in a
    fresh process rather than paying for the garbage of earlier steps.
    Seconds times speed is the step's time at nominal speed.
    """
    gc.collect()
    speeds = [_reference(EDGE_UNITS)[0]]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        speed, s = _reference(1)
        speeds.append(speed)
        spent += s

    if probe:
        old = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        seconds = time.perf_counter() - t0
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    speeds.append(_reference(EDGE_UNITS)[0])
    return seconds - spent, sum(speeds) / len(speeds), result


class Runner:
    """Runs CLI commands and records (name, seconds, exit code)."""

    def __init__(self, probe: bool):
        self.ops: list[dict] = []
        self.tracer: spans.Tracer | None = None
        # Traced runs sample speed at the edges only, so that the timer
        # signal does not land inside spans; the untraced probe command
        # of a traced run is measured the same way.
        self.probe = probe

    def __call__(self, name: str, argv: list[str]) -> None:
        argv = ["-q", *[str(a) for a in argv]]
        span = None

        def call():
            nonlocal span
            with contextlib.ExitStack() as stack:
                if self.tracer is not None:
                    span = stack.enter_context(self.tracer.command_span(name))
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        return hks.cli.main(argv)
                except Exception as exc:  # a crash is a failed operation
                    return f"{type(exc).__name__}: {exc}"

        seconds, speed, rc = timed(call, probe=self.probe)
        self.ops.append({"name": name, "seconds": seconds, "speed": speed,
                         "rc": rc, "argv": argv, "traced": span is not None,
                         "span": span})


def _tokens(scores: Path) -> int:
    """Tokens in a scoring run's output; 0 when the run wrote none (its
    failure is already counted, and phase two then fails on it too)."""
    if not (scores / "manifest.json").is_file():
        return 0
    manifest = json.loads((scores / "manifest.json").read_text("utf-8"))
    total = 0
    for shard in manifest["shards"]:
        with open(scores / shard["output"], encoding="utf-8") as f:
            total += sum(json.loads(line)["n_p"] for line in f if line.strip())
    return total


def phase_two(run: Runner, scores: Path, out: Path, tokens: int,
              seed: int, between=lambda: None) -> None:
    """topk, sample twice with one seed, mix, split, hist and corr;
    `between` runs after each command."""
    def budget(share):
        return max(1, int(tokens * share))

    sel = ["select", "--scores", scores, "--seed", seed]
    commands = [
        ("select_topk", [*sel, "--out", out / "topk", "--strategy", "topk",
                         "--budget-tokens", budget(TOPK_SHARE)]),
        *[("select_sample", [*sel, "--out", out / f"sample-{tag}",
                             "--strategy", "sample", "--tau", TAU,
                             "--budget-tokens", budget(TOPK_SHARE)])
          for tag in ("a", "b")],
        ("select_mix", [*sel, "--out", out / "mix", "--strategy", "mix",
                        "--alpha", MIX_ALPHA,
                        "--budget-tokens", budget(MIX_SHARE),
                        "--split-budget-tokens", budget(SPLIT_SHARE)]),
        ("split", ["split", "--scores", scores, "--out", out / "split",
                   "--budget-tokens", budget(SPLIT_SHARE)]),
        ("analyze_hist", ["analyze", "hist", "--scores", scores,
                          "--metric", "hks", "--group-by", "subset",
                          "--out", out / "hist.csv"]),
        ("analyze_corr", ["analyze", "corr", "--scores", scores,
                          "--columns", "d,c,hks", "--out", out / "corr.json"]),
    ]
    for name, argv in commands:
        run(name, argv)
        between()


def score_cmd(pool: str, corpus: str, out: Path) -> list:
    return ["score", "--pool", pool, "--corpus", corpus, "--out", out,
            "--workers", "1"]


def _setup_score(params: dict) -> tuple:
    return timed(lambda: build_automaton(load_pool(params["pool"])))[:2]


def _setup_select(params: dict) -> tuple:
    return timed(lambda: load_score_records(params["scores"]))[:2]


def keep_fresh_manifest(scores: Path) -> None:
    """Copied so run.py can check that the resumed manifest is unchanged."""
    if (scores / "manifest.json").is_file():
        shutil.copyfile(scores / "manifest.json",
                        scores / "manifest.fresh.json")


def score_workload(run: Runner, params: dict, work: Path, seconds: float,
                   seed: int, setup: list, traced: bool) -> dict:
    """Iterations of [score, phase two, resume, phase two, set-up, phase
    two]: the short phase-two commands are sampled between the long steps
    rather than in one burst."""
    done = {"scores": [], "phase_two": []}
    t_start = time.perf_counter()
    while (len(done["scores"]) < params["min_iterations"]
           or time.perf_counter() - t_start < seconds):
        i = len(done["scores"])
        scores = work / f"scores-{i}"
        argv = score_cmd(params["pool"], params["corpus"], scores)

        def measure_setup():
            if not traced:
                setup.append(_setup_score(params))

        steps = [lambda: run("score", argv), lambda: run("resume", argv),
                 measure_setup]
        for r, step in enumerate(steps):
            step()
            if r == 0:
                keep_fresh_manifest(scores)
                tokens = _tokens(scores)
            out = work / f"p2-{i}-{r}"
            phase_two(run, scores, out, tokens, seed)
            done["phase_two"].append((str(scores), str(out)))
        done["scores"].append(str(scores))
    return done


def select_workload(run: Runner, params: dict, work: Path, seconds: float,
                    seed: int, setup: list, traced: bool) -> dict:
    """[set-up, phase two, set-up] with a small score and resume after
    each phase-two command, so those short commands are sampled across
    the run."""
    done = {"scores": [], "phase_two": []}

    def small():
        out = work / f"small-{len(done['scores'])}"
        argv = score_cmd(params["pool"], params["corpus"], out)
        run("score", argv)
        keep_fresh_manifest(out)
        run("resume", argv)
        done["scores"].append(str(out))

    t_start = time.perf_counter()
    small()
    while not done["phase_two"] or time.perf_counter() - t_start < seconds:
        out = work / f"p2-{len(done['phase_two'])}"
        if not traced:
            setup.append(_setup_select(params))
        phase_two(run, Path(params["scores"]), out, params["tokens"], seed,
                  between=small)
        if not traced:
            setup.append(_setup_select(params))
        done["phase_two"].append((params["scores"], str(out)))
    return done


def record_kb(scores: Path, limit: int = 20_000) -> float:
    """tracemalloc bytes per ScoreRecord parsed from one score shard."""
    manifest = json.loads((scores / "manifest.json").read_text("utf-8"))
    with open(scores / manifest["shards"][0]["output"], encoding="utf-8") as f:
        lines = [line for _, line in zip(range(limit), f)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        records = [ScoreRecord.from_json(line) for line in lines]
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / len(records) / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--params", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    params = json.loads(Path(args.params).read_text("utf-8"))
    work = Path(args.work)
    body = select_workload if args.workload == "select-100k" else score_workload

    class_table_s, class_table_speed, _ = timed(class_table)

    run = Runner(probe=not args.trace)
    setup: list[float] = []
    result = {"class_table_s": class_table_s,
              "class_table_speed": class_table_speed}
    if not args.trace:
        result["done"] = body(run, params, work, args.seconds, args.seed,
                              setup, traced=False)
    else:
        # Probe: the command named in params, untraced, then the whole
        # loop traced; overhead is traced over untraced probe time, both
        # at nominal speed.
        probe = params["probe"]
        probe_dir = work / "probe"
        if probe == "score":
            run("score", score_cmd(params["pool"], params["corpus"],
                                   probe_dir))
        else:
            run("select_topk", ["select", "--scores", params["scores"],
                                "--out", probe_dir, "--strategy", "topk",
                                "--budget-tokens",
                                max(1, int(params["tokens"] * TOPK_SHARE))])
        untraced = run.ops[-1]["seconds"] * run.ops[-1]["speed"]
        tracer = spans.Tracer()
        run.tracer = tracer
        tracer.install()
        try:
            result["done"] = body(run, params, work, args.seconds,
                                  args.seed, setup, traced=True)
        finally:
            tracer.uninstall()
            run.tracer = None
        traced_ops = [op for op in run.ops if op["traced"]]
        probes = [op["seconds"] * op["speed"] for op in traced_ops
                  if op["name"] == probe]
        extra = {
            "class_table_s": class_table_s,
            "record_kb": record_kb(Path(result["done"]["phase_two"][0][0])),
            "overhead_ratio": (sorted(probes)[len(probes) // 2] / untraced
                               if probes and untraced > 0 else 0.0),
        }
        recorded = tracer.all_spans()
        spans.write_spans(Path(args.out).with_suffix(".spans.jsonl"), recorded,
                          {op["span"]: op["name"] for op in traced_ops})
        result["per_layer"] = spans.layer_metrics(recorded, traced_ops, extra)
        result["spans"] = len(recorded)
    result["setup"] = setup
    result["ops"] = run.ops
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    Path(args.out).write_text(json.dumps(result, default=str), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
