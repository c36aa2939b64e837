"""Output bytes of a small fixed run, pinned by sha256.

Scores a fixed pool and two-shard corpus, with default flags and with
`--no-domains --no-boundary`, then runs a top-k, a sample and a mix
selection and a threshold split, all with paths relative to the run
directory. The pins cover the files whose bytes hks defines alone: score
shards, column files, each `selected.jsonl` and the split's `high.jsonl`
and `low.jsonl`. The manifest (which records paths) and the outputs whose
floats come from numpy (`hist.csv`, `corr.json`) are left out. A change
that alters these bytes on purpose updates the pins and says why.
"""

import hashlib
import json

from hks.cli import main

POOL = """\
machine learning\tscience
neural network\tscience
quantum\tscience
democracy\tsociety
election\tsociety
festival\tculture
東京\tculture
jazz\tart\ttitle_keyword
café\tart
gardening\tlife
cooking\tlife
"""

SHARDS = [
    [{"id": "a-1", "text": "Machine learning and neural network models "
                           "learn; machine learning again.",
      "meta": {"subset": "web"}},
     {"id": "a-2", "text": "A jazz festival in 東京 with café music.",
      "meta": {"subset": "book"}},
     {"id": "a-3", "text": "nothing to match in this line at all"},
     {"id": "a-4", "text": "Cooking, gardening and cooking: quantum "
                           "cooking?", "meta": {"subset": "web"}},
     {"id": "a-5", "text": "   "}],
    [{"id": "b-1", "text": "The election tested democracy; democracy won "
                           "the election.", "meta": {"subset": "news"}},
     {"id": "b-2", "text": "jazz jazz jazz", "meta": None},
     {"id": "b-3", "text": "CAFÉ culture and a Festival of quantum jazz "
                           "in 東京.", "meta": {"subset": "book", "year": 2}},
     {"id": "b-4", "text": "neural networks are not a neural network"}],
]

PINNED = {
    "scores/scores-00000.jsonl":
        "e82606ea019b204139110b3f41e206633998f786c45e885164d206428c607404",
    "scores/scores-00000.columns.json":
        "84c11c604073df6edce49ac9c0ab046279d889485697aef386498d7b3a72a30a",
    "scores/scores-00001.jsonl":
        "d057156788d4d15a2838b85a506076ff23d9af34ab5fbb40d522dc9e05785e50",
    "scores/scores-00001.columns.json":
        "c32207830d102f7199335087a3b2e7d59023f81e8be26fad5af49d4209214c82",
    "sel/selected.jsonl":
        "c7dab7bc61df38e553ca8de18e6d08487dd3170590f62299838ac86a26fbd0db",
    "split/high.jsonl":
        "a8ceec0f63c9a0c1e1ec5313d2404da7734d98ec6802adaf63367ae630af4481",
    "split/low.jsonl":
        "8acbb8102abb43a6858b65ae2fa502cb0e8233232f4695b7dd273add62b1d887",
    "bare/scores-00000.jsonl":
        "1237c2d19c0ca3fef9d9c229edb22d90b46315cce758440ecd3f12e0b9a34794",
    "bare/scores-00000.columns.json":
        "396531122c437eca07ddca1ea243aae71b7324b25a27cd3bf6852499db6fd2b3",
    "bare/scores-00001.jsonl":
        "ff4e09487f1acdfd4e8bb84e0b411c8358c10d0c80229f795b8a4b7d2254195f",
    "bare/scores-00001.columns.json":
        "8af913acab90982e2552f54e03207a4f63950ece7779dfeec53db8b277b0f68d",
    "sample/selected.jsonl":
        "95013cacc330798a74aba04adca88ff36ad7d99c97550b449f012edc5c264e3b",
    "mix/selected.jsonl":
        "8641bee6cf76c3d439695fe6e988a25129e62a70591bcd6ea39e0795993c2a5b",
}


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pool.tsv").write_text(POOL, encoding="utf-8")
    for i, docs in enumerate(SHARDS):
        (tmp_path / f"corpus-{i}.jsonl").write_text(
            "".join(json.dumps(doc, ensure_ascii=False) + "\n"
                    for doc in docs), encoding="utf-8")
    assert main(["score", "--pool", "pool.tsv", "--corpus", "corpus-*.jsonl",
                 "--out", "scores"]) == 0
    assert main(["select", "--scores", "scores", "--out", "sel",
                 "--strategy", "topk", "--budget-docs", "4"]) == 0
    assert main(["split", "--scores", "scores", "--out", "split",
                 "--budget-tokens", "20"]) == 0
    assert main(["score", "--pool", "pool.tsv", "--corpus", "corpus-*.jsonl",
                 "--out", "bare", "--no-domains", "--no-boundary"]) == 0
    assert main(["select", "--scores", "scores", "--out", "sample",
                 "--strategy", "sample", "--budget-docs", "4",
                 "--seed", "3"]) == 0
    assert main(["select", "--scores", "scores", "--out", "mix",
                 "--strategy", "mix", "--budget-tokens", "30", "--alpha",
                 "0.5", "--split-budget-tokens", "20", "--seed", "3"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED}
    assert got == PINNED
