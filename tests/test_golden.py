"""Output bytes of a small fixed run, pinned by sha256.

Scores a fixed pool and two-shard corpus, then runs a top-k selection
and a threshold split, all with paths relative to the run directory.
The pins cover the files whose bytes hks defines alone: score shards,
column files, `selected.jsonl` and the split's `high.jsonl` and
`low.jsonl`. The manifest (which records paths) and the outputs whose
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
        "2ae8e52bd80c4a394e244d84ebcf01b2398f1187409b9ba28541365a6a52f07b",
    "scores/scores-00001.jsonl":
        "d057156788d4d15a2838b85a506076ff23d9af34ab5fbb40d522dc9e05785e50",
    "scores/scores-00001.columns.json":
        "c4a5611578a95860e540bf72320cf6ef2c34f02102a0f3e299436d6525c63726",
    "sel/selected.jsonl":
        "c7dab7bc61df38e553ca8de18e6d08487dd3170590f62299838ac86a26fbd0db",
    "split/high.jsonl":
        "a8ceec0f63c9a0c1e1ec5313d2404da7734d98ec6802adaf63367ae630af4481",
    "split/low.jsonl":
        "8acbb8102abb43a6858b65ae2fa502cb0e8233232f4695b7dd273add62b1d887",
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
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED}
    assert got == PINNED
