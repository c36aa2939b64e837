"""`tools/identity.py --compare` names every output added, removed or
changed between two hash maps, and exits 1 on any."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def compare(tmp_path, old: dict, new: dict) -> tuple[int, list[str]]:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(old), encoding="utf-8")
    b.write_text(json.dumps(new), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def test_identical_maps_pass(tmp_path):
    assert compare(tmp_path, {"x/a": "1", "b": "2"}, {"b": "2", "x/a": "1"}) == \
        (0, ["2 outputs identical"])


def test_every_difference_is_listed(tmp_path):
    assert compare(tmp_path, {"kept": "1", "gone": "2", "edited": "3"},
                   {"kept": "1", "edited": "4", "new": "5"}) == \
        (1, ["added new", "removed gone", "changed edited"])
