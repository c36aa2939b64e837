"""Every hks name the benchmark's tracer wraps still exists.

perfbench/spans.py wraps functions with `self._patch(owner, "name", ...)`
and silently skips a name its owner lacks, so a renamed function would
only lose its span. This reads the calls from the source and checks
each target on its hks owner.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def patch_targets() -> list[tuple[str, str]]:
    """(owner, name) of every `_patch` call, with aliases such as
    `pipe, match, sel = hks.pipeline, ...` expanded and a name taken
    from a `for fn in ("a", "b")` loop expanded to each element."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}
    loop_names: dict[int, list[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)):
            for alias, value in zip(node.targets[0].elts, node.value.elts):
                if _dotted(value):
                    aliases[alias.id] = _dotted(value)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for call in ast.walk(node):
                loop_names[id(call)] = [e.value for e in node.iter.elts]
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch"):
            owner = _dotted(node.args[0])
            name = node.args[1]
            names = ([name.value] if isinstance(name, ast.Constant)
                     else loop_names[id(node)])
            targets += [(aliases.get(owner, owner), n) for n in names]
    return targets


def _resolve(dotted: str):
    module, _, attr = dotted.partition(".")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = (getattr(obj, part) if hasattr(obj, part) else
               importlib.import_module(f"{obj.__name__}.{part}"))
    return obj


def test_spans_patches_some_targets_of_every_layer():
    owners = {owner for owner, _ in patch_targets()}
    assert {"hks.pipeline", "hks.matcher", "hks.selection",
            "hks.metrics.ScoreRecord"} <= owners


@pytest.mark.parametrize("owner, name", patch_targets())
def test_patch_target_exists(owner, name):
    obj = _resolve(owner)
    # _patch reads a class's own __dict__, a module's attributes.
    found = (name in vars(obj) if isinstance(obj, type)
             else getattr(obj, name, None) is not None)
    assert found, f"perfbench/spans.py wraps {owner}.{name}, which is gone"
