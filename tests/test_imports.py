"""Every name a module of the hks package imports is used there.

Each `src/hks/*.py` but `__init__.py` (whose imports are the package's
exports) is parsed with `ast`; a name an import binds must be read
somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hks"

# Imported and never called, kept because perfbench/spans.py wraps each
# on its module by name and tests/test_perfbench_targets.py requires
# every name it wraps to exist. Each can go with its wrapper.
KEPT = {"pipeline.py": {"annotate", "score_record"},
        "matcher.py": {"token_count_from_classes"}}


def unused_imports(path: Path) -> set[str]:
    """The names that imports in the module at `path` bind and that no
    other statement of it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).partition(".")[0]
                            for alias in node.names)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize("name", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "__init__.py"))
def test_every_import_is_used(name):
    assert unused_imports(SRC / name) == KEPT.get(name, set())
