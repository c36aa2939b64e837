"""Every name a module of the hks package imports is used there, and
every function, class and method it defines is reached.

Each `src/hks/*.py` but `__init__.py` (whose imports are the package's
exports) is parsed with `ast`; a name an import binds must be read
somewhere in the module. A definition must be read somewhere in src,
exported in `hks.__all__` or listed in UNREAD with its reason.
"""

import ast
from pathlib import Path

import pytest

import hks

SRC = Path(__file__).resolve().parent.parent / "src" / "hks"

# Imported and never called, kept because perfbench/spans.py wraps each
# on its module by name and tests/test_perfbench_targets.py requires
# every name it wraps to exist. Each can go with its wrapper.
KEPT = {"pipeline.py": {"annotate", "score_record"},
        "matcher.py": {"class_table", "token_count_from_classes"}}


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


# Defined in src and read by no name there nor exported, each kept for
# the reason given.
UNREAD = {
    "cli._Parser.error": "argparse calls it",
    "matcher.Automaton.find_matches": "tests check match positions through "
                                      "it against naive_occurrences",
    "metrics.ScoreRecord.from_json": "perfbench/workload.py calls it",
    "pipeline.write_columns": "README documents it as the column writer",
    "pool.KnowledgePool.from_elements": "the acceptance tests build pools "
                                        "with it",
    "textnorm.token_count_from_classes": "perfbench/spans.py wraps it",
}


def definitions() -> tuple[set[str], set[str]]:
    """The top-level functions and classes, and the methods but dunders
    of those classes, defined in `src/hks/*.py`, each as
    module.qualified_name; and those of them that no code there reads (a
    function or class by name or attribute, a method by attribute) and
    `hks.__all__` does not export."""
    defined: dict[str, str] = {}
    names, attributes = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{path.stem}.{node.name}.{item.name}", "." + item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    read = names | attributes | {"." + attr for attr in attributes}
    return set(defined), {qualname for qualname, name in defined.items()
                          if name not in read and name not in hks.__all__}


def test_every_definition_is_reached():
    defined, unread = definitions()
    assert sorted(unread - UNREAD.keys()) == []
    assert sorted(UNREAD.keys() - defined) == []


def test_class_table_is_read_only_through_classes():
    # The table holds each class XOR a sentinel (0xFF), and 0 for a
    # codepoint not met yet, which a raw read would take as WORD | CJK in
    # token_counts and as non-word in the scan: only textnorm's
    # class_table and classes may name it.
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, child.name)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else None)
            if (name in ("class_table", "_class_table")
                    and isinstance(child.ctx, ast.Load)):
                found.append((module, scope))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert set(found) == {("textnorm", "class_table"),
                          ("textnorm", "classes")}, found
