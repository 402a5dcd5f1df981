"""No public API that only its own unit tests use, and no unused helper.

Every top-level function and class of `orbitlat`, and every method of a
top-level class, public or private, must be referenced somewhere in the
package or in `benchmarks/` outside its own definition: as a name, as an
attribute, or in an import.  Tests do not count as callers.  Dunder methods
are left out, because Python calls them by protocol.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitlat"
CALLER_DIRS = (PACKAGE, ROOT / "benchmarks")


def _references(tree) -> Counter:
    """Every name that `tree` reads, looks up as an attribute or imports."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.name.rsplit(".", 1)[-1]] += 1
    return out


def _definitions(tree, private: bool):
    """(qualified name, name, node) of each top-level function and class,
    and of each method of a top-level class, whose name is private (starts
    with "_") or public as `private` says; dunder names are skipped."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def wanted(name):
        return name.startswith("_") == private and not name.startswith("__")

    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if wanted(node.name):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and wanted(item.name):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused(private: bool) -> list[str]:
    used = Counter()
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            used += _references(_parse(path))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node in _definitions(_parse(path), private):
            if used[name] - _references(node)[name] <= 0:
                unused.append("%s:%s" % (path.stem, qualified))
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    unused = _unused(private=False)
    assert unused == [], "public names with no caller outside tests: %s" % unused


def test_every_private_name_has_a_caller_outside_tests():
    unused = _unused(private=True)
    assert unused == [], "private names with no caller outside tests: %s" % unused
