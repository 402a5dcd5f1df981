"""No public API that only its own unit tests use.

Every public top-level function and class of `orbitlat`, and every public
method of a top-level class, must be referenced somewhere in the package or
in `benchmarks/` outside its own definition: as a name, as an attribute, or
in an import.  Tests do not count as callers.
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


def _definitions(tree):
    """(qualified name, name, node) of each public top-level function and
    class, and of each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_caller_outside_tests():
    used = Counter()
    for directory in CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            used += _references(_parse(path))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, node in _definitions(_parse(path)):
            if used[name] - _references(node)[name] <= 0:
                unused.append("%s:%s" % (path.stem, qualified))
    assert unused == [], "public names with no caller outside tests: %s" % unused
