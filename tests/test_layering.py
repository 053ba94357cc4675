"""Only ``algebra`` knows how a value stores its terms.

Products go through ``algebra``'s multiply-accumulate kernel, and a sum of
products through ``algebra.sum_of_products``; the tree-sum engine's
plain-number seam reads a value's term map in ``trees._split`` alone.  This
test reads the package's source with ``ast`` and names every place that
reaches past that line.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "diffeorules"

# Names of ``algebra``'s term-map internals that no other module may use.
PRIVATE = {"mul_into", "merge_terms", "_adopt"}
# (module, function) pairs that may read a ``.terms`` attribute outside
# ``algebra``.
TERM_READERS = {("trees", "_split")}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _private_names(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of every import, name and attribute of ``tree``
    that is one of :data:`PRIVATE`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in PRIVATE]
        elif isinstance(node, ast.Name) and node.id in PRIVATE:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE:
            found.append((node.lineno, node.attr))
    return sorted(found)


def _term_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, enclosing function)`` of every ``.terms`` read in
    ``tree``; the function is the innermost named one, ``""`` at module
    level."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "terms" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def test_the_package_is_read():
    modules = _modules()
    assert {"algebra", "rules", "series", "trees", "verify", "cli"} <= set(modules)


@pytest.mark.parametrize("module", sorted(set(_modules()) - {"algebra"}))
def test_only_algebra_names_its_term_map_internals(module):
    assert _private_names(_modules()[module]) == []


@pytest.mark.parametrize("module", sorted(set(_modules()) - {"algebra"}))
def test_only_the_engine_seam_reads_term_maps(module):
    reads = [(line, fn) for line, fn in _term_reads(_modules()[module]) if (module, fn) not in TERM_READERS]
    assert reads == []


def test_the_checks_see_what_they_look_for():
    source = (
        "from .algebra import mul_into\n"
        "def f(x):\n"
        "    return algebra._adopt(x.poly.terms)\n"
        "def _split(value):\n"
        "    return value.poly.terms\n"
    )
    tree = ast.parse(source)
    assert _private_names(tree) == [(1, "mul_into"), (3, "_adopt")]
    assert _term_reads(tree) == [(3, "f"), (5, "_split")]
