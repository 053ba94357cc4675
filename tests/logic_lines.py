"""Count the logic lines of the package: lines that are neither blank, nor a
comment, nor part of a docstring.  This is the size every change record
quotes.

    python tests/logic_lines.py [SRC_DIR]

prints one ``module count`` line per module of ``SRC_DIR`` (default: the
``src/diffeorules`` next to this file), then ``total count``.  A docstring is
the string literal that opens a module, class or function body.
"""

import ast
import pathlib
import sys


def logic_lines(source: str) -> int:
    """Lines of ``source`` that are not blank, not a comment and not part of
    a docstring."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                skipped.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in skipped
    )


def main(argv: list[str]) -> int:
    src = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parent.parent / "src" / "diffeorules"
    counts = {path.stem: logic_lines(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name} {count}")
    print(f"total {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
