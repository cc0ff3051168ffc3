"""Code lines per file, without docstrings, comments or blank lines.

    python benchmarks/code_lines.py                      # src/repro
    python benchmarks/code_lines.py src/repro/shard src/repro/service

Prints one ``<lines>  <path>`` row per Python file under the given paths
(files or directories, searched recursively; default ``src/repro``),
then the total.  A line counts when it holds a token that is not a
comment and does not lie inside a docstring: the module's, a class's or
a function's leading string literal, found with :mod:`ast`.  Comments,
blank lines and line continuations are told apart with :mod:`tokenize`,
so a ``#`` inside a string is code and a string that is not a docstring
counts on every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set, Tuple

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "repro"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """Code lines of one Python source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def python_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def count_paths(paths: Iterable[Path]) -> Tuple[List[Tuple[int, Path]], int]:
    """``([(lines, file), ...], total)`` over every Python file in *paths*."""
    rows = [
        (count_source(path.read_text(encoding="utf-8")), path)
        for path in python_files(paths)
    ]
    return rows, sum(lines for lines, _ in rows)


def main(argv: List[str]) -> int:
    rows, total = count_paths([Path(arg) for arg in argv] or [DEFAULT])
    for lines, path in rows:
        print(f"{lines:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
