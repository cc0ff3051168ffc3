"""The code-line counter (``benchmarks/code_lines.py``) on fixture sources
whose docstring, comment, blank and code lines are known."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

COUNTER = Path(__file__).resolve().parents[2] / "benchmarks" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", COUNTER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    two lines."""

    import os  # a trailing comment leaves the line code

    # A whole-line comment.


    class Thing:
        """Class docstring."""

        def method(self):
            """Method
            docstring
            over three lines."""
            text = """not a docstring:
    it counts on both lines"""
            return text + "# not a comment"


    def f(
        x,
    ):
        return (x +
                1)
    '''
)


def test_fixture_counts_code_lines_only(code_lines):
    # import, class, def method, the two lines of the non-docstring string,
    # return, def f( / x, / ): / return ( / 1) — 11 lines.
    assert code_lines.count_source(SOURCE) == 11


def test_empty_and_comment_only_sources_count_zero(code_lines):
    assert code_lines.count_source("") == 0
    assert code_lines.count_source('"""Only a docstring."""\n# and a comment\n') == 0


def test_files_and_directories_add_up(code_lines, tmp_path, capsys):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "sub" / "b.py").write_text("x = 1\ny = 2\n")
    (package / "notes.txt").write_text("x = 1\n")
    rows, total = code_lines.count_paths([package])
    assert [(n, p.name) for n, p in rows] == [(11, "a.py"), (2, "b.py")]
    assert total == 13
    assert code_lines.main([str(package / "sub" / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["2", "total"]
