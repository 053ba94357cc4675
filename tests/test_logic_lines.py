"""The logic-line count of ``tests/logic_lines.py`` on a small fixture."""

import logic_lines

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Method docstring
        over two lines.
        """
        "a string after the first statement is code"
        return os.sep


def function():
    x = """a string value,
    not a docstring"""
    return x
'''


def test_counts_all_but_blank_comment_and_docstring_lines():
    # import, class, size, def, string, return, def, x (two lines), return
    assert logic_lines.logic_lines(FIXTURE) == 10


def test_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert logic_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 10\ntotal 11\n"
