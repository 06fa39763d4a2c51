"""``scripts/code_lines.py``: code lines are physical lines holding a Python
token outside docstrings and comments."""

from helpers import load_script

code_lines = load_script("code_lines")

SOURCE = '''"""Module docstring,
two lines."""

import math  # a comment on a code line

# a comment line


def f(x):
    """Function docstring."""
    s = """a string that is not a docstring,
    on two lines"""
    return (
        math.sqrt(x)
    )


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_code_lines_but_not_docstrings_comments_or_blanks(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    # import, def, the string's two lines, return's three, class, y = 1
    assert code_lines.code_lines(path) == 9


def test_prints_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\n\ny = 2\nz = 3\n')
    monkeypatch.setattr("sys.argv", ["code_lines.py", str(tmp_path)])
    code_lines.main()
    assert capsys.readouterr().out.splitlines() == [
        "     1  pkg/a.py",
        "     2  pkg/b.py",
        "     3  total",
    ]
