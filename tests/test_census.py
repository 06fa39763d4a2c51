"""``scripts/census.py``: the statements inside function bodies that a
traffic never runs, read off a line tracer."""

import importlib.util

from helpers import load_script

census = load_script("census")

SOURCE = '''"""Module docstring."""

LIMIT = 3


def f(x):
    """Function docstring."""
    if x > LIMIT:
        return "big"
    y = [
        x,
    ]
    for _ in y:
        pass
    return y


def g():
    try:
        return 1
    except ValueError:
        return 2


class C:
    def h(self):
        return 0
'''


def toy_package(tmp_path):
    """A package directory holding the toy module, and a traffic that imports
    it and calls ``f(1)`` and ``g()``."""
    src = tmp_path.resolve() / "src"
    src.mkdir()
    path = src / "toy.py"
    path.write_text(SOURCE)

    def drive():
        spec = importlib.util.spec_from_file_location("census_toy", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.f(1)
        module.g()

    return src, path, drive


def test_lists_exactly_the_statements_the_traffic_skips(tmp_path):
    src, path, drive = toy_package(tmp_path)
    # return "big", the except branch's return, and the method's body
    assert census.unrun(src, drive) == {path: [9, 22, 27]}


def test_prints_each_module_with_its_lines_as_ranges(tmp_path, monkeypatch, capsys):
    src, path, drive = toy_package(tmp_path)
    (src / "full.py").write_text("def k():\n    a = 1\n    b = 2\n    return a + b\n")
    monkeypatch.setattr(census, "SRC", src)
    monkeypatch.setattr(census, "traffic", drive)
    census.main()
    assert capsys.readouterr().out.splitlines() == [
        "     3  full.py  2-4",
        "     3  toy.py  9, 22, 27",
        "     6  total",
    ]
