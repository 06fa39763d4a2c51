"""The package namespace: every public name resolves lazily to the object its
submodule binds at the time of access."""

import importlib
import subprocess
import sys

import pytest

import stormer_kit
from stormer_kit import linalg


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_public_name_is_its_submodules_object():
    # no name is listed under two submodules
    assert len(stormer_kit.__all__) == sum(map(len, stormer_kit._EXPORTS.values()))
    for module_name, names in stormer_kit._EXPORTS.items():
        module = importlib.import_module(f"stormer_kit.{module_name}")
        for name in names:
            assert getattr(stormer_kit, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(stormer_kit.__all__) <= set(dir(stormer_kit))


def test_star_import_in_a_fresh_process():
    out = _fresh(
        "from stormer_kit import *\n"
        "import stormer_kit\n"
        "g = globals()\n"
        "print(all(g[n] is getattr(stormer_kit, n) for n in stormer_kit.__all__))\n"
    )
    assert out.split() == ["True"]


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="stormer_kit"):
        stormer_kit.no_such_name  # noqa: B018
    assert not hasattr(stormer_kit, "no_such_name")


def test_submodule_resolves_before_any_other_access():
    out = _fresh(
        "import sys, stormer_kit\n"
        "print('stormer_kit.sampling' in sys.modules)\n"
        "print(stormer_kit.sampling is sys.modules['stormer_kit.sampling'])\n"
    )
    assert out.split() == ["False", "True"]


def test_package_names_follow_a_patched_submodule(monkeypatch):
    original = linalg.is_psd

    def patched(m, tol=None):
        return True

    monkeypatch.setattr(linalg, "is_psd", patched)
    assert stormer_kit.is_psd is patched
    monkeypatch.undo()
    assert stormer_kit.is_psd is original
