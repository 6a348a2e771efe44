import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigencoint


def test_public_names_resolve_and_are_listed_once():
    names = eigencoint.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(eigencoint, name)] == []


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this package's source."""
    src = str(Path(eigencoint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_bare_import_loads_no_numpy_and_no_submodule_but_errors():
    loaded = run_python(
        "import sys, eigencoint; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'eigencoint')))"
    )
    assert loaded.split() == ["eigencoint", "eigencoint.errors"]


def test_public_names_are_their_submodules_objects():
    for module, names in eigencoint._EXPORTS.items():
        owner = importlib.import_module(f"eigencoint.{module}")
        assert [name for name in names if getattr(eigencoint, name) is not getattr(owner, name)] == []


def test_submodules_resolve_after_a_bare_import():
    modules = ["linalg", "covstack", "ranksel", "subspace", "simgen", "baselines", "harness",
               "errors"]
    code = f"import eigencoint; print(*[getattr(eigencoint, m).__name__ for m in {modules}])"
    assert run_python(code).split() == [f"eigencoint.{m}" for m in modules]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eigencoint import *", namespace)
    assert [name for name in eigencoint.__all__ if name not in namespace] == []


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        eigencoint.no_such_name
    assert "harness" in dir(eigencoint) and "run_plan" in dir(eigencoint)
