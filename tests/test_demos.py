import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports(path):
    # Each demo runs only under its __main__ guard, so importing it checks
    # that every name it uses from the package still exists.
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_every_demo_is_collected():
    assert {p.stem for p in DEMOS} >= {
        "benchmark_small", "fractional_orders", "rank_walkthrough",
    }
