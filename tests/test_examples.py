"""Smoke tests for the examples/ scripts: each runs in-process at a small scale.

The examples call the public library API directly, so running them here
catches an API change that would otherwise break them silently.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args, expected", [
    ("quickstart", (30,), ["Empirical performance", "QC_sat for properties ['P1', 'P2']"]),
    ("classical_schemes_tour", (), ["=== Buffer = 1 BDP ===", "=== Buffer = 5 BDP ===",
                                    "Jain fairness index"]),
    ("runtime_fallback_monitor", (30,), ["Runtime QC monitoring", "fallback_fraction"]),
    ("custom_property", (30,), ["QC feedback before training", "QC feedback after  training"]),
])
def test_example_runs(name, args, expected, capsys):
    load_example(name).main(*args)
    out = capsys.readouterr().out
    for text in expected:
        assert text in out
