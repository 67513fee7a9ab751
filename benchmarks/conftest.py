"""Pytest configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation at
a CI-friendly scale and prints the corresponding rows/series.  Learned models
are trained once per pytest session (the model zoo in
:mod:`repro.harness.models` caches them by ``(kind, steps, seed)``), so the
bulk of each benchmark's time is the experiment itself, not training.

Scale knobs live in :mod:`benchconfig` and can be overridden through the
``REPRO_BENCH_*`` environment variables.

The test suite's directory goes on the end of the import path, so a
benchmark can time the scalar certification oracle in ``tests/oracle``
against the production engine.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def pytest_configure(config):
    """Make the regenerated tables visible in the benchmark run's output.

    The project-level addopts keep output capture on for the unit-test suite;
    benchmarks exist to *print* the rows/series the paper reports, so capture
    is turned off whenever this directory's conftest is loaded.
    """
    capture_manager = config.pluginmanager.getplugin("capturemanager")
    if capture_manager is not None and config.option.capture != "no":
        config.option.capture = "no"
        capture_manager.stop_global_capturing()
        capture_manager._method = "no"
        capture_manager.start_global_capturing()
