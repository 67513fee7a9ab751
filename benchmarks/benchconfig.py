"""Scale knobs and helpers shared by every benchmark.

Kept separate from ``conftest.py`` so benchmark modules can import it by name
without colliding with the test suite's own conftest module.
"""

from __future__ import annotations

import os
import time

#: Environment-step budget used to train every learned model in benchmarks.
TRAINING_STEPS = int(os.environ.get("REPRO_BENCH_TRAINING_STEPS", "800"))

#: Emulated run length (seconds) for per-trace evaluations.
DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "10.0"))

#: QC components used when *evaluating* certificates (the paper uses 50).
EVAL_COMPONENTS = int(os.environ.get("REPRO_BENCH_EVAL_COMPONENTS", "30"))

#: Number of synthetic / cellular traces sampled per sweep.
N_SYNTHETIC = int(os.environ.get("REPRO_BENCH_N_SYNTHETIC", "3"))
N_CELLULAR = int(os.environ.get("REPRO_BENCH_N_CELLULAR", "2"))

#: Worker processes for grid experiments (1 = serial; 0 = one per CPU).
#: Serial and parallel runs produce identical rows, so this is purely a
#: wall-clock knob.
N_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Seed shared by all benchmarks so models are trained exactly once per session.
SEED = 17


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The measured wall-clock — and, when the driver reports them, the grid
    sharding stats and certificates/sec — are stamped into the benchmark's
    ``extra_info`` so they land in the bench JSON (``--benchmark-json``).
    """
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    benchmark.extra_info["wall_clock_s"] = time.perf_counter() - start
    if isinstance(result, dict):
        for key in ("n_jobs", "certificates", "certificates_per_sec",
                    "ticks", "ticks_per_sec"):
            if key in result:
                benchmark.extra_info[key] = result[key]
        if "wall_clock_s" in result:
            benchmark.extra_info["grid_wall_clock_s"] = result["wall_clock_s"]
    return result
