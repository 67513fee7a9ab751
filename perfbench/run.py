"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classical_grid --seed 0 --seconds 24 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
measurement runs in fresh benchmark processes (``perfbench/worker.py``); this
script only starts them, merges their results and prints.

``--write-reference`` regenerates the committed reference outputs under
``perfbench/reference`` (every workload and input variant, or only
``--workload``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spans import per_layer_units  # noqa: E402
from perfbench.workloads import VARIANTS, WORKLOADS  # noqa: E402

#: Fresh processes per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Wall-clock limit of one invocation, below the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "train_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed cell)."""


def end_to_end_metrics(results: Sequence[Dict]) -> Dict[str, float]:
    """Merge the results of one run's processes into end-to-end values.

    Rates are medians over the run's units (grid passes or training runs),
    latencies percentiles over all its cells; times are rescaled to the quiet
    machine (``perfbench/gauge.py``).
    """
    units = [unit for result in results for unit in result["units"]]
    cell_ms = [ms for unit in units for ms in unit["cell_ms"]]

    def rate(key: str) -> float:
        return statistics.median(unit[key] / unit["wall_s"] for unit in units)

    return {
        "cells_per_s": rate("cells"),
        "cell_ms_p50": statistics.median(cell_ms) if cell_ms else 0.0,
        "cell_ms_p90": statistics.quantiles(cell_ms, n=10)[8] if len(cell_ms) > 1 else sum(cell_ms),
        "train_steps_per_s": rate("steps"),
        "setup_s": statistics.median(result["setup_s"] for result in results),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
    }


def wall_clock(results: Sequence[Dict]) -> List[Dict]:
    """``results`` with the plain wall-clock times in place of the rescaled ones."""
    return [{**result, "setup_s": result["raw_setup_s"],
             "units": [{**unit, "wall_s": unit["raw_wall_s"], "cell_ms": unit["raw_cell_ms"]}
                       for unit in result["units"]]}
            for result in results]


def per_layer_metrics(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """The traced process's layer metrics plus the tracing overhead: the
    untraced window over the traced one, both rescaled to the quiet machine."""
    metrics = dict(traced["per_layer"])
    metrics["trace_overhead_ratio"] = (
        (untraced["window_s"] / untraced["window_factor"])
        / (traced["window_s"] / traced["window_factor"]))
    return metrics


class Runner:
    """Starts benchmark processes in a scratch directory inside the checkout."""

    def __init__(self, workload: str, seed: int, reference: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.spawned = 0

    def __enter__(self) -> "Runner":
        self.work.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        for variable in ("REPRO_MODEL_ZOO", "REPRO_JOBS"):
            env.pop(variable, None)
        env.update({
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "TMPDIR": str(self.work),
        })
        return env

    def spawn(self, *flags: str) -> Dict:
        """Run one benchmark process to completion and return its result."""
        index = self.spawned
        self.spawned += 1
        out = self.work / f"result{index}.json"
        work_dir = self.work / f"proc{index}"
        command = [sys.executable, "-m", "perfbench.worker",
                   "--workload", self.workload, "--seed", str(self.seed),
                   "--work-dir", str(work_dir), "--reference", str(self.reference),
                   "--out", str(out), *flags]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before starting a benchmark process")
        process = subprocess.Popen([*command, "--t0-wall", repr(time.time())], cwd=ROOT,
                                   env=self._env(), stdin=subprocess.DEVNULL,
                                   stdout=sys.stderr, stderr=sys.stderr)
        try:
            code = process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"benchmark process timed out: {' '.join(command)}") from None
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        if code != 0 or not out.is_file():
            raise BenchError(f"benchmark process exited with {code}: {' '.join(command)}")
        result = json.loads(out.read_text())
        shutil.rmtree(work_dir, ignore_errors=True)
        return result


def _say(line: str) -> None:
    print(line, flush=True)


def run(workload: str, seed: int, seconds: int, trace: bool, reference: Path) -> Dict:
    with Runner(workload, seed, reference) as runner:
        if trace:
            untraced = runner.spawn("--share-s", str(seconds / 2))
            traced = runner.spawn("--trace", "--count", str(len(untraced["units"])))
            results = [untraced, traced]
            values = per_layer_metrics(untraced, traced)
            units = per_layer_units()
        else:
            results = [runner.spawn("--share-s", str(seconds / SETUP_SAMPLES))
                       for _ in range(SETUP_SAMPLES)]
            values = end_to_end_metrics(results)
            units = END_TO_END_UNITS
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)

    _say(f"machine: {json.dumps(results[0]['fingerprint'], sort_keys=True)}")
    _say(f"workload {workload} seed {seed} ({'traced' if trace else 'untraced'}): "
         f"{len(results)} processes, "
         f"{sum(unit['cells'] for r in results for unit in r['units'])} cells or training runs")
    for name, unit in units.items():
        _say(f"  {name} = {values[name]:.6g} {unit}")
    factors = [unit["factor"] for result in results for unit in result["units"]]
    _say(f"  machine slowdown factor (speed gauge): median {statistics.median(factors):.3g}, "
         f"range {min(factors):.3g}-{max(factors):.3g}")
    if not trace:
        raw = end_to_end_metrics(wall_clock(results))
        _say("  wall-clock, not rescaled: " + ", ".join(
            f"{name} = {raw[name]:.6g} {END_TO_END_UNITS[name]}"
            for name in ("cells_per_s", "cell_ms_p50", "cell_ms_p90", "train_steps_per_s",
                         "setup_s")))
    _say(f"  failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for result in results:
        for note in result["notes"]:
            _say(f"note: {note}")
        for key, reason in result["failures"].items():
            _say(f"FAILED {key}: {reason}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def write_reference(workloads: Sequence[str], reference: Path) -> None:
    for workload in workloads:
        written = set()
        for seed in range(VARIANTS):
            variant = WORKLOADS[workload].variant(seed)
            if variant in written:
                continue
            written.add(variant)
            with Runner(workload, seed, reference) as runner:
                runner.deadline = time.monotonic() + 600.0
                runner.spawn("--write-reference")
            _say(f"reference written: {workload} {variant}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    reference = ROOT / "perfbench" / "reference"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference([args.workload] if args.workload else list(WORKLOADS), reference)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
