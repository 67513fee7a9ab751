"""One benchmark process: ``python3 -m perfbench.worker ... --out result.json``.

Started by ``perfbench/run.py`` with a clean environment (no model zoo, one
BLAS thread, ``src`` on the path); writes the result of
:func:`perfbench.workloads.measure` as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from perfbench.workloads import WORKLOADS, measure


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0-wall", type=float, required=True)
    parser.add_argument("--share-s", type=float, default=0.0)
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    from repro.telemetry import log

    log.configure(-1)
    result = measure(WORKLOADS[args.workload], args.seed, args.work_dir, args.reference,
                     trace=args.trace, share_s=args.share_s, count=args.count,
                     t0_wall=args.t0_wall, write_reference=args.write_reference)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
