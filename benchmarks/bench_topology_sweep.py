"""Topology-family sweep — multi-bottleneck scenarios and simulator throughput.

The paper evaluates every scheme over a single shared bottleneck; this
benchmark drives the classical schemes over the multi-bottleneck family
catalog (``single_bottleneck``, ``chain(n)``, ``parking_lot(n)``,
``dumbbell``) and records, in the bench JSON (``extra_info``):

* the simulator tick throughput of the grid (ticks/sec — the hot-path number
  that bounds how many scenarios a CI run can cover), and
* one utilization / avg-delay / p95-delay / loss row per (family, scheme).

Families can be overridden through ``REPRO_BENCH_TOPOLOGIES`` (comma
separated), e.g. the CI smoke job runs a small chain(3) sweep.  The
differential suite (``tests/test_topology_differential.py``) pins
``single_bottleneck`` to the legacy single-link trajectory, so the
single-bottleneck rows here are directly comparable with every historical
figure.
"""

import os
import time

from benchconfig import DURATION, N_JOBS, SEED, run_once

from repro.cc.cubic import CubicController
from repro.cc.flow import Flow
from repro.harness.registry import REGISTRY
from repro.harness.reporting import format_rows
from repro.harness.spec import parse_topologies
from repro.orca.env import build_simulator
from repro.traces.synthetic import make_synthetic_trace

FAMILIES = parse_topologies(os.environ.get(
    "REPRO_BENCH_TOPOLOGIES",
    "single_bottleneck,chain(3),parking_lot(3),dumbbell",
))

SCHEMES = ("cubic", "vegas", "bbr")


def test_topology_sweep_families(benchmark):
    result = run_once(
        benchmark, REGISTRY.run, "topology_sweep",
        {"families": FAMILIES, "schemes": SCHEMES,
         "duration": DURATION, "n_synthetic": 2, "seeds": (SEED,)},
        n_jobs=N_JOBS,
    )

    print("\nTopology-family sweep: utilization vs delay per family")
    print(format_rows(result["rows"], columns=["topology", "scheme", "utilization",
                                               "avg_delay_ms", "p95_delay_ms", "loss_rate"]))
    print(f"simulator throughput: {result['ticks_per_sec']:,.0f} ticks/s "
          f"({result['ticks']} ticks over {result['wall_clock_s']:.2f}s, "
          f"n_jobs={result['n_jobs']})")

    # Per-family rows land in the bench JSON alongside the tick throughput.
    benchmark.extra_info["families"] = list(FAMILIES)
    benchmark.extra_info["rows"] = result["rows"]

    assert len(FAMILIES) >= 3, "the sweep must cover at least 3 topology families"
    assert result["ticks_per_sec"] > 0.0
    by_family = {}
    for row in result["rows"]:
        by_family.setdefault(row["topology"], []).append(row)
    assert set(by_family) == set(FAMILIES)
    for family, rows in by_family.items():
        for row in rows:
            assert 0.0 < row["utilization"] <= 1.5, (family, row["scheme"])
            assert row["avg_delay_ms"] >= 0.0

    # Shape: cross traffic (parking lot) costs the scheme under test capacity
    # relative to an uncontended single bottleneck.
    _shape_check(by_family)


#: Raw ``NetworkSimulator.tick`` ticks for the multi-hop hot-path microbench.
MULTI_HOP_TICKS = int(os.environ.get("REPRO_BENCH_MULTI_HOP_TICKS", "20000"))


def test_multi_hop_tick_throughput(benchmark):
    """Raw multi-hop tick rate on chain(3) — the transit-stage hot path.

    The per-hop propagation stage (transit queues between hops) sits directly
    on the drain loop, so this microbench guards its overhead: the recorded
    ``multi_hop_ticks_per_sec`` scalar folds into ``BENCH_ci.json`` and must
    stay within ~10% of the pre-transit baseline.
    """

    def run_ticks():
        trace = make_synthetic_trace("step-12-48")
        flows = [Flow(0, CubicController()),
                 Flow(1, CubicController(), start_time=1.0),
                 Flow(2, CubicController(), start_time=2.0)]
        sim = build_simulator("chain(3)", trace, flows, dt=0.01, min_rtt=0.06,
                              buffer_bdp=1.0, seed=7)
        start = time.perf_counter()
        for _ in range(MULTI_HOP_TICKS):
            sim.tick()
        elapsed = time.perf_counter() - start
        return {"ticks": MULTI_HOP_TICKS,
                "ticks_per_sec": MULTI_HOP_TICKS / elapsed,
                "total_acked": sum(f.total_acked for f in sim.flows.values())}

    result = run_once(benchmark, run_ticks)
    benchmark.extra_info["multi_hop_ticks_per_sec"] = result["ticks_per_sec"]
    print(f"\nchain(3) raw tick throughput: {result['ticks_per_sec']:,.0f} ticks/s "
          f"({result['ticks']} ticks)")
    assert result["ticks_per_sec"] > 0.0
    # Sanity: the run moved real traffic over the chain, so the measured loop
    # exercised enqueue, transit, drain, and ack processing.
    assert result["total_acked"] > 0.0


def test_telemetry_tick_overhead(benchmark):
    """Traced vs untraced tick rate on chain(3) — the telemetry overhead gate.

    Runs the multi-hop microbench loop twice, identical except for an
    attached :class:`EventTrace` (default conservation stride), and records
    ``telemetry_overhead_ratio`` = untraced/traced ticks-per-sec into the
    bench JSON.  A ratio creeping far above 1 means event emission has leaked
    into the per-packet hot path instead of staying on the per-tick seams.
    """
    from repro.telemetry import EventTrace

    def run_ticks(telemetry):
        trace = make_synthetic_trace("step-12-48")
        flows = [Flow(0, CubicController()),
                 Flow(1, CubicController(), start_time=1.0),
                 Flow(2, CubicController(), start_time=2.0)]
        sim = build_simulator("chain(3)", trace, flows, dt=0.01, min_rtt=0.06,
                              buffer_bdp=1.0, seed=7, telemetry=telemetry)
        start = time.perf_counter()
        for _ in range(MULTI_HOP_TICKS):
            sim.tick()
        elapsed = time.perf_counter() - start
        return MULTI_HOP_TICKS / elapsed, telemetry

    def run_pair():
        untraced, _ = run_ticks(None)
        traced, events = run_ticks(EventTrace())
        return {"untraced_ticks_per_sec": untraced,
                "traced_ticks_per_sec": traced,
                "overhead_ratio": untraced / traced,
                "n_events": len(events)}

    result = run_once(benchmark, run_pair)
    benchmark.extra_info["traced_ticks_per_sec"] = result["traced_ticks_per_sec"]
    benchmark.extra_info["telemetry_overhead_ratio"] = result["overhead_ratio"]
    print(f"\nchain(3) traced tick throughput: "
          f"{result['traced_ticks_per_sec']:,.0f} ticks/s "
          f"(untraced {result['untraced_ticks_per_sec']:,.0f}, "
          f"overhead x{result['overhead_ratio']:.3f}, "
          f"{result['n_events']} events)")
    assert result["traced_ticks_per_sec"] > 0.0
    assert result["n_events"] > 0, "the traced run must actually record events"
    # Generous CI bound — the signal is the recorded trajectory, the assert
    # only catches a hot-path catastrophe (per-packet emission, say).
    assert result["overhead_ratio"] < 3.0


def _shape_check(by_family):
    if "single_bottleneck" in by_family:
        single_util = {row["scheme"]: row["utilization"]
                       for row in by_family["single_bottleneck"]}
        for family, rows in by_family.items():
            if not family.startswith("parking_lot"):
                continue
            for row in rows:
                assert row["utilization"] <= single_util[row["scheme"]] + 0.05, (
                    f"{row['scheme']} on {family} should not beat the "
                    f"uncontended single bottleneck")
