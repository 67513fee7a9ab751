"""Command-line interface for the Canopy reproduction.

Usage (after ``pip install -e .``)::

    python -m repro list-traces
    python -m repro train --kind canopy-shallow --steps 800 --out model.npz  # + Fig. 17 curve
    python -m repro evaluate --kind canopy-shallow --steps 400 --trace step-12-48
    python -m repro certify --kind canopy-shallow --steps 400 --trace step-12-48
    python -m repro figure 5          # regenerate one evaluation figure (1, 2, 5-16)
    python -m repro figure 9 --jobs 4 # shard the grid over 4 worker processes
    python -m repro figure topology   # sweep the multi-bottleneck families
    python -m repro figure 14         # multi-flow friendliness (15: fairness)
    python -m repro run --list        # registered experiments + their axes
    python -m repro run topology_sweep --set seeds=0..4 --jobs 4 --resume
    python -m repro run topology_generalization --set trace=cellular --set seeds=0..2
    python -m repro run workload_stress --set workload=poisson(0.1) --set topology=fan_in(3)
    python -m repro serve workload_stress --store runs/stress --workers 4
    python -m repro serve workload_stress --store runs/stress --http 8080
    python -m repro status runs/stress     # live, from the lease journal
    python -m repro status runs/stress --watch --interval 1
    python -m repro run topology_sweep --profile   # tick-phase cost table
    python -m repro compare-classical --buffer-bdp 1.0 --jobs 0
    python -m repro evaluate --topology "chain(3)" --trace step-12-48
    python -m repro evaluate --topology "fan_in(3)" --workload "responsive(cubic:2)"
    python -m repro run workload_stress --set telemetry=on(10) --store runs/traced
    python -m repro trace runs/traced --events fallback,drop
    python -m repro falsify workload_stress --objective fallback_storm \\
        --budget 30 --store runs/falsify-demo --jobs 2
    python -m repro falsify report runs/falsify-demo
    python -m repro falsify --check runs/falsify-demo/counterexamples

``run`` is the generic front door: any experiment registered in
:data:`repro.harness.registry.REGISTRY` runs with per-axis ``--set``
overrides, per-cell persistence to a :class:`~repro.harness.store.RunStore`
(``--store DIR``), and ``--resume`` (skip cells already stored; an
interrupted sweep continues where it stopped, with rows byte-identical to an
uninterrupted run).  ``serve`` runs the same grids across a lease-based
worker fleet that survives worker crashes (:mod:`repro.serve`), and
``status`` renders live progress from the store's lease journal.  Every
``figure`` id names a registered experiment (:data:`FIGURE_EXPERIMENTS`) and
runs through the same resumable store (default ``runs/<experiment>``), so
re-rendering a figure recomputes only missing cells.  ``train`` prints the
model's per-window reward curve (Fig. 17).  ``trace`` renders the telemetry
of a store produced with ``--set telemetry=on``: per-cell event timelines and
``tele_*`` summaries.  ``falsify`` searches the scenario space of a
registered experiment for counterexamples, shrinks them, and promotes them
into a replayable regression store (see :mod:`repro.falsify`).

Diagnostics go through :mod:`repro.telemetry.log`: ``--quiet`` silences
everything below ERROR, ``-v`` surfaces INFO, ``-vv`` DEBUG.  Command
*results* (tables, store paths, verdicts) always print — quiet mode mutes
commentary, not deliverables.

Every subcommand is a thin wrapper over the public library API, so anything
the CLI does can also be done programmatically (see the examples/ scripts).
``evaluate`` and ``compare-classical`` build
:class:`~repro.harness.parallel.ExperimentTask` cells and shard them with
:class:`~repro.harness.parallel.ParallelRunner` (``--jobs``); ``certify`` runs
one ``certify=True`` cell through :func:`~repro.harness.parallel.run_task`,
the same cell path every registry grid takes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.falsify.objective import objective_names, resolve_objective
from repro.falsify.promote import DEFAULT_COUNTEREXAMPLES_DIR, check_counterexamples
from repro.falsify.report import format_report, read_campaign, report_stats
from repro.falsify.search import STRATEGIES, CampaignConfig, run_campaign
from repro.harness.evaluate import EvaluationSettings, default_model_kind
from repro.harness.models import DEFAULT_TRAINING_STEPS, MODEL_KINDS, get_trained_model
from repro.harness.parallel import ExperimentTask, ParallelRunner, run_task
from repro.harness.registry import REGISTRY, parse_set_overrides
from repro.harness.reporting import format_rows, print_experiment
from repro.harness.spec import resolve_trace
from repro.harness.store import RECORDS_FILENAME, RunStore
from repro.nn.serialization import save_weight_dict
from repro.obs.metrics import METRICS_FILENAME
from repro.serve.daemon import (
    DEFAULT_MAX_LEASES,
    DEFAULT_METRICS_INTERVAL,
    serve_experiment,
)
from repro.serve.status import format_status, read_status
from repro.telemetry import log
from repro.telemetry.events import validate_events
from repro.telemetry.log import console
from repro.telemetry.render import render_summary, render_timeline, resolve_groups
from repro.topology.families import topology_family_specs
from repro.workload.spec import workload_specs
from repro.traces.cellular import CELLULAR_TRACE_NAMES
from repro.traces.synthetic import SYNTHETIC_TRACE_NAMES, make_synthetic_trace

__all__ = ["main", "build_parser"]

#: Default run-store root used by ``python -m repro run --resume`` when no
#: explicit ``--store`` is given (one store per experiment name).
DEFAULT_STORE_ROOT = Path("runs")

#: Every ``python -m repro figure <id>``: id → (registered experiment, axis
#: overrides the figure bakes in).  ``cmd_figure`` runs each through the
#: resumable run-store front door (default store ``runs/<experiment>``), so
#: re-rendering recomputes only missing cells.
FIGURE_EXPERIMENTS: Dict[str, tuple] = {
    "1": ("motivation_noise", {}),
    "2": ("motivation_bad_state", {}),
    "5": ("qcsat_buffers", {}),
    "6": ("certified_components", {}),
    "7": ("qcsat_robustness", {}),
    "8": ("certified_components", {"model_kind": ("canopy-robust", "orca"),
                                   "property_family": "robustness", "buffer_bdp": 2.0}),
    "9": ("performance_sweep", {}),
    "10": ("performance_sweep", {"buffer_bdp": 5.0, "canopy_kind": "canopy-deep"}),
    "11": ("noise_sensitivity", {}),
    "12": ("realworld_deployment", {}),
    "13": ("fallback_runtime", {}),
    "14": ("friendliness", {}),
    "15": ("fairness", {}),
    "16": ("sensitivity", {}),
    "topology": ("topology_sweep", {}),
}


def _get_trace(name: str):
    try:
        return resolve_trace(name)
    except ValueError:
        raise SystemExit(f"unknown trace {name!r}; run 'python -m repro list-traces'") from None


# ---------------------------------------------------------------------- #
# Subcommand implementations
# ---------------------------------------------------------------------- #
def cmd_list_traces(_args: argparse.Namespace) -> int:
    console("Synthetic traces (18):")
    for name in SYNTHETIC_TRACE_NAMES:
        console(f"  {name}")
    console("Cellular-like traces (3):")
    for name in CELLULAR_TRACE_NAMES:
        console(f"  {name}")
    console("Topology families (pass to --topology, e.g. chain(3)):")
    for spec in topology_family_specs():
        console(f"  {spec}")
    console("Workload specs (pass to --workload, e.g. poisson(0.1)):")
    for spec in workload_specs():
        console(f"  {spec}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    model = get_trained_model(args.kind, training_steps=args.steps, seed=args.seed,
                              lam=args.lam, n_components=args.components)
    metrics = model.training.final_metrics()
    console(f"trained {args.kind} for {args.steps} steps "
            f"(raw reward {metrics['raw_reward']:.3f}, verifier reward {metrics['verifier_reward']:.3f})")
    # The per-window reward curve (Fig. 17): step, raw, verifier and total reward.
    curves = model.training.reward_curves()
    console(format_rows([dict(zip(curves, values)) for values in zip(*curves.values())]))
    if args.out:
        path = save_weight_dict(model.training.agent.get_weights(), args.out)
        console(f"saved agent weights to {path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    trace = _get_trace(args.trace)
    settings = EvaluationSettings(duration=args.duration, buffer_bdp=args.buffer_bdp,
                                  min_rtt=args.rtt, topology=args.topology,
                                  workload=args.workload, seed=args.seed)
    # Train in-process first so pool workers inherit the warm model cache.
    get_trained_model(args.kind, training_steps=args.steps, seed=args.seed)
    tasks = [ExperimentTask(scheme=scheme, trace=trace, settings=settings,
                            model_kind=default_model_kind(scheme),
                            training_steps=args.steps, model_seed=args.seed)
             for scheme in (args.kind, "cubic")]
    grid = ParallelRunner(args.jobs).run(tasks)
    console(format_rows(grid.rows, columns=["scheme", "utilization", "avg_queuing_delay_ms",
                                            "p95_queuing_delay_ms", "loss_rate"]))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    trace = _get_trace(args.trace)
    settings = EvaluationSettings(duration=args.duration, buffer_bdp=args.buffer_bdp,
                                  min_rtt=args.rtt, topology=args.topology,
                                  workload=args.workload, seed=args.seed)
    # Build (and so validate) the task before training the model.
    task = ExperimentTask(scheme=args.kind, trace=trace, settings=settings, model_kind=args.kind,
                          training_steps=args.steps, model_seed=args.seed, certify=True,
                          n_components=args.components)
    model = get_trained_model(args.kind, training_steps=args.steps, seed=args.seed)
    row = run_task(task)
    console(f"QC_sat for {args.kind} on {trace.name}: {row['qcsat']:.3f} "
            f"+/- {row['qcsat_decision_std']:.3f} ({row['n_decisions']} decisions, "
            f"properties {[prop.name for prop in model.properties]})")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    # Every figure regenerates through the resumable store: each completed
    # cell persists, and re-rendering (same store) recomputes only what is
    # missing.  --fresh forces a full recompute.
    if args.figure_id not in FIGURE_EXPERIMENTS:
        raise SystemExit(f"no figure {args.figure_id!r}; known: {', '.join(FIGURE_EXPERIMENTS)}")
    name, baked = FIGURE_EXPERIMENTS[args.figure_id]
    overrides = {"training_steps": args.steps, "seeds": (args.seed,), **baked}
    store = RunStore(args.store if args.store is not None else DEFAULT_STORE_ROOT / name)
    result = REGISTRY.run(name, overrides, n_jobs=args.jobs, store=store, resume=not args.fresh)
    print_experiment(f"Figure {args.figure_id}", result)
    console(f"store: {store.records_path} ({len(store)} records)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve one experiment grid across a lease-based worker fleet."""
    try:
        REGISTRY.get(args.name)  # validate the name before mkdir'ing a store
        overrides = parse_set_overrides(args.set or [])
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    store = RunStore(args.store if args.store is not None
                     else DEFAULT_STORE_ROOT / args.name)
    try:
        result = serve_experiment(args.name, overrides, store=store,
                                  workers=args.workers, ttl_s=args.ttl,
                                  resume=not args.fresh,
                                  chaos_kill=args.chaos_kill,
                                  max_leases=args.max_leases,
                                  timeout_s=args.timeout,
                                  metrics_interval=args.metrics_interval,
                                  http_port=args.http)
    except (ValueError, RuntimeError, TimeoutError) as exc:
        raise SystemExit(str(exc)) from None
    print_experiment(f"Serve {args.name}", result)
    console(f"store: {store.records_path} ({len(store)} records)")
    console(f"served: {result['served_cells']} cell(s) by {result['workers']} "
            f"worker(s), {result['reclaims']} reclaim(s), "
            f"{result['cells_per_sec']:.2f} cells/s")
    if result.get("metrics_frames"):
        console(f"metrics: {result['metrics_frames']} frame(s) in "
                f"{store.path / METRICS_FILENAME}")
    if args.profile:
        from repro.obs.aggregate import (fleet_phase_report, fleet_rollup,
                                         format_phase_table)
        from repro.obs.metrics import MetricsJournal

        frames = MetricsJournal(store.path).read()
        if frames:
            fleet = fleet_rollup(frames)["fleet"]
            console(format_phase_table(fleet_phase_report(fleet)))
        else:
            console("profile: no metric frames recorded "
                    "(is --metrics-interval 0?)")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Render live serve progress replayed from a store's lease journal."""
    while True:
        try:
            status = read_status(args.store)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        if args.json:
            # The exact structure GET /status serves, for scripting.
            console(json.dumps(status, indent=2, sort_keys=True))
        else:
            if args.watch and sys.stdout.isatty():
                console("\x1b[2J\x1b[H" + format_status(status))
            else:
                console(format_status(status))
        if not args.watch or not status.get("running"):
            return 0
        time.sleep(args.interval)


def cmd_run(args: argparse.Namespace) -> int:
    """The generic experiment front door (registry + resumable run store)."""
    if args.list or args.name is None:
        console("Registered experiments (python -m repro run <name> --set axis=value ...):")
        for entry in REGISTRY.describe():
            console(f"  {entry['experiment']}: {entry['description']}")
            for axis, default in entry["axes"].items():
                console(f"      --set {axis}={default!r}")
        return 0
    try:
        REGISTRY.get(args.name)  # validate the name before mkdir'ing a store
        overrides = parse_set_overrides(args.set or [])
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    store = None
    if args.store is not None:
        store = RunStore(args.store)
    elif args.resume:
        store = RunStore(DEFAULT_STORE_ROOT / args.name)
    try:
        result = REGISTRY.run(args.name, overrides, n_jobs=args.jobs,
                              store=store, resume=args.resume,
                              profile=args.profile)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print_experiment(f"Run {args.name}", result)
    if store is not None:
        console(f"store: {store.records_path} ({len(store)} records)")
    if args.resume and result["computed_cells"] == 0:
        console(f"resume: all {result['cached_cells']} cells cached")
    if args.profile and "profile" in result:
        from repro.obs.aggregate import format_phase_table

        console(format_phase_table(result["profile"]))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Render the telemetry of a run store: per-cell timelines and summaries."""
    store_path = Path(args.store)
    if not (store_path / RECORDS_FILENAME).is_file():
        raise SystemExit(f"{store_path}: not a run store (no {RECORDS_FILENAME})")
    groups = None
    if args.events:
        try:
            groups = resolve_groups(
                [name.strip() for name in args.events.split(",") if name.strip()])
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    store = RunStore(store_path)
    traced = [record for record in store.records()
              if record.row.get("telemetry_events")]
    if args.cell is not None:
        selected = [record for record in traced if args.cell in record.key]
        if not selected:
            raise SystemExit(
                f"no traced cell matching {args.cell!r}; traced cells:\n"
                + ("\n".join(f"  {record.key}" for record in traced) or "  (none)"))
    else:
        selected = traced
    if not selected:
        console(f"{store.records_path}: no traced cells among {len(store)} records "
                f"(produce one with --set telemetry=on)")
        return 1
    for record in selected:
        events = record.row["telemetry_events"]
        if args.validate:
            try:
                validate_events(events)
            except ValueError as exc:
                console(f"cell: {record.key}")
                console(f"INVALID trace: {exc}")
                return 1
        console(f"cell: {record.key} ({len(events)} events"
                + (", schema valid" if args.validate else "") + ")")
        console(render_timeline(events, width=args.width, groups=groups))
        console(render_summary(record.row))
        console()
    console(f"{len(selected)} traced cell(s) of {len(store)} records in {store_path}")
    return 0


def cmd_falsify(args: argparse.Namespace) -> int:
    """Falsification front door: campaign, ``report <store>``, or ``--check``."""
    if args.check is not None:
        try:
            result = check_counterexamples(args.check, jobs=args.jobs)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        if not result["results"]:
            console(f"{args.check}: no promoted counterexamples (nothing to replay)")
            return 0
        for replay in result["results"]:
            status = "PASS" if replay["passed"] else (
                "STALE ROW" if replay["still_violated"] else "NOT VIOLATED")
            console(f"  {replay['id']} {status} [{replay['objective']}] "
                    f"score={replay['score']:.4f} (threshold {replay['threshold']:g}) "
                    f"{replay['key']}")
        verdict = "all green" if result["passed"] else "FAILURES"
        console(f"counterexample check: {len(result['results'])} replayed, {verdict}")
        return 0 if result["passed"] else 1
    if args.target == "report":
        if args.report_store is None:
            raise SystemExit("usage: python -m repro falsify report <store>")
        try:
            report = read_campaign(args.report_store)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        if args.json:
            console(json.dumps(report_stats(report), indent=2, sort_keys=True))
        else:
            console(format_report(report))
        return 0
    if args.target is None:
        raise SystemExit(
            "usage: python -m repro falsify <experiment> [--objective NAME ...]\n"
            "       python -m repro falsify report <store>\n"
            "       python -m repro falsify --check [COUNTEREXAMPLES_DIR]")
    try:
        REGISTRY.get(args.target)  # validate the name before mkdir'ing a store
        objective = resolve_objective(args.objective, threshold=args.threshold)
        config = CampaignConfig(
            experiment=args.target,
            objective=objective,
            budget=args.budget,
            strategy=args.strategy,
            campaign_seed=args.campaign_seed,
            jobs=args.jobs,
            overrides=parse_set_overrides(args.set or []),
            monitor_threshold=args.monitor_threshold,
            max_counterexamples=args.max_counterexamples,
            promote_to=Path(args.promote_to) if args.promote_to else None,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    store = RunStore(args.store if args.store is not None
                     else DEFAULT_STORE_ROOT / f"falsify_{args.target}")
    try:
        summary = run_campaign(config, store)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    console(f"falsify {summary['experiment']} [{summary['objective']}"
            f"/{summary['strategy']}]: {summary['candidates']} candidate(s), "
            f"{summary['violations_found']} violation(s), "
            f"best score {summary['best_score']:.4f}")
    console(f"cells: {summary['computed_cells']} computed, "
            f"{summary['cached_cells']} cached, "
            f"{summary['falsify_cells_per_sec']:.2f} cells/s")
    for entry in summary["counterexamples"]:
        source = entry["source"]
        console(f"  counterexample {entry['id']} score={entry['score']:.4f} "
                f"({source.get('shrink_accepted', 0)} of "
                f"{source.get('shrink_attempts', 0)} reductions accepted)")
        console(f"    {entry['key']}")
    console(f"{len(summary['counterexamples'])} counterexample(s) promoted to "
            f"{summary['counterexample_store']}")
    console(f"store: {store.records_path} ({len(store)} records) · "
            f"journal: {summary['journal']}")
    console(f"replay the regression gate: python -m repro falsify --check "
            f"{summary['counterexample_store']}")
    return 0


def cmd_compare_classical(args: argparse.Namespace) -> int:
    traces = [make_synthetic_trace(name) for name in SYNTHETIC_TRACE_NAMES[:args.traces]]
    settings = EvaluationSettings(duration=args.duration, buffer_bdp=args.buffer_bdp,
                                  topology=args.topology, workload=args.workload,
                                  seed=args.seed)
    # Scheme-major, so the table prints grouped by scheme.
    tasks = [ExperimentTask(scheme=scheme, trace=trace, settings=settings)
             for scheme in ("cubic", "newreno", "vegas", "bbr") for trace in traces]
    grid = ParallelRunner(args.jobs).run(tasks)
    console(format_rows(grid.rows, columns=["scheme", "trace", "utilization",
                                       "avg_queuing_delay_ms", "p95_queuing_delay_ms",
                                       "loss_rate"]))
    return 0


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
def _add_common_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", default="canopy-shallow", choices=sorted(MODEL_KINDS),
                        help="which learned model to use")
    parser.add_argument("--steps", type=int, default=DEFAULT_TRAINING_STEPS,
                        help="training budget in environment steps")
    parser.add_argument("--seed", type=int, default=1)


def _add_common_eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default="step-12-48", help="trace name (see list-traces)")
    parser.add_argument("--duration", type=float, default=15.0)
    parser.add_argument("--buffer-bdp", dest="buffer_bdp", type=float, default=1.0)
    parser.add_argument("--rtt", type=float, default=0.04, help="end-to-end propagation RTT in seconds")
    _add_topology_argument(parser)


def _add_topology_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="single_bottleneck",
                        help="topology family spec, e.g. single_bottleneck, chain(3), "
                             "parking_lot(3), dumbbell, fan_in(3), shared_segment "
                             "(see list-traces)")
    parser.add_argument("--workload", default="static",
                        help="workload spec, e.g. static, responsive(cubic:2), "
                             "poisson(0.1), step(2-6) (see list-traces)")


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid experiments (1 = serial, 0 = one per CPU)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro",
                                     description="Canopy reproduction command-line interface")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="silence diagnostics below ERROR (results still print)")
    parser.add_argument("--verbose", "-v", action="count", default=0,
                        help="surface INFO diagnostics (-vv for DEBUG)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list-traces", help="list available workload traces")
    list_parser.set_defaults(handler=cmd_list_traces)

    train_parser = subparsers.add_parser("train", help="train a Canopy/Orca model")
    _add_common_model_arguments(train_parser)
    train_parser.add_argument("--lam", type=float, default=None, help="override lambda")
    train_parser.add_argument("--components", type=int, default=None, help="override N")
    train_parser.add_argument("--out", default=None, help="save agent weights to this .npz path")
    train_parser.set_defaults(handler=cmd_train)

    eval_parser = subparsers.add_parser("evaluate", help="run a model (and CUBIC) over a trace")
    _add_common_model_arguments(eval_parser)
    _add_common_eval_arguments(eval_parser)
    _add_jobs_argument(eval_parser)
    eval_parser.set_defaults(handler=cmd_evaluate)

    certify_parser = subparsers.add_parser("certify", help="compute QC_sat over a trace")
    _add_common_model_arguments(certify_parser)
    _add_common_eval_arguments(certify_parser)
    certify_parser.add_argument("--components", type=int, default=50)
    certify_parser.set_defaults(handler=cmd_certify)

    figure_parser = subparsers.add_parser("figure", help="regenerate one evaluation figure")
    figure_parser.add_argument("figure_id", help=", ".join(FIGURE_EXPERIMENTS))
    figure_parser.add_argument("--steps", type=int, default=400)
    figure_parser.add_argument("--seed", type=int, default=1)
    figure_parser.add_argument("--store", default=None, metavar="DIR",
                               help="run store (default: runs/<experiment>)")
    figure_parser.add_argument("--fresh", action="store_true",
                               help="recompute every cell even if the store "
                                    "already holds it")
    _add_jobs_argument(figure_parser)
    figure_parser.set_defaults(handler=cmd_figure)

    run_parser = subparsers.add_parser(
        "run", help="run any registered experiment (generic axes, resumable store)")
    run_parser.add_argument("name", nargs="?", default=None,
                            help="registered experiment name (omit with --list)")
    run_parser.add_argument("--set", action="append", default=[], metavar="AXIS=VALUE",
                            help="override one experiment axis; repeatable "
                                 "(lists are comma-separated, int ranges use a..b, "
                                 "e.g. --set seeds=0..9 --set trace=cellular)")
    run_parser.add_argument("--list", action="store_true",
                            help="list registered experiments and their axes")
    run_parser.add_argument("--store", default=None, metavar="DIR",
                            help="persist one RunRecord per completed cell to this "
                                 "run-store directory")
    run_parser.add_argument("--resume", action="store_true",
                            help="skip cells already in the run store "
                                 "(default store: runs/<experiment>)")
    run_parser.add_argument("--profile", action="store_true",
                            help="profile simulator tick phases per cell and "
                                 "print the phase table (rows are unchanged; "
                                 "with --store, frames also stream to the "
                                 "store's metrics.jsonl)")
    _add_jobs_argument(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    serve_parser = subparsers.add_parser(
        "serve", help="serve an experiment grid to a crash-surviving worker fleet")
    serve_parser.add_argument("name", help="registered experiment name (see run --list)")
    serve_parser.add_argument("--set", action="append", default=[], metavar="AXIS=VALUE",
                              help="override one experiment axis; repeatable "
                                   "(same syntax as 'run')")
    serve_parser.add_argument("--store", default=None, metavar="DIR",
                              help="run-store directory; its leases.jsonl is the "
                                   "live status surface (default: runs/<experiment>)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="fleet size (0 computes inline, no processes)")
    serve_parser.add_argument("--ttl", type=float, default=10.0,
                              help="lease TTL in seconds; a lease not heartbeat-"
                                   "renewed for this long is reclaimed")
    serve_parser.add_argument("--max-leases", dest="max_leases", type=int,
                              default=DEFAULT_MAX_LEASES,
                              help="reclaim budget per cell before it is marked failed")
    serve_parser.add_argument("--timeout", type=float, default=900.0,
                              help="overall wall-clock guard in seconds")
    serve_parser.add_argument("--fresh", action="store_true",
                              help="recompute cells already in the store")
    serve_parser.add_argument("--chaos-kill", dest="chaos_kill", type=int,
                              default=None, metavar="N",
                              help="fault injection: the first worker SIGKILLs "
                                   "itself upon receiving its N-th cell "
                                   "(exercises the reclaim path; CI smoke)")
    serve_parser.add_argument("--http", type=int, default=None, metavar="PORT",
                              help="serve GET /status, /metrics (Prometheus "
                                   "exposition) and /cells/<key> on this port "
                                   "while the daemon runs (0 picks a free port)")
    serve_parser.add_argument("--metrics-interval", dest="metrics_interval",
                              type=float, default=DEFAULT_METRICS_INTERVAL,
                              metavar="S",
                              help="worker metric-frame sampling period in "
                                   "seconds, streamed to the store's "
                                   "metrics.jsonl (0 disables the stream)")
    serve_parser.add_argument("--profile", action="store_true",
                              help="print the fleet's tick-phase table after "
                                   "the grid (from the metrics stream)")
    serve_parser.set_defaults(handler=cmd_serve)

    status_parser = subparsers.add_parser(
        "status", help="show serve progress live from a store's lease journal")
    status_parser.add_argument("store", help="run-store directory being (or once) served")
    status_parser.add_argument("--json", action="store_true",
                               help="emit the status dict as JSON (the same "
                                    "structure GET /status serves)")
    status_parser.add_argument("--watch", action="store_true",
                               help="re-render until the serve session finishes")
    status_parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                               help="refresh period for --watch (default 2s)")
    status_parser.set_defaults(handler=cmd_status)

    classical_parser = subparsers.add_parser("compare-classical",
                                             help="compare the classical controllers (no learning)")
    classical_parser.add_argument("--traces", type=int, default=3)
    classical_parser.add_argument("--duration", type=float, default=15.0)
    classical_parser.add_argument("--buffer-bdp", dest="buffer_bdp", type=float, default=1.0)
    _add_topology_argument(classical_parser)
    classical_parser.add_argument("--seed", type=int, default=1)
    _add_jobs_argument(classical_parser)
    classical_parser.set_defaults(handler=cmd_compare_classical)

    falsify_parser = subparsers.add_parser(
        "falsify", help="search the scenario space for counterexamples "
                        "(and replay promoted ones)")
    falsify_parser.add_argument("target", nargs="?", default=None,
                                help="registered experiment name to falsify, or "
                                     "'report' to summarize a campaign store")
    falsify_parser.add_argument("report_store", nargs="?", default=None,
                                help="campaign store directory (report mode only)")
    falsify_parser.add_argument("--objective", default="qc_gap",
                                help="falsification objective: "
                                     + ", ".join(objective_names()))
    falsify_parser.add_argument("--threshold", type=float, default=None,
                                help="override the objective's violation threshold")
    falsify_parser.add_argument("--budget", type=int, default=40,
                                help="candidate cells the search may propose")
    falsify_parser.add_argument("--strategy", default="evolve",
                                choices=sorted(STRATEGIES),
                                help="search strategy (default: evolve)")
    falsify_parser.add_argument("--store", default=None, metavar="DIR",
                                help="campaign run store (default: "
                                     "runs/falsify_<experiment>)")
    falsify_parser.add_argument("--set", action="append", default=[],
                                metavar="AXIS=VALUE",
                                help="override one experiment axis for the "
                                     "template cell; repeatable (same syntax "
                                     "as 'run')")
    falsify_parser.add_argument("--campaign-seed", dest="campaign_seed", type=int,
                                default=1,
                                help="campaign seed; the whole candidate/shrink "
                                     "journal is a pure function of it")
    falsify_parser.add_argument("--monitor-threshold", dest="monitor_threshold",
                                type=float, default=0.8,
                                help="runtime-monitor veto threshold installed "
                                     "for monitor objectives (default 0.8)")
    falsify_parser.add_argument("--max-counterexamples", dest="max_counterexamples",
                                type=int, default=3,
                                help="distinct violating cells to shrink and "
                                     "promote (default 3)")
    falsify_parser.add_argument("--promote-to", dest="promote_to", default=None,
                                metavar="DIR",
                                help="counterexample regression store "
                                     "(default: <store>/counterexamples)")
    falsify_parser.add_argument("--check", nargs="?",
                                const=str(DEFAULT_COUNTEREXAMPLES_DIR),
                                default=None, metavar="DIR",
                                help="replay a promoted-counterexample store as "
                                     "a regression gate (exit 1 on any failure)")
    falsify_parser.add_argument("--json", action="store_true",
                                help="report mode: emit the flat stats dict "
                                     "instead of the human summary")
    _add_jobs_argument(falsify_parser)
    falsify_parser.set_defaults(handler=cmd_falsify)

    trace_parser = subparsers.add_parser(
        "trace", help="render telemetry event traces from a run store")
    trace_parser.add_argument("store",
                              help="run-store directory produced with --set telemetry=on")
    trace_parser.add_argument("--cell", default=None, metavar="KEY",
                              help="render only cells whose key contains this substring")
    trace_parser.add_argument("--events", default=None, metavar="GROUPS",
                              help="comma-separated event groups to show "
                                   "(fallback, drop, flow, conservation, transit); "
                                   "default: every group with events")
    trace_parser.add_argument("--width", type=int, default=64,
                              help="timeline width in characters (default 64)")
    trace_parser.add_argument("--validate", action="store_true",
                              help="schema-check every rendered trace (exit 1 on drift)")
    trace_parser.set_defaults(handler=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    log.configure(verbosity=-1 if args.quiet else args.verbose)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
