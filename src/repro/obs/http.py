"""The serve daemon's HTTP surface: ``/status``, ``/metrics``, ``/cells/<key>``.

``python -m repro serve ... --http PORT`` starts one :class:`ObsServer` — a
stdlib :class:`~http.server.ThreadingHTTPServer` on a daemon thread — next to
the daemon's lease loop.  The server holds no daemon state and talks to no
queue: every request replays the on-disk journals (``leases.jsonl``,
``metrics.jsonl``, ``records.jsonl``), exactly like the CLI ``repro status``
does from another process.  That keeps the hard observability wall: an HTTP
request can never perturb the lease loop or the rows, and the surface works
against a dead daemon's store just as well as a live one.

Endpoints:

``GET /status``
    the :func:`~repro.serve.status.read_status` replay as JSON — the same
    structure ``repro status --json`` prints.
``GET /metrics``
    Prometheus text exposition (format 0.0.4) of the lease-state gauges,
    reclaim/stale counters, throughput, per-worker tick counters, and
    per-phase latency histograms folded by :mod:`repro.obs.aggregate`.
``GET /cells/<key>``
    one cell's stored record (row, spec, provenance) plus its ``tele_*``
    summary; raw ``telemetry_events`` are elided to an event count.  ``<key>``
    may be any unique substring of a cell key (keys are long).

``python -m repro.obs.http --validate FILE`` schema-checks a scraped
exposition (the CI obs-smoke job pipes ``curl /metrics`` through it);
``--render STORE`` prints a store's exposition without a server.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import unquote

from repro.obs.aggregate import fleet_rollup
from repro.obs.metrics import MetricsJournal
from repro.serve.status import read_status
from repro.telemetry import log
from repro.telemetry.log import console
from repro.telemetry.profiler import TICK_PHASES

__all__ = ["CONTENT_TYPE_EXPOSITION", "ObsServer", "render_exposition",
           "validate_exposition", "main"]

CONTENT_TYPE_EXPOSITION = "text/plain; version=0.0.4; charset=utf-8"

#: Histogram bucket upper bounds (seconds) for per-tick phase latency.
LATENCY_BUCKETS_S = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


# ---------------------------------------------------------------------- #
# Prometheus exposition
# ---------------------------------------------------------------------- #
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt(value: float) -> str:
    number = float(value)
    return str(int(number)) if number == int(number) else repr(number)


def render_exposition(store_path: str | Path) -> str:
    """Render one store's live metrics as Prometheus text exposition."""
    store_path = Path(store_path)
    try:
        status: Optional[Dict] = read_status(store_path)
    except FileNotFoundError:
        status = None
    frames = MetricsJournal(store_path).read()
    rollup = fleet_rollup(frames, status=status)
    fleet, workers = rollup["fleet"], rollup["workers"]

    lines: List[str] = []

    def family(name: str, kind: str, help_text: str,
               samples: Sequence[Tuple[str, float]]) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{labels} {_fmt(value)}")

    if status is not None:
        states = {
            "total": status.get("cells") or 0,
            "cached": status.get("cached") or 0,
            "completed": status.get("completed") or 0,
            "leased": len(status.get("leased") or {}),
            "failed": status.get("failed") or 0,
            "outstanding": status.get("outstanding") or 0,
        }
        family("repro_serve_cells", "gauge",
               "Cells by lease state in the latest serve session.",
               [(f'{{state="{state}"}}', value) for state, value in states.items()])
        family("repro_serve_running", "gauge",
               "1 while the latest serve session is still running.",
               [("", 1.0 if status.get("running") else 0.0)])
        family("repro_serve_reclaims_total", "counter",
               "Leases reclaimed from dead or expired workers.",
               [("", status.get("reclaims") or 0)])
        family("repro_serve_stale_results_total", "counter",
               "Results rejected because the worker no longer held the lease.",
               [("", status.get("stale_results") or 0)])
        family("repro_serve_cells_per_sec", "gauge",
               "Completed cells per second over the session.",
               [("", status.get("cells_per_sec") or 0.0)])
        family("repro_serve_worker_up", "gauge",
               "Worker liveness from the lease journal.",
               [(f'{{worker="{_escape_label(name)}"}}',
                 1.0 if state.get("alive") else 0.0)
                for name, state in sorted((status.get("workers") or {}).items())])

    family("repro_metrics_frames_total", "counter",
           "Metric frames recorded in metrics.jsonl (rollup segments count "
           "their folded frames).",
           [("", fleet["frames"])])
    if workers:
        family("repro_worker_cells_done_total", "counter",
               "Cells completed per worker (from the metrics stream).",
               [(f'{{worker="{_escape_label(name)}"}}', rollup_w["cells_done"])
                for name, rollup_w in sorted(workers.items())])
        family("repro_worker_ticks_total", "counter",
               "Simulator ticks executed per worker.",
               [(f'{{worker="{_escape_label(name)}"}}', rollup_w["ticks"])
                for name, rollup_w in sorted(workers.items())])
        family("repro_worker_telemetry_events_total", "counter",
               "Telemetry events recorded by per-cell event traces.",
               [(f'{{worker="{_escape_label(name)}"}}',
                 rollup_w["telemetry_events"])
                for name, rollup_w in sorted(workers.items())])
        family("repro_tick_phase_seconds_total", "counter",
               "Wall-clock seconds charged to each simulator tick phase.",
               [(f'{{worker="{_escape_label(name)}",phase="{phase}"}}',
                 rollup_w["phase_seconds"][phase])
                for name, rollup_w in sorted(workers.items())
                for phase in TICK_PHASES])

    # Per-tick phase latency histogram over frame-interval samples.  Emitted
    # even before the first frame lands (all-zero buckets) so scrapers see a
    # stable set of families from the first scrape onwards.
    samples = fleet["latency_samples_s"]
    name = "repro_tick_phase_latency_seconds"
    lines.append(f"# HELP {name} Per-tick wall-clock latency of each "
                 f"simulator phase (frame-interval averages).")
    lines.append(f"# TYPE {name} histogram")
    for phase in TICK_PHASES:
        values = samples[phase]
        for bound in LATENCY_BUCKETS_S:
            cumulative = sum(1 for value in values if value <= bound)
            lines.append(f'{name}_bucket{{phase="{phase}",le="{bound:g}"}} '
                         f"{cumulative}")
        lines.append(f'{name}_bucket{{phase="{phase}",le="+Inf"}} {len(values)}')
        lines.append(f'{name}_sum{{phase="{phase}"}} {_fmt(sum(values))}')
        lines.append(f'{name}_count{{phase="{phase}"}} {len(values)}')

    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{[^{}]*\})?'
    r'\s+(?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf)|NaN)\s*$')
_COMMENT_RE = re.compile(r"^# (?P<kind>HELP|TYPE) (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$")


def validate_exposition(text: str) -> Dict[str, int]:
    """Check Prometheus text-format well-formedness; raise ``ValueError``.

    Enforces what the CI obs-smoke job needs: every sample parses, every
    sampled family has a preceding ``# TYPE``, and every histogram family has
    an ``le="+Inf"`` bucket plus ``_sum``/``_count`` series.  Returns
    ``{"families": n, "samples": n}``.
    """
    types: Dict[str, str] = {}
    samples = 0
    histogram_parts: Dict[str, set] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _COMMENT_RE.match(line)
            if match is None:
                raise ValueError(f"line {line_number}: malformed comment: {line!r}")
            if match.group("kind") == "TYPE":
                types[match.group("name")] = line.rsplit(" ", 1)[-1]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample: {line!r}")
        samples += 1
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base in types and types[base] == "histogram":
            suffix = name[len(base):].lstrip("_") or "base"
            parts = histogram_parts.setdefault(base, set())
            parts.add(suffix)
            if suffix == "bucket" and 'le="+Inf"' in (match.group("labels") or ""):
                parts.add("+Inf bucket")
        elif name not in types:
            raise ValueError(f"line {line_number}: sample {name!r} has no # TYPE")
    for base, parts in histogram_parts.items():
        missing = {"bucket", "+Inf bucket", "sum", "count"} - parts
        if missing:
            raise ValueError(f"histogram {base!r} incomplete: missing {sorted(missing)}")
    return {"families": len(types), "samples": samples}


# ---------------------------------------------------------------------- #
# The server
# ---------------------------------------------------------------------- #
def _cell_payload(record) -> Dict:
    row = dict(record.row)
    events = row.pop("telemetry_events", None)
    return {
        "key": record.key,
        "experiment": record.experiment,
        "producer": record.producer,
        "commit": record.commit,
        "spec": record.spec,
        "hop_seeds": record.hop_seeds,
        "row": row,
        "tele_summary": {name: value for name, value in row.items()
                         if name.startswith("tele_")},
        "telemetry_events_count": len(events) if isinstance(events, list) else 0,
    }


def _make_handler(store_path: Path):
    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-obs"

        def log_message(self, fmt, *args):  # noqa: A002 - stdlib signature
            log.debug("http_request", logger="obs", detail=fmt % args)

        # ---------------------------------------------------------- #
        def _send(self, code: int, body: bytes, content_type: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, code: int, payload: Dict) -> None:
            body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
            self._send(code, body, "application/json; charset=utf-8")

        # ---------------------------------------------------------- #
        def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
            try:
                self._route()
            except BrokenPipeError:  # client went away mid-response
                pass
            except Exception as exc:  # noqa: BLE001 - surfaced to the client
                log.exception("http_error", logger="obs", path=self.path)
                try:
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                except OSError:
                    pass

        def _route(self) -> None:
            path = self.path.split("?", 1)[0]
            if path in ("", "/"):
                self._send_json(200, {"endpoints": ["/status", "/metrics",
                                                    "/cells/<key>"],
                                      "store": str(store_path)})
            elif path == "/status":
                try:
                    self._send_json(200, read_status(store_path))
                except FileNotFoundError as exc:
                    self._send_json(404, {"error": str(exc)})
            elif path == "/metrics":
                body = render_exposition(store_path).encode()
                self._send(200, body, CONTENT_TYPE_EXPOSITION)
            elif path.startswith("/cells/"):
                self._cells(unquote(path[len("/cells/"):]))
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})

        def _cells(self, needle: str) -> None:
            # A fresh store view per request: the daemon appends records
            # while we serve, and a cached load would go stale.
            from repro.harness.store import RunStore

            records = RunStore(store_path).load()
            if needle in records:
                self._send_json(200, _cell_payload(records[needle]))
                return
            matches = [key for key in records if needle in key]
            if len(matches) == 1:
                self._send_json(200, _cell_payload(records[matches[0]]))
            elif matches:
                self._send_json(300, {"error": f"{len(matches)} cells match "
                                               f"{needle!r}",
                                      "candidates": sorted(matches)[:10]})
            else:
                self._send_json(404, {"error": f"no cell matches {needle!r}"})

    return _Handler


class ObsServer:
    """The daemon-thread HTTP server over one run store's journals."""

    def __init__(self, store_path: str | Path, port: int = 0,
                 host: str = "127.0.0.1"):
        self.store_path = Path(store_path)
        self._httpd = ThreadingHTTPServer((host, port),
                                          _make_handler(self.store_path))
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = int(self._httpd.server_address[1])
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ObsServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-obs-http", daemon=True)
        self._thread.start()
        log.info("obs_http_start", logger="obs", host=self.host, port=self.port,
                 store=str(self.store_path))
        return self

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)


# ---------------------------------------------------------------------- #
# CLI — exposition render/validate (used by the CI obs-smoke job)
# ---------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.http",
        description="render or validate Prometheus text exposition for a run store")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--render", metavar="STORE",
                       help="print the /metrics exposition for a store")
    group.add_argument("--validate", metavar="FILE",
                       help="schema-check a scraped exposition ('-' for stdin)")
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.render:
        console(render_exposition(args.render).rstrip("\n"))
        return 0
    text = (sys.stdin.read() if args.validate == "-"
            else Path(args.validate).read_text())
    try:
        counts = validate_exposition(text)
    except ValueError as exc:
        console(f"INVALID exposition: {exc}")
        return 1
    console(f"valid exposition: {counts['families']} families, "
            f"{counts['samples']} samples")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
