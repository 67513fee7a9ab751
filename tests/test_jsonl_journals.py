"""The one JSONL append path and the five journals that write through it.

A hard kill mid-append leaves a torn final line.  Every journal must keep
reading all of its complete entries after that, and after the appends that
follow the restart: the next line must never land on the torn bytes.  A
complete final line that only lost its newline is kept, not cut.
"""

import json

import pytest

from repro.falsify.objective import resolve_objective
from repro.falsify.promote import (
    COUNTEREXAMPLES_FILENAME,
    load_counterexamples,
    promote_counterexample,
)
from repro.falsify.report import read_campaign
from repro.falsify.search import JOURNAL_FILENAME
from repro.harness import jsonl
from repro.harness.evaluate import EvaluationSettings
from repro.harness.parallel import ExperimentTask
from repro.harness.store import RECORDS_FILENAME, RunRecord, RunStore
from repro.obs.metrics import METRICS_FILENAME, MetricsJournal
from repro.obs.retention import COMPACTIONS_FILENAME, RetentionPolicy, compact_store
from repro.serve.lease import LEASES_FILENAME, LeaseJournal
from repro.telemetry.profiler import TICK_PHASES
from repro.traces.trace import BandwidthTrace


# ---------------------------------------------------------------------- #
# jsonl.append itself
# ---------------------------------------------------------------------- #
class TestAppend:
    def test_appends_one_line_to_a_new_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        jsonl.append(path, '{"a": 1}', fsync=False)
        jsonl.append(path, '{"b": 2}', fsync=True)
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_torn_tail_is_cut_before_the_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\n{"b": ')
        jsonl.append(path, '{"c": 3}', fsync=False)
        assert path.read_text() == '{"a": 1}\n{"c": 3}\n'

    def test_complete_tail_gets_its_newline(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}')
        jsonl.append(path, '{"c": 3}', fsync=False)
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n{"c": 3}\n'

    def test_file_that_is_only_a_torn_line_is_emptied(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": ')
        jsonl.append(path, '{"c": 3}', fsync=False)
        assert path.read_text() == '{"c": 3}\n'

    def test_torn_tail_longer_than_one_look_back_block(self, tmp_path):
        path = tmp_path / "j.jsonl"
        torn = '{"blob": "' + "x" * (2 * jsonl._TAIL_BLOCK + 17)
        path.write_text('{"a": 1}\n' + torn)
        jsonl.append(path, '{"c": 3}', fsync=False)
        assert path.read_text() == '{"a": 1}\n{"c": 3}\n'

    def test_torn_multibyte_character_is_cut(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": "\xc3')
        jsonl.append(path, '{"c": 3}', fsync=False)
        assert path.read_text() == '{"a": 1}\n{"c": 3}\n'


# ---------------------------------------------------------------------- #
# The five journals, each through its own API
# ---------------------------------------------------------------------- #
def _task(seed: int) -> ExperimentTask:
    settings = EvaluationSettings(duration=2.0, buffer_bdp=1.0, seed=seed)
    return ExperimentTask(scheme="cubic", trace=BandwidthTrace.constant(12.0, duration=30.0,
                                                                         name="const-12"),
                          settings=settings)


def _frame(seq: int) -> dict:
    return {"v": 1, "kind": "frame", "worker": "w0", "seq": seq, "t": float(seq),
            "uptime_s": float(seq), "cells_done": seq, "ticks": 10 * seq,
            "sim_wall_s": 0.0, "phase_seconds": {phase: 0.0 for phase in TICK_PHASES},
            "telemetry_events": 0}


LOSS_BURST = resolve_objective("loss_burst", threshold=0.001)

#: name -> (file name, append entry ``i`` through the journal's API,
#: read back the entry numbers in file order).
JOURNALS = {
    "records": (
        RECORDS_FILENAME,
        lambda store, i: RunStore(store).put(RunRecord(key=f"k{i}", row={"i": i})),
        lambda store: [record.row["i"] for record in RunStore(store).records()],
    ),
    "leases": (
        LEASES_FILENAME,
        lambda store, i: LeaseJournal(store, clock=lambda: 0.0).append("heartbeat", n=i),
        lambda store: [event["n"] for event in LeaseJournal(store).read()],
    ),
    "metrics": (
        METRICS_FILENAME,
        lambda store, i: MetricsJournal(store).append(_frame(i)),
        lambda store: [frame["seq"] for frame in MetricsJournal(store).read()],
    ),
    "compactions": (
        COMPACTIONS_FILENAME,
        lambda store, i: compact_store(store, RetentionPolicy(), clock=lambda: float(i)),
        lambda store: [int(entry["t"]) for entry in jsonl.parse_jsonl_tolerant(
            (store / COMPACTIONS_FILENAME).read_text())[0]],
    ),
    "counterexamples": (
        COUNTEREXAMPLES_FILENAME,
        lambda store, i: promote_counterexample(
            store, _task(i), {"loss_rate": 0.5}, experiment="toy",
            objective=LOSS_BURST, score=0.5),
        lambda store: [entry["task"]["settings"]["seed"]
                       for entry in load_counterexamples(store)],
    ),
}


@pytest.mark.parametrize("name", sorted(JOURNALS))
class TestJournalTails:
    def test_torn_tail_then_two_appends_reads_every_complete_entry(self, name, tmp_path):
        filename, append, read = JOURNALS[name]
        append(tmp_path, 0)
        with (tmp_path / filename).open("a") as handle:
            handle.write('{"event": "torn", "n": ')  # a kill mid-append
        append(tmp_path, 1)
        append(tmp_path, 2)
        assert read(tmp_path) == [0, 1, 2]

    def test_complete_final_line_without_newline_is_kept(self, name, tmp_path):
        filename, append, read = JOURNALS[name]
        append(tmp_path, 0)
        path = tmp_path / filename
        text = path.read_text()
        assert text.endswith("\n")
        path.write_text(text[:-1])
        json.loads(path.read_text().splitlines()[-1])  # still one complete entry
        append(tmp_path, 1)
        append(tmp_path, 2)
        assert read(tmp_path) == [0, 1, 2]


# ---------------------------------------------------------------------- #
# The falsify readers keep their own checks after the shared parse
# ---------------------------------------------------------------------- #
class TestCampaignJournalReader:
    def _journal(self, tmp_path, text):
        (tmp_path / JOURNAL_FILENAME).write_text(text)
        return tmp_path

    def test_torn_tail_is_skipped(self, tmp_path):
        store = self._journal(tmp_path, '{"phase": "campaign", "seed": 3}\n'
                                        '{"phase": "candidate", "i": 0}\n'
                                        '{"phase": "cand')
        report = read_campaign(store)
        assert report["header"] == {"phase": "campaign", "seed": 3}
        assert report["candidates"] == [{"phase": "candidate", "i": 0}]

    def test_unknown_phase_still_raises(self, tmp_path):
        store = self._journal(tmp_path, '{"phase": "campaign"}\n{"phase": "bogus"}\n')
        with pytest.raises(ValueError, match="unknown phase 'bogus'"):
            read_campaign(store)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        store = self._journal(tmp_path, '{"phase": "campaign"}\n{broken\n'
                                        '{"phase": "candidate"}\n')
        with pytest.raises(ValueError, match=r"campaign\.jsonl:2"):
            read_campaign(store)
