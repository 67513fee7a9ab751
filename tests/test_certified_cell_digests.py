"""SHA-256 pins of whole certified cells: the learned controller's decisions
and every certificate array the post-run certify returns, as IEEE bytes.

Each cell runs the shared quick Canopy model fixture over a synthetic trace with
a runtime QC monitor installed, then certifies all its decisions at N=50 for
one property family (shallow, deep, robustness).  The 10 s run makes 50
decisions, so the verifier's 10-decision blocks fall on property edges; the
10.6 s run makes 53, so at least one 10-row stretch of the ``(P·D, N, d)``
stack crosses from one property into the next.  Changing how blocks are cut,
how the IBP kernel treats a block or how a decision is computed must leave
every digest as it is.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core.monitor import QCRuntimeMonitor
from repro.core.properties import shallow_buffer_properties
from repro.core.verifier import weighted_feedback
from repro.harness.evaluate import EvaluationSettings, certificates_for_decisions, run_scheme_on_trace, scheme_factory
from repro.harness.parallel import PROPERTY_FAMILIES
from repro.traces.synthetic import make_synthetic_trace

#: Every certificate array a certified cell reads or can read.
CERTIFICATE_ARRAYS = ("output_lo", "output_hi", "feedback", "input_lo", "input_hi")

#: run duration (s) -> SHA-256 of the run's DecisionRecords.
DECISION_DIGESTS = {
    10.0: "ecbb3b63e4cff9d800405e3dd39d652b63512279338adce9305df2e224cbc1bd",
    10.6: "043de819e4d4f9cee4021ffe19a39992efe4c44386624a151c4bb4dafefd9b6e",
}

#: (family, run duration) -> SHA-256 of the cell's certificate arrays.
CERTIFICATE_DIGESTS = {
    ("shallow", 10.0): "c64377b898cf7e08064bf696d6c64d303db9408fadc6596852b1d90aa05fb8b2",
    ("shallow", 10.6): "634c93ac195a9545e61bea15b8458a7dee0b302f23259a55cb1a005555fcd660",
    ("deep", 10.0): "6dfa1b32b0ae44a1e8672a8be113e1106503445b40d41c1c410b9d5508ca0c2e",
    ("deep", 10.6): "ec3e99128ca4683b3d467e43c9f7092882be759f09dfbea297ba3bc157d1dca6",
    ("robustness", 10.0): "d2ff48c7c93ff68d840495dc24cab909b17758e786b945f3aae3bcc93f52430e",
    ("robustness", 10.6): "a784e260af18511aae46a9554e2a46bf4387a8222bf620d3759aafed02667b56",
}

_CELLS: dict = {}


def _cell(model, duration):
    """The decisions of one monitored run and the monitor's certify calls, cached per duration."""
    if duration not in _CELLS:
        monitor = QCRuntimeMonitor(model.make_verifier(5), shallow_buffer_properties(), threshold=0.55)
        calls = []

        def recording_filter(state, cwnd_tcp, cwnd_prev):
            calls.append((state, cwnd_tcp, cwnd_prev))
            return monitor.decision_filter(state, cwnd_tcp, cwnd_prev)

        settings = EvaluationSettings(duration=duration, observation_noise=0.05, seed=3)
        factory = scheme_factory("canopy-shallow", model=model, observation_noise=settings.observation_noise,
                                 decision_filter=recording_filter, seed=settings.seed)
        result = run_scheme_on_trace(factory, make_synthetic_trace("flux-mid"), settings)
        _CELLS[duration] = (result.decisions, calls)
    return _CELLS[duration]


def _decision_digest(decisions):
    digest = hashlib.sha256()
    for decision in decisions:
        digest.update(struct.pack("<6d?", decision.time, decision.action, decision.cwnd_tcp, decision.cwnd_before,
                                  decision.cwnd_after, decision.qc_value, decision.used_fallback))
        digest.update(np.ascontiguousarray(decision.state, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _certificate_digest(batches):
    digest = hashlib.sha256()
    for name, batch in batches.items():
        digest.update(name.encode())
        for array in CERTIFICATE_ARRAYS:
            values = getattr(batch, array)
            assert values.dtype == np.float64
            digest.update(repr(values.shape).encode())
            digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("duration", sorted(DECISION_DIGESTS))
def test_decision_records_match_their_digest(quick_model, duration):
    decisions, calls = _cell(quick_model, duration)
    assert len(decisions) == {10.0: 50, 10.6: 53}[duration] == len(calls)
    assert any(decision.used_fallback for decision in decisions)
    assert not all(decision.used_fallback for decision in decisions)
    assert _decision_digest(decisions) == DECISION_DIGESTS[duration]


@pytest.mark.parametrize("family, duration", sorted(CERTIFICATE_DIGESTS))
def test_certificate_arrays_match_their_digest(quick_model, family, duration):
    decisions, _ = _cell(quick_model, duration)
    batches = certificates_for_decisions(quick_model.make_verifier(50), PROPERTY_FAMILIES[family](), decisions)
    assert all(batch.output_lo.shape == (len(decisions), 50) for batch in batches.values())
    assert _certificate_digest(batches) == CERTIFICATE_DIGESTS[(family, duration)]


@pytest.mark.xfail(strict=True, reason="the post-run certify gives decision 0 its own TCP window as the "
                                       "previous window; the monitor gives it the initial window")
def test_post_run_certify_agrees_with_the_runtime_monitor(quick_model):
    """Decision ``i`` is certified after the run with the windows the
    runtime monitor certified it with before it acted."""
    decisions, calls = _cell(quick_model, 10.0)
    properties = shallow_buffer_properties()
    post_run = certificates_for_decisions(quick_model.make_verifier(5), properties, decisions)
    for index, (state, cwnd_tcp, cwnd_prev) in enumerate(calls):
        live = quick_model.make_verifier(5).certify(properties, state, cwnd_tcp, cwnd_prev)
        for prop in properties:
            assert post_run[prop.name].output_lo[index].tobytes() == live[prop.name].output_lo[0].tobytes()
            assert post_run[prop.name].output_hi[index].tobytes() == live[prop.name].output_hi[0].tobytes()
        assert weighted_feedback(properties, live)[0] == decisions[index].qc_value
