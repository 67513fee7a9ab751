"""Tests for ScenarioSpec: canonical round-trips and shared spec parsing."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.spec import (
    PROPERTY_FAMILIES,
    ScenarioSpec,
    parse_topologies,
    resolve_trace,
    trace_names,
    trace_subset,
)
from repro.topology.families import topology_family_specs
from repro.traces.cellular import CELLULAR_TRACE_NAMES
from repro.traces.synthetic import SYNTHETIC_TRACE_NAMES
from repro.workload.spec import workload_specs

FAMILY_SPECS = topology_family_specs() + ["chain(1)", "parking_lot(4)", "chain"]

WORKLOAD_SPECS = workload_specs() + ["responsive(bbr:3)", "poisson(0.5:vegas)",
                                     "step(1-3:2-)", "static"]


def _assert_round_trips(spec: ScenarioSpec) -> None:
    assert ScenarioSpec.parse(str(spec)) == spec
    assert ScenarioSpec.parse(spec.key()) == spec
    # JSON round-trip survives an actual serialize/deserialize cycle.
    assert ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec
    assert ScenarioSpec.parse(ScenarioSpec.from_json(spec.to_json()).key()) == spec


class TestRoundTripFuzz:
    def test_grid_of_families_traces_certify_combos(self):
        """parse→str→parse identity over all family specs × traces × certify
        combos (the store/resume currency must never drift)."""
        checked = 0
        families = [None] + sorted(PROPERTY_FAMILIES)
        for topology, trace, family in itertools.product(
                FAMILY_SPECS, trace_names(), families):
            _assert_round_trips(ScenarioSpec(scheme="cubic", trace=trace,
                                             topology=topology, seed=3))
            _assert_round_trips(ScenarioSpec(
                scheme="canopy", trace=trace, topology=topology, seed=7,
                model_kind="canopy-shallow",
                model_topologies=("single_bottleneck", "chain(2)"),
                property_family=family, certify=True))
            checked += 2
        assert checked == 2 * len(FAMILY_SPECS) * len(trace_names()) * len(families)

    @settings(max_examples=150, deadline=None)
    @given(
        scheme=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_.", min_size=1,
                       max_size=16),
        trace=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
                      max_size=16),
        topology=st.sampled_from(FAMILY_SPECS),
        workload=st.sampled_from(WORKLOAD_SPECS),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 2),
        certify=st.booleans(),
        family=st.sampled_from([None] + sorted(PROPERTY_FAMILIES)),
    )
    def test_fuzzed_specs_round_trip(self, scheme, trace, topology, workload, seed,
                                     certify, family):
        spec = ScenarioSpec(scheme=scheme, trace=trace, topology=topology,
                            workload=workload, seed=seed,
                            model_kind="canopy-deep" if certify else None,
                            property_family=family if certify else None,
                            certify=certify)
        _assert_round_trips(spec)


class TestValidation:
    def test_malformed_tokens_rejected(self):
        for text in ("scheme=cubic trace", "nonsense=1 scheme=cubic trace=t",
                     "scheme=cubic", "trace=t", "scheme=cubic trace=t scheme=c2",
                     "scheme=cubic trace=t certify=maybe"):
            with pytest.raises(ValueError):
                ScenarioSpec.parse(text)

    def test_bad_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scheme="cubic", trace="t", topology="mesh(9)")

    def test_topology_specs_canonicalized(self):
        # Whitespace-padded and default-hop forms name the same topology, so
        # they must share one key (and keep key() whitespace-free).
        padded = ScenarioSpec(scheme="cubic", trace="t", topology="chain( 3 )")
        assert padded.topology == "chain(3)"
        assert padded == ScenarioSpec(scheme="cubic", trace="t", topology="chain(3)")
        assert ScenarioSpec.parse(padded.key()) == padded
        bare = ScenarioSpec(scheme="cubic", trace="t", topology="chain")
        assert bare.topology == "chain(2)"
        catalog = ScenarioSpec(scheme="canopy", trace="t", model_kind="canopy-shallow",
                               model_topologies=("chain", "parking_lot( 2 )"))
        assert catalog.model_topologies == ("chain(2)", "parking_lot(2)")

    def test_workload_specs_canonicalized_and_elided_when_static(self):
        padded = ScenarioSpec(scheme="cubic", trace="t",
                              workload=" responsive( cubic:1 ) ")
        assert padded.workload == "responsive(cubic)"
        assert "workload=responsive(cubic)" in padded.key()
        assert ScenarioSpec.parse(padded.key()) == padded
        # The static default is elided, so every pre-workload key (and store
        # cell) keeps its exact identity.
        static = ScenarioSpec(scheme="cubic", trace="t")
        assert static.workload == "static"
        assert "workload" not in static.key()
        legacy_payload = static.to_json()
        legacy_payload.pop("workload")
        assert ScenarioSpec.from_json(legacy_payload) == static

    def test_bad_workload_rejected(self):
        for bad in ("surge(9)", "poisson()", "responsive(cubic:x)", "step(6-2)",
                    "poisson(-1)", "responsive(quic)"):
            with pytest.raises(ValueError):
                ScenarioSpec(scheme="cubic", trace="t", workload=bad)

    def test_certify_requires_model(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scheme="cubic", trace="t", certify=True)

    def test_model_topologies_require_model(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scheme="cubic", trace="t", model_topologies=("chain(2)",))

    def test_unknown_property_family_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scheme="canopy", trace="t", model_kind="canopy-shallow",
                         property_family="nope")

    def test_whitespace_in_fields_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(scheme="cu bic", trace="t")
        with pytest.raises(ValueError):
            ScenarioSpec(scheme="cubic", trace="a=b")

    def test_from_json_rejects_unknown_fields(self):
        payload = ScenarioSpec(scheme="cubic", trace="t").to_json()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ScenarioSpec.from_json(payload)


class TestReplace:
    def test_replace_revalidates_and_canonicalizes(self):
        spec = ScenarioSpec(scheme="cubic", trace="t")
        moved = spec.replace(topology="chain( 3 )", workload=" poisson( 0.25 ) ")
        assert moved.topology == "chain(3)"
        assert moved.workload == "poisson(0.25)"
        assert spec.topology == "single_bottleneck"  # original untouched

    def test_replace_round_trips_through_key(self):
        spec = ScenarioSpec(scheme="canopy", trace="t", model_kind="canopy-shallow",
                            certify=True, property_family="shallow")
        moved = spec.replace(seed=9, workload="responsive(cubic)")
        assert ScenarioSpec.parse(moved.key()) == moved
        assert moved.replace(seed=spec.seed, workload=spec.workload) == spec

    def test_replace_accepts_key_token_aliases(self):
        spec = ScenarioSpec(scheme="canopy", trace="t", model_kind="canopy-shallow")
        via_alias = spec.replace(model="canopy-deep", family="shallow")
        assert via_alias.model_kind == "canopy-deep"
        assert via_alias.property_family == "shallow"

    def test_replace_rejects_unknown_axis(self):
        spec = ScenarioSpec(scheme="cubic", trace="t")
        with pytest.raises(ValueError, match="workload"):
            spec.replace(bandwidth=12)

    def test_replace_rejects_alias_collision(self):
        spec = ScenarioSpec(scheme="canopy", trace="t", model_kind="canopy-shallow")
        with pytest.raises(ValueError, match="model"):
            spec.replace(model="canopy-deep", model_kind="canopy-deep")

    def test_replace_reruns_validation(self):
        spec = ScenarioSpec(scheme="cubic", trace="t")
        with pytest.raises(ValueError):
            spec.replace(topology="mesh(9)")
        with pytest.raises(ValueError):
            spec.replace(certify=True)  # classical cells cannot certify


class TestSharedParsing:
    def test_parse_topologies_string_and_sequence(self):
        assert parse_topologies(" single_bottleneck, chain(3) ") == \
            ("single_bottleneck", "chain(3)")
        assert parse_topologies(["dumbbell", "parking_lot(2)"]) == \
            ("dumbbell", "parking_lot(2)")

    def test_parse_topologies_validates_each_spec(self):
        with pytest.raises(ValueError):
            parse_topologies("single_bottleneck,mesh(9)")
        with pytest.raises(ValueError):
            parse_topologies(" , ")

    def test_resolve_trace_covers_both_suites(self):
        for name in (SYNTHETIC_TRACE_NAMES[0], CELLULAR_TRACE_NAMES[0]):
            assert resolve_trace(name).name == name
        with pytest.raises(ValueError, match="unknown trace"):
            resolve_trace("not-a-trace")

    def test_trace_subset(self):
        assert [t.name for t in trace_subset("synthetic", 2)] == \
            list(SYNTHETIC_TRACE_NAMES[:2])
        assert len(trace_subset("cellular", 1)) == 1
        with pytest.raises(ValueError, match="trace kind"):
            trace_subset("martian", 1)
