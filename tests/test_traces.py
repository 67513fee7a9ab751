"""Tests for bandwidth traces: container, synthetic suite, cellular, WAN profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.cellular import CELLULAR_TRACE_NAMES, cellular_trace_suite, make_cellular_trace
from repro.traces.realworld import intercontinental_profiles, intracontinental_profiles
from repro.traces.synthetic import SYNTHETIC_TRACE_NAMES, make_synthetic_trace, synthetic_trace_suite
from repro.traces.trace import BandwidthTrace, mbps_to_pps, pps_to_mbps, read_mahimahi_trace, write_mahimahi_trace


class TestBandwidthTrace:
    def test_constant_trace(self):
        trace = BandwidthTrace.constant(48.0, duration=10.0)
        assert trace.capacity_mbps(0.0) == pytest.approx(48.0)
        assert trace.capacity_mbps(9.9) == pytest.approx(48.0)
        assert trace.mean_mbps == pytest.approx(48.0)

    def test_empty_segments_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace("bad", [])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace("bad", [(0.0, 10.0)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTrace("bad", [(1.0, -5.0)])

    def test_segment_lookup(self):
        trace = BandwidthTrace("steps", [(1.0, 10.0), (1.0, 20.0), (1.0, 30.0)])
        assert trace.capacity_mbps(0.5) == pytest.approx(10.0)
        assert trace.capacity_mbps(1.5) == pytest.approx(20.0)
        assert trace.capacity_mbps(2.5) == pytest.approx(30.0)

    def test_loop_wraps_around(self):
        trace = BandwidthTrace("loop", [(1.0, 10.0), (1.0, 20.0)], loop=True)
        assert trace.capacity_mbps(2.5) == pytest.approx(10.0)

    def test_no_loop_holds_last_value(self):
        trace = BandwidthTrace("hold", [(1.0, 10.0), (1.0, 20.0)], loop=False)
        assert trace.capacity_mbps(5.0) == pytest.approx(20.0)

    def test_negative_time_rejected(self):
        trace = BandwidthTrace.constant(10.0)
        with pytest.raises(ValueError):
            trace.capacity_mbps(-1.0)

    def test_mean_min_max(self):
        trace = BandwidthTrace("mix", [(1.0, 10.0), (3.0, 30.0)])
        assert trace.min_mbps == pytest.approx(10.0)
        assert trace.max_mbps == pytest.approx(30.0)
        assert trace.mean_mbps == pytest.approx((10.0 + 90.0) / 4.0)

    def test_unit_conversion_round_trip(self):
        assert pps_to_mbps(mbps_to_pps(48.0)) == pytest.approx(48.0)

    def test_bdp_packets(self):
        trace = BandwidthTrace.constant(12.0)
        bdp = trace.bdp_packets(0.1)
        assert bdp == pytest.approx(mbps_to_pps(12.0) * 0.1)

    def test_bdp_invalid_rtt(self):
        with pytest.raises(ValueError):
            BandwidthTrace.constant(12.0).bdp_packets(0.0)

    def test_scaled(self):
        trace = BandwidthTrace.constant(10.0).scaled(2.0)
        assert trace.mean_mbps == pytest.approx(20.0)
        with pytest.raises(ValueError):
            trace.scaled(0.0)

    def test_sample_length(self):
        trace = BandwidthTrace.constant(10.0, duration=2.0)
        samples = trace.sample(0.5)
        assert samples.shape == (4,)


def reference_capacity_mbps(trace, time):
    """The per-time lookup the vectorized one replaced (Python ``%`` and one
    ``searchsorted`` per call), kept as an independent oracle."""
    if time < 0:
        raise ValueError("time must be non-negative")
    cum = np.concatenate([[0.0], np.cumsum([seg[0] for seg in trace.segments])])
    duration = float(cum[-1])
    if trace.loop and duration > 0:
        time = time % duration
    elif time >= duration:
        return float(trace.segments[-1][1])
    index = int(np.searchsorted(cum, time, side="right")) - 1
    index = min(max(index, 0), len(trace.segments) - 1)
    return float(trace.segments[index][1])


def accumulated_tick_grid(n_ticks, dt=0.01):
    """Tick start times built the way the simulator builds them (``now += dt``)."""
    times, now = [], 0.0
    for _ in range(n_ticks):
        times.append(now)
        now += dt
    return times


def lookup_traces():
    looped = [make_synthetic_trace(name) for name in SYNTHETIC_TRACE_NAMES[:6]]
    looped += [make_cellular_trace(name, duration=12.0) for name in CELLULAR_TRACE_NAMES]
    looped.append(BandwidthTrace("bounds", [(0.25, 3.0), (0.5, 0.0), (0.25, 7.5)]))
    unlooped = [BandwidthTrace(f"{trace.name}-once", list(trace.segments), loop=False)
                for trace in looped]
    return looped + unlooped


class TestVectorizedLookup:
    @pytest.mark.parametrize("trace", lookup_traces(), ids=lambda trace: trace.name)
    def test_many_matches_scalar_and_reference(self, trace):
        # The accumulated tick grid runs past one full trace period, and the
        # segment boundaries (plus their next-period images) are hit exactly.
        n_ticks = int(trace.duration * 1.5 / 0.01) + 3
        boundaries = [float(t) for t in trace._cum] + [float(t) + trace.duration
                                                       for t in trace._cum]
        times = accumulated_tick_grid(n_ticks) + boundaries
        many = trace.capacity_mbps_many(times)
        scalar = np.array([trace.capacity_mbps(t) for t in times])
        reference = np.array([reference_capacity_mbps(trace, t) for t in times])
        assert np.array_equal(many, scalar)
        assert np.array_equal(many, reference)
        assert all(type(trace.capacity_mbps(t)) is float for t in times[:5])

    def test_sample_matches_reference(self):
        trace = make_cellular_trace(CELLULAR_TRACE_NAMES[0], duration=6.0)
        times = np.arange(0.0, 9.0, 0.01)
        assert np.array_equal(trace.sample(0.01, 9.0),
                              [reference_capacity_mbps(trace, t) for t in times])
        assert trace.sample(0.5, 0.0).shape == (0,)

    def test_boundary_belongs_to_next_segment(self):
        trace = BandwidthTrace("b", [(1.0, 5.0), (2.0, 7.0)], loop=False)
        assert list(trace.capacity_mbps_many([0.0, 1.0, 2.999, 3.0, 50.0])) == [
            5.0, 7.0, 7.0, 7.0, 7.0]

    def test_negative_time_rejected(self):
        trace = BandwidthTrace.constant(10.0)
        with pytest.raises(ValueError):
            trace.capacity_mbps_many([0.0, 1.0, -0.01])


class TestMahimahiFormat:
    def test_round_trip(self, tmp_path):
        trace = BandwidthTrace("rt", [(0.5, 12.0), (0.5, 24.0)])
        path = tmp_path / "trace.mm"
        write_mahimahi_trace(trace, path, duration=1.0)
        loaded = read_mahimahi_trace(path, bucket_ms=100.0)
        # Average rate should be preserved to within the packet-granularity error.
        assert loaded.mean_mbps == pytest.approx(trace.mean_mbps, rel=0.15)

    def test_read_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.mm"
        path.write_text("\n")
        with pytest.raises(ValueError):
            read_mahimahi_trace(path)


class TestSyntheticSuite:
    def test_suite_has_18_traces(self):
        assert len(SYNTHETIC_TRACE_NAMES) == 18
        assert len(synthetic_trace_suite()) == 18

    def test_subset(self):
        assert len(synthetic_trace_suite(subset=5)) == 5

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_synthetic_trace("no-such-trace")

    @pytest.mark.parametrize("name", SYNTHETIC_TRACE_NAMES)
    def test_each_trace_is_well_formed(self, name):
        trace = make_synthetic_trace(name)
        assert trace.duration >= 25.0
        assert trace.min_mbps >= 1.0
        assert trace.max_mbps <= 200.0

    def test_traces_vary_over_time(self):
        for name in ("step-12-48", "sawtooth-12-60", "flux-mid"):
            trace = make_synthetic_trace(name)
            samples = trace.sample(0.5)
            assert samples.std() > 1.0

    def test_deterministic_generation(self):
        a = make_synthetic_trace("flux-high").sample(0.5)
        b = make_synthetic_trace("flux-high").sample(0.5)
        assert np.allclose(a, b)


class TestCellularSuite:
    def test_three_carriers(self):
        assert len(CELLULAR_TRACE_NAMES) == 3
        assert len(cellular_trace_suite()) == 3

    def test_unknown_carrier_raises(self):
        with pytest.raises(KeyError):
            make_cellular_trace("cellular-nokia")

    @pytest.mark.parametrize("name", CELLULAR_TRACE_NAMES)
    def test_high_variability(self, name):
        trace = make_cellular_trace(name, duration=20.0)
        samples = trace.sample(0.1)
        assert samples.std() / samples.mean() > 0.2  # strongly variable
        assert samples.min() >= 0.1

    def test_deterministic(self):
        a = make_cellular_trace("cellular-att").sample(0.1, duration=5.0)
        b = make_cellular_trace("cellular-att").sample(0.1, duration=5.0)
        assert np.allclose(a, b)


class TestWANProfiles:
    def test_categories_and_counts(self):
        intra = intracontinental_profiles()
        inter = intercontinental_profiles()
        assert len(intra) == 4
        assert len(inter) == 5
        assert all(p.category == "intra" for p in intra)
        assert all(p.category == "inter" for p in inter)

    def test_rtt_span_matches_paper_range(self):
        rtts = [p.rtt_ms for p in intracontinental_profiles() + intercontinental_profiles()]
        assert min(rtts) >= 20.0
        assert max(rtts) <= 240.0

    def test_profile_trace_generation(self):
        profile = intercontinental_profiles()[0]
        trace = profile.make_trace(duration=5.0)
        assert trace.duration >= 4.9
        assert trace.mean_mbps > 1.0
        assert profile.min_rtt_s == pytest.approx(profile.rtt_ms / 1000.0)


@given(st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 200.0)), min_size=1, max_size=10),
       st.floats(0.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_capacity_lookup_always_within_trace_bounds(segments, time):
    trace = BandwidthTrace("prop", segments)
    value = trace.capacity_mbps(time)
    assert trace.min_mbps - 1e-9 <= value <= trace.max_mbps + 1e-9
