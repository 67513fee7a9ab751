"""Bandwidth traces: synthetic, cellular-like, and wide-area link profiles.

The paper evaluates on 18 hand-constructed synthetic traces with fine-grained
bandwidth changes, 3 commercial LTE traces, and a global cloud testbed.  This
package generates equivalent workloads:

* :mod:`repro.traces.trace` — the :class:`BandwidthTrace` container.
* :mod:`repro.traces.synthetic` — 18 named synthetic traces (steps, pulses,
  sawtooths, ramps, square waves, ...).
* :mod:`repro.traces.cellular` — stochastic LTE-like traces standing in for
  the AT&T / Verizon / T-Mobile traces from Sprout.
* :mod:`repro.traces.realworld` — heterogeneous wide-area link profiles
  standing in for the Azure/CloudLab deployment of Section 6.4.
"""

from repro.traces.trace import BandwidthTrace
from repro.traces.synthetic import SYNTHETIC_TRACE_NAMES, make_synthetic_trace, synthetic_trace_suite
from repro.traces.cellular import CELLULAR_TRACE_NAMES, make_cellular_trace, cellular_trace_suite
from repro.traces.realworld import WANProfile, intercontinental_profiles, intracontinental_profiles

__all__ = [
    "BandwidthTrace",
    "SYNTHETIC_TRACE_NAMES",
    "make_synthetic_trace",
    "synthetic_trace_suite",
    "CELLULAR_TRACE_NAMES",
    "make_cellular_trace",
    "cellular_trace_suite",
    "WANProfile",
    "intracontinental_profiles",
    "intercontinental_profiles",
]
