"""Abstract interpretation substrate for Canopy.

This package implements the box (hyper-interval) abstract domain used by the
Canopy verifier (Section 3.2 of the paper) as arrays, with one interval bound
propagation (IBP) kernel through the controller network and sound
transformers for the ``2^(2a) * cwnd`` post-network computation (Eq. 1).

The key objects are:

* :class:`repro.abstract.box.Box` — the (center, deviation) representation of
  a stack of ``m``-dimensional hyper-intervals used for abstract states ``s#``,
  and :func:`repro.abstract.box.split_bounds`, the one partition of bare
  ``lo``/``hi`` bounds into QC components.
* :func:`repro.abstract.propagate.propagate_mlp_batched` — IBP through a
  :class:`repro.nn.mlp.MLP`, all components of all decisions in one call.
* :func:`repro.abstract.transformers.checked_action_arrays` — the cwnd map and
  the checked action (Δcwnd or the fractional cwnd change) on the action
  box's ``center``/``deviation`` arrays.
"""

from repro.abstract.box import Box
from repro.abstract.propagate import propagate_mlp_batched

__all__ = [
    "Box",
    "propagate_mlp_batched",
]
