"""The object-level IBP oracle the array domain in ``repro.abstract`` is pinned to.

A deliberately simple, one-object-at-a-time restatement of the verifier:

* :mod:`oracle.interval` — :class:`Interval` (closed ``[lo, hi]``) with the
  containment and overlap geometry of Eq. 6, and the scalar
  :func:`interval_feedback`;
* :mod:`oracle.ibp` — per-layer box transformers (affine, ReLU, tanh), the
  per-component :func:`split` and :func:`propagate_mlp` through a network;
* :mod:`oracle.certify` — :func:`certify_reference`: one component at a
  time through :func:`propagate_mlp`, for a given
  :class:`repro.core.verifier.Verifier`.

Every operation repeats the arithmetic of the production kernel's earlier
object-level form, so the ``np.array_equal`` pins in the test suite compare
the kernel against exactly those numbers.
"""

from oracle.certify import certify_reference
from oracle.ibp import affine, propagate_layer, propagate_mlp, propagate_sequential, relu, split, tanh
from oracle.interval import Interval, interval_feedback

__all__ = [
    "Interval",
    "interval_feedback",
    "affine",
    "relu",
    "tanh",
    "split",
    "propagate_layer",
    "propagate_sequential",
    "propagate_mlp",
    "certify_reference",
]
