"""QC-shaped reward (the unconstrained objective of Eq. 10).

The Canopy trainer replaces the raw Orca reward ``R`` with::

    r_total = (1 − λ) · r_raw + λ · r_verifier

where ``r_verifier`` is the weighted-average QC feedback over the trained
property set (Eq. 7).  ``λ = 0`` recovers plain Orca; ``λ → 1`` trains purely
for worst-case property adherence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.properties import PropertySet
from repro.core.verifier import Verifier, weighted_feedback

__all__ = ["ShapedReward", "CanopyRewardShaper"]


@dataclass(frozen=True)
class ShapedReward:
    """The decomposition of one shaped reward value."""

    total: float
    raw: float
    verifier: float
    lam: float
    per_property: Dict[str, float]


class CanopyRewardShaper:
    """Combines the raw reward with verifier feedback at every decision step."""

    def __init__(self, verifier: Verifier, properties: PropertySet, lam: float = 0.25) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lambda must be in [0, 1]")
        self.verifier = verifier
        self.properties = properties
        self.lam = float(lam)

    def shape(self, raw_reward: float, state: np.ndarray, cwnd_tcp: float, cwnd_prev: float) -> ShapedReward:
        """Compute Eq. 10 for one step and return the decomposition."""
        certificates = self.verifier.certify(self.properties, state, cwnd_tcp, cwnd_prev)
        verifier_reward, per_property = weighted_feedback(self.properties, certificates)
        total = (1.0 - self.lam) * raw_reward + self.lam * verifier_reward
        return ShapedReward(
            total=float(total),
            raw=float(raw_reward),
            verifier=float(verifier_reward),
            lam=self.lam,
            per_property=per_property,
        )
