"""Canopy core: property-driven learning with quantitative certificates.

This package implements the paper's primary contribution:

* :mod:`repro.core.properties` — the property language and the five concrete
  properties P1–P5 of Table 2 (shallow-buffer, deep-buffer, robustness).
* :mod:`repro.core.qc` — the quantitative certificate (QC) batch: per-component
  proofs plus the smoothed feedback of Eq. 6, as arrays over the certified
  decisions.
* :mod:`repro.core.verifier` — the abstract-interpretation verifier that
  propagates property input regions through the controller and the cwnd map.
* :mod:`repro.core.reward` — QC-shaped reward (Eq. 10) combining the raw Orca
  reward with the verifier feedback.
* :mod:`repro.core.trainer` — certification-in-the-loop TD3 training.
* :mod:`repro.core.monitor` — the runtime QC monitor and CUBIC fallback
  (Section 4.4).
* :mod:`repro.core.config` — bundled configuration presets for the three
  Canopy model families studied in the evaluation.
"""

from repro.core.properties import (
    ActionKind,
    PropertySpec,
    PropertySet,
    property_p1,
    property_p2,
    property_p3,
    property_p4_case_i,
    property_p4_case_ii,
    property_p5,
    shallow_buffer_properties,
    deep_buffer_properties,
    robustness_properties,
)
from repro.core.qc import CertificateBatch, CertificateSet
from repro.core.verifier import Verifier, VerifierConfig
from repro.core.reward import CanopyRewardShaper, ShapedReward
from repro.core.trainer import CanopyTrainer, TrainerConfig, TrainingResult
from repro.core.monitor import QCRuntimeMonitor
from repro.core.config import CanopyConfig
from repro.core.analysis import SatisfactionGrid, compare_controllers, property_report, satisfaction_grid

__all__ = [
    "ActionKind",
    "PropertySpec",
    "PropertySet",
    "property_p1",
    "property_p2",
    "property_p3",
    "property_p4_case_i",
    "property_p4_case_ii",
    "property_p5",
    "shallow_buffer_properties",
    "deep_buffer_properties",
    "robustness_properties",
    "CertificateBatch",
    "CertificateSet",
    "Verifier",
    "VerifierConfig",
    "CanopyRewardShaper",
    "ShapedReward",
    "CanopyTrainer",
    "TrainerConfig",
    "TrainingResult",
    "QCRuntimeMonitor",
    "CanopyConfig",
    "SatisfactionGrid",
    "satisfaction_grid",
    "property_report",
    "compare_controllers",
]
