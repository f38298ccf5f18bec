"""Baseline methods compared against OpenIMA in the paper's evaluation.

Every baseline is a :class:`~repro.core.trainer.GraphTrainer` subclass that
registers itself (with metadata) in the unified method registry
:data:`repro.core.registry.METHODS` via the ``@register_method`` decorator,
so OpenIMA and the baselines are all constructed the same way
(``repro.core.registry.build_method``).
"""

from __future__ import annotations

from .oodgat import OODGATTrainer
from .opencon import OpenConTrainer, OpenConTwoStageTrainer
from .openldn import OpenLDNTrainer
from .openwgl import OpenWGLTrainer
from .orca import ORCATrainer, ORCAZMTrainer
from .simgcd import SimGCDTrainer
from .two_stage import InfoNCESupConCETrainer, InfoNCESupConTrainer, InfoNCETrainer

__all__ = [
    "OODGATTrainer",
    "OpenWGLTrainer",
    "ORCATrainer",
    "ORCAZMTrainer",
    "SimGCDTrainer",
    "OpenLDNTrainer",
    "OpenConTrainer",
    "OpenConTwoStageTrainer",
    "InfoNCETrainer",
    "InfoNCESupConTrainer",
    "InfoNCESupConCETrainer",
]
