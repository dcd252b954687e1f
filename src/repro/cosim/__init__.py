"""Cycle-engine co-simulation layer: batch execution of the cycle models.

Mirrors the pluggable-backend design of :mod:`repro.core.backends` for the
cycle-accurate hardware and software retrieval models: the stepwise models
remain the golden reference, and :class:`VectorizedCycleEngine` reproduces
their results *and* their exact cycle/instruction/memory-read counters from
the case base's shared columnar image (:mod:`repro.core.columnar`), orders
of magnitude faster on scenario-scale batches.
"""

from .engine import CycleEngine, StepwiseCycleEngine, resolve_cycle_engine
from .vectorized import VectorizedCycleEngine

__all__ = [
    "CycleEngine",
    "StepwiseCycleEngine",
    "VectorizedCycleEngine",
    "resolve_cycle_engine",
]
