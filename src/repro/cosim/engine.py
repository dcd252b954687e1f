"""Cycle-engine abstraction for the hardware/software co-simulation models.

Mirrors the :class:`~repro.core.backends.RetrievalBackend` protocol of the
reference engine: the stepwise cycle models
(:class:`~repro.hardware.retrieval_unit.HardwareRetrievalUnit` /
:class:`~repro.software.retrieval_sw.SoftwareRetrievalUnit` walking the word
image one access at a time) stay the golden reference, and a
:class:`CycleEngine` decides *how* a batch of retrieval runs is executed:

* :class:`StepwiseCycleEngine` -- one golden-model run per request;
* :class:`~repro.cosim.vectorized.VectorizedCycleEngine` -- the NumPy fast
  path that reproduces results *and* cycle/instruction/memory counters
  exactly (see that module for the accounting derivation).

Engines are stateless; all cached state lives on the case base -- its
encoded image with the request plans, and its shared columnar image --
kept current across revisions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..core.exceptions import ReproError
from ..core.request import FunctionRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..hardware.retrieval_unit import HardwareRetrievalResult, HardwareRetrievalUnit
    from ..memmap.image import RequestPlan
    from ..software.retrieval_sw import SoftwareRetrievalResult, SoftwareRetrievalUnit


class CycleEngine:
    """Execution strategy for batches of cycle-accurate retrieval runs.

    Both batch methods are all-or-nothing: an erroneous request (unknown
    function type, empty constraint list, attribute without a bounds entry)
    raises the same exception the sequential golden model raises at that
    request, and no partial results are returned.
    """

    name = "abstract"

    def hardware_batch(
        self, unit: "HardwareRetrievalUnit", requests: Sequence[FunctionRequest]
    ) -> List["HardwareRetrievalResult"]:
        """Execute one hardware retrieval run per request."""
        raise NotImplementedError

    def software_batch(
        self, unit: "SoftwareRetrievalUnit", requests: Sequence[FunctionRequest]
    ) -> List["SoftwareRetrievalResult"]:
        """Execute one software retrieval run per request."""
        raise NotImplementedError

    def hardware_cycles(
        self,
        unit: "HardwareRetrievalUnit",
        requests: Sequence[FunctionRequest],
        plans: Optional[Sequence["RequestPlan"]] = None,
    ) -> List[int]:
        """Exact hardware cycle count per request, without result assembly.

        This is the prediction half of :meth:`hardware_batch`, used by QoS
        layers (the serving admission controller) that need service times but
        not rankings.  The default derives the counts from full runs -- the
        golden semantics, which never read the requests' ``plans``; engines
        may override with an equivalent fast path.
        """
        return [result.cycles for result in self.hardware_batch(unit, requests)]

    def software_cycles(
        self,
        unit: "SoftwareRetrievalUnit",
        requests: Sequence[FunctionRequest],
        plans: Optional[Sequence["RequestPlan"]] = None,
    ) -> List[int]:
        """Exact software cycle count per request, without result assembly.

        The software-path counterpart of :meth:`hardware_cycles` (same QoS
        use, same default-derivation / fast-path-override contract).
        """
        return [result.cycles for result in self.software_batch(unit, requests)]


class StepwiseCycleEngine(CycleEngine):
    """The golden path: one full stepwise model walk per request."""

    name = "stepwise"

    def hardware_batch(
        self, unit: "HardwareRetrievalUnit", requests: Sequence[FunctionRequest]
    ) -> List["HardwareRetrievalResult"]:
        return [unit.run(request) for request in requests]

    def software_batch(
        self, unit: "SoftwareRetrievalUnit", requests: Sequence[FunctionRequest]
    ) -> List["SoftwareRetrievalResult"]:
        return [unit.run(request) for request in requests]


def _engines():
    """Late import of the vectorized engine (it imports the unit modules)."""
    from .vectorized import VectorizedCycleEngine

    return {
        StepwiseCycleEngine.name: StepwiseCycleEngine,
        VectorizedCycleEngine.name: VectorizedCycleEngine,
    }


#: One shared instance per engine name (engines are stateless); filled on
#: first resolution, so the per-batch resolution of the serving path is a
#: dictionary lookup.
_SHARED: Dict[str, CycleEngine] = {}


def resolve_cycle_engine(
    spec: Union[str, CycleEngine, None], *, prefer_vectorized: bool = True
) -> CycleEngine:
    """Turn an engine spec (name, instance or ``None``/"auto") into an engine.

    ``"auto"`` (and ``None``) selects the vectorized fast path unless the
    caller reports a configuration the fast path cannot serve (currently:
    FSM tracing), in which case the stepwise golden model is used.
    """
    if isinstance(spec, CycleEngine):
        return spec
    if spec is None or spec == "auto":
        spec = "vectorized" if prefer_vectorized else "stepwise"
    engine = _SHARED.get(spec)
    if engine is None:
        engines = _engines()
        try:
            factory = engines[spec]
        except KeyError as exc:
            known = sorted(engines) + ["auto"]
            raise ReproError(f"unknown cycle engine {spec!r}; known: {known}") from exc
        engine = _SHARED[spec] = factory()
    return engine
