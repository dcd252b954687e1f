"""Case base: the function-implementation tree of the paper (Fig. 3 / Fig. 5).

The case base is a two-level hierarchy:

* level 0 -- *function types*, identified by a global ``IDType`` (FIR equalizer,
  1D-FFT, ...);
* level 1 -- *implementation variants* of each type, identified by an
  implementation ID and annotated with the execution target (FPGA, DSP,
  general-purpose processor, ...), a set of QoS attributes and deployment
  metadata (bitstream / opcode size, reconfiguration time, area, power).

Each implementation corresponds to one *case* in CBR terminology; the attribute
set is the case description and the implementation identity (target plus
configuration data in the repository) is the solution.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .attributes import AttributeBounds, AttributeSchema, BoundsTable, Number
from .deltas import CaseBaseDelta, DeltaKind, DeltaLog
from .exceptions import CaseBaseError, DuplicateEntryError, UnknownFunctionTypeError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..memmap.image import DeltaTrackedImage
    from .columnar import TypeTables


class ExecutionTarget(enum.Enum):
    """Where an implementation variant executes (paper Fig. 1 / Fig. 3)."""

    FPGA = "fpga"
    DSP = "dsp"
    GPP = "gpp"
    ASIC = "asic"

    @property
    def is_reconfigurable(self) -> bool:
        """Whether deploying this variant requires FPGA reconfiguration."""
        return self is ExecutionTarget.FPGA

    @property
    def is_software(self) -> bool:
        """Whether the variant runs as a software task on a processor."""
        return self in (ExecutionTarget.GPP, ExecutionTarget.DSP)


@dataclass(frozen=True)
class DeploymentInfo:
    """Deployment metadata for one implementation variant.

    These fields are not used by the similarity computation; they feed the
    feasibility check of the allocation manager and the platform substrate
    (bitstream size determines reconfiguration time, area determines slot
    usage, and so on).
    """

    configuration_size_bytes: int = 0
    area_slices: int = 0
    power_mw: float = 0.0
    load_fraction: float = 0.0
    setup_time_us: float = 0.0

    def __post_init__(self) -> None:
        if self.configuration_size_bytes < 0:
            raise CaseBaseError("configuration size must be non-negative")
        if self.area_slices < 0:
            raise CaseBaseError("area must be non-negative")
        if self.power_mw < 0:
            raise CaseBaseError("power must be non-negative")
        if not 0.0 <= self.load_fraction <= 1.0:
            raise CaseBaseError("load fraction must be within [0, 1]")
        if self.setup_time_us < 0:
            raise CaseBaseError("setup time must be non-negative")


@dataclass
class Implementation:
    """One implementation variant (a *case*) of a basic function type.

    Parameters
    ----------
    implementation_id:
        Unique ID of the variant.  The paper allows system-global or
        type-local IDs; this library treats the ID as local to its function
        type and additionally exposes a global ``(type_id, implementation_id)``
        key through :meth:`CaseBase.global_key`.
    target:
        Execution target of the variant.
    attributes:
        Mapping of attribute ID to value -- the QoS description of the case.
    deployment:
        Optional deployment metadata for feasibility checks.
    name:
        Optional human readable label.
    """

    implementation_id: int
    target: ExecutionTarget
    attributes: Dict[int, Number] = field(default_factory=dict)
    deployment: DeploymentInfo = field(default_factory=DeploymentInfo)
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.implementation_id, int) or self.implementation_id <= 0:
            raise CaseBaseError(
                f"implementation ID must be a positive integer, got {self.implementation_id!r}"
            )
        if self.implementation_id >= 1 << 16:
            raise CaseBaseError(
                f"implementation ID {self.implementation_id} does not fit into 16 bits"
            )
        if not isinstance(self.target, ExecutionTarget):
            raise CaseBaseError(f"target must be an ExecutionTarget, got {self.target!r}")
        for attribute_id in self.attributes:
            if not isinstance(attribute_id, int) or attribute_id <= 0:
                raise CaseBaseError(
                    f"attribute IDs must be positive integers, got {attribute_id!r}"
                )

    def attribute_ids(self) -> List[int]:
        """Attribute IDs present in this implementation, in ascending order.

        The ascending order mirrors the pre-sorted list layout of the hardware
        implementation (Fig. 5) and is relied upon by the memory encoders.
        """
        return sorted(self.attributes)

    def sorted_attributes(self) -> List[Tuple[int, Number]]:
        """``(attribute_id, value)`` pairs pre-sorted by attribute ID."""
        return [(attribute_id, self.attributes[attribute_id]) for attribute_id in self.attribute_ids()]

    def get(self, attribute_id: int) -> Optional[Number]:
        """Value of the given attribute, or ``None`` if not described."""
        return self.attributes.get(attribute_id)

    def with_attributes(self, updates: Mapping[int, Number]) -> "Implementation":
        """Return a copy with some attribute values replaced/added."""
        merged = dict(self.attributes)
        merged.update(updates)
        return Implementation(
            implementation_id=self.implementation_id,
            target=self.target,
            attributes=merged,
            deployment=self.deployment,
            name=self.name,
        )


@dataclass
class FunctionType:
    """One basic function type (level-0 node of the implementation tree)."""

    type_id: int
    name: str = ""
    implementations: Dict[int, Implementation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.type_id, int) or self.type_id <= 0:
            raise CaseBaseError(f"function type ID must be a positive integer, got {self.type_id!r}")
        if self.type_id >= 1 << 16:
            raise CaseBaseError(f"function type ID {self.type_id} does not fit into 16 bits")

    def add(self, implementation: Implementation) -> Implementation:
        """Register an implementation variant; duplicate IDs are rejected."""
        if implementation.implementation_id in self.implementations:
            raise DuplicateEntryError(
                f"function type {self.type_id} already has implementation "
                f"{implementation.implementation_id}"
            )
        self.implementations[implementation.implementation_id] = implementation
        return implementation

    def remove(self, implementation_id: int) -> Implementation:
        """Remove and return an implementation variant."""
        try:
            return self.implementations.pop(implementation_id)
        except KeyError as exc:
            raise CaseBaseError(
                f"function type {self.type_id} has no implementation {implementation_id}"
            ) from exc

    def get(self, implementation_id: int) -> Implementation:
        """Look up an implementation variant by ID."""
        try:
            return self.implementations[implementation_id]
        except KeyError as exc:
            raise CaseBaseError(
                f"function type {self.type_id} has no implementation {implementation_id}"
            ) from exc

    def __contains__(self, implementation_id: int) -> bool:
        return implementation_id in self.implementations

    def __len__(self) -> int:
        return len(self.implementations)

    def __iter__(self) -> Iterator[Implementation]:
        return iter(self.sorted_implementations())

    def sorted_implementations(self) -> List[Implementation]:
        """Implementations pre-sorted by implementation ID (hardware list order)."""
        return [self.implementations[key] for key in sorted(self.implementations)]


class CaseBase:
    """The function-implementation tree (case base) queried by retrieval.

    The case base owns the attribute schema describing the attribute IDs that
    may appear in requests and implementations, and can derive (or be given)
    the design-global bounds table used by the similarity computation.
    """

    def __init__(
        self,
        schema: Optional[AttributeSchema] = None,
        bounds: Optional[BoundsTable] = None,
    ) -> None:
        self._types: Dict[int, FunctionType] = {}
        self.schema = schema if schema is not None else AttributeSchema()
        self._bounds = bounds
        #: Monotonically increasing revision counter.  Any structural change
        #: bumps it; bypass tokens snapshot the revision to detect staleness.
        self.revision = 0
        #: Structured mutation log: every revision bump appends one typed
        #: :class:`~repro.core.deltas.CaseBaseDelta`, letting subscribers
        #: (:class:`~repro.core.caching.RevisionTrackedCache` consumers) patch
        #: their derived state incrementally instead of rebuilding.
        self.delta_log = DeltaLog()
        self._type_tables: Optional["TypeTables"] = None
        self._encoded_image: Optional["DeltaTrackedImage"] = None

    @property
    def type_tables(self) -> "TypeTables":
        """The case base's one columnar image (:mod:`repro.core.columnar`),
        shared by every retrieval backend and cycle engine reading it."""
        if self._type_tables is None:
            from .columnar import TypeTables

            self._type_tables = TypeTables(self)
        return self._type_tables

    @property
    def encoded_image(self) -> "DeltaTrackedImage":
        """The case base's one encoded CB-MEM image
        (:class:`~repro.memmap.image.DeltaTrackedImage`), shared by the
        hardware and software retrieval units; returned current, together
        with :attr:`type_tables`.

        Raises :class:`~repro.core.exceptions.EncodingError` when the case
        base cannot be encoded (empty, or past 16-bit word addressing).
        """
        image = self._encoded_image
        if image is None:
            from ..memmap.image import DeltaTrackedImage

            image = self._encoded_image = DeltaTrackedImage(self)
        else:
            image.tracker.ensure_current()
        image.tables.tracker.ensure_current()
        return image

    # -- structure manipulation -------------------------------------------------

    def _touch(self, kind: DeltaKind, **payload: object) -> None:
        self.revision += 1
        self.delta_log.record(CaseBaseDelta(revision=self.revision, kind=kind, **payload))

    def add_type(self, function_type: Union[FunctionType, int], name: str = "") -> FunctionType:
        """Register a function type, given either an object or a bare ID."""
        if isinstance(function_type, int):
            function_type = FunctionType(type_id=function_type, name=name)
        if function_type.type_id in self._types:
            raise DuplicateEntryError(f"function type {function_type.type_id} already exists")
        self._types[function_type.type_id] = function_type
        self._touch(
            DeltaKind.ADD_TYPE,
            type_id=function_type.type_id,
            function_type=function_type,
        )
        return function_type

    def add_implementation(
        self, type_id: int, implementation: Implementation
    ) -> Implementation:
        """Add an implementation variant to an existing function type."""
        function_type = self.get_type(type_id)
        result = function_type.add(implementation)
        self._touch(
            DeltaKind.ADD_IMPLEMENTATION,
            type_id=type_id,
            implementation_id=implementation.implementation_id,
            implementation=implementation,
        )
        return result

    def remove_implementation(self, type_id: int, implementation_id: int) -> Implementation:
        """Remove an implementation variant (dynamic case-base update)."""
        function_type = self.get_type(type_id)
        result = function_type.remove(implementation_id)
        self._touch(
            DeltaKind.REMOVE_IMPLEMENTATION,
            type_id=type_id,
            implementation_id=implementation_id,
            previous=result,
        )
        return result

    def remove_type(self, type_id: int) -> FunctionType:
        """Remove a whole function type and all its implementations."""
        try:
            result = self._types.pop(type_id)
        except KeyError as exc:
            raise UnknownFunctionTypeError(type_id) from exc
        self._touch(DeltaKind.REMOVE_TYPE, type_id=type_id, function_type=result)
        return result

    def replace_implementation(
        self, type_id: int, implementation: Implementation
    ) -> Implementation:
        """Replace an existing implementation variant (used by the revise step)."""
        function_type = self.get_type(type_id)
        if implementation.implementation_id not in function_type:
            raise CaseBaseError(
                f"cannot replace implementation {implementation.implementation_id}: "
                f"not present in type {type_id}"
            )
        previous = function_type.implementations[implementation.implementation_id]
        function_type.implementations[implementation.implementation_id] = implementation
        self._touch(
            DeltaKind.REPLACE_IMPLEMENTATION,
            type_id=type_id,
            implementation_id=implementation.implementation_id,
            implementation=implementation,
            previous=previous,
        )
        return implementation

    # -- lookups ---------------------------------------------------------------

    def get_type(self, type_id: int) -> FunctionType:
        """Look up a function type; raise :class:`UnknownFunctionTypeError` if missing."""
        try:
            return self._types[type_id]
        except KeyError as exc:
            raise UnknownFunctionTypeError(type_id) from exc

    def get_implementation(self, type_id: int, implementation_id: int) -> Implementation:
        """Look up one implementation variant."""
        return self.get_type(type_id).get(implementation_id)

    def __contains__(self, type_id: int) -> bool:
        return type_id in self._types

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[FunctionType]:
        return iter(self.sorted_types())

    def sorted_types(self) -> List[FunctionType]:
        """Function types pre-sorted by type ID (hardware list order)."""
        return [self._types[key] for key in sorted(self._types)]

    def type_ids(self) -> List[int]:
        """All function type IDs in ascending order."""
        return sorted(self._types)

    def implementations(self, type_id: int) -> List[Implementation]:
        """All implementation variants of a type, pre-sorted by ID."""
        return self.get_type(type_id).sorted_implementations()

    def all_implementations(self) -> Iterator[Tuple[int, Implementation]]:
        """Iterate over ``(type_id, implementation)`` pairs of the whole tree."""
        for function_type in self.sorted_types():
            for implementation in function_type:
                yield function_type.type_id, implementation

    @staticmethod
    def global_key(type_id: int, implementation_id: int) -> int:
        """A system-global identifier combining type and implementation IDs."""
        return (type_id << 16) | implementation_id

    # -- statistics and bounds ---------------------------------------------------

    def attribute_ids(self) -> List[int]:
        """All attribute IDs appearing anywhere in the case base, ascending."""
        ids = set()
        for _, implementation in self.all_implementations():
            ids.update(implementation.attributes)
        return sorted(ids)

    def count_implementations(self) -> int:
        """Total number of implementation variants across all types."""
        return sum(len(function_type) for function_type in self._types.values())

    def count_attributes(self) -> int:
        """Total number of attribute entries across all implementations."""
        return sum(
            len(implementation.attributes)
            for _, implementation in self.all_implementations()
        )

    def derive_bounds(self, extra_observations: Optional[Mapping[int, Sequence[Number]]] = None) -> BoundsTable:
        """Derive the design-global bounds table from the case-base contents.

        ``extra_observations`` can widen the ranges with values expected in
        requests (the paper determines ``max d`` "at design time from all
        attributes of same type given by the implementation library").
        """
        observations: Dict[int, List[Number]] = {}
        for _, implementation in self.all_implementations():
            for attribute_id, value in implementation.attributes.items():
                observations.setdefault(attribute_id, []).append(value)
        if extra_observations:
            for attribute_id, values in extra_observations.items():
                observations.setdefault(attribute_id, []).extend(values)
        return BoundsTable.from_observations(observations)

    @property
    def bounds(self) -> BoundsTable:
        """The bounds table, deriving one from the contents if not set explicitly."""
        if self._bounds is None:
            return self.derive_bounds()
        return self._bounds

    @bounds.setter
    def bounds(self, table: Optional[BoundsTable]) -> None:
        self._bounds = table
        self._touch(DeltaKind.BOUNDS_CHANGED)

    @property
    def has_explicit_bounds(self) -> bool:
        """Whether the bounds table was set explicitly (vs derived on demand).

        Incremental consumers use this to decide whether structural mutations
        can shift the effective bounds: explicit tables only change through
        the ``bounds`` setter (a logged ``BOUNDS_CHANGED`` delta), while
        derived tables may move with any content change.
        """
        return self._bounds is not None

    # -- validation and (de)serialisation ----------------------------------------

    def validate(self) -> None:
        """Check internal consistency (IDs, schema coverage, bounds coverage)."""
        for function_type in self._types.values():
            for implementation in function_type.implementations.values():
                for attribute_id, value in implementation.attributes.items():
                    if len(self.schema) and attribute_id not in self.schema:
                        raise CaseBaseError(
                            f"implementation {implementation.implementation_id} of type "
                            f"{function_type.type_id} uses attribute {attribute_id} "
                            f"which is not in the schema"
                        )
                    if self._bounds is not None and attribute_id in self._bounds:
                        bound = self._bounds.get(attribute_id)
                        if not bound.contains(value):
                            raise CaseBaseError(
                                f"attribute {attribute_id} value {value} of implementation "
                                f"{implementation.implementation_id} (type {function_type.type_id}) "
                                f"is outside the design-global bounds [{bound.lower}, {bound.upper}]"
                            )

    def copy(self) -> "CaseBase":
        """Deep copy of the case base (schema and bounds objects are shared).

        The snapshot's mutation log starts empty, rebased at the copied
        revision: it stays consistent with the duplicated tree (whose
        implementation objects are fresh deep copies, not the ones referenced
        by the source's delta records) and post-copy mutations of the source
        can never leak deltas into the snapshot -- the staleness-snapshot
        idiom (``case_base.copy()`` before mutating) keeps working.
        """
        duplicate = CaseBase(schema=self.schema, bounds=self._bounds)
        duplicate._types = copy.deepcopy(self._types)
        duplicate.revision = self.revision
        duplicate.delta_log = DeltaLog(capacity=self.delta_log.capacity)
        duplicate.delta_log.rebase(self.revision)
        return duplicate

    def to_dict(self) -> Dict[str, object]:
        """Serialise the tree into plain dictionaries (for tooling and tests).

        The attribute schema and -- when explicitly set -- the design-global
        bounds table are included so that a deserialised case base reproduces
        identical similarity values.
        """
        schema_entries = [
            {
                "attribute_id": attribute_type.attribute_id,
                "name": attribute_type.name,
                "unit": attribute_type.unit,
                "symbols": list(attribute_type.symbols),
                "higher_is_better": attribute_type.higher_is_better,
                "description": attribute_type.description,
            }
            for attribute_type in self.schema
        ]
        bounds_entries = None
        if self._bounds is not None:
            bounds_entries = [
                {"attribute_id": bound.attribute_id, "lower": bound.lower, "upper": bound.upper}
                for bound in self._bounds
            ]
        return {
            "schema": schema_entries,
            "bounds": bounds_entries,
            "types": [
                {
                    "type_id": function_type.type_id,
                    "name": function_type.name,
                    "implementations": [
                        {
                            "implementation_id": implementation.implementation_id,
                            "target": implementation.target.value,
                            "name": implementation.name,
                            "attributes": dict(implementation.attributes),
                            "deployment": {
                                "configuration_size_bytes": implementation.deployment.configuration_size_bytes,
                                "area_slices": implementation.deployment.area_slices,
                                "power_mw": implementation.deployment.power_mw,
                                "load_fraction": implementation.deployment.load_fraction,
                                "setup_time_us": implementation.deployment.setup_time_us,
                            },
                        }
                        for implementation in function_type.sorted_implementations()
                    ],
                }
                for function_type in self.sorted_types()
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object], schema: Optional[AttributeSchema] = None) -> "CaseBase":
        """Rebuild a case base from :meth:`to_dict` output.

        An explicit ``schema`` argument overrides the serialised schema (useful
        when the caller already holds the platform-wide schema object).
        """
        if schema is None and data.get("schema"):
            from .attributes import AttributeType

            schema = AttributeSchema(
                AttributeType(
                    attribute_id=int(entry["attribute_id"]),
                    name=str(entry["name"]),
                    unit=str(entry.get("unit", "")),
                    symbols=tuple(entry.get("symbols", ())),
                    higher_is_better=bool(entry.get("higher_is_better", True)),
                    description=str(entry.get("description", "")),
                )
                for entry in data["schema"]  # type: ignore[union-attr]
            )
        bounds = None
        if data.get("bounds"):
            bounds = BoundsTable(
                AttributeBounds(int(entry["attribute_id"]), entry["lower"], entry["upper"])
                for entry in data["bounds"]  # type: ignore[union-attr]
            )
        case_base = cls(schema=schema, bounds=bounds)
        for type_entry in data.get("types", []):  # type: ignore[union-attr]
            function_type = case_base.add_type(
                int(type_entry["type_id"]), name=str(type_entry.get("name", ""))
            )
            for impl_entry in type_entry.get("implementations", []):
                deployment_entry = impl_entry.get("deployment", {})
                implementation = Implementation(
                    implementation_id=int(impl_entry["implementation_id"]),
                    target=ExecutionTarget(impl_entry["target"]),
                    name=str(impl_entry.get("name", "")),
                    attributes={int(k): v for k, v in impl_entry.get("attributes", {}).items()},
                    deployment=DeploymentInfo(
                        configuration_size_bytes=int(deployment_entry.get("configuration_size_bytes", 0)),
                        area_slices=int(deployment_entry.get("area_slices", 0)),
                        power_mw=float(deployment_entry.get("power_mw", 0.0)),
                        load_fraction=float(deployment_entry.get("load_fraction", 0.0)),
                        setup_time_us=float(deployment_entry.get("setup_time_us", 0.0)),
                    ),
                )
                function_type.add(implementation)
        return case_base
