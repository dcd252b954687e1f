"""Function requests: the query side of CBR retrieval (paper Fig. 3 / Fig. 4 left).

A request names the desired basic function type and a -- possibly partial --
set of *constraining attributes*, each with a value and a weight.  The
weighting factors feed the weighted-sum amalgamation function of eq. 2; the
paper's example uses equal weights ``w_i = 1/3`` for its three constraints.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .attributes import AttributeSchema, Number
from .exceptions import RequestError


@dataclass(frozen=True)
class RequestAttribute:
    """One constraining attribute of a function request."""

    attribute_id: int
    value: Number
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.attribute_id, int) or self.attribute_id <= 0:
            raise RequestError(
                f"request attribute ID must be a positive integer, got {self.attribute_id!r}"
            )
        value = self.value
        if not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or math.isfinite(value)
        ):
            raise RequestError(
                f"attribute value must be a finite real number, got {value!r}"
            )
        if self.weight < 0:
            raise RequestError(f"attribute weight must be non-negative, got {self.weight}")
        if not math.isfinite(self.weight):
            raise RequestError(f"attribute weight must be finite, got {self.weight}")


class FunctionRequest:
    """A QoS-constrained request for one basic function type.

    Parameters
    ----------
    type_id:
        The requested basic function type (``IDType`` in the paper).
    attributes:
        The constraining attributes.  May be given as
        :class:`RequestAttribute` objects, as ``(attribute_id, value)`` pairs
        (weight defaults to 1) or as ``(attribute_id, value, weight)`` triples.
    requester:
        Optional identifier of the calling application (used by the allocation
        manager for bypass tokens and negotiation).
    normalize_weights:
        When true (the default) the stored weights are rescaled so they sum to
        one, matching the normalisation requirement of eq. 2.  Equal input
        weights therefore become ``1/n`` automatically, reproducing the
        ``w_i = 1/3`` of the paper's example.
    """

    def __init__(
        self,
        type_id: int,
        attributes: Iterable[Union[RequestAttribute, Tuple]] = (),
        *,
        requester: str = "",
        normalize_weights: bool = True,
    ) -> None:
        if not isinstance(type_id, int) or type_id <= 0:
            raise RequestError(f"function type ID must be a positive integer, got {type_id!r}")
        if type_id >= 1 << 16:
            raise RequestError(f"function type ID {type_id} does not fit into 16 bits")
        self.type_id = type_id
        self.requester = requester
        self._attributes: Dict[int, RequestAttribute] = {}
        self._signature: Optional[Tuple] = None
        self._kernel: Optional[Tuple] = None
        for entry in attributes:
            self.add(entry)
        if normalize_weights and self._attributes:
            self.normalize_weights()

    # -- construction -----------------------------------------------------------

    def add(self, entry: Union[RequestAttribute, Tuple, List]) -> RequestAttribute:
        """Add one constraining attribute (duplicates are rejected).

        Pairs/triples may be tuples or lists -- JSON deserialisation produces
        lists -- as long as they carry 2 or 3 entries.
        """
        if isinstance(entry, RequestAttribute):
            attribute = entry
        elif isinstance(entry, (tuple, list)) and len(entry) == 2:
            attribute = RequestAttribute(int(entry[0]), entry[1])
        elif isinstance(entry, (tuple, list)) and len(entry) == 3:
            attribute = RequestAttribute(int(entry[0]), entry[1], float(entry[2]))
        else:
            raise RequestError(
                f"cannot interpret request attribute entry {entry!r}; expected a "
                f"RequestAttribute, an (id, value) pair or an (id, value, weight) triple"
            )
        if attribute.attribute_id in self._attributes:
            raise RequestError(
                f"attribute {attribute.attribute_id} appears twice in the request"
            )
        self._attributes[attribute.attribute_id] = attribute
        self._signature = None
        self._kernel = None
        return attribute

    def normalize_weights(self) -> None:
        """Rescale weights in place so that they sum to one (eq. 2 requirement)."""
        total = sum(attribute.weight for attribute in self._attributes.values())
        if total <= 0:
            raise RequestError("cannot normalise weights: their sum is not positive")
        self._attributes = {
            attribute_id: RequestAttribute(
                attribute.attribute_id, attribute.value, attribute.weight / total
            )
            for attribute_id, attribute in self._attributes.items()
        }
        self._signature = None
        self._kernel = None

    # -- inspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, attribute_id: int) -> bool:
        return attribute_id in self._attributes

    def __iter__(self) -> Iterator[RequestAttribute]:
        return iter(self.sorted_attributes())

    def get(self, attribute_id: int) -> RequestAttribute:
        """Look up one constraining attribute by ID."""
        try:
            return self._attributes[attribute_id]
        except KeyError as exc:
            raise RequestError(f"request has no attribute {attribute_id}") from exc

    def attribute_ids(self) -> List[int]:
        """Constrained attribute IDs in ascending order (hardware list order)."""
        return sorted(self._attributes)

    def sorted_attributes(self) -> List[RequestAttribute]:
        """Constraining attributes pre-sorted by attribute ID."""
        return [self._attributes[attribute_id] for attribute_id in self.attribute_ids()]

    def values(self) -> Dict[int, Number]:
        """Mapping of attribute ID to requested value."""
        return {a.attribute_id: a.value for a in self._attributes.values()}

    def weights(self) -> Dict[int, float]:
        """Mapping of attribute ID to (normalised) weight."""
        return {a.attribute_id: a.weight for a in self._attributes.values()}

    def total_weight(self) -> float:
        """Sum of all weights (1.0 after normalisation)."""
        return sum(a.weight for a in self._attributes.values())

    def signature(self) -> Tuple:
        """Hashable signature of the request: its exact type, attribute IDs,
        values and weights.

        Two requests share a signature only when every one of those is
        equal, so anything derived from the content alone -- bypass tokens,
        request plans, batch grouping -- may key on it.  Memoized: requests
        are only mutated through :meth:`add` / :meth:`normalize_weights`,
        which invalidate the memo.
        """
        if self._signature is None:
            self._signature = (
                self.type_id,
                tuple(
                    (a.attribute_id, a.value, a.weight)
                    for a in self.sorted_attributes()
                ),
            )
        return self._signature

    def kernel_inputs(self) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[float, ...]]:
        """Memoized ``(attribute IDs, float values, normalised weights)`` triple.

        The batch-retrieval hot path consumes exactly these three vectors per
        request; like :meth:`signature` they are computed once per request
        state (mutations through :meth:`add` / :meth:`normalize_weights`
        invalidate the memo).  Weight normalisation delegates to
        :meth:`AmalgamationFunction._normalised_weights
        <repro.core.amalgamation.AmalgamationFunction._normalised_weights>`
        -- the canonical eq.-2 arithmetic -- so cached weights can never
        drift from the golden scalar path (nor can its error behaviour for
        all-zero weights).
        """
        if self._kernel is None:
            from .amalgamation import AmalgamationFunction

            attributes = self.sorted_attributes()
            self._kernel = (
                tuple(a.attribute_id for a in attributes),
                tuple(float(a.value) for a in attributes),
                tuple(
                    AmalgamationFunction._normalised_weights(
                        [a.weight for a in attributes]
                    )
                ),
            )
        return self._kernel

    def relaxed(self, factors: Mapping[int, float]) -> "FunctionRequest":
        """Return a relaxed copy of this request.

        ``factors`` maps attribute IDs to multiplicative relaxation factors
        applied to the requested value (e.g. ``{4: 0.5}`` halves the required
        sampling rate).  Attributes not mentioned are kept unchanged.  This is
        the mechanism behind the paper's "the application has to repeat its
        request with rather relaxed constraints".
        """
        relaxed_attributes = []
        for attribute in self.sorted_attributes():
            factor = factors.get(attribute.attribute_id)
            value = attribute.value if factor is None else attribute.value * factor
            relaxed_attributes.append(
                RequestAttribute(attribute.attribute_id, value, attribute.weight)
            )
        return FunctionRequest(
            self.type_id,
            relaxed_attributes,
            requester=self.requester,
            normalize_weights=False,
        )

    def without(self, attribute_ids: Sequence[int]) -> "FunctionRequest":
        """Return a copy with some constraints dropped (and weights renormalised)."""
        remaining = [
            attribute
            for attribute in self.sorted_attributes()
            if attribute.attribute_id not in set(attribute_ids)
        ]
        if not remaining:
            return FunctionRequest(self.type_id, (), requester=self.requester)
        return FunctionRequest(
            self.type_id, remaining, requester=self.requester, normalize_weights=True
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        attributes = ", ".join(
            f"{a.attribute_id}={a.value}(w={a.weight:.3f})" for a in self.sorted_attributes()
        )
        return f"FunctionRequest(type={self.type_id}, [{attributes}])"


class RequestBuilder:
    """Fluent builder for requests using attribute *names* from a schema.

    Example
    -------
    >>> from repro.core.attributes import paper_schema
    >>> builder = RequestBuilder(paper_schema(), type_id=1)
    >>> request = (builder.constrain("bitwidth", 16)
    ...                    .constrain("output_mode", "stereo")
    ...                    .constrain("sampling_rate", 40)
    ...                    .build())
    >>> request.attribute_ids()
    [1, 3, 4]
    """

    def __init__(self, schema: AttributeSchema, type_id: int, requester: str = "") -> None:
        self._schema = schema
        self._type_id = type_id
        self._requester = requester
        self._entries: List[RequestAttribute] = []

    def constrain(
        self, name: str, value: Union[Number, str], weight: float = 1.0
    ) -> "RequestBuilder":
        """Add a constraint by attribute name; symbol values are translated."""
        attribute_type = self._schema.by_name(name)
        self._entries.append(
            RequestAttribute(attribute_type.attribute_id, attribute_type.coerce(value), weight)
        )
        return self

    def build(self, normalize_weights: bool = True) -> FunctionRequest:
        """Construct the request."""
        return FunctionRequest(
            self._type_id,
            self._entries,
            requester=self._requester,
            normalize_weights=normalize_weights,
        )


def paper_request() -> FunctionRequest:
    """The FIR-equalizer request of the paper's example (Fig. 3).

    Desired type 1 with bitwidth 16 (attribute 1), stereo output (attribute 3,
    symbol value 1) and 40 kSamples/s (attribute 4); equal weights.
    """
    return FunctionRequest(
        type_id=1,
        attributes=[(1, 16), (3, 1), (4, 40)],
        requester="audio-app",
    )
