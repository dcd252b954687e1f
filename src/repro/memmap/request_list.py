"""Encoding of the function-request list (paper Fig. 4, left).

The request description is stored as one linear list of 16-bit words:

====================== =============================================
word                    meaning
====================== =============================================
``0``                   desired function type ID
``1 + 3k``              attribute ID of constraint *k* (ascending IDs)
``2 + 3k``              attribute value of constraint *k*
``3 + 3k``              attribute weight of constraint *k* (UQ0.16)
last                    end-of-list NULL word
====================== =============================================

Attribute blocks are pre-sorted by ID, as required for the resume-search
optimisation of the retrieval algorithm (section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.exceptions import EncodingError
from ..core.request import FunctionRequest, RequestAttribute
from ..fixedpoint.qformat import QFormat, UQ0_16
from .ram import RamBlock
from .words import END_OF_LIST, WORD_BYTES, check_id, encode_value

#: Words per attribute block in the request list (ID, value, weight).
REQUEST_BLOCK_WORDS = 3


@dataclass(frozen=True)
class EncodedRequest:
    """An encoded request image plus the metadata needed to interpret it."""

    words: Tuple[int, ...]
    type_id: int
    attribute_count: int
    weight_format: QFormat = UQ0_16

    @property
    def size_words(self) -> int:
        """Image size in 16-bit words."""
        return len(self.words)

    @property
    def size_bytes(self) -> int:
        """Image size in bytes (Table 3, "memory consumption of request")."""
        return len(self.words) * WORD_BYTES

    def build_ram(self, name: str = "Req-MEM") -> RamBlock:
        """The request RAM preloaded with this image.

        The RAM is padded by one extra word so that a wide (pair) fetch of the
        terminating end-of-list entry stays within bounds.
        """
        return RamBlock.from_words(list(self.words), name=name, capacity=len(self.words) + 1)


def encode_request(request: FunctionRequest, weight_format: QFormat = UQ0_16) -> EncodedRequest:
    """Encode a :class:`FunctionRequest` into its Fig.-4 word image."""
    if len(request) == 0:
        raise EncodingError("cannot encode a request without constraining attributes")
    words: List[int] = [check_id(request.type_id, "function type ID")]
    for attribute in request.sorted_attributes():
        words.append(check_id(attribute.attribute_id, "attribute ID"))
        words.append(encode_value(attribute.value))
        words.append(weight_format.from_float(attribute.weight))
    words.append(END_OF_LIST)
    return EncodedRequest(
        words=tuple(words),
        type_id=request.type_id,
        attribute_count=len(request),
        weight_format=weight_format,
    )


def decode_request(
    words: Sequence[int], weight_format: QFormat = UQ0_16, requester: str = ""
) -> FunctionRequest:
    """Rebuild a :class:`FunctionRequest` from an encoded word image.

    The decoded weights are the quantised values; they are *not* renormalised
    so that encode/decode round trips expose exactly the quantisation the
    hardware sees.
    """
    if not words:
        raise EncodingError("request image is empty")
    type_id = words[0]
    if type_id == END_OF_LIST:
        raise EncodingError("request image starts with the end-of-list marker")
    attributes: List[RequestAttribute] = []
    index = 1
    previous_id = 0
    while True:
        if index >= len(words):
            raise EncodingError("request image is not terminated by an end-of-list word")
        attribute_id = words[index]
        if attribute_id == END_OF_LIST:
            break
        if index + 2 >= len(words):
            raise EncodingError("truncated attribute block in request image")
        if attribute_id <= previous_id:
            raise EncodingError(
                f"request attribute IDs are not strictly ascending at word {index}"
            )
        previous_id = attribute_id
        value = words[index + 1]
        weight = weight_format.to_float(words[index + 2])
        attributes.append(RequestAttribute(attribute_id, value, weight))
        index += REQUEST_BLOCK_WORDS
    return FunctionRequest(
        type_id, attributes, requester=requester, normalize_weights=False
    )


def request_size_words(attribute_count: int) -> int:
    """Analytic size of an encoded request: type ID + 3 words/attribute + terminator."""
    if attribute_count < 0:
        raise EncodingError("attribute count must be non-negative")
    return 1 + REQUEST_BLOCK_WORDS * attribute_count + 1


def request_size_bytes(attribute_count: int) -> int:
    """Analytic request footprint in bytes (64 bytes for the 10-attribute worst case)."""
    return request_size_words(attribute_count) * WORD_BYTES
