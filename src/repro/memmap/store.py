"""Persistent on-disk case-base images reopened through :func:`numpy.memmap`.

Million-implementation case bases pay their encode cost twice on every
process start: once for the CB-MEM word image (when it fits the 16-bit
address space at all) and once for the case base's columnar image (the
per-type :class:`~repro.core.columnar.TypeTable` every vectorized path
reads) -- both O(implementations x attributes) Python loops.
:class:`ImageStore` persists the finished artefacts instead:

* each type table's arrays (implementation IDs, attribute IDs, presence,
  values, holder and prefix counts; layout 2) land as raw little-endian
  array files and reopen as zero-copy ``numpy.memmap`` views that
  :meth:`ReopenedImage.install` seeds into the case base's shared image;
* the encoded CB-MEM words (implementation tree + supplemental list) land
  as ``uint16`` files and reopen into a
  :class:`~repro.memmap.image.CaseBaseImage` whose address map is walked
  lazily on first access.  Case bases whose tree overflows the hardware's
  16-bit word addressing (roughly 3 000 ten-attribute implementations)
  skip this part automatically -- out-of-core scale is exactly where only
  the columnar tables matter.

The on-disk layout is versioned and keyed: a ``manifest.json`` -- written
last via the journal's temp-file + fsync + atomic-rename idiom, so a crash
mid-save leaves either the old store or the new one, never a torn mix --
records the layout version, the source :attr:`CaseBase.revision`, a cheap
structural fingerprint, and per-file byte sizes plus content hashes.  A
reopen succeeds only when version, revision, fingerprint and sizes all
match; anything else reports ``miss`` or ``stale`` and the caller rebuilds.
Array files are prefixed with their revision so a crash between array
writes and the manifest rename can never corrupt the previous generation.

Reopen cost is O(types + attribute columns), not O(implementations): the
tables are mapped, not read, and even their per-column counts are stored.
Views are mapped copy-on-write
(``mode="c"``), so later delta patches touch private pages and the store
stays byte-stable until the next explicit :meth:`ImageStore.save`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.backends import VectorizedBackend
from ..core.case_base import CaseBase
from ..core.columnar import TypeTable
from ..core.exceptions import EncodingError, ReproError
from ..fixedpoint.qformat import QFormat
from .image import CaseBaseImage
from .implementation_tree import (
    IMPLEMENTATION_BLOCK_WORDS,
    TYPE_BLOCK_WORDS,
    EncodedImplementationTree,
    TreeAddressMap,
)
from .supplemental_list import SUPPLEMENTAL_BLOCK_WORDS, EncodedSupplementalList
from .words import END_OF_LIST

#: Bump on any incompatible change to the file formats or manifest schema;
#: stores written by other versions reopen as ``stale``.
LAYOUT_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: ``(file suffix, attribute name, dtype, 2-D)`` of the per-type table files;
#: 1-D parts run over implementations (``impl_ids``) or columns, 2-D parts
#: are ``(columns, implementations)``.
_TABLE_PARTS: Tuple[Tuple[str, str, np.dtype, bool], ...] = (
    ("ids.i64", "impl_ids", np.dtype("<i8"), False),
    ("attributes.i64", "attribute_ids", np.dtype("<i8"), False),
    ("present.u8", "present", np.dtype("|b1"), True),
    ("values.f64", "values", np.dtype("<f8"), True),
    ("holders.i64", "holders", np.dtype("<i8"), False),
    ("below.i64", "below", np.dtype("<i8"), False),
)

_WORD_DTYPE = np.dtype("<u2")


def structure_fingerprint(case_base: CaseBase) -> str:
    """A cheap structural fingerprint of a case base, O(types + attributes).

    Together with :attr:`CaseBase.revision` this keys the persistent image:
    the revision catches mutations of one live case base, the fingerprint
    catches a *different* case base that happens to share a revision number
    (two freshly loaded dumps both sit at their post-load revision).  It
    deliberately summarises structure -- per-type implementation counts,
    schema and bounds -- rather than hashing every attribute cell, so the
    reopen check stays O(1) in the implementation count.
    """
    bounds = [
        (bound.attribute_id, bound.lower, bound.upper) for bound in case_base.bounds
    ]
    types = [
        (function_type.type_id, function_type.name, len(function_type.implementations))
        for function_type in case_base.sorted_types()
    ]
    digest = hashlib.sha256(
        json.dumps({"bounds": bounds, "types": types}, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()


def _tree_address_map(words) -> TreeAddressMap:
    """Walk a reopened word image into its address map (lazy, tests/tooling)."""
    implementation_lists: Dict[int, int] = {}
    attribute_lists: Dict[Tuple[int, int], int] = {}
    index = 0
    while words[index] != END_OF_LIST:
        type_id = int(words[index])
        pointer = int(words[index + 1])
        implementation_lists[type_id] = pointer
        cursor = pointer
        while words[cursor] != END_OF_LIST:
            attribute_lists[(type_id, int(words[cursor]))] = int(words[cursor + 1])
            cursor += IMPLEMENTATION_BLOCK_WORDS
        index += TYPE_BLOCK_WORDS
    return TreeAddressMap(
        type_list=0,
        implementation_lists=implementation_lists,
        attribute_lists=attribute_lists,
    )


@dataclasses.dataclass
class ReopenedImage:
    """One successful O(1) reopen: memmap-backed type tables plus CB-MEM image."""

    revision: int
    #: ``type_id -> table`` over copy-on-write views of the store files.
    tables: Dict[int, TypeTable]
    #: The reopened CB-MEM image, or ``None`` when the store skipped the
    #: word image (tree overflowed 16-bit addressing, or empty case base).
    image: Optional[CaseBaseImage]

    def install(self, engine) -> bool:
        """Seed the shared columnar image of ``engine``'s case base.

        Every consumer of that case base (this engine's vectorized backend,
        the retrieval units' cycle engines) then reads the reopened tables
        instead of encoding its types.  Returns ``False`` (and changes
        nothing) when the engine runs a backend that reads no tables, or
        when the case base moved past :attr:`revision` since the reopen.
        """
        if not isinstance(engine.backend, VectorizedBackend):
            return False
        if engine.case_base.revision != self.revision:
            return False
        engine.case_base.type_tables.seed(self.tables)
        return True


class ImageStore:
    """One directory of persistent, revision-keyed case-base images.

    Parameters
    ----------
    directory:
        Store root; created on first :meth:`save`.
    registry:
        Optional :class:`~repro.observability.registry.MetricsRegistry`; when
        given, every reopen attempt books one ``repro_image_reopens_total``
        increment labelled ``hit`` / ``miss`` / ``stale``.
    """

    def __init__(self, directory, registry=None) -> None:
        self.directory = Path(directory)
        self.registry = registry

    # -- saving ------------------------------------------------------------------------

    def save(
        self,
        case_base: CaseBase,
        *,
        include_words: str = "auto",
    ) -> dict:
        """Persist the case base's images; returns the written manifest.

        The type tables come from the case base's shared columnar image
        (types it has not built yet are built there).  ``include_words``
        selects the CB-MEM word image: ``"auto"``
        drops it silently when the tree cannot encode (address overflow /
        empty case base), ``"always"`` propagates those errors, ``"never"``
        skips it outright.
        """
        if include_words not in ("auto", "always", "never"):
            raise ReproError(
                f"include_words must be 'auto', 'always' or 'never', got {include_words!r}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        revision = case_base.revision
        prefix = f"r{revision}-"
        manifest: Dict[str, object] = {
            "layout": LAYOUT_VERSION,
            "revision": revision,
            "fingerprint": structure_fingerprint(case_base),
            "tree": None,
            "supplemental": None,
            "types": [],
        }

        image: Optional[CaseBaseImage] = None
        if include_words != "never":
            try:
                image = CaseBaseImage(case_base)
            except EncodingError:
                if include_words == "always":
                    raise
        if image is not None:
            tree_array = np.asarray(image.tree.words, dtype=_WORD_DTYPE)
            manifest["tree"] = {
                "file": f"{prefix}tree.u16",
                "words": int(tree_array.size),
                "type_count": image.tree.type_count,
                "implementation_count": image.tree.implementation_count,
                "attribute_entry_count": image.tree.attribute_entry_count,
                **self._write_array(f"{prefix}tree.u16", tree_array),
            }
            supplemental_array = np.asarray(image.supplemental.words, dtype=_WORD_DTYPE)
            manifest["supplemental"] = {
                "file": f"{prefix}supplemental.u16",
                "words": int(supplemental_array.size),
                "qformat": [
                    image.supplemental.fraction_format.integer_bits,
                    image.supplemental.fraction_format.fraction_bits,
                    image.supplemental.fraction_format.signed,
                ],
                **self._write_array(f"{prefix}supplemental.u16", supplemental_array),
            }

        keep = {MANIFEST_NAME}
        if image is not None:
            keep.update((f"{prefix}tree.u16", f"{prefix}supplemental.u16"))
        tables = case_base.type_tables
        for function_type in case_base.sorted_types():
            type_id = function_type.type_id
            table = tables.table(type_id)
            entry: Dict[str, object] = {
                "type_id": type_id,
                "rows": table.implementation_count,
                "columns": int(table.attribute_ids.shape[0]),
                "files": {},
            }
            for suffix, attribute, dtype, _ in _TABLE_PARTS:
                name = f"{prefix}type{type_id}-{suffix}"
                array = np.ascontiguousarray(getattr(table, attribute), dtype=dtype)
                entry["files"][attribute] = {
                    "file": name,
                    **self._write_array(name, array),
                }
                keep.add(name)
            manifest["types"].append(entry)

        self._write_manifest(manifest)
        # Previous-revision array files are dead once the new manifest is
        # durable (the journal's delete-after-commit discipline).
        for path in self.directory.iterdir():
            if path.name not in keep and not path.name.endswith(".tmp"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best-effort housekeeping
                    pass
        return manifest

    def _write_array(self, name: str, array: np.ndarray) -> Dict[str, object]:
        """Write one raw array file atomically; returns its size + hash record."""
        data = array.tobytes()
        path = self.directory / name
        temp_path = path.with_name(path.name + ".tmp")
        with open(temp_path, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
        return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}

    def _write_manifest(self, manifest: Dict[str, object]) -> None:
        path = self.directory / MANIFEST_NAME
        temp_path = path.with_name(path.name + ".tmp")
        with open(temp_path, "w", encoding="utf-8") as stream:
            json.dump(manifest, stream, sort_keys=True, indent=1)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
        self._fsync_directory()

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- reopening ---------------------------------------------------------------------

    def open(self, case_base: CaseBase) -> Optional[ReopenedImage]:
        """Reopen the stored image for ``case_base``; ``None`` on miss/stale."""
        outcome, reopened = self._load(case_base)
        self._count(outcome)
        return reopened

    def open_or_build(self, case_base: CaseBase) -> Tuple[ReopenedImage, str]:
        """Reopen when current, otherwise save and reopen; returns the outcome.

        The outcome string reports the *initial* probe (``hit`` / ``miss`` /
        ``stale``), which is also what the reopen counter books -- a rebuild
        triggered here is a consequence of that probe, not a second event.
        """
        outcome, reopened = self._load(case_base)
        self._count(outcome)
        if reopened is None:
            self.save(case_base)
            _, reopened = self._load(case_base)
            if reopened is None:  # pragma: no cover - save/_load invariant broken
                raise ReproError(f"image store at {self.directory} failed to reopen after save")
        return reopened, outcome

    def _count(self, outcome: str) -> None:
        if self.registry is None:
            return
        from ..observability import catalog

        catalog.image_reopens(self.registry).labels(outcome=outcome).inc()

    def _load(self, case_base: CaseBase) -> Tuple[str, Optional[ReopenedImage]]:
        manifest_path = self.directory / MANIFEST_NAME
        try:
            with open(manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except (OSError, ValueError):
            return "miss", None
        if (
            manifest.get("layout") != LAYOUT_VERSION
            or manifest.get("revision") != case_base.revision
            or manifest.get("fingerprint") != structure_fingerprint(case_base)
        ):
            return "stale", None
        try:
            tables = self._reopen_tables(manifest, case_base)
            image = self._reopen_image(manifest, case_base)
        except _StaleStore:
            return "stale", None
        return "hit", ReopenedImage(
            revision=case_base.revision, tables=tables, image=image
        )

    def _mapped(self, record: Dict[str, object], dtype: np.dtype, shape) -> np.ndarray:
        path = self.directory / record["file"]
        try:
            size = path.stat().st_size
        except OSError:
            raise _StaleStore(record["file"])
        if size != record["bytes"] or size != int(np.prod(shape)) * dtype.itemsize:
            raise _StaleStore(record["file"])
        if size == 0:
            return np.empty(shape, dtype=dtype)
        return np.memmap(path, dtype=dtype, mode="c", shape=tuple(shape))

    def _reopen_tables(
        self, manifest: Dict[str, object], case_base: CaseBase
    ) -> Dict[int, TypeTable]:
        tables: Dict[int, TypeTable] = {}
        seen = set()
        for entry in manifest["types"]:
            type_id = int(entry["type_id"])
            seen.add(type_id)
            if type_id not in case_base:
                raise _StaleStore(f"type {type_id}")
            implementations = case_base.get_type(type_id).sorted_implementations()
            rows = int(entry["rows"])
            if len(implementations) != rows:
                raise _StaleStore(f"type {type_id} rows")
            columns = int(entry["columns"])
            views = {}
            for _, attribute, dtype, dense in _TABLE_PARTS:
                shape = (
                    (columns, rows) if dense else (rows if attribute == "impl_ids" else columns,)
                )
                views[attribute] = self._mapped(entry["files"][attribute], dtype, shape)
            tables[type_id] = TypeTable(type_id, implementations, **views)
        if any(
            function_type.type_id not in seen
            for function_type in case_base.sorted_types()
        ):
            raise _StaleStore("missing type")
        return tables

    def _reopen_image(
        self, manifest: Dict[str, object], case_base: CaseBase
    ) -> Optional[CaseBaseImage]:
        tree_record = manifest.get("tree")
        supplemental_record = manifest.get("supplemental")
        if tree_record is None or supplemental_record is None:
            return None
        tree_words = self._mapped(tree_record, _WORD_DTYPE, (int(tree_record["words"]),))
        tree = EncodedImplementationTree(
            words=tree_words,
            address_map_factory=lambda: _tree_address_map(tree_words),
            type_count=int(tree_record["type_count"]),
            implementation_count=int(tree_record["implementation_count"]),
            attribute_entry_count=int(tree_record["attribute_entry_count"]),
        )
        supplemental_words = self._mapped(
            supplemental_record, _WORD_DTYPE, (int(supplemental_record["words"]),)
        )
        reciprocals: Dict[int, int] = {}
        index = 0
        while supplemental_words[index] != END_OF_LIST:
            reciprocals[int(supplemental_words[index])] = int(
                supplemental_words[index + 3]
            )
            index += SUPPLEMENTAL_BLOCK_WORDS
        integer_bits, fraction_bits, signed = supplemental_record["qformat"]
        supplemental = EncodedSupplementalList(
            words=supplemental_words,
            reciprocals=reciprocals,
            fraction_format=QFormat(int(integer_bits), int(fraction_bits), bool(signed)),
        )
        return CaseBaseImage(case_base, tree=tree, supplemental=supplemental)


class _StaleStore(Exception):
    """Internal: a manifest/file mismatch turning the reopen into ``stale``."""
