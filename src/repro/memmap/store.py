"""Persistent on-disk case-base images reopened through :func:`numpy.memmap`.

Million-implementation case bases pay an O(implementations x attributes)
Python encode on every process start for the case base's columnar image
(the per-type :class:`~repro.core.columnar.TypeTable` every vectorized path
reads).  :class:`ImageStore` persists the finished tables instead: each
type table's arrays (implementation IDs, attribute IDs, presence, values,
holder and prefix counts) land as raw little-endian array files and reopen
as zero-copy ``numpy.memmap`` views that :meth:`ReopenedImage.install`
seeds into the case base's shared image.  The encoded CB-MEM words are not
stored (layout 3): a retrieval unit encodes them from the case base when
one exists, and out-of-core case bases, whose tree overflows the hardware's
16-bit word addressing, have none.

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
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.backends import VectorizedBackend
from ..core.case_base import CaseBase
from ..core.columnar import TypeTable
from ..core.exceptions import ReproError

#: Bump on any incompatible change to the file formats or manifest schema;
#: stores written by other versions reopen as ``stale``.
LAYOUT_VERSION = 3

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


@dataclasses.dataclass
class ReopenedImage:
    """One successful O(1) reopen: memmap-backed type tables."""

    revision: int
    #: ``type_id -> table`` over copy-on-write views of the store files.
    tables: Dict[int, TypeTable]

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

    def save(self, case_base: CaseBase) -> dict:
        """Persist the case base's type tables; returns the written manifest.

        The tables come from the case base's shared columnar image (types
        it has not built yet are built there).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        revision = case_base.revision
        prefix = f"r{revision}-"
        manifest: Dict[str, object] = {
            "layout": LAYOUT_VERSION,
            "revision": revision,
            "fingerprint": structure_fingerprint(case_base),
            "types": [],
        }
        keep = {MANIFEST_NAME}
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
        except _StaleStore:
            return "stale", None
        return "hit", ReopenedImage(revision=case_base.revision, tables=tables)

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


class _StaleStore(Exception):
    """Internal: a manifest/file mismatch turning the reopen into ``stale``."""
