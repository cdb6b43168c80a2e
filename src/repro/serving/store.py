"""Persistent, versioned storage of private releases.

A :class:`ReleaseStore` is a directory of releases, one sub-directory each::

    <root>/
        index.json                  # store-level index (rebuildable)
        release-0001/
            meta.json               # ReleaseResult.to_dict(include_marginals=False)
            marginals.npy           # every marginal vector, concatenated

``meta.json`` carries everything needed to rebuild the
:class:`~repro.core.result.ReleaseResult` — schema, workload masks, noise
allocation, strategy name — plus a ``marginals_layout`` tag and one sha256
digest per marginal vector.  :meth:`ReleaseStore.put` writes every release in
the **v3** layout: one uncompressed float64 ``.npy`` file holding the
marginal vectors back to back in workload order.  No offset table is stored:
vector ``i`` has ``query.size`` cells, so its slice follows from the workload
masks.  :meth:`ReleaseStore.get` opens the file once with ``mmap_mode="r"``
and hands out zero-copy slices — a cold open touches no data pages, and
:class:`~repro.serving.service.QueryService` serves straight off the page
cache.  A digest mismatch on one slice quarantines that cuboid alone.

Releases written by earlier builds stay servable read-only: **v1** keeps the
vectors in one compressed ``marginals.npz`` archive, **v2** as one raw
``marginals/marginal_NNNNN.npy`` file per vector.  Every release is written
staged-then-rename, so a crashed put leaves the store fully old, never torn.

The store-level ``index.json`` caches per-release summaries (released masks,
strategy, budget, layout) so that queries can be routed to a covering release without
opening every ``meta.json``; it is an optimisation only and is rebuilt from
the per-release files whenever it is missing or stale.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import warnings
import zipfile
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

import numpy as np

from repro.core.result import RELEASE_FORMAT_VERSION, ReleaseResult
from repro.exceptions import CorruptMarginalError, DataError, ReproError, ServingError
from repro.obs import runtime as _obs
from repro.plan.lattice import CoveringIndex
from repro.store.layout import (
    NPY_HEADER_BYTES,
    _npy_header,
    replace_directory,
    sha256_of_array,
    staging_path,
)
from repro.utils.bits import dominated_by, hamming_weight

STORE_FORMAT_VERSION = 3

_LAYOUT = "v3"
_FLOAT64 = np.dtype(np.float64)
_INDEX_FILE = "index.json"
_META_FILE = "meta.json"
_MARGINALS_FILE = "marginals.npy"
# Read-only legacy layouts: v1 (one NPZ archive), v2 (one .npy per vector).
_LEGACY_ARCHIVE = "marginals.npz"
_LEGACY_VECTORS_DIR = "marginals"
_MARGINAL_KEY = "marginal_{position:05d}"
_RELEASE_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _marginal_keys(count: int) -> List[str]:
    return [_MARGINAL_KEY.format(position=position) for position in range(count)]


def _layout_of(meta: Dict[str, object]) -> str:
    """The layout a stored release was written in (pre-v2 releases are v1)."""
    return str(meta.get("marginals_layout", "v1"))


def _read_marginals(
    directory: Path, release_id: str, meta: Dict[str, object]
) -> List[np.ndarray]:
    """Read one release's marginal vectors in whichever layout it was written."""
    masks = [int(mask) for mask in meta["workload"]["masks"]]  # type: ignore[index, call-overload]
    layout = _layout_of(meta)
    if layout == _LAYOUT:
        return _map_concatenated(directory, release_id, masks)
    if layout == "v2":
        return _map_vectors(directory, release_id, masks)
    return _read_archive(directory, release_id, masks)


def _map_concatenated(
    directory: Path, release_id: str, masks: List[int]
) -> List[np.ndarray]:
    """Map the v3 ``marginals.npy`` once and slice it per cuboid, zero-copy.

    Vector ``i`` holds ``query.size == 2**popcount(mask)`` cells, so the
    slice offsets follow from the masks alone.  A file of the wrong length
    is refused before mapping; a short one names the first cuboid whose
    slice runs past its end, so the service can quarantine precisely.
    """
    path = directory / _MARGINALS_FILE
    if not path.exists():
        raise ServingError(f"release {release_id!r} is missing {_MARGINALS_FILE}")
    ends = list(accumulate(1 << hamming_weight(mask) for mask in masks))
    total = ends[-1] if ends else 0
    expected = NPY_HEADER_BYTES + total * _FLOAT64.itemsize
    size = path.stat().st_size
    if size != expected:
        cells = max(size - NPY_HEADER_BYTES, 0) // _FLOAT64.itemsize
        position = bisect_right(ends, cells)
        mask = masks[position] if position < len(masks) else None
        where = f"cuboid {mask:#x} runs past its end" if mask is not None else "trailing bytes"
        raise CorruptMarginalError(
            f"marginal file {path} of release {release_id!r} is truncated or "
            f"corrupt: {size} bytes, expected {expected} ({where})",
            mask=mask,
            release_id=release_id,
        )
    try:
        flat = np.load(path, mmap_mode="r")
    except (ValueError, OSError) as error:
        raise CorruptMarginalError(
            f"marginal file {path} of release {release_id!r} is truncated or "
            f"corrupt — {error}",
            release_id=release_id,
        ) from error
    if flat.dtype != _FLOAT64 or flat.shape != (total,):
        raise CorruptMarginalError(
            f"marginal file {path} of release {release_id!r} is truncated or "
            f"corrupt: holds {flat.dtype} {flat.shape}, expected float64 ({total},)",
            release_id=release_id,
        )
    if _obs.ENABLED:
        _obs.counter_inc("store.opens")
        _obs.gauge_set("store.bytes_mapped", float(flat.nbytes))
    # Slice a plain-ndarray view of the mapping: memmap slices cost several
    # times more to create, and the pages stay mapped through the base chain.
    whole = flat.view(np.ndarray)
    return [whole[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _read_archive(directory: Path, release_id: str, masks: List[int]) -> List[np.ndarray]:
    """Read the legacy v1 NPZ archive: one pass, each array read exactly once."""
    marginals_path = directory / _LEGACY_ARCHIVE
    if not marginals_path.exists():
        raise ServingError(f"release {release_id!r} is missing {_LEGACY_ARCHIVE}")
    marginals: List[np.ndarray] = []
    try:
        archive_cm = np.load(marginals_path)
    except (zipfile.BadZipFile, ValueError, OSError) as error:
        raise CorruptMarginalError(
            f"release {release_id!r} archive {marginals_path} is truncated "
            f"or corrupt: {error}",
            release_id=release_id,
        ) from error
    with archive_cm as archive:
        for key, mask in zip(_marginal_keys(len(masks)), masks):
            if key not in archive:
                raise DataError(
                    f"release {release_id!r} archive is missing marginal "
                    f"array {key!r} for cuboid {mask:#x}"
                )
            try:
                marginals.append(archive[key])
            except (zipfile.BadZipFile, ValueError, OSError) as error:
                raise CorruptMarginalError(
                    f"marginal array {key!r} (cuboid {mask:#x}) of release "
                    f"{release_id!r} is truncated or corrupt: {error}",
                    mask=mask,
                    release_id=release_id,
                ) from error
    return marginals


def _map_vectors(directory: Path, release_id: str, masks: List[int]) -> List[np.ndarray]:
    """Map the legacy v2 raw ``.npy`` vectors — no data pages are touched."""
    vectors = directory / _LEGACY_VECTORS_DIR
    if not vectors.is_dir():
        raise ServingError(f"release {release_id!r} is missing {_LEGACY_VECTORS_DIR}/")
    marginals: List[np.ndarray] = []
    bytes_mapped = 0
    for key, mask in zip(_marginal_keys(len(masks)), masks):
        path = vectors / f"{key}.npy"
        if not path.exists():
            raise DataError(
                f"release {release_id!r} is missing marginal array {key!r} "
                f"for cuboid {mask:#x}"
            )
        try:
            vector = np.load(path, mmap_mode="r")
        except (ValueError, OSError) as error:
            # A short-read .npy (torn copy, bad disk) fails the mmap
            # header/size check with a bare numpy ValueError; name the
            # cuboid so the service can quarantine exactly this vector.
            raise CorruptMarginalError(
                f"marginal file {path} (cuboid {mask:#x}) of release "
                f"{release_id!r} is truncated or corrupt — {error}",
                mask=mask,
                release_id=release_id,
            ) from error
        bytes_mapped += int(vector.nbytes)
        marginals.append(vector)
    if _obs.ENABLED:
        _obs.counter_inc("store.opens")
        _obs.gauge_set("store.bytes_mapped", float(bytes_mapped))
    return marginals


def _unreadable_report(release_id: str, error: object) -> Dict[str, object]:
    """A :meth:`ReleaseStore.verify` report for a release whose metadata is unreadable."""
    return {
        "release_id": release_id,
        "layout": "unknown",
        "marginals": 0,
        "verified": 0,
        "ok": False,
        "corrupt": [
            {"position": None, "mask": None, "error": f"unreadable release metadata: {error}"}
        ],
    }


def _json_text(payload: Dict[str, object]) -> str:
    """Compact, key-sorted JSON of the store's metadata and index files."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_json_atomic(path: Path, payload: Dict[str, object]) -> None:
    """Write JSON via a temp file + rename so readers never see a torn file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(_json_text(payload))
    os.replace(tmp, path)


class ReleaseStore:
    """Serialize releases to disk and index their cuboids by attribute mask.

    Parameters
    ----------
    root:
        Store directory; created (with parents) unless ``create=False``.
    create:
        Whether a missing root directory is an error.
    """

    def __init__(self, root: Union[str, Path], *, create: bool = True):
        self._root = Path(root)
        if not self._root.exists():
            if not create:
                raise ServingError(f"release store {self._root} does not exist")
            self._root.mkdir(parents=True, exist_ok=True)
        elif not self._root.is_dir():
            raise ServingError(f"release store path {self._root} is not a directory")
        self._index: Dict[str, Dict[str, object]] = {}
        # Releases whose metadata could not be parsed during the last
        # reindex: invisible to routing, but surfaced by verify_all() so a
        # health check reports them as corrupt instead of silently OK.
        self._unreadable: Dict[str, str] = {}
        # Per-release containment indexes over the released cuboid masks,
        # built lazily from the store index and dropped whenever the release
        # set changes (every `_generation` bump).
        self._covering: Dict[str, CoveringIndex] = {}
        # Monotonic change counter: bumped whenever this instance observes or
        # causes a change in the release set, so services layered on top can
        # key caches on it and notice new/removed releases.
        self._generation = 0
        self._load_index()

    @property
    def generation(self) -> int:
        """Counter bumped on every observed change to the release set."""
        return self._generation

    # ------------------------------------------------------------------ #
    # index bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def _meta_paths(self) -> List[Path]:
        """Per-release ``meta.json`` paths, skipping non-release directories.

        Staging directories (hidden ``.stage-*`` names from interrupted or
        in-flight writes) never match the release-id pattern, so a crashed
        put can never be half-indexed.
        """
        return [
            path
            for path in self._root.glob(f"*/{_META_FILE}")
            if _RELEASE_ID_PATTERN.match(path.parent.name)
        ]

    def _index_path(self) -> Path:
        return self._root / _INDEX_FILE

    def _release_dir(self, release_id: str) -> Path:
        return self._root / release_id

    def _load_index(self) -> None:
        """(Re)load ``index.json``, rebuilding it when stale.

        Stale means the indexed release ids differ from the release
        directories actually on disk in either direction — e.g. another
        store instance (or process) added or removed a release since the
        index was written.
        """
        path = self._index_path()
        if path.exists():
            try:
                payload = json.loads(path.read_text())
                if int(payload.get("format_version", 0)) == STORE_FORMAT_VERSION:
                    entries = payload.get("releases", {})
                    on_disk = {p.parent.name for p in self._meta_paths()}
                    complete = all(
                        isinstance(entry, dict) and {"schema", "layout"} <= entry.keys()
                        for entry in entries.values()
                    )
                    if complete and set(entries) == on_disk:
                        self._index = dict(entries)
                        return
            except (json.JSONDecodeError, TypeError, ValueError, OSError, AttributeError):
                pass  # fall through to a rebuild
        self.reindex()

    def _write_index(self) -> None:
        payload = {"format_version": STORE_FORMAT_VERSION, "releases": self._index}
        _write_json_atomic(self._index_path(), payload)

    def reindex(self) -> None:
        """Rebuild ``index.json`` by scanning the per-release metadata files.

        Releases with unreadable metadata (e.g. a crash mid-write) are
        skipped with a warning instead of making the whole store unopenable;
        they stay on disk for manual inspection but are invisible to queries.
        """
        self._generation += 1
        self._covering.clear()
        self._index = {}
        self._unreadable = {}
        for meta_path in sorted(self._meta_paths()):
            release_id = meta_path.parent.name
            try:
                meta = json.loads(meta_path.read_text())
                self._index[release_id] = self._summary(meta, release_id)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as error:
                self._unreadable[release_id] = str(error)
                warnings.warn(
                    f"skipping unreadable release {release_id!r} in {self._root}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._write_index()

    @staticmethod
    def _summary(meta: Dict[str, object], release_id: str) -> Dict[str, object]:
        allocation = meta["allocation"]
        budget = allocation["budget"]  # type: ignore[index, call-overload]
        return {
            "release_id": release_id,
            "masks": [int(mask) for mask in meta["workload"]["masks"]],  # type: ignore[index, call-overload]
            "workload": meta["workload"]["name"],  # type: ignore[index, call-overload]
            "strategy": meta["strategy_name"],
            "layout": _layout_of(meta),
            "epsilon": float(budget["epsilon"]),
            "delta": float(budget.get("delta", 0.0)),
            "created_at": float(meta.get("created_at", 0.0)),  # type: ignore[arg-type]
            "sequence": int(meta.get("sequence", 0)),  # type: ignore[arg-type]
            # The full schema rides along so queries can be resolved and
            # routed from the index alone, without opening any release files.
            "schema": meta["schema"],
        }

    # ------------------------------------------------------------------ #
    # container behaviour
    # ------------------------------------------------------------------ #
    def release_ids(self) -> List[str]:
        """Stored release ids, oldest first."""
        return sorted(self._index, key=lambda rid: (self._index[rid]["sequence"], rid))

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[str]:
        return iter(self.release_ids())

    def __contains__(self, release_id: object) -> bool:
        return release_id in self._index

    def metadata(self, release_id: str) -> Dict[str, object]:
        """Index summary of one release (masks, strategy, budget, ...)."""
        if release_id not in self._index:
            raise ServingError(f"no release {release_id!r} in store {self._root}")
        return dict(self._index[release_id])

    def latest_release_id(self) -> str:
        """Id of the most recently stored release."""
        ids = self.release_ids()
        if not ids:
            raise ServingError(f"release store {self._root} is empty")
        return ids[-1]

    def releases_covering(self, mask: int) -> List[str]:
        """Releases holding at least one cuboid that dominates ``mask``."""
        return [
            release_id
            for release_id in self.release_ids()
            if any(dominated_by(mask, int(source)) for source in self._index[release_id]["masks"])  # type: ignore[union-attr]
        ]

    def covering_index(self, release_id: str) -> CoveringIndex:
        """Precomputed containment index over one release's cuboid masks.

        Built from the store index alone (no release files are opened) and
        cached per release; the cache is dropped on every generation bump
        (:meth:`put`, :meth:`delete`, :meth:`reindex`), so the index always
        reflects the store's current release set.  Serving uses it to answer
        per-query coverage checks with one vectorised containment pass
        instead of re-scanning the metadata mask list.
        """
        index = self._covering.get(release_id)
        if index is None:
            masks = self.metadata(release_id)["masks"]
            index = CoveringIndex(
                {int(mask): position for position, mask in enumerate(masks)}  # type: ignore[union-attr]
            )
            self._covering[release_id] = index
        return index

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def put(
        self,
        release: ReleaseResult,
        *,
        release_id: Optional[str] = None,
        overwrite: bool = False,
    ) -> str:
        """Persist a release; returns its id.

        Ids default to ``release-NNNN`` with an increasing sequence number.
        Storing under an existing id requires ``overwrite=True``.  Every
        release is written in the v3 layout (one ``marginals.npy``).

        The release directory is built under a hidden staging name and
        published with one atomic rename: readers (and the index scan) see
        the store fully old or fully new, never a torn release.
        """
        with _obs.trace_span("store.put", layout=_LAYOUT) as span:
            # Pick up releases written by other store instances since we last
            # looked, so sequence numbers stay unique and the rewritten index
            # does not drop them.  (Simultaneous writers are not coordinated —
            # the staleness check in _load_index heals the index on next open.)
            self._load_index()
            sequence = 1 + max(
                (int(entry["sequence"]) for entry in self._index.values()), default=0  # type: ignore[arg-type]
            )
            if release_id is None:
                release_id = f"release-{sequence:04d}"
            span.set(release=release_id)
            if not _RELEASE_ID_PATTERN.match(release_id):
                raise ServingError(
                    f"release id {release_id!r} must match {_RELEASE_ID_PATTERN.pattern}"
                )
            if release_id in self._index and not overwrite:
                raise ServingError(
                    f"release {release_id!r} already exists in {self._root}; "
                    "enable overwrite to replace it"
                )
            directory = self._release_dir(release_id)
            arrays = [np.asarray(marginal, dtype=np.float64) for marginal in release.marginals]
            meta = release.to_dict(include_marginals=False)
            meta["store_format_version"] = STORE_FORMAT_VERSION
            meta["marginals_layout"] = _LAYOUT
            meta["created_at"] = time.time()
            meta["sequence"] = sequence
            staging = staging_path(directory)
            staging.mkdir(parents=True, exist_ok=False)
            try:
                # Per-marginal content digests ride along in the metadata so
                # readers (QueryPlanner, ReleaseStore.verify) can detect silent
                # corruption of a stored vector and quarantine just that cuboid.
                meta["marginal_digests"] = self._write_marginals(staging, arrays)
                # The marginals go first and meta.json lands last: a failure
                # injected between the two leaves only the staging directory,
                # which readers never look at — and the final rename below
                # publishes the whole release or nothing.
                (staging / _META_FILE).write_text(_json_text(meta))
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            replace_directory(staging, directory, overwrite=True)
            if _obs.ENABLED:
                _obs.counter_inc("serving.store.puts")
            self._index[release_id] = self._summary(meta, release_id)
            self._write_index()
            self._generation += 1
            self._covering.pop(release_id, None)
        return release_id

    @staticmethod
    def _write_marginals(directory: Path, arrays: List[np.ndarray]) -> List[str]:
        """Write ``marginals.npy``: a fixed header, then each vector's bytes.

        The vectors are streamed in workload order, never concatenated in
        memory, and each is hashed once.  Returns the per-marginal sha256
        content digests, in workload order.
        """
        digests = []
        total = sum(array.size for array in arrays)
        with open(directory / _MARGINALS_FILE, "wb") as handle:
            handle.write(_npy_header(_FLOAT64.str, total))
            for array in arrays:
                contiguous = np.ascontiguousarray(array)
                digests.append(sha256_of_array(contiguous))
                handle.write(contiguous)
        return digests

    def _read_meta(self, release_id: str) -> Dict[str, object]:
        """Read and validate one release's ``meta.json``."""
        meta_path = self._release_dir(release_id) / _META_FILE
        if not meta_path.exists():
            raise ServingError(f"no release {release_id!r} in store {self._root}")
        try:
            meta = json.loads(meta_path.read_text())
        except (json.JSONDecodeError, OSError) as error:
            raise ServingError(f"corrupt release metadata in {meta_path}: {error}") from error
        stored_version = int(meta.get("store_format_version", STORE_FORMAT_VERSION))
        if stored_version > STORE_FORMAT_VERSION:
            raise ServingError(
                f"release {release_id!r} uses store format {stored_version}; this build "
                f"reads up to {STORE_FORMAT_VERSION}"
            )
        return meta

    def marginal_digests(self, release_id: str) -> Optional[List[str]]:
        """Stored sha256 digests of one release's marginal vectors.

        In workload order; ``None`` for releases written before digest
        pinning existed (they are served without verification).
        """
        digests = self._read_meta(release_id).get("marginal_digests")
        if digests is None:
            return None
        return [str(digest) for digest in digests]  # type: ignore[union-attr]

    def get(self, release_id: str) -> ReleaseResult:
        """Load a stored release back into a :class:`ReleaseResult`."""
        meta = self._read_meta(release_id)
        with _obs.trace_span("store.open", release=release_id, layout=_layout_of(meta)):
            marginals = _read_marginals(self._release_dir(release_id), release_id, meta)
        try:
            return ReleaseResult.from_dict(meta, marginals=marginals)
        except ReproError as error:
            raise ServingError(f"cannot rebuild release {release_id!r}: {error}") from error

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #
    def verify(self, release_id: str) -> Dict[str, object]:
        """Integrity-check one release's marginal vectors.

        Reads every vector end to end and, when the release carries
        ``marginal_digests``, re-hashes each against its pinned sha256.
        Returns a report (never raises for data corruption)::

            {"release_id", "layout", "marginals", "verified", "ok",
             "corrupt": [{"position", "mask", "error"}, ...]}

        ``verified`` is the number of digest-checked vectors — 0 for
        pre-digest releases, which can only be checked for readability.
        """
        try:
            meta = self._read_meta(release_id)
            masks = [int(mask) for mask in meta["workload"]["masks"]]  # type: ignore[index, call-overload]
            digests = meta.get("marginal_digests")
        except (ServingError, KeyError, TypeError, ValueError) as error:
            # A release the index still names but whose metadata no longer
            # parses: report it corrupt instead of failing the health check.
            return _unreadable_report(release_id, error)
        corrupt: List[Dict[str, object]] = []
        verified = 0
        try:
            marginals = _read_marginals(self._release_dir(release_id), release_id, meta)
        except CorruptMarginalError as error:
            corrupt.append(
                {"position": None, "mask": error.mask, "error": str(error)}
            )
            marginals = []
        except (ServingError, DataError) as error:
            corrupt.append({"position": None, "mask": None, "error": str(error)})
            marginals = []
        for position, (mask, vector) in enumerate(zip(masks, marginals)):
            if digests is None:
                continue
            actual = sha256_of_array(np.asarray(vector, dtype=np.float64))
            if actual != digests[position]:
                corrupt.append(
                    {
                        "position": position,
                        "mask": mask,
                        "error": (
                            f"digest mismatch on cuboid {mask:#x}: stored "
                            f"{str(digests[position])[:12]}..., file hashes to "
                            f"{actual[:12]}..."
                        ),
                    }
                )
            else:
                verified += 1
        return {
            "release_id": release_id,
            "layout": _layout_of(meta),
            "marginals": len(masks),
            "verified": verified,
            "ok": not corrupt,
            "corrupt": corrupt,
        }

    def verify_all(self) -> Dict[str, object]:
        """Run :meth:`verify` over every release; aggregate store health.

        Releases whose metadata could not even be indexed (a corrupt or torn
        ``meta.json``) appear as zero-marginal CORRUPT reports — a store with
        only unreadable releases is degraded, not healthy-and-empty.
        """
        reports = [self.verify(release_id) for release_id in self.release_ids()]
        for release_id, error in sorted(self._unreadable.items()):
            reports.append(_unreadable_report(release_id, error))
        return {
            "root": str(self._root),
            "releases": len(reports),
            "ok": all(report["ok"] for report in reports),
            "reports": reports,
        }

    def delete(self, release_id: str) -> None:
        """Remove a release and its files from the store."""
        if release_id not in self._index:
            raise ServingError(f"no release {release_id!r} in store {self._root}")
        directory = self._release_dir(release_id)
        for name in (_META_FILE, _MARGINALS_FILE, _LEGACY_ARCHIVE):
            path = directory / name
            if path.exists():
                path.unlink()
        vectors = directory / _LEGACY_VECTORS_DIR
        if vectors.is_dir():
            for path in vectors.glob("marginal_*.npy"):
                path.unlink()
            try:
                vectors.rmdir()
            except OSError:
                pass  # extra user files; leave them be
        try:
            directory.rmdir()
        except OSError:
            pass  # extra user files in the directory; leave them be
        del self._index[release_id]
        self._write_index()
        self._generation += 1
        self._covering.pop(release_id, None)


# Re-exported for introspection/tests.
__all__ = [
    "ReleaseStore",
    "STORE_FORMAT_VERSION",
    "RELEASE_FORMAT_VERSION",
]
