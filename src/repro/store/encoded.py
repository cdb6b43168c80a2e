"""The on-disk encoded-source format: partitioned ``.npy`` shards + manifest.

An encoded source is a directory::

    <root>/
        manifest.json            # format tag, dimension, totals, digests
        shard-0000.codes.npy     # int64  — sorted distinct codes of shard 0
        shard-0000.weights.npy   # float64 — matching tuple counts
        shard-0001.codes.npy
        ...

The shard layout is **exactly** the stable-hash partition of
:mod:`repro.shards.partition` applied to the globally sorted deduplicated
``(codes, weights)`` arrays — the same layout an in-memory
:class:`~repro.shards.sharded.ShardedRecordSource` builds — so a source
written once and reopened with :func:`open_source` computes bitwise-identical
marginals through the unchanged per-shard kernels, straight off ``np.memmap``
views of these files.

Writers stream: :class:`EncodedSourceWriter` accepts globally sorted chunks
(e.g. from :func:`repro.store.spill.merge_sorted_runs`), routes each to its
shard file append-only, and never holds more than one chunk in memory.  The
whole directory is built under a hidden staging name and published with one
atomic rename, so readers never observe a partial source.  The manifest pins
a sha256 digest of every shard file's data bytes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DataError
from repro.obs import runtime as _obs
from repro.resilience import faults as _faults
from repro.resilience.retry import DEFAULT_RETRY_POLICY
from repro.shards.partition import shard_of_codes
from repro.sources.record import MAX_RECORD_BITS, RecordSource
from repro.store.layout import (
    NpyStreamWriter,
    parse_memory_budget,
    release_pages,
    replace_directory,
    sha256_of_array,
    staging_path,
)
from repro.store.mapped import MappedRecordSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domain.schema import Schema

SOURCE_FORMAT = "repro.store/source"
SOURCE_FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
_CODES_FILE = "shard-{shard:04d}.codes.npy"
_WEIGHTS_FILE = "shard-{shard:04d}.weights.npy"

#: Target distinct entries per shard file when the shard count is resolved
#: automatically: 1M entries is 16 MiB of data per shard — small enough that
#: the page-releasing kernel keeps per-worker residency modest, large enough
#: that dispatch overhead stays negligible.
DEFAULT_SHARD_ENTRIES = 1 << 20

#: Cap on automatically resolved on-disk shard counts.
MAX_STORE_SHARDS = 4096


def resolve_store_shards(entries: int, shards: Optional[int] = None) -> int:
    """Shard-file count for ``entries`` distinct records (explicit wins)."""
    if shards is not None:
        count = int(shards)
        if count < 1:
            raise DataError(f"shard count must be at least 1, got {shards}")
        return count
    need = -(-max(int(entries), 1) // DEFAULT_SHARD_ENTRIES)
    return max(1, min(MAX_STORE_SHARDS, need))


class EncodedSourceWriter:
    """Stream globally sorted ``(codes, weights)`` chunks into a source dir.

    Chunks must be strictly increasing in code across *and* within calls
    (i.e. already deduplicated) — exactly what the streaming merge yields —
    so each shard file ends up sorted without any post-pass.  ``close``
    writes the manifest and atomically publishes the staged directory.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        dimension: int,
        shards: int,
        schema: Optional["Schema"] = None,
        overwrite: bool = False,
    ):
        d = int(dimension)
        if not (1 <= d <= MAX_RECORD_BITS):
            raise DataError(
                f"record sources support 1..{MAX_RECORD_BITS} binary attributes, got {d}"
            )
        if schema is not None and schema.total_bits != d:
            raise DataError(
                f"dimension {d} does not match the schema's {schema.total_bits} bits"
            )
        shard_count = int(shards)
        if shard_count < 1:
            raise DataError(f"shard count must be at least 1, got {shards}")
        self._final = Path(path)
        if self._final.exists() and not overwrite:
            raise DataError(
                f"encoded source {self._final} already exists; enable overwrite to replace it"
            )
        self._overwrite = overwrite
        self._d = d
        self._schema = schema
        self._shard_count = shard_count
        self._staging = staging_path(self._final)
        self._staging.mkdir(parents=True, exist_ok=False)
        self._code_writers = [
            NpyStreamWriter(self._staging / _CODES_FILE.format(shard=s), np.int64)
            for s in range(shard_count)
        ]
        self._weight_writers = [
            NpyStreamWriter(self._staging / _WEIGHTS_FILE.format(shard=s), np.float64)
            for s in range(shard_count)
        ]
        self._shard_totals = [0.0] * shard_count
        self._last_code = -1
        self._closed = False

    @property
    def path(self) -> Path:
        """The final (published) directory."""
        return self._final

    def append(self, codes: np.ndarray, weights: np.ndarray) -> None:
        """Route one sorted deduplicated chunk to the shard files."""
        if self._closed:  # pragma: no cover - internal misuse
            raise DataError(f"encoded-source writer for {self._final} is closed")
        chunk_codes = np.ascontiguousarray(codes, dtype=np.int64).reshape(-1)
        chunk_weights = np.ascontiguousarray(weights, dtype=np.float64).reshape(-1)
        if chunk_codes.shape != chunk_weights.shape:
            raise DataError(
                f"got {chunk_weights.shape[0]} weights for {chunk_codes.shape[0]} codes"
            )
        if chunk_codes.size == 0:
            return
        if int(chunk_codes[0]) <= self._last_code or (
            chunk_codes.shape[0] > 1 and not bool((np.diff(chunk_codes) > 0).all())
        ):
            raise DataError(
                "encoded-source chunks must be strictly increasing in code "
                "across and within appends (sorted + deduplicated)"
            )
        if int(chunk_codes[0]) < 0 or int(chunk_codes[-1]) >= (1 << self._d):
            raise DataError(f"record codes fall outside the {self._d}-bit domain")
        if not np.isfinite(chunk_weights).all():
            raise DataError("record weights must be finite")
        self._last_code = int(chunk_codes[-1])
        ids = shard_of_codes(chunk_codes, self._shard_count)
        for shard in range(self._shard_count):
            inside = ids == shard
            if not bool(inside.any()):
                continue
            self._code_writers[shard].append(chunk_codes[inside])
            selected = chunk_weights[inside]
            self._weight_writers[shard].append(selected)
            self._shard_totals[shard] += float(selected.sum())

    def close(self) -> Path:
        """Finalise the shard files, write the manifest, publish atomically."""
        if self._closed:
            return self._final
        shard_entries: List[Dict[str, object]] = []
        total_entries = 0
        total_weight = 0.0
        total_bytes = 0
        for shard in range(self._shard_count):
            code_writer = self._code_writers[shard]
            weight_writer = self._weight_writers[shard]
            entries = code_writer.count
            nbytes = code_writer.nbytes + weight_writer.nbytes
            shard_entries.append(
                {
                    "codes": code_writer.path.name,
                    "weights": weight_writer.path.name,
                    "entries": entries,
                    "total_weight": self._shard_totals[shard],
                    "codes_sha256": code_writer.close(),
                    "weights_sha256": weight_writer.close(),
                }
            )
            total_entries += entries
            total_weight += self._shard_totals[shard]
            total_bytes += nbytes
        manifest = {
            "format": SOURCE_FORMAT,
            "format_version": SOURCE_FORMAT_VERSION,
            "dimension": self._d,
            "shards": self._shard_count,
            "distinct": total_entries,
            "total_weight": total_weight,
            "data_bytes": total_bytes,
            "created_at": time.time(),
            "schema": self._schema.to_dict() if self._schema is not None else None,
            "shard_files": shard_entries,
        }
        (self._staging / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        replace_directory(self._staging, self._final, overwrite=self._overwrite)
        self._closed = True
        if _obs.ENABLED:
            _obs.counter_inc("store.sources_written")
            _obs.counter_inc("store.bytes_written", float(total_bytes))
        return self._final

    def abort(self) -> None:
        """Discard the staged directory (error/crash cleanup)."""
        if self._closed:
            return
        for writer in self._code_writers + self._weight_writers:
            writer.abort()
        try:
            (self._staging / MANIFEST_FILE).unlink(missing_ok=True)
            self._staging.rmdir()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        self._closed = True

    def __enter__(self) -> "EncodedSourceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_source(
    path: Union[str, Path],
    codes: Union[np.ndarray, Sequence[int]],
    weights: Optional[Union[np.ndarray, Sequence[float]]] = None,
    *,
    dimension: int,
    shards: Optional[int] = None,
    schema: Optional["Schema"] = None,
    deduplicate: bool = True,
    overwrite: bool = False,
) -> Path:
    """One-shot write of in-memory arrays as an encoded source directory.

    Validation and deduplication reuse :class:`RecordSource` exactly, so the
    on-disk arrays are the same sorted distinct ``(codes, weights)`` every
    in-memory backend is built from.
    """
    base = RecordSource(
        codes,
        weights,
        dimension=dimension,
        schema=schema,
        deduplicate=deduplicate,
    )
    shard_count = resolve_store_shards(base.distinct_records, shards)
    writer = EncodedSourceWriter(
        path,
        dimension=base.dimension,
        shards=shard_count,
        schema=schema,
        overwrite=overwrite,
    )
    with writer:
        writer.append(base.codes, base.weights)
    return writer.path


def read_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate the manifest of an encoded source directory."""
    root = Path(path)
    manifest_path = root / MANIFEST_FILE
    if not manifest_path.exists():
        raise DataError(f"{root} is not an encoded source (no {MANIFEST_FILE})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, OSError) as error:
        raise DataError(f"corrupt encoded-source manifest {manifest_path}: {error}") from error
    if manifest.get("format") != SOURCE_FORMAT:
        raise DataError(
            f"{manifest_path} has format {manifest.get('format')!r}; expected {SOURCE_FORMAT!r}"
        )
    version = int(manifest.get("format_version", 0))
    if version > SOURCE_FORMAT_VERSION:
        raise DataError(
            f"encoded source {root} uses format version {version}; this build "
            f"reads up to {SOURCE_FORMAT_VERSION}"
        )
    for key in ("dimension", "shards", "distinct", "total_weight", "shard_files"):
        if key not in manifest:
            raise DataError(f"encoded-source manifest {manifest_path} is missing {key!r}")
    return manifest


def open_source(
    path: Union[str, Path],
    *,
    workers: Optional[int] = None,
    memory_budget: Optional[Union[int, str]] = None,
    verify: bool = False,
) -> MappedRecordSource:
    """Memory-map an encoded source directory into a :class:`MappedRecordSource`.

    Opening reads only the manifest — shard data pages stream in lazily as
    kernels touch them.  With ``verify`` every shard file's data bytes are
    hashed against the manifest digests first (a full read of the files).
    ``memory_budget`` (bytes, or a string like ``"256M"``) bounds the
    source's resident working set: it gives the planner a ceiling on
    materialised batch roots (:meth:`MappedRecordSource.max_root_cells`),
    so long-lived mapped sources respect the same knob as spilled
    ingestion.
    """
    root = Path(path)
    manifest = read_manifest(root)
    budget_bytes: Optional[int] = None
    if memory_budget is not None:
        budget_bytes = parse_memory_budget(memory_budget)
    schema = None
    if manifest.get("schema") is not None:
        from repro.domain.schema import Schema

        schema = Schema.from_dict(manifest["schema"])
    with _obs.trace_span(
        "store.open", source=str(root), shards=int(manifest["shards"])
    ):
        shard_arrays: List[Tuple[np.ndarray, np.ndarray]] = []
        bytes_mapped = 0
        for entry in manifest["shard_files"]:
            # Opening (and with verify=True, re-hashing) a shard is pure, so
            # transient I/O failures are simply retried before giving up.
            shard_codes, shard_weights = DEFAULT_RETRY_POLICY.run(
                _open_shard, root, entry, verify, what=f"open {entry['codes']}"
            )
            shard_arrays.append((shard_codes, shard_weights))
            bytes_mapped += int(shard_codes.nbytes + shard_weights.nbytes)
        if _obs.ENABLED:
            _obs.counter_inc("store.opens")
            _obs.gauge_set("store.bytes_mapped", float(bytes_mapped))
        return MappedRecordSource(
            shard_arrays,
            dimension=int(manifest["dimension"]),
            schema=schema,
            workers=workers,
            memory_budget=budget_bytes,
            distinct_records=int(manifest["distinct"]),
            total_weight=float(manifest["total_weight"]),
            root=root,
            bytes_mapped=bytes_mapped,
        )


def _load_shard_array(root: Path, path: Path, expected_entries: int) -> np.ndarray:
    """Map one shard ``.npy``, turning a short file into a targeted error.

    A truncated shard (interrupted copy, bad disk) either fails inside
    ``np.load`` — the mmap buffer is smaller than the header's shape claims,
    a bare ``ValueError`` — or maps fine but with fewer entries than the
    manifest records.  Both become a :class:`~repro.exceptions.DataError`
    naming the file and both sizes instead of a NumPy internals message.
    """
    try:
        array = np.load(path, mmap_mode="r")
    except ValueError as error:
        raise DataError(
            f"encoded source {root}: shard file {path.name} is truncated or "
            f"corrupt — {path.stat().st_size} bytes on disk cannot hold the "
            f"{expected_entries} entries its header/manifest promise ({error})"
        ) from error
    if array.shape[0] != expected_entries:
        raise DataError(
            f"encoded source {root}: shard file {path.name} is truncated — it "
            f"holds {array.shape[0]} entries, the manifest says {expected_entries}"
        )
    return array


def _open_shard(
    root: Path, entry: Dict[str, object], verify: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Map (and optionally verify) one shard's code/weight files."""
    if _faults.ENABLED:
        _faults.fire("store.open", shard=str(entry["codes"]))
    code_path = root / str(entry["codes"])
    weight_path = root / str(entry["weights"])
    for required in (code_path, weight_path):
        if not required.exists():
            raise DataError(f"encoded source {root} is missing {required.name}")
    entries = int(entry["entries"])
    shard_codes = _load_shard_array(root, code_path, entries)
    shard_weights = _load_shard_array(root, weight_path, entries)
    if verify:
        _verify_shard(root, entry, shard_codes, shard_weights)
    return shard_codes, shard_weights


def _verify_shard(
    root: Path,
    entry: Dict[str, object],
    shard_codes: np.ndarray,
    shard_weights: np.ndarray,
) -> None:
    """Check one shard's data bytes against the manifest digests."""
    for name, array, expected in (
        (entry["codes"], shard_codes, entry.get("codes_sha256")),
        (entry["weights"], shard_weights, entry.get("weights_sha256")),
    ):
        if expected is None:
            continue
        actual = sha256_of_array(array)
        release_pages(array)
        if actual != expected:
            raise DataError(
                f"encoded source {root}: {name} content digest mismatch "
                f"(expected {expected}, got {actual})"
            )
