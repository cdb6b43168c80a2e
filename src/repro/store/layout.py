"""Low-level on-disk primitives shared by the out-of-core storage tier.

Everything in :mod:`repro.store` writes plain ``.npy`` files — the simplest
format numpy can open with ``mmap_mode="r"`` — so serving and measurement
read straight off the page cache with zero copies and zero decompression.
This module holds the pieces the higher layers share:

* :class:`NpyStreamWriter` — append-only ``.npy`` writer for 1-D arrays
  whose final length is unknown up front.  It reserves a fixed-size header,
  streams chunks to disk (hashing the raw data bytes as it goes), and
  rewrites the true shape into the reserved header on close.  The result is
  byte-for-byte a standard ``.npy`` file.
* :func:`parse_memory_budget` — accept ``64 * 2**20``, ``"64M"``, ``"1.5G"``
  or ``"256KiB"`` style budgets and return bytes.
* :func:`release_pages` — drop a memmap-backed array's resident pages
  (``madvise(MADV_DONTNEED)``) after a streaming kernel has consumed them,
  so out-of-core scans keep RSS bounded by the working set, not the file.
* :func:`replace_directory` — the atomic publish step shared by the encoded
  source writer and the release store: build into a staging directory,
  then a single ``os.replace`` makes it visible (fully old or fully new).
"""

from __future__ import annotations

import hashlib
import mmap as _mmap
import os
import re
import shutil
import uuid
from pathlib import Path
from typing import BinaryIO, Optional, Union

import numpy as np

from repro.exceptions import DataError

#: Total reserved bytes for the ``.npy`` magic + version + header text.  Big
#: enough for any 1-D little-endian descr and a 20-digit length, and a
#: multiple of 64 so the data payload starts aligned for memmap friendliness.
NPY_HEADER_BYTES = 128

_BUDGET_PATTERN = re.compile(
    r"^\s*(?P<number>\d+(?:\.\d+)?)\s*(?P<unit>[KMGT]?)(?:I?B)?\s*$", re.IGNORECASE
)

_BUDGET_UNITS = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_memory_budget(value: Union[int, float, str, None]) -> Optional[int]:
    """Normalise a memory budget to bytes (``None`` passes through).

    Accepts plain byte counts and strings like ``"64M"``, ``"1.5GiB"`` or
    ``"262144"``.  Budgets below 64 KiB are rejected — smaller values are
    always a unit mistake and would thrash the spill machinery.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        budget = int(value)
    elif isinstance(value, str):
        match = _BUDGET_PATTERN.match(value)
        if not match:
            raise DataError(
                f"cannot parse memory budget {value!r}; use bytes or e.g. '64M', '1.5G'"
            )
        budget = int(float(match.group("number")) * _BUDGET_UNITS[match.group("unit").upper()])
    else:
        raise DataError(f"memory budget must be bytes or a size string, got {type(value).__name__}")
    if budget < (64 << 10):
        raise DataError(f"memory budget {value!r} is below the 64 KiB minimum")
    return budget


def _npy_header(descr: str, count: int) -> bytes:
    """A fixed-width ``.npy`` v1 header for a 1-D array of ``count`` items."""
    body = "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }" % (descr, count)
    text_len = NPY_HEADER_BYTES - 10  # magic (6) + version (2) + header length (2)
    padding = text_len - len(body) - 1
    if padding < 0:  # pragma: no cover - descr/count always fit 128 bytes
        raise DataError(f"npy header for descr {descr!r} does not fit {NPY_HEADER_BYTES} bytes")
    text = body + " " * padding + "\n"
    return b"\x93NUMPY" + bytes((1, 0)) + text_len.to_bytes(2, "little") + text.encode("latin1")


class NpyStreamWriter:
    """Stream a 1-D array of unknown length into a standard ``.npy`` file.

    Chunks must share the dtype given at construction; the writer keeps a
    running sha256 of the raw data bytes (header excluded) so manifests can
    pin content digests without re-reading the file.
    """

    def __init__(self, path: Union[str, Path], dtype: np.dtype):
        self._path = Path(path)
        self._dtype = np.dtype(dtype)
        if self._dtype.hasobject or self._dtype.shape:  # pragma: no cover - internal misuse
            raise DataError(f"NpyStreamWriter needs a plain scalar dtype, got {self._dtype}")
        self._descr = self._dtype.str
        self._count = 0
        self._digest = hashlib.sha256()
        self._handle: Optional[BinaryIO] = open(self._path, "wb")
        self._handle.write(_npy_header(self._descr, 0))

    @property
    def path(self) -> Path:
        return self._path

    @property
    def count(self) -> int:
        """Items written so far."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Data bytes written so far (header excluded)."""
        return self._count * self._dtype.itemsize

    def append(self, values: np.ndarray) -> None:
        """Append one chunk (must already have the writer's dtype)."""
        if self._handle is None:  # pragma: no cover - internal misuse
            raise DataError(f"NpyStreamWriter for {self._path} is closed")
        chunk = np.ascontiguousarray(values, dtype=self._dtype).reshape(-1)
        if chunk.size == 0:
            return
        data = chunk.tobytes()
        self._digest.update(data)
        self._handle.write(data)
        self._count += chunk.shape[0]

    def close(self) -> str:
        """Finalise the header with the true length; returns the data sha256."""
        if self._handle is None:
            return self._digest.hexdigest()
        self._handle.flush()
        self._handle.seek(0)
        self._handle.write(_npy_header(self._descr, self._count))
        self._handle.close()
        self._handle = None
        return self._digest.hexdigest()

    def abort(self) -> None:
        """Close and remove the partial file (crash/error cleanup)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._path.unlink(missing_ok=True)


def sha256_of_array(values: np.ndarray) -> str:
    """sha256 of an array's raw little-endian data bytes.

    Matches :class:`NpyStreamWriter`'s running digest for the same values,
    so in-memory arrays can be checked against on-disk shards.
    """
    return hashlib.sha256(np.ascontiguousarray(values)).hexdigest()


def release_pages(array: np.ndarray) -> bool:
    """Advise the kernel to drop a memmap-backed array's resident pages.

    Returns ``True`` when the advice was delivered.  Safe no-op for regular
    in-memory arrays, non-mmap bases, and platforms without ``madvise`` —
    out-of-core scans call this after consuming each shard so file-backed
    pages do not accumulate in RSS.

    Residency accounting is folio-granular: touching one entry of a mapped
    file can map a multi-MiB page-cache folio into RSS (readahead ramps
    folio sizes on sequential access), so callers juggling *many* mappings
    at once must release each mapping as soon as they are done with it, not
    in one sweep at the end — see :func:`repro.store.spill.merge_sorted_runs`.
    """
    base = array
    while getattr(base, "base", None) is not None and not isinstance(base, np.memmap):
        base = base.base
    mm = getattr(base, "_mmap", None)
    if mm is None or not hasattr(mm, "madvise") or not hasattr(_mmap, "MADV_DONTNEED"):
        return False
    try:
        mm.madvise(_mmap.MADV_DONTNEED)
        return True
    except (OSError, ValueError):  # pragma: no cover - platform dependent
        return False


def staging_path(final: Path, prefix: str = ".stage") -> Path:
    """A sibling staging directory name for building ``final`` atomically.

    Leading dot keeps it invisible to the release-id / shard-file patterns
    that index readers use, so a crashed write can never be half-read.
    """
    return final.parent / f"{prefix}-{final.name}-{uuid.uuid4().hex[:8]}"


def replace_directory(staging: Path, final: Path, *, overwrite: bool = False) -> None:
    """Publish ``staging`` as ``final`` with a single atomic rename.

    With ``overwrite`` the existing directory is first moved aside (second
    rename) and removed after the publish; a crash between the two renames
    leaves the old version recoverable under its aside name.
    """
    aside: Optional[Path] = None
    if final.exists():
        if not overwrite:
            raise DataError(f"{final} already exists; enable overwrite to replace it")
        aside = staging_path(final, prefix=".old")
        os.replace(final, aside)
    os.replace(staging, final)
    if aside is not None:
        shutil.rmtree(aside, ignore_errors=True)
