"""Crash-safe checkpoint/resume for release measurement.

The expensive stage of a release is **measurement**: materialising the exact
per-batch marginals from the count source (for out-of-core sources, a full
streamed scan per batch).  Those values are *pure and pre-noise* — a
deterministic function of (source, batch) — so they can be staged to disk as
they are produced and replayed after a crash, and the resumed release is
**bitwise identical** to an uninterrupted one: the noise draw happens after
all exact values exist, consuming the seeded random stream exactly once in
plan-group order either way.

A checkpoint is a directory::

    <dir>/
        checkpoint.json         # format tag + plan/source fingerprint + entries
        m00000000000000a3.npy   # exact marginal of cuboid mask 0xa3
        ...

Every entry is written with the store's staged-atomic-rename idiom (temp
file + ``os.replace``), and the manifest is rewritten atomically after each
entry, so a SIGKILL at any instant leaves either a complete, digest-pinned
entry or no entry — never a torn one.  The manifest pins a **fingerprint**
of (workload, strategy, kernel, privacy budget, batch layout, source
identity): resuming against a checkpoint taken for a different release
configuration is a targeted :class:`~repro.exceptions.CheckpointError`, not
silently wrong marginals.

Only the ``"marginal"`` measurement kernel is checkpointable (its unit of
work — one batch — is pure and mask-addressable); the Fourier and matrix
kernels measure in one indivisible pass and reject a checkpoint up front.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

import numpy as np

from repro.exceptions import CheckpointError
from repro.obs import runtime as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.plan import ExecutionPlan
    from repro.sources.base import CountSource


def _sha256_of_array(values: np.ndarray) -> str:
    # Imported lazily: repro.store imports the shard layer, which imports
    # this package — a module-level import would be circular.
    from repro.store.layout import sha256_of_array

    return sha256_of_array(values)

CHECKPOINT_FORMAT = "repro.resilience/checkpoint"
CHECKPOINT_FORMAT_VERSION = 1

MANIFEST_FILE = "checkpoint.json"
_ENTRY_FILE = "m{mask:016x}.npy"


def plan_fingerprint(plan: "ExecutionPlan", source: "CountSource") -> str:
    """sha256 pinning a checkpoint to one (plan, source) configuration.

    Covers everything that changes the exact per-batch values or their
    layout: the workload masks, strategy and kernel, the privacy budget and
    per-group allocation, the batch structure, and the source's identity
    (dimension, exact total weight, distinct records when known).  Worker
    and shard counts are deliberately *excluded* — they never change values,
    so a release may resume on a different machine shape.
    """
    table = plan.table
    payload = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dimension": plan.workload.dimension,
        "masks": [int(query.mask) for query in plan.workload.queries],
        "strategy": plan.strategy_name,
        "kind": plan.kind,
        "mechanism": plan.mechanism,
        "epsilon": repr(float(plan.allocation.budget.epsilon)),
        "delta": repr(float(plan.allocation.budget.delta)),
        "groups": [
            [label, mask, size, repr(budget)]
            for label, mask, size, budget in zip(
                table.labels, table.mask_column(), table.sizes.tolist(), table.budgets.tolist()
            )
        ],
        "batches": [
            [int(batch.root), [int(member) for member in batch.members]]
            for batch in plan.batches
        ],
        "source": {
            "dimension": int(source.dimension),
            "total": repr(float(source.total)),
            "distinct": getattr(source, "distinct_records", None),
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ReleaseCheckpoint:
    """A directory of exact (pre-noise) per-batch marginals, written
    crash-safely and replayable after a kill.

    Parameters
    ----------
    path:
        Checkpoint directory (created, with parents, when missing).
    """

    def __init__(self, path: Union[str, Path]):
        self._dir = Path(path)
        if self._dir.exists() and not self._dir.is_dir():
            raise CheckpointError(f"checkpoint path {self._dir} is not a directory")
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fingerprint: Optional[str] = None
        self._entries: Dict[str, Dict[str, object]] = {}
        self._load_manifest()

    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def fingerprint(self) -> Optional[str]:
        """Fingerprint the checkpoint is bound to (``None`` before binding)."""
        return self._fingerprint

    @property
    def entry_count(self) -> int:
        """Completed (staged) marginal entries."""
        return len(self._entries)

    def masks(self) -> List[int]:
        """Masks of the checkpointed marginals, ascending."""
        return sorted(int(key, 16) for key in self._entries)

    def __repr__(self) -> str:
        return (
            f"ReleaseCheckpoint({str(self._dir)!r}, entries={self.entry_count}, "
            f"bound={self._fingerprint is not None})"
        )

    # ------------------------------------------------------------------ #
    def _manifest_path(self) -> Path:
        return self._dir / MANIFEST_FILE

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as error:
            raise CheckpointError(
                f"corrupt checkpoint manifest {path}: {error}"
            ) from error
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{path} has format {manifest.get('format')!r}; "
                f"expected {CHECKPOINT_FORMAT!r}"
            )
        if int(manifest.get("format_version", 0)) > CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self._dir} uses format version "
                f"{manifest.get('format_version')}; this build reads up to "
                f"{CHECKPOINT_FORMAT_VERSION}"
            )
        self._fingerprint = manifest.get("fingerprint")
        entries = manifest.get("entries", {})
        if not isinstance(entries, dict):
            raise CheckpointError(f"checkpoint manifest {path} has malformed entries")
        self._entries = {str(key): dict(value) for key, value in entries.items()}

    def _write_manifest(self) -> None:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "fingerprint": self._fingerprint,
            "entries": self._entries,
        }
        path = self._manifest_path()
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)

    # ------------------------------------------------------------------ #
    def bind(self, fingerprint: str, *, resume: bool) -> None:
        """Attach the checkpoint to one release configuration.

        A fresh directory records ``fingerprint``.  An existing checkpoint
        must match it (else: it belongs to a different release —
        :class:`~repro.exceptions.CheckpointError` naming both digests), and
        holding completed entries without ``resume=True`` is also an error:
        silently replaying stale batches when the caller expected a fresh
        run would be a correctness trap.
        """
        if self._fingerprint is None:
            self._fingerprint = str(fingerprint)
            self._write_manifest()
            return
        if self._fingerprint != fingerprint:
            raise CheckpointError(
                f"checkpoint {self._dir} was taken for a different release "
                f"configuration (fingerprint {self._fingerprint[:12]}..., this "
                f"release is {fingerprint[:12]}...); point --checkpoint at a "
                "fresh directory"
            )
        if self._entries and not resume:
            raise CheckpointError(
                f"checkpoint {self._dir} already holds {len(self._entries)} "
                "measured batch(es); pass resume=True (CLI: --resume) to replay "
                "them, or use a fresh directory"
            )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(mask: int) -> str:
        return f"{int(mask):016x}"

    def has(self, mask: int) -> bool:
        """``True`` when the exact marginal of ``mask`` is staged."""
        return self._key(mask) in self._entries

    def load(self, mask: int) -> Optional[np.ndarray]:
        """Replay one staged marginal, verifying its content digest.

        Returns ``None`` — forcing a clean re-measure — when the entry is
        missing, unreadable, or fails its digest pin; a checkpoint can
        therefore never poison a resumed release with corrupt values.
        """
        entry = self._entries.get(self._key(mask))
        if entry is None:
            return None
        path = self._dir / str(entry["file"])
        try:
            value = np.load(path)
        except (OSError, ValueError):
            return None
        if _sha256_of_array(np.ascontiguousarray(value)) != entry.get("sha256"):
            return None
        return np.asarray(value, dtype=np.float64)

    def store(self, mask: int, value: np.ndarray) -> None:
        """Stage one exact marginal crash-safely (temp + atomic rename)."""
        key = self._key(mask)
        array = np.ascontiguousarray(np.asarray(value, dtype=np.float64))
        name = _ENTRY_FILE.format(mask=int(mask))
        path = self._dir / name
        tmp = path.with_name(path.name + ".tmp")
        # Through a handle: np.save would append ".npy" to a bare tmp name.
        with open(tmp, "wb") as handle:
            np.save(handle, array)
        os.replace(tmp, path)
        self._entries[key] = {
            "file": name,
            "cells": int(array.shape[0]),
            "sha256": _sha256_of_array(array),
        }
        self._write_manifest()
        if _obs.ENABLED:
            _obs.counter_inc("checkpoint.entries_written")
            _obs.counter_inc("checkpoint.bytes_written", float(array.nbytes))

    def clear(self) -> None:
        """Drop every staged entry (keeps the binding)."""
        for entry in self._entries.values():
            (self._dir / str(entry["file"])).unlink(missing_ok=True)
        self._entries = {}
        self._write_manifest()
