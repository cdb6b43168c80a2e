"""Helpers that write or damage release-store files directly.

``ReleaseStore.put`` writes one layout, v3: a single ``marginals.npy``
holding every marginal vector back to back.  Stores written by earlier
builds hold v1 (one compressed ``marginals.npz`` archive) or v2 (one raw
``marginals/marginal_NNNNN.npy`` per vector) releases, which the store still
reads.  :func:`write_legacy_release` writes such a release with the same
``meta.json`` fields the old writer put down, so the legacy readers stay
covered without a writer knob in the library.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.serving.store import ReleaseStore
from repro.store.layout import NPY_HEADER_BYTES, sha256_of_array

LEGACY_FORMAT_VERSIONS = {"v1": 1, "v2": 2}


def write_legacy_release(
    store: ReleaseStore, release, layout: str, *, release_id: Optional[str] = None
) -> str:
    """Store ``release`` in the legacy ``layout`` ("v1" or "v2"); returns its id."""
    sequence = 1 + max(
        (int(store.metadata(rid)["sequence"]) for rid in store.release_ids()), default=0
    )
    release_id = release_id or f"release-{sequence:04d}"
    directory = store.root / release_id
    directory.mkdir()
    arrays = [np.asarray(marginal, dtype=np.float64) for marginal in release.marginals]
    keys = [f"marginal_{position:05d}" for position in range(len(arrays))]
    if layout == "v1":
        np.savez_compressed(directory / "marginals.npz", **dict(zip(keys, arrays)))
    else:
        (directory / "marginals").mkdir()
        for key, array in zip(keys, arrays):
            np.save(directory / "marginals" / f"{key}.npy", array)
    meta = release.to_dict(include_marginals=False)
    meta.update(
        store_format_version=LEGACY_FORMAT_VERSIONS[layout],
        marginals_layout=layout,
        created_at=time.time(),
        sequence=sequence,
        marginal_digests=[sha256_of_array(array) for array in arrays],
    )
    (directory / "meta.json").write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")))
    store.reindex()
    return release_id


def marginal_offset(release, position: int) -> int:
    """Byte offset of vector ``position`` inside a v3 ``marginals.npy``."""
    cells = sum(query.size for query in release.workload.queries[:position])
    return NPY_HEADER_BYTES + 8 * cells


def corrupt_marginal(root: Path, release_id: str, position: int, release) -> None:
    """Flip one byte inside vector ``position`` of a stored v3 release, in place."""
    with open(Path(root) / release_id / "marginals.npy", "r+b") as handle:
        handle.seek(marginal_offset(release, position))
        byte = handle.read(1)[0]
        handle.seek(-1, 1)
        handle.write(bytes((byte ^ 0xFF,)))


def truncate(path: Path, size: int) -> None:
    """Cut ``path`` down to ``size`` bytes (a torn copy or a short read)."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
