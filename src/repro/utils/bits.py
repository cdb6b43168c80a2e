"""Bit-mask helpers for attribute subsets over the Boolean hypercube.

Throughout the library a subset of the ``d`` binary attributes is encoded as
an integer bit mask ``alpha`` in ``[0, 2**d)``: bit ``i`` of ``alpha`` is set
iff attribute ``i`` belongs to the subset.  The paper writes the same object
as a vector ``alpha in {0,1}^d``; the integer encoding keeps marginal and
Fourier bookkeeping cheap and hashable.

The convention used everywhere is *little-endian*: attribute ``i`` of the
schema corresponds to bit ``i`` (value ``2**i``) of the mask.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence, Tuple

import numpy as np


#: ``int.bit_count`` (Python >= 3.10) is a single CPython opcode-level call;
#: the ``bin(...).count("1")`` fallback keeps older interpreters working.
_HAS_BIT_COUNT = hasattr(int, "bit_count")


def hamming_weight(mask: int) -> int:
    """Return the number of set bits of ``mask`` (written ``||alpha||`` in the
    paper, i.e. the dimensionality of the marginal indexed by ``mask``)."""
    if mask < 0:
        raise ValueError(f"bit masks must be non-negative, got {mask}")
    if _HAS_BIT_COUNT:
        return int(mask).bit_count()
    return bin(mask).count("1")


def popcount_array(masks: np.ndarray) -> np.ndarray:
    """Vectorised :func:`hamming_weight` over an array of masks.

    Masks must fit into 64 bits (every materialisable domain does: a mask
    over more than 63 attributes would index a ``2**64``-cell table).  Uses
    :func:`numpy.bitwise_count` when available, else the SWAR popcount.
    """
    array = np.asarray(masks)
    if array.size and (int(array.min()) < 0 or int(array.max()) >= (1 << 63)):
        raise ValueError("popcount_array requires masks in [0, 2**63)")
    unsigned = array.astype(np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(unsigned).astype(np.int64)
    x = unsigned.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def parity(mask: int) -> int:
    """Return the parity (0 or 1) of the number of set bits of ``mask``.

    Used to evaluate Fourier characters: ``(-1)**parity(alpha & beta)`` is the
    sign of the character ``f^alpha`` at point ``beta``.
    """
    return hamming_weight(mask) & 1


def dominated_by(alpha: int, beta: int) -> bool:
    """Return ``True`` iff ``alpha`` is dominated by ``beta`` (``alpha ⪯ beta``),
    i.e. every set bit of ``alpha`` is also set in ``beta``."""
    return (alpha & beta) == alpha


def dominates(alpha: int, beta: int) -> bool:
    """Return ``True`` iff ``alpha`` dominates ``beta`` (``beta ⪯ alpha``)."""
    return (alpha & beta) == beta


def bit_indices(mask: int) -> Tuple[int, ...]:
    """Return the (sorted, ascending) indices of the set bits of ``mask``."""
    indices = []
    while mask:
        lowest = mask & -mask
        indices.append(lowest.bit_length() - 1)
        mask ^= lowest
    return tuple(indices)


def from_bit_indices(indices: Sequence[int]) -> int:
    """Build a mask from a sequence of bit positions.

    Duplicate positions are allowed and collapse to a single set bit.
    """
    mask = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"bit positions must be non-negative, got {index}")
        mask |= 1 << index
    return mask


def mask_to_tuple(mask: int, width: int) -> Tuple[int, ...]:
    """Return the 0/1 tuple of length ``width`` for ``mask`` (bit ``i`` first)."""
    if mask >= (1 << width):
        raise ValueError(f"mask {mask} does not fit into {width} bits")
    return tuple((mask >> i) & 1 for i in range(width))


def tuple_to_mask(bits: Sequence[int]) -> int:
    """Inverse of :func:`mask_to_tuple`: build a mask from a 0/1 sequence."""
    mask = 0
    for index, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"expected a 0/1 sequence, found {bit!r} at position {index}")
        if bit:
            mask |= 1 << index
    return mask


def iter_submasks(mask: int, *, include_zero: bool = True, include_self: bool = True) -> Iterator[int]:
    """Iterate over every ``beta`` with ``beta ⪯ mask`` in decreasing order.

    Uses the standard ``(sub - 1) & mask`` trick, so the cost is
    ``O(2**hamming_weight(mask))`` regardless of the ambient dimension.
    """
    sub = mask
    while True:
        if (sub != mask or include_self) and (sub != 0 or include_zero):
            yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_supersets(mask: int, universe: int) -> Iterator[int]:
    """Iterate over every ``beta`` with ``mask ⪯ beta ⪯ universe``.

    ``universe`` is the mask of all available bits (typically ``2**d - 1``).
    """
    if not dominated_by(mask, universe):
        raise ValueError("mask must be contained in the universe")
    free = universe & ~mask
    for extra in iter_submasks(free):
        yield mask | extra


def masks_of_weight(d: int, k: int) -> Iterator[int]:
    """Iterate over all masks of Hamming weight ``k`` over ``d`` bits, in
    lexicographic order of their bit-index tuples."""
    if k < 0 or k > d:
        return
    for positions in combinations(range(d), k):
        yield from_bit_indices(positions)


def project_index(index: int, mask: int) -> int:
    """Project a full-domain cell index onto the coordinates in ``mask``.

    The result is a *compact* index in ``[0, 2**hamming_weight(mask))`` whose
    bit ``j`` is the value of the ``j``-th smallest attribute in ``mask``.
    This is the coordinate of the marginal cell that the full-domain cell
    ``index`` contributes to.
    """
    compact = 0
    out_bit = 0
    position = 0
    while mask >> position:
        if (mask >> position) & 1:
            if (index >> position) & 1:
                compact |= 1 << out_bit
            out_bit += 1
        position += 1
    return compact
