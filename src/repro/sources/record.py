"""The record-native backend: marginals straight from encoded record arrays.

A :class:`RecordSource` holds deduplicated ``(codes, weights)`` arrays —
``codes[i]`` is the packed domain index of one distinct record and
``weights[i]`` how many tuples carry it.  Two kernels compute cuboid
marginals ``C^alpha x`` from them, both independent of the ambient ``2**d``:

* **pair kernel** — every marginal of at most two bits in a worklist is read
  off ``G = P^T diag(w) P`` over the 0/1 bit planes ``P`` of the codes,
  which weighted ``numpy.bincount`` histograms of each touched byte and each
  pair of touched bytes give exactly, in fixed-size row chunks
  (:func:`pair_marginals`): one pass over the ``n`` distinct records per
  byte and per byte pair, instead of one per cuboid;
* **projected bincount** — every wider member is a weighted
  ``numpy.bincount`` of the codes projected onto the bits of ``alpha`` (the
  production idiom of workload-marginal libraries), costing ``O(k n + 2**k)``
  for a ``k``-way marginal (:func:`projected_marginals`).

The count weights are integers, and float64 addition of integers below
``2**53`` is exact in any order, so both kernels — and the dense cube
reductions — give bitwise identical marginals; seeded releases therefore
reproduce exactly across backends.  The pair kernel runs only when that
argument holds for its input (:func:`pair_kernel_is_exact`); other weights
take the projected bincount.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, combinations
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import DataError
from repro.fourier.index import project_indices
from repro.obs import runtime as _obs
from repro.sources.base import (
    CountSource,
    dense_allowed,
    ensure_dense_allowed,
    validate_count_vector,
)
from repro.utils.bits import bit_indices, hamming_weight, popcount_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domain.schema import Schema

#: Widest supported domain: codes are int64, so bit 62 is the last usable one.
MAX_RECORD_BITS = 62

#: Transient cell budget of the plane-sharing batch kernel: at most 2**23
#: int64 plane cells (64 MiB) held at once per kernel invocation.
PLANE_CELL_BUDGET = 1 << 23

#: Widest member the pair kernel serves.
PAIR_MAX_BITS = 2

#: Rows the pair kernel reads at once: per chunk it holds one compact byte
#: array per touched byte, one compound code array and one byte-pair
#: histogram (under 4 MiB at 62 bits), whatever the record count.
PAIR_CHUNK_ROWS = 1 << 16

#: Integers of magnitude below ``2**53`` are exact in float64.
EXACT_INTEGER_LIMIT = float(1 << 53)

#: Row ``v`` holds the bits of the byte value ``v``, lowest first.
_BIT_TABLE = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.float64)


def projected_marginals(
    codes: np.ndarray,
    weights: np.ndarray,
    root: int,
    members: Iterable[int],
) -> Dict[int, np.ndarray]:
    """Weighted-bincount marginals of several masks sharing one batch root.

    The naive loop projects the full code array from scratch for every
    member: four ufunc passes per mask bit (shift, and, shift, or).  Masks
    sharing a batch ``root`` can instead hoist the per-bit bookkeeping: each
    bit of the root is extracted into a 0/1 plane **once**, and every
    member's compact codes are assembled from the shared planes with two
    passes per bit.  The compact integers are identical either way, so the
    bincounts — and therefore seeded releases — are bitwise unchanged.

    A single member (or a root whose plane arrays would exceed the transient
    memory budget) falls back to the plain per-mask projection; both paths
    produce the same values.
    """
    member_list = [int(member) for member in members]
    out: Dict[int, np.ndarray] = {}
    root_bits = bit_indices(root)
    # Plane arrays are held simultaneously (one codes-sized int64 array per
    # root bit, possibly on several pool workers at once): cap the transient
    # footprint instead of letting wide roots over huge code arrays multiply.
    share_planes = (
        len(member_list) >= 2
        and len(root_bits) * codes.shape[0] <= PLANE_CELL_BUDGET
    )
    planes: Dict[int, np.ndarray] = {}
    if share_planes:
        for bit in root_bits:
            planes[bit] = (codes >> np.int64(bit)) & np.int64(1)
    for member in member_list:
        if member in out:
            continue
        k = hamming_weight(member)
        if share_planes and member & ~root == 0:
            compact = np.zeros_like(codes)
            for j, bit in enumerate(bit_indices(member)):
                compact |= planes[bit] << np.int64(j)
        else:
            compact = project_indices(codes, member)
        # astype: bincount of an *empty* weighted input yields int64 zeros;
        # the source contract (and dense-backend parity) is float64.
        out[member] = np.bincount(
            compact, weights=weights, minlength=1 << k
        ).astype(np.float64, copy=False)
    return out


def pair_kernel_is_exact(weights: np.ndarray) -> bool:
    """Whether the pair kernel reproduces the weighted bincount bit for bit.

    True when every weight is an integer and ``sum(|w|) < 2**53``: every
    histogram cell, partial sum, product and difference the pair kernel
    forms is then an integer of magnitude at most ``sum(|w|)``, which
    float64 represents exactly in any summation order.  The
    magnitude is summed chunk by chunk; its partial sums only grow and
    rounding is monotone, so the float total is below ``2**53`` exactly when
    the true total is.  NaN and infinite weights fail the test.
    """
    magnitude = 0.0
    for start in range(0, weights.shape[0], PAIR_CHUNK_ROWS):
        chunk = weights[start : start + PAIR_CHUNK_ROWS]
        if not np.array_equal(chunk, np.trunc(chunk)):
            return False
        magnitude += float(np.abs(chunk).sum())
    return magnitude < EXACT_INTEGER_LIMIT


def pair_kernel_cost(rows: int, masks: np.ndarray) -> Optional[float]:
    """Estimated cost of :func:`pair_marginals` over ``rows`` rows for an
    array of distinct masks of at most two bits, or ``None`` when separate
    projected bincounts of them would be cheaper.

    The one rule for the pair kernel: :func:`worklist_marginals` takes it
    exactly when this returns a cost, and the record backends'
    ``marginal_costs`` price the members it serves at an even share of that
    cost.  The kernel's work follows the touched bytes, not the members: one
    weighted bincount per touched byte and per pair of touched bytes, each
    row chunk, plus the ``2**(t_low + t_high)`` cells of every pair
    histogram.  A least-squares fit of timings on a 2-vCPU x86 host (300 to
    140k distinct 62-bit codes, one to eight touched bytes, within ~30%)
    gives, in nanoseconds: 4.6 per row and byte, 2.5 per row and byte pair,
    ~23k per histogram pass and chunk, 2.8 per pair-histogram cell and 79k
    per call; one member's projected bincount takes 5 per row plus 17k per
    call.  The estimate is in the unit of the bincount formula ``rows +
    2**k`` (5 ns), which leaves the bincount's own 17 us per call out, so
    it is scaled by ``rows / (rows + 3400)`` to compare fixed costs fairly.
    Eight touched bits one per byte over 41k rows come to ~24 bincounts:
    16 members take the bincount, all 36 take the kernel (5.6 ms measured
    against 7.9 ms).
    """
    touched = int(np.bitwise_or.reduce(masks))
    widths = [((touched >> shift) & 0xFF).bit_count() for shift in range(0, 64, 8)]
    widths = [width for width in widths if width]
    passes = len(widths) * (len(widths) + 1) // 2
    spans = sum(1 << width for width in widths)
    cells = (spans * spans - sum(1 << 2 * width for width in widths)) // 2
    chunks = -(-rows // PAIR_CHUNK_ROWS)
    cost = (
        rows * (0.9 * len(widths) + 0.5 * (passes - len(widths)))
        + chunks * (4500.0 * passes + 0.55 * cells)
        + 16000.0
    ) * (rows / (rows + 3400.0))
    bincounts = float(np.sum(rows + np.ldexp(1.0, popcount_array(masks))))
    return cost if cost < bincounts else None


def with_pair_costs(
    costs: np.ndarray, masks: np.ndarray, rows: int, *, scale: float = 1.0, extra: float = 0.0
) -> np.ndarray:
    """``costs`` of a worklist's ``masks`` with its members of at most two
    bits repriced at an even share of ``scale`` pair kernels over ``rows``
    rows (plus ``extra`` each), when :func:`pair_kernel_cost` says the
    kernel serves them; the record backends' ``marginal_costs``."""
    narrow = popcount_array(masks) <= PAIR_MAX_BITS
    if narrow.any():
        pair = pair_kernel_cost(rows, masks[narrow])
        if pair is not None:
            costs[narrow] = pair * scale / np.count_nonzero(narrow) + extra
    return costs


def _cross_block(joint: np.ndarray, low_bits: int, high_bits: int) -> np.ndarray:
    """``B_high^T H B_low`` for the joint histogram ``H`` of one byte pair.

    ``joint`` has ``2**high_bits`` rows (the higher byte's compact value)
    and ``2**low_bits`` columns, and ``B_t`` is the ``2**t x t`` bit table;
    entry ``[j, i]`` of the result sums the cells whose high value has bit
    ``j`` and low value bit ``i``.  The rows are contracted half their bits
    at a time (a sum over the other half, then a bit table of at most 16
    rows), so no product has more than ``2**4 * 2**8 * 4`` multiply-adds:
    BLAS runs products this small on the calling thread, so a shard pool
    task never fans out BLAS threads.
    """
    half = high_bits // 2
    cube = joint.reshape(1 << (high_bits - half), 1 << half, joint.shape[1])
    per_bit = np.concatenate(
        (
            _BIT_TABLE[: 1 << half, :half].T @ cube.sum(axis=0),
            _BIT_TABLE[: cube.shape[0], : high_bits - half].T @ cube.sum(axis=1),
        )
    )
    return per_bit @ _BIT_TABLE[: 1 << low_bits, :low_bits]


def pair_marginals(
    codes: np.ndarray, weights: np.ndarray, masks: Iterable[int]
) -> "StackedMarginals":
    """Marginals of masks of at most two bits from weighted byte histograms,
    stacked back to back in the order of ``masks`` (first occurrences).

    Every such marginal is read off ``G = P^T diag(w) P`` over the 0/1 bit
    planes ``P`` of the bits the masks touch, and ``G`` is read off weighted
    ``numpy.bincount`` histograms of the code bytes, in row chunks of
    :data:`PAIR_CHUNK_ROWS`.  Each byte holding touched bits is compressed
    to those ``t`` bits through a 256-entry lookup.  Its own ``2**t``-cell
    histogram gives its diagonal block of ``G``; each pair of such bytes
    gets one histogram of the compound code ``low | high << t_low``
    (``2**(t_low + t_high)`` cells), reduced to the pair's cross block
    (:func:`_cross_block`).  The cost is ``bytes + C(bytes, 2)`` bincount
    passes over the rows — 10 at 32 touched bits, 36 at 62 — plus at most
    ``2**16`` cells per pair and chunk, instead of ``O(n b**2)``
    multiply-adds.

    Transient memory does not grow with the row count: one chunk's compact
    bytes and compound codes and one pair histogram, under 4 MiB at any
    width; only ``G`` and the per-byte histograms live across chunks.

    With ``W = sum(w)``, each marginal is, in compact order (the lower bit
    is index bit 0):

    * ``{}``: ``[W]``;
    * ``{i}``: ``[W - G_ii, G_ii]``;
    * ``{i < j}``: ``[W - G_ii - G_jj + G_ij, G_ii - G_ij, G_jj - G_ij, G_ij]``.

    Bitwise equal to :func:`projected_marginals` only under
    :func:`pair_kernel_is_exact`; the caller checks.  No cell is ever
    ``-0.0``, as no bincount cell is: a float sum is ``-0.0`` only when all
    its terms are and a difference only when its first term is; every entry
    of ``G`` sums at least one histogram cell, and every marginal cell leads
    with ``W`` (``numpy.sum`` starts at ``+0.0``) or an entry of ``G``.
    """
    mask_list = list(dict.fromkeys(int(mask) for mask in masks))
    total = float(weights.sum())
    touched = 0
    for mask in mask_list:
        touched |= mask
    bits = bit_indices(touched)
    out = StackedMarginals(mask_list)
    if not bits:
        out.flat[:] = total
        return out
    groups: Dict[int, List[int]] = {}
    for bit in bits:
        groups.setdefault(bit >> 3, []).append(bit & 7)
    byte_index = sorted(groups)
    widths = [len(groups[byte]) for byte in byte_index]
    lookups = [
        (_BIT_TABLE[:, groups[byte]] @ (1 << np.arange(width))).astype(np.uint16)
        for byte, width in zip(byte_index, widths)
    ]
    offsets = np.cumsum([0] + widths).tolist()
    spans = [slice(offsets[k], offsets[k + 1]) for k in range(len(byte_index))]
    pairs = list(combinations(range(len(byte_index)), 2))
    # Rows and columns of ``gram`` follow ``bits``: bytes ascending, bits
    # ascending within a byte.  Cross blocks fill only the lower triangle,
    # which is all the marginals read.
    gram = np.zeros((len(bits), len(bits)))
    histograms = [np.zeros(1 << width) for width in widths]
    for start in range(0, codes.shape[0], PAIR_CHUNK_ROWS):
        chunk = np.ascontiguousarray(codes[start : start + PAIR_CHUNK_ROWS], dtype="<i8")
        chunk_weights = weights[start : start + PAIR_CHUNK_ROWS]
        raw = chunk.view(np.uint8).reshape(-1, 8)
        compact = [np.take(lookup, raw[:, byte]) for lookup, byte in zip(lookups, byte_index)]
        for histogram, values in zip(histograms, compact):
            histogram += np.bincount(values, chunk_weights, histogram.shape[0])
        for low, high in pairs:
            compound = compact[low] | (compact[high] << np.uint16(widths[low]))
            joint = np.bincount(compound, chunk_weights, 1 << (widths[low] + widths[high]))
            gram[spans[high], spans[low]] += _cross_block(
                joint.reshape(1 << widths[high], -1), widths[low], widths[high]
            )
    for histogram, width, span in zip(histograms, widths, spans):
        table = _BIT_TABLE[: 1 << width, :width]
        gram[span, span] = (histogram[:, None] * table).T @ table
    # Every marginal at once: each mask's lower and higher bit, located in
    # ``bits`` (a missing bit reads position 0, whose cells go unused); the
    # pair's entry is read from the lower triangle.
    mask_array = np.array(mask_list, dtype=np.int64)
    lower = mask_array & -mask_array
    higher = mask_array ^ lower
    bit_values = np.array([1 << bit for bit in bits], dtype=np.int64)
    first = np.searchsorted(bit_values, lower)
    second = np.searchsorted(bit_values, higher)
    low_count, high_count = gram.diagonal()[first], gram.diagonal()[second]
    both = gram[second, first]
    starts = np.array(out.starts[:-1], dtype=np.int64)
    out.flat[starts[mask_array == 0]] = total
    singles = (lower != 0) & (higher == 0)
    cells = starts[singles][:, None] + np.arange(2)
    out.flat[cells] = np.stack((total - low_count[singles], low_count[singles]), axis=1)
    doubles = higher != 0
    low_count, high_count, both = low_count[doubles], high_count[doubles], both[doubles]
    cells = starts[doubles][:, None] + np.arange(4)
    out.flat[cells] = np.stack(
        (
            total - low_count - high_count + both,
            low_count - both,
            high_count - both,
            both,
        ),
        axis=1,
    )
    return out


class StackedMarginals(Mapping):
    """A mapping ``{mask: marginal}`` whose narrow members share one vector.

    The marginals of ``masks`` (distinct, of at most :data:`PAIR_MAX_BITS`
    bits) sit back to back in ``flat``, in the order of ``masks``, member
    ``i`` at ``flat[starts[i]:starts[i + 1]]``; wider marginals are kept
    apart in ``wide``.  Lookups return views.  The record kernels return
    this layout so that shard results with the same worklist add with one
    :meth:`add` instead of one ``np.add`` per mask.
    """

    def __init__(self, masks: Sequence[int]):
        self.masks: Tuple[int, ...] = tuple(masks)
        self.starts: List[int] = [0]
        for mask in self.masks:
            self.starts.append(self.starts[-1] + (1 << mask.bit_count()))
        self._index = {mask: position for position, mask in enumerate(self.masks)}
        self.flat = np.empty(self.starts[-1])
        self.wide: Dict[int, np.ndarray] = {}

    def __getitem__(self, mask: int) -> np.ndarray:
        position = self._index.get(mask)
        if position is None:
            return self.wide[mask]
        return self.flat[self.starts[position] : self.starts[position + 1]]

    def __setitem__(self, mask: int, value: np.ndarray) -> None:
        if mask in self._index:
            self[mask][:] = value
        else:
            self.wide[mask] = value

    def __iter__(self):
        return chain(self.masks, self.wide)

    def __len__(self) -> int:
        return len(self.masks) + len(self.wide)

    def items(self) -> List[Tuple[int, np.ndarray]]:  # type: ignore[override]
        """Every ``(mask, marginal)`` pair, slicing ``flat`` once."""
        flat, starts = self.flat, self.starts
        return [
            *((mask, flat[start:end]) for mask, start, end in zip(self.masks, starts, starts[1:])),
            *self.wide.items(),
        ]

    def add(self, other: "StackedMarginals") -> None:
        """Add another result over the same worklist in place, cell by cell."""
        np.add(self.flat, other.flat, out=self.flat)
        for mask, value in self.wide.items():
            np.add(value, other.wide[mask], out=value)


def worklist_marginals(
    codes: np.ndarray, weights: np.ndarray, work: Sequence[Tuple[int, Sequence[int]]]
) -> StackedMarginals:
    """Every member marginal of a ``(root, members)`` worklist over one code array.

    The kernel of every record backend (one call per worklist, or per shard
    of one).  Members of at most :data:`PAIR_MAX_BITS` bits are served
    together by :func:`pair_marginals` when :func:`pair_kernel_cost` prices
    it below their separate bincounts and :func:`pair_kernel_is_exact`
    holds; every other member takes :func:`projected_marginals` with its
    batch root.  Either way the values are the weighted bincounts,
    bit for bit, and the narrow members are stacked in worklist order
    (:class:`StackedMarginals`), whichever kernel computed them.  Traced
    runs count the members each kernel computed (``source.pair_members`` /
    ``source.bincount_members``, per call).
    """
    members = dict.fromkeys(int(member) for _root, group in work for member in group)
    narrow = [member for member in members if member.bit_count() <= PAIR_MAX_BITS]
    if (
        narrow
        and pair_kernel_cost(codes.shape[0], np.array(narrow, dtype=np.int64)) is not None
        and pair_kernel_is_exact(weights)
    ):
        out = pair_marginals(codes, weights, narrow)
        done = set(narrow)
    else:
        out = StackedMarginals(narrow)
        done = set()
    paired = len(done)
    for root, group in work:
        pending = [member for member in group if member not in done]
        if pending:
            for member, value in projected_marginals(codes, weights, root, pending).items():
                out[member] = value
            done.update(pending)
    if _obs.ENABLED:
        _obs.counter_inc("source.pair_members", paired)
        _obs.counter_inc("source.bincount_members", len(out) - paired)
    return out


def checked_worklist_marginals(
    source: CountSource,
    batches: Sequence[Tuple[int, Sequence[int]]],
    compute: Callable[[List[Tuple[int, Tuple[int, ...]]]], Dict[int, np.ndarray]],
) -> Dict[int, np.ndarray]:
    """The ``marginals_for_batches`` of the record backends: validate every
    mask, then hand ``compute`` ONE worklist that names each member once.

    The masks are checked with one range check over all of them and one
    width check over the members; a worklist with an invalid mask raises
    what checking each mask in turn would (:func:`_raise_for_masks`) before
    anything is computed.  A member listed under several roots is computed
    under the first; callers own every returned array.
    """
    roots = [int(root) for root, _members in batches]
    member_lists = [[int(member) for member in members] for _root, members in batches]
    unique = list(dict.fromkeys(chain.from_iterable(member_lists)))
    masks = roots + unique
    if masks and (
        min(masks) < 0
        or max(masks) >= source.domain_size
        or (unique and not dense_allowed(int(popcount_array(np.array(unique)).max())))
    ):
        _raise_for_masks(source, batches)
    seen: set = set()
    work: List[Tuple[int, Tuple[int, ...]]] = []
    for root, members in zip(roots, member_lists):
        needed = tuple(dict.fromkeys(member for member in members if member not in seen))
        if needed:
            seen.update(needed)
            work.append((root, needed))
    return dict(compute(work).items()) if work else {}


def _raise_for_masks(
    source: CountSource, batches: Sequence[Tuple[int, Sequence[int]]]
) -> None:
    """Check each mask of a worklist in turn; raises for the first bad one."""
    seen = set()
    for root, members in batches:
        source.check_mask(int(root))
        for member in members:
            member = source.check_mask(int(member))
            if member not in seen:
                seen.add(member)
                ensure_dense_allowed(
                    hamming_weight(member),
                    what=f"the cuboid marginal {member:#x}",
                )


class RecordSource(CountSource):
    """Count source over deduplicated encoded records.

    Parameters
    ----------
    codes:
        1-D integer array of packed domain indices (one per record, or one
        per *distinct* record when ``weights`` carries multiplicities).
    weights:
        Optional per-code weights (tuple counts); defaults to all ones.
    dimension:
        Number of binary attributes ``d`` of the domain the codes index.
    schema:
        Optional schema carried along for introspection.
    deduplicate:
        Collapse duplicate codes into one entry with summed weights
        (default).  Pass ``False`` when the caller already aggregated.

    Requesting a marginal or dense vector wider than the dense limit
    (:data:`~repro.sources.base.DENSE_LIMIT_BITS`) raises
    :class:`~repro.exceptions.DomainSizeError`.
    """

    backend = "record"

    def __init__(
        self,
        codes: Union[np.ndarray, Sequence[int]],
        weights: Optional[Union[np.ndarray, Sequence[float]]] = None,
        *,
        dimension: int,
        schema: Optional["Schema"] = None,
        deduplicate: bool = True,
    ):
        d = int(dimension)
        if not (1 <= d <= MAX_RECORD_BITS):
            raise DataError(
                f"record sources support 1..{MAX_RECORD_BITS} binary attributes, got {d}"
            )
        code_array = np.asarray(codes, dtype=np.int64).reshape(-1)
        if code_array.size and (
            int(code_array.min()) < 0 or int(code_array.max()) >= (1 << d)
        ):
            raise DataError(f"record codes fall outside the {d}-bit domain")
        if weights is None:
            weight_array = np.ones(code_array.shape[0], dtype=np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weight_array.shape != code_array.shape:
                raise DataError(
                    f"got {weight_array.shape[0]} weights for {code_array.shape[0]} codes"
                )
            if not np.isfinite(weight_array).all():
                raise DataError("record weights must be finite")
        if deduplicate and code_array.size:
            unique, inverse = np.unique(code_array, return_inverse=True)
            weight_array = np.bincount(
                inverse.reshape(-1), weights=weight_array, minlength=unique.shape[0]
            )
            code_array = unique
        self._codes = code_array
        self._weights = weight_array
        self._d = d
        self._schema = schema

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls,
        schema: "Schema",
        records: Union[np.ndarray, Sequence[Sequence[int]]],
    ) -> "RecordSource":
        """Encode and deduplicate a record matrix over ``schema``."""
        codes = schema.encode_records(records)
        return cls(codes, dimension=schema.total_bits, schema=schema)

    @classmethod
    def from_vector(
        cls,
        vector: np.ndarray,
        dimension: Optional[int] = None,
        *,
        schema: Optional["Schema"] = None,
    ) -> "RecordSource":
        """Build a record source from the non-zero cells of a dense vector."""
        array, d = validate_count_vector(vector, dimension)
        codes = np.flatnonzero(array)
        return cls(codes, array[codes], dimension=d, schema=schema, deduplicate=False)

    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return self._d

    @property
    def schema(self) -> Optional["Schema"]:
        """The schema the codes are encoded under, when known."""
        return self._schema

    @property
    def codes(self) -> np.ndarray:
        """Deduplicated packed domain indices (read-only view)."""
        view = self._codes.view()
        view.setflags(write=False)
        return view

    @property
    def weights(self) -> np.ndarray:
        """Per-code tuple counts (read-only view)."""
        view = self._weights.view()
        view.setflags(write=False)
        return view

    @property
    def distinct_records(self) -> int:
        """Number of distinct stored records."""
        return int(self._codes.shape[0])

    @property
    def total(self) -> float:
        return float(self._weights.sum())

    def __repr__(self) -> str:
        return (
            f"RecordSource(d={self._d}, distinct={self.distinct_records}, "
            f"total={self.total:g})"
        )

    def describe_layout(self) -> str:
        return (
            f"1 shard of {self.distinct_records} distinct records "
            "(unsharded, 1 worker)"
        )

    # ------------------------------------------------------------------ #
    def marginal(self, mask: int) -> np.ndarray:
        return self.marginals_for_batches([(mask, (mask,))])[int(mask)]

    def marginals_for_batches(
        self, batches: Sequence[Tuple[int, Sequence[int]]]
    ) -> Dict[int, np.ndarray]:
        return checked_worklist_marginals(self, batches, self._compute)

    def _compute(
        self, work: List[Tuple[int, Tuple[int, ...]]]
    ) -> Dict[int, np.ndarray]:
        if not _obs.ENABLED:
            return worklist_marginals(self._codes, self._weights, work)
        _obs.counter_inc("source.batches", len(work))
        with _obs.trace_span(
            "source.worklist",
            batches=len(work),
            members=sum(len(members) for _root, members in work),
        ):
            return worklist_marginals(self._codes, self._weights, work)

    def dense_vector(self) -> np.ndarray:
        ensure_dense_allowed(self._d)
        return np.bincount(
            self._codes, weights=self._weights, minlength=self.domain_size
        ).astype(np.float64, copy=False)

    def marginal_costs(self, masks: np.ndarray) -> np.ndarray:
        """Projected-bincount cost: one pass over the ``n`` distinct codes
        plus the ``2**k`` output cells — independent of ``2**d``.  The
        members of at most two bits share the pair kernel's estimate
        (:func:`pair_kernel_cost`) evenly when the kernel would serve them."""
        return with_pair_costs(
            self.distinct_records + np.ldexp(1.0, popcount_array(masks)),
            masks,
            self.distinct_records,
        )

    def can_materialise(self, mask: int) -> bool:
        return dense_allowed(hamming_weight(mask))
