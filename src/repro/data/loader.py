"""Generic CSV loading for categorical data.

These helpers turn arbitrary delimited files of categorical columns into
:class:`~repro.domain.dataset.Dataset` objects by enumerating the distinct
values of every column.  They make it easy to run the release pipeline on a
user's own data without writing encoding code.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.domain.attribute import Attribute
from repro.domain.dataset import Dataset
from repro.domain.schema import Schema
from repro.exceptions import DataError


def infer_schema_from_records(
    columns: Sequence[str], rows: Sequence[Sequence[str]]
) -> Tuple[Schema, np.ndarray]:
    """Build a schema (and encoded record matrix) from raw string records.

    Every column becomes a categorical attribute whose values are the sorted
    distinct strings observed in that column.  Encoding is one
    ``numpy.unique(..., return_inverse=True)`` per column (NumPy sorts
    strings exactly like Python, so labels and codes are identical to the
    historical per-row dict encoding, just without the per-cell Python).
    """
    if len(rows) == 0:
        raise DataError("cannot infer a schema from an empty record collection")
    table = rows if isinstance(rows, np.ndarray) else None
    if table is not None:
        ragged = table.ndim != 2 or table.shape[1] != len(columns)
    else:
        ragged = any(len(row) != len(columns) for row in rows)
    if ragged:
        raise DataError("all rows must have one value per column")
    attributes: List[Attribute] = []
    matrix = np.empty((len(rows), len(columns)), dtype=np.int64)
    for position, name in enumerate(columns):
        # One array *per column*, dtype=object: fixed-width string dtypes
        # would pad every cell (and silently drop trailing NUL characters),
        # while object columns keep the original strings by reference and
        # np.unique sorts them with Python's own string comparison — exactly
        # the historical ``sorted(set(column))`` order.
        if table is not None:
            column = table[:, position]
        else:
            column = np.asarray([row[position] for row in rows], dtype=object)
        values, codes = np.unique(column, return_inverse=True)
        if values.shape[0] < 2:
            raise DataError(
                f"column {name!r} has fewer than two distinct values and cannot "
                "be used as a categorical attribute"
            )
        attributes.append(
            Attribute(name, values.shape[0], labels=tuple(values.tolist()))
        )
        matrix[:, position] = codes.reshape(-1)
    return Schema(attributes), matrix


def load_csv(
    path: Union[str, Path],
    *,
    columns: Optional[Sequence[str]] = None,
    has_header: bool = True,
    name: Optional[str] = None,
) -> Dataset:
    """Load a comma-separated file of categorical columns into a :class:`Dataset`.

    Parameters
    ----------
    path:
        Path to the file.
    columns:
        Names of the columns to keep (all columns when ``None``).  When the
        file has no header, these must be ``"column_0"``, ``"column_1"``, ...
    has_header:
        Whether the first row holds column names.
    name:
        Optional dataset name (defaults to the file stem).
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"file not found: {file_path}")
    with file_path.open(newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{file_path} contains no records")
    if has_header:
        header = [cell.strip() for cell in rows[0]]
        body = rows[1:]
    else:
        header = [f"column_{i}" for i in range(len(rows[0]))]
        body = rows
    if not body:
        raise DataError(f"{file_path} contains a header but no records")
    wanted = list(columns) if columns is not None else header
    missing = [column for column in wanted if column not in header]
    if missing:
        raise DataError(f"columns {missing} not present in {file_path} (header: {header})")
    positions = [header.index(column) for column in wanted]
    stripped = [[row[position].strip() for position in positions] for row in body]
    schema, matrix = infer_schema_from_records(wanted, stripped)
    return Dataset(schema, matrix, name=name or file_path.stem)


def infer_csv_schema(
    path: Union[str, Path],
    *,
    columns: Optional[Sequence[str]] = None,
    has_header: bool = True,
) -> Schema:
    """Infer a schema from a comma-separated file in one streaming pass.

    Memory is bounded by the number of *distinct* values per column (never
    the row count), so arbitrarily large files can be schema'd before being
    streamed through :func:`iter_csv_batches`.  The result is identical to
    ``load_csv(path, ...).schema``: every kept column becomes a categorical
    attribute over its sorted distinct (stripped) strings.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"file not found: {file_path}")
    with file_path.open(newline="") as handle:
        reader = csv.reader(handle)
        positions: Optional[List[int]] = None
        wanted: Optional[List[str]] = None
        seen: List[set] = []
        rows = 0
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if positions is None:
                if has_header:
                    header = [cell.strip() for cell in row]
                else:
                    header = [f"column_{i}" for i in range(len(row))]
                wanted = list(columns) if columns is not None else header
                missing = [column for column in wanted if column not in header]
                if missing:
                    raise DataError(
                        f"columns {missing} not present in {file_path} (header: {header})"
                    )
                positions = [header.index(column) for column in wanted]
                seen = [set() for _ in wanted]
                if has_header:
                    continue
            if max(positions, default=-1) >= len(row):
                raise DataError("all rows must have one value per column")
            for values, position in zip(seen, positions):
                values.add(row[position].strip())
            rows += 1
    if positions is None or rows == 0:
        raise DataError(f"{file_path} contains no records")
    attributes: List[Attribute] = []
    assert wanted is not None
    for name, values in zip(wanted, seen):
        if len(values) < 2:
            raise DataError(
                f"column {name!r} has fewer than two distinct values and cannot "
                "be used as a categorical attribute"
            )
        attributes.append(Attribute(name, len(values), labels=tuple(sorted(values))))
    return Schema(attributes)


def _attribute_code_map(attribute: Attribute) -> Dict[str, int]:
    """Label → code mapping of one attribute (labels, or plain digit codes)."""
    if attribute.labels is not None:
        return {label: code for code, label in enumerate(attribute.labels)}
    return {str(code): code for code in range(attribute.cardinality)}


def _batch_code_dtype(schema: Schema) -> np.dtype:
    """Narrowest unsigned dtype holding every per-attribute code of ``schema``.

    Batch matrices hold *per-attribute* codes (bounded by the largest
    attribute cardinality, not the packed domain), so uint8 covers most real
    schemas — an 8x memory cut per buffered batch against plain int64.
    ``Schema.check_records`` validates a batch in its own dtype and widens
    it to int64 only after, for the packing product, so narrowed batches
    pack to identical domain codes.
    """
    top = max(attribute.cardinality - 1 for attribute in schema.attributes)
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _encode_chunk(
    columns: List[List[str]],
    maps: Sequence[Dict[str, int]],
    names: Sequence[str],
    dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Encode one buffered chunk of string columns into a code matrix.

    One ``np.unique`` per column maps each *distinct* string through the
    label dictionary once (instead of one dict lookup per cell).
    """
    matrix = np.empty((len(columns[0]), len(columns)), dtype=dtype)
    for position, (column, mapping, name) in enumerate(zip(columns, maps, names)):
        values, inverse = np.unique(np.asarray(column, dtype=object), return_inverse=True)
        try:
            codes = np.array([mapping[value] for value in values.tolist()], dtype=dtype)
        except KeyError as error:
            raise DataError(
                f"column {name!r} contains the value {error.args[0]!r}, which is "
                "not in the schema's label set"
            ) from None
        matrix[:, position] = codes[inverse.reshape(-1)]
    return matrix


def iter_csv_batches(
    path: Union[str, Path],
    schema: Schema,
    *,
    columns: Optional[Sequence[str]] = None,
    has_header: bool = True,
    batch_size: int = 50_000,
) -> Iterator[np.ndarray]:
    """Stream a comma-separated file as encoded record batches over a fixed schema.

    The streaming counterpart of :func:`load_csv` for datasets larger than
    memory: the file is read row by row and yielded as ``(rows, attributes)``
    code matrices of at most ``batch_size`` rows — the whole file is never
    resident.  Matrices use the narrowest unsigned dtype that holds the
    schema's per-attribute codes (uint8/16/32, int64 as the fallback); the
    code *values* are identical to the historical int64 batches and pack to
    the same domain codes.  Because values are *encoded* (not inferred), the schema
    is fixed up front and every value must be one of its attribute labels
    (schemas without labels accept the integer codes as digits); an unknown
    value raises :class:`DataError` naming the column.

    ``columns`` names the schema attributes to look up in the file's header
    (a permutation of the schema's attribute names; useful when the file
    holds extra columns or a different header order).  The yielded matrices
    are **always in schema attribute order** — ready for
    :meth:`repro.domain.schema.Schema.encode_records` /
    :meth:`repro.shards.streaming.StreamingSourceBuilder.add_records` —
    regardless of the ``columns`` order.
    """
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"file not found: {file_path}")
    if batch_size < 1:
        raise DataError(f"batch_size must be positive, got {batch_size}")
    names = [attribute.name for attribute in schema.attributes]
    wanted = list(columns) if columns is not None else list(names)
    if sorted(wanted) != sorted(names):
        raise DataError(
            f"columns must name every schema attribute exactly once "
            f"(schema: {names}, got: {wanted})"
        )
    # Read in `wanted` (file) order, yield in schema attribute order: codes
    # are packed positionally downstream, so column order must match the
    # schema no matter how the file is laid out.
    schema_order = [wanted.index(name) for name in names]
    maps = [_attribute_code_map(schema.attribute(name)) for name in wanted]
    dtype = _batch_code_dtype(schema)
    with file_path.open(newline="") as handle:
        reader = csv.reader(handle)
        positions: Optional[List[int]] = None
        if not has_header:
            positions = list(range(len(wanted)))
        buffer: List[List[str]] = [[] for _ in wanted]
        buffered = 0
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            if positions is None:  # first non-empty row is the header
                header = [cell.strip() for cell in row]
                missing = [column for column in wanted if column not in header]
                if missing:
                    raise DataError(
                        f"columns {missing} not present in {file_path} (header: {header})"
                    )
                positions = [header.index(column) for column in wanted]
                continue
            if max(positions, default=-1) >= len(row):
                raise DataError("all rows must have one value per column")
            for column, position in zip(buffer, positions):
                column.append(row[position].strip())
            buffered += 1
            if buffered >= batch_size:
                yield _encode_chunk(buffer, maps, wanted, dtype)[:, schema_order]
                buffer = [[] for _ in wanted]
                buffered = 0
        if buffered:
            yield _encode_chunk(buffer, maps, wanted, dtype)[:, schema_order]
