"""Columnar batches: one numpy array per column, with validity masks.

A :class:`ColumnBatch` is the vectorized twin of the row-tuple batch the
operator engine has used since PR 2.  Each column is a pair
``(data, valid)``:

* ``data`` — a numpy array of the column's values.  INT maps to
  ``int64``, FLOAT to ``float64``, BOOL to ``bool_``; TEXT and DATE stay
  ``object`` arrays (Python ``str``/``date`` values).  Columns whose
  values do not fit the fixed-width dtype (e.g. INT beyond 64 bits)
  degrade to ``object`` arrays — slower, but semantics-preserving.
* ``valid`` — an optional boolean mask, ``True`` where the value is
  non-NULL.  ``None`` means the whole column is valid (the common case,
  kept mask-free so kernels skip the mask arithmetic entirely).  Invalid
  lanes of fixed-width arrays hold a zero fill; invalid lanes of
  ``object`` arrays hold ``None``.

Conversion is loss-free in both directions: ``from_rows`` then
``to_rows`` reproduces the original row tuples with native Python values
(``int``, not ``numpy.int64``), which is what keeps the columnar engine
bit-identical to the row engine under the differential matrix.  Any
operator that has not been migrated simply calls
:func:`~repro.executor.operator.as_row_batch` on
its input and proceeds row-wise — that is the whole incremental-migration
contract.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..types import DataType, Schema

#: one column: (values array, validity mask or None-for-all-valid)
ColumnData = Tuple[np.ndarray, Optional[np.ndarray]]

_FIXED_DTYPES = {
    DataType.INT: np.int64,
    DataType.FLOAT: np.float64,
    DataType.BOOL: np.bool_,
}

#: zero fill stored in invalid lanes of fixed-width arrays
_FILLS = {
    DataType.INT: 0,
    DataType.FLOAT: 0.0,
    DataType.BOOL: False,
}


def column_from_values(
    values: Sequence[Any], dtype: DataType
) -> ColumnData:
    """Build one ``(data, valid)`` column from Python values.

    NULLs (``None``) become ``False`` lanes in the mask; a column with no
    NULLs gets ``valid=None``.
    """
    np_dtype = _FIXED_DTYPES.get(dtype)
    has_null = any(v is None for v in values)
    if np_dtype is None:
        data = np.empty(len(values), dtype=object)
        data[:] = values
        if not has_null:
            return data, None
        valid = np.array([v is not None for v in values], dtype=bool)
        return data, valid
    if not has_null:
        try:
            return np.array(values, dtype=np_dtype), None
        except (OverflowError, TypeError):
            data = np.empty(len(values), dtype=object)
            data[:] = values
            return data, None
    fill = _FILLS[dtype]
    filled = [fill if v is None else v for v in values]
    valid = np.array([v is not None for v in values], dtype=bool)
    try:
        return np.array(filled, dtype=np_dtype), valid
    except (OverflowError, TypeError):
        data = np.empty(len(values), dtype=object)
        data[:] = values
        return data, valid


class ColumnBatch:
    """A batch of rows stored column-wise (see module docstring).

    Supports ``len()`` and truthiness so the operator engine's
    instrumentation (``len(batch)``, ``if batch:``) works unchanged.
    """

    __slots__ = ("schema", "columns", "length")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[ColumnData],
        length: int,
    ):
        self.schema = schema
        self.columns: List[ColumnData] = list(columns)
        self.length = length

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnBatch({self.length} rows x {len(self.columns)} cols)"

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls, schema: Schema, rows: Sequence[Tuple[Any, ...]]
    ) -> "ColumnBatch":
        """Transpose row tuples into columnar arrays (loss-free)."""
        n = len(rows)
        columns: List[ColumnData] = []
        for i, col in enumerate(schema):
            values = [row[i] for row in rows]
            columns.append(column_from_values(values, col.dtype))
        return cls(schema, columns, n)

    # -- conversion ----------------------------------------------------------

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Transpose back to row tuples with *native Python* values.

        ``ndarray.tolist()`` converts numpy scalars to ``int``/``float``/
        ``bool``; NULL lanes are patched back to ``None`` from the mask.
        """
        if self.length == 0:
            return []
        lists: List[List[Any]] = []
        for data, valid in self.columns:
            values = data.tolist()
            if valid is not None and data.dtype != object:
                for i in np.flatnonzero(~valid).tolist():
                    values[i] = None
            lists.append(values)
        return list(zip(*lists))

    # -- columnar transforms -------------------------------------------------

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        """Gather rows by position (``numpy.take`` per column)."""
        columns: List[ColumnData] = []
        for data, valid in self.columns:
            columns.append(
                (
                    np.take(data, indices),
                    None if valid is None else np.take(valid, indices),
                )
            )
        return ColumnBatch(self.schema, columns, int(len(indices)))

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        """Keep the rows where *mask* is True."""
        columns: List[ColumnData] = []
        for data, valid in self.columns:
            columns.append(
                (data[mask], None if valid is None else valid[mask])
            )
        return ColumnBatch(self.schema, columns, int(np.count_nonzero(mask)))

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        stop = min(stop, self.length)
        columns: List[ColumnData] = [
            (data[start:stop], None if valid is None else valid[start:stop])
            for data, valid in self.columns
        ]
        return ColumnBatch(self.schema, columns, max(0, stop - start))

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Stack batches (same schema) into one."""
        if len(batches) == 1:
            return batches[0]
        schema = batches[0].schema
        columns: List[ColumnData] = []
        for i in range(len(schema)):
            parts = [b.columns[i] for b in batches]
            data = np.concatenate([d for d, _ in parts])
            if all(v is None for _, v in parts):
                valid: Optional[np.ndarray] = None
            else:
                valid = np.concatenate(
                    [
                        np.ones(len(d), dtype=bool) if v is None else v
                        for d, v in parts
                    ]
                )
            columns.append((data, valid))
        return ColumnBatch(schema, columns, sum(b.length for b in batches))


def kernel_values(
    data: np.ndarray, valid: Optional[np.ndarray]
) -> List[Any]:
    """A kernel result as a plain Python list (``None`` at NULL lanes).

    This is the bridge from a vectorized ``(data, valid)`` pair back to
    the row engine's value-column representation — ``tolist()`` converts
    numpy scalars to native ``int``/``float``/``bool``, so downstream
    hashing and accumulation behave bit-for-bit like the row engine.
    """
    values = data.tolist()
    if valid is not None:
        for i in np.flatnonzero(~valid).tolist():
            values[i] = None
    return values
