"""Batched operator execution engine with real I/O accounting.

Operators implement ``open() / next_batch() / close()`` (see
:mod:`.operator`); ``run``/``execute`` in :mod:`.run` are the facade the
rest of the engine uses.
"""

from .aggregate import Accumulator, AggregateState, compile_group_key
from .context import ExecContext, ExecMetrics, read_spill, spill_rows
from .exchange import fork_available
from .operator import BatchCursor, Operator, build_operator, operator_for
from .partition import (
    PartitionContext,
    page_range,
    partition_hash,
    partition_of,
)
from .run import execute, run
from .scans import index_entries
from .sortutil import SortKey, cmp_values, make_key_fn, sorted_rows

__all__ = [
    "Accumulator",
    "AggregateState",
    "compile_group_key",
    "ExecContext",
    "ExecMetrics",
    "read_spill",
    "spill_rows",
    "fork_available",
    "BatchCursor",
    "Operator",
    "build_operator",
    "operator_for",
    "PartitionContext",
    "page_range",
    "partition_hash",
    "partition_of",
    "execute",
    "run",
    "index_entries",
    "SortKey",
    "cmp_values",
    "make_key_fn",
    "sorted_rows",
]
