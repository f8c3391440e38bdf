"""Blocking operators: external sort, aggregation, distinct.

Sort spills fixed-size runs through temp heap files and k-way-merges
them, exactly as the generator engine did (run boundaries are sliced to
``max_rows`` regardless of the producer's batch size, so spill behaviour
is batch-size independent).  Aggregation evaluates group keys and
argument expressions once per batch.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..expr import ExprError, compile_expr, compile_expr_batch
from ..physical import PAggregate, PDistinct, PSort
from .aggregate import Accumulator, AggregateState
from .operator import (
    Batch,
    Row,
    UnaryOperator,
    as_row_batch,
    is_columnar,
    operator_for,
)
from .sortutil import make_key_fn


@operator_for(PSort)
class SortOp(UnaryOperator):
    """External merge sort through temp files when input exceeds work
    memory; pure in-memory sort otherwise."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        child_schema = plan.child.schema
        evaluators = [compile_expr(e, child_schema) for e, _ in plan.keys]
        directions = [asc for _, asc in plan.keys]
        self.key_fn = make_key_fn(evaluators, directions)
        self._sorted: Optional[List[Row]] = None
        self._pos = 0
        self._merge: Optional[Iterator[Row]] = None

    def _open(self):
        super()._open()
        self._sorted = None
        self._pos = 0
        self._merge = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._sorted is None and self._merge is None:
            self._build()
        n = self._target(max_rows)
        if self._sorted is not None:
            batch = self._sorted[self._pos : self._pos + n]
            if not batch:
                return None
            self._pos += len(batch)
            return batch
        batch = list(islice(self._merge, n))
        return batch or None

    def _build(self) -> None:
        ctx = self.ctx
        plan = self.plan
        child_schema = plan.child.schema
        key_fn = self.key_fn
        max_rows = ctx.max_rows_in_memory(child_schema)

        runs = []
        buffer: List[Row] = []
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            batch = as_row_batch(batch)
            i = 0
            while i < len(batch):
                take = min(max_rows - len(buffer), len(batch) - i)
                buffer.extend(batch[i : i + take])
                i += take
                if len(buffer) >= max_rows:
                    buffer.sort(key=key_fn)
                    runs.append(_write_run(ctx, child_schema, buffer))
                    buffer = []
        if not runs:
            buffer.sort(key=key_fn)
            self._sorted = buffer
            return
        if buffer:
            buffer.sort(key=key_fn)
            runs.append(_write_run(ctx, child_schema, buffer))
        ctx.metrics.spills += 1
        self._merge = self._merge_runs(runs)

    def _merge_runs(self, runs) -> Iterator[Row]:
        """k-way merge of sorted run files."""
        key_fn = self.key_fn
        streams = [run_file.scan_rows() for run_file in runs]
        heap: List[Tuple[Any, int, Row]] = []
        for i, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heapq.heappush(heap, (key_fn(first), i, first))
        while heap:
            _, i, row = heapq.heappop(heap)
            yield row
            nxt = next(streams[i], None)
            if nxt is not None:
                heapq.heappush(heap, (key_fn(nxt), i, nxt))
        for run_file in runs:
            self.ctx.drop_temp(run_file)

    def _close(self):
        self._sorted = None
        self._merge = None
        super()._close()


def _write_run(ctx, schema, rows: List[Row]):
    temp = ctx.create_temp(schema)
    for row in rows:
        temp.insert(row)
    return temp


@operator_for(PAggregate)
class AggregateOp(UnaryOperator):
    """Hash aggregation (or stream aggregation over sorted input).

    ``mode="partial"`` emits mergeable accumulator states instead of
    results; ``mode="final"`` consumes partial-state rows (group values
    first, one state per aggregate after) and produces the real results.
    A final aggregate never compiles expressions — its child's rows are
    positional by construction.

    Under a columnar context only key/argument *extraction* is
    vectorized: group keys and aggregate arguments come from columnar
    kernels as plain Python lists, then flow into the exact same
    accumulator fold as the row engine.  Accumulation stays strictly
    sequential on purpose — float ``SUM``/``AVG`` are order- and
    association-sensitive, and bit-identical results across engines are
    part of the differential-testing contract.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.group_kernels = None
        self.arg_kernels = None
        if plan.mode == "final":
            self.state = None
            self.group_fns = []
            self.arg_fns = []
        else:
            child_schema = plan.child.schema
            self.state = AggregateState(plan.aggs, child_schema)
            self.group_fns = [
                compile_expr_batch(g, child_schema) for g in plan.group_exprs
            ]
            self.arg_fns = [
                None
                if agg.arg is None
                else compile_expr_batch(agg.arg, child_schema)
                for agg in plan.aggs
            ]
            if ctx.columnar:
                from ..expr.vector import compile_expr_columnar

                try:
                    self.group_kernels = [
                        compile_expr_columnar(g, child_schema)
                        for g in plan.group_exprs
                    ]
                    self.arg_kernels = [
                        None
                        if agg.arg is None
                        else compile_expr_columnar(agg.arg, child_schema)
                        for agg in plan.aggs
                    ]
                except ExprError:
                    self.group_kernels = None
                    self.arg_kernels = None
        self._out: Optional[Iterator[Row]] = None

    def _open(self):
        super()._open()
        self._out = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._out is None:
            self._out = self._aggregate()
        batch = list(islice(self._out, self._target(max_rows)))
        return batch or None

    def _prepared(self, batch: Batch) -> Batch:
        """Row view of *batch* when the columnar kernels are unusable."""
        if is_columnar(batch) and self.group_kernels is None:
            return batch.to_rows()
        return batch

    def _group_keys(self, batch: Batch) -> List[Tuple[Any, ...]]:
        if is_columnar(batch):
            from .columnar import kernel_values

            columns = [
                kernel_values(*kernel(batch))
                for kernel in self.group_kernels
            ]
        else:
            columns = [fn(batch) for fn in self.group_fns]
        if len(columns) == 1:
            return [(v,) for v in columns[0]]
        return list(zip(*columns))

    def _arg_columns(self, batch: Batch) -> List[Optional[List[Any]]]:
        if is_columnar(batch):
            from .columnar import kernel_values

            return [
                None if kernel is None else kernel_values(*kernel(batch))
                for kernel in self.arg_kernels
            ]
        return [None if fn is None else fn(batch) for fn in self.arg_fns]

    def _update_accs(self, accs, arg_columns, indices) -> None:
        """Fold the rows at *indices* of the current batch into *accs*."""
        n = len(indices)
        for acc, column in zip(accs, arg_columns):
            if column is None:
                acc.add_star_many(n)
            elif n == len(column):
                acc.add_many(column)
            elif isinstance(indices, range):
                acc.add_many(column[indices.start : indices.stop])
            else:
                acc.add_many([column[i] for i in indices])

    def _aggregate(self) -> Iterator[Row]:
        if self.plan.mode == "final":
            return self._final_groups()
        if self.plan.streaming and self.plan.group_exprs:
            return self._stream_groups()
        if not self.plan.group_exprs:
            return self._global()
        return self._hash_groups()

    def _finish(self, accs) -> Row:
        """Result row tail for one group: values, or states when partial."""
        if self.plan.mode == "partial":
            return self.state.partial(accs)
        return self.state.finish(accs)

    def _final_groups(self) -> Iterator[Row]:
        """Merge partial-state rows: group values at positions ``[0, G)``,
        one accumulator state per aggregate after.

        Group output order is first-seen order over the input stream; for
        a worker-order concatenation of page-partitioned workers that is
        exactly the serial aggregate's first-seen order.
        """
        plan = self.plan
        num_groups = len(plan.group_exprs)
        groups: Dict[Tuple[Any, ...], list] = {}
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            for row in as_row_batch(batch):
                key = row[:num_groups]
                accs = groups.get(key)
                if accs is None:
                    groups[key] = accs = [
                        Accumulator(a.func, a.distinct) for a in plan.aggs
                    ]
                for acc, state in zip(accs, row[num_groups:]):
                    acc.absorb(state)
        if not groups and not num_groups:
            # global aggregate over zero partial rows (cannot happen with
            # well-formed workers, which always emit one global row) —
            # fall back to empty-input semantics
            yield tuple(
                Accumulator(a.func, a.distinct).result() for a in plan.aggs
            )
            return
        for key, accs in groups.items():
            yield key + tuple(acc.result() for acc in accs)

    def _stream_groups(self) -> Iterator[Row]:
        state = self.state
        current_key: Optional[Tuple[Any, ...]] = None
        accs = None
        started = False
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            batch = self._prepared(batch)
            arg_columns = self._arg_columns(batch)
            keys = self._group_keys(batch)
            # fold each run of equal keys in one shot (input is sorted on
            # the group keys, so runs are contiguous)
            start = 0
            total = len(keys)
            while start < total:
                key = keys[start]
                end = start + 1
                while end < total and keys[end] == key:
                    end += 1
                if not started or key != current_key:
                    if started:
                        yield current_key + self._finish(accs)
                    current_key = key
                    accs = state.new_group()
                    started = True
                self._update_accs(accs, arg_columns, range(start, end))
                start = end
        if started:
            yield current_key + self._finish(accs)

    def _global(self) -> Iterator[Row]:
        state = self.state
        accs = state.new_group()
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            batch = self._prepared(batch)
            arg_columns = self._arg_columns(batch)
            self._update_accs(accs, arg_columns, range(len(batch)))
        yield self._finish(accs)

    def _hash_groups(self) -> Iterator[Row]:
        state = self.state
        groups: Dict[Tuple[Any, ...], list] = {}
        while True:
            batch = self.child.next_batch()
            if batch is None:
                break
            batch = self._prepared(batch)
            arg_columns = self._arg_columns(batch)
            # bucket batch positions by key, then fold group by group
            buckets: Dict[Tuple[Any, ...], List[int]] = {}
            for i, key in enumerate(self._group_keys(batch)):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(i)
            for key, indices in buckets.items():
                accs = groups.get(key)
                if accs is None:
                    groups[key] = accs = state.new_group()
                self._update_accs(accs, arg_columns, indices)
        for key, accs in groups.items():
            yield key + self._finish(accs)

    def _close(self):
        self._out = None
        super()._close()


@operator_for(PDistinct)
class DistinctOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._seen = set()

    def _open(self):
        super()._open()
        self._seen = set()

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        seen = self._seen
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                return None
            out = []
            for row in as_row_batch(batch):
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if out:
                return out
