"""Join operators: block nested-loop, index nested-loop, sort-merge, hash.

The nested-loop inner side is rescanned per outer block through the
operator lifecycle — ``close()`` then ``open()`` — instead of rebuilding
a generator tree, so an inner Materialize keeps its cache across blocks.
The hash join's Grace spill path (temp-file partitioning through the
buffer pool) is unchanged from the generator engine.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from ..expr import (
    ExprError,
    compile_expr,
    compile_expr_batch,
    compile_predicate_batch,
)
from ..physical import (
    PHashJoin,
    PIndexNLJoin,
    PNestedLoopJoin,
    PSortMergeJoin,
)
from .operator import (
    Batch,
    BatchCursor,
    Operator,
    Row,
    as_row_batch,
    build_operator,
    is_columnar,
    operator_for,
)
from .partition import partition_hash
from .sortutil import cmp_values

if TYPE_CHECKING:  # pragma: no cover - numpy loads with the columnar path only
    from .columnar import ColumnBatch


class _BinaryJoinOp(Operator):
    """Shared plumbing: two child operators plus a residual predicate."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left = build_operator(plan.left, ctx)
        self.right = build_operator(plan.right, ctx)
        self._gen: Optional[Iterator[Row]] = None

    def _open(self):
        self.left.open()
        self.right.open()
        self._gen = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._gen is None:
            self._gen = self._join_rows()
        batch = list(islice(self._gen, self._target(max_rows)))
        return batch or None

    def _join_rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def _close(self):
        self._gen = None
        self.left.close()
        self.right.close()


@operator_for(PNestedLoopJoin)
class NestedLoopJoinOp(_BinaryJoinOp):
    """Block nested-loop: outer read once in blocks sized to the work
    memory, inner rescanned (``close()``+``open()``) per block."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.condition = (
            compile_predicate_batch(plan.condition, plan.schema)
            if plan.condition is not None
            else None
        )
        self._inner_open = False

    def _open(self):
        # the inner side opens lazily, once per non-empty outer block
        self.left.open()
        self._inner_open = False
        self._gen = None

    def _blocks(self) -> Iterator[List[Row]]:
        """Outer blocks of exactly ``block_rows`` rows (last may be short),
        regardless of the producer's batch size."""
        plan = self.plan
        block_rows = self.ctx.max_rows_in_memory(
            plan.left.schema, plan.block_pages
        )
        block: List[Row] = []
        while True:
            batch = self.left.next_batch()
            if batch is None:
                break
            batch = as_row_batch(batch)
            i = 0
            while i < len(batch):
                take = min(block_rows - len(block), len(batch) - i)
                block.extend(batch[i : i + take])
                i += take
                if len(block) >= block_rows:
                    yield block
                    block = []
        if block:
            yield block

    def _join_rows(self) -> Iterator[Row]:
        condition = self.condition
        metrics = self.ctx.metrics
        inner = self.right
        for block in self._blocks():
            # one rescan of the inner per outer block
            if self._inner_open:
                inner.close()
            inner.open()
            self._inner_open = True
            while True:
                inner_batch = inner.next_batch()
                if inner_batch is None:
                    break
                for inner_row in as_row_batch(inner_batch):
                    metrics.comparisons += len(block)
                    combined = [outer + inner_row for outer in block]
                    if condition is None:
                        yield from combined
                    else:
                        mask = condition(combined)
                        for row, keep in zip(combined, mask):
                            if keep:
                                yield row

    def _close(self):
        self._gen = None
        self.left.close()
        if self._inner_open:
            self.right.close()
            self._inner_open = False


@operator_for(PIndexNLJoin)
class IndexNLJoinOp(Operator):
    """For each outer row, probe an index on the inner table."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left = build_operator(plan.left, ctx)
        self.key_fn = compile_expr_batch(plan.outer_key, plan.left.schema)
        self.residual = (
            compile_predicate_batch(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )
        self._gen: Optional[Iterator[Row]] = None

    def _open(self):
        self.left.open()
        self._gen = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._gen is None:
            self._gen = self._join_rows()
        batch = list(islice(self._gen, self._target(max_rows)))
        return batch or None

    def _join_rows(self) -> Iterator[Row]:
        plan = self.plan
        index = plan.index
        heap_fetch = plan.table.heap.fetch
        metrics = self.ctx.metrics
        composite = getattr(index, "is_composite", False)
        if composite:
            from ..index.keys import MAX_KEY, MIN_KEY
        # snapshot overlay on the probed (inner) table: suppress index
        # entries whose heap row is not what the snapshot sees, and probe
        # the visible images by their leading key component instead
        skip, extra = self._inner_overlay(composite)
        while True:
            outer_batch = self.left.next_batch()
            if outer_batch is None:
                return
            outer_batch = as_row_batch(outer_batch)
            out: List[Row] = []
            for outer_row, key in zip(outer_batch, self.key_fn(outer_batch)):
                if key is None:
                    continue
                metrics.hash_probes += 1
                if composite:
                    # probe on the leading key component: all entries whose
                    # first component equals the outer key
                    rids = [
                        rid
                        for _, rid in index.structure.range_scan(
                            (key, MIN_KEY), (key, MAX_KEY)
                        )
                    ]
                else:
                    rids = index.structure.search(key)
                for rid in rids:
                    if skip is not None and rid in skip:
                        continue
                    inner_row = heap_fetch(rid)
                    if inner_row is None:
                        continue
                    out.append(outer_row + inner_row)
                if extra is not None:
                    for inner_row in extra.get(key, ()):
                        out.append(outer_row + inner_row)
            if self.residual is not None and out:
                mask = self.residual(out)
                out = [row for row, keep in zip(out, mask) if keep]
            yield from out

    def _inner_overlay(self, composite: bool):
        """``(skip_rids, probe_key -> visible rows)`` under a snapshot,
        or ``(None, None)`` when the live heap is already correct."""
        from .scans import table_overlay

        plan = self.plan
        overlay = table_overlay(self.ctx, plan.table)
        if overlay is None:
            return None, None
        replace, ghosts = overlay
        skip = set(replace) | set(ghosts)
        schema = plan.table.schema
        lead = schema.index_of(plan.index.columns[0])
        extra: dict = {}
        rows = [r for r in replace.values() if r is not None]
        rows.extend(ghosts.values())
        for row in rows:
            key = row[lead]
            if key is None:
                continue  # probes skip NULL keys, matching the index
            extra.setdefault(key, []).append(row)
        return skip, extra

    def _close(self):
        self._gen = None
        self.left.close()


@operator_for(PSortMergeJoin)
class SortMergeJoinOp(_BinaryJoinOp):
    """Merge join on equality keys over pre-sorted inputs."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left_key = compile_expr(plan.left_key, plan.left.schema)
        self.right_key = compile_expr(plan.right_key, plan.right.schema)
        self.residual = (
            compile_predicate_batch(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )

    def _join_rows(self) -> Iterator[Row]:
        left_key = self.left_key
        right_key = self.right_key
        metrics = self.ctx.metrics
        left = BatchCursor(self.left)
        right = BatchCursor(self.right)

        lrow = left.next_row()
        rrow = right.next_row()
        while lrow is not None and rrow is not None:
            lk = left_key(lrow)
            rk = right_key(rrow)
            if lk is None:
                lrow = left.next_row()
                continue
            if rk is None:
                rrow = right.next_row()
                continue
            metrics.comparisons += 1
            c = cmp_values(lk, rk)
            if c < 0:
                lrow = left.next_row()
            elif c > 0:
                rrow = right.next_row()
            else:
                # gather the full right group with this key
                group = [rrow]
                rrow = right.next_row()
                while rrow is not None and right_key(rrow) == lk:
                    group.append(rrow)
                    rrow = right.next_row()
                while lrow is not None and left_key(lrow) == lk:
                    combined = [lrow + g for g in group]
                    if self.residual is None:
                        yield from combined
                    else:
                        mask = self.residual(combined)
                        for row, keep in zip(combined, mask):
                            if keep:
                                yield row
                    lrow = left.next_row()


@operator_for(PHashJoin)
class HashJoinOp(_BinaryJoinOp):
    """Hash join building on the right input; Grace-partitions through
    temp files when the build side exceeds work memory.

    Under a columnar context the in-memory path stays columnar end to
    end: the build side is concatenated into one :class:`ColumnBatch`,
    keys come from vectorized kernels, each probe batch produces matched
    ``(probe, build)`` position lists, and the output batch is two
    ``numpy.take`` gathers — no row tuples are ever materialized.  The
    Grace spill path (and any expression shape without a kernel) falls
    back to the row engine, emitting row batches downstream operators
    accept via ``as_row_batch``.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.left_key = compile_expr_batch(plan.left_key, plan.left.schema)
        self.right_key = compile_expr_batch(plan.right_key, plan.right.schema)
        self.residual = (
            compile_predicate_batch(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )
        self._columnar = False
        self._pending: Optional[ColumnBatch] = None
        self._col_gen: Optional[Iterator[ColumnBatch]] = None
        if ctx.columnar:
            from ..expr.vector import (
                compile_expr_columnar,
                compile_predicate_columnar,
            )

            try:
                self.left_key_col = compile_expr_columnar(
                    plan.left_key, plan.left.schema
                )
                self.right_key_col = compile_expr_columnar(
                    plan.right_key, plan.right.schema
                )
                self.residual_col = (
                    compile_predicate_columnar(plan.residual, plan.schema)
                    if plan.residual is not None
                    else None
                )
                self._columnar = True
            except ExprError:
                pass  # no kernel for the keys/residual: row path

    def _open(self):
        super()._open()
        self._pending = None
        self._col_gen: Optional[Iterator[ColumnBatch]] = None

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if not self._columnar:
            return super()._next_batch(max_rows)
        n = self._target(max_rows)
        while True:
            pending = self._pending
            if pending is not None:
                if len(pending) > n:
                    self._pending = pending.slice(n, len(pending))
                    return pending.slice(0, n)
                self._pending = None
                return pending
            if self._col_gen is None:
                self._col_gen = self._join_columnar()
            batch = next(self._col_gen, None)
            if batch is None:
                return None
            self._pending = batch

    def _close(self):
        self._pending = None
        self._col_gen = None
        super()._close()

    # -- columnar path ------------------------------------------------------

    def _join_columnar(self) -> Iterator[ColumnBatch]:
        import numpy as np

        from .columnar import ColumnBatch, kernel_values

        plan = self.plan
        ctx = self.ctx
        build_schema = plan.right.schema
        max_build = ctx.max_rows_in_memory(build_schema)

        built: List[ColumnBatch] = []
        total = 0
        overflow = False
        while True:
            batch = self.right.next_batch()
            if batch is None:
                break
            if not is_columnar(batch):
                batch = ColumnBatch.from_rows(build_schema, batch)
            built.append(batch)
            total += len(batch)
            if total > max_build:
                overflow = True
                break

        if overflow:
            # Grace stays row-wise; re-batch its stream so the caller's
            # pending-buffer protocol sees ColumnBatches throughout
            build_rows = [r for b in built for r in b.to_rows()]
            gen = self._grace(build_rows)
            while True:
                chunk = list(islice(gen, ctx.batch_size))
                if not chunk:
                    return
                yield ColumnBatch.from_rows(plan.schema, chunk)

        build = (
            ColumnBatch.concat(built)
            if built
            else ColumnBatch.from_rows(build_schema, [])
        )
        bkeys, bvalid = self.right_key_col(build)
        # Sorted-key probe: non-NULL (and non-NaN — NaN never equals
        # anything) build positions ordered by key, stably, so equal-key
        # runs stay in insertion order exactly like dict buckets.
        sorted_keys = sorted_pos = None
        if bkeys.dtype != object:
            keep = (
                np.ones(len(build), dtype=bool)
                if bvalid is None
                else bvalid.copy()
            )
            if bkeys.dtype.kind == "f":
                keep &= ~np.isnan(bkeys)
            pos = np.flatnonzero(keep)
            order = np.argsort(bkeys[pos], kind="stable")
            sorted_pos = pos[order]
            sorted_keys = bkeys[sorted_pos]
        positions: Optional[Dict[Any, List[int]]] = None  # dict fallback

        metrics = self.ctx.metrics
        out_schema = plan.schema
        while True:
            probe = self.left.next_batch()
            if probe is None:
                return
            if not is_columnar(probe):
                probe = ColumnBatch.from_rows(plan.left.schema, probe)
            pkeys, pvalid = self.left_key_col(probe)
            n = len(probe)
            if sorted_keys is not None and pkeys.dtype == sorted_keys.dtype:
                # the row engine probes once per non-None key (NaN is a
                # probe that finds nothing)
                metrics.hash_probes += (
                    n if pvalid is None else int(np.count_nonzero(pvalid))
                )
                lo = np.searchsorted(sorted_keys, pkeys, side="left")
                hi = np.searchsorted(sorted_keys, pkeys, side="right")
                counts = hi - lo
                if pvalid is not None:
                    counts[~pvalid] = 0
                if pkeys.dtype.kind == "f":
                    counts[np.isnan(pkeys)] = 0
                total = int(counts.sum())
                if total == 0:
                    continue
                probe_take = np.repeat(np.arange(n, dtype=np.intp), counts)
                span = np.arange(total, dtype=np.intp) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                build_take = sorted_pos[np.repeat(lo, counts) + span]
            else:
                if positions is None:
                    positions = {}
                    for j, key in enumerate(
                        kernel_values(bkeys, bvalid)
                    ):
                        if key is None:
                            continue
                        positions.setdefault(key, []).append(j)
                probe_idx: List[int] = []
                build_idx: List[int] = []
                for i, key in enumerate(kernel_values(pkeys, pvalid)):
                    if key is None:
                        continue
                    metrics.hash_probes += 1
                    for j in positions.get(key, ()):
                        probe_idx.append(i)
                        build_idx.append(j)
                if not probe_idx:
                    continue
                probe_take = np.asarray(probe_idx, dtype=np.intp)
                build_take = np.asarray(build_idx, dtype=np.intp)
            left_out = probe.take(probe_take)
            right_out = build.take(build_take)
            out = ColumnBatch(
                out_schema,
                left_out.columns + right_out.columns,
                len(probe_take),
            )
            if self.residual_col is not None:
                out = out.filter(self.residual_col(out))
                if not out:
                    continue
            yield out

    # -- row path -----------------------------------------------------------

    def _join_rows(self) -> Iterator[Row]:
        plan = self.plan
        ctx = self.ctx
        build_schema = plan.right.schema
        max_build = ctx.max_rows_in_memory(build_schema)

        build_rows: List[Row] = []
        overflow = False
        while True:
            batch = self.right.next_batch()
            if batch is None:
                break
            build_rows.extend(as_row_batch(batch))
            if len(build_rows) > max_build:
                overflow = True
                break

        if not overflow:
            yield from self._in_memory(build_rows)
        else:
            yield from self._grace(build_rows)

    def _in_memory(self, build_rows: List[Row]) -> Iterator[Row]:
        metrics = self.ctx.metrics
        table: dict = {}
        if build_rows:
            for row, key in zip(build_rows, self.right_key(build_rows)):
                if key is None:
                    continue
                table.setdefault(key, []).append(row)
        while True:
            probe = self.left.next_batch()
            if probe is None:
                return
            probe = as_row_batch(probe)
            out: List[Row] = []
            for lrow, key in zip(probe, self.left_key(probe)):
                if key is None:
                    continue
                metrics.hash_probes += 1
                for rrow in table.get(key, ()):
                    out.append(lrow + rrow)
            yield from self._residual_filter(out)

    def _grace(self, build_rows: List[Row]) -> Iterator[Row]:
        """Partition both inputs to temp files, then join each partition
        pair in memory."""
        plan = self.plan
        ctx = self.ctx
        metrics = ctx.metrics
        fanout = max(2, ctx.work_mem_pages - 1)
        right_parts = [
            ctx.create_temp(plan.right.schema) for _ in range(fanout)
        ]
        if build_rows:
            for row, key in zip(build_rows, self.right_key(build_rows)):
                _partition_insert(right_parts, key, row, fanout)
        while True:  # rest of the build side
            batch = self.right.next_batch()
            if batch is None:
                break
            batch = as_row_batch(batch)
            for row, key in zip(batch, self.right_key(batch)):
                _partition_insert(right_parts, key, row, fanout)
        left_parts = [ctx.create_temp(plan.left.schema) for _ in range(fanout)]
        while True:
            batch = self.left.next_batch()
            if batch is None:
                break
            batch = as_row_batch(batch)
            for row, key in zip(batch, self.left_key(batch)):
                _partition_insert(left_parts, key, row, fanout)
        metrics.spills += 1

        for lpart, rpart in zip(left_parts, right_parts):
            table: dict = {}
            rrows = list(rpart.scan_rows())
            if rrows:
                for rrow, key in zip(rrows, self.right_key(rrows)):
                    table.setdefault(key, []).append(rrow)
            lrows = list(lpart.scan_rows())
            out: List[Row] = []
            if lrows:
                for lrow, key in zip(lrows, self.left_key(lrows)):
                    metrics.hash_probes += 1
                    for rrow in table.get(key, ()):
                        out.append(lrow + rrow)
            yield from self._residual_filter(out)
            ctx.drop_temp(lpart)
            ctx.drop_temp(rpart)

    def _residual_filter(self, rows: List[Row]) -> Iterator[Row]:
        if not rows:
            return iter(())
        if self.residual is None:
            return iter(rows)
        mask = self.residual(rows)
        return (row for row, keep in zip(rows, mask) if keep)


def _partition_insert(parts, key: Any, row: Row, fanout: int) -> None:
    if key is None:
        return  # NULL keys never join
    parts[partition_hash(key) % fanout].insert(row)
