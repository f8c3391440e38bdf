"""Stateless row operators: filter, project, narrow, limit, materialize.

These are the batch engine's cheapest operators — each call transforms
one child batch with a single vectorized expression evaluation (or plain
slicing), so their per-row overhead is a list comprehension step rather
than a generator frame.

Filter, project, narrow and limit are fully columnar-aware: when the
child hands them a :class:`ColumnBatch` they stay columnar (mask filter,
kernel evaluation, column selection, slicing) and pass columns through
untouched, so a scan→filter→project pipeline never materializes row
tuples.  Materialize converts to rows (its cache is row storage).
"""

from __future__ import annotations

from typing import List, Optional

from ..expr import ExprError, compile_expr_batch, compile_predicate_batch
from ..physical import PFilter, PLimit, PMaterialize, PNarrow, PProject
from .operator import (
    Batch,
    Row,
    UnaryOperator,
    as_row_batch,
    is_columnar,
    operator_for,
)


@operator_for(PFilter)
class FilterOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.predicate = compile_predicate_batch(
            plan.predicate, plan.child.schema
        )
        self.predicate_columnar = None
        if ctx.columnar:
            from ..expr.vector import compile_predicate_columnar

            try:
                self.predicate_columnar = compile_predicate_columnar(
                    plan.predicate, plan.child.schema
                )
            except ExprError:
                pass  # no kernel for this shape: row path below

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        predicate = self.predicate
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                return None
            if is_columnar(batch):
                if self.predicate_columnar is not None:
                    out = batch.filter(self.predicate_columnar(batch))
                    if out:
                        return out
                    continue
                batch = as_row_batch(batch)
            mask = predicate(batch)
            out = [row for row, keep in zip(batch, mask) if keep]
            if out:
                return out


@operator_for(PProject)
class ProjectOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.fns = [
            compile_expr_batch(e, plan.child.schema) for e in plan.exprs
        ]
        self.kernels = None
        if ctx.columnar:
            from ..expr.vector import compile_expr_columnar

            try:
                self.kernels = [
                    compile_expr_columnar(e, plan.child.schema)
                    for e in plan.exprs
                ]
            except ExprError:
                pass  # no kernel for this shape: row path below

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        batch = self.child.next_batch(max_rows)
        if batch is None:
            return None
        if is_columnar(batch):
            if self.kernels is None:
                batch = as_row_batch(batch)
            else:
                from .columnar import ColumnBatch

                return ColumnBatch(
                    self.plan.schema,
                    [kernel(batch) for kernel in self.kernels],
                    len(batch),
                )
        columns = [fn(batch) for fn in self.fns]
        if len(columns) == 1:
            return [(v,) for v in columns[0]]
        return list(zip(*columns))


@operator_for(PNarrow)
class NarrowOp(UnaryOperator):
    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        batch = self.child.next_batch(max_rows)
        if batch is None:
            return None
        positions = self.plan.positions
        if is_columnar(batch):
            from .columnar import ColumnBatch

            return ColumnBatch(
                self.plan.schema,
                [batch.columns[i] for i in positions],
                len(batch),
            )
        if len(positions) == 1:
            i = positions[0]
            return [(row[i],) for row in batch]
        return [tuple(row[i] for i in positions) for row in batch]


@operator_for(PLimit)
class LimitOp(UnaryOperator):
    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._remaining = 0

    def _open(self):
        super()._open()
        self._remaining = max(0, self.plan.count)

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._remaining <= 0:
            return None
        # cap the child's production at what we still need, so upstream
        # actual row counts don't depend on the batch size
        cap = self._remaining if max_rows is None else min(
            max_rows, self._remaining
        )
        batch = self.child.next_batch(cap)
        if batch is None:
            return None
        if len(batch) > self._remaining:
            batch = (
                batch.slice(0, self._remaining)
                if is_columnar(batch)
                else batch[: self._remaining]
            )
        self._remaining -= len(batch)
        return batch


@operator_for(PMaterialize)
class MaterializeOp(UnaryOperator):
    """Cache the child's rows for repeated scans.

    The cache lives on the operator object — built on first demand,
    served across rescans (``close()``/``open()`` just rewinds the read
    position), gone when the execution's operator tree is dropped.  The
    child runs exactly once and is closed as soon as the cache is full.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._cache: Optional[List[Row]] = None
        self._pos = 0
        self._child_open = False

    def _open(self):
        self._pos = 0
        if self._cache is None and not self._child_open:
            self.child.open()
            self._child_open = True

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._cache is None:
            cache: List[Row] = []
            while True:
                batch = self.child.next_batch()
                if batch is None:
                    break
                cache.extend(as_row_batch(batch))
            self._cache = cache
            self.child.close()
            self._child_open = False
        batch = self._cache[self._pos : self._pos + self._target(max_rows)]
        if not batch:
            return None
        self._pos += len(batch)
        return batch

    def _close(self):
        if self._child_open:
            self.child.close()
            self._child_open = False
