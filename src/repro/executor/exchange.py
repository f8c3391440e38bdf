"""Exchange operators: intra-query parallelism with exact accounting.

A parallel region is a ``PGather(PExchange(subplan))`` pair.  The gather
operator launches ``degree`` workers, each executing its own copy of the
exchange's subplan against one partition (a page-range slice for
``mode='pages'``, a hash partition for ``mode='hash'``), then merges the
worker streams deterministically:

* **concat** in worker order — equals serial order for page-range
  partitions, because worker ``w``'s pages all precede worker ``w+1``'s;
* **ordinal merge** — k-way merge on a hidden ordinal column assigned in
  serial scan order below the partition filters (co-partitioned hash
  joins), then stripped;
* **key merge** — k-way merge on sort keys with worker index as the
  tie-break, equal to the serial stable sort bit-for-bit.

Workers are forked ``multiprocessing`` processes.  Fork gives each worker
a copy-on-write snapshot of the whole engine — simulated disk, buffer
pool, plan tree — so the subplan needs no pickling and every worker reads
the disk through a *private* buffer pool for free (its pool is the forked
copy; mutations never reach the parent).  Each worker ships back its rows
plus three kinds of accounting, which the parent folds in so PR 1's
observability stays exact:

* per-node actuals (rows/loops/time/hits/reads/writes), merged into the
  parent's plan tree in ``walk_plan`` order;
* buffer/disk stat deltas, added to the parent's pool and disk counters;
* executor metrics (rows scanned, spills, ...), absorbed into the parent
  context;
* wait-event deltas (``io.*``/``lock.*`` accrued inside the worker, plus
  ``exchange.startup`` fork latency and the blocking ``exchange.send``)
  and per-table access deltas, merged into the parent's
  :class:`~repro.obs.WaitEventStats` and catalog — the parent itself
  times each pipe drain as ``exchange.recv``.

When forking is unavailable (non-fork platforms), the region is nested
inside another parallel region, or ``degree == 1``, the gather runs each
worker's partition inline, sequentially, in the parent process — same
rows, same merged actuals, no processes.  ``REPRO_PARALLEL_INLINE=1``
forces this path (useful under debuggers and coverage tools).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
import traceback
from typing import List, Optional, Tuple

from ..expr import compile_expr, compile_expr_batch
from ..obs.trace import Span, Tracer, activate_tracer, active_tracer, trace_span
from ..physical import (
    PExchange,
    PGather,
    POrdinal,
    PPartitionFilter,
    PhysicalError,
    walk_plan,
)
from .context import ExecContext, ExecMetrics
from .operator import (
    Batch,
    Operator,
    Row,
    UnaryOperator,
    as_row_batch,
    build_operator,
    operator_for,
)
from .partition import PartitionContext, partition_of
from .sortutil import make_key_fn

#: actuals shipped per plan node: rows, loops, time_ms, hits, reads, writes
_NodeActuals = Tuple[
    Optional[int], int, Optional[float], Optional[int], Optional[int], Optional[int]
]


def fork_available() -> bool:
    """Can this platform run exchange workers as forked processes?"""
    if os.environ.get("REPRO_PARALLEL_INLINE"):
        return False
    return "fork" in multiprocessing.get_all_start_methods()


@operator_for(PPartitionFilter)
class PartitionFilterOp(UnaryOperator):
    """Keep the rows of the current worker's hash partition.

    Outside a worker (serial execution, EXPLAIN of a parallel plan run
    inline at degree 1) every row passes.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.key_fn = compile_expr_batch(plan.key, plan.child.schema)

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        part = self.ctx.partition
        while True:
            batch = self.child.next_batch(max_rows)
            if batch is None:
                return None
            if part is None or part.degree == 1:
                return batch
            batch = as_row_batch(batch)
            keys = self.key_fn(batch)
            out = [
                row
                for row, key in zip(batch, keys)
                if partition_of(key, part.degree) == part.worker
            ]
            if out:
                return out


@operator_for(POrdinal)
class OrdinalOp(UnaryOperator):
    """Append the running row number as a trailing column."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._next_ord = 0

    def _open(self):
        super()._open()
        self._next_ord = 0

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        batch = self.child.next_batch(max_rows)
        if batch is None:
            return None
        start = self._next_ord
        self._next_ord += len(batch)
        return [
            row + (start + i,) for i, row in enumerate(as_row_batch(batch))
        ]


@operator_for(PExchange)
class ExchangeOp(Operator):
    """Never executes: the gather above drives the workers itself."""

    def __init__(self, plan, ctx):
        raise PhysicalError(
            "PExchange cannot execute standalone; wrap it in a PGather"
        )


@operator_for(PGather)
class GatherOp(Operator):
    """Run the child exchange's workers and merge their streams."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.exchange: PExchange = plan.child
        self._merged: Optional[List[Row]] = None
        self._pos = 0

    def _open(self):
        self._merged = None
        self._pos = 0

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._merged is None:
            streams = self._run_workers()
            self._merged = self._merge(streams)
        n = self._target(max_rows)
        batch = self._merged[self._pos : self._pos + n]
        if not batch:
            return None
        self._pos += len(batch)
        return batch

    def _close(self):
        self._merged = None

    # -- worker execution ---------------------------------------------------

    def _run_workers(self) -> List[List[Row]]:
        ctx = self.ctx
        degree = self.exchange.degree
        ctx.metrics.parallel_regions += 1
        ctx.metrics.parallel_workers += degree
        # A nested gather (inside another region's worker) must not fork
        # again: its context already carries a partition.
        if degree == 1 or ctx.partition is not None or not fork_available():
            return [self._run_inline(w, degree) for w in range(degree)]
        return self._run_forked(degree)

    def _worker_context(self, worker: int, degree: int) -> ExecContext:
        ctx = self.ctx
        return ExecContext(
            ctx.pool,
            work_mem_pages=ctx.work_mem_pages,
            instrument=ctx.instrument,
            batch_size=ctx.batch_size,
            partition=PartitionContext(worker, degree),
            columnar=ctx.columnar,
            snapshot=ctx.snapshot,
        )

    def _drain(self, wctx: ExecContext) -> List[Row]:
        """Execute the subplan under *wctx* without resetting actuals (the
        enclosing ``run()`` reset them; worker contributions accumulate)."""
        root = build_operator(self.exchange.child, wctx)
        rows: List[Row] = []
        try:
            root.open()
            while True:
                batch = root.next_batch()
                if batch is None:
                    break
                rows.extend(as_row_batch(batch))
        finally:
            try:
                root.close()
            finally:
                wctx.cleanup()
        return rows

    def _run_inline(self, worker: int, degree: int) -> List[Row]:
        wctx = self._worker_context(worker, degree)
        with trace_span("worker") as sp:
            sp.set_attr("worker", str(worker))
            rows = self._drain(wctx)
            sp.add("rows", float(len(rows)))
        self.ctx.metrics.absorb(wctx.metrics)
        self.exchange.start_loop()
        self.exchange.accumulate_actuals(rows=len(rows))
        return rows

    def _run_forked(self, degree: int) -> List[List[Row]]:
        mp = multiprocessing.get_context("fork")
        waits = self.ctx.pool.waits
        workers = []
        for w in range(degree):
            recv_end, send_end = mp.Pipe(duplex=False)
            # perf_counter is CLOCK_MONOTONIC: system-wide, so the forked
            # child can measure fork-to-first-instruction latency against
            # this parent-side stamp ("exchange.startup").
            self._fork_t0 = time.perf_counter()
            proc = mp.Process(
                target=self._worker_main,
                args=(w, degree, send_end),
                daemon=True,
            )
            proc.start()
            send_end.close()  # parent keeps only the read end
            workers.append((proc, recv_end))

        streams: List[List[Row]] = []
        payloads = []
        failure: Optional[str] = None
        for w, (proc, recv_end) in enumerate(workers):
            # Receive before join: a worker blocks in send() until the
            # parent drains the pipe, so joining first would deadlock.
            try:
                t0 = time.perf_counter()
                payload = recv_end.recv()
                if waits is not None:
                    waits.record("exchange.recv", time.perf_counter() - t0)
            except EOFError:
                payload = {"error": f"worker {w} died without a result"}
            else:
                if "error" not in payload:
                    # the worker follows its payload with the seconds its
                    # (blocking) send spent waiting on this pipe
                    try:
                        send_wait = recv_end.recv()
                    except EOFError:
                        send_wait = 0.0
                    if waits is not None and send_wait:
                        waits.record("exchange.send", send_wait)
            finally:
                recv_end.close()
            proc.join()
            if "error" in payload and failure is None:
                failure = f"parallel worker {w} failed:\n{payload['error']}"
            payloads.append(payload)
        if failure is not None:
            raise PhysicalError(failure)

        for payload in payloads:
            streams.append(payload["rows"])
            self._fold_payload(payload)
        return streams

    def _worker_main(self, worker: int, degree: int, conn) -> None:
        """Runs in the forked child: execute one partition, ship results."""
        try:
            startup = time.perf_counter() - self._fork_t0
            ctx = self.ctx
            pool = ctx.pool  # the fork's private copy-on-write pool
            buf0 = pool.stats.snapshot()
            io0 = pool.disk.stats.snapshot()
            waits = pool.waits  # private COW copy; deltas ship back
            w0 = waits.snapshot() if waits is not None else {}
            if waits is not None:
                waits.record("exchange.startup", max(0.0, startup))
            subplan = self.exchange.child
            tables = {
                info.name: info
                for info in (
                    getattr(node, "table", None) for node in walk_plan(subplan)
                )
                if info is not None and hasattr(info, "access")
            }
            t0 = {name: info.access.snapshot() for name, info in tables.items()}
            wctx = self._worker_context(worker, degree)
            # Zero the (private) actuals so what ships is this worker's
            # contribution alone.
            subplan.reset_actuals()
            # Request tracing across the fork: the COW-inherited tracer
            # tells us the request's identity and clock zero; a *fresh*
            # tracer (same trace_id, same t0, disjoint span-id range per
            # worker) records this worker's subtree, which ships home in
            # the payload and is grafted under the parent's execute span.
            parent_tracer = active_tracer()
            worker_root = None
            if parent_tracer is not None and parent_tracer.enabled:
                wtracer = Tracer(
                    enabled=True,
                    trace_id=parent_tracer.trace_id,
                    id_base=(worker + 1) * 1_000_000,
                    t0=parent_tracer._t0,
                )
                with activate_tracer(wtracer):
                    with wtracer.span("worker") as sp:
                        sp.set_attr("worker", str(worker))
                        rows = self._drain(wctx)
                        sp.add("rows", float(len(rows)))
                worker_root = wtracer.root.to_dict()
            else:
                rows = self._drain(wctx)
            buf = pool.stats.delta(buf0)
            io = pool.disk.stats.delta(io0)
            m = wctx.metrics
            t_send = time.perf_counter()
            conn.send(
                {
                    "rows": rows,
                    "actuals": [
                        (
                            node.actual_rows,
                            node.actual_loops,
                            node.actual_time_ms,
                            node.actual_hits,
                            node.actual_reads,
                            node.actual_writes,
                        )
                        for node in walk_plan(subplan)
                    ],
                    "metrics": (
                        m.rows_scanned,
                        m.rows_emitted,
                        m.comparisons,
                        m.hash_probes,
                        m.temp_files,
                        m.spills,
                        m.parallel_regions,
                        m.parallel_workers,
                        m.pages_skipped,
                    ),
                    "buf": (buf.hits, buf.misses, buf.evictions, buf.dirty_writebacks),
                    "io": (io.reads, io.writes, io.seq_reads, io.allocations),
                    "waits": waits.delta(w0) if waits is not None else {},
                    "taccess": {
                        name: info.access.delta(t0[name])
                        for name, info in tables.items()
                    },
                    "spans": worker_root,
                }
            )
            # the payload send blocks until the parent drains the pipe;
            # ship how long that took as the worker's "exchange.send" wait
            conn.send(time.perf_counter() - t_send)
        except BaseException:
            try:
                conn.send({"error": traceback.format_exc()})
            except Exception:
                pass
        finally:
            conn.close()

    def _fold_payload(self, payload: dict) -> None:
        """Fold one worker's accounting into the parent's world."""
        ctx = self.ctx
        # per-node actuals, in the same walk_plan order the worker used
        # (the forked tree is structurally identical to the parent's)
        nodes = list(walk_plan(self.exchange.child))
        for node, (rows, loops, time_ms, hits, reads, writes) in zip(
            nodes, payload["actuals"]
        ):
            if rows is None and not loops:
                continue  # node never started in this worker
            node.actual_loops += loops
            node.accumulate_actuals(
                rows=rows or 0,
                time_ms=time_ms,
                hits=hits,
                reads=reads,
                writes=writes,
            )
        ctx.metrics.absorb(ExecMetrics(*payload["metrics"]))
        hits, misses, evictions, writebacks = payload["buf"]
        stats = ctx.pool.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.dirty_writebacks += writebacks
        reads, writes, seq_reads, allocations = payload["io"]
        io = ctx.pool.disk.stats
        io.reads += reads
        io.writes += writes
        io.seq_reads += seq_reads
        io.allocations += allocations
        if ctx.pool.waits is not None:
            ctx.pool.waits.merge(payload.get("waits", {}))
        taccess = payload.get("taccess", {})
        if taccess:
            tables = {
                info.name: info
                for info in (
                    getattr(node, "table", None)
                    for node in walk_plan(self.exchange.child)
                )
                if info is not None and hasattr(info, "access")
            }
            for name, delta in taccess.items():
                if name in tables:
                    tables[name].access.add(delta)
        spans = payload.get("spans")
        if spans is not None:
            tracer = active_tracer()
            if tracer is not None and tracer.enabled:
                tracer.graft(Span.from_dict(spans))
        self.exchange.start_loop()
        self.exchange.accumulate_actuals(rows=len(payload["rows"]))

    # -- merging ------------------------------------------------------------

    def _merge(self, streams: List[List[Row]]) -> List[Row]:
        plan = self.plan
        if plan.ordinal is not None:
            return self._merge_on_ordinal(streams, plan.ordinal)
        if plan.merge_keys:
            return self._merge_on_keys(streams)
        merged: List[Row] = []
        for rows in streams:
            merged.extend(rows)
        return merged

    @staticmethod
    def _merge_on_ordinal(streams: List[List[Row]], pos: int) -> List[Row]:
        """K-way merge on the ordinal column at *pos*, stripping it.

        Worker streams are already ordinal-sorted (ordinals are assigned
        in scan order below the partition filter); the worker index
        breaks — purely defensively — ties that cannot occur, since each
        ordinal lives in exactly one partition.
        """
        decorated = [
            [(row[pos], w, i, row) for i, row in enumerate(rows)]
            for w, rows in enumerate(streams)
        ]
        return [
            row[:pos] + row[pos + 1 :]
            for _, _, _, row in heapq.merge(*decorated)
        ]

    def _merge_on_keys(self, streams: List[List[Row]]) -> List[Row]:
        """K-way merge on the gather's sort keys, worker index as the
        tie-break.  Each worker sorted its partition stably and page-range
        partitions are in scan order, so this equals the serial stable
        sort exactly."""
        schema = self.exchange.schema
        evaluators = [compile_expr(e, schema) for e, _ in self.plan.merge_keys]
        directions = [asc for _, asc in self.plan.merge_keys]
        key_fn = make_key_fn(evaluators, directions)
        decorated = [
            [(key_fn(row), w, i, row) for i, row in enumerate(rows)]
            for w, rows in enumerate(streams)
        ]
        return [row for _, _, _, row in heapq.merge(*decorated)]
