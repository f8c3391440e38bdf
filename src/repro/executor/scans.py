"""Leaf operators: sequential, index, and index-only scans.

All page access goes through the buffer pool via the heap/index
structures, so I/O counters reflect real behaviour.  Scans are the pure
batch producers: they pull up to ``batch_size`` rows per call and apply
their predicate with one vectorized evaluation per batch.

Snapshot visibility (MVCC) is applied here, at the leaves.  When the
context carries a :class:`repro.wal.Snapshot`, every scan first asks the
version store for the table's *overlay* — the per-rid corrections this
snapshot needs on top of the live heap (``None`` in the overwhelmingly
common case where the heap already matches the snapshot, which keeps the
fast paths byte-identical to non-MVCC execution).  With an overlay:

* heap rows at overlaid rids are substituted (older image) or hidden
  (the row did not exist yet);
* rows deleted after the snapshot began are resurrected as *ghosts*;
* index scans suppress entries for overlaid rids and merge the visible
  images back **in key order** (via ``key_lt``), because the optimizer
  exploits index output order (merge joins, ORDER BY elimination);
* the columnar path falls back to row-at-a-time decoding — zone maps
  are rebuilt from the live heap, so page skipping is unsound under an
  overlay and is disabled with it.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Set, Tuple

from ..catalog import IndexKind
from ..expr import compile_predicate_batch
from ..index.keys import key_lt
from ..physical import (
    PIndexOnlyScan,
    PIndexScan,
    PSeqScan,
    PhysicalError,
)
from ..storage import SlottedPage, deserialize_row, page_skipper
from .operator import Batch, Operator, operator_for
from .partition import page_range

if TYPE_CHECKING:  # pragma: no cover - numpy loads with the columnar path only
    from .columnar import ColumnBatch

RID = Tuple[int, int]
Overlay = Tuple[Dict[RID, Optional[Tuple]], Dict[RID, Tuple]]


def table_overlay(ctx, info) -> Optional[Overlay]:
    """The snapshot's (replace, ghosts) correction for *info*'s table, or
    ``None`` when the live heap is already what the snapshot sees."""
    snapshot = getattr(ctx, "snapshot", None)
    if snapshot is None:
        return None
    return snapshot.scan_overlay(info)


class _KeyOrder:
    """Sort adapter over the index key total order (NULLs first)."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_KeyOrder") -> bool:
        return key_lt(self.key, other.key)


def _key_in_bounds(plan, key: Any) -> bool:
    """Would the index scan described by *plan* have emitted *key*?"""
    if plan.index.kind is IndexKind.HASH:
        return key is not None and key == plan.low.value
    low, high, li, hi = _index_bounds(plan)
    if key is None:
        # bounded btree scans never return NULL keys (SQL comparison
        # semantics); fully unbounded scans include them
        return low is None and high is None
    if low is not None:
        if li:
            if key_lt(key, low):
                return False
        elif not key_lt(low, key):
            return False
    if high is not None:
        if hi:
            if key_lt(high, key):
                return False
        elif not key_lt(key, high):
            return False
    return True


def index_overlay(plan, overlay: Overlay) -> Tuple[Set[RID], List[Tuple[Any, Tuple]]]:
    """Translate a table overlay into index-scan terms.

    Returns ``(skip, injected)``: rids whose index entries must be
    suppressed (their heap row is not what this snapshot sees), and the
    key-sorted ``(key, row)`` list of visible images whose key falls
    inside the scan bounds, ready to merge into the entry stream.
    """
    replace, ghosts = overlay
    skip = set(replace) | set(ghosts)
    info = plan.table
    positions = [info.schema.index_of(c) for c in plan.index.columns]

    def key_of(row: Tuple) -> Any:
        if len(positions) == 1:
            return row[positions[0]]
        return tuple(row[p] for p in positions)

    injected: List[Tuple[Any, Tuple]] = []
    for row in replace.values():
        if row is not None:
            key = key_of(row)
            if _key_in_bounds(plan, key):
                injected.append((key, row))
    for row in ghosts.values():
        key = key_of(row)
        if _key_in_bounds(plan, key):
            injected.append((key, row))
    injected.sort(key=lambda kr: _KeyOrder(kr[0]))
    return skip, injected


class _ScanOp(Operator):
    """Shared per-table accounting for the leaf scan family.

    Scans are the only operators that touch pages on behalf of a base
    table, so attributing buffer traffic to ``table.access`` is exact: a
    hit/miss delta around each batch pull (leaf operators have no
    children whose I/O could leak into the interval).  The counters are
    always on — the cost is a handful of attribute reads per *batch* —
    and feed ``sys_stat_tables``.
    """

    def _pull_counted(self, produce) -> Batch:
        """Run *produce()* and charge its page traffic + rows to the
        scanned table."""
        bstats = self.ctx.pool.stats
        hits0 = bstats.hits
        misses0 = bstats.misses
        batch = produce()
        access = self.plan.table.access
        access.pages_hit += bstats.hits - hits0
        access.pages_read += bstats.misses - misses0
        if batch:
            access.rows_read += len(batch)
        return batch


@operator_for(PSeqScan)
class SeqScanOp(_ScanOp):
    """Heap scan (full, or one page-range partition) with an optional
    pushed-down predicate.

    A scan marked ``parallel`` running inside a worker (the context
    carries a partition) reads only its contiguous page slice; anywhere
    else it degrades to a plain full scan.

    Under a columnar context (``ctx.columnar``) the scan decodes whole
    pages straight into :class:`ColumnBatch` columns (per-record row
    decode only as a NULL fallback), evaluates the pushed-down predicate
    as a vectorized kernel, and — when the table has zone maps — skips
    pages whose (min, max) bounds prove no row can match, before the
    page is ever fixed into the buffer pool.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.predicate = (
            compile_predicate_batch(plan.predicate, plan.schema)
            if plan.predicate is not None and not ctx.columnar
            else None
        )
        self.predicate_columnar = None
        if plan.predicate is not None and ctx.columnar:
            from ..expr.vector import compile_predicate_columnar

            self.predicate_columnar = compile_predicate_columnar(
                plan.predicate, plan.schema
            )
        self._rows: Optional[Iterator[Tuple[Any, ...]]] = None
        self._pages: Optional[Iterator[int]] = None
        self._parts: list = []
        self._buffered = 0
        self._skip = None

    def _open(self):
        self._rows = None  # created lazily so the first page read is timed
        self._pages = None
        self._parts = []
        self._buffered = 0
        self._skip = None

    def _page_span(self) -> Tuple[int, int]:
        heap = self.plan.table.heap
        part = self.ctx.partition
        if self.plan.parallel and part is not None:
            return page_range(heap.num_pages, part.worker, part.degree)
        return 0, heap.num_pages

    def _visible_rows(
        self, overlay: Overlay, first: int, last: int
    ) -> Iterator[Tuple[Any, ...]]:
        """Heap scan with snapshot corrections applied in rid order;
        ghosts (rows deleted after the snapshot) come after their page
        range — a seq scan promises no ordering, so appending is fine."""
        replace, ghosts = overlay
        for rid, row in self.plan.table.heap.scan(first, last):
            if rid in replace:
                older = replace[rid]
                if older is not None:
                    yield older
                continue
            yield row
        for rid in sorted(g for g in ghosts if first <= g[0] < last):
            yield ghosts[rid]

    def _start_scan(self) -> Iterator[Tuple[Any, ...]]:
        self.plan.table.access.seq_scans += 1
        first, last = self._page_span()
        overlay = table_overlay(self.ctx, self.plan.table)
        if overlay is not None:
            return self._visible_rows(overlay, first, last)
        return self.plan.table.heap.scan_rows(first, last)

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self.ctx.columnar:
            return self._next_batch_columnar(max_rows)
        if self._rows is None:
            self._rows = self._start_scan()
        n = self._target(max_rows)
        metrics = self.ctx.metrics
        predicate = self.predicate
        while True:
            batch = self._pull_counted(lambda: list(islice(self._rows, n)))
            if not batch:
                return None
            metrics.rows_scanned += len(batch)
            if predicate is None:
                return batch
            mask = predicate(batch)
            out = [row for row, keep in zip(batch, mask) if keep]
            if out:
                return out
            # whole batch filtered out: pull more instead of going empty

    def _close(self):
        self._rows = None
        self._pages = None
        self._parts = []
        self._buffered = 0

    # -- columnar path ------------------------------------------------------

    def _start_pages(self) -> Iterator[int]:
        plan = self.plan
        plan.table.access.seq_scans += 1
        if plan.table.zones is not None and plan.predicate is not None:
            self._skip = page_skipper(
                plan.predicate, plan.schema, plan.table.zones
            )
        # pages per decode span: enough to fill one target batch, bounded
        # so a span never holds more than a modest slice of the file
        page_size = self.plan.table.heap.pool.disk.page_size
        est_rows = max(1, page_size // plan.schema.estimated_row_bytes())
        self._span = max(1, min(64, -(-self.ctx.batch_size // est_rows)))
        first, last = self._page_span()
        return iter(range(first, last))

    def _decode_next_span(self) -> Optional[ColumnBatch]:
        """The next span of non-skipped pages as one ColumnBatch."""
        from .columnar import ColumnBatch
        from .pagedecode import decode_page_columns, decode_pages_columns

        plan = self.plan
        heap = plan.table.heap
        schema = plan.schema
        skip = self._skip
        while True:
            raws: list = []
            for page_no in self._pages:
                if skip is not None and skip(page_no):
                    plan.table.access.pages_skipped += 1
                    self.ctx.metrics.pages_skipped += 1
                    continue
                raws.append(heap.page_bytes(page_no))
                if len(raws) >= self._span:
                    break
            if not raws:
                return None
            decoded = decode_pages_columns(schema, raws)
            if decoded is not None:
                columns, count = decoded
                if count == 0:
                    continue
                return ColumnBatch(schema, columns, count)
            # NULLs somewhere in the span: decode page by page, dropping
            # to the per-record row decoder only where needed
            parts: list = []
            for raw in raws:
                single = decode_page_columns(schema, raw)
                if single is None:
                    rows = [
                        deserialize_row(schema, rec)
                        for _, rec in SlottedPage(raw).records()
                    ]
                    if rows:
                        parts.append(ColumnBatch.from_rows(schema, rows))
                else:
                    columns, count = single
                    if count:
                        parts.append(ColumnBatch(schema, columns, count))
            if not parts:
                continue
            if len(parts) == 1:
                return parts[0]
            return ColumnBatch.concat(parts)

    def _next_batch_columnar_rows(self, max_rows=None) -> Optional[ColumnBatch]:
        """Columnar scan under a snapshot overlay: decode row-at-a-time
        (zone-map skipping would consult live-heap bounds that the
        snapshot's older images may violate) and columnarize per batch."""
        from .columnar import ColumnBatch

        n = self._target(max_rows)
        predicate = self.predicate_columnar
        while True:
            rows = self._pull_counted(lambda: list(islice(self._rows, n)))
            if not rows:
                return None
            self.ctx.metrics.rows_scanned += len(rows)
            batch = ColumnBatch.from_rows(self.plan.schema, rows)
            if predicate is not None:
                batch = batch.filter(predicate(batch))
                if not batch:
                    continue
            return batch

    def _next_batch_columnar(self, max_rows=None) -> Optional[ColumnBatch]:
        from .columnar import ColumnBatch

        if self._rows is not None:
            return self._next_batch_columnar_rows(max_rows)
        if self._pages is None:
            overlay = table_overlay(self.ctx, self.plan.table)
            if overlay is not None:
                self.plan.table.access.seq_scans += 1
                first, last = self._page_span()
                self._rows = self._visible_rows(overlay, first, last)
                return self._next_batch_columnar_rows(max_rows)
            self._pages = self._start_pages()
        n = self._target(max_rows)
        metrics = self.ctx.metrics
        predicate = self.predicate_columnar
        # accumulate decoded (and filtered) pages up to the target size,
        # so downstream operators see full-size batches, not page-size
        # slivers; the tail past the target carries over to the next call
        parts = self._parts
        buffered = self._buffered
        while buffered < n:
            batch = self._pull_counted(self._decode_next_span)
            if batch is None:
                break
            metrics.rows_scanned += len(batch)
            if predicate is not None:
                batch = batch.filter(predicate(batch))
                if not batch:
                    continue
            parts.append(batch)
            buffered += len(batch)
        if not parts:
            self._buffered = 0
            return None
        combined = ColumnBatch.concat(parts) if len(parts) > 1 else parts[0]
        if buffered > n:
            self._parts = [combined.slice(n, buffered)]
            self._buffered = buffered - n
            return combined.slice(0, n)
        self._parts = []
        self._buffered = 0
        return combined


def _index_bounds(plan) -> Tuple[Any, Any, bool, bool]:
    low = None if plan.low.unbounded else plan.low.value
    high = None if plan.high.unbounded else plan.high.value
    return low, high, plan.low.inclusive, plan.high.inclusive


def index_entries(plan) -> Iterator[Tuple[Any, RID]]:
    """The live ``(key, rid)`` entries of *plan*'s index within its
    bounds, in key order (a hash index answers an equality probe only).

    Counts one index scan of the table.  Shared by the index scan
    operators and by UPDATE/DELETE victim lookup, so one reading of the
    bounds serves both.
    """
    plan.table.access.index_scans += 1
    index = plan.index
    if index.kind is IndexKind.HASH:
        if not plan.is_equality:
            raise PhysicalError("hash index supports only equality probes")
        key = plan.low.value
        return iter([(key, rid) for rid in index.structure.search(key)])
    low, high, li, hi = _index_bounds(plan)
    return index.structure.range_scan(low, high, li, hi)


@operator_for(PIndexScan)
class IndexScanOp(_ScanOp):
    """B+-tree range scan (or hash equality probe) fetching heap rows."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.residual = (
            compile_predicate_batch(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )
        self._rows: Optional[Iterator[Tuple[Any, ...]]] = None

    def _open(self):
        self._rows = None

    def _fetched(self) -> Iterator[Tuple[Any, ...]]:
        # interleave index-entry iteration with heap fetches so the page
        # access pattern (and hence the buffer pool's hit/read split) is
        # the same at every batch size
        fetch = self.plan.table.heap.fetch
        overlay = table_overlay(self.ctx, self.plan.table)
        if overlay is None:
            for _, rid in index_entries(self.plan):
                row = fetch(rid)
                if row is None:
                    continue  # deleted since the index entry was made
                yield row
            return
        # snapshot overlay: suppress entries whose heap row is not what
        # this snapshot sees, and merge the visible images back in key
        # order (downstream operators may rely on the index sort order)
        skip, injected = index_overlay(self.plan, overlay)
        i, n = 0, len(injected)
        for key, rid in index_entries(self.plan):
            while i < n and not key_lt(key, injected[i][0]):
                yield injected[i][1]
                i += 1
            if rid in skip:
                continue
            row = fetch(rid)
            if row is None:
                continue
            yield row
        while i < n:
            yield injected[i][1]
            i += 1

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._rows is None:
            self._rows = self._fetched()
        n = self._target(max_rows)
        metrics = self.ctx.metrics
        residual = self.residual
        while True:
            batch = self._pull_counted(lambda: list(islice(self._rows, n)))
            if not batch:
                return None
            metrics.rows_scanned += len(batch)
            if residual is not None:
                mask = residual(batch)
                batch = [row for row, keep in zip(batch, mask) if keep]
            if batch:
                return batch

    def _close(self):
        self._rows = None


@operator_for(PIndexOnlyScan)
class IndexOnlyScanOp(_ScanOp):
    """Answer directly from index entries (key column only, no heap I/O)."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        if plan.index.kind is not IndexKind.BTREE:
            raise PhysicalError("index-only scans require a btree index")
        self._entries = None

    def _open(self):
        self._entries = None

    def _keys(self) -> Iterator[Any]:
        entries = index_entries(self.plan)
        overlay = table_overlay(self.ctx, self.plan.table)
        if overlay is None:
            for key, _rid in entries:
                yield key
            return
        skip, injected = index_overlay(self.plan, overlay)
        i, n = 0, len(injected)
        for key, rid in entries:
            while i < n and not key_lt(key, injected[i][0]):
                yield injected[i][0]
                i += 1
            if rid in skip:
                continue
            yield key
        while i < n:
            yield injected[i][0]
            i += 1

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._entries is None:
            self._entries = self._keys()
        n = self._target(max_rows)
        batch = self._pull_counted(
            lambda: [(key,) for key in islice(self._entries, n)]
        )
        if not batch:
            return None
        self.ctx.metrics.rows_scanned += len(batch)
        return batch

    def _close(self):
        self._entries = None
