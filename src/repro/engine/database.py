"""The `Database` facade: the library's main public entry point.

::

    from repro import Database

    db = Database(buffer_pages=128, work_mem_pages=32)
    db.execute("CREATE TABLE t (id INT, name TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    db.execute("CREATE INDEX ix ON t (id)")
    db.execute("ANALYZE t")
    result = db.query("SELECT name FROM t WHERE id = 2")
    print(result.rows)            # [('b',)]
    print(db.explain("SELECT ...")) # the physical plan with estimates

Ties together catalog, SQL front-end, rewriter, optimizer and executor,
and exposes the per-query metrics the benchmark harness consumes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra import JoinGraph, LogicalGet, build_plan
from ..catalog import Catalog, IndexKind, TableInfo
from ..executor import ExecContext, ExecMetrics, index_entries, run
from ..expr import Literal, compile_predicate, split_conjuncts
from ..obs import (
    ActivityRegistry,
    AutoExplain,
    FeedbackStore,
    InstrumentLevel,
    MetricsRegistry,
    ObsConfig,
    PlanBaselineStore,
    QueryLog,
    QueryLogRecord,
    RequestTrace,
    SearchTrace,
    Span,
    StatementLatency,
    TraceRing,
    Tracer,
    WaitEventStats,
    activate_tracer,
    chrome_trace_events,
    plan_diff,
    plan_fingerprint,
    plan_shape_text,
    q_error,
    register_system_tables,
    statement_fingerprint,
    trace_span,
)
from ..optimizer import (
    CostModel,
    Estimator,
    Planner,
    PlannerOptions,
    PlannerStats,
    StatsResolver,
    access_paths,
)
from ..physical import PhysicalPlan, PSeqScan, walk_plan
from ..sql import (
    AnalyzeStmt,
    BeginStmt,
    CheckpointStmt,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DeleteStmt,
    DropTableStmt,
    DropViewStmt,
    ExplainStmt,
    InsertStmt,
    RollbackStmt,
    SelectStmt,
    UpdateStmt,
    parse,
)
from ..qa import faults
from ..wal import (
    RecoveryReport,
    Transaction,
    TxnManager,
    WalRecordType,
    open_wal,
    recover,
    write_checkpoint,
)
from .cache import PlanCache, ResultCache
from .session import Session
from .views import Expansion, ViewDef, ViewExpander
from ..storage import BufferPool, BufferStats, DiskManager, IOStats, Replacement
from ..types import Column, Schema


class EngineError(Exception):
    """Raised for statements the engine cannot execute."""


@dataclass
class QueryResult:
    """Rows plus everything the experiments need to know about the run."""

    rows: List[Tuple[Any, ...]]
    columns: List[str]
    plan: Optional[PhysicalPlan] = None
    io: Optional[IOStats] = None
    buffer: Optional[BufferStats] = None
    exec_metrics: Optional[ExecMetrics] = None
    planner_stats: Optional[PlannerStats] = None
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    trace: Optional[Span] = None

    @property
    def rowcount(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class Database:
    """An in-process relational database with a cost-based optimizer."""

    def __init__(
        self,
        buffer_pages: int = 256,
        work_mem_pages: int = 32,
        page_size: int = 4096,
        replacement: Replacement = Replacement.LRU,
        options: Optional[PlannerOptions] = None,
        obs: Optional[ObsConfig] = None,
        batch_size: int = ExecContext.DEFAULT_BATCH_SIZE,
        columnar: bool = False,
        data_dir: Optional[str] = None,
        wal_sync: bool = True,
        mvcc: bool = True,
    ):
        self.disk = DiskManager(page_size)
        self.pool = BufferPool(self.disk, buffer_pages, replacement)
        self.catalog = Catalog(self.pool)
        #: transaction manager: lifecycle, undo, table locks; doubles as
        #: the WAL hook target (writer attached below when durable)
        self.txn = TxnManager()
        self.catalog.txn = self.txn
        self.pool.evict_guard = self.txn.may_evict
        self.pool.write_hook = self.txn.before_page_write
        self.pool.clean_hook = self.txn.page_clean
        #: snapshot-isolated reads (SELECTs run lock-free against a commit-
        #: timestamp read view); ``mvcc=False`` falls back to statement-
        #: scoped shared table locks (readers block on writers)
        self.mvcc = mvcc
        #: the snapshot of the statement currently inside ``_stmt_lock``;
        #: nested internal selects (view materialization, subqueries)
        #: inherit it so one statement reads one consistent view
        self._active_snapshot = None
        self.work_mem_pages = work_mem_pages
        self.batch_size = batch_size
        #: run queries through the columnar batch engine (ColumnBatch
        #: flow, vectorized kernels, zone-map page skipping)
        self.columnar = columnar
        self.options = options or PlannerOptions()
        self.model = CostModel(
            work_mem_pages=work_mem_pages,
            buffer_pages=buffer_pages,
            vector_cpu_factor=0.25 if columnar else 1.0,
        )
        self.views: Dict[str, ViewDef] = {}
        self._live_transients: List[str] = []
        self.obs = obs or ObsConfig()
        self.metrics = MetricsRegistry()
        self.query_log = QueryLog(self.obs.query_log_size)
        self.last_trace: Optional[Span] = None
        #: the most recent request's full trace (id + span tree), kept
        #: regardless of duration; ``last_trace_export()`` renders it
        self.last_request_trace: Optional[RequestTrace] = None
        #: bounded ring of *slow* request traces — captured when
        #: auto_explain is enabled and the request crosses its threshold
        #: (one knob for both capture paths); served by ``sys_stat_traces``
        self.traces = TraceRing(self.obs.trace_ring_size)
        #: per-fingerprint statement latency quantiles (log-bucketed),
        #: surfaced as ``statement_latency_ms`` in the Prometheus export
        self.latency = StatementLatency(
            max_fingerprints=self.obs.latency_fingerprints
        )
        #: plan baselines per normalized statement (plan-change detection)
        self.baselines = PlanBaselineStore()
        #: est-vs-actual cardinality evidence, harvested from executions;
        #: consulted at planning time only when options.use_feedback is set
        self.feedback = FeedbackStore()
        #: the optimizer SearchTrace of the most recent planning pass
        self.last_search: Optional[SearchTrace] = None
        #: cumulative wait-event accounting (io/lock/exec/exchange classes);
        #: attached to the buffer pool so page I/O and lock contention are
        #: timed at the source
        self.waits = WaitEventStats()
        if self.obs.waits:
            self.pool.waits = self.waits
            self.txn.waits = self.waits
        #: in-flight user statements (serves ``sys_stat_activity``)
        self.activity = ActivityRegistry()
        #: slow-statement capture (``auto_explain``-style)
        self.auto_explain = AutoExplain(self.obs.auto_explain)
        #: inter-query caches: physical plans keyed by statement
        #: fingerprint, and (off by default) read-only result rows keyed
        #: by exact SQL; see ``engine.cache``
        self.plan_cache = PlanCache(self.obs.plan_cache_size)
        self.result_cache = ResultCache(self.obs.result_cache_size)
        #: per-table write counters + a global DDL/stats epoch; the
        #: result cache snapshots these to stay invalidation-aware
        self._write_epochs: Dict[str, int] = {}
        self._global_epoch = 0
        #: the engine-wide statement lock: one statement mutates or plans
        #: at a time; lock *waits* (table locks) happen outside it, and
        #: COMMIT's fsync happens after it, so sessions still overlap
        #: usefully (group commit) without a thread-safe executor
        self._stmt_lock = threading.RLock()
        self._session_guard = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._next_session_id = 1
        #: the default session behind the plain ``db.execute(sql)`` API
        self._session = self.create_session()
        self.data_dir = data_dir
        self.last_recovery: Optional[RecoveryReport] = None
        self._closed = False
        if self.obs.system_tables:
            register_system_tables(self)
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            self.last_recovery = recover(self, data_dir)
            self.txn.writer = open_wal(
                data_dir,
                self.last_recovery.next_lsn,
                waits=self.waits if self.obs.waits else None,
                sync=wal_sync,
            )
            self.txn.set_next_txn_id(self.last_recovery.next_txn_id)

    # -- cache invalidation ------------------------------------------------------------

    def _invalidate_caches(self, reason: str) -> None:
        """Anything that can change what the optimizer would pick — DDL,
        new statistics, a planner-options switch — drops every cached
        plan and result."""
        self._global_epoch += 1
        dropped = self.plan_cache.invalidate(reason)
        dropped += self.result_cache.invalidate(reason)
        if dropped and self.obs.metrics:
            self.metrics.counter("cache_invalidations_total").inc(dropped)

    # -- sessions and transactions -----------------------------------------------------

    def create_session(self) -> Session:
        """Open a new session (one logical connection)."""
        with self._session_guard:
            session_id = self._next_session_id
            self._next_session_id += 1
            session = Session(self, session_id)
            self._sessions[session_id] = session
            return session

    def sessions(self) -> List[Session]:
        with self._session_guard:
            return list(self._sessions.values())

    def _forget_session(self, session: Session) -> None:
        with self._session_guard:
            self._sessions.pop(session.id, None)

    def rollback_session_txn(self, session: Session) -> None:
        """Roll back a session's open explicit transaction, if any."""
        txn = session.txn
        session.txn = None
        if txn is not None:
            self._rollback_txn(txn)

    def _commit_txn(self, txn: Transaction) -> None:
        """COMMIT: make durable, release locks, then publish the buffered
        write epochs so other sessions' cached results go stale only for
        writes that actually committed."""
        with trace_span("txn.commit") as sp:
            sp.add("txn_id", float(txn.id))
            self.txn.commit(txn)
        for key, bumps in txn.pending_epochs.items():
            self._write_epochs[key] = self._write_epochs.get(key, 0) + bumps
        txn.pending_epochs.clear()

    def _rollback_txn(self, txn: Transaction) -> None:
        # undo mutates heaps and indexes, so it runs as a statement
        # (lock ordering is safe: a statement-lock holder never waits on
        # table locks — those are always acquired first)
        with trace_span("txn.rollback") as sp:
            sp.add("txn_id", float(txn.id))
            with self._stmt_lock:
                self.txn.rollback(txn, self.catalog)

    def _begin(self, session: Session) -> QueryResult:
        if session.txn is not None:
            raise EngineError("already in a transaction")
        session.txn = self.txn.begin(session.id, explicit=True)
        return QueryResult(rows=[], columns=[])

    def _commit(self, session: Session) -> QueryResult:
        txn = session.txn
        session.txn = None
        if txn is not None:
            self._commit_txn(txn)
        return QueryResult(rows=[], columns=[])

    def _rollback(self, session: Session) -> QueryResult:
        self.rollback_session_txn(session)
        return QueryResult(rows=[], columns=[])

    # -- statement dispatch ------------------------------------------------------------

    def execute(
        self,
        sql: str,
        session: Optional[Session] = None,
        trace_id: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> QueryResult:
        """Parse and run one statement of any kind.

        *trace_id* names the request in the trace this statement opens
        (client-supplied distributed tracing; generated when omitted).
        An externally owned *tracer* (the server's per-request root span)
        is used as-is and **not** finalized here — the owner closes its
        root span and calls :meth:`capture_trace`.
        """
        session = session or self._session
        external = tracer is not None
        if tracer is None:
            tracer = self._new_tracer(trace_id)
        # the active tracer lets deep layers (WAL append/fsync, table
        # locks, MVCC) open spans without threading it through signatures
        with activate_tracer(tracer):
            with tracer.span("query"):
                with tracer.span("parse"):
                    stmt = parse(sql)
                if isinstance(stmt, SelectStmt):
                    result = self._run_select(
                        stmt, sql=sql, tracer=tracer, session=session
                    )
                elif isinstance(stmt, ExplainStmt):
                    result = self._explain(stmt, sql, tracer, session)
                elif isinstance(stmt, BeginStmt):
                    result = self._begin(session)
                elif isinstance(stmt, CommitStmt):
                    result = self._commit(session)
                elif isinstance(stmt, RollbackStmt):
                    result = self._rollback(session)
                elif isinstance(stmt, CheckpointStmt):
                    result = self.checkpoint()
                else:
                    result = self._execute_other(stmt, sql, session)
        if not external and tracer.root is not None:
            result.trace = tracer.root
            self.last_trace = tracer.root
            self.capture_trace(tracer, sql, session_id=session.id)
        return result

    def _explain(
        self,
        stmt: ExplainStmt,
        sql: str,
        tracer: Tracer,
        session: Optional[Session] = None,
    ) -> QueryResult:
        """EXPLAIN [(ANALYZE | VERBOSE | SEARCH | DIFF)]: render the plan
        (with actuals when executed), optionally followed by the
        optimizer's search trace, or diffed against the stored baseline."""
        if stmt.diff:
            return self._explain_diff(stmt, sql, tracer)
        collect_search = True if stmt.search else None
        if stmt.analyze:
            inner = self._run_select(
                stmt.inner,
                sql=sql,
                tracer=tracer,
                analyze=True,
                collect_search=collect_search,
                session=session,
            )
            text = inner.plan.pretty(actuals=True)
            text += (
                f"\nplanning: {inner.planning_seconds * 1000:.1f} ms"
                f"\nexecution: {inner.execution_seconds * 1000:.1f} ms, "
                f"{inner.io.reads} reads / {inner.io.writes} writes, "
                f"{inner.rowcount} rows"
            )
            text += self._search_section(stmt)
            return QueryResult(
                rows=[(line,) for line in text.splitlines()],
                columns=["plan"],
                plan=inner.plan,
                io=inner.io,
                buffer=inner.buffer,
                exec_metrics=inner.exec_metrics,
                planner_stats=inner.planner_stats,
                planning_seconds=inner.planning_seconds,
                execution_seconds=inner.execution_seconds,
            )
        start = time.perf_counter()
        with self._stmt_lock:
            before = len(self._live_transients)
            try:
                with tracer.span("plan"):
                    physical, pstats = self.plan_select(
                        stmt.inner, tracer=tracer, collect_search=collect_search
                    )
                text = physical.pretty()
                text += self._search_section(stmt)
            finally:
                self._drop_transients_from(before)
        planning = time.perf_counter() - start
        return QueryResult(
            rows=[(line,) for line in text.splitlines()],
            columns=["plan"],
            plan=physical,
            planner_stats=pstats,
            planning_seconds=planning,
        )

    def _search_section(self, stmt: ExplainStmt) -> str:
        if not stmt.search or self.last_search is None:
            return ""
        return "\n\nSearch:\n" + self.last_search.render(verbose=stmt.verbose)

    def _explain_diff(
        self, stmt: ExplainStmt, sql: str, tracer: Tracer
    ) -> QueryResult:
        """EXPLAIN DIFF: plan the statement (no execution) and diff the
        chosen plan against the stored baseline.  The baseline itself is
        NOT advanced — diffing is a read-only question."""
        start = time.perf_counter()
        with self._stmt_lock:
            before = len(self._live_transients)
            try:
                with tracer.span("plan"):
                    physical, pstats = self.plan_select(
                        stmt.inner, tracer=tracer
                    )
            finally:
                self._drop_transients_from(before)
        planning = time.perf_counter() - start
        baseline = self.baselines.get(statement_fingerprint(sql))
        if baseline is None:
            text = (
                physical.pretty()
                + "\n\n(no stored baseline for this statement yet — "
                "run it once to establish one)"
            )
        else:
            text = plan_diff(
                baseline.plan_shape,
                plan_shape_text(physical),
                baseline.est_cost,
                physical.total_est_cost(),
            )
        return QueryResult(
            rows=[(line,) for line in text.splitlines()],
            columns=["plan"],
            plan=physical,
            planner_stats=pstats,
            planning_seconds=planning,
        )

    def _execute_other(
        self, stmt: Any, sql: str, session: Optional[Session] = None
    ) -> QueryResult:
        """DDL / DML / utility statements (everything but SELECT/EXPLAIN)."""
        session = session or self._session
        if isinstance(stmt, (InsertStmt, DeleteStmt, UpdateStmt)):
            return self._execute_dml(stmt, session, sql=sql)
        if session.txn is not None:
            raise EngineError(
                "DDL and utility statements autocommit and cannot run "
                "inside an explicit transaction"
            )
        txn = self.txn.begin(session.id)
        try:
            for table in self._utility_lock_targets(stmt):
                self.txn.lock_table(txn, table)
            with self.txn.activate(txn), self._stmt_lock:
                result = self._apply_utility(stmt, sql)
                if isinstance(
                    stmt,
                    (
                        CreateTableStmt,
                        CreateIndexStmt,
                        DropTableStmt,
                        CreateViewStmt,
                        DropViewStmt,
                        AnalyzeStmt,
                    ),
                ):
                    self.txn.log_ddl(
                        json.dumps({"sql": sql}).encode("utf-8")
                    )
        except BaseException:
            self._rollback_txn(txn)
            raise
        self._commit_txn(txn)
        return result

    def _execute_dml(
        self, stmt: Any, session: Session, sql: Optional[str] = None
    ) -> QueryResult:
        """INSERT/UPDATE/DELETE under the session's transaction (or an
        implicit autocommitted one).  The table write lock is taken
        *before* the statement lock — lock waits must not block the
        engine — and an implicit COMMIT's fsync happens *after* the
        statement lock is released (group commit batching)."""
        own = session.txn
        txn = own if own is not None else self.txn.begin(session.id)
        start = time.perf_counter()
        dstats = self.disk.stats
        reads0, writes0 = dstats.reads, dstats.writes
        try:
            self.txn.lock_table(txn, stmt.table)
            with self.txn.activate(txn), self._stmt_lock:
                with trace_span("execute") as sp:
                    if isinstance(stmt, InsertStmt):
                        count = self._insert(stmt)
                        kind = "insert"
                        result = QueryResult(rows=[], columns=[])
                    elif isinstance(stmt, DeleteStmt):
                        count = self._delete(stmt, sp)
                        kind = "delete"
                        result = QueryResult(
                            rows=[(count,)], columns=["deleted"]
                        )
                    else:
                        count = self._update(stmt, sp)
                        kind = "update"
                        result = QueryResult(
                            rows=[(count,)], columns=["updated"]
                        )
                    sp.add("rows_modified", float(count))
                key = stmt.table.lower()
                txn.pending_epochs[key] = txn.pending_epochs.get(key, 0) + 1
        except BaseException:
            # statement failure aborts the whole transaction (a partially
            # applied statement cannot be left behind)
            if own is not None:
                session.txn = None
            self._rollback_txn(txn)
            raise
        if own is None:
            self._commit_txn(txn)
        if sql is not None:
            # statement latency as the client saw it: for autocommit DML
            # the elapsed time includes the COMMIT's (group-batched) fsync
            self._record_dml(
                sql,
                kind,
                count,
                session,
                txn,
                time.perf_counter() - start,
                dstats.reads - reads0,
                dstats.writes - writes0,
            )
        return result

    def _record_dml(
        self,
        sql: str,
        kind: str,
        count: int,
        session: Session,
        txn: Transaction,
        elapsed: float,
        reads: int,
        writes: int,
    ) -> None:
        """Feed one finished DML statement into the metrics registry, the
        latency store, and the query log (with session/txn attribution) —
        the write-side twin of :meth:`_record_query`."""
        fingerprint = statement_fingerprint(sql)
        if self.obs.metrics:
            m = self.metrics
            m.counter("dml_statements_total").inc()
            m.counter("rows_modified_total").inc(count)
            m.histogram("dml_execution_ms").observe(elapsed * 1000.0)
            self.latency.observe(fingerprint, elapsed * 1000.0)
        if self.query_log.capacity > 0:
            self.query_log.record(
                QueryLogRecord(
                    sql=sql,
                    fingerprint=fingerprint,
                    est_rows=float(count),
                    actual_rows=count,
                    q_error=1.0,
                    est_cost=0.0,
                    actual_reads=reads,
                    actual_writes=writes,
                    planning_ms=0.0,
                    execution_ms=elapsed * 1000.0,
                    kind=kind,
                    session_id=session.id,
                    txn_id=txn.id,
                )
            )

    def _utility_lock_targets(self, stmt: Any) -> List[str]:
        """Tables a DDL/utility statement must quiesce before running."""
        if isinstance(stmt, (CreateIndexStmt, DropTableStmt)):
            if self.catalog.has_table(stmt.table):
                return [stmt.table]
            return []
        if isinstance(stmt, AnalyzeStmt):
            if stmt.table is None:
                return sorted(info.name for info in self.catalog.tables())
            if self.catalog.has_table(stmt.table):
                return [stmt.table]
        return []

    def _apply_utility(self, stmt: Any, sql: str) -> QueryResult:
        if isinstance(stmt, CreateTableStmt):
            schema = Schema(
                Column(c.name, c.dtype, stmt.table, c.nullable)
                for c in stmt.columns
            )
            self._invalidate_caches("CREATE TABLE")
            self.catalog.create_table(stmt.table, schema)
            for c in stmt.columns:
                if c.primary_key:
                    self.catalog.create_index(
                        f"pk_{stmt.table}_{c.name}",
                        stmt.table,
                        c.name,
                        IndexKind.BTREE,
                        clustered=True,
                    )
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, CreateIndexStmt):
            kind = IndexKind.BTREE if stmt.using == "btree" else IndexKind.HASH
            self._invalidate_caches("CREATE INDEX")
            self.catalog.create_index(
                stmt.name, stmt.table, stmt.column, kind, stmt.clustered
            )
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, DropTableStmt):
            self._invalidate_caches("DROP TABLE")
            self.catalog.drop_table(stmt.table)
            # a later table reusing the name must not inherit stale chains
            self.txn.versions.drop_table(stmt.table)
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, CreateViewStmt):
            key = stmt.name.lower()
            if self.catalog.has_table(stmt.name) or key in self.views:
                raise EngineError(f"name {stmt.name!r} already in use")
            self._invalidate_caches("CREATE VIEW")
            self.views[key] = ViewDef(stmt.name, stmt.select, sql)
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, DropViewStmt):
            if stmt.name.lower() not in self.views:
                raise EngineError(f"no such view: {stmt.name}")
            self._invalidate_caches("DROP VIEW")
            del self.views[stmt.name.lower()]
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, AnalyzeStmt):
            self._invalidate_caches("ANALYZE")
            if stmt.table is None:
                self.catalog.analyze_all()
                analyzed = sorted(
                    self.catalog.tables(), key=lambda info: info.name
                )
            else:
                self.catalog.analyze(stmt.table)
                analyzed = [self.catalog.table(stmt.table)]
            # one summary row per table, zone-map coverage included
            rows = []
            for info in analyzed:
                zone_pages, zone_entries = (
                    info.zones.summary() if info.zones is not None else (0, 0)
                )
                rows.append(
                    (
                        info.name,
                        info.stats.num_rows if info.stats else 0,
                        info.num_pages,
                        zone_pages,
                        zone_entries,
                    )
                )
            return QueryResult(
                rows=rows,
                columns=[
                    "table",
                    "rows",
                    "pages",
                    "zone_pages",
                    "zone_entries",
                ],
            )
        raise EngineError(f"unsupported statement {type(stmt).__name__}")

    def query(
        self,
        sql: str,
        session: Optional[Session] = None,
        trace_id: Optional[str] = None,
    ) -> QueryResult:
        """Run a SELECT and return rows + metrics."""
        session = session or self._session
        tracer = self._new_tracer(trace_id)
        with activate_tracer(tracer):
            with tracer.span("query"):
                with tracer.span("parse"):
                    stmt = parse(sql)
                if not isinstance(stmt, SelectStmt):
                    raise EngineError(
                        "query() expects a SELECT; use execute()"
                    )
                result = self._run_select(
                    stmt, sql=sql, tracer=tracer, session=session
                )
        if tracer.root is not None:
            result.trace = tracer.root
            self.last_trace = tracer.root
            self.capture_trace(tracer, sql, session_id=session.id)
        return result

    # -- planning ---------------------------------------------------------------------------

    def plan_select(
        self,
        stmt: SelectStmt,
        tracer: Optional[Tracer] = None,
        collect_search: Optional[bool] = None,
    ) -> Tuple[PhysicalPlan, PlannerStats]:
        """Plan a SELECT.  Views referenced by *stmt* are expanded here; a
        non-mergeable view is materialized into a transient table that the
        statement owning the planning drops when it finishes (``_run_select``,
        ``plan`` and ``explain_stmt`` all clean up after themselves; direct
        callers own the cleanup via :meth:`drop_transients`)."""
        tracer = tracer or Tracer(enabled=False)
        with tracer.span("view_expansion") as span:
            expansion = self._expand_views(stmt)
            if expansion.transient_tables:
                span.add("views_materialized", len(expansion.transient_tables))
        self._live_transients.extend(expansion.transient_tables)
        self._materialize_system_tables(expansion.stmt)
        with tracer.span("decorrelation") as span:
            before = len(self._live_transients)
            stmt = self._decompose_subqueries(expansion.stmt)
            if len(self._live_transients) > before:
                span.add(
                    "subqueries_decorrelated",
                    len(self._live_transients) - before,
                )
        logical = build_plan(stmt, self.catalog)
        if collect_search is None:
            collect_search = self.obs.trace
        search = SearchTrace() if collect_search else None
        planner = Planner(
            self.catalog,
            self.model,
            self.options,
            tracer=tracer,
            feedback=self.feedback,
            search=search,
        )
        physical = planner.plan_logical(logical)
        if search is not None:
            self.last_search = search
        return physical, planner.last_stats or PlannerStats()

    # -- views -------------------------------------------------------------------------

    _live_transients: List[str]

    def _expand_views(self, stmt: SelectStmt) -> Expansion:
        if not self.views:
            return Expansion(stmt)
        expander = ViewExpander(
            views=self.views,
            is_table=self.catalog.has_table,
            materialize=self._materialize_view,
            table_columns=self._table_columns,
            view_output_names=lambda s: [],
        )
        return expander.expand(stmt)

    def _table_columns(self, table: str) -> List[str]:
        if self.catalog.has_table(table):
            return self.catalog.table(table).schema.names()
        view = self.views.get(table.lower())
        if view is None:
            return []
        # output names of a view: derived from its select list
        names: List[str] = []
        for item in view.select.items:
            if item.is_star:
                for ref in list(view.select.from_tables) + [
                    j.table for j in view.select.joins
                ]:
                    for column in self._table_columns(ref.table):
                        if column not in names:
                            names.append(column)
                continue
            if item.alias:
                names.append(item.alias)
            else:
                from ..expr import ColumnRef

                if isinstance(item.expr, ColumnRef):
                    names.append(item.expr.name.split(".")[-1])
                else:
                    names.append(str(item.expr))
        return names

    def _materialize_view(self, inner: SelectStmt, table_name: str) -> str:
        result = self._select(inner)
        schema = Schema(
            Column(column.name, column.dtype, table_name, True)
            for column in result.plan.schema
        )
        self.catalog.create_table(table_name, schema)
        self.catalog.insert_rows(table_name, result.rows)
        self.catalog.analyze(table_name)
        return table_name

    def _materialize_system_tables(self, stmt: SelectStmt) -> None:
        """Snapshot every ``sys_stat_*`` table *stmt* references into a
        transient heap table of the same name (dropped when the statement
        finishes, exactly like a materialized view).

        Materializing — rather than teaching the executor about virtual
        tables — means the planner prices a system table like any small,
        freshly-ANALYZEd table and every SQL feature (filters, joins,
        ORDER BY, aggregation, EXPLAIN) composes with zero special cases.
        The snapshot is taken once, at statement start, so self-joins of a
        system table see one consistent picture.  A user table with the
        same name shadows the provider (``is_system_table`` is False),
        which also makes re-materialization within one statement a no-op.
        """
        catalog = self.catalog
        if not catalog.system_table_names():
            return
        refs = [ref.table for ref in stmt.from_tables]
        refs += [join.table.table for join in stmt.joins]
        for name in refs:
            key = name.lower()
            if not catalog.is_system_table(key):
                continue
            schema, rows = catalog.system_table_rows(key)
            catalog.create_table(key, schema)
            catalog.insert_rows(key, rows)
            catalog.analyze(key)
            self._live_transients.append(key)

    def drop_transients(self) -> None:
        """Drop transient tables left over from planning view queries."""
        self._drop_transients_from(0)

    def _drop_transients_from(self, before: int) -> None:
        """Drop the transients registered past index *before* — the ones
        the current statement created."""
        mine = self._live_transients[before:]
        del self._live_transients[before:]
        for name in mine:
            if self.catalog.has_table(name):
                self.catalog.drop_table(name)

    # -- subquery decomposition (INGRES-style) ----------------------------------------

    def _decompose_subqueries(self, stmt: SelectStmt) -> SelectStmt:
        """Replace uncorrelated subquery predicates with their results.

        The classic decomposition strategy: run each independent inner
        query first, substitute its answer as literals, then optimize the
        (now subquery-free) outer query.  Correlated subqueries are
        rejected (the inner query must plan standalone).
        """
        from dataclasses import replace as dc_replace

        from ..expr import Expr, SubqueryExpr, contains_subquery, map_expr

        def rewrite(expr: Optional[Expr]) -> Optional[Expr]:
            if expr is None or not contains_subquery(expr):
                return expr
            return map_expr(expr, self._substitute_subquery)

        stmt = self._decorrelate(stmt)
        changed = False
        where = rewrite(stmt.where)
        having = rewrite(stmt.having)
        joins = []
        for join in stmt.joins:
            condition = rewrite(join.condition)
            if condition is not join.condition:
                changed = True
                join = dc_replace(join, condition=condition)
            joins.append(join)
        if where is stmt.where and having is stmt.having and not changed:
            return stmt
        out = SelectStmt(
            items=stmt.items,
            from_tables=stmt.from_tables,
            joins=joins,
            where=where,
            group_by=stmt.group_by,
            having=having,
            order_by=stmt.order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
        )
        return out

    # -- correlated subqueries: semi-join decorrelation -------------------------------

    def _decorrelate(self, stmt: SelectStmt) -> SelectStmt:
        """Rewrite correlated ``IN``/``EXISTS`` conjuncts as semi-joins.

        The classic decorrelation: a top-level-conjunct subquery whose only
        references to the outer query are equality links becomes a join
        against the DISTINCT projection of the inner query over its link
        (and output) columns.  The inner query is materialized into a
        transient table first (decomposition), so the optimizer then sees a
        plain join.

        Unsupported shapes (negated forms, non-equality correlation,
        correlated aggregates, subqueries under OR) are left alone and fail
        later with a clear error if genuinely correlated.
        """
        from ..expr import ColumnRef, SubqueryExpr, eq
        from ..sql.ast import TableRef

        if stmt.where is None:
            return stmt
        conjuncts = split_conjuncts(stmt.where)
        if not any(isinstance(c, SubqueryExpr) for c in conjuncts):
            return stmt

        outer_bindings = {
            ref.binding: ref.table
            for ref in list(stmt.from_tables) + [j.table for j in stmt.joins]
        }
        out_conjuncts: List[Any] = []
        extra_tables: List[TableRef] = []
        changed = False
        for conjunct in conjuncts:
            replacement = None
            if (
                isinstance(conjunct, SubqueryExpr)
                and not conjunct.negated
                and conjunct.kind in ("in", "exists")
            ):
                replacement = self._decorrelate_one(
                    conjunct, outer_bindings, extra_tables,
                    len(extra_tables),
                )
            if replacement is None:
                out_conjuncts.append(conjunct)
            else:
                out_conjuncts.extend(replacement)
                changed = True
        if not changed:
            return stmt
        from ..expr import conjoin

        return SelectStmt(
            items=stmt.items,
            from_tables=list(stmt.from_tables) + extra_tables,
            joins=stmt.joins,
            where=conjoin(out_conjuncts),
            group_by=stmt.group_by,
            having=stmt.having,
            order_by=stmt.order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
        )

    def _decorrelate_one(
        self,
        sub,
        outer_bindings: Dict[str, str],
        extra_tables: List[Any],
        counter: int,
    ) -> Optional[List[Any]]:
        """Try to turn one correlated subquery conjunct into join conjuncts
        plus a transient FROM entry.  Returns None when not applicable
        (including the uncorrelated case, which the literal-substitution
        path handles better)."""
        from ..expr import (
            ColEqCol,
            ColumnRef,
            classify_conjunct,
            conjoin,
            eq,
            referenced_columns,
        )
        from ..sql.ast import SelectItem, TableRef

        inner: SelectStmt = sub.payload
        if (
            inner.group_by
            or inner.having is not None
            or inner.order_by
            or inner.limit is not None
        ):
            return None
        if sub.kind == "in" and len(inner.items) != 1:
            return None
        inner_refs = list(inner.from_tables) + [j.table for j in inner.joins]
        inner_columns: Dict[str, int] = {}
        for ref in inner_refs:
            for column in self._table_columns(ref.table):
                inner_columns[column] = inner_columns.get(column, 0) + 1
        inner_bindings = {ref.binding for ref in inner_refs}

        def side_of(name: str) -> Optional[str]:
            if "." in name:
                qualifier = name.split(".", 1)[0]
                if qualifier in inner_bindings:
                    return "inner"
                if qualifier in outer_bindings:
                    return "outer"
                return None
            if inner_columns.get(name, 0) == 1:
                return "inner"
            if inner_columns.get(name, 0) > 1:
                return None  # ambiguous inside the subquery
            for table in outer_bindings.values():
                if name in self._table_columns(table):
                    return "outer"
            return None

        pure_inner: List[Any] = []
        links: List[Any] = []  # (inner ColumnRef, outer ColumnRef)
        for conjunct in split_conjuncts(inner.where):
            refs = referenced_columns(conjunct)
            sides = {side_of(name) for name in refs}
            if None in sides:
                return None
            if sides <= {"inner"}:
                pure_inner.append(conjunct)
                continue
            classified = classify_conjunct(conjunct)
            if not isinstance(classified, ColEqCol):
                return None  # non-equality correlation: bail
            left_side = side_of(classified.left)
            right_side = side_of(classified.right)
            if {left_side, right_side} != {"inner", "outer"}:
                return None
            inner_name, outer_name = (
                (classified.left, classified.right)
                if left_side == "inner"
                else (classified.right, classified.left)
            )
            links.append((ColumnRef(inner_name), ColumnRef(outer_name)))
        if not links:
            return None  # uncorrelated: let literal substitution handle it

        # Build the inner DISTINCT projection over output + link columns.
        items: List[SelectItem] = []
        if sub.kind == "in":
            items.append(SelectItem(inner.items[0].expr, "__c0"))
        for i, (inner_col, _) in enumerate(links):
            items.append(SelectItem(inner_col, f"__l{i}"))
        derived = SelectStmt(
            items=items,
            from_tables=list(inner.from_tables),
            joins=list(inner.joins),
            where=conjoin(pure_inner),
            distinct=True,
        )
        alias = f"__dq{counter}_{len(self._live_transients)}"
        table_name = self._materialize_view(derived, f"__decorr_{alias}")
        self._live_transients.append(table_name)
        extra_tables.append(TableRef(table_name, alias))

        conjuncts_out: List[Any] = []
        if sub.kind == "in":
            conjuncts_out.append(eq(sub.operand, ColumnRef(f"{alias}.__c0")))
        for i, (_, outer_col) in enumerate(links):
            conjuncts_out.append(eq(ColumnRef(f"{alias}.__l{i}"), outer_col))
        return conjuncts_out

    def _substitute_subquery(self, expr):
        from ..expr import InList, Literal, SubqueryExpr

        if not isinstance(expr, SubqueryExpr):
            return expr
        inner: SelectStmt = expr.payload
        try:
            result = self._select(inner)
        except Exception as exc:
            raise EngineError(
                "subquery failed (correlated subqueries are not supported: "
                f"the inner query must run standalone): {exc}"
            ) from exc
        if expr.kind == "exists":
            return Literal(bool(result.rows) != expr.negated)
        if expr.kind == "scalar":
            if len(result.columns) != 1:
                raise EngineError("scalar subquery must return one column")
            if len(result.rows) > 1:
                raise EngineError("scalar subquery returned more than one row")
            value = result.rows[0][0] if result.rows else None
            return Literal(value)
        # 'in'
        if len(result.columns) != 1:
            raise EngineError("IN subquery must return exactly one column")
        values = {row[0] for row in result.rows if row[0] is not None}
        had_null = any(row[0] is None for row in result.rows)
        if not values and not had_null:
            return Literal(expr.negated)  # IN () = FALSE, NOT IN () = TRUE
        items = tuple(Literal(v) for v in sorted(values, key=repr))
        if had_null:
            items = items + (Literal(None),)
        return InList(expr.operand, items, expr.negated)

    def plan(self, sql: str) -> PhysicalPlan:
        stmt = parse(sql)
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.inner
        if not isinstance(stmt, SelectStmt):
            raise EngineError("plan() expects a SELECT")
        before = len(self._live_transients)
        try:
            return self.plan_select(stmt)[0]
        finally:
            self._drop_transients_from(before)

    def explain(self, sql: str) -> str:
        return self.plan(sql).pretty()

    def explain_stmt(self, stmt: SelectStmt) -> str:
        before = len(self._live_transients)
        try:
            return self.plan_select(stmt)[0].pretty()
        finally:
            self._drop_transients_from(before)

    # -- execution ---------------------------------------------------------------------------

    def run_plan(
        self,
        physical: PhysicalPlan,
        cold: bool = False,
        analyze: bool = False,
        activity: Optional[Any] = None,
        snapshot: Optional[Any] = None,
    ) -> QueryResult:
        """Execute an already-built physical plan, measuring real I/O.

        ``cold=True`` clears the buffer pool first so the run pays full
        page-fetch costs (what the experiments usually want).
        ``analyze=True`` forces FULL instrumentation (per-operator timing
        and attributed buffer/disk counters) regardless of the configured
        default level; an enabled ``auto_explain`` with ``analyze=True``
        (its default) forces the same, so captures carry per-node timing —
        the trade PostgreSQL's ``auto_explain.log_analyze`` makes.
        """
        if cold:
            self.pool.clear()
        before_io = self.disk.stats.snapshot()
        before_buf = self.pool.stats.snapshot()
        if analyze or (
            self.auto_explain.enabled and self.auto_explain.config.analyze
        ):
            level = InstrumentLevel.FULL
        else:
            level = self.obs.instrument
        ctx = ExecContext(
            self.pool,
            self.work_mem_pages,
            instrument=level,
            batch_size=self.batch_size,
            activity=activity,
            columnar=self.columnar,
            snapshot=snapshot if snapshot is not None else self._active_snapshot,
        )
        start = time.perf_counter()
        rows = run(physical, ctx)
        elapsed = time.perf_counter() - start
        return QueryResult(
            rows=rows,
            columns=physical.schema.names(),
            plan=physical,
            io=self.disk.stats.delta(before_io),
            buffer=self.pool.stats.delta(before_buf),
            exec_metrics=ctx.metrics,
            execution_seconds=elapsed,
        )

    def _new_tracer(self, trace_id: Optional[str] = None) -> Tracer:
        return Tracer(enabled=self.obs.trace, trace_id=trace_id)

    # -- request traces -----------------------------------------------------------------

    def capture_trace(
        self,
        tracer: Tracer,
        sql: str,
        session_id: int = 0,
    ) -> Optional[RequestTrace]:
        """Wrap a finished tracer into a :class:`RequestTrace`.

        Always remembered as ``last_request_trace``; additionally pushed
        into the slow-trace ring when auto_explain is enabled and the
        request crossed its ``threshold_ms`` (the same knob that gates
        slow-plan capture — one definition of "slow").
        """
        if not tracer.enabled or tracer.root is None:
            return None
        trace = RequestTrace(
            tracer.trace_id, sql, tracer.root, session_id=session_id
        )
        self.last_request_trace = trace
        if (
            self.auto_explain.enabled
            and trace.duration_ms >= self.auto_explain.config.threshold_ms
        ):
            self.traces.record(trace)
            if self.obs.metrics:
                self.metrics.counter("traces_captured_total").inc()
                self.metrics.counter("trace_spans_total").inc(
                    trace.span_count()
                )
        return trace

    def last_trace_export(self, path: Optional[str] = None) -> str:
        """The most recent request trace as Chrome trace-event JSON —
        load the written file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Returns the JSON text; writes *path* when
        given (the REPL's ``\\trace export FILE``)."""
        trace = self.last_request_trace
        if trace is None:
            raise EngineError("no request trace captured yet")
        text = json.dumps(chrome_trace_events(trace), indent=1)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def _select(self, stmt: SelectStmt) -> QueryResult:
        """Plan + run a SELECT under its own trace (internal entry point:
        view materialization, subquery substitution, tests)."""
        tracer = self._new_tracer()
        with tracer.span("query"):
            result = self._run_select(stmt, tracer=tracer)
        if tracer.root is not None:
            result.trace = tracer.root
            self.last_trace = tracer.root
        return result

    @staticmethod
    def _has_subqueries(stmt: SelectStmt) -> bool:
        from ..expr import contains_subquery

        exprs = [item.expr for item in stmt.items if item.expr is not None]
        exprs += [j.condition for j in stmt.joins if j.condition is not None]
        exprs += list(stmt.group_by)
        exprs += [o.expr for o in stmt.order_by]
        if stmt.where is not None:
            exprs.append(stmt.where)
        if stmt.having is not None:
            exprs.append(stmt.having)
        return any(contains_subquery(e) for e in exprs)

    @staticmethod
    def _plan_tables(physical: PhysicalPlan) -> set:
        """Lower-cased names of every base table the plan reads."""
        names = set()
        for node in walk_plan(physical):
            table = getattr(node, "table", None)
            if table is not None:
                names.add(table.name.lower())
        return names

    def _run_select(
        self,
        stmt: SelectStmt,
        sql: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        analyze: bool = False,
        collect_search: Optional[bool] = None,
        session: Optional[Session] = None,
    ) -> QueryResult:
        tracer = tracer or Tracer(enabled=False)
        start = time.perf_counter()
        if not self.mvcc:
            # Legacy isolation: top-level statements take statement-scoped
            # shared table locks before the statement lock, so they never
            # read uncommitted rows — at the price of blocking on writers.
            acquired: List[str] = []
            if session is not None:
                names = [ref.table for ref in stmt.from_tables]
                names += [join.table.table for join in stmt.joins]
                acquired = self.txn.lock_tables_shared(
                    [n for n in names if self.catalog.has_table(n)],
                    txn=session.txn,
                )
            try:
                with self._stmt_lock:
                    return self._run_select_locked(
                        stmt, sql, tracer, analyze, collect_search,
                        session, start, None,
                    )
            finally:
                self.txn.unlock_shared(acquired)
        # MVCC: top-level statements read through a commit-timestamp
        # snapshot instead of locking — they never block on writers and
        # never see uncommitted rows.  Inside an explicit transaction the
        # snapshot is pinned at the first SELECT and reused until COMMIT/
        # ROLLBACK (repeatable reads, released by TxnManager._finish);
        # autocommit SELECTs take a statement snapshot (read committed).
        snapshot = None
        release = False
        if session is not None:
            txn = session.txn
            if txn is not None:
                if txn.snapshot is None:
                    with tracer.span("mvcc.acquire") as sp:
                        txn.snapshot = self.txn.versions.acquire(txn.id)
                        sp.set_attr("scope", "transaction")
                        sp.add("snapshot_ts", float(txn.snapshot.ts))
                snapshot = txn.snapshot
            else:
                with tracer.span("mvcc.acquire") as sp:
                    snapshot = self.txn.versions.acquire(0)
                    sp.set_attr("scope", "statement")
                    sp.add("snapshot_ts", float(snapshot.ts))
                release = True
        try:
            with self._stmt_lock:
                return self._run_select_locked(
                    stmt, sql, tracer, analyze, collect_search,
                    session, start, snapshot,
                )
        finally:
            if release:
                with tracer.span("mvcc.release"):
                    self.txn.versions.release(snapshot)

    def _run_select_locked(
        self,
        stmt: SelectStmt,
        sql: Optional[str],
        tracer: Tracer,
        analyze: bool,
        collect_search: Optional[bool],
        session: Optional[Session],
        start: float,
        snapshot: Optional[Any] = None,
    ) -> QueryResult:
        # Nested internal selects (view materialization, subquery
        # decomposition) arrive with snapshot=None and inherit the outer
        # statement's view, so one statement reads one consistent state.
        if snapshot is None:
            snapshot = self._active_snapshot
        prev_snapshot = self._active_snapshot
        self._active_snapshot = snapshot
        try:
            return self._run_select_impl(
                stmt, sql, tracer, analyze, collect_search,
                session, start, snapshot,
            )
        finally:
            self._active_snapshot = prev_snapshot

    def _run_select_impl(
        self,
        stmt: SelectStmt,
        sql: Optional[str],
        tracer: Tracer,
        analyze: bool,
        collect_search: Optional[bool],
        session: Optional[Session],
        start: float,
        snapshot: Optional[Any],
    ) -> QueryResult:
        before_transients = len(self._live_transients)
        # Cacheable = user-issued, not EXPLAIN ANALYZE (which must show a
        # cold plan), feedback off (feedback-corrected plans drift between
        # executions), and no subqueries (decomposition bakes subquery
        # *results* into the plan as literals).
        cacheable = (
            sql is not None
            and not analyze
            and not self.options.use_feedback
            and not self._has_subqueries(stmt)
        )
        # A session with pending (uncommitted) writes bypasses the result
        # cache: entries reflect committed state only, so serving one
        # could hide the session's own changes — while evicting it (the
        # cache's staleness reaction) would wrongly punish everyone else
        # for writes that may yet roll back.
        txn = session.txn if session is not None else None
        # A snapshot older than the latest commit must also bypass: cache
        # entries reflect the *newest* committed state, which this reader's
        # frozen view is not allowed to observe yet.
        stale_snapshot = (
            snapshot is not None
            and snapshot.ts != self.txn.versions.last_commit_ts
        )
        bypass_result_cache = (
            txn is not None and bool(txn.pending_epochs)
        ) or stale_snapshot
        if cacheable and self.obs.result_cache and not bypass_result_cache:
            hit = self.result_cache.lookup(
                sql, self._global_epoch, self._write_epochs
            )
            if hit is not None:
                if self.obs.metrics:
                    self.metrics.counter("cache_result_hits_total").inc()
                result = QueryResult(
                    rows=list(hit.rows),
                    columns=list(hit.columns),
                    plan=hit.plan,
                    planner_stats=PlannerStats(),
                    planning_seconds=time.perf_counter() - start,
                )
                self._record_query(
                    sql, hit.plan, result, result_cache_hit=True,
                    session=session,
                )
                return result
            if self.obs.metrics:
                self.metrics.counter("cache_result_misses_total").inc()
        cached_plan = None
        fingerprint = options_key = None
        if cacheable and self.obs.plan_cache:
            fingerprint = statement_fingerprint(sql)
            options_key = repr(self.options)
            cached_plan = self.plan_cache.lookup(fingerprint, sql, options_key)
            if self.obs.metrics:
                self.metrics.counter(
                    "cache_plan_hits_total"
                    if cached_plan is not None
                    else "cache_plan_misses_total"
                ).inc()
        plan_cache_hit = cached_plan is not None
        entry = (
            self.activity.begin(
                sql, session_id=session.id if session is not None else 0
            )
            if sql is not None
            else None
        )
        if entry is not None and snapshot is not None:
            entry.snapshot_ts = snapshot.ts
            entry.snapshot_acquired = snapshot.acquired_at
        made_transients = False
        try:
            if cached_plan is not None:
                physical, pstats = cached_plan, PlannerStats()
            else:
                with tracer.span("plan"):
                    physical, pstats = self.plan_select(
                        stmt, tracer=tracer, collect_search=collect_search
                    )
                # plans that lean on per-statement transients (materialized
                # views, system tables) die with those transients — never
                # cache them
                made_transients = (
                    len(self._live_transients) > before_transients
                )
                if (
                    cacheable
                    and self.obs.plan_cache
                    and not made_transients
                ):
                    self.plan_cache.store(
                        fingerprint, sql, options_key, physical
                    )
            planning = time.perf_counter() - start
            if entry is not None:
                entry.phase = "executing"
            waits0 = self.waits.snapshot() if self.obs.waits else None
            with tracer.span("execute"):
                result = self.run_plan(
                    physical, analyze=analyze, activity=entry,
                    snapshot=snapshot,
                )
        finally:
            # transient tables created for THIS statement's views
            self._drop_transients_from(before_transients)
            if entry is not None:
                self.activity.finish(entry)
        if waits0 is not None:
            # exec.cpu = wall execution time minus the blocked time that
            # accrued during it, so cpu + io + lock (+ exchange) adds back
            # up to measured execution time
            blocked = sum(
                seconds
                for event, (_, seconds) in self.waits.delta(waits0).items()
                if not event.startswith("exec.")
            )
            self.waits.record(
                "exec.cpu", max(0.0, result.execution_seconds - blocked)
            )
        result.planner_stats = pstats
        result.planning_seconds = planning
        if (
            cacheable
            and self.obs.result_cache
            and not made_transients
            and result.rowcount <= self.obs.result_cache_max_rows
            # re-checked after execution: a commit landing mid-query
            # makes these rows a stale view the cache must not publish
            and not (
                snapshot is not None
                and snapshot.ts != self.txn.versions.last_commit_ts
            )
        ):
            tables = self._plan_tables(physical)
            # never publish rows that include this session's uncommitted
            # writes — a rollback would leave the entry poisoned for
            # everyone else
            dirty = set(txn.pending_epochs) if txn is not None else set()
            if not (tables & dirty):
                self.result_cache.store(
                    sql,
                    result.rows,
                    result.columns,
                    physical,
                    {name: self._write_epochs.get(name, 0) for name in tables},
                    self._global_epoch,
                )
        self._record_query(
            sql, physical, result, plan_cache_hit=plan_cache_hit,
            session=session,
        )
        self._maybe_auto_explain(sql, physical, result)
        return result

    def _record_query(
        self,
        sql: Optional[str],
        physical: PhysicalPlan,
        result: QueryResult,
        plan_cache_hit: bool = False,
        result_cache_hit: bool = False,
        session: Optional[Session] = None,
    ) -> None:
        """Feed one finished SELECT into the metrics registry and (for
        user-issued statements, ``sql is not None``) the query log.

        A result-cache hit never executed, so its stale plan actuals are
        kept out of the feedback store and the baseline observer."""
        if self.obs.metrics:
            m = self.metrics
            m.counter("queries_total").inc()
            m.histogram("planning_ms").observe(result.planning_seconds * 1000.0)
            m.histogram("execution_ms").observe(
                result.execution_seconds * 1000.0
            )
            m.counter("rows_returned_total").inc(result.rowcount)
            if result.io is not None:
                m.counter("pages_read_total").inc(result.io.reads)
                m.counter("pages_written_total").inc(result.io.writes)
            if result.exec_metrics is not None:
                m.counter("spills_total").inc(result.exec_metrics.spills)
                m.counter("temp_files_total").inc(
                    result.exec_metrics.temp_files
                )
                m.counter("pages_skipped_total").inc(
                    result.exec_metrics.pages_skipped
                )
                if result.exec_metrics.parallel_regions:
                    m.counter("parallel_queries_total").inc()
                    m.counter("parallel_workers_total").inc(
                        result.exec_metrics.parallel_workers
                    )
            m.gauge("buffer_hit_ratio").set(self.pool.stats.hit_rate)
            if sql is not None:
                self.latency.observe(
                    statement_fingerprint(sql),
                    (result.planning_seconds + result.execution_seconds)
                    * 1000.0,
                )
        if self.obs.feedback and not result_cache_hit:
            self._harvest_feedback(physical)
        fingerprint = plan_fingerprint(physical)
        est_cost = physical.total_est_cost()
        plan_changed = False
        cost_delta = 0.0
        if self.obs.baselines and sql is not None and not result_cache_hit:
            change = self.baselines.observe(
                statement_fingerprint(sql),
                sql,
                fingerprint,
                est_cost,
                plan_shape_text(physical),
                result.execution_seconds * 1000.0,
            )
            if change is not None:
                plan_changed = True
                cost_delta = change.cost_delta
                if self.obs.metrics:
                    self.metrics.counter("plan_changes_total").inc()
                    if change.is_regression:
                        self.metrics.counter("plan_regressions_total").inc()
        if sql is not None and self.query_log.capacity > 0:
            self.query_log.record(
                QueryLogRecord(
                    sql=sql,
                    fingerprint=fingerprint,
                    est_rows=physical.est_rows,
                    actual_rows=result.rowcount,
                    q_error=q_error(physical.est_rows, float(result.rowcount)),
                    est_cost=est_cost,
                    actual_reads=result.io.reads if result.io else 0,
                    actual_writes=result.io.writes if result.io else 0,
                    planning_ms=result.planning_seconds * 1000.0,
                    execution_ms=result.execution_seconds * 1000.0,
                    spills=(
                        result.exec_metrics.spills if result.exec_metrics else 0
                    ),
                    temp_files=(
                        result.exec_metrics.temp_files
                        if result.exec_metrics
                        else 0
                    ),
                    parallel_workers=(
                        result.exec_metrics.parallel_workers
                        if result.exec_metrics
                        else 0
                    ),
                    plan_changed=plan_changed,
                    baseline_cost_delta=cost_delta,
                    buffer_hits=result.buffer.hits if result.buffer else 0,
                    plan_cache_hit=plan_cache_hit,
                    result_cache_hit=result_cache_hit,
                    kind="select",
                    session_id=session.id if session is not None else 0,
                    txn_id=(
                        session.txn.id
                        if session is not None and session.txn is not None
                        else 0
                    ),
                )
            )

    def _maybe_auto_explain(
        self, sql: Optional[str], physical: PhysicalPlan, result: QueryResult
    ) -> None:
        """Capture user statements that crossed the auto_explain threshold."""
        if sql is None or not self.auto_explain.enabled:
            return
        search_summary = None
        if self.last_search is not None and len(self.last_search):
            search_summary = self.last_search.render(top=3)
        captured = self.auto_explain.maybe_capture(
            sql=sql,
            execution_ms=result.execution_seconds * 1000.0,
            planning_ms=result.planning_seconds * 1000.0,
            rows=result.rowcount,
            plan_text=physical.pretty(actuals=True),
            reads=result.io.reads if result.io else 0,
            writes=result.io.writes if result.io else 0,
            search_summary=search_summary,
        )
        if captured is not None and self.obs.metrics:
            self.metrics.counter("slow_queries_captured_total").inc()

    def _harvest_feedback(self, physical: PhysicalPlan) -> None:
        """Fold this execution's per-node actuals into the feedback store.

        Plans under a LIMIT are skipped entirely: early termination leaves
        actuals that reflect the cutoff, not the data, and learning from
        them would poison the corrections.
        """
        from ..physical import PLimit, walk_plan

        if any(isinstance(node, PLimit) for node in walk_plan(physical)):
            return
        self.feedback.harvest(physical)

    def metrics_snapshot(self, format: str = "json") -> Any:
        """Process-wide observability snapshot: registry instruments plus
        the storage layer's cumulative counters.

        ``format="json"`` (default) returns nested plain dicts;
        ``format="prom"`` returns Prometheus text exposition (the storage
        counters render as gauges alongside the registry instruments).
        """
        if format == "prom":
            bstats, dstats = self.pool.stats, self.disk.stats
            extras = {
                "buffer_pool_hits": float(bstats.hits),
                "buffer_pool_misses": float(bstats.misses),
                "buffer_pool_evictions": float(bstats.evictions),
                "buffer_pool_dirty_writebacks": float(bstats.dirty_writebacks),
                "buffer_pool_hit_rate": bstats.hit_rate,
                "disk_reads": float(dstats.reads),
                "disk_writes": float(dstats.writes),
                "disk_seq_reads": float(dstats.seq_reads),
                "disk_allocations": float(dstats.allocations),
                "query_log_entries": float(len(self.query_log)),
                "feedback_entries": float(len(self.feedback)),
                "plan_baselines": float(len(self.baselines)),
                "wait_events_total": float(len(self.waits)),
                "slow_query_captures": float(self.auto_explain.captured_total),
            }
            versions = self.txn.versions
            extras.update(
                {
                    "mvcc_last_commit_ts": float(versions.last_commit_ts),
                    "mvcc_active_snapshots": float(
                        versions.active_snapshots()
                    ),
                    "mvcc_live_versions": float(versions.live_versions()),
                    "mvcc_versions_recorded": float(
                        versions.versions_recorded
                    ),
                    "mvcc_versions_pruned": float(versions.versions_pruned),
                    "mvcc_snapshots_taken": float(versions.snapshots_taken),
                }
            )
            # one pair of series per wait event, dots flattened for the
            # exposition grammar (io.read -> wait_io_read_*)
            for event, count, total_ms, _ in self.waits.rows():
                flat = event.replace(".", "_")
                extras[f"wait_{flat}_count"] = float(count)
                extras[f"wait_{flat}_seconds"] = total_ms / 1000.0
            extras["statement_latency_fingerprints"] = float(
                len(self.latency)
            )
            extras["slow_traces_captured"] = float(self.traces.captured)
            # per-fingerprint latency quantiles as one labeled family;
            # sorted label bodies keep the exposition byte-stable
            labeled = []
            quantiles = self.latency.quantiles()
            if quantiles:
                labeled.append(
                    (
                        "statement_latency_ms",
                        "gauge",
                        [
                            (
                                f'fingerprint="{fp}",quantile="{q}"',
                                value,
                            )
                            for fp, q, value in quantiles
                        ],
                    )
                )
            return self.metrics.render_prometheus(
                extras=extras, labeled=labeled
            )
        if format != "json":
            raise EngineError(f"unknown metrics format {format!r}")
        snap: Dict[str, Any] = self.metrics.snapshot()
        bstats = self.pool.stats
        snap["buffer_pool"] = {
            "hits": bstats.hits,
            "misses": bstats.misses,
            "evictions": bstats.evictions,
            "dirty_writebacks": bstats.dirty_writebacks,
            "hit_rate": bstats.hit_rate,
        }
        dstats = self.disk.stats
        snap["disk"] = {
            "reads": dstats.reads,
            "writes": dstats.writes,
            "seq_reads": dstats.seq_reads,
            "allocations": dstats.allocations,
        }
        snap["query_log_entries"] = len(self.query_log)
        versions = self.txn.versions
        snap["mvcc"] = {
            "last_commit_ts": versions.last_commit_ts,
            "active_snapshots": versions.active_snapshots(),
            "oldest_snapshot_ts": versions.oldest_snapshot_ts(),
            "live_versions": versions.live_versions(),
            "versions_recorded": versions.versions_recorded,
            "versions_pruned": versions.versions_pruned,
            "snapshots_taken": versions.snapshots_taken,
        }
        snap["waits"] = self.waits.as_dict()
        snap["auto_explain"] = {
            "enabled": self.auto_explain.enabled,
            "captured_total": self.auto_explain.captured_total,
            "entries": len(self.auto_explain),
        }
        snap["traces"] = {
            "captured_total": self.traces.captured,
            "entries": len(self.traces.entries()),
            "last_trace_id": (
                self.last_request_trace.trace_id
                if self.last_request_trace is not None
                else None
            ),
        }
        snap["statement_latency"] = self.latency.snapshot()
        return snap

    def _insert(self, stmt: InsertStmt) -> int:
        info = self.catalog.table(stmt.table)
        rows = []
        for value_row in stmt.rows:
            literals: List[Any] = []
            for expr in value_row:
                from ..expr import fold_constants

                folded = fold_constants(expr)
                if not isinstance(folded, Literal):
                    raise EngineError(
                        f"INSERT values must be constants, got {expr}"
                    )
                literals.append(folded.value)
            if stmt.columns is None:
                rows.append(tuple(literals))
            else:
                by_name = dict(zip(stmt.columns, literals))
                full = []
                for column in info.schema:
                    full.append(by_name.pop(column.name, None))
                if by_name:
                    raise EngineError(
                        f"unknown INSERT columns: {sorted(by_name)}"
                    )
                rows.append(tuple(full))
        return self.catalog.insert_rows(stmt.table, rows)

    def _matching_rids(
        self, info: TableInfo, where, span
    ) -> List[Tuple[Any, Any]]:
        """(rid, row) pairs matching a WHERE clause — the victims of an
        UPDATE or DELETE — and names the chosen access path on *span*.

        The access path is the cheapest one the optimizer prices for
        this WHERE (a heap scan, or a B+-tree range/hash probe).  Rows come
        from the live heap, which the statement's X table lock keeps
        still, with no snapshot overlay; the whole WHERE is re-applied to
        every fetched row.  The list is materialised, in rid order, before
        the caller modifies anything: a key-changing update can never meet
        its own output, and heap and index bytes do not depend on the
        path taken.
        """
        if where is None:
            span.set_attr("access", "seq")
            return list(info.heap.scan())
        predicate = compile_predicate(where, info.schema)
        path = self._victim_path(info, split_conjuncts(where))
        if isinstance(path, PSeqScan):
            span.set_attr("access", "seq")
            return [(rid, row) for rid, row in info.heap.scan() if predicate(row)]
        span.set_attr("access", path.index.name)
        fetch = info.heap.fetch
        victims = []
        for rid in sorted(rid for _, rid in index_entries(path)):
            row = fetch(rid)
            if row is not None and predicate(row):
                victims.append((rid, row))
        return victims

    def _victim_path(self, info: TableInfo, conjuncts) -> PhysicalPlan:
        """The cheapest access path for a DML WHERE's conjuncts."""
        get = LogicalGet(info)
        estimator = Estimator(
            StatsResolver(JoinGraph(relations={get.binding: get})),
            self.options.estimator,
        )
        candidates = access_paths(
            info,
            get.binding,
            conjuncts,
            estimator,
            self.model,
            consider_unbounded_index=False,
        )
        return min(candidates, key=lambda c: c.cost.total).plan

    def _delete(self, stmt: DeleteStmt, span) -> int:
        info = self.catalog.table(stmt.table)
        victims = self._matching_rids(info, stmt.where, span)
        for rid, row in victims:
            info.heap.delete(rid)
            for index in info.indexes.values():
                value = self._index_key_of(info, row, index)
                if value is None and index.kind is IndexKind.HASH:
                    continue
                index.structure.delete(value, rid)
        return len(victims)

    @staticmethod
    def _index_key_of(info: TableInfo, row, index) -> Any:
        positions = [info.schema.index_of(c) for c in index.columns]
        if len(positions) == 1:
            return row[positions[0]]
        return tuple(row[p] for p in positions)

    def _update(self, stmt: UpdateStmt, span) -> int:
        from ..expr import compile_expr

        info = self.catalog.table(stmt.table)
        schema = info.schema
        positions = []
        setters = []
        for column, expr in stmt.assignments:
            positions.append(schema.index_of(column))
            setters.append(compile_expr(expr, schema))
        victims = self._matching_rids(info, stmt.where, span)
        for rid, row in victims:
            new_row = list(row)
            for pos, setter in zip(positions, setters):
                new_row[pos] = setter(row)
            new_rid = info.heap.update(rid, tuple(new_row))
            stored = info.heap.fetch(new_rid)
            if info.zones is not None:
                info.zones.widen(new_rid[0], stored)
            for index in info.indexes.values():
                old_value = self._index_key_of(info, row, index)
                new_value = self._index_key_of(info, stored, index)
                if old_value == new_value and new_rid == rid:
                    continue
                if not (old_value is None and index.kind is IndexKind.HASH):
                    index.structure.delete(old_value, rid)
                if not (new_value is None and index.kind is IndexKind.HASH):
                    index.structure.insert(new_value, new_rid)
        return len(victims)

    # -- durability ---------------------------------------------------------------------------

    def checkpoint(self) -> QueryResult:
        """Fuzzy checkpoint: snapshot the page store and trim the WAL
        without quiescing writers.

        No table locks are taken — transactions stay open across the
        checkpoint.  Under the statement lock (so no heap mutation
        interleaves; COMMITs still proceed, they only touch the WAL):

        1. log a ``CHECKPOINT_BEGIN`` record carrying the active-
           transaction table and the dirty-page table (page -> recLSN);
        2. write back every *committed*-dirty page — pages dirtied by an
           active transaction are skipped (no-steal: uncommitted bytes
           never reach disk), so their on-disk snapshot images are stale;
        3. ``redo_lsn`` = the minimum recLSN over pages still dirty — no
           record below it is needed to rebuild any page, every record at
           or above it is replayed idempotently on recovery;
        4. snapshot the page store, stamp ``redo_lsn`` into the meta,
           drop WAL records below ``redo_lsn``, and log ``CHECKPOINT_END``.

        Recovery redoes committed work from ``redo_lsn`` against the
        (partly stale, partly ahead) snapshot images; replay is
        idempotent, so images that already contain a suffix record
        converge instead of corrupting.
        """
        if self.data_dir is None:
            raise EngineError(
                "CHECKPOINT requires a database opened with data_dir"
            )
        writer = self.txn.writer
        with self._stmt_lock:
            att = self.txn.active_txn_ids()
            dpt = self.txn.dirty_page_table()
            payload = json.dumps(
                {
                    "active_txns": att,
                    "dirty_pages": {
                        f"{pid[0]}:{pid[1]}": rec for pid, rec in dpt.items()
                    },
                }
            ).encode("utf-8")
            with trace_span("checkpoint.begin") as sp:
                sp.add("active_txns", float(len(att)))
                action = faults.FAILPOINTS.hit("checkpoint.begin")
                begin_lsn = writer.append(
                    WalRecordType.CHECKPOINT_BEGIN, 0, payload=payload
                )
                writer.flush_to(begin_lsn)
                if action is not None:
                    faults.crash()
            flushed = 0
            with trace_span("checkpoint.flush") as sp:
                for pid in self.pool.dirty_pages():
                    if not self.txn.may_evict(pid):
                        continue  # no-steal: an active txn owns this page
                    action = faults.FAILPOINTS.hit("checkpoint.flush")
                    if self.pool.flush_page(pid):
                        flushed += 1
                    if action is not None:
                        faults.crash()
                writer.flush_all()
                sp.add("pages_flushed", float(flushed))
            last = writer.flushed_lsn
            rec = self.txn.min_rec_lsn()
            redo_lsn = rec if rec is not None else last + 1
            with trace_span("checkpoint.end") as sp:
                sp.add("redo_lsn", float(redo_lsn))
                write_checkpoint(
                    self,
                    self.data_dir,
                    last,
                    self.txn.next_txn_id,
                    redo_lsn=redo_lsn,
                    active_txns=att,
                )
                writer.retain_from(redo_lsn)
                action = faults.FAILPOINTS.hit("checkpoint.end")
                lsn = writer.append(
                    WalRecordType.CHECKPOINT_END,
                    0,
                    payload=json.dumps(
                        {"redo_lsn": redo_lsn, "last_lsn": last}
                    ).encode("utf-8"),
                )
                writer.flush_to(lsn)
                if action is not None:
                    faults.crash()
            if self.obs.metrics:
                self.metrics.counter("checkpoints_total").inc()
                self.metrics.counter("checkpoint_pages_flushed_total").inc(
                    flushed
                )
        return QueryResult(
            rows=[(last, redo_lsn, len(att))],
            columns=["checkpoint_lsn", "redo_lsn", "active_txns"],
        )

    def close(self) -> None:
        """Shut down cleanly: roll back open transactions, checkpoint
        (durable databases reopen from the snapshot with an empty WAL),
        and close the WAL file."""
        if self._closed:
            return
        self._closed = True
        for session in self.sessions():
            if session.txn is not None:
                self.rollback_session_txn(session)
        if self.data_dir is not None and self.txn.writer is not None:
            self.checkpoint()
            self.txn.writer.close()
            self.txn.writer = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience --------------------------------------------------------------------------

    def insert_rows(
        self,
        table: str,
        rows: Sequence[Sequence[Any]],
        session: Optional[Session] = None,
    ) -> int:
        """Bulk insert under the session's transaction (or an implicit
        autocommitted one) — the programmatic twin of INSERT."""
        session = session or self._session
        own = session.txn
        txn = own if own is not None else self.txn.begin(session.id)
        try:
            self.txn.lock_table(txn, table)
            with self.txn.activate(txn), self._stmt_lock:
                count = self.catalog.insert_rows(table, rows)
                key = table.lower()
                txn.pending_epochs[key] = txn.pending_epochs.get(key, 0) + 1
        except BaseException:
            if own is not None:
                session.txn = None
            self._rollback_txn(txn)
            raise
        if own is None:
            self._commit_txn(txn)
        return count

    def analyze(self, table: Optional[str] = None, **kwargs: Any) -> None:
        self._invalidate_caches("ANALYZE")
        txn = self.txn.begin(self._session.id)
        try:
            for name in self._analyze_lock_targets(table):
                self.txn.lock_table(txn, name)
            with self.txn.activate(txn), self._stmt_lock:
                if table is None:
                    self.catalog.analyze_all(**kwargs)
                else:
                    self.catalog.analyze(table, **kwargs)
                sql = f"ANALYZE {table}" if table is not None else "ANALYZE"
                self.txn.log_ddl(json.dumps({"sql": sql}).encode("utf-8"))
        except BaseException:
            self._rollback_txn(txn)
            raise
        self._commit_txn(txn)

    def _analyze_lock_targets(self, table: Optional[str]) -> List[str]:
        if table is None:
            return sorted(info.name for info in self.catalog.tables())
        if self.catalog.has_table(table):
            return [table]
        return []

    def table(self, name: str) -> TableInfo:
        return self.catalog.table(name)

    def reset_io(self) -> None:
        self.disk.reset_stats()
        self.pool.reset_stats()

    def set_strategy(self, strategy: str, **kwargs: Any) -> None:
        """Switch join-order strategy ('dp', 'greedy', 'naive', ...)."""
        self._invalidate_caches("options change")
        self.options = PlannerOptions(strategy=strategy, **kwargs)
