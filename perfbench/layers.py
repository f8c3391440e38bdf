"""Span recording around each layer's public calls, and the per-layer
metrics computed from the spans and the engine's public counters.

Nothing under ``src/`` is changed: :class:`SpanRecorder` replaces public
methods on the *live* objects of one in-process database (and the
``parse`` name the engine resolves) with wrappers that record a span —
name, start, end, parent, request id — and restores them afterwards.
Spans stay in per-thread lists until :meth:`SpanRecorder.export` writes
them out once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.engine.database as engine_database
from repro.index.bptree import BPlusTree
from repro.wal.records import WalRecord, encode_record

NAME, START, END, PARENT, REQ, EXTRA = range(6)


class _ThreadSpans:
    def __init__(self, tid: int):
        self.tid = tid
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.req: Optional[str] = None


class SpanRecorder:
    """Per-thread span lists; a span's parent is the innermost open span
    of the same thread, and a request id links a client's span to the
    server thread's spans for the same statement."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._guard = threading.Lock()
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        self._next_req = 0
        self._calls = itertools.count()

    def _state(self) -> _ThreadSpans:
        st = getattr(self._tls, "st", None)
        if st is None:
            with self._guard:
                st = _ThreadSpans(len(self._threads))
                self._threads.append(st)
            self._tls.st = st
        return st

    def new_request_id(self) -> str:
        with self._guard:
            self._next_req += 1
            return f"bench-{self._next_req}"

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Callable[[Any, tuple, dict], Any]] = None,
        request: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        nested_only: bool = False,
    ) -> None:
        """Record a span around every call of ``obj.attr``.

        *before* runs ahead of the clock and its value is handed to
        *after*, whose result becomes the span's extra field; *request*
        extracts a request id that this span and its children carry.
        With *nested_only*, calls outside any recorded span pass straight
        through (for names shared by every database in the process).
        """
        original = getattr(obj, attr)
        in_dict = isinstance(obj, types.ModuleType) or attr in vars(obj)
        self._undo.append((obj, attr, in_dict, original))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = self._state()
            if nested_only and not st.stack:
                return original(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            outer_req = st.req
            if request is not None:
                st.req = request(args, kwargs) or outer_req
            span = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, st.req, None]
            st.stack.append(len(st.spans))
            st.spans.append(span)
            span[START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = clock()
                st.stack.pop()
                st.req = outer_req
                if after is not None:
                    span[EXTRA] = after(token, args, kwargs)

        setattr(obj, attr, wrapper)

    def wrap_iter(self, obj: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a method returning an iterator that the
        caller interleaves with other work: one span per resumption of
        the iterator, all tagged with the call's sequence number (unique
        across every wrapped iterator)."""
        original = getattr(obj, attr)
        self._undo.append((obj, attr, attr in vars(obj), original))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            call = next(self._calls)

            def resumed():
                while True:
                    st = self._state()
                    span = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1, st.req, call]
                    st.stack.append(len(st.spans))
                    st.spans.append(span)
                    span[START] = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[END] = clock()
                        st.stack.pop()
                    yield item

            return resumed()

        setattr(obj, attr, wrapper)

    def restore(self) -> None:
        for obj, attr, in_dict, original in reversed(self._undo):
            if in_dict:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._undo.clear()

    def threads(self) -> List[_ThreadSpans]:
        return list(self._threads)

    def export(self, path: str) -> int:
        """Write every span as Chrome trace-event JSON; returns the count."""
        t0 = min(
            (st.spans[0][START] for st in self._threads if st.spans), default=0.0
        )
        events = []
        for st in self._threads:
            for span in st.spans:
                events.append(
                    {
                        "name": span[NAME],
                        "ph": "X",
                        "ts": round((span[START] - t0) * 1e6, 3),
                        "dur": round((span[END] - span[START]) * 1e6, 3),
                        "pid": 1,
                        "tid": st.tid,
                        "args": {"req": span[REQ], "extra": span[EXTRA]},
                    }
                )
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f, separators=(",", ":"))
        return len(events)


def _statement_kind(sql: str) -> str:
    return sql.lstrip().split(None, 1)[0].upper() if sql.strip() else ""


def instrument(recorder: SpanRecorder, db, clients) -> Dict[str, Any]:
    """Wrap the layers of *db* and the benchmark's *clients*; returns the
    counter baselines the per-layer metrics are deltas against."""
    wrap = recorder.wrap

    for client in clients:
        wrap(
            client,
            "execute",
            "client.execute",
            before=lambda a, k: _statement_kind(a[0]),
            after=lambda kind, a, k: kind,
            request=lambda a, k: k.setdefault("trace_id", recorder.new_request_id()),
        )
    for session in db.sessions():
        wrap(
            session,
            "execute",
            "session.execute",
            before=lambda a, k: _statement_kind(a[0]),
            after=lambda kind, a, k: kind,
            request=lambda a, k: getattr(k.get("tracer"), "trace_id", None),
        )
    wrap(engine_database, "parse", "sql.parse", nested_only=True)
    wrap(db, "plan_select", "optimizer.plan")
    wrap(db, "run_plan", "executor.run")
    wrap(db, "checkpoint", "checkpoint")
    wrap(db.pool, "fix", "buffer.fix")
    wrap(db.plan_cache, "lookup", "plancache.lookup")
    wrap(db.txn, "lock_table", "lock.acquire")
    wrap(
        db.txn,
        "commit",
        "txn.commit",
        before=lambda a, k: db.txn.versions.live_versions(),
        after=lambda live, a, k: live,
    )
    wrap(db.txn.versions, "raw_overlay", "mvcc.overlay")
    for info in db.catalog.tables():
        for index in info.indexes.values():
            if isinstance(index.structure, BPlusTree):
                recorder.wrap_iter(index.structure, "range_scan", "index.scan")
                wrap(index.structure, "search", "index.search")
                wrap(index.structure, "insert", "index.insert")
    writer = db.txn.writer
    if writer is not None:

        def record_bytes(_token, args, kwargs):
            # the frame append() writes for these fields (the LSN is fixed-width)
            return len(encode_record(WalRecord(0, *args, **kwargs)))

        wrap(writer, "append", "wal.append", after=record_bytes)
        wrap(
            writer,
            "flush_to",
            "wal.flush_to",
            before=lambda a, k: writer.fsyncs,
            after=lambda fsyncs, a, k: writer.fsyncs - fsyncs,
        )
    return counters(db)


def counters(db) -> Dict[str, Any]:
    locks = db.txn.lock_rows()
    return {
        "buffer": db.pool.stats.snapshot(),
        "disk_reads": db.disk.stats.reads,
        "plan_cache": (db.plan_cache.stats.hits, db.plan_cache.stats.misses),
        "fsyncs": db.txn.writer.fsyncs if db.txn.writer is not None else 0,
        "lock_acquisitions": sum(r["acquisitions"] for r in locks),
        "lock_contended": sum(r["contended"] for r in locks),
    }


def _median_us(values: List[float]) -> Tuple[float, int]:
    if not values:
        return 0.0, 0
    return statistics.median(values) * 1e6, len(values)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    before: Dict[str, Any],
    after: Dict[str, Any],
    ops: List[Tuple[Any, float, float]],
    walls: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics: each a median with its sample count, or a
    ratio with its base.  *before*/*after* are :func:`counters` around
    the traced replay, *ops* holds ``(op, start, end)`` for each of its
    operations, and *walls* the replay wall times per variant."""
    by_name: Dict[str, List[list]] = {}
    child_sum: Dict[Tuple[int, int], float] = {}
    roots: Dict[Tuple[int, int], Dict[str, Any]] = {}
    client_by_req: Dict[str, float] = {}
    session_by_req: Dict[str, float] = {}
    for st in recorder.threads():
        spans = st.spans
        for i, span in enumerate(spans):
            by_name.setdefault(span[NAME], []).append(span)
            duration = span[END] - span[START]
            if span[PARENT] >= 0:
                key = (st.tid, span[PARENT])
                child_sum[key] = child_sum.get(key, 0.0) + duration
            if span[NAME] == "client.execute":
                client_by_req[span[REQ]] = duration
            elif span[NAME] == "session.execute":
                session_by_req[span[REQ]] = duration
                roots[(st.tid, i)] = {"kind": span[EXTRA], "fixes": 0}
        # attribute each page fix to the statement that caused it
        for span in spans:
            if span[NAME] != "buffer.fix":
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != "session.execute":
                parent = spans[parent][PARENT]
            if parent >= 0:
                roots[(st.tid, parent)]["fixes"] += 1

    def durations(name: str, keep=lambda span: True) -> List[float]:
        return [s[END] - s[START] for s in by_name.get(name, []) if keep(s)]

    out: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str, **base: Any) -> None:
        out[name] = {"value": value, "unit": unit, **base}

    def put_median(name: str, values: List[float], scale: float = 1.0, unit: str = "us"):
        value, count = _median_us(values)
        put(name, value * scale, unit, count=count)

    roundtrips = [
        client_by_req[r] - session_by_req[r] for r in client_by_req if r in session_by_req
    ]
    put_median("server.roundtrip_us", roundtrips)
    put_median("sql.parse_us", durations("sql.parse"))
    put_median("optimizer.plan_us", durations("optimizer.plan"))
    hits = after["plan_cache"][0] - before["plan_cache"][0]
    lookups = hits + after["plan_cache"][1] - before["plan_cache"][1]
    put("engine.plan_cache_hit_ratio", _ratio(hits, lookups), "ratio", base=lookups)
    # a probe is one search() (which scans inside it) or one range scan
    # summed over its resumptions
    probes: Dict[int, float] = {}
    for st in recorder.threads():
        for span in st.spans:
            if span[NAME] == "index.scan" and (
                span[PARENT] < 0 or st.spans[span[PARENT]][NAME] != "index.search"
            ):
                probes[span[EXTRA]] = probes.get(span[EXTRA], 0.0) + span[END] - span[START]
    put_median("index.probe_us", list(probes.values()) + durations("index.search"))
    session_spans = [
        (key, s)
        for st in recorder.threads()
        for key, s in (((st.tid, i), s) for i, s in enumerate(st.spans))
        if s[NAME] == "session.execute"
    ]
    unaccounted = [
        (s[END] - s[START]) - child_sum.get(key, 0.0) for key, s in session_spans
    ]
    put_median("engine.unaccounted_us", unaccounted)
    put(
        "obs.overhead_pct",
        100.0 * _ratio(walls["plain"] - walls["off"], walls["off"]),
        "%",
        base=walls["off"],
    )
    put_median("executor.run_us", durations("executor.run"))
    buf0, buf1 = before["buffer"], after["buffer"]
    fix_hits = buf1.hits - buf0.hits
    fixes = fix_hits + buf1.misses - buf0.misses
    nops = len(ops)
    put("storage.buffer_hit_ratio", _ratio(fix_hits, fixes), "ratio", base=fixes)
    put(
        "storage.disk_reads_per_op",
        _ratio(after["disk_reads"] - before["disk_reads"], nops),
        "count",
        base=nops,
    )
    put(
        "storage.evictions_per_op",
        _ratio(buf1.evictions - buf0.evictions, nops),
        "count",
        base=nops,
    )
    put_median("wal.append_us", durations("wal.append"))
    put_median("wal.fsync_us", durations("wal.flush_to", lambda s: s[EXTRA]))
    commits = len(by_name.get("txn.commit", []))
    put(
        "wal.fsyncs_per_commit",
        _ratio(after["fsyncs"] - before["fsyncs"], commits),
        "count",
        base=commits,
    )
    user_bytes = sum(op.user_bytes for op, _, _ in ops)
    wal_bytes = sum(s[EXTRA] for s in by_name.get("wal.append", []))
    put("wal.bytes_per_user_byte", _ratio(wal_bytes, user_bytes), "ratio", base=user_bytes)
    rows_changed = sum(op.rows_changed for op, _, _ in ops)
    dml_fixes = sum(
        r["fixes"] for r in roots.values() if r["kind"] in ("INSERT", "UPDATE", "DELETE")
    )
    put(
        "engine.pages_per_row_changed",
        _ratio(dml_fixes, rows_changed),
        "count",
        base=rows_changed,
    )
    put_median("index.insert_us", durations("index.insert"))
    put(
        "lock.wait_us_per_txn",
        _ratio(sum(durations("lock.acquire")), commits) * 1e6,
        "us",
        base=commits,
    )
    acquisitions = after["lock_acquisitions"] - before["lock_acquisitions"]
    put(
        "lock.contended_ratio",
        _ratio(after["lock_contended"] - before["lock_contended"], acquisitions),
        "ratio",
        base=acquisitions,
    )
    put_median("checkpoint.duration_ms", durations("checkpoint"), scale=1e-3, unit="ms")
    windows = [(s[START], s[END]) for s in by_name.get("checkpoint", [])]
    stalls = [
        end - start
        for op, start, end in ops
        if op.kind == "write" and any(start < w1 and end > w0 for w0, w1 in windows)
    ]
    put("checkpoint.stall_us", max(stalls, default=0.0) * 1e6, "us", count=len(stalls))
    put_median("mvcc.overlay_us", durations("mvcc.overlay"))
    samples = [s[EXTRA] for s in by_name.get("txn.commit", [])]
    put("mvcc.live_versions_max", float(max(samples, default=0)), "count", count=len(samples))
    put(
        "trace.overhead_pct",
        100.0 * _ratio(walls["traced"] - walls["plain"], walls["plain"]),
        "%",
        base=walls["plain"],
    )
    executed = sum(s[END] - s[START] for _, s in session_spans)
    covered = sum(child_sum.get(key, 0.0) for key, _ in session_spans)
    put("trace.coverage_pct", 100.0 * _ratio(covered, executed), "%", base=executed)
    return out
