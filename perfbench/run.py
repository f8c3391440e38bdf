"""The repository benchmark: the engine end to end through ``repro.server``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oltp_point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` measures the end-to-end metrics: a server child process
(``perfbench/child.py``) holds the database, and this process generates
the load over at most two closed-loop connections — each one waits for
its reply before sending the next statement.  ``--trace 1`` replays the
same seeded streams in one process (server thread plus client threads)
with spans recorded around each layer, and reports the per-layer
metrics.  The last line of standard output is the result as JSON.
Workloads, metrics and the defects they expose are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch data directories and the exported span trace
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = 3
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than
    ``TAIL_SAMPLES`` samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < TAIL_SAMPLES - 1e-9:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


# -- driving connections ------------------------------------------------------------


class ConnResult:
    """What one connection saw: ``(op, start, end)`` per measured
    operation, completion counts per kind, and failures."""

    def __init__(self) -> None:
        self.samples: List[Tuple[Any, float, float]] = []
        self.completed: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: List[str] = []
        self.lost = False


def run_ops(
    client,
    stream,
    res: ConnResult,
    count: Optional[int] = None,
    deadline: Optional[float] = None,
    measured: bool = True,
) -> None:
    """Run *stream*'s operations on *client*, each after the previous
    reply (closed loop), checking every answer, until *count* are done
    or *deadline* has passed at an operation boundary."""
    from repro.server import ServerError

    done = 0
    while not res.lost and (count is None or done < count):
        op = next(stream)
        if deadline is not None and op.boundary and time.perf_counter() >= deadline:
            return
        done += 1
        res.attempted += 1
        start = time.perf_counter()
        try:
            replies = [client.execute(sql).rows for sql in op.statements]
        except ServerError as exc:
            res.failed += 1
            res.errors.append(f"{op.statements}: {exc.error_type}: {exc}")
            if op.statements[0] == "BEGIN":
                client.execute("ROLLBACK")
            continue
        except (OSError, ConnectionError) as exc:
            res.failed += 1
            res.errors.append(f"connection lost: {exc!r}")
            res.lost = True
            return
        end = time.perf_counter()
        error = op.check(replies)
        if error is not None:
            res.wrong += 1
            res.errors.append(error)
            continue
        if op.on_success is not None:
            op.on_success()
        res.completed[op.kind] = res.completed.get(op.kind, 0) + 1
        if measured:
            res.samples.append((op, start, end))


def in_threads(
    n: int,
    target: Callable[[int, threading.Barrier], None],
    at_barrier: Callable[[], None],
) -> None:
    """Run ``target(c, barrier)`` for ``c < n``, one thread each, and
    re-raise the first exception any of them raised.  *at_barrier* runs
    once all *n* have reached the barrier, before any passes it."""
    barrier = threading.Barrier(n, action=at_barrier)
    raised: List[BaseException] = []

    def body(c: int) -> None:
        try:
            target(c, barrier)
        except BaseException as exc:  # re-raised below
            raised.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=body, args=(c,), name=f"perfbench-conn{c}") for c in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if raised:
        raise raised[0]


def drive(workload, clients, seconds: float) -> Tuple[List[ConnResult], float, float]:
    """Every connection runs its warm-up, then all start a measured
    window of *seconds* together.  Returns the results and the window's
    start and end."""
    results = [ConnResult() for _ in clients]
    window: Dict[str, float] = {}

    def connection(c: int, barrier: threading.Barrier) -> None:
        stream = workload.stream(c)
        run_ops(clients[c], stream, results[c], count=workload.warmup_ops, measured=False)
        barrier.wait()
        run_ops(clients[c], stream, results[c], deadline=window["start"] + seconds)

    def open_window() -> None:
        window["start"] = time.perf_counter()

    in_threads(len(clients), connection, open_window)
    end = max((e for r in results for _, _, e in r.samples), default=window["start"])
    return results, window["start"], end


def load(client, workload) -> None:
    """Create, fill and ANALYZE the workload's tables through *client*."""
    from repro.server import ServerError

    for sql in workload.setup_sql():
        try:
            client.execute(sql)
        except ServerError as exc:
            if exc.error_type == "BufferError_":
                raise RuntimeError(
                    "loading hit BufferError_: a committed INSERT batch no "
                    "longer fits the buffer pool (see NOTES.md)"
                ) from exc
            raise


def completed(results: List[ConnResult]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for res in results:
        for kind, n in res.completed.items():
            out[kind] = out.get(kind, 0) + n
    return out


# -- end-to-end run -------------------------------------------------------------------


class Child:
    """The server child process and its control pipe."""

    def __init__(self, workload, data_dir: Optional[str], cpu: Optional[int]):
        cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--buffer-pages",
            str(workload.buffer_pages),
        ]
        if data_dir is not None:
            cmd += ["--data-dir", data_dir]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        line = self.proc.stdout.readline().split()
        if not line or line[0] != "READY":
            self.kill()
            raise RuntimeError("server child did not start")
        self.port = int(line[1])
        self.open_seconds = float(line[2])

    def client(self):
        from repro.server import Client

        return Client("127.0.0.1", self.port)

    def command(self, line: str) -> Dict[str, Any]:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def run_e2e(workload, seconds: float, work: str) -> Dict[str, Any]:
    # The server child gets the first CPU to itself and the generator the
    # rest, so the two never queue for one core; runs measured this way
    # spread about half as much as unpinned ones on a 2-CPU VM.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[0] if len(cpus) >= 2 else None
    if server_cpu is not None:
        os.sched_setaffinity(0, cpus[1:])
    children: List[Child] = []
    try:
        setups = []
        for i in range(SETUPS):
            data_dir = os.path.join(work, f"db{i}") if workload.durable else None
            start = time.perf_counter()
            child = Child(workload, data_dir, server_cpu)
            children.append(child)
            with child.client() as client:
                load(client, workload)
            setups.append(time.perf_counter() - start)
            if i < SETUPS - 1:
                child.kill()
        child = children[-1]
        clients = [child.client() for _ in range(workload.connections)]
        try:
            results, start, end = drive(workload, clients, seconds)
        finally:
            for client in clients:
                client.close()
        done = completed(results)
        errors = [e for r in results for e in r.errors]
        with child.client() as client:
            errors += workload.final_checks(client, done)
        stats = child.command("stats " + ",".join(workload.tables))
        recovery_s = None
        if workload.recovers:
            # durability: SIGKILL, reopen the data directory, and find
            # every acknowledged transfer (the OS page cache survives a
            # kill, so this checks commit recovery, not the device)
            child.kill()
            recovered = Child(workload, os.path.join(work, f"db{SETUPS - 1}"), server_cpu)
            children.append(recovered)
            recovery_s = recovered.open_seconds
            with recovered.client() as client:
                errors += [f"after recovery: {e}" for e in workload.final_checks(client, done)]
    finally:
        for child in children:
            child.kill()
        os.sched_setaffinity(0, cpus)

    samples = [s for r in results for s in r.samples]
    reads = [(e - s) * 1e6 for op, s, e in samples if op.kind == "read"]
    writes = [(e - s) * 1e6 for op, s, e in samples if op.kind == "write"]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed + r.wrong for r in results)
    live = workload.live_user_bytes(done)
    stored = (stats["heap_pages"] + stats["index_pages"]) * stats["page_size"]
    report: Dict[str, Dict[str, Any]] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "runs": setups},
        "ops_per_s": {
            "value": len(samples) / (end - start),
            "unit": "1/s",
            "count": len(samples),
            "seconds": end - start,
            "connections": workload.connections,
        },
    }
    for name, values in (("read", reads), ("write", writes)):
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            value = percentile(values, q)
            if value is not None:
                report[f"{name}_{label}_us"] = {"value": value, "unit": "us", "count": len(values)}
    labels = sorted({op.label for op, _, _ in samples if op.label})
    for label in labels:
        values = [(e - s) * 1e6 for op, s, e in samples if op.label == label]
        report[f"{label}_p50_us"] = {
            "value": statistics.median(values),
            "unit": "us",
            "count": len(values),
        }
    report["error_rate"] = {"value": failed / attempted, "unit": "ratio", "count": attempted}
    report["server_rss_mb"] = {"value": stats["rss_mb"], "unit": "MB"}
    report["space_amp"] = {
        "value": stored / live,
        "unit": "ratio",
        "stored_bytes": stored,
        "live_user_bytes": live,
    }
    if recovery_s is not None:
        report["recovery_s"] = {"value": recovery_s, "unit": "s"}
    return {
        "report": report,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }


# -- traced run ------------------------------------------------------------------------


class Replay:
    """One in-process database and server with the workload's clients
    and streams, replayed a chunk at a time."""

    def __init__(self, workload_cls, seed: int, data_dir: Optional[str], obs):
        from repro import Database
        from repro.server import Client, DatabaseServer

        self.workload = workload_cls(seed)
        self.workload.precompute()
        self.db = Database(
            buffer_pages=self.workload.buffer_pages,
            data_dir=data_dir if self.workload.durable else None,
            obs=obs,
        )
        self.server = DatabaseServer(self.db).start()
        self.clients: List[Any] = []
        n = self.workload.connections
        try:
            with Client(*self.server.address) as client:
                load(client, self.workload)
            for _ in range(n):
                self.clients.append(Client(*self.server.address))
        except BaseException:
            self.close()
            raise
        self.streams = [self.workload.stream(c) for c in range(n)]
        self.results = [ConnResult() for _ in range(n)]
        self.wall = 0.0

    def run(self, count: int, measured: bool = True) -> None:
        """*count* operations per connection, all connections at once."""
        window: Dict[str, float] = {}

        def connection(c: int, barrier: threading.Barrier) -> None:
            barrier.wait()
            run_ops(self.clients[c], self.streams[c], self.results[c], count, measured=measured)

        def start() -> None:
            window["start"] = time.perf_counter()

        in_threads(len(self.clients), connection, start)
        if measured:
            self.wall += time.perf_counter() - window["start"]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()
        self.db.close()


def run_traced(workload_cls, seed: int, seconds: float, work: str) -> Dict[str, Any]:
    """Replay the same streams on three fresh in-process databases:
    default observability untraced (``plain``), the same with layer
    spans (``traced``), and ``ObsConfig.off()`` (``off``).  The replays
    alternate in chunks, the order rotating, so drift in machine speed
    falls on all three alike; each runs ``trace_ops`` operations per
    connection, or fewer chunks if ``3 × seconds`` run out."""
    from repro import ObsConfig

    from layers import SpanRecorder, counters, instrument, layer_metrics

    variants = ("plain", "traced", "off")
    replays: Dict[str, Replay] = {}
    recorder = SpanRecorder()
    try:
        for variant in variants:
            replays[variant] = Replay(
                workload_cls,
                seed,
                os.path.join(work, variant),
                ObsConfig.off() if variant == "off" else None,
            )
        for replay in replays.values():
            replay.run(replay.workload.warmup_ops, measured=False)
        traced = replays["traced"]
        workload = traced.workload
        chunk = workload.trace_ops // workload.trace_chunks
        started = time.perf_counter()
        try:
            before = instrument(recorder, traced.db, traced.clients)
            for k in range(workload.trace_chunks):
                for variant in variants[k % 3 :] + variants[: k % 3]:
                    replays[variant].run(chunk)
                if time.perf_counter() - started > 3 * seconds:
                    break
        finally:
            after = counters(traced.db)
            recorder.restore()
    finally:
        for replay in replays.values():
            replay.close()
    results = [r for replay in replays.values() for r in replay.results]
    walls = {variant: replay.wall for variant, replay in replays.items()}
    ops = [s for r in traced.results for s in r.samples]
    metrics = layer_metrics(recorder, before, after, ops, walls)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace_{workload_cls.name}.json")
    spans = recorder.export(path)
    return {
        "report": metrics,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed + r.wrong for r in results),
        "errors": [e for r in results for e in r.errors],
        "trace_file": os.path.relpath(path, ROOT),
        "spans": spans,
        "walls_s": walls,
        "ops_per_connection": len(ops) // workload.connections,
    }


# -- output -------------------------------------------------------------------------


def declared_metrics(trace: bool) -> List[Dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def print_report(name: str, seed: int, digest: str, outcome: Dict[str, Any]) -> None:
    print(f"perfbench {name} seed={seed} stream_digest={digest}")
    for metric, entry in outcome["report"].items():
        extras = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in entry.items()
            if k not in ("value", "unit")
        )
        print(f"  {metric:30s} {entry['value']:14.6g} {entry['unit']:6s} {extras}")
    for error in outcome["errors"][:10]:
        print(f"  ERROR {error}")
    detail = {k: v for k, v in outcome.items() if k != "errors"}
    print(json.dumps({"workload": name, "seed": seed, "stream_digest": digest, **detail}))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> bool:
    from workloads import WORKLOADS, stream_digest

    cls = WORKLOADS[name]
    digest = stream_digest(cls(seed))
    work = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            outcome = run_traced(cls, seed, seconds, work)
        else:
            workload = cls(seed)
            workload.precompute()
            outcome = run_e2e(workload, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run's data is still there
    print_report(name, seed, digest, outcome)
    metrics = {}
    missing = []
    for spec in declared_metrics(trace):
        entry = outcome["report"].get(spec["name"])
        if entry is None:
            missing.append(spec["name"])
            continue
        metrics[spec["name"]] = {"value": entry["value"], "unit": spec["unit"]}
    correct = not outcome["errors"] and outcome["failed"] == 0 and not missing
    if missing:
        print(f"  ERROR no value for {missing}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return correct


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no repro package under src/ to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all")
    ok = True
    for name in names:
        ok = run_one(name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
