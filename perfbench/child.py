"""The server child: one ``Database`` behind one ``DatabaseServer``.

Run as ``python3 perfbench/child.py --buffer-pages N [--data-dir DIR]
[--cpu C]``.
Opens the database (replaying the WAL when *DIR* holds one), starts the
socket server with the default ``ObsConfig`` and planner, and prints
``READY <port> <open_seconds>``.  It then serves SQL until stdin says
``quit`` or closes; ``stats <table,...>`` prints one JSON line with the
process's peak RSS and the heap and index pages of the named tables.
The load generator ends it with SIGKILL.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def table_pages(db, names):
    heap = index = 0
    for name in names:
        info = db.table(name)
        heap += info.heap.num_pages
        index += sum(ix.structure.num_pages for ix in info.indexes.values())
    return heap, index


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--buffer-pages", type=int, required=True)
    parser.add_argument("--data-dir")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro import Database
    from repro.server import DatabaseServer

    start = time.perf_counter()
    db = Database(buffer_pages=args.buffer_pages, data_dir=args.data_dir)
    open_seconds = time.perf_counter() - start
    server = DatabaseServer(db).start()
    print(f"READY {server.address[1]} {open_seconds!r}", flush=True)
    for line in sys.stdin:
        command, _, rest = line.strip().partition(" ")
        if command == "stats":
            heap, index = table_pages(db, [n for n in rest.split(",") if n])
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(
                json.dumps(
                    {
                        "rss_mb": peak_kb / 1024.0,
                        "page_size": db.disk.page_size,
                        "heap_pages": heap,
                        "index_pages": index,
                    }
                ),
                flush=True,
            )
        elif command == "quit":
            break
    server.stop()
    db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
