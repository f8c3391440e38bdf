"""The row engine never imports numpy.

numpy backs only the columnar engine (``Database(columnar=True)``); the
default row path must run without loading it, because the import alone
costs a server process ≈14 MB of resident memory.  The check runs in a
fresh interpreter so no other test's imports leak into ``sys.modules``.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

ROW_PATH_MIX = textwrap.dedent(
    """
    import sys

    from repro import Database
    from repro.server import Client, DatabaseServer
    from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale

    db = Database()
    db.execute("CREATE TABLE kv (k INT, v INT, note TEXT)")
    db.execute("CREATE INDEX ix_kv_k ON kv (k)")
    db.insert_rows("kv", [(i, i % 7, f"n{i}") for i in range(600)])
    db.execute("ANALYZE")
    db.execute("INSERT INTO kv VALUES (1000, 1, 'x')")
    db.execute("UPDATE kv SET v = v + 1 WHERE k = 10")
    db.execute("UPDATE kv SET k = k + 1 WHERE k BETWEEN 20 AND 30")
    db.execute("DELETE FROM kv WHERE k > 590")
    db.execute("DELETE FROM kv WHERE note = 'n5'")
    db.query("SELECT v, COUNT(*) FROM kv WHERE k < 100 GROUP BY v ORDER BY v")
    db.query("SELECT a.k, b.v FROM kv a, kv b WHERE a.k = b.k AND a.k < 50")

    load_wholesale(db, WholesaleScale.tiny())
    db.execute("ANALYZE")
    for sql in WHOLESALE_QUERIES.values():
        db.query(sql)

    with DatabaseServer(db) as server:
        with Client(*server.address) as client:
            client.execute("UPDATE kv SET v = 0 WHERE k = 11")
            client.execute("SELECT note FROM kv WHERE k = 11")

    loaded = sorted(m for m in sys.modules if m == "numpy" or ".columnar" in m)
    print(",".join(loaded))
    """
)


def test_row_path_does_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", ROW_PATH_MIX],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", proc.stdout
