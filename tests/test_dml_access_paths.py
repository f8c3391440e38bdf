"""UPDATE/DELETE victim lookup through access-path selection.

DML finds its victims by whichever access path the cost model prices
cheapest — a heap scan, a B+-tree range (including a composite prefix) or
a hash probe.  Whatever the path, the statement must do exactly what the
heap-scan path does.  The differential test runs seeded random scripts on
an indexed table and on an unindexed twin holding identical data, checks
every statement's outcome against a plain-Python model built on
``repro.qa.reference``, and requires the two heaps to stay byte-identical.
"""

import random
from collections import Counter

import pytest

from repro import Database
from repro.catalog import IndexKind
from repro.qa import Reference, approx_rows

COLUMNS = ("id", "k", "a", "b", "h", "v", "note")
SCHEMA = (
    "CREATE TABLE t (id INT, k INT, a INT, b INT, h INT, v INT, note TEXT)"
)
INDEXES = (
    "CREATE INDEX ix_k ON t (k)",
    "CREATE INDEX ix_ab ON t (a, b)",
    "CREATE INDEX ix_h ON t (h) USING hash",
)
NUM_ROWS = 800


def _cmp(value, op, const):
    """SQL comparison under 3VL, reduced to "does the row qualify"."""
    if value is None:
        return False
    return {
        "=": value == const,
        "<": value < const,
        "<=": value <= const,
        ">": value > const,
        ">=": value >= const,
    }[op]


def _row(rng, ident, note):
    return {
        "id": ident,
        "k": None if rng.random() < 0.05 else rng.randrange(400),
        "a": rng.randrange(20),
        "b": rng.randrange(50),
        "h": None if rng.random() < 0.05 else rng.randrange(100),
        "v": rng.randrange(1000),
        "note": note,
    }


def _where(rng, hot_k):
    """A random WHERE clause: (sql, python predicate over a row dict)."""
    c = hot_k if hot_k is not None and rng.random() < 0.5 else rng.randrange(400)
    lo = rng.randrange(400)
    hi = lo + rng.randrange(1, 12)
    x, y = rng.randrange(20), rng.randrange(50)
    hv = rng.randrange(100)
    z = rng.randrange(1000)
    choices = [
        (f"k = {c}", lambda r: _cmp(r["k"], "=", c)),
        (
            f"k > {lo} AND k < {hi}",
            lambda r: _cmp(r["k"], ">", lo) and _cmp(r["k"], "<", hi),
        ),
        (
            f"k BETWEEN {lo} AND {hi}",
            lambda r: _cmp(r["k"], ">=", lo) and _cmp(r["k"], "<=", hi),
        ),
        (f"k >= {390 + lo % 10}", lambda r: _cmp(r["k"], ">=", 390 + lo % 10)),
        (f"{c} >= k AND k > {c - 4}",
         lambda r: _cmp(r["k"], "<=", c) and _cmp(r["k"], ">", c - 4)),
        (
            f"a = {x} AND b <= {y}",
            lambda r: _cmp(r["a"], "=", x) and _cmp(r["b"], "<=", y),
        ),
        (
            f"a = {x} AND b = {y}",
            lambda r: _cmp(r["a"], "=", x) and _cmp(r["b"], "=", y),
        ),
        (f"a = {x}", lambda r: _cmp(r["a"], "=", x)),
        (f"h = {hv}", lambda r: _cmp(r["h"], "=", hv)),
        (f"h = {hv}.0", lambda r: _cmp(r["h"], "=", hv)),
        ("k = NULL", lambda r: False),
        (f"k = {c}.0", lambda r: _cmp(r["k"], "=", c)),
        (f"k = {c}.5", lambda r: False),
        (f"k < {lo}.5 AND k > {lo - 3}",
         lambda r: _cmp(r["k"], "<", lo + 0.5) and _cmp(r["k"], ">", lo - 3)),
        (
            f"k = {c} AND v > {z}",
            lambda r: _cmp(r["k"], "=", c) and _cmp(r["v"], ">", z),
        ),
        (
            f"k < {lo % 40} OR h = {hv}",
            lambda r: _cmp(r["k"], "<", lo % 40) or _cmp(r["h"], "=", hv),
        ),
        ("k = 'x'", None),  # type mismatch: both paths must raise alike
        ("h = 'x'", None),
    ]
    return rng.choice(choices)


def _setter(rng):
    """A random SET clause: (sql, python update of a row dict)."""
    d = rng.choice((1, 3, 50))

    def bump(column, by):
        def apply(r):
            if r[column] is not None:
                r[column] = r[column] + by

        return apply

    def note(r):
        r["note"] = "upd"

    def grow(r):
        r["note"] = "a note long enough to move the row"

    return rng.choice(
        [
            ("v = v + 1", bump("v", 1)),
            (f"k = k + {d}", bump("k", d)),  # key change: Halloween bait
            ("b = b + 1", bump("b", 1)),
            ("h = h + 7", bump("h", 7)),
            ("note = 'upd'", note),
            # growth relocates rows, so victim order shows in the heap bytes
            ("note = 'a note long enough to move the row'", grow),
        ]
    )


class Twins:
    """The indexed table, its unindexed twin, and the reference model."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        rows = [_row(self.rng, i, "seed") for i in range(NUM_ROWS)]
        self.ix = Database(buffer_pages=128)
        self.plain = Database(buffer_pages=128)
        for db in (self.ix, self.plain):
            db.execute(SCHEMA)
            db.insert_rows("t", [tuple(r[c] for c in COLUMNS) for r in rows])
        for sql in INDEXES:
            self.ix.execute(sql)
        for db in (self.ix, self.plain):
            db.execute("ANALYZE")
        self.ref = Reference({"t": rows})
        self.next_id = NUM_ROWS
        self.hot_k = None  # key of a row inserted in the open transaction

    @property
    def rows(self):
        return self.ref.tables["t"]

    def run(self, sql, apply):
        """Run *sql* on both databases; *apply* mutates the reference and
        returns the expected result rows (``None``: must raise)."""
        outcomes = []
        for db in (self.ix, self.plain):
            try:
                outcomes.append(("ok", db.execute(sql).rows))
            except Exception as exc:  # compared across the twins below
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
        assert outcomes[0] == outcomes[1], sql
        expected = apply()
        if expected is None:
            assert outcomes[0][0] == "error", sql
        else:
            assert outcomes[0] == ("ok", expected), sql
        return outcomes[0][0] == "ok"

    def dml(self):
        where_sql, pred = _where(self.rng, self.hot_k)
        if self.rng.random() < 0.4:
            sql = f"DELETE FROM t WHERE {where_sql}"

            def apply():
                if pred is None:
                    return None
                keep = [r for r in self.rows if not pred(r)]
                count = len(self.rows) - len(keep)
                self.rows[:] = keep
                return [(count,)]
        else:
            set_sql, update = _setter(self.rng)
            sql = f"UPDATE t SET {set_sql} WHERE {where_sql}"

            def apply():
                if pred is None:
                    return None
                victims = [r for r in self.rows if pred(r)]
                for r in victims:
                    update(r)
                return [(len(victims),)]

        return self.run(sql, apply)

    def insert(self):
        row = _row(self.rng, self.next_id, "ins")
        self.next_id += 1
        self.hot_k = row["k"]
        values = ", ".join("NULL" if row[c] is None else repr(row[c]) for c in COLUMNS)

        def apply():
            self.rows.append(row)
            return []

        self.run(f"INSERT INTO t VALUES ({values})", apply)

    def transaction(self):
        self.run("BEGIN", lambda: [])
        saved = [dict(r) for r in self.rows]
        failed = False
        for _ in range(self.rng.randrange(2, 6)):
            if self.rng.random() < 0.35:
                self.insert()
            elif not self.dml():
                failed = True  # a failed statement aborts the transaction
                self.rows[:] = saved
                break
        end = "COMMIT" if not failed and self.rng.random() < 0.6 else "ROLLBACK"
        if end == "ROLLBACK":
            self.rows[:] = saved
        self.run(end, lambda: [])
        self.hot_k = None

    def check(self):
        """Outside any transaction: same rows as the model, same heap bytes."""
        got = self.ix.query("SELECT * FROM t").rows
        assert got == self.plain.query("SELECT * FROM t").rows
        want = [tuple(r.values()) for r in self.ref.join([("t", "t")])]
        assert approx_rows(got) == approx_rows(want)
        heaps = [db.table("t").heap for db in (self.ix, self.plain)]
        assert heaps[0].num_pages == heaps[1].num_pages
        for page_no in range(heaps[0].num_pages):
            assert heaps[0].page_bytes(page_no) == heaps[1].page_bytes(page_no)

    def check_indexes(self):
        """Every index holds exactly one entry per live heap row."""
        info = self.ix.table("t")
        heap_rows = list(info.heap.scan())
        for index in info.indexes.values():
            positions = [info.schema.index_of(c) for c in index.columns]
            want = Counter()
            for rid, row in heap_rows:
                key = tuple(row[p] for p in positions)
                key = key[0] if len(key) == 1 else key
                if key is None and index.kind is IndexKind.HASH:
                    continue
                want[(key, rid)] += 1
            assert Counter(index.structure.items()) == want, index.name
            if index.kind is IndexKind.BTREE:
                index.structure.validate()


@pytest.mark.parametrize("seed", range(8))
def test_dml_paths_match_heap_scan(seed):
    twins = Twins(seed)
    for _ in range(30):
        if twins.rng.random() < 0.3:
            twins.transaction()
        else:
            twins.dml()
        twins.check()
    twins.check_indexes()
    # the indexed twin found victims through its indexes; the plain one never
    assert twins.ix.table("t").access.index_scans > 0
    assert twins.plain.table("t").access.index_scans == 0


def _indexed_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.insert_rows("t", [(i, i) for i in range(rows)])
    db.execute("CREATE INDEX ix_k ON t (k)")
    db.execute("ANALYZE")
    return db


def test_key_changing_update_moves_each_row_once():
    # each new key lands ahead of the index range scan that found it
    db = _indexed_db(2000)
    assert db.execute("UPDATE t SET k = k + 1 WHERE k > 1980").rows == [(19,)]
    assert db.last_request_trace.root.find("execute").attrs["access"] == "ix_k"
    got = db.query("SELECT k, v FROM t ORDER BY v").rows
    assert got == [(i if i <= 1980 else i + 1, i) for i in range(2000)]


def test_access_path_is_traced_and_counted():
    db = _indexed_db(2000)
    access = db.table("t").access
    before = access.index_scans
    db.execute("DELETE FROM t WHERE k = 7")
    assert db.last_request_trace.root.find("execute").attrs["access"] == "ix_k"
    assert access.index_scans == before + 1
    db.execute("UPDATE t SET v = 0 WHERE v = 9")  # no index on v
    assert db.last_request_trace.root.find("execute").attrs["access"] == "seq"
    assert access.index_scans == before + 1
    stats = db.query(
        "SELECT index_scans FROM sys_stat_tables WHERE table_name = 't'"
    ).rows
    assert stats == [(access.index_scans,)]


def test_tiny_table_keeps_the_heap_scan():
    db = _indexed_db(3)
    assert db.execute("UPDATE t SET v = 0 WHERE k = 1").rows == [(1,)]
    assert db.last_request_trace.root.find("execute").attrs["access"] == "seq"
