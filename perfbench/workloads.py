"""Seeded workloads: schema and load SQL, per-connection operation
streams, and the model that predicts every answer.

Everything here is a pure function of ``(workload, seed)``: a connection's
statement stream never depends on the server's replies, so the same seed
gives a byte-identical stream (see :func:`stream_digest`).  Each stream
carries its own model of the data that connection can predict exactly,
and every operation checks its replies against it.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.qa.reference import approx_rows
from repro.workloads import generators as gen
from repro.workloads.wholesale import (
    REGIONS,
    SEGMENTS,
    STATUSES,
    WHOLESALE_QUERIES,
    WholesaleScale,
)

#: rows per INSERT statement while loading.  A durable ``insert_rows``
#: larger than the buffer pool raises ``BufferError_`` (and so does its
#: rollback), so durable tables are loaded in committed batches this size.
LOAD_BATCH = 500

#: statements per connection covered by :func:`stream_digest`
DIGEST_OPS = 2000


@dataclass
class Op:
    """One operation: a single request, or one BEGIN…COMMIT transaction.

    ``check`` receives the replies' rows (one list per statement) and
    returns an error message, or ``None`` when every answer is right.
    """

    kind: str  # "read" | "write" | "maintenance"
    statements: List[str]
    check: Callable[[List[List[Tuple[Any, ...]]]], Optional[str]]
    #: user-row bytes this operation writes (WAL amplification base)
    user_bytes: int = 0
    #: rows this operation inserts or modifies
    rows_changed: int = 0
    #: called once the operation's replies checked out (model commit)
    on_success: Optional[Callable[[], None]] = None
    #: a measured window may end before this operation (wholesale ends
    #: only between whole rounds of its eight queries)
    boundary: bool = True
    #: the query this operation runs, where a workload mixes several
    label: str = ""


def sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def row_bytes(row: Sequence[Any]) -> int:
    """Live user bytes of one row, independent of the engine's record
    format: 8 per number, UTF-8 length per string, 0 per NULL."""
    total = 0
    for value in row:
        if isinstance(value, str):
            total += len(value.encode("utf-8"))
        elif value is not None:
            total += 8
    return total


def insert_batches(table: str, rows: Sequence[Sequence[Any]]) -> List[str]:
    out = []
    for start in range(0, len(rows), LOAD_BATCH):
        values = ",".join(
            "(" + ",".join(sql_literal(v) for v in row) + ")"
            for row in rows[start : start + LOAD_BATCH]
        )
        out.append(f"INSERT INTO {table} VALUES {values}")
    return out


def rng_for(seed: int, *parts: Any) -> random.Random:
    """A generator keyed by the seed and a purpose; string seeding is
    deterministic across processes and ``PYTHONHASHSEED`` values."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


class Zipf:
    """Ranks ``0..n-1`` with Zipf(*skew*) frequencies, mapped onto keys
    through a seeded permutation so hot keys are scattered."""

    def __init__(self, rng: random.Random, keys: Sequence[int], skew: float):
        weights = [1.0 / (k**skew) for k in range(1, len(keys) + 1)]
        self.cdf = list(itertools.accumulate(weights))
        self.keys = list(keys)
        rng.shuffle(self.keys)

    def draw(self, rng: random.Random) -> int:
        x = rng.random() * self.cdf[-1]
        return self.keys[min(bisect.bisect_left(self.cdf, x), len(self.keys) - 1)]


def _expect(expected: List[List[Tuple[Any, ...]]]):
    def check(got: List[List[Tuple[Any, ...]]]) -> Optional[str]:
        if got != expected:
            return f"expected {expected!r}, got {got!r}"
        return None

    return check


class Workload:
    """Base: sizes, durability, connection count and the two streams."""

    name = ""
    #: the user tables, for page counts
    tables: Tuple[str, ...] = ()
    durable = True
    #: the run ends by killing the server and checking recovery
    recovers = False
    buffer_pages = 256
    connections = 2
    #: operations each connection runs, checked but untimed, before the
    #: measured window (caches fill, lazily built state settles)
    warmup_ops = 100
    #: operations per connection in the traced run's replays, run in
    #: this many chunks
    trace_ops: int
    trace_chunks = 10

    def __init__(self, seed: int):
        self.seed = seed

    def setup_sql(self) -> List[str]:
        raise NotImplementedError

    def stream(self, conn: int) -> Iterator[Op]:
        raise NotImplementedError

    def precompute(self) -> None:
        """Work the checks need, done before anything is timed."""

    def live_user_bytes(self, completed: Dict[str, int]) -> int:
        """User bytes live at the end, given the per-kind counts of
        completed row-adding operations."""
        raise NotImplementedError

    def final_checks(self, client, completed: Dict[str, int]) -> List[str]:
        """End-of-run checks through a fresh connection; returns errors."""
        return []


# -- oltp_point -----------------------------------------------------------------


class OltpPoint(Workload):
    """Point SELECT by key (≈90%) and autocommit point INSERT (≈10%)
    on one durable table whose heap and key index fit the 256-page pool."""

    name = "oltp_point"
    tables = ("kv",)
    rows = 10_000
    read_share = 0.9
    skew = 0.99
    trace_ops = 3000

    def _row(self, k: int) -> Tuple[int, int, str]:
        h = hashlib.blake2b(f"{self.seed}:{k}".encode(), digest_size=8).digest()
        v = int.from_bytes(h[:4], "big") % 1_000_000
        return (k, v, "n" + h[4:].hex())

    def setup_sql(self) -> List[str]:
        rows = [self._row(k) for k in range(self.rows)]
        return (
            ["CREATE TABLE kv (k INT, v INT, note TEXT)"]
            + insert_batches("kv", rows)
            + ["CREATE INDEX ix_kv_k ON kv (k)", "ANALYZE", "CHECKPOINT"]
        )

    def stream(self, conn: int) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name, "stream", conn)
        hot = Zipf(rng_for(self.seed, self.name, "keys"), range(self.rows), self.skew)
        inserted: List[Tuple[int, int, str]] = []
        while True:
            if rng.random() < self.read_share:
                if inserted and rng.random() < 0.05:
                    row = inserted[rng.randrange(len(inserted))]
                else:
                    row = self._row(hot.draw(rng))
                yield Op(
                    "read",
                    [f"SELECT v, note FROM kv WHERE k = {row[0]}"],
                    _expect([[row[1:]]]),
                )
            else:
                # fresh keys above the preload, interleaved per connection
                k = self.rows + conn + self.connections * len(inserted)
                row = (k, rng.randrange(1_000_000), "w" + format(rng.getrandbits(32), "08x"))
                inserted.append(row)
                yield Op(
                    "write",
                    [f"INSERT INTO kv VALUES ({k}, {row[1]}, '{row[2]}')"],
                    _expect([[]]),
                    user_bytes=row_bytes(row),
                    rows_changed=1,
                )

    def live_user_bytes(self, completed: Dict[str, int]) -> int:
        return (self.rows + completed.get("write", 0)) * row_bytes(self._row(0))

    def final_checks(self, client, completed: Dict[str, int]) -> List[str]:
        want = self.rows + completed.get("write", 0)
        got = client.execute("SELECT COUNT(*) FROM kv").rows
        return [] if got == [(want,)] else [f"kv holds {got}, expected {want} rows"]


# -- oltp_txn -------------------------------------------------------------------


class OltpTxn(Workload):
    """Transfers between accounts plus point reads of hot keys.

    Connection *c* owns the accounts with ``id % connections == c``, so it
    can predict every balance it reads (its own committed writes) while
    both connections still contend for the same table locks, WAL and
    version store.  Transfers conserve the sum of balances.
    """

    name = "oltp_txn"
    tables = ("accounts", "history")
    recovers = True
    accounts = 2000
    initial_balance = 1000
    skew = 0.8
    #: connection 0 issues CHECKPOINT every this many of its operations
    checkpoint_every = 100
    warmup_ops = 40
    trace_ops = 800

    def __init__(self, seed: int):
        super().__init__(seed)
        #: per connection: ``balance`` of its own accounts and ``acked``
        #: transfers (tid -> (src, dst, amount)), moved as commits succeed
        self.models: Dict[int, Dict[str, Any]] = {}

    def setup_sql(self) -> List[str]:
        rows = [
            (i, i % 10, self.initial_balance) for i in range(self.accounts)
        ]
        return (
            [
                "CREATE TABLE accounts (id INT, branch INT, balance INT)",
                "CREATE TABLE history (tid INT, src INT, dst INT, amount INT)",
            ]
            + insert_batches("accounts", rows)
            + ["CREATE INDEX ix_accounts_id ON accounts (id)", "ANALYZE", "CHECKPOINT"]
        )

    def own_accounts(self, conn: int) -> List[int]:
        return list(range(conn, self.accounts, self.connections))

    def stream(self, conn: int) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name, "stream", conn)
        mine = self.own_accounts(conn)
        hot = Zipf(rng_for(self.seed, self.name, "keys", conn), mine, self.skew)
        model = self.models.setdefault(conn, {})
        balance = model["balance"] = {a: self.initial_balance for a in mine}
        acked = model["acked"] = {}
        recent: List[int] = []
        for i in itertools.count():
            if conn == 0 and i % self.checkpoint_every == self.checkpoint_every - 1:
                yield Op("maintenance", ["CHECKPOINT"], lambda got: None)
            elif i % 2 == 0:
                src = hot.draw(rng)
                dst = hot.draw(rng)
                while dst == src:
                    dst = hot.draw(rng)
                amount = rng.randint(1, 50)
                tid = conn + self.connections * i
                recent = (recent + [src, dst])[-8:]

                def commit(src=src, dst=dst, amount=amount, tid=tid):
                    balance[src] -= amount
                    balance[dst] += amount
                    acked[tid] = (src, dst, amount)

                yield Op(
                    "write",
                    [
                        "BEGIN",
                        f"SELECT balance FROM accounts WHERE id = {src}",
                        f"UPDATE accounts SET balance = balance - {amount} WHERE id = {src}",
                        f"UPDATE accounts SET balance = balance + {amount} WHERE id = {dst}",
                        f"INSERT INTO history VALUES ({tid}, {src}, {dst}, {amount})",
                        "COMMIT",
                    ],
                    _expect([[], [(balance[src],)], [(1,)], [(1,)], [], []]),
                    user_bytes=2 * row_bytes((0, 0, 0)) + row_bytes((0, 0, 0, 0)),
                    rows_changed=3,
                    on_success=commit,
                )
            else:
                acct = recent[rng.randrange(len(recent))] if recent else hot.draw(rng)
                yield Op(
                    "read",
                    [f"SELECT balance FROM accounts WHERE id = {acct}"],
                    _expect([[(balance[acct],)]]),
                )

    def live_user_bytes(self, completed: Dict[str, int]) -> int:
        return self.accounts * row_bytes((0, 0, 0)) + completed.get(
            "write", 0
        ) * row_bytes((0, 0, 0, 0))

    def final_checks(self, client, completed: Dict[str, int]) -> List[str]:
        """Balances, the balance-sum invariant and the acknowledged
        history, as read back through *client*."""
        errors = []
        want_bal: Dict[int, int] = {}
        want_hist: Dict[int, Tuple[int, int, int]] = {}
        for model in self.models.values():
            want_bal.update(model["balance"])
            want_hist.update(model["acked"])
        total = client.execute("SELECT SUM(balance) FROM accounts").rows
        if total != [(self.accounts * self.initial_balance,)]:
            errors.append(f"balance sum {total} is not invariant")
        got_bal = dict(client.execute("SELECT id, balance FROM accounts").rows)
        if got_bal != want_bal:
            bad = sorted(a for a in want_bal if got_bal.get(a) != want_bal[a])
            errors.append(f"{len(bad)} balances differ from the model, e.g. {bad[:5]}")
        got_hist = {
            tid: (src, dst, amount)
            for tid, src, dst, amount in client.execute(
                "SELECT tid, src, dst, amount FROM history"
            ).rows
        }
        missing = [t for t in want_hist if got_hist.get(t) != want_hist[t]]
        extra = [t for t in got_hist if t not in want_hist]
        if missing or extra:
            errors.append(
                f"history: {len(missing)} acknowledged transfers missing or wrong, "
                f"{len(extra)} unacknowledged present"
            )
        return errors


# -- olap_wholesale -------------------------------------------------------------


def wholesale_rows(seed: int, scale: WholesaleScale) -> Dict[str, List[Tuple[Any, ...]]]:
    """The wholesale tables, generated the way ``load_wholesale`` does."""
    rng = gen.Rng(seed)
    nnations = len(REGIONS) * 5
    ncust, nsupp, norders = scale.customers, scale.suppliers, scale.orders
    nitems = norders * scale.lineitems_per_order
    return {
        "region": list(enumerate(REGIONS)),
        "nation": [(i, i % len(REGIONS), f"nation{i:02d}") for i in range(nnations)],
        "customer": list(
            zip(
                gen.sequential_ints(ncust),
                gen.uniform_ints(rng.spawn(1), ncust, 0, nnations - 1),
                gen.categorical(rng.spawn(2), ncust, SEGMENTS, [4, 2, 3, 1]),
                gen.prefixed_words(rng.spawn(3), ncust, ["acme", "globo", "init"]),
                gen.uniform_floats(rng.spawn(4), ncust, -500.0, 9500.0),
            )
        ),
        "supplier": list(
            zip(
                gen.sequential_ints(nsupp),
                gen.uniform_ints(rng.spawn(5), nsupp, 0, nnations - 1),
                gen.prefixed_words(rng.spawn(6), nsupp, ["sup"]),
                gen.uniform_ints(rng.spawn(7), nsupp, 1, 5),
            )
        ),
        "orders": list(
            zip(
                gen.sequential_ints(norders),
                gen.zipf_ints(rng.spawn(8), norders, ncust, skew=0.8),
                gen.categorical(rng.spawn(9), norders, STATUSES, [1, 2, 6, 1]),
                gen.uniform_floats(rng.spawn(10), norders, 10.0, 5000.0),
                gen.uniform_ints(rng.spawn(11), norders, 1, 5),
            )
        ),
        "lineitem": list(
            zip(
                gen.sequential_ints(nitems),
                gen.uniform_ints(rng.spawn(12), nitems, 0, norders - 1),
                gen.zipf_ints(rng.spawn(13), nitems, nsupp, skew=0.6),
                gen.uniform_ints(rng.spawn(14), nitems, 1, 50),
                gen.uniform_floats(rng.spawn(15), nitems, 1.0, 200.0),
                gen.uniform_floats(rng.spawn(16), nitems, 0.0, 0.1),
            )
        ),
    }


WHOLESALE_DDL = [
    "CREATE TABLE region (id INT, name TEXT)",
    "CREATE TABLE nation (id INT, region_id INT, name TEXT)",
    "CREATE TABLE customer (id INT, nation_id INT, segment TEXT, name TEXT, balance FLOAT)",
    "CREATE TABLE supplier (id INT, nation_id INT, name TEXT, rating INT)",
    "CREATE TABLE orders (id INT, cust_id INT, status TEXT, total FLOAT, priority INT)",
    "CREATE TABLE lineitem (id INT, order_id INT, supp_id INT, qty INT, price FLOAT, "
    "discount FLOAT)",
]

WHOLESALE_INDEXES = [
    "CREATE CLUSTERED INDEX ix_cust_id ON customer (id)",
    "CREATE CLUSTERED INDEX ix_orders_id ON orders (id)",
    "CREATE INDEX ix_orders_cust ON orders (cust_id)",
    "CREATE INDEX ix_line_order ON lineitem (order_id)",
    "CREATE INDEX ix_line_supp ON lineitem (supp_id)",
    "CREATE INDEX ix_supp_id ON supplier (id)",
    "CREATE INDEX ix_nation_id ON nation (id)",
]

#: the literal each query's selective predicate carries in
#: ``WHOLESALE_QUERIES``; the benchmark substitutes a seeded value
WHOLESALE_LITERALS = {
    "Q3_top_customers": "o.status = 'delivered'",
    "Q5_big_orders_by_segment": "o.total > 4500",
    "Q6_five_way": "o.status = 'returned'",
    "Q7_selective_point": "o.id = 17",
    "Q8_priority_scan": "o.status <> 'open'",
}


def wholesale_sql(name: str, param: Any) -> str:
    text = WHOLESALE_QUERIES[name]
    old = WHOLESALE_LITERALS.get(name)
    if old is None:
        return text
    if text.count(old) != 1:
        raise RuntimeError(f"{name}: cannot find the predicate {old!r} to vary")
    head = old.rsplit(" ", 1)[0]
    return text.replace(old, f"{head} {sql_literal(param)}")


class WholesaleReference:
    """The eight queries evaluated in plain Python over the generated rows."""

    def __init__(self, tables: Dict[str, List[Tuple[Any, ...]]]):
        self.region = {r[0]: r for r in tables["region"]}
        self.nation = {n[0]: n for n in tables["nation"]}
        self.customer = {c[0]: c for c in tables["customer"]}
        self.supplier = {s[0]: s for s in tables["supplier"]}
        self.orders = tables["orders"]
        self.order_by_id = {o[0]: o for o in self.orders}
        self.lineitem = tables["lineitem"]
        self._memo: Dict[Tuple[str, Any], List[Tuple[Any, ...]]] = {}

    def answer(self, name: str, param: Any) -> List[Tuple[Any, ...]]:
        key = (name, param)
        if key not in self._memo:
            self._memo[key] = getattr(self, name.split("_", 1)[0].lower())(param)
        return self._memo[key]

    def _region_of_customer(self, cust_id: int) -> str:
        return self.region[self.nation[self.customer[cust_id][1]][1]][1]

    def q1(self, _):
        groups: Dict[str, List[float]] = {}
        for o in self.orders:
            groups.setdefault(o[2], []).append(o[3])
        return [(s, len(v), sum(v)) for s, v in groups.items()]

    def q2(self, _):
        rev: Dict[str, float] = {}
        for o in self.orders:
            name = self._region_of_customer(o[1])
            rev[name] = rev.get(name, 0.0) + o[3]
        return list(rev.items())

    def q3(self, status):
        spend: Dict[str, float] = {}
        for o in self.orders:
            if o[2] == status:
                name = self.customer[o[1]][3]
                spend[name] = spend.get(name, 0.0) + o[3]
        return sorted(spend.items(), key=lambda kv: -kv[1])[:10]

    def q4(self, _):
        rev: Dict[str, float] = {}
        for l in self.lineitem:
            s = self.supplier[l[2]]
            if s[3] >= 4:
                rev[s[2]] = rev.get(s[2], 0.0) + l[4] * l[3] * (1 - l[5])
        return sorted(rev.items(), key=lambda kv: -kv[1])[:5]

    def q5(self, threshold):
        n: Dict[str, int] = {}
        for o in self.orders:
            if o[3] > threshold:
                seg = self.customer[o[1]][2]
                n[seg] = n.get(seg, 0) + 1
        return list(n.items())

    def q6(self, status):
        n: Dict[str, int] = {}
        for l in self.lineitem:
            o = self.order_by_id[l[1]]
            if o[2] == status:
                name = self._region_of_customer(o[1])
                n[name] = n.get(name, 0) + 1
        return list(n.items())

    def q7(self, order_id):
        o = self.order_by_id.get(order_id)
        if o is None:
            return []
        return [(o[0], o[3]) for l in self.lineitem if l[1] == order_id]

    def q8(self, status):
        groups: Dict[int, List[float]] = {}
        for o in self.orders:
            if o[2] != status:
                groups.setdefault(o[4], []).append(o[3])
        return [(p, sum(v) / len(v)) for p, v in groups.items()]


def same_rows(got: Sequence[Sequence[Any]], want: Sequence[Sequence[Any]]) -> bool:
    """Both results canonicalised with ``approx_rows``; floats then agree
    to 1e-9 relative, so a sum landing on a 6th-decimal rounding edge in
    one summation order and not the other is not a wrong answer."""
    a, b = approx_rows(got), approx_rows(want)
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if isinstance(x, float) or isinstance(y, float):
                if not (
                    isinstance(x, (int, float))
                    and isinstance(y, (int, float))
                    and math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-6)
                ):
                    return False
            elif x != y:
                return False
    return True


class OlapWholesale(Workload):
    """The eight wholesale queries in a seeded order with seeded selective
    literals, one connection, in memory, 48-page pool (data ≈ 400 pages)."""

    name = "olap_wholesale"
    tables = ("region", "nation", "customer", "supplier", "orders", "lineitem")
    durable = False
    buffer_pages = 48
    connections = 1
    warmup_ops = 8
    trace_ops = 64
    trace_chunks = 8
    scale = WholesaleScale.small()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data = wholesale_rows(seed, self.scale)
        self.reference = WholesaleReference(self.data)

    def setup_sql(self) -> List[str]:
        out = list(WHOLESALE_DDL)
        for table in self.tables:
            out += insert_batches(table, self.data[table])
        return out + WHOLESALE_INDEXES + ["ANALYZE"]

    def params(self, rng: random.Random, strata: Dict[str, List[int]], rnd: int, name: str) -> Any:
        """The literal for *name* in round *rnd*.  Statuses and total
        thresholds are stratified: each query cycles through a seeded
        permutation of the four statuses (or four threshold bands), so
        every four rounds carry the same mix of selectivities and a run's
        cost does not hinge on which literals the seed happened to draw."""
        stratum = strata[name][rnd % 4] if name in strata else 0
        if name in ("Q3_top_customers", "Q6_five_way", "Q8_priority_scan"):
            return STATUSES[stratum]
        if name == "Q5_big_orders_by_segment":
            return 2500 + 600 * stratum + 100 * rng.randrange(6)
        if name == "Q7_selective_point":
            return rng.randrange(self.scale.orders)
        return None

    def precompute(self) -> None:
        """Fill the reference memo for every parameter value the streams
        can draw, so checking costs the closed loop no think time."""
        ref = self.reference
        for name in WHOLESALE_QUERIES:
            if name == "Q7_selective_point":
                continue  # cheap per call
            if name == "Q5_big_orders_by_segment":
                values = range(2500, 5000, 100)
            elif name in ("Q3_top_customers", "Q6_five_way", "Q8_priority_scan"):
                values = STATUSES
            else:
                values = [None]
            for value in values:
                ref.answer(name, value)

    def stream(self, conn: int) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name, "stream", conn)
        names = list(WHOLESALE_QUERIES)
        strata = {name: rng.sample(range(4), 4) for name in WHOLESALE_LITERALS}
        for rnd in itertools.count():
            order = names[:]
            rng.shuffle(order)
            for i, name in enumerate(order):
                param = self.params(rng, strata, rnd, name)

                def check(got, name=name, param=param):
                    want = self.reference.answer(name, param)
                    if not same_rows(got[0], want):
                        return f"{name}({param!r}): engine {got[0]!r} != reference {want!r}"
                    return None

                yield Op(
                    "read", [wholesale_sql(name, param)], check, boundary=i == 0, label=name
                )

    def live_user_bytes(self, completed: Dict[str, int]) -> int:
        return sum(row_bytes(r) for rows in self.data.values() for r in rows)


WORKLOADS = {cls.name: cls for cls in (OltpPoint, OltpTxn, OlapWholesale)}


def stream_digest(workload: Workload, ops: int = DIGEST_OPS) -> str:
    """SHA-256 over the load SQL and the first *ops* statements of every
    connection's stream: equal seeds give equal digests."""
    h = hashlib.sha256()
    for sql in workload.setup_sql():
        h.update(sql.encode("utf-8") + b"\n")
    for conn in range(workload.connections):
        h.update(f"-- connection {conn}\n".encode())
        for op in itertools.islice(workload.stream(conn), ops):
            for sql in op.statements:
                h.update(sql.encode("utf-8") + b"\n")
    return h.hexdigest()
