"""The span recorder's wrapping and the answer checks, without a server.

Run with ``python3 -m pytest perfbench/tests``.
"""

from layers import END, NAME, PARENT, REQ, START, SpanRecorder
from workloads import OltpPoint, OltpTxn, same_rows


class Layer:
    def outer(self, x, trace_id=None):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2

    def scan(self, n):
        return iter(range(n))


def test_recorder_nests_spans_and_restores_methods():
    layer = Layer()
    rec = SpanRecorder()
    rec.wrap(layer, "inner", "inner")
    rec.wrap(layer, "outer", "outer", request=lambda a, k: k.setdefault("trace_id", "r1"))
    assert layer.outer(3) == 7
    (st,) = rec.threads()
    outer, inner = st.spans
    assert (outer[NAME], outer[PARENT], outer[REQ]) == ("outer", -1, "r1")
    assert (inner[NAME], inner[PARENT], inner[REQ]) == ("inner", 0, "r1")
    assert outer[START] <= inner[START] <= inner[END] <= outer[END]
    rec.restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    assert layer.outer(3) == 7
    assert len(st.spans) == 2


def test_iterator_spans_carry_unique_call_ids():
    a, b = Layer(), Layer()
    rec = SpanRecorder()
    rec.wrap_iter(a, "scan", "index.scan")
    rec.wrap_iter(b, "scan", "index.scan")
    assert list(a.scan(2)) == [0, 1]
    assert list(b.scan(1)) == [0]
    calls = [span[-1] for span in rec.threads()[0].spans]
    # one span per resumption, the final one ending the iterator
    assert calls == [0, 0, 0, 1, 1]
    rec.restore()


def test_point_read_check_rejects_a_wrong_value():
    workload = OltpPoint(5)
    read = next(op for op in workload.stream(0) if op.kind == "read")
    key = int(read.statements[0].rsplit("= ", 1)[1])
    row = workload._row(key)[1:]
    assert read.check([[row]]) is None
    assert read.check([[(row[0] + 1, row[1])]]) is not None
    assert read.check([[]]) is not None


def test_reads_after_a_transfer_expect_the_new_balance():
    workload = OltpTxn(5)
    stream = workload.stream(0)
    transfer = next(stream)
    assert transfer.statements[0] == "BEGIN"
    words = transfer.statements[2].split()
    amount, src = int(words[-5]), int(words[-1])
    start = workload.initial_balance
    ok = [[], [(start,)], [(1,)], [(1,)], [], []]
    assert transfer.check(ok) is None
    assert transfer.check([[], [(start - 1,)]] + ok[2:]) is not None
    transfer.on_success()
    read = next(stream)
    acct = int(read.statements[0].rsplit("= ", 1)[1])
    want = start - amount if acct == src else start + amount
    assert read.check([[(want,)]]) is None
    assert read.check([[(start,)]]) is not None


def test_same_rows_ignores_order_and_float_noise():
    assert same_rows([("a", 1.0000000001), ("b", 2)], [("b", 2), ("a", 1.0)])
    assert not same_rows([("a", 1.1)], [("a", 1.0)])
    assert not same_rows([("a", 1.0)], [("a", 1.0), ("b", 2)])
