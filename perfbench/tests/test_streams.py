"""Seed discipline and the reporting rules of the benchmark.

Run with ``python3 -m pytest perfbench/tests``.
"""

import itertools

import pytest

from run import percentile
from workloads import DIGEST_OPS, WORKLOADS, stream_digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_stream(name):
    cls = WORKLOADS[name]
    assert stream_digest(cls(7)) == stream_digest(cls(7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_stream(name):
    cls = WORKLOADS[name]
    assert stream_digest(cls(7)) != stream_digest(cls(8))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_statements_do_not_depend_on_replies(name):
    """A run applies each operation's model update as it succeeds; the
    statements sent must still be the ones the digest covers."""
    cls = WORKLOADS[name]
    for conn in range(cls.connections):
        executed = []
        for op in itertools.islice(cls(7).stream(conn), DIGEST_OPS):
            executed.append(op.statements)
            if op.on_success is not None:
                op.on_success()
        dry = [op.statements for op in itertools.islice(cls(7).stream(conn), DIGEST_OPS)]
        assert executed == dry


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1000)]
    assert percentile(values, 0.99) == 989.0
    assert percentile(values[:999], 0.99) is None
    assert percentile(values[:100], 0.9) == 89.0
    assert percentile(values[:99], 0.9) is None
    assert percentile([], 0.5) is None
