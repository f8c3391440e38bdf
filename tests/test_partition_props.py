"""Property tests for the Grace hash join's partitioning hash
(hypothesis-driven).

A spilling hash join writes both inputs to ``partition_hash(key) %
fanout`` temp files and joins partition by partition, so equal join keys
must always hash equal:

* the hash is *deterministic* — no ``PYTHONHASHSEED`` dependence, so a
  spill is laid out the same way in every process and run;
* rows with *equal join keys co-partition* — including across numeric
  types (``1`` and ``1.0`` compare equal in SQL, so they must hash equal
  too), or a cross-type equi-join would lose matches once it spills.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.executor.joins import partition_hash

keys = st.one_of(
    st.none(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

degrees = st.integers(min_value=1, max_value=8)


class TestHashPartitioning:
    @given(st.integers(min_value=-(2**31), max_value=2**31), degrees)
    def test_equal_int_float_keys_co_partition(self, n, degree):
        """SQL equality is cross-type (1 = 1.0), so the hash must agree
        across int and integral float representations."""
        assert partition_hash(n) == partition_hash(float(n))
        assert partition_hash(n) % degree == partition_hash(float(n)) % degree

    @given(keys)
    def test_hash_is_deterministic(self, value):
        assert partition_hash(value) == partition_hash(value)
