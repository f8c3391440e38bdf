"""Tests for the B+-tree index."""

import random

from hypothesis import given, settings, strategies as st

from repro.index import BPlusTree, serialize_key
from repro.storage import BufferPool, DiskManager, PageGuard
from repro.types import DataType


def make_tree(dtype=DataType.INT, pool_pages=300, page_size=512):
    disk = DiskManager(page_size)
    pool = BufferPool(disk, pool_pages)
    return disk, BPlusTree(pool, dtype, "ix")


class TestInsertSearch:
    def test_empty(self):
        _, tree = make_tree()
        assert tree.num_entries == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []

    def test_single(self):
        _, tree = make_tree()
        tree.insert(42, (0, 0))
        assert tree.search(42) == [(0, 0)]
        assert tree.height == 1

    def test_sequential_inserts_split(self):
        _, tree = make_tree()
        for i in range(500):
            tree.insert(i, (i, 0))
        assert tree.height > 1
        tree.validate()
        assert tree.search(250) == [(250, 0)]

    def test_random_inserts(self):
        _, tree = make_tree()
        keys = list(range(800))
        random.Random(4).shuffle(keys)
        for k in keys:
            tree.insert(k, (k, 1))
        tree.validate()
        assert [k for k, _ in tree.items()] == list(range(800))

    def test_duplicates(self):
        _, tree = make_tree()
        for i in range(30):
            tree.insert(7, (i, 0))
        tree.insert(6, (0, 0))
        tree.insert(8, (0, 0))
        assert len(tree.search(7)) == 30
        tree.validate()

    def test_duplicates_across_splits(self):
        _, tree = make_tree()
        for i in range(400):
            tree.insert(i % 5, (i, 0))
        tree.validate()
        assert len(tree.search(3)) == 80

    def test_text_keys(self):
        _, tree = make_tree(DataType.TEXT)
        words = [f"word{i:03d}" for i in range(200)]
        random.Random(1).shuffle(words)
        for i, w in enumerate(words):
            tree.insert(w, (i, 0))
        tree.validate()
        got = [k for k, _ in tree.range_scan("word010", "word019")]
        assert got == [f"word{i:03d}" for i in range(10, 20)]

    def test_null_keys_allowed_in_btree(self):
        _, tree = make_tree()
        tree.insert(None, (1, 0))
        tree.insert(5, (2, 0))
        items = list(tree.items())
        assert items[0][0] is None  # NULLs sort first
        # bounded scans exclude NULLs
        assert [k for k, _ in tree.range_scan(0, 10)] == [5]


class TestRangeScan:
    def setup_method(self):
        _, self.tree = make_tree()
        for i in range(0, 200, 2):  # even keys 0..198
            self.tree.insert(i, (i, 0))

    def test_inclusive_bounds(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20, True, True)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20, False, False)]
        assert keys == [12, 14, 16, 18]

    def test_open_low(self):
        keys = [k for k, _ in self.tree.range_scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_open_high(self):
        keys = [k for k, _ in self.tree.range_scan(194, None)]
        assert keys == [194, 196, 198]

    def test_bounds_between_keys(self):
        keys = [k for k, _ in self.tree.range_scan(11, 15)]
        assert keys == [12, 14]

    def test_empty_range(self):
        assert list(self.tree.range_scan(11, 11)) == []
        assert list(self.tree.range_scan(500, 600)) == []

    def test_full_scan_sorted(self):
        keys = [k for k, _ in self.tree.items()]
        assert keys == sorted(keys)


class TestDelete:
    def test_delete_existing(self):
        _, tree = make_tree()
        for i in range(100):
            tree.insert(i, (i, 0))
        assert tree.delete(50, (50, 0)) is True
        assert tree.search(50) == []
        assert tree.num_entries == 99
        tree.validate()

    def test_delete_missing(self):
        _, tree = make_tree()
        tree.insert(1, (1, 0))
        assert tree.delete(2, (2, 0)) is False
        assert tree.delete(1, (9, 9)) is False  # wrong rid

    def test_delete_one_duplicate(self):
        _, tree = make_tree()
        for i in range(5):
            tree.insert(7, (i, 0))
        assert tree.delete(7, (2, 0)) is True
        assert len(tree.search(7)) == 4
        assert (7, (2, 0)) not in list(tree.items())

    def test_delete_then_reinsert(self):
        _, tree = make_tree()
        for i in range(200):
            tree.insert(i, (i, 0))
        for i in range(0, 200, 3):
            tree.delete(i, (i, 0))
        for i in range(0, 200, 3):
            tree.insert(i, (i, 7))
        tree.validate()
        assert tree.search(3) == [(3, 7)]

    def test_shrunk_leaf_tail_is_zeroed(self):
        _, tree = make_tree(DataType.TEXT)
        keys = [f"key-{i:02d}-" + "x" * i for i in range(12)]
        for i, key in enumerate(keys):
            tree.insert(key, (i, 0))
        assert tree.height == 1  # the root is the only leaf
        for i, key in enumerate(keys[4:], start=4):
            tree.delete(key, (i, 0))
        tree.insert("a", (99, 1))  # rewrite the shrunk leaf once more
        live = sorted(keys[:4] + ["a"])
        encoded = 7 + sum(len(serialize_key(k, DataType.TEXT)) + 6 for k in live)
        with PageGuard(tree.pool, (tree.file_id, tree.root_page)) as data:
            assert data[encoded - 6 : encoded] != bytes(6)  # last entry's rid
            assert data[encoded:] == bytes(len(data) - encoded)


class TestIOBehaviour:
    def test_search_io_is_logarithmic(self):
        disk, tree = make_tree(pool_pages=400)
        for i in range(2000):
            tree.insert(i, (i, 0))
        tree.pool.clear()
        disk.reset_stats()
        tree.search(1234)
        assert disk.stats.reads <= tree.height + 1

    def test_leaf_count_matches_chain(self):
        _, tree = make_tree()
        for i in range(1000):
            tree.insert(i, (i, 0))
        assert tree.num_leaf_pages() >= 2


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 50)),
        max_size=120,
    )
)
def test_btree_matches_reference_multiset(ops):
    _, tree = make_tree(page_size=256)
    reference = []
    counter = 0
    for op, key in ops:
        if op == "ins":
            rid = (counter, 0)
            counter += 1
            tree.insert(key, rid)
            reference.append((key, rid))
        elif reference:
            victim = reference[key % len(reference)]
            assert tree.delete(*victim) is True
            reference.remove(victim)
    expected = sorted(reference, key=lambda e: (e[0], e[1]))
    assert list(tree.items()) == expected
    tree.validate()
