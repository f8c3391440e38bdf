"""A page-based B+-tree index.

Nodes live in disk pages and are accessed through the buffer pool, so every
index probe and range scan incurs real, countable page I/O — the quantity
the cost model prices (root-to-leaf descent plus leaf chain).

Design choices (documented, deliberately classic):

* Single-column keys; duplicates allowed (entries ordered by ``(key, rid)``).
* Leaves are chained left-to-right for range scans.
* Deletion is by simple removal from the leaf without rebalancing ("lazy
  deletion"), as in many production systems; underfull nodes are tolerated.
* Nodes are re-serialized wholesale on modification.  Simple, correct, and
  plenty fast at laptop scale; the I/O counts are unaffected.

Page formats::

    leaf:     [0x01][nkeys:u16][next_leaf+1:u32] entries*
              entry = key_bytes + page:u32 + slot:u16
    internal: [0x02][nkeys:u16] children = (nkeys+1)*u32, then nkeys keys
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from ..storage import RID, BufferPool, PageGuard
from ..types import DataType
from .keys import deserialize_key, entry_lt, key_lt, key_size, serialize_key

_LEAF = 0x01
_INTERNAL = 0x02

_LEAF_HEADER = 7
_INTERNAL_HEADER = 3


class BPTreeError(Exception):
    """Raised on structural violations."""


@dataclass
class _Leaf:
    entries: List[Tuple[Any, RID]]
    next_leaf: Optional[int]  # page_no of right sibling


@dataclass
class _Internal:
    keys: List[Any]
    children: List[int]  # page numbers, len == len(keys) + 1


class _SortKey:
    """Adapter making key_lt usable with bisect/insort."""

    __slots__ = ("v",)

    def __init__(self, v: Any):
        self.v = v

    def __lt__(self, other: "_SortKey") -> bool:
        return key_lt(self.v, other.v)


class _SortEntry:
    __slots__ = ("e",)

    def __init__(self, e: Tuple[Any, RID]):
        self.e = e

    def __lt__(self, other: "_SortEntry") -> bool:
        return entry_lt(self.e, other.e)


class BPlusTree:
    """B+-tree over ``(key, rid)`` entries with real page I/O."""

    def __init__(self, pool: BufferPool, dtype, name: str):
        """*dtype* is a single DataType (scalar keys) or a sequence of
        DataTypes (composite keys stored as tuples)."""
        self.pool = pool
        if isinstance(dtype, DataType):
            self.dtypes: Tuple[DataType, ...] = (dtype,)
            self.composite = False
        else:
            self.dtypes = tuple(dtype)
            self.composite = len(self.dtypes) > 1
            if not self.dtypes:
                raise BPTreeError("index needs at least one key column")
        self.dtype = self.dtypes[0]
        self.name = name
        self.file_id = pool.disk.create_file(f"index:{name}")
        self._num_entries = 0
        self._height = 1
        root = self._alloc_node()
        self._write_leaf(root, _Leaf([], None))
        self.root_page = root

    # -- public API ---------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def height(self) -> int:
        """Number of levels root..leaf (1 = root is a leaf)."""
        return self._height

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    def num_leaf_pages(self) -> int:
        """Count leaf pages by walking the chain (costs I/O; used by ANALYZE)."""
        count = 0
        page_no: Optional[int] = self._leftmost_leaf()
        while page_no is not None:
            leaf = self._read_leaf(page_no)
            count += 1
            page_no = leaf.next_leaf
        return count

    def insert(self, key: Any, rid: RID) -> None:
        """Insert one entry.  Duplicate keys are allowed."""
        split = self._insert_into(self.root_page, self._height, key, rid)
        if split is not None:
            sep_key, right_page = split
            new_root = self._alloc_node()
            self._write_internal(
                new_root, _Internal([sep_key], [self.root_page, right_page])
            )
            self.root_page = new_root
            self._height += 1
        self._num_entries += 1

    def delete(self, key: Any, rid: RID) -> bool:
        """Remove the exact ``(key, rid)`` entry.  Returns False if absent."""
        page_no = self._descend_to_leaf(key)
        while page_no is not None:
            leaf = self._read_leaf(page_no)
            i = bisect_left([_SortEntry(e) for e in leaf.entries], _SortEntry((key, rid)))
            if i < len(leaf.entries) and leaf.entries[i] == (key, rid):
                del leaf.entries[i]
                self._write_leaf(page_no, leaf)
                self._num_entries -= 1
                return True
            if leaf.entries and key_lt(key, leaf.entries[-1][0]):
                return False
            page_no = leaf.next_leaf
        return False

    def search(self, key: Any) -> List[RID]:
        """All RIDs with exactly *key*."""
        return [rid for _, rid in self.range_scan(key, key, True, True)]

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Any, RID]]:
        """Entries with ``low (<|<=) key (<|<=) high`` in key order.

        ``low=None`` / ``high=None`` leave that side unbounded.  NULL keys are
        never returned by bounded scans (SQL semantics: comparisons with NULL
        are unknown) but appear in fully unbounded scans.
        """
        bounded = low is not None or high is not None
        if low is None:
            page_no: Optional[int] = self._leftmost_leaf()
            start_key = None
        else:
            page_no = self._descend_to_leaf(low)
            start_key = low
        while page_no is not None:
            leaf = self._read_leaf(page_no)
            keys = [_SortKey(k) for k, _ in leaf.entries]
            if start_key is not None:
                probe = _SortKey(start_key)
                i = (
                    bisect_left(keys, probe)
                    if low_inclusive
                    else bisect_right(keys, probe)
                )
            else:
                i = 0
            for key, rid in leaf.entries[i:]:
                if key is None:
                    if bounded:
                        continue
                    yield key, rid
                    continue
                if high is not None:
                    if high_inclusive:
                        if key_lt(high, key):
                            return
                    elif not key_lt(key, high):
                        return
                yield key, rid
            start_key = None  # only the first leaf needs offsetting
            page_no = leaf.next_leaf

    def items(self) -> Iterator[Tuple[Any, RID]]:
        return self.range_scan(None, None)

    def validate(self) -> None:
        """Structural integrity check used by tests: ordering within leaves,
        chain ordering, separator correctness, entry count."""
        seen = 0
        prev: Optional[Tuple[Any, RID]] = None
        for entry in self.items():
            if prev is not None and entry_lt(entry, prev):
                raise BPTreeError(f"entries out of order: {prev} then {entry}")
            prev = entry
            seen += 1
        if seen != self._num_entries:
            raise BPTreeError(
                f"entry count mismatch: walked {seen}, recorded {self._num_entries}"
            )
        self._validate_node(self.root_page, self._height, None, None)

    # -- insertion internals ---------------------------------------------------------

    def _insert_into(
        self, page_no: int, level: int, key: Any, rid: RID
    ) -> Optional[Tuple[Any, int]]:
        """Insert below *page_no* (at *level*, 1=leaf).  On split, returns
        ``(separator_key, new_right_page)`` for the parent to absorb."""
        if level == 1:
            leaf = self._read_leaf(page_no)
            wrapped = [_SortEntry(e) for e in leaf.entries]
            i = bisect_left(wrapped, _SortEntry((key, rid)))
            leaf.entries.insert(i, (key, rid))
            if self._leaf_bytes(leaf) <= self._capacity():
                self._write_leaf(page_no, leaf)
                return None
            return self._split_leaf(page_no, leaf)
        node = self._read_internal(page_no)
        child_idx = bisect_right([_SortKey(k) for k in node.keys], _SortKey(key))
        split = self._insert_into(node.children[child_idx], level - 1, key, rid)
        if split is None:
            return None
        sep_key, right_page = split
        node.keys.insert(child_idx, sep_key)
        node.children.insert(child_idx + 1, right_page)
        if self._internal_bytes(node) <= self._capacity():
            self._write_internal(page_no, node)
            return None
        return self._split_internal(page_no, node)

    def _split_leaf(self, page_no: int, leaf: _Leaf) -> Tuple[Any, int]:
        mid = len(leaf.entries) // 2
        right = _Leaf(leaf.entries[mid:], leaf.next_leaf)
        right_page = self._alloc_node()
        left = _Leaf(leaf.entries[:mid], right_page)
        self._write_leaf(right_page, right)
        self._write_leaf(page_no, left)
        return right.entries[0][0], right_page

    def _split_internal(self, page_no: int, node: _Internal) -> Tuple[Any, int]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal(node.keys[mid + 1 :], node.children[mid + 1 :])
        left = _Internal(node.keys[:mid], node.children[: mid + 1])
        right_page = self._alloc_node()
        self._write_internal(right_page, right)
        self._write_internal(page_no, left)
        return sep, right_page

    # -- navigation ----------------------------------------------------------------------

    def _descend_to_leaf(self, key: Any) -> int:
        page_no = self.root_page
        for _ in range(self._height - 1):
            node = self._read_internal(page_no)
            idx = bisect_left([_SortKey(k) for k in node.keys], _SortKey(key))
            page_no = node.children[idx]
        return page_no

    def _leftmost_leaf(self) -> int:
        page_no = self.root_page
        for _ in range(self._height - 1):
            page_no = self._read_internal(page_no).children[0]
        return page_no

    # -- node I/O -------------------------------------------------------------------------

    def _capacity(self) -> int:
        return self.pool.disk.page_size

    def _alloc_node(self) -> int:
        page_id = self.pool.new_page(self.file_id)
        self.pool.unfix(page_id, dirty=True)
        return page_id[1]

    def _key_bytes(self, key: Any) -> int:
        if self.composite:
            return sum(key_size(k, t) for k, t in zip(key, self.dtypes))
        return key_size(key, self.dtype)

    def _leaf_bytes(self, leaf: _Leaf) -> int:
        return _LEAF_HEADER + sum(
            self._key_bytes(k) + 6 for k, _ in leaf.entries
        )

    def _internal_bytes(self, node: _Internal) -> int:
        return (
            _INTERNAL_HEADER
            + 4 * len(node.children)
            + sum(self._key_bytes(k) for k in node.keys)
        )

    def _write_leaf(self, page_no: int, leaf: _Leaf) -> None:
        buf = bytearray()
        buf.append(_LEAF)
        buf += struct.pack(">H", len(leaf.entries))
        buf += struct.pack(">I", 0 if leaf.next_leaf is None else leaf.next_leaf + 1)
        for key, (rpage, rslot) in leaf.entries:
            buf += self._serialize_key(key)
            buf += struct.pack(">IH", rpage, rslot)
        self._store(page_no, buf)

    def _write_internal(self, page_no: int, node: _Internal) -> None:
        buf = bytearray()
        buf.append(_INTERNAL)
        buf += struct.pack(">H", len(node.keys))
        for child in node.children:
            buf += struct.pack(">I", child)
        for key in node.keys:
            buf += self._serialize_key(key)
        self._store(page_no, buf)

    def _store(self, page_no: int, buf: bytearray) -> None:
        if len(buf) > self.pool.disk.page_size:
            raise BPTreeError("node overflows page after split — key too large")
        with PageGuard(self.pool, (self.file_id, page_no), write=True) as data:
            data[: len(buf)] = buf
            # zero the tail so stale bytes never alias a valid entry
            data[len(buf) :] = bytes(len(data) - len(buf))

    def _serialize_key(self, key: Any) -> bytes:
        if self.composite:
            return b"".join(
                serialize_key(k, t) for k, t in zip(key, self.dtypes)
            )
        return serialize_key(key, self.dtype)

    def _deserialize_key(self, view: bytes, pos: int):
        if self.composite:
            parts = []
            for _ in self.dtypes:
                value, pos = deserialize_key(view, pos)
                parts.append(value)
            return tuple(parts), pos
        return deserialize_key(view, pos)

    def _read_leaf(self, page_no: int) -> _Leaf:
        with PageGuard(self.pool, (self.file_id, page_no)) as data:
            if data[0] != _LEAF:
                raise BPTreeError(f"page {page_no} is not a leaf")
            (nkeys,) = struct.unpack_from(">H", data, 1)
            (next_raw,) = struct.unpack_from(">I", data, 3)
            pos = _LEAF_HEADER
            entries: List[Tuple[Any, RID]] = []
            view = bytes(data)
            for _ in range(nkeys):
                key, pos = self._deserialize_key(view, pos)
                rpage, rslot = struct.unpack_from(">IH", view, pos)
                pos += 6
                entries.append((key, (rpage, rslot)))
        return _Leaf(entries, None if next_raw == 0 else next_raw - 1)

    def _read_internal(self, page_no: int) -> _Internal:
        with PageGuard(self.pool, (self.file_id, page_no)) as data:
            if data[0] != _INTERNAL:
                raise BPTreeError(f"page {page_no} is not internal")
            (nkeys,) = struct.unpack_from(">H", data, 1)
            pos = _INTERNAL_HEADER
            view = bytes(data)
            children = []
            for _ in range(nkeys + 1):
                (child,) = struct.unpack_from(">I", view, pos)
                children.append(child)
                pos += 4
            keys = []
            for _ in range(nkeys):
                key, pos = self._deserialize_key(view, pos)
                keys.append(key)
        return _Internal(keys, children)

    # -- validation internals ------------------------------------------------------------

    def _validate_node(
        self, page_no: int, level: int, low: Any, high: Any
    ) -> None:
        if level == 1:
            leaf = self._read_leaf(page_no)
            for key, _ in leaf.entries:
                if low is not None and key_lt(key, low):
                    raise BPTreeError(f"leaf key {key!r} below separator {low!r}")
                if high is not None and not key_lt(key, high) and key != high:
                    # duplicates equal to the separator may sit on either side
                    if key_lt(high, key):
                        raise BPTreeError(
                            f"leaf key {key!r} above separator {high!r}"
                        )
            return
        node = self._read_internal(page_no)
        if len(node.children) != len(node.keys) + 1:
            raise BPTreeError("internal fanout mismatch")
        for i, key in enumerate(node.keys):
            if i > 0 and key_lt(key, node.keys[i - 1]):
                raise BPTreeError("internal keys out of order")
        bounds = [low] + node.keys + [high]
        for i, child in enumerate(node.children):
            self._validate_node(child, level - 1, bounds[i], bounds[i + 1])
