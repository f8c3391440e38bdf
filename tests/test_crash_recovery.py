"""Crash recovery: WAL replay, torn tails, checkpoints, DDL replay, and
subprocess kill-point sweeps.

Two layers of testing:

* in-process — open a ``data_dir`` database, write, *abandon it without
  close()* (the WAL is durable but no shutdown checkpoint is taken), and
  reopen: recovery must replay exactly the committed transactions.
* out-of-process — ``repro.qa.faults`` runs the seeded workload in a
  subprocess armed with a failpoint (``REPRO_FAILPOINTS=site=N:mode``),
  kills it mid-write, recovers, and checks the committed-prefix oracle.
  Tier-1 covers a smoke slice of kill points; the full sweep (every hit
  of every site × mode) runs under ``-m slow``.
"""

import os

import pytest

from repro import Database
from repro.qa import faults
from repro.wal import WAL_FILE, read_wal


def fresh(data_dir):
    db = Database(data_dir=data_dir)
    if not db.catalog.has_table("t"):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    return db


def rows_of(db):
    return db.query("SELECT id, v FROM t ORDER BY id").rows


class TestReplay:
    def test_commits_replayed_without_close(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db.execute("UPDATE t SET v = 21 WHERE id = 2")
        db.execute("DELETE FROM t WHERE id = 1")
        # abandon without close(): recovery must rebuild from WAL alone
        db2 = Database(data_dir=data_dir)
        assert rows_of(db2) == [(2, 21)]
        report = db2.last_recovery
        assert not report.checkpoint_found
        assert report.committed_txns >= 4  # CREATE + 3 DML autocommits
        assert report.uncommitted_txns == 0
        db2.close()

    def test_open_explicit_txn_discarded(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10)")
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (2, 20)")
        db.txn.writer.flush_all()  # records durable, COMMIT absent
        db2 = Database(data_dir=data_dir)
        assert rows_of(db2) == [(1, 10)]
        assert db2.last_recovery.uncommitted_txns == 1
        db2.close()

    def test_torn_tail_discarded(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("INSERT INTO t VALUES (2, 20)")
        db.txn.writer.flush_all()
        wal_path = os.path.join(data_dir, WAL_FILE)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as f:
            f.truncate(size - 3)  # tear the final frame
        db2 = Database(data_dir=data_dir)
        report = db2.last_recovery
        assert report.torn_bytes > 0
        # the torn record was part of txn 2's body-or-commit: that txn
        # must be wholly absent, the first wholly present
        assert rows_of(db2) in ([(1, 10)], [(1, 10), (2, 20)])
        assert rows_of(db2) == [(1, 10)]
        db2.close()

    def test_checkpoint_truncates_wal_and_recovers(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        before = os.path.getsize(os.path.join(data_dir, WAL_FILE))
        result = db.execute("CHECKPOINT")
        assert result.columns == ["checkpoint_lsn", "redo_lsn", "active_txns"]
        assert result.rows[0][2] == 0  # nothing in flight here
        after = os.path.getsize(os.path.join(data_dir, WAL_FILE))
        assert after < before
        db.execute("INSERT INTO t VALUES (4, 40)")
        db2 = Database(data_dir=data_dir)
        assert db2.last_recovery.checkpoint_found
        assert rows_of(db2) == [(1, 10), (2, 20), (3, 30), (4, 40)]
        db2.close()

    def test_lsns_filtered_by_checkpoint(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("CHECKPOINT")
        db.execute("INSERT INTO t VALUES (2, 20)")
        db.txn.writer.flush_all()
        records, _, torn = read_wal(os.path.join(data_dir, WAL_FILE))
        assert not torn
        db2 = Database(data_dir=data_dir)
        # only the post-checkpoint records replay
        assert db2.last_recovery.records_scanned == len(records)
        assert rows_of(db2) == [(1, 10), (2, 20)]
        db2.close()

    def test_ddl_index_and_analyze_replayed(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        db.execute("CREATE INDEX idx_v ON t (v)")
        db.execute("ANALYZE t")
        db.execute("CREATE VIEW v_t AS SELECT id FROM t WHERE v > 15")
        db2 = Database(data_dir=data_dir)
        report = db2.last_recovery
        assert report.indexes_rebuilt >= 2  # pk + idx_v
        assert report.tables_analyzed >= 1
        info = db2.catalog.table("t")
        assert any(ix.name == "idx_v" for ix in info.indexes.values())
        assert info.stats is not None
        assert db2.query("SELECT id FROM v_t").rows == [(2,)]
        assert db2.query("SELECT id FROM t WHERE v = 20").rows == [(2,)]
        db2.close()

    def test_drop_table_replayed(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("CREATE TABLE u (a INT)")
        db.execute("DROP TABLE u")
        db2 = Database(data_dir=data_dir)
        assert db2.catalog.has_table("t")
        assert not db2.catalog.has_table("u")
        db2.close()

    def test_fuzzy_checkpoint_does_not_block_open_txn(self, tmp_path):
        """CHECKPOINT runs to completion while a transaction holds an
        uncommitted write — no quiesce, no LockTimeout — and the
        uncommitted rows never reach the snapshot."""
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = -1 WHERE id = 1")
        result = db.execute("CHECKPOINT")
        last_lsn, redo_lsn, active = result.rows[0]
        assert active == 1  # the open txn is in the ATT
        assert redo_lsn <= last_lsn  # its dirty page forces early redo
        # crash here: the uncommitted update must not survive
        db.txn.writer.close()
        db2 = Database(data_dir=data_dir)
        assert rows_of(db2) == [(1, 10), (2, 20)]
        db2.close()

    def test_commit_after_fuzzy_checkpoint_survives(self, tmp_path):
        """A transaction open *across* the checkpoint that commits
        afterwards recovers fully: its pages were skipped by the flush
        pass (stale in the snapshot) and rebuilt by redo from redo_lsn."""
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        s = db.create_session()
        s.execute("BEGIN")
        s.execute("UPDATE t SET v = 11 WHERE id = 1")
        db.execute("CHECKPOINT")
        s.execute("INSERT INTO t VALUES (3, 30)")
        s.execute("COMMIT")
        db.txn.writer.flush_all()
        db2 = Database(data_dir=data_dir)
        assert db2.last_recovery.checkpoint_found
        assert rows_of(db2) == [(1, 11), (2, 20), (3, 30)]
        db2.close()

    def test_close_then_reopen_is_clean(self, tmp_path):
        data_dir = str(tmp_path / "db")
        db = fresh(data_dir)
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.close()
        db2 = Database(data_dir=data_dir)
        report = db2.last_recovery
        assert report.checkpoint_found
        assert report.records_applied == 0  # shutdown checkpoint: empty WAL
        assert rows_of(db2) == [(1, 10)]
        db2.close()


class TestWorkloadOracle:
    def test_reference_rows_replays_prefix(self):
        full = faults.reference_rows(seed=3, committed=10)
        partial = faults.reference_rows(seed=3, committed=5)
        assert isinstance(full, list)
        assert full != partial or len(full) == len(partial)

    def test_clean_run_matches_reference(self, tmp_path):
        data_dir = str(tmp_path / "db")
        acks = str(tmp_path / "acks.txt")
        faults.run_workload(data_dir, seed=5, txns=8, acks_path=acks)
        summary = faults.verify_recovery(data_dir, 5, 8, acks)
        assert summary["committed"] == 8
        assert summary["acked"] == 8

    def test_torn_ack_line_ignored(self, tmp_path):
        acks = tmp_path / "acks.txt"
        acks.write_bytes(b"1\n2\n3")  # final line torn (no newline)
        assert faults.read_acks(str(acks)) == [1, 2]


class TestCrashPoints:
    """Subprocess kill-point smoke: a handful of points per site."""

    SEED = 11
    TXNS = 9

    @pytest.fixture(scope="class")
    def hit_counts(self, tmp_path_factory):
        base = str(tmp_path_factory.mktemp("crash-count"))
        return faults.count_workload_hits(base, self.SEED, self.TXNS)

    def test_all_sites_fire(self, hit_counts):
        assert hit_counts.get("wal.append", 0) > 0
        assert hit_counts.get("wal.fsync", 0) > 0
        assert hit_counts.get("checkpoint.page", 0) > 0
        # the fuzzy-checkpoint sites fire once per CHECKPOINT (flush:
        # once per committed-dirty page written back)
        assert hit_counts.get("checkpoint.begin", 0) > 0
        assert hit_counts.get("checkpoint.flush", 0) > 0
        assert hit_counts.get("checkpoint.end", 0) > 0

    def test_crash_smoke(self, hit_counts, tmp_path):
        points = faults.sweep_points(hit_counts, max_points=1)
        assert points, "no kill points derived from counting run"
        killed = 0
        for site, n, mode in points:
            summary = faults.run_crash_point(
                str(tmp_path), self.SEED, self.TXNS, site, n, mode
            )
            assert summary["committed"] >= summary["acked"]
            if not summary["skipped"]:
                killed += 1
        assert killed > 0, "no armed failpoint actually fired"

    def test_kill_mid_commit_keeps_prefix(self, hit_counts, tmp_path):
        # a mid-run fsync sits inside some transaction's COMMIT; killing
        # right before it must lose that transaction and keep the prefix
        n = max(1, hit_counts["wal.fsync"] // 2)
        summary = faults.run_crash_point(
            str(tmp_path), self.SEED, self.TXNS, "wal.fsync", n, "before"
        )
        assert not summary["skipped"]
        assert summary["committed"] < self.TXNS


class TestIndexedCrashPoints:
    """The indexed variant: ``kv(k)`` carries a B+-tree and enough rows
    that UPDATE/DELETE find their victims by index probe, so recovery
    replays index-found writes."""

    SEED = 11
    TXNS = 9

    @pytest.fixture(scope="class")
    def hit_counts(self, tmp_path_factory):
        base = str(tmp_path_factory.mktemp("crash-count-indexed"))
        return faults.count_workload_hits(
            base, self.SEED, self.TXNS, indexed=True
        )

    def test_clean_run_matches_reference(self, tmp_path):
        data_dir = str(tmp_path / "db")
        acks = str(tmp_path / "acks.txt")
        faults.run_workload(
            data_dir, self.SEED, self.TXNS, acks_path=acks, indexed=True
        )
        summary = faults.verify_recovery(
            data_dir, self.SEED, self.TXNS, acks, indexed=True
        )
        assert summary["committed"] == self.TXNS
        assert summary["rows"] > faults.INDEXED_FILLER

    def test_crash_slice(self, hit_counts, tmp_path):
        # the mid-run hit of every site x mode, past the first
        # transaction, so index-found DML precedes most kills
        points = [
            point
            for point in faults.sweep_points(hit_counts, max_points=2)
            if point[1] > 1
        ]
        assert points
        killed = 0
        for site, n, mode in points:
            summary = faults.run_crash_point(
                str(tmp_path), self.SEED, self.TXNS, site, n, mode,
                indexed=True,
            )
            assert summary["committed"] >= summary["acked"]
            if not summary["skipped"]:
                killed += 1
        assert killed > 0, "no armed failpoint actually fired"


@pytest.mark.slow
class TestFullSweep:
    def test_every_kill_point(self, tmp_path):
        results = faults.run_crash_sweep(
            str(tmp_path), seed=1, txns=12, max_points=None
        )
        assert results
        fired = [r for r in results if not r["skipped"]]
        assert fired, "sweep never killed the workload"

    def test_every_kill_point_indexed(self, tmp_path):
        results = faults.run_crash_sweep(
            str(tmp_path), seed=1, txns=12, max_points=None, indexed=True
        )
        fired = [r for r in results if not r["skipped"]]
        assert fired, "sweep never killed the workload"
