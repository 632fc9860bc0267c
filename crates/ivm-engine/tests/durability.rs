//! Durable-database integration tests: open/checkpoint/close lifecycle,
//! WAL-only recovery, corruption handling, and the in-memory/durable
//! equivalence contract.

use ivm_engine::{Database, Value};

/// Fresh scratch directory for one test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("openivm-durtest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn seed_workload(db: &mut Database) {
    db.execute("CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner VARCHAR, balance INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE events (tag VARCHAR, amount INTEGER)")
        .unwrap();
    db.execute(
        "INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 50), (3, 'cyd', 75), \
         (4, 'dee', 20)",
    )
    .unwrap();
    db.execute("CREATE INDEX idx_owner ON accounts (owner)")
        .unwrap();
    db.execute("DELETE FROM accounts WHERE id = 2").unwrap();
    db.execute("UPDATE accounts SET balance = balance + 5 WHERE id = 3")
        .unwrap();
    let values: Vec<String> = (0..50).map(|i| format!("('t{}', {i})", i % 7)).collect();
    db.execute(&format!("INSERT INTO events VALUES {}", values.join(", ")))
        .unwrap();
    db.execute("CREATE VIEW rich AS SELECT owner FROM accounts WHERE balance >= 75")
        .unwrap();
}

/// Rows *and* order: scans replay slot order, so a faithful recovery must
/// reproduce both.
fn observe(db: &mut Database) -> Vec<Vec<Vec<Value>>> {
    [
        "SELECT * FROM accounts",
        "SELECT * FROM events",
        "SELECT tag, SUM(amount) AS s FROM events GROUP BY tag ORDER BY tag",
        "SELECT * FROM rich",
    ]
    .iter()
    .map(|q| db.query(q).unwrap().rows)
    .collect()
}

#[test]
fn close_and_reopen_recovers_rows_and_order() {
    let dir = TempDir::new("reopen");
    let expected = {
        let mut db = Database::open(dir.path()).unwrap();
        assert!(db.is_durable());
        assert_eq!(db.data_dir(), Some(dir.path()));
        seed_workload(&mut db);
        let snapshot = observe(&mut db);
        db.close().unwrap();
        snapshot
    };
    let mut db = Database::open(dir.path()).unwrap();
    assert_eq!(observe(&mut db), expected);
    // Checkpointed state has no WAL to replay.
    assert_eq!(db.recovery_stats().unwrap().replayed_records, 0);
    // The tombstone from the DELETE survives: slot layout is preserved.
    let t = db.catalog().table("accounts").unwrap();
    assert_eq!(t.total_slots(), 4);
    assert_eq!(t.live_rows(), 3);
    assert_eq!(t.secondary_index_names(), vec!["idx_owner".to_string()]);
    // Recovered tables keep logging: mutate, drop without close, reopen.
    db.execute("INSERT INTO accounts VALUES (9, 'zoe', 1)")
        .unwrap();
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(db.query("SELECT * FROM accounts").unwrap().rows.len(), 4);
}

#[test]
fn wal_replay_recovers_uncheckpointed_state() {
    let dir = TempDir::new("walonly");
    let expected = {
        let mut db = Database::open(dir.path()).unwrap();
        seed_workload(&mut db);
        let snapshot = observe(&mut db);
        // No close(): everything after the initial (empty) checkpoint
        // lives only in the WAL.
        drop(db);
        snapshot
    };
    let mut db = Database::open(dir.path()).unwrap();
    assert!(db.recovery_stats().unwrap().replayed_records > 0);
    assert_eq!(observe(&mut db), expected);
}

#[test]
fn torn_wal_tail_recovers_committed_prefix() {
    let dir = TempDir::new("torn");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.close().unwrap();
    }
    {
        let mut db = Database::open(dir.path()).unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        drop(db);
    }
    // Cut the WAL mid-file: recovery must stop at a committed prefix —
    // cleanly, never with a panic.
    let wal = dir.path().join("wal.0001.log");
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - bytes.len() / 3]).unwrap();
    let db = Database::open(dir.path()).unwrap();
    let rows = db.query("SELECT a FROM t ORDER BY a").unwrap().rows;
    assert!(rows.len() < 10, "cut WAL cannot yield the full history");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Integer(i as i64), "prefix property");
    }
}

#[test]
fn corrupt_page_and_meta_are_clean_errors() {
    let dir = TempDir::new("corrupt");
    {
        let mut db = Database::open(dir.path()).unwrap();
        seed_workload(&mut db);
        db.close().unwrap();
    }
    // Flip a byte in the page file: checksum verification must turn it
    // into an `EngineError`, not a panic or silent garbage.
    let pages = dir.path().join("pages.db");
    let mut bytes = std::fs::read(&pages).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&pages, &bytes).unwrap();
    let err = Database::open(dir.path()).unwrap_err();
    assert!(
        err.to_string().contains("checksum") || err.to_string().contains("corrupt"),
        "{err}"
    );
}

#[test]
fn in_memory_and_durable_sessions_agree() {
    let dir = TempDir::new("equiv");
    let mut mem = Database::new();
    let mut dur = Database::open(dir.path()).unwrap();
    seed_workload(&mut mem);
    seed_workload(&mut dur);
    assert_eq!(observe(&mut mem), observe(&mut dur));
    // Statements that fail half-way must leave identical state too: the
    // second tuple violates the PK after the first was applied.
    let stmt = "INSERT INTO accounts VALUES (8, 'kim', 1), (8, 'kim', 1)";
    assert!(mem.execute(stmt).is_err());
    assert!(dur.execute(stmt).is_err());
    assert_eq!(observe(&mut mem), observe(&mut dur));
    dur.close().unwrap();
    // ... and the durable session's error-path state survives recovery.
    let mut dur = Database::open(dir.path()).unwrap();
    assert_eq!(observe(&mut mem), observe(&mut dur));
}

#[test]
fn wal_segments_rotate_stay_bounded_and_recycle() {
    let dir = TempDir::new("segments");
    let opts = ivm_engine::DurabilityOptions {
        wal_segment_bytes: 512,
        ..ivm_engine::DurabilityOptions::default()
    };
    let mut db = Database::open_with_options(dir.path(), opts).unwrap();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.checkpoint().unwrap();
    for i in 0..200 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let stats = db.wal_stats().unwrap();
    assert!(stats.rotations >= 2, "expected rotations, got {stats:?}");
    assert_eq!(stats.segments, stats.rotations + 1);
    let on_disk = || {
        let mut segs: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.starts_with("wal.") && n.ends_with(".log"))
            .collect();
        segs.sort();
        segs
    };
    let segs = on_disk();
    assert_eq!(segs.len() as u64, stats.segments, "{segs:?}");
    // Each sealed segment respects the bound plus at most one record.
    for seg in &segs[..segs.len() - 1] {
        let len = std::fs::metadata(dir.path().join(seg)).unwrap().len();
        assert!(len <= 512 + 4096, "segment {seg} is {len} bytes");
    }

    // A crash (drop without close) replays every segment in order.
    drop(db);
    let db = Database::open_with_options(dir.path(), opts).unwrap();
    let rows = db.query("SELECT COUNT(*) FROM t").unwrap().rows;
    assert_eq!(rows[0][0], Value::Integer(200));

    // Recovery checkpointed, which recycles the log to one segment.
    assert_eq!(on_disk(), vec!["wal.0001.log".to_string()]);
    assert_eq!(db.wal_stats().unwrap().segments, 1);
    db.close().unwrap();
}

#[test]
fn auto_checkpoint_bounds_the_wal() {
    let dir = TempDir::new("autockpt");
    let opts = ivm_engine::DurabilityOptions {
        wal_segment_bytes: 512,
        ..ivm_engine::DurabilityOptions::default()
    };
    let mut db = Database::open_with_options(dir.path(), opts).unwrap();
    db.set_auto_checkpoint(Some(2048));
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    // Plain statements first, then each one as its own atomic batch (the
    // shape of every intercepted DML, `ingest_deltas` and `refresh`).
    for i in 0..600 {
        let atomic = i >= 300;
        if atomic {
            db.begin_atomic();
        }
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        if atomic {
            db.end_atomic().unwrap();
        }
        // The WAL never holds more than the threshold plus one statement.
        let stats = db.wal_stats().unwrap();
        assert!(
            stats.bytes_written < 2048 + 1024,
            "statement {i}: WAL grew to {} bytes",
            stats.bytes_written
        );
    }
    // The auto-checkpoints also recycled segments along the way.
    let segs = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("wal.") && n.ends_with(".log"))
        .count();
    assert!(segs <= 5, "auto-checkpoint left {segs} segments");
    db.close().unwrap();
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Integer(600)
    );
}
