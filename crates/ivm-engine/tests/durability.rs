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

/// The `idx_owner` definition [`seed_workload`] made survived recovery:
/// its name is still taken, and it drops exactly once.
fn drop_recovered_index_def(db: &mut Database) {
    let err = db
        .execute("CREATE INDEX idx_owner ON accounts (owner)")
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    db.execute("DROP INDEX idx_owner").unwrap();
    assert!(db.execute("DROP INDEX idx_owner").is_err());
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
    drop_recovered_index_def(&mut db);
    // Recovered tables keep logging: mutate, drop without close, reopen.
    db.execute("INSERT INTO accounts VALUES (9, 'zoe', 1)")
        .unwrap();
    drop(db);
    let mut db = Database::open(dir.path()).unwrap();
    assert_eq!(db.query("SELECT * FROM accounts").unwrap().rows.len(), 4);
    // ... the index drop among them.
    db.execute("CREATE INDEX idx_owner ON accounts (owner)")
        .unwrap();
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
    drop_recovered_index_def(&mut db);
}

/// A multi-row UPDATE that moves keys onto each other is logged as one
/// `Update` record per row; replaying them in order, from the WAL alone
/// and again after a checkpoint, reaches the state the statement left,
/// key index included.
#[test]
fn key_moving_update_replays_to_the_same_state() {
    let dir = TempDir::new("key-move");
    let keyed = |db: &mut Database| -> Vec<Vec<Value>> {
        let mut out = db.query("SELECT id, v FROM t ORDER BY id").unwrap().rows;
        for id in [1, 2, 5, 6, 7] {
            let sql = format!("SELECT id, v FROM t WHERE id = {id}");
            out.extend(db.query(&sql).unwrap().rows);
        }
        out
    };
    let expected = {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (5, 50), (6, 60)")
            .unwrap();
        let r = db.execute("UPDATE t SET id = id + 1").unwrap();
        assert_eq!(r.rows_affected, 3);
        drop(db);
        let int = |pairs: &[(i64, i64)]| -> Vec<Vec<Value>> {
            pairs
                .iter()
                .map(|&(id, v)| vec![Value::Integer(id), Value::Integer(v)])
                .collect()
        };
        let mut expected = int(&[(2, 10), (6, 50), (7, 60)]);
        expected.extend(int(&[(2, 10), (6, 50), (7, 60)]));
        expected
    };
    for reopen in 0..2 {
        let mut db = Database::open(dir.path()).unwrap();
        assert_eq!(keyed(&mut db), expected, "reopen {reopen}");
        let err = db.execute("INSERT INTO t VALUES (6, 0)").unwrap_err();
        assert!(err.to_string().contains("duplicate key"), "{err}");
        db.close().unwrap();
    }
}

/// A key or an index definition added after a checkpoint changes no row,
/// so the table's file is not rewritten; the next checkpoint's meta must
/// still record both.
#[test]
fn key_and_index_defs_added_after_a_checkpoint_survive_close() {
    let dir = TempDir::new("ddl-after-ckpt");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 5), (2, 5)").unwrap();
        db.checkpoint().unwrap();
        db.execute("CREATE INDEX t_b ON t (b)").unwrap();
        db.execute("CREATE UNIQUE INDEX t_a ON t (a)").unwrap();
        db.close().unwrap();
    }
    let mut db = Database::open(dir.path()).unwrap();
    let err = db.execute("CREATE INDEX t_b ON t (b)").unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    let err = db.execute("INSERT INTO t VALUES (1, 6)").unwrap_err();
    assert!(err.to_string().contains("duplicate key"), "{err}");
}

/// The previous format stored a uniqueness byte in every index record, so
/// a directory it wrote is refused with a clean error, never misread.
#[test]
fn previous_format_headers_are_refused() {
    for (file, old_magic, expect) in [
        ("catalog.meta", b"OIVMMET3", "corrupt catalog meta"),
        ("wal.log", b"OIVMWAL1", "bad WAL magic"),
    ] {
        let dir = crashed_with_log(&format!("old-{file}"));
        let path = dir.path().join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(old_magic);
        std::fs::write(&path, bytes).unwrap();
        let err = Database::open(dir.path()).unwrap_err();
        assert!(err.to_string().contains(expect), "{file}: {err}");
    }
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
    let wal = dir.path().join("wal.log");
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
    // Flip a byte mid-way through the largest table file: checksum
    // verification must turn it into an `EngineError`, not a panic or
    // silent garbage.
    let table_file = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("table.")
        })
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .expect("a table file");
    let mut bytes = std::fs::read(&table_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&table_file, &bytes).unwrap();
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

/// The data directory's file names, sorted.
fn files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn crash_replays_every_statement_from_one_log_file() {
    let dir = TempDir::new("onelog");
    let mut db = Database::open(dir.path()).unwrap();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("CREATE TABLE u (b INTEGER)").unwrap();
    db.checkpoint().unwrap();
    for i in 0..200 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    // A crash (drop without close) replays every statement.
    drop(db);
    let db = Database::open(dir.path()).unwrap();
    let rows = db.query("SELECT COUNT(*) FROM t").unwrap().rows;
    assert_eq!(rows[0][0], Value::Integer(200));
    assert_eq!(db.recovery_stats().unwrap().replayed_records, 200);

    // Recovery checkpointed: the meta, the log and one file per table.
    let names = files(dir.path());
    assert_eq!(names.len(), 4, "{names:?}");
    assert_eq!(names[0], "catalog.meta");
    assert!(names[1].starts_with("table.") && names[1].ends_with(".dat"));
    assert!(names[2].starts_with("table.") && names[2].ends_with(".dat"));
    assert_eq!(names[3], "wal.log");
    db.close().unwrap();
}

/// A directory whose checkpoint holds rows 0..3 of `t` and whose log
/// holds two more committed inserts, left as a crash leaves it.
fn crashed_with_log(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let mut db = Database::open(dir.path()).unwrap();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (0), (1), (2)").unwrap();
    db.checkpoint().unwrap();
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    drop(db);
    dir
}

/// The epoch in bytes 8..16 of a `catalog.meta` or `wal.log` header.
fn epoch(path: &std::path::Path) -> u64 {
    let bytes = std::fs::read(path).unwrap();
    u64::from_le_bytes(bytes[8..16].try_into().unwrap())
}

fn set_epoch(path: &std::path::Path, epoch: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[8..16].copy_from_slice(&epoch.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// `SELECT COUNT(*) FROM t` and the records the open replayed.
fn count_and_replayed(dir: &TempDir) -> (Value, u64) {
    let db = Database::open(dir.path()).unwrap();
    let count = db.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0].clone();
    (count, db.recovery_stats().unwrap().replayed_records)
}

/// A crash between the meta rename and the log reset leaves a log one
/// epoch behind the meta, whose effects are inside the checkpoint.
#[test]
fn wal_one_epoch_behind_the_meta_is_discarded() {
    let dir = crashed_with_log("epoch-behind");
    let (wal, meta) = (dir.path().join("wal.log"), dir.path().join("catalog.meta"));
    assert_eq!(epoch(&wal), epoch(&meta), "a crash leaves the log in step");
    set_epoch(&wal, epoch(&meta) - 1);
    assert_eq!(count_and_replayed(&dir), (Value::Integer(3), 0));
}

/// No crash window leaves a log ahead of the meta.
#[test]
fn wal_one_epoch_ahead_of_the_meta_is_a_clean_error() {
    let dir = crashed_with_log("epoch-ahead");
    let wal = dir.path().join("wal.log");
    set_epoch(&wal, epoch(&dir.path().join("catalog.meta")) + 1);
    let err = Database::open(dir.path()).unwrap_err();
    assert!(err.to_string().contains("corrupt durable state"), "{err}");
}

/// A crash before the first reset finished leaves a log shorter than its
/// 16-byte header; a missing log is what a crash before it was created
/// leaves. Neither has anything to replay.
#[test]
fn headerless_or_missing_wal_replays_nothing() {
    for cut in [0usize, 1, 8, 15] {
        let dir = crashed_with_log(&format!("headerless-{cut}"));
        let wal = dir.path().join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..cut]).unwrap();
        assert_eq!(
            count_and_replayed(&dir),
            (Value::Integer(3), 0),
            "cut {cut}"
        );
    }
    let dir = crashed_with_log("missing");
    std::fs::remove_file(dir.path().join("wal.log")).unwrap();
    assert_eq!(count_and_replayed(&dir), (Value::Integer(3), 0));
    assert!(dir.path().join("wal.log").exists(), "open creates the log");
}

#[test]
fn auto_checkpoint_bounds_the_wal() {
    let dir = TempDir::new("autockpt");
    let mut db = Database::open(dir.path()).unwrap();
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
    db.close().unwrap();
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Integer(600)
    );
}
