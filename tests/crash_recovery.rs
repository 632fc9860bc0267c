//! Crash-recovery fault injection.
//!
//! Four failure modes against a durable database, each checked against a
//! shadow in-memory oracle (or an arithmetic prefix invariant):
//!
//! 1. **WAL truncation and bit-flip sweep** — run a mixed
//!    ingest/refresh/checkpoint workload, snapshot the oracle after every
//!    statement, then cut the surviving WAL at randomized byte offsets.
//!    Every cut must recover to *some committed prefix* of the workload,
//!    and the recovered prefix must be monotone in the cut position. At
//!    the same offsets one bit of the whole log is flipped instead: that
//!    must recover some committed prefix too, or — for a flip in the
//!    header's magic or epoch — fail with a clean error.
//! 2. **Torn write** — append garbage to the WAL tail; recovery must
//!    ignore it and yield the full committed state.
//! 3. **Unpublished checkpoint** — a table file no `catalog.meta` names
//!    is deleted at reopen, never loaded.
//! 4. **SIGKILL** (unix only) — a child process ingests rows and records
//!    its committed progress; the parent kills it mid-ingest, reopens the
//!    directory, and asserts the recovered rows are exactly a committed
//!    prefix at least as long as the last progress the child reported.
//!
//! A fifth case runs the `openivm --wal-stats` binary on a crashed
//! directory and checks that it reports the replay.
//!
//! No failure mode may panic: torn tails and truncated logs decode to
//! clean `EngineError`s or silently stop at the last commit marker.

use openivm::ivm_core::{IvmFlags, IvmSession};
use openivm::ivm_engine::{Database, Value};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("openivm-crash-{tag}-{}", std::process::id()));
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

/// Deterministic xorshift so the "randomized" cut points are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The observable state: the base table (rows AND order — replay must
/// reproduce the slot layout) plus the materialized view. The view is
/// compared *sorted*: its physical row order depends on how many refresh
/// rounds produced it, and a recovered session legitimately catches up in
/// one round where the oracle took many.
fn observe_session(s: &mut IvmSession) -> Vec<Vec<Vec<Value>>> {
    let base = s.database().query("SELECT * FROM groups").unwrap().rows;
    let mut view = s.query_view("qg").unwrap().rows;
    view.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    vec![base, view]
}

/// The workload statements: ingest interleaved with view refreshes. Each
/// entry is applied to both the durable session and the oracle.
fn workload() -> Vec<String> {
    let mut stmts = Vec::new();
    for i in 0..30i64 {
        stmts.push(format!(
            "INSERT INTO groups VALUES ('g{}', {})",
            i % 5,
            i * 7 % 23
        ));
        if i % 7 == 3 {
            stmts.push(format!("DELETE FROM groups WHERE group_value = {}", i % 11));
        }
        if i % 5 == 2 {
            stmts.push(format!(
                "UPDATE groups SET group_value = group_value + 1 WHERE group_index = 'g{}'",
                i % 5
            ));
        }
    }
    stmts
}

fn setup_session(s: &mut IvmSession) {
    s.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    s.execute(
        "CREATE MATERIALIZED VIEW qg AS SELECT group_index, SUM(group_value) AS total \
         FROM groups GROUP BY group_index",
    )
    .unwrap();
}

#[test]
fn wal_cut_sweep_recovers_a_monotone_committed_prefix() {
    let dir = TempDir::new("sweep");
    // Shadow oracle: the same workload in memory, snapshotted after every
    // statement. Snapshot 0 is the post-setup state.
    let mut oracle = IvmSession::new(IvmFlags::paper_defaults());
    setup_session(&mut oracle);
    let mut snapshots = vec![observe_session(&mut oracle)];

    {
        let mut s = IvmSession::open(dir.path(), IvmFlags::paper_defaults()).unwrap();
        setup_session(&mut s);
        // Checkpoint after setup so the sweep only cuts ingest records —
        // every cut point then lands between (or inside) DML statements.
        s.checkpoint().unwrap();
        for stmt in workload() {
            s.execute(&stmt).unwrap();
            oracle.execute(&stmt).unwrap();
            snapshots.push(observe_session(&mut oracle));
        }
        drop(s); // crash: no close(), the WAL carries everything
    }

    let full = std::fs::read(dir.path().join("wal.log")).unwrap();
    let scratch = TempDir::new("sweep-scratch");
    // Rebuild the crashed directory with `log` as its WAL and reopen it.
    let reopen = |log: &[u8]| {
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name != "wal.log" {
                std::fs::copy(dir.path().join(&name), scratch.path().join(&name)).unwrap();
            }
        }
        std::fs::write(scratch.path().join("wal.log"), log).unwrap();
        IvmSession::open(scratch.path(), IvmFlags::paper_defaults())
            .map(|mut s| observe_session(&mut s))
    };
    let prefix_of = |got: &Vec<Vec<Vec<Value>>>| snapshots.iter().position(|snap| snap == got);

    let mut rng = Rng(0x5eed_cafe);
    let mut cuts: Vec<usize> = (0..40).map(|_| rng.next() as usize % full.len()).collect();
    cuts.push(0);
    cuts.push(full.len());
    cuts.sort_unstable();

    let mut last_prefix = 0usize;
    for cut in cuts {
        let got = reopen(&full[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let prefix = prefix_of(&got)
            .unwrap_or_else(|| panic!("cut {cut}: recovered state matches no committed prefix"));
        assert!(
            prefix >= last_prefix,
            "cut {cut}: prefix {prefix} regressed below {last_prefix}"
        );
        last_prefix = prefix;

        // The same offset, one bit flipped in the whole log instead.
        if cut < full.len() {
            let mut flipped = full.clone();
            flipped[cut] ^= 1 << (rng.next() % 8);
            match reopen(&flipped) {
                Ok(got) => {
                    assert!(cut >= 8, "flip at {cut}: a bad magic was accepted");
                    assert!(
                        prefix_of(&got).is_some(),
                        "flip at {cut}: recovered state matches no committed prefix"
                    );
                }
                // The 16-byte header: a bad magic, or an epoch ahead of
                // the checkpoint's.
                Err(e) => assert!(cut < 16, "flip at {cut}: {e}"),
            }
        }
    }
    assert_eq!(
        last_prefix,
        snapshots.len() - 1,
        "an uncut WAL must recover the full workload"
    );
}

#[test]
fn torn_write_garbage_tail_is_ignored() {
    let dir = TempDir::new("torn");
    {
        let mut s = IvmSession::open(dir.path(), IvmFlags::paper_defaults()).unwrap();
        setup_session(&mut s);
        for stmt in workload() {
            s.execute(&stmt).unwrap();
        }
        drop(s);
    }
    let mut oracle = IvmSession::new(IvmFlags::paper_defaults());
    setup_session(&mut oracle);
    for stmt in workload() {
        oracle.execute(&stmt).unwrap();
    }
    let mut expected = observe_session(&mut oracle);

    // A torn write leaves a partial record, possibly preceded by a partial
    // length header of plausible-looking bytes.
    let wal_path = dir.path().join("wal.log");
    let mut rng = Rng(0xdead_beef);
    for garbage_len in [1usize, 7, 64, 4096] {
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend((0..garbage_len).map(|_| rng.next() as u8));
        std::fs::write(&wal_path, &bytes).unwrap();
        let mut s = IvmSession::open(dir.path(), IvmFlags::paper_defaults()).unwrap();
        assert_eq!(
            observe_session(&mut s),
            expected,
            "garbage tail of {garbage_len} bytes must not change recovery"
        );
        // Recovery checkpoints, so restore the crashed layout for the
        // next iteration by re-crashing one no-op ingest.
        s.execute("INSERT INTO groups VALUES ('g0', 0)").unwrap();
        s.execute("DELETE FROM groups WHERE group_value = 0 AND group_index = 'g0'")
            .unwrap();
        drop(s);
        oracle
            .execute("INSERT INTO groups VALUES ('g0', 0)")
            .unwrap();
        oracle
            .execute("DELETE FROM groups WHERE group_value = 0 AND group_index = 'g0'")
            .unwrap();
        expected.clone_from(&observe_session(&mut oracle));
    }
}

/// A checkpoint that crashed before publishing leaves a table file no
/// `catalog.meta` names (`table.<epoch>.<ordinal>.dat`, of an epoch past
/// the published one). Reopening must delete it without reading it: its
/// garbage bytes would be a corrupt-file error if loaded.
#[test]
fn unpublished_table_file_is_deleted_not_loaded() {
    let dir = TempDir::new("orphan");
    let mut oracle = IvmSession::new(IvmFlags::paper_defaults());
    setup_session(&mut oracle);
    {
        let mut s = IvmSession::open(dir.path(), IvmFlags::paper_defaults()).unwrap();
        setup_session(&mut s);
        for stmt in workload() {
            s.execute(&stmt).unwrap();
            oracle.execute(&stmt).unwrap();
        }
        s.checkpoint().unwrap();
    }
    let orphan = dir.path().join("table.999999.0.dat");
    std::fs::write(&orphan, b"bytes of a checkpoint that never published").unwrap();

    let mut s = IvmSession::open(dir.path(), IvmFlags::paper_defaults()).unwrap();
    assert!(
        !orphan.exists(),
        "recovery must delete the unpublished file"
    );
    assert_eq!(observe_session(&mut s), observe_session(&mut oracle));
}

/// Child-process entry point for the SIGKILL test: gated on an env var so
/// the function is inert when the harness runs it as a normal test.
#[test]
fn sigkill_child_entry() {
    let Ok(dir) = std::env::var("OPENIVM_CRASH_CHILD_DIR") else {
        return;
    };
    let progress = std::path::Path::new(&dir).join("progress");
    let mut db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE seq (n INTEGER)").unwrap();
    for i in 0..100_000i64 {
        db.execute(&format!("INSERT INTO seq VALUES ({i})"))
            .unwrap();
        // The statement is committed (fsync'd) once execute returns; only
        // then may the progress marker advance.
        std::fs::write(&progress, format!("{}", i + 1)).unwrap();
        if i % 50 == 0 {
            db.checkpoint().unwrap();
        }
    }
    std::process::exit(0);
}

#[cfg(unix)]
#[test]
fn sigkill_mid_ingest_recovers_a_committed_prefix() {
    let dir = TempDir::new("sigkill");
    let progress_path = dir.path().join("progress");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(&exe)
        .args(["sigkill_child_entry", "--exact", "--nocapture"])
        .env("OPENIVM_CRASH_CHILD_DIR", dir.path())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait until the child has committed a meaningful amount of work.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let committed = loop {
        if let Ok(s) = std::fs::read_to_string(&progress_path) {
            if let Ok(n) = s.trim().parse::<i64>() {
                if n >= 200 {
                    break n;
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    child.kill().unwrap(); // SIGKILL: no destructors, no flush
    child.wait().unwrap();

    // The progress file may itself be torn; re-read what it said last.
    let last_reported: i64 = std::fs::read_to_string(&progress_path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(committed);
    // A marker is written only after its statement committed, but the
    // child may have committed more statements than it got to report.
    let floor = committed.max(last_reported.saturating_sub(1));

    let db = Database::open(dir.path()).unwrap();
    let rows = db.query("SELECT n FROM seq ORDER BY n").unwrap().rows;
    assert!(
        rows.len() as i64 >= floor,
        "recovered {} rows, child reported {floor} committed",
        rows.len()
    );
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Integer(i as i64), "committed prefix");
    }
}

/// `openivm --data-dir <dir> --wal-stats` reports the recovery it ran: on
/// a directory crashed after N committed inserts, at least N records
/// replayed.
#[test]
fn wal_stats_reports_the_replay_of_a_crashed_directory() {
    const INSERTS: usize = 25;
    let dir = TempDir::new("walstats");
    {
        let mut db = Database::open(dir.path()).unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        for i in 0..INSERTS {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        drop(db); // crash: no close(), the WAL carries every insert
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_openivm"))
        .arg("--data-dir")
        .arg(dir.path())
        .arg("--wal-stats")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let field = |name: &str| -> u64 {
        stdout
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {name} in {stdout:?}"))
            .parse()
            .unwrap()
    };
    assert!(field("replayed_records") >= INSERTS as u64, "{stdout}");
    assert!(field("wal_bytes") > 16, "{stdout}");
    assert!(stdout.contains("poisoned=false"), "{stdout}");
}
