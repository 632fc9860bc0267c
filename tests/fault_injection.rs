//! Exhaustive disk-fault sweep.
//!
//! A probe pass runs a canonical ingest → refresh → checkpoint → reopen
//! workload under an observing [`FaultPlan`] to count every storage I/O
//! operation it issues, per operation class. The sweep then re-runs the
//! workload once per (fault kind × operation index), injecting exactly
//! one fault at that index, and asserts the degradation contract:
//!
//! - **zero panics** — every injected fault surfaces as a clean
//!   `EngineError` (or is absorbed by the transient-retry layer);
//! - **no acknowledged-commit loss** — reopening the directory with the
//!   fault cleared recovers a contiguous committed prefix containing
//!   every statement that was acknowledged before the fault;
//! - **usable aftermath** — after a mid-workload error the session still
//!   answers queries; if the WAL was poisoned the database is read-only
//!   degraded (DML refused with a clean error, `close()` still returns)
//!   rather than wedged.
//!
//! Transient (EINTR-class) faults are special-cased: the retry layer
//! must absorb every single one, so those runs must finish with the full
//! workload acknowledged.
//!
//! The fault plan is process-global, so every test here serializes on
//! one mutex and scopes its rules to its own unique directory name.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use openivm::ivm_engine::{
    set_fault_plan, Database, FaultKind, FaultPlan, OpClass, Trigger, Value,
};

/// Serializes tests that install a global fault plan.
fn plan_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("openivm-fault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    /// The unique path substring fault rules scope themselves to.
    fn pattern(&self) -> String {
        self.0.file_name().unwrap().to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const INSERTS: i64 = 12;

/// What one faulted workload run acknowledged and how it ended.
struct Outcome {
    /// Insert values whose statements returned `Ok` (acknowledged).
    acked: Vec<i64>,
    /// `Some(step, error)` if a step failed; `None` for a clean run.
    error: Option<(String, String)>,
}

/// The canonical workload: create, ingest, refresh the aggregate view of
/// the ingest (a query — refresh is query-shaped here), checkpoint,
/// ingest more, close, reopen (recovery reads), verify, close.
///
/// On the first error the run stops, but first asserts the session is
/// still *usable*: queries answer, and in degraded mode DML is refused
/// cleanly while `close()` still returns.
fn run_workload(dir: &Path) -> Outcome {
    let mut acked = Vec::new();
    let fail = |step: &str, e: String| Some((step.to_string(), e));

    let mut db = match Database::open(dir) {
        Ok(db) => db,
        Err(e) => {
            return Outcome {
                acked,
                error: fail("open", e.to_string()),
            }
        }
    };
    let mut table_exists = false;
    let error;
    'workload: {
        if let Err(e) = db.execute("CREATE TABLE t (a INTEGER)") {
            error = fail("create", e.to_string());
            break 'workload;
        }
        table_exists = true;
        for i in 0..INSERTS {
            match db.execute(&format!("INSERT INTO t VALUES ({i})")) {
                Ok(_) => acked.push(i),
                Err(e) => {
                    error = fail("insert", e.to_string());
                    break 'workload;
                }
            }
            if i == INSERTS / 2 {
                // Refresh: re-derive the running aggregate mid-ingest.
                if let Err(e) = db.query("SELECT COUNT(*), SUM(a) FROM t") {
                    error = fail("refresh", e.to_string());
                    break 'workload;
                }
                let before = table_files(dir);
                if let Err(e) = db.checkpoint() {
                    if e.to_string().contains(".dat") {
                        // It failed writing a table file: that file is
                        // gone already, and the retry publishes one.
                        assert_eq!(table_files(dir), before, "{e}");
                        db.checkpoint()
                            .unwrap_or_else(|e2| panic!("retry after {e}: {e2}"));
                        assert_eq!(table_files(dir), before + 1, "{e}");
                    }
                    error = fail("checkpoint", e.to_string());
                    break 'workload;
                }
            }
        }
        match db.close() {
            Ok(()) => {}
            Err(e) => {
                return Outcome {
                    acked,
                    error: fail("close", e.to_string()),
                }
            }
        }
        // Reopen while the plan is still armed: recovery's reads are
        // part of the swept operation space.
        let reopened = match Database::open(dir) {
            Ok(db) => db,
            Err(e) => {
                return Outcome {
                    acked,
                    error: fail("reopen", e.to_string()),
                }
            }
        };
        match reopened.query("SELECT COUNT(*) FROM t") {
            Ok(r) => assert_eq!(r.rows[0][0], Value::Integer(INSERTS)),
            Err(e) => {
                return Outcome {
                    acked,
                    error: fail("reopen-query", e.to_string()),
                }
            }
        }
        match reopened.close() {
            Err(e) => {
                return Outcome {
                    acked,
                    error: fail("reopen-close", e.to_string()),
                }
            }
            Ok(()) => return Outcome { acked, error: None },
        }
    }

    // A step failed with the session still in hand: the degradation
    // contract says it must stay usable.
    if table_exists {
        let q = db.query("SELECT COUNT(*) FROM t");
        assert!(q.is_ok(), "query after fault must work, got {q:?}");
    }
    if db.is_degraded() {
        let dml = db.execute("INSERT INTO t VALUES (999)").unwrap_err();
        assert!(
            dml.to_string().contains("read-only"),
            "degraded DML must name read-only mode: {dml}"
        );
        let q = db.query("SELECT 1 WHERE 1 = 0");
        assert!(q.is_ok(), "degraded queries must still run, got {q:?}");
        db.close()
            .expect("close of a degraded database must succeed");
    } else {
        // Not degraded: the one-shot fault has passed, so a retry of the
        // failed operation class must eventually succeed (checkpoints
        // are retriable by construction).
        let _ = db.checkpoint();
        drop(db);
    }
    Outcome { acked, error }
}

/// The number of `table.*.dat` files in `dir`.
fn table_files(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("table.") && name.ends_with(".dat")
        })
        .count()
}

/// Reopen with no faults installed and assert the recovered table is a
/// contiguous committed prefix containing every acknowledged insert.
fn assert_committed_prefix(dir: &Path, acked: &[i64], ctx: &str) {
    let db = match Database::open(dir) {
        Ok(db) => db,
        Err(e) => panic!("{ctx}: reopen after fault cleared must recover, got {e}"),
    };
    if db.query("SELECT COUNT(*) FROM t").is_err() {
        // The CREATE itself was never acknowledged; an absent table is a
        // legal committed prefix only in that case.
        assert!(
            acked.is_empty(),
            "{ctx}: table lost after {} acknowledged inserts",
            acked.len()
        );
        return;
    }
    let rows = db.query("SELECT a FROM t ORDER BY a").unwrap().rows;
    let got: Vec<i64> = rows
        .iter()
        .map(|r| match &r[0] {
            Value::Integer(v) => *v,
            other => panic!("{ctx}: non-integer row {other:?}"),
        })
        .collect();
    let prefix: Vec<i64> = (0..got.len() as i64).collect();
    assert_eq!(
        got, prefix,
        "{ctx}: recovered rows are not a contiguous prefix"
    );
    assert!(
        got.len() >= acked.len(),
        "{ctx}: acknowledged-commit loss — {} acked, {} recovered",
        acked.len(),
        got.len()
    );
}

#[test]
fn fault_sweep_over_every_io_op_is_panic_free_and_loses_no_commit() {
    let _guard = plan_lock().lock().unwrap_or_else(|e| e.into_inner());

    // Probe pass: count the workload's I/O operations per class.
    let counts: Vec<(OpClass, u64)> = {
        let dir = TempDir::new("probe");
        let probe = Arc::new(FaultPlan::observing(dir.pattern()));
        let prev = set_fault_plan(Some(probe.clone()));
        let outcome = run_workload(dir.path());
        set_fault_plan(prev);
        assert!(
            outcome.error.is_none(),
            "probe run failed: {:?}",
            outcome.error
        );
        OpClass::ALL
            .iter()
            .map(|&c| (c, probe.observed(c)))
            .collect()
    };
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    assert!(
        total > 40,
        "probe saw only {total} ops — pattern scoping broke"
    );

    for kind in FaultKind::ALL {
        // A `Once(i)` rule counts only operations its kind applies to.
        let matching: u64 = counts
            .iter()
            .filter(|&&(c, _)| kind.applies_to(c))
            .map(|&(_, n)| n)
            .sum();
        for i in 1..=matching {
            let dir = TempDir::new(&format!("sweep-{kind:?}-{i}").to_lowercase());
            let plan = FaultPlan::new().with_rule(kind, &dir.pattern(), Trigger::Once(i));
            let prev = set_fault_plan(Some(Arc::new(plan)));
            let outcome = std::panic::catch_unwind(|| run_workload(dir.path()));
            set_fault_plan(prev);
            let ctx = format!("{kind:?} at op {i}/{matching}");
            let outcome = match outcome {
                Ok(o) => o,
                Err(p) => panic!(
                    "{ctx}: workload panicked: {:?}",
                    p.downcast_ref::<String>().cloned().unwrap_or_default()
                ),
            };
            if kind == FaultKind::Transient {
                // The retry layer must absorb every single EINTR.
                assert!(
                    outcome.error.is_none(),
                    "{ctx}: transient fault leaked: {:?}",
                    outcome.error
                );
                assert_eq!(outcome.acked.len() as i64, INSERTS, "{ctx}");
            }
            assert_committed_prefix(dir.path(), &outcome.acked, &ctx);
        }
    }
}

#[test]
fn enospc_during_spill_aborts_only_that_query() {
    let _guard = plan_lock().lock().unwrap_or_else(|e| e.into_inner());

    // At 2 workers the failing spill I/O runs on a morsel worker: small
    // morsels split the 300 rows so that both workers start.
    for workers in [1, 2] {
        let spill_dir = TempDir::new(&format!("spill-w{workers}"));
        let mut db = Database::new();
        db.set_parallelism(workers);
        db.set_morsel_size(64);
        db.set_memory_budget(Some(1));
        db.set_spill_dir(spill_dir.path());
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        let values: Vec<String> = (0..300).map(|i| format!("({})", i % 7)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();

        let plan =
            FaultPlan::new().with_rule(FaultKind::Enospc, &spill_dir.pattern(), Trigger::Once(1));
        let prev = set_fault_plan(Some(Arc::new(plan)));
        let spilled = db.query("SELECT k, COUNT(*) FROM t GROUP BY k");
        set_fault_plan(prev);

        let err = spilled.expect_err("ENOSPC in the spill path must fail the query");
        assert!(
            err.to_string().contains("spill"),
            "workers={workers}: not a clean spill error: {err}"
        );
        assert!(
            !db.is_degraded(),
            "workers={workers}: a spill failure must not poison the database"
        );
        // The same query (and the session) work once space is back.
        let rows = db
            .query("SELECT k, COUNT(*) FROM t GROUP BY k")
            .unwrap()
            .rows;
        assert_eq!(rows.len(), 7, "workers={workers}: after {err}");
        // No torn spill temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(spill_dir.path()).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "workers={workers}: leaked spill files: {leftovers:?}"
        );
    }
}

#[test]
fn suite_survives_an_ambient_transient_plan() {
    let _guard = plan_lock().lock().unwrap_or_else(|e| e.into_inner());

    // The CI fault leg runs the whole suite under `transient@*:%7`; this
    // is the in-repo miniature: a periodic EINTR storm across the whole
    // workload must be invisible apart from the retry counter.
    let dir = TempDir::new("ambient");
    let plan = FaultPlan::new().with_rule(FaultKind::Transient, &dir.pattern(), Trigger::Every(3));
    let prev = set_fault_plan(Some(Arc::new(plan)));
    let outcome = run_workload(dir.path());
    set_fault_plan(prev);
    assert!(outcome.error.is_none(), "{:?}", outcome.error);
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
        Value::Integer(INSERTS)
    );
    let stats = db.wal_stats().unwrap();
    assert!(
        stats.retries > 0,
        "every third op faulted yet retries={}",
        stats.retries
    );
    assert!(!stats.poisoned);
}
