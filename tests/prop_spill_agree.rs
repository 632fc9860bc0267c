//! Spill/in-memory equivalence testing: the same random workload
//! executed at memory budgets {unbounded, 64KB, 4KB, 1 byte ("one row
//! never fits")} × parallelism {1, 2, 4} must produce results that are
//! **row-identical to the unbounded serial run — values and order**.
//!
//! Spilling silently changes data paths (radix partitioning, temp-file
//! round trips, partition-at-a-time rebuilds), so this harness is the
//! proof obligation of the spill subsystem: every query class that can
//! spill (hash joins of every kind, GROUP BY with and without DISTINCT
//! aggregates, DISTINCT, EXCEPT/INTERSECT/UNION) is compared as an exact
//! list, and the constrained budgets additionally assert through the
//! session spill counters that the spill path genuinely ran.

use openivm::ivm_engine::Database;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    g: u8,
    v: i32,
    tag: bool,
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (0u8..6, -100i32..100, any::<bool>()).prop_map(|(g, v, tag)| Row { g, v, tag })
}

/// Query classes covering every spill-capable operator. All results are
/// compared as exact lists: the spill paths restore the serial emission
/// order, so even unordered queries must match row for row.
fn queries() -> Vec<&'static str> {
    vec![
        // Hash joins: inner / left outer (with residual) / full outer.
        "SELECT t.v, d.name FROM t JOIN dim AS d ON t.g = d.id",
        "SELECT t.v, d.name FROM t LEFT JOIN dim AS d ON t.g = d.id AND t.v > 0",
        "SELECT t.v, d.name FROM t FULL JOIN dim AS d ON t.g = d.id",
        // GROUP BY: every accumulator kind plus DISTINCT aggregates.
        "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g",
        "SELECT g, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m FROM t GROUP BY g",
        "SELECT g, COUNT(DISTINCT tag) AS d, SUM(v) AS s FROM t GROUP BY g",
        // Join feeding an aggregation: two spill operators stacked.
        "SELECT d.name, SUM(t.v) AS s FROM t JOIN dim AS d ON t.g = d.id GROUP BY d.name",
        // Keyless joins (their build side stays in memory under any
        // budget): the compiled views' comma join, CROSS under a spilled
        // GROUP BY, non-equi inner / LEFT / FULL.
        "SELECT t.v, d.name FROM t, dim AS d WHERE t.g = d.id",
        "SELECT d.name, COUNT(*) AS c, SUM(t.v) AS s FROM t CROSS JOIN dim AS d GROUP BY d.name",
        "SELECT t.v, d.name FROM t JOIN dim AS d ON t.g < d.id",
        "SELECT t.v, d.name FROM t LEFT JOIN dim AS d ON t.g > d.id AND t.v > 0",
        "SELECT t.v, d.name FROM t FULL JOIN dim AS d ON t.g <> d.id AND d.id < 'g2'",
        // DISTINCT and set operations.
        "SELECT DISTINCT g, tag FROM t",
        // DISTINCT over a sorted stream keeps its first-seen order.
        "SELECT DISTINCT g FROM t ORDER BY v DESC",
        "SELECT v FROM t EXCEPT SELECT v FROM t WHERE tag = TRUE",
        "SELECT v FROM t WHERE tag = TRUE INTERSECT SELECT v FROM t",
        "SELECT g FROM t UNION SELECT id FROM dim",
        // ORDER BY above a spilled aggregation.
        "SELECT g, SUM(v) AS s FROM t GROUP BY g ORDER BY s DESC, g",
        // A breaker below LIMIT and one inside IN (SELECT …): the budget
        // reaches both at every worker count.
        LIMIT_OVER_GROUP_BY,
        IN_SUBQUERY_GROUP_BY,
    ]
}

const LIMIT_OVER_GROUP_BY: &str = "SELECT g, SUM(v) AS s FROM t GROUP BY g LIMIT 3";
const IN_SUBQUERY_GROUP_BY: &str = "SELECT v FROM t WHERE g IN (SELECT g FROM t GROUP BY g)";

/// Budgets swept by the harness; `None` is the unbounded baseline.
/// 1 byte means even a single row overflows — the "1 row" budget.
fn budgets() -> Vec<Option<usize>> {
    vec![None, Some(64 * 1024), Some(4 * 1024), Some(1)]
}

fn database(workers: usize, budget: Option<usize>, rows: &[Row]) -> Database {
    let mut db = Database::new();
    db.config_mut().set_parallelism(workers);
    db.config_mut().set_morsel_size(32);
    db.config_mut().set_memory_budget(budget);
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)")
        .unwrap();
    // dim covers g0..g3: g4/g5 probe misses, one dim row ('gx') never
    // matches — outer padding and FULL OUTER tails cross the spill path.
    db.execute("CREATE TABLE dim (id VARCHAR, name VARCHAR)")
        .unwrap();
    for d in 0..4 {
        db.execute(&format!("INSERT INTO dim VALUES ('g{d}', 'name{d}')"))
            .unwrap();
    }
    db.execute("INSERT INTO dim VALUES ('gx', 'lonely')")
        .unwrap();
    if !rows.is_empty() {
        let values: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "('g{}', {}, {})",
                    r.g,
                    r.v,
                    if r.tag { "TRUE" } else { "FALSE" }
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

fn check_workload(rows: &[Row]) -> Result<(), TestCaseError> {
    let baseline = database(1, None, rows);
    for workers in [1usize, 2, 4] {
        for budget in budgets() {
            if workers == 1 && budget.is_none() {
                continue; // that IS the baseline
            }
            let db = database(workers, budget, rows);
            for q in queries() {
                let expect = baseline.query(q).unwrap().rows;
                let before = db.spill_stats();
                let got = db.query(q).unwrap().rows;
                prop_assert_eq!(
                    &expect,
                    &got,
                    "workers={} budget={:?} disagree on {}",
                    workers,
                    budget,
                    q
                );
                // The I/O bound: every spilled row is written once and
                // read back once, at every partition level and in every
                // output run (LIMIT may stop before reading its runs).
                let after = db.spill_stats();
                if q != LIMIT_OVER_GROUP_BY {
                    prop_assert_eq!(
                        after.rehydrated_rows - before.rehydrated_rows,
                        after.spilled_rows - before.spilled_rows,
                        "workers={} budget={:?}: rows written != rows read for {}",
                        workers,
                        budget,
                        q
                    );
                }
            }
            // A budget one byte wide cannot hold a single row: every
            // join build / group fold with input must have spilled.
            if budget == Some(1) && !rows.is_empty() {
                let stats = db.spill_stats();
                prop_assert!(
                    stats.spilled() && stats.spilled_rows > 0,
                    "workers={} at 1-byte budget never spilled: {:?}",
                    workers,
                    stats
                );
                prop_assert!(
                    stats.rehydrated_rows > 0,
                    "spilled rows were never read back: {:?}",
                    stats
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn spilled_results_agree_with_in_memory(
        rows in prop::collection::vec(row_strategy(), 0..200),
    ) {
        check_workload(&rows)?;
    }
}

/// Deterministic pin crossing batch (1024) and morsel (32) boundaries:
/// 1025 rows exercise partition buffers, write-buffer flushes, and
/// multi-frame rehydration on every query class.
#[test]
fn spill_agrees_at_batch_boundary_sizes() {
    for n in [0usize, 1, 1023, 1024, 1025] {
        let rows: Vec<Row> = (0..n)
            .map(|i| Row {
                g: (i % 6) as u8,
                v: ((i * 37) % 199) as i32 - 99,
                tag: i % 3 == 0,
            })
            .collect();
        check_workload(&rows).unwrap();
    }
}

/// Tiny budgets must take the spill path (counter proof), and the
/// recursive re-partition path must fire for heavily duplicated keys
/// (one key's rows all land in one partition at every level until the
/// depth cap).
#[test]
fn constrained_budgets_actually_spill() {
    let rows: Vec<Row> = (0..600)
        .map(|i| Row {
            g: (i % 2) as u8, // two heavy keys → fat partitions
            v: i % 50,
            tag: i % 2 == 0,
        })
        .collect();
    let db = database(1, Some(256), &rows);
    for q in queries() {
        db.query(q).unwrap();
    }
    let stats = db.spill_stats();
    assert!(stats.spilled(), "256-byte budget must spill: {stats:?}");
    assert!(stats.spill_files > 0 && stats.spilled_bytes > 0);
    assert!(stats.rehydrated_partitions > 0);
    assert!(
        stats.repartitions > 0,
        "duplicate-heavy keys must trigger recursive re-partitioning: {stats:?}"
    );

    // An unbounded session running the same workload never spills.
    let db = database(1, None, &rows);
    for q in queries() {
        db.query(q).unwrap();
    }
    assert!(!db.spill_stats().spilled());
}

/// The budget is honoured below `LIMIT` and inside `IN (SELECT …)` at
/// every worker count: each shape alone, at the 1-byte budget, spills.
#[test]
fn budget_reaches_limit_subtrees_and_subqueries() {
    let rows: Vec<Row> = (0..600)
        .map(|i| Row {
            g: (i % 6) as u8,
            v: i % 50,
            tag: i % 2 == 0,
        })
        .collect();
    for workers in [1usize, 2, 4] {
        for q in [LIMIT_OVER_GROUP_BY, IN_SUBQUERY_GROUP_BY] {
            let db = database(workers, Some(1), &rows);
            db.query(q).unwrap();
            let stats = db.spill_stats();
            assert!(
                stats.spilled_bytes > 0,
                "workers={workers}: {q} ignored the budget: {stats:?}"
            );
        }
    }
}

/// No spill temp files may outlive the queries that created them, at
/// any parallelism: every `openivm-spill-*` file in the session's spill
/// directory must be gone once results are materialized.
#[test]
fn spill_files_do_not_outlive_their_query() {
    let dir = std::env::temp_dir().join(format!("openivm-leakcheck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let leaked = |dir: &std::path::Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("openivm-spill-"))
            .collect()
    };
    let rows: Vec<Row> = (0..1500)
        .map(|i| Row {
            g: (i % 6) as u8,
            v: (i % 211) - 100,
            tag: i % 2 == 0,
        })
        .collect();
    for workers in [1usize, 2, 4] {
        let mut db = database(workers, Some(1), &rows);
        db.config_mut().set_spill_dir(dir.clone());
        for q in queries() {
            db.query(q).unwrap();
        }
        let stats = db.spill_stats();
        assert!(
            stats.spill_files > 0,
            "workers={workers}: no query produced a spill file: {stats:?}"
        );
        assert_eq!(
            leaked(&dir),
            Vec::<String>::new(),
            "workers={workers}: spill files leaked after queries completed"
        );
        drop(db);
        assert_eq!(
            leaked(&dir),
            Vec::<String>::new(),
            "workers={workers}: spill files leaked after session drop"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The memory budget holds end-to-end at parallelism 4: on a workload
/// whose working set is far larger than the budget, the peak of
/// budget-accounted bytes stays within the limit plus a small fixed
/// allowance (per-worker partition write buffers) — proof that breaker
/// inputs are never fully staged in memory on the parallel path.
#[test]
fn parallel_spill_peak_memory_stays_near_budget() {
    const LIMIT: u64 = 64 * 1024;
    const SLACK: u64 = 512 * 1024;
    let mut db = Database::new();
    db.config_mut().set_parallelism(4);
    db.config_mut().set_memory_budget(Some(LIMIT as usize));
    db.execute("CREATE TABLE big (g VARCHAR, v INTEGER, tag BOOLEAN)")
        .unwrap();
    for chunk in 0..10 {
        let values: Vec<String> = (0..5000)
            .map(|i| {
                let i = chunk * 5000 + i;
                format!(
                    "('g{}', {}, {})",
                    i % 97,
                    i % 1009,
                    if i % 2 == 0 { "TRUE" } else { "FALSE" }
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
            .unwrap();
    }
    db.query("SELECT g, SUM(v) AS s, COUNT(*) AS c FROM big GROUP BY g")
        .unwrap();
    db.query("SELECT DISTINCT g, v FROM big").unwrap();
    db.query("SELECT a.g, COUNT(*) AS c FROM big AS a JOIN big AS b ON a.v = b.v GROUP BY a.g")
        .unwrap();
    let stats = db.spill_stats();
    assert!(
        stats.spilled_bytes > 4 * SLACK,
        "working set must dwarf the slack allowance for the bound to mean \
         anything: {stats:?}"
    );
    assert!(
        stats.peak_used <= LIMIT + SLACK,
        "peak accounted bytes {} exceed budget {} + allowance {}: {stats:?}",
        stats.peak_used,
        LIMIT,
        SLACK
    );
}

/// The IVM pipeline end-to-end stays consistent when the OLAP engine
/// runs under a constrained budget: ingest → refresh → view equals
/// recomputation, at serial and parallel settings.
#[test]
fn ivm_refresh_consistent_under_memory_budget() {
    use openivm::ivm_core::IvmSession;
    use openivm::ivm_engine::Value;
    for workers in [1usize, 4] {
        let mut ivm = IvmSession::with_defaults();
        ivm.set_parallelism(workers);
        ivm.set_memory_budget(Some(4 * 1024));
        ivm.database_mut().config_mut().set_morsel_size(64);
        ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
            .unwrap();
        ivm.execute(
            "CREATE MATERIALIZED VIEW qg AS \
             SELECT group_index, SUM(group_value) AS total \
             FROM groups GROUP BY group_index",
        )
        .unwrap();
        let changes: Vec<(Vec<Value>, bool)> = (0..500)
            .map(|i| {
                (
                    vec![Value::from(format!("g{}", i % 13)), Value::Integer(i % 29)],
                    true,
                )
            })
            .collect();
        ivm.ingest_deltas("groups", &changes).unwrap();
        ivm.refresh("qg").unwrap();
        assert!(ivm.check_consistency("qg").unwrap(), "workers={workers}");
        assert!(
            ivm.spill_stats().spilled(),
            "a 4KB budget over 500 grouped rows must spill (workers={workers})"
        );
    }
}
