//! Parallel-executor differential testing: the same workload executed at
//! parallelism 1 (the serial operator tree), 2, and 4 must agree —
//! ordered queries compared as lists, unordered queries as multisets.
//!
//! Morsel size is shrunk to 32 slots so even property-sized tables span
//! many morsels and genuinely exercise the morsel scheduler, partitioned
//! joins, and partitioned aggregation.

use openivm::ivm_engine::{Database, Value};
use openivm::ivm_htap::rows_equal_as_multisets;
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

/// Whether results are order-sensitive (compared as lists) or bags.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    Multiset,
    Ordered,
}

fn queries() -> Vec<(&'static str, Cmp)> {
    vec![
        ("SELECT g, v, tag FROM t", Cmp::Multiset),
        (
            "SELECT v * 2 + 1 AS d, g FROM t WHERE v > -20",
            Cmp::Multiset,
        ),
        (
            "SELECT CASE WHEN v > 0 THEN 'pos' ELSE 'nonpos' END AS s, v FROM t",
            Cmp::Multiset,
        ),
        (
            "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g",
            Cmp::Multiset,
        ),
        (
            "SELECT g, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m FROM t GROUP BY g",
            Cmp::Multiset,
        ),
        (
            "SELECT g, COUNT(DISTINCT tag) AS d FROM t GROUP BY g",
            Cmp::Multiset,
        ),
        (
            "SELECT SUM(v) AS s, COUNT(*) AS c FROM t WHERE tag = TRUE",
            Cmp::Multiset,
        ),
        (
            "SELECT t.v, d.name FROM t JOIN dim AS d ON t.g = d.id",
            Cmp::Multiset,
        ),
        (
            "SELECT t.v, d.name FROM t LEFT JOIN dim AS d ON t.g = d.id AND t.v > 0",
            Cmp::Multiset,
        ),
        (
            "SELECT t.v, d.name FROM t FULL JOIN dim AS d ON t.g = d.id",
            Cmp::Multiset,
        ),
        (
            "SELECT d.name, SUM(t.v) AS s FROM t JOIN dim AS d ON t.g = d.id GROUP BY d.name",
            Cmp::Multiset,
        ),
        // Keyless joins emit in the serial order at every worker count:
        // the compiled views' comma join, CROSS under a GROUP BY, and
        // non-equi inner / LEFT / FULL (whose tail is pipelined).
        (
            "SELECT t.v, d.name FROM t, dim AS d WHERE t.g = d.id",
            Cmp::Ordered,
        ),
        (
            "SELECT d.name, COUNT(*) AS c, SUM(t.v) AS s FROM t CROSS JOIN dim AS d GROUP BY d.name",
            Cmp::Ordered,
        ),
        (
            "SELECT t.v, d.name FROM t JOIN dim AS d ON t.g < d.id",
            Cmp::Ordered,
        ),
        (
            "SELECT t.v, d.name FROM t LEFT JOIN dim AS d ON t.g > d.id AND t.v > 0",
            Cmp::Ordered,
        ),
        (
            "SELECT t.v, d.name FROM t FULL JOIN dim AS d ON t.g <> d.id AND d.id < 'g2'",
            Cmp::Ordered,
        ),
        ("SELECT DISTINCT g, tag FROM t", Cmp::Multiset),
        // The subquery runs at the session's parallelism too.
        (
            "SELECT v FROM t WHERE g IN (SELECT g FROM t GROUP BY g)",
            Cmp::Multiset,
        ),
        (
            "SELECT v FROM t EXCEPT SELECT v FROM t WHERE tag = TRUE",
            Cmp::Multiset,
        ),
        // Total order over every output column → comparable as lists.
        ("SELECT g, v, tag FROM t ORDER BY v, g, tag", Cmp::Ordered),
        (
            "SELECT g, v FROM t ORDER BY v DESC, g DESC LIMIT 9",
            Cmp::Ordered,
        ),
    ]
}

fn database(workers: usize, rows: &[Row]) -> Database {
    let mut db = Database::new();
    db.config_mut().set_parallelism(workers);
    db.config_mut().set_morsel_size(32);
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)")
        .unwrap();
    // dim covers g0..g3: g4/g5 probe misses, one dim row ('gx') never
    // matches — exercising outer padding and FULL OUTER tails.
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn parallelism_levels_agree(
        rows in prop::collection::vec(row_strategy(), 0..200),
        delete_g in 0u8..6,
    ) {
        let mut dbs: Vec<Database> = [1usize, 2, 4]
            .iter()
            .map(|&w| database(w, &rows))
            .collect();
        // Tombstone a slice so morsel windows carry selection vectors.
        for db in &mut dbs {
            db.execute(&format!("DELETE FROM t WHERE g = 'g{delete_g}' AND v < 0"))
                .unwrap();
        }
        for (q, cmp) in queries() {
            let serial = dbs[0].query(q).unwrap().rows;
            for db in &dbs[1..] {
                let par = db.query(q).unwrap().rows;
                let agree = match cmp {
                    Cmp::Multiset => rows_equal_as_multisets(&serial, &par),
                    Cmp::Ordered => serial == par,
                };
                prop_assert!(
                    agree,
                    "parallelism {} disagrees with serial on {q}:\n serial={serial:?}\n parallel={par:?}",
                    db.config().parallelism()
                );
            }
        }
    }
}

/// Deterministic pin at the morsel boundary: 1025 rows with a 32-slot
/// morsel is 33 morsels (the last one a single row), so every pipeline
/// crosses morsel edges while the serial engine is oblivious to them.
#[test]
fn parallel_agrees_across_morsel_boundary() {
    let rows: Vec<Row> = (0..1025)
        .map(|i| Row {
            g: (i % 6) as u8,
            v: (i * 37) % 199 - 99,
            tag: i % 3 == 0,
        })
        .collect();
    let serial = database(1, &rows);
    for workers in [2usize, 4] {
        let par = database(workers, &rows);
        for (q, cmp) in queries() {
            let a = serial.query(q).unwrap().rows;
            let b = par.query(q).unwrap().rows;
            let agree = match cmp {
                Cmp::Multiset => rows_equal_as_multisets(&a, &b),
                Cmp::Ordered => a == b,
            };
            assert!(agree, "workers={workers} disagree on {q}");
        }
    }
}

/// The IVM pipeline end-to-end stays consistent when the OLAP engine runs
/// parallel: ingest → refresh → view equals recomputation.
#[test]
fn ivm_refresh_consistent_under_parallelism() {
    use openivm::ivm_core::IvmSession;
    for workers in [1usize, 4] {
        let mut ivm = IvmSession::with_defaults();
        ivm.set_parallelism(workers);
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
        // Deletions flow through too.
        let deletions: Vec<(Vec<Value>, bool)> = (0..100)
            .map(|i| {
                (
                    vec![Value::from(format!("g{}", i % 13)), Value::Integer(i % 29)],
                    false,
                )
            })
            .collect();
        ivm.ingest_deltas("groups", &deletions).unwrap();
        ivm.refresh("qg").unwrap();
        assert!(ivm.check_consistency("qg").unwrap(), "workers={workers}");
        // The maintenance scripts hit the bound-plan cache on re-refresh.
        if workers == 1 {
            let (entries, hits) = ivm.database().plan_cache_stats();
            assert!(entries > 0, "maintenance statements cached");
            assert!(hits > 0, "second refresh reused cached plans");
        }
    }
}
