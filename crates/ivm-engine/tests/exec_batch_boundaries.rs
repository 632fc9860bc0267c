//! The batched executor must be oblivious to where batch boundaries fall:
//! every query result must be identical for input sizes straddling the
//! default 1024-row batch (0/1/1023/1024/1025) and for pathological batch
//! sizes, with and without tombstoned rows.

use ivm_engine::{Database, Value};

const SIZES: [usize; 5] = [0, 1, 1023, 1024, 1025];
const BATCH_SIZES: [usize; 5] = [1, 3, 1023, 1024, 1025];

/// Load `n` rows (v = 0..n, g cycles over 7 groups) through the storage
/// layer, optionally tombstoning every 5th row.
fn load(db: &mut Database, n: usize, with_deletes: bool) {
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    let table = db.catalog_mut().table_mut("t").unwrap();
    for v in 0..n {
        table
            .insert(vec![
                Value::from(format!("g{}", v % 7)),
                Value::Integer(v as i64),
            ])
            .unwrap();
    }
    if with_deletes {
        for v in (0..n).step_by(5) {
            table.delete(v as u64).unwrap();
        }
    }
}

/// Expected live values after the optional tombstoning.
fn live_values(n: usize, with_deletes: bool) -> Vec<i64> {
    (0..n as i64)
        .filter(|v| !with_deletes || v % 5 != 0)
        .collect()
}

#[test]
fn scan_filter_aggregate_at_boundary_sizes() {
    for with_deletes in [false, true] {
        for n in SIZES {
            let mut db = Database::new();
            load(&mut db, n, with_deletes);
            let live = live_values(n, with_deletes);

            let r = db
                .query("SELECT COUNT(*) AS c, SUM(v) AS s FROM t")
                .unwrap();
            assert_eq!(
                r.rows[0][0],
                Value::Integer(live.len() as i64),
                "count n={n}"
            );
            let expected_sum: i64 = live.iter().sum();
            let sum = if live.is_empty() {
                Value::Null
            } else {
                Value::Integer(expected_sum)
            };
            assert_eq!(r.rows[0][1], sum, "sum n={n} deletes={with_deletes}");

            let r = db
                .query("SELECT v FROM t WHERE v % 2 = 1 ORDER BY v")
                .unwrap();
            let odd: Vec<i64> = live.iter().copied().filter(|v| v % 2 == 1).collect();
            assert_eq!(r.rows.len(), odd.len(), "filter n={n}");
            assert_eq!(
                r.rows
                    .iter()
                    .map(|row| row[0].as_integer().unwrap())
                    .collect::<Vec<_>>(),
                odd,
                "filtered order n={n}"
            );

            let r = db
                .query("SELECT g, COUNT(*) AS c FROM t GROUP BY g ORDER BY g")
                .unwrap();
            let groups = live
                .iter()
                .map(|v| v % 7)
                .collect::<std::collections::HashSet<_>>();
            assert_eq!(r.rows.len(), groups.len(), "groups n={n}");
        }
    }
}

#[test]
fn results_are_invariant_under_batch_size() {
    let queries = [
        "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g ORDER BY g",
        "SELECT v FROM t WHERE v > 500 ORDER BY v DESC LIMIT 10",
        "SELECT DISTINCT g FROM t ORDER BY g",
        "SELECT v FROM t ORDER BY v LIMIT 5 OFFSET 1021",
        "SELECT a.g, a.v, b.v FROM t AS a JOIN t AS b ON a.v = b.v WHERE a.v < 20 ORDER BY a.v",
        // Keyless: every (a, b) pair is a candidate for the residual, so
        // a probe batch's candidates cross the batch_size chunk edges.
        "SELECT a.v, b.v FROM t AS a JOIN t AS b ON a.v > b.v WHERE b.v < 50",
    ];
    let reference = {
        let mut db = Database::new();
        load(&mut db, 1025, true);
        queries.map(|q| db.query(q).unwrap().rows)
    };
    for batch_size in BATCH_SIZES {
        let mut db = Database::default();
        db.config_mut().set_batch_size(batch_size);
        load(&mut db, 1025, true);
        for (q, expected) in queries.iter().zip(&reference) {
            let got = db.query(q).unwrap().rows;
            assert_eq!(&got, expected, "batch_size={batch_size} query={q}");
        }
    }
}

#[test]
fn limit_terminates_early_at_boundaries() {
    for n in SIZES {
        let mut db = Database::new();
        load(&mut db, n, false);
        for limit in [0usize, 1, 1023, 1024, 1025, 2000] {
            let r = db.query(&format!("SELECT v FROM t LIMIT {limit}")).unwrap();
            assert_eq!(r.rows.len(), limit.min(n), "n={n} limit={limit}");
        }
    }
}

/// Pushed-down scans (Filter folded into TableScan) must agree with the
/// unfused plan at every boundary size, with and without tombstoned
/// windows, and the EXPLAIN output must show the fold actually happened.
#[test]
fn pushed_down_scans_at_boundary_sizes() {
    for with_deletes in [false, true] {
        for n in SIZES {
            let mut db = Database::new();
            load(&mut db, n, with_deletes);
            let live = live_values(n, with_deletes);

            let r = db.query("SELECT v FROM t WHERE v >= 3 ORDER BY v").unwrap();
            let expected: Vec<i64> = live.iter().copied().filter(|&v| v >= 3).collect();
            assert_eq!(
                r.rows
                    .iter()
                    .map(|row| row[0].as_integer().unwrap())
                    .collect::<Vec<_>>(),
                expected,
                "pushed scan n={n} deletes={with_deletes}"
            );

            let r = db
                .query("SELECT COUNT(*) AS c FROM t WHERE g = 'g3' AND v > 10")
                .unwrap();
            let expected = live.iter().filter(|&&v| v % 7 == 3 && v > 10).count() as i64;
            assert_eq!(
                r.rows[0][0],
                Value::Integer(expected),
                "conjunctive pushed scan n={n} deletes={with_deletes}"
            );
        }
    }
    // The fold is visible in the physical plan.
    let mut db = Database::new();
    load(&mut db, 10, false);
    let r = db.execute("EXPLAIN SELECT v FROM t WHERE v > 3").unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("TableScan t [filtered]"), "{text}");
    assert!(!text.contains("Filter"), "filter should be folded:\n{text}");
}

/// Equality predicates over a primary key answer through the ART index
/// (visible in EXPLAIN) and must return exactly the scan-path rows.
#[test]
fn index_point_reads_match_scans() {
    let mut db = Database::new();
    db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    for id in 0..1025i64 {
        db.execute(&format!("INSERT INTO k VALUES ({id}, {})", id * 10))
            .unwrap();
    }
    db.execute("DELETE FROM k WHERE id = 500").unwrap();

    let r = db.execute("EXPLAIN SELECT v FROM k WHERE id = 7").unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("index_eq=1"), "{text}");

    let hit = db.query("SELECT v FROM k WHERE id = 7").unwrap();
    assert_eq!(hit.rows, vec![vec![Value::Integer(70)]]);
    let tombstoned = db.query("SELECT v FROM k WHERE id = 500").unwrap();
    assert!(tombstoned.rows.is_empty(), "deleted key must not resurface");
    let miss = db.query("SELECT v FROM k WHERE id = 99999").unwrap();
    assert!(miss.rows.is_empty());
    // Residual conjuncts are still applied to the looked-up row.
    let filtered = db
        .query("SELECT v FROM k WHERE id = 7 AND v > 1000")
        .unwrap();
    assert!(filtered.rows.is_empty());
}

/// Join operators must never emit a batch larger than the executor batch
/// size, even under CROSS fan-out — pulled at the operator level so the
/// batching contract itself is observable.
#[test]
fn join_output_batches_stay_bounded() {
    use ivm_engine::exec::build_operator;
    use ivm_engine::planner::lower;

    let mut db = Database::default();
    db.config_mut().set_batch_size(8);
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (y INTEGER)").unwrap();
    for v in 0..40i64 {
        db.execute(&format!("INSERT INTO a VALUES ({v})")).unwrap();
        db.execute(&format!("INSERT INTO b VALUES ({v})")).unwrap();
    }
    let q = match ivm_sql::parse_statement("SELECT x, y FROM a CROSS JOIN b").unwrap() {
        ivm_sql::ast::Statement::Query(q) => q,
        _ => unreachable!(),
    };
    let plan = ivm_engine::optimizer::optimize(ivm_engine::plan_query(&q, db.catalog()).unwrap());
    let physical = lower(&plan, db.catalog()).unwrap();
    let mut op = build_operator(&physical, &db.exec_context()).unwrap();
    let mut total = 0;
    while let Some(batch) = op.next_batch().unwrap() {
        assert!(
            batch.num_rows() <= 8,
            "oversized batch {}",
            batch.num_rows()
        );
        total += batch.num_rows();
    }
    assert_eq!(total, 1600);
}

/// `ORDER BY … LIMIT` lowers to the bounded-heap TopK operator and must
/// agree with the full-sort reference at every boundary size.
#[test]
fn top_k_matches_full_sort_at_boundaries() {
    for n in SIZES {
        let mut db = Database::new();
        load(&mut db, n, true);
        let live = live_values(n, true);
        for (limit, offset) in [(0usize, 0usize), (1, 0), (10, 3), (2000, 0), (5, 1021)] {
            let r = db
                .query(&format!(
                    "SELECT v FROM t ORDER BY v DESC LIMIT {limit} OFFSET {offset}"
                ))
                .unwrap();
            let mut expected: Vec<i64> = live.clone();
            expected.sort_by(|a, b| b.cmp(a));
            let expected: Vec<i64> = expected.into_iter().skip(offset).take(limit).collect();
            assert_eq!(
                r.rows
                    .iter()
                    .map(|row| row[0].as_integer().unwrap())
                    .collect::<Vec<_>>(),
                expected,
                "top-k n={n} limit={limit} offset={offset}"
            );
        }
    }
    // A huge user-supplied LIMIT must not preallocate (or abort): memory
    // stays bounded by the input.
    let mut db = Database::new();
    load(&mut db, 10, false);
    let r = db
        .query("SELECT v FROM t ORDER BY v LIMIT 1000000000000000")
        .unwrap();
    assert_eq!(r.rows.len(), 10);

    let mut db = Database::new();
    load(&mut db, 10, false);
    let r = db
        .execute("EXPLAIN SELECT v FROM t ORDER BY v LIMIT 3")
        .unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(text.contains("TopK"), "{text}");
    assert!(
        !text.contains("Sort"),
        "TopK replaces the full sort:\n{text}"
    );
}

#[test]
fn joins_at_boundary_sizes() {
    for n in [0usize, 1, 1023, 1024, 1025] {
        let mut db = Database::new();
        db.execute("CREATE TABLE f (k INTEGER, v INTEGER)").unwrap();
        db.execute("CREATE TABLE d (k INTEGER, label VARCHAR)")
            .unwrap();
        {
            let table = db.catalog_mut().table_mut("f").unwrap();
            for v in 0..n {
                table
                    .insert(vec![
                        Value::Integer((v % 11) as i64),
                        Value::Integer(v as i64),
                    ])
                    .unwrap();
            }
        }
        {
            let table = db.catalog_mut().table_mut("d").unwrap();
            for k in 0..7i64 {
                table
                    .insert(vec![Value::Integer(k), Value::from(format!("d{k}"))])
                    .unwrap();
            }
        }
        // Keys 0..7 match, 7..11 dangle: inner drops them, left keeps them.
        let inner = db
            .query("SELECT f.v, d.label FROM f JOIN d ON f.k = d.k")
            .unwrap();
        let expected_inner = (0..n).filter(|v| v % 11 < 7).count();
        assert_eq!(inner.rows.len(), expected_inner, "inner n={n}");
        let left = db
            .query("SELECT f.v, d.label FROM f LEFT JOIN d ON f.k = d.k")
            .unwrap();
        assert_eq!(left.rows.len(), n, "left n={n}");
        let dangling = left.rows.iter().filter(|r| r[1].is_null()).count();
        assert_eq!(dangling, n - expected_inner, "left padding n={n}");
    }
}
