//! Parallel-executor equivalence tests: the morsel-driven executor at
//! parallelism 2 and 4 must produce the same results as the serial
//! operator tree, across operator shapes and at morsel/batch boundary
//! sizes (0, 1, 1023, 1024, 1025 rows; single- and multi-morsel tables).
//!
//! Morsel sizes are shrunk so even small tables split into many morsels;
//! all data here is exact-typed (integers, text), where parallel results
//! are specified to be *identical* to serial, not just multiset-equal.

use ivm_engine::{Database, Value};

/// Queries spanning every parallelizable shape: pipelines (scan, filter,
/// project, computed projection, CASE fallback), partitioned joins
/// (inner/left/full, residual, join + aggregate, keyless), partitioned aggregation
/// (grouped, global, DISTINCT aggregates, DISTINCT rows), and the
/// replay-merged breakers (sort, top-k, set ops, limit).
fn queries() -> Vec<&'static str> {
    vec![
        "SELECT g, v, tag FROM t",
        "SELECT v FROM t WHERE v > 100",
        "SELECT v * 2 + 1 AS d, g FROM t WHERE v % 3 = 0",
        "SELECT CASE WHEN v % 2 = 0 THEN 'even' ELSE 'odd' END AS p, v FROM t",
        "SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g",
        "SELECT g, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m FROM t GROUP BY g",
        "SELECT SUM(v) AS s, COUNT(*) AS c, MIN(v) AS lo FROM t",
        "SELECT g, COUNT(DISTINCT tag) AS dt, SUM(DISTINCT v % 10) AS dv FROM t GROUP BY g",
        "SELECT g, SUM(v) AS s FROM t WHERE v > 50 GROUP BY g",
        "SELECT t.v, d.name FROM t JOIN dim AS d ON t.g = d.id",
        "SELECT t.v, d.name FROM t LEFT JOIN dim AS d ON t.g = d.id AND t.v > 200",
        "SELECT t.v, d.name FROM t FULL JOIN dim AS d ON t.g = d.id",
        "SELECT d.name, SUM(t.v) AS s, COUNT(*) AS c \
         FROM t JOIN dim AS d ON t.g = d.id GROUP BY d.name",
        // Keyless joins: the compiled views' comma join, CROSS under a
        // GROUP BY, non-equi inner / LEFT / FULL (whose tail is pipelined).
        "SELECT t.v, d.name FROM t, dim AS d WHERE t.g = d.id",
        "SELECT d.name, COUNT(*) AS c, SUM(t.v) AS s FROM t CROSS JOIN dim AS d GROUP BY d.name",
        "SELECT t.v, d.name FROM t JOIN dim AS d ON t.g < d.id",
        "SELECT t.v, d.name FROM t LEFT JOIN dim AS d ON t.g > d.id AND t.v > 200",
        "SELECT t.v, d.name FROM t FULL JOIN dim AS d ON t.g <> d.id AND d.id < 'g2'",
        "SELECT DISTINCT g FROM t",
        // First-seen order of a sorted stream: the sort runs below the
        // DISTINCT, whose ORDER BY column is not in the select list.
        "SELECT DISTINCT g FROM t ORDER BY v DESC",
        "SELECT g, v, tag FROM t ORDER BY v, g, tag",
        "SELECT g, v FROM t ORDER BY v DESC, g DESC LIMIT 7",
        "SELECT v FROM t WHERE v > 10 LIMIT 5",
        "SELECT v FROM t WHERE v < 100 UNION SELECT v FROM t WHERE v >= 100 AND v < 120",
        "SELECT v FROM t EXCEPT SELECT v FROM t WHERE v % 2 = 0",
        "SELECT v FROM t INTERSECT ALL SELECT v FROM t WHERE v > 500",
    ]
}

/// Build `t` (n rows, some `dim` keys unmatched) and `dim` (5 rows, one
/// key matching nothing in `t`).
fn load(db: &mut Database, n: usize, with_tombstones: bool) {
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)")
        .unwrap();
    db.execute("CREATE TABLE dim (id VARCHAR, name VARCHAR)")
        .unwrap();
    for d in 0..5 {
        db.execute(&format!("INSERT INTO dim VALUES ('g{d}', 'name{d}')"))
            .unwrap();
    }
    if n > 0 {
        let values: Vec<String> = (0..n)
            .map(|i| {
                format!(
                    "('g{}', {}, {})",
                    i % 7, // g5/g6 never match dim; dim g4 may go unmatched
                    (i * 37) % 1000,
                    if i % 3 == 0 { "TRUE" } else { "FALSE" }
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    if with_tombstones && n > 10 {
        db.execute("DELETE FROM t WHERE v % 11 = 3").unwrap();
    }
}

/// Load a database per worker count with `load` and require every query
/// to return the serial rows, in the serial order, at 2 and 4 workers.
/// `morsel` pins the morsel size; `None` leaves it adaptive.
fn assert_equivalent_on(
    load: &dyn Fn(&mut Database),
    queries: &[&str],
    morsel: Option<usize>,
    batch: usize,
    what: &str,
) {
    let mut serial = Database::default();
    serial.config_mut().set_batch_size(batch);
    serial.config_mut().set_parallelism(1);
    load(&mut serial);
    for workers in [2usize, 4] {
        let mut par = Database::default();
        par.config_mut().set_batch_size(batch);
        par.config_mut().set_parallelism(workers);
        if let Some(morsel) = morsel {
            par.config_mut().set_morsel_size(morsel);
        }
        load(&mut par);
        for q in queries {
            let a = serial.query(q).unwrap();
            let b = par.query(q).unwrap();
            assert_eq!(
                a.rows, b.rows,
                "parallel({workers}, morsel={morsel:?}, batch={batch}) diverges from serial \
                 on {q} ({what})"
            );
            assert_eq!(a.columns, b.columns, "column names diverge on {q}");
        }
    }
}

fn assert_equivalent(n: usize, with_tombstones: bool, morsel: usize, batch: usize) {
    assert_equivalent_on(
        &|db| load(db, n, with_tombstones),
        &queries(),
        Some(morsel),
        batch,
        &format!("n={n}, tombstones={with_tombstones}"),
    );
}

/// `p` (8 000 rows) probes `b` (6 000 rows — above the 4 096-row
/// threshold at which the build side is radix-partitioned and built by
/// the workers). `b.k` repeats each key four times and is NULL every 97th
/// row; a quarter of `p.k` matches nothing and every 89th is NULL. With
/// `wide_key`, one `b.k` (and one `p.k`) is `(1 << 53) + 1`, beyond what
/// a double holds exactly. `d` is a small second build side matching five
/// of the seven `b.g`.
fn load_big_build(db: &mut Database, wide_key: bool) {
    const WIDE: i64 = (1 << 53) + 1;
    db.execute("CREATE TABLE p (k INTEGER, v INTEGER)").unwrap();
    db.execute("CREATE TABLE b (k INTEGER, v INTEGER, g INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE d (id INTEGER, name VARCHAR)")
        .unwrap();
    let key = |i: usize, nulls: usize, modulo: usize, wide_at: usize| {
        if wide_key && i == wide_at {
            WIDE.to_string()
        } else if i.is_multiple_of(nulls) {
            "NULL".to_string()
        } else {
            (i * 7 % modulo).to_string()
        }
    };
    let p: Vec<String> = (0..8000)
        .map(|i| format!("({}, {i})", key(i, 89, 2000, 4321)))
        .collect();
    db.execute(&format!("INSERT INTO p VALUES {}", p.join(", ")))
        .unwrap();
    let b: Vec<String> = (0..6000)
        .map(|i| format!("({}, {}, {})", key(i, 97, 1500, 5005), i * 10, i % 7))
        .collect();
    db.execute(&format!("INSERT INTO b VALUES {}", b.join(", ")))
        .unwrap();
    for id in 0..5 {
        db.execute(&format!("INSERT INTO d VALUES ({id}, 'd{id}')"))
            .unwrap();
    }
}

#[test]
fn big_build_sides_match_serial() {
    let queries = [
        "SELECT p.v, b.v FROM p JOIN b ON p.k = b.k",
        "SELECT p.v, b.v FROM p JOIN b ON p.k = b.k AND p.v * 10 > b.v",
        "SELECT p.v, b.v FROM p LEFT JOIN b ON p.k = b.k",
        "SELECT p.v, b.v FROM p LEFT JOIN b ON p.k = b.k AND p.v * 10 > b.v",
        "SELECT p.v, b.v FROM p FULL JOIN b ON p.k = b.k",
        "SELECT p.v, b.v FROM p FULL JOIN b ON p.k = b.k AND p.v * 10 > b.v",
        // The FULL OUTER tail must flow through the LEFT probe above it —
        // and through a fold, as one more partial.
        "SELECT p.v, b.v, d.name FROM p FULL JOIN b ON p.k = b.k \
         LEFT JOIN d ON b.g = d.id",
        "SELECT d.name, COUNT(*) AS c, SUM(b.v) AS s FROM p FULL JOIN b ON p.k = b.k \
         LEFT JOIN d ON b.g = d.id GROUP BY d.name",
    ];
    for wide_key in [false, true] {
        for morsel in [Some(32), None] {
            for batch in [7usize, 1024] {
                assert_equivalent_on(
                    &|db| load_big_build(db, wide_key),
                    &queries,
                    morsel,
                    batch,
                    &format!("6000-row build side, wide_key={wide_key}"),
                );
            }
        }
    }
}

#[test]
fn morsel_boundary_sizes_match_serial() {
    // The canonical batch-boundary sizes, with the default batch size and
    // a morsel of 256 slots (0/1 rows = zero/single-morsel tables; 1025 =
    // five morsels with a one-row tail).
    for n in [0usize, 1, 1023, 1024, 1025] {
        assert_equivalent(n, false, 256, 1024);
    }
}

#[test]
fn single_morsel_table_runs_serially_and_matches() {
    // Table fits one morsel: the executor must take the serial path and
    // still agree.
    assert_equivalent(500, false, 4096, 1024);
    assert_equivalent(500, true, 4096, 1024);
}

#[test]
fn tombstoned_tables_match_serial() {
    assert_equivalent(1025, true, 256, 1024);
}

#[test]
fn tiny_morsels_and_batches_match_serial() {
    // Morsel smaller than the batch, batch of 3: worst-case windowing.
    assert_equivalent(257, false, 7, 3);
    assert_equivalent(257, true, 16, 8);
}

#[test]
fn parallelism_levels_agree_with_each_other() {
    // p=2 and p=4 must agree exactly (determinism across worker counts),
    // including when morsel scheduling differs run to run.
    let mut db2 = Database::new();
    db2.config_mut().set_parallelism(2);
    db2.config_mut().set_morsel_size(64);
    load(&mut db2, 777, true);
    let mut db4 = Database::new();
    db4.config_mut().set_parallelism(4);
    db4.config_mut().set_morsel_size(64);
    load(&mut db4, 777, true);
    for q in queries() {
        let a = db2.query(q).unwrap();
        let b = db4.query(q).unwrap();
        assert_eq!(a.rows, b.rows, "p=2 vs p=4 diverge on {q}");
    }
    // And repeated runs at the same parallelism are stable.
    for q in queries() {
        let a = db4.query(q).unwrap();
        let b = db4.query(q).unwrap();
        assert_eq!(a.rows, b.rows, "p=4 unstable across runs on {q}");
    }
}

#[test]
fn runtime_errors_are_deterministic() {
    let mut par = Database::new();
    par.config_mut().set_parallelism(4);
    par.config_mut().set_morsel_size(32);
    load(&mut par, 600, false);
    // Division by zero on some row: every run must error (never a silent
    // partial result), with the error of the earliest failing morsel.
    let q = "SELECT SUM(1000 / (v - 259)) AS s FROM t";
    let serial_err = {
        let mut s = Database::new();
        s.config_mut().set_parallelism(1);
        load(&mut s, 600, false);
        s.query(q).unwrap_err().to_string()
    };
    for _ in 0..3 {
        let e = par.query(q).unwrap_err().to_string();
        assert_eq!(e, serial_err);
    }
}

#[test]
fn index_point_reads_stay_on_the_serial_path() {
    // Tables spanning many morsels: `k` is keyed on `id`; its keyless copy
    // `ku` gets its key on `u` from `CREATE UNIQUE INDEX`. (That each read
    // does exactly one index lookup is pinned by the unit test beside the
    // executor.)
    let point_reads = |workers: usize| {
        let mut db = Database::new();
        db.config_mut().set_parallelism(workers);
        db.config_mut().set_morsel_size(64);
        db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, u INTEGER, v INTEGER)")
            .unwrap();
        let values: Vec<String> = (0..1000)
            .map(|i| format!("({i}, {}, {})", i + 10_000, i * 3))
            .collect();
        db.execute(&format!("INSERT INTO k VALUES {}", values.join(", ")))
            .unwrap();
        db.execute("CREATE TABLE ku (id INTEGER, u INTEGER, v INTEGER)")
            .unwrap();
        db.execute("INSERT INTO ku SELECT * FROM k").unwrap();
        db.execute("CREATE UNIQUE INDEX k_u ON ku (u)").unwrap();
        [
            "SELECT v FROM k WHERE id = 837",
            "SELECT v FROM k WHERE id = 5000",
            "SELECT id, v FROM ku WHERE u = 10837",
            "SELECT COUNT(*), SUM(v) FROM k WHERE id = 837",
        ]
        .map(|q| db.query(q).unwrap().rows)
    };
    let serial = point_reads(1);
    assert_eq!(serial[0], vec![vec![Value::Integer(837 * 3)]], "PK hit");
    assert!(serial[1].is_empty(), "PK miss");
    assert_eq!(
        serial[2],
        vec![vec![Value::Integer(837), Value::Integer(837 * 3)]],
        "key-from-unique-index hit"
    );
    for workers in [2usize, 4] {
        assert_eq!(point_reads(workers), serial, "{workers} workers");
    }
}

#[test]
fn update_delete_semantics_unaffected_by_parallelism() {
    let run = |workers: usize| {
        let mut db = Database::new();
        db.config_mut().set_parallelism(workers);
        db.config_mut().set_morsel_size(64);
        load(&mut db, 500, false);
        let upd = db
            .execute("UPDATE t SET v = v + 1 WHERE v % 5 = 0")
            .unwrap();
        let del = db.execute("DELETE FROM t WHERE v % 7 = 1").unwrap();
        let sum = db.query("SELECT SUM(v), COUNT(*) FROM t").unwrap();
        (upd.rows_affected, del.rows_affected, sum.rows)
    };
    assert_eq!(run(1), run(4));
}
