//! End-to-end SQL tests for the embedded engine: the exact statements the
//! OpenIVM compiler emits must run here.

use ivm_engine::{Database, ErrorKind, Value};

fn db() -> Database {
    Database::new()
}

fn ints(result: &ivm_engine::QueryResult) -> Vec<Vec<i64>> {
    result
        .rows
        .iter()
        .map(|r| r.iter().filter_map(Value::as_integer).collect())
        .collect()
}

#[test]
fn create_insert_select() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
    let r = db
        .execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x')")
        .unwrap();
    assert_eq!(r.rows_affected, 3);
    let r = db
        .query("SELECT a FROM t WHERE b = 'x' ORDER BY a")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![1], vec![3]]);
}

#[test]
fn paper_listing_2_runs_verbatim() {
    // Set up the Listing 1 schema plus the delta tables OpenIVM generates.
    let mut db = db();
    db.execute_script(
        "CREATE TABLE groups (group_index VARCHAR, group_value INTEGER);
         CREATE TABLE delta_groups (group_index VARCHAR, group_value INTEGER,
                                    _duckdb_ivm_multiplicity BOOLEAN);
         CREATE TABLE query_groups (group_index VARCHAR, total_value INTEGER,
                                    PRIMARY KEY (group_index));
         CREATE TABLE delta_query_groups (group_index VARCHAR, total_value INTEGER,
                                          _duckdb_ivm_multiplicity BOOLEAN);",
    )
    .unwrap();

    // Existing view state: apple→5, banana→2 (the paper's §2 example).
    db.execute("INSERT INTO query_groups VALUES ('apple', 5), ('banana', 2)")
        .unwrap();
    // Deltas: remove 3 units of apple, add 1 banana.
    db.execute("INSERT INTO delta_groups VALUES ('apple', 3, FALSE), ('banana', 1, TRUE)")
        .unwrap();

    // Listing 2, statement 1: ΔT → ΔV.
    db.execute(
        "INSERT INTO delta_query_groups
         SELECT group_index, SUM(group_value) AS total_value, _duckdb_ivm_multiplicity
         FROM delta_groups
         GROUP BY group_index, _duckdb_ivm_multiplicity",
    )
    .unwrap();

    // Listing 2, statement 2: upsert ΔV into V via LEFT JOIN + CTE.
    db.execute(
        "INSERT OR REPLACE INTO query_groups
         WITH ivm_cte AS (
           SELECT group_index,
                  SUM(CASE WHEN _duckdb_ivm_multiplicity = FALSE
                      THEN -total_value ELSE total_value END) AS total_value
           FROM delta_query_groups
           GROUP BY group_index)
         SELECT delta_query_groups.group_index,
                SUM(COALESCE(query_groups.total_value, 0) + delta_query_groups.total_value)
         FROM ivm_cte AS delta_query_groups
         LEFT JOIN query_groups
           ON query_groups.group_index = delta_query_groups.group_index
         GROUP BY delta_query_groups.group_index",
    )
    .unwrap();

    // Listing 2, statements 3–4: cleanup.
    db.execute("DELETE FROM query_groups WHERE total_value = 0")
        .unwrap();
    db.execute("DELETE FROM delta_query_groups").unwrap();

    // Expected V' from the paper: apple → 2, banana → 3.
    let r = db
        .query("SELECT group_index, total_value FROM query_groups ORDER BY group_index")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::from("apple"), Value::Integer(2)],
            vec![Value::from("banana"), Value::Integer(3)],
        ]
    );
}

#[test]
fn group_by_with_having_and_order() {
    let mut db = db();
    db.execute("CREATE TABLE s (g VARCHAR, v INTEGER)").unwrap();
    db.execute("INSERT INTO s VALUES ('a',1),('a',2),('b',10),('c',1)")
        .unwrap();
    let r = db
        .query(
            "SELECT g, SUM(v) AS total, COUNT(*) AS n FROM s
             GROUP BY g HAVING SUM(v) > 1 ORDER BY total DESC",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["g", "total", "n"]);
    assert_eq!(
        r.rows,
        vec![
            vec![Value::from("b"), Value::Integer(10), Value::Integer(1)],
            vec![Value::from("a"), Value::Integer(3), Value::Integer(2)],
        ]
    );
}

#[test]
fn aggregates_bind_under_every_expression_form() {
    let mut db = db();
    db.execute("CREATE TABLE s (g VARCHAR, v INTEGER)").unwrap();
    db.execute("INSERT INTO s VALUES ('a',1),('a',2),('b',10),('c',NULL),('d',-4),('e',7),('e',8)")
        .unwrap();
    // The select list and HAVING reach aggregates (and GROUP BY keys)
    // through CASE, BETWEEN, IN, LIKE, CAST, unary minus, IS NULL and a
    // scalar function. HAVING drops only 'd'.
    let r = db
        .query(
            "SELECT g, CASE WHEN SUM(v) > 5 THEN 'big' ELSE 'small' END AS size,
                    SUM(v) BETWEEN 1 AND 5 AS mid, COUNT(*) IN (2, 3) AS pair,
                    CAST(MAX(v) AS VARCHAR) LIKE '1%' AS ones, -MIN(v) AS neg,
                    MAX(v) IS NULL AS empty, ABS(SUM(v) - 20) AS gap,
                    UPPER(g) AS big_g
             FROM s GROUP BY g
             HAVING COUNT(*) IN (2, 3) OR ABS(MIN(v)) BETWEEN 5 AND 20
                 OR CASE WHEN MAX(v) IS NULL THEN TRUE
                         ELSE CAST(-MIN(v) AS VARCHAR) LIKE '-1%' END
             ORDER BY g",
        )
        .unwrap();
    let (t, f, null) = (Value::Boolean(true), Value::Boolean(false), Value::Null);
    let (i, s) = (Value::Integer, |x: &str| Value::from(x));
    #[rustfmt::skip]
    let expected = vec![
        vec![s("a"), s("small"), t.clone(), t.clone(), f.clone(), i(-1), f.clone(), i(17), s("A")],
        vec![s("b"), s("big"), f.clone(), f.clone(), t.clone(), i(-10), f.clone(), i(10), s("B")],
        vec![s("c"), s("small"), null.clone(), f.clone(), null.clone(), null.clone(), t.clone(), null, s("C")],
        vec![s("e"), s("big"), f.clone(), t, f.clone(), i(-7), f, i(5), s("E")],
    ];
    assert_eq!(r.rows, expected);

    let err = db
        .query("SELECT g, SUM(CASE WHEN SUM(v) > 0 THEN 1 END) FROM s GROUP BY g")
        .unwrap_err();
    assert!(
        err.message().contains("nested aggregate functions"),
        "{err}"
    );
}

#[test]
fn joins_and_wildcards() {
    let mut db = db();
    db.execute_script(
        "CREATE TABLE orders (id INTEGER, customer INTEGER, amount INTEGER);
         CREATE TABLE customers (id INTEGER, name VARCHAR);",
    )
    .unwrap();
    db.execute("INSERT INTO orders VALUES (1, 10, 100), (2, 11, 50), (3, 99, 1)")
        .unwrap();
    db.execute("INSERT INTO customers VALUES (10, 'ada'), (11, 'bob')")
        .unwrap();
    let r = db
        .query(
            "SELECT customers.name, orders.amount FROM orders
             INNER JOIN customers ON orders.customer = customers.id
             ORDER BY orders.amount DESC",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::from("ada"), Value::Integer(100)],
            vec![Value::from("bob"), Value::Integer(50)],
        ]
    );
    // LEFT JOIN keeps the unmatched order with NULL padding.
    let r = db
        .query(
            "SELECT orders.id, customers.name FROM orders
             LEFT JOIN customers ON orders.customer = customers.id
             ORDER BY orders.id",
        )
        .unwrap();
    assert_eq!(r.rows[2], vec![Value::Integer(3), Value::Null]);
}

#[test]
fn set_operations() {
    let mut db = db();
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (x INTEGER)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2), (2), (3)")
        .unwrap();
    db.execute("INSERT INTO b VALUES (2), (4)").unwrap();
    let r = db
        .query("SELECT x FROM a UNION SELECT x FROM b ORDER BY x")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![1], vec![2], vec![3], vec![4]]);
    let r = db
        .query("SELECT x FROM a UNION ALL SELECT x FROM b")
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    let r = db
        .query("SELECT x FROM a EXCEPT SELECT x FROM b ORDER BY x")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![1], vec![3]]);
    // EXCEPT ALL is a bag difference: one 2 survives.
    let r = db
        .query("SELECT x FROM a EXCEPT ALL SELECT x FROM b ORDER BY x")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![1], vec![2], vec![3]]);
    let r = db
        .query("SELECT x FROM a INTERSECT SELECT x FROM b")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![2]]);
}

#[test]
fn update_and_delete_with_predicates() {
    let mut db = db();
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let r = db.execute("UPDATE t SET v = v + 1 WHERE k >= 2").unwrap();
    assert_eq!(r.rows_affected, 2);
    let r = db.execute("DELETE FROM t WHERE v = 21").unwrap();
    assert_eq!(r.rows_affected, 1);
    let r = db.query("SELECT k, v FROM t ORDER BY k").unwrap();
    assert_eq!(ints(&r), vec![vec![1, 10], vec![3, 31]]);
}

#[test]
fn in_subquery_predicates() {
    let mut db = db();
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    db.execute("CREATE TABLE dirty (g VARCHAR)").unwrap();
    db.execute("INSERT INTO t VALUES ('a',1),('b',2),('c',3)")
        .unwrap();
    db.execute("INSERT INTO dirty VALUES ('a'),('c')").unwrap();
    let r = db
        .query("SELECT v FROM t WHERE g IN (SELECT g FROM dirty) ORDER BY v")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![1], vec![3]]);
    let r = db
        .query("SELECT v FROM t WHERE g NOT IN (SELECT g FROM dirty)")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![2]]);
    // DELETE driven by a subquery — the MIN/MAX dirty-group pattern.
    db.execute("DELETE FROM t WHERE g IN (SELECT g FROM dirty)")
        .unwrap();
    let r = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(1)));
}

/// The subqueries of expressions outside a plan — `DO UPDATE SET`,
/// `UPDATE … SET`, `INSERT … VALUES` — run once per statement, before it
/// writes a row: every conflicting row sees the table as the statement
/// found it, as under PostgreSQL's statement snapshot.
#[test]
fn value_subqueries_see_the_table_as_the_statement_found_it() {
    let mut db = db();
    db.execute("CREATE TABLE v (k VARCHAR PRIMARY KEY, c INTEGER)")
        .unwrap();
    db.execute("INSERT INTO v VALUES ('a', 0), ('b', 0)")
        .unwrap();
    let kc = |db: &Database| {
        let r = db.query("SELECT k, c FROM v ORDER BY k").unwrap();
        let rows: Vec<(String, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].to_string(), row[1].as_integer().unwrap()))
            .collect();
        rows
    };
    db.execute(
        "INSERT INTO v VALUES ('a', 1), ('b', 1) ON CONFLICT (k) DO UPDATE \
         SET c = CASE WHEN 1 IN (SELECT c FROM v) THEN 2 ELSE 1 END",
    )
    .unwrap();
    assert_eq!(kc(&db), [("a".into(), 1), ("b".into(), 1)]);
    db.execute("UPDATE v SET c = CASE WHEN 1 IN (SELECT c FROM v) THEN c + 1 ELSE 0 END")
        .unwrap();
    assert_eq!(kc(&db), [("a".into(), 2), ("b".into(), 2)]);
    db.execute(
        "INSERT INTO v VALUES ('c', CASE WHEN 2 IN (SELECT c FROM v) THEN 7 ELSE 0 END), \
         ('d', CASE WHEN 7 IN (SELECT c FROM v) THEN 7 ELSE 0 END)",
    )
    .unwrap();
    assert_eq!(
        kc(&db),
        [
            ("a".into(), 2),
            ("b".into(), 2),
            ("c".into(), 7),
            ("d".into(), 0)
        ]
    );
}

/// A subquery body is planned like the statement that holds it: folded,
/// its filters pushed into its scans, a key equality a point read.
/// `EXPLAIN` shows the statement's plan and then each body, inner
/// before outer, and runs none of them.
#[test]
fn explain_shows_optimized_subquery_bodies() {
    let mut db = db();
    db.execute("CREATE TABLE v (k VARCHAR PRIMARY KEY, c INTEGER)")
        .unwrap();
    db.execute("INSERT INTO v VALUES ('a', 1), ('b', 2), ('c', 1)")
        .unwrap();
    let explain = |db: &mut Database, sql: &str| -> String {
        let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let lines: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        lines.join("\n")
    };
    for (sql, plan, rows) in [
        (
            "SELECT k FROM v WHERE k IN (SELECT k FROM v WHERE k = 'a' AND 1 = 1)",
            "Subqueries 1\n  Project [k]\n    TableScan v [filtered]\n  \
             Project [k]\n    TableScan v [filtered] [index_eq=1] k = a",
            vec!["a"],
        ),
        (
            "SELECT k FROM v WHERE c IN (SELECT c FROM v WHERE 1 = 1) ORDER BY k",
            "Subqueries 1\n  Sort keys=1\n    Project [k]\n      TableScan v [filtered]\n  \
             Project [c]\n    TableScan v",
            vec!["a", "b", "c"],
        ),
        (
            "SELECT k FROM v WHERE k IN \
             (SELECT k FROM v WHERE c IN (SELECT c FROM v WHERE k = 'b')) ORDER BY k",
            "Subqueries 2\n  Sort keys=1\n    Project [k]\n      TableScan v [filtered]\n  \
             Project [c]\n    TableScan v [filtered] [index_eq=1] k = b\n  \
             Project [k]\n    TableScan v [filtered]",
            vec!["b"],
        ),
    ] {
        assert_eq!(explain(&mut db, sql), plan, "{sql}");
        let got = db.execute(sql).unwrap();
        let got: Vec<String> = got.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(got, rows, "{sql}");
    }
    // DML shows its scan and the bodies its predicate reads.
    let delete = "DELETE FROM v WHERE c IN (SELECT c FROM v WHERE k = 'a')";
    assert_eq!(
        explain(&mut db, delete),
        "Subqueries 1\n  TableScan v [filtered]\n  \
         Project [c]\n    TableScan v [filtered] [index_eq=1] k = a"
    );
    assert_eq!(
        db.query("SELECT COUNT(*) FROM v").unwrap().scalar(),
        Some(&Value::Integer(3))
    );
    assert_eq!(db.execute(delete).unwrap().rows_affected, 2);
    let r = db.query("SELECT k FROM v").unwrap();
    assert_eq!(r.rows, vec![vec![Value::from("b")]]);
}

#[test]
fn on_conflict_do_update() {
    let mut db = db();
    db.execute("CREATE TABLE v (k VARCHAR PRIMARY KEY, total INTEGER)")
        .unwrap();
    db.execute("INSERT INTO v VALUES ('a', 5)").unwrap();
    db.execute(
        "INSERT INTO v VALUES ('a', 3), ('b', 1)
         ON CONFLICT (k) DO UPDATE SET total = v.total + excluded.total",
    )
    .unwrap();
    let r = db.query("SELECT k, total FROM v ORDER BY k").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::from("a"), Value::Integer(8)],
            vec![Value::from("b"), Value::Integer(1)],
        ]
    );
    // DO NOTHING skips silently.
    db.execute("INSERT INTO v VALUES ('a', 99) ON CONFLICT DO NOTHING")
        .unwrap();
    let r = db.query("SELECT total FROM v WHERE k = 'a'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(8)));
}

#[test]
fn views_inline() {
    let mut db = db();
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 1), ('a', 2)")
        .unwrap();
    db.execute("CREATE VIEW sums AS SELECT g, SUM(v) AS total FROM t GROUP BY g")
        .unwrap();
    let r = db.query("SELECT total FROM sums WHERE g = 'a'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(3)));
    // Views track the base table.
    db.execute("INSERT INTO t VALUES ('a', 10)").unwrap();
    let r = db.query("SELECT total FROM sums WHERE g = 'a'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(13)));
}

#[test]
fn materialized_view_requires_extension() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let err = db
        .execute("CREATE MATERIALIZED VIEW mv AS SELECT a FROM t")
        .unwrap_err();
    assert_eq!(err.kind(), ivm_engine::ErrorKind::Unsupported);
}

#[test]
fn avg_min_max_distinct() {
    let mut db = db();
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES ('a',1),('a',1),('a',4),('b',7)")
        .unwrap();
    let r = db
        .query(
            "SELECT g, AVG(v), MIN(v), MAX(v), COUNT(DISTINCT v) FROM t
             GROUP BY g ORDER BY g",
        )
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::from("a"),
            Value::Double(2.0),
            Value::Integer(1),
            Value::Integer(4),
            Value::Integer(2),
        ]
    );
    assert_eq!(r.rows[1][1], Value::Double(7.0));
}

#[test]
fn scalar_queries_without_from() {
    let db = db();
    let r = db.query("SELECT 1 + 2 AS three").unwrap();
    assert_eq!(r.columns, vec!["three"]);
    assert_eq!(r.scalar(), Some(&Value::Integer(3)));
    let r = db
        .query("SELECT CASE WHEN TRUE THEN 'yes' ELSE 'no' END")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::from("yes")));
}

#[test]
fn limit_offset() {
    let mut db = db();
    db.execute("CREATE TABLE t (v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1),(2),(3),(4),(5)")
        .unwrap();
    let r = db
        .query("SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![2], vec![3]]);
    let r = db.query("SELECT v FROM t ORDER BY v LIMIT 0").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn insert_from_query_with_columns() {
    let mut db = db();
    db.execute("CREATE TABLE src (a INTEGER, b INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE dst (x INTEGER, y INTEGER, z VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO src VALUES (1, 2)").unwrap();
    db.execute("INSERT INTO dst (y, x) SELECT a, b FROM src")
        .unwrap();
    let r = db.query("SELECT x, y, z FROM dst").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Integer(2), Value::Integer(1), Value::Null]]
    );
}

#[test]
fn error_paths() {
    let mut db = db();
    assert!(db.execute("SELEC 1").is_err(), "parse error");
    assert!(db.query("SELECT * FROM missing").is_err(), "catalog error");
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(db.query("SELECT b FROM t").is_err(), "binder error");
    assert!(db.execute("INSERT INTO t VALUES (1, 2)").is_err(), "arity");
    assert!(
        db.query("SELECT a, SUM(a) FROM t").is_err(),
        "a not grouped"
    );
    assert!(
        db.execute("CREATE TABLE t (a INTEGER)").is_err(),
        "duplicate table"
    );
    // Division by zero at runtime.
    db.execute("INSERT INTO t VALUES (0)").unwrap();
    assert!(db.query("SELECT 1 / a FROM t").is_err());
}

#[test]
fn group_by_alias_and_ordinal() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)")
        .unwrap();
    let r = db
        .query("SELECT a * 2 AS dbl, SUM(b) FROM t GROUP BY dbl ORDER BY dbl")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![2, 30], vec![4, 5]]);
    let r = db
        .query("SELECT a * 2, SUM(b) FROM t GROUP BY 1 ORDER BY 1")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![2, 30], vec![4, 5]]);
}

#[test]
fn distinct_rows() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1,1),(1,1),(1,2)")
        .unwrap();
    let r = db.query("SELECT DISTINCT a, b FROM t ORDER BY b").unwrap();
    assert_eq!(ints(&r), vec![vec![1, 1], vec![1, 2]]);
    // ORDER BY a column outside the select list sorts *below* the
    // DISTINCT: the output is the first-seen order of the sorted stream
    // (v descending: 9 a, 7 c, 5 b, 2 c, 1 a).
    db.execute("CREATE TABLE s (g VARCHAR, v INTEGER)").unwrap();
    db.execute("INSERT INTO s VALUES ('a', 1), ('b', 5), ('c', 7), ('a', 9), ('c', 2)")
        .unwrap();
    let r = db
        .query("SELECT DISTINCT g FROM s ORDER BY v DESC")
        .unwrap();
    let g: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(g, ["a", "c", "b"]);
}

#[test]
fn create_index_statements() {
    let mut db = db();
    db.execute("CREATE TABLE v (k VARCHAR, total INTEGER)")
        .unwrap();
    db.execute("INSERT INTO v VALUES ('a', 1), ('b', 2)")
        .unwrap();
    // UNIQUE index on a keyless table becomes the PK (paper's
    // build-after-populate ART path) and enables INSERT OR REPLACE.
    db.execute("CREATE UNIQUE INDEX v_pk ON v (k)").unwrap();
    db.execute("INSERT OR REPLACE INTO v VALUES ('a', 42)")
        .unwrap();
    let r = db.query("SELECT total FROM v WHERE k = 'a'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(42)));
    db.execute("CREATE INDEX v_sec ON v (total)").unwrap();
    assert!(db.execute("CREATE INDEX v_sec ON v (k)").is_err());
    db.execute("DROP INDEX v_sec").unwrap();
    assert!(db.execute("DROP INDEX v_sec").is_err());
    db.execute("DROP INDEX IF EXISTS v_sec").unwrap();
}

/// A table's one index is its primary key. A second UNIQUE index could
/// not be enforced, so it is refused and leaves nothing behind; a plain
/// index is a definition that builds nothing, so a point read on its
/// column agrees with the same read the index cannot serve.
#[test]
fn unique_index_on_a_keyed_table_is_refused_and_plain_indexes_agree() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
        .unwrap();
    let err = db.execute("CREATE UNIQUE INDEX t_k ON t (k)").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Unsupported, "{err}");
    assert!(
        db.execute("DROP INDEX t_k").is_err(),
        "the refused index left a definition"
    );
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 7), (2, 7)").unwrap();
    for (expect, after) in [
        (vec![vec![1], vec![2]], "INSERT"),
        (vec![vec![1]], "DELETE"),
    ] {
        for sql in [
            "SELECT id FROM t WHERE k = 7 ORDER BY id",
            "SELECT id FROM t WHERE k + 0 = 7 ORDER BY id",
        ] {
            assert_eq!(ints(&db.query(sql).unwrap()), expect, "{sql} after {after}");
        }
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
    }
}

#[test]
fn cte_shadowing_and_reuse() {
    let mut db = db();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    // CTE shadows the base table.
    let r = db
        .query("WITH t AS (SELECT a * 10 AS a FROM t) SELECT a FROM t ORDER BY a")
        .unwrap();
    assert_eq!(ints(&r), vec![vec![10], vec![20]]);
    // Chained CTEs referencing earlier ones.
    let r = db
        .query(
            "WITH one AS (SELECT a FROM t WHERE a = 1),
                  two AS (SELECT a + 1 AS a FROM one)
             SELECT a FROM two",
        )
        .unwrap();
    assert_eq!(ints(&r), vec![vec![2]]);
}

#[test]
fn explain_renders_plan_tree() {
    let mut db = db();
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    let r = db
        .execute("EXPLAIN SELECT g, SUM(v) FROM t WHERE v > 0 GROUP BY g")
        .unwrap();
    assert_eq!(r.columns, vec!["explain"]);
    let text: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    let joined = text.join("\n");
    assert!(joined.contains("Project"), "{joined}");
    assert!(joined.contains("Aggregate"), "{joined}");
    assert!(joined.contains("Scan t"), "{joined}");
    // EXPLAIN never executes the statement it shows.
    db.execute("INSERT INTO t VALUES ('a', 1)").unwrap();
    let r = db.execute("EXPLAIN DELETE FROM t").unwrap();
    assert_eq!(r.rows, vec![vec![Value::from("TableScan t")]]);
    let r = db.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(1)));
}

/// `EXPLAIN` of DML shows the plan the statement would run and runs
/// nothing: for an UPDATE or a DELETE, the scan that finds its rows —
/// a point read when the WHERE fixes the primary key —, for an
/// `INSERT … SELECT`, its source. `INSERT … VALUES` plans no query.
#[test]
fn explain_shows_what_dml_would_run() {
    let mut db = db();
    db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE s (id INTEGER, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO k VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let explain = |db: &mut Database, sql: &str| -> String {
        let r = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(r.rows_affected, 0, "{sql}");
        let lines: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        lines.join("\n")
    };
    for (sql, plan) in [
        (
            "UPDATE k SET v = 5 WHERE id = 2",
            "TableScan k [filtered] [index_eq=1] id = 2",
        ),
        (
            "DELETE FROM k WHERE id = 3 AND v > 1",
            "TableScan k [filtered] [index_eq=1] id = 3",
        ),
        ("DELETE FROM k WHERE v > 1", "TableScan k [filtered]"),
        ("UPDATE k SET v = v + 1", "TableScan k"),
        (
            "INSERT INTO s SELECT id, v FROM k WHERE id = 1",
            "Project [id, v]\n  TableScan k [filtered] [index_eq=1] id = 1",
        ),
    ] {
        assert_eq!(explain(&mut db, sql), plan, "{sql}");
    }
    let err = db
        .execute("EXPLAIN INSERT INTO s VALUES (1, 2)")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Unsupported, "{err}");
    let r = db.query("SELECT id, v FROM k ORDER BY id").unwrap();
    assert_eq!(ints(&r), vec![vec![1, 10], vec![2, 20], vec![3, 30]]);
    let r = db.query("SELECT COUNT(*) FROM s").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(0)));
}

/// A multi-row UPDATE checks the primary key against its final rows, not
/// against each row's intermediate state: shifting every key by one and
/// swapping two keys succeed, and a real collision — with a row the
/// UPDATE leaves alone, or between two new rows — is refused and
/// changes nothing.
#[test]
fn multi_row_update_checks_the_final_keys() {
    let mut db = db();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (5, 50), (6, 60)")
        .unwrap();
    let rows = |db: &Database, t: &str| {
        ints(
            &db.query(&format!("SELECT id, v FROM {t} ORDER BY id"))
                .unwrap(),
        )
    };
    let point = |db: &Database, t: &str, id: i64| {
        ints(
            &db.query(&format!("SELECT v FROM {t} WHERE id = {id}"))
                .unwrap(),
        )
        .concat()
    };
    assert_eq!(
        db.execute("UPDATE t SET id = id + 1")
            .unwrap()
            .rows_affected,
        3
    );
    assert_eq!(rows(&db, "t"), [[2, 10], [6, 50], [7, 60]]);
    for (id, v) in [
        (1, None),
        (2, Some(10)),
        (5, None),
        (6, Some(50)),
        (7, Some(60)),
    ] {
        assert_eq!(point(&db, "t", id), Vec::from_iter(v), "id {id}");
    }
    assert!(db.execute("INSERT INTO t VALUES (6, 0)").is_err());

    db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    db.execute("INSERT INTO w VALUES (1, 10), (2, 20)").unwrap();
    assert_eq!(
        db.execute("UPDATE w SET id = 3 - id")
            .unwrap()
            .rows_affected,
        2
    );
    assert_eq!(rows(&db, "w"), [[1, 20], [2, 10]]);
    assert_eq!(
        (point(&db, "w", 1), point(&db, "w", 2)),
        (vec![20], vec![10])
    );

    for collision in [
        "UPDATE t SET id = id - 1 WHERE id = 7",
        "UPDATE t SET id = 100 WHERE id > 5",
        "UPDATE t SET id = id + 1 WHERE id < 7",
    ] {
        let err = db.execute(collision).unwrap_err();
        assert!(
            err.to_string().contains("duplicate key"),
            "{collision}: {err}"
        );
        assert_eq!(rows(&db, "t"), [[2, 10], [6, 50], [7, 60]], "{collision}");
        assert_eq!(point(&db, "t", 6), [50], "{collision}");
    }
}

/// UPDATE and DELETE over a keyed table, whose WHERE on the key is
/// answered by an index point read, leave it equal — slot for slot — to
/// a keyless copy that finds the same rows by scanning, through
/// tombstones, in-place updates and a moved key. The predicates cover a
/// key with a residual, an absent key, a key under OR, a DOUBLE literal
/// against the INTEGER key and `IN (SELECT …)`. Run serially, over small
/// morsels and batches at 2 workers, and at 4 under a 64 KB budget.
#[test]
fn dml_by_key_agrees_with_dml_by_scan() {
    // (statement over `{t}`, whether the keyed form reads the index).
    let statements = [
        ("DELETE FROM {t} WHERE id % 5 = 0", false),
        ("UPDATE {t} SET v = v + 1 WHERE id % 7 = 0", false),
        (
            "UPDATE {t} SET v = v * 2, s = 'k' WHERE id = 14 AND v > 10",
            true,
        ),
        ("UPDATE {t} SET v = 0 WHERE id = 21 AND v > 100000", true),
        ("DELETE FROM {t} WHERE id = 5000", true),
        ("DELETE FROM {t} WHERE id = 10", true),
        ("UPDATE {t} SET s = 'or' WHERE id = 22 OR v < 5", false),
        ("UPDATE {t} SET v = v + 100 WHERE id = 33.0", false),
        ("DELETE FROM {t} WHERE id = 34.5", false),
        (
            "UPDATE {t} SET v = -v WHERE id IN (SELECT id FROM q)",
            false,
        ),
        ("DELETE FROM {t} WHERE id IN (SELECT id + 1 FROM q)", false),
        ("UPDATE {t} SET id = id + 1000 WHERE id = 42", true),
        ("UPDATE {t} SET v = 7 WHERE id = 1042", true),
        ("DELETE FROM {t} WHERE id = 1042 AND v = 7", true),
        ("DELETE FROM {t} WHERE id = 43 AND s IS NULL", true),
    ];
    for (workers, small, budget) in [
        (1, false, None),
        (2, true, None),
        (4, false, Some(64 << 10)),
    ] {
        let mut db = db();
        db.config_mut().set_parallelism(workers);
        if small {
            db.config_mut().set_morsel_size(16);
            db.config_mut().set_batch_size(7);
        }
        db.config_mut().set_memory_budget(budget);
        db.execute("CREATE TABLE k (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR)")
            .unwrap();
        db.execute("CREATE TABLE c (id INTEGER, v INTEGER, s VARCHAR)")
            .unwrap();
        db.execute("CREATE TABLE q (id INTEGER)").unwrap();
        let rows: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    "({i}, {}, {})",
                    (i * 37) % 101,
                    if i % 3 == 0 { "NULL" } else { "'x'" }
                )
            })
            .collect();
        for t in ["k", "c"] {
            db.execute(&format!("INSERT INTO {t} VALUES {}", rows.join(", ")))
                .unwrap();
        }
        db.execute("INSERT INTO q VALUES (60), (61), (77), (NULL), (4000)")
            .unwrap();
        for (sql, indexed) in statements {
            let explain = db
                .execute(&format!("EXPLAIN {}", sql.replace("{t}", "k")))
                .unwrap();
            let plan = explain.rows[0][0].to_string();
            assert_eq!(plan.contains("[index_eq="), indexed, "{sql}: {plan}");
            let keyed = db.execute(&sql.replace("{t}", "k")).unwrap();
            let copy = db.execute(&sql.replace("{t}", "c")).unwrap();
            let at = format!("{sql} at {workers} workers");
            assert_eq!(keyed.rows_affected, copy.rows_affected, "{at}");
            let k = db.query("SELECT * FROM k").unwrap().rows;
            assert_eq!(k, db.query("SELECT * FROM c").unwrap().rows, "{at}");
        }
        let k = db.catalog().table("k").unwrap();
        let c = db.catalog().table("c").unwrap();
        assert_eq!(
            (k.live_rows(), k.total_slots()),
            (c.live_rows(), c.total_slots())
        );
        assert!(k.live_rows() < 240, "{} rows left", k.live_rows());
    }
}

/// Index keys are exact over the whole INTEGER range: neighbours beyond
/// ±2^53 (which share an f64 image) are distinct primary keys, each point
/// read finds its own row, and a true duplicate is still rejected —
/// through `PRIMARY KEY` and through `CREATE UNIQUE INDEX` alike.
#[test]
fn wide_integer_keys_are_exact() {
    const P53: i64 = 1 << 53;
    let ids = [P53, P53 + 1, i64::MAX - 1, i64::MAX, i64::MIN];
    let mut db = db();
    db.execute("CREATE TABLE p (id INTEGER PRIMARY KEY, n INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE u (id INTEGER, n INTEGER)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX u_id ON u (id)").unwrap();
    for table in ["p", "u"] {
        for (n, id) in ids.iter().enumerate() {
            db.execute(&format!("INSERT INTO {table} VALUES ({id}, {n})"))
                .unwrap_or_else(|e| panic!("{table}: insert {id}: {e}"));
        }
        for (n, id) in ids.iter().enumerate() {
            let r = db
                .query(&format!("SELECT id, n FROM {table} WHERE id = {id}"))
                .unwrap();
            assert_eq!(ints(&r), vec![vec![*id, n as i64]], "{table}: read {id}");
            let dup = db.execute(&format!("INSERT INTO {table} VALUES ({id}, 99)"));
            assert!(dup.is_err(), "{table}: duplicate {id} accepted");
        }
        let r = db.query(&format!("SELECT COUNT(*) FROM {table}")).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Integer(ids.len() as i64)));
    }
    // Duplicate elimination keeps the neighbours apart too.
    let ids_of = |sql: &str| -> Vec<i64> { ints(&db.query(sql).unwrap()).concat() };
    assert_eq!(ids_of("SELECT id FROM p UNION SELECT id FROM u"), ids);
    let except = format!(
        "SELECT id FROM p EXCEPT SELECT id FROM u WHERE id <> {}",
        P53 + 1
    );
    assert_eq!(ids_of(&except), [P53 + 1]);
    let both = ids_of("SELECT DISTINCT id FROM p UNION ALL SELECT DISTINCT id FROM u");
    assert_eq!(both, [ids, ids].concat());
}

/// Three keyed build tables — an INTEGER primary key, a nullable VARCHAR
/// key made by `CREATE UNIQUE INDEX`, a two-column key — each with an unindexed
/// copy holding the same rows, tombstones and in-place updates, and one
/// probe table with NULL, absent and duplicate keys and a DOUBLE key
/// column. The keyed tables outnumber the probe rows, so equi-joins on
/// their keys read them through the index.
fn join_fixture(db: &mut Database) {
    for (keyed, copy) in [
        (
            "CREATE TABLE bi (id INTEGER PRIMARY KEY, tag VARCHAR, w INTEGER)",
            "CREATE TABLE bi_copy (id INTEGER, tag VARCHAR, w INTEGER)",
        ),
        (
            "CREATE TABLE bs (tag VARCHAR, w INTEGER)",
            "CREATE TABLE bs_copy (tag VARCHAR, w INTEGER)",
        ),
        (
            "CREATE TABLE bm (x INTEGER, y VARCHAR, w INTEGER, PRIMARY KEY (x, y))",
            "CREATE TABLE bm_copy (x INTEGER, y VARCHAR, w INTEGER)",
        ),
    ] {
        db.execute(keyed).unwrap();
        db.execute(copy).unwrap();
    }
    db.execute("CREATE UNIQUE INDEX bs_tag ON bs (tag)")
        .unwrap();
    db.execute("CREATE TABLE p (k INTEGER, kd DOUBLE, s VARCHAR, y VARCHAR, v INTEGER)")
        .unwrap();
    let mut seed = 0x9e37_79b9_u64;
    let mut next = move |n: u64| {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (seed >> 33) % n
    };
    let bi: Vec<String> = (0..300)
        .map(|i| format!("({i}, 't{}', {})", i % 17, next(10)))
        .collect();
    let bs: Vec<String> = (0..300)
        .map(|i| format!("('t{i}', {})", next(10)))
        .collect();
    let bm: Vec<String> = (0..300)
        .map(|i| format!("({}, 'y{}', {})", i / 3, i % 3, next(10)))
        .collect();
    for (table, rows) in [("bi", &bi), ("bs", &bs), ("bm", &bm)] {
        for t in [table.to_string(), format!("{table}_copy")] {
            db.execute(&format!("INSERT INTO {t} VALUES {}", rows.join(", ")))
                .unwrap();
        }
    }
    // Tombstones and in-place updates, a moved key among them, and a
    // NULL key, which the unique index holds and no probe may match.
    for (table, sql) in [
        ("bs", "INSERT INTO {t} VALUES (NULL, 4)"),
        ("bi", "DELETE FROM {t} WHERE id % 5 = 0"),
        ("bi", "UPDATE {t} SET w = w + 1 WHERE id % 7 = 0"),
        ("bi", "UPDATE {t} SET id = id + 1000 WHERE id % 11 = 1"),
        ("bs", "DELETE FROM {t} WHERE w = 3"),
        ("bm", "DELETE FROM {t} WHERE x % 4 = 0 AND y = 'y1'"),
    ] {
        for t in [table.to_string(), format!("{table}_copy")] {
            db.execute(&sql.replace("{t}", &t)).unwrap();
        }
    }
    // Probe keys: duplicates, NULLs, absent (≥ 300, negative, deleted,
    // moved), and DOUBLE keys both integral and not.
    let p: Vec<String> = (0..200)
        .map(|_| {
            let k = match next(10) {
                0 => "NULL".to_string(),
                1 => format!("{}", 300 + next(50)),
                2 => format!("{}", 1000 + next(300)),
                _ => format!("{}", next(120)),
            };
            let kd = match next(4) {
                0 => "NULL".to_string(),
                1 => format!("{}.5", next(100)),
                _ => format!("{}.0", next(100)),
            };
            let s = match next(6) {
                0 => "NULL".to_string(),
                _ => format!("'t{}'", next(330)),
            };
            format!("({k}, {kd}, {s}, 'y{}', {})", next(4), next(10))
        })
        .collect();
    db.execute(&format!("INSERT INTO p VALUES {}", p.join(", ")))
        .unwrap();
}

/// Each LEFT, RIGHT and INNER equi-join over a keyed table returns what
/// the same join over the table's unindexed copy returns, as lists: an
/// outer join in its probe side's order, an inner join under an ORDER BY
/// of every output column (which side an inner join probes is the
/// planner's choice). Run serially, morsel-parallel over small morsels and
/// batches, and under a budget that makes the copies' hashed builds spill.
#[test]
fn index_built_joins_agree_with_hashed_joins() {
    // (query over `{bi}` / `{bs}` / `{bm}`, whether the keyed form reads
    // its build side through the index).
    let cases = [
        (
            "SELECT p.k, p.v, b.id, b.tag, b.w FROM p LEFT JOIN {bi} b ON p.k = b.id",
            true,
        ),
        (
            "SELECT p.k, b.tag FROM p LEFT JOIN {bi} b ON b.id = p.k AND p.v > b.w",
            true,
        ),
        (
            "SELECT p.k, p.v, b.w FROM p LEFT JOIN {bi} b ON p.k = b.id WHERE p.v > 3",
            true,
        ),
        (
            "SELECT p.k, b.w FROM {bi} b RIGHT JOIN p ON b.id = p.k",
            true,
        ),
        (
            "SELECT p.kd, b.id, b.w FROM p LEFT JOIN {bi} b ON p.kd = b.id",
            false,
        ),
        (
            "SELECT p.s, p.v, b.w FROM p LEFT JOIN {bs} b ON p.s = b.tag",
            true,
        ),
        (
            "SELECT p.k, p.y, b.w FROM p LEFT JOIN {bm} b ON p.y = b.y AND p.k = b.x",
            true,
        ),
        (
            "SELECT p.k, p.v, b.w FROM p JOIN {bi} b ON p.k = b.id ORDER BY 1, 2, 3",
            true,
        ),
        (
            "SELECT b.id, p.v FROM {bi} b JOIN p ON b.id = p.k ORDER BY 1, 2",
            true,
        ),
        (
            "SELECT p.kd, b.w FROM p JOIN {bi} b ON p.kd = b.id ORDER BY 1, 2",
            false,
        ),
        (
            "SELECT p.s, b.w FROM p JOIN {bs} b ON b.tag = p.s ORDER BY 1, 2",
            true,
        ),
        (
            "SELECT p.k, p.y, p.v, b.w FROM p JOIN {bm} b ON p.k = b.x AND p.y = b.y \
             ORDER BY 1, 2, 3, 4",
            true,
        ),
        (
            "SELECT b.tag, COUNT(*) AS n, SUM(p.v) AS s FROM p JOIN {bi} b ON p.k = b.id \
             GROUP BY b.tag ORDER BY 1",
            true,
        ),
    ];
    let keyed = |sql: &str| {
        sql.replace("{bi}", "bi")
            .replace("{bs}", "bs")
            .replace("{bm}", "bm")
    };
    let copy = |sql: &str| {
        sql.replace("{bi}", "bi_copy")
            .replace("{bs}", "bs_copy")
            .replace("{bm}", "bm_copy")
    };
    let mut db = db();
    join_fixture(&mut db);
    for (sql, indexed) in cases {
        let explain = db.execute(&format!("EXPLAIN {}", keyed(sql))).unwrap();
        let explain: Vec<String> = explain.rows.iter().map(|r| r[0].to_string()).collect();
        let shown = explain.iter().any(|l| l.ends_with("[index build]"));
        assert_eq!(shown, indexed, "{sql}:\n{}", explain.join("\n"));
        let copy_plan = db.execute(&format!("EXPLAIN {}", copy(sql))).unwrap();
        assert!(
            copy_plan
                .rows
                .iter()
                .all(|r| !r[0].to_string().contains("index")),
            "{sql}"
        );
    }
    for (workers, small, budget) in [(1, false, None), (2, true, None), (4, true, Some(64 << 10))] {
        db.config_mut().set_parallelism(workers);
        if small {
            db.config_mut().set_morsel_size(16);
            db.config_mut().set_batch_size(7);
        }
        db.config_mut().set_memory_budget(budget);
        for (sql, _) in cases {
            let expected = db.query(&copy(sql)).unwrap().rows;
            assert!(expected.len() >= 10, "{sql}: {} rows", expected.len());
            for got in [db.query(&keyed(sql)), db.execute(&keyed(sql))] {
                assert_eq!(got.unwrap().rows, expected, "{sql} at {workers} workers");
            }
        }
    }
}
