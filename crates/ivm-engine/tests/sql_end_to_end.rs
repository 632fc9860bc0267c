//! End-to-end SQL tests for the embedded engine: the exact statements the
//! OpenIVM compiler emits must run here.

use ivm_engine::{Database, Value};

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
    db.execute("DROP INDEX v_sec").unwrap();
    assert!(db.execute("DROP INDEX v_sec").is_err());
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
    // EXPLAIN never executes the query.
    assert!(db.execute("EXPLAIN DELETE FROM t").is_err(), "queries only");
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
}
