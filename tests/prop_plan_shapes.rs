//! Differential test of the shared plan cache's statement shapes.
//!
//! Random literal values go through the writer (`Database::execute`) and
//! one snapshot reader, which plan through one cache: each shape is
//! planned once, and the cached template is instantiated for every later
//! statement of that shape on either path. Every result must equal a
//! fresh, uncached `Database::query` of the same text, row for row under
//! a total ORDER BY. The statements vary comparison operands (IN
//! subquery bodies' included), IN-list members and BETWEEN bounds
//! (lifted into parameters) and ORDER BY /
//! GROUP BY ordinals, LIMIT / OFFSET, negative numbers and NULL (kept
//! verbatim, so they make new shapes); the cache must miss exactly once
//! per shape across both paths. Set `PROPTEST_SEED` to explore another
//! stream.

use std::collections::HashSet;

use openivm::ivm_engine::{Database, EngineError, QueryResult, SnapshotHub};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATEMENTS: usize = 400;

/// A statement and the shape the cache should see: the text with every
/// lifted literal replaced by `$` and its type.
#[derive(Default)]
struct Stmt {
    sql: String,
    shape: String,
}

impl Stmt {
    /// Verbatim text: part of the shape.
    fn raw(&mut self, s: &str) -> &mut Self {
        self.sql.push_str(s);
        self.shape.push_str(s);
        self
    }

    /// A literal the cache lifts into a parameter of type `ty`.
    fn lit(&mut self, s: &str, ty: &str) -> &mut Self {
        self.sql.push_str(s);
        self.shape.push('$');
        self.shape.push_str(ty);
        self
    }

    /// An integer operand: negative numbers are `-` applied to a
    /// literal, which stays verbatim; one past `i64` reads as DOUBLE.
    fn int(&mut self, rng: &mut StdRng) -> &mut Self {
        match rng.gen_range(0..20) {
            0 => self.raw(&format!("-{}", rng.gen_range(1..60i64))),
            1 => self.lit("99999999999999999999", "d"),
            _ => self.lit(&rng.gen_range(0..60i64).to_string(), "i"),
        }
    }

    fn double(&mut self, rng: &mut StdRng) -> &mut Self {
        self.lit(&format!("{:.2}", rng.gen_range(0.0..60.0)), "d")
    }

    fn string(&mut self, rng: &mut StdRng) -> &mut Self {
        if rng.gen_bool(0.05) {
            return self.lit("'it''s'", "s");
        }
        self.lit(&format!("'g{}'", rng.gen_range(0..40)), "s")
    }

    fn boolean(&mut self, rng: &mut StdRng) -> &mut Self {
        self.lit(if rng.gen_bool(0.5) { "TRUE" } else { "FALSE" }, "b")
    }
}

fn database() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (g VARCHAR, x INTEGER, y DOUBLE, f BOOLEAN)")
        .unwrap();
    db.execute("CREATE TABLE v (group_index VARCHAR, total INTEGER, cnt INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX v_group ON v (group_index)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| {
            let x = if i % 13 == 0 {
                "NULL".to_string()
            } else {
                ((i * 37) % 101 - 50).to_string()
            };
            let y = f64::from((i * 7) % 100) / 2.0;
            format!("('g{}', {x}, {y:.1}, {})", i % 10, i % 3 == 0)
        })
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    let groups: Vec<String> = (0..30)
        .map(|i| format!("('g{i}', {}, {i})", i * 10 - 50))
        .collect();
    db.execute(&format!("INSERT INTO v VALUES {}", groups.join(", ")))
        .unwrap();
    db
}

/// One random statement of one of the shape families.
fn statement(rng: &mut StdRng) -> Stmt {
    let mut s = Stmt::default();
    match rng.gen_range(0..12) {
        // The served point lookup, and its UNION ALL batches.
        0 => {
            s.raw("SELECT group_index, total, cnt FROM v WHERE group_index = ")
                .string(rng)
                .raw(" ORDER BY 1");
        }
        1 => {
            let width = [1, 2, 3, 8][rng.gen_range(0..4)];
            for i in 0..width {
                if i > 0 {
                    s.raw(" UNION ALL ");
                }
                s.raw("SELECT group_index, total, cnt FROM v WHERE group_index = ")
                    .string(rng);
            }
            s.raw(" ORDER BY 1, 2, 3");
        }
        2 => {
            s.raw("SELECT g, x, y FROM t WHERE x > ")
                .int(rng)
                .raw(" AND y <= ")
                .double(rng)
                .raw(" ORDER BY g, x, y");
        }
        3 => {
            s.raw("SELECT g, x FROM t WHERE x IN (");
            for i in 0..rng.gen_range(1..4) {
                if i > 0 {
                    s.raw(", ");
                }
                s.int(rng);
            }
            s.raw(") OR g NOT IN (")
                .string(rng)
                .raw(", ")
                .string(rng)
                .raw(") ORDER BY 1, 2");
        }
        4 => {
            s.raw("SELECT g, x, y FROM t WHERE x BETWEEN ")
                .int(rng)
                .raw(" AND ")
                .int(rng)
                .raw(" OR y NOT BETWEEN ")
                .double(rng)
                .raw(" AND ")
                .double(rng)
                .raw(" ORDER BY 1, 2, 3");
        }
        // Ordinals, LIMIT and OFFSET stay in the shape.
        5 => {
            let ord = rng.gen_range(1..4).to_string();
            let limit = ["1", "3", "100"][rng.gen_range(0..3)];
            let offset = ["0", "2"][rng.gen_range(0..2)];
            s.raw("SELECT g, COUNT(*) AS c, SUM(x) AS s FROM t WHERE x >= ")
                .int(rng)
                .raw(" GROUP BY 1 HAVING COUNT(*) > ")
                .int(rng)
                .raw(&format!(
                    " ORDER BY {ord} DESC, 1 LIMIT {limit} OFFSET {offset}"
                ));
        }
        // NULL is never a parameter.
        6 => {
            s.raw("SELECT g, x FROM t WHERE x = NULL OR (x IS NULL AND f = ")
                .boolean(rng)
                .raw(") OR COALESCE(x, 0) > ")
                .int(rng)
                .raw(" ORDER BY 1, 2");
        }
        7 => {
            s.raw("SELECT t.g, t.x, v.total FROM t JOIN v ON t.g = v.group_index AND v.total > ")
                .int(rng)
                .raw(" WHERE t.f = ")
                .boolean(rng)
                .raw(" ORDER BY 1, 2, 3");
        }
        8 => {
            s.raw("SELECT g, x FROM t WHERE CASE WHEN x > ")
                .int(rng)
                .raw(" THEN 'hi' ELSE 'lo' END = ")
                .lit(if rng.gen_bool(0.5) { "'hi'" } else { "'lo'" }, "s")
                .raw(" ORDER BY 1, 2");
        }
        9 => {
            s.raw("WITH w AS (SELECT g, x FROM t WHERE x < ")
                .int(rng)
                .raw(") SELECT g, COUNT(*) AS c FROM (SELECT * FROM w WHERE g <> ")
                .string(rng)
                .raw(") AS d GROUP BY g ORDER BY 1, 2");
        }
        // A DOUBLE column against INTEGER and DOUBLE operands: one shape
        // per operand type.
        10 => {
            s.raw("SELECT g, y FROM t WHERE y > ");
            if rng.gen_bool(0.5) {
                s.int(rng);
            } else {
                s.double(rng);
            }
            s.raw(" ORDER BY 1, 2");
        }
        // An IN subquery's body is planned with its statement: its
        // comparison operands lift too.
        _ => {
            let inner = rng.gen_range(0..3) * 100;
            s.raw("SELECT g, x FROM t WHERE g IN (SELECT group_index FROM v WHERE total > ")
                .lit(&inner.to_string(), "i")
                .raw(") AND x < ")
                .int(rng)
                .raw(" ORDER BY 1, 2");
        }
    }
    s
}

fn seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED)
}

#[test]
fn cached_templates_agree_with_fresh_plans() {
    let mut db = database();
    let hub = SnapshotHub::new(&db);
    let mut reader = hub.reader();
    let mut rng = StdRng::seed_from_u64(seed());
    let mut shapes = HashSet::new();
    for i in 0..STATEMENTS {
        // Data moves under the cached plans: they stay valid.
        if i % 50 == 49 {
            db.execute(&format!(
                "INSERT INTO t VALUES ('g{}', {i}, 1.5, TRUE)",
                i % 10
            ))
            .unwrap();
            hub.publish(&db);
        }
        let stmt = statement(&mut rng);
        let fresh = db
            .query(&stmt.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", stmt.sql));
        let written = db
            .execute(&stmt.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", stmt.sql));
        assert_eq!(written, fresh, "writer: {}", stmt.sql);
        let cached = reader
            .query(&stmt.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", stmt.sql));
        assert_eq!(cached, fresh, "reader: {}", stmt.sql);
        shapes.insert(stmt.shape);
    }
    let (entries, hits, misses) = hub.plan_cache_stats();
    let shapes = shapes.len() as u64;
    assert_eq!(misses, shapes, "one miss per shape across both paths");
    assert_eq!(hits, 2 * STATEMENTS as u64 - shapes, "every repeat hits");
    assert_eq!(entries as u64, shapes);
    assert_eq!(db.plan_cache_stats(), (entries, hits as usize), "one cache");
}

#[test]
fn errors_match_and_failed_plans_leave_no_entry() {
    let mut db = database();
    let hub = SnapshotHub::new(&db);
    let mut reader = hub.reader();
    let same =
        |a: &Result<QueryResult, EngineError>, b: &Result<QueryResult, EngineError>| match (a, b) {
            (Ok(a), Ok(b)) => a == b,
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
    // Warm one shape so a failure has something to disturb.
    reader
        .query("SELECT total FROM v WHERE group_index = 'g1'")
        .unwrap();
    for sql in [
        // Type mismatch: a VARCHAR column against an INTEGER parameter.
        "SELECT total FROM v WHERE group_index = 5",
        // One past i64 reads as DOUBLE: a mismatch here ...
        "SELECT total FROM v WHERE group_index = 99999999999999999999",
        "SELECT total FROM v WHERE nope = 'g1'",
        "SELECT total FROM nowhere WHERE group_index = 'g1'",
        // Placeholders a client wrote have no value.
        "SELECT total FROM v WHERE group_index = $1",
        "SELECT $2 FROM v WHERE group_index = 'g1'",
        "SELECT total FROM v WHERE group_index IN (SELECT $1 FROM t)",
    ] {
        let before = hub.plan_cache_stats().0;
        let fresh = db.query(sql);
        let written = db.execute(sql);
        let cached = reader.query(sql);
        assert!(fresh.is_err(), "{sql} should fail");
        assert!(same(&written, &fresh), "{sql}: {written:?} vs {fresh:?}");
        assert!(same(&cached, &fresh), "{sql}: {cached:?} vs {fresh:?}");
        assert_eq!(hub.plan_cache_stats().0, before, "{sql} left an entry");
    }
    // ... against an INTEGER column it is no match, and an IN list of
    // mixed types plans, then fails as it runs: both as a fresh plan does.
    let sql = "SELECT g FROM t WHERE x = 99999999999999999999";
    let (fresh, cached) = (db.query(sql), reader.query(sql));
    assert!(fresh.as_ref().is_ok_and(|r| r.rows.is_empty()), "{fresh:?}");
    assert!(same(&cached, &fresh), "{sql}");
    let sql = "SELECT total FROM v WHERE group_index IN ('g1', 99999999999999999999)";
    let (fresh, cached) = (db.query(sql), reader.query(sql));
    assert!(
        fresh.is_err() && same(&cached, &fresh),
        "{cached:?} vs {fresh:?}"
    );
    // A HAVING term must match its GROUP BY expression as written; the
    // lifted form does not, so the statement runs as sent, uncached.
    let before = hub.plan_cache_stats().0;
    let sql = "SELECT x > 0 AS p, COUNT(*) AS c FROM t GROUP BY x > 0 HAVING (x > 0) = TRUE";
    let (fresh, cached) = (db.query(sql), reader.query(sql));
    assert!(fresh.as_ref().is_ok_and(|r| r.rows.len() == 1), "{fresh:?}");
    assert!(same(&cached, &fresh), "{cached:?} vs {fresh:?}");
    assert_eq!(hub.plan_cache_stats().0, before);
    // The warm shape still serves other values.
    let r = reader
        .query("SELECT total FROM v WHERE group_index = 'g7'")
        .unwrap();
    assert_eq!(
        r,
        db.query("SELECT total FROM v WHERE group_index = 'g7'")
            .unwrap()
    );
}
