//! Differential testing: the columnar OLAP engine and the row-store OLTP
//! engine implement single-table SQL independently — on the query subset
//! both support, they must agree for arbitrary data and queries.

use openivm::ivm_engine::{Database, Value};
use openivm::ivm_htap::rows_equal_as_multisets;
use openivm::ivm_oltp::OltpEngine;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    g: u8,
    v: i32,
    tag: bool,
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (0u8..5, -100i32..100, any::<bool>()).prop_map(|(g, v, tag)| Row { g, v, tag })
}

/// A predicate from the overlap of both engines' WHERE support.
#[derive(Debug, Clone)]
enum Pred {
    None,
    VCmp(&'static str, i32),
    GEq(u8),
    TagIs(bool),
    VBetween(i32, i32),
    VCmpAndG(&'static str, i32, u8),
    VCmpOrTag(i32, bool),
}

fn cmp_op_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(">"), Just("<"), Just(">="), Just("<="), Just("<>")]
}

fn pred_strategy() -> impl Strategy<Value = Pred> {
    prop_oneof![
        Just(Pred::None),
        (cmp_op_strategy(), -50i32..50).prop_map(|(op, k)| Pred::VCmp(op, k)),
        (0u8..5).prop_map(Pred::GEq),
        any::<bool>().prop_map(Pred::TagIs),
        (-50i32..0, 0i32..50).prop_map(|(a, b)| Pred::VBetween(a, b)),
        (cmp_op_strategy(), -50i32..50, 0u8..5).prop_map(|(op, k, g)| Pred::VCmpAndG(op, k, g)),
        (-50i32..50, any::<bool>()).prop_map(|(k, b)| Pred::VCmpOrTag(k, b)),
    ]
}

impl Pred {
    fn to_sql(&self) -> String {
        match self {
            Pred::None => String::new(),
            Pred::VCmp(op, k) => format!(" WHERE v {op} {k}"),
            Pred::GEq(g) => format!(" WHERE g = 'g{g}'"),
            Pred::TagIs(b) => format!(" WHERE tag = {}", if *b { "TRUE" } else { "FALSE" }),
            Pred::VBetween(a, b) => format!(" WHERE v BETWEEN {a} AND {b}"),
            Pred::VCmpAndG(op, k, g) => format!(" WHERE v {op} {k} AND g = 'g{g}'"),
            Pred::VCmpOrTag(k, b) => {
                format!(
                    " WHERE v < {k} OR tag = {}",
                    if *b { "TRUE" } else { "FALSE" }
                )
            }
        }
    }
}

/// Queries in the overlap of both engines: projections (plain and
/// computed), CASE, grouped aggregates (plain and computed arguments),
/// and — where marked `Ordered` — fully-ordered ORDER BY/LIMIT results
/// that must agree *as lists*, not just as multisets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmp {
    Multiset,
    Ordered,
}

fn queries(pred: &Pred) -> Vec<(String, Cmp)> {
    let w = pred.to_sql();
    vec![
        (format!("SELECT g, v FROM t{w}"), Cmp::Multiset),
        (format!("SELECT v FROM t{w}"), Cmp::Multiset),
        (format!("SELECT v * 2 + 1 AS d, g FROM t{w}"), Cmp::Multiset),
        (
            format!("SELECT CASE WHEN v > 0 THEN 'pos' ELSE 'nonpos' END AS sign, v FROM t{w}"),
            Cmp::Multiset,
        ),
        (
            format!("SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t{w} GROUP BY g"),
            Cmp::Multiset,
        ),
        (
            format!("SELECT g, MIN(v) AS lo, MAX(v) AS hi FROM t{w} GROUP BY g"),
            Cmp::Multiset,
        ),
        (
            format!("SELECT g, AVG(v) AS m FROM t{w} GROUP BY g"),
            Cmp::Multiset,
        ),
        (
            format!("SELECT g, SUM(v + 1) AS s, COUNT(v) AS cv FROM t{w} GROUP BY g"),
            Cmp::Multiset,
        ),
        // Total order over every output column → comparable as lists.
        (
            format!("SELECT g, v, tag FROM t{w} ORDER BY v, g, tag"),
            Cmp::Ordered,
        ),
        (
            format!("SELECT g, v FROM t{w} ORDER BY v DESC, g DESC LIMIT 7"),
            Cmp::Ordered,
        ),
    ]
}

const COLUMNS: [&str; 3] = ["g", "v", "tag"];

/// Non-empty column sets of `t`, by bit mask over [`COLUMNS`].
fn column_set(mask: u8) -> Vec<usize> {
    (0..COLUMNS.len())
        .filter(|c| mask & (1 << c) != 0)
        .collect()
}

/// Index DDL on the OLAP side only (the oracle takes none): a plain index
/// on column `plain`, which is recorded and builds nothing, and a UNIQUE
/// index over the columns `key` of the keyless `t`, which becomes its
/// primary key. The key must be refused exactly when `rows` repeat it;
/// returns whether `t` has it.
fn create_indexes(
    olap: &mut Database,
    rows: &[Row],
    plain: usize,
    key: &[usize],
) -> Result<bool, TestCaseError> {
    olap.execute(&format!("CREATE INDEX t_plain ON t ({})", COLUMNS[plain]))
        .unwrap();
    let names: Vec<&str> = key.iter().map(|&c| COLUMNS[c]).collect();
    let stmt = format!("CREATE UNIQUE INDEX t_key ON t ({})", names.join(", "));
    let duplicate = repeats_key(rows, key);
    let refused = olap.execute(&stmt).is_err();
    prop_assert_eq!(refused, duplicate, "{} over {} rows", stmt, rows.len());
    Ok(!refused)
}

/// Whether two of `rows` agree on the columns `key`.
fn repeats_key(rows: &[Row], key: &[usize]) -> bool {
    let project = |r: &Row| {
        key.iter()
            .map(|&c| [i32::from(r.g), r.v, i32::from(r.tag)][c])
            .collect::<Vec<i32>>()
    };
    let distinct: std::collections::HashSet<Vec<i32>> = rows.iter().map(project).collect();
    distinct.len() < rows.len()
}

/// A point read on column `c` for the value `row` holds there.
fn point_read(c: usize, row: &Row) -> String {
    let value = match c {
        0 => format!("'g{}'", row.g),
        1 => row.v.to_string(),
        _ => (if row.tag { "TRUE" } else { "FALSE" }).to_string(),
    };
    format!("SELECT g, v, tag FROM t WHERE {} = {value}", COLUMNS[c])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn olap_and_oltp_agree(
        rows in prop::collection::vec(row_strategy(), 0..60),
        pred in pred_strategy(),
        plain in 0usize..3,
        key_mask in prop_oneof![Just(2u8), Just(3u8), 1u8..8],
    ) {
        let mut olap = Database::new();
        let mut oltp = OltpEngine::new();
        let ddl = "CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)";
        olap.execute(ddl).unwrap();
        oltp.execute(ddl).unwrap();
        for r in &rows {
            let stmt = format!(
                "INSERT INTO t VALUES ('g{}', {}, {})",
                r.g,
                r.v,
                if r.tag { "TRUE" } else { "FALSE" }
            );
            olap.execute(&stmt).unwrap();
            oltp.execute(&stmt).unwrap();
        }
        create_indexes(&mut olap, &rows, plain, &column_set(key_mask))?;
        let mut queries = queries(&pred);
        if let Some(first) = rows.first() {
            queries.extend((0..COLUMNS.len()).map(|c| (point_read(c, first), Cmp::Multiset)));
        }
        for (q, cmp) in queries {
            let a = olap.query(&q).unwrap().rows;
            let b = oltp.execute(&q).unwrap().rows;
            let agree = match cmp {
                Cmp::Multiset => rows_equal_as_multisets(&a, &b),
                Cmp::Ordered => a == b,
            };
            prop_assert!(agree, "engines disagree on {q}:\n olap={a:?}\n oltp={b:?}");
        }
    }

    #[test]
    fn engines_agree_after_updates_and_deletes(
        rows in prop::collection::vec(row_strategy(), 1..40),
        delete_g in 0u8..5,
        add in -10i32..10,
        aim in proptest::option::of((0usize..40, 0usize..40)),
        plain in 0usize..3,
        key_mask in prop_oneof![Just(2u8), Just(3u8), 1u8..8],
    ) {
        let mut olap = Database::new();
        let mut oltp = OltpEngine::new();
        let ddl = "CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)";
        olap.execute(ddl).unwrap();
        oltp.execute(ddl).unwrap();
        for r in &rows {
            let stmt = format!(
                "INSERT INTO t VALUES ('g{}', {}, {})",
                r.g, r.v, if r.tag { "TRUE" } else { "FALSE" }
            );
            olap.execute(&stmt).unwrap();
            oltp.execute(&stmt).unwrap();
        }
        // The UPDATE is checked against its final rows: with a key over
        // `v` it is refused exactly when those rows repeat the key, and a
        // refused UPDATE changes nothing — so the oracle, which has no
        // key, skips it.
        // An aimed shift moves a tagged row's `v` onto an untagged row's,
        // so a key over `v` (the likeliest masks) is often repeated by the
        // UPDATE's final rows.
        let (tagged, untagged): (Vec<&Row>, Vec<&Row>) = rows.iter().partition(|r| r.tag);
        let add = match aim {
            Some((i, j)) if !tagged.is_empty() && !untagged.is_empty() => {
                untagged[j % untagged.len()].v - tagged[i % tagged.len()].v
            }
            _ => add,
        };
        let key = column_set(key_mask);
        let keyed = create_indexes(&mut olap, &rows, plain, &key)?;
        let updated: Vec<Row> = rows
            .iter()
            .map(|r| Row { v: if r.tag { r.v + add } else { r.v }, ..r.clone() })
            .collect();
        let upd = format!("UPDATE t SET v = v + {add} WHERE tag = TRUE");
        match olap.execute(&upd) {
            Ok(a) => {
                prop_assert!(!(keyed && repeats_key(&updated, &key)), "{} accepted", upd);
                let b = oltp.execute(&upd).unwrap().rows_affected;
                prop_assert_eq!(a.rows_affected, b, "rows_affected diverged for {}", upd);
            }
            Err(e) => prop_assert!(
                keyed && repeats_key(&updated, &key),
                "{} refused: {}", upd, e
            ),
        }
        let del = format!("DELETE FROM t WHERE g = 'g{delete_g}'");
        let a = olap.execute(&del).unwrap().rows_affected;
        let b = oltp.execute(&del).unwrap().rows_affected;
        prop_assert_eq!(a, b, "rows_affected diverged for {}", del);
        let mut reads = vec!["SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g".to_string()];
        reads.extend((0..COLUMNS.len()).map(|c| point_read(c, &rows[0])));
        for q in &reads {
            let a = olap.query(q).unwrap().rows;
            let b = oltp.execute(q).unwrap().rows;
            prop_assert!(rows_equal_as_multisets(&a, &b), "engines disagree on {q}");
        }
    }
}

/// Deterministic pin at the executor's batch boundary: 1025 rows straddle
/// the default 1024-row batch, so every streamed operator crosses a batch
/// edge while the row-at-a-time OLTP engine is oblivious to batching.
#[test]
fn engines_agree_across_batch_boundary() {
    let mut olap = Database::new();
    let mut oltp = OltpEngine::new();
    let ddl = "CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)";
    olap.execute(ddl).unwrap();
    oltp.execute(ddl).unwrap();
    let values: Vec<String> = (0..1025)
        .map(|v| {
            format!(
                "('g{}', {}, {})",
                v % 7,
                v,
                if v % 3 == 0 { "TRUE" } else { "FALSE" }
            )
        })
        .collect();
    let insert = format!("INSERT INTO t VALUES {}", values.join(", "));
    olap.execute(&insert).unwrap();
    oltp.execute(&insert).unwrap();
    for (q, cmp) in queries(&Pred::VCmp(">", 40)) {
        let a = olap.query(&q).unwrap().rows;
        let b = oltp.execute(&q).unwrap().rows;
        let agree = match cmp {
            Cmp::Multiset => rows_equal_as_multisets(&a, &b),
            Cmp::Ordered => a == b,
        };
        assert!(agree, "engines disagree on {q}:\n olap={a:?}\n oltp={b:?}");
    }
}

#[test]
fn engines_agree_on_empty_table() {
    let mut olap = Database::new();
    let mut oltp = OltpEngine::new();
    let ddl = "CREATE TABLE t (g VARCHAR, v INTEGER, tag BOOLEAN)";
    olap.execute(ddl).unwrap();
    oltp.execute(ddl).unwrap();
    let q = "SELECT g, SUM(v) AS s FROM t GROUP BY g";
    assert!(olap.query(q).unwrap().rows.is_empty());
    assert!(oltp.execute(q).unwrap().rows.is_empty());
    // Global aggregate over empty input: one all-NULL/zero row on both.
    let q = "SELECT SUM(v) AS s, COUNT(*) AS c FROM t";
    let a = olap.query(q).unwrap().rows;
    let b = oltp.execute(q).unwrap().rows;
    assert_eq!(a, vec![vec![Value::Null, Value::Integer(0)]]);
    assert_eq!(a, b);
}
