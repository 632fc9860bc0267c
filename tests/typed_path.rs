//! SQL-level equivalence suite for the typed columnar key arenas
//! (`ivm_engine::exec::typed`): queries whose keys take the packed
//! `(tag, word)` arena must produce exactly the rows (order included)
//! that `Value`'s grouping semantics dictate — across INTEGER≡DOUBLE
//! grouping, NULL keys, empty-string vs NULL text, NaN keys, and
//! integers beyond ±2^53, where equality with a DOUBLE is mathematical
//! rather than "widen, then compare".

use openivm::ivm_engine::{Database, Value};

fn i(v: i64) -> Value {
    Value::Integer(v)
}

fn d(v: f64) -> Value {
    Value::Double(v)
}

/// INTEGER and DOUBLE key values that compare equal under grouping
/// equality (3 ≡ 3.0) land in one group, keyed by the first-seen value;
/// NULL keys form one group of their own.
#[test]
fn mixed_int_double_keys_group_together() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k DOUBLE, v INTEGER)").unwrap();
    {
        let t = db.catalog_mut().table_mut("t").unwrap();
        // DOUBLE accepts INTEGER values as-is (widening), so one column
        // carries both runtime types — the grouping-equality stress case.
        for (n, k) in [i(3), d(3.0), i(4), d(4.5), Value::Null, Value::Null, d(3.0)]
            .into_iter()
            .enumerate()
        {
            t.insert(vec![k, i(n as i64)]).unwrap();
        }
    }
    let out = db.query("SELECT k, COUNT(*) FROM t GROUP BY k").unwrap();
    // First-seen group order, first-seen key representative.
    assert_eq!(
        out.rows,
        vec![
            vec![i(3), i(3)],
            vec![i(4), i(1)],
            vec![d(4.5), i(1)],
            vec![Value::Null, i(2)],
        ]
    );
}

/// DISTINCT over text: the empty string and NULL are different keys (one
/// row each), and duplicate strings deduplicate through the interned
/// text column.
#[test]
fn distinct_empty_string_vs_null_text() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s VARCHAR)").unwrap();
    {
        let t = db.catalog_mut().table_mut("t").unwrap();
        for s in [
            Value::from(""),
            Value::Null,
            Value::from(""),
            Value::Null,
            Value::from("a"),
        ] {
            t.insert(vec![s]).unwrap();
        }
    }
    let out = db.query("SELECT DISTINCT s FROM t").unwrap();
    assert_eq!(
        out.rows,
        vec![
            vec![Value::from("")],
            vec![Value::Null],
            vec![Value::from("a")]
        ]
    );
}

/// NaN keys: grouping equality treats NaN as equal to itself (one
/// group), and ORDER BY's total order places NaN after every finite
/// double.
#[test]
fn nan_keys_group_and_order() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k DOUBLE)").unwrap();
    {
        let t = db.catalog_mut().table_mut("t").unwrap();
        for k in [d(f64::NAN), d(1.0), d(f64::NAN)] {
            t.insert(vec![k]).unwrap();
        }
    }
    let grouped = db.query("SELECT k, COUNT(*) FROM t GROUP BY k").unwrap();
    assert_eq!(grouped.rows.len(), 2, "NaN must form exactly one group");
    assert_eq!(
        grouped.rows[0][1],
        i(2),
        "both NaNs in the first-seen group"
    );
    assert_eq!(grouped.rows[1], vec![d(1.0), i(1)]);
    let ordered = db.query("SELECT k FROM t ORDER BY k").unwrap();
    assert_eq!(ordered.rows[0], vec![d(1.0)], "finite doubles sort first");
    assert!(
        ordered.rows[1][0].as_f64().unwrap().is_nan()
            && ordered.rows[2][0].as_f64().unwrap().is_nan()
    );
}

/// Integers beyond ±2^53 pack into the arena like any other: 2^53 and
/// 2^53 + 1 are distinct groups even though they share an f64 image.
#[test]
fn big_int_keys_group_exactly() {
    const BIG: i64 = 1 << 53;
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    {
        let t = db.catalog_mut().table_mut("t").unwrap();
        for k in [BIG, BIG + 1, BIG, i64::MAX, i64::MIN, BIG + 1] {
            t.insert(vec![i(k)]).unwrap();
        }
    }
    let out = db.query("SELECT k, COUNT(*) FROM t GROUP BY k").unwrap();
    assert_eq!(
        out.rows,
        vec![
            vec![i(BIG), i(2)],
            vec![i(BIG + 1), i(2)],
            vec![i(i64::MAX), i(1)],
            vec![i(i64::MIN), i(1)],
        ]
    );
}

/// Join-key equality through the typed probe is exact: an INTEGER key
/// equals a DOUBLE key only when they are the same number (2^53 ≡
/// 9007199254740992.0, but 2^53 + 1 — whose *widened image* that double
/// is — does not), and never equals a different INTEGER sharing its f64
/// image.
#[test]
fn join_probe_exactness_beyond_2_53() {
    const BIG: i64 = 1 << 53;
    let mut db = Database::new();
    db.execute("CREATE TABLE l (k INTEGER, tag VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE rd (k DOUBLE, tag VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE ri (k INTEGER, tag VARCHAR)")
        .unwrap();
    {
        let t = db.catalog_mut().table_mut("l").unwrap();
        t.insert(vec![i(BIG + 1), Value::from("probe")]).unwrap();
    }
    {
        let t = db.catalog_mut().table_mut("rd").unwrap();
        t.insert(vec![d(BIG as f64), Value::from("double")])
            .unwrap();
    }
    {
        let t = db.catalog_mut().table_mut("ri").unwrap();
        t.insert(vec![i(BIG), Value::from("int")]).unwrap();
    }
    // Integer(2^53+1) vs Double(2^53): different numbers, no match.
    let vs_double = db
        .query("SELECT l.tag, rd.tag FROM l JOIN rd ON l.k = rd.k")
        .unwrap();
    assert!(vs_double.rows.is_empty(), "{:?}", vs_double.rows);
    // Double(2^53) vs Integer(2^53): the same number, one row.
    let same = db
        .query("SELECT rd.tag, ri.tag FROM rd JOIN ri ON rd.k = ri.k")
        .unwrap();
    assert_eq!(
        same.rows,
        vec![vec![Value::from("double"), Value::from("int")]]
    );
    // Integer(2^53+1) vs Integer(2^53): equal f64 images, no match.
    let vs_int = db
        .query("SELECT l.tag, ri.tag FROM l JOIN ri ON l.k = ri.k")
        .unwrap();
    assert!(vs_int.rows.is_empty(), "{:?}", vs_int.rows);
}

/// Grouping must not depend on arrival order: 2^53 + 1, 2^53 as a
/// DOUBLE and 2^53 are two groups (the double belongs with the integer
/// it equals), whichever integer comes first — and so whichever morsel
/// runs first.
#[test]
fn mixed_wide_keys_group_independently_of_order() {
    const BIG: i64 = 1 << 53;
    let groups = |order: [Value; 3]| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k DOUBLE)").unwrap();
        {
            let t = db.catalog_mut().table_mut("t").unwrap();
            for k in order {
                for _ in 0..40 {
                    t.insert(vec![k.clone()]).unwrap();
                }
            }
        }
        let mut rows = db
            .query("SELECT k, COUNT(*) FROM t GROUP BY k")
            .unwrap()
            .rows;
        rows.sort();
        rows
    };
    let forward = groups([i(BIG + 1), d(BIG as f64), i(BIG)]);
    let backward = groups([i(BIG), d(BIG as f64), i(BIG + 1)]);
    assert_eq!(forward, backward);
    assert_eq!(forward, vec![vec![i(BIG), i(80)], vec![i(BIG + 1), i(40)]]);
}

/// A plain integer join + GROUP BY + DISTINCT workload through the
/// arenas.
#[test]
fn integer_workload_row_counts() {
    let mut db = Database::new();
    db.execute("CREATE TABLE f (k INTEGER, v INTEGER)").unwrap();
    db.execute("CREATE TABLE dim (k INTEGER, w INTEGER)")
        .unwrap();
    {
        let t = db.catalog_mut().table_mut("f").unwrap();
        for n in 0..3000i64 {
            t.insert(vec![i(n % 97), i(n)]).unwrap();
        }
    }
    {
        let t = db.catalog_mut().table_mut("dim").unwrap();
        for n in 0..97i64 {
            t.insert(vec![i(n), i(n * 10)]).unwrap();
        }
    }
    let joined = db
        .query("SELECT f.k, dim.w FROM f JOIN dim ON f.k = dim.k")
        .unwrap();
    assert_eq!(joined.rows.len(), 3000);
    let grouped = db
        .query("SELECT k, COUNT(*), SUM(v) FROM f GROUP BY k")
        .unwrap();
    assert_eq!(grouped.rows.len(), 97);
    let distinct = db.query("SELECT DISTINCT k FROM f").unwrap();
    assert_eq!(distinct.rows.len(), 97);
}
