//! Float aggregation determinism: parallel SUM/AVG must equal the serial
//! result **bitwise**, not merely within rounding noise. The exact
//! accumulator (`ExactSum`) keeps Shewchuk non-overlapping partials, so
//! the final rounding is independent of morsel boundaries and merge
//! order — workers 1, 2, and 4 must produce identical bit patterns even
//! over adversarial magnitude mixes (1e-300 .. 1e300, cancellation,
//! signed zeros).
//!
//! Rows are inserted through the storage API as `Value::Double`, not as
//! SQL literals, so no decimal round-trip can mask a divergence.

use std::collections::BTreeMap;

use openivm::ivm_engine::{Database, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct FRow {
    g: u8,
    v: f64,
}

/// Adversarial doubles: wide exponent range, both signs, plus exact
/// killer values (MAX-adjacent magnitudes would overflow the true sum,
/// which is out of scope — parallel-vs-serial for non-finite totals is
/// IEEE-sticky, not bitwise-deterministic).
fn double_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        // sign * mantissa * 2^exp, exponent swept across ~600 decimal
        // orders of magnitude.
        (any::<bool>(), 1u64..(1 << 52), -900i32..900).prop_map(|(neg, m, e)| {
            let d = (m as f64) * (e as f64 / 64.0).exp2();
            if neg {
                -d
            } else {
                d
            }
        }),
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(-1.0),
        Just(1e-300),
        Just(1e300),
        Just(-1e300),
        Just(f64::EPSILON),
        Just(1.0 + f64::EPSILON),
    ]
}

fn frow_strategy() -> impl Strategy<Value = FRow> {
    (0u8..5, double_strategy()).prop_map(|(g, v)| FRow { g, v })
}

fn database(workers: usize, rows: &[FRow]) -> Database {
    let mut db = Database::new();
    db.config_mut().set_parallelism(workers);
    db.config_mut().set_morsel_size(32);
    db.execute("CREATE TABLE t (g VARCHAR, v DOUBLE)").unwrap();
    let table = db.catalog_mut().table_mut("t").unwrap();
    for r in rows {
        table
            .insert(vec![
                Value::Varchar(format!("g{}", r.g)),
                Value::Double(r.v),
            ])
            .unwrap();
    }
    db
}

/// Group rows by key and extract the aggregate bit patterns.
fn agg_bits(db: &Database, sql: &str) -> BTreeMap<String, Vec<u64>> {
    let result = db.query(sql).unwrap();
    let mut out = BTreeMap::new();
    for row in result.rows {
        let key = match &row[0] {
            Value::Varchar(s) => s.clone(),
            Value::Null => "<null>".to_string(),
            other => format!("{other}"),
        };
        let bits = row[1..]
            .iter()
            .map(|v| match v {
                Value::Double(d) => d.to_bits(),
                Value::Integer(i) => (*i as f64).to_bits(),
                Value::Null => u64::MAX, // sentinel outside NaN payload use
                other => panic!("unexpected aggregate value {other:?}"),
            })
            .collect();
        assert!(out.insert(key, bits).is_none(), "duplicate group key");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn float_aggregates_are_bitwise_identical_across_workers(
        rows in prop::collection::vec(frow_strategy(), 0..300),
    ) {
        let queries = [
            "SELECT g, SUM(v) AS s FROM t GROUP BY g",
            "SELECT g, AVG(v) AS a FROM t GROUP BY g",
            "SELECT g, SUM(v) AS s, AVG(v) AS a, COUNT(*) AS c FROM t GROUP BY g",
        ];
        let serial = database(1, &rows);
        for workers in [2usize, 4] {
            let parallel = database(workers, &rows);
            for q in &queries {
                let expected = agg_bits(&serial, q);
                let got = agg_bits(&parallel, q);
                prop_assert_eq!(
                    &expected, &got,
                    "workers={} query={} diverged from serial bit pattern",
                    workers, q
                );
            }
        }
    }
}
