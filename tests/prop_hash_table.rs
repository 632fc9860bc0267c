//! Property tests for the flat open-addressing hash infrastructure
//! (`ivm_engine::exec::hash`): the [`FlatTable`] + arena pattern must
//! behave exactly like `std::collections::HashMap` keyed on the same
//! grouping equality, including under forced hash collisions, NULL keys,
//! and growth across the executor batch boundaries.

use std::collections::HashMap;

use openivm::ivm_engine::exec::hash::{hash_row, hash_value, FlatTable, ProbeMode, RowSet};
use openivm::ivm_engine::{Database, Value};
use proptest::prelude::*;

/// A generator over groupable values of every runtime type, NULL
/// included.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        (-50i64..50).prop_map(Value::Integer),
        (-50i64..50).prop_map(|v| Value::Double(v as f64 / 2.0)),
        "[a-d]{0,3}".prop_map(Value::from),
        (-100i32..100).prop_map(Value::Date),
    ]
}

fn key_strategy() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(value_strategy(), 1..3)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Grouping-map equivalence: folding a random key batch through a
    /// FlatTable + arena produces exactly the distinct-key set, first-seen
    /// order, and per-key multiplicities of a `HashMap` over the same keys.
    #[test]
    fn flat_table_matches_hashmap_grouping(keys in prop::collection::vec(key_strategy(), 0..300)) {
        // Model: HashMap keyed by the materialized row.
        let mut model: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut model_order: Vec<Vec<Value>> = Vec::new();
        for k in &keys {
            match model.get_mut(k) {
                Some(c) => *c += 1,
                None => {
                    model.insert(k.clone(), 1);
                    model_order.push(k.clone());
                }
            }
        }
        // Under test: FlatTable with arena-stored keys and counts.
        let mut table = FlatTable::new();
        let mut arena: Vec<Vec<Value>> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for k in &keys {
            let h = hash_row(k);
            match table.find(h, |p| &arena[p as usize] == k) {
                Some(p) => counts[p as usize] += 1,
                None => {
                    let idx = arena.len() as u32;
                    arena.push(k.clone());
                    counts.push(1);
                    table.insert(h, idx);
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
        prop_assert_eq!(&arena, &model_order, "first-seen order must match");
        for (k, c) in arena.iter().zip(&counts) {
            prop_assert_eq!(model.get(k), Some(c), "multiplicity of {:?}", k);
        }
        // Negative probes: a key absent from the model is absent here.
        for k in &keys {
            let mut missing = k.clone();
            missing.push(Value::Integer(1_000_000));
            let h = hash_row(&missing);
            prop_assert_eq!(table.find(h, |p| arena[p as usize] == missing), None);
        }
    }

    /// Hash consistency: keys equal under grouping equality always hash
    /// equal (the FlatTable contract — a violation splits a group).
    #[test]
    fn grouping_equality_implies_hash_equality(a in key_strategy(), b in key_strategy()) {
        if a == b {
            prop_assert_eq!(hash_row(&a), hash_row(&b));
        }
        for (x, y) in a.iter().zip(&b) {
            if x == y {
                prop_assert_eq!(hash_value(x), hash_value(y), "{:?} vs {:?}", x, y);
            }
        }
    }

    /// RowSet (the DISTINCT structure) deduplicates exactly like a
    /// HashMap-backed set over materialized rows. One set sees rows of
    /// one width (its input's arity), so each case fixes the width.
    #[test]
    fn row_set_matches_hashset(
        narrow in any::<bool>(),
        mut keys in prop::collection::vec(prop::collection::vec(value_strategy(), 2..3), 0..200),
    ) {
        if narrow {
            keys.iter_mut().for_each(|k| k.truncate(1));
        }
        let mut model: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        let mut set = RowSet::new();
        for k in &keys {
            let fresh_model = model.insert(k.clone());
            let fresh = set.insert_row(hash_row(k), k.clone());
            prop_assert_eq!(fresh, fresh_model, "disagree on {:?}", k);
        }
    }
}

/// Forced collisions: keys engineered to share one hash must still
/// resolve through probing + the equality closure, across growth.
#[test]
fn forced_collisions_resolve() {
    let mut table = FlatTable::new();
    let arena: Vec<i64> = (0..2000).collect();
    for (i, _) in arena.iter().enumerate() {
        // Two hash classes only → ~1000-long probe chains each, plus
        // multiple growth rounds while chains are live.
        let h = (i % 2) as u64;
        table.insert(h, i as u32);
    }
    assert_eq!(table.len(), 2000);
    for (i, v) in arena.iter().enumerate() {
        let h = (i % 2) as u64;
        assert_eq!(
            table.find(h, |p| arena[p as usize] == *v),
            Some(i as u32),
            "entry {i} lost under collisions"
        );
        // Same hash, absent key.
        assert_eq!(table.find(h, |p| arena[p as usize] == -1), None);
    }
}

/// Table growth across the executor batch boundaries: exactly
/// 0/1/1023/1024/1025 distinct keys inserted and re-found.
#[test]
fn growth_at_batch_boundaries() {
    for n in [0usize, 1, 1023, 1024, 1025] {
        let mut table = FlatTable::new();
        for k in 0..n as u32 {
            let h = hash_value(&Value::Integer(i64::from(k)));
            assert_eq!(table.find(h, |p| p == k), None, "n={n} premature {k}");
            table.insert(h, k);
        }
        assert_eq!(table.len(), n);
        for k in 0..n as u32 {
            let h = hash_value(&Value::Integer(i64::from(k)));
            assert_eq!(table.find(h, |p| p == k), Some(k), "n={n} lost {k}");
        }
    }
}

/// NULL-key semantics through the SQL surface: NULL join keys never
/// match (but outer rows survive), NULL group keys group together, and
/// DISTINCT treats NULL as one value — at sizes crossing batch
/// boundaries so the flat tables grow mid-query.
#[test]
fn null_keys_through_sql() {
    for n in [1usize, 1023, 1024, 1025] {
        let mut db = Database::new();
        db.execute("CREATE TABLE l (k INTEGER, v INTEGER)").unwrap();
        db.execute("CREATE TABLE r (k INTEGER, w INTEGER)").unwrap();
        {
            let t = db.catalog_mut().table_mut("l").unwrap();
            for i in 0..n {
                // Every third key NULL.
                let k = if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Integer((i % 50) as i64)
                };
                t.insert(vec![k, Value::Integer(i as i64)]).unwrap();
            }
        }
        {
            let t = db.catalog_mut().table_mut("r").unwrap();
            for i in 0..50 {
                let k = if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Integer(i as i64)
                };
                t.insert(vec![k, Value::Integer(i as i64 * 100)]).unwrap();
            }
        }
        // Inner join: no NULL key on either side ever matches.
        let inner = db
            .query("SELECT l.v, r.w FROM l JOIN r ON l.k = r.k")
            .unwrap();
        let non_null_l = (0..n).filter(|i| i % 3 != 0).count();
        assert!(inner.rows.len() <= non_null_l, "n={n}");
        // Left join: every left row survives exactly once or with matches.
        let left = db
            .query("SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k")
            .unwrap();
        assert!(left.rows.len() >= n, "n={n}");
        let null_padded = left.rows.iter().filter(|row| row[1].is_null()).count();
        assert!(null_padded >= n.div_ceil(3), "n={n}: NULL keys must pad");
        // NULL group keys form ONE group.
        let grouped = db
            .query("SELECT k, COUNT(*) AS c FROM l GROUP BY k")
            .unwrap();
        let null_groups = grouped.rows.iter().filter(|row| row[0].is_null()).count();
        assert_eq!(null_groups, 1, "n={n}: NULLs group together");
        // DISTINCT: NULL is one value.
        let distinct = db.query("SELECT DISTINCT k FROM l").unwrap();
        let nulls = distinct.rows.iter().filter(|row| row[0].is_null()).count();
        assert_eq!(nulls, 1, "n={n}");
    }
}

/// Join/aggregate results are invariant across executor batch sizes that
/// straddle the table-growth boundaries (the flat tables are internal —
/// output must not depend on when they grow).
#[test]
fn results_invariant_across_batch_sizes() {
    let build = |batch_size: usize| {
        let mut db = Database::with_batch_size(batch_size);
        db.execute("CREATE TABLE t (g INTEGER, v INTEGER)").unwrap();
        {
            let t = db.catalog_mut().table_mut("t").unwrap();
            for i in 0..1025 {
                t.insert(vec![
                    Value::Integer((i % 97) as i64),
                    Value::Integer(i as i64),
                ])
                .unwrap();
            }
        }
        db
    };
    let reference = build(1024);
    let expect_group = reference
        .query("SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g")
        .unwrap()
        .rows;
    let expect_join = reference
        .query("SELECT a.v, b.v FROM t AS a JOIN t AS b ON a.g = b.g WHERE a.v < 20 ORDER BY 1, 2")
        .unwrap()
        .rows;
    for bs in [1usize, 7, 1023, 1025] {
        let db = build(bs);
        assert_eq!(
            db.query("SELECT g, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY g")
                .unwrap()
                .rows,
            expect_group,
            "batch_size={bs}"
        );
        assert_eq!(
            db.query(
                "SELECT a.v, b.v FROM t AS a JOIN t AS b ON a.g = b.g WHERE a.v < 20 ORDER BY 1, 2"
            )
            .unwrap()
            .rows,
            expect_join,
            "batch_size={bs}"
        );
    }
}

/// Every probe mode, over every table under test.
const PROBE_MODES: [ProbeMode; 3] = [ProbeMode::Scalar, ProbeMode::Swar, ProbeMode::Sse2];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Group-scan parity: the SWAR and SSE2 tag scans return exactly what
    /// the byte-at-a-time scalar scan returns — same payload on hits,
    /// `None` on misses — on tables grown through arbitrary insert
    /// sequences. Squeezing hashes into a handful of classes forces long
    /// probe sequences *and* identical 7-bit control tags packed densely
    /// into shared groups, the worst case for a vectorized tag compare.
    #[test]
    fn probe_modes_match_scalar(
        payloads in prop::collection::vec(0u32..5000, 0..600),
        classes in 1u64..8,
    ) {
        let mut table = FlatTable::new();
        for (i, &p) in payloads.iter().enumerate() {
            let h = (i as u64 % classes).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            table.insert(h, p);
        }
        for (i, &p) in payloads.iter().enumerate() {
            let h = (i as u64 % classes).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let scalar = table.find_in_mode(h, |q| q == p, ProbeMode::Scalar);
            prop_assert_eq!(scalar, Some(p), "scalar lost entry {}", i);
            for mode in PROBE_MODES {
                prop_assert_eq!(
                    table.find_in_mode(h, |q| q == p, mode),
                    scalar,
                    "{:?} disagrees on entry {}",
                    mode,
                    i
                );
            }
        }
        // Misses agree in every mode: same hash class, absent payload.
        for cls in 0..classes {
            let h = cls.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for mode in PROBE_MODES {
                prop_assert_eq!(table.find_in_mode(h, |q| q == u32::MAX, mode), None);
            }
        }
    }
}

/// Probe-mode parity across growth at the executor batch boundaries
/// (0/1/1023/1024/1025), plus re-insertion under the same hashes after
/// growth: the table never deletes, so chains extend tombstone-free and
/// every mode still resolves both the old and the new payloads.
#[test]
fn probe_modes_agree_across_growth_and_reinsertion() {
    for n in [0usize, 1, 1023, 1024, 1025] {
        let mut table = FlatTable::new();
        for k in 0..n as u32 {
            table.insert(hash_value(&Value::Integer(i64::from(k))), k);
        }
        for k in 0..n as u32 {
            let h = hash_value(&Value::Integer(i64::from(k)));
            for mode in PROBE_MODES {
                assert_eq!(
                    table.find_in_mode(h, |p| p == k, mode),
                    Some(k),
                    "n={n} k={k} {mode:?}"
                );
            }
        }
        // Second wave on the same hashes (no tombstones exist to reuse —
        // inserts only ever take first-empty slots).
        for k in 0..n as u32 {
            table.insert(hash_value(&Value::Integer(i64::from(k))), n as u32 + k);
        }
        assert_eq!(table.len(), 2 * n);
        for k in 0..n as u32 {
            let h = hash_value(&Value::Integer(i64::from(k)));
            for (want, miss) in [(k, false), (n as u32 + k, false), (u32::MAX, true)] {
                let expect = if miss { None } else { Some(want) };
                for mode in PROBE_MODES {
                    assert_eq!(
                        table.find_in_mode(h, |p| p == want, mode),
                        expect,
                        "n={n} k={k} want={want} {mode:?}"
                    );
                }
            }
        }
    }
}
