//! Property test: the ART behaves exactly like an ordered map under
//! arbitrary operation sequences.

use std::collections::BTreeMap;

use openivm::ivm_engine::index::{encode_key, Art};
use openivm::ivm_engine::Value;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum ArtOp {
    Insert(Vec<u8>, u64),
    Remove(Vec<u8>),
    Get(Vec<u8>),
}

/// Keys drawn from a small alphabet with shared prefixes to force node
/// splits, path compression, and every node-size transition.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(0u8), any::<u8>()],
        0..12,
    )
    .prop_map(|mut k| {
        // Terminate like the engine's encoding so no key is a proper
        // prefix of another.
        k.push(0xFE);
        k.push(0xFF);
        k
    })
}

fn op_strategy() -> impl Strategy<Value = ArtOp> {
    prop_oneof![
        3 => (key_strategy(), any::<u64>()).prop_map(|(k, v)| ArtOp::Insert(k, v)),
        1 => key_strategy().prop_map(ArtOp::Remove),
        1 => key_strategy().prop_map(ArtOp::Get),
    ]
}

/// Where a lossy numeric encoding would break: integers beyond ±2^53,
/// doubles at the same magnitudes, and the doubles no integer equals.
fn numeric_boundaries() -> Vec<Value> {
    const P53: i64 = 1 << 53;
    let ints = [
        P53,
        P53 + 1,
        P53 + 2,
        -P53,
        -P53 - 1,
        i64::MAX - 1,
        i64::MAX,
        i64::MIN,
    ];
    let mut pool: Vec<Value> = ints.iter().map(|&i| Value::Integer(i)).collect();
    pool.extend(ints.iter().map(|&i| Value::Double(i as f64)));
    pool.extend(
        [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -(i64::MIN as f64),
        ]
        .map(Value::Double),
    );
    pool
}

proptest! {
    #[test]
    fn art_matches_btreemap(ops in prop::collection::vec(op_strategy(), 0..400)) {
        let mut art = Art::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                ArtOp::Insert(k, v) => {
                    prop_assert_eq!(art.insert(k, *v), model.insert(k.clone(), *v));
                }
                ArtOp::Remove(k) => {
                    prop_assert_eq!(art.remove(k), model.remove(k));
                }
                ArtOp::Get(k) => {
                    prop_assert_eq!(art.get(k), model.get(k).copied());
                }
            }
            prop_assert_eq!(art.len(), model.len());
        }
        // Full in-order iteration must match the model exactly.
        let mut art_entries = Vec::new();
        art.for_each(|k, v| art_entries.push((k.to_vec(), v)));
        let model_entries: Vec<(Vec<u8>, u64)> =
            model.into_iter().collect();
        prop_assert_eq!(art_entries, model_entries);
    }

    #[test]
    fn encoded_value_order_matches_total_cmp(
        mut values in prop::collection::vec(
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Boolean),
                any::<i32>().prop_map(|i| Value::Integer(i64::from(i))),
                (-1e6f64..1e6).prop_map(Value::Double),
                (0..numeric_boundaries().len()).prop_map(|i| numeric_boundaries()[i].clone()),
                "[a-z]{0,6}".prop_map(Value::from),
            ],
            2..30,
        )
    ) {
        let enc = |v: &Value| encode_key(std::slice::from_ref(v));
        // Equal bytes exactly when equal values.
        for a in &values {
            for b in &values {
                prop_assert_eq!(enc(a) == enc(b), a == b, "{:?} vs {:?}", a, b);
            }
        }
        // Sorting by encoded bytes must equal sorting by total_cmp.
        let mut by_encoding = values.clone();
        by_encoding.sort_by_key(enc);
        values.sort();
        prop_assert_eq!(by_encoding, values);
    }

    #[test]
    fn scan_prefix_equals_filtered_iteration(
        groups in prop::collection::vec(("[ab]{1,3}", 0i64..20), 1..60),
        probe in "[ab]{1,3}",
    ) {
        let mut art = Art::new();
        for (i, (g, v)) in groups.iter().enumerate() {
            let key = encode_key(&[Value::from(g.clone()), Value::Integer(*v)]);
            art.insert(&key, i as u64);
        }
        let prefix = encode_key(&[Value::from(probe.clone())]);
        let via_scan = art.scan_prefix(&prefix);
        let mut via_filter = Vec::new();
        art.for_each(|k, v| {
            if k.len() >= prefix.len() && &k[..prefix.len()] == prefix.as_slice() {
                via_filter.push(v);
            }
        });
        prop_assert_eq!(via_scan, via_filter);
    }
}
