//! The central IVM property (DBSP's correctness statement): for arbitrary
//! change sequences ΔT, the incrementally-maintained view equals the view
//! recomputed from scratch — `I(f(ΔT)) == Q(I(ΔT))`.

use openivm::ivm_core::{IvmFlags, IvmSession, UpsertStrategy};
use proptest::prelude::*;

/// One random base-table operation.
#[derive(Debug, Clone)]
enum Op {
    Insert { g: u8, v: i16 },
    DeleteWhere { g: u8, below: i16 },
    UpdateAdd { g: u8, add: i16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..6, -50i16..50).prop_map(|(g, v)| Op::Insert { g, v }),
        1 => (0u8..6, -50i16..50).prop_map(|(g, below)| Op::DeleteWhere { g, below }),
        1 => (0u8..6, -5i16..5).prop_map(|(g, add)| Op::UpdateAdd { g, add }),
    ]
}

/// The key column's type and the SQL spelling of each generated key.
struct KeyDomain {
    ty: &'static str,
    keys: [&'static str; 6],
}

const TEXT_KEYS: KeyDomain = KeyDomain {
    ty: "VARCHAR",
    keys: ["'g0'", "'g1'", "'g2'", "'g3'", "'g4'", "'g5'"],
};

/// Integer keys including 2^53 and 2^53 + 1: one f64 image, two groups.
const WIDE_KEYS: KeyDomain = KeyDomain {
    ty: "INTEGER",
    keys: ["0", "1", "-7", "42", "9007199254740992", "9007199254740993"],
};

fn apply(ivm: &mut IvmSession, domain: &KeyDomain, op: &Op) {
    let key = |g: &u8| domain.keys[usize::from(*g)];
    match op {
        Op::Insert { g, v } => {
            ivm.execute(&format!("INSERT INTO t VALUES ({}, {v})", key(g)))
                .unwrap();
        }
        Op::DeleteWhere { g, below } => {
            ivm.execute(&format!(
                "DELETE FROM t WHERE k = {} AND v < {below}",
                key(g)
            ))
            .unwrap();
        }
        Op::UpdateAdd { g, add } => {
            ivm.execute(&format!("UPDATE t SET v = v + {add} WHERE k = {}", key(g)))
                .unwrap();
        }
    }
}

fn run_view(view_sql: &str, strategy: UpsertStrategy, ops: &[Op]) {
    run_view_over(&TEXT_KEYS, view_sql, strategy, ops);
}

fn run_view_over(domain: &KeyDomain, view_sql: &str, strategy: UpsertStrategy, ops: &[Op]) {
    let needs_index = strategy.needs_index();
    let flags = IvmFlags {
        upsert_strategy: strategy,
        index_creation: if needs_index {
            openivm::ivm_core::IndexCreation::AfterPopulate
        } else {
            openivm::ivm_core::IndexCreation::None
        },
        ..IvmFlags::paper_defaults()
    };
    let mut ivm = IvmSession::new(flags);
    ivm.execute(&format!("CREATE TABLE t (k {}, v INTEGER)", domain.ty))
        .unwrap();
    // A little seed data so the initial population is non-trivial.
    let [k0, k1, ..] = domain.keys;
    ivm.execute(&format!(
        "INSERT INTO t VALUES ({k0}, 1), ({k1}, -2), ({k1}, 5)"
    ))
    .unwrap();
    ivm.execute(view_sql).unwrap();
    for (i, op) in ops.iter().enumerate() {
        apply(&mut ivm, domain, op);
        // Check at every step: a transiently-wrong view is still a bug.
        assert!(
            ivm.check_consistency("v").unwrap(),
            "view diverged after op {i}: {op:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case replays a full DML sequence with per-step checks
        ..ProptestConfig::default()
    })]

    #[test]
    fn sum_count_view_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..25)) {
        run_view(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT k, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY k",
            UpsertStrategy::LeftJoinUpsert,
            &ops,
        );
    }

    #[test]
    fn wide_integer_keys_stay_consistent(ops in prop::collection::vec(op_strategy(), 1..25)) {
        for strategy in [
            UpsertStrategy::LeftJoinUpsert,
            UpsertStrategy::UnionRegroup,
            UpsertStrategy::FullOuterJoin,
        ] {
            run_view_over(
                &WIDE_KEYS,
                "CREATE MATERIALIZED VIEW v AS \
                 SELECT k, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY k",
                strategy,
                &ops,
            );
        }
    }

    #[test]
    fn avg_view_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..20)) {
        run_view(
            "CREATE MATERIALIZED VIEW v AS SELECT k, AVG(v) AS m FROM t GROUP BY k",
            UpsertStrategy::LeftJoinUpsert,
            &ops,
        );
    }

    #[test]
    fn min_max_view_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..20)) {
        run_view(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k",
            UpsertStrategy::LeftJoinUpsert,
            &ops,
        );
    }

    #[test]
    fn filtered_projection_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..20)) {
        run_view(
            "CREATE MATERIALIZED VIEW v AS SELECT k, v FROM t WHERE v > 0",
            UpsertStrategy::LeftJoinUpsert,
            &ops,
        );
    }

    #[test]
    fn union_regroup_strategy_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..20)) {
        run_view(
            "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM t GROUP BY k",
            UpsertStrategy::UnionRegroup,
            &ops,
        );
    }

    #[test]
    fn full_outer_join_strategy_stays_consistent(ops in prop::collection::vec(op_strategy(), 1..20)) {
        run_view(
            "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM t GROUP BY k",
            UpsertStrategy::FullOuterJoin,
            &ops,
        );
    }
}

/// Join views get their own generator: two tables, deltas on both sides.
#[derive(Debug, Clone)]
enum JoinOp {
    InsertFact { key: u8, amount: i16 },
    InsertDim { key: u8 },
    DeleteFact { key: u8 },
    DeleteDim { key: u8 },
}

fn join_op_strategy() -> impl Strategy<Value = JoinOp> {
    prop_oneof![
        4 => (0u8..5, -30i16..30).prop_map(|(key, amount)| JoinOp::InsertFact { key, amount }),
        2 => (0u8..5).prop_map(|key| JoinOp::InsertDim { key }),
        1 => (0u8..5).prop_map(|key| JoinOp::DeleteFact { key }),
        1 => (0u8..5).prop_map(|key| JoinOp::DeleteDim { key }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn join_aggregate_view_stays_consistent(
        ops in prop::collection::vec(join_op_strategy(), 1..20),
    ) {
        let mut ivm = IvmSession::with_defaults();
        ivm.execute("CREATE TABLE facts (key INTEGER, amount INTEGER)").unwrap();
        ivm.execute("CREATE TABLE dims (key INTEGER, label VARCHAR)").unwrap();
        ivm.execute("INSERT INTO dims VALUES (0, 'd0'), (1, 'd1')").unwrap();
        ivm.execute("INSERT INTO facts VALUES (0, 10), (1, 20)").unwrap();
        ivm.execute(
            "CREATE MATERIALIZED VIEW v AS \
             SELECT dims.label, SUM(facts.amount) AS total \
             FROM facts JOIN dims ON facts.key = dims.key GROUP BY dims.label",
        ).unwrap();
        let mut dim_serial = 100;
        for (i, op) in ops.iter().enumerate() {
            match op {
                JoinOp::InsertFact { key, amount } => {
                    ivm.execute(&format!("INSERT INTO facts VALUES ({key}, {amount})")).unwrap();
                }
                JoinOp::InsertDim { key } => {
                    // Dimension labels stay unique to avoid PK-free dupes.
                    dim_serial += 1;
                    ivm.execute(&format!(
                        "INSERT INTO dims VALUES ({key}, 'd{key}_{dim_serial}')"
                    )).unwrap();
                }
                JoinOp::DeleteFact { key } => {
                    ivm.execute(&format!("DELETE FROM facts WHERE key = {key}")).unwrap();
                }
                JoinOp::DeleteDim { key } => {
                    ivm.execute(&format!("DELETE FROM dims WHERE key = {key}")).unwrap();
                }
            }
            prop_assert!(
                ivm.check_consistency("v").unwrap(),
                "join view diverged after op {}: {:?}", i, op
            );
        }
    }
}
