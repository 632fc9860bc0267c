//! End-to-end IVM correctness: for every supported view class and every
//! upsert strategy, the maintained view must equal a from-scratch
//! recomputation after arbitrary insert/update/delete sequences.

use ivm_core::{IvmFlags, IvmSession, PropagationMode, UpsertStrategy};

fn session(strategy: UpsertStrategy, propagation: PropagationMode) -> IvmSession {
    IvmSession::new(IvmFlags {
        upsert_strategy: strategy,
        propagation,
        ..IvmFlags::paper_defaults()
    })
}

fn setup_groups(ivm: &mut IvmSession) {
    ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    ivm.execute(
        "INSERT INTO groups VALUES ('apple', 2), ('apple', 3), ('banana', 2), ('cherry', 7)",
    )
    .unwrap();
}

const DML: &[&str] = &[
    "INSERT INTO groups VALUES ('banana', 1), ('date', 4)",
    "DELETE FROM groups WHERE group_index = 'apple' AND group_value = 3",
    "UPDATE groups SET group_value = group_value + 10 WHERE group_index = 'banana'",
    "DELETE FROM groups WHERE group_index = 'cherry'",
    "INSERT INTO groups VALUES ('cherry', 1)",
    "UPDATE groups SET group_index = 'apple' WHERE group_index = 'date'",
    "DELETE FROM groups WHERE group_value > 100",
];

fn drive(ivm: &mut IvmSession, view: &str) {
    for (i, dml) in DML.iter().enumerate() {
        ivm.execute(dml)
            .unwrap_or_else(|e| panic!("{dml} failed: {e}"));
        assert!(
            ivm.check_consistency(view).unwrap(),
            "inconsistent after statement {i}: {dml}"
        );
    }
}

#[test]
fn listing_1_sum_view_all_strategies() {
    for strategy in [
        UpsertStrategy::LeftJoinUpsert,
        UpsertStrategy::UnionRegroup,
        UpsertStrategy::FullOuterJoin,
    ] {
        let mut ivm = session(strategy, PropagationMode::Lazy);
        setup_groups(&mut ivm);
        ivm.execute(
            "CREATE MATERIALIZED VIEW query_groups AS \
             SELECT group_index, SUM(group_value) AS total_value \
             FROM groups GROUP BY group_index",
        )
        .unwrap();
        assert!(
            ivm.check_consistency("query_groups").unwrap(),
            "initial {strategy:?}"
        );
        drive(&mut ivm, "query_groups");

        // The same invariant over group keys beyond ±2^53: 2^53 and
        // 2^53 + 1 share an f64 image and are still two groups.
        ivm.execute("CREATE TABLE wide (k INTEGER, v INTEGER)")
            .unwrap();
        ivm.execute(
            "CREATE MATERIALIZED VIEW wide_sums AS \
             SELECT k, SUM(v) AS s, COUNT(*) AS n FROM wide GROUP BY k",
        )
        .unwrap();
        for dml in [
            "INSERT INTO wide VALUES (9007199254740992, 1), (9007199254740993, 2)",
            "INSERT INTO wide VALUES (9007199254740992, 3), (9007199254740993, 4)",
            "DELETE FROM wide WHERE k = 9007199254740993 AND v = 2",
        ] {
            ivm.execute(dml).unwrap();
            assert!(
                ivm.check_consistency("wide_sums").unwrap(),
                "{strategy:?} inconsistent after: {dml}"
            );
            let groups = ivm.query_view("wide_sums").unwrap().rows.len();
            assert_eq!(groups, 2, "{strategy:?} after: {dml}");
        }
    }
}

#[test]
fn count_and_multiple_aggregates() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW stats AS \
         SELECT group_index, COUNT(*) AS n, SUM(group_value) AS total, \
                COUNT(group_value) AS n_vals \
         FROM groups GROUP BY group_index",
    )
    .unwrap();
    drive(&mut ivm, "stats");
}

#[test]
fn avg_view() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW means AS \
         SELECT group_index, AVG(group_value) AS mean FROM groups GROUP BY group_index",
    )
    .unwrap();
    drive(&mut ivm, "means");
}

#[test]
fn min_max_views_with_deletions() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW extrema AS \
         SELECT group_index, MIN(group_value) AS lo, MAX(group_value) AS hi \
         FROM groups GROUP BY group_index",
    )
    .unwrap();
    assert!(ivm.check_consistency("extrema").unwrap());
    // Deleting the current minimum forces the dirty-group recompute path.
    ivm.execute("DELETE FROM groups WHERE group_index = 'apple' AND group_value = 2")
        .unwrap();
    assert!(
        ivm.check_consistency("extrema").unwrap(),
        "after min deletion"
    );
    drive(&mut ivm, "extrema");
}

#[test]
fn filtered_projection_view() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW big_values AS \
         SELECT group_index, group_value FROM groups WHERE group_value >= 2",
    )
    .unwrap();
    drive(&mut ivm, "big_values");
}

#[test]
fn projection_with_expressions_and_duplicates() {
    let mut ivm = IvmSession::with_defaults();
    ivm.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        .unwrap();
    ivm.execute("INSERT INTO t VALUES (1, 1), (1, 1), (2, 5)")
        .unwrap();
    ivm.execute("CREATE MATERIALIZED VIEW doubled AS SELECT a * 2 AS d FROM t")
        .unwrap();
    // Bag semantics: duplicates must round-trip through the Z-set weight.
    let rows = ivm.query_view("doubled").unwrap().rows;
    assert_eq!(rows.len(), 3);
    ivm.execute("INSERT INTO t VALUES (1, 9)").unwrap();
    assert!(ivm.check_consistency("doubled").unwrap());
    ivm.execute("DELETE FROM t WHERE a = 1 AND b = 1").unwrap();
    assert!(ivm.check_consistency("doubled").unwrap());
    let rows = ivm.query_view("doubled").unwrap().rows;
    assert_eq!(rows.len(), 2, "two rows remain: (1,9) and (2,5)");
}

#[test]
fn join_projection_view() {
    let mut ivm = IvmSession::with_defaults();
    ivm.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, amount INTEGER)")
        .unwrap();
    ivm.execute("CREATE TABLE customers (id INTEGER, name VARCHAR)")
        .unwrap();
    ivm.execute("INSERT INTO customers VALUES (1, 'ada'), (2, 'bob')")
        .unwrap();
    ivm.execute("INSERT INTO orders VALUES (10, 1, 100), (11, 2, 50), (12, 1, 70)")
        .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW order_names AS \
         SELECT customers.name, orders.amount FROM orders \
         JOIN customers ON orders.cust = customers.id",
    )
    .unwrap();
    assert!(ivm.check_consistency("order_names").unwrap());
    // Deltas on both sides of the join, including the ΔA⋈ΔB term.
    ivm.execute("INSERT INTO orders VALUES (13, 2, 10)")
        .unwrap();
    assert!(
        ivm.check_consistency("order_names").unwrap(),
        "right-side delta"
    );
    ivm.execute("INSERT INTO customers VALUES (3, 'eve')")
        .unwrap();
    ivm.execute("INSERT INTO orders VALUES (14, 3, 5)").unwrap();
    assert!(
        ivm.check_consistency("order_names").unwrap(),
        "both-sides delta"
    );
    ivm.execute("DELETE FROM orders WHERE cust = 1").unwrap();
    assert!(
        ivm.check_consistency("order_names").unwrap(),
        "left deletions"
    );
    ivm.execute("UPDATE customers SET name = 'robert' WHERE id = 2")
        .unwrap();
    assert!(
        ivm.check_consistency("order_names").unwrap(),
        "dimension update"
    );
    ivm.execute("DELETE FROM customers WHERE id = 3").unwrap();
    assert!(
        ivm.check_consistency("order_names").unwrap(),
        "customer deletion"
    );
}

#[test]
fn join_aggregate_view() {
    let mut ivm = IvmSession::with_defaults();
    ivm.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, amount INTEGER)")
        .unwrap();
    ivm.execute("CREATE TABLE customers (id INTEGER, name VARCHAR)")
        .unwrap();
    ivm.execute("INSERT INTO customers VALUES (1, 'ada'), (2, 'bob')")
        .unwrap();
    ivm.execute("INSERT INTO orders VALUES (10, 1, 100), (11, 2, 50), (12, 1, 70)")
        .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW revenue AS \
         SELECT customers.name, SUM(orders.amount) AS total, COUNT(*) AS n \
         FROM orders JOIN customers ON orders.cust = customers.id \
         GROUP BY customers.name",
    )
    .unwrap();
    assert!(ivm.check_consistency("revenue").unwrap());
    ivm.execute("INSERT INTO orders VALUES (13, 1, 30)")
        .unwrap();
    assert!(ivm.check_consistency("revenue").unwrap());
    ivm.execute("DELETE FROM orders WHERE id = 11").unwrap();
    assert!(ivm.check_consistency("revenue").unwrap(), "group vanishes");
    ivm.execute("UPDATE orders SET amount = amount * 2 WHERE cust = 1")
        .unwrap();
    assert!(ivm.check_consistency("revenue").unwrap());
}

#[test]
fn eager_vs_lazy_vs_batch() {
    for (mode, expected_runs) in [
        (PropagationMode::Eager, 3usize),
        (PropagationMode::Lazy, 0usize),
        (PropagationMode::Batch(2), 1usize),
    ] {
        let mut ivm = session(UpsertStrategy::LeftJoinUpsert, mode);
        setup_groups(&mut ivm);
        ivm.execute(
            "CREATE MATERIALIZED VIEW qg AS \
             SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
        )
        .unwrap();
        ivm.execute("INSERT INTO groups VALUES ('x', 1)").unwrap();
        ivm.execute("INSERT INTO groups VALUES ('y', 2)").unwrap();
        ivm.execute("INSERT INTO groups VALUES ('z', 3)").unwrap();
        assert_eq!(
            ivm.stats().maintenance_runs,
            expected_runs,
            "mode {mode:?} before read"
        );
        // Reading the view always reconciles.
        assert!(ivm.check_consistency("qg").unwrap());
    }
}

#[test]
fn lazy_refresh_triggers_on_view_query_through_sql() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    ivm.execute("INSERT INTO groups VALUES ('zebra', 9)")
        .unwrap();
    assert_eq!(ivm.stats().maintenance_runs, 0, "lazy: nothing ran yet");
    // Plain SQL SELECT against the view name triggers the refresh.
    let r = ivm
        .execute("SELECT total FROM qg WHERE group_index = 'zebra'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(ivm.stats().maintenance_runs, 1);
}

#[test]
fn multiple_views_share_delta_tables() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW sums AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW counts AS \
         SELECT group_index, COUNT(*) AS n FROM groups GROUP BY group_index",
    )
    .unwrap();
    ivm.execute("INSERT INTO groups VALUES ('kiwi', 6)")
        .unwrap();
    // Refreshing one view must not starve the other (shared ΔT drain).
    assert!(ivm.check_consistency("sums").unwrap());
    assert!(ivm.check_consistency("counts").unwrap());
    ivm.execute("DELETE FROM groups WHERE group_index = 'kiwi'")
        .unwrap();
    assert!(ivm.check_consistency("counts").unwrap());
    assert!(ivm.check_consistency("sums").unwrap());
}

#[test]
fn drop_materialized_view_cleans_up() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    ivm.execute("DROP VIEW qg").unwrap();
    assert!(ivm.view("qg").is_none());
    assert!(!ivm.database().catalog().has_table("qg"));
    assert!(!ivm.database().catalog().has_table("delta_qg"));
    assert!(
        !ivm.database().catalog().has_table("delta_groups"),
        "last user dropped"
    );
    // Recreating works.
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    assert!(ivm.check_consistency("qg").unwrap());
}

#[test]
fn base_table_protected_while_views_exist() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    assert!(ivm.execute("DROP TABLE groups").is_err());
    ivm.execute("DROP VIEW qg").unwrap();
    ivm.execute("DROP TABLE groups").unwrap();
}

#[test]
fn metadata_tables_populated() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    let r = ivm
        .execute("SELECT view_name, query_type, strategy FROM _openivm_views")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1].to_string(), "group_aggregate");
    assert_eq!(r.rows[0][2].to_string(), "left_join_upsert");
    let r = ivm
        .execute("SELECT COUNT(*) FROM _openivm_scripts")
        .unwrap();
    assert!(
        r.scalar().unwrap().as_integer().unwrap() >= 4,
        "4 steps stored"
    );
}

#[test]
fn insert_from_select_is_captured() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute("CREATE TABLE staging (g VARCHAR, v INTEGER)")
        .unwrap();
    ivm.execute("INSERT INTO staging VALUES ('bulk', 1), ('bulk', 2)")
        .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    ivm.execute("INSERT INTO groups SELECT g, v FROM staging")
        .unwrap();
    assert!(ivm.check_consistency("qg").unwrap());
    let r = ivm.query_view("qg").unwrap();
    assert!(r.rows.iter().any(|row| row[0].to_string() == "bulk"));
}

#[test]
fn upsert_on_tracked_base_table_rejected() {
    let mut ivm = IvmSession::with_defaults();
    ivm.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        .unwrap();
    ivm.execute("CREATE MATERIALIZED VIEW s AS SELECT k, v FROM t WHERE v > 0")
        .unwrap();
    assert!(ivm
        .execute("INSERT OR REPLACE INTO t VALUES (1, 2)")
        .is_err());
}

#[test]
fn postgres_dialect_session_works_end_to_end() {
    // The generated ON CONFLICT scripts must run on the engine too.
    let mut ivm = IvmSession::new(IvmFlags::for_postgres());
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    drive(&mut ivm, "qg");
}

#[test]
fn stored_scripts_match_registered_statements() {
    let mut ivm = IvmSession::with_defaults();
    setup_groups(&mut ivm);
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    let artifacts = ivm.view("qg").unwrap().artifacts.clone();
    let stored = ivm
        .execute("SELECT sql FROM _openivm_scripts ORDER BY step")
        .unwrap();
    assert_eq!(stored.rows.len(), artifacts.propagation.steps.len());
}

#[test]
fn adaptive_strategy_switches_paths_and_stays_consistent() {
    // Small threshold: a handful of groups regroups, many groups upsert.
    let mut ivm = IvmSession::new(IvmFlags {
        upsert_strategy: UpsertStrategy::Adaptive,
        adaptive_threshold: 8,
        ..IvmFlags::paper_defaults()
    });
    ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    // Phase 1: tiny view → regroup path.
    ivm.execute("INSERT INTO groups VALUES ('a', 1), ('b', 2)")
        .unwrap();
    assert!(ivm.check_consistency("qg").unwrap());
    assert_eq!(ivm.stats().adaptive_regroups, 1);
    assert_eq!(ivm.stats().adaptive_upserts, 0);
    // Phase 2: grow past the threshold (the choice keys on the live view
    // size *before* the refresh, so this refresh may still regroup)…
    for i in 0..20 {
        ivm.execute(&format!("INSERT INTO groups VALUES ('g{i}', {i})"))
            .unwrap();
    }
    assert!(ivm.check_consistency("qg").unwrap());
    // …phase 3: now the view is large; the next refresh must upsert.
    ivm.execute("INSERT INTO groups VALUES ('late', 99)")
        .unwrap();
    assert!(ivm.check_consistency("qg").unwrap());
    assert!(ivm.stats().adaptive_upserts >= 1, "{:?}", ivm.stats());
    // Deletions still reconcile on both paths.
    ivm.execute("DELETE FROM groups WHERE group_value > 10")
        .unwrap();
    assert!(ivm.check_consistency("qg").unwrap());
}

#[test]
fn adaptive_projection_views_fall_back_to_upsert() {
    // Regroup does not apply to projection views: alt script is absent and
    // the upsert path is used without adaptive counters moving.
    let mut ivm = IvmSession::new(IvmFlags {
        upsert_strategy: UpsertStrategy::Adaptive,
        ..IvmFlags::paper_defaults()
    });
    ivm.execute("CREATE TABLE t (a VARCHAR, b INTEGER)")
        .unwrap();
    ivm.execute("CREATE MATERIALIZED VIEW p AS SELECT a, b FROM t WHERE b > 0")
        .unwrap();
    ivm.execute("INSERT INTO t VALUES ('x', 1), ('y', -1)")
        .unwrap();
    assert!(ivm.check_consistency("p").unwrap());
    assert_eq!(ivm.stats().adaptive_regroups, 0);
    assert_eq!(ivm.stats().adaptive_upserts, 0);
}

#[test]
fn adaptive_artifacts_carry_both_scripts() {
    let mut ivm = IvmSession::new(IvmFlags {
        upsert_strategy: UpsertStrategy::Adaptive,
        ..IvmFlags::paper_defaults()
    });
    ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW qg AS \
         SELECT group_index, SUM(group_value) AS total FROM groups GROUP BY group_index",
    )
    .unwrap();
    let artifacts = &ivm.view("qg").unwrap().artifacts;
    let primary = artifacts.propagation.to_sql(false);
    assert!(primary.contains("INSERT OR REPLACE"), "{primary}");
    let alt = artifacts.alt_propagation.as_ref().unwrap().to_sql(false);
    assert!(alt.contains("DELETE FROM qg;"), "regroup truncates: {alt}");
    assert!(!alt.contains("INSERT OR REPLACE"), "{alt}");
}
