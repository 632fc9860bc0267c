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
fn lazy_refresh_reaches_views_read_through_subqueries_and_plain_views() {
    let mut ivm = IvmSession::with_defaults();
    for sql in [
        "CREATE TABLE g (k VARCHAR, v INTEGER)",
        "INSERT INTO g VALUES ('a', 1), ('b', 2)",
        "CREATE TABLE probe (k VARCHAR)",
        "INSERT INTO probe VALUES ('a'), ('b'), ('c'), ('d')",
        "CREATE MATERIALIZED VIEW mv AS SELECT k, SUM(v) AS s FROM g GROUP BY k",
        "CREATE VIEW plain AS SELECT k FROM mv",
    ] {
        ivm.execute(sql).unwrap();
    }
    let mut keys = |sql: &str| {
        let mut keys: Vec<String> = ivm
            .execute(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect();
        keys.sort();
        keys
    };
    // Each read finds mv stale: one insert lands just before it.
    keys("INSERT INTO g VALUES ('c', 3)");
    assert_eq!(
        keys("SELECT k FROM probe WHERE k IN (SELECT k FROM mv)"),
        ["a", "b", "c"]
    );
    keys("INSERT INTO g VALUES ('d', 4)");
    assert_eq!(keys("SELECT k FROM plain"), ["a", "b", "c", "d"]);
    assert_eq!(keys("SELECT k FROM mv"), ["a", "b", "c", "d"]);
}

/// The `EXPLAIN` of each maintenance statement of `view` whose SQL
/// contains `needle`, as the session's database would run it now: an
/// `INSERT … SELECT`'s source plan, a `DELETE`'s scan.
fn explain_steps(ivm: &mut IvmSession, view: &str, needle: &str) -> Vec<String> {
    let scripts: Vec<String> = ivm
        .view(view)
        .unwrap()
        .artifacts
        .propagation
        .steps
        .iter()
        .filter(|s| s.sql.contains(needle))
        .map(|s| s.sql.clone())
        .collect();
    assert!(
        !scripts.is_empty(),
        "no statement of {view} contains {needle}"
    );
    scripts
        .iter()
        .map(|sql| {
            let rows = ivm
                .database_mut()
                .execute(&format!("EXPLAIN {sql}"))
                .unwrap()
                .rows;
            rows.iter().map(|r| format!("{}\n", r[0])).collect()
        })
        .collect()
}

/// The Listing-1 view over a keyed base table — the `trickle` benchmark
/// workload's view `v` — with one refresh behind it.
fn keyed_groups_view() -> IvmSession {
    let mut ivm = IvmSession::with_defaults();
    ivm.execute(
        "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)",
    )
    .unwrap();
    let rows: Vec<String> = (0..400)
        .map(|i| format!("({i}, 'g{}', {})", i % 40, i % 7))
        .collect();
    ivm.execute(&format!("INSERT INTO groups VALUES {}", rows.join(", ")))
        .unwrap();
    ivm.execute(
        "CREATE MATERIALIZED VIEW v AS SELECT group_index, SUM(group_value) AS total, \
         COUNT(*) AS cnt FROM groups GROUP BY group_index",
    )
    .unwrap();
    ivm.execute("INSERT INTO groups VALUES (1000, 'g3', 5), (1001, 'new', 1)")
        .unwrap();
    assert!(ivm.check_consistency("v").unwrap());
    ivm
}

#[test]
fn step_two_reads_the_view_through_its_index() {
    // The upsert's LEFT JOIN of ΔV against V finds V's groups through V's
    // unique index.
    let mut ivm = keyed_groups_view();
    let [plan] = &explain_steps(&mut ivm, "v", "INSERT OR REPLACE")[..] else {
        panic!("one upsert statement");
    };
    assert!(
        plan.contains("HashJoin LeftOuter probe_keys=[0] build_keys=[0] [index build]\n"),
        "{plan}"
    );
}

/// Step 3 deletes the groups whose count reached zero. Its one equality
/// is on `_ivm_count`, which V's key (`group_index`) does not cover, so
/// no index point read applies and its rows are found by a filtered scan
/// of all of V — which its plan says.
#[test]
fn step_three_scans_the_whole_view() {
    let mut ivm = keyed_groups_view();
    let plans = explain_steps(&mut ivm, "v", "_ivm_count = 0");
    assert_eq!(plans, ["TableScan v [filtered]\n"]);
}

/// `EXPLAIN` of DML on a table that feeds a view shows the plan and
/// changes nothing: no row, no captured delta, no refresh owed.
#[test]
fn explain_of_dml_on_a_tracked_table_runs_nothing() {
    let mut ivm = keyed_groups_view();
    let state = |ivm: &IvmSession| {
        [
            "SELECT * FROM groups",
            "SELECT * FROM delta_groups",
            "SELECT * FROM v",
        ]
        .map(|q| ivm.database().query(q).unwrap().rows)
    };
    let before = state(&ivm);
    for (sql, plan) in [
        (
            "EXPLAIN DELETE FROM groups WHERE id = 1000",
            "TableScan groups [filtered] [index_eq=1] id = 1000",
        ),
        (
            "EXPLAIN UPDATE groups SET group_value = 0 WHERE group_value > 3",
            "TableScan groups [filtered]",
        ),
        (
            "EXPLAIN INSERT INTO groups SELECT id + 5000, group_index, 1 FROM groups WHERE id = 1",
            "Project [id + 5000, group_index, 1]\n  TableScan groups [filtered] [index_eq=1] id = 1",
        ),
    ] {
        let rows = ivm.execute(sql).unwrap().rows;
        let text: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(text.join("\n"), plan, "{sql}");
    }
    assert_eq!(state(&ivm), before);
    assert!(ivm.check_consistency("v").unwrap());
}

#[test]
fn fact_to_dimension_joins_keep_the_hashed_build() {
    // The join-aggregate view of the cross-system pipeline: many orders
    // against a small keyed customer table, in the view query and in the
    // step-1 delta terms while a 500-row batch is pending. Each probes
    // more rows than the keyed table holds, so it hashes its build side.
    let mut ivm = session(UpsertStrategy::LeftJoinUpsert, PropagationMode::Lazy);
    ivm.execute("CREATE TABLE customers (id INTEGER PRIMARY KEY, name VARCHAR, region VARCHAR)")
        .unwrap();
    ivm.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amount INTEGER)")
        .unwrap();
    let customers: Vec<String> = (0..100)
        .map(|i| format!("({i}, 'c{i}', 'r{:02}')", i % 8))
        .collect();
    ivm.execute(&format!(
        "INSERT INTO customers VALUES {}",
        customers.join(", ")
    ))
    .unwrap();
    let orders = |from: usize, n: usize| -> String {
        let rows: Vec<String> = (from..from + n)
            .map(|i| format!("({i}, {}, {})", i % 100, i % 13))
            .collect();
        format!("INSERT INTO orders VALUES {}", rows.join(", "))
    };
    ivm.execute(&orders(0, 2000)).unwrap();
    let view_query = "SELECT c.region, o.cust, SUM(o.amount) AS total, COUNT(*) AS cnt \
                      FROM orders o JOIN customers c ON o.cust = c.id GROUP BY c.region, o.cust";
    ivm.execute(&format!("CREATE MATERIALIZED VIEW rc AS {view_query}"))
        .unwrap();
    ivm.execute(&orders(2000, 500)).unwrap();

    let analytic = ivm
        .database_mut()
        .execute(&format!("EXPLAIN {view_query}"))
        .unwrap();
    let analytic: String = analytic
        .rows
        .iter()
        .map(|r| format!("{}\n", r[0]))
        .collect();
    let step1 = explain_steps(&mut ivm, "rc", "INSERT INTO delta_rc");
    for plan in step1.iter().chain([&analytic]) {
        assert!(plan.contains("HashJoin Inner"), "{plan}");
        assert!(!plan.contains("[index build]"), "{plan}");
    }
    assert!(ivm.check_consistency("rc").unwrap());
}

/// A scratch data directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("openivm-durtest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn refreshes_update_view_rows_in_place() {
    // Every refresh below touches existing groups only. The upsert
    // rewrites their rows where they are, so V's storage holds exactly
    // its live groups; a reopen replays those in-place updates.
    let dir = TempDir::new("in-place");
    let flags = IvmFlags {
        propagation: PropagationMode::Eager,
        ..IvmFlags::paper_defaults()
    };
    {
        let mut ivm = IvmSession::open(&dir.0, flags.clone()).unwrap();
        ivm.execute(
            "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index VARCHAR, \
             group_value INTEGER)",
        )
        .unwrap();
        let rows: Vec<String> = (0..100)
            .map(|i| format!("({i}, 'g{}', {})", i % 10, i % 7))
            .collect();
        ivm.execute(&format!("INSERT INTO groups VALUES {}", rows.join(", ")))
            .unwrap();
        ivm.execute(
            "CREATE MATERIALIZED VIEW v AS SELECT group_index, SUM(group_value) AS total, \
             COUNT(*) AS cnt FROM groups GROUP BY group_index",
        )
        .unwrap();
        for i in 0..1000 {
            ivm.execute(&format!(
                "INSERT INTO groups VALUES ({}, 'g{}', {})",
                100 + i,
                i % 10,
                i % 5
            ))
            .unwrap();
        }
        assert_eq!(ivm.stats().maintenance_runs, 1000);
        let v = ivm.database().catalog().table("v").unwrap();
        assert_eq!((v.live_rows(), v.total_slots()), (10, 10));
        assert!(ivm.check_consistency("v").unwrap());
    }
    let mut reopened = IvmSession::open(&dir.0, flags).unwrap();
    assert!(reopened.check_consistency("v").unwrap());
}

#[test]
fn lazy_refresh_runs_before_dml_that_reads_a_view() {
    let mut ivm = IvmSession::with_defaults();
    for sql in [
        "CREATE TABLE g (k VARCHAR, v INTEGER)",
        "INSERT INTO g VALUES ('a', 1), ('b', 2)",
        "CREATE TABLE sink (k VARCHAR)",
        "CREATE TABLE t (k VARCHAR)",
        "INSERT INTO t VALUES ('a'), ('b'), ('c'), ('d'), ('x')",
        "CREATE MATERIALIZED VIEW mv AS SELECT k, SUM(v) AS s FROM g GROUP BY k",
    ] {
        ivm.execute(sql).unwrap();
    }
    let mut affected = |sql: &str| ivm.execute(sql).unwrap().rows_affected;
    // Each statement finds mv stale: one insert lands just before it.
    affected("INSERT INTO g VALUES ('c', 3)");
    assert_eq!(affected("INSERT INTO sink SELECT k FROM mv"), 3);
    affected("INSERT INTO g VALUES ('d', 4)");
    assert_eq!(
        affected("UPDATE t SET k = 'seen' WHERE k IN (SELECT k FROM mv)"),
        4
    );
    affected("INSERT INTO g VALUES ('x', 5)");
    assert_eq!(affected("DELETE FROM t WHERE k IN (SELECT k FROM mv)"), 1);
    assert_eq!(ivm.execute("SELECT k FROM mv").unwrap().rows.len(), 5);
    assert_eq!(ivm.execute("SELECT k FROM sink").unwrap().rows.len(), 3);
}
