//! The six experiments (E1–E6 in DESIGN.md §4), shared by the criterion
//! benches and the `experiments` binary.

use std::time::Duration;

use ivm_core::{IndexCreation, IvmFlags, IvmSession, PropagationMode, UpsertStrategy};
use ivm_engine::Value;
use ivm_htap::HtapPipeline;
use ivm_oltp::OltpEngine;

use crate::harness::{time_mean, time_once};
use crate::workload::{GroupChange, GroupsWorkload, SalesWorkload};

/// Listing 1's view, used throughout.
pub const LISTING_1_VIEW: &str = "CREATE MATERIALIZED VIEW query_groups AS \
     SELECT group_index, SUM(group_value) AS total_value \
     FROM groups GROUP BY group_index";

/// Build an [`IvmSession`] with `groups` loaded with `base_rows` rows over
/// `num_groups` groups, and the Listing-1 view installed. Returns the
/// session, the live rows (for deletion draws), and the workload generator.
pub fn groups_session(
    flags: IvmFlags,
    num_groups: usize,
    base_rows: usize,
    seed: u64,
) -> (IvmSession, Vec<(String, i64)>, GroupsWorkload) {
    let mut w = GroupsWorkload::new(num_groups, seed);
    let rows = w.base_rows(base_rows);
    let mut ivm = IvmSession::new(flags);
    ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    {
        // Bulk load through the storage layer (the paper loads datasets
        // before the demo starts).
        let table = ivm
            .database_mut()
            .catalog_mut()
            .table_mut("groups")
            .unwrap();
        for (g, v) in &rows {
            table
                .insert(vec![Value::from(g.clone()), Value::Integer(*v)])
                .unwrap();
        }
    }
    ivm.execute(LISTING_1_VIEW).unwrap();
    (ivm, rows, w)
}

/// Apply a delta batch through the cross-system ingest path and refresh.
pub fn apply_batch(ivm: &mut IvmSession, batch: &[GroupChange]) {
    let pairs: Vec<(Vec<Value>, bool)> = batch
        .iter()
        .map(|c| {
            (
                vec![
                    Value::from(c.group_index.clone()),
                    Value::Integer(c.group_value),
                ],
                c.insertion,
            )
        })
        .collect();
    ivm.ingest_deltas("groups", &pairs).unwrap();
    ivm.refresh("query_groups").unwrap();
}

/// Mean refresh latency over `iters` *fresh* delta batches (a batch can
/// only be applied once: its deletions consume rows).
fn mean_refresh(
    ivm: &mut IvmSession,
    w: &mut GroupsWorkload,
    existing: &mut Vec<(String, i64)>,
    delta: usize,
    iters: usize,
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let batch = w.delta_batch(delta, 0.7, existing);
        let ((), d) = time_once(|| apply_batch(ivm, &batch));
        total += d;
    }
    total / iters as u32
}

// ---------------------------------------------------------------- E1

/// One E1 measurement.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Base-table size.
    pub base_rows: usize,
    /// Delta batch size.
    pub delta_rows: usize,
    /// Time to maintain the view incrementally.
    pub incremental: Duration,
    /// Time to recompute the view from scratch.
    pub recompute: Duration,
}

impl E1Row {
    /// recompute / incremental.
    pub fn speedup(&self) -> f64 {
        self.recompute.as_secs_f64() / self.incremental.as_secs_f64().max(1e-9)
    }
}

/// Fresh delta batches measured per E1 cell; the minimum is kept (the
/// standard microbenchmark noise filter — a batch can only be applied
/// once, so repetitions use fresh batches over the same session).
const E1_REPS: usize = 3;

/// E1: incremental maintenance vs full recomputation (the demo's headline
/// claim).
pub fn e1_ivm_vs_recompute(base_sizes: &[usize], delta_sizes: &[usize]) -> Vec<E1Row> {
    let mut out = Vec::new();
    for &base in base_sizes {
        // √N distinct groups: the view stays small relative to the base
        // table, as in aggregation dashboards.
        let num_groups = (base as f64).sqrt().ceil() as usize;
        let (mut ivm, mut existing, mut w) =
            groups_session(IvmFlags::paper_defaults(), num_groups, base, 0xE1);
        for &delta in delta_sizes {
            let view_sql = ivm.view("query_groups").unwrap().artifacts.view_sql.clone();
            let mut incremental = Duration::MAX;
            let mut recompute = Duration::MAX;
            for _ in 0..E1_REPS {
                let batch = w.delta_batch(delta, 0.7, &mut existing);
                let ((), inc) = time_once(|| apply_batch(&mut ivm, &batch));
                let (result, rec) = time_once(|| ivm.database().query(&view_sql).unwrap());
                std::hint::black_box(result.rows.len());
                incremental = incremental.min(inc);
                recompute = recompute.min(rec);
            }
            out.push(E1Row {
                base_rows: base,
                delta_rows: delta,
                incremental,
                recompute,
            });
        }
        assert!(
            ivm.check_consistency("query_groups").unwrap(),
            "E1 must stay consistent"
        );
    }
    out
}

// ---------------------------------------------------------------- E2

/// One E2 measurement.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// Base-table size.
    pub base_rows: usize,
    /// Time for full view setup with the post-population ART build.
    pub setup_with_index: Duration,
    /// Time for the ART `CREATE UNIQUE INDEX` statement alone.
    pub index_build: Duration,
    /// Time for setup without any index (UNION-regroup strategy).
    pub setup_without_index: Duration,
    /// Mean refresh latency using the index (LEFT JOIN upsert).
    pub refresh_indexed: Duration,
    /// Mean refresh latency without an index (UNION regroup).
    pub refresh_unindexed: Duration,
    /// Approximate ART memory in bytes after setup.
    pub art_bytes: usize,
}

/// E2: the materialized-index (ART) overhead — "its creation only adds
/// significant overhead the first time".
pub fn e2_art_overhead(base_sizes: &[usize], delta: usize) -> Vec<E2Row> {
    let mut out = Vec::new();
    for &base in base_sizes {
        let num_groups = (base / 10).max(4);

        // Indexed path (paper defaults: ART built after population).
        let ((mut ivm_idx, mut existing, mut w), setup_with_index) =
            time_once(|| groups_session(IvmFlags::paper_defaults(), num_groups, base, 0xE2));
        // Isolate the index-build share by timing the same key build on a
        // keyless copy of the view table (a table owns one index, so the
        // view's own table cannot take a second).
        let index_build = {
            let db = ivm_idx.database_mut();
            let view = db.catalog().table("query_groups").unwrap();
            let name = |c: usize| view.schema.columns[c].name.clone();
            let columns: Vec<String> = (0..view.schema.len())
                .map(|c| format!("{} {}", name(c), view.schema.columns[c].ty))
                .collect();
            let key: Vec<String> = view.primary_key.iter().map(|&c| name(c)).collect();
            db.execute(&format!(
                "CREATE TABLE _ivm_idx_copy ({})",
                columns.join(", ")
            ))
            .unwrap();
            db.execute("INSERT INTO _ivm_idx_copy SELECT * FROM query_groups")
                .unwrap();
            let stmt = format!(
                "CREATE UNIQUE INDEX _ivm_idx_probe ON _ivm_idx_copy ({})",
                key.join(", ")
            );
            let (_, d) = time_once(|| db.execute(&stmt).unwrap());
            db.execute("DROP TABLE _ivm_idx_copy").unwrap();
            d
        };
        let art_bytes = ivm_idx
            .database()
            .catalog()
            .table("query_groups")
            .unwrap()
            .pk_index()
            .map_or(0, |pk| pk.memory_bytes());
        let refresh_indexed = mean_refresh(&mut ivm_idx, &mut w, &mut existing, delta, 5);

        // Unindexed path (UNION regroup).
        let flags = IvmFlags {
            upsert_strategy: UpsertStrategy::UnionRegroup,
            index_creation: IndexCreation::None,
            ..IvmFlags::paper_defaults()
        };
        let ((mut ivm_no, mut existing2, mut w2), setup_without_index) =
            time_once(|| groups_session(flags, num_groups, base, 0xE2));
        let refresh_unindexed = mean_refresh(&mut ivm_no, &mut w2, &mut existing2, delta, 5);

        out.push(E2Row {
            base_rows: base,
            setup_with_index,
            index_build,
            setup_without_index,
            refresh_indexed,
            refresh_unindexed,
            art_bytes,
        });
    }
    out
}

// ---------------------------------------------------------------- E3

/// One E3 measurement: latency of one round (write burst + analytical
/// query) per system configuration.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Configuration name.
    pub config: &'static str,
    /// Mean write-burst application time.
    pub write_time: Duration,
    /// Mean analytical-query latency after the burst.
    pub query_time: Duration,
}

/// The analytical query used by E3 (single-table so the OLTP engine can
/// also answer it).
pub const E3_QUERY: &str =
    "SELECT cust, SUM(amount) AS revenue, COUNT(*) AS n FROM orders GROUP BY cust";

const E3_VIEW: &str = "CREATE MATERIALIZED VIEW revenue AS \
     SELECT cust, SUM(amount) AS revenue, COUNT(*) AS n FROM orders GROUP BY cust";

/// E3: the 4-way cross-system comparison of §3 — pure OLAP, pure OLTP,
/// cross-system with IVM, cross-system without IVM.
pub fn e3_cross_system(
    customers: usize,
    base_orders: usize,
    burst: usize,
    rounds: usize,
) -> Vec<E3Row> {
    let mut out = Vec::new();

    // --- Pure OLAP: everything in the analytical engine.
    {
        let mut db = ivm_engine::Database::new();
        let mut w = SalesWorkload::new(customers, 0xE3);
        for stmt in SalesWorkload::ddl() {
            db.execute(stmt).unwrap();
        }
        for stmt in w.customer_statements() {
            db.execute(&stmt).unwrap();
        }
        for stmt in w.order_statements(base_orders) {
            db.execute(&stmt).unwrap();
        }
        let mut write_total = Duration::ZERO;
        let mut query_total = Duration::ZERO;
        for _ in 0..rounds {
            let stmts = w.order_statements(burst);
            let ((), wt) = time_once(|| {
                for s in &stmts {
                    db.execute(s).unwrap();
                }
            });
            let (r, qt) = time_once(|| db.query(E3_QUERY).unwrap());
            std::hint::black_box(r.rows.len());
            write_total += wt;
            query_total += qt;
        }
        out.push(E3Row {
            config: "pure OLAP",
            write_time: write_total / rounds as u32,
            query_time: query_total / rounds as u32,
        });
    }

    // --- Pure OLTP: everything in the row store (naive analytics).
    {
        let mut pg = OltpEngine::new();
        let mut w = SalesWorkload::new(customers, 0xE3);
        for stmt in SalesWorkload::ddl() {
            pg.execute(stmt).unwrap();
        }
        for stmt in w.customer_statements() {
            pg.execute(&stmt).unwrap();
        }
        for stmt in w.order_statements(base_orders) {
            pg.execute(&stmt).unwrap();
        }
        let mut write_total = Duration::ZERO;
        let mut query_total = Duration::ZERO;
        for _ in 0..rounds {
            let stmts = w.order_statements(burst);
            let ((), wt) = time_once(|| {
                for s in &stmts {
                    pg.execute(s).unwrap();
                }
            });
            let (r, qt) = time_once(|| pg.execute(E3_QUERY).unwrap());
            std::hint::black_box(r.rows.len());
            write_total += wt;
            query_total += qt;
        }
        out.push(E3Row {
            config: "pure OLTP",
            write_time: write_total / rounds as u32,
            query_time: query_total / rounds as u32,
        });
    }

    // --- Cross-system with IVM (the OpenIVM pipeline).
    {
        let mut htap = HtapPipeline::with_defaults();
        let mut w = SalesWorkload::new(customers, 0xE3);
        for stmt in SalesWorkload::ddl() {
            htap.mirror_table(stmt).unwrap();
        }
        for stmt in w.customer_statements() {
            htap.execute_oltp(&stmt).unwrap();
        }
        for stmt in w.order_statements(base_orders) {
            htap.execute_oltp(&stmt).unwrap();
        }
        // Views must see the already-committed data: create after a ship is
        // impossible (no delta tables yet), so create first on empty OLAP,
        // then ship the backlog.
        htap.create_materialized_view(E3_VIEW).unwrap();
        htap.sync_and_refresh().unwrap();
        let mut write_total = Duration::ZERO;
        let mut query_total = Duration::ZERO;
        for _ in 0..rounds {
            let stmts = w.order_statements(burst);
            let ((), wt) = time_once(|| {
                for s in &stmts {
                    htap.execute_oltp(s).unwrap();
                }
            });
            let (r, qt) = time_once(|| htap.query_view("revenue").unwrap());
            std::hint::black_box(r.rows.len());
            write_total += wt;
            query_total += qt;
        }
        assert!(htap.check_consistency().unwrap().is_consistent());
        out.push(E3Row {
            config: "cross-system + IVM",
            write_time: write_total / rounds as u32,
            query_time: query_total / rounds as u32,
        });
    }

    // --- Cross-system without IVM: ship deltas, recompute from the mirror.
    {
        let mut pg = OltpEngine::new();
        let mut olap = ivm_engine::Database::new();
        let mut w = SalesWorkload::new(customers, 0xE3);
        for stmt in SalesWorkload::ddl() {
            pg.execute(stmt).unwrap();
            olap.execute(stmt).unwrap();
        }
        pg.create_capture_trigger("orders").unwrap();
        pg.create_capture_trigger("customers").unwrap();
        for stmt in w.customer_statements() {
            pg.execute(&stmt).unwrap();
        }
        for stmt in w.order_statements(base_orders) {
            pg.execute(&stmt).unwrap();
        }
        let ship = |pg: &mut OltpEngine, olap: &mut ivm_engine::Database| {
            for table in ["orders", "customers"] {
                for change in pg.drain_changes(table) {
                    let t = olap.catalog_mut().table_mut(table).unwrap();
                    if change.insertion {
                        t.insert(change.row).unwrap();
                    } else {
                        let victim = t.find_row(&change.row).expect("mirror in sync");
                        t.delete(victim).unwrap();
                    }
                }
            }
        };
        ship(&mut pg, &mut olap);
        let mut write_total = Duration::ZERO;
        let mut query_total = Duration::ZERO;
        for _ in 0..rounds {
            let stmts = w.order_statements(burst);
            let ((), wt) = time_once(|| {
                for s in &stmts {
                    pg.execute(s).unwrap();
                }
            });
            let (r, qt) = time_once(|| {
                ship(&mut pg, &mut olap);
                olap.query(E3_QUERY).unwrap()
            });
            std::hint::black_box(r.rows.len());
            write_total += wt;
            query_total += qt;
        }
        out.push(E3Row {
            config: "cross-system, no IVM",
            write_time: write_total / rounds as u32,
            query_time: query_total / rounds as u32,
        });
    }

    out
}

// ---------------------------------------------------------------- E4

/// One E4 measurement.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Number of distinct groups (≈ view size).
    pub num_groups: usize,
    /// Strategy under test.
    pub strategy: UpsertStrategy,
    /// Mean refresh latency for a fixed delta batch.
    pub refresh: Duration,
}

/// E4: the Step-2 upsert-strategy ablation (LEFT JOIN vs UNION-regroup vs
/// FULL OUTER JOIN) across view sizes.
pub fn e4_upsert_strategies(base_rows: usize, group_counts: &[usize], delta: usize) -> Vec<E4Row> {
    let mut out = Vec::new();
    for &num_groups in group_counts {
        for strategy in [
            UpsertStrategy::LeftJoinUpsert,
            UpsertStrategy::UnionRegroup,
            UpsertStrategy::FullOuterJoin,
        ] {
            let flags = IvmFlags {
                upsert_strategy: strategy,
                index_creation: if strategy.needs_index() {
                    IndexCreation::AfterPopulate
                } else {
                    IndexCreation::None
                },
                ..IvmFlags::paper_defaults()
            };
            let (mut ivm, mut existing, mut w) = groups_session(flags, num_groups, base_rows, 0xE4);
            let refresh = mean_refresh(&mut ivm, &mut w, &mut existing, delta, 5);
            assert!(ivm.check_consistency("query_groups").unwrap());
            out.push(E4Row {
                num_groups,
                strategy,
                refresh,
            });
        }
    }
    out
}

// ---------------------------------------------------------------- E5

/// One E5 measurement.
#[derive(Debug, Clone)]
pub struct E5Row {
    /// Propagation batch size (0 = lazy: a single refresh at read time).
    pub batch_size: usize,
    /// Total time to apply all changes and read the view once.
    pub total: Duration,
    /// Number of maintenance runs the mode triggered.
    pub maintenance_runs: usize,
}

/// E5: the batching trade-off of §1 — "batching changes together can
/// amortize part of this cost but comes at the price of reduced recency".
pub fn e5_batching(base_rows: usize, changes: usize, batch_sizes: &[usize]) -> Vec<E5Row> {
    let mut out = Vec::new();
    for &batch in batch_sizes {
        let mode = if batch == 0 {
            PropagationMode::Lazy
        } else if batch == 1 {
            PropagationMode::Eager
        } else {
            PropagationMode::Batch(batch)
        };
        let flags = IvmFlags {
            propagation: mode,
            ..IvmFlags::paper_defaults()
        };
        let num_groups = (base_rows / 10).max(4);
        let (mut ivm, mut existing, mut w) = groups_session(flags, num_groups, base_rows, 0xE5);
        let deltas: Vec<GroupChange> = w.delta_batch(changes, 0.7, &mut existing);
        let ((), total) = time_once(|| {
            for c in &deltas {
                let pairs = vec![(
                    vec![
                        Value::from(c.group_index.clone()),
                        Value::Integer(c.group_value),
                    ],
                    c.insertion,
                )];
                ivm.ingest_deltas("groups", &pairs).unwrap();
            }
            // Reading the view reconciles whatever is still pending.
            std::hint::black_box(ivm.query_view("query_groups").unwrap().rows.len());
        });
        out.push(E5Row {
            batch_size: batch,
            total,
            maintenance_runs: ivm.stats().maintenance_runs,
        });
    }
    out
}

// ---------------------------------------------------------------- E-parallel

/// One E-parallel measurement.
#[derive(Debug, Clone)]
pub struct EParallelRow {
    /// Executor worker threads.
    pub workers: usize,
    /// Base-table size.
    pub base_rows: usize,
    /// Delta batch size for the propagation measurement.
    pub delta_rows: usize,
    /// Full view recomputation (scan + aggregate over the whole base
    /// table) — the scan-heavy pipeline the morsel scheduler targets.
    pub recompute: Duration,
    /// Large-delta propagation (ingest + refresh scripts).
    pub propagate: Duration,
}

/// E-parallel: morsel-driven multi-core scaling. Measures full view
/// recomputation and large-delta propagation on the Listing-1 workload at
/// each worker count (best of 3 per cell). Worker count 1 is the serial
/// operator tree — the same code path as before the parallel subsystem.
pub fn eparallel_scaling(base_rows: usize, delta: usize, workers: &[usize]) -> Vec<EParallelRow> {
    let mut out = Vec::new();
    for &w in workers {
        let num_groups = (base_rows as f64).sqrt().ceil() as usize;
        let (mut ivm, mut existing, mut wl) =
            groups_session(IvmFlags::paper_defaults(), num_groups, base_rows, 0xEAA);
        ivm.set_parallelism(w);
        let view_sql = ivm.view("query_groups").unwrap().artifacts.view_sql.clone();
        let mut recompute = Duration::MAX;
        for _ in 0..3 {
            let (r, d) = time_once(|| ivm.database().query(&view_sql).unwrap());
            std::hint::black_box(r.rows.len());
            recompute = recompute.min(d);
        }
        let mut propagate = Duration::MAX;
        for _ in 0..3 {
            let batch = wl.delta_batch(delta, 0.7, &mut existing);
            let ((), d) = time_once(|| apply_batch(&mut ivm, &batch));
            propagate = propagate.min(d);
        }
        assert!(
            ivm.check_consistency("query_groups").unwrap(),
            "E-parallel must stay consistent at {w} workers"
        );
        out.push(EParallelRow {
            workers: w,
            base_rows,
            delta_rows: delta,
            recompute,
            propagate,
        });
    }
    out
}

// ---------------------------------------------------------------- E-hash

/// One E-hash measurement.
#[derive(Debug, Clone)]
pub struct EHashRow {
    /// Key-distribution variant under test.
    pub variant: &'static str,
    /// Fact-table size.
    pub fact_rows: usize,
    /// Result rows (≈ distinct GROUP BY keys).
    pub out_rows: usize,
    /// Wide two-dimension join + GROUP BY latency.
    pub join_group: Duration,
    /// `SELECT DISTINCT` over the fact join keys.
    pub distinct: Duration,
}

/// The E-hash query: a wide multi-join (two dimension tables) feeding a
/// GROUP BY — every hash structure in the engine on one path (join
/// builds, probes, and the aggregation group table).
pub const EHASH_QUERY: &str = "SELECT fact.k, SUM(fact.v + d1.w) AS s, COUNT(*) AS n \
     FROM fact JOIN d1 ON fact.a = d1.id JOIN d2 ON fact.b = d2.id \
     GROUP BY fact.k";

/// E-hash: the hash-operator stress scenario behind the vectorized hash
/// kernels + flat open-addressing tables. Two variants: `unique` (every
/// group key distinct — high-cardinality GROUP BY, chain-free joins) and
/// `duplicate` (few group keys, duplicate dimension keys — long candidate
/// chains, duplicate-heavy group folds). Best of 3 per cell.
pub fn ehash_hash_operators(fact_sizes: &[usize]) -> Vec<EHashRow> {
    let mut out = Vec::new();
    for &n in fact_sizes {
        for variant in ["unique", "duplicate"] {
            let mut db = ivm_engine::Database::new();
            db.execute("CREATE TABLE fact (k INTEGER, a INTEGER, b INTEGER, v INTEGER)")
                .unwrap();
            db.execute("CREATE TABLE d1 (id INTEGER, w INTEGER)")
                .unwrap();
            db.execute("CREATE TABLE d2 (id INTEGER, w INTEGER)")
                .unwrap();
            // `duplicate` repeats every dimension id 4× → candidate
            // chains on the build side (4-way probe fan-out per join).
            let (dim_ids, reps) = if variant == "unique" {
                ((n / 8).max(16), 1)
            } else {
                ((n / 32).max(16), 4)
            };
            // Deterministic multiplicative-hash spread; no RNG needed.
            let spread =
                |i: usize, m: usize| ((i as u64).wrapping_mul(2654435761) % m as u64) as i64;
            {
                let t = db.catalog_mut().table_mut("fact").unwrap();
                for i in 0..n {
                    let k = if variant == "unique" {
                        i as i64
                    } else {
                        spread(i, (n / 64).max(4))
                    };
                    t.insert(vec![
                        Value::Integer(k),
                        Value::Integer(spread(i, dim_ids)),
                        Value::Integer(spread(i + 1, dim_ids)),
                        Value::Integer((i % 1000) as i64),
                    ])
                    .unwrap();
                }
            }
            for name in ["d1", "d2"] {
                let t = db.catalog_mut().table_mut(name).unwrap();
                for id in 0..dim_ids {
                    for r in 0..reps {
                        t.insert(vec![
                            Value::Integer(id as i64),
                            Value::Integer((id * 7 + r) as i64),
                        ])
                        .unwrap();
                    }
                }
            }
            let mut join_group = Duration::MAX;
            let mut out_rows = 0;
            for _ in 0..3 {
                let (r, d) = time_once(|| db.query(EHASH_QUERY).unwrap());
                out_rows = r.rows.len();
                std::hint::black_box(r.rows.len());
                join_group = join_group.min(d);
            }
            let mut distinct = Duration::MAX;
            for _ in 0..3 {
                let (r, d) = time_once(|| db.query("SELECT DISTINCT a, b FROM fact").unwrap());
                std::hint::black_box(r.rows.len());
                distinct = distinct.min(d);
            }
            out.push(EHashRow {
                variant,
                fact_rows: n,
                out_rows,
                join_group,
                distinct,
            });
        }
    }
    out
}

// ---------------------------------------------------------------- E-spill

/// One E-spill measurement.
#[derive(Debug, Clone)]
pub struct ESpillRow {
    /// Budget label ("unbounded", "ws/2", "ws/8").
    pub budget_label: &'static str,
    /// Budget in bytes (`None` = unbounded).
    pub budget_bytes: Option<usize>,
    /// Worker threads the run executed with.
    pub workers: usize,
    /// Fact-table size.
    pub fact_rows: usize,
    /// Estimated working set in bytes (fact rows × row footprint).
    pub working_set: usize,
    /// Result rows (≈ distinct GROUP BY keys).
    pub out_rows: usize,
    /// Join + high-cardinality GROUP BY latency.
    pub join_group: Duration,
    /// Spill counters observed for the run.
    pub stats: ivm_engine::SpillStats,
}

/// The E-spill query: a join feeding a high-cardinality GROUP BY — the
/// two biggest memory consumers (join build + group table) on one path.
pub const ESPILL_QUERY: &str = "SELECT fact.k, SUM(fact.v + d1.w) AS s, COUNT(*) AS n \
     FROM fact JOIN d1 ON fact.a = d1.id \
     GROUP BY fact.k";

/// Approximate per-row working-set footprint the memory budget accounts
/// (Value enum per column + row vector header + spiller tuple tags).
const ESPILL_ROW_BYTES: usize = 200;

/// E-spill: out-of-core execution under shrinking memory budgets × a
/// worker sweep. The same 1M-row join + high-cardinality GROUP BY runs
/// unbounded, at half the working set, and at an eighth of it, each at
/// every requested parallelism; results must be identical to the
/// serial unbounded baseline while the constrained runs spill radix
/// partitions to disk (counters recorded per run).
pub fn espill_out_of_core(fact_sizes: &[usize], workers: &[usize]) -> Vec<ESpillRow> {
    let mut out = Vec::new();
    for &n in fact_sizes {
        let working_set = n * ESPILL_ROW_BYTES;
        let budgets: [(&'static str, Option<usize>); 3] = [
            ("unbounded", None),
            ("ws/2", Some(working_set / 2)),
            ("ws/8", Some(working_set / 8)),
        ];
        let mut baseline: Option<Vec<Vec<Value>>> = None;
        for (budget_label, budget_bytes) in budgets {
            for &w in workers {
                let mut db = ivm_engine::Database::new();
                db.config_mut().set_parallelism(w);
                db.config_mut().set_memory_budget(budget_bytes);
                db.execute("CREATE TABLE fact (k INTEGER, a INTEGER, v INTEGER)")
                    .unwrap();
                db.execute("CREATE TABLE d1 (id INTEGER, w INTEGER)")
                    .unwrap();
                let dim_ids = (n / 8).max(16);
                let spread =
                    |i: usize, m: usize| ((i as u64).wrapping_mul(2654435761) % m as u64) as i64;
                {
                    let t = db.catalog_mut().table_mut("fact").unwrap();
                    for i in 0..n {
                        // Unique k per row: the group table is as large as the
                        // input — exactly what must spill gracefully.
                        t.insert(vec![
                            Value::Integer(i as i64),
                            Value::Integer(spread(i, dim_ids)),
                            Value::Integer((i % 1000) as i64),
                        ])
                        .unwrap();
                    }
                }
                {
                    let t = db.catalog_mut().table_mut("d1").unwrap();
                    for id in 0..dim_ids {
                        t.insert(vec![
                            Value::Integer(id as i64),
                            Value::Integer((id * 7) as i64),
                        ])
                        .unwrap();
                    }
                }
                let (result, join_group) = time_once(|| db.query(ESPILL_QUERY).unwrap());
                let out_rows = result.rows.len();
                match &baseline {
                    None => baseline = Some(result.rows),
                    Some(expect) => assert_eq!(
                        expect, &result.rows,
                        "E-spill at {budget_label} workers={w} diverged from the baseline"
                    ),
                }
                out.push(ESpillRow {
                    budget_label,
                    budget_bytes,
                    workers: w,
                    fact_rows: n,
                    working_set,
                    out_rows,
                    join_group,
                    stats: db.spill_stats(),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------- E-durable

/// One E-durable measurement.
#[derive(Debug, Clone)]
pub struct EDurableRow {
    /// `"memory"` (no WAL), `"durable"` (every commit fsync'd to the
    /// WAL), or `"recovery"` (reopen after a crash).
    pub mode: &'static str,
    /// Base-table rows loaded before timing.
    pub base_rows: usize,
    /// Delta rows per ingest batch.
    pub delta_rows: usize,
    /// Ingest+refresh batches applied; for recovery rows, the batches
    /// sitting uncheckpointed in the replayed WAL.
    pub batches: usize,
    /// Wall time: the full ingest+refresh loop for memory/durable rows,
    /// the reopen (replay + recovery checkpoint) for recovery rows.
    pub elapsed: Duration,
    /// WAL redo records the workload logged (durable rows only).
    pub wal_records: u64,
    /// fsyncs the workload issued (durable rows only).
    pub wal_syncs: u64,
    /// WAL bytes: appended by the workload (durable rows) or scanned on
    /// reopen (recovery rows).
    pub wal_bytes: u64,
    /// Committed records replayed on reopen (recovery rows only).
    pub replayed_records: u64,
    /// Transient-I/O retries absorbed during the measurement.
    pub io_retries: u64,
    /// Whether the log ended the run poisoned (read-only degraded mode);
    /// always false in a healthy bench run.
    pub wal_poisoned: bool,
}

/// Scratch data directory for the durable runs, removed on drop so bench
/// runs leave nothing behind.
struct BenchDataDir(std::path::PathBuf);

impl BenchDataDir {
    fn new(tag: &str) -> BenchDataDir {
        let dir = std::env::temp_dir().join(format!("openivm-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        BenchDataDir(dir)
    }
}

impl Drop for BenchDataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// [`groups_session`] against a durable data directory: the same bulk
/// load and Listing-1 view, then a checkpoint so the WAL carries only
/// what the measured workload writes.
fn durable_groups_session(
    dir: &std::path::Path,
    num_groups: usize,
    base_rows: usize,
    seed: u64,
) -> (IvmSession, Vec<(String, i64)>, GroupsWorkload) {
    let mut w = GroupsWorkload::new(num_groups, seed);
    let rows = w.base_rows(base_rows);
    let mut ivm = IvmSession::open(dir, IvmFlags::paper_defaults()).unwrap();
    ivm.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    {
        let table = ivm
            .database_mut()
            .catalog_mut()
            .table_mut("groups")
            .unwrap();
        for (g, v) in &rows {
            table
                .insert(vec![Value::from(g.clone()), Value::Integer(*v)])
                .unwrap();
        }
    }
    ivm.execute(LISTING_1_VIEW).unwrap();
    ivm.checkpoint().unwrap();
    (ivm, rows, w)
}

/// E-durable: the write-ahead-log toll on ingest+refresh, and recovery
/// time as a function of log length. The same delta workload runs once
/// in memory and once against a durable directory (every commit
/// fsync'd); then fresh directories "crash" (drop without `close`) after
/// each `batch_counts` entry of uncheckpointed batches and the reopen —
/// committed-prefix replay plus the recovery checkpoint — is timed.
pub fn edurable_durability(
    base_rows: usize,
    delta: usize,
    batch_counts: &[usize],
) -> Vec<EDurableRow> {
    let num_groups = (base_rows as f64).sqrt().ceil() as usize;
    let batches = batch_counts.iter().copied().max().unwrap_or(0);
    let mut out = Vec::new();

    // In-memory baseline: identical workload, no durability machinery.
    {
        let (mut ivm, mut existing, mut w) =
            groups_session(IvmFlags::paper_defaults(), num_groups, base_rows, 0xD4);
        let ((), elapsed) = time_once(|| {
            for _ in 0..batches {
                let batch = w.delta_batch(delta, 0.7, &mut existing);
                apply_batch(&mut ivm, &batch);
            }
        });
        out.push(EDurableRow {
            mode: "memory",
            base_rows,
            delta_rows: delta,
            batches,
            elapsed,
            wal_records: 0,
            wal_syncs: 0,
            wal_bytes: 0,
            replayed_records: 0,
            io_retries: 0,
            wal_poisoned: false,
        });
    }

    // Durable: same workload with logical redo logging + group commit.
    {
        let dir = BenchDataDir::new("edurable-ingest");
        let (mut ivm, mut existing, mut w) =
            durable_groups_session(&dir.0, num_groups, base_rows, 0xD4);
        let before = ivm.database().wal_stats().unwrap();
        let ((), elapsed) = time_once(|| {
            for _ in 0..batches {
                let batch = w.delta_batch(delta, 0.7, &mut existing);
                apply_batch(&mut ivm, &batch);
            }
        });
        let after = ivm.database().wal_stats().unwrap();
        ivm.close().unwrap();
        out.push(EDurableRow {
            mode: "durable",
            base_rows,
            delta_rows: delta,
            batches,
            elapsed,
            wal_records: after.records - before.records,
            wal_syncs: after.syncs - before.syncs,
            wal_bytes: after.bytes_written - before.bytes_written,
            replayed_records: 0,
            io_retries: after.retries - before.retries,
            wal_poisoned: after.poisoned,
        });
    }

    // Recovery time vs log length: crash with k uncheckpointed batches
    // in the WAL, then time the reopen that replays them.
    for &k in batch_counts {
        let dir = BenchDataDir::new(&format!("edurable-rec{k}"));
        {
            let (mut ivm, mut existing, mut w) =
                durable_groups_session(&dir.0, num_groups, base_rows, 0xD4);
            for _ in 0..k {
                let batch = w.delta_batch(delta, 0.7, &mut existing);
                apply_batch(&mut ivm, &batch);
            }
            // Crash: drop without close() so reopen must replay the WAL.
        }
        let (ivm, elapsed) =
            time_once(|| IvmSession::open(&dir.0, IvmFlags::paper_defaults()).unwrap());
        let rec = ivm.database().recovery_stats().unwrap();
        let wal = ivm.database().wal_stats().unwrap();
        out.push(EDurableRow {
            mode: "recovery",
            base_rows,
            delta_rows: delta,
            batches: k,
            elapsed,
            wal_records: 0,
            wal_syncs: 0,
            wal_bytes: rec.wal_bytes,
            replayed_records: rec.replayed_records,
            io_retries: wal.retries,
            wal_poisoned: wal.poisoned,
        });
    }
    out
}

// ---------------------------------------------------------------- E6

/// One E6 measurement.
#[derive(Debug, Clone)]
pub struct E6Row {
    /// View-class label.
    pub class: &'static str,
    /// Mean compile latency (parse → plan → rewrite → emit).
    pub compile: Duration,
    /// Number of setup statements emitted.
    pub setup_statements: usize,
    /// Number of maintenance statements emitted.
    pub maintenance_statements: usize,
}

/// E6: SQL-to-SQL compilation cost per supported view class.
pub fn e6_compile_time(iters: usize) -> Vec<E6Row> {
    let mut db = ivm_engine::Database::new();
    db.execute("CREATE TABLE groups (group_index VARCHAR, group_value INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE orders (id INTEGER, cust INTEGER, amount INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE customers (id INTEGER, name VARCHAR)")
        .unwrap();
    let cases: [(&'static str, &'static str); 6] = [
        (
            "simple_projection",
            "CREATE MATERIALIZED VIEW v AS SELECT group_index, group_value \
             FROM groups WHERE group_value > 10",
        ),
        (
            "group_aggregate(SUM)",
            "CREATE MATERIALIZED VIEW v AS SELECT group_index, SUM(group_value) AS t \
             FROM groups GROUP BY group_index",
        ),
        (
            "group_aggregate(AVG)",
            "CREATE MATERIALIZED VIEW v AS SELECT group_index, AVG(group_value) AS m \
             FROM groups GROUP BY group_index",
        ),
        (
            "group_aggregate(MIN/MAX)",
            "CREATE MATERIALIZED VIEW v AS SELECT group_index, MIN(group_value) AS lo, \
             MAX(group_value) AS hi FROM groups GROUP BY group_index",
        ),
        (
            "join_projection",
            "CREATE MATERIALIZED VIEW v AS SELECT customers.name, orders.amount \
             FROM orders JOIN customers ON orders.cust = customers.id",
        ),
        (
            "join_aggregate",
            "CREATE MATERIALIZED VIEW v AS SELECT customers.name, SUM(orders.amount) AS t \
             FROM orders JOIN customers ON orders.cust = customers.id GROUP BY customers.name",
        ),
    ];
    let compiler = ivm_core::IvmCompiler::new();
    let flags = IvmFlags::paper_defaults();
    let mut out = Vec::new();
    for (class, sql) in cases {
        let artifacts = compiler.compile_sql(sql, db.catalog(), &flags).unwrap();
        let compile = time_mean(iters, || {
            std::hint::black_box(compiler.compile_sql(sql, db.catalog(), &flags).unwrap());
        });
        out.push(E6Row {
            class,
            compile,
            setup_statements: artifacts.setup_statements().len(),
            maintenance_statements: artifacts.maintenance_statements().len(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_smoke() {
        let rows = e1_ivm_vs_recompute(&[500], &[10]);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].incremental.as_nanos() > 0);
    }

    #[test]
    fn e2_smoke() {
        let rows = e2_art_overhead(&[500], 20);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].art_bytes > 0);
    }

    #[test]
    fn e3_smoke() {
        let rows = e3_cross_system(10, 200, 20, 2);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn e4_smoke() {
        let rows = e4_upsert_strategies(400, &[8], 20);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn e5_smoke() {
        let rows = e5_batching(300, 30, &[1, 10, 0]);
        assert_eq!(rows.len(), 3);
        // Eager runs maintenance per change; lazy exactly once.
        assert!(rows[0].maintenance_runs > rows[2].maintenance_runs);
        assert_eq!(rows[2].maintenance_runs, 1);
    }

    #[test]
    fn e6_smoke() {
        let rows = e6_compile_time(3);
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn ehash_smoke() {
        let rows = ehash_hash_operators(&[2_000]);
        assert_eq!(rows.len(), 2);
        let unique = rows.iter().find(|r| r.variant == "unique").unwrap();
        let dup = rows.iter().find(|r| r.variant == "duplicate").unwrap();
        // Unique keys: one group per fact row; duplicate variant collapses.
        assert_eq!(unique.out_rows, 2_000);
        assert!(dup.out_rows < unique.out_rows);
        assert!(rows.iter().all(|r| r.join_group.as_nanos() > 0));
        assert!(rows.iter().all(|r| r.distinct.as_nanos() > 0));
    }

    #[test]
    fn espill_smoke() {
        let rows = espill_out_of_core(&[3_000], &[1, 2]);
        assert_eq!(rows.len(), 6);
        let unbounded = &rows[0];
        assert_eq!(unbounded.budget_bytes, None);
        assert_eq!(unbounded.workers, 1);
        assert!(!unbounded.stats.spilled(), "unbounded must not spill");
        assert_eq!(unbounded.out_rows, 3_000);
        for tight in &rows[4..] {
            assert_eq!(tight.budget_label, "ws/8");
            assert!(
                tight.stats.spilled() && tight.stats.spilled_bytes > 0,
                "an eighth of the working set must spill (workers={}): {:?}",
                tight.workers,
                tight.stats
            );
        }
        // espill_out_of_core itself asserts result equality per run,
        // parallel runs included.
    }

    #[test]
    fn edurable_smoke() {
        let rows = edurable_durability(500, 20, &[1, 3]);
        assert_eq!(rows.len(), 4); // memory + durable + 2 recovery points
        let durable = rows.iter().find(|r| r.mode == "durable").unwrap();
        assert!(durable.wal_records > 0 && durable.wal_syncs > 0);
        let rec: Vec<&EDurableRow> = rows.iter().filter(|r| r.mode == "recovery").collect();
        assert_eq!(rec.len(), 2);
        // More uncheckpointed batches must mean a longer log to replay.
        assert!(rec[1].replayed_records > rec[0].replayed_records);
        assert!(rows.iter().all(|r| r.elapsed.as_nanos() > 0));
    }

    #[test]
    fn eparallel_smoke() {
        let rows = eparallel_scaling(2_000, 20, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.recompute.as_nanos() > 0));
        assert!(rows.iter().all(|r| r.propagate.as_nanos() > 0));
    }
}
