//! `htap-batch`: the cross-system pipeline of the paper's Figure 3. OLTP
//! writes are captured by triggers, shipped across, ingested into the OLAP
//! mirrors and propagated into a join-aggregate view.

use std::time::Instant;

use ivm_core::IvmSession;
use ivm_engine::Value;
use ivm_htap::HtapPipeline;

use crate::gen::{Dialect, DmlGen, Keys, LookupGen, Stmt};
use crate::json::Json;
use crate::metrics::Outcome;
use crate::sys;
use crate::trace::Tracer;

use super::probes::{self, ProbeSpec, Snap};
use super::{
    closed_loop, final_view_checks, finish, per_layer_with_unused, repeat_set_up, timed_set_up,
    InProcess, Limit, LoopSpec, Measured, Params, Run, Target, DURABLE_LAYERS, SERVE_LAYERS,
};

// Sizes. The issue asked for 50 k customers, 500 k orders and batches of
// 2 000; at this commit the compiled join view runs step 1 (and the initial
// population) as a nested-loop product of the order delta (or table) and
// `customers`, so those sizes do not finish. These are the largest that
// keep one set-up near a second; the customers : batch : orders proportions
// are the bench's own.
const CUSTOMERS: usize = 100;
const REGIONS: usize = 10;
const ORDERS: usize = 20_000;
/// Order changes per operation: 45 % inserted, 45 % deleted, 10 % updated,
/// as three multi-row statements. As many rows leave as arrive, so the
/// table keeps its size and a write costs the same at the end of the loop
/// as at its start (the issue's 70/20/10 quadrupled the table in one run,
/// and the write latency with it).
const BATCH: usize = 500;
/// View lookups after each batch, one after the other. The first finds
/// the caches as 20 ms of refresh left them; the median is of the rest.
const LOOKUPS_PER_BATCH: usize = 10;
const ANALYTIC_EVERY: usize = 4;
const WARMUP_OPS: usize = 5;

const CUSTOMERS_DDL: &str =
    "CREATE TABLE customers (id INTEGER PRIMARY KEY, name VARCHAR, region VARCHAR)";
const ORDERS_DDL: &str =
    "CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amount INTEGER)";
const VIEW: &str = "rc";
const VIEW_QUERY: &str = "SELECT c.region, o.cust, SUM(o.amount) AS total, COUNT(*) AS cnt \
     FROM orders o JOIN customers c ON o.cust = c.id GROUP BY c.region, o.cust";

fn region(cust: u32) -> String {
    format!("r{:02}", cust as usize % REGIONS)
}

const DIALECT: Dialect = Dialect {
    table: "orders",
    value_col: "amount",
    row_sql: |id, key, value| format!("({id}, {key}, {value})"),
    lookup_sql: |key| {
        format!(
            "SELECT region, cust, total, cnt FROM rc WHERE region = '{}' AND cust = {key}",
            region(key)
        )
    },
    view_key: |key| format!("{}\t{key}", region(key)),
};

struct Pipeline {
    htap: HtapPipeline,
}

impl Target for Pipeline {
    type Rows = Vec<Vec<Value>>;

    fn apply(&mut self, stmts: &[Stmt], tr: &mut Tracer, op: u64) -> Result<(), String> {
        let htap = &mut self.htap;
        let writes = tr.begin("ivm-oltp.execute", op);
        for s in stmts {
            htap.execute_oltp(&s.sql).map_err(|e| e.to_string())?;
        }
        tr.end(writes);
        if tr.enabled() {
            tr.span("ivm-htap.ship", op, || htap.sync())
                .map_err(|e| e.to_string())?;
            tr.span("ivm-core.refresh", op, || htap.olap_mut().refresh_all())
                .map_err(|e| e.to_string())?;
        } else {
            htap.sync_and_refresh().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, String> {
        self.htap
            .query_olap(sql)
            .map(|r| r.rows)
            .map_err(|e| e.to_string())
    }

    fn spilled_bytes(&mut self) -> u64 {
        self.htap.olap().spill_stats().spilled_bytes
    }
}

impl InProcess for Pipeline {
    fn session(&mut self) -> &mut IvmSession {
        self.htap.olap_mut()
    }

    /// Probes write to the OLAP session directly; the OLTP store takes the
    /// same statement, and what its triggers captured is discarded so the
    /// change is not shipped a second time.
    fn mirror_dml(&mut self, sql: &str) -> Result<(), String> {
        self.htap.execute_oltp(sql).map_err(|e| e.to_string())?;
        self.htap.oltp_mut().drain_changes(DIALECT.table);
        Ok(())
    }
}

fn batch(dml: &mut DmlGen, size: usize) -> Vec<Stmt> {
    vec![
        dml.insert(size * 45 / 100),
        dml.delete(size * 45 / 100),
        dml.update(size / 10),
    ]
}

struct Ready {
    target: Pipeline,
    dml: DmlGen,
    lookups: LookupGen,
    run: Run,
    create_view_ms: f64,
}

fn loop_spec(batch_rows: usize) -> LoopSpec {
    LoopSpec {
        next_op: Box::new(move |dml| batch(dml, batch_rows)),
        lookups_per_op: LOOKUPS_PER_BATCH,
        keys_per_lookup: 1,
        analytic_every: ANALYTIC_EVERY,
        // The view-defining join + aggregate over the OLAP mirrors, at the
        // engine's default parallelism.
        analytic_sql: VIEW_QUERY,
        analytic_ok: |(rows, _), dml| rows == dml.model.groups().count(),
    }
}

/// Both systems are bulk-loaded directly (no capture), then the view is
/// created over the loaded mirrors.
fn set_up(params: &Params, spec: &LoopSpec) -> Result<Ready, String> {
    let customers = params.sized(CUSTOMERS);
    let keys = Keys::zipf(customers);
    let mut dml = DmlGen::new(params.seed, keys.clone(), DIALECT);
    let mut lookups = LookupGen::new(params.seed, keys);
    let mut run = Run::new(params.traced);
    let mut htap = HtapPipeline::with_defaults();
    for ddl in [CUSTOMERS_DDL, ORDERS_DDL] {
        htap.mirror_table(ddl).map_err(|e| e.to_string())?;
    }

    let text = |s: String| Value::Varchar(s);
    let int = |n: usize| Value::Integer(n as i64);
    let customer_rows: Vec<Vec<Value>> = (0..customers)
        .map(|id| vec![int(id), text(format!("c{id}")), text(region(id as u32))])
        .collect();
    let tuples: Vec<String> = (0..customers)
        .map(|id| format!("({id}, 'c{id}', '{}')", region(id as u32)))
        .collect();
    let load_customers = format!("INSERT INTO customers VALUES {}", tuples.join(", "));
    run.issue(&load_customers);
    htap.oltp_mut()
        .load_rows("customers", customer_rows)
        .map_err(|e| e.to_string())?;
    htap.olap_mut()
        .execute(&load_customers)
        .map_err(|e| e.to_string())?;

    let mut left = params.sized(ORDERS);
    while left > 0 {
        let n = left.min(1000);
        let rows = dml.new_rows(n);
        let tuples: Vec<String> = rows
            .iter()
            .map(|&(id, key, value)| (DIALECT.row_sql)(id, key, value))
            .collect();
        let sql = format!("INSERT INTO orders VALUES {}", tuples.join(", "));
        run.issue(&sql);
        let values = rows
            .into_iter()
            .map(|(id, key, value)| vec![int(id), int(key as usize), Value::Integer(value)])
            .collect();
        htap.oltp_mut()
            .load_rows("orders", values)
            .map_err(|e| e.to_string())?;
        htap.olap_mut().execute(&sql).map_err(|e| e.to_string())?;
        left -= n;
    }

    let create = format!("CREATE MATERIALIZED VIEW {VIEW} AS {VIEW_QUERY}");
    run.issue(&create);
    let timer = Instant::now();
    htap.create_materialized_view(&create)
        .map_err(|e| e.to_string())?;
    let create_view_ms = timer.elapsed().as_secs_f64() * 1e3;

    let mut target = Pipeline { htap };
    let warmup = Limit::Ops(params.sized(WARMUP_OPS));
    closed_loop(&mut target, &mut dml, &mut lookups, spec, warmup, &mut run);
    Ok(Ready {
        target,
        dml,
        lookups,
        run,
        create_view_ms,
    })
}

pub fn run(params: &Params) -> Result<Outcome, String> {
    let size = params.sized(BATCH).max(10);
    let spec = loop_spec(size);
    let (ready, first_setup_s) = timed_set_up(|| set_up(params, &spec))?;
    let Ready {
        mut target,
        mut dml,
        mut lookups,
        mut run,
        create_view_ms,
    } = ready;

    let before = Snap::take(target.session());
    let shipped_before = target.htap.ship_stats().rows;
    let stats = closed_loop(
        &mut target,
        &mut dml,
        &mut lookups,
        &spec,
        params.limit,
        &mut run,
    );
    let after = Snap::take(target.session());
    super::check_spills(&stats, false, &mut run);
    let shipped = target.htap.ship_stats().rows - shipped_before;

    let mut layer = per_layer_with_unused(&[DURABLE_LAYERS, SERVE_LAYERS]);
    layer.set("ivm-core.create_view_ms", create_view_ms);
    layer.set("ivm-htap.rows_shipped", shipped as f64);
    let scanned = dml.model.live_rows() + params.sized(CUSTOMERS);
    probes::loop_counts(&mut layer, &before, &after, &stats, scanned);
    if params.traced {
        probes::loop_spans(&mut layer, &run.tr);
        let seconds = |span: &str| run.tr.durations_ms(span).iter().sum::<f64>() / 1e3;
        layer.set(
            "ivm-oltp.rows_per_s",
            stats.rows as f64 / seconds("ivm-oltp.execute"),
        );
        layer.set(
            "ivm-htap.ship_rows_per_s",
            shipped as f64 / seconds("ivm-htap.ship"),
        );
        let ingested = ingest_probe(&mut target, &mut dml, &*spec.next_op);
        run.tally
            .check(ingested.is_ok(), || format!("probe ingest: {ingested:?}"));
        layer.set_opt("ivm-core.ingest_rows_per_s", ingested.ok());
        let probe = ProbeSpec {
            create_view_sql: format!("CREATE MATERIALIZED VIEW bench_probe_view AS {VIEW_QUERY}"),
            view: VIEW,
            analytic_sql: VIEW_QUERY,
            next_op: &*spec.next_op,
            spill_budget: None,
        };
        probes::run_all(
            &mut target,
            &mut dml,
            &mut lookups,
            &probe,
            &mut run,
            &mut layer,
        );
    }

    final_view_checks(&mut target, &dml, VIEW, VIEW_QUERY, &mut run);
    let report = target.htap.check_consistency();
    run.tally
        .check(report.as_ref().is_ok_and(|r| r.is_consistent()), || {
            format!("final check: pipeline consistency: {report:?}")
        });

    let peak_rss_mb = sys::peak_rss_mb(None);
    drop(target);
    let setup_s = repeat_set_up(params, first_setup_s, || set_up(params, &spec))?;

    let info = vec![
        ("customers", Json::count(params.sized(CUSTOMERS))),
        ("base_orders", Json::count(params.sized(ORDERS))),
        ("batch_rows", Json::count(size)),
    ];
    let measured = Measured {
        stats: &stats,
        setup_s: &setup_s,
        peak_rss_mb,
    };
    finish("htap-batch", params, run, measured, layer, info)
}

/// `sync()` minus the bridge's own bookkeeping: 20 extra batches whose
/// captured changes the bench drains itself and hands to `ingest_deltas`.
fn ingest_probe(
    target: &mut Pipeline,
    dml: &mut DmlGen,
    next_op: &super::NextOp,
) -> Result<f64, String> {
    let (mut rows, mut seconds) = (0usize, 0.0);
    for _ in 0..20 {
        for stmt in next_op(dml) {
            target
                .htap
                .execute_oltp(&stmt.sql)
                .map_err(|e| e.to_string())?;
        }
        let changes: Vec<(Vec<Value>, bool)> = target
            .htap
            .oltp_mut()
            .drain_changes(DIALECT.table)
            .into_iter()
            .map(|c| (c.row, c.insertion))
            .collect();
        let timer = Instant::now();
        target
            .htap
            .olap_mut()
            .ingest_deltas(DIALECT.table, &changes)
            .map_err(|e| e.to_string())?;
        seconds += timer.elapsed().as_secs_f64();
        rows += changes.len();
        target
            .htap
            .olap_mut()
            .refresh_all()
            .map_err(|e| e.to_string())?;
    }
    Ok(rows as f64 / seconds)
}
