//! Per-layer numbers, all taken from outside: deltas of the public
//! `*_stats()` getters around the measured loop, the spans the loop
//! recorded, and short probes on the loaded state after the loop for the
//! layers the loop does not call directly.

use std::hint::black_box;
use std::time::Instant;

use ivm_core::{IvmCompiler, IvmSession, SessionStats};
use ivm_engine::optimizer::optimize;
use ivm_engine::planner::{lower, plan_query};
use ivm_engine::{BufferPoolStats, SpillStats, WalStats};
use ivm_sql::ast::Statement;
use ivm_sql::parse_statement;

use crate::gen::{DmlGen, LookupGen};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

use super::{InProcess, LoopStats, Rows, Run};

/// Every public counter of a session, read at a workload boundary.
#[derive(Debug, Clone, Copy)]
pub struct Snap {
    session: SessionStats,
    plan_cache_hits: usize,
    spill: SpillStats,
    wal: Option<WalStats>,
    pool: Option<BufferPoolStats>,
}

impl Snap {
    pub fn take(session: &IvmSession) -> Snap {
        let db = session.database();
        Snap {
            session: session.stats(),
            plan_cache_hits: db.plan_cache_stats().1,
            spill: session.spill_stats(),
            wal: db.wal_stats(),
            pool: db.buffer_pool_stats(),
        }
    }
}

/// `num / den`, 0 where the denominator is (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counts the loop moved, from two snapshots of the getters.
pub fn loop_counts(
    layer: &mut Metrics,
    before: &Snap,
    after: &Snap,
    stats: &LoopStats,
    base_rows_scanned: usize,
) {
    let refreshes = (after.session.maintenance_runs - before.session.maintenance_runs) as f64;
    let statements =
        (after.session.maintenance_statements - before.session.maintenance_statements) as f64;
    layer.set("ivm-core.refreshes", refreshes);
    layer.set("ivm-core.stmts_per_refresh", ratio(statements, refreshes));
    layer.set(
        "ivm-engine.session.plan_cache_hits_per_refresh",
        ratio(
            (after.plan_cache_hits - before.plan_cache_hits) as f64,
            refreshes,
        ),
    );

    let reads = stats.analytic.len() as f64;
    let (a, b) = (after.spill, before.spill);
    layer.set(
        "ivm-engine.exec.spill_bytes_written_per_query",
        ratio((a.spilled_bytes - b.spilled_bytes) as f64, reads),
    );
    layer.set(
        "ivm-engine.exec.spill_bytes_read_per_query",
        ratio((a.bytes_read - b.bytes_read) as f64, reads),
    );
    layer.set(
        "ivm-engine.exec.spill_partitions_per_query",
        ratio((a.spilled_partitions - b.spilled_partitions) as f64, reads),
    );
    layer.set(
        "ivm-engine.exec.analytic_rows_per_s",
        ratio(
            base_rows_scanned as f64,
            stats.analytic.p50().unwrap_or(0.0) / 1e3,
        ),
    );

    let (records, syncs, rotations) = match (before.wal, after.wal) {
        (Some(b), Some(a)) => (
            a.records - b.records,
            a.syncs - b.syncs,
            a.rotations - b.rotations,
        ),
        _ => (0, 0, 0),
    };
    layer.set(
        "ivm-engine.storage.wal_records_per_row",
        ratio(records as f64, stats.rows as f64),
    );
    layer.set(
        "ivm-engine.storage.wal_syncs_per_batch",
        ratio(syncs as f64, stats.ops as f64),
    );
    layer.set("ivm-engine.storage.wal_rotations", rotations as f64);

    let (hits, misses, written) = match (before.pool, after.pool) {
        (Some(b), Some(a)) => (
            a.hits - b.hits,
            a.misses - b.misses,
            a.pages_written - b.pages_written,
        ),
        _ => (0, 0, 0),
    };
    layer.set("ivm-engine.storage.pool_pages_written", written as f64);
    layer.set(
        "ivm-engine.storage.pool_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );
    // The slowest write or lookup: an auto-checkpoint runs in the
    // foreground of whichever statement crosses the WAL threshold.
    layer.set(
        "ivm-engine.storage.stall_max_ms",
        f64::max(
            stats.fresh.max_ms().unwrap_or(0.0),
            stats.lookup.max_ms().unwrap_or(0.0),
        ),
    );
}

/// Layer times from the spans the traced loop recorded around its calls.
pub fn loop_spans(layer: &mut Metrics, tr: &Tracer) {
    for (metric, span) in [
        ("ivm-core.capture_ms", "ivm-core.capture"),
        ("ivm-core.refresh_ms", "ivm-core.refresh"),
    ] {
        layer.set_opt(metric, median(&tr.durations_ms(span)));
    }
    // Share of the traced fresh latency that the layer spans inside it
    // account for; the rest is the bench's own glue between calls.
    let total: f64 = tr.durations_ms("fresh").iter().sum();
    let uncovered: f64 = tr.self_times_ms("fresh").iter().sum();
    layer.set("trace.fresh_coverage_frac", ratio(total - uncovered, total));
}

/// What the probes need to know about the workload they follow.
pub struct ProbeSpec<'a> {
    /// The workload's view under a name that does not exist yet (the
    /// compiler refuses to compile over an existing view).
    pub create_view_sql: String,
    pub view: &'a str,
    pub analytic_sql: &'a str,
    pub next_op: &'a super::NextOp,
    /// The workload's own memory budget; `None` = a quarter of the
    /// analytic read's measured working set.
    pub spill_budget: Option<usize>,
}

fn ms_since(timer: Instant) -> f64 {
    timer.elapsed().as_secs_f64() * 1e3
}

/// Run every probe. A probe that fails is a failed operation and leaves
/// its metrics unset, which fails the traced run.
pub fn run_all<T: InProcess>(
    target: &mut T,
    dml: &mut DmlGen,
    lookups: &mut LookupGen,
    spec: &ProbeSpec<'_>,
    run: &mut Run,
    layer: &mut Metrics,
) {
    let lookup_sql = (dml.dialect.lookup_sql)(lookups.key());
    let results = [
        ("parse", parse(target, spec, run, layer)),
        ("compile", compile(target, spec, layer)),
        ("steps", steps(target, dml, spec, run, layer)),
        ("plan", plan(target, &lookup_sql, spec, layer)),
        ("parallel", parallel(target, spec, layer)),
        ("spill", spill(target, spec, run, layer)),
        // Last: share() cannot be undone.
        ("concurrent", concurrent(target, dml, lookups, run, layer)),
    ];
    for (name, result) in results {
        run.tally
            .check(result.is_ok(), || format!("probe {name}: {result:?}"));
    }
}

/// `parse_statement` over every SQL string the workload issued plus the
/// view's maintenance script.
fn parse<T: InProcess>(
    target: &mut T,
    spec: &ProbeSpec<'_>,
    run: &Run,
    layer: &mut Metrics,
) -> Result<(), String> {
    let script = target
        .session()
        .view(spec.view)
        .ok_or("view not registered")?
        .artifacts
        .maintenance_statements();
    let (mut statements, mut bytes) = (0usize, 0usize);
    let timer = Instant::now();
    for sql in run.sql_log.iter().chain(&script) {
        black_box(parse_statement(black_box(sql)).map_err(|e| e.to_string())?);
        statements += 1;
        bytes += sql.len();
    }
    let seconds = timer.elapsed().as_secs_f64();
    layer.set(
        "ivm-sql.parse_us_per_stmt",
        ratio(seconds * 1e6, statements as f64),
    );
    layer.set("ivm-sql.parse_mb_per_s", ratio(bytes as f64 / 1e6, seconds));
    Ok(())
}

/// Paper E6: compile the workload's view 20 times.
fn compile<T: InProcess>(
    target: &mut T,
    spec: &ProbeSpec<'_>,
    layer: &mut Metrics,
) -> Result<(), String> {
    let session = target.session();
    let mut times = Vec::new();
    for _ in 0..20 {
        let timer = Instant::now();
        let artifacts = IvmCompiler::new()
            .compile_sql(
                &spec.create_view_sql,
                session.database().catalog(),
                session.flags(),
            )
            .map_err(|e| e.to_string())?;
        black_box(artifacts);
        times.push(ms_since(timer));
    }
    layer.set_opt("ivm-core.compile_ms", median(&times));
    Ok(())
}

/// Uncached replay of the propagation script: 20 extra batches captured
/// under lazy propagation, then the view's maintenance statements run one
/// by one through `Database::execute`. Each time includes parse and plan
/// (both measured separately); statements are grouped by the paper's step.
fn steps<T: InProcess>(
    target: &mut T,
    dml: &mut DmlGen,
    spec: &ProbeSpec<'_>,
    run: &mut Run,
    layer: &mut Metrics,
) -> Result<(), String> {
    let script: Vec<(u8, String)> = target
        .session()
        .view(spec.view)
        .ok_or("view not registered")?
        .artifacts
        .propagation
        .steps
        .iter()
        .map(|s| (s.step, s.sql.clone()))
        .collect();
    let mut per_step: [Vec<f64>; 4] = Default::default();
    for _ in 0..20 {
        for stmt in (spec.next_op)(dml) {
            target.mirror_dml(&stmt.sql)?;
            let op = run.next_op();
            run.tr
                .span("probe.capture", op, || target.session().execute(&stmt.sql))
                .map_err(|e| e.to_string())?;
        }
        let mut batch = [0.0; 4];
        for (step, sql) in &script {
            let timer = Instant::now();
            target
                .session()
                .database_mut()
                .execute(sql)
                .map_err(|e| e.to_string())?;
            batch[usize::from(*step).clamp(1, 4) - 1] += ms_since(timer);
        }
        for (times, ms) in per_step.iter_mut().zip(batch) {
            times.push(ms);
        }
        // The deltas are drained; this only clears the session's dirty mark.
        target.session().refresh_all().map_err(|e| e.to_string())?;
    }
    for (i, times) in per_step.iter().enumerate() {
        layer.set_opt(&format!("ivm-core.step{}_ms", i + 1), median(times));
    }
    // A loop that captures outside ivm-core (the pipeline) has no capture
    // span of its own; the probe's stands in.
    if layer.get("ivm-core.capture_ms").is_none() {
        layer.set_opt(
            "ivm-core.capture_ms",
            median(&run.tr.durations_ms("probe.capture")),
        );
    }
    Ok(())
}

/// `plan_query` → `optimize` → `lower` on the lookup and analytic SELECTs.
fn plan<T: InProcess>(
    target: &mut T,
    lookup_sql: &str,
    spec: &ProbeSpec<'_>,
    layer: &mut Metrics,
) -> Result<(), String> {
    const REPEATS: usize = 200;
    let session = target.session();
    let catalog = session.database().catalog();
    let mut seconds = 0.0;
    for sql in [lookup_sql, spec.analytic_sql] {
        let Statement::Query(query) = parse_statement(sql).map_err(|e| e.to_string())? else {
            return Err(format!("not a query: {sql}"));
        };
        let timer = Instant::now();
        for _ in 0..REPEATS {
            let logical = optimize(plan_query(&query, catalog).map_err(|e| e.to_string())?);
            black_box(lower(&logical, catalog).map_err(|e| e.to_string())?);
        }
        seconds += timer.elapsed().as_secs_f64();
    }
    layer.set(
        "ivm-engine.planner.plan_us_per_stmt",
        seconds * 1e6 / (2 * REPEATS) as f64,
    );
    Ok(())
}

fn timed_reads<T: InProcess>(target: &mut T, sql: &str, repeats: usize) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..repeats {
        let timer = Instant::now();
        black_box(target.query(sql)?);
        times.push(ms_since(timer));
    }
    median(&times).ok_or_else(|| "no samples".to_string())
}

/// The analytic read at one worker against the session's default. Base:
/// the default's time (above 1 = the default is faster).
fn parallel<T: InProcess>(
    target: &mut T,
    spec: &ProbeSpec<'_>,
    layer: &mut Metrics,
) -> Result<(), String> {
    let default = target.session().parallelism();
    target.session().set_parallelism(1);
    let serial = timed_reads(target, spec.analytic_sql, 10);
    target.session().set_parallelism(default);
    let at_default = timed_reads(target, spec.analytic_sql, 10)?;
    layer.set(
        "ivm-engine.exec.parallel_speedup",
        ratio(serial?, at_default),
    );
    Ok(())
}

/// The analytic read unbounded against budgeted. Base: the unbounded time.
fn spill<T: InProcess>(
    target: &mut T,
    spec: &ProbeSpec<'_>,
    run: &mut Run,
    layer: &mut Metrics,
) -> Result<(), String> {
    let original = target.session().database().memory_budget();
    let slowdown = spill_slowdown(target, spec, run);
    target.session().set_memory_budget(original);
    layer.set("ivm-engine.exec.spill_slowdown", slowdown?);
    Ok(())
}

fn spill_slowdown<T: InProcess>(
    target: &mut T,
    spec: &ProbeSpec<'_>,
    run: &mut Run,
) -> Result<f64, String> {
    target.session().set_memory_budget(None);
    let unbounded = timed_reads(target, spec.analytic_sql, 5)?;
    // A limit nothing reaches makes the executor account its state
    // without spilling: the peak is the read's working set.
    target.session().set_memory_budget(Some(1 << 40));
    target.query(spec.analytic_sql)?;
    let working_set = target.session().spill_stats().peak_used as usize;
    run.info
        .push(("probe_working_set_bytes", Json::count(working_set)));
    let budget = spec
        .spill_budget
        .unwrap_or((working_set / 4).max(16 * 1024));
    run.info.push(("probe_budget_bytes", Json::count(budget)));
    target.session().set_memory_budget(Some(budget));
    let budgeted = timed_reads(target, spec.analytic_sql, 5)?;
    Ok(ratio(budgeted, unbounded))
}

/// Snapshot publishing and copy-on-write: one-row writes before and after
/// `share()`, `republish()` on its own, and lookups through a
/// `ReadSession`.
fn concurrent<T: InProcess>(
    target: &mut T,
    dml: &mut DmlGen,
    lookups: &mut LookupGen,
    run: &mut Run,
    layer: &mut Metrics,
) -> Result<(), String> {
    fn one_row_writes<T: InProcess>(target: &mut T, dml: &mut DmlGen) -> Result<f64, String> {
        let mut times = Vec::new();
        for _ in 0..50 {
            let stmt = dml.insert(1);
            target.mirror_dml(&stmt.sql)?;
            let timer = Instant::now();
            let session = target.session();
            session.execute(&stmt.sql).map_err(|e| e.to_string())?;
            session.refresh_all().map_err(|e| e.to_string())?;
            times.push(ms_since(timer));
        }
        median(&times).ok_or_else(|| "no samples".to_string())
    }

    let unshared = one_row_writes(target, dml)?;
    let hub = target.session().share();
    let mut reader = hub.reader();
    // Held across the writes: the hub's current snapshot and this older
    // one both keep table images alive that the writer must copy.
    let pinned = reader.pin();

    let mut publish = Vec::new();
    for _ in 0..200 {
        let timer = Instant::now();
        target.session().republish();
        publish.push(ms_since(timer) * 1e3);
    }
    layer.set_opt("ivm-engine.concurrent.publish_us", median(&publish));

    let shared = one_row_writes(target, dml)?;
    // Base: the same writes before share().
    layer.set(
        "ivm-engine.concurrent.cow_write_penalty",
        ratio(shared, unshared),
    );
    drop(pinned);

    let mut reads = Vec::new();
    for _ in 0..1000 {
        let key = lookups.key();
        let sql = (dml.dialect.lookup_sql)(key);
        let timer = Instant::now();
        let found = reader.query(&sql);
        reads.push(ms_since(timer) * 1e3);
        let expected: Vec<String> = dml.expected_view_row(key).into_iter().collect();
        let got = found
            .map(|r| r.rows.render_sorted())
            .map_err(|e| e.to_string());
        run.tally.check(got.as_ref() == Ok(&expected), || {
            format!("reader lookup {sql}: got {got:?}, model says {expected:?}")
        });
    }
    layer.set_opt("ivm-engine.concurrent.reader_lookup_us", median(&reads));
    let (_, hits, misses) = hub.plan_cache_stats();
    layer.set(
        "ivm-engine.concurrent.shared_plan_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );
    Ok(())
}
