//! The four workloads and what they share: run parameters, the closed
//! loop of the three in-process workloads, and the end-of-run checks.

pub mod embedded;
pub mod htap_batch;
pub mod probes;
pub mod serve_mixed;

use std::path::PathBuf;
use std::time::Instant;

use ivm_core::IvmSession;
use ivm_engine::Value;

use crate::gen::{Digest, DmlGen, LookupGen, Stmt};
use crate::json::Json;
use crate::metrics::{Metrics, Outcome, Tally, END_TO_END, PER_LAYER};
use crate::stats::Samples;
use crate::trace::Tracer;

/// When the measured loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many seconds (how the driver runs it).
    Seconds(f64),
    /// After this many operations (how `--self-check` replays a run).
    Ops(usize),
}

impl Limit {
    /// This limit for a `share` of the run.
    pub fn scaled(self, share: f64) -> Limit {
        match self {
            Limit::Seconds(s) => Limit::Seconds(s * share),
            Limit::Ops(n) => Limit::Ops((n as f64 * share) as usize),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// When a closed loop stops.
    pub limit: Limit,
    /// Length of an open-loop window, whose schedule fixes its operation
    /// count; a replay by operation count keeps the first run's seconds.
    pub seconds: f64,
    /// Record spans and drive the in-process workloads in split mode
    /// (capture / ship / refresh as separate calls).
    pub traced: bool,
    /// Divide every size by this (1, or 20 under `--quick`).
    pub shrink: usize,
    /// Set up this many times and report the median set-up time.
    pub setups: usize,
    /// Where the bench may write: data directories, spill files, traces.
    pub work_dir: PathBuf,
}

impl Params {
    pub fn sized(&self, n: usize) -> usize {
        (n / self.shrink).max(1)
    }
}

/// The mutable state of one run: spans, the operation tally, the digest of
/// everything issued, and (traced only) the SQL text for the parse probe.
#[derive(Debug)]
pub struct Run {
    pub tr: Tracer,
    pub tally: Tally,
    pub digest: Digest,
    pub sql_log: Vec<String>,
    /// Sizes and settings a probe resolved at run time, for the report.
    pub info: Vec<(&'static str, Json)>,
    next_op: u64,
}

impl Run {
    pub fn new(traced: bool) -> Run {
        Run {
            tr: Tracer::new(traced),
            tally: Tally::default(),
            digest: Digest::default(),
            sql_log: Vec::new(),
            info: Vec::new(),
            next_op: 0,
        }
    }

    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Note a SQL string about to be sent to the system under test.
    pub fn issue(&mut self, sql: &str) {
        self.digest.add(sql);
        if self.tr.enabled() {
            self.sql_log.push(sql.to_string());
        }
    }
}

/// A query result, as the checks need it. In-process results stay engine
/// values until a check renders them, so no rendering falls inside a timed
/// section.
pub trait Rows {
    /// Every row rendered as the wire prints it (tab-separated), sorted.
    fn render_sorted(&self) -> Vec<String>;
    /// Row count, and the sum of the last column read as an integer.
    fn summarize(&self) -> (usize, i64);
}

impl Rows for Vec<Vec<Value>> {
    fn render_sorted(&self) -> Vec<String> {
        let render = |row: &Vec<Value>| {
            let fields: Vec<String> = row.iter().map(ToString::to_string).collect();
            fields.join("\t")
        };
        let mut out: Vec<String> = self.iter().map(render).collect();
        out.sort();
        out
    }

    fn summarize(&self) -> (usize, i64) {
        let last = |row: &Vec<Value>| match row.last() {
            Some(Value::Integer(n)) => *n,
            _ => 0,
        };
        (self.len(), self.iter().map(last).sum())
    }
}

/// Rows as the wire delivered them: tab-separated text.
impl Rows for Vec<String> {
    fn render_sorted(&self) -> Vec<String> {
        let mut out = self.clone();
        out.sort();
        out
    }

    fn summarize(&self) -> (usize, i64) {
        let last = |row: &String| row.rsplit('\t').next()?.parse::<i64>().ok();
        (self.len(), self.iter().filter_map(last).sum())
    }
}

/// A system under test the closed loop can drive.
pub trait Target {
    type Rows: Rows;

    /// DML in → view fresh. Untraced, the workload's one eager path;
    /// traced, the same work as separate calls with a span around each.
    fn apply(&mut self, stmts: &[Stmt], tr: &mut Tracer, op: u64) -> Result<(), String>;

    /// SELECT in → rows out.
    fn query(&mut self, sql: &str) -> Result<Self::Rows, String>;

    /// Bytes the executor has spilled so far, where the bench can see them
    /// (an in-process session); 0 for a system behind the wire.
    fn spilled_bytes(&mut self) -> u64;

    /// Called after every operation, outside any timed section.
    fn after_op(&mut self) {}
}

/// A system under test in this process: probes and the end-of-run checks
/// reach its session directly.
pub trait InProcess: Target<Rows = Vec<Vec<Value>>> {
    /// The session that maintains the view (stats getters, probes).
    fn session(&mut self) -> &mut IvmSession;

    /// Probes write to the session directly; a system beside it that must
    /// stay in step (the OLTP store of the pipeline) gets the DML here.
    fn mirror_dml(&mut self, _sql: &str) -> Result<(), String> {
        Ok(())
    }
}

/// Generates the DML statements of the next operation.
pub type NextOp = dyn Fn(&mut DmlGen) -> Vec<Stmt>;

/// One workload's operation shape.
pub struct LoopSpec {
    pub next_op: Box<NextOp>,
    /// Lookup statements after each operation's DML, one after the other.
    pub lookups_per_op: usize,
    /// Keys one lookup statement reads: point reads by key, joined by
    /// `UNION ALL` where there are several.
    pub keys_per_lookup: usize,
    /// Every this many operations, one analytic read.
    pub analytic_every: usize,
    pub analytic_sql: &'static str,
    /// Cheap in-loop check of an analytic result — its row count and the
    /// sum of its last column — against the model; the full comparison
    /// runs once at the end.
    pub analytic_ok: fn((usize, i64), &DmlGen) -> bool,
}

#[derive(Debug, Default)]
pub struct LoopStats {
    pub fresh: Samples,
    pub lookup: Samples,
    pub analytic: Samples,
    /// Analytic reads during which the session's spill counter moved.
    pub reads_spilled: usize,
    /// Delta rows applied and visible in the view.
    pub rows: usize,
    pub stmts: usize,
    pub ops: usize,
}

impl LoopStats {
    /// Seconds spent inside the system under test; generator and checker
    /// time is excluded.
    pub fn busy_s(&self) -> f64 {
        (self.fresh.sum_ms() + self.lookup.sum_ms() + self.analytic.sum_ms()) / 1e3
    }
}

/// Closed loop, one thread: each operation is the workload's DML, then its
/// view lookups, then (every so often) one analytic read; the next operation
/// starts when the previous one has completed.
pub fn closed_loop<T: Target>(
    target: &mut T,
    dml: &mut DmlGen,
    lookups: &mut LookupGen,
    spec: &LoopSpec,
    limit: Limit,
    run: &mut Run,
) -> LoopStats {
    let start = Instant::now();
    let mut stats = LoopStats::default();
    loop {
        let done = match limit {
            Limit::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Limit::Ops(n) => stats.ops >= n,
        };
        if done {
            return stats;
        }
        let op = run.next_op();
        let stmts = (spec.next_op)(dml);
        for s in &stmts {
            run.issue(&s.sql);
        }
        let op_span = run.tr.begin("op", op);

        let timer = Instant::now();
        let span = run.tr.begin("fresh", op);
        let applied = target.apply(&stmts, &mut run.tr, op);
        run.tr.end(span);
        stats.fresh.push(timer.elapsed());
        run.tally
            .check(applied.is_ok(), || format!("op {op} DML: {applied:?}"));
        stats.rows += stmts.iter().map(|s| s.rows).sum::<usize>();
        stats.stmts += stmts.len();

        for _ in 0..spec.lookups_per_op {
            let keys: Vec<u32> = (0..spec.keys_per_lookup).map(|_| lookups.key()).collect();
            let selects: Vec<String> = keys.iter().map(|&k| (dml.dialect.lookup_sql)(k)).collect();
            let sql = selects.join(" UNION ALL ");
            run.issue(&sql);
            let timer = Instant::now();
            let span = run.tr.begin("lookup", op);
            let found = target.query(&sql);
            run.tr.end(span);
            // The time of one key's point read.
            stats.lookup.push(timer.elapsed() / keys.len() as u32);
            let mut expected: Vec<String> = keys
                .iter()
                .filter_map(|&k| dml.expected_view_row(k))
                .collect();
            expected.sort();
            let got = found.map(|rows| rows.render_sorted());
            run.tally.check(got.as_ref() == Ok(&expected), || {
                format!("op {op} lookup {sql:.200}: got {got:?}, model says {expected:?}")
            });
        }

        if (stats.ops + 1) % spec.analytic_every == 0 {
            run.issue(spec.analytic_sql);
            let spilled_before = target.spilled_bytes();
            let timer = Instant::now();
            let span = run.tr.begin("analytic", op);
            let rows = target.query(spec.analytic_sql);
            run.tr.end(span);
            stats.analytic.push(timer.elapsed());
            if target.spilled_bytes() > spilled_before {
                stats.reads_spilled += 1;
            }
            let summary = rows.map(|r| r.summarize());
            let ok = summary.as_ref().is_ok_and(|s| (spec.analytic_ok)(*s, dml));
            run.tally.check(ok, || {
                format!("op {op} analytic read: {summary:?} (rows, sum of last column) is not what the model holds")
            });
        }
        run.tr.end(op_span);
        target.after_op();
        stats.ops += 1;
    }
}

/// Set up once, timed; the measured loop runs on what this builds.
pub fn timed_set_up<R>(build: impl FnOnce() -> Result<R, String>) -> Result<(R, f64), String> {
    let timer = Instant::now();
    let ready = build()?;
    Ok((ready, timer.elapsed().as_secs_f64()))
}

/// The remaining `params.setups - 1` set-ups (each from scratch with the
/// same seed, so each builds the same state), for a median set-up time.
/// They run after the measured state is gone and its peak memory has been
/// read: set-ups repeated before the loop left the heap in a state that
/// moved `peak_rss_mb` by 10 % from run to run.
pub fn repeat_set_up<R>(
    params: &Params,
    first_s: f64,
    mut build: impl FnMut() -> Result<R, String>,
) -> Result<Vec<f64>, String> {
    let mut times = vec![first_s];
    for _ in 1..params.setups {
        let timer = Instant::now();
        let built = build()?;
        times.push(timer.elapsed().as_secs_f64());
        drop(built);
    }
    Ok(times)
}

/// Under a memory budget every analytic read must spill; without one, none
/// may.
pub fn check_spills(stats: &LoopStats, budgeted: bool, run: &mut Run) {
    let expected = if budgeted { stats.analytic.len() } else { 0 };
    run.tally.check(stats.reads_spilled == expected, || {
        format!(
            "{} of {} analytic reads spilled, expected {expected}",
            stats.reads_spilled,
            stats.analytic.len()
        )
    });
}

/// End of every workload: *view == model* and *view == view-defining query
/// over the base tables*, as multisets.
pub fn final_view_checks<T: InProcess>(
    target: &mut T,
    dml: &DmlGen,
    view: &str,
    view_query: &str,
    run: &mut Run,
) {
    let maintained = target
        .session()
        .query_view(view)
        .map(|r| r.rows.render_sorted())
        .map_err(|e| e.to_string());
    let expected = dml.expected_view();
    run.tally.check(maintained.as_ref() == Ok(&expected), || {
        format!(
            "final check: view {view} differs from the model ({:?} rows vs {})",
            maintained.as_ref().map(Vec::len),
            expected.len()
        )
    });
    let recomputed = target.query(view_query).map(|rows| rows.render_sorted());
    run.tally.check(recomputed == maintained, || {
        format!("final check: view {view} differs from its defining query over the base tables")
    });
}

/// What a workload's closed loop and set-ups measured.
pub struct Measured<'a> {
    pub stats: &'a LoopStats,
    /// Seconds of every set-up.
    pub setup_s: &'a [f64],
    /// `VmHWM` of the system under test.
    pub peak_rss_mb: Option<f64>,
}

/// The end of every workload: the end-to-end metrics every closed loop
/// derives the same way, the trace file, and the outcome with its sample
/// counts recorded.
pub fn finish(
    workload: &'static str,
    params: &Params,
    run: Run,
    measured: Measured<'_>,
    mut per_layer: Metrics,
    mut info: Vec<(&'static str, Json)>,
) -> Result<Outcome, String> {
    let Measured {
        stats,
        setup_s,
        peak_rss_mb,
    } = measured;
    let mut end_to_end = Metrics::new(END_TO_END);
    end_to_end.set_opt("setup_s", crate::stats::median(setup_s));
    end_to_end.set(
        "maintain_rows_per_s",
        stats.rows as f64 / stats.busy_s().max(f64::MIN_POSITIVE),
    );
    end_to_end.set_opt("fresh_p50_ms", stats.fresh.p50());
    end_to_end.set_opt("lookup_p50_ms", stats.lookup.p50());
    end_to_end.set_opt("analytic_p50_ms", stats.analytic.p50());
    end_to_end.set_opt("peak_rss_mb", peak_rss_mb);
    // Paper E1: what recomputing costs over what maintaining costs. Base:
    // fresh_p50_ms. Informational — a faster executor lowers it.
    if let (Some(analytic), Some(fresh)) = (stats.analytic.p50(), stats.fresh.p50()) {
        per_layer.set("ivm-core.speedup_vs_recompute", analytic / fresh);
    }
    if params.traced {
        run.tr
            .write_jsonl(&params.work_dir.join(format!("trace-{workload}.jsonl")))
            .map_err(|e| format!("cannot write trace: {e}"))?;
    }

    info.extend(run.info);
    info.push((
        "setup_s_each",
        Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
    ));
    info.push(("fresh_samples", Json::count(stats.fresh.len())));
    info.push(("lookup_samples", Json::count(stats.lookup.len())));
    info.push(("analytic_samples", Json::count(stats.analytic.len())));
    // Tails that did not repeat well enough to be gated metrics (see the
    // README): reported here, with the refusal below 200 samples kept.
    let tail = |s: &Samples| s.p95().map_or(Json::Null, Json::Num);
    info.push(("fresh_p95_ms", tail(&stats.fresh)));
    info.push(("lookup_p95_ms", tail(&stats.lookup)));
    info.push(("analytic_p95_ms", tail(&stats.analytic)));
    info.push(("delta_rows", Json::count(stats.rows)));
    info.push(("dml_statements", Json::count(stats.stmts)));
    info.push(("busy_s", Json::Num(stats.busy_s())));
    Ok(Outcome {
        workload,
        traced: params.traced,
        tally: run.tally,
        ops: stats.ops,
        workload_digest: run.digest.hex(),
        end_to_end,
        per_layer,
        info,
    })
}

/// Layers only the cross-system pipeline calls.
pub const PIPELINE_LAYERS: &[&str] = &[
    "ivm-core.ingest_rows_per_s",
    "ivm-oltp.rows_per_s",
    "ivm-htap.ship_rows_per_s",
    "ivm-htap.rows_shipped",
];

/// Layers only a durable session has (the WAL counts the getters report
/// read 0 on their own without one).
pub const DURABLE_LAYERS: &[&str] = &[
    "ivm-engine.storage.wal_bytes_per_row",
    "ivm-engine.storage.checkpoints",
    "ivm-engine.storage.recover_mb_per_s",
    "ivm-engine.storage.recover_replayed_records",
    "ivm-engine.storage.checkpoint_mb_per_s",
    "ivm-engine.storage.data_dir_bytes_per_row",
];

/// Layers only the workload behind the wire has.
pub const SERVE_LAYERS: &[&str] = &[
    "openivm-serve.round_trips_per_s",
    "openivm-serve.rows_per_s",
    "openivm-serve.writer_busy_frac",
    "openivm-serve.gen_late_frac",
    "openivm-serve.server_cpu_frac",
    "openivm-serve.open_write_p50_ms",
    "openivm-serve.open_lookup_p50_ms",
    "openivm-serve.open_analytic_p50_ms",
];

/// A per-layer metric set with the layers a workload never calls at zero.
pub fn per_layer_with_unused(unused: &[&[&str]]) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    for name in unused.iter().copied().flatten() {
        m.set(name, 0.0);
    }
    m
}
