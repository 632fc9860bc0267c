//! `trickle` and `durable-spill`: one in-process `IvmSession` over the
//! Listing-1 schema with a key. The same code drives both; [`Shape`] holds
//! what differs (sizes, statement width, mix, durability and budget).

use std::path::Path;
use std::time::Instant;

use ivm_core::{IvmFlags, IvmSession, PropagationMode};
use ivm_engine::Value;

use crate::gen::{Dialect, DmlGen, Keys, LookupGen, Mix, Stmt};
use crate::json::Json;
use crate::metrics::{Metrics, Outcome};
use crate::sys::{self, ScratchDir};
use crate::trace::Tracer;

use super::probes::{self, ProbeSpec, Snap};
use super::{
    closed_loop, final_view_checks, finish, per_layer_with_unused, repeat_set_up, timed_set_up,
    InProcess, Limit, LoopSpec, Measured, Params, Rows, Run, Target, DURABLE_LAYERS,
    PIPELINE_LAYERS, SERVE_LAYERS,
};

pub const GROUPS_DDL: &str =
    "CREATE TABLE groups (id INTEGER PRIMARY KEY, group_index VARCHAR, group_value INTEGER)";
pub const GROUPS_VIEW: &str = "v";
pub const GROUPS_VIEW_QUERY: &str = "SELECT group_index, SUM(group_value) AS total, \
     COUNT(*) AS cnt FROM groups GROUP BY group_index";
pub const GROUPS_VIEW_SCAN: &str = "SELECT group_index, total, cnt FROM v";

pub fn groups_create_view(name: &str) -> String {
    format!("CREATE MATERIALIZED VIEW {name} AS {GROUPS_VIEW_QUERY}")
}

fn group_name(key: u32) -> String {
    format!("g{key:06}")
}

pub const GROUPS_DIALECT: Dialect = Dialect {
    table: "groups",
    value_col: "group_value",
    row_sql: |id, key, value| format!("({id}, '{}', {value})", group_name(key)),
    lookup_sql: |key| {
        format!(
            "SELECT group_index, total, cnt FROM v WHERE group_index = '{}'",
            group_name(key)
        )
    },
    view_key: group_name,
};

/// Durability and budget of `durable-spill`.
#[derive(Debug, Clone, Copy)]
pub struct Durable {
    /// Executor memory budget: about a quarter of the analytic read's
    /// working set at full size (the traced run reports it as
    /// `probe_working_set_bytes`: 12.6 MB of budget-accounted state on the
    /// seed commit), so every analytic read spills.
    pub budget_bytes: usize,
    /// The engine's auto-checkpoint is off by default; the bench turns it
    /// on at this WAL size so several checkpoints fall inside one run.
    pub auto_checkpoint_bytes: u64,
}

/// What differs between the workloads that run on one embedded session.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub base_rows: usize,
    pub groups: usize,
    /// Rows one DML statement touches.
    pub rows_min: usize,
    pub rows_max: usize,
    pub mix: Mix,
    /// Keys one lookup statement reads.
    pub keys_per_lookup: usize,
    pub analytic_every: usize,
    pub analytic_sql: &'static str,
    /// The analytic result the model expects, sorted.
    pub analytic_expected: fn(&DmlGen) -> Vec<String>,
    /// Cheap per-read check; the full comparison runs once at the end.
    pub analytic_ok: fn((usize, i64), &DmlGen) -> bool,
    /// Operations discarded before timing starts (their time is set-up).
    pub warmup_ops: usize,
    pub durable: Option<Durable>,
}

const HIGH_CARDINALITY_READ: &str = "SELECT group_value, group_index, COUNT(*) AS n \
     FROM groups GROUP BY group_value, group_index";

pub const TRICKLE: Shape = Shape {
    name: "trickle",
    base_rows: 200_000,
    groups: 10_000,
    rows_min: 1,
    rows_max: 8,
    mix: Mix {
        insert_pct: 80,
        delete_pct: 10,
    },
    keys_per_lookup: 1,
    // The view-defining query over the base table: what a user without
    // IVM pays per refresh. Rare, so per-statement cost stays dominant.
    analytic_every: 25,
    analytic_sql: GROUPS_VIEW_QUERY,
    analytic_expected: |dml| dml.expected_view(),
    analytic_ok: |(rows, _), dml| rows == dml.model.groups().count(),
    warmup_ops: 50,
    durable: None,
};

pub const DURABLE_SPILL: Shape = Shape {
    name: "durable-spill",
    base_rows: 100_000,
    groups: 5_000,
    rows_min: 100,
    rows_max: 100,
    // As many rows leave as arrive: the table — and with it the analytic
    // read's working set, which the budget is a quarter of — keeps its size
    // (the issue's 70/20/10 grew it by two thirds in one run).
    mix: Mix {
        insert_pct: 45,
        delete_pct: 45,
    },
    keys_per_lookup: 1,
    analytic_every: 25,
    analytic_sql: HIGH_CARDINALITY_READ,
    analytic_expected: |dml| {
        let mut counts = std::collections::HashMap::new();
        for (key, value) in dml.model.live_pairs() {
            *counts.entry((value, key)).or_insert(0usize) += 1;
        }
        let mut rows: Vec<String> = counts
            .into_iter()
            .map(|((value, key), n)| format!("{value}\t{}\t{n}", group_name(key)))
            .collect();
        rows.sort();
        rows
    },
    // Every live row is counted in exactly one group.
    analytic_ok: |(_, counted), dml| counted as usize == dml.model.live_rows(),
    warmup_ops: 10,
    durable: Some(Durable {
        budget_bytes: 3_000_000,
        auto_checkpoint_bytes: 2 << 20,
    }),
};

/// Follows the WAL's byte counter across the resets a checkpoint causes.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalWatch {
    last_bytes: u64,
    pub total_bytes: u64,
    pub checkpoints: usize,
}

impl WalWatch {
    fn observe(&mut self, bytes_written: u64) {
        if bytes_written >= self.last_bytes {
            self.total_bytes += bytes_written - self.last_bytes;
        } else {
            // The counter restarts when a checkpoint resets the log.
            self.checkpoints += 1;
            self.total_bytes += bytes_written;
        }
        self.last_bytes = bytes_written;
    }
}

/// One embedded session as the system under test.
#[derive(Debug)]
pub struct Embedded {
    session: IvmSession,
    /// Lazy propagation (traced runs): `apply` refreshes explicitly so the
    /// capture and the refresh each get a span.
    lazy: bool,
    pub wal: WalWatch,
}

impl Embedded {
    pub fn new(session: IvmSession) -> Embedded {
        let lazy = session.flags().propagation == PropagationMode::Lazy;
        let mut wal = WalWatch::default();
        if let Some(s) = session.database().wal_stats() {
            wal.last_bytes = s.bytes_written;
        }
        Embedded { session, lazy, wal }
    }
}

impl Target for Embedded {
    type Rows = Vec<Vec<Value>>;

    fn apply(&mut self, stmts: &[Stmt], tr: &mut Tracer, op: u64) -> Result<(), String> {
        for s in stmts {
            if self.lazy {
                tr.span("ivm-core.capture", op, || self.session.execute(&s.sql))
                    .map_err(|e| e.to_string())?;
                tr.span("ivm-core.refresh", op, || self.session.refresh_all())
                    .map_err(|e| e.to_string())?;
            } else {
                self.session.execute(&s.sql).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn query(&mut self, sql: &str) -> Result<Vec<Vec<Value>>, String> {
        self.session
            .execute(sql)
            .map(|r| r.rows)
            .map_err(|e| e.to_string())
    }

    fn spilled_bytes(&mut self) -> u64 {
        self.session.spill_stats().spilled_bytes
    }

    fn after_op(&mut self) {
        if let Some(s) = self.session.database().wal_stats() {
            self.wal.observe(s.bytes_written);
        }
    }
}

impl InProcess for Embedded {
    fn session(&mut self) -> &mut IvmSession {
        &mut self.session
    }
}

fn flags(lazy: bool) -> IvmFlags {
    let mut flags = IvmFlags::paper_defaults();
    flags.propagation = if lazy {
        PropagationMode::Lazy
    } else {
        PropagationMode::Eager
    };
    flags
}

impl Shape {
    /// Budget and checkpoint threshold shrink with the data (`--quick`), so
    /// the read still spills and checkpoints still fall inside the run.
    fn durable_at(&self, params: &Params) -> Option<Durable> {
        self.durable.map(|d| Durable {
            budget_bytes: params.sized(d.budget_bytes),
            auto_checkpoint_bytes: params.sized(d.auto_checkpoint_bytes as usize) as u64,
        })
    }
}

fn open_session(
    durable: Option<Durable>,
    lazy: bool,
    dir: Option<&Path>,
) -> Result<IvmSession, String> {
    let mut session = match dir {
        Some(dir) => IvmSession::open(dir, flags(lazy)).map_err(|e| e.to_string())?,
        None => IvmSession::new(flags(lazy)),
    };
    if let Some(d) = durable {
        session.set_memory_budget(Some(d.budget_bytes));
        session
            .database_mut()
            .set_auto_checkpoint(Some(d.auto_checkpoint_bytes));
    }
    Ok(session)
}

/// A loaded, warmed-up system with its generators.
pub struct Ready {
    pub target: Embedded,
    pub dml: DmlGen,
    pub lookups: LookupGen,
    pub run: Run,
    pub create_view_ms: f64,
    /// Data directory of a durable session; dropped (and removed) last.
    pub dir: Option<ScratchDir>,
}

pub fn loop_spec(shape: &'static Shape) -> LoopSpec {
    LoopSpec {
        next_op: Box::new(|dml| vec![dml.mixed(shape.mix, shape.rows_min, shape.rows_max)]),
        lookups_per_op: 1,
        keys_per_lookup: shape.keys_per_lookup,
        analytic_every: shape.analytic_every,
        analytic_sql: shape.analytic_sql,
        analytic_ok: shape.analytic_ok,
    }
}

/// Schema, base load, `CREATE MATERIALIZED VIEW`, warm-up.
pub fn set_up(shape: &'static Shape, params: &Params, lazy: bool) -> Result<Ready, String> {
    let dir = match shape.durable {
        Some(_) => Some(ScratchDir::create(&params.work_dir, "data")?),
        None => None,
    };
    let session = open_session(
        shape.durable_at(params),
        lazy,
        dir.as_ref().map(|d| d.0.as_path()),
    )?;
    let mut target = Embedded::new(session);
    let keys = Keys::Uniform(params.sized(shape.groups));
    let mut dml = DmlGen::new(params.seed, keys.clone(), GROUPS_DIALECT);
    let mut lookups = LookupGen::new(params.seed, keys);
    let mut run = Run::new(params.traced);

    let exec = |t: &mut Embedded, sql: &str| t.session.execute(sql).map_err(|e| e.to_string());
    exec(&mut target, GROUPS_DDL)?;
    let mut left = params.sized(shape.base_rows);
    while left > 0 {
        let n = left.min(1000);
        let stmt = dml.insert(n);
        run.issue(&stmt.sql);
        exec(&mut target, &stmt.sql)?;
        left -= n;
    }
    let create = groups_create_view(GROUPS_VIEW);
    run.issue(&create);
    let timer = Instant::now();
    exec(&mut target, &create)?;
    let create_view_ms = timer.elapsed().as_secs_f64() * 1e3;

    // Warm-up runs the same loop; its samples are dropped, its checks kept.
    let warmup = Limit::Ops(params.sized(shape.warmup_ops));
    closed_loop(
        &mut target,
        &mut dml,
        &mut lookups,
        &loop_spec(shape),
        warmup,
        &mut run,
    );
    Ok(Ready {
        target,
        dml,
        lookups,
        run,
        create_view_ms,
        dir,
    })
}

pub fn run(shape: &'static Shape, params: &Params) -> Result<Outcome, String> {
    let (ready, first_setup_s) = timed_set_up(|| set_up(shape, params, params.traced))?;
    let Ready {
        mut target,
        mut dml,
        mut lookups,
        mut run,
        create_view_ms,
        dir,
    } = ready;

    let durable = shape.durable_at(params);
    let spec = loop_spec(shape);
    let before = Snap::take(target.session());
    let wal_before = target.wal;
    let stats = closed_loop(
        &mut target,
        &mut dml,
        &mut lookups,
        &spec,
        params.limit,
        &mut run,
    );
    let after = Snap::take(target.session());
    super::check_spills(&stats, durable.is_some(), &mut run);

    let mut unused = vec![PIPELINE_LAYERS, SERVE_LAYERS];
    if durable.is_none() {
        unused.push(DURABLE_LAYERS);
    }
    let mut layer = per_layer_with_unused(&unused);
    layer.set("ivm-core.create_view_ms", create_view_ms);
    probes::loop_counts(&mut layer, &before, &after, &stats, dml.model.live_rows());
    if durable.is_some() {
        wal_metrics(&mut layer, &wal_before, &target.wal, stats.rows);
    }
    if params.traced {
        probes::loop_spans(&mut layer, &run.tr);
        let probe = ProbeSpec {
            create_view_sql: groups_create_view("bench_probe_view"),
            view: GROUPS_VIEW,
            analytic_sql: shape.analytic_sql,
            next_op: &*spec.next_op,
            spill_budget: durable.map(|d| d.budget_bytes),
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

    final_view_checks(&mut target, &dml, GROUPS_VIEW, GROUPS_VIEW_QUERY, &mut run);
    let read = target.query(shape.analytic_sql).map(|r| r.render_sorted());
    run.tally
        .check(read == Ok((shape.analytic_expected)(&dml)), || {
            "final check: analytic read differs from the model".to_string()
        });

    match &dir {
        Some(dir) => {
            recover_and_checkpoint(
                shape, durable, target, &mut dml, &dir.0, &mut run, &mut layer,
            )?;
        }
        None => drop(target),
    }
    let peak_rss_mb = sys::peak_rss_mb(None);
    drop(dir);
    let setup_s = repeat_set_up(params, first_setup_s, || {
        set_up(shape, params, params.traced)
    })?;

    let info = vec![
        ("base_rows", Json::count(params.sized(shape.base_rows))),
        ("groups", Json::count(params.sized(shape.groups))),
        (
            "rows_per_statement",
            Json::str(format!("{}..={}", shape.rows_min, shape.rows_max)),
        ),
        (
            "budget_bytes",
            durable.map_or(Json::Null, |d| Json::count(d.budget_bytes)),
        ),
        (
            "auto_checkpoint_bytes",
            durable.map_or(Json::Null, |d| Json::Int(d.auto_checkpoint_bytes as i64)),
        ),
    ];
    let measured = Measured {
        stats: &stats,
        setup_s: &setup_s,
        peak_rss_mb,
    };
    finish(shape.name, params, run, measured, layer, info)
}

fn wal_metrics(layer: &mut Metrics, before: &WalWatch, after: &WalWatch, rows: usize) {
    let bytes = after.total_bytes - before.total_bytes;
    layer.set(
        "ivm-engine.storage.wal_bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
    );
    layer.set(
        "ivm-engine.storage.checkpoints",
        (after.checkpoints - before.checkpoints) as f64,
    );
}

/// The durable tail: drop the session without `close()`, reopen (recovery
/// is checkpoint load plus WAL tail replay), verify every acknowledged
/// write is there, then time one explicit checkpoint.
fn recover_and_checkpoint(
    shape: &Shape,
    durable: Option<Durable>,
    target: Embedded,
    dml: &mut DmlGen,
    dir: &Path,
    run: &mut Run,
    layer: &mut Metrics,
) -> Result<(), String> {
    let lazy = target.lazy;
    drop(target);
    let on_disk = sys::dir_bytes(dir);
    let timer = Instant::now();
    let span = run.tr.begin("ivm-engine.storage.recover", 0);
    let session = open_session(durable, lazy, Some(dir));
    run.tr.end(span);
    let recover_s = timer.elapsed().as_secs_f64();
    run.tally.check(session.is_ok(), || {
        format!(
            "reopen after drop without close(): {:?}",
            session.as_ref().err()
        )
    });
    let mut target = Embedded::new(session?);
    let replayed = target
        .session
        .database()
        .recovery_stats()
        .map_or(0, |r| r.replayed_records);
    final_view_checks(&mut target, dml, GROUPS_VIEW, GROUPS_VIEW_QUERY, run);
    let live = target.query("SELECT COUNT(*) FROM groups");
    run.tally.check(
        live == Ok(vec![vec![Value::Integer(dml.model.live_rows() as i64)]]),
        || format!("after recovery the base table holds {live:?} rows"),
    );

    // Recovery ends with a checkpoint of its own, so nothing is dirty now;
    // one more statement leaves the timed checkpoint a batch's worth of work.
    let stmt = dml.mixed(shape.mix, shape.rows_min, shape.rows_max);
    run.issue(&stmt.sql);
    let applied = target.apply(&[stmt], &mut run.tr, 0);
    run.tally.check(applied.is_ok(), || {
        format!("DML after recovery: {applied:?}")
    });

    let pool_before = target.session.database().buffer_pool_stats();
    let timer = Instant::now();
    let span = run.tr.begin("ivm-engine.storage.checkpoint", 0);
    let done = target.session.checkpoint();
    run.tr.end(span);
    let checkpoint_s = timer.elapsed().as_secs_f64();
    run.tally
        .check(done.is_ok(), || format!("explicit checkpoint: {done:?}"));
    let pages = match (pool_before, target.session.database().buffer_pool_stats()) {
        (Some(b), Some(a)) => a.pages_written - b.pages_written,
        _ => 0,
    };
    let mb = |bytes: u64| bytes as f64 / (1 << 20) as f64;
    layer.set(
        "ivm-engine.storage.recover_mb_per_s",
        mb(on_disk) / recover_s,
    );
    layer.set(
        "ivm-engine.storage.recover_replayed_records",
        replayed as f64,
    );
    layer.set(
        "ivm-engine.storage.checkpoint_mb_per_s",
        mb(pages * ivm_engine::storage::page::PAGE_SIZE as u64) / checkpoint_s,
    );
    layer.set(
        "ivm-engine.storage.data_dir_bytes_per_row",
        sys::dir_bytes(dir) as f64 / dml.model.live_rows().max(1) as f64,
    );
    Ok(())
}
