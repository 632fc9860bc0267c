//! `serve-mixed`: the only workload through the wire. A child
//! `openivm --serve` process holds the `trickle` schema.
//!
//! 1. *closed*, one connection: a write, then one lookup statement that
//!    reads many keys (checked against the model), every so often the
//!    analytic read. The end-to-end metrics come from this loop.
//! 2. *open* (traced run only), two connections, a thread each: a writer
//!    and a reader on a fixed schedule, latency timed from the due time —
//!    the same tables written and read at once. Reported per layer, in
//!    milliseconds.
//!
//! The issue asked for the open loop to supply the gated numbers. On this
//! 2-vCPU VM a 100/s reader is idle 98 % of the time, so its latency is the
//! wake-up of a halted vCPU, and two sets of ten 20 s runs spread by
//! 19–57 % (interquartile range over median). Two closed-loop clients side
//! by side did no better: the reader's median lookup read 23, 30 and 35 µs
//! in three runs, by where the scheduler had put the four threads. The
//! bench README has what else was tried.

use std::time::{Duration, Instant};

use crate::gen::{Digest, DmlGen, Keys, LookupGen, Stmt};
use crate::json::Json;
use crate::metrics::{Metrics, Outcome, Tally};
use crate::stats::{Samples, Schedule};
use crate::trace::Tracer;
use crate::wire::{Client, Server};

use super::embedded::{
    self, groups_create_view, Shape, GROUPS_DDL, GROUPS_DIALECT, GROUPS_VIEW, GROUPS_VIEW_QUERY,
    GROUPS_VIEW_SCAN, TRICKLE,
};
use super::probes::{self, ProbeSpec, Snap};
use super::{
    check_spills, closed_loop, finish, per_layer_with_unused, repeat_set_up, timed_set_up,
    InProcess, Limit, Measured, Params, Rows, Run, Target, DURABLE_LAYERS, PIPELINE_LAYERS,
};

const BASE_ROWS: usize = 50_000;
const GROUPS: usize = 2_500;
/// Closed loop: keys one lookup statement reads. A single-key lookup over
/// the wire takes 20 µs or 60 µs, by spells of minutes, with whether the
/// VM's host lets a waiting vCPU poll or halts it — the two wake-ups of a
/// round trip, not the server's 10 µs of work. Sixty-four point reads in
/// one statement are a millisecond of the server's work around the same two
/// wake-ups.
const KEYS_PER_LOOKUP: usize = 64;
/// Closed loop: one analytic read per this many writes.
const ANALYTIC_EVERY: usize = 10;
/// Open phase, writer rate: the largest of {5, 10, 20, 50}/s at which the
/// seed commit's writer is at most half busy (0.37 at 20/s).
const WRITES_PER_S: f64 = 20.0;
const READS_PER_S: f64 = 100.0;
/// Open phase: share of reads that are the analytic query, in percent.
const ANALYTIC_PCT: usize = 5;
const WARMUP_OPS: usize = 50;

const TOP_GROUPS: &str = "SELECT group_index, SUM(group_value) AS total FROM groups \
     GROUP BY group_index ORDER BY 2 DESC LIMIT 10";

/// The writer's statements are `trickle`'s; the in-process twin of the
/// traced run is this shape on an embedded session.
const WRITES: Shape = Shape {
    name: "serve-mixed",
    base_rows: BASE_ROWS,
    groups: GROUPS,
    keys_per_lookup: KEYS_PER_LOOKUP,
    analytic_every: ANALYTIC_EVERY,
    analytic_sql: TOP_GROUPS,
    analytic_ok: |(rows, _), _| rows == 10,
    warmup_ops: WARMUP_OPS,
    ..TRICKLE
};

/// Operation ids of the trace, one range per client and phase, so spans can
/// be grouped by operation across the threads.
const fn op_range(n: u64) -> u64 {
    n << 32
}
const OPEN_WRITER_OPS: u64 = op_range(1);
const OPEN_READER_OPS: u64 = op_range(2);
const TWIN_OPS: u64 = op_range(3);

/// The server behind one connection, as the closed loop drives it.
struct Wire {
    client: Client,
}

impl Target for Wire {
    type Rows = Vec<String>;

    fn apply(&mut self, stmts: &[Stmt], tr: &mut Tracer, op: u64) -> Result<(), String> {
        for s in stmts {
            tr.span("wire.write", op, || self.client.request(&s.sql))?;
        }
        Ok(())
    }

    fn query(&mut self, sql: &str) -> Result<Vec<String>, String> {
        self.client.request(sql).map(|reply| reply.rows)
    }

    fn spilled_bytes(&mut self) -> u64 {
        0
    }
}

struct Ready {
    server: Server,
    target: Wire,
    dml: DmlGen,
    lookups: LookupGen,
    run: Run,
    create_view_ms: f64,
}

/// Start the server, load the base table and create the view over the
/// wire, then warm up on the closed loop.
fn set_up(params: &Params) -> Result<Ready, String> {
    let server = Server::spawn()?;
    let mut target = Wire {
        client: Client::connect(&server.addr)?,
    };
    let keys = Keys::Uniform(params.sized(GROUPS));
    let mut dml = DmlGen::new(params.seed, keys.clone(), GROUPS_DIALECT);
    let mut lookups = LookupGen::new(params.seed, keys);
    let mut run = Run::new(params.traced);

    let mut send = |run: &mut Run, sql: &str| {
        run.issue(sql);
        target.client.request(sql).map(|_| ())
    };
    send(&mut run, GROUPS_DDL)?;
    let mut left = params.sized(BASE_ROWS);
    while left > 0 {
        let n = left.min(1000);
        send(&mut run, &dml.insert(n).sql)?;
        left -= n;
    }
    let timer = Instant::now();
    send(&mut run, &groups_create_view(GROUPS_VIEW))?;
    let create_view_ms = timer.elapsed().as_secs_f64() * 1e3;

    let warmup = Limit::Ops(params.sized(WARMUP_OPS));
    let spec = embedded::loop_spec(&WRITES);
    closed_loop(&mut target, &mut dml, &mut lookups, &spec, warmup, &mut run);
    Ok(Ready {
        server,
        target,
        dml,
        lookups,
        run,
        create_view_ms,
    })
}

#[derive(Clone, Copy)]
enum Kind {
    Write,
    Lookup,
    Analytic,
}

/// What one generator thread of the open phase brings back.
#[derive(Default)]
struct Side {
    /// Latency from the due time, per statement kind.
    fresh: Samples,
    lookup: Samples,
    analytic: Samples,
    /// Time between send and reply: how long the server was busy for us.
    service_s: f64,
    /// How long after its due time each operation was sent.
    late_ms: Samples,
    rows: usize,
    tally: Tally,
    digest: Digest,
    sql_log: Vec<String>,
}

impl Side {
    /// One request; an `ERR`, a closed connection, a timeout and a reply
    /// `ok` rejects are failed operations.
    fn request(
        &mut self,
        client: &mut Client,
        tr: &mut Tracer,
        (span, op): (&'static str, u64),
        sql: &str,
        ok: impl FnOnce(&[String]) -> bool,
    ) {
        self.digest.add(sql);
        if tr.enabled() {
            self.sql_log.push(sql.to_string());
        }
        let timer = Instant::now();
        let reply = tr.span(span, op, || client.request(sql));
        self.service_s += timer.elapsed().as_secs_f64();
        let good = reply.as_ref().is_ok_and(|r| ok(&r.rows));
        self.tally
            .check(good, || format!("{span} {op} {sql:.80}: {reply:?}"));
    }
}

/// Open loop: operation `i` is due at `i / rate`; the generator waits until
/// then when early and sends at once when late. Stops when the next due
/// time falls outside the window. `op` sends one operation and says what
/// it was; its latency is timed from the due time.
fn open_loop(
    rate: f64,
    window: Duration,
    start: Instant,
    side: &mut Side,
    mut op: impl FnMut(&mut Side, u64) -> Kind,
) {
    let mut schedule = Schedule::per_second(rate);
    let window_ns = window.as_nanos() as u64;
    let mut issued = 0;
    while schedule.next_due_ns() < window_ns {
        let due_ns = schedule.issue();
        let due = Duration::from_nanos(due_ns);
        // Sleep most of the wait and spin the last stretch: a sleep alone
        // overshoots by the timer slack and the wake-up from idle, and that
        // lateness would be charged to the server as latency.
        const SPIN: Duration = Duration::from_micros(200);
        if let Some(wait) = due.checked_sub(start.elapsed() + SPIN) {
            std::thread::sleep(wait);
        }
        while start.elapsed() < due {
            std::hint::spin_loop();
        }
        let sent_ns = start.elapsed().as_nanos() as u64;
        side.late_ms.push_ms(Schedule::latency_ms(due_ns, sent_ns));
        issued += 1;
        let kind = op(side, issued);
        let done_ns = start.elapsed().as_nanos() as u64;
        let latency = Schedule::latency_ms(due_ns, done_ns);
        match kind {
            Kind::Write => side.fresh.push_ms(latency),
            Kind::Lookup => side.lookup.push_ms(latency),
            Kind::Analytic => side.analytic.push_ms(latency),
        }
    }
}

/// The open phase's results.
struct Open {
    writer: Side,
    reader: Side,
    wall_s: f64,
    server_cpu_s: f64,
}

fn open_phase(ready: &mut Ready, window: Duration) -> Result<Open, String> {
    let mut reader_client = Client::connect(&ready.server.addr)?;
    let cpu_before = ready.server.cpu_seconds().unwrap_or(0.0);
    let (mut writer, mut reader) = (Side::default(), Side::default());
    let mut reader_tr = Tracer::new(ready.run.tr.enabled());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let Ready {
            target,
            dml,
            lookups,
            run,
            ..
        } = &mut *ready;
        let writer_tr = &mut run.tr;
        scope.spawn(|| {
            open_loop(WRITES_PER_S, window, start, &mut writer, |side, n| {
                let stmt = dml.mixed(WRITES.mix, WRITES.rows_min, WRITES.rows_max);
                side.rows += stmt.rows;
                let span = ("wire.write", OPEN_WRITER_OPS + n);
                side.request(&mut target.client, writer_tr, span, &stmt.sql, |_| true);
                Kind::Write
            });
        });
        scope.spawn(|| {
            open_loop(READS_PER_S, window, start, &mut reader, |side, n| {
                let op = OPEN_READER_OPS + n;
                let (client, tr) = (&mut reader_client, &mut reader_tr);
                if lookups.chance(ANALYTIC_PCT) {
                    let ten_rows = |rows: &[String]| rows.len() == 10;
                    side.request(client, tr, ("wire.analytic", op), TOP_GROUPS, ten_rows);
                    return Kind::Analytic;
                }
                let key = lookups.key();
                let sql = (GROUPS_DIALECT.lookup_sql)(key);
                // The writer runs beside this thread, so the exact row is
                // not known here; it must be this key's row or none.
                let prefix = format!("{}\t", (GROUPS_DIALECT.view_key)(key));
                side.request(client, tr, ("wire.lookup", op), &sql, |rows| {
                    rows.len() <= 1 && rows.iter().all(|row| row.starts_with(&prefix))
                });
                Kind::Lookup
            });
        });
    });
    let wall_s = start.elapsed().as_secs_f64();
    ready.run.tr.absorb(reader_tr, 0);
    let server_cpu_s = ready.server.cpu_seconds().unwrap_or(0.0) - cpu_before;
    Ok(Open {
        writer,
        reader,
        wall_s,
        server_cpu_s,
    })
}

/// The open phase's per-layer numbers, its raw figures for the report, and
/// its share of the run's tally, digest and SQL log.
fn record_open(
    open: Open,
    layer: &mut Metrics,
    info: &mut Vec<(&'static str, Json)>,
    run: &mut Run,
) {
    let Open {
        writer,
        reader,
        wall_s,
        server_cpu_s,
    } = open;
    layer.set_opt("openivm-serve.open_write_p50_ms", writer.fresh.p50());
    layer.set_opt("openivm-serve.open_lookup_p50_ms", reader.lookup.p50());
    layer.set_opt("openivm-serve.open_analytic_p50_ms", reader.analytic.p50());
    layer.set("openivm-serve.writer_busy_frac", writer.service_s / wall_s);
    let mut late = writer.late_ms.clone();
    late.extend(&reader.late_ms);
    layer.set("openivm-serve.gen_late_frac", late.share_above(1.0));
    layer.set("openivm-serve.server_cpu_frac", server_cpu_s / wall_s);

    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let samples = |s: &Samples| {
        Json::obj(vec![
            ("samples", Json::count(s.len())),
            ("p50_ms", opt(s.p50())),
            ("p95_ms", opt(s.p95())),
            ("max_ms", opt(s.max_ms())),
        ])
    };
    info.extend([
        ("open_writes_per_s", Json::Num(WRITES_PER_S)),
        ("open_reads_per_s", Json::Num(READS_PER_S)),
        ("open_wall_s", Json::Num(wall_s)),
        ("open_delta_rows", Json::count(writer.rows)),
        ("open_server_cpu_s", Json::Num(server_cpu_s)),
        ("open_write", samples(&writer.fresh)),
        ("open_lookup", samples(&reader.lookup)),
        ("open_analytic", samples(&reader.analytic)),
        ("open_gen_late", samples(&late)),
    ]);
    for side in [writer, reader] {
        run.tally.absorb(side.tally);
        run.digest.add(&side.digest.hex());
        run.sql_log.extend(side.sql_log);
    }
}

pub fn run(params: &Params) -> Result<Outcome, String> {
    let (mut ready, first_setup_s) = timed_set_up(|| set_up(params))?;

    // Untraced, the closed loop has the whole window. Traced, the two
    // phases have half of it each; the open phase's schedule fixes its
    // operation count.
    let share = if params.traced { 0.5 } else { 1.0 };
    let spec = embedded::loop_spec(&WRITES);
    let closed = {
        let Ready {
            target,
            dml,
            lookups,
            run,
            ..
        } = &mut ready;
        closed_loop(target, dml, lookups, &spec, params.limit.scaled(share), run)
    };
    check_spills(&closed, false, &mut ready.run);
    let open = match params.traced {
        true => Some(open_phase(
            &mut ready,
            Duration::from_secs_f64(params.seconds * share),
        )?),
        false => None,
    };

    let Ready {
        server,
        mut target,
        dml,
        mut run,
        create_view_ms,
        ..
    } = ready;
    let mut layer = per_layer_with_unused(&[PIPELINE_LAYERS, DURABLE_LAYERS]);
    layer.set("ivm-core.create_view_ms", create_view_ms);
    let mut info = vec![
        ("base_rows", Json::count(params.sized(BASE_ROWS))),
        ("groups", Json::count(params.sized(GROUPS))),
        ("keys_per_lookup", Json::count(KEYS_PER_LOOKUP)),
    ];
    if let Some(open) = open {
        record_open(open, &mut layer, &mut info, &mut run);
    }

    if params.traced {
        let probed = wire_probes(&mut target.client, &mut layer, &mut run.tally);
        run.tally
            .check(probed.is_ok(), || format!("wire probes: {probed:?}"));
    }

    // End of the workload, over the wire: view == model, and view == its
    // defining query over the base table.
    let view = target.query(GROUPS_VIEW_SCAN).map(|r| r.render_sorted());
    let expected = dml.expected_view();
    run.tally.check(view.as_ref() == Ok(&expected), || {
        format!(
            "final check: view differs from the model ({:?} rows vs {})",
            view.as_ref().map(Vec::len),
            expected.len()
        )
    });
    let recomputed = target.query(GROUPS_VIEW_QUERY).map(|r| r.render_sorted());
    run.tally.check(recomputed == view, || {
        "final check: view differs from its defining query over the base table".to_string()
    });

    // Read the child's memory before it is killed.
    let peak_rss_mb = server.peak_rss_mb();
    drop(target);
    drop(server);
    let setup_s = repeat_set_up(params, first_setup_s, || set_up(params))?;

    if params.traced {
        twin_probes(params, &mut run, &mut layer)?;
        // The twin's short loop has too few analytic reads; the closed
        // loop's are the workload's.
        layer.set(
            "ivm-engine.exec.analytic_rows_per_s",
            probes::ratio(
                dml.model.live_rows() as f64,
                closed.analytic.p50().unwrap_or(0.0) / 1e3,
            ),
        );
    }
    let measured = Measured {
        stats: &closed,
        setup_s: &setup_s,
        peak_rss_mb,
    };
    finish("serve-mixed", params, run, measured, layer, info)
}

/// Probes on the idle server: round trips of `SELECT 1`, and `ROW` frames
/// per second on a scan of the whole view.
fn wire_probes(client: &mut Client, layer: &mut Metrics, tally: &mut Tally) -> Result<(), String> {
    let mut trips = Vec::new();
    for _ in 0..200 {
        let timer = Instant::now();
        let reply = client.request("SELECT 1");
        trips.push(timer.elapsed().as_secs_f64());
        tally.check(reply.as_ref().is_ok_and(|r| r.rows == ["1"]), || {
            format!("probe SELECT 1: {reply:?}")
        });
    }
    let trip_s = crate::stats::median(&trips).ok_or("no round trips")?;
    layer.set("openivm-serve.round_trips_per_s", 1.0 / trip_s);

    let mut rates = Vec::new();
    for _ in 0..5 {
        let timer = Instant::now();
        let rows = client.request(GROUPS_VIEW_SCAN)?.rows.len();
        rates.push(rows as f64 / timer.elapsed().as_secs_f64());
    }
    layer.set_opt("openivm-serve.rows_per_s", crate::stats::median(&rates));
    Ok(())
}

/// The layers under the server, measured on an in-process twin: the same
/// schema, sizes and seed on an embedded session, a short traced loop for
/// the capture and refresh spans, then the common probes.
fn twin_probes(params: &Params, run: &mut Run, layer: &mut Metrics) -> Result<(), String> {
    let embedded::Ready {
        mut target,
        mut dml,
        mut lookups,
        run: mut twin,
        ..
    } = embedded::set_up(&WRITES, params, true)?;
    // The parse probe reads what went over the wire, not the twin's load.
    twin.sql_log = std::mem::take(&mut run.sql_log);
    let spec = embedded::loop_spec(&WRITES);
    let before = Snap::take(target.session());
    let stats = closed_loop(
        &mut target,
        &mut dml,
        &mut lookups,
        &spec,
        Limit::Ops(50),
        &mut twin,
    );
    let after = Snap::take(target.session());
    probes::loop_counts(layer, &before, &after, &stats, dml.model.live_rows());
    probes::loop_spans(layer, &twin.tr);
    let probe = ProbeSpec {
        create_view_sql: groups_create_view("bench_probe_view"),
        view: GROUPS_VIEW,
        analytic_sql: TOP_GROUPS,
        next_op: &*spec.next_op,
        spill_budget: None,
    };
    probes::run_all(
        &mut target,
        &mut dml,
        &mut lookups,
        &probe,
        &mut twin,
        layer,
    );
    run.tally.absorb(twin.tally);
    run.info.extend(twin.info);
    run.tr.absorb(twin.tr, TWIN_OPS);
    Ok(())
}
