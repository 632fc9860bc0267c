//! The metric name lists (mirrored in `BENCHMARK.json`; a test holds the
//! two together), and the result one run produces.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which an end-to-end metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [&str; 4] = ["trickle", "htap-batch", "durable-spill", "serve-mixed"];

/// What a user of the system sees. Measured with tracing off.
///
/// The benchmark driver refuses a bound that ten runs of one commit spread
/// beyond (interquartile range over median), asks for spreads under a third
/// of it, and allows 25 % at most. Each bound is at least three times the
/// widest spread its metric showed on any workload in a calm set of ten on
/// the 2-vCPU VM the seed commit was measured on, and one and a half times
/// the widest in a set that ran into one of the VM's slow spells, rounded up
/// to 15, 20 or 25 % (the README has the spreads). The issue's 10 % is
/// three calm spreads of no metric.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("maintain_rows_per_s", "rows/s", Better::Higher, 0.20),
    e2e("fresh_p50_ms", "ms", Better::Lower, 0.20),
    e2e("lookup_p50_ms", "ms", Better::Lower, 0.15),
    e2e("analytic_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
];

/// One layer each, `<layer>.<metric>`. Measured in the traced run.
///
/// A time (`ms`, `us`) is listed only for a layer every workload's traced
/// run exercises; a layer only some workloads use reports a rate, ratio or
/// count, which reads 0 where the layer is unused.
pub const PER_LAYER: &[MetricDef] = &[
    layer("ivm-sql.parse_us_per_stmt", "us", Lower),
    layer("ivm-sql.parse_mb_per_s", "MB/s", Higher),
    layer("ivm-core.compile_ms", "ms", Lower),
    layer("ivm-core.create_view_ms", "ms", Lower),
    layer("ivm-core.capture_ms", "ms", Lower),
    layer("ivm-core.refresh_ms", "ms", Lower),
    layer("ivm-core.step1_ms", "ms", Lower),
    layer("ivm-core.step2_ms", "ms", Lower),
    layer("ivm-core.step3_ms", "ms", Lower),
    layer("ivm-core.step4_ms", "ms", Lower),
    layer("ivm-core.stmts_per_refresh", "count", Lower),
    layer("ivm-core.refreshes", "count", Lower),
    layer("ivm-core.ingest_rows_per_s", "rows/s", Higher),
    layer("ivm-core.speedup_vs_recompute", "ratio", Higher),
    layer("ivm-oltp.rows_per_s", "rows/s", Higher),
    layer("ivm-htap.ship_rows_per_s", "rows/s", Higher),
    layer("ivm-htap.rows_shipped", "count", Higher),
    layer("ivm-engine.planner.plan_us_per_stmt", "us", Lower),
    layer(
        "ivm-engine.session.plan_cache_hits_per_refresh",
        "count",
        Higher,
    ),
    layer("ivm-engine.exec.analytic_rows_per_s", "rows/s", Higher),
    layer("ivm-engine.exec.parallel_speedup", "ratio", Higher),
    layer(
        "ivm-engine.exec.spill_bytes_written_per_query",
        "bytes",
        Lower,
    ),
    layer("ivm-engine.exec.spill_bytes_read_per_query", "bytes", Lower),
    layer("ivm-engine.exec.spill_partitions_per_query", "count", Lower),
    layer("ivm-engine.exec.spill_slowdown", "ratio", Lower),
    layer("ivm-engine.storage.wal_bytes_per_row", "bytes", Lower),
    layer("ivm-engine.storage.wal_records_per_row", "count", Lower),
    layer("ivm-engine.storage.wal_syncs_per_batch", "count", Lower),
    layer("ivm-engine.storage.wal_rotations", "count", Lower),
    layer("ivm-engine.storage.checkpoints", "count", Lower),
    layer("ivm-engine.storage.stall_max_ms", "ms", Lower),
    layer("ivm-engine.storage.pool_pages_written", "count", Lower),
    layer("ivm-engine.storage.pool_hit_frac", "ratio", Higher),
    layer("ivm-engine.storage.recover_mb_per_s", "MB/s", Higher),
    layer(
        "ivm-engine.storage.recover_replayed_records",
        "count",
        Lower,
    ),
    layer("ivm-engine.storage.checkpoint_mb_per_s", "MB/s", Higher),
    layer("ivm-engine.storage.data_dir_bytes_per_row", "bytes", Lower),
    layer("ivm-engine.concurrent.publish_us", "us", Lower),
    layer("ivm-engine.concurrent.cow_write_penalty", "ratio", Lower),
    layer("ivm-engine.concurrent.reader_lookup_us", "us", Lower),
    layer(
        "ivm-engine.concurrent.shared_plan_hit_frac",
        "ratio",
        Higher,
    ),
    layer("openivm-serve.round_trips_per_s", "1/s", Higher),
    layer("openivm-serve.rows_per_s", "rows/s", Higher),
    layer("openivm-serve.writer_busy_frac", "ratio", Lower),
    layer("openivm-serve.gen_late_frac", "ratio", Lower),
    layer("openivm-serve.server_cpu_frac", "ratio", Lower),
    layer("openivm-serve.open_write_p50_ms", "ms", Lower),
    layer("openivm-serve.open_lookup_p50_ms", "ms", Lower),
    layer("openivm-serve.open_analytic_p50_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.fresh_coverage_frac", "ratio", Higher),
];

/// Layer counts that must repeat exactly when one client issues the same
/// operations twice; `--self-check` compares them.
pub const EXACT_COUNTS: &[&str] = &[
    "ivm-core.stmts_per_refresh",
    "ivm-core.refreshes",
    "ivm-htap.rows_shipped",
    "ivm-engine.storage.wal_bytes_per_row",
    "ivm-engine.storage.wal_records_per_row",
    "ivm-engine.storage.wal_syncs_per_batch",
    "ivm-engine.storage.wal_rotations",
    "ivm-engine.storage.recover_replayed_records",
];

/// Values for one of the two metric lists; unset entries render as `null`.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Record a value. An unknown name is a bug in the bench.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.values[i] = Some(value);
    }

    pub fn set_opt(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.values[i]
    }

    /// Names that have no finite value.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|(d, _)| d.name)
            .collect()
    }

    /// Every declared metric: `{"name": {"value": …, "unit": …}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.defs
                .iter()
                .zip(&self.values)
                .map(|(d, v)| {
                    let value = v.map_or(Json::Null, Json::Num);
                    (
                        d.name.to_string(),
                        Json::obj(vec![("value", value), ("unit", Json::str(d.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// Attempted and failed operations: DML, SELECTs and final checks. A wrong
/// answer, an error, a refusal or a timeout is a failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Add another tally's counts (a second thread, a discarded set-up).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    /// Operations in the measured loop, and the hash of every SQL string
    /// issued: equal seed and `ops` must give an equal digest.
    pub ops: usize,
    pub workload_digest: String,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Sizes, rates, budgets and sample counts actually used.
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one-line result the driver reads.
    pub fn contract_json(&self) -> Json {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::count(self.tally.attempted)),
            ("failed", Json::count(self.tally.failed)),
            ("metrics", metrics.to_json()),
        ])
    }

    /// Everything known about the run.
    pub fn report_json(&self) -> Json {
        let mut fields = vec![
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::count(self.tally.attempted)),
            ("failed", Json::count(self.tally.failed)),
            (
                "failed_frac",
                Json::Num(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            ),
            (
                "failures",
                Json::Arr(self.tally.messages.iter().map(Json::str).collect()),
            ),
            ("ops", Json::count(self.ops)),
            ("workload_digest", Json::str(&self.workload_digest)),
            ("end_to_end", self.end_to_end.to_json()),
            ("per_layer", self.per_layer.to_json()),
        ];
        fields.push((
            "info",
            Json::Obj(
                self.info
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ));
        Json::obj(fields)
    }
}
