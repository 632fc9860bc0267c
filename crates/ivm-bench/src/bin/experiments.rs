//! The experiment harness: regenerates every evaluation claim of the paper
//! as a printed table (recorded in EXPERIMENTS.md).
//!
//! Run with `cargo run --release -p ivm-bench --bin experiments`.
//! Pass `--quick` for smaller sizes (used in CI), or `--e1-json <path>`
//! to run only the E1 scenario (up to 1M base rows) and write the
//! measurements as JSON — the perf-baseline artifact committed as
//! `BENCH_e1.json`.

use ivm_bench::harness::{fmt_duration, Report};
use ivm_bench::scenarios::{
    e1_ivm_vs_recompute, e2_art_overhead, e3_cross_system, e4_upsert_strategies, e5_batching,
    e6_compile_time, edurable_durability, ehash_hash_operators, eparallel_scaling,
    espill_out_of_core, E1Row, EDurableRow, EHashRow, EParallelRow, ESpillRow,
};

/// The session default worker-pool size: `$OPENIVM_PARALLELISM` when
/// set, else `available_parallelism()` — recorded in bench JSON so the
/// numbers carry the pool they ran with.
fn resolved_parallelism() -> usize {
    ivm_engine::Database::new().parallelism()
}

/// Serialize E1 rows as JSON by hand (the workspace has no serde).
fn e1_json(rows: &[E1Row]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"base_rows\": {}, \"delta_rows\": {}, \"incremental_ns\": {}, \
                 \"recompute_ns\": {}, \"speedup\": {:.2}}}",
                r.base_rows,
                r.delta_rows,
                r.incremental.as_nanos(),
                r.recompute.as_nanos(),
                r.speedup()
            )
        })
        .collect();
    format!(
        "{{\n\"experiment\": \"e1_ivm_vs_recompute\",\n\"rows\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    )
}

/// Serialize E-parallel rows as JSON by hand (no serde in the workspace).
/// Records the machine's available parallelism alongside the
/// measurements: scaling numbers are meaningless without it.
fn eparallel_json(rows: &[EParallelRow]) -> String {
    let base = rows.first().map(|r| r.recompute.as_nanos()).unwrap_or(0);
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"workers\": {}, \"base_rows\": {}, \"delta_rows\": {}, \
                 \"recompute_ns\": {}, \"propagate_ns\": {}, \"recompute_speedup_vs_1\": {:.2}}}",
                r.workers,
                r.base_rows,
                r.delta_rows,
                r.recompute.as_nanos(),
                r.propagate.as_nanos(),
                base as f64 / r.recompute.as_nanos().max(1) as f64
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\n\"experiment\": \"eparallel_scaling\",\n\"machine_cores\": {cores},\n\
         \"resolved_parallelism\": {},\n\"rows\": [\n{}\n]\n}}\n",
        resolved_parallelism(),
        entries.join(",\n")
    )
}

/// Serialize E-hash rows as JSON by hand (no serde in the workspace).
fn ehash_json(rows: &[EHashRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"variant\": \"{}\", \"fact_rows\": {}, \"out_rows\": {}, \
                 \"join_group_ns\": {}, \"distinct_ns\": {}}}",
                r.variant,
                r.fact_rows,
                r.out_rows,
                r.join_group.as_nanos(),
                r.distinct.as_nanos()
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\n\"experiment\": \"ehash_hash_operators\",\n\"machine_cores\": {cores},\n\
         \"resolved_parallelism\": {},\n\"rows\": [\n{}\n]\n}}\n",
        resolved_parallelism(),
        entries.join(",\n")
    )
}

/// Serialize E-spill rows as JSON by hand (no serde in the workspace).
/// Budget, workers, working set, latency, and the spill counters per
/// run.
fn espill_json(rows: &[ESpillRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"budget\": \"{}\", \"budget_bytes\": {}, \"workers\": {}, \
                 \"fact_rows\": {}, \
                 \"working_set_bytes\": {}, \"out_rows\": {}, \"join_group_ns\": {}, \
                 \"spilled_partitions\": {}, \"spilled_rows\": {}, \"spilled_bytes\": {}, \
                 \"spill_files\": {}, \"rehydrated_rows\": {}, \"bytes_read\": {}, \
                 \"repartitions\": {}, \"peak_used_bytes\": {}}}",
                r.budget_label,
                r.budget_bytes.map_or(0, |b| b as u64),
                r.workers,
                r.fact_rows,
                r.working_set,
                r.out_rows,
                r.join_group.as_nanos(),
                r.stats.spilled_partitions,
                r.stats.spilled_rows,
                r.stats.spilled_bytes,
                r.stats.spill_files,
                r.stats.rehydrated_rows,
                r.stats.bytes_read,
                r.stats.repartitions,
                r.stats.peak_used,
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\n\"experiment\": \"espill_out_of_core\",\n\"machine_cores\": {cores},\n\
         \"resolved_parallelism\": {},\n\"rows\": [\n{}\n]\n}}\n",
        resolved_parallelism(),
        entries.join(",\n")
    )
}

fn print_espill(rows: &[ESpillRow]) {
    let mut report = Report::new(&[
        "budget",
        "workers",
        "fact rows",
        "join+group",
        "spilled bytes",
        "peak used",
        "rehydrated rows",
    ]);
    for r in rows {
        report.row(&[
            r.budget_label.to_string(),
            r.workers.to_string(),
            r.fact_rows.to_string(),
            fmt_duration(r.join_group),
            r.stats.spilled_bytes.to_string(),
            r.stats.peak_used.to_string(),
            r.stats.rehydrated_rows.to_string(),
        ]);
    }
    println!("{}", report.render());
}

/// Serialize E-durable rows as JSON by hand (no serde in the workspace).
fn edurable_json(rows: &[EDurableRow]) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"mode\": \"{}\", \"base_rows\": {}, \"delta_rows\": {}, \
                 \"batches\": {}, \"elapsed_ns\": {}, \"wal_records\": {}, \
                 \"wal_syncs\": {}, \"wal_bytes\": {}, \"replayed_records\": {}, \
                 \"io_retries\": {}, \"wal_poisoned\": {}}}",
                r.mode,
                r.base_rows,
                r.delta_rows,
                r.batches,
                r.elapsed.as_nanos(),
                r.wal_records,
                r.wal_syncs,
                r.wal_bytes,
                r.replayed_records,
                r.io_retries,
                r.wal_poisoned,
            )
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    format!(
        "{{\n\"experiment\": \"edurable_durability\",\n\"machine_cores\": {cores},\n\
         \"resolved_parallelism\": {},\n\"rows\": [\n{}\n]\n}}\n",
        resolved_parallelism(),
        entries.join(",\n")
    )
}

fn print_edurable(rows: &[EDurableRow]) {
    let mut report = Report::new(&[
        "mode",
        "batches",
        "elapsed",
        "wal records",
        "fsyncs",
        "wal bytes",
        "replayed",
        "retries",
    ]);
    for r in rows {
        report.row(&[
            r.mode.to_string(),
            r.batches.to_string(),
            fmt_duration(r.elapsed),
            r.wal_records.to_string(),
            r.wal_syncs.to_string(),
            r.wal_bytes.to_string(),
            r.replayed_records.to_string(),
            r.io_retries.to_string(),
        ]);
    }
    println!("{}", report.render());
}

fn print_ehash(rows: &[EHashRow]) {
    let mut report = Report::new(&["variant", "fact rows", "out rows", "join+group", "distinct"]);
    for r in rows {
        report.row(&[
            r.variant.to_string(),
            r.fact_rows.to_string(),
            r.out_rows.to_string(),
            fmt_duration(r.join_group),
            fmt_duration(r.distinct),
        ]);
    }
    println!("{}", report.render());
}

fn print_eparallel(rows: &[EParallelRow]) {
    let base = rows.first().map(|r| r.recompute).unwrap_or_default();
    let mut report = Report::new(&["workers", "recompute", "speedup", "propagate (delta)"]);
    for r in rows {
        report.row(&[
            r.workers.to_string(),
            fmt_duration(r.recompute),
            format!(
                "{:.2}x",
                base.as_secs_f64() / r.recompute.as_secs_f64().max(1e-9)
            ),
            format!("{} ({})", fmt_duration(r.propagate), r.delta_rows),
        ]);
    }
    println!("{}", report.render());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--espill-json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("experiments: --espill-json requires an output path");
            std::process::exit(2);
        };
        let sizes: &[usize] = if args.iter().any(|a| a == "--quick") {
            &[50_000]
        } else {
            &[1_000_000]
        };
        let rows = espill_out_of_core(sizes, &[1, 4]);
        print_espill(&rows);
        std::fs::write(path, espill_json(&rows)).expect("write E-spill JSON");
        println!("wrote {path}");
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--ehash-json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("experiments: --ehash-json requires an output path");
            std::process::exit(2);
        };
        let sizes: &[usize] = if args.iter().any(|a| a == "--quick") {
            &[10_000]
        } else {
            &[100_000]
        };
        let rows = ehash_hash_operators(sizes);
        print_ehash(&rows);
        std::fs::write(path, ehash_json(&rows)).expect("write E-hash JSON");
        println!("wrote {path}");
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--edurable-json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("experiments: --edurable-json requires an output path");
            std::process::exit(2);
        };
        let (base, delta, counts): (usize, usize, &[usize]) = if args.iter().any(|a| a == "--quick")
        {
            (2_000, 50, &[2, 8])
        } else {
            (20_000, 200, &[2, 8, 32])
        };
        let rows = edurable_durability(base, delta, counts);
        print_edurable(&rows);
        std::fs::write(path, edurable_json(&rows)).expect("write E-durable JSON");
        println!("wrote {path}");
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--eparallel-json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("experiments: --eparallel-json requires an output path");
            std::process::exit(2);
        };
        let rows = eparallel_scaling(1_000_000, 1_000, &[1, 2, 4]);
        print_eparallel(&rows);
        std::fs::write(path, eparallel_json(&rows)).expect("write E-parallel JSON");
        println!("wrote {path}");
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--e1-json") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("experiments: --e1-json requires an output path");
            std::process::exit(2);
        };
        let rows = e1_ivm_vs_recompute(&[10_000, 100_000, 1_000_000], &[100, 1_000]);
        for r in &rows {
            println!(
                "base={} delta={} incremental={} recompute={} speedup={:.1}x",
                r.base_rows,
                r.delta_rows,
                fmt_duration(r.incremental),
                fmt_duration(r.recompute),
                r.speedup()
            );
        }
        std::fs::write(path, e1_json(&rows)).expect("write E1 JSON");
        println!("wrote {path}");
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "OpenIVM experiment harness ({} mode)\n",
        if quick { "quick" } else { "full" }
    );

    // ---------------- E1
    println!("== E1: incremental maintenance vs full recomputation ==");
    println!("   (paper §2/§3: \"clear improvements in resource consumption by executing");
    println!(
        "    incremental computations rather than running the query against the whole dataset\")\n"
    );
    let (bases, deltas): (&[usize], &[usize]) = if quick {
        (&[1_000, 10_000], &[10, 100])
    } else {
        (&[1_000, 10_000, 100_000, 1_000_000], &[10, 100, 1_000])
    };
    let mut report = Report::new(&[
        "base rows",
        "delta rows",
        "incremental",
        "recompute",
        "speedup",
    ]);
    for r in e1_ivm_vs_recompute(bases, deltas) {
        report.row(&[
            r.base_rows.to_string(),
            r.delta_rows.to_string(),
            fmt_duration(r.incremental),
            fmt_duration(r.recompute),
            format!("{:.1}x", r.speedup()),
        ]);
    }
    println!("{}", report.render());

    // ---------------- E2
    println!("== E2: ART index overhead ==");
    println!("   (paper §2: \"its creation only adds significant overhead the first time\")\n");
    let bases: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut report = Report::new(&[
        "base rows",
        "setup+ART",
        "ART build",
        "setup no-index",
        "refresh indexed",
        "refresh regroup",
        "ART bytes",
    ]);
    for r in e2_art_overhead(bases, 100) {
        report.row(&[
            r.base_rows.to_string(),
            fmt_duration(r.setup_with_index),
            fmt_duration(r.index_build),
            fmt_duration(r.setup_without_index),
            fmt_duration(r.refresh_indexed),
            fmt_duration(r.refresh_unindexed),
            r.art_bytes.to_string(),
        ]);
    }
    println!("{}", report.render());

    // ---------------- E3
    println!("== E3: cross-system comparison ==");
    println!("   (paper §3: \"pure DuckDB, pure PostgreSQL, cross-system, and without IVM\")\n");
    let (base_orders, burst, rounds) = if quick {
        (2_000, 50, 3)
    } else {
        (50_000, 200, 5)
    };
    let mut report = Report::new(&["configuration", "write burst", "analytical query"]);
    for r in e3_cross_system(100, base_orders, burst, rounds) {
        report.row(&[
            r.config.to_string(),
            fmt_duration(r.write_time),
            fmt_duration(r.query_time),
        ]);
    }
    println!("{}", report.render());

    // ---------------- E4
    println!("== E4: Step-2 upsert-strategy ablation ==");
    println!("   (paper §2: UNION+regroup vs full-outer-join vs LEFT JOIN upsert)\n");
    let (base, groups): (usize, &[usize]) = if quick {
        (5_000, &[16, 1_024])
    } else {
        (50_000, &[16, 1_024, 16_384])
    };
    let mut report = Report::new(&["groups", "strategy", "refresh"]);
    for r in e4_upsert_strategies(base, groups, 200) {
        report.row(&[
            r.num_groups.to_string(),
            r.strategy.name().to_string(),
            fmt_duration(r.refresh),
        ]);
    }
    println!("{}", report.render());

    // ---------------- E5
    println!("== E5: batching granularity ==");
    println!("   (paper §1: \"batching changes together can amortize part of this cost\")\n");
    let (base, changes): (usize, usize) = if quick { (2_000, 100) } else { (20_000, 1_000) };
    let mut report = Report::new(&["batch size", "total", "per change", "maintenance runs"]);
    for r in e5_batching(base, changes, &[1, 10, 100, 0]) {
        let label = if r.batch_size == 0 {
            "lazy".to_string()
        } else {
            r.batch_size.to_string()
        };
        report.row(&[
            label,
            fmt_duration(r.total),
            fmt_duration(r.total / changes as u32),
            r.maintenance_runs.to_string(),
        ]);
    }
    println!("{}", report.render());

    // ---------------- E-hash
    println!("== E-hash: hash-operator stress (multi-join + high-cardinality GROUP BY) ==");
    println!(
        "   (vectorized hash kernels + flat open-addressing tables across join/agg/distinct)\n"
    );
    let sizes: &[usize] = if quick { &[10_000] } else { &[100_000] };
    print_ehash(&ehash_hash_operators(sizes));

    // ---------------- E-spill
    println!("== E-spill: memory-budgeted out-of-core join + GROUP BY ==");
    println!("   (build sides and group tables larger than the budget spill radix");
    println!("    partitions to disk and rehydrate partition-at-a-time)\n");
    let sizes: &[usize] = if quick { &[20_000] } else { &[200_000] };
    print_espill(&espill_out_of_core(sizes, &[1, 4]));

    // ---------------- E-durable
    println!("== E-durable: WAL toll on ingest+refresh and recovery vs log length ==");
    println!("   (slotted pages + buffer pool + ARIES-lite WAL; reopen replays the");
    println!("    committed prefix and takes a recovery checkpoint)\n");
    let (base, delta, counts): (usize, usize, &[usize]) = if quick {
        (2_000, 50, &[2, 8])
    } else {
        (20_000, 200, &[2, 8, 32])
    };
    print_edurable(&edurable_durability(base, delta, counts));

    // ---------------- E-parallel
    println!("== E-parallel: morsel-driven multi-core scaling ==");
    println!(
        "   (recompute + large-delta propagation at 1/2/4 workers; this machine reports {} core(s))\n",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    let (base, delta, workers): (usize, usize, &[usize]) = if quick {
        (50_000, 200, &[1, 4])
    } else {
        (1_000_000, 1_000, &[1, 2, 4])
    };
    print_eparallel(&eparallel_scaling(base, delta, workers));

    // ---------------- E6
    println!("== E6: SQL-to-SQL compilation cost per view class ==\n");
    let iters = if quick { 20 } else { 200 };
    let mut report = Report::new(&["view class", "compile", "setup stmts", "maintenance stmts"]);
    for r in e6_compile_time(iters) {
        report.row(&[
            r.class.to_string(),
            fmt_duration(r.compile),
            r.setup_statements.to_string(),
            r.maintenance_statements.to_string(),
        ]);
    }
    println!("{}", report.render());
}
