//! `openivm-bench`: the repository's one benchmark.
//!
//! ```text
//! openivm-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload, one mode; the last line of stdout is the result the
//!     benchmark driver reads (see BENCHMARK.json).
//! openivm-bench [--seed <n>] [--seconds <s>] [--quick]
//!     All four workloads, untraced then traced; one JSON document.
//! openivm-bench --self-check [--seed <n>] [--seconds <s>] [--quick]
//!     The untraced suite twice on the same inputs; fails when a metric
//!     does not repeat within its own bound.
//! ```
//!
//! The suite and the self-check run every workload and mode as a child
//! process of its own, exactly as the driver does, so no run inherits the
//! heap — and the peak-memory mark — of the one before it.
//!
//! See `README.md` beside this package for every workload and metric.

mod gen;
mod json;
mod metrics;
mod stats;
mod sys;
mod trace;
mod wire;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;
use metrics::{Better, Outcome, END_TO_END, EXACT_COUNTS, WORKLOADS};
use workloads::{embedded, htap_batch, serve_mixed, Limit, Params};

/// The seed used when none is given; recorded in every report.
const DEFAULT_SEED: u64 = 1;
/// Seconds one measured loop runs when none are given (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick`: every size divided by this, one second per loop.
const QUICK_SHRINK: usize = 20;

#[derive(Debug)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    self_check: bool,
    /// Stop the closed loop after this many operations instead of after
    /// `--seconds` (how `--self-check` makes its second run issue exactly
    /// the first run's statements).
    replay_ops: Option<usize>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        self_check: false,
        replay_ops: None,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} expects a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name);
                out.workload = Some(
                    known
                        .ok_or_else(|| format!("unknown workload {name}: one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".to_string());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, not {other}")),
                };
            }
            "--replay-ops" => {
                out.replay_ops = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--replay-ops expects a whole number".to_string())?,
                );
            }
            "--quick" => out.quick = true,
            "--self-check" => out.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn run_workload(name: &str, params: &Params) -> Result<Outcome, String> {
    match name {
        "trickle" => embedded::run(&embedded::TRICKLE, params),
        "durable-spill" => embedded::run(&embedded::DURABLE_SPILL, params),
        "htap-batch" => htap_batch::run(params),
        "serve-mixed" => serve_mixed::run(params),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run of a workload, with `trace.overhead_frac` taken against
/// an untraced run of the same code: traced ÷ untraced `fresh_p50_ms` − 1.
fn run_traced(name: &str, params: &Params, untraced: &Outcome) -> Result<Outcome, String> {
    let traced_params = Params {
        traced: true,
        setups: 1,
        ..params.clone()
    };
    let mut traced = run_workload(name, &traced_params)?;
    let fresh = |o: &Outcome| o.end_to_end.get("fresh_p50_ms");
    if let (Some(with), Some(without)) = (fresh(&traced), fresh(untraced)) {
        traced
            .per_layer
            .set("trace.overhead_frac", with / without - 1.0);
    }
    let missing = traced.per_layer.missing();
    if !missing.is_empty() {
        return Err(format!(
            "{name}: traced run did not measure {missing:?} (failures: {:?})",
            traced.tally.messages
        ));
    }
    Ok(traced)
}

/// One workload in one mode. Untraced: the full window, three set-ups.
/// Traced: half the window untraced for the overhead baseline, half traced.
fn run_once(name: &str, params: &Params, trace: bool) -> Result<Outcome, String> {
    if !trace {
        let outcome = run_workload(name, params)?;
        let missing = outcome.end_to_end.missing();
        if !missing.is_empty() {
            return Err(format!(
                "{name}: no value for {missing:?} — the window was too short for one \
                 operation of each kind: {}",
                outcome.report_json().render()
            ));
        }
        return Ok(outcome);
    }
    let half = Params {
        limit: params.limit.scaled(0.5),
        seconds: params.seconds / 2.0,
        setups: 1,
        ..params.clone()
    };
    let baseline = run_workload(name, &half)?;
    let mut traced = run_traced(name, &half, &baseline)?;
    // Failures in the baseline half count too.
    traced.tally.absorb(baseline.tally);
    Ok(traced)
}

fn document(args: &Args, params: &Params, body: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("benchmark", Json::str("openivm-bench")),
        ("seed", Json::Int(args.seed as i64)),
        ("default_seed", Json::Int(DEFAULT_SEED as i64)),
        ("seconds", Json::Num(params.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("fingerprint", sys::fingerprint(&params.work_dir)),
    ];
    fields.extend(body);
    Json::obj(fields)
}

/// Run one workload and mode in a process of its own (this executable with
/// `--workload`) and return the `run` object of its report.
fn run_in_child(
    args: &Args,
    name: &str,
    trace: bool,
    replay_ops: Option<usize>,
) -> Result<Json, String> {
    eprintln!(
        "openivm-bench: {name} ({})",
        if trace { "traced" } else { "untraced" }
    );
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["--workload", name, "--seed", &args.seed.to_string()]);
    child.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        child.args(["--seconds", &seconds.to_string()]);
    }
    if let Some(ops) = replay_ops {
        child.args(["--replay-ops", &ops.to_string()]);
    }
    if args.quick {
        child.arg("--quick");
    }
    let output = child
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    let last_line = stderr.lines().next_back().unwrap_or_default();
    if !output.status.success() {
        return Err(format!("{name} failed: {last_line}"));
    }
    // The child prints its report document as the last line of stderr.
    json::parse(last_line)?
        .get("run")
        .cloned()
        .ok_or_else(|| format!("{name}: the report has no run"))
}

fn is_correct(run: &Json) -> bool {
    run.get("correct") == Some(&Json::Bool(true))
}

fn metric(run: &Json, list: &str, name: &str) -> Option<f64> {
    run.get(list)?.get(name)?.get("value")?.as_f64()
}

/// All four workloads, untraced then traced.
fn suite(args: &Args) -> Result<Vec<Json>, String> {
    let mut runs = Vec::new();
    for name in WORKLOADS {
        for trace in [false, true] {
            runs.push(run_in_child(args, name, trace, None)?);
        }
    }
    Ok(runs)
}

/// Relative change of `b` against `a`, positive when `b` is worse.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Run the untraced suite twice on the same inputs and compare. Returns
/// one entry per metric that did not repeat.
fn self_check(args: &Args) -> Result<Vec<Json>, String> {
    let mut failures = Vec::new();
    let mut fail = |workload: &str, metric: &str, a: String, b: String, why: &str| {
        eprintln!("  FAIL {workload:<14} {metric:<44} {a:>16} {b:>16}  {why}");
        failures.push(Json::obj(vec![
            ("workload", Json::str(workload)),
            ("metric", Json::str(metric)),
            ("first", Json::str(a)),
            ("second", Json::str(b)),
            ("why", Json::str(why)),
        ]));
    };
    for name in WORKLOADS {
        let first = run_in_child(args, name, false, None)?;
        // The closed loops replay by operation count, so both runs issue
        // exactly the same statements; the open-loop phase of serve-mixed
        // keeps its window, whose schedule already fixes its count.
        let ops = first.get("ops").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let second = run_in_child(args, name, false, Some(ops))?;
        let text = |run: &Json, key: &str| run.get(key).map(Json::render).unwrap_or_default();
        for run in [&first, &second] {
            if !is_correct(run) {
                let failed = text(run, "failures");
                fail(name, "failed", failed, String::new(), "operations failed");
            }
        }
        for key in ["workload_digest", "ops"] {
            let (a, b) = (text(&first, key), text(&second, key));
            if a != b {
                fail(name, key, a, b, "the two runs issued different inputs");
            }
        }
        for def in END_TO_END {
            let (a, b) = (
                metric(&first, "end_to_end", def.name),
                metric(&second, "end_to_end", def.name),
            );
            let (Some(a), Some(b)) = (a, b) else {
                fail(
                    name,
                    def.name,
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "no value",
                );
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let change = worsening(def.better, a, b).abs();
            if change > bound {
                let why = format!(
                    "differs by {:.1} %, bound {:.0} %",
                    change * 100.0,
                    bound * 100.0
                );
                fail(name, def.name, a.to_string(), b.to_string(), &why);
            } else {
                eprintln!(
                    "  ok   {name:<14} {:<44} {a:>16.4} {b:>16.4}  {:.1} % (bound {:.0} %)",
                    def.name,
                    change * 100.0,
                    bound * 100.0
                );
            }
        }
        // One client and no timers: these counts must repeat exactly.
        for name_of_count in EXACT_COUNTS {
            let (a, b) = (
                metric(&first, "per_layer", name_of_count),
                metric(&second, "per_layer", name_of_count),
            );
            if a != b {
                fail(
                    name,
                    name_of_count,
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "an exact count differs",
                );
            }
        }
    }
    Ok(failures)
}

/// Fix the environment every session (and the server child) starts from,
/// and build the parameters of an untraced run. Call before any thread
/// starts. The returned guard removes the spill directory on drop.
fn prepare(
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
) -> Result<(Params, sys::ScratchDir), String> {
    // The engine reads these at session creation; the bench measures the
    // engine's own defaults, whatever the caller's environment holds.
    for var in [
        "OPENIVM_PARALLELISM",
        "OPENIVM_MEMORY_BUDGET",
        "OPENIVM_DATA_DIR",
        "OPENIVM_FAULT_PLAN",
    ] {
        std::env::remove_var(var);
    }
    let work_dir = sys::work_dir()?;
    // Spill files go under the work directory, not the system temp
    // directory; the server child inherits the setting.
    let spill_dir = sys::ScratchDir::create(&work_dir, "spill")?;
    std::env::set_var("OPENIVM_SPILL_DIR", &spill_dir.0);
    let seconds = seconds.unwrap_or(if quick { 1.0 } else { DEFAULT_SECONDS });
    let params = Params {
        seed,
        limit: Limit::Seconds(seconds),
        seconds,
        traced: false,
        shrink: if quick { QUICK_SHRINK } else { 1 },
        setups: if quick { 1 } else { 3 },
        work_dir,
    };
    Ok((params, spill_dir))
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let (mut params, _spill_dir) = prepare(args.seed, args.seconds, args.quick)?;
    let exit = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };

    if let Some(name) = args.workload {
        if let Some(ops) = args.replay_ops {
            params.limit = Limit::Ops(ops);
        }
        let outcome = run_once(name, &params, args.trace)?;
        let report = vec![("run", outcome.report_json())];
        eprintln!("{}", document(&args, &params, report).render());
        println!("{}", outcome.contract_json().render());
        // A run with failed operations still prints its result and exits
        // 0; `correct` carries the verdict.
        return Ok(ExitCode::SUCCESS);
    }
    if args.self_check {
        let failures = self_check(&args)?;
        let passed = failures.is_empty();
        let verdict = vec![
            ("self_check_passed", Json::Bool(passed)),
            ("failures", Json::Arr(failures)),
        ];
        println!("{}", document(&args, &params, verdict).render());
        return Ok(exit(passed));
    }
    let runs = suite(&args)?;
    let correct = runs.iter().all(is_correct);
    let body = vec![("correct", Json::Bool(correct)), ("runs", Json::Arr(runs))];
    println!("{}", document(&args, &params, body).render());
    Ok(exit(correct))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("openivm-bench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{MetricDef, PER_LAYER};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    /// The objects of one array-valued key of BENCHMARK.json.
    fn section<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key) {
            Some(Json::Arr(items)) => items,
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        }
    }

    fn text<'a>(object: &'a Json, key: &str) -> &'a str {
        object.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        section(doc, key)
            .iter()
            .map(|o| (text(o, "name").to_string(), text(o, "unit").to_string()))
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_bench_defines() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = section(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(declared(&doc, "end_to_end"), defined(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), defined(PER_LAYER));
        for (object, def) in section(&doc, "end_to_end").iter().zip(END_TO_END) {
            let bound = object.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, def.bound, "{}", def.name);
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(object, "better"), better, "{}", def.name);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// `--quick` in-process on the three embedded workloads: every check
    /// passes, and the result carries every declared metric by name.
    #[test]
    fn quick_runs_carry_every_declared_metric() {
        let (params, _spill_dir) = prepare(DEFAULT_SEED, None, true).expect("environment");
        for name in ["trickle", "htap-batch", "durable-spill"] {
            let untraced = run_once(name, &params, false).expect(name);
            assert!(untraced.correct(), "{name}: {:?}", untraced.tally.messages);
            let traced = run_once(name, &params, true).expect(name);
            assert!(traced.correct(), "{name}: {:?}", traced.tally.messages);
            // A second seed changes the inputs and still passes every check.
            let other = Params {
                seed: DEFAULT_SEED + 1,
                ..params.clone()
            };
            let reseeded = run_once(name, &other, false).expect(name);
            assert!(reseeded.correct(), "{name}: {:?}", reseeded.tally.messages);
            assert_ne!(reseeded.workload_digest, untraced.workload_digest);

            for (outcome, defs) in [(&untraced, END_TO_END), (&traced, PER_LAYER)] {
                let Json::Obj(result) = outcome.contract_json() else {
                    panic!("the result is an object");
                };
                let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let Json::Obj(metrics) = &result[3].1 else {
                    panic!("metrics is an object");
                };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(names, expected, "{name}");
                for (metric, body) in metrics {
                    assert!(
                        metric
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{metric}"
                    );
                    assert!(matches!(body.get("value"), Some(Json::Num(_) | Json::Null)));
                    assert!(!text(body, "unit").is_empty(), "{metric}");
                }
            }
        }
    }

    #[test]
    fn arguments_of_the_driver_contract_parse() {
        let line = "--workload htap-batch --seed 7 --seconds 2.5 --trace 1";
        let args = parse_args(line.split(' ').map(str::to_string)).expect("valid");
        assert_eq!(args.workload, Some("htap-batch"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(2.5), true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(
                parse_args(bad.split(' ').map(str::to_string)).is_err(),
                "{bad}"
            );
        }
    }
}
