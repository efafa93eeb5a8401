//! `benchmark`: one benchmark for the whole pipeline. See `README.md`.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--json FILE] [--trace-out FILE] [--smoke]
//! benchmark --all      [--seed N] [--seconds S] [--smoke]
//! benchmark --repeat N --workload NAME [--seed N] [--seconds S] [--smoke]
//! benchmark --catalogue | --benchmark-json
//! ```
//!
//! A run measures one workload in one process: untraced (`--trace 0`) it
//! prints every end-to-end metric, traced (`--trace 1`) every per-layer
//! metric. The last line of standard output is the result as one JSON object.

mod alloc;
mod catalogue;
mod churn;
mod cold;
mod fabric;
mod host;
mod kernels;
mod layers;
mod migrate;
mod timed;
mod trace;

use catalogue::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use centralium_bench::stats::percentile;
use fabric::Outcome;
use host::Host;
use std::process::{Command, ExitCode};
use trace::{chrome_json, median, Tracer};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// How much work a run does.
pub struct Scale {
    /// `--seconds`: the work is a fixed function of it (see `RUN_SECONDS`).
    pub seconds: u64,
    /// `--smoke`: tiny fabric and counts, every check, about a second in all.
    pub smoke: bool,
}

struct Opts {
    workload: Option<String>,
    seed: u64,
    scale: Scale,
    trace: bool,
    all: bool,
    repeat: Option<usize>,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        scale: Scale {
            seconds: RUN_SECONDS,
            smoke: false,
        },
        trace: false,
        all: false,
        repeat: None,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.scale.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&opts.scale.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                opts.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--json" => opts.json = Some(value()?),
            "--trace-out" => opts.trace_out = Some(value()?),
            "--all" => opts.all = true,
            "--smoke" => opts.scale.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(name) = &opts.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(opts)
}

/// Run one workload in this process.
fn run_workload(name: &str, seed: u64, scale: &Scale, traced: bool, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    match name {
        "cold_2k_racks" => cold::run(
            &cold::ColdSpec::racks_2k(scale),
            seed,
            traced,
            tracer,
            &mut out,
        ),
        "cold_xl_fanin" => cold::run(
            &cold::ColdSpec::fanin_xl(scale),
            seed,
            traced,
            tracer,
            &mut out,
        ),
        "churn_large" => churn::run(
            &churn::ChurnSpec::new(scale),
            seed,
            traced,
            tracer,
            &mut out,
        ),
        "migrate_inproc" => migrate::run(
            &migrate::MigrateSpec::inproc(scale),
            seed,
            traced,
            tracer,
            &mut out,
        ),
        "migrate_tcp" => migrate::run(
            &migrate::MigrateSpec::tcp(scale),
            seed,
            traced,
            tracer,
            &mut out,
        ),
        other => unreachable!("workload '{other}' was validated"),
    }
    if traced {
        kernels::run(scale, &mut out.layer);
    }
    out
}

/// The metrics a run reports, in catalogue order: `(name, value, unit)`.
/// A per-layer metric the workload has no source for reads 0.
fn reported(out: &Outcome, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    if traced {
        PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name,
                    finite(out.layer.get(p.name).copied().unwrap_or(0.0)),
                    p.unit,
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| {
                let v = out.e2e.get(e.name).copied();
                (
                    e.name,
                    finite(v.expect("every workload reports every end-to-end metric")),
                    e.unit,
                )
            })
            .collect()
    }
}

/// The contract's result object.
fn result_line(out: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        body.join(", ")
    )
}

/// Run header, metrics, failures and the result line of a single run.
fn single(opts: &Opts, name: &str) -> ExitCode {
    let host = Host::read();
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    println!("# benchmark {name}: {why}");
    println!(
        "# seed {}  seconds {}  trace {}  smoke {}  closed loop, one client",
        opts.seed, opts.scale.seconds, opts.trace as u8, opts.scale.smoke
    );
    for (key, value) in host.lines() {
        println!("# {key}: {value}");
    }

    let tracer = Tracer::new(opts.trace);
    let out = run_workload(name, opts.seed, &opts.scale, opts.trace, &tracer);
    for (key, value) in &out.counts {
        println!("# {key}: {value}");
    }
    let metrics = reported(&out, opts.trace);
    for (metric, value, unit) in &metrics {
        println!("{metric:<34} {value:>18.4} {unit}");
    }
    println!(
        "ops_attempted {}  ops_failed {}  failed_ratio {}",
        out.attempted,
        out.failures.len(),
        out.failures.len() as f64 / out.attempted.max(1) as f64
    );
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }

    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, chrome_json(&tracer.spans())) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let line = result_line(&out, &metrics);
    if let Some(path) = &opts.json {
        let header: Vec<String> = host
            .lines()
            .into_iter()
            .chain(out.counts.iter().map(|(k, v)| (*k, v.clone())))
            .map(|(k, v)| format!("\"{k}\": {}", catalogue::json_string(&v)))
            .collect();
        let text = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"header\": {{{}}}, \"result\": {line}}}\n",
            opts.seed,
            opts.scale.seconds,
            opts.trace,
            opts.scale.smoke,
            header.join(", ")
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a fresh child process and parse its result line.
fn child(opts: &Opts, name: &str, traced: bool) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.scale.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.scale.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{name} (trace {}) failed:\n{stdout}", traced as u8));
    }
    let last = stdout.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("{name}: result line: {e}"))
}

fn metric_value(result: &serde_json::Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--all`: every workload, untraced then traced, one process each.
fn all(opts: &Opts) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {} ==", w.name);
        for traced in [false, true] {
            match child(opts, w.name, traced) {
                Ok(result) => {
                    let names: Vec<(&str, &str)> = if traced {
                        PER_LAYER.iter().map(|p| (p.name, p.unit)).collect()
                    } else {
                        END_TO_END.iter().map(|e| (e.name, e.unit)).collect()
                    };
                    for (name, unit) in names {
                        let value = metric_value(&result, name).unwrap_or(f64::NAN);
                        println!("{name:<34} {value:>18.4} {unit}");
                    }
                    println!(
                        "ops_attempted {}  ops_failed {}",
                        result
                            .get("attempted")
                            .and_then(|v| v.as_u64())
                            .unwrap_or(0),
                        result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0)
                    );
                }
                Err(e) => {
                    println!("{e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: N untraced runs in fresh processes; per metric the median,
/// the quartiles and the spread (max − min over median), which must stay
/// within the metric's own bound.
fn repeat(opts: &Opts, name: &str, n: usize) -> ExitCode {
    let mut runs = Vec::new();
    for i in 0..n {
        match child(opts, name, false) {
            Ok(result) => runs.push(result),
            Err(e) => {
                println!("run {i}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{name}: {n} runs, seed {}, seconds {}",
        opts.seed, opts.scale.seconds
    );
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut ok = true;
    for e in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| metric_value(r, e.name))
            .collect();
        let mid = median(&values);
        let spread = (percentile(&values, 100.0) - percentile(&values, 0.0)) / mid;
        let within = spread <= e.bound;
        ok &= within;
        println!(
            "{:<14} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}{}",
            e.name,
            mid,
            percentile(&values, 25.0),
            percentile(&values, 75.0),
            spread,
            e.bound,
            if within { "" } else { "  EXCEEDED" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_catalogue() {
    println!("workloads (default seed {DEFAULT_SEED}; 21 and 1337 held out):");
    for w in WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run, every workload):");
    for e in END_TO_END {
        println!(
            "  {:<14} {:<9} {:<7} bound {:<5} {}",
            e.name, e.unit, e.better, e.bound, e.meaning
        );
    }
    println!("per-layer metrics (traced run; moves -> on workload):");
    for p in PER_LAYER {
        println!("  {:<34} {:<7} {:<7} {}", p.name, p.unit, p.better, p.moves);
    }
    println!("te: no caller on any workload, so no metric.");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--catalogue") => {
            print_catalogue();
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "error: this is a debug build; numbers from it mean nothing. Build with --release."
        );
        return ExitCode::FAILURE;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (&opts.workload, opts.repeat, opts.all) {
        (_, _, true) => all(&opts),
        (Some(name), Some(n), _) if n > 0 => repeat(&opts, name, n),
        (Some(name), _, _) => single(&opts, name),
        (None, _, _) => {
            eprintln!("error: give --workload NAME, or --all");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const SMOKE: Scale = Scale {
        seconds: 1,
        smoke: true,
    };

    #[test]
    fn smoke_runs_emit_exactly_the_declared_names_and_pass_every_check() {
        let mut layer_names_set = BTreeSet::new();
        for w in WORKLOADS {
            // Untraced: every end-to-end metric, none of them zero.
            let out = run_workload(w.name, 7, &SMOKE, false, &Tracer::new(false));
            assert!(out.failures.is_empty(), "{}: {:?}", w.name, out.failures);
            assert!(out.attempted > 0);
            let emitted: BTreeSet<&str> = out.e2e.keys().copied().collect();
            let declared: BTreeSet<&str> = END_TO_END.iter().map(|e| e.name).collect();
            assert_eq!(emitted, declared, "{}", w.name);
            for (name, value, _) in reported(&out, false) {
                assert!(value > 0.0, "{}: {name} = {value}", w.name);
            }
            // Traced: nothing undeclared.
            let out = run_workload(w.name, 7, &SMOKE, true, &Tracer::new(true));
            assert!(out.failures.is_empty(), "{}: {:?}", w.name, out.failures);
            let declared: BTreeSet<&str> = PER_LAYER.iter().map(|p| p.name).collect();
            for name in out.layer.keys() {
                assert!(declared.contains(name), "{}: undeclared {name}", w.name);
            }
            layer_names_set.extend(out.layer.keys().copied());
            assert_eq!(reported(&out, true).len(), PER_LAYER.len());
        }
        // Across the workloads, every declared per-layer metric has a source.
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|p| p.name).collect();
        assert_eq!(layer_names_set, declared);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.e2e.insert("setup_s", 0.5);
        let line = result_line(&out, &[("setup_s", 0.5, "s")]);
        let parsed: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(parsed.get("failed").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(metric_value(&parsed, "setup_s"), Some(0.5));
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload churn_large --seed 21 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.scale.seconds, ok.trace), (21, 5, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }
}
