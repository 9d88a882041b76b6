//! The repository's end-to-end benchmark.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//!           [--smoke] [--repeat R]
//! ```
//!
//! One workload runs in this process: it sets up, measures a closed loop
//! for `--seconds`, checks every answer against an oracle, and prints one
//! JSON result as its last line — the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`. `--workload all` and `--repeat R`
//! run each workload in fresh child processes instead and summarise them.
//! See README.md beside this file.

mod env;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, Stdio};

use serde_json::Value;

use metrics::{contract, RunResult};
use trace::{LayerTotals, Tracer};
use workloads::{Outcome, RunConfig};

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] [--repeat R]";

/// Seconds measured per run unless `--seconds` says otherwise.
const SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| args.next()) {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = value("a workload name")?,
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is outside (0, 3600]"));
                }
                out.seconds = Some(s);
            }
            "--repeat" => {
                out.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if out.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => out.trace = v == "1",
                other => {
                    out.trace = true;
                    pending = other;
                }
            },
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names = &contract().workloads;
    if out.workload != "all" && !names.contains(&out.workload) {
        return Err(format!(
            "--workload must be one of all, {}; got {:?}",
            names.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if args.workload == "all" || args.repeat > 1 {
        orchestrate(&args)
    } else {
        run_single(&args)
    };
    std::process::exit(code);
}

/// Run one workload here and print its result line.
fn run_single(args: &Args) -> i32 {
    let default = if args.smoke { SMOKE_SECONDS } else { SECONDS };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default),
        smoke: args.smoke,
    };
    let mut tr = Tracer::new(args.trace);
    let outcome = workloads::run(&args.workload, &cfg, &mut tr);
    let attempted = outcome.op_ms.len() as u64;

    let mut meta = vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Int(args.seed as i128)),
        ("seconds".into(), Value::Float(cfg.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("ops".into(), Value::Int(attempted as i128)),
        ("failed".into(), Value::Int(outcome.failed as i128)),
        ("setups".into(), Value::Int(outcome.setup_s.len() as i128)),
    ];
    meta.extend(outcome.meta.iter().cloned());
    meta.extend(env::host_meta());
    let meta = Value::Object(meta);

    print_latency(&args.workload, &outcome);
    let (table, values) = if args.trace {
        let totals = LayerTotals::from_spans(tr.spans());
        print_layers(&totals);
        let path = env::output_dir().join(format!("{}.trace.json", args.workload));
        match trace::write_trace(&path, meta.clone(), tr.spans()) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
        }
        if totals.ops_under_95 > 0 {
            eprintln!(
                "benchmark: in {} of {} ops the traced calls cover less than 95% of the op",
                totals.ops_under_95, totals.ops
            );
        }
        (&contract().per_layer, layer_values(&outcome, &totals))
    } else {
        (&contract().end_to_end, end_to_end_values(&outcome))
    };
    let values: Vec<(&str, f64)> = values.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let result = RunResult::from_table(true, attempted, outcome.failed, table, &values);
    for (name, value, unit) in &result.metrics {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    println!("meta {meta}");
    println!("{}", result.to_json());
    0
}

/// Every end-to-end value of an untraced run.
fn end_to_end_values(outcome: &Outcome) -> Vec<(String, f64)> {
    vec![
        ("op_p50_ms".into(), stats::percentile(&outcome.op_ms, 50.0)),
        ("peak_rss_mb".into(), env::peak_rss_mb()),
        ("setup_s".into(), stats::quartiles(&outcome.setup_s).1),
    ]
}

/// Every per-layer value of a traced run: each span's share of op time,
/// the trace's own health, and what the workload derived.
fn layer_values(outcome: &Outcome, totals: &LayerTotals) -> Vec<(String, f64)> {
    let mut values: Vec<(String, f64)> = totals
        .self_ns
        .keys()
        .filter(|name| **name != "op")
        .map(|name| (format!("{name}_pct"), totals.share_pct(name)))
        .collect();
    values.push((
        "trace.op_p50_ms".into(),
        stats::percentile(&outcome.op_ms, 50.0),
    ));
    values.push(("trace.op_self_pct".into(), totals.share_pct("op")));
    values.push(("trace.ops_under_95pct".into(), totals.ops_under_95 as f64));
    values.extend(outcome.layer.iter().map(|(n, v)| (n.to_string(), *v)));
    values
}

fn print_latency(workload: &str, o: &Outcome) {
    let n = o.op_ms.len();
    let setups: Vec<String> = o.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("{workload}: set-up {} s", setups.join(" / "));
    let tail = match stats::highest_qualifying(n) {
        Ok(p) => format!("p{p} {:.4} ms", stats::percentile(&o.op_ms, p)),
        Err(e) => format!("no tail ({e})"),
    };
    println!(
        "{workload}: {n} ops, {} failed; p50 {:.4} ms, {tail}",
        o.failed,
        stats::percentile(&o.op_ms, 50.0)
    );
}

fn print_layers(t: &LayerTotals) {
    println!(
        "{:<40} {:>8} {:>12} {:>8}",
        "self time by layer", "calls", "ms/op", "share%"
    );
    for (name, calls) in &t.calls {
        println!(
            "{name:<40} {calls:>8} {:>12.4} {:>8.2}",
            t.per_op_ms(name),
            t.share_pct(name)
        );
    }
}

/// Run one child process of this binary for `workload` and parse its
/// result line.
fn child(args: &Args, workload: &str, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} exited with {}:\n{stdout}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    if let Some(meta) = stdout.lines().find(|l| l.starts_with("meta ")) {
        println!("{workload}: {meta}");
    }
    RunResult::parse(last)
}

/// Run each selected workload `--repeat` times (and traced, with
/// `--trace`) in fresh processes, then print each metric's median,
/// quartiles and spread, and one JSON line of medians.
fn orchestrate(args: &Args) -> i32 {
    let names: Vec<&str> = if args.workload == "all" {
        contract().workloads.iter().map(String::as_str).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut summary = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for workload in names {
        let runs = |traced: bool| -> Result<Vec<RunResult>, String> {
            let count = if traced && !args.trace {
                0
            } else {
                args.repeat
            };
            (0..count).map(|_| child(args, workload, traced)).collect()
        };
        let (untraced, traced) = match runs(false).and_then(|u| Ok((u, runs(true)?))) {
            Ok(sets) => sets,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return 1;
            }
        };
        println!("\n{workload}: {} run(s), seed {}", args.repeat, args.seed);
        println!(
            "  {:<40} {:>14} {:>14} {:>14} {:>9} {:>7}",
            "metric", "median", "q1", "q3", "iqr/med", "bound"
        );
        for r in &untraced {
            correct &= r.correct;
            attempted += r.attempted;
            failed += r.failed;
        }
        let mut medians = Vec::new();
        for set in [&untraced, &traced] {
            let Some(first) = set.first() else { continue };
            for (name, _, unit) in &first.metrics {
                let values: Vec<f64> = set.iter().filter_map(|r| r.get(name)).collect();
                // Layers this workload never reaches read 0 in every run.
                if values.iter().all(|v| *v == 0.0)
                    && metrics::find(name).is_some_and(|m| m.bound.is_none())
                {
                    continue;
                }
                let (q1, med, q3) = stats::quartiles(&values);
                let bound = metrics::find(name)
                    .and_then(|m| m.bound)
                    .map_or(String::new(), |b| format!("{b:.2}"));
                println!(
                    "  {name:<40} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {bound:>7}  {unit}",
                    stats::iqr_share(&values)
                );
                medians.push((format!("{workload}.{name}"), med, unit.clone()));
            }
        }
        let median_of = |set: &[RunResult], name: &str| {
            let v: Vec<f64> = set.iter().filter_map(|r| r.get(name)).collect();
            (!v.is_empty()).then(|| stats::quartiles(&v).1)
        };
        if let (Some(plain), Some(traced)) = (
            median_of(&untraced, "op_p50_ms"),
            median_of(&traced, "trace.op_p50_ms"),
        ) {
            let overhead = 100.0 * (traced / plain - 1.0);
            println!("  trace_overhead {overhead:+.2}% (traced p50 over untraced p50)");
            medians.push((format!("{workload}.trace_overhead"), overhead, "%".into()));
        }
        summary.extend(medians);
    }
    println!("meta {}", Value::Object(env::host_meta()));
    let result = RunResult {
        correct,
        attempted,
        failed,
        metrics: summary,
    };
    println!("{}", result.to_json());
    0
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_single_run_command_line() {
        let a = parse("--workload sql_analyst --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sql_analyst", 7, Some(10.0), false)
        );
        assert!(parse("--workload recovery --trace 1").unwrap().trace);
    }

    #[test]
    fn bare_trace_flag_turns_tracing_on() {
        let a = parse("--workload all --trace --smoke --repeat 3").unwrap();
        assert!(a.trace && a.smoke);
        assert_eq!(a.repeat, 3);
        assert!(parse("--trace --workload audit_cold").unwrap().trace);
    }

    /// Run every workload at smoke size, untraced and traced: together they
    /// must report exactly the metrics `BENCHMARK.json` lists, each named
    /// metric by at least one workload.
    #[test]
    fn workloads_emit_exactly_the_contract_names() {
        let cfg = RunConfig {
            seed: 3,
            // Long enough for every churn write kind to come up.
            seconds: 1.0,
            smoke: true,
        };
        let names = |values: Vec<(String, f64)>| -> BTreeSet<String> {
            values.into_iter().map(|(n, _)| n).collect()
        };
        let listed = |table: &[metrics::MetricDef]| -> BTreeSet<String> {
            table.iter().map(|m| m.name.clone()).collect()
        };
        let mut layers = BTreeSet::new();
        let per_layer = listed(&contract().per_layer);
        for workload in &contract().workloads {
            let plain = workloads::run(workload, &cfg, &mut Tracer::new(false));
            assert_eq!(
                names(end_to_end_values(&plain)),
                listed(&contract().end_to_end),
                "{workload}"
            );
            let mut tr = Tracer::new(true);
            let traced = workloads::run(workload, &cfg, &mut tr);
            let emitted = names(layer_values(&traced, &LayerTotals::from_spans(tr.spans())));
            let unknown: Vec<_> = emitted.difference(&per_layer).collect();
            assert!(unknown.is_empty(), "{workload} emits unlisted {unknown:?}");
            layers.extend(emitted);
        }
        let never: Vec<_> = per_layer.difference(&layers).collect();
        assert!(never.is_empty(), "no workload emits {never:?}");
    }

    /// This package is a workspace of its own, so it cannot inherit the
    /// repository's release profile; it must repeat it, or it would time a
    /// library built differently from the one the repository ships.
    #[test]
    fn release_profile_matches_the_repository() {
        let section = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            text.lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let dir = env!("CARGO_MANIFEST_DIR");
        let ours = section(&format!("{dir}/Cargo.toml"));
        assert!(!ours.is_empty(), "no [profile.release] in this package");
        assert_eq!(ours, section(&format!("{dir}/../../../../../Cargo.toml")));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("").is_err());
        assert!(parse("--workload all --seconds 0").is_err());
        assert!(parse("--workload all --repeat 0").is_err());
        assert!(parse("--workload all --bogus").is_err());
        assert!(parse("--workload all --seed").is_err());
    }
}
