//! Benchmark of the self-learning seizure detector: three closed-loop
//! workloads (`stream`, `learn`, `reboot`), end-to-end metrics from plain
//! runs, a per-layer ledger from traced runs, and output checks on both.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a readable report goes to
//! standard error. The process exits non-zero when any output check failed.

mod inputs;
mod ops;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use ops::{Checks, Run};
use trace::{Tracer, SPANS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <stream|learn|reboot> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = match args.workload.as_str() {
        "stream" => workloads::stream,
        "learn" => workloads::learn,
        "reboot" => workloads::reboot,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(args.trace);
    let outcome = match workload(args.seed, args.seconds, &mut run) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("workload {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let Run {
        tracer, mut checks, ..
    } = run;
    let (threads, nproc) = stats::thread_counts();

    let metrics = if args.trace {
        let mut m: Vec<Metric> = tracer
            .per_layer()
            .into_iter()
            .map(|(name, value, unit)| Metric { name, value, unit })
            .collect();
        m.push(metric("parallel.threads", threads as f64, "count"));
        m.push(metric("parallel.nproc", nproc as f64, "count"));
        m.push(metric("trace.overhead_pct", tracer.overhead_pct(), "%"));
        m
    } else {
        let ms = |q: f64| outcome.across_passes(|p| stats::quantile(&p.op_s, q) * 1e3);
        vec![
            metric("op_ms_p50", ms(0.5), "ms"),
            metric("op_ms_p75", ms(0.75), "ms"),
            metric(
                "ops_per_s",
                outcome.across_passes(|p| p.ops / p.secs),
                "1/s",
            ),
            metric("gmean", outcome.confusion.geometric_mean(), "ratio"),
            metric("setup_s", stats::median(&outcome.setup_s), "s"),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ]
    };
    for m in &metrics {
        checks.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }

    report(&args, &outcome, &tracer, &checks, &metrics, threads, nproc);
    let correct = checks.failed == 0;
    let attempted = checks.attempted + outcome.all_ops().len() as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The readable report, on standard error.
fn report(
    args: &Args,
    outcome: &workloads::Outcome,
    tracer: &Tracer,
    checks: &Checks,
    metrics: &[Metric],
    threads: usize,
    nproc: usize,
) {
    let env = std::env::var("SEIZURE_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let op_ms: Vec<f64> = outcome.all_ops().iter().map(|s| s * 1e3).collect();
    eprintln!(
        "workload {} seed {} ({} s, trace {}): {} x {} in {} passes, {} set-ups",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        op_ms.len(),
        outcome.op_name,
        outcome.passes.len(),
        outcome.setup_s.len()
    );
    eprintln!("  threads: {threads} effective (SEIZURE_NUM_THREADS={env}), nproc {nproc}");
    if !args.trace {
        eprintln!(
            "  op ms, all passes pooled: p50 {:.4}  p90 {:.4}  p99 {:.4}  max {:.4}",
            stats::median(&op_ms),
            stats::quantile(&op_ms, 0.9),
            stats::quantile(&op_ms, 0.99),
            stats::quantile(&op_ms, 1.0)
        );
    } else {
        eprintln!("  span                          calls     busy_ms");
        for &(span, _) in SPANS {
            let (calls, busy) = tracer.busy(span);
            eprintln!("  {span:<28} {calls:>6} {:>11.2}", busy * 1e3);
        }
    }
    for m in metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for note in &checks.notes {
        eprintln!("  FAILED: {note}");
    }
}
