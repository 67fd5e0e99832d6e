//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite_gto|audited_tl_4sm|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the program from outside, through its public functions and the
//! prf-serve TCP protocol, checks the outputs, and prints one JSON line
//! last: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, plus a Chrome trace of the run's spans under
//! `perfbench/out/`. `--write-reference` re-captures the correctness gate's
//! stored seed-0 reference of a matrix workload instead of measuring.
//! See `perfbench/README.md` for the workloads and the metric map.

mod gate;
mod matrix;
mod metrics;
mod serve_mixed;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use prf_bench::json::Json;

use crate::metrics::Metrics;
use crate::stats::Tally;

/// The run's parameters.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Re-capture the stored correctness reference (matrix workloads).
    pub write_reference: bool,
}

impl Ctx {
    /// Directory for the benchmark's output and scratch files.
    pub fn out_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    /// Where the traced run of `workload` writes its spans.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        Self::out_dir().join(format!("trace-{workload}-seed{}.json", self.seed))
    }
}

/// What a workload run hands back for printing.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metric values.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

const USAGE: &str = "usage: prf-perfbench --workload <suite_gto|audited_tl_4sm|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--write-reference]";

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: gate::REFERENCE_SEED,
        seconds: 10,
        trace: false,
        write_reference: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--write-reference" {
            ctx.write_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = number()?,
            "--seconds" => ctx.seconds = number()?.max(1),
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = match workload.as_str() {
        "suite_gto" => Some(matrix::Kind::SuiteGto),
        "audited_tl_4sm" => Some(matrix::Kind::AuditedTl4sm),
        _ => None,
    };
    let result = match (kind, ctx.write_reference) {
        (Some(kind), true) => matrix::write_reference(kind).map(|()| None),
        (Some(kind), false) => matrix::run(kind, &ctx).map(Some),
        (None, false) if workload == "serve_mixed" => serve_mixed::run(&ctx).map(Some),
        (None, _) => Err(format!(
            "unknown workload {workload:?} (--write-reference takes a matrix workload)\n{USAGE}"
        )),
    };
    let outcome = match result {
        Ok(Some(outcome)) => outcome,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let correct = outcome.tally.failed == 0;
    let line = Json::obj()
        .field("correct", correct)
        .field("attempted", outcome.tally.attempted)
        .field("failed", outcome.tally.failed)
        .field("metrics", outcome.metrics.to_json());
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
