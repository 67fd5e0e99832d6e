//! # prf-bench — the experiment harness
//!
//! Shared plumbing for the per-figure/table binaries that regenerate the
//! paper's evaluation. Each binary prints the paper's reported numbers
//! next to the measured ones; `EXPERIMENTS.md` records a snapshot.
//!
//! Binaries (run with `cargo run --release -p prf-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig01_fo4_delay` | Fig. 1 — FO4 chain delay vs Vdd |
//! | `fig02_access_skew` | Fig. 2 — top-3/4/5 register access share |
//! | `table1_benchmarks` | Table I — benchmark shapes + pilot % |
//! | `fig04_profiling` | Fig. 4 — compiler/pilot/hybrid/optimal coverage |
//! | `table3_sram_cells` | Table III — 8T SRAM cell characteristics |
//! | `table4_rf_energy` | Table IV — RF energy/leakage/area + CAM |
//! | `fig10_access_distribution` | Fig. 10 — FRF/SRF access split |
//! | `fig11_energy_savings` | Fig. 11 — dynamic + leakage energy savings |
//! | `fig12_performance` | Fig. 12 — execution-time overheads |
//! | `fig13_rfc_scaling` | Fig. 13 — RFC vs partitioned RF scaling |
//! | `sens_srf_latency` | §V-C — SRF 3/4/5-cycle sensitivity |
//! | `sens_epoch` | §V-C — epoch-length sensitivity |
//! | `yield_mc` | §IV-A — SRAM Monte Carlo yield study |

pub mod bench_report;
pub mod cache;
pub mod chrometrace;
pub mod digest;
pub mod journal;
pub mod json;
pub mod report;
pub mod runner;
pub mod serve;
pub mod vfs;

pub use bench_report::RunReport;

use std::ffi::OsString;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use prf_core::{ExperimentResult, FaultConfig, PhaseTimings, RepairPolicy, RfKind};
use prf_finfet::{FaultGeometry, FaultMap, SramCell};
use prf_sim::{GpuConfig, SamplingConfig, SchedulerPolicy};
use prf_workloads::Workload;

use crate::cache::ResultCache;
use crate::runner::{Job, RetryPolicy, ShardSpec};

/// The harness configuration of one process: the flags every simulating
/// figure binary accepts and every `PRF_*` environment variable, parsed
/// once by [`harness_args`].
#[derive(Debug)]
pub struct HarnessArgs {
    /// `--audit`: run every simulation under the conservation-invariant
    /// audit (`prf_sim::audit`); the matrix footer counts audited jobs and
    /// violations.
    pub audit: bool,
    /// `--sample <cycles>`: the sampled-telemetry window. `None` keeps
    /// simulation output bit-identical to builds predating telemetry.
    pub sample: Option<SamplingConfig>,
    /// `--faults <seed>,<vdd>`: the fault campaign of every job (see
    /// [`fault_config_for`]), built once and shared.
    pub faults: Option<FaultConfig>,
    /// `--trace-out <path>`: where to write the Chrome trace; also turns on
    /// the pipeline trace ring.
    pub trace_out: Option<PathBuf>,
    /// Every argument that is neither a `--flag` nor a flag's value.
    pub positional: Vec<String>,
    /// `PRF_THREADS`, else `available_parallelism`: matrix worker threads.
    pub threads: usize,
    /// `PRF_NUM_SMS`: replaces the SM count of [`experiment_gpu`].
    pub num_sms: Option<usize>,
    /// `PRF_JOB_TIMEOUT_SECS` (unset or 0: no watchdog), `PRF_JOB_RETRIES`
    /// (default 0) and `PRF_RETRY_BACKOFF_MS` (default 100).
    pub retry: RetryPolicy,
    /// `PRF_SHARD=i/n`; `None` when unset or `n` is 1.
    pub shard: Option<ShardSpec>,
    /// `PRF_CACHE_DIR`: the on-disk result cache.
    pub cache_dir: Option<PathBuf>,
    /// `PRF_JOURNAL_DIR`: `prf-serve`'s write-ahead journal.
    pub journal_dir: Option<PathBuf>,
    /// `PRF_REPORT_DIR`: where `BENCH_<name>.json` lands (default `.`).
    pub report_dir: PathBuf,
    /// `PRF_CSV_DIR`: where CSV tables land; `None` writes none.
    pub csv_dir: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parses `args` (without the program name) and the `PRF_*` variables
    /// that `env` looks up. A value follows its flag as the next argument
    /// or after `=`. Other `--flags` are ignored, so libtest and criterion
    /// arguments pass through. An error names the offending flag or
    /// variable.
    fn parse(
        args: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<OsString>,
    ) -> Result<HarnessArgs, String> {
        let text = |key: &str| {
            env(key)
                .map(|v| {
                    v.into_string()
                        .map_err(|v| format!("{key}: {v:?} is not UTF-8"))
                })
                .transpose()
        };
        let int = |key: &str, min: u64| -> Result<Option<u64>, String> {
            let Some(v) = text(key)? else { return Ok(None) };
            match v.trim().parse::<u64>() {
                Ok(n) if n >= min => Ok(Some(n)),
                _ => Err(format!("{key}: `{v}` is not an integer ≥ {min}")),
            }
        };
        let dir = |key: &str| match env(key) {
            Some(v) if v.is_empty() => Err(format!("{key}: empty path")),
            v => Ok(v.map(PathBuf::from)),
        };
        let shard = text("PRF_SHARD")?
            .map(|v| ShardSpec::parse(&v).map_err(|e| format!("PRF_SHARD: {e}")))
            .transpose()?;
        let mut parsed = HarnessArgs {
            audit: false,
            sample: None,
            faults: None,
            trace_out: None,
            positional: Vec::new(),
            threads: match int("PRF_THREADS", 1)? {
                Some(n) => n as usize,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            num_sms: int("PRF_NUM_SMS", 1)?.map(|n| n as usize),
            retry: RetryPolicy {
                timeout: int("PRF_JOB_TIMEOUT_SECS", 0)?
                    .filter(|&s| s > 0)
                    .map(Duration::from_secs),
                retries: int("PRF_JOB_RETRIES", 0)?.map_or(0, |n| n.min(u32::MAX as u64) as u32),
                backoff: Duration::from_millis(int("PRF_RETRY_BACKOFF_MS", 0)?.unwrap_or(100)),
            },
            shard: shard.filter(|s| s.count > 1),
            cache_dir: dir("PRF_CACHE_DIR")?,
            journal_dir: dir("PRF_JOURNAL_DIR")?,
            report_dir: dir("PRF_REPORT_DIR")?.unwrap_or_else(|| PathBuf::from(".")),
            csv_dir: dir("PRF_CSV_DIR")?,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, v)) => (flag, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let value = || {
                inline
                    .or_else(|| args.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--audit" => parsed.audit = true,
                "--sample" => {
                    let v = value()?;
                    match v.trim().parse::<u64>() {
                        Ok(w) if w >= 1 => parsed.sample = Some(SamplingConfig::every(w)),
                        _ => return Err(format!("{flag}: `{v}` is not a positive cycle count")),
                    }
                }
                "--faults" => {
                    let (seed, vdd) =
                        parse_faults_spec(&value()?).map_err(|e| format!("{flag}: {e}"))?;
                    parsed.faults = Some(fault_config_for(seed, vdd));
                }
                "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
                _ if !arg.starts_with("--") => parsed.positional.push(arg),
                _ => {}
            }
        }
        Ok(parsed)
    }
}

/// This process's [`HarnessArgs`], parsed from `std::env::args` and the
/// `PRF_*` environment variables on first use. This is the only reader of
/// the environment in the harness. A malformed flag or variable prints
/// `error: <flag or variable>: …` and exits with status 2.
pub fn harness_args() -> &'static HarnessArgs {
    static ARGS: OnceLock<HarnessArgs> = OnceLock::new();
    ARGS.get_or_init(|| {
        let env = |key: &str| std::env::var_os(key);
        HarnessArgs::parse(std::env::args().skip(1), env).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    })
}

/// Parses a `--faults` spec of the form `"<seed>,<vdd>"`, e.g. `"42,0.3"`.
pub fn parse_faults_spec(spec: &str) -> Result<(u64, f64), String> {
    let (seed, vdd) = spec
        .split_once(',')
        .ok_or_else(|| format!("`{spec}`: expected `<seed>,<vdd>` (e.g. `42,0.3`)"))?;
    let seed = seed
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("`{spec}`: bad seed: {e}"))?;
    let vdd = vdd
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("`{spec}`: bad vdd: {e}"))?;
    if !(vdd > 0.0 && vdd < 2.0) {
        return Err(format!(
            "`{spec}`: vdd {vdd} V outside the plausible (0, 2) V range"
        ));
    }
    Ok((seed, vdd))
}

/// Builds the standard fault campaign for the figure binaries: a Monte
/// Carlo fault map over the Kepler RF geometry (8T cells at `vdd`, seeded
/// with `seed`) repaired by spare-row remapping with 4 spares per bank.
pub fn fault_config_for(seed: u64, vdd: f64) -> FaultConfig {
    let map = FaultMap::from_montecarlo(SramCell::T8, vdd, FaultGeometry::kepler_rf(), seed);
    FaultConfig::new(map, RepairPolicy::SpareRow { spares_per_bank: 4 })
}

/// The single-SM Kepler configuration used by the workload experiments
/// (register-file behaviour is per-SM; see DESIGN.md). Applies the
/// [`harness_args`] flags `--audit`, `--sample` and `--trace-out` (the
/// last turns on the pipeline trace ring so the Chrome-trace exporter has
/// events to render), plus the multi-SM scaling override
/// [`HarnessArgs::num_sms`].
pub fn experiment_gpu(scheduler: SchedulerPolicy) -> GpuConfig {
    let args = harness_args();
    let base = GpuConfig::kepler_single_sm();
    GpuConfig {
        scheduler,
        audit: args.audit,
        sampling: args.sample,
        trace_capacity: if args.trace_out.is_some() { 65_536 } else { 0 },
        num_sms: args.num_sms.unwrap_or(base.num_sms),
        ..base
    }
}

/// A seed-averaged experiment outcome.
///
/// Derefs to the mean [`ExperimentResult`] so it drops into code written
/// for a single run, and additionally reports the cycle spread across
/// seeds so tables can show run-to-run timing noise.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// Mean result: every counter and energy figure is the per-seed mean
    /// (integer counters round down).
    pub result: ExperimentResult,
    /// Fewest cycles any seed took.
    pub cycles_min: u64,
    /// Most cycles any seed took.
    pub cycles_max: u64,
    /// Number of seeds averaged.
    pub seeds: u64,
}

impl Deref for AveragedResult {
    type Target = ExperimentResult;

    fn deref(&self) -> &ExperimentResult {
        &self.result
    }
}

/// Averages per-seed runs of one workload×RF cell into an
/// [`AveragedResult`]. Panics if `results` is empty.
pub fn average_seed_results(results: &[ExperimentResult]) -> AveragedResult {
    assert!(!results.is_empty(), "averaging zero seed results");
    let seeds = results.len() as u64;
    let mut merged = results[0].clone();
    for r in &results[1..] {
        merged.cycles += r.cycles;
        merged.stats.merge(&r.stats);
        merged.telemetry.merge(&r.telemetry);
        merged.dynamic_energy_pj += r.dynamic_energy_pj;
        merged.repair_energy_pj += r.repair_energy_pj;
        merged.baseline_dynamic_energy_pj += r.baseline_dynamic_energy_pj;
        merged.leakage_energy_pj += r.leakage_energy_pj;
        merged.baseline_leakage_energy_pj += r.baseline_leakage_energy_pj;
        // Wall-clock phases are summed, not averaged: the cell genuinely
        // cost this much compute across its seeds.
        merged.phases.merge(&r.phases);
        merged.per_launch.extend(r.per_launch.iter().cloned());
        if let (Some(m), Some(a)) = (merged.audit.as_mut(), r.audit.as_ref()) {
            m.merge(a);
        }
    }
    merged.cycles /= seeds;
    merged.stats.scale_down(seeds);
    merged.telemetry.scale_down(seeds);
    merged.dynamic_energy_pj /= seeds as f64;
    merged.repair_energy_pj /= seeds as f64;
    merged.baseline_dynamic_energy_pj /= seeds as f64;
    merged.leakage_energy_pj /= seeds as f64;
    merged.baseline_leakage_energy_pj /= seeds as f64;
    AveragedResult {
        result: merged,
        cycles_min: results.iter().map(|r| r.cycles).min().unwrap(),
        cycles_max: results.iter().map(|r| r.cycles).max().unwrap(),
        seeds,
    }
}

/// Builds the per-seed job list for one workload×RF cell. Every job
/// carries the `--faults` campaign when one was requested (see
/// [`HarnessArgs::faults`]).
pub fn seed_jobs(w: &Workload, gpu: &GpuConfig, rf: &RfKind, seeds: u64) -> Vec<Job> {
    assert!(seeds >= 1);
    let faults = &harness_args().faults;
    (0..seeds)
        .map(|seed| {
            let cfg = GpuConfig {
                jitter_seed: seed,
                ..gpu.clone()
            };
            Job::new(format!("{}/{}/seed{seed}", w.name, rf.name()), w, &cfg, rf)
                .with_faults(faults.clone())
        })
        .collect()
}

/// One workload×configuration cell of an evaluation matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload to run.
    pub workload: Workload,
    /// GPU configuration (scheduler, SM count, pipelining, ...). The
    /// jitter seed is overwritten per seed job.
    pub gpu: GpuConfig,
    /// Register-file organisation under test.
    pub rf: RfKind,
}

impl Cell {
    /// Builds a cell (clones its pieces; kernels are `Arc`-shared).
    pub fn new(workload: &Workload, gpu: &GpuConfig, rf: &RfKind) -> Self {
        Cell {
            workload: workload.clone(),
            gpu: gpu.clone(),
            rf: rf.clone(),
        }
    }
}

/// Runs a whole matrix of cells, each averaged over `seeds` jitter seeds
/// (the simulation analogue of averaging repeated hardware runs, washing
/// out timing-resonance noise), through one matrix-engine call. This is
/// how every figure binary simulates: building every cell of a figure up
/// front lets the worker pool chew the entire figure concurrently.
///
/// The engine is configured by [`harness_args`]: its thread count, retry
/// policy, shard and cache directory.
///
/// Returns the per-cell means in input order, the wall-clock
/// [`runner::MatrixReport`] for the binary's footer, and the
/// `BENCH_<bench>.json` [`RunReport`] (per-seed-job outcomes, timings,
/// energy, audit status plus the matrix footer data — see
/// [`bench_report`]). The report still accepts metrics and tables;
/// binaries add their figure-specific numbers and call
/// [`RunReport::write`] at the end. A Chrome trace is written when
/// `--trace-out` was passed. Reporting only observes: the results are
/// those of the simulations.
///
/// A `PRF_SHARD` run computes (and caches) only its slice of the matrix,
/// so it writes its partial report, prints the footer and exits 0 here;
/// merging is a subsequent unsharded run over the shared `PRF_CACHE_DIR`.
///
/// # Panics
///
/// Panics (after writing the report, so failures are still on record)
/// when any job fails beyond the retry budget.
pub fn run_cells_reported(
    bench: &str,
    cells: &[Cell],
    seeds: u64,
) -> (Vec<AveragedResult>, runner::MatrixReport, RunReport) {
    assert!(seeds >= 1);
    let jobs: Vec<Job> = cells
        .iter()
        .flat_map(|c| seed_jobs(&c.workload, &c.gpu, &c.rf, seeds))
        .collect();
    let args = harness_args();
    let (threads, shard) = (args.threads, args.shard);
    let cache = args
        .cache_dir
        .as_deref()
        .and_then(ResultCache::open_or_disable);
    let t0 = Instant::now();
    let outcome =
        runner::run_matrix_resilient_configured(&jobs, args.retry, threads, shard, cache.as_ref());
    let report = matrix_report(&outcome, threads, t0.elapsed(), cache.as_ref());

    let mut run_report = RunReport::new(bench);
    for jr in &outcome.reports {
        run_report.add_job(&jr.name, &jr.outcome, jr.elapsed, jr.result.as_ref());
    }
    run_report.set_matrix(&report);

    if let Some(path) = &args.trace_out {
        let mut trace = chrometrace::ChromeTrace::new();
        for jr in &outcome.reports {
            trace.add_job(jr);
        }
        if let Err(e) = trace.write(path) {
            eprintln!("--trace-out: cannot write {}: {e}", path.display());
        }
    }

    if outcome.failed_jobs() > 0 {
        // Persist what we have before re-raising, so a crashed matrix
        // still leaves a diffable record of which jobs died and how.
        run_report.write();
    }
    let skipped = outcome.skipped_jobs();
    if let Some(spec) = shard.filter(|_| skipped > 0 && outcome.failed_jobs() == 0) {
        run_report.write();
        println!("{}", report.footer());
        eprintln!(
            "[shard {}/{}] executed {} of {} jobs ({skipped} owned by other shards); \
             merge by re-running unsharded with the same PRF_CACHE_DIR",
            spec.index,
            spec.count,
            jobs.len() - skipped,
            jobs.len()
        );
        std::process::exit(0);
    }
    let mut results = outcome.expect_complete().into_iter().map(|jr| jr.result);
    let averaged = cells
        .iter()
        .map(|_| {
            let per_seed: Vec<ExperimentResult> = results.by_ref().take(seeds as usize).collect();
            average_seed_results(&per_seed)
        })
        .collect();
    (averaged, report, run_report)
}

/// The footer accounting for one matrix run: job counts by outcome, audit
/// coverage, cache disposition and durability counters, and per-phase
/// wall-clock totals over the successful jobs.
fn matrix_report(
    outcome: &runner::MatrixOutcome,
    threads: usize,
    elapsed: Duration,
    cache: Option<&ResultCache>,
) -> runner::MatrixReport {
    let jobs = outcome.reports.len();
    let audits: Vec<_> = outcome
        .healthy()
        .filter_map(|r| r.result.as_ref()?.audit.as_ref())
        .collect();
    let mut phase_totals = PhaseTimings::default();
    for r in outcome.healthy().filter_map(|r| r.result.as_ref()) {
        phase_totals.merge(&r.phases);
    }
    let cached = |hit| {
        outcome
            .reports
            .iter()
            .filter(|r| r.cached == Some(hit))
            .count()
    };
    runner::MatrixReport {
        jobs,
        threads: threads.min(jobs.max(1)),
        elapsed,
        audited_jobs: audits.len(),
        audit_violations: audits.iter().map(|a| a.violations.len()).sum(),
        retried_jobs: outcome.retried_jobs(),
        failed_jobs: outcome.failed_jobs(),
        cache_hits: cached(true),
        cache_misses: cached(false),
        skipped_jobs: outcome.skipped_jobs(),
        cache_write_errors: cache.map_or(0, |c| c.write_errors() as usize),
        cache_quarantined: cache.map_or(0, |c| c.quarantined() as usize),
        phase_totals,
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean of a non-empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Prints a standard experiment header.
pub fn header(title: &str, paper_claim: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("paper: {paper_claim}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        geomean(&[]);
    }

    #[test]
    fn faults_spec_round_trips() {
        assert_eq!(parse_faults_spec("42,0.3"), Ok((42, 0.3)));
        assert_eq!(parse_faults_spec(" 7 , 0.55 "), Ok((7, 0.55)));
        assert!(parse_faults_spec("42").is_err(), "missing vdd");
        assert!(parse_faults_spec("x,0.3").is_err(), "bad seed");
        assert!(parse_faults_spec("42,volts").is_err(), "bad vdd");
        assert!(parse_faults_spec("42,-0.3").is_err(), "negative vdd");
        assert!(parse_faults_spec("42,9.0").is_err(), "implausible vdd");
    }

    /// Parses `args` against an environment holding only `vars`.
    fn parse_in(args: &str, vars: &[(&str, &str)]) -> Result<HarnessArgs, String> {
        let env = |key: &str| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| OsString::from(v))
        };
        HarnessArgs::parse(args.split_whitespace().map(String::from), env)
    }

    #[test]
    fn harness_args_parse_flags_values_and_positionals() {
        let parse = |args: &str| parse_in(args, &[]);
        let a = parse("BFS --faults 42,0.3 --sample=100 SRAD").unwrap();
        assert_eq!(a.positional, ["BFS", "SRAD"]);
        assert!(a.faults.is_some() && !a.audit && a.trace_out.is_none());
        assert_eq!(a.sample, Some(SamplingConfig::every(100)));
        let a = parse("--audit --trace-out t.json --sample 50 kmeans").unwrap();
        assert_eq!(a.positional, ["kmeans"]);
        assert!(a.audit && a.faults.is_none());
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        assert_eq!(a.sample, Some(SamplingConfig::every(50)));

        for args in ["--sample 0", "--sample", "--faults 42", "--trace-out"] {
            let err = parse(args).unwrap_err();
            let flag = args.split(' ').next().unwrap();
            assert!(err.contains(flag), "{args}: {err}");
        }

        // libtest arguments pass through untouched.
        let a = parse("--test-threads=2 --nocapture").unwrap();
        assert!(!a.audit && a.sample.is_none() && a.faults.is_none() && a.trace_out.is_none());
        assert!(a.positional.is_empty());
    }

    #[test]
    fn harness_args_parse_the_environment_once_with_one_error_policy() {
        // Unset: the documented defaults.
        let a = parse_in("", &[]).unwrap();
        assert!(a.threads >= 1);
        assert_eq!((a.num_sms, a.shard), (None, None));
        assert_eq!(
            a.retry,
            RetryPolicy {
                timeout: None,
                retries: 0,
                backoff: Duration::from_millis(100),
            }
        );
        assert_eq!(a.report_dir, PathBuf::from("."));
        assert!(a.cache_dir.is_none() && a.journal_dir.is_none() && a.csv_dir.is_none());
        assert!(a.sample.is_none());

        // Valid values keep their meaning.
        let a = parse_in(
            "",
            &[
                ("PRF_THREADS", "3"),
                ("PRF_NUM_SMS", " 8 "),
                ("PRF_JOB_TIMEOUT_SECS", "7"),
                ("PRF_JOB_RETRIES", "2"),
                ("PRF_RETRY_BACKOFF_MS", "0"),
                ("PRF_SHARD", "1/2"),
                ("PRF_CACHE_DIR", "c"),
                ("PRF_JOURNAL_DIR", "j"),
                ("PRF_REPORT_DIR", "r"),
                ("PRF_CSV_DIR", "csv"),
            ],
        )
        .unwrap();
        assert_eq!((a.threads, a.num_sms), (3, Some(8)));
        assert_eq!(
            a.retry,
            RetryPolicy {
                timeout: Some(Duration::from_secs(7)),
                retries: 2,
                backoff: Duration::ZERO,
            }
        );
        assert_eq!(a.shard, Some(ShardSpec { index: 1, count: 2 }));
        assert_eq!(a.cache_dir, Some(PathBuf::from("c")));
        assert_eq!(a.journal_dir, Some(PathBuf::from("j")));
        assert_eq!(a.report_dir, PathBuf::from("r"));
        assert_eq!(a.csv_dir, Some(PathBuf::from("csv")));
        // `0/1` is unsharded and a zero timeout disables the watchdog.
        let a = parse_in("", &[("PRF_SHARD", "0/1"), ("PRF_JOB_TIMEOUT_SECS", "0")]).unwrap();
        assert_eq!((a.shard, a.retry.timeout), (None, None));

        // A malformed value of any variable is an error naming it.
        for (var, bad) in [
            ("PRF_THREADS", "0"),
            ("PRF_NUM_SMS", "x"),
            ("PRF_JOB_TIMEOUT_SECS", "soon"),
            ("PRF_JOB_RETRIES", "x"),
            ("PRF_RETRY_BACKOFF_MS", "1.5"),
            ("PRF_SHARD", "2/2"),
            ("PRF_CACHE_DIR", ""),
            ("PRF_JOURNAL_DIR", ""),
            ("PRF_REPORT_DIR", ""),
            ("PRF_CSV_DIR", ""),
        ] {
            let err = parse_in("", &[(var, bad)]).unwrap_err();
            assert!(err.starts_with(&format!("{var}: ")), "{var}={bad:?}: {err}");
        }
    }

    fn tiny_jobs(n: u64) -> Vec<Job> {
        let w = prf_workloads::suite::bfs();
        let gpu = experiment_gpu(SchedulerPolicy::Gto);
        seed_jobs(&w, &gpu, &RfKind::MrfStv, n)
    }

    fn run_reported(jobs: &[Job]) -> (runner::MatrixOutcome, runner::MatrixReport) {
        let t0 = Instant::now();
        let outcome =
            runner::run_matrix_resilient_configured(jobs, RetryPolicy::none(), 2, None, None);
        let report = matrix_report(&outcome, 2, t0.elapsed(), None);
        (outcome, report)
    }

    #[test]
    fn matrix_report_measures_phases_and_job_elapsed() {
        let (outcome, report) = run_reported(&tiny_jobs(2));
        assert!(report.phase_totals.simulate > Duration::ZERO);
        assert!(report.phase_totals.total() > Duration::ZERO);
        for r in &outcome.reports {
            assert!(r.elapsed > Duration::ZERO);
            let phases = r.result.as_ref().expect("healthy job").phases;
            // A job's phase breakdown cannot exceed its wall-clock span.
            assert!(phases.total() <= r.elapsed + Duration::from_millis(50));
        }
    }

    #[test]
    fn matrix_report_counts_audited_jobs() {
        let mut jobs = tiny_jobs(2);
        jobs[1].gpu.audit = true;
        let (outcome, report) = run_reported(&jobs);
        let results = outcome.expect_complete();
        assert!(results[0].result.audit.is_none());
        let audit = results[1].result.audit.as_ref().expect("audited job");
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(report.jobs, 2);
        assert_eq!(report.audited_jobs, 1);
        assert_eq!(report.audit_violations, 0);
        assert_eq!(report.retried_jobs, 0);
        assert_eq!(report.failed_jobs, 0);
        assert_eq!(report.cache_hits + report.cache_misses, 0);
    }

    #[test]
    fn fault_config_builds_the_kepler_campaign() {
        let cfg = fault_config_for(42, 0.3);
        // NTV 8T arrays have real fault rows; the map is deterministic in
        // the seed, so two builds agree exactly.
        assert!(!cfg.map.is_fault_free(), "NTV map should carry faults");
        assert_eq!(cfg.map.to_text(), fault_config_for(42, 0.3).map.to_text());
    }
}
