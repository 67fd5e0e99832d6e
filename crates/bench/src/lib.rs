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

use std::ops::Deref;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use prf_core::{ExperimentResult, FaultConfig, PhaseTimings, RepairPolicy, RfKind};
use prf_finfet::{FaultGeometry, FaultMap, SramCell};
use prf_sim::{GpuConfig, SamplingConfig, SchedulerPolicy};
use prf_workloads::Workload;

use crate::cache::ResultCache;
use crate::runner::{Job, RetryPolicy};

/// True when the binary was invoked with `--audit`: opts every simulation
/// into the conservation-invariant audit harness (`prf_sim::audit`). The
/// audited counters land in each [`ExperimentResult`] and the matrix
/// footer reports how many jobs were audited and how many violations
/// surfaced (none, unless someone broke the accounting chain).
pub fn audit_from_args() -> bool {
    std::env::args().any(|a| a == "--audit")
}

/// The sampled-telemetry window requested via `--sample <cycles>` (or
/// `--sample=<cycles>`), falling back to the `PRF_SAMPLE_WINDOW`
/// environment variable. `None` — the default — disables sampling, which
/// keeps simulation output bit-identical to builds predating telemetry.
///
/// # Panics
///
/// Panics when a window is present but not a positive integer.
pub fn sampling_from_args() -> Option<SamplingConfig> {
    fn parse(source: &str, v: &str) -> SamplingConfig {
        match v.trim().parse::<u64>() {
            Ok(w) if w >= 1 => SamplingConfig::every(w),
            _ => panic!("{source}: sampling window `{v}` is not a positive cycle count"),
        }
    }
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--sample" {
            let v = args
                .next()
                .unwrap_or_else(|| panic!("--sample needs a window argument (cycles)"));
            return Some(parse("--sample", &v));
        }
        if let Some(v) = arg.strip_prefix("--sample=") {
            return Some(parse("--sample", v));
        }
    }
    std::env::var("PRF_SAMPLE_WINDOW")
        .ok()
        .map(|v| parse("PRF_SAMPLE_WINDOW", &v))
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

/// The fault campaign requested on the command line via
/// `--faults <seed>,<vdd>` (or `--faults=<seed>,<vdd>`), if any.
///
/// # Panics
///
/// Panics when the spec is present but malformed.
pub fn faults_from_args() -> Option<FaultConfig> {
    let mut args = std::env::args();
    let spec = loop {
        let arg = args.next()?;
        if arg == "--faults" {
            break args.next().unwrap_or_else(|| {
                panic!("--faults needs a `<seed>,<vdd>` argument (e.g. --faults 42,0.3)")
            });
        }
        if let Some(spec) = arg.strip_prefix("--faults=") {
            break spec.to_string();
        }
    };
    let (seed, vdd) =
        parse_faults_spec(&spec).unwrap_or_else(|e| panic!("--faults spec invalid: {e}"));
    Some(fault_config_for(seed, vdd))
}

/// Cached [`faults_from_args`]: the Monte Carlo fault map is generated
/// once per process and shared (via `Arc`) by every job.
pub fn campaign_faults() -> Option<FaultConfig> {
    static FAULTS: OnceLock<Option<FaultConfig>> = OnceLock::new();
    FAULTS.get_or_init(faults_from_args).clone()
}

/// The command-line flags that take their value as a separate argument
/// (`--flag value`); parsed by [`sampling_from_args`], [`faults_from_args`]
/// and [`chrometrace::trace_out_from_args`].
const VALUE_FLAGS: [&str; 3] = ["--sample", "--faults", "--trace-out"];

/// The positional arguments in `args`: everything that is neither a
/// `--flag` nor the value after `--sample`, `--faults` or `--trace-out`.
/// Pass `std::env::args().skip(1)`.
pub fn positional_args(args: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            args.next();
        } else if !arg.starts_with("--") {
            positional.push(arg);
        }
    }
    positional
}

/// Number of worker threads for intra-simulation SM parallelism, from the
/// `PRF_SM_THREADS` environment variable. Defaults to 1 (serial stepping).
/// Results are bit-identical at any thread count — this only trades
/// wall-clock for cores on multi-SM configurations (single-SM runs ignore
/// it). Invalid values warn on stderr and fall back to 1, matching the
/// `PRF_THREADS` convention.
pub fn sm_threads_from_env() -> usize {
    if let Ok(v) = std::env::var("PRF_SM_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("PRF_SM_THREADS={v:?} is not a positive integer; using 1"),
        }
    }
    1
}

/// SM-count override from the `PRF_NUM_SMS` environment variable, if set.
/// The figure binaries default to the paper's single-SM configuration
/// (register-file behaviour is per-SM); overriding lets the perf-smoke CI
/// job and scaling experiments exercise the multi-SM driver on the same
/// binaries without changing their reported defaults. Invalid values warn
/// on stderr and are ignored, matching the `PRF_THREADS` convention.
pub fn num_sms_from_env() -> Option<usize> {
    let v = std::env::var("PRF_NUM_SMS").ok()?;
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("PRF_NUM_SMS={v:?} is not a positive integer; using the config default");
            None
        }
    }
}

/// The single-SM Kepler configuration used by the workload experiments
/// (register-file behaviour is per-SM; see DESIGN.md). Honours the
/// `--audit`, `--sample` (see [`sampling_from_args`]) and `--trace-out`
/// command-line flags — the last turns on the pipeline trace ring so the
/// Chrome-trace exporter has events to render — plus the `PRF_NUM_SMS`
/// and `PRF_SM_THREADS` environment overrides for multi-SM scaling runs.
pub fn experiment_gpu(scheduler: SchedulerPolicy) -> GpuConfig {
    let base = GpuConfig::kepler_single_sm();
    GpuConfig {
        scheduler,
        audit: audit_from_args(),
        sampling: sampling_from_args(),
        trace_capacity: if chrometrace::trace_out_from_args().is_some() {
            65_536
        } else {
            0
        },
        num_sms: num_sms_from_env().unwrap_or(base.num_sms),
        sm_threads: sm_threads_from_env(),
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

impl AveragedResult {
    /// Max-minus-min cycle spread as a fraction of the mean — a quick
    /// "how noisy was this timing" figure for report footers.
    pub fn cycle_spread(&self) -> f64 {
        (self.cycles_max - self.cycles_min) as f64 / self.result.cycles.max(1) as f64
    }
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
/// [`campaign_faults`]).
pub fn seed_jobs(w: &Workload, gpu: &GpuConfig, rf: &RfKind, seeds: u64) -> Vec<Job> {
    assert!(seeds >= 1);
    let faults = campaign_faults();
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
/// The engine is configured from the environment: `PRF_THREADS` (see
/// [`runner::threads_from_env`]), `PRF_JOB_*` ([`RetryPolicy::from_env`]),
/// `PRF_SHARD` ([`runner::shard_from_env`]) and `PRF_CACHE_DIR`
/// ([`ResultCache::from_env`]).
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
    let threads = runner::threads_from_env();
    let shard = runner::shard_from_env();
    let cache = ResultCache::from_env();
    let t0 = Instant::now();
    let outcome = runner::run_matrix_resilient_configured(
        &jobs,
        RetryPolicy::from_env(),
        threads,
        shard,
        cache.as_ref(),
    );
    let report = matrix_report(&outcome, threads, t0.elapsed(), cache.as_ref());

    let mut run_report = RunReport::new(bench);
    for jr in &outcome.reports {
        run_report.add_job(&jr.name, &jr.outcome, jr.elapsed, jr.result.as_ref());
    }
    run_report.set_matrix(&report);

    if let Some(path) = chrometrace::trace_out_from_args() {
        let mut trace = chrometrace::ChromeTrace::new();
        for jr in &outcome.reports {
            trace.add_job(jr);
        }
        if let Err(e) = trace.write(&path) {
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

    #[test]
    fn positional_args_skip_flags_and_their_values() {
        let args = ["BFS", "--faults", "42,0.3", "--sample=100", "SRAD"];
        let positional = positional_args(args.map(String::from));
        assert_eq!(positional, ["BFS", "SRAD"]);
        let args = [
            "--audit",
            "--trace-out",
            "t.json",
            "--sample",
            "50",
            "kmeans",
        ];
        assert_eq!(positional_args(args.map(String::from)), ["kmeans"]);
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
