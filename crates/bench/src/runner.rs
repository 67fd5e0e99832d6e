//! Parallel experiment engine: fans a matrix of independent simulation
//! jobs (workload × RF organisation × scheduler × jitter seed) across a
//! bounded pool of worker threads.
//!
//! Every job owns its configuration, its telemetry sink, and its RNG seed
//! (`GpuConfig::jitter_seed`), so runs share nothing mutable and the
//! parallel results are bit-identical to a serial sweep — the pool only
//! changes *when* a job runs, never what it computes. Results come back in
//! the input order regardless of completion order, so report tables are
//! deterministic too.
//!
//! There is one engine, [`run_matrix_resilient_observed`]; the
//! observer-less [`run_matrix_resilient_configured`] forwards to it. Both
//! take the thread count, retry policy, shard and cache explicitly. The
//! figure harness (`crate::run_cells_reported`) and `prf-serve` take them
//! from the parsed harness configuration (`crate::harness_args`).
//!
//! The engine is crash-proof: each job attempt runs behind
//! `catch_unwind`, optionally under a wall-clock watchdog and with bounded
//! retry-with-backoff ([`RetryPolicy`]). It always returns a
//! [`JobOutcome`] for every job — partial results plus a failure manifest;
//! [`MatrixOutcome::expect_complete`] turns that into the all-or-nothing
//! contract, re-raising the first failure with the job's index and name.
//!
//! Failures are classified before the retry budget is spent: a job whose
//! inputs the validation layer rejects — or whose run returns a
//! *deterministic* [`SimError`] — fails fast as [`JobOutcome::Rejected`]
//! (retrying a pure function of its inputs can only waste the budget),
//! while panics and watchdog timeouts keep the full retry-with-backoff
//! treatment. Invalid jobs are rejected up front, before a worker spawns
//! an attempt thread or arms the watchdog.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use prf_core::{
    run_experiment_with_faults, validate_experiment_inputs, ExperimentResult, FaultConfig,
    PhaseTimings, RfKind,
};
use prf_sim::{GpuConfig, SimError};
use prf_workloads::Workload;

use crate::cache::ResultCache;
use crate::digest::job_digest;

/// One cell of an evaluation matrix: a workload to run under a GPU
/// configuration (which carries the scheduler and jitter seed) and an RF
/// organisation.
#[derive(Debug, Clone)]
pub struct Job {
    /// Report/diagnostic label, e.g. `"BFS/partitioned/seed2"`.
    pub name: String,
    /// The workload (launches + memory image). Cloning is cheap: kernels
    /// and the memory image are behind `Arc`, so every job built from one
    /// workload shares its instruction streams and initial words.
    pub workload: Workload,
    /// Full GPU configuration, including `scheduler` and `jitter_seed`.
    pub gpu: GpuConfig,
    /// Register-file organisation under test.
    pub rf: RfKind,
    /// Optional fault campaign: a variation-derived fault map plus repair
    /// policy wrapped around the RF model (see `prf_core::faults`).
    pub faults: Option<FaultConfig>,
}

impl Job {
    /// Builds a job with an explicit label.
    pub fn new(name: impl Into<String>, workload: &Workload, gpu: &GpuConfig, rf: &RfKind) -> Self {
        Job {
            name: name.into(),
            workload: workload.clone(),
            gpu: gpu.clone(),
            rf: rf.clone(),
            faults: None,
        }
    }

    /// Builds a job labelled `"<workload>/<rf>"`.
    pub fn labeled(workload: &Workload, gpu: &GpuConfig, rf: &RfKind) -> Self {
        Job::new(
            format!("{}/{}", workload.name, rf.name()),
            workload,
            gpu,
            rf,
        )
    }

    /// Attaches (or clears) a fault campaign.
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the job's inputs without simulating anything — the same
    /// checks `run` performs first, exposed so callers (the matrix engine,
    /// `prf-serve`) can reject hostile jobs before committing a worker.
    ///
    /// # Errors
    ///
    /// The first failing check (see
    /// [`prf_core::validate_experiment_inputs`]).
    pub fn validate(&self) -> Result<(), prf_sim::ValidationError> {
        validate_experiment_inputs(&self.gpu, &self.workload.launches, self.faults.as_ref())
    }

    fn run(&self) -> Result<ExperimentResult, SimError> {
        run_experiment_with_faults(
            &self.gpu,
            &self.rf,
            &self.workload.launches,
            &self.workload.mem_init,
            self.faults.as_ref(),
        )
    }
}

/// How one matrix job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Finished on the first attempt.
    Completed,
    /// Finished, but only after retries (`attempts` ≥ 2 counts every
    /// attempt including the successful one).
    Retried {
        /// Total attempts made.
        attempts: u32,
    },
    /// Every attempt panicked; `message` carries the last panic payload.
    Panicked {
        /// Stringified panic payload of the final attempt.
        message: String,
    },
    /// The final attempt exceeded the wall-clock watchdog.
    TimedOut {
        /// The watchdog budget that was exceeded.
        timeout: Duration,
    },
    /// The job's inputs were rejected by the validation layer, or the run
    /// returned a deterministic [`SimError`]. A rejection is a pure
    /// function of the job's inputs, so it fails fast: no retries, no
    /// watchdog, and (for pre-validated jobs) no attempt thread at all.
    Rejected {
        /// The typed error, stringified for the report.
        reason: String,
    },
    /// The job belongs to another shard of a `PRF_SHARD=i/n` run and was
    /// not executed here. Not a failure — the owning shard computes it.
    Skipped,
}

impl JobOutcome {
    /// True when the job produced a result (possibly after retries).
    pub fn succeeded(&self) -> bool {
        matches!(self, JobOutcome::Completed | JobOutcome::Retried { .. })
    }

    /// True when the job needed retries or failed outright — anything a
    /// campaign report should flag. Skipped (sharded-away) jobs are not
    /// degraded; another process computes them.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, JobOutcome::Completed | JobOutcome::Skipped)
    }
}

impl std::fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOutcome::Completed => write!(f, "completed"),
            JobOutcome::Retried { attempts } => write!(f, "completed after {attempts} attempts"),
            JobOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            JobOutcome::TimedOut { timeout } => {
                write!(f, "timed out after {:.1} s", timeout.as_secs_f64())
            }
            JobOutcome::Rejected { reason } => write!(f, "rejected: {reason}"),
            JobOutcome::Skipped => write!(f, "skipped (owned by another shard)"),
        }
    }
}

/// One shard of a multi-process matrix split: this process owns every job
/// whose input index is ≡ `index` (mod `count`). Because every job is
/// self-contained (per-row-seeded fault maps, own jitter seed), the union
/// of all shards' cached results is bit-identical to a serial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Parses an `i/n` spec, e.g. `"0/2"`.
    ///
    /// # Errors
    ///
    /// Rejects malformed specs, `n == 0`, and `i ≥ n`.
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let (i, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("`{spec}`: expected `<i>/<n>` (e.g. `0/2`)"))?;
        let index = i
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("`{spec}`: bad shard index: {e}"))?;
        let count = n
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("`{spec}`: bad shard count: {e}"))?;
        if count == 0 {
            return Err(format!("`{spec}`: shard count must be ≥ 1"));
        }
        if index >= count {
            return Err(format!("`{spec}`: shard index {index} ≥ count {count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// True when this shard executes the job at `job_index`.
    pub fn owns(&self, job_index: usize) -> bool {
        job_index % self.count == self.index
    }
}

/// Watchdog and retry budget for one matrix run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Wall-clock budget per attempt; `None` disables the watchdog (the
    /// attempt runs inline on the worker thread).
    pub timeout: Option<Duration>,
    /// Retries after the first attempt (0 = single attempt).
    pub retries: u32,
    /// Base back-off between attempts (attempt `n` waits `n × backoff`).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// Single attempt, no watchdog — the classic engine behaviour.
    pub fn none() -> Self {
        RetryPolicy {
            timeout: None,
            retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Back-off to sleep before retry `attempt_no` (1-based): linear
    /// `attempt_no × backoff`, saturating at `Duration::MAX`. The naive
    /// `backoff * attempt_no` panics on overflow, so a campaign run with
    /// huge `PRF_RETRY_BACKOFF_MS` × `PRF_JOB_RETRIES` values would crash
    /// the worker instead of retrying.
    pub fn backoff_delay(&self, attempt_no: u32) -> Duration {
        self.backoff.saturating_mul(attempt_no)
    }
}

/// One job's report in a resilient matrix run: its input position, label,
/// how it ended, and the result when it succeeded.
#[derive(Debug)]
pub struct JobReport {
    /// Position in the input job list.
    pub index: usize,
    /// The job's label.
    pub name: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// When this job started, as an offset from the matrix start (jobs
    /// run concurrently, so offsets overlap).
    pub started: Duration,
    /// Wall-clock time this job occupied its worker (all attempts,
    /// including backoff sleeps). For a cache hit this replays the
    /// *original* run's wall-clock, so reports stay bit-identical.
    pub elapsed: Duration,
    /// The experiment result; `None` iff the outcome is a failure or the
    /// job was skipped by sharding.
    pub result: Option<ExperimentResult>,
    /// Cache disposition: `Some(true)` = served from the result cache,
    /// `Some(false)` = executed while a cache was configured (a miss),
    /// `None` = no cache configured, or the job was skipped.
    pub cached: Option<bool>,
}

/// The partial-results view of a matrix run: one [`JobReport`] per input
/// job, in input order, no matter how many jobs crashed or hung.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Per-job reports, in input order.
    pub reports: Vec<JobReport>,
}

impl MatrixOutcome {
    /// Reports of jobs that produced a result.
    pub fn healthy(&self) -> impl Iterator<Item = &JobReport> {
        self.reports.iter().filter(|r| r.result.is_some())
    }

    /// Reports of jobs that failed (panicked, timed out, or were rejected
    /// by input validation). Jobs skipped by sharding are not failures —
    /// another shard computes them.
    pub fn failures(&self) -> impl Iterator<Item = &JobReport> {
        self.reports
            .iter()
            .filter(|r| r.result.is_none() && r.outcome != JobOutcome::Skipped)
    }

    /// Jobs skipped because another `PRF_SHARD` process owns them.
    pub fn skipped_jobs(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome == JobOutcome::Skipped)
            .count()
    }

    /// Jobs that needed retries but eventually succeeded.
    pub fn retried_jobs(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Retried { .. }))
            .count()
    }

    /// Jobs that failed outright.
    pub fn failed_jobs(&self) -> usize {
        self.failures().count()
    }

    /// Multi-line manifest of every non-`Completed` job (empty string when
    /// the whole matrix completed cleanly on first attempts).
    pub fn failure_manifest(&self) -> String {
        self.reports
            .iter()
            .filter(|r| r.outcome.is_degraded())
            .map(|r| format!("job #{} `{}`: {}", r.index, r.name, r.outcome))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Converts to the all-or-nothing result list, panicking with the
    /// failure manifest — first failure's index and name up front — if any
    /// job failed.
    ///
    /// # Panics
    ///
    /// Panics when any job panicked, timed out, or was rejected, or when
    /// the run was sharded (a shard never holds the complete result set —
    /// merge by re-running unsharded against the shared `PRF_CACHE_DIR`).
    pub fn expect_complete(self) -> Vec<JobResult> {
        if self.skipped_jobs() > 0 {
            panic!(
                "sharded run is incomplete: {} of {} jobs were skipped by PRF_SHARD; \
                 merge by re-running unsharded with the same PRF_CACHE_DIR",
                self.skipped_jobs(),
                self.reports.len()
            );
        }
        if self.failed_jobs() > 0 {
            let manifest = self.failure_manifest();
            let first = self
                .failures()
                .next()
                .expect("failed_jobs > 0 implies a failure");
            panic!(
                "experiment job #{} `{}` {}; full manifest:\n{manifest}",
                first.index, first.name, first.outcome
            );
        }
        self.reports
            .into_iter()
            .map(|r| JobResult {
                name: r.name,
                result: r.result.expect("no failures, so every job has a result"),
            })
            .collect()
    }
}

/// One completed matrix cell, in the same position as its input [`Job`].
#[derive(Debug)]
pub struct JobResult {
    /// The job's label, copied through for reports.
    pub name: String,
    /// The experiment outcome.
    pub result: ExperimentResult,
}

/// Wall-clock accounting for one matrix run, for the throughput footer.
#[derive(Debug, Clone, Copy)]
pub struct MatrixReport {
    /// Number of jobs executed.
    pub jobs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole matrix.
    pub elapsed: Duration,
    /// Jobs that ran with the conservation-invariant audit enabled.
    pub audited_jobs: usize,
    /// Total audit violations across all audited jobs (expected 0).
    pub audit_violations: usize,
    /// Jobs that succeeded only after retries.
    pub retried_jobs: usize,
    /// Jobs that failed outright (panicked, timed out, or were rejected by
    /// input validation).
    pub failed_jobs: usize,
    /// Jobs answered from the on-disk result cache (no simulation ran).
    pub cache_hits: usize,
    /// Jobs executed while a cache was configured (simulated, then stored
    /// when cacheable). Zero when `PRF_CACHE_DIR` is unset.
    pub cache_misses: usize,
    /// Jobs skipped because another `PRF_SHARD` process owns them.
    pub skipped_jobs: usize,
    /// Cache store attempts that failed (ENOSPC, rename failure, …) and
    /// degraded to miss-and-recompute. Nonzero means the run completed
    /// but its results were not all persisted.
    pub cache_write_errors: usize,
    /// Cache entries that failed their integrity check on read and were
    /// moved to the `corrupt/` quarantine directory.
    pub cache_quarantined: usize,
    /// Per-phase wall-clock totals summed over every successful job
    /// (CPU-time-like: with N workers this exceeds `elapsed`).
    pub phase_totals: PhaseTimings,
}

impl MatrixReport {
    /// One-line throughput footer, e.g.
    /// `[matrix] 45 jobs on 8 threads in 12.3 s (3.7 jobs/s)`.
    pub fn footer(&self) -> String {
        // Clamp the denominator: a sub-millisecond matrix (empty or trivial
        // job list) must not print `inf`/`NaN` jobs/s.
        let secs = self.elapsed.as_secs_f64();
        let rate = self.jobs as f64 / secs.max(1e-3);
        let audit = if self.audited_jobs > 0 {
            format!(
                " [audit: {}/{} jobs, {} violations]",
                self.audited_jobs, self.jobs, self.audit_violations
            )
        } else {
            String::new()
        };
        let degraded = if self.retried_jobs > 0 || self.failed_jobs > 0 {
            format!(
                " [degraded: {} retried, {} failed]",
                self.retried_jobs, self.failed_jobs
            )
        } else {
            String::new()
        };
        let cache_active = self.cache_hits + self.cache_misses > 0
            || self.cache_write_errors > 0
            || self.cache_quarantined > 0;
        let cache = if cache_active {
            // Degradation segments only appear when nonzero, so a healthy
            // run's footer is unchanged from previous releases.
            let mut seg = format!(
                " [cache: {} hit / {} miss",
                self.cache_hits, self.cache_misses
            );
            if self.cache_write_errors > 0 {
                seg.push_str(&format!(" / {} write-err", self.cache_write_errors));
            }
            if self.cache_quarantined > 0 {
                seg.push_str(&format!(" / {} quarantined", self.cache_quarantined));
            }
            seg.push(']');
            seg
        } else {
            String::new()
        };
        let shard = if self.skipped_jobs > 0 {
            format!(" [shard: {} jobs skipped]", self.skipped_jobs)
        } else {
            String::new()
        };
        let phases = if self.phase_totals.total() > Duration::ZERO {
            format!(" [phases: {}]", self.phase_totals)
        } else {
            String::new()
        };
        format!(
            "[matrix] {} jobs on {} threads in {:.2} s ({:.1} jobs/s){audit}{degraded}{cache}{shard}{phases}",
            self.jobs, self.threads, secs, rate
        )
    }
}

/// Stringifies a panic payload (the common `String`/`&str` cases; anything
/// else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A watchdog attempt's message: the generation (attempt ordinal) that
/// produced it plus the attempt's outcome — the inner `Result` is the
/// attempt's own return value, the outer `Err` a stringified panic.
type AttemptMsg = (u32, Result<Result<ExperimentResult, SimError>, String>);

/// Folds one finished attempt into the engine's failure taxonomy:
/// deterministic [`SimError`]s fail fast as [`JobOutcome::Rejected`];
/// panics (and any future non-deterministic error) stay retryable.
fn classify_attempt(
    finished: Result<Result<ExperimentResult, SimError>, String>,
) -> Result<ExperimentResult, JobOutcome> {
    match finished {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(e)) if e.is_deterministic() => Err(JobOutcome::Rejected {
            reason: e.to_string(),
        }),
        Ok(Err(e)) => Err(JobOutcome::Panicked {
            message: e.to_string(),
        }),
        Err(message) => Err(JobOutcome::Panicked { message }),
    }
}

/// Runs one attempt, catching panics; with a watchdog the attempt runs on
/// a detached thread and is abandoned (not killed — the thread keeps
/// spinning until the process exits) when the budget elapses.
///
/// All attempts of one job share a single channel, so an abandoned
/// attempt that completes *later* can still deliver its message while a
/// retry is waiting. Every message therefore carries the generation that
/// produced it; messages from older generations are discarded, so a
/// timed-out-then-retried job can never report (or cache) the stale
/// attempt's result.
fn run_attempt<F>(
    attempt: &F,
    timeout: Option<Duration>,
    generation: u32,
    tx: &mpsc::Sender<AttemptMsg>,
    rx: &mpsc::Receiver<AttemptMsg>,
) -> Result<ExperimentResult, JobOutcome>
where
    F: Fn() -> Result<ExperimentResult, SimError> + Clone + Send + 'static,
{
    match timeout {
        None => classify_attempt(catch_unwind(AssertUnwindSafe(attempt)).map_err(panic_message)),
        Some(budget) => {
            let attempt = attempt.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(&attempt)).map_err(panic_message);
                // The receiver may have given up already; that's fine.
                let _ = tx.send((generation, outcome));
            });
            let deadline = Instant::now() + budget;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(remaining) {
                    // A previous, abandoned attempt finally finished.
                    // Its result is stale — the watchdog already declared
                    // that generation timed out — so drop it and keep
                    // waiting for the current attempt.
                    Ok((gen, _)) if gen != generation => continue,
                    Ok((_, finished)) => return classify_attempt(finished),
                    Err(_) => return Err(JobOutcome::TimedOut { timeout: budget }),
                }
            }
        }
    }
}

/// Runs one job attempt-by-attempt under a [`RetryPolicy`]: up to
/// `1 + retries` attempts, sleeping `attempt × backoff` between them.
/// Never panics — the closure's own panics become [`JobOutcome::Panicked`].
///
/// Failures are classified: an attempt that *returns* a deterministic
/// [`SimError`] is [`JobOutcome::Rejected`] and ends the job immediately
/// (re-running a pure function of the inputs cannot change the answer),
/// while panics and watchdog timeouts spend the full retry budget.
///
/// Generic over the attempt closure so tests can inject panicking, hanging
/// or flaky work; matrix runs pass an owned [`Job`] clone.
fn run_resilient_job<F>(policy: RetryPolicy, attempt: F) -> (JobOutcome, Option<ExperimentResult>)
where
    F: Fn() -> Result<ExperimentResult, SimError> + Clone + Send + 'static,
{
    let mut last_failure = None;
    // One channel for every attempt of this job: abandoned watchdog
    // threads keep a sender clone, and their late messages are filtered
    // out by generation in `run_attempt`.
    let (tx, rx) = mpsc::channel();
    for attempt_no in 0..=policy.retries {
        if attempt_no > 0 && !policy.backoff.is_zero() {
            std::thread::sleep(policy.backoff_delay(attempt_no));
        }
        match run_attempt(&attempt, policy.timeout, attempt_no, &tx, &rx) {
            Ok(result) => {
                let outcome = if attempt_no == 0 {
                    JobOutcome::Completed
                } else {
                    JobOutcome::Retried {
                        attempts: attempt_no + 1,
                    }
                };
                return (outcome, Some(result));
            }
            Err(failure) => {
                let fail_fast = matches!(failure, JobOutcome::Rejected { .. });
                last_failure = Some(failure);
                if fail_fast {
                    break;
                }
            }
        }
    }
    (last_failure.expect("at least one attempt ran"), None)
}

/// One worker slot's record of a finished job.
struct SlotData {
    outcome: JobOutcome,
    started: Duration,
    elapsed: Duration,
    result: Option<ExperimentResult>,
    cached: Option<bool>,
}

/// [`run_matrix_resilient_observed`] without an observer.
pub fn run_matrix_resilient_configured(
    jobs: &[Job],
    policy: RetryPolicy,
    threads: usize,
    shard: Option<ShardSpec>,
    cache: Option<&ResultCache>,
) -> MatrixOutcome {
    run_matrix_resilient_observed(jobs, policy, threads, shard, cache, None)
}

/// Progress hooks invoked from the worker threads of
/// [`run_matrix_resilient_observed`]. `prf-serve` uses this to journal
/// per-job start/completion records; both methods default to no-ops.
/// Callbacks must be cheap and must not panic — they run inline on the
/// worker, between jobs.
pub trait JobObserver: Sync {
    /// A worker picked up job `index` (after shard filtering; fires for
    /// rejected and cache-answered jobs too).
    fn job_started(&self, _index: usize, _job: &Job) {}
    /// Job `index` reached a terminal outcome (including rejection and
    /// cache hits). Fires after the cache store, so by the time a
    /// journal records completion the result is already published.
    fn job_finished(&self, _index: usize, _job: &Job, _outcome: &JobOutcome) {}
}

/// The matrix engine. Runs every job on a pool of at most `threads`
/// scoped workers pulling from a shared cursor (long simulations don't
/// serialise behind short ones), and returns one [`JobReport`] per input
/// job, in input order — healthy results survive neighbouring crashes and
/// hangs. Every job gets `1 + policy.retries` attempts behind
/// `catch_unwind`, and a watchdog when `policy.timeout` is set.
///
/// With a `shard`, only jobs whose index the shard owns are executed; the
/// rest report [`JobOutcome::Skipped`]. With a `cache`, cacheable jobs are
/// answered from disk when their digest matches a stored entry, and
/// freshly computed results are stored for the next run. The cache store
/// happens on the worker thread *after* `run_resilient_job` returns, so —
/// together with the attempt generation counter — an abandoned watchdog
/// attempt can never publish a stale entry. The `observer`, when given,
/// sees every job start and finish.
pub fn run_matrix_resilient_observed(
    jobs: &[Job],
    policy: RetryPolicy,
    threads: usize,
    shard: Option<ShardSpec>,
    cache: Option<&ResultCache>,
    observer: Option<&dyn JobObserver>,
) -> MatrixOutcome {
    let threads = threads.clamp(1, jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let slots: Vec<Mutex<Option<SlotData>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                if let Some(spec) = shard {
                    if !spec.owns(i) {
                        *slots[i].lock().unwrap() = Some(SlotData {
                            outcome: JobOutcome::Skipped,
                            started: t0.elapsed(),
                            elapsed: Duration::ZERO,
                            result: None,
                            cached: None,
                        });
                        continue;
                    }
                }
                let started = t0.elapsed();
                if let Some(obs) = observer {
                    obs.job_started(i, job);
                }
                // Reject invalid jobs up front: no attempt thread, no
                // watchdog, no retries — a hostile job costs one
                // validation pass, not a worker's retry budget.
                if let Err(e) = job.validate() {
                    let outcome = JobOutcome::Rejected {
                        reason: format!("rejected input: {e}"),
                    };
                    if let Some(obs) = observer {
                        obs.job_finished(i, job, &outcome);
                    }
                    *slots[i].lock().unwrap() = Some(SlotData {
                        outcome,
                        started,
                        elapsed: Duration::ZERO,
                        result: None,
                        cached: None,
                    });
                    continue;
                }
                // Consult the cache before simulating. The digest is only
                // computed when a cache is configured and the job's result
                // would round-trip exactly (see `ResultCache::is_cacheable`).
                let digest = cache
                    .filter(|_| ResultCache::is_cacheable(job))
                    .map(|_| job_digest(job));
                if let (Some(cache), Some(digest)) = (cache, &digest) {
                    if let Some(hit) = cache.load(digest, job) {
                        if let Some(obs) = observer {
                            obs.job_finished(i, job, &hit.outcome);
                        }
                        *slots[i].lock().unwrap() = Some(SlotData {
                            outcome: hit.outcome,
                            started,
                            elapsed: hit.elapsed,
                            result: Some(hit.result),
                            cached: Some(true),
                        });
                        continue;
                    }
                }
                // Owned clone so watchdog attempts can move to a detached
                // thread (cheap: kernels are behind `Arc`).
                let owned = job.clone();
                let job_start = Instant::now();
                let (outcome, result) = run_resilient_job(policy, move || owned.run());
                let elapsed = job_start.elapsed();
                if let (Some(cache), Some(digest), Some(r)) = (cache, &digest, result.as_ref()) {
                    cache.store(digest, job, &outcome, elapsed, r);
                }
                if let Some(obs) = observer {
                    obs.job_finished(i, job, &outcome);
                }
                *slots[i].lock().unwrap() = Some(SlotData {
                    outcome,
                    started,
                    elapsed,
                    result,
                    cached: cache.map(|_| false),
                });
            });
        }
    });

    let reports = slots
        .into_iter()
        .zip(jobs)
        .enumerate()
        .map(|(index, (slot, job))| {
            let data = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| panic!("job `{}` was never executed", job.name));
            JobReport {
                index,
                name: job.name.clone(),
                outcome: data.outcome,
                started: data.started,
                elapsed: data.elapsed,
                result: data.result,
                cached: data.cached,
            }
        })
        .collect();
    MatrixOutcome { reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_sim::SchedulerPolicy;

    fn tiny_jobs(n: usize) -> Vec<Job> {
        let w = prf_workloads::suite::bfs();
        let gpu = crate::experiment_gpu(SchedulerPolicy::Gto);
        (0..n as u64)
            .map(|seed| {
                let gpu = GpuConfig {
                    jitter_seed: seed,
                    ..gpu.clone()
                };
                Job::new(format!("BFS/seed{seed}"), &w, &gpu, &RfKind::MrfStv)
            })
            .collect()
    }

    /// A plain run: no retries, no shard, no cache.
    fn run_plain(jobs: &[Job], threads: usize) -> MatrixOutcome {
        run_matrix_resilient_configured(jobs, RetryPolicy::none(), threads, None, None)
    }

    #[test]
    fn jobs_of_one_workload_share_its_memory_image() {
        let w = prf_workloads::suite::bfs();
        let gpu = GpuConfig::kepler_single_sm();
        let a = Job::labeled(&w, &gpu, &RfKind::MrfStv);
        let b = Job::labeled(&w, &gpu, &RfKind::MrfStv).clone();
        assert!(!w.mem_init.is_empty());
        assert!(std::ptr::eq(&*a.workload.mem_init, &*w.mem_init));
        assert!(std::ptr::eq(&*a.workload.mem_init, &*b.workload.mem_init));
        let seeded = crate::seed_jobs(&w, &gpu, &RfKind::MrfStv, 3);
        for job in &seeded {
            assert!(std::ptr::eq(&*job.workload.mem_init, &*w.mem_init));
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let jobs = tiny_jobs(4);
        let results = run_plain(&jobs, 3).expect_complete();
        assert_eq!(results.len(), 4);
        for (j, r) in jobs.iter().zip(&results) {
            assert_eq!(j.name, r.name);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let jobs = tiny_jobs(3);
        let serial = run_plain(&jobs, 1).expect_complete();
        let parallel = run_plain(&jobs, 3).expect_complete();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.result.cycles, b.result.cycles);
            assert_eq!(a.result.dynamic_energy_pj, b.result.dynamic_energy_pj);
            assert_eq!(
                a.result.stats.partition_accesses,
                b.result.stats.partition_accesses
            );
        }
    }

    #[test]
    fn footer_formats() {
        let r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            audited_jobs: 0,
            audit_violations: 0,
            retried_jobs: 0,
            failed_jobs: 0,
            cache_hits: 0,
            cache_misses: 0,
            skipped_jobs: 0,
            cache_write_errors: 0,
            cache_quarantined: 0,
            phase_totals: PhaseTimings::default(),
        };
        let f = r.footer();
        assert!(f.contains("10 jobs"), "{f}");
        assert!(f.contains("4 threads"), "{f}");
        assert!(f.contains("5.0 jobs/s"), "{f}");
        assert!(
            !f.contains("audit"),
            "unaudited runs keep the old footer: {f}"
        );
        assert!(
            !f.contains("degraded"),
            "clean runs keep the old footer: {f}"
        );
    }

    #[test]
    fn footer_reports_audit_coverage() {
        let r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            audited_jobs: 10,
            audit_violations: 0,
            retried_jobs: 0,
            failed_jobs: 0,
            cache_hits: 0,
            cache_misses: 0,
            skipped_jobs: 0,
            cache_write_errors: 0,
            cache_quarantined: 0,
            phase_totals: PhaseTimings::default(),
        };
        let f = r.footer();
        assert!(f.contains("[audit: 10/10 jobs, 0 violations]"), "{f}");
    }

    #[test]
    fn footer_reports_degraded_jobs() {
        let r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            audited_jobs: 0,
            audit_violations: 0,
            retried_jobs: 2,
            failed_jobs: 1,
            cache_hits: 0,
            cache_misses: 0,
            skipped_jobs: 0,
            cache_write_errors: 0,
            cache_quarantined: 0,
            phase_totals: PhaseTimings::default(),
        };
        let f = r.footer();
        assert!(f.contains("[degraded: 2 retried, 1 failed]"), "{f}");
    }

    #[test]
    fn footer_survives_sub_millisecond_matrices() {
        // Satellite regression: a zero-duration run used to print
        // `inf jobs/s` (and an empty matrix `NaN jobs/s`).
        for jobs in [0, 10] {
            let r = MatrixReport {
                jobs,
                threads: 4,
                elapsed: Duration::ZERO,
                audited_jobs: 0,
                audit_violations: 0,
                retried_jobs: 0,
                failed_jobs: 0,
                cache_hits: 0,
                cache_misses: 0,
                skipped_jobs: 0,
                cache_write_errors: 0,
                cache_quarantined: 0,
                phase_totals: PhaseTimings::default(),
            };
            let f = r.footer();
            assert!(!f.contains("inf"), "{f}");
            assert!(!f.contains("NaN"), "{f}");
        }
    }

    #[test]
    fn footer_reports_phase_totals() {
        let r = MatrixReport {
            jobs: 1,
            threads: 1,
            elapsed: Duration::from_secs(1),
            audited_jobs: 0,
            audit_violations: 0,
            retried_jobs: 0,
            failed_jobs: 0,
            cache_hits: 0,
            cache_misses: 0,
            skipped_jobs: 0,
            cache_write_errors: 0,
            cache_quarantined: 0,
            phase_totals: PhaseTimings {
                setup: Duration::from_millis(5),
                simulate: Duration::from_millis(900),
                energy: Duration::from_millis(2),
                audit: Duration::from_millis(40),
            },
        };
        let f = r.footer();
        assert!(f.contains("[phases: "), "{f}");
        assert!(f.contains("simulate 900.0ms"), "{f}");
    }

    #[test]
    fn resilient_matrix_reports_every_job_and_keeps_healthy_results() {
        let mut jobs = tiny_jobs(3);
        jobs[1].gpu.max_cycles = 1;
        jobs[1].name = "doomed".into();
        let outcome = run_plain(&jobs, 3);
        assert_eq!(outcome.reports.len(), 3);
        for (i, report) in outcome.reports.iter().enumerate() {
            assert_eq!(report.index, i);
            assert_eq!(report.name, jobs[i].name);
        }
        assert_eq!(outcome.reports[0].outcome, JobOutcome::Completed);
        assert!(outcome.reports[0].result.is_some());
        assert!(outcome.reports[2].result.is_some());
        match &outcome.reports[1].outcome {
            // A cycle-limit overrun is a deterministic SimError, so the
            // engine classifies it as a rejection rather than a crash.
            JobOutcome::Rejected { reason } => {
                assert!(reason.contains("cycle"), "reason explains itself: {reason}")
            }
            other => panic!("expected a rejected outcome, got {other}"),
        }
        assert!(outcome.reports[1].result.is_none());
        assert_eq!(outcome.failed_jobs(), 1);
        assert_eq!(outcome.retried_jobs(), 0);
        let manifest = outcome.failure_manifest();
        assert!(manifest.contains("job #1 `doomed`"), "{manifest}");
    }

    #[test]
    #[should_panic(expected = "job #1 `doomed`")]
    fn expect_complete_panics_with_index_and_name() {
        let mut jobs = tiny_jobs(2);
        jobs[1].gpu.max_cycles = 1;
        jobs[1].name = "doomed".into();
        run_plain(&jobs, 2).expect_complete();
    }

    #[test]
    fn flaky_job_succeeds_after_retries() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Arc;
        let job = Arc::new(tiny_jobs(1).remove(0));
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            timeout: None,
            retries: 3,
            backoff: Duration::ZERO,
        };
        let (outcome, result) = run_resilient_job(policy, {
            let calls = Arc::clone(&calls);
            let job = Arc::clone(&job);
            move || {
                if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient failure");
                }
                job.run()
            }
        });
        assert_eq!(outcome, JobOutcome::Retried { attempts: 3 });
        assert!(result.is_some());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_retries_keep_the_last_panic() {
        let policy = RetryPolicy {
            timeout: None,
            retries: 1,
            backoff: Duration::ZERO,
        };
        let (outcome, result) =
            run_resilient_job(policy, || -> Result<ExperimentResult, SimError> {
                panic!("always down")
            });
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "always down".into()
            }
        );
        assert!(result.is_none());
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!(s, ShardSpec { index: 1, count: 3 });
        assert!(!s.owns(0));
        assert!(s.owns(1));
        assert!(!s.owns(2));
        assert!(s.owns(4));
        assert!(ShardSpec::parse("3/3").is_err(), "index must be < count");
        assert!(ShardSpec::parse("0/0").is_err(), "count must be ≥ 1");
        assert!(ShardSpec::parse("a/2").is_err());
        assert!(ShardSpec::parse("2").is_err());
    }

    #[test]
    fn sharded_union_over_cache_matches_serial_exactly() {
        let dir = std::env::temp_dir().join(format!("prf_shard_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::ResultCache::at(&dir);
        let jobs = tiny_jobs(5);
        // Reference: plain serial run, no cache, no shard.
        let serial = run_plain(&jobs, 1);
        // Two shard processes fill the shared cache with their slices.
        for index in 0..2 {
            let spec = ShardSpec { index, count: 2 };
            let outcome = run_matrix_resilient_configured(
                &jobs,
                RetryPolicy::none(),
                2,
                Some(spec),
                Some(&cache),
            );
            assert_eq!(outcome.failed_jobs(), 0);
            let owned = (0..jobs.len()).filter(|&i| spec.owns(i)).count();
            assert_eq!(outcome.skipped_jobs(), jobs.len() - owned);
            for (i, r) in outcome.reports.iter().enumerate() {
                if spec.owns(i) {
                    assert_eq!(r.outcome, JobOutcome::Completed);
                    assert_eq!(r.cached, Some(false), "first shard run must miss");
                } else {
                    assert_eq!(r.outcome, JobOutcome::Skipped);
                    assert!(r.result.is_none());
                }
            }
        }
        // The merge: an unsharded run over the warmed cache. Zero
        // simulations (every job a hit), simulation outputs bit-identical
        // to serial. Wall-clock phase profiles are measurements of *this*
        // host, not simulation outputs — the merge replays the shard
        // runs' timings, so they are excluded from the serial comparison.
        let merged =
            run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 2, None, Some(&cache));
        assert_eq!(merged.reports.len(), serial.reports.len());
        for (a, b) in serial.reports.iter().zip(&merged.reports) {
            assert_eq!(b.cached, Some(true), "merge run must be all cache hits");
            assert_eq!(b.outcome, JobOutcome::Completed);
            assert_eq!(a.name, b.name);
            let mut sa = a.result.clone().unwrap();
            let mut sb = b.result.clone().unwrap();
            sa.phases = PhaseTimings::default();
            sb.phases = PhaseTimings::default();
            assert_eq!(
                sa, sb,
                "cache-merged result must equal the serial run's, field for field"
            );
        }
        // A *second* merge run replays the exact same stored entries —
        // including wall-clock — so it is fully identical to the first.
        let warm =
            run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 2, None, Some(&cache));
        for (a, b) in merged.reports.iter().zip(&warm.reports) {
            assert_eq!(a.result, b.result, "warm replays are bit-identical");
            assert_eq!(a.elapsed, b.elapsed, "stored wall-clock is replayed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_reports_cache_and_shard_segments() {
        let mut r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            audited_jobs: 0,
            audit_violations: 0,
            retried_jobs: 0,
            failed_jobs: 0,
            cache_hits: 7,
            cache_misses: 3,
            skipped_jobs: 0,
            cache_write_errors: 0,
            cache_quarantined: 0,
            phase_totals: PhaseTimings::default(),
        };
        assert!(
            r.footer().contains("[cache: 7 hit / 3 miss]"),
            "{}",
            r.footer()
        );
        r.skipped_jobs = 5;
        assert!(
            r.footer().contains("[shard: 5 jobs skipped]"),
            "{}",
            r.footer()
        );
        r.cache_hits = 0;
        r.cache_misses = 0;
        assert!(!r.footer().contains("[cache:"), "{}", r.footer());
    }

    #[test]
    fn footer_reports_cache_durability_degradation() {
        let mut r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            audited_jobs: 0,
            audit_violations: 0,
            retried_jobs: 0,
            failed_jobs: 0,
            cache_hits: 7,
            cache_misses: 3,
            skipped_jobs: 0,
            cache_write_errors: 2,
            cache_quarantined: 1,
            phase_totals: PhaseTimings::default(),
        };
        assert!(
            r.footer()
                .contains("[cache: 7 hit / 3 miss / 2 write-err / 1 quarantined]"),
            "{}",
            r.footer()
        );
        // Even with zero hits/misses, degradation alone surfaces the segment.
        r.cache_hits = 0;
        r.cache_misses = 0;
        r.cache_quarantined = 0;
        assert!(
            r.footer().contains("[cache: 0 hit / 0 miss / 2 write-err]"),
            "{}",
            r.footer()
        );
    }

    #[test]
    #[should_panic(expected = "skipped by PRF_SHARD")]
    fn expect_complete_rejects_sharded_outcomes() {
        let jobs = tiny_jobs(2);
        let spec = ShardSpec { index: 0, count: 2 };
        run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, Some(spec), None)
            .expect_complete();
    }

    #[test]
    fn backoff_delay_saturates_instead_of_panicking() {
        // Satellite regression: `backoff * attempt_no` panics on overflow,
        // so PRF_RETRY_BACKOFF_MS / PRF_JOB_RETRIES values near the limits
        // crashed the worker thread instead of retrying.
        let policy = RetryPolicy {
            timeout: None,
            retries: u32::MAX,
            backoff: Duration::from_millis(u64::MAX / 100),
        };
        assert_eq!(policy.backoff_delay(u32::MAX), Duration::MAX);
        assert_eq!(policy.backoff_delay(0), Duration::ZERO);
        let sane = RetryPolicy {
            timeout: None,
            retries: 3,
            backoff: Duration::from_millis(100),
        };
        // Linear schedule is unchanged in the non-saturating range.
        assert_eq!(sane.backoff_delay(1), Duration::from_millis(100));
        assert_eq!(sane.backoff_delay(3), Duration::from_millis(300));
    }

    /// A fabricated result whose `cycles` value identifies which attempt
    /// produced it.
    fn marker_result(cycles: u64) -> ExperimentResult {
        ExperimentResult {
            rf_name: "mrf@stv",
            cycles,
            stats: prf_sim::SmStats::new(),
            per_launch: Vec::new(),
            telemetry: Default::default(),
            dynamic_energy_pj: 0.0,
            baseline_dynamic_energy_pj: 0.0,
            leakage_energy_pj: 0.0,
            baseline_leakage_energy_pj: 0.0,
            repair_energy_pj: 0.0,
            phases: PhaseTimings::default(),
            audit: None,
        }
    }

    #[test]
    fn stale_watchdog_result_is_discarded() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Arc;
        // Attempt 0 outlives its watchdog budget (500 ms) and delivers a
        // stale result at ~700 ms — squarely inside attempt 1's wait
        // window (500..1000 ms), *before* attempt 1's own result at
        // ~850 ms. Without generation tagging the retry would adopt the
        // abandoned attempt's result (cycles = 111).
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            timeout: Some(Duration::from_millis(500)),
            retries: 1,
            backoff: Duration::ZERO,
        };
        let (outcome, result) = run_resilient_job(policy, {
            let calls = Arc::clone(&calls);
            move || {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(700));
                    Ok(marker_result(111))
                } else {
                    std::thread::sleep(Duration::from_millis(350));
                    Ok(marker_result(222))
                }
            }
        });
        assert_eq!(outcome, JobOutcome::Retried { attempts: 2 });
        let result = result.expect("retry succeeded");
        assert_eq!(
            result.cycles, 222,
            "job must report the live attempt's result, not the abandoned one's"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn deterministic_failure_skips_the_retry_budget() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Arc;
        let calls = Arc::new(AtomicU32::new(0));
        let policy = RetryPolicy {
            timeout: None,
            retries: 5,
            backoff: Duration::from_secs(60), // would hang the test if slept
        };
        let (outcome, result) = run_resilient_job(policy, {
            let calls = Arc::clone(&calls);
            move || {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(SimError::CycleLimitExceeded { limit: 7 })
            }
        });
        assert!(matches!(outcome, JobOutcome::Rejected { .. }), "{outcome}");
        assert!(result.is_none());
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "a deterministic failure must not be retried"
        );
    }

    #[test]
    fn invalid_job_is_rejected_before_any_attempt_runs() {
        let mut jobs = tiny_jobs(2);
        // A CTA whose register demand exceeds the whole RF can never
        // dispatch: pre-validation rejects it on the worker thread, with
        // no attempt, no watchdog, and zero simulated wall-clock.
        jobs[1].gpu.rf_registers = 1;
        jobs[1].name = "hostile".into();
        let watchdog = RetryPolicy {
            timeout: Some(Duration::from_secs(120)),
            retries: 3,
            backoff: Duration::from_secs(60),
        };
        let outcome = run_matrix_resilient_configured(&jobs, watchdog, 2, None, None);
        assert_eq!(outcome.reports[0].outcome, JobOutcome::Completed);
        match &outcome.reports[1].outcome {
            JobOutcome::Rejected { reason } => {
                assert!(reason.contains("rejected input"), "{reason}");
                assert!(reason.contains("register file"), "{reason}");
            }
            other => panic!("expected a rejection, got {other}"),
        }
        assert_eq!(outcome.reports[1].elapsed, Duration::ZERO);
        assert!(outcome.reports[1].result.is_none());
        assert_eq!(outcome.failed_jobs(), 1);
        let manifest = outcome.failure_manifest();
        assert!(
            manifest.contains("job #1 `hostile`: rejected:"),
            "{manifest}"
        );
    }

    #[test]
    fn rejected_outcome_is_degraded_and_not_successful() {
        let o = JobOutcome::Rejected {
            reason: "invalid config: num_sms: must be at least 1".into(),
        };
        assert!(!o.succeeded());
        assert!(o.is_degraded());
        assert!(o.to_string().starts_with("rejected: "), "{o}");
    }

    #[test]
    fn hanging_job_times_out() {
        let job = std::sync::Arc::new(tiny_jobs(1).remove(0));
        let budget = Duration::from_millis(20);
        let policy = RetryPolicy {
            timeout: Some(budget),
            retries: 0,
            backoff: Duration::ZERO,
        };
        let (outcome, result) = run_resilient_job(policy, move || {
            std::thread::sleep(Duration::from_secs(60));
            job.run()
        });
        assert_eq!(outcome, JobOutcome::TimedOut { timeout: budget });
        assert!(result.is_none());
    }

    #[test]
    fn watchdog_passes_healthy_results_through() {
        let jobs = tiny_jobs(2);
        let plain = run_plain(&jobs, 2);
        let policy = RetryPolicy {
            timeout: Some(Duration::from_secs(120)),
            retries: 2,
            backoff: Duration::from_millis(1),
        };
        let watched = run_matrix_resilient_configured(&jobs, policy, 2, None, None);
        for (a, b) in plain.reports.iter().zip(&watched.reports) {
            assert_eq!(a.outcome, JobOutcome::Completed);
            assert_eq!(b.outcome, JobOutcome::Completed);
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.cycles, rb.cycles);
            assert_eq!(ra.dynamic_energy_pj, rb.dynamic_energy_pj);
        }
    }
}
