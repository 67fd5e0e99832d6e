//! The two figure-matrix workloads: `suite_gto` (the plain figure path,
//! skip-ahead eligible) and `audited_tl_4sm` (the same simulator under the
//! two-level scheduler on 4 serially stepped SMs, with the audit, the
//! sampler and a fault campaign on).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prf_bench::runner::{self, Job, JobOutcome, MatrixOutcome, RetryPolicy};
use prf_bench::serve::rf_by_name;
use prf_core::{ExperimentResult, FaultConfig};
use prf_sim::rf::RfPartition;
use prf_sim::{Gpu, GpuConfig, SamplingConfig, SchedulerPolicy, SimError};

use crate::gate::{self, Fingerprint, REFERENCE_SEED};
use crate::metrics::{Metrics, Scope};
use crate::spans::Tracer;
use crate::stats::{self, Tally};
use crate::{peak_rss_mb, serve_mixed, Ctx, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// Length of the serving-path open loop in `audited_tl_4sm`'s traced run:
/// 1000 requests, enough for the probes' p99 to have ten samples beyond.
const SERVE_LAYER_SECONDS: u64 = 10;

/// Which matrix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 17 workloads × {MRF@STV, partitioned, RFC, MRF@NTV}, GTO, 1 SM.
    SuiteGto,
    /// 17 workloads × {partitioned, RFC}, two-level, 4 SMs, audited,
    /// sampled and fault-injected.
    AuditedTl4sm,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::SuiteGto => "suite_gto",
            Kind::AuditedTl4sm => "audited_tl_4sm",
        }
    }

    fn rf_arms(self) -> &'static [&'static str] {
        match self {
            Kind::SuiteGto => &["MRF@STV", "partitioned", "RFC", "MRF@NTV"],
            Kind::AuditedTl4sm => &["partitioned", "RFC"],
        }
    }

    fn gpu(self, seed: u64) -> GpuConfig {
        let base = GpuConfig {
            jitter_seed: seed,
            ..GpuConfig::kepler_single_sm()
        };
        match self {
            Kind::SuiteGto => GpuConfig {
                scheduler: SchedulerPolicy::Gto,
                ..base
            },
            Kind::AuditedTl4sm => GpuConfig {
                scheduler: SchedulerPolicy::TwoLevel {
                    active_per_scheduler: 8,
                },
                num_sms: 4,
                sm_threads: 1,
                audit: true,
                sampling: Some(SamplingConfig::every(1000)),
                ..base
            },
        }
    }
}

/// One set-up: the job list plus how long each step took.
struct Setup {
    jobs: Vec<Job>,
    invalid: usize,
    total: Duration,
    build: Duration,
    faultmap: Duration,
    validate: Duration,
}

fn set_up(kind: Kind, seed: u64, tracer: &mut Tracer) -> Setup {
    let t0 = Instant::now();
    let suite = tracer.time("workloads.build", None, 0, prf_workloads::suite);
    let t1 = Instant::now();
    let faults: Option<FaultConfig> = (kind == Kind::AuditedTl4sm).then(|| {
        tracer.time("finfet.faultmap", None, 0, || {
            prf_bench::fault_config_for(42, 0.3)
        })
    });
    let t2 = Instant::now();
    let gpu = kind.gpu(seed);
    let mut jobs = Vec::new();
    for w in &suite {
        for rf_name in kind.rf_arms() {
            let rf = rf_by_name(rf_name, &gpu).expect("the arms name known RF organisations");
            jobs.push(Job::labeled(w, &gpu, &rf).with_faults(faults.clone()));
        }
    }
    let t3 = Instant::now();
    let invalid = tracer.time("isa.validate", None, 0, || {
        jobs.iter()
            .filter(|j| {
                prf_core::validate_experiment_inputs(
                    &j.gpu,
                    &j.workload.launches,
                    j.faults.as_ref(),
                )
                .is_err()
            })
            .count()
    });
    let t4 = Instant::now();
    Setup {
        jobs,
        invalid,
        total: t4 - t0,
        build: t1 - t0,
        faultmap: t2 - t1,
        validate: t4 - t3,
    }
}

/// Sets up [`SETUP_REPS`] times and returns the last set-up plus the
/// median of each timing.
fn set_up_repeatedly(kind: Kind, seed: u64, tracer: &mut Tracer) -> (Setup, [f64; 4]) {
    let mut samples: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let s = set_up(kind, seed, tracer);
        for (v, d) in samples
            .iter_mut()
            .zip([s.total, s.build, s.faultmap, s.validate])
        {
            v.push(d.as_secs_f64());
        }
        last = Some(s);
    }
    let medians = samples.map(|v| stats::median(&v));
    (last.expect("at least one set-up"), medians)
}

fn run_pass(jobs: &[Job]) -> (MatrixOutcome, Duration) {
    let t0 = Instant::now();
    let outcome = runner::run_matrix_resilient_configured(jobs, RetryPolicy::none(), 1, None, None);
    (outcome, t0.elapsed())
}

/// Applies the correctness gate to one pass: every job completed on its
/// first attempt, audits (when on) are clean, the RF arms of a workload
/// retired identical instruction counts, and at the reference seed every
/// simulated field matches the stored reference.
fn check_pass(
    kind: Kind,
    jobs: &[Job],
    outcome: &MatrixOutcome,
    reference: Option<&[Fingerprint]>,
    tally: &mut Tally,
) {
    let mut first_arm: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, (job, report)) in jobs.iter().zip(&outcome.reports).enumerate() {
        let mut problems = Vec::new();
        match (&report.outcome, &report.result) {
            (JobOutcome::Completed, Some(r)) => {
                if job.gpu.audit && !r.audit.as_ref().is_some_and(|a| a.is_clean()) {
                    problems.push("audit missing or not clean".to_string());
                }
                let insts = *first_arm
                    .entry(job.workload.name)
                    .or_insert(r.stats.instructions);
                if insts != r.stats.instructions {
                    problems.push(format!(
                        "retired {} warp instructions, another RF arm retired {insts}",
                        r.stats.instructions
                    ));
                }
                if let Some(reference) = reference {
                    let fp = Fingerprint::of(&job.name, r);
                    if reference.get(i) != Some(&fp) {
                        problems.push(format!(
                            "differs from the stored seed-{REFERENCE_SEED} reference"
                        ));
                    }
                }
            }
            (other, _) => problems.push(format!("did not complete: {other}")),
        }
        for p in &problems {
            eprintln!("{}: {}: {p}", kind.name(), job.name);
        }
        tally.record(problems.is_empty());
    }
}

fn results(outcome: &MatrixOutcome) -> impl Iterator<Item = &ExperimentResult> {
    outcome.reports.iter().filter_map(|r| r.result.as_ref())
}

/// Runs one job with the `Gpu` driven directly, as `run_experiment` would,
/// and returns (skipped cycles, simulated cycles).
fn drive_gpu(job: &Job) -> Result<(u64, u64), SimError> {
    let telemetry = prf_core::shared_telemetry();
    let mut gpu = Gpu::try_new(job.gpu.clone())?;
    for (base, words) in &job.workload.mem_init {
        gpu.global_mem().load(*base, words);
    }
    let factory = prf_core::faulted_rf_model_factory(
        &job.rf,
        job.gpu.num_rf_banks,
        &telemetry,
        job.faults.clone(),
    );
    let mut cycles = 0;
    for launch in &job.workload.launches {
        cycles += gpu
            .run(Arc::clone(&launch.kernel), launch.grid, &factory)?
            .cycles;
    }
    Ok((gpu.skipped_cycles, cycles))
}

/// Runs one pass at the reference seed and stores its fingerprints as the
/// correctness gate's reference, after the pass's other checks hold.
pub fn write_reference(kind: Kind) -> Result<(), String> {
    let setup = set_up(kind, REFERENCE_SEED, &mut Tracer::new(false));
    let (outcome, _) = run_pass(&setup.jobs);
    let mut tally = Tally::default();
    check_pass(kind, &setup.jobs, &outcome, None, &mut tally);
    if tally.failed > 0 || setup.invalid > 0 {
        return Err(format!(
            "{} jobs failed; reference not written",
            tally.failed
        ));
    }
    let fps: Vec<Fingerprint> = setup
        .jobs
        .iter()
        .zip(results(&outcome))
        .map(|(j, r)| Fingerprint::of(&j.name, r))
        .collect();
    let path = gate::store(kind.name(), &fps).map_err(|e| e.to_string())?;
    println!("wrote {} ({} jobs)", path.display(), fps.len());
    Ok(())
}

/// Runs a matrix workload.
pub fn run(kind: Kind, ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.trace);
    let (setup, [setup_s, build_s, faultmap_s, validate_s]) =
        set_up_repeatedly(kind, ctx.seed, &mut tracer);
    let mut tally = Tally::default();
    for _ in 0..setup.invalid {
        tally.record(false);
    }
    let reference = if ctx.seed == REFERENCE_SEED {
        Some(gate::load(kind.name())?)
    } else {
        None
    };
    let jobs = &setup.jobs;

    // Untraced passes: whole matrices while another one still fits in
    // the time budget, and at least one.
    let budget = Duration::from_secs(ctx.seconds);
    let mut wall = Duration::ZERO;
    let mut pass_walls = Vec::new();
    let mut job_secs: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut job_insts = vec![0u64; jobs.len()];
    // Peak memory of one matrix, read after the first pass: on
    // audited_tl_4sm each later pass raises it by about 1 MB, and how many
    // passes fit depends on host speed.
    let mut rss_mb = None;
    while pass_walls.is_empty() || wall + wall / pass_walls.len() as u32 <= budget {
        let (outcome, elapsed) = run_pass(jobs);
        rss_mb.get_or_insert_with(peak_rss_mb);
        check_pass(kind, jobs, &outcome, reference.as_deref(), &mut tally);
        wall += elapsed;
        pass_walls.push(elapsed.as_secs_f64());
        for (i, r) in outcome.reports.iter().enumerate() {
            if let Some(res) = &r.result {
                job_secs[i].push(r.elapsed.as_secs_f64());
                job_insts[i] = res.stats.instructions;
            }
        }
    }
    // Each job at its median over the passes, so a burst of host
    // contention during one pass moves few jobs. A job that never
    // completed misses every latency limit.
    let latencies: Vec<f64> = job_secs
        .iter()
        .map(|t| {
            if t.is_empty() {
                f64::INFINITY
            } else {
                stats::median(t) * 1e3
            }
        })
        .collect();
    let matrix_secs: f64 = latencies.iter().filter(|l| l.is_finite()).sum::<f64>() / 1e3;
    let matrix_insts: u64 = job_insts.iter().sum();
    let tail = stats::tail(&latencies);
    let mut notes = vec![format!(
        "{}: {} jobs per pass, passes of {:.2?} s; latency tail is p{} of {} per-job medians",
        kind.name(),
        jobs.len(),
        pass_walls,
        tail.pct,
        tail.samples
    )];

    let metrics = if !ctx.trace {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", setup_s);
        m.set("sim_kwips", matrix_insts as f64 / matrix_secs / 1e3);
        m.set("latency_p50_ms", stats::median(&latencies));
        m.set("latency_tail_ms", tail.value);
        m.set("peak_rss_mb", rss_mb.expect("at least one pass"));
        m.set("ok_frac", tally.ok_frac());
        m
    } else {
        let mut m = Metrics::per_layer(|s| match s {
            Scope::All | Scope::Matrix => true,
            Scope::Audited | Scope::Serve => kind == Kind::AuditedTl4sm,
        });
        m.set("workloads.build_ms", build_s * 1e3);
        m.set("isa.validate_ms", validate_s * 1e3);
        if kind == Kind::AuditedTl4sm {
            m.set("finfet.faultmap_ms", faultmap_s * 1e3);
        }
        m.set("latency.samples", tail.samples as f64);
        m.set("latency.tail_pct", tail.pct);
        let untraced = Duration::from_secs_f64(stats::median(&pass_walls));
        traced_pass(
            kind,
            jobs,
            reference.as_deref(),
            untraced,
            &mut tracer,
            &mut tally,
            &mut m,
            &mut notes,
        )?;
        if kind == Kind::AuditedTl4sm {
            // The serving path's layers ride on this workload's traced run:
            // serve_mixed's own latency figures were too unsteady on a
            // shared host to bound (see README.md).
            serve_mixed::trace_layers(
                ctx.seed,
                SERVE_LAYER_SECONDS,
                &mut tracer,
                &mut tally,
                &mut m,
            )?;
        }
        m
    };
    if ctx.trace {
        let path = ctx.trace_path(kind.name());
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    Ok(Outcome {
        tally,
        metrics,
        notes,
    })
}

/// The traced run's extra work: one pass with spans at the runner and
/// phase boundaries, then one pass driving `Gpu` directly for the
/// skip-ahead share. `untraced` is the median wall time of the untraced
/// passes.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    kind: Kind,
    jobs: &[Job],
    reference: Option<&[Fingerprint]>,
    untraced: Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let outcome = runner::run_matrix_resilient_configured(jobs, RetryPolicy::none(), 1, None, None);
    let t1 = Instant::now();
    // Job and phase spans come from the runner's own timings, laid out
    // from each job's start in phase order.
    let matrix = tracer.record("runner.matrix", t0, t1, None, 0);
    let origin = tracer.offset(t0);
    for report in &outcome.reports {
        let id = report.index as u64 + 1;
        let start = origin + report.started;
        let job = tracer.record_offsets("runner.job", start, start + report.elapsed, matrix, id);
        if let Some(r) = &report.result {
            let mut at = start;
            for (name, d) in [
                ("core.setup", r.phases.setup),
                ("sim.simulate", r.phases.simulate),
                ("core.energy", r.phases.energy),
                ("core.audit", r.phases.audit),
            ] {
                tracer.record_offsets(name, at, at + d, job, id);
                at += d;
            }
        }
    }
    check_pass(kind, jobs, &outcome, reference, tally);
    let traced = t1 - t0;

    let mut skipped = 0;
    let mut direct_cycles = 0;
    for (i, (job, report)) in jobs.iter().zip(&outcome.reports).enumerate() {
        let drive = tracer.time("sim.direct", None, i as u64 + 1, || drive_gpu(job));
        let (s, c) = drive.map_err(|e| format!("{}: direct run failed: {e}", job.name))?;
        skipped += s;
        direct_cycles += c;
        // The direct drive must simulate exactly what the runner did.
        let same = report.result.as_ref().is_some_and(|r| r.cycles == c);
        if !same {
            eprintln!(
                "{}: {}: direct Gpu run disagrees on cycles",
                kind.name(),
                job.name
            );
        }
        tally.record(same);
    }

    let selfs = tracer.self_time_by_name();
    let self_s = |name: &str| selfs.get(name).map_or(0.0, Duration::as_secs_f64);
    let sum = |f: &dyn Fn(&ExperimentResult) -> u64| results(&outcome).map(f).sum::<u64>() as f64;
    let cycles = sum(&|r| r.cycles);
    let insts = sum(&|r| r.stats.instructions);
    let simulate_s = self_s("sim.simulate");
    m.set("sim.simulate_s", simulate_s);
    m.set("sim.ns_per_cycle", simulate_s * 1e9 / cycles);
    m.set("sim.ns_per_winst", simulate_s * 1e9 / insts);
    m.set("sim.skip_frac", skipped as f64 / direct_cycles as f64);
    m.set("sim.cycles", cycles);
    m.set("sim.warp_insts", insts);
    m.set(
        "sim.bank_conflict_waits",
        sum(&|r| r.stats.bank_conflict_waits),
    );
    m.set("sim.collector_stalls", sum(&|r| r.stats.collector_stalls));
    m.set("sim.stall_mem", sum(&|r| r.stats.stall_mem));
    m.set("sim.stall_alu_dep", sum(&|r| r.stats.stall_alu_dep));
    m.set("sim.stall_barrier", sum(&|r| r.stats.stall_barrier));
    m.set("core.setup_ms", self_s("core.setup") * 1e3);
    m.set("core.energy_ms", self_s("core.energy") * 1e3);
    if kind == Kind::AuditedTl4sm {
        m.set("core.audit_s", self_s("core.audit"));
        m.set(
            "core.fault_repairs",
            sum(&|r| {
                r.telemetry.fault_remaps + r.telemetry.fault_spills + r.telemetry.fault_escalations
            }),
        );
    }
    let frf = sum(&|r| {
        let p = &r.stats.partition_accesses;
        p.accesses(RfPartition::FrfHigh) + p.accesses(RfPartition::FrfLow)
    });
    m.set(
        "core.frf_access_frac",
        frf / sum(&|r| r.stats.partition_accesses.total()),
    );
    let rfc_hits = sum(&|r| r.telemetry.rfc_hits);
    m.set(
        "core.rfc_hit_frac",
        rfc_hits / (rfc_hits + sum(&|r| r.telemetry.rfc_misses)),
    );
    m.set("runner.overhead_ms", self_s("runner.matrix") * 1e3);
    m.set("runner.retried", outcome.retried_jobs() as f64);
    m.set("runner.failed", outcome.failed_jobs() as f64);
    m.set(
        "trace.overhead_frac",
        (traced.as_secs_f64() - untraced.as_secs_f64()) / untraced.as_secs_f64(),
    );
    notes.push(format!(
        "traced pass {:.2} s vs untraced {:.2} s; skip-ahead skipped {skipped} of {direct_cycles} cycles",
        traced.as_secs_f64(),
        untraced.as_secs_f64()
    ));
    Ok(())
}
