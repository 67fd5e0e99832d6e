//! Fault-injection smoke test for CI: a small matrix with injected
//! faults, a deliberately rejected job, and a deliberately hanging job
//! must come back as partial results — a [`JobOutcome`] for every job, no
//! lost healthy results, and a clean conservation audit on the faulted
//! runs.

use std::time::Duration;

use prf_bench::runner::{run_matrix_resilient_configured, Job, JobOutcome, RetryPolicy};
use prf_bench::{experiment_gpu, fault_config_for};
use prf_core::RfKind;
use prf_finfet::NTV;
use prf_sim::{GpuConfig, SchedulerPolicy};

/// An audited NTV job carrying the standard fault campaign.
fn faulted_job(name: &str, seed: u64) -> Job {
    let w = prf_workloads::suite::bfs();
    let gpu = GpuConfig {
        jitter_seed: seed,
        audit: true,
        ..experiment_gpu(SchedulerPolicy::Gto)
    };
    Job::new(name, &w, &gpu, &RfKind::MrfNtv { latency: 3 })
        .with_faults(Some(fault_config_for(42, NTV)))
}

#[test]
fn crashing_matrix_returns_partial_results_with_clean_audits() {
    let mut jobs = vec![
        faulted_job("healthy-a", 0),
        faulted_job("doomed", 1),
        faulted_job("healthy-b", 2),
    ];
    // An impossible cycle limit forces a deterministic SimError, which
    // the engine classifies as a fail-fast rejection.
    jobs[1].gpu.max_cycles = 1;

    let outcome = run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 3, None, None);
    assert_eq!(
        outcome.reports.len(),
        jobs.len(),
        "an outcome for every job"
    );

    for (i, name) in ["healthy-a", "healthy-b"]
        .iter()
        .zip([0usize, 2])
        .map(|(n, i)| (i, n))
    {
        let report = &outcome.reports[i];
        assert_eq!(&report.name, name);
        assert_eq!(report.outcome, JobOutcome::Completed);
        let result = report
            .result
            .as_ref()
            .expect("healthy job keeps its result");
        let audit = result.audit.as_ref().expect("audit was enabled");
        assert!(audit.is_clean(), "{audit}");
        assert!(
            result.telemetry.total_fault_repairs() > 0,
            "the NTV fault map must trip repairs"
        );
        assert!(result.repair_energy_pj > 0.0);
    }

    let doomed = &outcome.reports[1];
    assert!(
        matches!(&doomed.outcome, JobOutcome::Rejected { reason } if reason.contains("cycle")),
        "doomed job must report its rejection: {}",
        doomed.outcome
    );
    assert!(doomed.result.is_none());
    assert_eq!(outcome.failed_jobs(), 1);
    assert!(outcome.failure_manifest().contains("job #1 `doomed`"));
}

#[test]
fn hanging_job_times_out_without_taking_the_matrix_down() {
    // A 1 ms watchdog budget: the BFS simulation cannot finish that fast,
    // so the job is reported TimedOut — while a zero-job matrix of
    // neighbours would still drain. (Retries would just time out again;
    // keep the test quick with none.)
    let jobs = vec![faulted_job("too-slow", 0)];
    let policy = RetryPolicy {
        timeout: Some(Duration::from_millis(1)),
        retries: 0,
        backoff: Duration::ZERO,
    };
    let outcome = run_matrix_resilient_configured(&jobs, policy, 1, None, None);
    assert_eq!(outcome.reports.len(), 1);
    assert_eq!(
        outcome.reports[0].outcome,
        JobOutcome::TimedOut {
            timeout: Duration::from_millis(1)
        }
    );
    assert!(outcome.reports[0].result.is_none());
    assert_eq!(outcome.failed_jobs(), 1);
}

#[test]
fn faulted_matrix_is_deterministic_across_thread_counts() {
    let jobs: Vec<Job> = (0..3).map(|s| faulted_job("det", s)).collect();
    let serial = run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, None, None);
    let parallel = run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 3, None, None);
    for (a, b) in serial.reports.iter().zip(&parallel.reports) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.dynamic_energy_pj, rb.dynamic_energy_pj);
        assert_eq!(ra.repair_energy_pj, rb.repair_energy_pj);
        assert_eq!(
            ra.telemetry.total_fault_repairs(),
            rb.telemetry.total_fault_repairs()
        );
    }
}
