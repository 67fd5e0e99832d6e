//! The load-bearing guarantee of the parallel experiment engine: fanning
//! the evaluation matrix across threads changes *when* each simulation
//! runs, never what it computes. A serial sweep and a 4-worker sweep of
//! the same matrix must agree bit-for-bit on every statistic a figure
//! binary reads.

use prf_bench::runner::{run_matrix_resilient_configured, Job, JobResult, RetryPolicy};
use prf_bench::{
    average_seed_results, experiment_gpu, run_cells_reported, seed_jobs, AveragedResult, Cell,
};
use prf_core::{run_experiment_with_faults, PartitionedRfConfig, RfKind, RfcConfig};
use prf_sim::SchedulerPolicy;

/// A plain matrix run (no retries, shard or cache) on `threads` workers.
fn run(jobs: &[Job], threads: usize) -> Vec<JobResult> {
    run_matrix_resilient_configured(jobs, RetryPolicy::none(), threads, None, None)
        .expect_complete()
}

/// 3 workloads (one per Table I category) × 3 RF organisations, each with
/// its own jitter seed — the shape of a real figure matrix.
fn matrix() -> Vec<Job> {
    let mut gpu = experiment_gpu(SchedulerPolicy::Gto);
    // Audited runs: the audit counters must be as deterministic as every
    // other statistic, and the matrix itself must run clean.
    gpu.audit = true;
    let kinds = [
        RfKind::MrfStv,
        RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        RfKind::Rfc(RfcConfig::paper_default()),
    ];
    ["BFS", "MUM", "LIB"]
        .iter()
        .flat_map(|name| {
            let w = prf_workloads::by_name(name).unwrap();
            kinds
                .iter()
                .enumerate()
                .map(|(i, rf)| {
                    let mut gpu = gpu.clone();
                    gpu.jitter_seed = i as u64;
                    Job::labeled(&w, &gpu, rf)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn parallel_matrix_is_bit_identical_to_serial() {
    let jobs = matrix();
    let serial = run(&jobs, 1);
    let parallel = run(&jobs, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "results must come back in input order");
        let (a, b) = (&s.result, &p.result);
        assert_eq!(a.cycles, b.cycles, "{}: cycles differ", s.name);
        assert_eq!(
            a.dynamic_energy_pj, b.dynamic_energy_pj,
            "{}: dynamic energy differs",
            s.name
        );
        assert_eq!(
            a.stats.partition_accesses, b.stats.partition_accesses,
            "{}: partition access counts differ",
            s.name
        );
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert_eq!(a.telemetry, b.telemetry, "{}: telemetry differs", s.name);
        let audit = a.audit.as_ref().expect("audit enabled");
        assert!(audit.is_clean(), "{}: {audit}", s.name);
        assert_eq!(a.audit, b.audit, "{}: audit counters differ", s.name);
    }
}

#[test]
fn seed_averaging_is_thread_count_independent() {
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let w = prf_workloads::by_name("BFS").unwrap();
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let jobs = seed_jobs(&w, &gpu, &rf, 3);
    let averaged = |threads| -> AveragedResult {
        let results: Vec<_> = run(&jobs, threads)
            .into_iter()
            .map(|jr| jr.result)
            .collect();
        average_seed_results(&results)
    };
    let serial = averaged(1);
    let parallel = averaged(4);
    assert_eq!(serial.cycles, parallel.cycles);
    assert_eq!(serial.cycles_min, parallel.cycles_min);
    assert_eq!(serial.cycles_max, parallel.cycles_max);
    assert_eq!(serial.dynamic_energy_pj, parallel.dynamic_energy_pj);
    assert_eq!(
        serial.stats.partition_accesses,
        parallel.stats.partition_accesses
    );
}

/// The single-run figure binaries run one seed per cell through the
/// harness. Averaging over one seed must be the identity: the harness
/// result is bit-identical to calling the simulator directly.
#[test]
fn single_seed_cell_matches_a_direct_run() {
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let w = prf_workloads::by_name("BFS").unwrap();
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let (results, report, _) =
        run_cells_reported("single_seed_identity", &[Cell::new(&w, &gpu, &rf)], 1);
    assert_eq!(report.jobs, 1);
    let harness = &results[0];
    assert_eq!(harness.seeds, 1);
    let direct = run_experiment_with_faults(&gpu, &rf, &w.launches, &w.mem_init, None).unwrap();

    assert_eq!(harness.cycles, direct.cycles);
    assert_eq!(
        (harness.cycles_min, harness.cycles_max),
        (direct.cycles, direct.cycles)
    );
    assert_eq!(harness.stats, direct.stats);
    assert_eq!(harness.stats.reg_accesses, direct.stats.reg_accesses);
    assert_eq!(harness.telemetry, direct.telemetry);
    assert_eq!(harness.dynamic_energy_pj, direct.dynamic_energy_pj);
    assert_eq!(
        harness.baseline_dynamic_energy_pj,
        direct.baseline_dynamic_energy_pj
    );
    assert_eq!(harness.leakage_energy_pj, direct.leakage_energy_pj);
    assert_eq!(
        harness.baseline_leakage_energy_pj,
        direct.baseline_leakage_energy_pj
    );
    assert_eq!(harness.repair_energy_pj, direct.repair_energy_pj);
    assert_eq!(harness.per_launch, direct.per_launch);
    assert_eq!(harness.audit, direct.audit);
}
