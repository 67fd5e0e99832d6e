//! The observability layer must be free of observer effects: sampling
//! off is the exact seed behaviour, sampling on changes nothing but the
//! `samples` field, and the JSON run reports round-trip through the
//! crate's own parser with the documented schema.

use std::time::Duration;

use prf_bench::bench_report::{RunReport, SCHEMA_VERSION};
use prf_bench::experiment_gpu;
use prf_bench::json::Json;
use prf_bench::runner::JobOutcome;
use prf_core::{run_experiment_with_faults, ExperimentResult, PartitionedRfConfig, RfKind};
use prf_sim::{SamplingConfig, SchedulerPolicy};

fn run(sampling: Option<SamplingConfig>, audit: bool) -> ExperimentResult {
    let mut gpu = experiment_gpu(SchedulerPolicy::Gto);
    gpu.sampling = sampling;
    gpu.audit = audit;
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    let w = prf_workloads::by_name("BFS").unwrap();
    run_experiment_with_faults(&gpu, &rf, &w.launches, &w.mem_init, None).unwrap()
}

/// Turning the sampler on must not perturb the simulation: every
/// statistic a figure reads is bit-identical with and without sampling;
/// only the `samples` payload differs.
#[test]
fn sampling_is_observer_effect_free() {
    let off = run(None, false);
    let on = run(Some(SamplingConfig::every(500)), false);

    assert_eq!(off.cycles, on.cycles);
    assert_eq!(off.stats, on.stats);
    assert_eq!(off.telemetry, on.telemetry);
    assert_eq!(off.dynamic_energy_pj, on.dynamic_energy_pj);
    assert_eq!(off.leakage_energy_pj, on.leakage_energy_pj);
    assert_eq!(
        off.baseline_dynamic_energy_pj,
        on.baseline_dynamic_energy_pj
    );

    assert!(off.per_launch.iter().all(|l| l.samples.is_empty()));
    assert!(on.per_launch.iter().all(|l| !l.samples.is_empty()));
}

/// An audited, sampled run stays clean (the audit includes the
/// per-window conservation checks) and the windowed deltas sum back to
/// the final counters, per launch and over the whole experiment.
#[test]
fn sampled_windows_sum_to_final_stats_under_audit() {
    let r = run(Some(SamplingConfig::every(250)), true);
    let audit = r.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{audit}");

    let mut sampled_instructions = 0;
    for launch in &r.per_launch {
        assert!(!launch.samples.is_empty());
        let per_launch: u64 = launch
            .samples
            .iter()
            .map(|s| s.total(|w| w.instructions))
            .sum();
        assert_eq!(per_launch, launch.stats.instructions);
        sampled_instructions += per_launch;
    }
    assert_eq!(sampled_instructions, r.stats.instructions);
}

/// `RunReport::write` emits a `BENCH_<name>.json` that parses with the
/// crate's own parser and carries the documented schema.
#[test]
fn bench_report_round_trips_through_parser() {
    let dir = std::env::temp_dir().join(format!("prf_obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("PRF_REPORT_DIR", &dir);

    let result = run(Some(SamplingConfig::every(1000)), true);
    let mut report = RunReport::new("observability_test");
    report.add_job(
        "BFS/partitioned",
        &JobOutcome::Completed,
        Duration::from_millis(5),
        Some(&result),
    );
    report.add_metric(
        "ipc",
        result.stats.instructions as f64 / result.cycles as f64,
    );
    let path = report.write().expect("report written");
    std::env::remove_var("PRF_REPORT_DIR");

    assert_eq!(path.file_name().unwrap(), "BENCH_observability_test.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc.get("schema_version").unwrap().as_u64(),
        Some(SCHEMA_VERSION)
    );
    assert_eq!(
        doc.get("bench").unwrap().as_str(),
        Some("observability_test")
    );
    let jobs = doc.get("jobs").unwrap().as_arr().unwrap();
    assert_eq!(jobs.len(), 1);
    let job = &jobs[0];
    assert_eq!(job.get("name").unwrap().as_str(), Some("BFS/partitioned"));
    let res = job.get("result").unwrap();
    assert_eq!(res.get("cycles").unwrap().as_u64(), Some(result.cycles));
    assert!(res.get("sampled_windows").unwrap().as_u64().unwrap() > 0);
    let audit = res.get("audit").unwrap();
    assert_eq!(audit.get("clean").unwrap().as_bool(), Some(true));
    assert!(doc
        .get("metrics")
        .unwrap()
        .get("ipc")
        .unwrap()
        .as_f64()
        .is_some());

    std::fs::remove_dir_all(&dir).ok();
}
