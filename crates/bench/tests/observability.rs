//! The observability layer must be free of observer effects: every sink
//! off is the exact seed behaviour, each sink on changes nothing but its
//! own payload, and the JSON run reports round-trip through the crate's
//! own parser with the documented schema.

use std::time::Duration;

use prf_bench::bench_report::{RunReport, SCHEMA_VERSION};
use prf_bench::experiment_gpu;
use prf_bench::json::Json;
use prf_bench::runner::JobOutcome;
use prf_bench::vfs::RealVfs;
use prf_core::{
    run_experiment_with_faults, ExperimentResult, PartitionedRfConfig, RfKind, RfTelemetry,
};
use prf_sim::{SamplingConfig, SchedulerPolicy, SmStats};

/// BFS on the partitioned RF with a sampling window (0 = off), the audit
/// and a trace ring of `trace_capacity` events (0 = off).
fn run(window: u64, audit: bool, trace_capacity: usize) -> ExperimentResult {
    let mut gpu = experiment_gpu(SchedulerPolicy::Gto);
    gpu.sampling = (window > 0).then(|| SamplingConfig::every(window));
    gpu.audit = audit;
    gpu.trace_capacity = trace_capacity;
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let w = prf_workloads::by_name("BFS").unwrap();
    run_experiment_with_faults(&gpu, &rf, &w.launches, &w.mem_init, None).unwrap()
}

/// Everything a figure reads from a run; observer payloads excluded.
fn simulated(r: &ExperimentResult) -> (u64, &SmStats, &RfTelemetry, [f64; 5]) {
    let energies = [
        r.dynamic_energy_pj,
        r.repair_energy_pj,
        r.leakage_energy_pj,
        r.baseline_dynamic_energy_pj,
        r.baseline_leakage_energy_pj,
    ];
    (r.cycles, &r.stats, &r.telemetry, energies)
}

/// No observer perturbs the simulation: with every sink off, with the
/// trace ring, the audit or the sampler on alone, and with all three on,
/// every statistic a figure reads is bit-identical to the all-off run;
/// only each live sink's own payload appears.
#[test]
fn sampling_is_observer_effect_free() {
    let off = run(0, false, 0);
    for (trace, audit, window) in [
        (0, false, 0),
        (4096, false, 0),
        (0, true, 0),
        (0, false, 500),
        (4096, true, 500),
    ] {
        let sinks = format!("trace={trace} audit={audit} sample={window}");
        let on = run(window, audit, trace);
        assert_eq!(simulated(&off), simulated(&on), "{sinks}");
        let clean = on.audit.as_ref().map(|a| a.is_clean());
        assert_eq!(clean, audit.then_some(true), "{sinks}");
        for l in &on.per_launch {
            let empty = (l.trace.is_empty(), l.samples.is_empty());
            assert_eq!(empty, (trace == 0, window == 0), "{sinks}");
        }
    }
}

/// An audited, sampled run stays clean (the audit includes the
/// per-window conservation checks) and the windowed deltas sum back to
/// the final counters, per launch and over the whole experiment.
#[test]
fn sampled_windows_sum_to_final_stats_under_audit() {
    let r = run(250, true, 0);
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

/// `RunReport::write_in` emits a `BENCH_<name>.json` that parses with the
/// crate's own parser and carries the documented schema.
#[test]
fn bench_report_round_trips_through_parser() {
    let dir = std::env::temp_dir().join(format!("prf_obs_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let result = run(1000, true, 0);
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
    let path = report.write_in(&dir, &RealVfs).expect("report written");

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
