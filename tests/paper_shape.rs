//! Paper-shape assertions: the headline relationships the reproduction
//! must preserve (who wins, roughly by how much, in which direction).
//!
//! These run on a fast subset of the suite; the full sweeps live in the
//! `prf-bench` binaries and are recorded in EXPERIMENTS.md.

use pilot_rf::core::{
    run_experiment, LeakageModel, PartitionedRfConfig, ProfilingStrategy, RfKind,
};
use pilot_rf::finfet::array::{characterize, ArraySpec};
use pilot_rf::sim::{GpuConfig, RfPartition};
use pilot_rf::workloads::{by_name, Workload};

fn gpu() -> GpuConfig {
    GpuConfig::kepler_single_sm()
}

fn run(w: &Workload, rf: &RfKind) -> pilot_rf::core::ExperimentResult {
    run_experiment(&gpu(), rf, &w.launches, &w.mem_init).unwrap()
}

/// Fig. 2's premise: a small register subset dominates accesses.
#[test]
fn top3_registers_dominate_accesses() {
    for name in ["backprop", "srad", "kmeans"] {
        let w = by_name(name).unwrap();
        let r = run(&w, &RfKind::MrfStv);
        let share = r.stats.reg_accesses.top_share(3);
        assert!(
            share > 0.40,
            "{name}: top-3 share {share} should be large (paper avg 62%)"
        );
        assert!(share < 0.95, "{name}: but not the whole file");
    }
}

/// Fig. 4 Category 2: compiler profiling misses dynamically hot registers.
#[test]
fn category2_compiler_identification_is_poor() {
    let w = by_name("sgemm").unwrap();
    let base = run(&w, &RfKind::MrfStv);
    let hist = &base.stats.reg_accesses;
    let part = run(
        &w,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
    );
    let compiler_cov = hist.coverage(&part.telemetry.compiler_hot_regs);
    let pilot_cov = hist.coverage(&part.telemetry.pilot_hot_regs);
    assert!(
        pilot_cov > compiler_cov + 0.10,
        "pilot ({pilot_cov:.2}) must beat compiler ({compiler_cov:.2}) by >10% on sgemm"
    );
}

/// Fig. 4 Category 3: the pilot warp is unrepresentative on LIB.
#[test]
fn category3_pilot_identification_is_poor() {
    let w = by_name("LIB").unwrap();
    let base = run(&w, &RfKind::MrfStv);
    let hist = &base.stats.reg_accesses;
    let part = run(
        &w,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
    );
    let compiler_cov = hist.coverage(&part.telemetry.compiler_hot_regs);
    let pilot_cov = hist.coverage(&part.telemetry.pilot_hot_regs);
    assert!(
        compiler_cov > pilot_cov + 0.10,
        "compiler ({compiler_cov:.2}) must beat pilot ({pilot_cov:.2}) by >10% on LIB"
    );
}

/// Fig. 11: the partitioned RF saves about half the dynamic energy, and
/// beats running the whole MRF at NTV.
#[test]
fn partitioned_dynamic_saving_beats_ntv() {
    let w = by_name("srad").unwrap();
    let part = run(
        &w,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
    );
    let ntv = run(&w, &RfKind::MrfNtv { latency: 3 });
    assert!(
        part.dynamic_saving() > 0.45,
        "partitioned {}",
        part.dynamic_saving()
    );
    assert!(
        part.dynamic_saving() > ntv.dynamic_saving(),
        "partitioned ({:.3}) must beat all-NTV ({:.3})",
        part.dynamic_saving(),
        ntv.dynamic_saving()
    );
    // §V-B: all-NTV saves ~47%.
    assert!((ntv.dynamic_saving() - 0.47).abs() < 0.02);
}

/// §V-B leakage: 39% saving from the FRF/SRF split.
#[test]
fn leakage_saving_matches_paper() {
    let l = LeakageModel::from_finfet();
    assert!((l.partitioned_saving() - 0.39).abs() < 0.02);
    assert!((l.frf_mw / l.mrf_stv_mw - 0.215).abs() < 0.01);
    assert!((l.srf_mw / l.mrf_stv_mw - 0.397).abs() < 0.01);
}

/// Fig. 12 ordering on a latency-tolerant workload: partitioned costs less
/// than all-NTV.
#[test]
fn performance_ordering_partitioned_beats_ntv() {
    let w = by_name("srad").unwrap();
    let base = run(&w, &RfKind::MrfStv);
    let part = run(
        &w,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
    );
    let ntv = run(&w, &RfKind::MrfNtv { latency: 3 });
    assert!(
        part.normalized_time(&base) < ntv.normalized_time(&base),
        "partitioned ({:.3}) must be faster than all-NTV ({:.3})",
        part.normalized_time(&base),
        ntv.normalized_time(&base)
    );
}

/// §V-C: SRF latency sensitivity is modest and (up to simulation noise)
/// monotone. Averaged over jitter seeds like the bench harness does.
#[test]
fn srf_latency_sensitivity_is_monotone() {
    let w = by_name("btree").unwrap();
    let mut cycles = Vec::new();
    for lat in [3u32, 5] {
        let cfg = PartitionedRfConfig {
            srf_latency: lat,
            strategy: ProfilingStrategy::Hybrid,
            ..PartitionedRfConfig::without_adaptive()
        };
        let mut total = 0u64;
        for seed in 0..5 {
            let g = GpuConfig {
                jitter_seed: seed,
                ..gpu()
            };
            total += run_experiment(
                &g,
                &RfKind::Partitioned(cfg.clone()),
                &w.launches,
                &w.mem_init,
            )
            .unwrap()
            .cycles;
        }
        cycles.push(total / 5);
    }
    let ratio = cycles[1] as f64 / cycles[0] as f64;
    assert!(
        ratio > 0.99,
        "slower SRF cannot consistently speed things up: {cycles:?}"
    );
    assert!(
        ratio < 1.25,
        "5-cycle SRF should cost modestly, got {ratio}"
    );
}

/// Fig. 13's energy anchors at the circuit level.
#[test]
fn rfc_energy_scaling_anchors() {
    let mrf = characterize(&ArraySpec::mrf_stv()).access_energy_pj;
    let small = characterize(&ArraySpec::rfc(6, 8, 2, 1, 1)).access_energy_pj;
    let ported = characterize(&ArraySpec::rfc(6, 8, 8, 4, 1)).access_energy_pj;
    assert!(
        (small / mrf - 0.37).abs() < 0.03,
        "R2W1 anchor: {}",
        small / mrf
    );
    assert!(
        (ported / mrf - 3.0).abs() < 0.15,
        "R8W4 anchor: {}",
        ported / mrf
    );
}

/// Fig. 10: adaptive FRF actually uses both power modes across the suite.
#[test]
fn adaptive_frf_uses_both_modes() {
    let mut any_low = false;
    let mut any_high = false;
    for name in ["srad", "sad", "nw"] {
        let w = by_name(name).unwrap();
        let r = run(
            &w,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        );
        let pa = &r.stats.partition_accesses;
        if pa.accesses(RfPartition::FrfLow) > 0 {
            any_low = true;
        }
        if pa.accesses(RfPartition::FrfHigh) > 0 {
            any_high = true;
        }
    }
    assert!(any_high, "high-power FRF accesses expected");
    assert!(
        any_low,
        "low-power FRF accesses expected somewhere in the suite"
    );
}

/// Table I invariants for the whole suite.
#[test]
fn suite_matches_table1_shapes() {
    let suite = pilot_rf::workloads::suite();
    assert_eq!(suite.len(), 17);
    for w in &suite {
        assert_eq!(w.regs_per_thread(), w.table1.regs_per_thread, "{}", w.name);
        assert_eq!(w.threads_per_cta(), w.table1.threads_per_cta, "{}", w.name);
    }
}

/// Pilot-runtime ordering: LIB/WP pilots dominate; bulk workloads do not.
#[test]
fn pilot_runtime_ordering() {
    let frac = |name: &str| {
        let w = by_name(name).unwrap();
        let r = run(
            &w,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        );
        r.per_launch[0].pilot_runtime_fraction().unwrap()
    };
    let bfs = frac("BFS");
    let lib = frac("LIB");
    assert!(bfs < 0.25, "BFS pilot fraction should be small, got {bfs}");
    assert!(lib > 0.40, "LIB pilot fraction should be large, got {lib}");
}
