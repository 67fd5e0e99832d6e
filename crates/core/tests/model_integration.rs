//! Core-crate integration: all register-file models driven against a
//! common kernel through the full experiment pipeline.

use prf_core::{
    run_experiment, DrowsyConfig, EnergyDelay, Launch, PartitionedRfConfig, ProfilingStrategy,
    RfKind, RfcConfig,
};
use prf_isa::{CmpOp, GridConfig, KernelBuilder, PredReg, Reg, SpecialReg};
use prf_sim::{GpuConfig, SchedulerPolicy};

fn skewed_kernel() -> prf_isa::Kernel {
    let mut kb = KernelBuilder::new("skewed");
    kb.mov_special(Reg(0), SpecialReg::GlobalTid);
    for r in 1..10u8 {
        kb.mov_imm(Reg(r), u32::from(r));
    }
    let top = kb.new_label();
    kb.place_label(top);
    kb.imad(Reg(5), Reg(6), Reg(6), Reg(5));
    kb.iadd_imm(Reg(7), Reg(7), 1);
    kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(7), 24);
    kb.bra_if(PredReg(0), true, top);
    kb.stg(Reg(0), Reg(5), 0);
    kb.exit();
    kb.build().unwrap()
}

fn gpu(policy: SchedulerPolicy) -> GpuConfig {
    GpuConfig {
        scheduler: policy,
        global_mem_words: 1 << 14,
        // Every experiment in this file doubles as a conservation audit,
        // including the cross-crate RFC-writeback and energy checks.
        audit: true,
        ..GpuConfig::kepler_single_sm()
    }
}

/// Asserts the experiment's conservation audit came back clean.
fn assert_clean(r: &prf_core::ExperimentResult) {
    let audit = r.audit.as_ref().expect("audit enabled by gpu()");
    assert!(audit.is_clean(), "{}: {audit}", r.rf_name);
}

fn launches() -> Vec<Launch> {
    vec![Launch::new(skewed_kernel(), GridConfig::new(8, 128))]
}

fn all_kinds() -> Vec<RfKind> {
    vec![
        RfKind::MrfStv,
        RfKind::MrfNtv { latency: 3 },
        RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        RfKind::Partitioned(PartitionedRfConfig {
            strategy: ProfilingStrategy::Compiler,
            ..PartitionedRfConfig::without_adaptive()
        }),
        RfKind::Rfc(RfcConfig::paper_default()),
        RfKind::Drowsy(DrowsyConfig::paper_adjacent()),
    ]
}

#[test]
fn all_models_complete_with_identical_work() {
    let config = gpu(SchedulerPolicy::TwoLevel {
        active_per_scheduler: 8,
    });
    let mut instrs = Vec::new();
    for kind in all_kinds() {
        let r = run_experiment(&config, &kind, &launches(), &[]).unwrap();
        assert!(r.cycles > 0, "{}", r.rf_name);
        assert_clean(&r);
        instrs.push((r.rf_name, r.stats.instructions));
    }
    let first = instrs[0].1;
    for (name, n) in instrs {
        assert_eq!(n, first, "{name} executed a different instruction count");
    }
}

#[test]
fn energy_ordering_across_models() {
    // On a register-skewed kernel: partitioned < NTV < drowsy == STV for
    // dynamic energy per access stream.
    let config = gpu(SchedulerPolicy::Gto);
    let get = |kind: RfKind| {
        let r = run_experiment(&config, &kind, &launches(), &[]).unwrap();
        assert_clean(&r);
        r
    };
    let stv = get(RfKind::MrfStv);
    let ntv = get(RfKind::MrfNtv { latency: 3 });
    let part = get(RfKind::Partitioned(PartitionedRfConfig::paper_default()));
    let drowsy = get(RfKind::Drowsy(DrowsyConfig::paper_adjacent()));

    assert!(part.dynamic_saving() > ntv.dynamic_saving());
    assert!(ntv.dynamic_saving() > 0.40);
    assert!(
        drowsy.dynamic_saving().abs() < 1e-9,
        "drowsy saves no dynamic energy"
    );
    assert!(stv.dynamic_saving().abs() < 1e-9);
}

#[test]
fn partitioned_wins_energy_delay_product() {
    let config = gpu(SchedulerPolicy::Gto);
    let get = |kind: RfKind| run_experiment(&config, &kind, &launches(), &[]).unwrap();
    let stv = get(RfKind::MrfStv);
    let part = get(RfKind::Partitioned(PartitionedRfConfig::paper_default()));
    let base_ed = EnergyDelay::from(&stv);
    let part_ed = EnergyDelay::from(&part);
    assert!(
        part_ed.edp_vs(&base_ed) < 0.85,
        "partitioned EDP ratio {:.3} should be a clear win",
        part_ed.edp_vs(&base_ed)
    );
}

#[test]
fn oracle_profiling_upper_bounds_hybrid_capture() {
    let config = gpu(SchedulerPolicy::Gto);
    let base = run_experiment(&config, &RfKind::MrfStv, &launches(), &[]).unwrap();
    let oracle_set = base.stats.reg_accesses.top_n(4);

    let frf_fraction = |r: &prf_core::ExperimentResult| {
        let pa = &r.stats.partition_accesses;
        pa.fraction(prf_sim::RfPartition::FrfHigh) + pa.fraction(prf_sim::RfPartition::FrfLow)
    };
    let hybrid = run_experiment(
        &config,
        &RfKind::Partitioned(PartitionedRfConfig::without_adaptive()),
        &launches(),
        &[],
    )
    .unwrap();
    let oracle = run_experiment(
        &config,
        &RfKind::Partitioned(PartitionedRfConfig {
            strategy: ProfilingStrategy::Oracle(oracle_set),
            ..PartitionedRfConfig::without_adaptive()
        }),
        &launches(),
        &[],
    )
    .unwrap();
    assert!(
        frf_fraction(&oracle) >= frf_fraction(&hybrid) - 0.02,
        "oracle ({:.3}) must not lose to hybrid ({:.3})",
        frf_fraction(&oracle),
        frf_fraction(&hybrid)
    );
}

#[test]
fn rfc_telemetry_consistency() {
    let config = gpu(SchedulerPolicy::TwoLevel {
        active_per_scheduler: 4,
    });
    let r = run_experiment(
        &config,
        &RfKind::Rfc(RfcConfig::paper_default()),
        &launches(),
        &[],
    )
    .unwrap();
    assert_clean(&r);
    let t = &r.telemetry;
    // Every access is either an RFC hit or a read miss.
    assert_eq!(
        t.rfc_hits + t.rfc_misses,
        r.stats.partition_accesses.total(),
        "RFC accounting must cover every granted access"
    );
    assert!(t.rfc_read_hits <= t.rfc_hits);
    assert!(t.rfc_read_hit_rate() <= t.rfc_hit_rate());
}
