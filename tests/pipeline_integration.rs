//! Cross-crate integration tests: full kernels through the cycle-level
//! pipeline, checking functional results and exact statistics.

use pilot_rf::core::{run_experiment, Launch, PartitionedRfConfig, RfKind};
use pilot_rf::isa::{CmpOp, GridConfig, KernelBuilder, PredReg, Reg, SpecialReg};
use pilot_rf::sim::{BaselineRf, Gpu, GpuConfig, RfPartition, SchedulerPolicy};

fn gpu_config() -> GpuConfig {
    GpuConfig {
        global_mem_words: 1 << 16,
        ..GpuConfig::kepler_single_sm()
    }
}

/// A saxpy-like kernel: y[i] = a*x[i] + y[i].
fn saxpy_kernel() -> pilot_rf::isa::Kernel {
    let mut kb = KernelBuilder::new("saxpy");
    kb.mov_special(Reg(0), SpecialReg::GlobalTid);
    kb.iadd_imm(Reg(1), Reg(0), 0x1000); // &x[i]
    kb.iadd_imm(Reg(2), Reg(0), 0x2000); // &y[i]
    kb.ldg(Reg(3), Reg(1), 0);
    kb.ldg(Reg(4), Reg(2), 0);
    kb.imul_imm(Reg(3), Reg(3), 3); // a = 3
    kb.iadd(Reg(4), Reg(4), Reg(3));
    kb.stg(Reg(2), Reg(4), 0);
    kb.exit();
    kb.build().unwrap()
}

#[test]
fn saxpy_computes_correct_results_end_to_end() {
    let config = gpu_config();
    let mut gpu = Gpu::new(config.clone());
    let n = 256u32;
    gpu.global_mem().load(0x1000, &(0..n).collect::<Vec<u32>>());
    gpu.global_mem()
        .load(0x2000, &(0..n).map(|i| 10 * i).collect::<Vec<u32>>());
    let r = gpu
        .run(saxpy_kernel(), GridConfig::new(2, 128), &|_| {
            Box::new(BaselineRf::stv(24))
        })
        .unwrap();
    assert!(r.cycles > 0);
    for i in [0u32, 1, 77, 255] {
        assert_eq!(
            gpu.global_mem_ref().read(0x2000 + i),
            10 * i + 3 * i,
            "y[{i}] must be a*x + y"
        );
    }
}

#[test]
fn saxpy_results_are_identical_under_every_rf_organisation() {
    // The RF organisation is a *timing* artefact; architectural results
    // must be bit-identical.
    let config = gpu_config();
    let kinds = [
        RfKind::MrfStv,
        RfKind::MrfNtv { latency: 3 },
        RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        RfKind::Rfc(pilot_rf::core::RfcConfig::paper_default()),
    ];
    let launches = [Launch::new(saxpy_kernel(), GridConfig::new(2, 128))];
    let x: Vec<u32> = (0..256).collect();
    let y: Vec<u32> = (0..256).map(|i| 7 * i + 1).collect();
    let mut reference: Option<Vec<u64>> = None;
    for kind in kinds {
        let r = run_experiment(
            &config,
            &kind,
            &launches,
            &[(0x1000, x.clone()), (0x2000, y.clone())],
        )
        .unwrap();
        // Use the per-register access histogram as an architectural
        // fingerprint: it only depends on the executed instruction stream.
        let fp: Vec<u64> = r.stats.reg_accesses.counts().to_vec();
        match &reference {
            None => reference = Some(fp),
            Some(prev) => assert_eq!(prev, &fp, "{} diverged", r.rf_name),
        }
    }
}

#[test]
fn divergent_reduction_kernel_is_correct() {
    // Tree reduction over shuffle: every lane ends with the warp sum.
    let mut kb = KernelBuilder::new("reduce");
    kb.mov_special(Reg(0), SpecialReg::LaneId);
    kb.iadd_imm(Reg(1), Reg(0), 1); // value = lane + 1
    for step in [16u32, 8, 4, 2, 1] {
        // partner = lane ^ step
        kb.mov_imm(Reg(2), step);
        kb.ixor(Reg(3), Reg(0), Reg(2));
        kb.shfl(Reg(4), Reg(1), Reg(3));
        kb.iadd(Reg(1), Reg(1), Reg(4));
    }
    kb.mov_special(Reg(5), SpecialReg::GlobalTid);
    kb.stg(Reg(5), Reg(1), 0);
    kb.exit();
    let k = kb.build().unwrap();

    let mut gpu = Gpu::new(gpu_config());
    gpu.run(k, GridConfig::new(1, 32), &|_| {
        Box::new(BaselineRf::stv(24))
    })
    .unwrap();
    // Sum of 1..=32 = 528 in every lane.
    for lane in 0..32u32 {
        assert_eq!(gpu.global_mem_ref().read(lane), 528);
    }
}

#[test]
fn data_dependent_loops_terminate_and_count() {
    // Per-thread trip counts read from memory; total dynamic instructions
    // must equal the sum over threads of their loop work.
    let mut kb = KernelBuilder::new("ddloop");
    kb.mov_special(Reg(0), SpecialReg::GlobalTid);
    kb.iadd_imm(Reg(1), Reg(0), 0x400);
    kb.ldg(Reg(2), Reg(1), 0); // bound
    kb.mov_imm(Reg(3), 0);
    kb.mov_imm(Reg(4), 0);
    let top = kb.new_label();
    kb.place_label(top);
    kb.iadd_imm(Reg(4), Reg(4), 2);
    kb.iadd_imm(Reg(3), Reg(3), 1);
    kb.setp(PredReg(0), CmpOp::Lt, Reg(3), Reg(2));
    kb.bra_if(PredReg(0), true, top);
    kb.stg(Reg(0), Reg(4), 0);
    kb.exit();
    let k = kb.build().unwrap();

    let mut gpu = Gpu::new(gpu_config());
    // Lane i of warp w gets bound (i % 7) + 1.
    let bounds: Vec<u32> = (0..64).map(|i| (i % 7) + 1).collect();
    gpu.global_mem().load(0x400, &bounds);
    gpu.run(k, GridConfig::new(1, 64), &|_| {
        Box::new(BaselineRf::stv(24))
    })
    .unwrap();
    for (i, b) in bounds.iter().enumerate() {
        assert_eq!(
            gpu.global_mem_ref().read(i as u32),
            2 * b,
            "thread {i} must run {b} iterations"
        );
    }
}

#[test]
fn partitioned_rf_routes_majority_of_skewed_accesses_to_frf() {
    let w = pilot_rf::workloads::by_name("backprop").unwrap();
    let config = gpu_config();
    let r = run_experiment(
        &config,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        &w.launches,
        &w.mem_init,
    )
    .unwrap();
    let pa = &r.stats.partition_accesses;
    let frf = pa.fraction(RfPartition::FrfHigh) + pa.fraction(RfPartition::FrfLow);
    assert!(frf > 0.5, "FRF should capture most accesses, got {frf}");
    assert!(r.dynamic_saving() > 0.40, "saving {}", r.dynamic_saving());
    assert!((r.leakage_saving() - 0.39).abs() < 0.02);
}

#[test]
fn schedulers_all_complete_the_same_work() {
    let w = pilot_rf::workloads::by_name("srad").unwrap();
    let mut instr_counts = Vec::new();
    for policy in [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel {
            active_per_scheduler: 8,
        },
        SchedulerPolicy::FetchGroup { group_size: 8 },
    ] {
        let config = GpuConfig {
            scheduler: policy,
            ..gpu_config()
        };
        let r = run_experiment(&config, &RfKind::MrfStv, &w.launches, &w.mem_init).unwrap();
        instr_counts.push(r.stats.instructions);
    }
    assert!(
        instr_counts.windows(2).all(|w| w[0] == w[1]),
        "all schedulers execute the same instructions: {instr_counts:?}"
    );
}

#[test]
fn multi_sm_runs_match_single_sm_functionally() {
    let kernel = saxpy_kernel;
    let grid = GridConfig::new(8, 128);
    let x: Vec<u32> = (0..1024).collect();
    let y: Vec<u32> = (0..1024).map(|i| i + 5).collect();
    let run = |sms: usize| -> Vec<u32> {
        let config = GpuConfig {
            num_sms: sms,
            ..gpu_config()
        };
        let mut gpu = Gpu::new(config);
        gpu.global_mem().load(0x1000, &x);
        gpu.global_mem().load(0x2000, &y);
        gpu.run(kernel(), grid, &|_| Box::new(BaselineRf::stv(24)))
            .unwrap();
        (0..1024)
            .map(|i| gpu.global_mem_ref().read(0x2000 + i))
            .collect()
    };
    assert_eq!(run(1), run(4));
}

#[test]
fn backprop_two_kernels_remap_between_launches() {
    // The paper: backprop's two kernels have different hot registers; the
    // second launch must re-profile.
    let w = pilot_rf::workloads::by_name("backprop").unwrap();
    let config = gpu_config();
    let r = run_experiment(
        &config,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        &w.launches,
        &w.mem_init,
    )
    .unwrap();
    // Telemetry holds the *last* launch's pilot set: it must contain the
    // second kernel's hot registers (R4/R5/R6-family), not the first's.
    let hot = &r.telemetry.pilot_hot_regs;
    assert!(
        hot.contains(&Reg(4)) || hot.contains(&Reg(5)) || hot.contains(&Reg(6)),
        "second-kernel hot set expected, got {hot:?}"
    );
}
