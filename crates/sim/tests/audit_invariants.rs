//! End-to-end conservation-invariant audits: every scheduler and kernel
//! shape must produce a clean [`prf_sim::AuditReport`], and a deliberately
//! broken counter must be caught with provenance (the mutation test).

use std::sync::Arc;

use prf_isa::{CmpOp, CtaId, GridConfig, Kernel, KernelBuilder, PredReg, Reg, SpecialReg};
use prf_sim::{BaselineRf, GlobalMemory, Gpu, GpuConfig, KernelImage, SchedulerPolicy, Sm};

fn audited_config(policy: SchedulerPolicy) -> GpuConfig {
    GpuConfig {
        scheduler: policy,
        global_mem_words: 1 << 14,
        audit: true,
        ..GpuConfig::kepler_single_sm()
    }
}

fn alu_loop_kernel(trips: u32) -> Kernel {
    let mut kb = KernelBuilder::new("alu");
    kb.mov_special(Reg(0), SpecialReg::GlobalTid);
    kb.mov_imm(Reg(1), 0);
    kb.mov_imm(Reg(2), 3);
    let top = kb.new_label();
    kb.place_label(top);
    kb.imad(Reg(2), Reg(2), Reg(2), Reg(2));
    kb.iadd_imm(Reg(1), Reg(1), 1);
    kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(1), trips);
    kb.bra_if(PredReg(0), true, top);
    kb.stg(Reg(0), Reg(2), 0);
    kb.exit();
    kb.build().unwrap()
}

fn memory_heavy_kernel() -> Kernel {
    // Loads, stores, shared memory, and a barrier: exercises the LSU, the
    // shared-memory unit, and predicate scoreboarding together.
    let mut kb = KernelBuilder::new("mem");
    kb.mov_special(Reg(0), SpecialReg::TidX);
    kb.ldg(Reg(1), Reg(0), 0);
    kb.sts(Reg(0), Reg(1), 0);
    kb.bar();
    kb.iand_imm(Reg(2), Reg(0), 31);
    kb.lds(Reg(3), Reg(2), 0);
    kb.iadd(Reg(4), Reg(3), Reg(1));
    kb.stg(Reg(0), Reg(4), 256);
    kb.exit();
    kb.build().unwrap()
}

fn divergent_kernel() -> Kernel {
    let mut kb = KernelBuilder::new("div");
    kb.mov_special(Reg(0), SpecialReg::LaneId);
    kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 16);
    let else_ = kb.new_label();
    let join = kb.new_label();
    kb.bra_if(PredReg(0), false, else_);
    kb.mov_imm(Reg(1), 1);
    kb.bra(join);
    kb.place_label(else_);
    kb.mov_imm(Reg(1), 2);
    kb.place_label(join);
    kb.stg(Reg(0), Reg(1), 0);
    kb.exit();
    kb.build().unwrap()
}

#[test]
fn every_scheduler_passes_the_audit_on_an_alu_kernel() {
    for policy in [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel {
            active_per_scheduler: 4,
        },
        SchedulerPolicy::FetchGroup { group_size: 4 },
    ] {
        let mut gpu = Gpu::new(audited_config(policy));
        let r = gpu
            .run(alu_loop_kernel(12), GridConfig::new(8, 256), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        let audit = r.audit.expect("audit enabled");
        assert!(audit.is_clean(), "{policy}: {audit}");
        assert_eq!(audit.issue_events, r.stats.instructions);
        assert!(audit.checks > 0);
    }
}

#[test]
fn memory_and_divergent_kernels_pass_the_audit() {
    for kernel in [memory_heavy_kernel(), divergent_kernel()] {
        let mut gpu = Gpu::new(audited_config(SchedulerPolicy::Gto));
        let r = gpu
            .run(kernel, GridConfig::new(4, 128), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        let audit = r.audit.expect("audit enabled");
        assert!(audit.is_clean(), "{}: {audit}", r.kernel);
        // Memory pipeline really ran and balanced.
        assert_eq!(audit.lsu_complete_events, r.stats.mem_instructions);
    }
}

#[test]
fn multi_sm_ntv_run_passes_the_audit() {
    let config = GpuConfig {
        num_sms: 4,
        scheduler: SchedulerPolicy::Gto,
        global_mem_words: 1 << 14,
        audit: true,
        ..GpuConfig::kepler_gtx780()
    };
    let mut gpu = Gpu::new(config);
    let r = gpu
        .run(alu_loop_kernel(8), GridConfig::new(16, 128), &|_| {
            Box::new(BaselineRf::ntv(24, 3))
        })
        .unwrap();
    let audit = r.audit.expect("audit enabled");
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(audit.rf_events, r.stats.partition_accesses);
}

#[test]
fn audit_is_absent_when_disabled() {
    let config = GpuConfig {
        audit: false,
        global_mem_words: 1 << 14,
        ..GpuConfig::kepler_single_sm()
    };
    let mut gpu = Gpu::new(config);
    let r = gpu
        .run(alu_loop_kernel(4), GridConfig::new(2, 64), &|_| {
            Box::new(BaselineRf::stv(24))
        })
        .unwrap();
    assert!(r.audit.is_none());
}

#[test]
fn tampered_sm_counter_is_caught_with_cycle_and_sm_provenance() {
    // Drive one SM by hand, corrupt a statistics counter the way a silent
    // accounting bug would, and check the audit names the damage.
    let config = audited_config(SchedulerPolicy::Gto);
    let grid = GridConfig::new(2, 64);
    let image = Arc::new(KernelImage::new(alu_loop_kernel(6), grid));
    let mut sm = Sm::new(
        0,
        &config,
        Arc::clone(&image),
        Box::new(BaselineRf::stv(24)),
    );
    sm.notify_kernel_launch(0);
    let global = GlobalMemory::new(config.global_mem_words);
    let mut next_cta = 0u32;
    let mut cycle = 0u64;
    loop {
        while next_cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(next_cta), cycle) {
            next_cta += 1;
        }
        sm.cycle(cycle, &global);
        cycle += 1;
        if next_cta == grid.num_ctas && sm.is_idle() {
            break;
        }
        assert!(cycle < config.max_cycles);
    }

    sm.stats.instructions += 3; // the deliberate drift
    let report = sm.finish_observation(cycle).audit.expect("audit enabled");
    assert!(!report.is_clean());
    let v = &report.violations[0];
    assert_eq!(v.invariant, "issue conservation");
    assert_eq!(v.cycle, cycle);
    assert_eq!(v.sm, Some(0));
    assert!(v.detail.contains("expected"), "{v}");
}
