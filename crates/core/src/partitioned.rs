//! The partitioned register file — the paper's proposed design (§III/§IV).
//!
//! One instance exists per SM. It routes every access through the
//! `SwappingTable`: physical registers `0..n-1` of
//! each warp live in the FRF (STV, 1 cycle in high-power mode, 2 in
//! low-power mode), the rest in the SRF (NTV, 3 cycles). The mapping is
//! driven by the configured [`ProfilingStrategy`]; the FRF power mode by
//! the [`AdaptiveFrf`] epoch detector.

use prf_isa::{Kernel, Reg};
use prf_sim::rf::{default_bank, AccessKind, RegisterFileModel, ResolvedAccess, WarpLifecycle};
use prf_sim::RfPartition;

use crate::adaptive::{AdaptiveFrf, AdaptiveFrfConfig, FrfMode};
use crate::profile::{compiler_hot_registers, PilotProfiler, ProfilingStrategy};
use crate::swap_table::SwappingTable;
use crate::telemetry::SharedTelemetry;

/// Configuration of the partitioned register file.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedRfConfig {
    /// FRF registers per thread (the paper's n; 4 in the main evaluation,
    /// giving a 32 KB FRF and 224 KB SRF).
    pub frf_regs: usize,
    /// FRF access latency in high-power mode (cycles).
    pub frf_high_latency: u32,
    /// FRF access latency in low-power mode (cycles).
    pub frf_low_latency: u32,
    /// SRF access latency (3 in the main evaluation; 4 and 5 in the §V-C
    /// sensitivity study).
    pub srf_latency: u32,
    /// Register-file banks.
    pub num_banks: usize,
    /// How hot registers are identified.
    pub strategy: ProfilingStrategy,
    /// Adaptive FRF epoch detection; `None` pins the FRF in high-power
    /// mode (the plain "partitioned RF" bars of Fig. 11).
    pub adaptive: Option<AdaptiveFrfConfig>,
    /// Conservative swap-table pipelining: the paper integrates the
    /// 55–105 ps CAM search into the register access, but also evaluates
    /// the case where it "adds one cycle to the register access pipeline"
    /// and reports <1% overhead (§III-B). Set to add that cycle.
    pub swap_table_extra_cycle: bool,
}

impl PartitionedRfConfig {
    /// The paper's preferred design: n = 4, 1/2/3-cycle latencies, hybrid
    /// profiling, adaptive FRF on.
    pub fn paper_default(num_banks: usize) -> Self {
        PartitionedRfConfig {
            frf_regs: 4,
            frf_high_latency: 1,
            frf_low_latency: 2,
            srf_latency: 3,
            num_banks,
            strategy: ProfilingStrategy::Hybrid,
            adaptive: Some(AdaptiveFrfConfig::paper_default()),
            swap_table_extra_cycle: false,
        }
    }

    /// Same design without the adaptive FRF (always high-power).
    pub fn without_adaptive(num_banks: usize) -> Self {
        PartitionedRfConfig {
            adaptive: None,
            ..Self::paper_default(num_banks)
        }
    }
}

/// The per-SM partitioned register file model.
#[derive(Debug)]
pub struct PartitionedRf {
    config: PartitionedRfConfig,
    swap: SwappingTable,
    pilot: PilotProfiler,
    adaptive: AdaptiveFrf,
    telemetry: SharedTelemetry,
    /// Only SM 0 writes the hot-register telemetry to avoid cross-SM
    /// clobbering (all SMs converge to the same sets anyway). Every SM
    /// adds its FRF epochs at the end of each launch.
    is_reporting_sm: bool,
    launch_cycle: u64,
}

impl PartitionedRf {
    /// Creates the model for one SM.
    pub fn new(sm_id: usize, config: PartitionedRfConfig, telemetry: SharedTelemetry) -> Self {
        let swap = SwappingTable::new(config.frf_regs);
        let adaptive = AdaptiveFrf::new(config.adaptive.unwrap_or_default());
        PartitionedRf {
            config,
            swap,
            pilot: PilotProfiler::new(),
            adaptive,
            telemetry,
            is_reporting_sm: sm_id == 0,
            launch_cycle: 0,
        }
    }

    /// Current architected→physical mapping (for inspection/tests).
    pub fn swap_table(&self) -> &SwappingTable {
        &self.swap
    }

    /// Current FRF power mode.
    pub fn frf_mode(&self) -> FrfMode {
        if self.config.adaptive.is_some() {
            self.adaptive.mode()
        } else {
            FrfMode::High
        }
    }
}

impl RegisterFileModel for PartitionedRf {
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        _kind: AccessKind,
        _cycle: u64,
    ) -> ResolvedAccess {
        let phys = self.swap.lookup(reg);
        let (mut latency, partition) = if phys.index() < self.config.frf_regs {
            match self.frf_mode() {
                FrfMode::High => (self.config.frf_high_latency, RfPartition::FrfHigh),
                FrfMode::Low => (self.config.frf_low_latency, RfPartition::FrfLow),
            }
        } else {
            (self.config.srf_latency, RfPartition::Srf)
        };
        if self.config.swap_table_extra_cycle {
            latency += 1;
        }
        ResolvedAccess {
            bank: default_bank(warp_slot, phys.index(), self.config.num_banks),
            latency,
            partition,
            phys_reg: phys.index(),
            repair: None,
        }
    }

    fn observe_access(&mut self, warp_slot: usize, reg: Reg, _kind: AccessKind, _cycle: u64) {
        if self.config.strategy.uses_pilot() {
            self.pilot.observe(warp_slot, reg);
        }
    }

    fn frf_low_mode(&self) -> Option<bool> {
        self.config
            .adaptive
            .is_some()
            .then(|| self.frf_mode() == FrfMode::Low)
    }

    fn tick(&mut self, _cycle: u64, issued: u32) {
        if self.config.adaptive.is_some() {
            self.adaptive.tick(issued);
        }
    }

    fn on_launch_end(&mut self) {
        // Taken, not read, so the counts of a launch are added once.
        let high = std::mem::take(&mut self.adaptive.high_epochs);
        let low = std::mem::take(&mut self.adaptive.low_epochs);
        let mut t = self.telemetry.lock().unwrap();
        t.frf_high_epochs += high;
        t.frf_low_epochs += low;
    }

    fn on_kernel_launch(&mut self, kernel: &Kernel, cycle: u64) {
        self.launch_cycle = cycle;
        self.adaptive.reset();
        self.swap.reset();
        match &self.config.strategy {
            ProfilingStrategy::StaticFirstN => {}
            ProfilingStrategy::Oracle(hot) => {
                let hot = hot.clone();
                self.swap.apply_hot_registers(&hot);
            }
            strategy => {
                if strategy.uses_compiler() {
                    let hot = compiler_hot_registers(kernel, self.config.frf_regs);
                    if self.is_reporting_sm {
                        self.telemetry.lock().unwrap().compiler_hot_regs = hot.clone();
                    }
                    self.swap.apply_hot_registers(&hot);
                }
            }
        }
        if self.config.strategy.uses_pilot() {
            self.pilot.on_kernel_launch();
        }
    }

    fn on_warp_start(&mut self, warp: WarpLifecycle, _cycle: u64) {
        if self.config.strategy.uses_pilot() {
            self.pilot.on_warp_start(warp.slot);
        }
    }

    fn on_warp_finish(&mut self, warp: WarpLifecycle, cycle: u64) {
        if !self.config.strategy.uses_pilot() {
            return;
        }
        if let Some(hot) = self.pilot.on_warp_finish(warp.slot, self.config.frf_regs) {
            // Reset-then-apply, as in Fig. 6c.
            self.swap.apply_hot_registers(&hot);
            if self.is_reporting_sm {
                let mut t = self.telemetry.lock().unwrap();
                t.pilot_hot_regs = hot;
                t.pilot_done_cycle = Some(cycle - self.launch_cycle);
            }
        }
    }

    fn name(&self) -> &str {
        "partitioned-rf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{shared_telemetry, snapshot};
    use prf_isa::KernelBuilder;

    fn test_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("k");
        // R10 dominates statically.
        kb.mov_imm(Reg(10), 1);
        kb.iadd(Reg(10), Reg(10), Reg(10));
        kb.iadd(Reg(5), Reg(10), Reg(10));
        kb.exit();
        kb.build().unwrap()
    }

    fn hybrid_rf() -> (PartitionedRf, SharedTelemetry) {
        let t = shared_telemetry();
        let rf = PartitionedRf::new(
            0,
            PartitionedRfConfig::paper_default(24),
            std::sync::Arc::clone(&t),
        );
        (rf, t)
    }

    #[test]
    fn static_first_n_routes_low_regs_to_frf() {
        let t = shared_telemetry();
        let cfg = PartitionedRfConfig {
            strategy: ProfilingStrategy::StaticFirstN,
            adaptive: None,
            ..PartitionedRfConfig::paper_default(24)
        };
        let mut rf = PartitionedRf::new(0, cfg, t);
        rf.on_kernel_launch(&test_kernel(), 0);
        let a = rf.resolve(0, Reg(3), AccessKind::Read, 0);
        assert_eq!(a.partition, RfPartition::FrfHigh);
        assert_eq!(a.latency, 1);
        let b = rf.resolve(0, Reg(4), AccessKind::Read, 0);
        assert_eq!(b.partition, RfPartition::Srf);
        assert_eq!(b.latency, 3);
    }

    #[test]
    fn compiler_strategy_moves_hot_reg_to_frf_at_launch() {
        let (mut rf, t) = hybrid_rf();
        rf.on_kernel_launch(&test_kernel(), 0);
        // R10 is statically hottest -> FRF immediately (hybrid seeds from
        // the compiler while the pilot runs).
        let a = rf.resolve(0, Reg(10), AccessKind::Read, 0);
        assert_eq!(a.partition, RfPartition::FrfHigh);
        assert_eq!(t.lock().unwrap().compiler_hot_regs[0], Reg(10));
    }

    #[test]
    fn pilot_completion_remaps() {
        let (mut rf, t) = hybrid_rf();
        rf.on_kernel_launch(&test_kernel(), 0);
        let w = WarpLifecycle {
            slot: 2,
            cta: 0,
            warp_in_cta: 0,
        };
        rf.on_warp_start(w, 5);
        // Pilot accesses R20 far more than anything else.
        for _ in 0..50 {
            rf.observe_access(2, Reg(20), AccessKind::Read, 6);
        }
        rf.observe_access(2, Reg(10), AccessKind::Read, 6);
        // Before the pilot completes, R20 is still in the SRF.
        assert_eq!(
            rf.resolve(0, Reg(20), AccessKind::Read, 7).partition,
            RfPartition::Srf
        );
        rf.on_warp_finish(w, 100);
        // After: R20 in FRF, and telemetry recorded it.
        assert_eq!(
            rf.resolve(0, Reg(20), AccessKind::Read, 101).partition,
            RfPartition::FrfHigh
        );
        assert_eq!(t.lock().unwrap().pilot_hot_regs[0], Reg(20));
        assert_eq!(t.lock().unwrap().pilot_done_cycle, Some(100));
    }

    #[test]
    fn non_pilot_accesses_do_not_pollute_counters() {
        let (mut rf, _) = hybrid_rf();
        rf.on_kernel_launch(&test_kernel(), 0);
        rf.on_warp_start(
            WarpLifecycle {
                slot: 0,
                cta: 0,
                warp_in_cta: 0,
            },
            0,
        );
        rf.on_warp_start(
            WarpLifecycle {
                slot: 1,
                cta: 0,
                warp_in_cta: 1,
            },
            0,
        );
        // Slot 1 (not the pilot) hammers R30.
        for _ in 0..100 {
            rf.observe_access(1, Reg(30), AccessKind::Read, 1);
        }
        rf.observe_access(0, Reg(7), AccessKind::Write, 1);
        rf.on_warp_finish(
            WarpLifecycle {
                slot: 0,
                cta: 0,
                warp_in_cta: 0,
            },
            10,
        );
        // Pilot saw only R7.
        assert_eq!(
            rf.resolve(0, Reg(7), AccessKind::Read, 11).partition,
            RfPartition::FrfHigh
        );
        assert_eq!(
            rf.resolve(0, Reg(30), AccessKind::Read, 11).partition,
            RfPartition::Srf
        );
    }

    #[test]
    fn adaptive_mode_changes_latency_and_partition() {
        let (mut rf, _) = hybrid_rf();
        rf.on_kernel_launch(&test_kernel(), 0);
        // 50 idle cycles -> next epoch low-power.
        for _ in 0..50 {
            rf.tick(0, 0);
        }
        // R10 is the compiler-hot register, so it sits in the FRF.
        let a = rf.resolve(0, Reg(10), AccessKind::Read, 51);
        assert_eq!(a.partition, RfPartition::FrfLow);
        assert_eq!(a.latency, 2);
        // SRF is unaffected by the FRF mode.
        let b = rf.resolve(0, Reg(40), AccessKind::Read, 51);
        assert_eq!(b.partition, RfPartition::Srf);
    }

    #[test]
    fn launch_end_adds_the_launchs_epochs_once() {
        let (mut rf, t) = hybrid_rf();
        let epochs = |t: &SharedTelemetry| {
            let t = snapshot(t);
            (t.frf_high_epochs, t.frf_low_epochs)
        };
        // Launch 1: an idle epoch in high-power mode, then one in low.
        rf.on_kernel_launch(&test_kernel(), 0);
        for c in 0..120 {
            rf.tick(c, 0);
        }
        assert_eq!(epochs(&t), (0, 0), "nothing is published mid-launch");
        rf.on_launch_end();
        assert_eq!(epochs(&t), (1, 1));
        rf.on_launch_end();
        assert_eq!(epochs(&t), (1, 1), "a launch is counted once");
        // Launch 2 adds to launch 1 rather than replacing it.
        rf.on_kernel_launch(&test_kernel(), 120);
        for c in 120..270 {
            rf.tick(c, 0);
        }
        rf.on_launch_end();
        assert_eq!(epochs(&t), (2, 3));
    }

    #[test]
    fn srf_latency_sensitivity_config() {
        let t = shared_telemetry();
        let cfg = PartitionedRfConfig {
            srf_latency: 5,
            ..PartitionedRfConfig::without_adaptive(24)
        };
        let mut rf = PartitionedRf::new(0, cfg, t);
        rf.on_kernel_launch(&test_kernel(), 0);
        assert_eq!(rf.resolve(0, Reg(50), AccessKind::Read, 0).latency, 5);
    }

    #[test]
    fn oracle_strategy_applies_given_set() {
        let t = shared_telemetry();
        let cfg = PartitionedRfConfig {
            strategy: ProfilingStrategy::Oracle(vec![Reg(33), Reg(44)]),
            adaptive: None,
            ..PartitionedRfConfig::paper_default(24)
        };
        let mut rf = PartitionedRf::new(0, cfg, t);
        rf.on_kernel_launch(&test_kernel(), 0);
        assert!(rf.swap_table().is_frf(Reg(33)));
        assert!(rf.swap_table().is_frf(Reg(44)));
    }

    #[test]
    fn banks_follow_physical_register() {
        let (mut rf, _) = hybrid_rf();
        rf.on_kernel_launch(&test_kernel(), 0);
        // R10 -> phys 0 (hot), so bank = warp_slot % 24.
        let a = rf.resolve(7, Reg(10), AccessKind::Read, 0);
        assert_eq!(a.bank, 7);
    }

    #[test]
    fn second_kernel_relaunch_resets_mapping() {
        let (mut rf, _) = hybrid_rf();
        rf.on_kernel_launch(&test_kernel(), 0);
        let w = WarpLifecycle {
            slot: 0,
            cta: 0,
            warp_in_cta: 0,
        };
        rf.on_warp_start(w, 0);
        for _ in 0..10 {
            rf.observe_access(0, Reg(60), AccessKind::Read, 1);
        }
        rf.on_warp_finish(w, 50);
        assert!(rf.swap_table().is_frf(Reg(60)));
        // backprop-style second kernel with a different static profile.
        let mut kb = KernelBuilder::new("k2");
        kb.mov_imm(Reg(40), 1);
        kb.iadd(Reg(40), Reg(40), Reg(40));
        kb.exit();
        rf.on_kernel_launch(&kb.build().unwrap(), 1000);
        assert!(
            !rf.swap_table().is_frf(Reg(60)),
            "old pilot mapping cleared"
        );
        assert!(rf.swap_table().is_frf(Reg(40)), "new compiler seed applied");
    }
}
