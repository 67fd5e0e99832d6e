//! Drowsy-register baseline, after the "Warped Register File" approach
//! the paper cites as related work (ref. \[4\], HPCA 2013: "Others explored the
//! option of power gating and drowsing unused registers").
//!
//! Registers that have not been accessed for a configurable number of
//! cycles drop into a *drowsy* state: the cell keeps its data at the
//! minimum retention voltage (leakage strongly reduced) but must be woken
//! — one extra cycle — before it can be accessed. This gives the
//! reproduction a third energy-saving design point to compare against the
//! paper's partitioned RF:
//!
//! * drowsy attacks **leakage** (proportional to the fraction of
//!   register-cycles spent drowsy) but not per-access dynamic energy;
//! * the partitioned RF attacks **both**, which is the paper's argument
//!   for partitioning over drowsing.

use prf_isa::{Kernel, Reg, MAX_ARCH_REGS};
use prf_sim::rf::{default_bank, AccessKind, RegisterFileModel, ResolvedAccess, WarpLifecycle};
use prf_sim::{RfPartition, RfTelemetry};

/// Drowsy register-file configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrowsyConfig {
    /// Idle cycles after which a register goes drowsy (the HPCA'13 paper
    /// uses short windows; 100 cycles is a representative setting).
    pub drowsy_after: u64,
    /// Extra cycles to wake a drowsy register before access.
    pub wake_latency: u32,
    /// Base (awake) access latency.
    pub base_latency: u32,
    /// Leakage power of a drowsy cell relative to an awake cell
    /// (retention voltage scaling; ~0.25 is typical for drowsy caches).
    pub drowsy_leak_ratio: f64,
}

impl DrowsyConfig {
    /// Representative defaults over the STV MRF.
    pub fn paper_adjacent() -> Self {
        DrowsyConfig {
            drowsy_after: 100,
            wake_latency: 1,
            base_latency: 1,
            drowsy_leak_ratio: 0.25,
        }
    }

    /// Leakage power (mW) of an array whose awake cells leak
    /// `awake_leak_mw` in total, when `drowsy_fraction` of its
    /// register-cycles are spent drowsy, at the retention ratio.
    pub fn effective_leakage_mw(&self, awake_leak_mw: f64, drowsy_fraction: f64) -> f64 {
        let d = drowsy_fraction;
        awake_leak_mw * ((1.0 - d) + d * self.drowsy_leak_ratio)
    }
}

/// The per-SM drowsy register file model.
#[derive(Debug)]
pub struct DrowsyRf {
    config: DrowsyConfig,
    /// The SM's register-file banks.
    num_banks: usize,
    /// Last access cycle per (warp, register); `None` = never accessed
    /// (drowsy from allocation). Grown on a warp slot's first use.
    last_access: Vec<[Option<u64>; MAX_ARCH_REGS]>,
    /// The drowsy and live register-cycle integrals, over every launch.
    telemetry: RfTelemetry,
    last_tick: u64,
    live_regs: usize,
    regs_per_thread: usize,
}

impl DrowsyRf {
    /// Creates the model for one SM whose register file has `num_banks`
    /// banks.
    pub fn new(config: DrowsyConfig, num_banks: usize) -> Self {
        DrowsyRf {
            config,
            num_banks,
            last_access: Vec::new(),
            telemetry: RfTelemetry::default(),
            last_tick: 0,
            live_regs: 0,
            regs_per_thread: MAX_ARCH_REGS,
        }
    }

    /// The last-access table of `warp_slot`, growing `last_access` to
    /// reach it.
    fn warp(&mut self, warp_slot: usize) -> &mut [Option<u64>; MAX_ARCH_REGS] {
        if warp_slot >= self.last_access.len() {
            self.last_access
                .resize(warp_slot + 1, [None; MAX_ARCH_REGS]);
        }
        &mut self.last_access[warp_slot]
    }
}

impl RegisterFileModel for DrowsyRf {
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        _kind: AccessKind,
        cycle: u64,
    ) -> ResolvedAccess {
        let drowsy_after = self.config.drowsy_after;
        let last = self.warp(warp_slot)[reg.index()].replace(cycle);
        let drowsy = last.is_none_or(|last| cycle.saturating_sub(last) > drowsy_after);
        let latency = if drowsy {
            self.config.base_latency + self.config.wake_latency
        } else {
            self.config.base_latency
        };
        ResolvedAccess {
            bank: default_bank(warp_slot, reg.index(), self.num_banks),
            latency,
            // Dynamic energy of a drowsy MRF access ≈ the STV MRF's (the
            // array still operates at full voltage when accessed).
            partition: RfPartition::MrfStv,
            phys_reg: reg.index(),
            repair: None,
        }
    }

    fn observe_access(&mut self, _warp_slot: usize, _reg: Reg, _kind: AccessKind, _cycle: u64) {}

    fn tick(&mut self, cycle: u64, _issued: u32) {
        // Sampled integration of the drowsy fraction (every 16 cycles to
        // keep the scan cheap).
        if !cycle.is_multiple_of(16) || cycle == self.last_tick {
            return;
        }
        self.last_tick = cycle;
        if self.live_regs == 0 {
            return;
        }
        let mut drowsy = 0u64;
        let mut total = 0u64;
        for regs in &self.last_access {
            // Only scan warps that ever touched a register.
            if regs.iter().all(|r| r.is_none()) {
                continue;
            }
            for reg_last in regs.iter().take(self.regs_per_thread) {
                total += 1;
                let d = match reg_last {
                    None => true,
                    Some(last) => cycle.saturating_sub(*last) > self.config.drowsy_after,
                };
                if d {
                    drowsy += 1;
                }
            }
        }
        self.telemetry.drowsy_reg_cycles += drowsy * 16;
        self.telemetry.live_reg_cycles += total * 16;
    }

    fn telemetry(&self) -> RfTelemetry {
        self.telemetry.clone()
    }

    fn on_kernel_launch(&mut self, kernel: &Kernel, _cycle: u64) {
        self.regs_per_thread = kernel.regs_per_thread().max(1) as usize;
        for regs in &mut self.last_access {
            *regs = [None; MAX_ARCH_REGS];
        }
        self.live_regs = 0;
    }

    fn on_warp_start(&mut self, warp: WarpLifecycle, _cycle: u64) {
        *self.warp(warp.slot) = [None; MAX_ARCH_REGS];
        self.live_regs += self.regs_per_thread;
    }

    fn on_warp_finish(&mut self, warp: WarpLifecycle, _cycle: u64) {
        *self.warp(warp.slot) = [None; MAX_ARCH_REGS];
        self.live_regs = self.live_regs.saturating_sub(self.regs_per_thread);
    }

    fn name(&self) -> &str {
        "drowsy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DrowsyRf {
        DrowsyRf::new(DrowsyConfig::paper_adjacent(), 24)
    }

    #[test]
    fn first_access_wakes() {
        let mut m = model();
        let a = m.resolve(0, Reg(3), AccessKind::Read, 10);
        assert_eq!(a.latency, 2, "base 1 + wake 1");
    }

    #[test]
    fn recent_register_stays_awake() {
        let mut m = model();
        m.resolve(0, Reg(3), AccessKind::Write, 10);
        let a = m.resolve(0, Reg(3), AccessKind::Read, 50);
        assert_eq!(a.latency, 1);
    }

    #[test]
    fn idle_register_goes_drowsy_again() {
        let mut m = model();
        m.resolve(0, Reg(3), AccessKind::Write, 10);
        let a = m.resolve(0, Reg(3), AccessKind::Read, 10 + 101);
        assert_eq!(a.latency, 2, "beyond drowsy_after -> wake again");
    }

    #[test]
    fn drowsiness_is_per_warp() {
        let mut m = model();
        m.resolve(0, Reg(3), AccessKind::Write, 10);
        let other = m.resolve(1, Reg(3), AccessKind::Read, 11);
        assert_eq!(other.latency, 2, "warp 1's R3 was never touched");
    }

    #[test]
    fn drowsy_fraction_rises_when_idle() {
        let mut m = model();
        let mut kb = prf_isa::KernelBuilder::new("k");
        kb.mov_imm(Reg(7), 0);
        kb.exit();
        m.on_kernel_launch(&kb.build().unwrap(), 0);
        m.on_warp_start(
            WarpLifecycle {
                slot: 0,
                cta: 0,
                warp_in_cta: 0,
            },
            0,
        );
        m.resolve(0, Reg(0), AccessKind::Write, 0);
        // Tick far past the drowsy window without further accesses.
        for c in 1..=512u64 {
            m.tick(c, 0);
        }
        let d = m.telemetry().drowsy_fraction();
        assert!(d > 0.5, "fraction {d}");
    }

    #[test]
    fn effective_leakage_interpolates() {
        let config = DrowsyConfig::paper_adjacent();
        // half awake (1.0) + half at 0.25 => 0.625 of awake leakage.
        let l = config.effective_leakage_mw(33.8, 0.5);
        assert!((l - 33.8 * 0.625).abs() < 1e-9);
        assert_eq!(config.effective_leakage_mw(33.8, 0.0), 33.8);
    }
}
