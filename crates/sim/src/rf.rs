//! The register-file model interface.
//!
//! The simulator is agnostic to the physical organisation of the register
//! file: every read/write is *resolved* through a [`RegisterFileModel`],
//! which returns the physical bank, the access latency, and which physical
//! partition serviced the access (for energy accounting). The baseline
//! monolithic MRF lives here; the paper's partitioned RF and the RFC
//! baseline implement the same trait in `prf-core`.

use std::fmt;

use prf_isa::{Kernel, Reg};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Register-file read (source operand).
    Read,
    /// Register-file write (destination / writeback).
    Write,
}

/// The physical structure that serviced an access — the unit of energy
/// accounting.
///
/// The variants cover every structure that appears in the paper's
/// evaluation: the monolithic MRF at STV or NTV, the two FRF modes and the
/// SRF of the partitioned design, and RFC hits/misses for the
/// register-file-cache baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RfPartition {
    /// Monolithic main RF operating at super-threshold voltage (1 cycle).
    MrfStv,
    /// Monolithic main RF operating at near-threshold voltage (3 cycles).
    MrfNtv,
    /// Fast RF partition in high-power mode (back gate = Vdd, 1 cycle).
    FrfHigh,
    /// Fast RF partition in low-power mode (back gate = 0, 2 cycles).
    FrfLow,
    /// Slow RF partition, always at NTV (3 cycles by default).
    Srf,
    /// Register-file-cache hit (access served by the RFC SRAM).
    RfcHit,
    /// Register-file-cache miss (tag check + backing MRF access + fill).
    RfcMiss,
    /// RFC write-back of an evicted dirty entry into the backing MRF.
    RfcWriteback,
}

impl RfPartition {
    /// All partition kinds (useful for report tables).
    pub const ALL: [RfPartition; 8] = [
        RfPartition::MrfStv,
        RfPartition::MrfNtv,
        RfPartition::FrfHigh,
        RfPartition::FrfLow,
        RfPartition::Srf,
        RfPartition::RfcHit,
        RfPartition::RfcMiss,
        RfPartition::RfcWriteback,
    ];

    /// Index into dense per-partition arrays.
    pub fn index(self) -> usize {
        match self {
            RfPartition::MrfStv => 0,
            RfPartition::MrfNtv => 1,
            RfPartition::FrfHigh => 2,
            RfPartition::FrfLow => 3,
            RfPartition::Srf => 4,
            RfPartition::RfcHit => 5,
            RfPartition::RfcMiss => 6,
            RfPartition::RfcWriteback => 7,
        }
    }
}

impl fmt::Display for RfPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RfPartition::MrfStv => "MRF@STV",
            RfPartition::MrfNtv => "MRF@NTV",
            RfPartition::FrfHigh => "FRF_high",
            RfPartition::FrfLow => "FRF_low",
            RfPartition::Srf => "SRF",
            RfPartition::RfcHit => "RFC-hit",
            RfPartition::RfcMiss => "RFC-miss",
            RfPartition::RfcWriteback => "RFC-wb",
        };
        f.write_str(s)
    }
}

/// How a faulty row was kept usable (graceful-degradation accounting).
///
/// Produced by the fault-injection wrapper in `prf-core` when an access
/// lands on a row its `FaultMap` marks stuck or weak; healthy accesses
/// carry no repair. Each kind charges a distinct energy/latency premium
/// and is conserved by the audit layer (faulty = remapped + spilled +
/// escalated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairKind {
    /// The row was remapped to a per-bank spare row (one extra decode
    /// cycle, small energy premium).
    Remapped,
    /// The row was disabled and the access spilled to the slow partition
    /// (SRF latency and energy).
    Spilled,
    /// The access ran with the row's supply escalated to STV for the
    /// cycle (no latency cost; pays the STV energy delta).
    Escalated,
}

impl RepairKind {
    /// All repair kinds (dense, for per-kind counters).
    pub const ALL: [RepairKind; 3] = [
        RepairKind::Remapped,
        RepairKind::Spilled,
        RepairKind::Escalated,
    ];

    /// Index into dense per-kind arrays.
    pub fn index(self) -> usize {
        match self {
            RepairKind::Remapped => 0,
            RepairKind::Spilled => 1,
            RepairKind::Escalated => 2,
        }
    }
}

impl fmt::Display for RepairKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RepairKind::Remapped => "remapped",
            RepairKind::Spilled => "spilled",
            RepairKind::Escalated => "escalated",
        };
        f.write_str(s)
    }
}

/// A resolved register-file access: where it goes and how long it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedAccess {
    /// Bank servicing the access (0-based, `< num_rf_banks`).
    pub bank: usize,
    /// Cycles the bank is occupied / until data is available.
    pub latency: u32,
    /// The physical structure serviced (energy class).
    pub partition: RfPartition,
    /// Physical register index inside the bank's address space (drives the
    /// fault-map row lookup; equals the architectural index for models
    /// without renaming).
    pub phys_reg: usize,
    /// Repair applied when the access hit a faulty row (`None` for
    /// healthy rows and fault-free runs).
    pub repair: Option<RepairKind>,
}

/// Context passed to the model when a warp starts or finishes on the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpLifecycle {
    /// Hardware warp slot within the SM.
    pub slot: usize,
    /// Flattened CTA id within the grid.
    pub cta: u32,
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
}

/// A register-file organisation, as seen by the SM pipeline.
///
/// One model instance exists *per SM*, matching the paper where profiling
/// counters, the swapping table, and the FRF mode signal are per-SM
/// structures.
///
/// `Send` is a supertrait so whole simulations (SMs own their models) can
/// be fanned out across worker threads by the parallel experiment engine.
pub trait RegisterFileModel: fmt::Debug + Send {
    /// Resolves one access: physical bank, latency, and energy partition.
    ///
    /// Called once per register read/write when the access is granted by
    /// the bank arbiter. `warp_slot` is the hardware warp slot (bank
    /// swizzling is slot-based, as in GPGPU-Sim).
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        kind: AccessKind,
        cycle: u64,
    ) -> ResolvedAccess;

    /// Observes one *architectural* register access at issue time (before
    /// bank arbitration). The pilot-warp profiler counts accesses here —
    /// the paper increments its counters "when a warp instruction is
    /// scheduled for register access" (§III-B).
    fn observe_access(&mut self, warp_slot: usize, reg: Reg, kind: AccessKind, cycle: u64);

    /// Per-cycle hook: `issued` instructions were issued on this SM this
    /// cycle. Drives the adaptive-FRF epoch phase detector.
    fn tick(&mut self, cycle: u64, issued: u32);

    /// A new kernel was launched on this SM.
    fn on_kernel_launch(&mut self, kernel: &Kernel, cycle: u64);

    /// A warp became resident (its registers were allocated).
    fn on_warp_start(&mut self, warp: WarpLifecycle, cycle: u64);

    /// A resident warp finished execution.
    fn on_warp_finish(&mut self, warp: WarpLifecycle, cycle: u64);

    /// The scheduler demoted a warp from its active pool (two-level
    /// scheduling); the RFC flushes the warp's cached registers here.
    fn on_warp_deactivated(&mut self, warp_slot: usize, cycle: u64) {
        let _ = (warp_slot, cycle);
    }

    /// The launch this model served has ended: its last cycle has run.
    /// A model that counts its statistics locally adds that launch's
    /// counts to the shared telemetry here, so the hot path takes no lock.
    /// [`crate::Gpu::run`] calls it once per SM when a launch completes;
    /// the default publishes nothing.
    fn on_launch_end(&mut self) {}

    /// Audit hook: dirty entries this model evicted (and wrote back) so
    /// far. The conservation auditor cross-checks the sum against the
    /// `rfc_writebacks` telemetry counter; models without a write-back
    /// cache keep the default of 0.
    fn rfc_evictions(&self) -> u64 {
        0
    }

    /// Telemetry hook for the sampled time-series ([`crate::sampling`]):
    /// `Some(true)` while the model's fast partition runs in low-power
    /// mode, `Some(false)` in high-power mode, `None` (the default) for
    /// organisations without an adaptive FRF.
    fn frf_low_mode(&self) -> Option<bool> {
        None
    }

    /// Model name for reports.
    fn name(&self) -> &str;
}

/// Computes the default bank swizzle used by all models:
/// `(warp_slot + physical_reg) % num_banks`, the GPGPU-Sim mapping that
/// spreads consecutive registers of a warp — and the same register of
/// consecutive warps — across banks.
pub fn default_bank(warp_slot: usize, phys_reg: usize, num_banks: usize) -> usize {
    (warp_slot + phys_reg) % num_banks
}

/// The baseline monolithic main register file (MRF).
///
/// * `MrfStv`: 1-cycle access, the paper's power-aggressive baseline.
/// * `MrfNtv`: `latency`-cycle access (3 by default), the "just run
///   everything at NTV" alternative that loses 7.1% performance (§V-C).
#[derive(Debug, Clone)]
pub struct BaselineRf {
    partition: RfPartition,
    latency: u32,
    num_banks: usize,
    name: String,
}

impl BaselineRf {
    /// Monolithic RF at super-threshold voltage: 1-cycle access.
    pub fn stv(num_banks: usize) -> Self {
        BaselineRf {
            partition: RfPartition::MrfStv,
            latency: 1,
            num_banks,
            name: "MRF@STV".to_string(),
        }
    }

    /// Monolithic RF at near-threshold voltage with the given access
    /// latency (the paper uses 3 cycles).
    pub fn ntv(num_banks: usize, latency: u32) -> Self {
        BaselineRf {
            partition: RfPartition::MrfNtv,
            latency,
            num_banks,
            name: format!("MRF@NTV({latency}cy)"),
        }
    }
}

impl RegisterFileModel for BaselineRf {
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        _kind: AccessKind,
        _cycle: u64,
    ) -> ResolvedAccess {
        ResolvedAccess {
            bank: default_bank(warp_slot, reg.index(), self.num_banks),
            latency: self.latency,
            partition: self.partition,
            phys_reg: reg.index(),
            repair: None,
        }
    }

    fn observe_access(&mut self, _warp_slot: usize, _reg: Reg, _kind: AccessKind, _cycle: u64) {}

    fn tick(&mut self, _cycle: u64, _issued: u32) {}

    fn on_kernel_launch(&mut self, _kernel: &Kernel, _cycle: u64) {}

    fn on_warp_start(&mut self, _warp: WarpLifecycle, _cycle: u64) {}

    fn on_warp_finish(&mut self, _warp: WarpLifecycle, _cycle: u64) {}

    fn name(&self) -> &str {
        &self.name
    }
}

/// Factory that builds one register-file model per SM.
pub type RfModelFactory<'a> = dyn Fn(usize) -> Box<dyn RegisterFileModel> + 'a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_indices_are_dense_and_unique() {
        let mut seen = [false; 8];
        for p in RfPartition::ALL {
            assert!(!seen[p.index()], "duplicate index for {p}");
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn default_bank_swizzle() {
        assert_eq!(default_bank(0, 0, 24), 0);
        assert_eq!(default_bank(0, 23, 24), 23);
        assert_eq!(default_bank(0, 24, 24), 0);
        assert_eq!(default_bank(5, 3, 24), 8);
        // Same register of consecutive warps lands in different banks.
        assert_ne!(default_bank(0, 7, 24), default_bank(1, 7, 24));
    }

    #[test]
    fn baseline_stv_is_one_cycle() {
        let mut rf = BaselineRf::stv(24);
        let a = rf.resolve(3, Reg(5), AccessKind::Read, 0);
        assert_eq!(a.latency, 1);
        assert_eq!(a.partition, RfPartition::MrfStv);
        assert_eq!(a.bank, 8);
        assert_eq!(rf.name(), "MRF@STV");
    }

    #[test]
    fn baseline_ntv_latency_configurable() {
        let mut rf = BaselineRf::ntv(24, 3);
        let a = rf.resolve(0, Reg(0), AccessKind::Write, 10);
        assert_eq!(a.latency, 3);
        assert_eq!(a.partition, RfPartition::MrfNtv);
        assert!(rf.name().contains("NTV"));
    }

    #[test]
    fn repair_kind_indices_are_dense_and_unique() {
        let mut seen = [false; 3];
        for k in RepairKind::ALL {
            assert!(!seen[k.index()], "duplicate index for {k}");
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(RepairKind::Spilled.to_string(), "spilled");
    }

    #[test]
    fn baseline_resolution_carries_no_repair() {
        let mut rf = BaselineRf::stv(24);
        let a = rf.resolve(3, Reg(5), AccessKind::Read, 0);
        assert_eq!(a.phys_reg, 5);
        assert_eq!(a.repair, None);
    }

    #[test]
    fn partition_display() {
        assert_eq!(RfPartition::FrfLow.to_string(), "FRF_low");
        assert_eq!(RfPartition::Srf.to_string(), "SRF");
        assert_eq!(RfPartition::RfcHit.to_string(), "RFC-hit");
    }
}
