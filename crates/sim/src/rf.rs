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

/// Statistics a register-file model counts internally, summed over the
/// SMs of a run (see [`RegisterFileModel::telemetry`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RfTelemetry {
    /// RFC accesses served by the cache (reads + writes; writes always
    /// allocate and therefore always "hit").
    pub rfc_hits: u64,
    /// RFC *read* hits only — the quantity the paper quotes as "the RFC
    /// hit rate" in §V-D.
    pub rfc_read_hits: u64,
    /// RFC read misses (served by the backing MRF).
    pub rfc_misses: u64,
    /// Dirty RFC entries written back to the MRF (evictions + flushes).
    pub rfc_writebacks: u64,
    /// Epochs the adaptive FRF spent in high-power mode (all SMs).
    pub frf_high_epochs: u64,
    /// Epochs the adaptive FRF spent in low-power mode (all SMs).
    pub frf_low_epochs: u64,
    /// Accesses redirected to a spare row by the fault-repair layer.
    pub fault_remaps: u64,
    /// Accesses spilled to the slow partition because the faulty row had
    /// no spare (or the policy is disable-and-spill).
    pub fault_spills: u64,
    /// Accesses served at an escalated Vdd to mask a weak row.
    pub fault_escalations: u64,
    /// Register-cycles the drowsy model found asleep, sampled every 16
    /// cycles over the registers of the warps that touched one (all SMs).
    pub drowsy_reg_cycles: u64,
    /// Register-cycles of those registers, asleep or awake (all SMs).
    pub live_reg_cycles: u64,
    /// Hot registers last installed from the *compiler* profile (SM 0).
    pub compiler_hot_regs: Vec<Reg>,
    /// Hot registers last installed from the *pilot* profile (SM 0).
    pub pilot_hot_regs: Vec<Reg>,
    /// Cycle, relative to its launch, at which SM 0's pilot warp last
    /// finished profiling, if it did.
    pub pilot_done_cycle: Option<u64>,
}

impl RfTelemetry {
    /// RFC hit rate over reads+writes that consulted the cache.
    pub fn rfc_hit_rate(&self) -> f64 {
        let total = self.rfc_hits + self.rfc_misses;
        if total == 0 {
            0.0
        } else {
            self.rfc_hits as f64 / total as f64
        }
    }

    /// RFC *read* hit rate — the §V-D metric (writes always allocate, so
    /// including them flatters the cache).
    pub fn rfc_read_hit_rate(&self) -> f64 {
        let total = self.rfc_read_hits + self.rfc_misses;
        if total == 0 {
            0.0
        } else {
            self.rfc_read_hits as f64 / total as f64
        }
    }

    /// Fraction of adaptive-FRF epochs spent in low-power mode.
    pub fn frf_low_fraction(&self) -> f64 {
        let total = self.frf_high_epochs + self.frf_low_epochs;
        if total == 0 {
            0.0
        } else {
            self.frf_low_epochs as f64 / total as f64
        }
    }

    /// Fraction of the drowsy model's register-cycles spent asleep (0 when
    /// it counted none).
    pub fn drowsy_fraction(&self) -> f64 {
        if self.live_reg_cycles == 0 {
            0.0
        } else {
            self.drowsy_reg_cycles as f64 / self.live_reg_cycles as f64
        }
    }

    /// Accumulates another SM's (or run's, or seed's) counters into this
    /// one. Vector and option fields keep the first non-empty value — they
    /// describe the run's structure (hot sets, pilot completion), which
    /// repeats across seeds, rather than accumulate.
    pub fn merge(&mut self, other: &RfTelemetry) {
        self.rfc_hits += other.rfc_hits;
        self.rfc_read_hits += other.rfc_read_hits;
        self.rfc_misses += other.rfc_misses;
        self.rfc_writebacks += other.rfc_writebacks;
        self.frf_high_epochs += other.frf_high_epochs;
        self.frf_low_epochs += other.frf_low_epochs;
        self.fault_remaps += other.fault_remaps;
        self.fault_spills += other.fault_spills;
        self.fault_escalations += other.fault_escalations;
        self.drowsy_reg_cycles += other.drowsy_reg_cycles;
        self.live_reg_cycles += other.live_reg_cycles;
        if self.compiler_hot_regs.is_empty() {
            self.compiler_hot_regs = other.compiler_hot_regs.clone();
        }
        if self.pilot_hot_regs.is_empty() {
            self.pilot_hot_regs = other.pilot_hot_regs.clone();
        }
        if self.pilot_done_cycle.is_none() {
            self.pilot_done_cycle = other.pilot_done_cycle;
        }
    }

    /// Divides the accumulated counters by `n` (rounding to nearest),
    /// turning a [`merge`] of `n` per-seed telemetries into a per-seed
    /// mean. Rounding rather than truncating makes merge → scale_down of
    /// identical runs lossless.
    ///
    /// [`merge`]: RfTelemetry::merge
    pub fn scale_down(&mut self, n: u64) {
        use crate::stats::div_round_nearest;
        self.rfc_hits = div_round_nearest(self.rfc_hits, n);
        self.rfc_read_hits = div_round_nearest(self.rfc_read_hits, n);
        self.rfc_misses = div_round_nearest(self.rfc_misses, n);
        self.rfc_writebacks = div_round_nearest(self.rfc_writebacks, n);
        self.frf_high_epochs = div_round_nearest(self.frf_high_epochs, n);
        self.frf_low_epochs = div_round_nearest(self.frf_low_epochs, n);
        self.fault_remaps = div_round_nearest(self.fault_remaps, n);
        self.fault_spills = div_round_nearest(self.fault_spills, n);
        self.fault_escalations = div_round_nearest(self.fault_escalations, n);
        self.drowsy_reg_cycles = div_round_nearest(self.drowsy_reg_cycles, n);
        self.live_reg_cycles = div_round_nearest(self.live_reg_cycles, n);
    }

    /// Total fault-repair events across all repair kinds.
    pub fn total_fault_repairs(&self) -> u64 {
        self.fault_remaps + self.fault_spills + self.fault_escalations
    }
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
/// structures. [`crate::Gpu`] builds it with its SM at the first launch
/// and keeps it for every later one, which it announces through
/// [`RegisterFileModel::on_kernel_launch`]; so what a model counts or
/// assigns persists until the experiment ends, when
/// [`RegisterFileModel::telemetry`] hands the counts back.
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

    /// What this model has counted over every launch it served (see
    /// [`RfTelemetry`]). [`crate::Gpu::rf_telemetry`] merges the SMs';
    /// models without internal counters keep the empty default.
    fn telemetry(&self) -> RfTelemetry {
        RfTelemetry::default()
    }

    /// Audit hook: dirty entries this model evicted (and wrote back)
    /// during the current launch. The conservation auditor reads it once
    /// per launch and cross-checks the sum over launches against the
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
