//! The register file cache (RFC) baseline, after Gebhart et al.
//! (ISCA 2011), used for the paper's §V-D comparison (Fig. 13).
//!
//! Each warp gets a small cache of register entries (6 in the paper's
//! configuration). Reads that hit are served by the RFC SRAM in one cycle;
//! misses go to the backing MRF and fill an entry (FIFO replacement);
//! writes allocate in the RFC and are written back to the MRF only on
//! eviction of a dirty entry. With the two-level scheduler, a warp demoted
//! from the active pool flushes its RFC entries — the mechanism that keeps
//! the RFC small in the original design.

use prf_isa::{Kernel, Reg};
use prf_sim::rf::{default_bank, AccessKind, RegisterFileModel, ResolvedAccess, WarpLifecycle};
use prf_sim::{RfPartition, RfTelemetry};

/// RFC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfcConfig {
    /// Cache entries per warp (6 in the paper's comparison).
    pub entries_per_warp: usize,
    /// Latency of an RFC hit (cycles).
    pub hit_latency: u32,
    /// Latency of a backing-MRF access (1 at STV, 3 at NTV).
    pub mrf_latency: u32,
    /// Whether the backing MRF runs at NTV (energy accounting + Fig. 13's
    /// fourth configuration runs it at STV).
    pub mrf_at_ntv: bool,
    /// Register-file banks (for the backing MRF).
    pub num_banks: usize,
    /// Hardware warp slots (sizing of the per-warp cache array).
    pub max_warps: usize,
    /// Warps the RFC SRAM is physically sized for (the *active* warp
    /// count under two-level scheduling — Fig. 13 grows this 8 → 16 → 32).
    pub sized_for_warps: u32,
    /// Crossbar banking of the RFC array (Fig. 13's banked-multiport
    /// alternative; 1 = plain).
    pub crossbar_banks: u32,
}

impl RfcConfig {
    /// The paper's Fig. 13 RFC: 6 entries/warp over an NTV MRF.
    pub fn paper_default(num_banks: usize, max_warps: usize) -> Self {
        RfcConfig {
            entries_per_warp: 6,
            hit_latency: 1,
            mrf_latency: 3,
            mrf_at_ntv: true,
            num_banks,
            max_warps,
            sized_for_warps: 8,
            crossbar_banks: 1,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct WarpCache {
    /// FIFO of (register, dirty), oldest first. `fill` keeps it to
    /// `entries_per_warp` entries, a handful, so evicting the front shifts
    /// only a few.
    entries: Vec<(Reg, bool)>,
}

impl WarpCache {
    fn find(&self, reg: Reg) -> Option<usize> {
        self.entries.iter().position(|&(r, _)| r == reg)
    }
}

/// The per-SM RFC model.
#[derive(Debug)]
pub struct RfcModel {
    config: RfcConfig,
    caches: Vec<WarpCache>,
    /// Hit, miss and write-back counts over every launch.
    telemetry: RfTelemetry,
    /// Dirty entries evicted this launch, counted apart from the
    /// `rfc_writebacks` telemetry counter so the conservation auditor can
    /// cross-check the two independently maintained paths.
    evictions: u64,
}

impl RfcModel {
    /// Creates the model for one SM.
    pub fn new(config: RfcConfig) -> Self {
        RfcModel {
            caches: vec![WarpCache::default(); config.max_warps],
            config,
            telemetry: RfTelemetry::default(),
            evictions: 0,
        }
    }

    /// Inserts `reg` into the warp's cache, evicting FIFO-oldest if full.
    /// Returns `true` if a dirty entry was written back.
    fn fill(&mut self, warp_slot: usize, reg: Reg, dirty: bool) -> bool {
        let cap = self.config.entries_per_warp;
        let cache = &mut self.caches[warp_slot];
        let mut wrote_back = false;
        if cache.entries.len() >= cap && !cache.entries.is_empty() {
            let (_, was_dirty) = cache.entries.remove(0);
            wrote_back = was_dirty;
        }
        cache.entries.push((reg, dirty));
        if wrote_back {
            self.evictions += 1;
            self.telemetry.rfc_writebacks += 1;
        }
        wrote_back
    }

    /// Flushes one warp's cache entries (deactivation or completion).
    fn flush(&mut self, warp_slot: usize) {
        let dirty = self.caches[warp_slot]
            .entries
            .iter()
            .filter(|&&(_, d)| d)
            .count() as u64;
        self.caches[warp_slot].entries.clear();
        if dirty > 0 {
            self.evictions += dirty;
            self.telemetry.rfc_writebacks += dirty;
        }
    }

    /// Test hook: entries currently cached for a warp.
    pub fn cached_registers(&self, warp_slot: usize) -> Vec<Reg> {
        self.caches[warp_slot]
            .entries
            .iter()
            .map(|&(r, _)| r)
            .collect()
    }
}

impl RegisterFileModel for RfcModel {
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        kind: AccessKind,
        _cycle: u64,
    ) -> ResolvedAccess {
        let bank = default_bank(warp_slot, reg.index(), self.config.num_banks);
        match kind {
            AccessKind::Read => {
                if let Some(i) = self.caches[warp_slot].find(reg) {
                    // Refresh nothing: FIFO, not LRU, as in the RFC paper.
                    let _ = i;
                    self.telemetry.rfc_hits += 1;
                    self.telemetry.rfc_read_hits += 1;
                    ResolvedAccess {
                        bank,
                        latency: self.config.hit_latency,
                        partition: RfPartition::RfcHit,
                        phys_reg: reg.index(),
                        repair: None,
                    }
                } else {
                    self.telemetry.rfc_misses += 1;
                    self.fill(warp_slot, reg, false);
                    ResolvedAccess {
                        bank,
                        latency: self.config.mrf_latency,
                        partition: RfPartition::RfcMiss,
                        phys_reg: reg.index(),
                        repair: None,
                    }
                }
            }
            AccessKind::Write => {
                // Write-allocate into the RFC; dirty until evicted.
                self.telemetry.rfc_hits += 1;
                if let Some(i) = self.caches[warp_slot].find(reg) {
                    self.caches[warp_slot].entries[i].1 = true;
                } else {
                    self.fill(warp_slot, reg, true);
                }
                ResolvedAccess {
                    bank,
                    latency: self.config.hit_latency,
                    partition: RfPartition::RfcHit,
                    phys_reg: reg.index(),
                    repair: None,
                }
            }
        }
    }

    fn observe_access(&mut self, _warp_slot: usize, _reg: Reg, _kind: AccessKind, _cycle: u64) {}

    fn tick(&mut self, _cycle: u64, _issued: u32) {}

    fn on_kernel_launch(&mut self, _kernel: &Kernel, _cycle: u64) {
        for c in &mut self.caches {
            c.entries.clear();
        }
        self.evictions = 0;
    }

    fn on_warp_start(&mut self, warp: WarpLifecycle, _cycle: u64) {
        self.caches[warp.slot].entries.clear();
    }

    fn on_warp_finish(&mut self, warp: WarpLifecycle, _cycle: u64) {
        self.flush(warp.slot);
    }

    fn on_warp_deactivated(&mut self, warp_slot: usize, _cycle: u64) {
        // The two-level scheduler demoted this warp: its RFC entries are
        // released (Gebhart et al.'s active-pool contract).
        self.flush(warp_slot);
    }

    fn telemetry(&self) -> RfTelemetry {
        self.telemetry.clone()
    }

    fn rfc_evictions(&self) -> u64 {
        self.evictions
    }

    fn name(&self) -> &str {
        "rfc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RfcModel {
        RfcModel::new(RfcConfig::paper_default(24, 64))
    }

    #[test]
    fn read_miss_then_hit() {
        let mut m = model();
        let a = m.resolve(0, Reg(5), AccessKind::Read, 0);
        assert_eq!(a.partition, RfPartition::RfcMiss);
        assert_eq!(a.latency, 3);
        let b = m.resolve(0, Reg(5), AccessKind::Read, 1);
        assert_eq!(b.partition, RfPartition::RfcHit);
        assert_eq!(b.latency, 1);
        let counts = m.telemetry();
        assert_eq!(counts.rfc_hits, 1);
        assert_eq!(counts.rfc_misses, 1);
    }

    #[test]
    fn write_allocates_and_hits() {
        let mut m = model();
        let a = m.resolve(0, Reg(7), AccessKind::Write, 0);
        assert_eq!(a.partition, RfPartition::RfcHit);
        let b = m.resolve(0, Reg(7), AccessKind::Read, 1);
        assert_eq!(b.partition, RfPartition::RfcHit);
        assert_eq!(m.telemetry().rfc_misses, 0);
    }

    #[test]
    fn fifo_eviction_after_capacity() {
        let mut m = model();
        for r in 0..6u8 {
            m.resolve(0, Reg(r), AccessKind::Read, 0);
        }
        assert_eq!(m.cached_registers(0).len(), 6);
        // Seventh register evicts R0 (FIFO).
        m.resolve(0, Reg(10), AccessKind::Read, 1);
        assert!(!m.cached_registers(0).contains(&Reg(0)));
        let again = m.resolve(0, Reg(0), AccessKind::Read, 2);
        assert_eq!(again.partition, RfPartition::RfcMiss);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut m = model();
        m.resolve(0, Reg(0), AccessKind::Write, 0); // dirty
        for r in 1..=6u8 {
            m.resolve(0, Reg(r), AccessKind::Read, 0);
        }
        assert_eq!(
            m.telemetry().rfc_writebacks,
            1,
            "dirty R0 written back on eviction"
        );
    }

    #[test]
    fn caches_are_per_warp() {
        let mut m = model();
        m.resolve(0, Reg(5), AccessKind::Read, 0);
        let other_warp = m.resolve(1, Reg(5), AccessKind::Read, 1);
        assert_eq!(other_warp.partition, RfPartition::RfcMiss);
    }

    #[test]
    fn deactivation_flushes_and_writes_back_dirty() {
        let mut m = model();
        m.resolve(3, Reg(1), AccessKind::Write, 0);
        m.resolve(3, Reg(2), AccessKind::Read, 0);
        m.on_warp_deactivated(3, 5);
        assert!(m.cached_registers(3).is_empty());
        assert_eq!(m.telemetry().rfc_writebacks, 1);
        // Re-activation misses again — the TL/RFC interplay that limits
        // hit rate as warp counts grow.
        let a = m.resolve(3, Reg(1), AccessKind::Read, 6);
        assert_eq!(a.partition, RfPartition::RfcMiss);
    }

    #[test]
    fn warp_finish_flushes() {
        let mut m = model();
        m.resolve(2, Reg(9), AccessKind::Write, 0);
        m.on_warp_finish(
            WarpLifecycle {
                slot: 2,
                cta: 0,
                warp_in_cta: 0,
            },
            9,
        );
        assert!(m.cached_registers(2).is_empty());
        assert_eq!(m.telemetry().rfc_writebacks, 1);
    }

    #[test]
    fn kernel_launch_clears_all() {
        let mut m = model();
        m.resolve(0, Reg(1), AccessKind::Read, 0);
        m.resolve(5, Reg(2), AccessKind::Read, 0);
        let mut kb = prf_isa::KernelBuilder::new("k");
        kb.exit();
        m.on_kernel_launch(&kb.build().unwrap(), 10);
        assert!(m.cached_registers(0).is_empty());
        assert!(m.cached_registers(5).is_empty());
    }

    #[test]
    fn model_local_evictions_track_telemetry_writebacks() {
        // The audit cross-check depends on these two counters moving in
        // lock-step through both write-back paths (capacity evict + flush).
        let mut m = model();
        m.resolve(0, Reg(0), AccessKind::Write, 0); // dirty
        for r in 1..=6u8 {
            m.resolve(0, Reg(r), AccessKind::Read, 0); // evicts dirty R0
        }
        m.resolve(1, Reg(9), AccessKind::Write, 1);
        m.on_warp_deactivated(1, 2); // flushes dirty R9
        assert_eq!(m.rfc_evictions(), 2);
        assert_eq!(m.telemetry().rfc_writebacks, m.rfc_evictions());
    }

    #[test]
    fn evictions_count_one_launch_and_telemetry_every_launch() {
        let mut m = model();
        let mut kb = prf_isa::KernelBuilder::new("k");
        kb.exit();
        let kernel = kb.build().unwrap();
        for launch in 0..2u64 {
            m.on_kernel_launch(&kernel, launch * 100);
            m.resolve(1, Reg(9), AccessKind::Write, launch * 100 + 1);
            m.on_warp_deactivated(1, launch * 100 + 2);
            assert_eq!(m.rfc_evictions(), 1, "the auditor reads one launch");
        }
        assert_eq!(m.telemetry().rfc_writebacks, 2);
    }

    #[test]
    fn hit_rate_telemetry() {
        let mut m = model();
        m.resolve(0, Reg(0), AccessKind::Read, 0); // miss
        m.resolve(0, Reg(0), AccessKind::Read, 1); // hit
        m.resolve(0, Reg(0), AccessKind::Read, 2); // hit
        assert!((m.telemetry().rfc_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
