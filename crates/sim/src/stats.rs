//! Simulation statistics: cycles, instructions, and — centrally for this
//! paper — register-file access accounting.

use std::collections::BTreeMap;
use std::fmt;

use prf_isa::{Reg, MAX_ARCH_REGS};

use crate::rf::{AccessKind, RepairKind, RfPartition};

/// Integer division rounded to the nearest integer (half away from zero).
///
/// Seed-averaged counters use this instead of truncating division so a
/// merge of `n` identical runs scales back down losslessly; plain `/`
/// would silently drop up to `n - 1` counts per counter.
#[must_use]
pub fn div_round_nearest(x: u64, n: u64) -> u64 {
    assert!(n >= 1);
    // `(x + n / 2) / n` would wrap for x near u64::MAX; round by looking
    // at the remainder instead, which cannot overflow.
    x / n + u64::from(x % n >= n.div_ceil(2))
}

/// Per-register dynamic access counts (reads + writes), the raw material of
/// the paper's Fig. 2 ("percentage of accesses to the top N highly accessed
/// registers") and of the *optimal* profiling bar in Fig. 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterAccessHistogram {
    counts: [u64; MAX_ARCH_REGS],
}

impl Default for RegisterAccessHistogram {
    fn default() -> Self {
        RegisterAccessHistogram {
            counts: [0; MAX_ARCH_REGS],
        }
    }
}

impl RegisterAccessHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access to `reg`.
    pub fn record(&mut self, reg: Reg) {
        self.counts[reg.index()] += 1;
    }

    /// Records `n` accesses to `reg`.
    pub fn record_n(&mut self, reg: Reg, n: u64) {
        self.counts[reg.index()] += n;
    }

    /// Accesses to one register.
    pub fn count(&self, reg: Reg) -> u64 {
        self.counts[reg.index()]
    }

    /// Total accesses across all registers.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `n` most accessed registers, most-accessed first; ties break to
    /// the lower register index. Zero-count registers are excluded.
    pub fn top_n(&self, n: usize) -> Vec<Reg> {
        let mut v: Vec<(u64, usize)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (c, i))
            .collect();
        v.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        v.into_iter().take(n).map(|(_, i)| Reg(i as u8)).collect()
    }

    /// Fraction of all accesses that went to `regs` — e.g.
    /// `top_share(3)` reproduces one bar of Fig. 2.
    pub fn coverage(&self, regs: &[Reg]) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        regs.iter().map(|r| self.count(*r)).sum::<u64>() as f64 / t as f64
    }

    /// Fraction of accesses captured by the top `n` registers.
    pub fn top_share(&self, n: usize) -> f64 {
        self.coverage(&self.top_n(n))
    }

    /// Raw counts.
    pub fn counts(&self) -> &[u64; MAX_ARCH_REGS] {
        &self.counts
    }

    /// Rebuilds a histogram from raw counts — the inverse of [`counts`](Self::counts),
    /// used by the bench result cache to round-trip results through disk.
    pub fn from_counts(counts: [u64; MAX_ARCH_REGS]) -> Self {
        RegisterAccessHistogram { counts }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &RegisterAccessHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Divides every count by `n` (rounding to nearest), turning a merge
    /// of `n` runs into a per-run mean.
    pub fn scale_down(&mut self, n: u64) {
        for c in self.counts.iter_mut() {
            *c = div_round_nearest(*c, n);
        }
    }
}

/// Access counts per physical partition and access kind — the energy
/// accounting input (Figs. 10, 11, 13).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionAccessCounts {
    reads: [u64; 8],
    writes: [u64; 8],
}

impl PartitionAccessCounts {
    /// Empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access.
    pub fn record(&mut self, partition: RfPartition, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.reads[partition.index()] += 1,
            AccessKind::Write => self.writes[partition.index()] += 1,
        }
    }

    /// Reads serviced by `partition`.
    pub fn reads(&self, partition: RfPartition) -> u64 {
        self.reads[partition.index()]
    }

    /// Writes serviced by `partition`.
    pub fn writes(&self, partition: RfPartition) -> u64 {
        self.writes[partition.index()]
    }

    /// Reads + writes for `partition`.
    pub fn accesses(&self, partition: RfPartition) -> u64 {
        self.reads(partition) + self.writes(partition)
    }

    /// Total reads over all partitions.
    pub fn total_reads(&self) -> u64 {
        self.reads.iter().sum()
    }

    /// Total writes over all partitions.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Total accesses over all partitions.
    pub fn total(&self) -> u64 {
        self.total_reads() + self.total_writes()
    }

    /// Fraction of all accesses serviced by `partition` (Fig. 10).
    pub fn fraction(&self, partition: RfPartition) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.accesses(partition) as f64 / t as f64
        }
    }

    /// Raw (reads, writes) counter arrays, dense by
    /// [`RfPartition::index`] — for serialisation.
    pub fn raw(&self) -> (&[u64; 8], &[u64; 8]) {
        (&self.reads, &self.writes)
    }

    /// Rebuilds counters from raw arrays (dense by [`RfPartition::index`])
    /// — the inverse of [`raw`](Self::raw), used by the bench result cache.
    pub fn from_raw(reads: [u64; 8], writes: [u64; 8]) -> Self {
        PartitionAccessCounts { reads, writes }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &PartitionAccessCounts) {
        for i in 0..8 {
            self.reads[i] += other.reads[i];
            self.writes[i] += other.writes[i];
        }
    }

    /// Divides every count by `n` (rounding to nearest), turning a merge
    /// of `n` runs into a per-run mean.
    pub fn scale_down(&mut self, n: u64) {
        for i in 0..8 {
            self.reads[i] = div_round_nearest(self.reads[i], n);
            self.writes[i] = div_round_nearest(self.writes[i], n);
        }
    }
}

impl fmt::Display for PartitionAccessCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in RfPartition::ALL {
            let a = self.accesses(p);
            if a > 0 {
                writeln!(f, "  {p:10} {a:>12} ({:.1}%)", 100.0 * self.fraction(p))?;
            }
        }
        Ok(())
    }
}

/// Statistics for one SM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Instructions issued (warp-instructions).
    pub instructions: u64,
    /// Cycles this SM was active (had at least one resident warp).
    pub active_cycles: u64,
    /// Cycles in which at least one instruction issued.
    pub issue_cycles: u64,
    /// Dynamic per-register access histogram (reads + writes).
    pub reg_accesses: RegisterAccessHistogram,
    /// Accesses per physical partition.
    pub partition_accesses: PartitionAccessCounts,
    /// Bank-conflict stalls: granted-cycle requests that had to wait because
    /// their bank was busy.
    pub bank_conflict_waits: u64,
    /// Issue stalls because no operand collector was free.
    pub collector_stalls: u64,
    /// Per-warp per-register histograms, keyed by (cta, warp-in-cta); only
    /// populated when `GpuConfig::per_warp_stats` is set.
    pub per_warp: BTreeMap<(u32, u32), RegisterAccessHistogram>,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Coalesced global-memory transactions.
    pub mem_transactions: u64,
    /// Warp-level memory instructions processed by the LSU.
    pub mem_instructions: u64,
    /// Zero-issue cycles where every resident warp was scoreboard-blocked
    /// with loads outstanding (memory shadow).
    pub stall_mem: u64,
    /// Zero-issue cycles dominated by barrier waits.
    pub stall_barrier: u64,
    /// Zero-issue cycles where warps were ready but no collector was free.
    pub stall_collector: u64,
    /// Zero-issue cycles blocked on non-memory scoreboard dependences
    /// (ALU latency).
    pub stall_alu_dep: u64,
    /// Branches executed that actually diverged (both paths taken).
    pub divergent_branches: u64,
    /// Branches executed in total.
    pub total_branches: u64,
    /// Sum of active lanes over all issued instructions (for SIMD
    /// efficiency: divide by `32 * instructions`).
    pub active_lane_sum: u64,
    /// Granted accesses that landed on a faulty row and were repaired,
    /// dense by [`RepairKind::index`] (remapped, spilled, escalated).
    pub rf_repairs: [u64; 3],
}

impl SmStats {
    /// Empty stats block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another SM's stats into this one.
    pub fn merge(&mut self, other: &SmStats) {
        self.instructions += other.instructions;
        self.active_cycles += other.active_cycles;
        self.issue_cycles += other.issue_cycles;
        self.reg_accesses.merge(&other.reg_accesses);
        self.partition_accesses.merge(&other.partition_accesses);
        self.bank_conflict_waits += other.bank_conflict_waits;
        self.collector_stalls += other.collector_stalls;
        for (k, v) in &other.per_warp {
            self.per_warp.entry(*k).or_default().merge(v);
        }
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.mem_transactions += other.mem_transactions;
        self.mem_instructions += other.mem_instructions;
        self.stall_mem += other.stall_mem;
        self.stall_barrier += other.stall_barrier;
        self.stall_collector += other.stall_collector;
        self.stall_alu_dep += other.stall_alu_dep;
        self.divergent_branches += other.divergent_branches;
        self.total_branches += other.total_branches;
        self.active_lane_sum += other.active_lane_sum;
        for (a, b) in self.rf_repairs.iter_mut().zip(other.rf_repairs.iter()) {
            *a += b;
        }
    }

    /// Divides every counter by `n` (rounding to nearest), turning a merge
    /// of `n` runs into a per-run mean. Per-warp histograms are scaled
    /// element-wise.
    pub fn scale_down(&mut self, n: u64) {
        self.instructions = div_round_nearest(self.instructions, n);
        self.active_cycles = div_round_nearest(self.active_cycles, n);
        self.issue_cycles = div_round_nearest(self.issue_cycles, n);
        self.reg_accesses.scale_down(n);
        self.partition_accesses.scale_down(n);
        self.bank_conflict_waits = div_round_nearest(self.bank_conflict_waits, n);
        self.collector_stalls = div_round_nearest(self.collector_stalls, n);
        for h in self.per_warp.values_mut() {
            h.scale_down(n);
        }
        self.l1_hits = div_round_nearest(self.l1_hits, n);
        self.l1_misses = div_round_nearest(self.l1_misses, n);
        self.mem_transactions = div_round_nearest(self.mem_transactions, n);
        self.mem_instructions = div_round_nearest(self.mem_instructions, n);
        self.stall_mem = div_round_nearest(self.stall_mem, n);
        self.stall_barrier = div_round_nearest(self.stall_barrier, n);
        self.stall_collector = div_round_nearest(self.stall_collector, n);
        self.stall_alu_dep = div_round_nearest(self.stall_alu_dep, n);
        self.divergent_branches = div_round_nearest(self.divergent_branches, n);
        self.total_branches = div_round_nearest(self.total_branches, n);
        self.active_lane_sum = div_round_nearest(self.active_lane_sum, n);
        for c in self.rf_repairs.iter_mut() {
            *c = div_round_nearest(*c, n);
        }
    }

    /// Records one repaired access.
    pub fn record_repair(&mut self, kind: RepairKind) {
        self.rf_repairs[kind.index()] += 1;
    }

    /// Repaired accesses of one kind.
    pub fn repairs(&self, kind: RepairKind) -> u64 {
        self.rf_repairs[kind.index()]
    }

    /// Repaired accesses of any kind.
    pub fn total_repairs(&self) -> u64 {
        self.rf_repairs.iter().sum()
    }

    /// Mean SIMD efficiency: active lanes per issued instruction over the
    /// warp width.
    pub fn simd_efficiency(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.active_lane_sum as f64 / (32.0 * self.instructions as f64)
        }
    }

    /// Fraction of executed branches that diverged.
    pub fn divergence_rate(&self) -> f64 {
        if self.total_branches == 0 {
            0.0
        } else {
            self.divergent_branches as f64 / self.total_branches as f64
        }
    }
}

/// The result of simulating one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Kernel name.
    pub kernel: String,
    /// Total GPU cycles from launch to completion.
    pub cycles: u64,
    /// Aggregated statistics over all SMs.
    pub stats: SmStats,
    /// Cycle at which the *pilot warp* (first warp of the first CTA on
    /// SM 0) finished, if it did — used for Table I's "Pilot CTA %" column.
    pub pilot_warp_finish: Option<u64>,
    /// Per-SM instruction counts (for load-balance sanity checks).
    pub per_sm_instructions: Vec<u64>,
    /// Merged pipeline trace (empty unless `GpuConfig::trace_capacity` is
    /// set), sorted by cycle.
    pub trace: Vec<crate::trace::TraceEvent>,
    /// Per-SM sampled time series (empty unless `GpuConfig::sampling` is
    /// set), one series per SM.
    pub samples: Vec<crate::sampling::SampleSeries>,
    /// Conservation-invariant audit report (present iff `GpuConfig::audit`
    /// was set); merged over all SMs.
    pub audit: Option<crate::audit::AuditReport>,
}

impl SimResult {
    /// Instructions per cycle across the whole GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stats.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of total execution time the pilot warp was running
    /// (Table I, last column).
    pub fn pilot_runtime_fraction(&self) -> Option<f64> {
        self.pilot_warp_finish
            .map(|f| f as f64 / self.cycles.max(1) as f64)
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} cycles, {} instrs, IPC {:.2}",
            self.kernel,
            self.cycles,
            self.stats.instructions,
            self.ipc()
        )?;
        write!(f, "{}", self.stats.partition_accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_top_n_and_share() {
        let mut h = RegisterAccessHistogram::new();
        h.record_n(Reg(0), 60);
        h.record_n(Reg(5), 30);
        h.record_n(Reg(9), 10);
        assert_eq!(h.total(), 100);
        assert_eq!(h.top_n(2), vec![Reg(0), Reg(5)]);
        assert!((h.top_share(2) - 0.9).abs() < 1e-12);
        assert!((h.coverage(&[Reg(9)]) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn histogram_tie_breaks_to_lower_index() {
        let mut h = RegisterAccessHistogram::new();
        h.record_n(Reg(7), 5);
        h.record_n(Reg(2), 5);
        assert_eq!(h.top_n(1), vec![Reg(2)]);
    }

    #[test]
    fn histogram_merge() {
        let mut a = RegisterAccessHistogram::new();
        let mut b = RegisterAccessHistogram::new();
        a.record(Reg(1));
        b.record_n(Reg(1), 2);
        b.record(Reg(3));
        a.merge(&b);
        assert_eq!(a.count(Reg(1)), 3);
        assert_eq!(a.count(Reg(3)), 1);
    }

    #[test]
    fn empty_histogram_shares_are_zero() {
        let h = RegisterAccessHistogram::new();
        assert_eq!(h.top_share(3), 0.0);
        assert!(h.top_n(3).is_empty());
    }

    #[test]
    fn partition_counts_fractions() {
        let mut p = PartitionAccessCounts::new();
        p.record(RfPartition::FrfHigh, AccessKind::Read);
        p.record(RfPartition::FrfHigh, AccessKind::Write);
        p.record(RfPartition::Srf, AccessKind::Read);
        p.record(RfPartition::Srf, AccessKind::Read);
        assert_eq!(p.total(), 4);
        assert_eq!(p.accesses(RfPartition::FrfHigh), 2);
        assert_eq!(p.reads(RfPartition::Srf), 2);
        assert_eq!(p.writes(RfPartition::Srf), 0);
        assert!((p.fraction(RfPartition::FrfHigh) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sim_result_ipc() {
        let r = SimResult {
            kernel: "k".into(),
            cycles: 100,
            stats: SmStats {
                instructions: 250,
                ..SmStats::new()
            },
            pilot_warp_finish: Some(30),
            per_sm_instructions: vec![250],
            trace: Vec::new(),
            samples: Vec::new(),
            audit: None,
        };
        assert!((r.ipc() - 2.5).abs() < 1e-12);
        assert!((r.pilot_runtime_fraction().unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn div_round_nearest_rounds_half_up() {
        assert_eq!(div_round_nearest(0, 3), 0);
        assert_eq!(div_round_nearest(1, 3), 0);
        assert_eq!(div_round_nearest(2, 3), 1);
        assert_eq!(div_round_nearest(3, 3), 1);
        assert_eq!(div_round_nearest(5, 2), 3);
        assert_eq!(div_round_nearest(7, 1), 7);
    }

    #[test]
    fn div_round_nearest_survives_the_u64_boundary() {
        // Regression: `(x + n / 2) / n` wrapped here and returned ~0.
        assert_eq!(div_round_nearest(u64::MAX, 1), u64::MAX);
        assert_eq!(div_round_nearest(u64::MAX, 2), 1 << 63);
        assert_eq!(div_round_nearest(u64::MAX - 1, 2), (1 << 63) - 1);
        assert_eq!(div_round_nearest(u64::MAX, u64::MAX), 1);
        assert_eq!(div_round_nearest(u64::MAX - 1, u64::MAX), 1);
        assert_eq!(div_round_nearest(u64::MAX / 2, u64::MAX), 0);
        // Half-way cases still round up (away from zero).
        assert_eq!(div_round_nearest(3, 6), 1);
        assert_eq!(div_round_nearest(2, 6), 0);
        // Odd divisors: remainder of (n-1)/2 rounds down, (n+1)/2 up.
        assert_eq!(div_round_nearest(1, 3), 0);
        assert_eq!(div_round_nearest(2, 3), 1);
    }

    #[test]
    fn merge_then_scale_down_of_identical_runs_is_lossless() {
        // Satellite: truncating division used to lose up to n-1 counts per
        // counter when averaging identical seeds.
        let mut one = SmStats::new();
        one.instructions = 101;
        one.active_cycles = 7;
        one.mem_transactions = 13;
        one.reg_accesses.record_n(Reg(3), 999);
        one.partition_accesses
            .record(RfPartition::Srf, AccessKind::Read);
        one.per_warp.entry((0, 1)).or_default().record_n(Reg(2), 55);
        one.record_repair(RepairKind::Spilled);
        one.record_repair(RepairKind::Remapped);
        one.record_repair(RepairKind::Remapped);

        let mut merged = SmStats::new();
        for _ in 0..3 {
            merged.merge(&one);
        }
        merged.scale_down(3);
        assert_eq!(merged.instructions, one.instructions);
        assert_eq!(merged.rf_repairs, one.rf_repairs);
        assert_eq!(merged.total_repairs(), 3);
        assert_eq!(merged.repairs(RepairKind::Remapped), 2);
        assert_eq!(merged.active_cycles, one.active_cycles);
        assert_eq!(merged.mem_transactions, one.mem_transactions);
        assert_eq!(merged.reg_accesses, one.reg_accesses);
        assert_eq!(merged.partition_accesses, one.partition_accesses);
        assert_eq!(
            merged.per_warp[&(0, 1)].count(Reg(2)),
            one.per_warp[&(0, 1)].count(Reg(2))
        );
    }

    #[test]
    fn scale_down_rounds_to_nearest() {
        let mut p = PartitionAccessCounts::new();
        p.record(RfPartition::MrfStv, AccessKind::Read);
        p.record(RfPartition::MrfStv, AccessKind::Read);
        // 2 reads / 3 runs -> rounds to 1, not truncates to 0.
        p.scale_down(3);
        assert_eq!(p.reads(RfPartition::MrfStv), 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SmStats::new();
        a.instructions = 10;
        let mut b = SmStats::new();
        b.instructions = 5;
        b.partition_accesses
            .record(RfPartition::MrfStv, AccessKind::Read);
        b.per_warp.entry((0, 0)).or_default().record(Reg(0));
        a.merge(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.partition_accesses.total(), 1);
        assert_eq!(a.per_warp[&(0, 0)].count(Reg(0)), 1);
    }
}
