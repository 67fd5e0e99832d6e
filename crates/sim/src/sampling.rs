//! Sampled time-series telemetry: cycle-windowed counter deltas per SM.
//!
//! When `GpuConfig::sampling` is set, every SM's observer carries a
//! sampler that snapshots its [`SmStats`] counters once per `window` cycles and
//! records the *delta* since the previous boundary into a preallocated
//! buffer. Because each window stores deltas of the very counters the SM
//! already maintains, the series is conservative by construction: summing
//! any counter over all windows (the last one may be partial) reproduces
//! the run's final `SmStats` value exactly — an invariant the audit layer
//! checks when the observer closes (`Sm::finish_observation`).
//!
//! Sampling off (`sampling: None`) costs one branch per SM per cycle and
//! changes nothing else; simulation results are bit-identical either way.

use crate::audit::AuditReport;
use crate::rf::RfPartition;
use crate::stats::SmStats;

/// Sampling knob for [`crate::GpuConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Window length in cycles (must be ≥ 1). Every `window` cycles the
    /// SM closes one [`SampleWindow`].
    pub window: u64,
}

impl SamplingConfig {
    /// A sampling configuration with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn every(window: u64) -> Self {
        assert!(window >= 1, "sampling window must be at least one cycle");
        SamplingConfig { window }
    }
}

/// The monotone counters a window tracks, snapshotted at each boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CounterSnapshot {
    instructions: u64,
    issue_cycles: u64,
    active_cycles: u64,
    stall_mem: u64,
    stall_barrier: u64,
    stall_collector: u64,
    stall_alu_dep: u64,
    rf_reads: [u64; 8],
    rf_writes: [u64; 8],
}

impl CounterSnapshot {
    fn of(stats: &SmStats) -> Self {
        let mut rf_reads = [0u64; 8];
        let mut rf_writes = [0u64; 8];
        for p in RfPartition::ALL {
            rf_reads[p.index()] = stats.partition_accesses.reads(p);
            rf_writes[p.index()] = stats.partition_accesses.writes(p);
        }
        CounterSnapshot {
            instructions: stats.instructions,
            issue_cycles: stats.issue_cycles,
            active_cycles: stats.active_cycles,
            stall_mem: stats.stall_mem,
            stall_barrier: stats.stall_barrier,
            stall_collector: stats.stall_collector,
            stall_alu_dep: stats.stall_alu_dep,
            rf_reads,
            rf_writes,
        }
    }
}

/// One closed sampling window: counter deltas over `cycles` cycles plus
/// instantaneous gauges read at the window boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleWindow {
    /// First cycle covered by the window (global cycle numbering).
    pub start_cycle: u64,
    /// Cycles covered (equals the configured window except for a partial
    /// final window).
    pub cycles: u64,
    /// Warp-instructions issued within the window.
    pub instructions: u64,
    /// Cycles within the window in which at least one instruction issued.
    pub issue_cycles: u64,
    /// Cycles within the window the SM had at least one resident warp.
    pub active_cycles: u64,
    /// Zero-issue cycles dominated by the memory shadow.
    pub stall_mem: u64,
    /// Zero-issue cycles dominated by barrier waits.
    pub stall_barrier: u64,
    /// Zero-issue cycles dominated by collector starvation.
    pub stall_collector: u64,
    /// Zero-issue cycles dominated by ALU-latency dependences.
    pub stall_alu_dep: u64,
    /// RF reads granted within the window, dense by
    /// [`RfPartition::index`].
    pub rf_reads: [u64; 8],
    /// RF writes granted within the window, dense by
    /// [`RfPartition::index`].
    pub rf_writes: [u64; 8],
    /// Resident warps at the cycle the window closed (gauge).
    pub active_warps: usize,
    /// FRF power mode at the cycle the window closed: `Some(true)` when
    /// the model ran its FRF in low-power mode, `None` for models without
    /// an adaptive FRF (gauge).
    pub frf_low: Option<bool>,
}

impl SampleWindow {
    /// Instructions per cycle within the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// RF reads + writes within the window, over all partitions.
    pub fn rf_accesses(&self) -> u64 {
        self.rf_reads.iter().sum::<u64>() + self.rf_writes.iter().sum::<u64>()
    }
}

/// The windowed series recorded by one SM over one kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSeries {
    /// SM index the series belongs to.
    pub sm: usize,
    /// Configured window length in cycles.
    pub window: u64,
    /// Closed windows, oldest first; the last may be partial.
    pub windows: Vec<SampleWindow>,
}

impl SampleSeries {
    /// Sums one counter over all windows (the conservation primitive).
    pub fn total(&self, f: impl Fn(&SampleWindow) -> u64) -> u64 {
        self.windows.iter().map(f).sum()
    }
}

/// Per-SM sampling engine: owned by the SM, fed once per cycle, flushed at
/// end of run.
#[derive(Debug, Clone)]
pub(crate) struct SmSampler {
    window: u64,
    /// Counter values at the last window boundary.
    prev: CounterSnapshot,
    /// First cycle of the currently open window (`None` before the first
    /// `on_cycle` call).
    window_start: Option<u64>,
    /// Cycles accumulated in the open window.
    open_cycles: u64,
    /// Closed windows. The buffer grows as windows close and reserves
    /// nothing up front: every finished series outlives its run in the
    /// experiment result, so a reserve sized for long runs would be held,
    /// unused, for every short one.
    windows: Vec<SampleWindow>,
}

impl SmSampler {
    /// A sampler with the given configuration.
    pub fn new(config: SamplingConfig) -> Self {
        assert!(config.window >= 1, "sampling window must be positive");
        SmSampler {
            window: config.window,
            prev: CounterSnapshot::default(),
            window_start: None,
            open_cycles: 0,
            windows: Vec::new(),
        }
    }

    /// Advances the sampler by one simulated cycle. `stats` is the SM's
    /// cumulative statistics *after* the cycle executed; `active_warps`
    /// and `frf_low` are instantaneous gauges.
    pub fn on_cycle(
        &mut self,
        cycle: u64,
        stats: &SmStats,
        active_warps: usize,
        frf_low: Option<bool>,
    ) {
        if self.window_start.is_none() {
            self.window_start = Some(cycle);
        }
        self.open_cycles += 1;
        if self.open_cycles >= self.window {
            self.close_window(stats, active_warps, frf_low);
        }
    }

    /// Closes the partial final window (if any cycles are pending) and
    /// returns the recorded series. Call exactly once, after the run.
    pub fn finish(mut self, sm: usize, stats: &SmStats, active_warps: usize) -> SampleSeries {
        if self.open_cycles > 0 {
            self.close_window(stats, active_warps, None);
        }
        SampleSeries {
            sm,
            window: self.window,
            windows: self.windows,
        }
    }

    fn close_window(&mut self, stats: &SmStats, active_warps: usize, frf_low: Option<bool>) {
        let now = CounterSnapshot::of(stats);
        let p = &self.prev;
        let mut rf_reads = [0u64; 8];
        let mut rf_writes = [0u64; 8];
        for i in 0..8 {
            rf_reads[i] = now.rf_reads[i] - p.rf_reads[i];
            rf_writes[i] = now.rf_writes[i] - p.rf_writes[i];
        }
        let start_cycle = self
            .window_start
            .expect("an open window always has a start");
        self.windows.push(SampleWindow {
            start_cycle,
            cycles: self.open_cycles,
            instructions: now.instructions - p.instructions,
            issue_cycles: now.issue_cycles - p.issue_cycles,
            active_cycles: now.active_cycles - p.active_cycles,
            stall_mem: now.stall_mem - p.stall_mem,
            stall_barrier: now.stall_barrier - p.stall_barrier,
            stall_collector: now.stall_collector - p.stall_collector,
            stall_alu_dep: now.stall_alu_dep - p.stall_alu_dep,
            rf_reads,
            rf_writes,
            active_warps,
            frf_low,
        });
        self.prev = now;
        self.window_start = Some(start_cycle + self.open_cycles);
        self.open_cycles = 0;
    }
}

/// Audits one SM's sampled series against its final statistics: every
/// windowed counter, summed over the whole series, must equal the
/// cumulative `SmStats` value — windows are deltas of those counters, so
/// any drift means a window was dropped, double-counted, or mis-sliced.
pub(crate) fn check_series_conservation(
    report: &mut AuditReport,
    series: &SampleSeries,
    stats: &SmStats,
    final_cycle: u64,
    sm: usize,
) {
    let checks: [(&'static str, u64, u64); 7] = [
        (
            "sampling: instruction conservation",
            series.total(|w| w.instructions),
            stats.instructions,
        ),
        (
            "sampling: issue-cycle conservation",
            series.total(|w| w.issue_cycles),
            stats.issue_cycles,
        ),
        (
            "sampling: active-cycle conservation",
            series.total(|w| w.active_cycles),
            stats.active_cycles,
        ),
        (
            "sampling: mem-stall conservation",
            series.total(|w| w.stall_mem),
            stats.stall_mem,
        ),
        (
            "sampling: barrier-stall conservation",
            series.total(|w| w.stall_barrier),
            stats.stall_barrier,
        ),
        (
            "sampling: collector-stall conservation",
            series.total(|w| w.stall_collector),
            stats.stall_collector,
        ),
        (
            "sampling: alu-stall conservation",
            series.total(|w| w.stall_alu_dep),
            stats.stall_alu_dep,
        ),
    ];
    for (invariant, observed, expected) in checks {
        report.check_counts(invariant, expected, observed, final_cycle, Some(sm));
    }
    for p in RfPartition::ALL {
        report.check_counts(
            "sampling: RF-read conservation",
            stats.partition_accesses.reads(p),
            series.total(|w| w.rf_reads[p.index()]),
            final_cycle,
            Some(sm),
        );
        report.check_counts(
            "sampling: RF-write conservation",
            stats.partition_accesses.writes(p),
            series.total(|w| w.rf_writes[p.index()]),
            final_cycle,
            Some(sm),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::AccessKind;

    fn stats_at(instructions: u64, reads: u64) -> SmStats {
        let mut s = SmStats::new();
        s.instructions = instructions;
        for _ in 0..reads {
            s.partition_accesses
                .record(RfPartition::MrfStv, AccessKind::Read);
        }
        s
    }

    #[test]
    fn windows_carry_deltas_not_totals() {
        let mut sampler = SmSampler::new(SamplingConfig::every(2));
        let s1 = stats_at(3, 2);
        sampler.on_cycle(0, &s1, 4, None);
        sampler.on_cycle(1, &s1, 4, None); // closes window 1: 3 instrs
        let s2 = stats_at(10, 5);
        sampler.on_cycle(2, &s2, 2, Some(true));
        sampler.on_cycle(3, &s2, 2, Some(true)); // closes window 2: 7 instrs
        let series = sampler.finish(0, &s2, 2);
        assert_eq!(series.windows.len(), 2);
        assert_eq!(series.windows[0].instructions, 3);
        assert_eq!(series.windows[0].start_cycle, 0);
        assert_eq!(series.windows[1].instructions, 7);
        assert_eq!(series.windows[1].start_cycle, 2);
        assert_eq!(series.windows[1].frf_low, Some(true));
        assert_eq!(series.windows[1].rf_reads[RfPartition::MrfStv.index()], 3);
        assert_eq!(series.total(|w| w.instructions), 10);
    }

    #[test]
    fn finished_series_capacity_tracks_its_window_count() {
        let s = stats_at(0, 0);
        for cycles in [1u64, 5, 40, 333, 5000] {
            let mut sampler = SmSampler::new(SamplingConfig::every(3));
            for c in 0..cycles {
                sampler.on_cycle(c, &s, 1, None);
            }
            let series = sampler.finish(0, &s, 1);
            let n = series.windows.len();
            assert_eq!(n as u64, cycles.div_ceil(3));
            assert!(
                series.windows.capacity() <= 2 * n.max(4),
                "{n} windows in a buffer of {}",
                series.windows.capacity()
            );
        }
    }

    #[test]
    fn partial_final_window_is_flushed() {
        let mut sampler = SmSampler::new(SamplingConfig::every(10));
        let s = stats_at(5, 0);
        for c in 0..3 {
            sampler.on_cycle(c, &s, 1, None);
        }
        let series = sampler.finish(7, &s, 1);
        assert_eq!(series.sm, 7);
        assert_eq!(series.windows.len(), 1);
        assert_eq!(series.windows[0].cycles, 3);
        assert_eq!(series.windows[0].instructions, 5);
        assert!((series.windows[0].ipc() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_produces_no_windows() {
        let sampler = SmSampler::new(SamplingConfig::every(4));
        let series = sampler.finish(0, &SmStats::new(), 0);
        assert!(series.windows.is_empty());
    }

    #[test]
    fn conservation_check_passes_for_honest_series_and_fails_for_tampered() {
        let mut sampler = SmSampler::new(SamplingConfig::every(2));
        let s1 = stats_at(4, 3);
        sampler.on_cycle(0, &s1, 1, None);
        sampler.on_cycle(1, &s1, 1, None);
        let s2 = stats_at(9, 8);
        sampler.on_cycle(2, &s2, 1, None);
        let mut series = sampler.finish(0, &s2, 1);

        let mut clean = AuditReport::default();
        check_series_conservation(&mut clean, &series, &s2, 3, 0);
        assert!(clean.is_clean(), "{clean}");
        assert!(clean.checks >= 7 + 16);

        series.windows[0].instructions += 1; // the deliberate drift
        let mut tampered = AuditReport::default();
        check_series_conservation(&mut tampered, &series, &s2, 3, 0);
        assert!(!tampered.is_clean());
        assert_eq!(
            tampered.violations[0].invariant,
            "sampling: instruction conservation"
        );
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_window_is_rejected() {
        SamplingConfig::every(0);
    }
}
