//! Simulator configuration (the paper's Table II).

use std::fmt;

/// Warp-scheduler policy.
///
/// The paper evaluates the proposed register file under GTO, the two-level
/// (TL) scheduler that the RFC design requires, and the fetch-group
/// scheduler, reporting "consistent performance across all the schedulers"
/// (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the last-issued warp; on stall
    /// fall back to the oldest ready warp.
    Gto,
    /// Loose round-robin.
    Lrr,
    /// Two-level scheduler (Gebhart et al., ISCA 2011): a small *active*
    /// pool issues; warps that hit a long-latency dependence are demoted to
    /// the pending pool and replaced. Required by the RFC baseline, which
    /// flushes a warp's cache entries on demotion.
    TwoLevel {
        /// Active-pool size per scheduler (warps).
        active_per_scheduler: usize,
    },
    /// Fetch-group scheduling (Narasiman et al., MICRO 2011): warps are
    /// grouped; one group is prioritised until it stalls, then the next.
    FetchGroup {
        /// Warps per fetch group.
        group_size: usize,
    },
}

impl SchedulerPolicy {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerPolicy::Gto => "GTO",
            SchedulerPolicy::Lrr => "LRR",
            SchedulerPolicy::TwoLevel { .. } => "TL",
            SchedulerPolicy::FetchGroup { .. } => "FG",
        }
    }
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full GPU configuration.
///
/// Defaults come from the paper's Table II (Kepler GTX-780-like):
/// 15 SMs, 64 warps/SM, 4 schedulers × 2-issue, 24 RF banks, 24 operand
/// collectors, 256 KB RF per SM.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Hardware warp slots per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// Warp schedulers per SM.
    pub num_schedulers: usize,
    /// Instructions each scheduler may issue per cycle.
    pub issue_per_scheduler: usize,
    /// Register-file banks per SM.
    pub num_rf_banks: usize,
    /// Operand-collector units per SM.
    pub num_collectors: usize,
    /// Register file capacity in 32-bit registers (256 KB → 65536).
    pub rf_registers: usize,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Integer-ALU result latency (cycles).
    pub alu_latency: u32,
    /// FP-unit result latency (cycles).
    pub fp_latency: u32,
    /// Special-function-unit result latency (cycles).
    pub sfu_latency: u32,
    /// Shared-memory access latency (cycles).
    pub shared_mem_latency: u32,
    /// Global-memory L1 hit latency (cycles).
    pub l1_hit_latency: u32,
    /// Global-memory L1 miss (DRAM round-trip) latency (cycles).
    pub l1_miss_latency: u32,
    /// L1 cache lines (128-byte lines, fully associative LRU model).
    pub l1_lines: usize,
    /// Whether RF banks are pipelined: a bank accepts a new request every
    /// cycle and a multi-cycle access only delays the data (the paper's
    /// operating assumption — the SRF's 3 cycles cost latency, not
    /// throughput). Clear for the unpipelined-bank ablation.
    pub rf_pipelined: bool,
    /// Global memory size in 32-bit words (addresses wrap modulo this).
    pub global_mem_words: usize,
    /// Shared memory size per CTA in 32-bit words.
    pub shared_mem_words: usize,
    /// Collect per-warp per-register access counts (needed only by the
    /// §III-A2 code-dynamics analysis; costs memory on big launches).
    pub per_warp_stats: bool,
    /// Issue-jitter divisor: each cycle, a warp is skipped for issue with
    /// probability `1/issue_jitter` (deterministic hash of cycle and
    /// slot). Models the fetch/i-buffer hiccups real pipelines have and
    /// prevents the perfectly regular synthetic warps from phase-locking.
    /// 0 disables jitter.
    pub issue_jitter: u32,
    /// Seed mixed into the issue-jitter hash. Experiments average over a
    /// few seeds to wash out timing-resonance noise, as one would average
    /// over multiple measured runs on hardware.
    pub jitter_seed: u64,
    /// Minimum cycles between CTA dispatches to the same SM. Real GPUs
    /// take tens of cycles to initialise a CTA's state; modelling this
    /// staggers otherwise lock-step CTA waves and breaks artificial
    /// memory-burst resonance.
    pub cta_dispatch_interval: u64,
    /// Safety limit: abort if a kernel exceeds this many cycles.
    pub max_cycles: u64,
    /// Per-SM pipeline-trace ring capacity (events). 0 disables tracing.
    pub trace_capacity: usize,
    /// Sampled time-series telemetry: when set, each SM records
    /// cycle-windowed counter deltas (IPC, per-partition RF traffic,
    /// active warps, FRF mode, stall breakdown) into a preallocated
    /// buffer ([`crate::sampling`]). `None` (the default) records nothing
    /// and costs one branch per SM per cycle.
    pub sampling: Option<crate::sampling::SamplingConfig>,
    /// Run the conservation-invariant auditor ([`crate::audit`]): every
    /// pipeline event is counted and cross-checked against the statistics
    /// counters at end of run. Costs a few percent of simulation speed;
    /// off by default, on in integration tests and under `--audit` in the
    /// figure binaries.
    pub audit: bool,
    /// Worker threads for intra-simulation SM parallelism: each cycle, the
    /// SMs step concurrently on a persistent scoped pool and their buffered
    /// global-memory writes commit in SM-id order at the cycle barrier, so
    /// the result is bit-identical to the serial loop. `1` (the default)
    /// keeps the serial loop; values above `num_sms` are clamped. Plumbed
    /// from `PRF_SM_THREADS` by the experiment harness.
    pub sm_threads: usize,
}

impl GpuConfig {
    /// The paper's Kepler GTX-780-like configuration (Table II).
    pub fn kepler_gtx780() -> Self {
        GpuConfig {
            num_sms: 15,
            max_warps_per_sm: 64,
            max_ctas_per_sm: 16,
            num_schedulers: 4,
            issue_per_scheduler: 2,
            num_rf_banks: 24,
            num_collectors: 24,
            rf_registers: 256 * 1024 / 4,
            scheduler: SchedulerPolicy::Gto,
            alu_latency: 4,
            fp_latency: 4,
            sfu_latency: 16,
            shared_mem_latency: 24,
            l1_hit_latency: 28,
            l1_miss_latency: 220,
            l1_lines: 256, // 32 KB of 128-byte lines
            rf_pipelined: true,
            global_mem_words: 1 << 22, // 16 MB
            shared_mem_words: 48 * 1024 / 4,
            per_warp_stats: false,
            issue_jitter: 13,
            jitter_seed: 0,
            cta_dispatch_interval: 25,
            max_cycles: 50_000_000,
            trace_capacity: 0,
            sampling: None,
            audit: false,
            sm_threads: 1,
        }
    }

    /// A single-SM version of [`GpuConfig::kepler_gtx780`], used by most
    /// experiments: register-file behaviour is per-SM, so simulating one SM
    /// with its share of CTAs produces the same RF statistics faster (the
    /// standard methodology for RF studies).
    pub fn kepler_single_sm() -> Self {
        GpuConfig {
            num_sms: 1,
            ..Self::kepler_gtx780()
        }
    }

    /// Maximum issue width per SM per cycle (8 for the default config —
    /// "at most 8 instructions can be issued every cycle", §IV-C).
    pub fn issue_width(&self) -> usize {
        self.num_schedulers * self.issue_per_scheduler
    }

    /// How many CTAs of the given shape fit on one SM simultaneously,
    /// limited by CTA slots, warp slots, and register-file capacity.
    pub fn max_resident_ctas(&self, threads_per_cta: u32, regs_per_thread: u8) -> usize {
        let warps_per_cta = threads_per_cta.div_ceil(32) as usize;
        let by_warps = self.max_warps_per_sm / warps_per_cta.max(1);
        let regs_per_cta = threads_per_cta as usize * regs_per_thread.max(1) as usize;
        let by_regs = self
            .rf_registers
            .checked_div(regs_per_cta)
            .unwrap_or(self.max_ctas_per_sm);
        self.max_ctas_per_sm.min(by_warps).min(by_regs).max(1)
    }

    /// Checks internal consistency, returning the first offending field
    /// as a typed [`crate::validate::ValidationError`].
    pub fn check(&self) -> Result<(), crate::validate::ValidationError> {
        crate::validate::check_config(self)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any structural parameter is zero or global memory is not
    /// a power of two. [`GpuConfig::check`] is the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::kepler_gtx780()
    }
}

impl fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GPU configuration (Table II):")?;
        writeln!(f, "  SMs                      {}", self.num_sms)?;
        writeln!(f, "  warps/SM                 {}", self.max_warps_per_sm)?;
        writeln!(
            f,
            "  schedulers x issue       {} x {}",
            self.num_schedulers, self.issue_per_scheduler
        )?;
        writeln!(
            f,
            "  RF banks / collectors    {} / {}",
            self.num_rf_banks, self.num_collectors
        )?;
        writeln!(
            f,
            "  RF size                  {} KB",
            self.rf_registers * 4 / 1024
        )?;
        writeln!(f, "  scheduler                {}", self.scheduler)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kepler_matches_table2() {
        let c = GpuConfig::kepler_gtx780();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.max_warps_per_sm, 64);
        assert_eq!(c.num_rf_banks, 24);
        assert_eq!(c.num_collectors, 24);
        assert_eq!(c.rf_registers * 4, 256 * 1024);
        assert_eq!(c.issue_width(), 8);
        c.validate();
    }

    #[test]
    fn resident_cta_limits() {
        let c = GpuConfig::kepler_gtx780();
        // 256 threads, 13 regs (backprop): warp limit = 64/8 = 8 CTAs;
        // register limit = 65536/(256*13) = 19 -> warp-bound 8.
        assert_eq!(c.max_resident_ctas(256, 13), 8);
        // 1024 threads (stencil): 64/32 = 2 CTAs.
        assert_eq!(c.max_resident_ctas(1024, 15), 2);
        // Tiny CTAs (nw, 16 threads): CTA-slot bound, 16.
        assert_eq!(c.max_resident_ctas(16, 21), 16);
        // Register-hungry: 512 threads x 27 regs = 13824 regs/CTA ->
        // 65536/13824 = 4 CTAs (< warp bound of 4... equal) -> 4.
        assert_eq!(c.max_resident_ctas(512, 27), 4);
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(SchedulerPolicy::Gto.name(), "GTO");
        assert_eq!(
            SchedulerPolicy::TwoLevel {
                active_per_scheduler: 8
            }
            .name(),
            "TL"
        );
        assert_eq!(SchedulerPolicy::FetchGroup { group_size: 8 }.name(), "FG");
        assert_eq!(SchedulerPolicy::Lrr.to_string(), "LRR");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn validate_rejects_non_pow2_memory() {
        let c = GpuConfig {
            global_mem_words: 1000,
            ..GpuConfig::kepler_gtx780()
        };
        c.validate();
    }

    #[test]
    fn display_mentions_key_params() {
        let s = GpuConfig::kepler_gtx780().to_string();
        assert!(s.contains("256 KB"));
        assert!(s.contains("4 x 2"));
    }
}
