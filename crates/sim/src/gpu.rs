//! The whole-GPU simulation driver: CTA dispatch across SMs and the main
//! cycle loop.
//!
//! # Two-phase global memory
//!
//! Every cycle has two phases. In the first, each SM steps cycle `c`
//! against a frozen image of global memory: it only *reads* global
//! memory, and its stores are staged in a per-SM log (see
//! [`crate::GmemView`]). In the second, the driver commits the logs in
//! ascending SM order. No SM can see another's stores of the same cycle,
//! so the order in which SMs step within a cycle cannot change any result.
//!
//! Every SM steps every cycle, on one thread. DESIGN.md §7.1 records why
//! the SMs are not stepped in parallel, §7.2 why the driver has no
//! fast-forward over idle spans.

use std::sync::Arc;

use prf_isa::{CtaId, GridConfig, Kernel};

use crate::config::GpuConfig;
use crate::mem::GlobalMemory;
use crate::rf::RegisterFileModel;
use crate::sm::{KernelImage, Sm};
use crate::stats::{SimResult, SmStats};

/// Round-robin CTA dispatch over the SMs, as many CTAs as fit this cycle.
fn dispatch_ctas(sms: &mut [Sm], grid: GridConfig, next_cta: &mut u32, cycle: u64) {
    while *next_cta < grid.num_ctas {
        let mut dispatched = false;
        for sm in sms.iter_mut() {
            if *next_cta >= grid.num_ctas {
                return;
            }
            if sm.try_dispatch_cta(CtaId(*next_cta), cycle) {
                *next_cta += 1;
                dispatched = true;
            }
        }
        if !dispatched {
            return;
        }
    }
}

/// Errors from running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The kernel exceeded `GpuConfig::max_cycles` — almost always an
    /// infinite loop in the kernel under test.
    CycleLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// An input (config, kernel, launch geometry, fault setup) was
    /// rejected before simulation started. Deterministic: retrying the
    /// same input can never succeed.
    Invalid(crate::validate::ValidationError),
}

impl SimError {
    /// True for errors that are a pure function of the inputs — rerunning
    /// the same job will fail the same way, so callers should fail fast
    /// rather than retry. (Every current variant is deterministic; the
    /// distinction matters to retry policies that also see panics and
    /// timeouts.)
    pub fn is_deterministic(&self) -> bool {
        match self {
            SimError::CycleLimitExceeded { .. } | SimError::Invalid(_) => true,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimitExceeded { limit } => {
                write!(f, "simulation exceeded the {limit}-cycle safety limit")
            }
            SimError::Invalid(e) => write!(f, "rejected input: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<crate::validate::ValidationError> for SimError {
    fn from(e: crate::validate::ValidationError) -> Self {
        SimError::Invalid(e)
    }
}

/// A GPU: a set of SMs sharing global memory, plus the CTA dispatcher.
///
/// # Example
///
/// ```rust
/// use prf_isa::{GridConfig, KernelBuilder, Reg, SpecialReg};
/// use prf_sim::{Gpu, GpuConfig, BaselineRf};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut kb = KernelBuilder::new("quick");
/// kb.mov_special(Reg(0), SpecialReg::GlobalTid);
/// kb.iadd_imm(Reg(1), Reg(0), 1);
/// kb.stg(Reg(0), Reg(1), 0);
/// kb.exit();
/// let kernel = kb.build()?;
///
/// let config = GpuConfig::kepler_single_sm();
/// let banks = config.num_rf_banks;
/// let mut gpu = Gpu::new(config);
/// let result = gpu.run(
///     kernel,
///     GridConfig::new(4, 64),
///     &|_sm| Box::new(BaselineRf::stv(banks)),
/// )?;
/// assert!(result.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    global: GlobalMemory,
    /// Cycle counter carried across kernel launches (a workload may launch
    /// several kernels back to back, as backprop does).
    pub cycle: u64,
    /// Always 0: the driver steps every cycle. Kept only because the
    /// repository benchmark (`perfbench/src/matrix.rs`) reads it, and
    /// `perfbench/` changes only together with the benchmark's stored
    /// reference; the field goes at that next benchmark change.
    pub skipped_cycles: u64,
    /// Warp contexts recycled across kernel launches: each launch seeds
    /// its SMs from this pool and reclaims it afterwards, so multi-launch
    /// workloads allocate register storage once. Never affects results.
    warp_pool: Vec<crate::warp::WarpContext>,
}

impl Gpu {
    /// Creates a GPU with zeroed global memory.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; [`Gpu::try_new`] is the
    /// non-panicking form for untrusted configs.
    pub fn new(config: GpuConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a GPU with zeroed global memory, rejecting an unusable
    /// configuration as [`SimError::Invalid`] instead of panicking.
    pub fn try_new(config: GpuConfig) -> Result<Self, SimError> {
        config.check()?;
        let global = GlobalMemory::new(config.global_mem_words);
        Ok(Gpu {
            config,
            global,
            cycle: 0,
            skipped_cycles: 0,
            warp_pool: Vec::new(),
        })
    }

    /// Moves recycled warp contexts into this GPU's cross-launch pool
    /// (e.g. from [`Gpu::take_warp_pool`] of a finished instance). Purely
    /// an allocation optimisation; simulation results are unaffected.
    pub fn adopt_warp_pool(&mut self, pool: Vec<crate::warp::WarpContext>) {
        self.warp_pool.extend(pool);
    }

    /// Takes the recycled warp contexts accumulated by previous runs.
    pub fn take_warp_pool(&mut self) -> Vec<crate::warp::WarpContext> {
        std::mem::take(&mut self.warp_pool)
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Functional global memory (initialise workload inputs here).
    pub fn global_mem(&mut self) -> &mut GlobalMemory {
        &mut self.global
    }

    /// Read-only view of global memory (check workload outputs here).
    pub fn global_mem_ref(&self) -> &GlobalMemory {
        &self.global
    }

    /// Runs one kernel to completion.
    ///
    /// `rf_factory` builds the per-SM register-file model; it is invoked
    /// once per SM with the SM index, and each model's
    /// [`RegisterFileModel::on_launch_end`] runs once the kernel completes.
    /// The pilot warp is warp 0 of CTA 0.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleLimitExceeded`] if the kernel does not
    /// finish within `GpuConfig::max_cycles` cycles, and
    /// [`SimError::Invalid`] — before any machine state is built — if the
    /// kernel fails semantic validation ([`prf_isa::KernelValidator`]) or
    /// the launch could never dispatch a CTA on this configuration.
    pub fn run(
        &mut self,
        kernel: impl Into<Arc<Kernel>>,
        grid: GridConfig,
        rf_factory: &dyn Fn(usize) -> Box<dyn RegisterFileModel>,
    ) -> Result<SimResult, SimError> {
        let kernel = kernel.into();
        crate::validate::check_launch(&self.config, &kernel, grid)?;
        let name = kernel.name().to_string();
        let image = Arc::new(KernelImage::new(kernel, grid));
        let mut sms: Vec<Sm> = (0..self.config.num_sms)
            .map(|i| Sm::new(i, &self.config, Arc::clone(&image), rf_factory(i)))
            .collect();
        let start_cycle = self.cycle;
        // Seed SMs with recycled warp contexts from earlier launches
        // (spread evenly; pool contents never affect results).
        let n = sms.len();
        let mut pool = std::mem::take(&mut self.warp_pool);
        for (i, sm) in sms.iter_mut().enumerate() {
            let keep = pool.len() * (n - i - 1) / (n - i);
            let mut chunk = pool.split_off(keep);
            sm.donate_warp_contexts(&mut chunk);
        }
        for sm in &mut sms {
            sm.notify_kernel_launch(start_cycle);
        }

        let mut next_cta = 0u32;
        let mut pilot_finish: Option<u64> = None;
        let limit = start_cycle + self.config.max_cycles;
        loop {
            let cycle = self.cycle;
            dispatch_ctas(&mut sms, grid, &mut next_cta, cycle);

            // Execute: every SM steps the cycle against the frozen memory
            // image, staging its stores.
            for sm in sms.iter_mut() {
                sm.cycle(cycle, &self.global);
            }
            // Commit: apply staged stores in SM order, drain finishes.
            let mut all_idle = true;
            for sm in sms.iter_mut() {
                all_idle &= sm.end_cycle(&mut self.global, &mut pilot_finish, start_cycle);
            }
            self.cycle += 1;

            if next_cta >= grid.num_ctas && all_idle {
                break;
            }
            if self.cycle >= limit {
                return Err(SimError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                });
            }
        }

        let mut stats = SmStats::new();
        let mut per_sm_instructions = Vec::with_capacity(sms.len());
        let mut trace = Vec::new();
        let mut samples = Vec::new();
        let mut audit = self.config.audit.then(crate::audit::AuditReport::default);
        for sm in &mut sms {
            sm.notify_launch_end();
            stats.merge(&sm.stats);
            per_sm_instructions.push(sm.stats.instructions);
            let observation = sm.finish_observation(self.cycle);
            trace.extend(observation.trace);
            samples.extend(observation.samples);
            if let (Some(merged), Some(report)) = (audit.as_mut(), &observation.audit) {
                merged.merge(report);
            }
            self.warp_pool.append(&mut sm.reclaim_warp_contexts());
        }
        crate::trace::normalize_trace(&mut trace);
        Ok(SimResult {
            kernel: name,
            cycles: self.cycle - start_cycle,
            stats,
            pilot_warp_finish: pilot_finish,
            per_sm_instructions,
            trace,
            samples,
            audit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerPolicy;
    use crate::rf::BaselineRf;
    use crate::sampling::SamplingConfig;
    use prf_isa::{CmpOp, KernelBuilder, PredReg, Reg, SpecialReg};

    fn store_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("store");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.iadd_imm(Reg(1), Reg(0), 100);
        kb.stg(Reg(0), Reg(1), 0);
        kb.exit();
        kb.build().unwrap()
    }

    /// A kernel with L1-missing loads, dependent ALU chains, a barrier
    /// and a loop, so SMs idle, stall and wake in every way they can.
    fn varied_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("varied");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.mov_imm(Reg(4), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.ldg(Reg(1), Reg(0), 0);
        kb.iadd(Reg(2), Reg(1), Reg(0));
        kb.imul_imm(Reg(2), Reg(2), 3);
        kb.stg(Reg(0), Reg(2), 0);
        kb.bar();
        kb.iadd_imm(Reg(4), Reg(4), 1);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(4), 3);
        kb.bra_if(PredReg(0), true, top);
        kb.exit();
        kb.build().unwrap()
    }

    /// Runs `varied_kernel` on `config` and returns the result plus a
    /// global-memory fingerprint.
    fn run_varied(config: GpuConfig) -> (SimResult, Vec<u32>) {
        let mut gpu = Gpu::new(config);
        let r = gpu
            .run(varied_kernel(), GridConfig::new(24, 128), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        let mem: Vec<u32> = (0..24 * 128)
            .map(|a| gpu.global_mem_ref().read(a))
            .collect();
        (r, mem)
    }

    fn observed_config(num_sms: usize) -> GpuConfig {
        GpuConfig {
            num_sms,
            global_mem_words: 1 << 14,
            trace_capacity: 1 << 14,
            audit: true,
            sampling: Some(SamplingConfig { window: 64 }),
            ..GpuConfig::kepler_gtx780()
        }
    }

    /// Four SMs commit staged global writes every cycle under each
    /// scheduler with every observer on: the audit stays clean, and a
    /// second run on a fresh GPU repeats the first exactly.
    #[test]
    fn observed_multi_sm_runs_are_audit_clean_and_repeatable() {
        for policy in [
            SchedulerPolicy::Gto,
            SchedulerPolicy::Lrr,
            SchedulerPolicy::TwoLevel {
                active_per_scheduler: 4,
            },
            SchedulerPolicy::FetchGroup { group_size: 4 },
        ] {
            let config = GpuConfig {
                scheduler: policy,
                ..observed_config(4)
            };
            let (first, first_mem) = run_varied(config.clone());
            assert!(first.audit.as_ref().unwrap().is_clean(), "{policy:?}");
            assert!(!first.trace.is_empty() && !first.samples.is_empty());
            let (second, second_mem) = run_varied(config);
            assert_eq!(first, second, "{policy:?} run did not repeat");
            assert_eq!(first_mem, second_mem, "{policy:?} memory did not repeat");
        }
    }

    #[test]
    fn single_sm_run_completes() {
        let mut gpu = Gpu::new(GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        });
        let r = gpu
            .run(store_kernel(), GridConfig::new(8, 128), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        assert_eq!(r.stats.instructions, 4 * 8 * 4);
        assert!(r.pilot_warp_finish.is_some());
        assert!(r.ipc() > 0.0);
        assert_eq!(gpu.global_mem_ref().read(500), 600);
    }

    #[test]
    fn multi_sm_distributes_ctas() {
        let config = GpuConfig {
            num_sms: 4,
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_gtx780()
        };
        let mut gpu = Gpu::new(config);
        let r = gpu
            .run(store_kernel(), GridConfig::new(16, 64), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        assert_eq!(r.per_sm_instructions.len(), 4);
        assert!(
            r.per_sm_instructions.iter().all(|&i| i > 0),
            "all SMs should get work: {:?}",
            r.per_sm_instructions
        );
        // All 1024 threads stored.
        assert_eq!(gpu.global_mem_ref().read(1023), 1123);
    }

    #[test]
    fn cycle_limit_catches_infinite_loops() {
        let mut kb = KernelBuilder::new("hang");
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(0), Reg(0), 1);
        kb.bra(top);
        kb.exit();
        let k = kb.build().unwrap();
        let mut gpu = Gpu::new(GpuConfig {
            max_cycles: 5_000,
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        });
        let err = gpu
            .run(k, GridConfig::new(1, 32), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimitExceeded { limit: 5_000 });
    }

    #[test]
    fn back_to_back_kernels_accumulate_cycles() {
        let mut gpu = Gpu::new(GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        });
        let r1 = gpu
            .run(store_kernel(), GridConfig::new(2, 64), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        let c1 = gpu.cycle;
        let r2 = gpu
            .run(store_kernel(), GridConfig::new(2, 64), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        assert!(gpu.cycle > c1);
        assert_eq!(r1.stats.instructions, r2.stats.instructions);
    }

    #[test]
    fn pilot_fraction_small_for_many_ctas() {
        let mut gpu = Gpu::new(GpuConfig {
            global_mem_words: 1 << 16,
            ..GpuConfig::kepler_single_sm()
        });
        let r = gpu
            .run(store_kernel(), GridConfig::new(64, 256), &|_| {
                Box::new(BaselineRf::stv(24))
            })
            .unwrap();
        let frac = r.pilot_runtime_fraction().unwrap();
        assert!(frac < 0.5, "pilot fraction should be small, got {frac}");
    }
}
