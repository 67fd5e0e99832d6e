//! The whole-GPU simulation driver: CTA dispatch across SMs and the main
//! cycle loop.
//!
//! # Determinism under SM-parallel stepping
//!
//! Every cycle is a barrier: all SMs step cycle `c` before any SM sees
//! cycle `c + 1`. Within the cycle, SMs only *read* global memory (their
//! stores are staged in a per-SM log, see [`crate::GmemView`]); the driver
//! then commits the logs in ascending SM order. Both the serial and the
//! SM-parallel paths follow this exact schedule, so a parallel run is
//! bit-for-bit identical to a serial one — same stats, trace, samples, and
//! audit — regardless of worker count or thread interleaving.
//!
//! Every SM steps every cycle. DESIGN.md §7.2 records why the driver has
//! no fast-forward over idle spans.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use prf_isa::{CtaId, GridConfig, Kernel};

use crate::config::GpuConfig;
use crate::mem::GlobalMemory;
use crate::rf::RegisterFileModel;
use crate::sm::{KernelImage, Sm};
use crate::stats::{SimResult, SmStats};

/// Round-robin CTA dispatch over `num_sms` SMs, as many as fit this
/// cycle: `try_dispatch(sm, cta)` offers `cta` to SM `sm` and reports
/// whether it became resident.
fn dispatch_ctas(
    num_sms: usize,
    grid: GridConfig,
    next_cta: &mut u32,
    mut try_dispatch: impl FnMut(usize, CtaId) -> bool,
) {
    while *next_cta < grid.num_ctas {
        let mut dispatched = false;
        for sm in 0..num_sms {
            if *next_cta >= grid.num_ctas {
                return;
            }
            if try_dispatch(sm, CtaId(*next_cta)) {
                *next_cta += 1;
                dispatched = true;
            }
        }
        if !dispatched {
            return;
        }
    }
}

/// A sense-reversing spin-then-block barrier for the SM-parallel cycle
/// loop.
///
/// The loop synchronises twice per simulated cycle, so barrier cost is on
/// the critical path. When each thread has its own core, waits almost
/// always resolve in the bounded spin phase (~100ns, no syscall) — far
/// cheaper than the mutex + condvar handoff of `std::sync::Barrier`, whose
/// ~µs per wait dwarfed the per-SM work and made parallel stepping slower
/// than serial. When threads outnumber cores, spinning burns the
/// timeslice the *other* threads need, so the barrier detects
/// oversubscription at construction and blocks on a condvar immediately,
/// matching `std::sync::Barrier` behaviour.
struct SpinBarrier {
    total: usize,
    spin_limit: u32,
    count: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    condvar: std::sync::Condvar,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // `total` counts the driver thread too; it parks between barriers,
        // so workers only need cores for themselves most of the time.
        let spin_limit = if cores >= total { 1 << 14 } else { 0 };
        SpinBarrier {
            total,
            spin_limit,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            condvar: std::sync::Condvar::new(),
        }
    }

    /// Blocks until `total` threads have called `wait` for this generation.
    ///
    /// The last arrival resets the count *before* publishing the new
    /// generation, so a thread that races ahead into the next `wait`
    /// starts the next generation from zero; a spinning thread can never
    /// miss a generation because advancing again requires its own arrival.
    /// The generation bump happens under `lock`, which a blocking waiter
    /// holds between its re-check and `condvar.wait`, so wakeups are never
    /// lost.
    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            let guard = self.lock.lock().expect("barrier lock");
            self.generation.fetch_add(1, Ordering::Release);
            drop(guard);
            self.condvar.notify_all();
            return;
        }
        for _ in 0..self.spin_limit {
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().expect("barrier lock");
        while self.generation.load(Ordering::Acquire) == generation {
            guard = self.condvar.wait(guard).expect("barrier condvar");
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
    /// once per SM with the SM index. The pilot warp is warp 0 of CTA 0.
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
        let threads = self.config.sm_threads.min(sms.len());

        if threads > 1 {
            self.run_parallel(
                &mut sms,
                grid,
                &mut next_cta,
                &mut pilot_finish,
                start_cycle,
                limit,
                threads,
            )?;
        } else {
            self.run_serial(
                &mut sms,
                grid,
                &mut next_cta,
                &mut pilot_finish,
                start_cycle,
                limit,
            )?;
        }

        let mut stats = SmStats::new();
        let mut per_sm_instructions = Vec::with_capacity(sms.len());
        let mut trace = Vec::new();
        let mut samples = Vec::new();
        let mut audit = self.config.audit.then(crate::audit::AuditReport::default);
        for sm in &mut sms {
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

    /// The single-threaded cycle loop (also used when `sm_threads <= 1` or
    /// only one SM exists).
    fn run_serial(
        &mut self,
        sms: &mut [Sm],
        grid: GridConfig,
        next_cta: &mut u32,
        pilot_finish: &mut Option<u64>,
        start_cycle: u64,
        limit: u64,
    ) -> Result<(), SimError> {
        loop {
            let cycle = self.cycle;
            dispatch_ctas(sms.len(), grid, next_cta, |i, cta| {
                sms[i].try_dispatch_cta(cta, cycle)
            });

            // Execute: every SM steps the cycle against the frozen memory
            // image, staging its stores.
            for sm in sms.iter_mut() {
                sm.cycle(cycle, &self.global);
            }
            // Commit: apply staged stores in SM order, drain finishes.
            let mut all_idle = true;
            for sm in sms.iter_mut() {
                all_idle &= sm.end_cycle(&mut self.global, pilot_finish, start_cycle);
            }
            self.cycle += 1;

            if *next_cta >= grid.num_ctas && all_idle {
                return Ok(());
            }
            if self.cycle >= limit {
                return Err(SimError::CycleLimitExceeded {
                    limit: self.config.max_cycles,
                });
            }
        }
    }

    /// The SM-parallel cycle loop: a persistent pool of `threads` scoped
    /// workers steps the SMs of each cycle concurrently (strided
    /// assignment), separated from the driver's dispatch/commit work by a
    /// pair of barriers. The schedule — and therefore every stat, trace
    /// event, sample, and audit counter — is identical to
    /// [`Gpu::run_serial`].
    #[allow(clippy::too_many_arguments)]
    fn run_parallel(
        &mut self,
        sms: &mut [Sm],
        grid: GridConfig,
        next_cta: &mut u32,
        pilot_finish: &mut Option<u64>,
        start_cycle: u64,
        limit: u64,
        threads: usize,
    ) -> Result<(), SimError> {
        let start = SpinBarrier::new(threads + 1);
        let done = SpinBarrier::new(threads + 1);
        let cycle_now = AtomicU64::new(self.cycle);
        let stop = AtomicBool::new(false);
        // Workers take shared read access during the execute phase; the
        // driver takes exclusive access for the commit phase. The barriers
        // keep the phases disjoint, so the locks never contend.
        let global = RwLock::new(&mut self.global);
        let cells: Vec<Mutex<&mut Sm>> = sms.iter_mut().map(Mutex::new).collect();
        let cycle_ref = &mut self.cycle;
        let max_cycles = self.config.max_cycles;

        let mut outcome = Ok(());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (start, done) = (&start, &done);
                let (cycle_now, stop) = (&cycle_now, &stop);
                let (global, cells) = (&global, &cells);
                scope.spawn(move || loop {
                    start.wait();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let cycle = cycle_now.load(Ordering::Acquire);
                    {
                        let mem = global.read().expect("gmem lock");
                        for cell in cells.iter().skip(t).step_by(threads) {
                            cell.lock().expect("sm lock").cycle(cycle, &mem);
                        }
                    }
                    done.wait();
                });
            }

            loop {
                // Dispatch + commit run on the driver thread, between the
                // `done` barrier of the previous cycle and the `start`
                // barrier of the next, so the uncontended locks are exact.
                dispatch_ctas(cells.len(), grid, next_cta, |i, cta| {
                    cells[i]
                        .lock()
                        .expect("sm lock")
                        .try_dispatch_cta(cta, *cycle_ref)
                });

                cycle_now.store(*cycle_ref, Ordering::Release);
                start.wait();
                // Workers execute the cycle here.
                done.wait();

                let mut all_idle = true;
                {
                    let mem = &mut **global.write().expect("gmem lock");
                    for cell in cells.iter() {
                        let mut sm = cell.lock().expect("sm lock");
                        all_idle &= sm.end_cycle(mem, pilot_finish, start_cycle);
                    }
                }
                *cycle_ref += 1;

                if *next_cta >= grid.num_ctas && all_idle {
                    break;
                }
                if *cycle_ref >= limit {
                    outcome = Err(SimError::CycleLimitExceeded { limit: max_cycles });
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            start.wait();
        });
        outcome
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

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let (serial, serial_mem) = run_varied(observed_config(4));
        for threads in [2, 3, 4, 7] {
            let config = GpuConfig {
                sm_threads: threads,
                ..observed_config(4)
            };
            let (parallel, parallel_mem) = run_varied(config);
            assert_eq!(
                serial, parallel,
                "SM-parallel run ({threads} threads) diverged from serial"
            );
            assert_eq!(
                serial_mem, parallel_mem,
                "memory diverged ({threads} threads)"
            );
            assert!(parallel.audit.as_ref().unwrap().is_clean());
        }
    }

    #[test]
    fn parallel_identity_holds_for_every_scheduler() {
        for policy in [
            SchedulerPolicy::Gto,
            SchedulerPolicy::Lrr,
            SchedulerPolicy::TwoLevel {
                active_per_scheduler: 4,
            },
            SchedulerPolicy::FetchGroup { group_size: 4 },
        ] {
            let base = GpuConfig {
                scheduler: policy,
                ..observed_config(4)
            };
            let (serial, serial_mem) = run_varied(base.clone());
            let (parallel, parallel_mem) = run_varied(GpuConfig {
                sm_threads: 4,
                ..base
            });
            assert_eq!(serial, parallel, "{policy:?} diverged under SM-parallelism");
            assert_eq!(serial_mem, parallel_mem);
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
