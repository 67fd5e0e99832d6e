//! The streaming multiprocessor (SM) pipeline.
//!
//! Per cycle, in order: (1) retire completed loads/stores and execution
//! results, (2) advance the operand collectors and bank arbiter, (3) let
//! each warp scheduler issue up to its width, executing issued instructions
//! functionally and allocating collector entries for their register
//! operands, (4) drive the register-file model's per-cycle hook (the
//! adaptive-FRF epoch detector counts issued instructions here).

use std::sync::Arc;

use prf_isa::{
    CtaId, ExecClass, GridConfig, Instruction, Kernel, PredReg, ReconvergenceTable, Reg,
};

use crate::collector::{CollectDest, CollectedInstr, CompletedWrite, OperandCollector, MAX_READS};
use crate::config::GpuConfig;
use crate::exec::{execute_warp_instruction_into, ExecEnv, ExecOutcome};
use crate::mem::{GlobalMemory, GmemView, L1Cache, LoadStoreUnit, SharedMemory};
use crate::observer::{Observation, SmObserver};
use crate::rf::{AccessKind, RegisterFileModel, ResolvedAccess, WarpLifecycle};
use crate::scheduler::{build_scheduler, SchedulerEvent, SlotMask, WarpScheduler, WarpSet};
use crate::scoreboard::{hazard_of, InstrHazard, Scoreboard};
use crate::stats::SmStats;
use crate::trace::TraceEvent;
use crate::validate::MAX_PIPE_LATENCY;
use crate::warp::{WarpBlock, WarpContext};

/// Everything the SM needs to know about the running kernel.
///
/// The kernel is held behind an [`Arc`] so a launch never deep-copies the
/// instruction stream: all SMs of a run — and all concurrent runs of a
/// parallel experiment matrix — share one immutable image.
#[derive(Debug)]
pub struct KernelImage {
    /// The kernel itself.
    pub kernel: Arc<Kernel>,
    /// IPDOM reconvergence table.
    pub rt: ReconvergenceTable,
    /// Launch geometry.
    pub grid: GridConfig,
    /// Per-pc issue record, decoded once per launch.
    records: Vec<IssueRecord>,
}

/// Everything issuing the instruction at one pc needs besides its
/// functional execution, decoded once per launch: the scoreboard
/// footprint, the register reads and destinations, and where the
/// collected instruction goes.
#[derive(Debug, Clone, Copy)]
struct IssueRecord {
    hazard: InstrHazard,
    /// Registers read, in operand order; the first `num_reads` are live.
    reads: [Reg; MAX_READS],
    num_reads: u8,
    dst_reg: Option<Reg>,
    pred_dst: Option<PredReg>,
    is_load: bool,
    class: ExecClass,
}

impl IssueRecord {
    fn decode(instr: &Instruction) -> Self {
        let mut reads = [Reg(0); MAX_READS];
        let mut num_reads = 0u8;
        // `Instruction::srcs` has `MAX_READS` slots, so this never overflows.
        for r in instr.reg_reads() {
            reads[usize::from(num_reads)] = r;
            num_reads += 1;
        }
        IssueRecord {
            hazard: hazard_of(instr),
            reads,
            num_reads,
            dst_reg: instr.reg_write(),
            pred_dst: match instr.dst {
                prf_isa::Dst::Pred(p) => Some(p),
                _ => None,
            },
            is_load: instr.opcode.is_load(),
            class: instr.opcode.exec_class(),
        }
    }

    fn reads(&self) -> &[Reg] {
        &self.reads[..usize::from(self.num_reads)]
    }
}

impl KernelImage {
    /// Prepares a kernel for execution (computes the reconvergence table
    /// and the per-pc issue records). Accepts an owned [`Kernel`] or an
    /// existing `Arc<Kernel>`.
    pub fn new(kernel: impl Into<Arc<Kernel>>, grid: GridConfig) -> Self {
        let kernel = kernel.into();
        let rt = ReconvergenceTable::compute(&kernel);
        let records = kernel
            .instructions()
            .iter()
            .map(IssueRecord::decode)
            .collect();
        KernelImage {
            kernel,
            rt,
            grid,
            records,
        }
    }

    /// The pre-decoded scoreboard footprint of the instruction at `pc`.
    pub fn hazard(&self, pc: usize) -> &InstrHazard {
        &self.records[pc].hazard
    }

    fn env(&self) -> ExecEnv {
        ExecEnv {
            threads_per_cta: self.grid.threads_per_cta,
            num_ctas: self.grid.num_ctas,
        }
    }
}

/// Where a warp slot stands for issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum SlotStatus {
    /// No warp in the slot.
    #[default]
    Empty,
    /// Every lane has exited; in-flight instructions may still retire.
    Exited,
    /// Waiting at a CTA barrier.
    Barrier,
    /// Running and not at a barrier: issues once its scoreboard and the
    /// operand collector allow.
    Eligible,
}

/// The issue-relevant state of one warp slot, kept current at the four
/// events that change it: CTA dispatch, issue, barrier release and warp
/// finish. `hazard` is the pre-decoded footprint of the warp's next pc; a
/// warp waiting at a barrier keeps it (fetch-group rotation reads the
/// long-latency mask for such warps), and empty or exited slots hold the
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct IssueSlot {
    status: SlotStatus,
    hazard: InstrHazard,
}

impl IssueSlot {
    /// The state of a running warp whose next instruction has `hazard`.
    fn running(barrier: bool, hazard: InstrHazard) -> Self {
        let status = if barrier {
            SlotStatus::Barrier
        } else {
            SlotStatus::Eligible
        };
        IssueSlot { status, hazard }
    }
}

/// Live warps of an SM by what keeps them from issuing (see
/// [`Sm::stall_counts`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct StallCounts {
    mem: u32,
    barrier: u32,
    collector: u32,
    alu: u32,
}

#[derive(Debug)]
struct CtaState {
    warp_slots: Vec<usize>,
}

#[derive(Debug)]
struct InflightInstr {
    warp_slot: usize,
    dst_reg: Option<Reg>,
    pred_dst: Option<PredReg>,
    is_load: bool,
    global_addrs: Vec<u32>,
    shared_access: bool,
}

/// Deterministic issue jitter: whether SM `sm` skips the warp in `slot` at
/// `cycle`, with probability 1/`issue_jitter` (see [`GpuConfig`]).
fn jitter_skips(config: &GpuConfig, sm: usize, slot: usize, cycle: u64) -> bool {
    if config.issue_jitter == 0 {
        return false;
    }
    let h = cycle
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((slot as u64) << 32)
        .wrapping_add(sm as u64)
        .wrapping_add(config.jitter_seed.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h >> 33).is_multiple_of(u64::from(config.issue_jitter))
}

/// The warp schedulers of one SM, all running the configured policy.
fn build_schedulers(config: &GpuConfig) -> Vec<Box<dyn WarpScheduler>> {
    (0..config.num_schedulers)
        .map(|_| build_scheduler(config.scheduler))
        .collect()
}

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index (0-based).
    pub id: usize,
    config: GpuConfig,
    image: Arc<KernelImage>,
    warps: Vec<Option<WarpContext>>,
    /// Issue state per warp slot (see [`IssueSlot`]).
    issue_slots: Vec<IssueSlot>,
    /// The slots whose warp is eligible and not blocked by its scoreboard:
    /// bit `s` is `status == Eligible && !scoreboards[s].blocked_by(&hazard)`.
    /// This and the three masks below are refreshed by
    /// [`Sm::refresh_issuable`] wherever an input of theirs changes.
    issuable: SlotMask,
    /// The slots whose warp is live: eligible or at a barrier.
    live: SlotMask,
    /// Live warps blocked by their scoreboard with loads outstanding
    /// (`pending_loads[s] > 0`).
    long_latency: SlotMask,
    /// The slots whose warp waits at a barrier.
    barrier: SlotMask,
    /// Per scheduler, the warp slots it owns (`slot % num_schedulers`).
    sched_slots: Vec<SlotMask>,
    /// Per scheduler, its live warps oldest first as `(dispatch_cycle,
    /// slot)`: inserted at dispatch, removed when the warp's last lane
    /// exits. Schedulers read their live warps in this order.
    age_order: Vec<Vec<(u64, usize)>>,
    scoreboards: Vec<Scoreboard>,
    pending_loads: Vec<u32>,
    schedulers: Vec<Box<dyn WarpScheduler>>,
    collector: OperandCollector,
    lsu: LoadStoreUnit,
    shared_unit: LoadStoreUnit,
    l1: L1Cache,
    rf: Box<dyn RegisterFileModel>,
    cta_slots: Vec<Option<CtaState>>,
    shared_mem: Vec<SharedMemory>,
    /// Warps resident on the SM (the `Some` entries of `warps`).
    resident: usize,
    /// CTAs resident on the SM (the `Some` entries of `cta_slots`).
    resident_ctas: usize,
    /// Set when a warp slot goes to barrier, exited or empty: only such an
    /// event can leave a CTA with all its live warps at its barrier (a
    /// slot empties after it exited, so the last one is a guard).
    /// [`Sm::release_barriers`] scans the CTA slots only while it is set.
    barrier_dirty: bool,
    /// In-flight instructions, indexed by token. Tokens are opaque slab
    /// indices recycled through `free_tokens`: the collector orders by its
    /// own sequence numbers and the LSU by finish time, so a reused token
    /// value never changes an ordering.
    inflight: Vec<Option<InflightInstr>>,
    free_tokens: Vec<u64>,
    /// Number of `Some` entries in `inflight`.
    inflight_live: usize,
    /// Execution-pipe completions: bucket `c & exec_mask` holds, in push
    /// order, the tokens due at cycle `c`. The ring is longer than any
    /// pipe latency, so a token never lands in a bucket still to drain
    /// for an earlier cycle.
    exec_wheel: Vec<Vec<u64>>,
    exec_mask: u64,
    /// Statistics for this SM.
    pub stats: SmStats,
    /// (cta, warp_in_cta, finish_cycle) of finished warps, drained by
    /// [`Sm::end_cycle`].
    finished_warps: Vec<(u32, u32, u64)>,
    sched_events: Vec<SchedulerEvent>,
    next_dispatch_allowed: u64,
    /// Trace ring, auditor and sampler; closed by
    /// [`Sm::finish_observation`].
    observer: SmObserver,
    // Reusable per-cycle scratch buffers (allocation-free hot path): each
    // is taken out of `self` for the duration of one phase and put back,
    // so steady-state cycles perform no heap allocation.
    mem_done_scratch: Vec<u64>,
    due_scratch: Vec<u64>,
    collected_scratch: Vec<CollectedInstr>,
    writes_done_scratch: Vec<CompletedWrite>,
    segs_scratch: Vec<u32>,
    order_scratch: Vec<usize>,
    resolved_scratch: Vec<ResolvedAccess>,
    /// Recycled address buffers for [`ExecOutcome::with_buffer`]; in-flight
    /// memory instructions return theirs on retire.
    addr_pool: Vec<Vec<u32>>,
    /// Retired warp contexts kept for reuse, across launches too:
    /// dispatching a warp reinits a pooled context instead of allocating
    /// ~`WARP_SIZE` register vectors. Pool contents never affect results
    /// ([`WarpContext::reinit`]).
    warp_pool: Vec<WarpContext>,
    /// Scratch for the free-slot scan in [`Sm::try_dispatch_cta`].
    dispatch_slots_scratch: Vec<usize>,
    /// Global-memory writes staged by this SM during the current cycle,
    /// applied by [`Sm::commit_global_writes`] in SM-id order (two-phase
    /// execute/commit, see [`GmemView`]).
    global_writes: Vec<(u32, u32)>,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field(
                "resident_warps",
                &self.warps.iter().filter(|w| w.is_some()).count(),
            )
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM running `image` with the given register-file model.
    pub fn new(
        id: usize,
        config: &GpuConfig,
        image: Arc<KernelImage>,
        rf: Box<dyn RegisterFileModel>,
    ) -> Self {
        let schedulers = build_schedulers(config);
        let longest_pipe = config
            .alu_latency
            .max(config.fp_latency)
            .max(config.sfu_latency);
        assert!(
            longest_pipe <= MAX_PIPE_LATENCY,
            "pipe latency {longest_pipe} exceeds {MAX_PIPE_LATENCY}"
        );
        let wheel_len = (longest_pipe as usize + 1).next_power_of_two();
        let warps_per_scheduler = config.max_warps_per_sm.div_ceil(config.num_schedulers);
        let mut sched_slots = vec![SlotMask::new(config.max_warps_per_sm); config.num_schedulers];
        for slot in 0..config.max_warps_per_sm {
            sched_slots[slot % config.num_schedulers].set(slot, true);
        }
        Sm {
            id,
            config: config.clone(),
            warps: (0..config.max_warps_per_sm).map(|_| None).collect(),
            issue_slots: vec![IssueSlot::default(); config.max_warps_per_sm],
            issuable: SlotMask::new(config.max_warps_per_sm),
            live: SlotMask::new(config.max_warps_per_sm),
            long_latency: SlotMask::new(config.max_warps_per_sm),
            barrier: SlotMask::new(config.max_warps_per_sm),
            sched_slots,
            age_order: (0..config.num_schedulers)
                .map(|_| Vec::with_capacity(warps_per_scheduler))
                .collect(),
            scoreboards: (0..config.max_warps_per_sm)
                .map(|_| Scoreboard::new())
                .collect(),
            pending_loads: vec![0; config.max_warps_per_sm],
            schedulers,
            collector: OperandCollector::new(
                config.num_collectors,
                config.num_rf_banks,
                config.rf_pipelined,
            ),
            lsu: LoadStoreUnit::new(),
            shared_unit: LoadStoreUnit::new(),
            l1: L1Cache::new(config.l1_lines),
            rf,
            cta_slots: (0..config.max_ctas_per_sm).map(|_| None).collect(),
            shared_mem: (0..config.max_ctas_per_sm)
                .map(|_| SharedMemory::new(config.shared_mem_words))
                .collect(),
            resident: 0,
            resident_ctas: 0,
            barrier_dirty: false,
            inflight: Vec::new(),
            free_tokens: Vec::new(),
            inflight_live: 0,
            exec_wheel: vec![Vec::new(); wheel_len],
            exec_mask: wheel_len as u64 - 1,
            stats: SmStats::new(),
            finished_warps: Vec::new(),
            sched_events: Vec::new(),
            next_dispatch_allowed: 0,
            observer: SmObserver::new(id, config),
            mem_done_scratch: Vec::new(),
            due_scratch: Vec::new(),
            collected_scratch: Vec::new(),
            writes_done_scratch: Vec::new(),
            segs_scratch: Vec::new(),
            order_scratch: Vec::new(),
            resolved_scratch: Vec::new(),
            addr_pool: Vec::new(),
            warp_pool: Vec::new(),
            dispatch_slots_scratch: Vec::new(),
            global_writes: Vec::new(),
            image,
        }
    }

    /// Closes the trace ring, sampler and auditor and returns what they
    /// recorded; the observer is off afterwards. Call once, after the run
    /// completes, with the run's final cycle.
    pub fn finish_observation(&mut self, final_cycle: u64) -> Observation {
        let observer = std::mem::take(&mut self.observer);
        observer.finish(&self.stats, self.resident, self.rf.as_ref(), final_cycle)
    }

    /// Notifies the register-file model that a new kernel begins.
    pub fn notify_kernel_launch(&mut self, cycle: u64) {
        self.rf.on_kernel_launch(&self.image.kernel, cycle);
    }

    /// Readies a drained SM for its GPU's next launch, which runs `image`.
    /// The SM keeps its register-file model, its warp-context pool and its
    /// buffers, and starts afresh only what belongs to one launch: the
    /// schedulers, a cold L1, the statistics and the unit counters behind
    /// them, the CTA slots, the dispatch interval and the observer. Follow
    /// with [`Sm::notify_kernel_launch`].
    pub fn begin_launch(&mut self, image: Arc<KernelImage>) {
        debug_assert!(
            self.is_idle() && self.global_writes.is_empty(),
            "SM {} begins a launch before the previous one drained",
            self.id
        );
        // A drained SM can still hold CTA slots: `maybe_finish_warp` never
        // frees the slot of a CTA one of whose warp slots a later CTA took
        // before the CTA's last warp finished. A new SM starts with none.
        self.cta_slots.fill_with(|| None);
        self.resident_ctas = 0;
        self.image = image;
        self.schedulers = build_schedulers(&self.config);
        self.collector.bank_conflict_waits = 0;
        self.l1.invalidate();
        for unit in [&mut self.lsu, &mut self.shared_unit] {
            unit.transactions = 0;
            unit.instructions = 0;
        }
        self.stats = SmStats::new();
        self.next_dispatch_allowed = 0;
        self.observer = SmObserver::new(self.id, &self.config);
    }

    /// Number of CTAs currently resident.
    pub fn resident_ctas(&self) -> usize {
        self.resident_ctas
    }

    /// Number of warps currently resident.
    pub fn resident_warps(&self) -> usize {
        self.resident
    }

    /// True when no warp is resident and no instruction is in flight.
    pub fn is_idle(&self) -> bool {
        self.resident == 0
            && self.inflight_live == 0
            && self.collector.is_idle()
            && self.lsu.is_idle()
            && self.shared_unit.is_idle()
    }

    /// Tries to make `cta` resident; returns `false` when out of CTA slots,
    /// warp slots, register capacity, or still within the dispatch
    /// interval after the previous CTA launch.
    pub fn try_dispatch_cta(&mut self, cta: CtaId, cycle: u64) -> bool {
        let grid = self.image.grid;
        let regs = self.image.kernel.regs_per_thread().max(1) as usize;
        let warps_needed = grid.warps_per_cta() as usize;

        if cycle < self.next_dispatch_allowed
            || self.resident_ctas >= self.config.max_ctas_per_sm
            || self.warps.len() - self.resident < warps_needed
        {
            return false;
        }
        // Register-capacity limit.
        let regs_in_use: usize = self.resident * 32 * regs;
        if regs_in_use + warps_needed * 32 * regs > self.config.rf_registers {
            return false;
        }
        // The counts above guarantee the free warp slots and CTA slot.
        let mut free_slots = std::mem::take(&mut self.dispatch_slots_scratch);
        free_slots.clear();
        free_slots.extend(
            (0..self.warps.len())
                .filter(|&i| self.warps[i].is_none())
                .take(warps_needed),
        );
        let cta_slot = self
            .cta_slots
            .iter()
            .position(|c| c.is_none())
            .expect("fewer than max_ctas_per_sm CTAs are resident");

        for (w, &slot) in free_slots.iter().enumerate() {
            let mask = grid.active_mask(w as u32);
            let warp = match self.warp_pool.pop() {
                Some(mut ctx) => {
                    ctx.reinit(slot, cta_slot, cta, w as u32, mask, regs, cycle);
                    ctx
                }
                None => WarpContext::new(slot, cta_slot, cta, w as u32, mask, regs, cycle),
            };
            self.scoreboards[slot] = Scoreboard::new();
            self.pending_loads[slot] = 0;
            self.issue_slots[slot] = IssueSlot::running(false, *self.image.hazard(0));
            self.refresh_issuable(slot);
            let nsched = self.schedulers.len();
            let ages = &mut self.age_order[slot % nsched];
            let at = ages.partition_point(|&entry| entry < (cycle, slot));
            ages.insert(at, (cycle, slot));
            self.schedulers[slot % nsched].on_warp_start(slot);
            self.rf.on_warp_start(
                WarpLifecycle {
                    slot,
                    cta: cta.0,
                    warp_in_cta: w as u32,
                },
                cycle,
            );
            self.warps[slot] = Some(warp);
            self.resident += 1;
        }
        self.cta_slots[cta_slot] = Some(CtaState {
            warp_slots: free_slots,
        });
        self.resident_ctas += 1;
        // Fresh shared memory for the CTA (zeroed in place).
        self.shared_mem[cta_slot].reset(self.config.shared_mem_words);
        self.next_dispatch_allowed = cycle + self.config.cta_dispatch_interval;
        self.observer.event(TraceEvent::CtaDispatch {
            cycle,
            sm: self.id,
            cta: cta.0,
        });
        true
    }

    /// Stores `info` in a free slab slot and returns its token.
    fn alloc_token(&mut self, info: InflightInstr) -> u64 {
        self.inflight_live += 1;
        match self.free_tokens.pop() {
            Some(t) => {
                self.inflight[t as usize] = Some(info);
                t
            }
            None => {
                self.inflight.push(Some(info));
                (self.inflight.len() - 1) as u64
            }
        }
    }

    fn inflight_info(&self, token: u64) -> Option<&InflightInstr> {
        self.inflight.get(token as usize).and_then(Option::as_ref)
    }

    fn retire(&mut self, token: u64, cycle: u64) {
        let Some(info) = self.inflight.get_mut(token as usize).and_then(Option::take) else {
            return;
        };
        self.inflight_live -= 1;
        self.free_tokens.push(token);
        if let Some(p) = info.pred_dst {
            self.scoreboards[info.warp_slot].release_pred(p);
            self.observer.event(TraceEvent::ScoreboardRelease {
                cycle,
                sm: self.id,
                warp: info.warp_slot,
            });
        }
        if info.is_load {
            self.pending_loads[info.warp_slot] =
                self.pending_loads[info.warp_slot].saturating_sub(1);
        }
        if info.pred_dst.is_some() || info.is_load {
            self.refresh_issuable(info.warp_slot);
        }
        if let Some(w) = self.warps[info.warp_slot].as_mut() {
            w.inflight = w.inflight.saturating_sub(1);
        }
        let mut buf = info.global_addrs;
        buf.clear();
        self.addr_pool.push(buf);
        self.maybe_finish_warp(info.warp_slot, cycle);
    }

    /// Hands on the result of a completed memory or execution-pipe
    /// instruction. A register result is forwarded: the scoreboard releases
    /// at once, so dependents see the value as soon as it returns, and the
    /// RF write is requested to overlap with them. An instruction without
    /// a register result retires.
    fn forward_or_retire(&mut self, token: u64, slot: usize, dst: Option<Reg>, cycle: u64) {
        let Some(reg) = dst else {
            self.retire(token, cycle);
            return;
        };
        self.scoreboards[slot].release_reg(reg);
        self.refresh_issuable(slot);
        self.observer.event(TraceEvent::ScoreboardRelease {
            cycle,
            sm: self.id,
            warp: slot,
        });
        let access = self.rf.resolve(slot, reg, AccessKind::Write, cycle);
        self.collector.request_writeback(slot, reg, access, token);
    }

    fn maybe_finish_warp(&mut self, slot: usize, cycle: u64) {
        let done = match self.warps[slot].as_ref() {
            Some(w) => w.exited() && w.inflight == 0,
            None => false,
        };
        if !done {
            return;
        }
        let w = self.warps[slot].take().expect("checked above");
        self.issue_slots[slot] = IssueSlot::default();
        self.refresh_issuable(slot);
        self.barrier_dirty = true;
        self.resident -= 1;
        self.observer
            .note_warp_scoreboard(slot, &self.scoreboards[slot], cycle);
        self.observer.event(TraceEvent::WarpFinish {
            cycle,
            sm: self.id,
            warp: slot,
        });
        let nsched = self.schedulers.len();
        self.schedulers[slot % nsched].on_warp_finish(slot);
        self.rf.on_warp_finish(
            WarpLifecycle {
                slot,
                cta: w.cta.0,
                warp_in_cta: w.warp_in_cta,
            },
            cycle,
        );
        self.finished_warps.push((w.cta.0, w.warp_in_cta, cycle));
        // CTA completion check.
        let cta_slot = w.cta_slot;
        self.warp_pool.push(w);
        let cta_done = self.cta_slots[cta_slot]
            .as_ref()
            .is_some_and(|c| c.warp_slots.iter().all(|&s| self.warps[s].is_none()));
        if cta_done {
            // The CTA's slot list becomes the next dispatch's scratch.
            let cta = self.cta_slots[cta_slot].take().expect("checked above");
            self.dispatch_slots_scratch = cta.warp_slots;
            self.resident_ctas -= 1;
        }
    }

    /// True when the CTA in `cta_slot` is resident and all of its live
    /// warps wait at a barrier.
    fn cta_arrived(&self, cta_slot: usize) -> bool {
        let Some(c) = self.cta_slots[cta_slot].as_ref() else {
            return false;
        };
        let mut waiting = 0usize;
        let mut live = 0usize;
        for &s in &c.warp_slots {
            match self.issue_slots[s].status {
                SlotStatus::Barrier => {
                    live += 1;
                    waiting += 1;
                }
                SlotStatus::Eligible => live += 1,
                SlotStatus::Empty | SlotStatus::Exited => {}
            }
        }
        live > 0 && waiting == live
    }

    /// Releases the warps of every CTA whose live warps all wait at its
    /// barrier. After a scan no CTA is left in that state, and only a slot
    /// going to barrier, exited or empty can put one there, so the scan
    /// runs only when `barrier_dirty` says such an event happened since.
    fn release_barriers(&mut self) {
        if !std::mem::take(&mut self.barrier_dirty) || self.barrier.is_empty() {
            return;
        }
        for cta_slot in 0..self.cta_slots.len() {
            if self.cta_arrived(cta_slot) {
                // Borrow dance: take the slot list so releasing warps does
                // not alias the CTA entry (and does not clone the list).
                let slots = std::mem::take(
                    &mut self.cta_slots[cta_slot]
                        .as_mut()
                        .expect("checked above")
                        .warp_slots,
                );
                for &s in &slots {
                    if self.issue_slots[s].status == SlotStatus::Barrier {
                        self.issue_slots[s].status = SlotStatus::Eligible;
                        self.refresh_issuable(s);
                        if let Some(w) = self.warps[s].as_mut() {
                            w.block = WarpBlock::None;
                        }
                    }
                }
                self.cta_slots[cta_slot]
                    .as_mut()
                    .expect("still resident")
                    .warp_slots = slots;
            }
        }
    }

    /// Sets `slot`'s bits in the issuable, live, long-latency and barrier
    /// masks from its status, next-pc hazard, scoreboard and outstanding
    /// loads; called wherever one of the four changes.
    fn refresh_issuable(&mut self, slot: usize) {
        let IssueSlot { status, hazard } = &self.issue_slots[slot];
        let blocked = self.scoreboards[slot].blocked_by(hazard);
        let barrier = *status == SlotStatus::Barrier;
        let live = barrier || *status == SlotStatus::Eligible;
        self.issuable.set(slot, live && !barrier && !blocked);
        self.live.set(slot, live);
        self.long_latency
            .set(slot, live && blocked && self.pending_loads[slot] > 0);
        self.barrier.set(slot, barrier);
    }

    /// Returns true when the warp at `slot` can issue its next instruction.
    fn can_issue(&self, slot: usize) -> bool {
        self.issuable.contains(slot)
            // Needs a collector unit unless it touches no registers at all.
            && (!self.issue_slots[slot].hazard.needs_collector || self.collector.has_free_unit())
    }

    /// True when some warp of scheduler `sched` passes [`Sm::can_issue`]:
    /// one AND per mask word while a collector unit is free; with the
    /// collector full, the set bits are scanned for a warp that needs none.
    fn scheduler_can_issue(&self, sched: usize) -> bool {
        let free_unit = self.collector.has_free_unit();
        let owned = self.sched_slots[sched].words();
        let mut words = self.issuable.words().iter().zip(owned).enumerate();
        words.any(|(word, (&issuable, &mine))| {
            let mut bits = issuable & mine;
            if free_unit {
                return bits != 0;
            }
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                if !self.issue_slots[slot].hazard.needs_collector {
                    return true;
                }
                bits &= bits - 1;
            }
            false
        })
    }

    /// What scheduler `sched` reads on its turn (see [`WarpSet`]).
    fn warp_set(&self, sched: usize) -> WarpSet<'_> {
        WarpSet {
            ages: &self.age_order[sched],
            owned: &self.sched_slots[sched],
            issuable: &self.issuable,
            live: &self.live,
            long_latency: &self.long_latency,
            barrier: &self.barrier,
        }
    }

    /// Scheduler `sched`'s turn of the issue stage: walks the order its
    /// `prioritize` names (a list it fills into `order`, or a walk of the
    /// live masks) and issues up to `issue_per_scheduler` instructions.
    /// Returns how many issued.
    fn issue_turn(
        &mut self,
        sched: usize,
        cycle: u64,
        gmem: &mut GmemView<'_>,
        order: &mut Vec<usize>,
    ) -> usize {
        // Field by field, so the scheduler can be borrowed mutably beside.
        let warps = WarpSet {
            ages: &self.age_order[sched],
            owned: &self.sched_slots[sched],
            issuable: &self.issuable,
            live: &self.live,
            long_latency: &self.long_latency,
            barrier: &self.barrier,
        };
        let mut walk = self.schedulers[sched].prioritize(&warps, cycle, order);
        if walk.is_list() {
            // Export pool demotions to the RF model (RFC flush); only a
            // list-filling `prioritize` emits events.
            self.schedulers[sched].drain_events(&mut self.sched_events);
        }
        // A pass over a warp that cannot issue changes nothing (the
        // collector-stall check below can first fire only right after a
        // warp that issued), so a turn in which none can issue walks
        // nothing, and readiness is tested before the jitter hash.
        if !self.scheduler_can_issue(sched) {
            return 0;
        }
        let width = self.config.issue_per_scheduler;
        let mut issued = 0usize;
        while issued < width {
            let Some(slot) = walk.next(order, &self.warp_set(sched)) else {
                break;
            };
            if !self.can_issue(slot) {
                continue;
            }
            if jitter_skips(&self.config, self.id, slot, cycle) {
                continue;
            }
            // GTO greediness: a warp may issue both slots of its scheduler
            // in one cycle if it stays ready.
            while issued < width && self.can_issue(slot) {
                self.issue(slot, cycle, gmem);
                self.schedulers[sched].on_issue(slot, cycle);
                issued += 1;
            }
            if issued > 0 && !self.collector.has_free_unit() {
                self.stats.collector_stalls += 1;
                break;
            }
        }
        issued
    }

    /// Issues the next instruction of warp `slot`. Caller must have checked
    /// [`Sm::can_issue`].
    fn issue(&mut self, slot: usize, cycle: u64, global: &mut GmemView<'_>) {
        // Field-disjoint borrows of `self.image` and `self.warps`: no
        // per-issue `Arc` clone, whose refcount all SMs of a run share.
        let w = self.warps[slot]
            .as_mut()
            .expect("can_issue checked residency");
        let pc = w.stack.pc().expect("can_issue checked pc");
        let instr = self.image.kernel.fetch(pc);
        let rec = self.image.records[pc];
        let env = self.image.env();

        // Functional execution (updates pc / SIMT stack / registers /
        // predicates / memory).
        let cta_slot = w.cta_slot;
        let mut outcome = ExecOutcome::with_buffer(self.addr_pool.pop().unwrap_or_default());
        execute_warp_instruction_into(
            w,
            instr,
            &self.image.rt,
            &env,
            global,
            &mut self.shared_mem[cta_slot],
            &mut outcome,
        );
        if outcome.hit_barrier {
            w.block = WarpBlock::Barrier;
        }
        match w.stack.pc() {
            Some(next_pc) => {
                self.issue_slots[slot] =
                    IssueSlot::running(outcome.hit_barrier, *self.image.hazard(next_pc));
                self.barrier_dirty |= outcome.hit_barrier;
            }
            None => {
                // The last lane exited: the warp leaves the issue state and
                // its scheduler's age order, though in-flight instructions
                // may still keep the slot occupied.
                self.issue_slots[slot] = IssueSlot {
                    status: SlotStatus::Exited,
                    hazard: InstrHazard::default(),
                };
                self.barrier_dirty = true;
                let ages = &mut self.age_order[slot % self.schedulers.len()];
                let at = ages
                    .iter()
                    .position(|&(_, s)| s == slot)
                    .expect("a live warp is in its scheduler's age order");
                ages.remove(at);
            }
        }
        let cta = w.cta.0;
        let warp_in_cta = w.warp_in_cta;
        self.stats.active_lane_sum += u64::from(outcome.active_lanes);
        if let Some(diverged) = outcome.branch {
            self.stats.total_branches += 1;
            if diverged {
                self.stats.divergent_branches += 1;
            }
        }
        self.observer.event(TraceEvent::Issue {
            cycle,
            sm: self.id,
            warp: slot,
            pc,
        });
        if outcome.hit_barrier {
            self.observer.event(TraceEvent::BarrierWait {
                cycle,
                sm: self.id,
                warp: slot,
            });
        }

        // Register-file bookkeeping. Reads are resolved here, exactly once
        // per access (stateful models depend on this).
        let dst_reg = rec.dst_reg;
        let mut resolved_reads = std::mem::take(&mut self.resolved_scratch);
        resolved_reads.clear();
        for &r in rec.reads() {
            self.rf.observe_access(slot, r, AccessKind::Read, cycle);
            resolved_reads.push(self.rf.resolve(slot, r, AccessKind::Read, cycle));
            self.stats.reg_accesses.record(r);
        }
        if let Some(r) = dst_reg {
            self.rf.observe_access(slot, r, AccessKind::Write, cycle);
            self.stats.reg_accesses.record(r);
        }
        if self.config.per_warp_stats {
            let h = self.stats.per_warp.entry((cta, warp_in_cta)).or_default();
            for &r in rec.reads() {
                h.record(r);
            }
            if let Some(r) = dst_reg {
                h.record(r);
            }
        }

        if rec.hazard.needs_collector {
            self.scoreboards[slot].reserve_dst(dst_reg, rec.pred_dst);
            if dst_reg.is_some() || rec.pred_dst.is_some() {
                // Exactly one pending bit was set (Dst is exclusive).
                self.observer.event(TraceEvent::ScoreboardReserve {
                    cycle,
                    sm: self.id,
                    warp: slot,
                });
            }
            if rec.is_load {
                self.pending_loads[slot] += 1;
            }
            let dest = match rec.class {
                ExecClass::Mem => CollectDest::Memory,
                class => CollectDest::Execute {
                    latency: match class {
                        ExecClass::Fp => self.config.fp_latency,
                        ExecClass::Sfu => self.config.sfu_latency,
                        _ => self.config.alu_latency,
                    },
                    writeback: dst_reg,
                },
            };
            let token = self.alloc_token(InflightInstr {
                warp_slot: slot,
                dst_reg,
                pred_dst: rec.pred_dst,
                is_load: rec.is_load,
                global_addrs: outcome.global_addrs,
                shared_access: outcome.shared_access,
            });
            let ok = self.collector.allocate(slot, &resolved_reads, dest, token);
            debug_assert!(ok, "can_issue checked for a free unit");
            self.observer.note_collector_alloc();
            if let Some(w) = self.warps[slot].as_mut() {
                w.inflight += 1;
            }
        } else {
            // Control instructions (Bra/Exit/Bar/Nop) retire at issue;
            // their address buffer goes straight back to the pool.
            let mut buf = outcome.global_addrs;
            buf.clear();
            self.addr_pool.push(buf);
        }
        self.resolved_scratch = resolved_reads;
        self.refresh_issuable(slot);

        self.stats.instructions += 1;
        self.maybe_finish_warp(slot, cycle);
    }

    /// Advances the SM by one cycle.
    ///
    /// Global-memory writes are *staged*, not applied: the driver must call
    /// [`Sm::commit_global_writes`] (in ascending SM order) after every SM
    /// of the cycle has stepped. Reads through the [`GmemView`] still see
    /// this SM's own same-cycle stores, in program order.
    pub fn cycle(&mut self, cycle: u64, global: &GlobalMemory) {
        if self.resident > 0 {
            self.stats.active_cycles += 1;
        }

        // 1. LSU + shared-memory-unit completions -> writeback (loads) or
        // retire (stores).
        let mut mem_done = std::mem::take(&mut self.mem_done_scratch);
        mem_done.clear();
        self.lsu.tick_into(cycle, &mut mem_done);
        self.shared_unit.tick_into(cycle, &mut mem_done);
        for &token in &mem_done {
            let (slot, dst) = match self.inflight_info(token) {
                Some(i) => (i.warp_slot, i.dst_reg),
                None => continue,
            };
            self.observer.event(TraceEvent::LsuComplete {
                cycle,
                sm: self.id,
                warp: slot,
            });
            self.forward_or_retire(token, slot, dst, cycle);
        }
        self.mem_done_scratch = mem_done;

        // 2. Execution-pipe completions -> writeback or retire.
        // The drained bucket takes the empty scratch vector in its place.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        std::mem::swap(
            &mut due,
            &mut self.exec_wheel[(cycle & self.exec_mask) as usize],
        );
        for &token in &due {
            if let Some(i) = self.inflight_info(token) {
                self.forward_or_retire(token, i.warp_slot, i.dst_reg, cycle);
            }
        }
        self.due_scratch = due;

        // 3. Operand collectors + bank arbiter. The RF-port callback feeds
        // the stats counters and (a disjoint borrow) the observer, so the
        // audit's independent copy sees exactly the granted accesses —
        // including the repair premium of accesses that landed on faulty
        // rows.
        let stats_pa = &mut self.stats.partition_accesses;
        let stats_repairs = &mut self.stats.rf_repairs;
        let observer = &mut self.observer;
        let sm_id = self.id;
        let mut collected = std::mem::take(&mut self.collected_scratch);
        let mut completed_writes = std::mem::take(&mut self.writes_done_scratch);
        let collector = &mut self.collector;
        collector.tick_into(
            cycle,
            |access, k| {
                stats_pa.record(access.partition, k);
                observer.event(match k {
                    AccessKind::Read => TraceEvent::RfRead {
                        cycle,
                        sm: sm_id,
                        partition: access.partition,
                    },
                    AccessKind::Write => TraceEvent::RfWrite {
                        cycle,
                        sm: sm_id,
                        partition: access.partition,
                    },
                });
                if let Some(repair) = access.repair {
                    stats_repairs[repair.index()] += 1;
                    observer.event(TraceEvent::RfRepair {
                        cycle,
                        sm: sm_id,
                        repair,
                    });
                }
            },
            &mut collected,
            &mut completed_writes,
        );
        for c in collected.drain(..) {
            self.observer.event(TraceEvent::Collect {
                cycle,
                sm: self.id,
                warp: c.warp_slot,
                mem: matches!(c.dest, CollectDest::Memory),
            });
            match c.dest {
                CollectDest::Execute { latency, writeback } => {
                    if writeback.is_some() || self.inflight_info(c.token).is_some() {
                        // Due at `cycle + latency`, but this cycle's bucket
                        // has drained: a zero latency completes next cycle.
                        let at = (cycle + u64::from(latency)).max(cycle + 1);
                        self.exec_wheel[(at & self.exec_mask) as usize].push(c.token);
                    }
                }
                CollectDest::Memory => {
                    let info = self.inflight[c.token as usize]
                        .as_ref()
                        .expect("mem op is in flight");
                    if info.shared_access {
                        // Shared memory has its own pipeline, separate from
                        // the global-memory LSU (as on real SMs).
                        self.shared_unit
                            .submit(c.token, self.config.shared_mem_latency, 1);
                        continue;
                    }
                    let (latency, transactions) = {
                        let mut segs = std::mem::take(&mut self.segs_scratch);
                        LoadStoreUnit::coalesce_into(&info.global_addrs, &mut segs);
                        let txns = (segs.len() as u32).max(1);
                        let mut any_miss = false;
                        for &s in &segs {
                            if !self.l1.access(s * crate::mem::LINE_WORDS) {
                                any_miss = true;
                            }
                        }
                        self.segs_scratch = segs;
                        let lat = if any_miss {
                            self.config.l1_miss_latency
                        } else {
                            self.config.l1_hit_latency
                        };
                        (lat, txns)
                    };
                    self.lsu.submit(c.token, latency, transactions);
                }
            }
        }
        for &wdone in &completed_writes {
            // Scoreboard was already released at result forwarding; the
            // completed write just retires the instruction.
            self.observer.event(TraceEvent::Writeback {
                cycle,
                sm: self.id,
                warp: wdone.warp_slot,
                reg: wdone.reg,
            });
            self.retire(wdone.token, cycle);
        }
        self.collected_scratch = collected;
        self.writes_done_scratch = completed_writes;
        self.stats.bank_conflict_waits = self.collector.bank_conflict_waits;
        self.stats.l1_hits = self.l1.hits;
        self.stats.l1_misses = self.l1.misses;
        self.stats.mem_transactions = self.lsu.transactions;
        self.stats.mem_instructions = self.lsu.instructions + self.shared_unit.instructions;

        // 4. Barrier release.
        self.release_barriers();

        // 5. Issue. Global writes are staged into `global_writes` through a
        // GmemView; the driver commits them in SM-id order after all SMs
        // have stepped this cycle.
        let mut issued_total = 0u32;
        let mut order = std::mem::take(&mut self.order_scratch);
        let mut staged = std::mem::take(&mut self.global_writes);
        let mut gmem = GmemView::new(global, &mut staged);
        for sched in 0..self.schedulers.len() {
            issued_total += self.issue_turn(sched, cycle, &mut gmem, &mut order) as u32;
        }
        self.global_writes = staged;
        self.order_scratch = order;
        for ev in self.sched_events.drain(..) {
            match ev {
                SchedulerEvent::Deactivated { slot } => {
                    self.rf.on_warp_deactivated(slot, cycle);
                }
            }
        }

        if issued_total > 0 {
            self.stats.issue_cycles += 1;
        } else if self.resident > 0 {
            self.classify_zero_issue_stall();
        }

        // 6. RF model per-cycle hook (adaptive FRF epoch counting).
        self.rf.tick(cycle, issued_total);

        // 7. Time-series sampling (window close is amortised; off = one
        // branch). Runs after the RF tick so the FRF-mode gauge reflects
        // this cycle's epoch decision.
        self.observer
            .cycle_end(cycle, &self.stats, self.resident, self.rf.as_ref());
    }

    /// Classifies a zero-issue cycle with resident warps by its dominant
    /// blocker.
    fn classify_zero_issue_stall(&mut self) {
        let StallCounts {
            mem,
            barrier,
            collector,
            alu,
        } = self.stall_counts();
        let max = mem.max(barrier).max(collector).max(alu);
        if max > 0 {
            if max == mem {
                self.stats.stall_mem += 1;
            } else if max == barrier {
                self.stats.stall_barrier += 1;
            } else if max == alu {
                self.stats.stall_alu_dep += 1;
            } else {
                self.stats.stall_collector += 1;
            }
        }
    }

    /// Live warps by what holds them back, counted a mask word at a time:
    /// a barrier; else a scoreboard block with loads outstanding (memory)
    /// or without (ALU dependence); else nothing but the collector or the
    /// issue width.
    fn stall_counts(&self) -> StallCounts {
        let mut counts = StallCounts::default();
        let masks = self.live.words().iter().zip(self.barrier.words());
        let masks = masks.zip(self.issuable.words().iter().zip(self.long_latency.words()));
        for ((&live, &barrier), (&issuable, &long)) in masks {
            let eligible = live & !barrier;
            let mem = long & eligible;
            counts.barrier += barrier.count_ones();
            counts.mem += mem.count_ones();
            counts.alu += (eligible & !issuable & !mem).count_ones();
            counts.collector += issuable.count_ones();
        }
        counts
    }

    /// Applies the global-memory writes staged during [`Sm::cycle`]. The
    /// driver calls this once per stepped cycle, in ascending SM order,
    /// after every SM has stepped the cycle.
    pub fn commit_global_writes(&mut self, global: &mut GlobalMemory) {
        for (addr, value) in self.global_writes.drain(..) {
            global.write(addr, value);
        }
    }

    /// The driver's end of this SM's cycle, once every SM has stepped it:
    /// commits the staged global-memory writes, records the pilot warp's
    /// finish (warp 0 of CTA 0, relative to `start_cycle`) into `pilot`
    /// unless it is already known, drains the finished-warp list, and
    /// returns [`Sm::is_idle`]. The driver's cycle loop calls it in
    /// ascending SM order.
    pub(crate) fn end_cycle(
        &mut self,
        global: &mut GlobalMemory,
        pilot: &mut Option<u64>,
        start_cycle: u64,
    ) -> bool {
        self.commit_global_writes(global);
        if pilot.is_none() {
            *pilot = self
                .finished_warps
                .iter()
                .find(|&&(cta, warp, _)| cta == 0 && warp == 0)
                .map(|&(_, _, at)| at - start_cycle);
        }
        self.finished_warps.clear();
        self.is_idle()
    }

    /// Access to the register-file model (for tests and reports).
    pub fn rf_model(&self) -> &dyn RegisterFileModel {
        self.rf.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerPolicy;
    use crate::rf::BaselineRf;
    use crate::scheduler::Walk;
    use prf_isa::{CmpOp, KernelBuilder, PredReg, SpecialReg};

    fn simple_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("simple");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.iadd_imm(Reg(1), Reg(0), 5);
        kb.imul_imm(Reg(2), Reg(1), 3);
        kb.stg(Reg(0), Reg(2), 0);
        kb.exit();
        kb.build().unwrap()
    }

    fn run_sm(kernel: Kernel, grid: GridConfig, config: &GpuConfig) -> (Sm, u64, GlobalMemory) {
        let image = Arc::new(KernelImage::new(kernel, grid));
        let mut sm = Sm::new(
            0,
            config,
            Arc::clone(&image),
            Box::new(BaselineRf::stv(config.num_rf_banks)),
        );
        sm.notify_kernel_launch(0);
        let mut global = GlobalMemory::new(config.global_mem_words);
        let mut next_cta = 0u32;
        let mut cycle = 0u64;
        loop {
            while next_cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(next_cta), cycle) {
                next_cta += 1;
            }
            sm.cycle(cycle, &global);
            sm.commit_global_writes(&mut global);
            cycle += 1;
            if next_cta == grid.num_ctas && sm.is_idle() {
                break;
            }
            assert!(cycle < config.max_cycles, "SM test did not terminate");
        }
        (sm, cycle, global)
    }

    #[test]
    fn single_warp_kernel_completes_with_correct_memory() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 32);
        let (sm, cycles, global) = run_sm(simple_kernel(), grid, &config);
        assert!(cycles > 0);
        assert_eq!(sm.stats.instructions, 5); // 5 instrs x 1 warp
                                              // tid 7: (7+5)*3 = 36 at address 7.
        assert_eq!(global.read(7), 36);
        assert_eq!(global.read(31), (31 + 5) * 3);
    }

    #[test]
    fn multi_cta_kernel_all_ctas_complete() {
        let config = GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(6, 64);
        let (sm, _, global) = run_sm(simple_kernel(), grid, &config);
        assert_eq!(sm.stats.instructions, 5 * 6 * 2); // 6 CTAs x 2 warps
                                                      // Last thread: tid = 6*64-1 = 383 -> (383+5)*3.
        assert_eq!(global.read(383), (383 + 5) * 3);
        assert_eq!(sm.finished_warps.len(), 12);
    }

    #[test]
    fn rf_access_counts_match_instruction_mix() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 32);
        let (sm, _, _) = run_sm(simple_kernel(), grid, &config);
        // Per warp: mov (W R0), iadd (R R0, W R1), imul (R R1, W R2),
        // stg (R R0, R R2) -> R0: 3, R1: 2, R2: 2.
        assert_eq!(sm.stats.reg_accesses.count(Reg(0)), 3);
        assert_eq!(sm.stats.reg_accesses.count(Reg(1)), 2);
        assert_eq!(sm.stats.reg_accesses.count(Reg(2)), 2);
        // Every architectural access eventually hits a bank.
        assert_eq!(sm.stats.partition_accesses.total(), 7);
    }

    #[test]
    fn barrier_synchronises_cta() {
        // Warp 0 writes shared, all warps barrier, then read back.
        let mut kb = KernelBuilder::new("bar");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_imm(Reg(1), 123);
        // Only warp 0 (tids 0..32) stores.
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 32);
        let skip = kb.new_label();
        kb.bra_if(PredReg(0), false, skip);
        kb.sts(Reg(0), Reg(1), 0);
        kb.place_label(skip);
        kb.bar();
        // Everyone loads tid%32 from shared.
        kb.iand_imm(Reg(2), Reg(0), 31);
        kb.lds(Reg(3), Reg(2), 0);
        kb.stg(Reg(0), Reg(3), 0);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 128);
        let (_, _, global) = run_sm(k, grid, &config);
        for tid in [0u32, 33, 127] {
            assert_eq!(
                global.read(tid),
                123,
                "tid {tid} must observe warp 0's store"
            );
        }
    }

    #[test]
    fn looped_kernel_issues_dynamic_instructions() {
        // 10-iteration loop: dynamic instruction count >> static length.
        let mut kb = KernelBuilder::new("loop");
        kb.mov_imm(Reg(0), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(0), Reg(0), 1);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 10);
        kb.bra_if(PredReg(0), true, top);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let (sm, _, _) = run_sm(k, GridConfig::new(1, 32), &config);
        // 1 + 10*3 + 1 = 32 dynamic instructions.
        assert_eq!(sm.stats.instructions, 32);
        // R0 dynamic accesses: mov W(1) + per iter iadd R+W (2) + setp R(1) = 31.
        assert_eq!(sm.stats.reg_accesses.count(Reg(0)), 1 + 10 * 3);
    }

    #[test]
    fn ntv_rf_slows_execution() {
        let config = GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(4, 256);
        let kernel = || {
            let mut kb = KernelBuilder::new("alu");
            kb.mov_special(Reg(0), SpecialReg::GlobalTid);
            for _ in 0..20 {
                kb.imad(Reg(1), Reg(0), Reg(0), Reg(1));
                kb.iadd(Reg(2), Reg(1), Reg(0));
            }
            kb.stg(Reg(0), Reg(2), 0);
            kb.exit();
            kb.build().unwrap()
        };
        let image = Arc::new(KernelImage::new(kernel(), grid));
        let run = |rf: Box<dyn RegisterFileModel>| -> u64 {
            let mut sm = Sm::new(0, &config, Arc::clone(&image), rf);
            let mut global = GlobalMemory::new(config.global_mem_words);
            let mut next_cta = 0u32;
            let mut cycle = 0u64;
            loop {
                while next_cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(next_cta), cycle) {
                    next_cta += 1;
                }
                sm.cycle(cycle, &global);
                sm.commit_global_writes(&mut global);
                cycle += 1;
                if next_cta == grid.num_ctas && sm.is_idle() {
                    return cycle;
                }
                assert!(cycle < 1_000_000);
            }
        };
        let stv = run(Box::new(BaselineRf::stv(config.num_rf_banks)));
        let ntv = run(Box::new(BaselineRf::ntv(config.num_rf_banks, 3)));
        assert!(
            ntv > stv,
            "NTV RF ({ntv} cycles) must be slower than STV ({stv} cycles)"
        );
    }

    #[test]
    fn dispatch_respects_register_capacity() {
        // 63 regs x 1024 threads = 64512 regs per CTA; capacity 65536 ->
        // only one CTA fits.
        let mut kb = KernelBuilder::new("fat");
        kb.mov_imm(Reg(62), 1);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig::kepler_single_sm();
        let grid = GridConfig::new(4, 1024);
        let image = Arc::new(KernelImage::new(k, grid));
        let mut sm = Sm::new(0, &config, image, Box::new(BaselineRf::stv(24)));
        assert!(sm.try_dispatch_cta(CtaId(0), 0));
        assert!(
            !sm.try_dispatch_cta(CtaId(1), 0),
            "register capacity exceeded"
        );
    }

    #[test]
    fn divergence_stats_track_branches() {
        // Divergent diamond on lane id: one divergent branch per warp,
        // plus the uniform loop-free fallthrough.
        let mut kb = KernelBuilder::new("div");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 16);
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_); // divergent
        kb.mov_imm(Reg(1), 1);
        kb.bra(join); // uniform
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2);
        kb.place_label(join);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let (sm, _, _) = run_sm(k, GridConfig::new(1, 64), &config);
        assert_eq!(sm.stats.total_branches, 4, "2 warps x 2 branches");
        assert_eq!(
            sm.stats.divergent_branches, 2,
            "only the guarded branch diverges"
        );
        assert!((sm.stats.divergence_rate() - 0.5).abs() < 1e-12);
        // SIMD efficiency below 1 because the diamond halves the masks.
        let eff = sm.stats.simd_efficiency();
        assert!(eff < 1.0 && eff > 0.5, "efficiency {eff}");
    }

    #[test]
    fn uniform_kernel_has_full_simd_efficiency() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let (sm, _, _) = run_sm(simple_kernel(), GridConfig::new(1, 64), &config);
        assert!((sm.stats.simd_efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(sm.stats.divergence_rate(), 0.0);
    }

    /// A fresh derivation of every slot's [`IssueSlot`] and every
    /// scheduler's age order from `warps`, decoding hazards from the kernel
    /// rather than reading the pre-decoded table.
    fn derived_issue_state(sm: &Sm) -> (Vec<IssueSlot>, Vec<Vec<(u64, usize)>>) {
        let nsched = sm.schedulers.len();
        let mut ages = vec![Vec::new(); nsched];
        let slots = sm
            .warps
            .iter()
            .enumerate()
            .map(|(slot, w)| {
                let Some(w) = w else {
                    return IssueSlot::default();
                };
                let Some(pc) = w.stack.pc() else {
                    return IssueSlot {
                        status: SlotStatus::Exited,
                        hazard: InstrHazard::default(),
                    };
                };
                ages[slot % nsched].push((w.dispatch_cycle, slot));
                let hazard = hazard_of(sm.image.kernel.fetch(pc));
                IssueSlot::running(w.block == WarpBlock::Barrier, hazard)
            })
            .collect();
        for list in &mut ages {
            list.sort_unstable();
        }
        (slots, ages)
    }

    /// The issuable, live, long-latency and barrier masks re-derived from
    /// fresh issue slots (see [`derived_issue_state`]), the scoreboards and
    /// the outstanding loads.
    fn derived_masks(sm: &Sm, slots: &[IssueSlot]) -> [SlotMask; 4] {
        let mut masks = std::array::from_fn(|_| SlotMask::new(slots.len()));
        let [issuable, live, long_latency, barrier] = &mut masks;
        for (slot, s) in slots.iter().enumerate() {
            let blocked = sm.scoreboards[slot].blocked_by(&s.hazard);
            let is_live = matches!(s.status, SlotStatus::Eligible | SlotStatus::Barrier);
            issuable.set(slot, s.status == SlotStatus::Eligible && !blocked);
            live.set(slot, is_live);
            long_latency.set(slot, is_live && blocked && sm.pending_loads[slot] > 0);
            barrier.set(slot, s.status == SlotStatus::Barrier);
        }
        masks
    }

    /// The stall counts as the SM took them before it kept slot masks: a
    /// walk over every live warp of every scheduler.
    fn stall_counts_by_walk(sm: &Sm) -> StallCounts {
        let mut counts = StallCounts::default();
        for slot in sm.age_order.iter().flatten().map(|&(_, slot)| slot) {
            let IssueSlot { status, hazard } = &sm.issue_slots[slot];
            if *status == SlotStatus::Barrier {
                counts.barrier += 1;
                continue;
            }
            if sm.scoreboards[slot].blocked_by(hazard) {
                if sm.pending_loads[slot] > 0 {
                    counts.mem += 1;
                } else {
                    counts.alu += 1;
                }
            } else {
                counts.collector += 1;
            }
        }
        counts
    }

    /// Which issue-state situations a checked run went through.
    #[derive(Debug, Default)]
    struct Coverage {
        barrier: bool,
        exited: bool,
        age_not_slot: bool,
        /// An eligible warp held back by its scoreboard.
        blocked: bool,
        /// A warp slot past the first mask word was issuable.
        second_word: bool,
        /// A live warp was blocked on memory, or at a barrier with a load
        /// outstanding.
        long_latency: bool,
        barrier_long_latency: bool,
        /// Every stall kind counted at least once after some cycle.
        stall_kinds: [bool; 4],
    }

    /// Runs `grid` of `kernel` on one SM and, after every cycle, asserts
    /// that the cached issue slots, age order and slot masks equal a fresh
    /// derivation, and that the stall counts equal the per-warp walk.
    fn run_checking_issue_state(
        kernel: &Arc<Kernel>,
        grid: GridConfig,
        config: &GpuConfig,
    ) -> (Sm, GlobalMemory, Coverage) {
        let scheduler = config.scheduler;
        let image = Arc::new(KernelImage::new(Arc::clone(kernel), grid));
        let mut sm = Sm::new(
            0,
            config,
            image,
            Box::new(BaselineRf::stv(config.num_rf_banks)),
        );
        sm.notify_kernel_launch(0);
        let mut global = GlobalMemory::new(config.global_mem_words);
        let (mut next_cta, mut cycle) = (0u32, 0u64);
        let mut seen = Coverage::default();
        loop {
            while next_cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(next_cta), cycle) {
                next_cta += 1;
            }
            sm.cycle(cycle, &global);
            sm.commit_global_writes(&mut global);
            let (slots, ages) = derived_issue_state(&sm);
            assert_eq!(sm.issue_slots, slots, "{scheduler:?} cycle {cycle}");
            assert_eq!(sm.age_order, ages, "{scheduler:?} cycle {cycle}");
            let [issuable, live, long_latency, barrier] = derived_masks(&sm, &slots);
            assert_eq!(sm.issuable, issuable, "{scheduler:?} cycle {cycle}");
            assert_eq!(sm.live, live, "{scheduler:?} cycle {cycle}");
            assert_eq!(sm.long_latency, long_latency, "{scheduler:?} cycle {cycle}");
            assert_eq!(sm.barrier, barrier, "{scheduler:?} cycle {cycle}");
            let counts = sm.stall_counts();
            assert_eq!(
                counts,
                stall_counts_by_walk(&sm),
                "{scheduler:?} cycle {cycle}"
            );
            for (seen, n) in seen.stall_kinds.iter_mut().zip([
                counts.mem,
                counts.barrier,
                counts.collector,
                counts.alu,
            ]) {
                *seen |= n > 0;
            }
            seen.long_latency |= !long_latency.is_empty();
            seen.barrier_long_latency |=
                (0..slots.len()).any(|slot| long_latency.contains(slot) && barrier.contains(slot));
            seen.barrier |= slots.iter().any(|s| s.status == SlotStatus::Barrier);
            seen.exited |= slots.iter().any(|s| s.status == SlotStatus::Exited);
            seen.age_not_slot |= ages.iter().any(|l| l.windows(2).any(|p| p[0].1 > p[1].1));
            seen.blocked |= slots
                .iter()
                .enumerate()
                .any(|(slot, s)| s.status == SlotStatus::Eligible && !issuable.contains(slot));
            seen.second_word |= issuable.words().iter().skip(1).any(|&w| w != 0);
            cycle += 1;
            if next_cta == grid.num_ctas && sm.is_idle() {
                break;
            }
            assert!(cycle < 100_000, "{scheduler:?} did not terminate");
        }
        (sm, global, seen)
    }

    #[test]
    fn cached_issue_state_matches_a_fresh_derivation_every_cycle() {
        // A divergent branch, a load feeding a dependant, a barrier
        // reached with a load outstanding, a guarded exit that retires half
        // of warp 1 and all of warp 2, and a loop that odd CTAs run 40
        // times.
        let mut kb = KernelBuilder::new("issue_state");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_special(Reg(8), SpecialReg::GlobalTid);
        kb.mov_special(Reg(5), SpecialReg::LaneId);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(5), 16);
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_);
        kb.mov_imm(Reg(1), 1);
        kb.bra(join);
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2);
        kb.place_label(join);
        kb.ldg(Reg(2), Reg(8), 0);
        kb.iadd(Reg(3), Reg(2), Reg(1));
        // A load still in flight at the barrier, read (as 0) right after it.
        kb.ldg(Reg(9), Reg(8), 0x800);
        kb.bar();
        kb.iadd(Reg(3), Reg(3), Reg(9));
        kb.setp_imm(PredReg(1), CmpOp::Ge, Reg(0), 48);
        kb.guard(PredReg(1), true).exit();
        kb.mov_special(Reg(7), SpecialReg::CtaIdX);
        kb.iand_imm(Reg(7), Reg(7), 1);
        kb.imul_imm(Reg(7), Reg(7), 40);
        kb.mov_imm(Reg(6), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(6), Reg(6), 1);
        kb.setp(PredReg(2), CmpOp::Lt, Reg(6), Reg(7));
        kb.bra_if(PredReg(2), true, top);
        kb.iadd(Reg(4), Reg(3), Reg(0));
        kb.stg(Reg(8), Reg(4), 0);
        kb.exit();
        let kernel = Arc::new(kb.build().unwrap());
        // Two CTA slots for five CTAs: later CTAs reuse lower warp slots
        // while an older CTA still runs, so age order differs from slot
        // order.
        let grid = GridConfig::new(5, 96);
        for scheduler in [
            SchedulerPolicy::Gto,
            SchedulerPolicy::Lrr,
            SchedulerPolicy::TwoLevel {
                active_per_scheduler: 2,
            },
            SchedulerPolicy::FetchGroup { group_size: 2 },
        ] {
            let config = GpuConfig {
                global_mem_words: 1 << 12,
                max_ctas_per_sm: 2,
                scheduler,
                ..GpuConfig::kepler_single_sm()
            };
            let (sm, global, seen) = run_checking_issue_state(&kernel, grid, &config);
            assert!(
                seen.barrier
                    && seen.exited
                    && seen.age_not_slot
                    && seen.blocked
                    && seen.long_latency
                    && seen.barrier_long_latency
                    && seen.stall_kinds == [true; 4],
                "{scheduler:?}: {seen:?}"
            );
            assert_eq!(sm.finished_warps.len(), 15, "{scheduler:?}");
            // Each surviving thread stores its branch value plus its tid;
            // threads from tid 48 exited before the store.
            for cta in 0..5 {
                let base = cta * 96;
                assert_eq!(global.read(base), 1, "{scheduler:?} cta {cta}");
                assert_eq!(global.read(base + 31), 2 + 31, "{scheduler:?} cta {cta}");
                assert_eq!(global.read(base + 47), 1 + 47, "{scheduler:?} cta {cta}");
                assert_eq!(global.read(base + 48), 0, "{scheduler:?} cta {cta}");
            }
        }
    }

    #[test]
    fn issuable_mask_spans_several_words() {
        // 100 warp slots need two mask words; three CTAs of 32 warps fill
        // slots 0..96, so warps past slot 63 issue from the second word.
        let mut kb = KernelBuilder::new("wide");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.ldg(Reg(1), Reg(0), 0);
        kb.iadd_imm(Reg(2), Reg(1), 7);
        kb.stg(Reg(0), Reg(2), 0);
        kb.exit();
        let kernel = Arc::new(kb.build().unwrap());
        let grid = GridConfig::new(3, 1024);
        for scheduler in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            let config = GpuConfig {
                global_mem_words: 1 << 12,
                max_warps_per_sm: 100,
                scheduler,
                ..GpuConfig::kepler_single_sm()
            };
            config.validate();
            let (sm, global, seen) = run_checking_issue_state(&kernel, grid, &config);
            assert_eq!(sm.issuable.words().len(), 2);
            assert!(seen.second_word && seen.blocked, "{scheduler:?}: {seen:?}");
            assert_eq!(sm.stats.instructions, 5 * 96, "{scheduler:?}");
            assert_eq!(global.read(3 * 1024 - 1), 7, "{scheduler:?}");
        }
    }

    /// Steps two SMs through the same launch in lockstep until both
    /// drain: `reference` is made by `prepare` from a fresh SM, `before`
    /// runs on it ahead of every cycle, and `check(cycle, sm, reference)`
    /// after every cycle. Both SMs record a full pipeline trace.
    fn run_lockstep(
        kernel: &Arc<Kernel>,
        grid: GridConfig,
        config: &GpuConfig,
        prepare: impl FnOnce(&mut Sm),
        mut before: impl FnMut(&mut Sm),
        mut check: impl FnMut(u64, &Sm, &Sm),
    ) -> [(Sm, Vec<TraceEvent>); 2] {
        let config = GpuConfig {
            trace_capacity: 1 << 18,
            ..config.clone()
        };
        let image = Arc::new(KernelImage::new(Arc::clone(kernel), grid));
        let mut sms = [0, 1].map(|_| {
            let rf = Box::new(BaselineRf::stv(config.num_rf_banks));
            Sm::new(0, &config, Arc::clone(&image), rf)
        });
        prepare(&mut sms[1]);
        let mut globals = [0, 1].map(|_| GlobalMemory::new(config.global_mem_words));
        let (mut next_cta, mut cycle) = (0u32, 0u64);
        loop {
            let mut dispatched = None;
            for sm in &mut sms {
                let mut cta = next_cta;
                while cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(cta), cycle) {
                    cta += 1;
                }
                assert_eq!(*dispatched.get_or_insert(cta), cta, "cycle {cycle}");
            }
            next_cta = dispatched.expect("two SMs");
            before(&mut sms[1]);
            for (sm, global) in sms.iter_mut().zip(&mut globals) {
                sm.cycle(cycle, global);
                sm.commit_global_writes(global);
            }
            check(cycle, &sms[0], &sms[1]);
            cycle += 1;
            if next_cta == grid.num_ctas && sms.iter().all(Sm::is_idle) {
                break;
            }
            assert!(cycle < 200_000, "lockstep run did not terminate");
        }
        assert!(
            globals[0].nonzero_words().eq(globals[1].nonzero_words()),
            "final global memory"
        );
        sms.map(|mut sm| {
            let trace = sm.finish_observation(cycle).trace;
            assert!(trace.len() < 1 << 18, "the trace ring dropped events");
            (sm, trace)
        })
    }

    /// Which issue-walk situations the reference schedulers met.
    #[derive(Debug, Default)]
    struct ListSeen {
        /// Turns whose first candidate the jitter hash skipped.
        jitter_head: std::sync::atomic::AtomicUsize,
        /// GTO turns that listed the greedy warp first and another after.
        greedy_head: std::sync::atomic::AtomicUsize,
    }

    impl ListSeen {
        /// Counts one turn's list for coverage.
        fn note(&self, config: &GpuConfig, list: &[usize], greedy: Option<usize>, cycle: u64) {
            use std::sync::atomic::Ordering::Relaxed;
            if let Some(&head) = list.first() {
                if jitter_skips(config, 0, head, cycle) {
                    self.jitter_head.fetch_add(1, Relaxed);
                }
                if greedy == Some(head) && list.len() > 1 {
                    self.greedy_head.fetch_add(1, Relaxed);
                }
            }
        }
    }

    /// GTO as it read before the on-demand walk: every turn lists the
    /// greedy warp, if issuable, then every other issuable warp oldest
    /// first, and the SM walks the list.
    #[derive(Debug)]
    struct ListGto {
        greedy: Option<usize>,
        config: GpuConfig,
        seen: Arc<ListSeen>,
    }

    impl WarpScheduler for ListGto {
        fn prioritize(&mut self, warps: &WarpSet<'_>, cycle: u64, out: &mut Vec<usize>) -> Walk {
            out.clear();
            let issuable = warps.issuable;
            if let Some(g) = self.greedy {
                if issuable.contains(g) {
                    out.push(g);
                }
            }
            out.extend(
                warps
                    .ages
                    .iter()
                    .map(|&(_, slot)| slot)
                    .filter(|&slot| issuable.contains(slot) && Some(slot) != self.greedy),
            );
            self.seen.note(&self.config, out, self.greedy, cycle);
            Walk::list()
        }

        fn on_issue(&mut self, slot: usize, _cycle: u64) {
            self.greedy = Some(slot);
        }

        fn on_warp_start(&mut self, _slot: usize) {}

        fn on_warp_finish(&mut self, slot: usize) {
            if self.greedy == Some(slot) {
                self.greedy = None;
            }
        }

        fn name(&self) -> &'static str {
            "GTO"
        }
    }

    /// LRR as it read before the on-demand walk: its issuable slots in
    /// slot order, rotated to start after the last issued one.
    #[derive(Debug)]
    struct ListLrr {
        last: Option<usize>,
        config: GpuConfig,
        seen: Arc<ListSeen>,
    }

    impl WarpScheduler for ListLrr {
        fn prioritize(&mut self, warps: &WarpSet<'_>, cycle: u64, out: &mut Vec<usize>) -> Walk {
            out.clear();
            out.extend(warps.owned_in(warps.issuable));
            if let Some(last) = self.last {
                let start = out.iter().position(|&s| s > last).unwrap_or(0);
                out.rotate_left(start);
            }
            self.seen.note(&self.config, out, None, cycle);
            Walk::list()
        }

        fn on_issue(&mut self, slot: usize, _cycle: u64) {
            self.last = Some(slot);
        }

        fn on_warp_start(&mut self, _slot: usize) {}

        fn on_warp_finish(&mut self, _slot: usize) {}

        fn name(&self) -> &'static str {
            "LRR"
        }
    }

    /// A kernel whose warps take roles by warp id: role 3 exits at once,
    /// the others load, loop a CTA-dependent number of times and meet at
    /// a barrier, after which role 2 exits and the rest finish a
    /// dependent chain. Every branch is uniform within a warp, so each
    /// unguarded `exit` retires the whole warp.
    fn role_kernel() -> Arc<Kernel> {
        let mut kb = KernelBuilder::new("roles");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_special(Reg(8), SpecialReg::GlobalTid);
        kb.mov_special(Reg(5), SpecialReg::WarpId);
        kb.mov_special(Reg(7), SpecialReg::CtaIdX);
        kb.iand_imm(Reg(1), Reg(5), 3);
        kb.setp_imm(PredReg(0), CmpOp::Eq, Reg(1), 3);
        let main = kb.new_label();
        kb.bra_if(PredReg(0), false, main);
        kb.exit();
        kb.place_label(main);
        kb.ldg(Reg(2), Reg(8), 0);
        kb.iadd(Reg(3), Reg(2), Reg(0));
        kb.ldg(Reg(9), Reg(8), 0x800);
        kb.iand_imm(Reg(10), Reg(7), 3);
        kb.imul_imm(Reg(10), Reg(10), 4);
        kb.iadd(Reg(10), Reg(10), Reg(1));
        kb.mov_imm(Reg(6), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(6), Reg(6), 1);
        kb.imad(Reg(4), Reg(6), Reg(3), Reg(4));
        kb.setp(PredReg(2), CmpOp::Le, Reg(6), Reg(10));
        kb.bra_if(PredReg(2), true, top);
        kb.setp_imm(PredReg(1), CmpOp::Eq, Reg(1), 2);
        kb.bar();
        kb.guard(PredReg(1), true).exit();
        kb.iadd(Reg(3), Reg(3), Reg(9));
        kb.imad(Reg(4), Reg(4), Reg(3), Reg(0));
        kb.iadd(Reg(4), Reg(4), Reg(3));
        kb.stg(Reg(8), Reg(4), 0);
        kb.exit();
        Arc::new(kb.build().unwrap())
    }

    #[test]
    fn on_demand_walk_issues_as_the_list_building_schedulers_did() {
        // Seeded configurations of GTO and LRR: 1 to 4 schedulers, 48 to
        // 128 warp slots, as few as 2 collector units, jitter from none to
        // every second warp, and 1 to 3 issues per scheduler. The
        // reference SM runs test-only copies of the list-building GTO and
        // LRR through the SM's list path, which is the issue loop as it
        // was. Every cycle both SMs must hold the same issue state and
        // statistics, and in the end the same pipeline trace.
        let kernel = role_kernel();
        let unguarded_exits: Vec<usize> = (0..kernel.len())
            .filter(|&pc| {
                let instr = kernel.fetch(pc);
                instr.opcode == prf_isa::Opcode::Exit && instr.guard.is_none()
            })
            .collect();
        let seen = Arc::new(ListSeen::default());
        let (mut collector_stalls, mut second_word, mut barrier) = (0, 0, 0);
        let mut exit_mid_turn = [0usize; 2];
        for seed in 0..16u64 {
            let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut pick = |n: usize| {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                (h % n as u64) as usize
            };
            let gto = seed % 2 == 0;
            let config = GpuConfig {
                global_mem_words: 1 << 14,
                scheduler: if gto {
                    SchedulerPolicy::Gto
                } else {
                    SchedulerPolicy::Lrr
                },
                num_schedulers: [1, 2, 4][pick(3)],
                max_warps_per_sm: [48, 64, 96, 128][pick(4)],
                max_ctas_per_sm: [2, 4, 16][pick(3)],
                num_collectors: [2, 3, 8, 24][pick(4)],
                issue_jitter: [0, 2, 3, 13][pick(4)],
                issue_per_scheduler: [1, 2, 2, 3][pick(4)],
                jitter_seed: seed,
                ..GpuConfig::kepler_single_sm()
            };
            config.validate();
            let reference = |sm: &mut Sm| {
                for s in &mut sm.schedulers {
                    let (config, seen) = (config.clone(), Arc::clone(&seen));
                    *s = if gto {
                        Box::new(ListGto {
                            greedy: None,
                            config,
                            seen,
                        })
                    } else {
                        Box::new(ListLrr {
                            last: None,
                            config,
                            seen,
                        })
                    };
                }
            };
            let [(sm, trace), (reference, reference_trace)] = run_lockstep(
                &kernel,
                GridConfig::new(12, 256),
                &config,
                reference,
                |_| {},
                |cycle, sm, reference| {
                    assert_eq!(
                        sm.issue_slots, reference.issue_slots,
                        "seed {seed} cycle {cycle}"
                    );
                    assert_eq!(sm.stats, reference.stats, "seed {seed} cycle {cycle}");
                    second_word += usize::from(sm.issuable.words().iter().skip(1).any(|&w| w != 0));
                    barrier += usize::from(!sm.barrier.is_empty());
                },
            );
            assert_eq!(trace, reference_trace, "seed {seed}");
            assert_eq!(sm.stats.instructions, reference.stats.instructions);
            collector_stalls += sm.stats.collector_stalls;
            // A turn in which a warp retired at an unguarded exit and
            // another warp issued after it.
            let nsched = config.num_schedulers;
            let issues: Vec<(u64, usize, usize)> = trace
                .iter()
                .filter_map(|ev| match *ev {
                    TraceEvent::Issue {
                        cycle, warp, pc, ..
                    } => Some((cycle, warp, pc)),
                    _ => None,
                })
                .collect();
            for (i, &(cycle, warp, pc)) in issues.iter().enumerate() {
                if unguarded_exits.contains(&pc) {
                    let later = issues[i + 1..].iter().take_while(|e| e.0 == cycle);
                    if later.into_iter().any(|e| e.1 % nsched == warp % nsched) {
                        exit_mid_turn[usize::from(gto)] += 1;
                    }
                }
            }
        }
        use std::sync::atomic::Ordering::Relaxed;
        let coverage = (
            seen.jitter_head.load(Relaxed),
            seen.greedy_head.load(Relaxed),
            collector_stalls,
            exit_mid_turn,
            second_word,
            barrier,
        );
        assert!(
            coverage.0 > 0
                && coverage.1 > 0
                && coverage.2 > 0
                && coverage.3.iter().all(|&n| n > 0)
                && coverage.4 > 0
                && coverage.5 > 0,
            "{coverage:?}"
        );
    }

    #[test]
    fn barrier_scan_on_change_releases_when_a_scan_every_cycle_would() {
        // Eight warp slots and CTAs of four warps. Odd warps loop, store
        // and exit without a barrier, so their CTA's even warps, waiting
        // at the first barrier, are released by an exit. Once four odd slots
        // are free, a new CTA takes them while the older CTAs' even warps
        // still run: those CTAs keep their slots and stale slot lists, and
        // their barrier checks read the new CTA's warps. The reference
        // scans every cycle; both must release the same warps each cycle.
        let mut kb = KernelBuilder::new("skewed_barriers");
        kb.mov_special(Reg(5), SpecialReg::WarpId);
        kb.mov_special(Reg(7), SpecialReg::CtaIdX);
        kb.mov_special(Reg(8), SpecialReg::GlobalTid);
        kb.iand_imm(Reg(1), Reg(5), 1);
        kb.iand_imm(Reg(10), Reg(7), 3);
        kb.imul_imm(Reg(10), Reg(10), 3);
        kb.iadd(Reg(10), Reg(10), Reg(5));
        kb.mov_imm(Reg(6), 0);
        kb.setp_imm(PredReg(0), CmpOp::Eq, Reg(1), 1);
        let even = kb.new_label();
        kb.bra_if(PredReg(0), false, even);
        let odd_loop = kb.new_label();
        kb.place_label(odd_loop);
        kb.iadd_imm(Reg(6), Reg(6), 1);
        kb.setp(PredReg(1), CmpOp::Le, Reg(6), Reg(10));
        kb.bra_if(PredReg(1), true, odd_loop);
        // In flight at the exit: the slot stays exited, not empty, until
        // the store retires.
        kb.stg(Reg(8), Reg(6), 0x1000);
        kb.exit();
        kb.place_label(even);
        kb.bar();
        let even_loop = kb.new_label();
        kb.place_label(even_loop);
        kb.iadd_imm(Reg(6), Reg(6), 2);
        kb.ldg(Reg(2), Reg(8), 0);
        kb.setp(PredReg(1), CmpOp::Le, Reg(6), Reg(10));
        kb.bra_if(PredReg(1), true, even_loop);
        kb.bar();
        kb.iadd(Reg(3), Reg(2), Reg(6));
        kb.stg(Reg(8), Reg(3), 0);
        kb.exit();
        let kernel = Arc::new(kb.build().unwrap());
        let (mut releases, mut stale_releases) = (0, 0);
        for (seed, scheduler) in (0..6u64).zip(
            [
                SchedulerPolicy::Gto,
                SchedulerPolicy::Lrr,
                SchedulerPolicy::TwoLevel {
                    active_per_scheduler: 1,
                },
            ]
            .into_iter()
            .cycle(),
        ) {
            let config = GpuConfig {
                global_mem_words: 1 << 14,
                max_warps_per_sm: 8,
                max_ctas_per_sm: 4,
                scheduler,
                jitter_seed: seed,
                ..GpuConfig::kepler_single_sm()
            };
            config.validate();
            let mut before_cycle = vec![IssueSlot::default(); 8];
            run_lockstep(
                &kernel,
                GridConfig::new(9, 128),
                &config,
                |_| {},
                |reference| reference.barrier_dirty = true,
                |cycle, sm, reference| {
                    assert_eq!(
                        sm.issue_slots, reference.issue_slots,
                        "seed {seed} cycle {cycle}"
                    );
                    assert_eq!(sm.stats, reference.stats, "seed {seed} cycle {cycle}");
                    let released = (0..8).any(|slot| {
                        before_cycle[slot].status == SlotStatus::Barrier
                            && sm.issue_slots[slot].status != SlotStatus::Barrier
                    });
                    let stale = sm.cta_slots.iter().enumerate().any(|(cta_slot, c)| {
                        c.as_ref().is_some_and(|c| {
                            c.warp_slots.iter().any(|&s| {
                                sm.warps[s].as_ref().is_some_and(|w| w.cta_slot != cta_slot)
                            })
                        })
                    });
                    releases += usize::from(released);
                    stale_releases += usize::from(released && stale);
                    before_cycle.clone_from(&sm.issue_slots);
                },
            );
        }
        assert!(
            releases > 0 && stale_releases > 0,
            "{releases} {stale_releases}"
        );
    }

    #[test]
    fn partial_warp_cta_completes() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 61); // sad-like
        let (sm, _, global) = run_sm(simple_kernel(), grid, &config);
        assert_eq!(sm.finished_warps.len(), 2);
        assert_eq!(global.read(60), (60 + 5) * 3);
        // Thread 61 does not exist; its slot in memory must stay zero.
        assert_eq!(global.read(61), 0);
    }

    #[test]
    fn zero_alu_latency_retires_on_the_next_cycle() {
        // A zero-latency ALU result is due in the cycle it is collected,
        // after that cycle's completions have drained: it retires on the
        // next cycle. Pinned from the behaviour before completions moved to
        // per-cycle buckets.
        let config = GpuConfig {
            global_mem_words: 1 << 14,
            alu_latency: 0,
            ..GpuConfig::kepler_single_sm()
        };
        config.validate();
        let mut kb = KernelBuilder::new("alu0");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.ldg(Reg(3), Reg(0), 0);
        for _ in 0..12 {
            kb.imad(Reg(1), Reg(0), Reg(0), Reg(1));
            kb.iadd(Reg(2), Reg(1), Reg(3));
            kb.ffma(Reg(4), Reg(2), Reg(2), Reg(4));
        }
        kb.stg(Reg(0), Reg(2), 0);
        kb.stg(Reg(0), Reg(4), 0x4000);
        kb.exit();
        let (sm, cycles, _) = run_sm(kb.build().unwrap(), GridConfig::new(4, 256), &config);
        let s = &sm.stats;
        assert_eq!((cycles, s.instructions), (775, 1312));
        assert_eq!(
            [
                s.active_cycles,
                s.issue_cycles,
                s.stall_mem,
                s.stall_barrier,
                s.stall_collector,
                s.stall_alu_dep
            ],
            [775, 314, 212, 0, 0, 26]
        );
        assert_eq!([s.bank_conflict_waits, s.collector_stalls], [4995, 115]);
    }
}
