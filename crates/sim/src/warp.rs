//! Warp execution context: per-lane architectural state and the SIMT
//! reconvergence stack.

use prf_isa::{CtaId, ReconvergenceTable, WARP_SIZE};

/// One entry of the SIMT stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimtEntry {
    /// Next pc for the lanes in this entry.
    pub pc: usize,
    /// Reconvergence pc: when `pc == rpc` the entry pops. `usize::MAX`
    /// encodes "reconverge only at thread exit".
    pub rpc: usize,
    /// Lanes owned by this entry.
    pub mask: u32,
}

/// The SIMT reconvergence stack (GPGPU-Sim style, IPDOM reconvergence).
///
/// Divergence uses the *convert-top* scheme: the diverging entry is turned
/// into the reconvergence entry (it keeps the union mask) and the two paths
/// are pushed above it, taken path on top. Invariants (checked by the
/// property tests in this crate):
///
/// 1. Each entry's mask is a subset of the entry below it.
/// 2. Sibling paths pushed by one divergence are disjoint and union to
///    their parent's mask.
/// 3. Deeper (more recently pushed) entries execute first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<SimtEntry>,
}

/// Marker rpc for "reconverges at thread exit".
pub const RPC_EXIT: usize = usize::MAX;

impl SimtStack {
    /// Creates a stack with all lanes in `mask` starting at pc 0.
    pub fn new(mask: u32) -> Self {
        SimtStack {
            entries: vec![SimtEntry {
                pc: 0,
                rpc: RPC_EXIT,
                mask,
            }],
        }
    }

    /// Resets the stack to a fresh single entry at pc 0, reusing the
    /// existing entry storage (no allocation).
    pub fn reset(&mut self, mask: u32) {
        self.entries.clear();
        self.entries.push(SimtEntry {
            pc: 0,
            rpc: RPC_EXIT,
            mask,
        });
    }

    /// The active entry (top of stack), if any lanes remain.
    pub fn top(&self) -> Option<SimtEntry> {
        self.entries.last().copied()
    }

    /// Current pc, if the warp is still running.
    pub fn pc(&self) -> Option<usize> {
        self.top().map(|e| e.pc)
    }

    /// Currently active lane mask.
    pub fn active_mask(&self) -> u32 {
        self.top().map_or(0, |e| e.mask)
    }

    /// True when every lane has exited.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Union of all lane masks on the stack (the still-running lanes).
    /// With the convert-top scheme this equals the bottom entry's mask.
    pub fn live_mask(&self) -> u32 {
        self.entries.iter().fold(0, |m, e| m | e.mask)
    }

    /// Test/diagnostic view of the raw entries, bottom first.
    pub fn entries(&self) -> &[SimtEntry] {
        &self.entries
    }

    /// Number of stack entries (divergence depth + 1).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Advances the top entry to `next_pc` (non-branch fallthrough or a
    /// uniform branch).
    pub fn advance(&mut self, next_pc: usize) {
        let top = self.entries.last_mut().expect("advance on empty stack");
        top.pc = next_pc;
        self.pop_reconverged();
    }

    /// Executes a potentially divergent branch at `pc`.
    ///
    /// `taken` is the sub-mask of the active lanes that take the branch to
    /// `target`; the rest fall through to `pc + 1`. `rt` supplies the
    /// reconvergence point.
    ///
    /// # Panics
    ///
    /// Panics if `taken` contains lanes that are not active.
    pub fn branch(&mut self, pc: usize, target: usize, taken: u32, rt: &ReconvergenceTable) {
        let active = self.active_mask();
        assert_eq!(taken & !active, 0, "taken lanes must be active");
        let not_taken = active & !taken;
        if taken == 0 {
            self.advance(pc + 1);
        } else if not_taken == 0 {
            self.advance(target);
        } else {
            // Divergence: the current top becomes the reconvergence entry;
            // push the fall-through path below the taken path so the taken
            // path executes first (matching GPGPU-Sim's convention).
            let rpc = rt.reconvergence_pc(pc).unwrap_or(RPC_EXIT);
            let top = self.entries.last_mut().expect("branch on empty stack");
            top.pc = rpc;
            self.entries.push(SimtEntry {
                pc: pc + 1,
                rpc,
                mask: not_taken,
            });
            self.entries.push(SimtEntry {
                pc: target,
                rpc,
                mask: taken,
            });
        }
    }

    /// Retires the lanes in `mask` (they executed `Exit`). Removes them
    /// from every entry and pops empty/reconverged entries.
    pub fn exit_lanes(&mut self, mask: u32) {
        for e in &mut self.entries {
            e.mask &= !mask;
        }
        self.entries.retain(|e| e.mask != 0);
        self.pop_reconverged();
    }

    /// Pops entries whose pc has reached their reconvergence point.
    fn pop_reconverged(&mut self) {
        while let Some(top) = self.entries.last() {
            if top.rpc != RPC_EXIT && top.pc == top.rpc {
                self.entries.pop();
            } else {
                break;
            }
        }
    }
}

/// Which long-running operation a warp is blocked on, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarpBlock {
    /// Ready to fetch/issue.
    #[default]
    None,
    /// Waiting at a CTA barrier.
    Barrier,
}

/// Per-warp hardware context on an SM.
#[derive(Debug, Clone)]
pub struct WarpContext {
    /// Hardware warp slot on the SM.
    pub slot: usize,
    /// CTA slot on the SM this warp belongs to.
    pub cta_slot: usize,
    /// Flattened grid-wide CTA id.
    pub cta: CtaId,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// SIMT reconvergence stack.
    pub stack: SimtStack,
    /// Register values, register-major: lane `l` of register `r` lives at
    /// `regs[r * WARP_SIZE + l]`, so one register's 32 lanes are one
    /// contiguous slice ([`WarpContext::reg_lanes`]).
    pub regs: Vec<u32>,
    /// Predicate values as lane bitmasks: bit `l` of `preds[p]` is lane
    /// `l`'s value of predicate `p`.
    pub preds: [u32; prf_isa::NUM_PRED_REGS],
    /// Blocking condition.
    pub block: WarpBlock,
    /// Cycle the warp became resident: the age behind the oldest-first
    /// order the SM hands its schedulers.
    pub dispatch_cycle: u64,
    /// Number of issued-but-not-retired instructions.
    pub inflight: u32,
}

impl WarpContext {
    /// Creates a resident warp with `regs_per_thread` zeroed registers per
    /// lane and the given initial active mask.
    pub fn new(
        slot: usize,
        cta_slot: usize,
        cta: CtaId,
        warp_in_cta: u32,
        active_mask: u32,
        regs_per_thread: usize,
        dispatch_cycle: u64,
    ) -> Self {
        WarpContext {
            slot,
            cta_slot,
            cta,
            warp_in_cta,
            stack: SimtStack::new(active_mask),
            regs: vec![0u32; regs_per_thread * WARP_SIZE],
            preds: [0; prf_isa::NUM_PRED_REGS],
            block: WarpBlock::None,
            dispatch_cycle,
            inflight: 0,
        }
    }

    /// Lane `lane`'s value of register `reg`.
    pub fn reg(&self, lane: usize, reg: usize) -> u32 {
        self.regs[reg * WARP_SIZE + lane]
    }

    /// All 32 lanes of register `reg`, lane 0 first.
    pub fn reg_lanes(&self, reg: usize) -> &[u32] {
        &self.regs[reg * WARP_SIZE..(reg + 1) * WARP_SIZE]
    }

    /// Mutable form of [`WarpContext::reg_lanes`].
    pub fn reg_lanes_mut(&mut self, reg: usize) -> &mut [u32] {
        &mut self.regs[reg * WARP_SIZE..(reg + 1) * WARP_SIZE]
    }

    /// Lane `lane`'s value of predicate `pred`.
    pub fn pred(&self, lane: usize, pred: usize) -> bool {
        self.preds[pred] & (1 << lane) != 0
    }

    /// True when the warp has no more lanes to run (it may still have
    /// in-flight instructions).
    pub fn exited(&self) -> bool {
        self.stack.is_done()
    }

    /// Reinitialises a recycled context in place, reusing the register and
    /// predicate storage. After this call the context is indistinguishable
    /// from one built with [`WarpContext::new`] with the same arguments, so
    /// pooling contexts never changes simulation results.
    #[allow(clippy::too_many_arguments)]
    pub fn reinit(
        &mut self,
        slot: usize,
        cta_slot: usize,
        cta: CtaId,
        warp_in_cta: u32,
        active_mask: u32,
        regs_per_thread: usize,
        dispatch_cycle: u64,
    ) {
        self.slot = slot;
        self.cta_slot = cta_slot;
        self.cta = cta;
        self.warp_in_cta = warp_in_cta;
        self.stack.reset(active_mask);
        self.regs.clear();
        self.regs.resize(regs_per_thread * WARP_SIZE, 0);
        self.preds = [0; prf_isa::NUM_PRED_REGS];
        self.block = WarpBlock::None;
        self.dispatch_cycle = dispatch_cycle;
        self.inflight = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::{CmpOp, KernelBuilder, PredReg, Reg};

    fn diamond_table() -> (prf_isa::Kernel, ReconvergenceTable) {
        let mut kb = KernelBuilder::new("d");
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 16); // 0
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_); // 1
        kb.mov_imm(Reg(1), 1); // 2
        kb.bra(join); // 3
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2); // 4
        kb.place_label(join);
        kb.exit(); // 5
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        (k, rt)
    }

    #[test]
    fn uniform_branch_does_not_push() {
        let (_, rt) = diamond_table();
        let mut s = SimtStack::new(u32::MAX);
        s.branch(1, 4, u32::MAX, &rt); // all lanes taken
        assert_eq!(s.depth(), 1);
        assert_eq!(s.pc(), Some(4));
        let mut s2 = SimtStack::new(u32::MAX);
        s2.branch(1, 4, 0, &rt); // no lanes taken
        assert_eq!(s2.depth(), 1);
        assert_eq!(s2.pc(), Some(2));
    }

    #[test]
    fn divergent_branch_pushes_taken_first() {
        let (_, rt) = diamond_table();
        let mut s = SimtStack::new(0xFF);
        s.branch(1, 4, 0x0F, &rt);
        assert_eq!(s.depth(), 3);
        // Taken path on top.
        assert_eq!(s.pc(), Some(4));
        assert_eq!(s.active_mask(), 0x0F);
        // Lanes are conserved.
        assert_eq!(s.live_mask(), 0xFF);
    }

    #[test]
    fn reconvergence_restores_full_mask() {
        let (_, rt) = diamond_table();
        let mut s = SimtStack::new(0xFF);
        s.branch(1, 4, 0x0F, &rt);
        // Taken path: pc4 -> advance to 5 == rpc -> pops to fall-through.
        s.advance(5);
        assert_eq!(s.pc(), Some(2));
        assert_eq!(s.active_mask(), 0xF0);
        // Fall-through: 2 -> 3 (bra join) -> 5 == rpc -> pops to base.
        s.advance(3);
        s.advance(5);
        assert_eq!(s.pc(), Some(5));
        assert_eq!(s.active_mask(), 0xFF);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn exit_lanes_drains_stack() {
        let mut s = SimtStack::new(0b1111);
        s.exit_lanes(0b0011);
        assert_eq!(s.active_mask(), 0b1100);
        assert!(!s.is_done());
        s.exit_lanes(0b1100);
        assert!(s.is_done());
        assert_eq!(s.active_mask(), 0);
        assert_eq!(s.pc(), None);
    }

    #[test]
    fn partial_exit_under_divergence() {
        let (_, rt) = diamond_table();
        let mut s = SimtStack::new(0xFF);
        s.branch(1, 4, 0x0F, &rt);
        // The taken lanes exit entirely (e.g. guarded Exit).
        s.exit_lanes(0x0F);
        // Fall-through entry becomes top.
        assert_eq!(s.pc(), Some(2));
        assert_eq!(s.active_mask(), 0xF0);
        assert_eq!(s.live_mask(), 0xF0);
    }

    #[test]
    #[should_panic(expected = "taken lanes must be active")]
    fn branch_rejects_inactive_taken_lanes() {
        let (_, rt) = diamond_table();
        let mut s = SimtStack::new(0x0F);
        s.branch(1, 4, 0xF0, &rt);
    }

    #[test]
    fn warp_context_initial_state() {
        let w = WarpContext::new(3, 1, CtaId(7), 2, 0xFFFF, 13, 100);
        assert_eq!(w.slot, 3);
        assert_eq!(w.stack.active_mask(), 0xFFFF);
        assert_eq!(w.regs.len(), 13 * WARP_SIZE);
        assert_eq!(w.reg_lanes(12).len(), WARP_SIZE);
        assert_eq!(w.preds, [0; prf_isa::NUM_PRED_REGS]);
        assert!(!w.exited());
    }

    #[test]
    fn reinit_reuses_storage_and_matches_new() {
        let mut w = WarpContext::new(0, 0, CtaId(0), 0, u32::MAX, 20, 0);
        w.regs.iter_mut().for_each(|v| *v = 0xDEAD);
        w.preds = [u32::MAX; prf_isa::NUM_PRED_REGS];
        let storage = w.regs.as_ptr();
        w.reinit(5, 2, CtaId(9), 1, 0xFF, 13, 40);
        assert_eq!(w.regs.as_ptr(), storage, "no reallocation when shrinking");
        let fresh = WarpContext::new(5, 2, CtaId(9), 1, 0xFF, 13, 40);
        assert_eq!(w.regs, fresh.regs);
        assert_eq!(w.preds, fresh.preds);
        assert_eq!(w.stack, fresh.stack);
    }

    #[test]
    fn nested_divergence_mask_nesting() {
        let (_, rt) = diamond_table();
        let mut s = SimtStack::new(u32::MAX);
        s.branch(1, 4, 0x0000_FFFF, &rt);
        // Diverge again on the taken path (reusing the same table for the
        // mask bookkeeping check).
        s.branch(1, 4, 0x0000_00FF, &rt);
        let e = s.entries();
        assert_eq!(e.len(), 5);
        // First divergence: e[1] (fall-through) and e[2] (taken, converted
        // to the second divergence's parent) are disjoint siblings that
        // union to the base entry e[0].
        assert_eq!(e[1].mask & e[2].mask, 0);
        assert_eq!(e[1].mask | e[2].mask, e[0].mask);
        // Second divergence: e[3]/e[4] are disjoint siblings under e[2].
        assert_eq!(e[3].mask & e[4].mask, 0);
        assert_eq!(e[3].mask | e[4].mask, e[2].mask);
        // Every child is a subset of its parent.
        assert_eq!(e[3].mask & !e[2].mask, 0);
        assert_eq!(e[4].mask & !e[2].mask, 0);
        assert_eq!(s.live_mask(), u32::MAX);
    }
}
