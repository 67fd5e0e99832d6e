//! Per-instruction register liveness over the kernel CFG.
//!
//! This is the analysis layer of the GREENER-style compiler backend
//! (PAPERS.md): a classic backward may-liveness dataflow computed at
//! instruction granularity over the same CFG edges that
//! [`crate::cfg::ReconvergenceTable`] uses for IPDOM reconvergence.
//! The results feed two consumers:
//!
//! * [`crate::realloc`] builds an interference graph from the live-out
//!   sets and recolors the register set, and
//! * the power-gating energy model in `prf-core` credits leakage savings
//!   for register slots that are provably dead at most program points
//!   (summarised here by [`Liveness::live_slot_fraction`]).
//!
//! ## Predication semantics
//!
//! The executor (`prf-sim::exec`) gives guards two different meanings,
//! and liveness must mirror both exactly or the realloc pass would merge
//! registers whose values can still be observed:
//!
//! * For every opcode **except** `selp`, a guard squashes the lanes whose
//!   predicate disagrees — a guarded write is *conditional*. A
//!   conditional write is a def (it can clobber) but **not** a kill: the
//!   old value flows through the untaken lanes, so the destination stays
//!   live across the instruction.
//! * For `selp`, the guard is a *value selector*, not an execution mask:
//!   every active lane writes the destination unconditionally. `selp`
//!   therefore kills its destination like an unguarded write.
//!
//! Predicate registers and special registers live outside the register
//! file under study and are ignored entirely.
//!
//! ## Cross-lane reads
//!
//! `shfl dst, src, lane` reads `src` from *another lane*, whose control
//! path need not be a CFG path to the `shfl` itself. Per-lane CFG
//! liveness is therefore not a sound merging oracle for shuffle sources;
//! this module exposes them as [`Liveness::cross_lane_regs`] so the
//! realloc pass can pin them (see `realloc.rs` for the argument).

use crate::cfg;
use crate::kernel::Kernel;
use crate::op::Opcode;
use crate::reg::{Reg, MAX_ARCH_REGS};

/// A dense set of architectural registers (`R0..R62`), stored as a
/// 64-bit mask. `MAX_ARCH_REGS` is 63, so one word always suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(u64);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Inserts a register.
    pub fn insert(&mut self, r: Reg) {
        debug_assert!((r.index()) < MAX_ARCH_REGS);
        self.0 |= 1u64 << r.index();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1u64 << r.index());
    }

    /// Membership test.
    pub fn contains(&self, r: Reg) -> bool {
        self.0 & (1u64 << r.index()) != 0
    }

    /// Number of registers in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// True when no register is in the set.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Iterates members in ascending register order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        let bits = self.0;
        (0..MAX_ARCH_REGS as u8)
            .filter(move |i| bits & (1u64 << i) != 0)
            .map(Reg)
    }
}

/// Result of the backward liveness dataflow for one kernel.
///
/// All vectors are indexed by pc. `live_in[pc]` holds the registers whose
/// current value may still be read on some path starting at `pc`;
/// `live_out[pc]` is the union of the successors' live-in sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
    uses: Vec<RegSet>,
    defs: Vec<RegSet>,
    kills: Vec<RegSet>,
    cross_lane: RegSet,
    regs_per_thread: u8,
}

/// Per-instruction transfer-function inputs: registers read, registers
/// written (conditionally or not), and registers written unconditionally.
fn def_use(kernel: &Kernel, pc: usize) -> (RegSet, RegSet, RegSet) {
    let i = kernel.fetch(pc);
    let mut uses = RegSet::EMPTY;
    for r in i.reg_reads() {
        uses.insert(r);
    }
    let mut defs = RegSet::EMPTY;
    let mut kills = RegSet::EMPTY;
    if let Some(d) = i.reg_write() {
        defs.insert(d);
        // A guarded write merges with the old value in squashed lanes, so
        // it must not kill. `selp` is the exception: its guard selects the
        // source value and every active lane writes the destination.
        if i.guard.is_none() || i.opcode == Opcode::Selp {
            kills.insert(d);
        }
    }
    (uses, defs, kills)
}

impl Liveness {
    /// Runs the backward fixed-point dataflow for `kernel`.
    ///
    /// Deterministic and O(n · iterations); kernels here are at most a
    /// few thousand instructions, so the simple reverse sweep converges
    /// quickly (loop nests add one sweep per nesting level).
    pub fn compute(kernel: &Kernel) -> Self {
        let n = kernel.len();
        let mut uses = Vec::with_capacity(n);
        let mut defs = Vec::with_capacity(n);
        let mut kills = Vec::with_capacity(n);
        let mut cross_lane = RegSet::EMPTY;
        for pc in 0..n {
            let (u, d, k) = def_use(kernel, pc);
            uses.push(u);
            defs.push(d);
            kills.push(k);
            let i = kernel.fetch(pc);
            if i.opcode == Opcode::Shfl {
                if let Some(src) = i.srcs[0].and_then(|o| o.as_reg()) {
                    cross_lane.insert(src);
                }
            }
        }

        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];
        let exit = cfg::exit_node(n);
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (0..n).rev() {
                let mut out = RegSet::EMPTY;
                for s in cfg::successors(kernel, pc) {
                    if s != exit {
                        out = out.union(live_in[s]);
                    }
                }
                let inn = uses[pc].union(out.difference(kills[pc]));
                if out != live_out[pc] || inn != live_in[pc] {
                    live_out[pc] = out;
                    live_in[pc] = inn;
                    changed = true;
                }
            }
        }

        Liveness {
            live_in,
            live_out,
            uses,
            defs,
            kills,
            cross_lane,
            regs_per_thread: kernel.regs_per_thread(),
        }
    }

    /// Registers live on entry to the instruction at `pc`.
    pub fn live_in(&self, pc: usize) -> RegSet {
        self.live_in[pc]
    }

    /// Registers live on exit from the instruction at `pc`.
    pub fn live_out(&self, pc: usize) -> RegSet {
        self.live_out[pc]
    }

    /// Registers read by the instruction at `pc`.
    pub fn uses(&self, pc: usize) -> RegSet {
        self.uses[pc]
    }

    /// Registers written (conditionally or not) by the instruction at `pc`.
    pub fn defs(&self, pc: usize) -> RegSet {
        self.defs[pc]
    }

    /// Registers written unconditionally (killed) by the instruction at `pc`.
    pub fn kills(&self, pc: usize) -> RegSet {
        self.kills[pc]
    }

    /// Registers read cross-lane by a `shfl` anywhere in the kernel.
    pub fn cross_lane_regs(&self) -> RegSet {
        self.cross_lane
    }

    /// Registers that are live on kernel entry (read before any write on
    /// some path). The executor defines their value as zero.
    pub fn live_at_entry(&self) -> RegSet {
        if self.live_in.is_empty() {
            RegSet::EMPTY
        } else {
            self.live_in[0]
        }
    }

    /// True when the instruction at `pc` performs a register write whose
    /// value can never be observed: the write is unconditional and the
    /// destination is dead afterwards. (Guarded non-`selp` writes are
    /// never reported — the merge with the old value is itself an
    /// observation hazard, and the write may be squashed anyway.)
    pub fn is_dead_write(&self, pc: usize) -> bool {
        let k = self.kills[pc];
        !k.is_empty() && k.difference(self.live_out[pc]) == k
    }

    /// Pcs of all dead writes, in program order.
    pub fn dead_writes(&self) -> Vec<usize> {
        (0..self.live_in.len())
            .filter(|&pc| self.is_dead_write(pc))
            .collect()
    }

    /// Mean number of live registers per program point.
    pub fn avg_live_regs(&self) -> f64 {
        if self.live_in.is_empty() {
            return 0.0;
        }
        let total: u64 = self.live_in.iter().map(|s| s.len() as u64).sum();
        total as f64 / self.live_in.len() as f64
    }

    /// Fraction of the kernel's allocated register slots that hold a live
    /// value, averaged over program points — the static estimate the
    /// power-gating model consumes (`prf-core::gating`). In `[0, 1]`.
    pub fn live_slot_fraction(&self) -> f64 {
        if self.regs_per_thread == 0 {
            return 0.0;
        }
        (self.avg_live_regs() / self.regs_per_thread as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::op::CmpOp;
    use crate::reg::PredReg;

    #[test]
    fn straight_line_kill_and_use() {
        let mut kb = KernelBuilder::new("s");
        kb.mov_imm(Reg(0), 1); // #0 def R0
        kb.mov_imm(Reg(1), 2); // #1 def R1
        kb.iadd(Reg(2), Reg(0), Reg(1)); // #2 use R0,R1 def R2
        kb.stg(Reg(2), Reg(2), 0); // #3 use R2
        kb.exit(); // #4
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);

        assert!(lv.live_at_entry().is_empty());
        assert!(lv.live_in(2).contains(Reg(0)) && lv.live_in(2).contains(Reg(1)));
        assert!(
            !lv.live_out(2).contains(Reg(0)),
            "R0 dead after its last use"
        );
        assert!(lv.live_out(2).contains(Reg(2)));
        assert!(lv.live_in(4).is_empty());
        assert!(lv.dead_writes().is_empty());
    }

    #[test]
    fn dead_write_detected() {
        let mut kb = KernelBuilder::new("d");
        kb.mov_imm(Reg(0), 7); // #0 dead: overwritten before any use
        kb.mov_imm(Reg(0), 9); // #1
        kb.stg(Reg(0), Reg(0), 0); // #2
        kb.mov_imm(Reg(1), 3); // #3 dead: never read
        kb.exit(); // #4
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        assert_eq!(lv.dead_writes(), vec![0, 3]);
    }

    #[test]
    fn guarded_write_does_not_kill() {
        let mut kb = KernelBuilder::new("g");
        kb.mov_imm(Reg(0), 1); // #0 def R0
        kb.setp_imm(PredReg(0), CmpOp::Eq, Reg(0), 1); // #1 use R0
        kb.guard(PredReg(0), true);
        kb.mov_imm(Reg(0), 2); // #2 guarded def R0: no kill
        kb.stg(Reg(0), Reg(0), 0); // #3 use R0
        kb.exit(); // #4
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        // R0's pre-guard value can flow through squashed lanes to #3, so it
        // must be live across #2 and the write at #0 is not dead.
        assert!(lv.live_in(2).contains(Reg(0)));
        assert!(lv.defs(2).contains(Reg(0)));
        assert!(lv.kills(2).is_empty());
        assert!(!lv.is_dead_write(0));
    }

    #[test]
    fn selp_kills_destination() {
        let mut kb = KernelBuilder::new("sp");
        kb.mov_imm(Reg(0), 1); // #0 dead: selp overwrites unconditionally
        kb.mov_imm(Reg(1), 2); // #1
        kb.mov_imm(Reg(2), 3); // #2
        kb.setp_imm(PredReg(0), CmpOp::Eq, Reg(1), 2); // #3
        kb.selp(Reg(0), Reg(1), Reg(2), PredReg(0)); // #4 kills R0
        kb.stg(Reg(0), Reg(0), 0); // #5
        kb.exit(); // #6
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        assert!(lv.kills(4).contains(Reg(0)));
        assert!(!lv.live_in(4).contains(Reg(0)));
        assert!(lv.is_dead_write(0));
    }

    #[test]
    fn diamond_branch_live_through_both_arms() {
        let mut kb = KernelBuilder::new("br");
        let join = kb.new_label();
        let else_ = kb.new_label();
        kb.mov_imm(Reg(0), 5); // #0 def R0 (used on both arms)
        kb.setp_imm(PredReg(0), CmpOp::Eq, Reg(0), 5); // #1
        kb.bra_if(PredReg(0), false, else_); // #2
        kb.iadd_imm(Reg(1), Reg(0), 1); // #3 then: use R0
        kb.bra(join); // #4
        kb.place_label(else_);
        kb.iadd_imm(Reg(1), Reg(0), 2); // #5 else: use R0
        kb.place_label(join);
        kb.stg(Reg(1), Reg(1), 0); // #6 use R1
        kb.exit(); // #7
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        // R0 is live into both arms, dead at the join.
        assert!(lv.live_in(3).contains(Reg(0)));
        assert!(lv.live_in(5).contains(Reg(0)));
        assert!(!lv.live_in(6).contains(Reg(0)));
        // R1 live at the join regardless of which arm defined it.
        assert!(lv.live_in(6).contains(Reg(1)));
        assert!(lv.dead_writes().is_empty());
    }

    #[test]
    fn loop_back_edge_keeps_registers_live() {
        let mut kb = KernelBuilder::new("lp");
        let head = kb.new_label();
        kb.mov_imm(Reg(0), 0); // #0 acc
        kb.mov_imm(Reg(1), 8); // #1 bound
        kb.place_label(head);
        kb.iadd_imm(Reg(0), Reg(0), 1); // #2 use+def acc
        kb.setp(PredReg(0), CmpOp::Lt, Reg(0), Reg(1)); // #3 use acc, bound
        kb.bra_if(PredReg(0), true, head); // #4 back edge
        kb.stg(Reg(0), Reg(0), 0); // #5
        kb.exit(); // #6
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        // Fixed point: the bound is live around the whole loop body,
        // including across the back edge at #4.
        for pc in 2..=4 {
            assert!(lv.live_in(pc).contains(Reg(1)), "R1 live at #{pc}");
            assert!(lv.live_in(pc).contains(Reg(0)), "R0 live at #{pc}");
        }
        assert!(!lv.live_out(5).contains(Reg(0)));
        assert!(lv.dead_writes().is_empty());
        // Both registers are allocated and mostly live.
        assert!(lv.live_slot_fraction() > 0.5);
    }

    #[test]
    fn read_before_write_is_live_at_entry() {
        let mut kb = KernelBuilder::new("rbw");
        kb.iadd_imm(Reg(1), Reg(0), 1); // #0 reads R0 (never written: reads 0)
        kb.stg(Reg(1), Reg(1), 0); // #1
        kb.exit(); // #2
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        assert!(lv.live_at_entry().contains(Reg(0)));
        assert!(!lv.live_at_entry().contains(Reg(1)));
    }

    #[test]
    fn shfl_source_reported_cross_lane() {
        let mut kb = KernelBuilder::new("sh");
        kb.mov_imm(Reg(0), 1);
        kb.mov_imm(Reg(1), 0);
        kb.shfl(Reg(2), Reg(0), Reg(1));
        kb.stg(Reg(2), Reg(2), 0);
        kb.exit();
        let k = kb.build().unwrap();
        let lv = Liveness::compute(&k);
        assert!(lv.cross_lane_regs().contains(Reg(0)));
        assert!(!lv.cross_lane_regs().contains(Reg(1)));
    }
}
