//! Per-warp scoreboard: tracks registers and predicates with in-flight
//! writes so dependent instructions stall at issue.

use prf_isa::{Instruction, PredReg, Reg, MAX_ARCH_REGS, NUM_PRED_REGS};

/// The scoreboard-visible footprint of one instruction, decoded once per
/// launch (see [`crate::KernelImage`]) so the per-cycle issue checks test
/// one AND per warp instead of walking the operand list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrHazard {
    /// Registers read or written, one bit per architected register.
    pub regs: u64,
    /// The destination predicate and the guard predicate.
    pub preds: u8,
    /// The instruction reads or writes a register, so it occupies an
    /// operand-collector unit.
    pub needs_collector: bool,
}

/// Decodes `instr`'s [`InstrHazard`]. [`Scoreboard::blocked_by`] on the
/// result equals [`Scoreboard::blocked`] on the instruction.
pub fn hazard_of(instr: &Instruction) -> InstrHazard {
    let mut h = InstrHazard::default();
    for r in instr.reg_reads().chain(instr.reg_write()) {
        h.regs |= 1u64 << r.index();
    }
    if let prf_isa::Dst::Pred(p) = instr.dst {
        h.preds |= 1u8 << p.index();
    }
    if let Some(g) = &instr.guard {
        h.preds |= 1u8 << g.pred.index();
    }
    h.needs_collector = instr.num_reg_src_operands() > 0 || instr.reg_write().is_some();
    h
}

/// Scoreboard for one warp.
///
/// A bit per architected register and predicate. An instruction may issue
/// only when none of its sources or destinations collide with a pending
/// write (RAW and WAW hazards; WAR is safe because operands are captured by
/// the operand collector at issue order).
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    reg_pending: u64,
    pred_pending: u8,
}

impl Scoreboard {
    /// New, empty scoreboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the instruction's operands collide with a pending write.
    /// This operand walk is the reference form; the SM's per-cycle checks
    /// use [`Scoreboard::blocked_by`] on the pre-decoded footprint.
    pub fn blocked(&self, instr: &Instruction) -> bool {
        for r in instr.reg_reads() {
            if self.reg_pending & (1u64 << r.index()) != 0 {
                return true;
            }
        }
        if let Some(r) = instr.reg_write() {
            if self.reg_pending & (1u64 << r.index()) != 0 {
                return true;
            }
        }
        if let prf_isa::Dst::Pred(p) = instr.dst {
            if self.pred_pending & (1u8 << p.index()) != 0 {
                return true;
            }
        }
        if let Some(g) = &instr.guard {
            if self.pred_pending & (1u8 << g.pred.index()) != 0 {
                return true;
            }
        }
        false
    }

    /// True if a pre-decoded footprint collides with a pending write: the
    /// one-AND form of [`Scoreboard::blocked`].
    pub fn blocked_by(&self, hazard: &InstrHazard) -> bool {
        self.reg_pending & hazard.regs != 0 || self.pred_pending & hazard.preds != 0
    }

    /// Reserves the instruction's destinations at issue.
    pub fn reserve(&mut self, instr: &Instruction) {
        let pred = match instr.dst {
            prf_isa::Dst::Pred(p) => Some(p),
            _ => None,
        };
        self.reserve_dst(instr.reg_write(), pred);
    }

    /// Reserves a pre-decoded destination register and predicate: the form
    /// of [`Scoreboard::reserve`] the SM's issue path uses.
    pub fn reserve_dst(&mut self, reg: Option<Reg>, pred: Option<PredReg>) {
        if let Some(r) = reg {
            self.reg_pending |= 1u64 << r.index();
        }
        if let Some(p) = pred {
            self.pred_pending |= 1u8 << p.index();
        }
    }

    /// Releases a register at writeback.
    pub fn release_reg(&mut self, reg: Reg) {
        debug_assert!(reg.index() < MAX_ARCH_REGS);
        self.reg_pending &= !(1u64 << reg.index());
    }

    /// Releases a predicate at writeback.
    pub fn release_pred(&mut self, pred: PredReg) {
        debug_assert!(pred.index() < NUM_PRED_REGS);
        self.pred_pending &= !(1u8 << pred.index());
    }

    /// True when no writes are outstanding.
    pub fn is_clear(&self) -> bool {
        self.reg_pending == 0 && self.pred_pending == 0
    }

    /// Number of pending register + predicate writes (audit diagnostics).
    pub fn pending_count(&self) -> u32 {
        self.reg_pending.count_ones() + self.pred_pending.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::{CmpOp, Dst, Opcode, Operand, PredGuard};

    fn iadd(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(Opcode::IAdd)
            .with_dst(Dst::Reg(Reg(dst)))
            .with_srcs(&[Operand::Reg(Reg(a)), Operand::Reg(Reg(b))])
    }

    #[test]
    fn raw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let producer = iadd(1, 2, 3);
        sb.reserve(&producer);
        let consumer = iadd(4, 1, 5);
        assert!(sb.blocked(&consumer));
        sb.release_reg(Reg(1));
        assert!(!sb.blocked(&consumer));
        assert!(sb.is_clear());
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        sb.reserve(&iadd(1, 2, 3));
        let second_writer = iadd(1, 6, 7);
        assert!(sb.blocked(&second_writer));
    }

    #[test]
    fn independent_instruction_not_blocked() {
        let mut sb = Scoreboard::new();
        sb.reserve(&iadd(1, 2, 3));
        assert!(!sb.blocked(&iadd(4, 5, 6)));
    }

    #[test]
    fn predicate_hazards() {
        let mut sb = Scoreboard::new();
        let setp = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_dst(Dst::Pred(PredReg(0)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Imm(10)]);
        sb.reserve(&setp);
        // A guarded branch on P0 must wait.
        let bra = Instruction::new(Opcode::Bra)
            .with_guard(PredGuard {
                pred: PredReg(0),
                expected: true,
            })
            .with_target(0);
        assert!(sb.blocked(&bra));
        // A branch on P1 is free.
        let bra2 = Instruction::new(Opcode::Bra)
            .with_guard(PredGuard {
                pred: PredReg(1),
                expected: true,
            })
            .with_target(0);
        assert!(!sb.blocked(&bra2));
        sb.release_pred(PredReg(0));
        assert!(!sb.blocked(&bra));
        assert!(sb.is_clear());
    }

    /// Builds an instruction from raw draws: any opcode shape, register /
    /// immediate / special / absent sources, any destination kind and an
    /// optional guard.
    fn instr_from(op: u8, dst: (u8, u8), srcs: [(u8, u8); 3], guard: (u8, u8)) -> Instruction {
        const OPS: [Opcode; 9] = [
            Opcode::IAdd,
            Opcode::FFma,
            Opcode::Setp(CmpOp::Lt),
            Opcode::Selp,
            Opcode::Ldg,
            Opcode::Stg,
            Opcode::Shfl,
            Opcode::Bra,
            Opcode::Nop,
        ];
        let mut i = Instruction::new(OPS[op as usize % OPS.len()]);
        i.dst = match dst.0 % 3 {
            0 => Dst::None,
            1 => Dst::Reg(Reg(dst.1 % MAX_ARCH_REGS as u8)),
            _ => Dst::Pred(PredReg(dst.1 % NUM_PRED_REGS as u8)),
        };
        for (slot, (kind, v)) in i.srcs.iter_mut().zip(srcs) {
            *slot = match kind % 4 {
                0 => None,
                1 => Some(Operand::Reg(Reg(v % MAX_ARCH_REGS as u8))),
                2 => Some(Operand::Imm(u32::from(v))),
                _ => Some(Operand::Special(prf_isa::SpecialReg::LaneId)),
            };
        }
        if guard.0 % 2 == 1 {
            i.guard = Some(PredGuard {
                pred: PredReg(guard.1 % NUM_PRED_REGS as u8),
                expected: guard.1 & 0x80 != 0,
            });
        }
        i
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The pre-decoded one-AND check agrees with the operand walk on
        /// every instruction shape and pending set.
        #[test]
        fn blocked_by_hazard_equals_blocked(
            op in 0u8..9,
            dst in (0u8..3, 0u8..255),
            s0 in (0u8..4, 0u8..255),
            s1 in (0u8..4, 0u8..255),
            s2 in (0u8..4, 0u8..255),
            guard in (0u8..2, 0u8..255),
            pending_regs in proptest::collection::vec(0u8..63, 0..4),
            pending_preds in proptest::collection::vec(0u8..4, 0..2),
        ) {
            let instr = instr_from(op, dst, [s0, s1, s2], guard);
            let mut sb = Scoreboard::new();
            for r in pending_regs {
                sb.reg_pending |= 1u64 << r;
            }
            for p in pending_preds {
                sb.pred_pending |= 1u8 << p;
            }
            let h = hazard_of(&instr);
            proptest::prop_assert_eq!(sb.blocked_by(&h), sb.blocked(&instr), "{}", instr);
        }
    }

    #[test]
    fn setp_waw_blocks() {
        let mut sb = Scoreboard::new();
        let setp = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_dst(Dst::Pred(PredReg(2)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Imm(1)]);
        sb.reserve(&setp);
        assert!(sb.blocked(&setp));
    }
}
