//! Instruction representation: operands, destinations, predication.

use std::fmt;

use crate::op::Opcode;
use crate::reg::{PredReg, Reg, SpecialReg};

/// A source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A general-purpose register read — this is what counts as a
    /// register-file *access* for profiling purposes.
    Reg(Reg),
    /// A 32-bit immediate constant (no RF access).
    Imm(u32),
    /// A read-only special register (no RF access).
    Special(SpecialReg),
}

impl Operand {
    /// Returns the register if this operand reads the register file.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v:#x}"),
            Operand::Special(s) => write!(f, "{s}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// An instruction destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dst {
    /// No destination (stores, branches, barriers…).
    #[default]
    None,
    /// Write a general-purpose register — a register-file *access*.
    Reg(Reg),
    /// Write a predicate register (outside the RF).
    Pred(PredReg),
}

impl Dst {
    /// Returns the general-purpose register written, if any.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Dst::Reg(r) => Some(r),
            _ => None,
        }
    }
}

/// A predicate guard: the instruction executes in a lane only when `pred`
/// holds the value `expected` (i.e. `@P0` or `@!P0` in PTX syntax).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredGuard {
    /// Guarding predicate register.
    pub pred: PredReg,
    /// `true` for `@P`, `false` for `@!P`.
    pub expected: bool,
}

impl fmt::Display for PredGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.expected {
            write!(f, "@{}", self.pred)
        } else {
            write!(f, "@!{}", self.pred)
        }
    }
}

/// A single machine instruction.
///
/// Instructions are stored in a flat `Vec` inside a [`crate::Kernel`]; the
/// program counter is simply an index into that vector. Branch targets are
/// resolved indices (labels exist only in [`crate::KernelBuilder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Destination, if any.
    pub dst: Dst,
    /// Up to three source operands (unused slots are `None`).
    pub srcs: [Option<Operand>; 3],
    /// Optional guard; the instruction is squashed in lanes where the guard
    /// fails.
    pub guard: Option<PredGuard>,
    /// Branch target (instruction index), for `Bra`.
    pub target: Option<usize>,
    /// Address-offset immediate for memory ops (byte offset).
    pub mem_offset: u32,
}

impl Instruction {
    /// Creates an instruction with the given opcode and no operands.
    pub fn new(opcode: Opcode) -> Self {
        Instruction {
            opcode,
            dst: Dst::None,
            srcs: [None, None, None],
            guard: None,
            target: None,
            mem_offset: 0,
        }
    }

    /// Sets the destination register (builder style).
    pub fn with_dst(mut self, dst: Dst) -> Self {
        self.dst = dst;
        self
    }

    /// Sets the source operands (builder style).
    pub fn with_srcs(mut self, srcs: &[Operand]) -> Self {
        assert!(srcs.len() <= 3, "at most 3 source operands");
        for (slot, s) in self.srcs.iter_mut().zip(srcs.iter()) {
            *slot = Some(*s);
        }
        self
    }

    /// Sets the predicate guard (builder style).
    pub fn with_guard(mut self, guard: PredGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Sets the branch target (builder style).
    pub fn with_target(mut self, target: usize) -> Self {
        self.target = Some(target);
        self
    }

    /// Iterates over the general-purpose registers *read* by this
    /// instruction (the RF read accesses).
    pub fn reg_reads(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().filter_map(|op| op.as_reg())
    }

    /// Returns the general-purpose register *written*, if any (the RF write
    /// access).
    pub fn reg_write(&self) -> Option<Reg> {
        self.dst.as_reg()
    }

    /// Number of distinct source-operand RF reads, as seen by the operand
    /// collector (duplicate registers still require one collector slot each).
    pub fn num_reg_src_operands(&self) -> usize {
        self.reg_reads().count()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.guard {
            write!(f, "{g} ")?;
        }
        write!(f, "{}", self.opcode)?;
        // Memory ops render their address in assembler syntax (`[Rn]` /
        // `[Rn + off]`) so that `Display` output — including the byte
        // offset, which the generic rendering below would lose — parses
        // back through `asm::parse_kernel`. Malformed hand-built
        // instructions fall through to the generic form.
        if let (Opcode::Ldg | Opcode::Lds, Dst::Reg(d), Some(Operand::Reg(a))) =
            (self.opcode, self.dst, self.srcs[0])
        {
            write!(f, " {d}, [{a}")?;
            if self.mem_offset != 0 {
                write!(f, " + {}", self.mem_offset)?;
            }
            return write!(f, "]");
        }
        if let (Opcode::Stg | Opcode::Sts, Some(Operand::Reg(a)), Some(v)) =
            (self.opcode, self.srcs[0], self.srcs[1])
        {
            write!(f, " [{a}")?;
            if self.mem_offset != 0 {
                write!(f, " + {}", self.mem_offset)?;
            }
            return write!(f, "], {v}");
        }
        match self.dst {
            Dst::None => {}
            Dst::Reg(r) => write!(f, " {r}")?,
            Dst::Pred(p) => write!(f, " {p}")?,
        }
        for s in self.srcs.iter().flatten() {
            write!(f, ", {s}")?;
        }
        if let Some(t) = self.target {
            write!(f, " -> #{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;

    fn iadd(dst: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(Opcode::IAdd)
            .with_dst(Dst::Reg(Reg(dst)))
            .with_srcs(&[Operand::Reg(Reg(a)), Operand::Reg(Reg(b))])
    }

    #[test]
    fn reg_reads_skips_imm_and_special() {
        let i = Instruction::new(Opcode::IAdd)
            .with_dst(Dst::Reg(Reg(2)))
            .with_srcs(&[Operand::Reg(Reg(1)), Operand::Imm(7)]);
        let reads: Vec<_> = i.reg_reads().collect();
        assert_eq!(reads, vec![Reg(1)]);
    }

    #[test]
    fn rf_access_count_counts_duplicates() {
        // R1 + R1 -> R1 reads R1 twice: each occurrence takes its own
        // collector slot, like the paper's occurrence counting.
        let i = iadd(1, 1, 1);
        assert_eq!(i.num_reg_src_operands(), 2);
    }

    #[test]
    fn store_has_no_write() {
        let st =
            Instruction::new(Opcode::Stg).with_srcs(&[Operand::Reg(Reg(0)), Operand::Reg(Reg(1))]);
        assert_eq!(st.reg_write(), None);
    }

    #[test]
    fn pred_dst_is_not_rf_write() {
        let setp = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_dst(Dst::Pred(PredReg(0)))
            .with_srcs(&[Operand::Reg(Reg(3)), Operand::Imm(10)]);
        assert_eq!(setp.reg_write(), None);
    }

    #[test]
    fn display_renders_guard_and_target() {
        let bra = Instruction::new(Opcode::Bra)
            .with_guard(PredGuard {
                pred: PredReg(0),
                expected: false,
            })
            .with_target(5);
        let s = bra.to_string();
        assert!(s.contains("@!P0"), "{s}");
        assert!(s.contains("-> #5"), "{s}");
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn too_many_srcs_panics() {
        let _ = Instruction::new(Opcode::IAdd).with_srcs(&[
            Operand::Imm(0),
            Operand::Imm(1),
            Operand::Imm(2),
            Operand::Imm(3),
        ]);
    }
}
