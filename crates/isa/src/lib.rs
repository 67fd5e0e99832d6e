//! # prf-isa — GPU instruction set and kernel model
//!
//! This crate defines the PTX-like instruction set, kernel representation,
//! grid/CTA/warp geometry, and static analyses used by the Pilot Register
//! File reproduction (HPCA 2017).
//!
//! The paper evaluates register-file microarchitecture on GPGPU-Sim, which
//! executes PTX. We reproduce the properties that matter for a register-file
//! study:
//!
//! * every instruction names architected registers ([`Reg`], at most
//!   [`MAX_ARCH_REGS`] = 63 per thread, as in the paper's §III-B),
//! * kernels have real control flow (loops, data-dependent branches) so that
//!   *static* register-occurrence counts can diverge from *dynamic* access
//!   counts — the effect that motivates pilot-warp profiling,
//! * branch divergence is handled with immediate-post-dominator (IPDOM)
//!   reconvergence, computed here by [`cfg::ReconvergenceTable`].
//!
//! # Example
//!
//! ```rust
//! use prf_isa::{KernelBuilder, Reg, SpecialReg};
//!
//! # fn main() -> Result<(), prf_isa::KernelError> {
//! let mut kb = KernelBuilder::new("axpy");
//! kb.mov_special(Reg(0), SpecialReg::TidX);
//! kb.mov_imm(Reg(1), 100);
//! kb.iadd(Reg(2), Reg(0), Reg(1));
//! kb.exit();
//! let kernel = kb.build()?;
//! assert_eq!(kernel.regs_per_thread(), 3);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod asm;
pub mod cfg;
pub mod encode;
pub mod grid;
pub mod instr;
pub mod kernel;
pub mod liveness;
pub mod op;
pub mod realloc;
pub mod reg;
pub mod validate;

pub use analysis::StaticRegisterProfile;
pub use asm::{parse_kernel, ParseError};
pub use cfg::ReconvergenceTable;
pub use encode::{decode_kernel, encode_kernel, CodecError};
pub use grid::{CtaId, Dim3, GridConfig, ThreadCoord, WARP_SIZE};
pub use instr::{Dst, Instruction, Operand, PredGuard};
pub use kernel::{Kernel, KernelBuilder, KernelError, Label};
pub use liveness::{Liveness, RegSet};
pub use op::{CmpOp, ExecClass, Opcode};
pub use realloc::{reallocate, Realloc};
pub use reg::{PredReg, Reg, SpecialReg, MAX_ARCH_REGS, NUM_PRED_REGS};
pub use validate::{validate_kernel, KernelValidator, ValidationError};
