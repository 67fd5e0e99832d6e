//! # pilot-rf — meta-crate for the Pilot Register File reproduction
//!
//! Re-exports the workspace crates under one roof and hosts the top-level
//! `examples/` and cross-crate integration `tests/`:
//!
//! * [`isa`] — PTX-like instruction set, kernels, CFG/IPDOM analysis,
//! * [`sim`] — cycle-level Kepler-like SM simulator,
//! * [`finfet`] — 7 nm FinFET device / SRAM / array models,
//! * [`core`] — the partitioned register file itself (swapping table,
//!   compiler/pilot/hybrid profiling, adaptive FRF, RFC baseline, energy),
//! * [`workloads`] — the 17-benchmark Table I suite.
//!
//! See the repository `README.md` for a guided tour and `DESIGN.md` for
//! the paper-to-code map.
//!
//! # Example
//!
//! ```rust
//! use pilot_rf::core::{run_experiment, Launch, PartitionedRfConfig, RfKind};
//! use pilot_rf::isa::{GridConfig, KernelBuilder, Reg, SpecialReg};
//! use pilot_rf::sim::GpuConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kb = KernelBuilder::new("hello");
//! kb.mov_special(Reg(0), SpecialReg::GlobalTid);
//! kb.iadd_imm(Reg(1), Reg(0), 41);
//! kb.stg(Reg(0), Reg(1), 0);
//! kb.exit();
//!
//! let gpu = GpuConfig::kepler_single_sm();
//! let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
//! let result = run_experiment(
//!     &gpu,
//!     &rf,
//!     &[Launch::new(kb.build()?, GridConfig::new(2, 64))],
//!     &[],
//! )?;
//! println!("saved {:.1}% dynamic RF energy", 100.0 * result.dynamic_saving());
//! # Ok(())
//! # }
//! ```

pub use prf_core as core;
pub use prf_finfet as finfet;
pub use prf_isa as isa;
pub use prf_sim as sim;
pub use prf_workloads as workloads;
