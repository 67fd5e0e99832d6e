//! # prf-workloads — the Table I benchmark suite, synthetically reproduced
//!
//! The paper evaluates on 17 benchmarks from Rodinia, Parboil, and the
//! GPGPU-Sim distribution (Table I). The original CUDA binaries cannot run
//! on our Rust simulator, so each benchmark is reproduced as a synthetic
//! kernel that preserves the four properties the paper's results depend
//! on:
//!
//! 1. **Shape** — registers/thread and threads/CTA match Table I exactly
//!    (including the odd CTA sizes: sad's 61, NN's 169, btree's 508).
//! 2. **Access skew** — a small hot-register set receives most dynamic
//!    accesses (Fig. 2's top-3 ≈ 62% average).
//! 3. **Category behaviour** (Fig. 4) — Category 1: static ≈ dynamic;
//!    Category 2: decoy registers fool the compiler while data-dependent
//!    loops make other registers hot; Category 3: the pilot warp is
//!    unrepresentative and slow to finish.
//! 4. **Pilot-runtime ordering** (Table I last column) — negligible for
//!    most, large for MUM/CP, dominant for LIB/WP.
//!
//! See [`suite()`](suite::suite) for the full list and [`recipe::KernelRecipe`] for the
//! generator.
//!
//! # Example
//!
//! ```rust
//! let workloads = prf_workloads::suite();
//! assert_eq!(workloads.len(), 17);
//! let sgemm = prf_workloads::by_name("sgemm").unwrap();
//! assert_eq!(sgemm.regs_per_thread(), 27);
//! ```

pub mod generate;
pub mod recipe;
pub mod spec;
pub mod suite;

pub use generate::{FuzzCase, KernelGenerator, RandomKernelGenerator};
pub use recipe::{KernelRecipe, MemPattern, PilotVariant};
pub use spec::{Category, MemImage, Table1Row, Workload};
pub use suite::{by_name, suite};
