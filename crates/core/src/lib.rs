//! # prf-core — the Pilot Register File
//!
//! The primary contribution of *"Pilot Register File: Energy Efficient
//! Partitioned Register File for GPUs"* (HPCA 2017), reproduced in Rust:
//!
//! * [`SwappingTable`] — the 2n-entry CAM that remaps hot architected
//!   registers into the fast RF partition (§III-B),
//! * [`profile`] — compiler-based, pilot-warp, and hybrid hot-register
//!   profiling (§III-A), including the per-SM 63×2-byte counter hardware,
//! * [`PartitionedRf`] — the FRF/SRF register-file model plugged into the
//!   `prf-sim` pipeline (§III/§IV),
//! * [`AdaptiveFrf`] — the epoch-based phase detector driving the FinFET
//!   back-gate mode signal (§IV-C),
//! * [`RfcModel`] — the register-file-cache baseline (Gebhart et al.,
//!   ISCA 2011) used in the §V-D comparison,
//! * [`energy`] — dynamic + leakage energy accounting on top of the
//!   FinCACTI-like array model (§V-B),
//! * [`FaultedRf`] — variation-aware fault injection over any RF model,
//!   repairing stuck/weak rows by spare-row remap, disable-and-spill, or
//!   Vdd escalation, with the premium charged into the energy accounts,
//! * [`experiment`] — one-call experiment driver producing performance and
//!   energy for any workload × RF-organisation pair.
//!
//! # Example
//!
//! ```rust
//! use prf_core::{run_experiment, Launch, PartitionedRfConfig, RfKind};
//! use prf_isa::{GridConfig, KernelBuilder, Reg, SpecialReg};
//! use prf_sim::GpuConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kb = KernelBuilder::new("demo");
//! kb.mov_special(Reg(0), SpecialReg::GlobalTid);
//! kb.iadd_imm(Reg(1), Reg(0), 1);
//! kb.stg(Reg(0), Reg(1), 0);
//! kb.exit();
//! let launches = [Launch::new(kb.build()?, GridConfig::new(4, 64))];
//!
//! let gpu = GpuConfig::kepler_single_sm();
//! let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
//! let result = run_experiment(&gpu, &rf, &launches, &[])?;
//! assert!(result.dynamic_energy_pj > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod chip;
pub mod drowsy;
pub mod energy;
pub mod experiment;
pub mod faults;
pub mod gating;
pub mod indexed_table;
pub mod partitioned;
pub mod profile;
pub mod rfc;
pub mod swap_table;
pub mod telemetry;

pub use adaptive::{AdaptiveFrf, AdaptiveFrfConfig, FrfMode};
pub use chip::{ChipProfile, EnergyDelay};
pub use drowsy::{DrowsyConfig, DrowsyRf};
pub use energy::{EnergyModel, LeakageModel, GPU_CLOCK_GHZ};
pub use experiment::{
    faulted_rf_model_factory, rf_model_factory, run_experiment, run_experiment_with_faults,
    validate_experiment_inputs, ExperimentResult, Launch, PhaseTimings, RfKind,
};
pub use faults::{FaultConfig, FaultedRf, RepairCosts, RepairPolicy, SpareRemapTable};
pub use gating::PowerGatingModel;
pub use indexed_table::IndexedSwapTable;
pub use partitioned::{PartitionedRf, PartitionedRfConfig};
pub use profile::{compiler_hot_registers, PilotProfiler, ProfilingStrategy};
pub use rfc::{RfcConfig, RfcModel};
pub use swap_table::SwappingTable;
pub use telemetry::{shared_telemetry, RfTelemetry, SharedTelemetry};
