//! # prf-sim — cycle-level Kepler-like GPU SM simulator
//!
//! A from-scratch Rust stand-in for GPGPU-Sim v3.02, modelling the
//! microarchitectural mechanisms that the Pilot Register File paper
//! (HPCA 2017) depends on:
//!
//! * 4 warp schedulers × 2-issue per SM (GTO, LRR, two-level, fetch-group),
//! * SIMT divergence with IPDOM reconvergence stacks,
//! * per-warp scoreboards,
//! * 24 operand collectors competing for 24 register-file banks through an
//!   arbiter, where each access occupies its bank for the latency chosen by
//!   a pluggable [`RegisterFileModel`] — this is how 1-cycle FRF vs 3-cycle
//!   SRF accesses turn into real pipeline pressure,
//! * a load/store unit with warp-level coalescing and a small L1,
//! * CTA dispatch over multiple SMs sharing functional global memory.
//!
//! Execution is *functional-first*: register values are real and branches
//! are data-dependent, so dynamic register-access counts (the paper's
//! Fig. 2) emerge from actual execution rather than from synthetic traces.
//!
//! The entry point is [`Gpu::run`]; see its example.

pub mod audit;
pub mod collector;
pub mod config;
pub mod exec;
pub mod gpu;
pub mod mem;
mod observer;
pub mod occupancy;
pub mod rf;
pub mod sampling;
pub mod scheduler;
pub mod scoreboard;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod validate;
pub mod warp;

pub use audit::{AuditReport, AuditViolation};
pub use config::{GpuConfig, SchedulerPolicy};
pub use gpu::{Gpu, SimError};
pub use mem::{GlobalMemory, GmemView, SharedMemory};
pub use observer::Observation;
pub use occupancy::{Occupancy, OccupancyLimiter};
pub use rf::{
    AccessKind, BaselineRf, RegisterFileModel, RepairKind, ResolvedAccess, RfPartition,
    RfTelemetry, WarpLifecycle,
};
pub use sampling::{SampleSeries, SampleWindow, SamplingConfig};
pub use sm::{KernelImage, Sm};
pub use stats::{PartitionAccessCounts, RegisterAccessHistogram, SimResult, SmStats};
pub use trace::{normalize_trace, TraceEvent};
pub use validate::{check_config, check_launch, ValidationError};
pub use warp::{SimtStack, WarpContext};
