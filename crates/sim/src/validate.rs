//! Input validation for simulation runs: configuration, kernel, and launch
//! geometry checks performed before any machine state is built.
//!
//! Everything a caller hands to [`Gpu::run`](crate::Gpu::run) —
//! configuration, kernel, launch geometry — is checked here first, so
//! malformed input surfaces as a typed [`ValidationError`] (wrapped in
//! [`SimError::Invalid`](crate::SimError)) instead of a panic inside the
//! cycle loop or a silent spin to the cycle limit. Panics that remain in
//! the simulator proper are *internal invariants* (conservation properties
//! the audit layer cross-checks), not input errors.

use std::fmt;

use prf_isa::{GridConfig, Kernel, KernelValidator};

use crate::config::GpuConfig;

/// A rejected simulation input, with the layer that rejected it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A [`GpuConfig`] field is unusable.
    Config {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The kernel failed semantic validation (see
    /// [`prf_isa::ValidationError`] for the instruction-level provenance).
    Kernel {
        /// Name of the rejected kernel.
        kernel: String,
        /// The instruction-level error.
        source: prf_isa::ValidationError,
    },
    /// The kernel is individually valid but the launch can never make
    /// progress on this machine (a CTA that can never be dispatched would
    /// otherwise spin silently to the cycle limit).
    Launch {
        /// Name of the rejected kernel.
        kernel: String,
        /// Why the launch is impossible.
        reason: String,
    },
    /// A fault-injection configuration is unusable (checked by the
    /// experiment layer, which owns the fault model).
    Fault {
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::Config { field, reason } => {
                write!(f, "invalid config: {field}: {reason}")
            }
            ValidationError::Kernel { kernel, source } => {
                write!(f, "invalid kernel `{kernel}`: {source}")
            }
            ValidationError::Launch { kernel, reason } => {
                write!(f, "impossible launch of `{kernel}`: {reason}")
            }
            ValidationError::Fault { reason } => write!(f, "invalid fault config: {reason}"),
        }
    }
}

impl std::error::Error for ValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidationError::Kernel { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The longest execution-pipe latency [`check_config`] accepts. The SM
/// sizes its completion ring from the longest pipe latency, so a bound
/// keeps an absurd value from sizing it.
pub const MAX_PIPE_LATENCY: u32 = 1024;

/// The most operand-collector units [`check_config`] accepts: the
/// collector keeps its vacant and gathered units as bits of a `u64`.
pub const MAX_COLLECTORS: usize = 64;

/// The most register-file banks [`check_config`] accepts: the collector's
/// arbiter keeps the banks granted in a cycle as bits of a `u64`.
pub const MAX_RF_BANKS: usize = 64;

fn config_err(field: &'static str, reason: impl Into<String>) -> ValidationError {
    ValidationError::Config {
        field,
        reason: reason.into(),
    }
}

/// Checks a [`GpuConfig`] for structural usability, returning the first
/// offending field. [`GpuConfig::validate`] is the panicking wrapper.
pub fn check_config(config: &GpuConfig) -> Result<(), ValidationError> {
    let positive: [(&'static str, usize); 8] = [
        ("num_sms", config.num_sms),
        ("max_warps_per_sm", config.max_warps_per_sm),
        ("max_ctas_per_sm", config.max_ctas_per_sm),
        ("num_schedulers", config.num_schedulers),
        ("issue_per_scheduler", config.issue_per_scheduler),
        ("num_rf_banks", config.num_rf_banks),
        ("num_collectors", config.num_collectors),
        ("rf_registers", config.rf_registers),
    ];
    for (field, value) in positive {
        if value == 0 {
            return Err(config_err(field, "must be at least 1"));
        }
    }
    if !config.global_mem_words.is_power_of_two() {
        return Err(config_err(
            "global_mem_words",
            format!(
                "{} words: global memory must be a power of two for address wrapping",
                config.global_mem_words
            ),
        ));
    }
    if config.max_cycles == 0 {
        return Err(config_err("max_cycles", "must be at least 1"));
    }
    if config.sm_threads != 1 {
        return Err(config_err(
            "sm_threads",
            format!("{}: must be 1 (SMs step on one thread)", config.sm_threads),
        ));
    }
    let widths = [
        ("num_collectors", config.num_collectors, MAX_COLLECTORS),
        ("num_rf_banks", config.num_rf_banks, MAX_RF_BANKS),
    ];
    for (field, value, max) in widths {
        if value > max {
            return Err(config_err(field, format!("{value}: at most {max}")));
        }
    }
    let pipes = [
        ("alu_latency", config.alu_latency),
        ("fp_latency", config.fp_latency),
        ("sfu_latency", config.sfu_latency),
    ];
    for (field, latency) in pipes {
        if latency > MAX_PIPE_LATENCY {
            return Err(config_err(
                field,
                format!("{latency} cycles: at most {MAX_PIPE_LATENCY}"),
            ));
        }
    }
    Ok(())
}

/// Checks that a kernel + grid can actually run on `config`: the kernel
/// passes semantic validation (with the machine's shared-memory bound) and
/// at least one CTA of the launch fits on an SM.
pub fn check_launch(
    config: &GpuConfig,
    kernel: &Kernel,
    grid: GridConfig,
) -> Result<(), ValidationError> {
    KernelValidator::new()
        .with_shared_mem_words(config.shared_mem_words.min(u32::MAX as usize) as u32)
        .validate(kernel)
        .map_err(|source| ValidationError::Kernel {
            kernel: kernel.name().to_string(),
            source,
        })?;

    let launch_err = |reason: String| ValidationError::Launch {
        kernel: kernel.name().to_string(),
        reason,
    };
    if grid.num_ctas == 0 {
        return Err(launch_err("grid has zero CTAs".into()));
    }
    if grid.threads_per_cta == 0 {
        return Err(launch_err("CTA has zero threads".into()));
    }
    let warps_per_cta = grid.warps_per_cta() as usize;
    if warps_per_cta > config.max_warps_per_sm {
        return Err(launch_err(format!(
            "a CTA needs {warps_per_cta} warps but the SM has only {} warp slots",
            config.max_warps_per_sm
        )));
    }
    // Mirrors Sm::try_dispatch_cta's register-capacity gate: a CTA whose
    // register demand exceeds the whole RF never dispatches, and the run
    // would otherwise spin to the cycle limit.
    let regs = kernel.regs_per_thread().max(1) as usize;
    let regs_per_cta = warps_per_cta * 32 * regs;
    if regs_per_cta > config.rf_registers {
        return Err(launch_err(format!(
            "a CTA needs {regs_per_cta} registers ({warps_per_cta} warps x 32 lanes x {regs} \
             regs/thread) but the register file holds {}",
            config.rf_registers
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::{KernelBuilder, Reg};

    fn tiny_kernel(regs: u8) -> Kernel {
        let mut kb = KernelBuilder::new("tiny");
        for r in 0..regs {
            kb.mov_imm(Reg(r), 1);
        }
        kb.exit();
        kb.build().unwrap()
    }

    #[test]
    fn default_configs_check_clean() {
        assert_eq!(check_config(&GpuConfig::kepler_gtx780()), Ok(()));
        assert_eq!(check_config(&GpuConfig::kepler_single_sm()), Ok(()));
    }

    #[test]
    fn zero_fields_rejected_by_name() {
        let cfg = GpuConfig {
            num_rf_banks: 0,
            ..GpuConfig::kepler_single_sm()
        };
        let err = check_config(&cfg).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::Config {
                field: "num_rf_banks",
                ..
            }
        ));
        assert!(err.to_string().contains("num_rf_banks"));
    }

    #[test]
    fn sm_threads_other_than_one_rejected_by_name() {
        for sm_threads in [0, 2] {
            let cfg = GpuConfig {
                sm_threads,
                ..GpuConfig::kepler_gtx780()
            };
            let err = check_config(&cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    ValidationError::Config {
                        field: "sm_threads",
                        ..
                    }
                ),
                "{err}"
            );
            assert!(err.to_string().contains("sm_threads"), "{err}");
        }
        let one = GpuConfig {
            sm_threads: 1,
            ..GpuConfig::kepler_gtx780()
        };
        assert_eq!(check_config(&one), Ok(()));
    }

    #[test]
    fn non_pow2_memory_rejected() {
        let cfg = GpuConfig {
            global_mem_words: 1000,
            ..GpuConfig::kepler_single_sm()
        };
        let err = check_config(&cfg).unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
    }

    #[test]
    fn pipe_latency_above_the_bound_rejected_by_name() {
        let at_bound = GpuConfig {
            alu_latency: 0,
            fp_latency: MAX_PIPE_LATENCY,
            sfu_latency: MAX_PIPE_LATENCY,
            ..GpuConfig::kepler_single_sm()
        };
        assert_eq!(check_config(&at_bound), Ok(()));
        for field in ["alu_latency", "fp_latency", "sfu_latency"] {
            let mut cfg = GpuConfig::kepler_single_sm();
            let latency = match field {
                "alu_latency" => &mut cfg.alu_latency,
                "fp_latency" => &mut cfg.fp_latency,
                _ => &mut cfg.sfu_latency,
            };
            *latency = MAX_PIPE_LATENCY + 1;
            let err = check_config(&cfg).unwrap_err();
            assert!(
                matches!(err, ValidationError::Config { field: f, .. } if f == field),
                "{err:?}"
            );
            assert!(err.to_string().contains("at most 1024"), "{err}");
        }
        let absurd = GpuConfig {
            sfu_latency: u32::MAX,
            ..GpuConfig::kepler_single_sm()
        };
        assert!(crate::Gpu::try_new(absurd).is_err());
    }

    #[test]
    fn more_collectors_than_the_mask_holds_rejected_by_name() {
        let at_bound = GpuConfig {
            num_collectors: MAX_COLLECTORS,
            ..GpuConfig::kepler_single_sm()
        };
        assert_eq!(check_config(&at_bound), Ok(()));
        let cfg = GpuConfig {
            num_collectors: MAX_COLLECTORS + 1,
            ..GpuConfig::kepler_single_sm()
        };
        let err = check_config(&cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Config {
                    field: "num_collectors",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("65: at most 64"), "{err}");
        assert!(crate::Gpu::try_new(cfg).is_err());
    }

    #[test]
    fn more_banks_than_the_mask_holds_rejected_by_name() {
        let at_bound = GpuConfig {
            num_rf_banks: MAX_RF_BANKS,
            ..GpuConfig::kepler_single_sm()
        };
        assert_eq!(check_config(&at_bound), Ok(()));
        let cfg = GpuConfig {
            num_rf_banks: MAX_RF_BANKS + 1,
            ..GpuConfig::kepler_single_sm()
        };
        let err = check_config(&cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Config {
                    field: "num_rf_banks",
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("65: at most 64"), "{err}");
        assert!(crate::Gpu::try_new(cfg).is_err());
    }

    #[test]
    fn launch_that_fits_checks_clean() {
        let cfg = GpuConfig::kepler_single_sm();
        assert_eq!(
            check_launch(&cfg, &tiny_kernel(8), GridConfig::new(4, 64)),
            Ok(())
        );
    }

    #[test]
    fn oversized_cta_rejected_as_impossible_launch() {
        let cfg = GpuConfig {
            rf_registers: 64,
            ..GpuConfig::kepler_single_sm()
        };
        let err = check_launch(&cfg, &tiny_kernel(8), GridConfig::new(1, 64)).unwrap_err();
        match &err {
            ValidationError::Launch { kernel, reason } => {
                assert_eq!(kernel, "tiny");
                assert!(reason.contains("register file"), "{reason}");
            }
            other => panic!("expected Launch, got {other:?}"),
        }
    }

    #[test]
    fn cta_wider_than_warp_slots_rejected() {
        let cfg = GpuConfig {
            max_warps_per_sm: 2,
            ..GpuConfig::kepler_single_sm()
        };
        let err = check_launch(&cfg, &tiny_kernel(2), GridConfig::new(1, 256)).unwrap_err();
        assert!(err.to_string().contains("warp slots"), "{err}");
    }

    #[test]
    fn invalid_kernel_carries_instruction_provenance() {
        use prf_isa::{Instruction, Opcode};
        let mut kb = KernelBuilder::new("hostile");
        kb.push(Instruction::new(Opcode::Bra)); // no target
        kb.exit();
        let k = kb.build().unwrap();
        let err =
            check_launch(&GpuConfig::kepler_single_sm(), &k, GridConfig::new(1, 32)).unwrap_err();
        assert!(err.to_string().contains("instr 0"), "{err}");
        assert!(err.to_string().contains("hostile"), "{err}");
    }
}
