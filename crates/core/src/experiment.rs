//! High-level experiment driver: run a workload (one or more kernel
//! launches) under a chosen register-file organisation and report
//! performance plus energy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use prf_finfet::array::ArraySpec;
use prf_isa::{GridConfig, Kernel};
use prf_sim::rf::{RegisterFileModel, RepairKind};
use prf_sim::{AuditReport, BaselineRf, Gpu, GpuConfig, SimError, SimResult, SmStats};

use crate::drowsy::{DrowsyConfig, DrowsyRf};
use crate::energy::{EnergyModel, LeakageModel};
use crate::faults::{FaultConfig, FaultedRf, RepairCosts, RepairPolicy};
use crate::partitioned::{PartitionedRf, PartitionedRfConfig};
use crate::rfc::{RfcConfig, RfcModel};
use crate::telemetry::{RfTelemetry, SharedTelemetry};

/// The register-file organisation under test.
#[derive(Debug, Clone, PartialEq)]
pub enum RfKind {
    /// Monolithic MRF at STV — the power-aggressive performance baseline.
    MrfStv,
    /// Monolithic MRF at NTV with the given access latency (3 in the
    /// paper; the energy-aggressive baseline with 7.1% slowdown).
    MrfNtv {
        /// Access latency in cycles.
        latency: u32,
    },
    /// The paper's partitioned register file.
    Partitioned(PartitionedRfConfig),
    /// The RFC baseline of §V-D.
    Rfc(RfcConfig),
    /// The drowsy-register baseline from related work (ref. \[4\], HPCA 2013).
    Drowsy(DrowsyConfig),
}

impl RfKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            RfKind::MrfStv => "MRF@STV",
            RfKind::MrfNtv { .. } => "MRF@NTV",
            RfKind::Partitioned(_) => "partitioned",
            RfKind::Rfc(_) => "RFC",
            RfKind::Drowsy(_) => "drowsy",
        }
    }
}

/// One kernel launch of a workload.
///
/// The kernel is reference-counted so a `Launch` can be cloned — and whole
/// workloads fanned out across worker threads — without deep-copying the
/// instruction stream.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The kernel.
    pub kernel: Arc<Kernel>,
    /// Its launch geometry.
    pub grid: GridConfig,
}

impl Launch {
    /// Wraps a kernel (owned or already `Arc`ed) with its launch geometry.
    pub fn new(kernel: impl Into<Arc<Kernel>>, grid: GridConfig) -> Self {
        Launch {
            kernel: kernel.into(),
            grid,
        }
    }
}

/// Wall-clock time an experiment spent in each of its phases, measured by
/// [`run_experiment_with_faults`]. Zero-valued phases mean "not measured"
/// (e.g. a hand-built result); the runner sums these across jobs and seeds
/// to show where the experiment matrix actually spends its time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// GPU construction, memory loads, and model-factory setup.
    pub setup: Duration,
    /// The cycle-level simulation itself (all launches).
    pub simulate: Duration,
    /// Energy accounting (dynamic, leakage, repair premiums).
    pub energy: Duration,
    /// Conservation-invariant audit (zero when auditing is off).
    pub audit: Duration,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.setup + self.simulate + self.energy + self.audit
    }

    /// Accumulates another run's timings into this one.
    pub fn merge(&mut self, other: &PhaseTimings) {
        self.setup += other.setup;
        self.simulate += other.simulate;
        self.energy += other.energy;
        self.audit += other.audit;
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "setup {:.1}ms, simulate {:.1}ms, energy {:.1}ms, audit {:.1}ms",
            self.setup.as_secs_f64() * 1e3,
            self.simulate.as_secs_f64() * 1e3,
            self.energy.as_secs_f64() * 1e3,
            self.audit.as_secs_f64() * 1e3,
        )
    }
}

/// Result of running a workload under one RF organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// RF organisation name.
    pub rf_name: &'static str,
    /// Total cycles across all launches.
    pub cycles: u64,
    /// Merged statistics across launches and SMs.
    pub stats: SmStats,
    /// Per-launch simulation results.
    pub per_launch: Vec<SimResult>,
    /// Model-internal telemetry (RFC hit rates, FRF mode epochs, hot
    /// registers, pilot completion).
    pub telemetry: RfTelemetry,
    /// Dynamic register-file energy (pJ).
    pub dynamic_energy_pj: f64,
    /// Dynamic energy the same access stream would cost on the MRF@STV
    /// baseline (pJ) — the Fig. 11 denominator.
    pub baseline_dynamic_energy_pj: f64,
    /// Leakage energy of this organisation over the run (pJ).
    pub leakage_energy_pj: f64,
    /// Leakage energy of the MRF@STV baseline over the same cycles (pJ).
    pub baseline_leakage_energy_pj: f64,
    /// Energy premium paid repairing accesses to faulty rows (pJ), already
    /// included in `dynamic_energy_pj`. Zero for fault-free runs.
    pub repair_energy_pj: f64,
    /// Wall-clock phase profile of this run (setup/simulate/energy/audit).
    pub phases: PhaseTimings,
    /// Conservation-invariant audit, merged over launches and extended
    /// with the cross-crate checks (telemetry vs model evict events,
    /// energy recomputed from raw events). Present iff `GpuConfig::audit`.
    pub audit: Option<AuditReport>,
}

impl ExperimentResult {
    /// Fractional dynamic-energy saving vs the MRF@STV baseline
    /// (Fig. 11's y-axis is `1 - saving`).
    pub fn dynamic_saving(&self) -> f64 {
        if self.baseline_dynamic_energy_pj == 0.0 {
            0.0
        } else {
            1.0 - self.dynamic_energy_pj / self.baseline_dynamic_energy_pj
        }
    }

    /// Fractional leakage saving vs the MRF@STV baseline.
    pub fn leakage_saving(&self) -> f64 {
        if self.baseline_leakage_energy_pj == 0.0 {
            0.0
        } else {
            1.0 - self.leakage_energy_pj / self.baseline_leakage_energy_pj
        }
    }

    /// Execution time normalised to a reference run (Fig. 12's y-axis).
    pub fn normalized_time(&self, baseline: &ExperimentResult) -> f64 {
        self.cycles as f64 / baseline.cycles.max(1) as f64
    }
}

impl std::fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} cycles, {} instructions (IPC {:.2}, SIMD eff {:.0}%)",
            self.rf_name,
            self.cycles,
            self.stats.instructions,
            self.stats.instructions as f64 / self.cycles.max(1) as f64,
            100.0 * self.stats.simd_efficiency(),
        )?;
        writeln!(
            f,
            "  dynamic RF energy {:.1} nJ ({:.1}% vs MRF@STV), leakage {:.1} nJ ({:.1}%)",
            self.dynamic_energy_pj / 1000.0,
            100.0 * self.dynamic_saving(),
            self.leakage_energy_pj / 1000.0,
            100.0 * self.leakage_saving(),
        )?;
        // Only degraded runs print the repair line, so fault-free output
        // stays byte-identical to a run without any fault map attached.
        if self.telemetry.total_fault_repairs() > 0 {
            writeln!(
                f,
                "  fault repairs: {} remapped, {} spilled, {} escalated ({:.2} nJ premium)",
                self.telemetry.fault_remaps,
                self.telemetry.fault_spills,
                self.telemetry.fault_escalations,
                self.repair_energy_pj / 1000.0,
            )?;
        }
        Ok(())
    }
}

/// Builds the per-SM register-file model factory for an [`RfKind`]. When
/// `faults` is present every model is wrapped in a [`FaultedRf`] that
/// injects the map's faults and repairs them; `None` builds the bare
/// models, so fault-free runs stay bit-identical to runs predating fault
/// support.
///
/// The returned closure is `Send + Sync` so a whole experiment — factory
/// included — can run on a worker thread of the parallel experiment engine.
pub fn rf_model_factory(
    rf: &RfKind,
    banks: usize,
    faults: Option<FaultConfig>,
) -> impl Fn(usize) -> Box<dyn RegisterFileModel> + Send + Sync + 'static {
    let rf_kind = rf.clone();
    move |sm: usize| -> Box<dyn RegisterFileModel> {
        match &rf_kind {
            RfKind::MrfStv => boxed_model(BaselineRf::stv(banks), &faults),
            RfKind::MrfNtv { latency } => boxed_model(BaselineRf::ntv(banks, *latency), &faults),
            RfKind::Partitioned(cfg) => {
                boxed_model(PartitionedRf::new(sm, cfg.clone(), banks), &faults)
            }
            RfKind::Rfc(cfg) => boxed_model(RfcModel::new(*cfg, banks), &faults),
            RfKind::Drowsy(cfg) => boxed_model(DrowsyRf::new(*cfg, banks), &faults),
        }
    }
}

/// Boxes `model`, wrapped in a [`FaultedRf`] over the concrete model type
/// when `faults` is present.
fn boxed_model<M: RegisterFileModel + 'static>(
    model: M,
    faults: &Option<FaultConfig>,
) -> Box<dyn RegisterFileModel> {
    match faults {
        Some(fc) => Box::new(FaultedRf::new(model, fc.clone())),
        None => Box::new(model),
    }
}

/// [`rf_model_factory`] with an ignored telemetry argument. Kept only
/// because the repository benchmark (`perfbench/src/matrix.rs`) calls it;
/// it goes when that benchmark next changes.
pub fn faulted_rf_model_factory(
    rf: &RfKind,
    banks: usize,
    _telemetry: &SharedTelemetry,
    faults: Option<FaultConfig>,
) -> impl Fn(usize) -> Box<dyn RegisterFileModel> + Send + Sync + 'static {
    rf_model_factory(rf, banks, faults)
}

/// Validates everything an experiment is about to feed the simulator —
/// configuration, every launch, and the optional fault campaign — without
/// building any machine state.
///
/// [`run_experiment_with_faults`] calls this first, so a malformed input
/// fails fast with a typed [`prf_sim::ValidationError`] (wrapped in
/// [`SimError::Invalid`]) before memory is allocated or models are built.
/// Job runners call it directly to reject hostile jobs without spawning a
/// worker thread or arming a watchdog.
///
/// # Errors
///
/// The first failing check, in order: config, launches (in order), faults.
pub fn validate_experiment_inputs(
    gpu_config: &GpuConfig,
    launches: &[Launch],
    faults: Option<&FaultConfig>,
) -> Result<(), prf_sim::ValidationError> {
    prf_sim::check_config(gpu_config)?;
    if launches.is_empty() {
        return Err(prf_sim::ValidationError::Launch {
            kernel: "<none>".into(),
            reason: "experiment has no launches".into(),
        });
    }
    for launch in launches {
        prf_sim::check_launch(gpu_config, &launch.kernel, launch.grid)?;
    }
    if let Some(fc) = faults {
        let fault_err = |reason: String| prf_sim::ValidationError::Fault { reason };
        let g = fc.map.geometry;
        // An empty dimension would be a mod-by-zero in FaultedRf's
        // row-address fold (maps built by FaultMap::from_montecarlo can't
        // be empty, but maps parsed from text artifacts can declare
        // anything).
        if g.banks == 0 || g.rows_per_bank == 0 || g.cells_per_row == 0 {
            return Err(fault_err(format!(
                "fault-map geometry {}x{}x{} has an empty dimension",
                g.banks, g.rows_per_bank, g.cells_per_row
            )));
        }
        if let RepairPolicy::SpareRow { spares_per_bank } = fc.policy {
            if spares_per_bank > g.rows_per_bank {
                return Err(fault_err(format!(
                    "{spares_per_bank} spares per bank exceed the bank's {} rows",
                    g.rows_per_bank
                )));
            }
        }
    }
    Ok(())
}

/// Runs `launches` back-to-back (sharing global memory, like a real
/// multi-kernel workload) under the given RF organisation.
///
/// `mem_init` is a list of `(base_word_address, words)` blocks loaded into
/// global memory before the first launch.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator (cycle-limit overruns).
pub fn run_experiment(
    gpu_config: &GpuConfig,
    rf: &RfKind,
    launches: &[Launch],
    mem_init: &[(u32, Vec<u32>)],
) -> Result<ExperimentResult, SimError> {
    run_experiment_with_faults(gpu_config, rf, launches, mem_init, None)
}

/// [`run_experiment`] with an optional fault campaign: when `faults` is
/// set, every SM's model runs behind a [`FaultedRf`] and the result carries
/// the repair telemetry and energy premium ([`RepairCosts::finfet_default`]
/// rates). The audit (when enabled) additionally balances the repair
/// telemetry against the per-access `RfRepair` trace events and folds the
/// premium into the energy recomputation.
///
/// # Errors
///
/// [`SimError::Invalid`] when [`validate_experiment_inputs`] rejects the
/// config, a launch, or the fault campaign; otherwise propagates
/// [`SimError`] from the simulator (cycle-limit overruns).
pub fn run_experiment_with_faults(
    gpu_config: &GpuConfig,
    rf: &RfKind,
    launches: &[Launch],
    mem_init: &[(u32, Vec<u32>)],
    faults: Option<&FaultConfig>,
) -> Result<ExperimentResult, SimError> {
    validate_experiment_inputs(gpu_config, launches, faults)?;
    let mut phases = PhaseTimings::default();
    let phase_start = Instant::now();
    let mut gpu = Gpu::try_new(gpu_config.clone())?;
    for (base, words) in mem_init {
        gpu.global_mem().load(*base, words);
    }

    let factory = rf_model_factory(rf, gpu_config.num_rf_banks, faults.cloned());
    phases.setup = phase_start.elapsed();

    let phase_start = Instant::now();
    let mut per_launch = Vec::with_capacity(launches.len());
    for launch in launches {
        // `Arc::clone`, not a deep copy of the instruction stream.
        let r = gpu.run(Arc::clone(&launch.kernel), launch.grid, &factory)?;
        per_launch.push(r);
    }
    phases.simulate = phase_start.elapsed();
    let telemetry = gpu.rf_telemetry();

    let mut stats = SmStats::new();
    let mut cycles = 0;
    for r in &per_launch {
        stats.merge(&r.stats);
        cycles += r.cycles;
    }

    // Energy accounting.
    let phase_start = Instant::now();
    let (energy_model, rfc_writebacks) = match rf {
        RfKind::Rfc(cfg) => {
            let spec = ArraySpec::rfc(
                cfg.entries_per_warp as u32,
                cfg.sized_for_warps,
                2,
                1,
                cfg.crossbar_banks,
            );
            (
                EnergyModel::new(Some(spec), cfg.mrf_at_ntv),
                telemetry.rfc_writebacks,
            )
        }
        _ => (EnergyModel::without_rfc(), 0),
    };
    let dynamic_energy_pj =
        energy_model.dynamic_energy_pj(&stats.partition_accesses, rfc_writebacks);
    let baseline_dynamic_energy_pj =
        energy_model.baseline_dynamic_energy_pj(&stats.partition_accesses);

    let leak = LeakageModel::from_finfet();
    let organisation_mw = match rf {
        RfKind::MrfStv => leak.mrf_stv_mw,
        RfKind::MrfNtv { .. } => leak.mrf_ntv_mw,
        RfKind::Partitioned(_) => leak.partitioned_mw(),
        // RFC keeps the full MRF plus the cache; cache leakage is small,
        // dominated by the (NTV or STV) MRF.
        RfKind::Rfc(cfg) => {
            if cfg.mrf_at_ntv {
                leak.mrf_ntv_mw
            } else {
                leak.mrf_stv_mw
            }
        }
        // Drowsy registers leak at the retention ratio for the fraction of
        // register-cycles the models measured asleep.
        RfKind::Drowsy(cfg) => {
            cfg.effective_leakage_mw(leak.mrf_stv_mw, telemetry.drowsy_fraction())
        }
    };
    let per_sm_cycles = cycles; // leakage counted per SM; all SMs run the kernel's span
    let leakage_energy_pj =
        LeakageModel::leakage_energy_pj(organisation_mw, per_sm_cycles) * gpu_config.num_sms as f64;
    let baseline_leakage_energy_pj =
        LeakageModel::leakage_energy_pj(leak.mrf_stv_mw, per_sm_cycles) * gpu_config.num_sms as f64;

    // Repair premiums are charged multiplicatively from integer event
    // counts, so the audit below can recompute them bit-exactly from the
    // independently counted trace events.
    let repair_costs = RepairCosts::finfet_default();
    let repair_energy_pj = repair_costs.repair_energy_pj(
        telemetry.fault_remaps,
        telemetry.fault_spills,
        telemetry.fault_escalations,
    );
    let dynamic_energy_pj = dynamic_energy_pj + repair_energy_pj;
    phases.energy = phase_start.elapsed();

    // Cross-crate conservation audit: extend the merged per-launch report
    // with the checks only this layer can make — the telemetry write-back
    // counter against the model's own evict events, the fault-repair
    // telemetry against the per-access `RfRepair` trace events, and the
    // dynamic energy recomputed from raw RF-port events against the
    // telemetry-derived value above.
    let phase_start = Instant::now();
    let audit = if gpu_config.audit {
        let mut merged = AuditReport::default();
        for r in &per_launch {
            if let Some(a) = &r.audit {
                merged.merge(a);
            }
        }
        merged.check_counts(
            "RFC write-back conservation",
            merged.rfc_evict_events,
            telemetry.rfc_writebacks,
            cycles,
            None,
        );
        for (kind, from_telemetry) in [
            (RepairKind::Remapped, telemetry.fault_remaps),
            (RepairKind::Spilled, telemetry.fault_spills),
            (RepairKind::Escalated, telemetry.fault_escalations),
        ] {
            merged.check_counts(
                "RF-repair telemetry conservation",
                merged.rf_repair_events[kind.index()],
                from_telemetry,
                cycles,
                None,
            );
        }
        let recomputed = energy_model.dynamic_energy_pj(&merged.rf_events, merged.rfc_evict_events)
            + repair_costs.repair_energy_pj(
                merged.rf_repair_events[RepairKind::Remapped.index()],
                merged.rf_repair_events[RepairKind::Spilled.index()],
                merged.rf_repair_events[RepairKind::Escalated.index()],
            );
        merged.check_close(
            "energy recomputation",
            dynamic_energy_pj,
            recomputed,
            1e-9,
            cycles,
        );
        Some(merged)
    } else {
        None
    };
    phases.audit = phase_start.elapsed();

    Ok(ExperimentResult {
        rf_name: rf.name(),
        cycles,
        stats,
        per_launch,
        telemetry,
        dynamic_energy_pj,
        baseline_dynamic_energy_pj,
        leakage_energy_pj,
        baseline_leakage_energy_pj,
        repair_energy_pj,
        phases,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::{KernelBuilder, Reg, SpecialReg};
    use prf_sim::RfPartition;

    fn skewed_kernel() -> Kernel {
        // R1 and R2 are hammered in a loop; R5..R8 touched once.
        let mut kb = KernelBuilder::new("skew");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.mov_imm(Reg(1), 0);
        kb.mov_imm(Reg(2), 0);
        kb.mov_imm(Reg(5), 1);
        kb.mov_imm(Reg(6), 2);
        kb.mov_imm(Reg(7), 3);
        kb.mov_imm(Reg(8), 4);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd(Reg(2), Reg(2), Reg(1));
        kb.iadd_imm(Reg(1), Reg(1), 1);
        kb.setp_imm(prf_isa::PredReg(0), prf_isa::CmpOp::Lt, Reg(1), 20);
        kb.bra_if(prf_isa::PredReg(0), true, top);
        kb.stg(Reg(0), Reg(2), 0);
        kb.exit();
        kb.build().unwrap()
    }

    fn small_gpu() -> GpuConfig {
        GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        }
    }

    fn launches() -> Vec<Launch> {
        vec![Launch::new(skewed_kernel(), GridConfig::new(8, 128))]
    }

    /// Compile-time guarantee that whole experiments can move to worker
    /// threads: the GPU, the boxed models, the factory, and the result all
    /// have to be `Send`.
    #[test]
    fn simulator_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Gpu>();
        assert_send::<Box<dyn RegisterFileModel>>();
        assert_send::<ExperimentResult>();
        assert_send::<RfKind>();
        assert_send::<Launch>();
        fn assert_send_sync_value<T: Send + Sync>(_: &T) {}
        let factory = rf_model_factory(&RfKind::MrfStv, 8, None);
        assert_send_sync_value(&factory);
    }

    #[test]
    fn baseline_vs_partitioned_end_to_end() {
        let gpu = small_gpu();
        let base = run_experiment(&gpu, &RfKind::MrfStv, &launches(), &[]).unwrap();
        let part = run_experiment(
            &gpu,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            &launches(),
            &[],
        )
        .unwrap();
        // Same work executed.
        assert_eq!(base.stats.instructions, part.stats.instructions);
        // Partitioned saves substantial dynamic energy on a skewed kernel.
        assert!(
            part.dynamic_saving() > 0.40,
            "saving {}",
            part.dynamic_saving()
        );
        // ...with bounded slowdown.
        let slowdown = part.normalized_time(&base);
        assert!(slowdown < 1.10, "slowdown {slowdown}");
        // Leakage saving ~39% by construction of the structures.
        assert!((part.leakage_saving() - 0.39).abs() < 0.02);
        // The hot registers ended up in the FRF: most accesses hit it.
        let frf = part.stats.partition_accesses.fraction(RfPartition::FrfHigh)
            + part.stats.partition_accesses.fraction(RfPartition::FrfLow);
        assert!(frf > 0.5, "FRF fraction {frf}");
    }

    #[test]
    fn ntv_baseline_is_slower_than_partitioned() {
        let gpu = small_gpu();
        let base = run_experiment(&gpu, &RfKind::MrfStv, &launches(), &[]).unwrap();
        let ntv = run_experiment(&gpu, &RfKind::MrfNtv { latency: 3 }, &launches(), &[]).unwrap();
        let part = run_experiment(
            &gpu,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            &launches(),
            &[],
        )
        .unwrap();
        assert!(ntv.cycles > base.cycles);
        assert!(
            part.cycles < ntv.cycles,
            "partitioned ({}) must beat all-NTV ({})",
            part.cycles,
            ntv.cycles
        );
    }

    #[test]
    fn rfc_experiment_reports_hit_rate() {
        let gpu = GpuConfig {
            scheduler: prf_sim::SchedulerPolicy::TwoLevel {
                active_per_scheduler: 2,
            },
            ..small_gpu()
        };
        let rfc = RfcConfig::paper_default();
        let r = run_experiment(&gpu, &RfKind::Rfc(rfc), &launches(), &[]).unwrap();
        let t = &r.telemetry;
        assert!(t.rfc_hits + t.rfc_misses > 0);
        assert!(t.rfc_hit_rate() > 0.0 && t.rfc_hit_rate() < 1.0);
        assert!(r.dynamic_energy_pj > 0.0);
    }

    #[test]
    fn pilot_telemetry_populated_for_hybrid() {
        let gpu = small_gpu();
        let part = run_experiment(
            &gpu,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            &launches(),
            &[],
        )
        .unwrap();
        let t = &part.telemetry;
        assert!(t.pilot_done_cycle.is_some(), "pilot must finish");
        assert!(!t.pilot_hot_regs.is_empty());
        assert!(!t.compiler_hot_regs.is_empty());
        // The dynamically hot registers are the loop registers R1/R2.
        assert!(t.pilot_hot_regs.contains(&Reg(1)));
        assert!(t.pilot_hot_regs.contains(&Reg(2)));
    }

    #[test]
    fn frf_epochs_cover_every_launch_on_every_sm() {
        // Two launches on two SMs: every SM counts one epoch per 50 cycles
        // of each launch, and the telemetry holds them all.
        let gpu = GpuConfig {
            num_sms: 2,
            ..small_gpu()
        };
        let launches = vec![
            Launch::new(skewed_kernel(), GridConfig::new(8, 128)),
            Launch::new(skewed_kernel(), GridConfig::new(3, 64)),
        ];
        let part = run_experiment(
            &gpu,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            &launches,
            &[],
        )
        .unwrap();
        let per_sm: u64 = part.per_launch.iter().map(|r| r.cycles / 50).sum();
        assert!(part.per_launch.iter().all(|r| r.cycles >= 100));
        let t = &part.telemetry;
        assert_eq!(t.frf_high_epochs + t.frf_low_epochs, 2 * per_sm);
        assert!(t.frf_low_epochs > 0 && t.frf_high_epochs > 0, "{t:?}");
    }

    #[test]
    fn mem_init_is_visible_to_kernels() {
        let mut kb = KernelBuilder::new("copy");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.ldg(Reg(1), Reg(0), 100);
        kb.stg(Reg(0), Reg(1), 200);
        kb.exit();
        let launches = vec![Launch::new(kb.build().unwrap(), GridConfig::new(1, 32))];
        let gpu = small_gpu();
        let r = run_experiment(
            &gpu,
            &RfKind::MrfStv,
            &launches,
            &[(100, (0..32).map(|i| i * 7).collect())],
        )
        .unwrap();
        assert!(r.cycles > 0);
    }

    #[test]
    fn audited_experiments_are_clean_for_every_rf_kind() {
        let base_gpu = GpuConfig {
            audit: true,
            ..small_gpu()
        };
        let kinds = [
            RfKind::MrfStv,
            RfKind::MrfNtv { latency: 3 },
            RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            RfKind::Rfc(RfcConfig::paper_default()),
            RfKind::Drowsy(DrowsyConfig::paper_adjacent()),
        ];
        for rf in kinds {
            // The RFC lives with the two-level scheduler (its flush hook).
            let gpu = if matches!(rf, RfKind::Rfc(_)) {
                GpuConfig {
                    scheduler: prf_sim::SchedulerPolicy::TwoLevel {
                        active_per_scheduler: 2,
                    },
                    ..base_gpu.clone()
                }
            } else {
                base_gpu.clone()
            };
            let r = run_experiment(&gpu, &rf, &launches(), &[]).unwrap();
            let audit = r.audit.expect("audit enabled");
            assert!(audit.is_clean(), "{}: {audit}", r.rf_name);
            // The cross-crate checks actually ran.
            assert!(audit.checks > 0);
            assert_eq!(audit.issue_events, r.stats.instructions);
        }
    }

    /// The RFC and drowsy models size their per-warp tables from the slots
    /// the SM uses, so a machine with more warp slots than Kepler's 64
    /// runs them like any other.
    #[test]
    fn rfc_and_drowsy_run_audit_clean_on_128_warp_slots() {
        let base_gpu = GpuConfig {
            max_warps_per_sm: 128,
            rf_registers: 128 * 1024,
            audit: true,
            ..small_gpu()
        };
        // One CTA of 128 warps: every slot is resident at once.
        let launches = [Launch::new(skewed_kernel(), GridConfig::new(1, 128 * 32))];
        let kinds = [
            RfKind::Rfc(RfcConfig::paper_default()),
            RfKind::Drowsy(DrowsyConfig::paper_adjacent()),
        ];
        for rf in kinds {
            let gpu = if matches!(rf, RfKind::Rfc(_)) {
                GpuConfig {
                    scheduler: prf_sim::SchedulerPolicy::TwoLevel {
                        active_per_scheduler: 8,
                    },
                    ..base_gpu.clone()
                }
            } else {
                base_gpu.clone()
            };
            let r = run_experiment(&gpu, &rf, &launches, &[]).unwrap();
            let audit = r.audit.expect("audit enabled");
            assert!(audit.is_clean(), "{}: {audit}", r.rf_name);
            // Every warp runs the same loop, so the count splits evenly.
            assert!(r.stats.instructions > 0 && r.stats.instructions.is_multiple_of(128));
        }
    }

    /// Every model built by the factory maps a register onto the banks the
    /// factory was given: `(slot + physical register) % banks`.
    #[test]
    fn factory_models_use_the_machines_bank_count() {
        let kinds = [
            RfKind::MrfStv,
            RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            RfKind::Rfc(RfcConfig::paper_default()),
            RfKind::Drowsy(DrowsyConfig::paper_adjacent()),
        ];
        for rf in kinds {
            let mut model = rf_model_factory(&rf, 16, None)(0);
            model.on_kernel_launch(&skewed_kernel(), 0);
            for slot in [0, 5, 15, 16, 63] {
                for reg in [0, 1, 2, 7, 20] {
                    let a = model.resolve(slot, Reg(reg), prf_sim::rf::AccessKind::Read, 1);
                    assert_eq!(a.bank, (slot + a.phys_reg) % 16, "{}", rf.name());
                }
            }
        }
    }

    #[test]
    fn audit_absent_when_disabled() {
        let r = run_experiment(&small_gpu(), &RfKind::MrfStv, &launches(), &[]).unwrap();
        assert!(r.audit.is_none());
    }

    #[test]
    fn tampered_rfc_writeback_counter_fails_the_cross_check() {
        // Mutation test for the cross-crate invariant: replay the checks
        // run_experiment performs, but with a drifted telemetry counter.
        let gpu = GpuConfig {
            audit: true,
            scheduler: prf_sim::SchedulerPolicy::TwoLevel {
                active_per_scheduler: 2,
            },
            ..small_gpu()
        };
        let rfc = RfcConfig::paper_default();
        let r = run_experiment(&gpu, &RfKind::Rfc(rfc), &launches(), &[]).unwrap();
        let clean = r.audit.expect("audit enabled");
        assert!(clean.is_clean(), "{clean}");
        assert!(clean.rfc_evict_events > 0, "workload must evict");

        let mut tampered = clean.clone();
        tampered.check_counts(
            "RFC write-back conservation",
            tampered.rfc_evict_events,
            r.telemetry.rfc_writebacks + 1, // the deliberate drift
            r.cycles,
            None,
        );
        assert!(!tampered.is_clean());
        assert_eq!(
            tampered.violations[0].invariant,
            "RFC write-back conservation"
        );
    }

    #[test]
    fn faulty_ntv_run_audits_clean_with_nonzero_repairs() {
        use crate::faults::RepairPolicy;
        use prf_finfet::{FaultGeometry, FaultMap, SramCell, NTV};

        let gpu = GpuConfig {
            audit: true,
            ..small_gpu()
        };
        let map = FaultMap::from_montecarlo(SramCell::T8, NTV, FaultGeometry::kepler_rf(), 42);
        let fc = FaultConfig::new(map, RepairPolicy::SpareRow { spares_per_bank: 4 });
        let r = run_experiment_with_faults(
            &gpu,
            &RfKind::MrfNtv { latency: 3 },
            &launches(),
            &[],
            Some(&fc),
        )
        .unwrap();
        let audit = r.audit.expect("audit enabled");
        assert!(audit.is_clean(), "{audit}");
        assert!(
            r.telemetry.total_fault_repairs() > 0,
            "an NTV map must trip repairs: {}",
            fc.map
        );
        assert_eq!(
            audit.total_repair_events(),
            r.telemetry.total_fault_repairs()
        );
        assert!(r.repair_energy_pj > 0.0);
        // The premium is part of the dynamic total.
        assert!(r.dynamic_energy_pj > r.repair_energy_pj);
    }

    #[test]
    fn fault_free_map_is_indistinguishable_from_no_map() {
        use crate::faults::RepairPolicy;
        use prf_finfet::{FaultGeometry, FaultMap};

        let gpu = GpuConfig {
            audit: true,
            ..small_gpu()
        };
        let rf = RfKind::MrfNtv { latency: 3 };
        let clean = FaultConfig::new(
            FaultMap::fault_free(FaultGeometry::kepler_rf()),
            RepairPolicy::DisableAndSpill,
        );
        let with = run_experiment_with_faults(&gpu, &rf, &launches(), &[], Some(&clean)).unwrap();
        let without = run_experiment(&gpu, &rf, &launches(), &[]).unwrap();
        assert_eq!(with.cycles, without.cycles);
        assert_eq!(with.stats.instructions, without.stats.instructions);
        assert_eq!(with.dynamic_energy_pj, without.dynamic_energy_pj);
        assert_eq!(with.repair_energy_pj, 0.0);
        assert_eq!(with.telemetry.total_fault_repairs(), 0);
        assert!(with.audit.as_ref().unwrap().is_clean());
        // Identical rendered reports, including the absent repair line.
        assert_eq!(with.to_string(), without.to_string());
    }

    #[test]
    fn every_policy_survives_an_audited_faulty_run() {
        use crate::faults::RepairPolicy;
        use prf_finfet::{FaultGeometry, FaultMap, SramCell, NTV};

        let gpu = GpuConfig {
            audit: true,
            ..small_gpu()
        };
        let map = FaultMap::from_montecarlo(SramCell::T8, NTV, FaultGeometry::kepler_rf(), 7);
        for policy in [
            RepairPolicy::SpareRow { spares_per_bank: 2 },
            RepairPolicy::DisableAndSpill,
            RepairPolicy::EscalateVdd,
        ] {
            let fc = FaultConfig::new(map.clone(), policy);
            let r = run_experiment_with_faults(
                &gpu,
                &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
                &launches(),
                &[],
                Some(&fc),
            )
            .unwrap();
            let audit = r.audit.expect("audit enabled");
            assert!(audit.is_clean(), "{policy:?}: {audit}");
            assert!(
                r.telemetry.total_fault_repairs() > 0,
                "{policy:?} tripped no repairs"
            );
        }
    }

    /// Stateful RF models (telemetry, epoch detectors, drowsy wake
    /// tracking) on four SMs, under schedulers with different prioritize
    /// behaviour, all audited, traced and sampled: every run is
    /// audit-clean, and a second run repeats the first exactly (wall-clock
    /// phase timings aside).
    #[test]
    fn multi_sm_audited_experiments_are_clean_and_repeatable() {
        let schedulers = [
            prf_sim::SchedulerPolicy::Gto,
            prf_sim::SchedulerPolicy::TwoLevel {
                active_per_scheduler: 2,
            },
        ];
        for scheduler in schedulers {
            let gpu = GpuConfig {
                num_sms: 4,
                audit: true,
                trace_capacity: 1 << 12,
                sampling: Some(prf_sim::SamplingConfig { window: 64 }),
                scheduler,
                ..small_gpu()
            };
            let kinds = [
                RfKind::Partitioned(PartitionedRfConfig::paper_default()),
                RfKind::Drowsy(DrowsyConfig::paper_adjacent()),
            ];
            for rf in kinds {
                let tag = format!("{} under {scheduler:?}", rf.name());
                let run = || ExperimentResult {
                    phases: PhaseTimings::default(),
                    ..run_experiment(&gpu, &rf, &launches(), &[]).unwrap()
                };
                let first = run();
                assert!(first.audit.as_ref().unwrap().is_clean(), "{tag}");
                assert_eq!(first, run(), "{tag}: second run differs");
            }
        }
    }

    /// Drowsy leakage follows the drowsy fraction the models measured on
    /// every SM over both launches, not a fixed fraction.
    #[test]
    fn drowsy_leakage_is_charged_at_the_measured_fraction() {
        let gpu = GpuConfig {
            num_sms: 2,
            ..small_gpu()
        };
        let cfg = DrowsyConfig::paper_adjacent();
        let launches = vec![
            Launch::new(skewed_kernel(), GridConfig::new(8, 128)),
            Launch::new(skewed_kernel(), GridConfig::new(3, 64)),
        ];
        let r = run_experiment(&gpu, &RfKind::Drowsy(cfg), &launches, &[]).unwrap();
        let t = &r.telemetry;
        assert!(t.live_reg_cycles > 0 && t.drowsy_reg_cycles > 0, "{t:?}");
        let d = t.drowsy_fraction();
        assert!(d > 0.0 && d < 1.0, "fraction {d}");
        let leak = LeakageModel::from_finfet();
        let mw = leak.mrf_stv_mw * ((1.0 - d) + d * cfg.drowsy_leak_ratio);
        let expected = LeakageModel::leakage_energy_pj(mw, r.cycles) * gpu.num_sms as f64;
        assert_eq!(r.leakage_energy_pj, expected);
        assert!(r.leakage_energy_pj < r.baseline_leakage_energy_pj);
    }

    #[test]
    fn rf_kind_names() {
        assert_eq!(RfKind::MrfStv.name(), "MRF@STV");
        assert_eq!(RfKind::MrfNtv { latency: 3 }.name(), "MRF@NTV");
    }

    #[test]
    fn experiment_inputs_validate_clean_for_a_real_workload() {
        assert_eq!(
            validate_experiment_inputs(&small_gpu(), &launches(), None),
            Ok(())
        );
    }

    #[test]
    fn empty_experiment_rejected() {
        let err = validate_experiment_inputs(&small_gpu(), &[], None).unwrap_err();
        assert!(err.to_string().contains("no launches"), "{err}");
    }

    #[test]
    fn hostile_launch_rejected_before_any_machine_state() {
        // A CTA whose register demand exceeds the whole RF never
        // dispatches; pre-validation turns the silent spin into a typed
        // rejection, and run_experiment surfaces it as SimError::Invalid.
        let gpu = GpuConfig {
            rf_registers: 256,
            ..small_gpu()
        };
        let hostile = launches();
        let err = validate_experiment_inputs(&gpu, &hostile, None).unwrap_err();
        assert!(err.to_string().contains("register file"), "{err}");
        let sim_err = run_experiment(&gpu, &RfKind::MrfStv, &hostile, &[]).unwrap_err();
        assert!(matches!(sim_err, SimError::Invalid(_)), "{sim_err}");
        assert!(sim_err.is_deterministic(), "rejections must not be retried");
    }

    #[test]
    fn empty_fault_geometry_rejected() {
        // from_montecarlo can't build an empty map, but a text artifact can
        // declare one — and an empty dimension is a mod-by-zero inside
        // FaultedRf. The experiment layer must reject it up front.
        let text = "faultmap v1\ncell=8T vdd=0.3 seed=1\n\
                    banks=0 rows_per_bank=4 cells_per_row=8\n\n";
        let map = prf_finfet::FaultMap::from_text(text).unwrap();
        let fc = FaultConfig::new(map, RepairPolicy::DisableAndSpill);
        let err = validate_experiment_inputs(&small_gpu(), &launches(), Some(&fc)).unwrap_err();
        assert!(
            matches!(err, prf_sim::ValidationError::Fault { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("empty dimension"), "{err}");
        let sim_err =
            run_experiment_with_faults(&small_gpu(), &RfKind::MrfStv, &launches(), &[], Some(&fc))
                .unwrap_err();
        assert!(matches!(sim_err, SimError::Invalid(_)), "{sim_err}");
    }

    #[test]
    fn oversubscribed_spares_rejected() {
        let map = prf_finfet::FaultMap::fault_free(prf_finfet::FaultGeometry {
            banks: 2,
            rows_per_bank: 4,
            cells_per_row: 8,
        });
        let fc = FaultConfig::new(map, RepairPolicy::SpareRow { spares_per_bank: 5 });
        let err = validate_experiment_inputs(&small_gpu(), &launches(), Some(&fc)).unwrap_err();
        assert!(err.to_string().contains("spares per bank"), "{err}");
    }
}
