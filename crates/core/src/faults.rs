//! Variation-aware fault injection with graceful degradation.
//!
//! [`FaultedRf`] wraps any [`RegisterFileModel`] and consults a
//! [`prf_finfet::FaultMap`] on every resolved access: stuck rows always
//! trip, weak rows trip only when the access is served by a low-voltage
//! partition (MRF@NTV, FRF in low-power mode, SRF). A tripped access is
//! kept architecturally correct by the configured [`RepairPolicy`]:
//!
//! * **spare rows** — the access is redirected to a per-bank spare through
//!   a remap CAM (one extra indirection cycle); when a bank's spares run
//!   out, the row falls back to spilling,
//! * **disable and spill** — the faulty row is disabled and its registers
//!   served by the slow STV-safe partition (SRF latency and energy),
//! * **escalate Vdd** — weak rows are read/written with a temporary
//!   supply boost (energy premium, no latency change); stuck rows cannot
//!   be fixed by voltage and spill instead.
//!
//! Every repair charges its premium through [`RepairCosts`] and is
//! reported three ways so the conservation auditor can cross-check them:
//! on the returned access (`ResolvedAccess::repair`, which the SM turns
//! into `TraceEvent::RfRepair` events and `SmStats::rf_repairs` counters)
//! and in the run's [`crate::RfTelemetry`] (`fault_remaps` / `fault_spills` /
//! `fault_escalations`).

use std::collections::HashMap;
use std::sync::Arc;

use prf_finfet::{CellHealth, FaultMap};
use prf_isa::{Kernel, Reg, MAX_ARCH_REGS};
use prf_sim::rf::{AccessKind, RegisterFileModel, RepairKind, ResolvedAccess, WarpLifecycle};
use prf_sim::{RfPartition, RfTelemetry};

/// Latency floor (cycles) of an access spilled to the slow partition —
/// the SRF access time of the paper's main configuration.
pub const SPILL_LATENCY: u32 = 3;

/// How accesses to faulty rows are kept usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Remap each faulty row to a per-bank spare row (allocated on first
    /// touch, stable thereafter); spills once a bank's spares run out.
    SpareRow {
        /// Spare rows available in each bank.
        spares_per_bank: usize,
    },
    /// Disable faulty rows and serve their registers from the slow
    /// STV-safe partition.
    DisableAndSpill,
    /// Boost the supply for weak rows (energy premium only); stuck rows
    /// cannot be fixed by voltage and spill instead.
    EscalateVdd,
}

/// A fault map plus the repair policy applied to it — one immutable
/// artifact shared by every SM of a run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Which rows are stuck/weak (shared, immutable).
    pub map: Arc<FaultMap>,
    /// How tripped accesses are repaired.
    pub policy: RepairPolicy,
}

impl FaultConfig {
    /// Wraps a map with a policy.
    pub fn new(map: FaultMap, policy: RepairPolicy) -> Self {
        FaultConfig {
            map: Arc::new(map),
            policy,
        }
    }
}

/// Energy premiums charged per repair event (pJ), kept deliberately
/// multiplicative — `count × per-event` — so the auditor can recompute
/// the total from raw event counts with zero rounding slack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairCosts {
    /// Remap CAM search + spare-wordline drive per remapped access.
    pub remap_pj: f64,
    /// Crossbar detour into the slow partition per spilled access (the
    /// SRF access energy itself is charged via the access's partition).
    pub spill_pj: f64,
    /// Supply-boost premium per escalated access: roughly the STV−NTV
    /// dynamic-energy gap of an MRF access.
    pub escalate_pj: f64,
}

impl RepairCosts {
    /// Premiums consistent with the Table IV array characterisations.
    pub fn finfet_default() -> Self {
        RepairCosts {
            remap_pj: 1.2,
            spill_pj: 0.9,
            escalate_pj: 7.0,
        }
    }

    /// Total repair energy (pJ) for a run's event counts.
    pub fn repair_energy_pj(&self, remaps: u64, spills: u64, escalations: u64) -> f64 {
        remaps as f64 * self.remap_pj
            + spills as f64 * self.spill_pj
            + escalations as f64 * self.escalate_pj
    }
}

impl Default for RepairCosts {
    fn default() -> Self {
        Self::finfet_default()
    }
}

/// Per-bank spare-row allocator: faulty rows get a stable, injective
/// mapping onto spare indices, first-touch order.
#[derive(Debug, Clone)]
pub struct SpareRemapTable {
    /// Assigned spare per faulty `(bank, row)`.
    assigned: HashMap<(usize, usize), usize>,
    /// Next free spare index per bank.
    next_spare: Vec<usize>,
    spares_per_bank: usize,
}

impl SpareRemapTable {
    /// An empty table for `banks` banks with `spares_per_bank` spares each.
    pub fn new(banks: usize, spares_per_bank: usize) -> Self {
        SpareRemapTable {
            assigned: HashMap::new(),
            next_spare: vec![0; banks],
            spares_per_bank,
        }
    }

    /// The spare index serving `(bank, row)`: the existing assignment if
    /// the row was remapped before, else the bank's next free spare.
    /// `None` when the bank's spares are exhausted.
    pub fn remap(&mut self, bank: usize, row: usize) -> Option<usize> {
        if let Some(&spare) = self.assigned.get(&(bank, row)) {
            return Some(spare);
        }
        let next = self.next_spare[bank];
        if next >= self.spares_per_bank {
            return None;
        }
        self.next_spare[bank] = next + 1;
        self.assigned.insert((bank, row), next);
        Some(next)
    }

    /// Spares currently assigned in `bank`.
    pub fn used_spares(&self, bank: usize) -> usize {
        self.next_spare[bank]
    }
}

/// True when the partition runs at a reduced supply, where weak rows
/// have no noise margin left.
fn low_voltage(p: RfPartition) -> bool {
    matches!(
        p,
        RfPartition::MrfNtv | RfPartition::FrfLow | RfPartition::Srf
    )
}

/// Rewrites an access as a spill into the slow STV-safe partition.
fn spill(access: &mut ResolvedAccess) {
    access.partition = RfPartition::Srf;
    access.latency = access.latency.max(SPILL_LATENCY);
}

/// A [`RegisterFileModel`] decorator that injects the faults of a
/// [`FaultMap`] into any inner model and repairs them per the configured
/// [`RepairPolicy`]. See the module docs for the repair semantics.
///
/// Generic over the inner model, so an access through the decorator costs
/// one dynamic dispatch (the SM's call into the `FaultedRf`), not two.
pub struct FaultedRf<M: RegisterFileModel> {
    inner: M,
    config: FaultConfig,
    spares: SpareRemapTable,
    /// Repair counts over every launch; merged into the inner model's
    /// telemetry by [`RegisterFileModel::telemetry`].
    repairs: RfTelemetry,
    name: String,
}

impl<M: RegisterFileModel> FaultedRf<M> {
    /// Wraps `inner` with the fault map and policy in `config`.
    pub fn new(inner: M, config: FaultConfig) -> Self {
        let spares_per_bank = match config.policy {
            RepairPolicy::SpareRow { spares_per_bank } => spares_per_bank,
            _ => 0,
        };
        let name = format!("{}+faults", inner.name());
        let banks = config.map.geometry.banks;
        FaultedRf {
            inner,
            config,
            spares: SpareRemapTable::new(banks, spares_per_bank),
            repairs: RfTelemetry::default(),
            name,
        }
    }

    /// The row of the fault-map geometry an access lands on: a static
    /// address hash of the warp slot and physical register, folded into
    /// the map's shape (the physical array is smaller than the
    /// architectural namespace).
    fn fault_row(&self, warp_slot: usize, access: &ResolvedAccess) -> (usize, usize) {
        let g = self.config.map.geometry;
        let bank = access.bank % g.banks;
        let row = (warp_slot * MAX_ARCH_REGS + access.phys_reg) % g.rows_per_bank;
        (bank, row)
    }
}

impl<M: RegisterFileModel> std::fmt::Debug for FaultedRf<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultedRf")
            .field("inner", &self.inner.name())
            .field("policy", &self.config.policy)
            .field("map", &format_args!("{}", self.config.map))
            .finish()
    }
}

impl<M: RegisterFileModel> RegisterFileModel for FaultedRf<M> {
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        kind: AccessKind,
        cycle: u64,
    ) -> ResolvedAccess {
        let mut access = self.inner.resolve(warp_slot, reg, kind, cycle);
        let (bank, row) = self.fault_row(warp_slot, &access);
        let health = self.config.map.health(bank, row);
        let trips = match health {
            CellHealth::Healthy => false,
            CellHealth::Stuck => true,
            CellHealth::Weak => low_voltage(access.partition),
        };
        if !trips {
            return access;
        }
        let repair = match self.config.policy {
            RepairPolicy::SpareRow { .. } => {
                if self.spares.remap(bank, row).is_some() {
                    // One extra cycle through the remap CAM indirection.
                    access.latency += 1;
                    RepairKind::Remapped
                } else {
                    spill(&mut access);
                    RepairKind::Spilled
                }
            }
            RepairPolicy::DisableAndSpill => {
                spill(&mut access);
                RepairKind::Spilled
            }
            RepairPolicy::EscalateVdd => {
                if health == CellHealth::Stuck {
                    spill(&mut access);
                    RepairKind::Spilled
                } else {
                    RepairKind::Escalated
                }
            }
        };
        access.repair = Some(repair);
        let t = &mut self.repairs;
        match repair {
            RepairKind::Remapped => t.fault_remaps += 1,
            RepairKind::Spilled => t.fault_spills += 1,
            RepairKind::Escalated => t.fault_escalations += 1,
        }
        access
    }

    fn observe_access(&mut self, warp_slot: usize, reg: Reg, kind: AccessKind, cycle: u64) {
        self.inner.observe_access(warp_slot, reg, kind, cycle);
    }

    fn tick(&mut self, cycle: u64, issued: u32) {
        self.inner.tick(cycle, issued);
    }

    fn on_kernel_launch(&mut self, kernel: &Kernel, cycle: u64) {
        // Spare assignments survive kernel launches: repair is a physical
        // property of the chip, not of the running workload.
        self.inner.on_kernel_launch(kernel, cycle);
    }

    fn on_warp_start(&mut self, warp: WarpLifecycle, cycle: u64) {
        self.inner.on_warp_start(warp, cycle);
    }

    fn on_warp_finish(&mut self, warp: WarpLifecycle, cycle: u64) {
        self.inner.on_warp_finish(warp, cycle);
    }

    fn on_warp_deactivated(&mut self, warp_slot: usize, cycle: u64) {
        self.inner.on_warp_deactivated(warp_slot, cycle);
    }

    fn telemetry(&self) -> RfTelemetry {
        let mut telemetry = self.inner.telemetry();
        telemetry.merge(&self.repairs);
        telemetry
    }

    fn rfc_evictions(&self) -> u64 {
        self.inner.rfc_evictions()
    }

    fn frf_low_mode(&self) -> Option<bool> {
        self.inner.frf_low_mode()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_sim::BaselineRf;

    /// A 2-bank × 4-row map with the given RLE body (8 rows total).
    fn tiny_map(body: &str) -> FaultMap {
        let text = format!(
            "faultmap v1\ncell=8T vdd=0.3 seed=7\n\
             banks=2 rows_per_bank=4 cells_per_row=8\n{body}\n"
        );
        FaultMap::from_text(&text).unwrap()
    }

    /// Baseline MRF@NTV (3-cycle, low-voltage partition) over `map`.
    fn faulted_ntv(map: FaultMap, policy: RepairPolicy) -> FaultedRf<BaselineRf> {
        FaultedRf::new(BaselineRf::ntv(24, 3), FaultConfig::new(map, policy))
    }

    /// Resolves architected register 0 of warp slot 0 — bank 0, row 0 of
    /// the tiny geometry.
    fn probe(rf: &mut FaultedRf<BaselineRf>) -> ResolvedAccess {
        rf.resolve(0, Reg(0), AccessKind::Read, 0)
    }

    #[test]
    fn healthy_rows_pass_through_untouched() {
        let mut rf = faulted_ntv(
            tiny_map("H8"),
            RepairPolicy::SpareRow { spares_per_bank: 2 },
        );
        let a = probe(&mut rf);
        assert_eq!(a.repair, None);
        assert_eq!(a.latency, 3);
        assert_eq!(rf.telemetry().total_fault_repairs(), 0);
    }

    #[test]
    fn spare_row_remap_costs_one_cycle_and_is_stable() {
        let mut rf = faulted_ntv(
            tiny_map("S1 H7"),
            RepairPolicy::SpareRow { spares_per_bank: 2 },
        );
        let a = probe(&mut rf);
        assert_eq!(a.repair, Some(RepairKind::Remapped));
        assert_eq!(a.latency, 4, "base 3 + remap indirection 1");
        // Second touch reuses the same spare (no new allocation).
        probe(&mut rf);
        assert_eq!(rf.spares.used_spares(0), 1);
        assert_eq!(rf.telemetry().fault_remaps, 2);
    }

    #[test]
    fn exhausted_spares_fall_back_to_spill() {
        // All four rows of bank 0 stuck, but only one spare.
        let mut rf = faulted_ntv(
            tiny_map("S4 H4"),
            RepairPolicy::SpareRow { spares_per_bank: 1 },
        );
        // Warp 0's reg 0 and reg 2 both fold onto map bank 0 (RF banks 0
        // and 2) with distinct rows 0 and 2 — the first takes the spare,
        // the second finds the bank out of spares.
        let first = rf.resolve(0, Reg(0), AccessKind::Read, 0);
        assert_eq!(first.repair, Some(RepairKind::Remapped));
        let second = rf.resolve(0, Reg(2), AccessKind::Read, 0);
        assert_eq!(second.repair, Some(RepairKind::Spilled));
        assert_eq!(second.partition, RfPartition::Srf);
        let t = rf.telemetry();
        assert_eq!((t.fault_remaps, t.fault_spills), (1, 1));
    }

    #[test]
    fn spare_assignments_persist_across_launches() {
        // Bank 0 is stuck throughout and has one spare. Launch 1 spends it
        // on warp 0's reg 0 (row 0); launch 2 touches reg 2 (row 2).
        let mut kb = prf_isa::KernelBuilder::new("k");
        kb.exit();
        let kernel = kb.build().unwrap();
        let policy = RepairPolicy::SpareRow { spares_per_bank: 1 };
        let mut rf = faulted_ntv(tiny_map("S4 H4"), policy);
        rf.on_kernel_launch(&kernel, 0);
        assert_eq!(probe(&mut rf).repair, Some(RepairKind::Remapped));
        rf.on_kernel_launch(&kernel, 100);
        let second = rf.resolve(0, Reg(2), AccessKind::Read, 101);
        assert_eq!(second.repair, Some(RepairKind::Spilled), "budget spent");
        assert_eq!(probe(&mut rf).repair, Some(RepairKind::Remapped));
        let t = rf.telemetry();
        assert_eq!((t.fault_remaps, t.fault_spills), (2, 1));
        // A table that starts empty at launch 2 remaps the row.
        let mut fresh = faulted_ntv(tiny_map("S4 H4"), policy);
        fresh.on_kernel_launch(&kernel, 100);
        let row2 = fresh.resolve(0, Reg(2), AccessKind::Read, 101);
        assert_eq!(row2.repair, Some(RepairKind::Remapped));
    }

    #[test]
    fn disable_and_spill_redirects_to_srf() {
        let mut rf = faulted_ntv(tiny_map("S1 H7"), RepairPolicy::DisableAndSpill);
        let a = probe(&mut rf);
        assert_eq!(a.repair, Some(RepairKind::Spilled));
        assert_eq!(a.partition, RfPartition::Srf);
        assert_eq!(a.latency, SPILL_LATENCY);
        assert_eq!(rf.telemetry().fault_spills, 1);
    }

    #[test]
    fn escalate_vdd_boosts_weak_but_spills_stuck() {
        // Map bank 0 entirely weak, map bank 1 entirely stuck.
        let mut rf = faulted_ntv(tiny_map("W4 S4"), RepairPolicy::EscalateVdd);
        // Weak -> escalated, same latency and partition.
        let weak = rf.resolve(0, Reg(0), AccessKind::Read, 0);
        assert_eq!(weak.repair, Some(RepairKind::Escalated));
        assert_eq!(weak.latency, 3);
        assert_eq!(weak.partition, RfPartition::MrfNtv);
        // Stuck -> voltage cannot help, spill.
        let stuck = rf.resolve(0, Reg(1), AccessKind::Read, 0);
        assert_eq!(stuck.repair, Some(RepairKind::Spilled));
        let t = rf.telemetry();
        assert_eq!((t.fault_escalations, t.fault_spills), (1, 1));
    }

    #[test]
    fn weak_rows_do_not_trip_at_stv() {
        // Same map, but the inner model is the STV baseline (1-cycle,
        // high-voltage partition): weak rows keep full margin.
        let mut rf = FaultedRf::new(
            BaselineRf::stv(24),
            FaultConfig::new(tiny_map("W8"), RepairPolicy::DisableAndSpill),
        );
        let a = probe(&mut rf);
        assert_eq!(a.repair, None);
        assert_eq!(a.partition, RfPartition::MrfStv);
        assert_eq!(rf.telemetry().total_fault_repairs(), 0);
    }

    #[test]
    fn stuck_rows_trip_even_at_stv() {
        let mut rf = FaultedRf::new(
            BaselineRf::stv(24),
            FaultConfig::new(tiny_map("S8"), RepairPolicy::DisableAndSpill),
        );
        let a = probe(&mut rf);
        assert_eq!(a.repair, Some(RepairKind::Spilled));
    }

    #[test]
    fn repair_costs_are_multiplicative() {
        let c = RepairCosts::finfet_default();
        let e = c.repair_energy_pj(3, 2, 1);
        let expect = 3.0 * c.remap_pj + 2.0 * c.spill_pj + c.escalate_pj;
        assert_eq!(e, expect, "integer-count arithmetic must be exact");
        assert_eq!(c.repair_energy_pj(0, 0, 0), 0.0);
    }

    #[test]
    fn spare_table_is_injective_and_stable() {
        let mut s = SpareRemapTable::new(2, 3);
        let a = s.remap(0, 10).unwrap();
        let b = s.remap(0, 11).unwrap();
        let c = s.remap(1, 10).unwrap();
        assert_ne!(a, b, "distinct rows of a bank get distinct spares");
        assert_eq!(c, 0, "banks allocate independently");
        assert_eq!(s.remap(0, 10).unwrap(), a, "stable on re-touch");
        s.remap(0, 12).unwrap();
        assert_eq!(s.remap(0, 13), None, "exhausted after 3 spares");
        assert_eq!(s.used_spares(0), 3);
    }

    #[test]
    fn wrapper_forwards_name_and_hooks() {
        let mut rf = faulted_ntv(tiny_map("H8"), RepairPolicy::DisableAndSpill);
        assert_eq!(rf.name(), "MRF@NTV(3cy)+faults");
        assert_eq!(rf.rfc_evictions(), 0);
        // Lifecycle hooks must not panic and must reach the inner model.
        let mut kb = prf_isa::KernelBuilder::new("k");
        kb.exit();
        rf.on_kernel_launch(&kb.build().unwrap(), 0);
        rf.on_warp_start(
            WarpLifecycle {
                slot: 0,
                cta: 0,
                warp_in_cta: 0,
            },
            0,
        );
        rf.on_warp_deactivated(0, 1);
        rf.on_warp_finish(
            WarpLifecycle {
                slot: 0,
                cta: 0,
                warp_in_cta: 0,
            },
            2,
        );
        rf.tick(3, 1);
    }
}
