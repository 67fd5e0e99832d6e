//! Monte Carlo process-variation analysis of SRAM cells.
//!
//! FinFETs are immune to random dopant fluctuation (undoped channels) but
//! still suffer line-edge roughness (LER) and work-function variation
//! (WFV), both of which shift the threshold voltage (§IV-A, citing Wang et
//! al. IEDM'11 and Patel et al. ED'09). We model each as an independent
//! Gaussian Vth shift, map the resulting mismatch onto the cell SNM, and
//! report the SNM distribution and yield — the Rust equivalent of the
//! paper's "detailed Monte Carlo simulation of Hspice models".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::device::BackGate;
use crate::sram::{SramCell, SNM_FAIL_THRESHOLD};

/// Vth sigma from line-edge roughness (volts), representative of 7 nm
/// FinFET variability studies.
pub const SIGMA_VTH_LER: f64 = 0.015;

/// Vth sigma from work-function variation (volts).
pub const SIGMA_VTH_WFV: f64 = 0.020;

/// How much SNM one volt of transistor mismatch costs. Mismatch between
/// the cross-coupled halves degrades the smaller lobe of the butterfly
/// curve roughly 1:1, softened by the cell's internal gain.
pub const SNM_MISMATCH_SENSITIVITY: f64 = 0.7;

/// Combined Vth sigma (LER ⊕ WFV, independent Gaussians).
pub fn sigma_vth_total() -> f64 {
    (SIGMA_VTH_LER.powi(2) + SIGMA_VTH_WFV.powi(2)).sqrt()
}

/// Result of a Monte Carlo SNM/yield run.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldResult {
    /// Cell analysed.
    pub cell: SramCell,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Mean sampled SNM (V).
    pub snm_mean: f64,
    /// Standard deviation of sampled SNM (V).
    pub snm_std: f64,
    /// Minimum sampled SNM (V).
    pub snm_min: f64,
    /// Fraction of samples with SNM above [`SNM_FAIL_THRESHOLD`].
    pub yield_fraction: f64,
}

impl YieldResult {
    /// Failures per million cells.
    pub fn failures_ppm(&self) -> f64 {
        (1.0 - self.yield_fraction) * 1e6
    }
}

/// Draws the two uniforms one Box–Muller sample consumes: `u1` in
/// `[ε, 1)` (so its logarithm is finite) and then `u2` in `[0, 1)`.
pub(crate) fn normal_uniforms(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// The Box–Muller radius `√(−2 ln u1)`: the largest magnitude the sample
/// drawn from `u1` can reach, whatever its angle.
pub(crate) fn box_muller_radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// The standard-normal sample of radius `r` (from
/// [`box_muller_radius`]) at angle `2π·u2`.
pub(crate) fn box_muller(r: f64, u2: f64) -> f64 {
    r * (std::f64::consts::TAU * u2).cos()
}

/// Draws one standard-normal sample (Box–Muller).
fn normal(rng: &mut StdRng) -> f64 {
    let (u1, u2) = normal_uniforms(rng);
    box_muller(box_muller_radius(u1), u2)
}

/// Draws one Monte Carlo SNM sample for a cell with nominal margin
/// `nominal` under per-half Vth sigma `sigma`.
///
/// The two storage halves each receive an independent Gaussian Vth shift;
/// their *mismatch* erodes the margin at [`SNM_MISMATCH_SENSITIVITY`] per
/// volt, floored at zero (a fully collapsed butterfly curve). This is the
/// per-sample kernel of [`snm_yield`]; the fault-map derivation in
/// [`crate::faults`] makes the same draws and shares its arithmetic. It
/// consumes exactly two Gaussian draws, keeping historical `snm_yield`
/// streams bit-identical.
pub fn sample_snm(nominal: f64, sigma: f64, rng: &mut StdRng) -> f64 {
    let left = normal(rng);
    let right = normal(rng);
    snm_from_normals(nominal, sigma, left, right)
}

/// The SNM of a cell whose two halves drew the standard-normal Vth shifts
/// `left` and `right`: the arithmetic of [`sample_snm`] after its draws.
pub(crate) fn snm_from_normals(nominal: f64, sigma: f64, left: f64, right: f64) -> f64 {
    let mismatch = (left * sigma - right * sigma).abs();
    (nominal - SNM_MISMATCH_SENSITIVITY * mismatch).max(0.0)
}

/// Runs a Monte Carlo SNM analysis of `cell` at `vdd`.
///
/// Each sample perturbs the two storage-node transistor pairs with
/// independent LER and WFV Vth shifts; the *mismatch* between the halves
/// erodes the SNM. Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn snm_yield(
    cell: SramCell,
    vdd: f64,
    back_gate: BackGate,
    samples: usize,
    seed: u64,
) -> YieldResult {
    assert!(samples > 0, "need at least one sample");
    let mut rng = StdRng::seed_from_u64(seed);
    let nominal = cell.snm(vdd, back_gate);
    let sigma = sigma_vth_total();

    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut min = f64::INFINITY;
    let mut pass = 0usize;
    for _ in 0..samples {
        // Mismatch between the two cell halves: difference of two
        // independent Vth shifts per half.
        let snm = sample_snm(nominal, sigma, &mut rng);
        sum += snm;
        sum_sq += snm * snm;
        if snm < min {
            min = snm;
        }
        if snm > SNM_FAIL_THRESHOLD {
            pass += 1;
        }
    }
    let mean = sum / samples as f64;
    let var = (sum_sq / samples as f64 - mean * mean).max(0.0);
    YieldResult {
        cell,
        vdd,
        samples,
        snm_mean: mean,
        snm_std: var.sqrt(),
        snm_min: min,
        yield_fraction: pass as f64 / samples as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{NTV, STV};

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = snm_yield(SramCell::T8, NTV, BackGate::Vdd, 2000, 42);
        let b = snm_yield(SramCell::T8, NTV, BackGate::Vdd, 2000, 42);
        assert_eq!(a, b);
        let c = snm_yield(SramCell::T8, NTV, BackGate::Vdd, 2000, 43);
        assert_ne!(a.snm_mean, c.snm_mean);
    }

    #[test]
    fn snm_samples_are_bit_identical_for_fixed_seed() {
        // Stronger than comparing summary statistics: the raw per-sample
        // stream must reproduce bit for bit, because the fault maps in
        // `crate::faults` classify individual draws.
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            let nominal = SramCell::T8.snm(NTV, BackGate::Vdd);
            let sigma = sigma_vth_total();
            (0..1000)
                .map(|_| sample_snm(nominal, sigma, &mut rng))
                .collect()
        };
        let a = draw(42);
        let b = draw(42);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(draw(43), a);
    }

    #[test]
    fn eight_t_at_ntv_has_high_yield() {
        // The design decision of §IV-A: 8T cells are NTV-viable.
        let r = snm_yield(SramCell::T8, NTV, BackGate::Vdd, 20_000, 7);
        assert!(r.yield_fraction > 0.80, "8T@NTV yield {}", r.yield_fraction);
        assert!(r.snm_mean > 0.06);
    }

    #[test]
    fn six_t_at_ntv_fails_badly() {
        // 6T nominal SNM at NTV is 0.036 V — under the failure margin even
        // before variation.
        let r = snm_yield(SramCell::T6, NTV, BackGate::Vdd, 20_000, 7);
        assert!(r.yield_fraction < 0.20, "6T@NTV yield {}", r.yield_fraction);
    }

    #[test]
    fn yield_improves_with_voltage() {
        let lo = snm_yield(SramCell::T8, NTV, BackGate::Vdd, 20_000, 9);
        let hi = snm_yield(SramCell::T8, STV, BackGate::Vdd, 20_000, 9);
        assert!(hi.yield_fraction >= lo.yield_fraction);
        assert!(hi.snm_mean > lo.snm_mean);
    }

    #[test]
    fn yield_improves_with_transistor_count() {
        let t6 = snm_yield(SramCell::T6, NTV, BackGate::Vdd, 20_000, 11);
        let t8 = snm_yield(SramCell::T8, NTV, BackGate::Vdd, 20_000, 11);
        let t10 = snm_yield(SramCell::T10, NTV, BackGate::Vdd, 20_000, 11);
        assert!(t8.yield_fraction > t6.yield_fraction);
        assert!(t10.yield_fraction >= t8.yield_fraction);
    }

    #[test]
    fn grounded_back_gate_costs_yield() {
        let on = snm_yield(SramCell::T8, STV, BackGate::Vdd, 20_000, 13);
        let off = snm_yield(SramCell::T8, STV, BackGate::Grounded, 20_000, 13);
        assert!(off.yield_fraction < on.yield_fraction);
    }

    #[test]
    fn stats_are_sane() {
        let r = snm_yield(SramCell::T8, STV, BackGate::Vdd, 5_000, 1);
        assert!(r.snm_min <= r.snm_mean);
        assert!(r.snm_std > 0.0);
        assert!(r.failures_ppm() >= 0.0);
        assert_eq!(r.samples, 5_000);
    }

    #[test]
    fn combined_sigma_is_quadrature_sum() {
        let s = sigma_vth_total();
        assert!((s - 0.025).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        snm_yield(SramCell::T8, NTV, BackGate::Vdd, 0, 0);
    }
}
