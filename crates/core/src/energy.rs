//! Register-file energy accounting (§V-B): turns the simulator's
//! per-partition access counts into dynamic energy, and structure leakage
//! powers into leakage energy over the run.
//!
//! Per-access energies and leakage powers come from the FinCACTI-like
//! array model in [`prf_finfet::array`], so Table IV numbers flow directly
//! into Figs. 10/11/13.

use prf_finfet::array::{characterize, ArraySpec};
use prf_sim::{AccessKind, PartitionAccessCounts, RfPartition};

/// Simulated GPU core clock (GHz); the paper cites 900 MHz as a typical
/// GPU clock (§III-B).
pub const GPU_CLOCK_GHZ: f64 = 0.9;

/// Converts cycles to nanoseconds at the GPU clock.
pub fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 / GPU_CLOCK_GHZ
}

/// Per-access energies for every partition kind (pJ).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    per_access_pj: [f64; 8],
    /// Extra energy charged per RFC dirty write-back (MRF write + RFC
    /// read), on top of the regular access counts.
    rfc_writeback_pj: f64,
}

impl EnergyModel {
    /// Builds the model from the FinFET array characterisations, with the
    /// RFC sized for `rfc_entries` registers × `rfc_warps` warps at the
    /// given port/bank configuration (only relevant when an RFC is in
    /// play; harmless otherwise).
    pub fn new(rfc_spec: Option<ArraySpec>, rfc_mrf_at_ntv: bool) -> Self {
        let mrf_stv = characterize(&ArraySpec::mrf_stv()).access_energy_pj;
        // §V-B anchors the all-NTV monolithic RF at a 47% dynamic saving
        // ("when the monolithic RF operates at NTV it saves 47% of the RF
        // energy") — slightly worse than pure V² scaling of the array
        // model, because the full-size NTV array needs stronger upsizing.
        // Calibrate to the paper's number directly (DESIGN.md §2.3).
        let mrf_ntv = characterize(&ArraySpec::mrf_ntv())
            .access_energy_pj
            .max(mrf_stv * 0.53);
        let frf_high = characterize(&ArraySpec::frf_high()).access_energy_pj;
        let frf_low = characterize(&ArraySpec::frf_low()).access_energy_pj;
        let srf = characterize(&ArraySpec::srf()).access_energy_pj;
        let rfc = rfc_spec
            .map(|s| characterize(&s).access_energy_pj)
            .unwrap_or(0.0);
        let rfc_mrf = if rfc_mrf_at_ntv { mrf_ntv } else { mrf_stv };

        let mut per_access_pj = [0.0; 8];
        per_access_pj[RfPartition::MrfStv.index()] = mrf_stv;
        per_access_pj[RfPartition::MrfNtv.index()] = mrf_ntv;
        per_access_pj[RfPartition::FrfHigh.index()] = frf_high;
        per_access_pj[RfPartition::FrfLow.index()] = frf_low;
        per_access_pj[RfPartition::Srf.index()] = srf;
        per_access_pj[RfPartition::RfcHit.index()] = rfc;
        // A read miss costs the backing MRF read plus the RFC fill write.
        per_access_pj[RfPartition::RfcMiss.index()] = rfc_mrf + rfc;
        per_access_pj[RfPartition::RfcWriteback.index()] = rfc_mrf + rfc;

        EnergyModel {
            per_access_pj,
            rfc_writeback_pj: rfc_mrf + rfc,
        }
    }

    /// A model without an RFC (the common case).
    pub fn without_rfc() -> Self {
        Self::new(None, false)
    }

    /// Per-access energy for one partition (pJ).
    pub fn access_energy_pj(&self, p: RfPartition) -> f64 {
        self.per_access_pj[p.index()]
    }

    /// Total dynamic energy (pJ) for a run's access counts, plus
    /// `rfc_writebacks` buffered write-backs that never appear in the
    /// granted-access counts.
    pub fn dynamic_energy_pj(&self, counts: &PartitionAccessCounts, rfc_writebacks: u64) -> f64 {
        let mut e = 0.0;
        for p in RfPartition::ALL {
            e += counts.accesses(p) as f64 * self.per_access_pj[p.index()];
        }
        e + rfc_writebacks as f64 * self.rfc_writeback_pj
    }

    /// Dynamic energy (pJ) the *same access stream* would have cost on the
    /// monolithic MRF baseline at STV — the Fig. 11 denominator.
    pub fn baseline_dynamic_energy_pj(&self, counts: &PartitionAccessCounts) -> f64 {
        counts.total() as f64 * self.per_access_pj[RfPartition::MrfStv.index()]
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::without_rfc()
    }
}

/// Leakage powers of the candidate register-file organisations (mW) and
/// the leakage energy over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageModel {
    /// Monolithic MRF at STV (the baseline's 33.8 mW).
    pub mrf_stv_mw: f64,
    /// Monolithic MRF at NTV.
    pub mrf_ntv_mw: f64,
    /// FRF partition (both modes leak the same per Table IV).
    pub frf_mw: f64,
    /// SRF partition.
    pub srf_mw: f64,
}

impl LeakageModel {
    /// Builds the model from the array characterisations.
    pub fn from_finfet() -> Self {
        LeakageModel {
            mrf_stv_mw: characterize(&ArraySpec::mrf_stv()).leakage_mw,
            mrf_ntv_mw: characterize(&ArraySpec::mrf_ntv()).leakage_mw,
            frf_mw: characterize(&ArraySpec::frf_high()).leakage_mw,
            srf_mw: characterize(&ArraySpec::srf()).leakage_mw,
        }
    }

    /// Leakage power of the partitioned organisation (FRF + SRF).
    pub fn partitioned_mw(&self) -> f64 {
        self.frf_mw + self.srf_mw
    }

    /// Fractional leakage saving of the partitioned RF vs the STV MRF —
    /// the paper's 39% (§V-B).
    pub fn partitioned_saving(&self) -> f64 {
        1.0 - self.partitioned_mw() / self.mrf_stv_mw
    }

    /// Leakage energy (pJ) of a structure leaking `power_mw` over
    /// `cycles` GPU cycles (1 mW × 1 ns = 1 pJ).
    pub fn leakage_energy_pj(power_mw: f64, cycles: u64) -> f64 {
        power_mw * cycles_to_ns(cycles)
    }
}

impl Default for LeakageModel {
    fn default() -> Self {
        Self::from_finfet()
    }
}

/// Records one access into a counts structure — convenience for tests.
pub fn record_n(counts: &mut PartitionAccessCounts, p: RfPartition, kind: AccessKind, n: u64) {
    for _ in 0..n {
        counts.record(p, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_access_energies_match_table4() {
        let m = EnergyModel::without_rfc();
        assert!((m.access_energy_pj(RfPartition::MrfStv) - 14.9).abs() < 0.1);
        assert!((m.access_energy_pj(RfPartition::FrfHigh) - 7.65).abs() < 0.1);
        assert!((m.access_energy_pj(RfPartition::FrfLow) - 5.25).abs() < 0.1);
        assert!((m.access_energy_pj(RfPartition::Srf) - 7.03).abs() < 0.1);
    }

    #[test]
    fn dynamic_energy_weights_partitions() {
        let m = EnergyModel::without_rfc();
        let mut c = PartitionAccessCounts::new();
        record_n(&mut c, RfPartition::FrfHigh, AccessKind::Read, 10);
        record_n(&mut c, RfPartition::Srf, AccessKind::Write, 5);
        let e = m.dynamic_energy_pj(&c, 0);
        let expect = 10.0 * m.access_energy_pj(RfPartition::FrfHigh)
            + 5.0 * m.access_energy_pj(RfPartition::Srf);
        assert!((e - expect).abs() < 1e-9);
        // The same 15 accesses on the STV baseline.
        let b = m.baseline_dynamic_energy_pj(&c);
        assert!((b - 15.0 * 14.9).abs() < 1.0);
        assert!(e < b, "partitioned accesses must be cheaper");
    }

    #[test]
    fn paper_energy_split_yields_about_54_percent_saving() {
        // Fig. 10/11 arithmetic: with 62% of accesses in the FRF (of which
        // 22% in low mode) and 38% in the SRF, dynamic saving ≈ 54%.
        let m = EnergyModel::without_rfc();
        let mut c = PartitionAccessCounts::new();
        record_n(&mut c, RfPartition::FrfHigh, AccessKind::Read, 4836); // 62% * 78%
        record_n(&mut c, RfPartition::FrfLow, AccessKind::Read, 1364); // 62% * 22%
        record_n(&mut c, RfPartition::Srf, AccessKind::Read, 3800);
        let saving = 1.0 - m.dynamic_energy_pj(&c, 0) / m.baseline_dynamic_energy_pj(&c);
        assert!((saving - 0.54).abs() < 0.03, "saving {saving}");
    }

    #[test]
    fn mrf_ntv_saves_about_47_percent() {
        // §V-B: "when the monolithic RF operates at NTV it saves 47% of
        // the RF energy".
        let m = EnergyModel::without_rfc();
        let saving =
            1.0 - m.access_energy_pj(RfPartition::MrfNtv) / m.access_energy_pj(RfPartition::MrfStv);
        assert!((saving - 0.47).abs() < 0.06, "saving {saving}");
    }

    #[test]
    fn rfc_miss_costs_mrf_plus_fill() {
        let spec = ArraySpec::rfc(6, 8, 2, 1, 1);
        let m = EnergyModel::new(Some(spec), true);
        let hit = m.access_energy_pj(RfPartition::RfcHit);
        let miss = m.access_energy_pj(RfPartition::RfcMiss);
        let mrf_ntv = m.access_energy_pj(RfPartition::MrfNtv);
        assert!((miss - (mrf_ntv + hit)).abs() < 1e-9);
        assert!(hit < m.access_energy_pj(RfPartition::MrfStv));
    }

    #[test]
    fn rfc_writebacks_add_energy() {
        let spec = ArraySpec::rfc(6, 8, 2, 1, 1);
        let m = EnergyModel::new(Some(spec), true);
        let c = PartitionAccessCounts::new();
        assert_eq!(m.dynamic_energy_pj(&c, 0), 0.0);
        assert!(m.dynamic_energy_pj(&c, 10) > 0.0);
    }

    #[test]
    fn leakage_matches_section_vb() {
        let l = LeakageModel::from_finfet();
        assert!((l.mrf_stv_mw - 33.8).abs() < 0.2);
        assert!((l.frf_mw - 7.28).abs() < 0.1);
        assert!((l.srf_mw - 13.4).abs() < 0.2);
        // "our proposed RF is able to save 39% of the RF leakage power".
        assert!(
            (l.partitioned_saving() - 0.39).abs() < 0.02,
            "{}",
            l.partitioned_saving()
        );
    }

    #[test]
    fn leakage_energy_units() {
        // 33.8 mW over 900 cycles at 0.9 GHz = 33.8 mW * 1000 ns = 33800 pJ.
        let e = LeakageModel::leakage_energy_pj(33.8, 900);
        assert!((e - 33_800.0).abs() < 1.0);
    }
}
