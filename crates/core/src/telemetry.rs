//! Register-file model telemetry.
//!
//! Each model counts its own statistics — RFC hits, misses and
//! write-backs, FRF epochs, fault repairs, SM 0's hot-register sets and
//! pilot completion — as plain data it owns. The models live as long as
//! their [`prf_sim::Gpu`], so nothing has to decide when to publish a
//! count: the experiment driver reads [`prf_sim::Gpu::rf_telemetry`] once,
//! after the last launch. [`RfTelemetry`] is defined in [`prf_sim::rf`]
//! and re-exported here.

pub use prf_sim::RfTelemetry;

/// An empty placeholder that carries nothing. It is kept only because
/// the repository benchmark (`perfbench/src/matrix.rs`) passes one to
/// [`crate::faulted_rf_model_factory`], and goes when that benchmark next
/// changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedTelemetry;

/// Creates a [`SharedTelemetry`]; kept only for the repository benchmark,
/// like the type.
pub fn shared_telemetry() -> SharedTelemetry {
    SharedTelemetry
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_isa::Reg;

    #[test]
    fn hit_rate_math() {
        let mut t = RfTelemetry::default();
        assert_eq!(t.rfc_hit_rate(), 0.0);
        t.rfc_hits = 3;
        t.rfc_misses = 1;
        assert!((t.rfc_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn low_fraction_math() {
        let mut t = RfTelemetry::default();
        assert_eq!(t.frf_low_fraction(), 0.0);
        t.frf_high_epochs = 8;
        t.frf_low_epochs = 2;
        assert!((t.frf_low_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale_down_average_counters() {
        let mut a = RfTelemetry {
            rfc_hits: 10,
            rfc_misses: 2,
            pilot_done_cycle: Some(5),
            pilot_hot_regs: vec![Reg(1)],
            ..RfTelemetry::default()
        };
        let b = RfTelemetry {
            rfc_hits: 14,
            rfc_misses: 4,
            pilot_done_cycle: Some(9),
            pilot_hot_regs: vec![Reg(2)],
            ..RfTelemetry::default()
        };
        a.merge(&b);
        assert_eq!(a.rfc_hits, 24);
        // Structural fields keep the first run's values.
        assert_eq!(a.pilot_done_cycle, Some(5));
        assert_eq!(a.pilot_hot_regs, vec![Reg(1)]);
        a.scale_down(2);
        assert_eq!(a.rfc_hits, 12);
        assert_eq!(a.rfc_misses, 3);
    }

    #[test]
    fn merge_then_scale_down_of_identical_runs_is_lossless() {
        // Truncating division loses up to n-1 counts per counter once the
        // merged sum is not an exact multiple of n; rounding keeps the
        // identical-runs case exact and minimises error otherwise.
        let one = RfTelemetry {
            rfc_hits: 101,
            rfc_read_hits: 55,
            rfc_misses: 7,
            rfc_writebacks: 13,
            frf_high_epochs: 3,
            frf_low_epochs: 1,
            fault_remaps: 17,
            fault_spills: 5,
            fault_escalations: 2,
            ..RfTelemetry::default()
        };
        let mut merged = RfTelemetry::default();
        for _ in 0..3 {
            merged.merge(&one);
        }
        merged.scale_down(3);
        assert_eq!(merged, one);
    }
}
