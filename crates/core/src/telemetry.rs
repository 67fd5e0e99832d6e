//! Shared telemetry sink for register-file models.
//!
//! The simulator owns the per-SM model instances and drops them when a run
//! finishes, so models report their internal statistics into a shared
//! [`RfTelemetry`] cell that the experiment driver keeps. Per-access and
//! per-cycle counts (RFC hits and misses, write-backs, fault repairs, FRF
//! epochs) are kept in the model and added to the cell once per launch,
//! from [`prf_sim::RegisterFileModel::on_launch_end`]; only rare events
//! (hot-register sets, pilot completion) write the cell when they happen.
//!
//! The handle is `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>`: each
//! experiment run owns its *own* telemetry instance (nothing is shared
//! between runs), but the handle must be [`Send`] so whole simulations can
//! be fanned out across worker threads by the parallel experiment engine.
//! Within one run the mutex is uncontended — all SMs of a run are stepped
//! by one thread — so the locking cost is a bare atomic.

use std::sync::{Arc, Mutex};

use prf_isa::Reg;

/// Aggregated model-internal statistics across all SMs of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RfTelemetry {
    /// RFC accesses served by the cache (reads + writes; writes always
    /// allocate and therefore always "hit").
    pub rfc_hits: u64,
    /// RFC *read* hits only — the quantity the paper quotes as "the RFC
    /// hit rate" in §V-D.
    pub rfc_read_hits: u64,
    /// RFC read misses (served by the backing MRF).
    pub rfc_misses: u64,
    /// Dirty RFC entries written back to the MRF (evictions + flushes).
    pub rfc_writebacks: u64,
    /// Epochs the adaptive FRF spent in high-power mode (all SMs).
    pub frf_high_epochs: u64,
    /// Epochs the adaptive FRF spent in low-power mode (all SMs).
    pub frf_low_epochs: u64,
    /// Accesses redirected to a spare row by the fault-repair layer.
    pub fault_remaps: u64,
    /// Accesses spilled to the slow partition because the faulty row had
    /// no spare (or the policy is disable-and-spill).
    pub fault_spills: u64,
    /// Accesses served at an escalated Vdd to mask a weak row.
    pub fault_escalations: u64,
    /// Hot registers last installed from the *compiler* profile (SM 0).
    pub compiler_hot_regs: Vec<Reg>,
    /// Hot registers last installed from the *pilot* profile (SM 0).
    pub pilot_hot_regs: Vec<Reg>,
    /// Cycle at which SM 0's pilot warp finished profiling, if it did.
    pub pilot_done_cycle: Option<u64>,
}

impl RfTelemetry {
    /// RFC hit rate over reads+writes that consulted the cache.
    pub fn rfc_hit_rate(&self) -> f64 {
        let total = self.rfc_hits + self.rfc_misses;
        if total == 0 {
            0.0
        } else {
            self.rfc_hits as f64 / total as f64
        }
    }

    /// RFC *read* hit rate — the §V-D metric (writes always allocate, so
    /// including them flatters the cache).
    pub fn rfc_read_hit_rate(&self) -> f64 {
        let total = self.rfc_read_hits + self.rfc_misses;
        if total == 0 {
            0.0
        } else {
            self.rfc_read_hits as f64 / total as f64
        }
    }

    /// Fraction of adaptive-FRF epochs spent in low-power mode.
    pub fn frf_low_fraction(&self) -> f64 {
        let total = self.frf_high_epochs + self.frf_low_epochs;
        if total == 0 {
            0.0
        } else {
            self.frf_low_epochs as f64 / total as f64
        }
    }

    /// Accumulates another run's (or seed's) counters into this one. Vector
    /// and option fields keep the first non-empty value — they describe the
    /// run's structure (hot sets, pilot completion), which repeats across
    /// seeds, rather than accumulate.
    pub fn merge(&mut self, other: &RfTelemetry) {
        self.rfc_hits += other.rfc_hits;
        self.rfc_read_hits += other.rfc_read_hits;
        self.rfc_misses += other.rfc_misses;
        self.rfc_writebacks += other.rfc_writebacks;
        self.frf_high_epochs += other.frf_high_epochs;
        self.frf_low_epochs += other.frf_low_epochs;
        self.fault_remaps += other.fault_remaps;
        self.fault_spills += other.fault_spills;
        self.fault_escalations += other.fault_escalations;
        if self.compiler_hot_regs.is_empty() {
            self.compiler_hot_regs = other.compiler_hot_regs.clone();
        }
        if self.pilot_hot_regs.is_empty() {
            self.pilot_hot_regs = other.pilot_hot_regs.clone();
        }
        if self.pilot_done_cycle.is_none() {
            self.pilot_done_cycle = other.pilot_done_cycle;
        }
    }

    /// Divides the accumulated counters by `n` (rounding to nearest),
    /// turning a [`merge`] of `n` per-seed telemetries into a per-seed
    /// mean. Rounding rather than truncating makes merge → scale_down of
    /// identical runs lossless.
    ///
    /// [`merge`]: RfTelemetry::merge
    pub fn scale_down(&mut self, n: u64) {
        use prf_sim::stats::div_round_nearest;
        self.rfc_hits = div_round_nearest(self.rfc_hits, n);
        self.rfc_read_hits = div_round_nearest(self.rfc_read_hits, n);
        self.rfc_misses = div_round_nearest(self.rfc_misses, n);
        self.rfc_writebacks = div_round_nearest(self.rfc_writebacks, n);
        self.frf_high_epochs = div_round_nearest(self.frf_high_epochs, n);
        self.frf_low_epochs = div_round_nearest(self.frf_low_epochs, n);
        self.fault_remaps = div_round_nearest(self.fault_remaps, n);
        self.fault_spills = div_round_nearest(self.fault_spills, n);
        self.fault_escalations = div_round_nearest(self.fault_escalations, n);
    }

    /// Total fault-repair events across all repair kinds.
    pub fn total_fault_repairs(&self) -> u64 {
        self.fault_remaps + self.fault_spills + self.fault_escalations
    }
}

/// Shared handle to a telemetry sink.
///
/// `Send + Sync`: whole simulation runs move across threads in the parallel
/// experiment engine. See the module docs for why this is a mutex and why
/// it is uncontended in practice.
pub type SharedTelemetry = Arc<Mutex<RfTelemetry>>;

/// Creates a fresh shared telemetry sink.
pub fn shared_telemetry() -> SharedTelemetry {
    Arc::new(Mutex::new(RfTelemetry::default()))
}

/// Clones the current telemetry out of a shared handle.
pub fn snapshot(t: &SharedTelemetry) -> RfTelemetry {
    t.lock().expect("telemetry mutex poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn shared_cell_is_shared() {
        let t = shared_telemetry();
        let t2 = Arc::clone(&t);
        t.lock().unwrap().rfc_hits = 7;
        assert_eq!(t2.lock().unwrap().rfc_hits, 7);
        assert_eq!(snapshot(&t2).rfc_hits, 7);
    }

    #[test]
    fn shared_handle_crosses_threads() {
        let t = shared_telemetry();
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            t2.lock().unwrap().rfc_misses = 3;
        })
        .join()
        .unwrap();
        assert_eq!(t.lock().unwrap().rfc_misses, 3);
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
