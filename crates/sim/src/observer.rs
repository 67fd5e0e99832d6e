//! One observer per SM: the trace ring, the conservation auditor and the
//! windowed sampler behind one set of calls from the pipeline. With every
//! sink off, an emission point or a cycle end costs one branch.

use crate::audit::{AuditReport, Auditor};
use crate::config::GpuConfig;
use crate::rf::RegisterFileModel;
use crate::sampling::{check_series_conservation, SampleSeries, SmSampler};
use crate::scoreboard::Scoreboard;
use crate::stats::SmStats;
use crate::trace::{TraceEvent, TraceRing};

/// What one SM's observer recorded over a run, returned by
/// [`crate::Sm::finish_observation`].
#[derive(Debug)]
pub struct Observation {
    /// The retained pipeline events, in emission order (empty unless
    /// `GpuConfig::trace_capacity` is non-zero).
    pub trace: Vec<TraceEvent>,
    /// The sampled series, partial final window included (`None` unless
    /// `GpuConfig::sampling` is set).
    pub samples: Option<SampleSeries>,
    /// The conservation audit, sampled-series checks included (`None`
    /// unless `GpuConfig::audit` is set).
    pub audit: Option<AuditReport>,
}

/// The per-SM event sinks, owned by [`crate::Sm`].
#[derive(Default)]
pub(crate) struct SmObserver {
    sm: usize,
    trace: TraceRing,
    audit: Option<Auditor>,
    sampler: Option<SmSampler>,
    /// The ring or the auditor is live; fixed at construction.
    active: bool,
}

impl SmObserver {
    pub(crate) fn new(sm: usize, config: &GpuConfig) -> Self {
        let trace = TraceRing::new(config.trace_capacity);
        let audit = config
            .audit
            .then(|| Auditor::new(sm, config.max_warps_per_sm));
        SmObserver {
            sm,
            active: trace.enabled() || audit.is_some(),
            trace,
            audit,
            sampler: config.sampling.map(SmSampler::new),
        }
    }

    /// Sends one pipeline event to the auditor and the ring; both sinks
    /// see the same stream.
    #[inline]
    pub(crate) fn event(&mut self, ev: TraceEvent) {
        if !self.active {
            return;
        }
        if let Some(a) = self.audit.as_mut() {
            a.observe(&ev);
        }
        self.trace.record(ev);
    }

    /// Counts one operand-collector allocation for the auditor.
    #[inline]
    pub(crate) fn note_collector_alloc(&mut self) {
        if let Some(a) = self.audit.as_mut() {
            a.note_collector_alloc();
        }
    }

    /// Flags a finished warp whose scoreboard still holds reservations: a
    /// pending bit here means a lost release somewhere upstream.
    #[inline]
    pub(crate) fn note_warp_scoreboard(&mut self, warp: usize, sb: &Scoreboard, cycle: u64) {
        if let (Some(a), pending @ 1..) = (self.audit.as_mut(), sb.pending_count()) {
            a.note_unclear_scoreboard(warp, pending, cycle);
        }
    }

    /// Ends one cycle. The model's FRF mode is queried
    /// only while sampling.
    #[inline]
    pub(crate) fn cycle_end(
        &mut self,
        cycle: u64,
        stats: &SmStats,
        resident: usize,
        rf: &dyn RegisterFileModel,
    ) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.on_cycle(cycle, stats, resident, rf.frf_low_mode());
        }
    }

    /// Closes every sink. The sampler closes first, so the audit
    /// cross-checks the series with its partial final window flushed.
    pub(crate) fn finish(
        self,
        stats: &SmStats,
        resident: usize,
        rf: &dyn RegisterFileModel,
        final_cycle: u64,
    ) -> Observation {
        let sm = self.sm;
        let samples = self.sampler.map(|s| s.finish(sm, stats, resident));
        let audit = self.audit.map(|a| {
            let mut report = a.finish(stats, rf.rfc_evictions(), final_cycle);
            if let Some(series) = &samples {
                check_series_conservation(&mut report, series, stats, final_cycle, sm);
            }
            report
        });
        Observation {
            trace: self.trace.into_events(),
            samples,
            audit,
        }
    }
}
