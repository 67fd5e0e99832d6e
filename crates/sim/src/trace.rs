//! Execution tracing: a bounded ring of pipeline events for debugging and
//! for driving visualisations.
//!
//! Tracing is off by default (`GpuConfig::trace_capacity == 0`). When
//! enabled, each SM records its last `trace_capacity` events and
//! [`crate::SimResult`] carries them merged, sorted by cycle.
//!
//! The same event stream also feeds the conservation-invariant auditor
//! ([`crate::audit`]) when `GpuConfig::audit` is set: every emission point
//! in the SM pipeline sends its event to the SM's one observer, which
//! passes it both to the ring (bounded, for display) and to the auditor
//! (unbounded counters, for end-of-run invariant checks).

use std::fmt;

use prf_isa::Reg;

use crate::rf::{RepairKind, RfPartition};

/// One pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A CTA became resident.
    CtaDispatch {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Flattened CTA id.
        cta: u32,
    },
    /// A warp issued an instruction.
    Issue {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// Program counter of the issued instruction.
        pc: usize,
    },
    /// A warp blocked at a CTA barrier.
    BarrierWait {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
    /// A warp finished execution.
    WarpFinish {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
    /// An instruction finished gathering its operands in a collector unit.
    Collect {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// True when the instruction dispatches to the memory pipeline
        /// (LSU or shared-memory unit) rather than an execution pipe.
        mem: bool,
    },
    /// A register-file read was granted an RF bank port by the arbiter —
    /// the energy-accounting event for reads.
    RfRead {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Physical partition that serviced the read.
        partition: RfPartition,
    },
    /// A register-file write was granted an RF bank port by the arbiter —
    /// the energy-accounting event for writes.
    RfWrite {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Physical partition that serviced the write.
        partition: RfPartition,
    },
    /// A granted register-file access landed on a faulty row and was kept
    /// usable by a repair policy — the energy-accounting event for repair
    /// premiums, emitted alongside the access's `RfRead`/`RfWrite`.
    RfRepair {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// How the faulty row was repaired.
        repair: RepairKind,
    },
    /// A destination-register write completed in the register file and the
    /// owning instruction retired.
    Writeback {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
        /// Architected destination register.
        reg: Reg,
    },
    /// The LSU or shared-memory unit completed a warp memory instruction.
    LsuComplete {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
    /// A scoreboard reservation was taken at issue (one event per reserved
    /// destination register or predicate).
    ScoreboardReserve {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
    /// A scoreboard entry was released at result forwarding or retire.
    ScoreboardRelease {
        /// Cycle of the event.
        cycle: u64,
        /// SM index.
        sm: usize,
        /// Warp slot.
        warp: usize,
    },
}

impl TraceEvent {
    /// The cycle the event occurred.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::CtaDispatch { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::BarrierWait { cycle, .. }
            | TraceEvent::WarpFinish { cycle, .. }
            | TraceEvent::Collect { cycle, .. }
            | TraceEvent::RfRead { cycle, .. }
            | TraceEvent::RfWrite { cycle, .. }
            | TraceEvent::RfRepair { cycle, .. }
            | TraceEvent::Writeback { cycle, .. }
            | TraceEvent::LsuComplete { cycle, .. }
            | TraceEvent::ScoreboardReserve { cycle, .. }
            | TraceEvent::ScoreboardRelease { cycle, .. } => *cycle,
        }
    }

    /// The SM the event occurred on.
    pub fn sm(&self) -> usize {
        match self {
            TraceEvent::CtaDispatch { sm, .. }
            | TraceEvent::Issue { sm, .. }
            | TraceEvent::BarrierWait { sm, .. }
            | TraceEvent::WarpFinish { sm, .. }
            | TraceEvent::Collect { sm, .. }
            | TraceEvent::RfRead { sm, .. }
            | TraceEvent::RfWrite { sm, .. }
            | TraceEvent::RfRepair { sm, .. }
            | TraceEvent::Writeback { sm, .. }
            | TraceEvent::LsuComplete { sm, .. }
            | TraceEvent::ScoreboardReserve { sm, .. }
            | TraceEvent::ScoreboardRelease { sm, .. } => *sm,
        }
    }
}

/// Canonical ordering for a merged multi-SM trace: stable-sorts by
/// `(cycle, sm)`, so events keep their intra-SM emission order while the
/// interleaving across SMs becomes deterministic — the same no matter the
/// order the per-SM rings were concatenated in.
pub fn normalize_trace(events: &mut [TraceEvent]) {
    events.sort_by_key(|e| (e.cycle(), e.sm()));
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::CtaDispatch { cycle, sm, cta } => {
                write!(f, "[{cycle:>8}] sm{sm} dispatch cta{cta}")
            }
            TraceEvent::Issue {
                cycle,
                sm,
                warp,
                pc,
            } => {
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} issue #{pc}")
            }
            TraceEvent::BarrierWait { cycle, sm, warp } => {
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} barrier")
            }
            TraceEvent::WarpFinish { cycle, sm, warp } => {
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} finish")
            }
            TraceEvent::Collect {
                cycle,
                sm,
                warp,
                mem,
            } => {
                let dest = if *mem { "mem" } else { "exec" };
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} collect->{dest}")
            }
            TraceEvent::RfRead {
                cycle,
                sm,
                partition,
            } => {
                write!(f, "[{cycle:>8}] sm{sm} rf-read {partition}")
            }
            TraceEvent::RfWrite {
                cycle,
                sm,
                partition,
            } => {
                write!(f, "[{cycle:>8}] sm{sm} rf-write {partition}")
            }
            TraceEvent::RfRepair { cycle, sm, repair } => {
                write!(f, "[{cycle:>8}] sm{sm} rf-repair {repair}")
            }
            TraceEvent::Writeback {
                cycle,
                sm,
                warp,
                reg,
            } => {
                write!(
                    f,
                    "[{cycle:>8}] sm{sm} w{warp:<2} writeback r{}",
                    reg.index()
                )
            }
            TraceEvent::LsuComplete { cycle, sm, warp } => {
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} lsu-complete")
            }
            TraceEvent::ScoreboardReserve { cycle, sm, warp } => {
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} sb-reserve")
            }
            TraceEvent::ScoreboardRelease { cycle, sm, warp } => {
                write!(f, "[{cycle:>8}] sm{sm} w{warp:<2} sb-release")
            }
        }
    }
}

/// A bounded ring buffer of trace events (keeps the most recent
/// `capacity`).
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceRing {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
}

impl TraceRing {
    /// A ring with the given capacity; 0 disables recording.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            events: std::collections::VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
        }
    }

    /// True when recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event (drops the oldest at capacity).
    pub fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(cycle: u64) -> TraceEvent {
        TraceEvent::Issue {
            cycle,
            sm: 0,
            warp: 1,
            pc: 2,
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let mut r = TraceRing::new(0);
        assert!(!r.enabled());
        r.record(issue(1));
        assert!(r.into_events().is_empty());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = TraceRing::new(3);
        for c in 0..5 {
            r.record(issue(c));
        }
        let cycles: Vec<u64> = r.into_events().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn normalize_is_independent_of_merge_order() {
        let ev = |cycle: u64, sm: usize, warp: usize| TraceEvent::Issue {
            cycle,
            sm,
            warp,
            pc: 0,
        };
        // Two per-SM streams; intra-SM order is the emission order and must
        // survive normalisation.
        let sm0 = [ev(1, 0, 0), ev(1, 0, 1), ev(3, 0, 2)];
        let sm1 = [ev(1, 1, 7), ev(2, 1, 8)];

        let mut merged_a: Vec<TraceEvent> = sm0.iter().chain(sm1.iter()).copied().collect();
        let mut merged_b: Vec<TraceEvent> = sm1.iter().chain(sm0.iter()).copied().collect();
        normalize_trace(&mut merged_a);
        normalize_trace(&mut merged_b);
        assert_eq!(merged_a, merged_b);
        // (cycle, sm) blocks, intra-SM order preserved.
        let key: Vec<(u64, usize)> = merged_a.iter().map(|e| (e.cycle(), e.sm())).collect();
        assert_eq!(key, vec![(1, 0), (1, 0), (1, 1), (2, 1), (3, 0)]);
        let warps: Vec<usize> = merged_a
            .iter()
            .map(|e| match e {
                TraceEvent::Issue { warp, .. } => *warp,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(warps, vec![0, 1, 7, 8, 2]);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent::CtaDispatch {
            cycle: 12,
            sm: 0,
            cta: 3,
        };
        assert!(e.to_string().contains("dispatch cta3"));
        assert!(issue(9).to_string().contains("issue #2"));
        let b = TraceEvent::BarrierWait {
            cycle: 1,
            sm: 0,
            warp: 5,
        };
        assert!(b.to_string().contains("barrier"));
        let w = TraceEvent::WarpFinish {
            cycle: 1,
            sm: 0,
            warp: 5,
        };
        assert!(w.to_string().contains("finish"));
    }

    #[test]
    fn audit_event_cycles_and_formats() {
        let events = [
            TraceEvent::Collect {
                cycle: 3,
                sm: 0,
                warp: 1,
                mem: true,
            },
            TraceEvent::RfRead {
                cycle: 4,
                sm: 0,
                partition: RfPartition::Srf,
            },
            TraceEvent::RfWrite {
                cycle: 5,
                sm: 0,
                partition: RfPartition::FrfHigh,
            },
            TraceEvent::RfRepair {
                cycle: 6,
                sm: 0,
                repair: RepairKind::Spilled,
            },
            TraceEvent::Writeback {
                cycle: 7,
                sm: 0,
                warp: 2,
                reg: Reg(7),
            },
            TraceEvent::LsuComplete {
                cycle: 8,
                sm: 0,
                warp: 2,
            },
            TraceEvent::ScoreboardReserve {
                cycle: 9,
                sm: 0,
                warp: 2,
            },
            TraceEvent::ScoreboardRelease {
                cycle: 10,
                sm: 0,
                warp: 2,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.cycle(), 3 + i as u64);
        }
        assert!(events[0].to_string().contains("collect->mem"));
        assert!(events[1].to_string().contains("rf-read SRF"));
        assert!(events[2].to_string().contains("rf-write FRF_high"));
        assert!(events[3].to_string().contains("rf-repair spilled"));
        assert!(events[4].to_string().contains("writeback r7"));
        assert!(events[5].to_string().contains("lsu-complete"));
        assert!(events[6].to_string().contains("sb-reserve"));
        assert!(events[7].to_string().contains("sb-release"));
    }
}
