//! Chrome/Perfetto `trace_event` export.
//!
//! `--trace-out <path>` on any figure binary renders two streams into one
//! trace file loadable by `chrome://tracing` or <https://ui.perfetto.dev>:
//!
//! * **runner spans** (pid 1): one complete ("X") event per matrix job,
//!   timed in real microseconds from the matrix start, with the job's
//!   phase profile (setup/simulate/energy/audit) as nested spans and its
//!   retry/timeout outcome in the args; and
//! * **simulator events** (pid 2): the per-cycle pipeline trace
//!   ([`prf_sim::TraceEvent`]) of every captured launch, with one
//!   microsecond standing in for one GPU cycle and one track per SM.
//!
//! The format is the JSON-array flavour of the Trace Event spec:
//! `{"traceEvents":[...]}` with `ts`/`dur` in microseconds.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use prf_sim::TraceEvent;

use crate::json::Json;
use crate::runner::JobReport;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A complete ("X") event.
fn span(name: &str, pid: u64, tid: usize, ts_us: f64, dur_us: f64, args: Json) -> Json {
    Json::obj()
        .field("name", name)
        .field("ph", "X")
        .field("pid", pid)
        .field("tid", tid)
        .field("ts", ts_us)
        .field("dur", dur_us)
        .field("args", args)
}

/// An instant ("i") event, thread-scoped.
fn instant(name: &str, pid: u64, tid: usize, ts_us: f64, args: Json) -> Json {
    Json::obj()
        .field("name", name)
        .field("ph", "i")
        .field("s", "t")
        .field("pid", pid)
        .field("tid", tid)
        .field("ts", ts_us)
        .field("args", args)
}

/// Builds a `trace_event` stream from runner job reports and simulator
/// pipeline traces.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
    sim_events: usize,
    dropped_sim_events: u64,
}

const RUNNER_PID: u64 = 1;
const SIM_PID: u64 = 2;

/// Ceiling on simulator instant events per trace file. A full figure
/// matrix generates hundreds of millions of pipeline events; past this
/// point the file stops being loadable in a trace viewer, so the excess
/// is counted and reported instead of written.
const MAX_SIM_EVENTS: usize = 250_000;

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Number of events accumulated.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records one matrix job: a span over the job's wall-clock window
    /// (offset from the matrix start), nested phase spans from its
    /// [`prf_core::PhaseTimings`], and the job's pipeline trace on the
    /// simulator tracks. Each job gets its own runner track (`tid` = job
    /// index).
    pub fn add_job(&mut self, report: &JobReport) {
        let lane = report.index;
        let start = report.started;
        let args = Json::obj()
            .field("index", report.index)
            .field("outcome", report.outcome.to_string());
        self.events.push(span(
            &report.name,
            RUNNER_PID,
            lane,
            us(start),
            us(report.elapsed),
            args,
        ));
        if let Some(result) = &report.result {
            // Phases run back-to-back within the job's span.
            let mut at = start;
            let p = result.phases;
            for (name, dur) in [
                ("setup", p.setup),
                ("simulate", p.simulate),
                ("energy", p.energy),
                ("audit", p.audit),
            ] {
                if dur > Duration::ZERO {
                    self.events
                        .push(span(name, RUNNER_PID, lane, us(at), us(dur), Json::obj()));
                    at += dur;
                }
            }
            for launch in &result.per_launch {
                self.add_sim_events(&launch.trace);
            }
        }
    }

    /// Records simulator pipeline events (one µs per cycle, one track per
    /// SM). Events past the 250k-event cap are counted as dropped and
    /// reported by [`ChromeTrace::write`] rather than ballooning the file.
    pub fn add_sim_events(&mut self, trace: &[TraceEvent]) {
        for e in trace {
            if self.sim_events >= MAX_SIM_EVENTS {
                self.dropped_sim_events += 1;
                continue;
            }
            self.sim_events += 1;
            let (name, sm, ts, args) = match *e {
                TraceEvent::CtaDispatch { cycle, sm, cta } => (
                    "cta_dispatch",
                    sm,
                    cycle,
                    Json::obj().field("cta", u64::from(cta)),
                ),
                TraceEvent::Issue {
                    cycle,
                    sm,
                    warp,
                    pc,
                } => (
                    "issue",
                    sm,
                    cycle,
                    Json::obj().field("warp", warp).field("pc", pc),
                ),
                TraceEvent::BarrierWait { cycle, sm, warp } => {
                    ("barrier_wait", sm, cycle, Json::obj().field("warp", warp))
                }
                TraceEvent::WarpFinish { cycle, sm, warp } => {
                    ("warp_finish", sm, cycle, Json::obj().field("warp", warp))
                }
                TraceEvent::Collect {
                    cycle,
                    sm,
                    warp,
                    mem,
                } => (
                    "collect",
                    sm,
                    cycle,
                    Json::obj().field("warp", warp).field("mem", mem),
                ),
                TraceEvent::RfRead {
                    cycle,
                    sm,
                    partition,
                } => (
                    "rf_read",
                    sm,
                    cycle,
                    Json::obj().field("partition", partition.to_string()),
                ),
                TraceEvent::RfWrite {
                    cycle,
                    sm,
                    partition,
                } => (
                    "rf_write",
                    sm,
                    cycle,
                    Json::obj().field("partition", partition.to_string()),
                ),
                TraceEvent::RfRepair { cycle, sm, repair } => (
                    "rf_repair",
                    sm,
                    cycle,
                    Json::obj().field("repair", repair.to_string()),
                ),
                TraceEvent::Writeback {
                    cycle,
                    sm,
                    warp,
                    reg,
                } => (
                    "writeback",
                    sm,
                    cycle,
                    Json::obj()
                        .field("warp", warp)
                        .field("reg", u64::from(reg.0)),
                ),
                TraceEvent::LsuComplete { cycle, sm, warp } => {
                    ("lsu_complete", sm, cycle, Json::obj().field("warp", warp))
                }
                TraceEvent::ScoreboardReserve { cycle, sm, warp } => (
                    "scoreboard_reserve",
                    sm,
                    cycle,
                    Json::obj().field("warp", warp),
                ),
                TraceEvent::ScoreboardRelease { cycle, sm, warp } => (
                    "scoreboard_release",
                    sm,
                    cycle,
                    Json::obj().field("warp", warp),
                ),
            };
            self.events
                .push(instant(name, SIM_PID, sm, ts as f64, args));
        }
    }

    /// The `{"traceEvents":[...]}` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("traceEvents", Json::Arr(self.events.clone()))
            .field("displayTimeUnit", "ms")
    }

    /// Writes the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable path, full disk, …).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(self.to_json().to_json().as_bytes())?;
        f.write_all(b"\n")?;
        eprintln!("wrote {} ({} events)", path.display(), self.events.len());
        if self.dropped_sim_events > 0 {
            eprintln!(
                "trace: dropped {} simulator events beyond the {MAX_SIM_EVENTS}-event cap",
                self.dropped_sim_events
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_events_become_instant_events() {
        let mut ct = ChromeTrace::new();
        ct.add_sim_events(&[
            TraceEvent::Issue {
                cycle: 7,
                sm: 0,
                warp: 3,
                pc: 12,
            },
            TraceEvent::RfRead {
                cycle: 9,
                sm: 1,
                partition: prf_sim::RfPartition::Srf,
            },
        ]);
        assert_eq!(ct.len(), 2);
        let doc = ct.to_json();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("issue"));
        assert_eq!(events[0].get("ts").unwrap().as_u64(), Some(7));
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("partition")
                .unwrap()
                .as_str(),
            Some("SRF")
        );
        assert_eq!(events[1].get("tid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn sim_events_are_capped_not_unbounded() {
        let mut ct = ChromeTrace::new();
        let burst: Vec<TraceEvent> = (0..MAX_SIM_EVENTS as u64 + 10)
            .map(|cycle| TraceEvent::Issue {
                cycle,
                sm: 0,
                warp: 0,
                pc: 0,
            })
            .collect();
        ct.add_sim_events(&burst);
        assert_eq!(ct.len(), MAX_SIM_EVENTS);
        assert_eq!(ct.dropped_sim_events, 10);
    }

    #[test]
    fn document_shape_is_trace_event_json() {
        let ct = ChromeTrace::new();
        assert!(ct.is_empty());
        let text = ct.to_json().to_json();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            0
        );
    }
}
