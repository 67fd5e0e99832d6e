//! In-memory span recording for the traced run.
//!
//! Spans are recorded at the layer boundaries the benchmark itself calls
//! (set-up steps, the runner, the prf-serve protocol, direct calls into
//! digest/cache/json/journal) and kept in memory until the run ends, when
//! they are written as a Chrome `trace_event` file that Perfetto opens.
//! A span's self time is its duration minus the part of its interval that
//! its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use prf_bench::json::Json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.simulate`.
    pub name: &'static str,
    /// Start, as an offset from the tracer's origin.
    pub start: Duration,
    /// End, as an offset from the tracer's origin.
    pub end: Duration,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one job or request.
    pub id: u64,
}

/// An append-only span store. Disabled tracers record nothing.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose offsets count from now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Offset of `t` from the origin.
    pub fn offset(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.origin)
    }

    /// Records a span over `[start, end]` (instants) and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        id: u64,
    ) -> Option<SpanId> {
        self.record_offsets(name, self.offset(start), self.offset(end), parent, id)
    }

    /// Records a span given as offsets from the origin.
    pub fn record_offsets(
        &mut self,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<SpanId>,
        id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Starts a span that [`Tracer::close`] ends, for a parent whose
    /// children are recorded before it finishes.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, id: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    /// Ends a span started by [`Tracer::open`] now.
    pub fn close(&mut self, span: Option<SpanId>) {
        let end = self.offset(Instant::now());
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.end = end;
        }
    }

    /// Runs `f` inside a span and returns its value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0, Instant::now(), parent, id);
        out
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut cursor = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(Duration::ZERO) += t;
        }
        out
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Renders the spans as a Chrome `trace_event` document: one complete
    /// event per span, on one track per job/request id, with the parent
    /// and self time in the args.
    pub fn to_chrome_json(&self) -> Json {
        let selfs = self.self_times();
        let events: Vec<Json> = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_t))| {
                let args = Json::obj()
                    .field("span", i)
                    .field(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .field("self_us", self_t.as_secs_f64() * 1e6);
                Json::obj()
                    .field("name", s.name)
                    .field("ph", "X")
                    .field("pid", 1u64)
                    .field("tid", s.id)
                    .field("ts", s.start.as_secs_f64() * 1e6)
                    .field("dur", (s.end - s.start).as_secs_f64() * 1e6)
                    .field("args", args)
            })
            .collect();
        Json::obj().field("traceEvents", Json::Arr(events))
    }

    /// Writes [`Tracer::to_chrome_json`] to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_json().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record_offsets("root", ms(0), ms(100), None, 0);
        // Overlapping children cover [10, 50]; a child poking past the
        // parent's end is clipped at 100.
        t.record_offsets("a", ms(10), ms(40), root, 0);
        t.record_offsets("b", ms(30), ms(50), root, 0);
        let c = t.record_offsets("c", ms(90), ms(120), root, 0);
        t.record_offsets("leaf", ms(95), ms(100), c, 0);
        let selfs = t.self_times();
        assert_eq!(selfs[0], ms(100 - 40 - 10));
        assert_eq!(selfs[1], ms(30));
        assert_eq!(selfs[3], ms(25));
        assert_eq!(t.self_time_by_name()["leaf"], ms(5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record_offsets("x", ms(0), ms(1), None, 0), None);
        assert_eq!(t.time("y", None, 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_export_carries_parent_and_id() {
        let mut t = Tracer::new(true);
        let root = t.record_offsets("job", ms(0), ms(2), None, 42);
        t.record_offsets("sim.simulate", ms(1), ms(2), root, 42);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("tid").and_then(Json::as_u64), Some(42));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(child.get("dur").and_then(Json::as_f64), Some(1000.0));
    }
}
