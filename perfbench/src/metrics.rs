//! Every metric the benchmark prints, with its unit and the workloads
//! that exercise it. `BENCHMARK.json` lists the same names; a self-test
//! keeps the two in step.

use prf_bench::json::Json;

/// Which workloads exercise a per-layer metric. On the others it is
/// printed as 0: the layer does no work there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every workload.
    All,
    /// `suite_gto` and `audited_tl_4sm`.
    Matrix,
    /// `audited_tl_4sm` only.
    Audited,
    /// `serve_mixed`, and the traced run of `audited_tl_4sm`.
    Serve,
}

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_kwips", "kwinst/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`): name, unit and scope.
pub const PER_LAYER: &[(&str, &str, Scope)] = &[
    ("workloads.build_ms", "ms", Scope::All),
    ("isa.validate_ms", "ms", Scope::All),
    ("finfet.faultmap_ms", "ms", Scope::Audited),
    ("sim.simulate_s", "s", Scope::Matrix),
    ("sim.ns_per_cycle", "ns", Scope::Matrix),
    ("sim.ns_per_winst", "ns", Scope::Matrix),
    ("sim.skip_frac", "frac", Scope::Matrix),
    ("sim.cycles", "count", Scope::Matrix),
    ("sim.warp_insts", "count", Scope::Matrix),
    ("sim.bank_conflict_waits", "count", Scope::Matrix),
    ("sim.collector_stalls", "count", Scope::Matrix),
    ("sim.stall_mem", "count", Scope::Matrix),
    ("sim.stall_alu_dep", "count", Scope::Matrix),
    ("sim.stall_barrier", "count", Scope::Matrix),
    ("core.setup_ms", "ms", Scope::Matrix),
    ("core.energy_ms", "ms", Scope::Matrix),
    ("core.audit_s", "s", Scope::Audited),
    ("core.frf_access_frac", "frac", Scope::Matrix),
    ("core.rfc_hit_frac", "frac", Scope::Matrix),
    ("core.fault_repairs", "count", Scope::Audited),
    ("runner.overhead_ms", "ms", Scope::Matrix),
    ("runner.retried", "count", Scope::Matrix),
    ("runner.failed", "count", Scope::Matrix),
    ("digest.job_us", "us", Scope::Serve),
    ("cache.load_p50_us", "us", Scope::Serve),
    ("cache.load_p99_us", "us", Scope::Serve),
    ("cache.store_ms", "ms", Scope::Serve),
    ("cache.hit_frac", "frac", Scope::Serve),
    ("json.report_us", "us", Scope::Serve),
    ("journal.append_p50_us", "us", Scope::Serve),
    ("journal.append_p99_us", "us", Scope::Serve),
    ("serve.submit_rtt_ms", "ms", Scope::Serve),
    ("serve.fetch_rtt_ms", "ms", Scope::Serve),
    ("serve.queue_ms", "ms", Scope::Serve),
    ("serve.run_ms", "ms", Scope::Serve),
    ("serve.hit_p50_ms", "ms", Scope::Serve),
    ("serve.miss_p50_ms", "ms", Scope::Serve),
    ("loadgen.late_p99_ms", "ms", Scope::Serve),
    ("loadgen.backlog_end", "count", Scope::Serve),
    ("latency.samples", "count", Scope::All),
    ("latency.tail_pct", "pct", Scope::All),
    ("trace.overhead_frac", "frac", Scope::All),
];

/// Collects one run's metric values and renders them in table order.
#[derive(Debug)]
pub struct Metrics {
    table: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Metrics {
    /// End-to-end metrics, all unset.
    pub fn end_to_end() -> Self {
        Metrics {
            table: END_TO_END.iter().map(|&(n, u)| (n, u, None)).collect(),
        }
    }

    /// Per-layer metrics, with those outside `in_scope` preset to 0.
    pub fn per_layer(in_scope: impl Fn(Scope) -> bool) -> Self {
        Metrics {
            table: PER_LAYER
                .iter()
                .map(|&(n, u, s)| (n, u, if in_scope(s) { None } else { Some(0.0) }))
                .collect(),
        }
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside this table: every printed name must be
    /// listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .table
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the benchmark's table"));
        slot.2 = Some(value);
    }

    /// The `metrics` object of the result line. Non-finite values (a
    /// failed request's infinite latency) are printed as `f64::MAX` so
    /// the line stays valid JSON.
    ///
    /// # Panics
    ///
    /// Panics if a metric in scope was never set.
    pub fn to_json(&self) -> Json {
        let mut out = Json::obj();
        for &(name, unit, value) in &self.table {
            let v = value.unwrap_or_else(|| panic!("metric {name:?} was never measured"));
            let v = if v.is_finite() { v } else { f64::MAX };
            out = out.field(name, Json::obj().field("value", v).field("unit", unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// True for a name made only of `[A-Za-z0-9_.-]`, starting with a letter
    /// or digit, at most 64 characters long.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn printed(metrics: &Metrics) -> Vec<(String, String)> {
        match metrics.to_json() {
            Json::Obj(fields) => fields
                .into_iter()
                .map(|(name, v)| (name, v.get("unit").unwrap().as_str().unwrap().to_string()))
                .collect(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn printed_names_match_benchmark_json_exactly() {
        let mut e2e = Metrics::end_to_end();
        for (name, _) in END_TO_END {
            e2e.set(name, 1.0);
        }
        assert_eq!(printed(&e2e), listed("end_to_end"));
        let layers = Metrics::per_layer(|_| false);
        assert_eq!(printed(&layers), listed("per_layer"));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name("sim kwips"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's table")]
    fn unknown_names_are_refused() {
        Metrics::end_to_end().set("made_up", 1.0);
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn unset_metrics_in_scope_are_refused() {
        Metrics::per_layer(|s| s == Scope::All).to_json();
    }
}
