//! Structured, schema-versioned run reports.
//!
//! Every figure binary emits a `BENCH_<name>.json` next to its printed
//! table: per-job cycles, instruction counts, the energy breakdown, audit
//! status, repair counts, the retry/timeout outcome, and wall-clock phase
//! profile — so the bench trajectory is diffable across commits without
//! re-parsing human-oriented tables. The file lands in `$PRF_REPORT_DIR`
//! when set, else the current directory; names pass through
//! [`crate::report::safe_file_name`].
//!
//! The schema is intentionally flat and versioned ([`SCHEMA_VERSION`]);
//! consumers should reject files whose `schema_version` they don't know.

use std::path::{Path, PathBuf};
use std::time::Duration;

use prf_core::{ExperimentResult, PhaseTimings};

use crate::json::Json;
use crate::report::{safe_file_name, write_into, CsvTable};
use crate::runner::{JobOutcome, MatrixReport};
use crate::vfs::Vfs;

/// Version of the `BENCH_<name>.json` schema. Bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

fn ms(d: Duration) -> Json {
    Json::Num(d.as_secs_f64() * 1e3)
}

fn phases_json(p: &PhaseTimings) -> Json {
    Json::obj()
        .field("setup_ms", ms(p.setup))
        .field("simulate_ms", ms(p.simulate))
        .field("energy_ms", ms(p.energy))
        .field("audit_ms", ms(p.audit))
}

pub(crate) fn outcome_json(outcome: &JobOutcome) -> Json {
    match outcome {
        JobOutcome::Completed => Json::obj().field("kind", "completed"),
        JobOutcome::Retried { attempts } => Json::obj()
            .field("kind", "retried")
            .field("attempts", u64::from(*attempts)),
        JobOutcome::Panicked { message } => Json::obj()
            .field("kind", "panicked")
            .field("message", message.as_str()),
        JobOutcome::TimedOut { timeout } => Json::obj()
            .field("kind", "timed_out")
            .field("timeout_s", timeout.as_secs_f64()),
        JobOutcome::Rejected { reason } => Json::obj()
            .field("kind", "rejected")
            .field("reason", reason.as_str()),
        JobOutcome::Skipped => Json::obj().field("kind", "skipped"),
    }
}

pub(crate) fn result_json(r: &ExperimentResult) -> Json {
    let audit = match &r.audit {
        Some(a) => Json::obj()
            .field("checks", a.checks)
            .field("violations", a.violations.len())
            .field("clean", a.is_clean()),
        None => Json::Null,
    };
    let sampled_windows: usize = r
        .per_launch
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.windows.len())
        .sum();
    Json::obj()
        .field("rf", r.rf_name)
        .field("cycles", r.cycles)
        .field("instructions", r.stats.instructions)
        .field("ipc", r.stats.instructions as f64 / r.cycles.max(1) as f64)
        .field("dynamic_energy_pj", r.dynamic_energy_pj)
        .field("baseline_dynamic_energy_pj", r.baseline_dynamic_energy_pj)
        .field("leakage_energy_pj", r.leakage_energy_pj)
        .field("baseline_leakage_energy_pj", r.baseline_leakage_energy_pj)
        .field("repair_energy_pj", r.repair_energy_pj)
        .field(
            "repairs",
            Json::obj()
                .field("remapped", r.telemetry.fault_remaps)
                .field("spilled", r.telemetry.fault_spills)
                .field("escalated", r.telemetry.fault_escalations),
        )
        .field("audit", audit)
        .field("sampled_windows", sampled_windows)
        .field("phases", phases_json(&r.phases))
}

/// Accumulates one figure binary's structured output and writes it as
/// `BENCH_<name>.json`.
#[derive(Debug)]
pub struct RunReport {
    bench: String,
    jobs: Vec<Json>,
    metrics: Vec<(String, Json)>,
    tables: Vec<(String, Json)>,
    matrix: Option<Json>,
}

impl RunReport {
    /// Starts a report for the named bench binary.
    pub fn new(bench: &str) -> Self {
        RunReport {
            bench: bench.to_string(),
            jobs: Vec::new(),
            metrics: Vec::new(),
            tables: Vec::new(),
            matrix: None,
        }
    }

    /// Records one matrix job: its real outcome (completed / retried /
    /// panicked / timed out), worker wall-clock, and — when it produced
    /// one — the experiment result.
    pub fn add_job(
        &mut self,
        name: &str,
        outcome: &JobOutcome,
        elapsed: Duration,
        result: Option<&ExperimentResult>,
    ) {
        self.jobs.push(
            Json::obj()
                .field("name", name)
                .field("outcome", outcome_json(outcome))
                .field("elapsed_ms", ms(elapsed))
                .field("result", result.map_or(Json::Null, result_json)),
        );
    }

    /// Records a named summary metric (geomeans, savings, …).
    pub fn add_metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), Json::Num(value)));
    }

    /// Records a rendered table (same data as the CSV export).
    pub fn add_table(&mut self, name: &str, table: &CsvTable) {
        let columns: Vec<Json> = table.columns().iter().map(|c| c.as_str().into()).collect();
        let rows: Vec<Json> = table
            .rows()
            .iter()
            .map(|row| Json::Arr(row.iter().map(|f| f.as_str().into()).collect()))
            .collect();
        self.tables.push((
            name.to_string(),
            Json::obj()
                .field("columns", Json::Arr(columns))
                .field("rows", Json::Arr(rows)),
        ));
    }

    /// Attaches the matrix footer data (throughput, audit coverage,
    /// degradation counts, phase totals). Cache-durability counters are
    /// emitted only when nonzero so a healthy run's report stays
    /// byte-identical to previous releases (and cold/warm runs over a
    /// cache still compare equal).
    pub fn set_matrix(&mut self, report: &MatrixReport) {
        let mut matrix = Json::obj()
            .field("jobs", report.jobs)
            .field("threads", report.threads)
            .field("elapsed_ms", ms(report.elapsed))
            .field("audited_jobs", report.audited_jobs)
            .field("audit_violations", report.audit_violations)
            .field("retried_jobs", report.retried_jobs)
            .field("failed_jobs", report.failed_jobs);
        if report.cache_write_errors > 0 {
            matrix = matrix.field("cache_write_errors", report.cache_write_errors);
        }
        if report.cache_quarantined > 0 {
            matrix = matrix.field("cache_quarantined", report.cache_quarantined);
        }
        self.matrix = Some(matrix.field("phases", phases_json(&report.phase_totals)));
    }

    /// The whole report as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("bench", self.bench.as_str())
            .field("jobs", Json::Arr(self.jobs.clone()))
            .field("metrics", Json::Obj(self.metrics.clone()))
            .field("tables", Json::Obj(self.tables.clone()))
            .field("matrix", self.matrix.clone().unwrap_or(Json::Null))
    }

    /// Writes `BENCH_<name>.json` into `$PRF_REPORT_DIR` (created if
    /// needed) or the current directory, and returns the path. Returns
    /// `None` — with a diagnostic on stderr — only on I/O failure.
    pub fn write(&self) -> Option<PathBuf> {
        self.write_in(&crate::harness_args().report_dir, &crate::vfs::RealVfs)
    }

    /// [`RunReport::write`] into an explicit directory over an explicit
    /// [`Vfs`] backend, so report persistence is covered by the
    /// injected-fault tests: a report that cannot be written is a
    /// diagnostic, never a panic.
    pub fn write_in(&self, dir: &Path, vfs: &dyn Vfs) -> Option<PathBuf> {
        let file = format!("BENCH_{}.json", safe_file_name(&self.bench));
        let mut body = self.to_json().to_json();
        body.push('\n');
        write_into(dir, &file, body.as_bytes(), vfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_has_versioned_schema() {
        let doc = RunReport::new("fig99_test").to_json();
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("fig99_test"));
        assert_eq!(doc.get("jobs").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(doc.get("matrix"), Some(&Json::Null));
    }

    #[test]
    fn outcomes_serialize_with_their_detail() {
        assert_eq!(
            outcome_json(&JobOutcome::Retried { attempts: 3 })
                .get("attempts")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let timed = outcome_json(&JobOutcome::TimedOut {
            timeout: Duration::from_secs(5),
        });
        assert_eq!(timed.get("kind").unwrap().as_str(), Some("timed_out"));
        assert_eq!(timed.get("timeout_s").unwrap().as_f64(), Some(5.0));
        let panicked = outcome_json(&JobOutcome::Panicked {
            message: "boom".into(),
        });
        assert_eq!(panicked.get("message").unwrap().as_str(), Some("boom"));
        let rejected = outcome_json(&JobOutcome::Rejected {
            reason: "rejected input: invalid config: num_sms: must be at least 1".into(),
        });
        assert_eq!(rejected.get("kind").unwrap().as_str(), Some("rejected"));
        assert!(rejected
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("num_sms"));
    }

    #[test]
    fn tables_and_metrics_round_trip() {
        let mut rr = RunReport::new("roundtrip");
        let mut t = CsvTable::new(["workload", "saving"]);
        t.row(["BFS", "0.61"]);
        rr.add_table("fig11", &t);
        rr.add_metric("geomean_saving", 0.58);
        let text = rr.to_json().to_json();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("geomean_saving")
                .unwrap()
                .as_f64(),
            Some(0.58)
        );
        let table = parsed.get("tables").unwrap().get("fig11").unwrap();
        assert_eq!(
            table.get("columns").unwrap().as_arr().unwrap()[0].as_str(),
            Some("workload")
        );
        assert_eq!(
            table.get("rows").unwrap().as_arr().unwrap()[0]
                .as_arr()
                .unwrap()[1]
                .as_str(),
            Some("0.61")
        );
    }

    #[test]
    fn failed_create_or_write_returns_none_without_panicking() {
        use crate::vfs::{FaultPlan, FaultyVfs};
        let dir = std::env::temp_dir().join(format!("prf_report_faults_{}", std::process::id()));
        let report = RunReport::new("faulty");
        let vfs = FaultyVfs::new();
        // The first mutation (creating the directory) loses power.
        vfs.set_plan(FaultPlan {
            power_cut_after_ops: Some(0),
            ..FaultPlan::default()
        });
        assert_eq!(report.write_in(&dir, &vfs), None);
        vfs.revive();
        vfs.set_plan(FaultPlan {
            fail_writes: true,
            ..FaultPlan::default()
        });
        assert_eq!(report.write_in(&dir, &vfs), None);
        vfs.set_plan(FaultPlan {
            torn_write_bytes: Some(8),
            ..FaultPlan::default()
        });
        assert_eq!(report.write_in(&dir, &vfs), None);
        vfs.revive();
        let path = report.write_in(&dir, &vfs).expect("healthy disk");
        assert_eq!(path, dir.join("BENCH_faulty.json"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
