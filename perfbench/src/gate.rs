//! The correctness gate's stored reference: every simulated field of every
//! matrix job at the default seed, captured once and compared bit for bit
//! on later runs.

use std::path::PathBuf;

use prf_bench::json::Json;
use prf_core::ExperimentResult;

/// The seed whose results are pinned by a stored reference.
pub const REFERENCE_SEED: u64 = 0;

/// The simulated fields of one job that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Job label, `<workload>/<rf>`.
    pub name: String,
    /// Simulated cycles over all launches.
    pub cycles: u64,
    /// Warp instructions retired.
    pub warp_insts: u64,
    /// RF reads per partition, dense by `RfPartition::index`.
    pub reads: [u64; 8],
    /// RF writes per partition, dense by `RfPartition::index`.
    pub writes: [u64; 8],
    /// Bit patterns of the dynamic, baseline dynamic, leakage, baseline
    /// leakage and repair energies.
    pub energy_bits: [u64; 5],
}

impl Fingerprint {
    /// The fingerprint of one job's result.
    pub fn of(name: &str, r: &ExperimentResult) -> Self {
        let (reads, writes) = r.stats.partition_accesses.raw();
        Fingerprint {
            name: name.to_string(),
            cycles: r.cycles,
            warp_insts: r.stats.instructions,
            reads: *reads,
            writes: *writes,
            energy_bits: [
                r.dynamic_energy_pj.to_bits(),
                r.baseline_dynamic_energy_pj.to_bits(),
                r.leakage_energy_pj.to_bits(),
                r.baseline_leakage_energy_pj.to_bits(),
                r.repair_energy_pj.to_bits(),
            ],
        }
    }

    fn to_json(&self) -> Json {
        let nums = |xs: &[u64]| Json::Arr(xs.iter().map(|&x| Json::from(x)).collect());
        Json::obj()
            .field("name", self.name.as_str())
            .field("cycles", self.cycles)
            .field("warp_insts", self.warp_insts)
            .field("reads", nums(&self.reads))
            .field("writes", nums(&self.writes))
            .field(
                "energy_bits",
                Json::Arr(
                    self.energy_bits
                        .iter()
                        .map(|b| Json::from(format!("{b:016x}")))
                        .collect(),
                ),
            )
    }

    fn from_json(doc: &Json) -> Option<Self> {
        fn array<const N: usize>(
            doc: &Json,
            parse: impl Fn(&Json) -> Option<u64>,
        ) -> Option<[u64; N]> {
            let items = doc.as_arr()?;
            let values: Vec<u64> = items.iter().map(parse).collect::<Option<_>>()?;
            values.try_into().ok()
        }
        Some(Fingerprint {
            name: doc.get("name")?.as_str()?.to_string(),
            cycles: doc.get("cycles")?.as_u64()?,
            warp_insts: doc.get("warp_insts")?.as_u64()?,
            reads: array(doc.get("reads")?, Json::as_u64)?,
            writes: array(doc.get("writes")?, Json::as_u64)?,
            energy_bits: array(doc.get("energy_bits")?, |j| {
                u64::from_str_radix(j.as_str()?, 16).ok()
            })?,
        })
    }
}

fn reference_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}_seed{REFERENCE_SEED}.json"))
}

/// Loads the stored reference of a workload.
pub fn load(workload: &str) -> Result<Vec<Fingerprint>, String> {
    let path = reference_path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("jobs")
        .and_then(Json::as_arr)
        .and_then(|jobs| jobs.iter().map(Fingerprint::from_json).collect())
        .ok_or_else(|| format!("{}: malformed reference", path.display()))
}

/// Stores `jobs` as the reference of a workload.
pub fn store(workload: &str, jobs: &[Fingerprint]) -> std::io::Result<PathBuf> {
    let path = reference_path(workload);
    let doc = Json::obj()
        .field("workload", workload)
        .field("seed", REFERENCE_SEED)
        .field(
            "jobs",
            Json::Arr(jobs.iter().map(Fingerprint::to_json).collect()),
        );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = doc.to_json();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_round_trip_through_json() {
        let fp = Fingerprint {
            name: "BFS/RFC".into(),
            cycles: 58_672,
            warp_insts: 60_672,
            reads: [1, 2, 3, 4, 5, 6, 7, 8],
            writes: [8, 7, 6, 5, 4, 3, 2, 1],
            energy_bits: [0.1f64.to_bits(), u64::MAX, 0, 1, (-2.5f64).to_bits()],
        };
        let text = fp.to_json().to_json();
        let back = Fingerprint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn stored_references_cover_both_matrix_workloads() {
        for (workload, jobs) in [("suite_gto", 68), ("audited_tl_4sm", 34)] {
            let reference = load(workload).unwrap();
            assert_eq!(reference.len(), jobs, "{workload}");
        }
    }
}
