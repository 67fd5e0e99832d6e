//! Fig. 10 — partitioned register file access distribution: what fraction
//! of accesses each physical structure (FRF_high, FRF_low, SRF) services,
//! with four registers in the FRF and the adaptive controller on.
//!
//! Paper: "the proposed partitioned RF is able to forward 62% of the
//! accesses to the FRF"; at the 85/400 threshold, "22% of the accesses to
//! the FRF take place when the FRF is in the FRF_low mode"; high-compute
//! workloads like sad and hotspot rarely enter low mode.

use prf_bench::{experiment_gpu, header, mean, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::{RfPartition, SchedulerPolicy};

fn main() {
    header(
        "Figure 10: partitioned RF access distribution (FRF=4 regs, adaptive on)",
        "62% of accesses to the FRF; 22% of FRF accesses in FRF_low mode",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite.iter().map(|w| Cell::new(w, &gpu, &rf)).collect();
    let (results, report, mut run_report) =
        run_cells_reported("fig10_access_distribution", &cells, 1);
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>12}",
        "workload", "FRF_high", "FRF_low", "SRF", "low/FRF"
    );
    let (mut frf_tot, mut low_of_frf) = (Vec::new(), Vec::new());
    for (w, r) in suite.iter().zip(&results) {
        let pa = &r.stats.partition_accesses;
        let hi = pa.fraction(RfPartition::FrfHigh);
        let lo = pa.fraction(RfPartition::FrfLow);
        let srf = pa.fraction(RfPartition::Srf);
        let low_share = if hi + lo > 0.0 { lo / (hi + lo) } else { 0.0 };
        println!(
            "{:<12} {:>8.1}% {:>8.1}% {:>8.1}% {:>11.1}%",
            w.name,
            100.0 * hi,
            100.0 * lo,
            100.0 * srf,
            100.0 * low_share
        );
        frf_tot.push(hi + lo);
        low_of_frf.push(low_share);
    }
    println!("{:-<56}", "");
    println!(
        "{:<12} FRF total {:>5.1}%  (paper 62%)   FRF_low share {:>5.1}%  (paper 22%)",
        "MEAN",
        100.0 * mean(&frf_tot),
        100.0 * mean(&low_of_frf)
    );
    println!("{}", report.footer());
    run_report.add_metric("mean_frf_access_share", mean(&frf_tot));
    run_report.add_metric("mean_frf_low_share", mean(&low_of_frf));
    run_report.write();
}
