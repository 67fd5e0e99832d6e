//! §V-C sensitivity — adaptive-FRF epoch length.
//!
//! Paper: with the threshold held at the same 20%-of-issue-slots ratio,
//! "the epoch length has a small impact on performance".

use prf_bench::{experiment_gpu, geomean, header, mean, run_cells_reported, Cell};
use prf_core::{AdaptiveFrfConfig, PartitionedRfConfig, RfKind};
use prf_sim::{RfPartition, SchedulerPolicy};

fn main() {
    header(
        "Sensitivity: adaptive-FRF epoch length (same 20% threshold ratio)",
        "epoch length has a small impact on performance",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let issue_width = gpu.issue_width() as u32;
    const SEEDS: u64 = 3;
    let epochs = [25u64, 50, 100, 200];

    // 4 epoch lengths × suite as one matrix.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = epochs
        .iter()
        .flat_map(|&ep| {
            let cfg = PartitionedRfConfig {
                adaptive: Some(AdaptiveFrfConfig::with_epoch(ep, issue_width)),
                ..PartitionedRfConfig::paper_default()
            };
            suite
                .iter()
                .map(|w| Cell::new(w, &gpu, &RfKind::Partitioned(cfg.clone())))
                .collect::<Vec<_>>()
        })
        .collect();
    let (results, report, run_report) = run_cells_reported("sens_epoch", &cells, SEEDS);

    println!(
        "{:<10} {:>12} {:>14} {:>16}",
        "epoch", "geomean time", "energy saving", "FRF_low share"
    );
    let mut reference: Option<f64> = None;
    for (&ep, block) in epochs.iter().zip(results.chunks(suite.len())) {
        let (mut cycles, mut savings, mut low) = (Vec::new(), Vec::new(), Vec::new());
        for r in block {
            cycles.push(r.cycles as f64);
            savings.push(r.dynamic_saving());
            let pa = &r.stats.partition_accesses;
            let frf = pa.fraction(RfPartition::FrfHigh) + pa.fraction(RfPartition::FrfLow);
            low.push(if frf > 0.0 {
                pa.fraction(RfPartition::FrfLow) / frf
            } else {
                0.0
            });
        }
        let g = geomean(&cycles);
        let norm = match reference {
            None => {
                reference = Some(g);
                1.0
            }
            Some(r) => g / r,
        };
        println!(
            "{:<10} {:>12.3} {:>13.1}% {:>15.1}%",
            ep,
            norm,
            100.0 * mean(&savings),
            100.0 * mean(&low)
        );
    }
    println!();
    println!("paper: performance is insensitive to the epoch length at a fixed threshold ratio");
    println!();
    println!("{}", report.footer());
    run_report.write();
}
