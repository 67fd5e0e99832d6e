//! §V-B design-space exploration — the adaptive-FRF low-compute threshold.
//!
//! Paper: "We did a detailed design space exploration of this threshold to
//! see the energy savings versus potential performance penalties. Our
//! results show that any threshold around 85 works well (average
//! performance overhead is less than 0.5%) … At this threshold 22% of the
//! accesses to the FRF take place when the FRF is in the FRF_low mode."

use prf_bench::{experiment_gpu, geomean, header, mean, run_cells_reported, Cell};
use prf_core::{AdaptiveFrfConfig, PartitionedRfConfig, RfKind};
use prf_sim::{RfPartition, SchedulerPolicy};

fn main() {
    header(
        "Sensitivity: adaptive-FRF issue threshold (out of 400 slots / 50-cycle epoch)",
        "any threshold around 85 works well; ~0.5% extra overhead; 22% of FRF accesses in low mode",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    const SEEDS: u64 = 3;
    let thresholds = [0u32, 40, 85, 130, 200, 400];

    // 6 thresholds × suite as one matrix.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = thresholds
        .iter()
        .flat_map(|&threshold| {
            let cfg = PartitionedRfConfig {
                adaptive: Some(AdaptiveFrfConfig {
                    epoch_length: 50,
                    threshold,
                }),
                ..PartitionedRfConfig::paper_default()
            };
            suite
                .iter()
                .map(|w| Cell::new(w, &gpu, &RfKind::Partitioned(cfg.clone())))
                .collect::<Vec<_>>()
        })
        .collect();
    let (results, report, run_report) = run_cells_reported("sens_threshold", &cells, SEEDS);

    println!(
        "{:<10} {:>14} {:>14} {:>16}",
        "threshold", "time vs t=0", "dyn saving", "FRF_low share"
    );
    let mut reference: Option<f64> = None;
    for (&threshold, block) in thresholds.iter().zip(results.chunks(suite.len())) {
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
        let r0 = *reference.get_or_insert(g);
        let marker = if threshold == 85 {
            "  <-- paper's design point"
        } else {
            ""
        };
        println!(
            "{:<10} {:>14.3} {:>13.1}% {:>15.1}%{marker}",
            threshold,
            g / r0,
            100.0 * mean(&savings),
            100.0 * mean(&low)
        );
    }
    println!();
    println!("threshold 0 pins FRF_high (no adaptive savings); threshold 400 pins FRF_low");
    println!("(max savings, max latency). The knee sits around the paper's 85.");
    println!();
    println!("{}", report.footer());
    run_report.write();
}
