//! §V-C sensitivity — impact of a slower SRF on overall performance.
//!
//! Paper: "Our results show only 0.5% and 2.4% degradation in performance
//! when the access delay to the SRF is 4 cycles and 5 cycles,
//! respectively" (relative to the 3-cycle design).

use prf_bench::{experiment_gpu, geomean, header, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Sensitivity: SRF access latency (3 -> 4 -> 5 cycles)",
        "+0.5% at 4 cycles, +2.4% at 5 cycles vs the 3-cycle partitioned design",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    const SEEDS: u64 = 5;
    const LATENCIES: [u32; 3] = [3, 4, 5];

    // suite × 3 latencies as one matrix.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(|w| {
            LATENCIES.map(|lat| {
                let cfg = PartitionedRfConfig {
                    srf_latency: lat,
                    ..PartitionedRfConfig::paper_default()
                };
                Cell::new(w, &gpu, &RfKind::Partitioned(cfg))
            })
        })
        .collect();
    let (results, report, run_report) = run_cells_reported("sens_srf_latency", &cells, SEEDS);

    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "workload", "srf=3", "srf=4", "srf=5"
    );
    let mut norms: Vec<Vec<f64>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for (w, r) in suite.iter().zip(results.chunks(LATENCIES.len())) {
        let runs: Vec<f64> = r.iter().map(|a| a.cycles as f64).collect();
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3}",
            w.name,
            1.0,
            runs[1] / runs[0],
            runs[2] / runs[0]
        );
        for (i, run) in runs.iter().enumerate() {
            norms[i].push(run / runs[0]);
        }
    }
    println!("{:-<46}", "");
    println!(
        "{:<12} {:>10.3} {:>10.3} {:>10.3}   (paper: 1.000, 1.005, 1.024)",
        "GEOMEAN",
        geomean(&norms[0]),
        geomean(&norms[1]),
        geomean(&norms[2])
    );
    println!();
    println!("{}", report.footer());
    run_report.write();
}
