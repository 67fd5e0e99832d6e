//! §III-B sensitivity — conservative swap-table pipelining.
//!
//! Paper: the CAM search (55–105 ps) fits inside the register-access
//! cycle; "But if we conservatively assumed that the swapping table access
//! adds one cycle to the register access pipeline then the overall
//! performance overhead is still less than 1%."

use prf_bench::{experiment_gpu, geomean, header, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Sensitivity: swap-table lookup folded into the access vs +1 pipeline cycle",
        "conservative +1 cycle costs <1% extra overall (§III-B)",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    const SEEDS: u64 = 3;
    // Swap-table lookup integrated into the access, then +1 cycle.
    let rfs = [false, true].map(|extra| {
        RfKind::Partitioned(PartitionedRfConfig {
            swap_table_extra_cycle: extra,
            ..PartitionedRfConfig::paper_default(gpu.num_rf_banks)
        })
    });
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(|w| rfs.iter().map(|rf| Cell::new(w, &gpu, rf)))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("sens_swap_table", &cells, SEEDS);
    let mut cycles = [Vec::new(), Vec::new()];
    println!("{:<12} {:>12} {:>12}", "workload", "integrated", "+1 cycle");
    for (w, r) in suite.iter().zip(results.chunks(2)) {
        let row = [r[0].cycles as f64, r[1].cycles as f64];
        cycles[0].push(row[0]);
        cycles[1].push(row[1]);
        println!("{:<12} {:>12.3} {:>12.3}", w.name, 1.0, row[1] / row[0]);
    }
    let g0 = geomean(&cycles[0]);
    let g1 = geomean(&cycles[1]);
    println!("{:-<38}", "");
    println!(
        "{:<12} {:>12.3} {:>12.3}   (paper: +1 cycle costs <1%)",
        "GEOMEAN",
        1.0,
        g1 / g0
    );
    println!("{}", report.footer());
    run_report.add_metric("geomean_extra_cycle_overhead", g1 / g0);
    run_report.write();
}
