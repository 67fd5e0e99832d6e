//! Ablation — what if the NTV register-file banks were *not* pipelined?
//!
//! The paper's 7.1% NTV penalty (and our reproduction of it) assumes a
//! bank accepts a new request each cycle while a multi-cycle access delays
//! only its data. This ablation turns that off: a 3-cycle access occupies
//! its bank for 3 cycles, so the NTV register file loses throughput as
//! well as latency. It quantifies why the microarchitectural framing
//! ("latency, not bandwidth") is load-bearing for the whole design.

use prf_bench::{experiment_gpu, geomean, header, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::{GpuConfig, SchedulerPolicy};

fn main() {
    header(
        "Ablation: pipelined vs unpipelined RF banks",
        "(not in the paper) multi-cycle banks must be pipelined or NTV throughput collapses",
    );
    const SEEDS: u64 = 3;
    let modes = [("pipelined", true), ("unpipelined", false)];

    // 2 bank modes × suite × {base, NTV, partitioned} as one matrix.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = modes
        .iter()
        .flat_map(|&(_, pipelined)| {
            let gpu = GpuConfig {
                rf_pipelined: pipelined,
                ..experiment_gpu(SchedulerPolicy::Gto)
            };
            let part = RfKind::Partitioned(PartitionedRfConfig::paper_default());
            suite
                .iter()
                .flat_map(|w| {
                    [
                        Cell::new(w, &gpu, &RfKind::MrfStv),
                        Cell::new(w, &gpu, &RfKind::MrfNtv { latency: 3 }),
                        Cell::new(w, &gpu, &part),
                    ]
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let (results, report, run_report) = run_cells_reported("ablation_unpipelined", &cells, SEEDS);

    println!(
        "{:<14} {:>16} {:>16}",
        "banks", "MRF@NTV overhead", "partitioned ovh."
    );
    let per_mode = suite.len() * 3;
    for ((label, _), block) in modes.iter().zip(results.chunks(per_mode)) {
        let (mut ntv_n, mut part_n) = (Vec::new(), Vec::new());
        for r in block.chunks(3) {
            let (base, ntv, p) = (&r[0], &r[1], &r[2]);
            ntv_n.push(ntv.normalized_time(base));
            part_n.push(p.normalized_time(base));
        }
        println!(
            "{:<14} {:>15.1}% {:>15.1}%",
            label,
            100.0 * (geomean(&ntv_n) - 1.0),
            100.0 * (geomean(&part_n) - 1.0)
        );
    }
    println!();
    println!("With unpipelined banks the all-NTV design pays a bandwidth penalty on");
    println!("every access; the partitioned RF contains the damage because most");
    println!("accesses stay on the 1-cycle FRF — the paper's argument, sharpened.");
    println!();
    println!("{}", report.footer());
    run_report.write();
}
