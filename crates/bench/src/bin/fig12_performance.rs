//! Fig. 12 — execution time of the proposed designs, normalised to the
//! MRF@STV baseline under the *same* scheduler.
//!
//! Paper: the partitioned RF (hybrid profiling, adaptive FRF) loses less
//! than 2% performance under GTO; running the whole MRF at NTV loses
//! 7.1%; hybrid profiling beats compiler-only profiling by ~2%.

use prf_bench::report::CsvTable;
use prf_bench::{experiment_gpu, geomean, header, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, ProfilingStrategy, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Figure 12: normalised execution time (lower is better)",
        "partitioned <2% overhead (GTO); MRF@NTV 7.1%; hybrid ~2% better than compiler",
    );
    let tl = SchedulerPolicy::TwoLevel {
        active_per_scheduler: 8,
    };
    let gpu_gto = experiment_gpu(SchedulerPolicy::Gto);
    let gpu_tl = experiment_gpu(tl);
    let hybrid = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let compiler = RfKind::Partitioned(PartitionedRfConfig {
        strategy: ProfilingStrategy::Compiler,
        ..PartitionedRfConfig::paper_default()
    });
    let ntv = RfKind::MrfNtv { latency: 3 };

    // 6 cells per workload (2 baselines + 4 designs), every seed of every
    // cell fanned out through one matrix.
    const SEEDS: u64 = 5;
    const CELLS_PER_W: usize = 6;
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(|w| {
            [
                Cell::new(w, &gpu_gto, &RfKind::MrfStv),
                Cell::new(w, &gpu_tl, &RfKind::MrfStv),
                Cell::new(w, &gpu_gto, &hybrid),
                Cell::new(w, &gpu_tl, &hybrid),
                Cell::new(w, &gpu_gto, &compiler),
                Cell::new(w, &gpu_gto, &ntv),
            ]
        })
        .collect();
    let (results, report, mut run_report) = run_cells_reported("fig12_performance", &cells, SEEDS);

    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "workload", "part/GTO", "part/TL", "compiler", "MRF@NTV"
    );
    let (mut gto_n, mut tl_n, mut comp_n, mut ntv_n) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut csv = CsvTable::new(["workload", "part_gto", "part_tl", "compiler", "mrf_ntv"]);
    for (w, r) in suite.iter().zip(results.chunks(CELLS_PER_W)) {
        let (base_gto, base_tl) = (&r[0], &r[1]);
        let p_gto = r[2].normalized_time(base_gto);
        let p_tl = r[3].normalized_time(base_tl);
        let p_comp = r[4].normalized_time(base_gto);
        let p_ntv = r[5].normalized_time(base_gto);

        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            w.name, p_gto, p_tl, p_comp, p_ntv
        );
        csv.row([
            w.name.to_string(),
            format!("{p_gto:.4}"),
            format!("{p_tl:.4}"),
            format!("{p_comp:.4}"),
            format!("{p_ntv:.4}"),
        ]);
        gto_n.push(p_gto);
        tl_n.push(p_tl);
        comp_n.push(p_comp);
        ntv_n.push(p_ntv);
    }
    csv.write_if_configured("fig12_performance");
    run_report.add_table("fig12_performance", &csv);
    println!("{:-<56}", "");
    println!(
        "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3}   (paper: <1.02, ~1.02, +2% vs hybrid, 1.071)",
        "GEOMEAN",
        geomean(&gto_n),
        geomean(&tl_n),
        geomean(&comp_n),
        geomean(&ntv_n)
    );
    println!();
    println!("{}", report.footer());
    run_report.add_metric("geomean_part_gto", geomean(&gto_n));
    run_report.add_metric("geomean_part_tl", geomean(&tl_n));
    run_report.add_metric("geomean_compiler", geomean(&comp_n));
    run_report.add_metric("geomean_mrf_ntv", geomean(&ntv_n));
    run_report.write();
}
