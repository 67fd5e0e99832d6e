//! Related-work comparison — drowsy registers (the paper's ref. \[4\], HPCA 2013) vs the
//! partitioned RF.
//!
//! The paper positions partitioning against power-gating/drowsy
//! approaches: drowsing attacks *leakage only* (registers still burn full
//! dynamic energy per access), while the FRF/SRF split attacks both
//! dynamic and leakage energy. This binary quantifies that argument on
//! the benchmark suite.

use prf_bench::{experiment_gpu, geomean, header, mean, run_cells_reported, Cell};
use prf_core::{DrowsyConfig, PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Related work: drowsy registers vs the partitioned RF",
        "drowsy saves leakage only; partitioned saves dynamic (54%) + leakage (39%)",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    const SEEDS: u64 = 3;
    let drowsy = RfKind::Drowsy(DrowsyConfig::paper_adjacent());
    let part = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(|w| [&RfKind::MrfStv, &drowsy, &part].map(|rf| Cell::new(w, &gpu, rf)))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("compare_drowsy", &cells, SEEDS);

    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload",
        "drowsy dyn",
        "part dyn",
        "asleep",
        "drowsy lk",
        "part lk",
        "drowsy t",
        "part t"
    );
    let mut cols: [Vec<f64>; 7] = Default::default();
    for (w, r) in suite.iter().zip(results.chunks(3)) {
        let (base, d, p) = (&r[0], &r[1], &r[2]);
        let row = [
            d.dynamic_saving(),
            p.dynamic_saving(),
            d.telemetry.drowsy_fraction(),
            d.leakage_saving(),
            p.leakage_saving(),
            d.normalized_time(base),
            p.normalized_time(base),
        ];
        print_row(w.name, &row);
        for (col, x) in cols.iter_mut().zip(row) {
            col.push(x);
        }
    }
    println!("{:-<89}", "");
    let summary: [f64; 7] = std::array::from_fn(|i| {
        if i < 5 {
            mean(&cols[i])
        } else {
            geomean(&cols[i])
        }
    });
    print_row("MEAN/GEO", &summary);
    println!();
    println!(
        "Drowsy leakage is charged at the fraction of register-cycles each run\n\
         measured asleep (\"asleep\"), with drowsy cells at {:.0}% of awake leakage.",
        100.0 * DrowsyConfig::paper_adjacent().drowsy_leak_ratio
    );
    println!();
    println!("Drowsy's dynamic saving is ~0 by construction (every access still runs");
    println!("the full STV array); the partitioned RF saves both. This is the paper's");
    println!("§VI argument for partitioning over power-gating/drowsy approaches.");
    println!("{}", report.footer());
    for (name, value) in [
        "mean_drowsy_dynamic_saving",
        "mean_part_dynamic_saving",
        "mean_drowsy_fraction",
        "mean_drowsy_leakage_saving",
        "mean_part_leakage_saving",
        "geomean_drowsy_time",
        "geomean_part_time",
    ]
    .into_iter()
    .zip(summary)
    {
        run_report.add_metric(name, value);
    }
    run_report.write();
}

/// One table row: five percentages (the two dynamic savings, the drowsy
/// fraction, the two leakage savings), then the two normalised times.
fn print_row(name: &str, v: &[f64; 7]) {
    println!(
        "{:<12} {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}% {:>9.1}% {:>10.3} {:>10.3}",
        name,
        100.0 * v[0],
        100.0 * v[1],
        100.0 * v[2],
        100.0 * v[3],
        100.0 * v[4],
        v[5],
        v[6]
    );
}
