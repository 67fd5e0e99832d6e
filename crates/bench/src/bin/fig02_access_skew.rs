//! Fig. 2 — percentage of accesses to the top N highly accessed
//! registers, per workload.
//!
//! Paper: "the top 3 registers in each kernel account for 62% of the total
//! registers accesses on average across all the workloads. The top 4 and 5
//! registers account for 72% and 77%."

use prf_bench::report::{pct, CsvTable};
use prf_bench::{experiment_gpu, header, mean, run_cells_reported, Cell};
use prf_core::RfKind;
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Figure 2: access share of the top-N registers",
        "top-3 = 62%, top-4 = 72%, top-5 = 77% on average",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .map(|w| Cell::new(w, &gpu, &RfKind::MrfStv))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("fig02_access_skew", &cells, 1);
    println!(
        "{:<12} {:>8} {:>8} {:>8}",
        "workload", "top-3", "top-4", "top-5"
    );
    let (mut t3, mut t4, mut t5) = (Vec::new(), Vec::new(), Vec::new());
    let mut csv = CsvTable::new(["workload", "top3_pct", "top4_pct", "top5_pct"]);
    for (w, r) in suite.iter().zip(&results) {
        let h = &r.stats.reg_accesses;
        let (a, b, c) = (h.top_share(3), h.top_share(4), h.top_share(5));
        println!(
            "{:<12} {:>7.1}% {:>7.1}% {:>7.1}%",
            w.name,
            100.0 * a,
            100.0 * b,
            100.0 * c
        );
        csv.row([w.name.to_string(), pct(a), pct(b), pct(c)]);
        t3.push(a);
        t4.push(b);
        t5.push(c);
    }
    csv.write_if_configured("fig02_access_skew");
    println!("{:-<40}", "");
    println!(
        "{:<12} {:>7.1}% {:>7.1}% {:>7.1}%   (paper: 62% / 72% / 77%)",
        "MEAN",
        100.0 * mean(&t3),
        100.0 * mean(&t4),
        100.0 * mean(&t5)
    );
    println!("{}", report.footer());
    run_report.add_metric("mean_top3_share", mean(&t3));
    run_report.add_metric("mean_top4_share", mean(&t4));
    run_report.add_metric("mean_top5_share", mean(&t5));
    run_report.add_table("fig02_access_skew", &csv);
    run_report.write();
}
