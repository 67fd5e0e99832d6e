//! Table I — benchmark runtime information: registers/thread, threads/CTA
//! (matched exactly by construction) and the pilot warp's runtime as a
//! fraction of kernel execution time.
//!
//! Paper: pilot runs <3% of kernel time on average (geomean 3%), but 37%
//! for MUM, 47% for CP, 60% for LIB and 75% for WP. Our grids are scaled
//! down (tens of CTAs instead of thousands), so the measured percentages
//! reproduce the paper's *ordering*, not its absolute values — see
//! DESIGN.md §2.4.

use prf_bench::{experiment_gpu, header, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Table I: benchmark shapes and pilot-warp runtime fraction",
        "regs/thread and threads/CTA exact; pilot% tiny except MUM(37) CP(47) LIB(60) WP(75)",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite.iter().map(|w| Cell::new(w, &gpu, &rf)).collect();
    let (results, report, run_report) = run_cells_reported("table1_benchmarks", &cells, 1);
    println!(
        "{:<12} {:>6} {:>8} {:>12} {:>13} {:>24}",
        "workload", "regs", "thr/CTA", "pilot%(meas)", "pilot%(paper)", "occupancy (limiter)"
    );
    for (w, r) in suite.iter().zip(&results) {
        // Pilot fraction of the *first* launch (pilot profiling restarts
        // per kernel; Table I reports per-kernel numbers).
        let frac = r.per_launch[0]
            .pilot_runtime_fraction()
            .map(|f| 100.0 * f)
            .unwrap_or(f64::NAN);
        let occ = prf_sim::Occupancy::compute(&gpu, &w.launches[0].grid, w.regs_per_thread());
        println!(
            "{:<12} {:>6} {:>8} {:>11.1}% {:>12.2}% {:>14} ({})",
            w.name,
            w.regs_per_thread(),
            w.threads_per_cta(),
            frac,
            w.table1.pilot_cta_pct,
            format!("{} warps", occ.resident_warps),
            occ.limiter
        );
        assert_eq!(w.regs_per_thread(), w.table1.regs_per_thread);
        assert_eq!(w.threads_per_cta(), w.table1.threads_per_cta);
    }
    println!("{}", report.footer());
    run_report.write();
}
