//! §III-A2 "Code Dynamics" — how similar are register access patterns
//! across warps?
//!
//! Paper: "our results show that on average the number of accesses to
//! various registers differ by no more than 5% irrespective of which warp
//! is selected as a pilot warp in any CTA. Even more encouraging is the
//! fact that … the sorted list of registers based on access count is the
//! same across the warps within the same CTAs and the warps across
//! different CTAs in the same kernel."
//!
//! We enable per-warp statistics, pick every warp in turn as a
//! hypothetical pilot, and measure (a) the mean relative difference of its
//! per-register counts from the all-warp average, and (b) whether its
//! top-4 set matches the global top-4.

use prf_bench::{experiment_gpu, header, mean, run_cells_reported, Cell};
use prf_core::RfKind;
use prf_isa::MAX_ARCH_REGS;
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Code dynamics (§III-A2): per-warp register-access similarity",
        "counts differ <=5% across warps; sorted register order identical",
    );
    let gpu = prf_sim::GpuConfig {
        per_warp_stats: true,
        ..experiment_gpu(SchedulerPolicy::Gto)
    };
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .map(|w| Cell::new(w, &gpu, &RfKind::MrfStv))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("analysis_code_dynamics", &cells, 1);
    println!(
        "{:<12} {:>8} {:>16} {:>18}",
        "workload", "warps", "mean |Δ| counts", "top-4 agreement"
    );
    let (mut devs, mut agrees) = (Vec::new(), Vec::new());
    for (w, r) in suite.iter().zip(&results) {
        let per_warp = &r.stats.per_warp;
        if per_warp.len() < 2 {
            continue;
        }
        // Global per-register mean (normalised per warp).
        let mut global = [0.0f64; MAX_ARCH_REGS];
        for h in per_warp.values() {
            let t = h.total().max(1) as f64;
            for (i, &c) in h.counts().iter().enumerate() {
                global[i] += c as f64 / t;
            }
        }
        let nw = per_warp.len() as f64;
        for g in global.iter_mut() {
            *g /= nw;
        }
        let global_top: Vec<_> = r.stats.reg_accesses.top_n(4);

        let mut dev_sum = 0.0;
        let mut agree = 0usize;
        for h in per_warp.values() {
            let t = h.total().max(1) as f64;
            let mut d = 0.0;
            let mut mass = 0.0;
            for (i, &c) in h.counts().iter().enumerate() {
                let share = c as f64 / t;
                d += (share - global[i]).abs();
                mass += global[i];
            }
            dev_sum += d / mass.max(1e-12) / 2.0; // total-variation style
            if h.top_n(4) == global_top {
                agree += 1;
            }
        }
        let dev = dev_sum / nw;
        let agreement = agree as f64 / nw;
        println!(
            "{:<12} {:>8} {:>15.2}% {:>17.1}%",
            w.name,
            per_warp.len(),
            100.0 * dev,
            100.0 * agreement
        );
        devs.push(dev);
        agrees.push(agreement);
    }
    println!("{:-<58}", "");
    println!(
        "{:<12} {:>8} {:>15.2}% {:>17.1}%   (paper: <=5%, \"same sorted list\")",
        "MEAN",
        "",
        100.0 * mean(&devs),
        100.0 * mean(&agrees)
    );
    println!("{}", report.footer());
    run_report.add_metric("mean_count_deviation", mean(&devs));
    run_report.add_metric("mean_top4_agreement", mean(&agrees));
    run_report.write();
}
