//! Fig. 4 — efficiency of the profiling techniques.
//!
//! The paper's metric: "the fraction of accesses to the four
//! compiler-identified registers over the total access count for all
//! registers" — an *identification* metric, computed per kernel against
//! the full-run access histogram. The hybrid bar is time-weighted: the
//! compiler's set applies while the pilot runs, the pilot's set after.
//!
//! Paper shape: Category 1 — compiler within 10% of pilot; Category 2 —
//! compiler >10% *below* pilot; Category 3 — compiler >10% *above* pilot
//! (the pilot warp is unrepresentative); optimal bounds everything.

use prf_bench::{experiment_gpu, header, mean, run_cells_reported, AveragedResult, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;
use prf_workloads::{Category, Workload};

/// `w` split into one single-launch workload per kernel launch. Each
/// launch is profiled on its own (pilot profiling restarts per kernel).
fn single_launches(w: &Workload) -> impl Iterator<Item = Workload> + '_ {
    w.launches.iter().map(move |launch| Workload {
        name: w.name,
        category: w.category,
        launches: vec![launch.clone()],
        mem_init: w.mem_init.clone(),
        table1: w.table1,
    })
}

/// Coverage of the four registers each technique identifies, per launch,
/// aggregated over a workload's launches weighted by access volume. Each
/// item of `launches` is one launch's `[MRF@STV, partitioned]` result pair.
fn profile_coverages<'a>(
    launches: impl Iterator<Item = &'a [AveragedResult]>,
) -> (f64, f64, f64, f64) {
    let mut totals = 0.0;
    let (mut comp, mut pilot, mut hybrid, mut optimal) = (0.0, 0.0, 0.0, 0.0);
    for pair in launches {
        // Reference histogram (what actually gets accessed).
        let hist = &pair[0].stats.reg_accesses;
        // One hybrid run yields both identified sets and the pilot timing.
        let part = &pair[1];
        let t = &part.telemetry;
        let c_cov = hist.coverage(&t.compiler_hot_regs);
        let p_cov = hist.coverage(&t.pilot_hot_regs);
        let pilot_frac = t
            .pilot_done_cycle
            .map(|d| d as f64 / part.cycles.max(1) as f64)
            .unwrap_or(1.0);
        let h_cov = pilot_frac * c_cov + (1.0 - pilot_frac) * p_cov;
        let o_cov = hist.top_share(4);

        let weight = hist.total() as f64;
        totals += weight;
        comp += weight * c_cov;
        pilot += weight * p_cov;
        hybrid += weight * h_cov;
        optimal += weight * o_cov;
    }
    (
        comp / totals,
        pilot / totals,
        hybrid / totals,
        optimal / totals,
    )
}

fn main() {
    header(
        "Figure 4: profiling technique efficiency (top-4 identification coverage)",
        "Cat1: compiler within 10% of pilot; Cat2: compiler >10% below; Cat3: >10% above",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let part = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let suite = prf_workloads::suite();
    // Launches are independent, so every launch × {MRF@STV, partitioned}
    // pair is its own cell of one matrix.
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(single_launches)
        .flat_map(|single| [&RfKind::MrfStv, &part].map(|rf| Cell::new(&single, &gpu, rf)))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("fig04_profiling", &cells, 1);
    let mut pairs = results.chunks(2);
    println!(
        "{:<12} {:<11} {:>9} {:>9} {:>9} {:>9}",
        "workload", "category", "compiler", "pilot", "hybrid", "optimal"
    );
    let mut cat_rows: Vec<(Category, f64, f64, f64, f64)> = Vec::new();
    for w in &suite {
        let (c, p, h, o) = profile_coverages(pairs.by_ref().take(w.launches.len()));
        println!(
            "{:<12} {:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            w.name,
            w.category.to_string(),
            100.0 * c,
            100.0 * p,
            100.0 * h,
            100.0 * o
        );
        cat_rows.push((w.category, c, p, h, o));
    }
    println!("{:-<64}", "");
    for cat in [Category::One, Category::Two, Category::Three] {
        let rows: Vec<_> = cat_rows.iter().filter(|r| r.0 == cat).collect();
        let m = |f: fn(&&(Category, f64, f64, f64, f64)) -> f64| {
            mean(&rows.iter().map(f).collect::<Vec<_>>())
        };
        println!(
            "{:<12} {:<11} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            "MEAN",
            cat.to_string(),
            100.0 * m(|r| r.1),
            100.0 * m(|r| r.2),
            100.0 * m(|r| r.3),
            100.0 * m(|r| r.4),
        );
    }
    let all = |f: fn(&(Category, f64, f64, f64, f64)) -> f64| {
        mean(&cat_rows.iter().map(f).collect::<Vec<_>>())
    };
    println!("{}", report.footer());
    run_report.add_metric("mean_compiler_coverage", all(|r| r.1));
    run_report.add_metric("mean_pilot_coverage", all(|r| r.2));
    run_report.add_metric("mean_hybrid_coverage", all(|r| r.3));
    run_report.add_metric("mean_optimal_coverage", all(|r| r.4));
    run_report.write();
}
