//! fig_greener — GREENER-class compiler-directed register reallocation
//! (liveness → interference coloring → power gating, see
//! `prf-isa::liveness` / `prf-isa::realloc` / `prf-core::gating`) layered
//! on the paper's pilot register file, across the Table I suite.
//!
//! Four arms per workload:
//!
//! 1. **baseline**  — MRF@STV, original kernels;
//! 2. **pilot**     — partitioned RF (paper default), original kernels;
//! 3. **greener**   — MRF@STV, realloc-compacted kernels + dead-range
//!    power-gating credit on leakage;
//! 4. **combined**  — partitioned RF over the compacted kernels (hot
//!    registers concentrated at low indices feed the FRF capture) + the
//!    same gating credit.
//!
//! The gating credit is applied here, at the experiment layer, so the
//! simulated access streams stay untouched (see `prf-core::gating` for
//! why). The realloc pass is semantics-preserving: this binary asserts
//! every rewritten kernel validates and retires exactly the baseline
//! arm's instruction count; the bit-identical memory oracle runs in
//! `prf-fuzz --mode realloc`.
//!
//! `--quick` trims the suite to four representative workloads for CI.

use prf_bench::{experiment_gpu, header, mean, run_cells_reported, Cell};
use prf_core::{Launch, PartitionedRfConfig, PowerGatingModel, RfKind};
use prf_isa::{reallocate, KernelValidator};
use prf_sim::SchedulerPolicy;
use prf_workloads::Workload;

/// Workloads with at least this many registers per thread must show a
/// strict total-RF-energy win under the greener arm (acceptance
/// criterion: gating credit on a compacted allocation always beats the
/// structural baseline when registers are plentiful).
const HIGH_REGS: u8 = 15;

/// The `--quick` CI subset: one workload per recipe family, including
/// two high-register-count ones.
const QUICK: [&str; 4] = ["BFS", "btree", "hotspot", "sgemm"];

/// A workload whose kernels were rewritten by the realloc pass, plus the
/// numbers the figure reports about the rewrite itself.
struct Greener {
    workload: Workload,
    /// Mean (over launches) of live registers / original allocation —
    /// the power-gating live fraction.
    live_fraction: f64,
    old_regs: u8,
    new_regs: u8,
}

fn greener_clone(w: &Workload, validator: &KernelValidator) -> Greener {
    let mut launches = Vec::new();
    let mut fracs = Vec::new();
    let (mut old_regs, mut new_regs) = (0u8, 0u8);
    for launch in &w.launches {
        let r = reallocate(&launch.kernel)
            .unwrap_or_else(|e| panic!("{}: realloc failed: {e}", w.name));
        validator
            .validate(&r.kernel)
            .unwrap_or_else(|e| panic!("{}: rewritten kernel invalid: {e}", w.name));
        fracs.push(r.live_fraction_of(r.old_regs));
        old_regs = old_regs.max(r.old_regs);
        new_regs = new_regs.max(r.new_regs);
        launches.push(Launch::new(r.kernel, launch.grid));
    }
    // Reports and job digests need a distinct &'static name per rewritten
    // workload; the handful of leaked strings live for the process anyway.
    let name: &'static str = Box::leak(format!("{}+greener", w.name).into_boxed_str());
    Greener {
        workload: Workload {
            name,
            category: w.category,
            launches,
            mem_init: w.mem_init.clone(),
            table1: w.table1,
        },
        live_fraction: mean(&fracs),
        old_regs,
        new_regs,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    header(
        "fig_greener: pilot RF x GREENER-style register reallocation",
        "liveness-driven compaction + dead-range gating stacks on the partitioned RF's 54%",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let mrf = RfKind::MrfStv;
    let pilot = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let gating = PowerGatingModel::greener_default();

    let mut suite = prf_workloads::suite();
    if quick {
        suite.retain(|w| QUICK.contains(&w.name));
        assert_eq!(
            suite.len(),
            QUICK.len(),
            "--quick subset drifted from the suite"
        );
    }
    let validator = KernelValidator::new();
    let rewritten: Vec<Greener> = suite.iter().map(|w| greener_clone(w, &validator)).collect();

    // 4 arms per workload, the whole figure as one parallel matrix.
    let cells: Vec<Cell> = suite
        .iter()
        .zip(&rewritten)
        .flat_map(|(w, g)| {
            [
                Cell::new(w, &gpu, &mrf),
                Cell::new(w, &gpu, &pilot),
                Cell::new(&g.workload, &gpu, &mrf),
                Cell::new(&g.workload, &gpu, &pilot),
            ]
        })
        .collect();
    let (results, report, mut run_report) = run_cells_reported("fig_greener", &cells, 1);

    println!(
        "{:<12} {:>5} {:>6} {:>7} {:>8} {:>9} {:>9}",
        "workload", "regs", "live%", "pilot", "greener", "combined", "(energy saving vs MRF@STV)"
    );
    let (mut s_pilot, mut s_greener, mut s_combined) = (Vec::new(), Vec::new(), Vec::new());
    for ((w, g), r) in suite.iter().zip(&rewritten).zip(results.chunks(4)) {
        let (base, pil, grn, cmb) = (&r[0], &r[1], &r[2], &r[3]);

        // Semantics guard: realloc must not change what the program does,
        // only how fast it does it.
        assert_eq!(
            base.stats.instructions, grn.stats.instructions,
            "{}: instruction count drifted under realloc (MRF arm)",
            w.name
        );
        assert_eq!(
            pil.stats.instructions, cmb.stats.instructions,
            "{}: instruction count drifted under realloc (partitioned arm)",
            w.name
        );

        // Total RF energy per arm: dynamic + leakage, with the gating
        // credit scaling the realloc'd arms' leakage by the live fraction.
        let gate = gating.effective_leakage_mw(1.0, g.live_fraction);
        let base_total = base.dynamic_energy_pj + base.leakage_energy_pj;
        let pilot_total = pil.dynamic_energy_pj + pil.leakage_energy_pj;
        let greener_total = grn.dynamic_energy_pj + grn.leakage_energy_pj * gate;
        let combined_total = cmb.dynamic_energy_pj + cmb.leakage_energy_pj * gate;

        if w.regs_per_thread() >= HIGH_REGS {
            assert!(
                greener_total < base_total,
                "{}: greener arm must strictly beat baseline RF energy \
                 ({greener_total:.1} pJ vs {base_total:.1} pJ)",
                w.name
            );
        }

        let saving = |arm: f64| 1.0 - arm / base_total;
        println!(
            "{:<12} {:>2}->{:<2} {:>5.1} {:>6.1}% {:>7.1}% {:>8.1}%",
            w.name,
            g.old_regs,
            g.new_regs,
            100.0 * g.live_fraction,
            100.0 * saving(pilot_total),
            100.0 * saving(greener_total),
            100.0 * saving(combined_total),
        );
        s_pilot.push(saving(pilot_total));
        s_greener.push(saving(greener_total));
        s_combined.push(saving(combined_total));
    }
    println!("{:-<62}", "");
    println!(
        "{:<12} {:>12} {:>6.1}% {:>7.1}% {:>8.1}%",
        "MEAN",
        "",
        100.0 * mean(&s_pilot),
        100.0 * mean(&s_greener),
        100.0 * mean(&s_combined),
    );
    println!();
    println!("{}", report.footer());

    run_report.add_metric("mean_total_saving_pilot", mean(&s_pilot));
    run_report.add_metric("mean_total_saving_greener", mean(&s_greener));
    run_report.add_metric("mean_total_saving_combined", mean(&s_combined));
    run_report.add_metric(
        "mean_live_fraction",
        mean(
            &rewritten
                .iter()
                .map(|g| g.live_fraction)
                .collect::<Vec<_>>(),
        ),
    );
    run_report.write();
}
