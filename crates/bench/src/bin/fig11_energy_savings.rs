//! Fig. 11 — dynamic energy of the partitioned RF (with and without the
//! adaptive FRF) normalised to the MRF@STV baseline, plus the leakage
//! accounting of §V-B.
//!
//! Paper: "The partitioned RF saves 54% of the RF dynamic energy across
//! all the benchmarks"; a monolithic RF at NTV saves only 47%; leakage
//! saving is 39% (FRF 21.5% + SRF 39.7% of MRF leakage).

use prf_bench::{experiment_gpu, header, mean, run_cells_reported, Cell};
use prf_core::{LeakageModel, PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Figure 11: RF dynamic-energy savings vs MRF@STV",
        "partitioned+adaptive saves 54%; MRF@NTV saves 47%; leakage saving 39%",
    );
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let plain = RfKind::Partitioned(PartitionedRfConfig::without_adaptive());
    let adaptive = RfKind::Partitioned(PartitionedRfConfig::paper_default());
    let ntv = RfKind::MrfNtv { latency: 3 };

    // The whole figure as one parallel matrix: 3 RF organisations per
    // workload, results chunked back per workload below.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = suite
        .iter()
        .flat_map(|w| [&plain, &adaptive, &ntv].map(|rf| Cell::new(w, &gpu, rf)))
        .collect();
    let (results, report, mut run_report) = run_cells_reported("fig11_energy_savings", &cells, 1);

    println!(
        "{:<12} {:>12} {:>14} {:>10}",
        "workload", "partitioned", "part+adaptive", "MRF@NTV"
    );
    let (mut s_plain, mut s_adapt, mut s_ntv) = (Vec::new(), Vec::new(), Vec::new());
    for (w, r) in suite.iter().zip(results.chunks(3)) {
        let (rp, ra, rn) = (&r[0], &r[1], &r[2]);
        println!(
            "{:<12} {:>11.1}% {:>13.1}% {:>9.1}%",
            w.name,
            100.0 * rp.dynamic_saving(),
            100.0 * ra.dynamic_saving(),
            100.0 * rn.dynamic_saving()
        );
        s_plain.push(rp.dynamic_saving());
        s_adapt.push(ra.dynamic_saving());
        s_ntv.push(rn.dynamic_saving());
    }
    println!("{:-<52}", "");
    println!(
        "{:<12} {:>11.1}% {:>13.1}% {:>9.1}%   (paper: —, 54%, 47%)",
        "MEAN",
        100.0 * mean(&s_plain),
        100.0 * mean(&s_adapt),
        100.0 * mean(&s_ntv)
    );

    // Leakage section (§V-B) — structural, workload independent.
    let l = LeakageModel::from_finfet();
    println!();
    println!("Leakage power (per SM):");
    println!("  MRF@STV      {:>7.2} mW", l.mrf_stv_mw);
    println!(
        "  FRF          {:>7.2} mW ({:.1}% of MRF; paper 21.5%)",
        l.frf_mw,
        100.0 * l.frf_mw / l.mrf_stv_mw
    );
    println!(
        "  SRF          {:>7.2} mW ({:.1}% of MRF; paper 39.7%)",
        l.srf_mw,
        100.0 * l.srf_mw / l.mrf_stv_mw
    );
    println!(
        "  partitioned leakage saving {:.1}%  (paper 39%)",
        100.0 * l.partitioned_saving()
    );
    println!();
    println!("{}", report.footer());
    run_report.add_metric("mean_dynamic_saving_partitioned", mean(&s_plain));
    run_report.add_metric("mean_dynamic_saving_adaptive", mean(&s_adapt));
    run_report.add_metric("mean_dynamic_saving_ntv", mean(&s_ntv));
    run_report.add_metric("leakage_saving", l.partitioned_saving());
    run_report.write();
}
