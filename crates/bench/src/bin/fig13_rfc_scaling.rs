//! Fig. 13 — scalability of the register-file cache vs the partitioned RF
//! as issue width and active-warp counts grow.
//!
//! The paper's four configurations, labelled
//! `(schedulers/SM, RFC banks, active warps, MRF region)`:
//! `(1,2,8,NTV)`, `(4,4,16,NTV)`, `(4,8,32,NTV)`, `(4,8,32,STV)`.
//!
//! Paper shape: at the small configuration the RFC's dynamic-energy saving
//! is close to the partitioned RF's; scaling shrinks the RFC's saving
//! while the partitioned RF's stays constant; the RFC costs 9.5%, 3.8%,
//! and 3.3% performance at 8/16/32 active warps; with the MRF at STV the
//! RFC has no performance cost but saves only ~10% of the energy.
//! The RFC hit rate stays below ~45% at 32 active warps.

use prf_bench::{experiment_gpu, header, mean, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind, RfcConfig};
use prf_sim::{GpuConfig, SchedulerPolicy};

struct Config13 {
    label: &'static str,
    schedulers: usize,
    rfc_banks: u32,
    active_warps: u32,
    mrf_ntv: bool,
    paper_overhead_pct: f64,
}

fn main() {
    header(
        "Figure 13: RFC vs partitioned RF scaling",
        "RFC savings shrink with scale; partitioned constant; RFC overhead 9.5/3.8/3.3%; RFC@STV saves ~10%",
    );
    let configs = [
        Config13 {
            label: "(1,2,8,NTV)",
            schedulers: 1,
            rfc_banks: 2,
            active_warps: 8,
            mrf_ntv: true,
            paper_overhead_pct: 9.5,
        },
        Config13 {
            label: "(4,4,16,NTV)",
            schedulers: 4,
            rfc_banks: 4,
            active_warps: 16,
            mrf_ntv: true,
            paper_overhead_pct: 3.8,
        },
        Config13 {
            label: "(4,8,32,NTV)",
            schedulers: 4,
            rfc_banks: 8,
            active_warps: 32,
            mrf_ntv: true,
            paper_overhead_pct: 3.3,
        },
        Config13 {
            label: "(4,8,32,STV)",
            schedulers: 4,
            rfc_banks: 8,
            active_warps: 32,
            mrf_ntv: false,
            paper_overhead_pct: 0.0,
        },
    ];

    // All four configurations × suite × {base, RFC, partitioned} as one
    // parallel matrix; rows are re-assembled per configuration below.
    const SEEDS: u64 = 3;
    let suite = prf_workloads::suite();
    let mut cells = Vec::new();
    for c in &configs {
        let sched = SchedulerPolicy::TwoLevel {
            active_per_scheduler: (c.active_warps as usize / c.schedulers).max(1),
        };
        let gpu = GpuConfig {
            num_schedulers: c.schedulers,
            ..experiment_gpu(sched)
        };
        let rfc_cfg = RfcConfig {
            mrf_at_ntv: c.mrf_ntv,
            mrf_latency: if c.mrf_ntv { 3 } else { 1 },
            sized_for_warps: c.active_warps,
            crossbar_banks: c.rfc_banks,
            ..RfcConfig::paper_default()
        };
        let part_cfg = PartitionedRfConfig::paper_default();
        for w in &suite {
            cells.push(Cell::new(w, &gpu, &RfKind::MrfStv));
            cells.push(Cell::new(w, &gpu, &RfKind::Rfc(rfc_cfg)));
            cells.push(Cell::new(w, &gpu, &RfKind::Partitioned(part_cfg.clone())));
        }
    }
    let (results, report, run_report) = run_cells_reported("fig13_rfc_scaling", &cells, SEEDS);

    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "config", "RFC KB", "RFC save", "part save", "RFC time", "part time", "rd-hit"
    );
    let per_config = suite.len() * 3;
    for (c, block) in configs.iter().zip(results.chunks(per_config)) {
        let (mut rfc_save, mut part_save, mut rfc_time, mut part_time, mut hit) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for r in block.chunks(3) {
            let (base, rfc, part) = (&r[0], &r[1], &r[2]);
            rfc_save.push(rfc.dynamic_saving());
            part_save.push(part.dynamic_saving());
            rfc_time.push(rfc.normalized_time(base));
            part_time.push(part.normalized_time(base));
            hit.push(rfc.telemetry.rfc_read_hit_rate());
        }
        let rfc_kb = 6.0 * f64::from(c.active_warps) * 32.0 * 4.0 / 1024.0;
        println!(
            "{:<14} {:>9.1} {:>9.1}% {:>9.1}% {:>10.3} {:>10.3} {:>8.1}%",
            c.label,
            rfc_kb,
            100.0 * mean(&rfc_save),
            100.0 * mean(&part_save),
            prf_bench::geomean(&rfc_time),
            prf_bench::geomean(&part_time),
            100.0 * mean(&hit)
        );
        let _ = c.paper_overhead_pct;
    }
    println!();
    println!("paper: RFC time overhead 9.5% / 3.8% / 3.3% / ~0%;");
    println!("       RFC@STV saves only ~10% dynamic energy; partitioned savings stay flat");
    println!();
    println!("{}", report.footer());
    run_report.write();
}
