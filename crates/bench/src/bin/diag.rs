//! Diagnostic probe: per-workload pipeline statistics under each RF
//! organisation. Not part of the paper reproduction — a tool for
//! understanding where cycles go.

use prf_bench::{experiment_gpu, harness_args, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    let workloads: Vec<_> = harness_args()
        .positional
        .iter()
        .map(|name| {
            prf_workloads::by_name(name).unwrap_or_else(|| {
                let known: Vec<_> = prf_workloads::suite().iter().map(|w| w.name).collect();
                eprintln!(
                    "diag: unknown workload `{name}` (known: {})",
                    known.join(", ")
                );
                std::process::exit(2);
            })
        })
        .collect();
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let rfs = [
        ("MRF@STV", RfKind::MrfStv),
        ("MRF@NTV", RfKind::MrfNtv { latency: 3 }),
        (
            "partitioned",
            RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        ),
        (
            "part-noadapt",
            RfKind::Partitioned(PartitionedRfConfig::without_adaptive()),
        ),
        (
            "part-alwayslow",
            RfKind::Partitioned(PartitionedRfConfig {
                adaptive: Some(prf_core::AdaptiveFrfConfig {
                    epoch_length: 50,
                    threshold: u32::MAX,
                }),
                ..PartitionedRfConfig::paper_default()
            }),
        ),
        (
            "part-alwayshigh",
            RfKind::Partitioned(PartitionedRfConfig {
                adaptive: Some(prf_core::AdaptiveFrfConfig {
                    epoch_length: 50,
                    threshold: 0,
                }),
                ..PartitionedRfConfig::paper_default()
            }),
        ),
    ];
    let cells: Vec<Cell> = workloads
        .iter()
        .flat_map(|w| rfs.iter().map(|(_, rf)| Cell::new(w, &gpu, rf)))
        .collect();
    let (results, report, run_report) = run_cells_reported("diag", &cells, 1);
    let labelled = workloads
        .iter()
        .flat_map(|w| rfs.iter().map(move |(label, _)| (w, label)));
    for ((w, label), r) in labelled.zip(&results) {
        println!(
            "{:<10} {:<12} cycles {:>8} instrs {:>8} ipc {:>5.2} \
                 issue_cy {:>8} bankwait {:>9} collstall {:>7}",
            w.name,
            label,
            r.cycles,
            r.stats.instructions,
            r.stats.instructions as f64 / r.cycles as f64,
            r.stats.issue_cycles,
            r.stats.bank_conflict_waits,
            r.stats.collector_stalls,
        );
        println!(
                "{:<23} l1 h/m {:>7}/{:>7} txns {:>7} ldst {:>7} | stalls mem {:>7} bar {:>6} coll {:>6} alu {:>6}",
                "",
                r.stats.l1_hits,
                r.stats.l1_misses,
                r.stats.mem_transactions,
                r.stats.mem_instructions,
                r.stats.stall_mem,
                r.stats.stall_barrier,
                r.stats.stall_collector,
                r.stats.stall_alu_dep,
            );
    }
    println!("{}", report.footer());
    run_report.write();
}
