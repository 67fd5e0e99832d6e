//! §V scheduler consistency — "In addition we ran our experiments with
//! the GTO and the fetch group schedulers. Our technique shows a
//! consistent performance across all the schedulers."

use prf_bench::{experiment_gpu, geomean, header, run_cells_reported, Cell};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

fn main() {
    header(
        "Scheduler consistency: partitioned-RF overhead under GTO / LRR / TL / FG",
        "consistent performance across all the schedulers",
    );
    const SEEDS: u64 = 3;
    let policies = [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel {
            active_per_scheduler: 8,
        },
        SchedulerPolicy::FetchGroup { group_size: 8 },
    ];

    // 4 schedulers × suite × {baseline, partitioned} as one matrix.
    let suite = prf_workloads::suite();
    let cells: Vec<Cell> = policies
        .iter()
        .flat_map(|&policy| {
            let gpu = experiment_gpu(policy);
            let part = RfKind::Partitioned(PartitionedRfConfig::paper_default());
            suite
                .iter()
                .flat_map(move |w| {
                    [
                        Cell::new(w, &gpu, &RfKind::MrfStv),
                        Cell::new(w, &gpu, &part),
                    ]
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let (results, report, run_report) = run_cells_reported("all_schedulers", &cells, SEEDS);

    println!(
        "{:<8} {:>16} {:>14}",
        "sched", "geomean overhead", "dyn saving"
    );
    let per_policy = suite.len() * 2;
    for (policy, block) in policies.iter().zip(results.chunks(per_policy)) {
        let mut norms = Vec::new();
        let mut savings = Vec::new();
        for r in block.chunks(2) {
            let (base, p) = (&r[0], &r[1]);
            norms.push(p.normalized_time(base));
            savings.push(p.dynamic_saving());
        }
        println!(
            "{:<8} {:>15.1}% {:>13.1}%",
            policy.to_string(),
            100.0 * (geomean(&norms) - 1.0),
            100.0 * prf_bench::mean(&savings)
        );
    }
    println!();
    println!("The saving column is scheduler-independent by construction; the overhead");
    println!("column shows the consistency claim of §V.");
    println!();
    println!("{}", report.footer());
    run_report.write();
}
