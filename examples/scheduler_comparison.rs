//! Scheduler comparison: run the same workload under all four warp
//! schedulers (GTO, LRR, two-level, fetch-group) with and without the
//! partitioned register file. The paper reports "consistent performance
//! across all the schedulers" (§V).
//!
//! Run with: `cargo run --release --example scheduler_comparison`

use pilot_rf::core::{run_experiment, PartitionedRfConfig, RfKind};
use pilot_rf::sim::{GpuConfig, SchedulerPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policies = [
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel {
            active_per_scheduler: 8,
        },
        SchedulerPolicy::FetchGroup { group_size: 8 },
    ];
    let w = pilot_rf::workloads::by_name("srad").expect("srad exists");
    println!("workload: {} ({} launch(es))", w.name, w.launches.len());
    println!(
        "{:<6} {:>14} {:>14} {:>10} {:>12}",
        "sched", "base cycles", "part cycles", "overhead", "dyn saving"
    );
    for policy in policies {
        let gpu = GpuConfig {
            scheduler: policy,
            ..GpuConfig::kepler_single_sm()
        };
        let base = run_experiment(&gpu, &RfKind::MrfStv, &w.launches, &w.mem_init)?;
        let part = run_experiment(
            &gpu,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
            &w.launches,
            &w.mem_init,
        )?;
        println!(
            "{:<6} {:>14} {:>14} {:>9.1}% {:>11.1}%",
            policy.to_string(),
            base.cycles,
            part.cycles,
            100.0 * (part.normalized_time(&base) - 1.0),
            100.0 * part.dynamic_saving()
        );
    }
    println!();
    println!("The energy saving is scheduler-independent: it comes from *where*");
    println!("registers live, not from *when* warps issue.");
    Ok(())
}
