//! RFC vs partitioned RF — the paper's §V-D head-to-head, on one workload.
//!
//! Runs the kmeans-like benchmark under the two-level scheduler with the
//! register file cache (Gebhart et al., ISCA 2011) and the partitioned RF,
//! printing the cache behaviour and energy split the comparison hinges on.
//!
//! Run with: `cargo run --release --example rfc_vs_partitioned`

use pilot_rf::core::{run_experiment, PartitionedRfConfig, RfKind, RfcConfig};
use pilot_rf::sim::{GpuConfig, RfPartition, SchedulerPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = pilot_rf::workloads::by_name("kmeans").expect("kmeans exists");
    let gpu = GpuConfig {
        scheduler: SchedulerPolicy::TwoLevel {
            active_per_scheduler: 2,
        },
        ..GpuConfig::kepler_single_sm()
    };

    let base = run_experiment(&gpu, &RfKind::MrfStv, &w.launches, &w.mem_init)?;

    let rfc_cfg = RfcConfig {
        sized_for_warps: 8,
        ..RfcConfig::paper_default()
    };
    let rfc = run_experiment(&gpu, &RfKind::Rfc(rfc_cfg), &w.launches, &w.mem_init)?;

    let part = run_experiment(
        &gpu,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        &w.launches,
        &w.mem_init,
    )?;

    println!(
        "workload: {} (two-level scheduler, 8 active warps)\n",
        w.name
    );

    println!("== register file cache (6 entries/warp over an NTV MRF) ==");
    let t = &rfc.telemetry;
    println!(
        "  hits {} / misses {} / write-backs {}  (read-hit rate {:.1}%)",
        t.rfc_hits,
        t.rfc_misses,
        t.rfc_writebacks,
        100.0 * t.rfc_read_hit_rate()
    );
    println!(
        "  dynamic energy: {:.1} nJ ({:.1}% saved), time {:.3}x",
        rfc.dynamic_energy_pj / 1000.0,
        100.0 * rfc.dynamic_saving(),
        rfc.normalized_time(&base)
    );

    println!("\n== partitioned RF (4-register FRF + SRF) ==");
    let pa = &part.stats.partition_accesses;
    for p in [RfPartition::FrfHigh, RfPartition::FrfLow, RfPartition::Srf] {
        println!(
            "  {:9} {:>6.1}% of accesses",
            p.to_string(),
            100.0 * pa.fraction(p)
        );
    }
    println!(
        "  dynamic energy: {:.1} nJ ({:.1}% saved), time {:.3}x",
        part.dynamic_energy_pj / 1000.0,
        100.0 * part.dynamic_saving(),
        part.normalized_time(&base)
    );

    println!();
    println!("The paper's point (§V-D): the RFC's advantage depends on its size and");
    println!("port count scaling with the active-warp pool, while the partitioned");
    println!("RF's savings depend only on where registers live. Scale the active");
    println!("pool up (see `fig13_rfc_scaling`) and the RFC's savings collapse;");
    println!("the partitioned RF's stay put.");
    Ok(())
}
