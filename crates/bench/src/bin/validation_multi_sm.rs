//! Methodology validation — single-SM vs full-chip simulation.
//!
//! The experiments in this repository (like most RF studies) simulate one
//! SM with its share of CTAs because register-file behaviour is per-SM.
//! This binary validates that choice: it runs a subset of workloads on the
//! full 15-SM GTX-780-like configuration and compares the RF-level
//! statistics against the single-SM runs. It also contextualises the RF
//! saving at chip level using the paper's GPUWattch shares (§I: "the RF
//! consumes 13.4% and 17.2% of the GTX-480 and Quadro FX5600 chips
//! power").

use prf_bench::{experiment_gpu, header, run_cells_reported, Cell};
use prf_core::{ChipProfile, PartitionedRfConfig, RfKind};
use prf_sim::{GpuConfig, RfPartition, SchedulerPolicy};

fn main() {
    header(
        "Validation: single-SM methodology vs full 15-SM chip",
        "per-SM RF statistics should match; chip-level saving = RF share x RF saving",
    );
    let names = ["backprop", "srad", "kmeans", "LIB"];

    // 4 workloads × {1 SM, 15 SMs} as one matrix — the 15-SM runs are the
    // heavyweight jobs this binary exists to parallelise.
    let workloads: Vec<_> = names
        .iter()
        .map(|name| prf_workloads::by_name(name).expect("known workload"))
        .collect();
    let cells: Vec<Cell> = workloads
        .iter()
        .flat_map(|w| {
            [1usize, 15].map(|sms| {
                let gpu = GpuConfig {
                    num_sms: sms,
                    ..experiment_gpu(SchedulerPolicy::Gto)
                };
                let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default());
                Cell::new(w, &gpu, &rf)
            })
        })
        .collect();
    let (results, report, run_report) = run_cells_reported("validation_multi_sm", &cells, 1);

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "1-SM FRF%", "15-SM FRF%", "1-SM save", "15-SM save"
    );
    let mut savings = Vec::new();
    for (name, r) in names.iter().zip(results.chunks(2)) {
        let row: Vec<(f64, f64)> = r
            .iter()
            .map(|res| {
                let pa = &res.stats.partition_accesses;
                let frf = pa.fraction(RfPartition::FrfHigh) + pa.fraction(RfPartition::FrfLow);
                (frf, res.dynamic_saving())
            })
            .collect();
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            name,
            100.0 * row[0].0,
            100.0 * row[1].0,
            100.0 * row[0].1,
            100.0 * row[1].1,
        );
        savings.push(row[0].1);
    }
    let mean_saving = savings.iter().sum::<f64>() / savings.len() as f64;
    println!();
    println!("chip-level context (paper §I, GPUWattch):");
    for chip in [ChipProfile::gtx480(), ChipProfile::quadro_fx5600()] {
        println!(
            "  {:<14} RF = {:>4.1}% of chip power -> partitioned RF saves {:>4.1}% of chip power",
            chip.name,
            100.0 * chip.rf_power_share,
            100.0 * chip.chip_saving(mean_saving.clamp(0.0, 1.0))
        );
    }
    println!();
    println!("{}", report.footer());
    run_report.write();
}
