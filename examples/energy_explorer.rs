//! Energy explorer: sweep the FRF size (how many hot registers per thread
//! are kept in the fast partition) across a workload subset and print the
//! energy/performance trade-off curve — the design-space exploration
//! behind the paper's choice of n = 4 (32 KB FRF / 224 KB SRF).
//!
//! Per-access energies are *size-adjusted* for each split: a bigger FRF
//! captures more accesses but each access costs more.
//!
//! Run with: `cargo run --release --example energy_explorer`

use pilot_rf::core::{run_experiment, PartitionedRfConfig, RfKind};
use pilot_rf::finfet::array::{characterize, ArraySpec, VoltageMode};
use pilot_rf::finfet::BackGate;
use pilot_rf::sim::{GpuConfig, RfPartition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let gpu = GpuConfig::kepler_single_sm();
    // A representative subset keeps the sweep quick; swap in
    // `prf_workloads::suite()` for the full run.
    let names = ["backprop", "srad", "kmeans", "sgemm", "LIB"];
    let mrf_pj = characterize(&ArraySpec::mrf_stv()).access_energy_pj;
    println!(
        "{:>4} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "n", "FRF KB", "FRF E pJ", "FRF share", "dyn saving", "cycles (sum)"
    );
    for n in [2usize, 3, 4, 6, 8] {
        let frf_kb = (n * 64 * 32 * 4) as f64 / 1024.0;
        let srf_kb = 256.0 - frf_kb;
        // Size-adjusted per-access energies for this split.
        let frf_hi = characterize(&ArraySpec::rf(frf_kb, VoltageMode::Stv)).access_energy_pj;
        let frf_lo = characterize(&ArraySpec {
            back_gate: BackGate::Grounded,
            ..ArraySpec::rf(frf_kb, VoltageMode::Stv)
        })
        .access_energy_pj;
        let srf = characterize(&ArraySpec::rf(srf_kb, VoltageMode::Ntv)).access_energy_pj;

        let cfg = PartitionedRfConfig {
            frf_regs: n,
            ..PartitionedRfConfig::paper_default()
        };
        let (mut frf_share, mut saving, mut cycles) = (0.0, 0.0, 0u64);
        for name in names {
            let w = pilot_rf::workloads::by_name(name).expect("known workload");
            let r = run_experiment(
                &gpu,
                &RfKind::Partitioned(cfg.clone()),
                &w.launches,
                &w.mem_init,
            )?;
            let pa = &r.stats.partition_accesses;
            let (hi, lo, s) = (
                pa.fraction(RfPartition::FrfHigh),
                pa.fraction(RfPartition::FrfLow),
                pa.fraction(RfPartition::Srf),
            );
            frf_share += hi + lo;
            // Recompute the dynamic energy with the size-adjusted FRF/SRF.
            let e = hi * frf_hi + lo * frf_lo + s * srf;
            saving += 1.0 - e / mrf_pj;
            cycles += r.cycles;
        }
        let k = names.len() as f64;
        println!(
            "{:>4} {:>9.0} {:>10.2} {:>11.1}% {:>11.1}% {:>12}",
            n,
            frf_kb,
            frf_hi,
            100.0 * frf_share / k,
            100.0 * saving / k,
            cycles
        );
    }
    println!();
    println!(
        "The paper picks n = 4: below it the SRF (3-cycle) share grows; beyond \
         it the FRF's own per-access energy eats the gains."
    );
    Ok(())
}
