//! Figs. 3, 5, 6, 7 — the paper's mechanism illustrations, rendered live
//! from simulator state instead of as static artwork:
//!
//! * Fig. 3 — baseline vs partitioned register file organisation,
//! * Fig. 5 — kernel execution timeline with the pilot warp highlighted,
//! * Fig. 6 — register mapping between FRF and SRF across the hybrid
//!   profiling phases,
//! * Fig. 7 — the swapping-table contents at each phase.

use prf_bench::{experiment_gpu, header, run_cells_reported, Cell};
use prf_core::{compiler_hot_registers, PartitionedRfConfig, RfKind, SwappingTable};
use prf_isa::Reg;
use prf_sim::SchedulerPolicy;

fn render_table(t: &SwappingTable, label: &str) {
    println!("  {label}:");
    let entries = t.entries();
    if entries.is_empty() {
        println!("    (identity — no valid CAM entries)");
        return;
    }
    println!(
        "    {:^6} | {:^10} | {:^10}",
        "valid", "arch reg", "mapped to"
    );
    for (arch, phys) in entries {
        println!(
            "    {:^6} | {:^10} | {:^10}",
            1,
            arch.to_string(),
            phys.to_string()
        );
    }
}

fn main() {
    header(
        "Figures 3/5/6/7: the partitioned-RF mechanisms, live",
        "organisation, pilot timeline, FRF/SRF mapping phases, swapping-table states",
    );

    // ---- Fig. 3: organisation -----------------------------------------
    println!("Fig. 3 — register file organisation (per SM)");
    println!("  baseline:   [ MRF 256 KB @ STV, 24 banks, 1 cycle ]");
    println!("  proposed:   [ FRF 32 KB @ STV (back-gate dual-mode, 1-2 cy) ]");
    println!("              [ SRF 224 KB @ NTV (3 cy)                      ]");
    println!("              each of the 24 banks is split FRF/SRF; the arbiter");
    println!("              issues at most one request per bank pair per cycle\n");

    // ---- Fig. 5/6/7: run a Category-2 workload and narrate ------------
    let w = prf_workloads::by_name("kmeans").expect("kmeans exists");
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    let (results, report, mut run_report) =
        run_cells_reported("fig03_07_mechanisms", &[Cell::new(&w, &gpu, &rf)], 1);
    let r = &results[0];
    let launch = &r.per_launch[0];
    let pilot_done = r.telemetry.pilot_done_cycle.unwrap_or(0);

    println!("Fig. 5 — kernel execution timeline ({} on 1 SM)", w.name);
    let total = launch.cycles.max(1);
    let width = 60usize;
    let pilot_mark = ((pilot_done as f64 / total as f64) * width as f64) as usize;
    let mut bar: Vec<char> = vec!['='; width];
    for (i, c) in bar.iter_mut().enumerate() {
        if i <= pilot_mark {
            *c = '#';
        }
    }
    println!("  |{}|", bar.iter().collect::<String>());
    println!(
        "  '#' = pilot warp running (finishes at cycle {} of {}, {:.1}% of the kernel)",
        pilot_done,
        total,
        100.0 * pilot_done as f64 / total as f64
    );
    println!("  compiler mapping active until the pilot finishes; pilot mapping after\n");

    // ---- Fig. 6/7: mapping phases --------------------------------------
    let compiler_hot = compiler_hot_registers(&w.launches[0].kernel, 4);
    let pilot_hot = r.telemetry.pilot_hot_regs.clone();

    println!("Fig. 6 — register mapping phases (n = 4)");
    let mut table = SwappingTable::new(4);
    println!("  (a) before launch: R0..R3 in the FRF, rest in the SRF");
    let in_frf = |t: &SwappingTable| {
        (0..63u8)
            .filter(|&a| t.is_frf(Reg(a)))
            .map(|a| format!("R{a}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("      FRF = {{{}}}", in_frf(&table));
    table.apply_hot_registers(&compiler_hot);
    println!("  (b) while the pilot runs (compiler profile {compiler_hot:?}):");
    println!("      FRF = {{{}}}", in_frf(&table));
    table.apply_hot_registers(&pilot_hot);
    println!("  (c) after the pilot completes (dynamic profile {pilot_hot:?}):");
    println!("      FRF = {{{}}}\n", in_frf(&table));

    println!("Fig. 7 — swapping-table contents (13 bits/entry, 2n = 8 entries)");
    let mut t = SwappingTable::new(4);
    render_table(&t, "(left) before execution");
    t.apply_hot_registers(&compiler_hot);
    render_table(&t, "(middle) compiler-based data applied");
    t.apply_hot_registers(&pilot_hot);
    render_table(&t, "(right) pilot-warp data applied (reset-then-apply)");
    println!();
    let frf_share = r
        .stats
        .partition_accesses
        .fraction(prf_sim::RfPartition::FrfHigh)
        + r.stats
            .partition_accesses
            .fraction(prf_sim::RfPartition::FrfLow);
    println!(
        "outcome: {:.1}% of this run's accesses were serviced by the FRF",
        100.0 * frf_share
    );
    println!("{}", report.footer());
    run_report.add_metric("frf_access_share", frf_share);
    run_report.write();
}
