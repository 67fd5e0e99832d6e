//! Quickstart: build a small GPU kernel, run it on the simulator under the
//! baseline register file and the paper's partitioned register file, and
//! compare performance and energy.
//!
//! Run with: `cargo run --release --example quickstart`

use pilot_rf::core::{run_experiment, Launch, PartitionedRfConfig, RfKind};
use pilot_rf::isa::{CmpOp, GridConfig, KernelBuilder, PredReg, Reg, SpecialReg};
use pilot_rf::sim::GpuConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a kernel: each thread computes a short polynomial loop and
    //    stores the result. R1/R2/R3 get hammered; everything else is
    //    touched a couple of times — exactly the skew the paper exploits.
    let mut kb = KernelBuilder::new("quickstart");
    kb.mov_special(Reg(0), SpecialReg::GlobalTid);
    kb.mov_imm(Reg(1), 0); // accumulator (hot)
    kb.mov_imm(Reg(2), 0); // loop counter (hot)
    kb.mov_imm(Reg(3), 3); // coefficient  (hot)
    kb.mov_imm(Reg(4), 7); // cold
    kb.mov_imm(Reg(5), 11); // cold
    let top = kb.new_label();
    kb.place_label(top);
    kb.imad(Reg(1), Reg(3), Reg(3), Reg(1));
    kb.iadd_imm(Reg(2), Reg(2), 1);
    kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(2), 32);
    kb.bra_if(PredReg(0), true, top);
    kb.iadd(Reg(1), Reg(1), Reg(4));
    kb.iadd(Reg(1), Reg(1), Reg(5));
    kb.stg(Reg(0), Reg(1), 0);
    kb.exit();
    let kernel = kb.build()?;

    // 2. Launch geometry: 16 CTAs of 128 threads.
    let launches = [Launch::new(kernel, GridConfig::new(16, 128))];

    // 3. Run under the monolithic STV baseline and the partitioned RF.
    let gpu = GpuConfig::kepler_single_sm();
    let baseline = run_experiment(&gpu, &RfKind::MrfStv, &launches, &[])?;
    let partitioned = run_experiment(
        &gpu,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        &launches,
        &[],
    )?;

    // 4. Compare.
    println!("baseline (MRF@STV):   {} cycles", baseline.cycles);
    println!("partitioned RF:       {} cycles", partitioned.cycles);
    println!(
        "performance overhead: {:+.1}%",
        100.0 * (partitioned.normalized_time(&baseline) - 1.0)
    );
    println!(
        "dynamic RF energy:    {:.1} nJ -> {:.1} nJ  ({:.1}% saved)",
        baseline.dynamic_energy_pj / 1000.0,
        partitioned.dynamic_energy_pj / 1000.0,
        100.0 * partitioned.dynamic_saving()
    );
    println!(
        "leakage saving:       {:.1}%",
        100.0 * partitioned.leakage_saving()
    );
    println!(
        "pilot warp finished at cycle {:?}, hot registers identified: {:?}",
        partitioned.telemetry.pilot_done_cycle, partitioned.telemetry.pilot_hot_regs
    );
    Ok(())
}
