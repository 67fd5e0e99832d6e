//! Profiling demo: why the hybrid compiler + pilot-warp scheme wins.
//!
//! Builds a kernel in the spirit of the paper's Category 2: a block of
//! "decoy" registers appears many times in straight-line code (so the
//! compiler ranks them hot), while a data-dependent loop makes completely
//! different registers dynamically hot. Shows what each profiling
//! technique identifies and how the swapping table ends up mapped —
//! a live version of the paper's Figs. 6 and 7.
//!
//! Run with: `cargo run --release --example profiling_demo`

use pilot_rf::core::{
    compiler_hot_registers, run_experiment, Launch, PartitionedRfConfig, RfKind, SwappingTable,
};
use pilot_rf::isa::{CmpOp, GridConfig, KernelBuilder, PredReg, Reg, StaticRegisterProfile};
use pilot_rf::sim::GpuConfig;

fn category2_kernel() -> pilot_rf::isa::Kernel {
    let mut kb = KernelBuilder::new("cat2_demo");
    kb.mov_special(Reg(0), pilot_rf::isa::SpecialReg::GlobalTid);
    for r in 1..12u8 {
        kb.mov_imm(Reg(r), u32::from(r));
    }
    // Decoy block: R1..R3 appear often, execute once.
    for _ in 0..3 {
        kb.iadd(Reg(1), Reg(1), Reg(2));
        kb.imad(Reg(2), Reg(3), Reg(3), Reg(2));
        kb.iadd(Reg(3), Reg(3), Reg(1));
    }
    // Data-dependent loop over R8..R10 (trip count from memory).
    kb.iadd_imm(Reg(4), Reg(0), 0x400);
    kb.ldg(Reg(10), Reg(4), 0); // bound
    kb.mov_imm(Reg(9), 0); // counter
    let top = kb.new_label();
    kb.place_label(top);
    kb.imad(Reg(8), Reg(8), Reg(8), Reg(8));
    kb.iadd_imm(Reg(9), Reg(9), 1);
    kb.setp(PredReg(0), CmpOp::Lt, Reg(9), Reg(10));
    kb.bra_if(PredReg(0), true, top);
    kb.stg(Reg(0), Reg(8), 0);
    kb.exit();
    kb.build().expect("demo kernel is valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = category2_kernel();
    println!("== the kernel ==\n{kernel}");

    // Static view (what the compiler sees).
    let profile = StaticRegisterProfile::analyze(&kernel);
    println!("compiler-identified top-4 (static): {:?}", profile.top_n(4));
    println!("  -> the decoys! They execute once but appear often.\n");

    // Dynamic truth: run it.
    let gpu = GpuConfig::kepler_single_sm();
    let trips: Vec<u32> = (0..2048).map(|i| 20 + (i * 7) % 30).collect();
    let launches = [Launch::new(kernel.clone(), GridConfig::new(8, 128))];
    let base = run_experiment(&gpu, &RfKind::MrfStv, &launches, &[(0x400, trips.clone())])?;
    println!(
        "actual top-4 after execution:       {:?}",
        base.stats.reg_accesses.top_n(4)
    );

    // The hybrid partitioned RF in action.
    let hybrid = run_experiment(
        &gpu,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        &launches,
        &[(0x400, trips)],
    )?;
    println!("\n== hybrid profiling timeline ==");
    println!(
        "at launch, compiler seed installed:  {:?}",
        hybrid.telemetry.compiler_hot_regs
    );
    println!(
        "pilot warp finished at cycle {} and reported: {:?}",
        hybrid.telemetry.pilot_done_cycle.unwrap_or(0),
        hybrid.telemetry.pilot_hot_regs
    );

    // Show the swapping-table mechanics (Fig. 7).
    println!("\n== swapping table (Fig. 7 walk-through) ==");
    let mut table = SwappingTable::new(4);
    println!(
        "initial mapping: identity ({} CAM bits)",
        table.storage_bits()
    );
    table.apply_hot_registers(&compiler_hot_registers(&kernel, 4));
    println!("after compiler seed: {:?}", table.entries());
    table.apply_hot_registers(&hybrid.telemetry.pilot_hot_regs);
    println!("after pilot result:  {:?}", table.entries());
    for r in &hybrid.telemetry.pilot_hot_regs {
        assert!(table.is_frf(*r), "{r} must live in the FRF now");
    }
    println!("all pilot-identified hot registers now live in the FRF.");
    Ok(())
}
