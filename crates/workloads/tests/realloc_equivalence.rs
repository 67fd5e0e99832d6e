//! Semantics-preservation oracle for the register reallocation pass
//! (`prf-isa::realloc`) over the Table I workload suite.
//!
//! Tier-1 coverage: every suite kernel must (a) validate after
//! rewriting, (b) shrink (or at worst keep) its register allocation,
//! and (c) produce a bit-identical global-memory image and instruction
//! count when the rewritten kernel replaces the original under the
//! simulator with auditing enabled. The full scheduler × RF-model
//! matrix (and generated kernels) runs in the release-mode `prf-fuzz
//! --mode realloc` harness; here we pin one representative baseline and
//! one partitioned configuration so the invariant is enforced on every
//! `cargo test`.
//!
//! ## Why the differential runs on a reduced grid
//!
//! Renaming registers changes *timing*: the bank swizzle is
//! `(warp_slot + reg) % banks` and the scoreboard tracks hazards by
//! register name, so a compacted kernel stalls differently — that is
//! the point of the pass. Timing may only ever be allowed to change
//! *performance*, never *values*, so the oracle must run the kernels in
//! a provably race-free regime. At Table I's full launch geometry two
//! recipe constructs are deliberate cross-thread races (they model the
//! timing sensitivity of the real benchmarks): streaming address
//! walkers eventually overlap the output region (btree's warp 248 reads
//! other threads' freshly-stored results), and shared-tile kernels read
//! a neighbour warp's slot between barriers. On a one-warp-per-CTA grid
//! both disappear: walkers stay far below the output region at 256
//! threads, and every neighbour read is either same-warp-lockstep
//! (deterministic) or an unwritten slot (zero). The *kernels* under
//! test are the exact Table I instruction streams; only the launch
//! geometry shrinks.

use std::sync::Arc;

use prf_core::{rf_model_factory, PartitionedRfConfig, RfKind};
use prf_isa::{reallocate, GridConfig, Kernel, KernelValidator};
use prf_sim::{Gpu, GpuConfig, SchedulerPolicy};
use prf_workloads::suite;

/// One warp per CTA: the race-free differential geometry (see module
/// docs). All eight CTAs are resident from cycle zero, so `%warpid`
/// slot assignment is deterministic too.
fn diff_grid() -> GridConfig {
    GridConfig::new(8, 32)
}

fn sim_config() -> GpuConfig {
    GpuConfig {
        scheduler: SchedulerPolicy::Gto,
        audit: true,
        // Covers the recipes' output region (0x100000 + gtid) with the
        // reduced grid's walkers staying far below it.
        global_mem_words: 1 << 21,
        max_cycles: 4_000_000,
        ..GpuConfig::kepler_single_sm()
    }
}

/// Runs `kernel` on the reduced grid with `w`'s memory image, returning
/// (instructions, final memory image).
fn run_kernel_image(
    kernel: Arc<Kernel>,
    mem_init: &[(u32, Vec<u32>)],
    rf: &RfKind,
    name: &str,
) -> (u64, Vec<u32>) {
    let config = sim_config();
    let factory = rf_model_factory(rf, config.num_rf_banks, None);
    let mut gpu = Gpu::new(config);
    for (base, words) in mem_init {
        gpu.global_mem().load(*base, words);
    }
    let r = gpu
        .run(kernel, diff_grid(), &factory)
        .unwrap_or_else(|e| panic!("{name}: simulation failed: {e}"));
    let audit = r.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{name}: audit violations: {audit}");
    let image = (0..gpu.global_mem_ref().len() as u32)
        .map(|a| gpu.global_mem_ref().read(a))
        .collect();
    (r.stats.instructions, image)
}

/// Every Table I kernel rewrites to a validating, no-larger kernel with
/// the same instruction stream shape, deterministically.
#[test]
fn table1_kernels_realloc_validate_and_compact() {
    let validator = KernelValidator::new();
    for w in suite() {
        for launch in &w.launches {
            let r = reallocate(&launch.kernel)
                .unwrap_or_else(|e| panic!("{}: realloc failed: {e}", w.name));
            validator
                .validate(&r.kernel)
                .unwrap_or_else(|e| panic!("{}: rewritten kernel invalid: {e}", w.name));
            assert_eq!(r.kernel.len(), launch.kernel.len(), "{}", w.name);
            assert!(
                r.new_regs <= r.old_regs,
                "{}: realloc grew the register set ({} -> {})",
                w.name,
                r.old_regs,
                r.new_regs
            );
            // Determinism: a second run produces the identical mapping.
            let again = reallocate(&launch.kernel).unwrap();
            assert_eq!(again.map, r.map, "{}: realloc is not deterministic", w.name);
        }
    }
}

/// Bit-identical architectural behaviour: instruction count and final
/// global-memory image match between original and rewritten kernels for
/// every Table I kernel, on both a monolithic and a partitioned RF.
#[test]
fn table1_realloc_preserves_memory_image_and_instructions() {
    let rfs = [
        RfKind::MrfStv,
        RfKind::Partitioned(PartitionedRfConfig::paper_default()),
    ];
    let mut cells = 0usize;
    for w in suite() {
        for (li, launch) in w.launches.iter().enumerate() {
            let rewritten = Arc::new(
                reallocate(&launch.kernel)
                    .unwrap_or_else(|e| panic!("{}: realloc failed: {e}", w.name))
                    .kernel,
            );
            for rf in &rfs {
                let tag = format!("{} launch {li} [{}]", w.name, rf.name());
                let (base_instrs, base_image) =
                    run_kernel_image(Arc::clone(&launch.kernel), &w.mem_init, rf, &tag);
                let (re_instrs, re_image) =
                    run_kernel_image(Arc::clone(&rewritten), &w.mem_init, rf, &tag);
                assert_eq!(
                    base_instrs, re_instrs,
                    "{tag}: instruction count drifted under realloc"
                );
                assert_eq!(
                    base_image, re_image,
                    "{tag}: memory image drifted under realloc"
                );
                cells += 1;
            }
        }
    }
    assert!(
        cells >= 2 * 17,
        "expected every suite workload covered, got {cells} cells"
    );
}
