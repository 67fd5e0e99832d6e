//! prf-fuzz — differential and mutation fuzzing of the simulator stack.
//!
//! Three modes, the generated-kernel ones driven by the seeded
//! [`RandomKernelGenerator`] so any failing case can be replayed from its
//! `(seed, index)` pair:
//!
//! * **differential** — every generated kernel must pass the validator,
//!   run audit-clean under every scheduler × RF model on a 2-SM machine
//!   (so cross-SM global-write commit order is exercised), and yield the
//!   same instruction count and final output image across *all* cells
//!   (the generator's race-freedom discipline makes architectural state a
//!   pure function of the kernel — see `prf_workloads::generate`).
//! * **mutation** — encoded kernels are bit-flipped and re-decoded: every
//!   corrupted stream must be rejected by the codec or the validator (or
//!   decode back to a still-valid kernel), but must *never* panic. A
//!   fixed set of targeted semantic corruptions additionally asserts the
//!   validator rejects each with instruction-index provenance.
//! * **realloc** — every generated kernel and every Table I suite kernel
//!   is rewritten by the register reallocation pass (`prf-isa::realloc`);
//!   the rewritten kernel must validate, never grow its register set, and
//!   retire the same instruction count with a bit-identical output image
//!   as the original under every scheduler × RF model. Table I kernels
//!   run on a one-warp-per-CTA grid where the recipes are provably
//!   race-free (see `prf-workloads/tests/realloc_equivalence.rs` for why
//!   renaming registers legitimately perturbs timing).
//!
//! ```text
//! prf-fuzz [--seeds N] [--seed S] [--mode differential|mutation|realloc|all]
//! ```
//!
//! Exits non-zero if any case fails; CI runs a fixed budget of all modes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use prf_bench::harness_args;
use prf_core::{
    rf_model_factory, shared_telemetry, DrowsyConfig, PartitionedRfConfig, RfKind, RfcConfig,
};
use prf_isa::{
    decode_kernel, encode_kernel, Dst, Instruction, Kernel, KernelBuilder, KernelValidator, Opcode,
    Operand, PredReg, Reg,
};
use prf_sim::{Gpu, GpuConfig, SchedulerPolicy, SimResult};
use prf_workloads::generate::{
    FuzzCase, KernelGenerator, RandomKernelGenerator, MEM_WORDS, OUT_BASE,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Differential,
    Mutation,
    Realloc,
    All,
}

impl Mode {
    fn runs(self, m: Mode) -> bool {
        self == Mode::All || self == m
    }
}

struct Args {
    seeds: u64,
    seed: u64,
    mode: Mode,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 200,
        seed: 0xC0FFEE,
        mode: Mode::All,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--seeds" => {
                args.seeds = value("--seeds")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--seeds: {e}")))
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--seed: {e}")))
            }
            "--mode" => {
                args.mode = match value("--mode").as_str() {
                    "differential" => Mode::Differential,
                    "mutation" => Mode::Mutation,
                    "realloc" => Mode::Realloc,
                    "all" => Mode::All,
                    other => die(&format!("--mode: unknown mode `{other}`")),
                }
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("prf-fuzz: {msg}");
    eprintln!("usage: prf-fuzz [--seeds N] [--seed S] [--mode differential|mutation|realloc|all]");
    std::process::exit(2);
}

/// The scheduler × RF matrix every differential case runs under.
fn schedulers() -> Vec<SchedulerPolicy> {
    vec![
        SchedulerPolicy::Gto,
        SchedulerPolicy::Lrr,
        SchedulerPolicy::TwoLevel {
            active_per_scheduler: 8,
        },
        SchedulerPolicy::FetchGroup { group_size: 8 },
    ]
}

fn rf_kinds(banks: usize, max_warps: usize) -> Vec<RfKind> {
    vec![
        RfKind::MrfStv,
        RfKind::MrfNtv { latency: 3 },
        RfKind::Partitioned(PartitionedRfConfig::paper_default(banks)),
        RfKind::Rfc(RfcConfig::paper_default(banks, max_warps)),
        RfKind::Drowsy(DrowsyConfig::paper_adjacent(banks, max_warps)),
    ]
}

/// The fuzzing machine: 2 SMs (so staged global writes commit from more
/// than one SM), a small power-of-two memory covering the generator's
/// regions, audit on.
fn fuzz_config(scheduler: SchedulerPolicy) -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        scheduler,
        global_mem_words: MEM_WORDS,
        max_cycles: 2_000_000,
        audit: true,
        ..GpuConfig::kepler_single_sm()
    }
}

/// One simulated cell: the `SimResult`, its audit verdict, and the final
/// output image.
struct CellRun {
    result: SimResult,
    out_image: Vec<u32>,
}

fn run_cell(
    case: &FuzzCase,
    kernel: &Arc<Kernel>,
    scheduler: SchedulerPolicy,
    rf: &RfKind,
) -> Result<CellRun, String> {
    let config = fuzz_config(scheduler);
    let banks = config.num_rf_banks;
    let telemetry = shared_telemetry();
    let factory = rf_model_factory(rf, banks, &telemetry);
    let mut gpu = Gpu::try_new(config).map_err(|e| format!("try_new: {e}"))?;
    for (base, words) in &case.mem_init {
        gpu.global_mem().load(*base, words);
    }
    let result = gpu
        .run(Arc::clone(kernel), case.grid, &factory)
        .map_err(|e| format!("run: {e}"))?;
    match &result.audit {
        Some(a) if a.is_clean() => {}
        Some(a) => return Err(format!("audit violations: {a}")),
        None => return Err("audit report missing despite audit=true".into()),
    }
    let out_image = (0..case.total_threads())
        .map(|t| gpu.global_mem_ref().read(OUT_BASE + t))
        .collect();
    Ok(CellRun { result, out_image })
}

/// Differential check of one generated case across the full matrix.
/// Returns the list of discrepancies (empty = pass).
fn differential_case(generator: &RandomKernelGenerator, index: u64) -> Vec<String> {
    let mut errors = Vec::new();
    let case = generator.generate(index);
    if let Err(e) = KernelValidator::new().validate(&case.kernel) {
        return vec![format!(
            "case {index}: generated kernel failed validation: {e}"
        )];
    }
    let kernel = Arc::new(case.kernel.clone());
    let banks = GpuConfig::kepler_single_sm().num_rf_banks;
    let max_warps = GpuConfig::kepler_single_sm().max_warps_per_sm;
    // (instructions, output image) must agree across every cell.
    let mut architectural: Option<(u64, Vec<u32>, String)> = None;
    let rfs = rf_kinds(banks, max_warps);
    for scheduler in schedulers() {
        for rf in &rfs {
            let label = format!("case {index} {}/{}", scheduler.name(), rf.name());
            let run = match run_cell(&case, &kernel, scheduler, rf) {
                Ok(run) => run,
                Err(e) => {
                    errors.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let instructions = run.result.stats.instructions;
            match &architectural {
                None => {
                    architectural = Some((instructions, run.out_image, label));
                }
                Some((ref_instr, ref_image, ref_label)) => {
                    if instructions != *ref_instr {
                        errors.push(format!(
                            "{label}: {instructions} instructions vs {ref_instr} in {ref_label}"
                        ));
                    }
                    if run.out_image != *ref_image {
                        errors.push(format!("{label}: output image differs from {ref_label}"));
                    }
                }
            }
        }
    }
    errors
}

/// Runs `case` on every generated case index `0..args.seeds` over a
/// pool of `PRF_THREADS` workers (capped at the case count), printing a
/// `[label] n/N <what>` progress line every 50 cases. Returns every
/// discrepancy the cases reported.
fn run_cases(
    args: &Args,
    label: &str,
    what: &str,
    case: impl Fn(&RandomKernelGenerator, u64) -> Vec<String> + Sync,
) -> Vec<String> {
    let generator = RandomKernelGenerator::new(args.seed);
    let next = AtomicU64::new(0);
    let done = AtomicUsize::new(0);
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let workers = harness_args().threads.min(args.seeds.max(1) as usize);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= args.seeds {
                    break;
                }
                let errors = case(&generator, index);
                if !errors.is_empty() {
                    failures.lock().unwrap().extend(errors);
                }
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(50) {
                    eprintln!("[{label}] {n}/{} {what}", args.seeds);
                }
            });
        }
    });
    failures.into_inner().unwrap()
}

fn run_differential(args: &Args) -> usize {
    let failures = run_cases(args, "differential", "cases", differential_case);
    for f in failures.iter().take(20) {
        eprintln!("[differential] FAIL {f}");
    }
    println!(
        "[differential] {} cases x 4 schedulers x 5 RF models x 2 thread counts: {} discrepancies",
        args.seeds,
        failures.len()
    );
    failures.len()
}

/// Rewrite `kernel` with the reallocation pass, panicking into an error
/// string on failure. Shared by the generated-kernel and Table I arms.
fn realloc_checked(kernel: &Kernel, what: &str) -> Result<prf_isa::Realloc, String> {
    let r = prf_isa::reallocate(kernel).map_err(|e| format!("{what}: realloc failed: {e}"))?;
    KernelValidator::new()
        .validate(&r.kernel)
        .map_err(|e| format!("{what}: rewritten kernel failed validation: {e}"))?;
    if r.new_regs > r.old_regs {
        return Err(format!(
            "{what}: realloc grew the register set ({} -> {})",
            r.old_regs, r.new_regs
        ));
    }
    Ok(r)
}

/// Realloc differential on one generated case: original vs rewritten
/// kernel must retire the same instruction count and output image under
/// every scheduler × RF model. Generated kernels are race-free by
/// construction, so the comparison is exact at the case's own grid.
fn realloc_case(generator: &RandomKernelGenerator, index: u64) -> Vec<String> {
    let case = generator.generate(index);
    let r = match realloc_checked(&case.kernel, &format!("case {index}")) {
        Ok(r) => r,
        Err(e) => return vec![e],
    };
    let original = Arc::new(case.kernel.clone());
    let rewritten = Arc::new(r.kernel);
    let banks = GpuConfig::kepler_single_sm().num_rf_banks;
    let max_warps = GpuConfig::kepler_single_sm().max_warps_per_sm;
    let rfs = rf_kinds(banks, max_warps);
    let mut errors = Vec::new();
    for scheduler in schedulers() {
        for rf in &rfs {
            let label = format!("case {index} {}/{}", scheduler.name(), rf.name());
            let base = match run_cell(&case, &original, scheduler, rf) {
                Ok(run) => run,
                Err(e) => {
                    errors.push(format!("{label} original: {e}"));
                    continue;
                }
            };
            match run_cell(&case, &rewritten, scheduler, rf) {
                Ok(re) => {
                    if re.result.stats.instructions != base.result.stats.instructions {
                        errors.push(format!(
                            "{label}: instruction count drifted under realloc ({} vs {})",
                            re.result.stats.instructions, base.result.stats.instructions
                        ));
                    }
                    if re.out_image != base.out_image {
                        errors.push(format!("{label}: output image drifted under realloc"));
                    }
                }
                Err(e) => errors.push(format!("{label} rewritten: {e}")),
            }
        }
    }
    errors
}

/// The race-free launch geometry for Table I realloc differentials: one
/// warp per CTA keeps the recipes' streaming walkers far below the output
/// region and turns shared-tile neighbour reads into same-warp lockstep.
fn table1_grid() -> prf_isa::GridConfig {
    prf_isa::GridConfig::new(8, 32)
}

/// Table I kernels write their output at `0x100000 + gtid`, so the fuzz
/// memory is too small; this config covers the recipe address map.
fn table1_config(scheduler: SchedulerPolicy) -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        scheduler,
        global_mem_words: 1 << 21,
        max_cycles: 4_000_000,
        audit: true,
        ..GpuConfig::kepler_single_sm()
    }
}

/// One Table I realloc cell: (instructions, full final memory image).
fn table1_cell(
    kernel: &Arc<Kernel>,
    mem_init: &[(u32, Vec<u32>)],
    scheduler: SchedulerPolicy,
    rf: &RfKind,
) -> Result<(u64, Vec<u32>), String> {
    let config = table1_config(scheduler);
    let banks = config.num_rf_banks;
    let telemetry = shared_telemetry();
    let factory = rf_model_factory(rf, banks, &telemetry);
    let mut gpu = Gpu::try_new(config).map_err(|e| format!("try_new: {e}"))?;
    for (base, words) in mem_init {
        gpu.global_mem().load(*base, words);
    }
    let result = gpu
        .run(Arc::clone(kernel), table1_grid(), &factory)
        .map_err(|e| format!("run: {e}"))?;
    match &result.audit {
        Some(a) if a.is_clean() => {}
        Some(a) => return Err(format!("audit violations: {a}")),
        None => return Err("audit report missing despite audit=true".into()),
    }
    let image = (0..gpu.global_mem_ref().len() as u32)
        .map(|a| gpu.global_mem_ref().read(a))
        .collect();
    Ok((result.stats.instructions, image))
}

/// Realloc differential over every Table I suite kernel, full scheduler ×
/// RF matrix, full-memory-image oracle.
fn realloc_table1() -> Vec<String> {
    let banks = GpuConfig::kepler_single_sm().num_rf_banks;
    let max_warps = GpuConfig::kepler_single_sm().max_warps_per_sm;
    let rfs = rf_kinds(banks, max_warps);
    let mut errors = Vec::new();
    for w in prf_workloads::suite() {
        for (li, launch) in w.launches.iter().enumerate() {
            let what = format!("{} launch {li}", w.name);
            let r = match realloc_checked(&launch.kernel, &what) {
                Ok(r) => r,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            let rewritten = Arc::new(r.kernel);
            for scheduler in schedulers() {
                for rf in &rfs {
                    let label = format!("{what} {}/{}", scheduler.name(), rf.name());
                    let base = match table1_cell(&launch.kernel, &w.mem_init, scheduler, rf) {
                        Ok(run) => run,
                        Err(e) => {
                            errors.push(format!("{label} original: {e}"));
                            continue;
                        }
                    };
                    match table1_cell(&rewritten, &w.mem_init, scheduler, rf) {
                        Ok(re) => {
                            if re.0 != base.0 {
                                errors.push(format!(
                                    "{label}: instruction count drifted under realloc \
                                     ({} vs {})",
                                    re.0, base.0
                                ));
                            }
                            if re.1 != base.1 {
                                errors.push(format!("{label}: memory image drifted under realloc"));
                            }
                        }
                        Err(e) => errors.push(format!("{label} rewritten: {e}")),
                    }
                }
            }
        }
    }
    errors
}

fn run_realloc(args: &Args) -> usize {
    let mut failures = run_cases(args, "realloc", "generated cases", realloc_case);
    failures.extend(realloc_table1());
    for f in failures.iter().take(20) {
        eprintln!("[realloc] FAIL {f}");
    }
    println!(
        "[realloc] {} generated cases + Table I suite x 4 schedulers x 5 RF models: \
         {} discrepancies",
        args.seeds,
        failures.len()
    );
    failures.len()
}

/// Targeted semantic corruptions: each builds (the structural builder
/// accepts it) but must be rejected by the validator with provenance.
fn targeted_corruptions() -> Vec<(&'static str, Kernel)> {
    let build = |name: &str, f: &dyn Fn(&mut KernelBuilder)| -> Kernel {
        let mut kb = KernelBuilder::new(name);
        f(&mut kb);
        kb.build()
            .expect("targeted corruptions are structurally buildable")
    };
    vec![
        (
            "branch without a target",
            build("no_target", &|kb| {
                kb.push(Instruction::new(Opcode::Bra));
                kb.exit();
            }),
        ),
        (
            "shfl with an immediate source",
            build("shfl_imm", &|kb| {
                kb.push(
                    Instruction::new(Opcode::Shfl)
                        .with_dst(Dst::Reg(Reg(2)))
                        .with_srcs(&[Operand::Imm(3), Operand::Imm(0)]),
                );
                kb.exit();
            }),
        ),
        (
            "selp without its predicate guard",
            build("bare_selp", &|kb| {
                kb.push(
                    Instruction::new(Opcode::Selp)
                        .with_dst(Dst::Reg(Reg(2)))
                        .with_srcs(&[Operand::Reg(Reg(0)), Operand::Reg(Reg(1))]),
                );
                kb.exit();
            }),
        ),
        (
            "guarded barrier",
            build("guarded_bar", &|kb| {
                kb.guard(PredReg(0), true);
                kb.push(Instruction::new(Opcode::Bar));
                kb.exit();
            }),
        ),
        (
            "store missing its value operand",
            build("half_store", &|kb| {
                kb.push(Instruction::new(Opcode::Stg).with_srcs(&[Operand::Reg(Reg(0))]));
                kb.exit();
            }),
        ),
        (
            "guarded exit at the end falls off",
            build("guarded_end", &|kb| {
                kb.mov_imm(Reg(0), 1);
                kb.guard(PredReg(0), true);
                kb.exit();
            }),
        ),
    ]
}

fn run_mutation(args: &Args) -> usize {
    let mut failures = 0usize;
    let validator = KernelValidator::new();

    // Targeted corruptions: must reject, with instruction provenance.
    for (what, kernel) in targeted_corruptions() {
        match validator.validate(&kernel) {
            Err(e) if e.to_string().contains("instr ") => {}
            Err(e) => {
                eprintln!("[mutation] FAIL {what}: rejected but without provenance: {e}");
                failures += 1;
            }
            Ok(()) => {
                eprintln!("[mutation] FAIL {what}: validator accepted a corrupted kernel");
                failures += 1;
            }
        }
    }

    // Random bit flips over encoded kernels: decode + validate must
    // classify, never panic.
    let generator = RandomKernelGenerator::new(args.seed);
    let (mut decode_rejected, mut validate_rejected, mut still_valid, mut panics) = (0u64, 0, 0, 0);
    for index in 0..args.seeds {
        let case = generator.generate(index);
        let mut words = encode_kernel(&case.kernel);
        // A cheap per-case stream for flip positions, decorrelated from
        // the generator's own stream.
        let mut state = (args.seed ^ index.wrapping_mul(0x94D0_49BB_1331_11EB)) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4 {
            let w = (next() % words.len() as u64) as usize;
            words[w] ^= 1 << (next() % 32);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match decode_kernel("mutated", &words) {
                Err(_) => 0u8,
                Ok(k) => match validator.validate(&k) {
                    Err(_) => 1,
                    Ok(()) => 2,
                },
            }
        }));
        match outcome {
            Ok(0) => decode_rejected += 1,
            Ok(1) => validate_rejected += 1,
            Ok(2) => still_valid += 1,
            Ok(_) => unreachable!(),
            Err(_) => {
                eprintln!("[mutation] FAIL case {index}: decode/validate panicked");
                panics += 1;
            }
        }
    }
    println!(
        "[mutation] {} targeted corruptions rejected with provenance; {} bit-flip cases: \
         {decode_rejected} decode-rejected, {validate_rejected} validate-rejected, \
         {still_valid} still-valid, {panics} panics",
        targeted_corruptions().len(),
        args.seeds,
    );
    failures + panics as usize
}

fn main() {
    let args = parse_args();
    // A malformed `PRF_*` variable exits 2 whichever modes run.
    harness_args();
    let mut failures = 0;
    if args.mode.runs(Mode::Differential) {
        failures += run_differential(&args);
    }
    if args.mode.runs(Mode::Mutation) {
        failures += run_mutation(&args);
    }
    if args.mode.runs(Mode::Realloc) {
        failures += run_realloc(&args);
    }
    if failures > 0 {
        eprintln!("prf-fuzz: {failures} failures");
        std::process::exit(1);
    }
    println!("prf-fuzz: all checks passed");
}
