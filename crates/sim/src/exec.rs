//! Functional execution of one warp instruction across its active lanes.
//!
//! The simulator is *functional-first*: architectural state (registers,
//! predicates, memories, the SIMT stack) is updated at issue time, while
//! timing (operand collection, bank conflicts, execution and memory
//! latencies) is modelled separately. The scoreboard guarantees that the
//! timing model never issues an instruction whose inputs are still in
//! flight, so the functional-first shortcut cannot produce value anomalies
//! visible to the timing model.

use prf_isa::{Dst, Instruction, Opcode, Operand, ReconvergenceTable, SpecialReg, WARP_SIZE};

use crate::mem::{GmemView, SharedMemory};
use crate::warp::WarpContext;

/// Geometry facts the executor needs to evaluate special registers.
#[derive(Debug, Clone, Copy)]
pub struct ExecEnv {
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Number of CTAs in the grid.
    pub num_ctas: u32,
}

/// The side effects of executing one instruction, as relevant to timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Word addresses touched per active lane (for coalescing), if the
    /// instruction was a global memory access.
    pub global_addrs: Vec<u32>,
    /// True if the instruction was a shared-memory access.
    pub shared_access: bool,
    /// True if the warp hit a barrier and is now blocked.
    pub hit_barrier: bool,
    /// Lanes that exited.
    pub exited_mask: u32,
    /// Lanes active when the instruction executed.
    pub active_lanes: u32,
    /// The instruction was a branch, and whether it diverged.
    pub branch: Option<bool>,
}

impl ExecOutcome {
    fn none() -> Self {
        ExecOutcome {
            global_addrs: Vec::new(),
            shared_access: false,
            hit_barrier: false,
            exited_mask: 0,
            active_lanes: 0,
            branch: None,
        }
    }

    /// An empty outcome reusing `addrs` as the address buffer — the SM's
    /// issue path recycles retired instructions' buffers through a pool so
    /// steady-state execution performs no per-instruction allocation.
    pub fn with_buffer(mut addrs: Vec<u32>) -> Self {
        addrs.clear();
        ExecOutcome {
            global_addrs: addrs,
            ..Self::none()
        }
    }
}

impl Default for ExecOutcome {
    fn default() -> Self {
        Self::none()
    }
}

/// Gathers operand `op` across all 32 lanes into `out`. Absent operands
/// read as zero; register reads are one contiguous slice copy thanks to
/// the register-major layout.
fn gather(warp: &WarpContext, env: &ExecEnv, op: Option<Operand>, out: &mut [u32; WARP_SIZE]) {
    match op {
        None => *out = [0; WARP_SIZE],
        Some(Operand::Reg(r)) => out.copy_from_slice(warp.reg_lanes(r.index())),
        Some(Operand::Imm(v)) => *out = [v; WARP_SIZE],
        Some(Operand::Special(s)) => {
            let tid0 = warp.warp_in_cta * WARP_SIZE as u32;
            for (lane, o) in out.iter_mut().enumerate() {
                let lane = lane as u32;
                *o = match s {
                    SpecialReg::TidX => tid0 + lane,
                    SpecialReg::CtaIdX => warp.cta.0,
                    SpecialReg::NTidX => env.threads_per_cta,
                    SpecialReg::NCtaIdX => env.num_ctas,
                    SpecialReg::LaneId => lane,
                    SpecialReg::WarpId => warp.warp_in_cta,
                    // Wrapping: inactive lanes past the grid's last thread
                    // are evaluated too, and must not trip overflow checks.
                    SpecialReg::GlobalTid => (warp.cta.0 * env.threads_per_cta)
                        .wrapping_add(tid0)
                        .wrapping_add(lane),
                };
            }
        }
    }
}

/// Lanes whose copy of predicate `g.pred` equals `g.expected`.
fn pred_true_lanes(warp: &WarpContext, g: &prf_isa::PredGuard) -> u32 {
    let bits = warp.preds[g.pred.index()];
    if g.expected {
        bits
    } else {
        !bits
    }
}

/// Iterates the set lanes of `mask` in ascending lane order.
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Executes the instruction at the warp's current pc, updating the warp's
/// architectural state, the SIMT stack, and the memories.
///
/// Writes the [`ExecOutcome`] the timing model needs into `outcome`
/// (typically built with [`ExecOutcome::with_buffer`] from a recycled
/// address buffer, keeping the issue path allocation-free). The caller
/// must have fetched `instr` from the warp's current pc.
///
/// # Panics
///
/// Panics if the warp has already exited.
pub fn execute_warp_instruction_into(
    warp: &mut WarpContext,
    instr: &Instruction,
    rt: &ReconvergenceTable,
    env: &ExecEnv,
    global: &mut GmemView<'_>,
    shared: &mut SharedMemory,
    outcome: &mut ExecOutcome,
) {
    let pc = warp.stack.pc().expect("executing an exited warp");
    let active = warp.stack.active_mask();
    outcome.active_lanes = active.count_ones();

    // Lanes where the guard holds.
    let guard_mask = match &instr.guard {
        None => active,
        Some(g) => active & pred_true_lanes(warp, g),
    };

    match instr.opcode {
        Opcode::Bra => {
            let target = instr.target.expect("validated branch has a target");
            let not_taken = active & !guard_mask;
            outcome.branch = Some(guard_mask != 0 && not_taken != 0);
            warp.stack.branch(pc, target, guard_mask, rt);
            return;
        }
        Opcode::Exit => {
            // Exit applies to guarded lanes; unguarded exit retires all
            // active lanes.
            outcome.exited_mask = guard_mask;
            let survivors = active & !guard_mask;
            if survivors != 0 {
                // Guarded exit with survivors: survivors fall through.
                warp.stack.exit_lanes(guard_mask);
                if warp.stack.pc() == Some(pc) {
                    warp.stack.advance(pc + 1);
                }
            } else {
                warp.stack.exit_lanes(guard_mask);
            }
            return;
        }
        Opcode::Bar => {
            outcome.hit_barrier = true;
            warp.stack.advance(pc + 1);
            return;
        }
        _ => {}
    }

    // Selp's guard is a value selector, not an execution mask: it runs in
    // every active lane and picks src0/src1 by the predicate value.
    let exec_mask = if instr.opcode == Opcode::Selp {
        active
    } else {
        guard_mask
    };

    // Each source operand is gathered once, for all 32 lanes. Every lane
    // reads only its own lanes' state (Shfl reads the gathered snapshot),
    // so gathering before any write-back is equivalent to the per-lane
    // read-then-write order.
    let mut a = [0u32; WARP_SIZE];
    let mut b = [0u32; WARP_SIZE];
    let mut c = [0u32; WARP_SIZE];
    gather(warp, env, instr.srcs[0], &mut a);
    gather(warp, env, instr.srcs[1], &mut b);
    let off = instr.mem_offset;
    let dst = instr.dst.as_reg().map(|r| r.index());
    let mut result = [0u32; WARP_SIZE];

    // Evaluate; `true` when `result` holds a register value to write back.
    let produces = match instr.opcode {
        // Memory side effects happen per executing lane, in ascending lane
        // order (the order the coalescer and the staged-write log see).
        Opcode::Ldg => {
            for lane in lanes(exec_mask) {
                let addr = a[lane].wrapping_add(off);
                outcome.global_addrs.push(addr);
                result[lane] = global.read(addr);
            }
            true
        }
        Opcode::Stg => {
            for lane in lanes(exec_mask) {
                let addr = a[lane].wrapping_add(off);
                outcome.global_addrs.push(addr);
                global.write(addr, b[lane]);
            }
            false
        }
        Opcode::Lds => {
            outcome.shared_access = exec_mask != 0;
            for lane in lanes(exec_mask) {
                result[lane] = shared.read(a[lane].wrapping_add(off));
            }
            true
        }
        Opcode::Sts => {
            outcome.shared_access = exec_mask != 0;
            for lane in lanes(exec_mask) {
                shared.write(a[lane].wrapping_add(off), b[lane]);
            }
            false
        }
        Opcode::Shfl => {
            for (r, &src_lane) in result.iter_mut().zip(&b) {
                *r = a[(src_lane & 31) as usize];
            }
            true
        }
        Opcode::Selp => {
            let g = instr
                .guard
                .as_ref()
                .expect("selp carries its predicate as guard");
            let sel = pred_true_lanes(warp, g);
            for (lane, r) in result.iter_mut().enumerate() {
                *r = if sel & (1 << lane) != 0 {
                    a[lane]
                } else {
                    b[lane]
                };
            }
            true
        }
        Opcode::Nop => false,
        // The ALU and `setp` arms match their opcode once per warp
        // instruction and then loop over the lanes (`eval_lanes`).
        Opcode::Setp(cmp) => {
            if let Dst::Pred(p) = instr.dst {
                let bits = cmp.eval_lanes(&a, &b);
                let old = warp.preds[p.index()];
                warp.preds[p.index()] = (old & !exec_mask) | (bits & exec_mask);
            }
            false
        }
        op => {
            if dst.is_some() {
                gather(warp, env, instr.srcs[2], &mut c);
                op.eval_lanes(&a, &b, &c, &mut result);
            }
            true
        }
    };

    // Write-back under the exec mask: inactive lanes are never written. A
    // full mask copies the slice; otherwise each lane selects its old or
    // new value through an all-ones or all-zeros mask, without a branch.
    if let (true, Some(r)) = (produces, dst) {
        let lanes = warp.reg_lanes_mut(r);
        if exec_mask == u32::MAX {
            lanes.copy_from_slice(&result);
        } else {
            for (lane, (d, &v)) in lanes.iter_mut().zip(&result).enumerate() {
                let on = 0u32.wrapping_sub((exec_mask >> lane) & 1);
                *d = (v & on) | (*d & !on);
            }
        }
    }

    warp.stack.advance(pc + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::GlobalMemory;
    use prf_isa::{CmpOp, CtaId, KernelBuilder, PredReg, Reg};

    /// Executes one instruction with serial (commit-immediately) memory
    /// semantics, as the SM's per-cycle commit produces.
    fn exec_step(
        warp: &mut WarpContext,
        instr: &Instruction,
        rt: &ReconvergenceTable,
        e: &ExecEnv,
        global: &mut GlobalMemory,
        shared: &mut SharedMemory,
    ) -> ExecOutcome {
        let mut log = Vec::new();
        let mut out = ExecOutcome::default();
        let mut view = GmemView::new(global, &mut log);
        execute_warp_instruction_into(warp, instr, rt, e, &mut view, shared, &mut out);
        for (a, v) in log {
            global.write(a, v);
        }
        out
    }

    fn env() -> ExecEnv {
        ExecEnv {
            threads_per_cta: 64,
            num_ctas: 4,
        }
    }

    fn fresh_warp(regs: usize) -> WarpContext {
        WarpContext::new(0, 0, CtaId(1), 1, u32::MAX, regs, 0)
    }

    fn run_to_completion(
        kernel: &prf_isa::Kernel,
        warp: &mut WarpContext,
        global: &mut GlobalMemory,
    ) {
        let rt = ReconvergenceTable::compute(kernel);
        let mut shared = SharedMemory::new(1024);
        let e = env();
        let mut steps = 0;
        while let Some(pc) = warp.stack.pc() {
            let instr = kernel.fetch(pc).clone();
            exec_step(warp, &instr, &rt, &e, global, &mut shared);
            steps += 1;
            assert!(steps < 100_000, "kernel did not terminate");
        }
    }

    #[test]
    fn special_registers_resolve_per_lane() {
        let mut kb = KernelBuilder::new("tid");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_special(Reg(1), SpecialReg::GlobalTid);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(2);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        // warp_in_cta = 1: tid = 32 + lane.
        assert_eq!(w.reg(0, 0), 32);
        assert_eq!(w.reg(5, 0), 37);
        // cta 1, 64 thr/cta: gtid = 64 + tid.
        assert_eq!(w.reg(5, 1), 64 + 37);
    }

    #[test]
    fn arithmetic_updates_registers() {
        let mut kb = KernelBuilder::new("a");
        kb.mov_imm(Reg(0), 6);
        kb.mov_imm(Reg(1), 7);
        kb.imul(Reg(2), Reg(0), Reg(1));
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(3);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(lane, 2), 42);
        }
    }

    #[test]
    fn global_load_store_roundtrip() {
        let mut kb = KernelBuilder::new("m");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_imm(Reg(1), 1000);
        kb.iadd(Reg(1), Reg(1), Reg(0)); // addr = 1000 + tid
        kb.mov_imm(Reg(2), 5);
        kb.stg(Reg(1), Reg(2), 0);
        kb.ldg(Reg(3), Reg(1), 0);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(4);
        let mut g = GlobalMemory::new(4096);
        run_to_completion(&k, &mut w, &mut g);
        assert_eq!(g.read(1032), 5); // tid 32 is lane 0 of warp 1
        assert_eq!(w.reg(0, 3), 5);
    }

    #[test]
    fn divergent_branch_executes_both_paths() {
        // if (tid < 40) R1 = 1 else R1 = 2  — lanes 0..7 of warp 1 take it.
        let mut kb = KernelBuilder::new("div");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 40);
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_);
        kb.mov_imm(Reg(1), 1);
        kb.bra(join);
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2);
        kb.place_label(join);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(2); // tids 32..63
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        for lane in 0..8 {
            assert_eq!(w.reg(lane, 1), 1, "lane {lane} (tid<40) takes then");
        }
        for lane in 8..WARP_SIZE {
            assert_eq!(w.reg(lane, 1), 2, "lane {lane} takes else");
        }
    }

    #[test]
    fn data_dependent_loop_trip_counts() {
        // R0 = tid & 3; loop until R1 >= R0: per-lane trip counts differ.
        let mut kb = KernelBuilder::new("loop");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.iand_imm(Reg(0), Reg(0), 3);
        kb.mov_imm(Reg(1), 0);
        kb.mov_imm(Reg(2), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(2), Reg(2), 10); // work
        kb.iadd_imm(Reg(1), Reg(1), 1);
        kb.setp(PredReg(0), CmpOp::Lt, Reg(1), Reg(0));
        kb.bra_if(PredReg(0), true, top);
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(3);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        // Lane 0: R0=0 -> one iteration (do-while), R2=10.
        assert_eq!(w.reg(0, 2), 10);
        // Lane 3: R0=3 -> three iterations, R2=30.
        assert_eq!(w.reg(3, 2), 30);
        // Lane 7 (7&3=3): 30 as well.
        assert_eq!(w.reg(7, 2), 30);
    }

    #[test]
    fn shfl_broadcasts_lane_value() {
        let mut kb = KernelBuilder::new("sh");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.mov_imm(Reg(1), 3); // read from lane 3
        kb.shfl(Reg(2), Reg(0), Reg(1));
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(3);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        for lane in 0..WARP_SIZE {
            assert_eq!(w.reg(lane, 2), 3);
        }
    }

    #[test]
    fn selp_selects_per_lane_without_squashing() {
        let mut kb = KernelBuilder::new("sel");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.mov_imm(Reg(1), 100);
        kb.mov_imm(Reg(2), 200);
        kb.setp_imm(PredReg(1), CmpOp::Lt, Reg(0), 16);
        kb.selp(Reg(3), Reg(1), Reg(2), PredReg(1));
        kb.exit();
        let k = kb.build().unwrap();
        let mut w = fresh_warp(4);
        let mut g = GlobalMemory::new(1024);
        run_to_completion(&k, &mut w, &mut g);
        assert_eq!(w.reg(0, 3), 100);
        assert_eq!(w.reg(20, 3), 200);
    }

    #[test]
    fn guarded_exit_retires_some_lanes() {
        let mut kb = KernelBuilder::new("gx");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.setp_imm(PredReg(0), CmpOp::Ge, Reg(0), 16);
        kb.guard(PredReg(0), true);
        kb.exit(); // upper half leaves
        kb.mov_imm(Reg(1), 9);
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mut w = fresh_warp(2);
        let mut g = GlobalMemory::new(1024);
        let mut s = SharedMemory::new(64);
        let e = env();
        // Step the first three instructions.
        for _ in 0..3 {
            let pc = w.stack.pc().unwrap();
            let i = k.fetch(pc).clone();
            exec_step(&mut w, &i, &rt, &e, &mut g, &mut s);
        }
        assert_eq!(w.stack.active_mask(), 0x0000_FFFF);
        // Finish.
        while let Some(pc) = w.stack.pc() {
            let i = k.fetch(pc).clone();
            exec_step(&mut w, &i, &rt, &e, &mut g, &mut s);
        }
        assert_eq!(w.reg(0, 1), 9);
        assert_eq!(w.reg(31, 1), 0, "exited lane never ran the mov");
    }

    #[test]
    fn barrier_blocks_and_advances_pc() {
        let mut kb = KernelBuilder::new("b");
        kb.bar();
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mut w = fresh_warp(1);
        let mut g = GlobalMemory::new(1024);
        let mut s = SharedMemory::new(64);
        let out = exec_step(&mut w, &k.fetch(0).clone(), &rt, &env(), &mut g, &mut s);
        assert!(out.hit_barrier);
        assert_eq!(w.stack.pc(), Some(1));
    }

    /// Runs `instr` once on `w` (the instruction is the whole kernel, so
    /// its reconvergence table is trivial) and returns the outcome plus
    /// the staged global writes in program order.
    fn exec_one(
        w: &mut WarpContext,
        instr: Instruction,
        global: &GlobalMemory,
    ) -> (ExecOutcome, Vec<(u32, u32)>) {
        let mut kb = KernelBuilder::new("one");
        kb.push(instr.clone());
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mut shared = SharedMemory::new(64);
        let mut log = Vec::new();
        let mut out = ExecOutcome::default();
        let mut view = GmemView::new(global, &mut log);
        execute_warp_instruction_into(w, &instr, &rt, &env(), &mut view, &mut shared, &mut out);
        (out, log)
    }

    /// Sets register `r` to `f(lane)` in every lane.
    fn fill(w: &mut WarpContext, r: usize, f: impl Fn(u32) -> u32) {
        for (lane, v) in w.reg_lanes_mut(r).iter_mut().enumerate() {
            *v = f(lane as u32);
        }
    }

    #[test]
    fn guarded_ops_leave_unexecuted_lanes_untouched() {
        let active = 0x0000_FFFF;
        let mut w = WarpContext::new(0, 0, CtaId(0), 0, active, 2, 0);
        fill(&mut w, 0, |lane| lane);
        w.preds[0] = 0x00FF_00FF; // guard: true in lanes 0..8 and 16..24
        w.preds[1] = 0xAAAA_AAAA; // old destination bits
        let setp = Instruction::new(Opcode::Setp(CmpOp::Lt))
            .with_dst(Dst::Pred(PredReg(1)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Imm(4)])
            .with_guard(prf_isa::PredGuard {
                pred: PredReg(0),
                expected: true,
            });
        exec_one(&mut w, setp, &GlobalMemory::new(64));
        let exec = active & 0x00FF_00FF; // lanes 0..8
        let fresh = 0x0000_000F; // lane < 4
        assert_eq!(w.preds[1], (0xAAAA_AAAA & !exec) | (fresh & exec));
        for lane in 0..WARP_SIZE {
            let expect = if exec & (1 << lane) != 0 {
                lane < 4
            } else {
                0xAAAA_AAAAu32 & (1 << lane) != 0
            };
            assert_eq!(w.pred(lane, 1), expect, "lane {lane}");
        }
        assert_eq!(w.preds[0], 0x00FF_00FF, "guard predicate untouched");

        // A guarded ALU op writes only the lanes where the guard holds.
        fill(&mut w, 1, |_| 0xDEAD);
        let iadd = Instruction::new(Opcode::IAdd)
            .with_dst(Dst::Reg(Reg(1)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Imm(1)])
            .with_guard(prf_isa::PredGuard {
                pred: PredReg(0),
                expected: true,
            });
        exec_one(&mut w, iadd, &GlobalMemory::new(64));
        for lane in 0..WARP_SIZE {
            let expect = if exec & (1 << lane) != 0 {
                lane as u32 + 1
            } else {
                0xDEAD
            };
            assert_eq!(w.reg(lane, 1), expect, "iadd lane {lane}");
        }
    }

    #[test]
    fn masked_global_accesses_run_in_ascending_lane_order() {
        let active: u32 = 0b1000_0000_0000_0000_0000_0000_1010_0101;
        let lanes: Vec<usize> = (0..WARP_SIZE).filter(|l| active & (1 << l) != 0).collect();
        let mut w = WarpContext::new(0, 0, CtaId(0), 0, active, 3, 0);
        // Descending addresses, so lane order and address order differ.
        fill(&mut w, 0, |lane| 500 - 4 * lane);
        fill(&mut w, 1, |lane| 1000 + lane);
        fill(&mut w, 2, |_| 0xDEAD);
        let mut global = GlobalMemory::new(1024);
        for lane in 0..WARP_SIZE as u32 {
            global.write(500 - 4 * lane + 1, 7000 + lane);
        }

        let stg =
            Instruction::new(Opcode::Stg).with_srcs(&[Operand::Reg(Reg(0)), Operand::Reg(Reg(1))]);
        let (out, log) = exec_one(&mut w, stg, &global);
        let addrs: Vec<u32> = lanes.iter().map(|&l| 500 - 4 * l as u32).collect();
        assert_eq!(out.global_addrs, addrs, "one address per executing lane");
        let staged: Vec<(u32, u32)> = lanes
            .iter()
            .map(|&l| (500 - 4 * l as u32, 1000 + l as u32))
            .collect();
        assert_eq!(log, staged, "stores staged in ascending lane order");

        let mut ldg = Instruction::new(Opcode::Ldg)
            .with_dst(Dst::Reg(Reg(2)))
            .with_srcs(&[Operand::Reg(Reg(0))]);
        ldg.mem_offset = 1;
        let (out, log) = exec_one(&mut w, ldg, &global);
        let addrs: Vec<u32> = lanes.iter().map(|&l| 500 - 4 * l as u32 + 1).collect();
        assert_eq!(out.global_addrs, addrs);
        assert!(log.is_empty());
        for lane in 0..WARP_SIZE {
            let expect = if active & (1 << lane) != 0 {
                7000 + lane as u32
            } else {
                0xDEAD
            };
            assert_eq!(w.reg(lane, 2), expect, "lane {lane}");
        }
    }

    #[test]
    fn selp_and_shfl_write_only_active_lanes_under_divergence() {
        let active = 0x0F0F_0F0F;
        let mut w = WarpContext::new(0, 0, CtaId(0), 0, active, 5, 0);
        fill(&mut w, 0, |lane| 100 + lane);
        fill(&mut w, 1, |lane| 200 + lane);
        fill(&mut w, 2, |lane| (lane + 4) % 32); // shfl source lane
        fill(&mut w, 3, |_| 0xDEAD);
        fill(&mut w, 4, |_| 0xBEEF);
        w.preds[2] = 0x3333_3333;

        let selp = Instruction::new(Opcode::Selp)
            .with_dst(Dst::Reg(Reg(3)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Reg(Reg(1))])
            .with_guard(prf_isa::PredGuard {
                pred: PredReg(2),
                expected: false,
            });
        exec_one(&mut w, selp, &GlobalMemory::new(64));
        // Reads an inactive lane's source value (lane + 4 is inactive for
        // lanes 0..4 of each byte), as the hardware crossbar does.
        let shfl = Instruction::new(Opcode::Shfl)
            .with_dst(Dst::Reg(Reg(4)))
            .with_srcs(&[Operand::Reg(Reg(0)), Operand::Reg(Reg(2))]);
        exec_one(&mut w, shfl, &GlobalMemory::new(64));

        for lane in 0..WARP_SIZE as u32 {
            let on = active & (1 << lane) != 0;
            let sel_src0 = 0x3333_3333u32 & (1 << lane) == 0; // @!P2 picks src0
            let selp_expect = match (on, sel_src0) {
                (false, _) => 0xDEAD,
                (true, true) => 100 + lane,
                (true, false) => 200 + lane,
            };
            assert_eq!(w.reg(lane as usize, 3), selp_expect, "selp lane {lane}");
            let shfl_expect = if on { 100 + (lane + 4) % 32 } else { 0xBEEF };
            assert_eq!(w.reg(lane as usize, 4), shfl_expect, "shfl lane {lane}");
        }
    }

    #[test]
    fn write_back_equals_the_per_lane_reference() {
        // Each destination-writing arm under a full mask (the slice copy)
        // and under divergent masks (the branch-free select), against a
        // per-lane reference: the lane's own result where the exec mask
        // holds it, the old value elsewhere.
        let mut global = GlobalMemory::new(1024);
        for addr in 0..1024 {
            global.write(addr, addr * 7 + 3);
        }
        let shared_at = |addr: u32| 5000 + addr * 11;
        let a = |lane: u32| 100 + lane * 3;
        let b = |lane: u32| lane ^ 0x55;
        let c = |lane: u32| (lane * 7 + 3) % 32;
        let pred = 0x3C3C_A5A5u32;
        let reg = |r: u8| Operand::Reg(Reg(r));
        let guard = prf_isa::PredGuard {
            pred: PredReg(0),
            expected: true,
        };
        let dst = Dst::Reg(Reg(5));
        let mut ldg = Instruction::new(Opcode::Ldg)
            .with_dst(dst)
            .with_srcs(&[reg(3)]);
        ldg.mem_offset = 1;
        let mut lds = Instruction::new(Opcode::Lds)
            .with_dst(dst)
            .with_srcs(&[reg(4)]);
        lds.mem_offset = 2;
        type Lane = Box<dyn Fn(u32) -> u32>;
        // (instruction, its result in a lane, whether the guard masks it)
        let cases: Vec<(Instruction, Lane, bool)> = vec![
            (
                Instruction::new(Opcode::IAdd)
                    .with_dst(dst)
                    .with_srcs(&[reg(0), reg(1)]),
                Box::new(move |l| a(l).wrapping_add(b(l))),
                false,
            ),
            (
                Instruction::new(Opcode::IMad)
                    .with_dst(dst)
                    .with_srcs(&[reg(0), reg(1), reg(2)]),
                Box::new(move |l| a(l).wrapping_mul(b(l)).wrapping_add(c(l))),
                false,
            ),
            (
                Instruction::new(Opcode::IAdd)
                    .with_dst(dst)
                    .with_srcs(&[reg(0), Operand::Imm(1)])
                    .with_guard(guard),
                Box::new(move |l| a(l) + 1),
                true,
            ),
            (
                Instruction::new(Opcode::Selp)
                    .with_dst(dst)
                    .with_srcs(&[reg(0), reg(1)])
                    .with_guard(guard),
                Box::new(move |l| if pred & (1 << l) != 0 { a(l) } else { b(l) }),
                false,
            ),
            (
                Instruction::new(Opcode::Shfl)
                    .with_dst(dst)
                    .with_srcs(&[reg(0), reg(2)]),
                Box::new(move |l| a(c(l))),
                false,
            ),
            (ldg, Box::new(move |l| (l * 5 + 1) * 7 + 3), false),
            (lds, Box::new(move |l| shared_at(l * 2 + 2)), false),
        ];
        for (instr, result, guarded) in &cases {
            for active in [u32::MAX, 0x0F0F_0F0F, 0x8000_0001, 0x7FFF_FFFF, 0xFFFF_FFFE] {
                let mut w = WarpContext::new(0, 0, CtaId(0), 0, active, 6, 0);
                fill(&mut w, 0, a);
                fill(&mut w, 1, b);
                fill(&mut w, 2, c);
                fill(&mut w, 3, |lane| lane * 5);
                fill(&mut w, 4, |lane| lane * 2);
                fill(&mut w, 5, |lane| 0xDEAD_0000 + lane);
                w.preds[0] = pred;
                let mut kb = KernelBuilder::new("one");
                kb.push(instr.clone());
                kb.exit();
                let k = kb.build().unwrap();
                let rt = ReconvergenceTable::compute(&k);
                let mut shared = SharedMemory::new(128);
                for addr in 0..128 {
                    shared.write(addr, shared_at(addr));
                }
                let mut log = Vec::new();
                let mut view = GmemView::new(&global, &mut log);
                let mut out = ExecOutcome::default();
                execute_warp_instruction_into(
                    &mut w,
                    instr,
                    &rt,
                    &env(),
                    &mut view,
                    &mut shared,
                    &mut out,
                );
                let exec = if *guarded { active & pred } else { active };
                for lane in 0..WARP_SIZE as u32 {
                    let want = if exec & (1 << lane) != 0 {
                        result(lane)
                    } else {
                        0xDEAD_0000 + lane
                    };
                    assert_eq!(
                        w.reg(lane as usize, 5),
                        want,
                        "{:?} active {active:#x} lane {lane}",
                        instr.opcode
                    );
                }
            }
        }
    }

    #[test]
    fn partial_warp_respects_initial_mask() {
        // sad-like CTA with 61 threads: warp 1 has 29 lanes.
        let mut kb = KernelBuilder::new("p");
        kb.mov_imm(Reg(0), 1);
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        let mask = (1u32 << 29) - 1;
        let mut w = WarpContext::new(1, 0, CtaId(0), 1, mask, 1, 0);
        let mut g = GlobalMemory::new(1024);
        let mut s = SharedMemory::new(64);
        exec_step(&mut w, &k.fetch(0).clone(), &rt, &env(), &mut g, &mut s);
        assert_eq!(w.reg(0, 0), 1);
        assert_eq!(w.reg(29, 0), 0, "inactive lane untouched");
        assert_eq!(w.reg(31, 0), 0);
    }
}
