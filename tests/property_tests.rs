//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.

use pilot_rf::core::SwappingTable;
use pilot_rf::finfet::array::{characterize, ArraySpec, VoltageMode};
use pilot_rf::isa::{
    CmpOp, KernelBuilder, PredReg, ReconvergenceTable, Reg, StaticRegisterProfile,
};
use pilot_rf::sim::{SimtStack, WarpContext};
use proptest::prelude::*;

proptest! {
    /// The swapping table stays a permutation for ANY hot-register input,
    /// and every (deduplicated) hot register lands in the FRF.
    #[test]
    fn swap_table_is_always_a_permutation(
        n in 1usize..=8,
        hot in proptest::collection::vec(0u8..63, 0..8),
    ) {
        let mut t = SwappingTable::new(n);
        t.apply_hot_registers(&hot.iter().map(|&r| Reg(r)).collect::<Vec<_>>());
        prop_assert!(t.is_permutation());
        // The first n distinct hot registers must live in the FRF.
        let mut seen = Vec::new();
        for &h in &hot {
            if !seen.contains(&h) {
                seen.push(h);
            }
            if seen.len() > n {
                break;
            }
        }
        for &h in seen.iter().take(n) {
            prop_assert!(t.is_frf(Reg(h)), "R{h} must be in the FRF");
        }
        // Lookup round-trips: exactly one architected register maps to
        // each physical register.
        let mut phys_seen = [false; 63];
        for a in 0..63u8 {
            let p = t.lookup(Reg(a)).index();
            prop_assert!(!phys_seen[p]);
            phys_seen[p] = true;
        }
    }

    /// Re-applying any sequence of hot sets keeps at most 2n CAM entries.
    #[test]
    fn swap_table_entry_budget(
        sets in proptest::collection::vec(
            proptest::collection::vec(0u8..63, 0..6),
            1..5,
        ),
    ) {
        let mut t = SwappingTable::new(4);
        for set in &sets {
            t.apply_hot_registers(&set.iter().map(|&r| Reg(r)).collect::<Vec<_>>());
            prop_assert!(t.entries().len() <= 8, "2n = 8 CAM entries max");
            prop_assert!(t.is_permutation());
        }
    }

    /// SIMT stack: lanes are conserved across any sequence of divergent
    /// branches and reconvergence steps.
    #[test]
    fn simt_stack_conserves_lanes(
        initial_mask in 1u32..=u32::MAX,
        takens in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        // A simple diamond kernel gives a legal reconvergence table.
        let mut kb = KernelBuilder::new("p");
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 1); // 0
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_); // 1
        kb.mov_imm(Reg(1), 1); // 2
        kb.bra(join); // 3
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2); // 4
        kb.place_label(join);
        kb.exit(); // 5
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);

        let mut stack = SimtStack::new(initial_mask);
        for t in takens {
            if stack.is_done() {
                break;
            }
            let active = stack.active_mask();
            let taken = t & active;
            stack.branch(1, 4, taken, &rt);
            prop_assert_eq!(stack.live_mask(), initial_mask, "no lane may vanish");
            // Step the top entry to its reconvergence point to unwind.
            stack.advance(5);
        }
        prop_assert_eq!(stack.live_mask(), initial_mask);
    }

    /// Exiting lanes in arbitrary batches always drains the stack without
    /// leaking lanes.
    #[test]
    fn simt_stack_exit_drains(
        initial_mask in 1u32..=u32::MAX,
        exits in proptest::collection::vec(any::<u32>(), 1..8),
    ) {
        let mut stack = SimtStack::new(initial_mask);
        let mut live = initial_mask;
        for e in exits {
            let batch = e & live;
            stack.exit_lanes(batch);
            live &= !batch;
            prop_assert_eq!(stack.live_mask(), live);
            prop_assert_eq!(stack.is_done(), live == 0);
        }
        stack.exit_lanes(live);
        prop_assert!(stack.is_done());
    }

    /// Static register analysis: total occurrences equal the sum over
    /// instructions of their access counts, and top_n coverage is
    /// monotonically non-decreasing in n.
    #[test]
    fn static_profile_consistency(
        regs in proptest::collection::vec((0u8..20, 0u8..20, 0u8..20), 1..30),
    ) {
        let mut kb = KernelBuilder::new("p");
        for &(d, a, b) in &regs {
            kb.iadd(Reg(d), Reg(a), Reg(b));
        }
        kb.exit();
        let k = kb.build().unwrap();
        let p = StaticRegisterProfile::analyze(&k);
        prop_assert_eq!(p.total(), 3 * regs.len() as u64);
        let mut prev = 0.0;
        for n in 1..=8 {
            let c = p.coverage(&p.top_n(n));
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
        prop_assert!(prev <= 1.0 + 1e-12);
    }

    /// Array model: energy and leakage are monotone in size; energy is
    /// monotone in voltage; all outputs are positive and finite.
    #[test]
    fn array_model_monotonicity(
        kb1 in 2.0f64..200.0,
        delta in 1.0f64..100.0,
    ) {
        let small = characterize(&ArraySpec::rf(kb1, VoltageMode::Stv));
        let big = characterize(&ArraySpec::rf(kb1 + delta, VoltageMode::Stv));
        prop_assert!(big.access_energy_pj > small.access_energy_pj);
        prop_assert!(big.leakage_mw > small.leakage_mw);
        prop_assert!(big.area_mm2 > small.area_mm2);
        prop_assert!(big.access_time_ns > small.access_time_ns);
        let ntv = characterize(&ArraySpec::rf(kb1, VoltageMode::Ntv));
        prop_assert!(ntv.access_energy_pj < small.access_energy_pj);
        prop_assert!(ntv.access_time_ns > small.access_time_ns);
        for c in [small, big, ntv] {
            prop_assert!(c.access_energy_pj.is_finite() && c.access_energy_pj > 0.0);
            prop_assert!(c.leakage_mw.is_finite() && c.leakage_mw > 0.0);
        }
    }

    /// Kernel builder + reconvergence: every validated kernel gets a
    /// reconvergence table covering every instruction, and all branch
    /// targets stay in range.
    #[test]
    fn kernels_always_get_full_reconvergence_tables(
        body in proptest::collection::vec((0u8..10, 0u8..10), 1..20),
        loop_trips in 1u32..5,
    ) {
        let mut kb = KernelBuilder::new("p");
        kb.mov_imm(Reg(15), 0);
        let top = kb.new_label();
        kb.place_label(top);
        for &(a, b) in &body {
            kb.iadd(Reg(a), Reg(a), Reg(b));
        }
        kb.iadd_imm(Reg(15), Reg(15), 1);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(15), loop_trips);
        kb.bra_if(PredReg(0), true, top);
        kb.exit();
        let k = kb.build().unwrap();
        let rt = ReconvergenceTable::compute(&k);
        prop_assert_eq!(rt.len(), k.len());
        for (pc, i) in k.instructions().iter().enumerate() {
            if let Some(t) = i.target {
                prop_assert!(t < k.len());
            }
            if let Some(r) = rt.reconvergence_pc(pc) {
                prop_assert!(r < k.len());
            }
        }
    }
}

#[test]
fn warp_context_register_file_is_sized_exactly() {
    let w = WarpContext::new(0, 0, pilot_rf::isa::CtaId(0), 0, u32::MAX, 63, 0);
    // Register-major: one contiguous 32-lane slice per architected register.
    assert_eq!(w.regs.len(), 32 * 63);
    assert!((0..63).all(|r| w.reg_lanes(r).len() == 32));
}
