//! Per-workload behavioural tests: every benchmark must exhibit its
//! category's profiling structure and the suite-wide invariants the
//! paper's analysis rests on.

use prf_core::{compiler_hot_registers, run_experiment, PartitionedRfConfig, RfKind};
use prf_isa::StaticRegisterProfile;
use prf_sim::GpuConfig;
use prf_workloads::{suite, Category, Workload};

fn gpu() -> GpuConfig {
    GpuConfig::kepler_single_sm()
}

fn run(w: &Workload, rf: &RfKind) -> prf_core::ExperimentResult {
    run_experiment(&gpu(), rf, &w.launches, &w.mem_init).unwrap()
}

/// Identification coverages of (compiler, pilot) for a workload's first
/// kernel against its dynamic histogram.
fn coverages(w: &Workload) -> (f64, f64) {
    let single = Workload {
        name: w.name,
        category: w.category,
        launches: vec![w.launches[0].clone()],
        mem_init: w.mem_init.clone(),
        table1: w.table1,
    };
    let base = run(&single, &RfKind::MrfStv);
    let hist = &base.stats.reg_accesses;
    let part = run(
        &single,
        &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
    );
    (
        hist.coverage(&part.telemetry.compiler_hot_regs),
        hist.coverage(&part.telemetry.pilot_hot_regs),
    )
}

#[test]
fn every_workload_terminates_under_every_rf() {
    for w in suite() {
        for rf in [
            RfKind::MrfStv,
            RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        ] {
            let r = run(&w, &rf);
            assert!(r.cycles > 0, "{} under {}", w.name, r.rf_name);
            assert!(r.stats.instructions > 0, "{}", w.name);
        }
    }
}

#[test]
fn category1_compiler_tracks_pilot() {
    for w in suite().into_iter().filter(|w| w.category == Category::One) {
        let (c, p) = coverages(&w);
        assert!(
            c >= p - 0.10,
            "{}: Category 1 requires compiler ({c:.2}) within 10% of pilot ({p:.2})",
            w.name
        );
    }
}

#[test]
fn category2_pilot_beats_compiler_by_10_points() {
    for w in suite().into_iter().filter(|w| w.category == Category::Two) {
        let (c, p) = coverages(&w);
        assert!(
            p > c + 0.10,
            "{}: Category 2 requires pilot ({p:.2}) >10% above compiler ({c:.2})",
            w.name
        );
    }
}

#[test]
fn category3_compiler_beats_pilot_by_10_points() {
    for w in suite()
        .into_iter()
        .filter(|w| w.category == Category::Three)
    {
        let (c, p) = coverages(&w);
        assert!(
            c > p + 0.10,
            "{}: Category 3 requires compiler ({c:.2}) >10% above pilot ({p:.2})",
            w.name
        );
    }
}

#[test]
fn access_skew_holds_suite_wide() {
    let mut shares = Vec::new();
    for w in suite() {
        let r = run(&w, &RfKind::MrfStv);
        let s = r.stats.reg_accesses.top_share(3);
        assert!(s > 0.35, "{}: top-3 share {s:.2} too flat", w.name);
        shares.push(s);
    }
    let mean = shares.iter().sum::<f64>() / shares.len() as f64;
    assert!(
        (0.55..0.72).contains(&mean),
        "suite mean top-3 share {mean:.3} should bracket the paper's 62%"
    );
}

#[test]
fn static_profiles_use_exactly_the_register_budget() {
    for w in suite() {
        for launch in &w.launches {
            let p = StaticRegisterProfile::analyze(&launch.kernel);
            let regs = launch.kernel.regs_per_thread();
            // Every allocated register is touched at least once.
            for r in 0..regs {
                assert!(
                    p.count(prf_isa::Reg(r)) > 0,
                    "{}: R{r} allocated but never referenced",
                    w.name
                );
            }
        }
    }
}

#[test]
fn compiler_hot_registers_are_deterministic() {
    for w in suite() {
        let a = compiler_hot_registers(&w.launches[0].kernel, 4);
        let b = compiler_hot_registers(&w.launches[0].kernel, 4);
        assert_eq!(a, b, "{}", w.name);
    }
}

#[test]
fn runs_are_deterministic_across_repeats() {
    let w = prf_workloads::by_name("kmeans").unwrap();
    let r1 = run(&w, &RfKind::MrfStv);
    let r2 = run(&w, &RfKind::MrfStv);
    assert_eq!(r1.cycles, r2.cycles);
    assert_eq!(r1.stats.instructions, r2.stats.instructions);
    assert_eq!(
        r1.stats.reg_accesses.counts(),
        r2.stats.reg_accesses.counts()
    );
}

#[test]
fn pilot_identifies_designated_hot_registers() {
    // Spot checks against the paper-named hot sets.
    let check = |name: &str, expect: &[u8]| {
        let w = prf_workloads::by_name(name).unwrap();
        let single = Workload {
            name: w.name,
            category: w.category,
            launches: vec![w.launches[0].clone()],
            mem_init: w.mem_init.clone(),
            table1: w.table1,
        };
        let part = run(
            &single,
            &RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        );
        let hot = &part.telemetry.pilot_hot_regs;
        for &r in expect {
            assert!(
                hot.contains(&prf_isa::Reg(r)),
                "{name}: pilot should find R{r}, got {hot:?}"
            );
        }
    };
    // backprop kernel 1: R0/R8/R9 (§II); CP: R1/R9/R10 (§II).
    check("backprop", &[0, 8, 9]);
    check("CP", &[1, 9, 10]);
}
