//! The 17-benchmark suite of the paper's evaluation (Rodinia, Parboil,
//! and the GPGPU-Sim workloads of Table I), reproduced synthetically.
//!
//! Each benchmark matches Table I's register/CTA shape exactly and its
//! category behaviour structurally:
//!
//! * **Category 1** — loop-dominated kernels whose loop registers are also
//!   the statically most frequent: compiler ≈ pilot ≈ optimal.
//! * **Category 2** — decoy registers dominate the static counts while
//!   data-dependent loops make other registers dynamically hot: the
//!   compiler mispredicts, the pilot does not.
//! * **Category 3** — very few warps, and the pilot warp executes a
//!   different (shorter) path than the rest: the pilot both finishes late
//!   relative to the kernel and reports an unrepresentative hot set.
//!
//! Grid sizes are scaled down (tens of CTAs instead of thousands) so the
//! whole suite simulates in seconds; the pilot-runtime percentages
//! therefore reproduce the paper's *ordering* (§II Table I): negligible
//! for most benchmarks, large for MUM/CP and dominant for LIB/WP.

use prf_core::Launch;

use crate::recipe::{grid, KernelRecipe, MemPattern, PilotVariant};
use crate::spec::{Category, Table1Row, Workload};

fn row(regs: u8, threads: u32, pilot_pct: f64) -> Table1Row {
    Table1Row {
        regs_per_thread: regs,
        threads_per_cta: threads,
        pilot_cta_pct: pilot_pct,
    }
}

fn launch(recipe: &KernelRecipe, num_ctas: u32, threads: u32) -> Launch {
    Launch::new(recipe.build(), grid(num_ctas, threads))
}

/// BFS (Rodinia): irregular pointer-chasing traversal, 7 regs × 256
/// threads.
pub fn bfs() -> Workload {
    let mut r = KernelRecipe::basic("bfs", 7, vec![2, 3, 4], 10);
    r.mem = MemPattern::Chase;
    r.body_divergence = true;
    Workload {
        name: "BFS",
        category: Category::One,
        launches: vec![launch(&r, 96, 256)],
        mem_init: vec![KernelRecipe::data_init(4096, 11)].into(),
        table1: row(7, 256, 0.12),
    }
}

/// b+tree (Rodinia): wide CTAs (508 threads) searching node arrays.
pub fn btree() -> Workload {
    let mut r = KernelRecipe::basic("btree", 15, vec![5, 6, 7, 8, 9], 10);
    r.mem = MemPattern::Streaming { stride: 33 };
    Workload {
        name: "btree",
        category: Category::One,
        launches: vec![launch(&r, 48, 508)],
        mem_init: vec![].into(),
        table1: row(15, 508, 0.7),
    }
}

/// hotspot (Rodinia): stencil over shared-memory tiles with barriers.
pub fn hotspot() -> Workload {
    let mut r = KernelRecipe::basic("hotspot", 27, vec![10, 11, 12, 13, 14], 12);
    r.mem = MemPattern::SharedTile;
    Workload {
        name: "hotspot",
        category: Category::One,
        launches: vec![launch(&r, 80, 256)],
        mem_init: vec![].into(),
        table1: row(27, 256, 3.6),
    }
}

/// nw (Rodinia, Needleman–Wunsch): tiny 16-thread CTAs.
pub fn nw() -> Workload {
    let mut r = KernelRecipe::basic("nw", 21, vec![4, 5, 6, 7], 12);
    r.mem = MemPattern::SharedTile;
    Workload {
        name: "nw",
        category: Category::One,
        launches: vec![launch(&r, 160, 16)],
        mem_init: vec![].into(),
        table1: row(21, 16, 0.48),
    }
}

/// stencil (Parboil): 1024-thread CTAs over shared tiles.
pub fn stencil() -> Workload {
    let mut r = KernelRecipe::basic("stencil", 15, vec![6, 7, 8, 9], 10);
    r.mem = MemPattern::SharedTile;
    Workload {
        name: "stencil",
        category: Category::One,
        launches: vec![launch(&r, 24, 1024)],
        mem_init: vec![].into(),
        table1: row(15, 1024, 0.2),
    }
}

/// backprop (Rodinia): two kernels with *different* hot-register sets —
/// the paper calls out R0/R8/R9 in the first kernel vs R4/R5/R6 in the
/// second (§II).
pub fn backprop() -> Workload {
    let mut k1 = KernelRecipe::basic("backprop_layerforward", 13, vec![0, 8, 9], 12);
    k1.mem = MemPattern::Chase;
    let mut k2 = KernelRecipe::basic("backprop_adjust_weights", 13, vec![4, 5, 6], 10);
    k2.mem = MemPattern::Chase;
    Workload {
        name: "backprop",
        category: Category::One,
        launches: vec![launch(&k1, 64, 256), launch(&k2, 64, 256)],
        mem_init: vec![KernelRecipe::data_init(4096, 13)].into(),
        table1: row(13, 256, 2.6),
    }
}

/// sad (Parboil): 61-thread CTAs (partial last warp), register heavy.
pub fn sad() -> Workload {
    let r = KernelRecipe::basic("sad", 29, vec![12, 13, 14, 15, 16], 12);
    Workload {
        name: "sad",
        category: Category::One,
        launches: vec![launch(&r, 160, 61)],
        mem_init: vec![].into(),
        table1: row(29, 61, 0.13),
    }
}

/// srad (Rodinia): streaming diffusion kernel.
pub fn srad() -> Workload {
    let mut r = KernelRecipe::basic("srad", 12, vec![3, 4, 5, 6], 10);
    r.mem = MemPattern::Streaming { stride: 32 };
    Workload {
        name: "srad",
        category: Category::One,
        launches: vec![launch(&r, 96, 256)],
        mem_init: vec![].into(),
        table1: row(12, 256, 0.6),
    }
}

/// MUM (GPGPU-Sim suite): divergent suffix-tree matching; few CTAs, so
/// the pilot runs a large fraction of the kernel (37% in the paper).
pub fn mum() -> Workload {
    let mut r = KernelRecipe::basic("mum", 15, vec![5, 6, 7, 8], 40);
    r.mem = MemPattern::Chase;
    r.body_divergence = true;
    Workload {
        name: "MUM",
        category: Category::One,
        launches: vec![launch(&r, 16, 256)],
        mem_init: vec![KernelRecipe::data_init(4096, 17)].into(),
        table1: row(15, 256, 37.0),
    }
}

/// kmeans (Rodinia): data-dependent iteration counts per point.
pub fn kmeans() -> Workload {
    let mut r = KernelRecipe::basic("kmeans", 9, vec![5, 6, 7, 8], 22);
    r.decoys = vec![1, 2];
    r.data_dependent = true;
    Workload {
        name: "kmeans",
        category: Category::Two,
        launches: vec![launch(&r, 64, 256)],
        mem_init: vec![KernelRecipe::trips_init(64 * 256, 14, 30, 19)].into(),
        table1: row(9, 256, 7.5),
    }
}

/// lavaMD (Rodinia): neighbour-count-dependent inner loops.
pub fn lavamd() -> Workload {
    let mut r = KernelRecipe::basic("lavaMD", 6, vec![3, 4, 5], 20);
    r.decoys = vec![1, 2];
    r.data_dependent = true;
    Workload {
        name: "lavaMD",
        category: Category::Two,
        launches: vec![launch(&r, 96, 128)],
        mem_init: vec![KernelRecipe::trips_init(96 * 128, 12, 28, 23)].into(),
        table1: row(6, 128, 0.2),
    }
}

/// mri-q (Parboil): Q-matrix computation, trip counts from sample counts.
pub fn mri_q() -> Workload {
    let mut r = KernelRecipe::basic("mri-q", 12, vec![7, 8, 9, 10, 11], 24);
    r.decoys = vec![2, 3, 4];
    r.data_dependent = true;
    Workload {
        name: "mri-q",
        category: Category::Two,
        launches: vec![launch(&r, 32, 512)],
        mem_init: vec![KernelRecipe::trips_init(32 * 512, 16, 32, 29)].into(),
        table1: row(12, 512, 14.3),
    }
}

/// NN (Rodinia, nearest neighbour): 169-thread CTAs.
pub fn nn() -> Workload {
    let mut r = KernelRecipe::basic("NN", 10, vec![5, 6, 7, 8, 9], 18);
    r.decoys = vec![1, 2];
    r.data_dependent = true;
    Workload {
        name: "NN",
        category: Category::Two,
        launches: vec![launch(&r, 90, 169)],
        mem_init: vec![KernelRecipe::trips_init(90 * 192, 12, 26, 31)].into(),
        table1: row(10, 169, 8.2),
    }
}

/// sgemm (Parboil): the paper's §III example — a static first-4
/// allocation captures only ~25% of accesses; the true hot registers are
/// high-numbered (R20+).
pub fn sgemm() -> Workload {
    let mut r = KernelRecipe::basic("sgemm", 27, vec![20, 21, 22, 23, 24, 25], 26);
    r.decoys = vec![5, 6, 7, 8, 9];
    r.data_dependent = true;
    Workload {
        name: "sgemm",
        category: Category::Two,
        launches: vec![launch(&r, 96, 128)],
        mem_init: vec![KernelRecipe::trips_init(96 * 128, 18, 36, 37)].into(),
        table1: row(27, 128, 16.2),
    }
}

/// CP (GPGPU-Sim suite): Coulomb potential — the paper names R1/R9/R10
/// as its hot registers (§II); few CTAs → pilot runs 47% of the kernel.
pub fn cp() -> Workload {
    let mut r = KernelRecipe::basic("cp", 12, vec![1, 9, 10, 11], 60);
    r.decoys = vec![3, 4, 5];
    r.data_dependent = true;
    Workload {
        name: "CP",
        category: Category::Two,
        launches: vec![launch(&r, 24, 128)],
        mem_init: vec![KernelRecipe::trips_init(24 * 128, 48, 80, 41)].into(),
        table1: row(12, 128, 47.0),
    }
}

/// LIB (GPGPU-Sim suite): 64-thread CTAs, very few warps; the pilot path
/// is shorter than everyone else's → pilot runs ~60% of the kernel and
/// reports an unrepresentative hot set.
pub fn lib() -> Workload {
    let mut r = KernelRecipe::basic("lib", 18, vec![10, 11, 12, 13], 60);
    r.pilot_variant = Some(PilotVariant {
        pilot_hot: vec![2, 3, 4, 5],
        pilot_trips: 56,
    });
    Workload {
        name: "LIB",
        category: Category::Three,
        launches: vec![launch(&r, 4, 64)],
        mem_init: vec![].into(),
        table1: row(18, 64, 60.0),
    }
}

/// WP (GPGPU-Sim suite): the extreme few-warp case — the pilot runs 75%
/// of the kernel in the paper.
pub fn wp() -> Workload {
    let mut r = KernelRecipe::basic("wp", 8, vec![4, 5, 6], 80);
    r.pilot_variant = Some(PilotVariant {
        pilot_hot: vec![1, 2, 3],
        pilot_trips: 90,
    });
    Workload {
        name: "WP",
        category: Category::Three,
        launches: vec![launch(&r, 3, 64)],
        mem_init: vec![].into(),
        table1: row(8, 64, 75.0),
    }
}

/// A benchmark's Table I name and its constructor.
type Entry = (&'static str, fn() -> Workload);

/// Every benchmark in Table I order: one table behind both [`suite`] and
/// [`by_name`], so a lookup builds only the workload it names.
const SUITE: [Entry; 17] = [
    ("BFS", bfs),
    ("btree", btree),
    ("hotspot", hotspot),
    ("nw", nw),
    ("stencil", stencil),
    ("backprop", backprop),
    ("sad", sad),
    ("srad", srad),
    ("MUM", mum),
    ("kmeans", kmeans),
    ("lavaMD", lavamd),
    ("mri-q", mri_q),
    ("NN", nn),
    ("sgemm", sgemm),
    ("CP", cp),
    ("LIB", lib),
    ("WP", wp),
];

/// The full 17-benchmark suite in Table I order.
pub fn suite() -> Vec<Workload> {
    SUITE.iter().map(|(_, build)| build()).collect()
}

/// Looks a workload up by its Table I name (case-insensitive) and builds
/// only that one.
pub fn by_name(name: &str) -> Option<Workload> {
    SUITE
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_17_benchmarks() {
        assert_eq!(suite().len(), 17);
    }

    #[test]
    fn table1_register_counts_match_exactly() {
        for w in suite() {
            assert_eq!(
                w.regs_per_thread(),
                w.table1.regs_per_thread,
                "{}: regs/thread mismatch",
                w.name
            );
        }
    }

    #[test]
    fn table1_cta_shapes_match_exactly() {
        for w in suite() {
            assert_eq!(
                w.threads_per_cta(),
                w.table1.threads_per_cta,
                "{}: threads/CTA mismatch",
                w.name
            );
        }
    }

    #[test]
    fn category_split_matches_paper() {
        let cats: Vec<(&str, Category)> = suite().iter().map(|w| (w.name, w.category)).collect();
        let of = |n: &str| cats.iter().find(|(m, _)| *m == n).unwrap().1;
        for n in [
            "BFS", "btree", "hotspot", "nw", "stencil", "backprop", "sad", "srad", "MUM",
        ] {
            assert_eq!(of(n), Category::One, "{n}");
        }
        for n in ["kmeans", "lavaMD", "mri-q", "NN", "sgemm", "CP"] {
            assert_eq!(of(n), Category::Two, "{n}");
        }
        for n in ["LIB", "WP"] {
            assert_eq!(of(n), Category::Three, "{n}");
        }
    }

    #[test]
    fn backprop_has_two_kernels_with_paper_hot_sets() {
        let w = backprop();
        assert_eq!(w.launches.len(), 2);
        // The paper: K1 hot = R0/R8/R9, K2 hot = R4/R5/R6. The recipe's
        // loop registers are exactly those.
        let k1 = &w.launches[0].kernel;
        let p1 = prf_isa::StaticRegisterProfile::analyze(k1);
        let top1 = p1.top_n(3);
        for r in [0u8, 8, 9] {
            assert!(top1.contains(&prf_isa::Reg(r)), "K1 hot R{r}: {top1:?}");
        }
        let p2 = prf_isa::StaticRegisterProfile::analyze(&w.launches[1].kernel);
        let top2 = p2.top_n(3);
        for r in [4u8, 5, 6] {
            assert!(top2.contains(&prf_isa::Reg(r)), "K2 hot R{r}: {top2:?}");
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("sgemm").is_some());
        assert!(by_name("SGEMM").is_some());
        assert!(by_name("nope").is_none());
        assert!(by_name("").is_none());
    }

    #[test]
    fn by_name_builds_the_suite_entry_it_names() {
        for w in suite() {
            for name in [w.name.to_string(), w.name.to_ascii_uppercase()] {
                let found = by_name(&name).unwrap_or_else(|| panic!("{name}"));
                assert_eq!(found.name, w.name);
                assert_eq!(found.category, w.category);
                assert_eq!(found.table1, w.table1);
                assert_eq!(found.mem_init, w.mem_init, "{name}: image");
                assert_eq!(found.launches.len(), w.launches.len(), "{name}");
                for (a, b) in found.launches.iter().zip(&w.launches) {
                    assert_eq!(a.kernel, b.kernel, "{name}: kernel");
                    assert_eq!(a.grid, b.grid, "{name}: grid");
                }
            }
        }
    }

    #[test]
    fn category2_workloads_have_decoys_and_data_dependence() {
        // Structural spot-check on sgemm: its static top-4 must not
        // include the designated dynamic-hot registers.
        let w = sgemm();
        let p = prf_isa::StaticRegisterProfile::analyze(&w.launches[0].kernel);
        let top = p.top_n(4);
        for hot in [20u8, 21] {
            assert!(
                !top.contains(&prf_isa::Reg(hot)),
                "sgemm: dynamic-hot R{hot} must not be statically top-4: {top:?}"
            );
        }
    }

    #[test]
    fn all_kernels_have_mem_init_within_bounds() {
        for w in suite() {
            for (base, words) in &w.mem_init {
                assert!((*base as usize + words.len()) < (1 << 22), "{}", w.name);
            }
        }
    }
}
