//! Seed-0 bit-identity golden test: the smallest Table I workloads under
//! the four RF organisations of the figure matrix with the GTO scheduler,
//! plus `nw` under MRF@STV and the partitioned RF with each of the other
//! three schedulers `all_schedulers` runs (LRR, two-level with 8 active
//! warps, fetch-group of 8); one SM, jitter seed 0. Every simulated field is pinned — cycles, warp
//! instructions, per-partition reads and writes, and the exact bits of
//! every energy figure — so a change meant as a pure speed-up that moves
//! any simulated number fails here. Re-capture the constants only for a
//! change that is meant to alter simulated behaviour, and say so.

use pilot_rf::core::{run_experiment, PartitionedRfConfig, RfKind, RfcConfig};
use pilot_rf::sim::{GpuConfig, SchedulerPolicy};
use pilot_rf::workloads::by_name;

struct Golden {
    scheduler: SchedulerPolicy,
    workload: &'static str,
    arm: &'static str,
    cycles: u64,
    warp_insts: u64,
    reads: [u64; 8],
    writes: [u64; 8],
    /// dynamic, baseline dynamic, leakage, baseline leakage, repair (pJ).
    energy_bits: [u64; 5],
}

const GTO: SchedulerPolicy = SchedulerPolicy::Gto;
const TL8: SchedulerPolicy = SchedulerPolicy::TwoLevel {
    active_per_scheduler: 8,
};
const FG8: SchedulerPolicy = SchedulerPolicy::FetchGroup { group_size: 8 };

const GOLDEN: &[Golden] = &[
    Golden {
        scheduler: GTO,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8265,
        warp_insts: 19840,
        reads: [34400, 0, 0, 0, 0, 0, 0, 0],
        writes: [16160, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x4126fd7fffffffff,
            0x4126fd7fffffffff,
            0x4112f1f2052934ad,
            0x4112f1f2052934ad,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "nw",
        arm: "partitioned",
        cycles: 8643,
        warp_insts: 19840,
        reads: [0, 0, 24309, 811, 9280, 0, 0, 0],
        writes: [0, 0, 11914, 406, 3840, 0, 0, 0],
        energy_bits: [
            0x4116ee72518821ea,
            0x4126fd7fffffffff,
            0x41083e034be75326,
            0x4113cfc1fd976ff4,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "nw",
        arm: "RFC",
        cycles: 8436,
        warp_insts: 19840,
        reads: [0, 0, 0, 0, 0, 31200, 3200, 0],
        writes: [0, 0, 0, 0, 0, 16160, 0, 0],
        energy_bits: [
            0x411725081d1a5e38,
            0x4126fd7fffffffff,
            0x4101446e40deeddd,
            0x4113564a01bc98a2,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "nw",
        arm: "MRF@NTV",
        cycles: 9186,
        warp_insts: 19840,
        reads: [0, 34400, 0, 0, 0, 0, 0, 0],
        writes: [0, 16160, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x41185ea147ae147a,
            0x4126fd7fffffffff,
            0x4102cd6d7eb7c176,
            0x41150e649d627bf5,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "lavaMD",
        arm: "MRF@STV",
        cycles: 9772,
        warp_insts: 58462,
        reads: [100086, 0, 0, 0, 0, 0, 0, 0],
        writes: [37074, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x413f2f23ffffffff,
            0x413f2f23ffffffff,
            0x41166642ca89fc6d,
            0x41166642ca89fc6d,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "lavaMD",
        arm: "partitioned",
        cycles: 10017,
        warp_insts: 58462,
        reads: [0, 0, 94925, 19, 5142, 0, 0, 0],
        writes: [0, 0, 34208, 10, 2856, 0, 0, 0],
        energy_bits: [
            0x412fdd9e70222288,
            0x413f2f23ffffffff,
            0x410c1899479ecdc0,
            0x4116f607376922d9,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "lavaMD",
        arm: "RFC",
        cycles: 9772,
        warp_insts: 58462,
        reads: [0, 0, 0, 0, 0, 100086, 0, 0],
        writes: [0, 0, 0, 0, 0, 37074, 0, 0],
        energy_bits: [
            0x41278af940732dd9,
            0x413f2f23ffffffff,
            0x4104007d4952d562,
            0x41166642ca89fc6d,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "lavaMD",
        arm: "MRF@NTV",
        cycles: 14174,
        warp_insts: 58462,
        reads: [0, 100086, 0, 0, 0, 0, 0, 0],
        writes: [0, 37074, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x41308710851eb852,
            0x413f2f23ffffffff,
            0x410d031eb91a4f14,
            0x41203eb055a3a083,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "LIB",
        arm: "MRF@STV",
        cycles: 2828,
        warp_insts: 5231,
        reads: [11745, 0, 0, 0, 0, 0, 0, 0],
        writes: [4238, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x410d121599999999,
            0x410d121599999999,
            0x40f9edf0e496eded,
            0x40f9edf0e496eded,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "LIB",
        arm: "partitioned",
        cycles: 2971,
        warp_insts: 5231,
        reads: [0, 0, 4134, 0, 7611, 0, 0, 0],
        writes: [0, 0, 1805, 0, 2433, 0, 0, 0],
        energy_bits: [
            0x40fc5476b4183d18,
            0x410d121599999999,
            0x40f0aa96c7185adf,
            0x40fb3d97f5946c32,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "LIB",
        arm: "RFC",
        cycles: 2991,
        warp_insts: 5231,
        reads: [0, 0, 0, 0, 0, 8591, 3154, 0],
        writes: [0, 0, 0, 0, 0, 4238, 0, 0],
        energy_bits: [
            0x410172bb966e0d46,
            0x410d121599999999,
            0x40e87d16b7c45a71,
            0x40fb6c89bb16c1e2,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "LIB",
        arm: "MRF@NTV",
        cycles: 3263,
        warp_insts: 5231,
        reads: [0, 11745, 0, 0, 0, 0, 0, 0],
        writes: [0, 4238, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x40fed09c04189374,
            0x410d121599999999,
            0x40eab7324a25cef1,
            0x40fdeafb6c69b5a6,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "WP",
        arm: "MRF@STV",
        cycles: 1558,
        warp_insts: 2465,
        reads: [3681, 0, 0, 0, 0, 0, 0, 0],
        writes: [1454, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x40f2adf7ffffffff,
            0x40f2adf7ffffffff,
            0x40ec91f0cd855970,
            0x40ec91f0cd855970,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "WP",
        arm: "partitioned",
        cycles: 1749,
        warp_insts: 2465,
        reads: [0, 0, 969, 1635, 1077, 0, 0, 0],
        writes: [0, 0, 366, 568, 520, 0, 0, 0],
        energy_bits: [
            0x40e01d7b633d7ede,
            0x40f2adf7ffffffff,
            0x40e39f66fd31f549,
            0x40f0094a1e92923e,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "WP",
        arm: "RFC",
        cycles: 1560,
        warp_insts: 2465,
        reads: [0, 0, 0, 0, 0, 3673, 8, 0],
        writes: [0, 0, 0, 0, 0, 1454, 0, 0],
        energy_bits: [
            0x40dbceff36c5ccba,
            0x40f2adf7ffffffff,
            0x40d98b7880038393,
            0x40ec9b545b6c3760,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        workload: "WP",
        arm: "MRF@NTV",
        cycles: 1845,
        warp_insts: 2465,
        reads: [0, 3681, 0, 0, 0, 0, 0, 0],
        writes: [0, 1454, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x40e3cce30a3d70a3,
            0x40f2adf7ffffffff,
            0x40de362e83b56300,
            0x40f0ea9f6c3760bf,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: SchedulerPolicy::Lrr,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8272,
        warp_insts: 19840,
        reads: [34400, 0, 0, 0, 0, 0, 0, 0],
        writes: [16160, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x4126fd7fffffffff,
            0x4126fd7fffffffff,
            0x4112f60d933e35c5,
            0x4112f60d933e35c5,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: SchedulerPolicy::Lrr,
        workload: "nw",
        arm: "partitioned",
        cycles: 8584,
        warp_insts: 19840,
        reads: [0, 0, 24288, 832, 9280, 0, 0, 0],
        writes: [0, 0, 11889, 431, 3840, 0, 0, 0],
        energy_bits: [
            0x4116ecb8bffcf7d2,
            0x4126fd7fffffffff,
            0x410813a608449dd0,
            0x4113ad22e2541d8e,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: TL8,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8231,
        warp_insts: 19840,
        reads: [34400, 0, 0, 0, 0, 0, 0, 0],
        writes: [16160, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x4126fd7fffffffff,
            0x4126fd7fffffffff,
            0x4112ddfe779e9d0e,
            0x4112ddfe779e9d0e,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: TL8,
        workload: "nw",
        arm: "partitioned",
        cycles: 8562,
        warp_insts: 19840,
        reads: [0, 0, 24550, 570, 9280, 0, 0, 0],
        writes: [0, 0, 12025, 295, 3840, 0, 0, 0],
        energy_bits: [
            0x4116fba547153782,
            0x4126fd7fffffffff,
            0x410803da0914f667,
            0x4113a039ff36ac64,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: FG8,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8273,
        warp_insts: 19840,
        reads: [34400, 0, 0, 0, 0, 0, 0, 0],
        writes: [16160, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x4126fd7fffffffff,
            0x4126fd7fffffffff,
            0x4112f6a3cc1ca3a5,
            0x4112f6a3cc1ca3a5,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: FG8,
        workload: "nw",
        arm: "partitioned",
        cycles: 8566,
        warp_insts: 19840,
        reads: [0, 0, 24461, 659, 9280, 0, 0, 0],
        writes: [0, 0, 11986, 334, 3840, 0, 0, 0],
        energy_bits: [
            0x4116f6d890b35e34,
            0x4126fd7fffffffff,
            0x410806b94ec08934,
            0x4113a292e2b063e0,
            0x0000000000000000,
        ],
    },
];

fn gpu(scheduler: SchedulerPolicy) -> GpuConfig {
    GpuConfig {
        jitter_seed: 0,
        scheduler,
        ..GpuConfig::kepler_single_sm()
    }
}

fn arm(name: &str, gpu: &GpuConfig) -> RfKind {
    match name {
        "MRF@STV" => RfKind::MrfStv,
        "partitioned" => RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks)),
        "RFC" => RfKind::Rfc(RfcConfig::paper_default(
            gpu.num_rf_banks,
            gpu.max_warps_per_sm,
        )),
        "MRF@NTV" => RfKind::MrfNtv { latency: 3 },
        other => panic!("unknown arm {other}"),
    }
}

#[test]
fn smallest_workloads_are_bit_identical_at_seed_0() {
    for g in GOLDEN {
        let gpu = gpu(g.scheduler);
        let w = by_name(g.workload).expect("a Table I workload");
        let r = run_experiment(&gpu, &arm(g.arm, &gpu), &w.launches, &w.mem_init)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", g.workload, g.arm));
        let job = format!("{}/{}/{:?}", g.workload, g.arm, g.scheduler);
        assert_eq!(r.cycles, g.cycles, "{job} cycles");
        assert_eq!(
            r.stats.instructions, g.warp_insts,
            "{job} warp instructions"
        );
        let (reads, writes) = r.stats.partition_accesses.raw();
        assert_eq!(*reads, g.reads, "{job} partition reads");
        assert_eq!(*writes, g.writes, "{job} partition writes");
        let energy = [
            r.dynamic_energy_pj,
            r.baseline_dynamic_energy_pj,
            r.leakage_energy_pj,
            r.baseline_leakage_energy_pj,
            r.repair_energy_pj,
        ]
        .map(f64::to_bits);
        assert_eq!(energy, g.energy_bits, "{job} energy bits");
    }
}
