//! Seed-0 bit-identity golden test: the smallest Table I workloads under
//! the four RF organisations of the figure matrix with the GTO scheduler,
//! plus `nw` under MRF@STV and the partitioned RF with each of the other
//! three schedulers `all_schedulers` runs (LRR, two-level with 8 active
//! warps, fetch-group of 8), all on one SM; and `WP` and `nw` on four SMs
//! (GTO, MRF@STV and partitioned). Jitter seed 0 throughout. Every
//! simulated field is pinned — cycles, warp instructions, active cycles
//! and the zero-issue stall classes, the collector's bank-conflict waits
//! and full-collector stalls, per-partition reads and writes, and
//! the exact bits of every energy figure — so a change meant as a pure
//! speed-up that moves any simulated number fails here. The values the
//! kernels compute are pinned too: every row of `nw` and `WP` must leave
//! the same final global-memory image, whose digest is fixed below.
//! `backprop`, the one workload with two launches, has rows of its own
//! that also pin what carries from one launch to the next: the whole
//! `RfTelemetry` (RFC counts, FRF epochs, hot-register sets, pilot
//! completion) and, on a `SpareRow` fault campaign, the repair counts.
//! Re-capture the constants only for a change that is meant to alter
//! simulated behaviour, and say so.

use std::sync::Arc;

use pilot_rf::core::{
    rf_model_factory, run_experiment, run_experiment_with_faults, FaultConfig, PartitionedRfConfig,
    RepairPolicy, RfKind, RfTelemetry, RfcConfig,
};
use pilot_rf::finfet::{FaultGeometry, FaultMap, SramCell};
use pilot_rf::isa::Reg;
use pilot_rf::sim::{Gpu, GpuConfig, SchedulerPolicy};
use pilot_rf::workloads::by_name;

struct Golden {
    scheduler: SchedulerPolicy,
    num_sms: usize,
    workload: &'static str,
    arm: &'static str,
    cycles: u64,
    warp_insts: u64,
    /// active cycles (summed over SMs), then the zero-issue stall classes:
    /// memory, barrier, collector, ALU dependence.
    activity: [u64; 5],
    /// operand-collector arbitration: bank-conflict waits, then scheduler
    /// turns that issued and then found no collector unit free.
    collector: [u64; 2],
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
        num_sms: 1,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8265,
        warp_insts: 19840,
        activity: [8265, 887, 0, 3, 236],
        collector: [30242, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "partitioned",
        cycles: 8643,
        warp_insts: 19840,
        activity: [8643, 979, 0, 3, 395],
        collector: [33383, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "RFC",
        cycles: 8436,
        warp_insts: 19840,
        activity: [8436, 918, 0, 3, 304],
        collector: [30588, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "MRF@NTV",
        cycles: 9186,
        warp_insts: 19840,
        activity: [9186, 1246, 0, 2, 423],
        collector: [29619, 1],
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
        num_sms: 1,
        workload: "lavaMD",
        arm: "MRF@STV",
        cycles: 9772,
        warp_insts: 58462,
        activity: [9772, 32, 0, 0, 82],
        collector: [113983, 1866],
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
        num_sms: 1,
        workload: "lavaMD",
        arm: "partitioned",
        cycles: 10017,
        warp_insts: 58462,
        activity: [10017, 53, 0, 1, 126],
        collector: [116703, 2270],
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
        num_sms: 1,
        workload: "lavaMD",
        arm: "RFC",
        cycles: 9772,
        warp_insts: 58462,
        activity: [9772, 32, 0, 0, 82],
        collector: [113983, 1866],
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
        num_sms: 1,
        workload: "lavaMD",
        arm: "MRF@NTV",
        cycles: 14174,
        warp_insts: 58462,
        activity: [14174, 63, 0, 0, 562],
        collector: [77242, 3518],
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
        num_sms: 1,
        workload: "LIB",
        arm: "MRF@STV",
        cycles: 2828,
        warp_insts: 5231,
        activity: [2828, 0, 0, 0, 507],
        collector: [14215, 0],
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
        num_sms: 1,
        workload: "LIB",
        arm: "partitioned",
        cycles: 2971,
        warp_insts: 5231,
        activity: [2971, 0, 0, 0, 589],
        collector: [9293, 0],
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
        num_sms: 1,
        workload: "LIB",
        arm: "RFC",
        cycles: 2991,
        warp_insts: 5231,
        activity: [2991, 0, 0, 0, 577],
        collector: [12913, 0],
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
        num_sms: 1,
        workload: "LIB",
        arm: "MRF@NTV",
        cycles: 3263,
        warp_insts: 5231,
        activity: [3263, 0, 0, 0, 768],
        collector: [12012, 0],
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
        num_sms: 1,
        workload: "WP",
        arm: "MRF@STV",
        cycles: 1558,
        warp_insts: 2465,
        activity: [1558, 0, 0, 0, 339],
        collector: [4668, 0],
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
        num_sms: 1,
        workload: "WP",
        arm: "partitioned",
        cycles: 1749,
        warp_insts: 2465,
        activity: [1749, 0, 0, 1, 524],
        collector: [3565, 0],
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
        num_sms: 1,
        workload: "WP",
        arm: "RFC",
        cycles: 1560,
        warp_insts: 2465,
        activity: [1560, 0, 0, 0, 340],
        collector: [4661, 0],
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
        num_sms: 1,
        workload: "WP",
        arm: "MRF@NTV",
        cycles: 1845,
        warp_insts: 2465,
        activity: [1845, 0, 0, 2, 463],
        collector: [3280, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8272,
        warp_insts: 19840,
        activity: [8272, 894, 0, 4, 243],
        collector: [30681, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "partitioned",
        cycles: 8584,
        warp_insts: 19840,
        activity: [8584, 892, 0, 2, 377],
        collector: [32883, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8231,
        warp_insts: 19840,
        activity: [8231, 844, 0, 3, 246],
        collector: [30712, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "partitioned",
        cycles: 8562,
        warp_insts: 19840,
        activity: [8562, 951, 0, 2, 354],
        collector: [32174, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 8273,
        warp_insts: 19840,
        activity: [8273, 848, 0, 2, 255],
        collector: [30140, 0],
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
        num_sms: 1,
        workload: "nw",
        arm: "partitioned",
        cycles: 8566,
        warp_insts: 19840,
        activity: [8566, 986, 0, 3, 390],
        collector: [32490, 1],
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
    Golden {
        scheduler: GTO,
        num_sms: 4,
        workload: "WP",
        arm: "MRF@STV",
        cycles: 1443,
        warp_insts: 2465,
        activity: [4088, 0, 0, 1, 1926],
        collector: [2837, 0],
        reads: [3681, 0, 0, 0, 0, 0, 0, 0],
        writes: [1454, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x40f2adf7ffffffff,
            0x40f2adf7ffffffff,
            0x410a76146e2a8005,
            0x410a76146e2a8005,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        num_sms: 4,
        workload: "WP",
        arm: "partitioned",
        cycles: 1655,
        warp_insts: 2465,
        activity: [4945, 0, 0, 0, 2847],
        collector: [2774, 0],
        reads: [0, 0, 75, 2529, 1077, 0, 0, 0],
        writes: [0, 0, 51, 883, 520, 0, 0, 0],
        energy_bits: [
            0x40dd659d9bf79587,
            0x40f2adf7ffffffff,
            0x4102916b68320dde,
            0x410e594d2fc2656a,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        num_sms: 4,
        workload: "nw",
        arm: "MRF@STV",
        cycles: 2775,
        warp_insts: 19840,
        activity: [11059, 1643, 0, 5, 569],
        collector: [30865, 0],
        reads: [34400, 0, 0, 0, 0, 0, 0, 0],
        writes: [16160, 0, 0, 0, 0, 0, 0, 0],
        energy_bits: [
            0x4126fd7fffffffff,
            0x4126fd7fffffffff,
            0x41197189cc63f140,
            0x41197189cc63f140,
            0x0000000000000000,
        ],
    },
    Golden {
        scheduler: GTO,
        num_sms: 4,
        workload: "nw",
        arm: "partitioned",
        cycles: 2948,
        warp_insts: 19840,
        activity: [11708, 1798, 0, 3, 960],
        collector: [35985, 0],
        reads: [0, 0, 19100, 6020, 9280, 0, 0, 0],
        writes: [0, 0, 9286, 3034, 3840, 0, 0, 0],
        energy_bits: [
            0x4115c8947ae52f16,
            0x4126fd7fffffffff,
            0x4110898f25e342a5,
            0x411b079b85a4f00f,
            0x0000000000000000,
        ],
    },
];

fn gpu(scheduler: SchedulerPolicy, num_sms: usize) -> GpuConfig {
    GpuConfig {
        jitter_seed: 0,
        scheduler,
        num_sms,
        ..GpuConfig::kepler_single_sm()
    }
}

fn arm(name: &str) -> RfKind {
    match name {
        "MRF@STV" => RfKind::MrfStv,
        "partitioned" => RfKind::Partitioned(PartitionedRfConfig::paper_default()),
        "RFC" => RfKind::Rfc(RfcConfig::paper_default()),
        "MRF@NTV" => RfKind::MrfNtv { latency: 3 },
        other => panic!("unknown arm {other}"),
    }
}

#[test]
fn smallest_workloads_are_bit_identical_at_seed_0() {
    for g in GOLDEN {
        let gpu = gpu(g.scheduler, g.num_sms);
        let w = by_name(g.workload).expect("a Table I workload");
        let r = run_experiment(&gpu, &arm(g.arm), &w.launches, &w.mem_init)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", g.workload, g.arm));
        let job = format!(
            "{}/{}/{:?}/{} SMs",
            g.workload, g.arm, g.scheduler, g.num_sms
        );
        assert_eq!(r.cycles, g.cycles, "{job} cycles");
        assert_eq!(
            r.stats.instructions, g.warp_insts,
            "{job} warp instructions"
        );
        let s = &r.stats;
        let activity = [
            s.active_cycles,
            s.stall_mem,
            s.stall_barrier,
            s.stall_collector,
            s.stall_alu_dep,
        ];
        assert_eq!(activity, g.activity, "{job} active cycles and stalls");
        assert_eq!(
            [s.bank_conflict_waits, s.collector_stalls],
            g.collector,
            "{job} bank conflict waits and collector stalls"
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

/// FNV-1a digests of the final global-memory image (its non-zero words,
/// address and value, in address order) of each workload whose every
/// golden row is checked by [`final_memory_is_the_same_on_every_row`].
const MEMORY_DIGESTS: &[(&str, u64)] = &[("nw", 0x6c1944f2fd9e6fc8), ("WP", 0xdfd1478a9379e885)];

/// Runs every launch of `workload` on one `Gpu`, as
/// `run_experiment_with_faults` does, and digests the final global memory.
fn final_memory_digest(gpu: &GpuConfig, rf: &RfKind, workload: &str) -> u64 {
    let w = by_name(workload).expect("a Table I workload");
    let mut sim = Gpu::try_new(gpu.clone()).expect("a valid config");
    for (base, words) in &w.mem_init {
        sim.global_mem().load(*base, words);
    }
    let factory = rf_model_factory(rf, gpu.num_rf_banks, None);
    for launch in &w.launches {
        sim.run(Arc::clone(&launch.kernel), launch.grid, &factory)
            .unwrap_or_else(|e| panic!("{workload}: {e}"));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (addr, value) in sim.global_mem_ref().nonzero_words() {
        for byte in addr.to_le_bytes().into_iter().chain(value.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn final_memory_is_the_same_on_every_row() {
    for &(workload, digest) in MEMORY_DIGESTS {
        let rows: Vec<&Golden> = GOLDEN.iter().filter(|g| g.workload == workload).collect();
        assert!(rows.len() >= 6, "{workload}: {} rows", rows.len());
        for g in rows {
            let gpu = gpu(g.scheduler, g.num_sms);
            let got = final_memory_digest(&gpu, &arm(g.arm), workload);
            assert_eq!(
                got, digest,
                "{workload}/{}/{:?}/{} SMs final memory digest {got:#018x}",
                g.arm, g.scheduler, g.num_sms
            );
        }
    }
}

/// One `backprop` row: both launches on one `Gpu`, as
/// `run_experiment_with_faults` runs them.
struct MultiLaunch {
    scheduler: SchedulerPolicy,
    num_sms: usize,
    arm: &'static str,
    /// Under `SpareRow { spares_per_bank: 4 }` on the 8T map at 0.3 V,
    /// seed 42 ([`fault_campaign`]).
    faulted: bool,
    launch_cycles: [u64; 2],
    warp_insts: u64,
    /// `RfTelemetry` counters: RFC hits, read hits, misses, write-backs,
    /// FRF high and low epochs, fault remaps, spills, escalations.
    counters: [u64; 9],
    compiler_hot_regs: &'static [u8],
    pilot_hot_regs: &'static [u8],
    pilot_done_cycle: Option<u64>,
    /// `SmStats::rf_repairs`: remapped, spilled, escalated.
    rf_repairs: [u64; 3],
    /// dynamic, baseline dynamic, leakage, baseline leakage, repair (pJ).
    energy_bits: [u64; 5],
}

const MULTI_LAUNCH: &[MultiLaunch] = &[
    MultiLaunch {
        scheduler: GTO,
        num_sms: 1,
        arm: "partitioned",
        faulted: false,
        launch_cycles: [29635, 22066],
        warp_insts: 81920,
        counters: [0, 0, 0, 0, 287, 746, 0, 0, 0],
        compiler_hot_regs: &[4, 5, 6, 0],
        pilot_hot_regs: &[4, 6, 5, 10],
        pilot_done_cycle: Some(1524),
        rf_repairs: [0, 0, 0],
        energy_bits: [
            0x4131996d13976c87,
            0x4144236666666666,
            0x4132206b0b1bb61d,
            0x413da09ac448cf7c,
            0x0000000000000000,
        ],
    },
    MultiLaunch {
        scheduler: GTO,
        num_sms: 1,
        arm: "RFC",
        faulted: false,
        launch_cycles: [38162, 19162],
        warp_insts: 81920,
        counters: [171339, 106827, 5813, 18004, 0, 0, 0, 0, 0],
        compiler_hot_regs: &[],
        pilot_hot_regs: &[],
        pilot_done_cycle: None,
        rf_repairs: [0, 0, 0],
        energy_bits: [
            0x4132f41a6b775c7b,
            0x4144236666666666,
            0x412d55632c1baa79,
            0x41406cc0c5d85165,
            0x0000000000000000,
        ],
    },
    MultiLaunch {
        scheduler: TL8,
        num_sms: 4,
        arm: "partitioned",
        faulted: false,
        launch_cycles: [3025, 2673],
        warp_insts: 81920,
        counters: [0, 0, 0, 0, 356, 96, 0, 0, 0],
        compiler_hot_regs: &[4, 5, 6, 0],
        pilot_hot_regs: &[4, 6, 5, 10],
        pilot_done_cycle: Some(1527),
        rf_repairs: [0, 0, 0],
        energy_bits: [
            0x413405e4140744f0,
            0x4144236666666666,
            0x411ff6c65a6cbfdc,
            0x412a1f3b8d92fb1a,
            0x0000000000000000,
        ],
    },
    MultiLaunch {
        scheduler: GTO,
        num_sms: 1,
        arm: "partitioned",
        faulted: true,
        launch_cycles: [31663, 28085],
        warp_insts: 81920,
        counters: [0, 0, 0, 0, 268, 926, 20216, 1293, 0],
        compiler_hot_regs: &[4, 5, 6, 0],
        pilot_hot_regs: &[4, 6, 5, 10],
        pilot_done_cycle: Some(1533),
        rf_repairs: [20216, 1293, 0],
        energy_bits: [
            0x4131b6e5394313b3,
            0x4144236666666666,
            0x4134f2ad02fd1250,
            0x41411e8e151c5c57,
            0x40d8d3b99999999a,
        ],
    },
];

fn fault_campaign() -> FaultConfig {
    let map = FaultMap::from_montecarlo(SramCell::T8, 0.3, FaultGeometry::kepler_rf(), 42);
    FaultConfig::new(map, RepairPolicy::SpareRow { spares_per_bank: 4 })
}

fn regs(indices: &[u8]) -> Vec<Reg> {
    indices.iter().map(|&i| Reg(i)).collect()
}

#[test]
fn backprop_telemetry_and_repairs_carry_across_launches() {
    let w = by_name("backprop").expect("a Table I workload");
    assert_eq!(w.launches.len(), 2);
    let faults = fault_campaign();
    for g in MULTI_LAUNCH {
        let gpu = gpu(g.scheduler, g.num_sms);
        let job = format!(
            "backprop/{}/{:?}/{} SMs/faulted {}",
            g.arm, g.scheduler, g.num_sms, g.faulted
        );
        let r = run_experiment_with_faults(
            &gpu,
            &arm(g.arm),
            &w.launches,
            &w.mem_init,
            g.faulted.then_some(&faults),
        )
        .unwrap_or_else(|e| panic!("{job}: {e}"));
        let launch_cycles: Vec<u64> = r.per_launch.iter().map(|l| l.cycles).collect();
        let energy = [
            r.dynamic_energy_pj,
            r.baseline_dynamic_energy_pj,
            r.leakage_energy_pj,
            r.baseline_leakage_energy_pj,
            r.repair_energy_pj,
        ]
        .map(f64::to_bits);
        assert_eq!(launch_cycles, g.launch_cycles, "{job} cycles per launch");
        assert_eq!(
            r.stats.instructions, g.warp_insts,
            "{job} warp instructions"
        );
        let [hits, read_hits, misses, writebacks, high, low, remaps, spills, escalations] =
            g.counters;
        let expected = RfTelemetry {
            rfc_hits: hits,
            rfc_read_hits: read_hits,
            rfc_misses: misses,
            rfc_writebacks: writebacks,
            frf_high_epochs: high,
            frf_low_epochs: low,
            fault_remaps: remaps,
            fault_spills: spills,
            fault_escalations: escalations,
            drowsy_reg_cycles: 0,
            live_reg_cycles: 0,
            compiler_hot_regs: regs(g.compiler_hot_regs),
            pilot_hot_regs: regs(g.pilot_hot_regs),
            pilot_done_cycle: g.pilot_done_cycle,
        };
        assert_eq!(r.telemetry, expected, "{job} telemetry");
        assert_eq!(r.stats.rf_repairs, g.rf_repairs, "{job} repair counts");
        assert_eq!(energy, g.energy_bits, "{job} energy bits");
    }
}
