//! Criterion micro-benchmarks of the library's hot paths: one group per
//! reproduced table/figure pipeline plus the core data structures, so
//! regressions in simulation throughput or model evaluation cost show up
//! in `cargo bench`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use prf_core::{run_experiment, PartitionedRfConfig, RfKind, SwappingTable};
use prf_finfet::array::{characterize, ArraySpec};
use prf_finfet::montecarlo::snm_yield;
use prf_finfet::{BackGate, SramCell, NTV};
use prf_isa::{ReconvergenceTable, Reg, StaticRegisterProfile};
use prf_sim::GpuConfig;

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    let gpu = GpuConfig {
        global_mem_words: 1 << 18,
        ..GpuConfig::kepler_single_sm()
    };
    for name in ["backprop", "srad"] {
        let w = prf_workloads::by_name(name).unwrap();
        g.bench_function(format!("{name}/mrf_stv"), |b| {
            b.iter(|| run_experiment(&gpu, &RfKind::MrfStv, &w.launches, &w.mem_init).unwrap())
        });
        let part = RfKind::Partitioned(PartitionedRfConfig::paper_default());
        g.bench_function(format!("{name}/partitioned"), |b| {
            b.iter(|| run_experiment(&gpu, &part, &w.launches, &w.mem_init).unwrap())
        });
    }
    g.finish();
}

fn bench_swap_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("swap_table");
    g.bench_function("apply_hot_registers", |b| {
        b.iter_batched(
            || SwappingTable::new(4),
            |mut t| {
                t.apply_hot_registers(&[Reg(8), Reg(9), Reg(10), Reg(11)]);
                black_box(t)
            },
            BatchSize::SmallInput,
        )
    });
    let mut t = SwappingTable::new(4);
    t.apply_hot_registers(&[Reg(8), Reg(9), Reg(10), Reg(11)]);
    g.bench_function("lookup", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for r in 0..63u8 {
                acc += t.lookup(black_box(Reg(r))).index();
            }
            acc
        })
    });
    g.finish();
}

fn bench_isa_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("isa_analysis");
    let w = prf_workloads::by_name("sgemm").unwrap();
    let kernel = w.launches[0].kernel.clone();
    g.bench_function("reconvergence_table", |b| {
        b.iter(|| ReconvergenceTable::compute(black_box(&kernel)))
    });
    g.bench_function("static_register_profile", |b| {
        b.iter(|| StaticRegisterProfile::analyze(black_box(&kernel)))
    });
    g.finish();
}

fn bench_circuit_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("circuit_models");
    g.bench_function("characterize_srf", |b| {
        b.iter(|| characterize(black_box(&ArraySpec::srf())))
    });
    g.bench_function("snm_yield_8t_ntv_10k", |b| {
        b.iter(|| snm_yield(SramCell::T8, NTV, BackGate::Vdd, 10_000, 42))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_swap_table,
    bench_isa_analysis,
    bench_circuit_models
);
criterion_main!(benches);
