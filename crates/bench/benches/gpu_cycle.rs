//! Benchmarks of the whole-GPU cycle loop: a single multi-SM `Gpu::run`,
//! plus an allocation census of the steady-state hot path.
//!
//! The census uses a counting `#[global_allocator]` to measure how many
//! heap allocations one `Gpu::run` performs. The cycle loop reuses scratch
//! buffers (see `prf_sim::sm`), and a `Gpu` keeps its SMs from one launch
//! to the next, so the count must stay proportional to the amount of
//! *work* (warps, CTAs, inflight instructions) — not to the number of
//! simulated cycles. The `alloc_census` "benchmark" asserts that bound and
//! prints the per-cycle allocation rate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use prf_core::{rf_model_factory, RfKind};
use prf_sim::{Gpu, GpuConfig};

/// A pass-through allocator that counts allocation calls.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn multi_sm_config(num_sms: usize) -> GpuConfig {
    GpuConfig {
        num_sms,
        global_mem_words: 1 << 18,
        ..GpuConfig::kepler_single_sm()
    }
}

/// A GPU loaded with the srad workload's memory image (its launches
/// stress the LSU, barriers, and the collector).
fn srad_gpu(config: &GpuConfig) -> Gpu {
    let w = prf_workloads::by_name("srad").expect("srad workload exists");
    let mut gpu = Gpu::new(config.clone());
    for (base, words) in &w.mem_init {
        gpu.global_mem().load(*base, words);
    }
    gpu
}

/// Runs every srad launch on `gpu` and returns the cycles they took.
fn run_srad(gpu: &mut Gpu) -> u64 {
    let w = prf_workloads::by_name("srad").expect("srad workload exists");
    let factory = rf_model_factory(&RfKind::MrfStv, gpu.config().num_rf_banks, None);
    let mut cycles = 0;
    for launch in &w.launches {
        let kernel = std::sync::Arc::clone(&launch.kernel);
        cycles += gpu
            .run(kernel, launch.grid, &factory)
            .expect("srad terminates")
            .cycles;
    }
    cycles
}

/// One multi-SM run of srad on a fresh `Gpu`.
fn run_once(config: &GpuConfig) -> u64 {
    run_srad(&mut srad_gpu(config))
}

fn bench_gpu_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu_cycle");
    g.sample_size(10);

    g.bench_function("multi_sm_serial", |b| {
        let config = multi_sm_config(8);
        b.iter(|| black_box(run_once(&config)))
    });
    g.finish();
}

/// Not a timing benchmark: counts heap allocations across one
/// multi-SM run and asserts the steady-state cycle loop is allocation-free
/// (the per-cycle allocation rate stays far below one).
fn bench_alloc_census(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_census");
    g.sample_size(10);

    // The steady state is the second of two runs on one `Gpu`: the first
    // builds the SMs, their models and buffers, and fills the warp-context
    // pools (criterion itself and workload construction allocate too),
    // and the second reuses them all, as every later launch of a
    // multi-launch workload does.
    let config = multi_sm_config(4);
    let mut gpu = srad_gpu(&config);
    let warm_cycles = run_srad(&mut gpu);

    let before = allocations();
    let cycles = run_srad(&mut gpu);
    let during = allocations() - before;
    assert!(warm_cycles > 0 && cycles > 0);
    let per_cycle = during as f64 / cycles as f64;
    println!(
        "alloc census: {during} allocations over {cycles} cycles \
         ({per_cycle:.3} allocs/cycle)"
    );
    assert!(
        per_cycle < 0.5,
        "hot cycle loop should not allocate per cycle: \
         {during} allocations over {cycles} cycles"
    );

    g.bench_function("run_allocations", |b| {
        b.iter(|| {
            let before = allocations();
            black_box(run_once(&config));
            allocations() - before
        })
    });
    g.finish();
}

criterion_group!(benches, bench_gpu_run, bench_alloc_census);
criterion_main!(benches);
