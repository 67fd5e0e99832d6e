//! Benchmarks of the whole-GPU cycle loop: a single multi-SM `Gpu::run`
//! under serial and SM-parallel stepping, plus an allocation census of
//! the steady-state hot path.
//!
//! The census uses a counting `#[global_allocator]` to measure how many
//! heap allocations one `Gpu::run` performs. The cycle loop reuses scratch
//! buffers (see `prf_sim::sm`), so the count must stay proportional to the
//! amount of *work* (warps, CTAs, inflight instructions) — not to the
//! number of simulated cycles. The `alloc_census` "benchmark" asserts that
//! bound and prints the per-cycle allocation rate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use prf_core::{rf_model_factory, shared_telemetry, RfKind};
use prf_sim::{Gpu, GpuConfig, WarpContext};

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

/// One multi-SM `Gpu::run` of the srad workload (its launches stress the
/// LSU, barriers, and the collector) on a fresh `Gpu`, seeded with `pool`
/// (recycled warp contexts). Returns total cycles and the grown pool, so
/// back-to-back runs measure the steady state rather than cold warp
/// allocation.
fn run_once_pooled(config: &GpuConfig, pool: Vec<WarpContext>) -> (u64, Vec<WarpContext>) {
    let w = prf_workloads::by_name("srad").expect("srad workload exists");
    let telemetry = shared_telemetry();
    let factory = rf_model_factory(&RfKind::MrfStv, config.num_rf_banks, &telemetry);
    let mut gpu = Gpu::new(config.clone());
    gpu.adopt_warp_pool(pool);
    for (base, words) in &w.mem_init {
        gpu.global_mem().load(*base, words);
    }
    let mut cycles = 0;
    for launch in &w.launches {
        let kernel = std::sync::Arc::clone(&launch.kernel);
        cycles += gpu
            .run(kernel, launch.grid, &factory)
            .expect("srad terminates")
            .cycles;
    }
    (cycles, gpu.take_warp_pool())
}

fn run_once(config: &GpuConfig) -> u64 {
    run_once_pooled(config, Vec::new()).0
}

fn bench_gpu_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu_cycle");
    g.sample_size(10);

    g.bench_function("multi_sm_serial", |b| {
        let config = multi_sm_config(8);
        b.iter(|| black_box(run_once(&config)))
    });
    g.bench_function("multi_sm_parallel4", |b| {
        let config = GpuConfig {
            sm_threads: 4,
            ..multi_sm_config(8)
        };
        b.iter(|| black_box(run_once(&config)))
    });
    g.finish();
}

/// Not a timing benchmark: counts heap allocations across one serial
/// multi-SM run and asserts the steady-state cycle loop is allocation-free
/// (the per-cycle allocation rate stays far below one).
fn bench_alloc_census(c: &mut Criterion) {
    let mut g = c.benchmark_group("alloc_census");
    g.sample_size(10);

    // Warm-up run (criterion itself, workload construction, and the lazy
    // parts of the simulator allocate; we only care about steady state).
    // The warp-context pool carries over so the measured run exercises
    // recycled register storage, as a long-running simulation would.
    let config = multi_sm_config(4);
    let (warm_cycles, pool) = run_once_pooled(&config, Vec::new());

    let before = allocations();
    let (cycles, _pool) = run_once_pooled(&config, pool);
    let during = allocations() - before;
    assert_eq!(warm_cycles, cycles, "deterministic simulation");
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
