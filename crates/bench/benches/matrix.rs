//! Benchmarks of the parallel experiment engine: the same job matrix run
//! serially (1 worker) and on the full worker pool, so the speedup of
//! fanning the evaluation matrix across threads — and any regression in
//! it — shows up in `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};

use prf_bench::runner::{run_matrix_resilient_configured, Job, RetryPolicy};
use prf_bench::{experiment_gpu, seed_jobs};
use prf_core::{PartitionedRfConfig, RfKind};
use prf_sim::SchedulerPolicy;

/// A representative slice of the fig. 12 matrix: 3 workloads × 2 RF
/// organisations × 2 jitter seeds = 12 independent simulations.
fn jobs() -> Vec<Job> {
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let part = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    ["backprop", "srad", "BFS"]
        .iter()
        .flat_map(|name| {
            let w = prf_workloads::by_name(name).unwrap();
            let mut v = seed_jobs(&w, &gpu, &RfKind::MrfStv, 2);
            v.extend(seed_jobs(&w, &gpu, &part, 2));
            v
        })
        .collect()
}

/// One plain matrix run (no retries, shard or cache) on `threads` workers.
fn run(jobs: &[Job], threads: usize) {
    run_matrix_resilient_configured(jobs, RetryPolicy::none(), threads, None, None)
        .expect_complete();
}

fn bench_matrix(c: &mut Criterion) {
    let jobs = jobs();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut g = c.benchmark_group("matrix");
    g.sample_size(10);
    g.bench_function("serial_1_thread", |b| b.iter(|| run(&jobs, 1)));
    g.bench_function(format!("parallel_{threads}_threads"), |b| {
        b.iter(|| run(&jobs, threads))
    });
    if threads != 4 {
        g.bench_function("parallel_4_threads", |b| b.iter(|| run(&jobs, 4)));
    }
    g.finish();
}

criterion_group!(benches, bench_matrix);
criterion_main!(benches);
