//! Executor-policy benchmarks: host cost of the same simulated job
//! at width 1, bounded worker pools, and the unbounded
//! default (wall-clock only — simulated results are policy-invariant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mb_cluster::machine::Cluster;
use mb_cluster::spec::metablade;
use mb_cluster::ExecPolicy;
use std::hint::black_box;

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    group.sample_size(10);
    let policies = [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 2 },
        ExecPolicy::Parallel { workers: 8 },
        ExecPolicy::Unbounded,
    ];
    for policy in policies {
        let cluster = Cluster::new(metablade()).with_exec(policy);
        group.bench_with_input(
            BenchmarkId::new("allreduce_sweep_24", policy.label()),
            &policy,
            |b, _| {
                b.iter(|| {
                    let out = cluster.run(|comm| {
                        let mut v = vec![comm.rank() as f64; 256];
                        for _ in 0..8 {
                            v = comm.allreduce_sum(&v);
                            comm.compute(1e5);
                        }
                        v[0]
                    });
                    black_box(out.makespan_s())
                })
            },
        );
    }
    group.finish();
}

/// The event-driven core at scale: one allreduce+compute round over 128
/// simulated ranks, where heap admission and per-rank wakeups dominate
/// the executor's host cost.
fn bench_event_core_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_scale");
    group.sample_size(5);
    let policies = [
        ExecPolicy::Parallel { workers: 1 },
        ExecPolicy::Parallel { workers: 8 },
        ExecPolicy::Unbounded,
    ];
    for policy in policies {
        let cluster = Cluster::new(metablade().with_nodes(128)).with_exec(policy);
        group.bench_with_input(
            BenchmarkId::new("allreduce_128", policy.label()),
            &policy,
            |b, _| {
                b.iter(|| {
                    let out = cluster.run(|comm| {
                        let mut v = vec![comm.rank() as f64; 32];
                        for _ in 0..2 {
                            v = comm.allreduce_sum(&v);
                            comm.compute(1e5);
                        }
                        v[0]
                    });
                    black_box(out.exec_report.admissions);
                    black_box(out.makespan_s())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_executor, bench_event_core_scale);
criterion_main!(benches);
