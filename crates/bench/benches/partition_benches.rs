//! E18 — METIS-like multilevel partitioning vs. the random baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sagegpu_bench::experiments::topology_scaling_dataset;
use sagegpu_core::graph::generators::{sbm, SbmParams};
use sagegpu_core::graph::partition::{metis_partition, random_partition};

fn bench_partitioners(c: &mut Criterion) {
    let ds = sbm(
        &SbmParams {
            block_sizes: vec![150; 4],
            p_in: 0.08,
            p_out: 0.005,
            feature_dim: 4,
            feature_separation: 1.0,
            train_fraction: 0.5,
        },
        7,
    )
    .unwrap();
    let g = ds.graph;
    let mut group = c.benchmark_group("partition");
    for &k in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("metis", k), &k, |b, &k| {
            b.iter(|| metis_partition(&g, k).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("random", k), &k, |b, &k| {
            b.iter(|| random_partition(g.num_nodes(), k, 1).unwrap());
        });
    }
    group.finish();
}

/// The partition every A10 and `gcn-train` job pays for before training:
/// METIS on the 3 200-node SBM at k = 8.
fn bench_a10_partition(c: &mut Criterion) {
    let g = topology_scaling_dataset().graph;
    let mut group = c.benchmark_group("partition_a10");
    group.bench_with_input(BenchmarkId::new("metis", 8), &8usize, |b, &k| {
        b.iter(|| metis_partition(&g, k).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_partitioners, bench_a10_partition);
criterion_main!(benches);
