//! E17 — Algorithm 1: per-epoch cost, sequential vs. distributed, and the
//! host cost of one worker's epoch at the `gcn-train` partition shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sagegpu_core::gcn::distributed::{train_distributed, PartitionStrategy};
use sagegpu_core::gcn::sequential::{
    dataset_adjacency, dataset_features, train_sequential, train_step,
};
use sagegpu_core::gcn::TrainConfig;
use sagegpu_core::graph::generators::{sbm, SbmParams};
use sagegpu_core::nn::layers::Gcn;
use sagegpu_core::nn::optim::{Adam, Optimizer};
use sagegpu_core::nn::parallel::weighted_average_gradients;
use sagegpu_core::nn::tape::Tape;
use sagegpu_core::tensor::dense::Tensor;
use std::sync::Arc;

fn dataset() -> sagegpu_core::graph::generators::GraphDataset {
    sbm(
        &SbmParams {
            block_sizes: vec![60; 3],
            p_in: 0.12,
            p_out: 0.01,
            feature_dim: 16,
            feature_separation: 1.2,
            train_fraction: 0.5,
        },
        5,
    )
    .unwrap()
}

fn bench_training(c: &mut Criterion) {
    let ds = dataset();
    let cfg = TrainConfig {
        epochs: 5,
        ..Default::default()
    };
    let mut group = c.benchmark_group("gcn-train-5-epochs");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| train_sequential(&ds, &cfg));
    });
    for &k in &[2usize, 4] {
        group.bench_with_input(BenchmarkId::new("distributed-metis", k), &k, |b, &k| {
            b.iter(|| train_distributed(&ds, k, &cfg, PartitionStrategy::Metis).unwrap());
        });
    }
    group.finish();
}

/// One `gcn-train` worker's epoch on the host: a 400-node partition (four
/// 100-node blocks, mean degree ≈ 40), 256 features, 128 hidden units and
/// four classes, as the 3 200-node A10 graph splits over eight workers.
///
/// - `forward_backward`: layer 1 over the precomputed `ÂX`, layer 2's
///   aggregation, the loss and `Tape::backward`;
/// - `adam_step`: one host `Adam` step over the four parameter gradients;
/// - `train_step`: both, as `sequential::train_step` runs them;
/// - `average_8`: the driver's serial phase — the weighted average of
///   eight workers' gradients (each worker then steps its own replica).
fn bench_worker_epoch(c: &mut Criterion) {
    let ds = sbm(
        &SbmParams {
            block_sizes: vec![100; 4],
            p_in: 0.3,
            p_out: 0.03,
            feature_dim: 256,
            feature_separation: 0.5,
            train_fraction: 0.3,
        },
        7,
    )
    .unwrap();
    let adj = dataset_adjacency(&ds);
    let ax = Gcn::aggregate(&adj, &dataset_features(&ds));
    let mut rng = SmallRng::seed_from_u64(7);
    let model = Gcn::new(ds.feature_dim, 128, ds.num_classes, &mut rng);
    let grads = |model: &Gcn| -> Vec<Tensor> {
        let tape = Tape::new();
        let fwd = model.forward(&tape, Arc::clone(&adj), &ax);
        let loss = tape.cross_entropy(fwd.logits, &ds.labels, &ds.train_mask);
        let all = tape.backward(loss);
        fwd.params
            .iter()
            .map(|v| all[v.index()].clone().expect("param gradient"))
            .collect()
    };
    let g = grads(&model);

    // Every body that updates θ starts from its own copy of the model.
    let mut group = c.benchmark_group("worker-epoch");
    group.sample_size(20);
    group.bench_function("forward_backward", |b| b.iter(|| grads(&model)));
    let (mut m, mut opt) = (model.clone(), Adam::new(0.01));
    group.bench_function("adam_step", |b| {
        b.iter(|| opt.step_all(m.parameters_mut(), &g))
    });
    let (mut m, mut opt) = (model.clone(), Adam::new(0.01));
    group.bench_function("train_step", |b| {
        b.iter(|| train_step(&mut m, &mut opt, &adj, &ax, &ds.labels, &ds.train_mask))
    });

    let per_worker: Vec<Vec<Tensor>> = (0..8)
        .map(|w| g.iter().map(|t| t.scale(1.0 + w as f32 / 8.0)).collect())
        .collect();
    let weights: Vec<f64> = (0..8).map(|w| 100.0 + w as f64).collect();
    group.bench_function("average_8", |b| {
        b.iter(|| weighted_average_gradients(&per_worker, &weights))
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_worker_epoch);
criterion_main!(benches);
