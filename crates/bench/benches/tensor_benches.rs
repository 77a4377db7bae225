//! E19 — matmul and elementwise kernels: host wall-time of the real
//! computation at each size (the simulated-time sweep lives in `repro
//! --exp matmul`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sagegpu_core::gpu::{DeviceSpec, Gpu};
use sagegpu_core::tensor::dense::Tensor;
use sagegpu_core::tensor::gpu_exec::GpuExecutor;
use std::sync::Arc;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Tensor::randn(n, n, &mut rng);
        let b = Tensor::randn(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::new("cpu", n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b).unwrap());
        });
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        group.bench_with_input(BenchmarkId::new("gpu-sim", n), &n, |bench, _| {
            bench.iter(|| exec.matmul(&a, &b).unwrap());
        });
    }
    group.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("elementwise");
    let mut rng = SmallRng::seed_from_u64(2);
    let a = Tensor::randn(512, 512, &mut rng);
    group.bench_function("relu", |bench| bench.iter(|| a.relu()));
    group.bench_function("softmax_rows", |bench| bench.iter(|| a.softmax_rows()));
    group.finish();
}

/// The four host products of one GCN worker-epoch on a 420-node
/// partition (256 features, 128 hidden, 4 classes): layer 1's forward
/// (ÂX)·W and weight gradient (ÂX)ᵀ·g, and layer 2's forward H·W and weight
/// gradient Hᵀ·g, with H a ReLU output (about half zeros).
fn bench_gcn_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gcn_shapes");
    let mut rng = SmallRng::seed_from_u64(3);
    let ax = Tensor::randn(420, 256, &mut rng);
    let w1 = Tensor::randn(256, 128, &mut rng);
    let g1 = Tensor::randn(420, 128, &mut rng).relu();
    let h = Tensor::randn(420, 128, &mut rng).relu();
    let w2 = Tensor::randn(128, 4, &mut rng);
    let g2 = Tensor::randn(420, 4, &mut rng);
    group.bench_function("matmul_420x256x128", |bench| {
        bench.iter(|| ax.matmul(&w1).unwrap())
    });
    group.bench_function("t_matmul_420x256T_420x128", |bench| {
        bench.iter(|| ax.t_matmul(&g1).unwrap())
    });
    group.bench_function("matmul_420x128x4_relu", |bench| {
        bench.iter(|| h.matmul(&w2).unwrap())
    });
    group.bench_function("t_matmul_420x128T_420x4_relu", |bench| {
        bench.iter(|| h.t_matmul(&g2).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_elementwise, bench_gcn_shapes);
criterion_main!(benches);
