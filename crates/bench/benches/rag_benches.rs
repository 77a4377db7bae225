//! E20 — RAG retrieval (flat vs IVF) and batched serving — plus the A05
//! online server (micro-batching and retrieval cache).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sagegpu_core::gpu::{DeviceSpec, Gpu};
use sagegpu_core::rag::corpus::Corpus;
use sagegpu_core::rag::embed::Embedder;
use sagegpu_core::rag::index::{Codec, FlatIndex, IvfIndex, RetrievalIndex};
use sagegpu_core::rag::pipeline::build_flat_pipeline;
use sagegpu_core::rag::serve::{RagServer, ServerConfig};
use sagegpu_core::taskflow::cluster::ClusterBuilder;
use sagegpu_core::tensor::gpu_exec::GpuExecutor;
use std::sync::Arc;
use std::time::Duration;

fn bench_retrieval(c: &mut Criterion) {
    let corpus = Corpus::synthetic(500, 80, 3);
    let embedder = Embedder::new(96, 3);
    let data: Vec<(usize, Vec<f32>)> = corpus
        .docs()
        .iter()
        .map(|d| (d.id, embedder.embed(&d.text)))
        .collect();
    let mut flat = FlatIndex::new(96);
    for (id, v) in &data {
        flat.add(*id, v.clone());
    }
    let mut ivf = IvfIndex::train(96, 25, 25, Codec::Full, &data, 3).expect("ivf trains");
    ivf.set_nprobe(3);
    let q = embedder.embed(&Corpus::topic_query(0, 6, 9));

    let mut group = c.benchmark_group("retrieval-500-docs");
    group.bench_function("flat", |b| b.iter(|| flat.search(&q, 5)));
    group.bench_function("ivf-nprobe3", |b| b.iter(|| ivf.search(&q, 5)));
    group.finish();
}

fn bench_serving(c: &mut Criterion) {
    let queries: Vec<String> = (0..16)
        .map(|i| Corpus::topic_query(i % 5, 5, i as u64))
        .collect();
    let mut group = c.benchmark_group("rag-serving-16-queries");
    group.sample_size(10);
    for &batch in &[1usize, 8] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter(|| {
                let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
                let p = build_flat_pipeline(60, 96, exec, 3);
                p.run_workload(&queries, batch, 0)
            });
        });
    }
    group.finish();
}

fn bench_online_server(c: &mut Criterion) {
    // End-to-end online serving of 16 requests (8 distinct queries x2):
    // submit everything, wait for every response, shut down. Compares
    // batch-1/no-cache against micro-batched + cached serving.
    let queries: Vec<String> = (0..16)
        .map(|i| Corpus::topic_query((i % 8) % 5, 5, (i % 8) as u64))
        .collect();
    let mut group = c.benchmark_group("rag-online-server-16-requests");
    group.sample_size(10);
    for &(label, max_batch, cache) in &[("batch1-cold", 1usize, 0usize), ("batch8-cached", 8, 64)] {
        group.bench_with_input(
            BenchmarkId::new("config", label),
            &(max_batch, cache),
            |b, &(max_batch, cache)| {
                b.iter(|| {
                    let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
                    let pipeline = Arc::new(build_flat_pipeline(60, 96, exec, 3));
                    let cluster = ClusterBuilder::new().workers(2).build();
                    let server = RagServer::start(
                        pipeline,
                        cluster,
                        ServerConfig::new()
                            .max_batch(max_batch)
                            .batch_window(Duration::from_micros(100))
                            .cache_capacity(cache),
                    );
                    let handles: Vec<_> = queries
                        .iter()
                        .map(|q| server.submit(q.clone()).expect("ample capacity"))
                        .collect();
                    for h in handles {
                        h.wait().expect("no faults injected");
                    }
                    server.shutdown()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_retrieval, bench_serving, bench_online_server);
criterion_main!(benches);
