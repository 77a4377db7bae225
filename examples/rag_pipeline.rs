//! Weeks 12–14: a GPU-accelerated RAG pipeline, from corpus to answers.
//!
//! Builds the Lab-12 configuration (flat GPU-scored index + small
//! generator), answers topical questions, then runs the Lab-13
//! optimization study: IVF probe sweeps and batched serving.
//!
//! ```text
//! cargo run --release --example rag_pipeline
//! ```

use sagemaker_gpu_workflows::sagegpu::gpu::{DeviceSpec, Gpu};
use sagemaker_gpu_workflows::sagegpu::rag::corpus::Corpus;
use sagemaker_gpu_workflows::sagegpu::rag::embed::Embedder;
use sagemaker_gpu_workflows::sagegpu::rag::index::{
    recall_at_k, Codec, FlatIndex, IvfIndex, RetrievalIndex,
};
use sagemaker_gpu_workflows::sagegpu::rag::pipeline::build_flat_pipeline;
use sagemaker_gpu_workflows::sagegpu::tensor::gpu_exec::GpuExecutor;
use std::sync::Arc;

fn main() {
    // Lab 12: the end-to-end pipeline on one simulated T4.
    let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
    let pipeline = build_flat_pipeline(200, 96, exec, 7);
    println!(
        "indexed {} documents across {} topics",
        pipeline.corpus.len(),
        Corpus::num_topics()
    );

    let question = "kernel occupancy shared memory coalesced";
    let response = pipeline.answer(question, 1);
    println!("\nQ: {question}");
    println!(
        "retrieved: {:?}",
        response
            .hits
            .iter()
            .map(|h| pipeline
                .corpus
                .get(h.doc_id)
                .map(|d| d.title.clone())
                .unwrap_or_default())
            .collect::<Vec<_>>()
    );
    println!("A: {} …", &response.answer[..response.answer.len().min(90)]);
    println!(
        "latency: retrieve {} us + generate {} us",
        response.retrieve_ns / 1000,
        response.generate_ns / 1000
    );

    // Lab 13a: retrieval accuracy/latency tradeoff (IVF nprobe sweep).
    let corpus = Corpus::synthetic(400, 80, 7);
    let embedder = Embedder::new(96, 8);
    let data: Vec<(usize, Vec<f32>)> = corpus
        .docs()
        .iter()
        .map(|d| (d.id, embedder.embed(&d.text)))
        .collect();
    let mut flat = FlatIndex::new(96);
    for (id, v) in &data {
        flat.add(*id, v.clone());
    }
    println!("\nIVF probe sweep (400 docs, 20 lists):");
    for nprobe in [1usize, 2, 5, 10, 20] {
        let mut ivf = IvfIndex::train(96, 20, 20, Codec::Full, &data, 7).expect("ivf trains");
        ivf.set_nprobe(nprobe);
        let mut recall = 0.0;
        for i in 0..10 {
            let q = embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64));
            recall += recall_at_k(&flat.search(&q, 5), &ivf.search(&q, 5));
        }
        println!(
            "  nprobe {:>2}: scans {:>4.0}% of corpus, recall@5 {:.2}",
            nprobe,
            100.0 * ivf.scan_fraction(),
            recall / 10.0
        );
    }

    // Lab 13b: batched serving throughput.
    let queries: Vec<String> = (0..32)
        .map(|i| Corpus::topic_query(i % 5, 5, i as u64))
        .collect();
    println!("\nbatched serving (32 queries):");
    for batch in [1usize, 4, 16] {
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let p = build_flat_pipeline(200, 96, exec, 7);
        let rep = p.run_workload(&queries, batch, 0);
        println!(
            "  batch {:>2}: p50 {:>7.1} us  p99 {:>7.1} us  {:>7.0} QPS",
            batch, rep.p50_us, rep.p99_us, rep.throughput_qps
        );
    }
    println!("\ntakeaway: batching amortizes the generator's weight streaming — the Lab 13 lesson");
}
