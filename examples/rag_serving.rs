//! Assignment 4, deployed: an online RAG server under injected faults.
//!
//! Starts the serving layer on top of the Lab-12 pipeline — bounded
//! admission, micro-batching, an LRU retrieval cache, and retried cluster
//! dispatch — then pushes a bursty workload through it twice (fault-free
//! and with a crash/slow/drop fault plan) and prints the per-stage
//! observability the profiler collects.
//!
//! ```text
//! cargo run --release --example rag_serving
//! ```

use sagemaker_gpu_workflows::sagegpu::gpu::{DeviceSpec, Gpu};
use sagemaker_gpu_workflows::sagegpu::profiler::chrome_trace::ChromeTrace;
use sagemaker_gpu_workflows::sagegpu::rag::corpus::Corpus;
use sagemaker_gpu_workflows::sagegpu::rag::pipeline::build_flat_pipeline;
use sagemaker_gpu_workflows::sagegpu::rag::serve::{RagServer, ServeError, ServerConfig};
use sagemaker_gpu_workflows::sagegpu::taskflow::cluster::ClusterBuilder;
use sagemaker_gpu_workflows::sagegpu::taskflow::policy::{FaultPlan, RetryPolicy};
use sagemaker_gpu_workflows::sagegpu::tensor::gpu_exec::GpuExecutor;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A bursty workload: 48 requests over 12 distinct queries, so the
    // cache has repeats to hit.
    let queries: Vec<String> = (0..48)
        .map(|i| {
            let distinct = i % 12;
            Corpus::topic_query(distinct % 5, 5, distinct as u64)
        })
        .collect();

    for (label, plan) in [
        ("fault-free", FaultPlan::none()),
        (
            "crash 15% / slow 10% / drop 10%",
            FaultPlan {
                seed: 42,
                crash_rate: 0.15,
                slow_rate: 0.10,
                drop_rate: 0.10,
                slow_delay: Duration::from_micros(500),
            },
        ),
    ] {
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let pipeline = Arc::new(build_flat_pipeline(120, 96, exec, 7));
        let cluster = ClusterBuilder::new().workers(4).fault_plan(plan).build();
        let server = RagServer::start(
            pipeline,
            cluster,
            ServerConfig::new()
                .max_batch(8)
                .batch_window(Duration::from_micros(200))
                .queue_capacity(64)
                .cache_capacity(32)
                .retry(RetryPolicy::fixed(8, Duration::ZERO))
                .seed(7),
        );

        let mut handles = Vec::new();
        let mut shed = 0;
        for q in &queries {
            match server.submit(q.clone()) {
                Ok(h) => handles.push(h),
                Err(ServeError::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        let mut sample_answer = String::new();
        for h in handles {
            let served = h.wait().expect("retries absorb injected faults");
            if served.request_id == 0 {
                sample_answer = served.response.answer;
            }
        }
        let report = server.shutdown();

        println!("=== {label} ===");
        println!(
            "served {} of {} ({} shed at admission), {} micro-batches (mean size {:.1})",
            report.served,
            queries.len(),
            shed,
            report.batches,
            report.mean_batch_size
        );
        println!("queue wait: {}", report.queue_wait.summary());
        println!("retrieve:   {}", report.retrieve.summary());
        println!("generate:   {}", report.generate.summary());
        println!(
            "cache: {:.0}% hit rate over {} lookups; cluster retries: {}",
            100.0 * report.cache.hit_rate(),
            report.cache.hits + report.cache.misses,
            report.retries
        );
        println!(
            "first answer: {} …",
            &sample_answer[..sample_answer.len().min(70)]
        );
        println!(
            "chrome trace: {} events over {} request spans\n",
            ChromeTrace::new()
                .serving(&report.spans)
                .to_json()
                .matches("\"ph\"")
                .count(),
            report.spans.len()
        );
    }
    println!("takeaway: the fault run serves every request — retries, not panics — at the");
    println!("cost of retried batches; answers are identical because seeds follow requests");
}
