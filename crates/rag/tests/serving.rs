//! Integration tests for the online serving layer: load-shedding under
//! backpressure, determinism under injected faults, typed errors once the
//! retry budget runs out, and cache-hit fidelity.

use gpu_sim::{DeviceSpec, Gpu};
use sagegpu_rag::corpus::Corpus;
use sagegpu_rag::pipeline::build_flat_pipeline;
use sagegpu_rag::serve::{RagServer, ServeError, ServerConfig};
use sagegpu_tensor::gpu_exec::GpuExecutor;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use taskflow::{ClusterBuilder, FaultPlan, RetryPolicy, TaskError};

fn gpu() -> GpuExecutor {
    GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())))
}

#[test]
fn backpressure_sheds_when_the_queue_is_full() {
    let pipeline = Arc::new(build_flat_pipeline(30, 64, gpu(), 7));
    // One worker and a 100%-slow fault plan pin every dispatched batch on
    // the worker for ~300 ms, so the first admissions are still in flight
    // when the later submissions arrive.
    let slow_plan = FaultPlan {
        seed: 1,
        crash_rate: 0.0,
        slow_rate: 1.0,
        drop_rate: 0.0,
        slow_delay: Duration::from_millis(300),
    };
    let cluster = ClusterBuilder::new()
        .workers(1)
        .fault_plan(slow_plan)
        .build();
    let server = RagServer::start(
        pipeline,
        cluster,
        ServerConfig::new()
            .queue_capacity(4)
            .max_batch(2)
            .batch_window(Duration::ZERO),
    );

    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for i in 0..8 {
        match server.submit(Corpus::topic_query(i % 5, 4, i as u64)) {
            Ok(handle) => admitted.push(handle),
            Err(ServeError::Overloaded {
                in_flight,
                capacity,
            }) => {
                assert_eq!(in_flight, 4);
                assert_eq!(capacity, 4);
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(admitted.len(), 4, "capacity bounds admissions exactly");
    assert_eq!(shed, 4);
    assert_eq!(server.shed_count(), 4);

    for handle in admitted {
        let served = handle.wait().expect("slow faults delay but still serve");
        assert!(!served.response.answer.is_empty());
    }
    let report = server.shutdown();
    assert_eq!(report.served, 4);
    assert_eq!(report.failed, 0);
    assert_eq!(report.shed, 4);
}

#[test]
fn seeded_fault_run_returns_the_same_answers_as_a_fault_free_run() {
    let queries: Vec<String> = (0..12)
        .map(|i| Corpus::topic_query(i % 5, 5, i as u64))
        .collect();

    let run = |faults: bool| -> BTreeMap<u64, (String, Vec<usize>)> {
        let pipeline = Arc::new(build_flat_pipeline(30, 64, gpu(), 7));
        let plan = if faults {
            FaultPlan {
                seed: 42,
                crash_rate: 0.2,
                slow_rate: 0.1,
                drop_rate: 0.1,
                slow_delay: Duration::from_millis(1),
            }
        } else {
            FaultPlan::none()
        };
        let cluster = ClusterBuilder::new().workers(3).fault_plan(plan).build();
        let server = RagServer::start(
            pipeline,
            cluster,
            ServerConfig::new()
                .max_batch(4)
                .batch_window(Duration::from_micros(200))
                .retry(RetryPolicy::fixed(10, Duration::ZERO))
                .seed(99),
        );
        let handles: Vec<_> = queries
            .iter()
            .map(|q| server.submit(q.clone()).expect("ample capacity"))
            .collect();
        let mut answers = BTreeMap::new();
        for handle in handles {
            let served = handle.wait().expect("faults are retried, not fatal");
            let doc_ids = served.response.hits.iter().map(|h| h.doc_id).collect();
            answers.insert(served.request_id, (served.response.answer, doc_ids));
        }
        let report = server.shutdown();
        assert_eq!(report.served, 12);
        assert_eq!(report.failed, 0);
        if faults {
            assert!(
                report.retries > 0,
                "the fault plan should have forced at least one retry"
            );
        }
        answers
    };

    let clean = run(false);
    let faulted = run(true);
    assert_eq!(
        clean, faulted,
        "per-request seeding must make answers independent of batching and retries"
    );
}

#[test]
fn exhausted_retries_fail_every_request_with_a_typed_error() {
    // Every attempt crashes and there are no retries: each batch's error
    // must reach its requests' handles instead of panicking the server.
    let pipeline = Arc::new(build_flat_pipeline(20, 64, gpu(), 3));
    let cluster = ClusterBuilder::new()
        .workers(2)
        .fault_plan(FaultPlan::crashes(1, 1.0))
        .build();
    let server = RagServer::start(
        pipeline,
        cluster,
        ServerConfig::new().max_batch(2).retry(RetryPolicy::none()),
    );
    let handles: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit(Corpus::topic_query(i % 5, 4, i as u64))
                .expect("ample capacity")
        })
        .collect();
    let submitted = handles.len() as u64;
    for handle in handles {
        let err = handle.wait().expect_err("every attempt crashes");
        assert!(
            matches!(err, ServeError::Task(TaskError::Panicked(_))),
            "{err:?}"
        );
    }
    let report = server.shutdown();
    assert_eq!(report.failed, submitted);
    assert_eq!(report.served, 0);
}

#[test]
fn cache_hit_returns_identical_hits_to_a_cold_query() {
    let pipeline = Arc::new(build_flat_pipeline(40, 64, gpu(), 5));
    let query = Corpus::topic_query(1, 5, 17);
    let expected_hits = pipeline.retrieve(&query).0;

    let cluster = ClusterBuilder::new().workers(2).build();
    let server = RagServer::start(
        Arc::clone(&pipeline),
        cluster,
        ServerConfig::new().cache_capacity(16),
    );

    // Cold: waits for completion, so the cache is warm before the repeat.
    let cold = server.submit(query.clone()).unwrap().wait().unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(cold.response.hits, expected_hits);
    assert!(cold.response.retrieve_ns > 0);

    let warm = server.submit(query.clone()).unwrap().wait().unwrap();
    assert!(warm.cache_hit, "repeat of an identical query must hit");
    assert_eq!(warm.response.hits, expected_hits, "hits must be identical");
    assert_eq!(
        warm.response.retrieve_ns, 0,
        "a cache hit never touches the index"
    );

    let stats = server.cache_stats();
    assert!(stats.hits >= 1);
    assert!(stats.misses >= 1);
    assert_eq!(stats.entries, 1);

    let report = server.shutdown();
    assert_eq!(report.cache.hits, stats.hits);
    assert_eq!(report.served, 2);
}

#[test]
fn sharded_index_serves_end_to_end() {
    use gpu_sim::{GpuCluster, LinkKind};
    use sagegpu_rag::pipeline::build_sharded_pipeline;
    use sagegpu_rag::pq::PqConfig;
    use sagegpu_rag::shard::ShardPlan;

    let gpus = Arc::new(GpuCluster::homogeneous(4, DeviceSpec::t4(), LinkKind::Pcie));
    let plan = ShardPlan {
        nlist: 16,
        nprobe: 8,
        pq: PqConfig::new(16, 8),
        sample: usize::MAX,
        shards: 4,
        refine: 16,
        placement: sagegpu_rag::shard::Placement::SizeBalanced,
        budget_bytes: None,
    };
    let pipeline =
        Arc::new(build_sharded_pipeline(200, 96, plan, gpus.clone(), 7).expect("builds"));
    let queries: Vec<String> = (0..10)
        .map(|i| Corpus::topic_query(i % 5, 5, i as u64))
        .collect();
    // Offline ground truth before the server exists: the served hits must
    // be exactly what a direct scatter-gather retrieve returns.
    let expected: Vec<_> = queries.iter().map(|q| pipeline.retrieve(q).0).collect();

    let cluster = ClusterBuilder::new().workers(2).build();
    let server = RagServer::start(
        Arc::clone(&pipeline),
        cluster,
        ServerConfig::new()
            .max_batch(4)
            .batch_window(Duration::from_micros(200))
            .cache_capacity(8),
    );
    let handles: Vec<_> = queries
        .iter()
        .map(|q| server.submit(q.clone()).expect("ample capacity"))
        .collect();
    for (handle, expected_hits) in handles.into_iter().zip(&expected) {
        let served = handle.wait().expect("sharded retrieval serves");
        assert!(!served.response.answer.is_empty());
        assert_eq!(&served.response.hits, expected_hits);
    }
    let report = server.shutdown();
    assert_eq!(report.served, 10);
    assert_eq!(report.failed, 0);
    // The scatter side really fanned out: more than one device in the
    // retrieval cluster accrued simulated time.
    let busy = gpus.devices().filter(|d| d.now_ns() > 0).count();
    assert!(busy >= 2, "only {busy} devices saw work");
}

#[test]
fn disabled_cache_never_hits() {
    let pipeline = Arc::new(build_flat_pipeline(20, 64, gpu(), 3));
    let cluster = ClusterBuilder::new().workers(1).build();
    let server = RagServer::start(pipeline, cluster, ServerConfig::new().cache_capacity(0));
    let query = Corpus::topic_query(0, 4, 1);
    for _ in 0..3 {
        let served = server.submit(query.clone()).unwrap().wait().unwrap();
        assert!(!served.cache_hit);
        assert!(served.response.retrieve_ns > 0);
    }
    let report = server.shutdown();
    assert_eq!(report.cache.hits, 0);
    assert_eq!(report.cache.entries, 0);
}
