//! Deterministic perf-regression gate over recorded command traces.
//!
//! `scripts/check.sh` records five fixed workloads — a fused-GCN
//! training run on NVLink islands, the same run at k = 8 on flat
//! Ethernet, a RAG batch-scoring pass, a sharded IVF-PQ scatter-gather
//! search, and the same sharded search under a 25% tiered-residency
//! budget — through the `gpu_sim::trace`
//! interposer and diffs the scheduling metrics against golden trace
//! artifacts committed under `tests/golden/`. Because the simulator is
//! deterministic, any drift is a real behavior change: a slower schedule,
//! an extra submission, or communication newly exposed on the critical
//! path. Tolerances live next to the goldens in `tests/golden/gate.json`
//! so tightening or loosening the gate is a reviewed data change, not a
//! code change. `trace_gate --bless` re-records the goldens.

use sagegpu_core::gcn::distributed::{
    train_distributed_with_opts, CommMode, DistOptions, PartitionStrategy, ResidencyMode,
};
use sagegpu_core::gcn::exec::ExecMode;
use sagegpu_core::gcn::TrainConfig;
use sagegpu_core::gpu::cluster::{LinkKind, Topology};
use sagegpu_core::gpu::trace::TraceV1;
use sagegpu_core::gpu::{DeviceSpec, Gpu};
use sagegpu_core::graph::generators::{sbm, SbmParams};
use sagegpu_core::profiler::ingest::ingest_trace;
use sagegpu_core::rag::corpus::Corpus;
use sagegpu_core::rag::embed::Embedder;
use sagegpu_core::tensor::dense::Tensor;
use sagegpu_core::tensor::gpu_exec::GpuExecutor;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Directory holding the golden traces and the gate tolerances.
pub const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

/// A gated workload's recorder.
pub type Recorder = fn() -> TraceV1;

/// The gated workloads: `(short name, golden file stem, recorder)`.
pub const GATED_WORKLOADS: [(&str, &str, Recorder); 5] = [
    ("gcn-epoch", "gcn_epoch", record_gcn_epoch_trace),
    ("gcn-flat8", "gcn_flat8", record_gcn_flat8_trace),
    ("rag-batch", "rag_batch", record_rag_batch_trace),
    ("rag-sharded", "rag_sharded", record_rag_sharded_trace),
    ("rag-tiered", "rag_tiered", record_rag_tiered_trace),
];

/// Path of a golden trace artifact by file stem.
pub fn golden_path(stem: &str) -> std::path::PathBuf {
    std::path::Path::new(GOLDEN_DIR).join(format!("{stem}.trace.json"))
}

/// Path of the tolerance file next to the goldens.
pub fn gate_config_path() -> std::path::PathBuf {
    std::path::Path::new(GOLDEN_DIR).join("gate.json")
}

/// The scalars the gate diffs between a golden and a current trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GateMetrics {
    /// Recorded makespan across devices.
    pub sim_time_ns: u64,
    /// Commands that crossed the submit interposer.
    pub submissions: u64,
    /// Mean exposed-communication fraction across comm-carrying devices
    /// (0.0 for single-device traces), from the profiler's offline
    /// ingestion of the trace.
    pub exposed_comm_fraction: f64,
}

/// Extracts the gated metrics from a trace artifact. Submission count and
/// sim-time come from the trace itself; the exposed-comm fraction comes
/// from identity-replaying it through `sagegpu_profiler::ingest`.
pub fn metrics_for(trace: &TraceV1) -> GateMetrics {
    let exposed = ingest_trace(trace)
        .map(|a| a.exposed_comm_fraction())
        .unwrap_or(0.0);
    GateMetrics {
        sim_time_ns: trace.sim_time_ns,
        submissions: trace.submissions(),
        exposed_comm_fraction: exposed,
    }
}

/// Pinned tolerances, loaded from `tests/golden/gate.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTolerances {
    /// Relative sim-time drift allowed in either direction.
    pub sim_time_rel: f64,
    /// Absolute exposed-comm-fraction growth allowed (one-sided: getting
    /// better never fails the gate).
    pub exposed_comm_abs: f64,
}

impl Default for GateTolerances {
    /// The pinned defaults: sim-time ±1%, submissions exact, exposed-comm
    /// fraction +0.02 absolute.
    fn default() -> Self {
        GateTolerances {
            sim_time_rel: 0.01,
            exposed_comm_abs: 0.02,
        }
    }
}

impl GateTolerances {
    /// Parses the `gate.json` format. Unknown fields are ignored; missing
    /// fields fall back to the pinned defaults.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("gate.json: {e}"))?;
        let d = GateTolerances::default();
        let num = |key: &str, fallback: f64| -> f64 {
            v.get(key).and_then(|x| x.as_f64()).unwrap_or(fallback)
        };
        Ok(GateTolerances {
            sim_time_rel: num("sim_time_rel_tol", d.sim_time_rel),
            exposed_comm_abs: num("exposed_comm_abs_tol", d.exposed_comm_abs),
        })
    }

    /// Loads tolerances from [`gate_config_path`], falling back to the
    /// pinned defaults when the file is absent.
    pub fn load() -> Self {
        std::fs::read_to_string(gate_config_path())
            .ok()
            .and_then(|t| Self::from_json(&t).ok())
            .unwrap_or_default()
    }

    /// The `gate.json` serialization of these tolerances.
    pub fn to_json(&self) -> String {
        let v = Value::Object(BTreeMap::from([
            (
                "sim_time_rel_tol".to_owned(),
                Value::Number(self.sim_time_rel),
            ),
            ("submissions_exact".to_owned(), Value::Bool(true)),
            (
                "exposed_comm_abs_tol".to_owned(),
                Value::Number(self.exposed_comm_abs),
            ),
        ]));
        serde_json::to_string_pretty(&v).expect("a Value always writes") + "\n"
    }
}

/// Diffs `current` against `golden` under the pinned tolerances. Returns
/// the (possibly empty) list of human-readable violations — empty means
/// the gate passes. Sim-time drift fails in *both* directions (a genuine
/// improvement should be blessed into the golden, not slip past review);
/// submission count is exact; exposed-comm only fails when it grows.
pub fn check_gate(
    golden: &GateMetrics,
    current: &GateMetrics,
    tol: &GateTolerances,
) -> Vec<String> {
    let mut violations = Vec::new();
    let drift = (current.sim_time_ns as f64 - golden.sim_time_ns as f64)
        / (golden.sim_time_ns.max(1) as f64);
    if drift.abs() > tol.sim_time_rel {
        violations.push(format!(
            "sim-time {} by {:+.2}% (golden {} ns, current {} ns, tolerance \u{b1}{}%)",
            if drift > 0.0 { "regressed" } else { "improved" },
            drift * 100.0,
            golden.sim_time_ns,
            current.sim_time_ns,
            tol.sim_time_rel * 100.0
        ));
    }
    if current.submissions != golden.submissions {
        violations.push(format!(
            "submission count changed: golden {}, current {} (must match exactly)",
            golden.submissions, current.submissions
        ));
    }
    if current.exposed_comm_fraction > golden.exposed_comm_fraction + tol.exposed_comm_abs {
        violations.push(format!(
            "exposed-comm fraction grew: golden {:.4}, current {:.4} (tolerance +{})",
            golden.exposed_comm_fraction, current.exposed_comm_fraction, tol.exposed_comm_abs
        ));
    }
    violations
}

/// Records the gated fused-GCN workload: 4 workers on NVLink islands of 2,
/// resident parameters, fused kernels, bucketed-overlap gradient exchange,
/// 4 epochs on a small seeded SBM. Everything is seeded, so re-recording
/// yields a byte-identical schedule.
pub fn record_gcn_epoch_trace() -> TraceV1 {
    record_gcn_trace(4, Topology::nvlink_islands(2))
}

/// Records the same fused-GCN workload with 8 workers on flat Ethernet,
/// one GPU per instance as in the course. Every collective there spans a
/// power-of-two group larger than two, so this golden pins the recursive
/// halving-doubling schedule that the islands-of-2 run never exercises.
pub fn record_gcn_flat8_trace() -> TraceV1 {
    record_gcn_trace(8, Topology::Flat(LinkKind::Ethernet))
}

fn record_gcn_trace(workers: usize, topology: Topology) -> TraceV1 {
    let ds = sbm(
        &SbmParams {
            block_sizes: vec![50, 50, 50, 50],
            p_in: 0.18,
            p_out: 0.015,
            feature_dim: 16,
            feature_separation: 1.2,
            train_fraction: 0.5,
        },
        21,
    )
    .expect("valid SBM parameters");
    let cfg = TrainConfig {
        epochs: 4,
        ..Default::default()
    };
    train_distributed_with_opts(
        &ds,
        workers,
        &cfg,
        PartitionStrategy::Metis,
        DistOptions {
            topology,
            residency: ResidencyMode::Resident,
            exec: ExecMode::FusedOverlapped,
            comm: CommMode::BucketedOverlap { bucket_bytes: 2560 },
            record_trace: true,
            ..DistOptions::default()
        },
    )
    .expect("gate workload trains")
    .trace
    .expect("record_trace captures the run")
}

/// Records the gated RAG batch-scoring workload: 32 embedded queries
/// against a 60-doc resident index, chunked over the executor's two-stream
/// pipeline — the A07 RAG arm, traced.
pub fn record_rag_batch_trace() -> TraceV1 {
    let embedder = Embedder::new(96, 2025);
    let corpus = Corpus::synthetic(60, 80, 2025);
    let rows: Vec<Vec<f32>> = corpus
        .docs()
        .iter()
        .map(|d| embedder.embed(&d.text))
        .collect();
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let mat = Tensor::from_vec(60, 96, flat).expect("dims");
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();
    let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
    let _sink = exec.record_trace();
    let device_mat = exec.upload(&mat).expect("index fits");
    exec.score_rows_batch(&device_mat, &queries)
        .expect("scores");
    exec.finish_trace("rag-batch-scoring")
        .expect("recording was on")
}

/// Records the gated sharded-retrieval workload: a seeded 2,000-doc
/// IVF-PQ index scattered over 4 simulated T4s on PCIe, searched with a
/// 16-query batch (nprobe 8, gather-side refine 16). The sink attaches
/// to the fresh cluster before the build, so the trace covers the
/// parallel encode/upload phase plus the scatter-gather search from
/// zeroed device clocks (identity replay is exact), and the gated
/// metrics (per-device-max sim-time, submission count, exposed comm)
/// are independent of worker interleaving, so the recording is
/// reproducible.
pub fn record_rag_sharded_trace() -> TraceV1 {
    use sagegpu_core::gpu::cluster::{GpuCluster, LinkKind};
    use sagegpu_core::rag::pq::PqConfig;
    use sagegpu_core::rag::shard::{Placement, ShardPlan, ShardedIndex};

    let embedder = Embedder::new(96, 2025);
    let corpus = Corpus::synthetic(2_000, 80, 2025);
    let data: Vec<(usize, Vec<f32>)> = corpus
        .docs()
        .iter()
        .map(|d| (d.id, embedder.embed(&d.text)))
        .collect();
    let gpus = Arc::new(GpuCluster::homogeneous(4, DeviceSpec::t4(), LinkKind::Pcie));
    let _sink = gpus.record_trace();
    let plan = ShardPlan {
        nlist: 32,
        nprobe: 8,
        pq: PqConfig::new(16, 6),
        sample: 512,
        shards: 4,
        refine: 16,
        placement: Placement::SizeBalanced,
        budget_bytes: None,
    };
    let idx = ShardedIndex::build(96, plan, &data, gpus.clone(), 2025).expect("sharded build");
    let queries: Vec<Vec<f32>> = (0..16)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();
    use sagegpu_core::rag::index::RetrievalIndex;
    idx.search_batch(&queries, 10);
    gpus.finish_trace("rag-sharded-search")
        .expect("recording was on")
}

/// Records the gated tiered-residency workload: the same seeded 2,000-doc
/// sharded index as [`record_rag_sharded_trace`], but built cold under a
/// 25% device budget for the packed list codes (2,000 codes × 16 bytes =
/// 32,000 total, budget 8,000 split proportionally across the 4 shards).
/// Two sequential 16-query batches run so the trace pins both the
/// charge-on-miss promotion schedule of the cold pass and the hit/evict
/// churn of the warm one — any change to victim selection, promotion
/// charging, or list placement shifts the submission count or sim-time
/// and trips the gate.
pub fn record_rag_tiered_trace() -> TraceV1 {
    use sagegpu_core::gpu::cluster::{GpuCluster, LinkKind};
    use sagegpu_core::rag::pq::PqConfig;
    use sagegpu_core::rag::shard::{Placement, ShardPlan, ShardedIndex};

    let embedder = Embedder::new(96, 2025);
    let corpus = Corpus::synthetic(2_000, 80, 2025);
    let data: Vec<(usize, Vec<f32>)> = corpus
        .docs()
        .iter()
        .map(|d| (d.id, embedder.embed(&d.text)))
        .collect();
    let gpus = Arc::new(GpuCluster::homogeneous(4, DeviceSpec::t4(), LinkKind::Pcie));
    let _sink = gpus.record_trace();
    let plan = ShardPlan {
        nlist: 32,
        nprobe: 8,
        pq: PqConfig::new(16, 6),
        sample: 512,
        shards: 4,
        refine: 16,
        placement: Placement::SizeBalanced,
        budget_bytes: Some(8_000),
    };
    let idx = ShardedIndex::build(96, plan, &data, gpus.clone(), 2025).expect("tiered build");
    let queries: Vec<Vec<f32>> = (0..16)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();
    use sagegpu_core::rag::index::RetrievalIndex;
    idx.search_batch(&queries, 10);
    idx.search_batch(&queries, 10);
    gpus.finish_trace("rag-tiered-search")
        .expect("recording was on")
}

/// Outcome of gating one workload.
#[derive(Debug)]
pub struct GateOutcome {
    pub workload: &'static str,
    pub golden: GateMetrics,
    pub current: GateMetrics,
    pub violations: Vec<String>,
}

/// Records each gated workload and diffs it against the committed
/// goldens. With `bless`, (re-)writes the goldens and the tolerance file
/// instead and returns outcomes that trivially pass.
pub fn run_gate(bless: bool) -> Result<Vec<GateOutcome>, String> {
    let tol = GateTolerances::load();
    let mut outcomes = Vec::new();
    for (name, stem, record) in GATED_WORKLOADS {
        let current_trace = record();
        let path = golden_path(stem);
        if bless {
            std::fs::create_dir_all(GOLDEN_DIR).map_err(|e| format!("{GOLDEN_DIR}: {e}"))?;
            current_trace
                .write_file(&path)
                .map_err(|e| format!("blessing {stem}: {e}"))?;
        }
        let golden_trace = TraceV1::read_file(&path)
            .map_err(|e| format!("golden {stem}: {e} (run `trace_gate --bless`)"))?;
        let golden = metrics_for(&golden_trace);
        let current = metrics_for(&current_trace);
        let violations = check_gate(&golden, &current, &tol);
        outcomes.push(GateOutcome {
            workload: name,
            golden,
            current,
            violations,
        });
    }
    if bless {
        std::fs::write(gate_config_path(), tol.to_json())
            .map_err(|e| format!("writing gate.json: {e}"))?;
    }
    Ok(outcomes)
}
