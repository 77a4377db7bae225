//! Algorithm 1: distributed GCN training over partitioned subgraphs. In
//! [`ResidencyMode::Naive`] the driver holds the global model θ; in
//! [`ResidencyMode::Resident`] each worker owns a device replica of it.

use crate::exec::{
    capture_epoch, charge_aggregate, charge_epoch_tracked, EpochDims, EpochGraph, ExecMode,
    SubmitMode,
};
use crate::sequential::infer;
use crate::{EpochStats, TrainConfig};
use gpu_sim::{
    DeviceSpec, EventKind, GpuCluster, GpuEvent, LinkKind, ResidencySnapshot, StreamId, Topology,
    TraceV1,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sagegpu_graph::csr::Graph;
use sagegpu_graph::generators::GraphDataset;
use sagegpu_graph::normalize::normalized_adjacency;
use sagegpu_graph::partition::{edge_cut, metis_partition, partition_balance, random_partition};
use sagegpu_graph::GraphError;
use sagegpu_nn::layers::Gcn;
use sagegpu_nn::optim::{Adam, Optimizer};
use sagegpu_nn::parallel::{
    bucket_gradients, charge_bucketed_all_reduce, merge_simultaneous_buckets,
    weighted_average_gradients, Compression, GradCompressor,
};
use sagegpu_nn::resident::{ResidentAdam, ResidentParams};
use sagegpu_nn::tape::Tape;
use sagegpu_profiler::bottleneck::{analyze_with_residency, BottleneckReport};
use sagegpu_profiler::timeline::Timeline;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::sparse::CsrMatrix;
use std::sync::{Arc, Mutex};
use taskflow::cluster::ClusterBuilder;
use taskflow::metrics::SchedulerMetrics;
use taskflow::policy::{FaultPlan, RetryPolicy};
use taskflow::store::DataKey;
use taskflow::worker::WorkerCtx;

/// How the graph is split across workers (line 3 of Algorithm 1 uses
/// METIS; the course had students also try random splits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    Metis,
    Random { seed: u64 },
}

impl PartitionStrategy {
    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::Metis => "metis",
            PartitionStrategy::Random { .. } => "random",
        }
    }
}

/// Where training state lives between epochs — the week-5 memory-hierarchy
/// lesson applied to Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidencyMode {
    /// Host-mediated exchange: every epoch re-broadcasts θ over the host
    /// link (H2D) and pulls every worker's gradients back to host RAM
    /// (D2H) before the network exchange — how a first, unoptimized
    /// student implementation moves data.
    Naive,
    /// Device-resident: each worker uploads θ once and owns that replica,
    /// with its optimizer moments, in its memory pool. It applies each
    /// epoch's averaged gradients itself, once, at the start of its next
    /// task. Gradients move over the peer links only, and worker 0's replica
    /// comes back to the host at a single explicit sync point.
    Resident,
}

impl ResidencyMode {
    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            ResidencyMode::Naive => "naive",
            ResidencyMode::Resident => "resident",
        }
    }
}

/// How the per-epoch gradient exchange is scheduled — the A08 ablation
/// knob. Both modes compute **bit-identical** averaged gradients; they
/// differ only in when the communication occupies the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// One opaque ring all-reduce of the full parameter payload *after*
    /// the backward pass — communication fully exposed on the critical
    /// path (the unoptimized Algorithm 1, and why the paper saw minimal
    /// speedup from splitting).
    Monolithic,
    /// DDP-style bucketed overlap: gradients are grouped into size-capped
    /// buckets in reverse layer order and each bucket's chunked ring
    /// all-reduce launches on the dedicated comm stream as soon as the
    /// backward op producing its last gradient retires, overlapping comm
    /// with the remaining backward compute. Neighbouring buckets that
    /// retire at the same instant on every worker go as one collective.
    BucketedOverlap {
        /// Size cap per bucket; a gradient larger than this gets its own
        /// bucket.
        bucket_bytes: u64,
    },
}

impl CommMode {
    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            CommMode::Monolithic => "monolithic",
            CommMode::BucketedOverlap { .. } => "bucketed",
        }
    }
}

/// Everything one worker holds about its partition besides its features.
/// The worker stores it beside layer 1's aggregate ÂX, which its scatter
/// task computes once from the features and every epoch and the
/// partitioned inference read.
struct PartitionData {
    /// Original node ids, local index order.
    nodes: Vec<usize>,
    adj: Arc<CsrMatrix>,
    labels: Vec<usize>,
    train_mask: Vec<bool>,
    dims: EpochDims,
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistResult {
    pub k: usize,
    pub strategy: &'static str,
    pub epoch_stats: Vec<EpochStats>,
    /// Accuracy with partitioned inference (each node aggregates within its
    /// partition — how the course's students evaluated). The trained
    /// model's accuracy over the full, uncut graph is
    /// [`crate::sequential::full_graph_test_accuracy`] of [`Self::model`].
    pub test_accuracy: f64,
    /// Simulated makespan of the whole run.
    pub sim_time_ns: u64,
    /// Partition quality: total cut edge weight.
    pub edge_cut: f64,
    /// Partition balance (1.0 = perfect).
    pub balance: f64,
    /// Per-device busy fraction of the makespan.
    pub device_utilization: Vec<f64>,
    pub model: Gcn,
    /// Scheduler-side counters and task spans for the run (retries show up
    /// here when fault injection was active).
    pub sched_metrics: SchedulerMetrics,
    /// Which residency mode charged the run's data movement.
    pub residency: &'static str,
    /// Which execution mode charged the run's kernels ("serial"/"fused").
    pub exec: &'static str,
    /// Total kernel launches charged across all workers.
    pub kernel_launches: u64,
    /// Total host→device bytes charged across all workers.
    pub h2d_bytes: u64,
    /// Total device→host bytes charged across all workers.
    pub d2h_bytes: u64,
    /// Total peer-link (D2D/P2P) bytes charged across all workers.
    pub p2p_bytes: u64,
    /// Which comm schedule charged the gradient exchange
    /// ("monolithic"/"bucketed").
    pub comm: &'static str,
    /// Which interconnect shape carried it ("flat"/"hierarchical").
    pub topology: &'static str,
    /// Which wire format the gradients crossed it in ("f32"/"fp16").
    pub compression: &'static str,
    /// Which submission mode issued epoch kernels ("eager"/"captured").
    pub submit: &'static str,
    /// Gradient-exchange time left on the critical path (after the epoch's
    /// compute had already finished), summed over epochs.
    pub exposed_comm_ns: u64,
    /// Gradient-exchange time hidden behind backward compute, summed over
    /// epochs. Always 0 for [`CommMode::Monolithic`].
    pub overlapped_comm_ns: u64,
    /// Bucket collectives launched per epoch (0 when monolithic).
    pub comm_buckets_per_epoch: u64,
    /// Per-epoch θ residency lookups (one per worker per epoch: a hit when
    /// the parameters were already device-resident, a miss when they had to
    /// be re-staged) plus the host-link bytes that resulted.
    pub residency_lookups: ResidencySnapshot,
    /// Device 0's residency-aware bottleneck verdict for the run.
    pub bottleneck: BottleneckReport,
    /// The recorded command trace, when [`DistOptions::record_trace`] was
    /// set — replayable via `gpu_sim::trace::replay` without this trainer.
    pub trace: Option<TraceV1>,
}

impl DistResult {
    /// Bytes that crossed the host link (H2D + D2H) — the PCIe traffic the
    /// residency layer exists to eliminate. Peer-link bytes are excluded:
    /// they flow GPU-to-GPU without touching host RAM.
    pub fn host_link_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }
}

/// Execution knobs for a distributed run beyond the training config:
/// interconnect, fault injection, and the retry budget that absorbs it.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Interconnect shape: a flat homogeneous fabric, or NVLink islands
    /// bridged by Ethernet with hierarchical collectives (the A10 knob).
    pub topology: Topology,
    /// Gradient wire format: full-precision f32 (bit-identical) or fp16
    /// with error-feedback accumulation (half the collective payload,
    /// bounded error — the A10 compression arm).
    pub compression: Compression,
    pub fault_plan: FaultPlan,
    pub retry: RetryPolicy,
    pub residency: ResidencyMode,
    /// How epoch kernels are charged: one launch per op, or fused epilogues
    /// with copy/compute overlap (the A07 ablation knob).
    pub exec: ExecMode,
    /// How the gradient exchange is scheduled: one exposed monolithic
    /// all-reduce, or bucketed collectives overlapped with backward (the
    /// A08 ablation knob).
    pub comm: CommMode,
    /// How epoch commands are submitted: eagerly kernel-by-kernel, or as a
    /// captured graph replayed per epoch (the A09 ablation knob).
    pub submit: SubmitMode,
    /// Record every submitted command into a portable [`TraceV1`] returned
    /// in [`DistResult::trace`] (the A11 what-if / regression-gate input).
    pub record_trace: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            topology: Topology::Flat(LinkKind::Ethernet),
            compression: Compression::None,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::none(),
            residency: ResidencyMode::Naive,
            exec: ExecMode::FusedOverlapped,
            comm: CommMode::Monolithic,
            submit: SubmitMode::Eager,
            record_trace: false,
        }
    }
}

/// One worker's share of the dataset, gathered on the driver because a
/// task cannot borrow the dataset: the partition's induced subgraph
/// (local ids) and its rows of X, Y and the train mask.
struct PartitionInput {
    /// Original node ids, local index order.
    nodes: Vec<usize>,
    subgraph: Graph,
    x: Tensor,
    labels: Vec<usize>,
    train_mask: Vec<bool>,
    num_classes: usize,
}

impl PartitionInput {
    fn gather(ds: &GraphDataset, nodes: Vec<usize>) -> Result<Self, GraphError> {
        let (subgraph, _) = ds.graph.subgraph(&nodes)?;
        let mut feats = Vec::with_capacity(nodes.len() * ds.feature_dim);
        for &u in &nodes {
            feats.extend_from_slice(ds.feature_row(u));
        }
        let x = Tensor::from_vec(nodes.len(), ds.feature_dim, feats).expect("feature dims");
        Ok(PartitionInput {
            labels: nodes.iter().map(|&u| ds.labels[u]).collect(),
            train_mask: nodes.iter().map(|&u| ds.train_mask[u]).collect(),
            nodes,
            subgraph,
            x,
            num_classes: ds.num_classes,
        })
    }

    /// Builds the partition on its worker (Algorithm 1 lines 5–6: Gᵢ as a
    /// normalized adjacency, Yᵢ).
    fn build(&self, hidden: usize) -> PartitionData {
        let n = self.nodes.len();
        let subgraph = &self.subgraph;
        let (indptr, indices, values) = normalized_adjacency(subgraph);
        let adj = Arc::new(
            CsrMatrix::new(n, n, indptr, indices, values)
                .expect("normalized subgraph CSR is valid"),
        );
        let dims = EpochDims {
            n: n as u64,
            nnz: (2 * subgraph.num_edges() + n) as u64,
            d: self.x.cols() as u64,
            h: hidden as u64,
            c: self.num_classes as u64,
        };
        PartitionData {
            nodes: self.nodes.clone(),
            adj,
            labels: self.labels.clone(),
            train_mask: self.train_mask.clone(),
            dims,
        }
    }
}

/// A worker's resident replica of the global model: θ and Adam moments in its pool, with the
/// executor owning their leases (a `Mutex`, as the worker store hands out `Arc`s).
type Replica = Mutex<(GpuExecutor, ResidentParams, ResidentAdam)>;
/// Parameter-shaped tensors shared by every worker's task: θ or a gradient.
type Shared = Arc<Vec<Tensor>>;

/// Runs `f` over the parameters a worker task trains or evaluates, borrowed, not copied: the
/// broadcast host θ (naive), or the worker's replica once line 13 has run for every epoch before
/// `epoch` (resident), locked while `f` runs. `last_avg`, the previous epoch's average, is
/// applied unless a dropped attempt of this task already applied it, so a replica steps once per
/// epoch however often its task is retried. `sync` also reads the replica back to the host (one
/// D2H).
fn with_local_model<R>(
    ctx: &WorkerCtx,
    key: DataKey,
    (theta, last_avg): &(Option<Shared>, Option<Shared>),
    epoch: usize,
    sync: bool,
    f: impl FnOnce(&[&Tensor]) -> R,
) -> (R, Option<Vec<Tensor>>) {
    if let Some(params) = theta {
        return (f(&params.iter().collect::<Vec<_>>()), None);
    }
    let replica = ctx.store.get::<Replica>(key).expect("replica uploaded");
    let mut replica = replica
        .lock()
        .expect("no task panicked holding the replica");
    let (exec, params, opt) = &mut *replica;
    if let Some(avg) = last_avg.as_ref().filter(|_| (opt.steps() as usize) < epoch) {
        opt.step_all(exec, params, avg).expect("resident step");
    }
    let synced = sync.then(|| params.to_host(exec).expect("final sync"));
    (f(&params.device_views()), synced)
}

/// Trains a GCN distributed over `k` simulated GPUs per Algorithm 1,
/// with the course's default interconnect (VPC Ethernet between separate
/// instances — see [`train_distributed_with_link`] to ablate it).
pub fn train_distributed(
    ds: &GraphDataset,
    k: usize,
    cfg: &TrainConfig,
    strategy: PartitionStrategy,
) -> Result<DistResult, GraphError> {
    train_distributed_with_link(ds, k, cfg, strategy, LinkKind::Ethernet)
}

/// [`train_distributed`] with an explicit device interconnect — the
/// ablation of DESIGN.md (what if the course had NVLink instead of VPC
/// networking?).
pub fn train_distributed_with_link(
    ds: &GraphDataset,
    k: usize,
    cfg: &TrainConfig,
    strategy: PartitionStrategy,
    link: LinkKind,
) -> Result<DistResult, GraphError> {
    train_distributed_with_opts(
        ds,
        k,
        cfg,
        strategy,
        DistOptions {
            topology: Topology::Flat(link),
            ..DistOptions::default()
        },
    )
}

/// [`train_distributed`] with full execution options, including seeded
/// fault injection. Injected worker crashes are synthesized *before* the
/// task body runs, so a retried epoch task recomputes from identical
/// inputs — a faulty run with enough retry budget converges to exactly the
/// same losses as a fault-free run (the resilience experiment of
/// EXPERIMENTS.md).
pub fn train_distributed_with_opts(
    ds: &GraphDataset,
    k: usize,
    cfg: &TrainConfig,
    strategy: PartitionStrategy,
    opts: DistOptions,
) -> Result<DistResult, GraphError> {
    // Line 3: partition.
    let parts = match strategy {
        PartitionStrategy::Metis => metis_partition(&ds.graph, k)?,
        PartitionStrategy::Random { seed } => random_partition(ds.num_nodes(), k, seed)?,
    };
    let cut = edge_cut(&ds.graph, &parts);
    let balance = partition_balance(&ds.graph, &parts, k);

    // Line 4: cluster with one worker per GPU. The course's multi-GPU
    // setups were 2–3 *separate* single-GPU instances in one VPC, so the
    // default gradient exchange crosses Ethernet — the main reason the
    // paper saw "minimal performance improvement" from splitting. A
    // two-tier topology models the fix: NVLink islands bridged by that
    // same Ethernet, with the collectives scheduled hierarchically.
    let gpus = Arc::new(GpuCluster::with_topology(
        k,
        DeviceSpec::t4(),
        opts.topology,
    ));
    if opts.record_trace {
        let _ = gpus.record_trace();
    }
    let cluster = ClusterBuilder::new()
        .gpus(Arc::clone(&gpus))
        .fault_plan(opts.fault_plan)
        .retry_policy(opts.retry)
        .build();

    // Line 7: the global model. Naive keeps it on the host beside the
    // driver's optimizer. Resident hands θ to the workers: each uploads it
    // at the end of its scatter task, the run's only parameter H2D, and
    // owns that replica from then on.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let init = Gcn::new(ds.feature_dim, cfg.hidden, ds.num_classes, &mut rng);
    let param_bytes = init.parameter_bytes();
    let naive = opts.residency == ResidencyMode::Naive;
    let theta0 = (!naive).then(|| Arc::new(init.get_parameters()));
    let mut host = naive.then(|| (init, Adam::new(cfg.lr)));
    // Every worker's store keeps its partition, and in resident mode its
    // replica, under a key shared by all the stores.
    let (part_key, replica_key) = (DataKey::fresh(), DataKey::fresh());

    // Lines 5–6: distribute the partitions. Each worker builds its
    // partition, uploads its features X (charged as H2D) and computes
    // layer 1's aggregate ÂX once, on the same stream: Â and X are fixed,
    // so no epoch repeats it. The k scatter tasks run in parallel. In
    // fused+resident mode that stream is a dedicated copy stream, so the θ
    // staging (and anything else the default stream does before epoch 0)
    // overlaps the copy and the aggregation; epoch 0 waits on the stream's
    // event before its first kernel, like a `cudaStreamWaitEvent`.
    let overlap_upload = opts.exec == ExecMode::FusedOverlapped && !naive;
    let (hidden, lr) = (cfg.hidden, cfg.lr);
    let mut scatter = Vec::with_capacity(k);
    for part in 0..k {
        let nodes: Vec<usize> = (0..ds.num_nodes()).filter(|&u| parts[u] == part).collect();
        let input = PartitionInput::gather(ds, nodes)?;
        let theta0 = theta0.clone();
        let fut = cluster
            .submit_to(part, move |ctx| {
                let data = Arc::new(input.build(hidden));
                let x = &input.x;
                let gpu = ctx.gpu();
                let stream = if overlap_upload {
                    gpu.create_stream()
                } else {
                    StreamId::DEFAULT
                };
                let _ = gpu.htod_on(stream, x.data()).expect("features fit");
                let ax = charge_aggregate(gpu, stream, data.dims, || Gcn::aggregate(&data.adj, x));
                ctx.store.put(part_key, (data, ax));
                let ready = overlap_upload.then(|| gpu.record_event(stream));
                if let Some(theta) = &theta0 {
                    let exec = GpuExecutor::new(Arc::clone(gpu));
                    let params = ResidentParams::upload(&exec, theta).expect("θ fits on device");
                    let replica: Replica = Mutex::new((exec, params, ResidentAdam::new(lr)));
                    ctx.store.put(replica_key, replica);
                }
                Ok(ready)
            })
            .expect("worker exists");
        scatter.push(fut);
    }
    let aggregate_ready = cluster
        .gather(scatter)
        .expect("scatter succeeds")
        .into_iter()
        .collect::<Result<Vec<Option<GpuEvent>>, GraphError>>()?;

    // Captured submission: one graph per worker (partitions differ in
    // shape), captured lazily inside the worker's first epoch task and
    // cached in the scheduler store for every later epoch to replay.
    let graph_key = DataKey::fresh();

    // fp16 wire format: each worker carries an error-feedback residual
    // across epochs, so what enters the average is exactly the payload
    // that crossed the interconnect (plus nothing — the residual stays
    // local and bounded).
    let mut compressors: Vec<GradCompressor> = match opts.compression {
        Compression::None => Vec::new(),
        Compression::Fp16ErrorFeedback => (0..k).map(|_| GradCompressor::new()).collect(),
    };

    // Lines 9–14: epochs.
    let mut epoch_stats = Vec::with_capacity(cfg.epochs);
    let (mut exposed_comm_ns, mut overlapped_comm_ns, mut comm_buckets_per_epoch) = (0, 0, 0);
    // Resident: the last epoch's averaged gradients, which each worker
    // applies to its replica (line 13) at the start of its next task.
    let mut last_avg: Option<Shared> = None;
    for epoch in 0..cfg.epochs {
        // Line 8 (per epoch): naive broadcasts the host θ, one copy shared
        // by every worker's task; a resident worker reads its replica.
        let theta = host.as_ref().map(|(m, _)| Arc::new(m.get_parameters()));
        let (exec_mode, submit) = (opts.exec, opts.submit);
        let mut futures = Vec::with_capacity(k);
        for (worker, &ready) in aggregate_ready.iter().enumerate() {
            let theta = (theta.clone(), last_avg.clone());
            // Epoch 0 must not start its first kernel until the copy
            // stream has uploaded X and aggregated ÂX.
            let ready = ready.filter(|_| epoch == 0);
            let fut = cluster
                .submit_to(worker, move |ctx| {
                    let worker_state = ctx
                        .store
                        .get::<(Arc<PartitionData>, Tensor)>(part_key)
                        .expect("partition scattered");
                    let (data, ax) = &*worker_state;
                    let gpu = ctx.gpu();
                    if let Some(event) = &ready {
                        gpu.stream_wait(StreamId::DEFAULT, event);
                    }
                    // Naive residency: re-stage θ onto the device every
                    // epoch. Resident mode skips this — the parameters are
                    // already in the worker's pool.
                    let staged_theta = theta.0.as_ref().map(|params| {
                        let flat: Vec<f32> =
                            params.iter().flat_map(Tensor::data).copied().collect();
                        gpu.htod(&flat).expect("θ fits")
                    });
                    let dims = data.dims;
                    let run = |params: &[&Tensor]| {
                        let body = || {
                            // Lines 10–11: local loss and gradients.
                            let tape = Tape::new();
                            let fwd = Gcn::forward_with(params, &tape, Arc::clone(&data.adj), ax);
                            let loss =
                                tape.cross_entropy(fwd.logits, &data.labels, &data.train_mask);
                            let loss_val = tape.value(loss).get(0, 0);
                            let mut grads = tape.backward(loss);
                            let grad_tensors: Vec<Tensor> = fwd
                                .params
                                .iter()
                                .map(|v| grads[v.index()].take().expect("param grad"))
                                .collect();
                            let train_count = data.train_mask.iter().filter(|&&m| m).count();
                            (grad_tensors, loss_val, train_count)
                        };
                        match submit {
                            SubmitMode::Eager => charge_epoch_tracked(gpu, exec_mode, dims, body),
                            SubmitMode::Captured => {
                                // First epoch on this worker: record the
                                // DAG once; every later epoch replays it.
                                let graph = match ctx.store.get::<EpochGraph>(graph_key) {
                                    Some(g) => g,
                                    None => {
                                        let g = capture_epoch(gpu, exec_mode, dims)
                                            .expect("epoch plan is capturable");
                                        ctx.store.put(graph_key, g);
                                        ctx.store.get::<EpochGraph>(graph_key).expect("just stored")
                                    }
                                };
                                graph.charge(gpu, body)
                            }
                        }
                    };
                    let (((grad_tensors, loss_val, train_count), mut grads_ready), _) =
                        with_local_model(ctx, replica_key, &theta, epoch, false, run);
                    // Naive residency: pull the gradients (same footprint
                    // as θ) back through host RAM for the exchange. No
                    // gradient can enter a collective before that D2H
                    // lands, so the retirement timestamps clamp to it —
                    // naive residency forfeits most of the overlap window.
                    if let Some(buf) = &staged_theta {
                        let _ = gpu.dtoh(buf).expect("gradients return");
                        let t = gpu.record_event(StreamId::DEFAULT).timestamp_ns();
                        for r in grads_ready.iter_mut() {
                            *r = (*r).max(t);
                        }
                    }
                    (grad_tensors, loss_val, train_count, grads_ready)
                })
                .expect("worker exists");
            futures.push(fut);
        }
        let results = cluster.gather(futures).expect("epoch tasks succeed");

        // Line 12: aggregate gradients (ring all-reduce on the links).
        // Monolithic mode barriers and charges one opaque collective after
        // backward; bucketed mode replays the per-gradient retirement
        // timestamps the workers recorded, so each bucket's chunked ring
        // starts mid-backward and only the tail past the epoch's compute
        // end is exposed. Buckets that retire together go as one.
        match opts.comm {
            CommMode::Monolithic => {
                exposed_comm_ns +=
                    gpus.all_reduce_cost(opts.compression.payload_bytes(param_bytes));
            }
            CommMode::BucketedOverlap { bucket_bytes } => {
                let compute_end = gpus.makespan_ns();
                let ready: Vec<Vec<u64>> = results.iter().map(|r| r.3.clone()).collect();
                let buckets = merge_simultaneous_buckets(
                    bucket_gradients(&results[0].0, bucket_bytes),
                    &ready,
                );
                comm_buckets_per_epoch = buckets.len() as u64;
                let (_, stats) =
                    charge_bucketed_all_reduce(&gpus, &buckets, &ready, opts.compression);
                let exposed = stats.comm_end_ns.saturating_sub(compute_end);
                exposed_comm_ns += exposed;
                overlapped_comm_ns += stats.total_comm_ns.saturating_sub(exposed);
                // Synchronous DDP: the optimizer step waits for the last
                // bucket on every replica.
                gpus.advance_all_to(stats.comm_end_ns);
            }
        }
        let weights: Vec<f64> = results.iter().map(|(_, _, c, _)| *c as f64).collect();
        let compressed: Vec<Vec<Tensor>>;
        let per_worker: Vec<&[Tensor]> = match opts.compression {
            Compression::None => results.iter().map(|(g, _, _, _)| g.as_slice()).collect(),
            Compression::Fp16ErrorFeedback => {
                compressed = results
                    .iter()
                    .zip(compressors.iter_mut())
                    .map(|((g, _, _, _), c)| c.compress(g))
                    .collect();
                compressed.iter().map(Vec::as_slice).collect()
            }
        };
        let total_train: f64 = weights.iter().sum();
        if total_train > 0.0 {
            let avg = weighted_average_gradients(&per_worker, &weights);
            // Line 13: global update — of the host model, or of every
            // device replica, in place, at the start of its next task.
            match host.as_mut() {
                Some((model, opt)) => opt.step_all(model.parameters_mut(), &avg),
                None => last_avg = Some(Arc::new(avg)),
            }
        }
        // Line 14: report epoch loss (train-count-weighted).
        let loss = if total_train > 0.0 {
            results
                .iter()
                .map(|(_, l, c, _)| *l * *c as f32)
                .sum::<f32>()
                / total_train as f32
        } else {
            0.0
        };
        epoch_stats.push(EpochStats { epoch, loss });
    }

    // Evaluation 1: partitioned inference (students' setup). A resident
    // worker first takes the last epoch's step; worker 0's replica is then
    // read back to the host, the run's single explicit sync point.
    let mut preds = vec![0usize; ds.num_nodes()];
    let theta = host.as_ref().map(|(m, _)| Arc::new(m.get_parameters()));
    let epochs = cfg.epochs;
    let mut eval_futures = Vec::with_capacity(k);
    for worker in 0..k {
        let theta = (theta.clone(), last_avg.clone());
        let fut = cluster
            .submit_to(worker, move |ctx| {
                let worker_state = ctx
                    .store
                    .get::<(Arc<PartitionData>, Tensor)>(part_key)
                    .expect("partition scattered");
                let (data, ax) = &*worker_state;
                let (preds, synced) =
                    with_local_model(ctx, replica_key, &theta, epochs, worker == 0, |params| {
                        infer(params, &data.adj, ax).argmax_rows()
                    });
                (data.nodes.clone(), preds, synced)
            })
            .expect("worker exists");
        eval_futures.push(fut);
    }
    let mut synced = None;
    for (nodes, local_preds, theta) in cluster.gather(eval_futures).expect("eval succeeds") {
        synced = synced.or(theta);
        for (local, &orig) in nodes.iter().enumerate() {
            preds[orig] = local_preds[local];
        }
    }
    let model = match host {
        Some((model, _)) => model,
        None => Gcn::from_parameters(&synced.expect("worker 0 syncs θ")),
    };
    let test: Vec<usize> = ds.test_nodes();
    let correct = test.iter().filter(|&&u| preds[u] == ds.labels[u]).count();
    let test_accuracy = correct as f64 / test.len().max(1) as f64;

    let timeline = Timeline::from_recorder(gpus.recorder());
    let device_utilization = (0..k as u32).map(|d| timeline.utilization(d)).collect();
    let sched_metrics = cluster.metrics();

    let (mut h2d_bytes, mut d2h_bytes, mut p2p_bytes) = (0u64, 0u64, 0u64);
    for e in gpus.recorder().snapshot() {
        match e.kind {
            EventKind::MemcpyH2D => h2d_bytes += e.bytes,
            EventKind::MemcpyD2H => d2h_bytes += e.bytes,
            EventKind::MemcpyD2D | EventKind::MemcpyP2P => p2p_bytes += e.bytes,
            _ => {}
        }
    }
    // One θ residency lookup per worker per epoch.
    let lookups = (k * cfg.epochs) as u64;
    let (hits, misses) = if naive { (0, lookups) } else { (lookups, 0) };
    let residency_lookups = ResidencySnapshot {
        hits,
        misses,
        h2d_bytes,
        d2h_bytes,
    };
    let bottleneck =
        analyze_with_residency(&timeline, 0, &DeviceSpec::t4(), Some(&residency_lookups));
    let trace = if opts.record_trace {
        gpus.finish_trace(&format!("gcn-dist-k{k}-{}", opts.comm.name()))
    } else {
        None
    };

    Ok(DistResult {
        k,
        strategy: strategy.name(),
        epoch_stats,
        test_accuracy,
        sim_time_ns: gpus.makespan_ns(),
        edge_cut: cut,
        balance,
        device_utilization,
        model,
        sched_metrics,
        residency: opts.residency.name(),
        exec: opts.exec.name(),
        kernel_launches: (0..k)
            .map(|w| gpus.device(w).expect("worker device").kernels_launched())
            .sum(),
        h2d_bytes,
        d2h_bytes,
        p2p_bytes,
        comm: opts.comm.name(),
        topology: opts.topology.name(),
        compression: opts.compression.name(),
        submit: opts.submit.name(),
        exposed_comm_ns,
        overlapped_comm_ns,
        comm_buckets_per_epoch,
        residency_lookups,
        bottleneck,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{full_graph_test_accuracy, train_sequential};
    use gpu_sim::trace::RecordBody;
    use sagegpu_graph::generators::{sbm, SbmParams};
    use sagegpu_nn::tape::NodeWork;
    use taskflow::metrics::SpanOutcome;
    use taskflow::policy::FaultKind;

    fn ds() -> GraphDataset {
        sbm(
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
        .unwrap()
    }

    fn cfg() -> TrainConfig {
        TrainConfig {
            epochs: 25,
            ..Default::default()
        }
    }

    #[test]
    fn distributed_training_converges() {
        let r = train_distributed(&ds(), 2, &cfg(), PartitionStrategy::Metis).unwrap();
        let first = r.epoch_stats.first().unwrap().loss;
        let last = r.epoch_stats.last().unwrap().loss;
        assert!(last < 0.8 * first, "loss {first} → {last}");
        assert!(r.test_accuracy > 0.6, "accuracy {}", r.test_accuracy);
    }

    #[test]
    fn metis_cut_below_random_cut() {
        let d = ds();
        let m = train_distributed(&d, 4, &cfg(), PartitionStrategy::Metis).unwrap();
        let r = train_distributed(&d, 4, &cfg(), PartitionStrategy::Random { seed: 3 }).unwrap();
        assert!(
            m.edge_cut < r.edge_cut,
            "metis {} vs random {}",
            m.edge_cut,
            r.edge_cut
        );
        assert!(m.balance < 1.2);
    }

    #[test]
    fn metis_partitioned_accuracy_at_least_random() {
        // §III-B: community-aligned partitions drop noise edges; random
        // partitions drop signal edges. METIS should not be worse.
        let d = ds();
        let m = train_distributed(&d, 4, &cfg(), PartitionStrategy::Metis).unwrap();
        let r = train_distributed(&d, 4, &cfg(), PartitionStrategy::Random { seed: 3 }).unwrap();
        assert!(
            m.test_accuracy >= r.test_accuracy - 0.05,
            "metis {} vs random {}",
            m.test_accuracy,
            r.test_accuracy
        );
    }

    #[test]
    fn speedup_is_minimal_on_small_graphs() {
        // The paper's observation: splitting a modest graph buys little.
        let d = ds();
        let seq = train_sequential(&d, &cfg());
        let dist = train_distributed(&d, 2, &cfg(), PartitionStrategy::Metis).unwrap();
        let speedup = seq.sim_time_ns as f64 / dist.sim_time_ns as f64;
        assert!(
            speedup < 2.0,
            "2 GPUs must not give ≥2× on a small graph (got {speedup:.2}×)"
        );
    }

    #[test]
    fn utilization_reported_per_device() {
        let r = train_distributed(&ds(), 3, &cfg(), PartitionStrategy::Metis).unwrap();
        assert_eq!(r.device_utilization.len(), 3);
        for &u in &r.device_utilization {
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    fn recorded_trace_identity_replays_exactly() {
        // The tentpole invariant at the trainer level: a hierarchical,
        // bucketed-overlap run recorded through the submit interposer must
        // replay — with no overrides, on fresh devices, without this
        // trainer — to exactly the recorded makespan, submission count,
        // and kernel-launch count.
        let r = train_distributed_with_opts(
            &ds(),
            4,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                topology: Topology::nvlink_islands(2),
                residency: ResidencyMode::Resident,
                comm: CommMode::BucketedOverlap { bucket_bytes: 2560 },
                record_trace: true,
                ..DistOptions::default()
            },
        )
        .unwrap();
        let trace = r.trace.expect("record_trace captures a trace");
        assert_eq!(
            trace.sim_time_ns, r.sim_time_ns,
            "trace snapshots the run's makespan"
        );
        assert_eq!(trace.kernel_launches, r.kernel_launches);
        let rep = gpu_sim::trace::replay(&trace, &gpu_sim::WhatIf::default())
            .expect("identity replay succeeds");
        assert_eq!(
            rep.sim_time_ns, trace.sim_time_ns,
            "identity replay is exact"
        );
        assert_eq!(rep.submissions, trace.submissions());
        assert_eq!(rep.kernel_launches, trace.kernel_launches);
        // And the artifact survives serialization unchanged.
        let round = TraceV1::from_json(&trace.to_json()).unwrap();
        let rep2 = gpu_sim::trace::replay(&round, &gpu_sim::WhatIf::default()).unwrap();
        assert_eq!(rep2.sim_time_ns, rep.sim_time_ns);
    }

    #[test]
    fn injected_crashes_with_retries_match_fault_free_losses() {
        // The resilience acceptance experiment: workers are killed mid-run
        // by seeded fault injection; because crashes fire before the task
        // body runs, retried epoch tasks recompute from identical state and
        // the run converges to exactly the fault-free losses.
        let d = ds();
        let clean = train_distributed(&d, 2, &cfg(), PartitionStrategy::Metis).unwrap();
        let faulty = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                fault_plan: FaultPlan::crashes(17, 0.15),
                retry: RetryPolicy::fixed(5, std::time::Duration::ZERO),
                ..DistOptions::default()
            },
        )
        .unwrap();
        assert!(
            faulty.sched_metrics.total_retries() > 0,
            "the plan must actually kill some workers"
        );
        assert_eq!(clean.epoch_stats.len(), faulty.epoch_stats.len());
        for (c, f) in clean.epoch_stats.iter().zip(&faulty.epoch_stats) {
            assert_eq!(c.loss, f.loss, "epoch {} diverged under faults", c.epoch);
        }
        assert_eq!(clean.test_accuracy, faulty.test_accuracy);
    }

    #[test]
    fn resident_training_is_bit_identical_and_moves_fewer_host_bytes() {
        // The tentpole acceptance, in miniature: keeping θ and optimizer
        // state device-resident must not change a single bit of the
        // training trajectory — only where the bytes flow.
        let d = ds();
        let naive = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                residency: ResidencyMode::Naive,
                ..DistOptions::default()
            },
        )
        .unwrap();
        let resident = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                residency: ResidencyMode::Resident,
                ..DistOptions::default()
            },
        )
        .unwrap();
        assert_eq!(naive.epoch_stats, resident.epoch_stats, "losses diverged");
        assert_eq!(naive.test_accuracy, resident.test_accuracy);
        assert_eq!(
            naive.model.get_parameters(),
            resident.model.get_parameters(),
            "trained parameters must be bit-identical"
        );
        assert_eq!(naive.residency, "naive");
        assert_eq!(resident.residency, "resident");
        // Both exchange gradient payload over the links…
        assert_eq!(naive.p2p_bytes, resident.p2p_bytes);
        // …but only the naive run round-trips θ/gradients through host RAM
        // every epoch.
        assert!(
            naive.host_link_bytes() > 3 * resident.host_link_bytes(),
            "naive {} vs resident {} host-link bytes",
            naive.host_link_bytes(),
            resident.host_link_bytes()
        );
        assert!(resident.d2h_bytes > 0, "final sync must charge one D2H");
    }

    #[test]
    fn resident_training_survives_fault_injection() {
        // Each worker steps its own replica at the start of its next task.
        // A crash fires before the task body, so its retry steps from the
        // same replica state. A dropped result runs the body, step
        // included, and is then retried: the steps-applied guard must keep
        // the retry from stepping again. So a run with crashes and drops
        // ends bit-identical to the fault-free run.
        let d = ds();
        let run = |fault_plan| {
            let opts = DistOptions {
                residency: ResidencyMode::Resident,
                comm: CommMode::BucketedOverlap { bucket_bytes: 2560 },
                fault_plan,
                retry: RetryPolicy::fixed(8, std::time::Duration::ZERO),
                ..DistOptions::default()
            };
            train_distributed_with_opts(&d, 2, &cfg(), PartitionStrategy::Metis, opts).unwrap()
        };
        // Task ids: 2 scatter tasks, then 2 per epoch, then 2 evaluations.
        // Epoch 1's first task applies epoch 0's step; worker 0's
        // evaluation applies the last epoch's step and syncs θ.
        let (epoch1, eval0) = (4, 2 + 2 * cfg().epochs as u64);
        let plan = (0..)
            .map(|seed| FaultPlan {
                seed,
                crash_rate: 0.1,
                drop_rate: 0.2,
                ..FaultPlan::none()
            })
            .find(|p| {
                let dropped = |task| p.fault_for(task, 0) == Some(FaultKind::DropResult);
                dropped(epoch1) && dropped(eval0)
            })
            .unwrap();
        let clean = run(FaultPlan::none());
        let faulty = run(plan);
        let outcomes: Vec<SpanOutcome> = faulty
            .sched_metrics
            .spans
            .iter()
            .map(|s| s.outcome)
            .collect();
        assert!(outcomes.contains(&SpanOutcome::InjectedDrop));
        assert!(outcomes.contains(&SpanOutcome::InjectedCrash));
        assert_eq!(clean.epoch_stats, faulty.epoch_stats, "losses diverged");
        assert_eq!(
            parameter_fingerprint(&clean.model),
            parameter_fingerprint(&faulty.model),
            "a replica stepped twice in one epoch"
        );
        assert_eq!(clean.test_accuracy, faulty.test_accuracy);
    }

    #[test]
    fn fused_exec_matches_serial_bitwise_with_fewer_launches() {
        // The A07 acceptance in miniature: fusion + overlap change the cost
        // model, never the arithmetic.
        let d = ds();
        let serial = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                residency: ResidencyMode::Resident,
                exec: ExecMode::PerOpSerial,
                ..DistOptions::default()
            },
        )
        .unwrap();
        let fused = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                residency: ResidencyMode::Resident,
                exec: ExecMode::FusedOverlapped,
                ..DistOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.epoch_stats, fused.epoch_stats, "losses diverged");
        assert_eq!(serial.test_accuracy, fused.test_accuracy);
        assert_eq!(
            serial.model.get_parameters(),
            fused.model.get_parameters(),
            "trained parameters must be bit-identical"
        );
        assert_eq!(serial.exec, "serial");
        assert_eq!(fused.exec, "fused");
        assert!(
            fused.kernel_launches < serial.kernel_launches,
            "fused {} vs serial {} launches",
            fused.kernel_launches,
            serial.kernel_launches
        );
        assert!(
            fused.sim_time_ns < serial.sim_time_ns,
            "fused {} vs serial {} ns",
            fused.sim_time_ns,
            serial.sim_time_ns
        );
    }

    #[test]
    fn bucketed_comm_is_bit_identical_and_overlaps() {
        // The A08 acceptance in miniature: rescheduling the gradient
        // exchange must not change a single bit of the trajectory — only
        // how much of the comm hides behind backward compute.
        let d = ds();
        for residency in [ResidencyMode::Naive, ResidencyMode::Resident] {
            let mono = train_distributed_with_opts(
                &d,
                2,
                &cfg(),
                PartitionStrategy::Metis,
                DistOptions {
                    residency,
                    comm: CommMode::Monolithic,
                    ..DistOptions::default()
                },
            )
            .unwrap();
            let bucketed = train_distributed_with_opts(
                &d,
                2,
                &cfg(),
                PartitionStrategy::Metis,
                DistOptions {
                    residency,
                    comm: CommMode::BucketedOverlap {
                        bucket_bytes: 1 << 20,
                    },
                    ..DistOptions::default()
                },
            )
            .unwrap();
            assert_eq!(mono.epoch_stats, bucketed.epoch_stats, "losses diverged");
            assert_eq!(mono.test_accuracy, bucketed.test_accuracy);
            assert_eq!(
                mono.model.get_parameters(),
                bucketed.model.get_parameters(),
                "trained parameters must be bit-identical ({residency:?})"
            );
            assert_eq!(mono.comm, "monolithic");
            assert_eq!(bucketed.comm, "bucketed");
            assert_eq!(mono.overlapped_comm_ns, 0, "monolithic comm never hides");
            assert!(mono.exposed_comm_ns > 0);
            assert!(bucketed.comm_buckets_per_epoch >= 1);
            // Never worse — and in resident mode (gradients stay on
            // device, retirement timestamps mid-backward) strictly better.
            assert!(
                bucketed.exposed_comm_ns <= mono.exposed_comm_ns,
                "{residency:?}: bucketed exposed {} vs monolithic {}",
                bucketed.exposed_comm_ns,
                mono.exposed_comm_ns
            );
            assert!(bucketed.sim_time_ns <= mono.sim_time_ns);
            if residency == ResidencyMode::Resident {
                assert!(
                    bucketed.exposed_comm_ns < mono.exposed_comm_ns,
                    "resident: bucketed exposed {} must beat monolithic {}",
                    bucketed.exposed_comm_ns,
                    mono.exposed_comm_ns
                );
                assert!(
                    bucketed.sim_time_ns < mono.sim_time_ns,
                    "resident: bucketed {} ns must beat monolithic {} ns",
                    bucketed.sim_time_ns,
                    mono.sim_time_ns
                );
                assert!(bucketed.overlapped_comm_ns > 0);
            }
        }
    }

    #[test]
    fn resident_overlap_hides_more_comm_than_naive() {
        // Naive residency drags every gradient through host RAM before the
        // exchange, clamping all retirement timestamps to the D2H — the
        // resident path keeps the mid-backward launch points.
        let d = ds();
        let run = |residency, bucket_bytes| {
            train_distributed_with_opts(
                &d,
                2,
                &cfg(),
                PartitionStrategy::Metis,
                DistOptions {
                    residency,
                    comm: CommMode::BucketedOverlap { bucket_bytes },
                    ..DistOptions::default()
                },
            )
            .unwrap()
        };
        // A 300 B cap puts the output layer's 272 gradient bytes in a
        // bucket of their own, which retires before layer 1's backward.
        let naive = run(ResidencyMode::Naive, 300);
        let resident = run(ResidencyMode::Resident, 300);
        assert_eq!(resident.comm_buckets_per_epoch, 2);
        assert!(
            resident.overlapped_comm_ns > naive.overlapped_comm_ns,
            "resident {} ns overlapped vs naive {} ns",
            resident.overlapped_comm_ns,
            naive.overlapped_comm_ns
        );
        // A 1 MiB cap holds the whole payload in one bucket, which retires
        // with the epoch's last launch in both modes: no launch point is
        // left mid-backward, so residency changes nothing about overlap.
        // What overlap remains is across epochs: `Gpu::advance_to` does not
        // lift the device floor past a comm-stream reservation, so the next
        // epoch starts under this exchange. With a floor that does, both
        // runs overlap 0 ns.
        let naive = run(ResidencyMode::Naive, 1 << 20);
        let resident = run(ResidencyMode::Resident, 1 << 20);
        assert_eq!(resident.comm_buckets_per_epoch, 1);
        assert_eq!(naive.comm_buckets_per_epoch, 1);
        assert_eq!(resident.overlapped_comm_ns, 1_453_056);
        assert_eq!(naive.overlapped_comm_ns, 1_453_056);
    }

    #[test]
    fn captured_submission_is_bit_identical_with_fewer_launches() {
        // The A09 acceptance in miniature: replaying each epoch from a
        // captured graph must not change a single bit of the training
        // trajectory — only how many submissions the device processes and
        // what share of kernel time is launch overhead.
        let d = ds();
        let run = |submit| {
            train_distributed_with_opts(
                &d,
                2,
                &cfg(),
                PartitionStrategy::Metis,
                DistOptions {
                    residency: ResidencyMode::Resident,
                    submit,
                    ..DistOptions::default()
                },
            )
            .unwrap()
        };
        let eager = run(SubmitMode::Eager);
        let captured = run(SubmitMode::Captured);
        assert_eq!(eager.epoch_stats, captured.epoch_stats, "losses diverged");
        assert_eq!(eager.test_accuracy, captured.test_accuracy);
        assert_eq!(
            eager.model.get_parameters(),
            captured.model.get_parameters(),
            "trained parameters must be bit-identical"
        );
        assert_eq!(eager.submit, "eager");
        assert_eq!(captured.submit, "captured");
        // 9 fused kernels per epoch collapse into 1 graph launch.
        assert!(
            captured.kernel_launches < eager.kernel_launches / 4,
            "captured {} vs eager {} launches",
            captured.kernel_launches,
            eager.kernel_launches
        );
        assert!(
            captured.sim_time_ns < eager.sim_time_ns,
            "captured {} vs eager {} ns",
            captured.sim_time_ns,
            eager.sim_time_ns
        );
        assert!(
            captured.bottleneck.launch_overhead_fraction
                < eager.bottleneck.launch_overhead_fraction,
            "captured overhead share {} must beat eager {}",
            captured.bottleneck.launch_overhead_fraction,
            eager.bottleneck.launch_overhead_fraction
        );
    }

    #[test]
    fn captured_submission_survives_fault_injection() {
        // Injected crashes fire before the task body, so a retried epoch
        // task re-resolves the cached graph (or captures fresh) and the
        // trajectory is unchanged.
        let d = ds();
        let clean = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                submit: SubmitMode::Captured,
                ..DistOptions::default()
            },
        )
        .unwrap();
        let faulty = train_distributed_with_opts(
            &d,
            2,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                submit: SubmitMode::Captured,
                fault_plan: FaultPlan::crashes(17, 0.15),
                retry: RetryPolicy::fixed(5, std::time::Duration::ZERO),
                ..DistOptions::default()
            },
        )
        .unwrap();
        assert!(faulty.sched_metrics.total_retries() > 0);
        for (c, f) in clean.epoch_stats.iter().zip(&faulty.epoch_stats) {
            assert_eq!(c.loss, f.loss, "epoch {} diverged under faults", c.epoch);
        }
        assert_eq!(clean.test_accuracy, faulty.test_accuracy);
    }

    #[test]
    fn hierarchical_topology_is_bit_identical_and_faster_over_the_bridge() {
        // The A10 acceptance in miniature: re-wiring the same workers into
        // NVLink islands bridged by the course's Ethernet must not change
        // a single bit of the trajectory — collectives are charge-only —
        // while the hierarchical schedule moves half its steps onto the
        // fast tier and beats the flat bridge schedule outright.
        let d = ds();
        let run = |topology| {
            train_distributed_with_opts(
                &d,
                4,
                &cfg(),
                PartitionStrategy::Metis,
                DistOptions {
                    topology,
                    residency: ResidencyMode::Resident,
                    comm: CommMode::BucketedOverlap {
                        bucket_bytes: 1 << 20,
                    },
                    ..DistOptions::default()
                },
            )
            .unwrap()
        };
        let flat = run(Topology::Flat(LinkKind::Ethernet));
        let hier = run(Topology::nvlink_islands(2));
        assert_eq!(flat.epoch_stats, hier.epoch_stats, "losses diverged");
        assert_eq!(flat.test_accuracy, hier.test_accuracy);
        assert_eq!(
            flat.model.get_parameters(),
            hier.model.get_parameters(),
            "trained parameters must be bit-identical"
        );
        assert_eq!(flat.topology, "flat");
        assert_eq!(hier.topology, "hierarchical");
        assert!(
            hier.sim_time_ns < flat.sim_time_ns,
            "hierarchical {} ns must beat flat bridge {} ns",
            hier.sim_time_ns,
            flat.sim_time_ns
        );
        assert!(hier.exposed_comm_ns <= flat.exposed_comm_ns);
        // Per-tier profiler attribution: only the hierarchical run has
        // bridge-tier events on device 0's lane.
        assert_eq!(flat.bottleneck.comm_exposed_fraction_inter, 0.0);
        assert!(hier.bottleneck.comm_exposed_fraction_intra >= 0.0);
    }

    #[test]
    fn fp16_compression_halves_wire_bytes_with_bounded_error() {
        // The compression arm: fp16 + error feedback halves the collective
        // payload (and the simulated comm time with it); the trajectory is
        // no longer bit-identical, but stays pinned to the f32 run.
        let d = ds();
        let run = |compression| {
            train_distributed_with_opts(
                &d,
                2,
                &cfg(),
                PartitionStrategy::Metis,
                DistOptions {
                    compression,
                    residency: ResidencyMode::Resident,
                    comm: CommMode::BucketedOverlap {
                        bucket_bytes: 1 << 20,
                    },
                    ..DistOptions::default()
                },
            )
            .unwrap()
        };
        let full = run(Compression::None);
        let half = run(Compression::Fp16ErrorFeedback);
        assert_eq!(full.compression, "f32");
        assert_eq!(half.compression, "fp16");
        assert!(
            half.p2p_bytes * 10 < full.p2p_bytes * 6,
            "fp16 wire bytes {} must be ~half of f32's {}",
            half.p2p_bytes,
            full.p2p_bytes
        );
        assert!(
            half.sim_time_ns < full.sim_time_ns,
            "half the payload must shorten the makespan ({} vs {})",
            half.sim_time_ns,
            full.sim_time_ns
        );
        // Bounded error, not drift: every epoch's loss tracks the f32 run
        // and the compressed run still converges to the same quality.
        for (a, b) in full.epoch_stats.iter().zip(&half.epoch_stats) {
            assert!(
                (a.loss - b.loss).abs() < 0.05,
                "epoch {} loss drifted: f32 {} vs fp16 {}",
                a.epoch,
                a.loss,
                b.loss
            );
        }
        let first = half.epoch_stats.first().unwrap().loss;
        let last = half.epoch_stats.last().unwrap().loss;
        assert!(last < 0.8 * first, "compressed run must converge");
        assert!(
            (half.test_accuracy - full.test_accuracy).abs() < 0.05,
            "accuracy {} vs {}",
            half.test_accuracy,
            full.test_accuracy
        );
    }

    #[test]
    fn k1_distributed_close_to_sequential_accuracy() {
        let d = ds();
        let seq = train_sequential(&d, &cfg());
        let dist = train_distributed(&d, 1, &cfg(), PartitionStrategy::Metis).unwrap();
        assert!(
            (dist.test_accuracy - seq.test_accuracy).abs() < 0.1,
            "k=1 {} vs sequential {}",
            dist.test_accuracy,
            seq.test_accuracy
        );
        assert_eq!(dist.edge_cut, 0.0);
    }

    #[test]
    fn every_priced_multiply_add_is_one_the_tape_performs() {
        // Priced ≡ performed over a two-epoch k = 2 run in each mode. Per
        // worker, four multiply-add tallies (spmm forward, spmm backward,
        // linear forward, linear backward) taken from recorded tape shapes
        // must equal half the FLOPs of the kernels the trace prices for
        // them, less each kernel's bias, ReLU and mask terms. Performed work
        // is `EPOCHS` × one epoch's tape plus one ÂX per worker, so an
        // aggregate charged every epoch fails the spmm-forward tally.
        const EPOCHS: usize = 2;
        let d = ds();
        let cfg = TrainConfig {
            epochs: EPOCHS,
            ..Default::default()
        };
        let parts = metis_partition(&d.graph, 2).unwrap();
        for exec in [ExecMode::PerOpSerial, ExecMode::FusedOverlapped] {
            let opts = DistOptions {
                exec,
                record_trace: true,
                ..DistOptions::default()
            };
            let r =
                train_distributed_with_opts(&d, 2, &cfg, PartitionStrategy::Metis, opts).unwrap();
            let trace = r.trace.expect("record_trace captures a trace");
            for worker in 0..2 {
                let nodes = (0..d.num_nodes()).filter(|&u| parts[u] == worker).collect();
                let input = PartitionInput::gather(&d, nodes).unwrap();
                let part = input.build(cfg.hidden);
                let x = &input.x;
                let tally = |tape: &Tape| {
                    let mut macs = [0u64; 4];
                    for work in tape.node_work() {
                        match work {
                            NodeWork::Spmm {
                                nnz,
                                cols,
                                needs_grad,
                            } => {
                                macs[0] += (nnz * cols) as u64;
                                macs[1] += u64::from(needs_grad) * (nnz * cols) as u64;
                            }
                            NodeWork::Linear {
                                m,
                                k,
                                n,
                                x_needs_grad,
                                w_needs_grad,
                            } => {
                                let mn = (m * k * n) as u64;
                                macs[2] += mn;
                                macs[3] += u64::from(x_needs_grad) * mn;
                                macs[3] += u64::from(w_needs_grad) * mn;
                            }
                            NodeWork::Other => {}
                        }
                    }
                    macs
                };
                // The one aggregation, recorded as the spmm it is.
                let agg_tape = Tape::new();
                let agg = agg_tape.spmm(Arc::clone(&part.adj), agg_tape.constant(x));
                let ax = Gcn::aggregate(&part.adj, x);
                assert_eq!(agg_tape.value(agg), ax);
                let aggregate = tally(&agg_tape);
                // One epoch's tape (shapes do not change between epochs).
                let tape = Tape::new();
                let fwd = r.model.forward(&tape, Arc::clone(&part.adj), &ax);
                let loss = tape.cross_entropy(fwd.logits, &part.labels, &part.train_mask);
                let _ = tape.backward(loss);
                let epoch = tally(&tape);
                let performed: [u64; 4] =
                    std::array::from_fn(|i| EPOCHS as u64 * epoch[i] + aggregate[i]);

                let EpochDims { n, h, c, .. } = part.dims;
                let mut priced = [0u64; 4];
                for rec in trace.records.iter().filter(|r| r.device == worker as u32) {
                    let RecordBody::Kernel { name, flops, .. } = &rec.body else {
                        continue;
                    };
                    let (tally, stated) = match name.as_str() {
                        "spmm_agg" => (0, 0),
                        "spmm_bwd" => (1, 0),
                        "sgemm" => (2, 0),
                        // bias + ReLU epilogue
                        "linear_relu" => (2, 2 * n * h),
                        // bias epilogue
                        "linear" => (2, n * c),
                        "sgemm_bwd" => (3, 0),
                        // db
                        "linear_bwd" => (3, n * c),
                        // db + ReLU mask
                        "linear_relu_bwd" => (3, 2 * n * h),
                        "bias_add" | "relu" | "bias_bwd" | "relu_bwd" | "softmax_xent" => continue,
                        other => panic!("kernel {other} is priced but not tallied"),
                    };
                    priced[tally] += (flops - stated) / 2;
                }
                assert_eq!(performed, priced, "{exec:?}, worker {worker}");
            }
        }
    }

    /// FNV-1a over the bit patterns of every trained parameter, in
    /// optimizer order.
    fn parameter_fingerprint(model: &Gcn) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in model.parameters() {
            for v in t.data() {
                h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn resident_bucketed_fused_run_matches_recorded_bits() {
        // Pinned against values recorded before the host kernels were
        // rewritten (runtime SIMD dispatch, skipped input gradients,
        // counting sparse transpose): a host-side speedup must not move a
        // single bit of the trajectory or a nanosecond of sim time. The
        // sim time was re-recorded when ÂX moved out of the epoch plan
        // and the unperformed input-gradient kernels left it (4 776 373
        // ns before), and again when power-of-two groups moved from the
        // ring to recursive halving-doubling (4 769 387 ns before); the
        // training bits did not move.
        let r = train_distributed_with_opts(
            &ds(),
            4,
            &cfg(),
            PartitionStrategy::Metis,
            DistOptions {
                residency: ResidencyMode::Resident,
                comm: CommMode::BucketedOverlap { bucket_bytes: 2560 },
                exec: ExecMode::FusedOverlapped,
                ..DistOptions::default()
            },
        )
        .unwrap();
        let final_loss = r.epoch_stats.last().unwrap().loss;
        assert_eq!(final_loss.to_bits(), 0x3c1f_b9d0, "final loss {final_loss}");
        assert_eq!(r.test_accuracy.to_bits(), 0x3fee_7627_6276_2762);
        assert_eq!(
            full_graph_test_accuracy(&r.model, &ds()).to_bits(),
            0x3fef_13b1_3b13_b13b
        );
        assert_eq!(r.sim_time_ns, 3_209_387);
        assert_eq!(parameter_fingerprint(&r.model), 0xe056_6ed8_5b61_a56a);
    }
}
