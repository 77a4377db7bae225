//! Per-phase kernel charging for one GCN training epoch.
//!
//! Training arithmetic runs on the host (the tape autograd is real); the
//! simulator only *prices* it. Earlier revisions priced a whole epoch as a
//! single mega-kernel, which made launch overhead invisible and left
//! nothing for fusion to save. This module charges an epoch as the kernel
//! sequence a real implementation would issue, in two flavors:
//!
//! * [`ExecMode::PerOpSerial`] — every logical op is its own launch
//!   (sgemm, then bias add, then ReLU, …): 14 launches per epoch.
//! * [`ExecMode::FusedOverlapped`] — the bias and ReLU epilogues ride the
//!   sgemm launches ([`KernelProfile::fused_linear_relu`]) and each
//!   layer's backward collapses into one launch: dX/dW/db for layer 2
//!   ([`KernelProfile::fused_linear_bwd`]), dW/db and the ReLU mask for
//!   layer 1 ([`KernelProfile::fused_linear_relu_param_bwd`]): 7 launches
//!   per epoch.
//!
//! Each plan prices exactly the kernels the tape performs. Layer 1 reads
//! the aggregate `ÂX`, which is fixed for the whole run: the trainers
//! compute it once per worker and charge it once with [`charge_aggregate`],
//! so no epoch charges a layer-1 aggregation. `ÂX` is a tape constant, so
//! no epoch charges its input gradient (layer 1's `dX` or a trailing
//! `Âᵀ·∂` over the feature width) either. Backward ends with layer 1's
//! parameter gradients; layer 1's backward is the window in which the
//! layer-2 gradient bucket's all-reduce hides.
//!
//! Both plans charge the *same* sparse-aggregation and softmax/cross-entropy
//! launches with the same access patterns, so the fused plan's advantage is
//! exactly what fusion buys on hardware: fewer launch overheads and no
//! intermediate round-trips through global memory for the dense epilogues.
//! The model arithmetic is identical in both modes — only the cost model
//! changes — so losses and accuracies are bit-for-bit equal.

use gpu_sim::{
    CmdEvent, Command, Gpu, GpuError, Graph, KernelCommand, KernelPricing, KernelProfile,
    LaunchConfig, LaunchSpec, StreamId,
};

/// Number of trainable parameters of the two-layer GCN, in the order
/// [`sagegpu_nn::layers::Gcn::get_parameters`] lists them: `[W1, b1, W2, b2]`.
pub const GCN_PARAM_COUNT: usize = 4;

/// How an epoch's kernel work is priced (and, in the distributed trainer,
/// whether uploads overlap compute across streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One launch per logical op, everything on the default stream.
    PerOpSerial,
    /// Fused epilogues + copy/compute overlap where the trainer supports it.
    FusedOverlapped,
}

impl ExecMode {
    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::PerOpSerial => "serial",
            ExecMode::FusedOverlapped => "fused",
        }
    }
}

/// How epoch commands reach the device — the A09 ablation knob. Both modes
/// charge the same kernels with the same durations; they differ only in
/// submission cost: eager pays one launch overhead per kernel, captured
/// pays one per epoch (the graph launch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// Every kernel submitted and retired individually (per-launch
    /// overhead), as [`charge_epoch_tracked`] does.
    Eager,
    /// The epoch's command DAG is captured once ([`capture_epoch`]) and
    /// replayed per epoch ([`EpochGraph::charge`]).
    Captured,
}

impl SubmitMode {
    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            SubmitMode::Eager => "eager",
            SubmitMode::Captured => "captured",
        }
    }
}

/// The shapes that determine an epoch's kernel sequence: `n` nodes, `nnz`
/// adjacency non-zeros, input width `d`, hidden width `h`, `c` classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochDims {
    pub n: u64,
    pub nnz: u64,
    pub d: u64,
    pub h: u64,
    pub c: u64,
}

impl EpochDims {
    fn sanitized(&self) -> EpochDims {
        EpochDims {
            n: self.n.max(1),
            nnz: self.nnz.max(1),
            d: self.d.max(1),
            h: self.h.max(1),
            c: self.c.max(1),
        }
    }

    /// The launch sequence an epoch charges under `mode`.
    fn launch_plan(&self, mode: ExecMode) -> Vec<(&'static str, LaunchConfig, KernelProfile)> {
        let EpochDims { n, nnz, d, h, c } = self.sanitized();
        let rows = |m: u64| LaunchConfig::for_elements(m, 128);
        let elems = |m: u64| LaunchConfig::for_elements(m, 256);
        let tile = |r: u64, cc: u64| LaunchConfig::for_matrix(r, cc, 16);
        // Shared by both plans: the gather-heavy sparse aggregations and the
        // softmax/cross-entropy head are charged identically, so the modes
        // differ only in how the dense linear work is packaged.
        let softmax = (
            "softmax_xent",
            rows(n),
            KernelProfile::elementwise(n * c, 6, 12),
        );
        match mode {
            ExecMode::PerOpSerial => vec![
                // Forward, layer 1 over the precomputed ÂX: sgemm, bias,
                // ReLU.
                ("sgemm", tile(n, h), KernelProfile::matmul(n, d, h)),
                (
                    "bias_add",
                    elems(n * h),
                    KernelProfile::elementwise(n * h, 1, 12),
                ),
                (
                    "relu",
                    elems(n * h),
                    KernelProfile::elementwise(n * h, 1, 8),
                ),
                // Forward, layer 2: aggregate, sgemm, bias.
                ("spmm_agg", rows(n), KernelProfile::sparse_aggregate(nnz, h)),
                ("sgemm", tile(n, c), KernelProfile::matmul(n, h, c)),
                (
                    "bias_add",
                    elems(n * c),
                    KernelProfile::elementwise(n * c, 1, 12),
                ),
                softmax,
                // Backward, layer 2: db, dX, dW, then back through Â.
                ("bias_bwd", elems(n * c), KernelProfile::reduction(n * c)),
                ("sgemm_bwd", tile(n, h), KernelProfile::matmul(n, c, h)),
                ("sgemm_bwd", tile(h, c), KernelProfile::matmul(h, n, c)),
                ("spmm_bwd", rows(n), KernelProfile::sparse_aggregate(nnz, h)),
                // Backward, layer 1: ReLU mask, db, dW. ÂX is a constant,
                // so no dX follows.
                (
                    "relu_bwd",
                    elems(n * h),
                    KernelProfile::elementwise(n * h, 1, 12),
                ),
                ("bias_bwd", elems(n * h), KernelProfile::reduction(n * h)),
                ("sgemm_bwd", tile(d, h), KernelProfile::matmul(d, n, h)),
            ],
            ExecMode::FusedOverlapped => vec![
                (
                    "linear_relu",
                    tile(n, h),
                    KernelProfile::fused_linear_relu(n, d, h),
                ),
                ("spmm_agg", rows(n), KernelProfile::sparse_aggregate(nnz, h)),
                ("linear", tile(n, c), KernelProfile::fused_linear(n, h, c)),
                softmax,
                (
                    "linear_bwd",
                    tile(n, c),
                    KernelProfile::fused_linear_bwd(n, h, c, false),
                ),
                ("spmm_bwd", rows(n), KernelProfile::sparse_aggregate(nnz, h)),
                (
                    "linear_relu_bwd",
                    tile(n, h),
                    KernelProfile::fused_linear_relu_param_bwd(n, d, h),
                ),
            ],
        }
    }

    /// Number of kernel launches one epoch charges under `mode`.
    pub fn launch_count(&self, mode: ExecMode) -> usize {
        self.launch_plan(mode).len()
    }
}

/// Runs `body`, the host computation of layer 1's aggregate `ÂX`, and
/// charges it as one `spmm_agg(nnz, d)` launch on `stream`. `ÂX` does not
/// change from epoch to epoch, so a trainer calls this once per worker,
/// after the feature upload on the same stream, and every epoch plan reads
/// the result.
pub fn charge_aggregate<T>(
    gpu: &Gpu,
    stream: StreamId,
    dims: EpochDims,
    body: impl FnOnce() -> T,
) -> T {
    let EpochDims { n, nnz, d, .. } = dims.sanitized();
    LaunchSpec::new(
        "spmm_agg",
        LaunchConfig::for_elements(n, 128),
        KernelProfile::sparse_aggregate(nnz, d),
    )
    .on(stream)
    .run(gpu, body)
    .expect("the aggregate launch is valid")
}

/// Which launch of the plan *retires* each parameter gradient: pairs of
/// `(launch index, parameter indices)`. Parameter indices follow
/// [`sagegpu_nn::layers::Gcn::get_parameters`] order (`[W1, b1, W2, b2]`); launch
/// indices follow `launch_plan(mode)`. Backward runs last layer first, so
/// high-indexed parameters retire first — the property DDP-style bucketing
/// exploits to overlap their all-reduce with the rest of backward.
fn grad_ready_marks(mode: ExecMode) -> &'static [(usize, &'static [usize])] {
    match mode {
        // Serial: db2 at `bias_bwd` (7), dW2 at the second `sgemm_bwd` (9),
        // db1 at `bias_bwd` (12), dW1 at the last `sgemm_bwd` (13).
        ExecMode::PerOpSerial => &[(7, &[3]), (9, &[2]), (12, &[1]), (13, &[0])],
        // Fused: `linear_bwd` (4) emits {dW2, db2}; `linear_relu_bwd` (6),
        // the last launch, emits {dW1, db1}. The layer-2 bucket's overlap
        // window is layer 1's backward: `spmm_bwd` (5) and (6).
        ExecMode::FusedOverlapped => &[(4, &[2, 3]), (6, &[0, 1])],
    }
}

/// Emits one epoch's command stream onto the default stream — every kernel
/// of the plan, with an `EventRecord` after each gradient-retiring launch —
/// running `body` (the real forward/backward/step arithmetic) at the first
/// kernel's submission. Nothing is charged here: the caller rings the
/// doorbell once (eager), or the whole batch lands in an in-flight capture.
/// Returns the body's value and the recorded events with the parameter
/// indices each one retires.
fn emit_epoch<T>(
    gpu: &Gpu,
    mode: ExecMode,
    dims: EpochDims,
    body: impl FnOnce() -> T,
) -> (T, Vec<(CmdEvent, &'static [usize])>) {
    let marks = grad_ready_marks(mode);
    let mut body = Some(body);
    let mut out = None;
    let mut records = Vec::new();
    for (i, (name, cfg, profile)) in dims.launch_plan(mode).into_iter().enumerate() {
        let (dur, occ) = gpu
            .kernel_duration_ns(&cfg, &profile)
            .expect("epoch launch is valid");
        if let Some(b) = body.take() {
            out = Some(b());
        }
        gpu.submit(
            StreamId::DEFAULT,
            Command::Kernel(KernelCommand {
                name: name.to_owned(),
                dur_ns: dur,
                bytes: profile.bytes,
                flops: profile.flops,
                occupancy: occ.occupancy,
                graph: false,
                pricing: Some(KernelPricing { cfg, profile }),
            }),
        );
        if let Some((_, params)) = marks.iter().find(|(idx, _)| *idx == i) {
            let ev = gpu.create_cmd_event();
            gpu.submit(StreamId::DEFAULT, Command::EventRecord { event: ev });
            records.push((ev, *params));
        }
    }
    (out.expect("launch plan is never empty"), records)
}

/// Charges one epoch's kernel sequence to `gpu` and runs `body` (the real
/// forward/backward/step arithmetic) at the first kernel's submission. The
/// remaining launches of the plan are cost-only — the work they price
/// already happened in `body`, which keeps the host arithmetic independent
/// of the plan. The whole epoch is submitted as one command batch and
/// retired by a single doorbell.
pub fn charge_epoch<T>(gpu: &Gpu, mode: ExecMode, dims: EpochDims, body: impl FnOnce() -> T) -> T {
    charge_epoch_tracked(gpu, mode, dims, body).0
}

/// Like [`charge_epoch`], but also records *when each parameter gradient
/// retired* on the simulated timeline: the returned vector has
/// [`GCN_PARAM_COUNT`] entries, `ready[p]` being the timestamp the command
/// processor resolved for the `EventRecord` after the launch that produced
/// gradient `p` (see `grad_ready_marks`). These timestamps are what lets a
/// bucketed all-reduce launch each bucket mid-backward instead of after the
/// epoch.
pub fn charge_epoch_tracked<T>(
    gpu: &Gpu,
    mode: ExecMode,
    dims: EpochDims,
    body: impl FnOnce() -> T,
) -> (T, Vec<u64>) {
    let (out, records) = emit_epoch(gpu, mode, dims, body);
    gpu.doorbell().expect("a single-stream epoch never stalls");
    let mut ready = vec![0u64; GCN_PARAM_COUNT];
    for (ev, params) in records {
        let t = gpu
            .cmd_event_ns(ev)
            .expect("every epoch record retires at the doorbell");
        for &p in params {
            ready[p] = t;
        }
    }
    (out, ready)
}

/// One GCN epoch captured as a command graph: [`capture_epoch`] records the
/// full kernel DAG (with its gradient-retirement `EventRecord`s) once, and
/// [`EpochGraph::charge`] replays it per epoch — one launch overhead for
/// the whole plan instead of one per kernel, with the gradient-readiness
/// timestamps still resolved per replay.
pub struct EpochGraph {
    graph: Graph,
    /// Parameter indices retired by each captured `EventRecord`, in capture
    /// (= replay event) order.
    marks: Vec<&'static [usize]>,
}

/// Records `mode`'s epoch plan for `dims` as a replayable graph. Charges
/// nothing: capture diverts the submissions, and the kernel bodies are
/// no-ops (the real arithmetic runs per epoch, in [`EpochGraph::charge`]'s
/// `body`).
pub fn capture_epoch(gpu: &Gpu, mode: ExecMode, dims: EpochDims) -> Result<EpochGraph, GpuError> {
    gpu.begin_capture(match mode {
        ExecMode::PerOpSerial => "gcn-epoch/serial",
        ExecMode::FusedOverlapped => "gcn-epoch/fused",
    })?;
    let (_, records) = emit_epoch(gpu, mode, dims, || ());
    let graph = gpu.end_capture()?;
    Ok(EpochGraph {
        graph,
        marks: records.into_iter().map(|(_, params)| params).collect(),
    })
}

impl EpochGraph {
    /// Runs `body` (the real epoch arithmetic) and replays the captured
    /// command DAG to charge it, returning the body's value and the
    /// per-parameter gradient-retirement timestamps — the same contract as
    /// [`charge_epoch_tracked`], at amortized near-zero submission cost.
    pub fn charge<T>(&self, gpu: &Gpu, body: impl FnOnce() -> T) -> (T, Vec<u64>) {
        let out = body();
        let replay = self
            .graph
            .replay(gpu)
            .expect("a captured epoch replays on its own device");
        let mut ready = vec![0u64; GCN_PARAM_COUNT];
        for (i, params) in self.marks.iter().enumerate() {
            let t = replay
                .event_ns(i)
                .expect("every captured record resolves on replay");
            for &p in *params {
                ready[p] = t;
            }
        }
        (out, ready)
    }

    /// Number of captured commands (kernels + event records).
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the graph is empty (never true for a captured epoch).
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn dims() -> EpochDims {
        EpochDims {
            n: 120,
            nnz: 900,
            d: 16,
            h: 32,
            c: 3,
        }
    }

    #[test]
    fn fused_plan_launches_fewer_kernels() {
        assert_eq!(dims().launch_count(ExecMode::PerOpSerial), 14);
        assert_eq!(dims().launch_count(ExecMode::FusedOverlapped), 7);
    }

    #[test]
    fn charge_epoch_runs_body_once_and_returns_its_value() {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let mut calls = 0;
        let out = charge_epoch(&gpu, ExecMode::FusedOverlapped, dims(), || {
            calls += 1;
            41 + calls
        });
        assert_eq!(out, 42);
        assert_eq!(calls, 1);
        assert_eq!(gpu.kernels_launched(), 7);
    }

    #[test]
    fn fused_epoch_is_strictly_cheaper_than_serial() {
        let serial = Gpu::new(0, DeviceSpec::t4());
        let fused = Gpu::new(1, DeviceSpec::t4());
        charge_epoch(&serial, ExecMode::PerOpSerial, dims(), || ());
        charge_epoch(&fused, ExecMode::FusedOverlapped, dims(), || ());
        assert_eq!(serial.kernels_launched(), 14);
        assert_eq!(fused.kernels_launched(), 7);
        assert!(
            fused.now_ns() < serial.now_ns(),
            "fused {} ns must beat serial {} ns",
            fused.now_ns(),
            serial.now_ns()
        );
        // The gap is at least the seven saved launch overheads.
        let saved = serial.now_ns() - fused.now_ns();
        assert!(saved as f64 >= 7.0 * DeviceSpec::t4().launch_overhead_ns);
    }

    #[test]
    fn tracked_epoch_reports_grad_retirement_in_reverse_layer_order() {
        for mode in [ExecMode::PerOpSerial, ExecMode::FusedOverlapped] {
            let gpu = Gpu::new(0, DeviceSpec::t4());
            let (out, ready) = charge_epoch_tracked(&gpu, mode, dims(), || 7);
            assert_eq!(out, 7);
            assert_eq!(ready.len(), GCN_PARAM_COUNT);
            assert!(ready.iter().all(|&t| t > 0), "every gradient retires");
            // Layer-2 gradients (W2 = 2, b2 = 3) retire before layer-1's.
            assert!(ready[3] <= ready[2] || mode == ExecMode::FusedOverlapped);
            assert!(ready[2] < ready[0], "dW2 retires before dW1 ({mode:?})");
            assert!(ready[1] <= ready[0]);
            // dW1 retires with the epoch's last launch: the input is the
            // constant ÂX, so no input-gradient kernel follows it. Bucketed
            // comm overlaps layer 1's backward instead.
            let last = ready.iter().copied().max().unwrap();
            assert_eq!(last, ready[0], "dW1 retires last ({mode:?})");
            assert_eq!(
                last,
                gpu.now_ns(),
                "grads ready at {last}, epoch ends at {} ({mode:?})",
                gpu.now_ns()
            );
        }
    }

    #[test]
    fn tracked_epoch_charges_the_same_timeline_as_untracked() {
        let plain = Gpu::new(0, DeviceSpec::t4());
        let tracked = Gpu::new(1, DeviceSpec::t4());
        charge_epoch(&plain, ExecMode::FusedOverlapped, dims(), || ());
        let _ = charge_epoch_tracked(&tracked, ExecMode::FusedOverlapped, dims(), || ());
        assert_eq!(plain.now_ns(), tracked.now_ns(), "tracking is free");
        assert_eq!(plain.kernels_launched(), tracked.kernels_launched());
    }

    #[test]
    fn captured_epoch_saves_per_kernel_overheads_and_keeps_marks() {
        for mode in [ExecMode::PerOpSerial, ExecMode::FusedOverlapped] {
            let eager = Gpu::new(0, DeviceSpec::t4());
            let (_, eager_ready) = charge_epoch_tracked(&eager, mode, dims(), || ());

            let captured = Gpu::new(1, DeviceSpec::t4());
            let graph = capture_epoch(&captured, mode, dims()).unwrap();
            assert_eq!(captured.now_ns(), 0, "capture charges nothing");
            assert_eq!(captured.kernels_launched(), 0);
            let (out, ready) = graph.charge(&captured, || 7);
            assert_eq!(out, 7);
            // Replay pays ONE launch overhead for the whole plan; eager
            // pays one per kernel.
            let k = dims().launch_count(mode) as u64;
            let oh = DeviceSpec::t4().launch_overhead_ns as u64;
            assert_eq!(eager.now_ns() - captured.now_ns(), (k - 1) * oh);
            assert_eq!(captured.kernels_launched(), 1, "one graph launch");
            // Gradient readiness keeps the same retirement ORDER (the
            // bucketing contract), just on the cheaper timeline.
            let order = |r: &[u64]| {
                let mut idx: Vec<usize> = (0..r.len()).collect();
                idx.sort_by_key(|&p| r[p]);
                idx
            };
            assert_eq!(order(&ready), order(&eager_ready), "{mode:?}");
            assert!(ready.iter().all(|&t| t > 0));
        }
    }

    #[test]
    fn replaying_n_epochs_matches_n_eager_epochs_minus_overheads() {
        let dims = dims();
        let mode = ExecMode::FusedOverlapped;
        let eager = Gpu::new(0, DeviceSpec::t4());
        for _ in 0..5 {
            charge_epoch(&eager, mode, dims, || ());
        }
        let captured = Gpu::new(1, DeviceSpec::t4());
        let graph = capture_epoch(&captured, mode, dims).unwrap();
        let mut sum = 0u64;
        for i in 0..5u64 {
            let (v, _) = graph.charge(&captured, || i);
            sum += v;
        }
        assert_eq!(sum, 10, "body runs per replay");
        let k = dims.launch_count(mode) as u64;
        let oh = DeviceSpec::t4().launch_overhead_ns as u64;
        assert_eq!(eager.now_ns() - captured.now_ns(), 5 * (k - 1) * oh);
        assert_eq!(captured.kernels_launched(), 5);
    }

    #[test]
    fn zero_sized_partitions_still_charge_a_valid_plan() {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let empty = EpochDims {
            n: 0,
            nnz: 0,
            d: 0,
            h: 0,
            c: 0,
        };
        let out = charge_epoch(&gpu, ExecMode::PerOpSerial, empty, || "ok");
        assert_eq!(out, "ok");
        assert_eq!(gpu.kernels_launched(), 14);
        assert_eq!(charge_aggregate(&gpu, StreamId::DEFAULT, empty, || 1), 1);
        assert_eq!(gpu.kernels_launched(), 15);
    }
}
