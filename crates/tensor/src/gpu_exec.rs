//! Tensor operations routed through the GPU simulator.
//!
//! A [`GpuExecutor`] wraps an `Arc<gpu_sim::Gpu>` and exposes the same
//! operations as the host tensor API. Each call performs the real
//! arithmetic (so results are bit-identical to the CPU path) while the
//! simulator charges roofline time and appends kernel events — exactly what
//! the course's profiling labs need to observe: matmuls that get
//! compute-bound as they grow, elementwise ops stuck at the bandwidth roof,
//! and sparse aggregations crippled by random access.
//!
//! ## Placement and residency
//!
//! Every op accepts `impl Into<`[`TensorRef`]`>`, so operands may be host
//! tensors (`&Tensor`) or device-resident handles (`&DeviceTensor`):
//!
//! - a **host** operand is a residency *miss*: the executor stages it
//!   through the device [`MemoryPool`] and charges the H2D transfer, like a
//!   framework implicitly copying a NumPy array to the GPU;
//! - a **device** operand is a residency *hit*: it is used in place, free;
//! - outputs are born device-resident (allocation costs no simulated time,
//!   as `cudaMalloc` from a warm caching allocator) and only cross back to
//!   the host through an explicit [`GpuExecutor::download`] sync point.
//!
//! Hit/miss counts and host-link bytes accumulate in a shared
//! [`ResidencyStats`], which the profiler folds into its bottleneck
//! classification.

use crate::dense::Tensor;
use crate::residency::{csr_size_bytes, DeviceTensor, TensorRef};
use crate::sparse::CsrMatrix;
use crate::TensorError;
use gpu_sim::pool::{MemoryPool, ResidencySnapshot, ResidencyStats};
use gpu_sim::{Gpu, GpuError, Graph, KernelProfile, LaunchConfig, LaunchSpec, StreamId};
use std::sync::{Arc, Mutex};

/// Queries per chunk in [`GpuExecutor::score_rows_batch`]'s two-stream
/// pipeline — small enough to keep both streams busy, large enough to
/// amortize launch overhead.
const SCORE_CHUNK: usize = 8;

/// The dot-product scoring arithmetic shared by every scoring path —
/// [`GpuExecutor::score_rows`], the batched kernel bodies, and the
/// graph-captured scorer all call this exact function, which is what makes
/// their results bit-identical.
fn dot_scores(mat: &Tensor, query: &[f32]) -> Vec<f32> {
    let (rows, _) = mat.shape();
    (0..rows)
        .map(|r| {
            mat.row(r)
                .iter()
                .zip(query)
                .map(|(a, b)| a * b)
                .sum::<f32>()
        })
        .collect()
}

/// Launch geometry and byte traffic for one chunk of `q` queries against a
/// `rows × cols` matrix — shared by the eager and captured batch scorers so
/// both charge the identical command sequence.
fn score_chunk_plan(rows: usize, cols: usize, q: usize) -> (LaunchConfig, KernelProfile, u64, u64) {
    let cfg = LaunchConfig::for_elements((rows * q) as u64, 256);
    let profile = KernelProfile {
        flops: (2 * rows * cols * q) as u64,
        bytes: 4 * (rows * cols + q * cols + q * rows) as u64,
        access: gpu_sim::AccessPattern::Coalesced,
        registers_per_thread: 32,
    };
    let query_bytes = (4 * q * cols) as u64;
    let score_bytes = (4 * q * rows) as u64;
    (cfg, profile, query_bytes, score_bytes)
}

/// A captured batch-scoring graph plus the (rows, cols, num queries)
/// shape it was recorded for — stale entries are recaptured.
type ScoreGraphCache = Option<(usize, usize, usize, Graph)>;

/// A tensor-op executor bound to one simulated GPU.
///
/// Clones share the same memory pool and residency counters.
#[derive(Clone)]
pub struct GpuExecutor {
    gpu: Arc<Gpu>,
    pool: MemoryPool,
    residency: Arc<ResidencyStats>,
    /// Lazily created stream pair for double-buffered batch scoring.
    pipeline: Arc<Mutex<Option<(StreamId, StreamId)>>>,
    /// Captured batch-scoring graph — invalidated on shape change.
    score_graph: Arc<Mutex<ScoreGraphCache>>,
}

impl GpuExecutor {
    /// Wraps a device, creating a fresh memory pool for it.
    pub fn new(gpu: Arc<Gpu>) -> Self {
        let pool = MemoryPool::new(&gpu);
        Self {
            gpu,
            pool,
            residency: Arc::new(ResidencyStats::new()),
            pipeline: Arc::new(Mutex::new(None)),
            score_graph: Arc::new(Mutex::new(None)),
        }
    }

    /// The underlying device.
    pub fn gpu(&self) -> &Arc<Gpu> {
        &self.gpu
    }

    /// The device memory pool backing this executor's allocations.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Shared residency counters (hits, misses, host-link bytes).
    pub fn residency(&self) -> &Arc<ResidencyStats> {
        &self.residency
    }

    /// Point-in-time copy of the residency counters.
    pub fn residency_snapshot(&self) -> ResidencySnapshot {
        self.residency.snapshot()
    }

    /// Starts recording every command this executor's device submits into
    /// a portable [`gpu_sim::TraceV1`] (see `gpu_sim::trace`). Returns the
    /// live sink; call [`Self::finish_trace`] to detach and snapshot it.
    pub fn record_trace(&self) -> gpu_sim::TraceSink {
        self.gpu.record_trace()
    }

    /// Stops recording and returns the finished trace artifact, or `None`
    /// when [`Self::record_trace`] was never called.
    pub fn finish_trace(&self, workload: &str) -> Option<gpu_sim::TraceV1> {
        self.gpu.finish_trace(workload)
    }

    /// Moves a host tensor onto the device, charging one H2D transfer.
    pub fn upload(&self, t: &Tensor) -> Result<DeviceTensor, TensorError> {
        let bytes = t.size_bytes();
        let lease = self.gpu.htod_pooled(&self.pool, bytes)?;
        self.residency.add_h2d(bytes);
        Ok(DeviceTensor::new(t.clone(), lease))
    }

    /// Reads a device tensor back to the host, charging exactly one D2H
    /// transfer. The tensor stays resident — downloading does not evict.
    pub fn download(&self, t: &DeviceTensor) -> Result<Tensor, TensorError> {
        self.expect_local(t.device())?;
        self.gpu.dtoh_pooled(t.lease())?;
        self.residency.add_d2h(t.size_bytes());
        Ok(t.tensor().clone())
    }

    fn expect_local(&self, device: u32) -> Result<(), TensorError> {
        if device != self.gpu.ordinal() {
            return Err(GpuError::WrongDevice {
                expected: device,
                actual: self.gpu.ordinal(),
            }
            .into());
        }
        Ok(())
    }

    /// Resolves an operand for a kernel: device-resident tensors are hits
    /// (used in place), host tensors are misses (staged through the pool,
    /// charging the H2D transfer). The returned lease keeps staged scratch
    /// alive for the duration of the op.
    fn stage<'a>(
        &self,
        r: TensorRef<'a>,
    ) -> Result<(&'a Tensor, Option<gpu_sim::pool::PoolLease>), TensorError> {
        match r {
            TensorRef::Host(t) => {
                self.residency.record_miss();
                let bytes = t.size_bytes();
                let lease = self.gpu.htod_pooled(&self.pool, bytes)?;
                self.residency.add_h2d(bytes);
                Ok((t, Some(lease)))
            }
            TensorRef::Device(dt) => {
                self.expect_local(dt.device())?;
                self.residency.record_hit();
                Ok((dt.tensor(), None))
            }
        }
    }

    /// [`Self::stage`] for a sparse operand, which is always on the host:
    /// a residency miss and one H2D transfer.
    fn stage_csr(&self, m: &CsrMatrix) -> Result<gpu_sim::pool::PoolLease, TensorError> {
        self.residency.record_miss();
        let bytes = csr_size_bytes(m);
        let lease = self.gpu.htod_pooled(&self.pool, bytes)?;
        self.residency.add_h2d(bytes);
        Ok(lease)
    }

    /// Wraps a freshly computed kernel output as device-resident.
    fn make_resident(&self, t: Tensor) -> Result<DeviceTensor, TensorError> {
        let lease = self.pool.lease(t.size_bytes())?;
        Ok(DeviceTensor::new(t, lease))
    }

    /// Registers a tensor whose values are produced *on the device* (e.g.
    /// zero-initialized optimizer state) as resident without charging a
    /// transfer — the moral equivalent of `cudaMalloc` plus an on-device
    /// memset. Do not use this to smuggle host data onto the device; that
    /// is what [`Self::upload`] (which charges the H2D) is for.
    pub fn alloc_on_device(&self, t: Tensor) -> Result<DeviceTensor, TensorError> {
        self.make_resident(t)
    }

    /// Dense matmul on the device (tiled-kernel cost model).
    pub fn matmul<'a, 'b>(
        &self,
        a: impl Into<TensorRef<'a>>,
        b: impl Into<TensorRef<'b>>,
    ) -> Result<DeviceTensor, TensorError> {
        let (a, _ga) = self.stage(a.into())?;
        let (b, _gb) = self.stage(b.into())?;
        let (m, k) = a.shape();
        let n = b.cols();
        let cfg = LaunchConfig::for_matrix(m as u64, n as u64, 16);
        let profile = KernelProfile::matmul(m as u64, k as u64, n as u64);
        let out = LaunchSpec::new("sgemm", cfg, profile).run(&self.gpu, || a.matmul(b))??;
        self.make_resident(out)
    }

    /// Elementwise sum on the device.
    pub fn add<'a, 'b>(
        &self,
        a: impl Into<TensorRef<'a>>,
        b: impl Into<TensorRef<'b>>,
    ) -> Result<DeviceTensor, TensorError> {
        let (a, _ga) = self.stage(a.into())?;
        let (b, _gb) = self.stage(b.into())?;
        let n = a.len() as u64;
        let cfg = LaunchConfig::for_elements(n, 256);
        let profile = KernelProfile::elementwise(n, 1, 12);
        let out = LaunchSpec::new("vec_add", cfg, profile).run(&self.gpu, || a.add(b))??;
        self.make_resident(out)
    }

    /// ReLU on the device.
    pub fn relu<'a>(&self, a: impl Into<TensorRef<'a>>) -> Result<DeviceTensor, TensorError> {
        let (a, _g) = self.stage(a.into())?;
        let n = a.len() as u64;
        let cfg = LaunchConfig::for_elements(n, 256);
        let profile = KernelProfile::elementwise(n, 1, 8);
        let out = LaunchSpec::new("relu", cfg, profile).run(&self.gpu, || a.relu())?;
        self.make_resident(out)
    }

    /// Scalar multiply on the device.
    pub fn scale<'a>(
        &self,
        a: impl Into<TensorRef<'a>>,
        kf: f32,
    ) -> Result<DeviceTensor, TensorError> {
        let (a, _g) = self.stage(a.into())?;
        let n = a.len() as u64;
        let cfg = LaunchConfig::for_elements(n, 256);
        let profile = KernelProfile::elementwise(n, 1, 8);
        let out = LaunchSpec::new("scale", cfg, profile).run(&self.gpu, || a.scale(kf))?;
        self.make_resident(out)
    }

    /// Row softmax on the device.
    pub fn softmax_rows<'a>(
        &self,
        a: impl Into<TensorRef<'a>>,
    ) -> Result<DeviceTensor, TensorError> {
        let (a, _g) = self.stage(a.into())?;
        let n = a.len() as u64;
        let cfg = LaunchConfig::for_elements(n, 256);
        let profile = KernelProfile::elementwise(n, 4, 8);
        let out = LaunchSpec::new("softmax", cfg, profile).run(&self.gpu, || a.softmax_rows())?;
        self.make_resident(out)
    }

    /// Fused linear layer `X·W + b`: the bias add runs in the sgemm
    /// epilogue, so the `m×n` product never round-trips through global
    /// memory and only one launch overhead and one output allocation are
    /// charged (vs. two of each on the unfused path). Host arithmetic is
    /// the exact composition of `matmul` and `add_row_broadcast`, so the
    /// values are bit-identical to the serial ops.
    pub fn linear<'a, 'b, 'c>(
        &self,
        x: impl Into<TensorRef<'a>>,
        w: impl Into<TensorRef<'b>>,
        b: impl Into<TensorRef<'c>>,
    ) -> Result<DeviceTensor, TensorError> {
        let (x, _gx) = self.stage(x.into())?;
        let (w, _gw) = self.stage(w.into())?;
        let (b, _gb) = self.stage(b.into())?;
        let (m, k) = x.shape();
        let n = w.cols();
        let cfg = LaunchConfig::for_matrix(m as u64, n as u64, 16);
        let profile = KernelProfile::fused_linear(m as u64, k as u64, n as u64);
        let out = LaunchSpec::new("linear", cfg, profile)
            .run(&self.gpu, || x.matmul(w)?.add_row_broadcast(b))??;
        self.make_resident(out)
    }

    /// [`Self::linear`] with a ReLU epilogue as well: `relu(X·W + b)` in a
    /// single launch instead of three.
    pub fn linear_relu<'a, 'b, 'c>(
        &self,
        x: impl Into<TensorRef<'a>>,
        w: impl Into<TensorRef<'b>>,
        b: impl Into<TensorRef<'c>>,
    ) -> Result<DeviceTensor, TensorError> {
        let (x, _gx) = self.stage(x.into())?;
        let (w, _gw) = self.stage(w.into())?;
        let (b, _gb) = self.stage(b.into())?;
        let (m, k) = x.shape();
        let n = w.cols();
        let cfg = LaunchConfig::for_matrix(m as u64, n as u64, 16);
        let profile = KernelProfile::fused_linear_relu(m as u64, k as u64, n as u64);
        let out = LaunchSpec::new("linear_relu", cfg, profile).run(&self.gpu, || {
            Ok::<_, TensorError>(x.matmul(w)?.add_row_broadcast(b)?.relu())
        })??;
        self.make_resident(out)
    }

    /// Fused sparse aggregation + ReLU: the epilogue applies in registers
    /// before the store, charging one launch and allocating once.
    pub fn spmm_relu<'b>(
        &self,
        a: &CsrMatrix,
        x: impl Into<TensorRef<'b>>,
    ) -> Result<DeviceTensor, TensorError> {
        let _ga = self.stage_csr(a)?;
        let (x, _gx) = self.stage(x.into())?;
        let nnz = a.nnz() as u64;
        let d = x.cols() as u64;
        let (rows, _) = a.shape();
        let cfg = LaunchConfig::for_elements(rows as u64, 128);
        let profile = KernelProfile::spmm_relu(nnz.max(1), d.max(1), rows as u64);
        let out = LaunchSpec::new("spmm_relu", cfg, profile)
            .run(&self.gpu, || a.spmm(x).map(|t| t.relu()))??;
        self.make_resident(out)
    }

    /// Fused scale + row softmax (`softmax(k·X)`, the attention-score
    /// idiom): one read and one write instead of two of each.
    pub fn scale_softmax<'a>(
        &self,
        a: impl Into<TensorRef<'a>>,
        kf: f32,
    ) -> Result<DeviceTensor, TensorError> {
        let (a, _g) = self.stage(a.into())?;
        let n = a.len() as u64;
        let cfg = LaunchConfig::for_elements(n, 256);
        let profile = KernelProfile::scale_softmax(n);
        let out = LaunchSpec::new("scale_softmax", cfg, profile)
            .run(&self.gpu, || a.scale(kf).softmax_rows())?;
        self.make_resident(out)
    }

    /// Sparse-dense product (GCN aggregation) on the device: random access,
    /// so the cost model uses the gather profile.
    pub fn spmm<'b>(
        &self,
        a: &CsrMatrix,
        x: impl Into<TensorRef<'b>>,
    ) -> Result<DeviceTensor, TensorError> {
        let _ga = self.stage_csr(a)?;
        let (x, _gx) = self.stage(x.into())?;
        let nnz = a.nnz() as u64;
        let d = x.cols() as u64;
        let (rows, _) = a.shape();
        let cfg = LaunchConfig::for_elements(rows as u64, 128);
        let profile = KernelProfile::sparse_aggregate(nnz.max(1), d.max(1));
        let out =
            LaunchSpec::new("spmm_aggregate", cfg, profile).run(&self.gpu, || a.spmm(x))??;
        self.make_resident(out)
    }

    /// Dot-product scoring of a query against an embedding matrix — the
    /// retrieval kernel of the RAG pipeline (matrix-vector product). The
    /// query vector and the score vector always cross the host link (they
    /// are request/response payloads); the matrix transfers only on miss.
    pub fn score_rows<'a>(
        &self,
        mat: impl Into<TensorRef<'a>>,
        query: &[f32],
    ) -> Result<Vec<f32>, TensorError> {
        let (mat, _g) = self.stage(mat.into())?;
        let (rows, cols) = mat.shape();
        if cols != query.len() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("query of length {cols}"),
                got: format!("{}", query.len()),
            });
        }
        let query_bytes = (4 * query.len()) as u64;
        let _q = self.gpu.htod_pooled(&self.pool, query_bytes)?;
        self.residency.add_h2d(query_bytes);
        let cfg = LaunchConfig::for_elements(rows as u64, 256);
        let profile = KernelProfile {
            flops: 2 * (rows * cols) as u64,
            bytes: 4 * (rows * cols + rows + cols) as u64,
            access: gpu_sim::AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        let scores: Vec<f32> =
            LaunchSpec::new("dot_score", cfg, profile).run(&self.gpu, || dot_scores(mat, query))?;
        let score_lease = self.pool.lease((4 * scores.len()) as u64)?;
        self.gpu.dtoh_pooled(&score_lease)?;
        self.residency.add_d2h(score_lease.bytes());
        Ok(scores)
    }

    /// The lazily created two-stream pair used by the batch scorer.
    fn pipeline_streams(&self) -> (StreamId, StreamId) {
        let mut guard = self.pipeline.lock().expect("pipeline lock");
        *guard.get_or_insert_with(|| (self.gpu.create_stream(), self.gpu.create_stream()))
    }

    /// Batched, double-buffered [`Self::score_rows`]: queries are chunked
    /// and alternated across two streams so the H2D upload of chunk `k+1`
    /// overlaps the `dot_score` kernel of chunk `k`, and each chunk's
    /// kernel scores all of its queries in one launch (the matrix is read
    /// once per chunk instead of once per query). Per-row arithmetic is the
    /// identical dot-product expression, so scores are bit-identical to
    /// calling [`Self::score_rows`] per query.
    pub fn score_rows_batch<'a>(
        &self,
        mat: impl Into<TensorRef<'a>>,
        queries: &[Vec<f32>],
    ) -> Result<Vec<Vec<f32>>, TensorError> {
        let (mat, _g) = self.stage(mat.into())?;
        let (rows, cols) = mat.shape();
        for q in queries {
            if q.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    expected: format!("query of length {cols}"),
                    got: format!("{}", q.len()),
                });
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (s1, s2) = self.pipeline_streams();
        // Both pipeline streams must observe the (possibly just staged)
        // matrix before touching it.
        let staged = self.gpu.record_event(StreamId::DEFAULT);
        self.gpu.stream_wait(s1, &staged);
        self.gpu.stream_wait(s2, &staged);
        let mut out = Vec::with_capacity(queries.len());
        for (i, chunk) in queries.chunks(SCORE_CHUNK).enumerate() {
            let s = if i % 2 == 0 { s1 } else { s2 };
            let q = chunk.len();
            let (cfg, profile, query_bytes, score_bytes) = score_chunk_plan(rows, cols, q);
            let _q_lease = self.gpu.htod_pooled_on(s, &self.pool, query_bytes)?;
            self.residency.add_h2d(query_bytes);
            let scores: Vec<Vec<f32>> = LaunchSpec::new("dot_score_batch", cfg, profile)
                .on(s)
                .run(&self.gpu, || {
                    chunk.iter().map(|query| dot_scores(mat, query)).collect()
                })?;
            let score_lease = self.pool.lease(score_bytes)?;
            self.gpu.dtoh_pooled_on(s, &score_lease)?;
            self.residency.add_d2h(score_bytes);
            out.extend(scores);
        }
        self.gpu.sync_streams();
        Ok(out)
    }

    /// Graph-captured [`Self::score_rows_batch`]: the first call with a
    /// given (matrix shape × batch size) captures the full two-stream
    /// command DAG — staging-event edges, per-chunk uploads, scoring
    /// kernels, score read-backs — and every subsequent call replays it for
    /// one launch overhead instead of one per chunk. Scores come from the
    /// same `dot_scores` arithmetic as the eager path, so the outputs
    /// are bit-identical; only the submission cost differs.
    pub fn score_rows_batch_captured<'a>(
        &self,
        mat: impl Into<TensorRef<'a>>,
        queries: &[Vec<f32>],
    ) -> Result<Vec<Vec<f32>>, TensorError> {
        let (mat, _g) = self.stage(mat.into())?;
        let (rows, cols) = mat.shape();
        for q in queries {
            if q.len() != cols {
                return Err(TensorError::ShapeMismatch {
                    expected: format!("query of length {cols}"),
                    got: format!("{}", q.len()),
                });
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (s1, s2) = self.pipeline_streams();
        {
            let mut cache = self.score_graph.lock().expect("score graph lock");
            let stale = !matches!(
                &*cache,
                Some((r, c, n, _)) if *r == rows && *c == cols && *n == queries.len()
            );
            if stale {
                let graph = self.capture_score_graph(rows, cols, queries.len(), s1, s2)?;
                *cache = Some((rows, cols, queries.len(), graph));
            }
            let (_, _, _, graph) = cache.as_ref().expect("just filled");
            graph.replay(&self.gpu)?;
        }
        self.gpu.sync_streams();
        // The replay charged the simulated traffic; the residency ledger
        // still counts this call's host-link bytes.
        for chunk in queries.chunks(SCORE_CHUNK) {
            let (_, _, query_bytes, score_bytes) = score_chunk_plan(rows, cols, chunk.len());
            self.residency.add_h2d(query_bytes);
            self.residency.add_d2h(score_bytes);
        }
        Ok(queries.iter().map(|query| dot_scores(mat, query)).collect())
    }

    /// Records the batch-scoring DAG for `n_queries` against a
    /// `rows × cols` matrix: the exact command sequence the eager scorer
    /// submits, with no-op kernel bodies (capture charges nothing; the
    /// host arithmetic runs per call, outside the graph).
    fn capture_score_graph(
        &self,
        rows: usize,
        cols: usize,
        n_queries: usize,
        s1: StreamId,
        s2: StreamId,
    ) -> Result<Graph, TensorError> {
        self.gpu.begin_capture("dot_score_batch")?;
        let emit = || -> Result<(), TensorError> {
            let staged = self.gpu.record_event(StreamId::DEFAULT);
            self.gpu.stream_wait(s1, &staged);
            self.gpu.stream_wait(s2, &staged);
            let mut remaining = n_queries;
            let mut i = 0usize;
            while remaining > 0 {
                let q = remaining.min(SCORE_CHUNK);
                let s = if i.is_multiple_of(2) { s1 } else { s2 };
                let (cfg, profile, query_bytes, score_bytes) = score_chunk_plan(rows, cols, q);
                let _q_lease = self.gpu.htod_pooled_on(s, &self.pool, query_bytes)?;
                LaunchSpec::new("dot_score_batch", cfg, profile)
                    .on(s)
                    .run(&self.gpu, || ())?;
                let score_lease = self.pool.lease(score_bytes)?;
                self.gpu.dtoh_pooled_on(s, &score_lease)?;
                remaining -= q;
                i += 1;
            }
            Ok(())
        };
        match emit() {
            Ok(()) => Ok(self.gpu.end_capture()?),
            Err(e) => {
                // A pool OOM mid-capture must not leave the device stuck in
                // capture mode.
                self.gpu.abort_capture();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residency::Placement;
    use gpu_sim::{DeviceSpec, EventKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn exec() -> GpuExecutor {
        GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())))
    }

    #[test]
    fn gpu_matmul_matches_cpu_and_charges_time() {
        let e = exec();
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Tensor::randn(16, 8, &mut rng);
        let b = Tensor::randn(8, 12, &mut rng);
        let t0 = e.gpu().now_ns();
        let got = e.matmul(&a, &b).unwrap();
        assert!(e.gpu().now_ns() > t0);
        assert_eq!(got.tensor(), &a.matmul(&b).unwrap());
        assert_eq!(got.placement(), Placement::Device(0));
    }

    #[test]
    fn bigger_matmul_takes_longer() {
        let e = exec();
        let mut rng = SmallRng::seed_from_u64(2);
        let small_a = Tensor::randn(32, 32, &mut rng);
        let small_b = Tensor::randn(32, 32, &mut rng);
        let t0 = e.gpu().now_ns();
        e.matmul(&small_a, &small_b).unwrap();
        let small_dt = e.gpu().now_ns() - t0;

        let big_a = Tensor::randn(512, 512, &mut rng);
        let big_b = Tensor::randn(512, 512, &mut rng);
        let t1 = e.gpu().now_ns();
        e.matmul(&big_a, &big_b).unwrap();
        let big_dt = e.gpu().now_ns() - t1;
        assert!(big_dt > small_dt, "{big_dt} vs {small_dt}");
    }

    #[test]
    fn spmm_result_matches_host_path() {
        let e = exec();
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0)]).unwrap();
        let x = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        assert_eq!(e.spmm(&m, &x).unwrap().tensor(), &m.spmm(&x).unwrap());
    }

    #[test]
    fn events_appear_with_kernel_names() {
        let e = exec();
        let a = Tensor::ones(8, 8);
        e.add(&a, &a).unwrap();
        e.relu(&a).unwrap();
        e.softmax_rows(&a).unwrap();
        let names: Vec<String> = e
            .gpu()
            .recorder()
            .snapshot()
            .iter()
            .map(|ev| ev.name.clone())
            .collect();
        assert!(names.contains(&"vec_add".to_owned()));
        assert!(names.contains(&"relu".to_owned()));
        assert!(names.contains(&"softmax".to_owned()));
    }

    #[test]
    fn score_rows_computes_dot_products() {
        let e = exec();
        let mat = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let scores = e.score_rows(&mat, &[2.0, 3.0]).unwrap();
        assert_eq!(scores, vec![2.0, 3.0, 5.0]);
        assert!(e.score_rows(&mat, &[1.0]).is_err());
    }

    #[test]
    fn upload_download_charge_transfers() {
        let e = exec();
        let t = Tensor::ones(64, 64);
        let before = e.gpu().recorder().len();
        let dev = e.upload(&t).unwrap();
        let back = e.download(&dev).unwrap();
        assert_eq!(back, t);
        let evs = e.gpu().recorder().snapshot();
        assert!(evs.len() > before);
        assert!(evs.iter().any(|ev| ev.kind == EventKind::MemcpyH2D));
        assert!(evs.iter().any(|ev| ev.kind == EventKind::MemcpyD2H));
    }

    /// Regression: `download` used to charge an H2D transfer (and then a
    /// D2H) for a read-back — double-charging in the wrong direction. It
    /// must cost exactly one D2H event of the tensor's byte size.
    #[test]
    fn download_charges_exactly_one_d2h_of_right_size() {
        let e = exec();
        let t = Tensor::ones(64, 64);
        let dev = e.upload(&t).unwrap();
        let before = e.gpu().recorder().len();
        e.download(&dev).unwrap();
        let evs: Vec<_> = e.gpu().recorder().snapshot().split_off(before);
        assert_eq!(evs.len(), 1, "download must emit exactly one event");
        assert_eq!(evs[0].kind, EventKind::MemcpyD2H);
        assert_eq!(evs[0].bytes, t.size_bytes());
    }

    #[test]
    fn device_operands_hit_and_charge_no_transfer() {
        let e = exec();
        let a = Tensor::ones(16, 16);
        let da = e.upload(&a).unwrap();
        let transfers_before = e
            .gpu()
            .recorder()
            .snapshot()
            .iter()
            .filter(|ev| ev.kind.is_transfer())
            .count();
        let out = e.matmul(&da, &da).unwrap();
        let transfers_after = e
            .gpu()
            .recorder()
            .snapshot()
            .iter()
            .filter(|ev| ev.kind.is_transfer())
            .count();
        assert_eq!(
            transfers_before, transfers_after,
            "resident operands must not charge transfers"
        );
        let snap = e.residency_snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 0);
        assert_eq!(out.device(), 0);
    }

    #[test]
    fn host_operands_miss_and_charge_h2d() {
        let e = exec();
        let a = Tensor::ones(16, 16);
        e.matmul(&a, &a).unwrap();
        let snap = e.residency_snapshot();
        assert_eq!(snap.misses, 2);
        assert_eq!(snap.hits, 0);
        assert_eq!(snap.h2d_bytes, 2 * a.size_bytes());
        let h2d_events = e
            .gpu()
            .recorder()
            .snapshot()
            .iter()
            .filter(|ev| ev.kind == EventKind::MemcpyH2D)
            .count();
        assert_eq!(h2d_events, 2);
    }

    #[test]
    fn outputs_stay_resident_and_chain_for_free() {
        let e = exec();
        let a = Tensor::ones(8, 8);
        let da = e.upload(&a).unwrap();
        let h1 = e.matmul(&da, &da).unwrap();
        let h2 = e.relu(&h1).unwrap();
        let h3 = e.matmul(&h2, &da).unwrap();
        let snap = e.residency_snapshot();
        assert_eq!(snap.misses, 0);
        assert_eq!(snap.hits, 5);
        assert_eq!(snap.h2d_bytes, a.size_bytes(), "only the explicit upload");
        assert!(e.pool().is_resident(h3.id()));
        let id = h1.id();
        drop(h1);
        assert!(!e.pool().is_resident(id));
    }

    #[test]
    fn cross_device_tensor_rejected() {
        let e0 = exec();
        let e1 = GpuExecutor::new(Arc::new(Gpu::new(1, DeviceSpec::t4())));
        let t = Tensor::ones(4, 4);
        let d0 = e0.upload(&t).unwrap();
        assert!(e1.matmul(&d0, &t).is_err());
        assert!(e1.download(&d0).is_err());
    }

    #[test]
    fn scale_matches_host() {
        let e = exec();
        let t = Tensor::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(e.scale(&t, 3.0).unwrap().tensor(), &t.scale(3.0));
    }

    #[test]
    fn fused_linear_is_bit_identical_to_serial_ops_with_one_launch() {
        let mut rng = SmallRng::seed_from_u64(11);
        let x = Tensor::randn(24, 16, &mut rng);
        let w = Tensor::randn(16, 8, &mut rng);
        let b = Tensor::randn(1, 8, &mut rng);
        let serial_value = x.matmul(&w).unwrap().add_row_broadcast(&b).unwrap().relu();

        let e = exec();
        let fused = e.linear_relu(&x, &w, &b).unwrap();
        assert_eq!(
            fused.tensor(),
            &serial_value,
            "fusion must not change values"
        );
        assert_eq!(e.gpu().kernels_launched(), 1, "one launch for the chain");

        let plain = exec();
        let lin = plain.linear(&x, &w, &b).unwrap();
        assert_eq!(
            lin.tensor(),
            &x.matmul(&w).unwrap().add_row_broadcast(&b).unwrap()
        );
        assert_eq!(plain.gpu().kernels_launched(), 1);
    }

    #[test]
    fn fused_linear_is_cheaper_than_serial_chain() {
        let mut rng = SmallRng::seed_from_u64(12);
        let x = Tensor::randn(256, 64, &mut rng);
        let w = Tensor::randn(64, 32, &mut rng);
        let b = Tensor::randn(1, 32, &mut rng);
        // Broadcast the bias to full shape so the serial chain can use the
        // elementwise add (the unfused bias-add launch).
        let bias_full = Tensor::zeros(256, 32).add_row_broadcast(&b).unwrap();
        let serial_ns = {
            let e = exec();
            let dx = e.upload(&x).unwrap();
            let dw = e.upload(&w).unwrap();
            let dbias = e.upload(&bias_full).unwrap();
            let t0 = e.gpu().now_ns();
            let m = e.matmul(&dx, &dw).unwrap();
            let s = e.add(&m, &dbias).unwrap();
            let _ = e.relu(&s).unwrap();
            e.gpu().now_ns() - t0
        };
        let fused_ns = {
            let e = exec();
            let dx = e.upload(&x).unwrap();
            let dw = e.upload(&w).unwrap();
            let db = e.upload(&b).unwrap();
            let t0 = e.gpu().now_ns();
            let _ = e.linear_relu(&dx, &dw, &db).unwrap();
            e.gpu().now_ns() - t0
        };
        assert!(fused_ns < serial_ns, "{fused_ns} vs {serial_ns}");
    }

    #[test]
    fn spmm_relu_matches_host_composition() {
        let e = exec();
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, -2.0), (1, 2, 1.0), (2, 0, 3.0)]).unwrap();
        let x = Tensor::from_rows(&[&[1.0, -1.0], &[2.0, -2.0], &[3.0, -3.0]]);
        let fused = e.spmm_relu(&m, &x).unwrap();
        assert_eq!(fused.tensor(), &m.spmm(&x).unwrap().relu());
        assert_eq!(e.gpu().kernels_launched(), 1);
    }

    #[test]
    fn scale_softmax_matches_host_composition() {
        let e = exec();
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]);
        let fused = e.scale_softmax(&t, 0.5).unwrap();
        assert_eq!(fused.tensor(), &t.scale(0.5).softmax_rows());
        assert_eq!(e.gpu().kernels_launched(), 1);
    }

    #[test]
    fn score_rows_batch_matches_serial_scores_bitwise() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mat = Tensor::randn(40, 24, &mut rng);
        let queries: Vec<Vec<f32>> = (0..20)
            .map(|_| Tensor::randn(1, 24, &mut rng).data().to_vec())
            .collect();
        let serial = {
            let e = exec();
            let dm = e.upload(&mat).unwrap();
            queries
                .iter()
                .map(|q| e.score_rows(&dm, q).unwrap())
                .collect::<Vec<_>>()
        };
        let e = exec();
        let dm = e.upload(&mat).unwrap();
        let batch = e.score_rows_batch(&dm, &queries).unwrap();
        assert_eq!(batch, serial);
        // 20 queries in chunks of 8 → 3 launches instead of 20.
        assert_eq!(e.gpu().kernels_launched(), 3);
        assert!(e.score_rows_batch(&dm, &[vec![0.0; 5]]).is_err());
        assert!(e.score_rows_batch(&dm, &[]).unwrap().is_empty());
    }

    #[test]
    fn score_rows_batch_overlaps_copies_with_compute() {
        let mut rng = SmallRng::seed_from_u64(14);
        let mat = Tensor::randn(512, 256, &mut rng);
        let queries: Vec<Vec<f32>> = (0..32)
            .map(|_| Tensor::randn(1, 256, &mut rng).data().to_vec())
            .collect();
        let serial_ns = {
            let e = exec();
            let dm = e.upload(&mat).unwrap();
            for q in &queries {
                e.score_rows(&dm, q).unwrap();
            }
            e.gpu().now_ns()
        };
        let batch_ns = {
            let e = exec();
            let dm = e.upload(&mat).unwrap();
            e.score_rows_batch(&dm, &queries).unwrap();
            e.gpu().now_ns()
        };
        assert!(
            batch_ns < serial_ns,
            "batched+overlapped {batch_ns} must beat serial {serial_ns}"
        );
    }

    #[test]
    fn score_rows_batch_captured_is_bit_identical_and_cheaper_to_submit() {
        let mut rng = SmallRng::seed_from_u64(15);
        let mat = Tensor::randn(64, 32, &mut rng);
        let queries: Vec<Vec<f32>> = (0..20)
            .map(|_| Tensor::randn(1, 32, &mut rng).data().to_vec())
            .collect();

        let eager = {
            let e = exec();
            let dm = e.upload(&mat).unwrap();
            e.score_rows_batch(&dm, &queries).unwrap()
        };
        let e = exec();
        let dm = e.upload(&mat).unwrap();
        let first = e.score_rows_batch_captured(&dm, &queries).unwrap();
        assert_eq!(first, eager, "captured scores must match eager bitwise");
        // The capture itself replays once: a single graph-launch submission
        // instead of 3 chunk kernels.
        assert_eq!(e.gpu().kernels_launched(), 1);
        let again = e.score_rows_batch_captured(&dm, &queries).unwrap();
        assert_eq!(again, eager);
        assert_eq!(e.gpu().kernels_launched(), 2, "one launch per replay");
        assert!(!e.gpu().is_capturing(), "capture never leaks");
    }

    #[test]
    fn score_rows_batch_captured_recaptures_on_shape_change() {
        let mut rng = SmallRng::seed_from_u64(16);
        let mat = Tensor::randn(32, 16, &mut rng);
        let wide: Vec<Vec<f32>> = (0..12)
            .map(|_| Tensor::randn(1, 16, &mut rng).data().to_vec())
            .collect();
        let narrow = wide[..3].to_vec();

        let e = exec();
        let dm = e.upload(&mat).unwrap();
        let a = e.score_rows_batch_captured(&dm, &wide).unwrap();
        let b = e.score_rows_batch_captured(&dm, &narrow).unwrap();
        assert_eq!(a[..3], b[..], "shrunk batch scores the same prefixes");
        // Eager reference for the narrow batch.
        let eager = {
            let f = exec();
            let fm = f.upload(&mat).unwrap();
            f.score_rows_batch(&fm, &narrow).unwrap()
        };
        assert_eq!(b, eager);
        // A bad query length is a typed error, not a stuck capture.
        assert!(e.score_rows_batch_captured(&dm, &[vec![0.0; 5]]).is_err());
        assert!(!e.gpu().is_capturing());
        assert!(e.score_rows_batch_captured(&dm, &[]).unwrap().is_empty());
    }
}
