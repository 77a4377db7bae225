//! Synchronous data-parallel utilities.
//!
//! Algorithm 1 lines 11–13: workers compute local gradients, gradients are
//! aggregated, and a global optimizer updates θ. The aggregation here is a
//! weighted average — workers holding larger partitions (more training
//! nodes) contribute proportionally, which makes the distributed gradient
//! an unbiased estimate of the full-graph gradient.

use gpu_sim::{GpuCluster, ReduceHandle};
use sagegpu_tensor::dense::Tensor;

/// Averages per-worker gradients with the given non-negative weights
/// (normalized internally). Panics on empty input or mismatched layouts.
///
/// Worker lists are borrowed (`Vec<Tensor>`, `&[Tensor]`, …). Worker 0's
/// scaled gradients seed the result; every later worker adds `g·k` into it
/// in place, one pass per tensor.
pub fn weighted_average_gradients<G: AsRef<[Tensor]>>(
    per_worker: &[G],
    weights: &[f64],
) -> Vec<Tensor> {
    assert!(!per_worker.is_empty(), "no worker gradients");
    assert_eq!(per_worker.len(), weights.len(), "one weight per worker");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let first = per_worker[0].as_ref();
    let mut out: Vec<Tensor> = first
        .iter()
        .map(|g| g.scale((weights[0] / total) as f32))
        .collect();
    for (worker, w) in per_worker.iter().zip(weights).skip(1) {
        let worker = worker.as_ref();
        assert_eq!(
            worker.len(),
            first.len(),
            "parameter count mismatch across workers"
        );
        let k = (*w / total) as f32;
        for (acc, g) in out.iter_mut().zip(worker) {
            assert_eq!(acc.shape(), g.shape(), "gradient shapes match");
            for (a, &g) in acc.data_mut().iter_mut().zip(g.data()) {
                *a += g * k;
            }
        }
    }
    out
}

/// Total bytes a gradient set occupies — the all-reduce payload size used
/// by the communication-cost model.
pub fn gradient_bytes(grads: &[Tensor]) -> u64 {
    grads.iter().map(|g| g.size_bytes()).sum()
}

/// A group of parameters whose gradients are reduced in one collective —
/// the unit of comm/compute overlap in DDP-style training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradBucket {
    /// Parameter indices, in backward production order (descending index:
    /// the last layer's gradients retire first and bucket first).
    pub params: Vec<usize>,
    /// Total payload of the bucket's gradients.
    pub bytes: u64,
}

/// Groups gradients into size-capped buckets in *reverse* parameter order —
/// the order the backward pass produces them — so the first bucket fills
/// (and its all-reduce can launch) while earlier layers are still
/// back-propagating. Every bucket holds at least one parameter; a gradient
/// larger than `bucket_bytes` gets a bucket of its own.
///
/// # Panics
///
/// Panics when `bucket_bytes == 0`: a zero cap is always a configuration
/// error (it would degenerate to one bucket — one collective — per
/// parameter, the pathological schedule DDP bucketing exists to avoid), so
/// sweeps fail loudly instead of silently running it.
pub fn bucket_gradients(grads: &[Tensor], bucket_bytes: u64) -> Vec<GradBucket> {
    assert!(
        bucket_bytes > 0,
        "bucket_bytes must be positive: a zero cap degenerates to one collective per parameter"
    );
    let cap = bucket_bytes;
    let mut buckets: Vec<GradBucket> = Vec::new();
    let mut params: Vec<usize> = Vec::new();
    let mut bytes = 0u64;
    for idx in (0..grads.len()).rev() {
        let sz = grads[idx].size_bytes();
        if !params.is_empty() && bytes + sz > cap {
            buckets.push(GradBucket {
                params: std::mem::take(&mut params),
                bytes,
            });
            bytes = 0;
        }
        params.push(idx);
        bytes += sz;
    }
    if !params.is_empty() {
        buckets.push(GradBucket { params, bytes });
    }
    buckets
}

/// Merges each bucket into the one before it when, on every worker, both
/// become ready at the same instant (`ready_ns[w][p]` as in
/// [`charge_bucketed_all_reduce`]). Parameters one launch retires together
/// then travel in one collective: a second collective could start no
/// earlier and would only pay its own ring latency again.
pub fn merge_simultaneous_buckets(
    buckets: Vec<GradBucket>,
    ready_ns: &[Vec<u64>],
) -> Vec<GradBucket> {
    let ready = |b: &GradBucket| -> Vec<u64> {
        ready_ns
            .iter()
            .map(|w| b.params.iter().map(|&p| w[p]).max().unwrap_or(0))
            .collect()
    };
    let mut merged: Vec<GradBucket> = Vec::with_capacity(buckets.len());
    for b in buckets {
        match merged.last_mut() {
            Some(prev) if ready(prev) == ready(&b) => {
                prev.params.extend(b.params);
                prev.bytes += b.bytes;
            }
            _ => merged.push(b),
        }
    }
    merged
}

/// Schedule statistics of one bucketed gradient exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketedReduceStats {
    /// Number of bucket collectives launched.
    pub buckets: u64,
    /// Sum of all bucket collective durations (overlapped or not).
    pub total_comm_ns: u64,
    /// When the first bucket's collective started.
    pub comm_start_ns: u64,
    /// When the last bucket's collective completed — the point the
    /// optimizer step must wait for.
    pub comm_end_ns: u64,
}

/// Charges one chunked ring collective per bucket on the cluster's comm
/// streams. `ready_ns[w][p]` is the simulated timestamp at which worker
/// `w`'s gradient for parameter `p` retired; a bucket launches once every
/// worker has produced *all* of its parameters (and the previous bucket has
/// drained its comm channel). The bucket's wire payload is shrunk by
/// `compression` (half the bytes for fp16). Charging only — gradient
/// values are untouched; the caller quantizes them separately when
/// compression is on.
pub fn charge_bucketed_all_reduce(
    cluster: &GpuCluster,
    buckets: &[GradBucket],
    ready_ns: &[Vec<u64>],
    compression: Compression,
) -> (Vec<ReduceHandle>, BucketedReduceStats) {
    let mut handles = Vec::with_capacity(buckets.len());
    for (i, b) in buckets.iter().enumerate() {
        let per_dev: Vec<u64> = ready_ns
            .iter()
            .map(|w| b.params.iter().map(|&p| w[p]).max().unwrap_or(0))
            .collect();
        let wire_bytes = compression.payload_bytes(b.bytes);
        handles.push(cluster.all_reduce_chunked(wire_bytes, &format!("grad-bucket{i}"), &per_dev));
    }
    let stats = BucketedReduceStats {
        buckets: handles.len() as u64,
        total_comm_ns: handles.iter().map(ReduceHandle::dur_ns).sum(),
        comm_start_ns: handles.first().map(|h| h.start_ns).unwrap_or(0),
        comm_end_ns: handles.iter().map(|h| h.end_ns).max().unwrap_or(0),
    };
    (handles, stats)
}

/// Wire format of the gradient payload on the interconnect.
///
/// [`Compression::Fp16ErrorFeedback`] halves the collective's bytes by
/// quantizing each gradient to IEEE half precision before the exchange,
/// with *error feedback*: the quantization error of every step is carried
/// in a per-worker residual and added back before the next quantization,
/// so the error stays bounded instead of accumulating — the standard trick
/// that keeps compressed SGD converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Full-precision f32 payload (bit-identical training).
    #[default]
    None,
    /// fp16 payload with error-feedback accumulation (bounded error).
    Fp16ErrorFeedback,
}

impl Compression {
    /// Bytes that actually cross the links for an `bytes`-byte f32 payload.
    pub fn payload_bytes(&self, bytes: u64) -> u64 {
        match self {
            Compression::None => bytes,
            Compression::Fp16ErrorFeedback => bytes.div_ceil(2),
        }
    }

    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Compression::None => "f32",
            Compression::Fp16ErrorFeedback => "fp16",
        }
    }
}

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest even
/// (overflow saturates to ±∞, NaN stays NaN, tiny values flush through the
/// subnormal range to ±0).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN (keep NaN-ness in the top mantissa bit).
        return sign | 0x7c00 | if mant != 0 { 0x200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal half: keep 10 mantissa bits, RNE on the 13 dropped.
        let mut m = mant >> 13;
        let rem = mant & 0x1fff;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if m == 0x400 {
            m = 0;
            e += 1;
            if e >= 31 {
                return sign | 0x7c00;
            }
        }
        return sign | ((e as u16) << 10) | (m as u16);
    }
    if unbiased < -25 {
        return sign; // underflows even the subnormal range
    }
    // Subnormal half: value = round(M × 2^(unbiased+1)) units of 2^-24,
    // where M carries the implicit leading bit.
    let m_full = mant | 0x0080_0000;
    let s = (-unbiased - 1) as u32; // 14..=25
    let m = m_full >> s;
    let rem = m_full & ((1u32 << s) - 1);
    let half = 1u32 << (s - 1);
    let m = if rem > half || (rem == half && (m & 1) == 1) {
        m + 1
    } else {
        m
    };
    // A round-up to 0x400 lands exactly on the smallest normal encoding.
    sign | m as u16
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x3ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (mant << 13));
    }
    if exp == 0 {
        // ±0 and subnormals: mant × 2^-24, exact in f32.
        let v = mant as f32 * 2f32.powi(-24);
        return if sign != 0 { -v } else { v };
    }
    f32::from_bits(sign | ((exp + 127 - 15) << 23) | (mant << 13))
}

/// Round-trips a value through fp16 (what the wire carries under
/// [`Compression::Fp16ErrorFeedback`]).
pub fn f16_quantize(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Per-worker error-feedback state for compressed gradient exchange.
///
/// Each `compress` call quantizes `gradient + residual` to fp16 and keeps
/// the quantization error as the next step's residual, so no signal is
/// permanently lost — it is merely delayed.
#[derive(Debug, Default)]
pub struct GradCompressor {
    residual: Vec<Tensor>,
}

impl GradCompressor {
    /// Fresh compressor with zero residual.
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantizes `grads` to fp16 with error feedback, returning the values
    /// the wire carries (every element exactly representable in fp16).
    pub fn compress(&mut self, grads: &[Tensor]) -> Vec<Tensor> {
        if self.residual.len() != grads.len() {
            self.residual = grads
                .iter()
                .map(|g| Tensor::zeros(g.rows(), g.cols()))
                .collect();
        }
        grads
            .iter()
            .zip(self.residual.iter_mut())
            .map(|(g, r)| {
                let corrected = g.add(r).expect("residual tracks gradient shape");
                let q = corrected.map(f16_quantize);
                *r = corrected.sub(&q).expect("same shape");
                q
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_average_of_two_workers() {
        let w0 = vec![Tensor::full(2, 2, 1.0), Tensor::full(1, 2, 4.0)];
        let w1 = vec![Tensor::full(2, 2, 3.0), Tensor::full(1, 2, 0.0)];
        let avg = weighted_average_gradients(&[w0, w1], &[1.0, 1.0]);
        assert_eq!(avg[0], Tensor::full(2, 2, 2.0));
        assert_eq!(avg[1], Tensor::full(1, 2, 2.0));
    }

    #[test]
    fn weighted_average_respects_partition_sizes() {
        // Worker 0 holds 3× the training nodes of worker 1.
        let w0 = vec![Tensor::full(1, 1, 4.0)];
        let w1 = vec![Tensor::full(1, 1, 0.0)];
        let avg = weighted_average_gradients(&[w0, w1], &[3.0, 1.0]);
        assert!((avg[0].get(0, 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn single_worker_is_identity() {
        let w0 = vec![Tensor::full(2, 3, 7.0)];
        let avg = weighted_average_gradients(std::slice::from_ref(&w0), &[1.0]);
        assert_eq!(avg, w0);
    }

    #[test]
    fn average_of_k_equal_gradients_is_unchanged() {
        let g = vec![Tensor::full(4, 4, 1.5)];
        let workers: Vec<Vec<Tensor>> = (0..5).map(|_| g.clone()).collect();
        assert_eq!(weighted_average_gradients(&workers, &[1.0; 5]), g);
    }

    #[test]
    fn gradient_bytes_sums_parameter_sizes() {
        let grads = vec![Tensor::zeros(10, 10), Tensor::zeros(1, 10)];
        assert_eq!(gradient_bytes(&grads), 4 * 110);
    }

    #[test]
    fn buckets_fill_in_reverse_order_with_size_cap() {
        // Sizes (bytes): p0 = 400, p1 = 40, p2 = 200, p3 = 8.
        let grads = vec![
            Tensor::zeros(10, 10),
            Tensor::zeros(1, 10),
            Tensor::zeros(5, 10),
            Tensor::zeros(1, 2),
        ];
        let buckets = bucket_gradients(&grads, 240);
        // Reverse order: p3 (8) + p2 (200) fit; p1 (40) would overflow the
        // cap, so it starts a bucket; p0 — larger than the cap — is alone.
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].params, vec![3, 2]);
        assert_eq!(buckets[0].bytes, 208);
        assert_eq!(buckets[1].params, vec![1]);
        assert_eq!(buckets[2].params, vec![0]);
        assert_eq!(buckets[2].bytes, 400);
        // A huge cap collapses everything into one bucket.
        let one = bucket_gradients(&grads, u64::MAX);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].params, vec![3, 2, 1, 0]);
        assert_eq!(one[0].bytes, gradient_bytes(&grads));
    }

    #[test]
    fn buckets_retiring_together_merge() {
        // Same sizes as above: buckets [3, 2], [1], [0] under a 240 B cap.
        let grads = vec![
            Tensor::zeros(10, 10),
            Tensor::zeros(1, 10),
            Tensor::zeros(5, 10),
            Tensor::zeros(1, 2),
        ];
        let buckets = bucket_gradients(&grads, 240);
        // p0 and p1 retire at one launch on both workers: one collective.
        let together = vec![vec![30, 30, 10, 10], vec![35, 35, 12, 11]];
        let merged = merge_simultaneous_buckets(buckets.clone(), &together);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], buckets[0]);
        assert_eq!(merged[1].params, vec![1, 0]);
        assert_eq!(merged[1].bytes, 440);
        // Worker 1 retires p1 earlier: both launch points stay.
        let apart = vec![vec![30, 30, 10, 10], vec![35, 33, 12, 11]];
        assert_eq!(merge_simultaneous_buckets(buckets.clone(), &apart), buckets);
    }

    #[test]
    fn small_bucket_cap_splits_the_collective() {
        use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
        let cluster = GpuCluster::homogeneous(3, DeviceSpec::t4(), LinkKind::Pcie);
        let grads = vec![
            Tensor::full(4, 4, 0.3),
            Tensor::full(1, 4, 1.7),
            Tensor::full(4, 2, 0.9),
        ];
        let buckets = bucket_gradients(&grads, 32);
        let ready = vec![vec![0u64; 3]; 3];
        let (handles, stats) =
            charge_bucketed_all_reduce(&cluster, &buckets, &ready, Compression::None);
        assert!(handles.len() > 1, "cap of 32 B must split the parameters");
        assert_eq!(stats.buckets, handles.len() as u64);
        assert!(stats.total_comm_ns > 0);
    }

    #[test]
    fn buckets_launch_as_gradients_retire() {
        use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
        let cluster = GpuCluster::homogeneous(2, DeviceSpec::t4(), LinkKind::NvLink);
        let grads = vec![Tensor::zeros(8, 8), Tensor::zeros(8, 8)];
        let buckets = bucket_gradients(&grads, 256); // one bucket per param
        assert_eq!(buckets.len(), 2);
        // Param 1 (last layer) retires at 10 µs, param 0 at 100 µs.
        let ready = vec![vec![100_000u64, 10_000], vec![100_000, 10_000]];
        let (handles, stats) =
            charge_bucketed_all_reduce(&cluster, &buckets, &ready, Compression::None);
        assert_eq!(handles[0].start_ns, 10_000, "bucket 0 launches early");
        assert!(
            handles[0].end_ns < 100_000,
            "bucket 0 fully overlaps the rest of backward"
        );
        assert_eq!(handles[1].start_ns, 100_000);
        assert_eq!(stats.comm_end_ns, handles[1].end_ns);
        assert_eq!(
            stats.total_comm_ns,
            handles[0].dur_ns() + handles[1].dur_ns()
        );
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn mismatched_layouts_panic() {
        let w0 = vec![Tensor::zeros(1, 1)];
        let w1 = vec![Tensor::zeros(1, 1), Tensor::zeros(1, 1)];
        weighted_average_gradients(&[w0, w1], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "no worker gradients")]
    fn empty_input_panics() {
        weighted_average_gradients::<Vec<Tensor>>(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "bucket_bytes must be positive")]
    fn zero_bucket_cap_panics_instead_of_degenerating() {
        // A zero cap used to clamp to 1 byte and silently run one
        // collective per parameter; it is now a loud configuration error.
        bucket_gradients(&[Tensor::zeros(2, 2)], 0);
    }

    #[test]
    fn f16_conversion_hits_known_encodings() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff, "largest finite half");
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00, "overflow saturates to inf");
        assert_eq!(
            f32_to_f16_bits(2f32.powi(-24)),
            0x0001,
            "smallest subnormal"
        );
        assert_eq!(f32_to_f16_bits(1e-10), 0x0000, "underflow flushes to zero");
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        for x in [0.0f32, 1.0, -2.0, 65504.0, 0.099976, 2f32.powi(-24)] {
            let q = f16_quantize(x);
            assert_eq!(f16_quantize(q), q, "quantization is idempotent at {x}");
        }
    }

    #[test]
    fn f16_quantize_error_is_half_ulp_bounded() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x: f32 = rng.gen_range(-1_000.0f32..1_000.0);
            let q = f16_quantize(x);
            if x.abs() >= 2f32.powi(-14) {
                // Normal range: RNE gives a half-ulp bound, 2^-11 relative.
                assert!(
                    (q - x).abs() <= x.abs() * 2f32.powi(-11),
                    "|{q} - {x}| exceeds half-ulp bound"
                );
            } else {
                // Subnormal range: absolute error under the subnormal step.
                assert!((q - x).abs() <= 2f32.powi(-24));
            }
        }
    }

    #[test]
    fn error_feedback_residual_does_not_accumulate() {
        // Quantizing a constant, non-representable gradient T times: with
        // error feedback the summed wire values track the summed true
        // gradient to within ONE quantization error, independent of T —
        // without it the bias would grow linearly.
        let g = 1e-3f32; // not exactly representable in fp16
        let grads = vec![Tensor::full(3, 3, g)];
        let mut comp = GradCompressor::new();
        let t = 64;
        let mut acc = 0f64;
        for _ in 0..t {
            let q = comp.compress(&grads);
            acc += q[0].get(0, 0) as f64;
        }
        let truth = g as f64 * t as f64;
        let one_q_err = (g as f64) * 2f64.powi(-11);
        assert!(
            (acc - truth).abs() <= one_q_err * 1.0001,
            "drift {} exceeds one quantization error {}",
            (acc - truth).abs(),
            one_q_err
        );
        // Plain re-quantization (no feedback) really does drift more.
        let naive = f16_quantize(g) as f64 * t as f64;
        assert!((naive - truth).abs() > (acc - truth).abs());
    }

    #[test]
    fn compression_halves_collective_payload() {
        assert_eq!(Compression::None.payload_bytes(1000), 1000);
        assert_eq!(Compression::Fp16ErrorFeedback.payload_bytes(1000), 500);
        assert_eq!(Compression::Fp16ErrorFeedback.payload_bytes(1001), 501);
        assert_eq!(Compression::default(), Compression::None);
        // The charging path uses the compressed wire size: the same bucket
        // schedule finishes strictly earlier with half the payload.
        use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
        let grads = vec![Tensor::zeros(64, 64)];
        let buckets = bucket_gradients(&grads, 1 << 20);
        let ready = vec![vec![0u64; 1]; 2];
        let full = GpuCluster::homogeneous(2, DeviceSpec::t4(), LinkKind::Ethernet);
        let (_, fs) = charge_bucketed_all_reduce(&full, &buckets, &ready, Compression::None);
        let half = GpuCluster::homogeneous(2, DeviceSpec::t4(), LinkKind::Ethernet);
        let (_, hs) =
            charge_bucketed_all_reduce(&half, &buckets, &ready, Compression::Fp16ErrorFeedback);
        assert!(
            hs.total_comm_ns < fs.total_comm_ns,
            "fp16 wire {} ns must beat f32 {} ns",
            hs.total_comm_ns,
            fs.total_comm_ns
        );
    }

    #[test]
    fn compressed_average_error_is_bounded_by_quantization() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let per_worker: Vec<Vec<Tensor>> = (0..4)
            .map(|_| vec![Tensor::randn(8, 8, &mut rng)])
            .collect();
        let weights = vec![1.0; 4];
        let exact = weighted_average_gradients(&per_worker, &weights);
        let compressed: Vec<Vec<Tensor>> = per_worker
            .iter()
            .map(|g| GradCompressor::new().compress(g))
            .collect();
        let approx = weighted_average_gradients(&compressed, &weights);
        for (e, a) in exact.iter().zip(&approx) {
            for (x, y) in e.data().iter().zip(a.data()) {
                // Each worker's wire value is within half an fp16 ulp of
                // its gradient; the convex combination preserves the bound.
                assert!((x - y).abs() <= x.abs().max(4.0) * 2f32.powi(-11));
            }
        }
    }
}
