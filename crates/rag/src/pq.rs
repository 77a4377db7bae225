//! Product quantization: compressed vector codes + asymmetric distance.
//!
//! A [`PqCodebook`] splits the embedding into `m` subspaces and trains a
//! `ksub = 2^nbits` centroid codebook per subspace (k-means), so a
//! full-precision `dim × f32` vector compresses to `m` one-byte codes —
//! the FAISS `IndexIVFPQ` layout that lets a corpus ~100× larger than
//! device memory stay resident. Queries are *not* quantized: search
//! builds an asymmetric-distance-computation (ADC) table of
//! `m × ksub` partial inner products once per query, then scores each
//! coded vector with `m` table lookups instead of `dim` multiplies.
//!
//! [`crate::index::IvfIndex`] stores its lists under
//! [`crate::index::Codec::Pq`] this way. Codes quantize the coarse
//! *residual* `v − centroid[list]` (the FAISS `IndexIVFPQ` design):
//! residuals are small and tightly clustered, so the shared codebook
//! resolves fine within-list structure, and a row scores as
//! `query·centroid + adc(residual codes)` with the first term reused from
//! the probe stage for free.

use crate::error::IndexError;
use crate::lloyd::{lloyd, seeds, LloydRun};
use crate::panel::{Metric, Panels};
use gpu_sim::{AccessPattern, KernelProfile, LaunchConfig, LaunchSpec};
use rayon::prelude::*;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::TensorError;

/// Product-quantization layout: `m` subquantizers of `nbits` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqConfig {
    /// Number of subquantizers; must divide the embedding dimension.
    pub m: usize,
    /// Bits per code; `1..=8` so a code fits one byte.
    pub nbits: u32,
}

impl PqConfig {
    pub fn new(m: usize, nbits: u32) -> Self {
        Self { m, nbits }
    }

    /// Codebook entries per subspace.
    pub fn ksub(&self) -> usize {
        1usize << self.nbits
    }

    /// Checks the layout against an embedding dimension.
    pub fn validate(&self, dim: usize) -> Result<(), IndexError> {
        let fail = |reason: &'static str| IndexError::BadPqConfig {
            dim,
            m: self.m,
            nbits: self.nbits,
            reason,
        };
        if self.m == 0 {
            return Err(fail("m must be at least 1"));
        }
        if dim == 0 || !dim.is_multiple_of(self.m) {
            return Err(fail("m must divide dim"));
        }
        if self.nbits == 0 || self.nbits > 8 {
            return Err(fail("nbits must be in 1..=8"));
        }
        Ok(())
    }
}

/// Trained per-subspace centroids.
#[derive(Debug, Clone)]
pub struct PqCodebook {
    dim: usize,
    m: usize,
    ksub: usize,
    dsub: usize,
    /// Subspace-major: `centroids[s * ksub * dsub ..]` is subspace `s`'s
    /// `ksub × dsub` codebook.
    centroids: Vec<f32>,
    /// Subspace `s`'s codebook as [`Panels`]: encode searches it under
    /// squared L2 (codes minimize reconstruction error), the ADC table
    /// scores it by inner product (the *search* metric).
    panels: Vec<Panels>,
    /// How each subspace's k-means ended.
    pub(crate) runs: Vec<LloydRun>,
}

impl PqCodebook {
    /// Trains one k-means codebook per subspace on the corpus vectors,
    /// the subspaces in parallel.
    ///
    /// When a subspace has no more distinct subvectors than `ksub`, the
    /// distinct values *are* the codebook (padded with duplicates) — the
    /// lossless configuration a tiny corpus hits, where
    /// `decode(encode(v)) == v` exactly. Otherwise Lloyd's k-means runs
    /// under squared L2 per subspace, seeded from `ksub` distinct
    /// subvectors; empty PQ clusters are harmless unused codes.
    ///
    /// With an `exec`, the k-means work is also **priced on that GPU** as
    /// the batch-shaped kernels a CUDA implementation would launch: one
    /// training-set upload, then per Lloyd iteration a fused
    /// `pq_kmeans_assign` and a `pq_kmeans_update` over the subspaces still
    /// iterating. The codebook is bit-identical to an unpriced train.
    pub fn train(
        dim: usize,
        cfg: PqConfig,
        data: &[(usize, Vec<f32>)],
        seed: u64,
        exec: Option<&GpuExecutor>,
    ) -> Result<Self, IndexError> {
        cfg.validate(dim)?;
        if data.is_empty() {
            return Err(IndexError::EmptyTrainingSet);
        }
        for (_, v) in data {
            if v.len() != dim {
                return Err(IndexError::DimMismatch {
                    expected: dim,
                    got: v.len(),
                });
            }
        }
        let (m, ksub) = (cfg.m, cfg.ksub());
        let dsub = dim / m;
        let mut centroids = vec![0.0f32; m * ksub * dsub];
        // Subspaces are independent (own seed, own codebook slice), so
        // they train in parallel with the bits of a serial run.
        let runs: Vec<LloydRun> = centroids
            .par_chunks_mut(ksub * dsub)
            .enumerate()
            .map(|(s, book)| {
                let subs: Vec<&[f32]> = data
                    .iter()
                    .map(|(_, v)| &v[s * dsub..(s + 1) * dsub])
                    .collect();
                train_subspace(&subs, ksub, seed.wrapping_add(s as u64), book)
            })
            .collect();
        if let Some(exec) = exec {
            price_training(exec, data.len() as u64, dim as u64, cfg, &runs)?;
        }
        let panels = centroids
            .chunks_exact(ksub * dsub)
            .map(|book| Panels::new(book, dsub))
            .collect();
        Ok(Self {
            dim,
            m,
            ksub,
            dsub,
            centroids,
            panels,
            runs,
        })
    }

    pub fn m(&self) -> usize {
        self.m
    }

    pub fn ksub(&self) -> usize {
        self.ksub
    }

    pub fn dsub(&self) -> usize {
        self.dsub
    }

    /// Raw centroid storage (`m × ksub × dsub`, subspace-major).
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    fn entry(&self, s: usize, code: usize) -> &[f32] {
        let base = (s * self.ksub + code) * self.dsub;
        &self.centroids[base..base + self.dsub]
    }

    /// Quantizes the residual `v − centroid` into `codes`, one byte per
    /// subspace: the nearest codebook entry under squared L2, lowest code
    /// on ties. Each residual element is the `v[d] − centroid[d]` an IVF
    /// list stores, formed on the fly; a zero `centroid` codes `v` itself.
    pub fn encode(&self, v: &[f32], centroid: &[f32], codes: &mut [u8]) {
        assert_eq!(v.len(), self.dim, "vector dim mismatch");
        assert_eq!(centroid.len(), self.dim, "centroid dim mismatch");
        assert_eq!(codes.len(), self.m, "code length mismatch");
        let subspaces = v
            .chunks_exact(self.dsub)
            .zip(centroid.chunks_exact(self.dsub));
        for ((code, panels), (sub, base)) in codes.iter_mut().zip(&self.panels).zip(subspaces) {
            *code = panels.best(sub.iter().zip(base).map(|(a, b)| a - b), Metric::L2) as u8;
        }
    }

    /// Reconstructs the full-precision vector a code represents.
    pub fn decode(&self, codes: &[u8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.m, "code length mismatch");
        let mut out = Vec::with_capacity(self.dim);
        for (s, &c) in codes.iter().enumerate() {
            out.extend_from_slice(self.entry(s, c as usize));
        }
        out
    }

    /// Builds the per-query ADC table: `table[s * ksub + c]` is the inner
    /// product of the query's subspace-`s` slice with centroid `c`, so a
    /// coded vector scores in `m` lookups.
    pub fn adc_table(&self, query: &[f32]) -> Vec<f32> {
        self.adc_rows(query)
            .iter()
            .flat_map(|row| &row[..self.ksub])
            .copied()
            .collect()
    }

    /// [`Self::adc_table`] as one `[f32; 256]` row per subspace, zero past
    /// `ksub` — the layout [`adc_score_rows`] scans.
    pub(crate) fn adc_rows(&self, query: &[f32]) -> Vec<[f32; 256]> {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        query
            .chunks_exact(self.dsub)
            .zip(&self.panels)
            .map(|(qsub, panels)| {
                let mut row = [0.0f32; 256];
                panels.dots_into(qsub, &mut row);
                row
            })
            .collect()
    }

    /// Scores one coded vector against an ADC table (left-to-right sum of
    /// the `m` partial products — the single expression shared by CPU and
    /// GPU scan paths).
    #[inline]
    pub fn adc_score(table: &[f32], ksub: usize, codes: &[u8]) -> f32 {
        codes
            .iter()
            .enumerate()
            .map(|(s, &c)| table[s * ksub + c as usize])
            .sum()
    }
}

/// Charges one codebook training run to `exec`: the training-set upload,
/// then an assign and an update launch per Lloyd iteration over the
/// subspaces still iterating (`runs[s]` is subspace `s`'s loop, 0
/// iterations for a lossless direct codebook).
fn price_training(
    exec: &GpuExecutor,
    n: u64,
    dim: u64,
    cfg: PqConfig,
    runs: &[LloydRun],
) -> Result<(), IndexError> {
    let (ksub, dsub) = (cfg.ksub() as u64, dim / cfg.m as u64);
    // Training vectors cross the host link once, up front.
    let train_bytes = 4 * n * dim;
    let lease = exec
        .gpu()
        .htod_pooled(exec.pool(), train_bytes)
        .map_err(TensorError::from)?;
    exec.residency().add_h2d(train_bytes);
    let max_iters = runs.iter().map(|r| r.iterations).max().unwrap_or(0);
    for it in 0..max_iters {
        let active = runs.iter().filter(|r| r.iterations > it).count() as u64;
        // Assignment: every point against every centroid in each active
        // subspace (sub, mul, add per element + compare).
        let assign = KernelProfile {
            flops: 3 * active * n * ksub * dsub,
            bytes: 4 * active * (n * dsub + ksub * dsub + n),
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        // Update: scatter-add points into centroid sums + normalize.
        let update = KernelProfile {
            flops: active * (n * dsub + ksub * dsub),
            bytes: 4 * active * (n * dsub + 2 * ksub * dsub),
            access: AccessPattern::Random,
            registers_per_thread: 32,
        };
        for (name, elements, profile) in [
            ("pq_kmeans_assign", active * n, assign),
            ("pq_kmeans_update", active * ksub, update),
        ] {
            LaunchSpec::new(name, LaunchConfig::for_elements(elements, 256), profile)
                .run(exec.gpu(), || ())
                .map_err(TensorError::from)?;
        }
    }
    // Training set does not stay resident: release the slab and the
    // reservation (the pool would otherwise cache it indefinitely).
    drop(lease);
    exec.pool().trim();
    Ok(())
}

/// Per-subspace trainer: direct codebook when distinct subvectors fit in
/// `ksub`, [`lloyd`] under squared L2 otherwise. Writes into `book`
/// (`ksub × dsub`) and returns how the loop ended.
fn train_subspace(subs: &[&[f32]], ksub: usize, seed: u64, book: &mut [f32]) -> LloydRun {
    let dsub = book.len() / ksub;
    // Distinct subvectors by bit pattern, first-occurrence order: sort the
    // rows by (bits, row), keep the first row of each run of equal bits,
    // then put the survivors back in row order.
    let bits = |row: usize| subs[row].iter().map(|x| x.to_bits());
    let mut rows: Vec<usize> = (0..subs.len()).collect();
    rows.sort_unstable_by(|&a, &b| bits(a).cmp(bits(b)).then(a.cmp(&b)));
    rows.dedup_by(|later, first| bits(*later).eq(bits(*first)));
    rows.sort_unstable();
    let distinct: Vec<&[f32]> = rows.iter().map(|&row| subs[row]).collect();
    if distinct.len() <= ksub {
        // Lossless configuration: the distinct values are the codebook.
        // Pad unused codes with the last value; ties encode to the lowest
        // code, so duplicates are never emitted.
        for (c, code) in book.chunks_exact_mut(dsub).enumerate() {
            code.copy_from_slice(distinct[c.min(distinct.len() - 1)]);
        }
        return LloydRun::default();
    }
    let (centroids, _, run) = lloyd(subs, dsub, seeds(&distinct, ksub, seed), Metric::L2);
    book.copy_from_slice(&centroids);
    run
}

/// [`PqCodebook::adc_score`] over a table stored as `[f32; 256]` rows
/// ([`PqCodebook::adc_rows`]): a one-byte code indexes its row with no
/// bounds check, and the partial products are summed in the same
/// left-to-right order, so the score bits are identical.
#[inline]
pub(crate) fn adc_score_rows(rows: &[[f32; 256]], codes: &[u8]) -> f32 {
    codes
        .iter()
        .zip(rows)
        .map(|(&c, row)| row[c as usize])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::embed::Embedder;
    use crate::index::{recall_at_k, Codec, FlatIndex, IvfIndex, RetrievalIndex, SearchHit};
    use rand::prelude::*;
    use rand::rngs::SmallRng;
    use sagegpu_tensor::gpu_exec::GpuExecutor;
    use std::sync::Arc;

    /// `v`'s own codes (a zero centroid).
    fn codes_of(cb: &PqCodebook, v: &[f32]) -> Vec<u8> {
        let mut codes = vec![0u8; cb.m()];
        cb.encode(v, &vec![0.0; v.len()], &mut codes);
        codes
    }

    fn corpus_data(n: usize) -> (Embedder, Vec<(usize, Vec<f32>)>) {
        let corpus = Corpus::synthetic(n, 80, 3);
        let embedder = Embedder::new(96, 11);
        let data = corpus
            .docs()
            .iter()
            .map(|d| (d.id, embedder.embed(&d.text)))
            .collect();
        (embedder, data)
    }

    #[test]
    fn config_validation_rejects_bad_layouts() {
        assert!(matches!(
            PqConfig::new(7, 8).validate(96).unwrap_err(),
            IndexError::BadPqConfig { .. }
        ));
        assert!(matches!(
            PqConfig::new(0, 8).validate(96).unwrap_err(),
            IndexError::BadPqConfig { .. }
        ));
        assert!(matches!(
            PqConfig::new(16, 0).validate(96).unwrap_err(),
            IndexError::BadPqConfig { .. }
        ));
        assert!(matches!(
            PqConfig::new(16, 9).validate(96).unwrap_err(),
            IndexError::BadPqConfig { .. }
        ));
        assert!(PqConfig::new(16, 6).validate(96).is_ok());
        assert_eq!(
            PqCodebook::train(96, PqConfig::new(16, 6), &[], 1, None).unwrap_err(),
            IndexError::EmptyTrainingSet
        );
    }

    #[test]
    fn priced_training_charges_the_device_and_matches_the_host_codebook() {
        use gpu_sim::{DeviceSpec, Gpu};
        let (_, data) = corpus_data(300);
        let cfg = PqConfig::new(16, 4);
        let host = PqCodebook::train(96, cfg, &data, 7, None).expect("trains");
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let priced = PqCodebook::train(96, cfg, &data, 7, Some(&exec)).expect("trains");
        assert_eq!(host.centroids(), priced.centroids());
        assert!(exec.gpu().kernels_launched() > 0, "k-means must be priced");
        assert_eq!(exec.residency_snapshot().h2d_bytes, 4 * 300 * 96);
    }

    #[test]
    fn tiny_corpus_roundtrip_is_lossless() {
        // 12 docs < ksub = 2^8: every distinct subvector becomes its own
        // centroid, so encode → decode reconstructs exactly.
        let (_, data) = corpus_data(12);
        let cb = PqCodebook::train(96, PqConfig::new(16, 8), &data, 1, None).expect("trains");
        for (_, v) in &data {
            assert_eq!(&cb.decode(&codes_of(&cb, v)), v, "lossless roundtrip");
        }
    }

    #[test]
    fn adc_score_matches_decoded_dot_product() {
        let (embedder, data) = corpus_data(80);
        let cb = PqCodebook::train(96, PqConfig::new(16, 4), &data, 1, None).expect("trains");
        let q = embedder.embed(&Corpus::topic_query(1, 6, 9));
        let table = cb.adc_table(&q);
        for (_, v) in data.iter().take(20) {
            let codes = codes_of(&cb, v);
            let adc = PqCodebook::adc_score(&table, cb.ksub(), &codes);
            let decoded = cb.decode(&codes);
            let direct: f32 = decoded.iter().zip(&q).map(|(a, b)| a * b).sum();
            assert!(
                (adc - direct).abs() <= 1e-4 * direct.abs().max(1.0),
                "adc {adc} vs direct {direct}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn row_adc_matches_adc_score_bitwise(
            nbits in 1u32..9,
            m in 1usize..13,
            dsub in 1usize..4,
            n in 1usize..40,
            seed in 0u64..1_000,
        ) {
            let dim = m * dsub;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut vector = || -> Vec<f32> { (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect() };
            let data: Vec<(usize, Vec<f32>)> = (0..n).map(|i| (i, vector())).collect();
            let query = vector();
            let cb = PqCodebook::train(dim, PqConfig::new(m, nbits), &data, seed, None).expect("trains");
            let rows = cb.adc_rows(&query);
            let table = cb.adc_table(&query);
            // The table is the row-at-a-time `query · entry` sum.
            for (i, entry) in cb.centroids().chunks_exact(dsub).enumerate() {
                let qsub = &query[i / cb.ksub() * dsub..][..dsub];
                let want: f32 = qsub.iter().zip(entry).map(|(a, b)| a * b).sum();
                proptest::prop_assert_eq!(table[i].to_bits(), want.to_bits());
            }
            for (_, v) in &data {
                let codes = codes_of(&cb, v);
                proptest::prop_assert_eq!(
                    adc_score_rows(&rows, &codes).to_bits(),
                    PqCodebook::adc_score(&table, cb.ksub(), &codes).to_bits()
                );
            }
            // Every code value, not only the ones the encoder emitted.
            for c in 0..cb.ksub() {
                let codes = vec![c as u8; m];
                proptest::prop_assert_eq!(
                    adc_score_rows(&rows, &codes).to_bits(),
                    PqCodebook::adc_score(&table, cb.ksub(), &codes).to_bits()
                );
            }
        }
    }

    #[test]
    fn ivfpq_recall_improves_with_nprobe_and_beats_floor() {
        let (embedder, data) = corpus_data(300);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let mut idx =
            IvfIndex::train(96, 16, 1, Codec::Pq(PqConfig::new(16, 8)), &data, 2).expect("trains");
        let queries: Vec<Vec<f32>> = (0..10)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        let exact: Vec<Vec<SearchHit>> = queries.iter().map(|q| flat.search(q, 10)).collect();
        let mean_recall = |idx: &IvfIndex| -> f64 {
            queries
                .iter()
                .zip(&exact)
                .map(|(q, e)| recall_at_k(e, &idx.search(q, 10)))
                .sum::<f64>()
                / queries.len() as f64
        };
        idx.set_nprobe(1);
        let low = mean_recall(&idx);
        idx.set_nprobe(16);
        let high = mean_recall(&idx);
        assert!(high >= low, "recall must not drop with more probes");
        assert!(high >= 0.8, "full-probe PQ recall too low: {high}");
    }

    #[test]
    fn gpu_ivfpq_matches_cpu_bitwise_and_pins_codes() {
        use gpu_sim::{DeviceSpec, Gpu};
        let (embedder, data) = corpus_data(120);
        let cfg = PqConfig::new(16, 6);
        let cpu = IvfIndex::train(96, 8, 4, Codec::Pq(cfg), &data, 3).expect("trains");
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let gpu = IvfIndex::train(96, 8, 4, Codec::Pq(cfg), &data, 3)
            .expect("trains")
            .with_gpu(exec.clone(), None)
            .expect("uploads");
        let queries: Vec<Vec<f32>> = (0..6)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        assert_eq!(
            cpu.search_batch(&queries, 5),
            gpu.search_batch(&queries, 5),
            "device path drifted from host arithmetic"
        );
        for q in &queries {
            assert_eq!(cpu.search(q, 5), gpu.search(q, 5));
        }
        assert!(exec.gpu().now_ns() > 0, "scans must charge device time");
        // Codes crossed the host link exactly once (120 docs × 16 bytes),
        // on upload — searches hit the resident leases.
        let snap = exec.residency_snapshot();
        assert!(
            snap.h2d_bytes >= (120 * 16) as u64,
            "code upload must be charged: {}",
            snap.h2d_bytes
        );
    }

    #[test]
    fn device_bytes_shrink_versus_flat() {
        let (_, data) = corpus_data(500);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let idx =
            IvfIndex::train(96, 16, 4, Codec::Pq(PqConfig::new(16, 6)), &data, 1).expect("trains");
        assert_eq!(idx.len(), 500);
        let ratio = flat.device_bytes() as f64 / idx.device_bytes() as f64;
        assert!(ratio > 4.0, "compression ratio only {ratio:.2}");
    }
}
