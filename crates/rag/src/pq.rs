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
//! [`IvfPqIndex`] combines the coarse quantizer from
//! `crate::index::train_coarse` with PQ-coded inverted lists. Codes
//! quantize the coarse *residual* `v − centroid[list]` (the FAISS
//! `IndexIVFPQ` design): residuals are small and tightly clustered, so
//! the shared codebook resolves fine within-list structure, and a row
//! scores as `query·centroid + adc(residual codes)` with the first term
//! reused from the probe stage for free. When a
//! [`GpuExecutor`] is attached, the coarse centroids and the codebook
//! live on device as [`DeviceTensor`]s, per-list codes live under a
//! [`crate::residency::ListResidency`] tier (fully prewarmed by
//! [`IvfPqIndex::with_gpu`], or budgeted with host spill + charge-on-miss
//! promotion by [`IvfPqIndex::with_gpu_tiered`]), and the table build +
//! list scans are priced as kernels on the simulated command stream —
//! while the host arithmetic stays the byte-for-byte same expression as
//! the CPU path, so hits are bit-identical at every residency budget.

use crate::error::IndexError;
use crate::index::{top_k, RetrievalIndex, SearchHit, TopK};
use crate::residency::{ListResidency, TierStats};
use gpu_sim::pool::{PoolLease, PoolStats};
use gpu_sim::{AccessPattern, KernelProfile, LaunchConfig, LaunchSpec};
use rand::prelude::*;
use rand::rngs::SmallRng;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::residency::DeviceTensor;
use sagegpu_tensor::TensorError;
use std::sync::{Arc, Mutex};

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
}

/// Squared L2 distance between a subvector and a codebook entry — the
/// quantizer's assignment metric (codes minimize reconstruction error;
/// the *search* metric stays inner product via the ADC table).
#[inline]
fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

impl PqCodebook {
    /// Trains one k-means codebook per subspace on the corpus vectors.
    ///
    /// When a subspace has no more distinct subvectors than `ksub`, the
    /// distinct values *are* the codebook (padded with duplicates) — the
    /// lossless configuration a tiny corpus hits, where
    /// `decode(encode(v)) == v` exactly. Otherwise seeded Lloyd k-means
    /// runs per subspace; empty PQ clusters are harmless unused codes.
    pub fn train(
        dim: usize,
        cfg: PqConfig,
        data: &[(usize, Vec<f32>)],
        seed: u64,
    ) -> Result<Self, IndexError> {
        Self::train_with_stats(dim, cfg, data, seed).map(|(cb, _)| cb)
    }

    /// [`Self::train`], additionally reporting the per-subspace Lloyd
    /// iteration counts — the shape a priced replay of the training needs.
    pub fn train_with_stats(
        dim: usize,
        cfg: PqConfig,
        data: &[(usize, Vec<f32>)],
        seed: u64,
    ) -> Result<(Self, PqTrainStats), IndexError> {
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
        let mut iterations = Vec::with_capacity(m);
        for s in 0..m {
            let subs: Vec<&[f32]> = data
                .iter()
                .map(|(_, v)| &v[s * dsub..(s + 1) * dsub])
                .collect();
            let book = &mut centroids[s * ksub * dsub..(s + 1) * ksub * dsub];
            iterations.push(train_subspace(
                &subs,
                ksub,
                dsub,
                seed.wrapping_add(s as u64),
                book,
            ));
        }
        Ok((
            Self {
                dim,
                m,
                ksub,
                dsub,
                centroids,
            },
            PqTrainStats {
                n: data.len(),
                iterations,
            },
        ))
    }

    /// [`Self::train`] with the k-means work **priced on the GPU**: the
    /// host arithmetic is byte-for-byte [`Self::train_with_stats`] (so the
    /// codebook is bit-identical to an unpriced train), and the cost is
    /// charged as the batch-shaped kernel sequence a CUDA implementation
    /// would launch — one training-set upload, then per Lloyd iteration a
    /// fused `pq_kmeans_assign` over every still-converging subspace and a
    /// `pq_kmeans_update` centroid reduction. Subspaces that converged
    /// early drop out of later launches, exactly as the host loop stopped
    /// iterating them.
    pub fn train_priced(
        dim: usize,
        cfg: PqConfig,
        data: &[(usize, Vec<f32>)],
        seed: u64,
        exec: &GpuExecutor,
    ) -> Result<Self, IndexError> {
        let (cb, stats) = Self::train_with_stats(dim, cfg, data, seed)?;
        let (n, ksub, dsub) = (stats.n as u64, cfg.ksub() as u64, cb.dsub() as u64);
        // Training vectors cross the host link once, up front.
        let train_bytes = 4 * n * dim as u64;
        let lease = exec
            .gpu()
            .htod_pooled(exec.pool(), train_bytes)
            .map_err(TensorError::from)?;
        exec.residency().add_h2d(train_bytes);
        let max_iters = stats.iterations.iter().copied().max().unwrap_or(0);
        for it in 0..max_iters {
            let active = stats.iterations.iter().filter(|&&i| i > it).count() as u64;
            // Assignment: every point against every centroid in each
            // active subspace (sub, mul, add per element + compare).
            let assign = KernelProfile {
                flops: 3 * active * n * ksub * dsub,
                bytes: 4 * active * (n * dsub + ksub * dsub + n),
                access: AccessPattern::Coalesced,
                registers_per_thread: 32,
            };
            LaunchSpec::new(
                "pq_kmeans_assign",
                LaunchConfig::for_elements(active * n, 256),
                assign,
            )
            .run(exec.gpu(), || ())
            .map_err(TensorError::from)?;
            // Update: scatter-add points into centroid sums + normalize.
            let update = KernelProfile {
                flops: active * (n * dsub + ksub * dsub),
                bytes: 4 * active * (n * dsub + 2 * ksub * dsub),
                access: AccessPattern::Random,
                registers_per_thread: 32,
            };
            LaunchSpec::new(
                "pq_kmeans_update",
                LaunchConfig::for_elements(active * ksub, 256),
                update,
            )
            .run(exec.gpu(), || ())
            .map_err(TensorError::from)?;
        }
        // Training set does not stay resident: release the slab and the
        // reservation (the pool would otherwise cache it indefinitely).
        drop(lease);
        exec.pool().trim();
        Ok(cb)
    }

    pub fn dim(&self) -> usize {
        self.dim
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

    /// Quantizes a vector to `m` one-byte codes (nearest centroid per
    /// subspace under L2; ties break to the lowest code).
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim, "vector dim mismatch");
        (0..self.m)
            .map(|s| {
                let sub = &v[s * self.dsub..(s + 1) * self.dsub];
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..self.ksub {
                    let d = l2(sub, self.entry(s, c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                best as u8
            })
            .collect()
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
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        let mut table = Vec::with_capacity(self.m * self.ksub);
        for s in 0..self.m {
            let qsub = &query[s * self.dsub..(s + 1) * self.dsub];
            for c in 0..self.ksub {
                table.push(qsub.iter().zip(self.entry(s, c)).map(|(a, b)| a * b).sum());
            }
        }
        table
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

/// Shape of a completed codebook training run: the work a priced replay
/// charges to the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqTrainStats {
    /// Training vectors.
    pub n: usize,
    /// Lloyd iterations each subspace actually ran (0 = lossless direct
    /// codebook, no k-means).
    pub iterations: Vec<usize>,
}

/// Per-subspace trainer: direct codebook when distinct subvectors fit in
/// `ksub`, seeded Lloyd k-means otherwise. Writes into `book`
/// (`ksub × dsub`) and returns the number of Lloyd iterations executed.
fn train_subspace(subs: &[&[f32]], ksub: usize, dsub: usize, seed: u64, book: &mut [f32]) -> usize {
    // Distinct subvectors by bit pattern, first-occurrence order.
    let mut seen = std::collections::HashSet::new();
    let mut distinct: Vec<&[f32]> = Vec::new();
    for &sub in subs {
        let key: Vec<u32> = sub.iter().map(|x| x.to_bits()).collect();
        if seen.insert(key) {
            distinct.push(sub);
        }
    }
    if distinct.len() <= ksub {
        // Lossless configuration: the distinct values are the codebook.
        // Pad unused codes with the last value; ties encode to the lowest
        // code, so duplicates are never emitted.
        for c in 0..ksub {
            let src = distinct[c.min(distinct.len() - 1)];
            book[c * dsub..(c + 1) * dsub].copy_from_slice(src);
        }
        return 0;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pick: Vec<usize> = (0..distinct.len()).collect();
    pick.shuffle(&mut rng);
    for (c, &i) in pick[..ksub].iter().enumerate() {
        book[c * dsub..(c + 1) * dsub].copy_from_slice(distinct[i]);
    }
    let mut assignments = vec![0usize; subs.len()];
    let mut iterations = 0usize;
    for _ in 0..10 {
        iterations += 1;
        let mut changed = false;
        for (i, sub) in subs.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for c in 0..ksub {
                let d = l2(sub, &book[c * dsub..(c + 1) * dsub]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![0.0f32; ksub * dsub];
        let mut counts = vec![0usize; ksub];
        for (sub, &a) in subs.iter().zip(&assignments) {
            counts[a] += 1;
            for (acc, x) in sums[a * dsub..(a + 1) * dsub].iter_mut().zip(*sub) {
                *acc += x;
            }
        }
        for c in 0..ksub {
            // Empty PQ clusters keep their old centroid: they are unused
            // codes, not a correctness hazard like empty inverted lists.
            if counts[c] == 0 {
                continue;
            }
            for (slot, s) in book[c * dsub..(c + 1) * dsub]
                .iter_mut()
                .zip(&sums[c * dsub..(c + 1) * dsub])
            {
                *slot = s / counts[c] as f32;
            }
        }
        if !changed {
            break;
        }
    }
    iterations
}

/// Device-resident state for a GPU-attached [`IvfPqIndex`]: coarse
/// centroids and the codebook as [`DeviceTensor`]s (always pinned), and a
/// [`ListResidency`] tier managing the per-list code leases. The default
/// attach gives the tier a budget equal to the whole code payload, so
/// every list stays resident after its first touch — the PR-9 pinned
/// behavior. A budgeted attach spills cold lists to host and promotes
/// charge-on-miss.
struct GpuState {
    exec: GpuExecutor,
    #[allow(dead_code)] // held resident; the fused coarse kernel reads it
    centroid_mat: Arc<DeviceTensor>,
    #[allow(dead_code)] // held for residency; scans read via the codebook
    codebook_mat: Arc<DeviceTensor>,
    /// Tiered residency over the per-list packed codes. Interior
    /// mutability: scans take `&self` but promotion moves leases.
    residency: Mutex<ListResidency>,
}

/// IVF index over PQ-coded vectors: coarse k-means routing + per-list
/// `m`-byte codes scored via a per-query ADC table.
pub struct IvfPqIndex {
    dim: usize,
    nprobe: usize,
    /// Exact re-rank depth: when > 0, the PQ top-`max(refine, k)`
    /// candidates are re-scored against the full-precision host vectors
    /// before the final top-k (the FAISS `IndexRefineFlat` recipe).
    refine: usize,
    /// Row-major `nlist × dim` coarse centroids.
    centroids: Vec<f32>,
    codebook: PqCodebook,
    /// Inverted lists of row indices.
    lists: Vec<Vec<usize>>,
    ids: Vec<usize>,
    /// Packed codes, `len × m`.
    codes: Vec<u8>,
    /// Row-major full-precision copy, host-resident only — the refine
    /// source. Never uploaded; `device_bytes` counts codes, not this.
    host_vectors: Vec<f32>,
    /// doc id → row, for refine lookups on merged candidate lists.
    row_of: std::collections::HashMap<usize, usize>,
    gpu: Option<GpuState>,
}

/// The residual a list member quantizes to: `v − centroid[list]`. PQ
/// codes residuals, not raw vectors (the FAISS `IndexIVFPQ` design):
/// within a list the residuals are small and tightly clustered, so the
/// shared codebook spends its codes on fine structure instead of
/// re-describing the coarse centroid every vector already routed through.
pub(crate) fn residual(v: &[f32], centroid: &[f32]) -> Vec<f32> {
    v.iter().zip(centroid).map(|(a, b)| a - b).collect()
}

/// The host half of one batch search (see [`IvfPqIndex::plan`]).
pub(crate) struct BatchPlan {
    /// Per query: every coarse centroid's score.
    coarse: Vec<Vec<f32>>,
    /// Per query: the top-`nprobe` list ids in probe order.
    probes: Vec<Vec<usize>>,
    /// Per query: the ADC table as one row per subspace, zero past `ksub`.
    tables: Vec<Vec<[f32; 256]>>,
}

/// [`PqCodebook::adc_score`] over a table stored as `[f32; 256]` rows: a
/// one-byte code indexes its row with no bounds check, and the partial
/// products are summed in the same left-to-right order, so the score bits
/// are identical.
#[inline]
fn adc_score_rows(rows: &[[f32; 256]], codes: &[u8]) -> f32 {
    codes
        .iter()
        .zip(rows)
        .map(|(&c, row)| row[c as usize])
        .sum()
}

impl IvfPqIndex {
    /// Trains the coarse quantizer on `data` and the PQ codebook on the
    /// coarse *residuals*, then encodes every vector into its inverted
    /// list.
    pub fn train(
        dim: usize,
        nlist: usize,
        nprobe: usize,
        cfg: PqConfig,
        data: &[(usize, Vec<f32>)],
        seed: u64,
    ) -> Result<Self, IndexError> {
        let (centroids, assignments) = crate::index::train_coarse(dim, nlist, data, seed)?;
        let residuals: Vec<(usize, Vec<f32>)> = data
            .iter()
            .zip(&assignments)
            .map(|((doc, v), &a)| (*doc, residual(v, &centroids[a * dim..(a + 1) * dim])))
            .collect();
        let codebook = PqCodebook::train(dim, cfg, &residuals, seed)?;
        let entries: Vec<(usize, &[f32], usize)> = data
            .iter()
            .zip(&assignments)
            .map(|((doc, v), &a)| (*doc, v.as_slice(), a))
            .collect();
        Ok(Self::from_trained(
            dim, nlist, nprobe, centroids, codebook, &entries,
        ))
    }

    /// Assembles an index from already-trained quantizers — the shard
    /// construction path, where every shard shares one set of centroids
    /// and one codebook but encodes only its own `(doc, vector, list)`
    /// entries.
    pub(crate) fn from_trained(
        dim: usize,
        nlist: usize,
        nprobe: usize,
        centroids: Vec<f32>,
        codebook: PqCodebook,
        entries: &[(usize, &[f32], usize)],
    ) -> Self {
        let m = codebook.m();
        let mut lists = vec![Vec::new(); nlist];
        let mut ids = Vec::with_capacity(entries.len());
        let mut codes = Vec::with_capacity(entries.len() * m);
        let mut host_vectors = Vec::with_capacity(entries.len() * dim);
        let mut row_of = std::collections::HashMap::with_capacity(entries.len());
        for (row, (doc, v, list)) in entries.iter().enumerate() {
            ids.push(*doc);
            row_of.insert(*doc, row);
            host_vectors.extend_from_slice(v);
            let r = residual(v, &centroids[list * dim..(list + 1) * dim]);
            codes.extend(codebook.encode(&r));
            lists[*list].push(row);
        }
        Self {
            dim,
            nprobe: nprobe.clamp(1, nlist),
            refine: 0,
            centroids,
            codebook,
            lists,
            ids,
            codes,
            host_vectors,
            row_of,
            gpu: None,
        }
    }

    /// Enables exact refine: search re-scores the PQ top-`r` candidates
    /// against the full-precision host vectors before the final top-k.
    /// `r = 0` keeps pure ADC ranking.
    pub fn with_refine(mut self, r: usize) -> Self {
        self.refine = r;
        self
    }

    /// The exact re-rank depth (0 when refine is off).
    pub fn refine(&self) -> usize {
        self.refine
    }

    /// Re-scores candidate hits against the full-precision host vectors
    /// (flat's exact `dot`, so refined scores are bit-identical to an
    /// exhaustive scan's) and keeps the top-k.
    pub(crate) fn refine_exact(
        &self,
        query: &[f32],
        candidates: Vec<SearchHit>,
        k: usize,
    ) -> Vec<SearchHit> {
        let rescored = candidates
            .into_iter()
            .map(|h| {
                let row = self.row_of[&h.doc_id];
                SearchHit {
                    doc_id: h.doc_id,
                    score: crate::index::dot(
                        &self.host_vectors[row * self.dim..(row + 1) * self.dim],
                        query,
                    ),
                }
            })
            .collect();
        top_k(rescored, k)
    }

    /// Moves the index device-resident: uploads coarse centroids and the
    /// codebook as [`DeviceTensor`]s (charged H2D) and pins every list's
    /// packed codes in pooled device memory through the residency layer —
    /// a tier whose budget equals the whole code payload, prewarmed so
    /// scans never miss (the PR-9 fully-pinned behavior).
    pub fn with_gpu(self, exec: GpuExecutor) -> Result<Self, IndexError> {
        let budget = self.list_code_bytes();
        let mut this = self.attach_gpu(exec, budget)?;
        // Prewarm: every list pays its one H2D now, list-id order, so the
        // upload cost lands at attach time exactly as pinning did.
        if let Some(state) = &mut this.gpu {
            let res = state.residency.get_mut().expect("residency lock");
            for list in 0..this.lists.len() {
                res.touch(list).map_err(TensorError::from)?;
            }
        }
        Ok(this)
    }

    /// Moves the index device-resident under a **byte budget** for the
    /// list codes: hot lists hold pooled leases, cold lists stay on host
    /// and promote charge-on-miss, evicting least-recently-used lists.
    /// Search results are bit-identical to [`Self::with_gpu`] at every
    /// budget — residency moves bytes, never values.
    pub fn with_gpu_tiered(self, exec: GpuExecutor, budget_bytes: u64) -> Result<Self, IndexError> {
        self.attach_gpu(exec, budget_bytes)
    }

    fn attach_gpu(mut self, exec: GpuExecutor, budget_bytes: u64) -> Result<Self, IndexError> {
        let nlist = self.lists.len();
        let centroid_host = Tensor::from_vec(nlist, self.dim, self.centroids.clone())?;
        let centroid_mat = Arc::new(exec.upload(&centroid_host)?);
        let cb = &self.codebook;
        let codebook_host =
            Tensor::from_vec(cb.m() * cb.ksub(), cb.dsub(), cb.centroids().to_vec())?;
        let codebook_mat = Arc::new(exec.upload(&codebook_host)?);
        let list_bytes: Vec<u64> = self
            .lists
            .iter()
            .map(|list| (list.len() * cb.m()) as u64)
            .collect();
        let residency = Mutex::new(ListResidency::new(exec.clone(), &list_bytes, budget_bytes));
        self.gpu = Some(GpuState {
            exec,
            centroid_mat,
            codebook_mat,
            residency,
        });
        Ok(self)
    }

    /// Total packed-code bytes across all inverted lists — the spillable
    /// payload a residency budget governs.
    pub fn list_code_bytes(&self) -> u64 {
        self.codes.len() as u64
    }

    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Changes the probe count (clamped to `nlist`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.clamp(1, self.nlist());
    }

    pub fn codebook(&self) -> &PqCodebook {
        &self.codebook
    }

    /// Tiered-residency snapshot, `None` until a GPU is attached.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.gpu
            .as_ref()
            .map(|s| s.residency.lock().expect("residency lock").stats())
    }

    /// Per-list hit/miss/evict counters, `None` until a GPU is attached.
    pub fn tier_list_counters(&self) -> Option<Vec<crate::residency::ListCounters>> {
        self.gpu
            .as_ref()
            .map(|s| s.residency.lock().expect("residency lock").list_counters())
    }

    /// Re-budgets the residency tier in place, evicting down immediately
    /// when the resident set no longer fits. Returns `false` (no-op) when
    /// no GPU is attached.
    pub fn apply_residency_budget(&self, budget_bytes: u64) -> bool {
        match &self.gpu {
            Some(state) => {
                state
                    .residency
                    .lock()
                    .expect("residency lock")
                    .set_budget(budget_bytes);
                true
            }
            None => false,
        }
    }

    fn host_centroid_scores(&self, query: &[f32]) -> Vec<f32> {
        (0..self.nlist())
            .map(|c| {
                self.centroids[c * self.dim..(c + 1) * self.dim]
                    .iter()
                    .zip(query)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// The global probe order for `query`: every list id ranked by
    /// centroid score (ties to the lowest id). Shards rank the *same*
    /// full centroid set, which is what makes the sharded scan cover
    /// exactly the lists a single-shard scan probes.
    fn probe_order(centroid_scores: &[f32]) -> Vec<usize> {
        let mut ranked: Vec<(usize, f32)> = centroid_scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().map(|(c, _)| c).collect()
    }

    /// The host half of a batch search: coarse scores, probe lists and
    /// ADC tables. They depend only on the queries and the quantizers, so
    /// shards that share centroids and codebook share one plan.
    pub(crate) fn plan(&self, queries: &[Vec<f32>]) -> BatchPlan {
        let coarse: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| self.host_centroid_scores(q))
            .collect();
        let probes = coarse
            .iter()
            .map(|scores| {
                Self::probe_order(scores)
                    .into_iter()
                    .take(self.nprobe)
                    .collect()
            })
            .collect();
        let ksub = self.codebook.ksub();
        let tables = queries
            .iter()
            .map(|q| {
                self.codebook
                    .adc_table(q)
                    .chunks(ksub)
                    .map(|sub| {
                        let mut row = [0.0f32; 256];
                        row[..ksub].copy_from_slice(sub);
                        row
                    })
                    .collect()
            })
            .collect();
        BatchPlan {
            coarse,
            probes,
            tables,
        }
    }

    /// Searches with a precomputed [`BatchPlan`] of `queries`. Coarse
    /// ranking, table build, list scan, and top-k selection are each
    /// priced as one launch for the whole batch, so fixed launch/transfer
    /// costs amortize across queries and the scanned-row volume
    /// dominates.
    pub(crate) fn search_planned(
        &self,
        plan: &BatchPlan,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchHit>> {
        if self.ids.is_empty() || queries.is_empty() {
            return queries.iter().map(|_| Vec::new()).collect();
        }
        self.price_coarse(queries.len());
        let _resident = self.price_tables(plan);
        if self.refine == 0 {
            return self.scan_and_select(plan, k);
        }
        // Refine: pull a deeper PQ candidate list, then re-rank it with
        // exact host-side scores.
        let deep = self.refine.max(k);
        let candidates = self.scan_and_select(plan, deep);
        queries
            .iter()
            .zip(candidates)
            .map(|(q, cands)| self.refine_exact(q, cands, k))
            .collect()
    }

    /// Prices coarse ranking for a batch of `b` queries as one fused
    /// `ivf_coarse_batch` launch (query block H2D, one kernel over
    /// `b × nlist` dot products, score D2H) — per-*batch* fixed cost, not
    /// per-query, so the launch overhead does not replicate with the
    /// batch size.
    fn price_coarse(&self, b: usize) {
        let Some(state) = &self.gpu else { return };
        let (b, nlist) = (b as u64, self.nlist() as u64);
        let dim = self.dim as u64;
        let query_bytes = 4 * b * dim;
        let _q = state
            .exec
            .gpu()
            .htod_pooled(state.exec.pool(), query_bytes)
            .expect("query upload");
        state.exec.residency().add_h2d(query_bytes);
        let cfg = LaunchConfig::for_elements(b * nlist, 256);
        let profile = KernelProfile {
            flops: 2 * b * nlist * dim,
            bytes: 4 * (nlist * dim + b * dim + b * nlist),
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        LaunchSpec::new("ivf_coarse_batch", cfg, profile)
            .run(state.exec.gpu(), || ())
            .expect("coarse scoring kernel");
        let score_bytes = 4 * b * nlist;
        let lease = state.exec.pool().lease(score_bytes).expect("score buffer");
        state
            .exec
            .gpu()
            .dtoh_pooled(&lease)
            .expect("score readback");
        state.exec.residency().add_d2h(score_bytes);
    }

    /// Prices the ADC tables of a whole batch as one `pq_adc_table`
    /// launch and leases their device buffer for the scan. The scan reads
    /// the host-side `plan.tables`, so only the bytes are leased.
    fn price_tables(&self, plan: &BatchPlan) -> Option<PoolLease> {
        let state = self.gpu.as_ref()?;
        let cb = &self.codebook;
        let b = plan.tables.len() as u64;
        let table_elems = (cb.m() * cb.ksub()) as u64;
        let cfg = LaunchConfig::for_elements(b * table_elems, 256);
        let profile = KernelProfile {
            flops: 2 * b * table_elems * cb.dsub() as u64,
            // Codebook (read once from cache), the query block, and the
            // emitted tables.
            bytes: 4 * (table_elems * cb.dsub() as u64 + b * self.dim as u64 + b * table_elems),
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        LaunchSpec::new("pq_adc_table", cfg, profile)
            .run(state.exec.gpu(), || ())
            .expect("adc table kernel");
        Some(
            state
                .exec
                .pool()
                .lease(4 * b * table_elems)
                .expect("adc tables fit on device"),
        )
    }

    /// Scans every query's probed lists and selects its top-k as it
    /// scores. The GPU path prices the whole batch as one gather-heavy
    /// `pq_adc_scan` launch (codes are read at random through the
    /// per-query tables), one `topk_select` reduction launch, and a
    /// read-back of only the `b × k` selected hits — so the
    /// data-dependent scan volume is the term that scales, and it is
    /// exactly the work sharding divides.
    fn scan_and_select(&self, plan: &BatchPlan, k: usize) -> Vec<Vec<SearchHit>> {
        let (m, ksub) = (self.codebook.m(), self.codebook.ksub());
        let scan = || -> Vec<Vec<SearchHit>> {
            plan.probes
                .iter()
                .zip(&plan.coarse)
                .zip(&plan.tables)
                .map(|((probes, centroid_scores), rows)| {
                    let mut best = TopK::new(k);
                    for &list in probes {
                        // Codes are residuals off the list centroid, so a
                        // row's score is the query·centroid part (already
                        // computed by the coarse stage) plus the ADC part.
                        let bias = centroid_scores[list];
                        for &row in &self.lists[list] {
                            let codes = &self.codes[row * m..(row + 1) * m];
                            best.push(SearchHit {
                                doc_id: self.ids[row],
                                score: bias + adc_score_rows(rows, codes),
                            });
                        }
                    }
                    best.into_sorted()
                })
                .collect()
        };
        let Some(state) = &self.gpu else {
            return scan();
        };
        let b = plan.probes.len() as u64;
        let scanned: u64 = plan
            .probes
            .iter()
            .flat_map(|probes| probes.iter().map(|&l| self.lists[l].len() as u64))
            .sum();
        if scanned == 0 {
            return vec![Vec::new(); plan.probes.len()];
        }
        // Residency gate: every list this batch scans must be
        // device-resident before the scan launches. Hits are free; misses
        // charge a promotion copy (and evictions) in front of the kernel —
        // the exposed time the profiler attributes. Each distinct list is
        // touched once per batch, first-touch order.
        {
            let mut res = state.residency.lock().expect("residency lock");
            let mut seen = vec![false; self.lists.len()];
            for probes in &plan.probes {
                for &list in probes {
                    if !seen[list] {
                        seen[list] = true;
                        res.touch(list).expect("list promotion");
                    }
                }
            }
        }
        let cfg = LaunchConfig::for_elements(scanned, 256);
        let profile = KernelProfile {
            flops: scanned * m as u64,
            // Codes (1 byte each), the resident tables, and the raw scores
            // left on device for selection.
            bytes: scanned * m as u64 + 4 * b * (m * ksub) as u64 + 4 * scanned,
            access: AccessPattern::Random,
            registers_per_thread: 32,
        };
        let selected: Vec<Vec<SearchHit>> = LaunchSpec::new("pq_adc_scan", cfg, profile)
            .run(state.exec.gpu(), scan)
            .expect("adc scan kernel");
        // Device-side top-k selection: one coalesced sweep of the raw
        // scores emitting b×k (doc, score) pairs, so only the selected
        // hits cross the host link. The host selected while scanning.
        let sel_cfg = LaunchConfig::for_elements(scanned, 256);
        let sel_profile = KernelProfile {
            flops: scanned,
            bytes: 4 * scanned + 8 * b * k as u64,
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        LaunchSpec::new("topk_select", sel_cfg, sel_profile)
            .run(state.exec.gpu(), || ())
            .expect("top-k select kernel");
        let hit_bytes: u64 = selected.iter().map(|h| 8 * h.len() as u64).sum();
        if hit_bytes > 0 {
            let lease = state.exec.pool().lease(hit_bytes).expect("hit buffer");
            state.exec.gpu().dtoh_pooled(&lease).expect("hit readback");
            state.exec.residency().add_d2h(hit_bytes);
        }
        selected
    }
}

impl RetrievalIndex for IvfPqIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        self.search_batch(std::slice::from_ref(&query.to_vec()), k)
            .pop()
            .unwrap_or_default()
    }

    /// Batched search: the host plan (coarse scores, probe lists, ADC
    /// tables), then one priced launch per stage for the whole batch. Hits
    /// are bit-identical to per-query [`RetrievalIndex::search`] —
    /// per-query arithmetic never depends on the batch it rode in on.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
        }
        self.search_planned(&self.plan(queries), queries, k)
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn device_bytes(&self) -> u64 {
        // Coarse centroids + codebook (f32) + packed codes (1 byte each):
        // the compression headline against a flat `4 · len · dim` matrix.
        4 * self.centroids.len() as u64
            + 4 * self.codebook.centroids().len() as u64
            + self.codes.len() as u64
    }

    fn residency_stats(&self) -> Option<TierStats> {
        self.tier_stats()
    }

    fn set_residency_budget(&self, budget_bytes: u64) -> bool {
        self.apply_residency_budget(budget_bytes)
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        self.gpu
            .as_ref()
            .map(|s| vec![s.exec.pool().stats()])
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::embed::Embedder;
    use crate::index::{recall_at_k, FlatIndex, VectorIndex};

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
            PqCodebook::train(96, PqConfig::new(16, 6), &[], 1).unwrap_err(),
            IndexError::EmptyTrainingSet
        );
    }

    #[test]
    fn tiny_corpus_roundtrip_is_lossless() {
        // 12 docs < ksub = 2^8: every distinct subvector becomes its own
        // centroid, so encode → decode reconstructs exactly.
        let (_, data) = corpus_data(12);
        let cb = PqCodebook::train(96, PqConfig::new(16, 8), &data, 1).expect("trains");
        for (_, v) in &data {
            assert_eq!(&cb.decode(&cb.encode(v)), v, "lossless roundtrip");
        }
    }

    #[test]
    fn adc_score_matches_decoded_dot_product() {
        let (embedder, data) = corpus_data(80);
        let cb = PqCodebook::train(96, PqConfig::new(16, 4), &data, 1).expect("trains");
        let q = embedder.embed(&Corpus::topic_query(1, 6, 9));
        let table = cb.adc_table(&q);
        for (_, v) in data.iter().take(20) {
            let codes = cb.encode(v);
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
            let cb = PqCodebook::train(dim, PqConfig::new(m, nbits), &data, seed).expect("trains");
            let plan = IvfPqIndex::from_trained(dim, 1, 1, vec![0.0; dim], cb.clone(), &[])
                .plan(std::slice::from_ref(&query));
            let table = cb.adc_table(&query);
            for (_, v) in &data {
                let codes = cb.encode(v);
                proptest::prop_assert_eq!(
                    adc_score_rows(&plan.tables[0], &codes).to_bits(),
                    PqCodebook::adc_score(&table, cb.ksub(), &codes).to_bits()
                );
            }
            // Every code value, not only the ones the encoder emitted.
            for c in 0..cb.ksub() {
                let codes = vec![c as u8; m];
                proptest::prop_assert_eq!(
                    adc_score_rows(&plan.tables[0], &codes).to_bits(),
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
        let mut idx = IvfPqIndex::train(96, 16, 1, PqConfig::new(16, 8), &data, 2).expect("trains");
        let queries: Vec<Vec<f32>> = (0..10)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        let exact: Vec<Vec<SearchHit>> = queries.iter().map(|q| flat.search(q, 10)).collect();
        let mean_recall = |idx: &IvfPqIndex| -> f64 {
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
        let cpu = IvfPqIndex::train(96, 8, 4, cfg, &data, 3).expect("trains");
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let gpu = IvfPqIndex::train(96, 8, 4, cfg, &data, 3)
            .expect("trains")
            .with_gpu(exec.clone())
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
        let idx = IvfPqIndex::train(96, 16, 4, PqConfig::new(16, 6), &data, 1).expect("trains");
        assert_eq!(idx.len(), 500);
        let ratio = flat.device_bytes() as f64 / idx.device_bytes() as f64;
        assert!(ratio > 4.0, "compression ratio only {ratio:.2}");
    }
}
