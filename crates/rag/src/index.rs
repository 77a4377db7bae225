//! Vector indexes: exact flat search and the IVF core.
//!
//! [`FlatIndex`] is FAISS's `IndexFlatIP`: exact dot-product scan, optionally
//! executed on a simulated GPU (Lab 12's "GPU-enabled retriever"), and the
//! exact oracle every recall figure is measured against. [`IvfIndex`] is
//! FAISS's `IVF{n},Flat` / `IVF{n},PQ{m}`: a k-means coarse quantizer
//! buckets vectors into `nlist` inverted lists whose rows a [`Codec`]
//! stores; queries probe only the `nprobe` nearest lists, trading recall
//! for latency — the knob the course's latency-optimization lab turns.
//! The lists are placed over one or more [`IvfShard`]s (an unsharded index
//! is one shard; [`crate::shard`] places them over a GPU cluster). On a
//! device, every shard prices the same per-batch command sequence: coarse
//! probe, (Pq) table build, residency touches, one scan kernel per codec,
//! top-k select and hit read-back.
//!
//! [`RetrievalIndex`] is the read-path contract — search, batched search,
//! footprint and residency — everything a serving layer needs.

use crate::error::IndexError;
pub use crate::lloyd::LloydRun;
use crate::lloyd::{assign, lloyd, seeds};
use crate::panel::{Metric, Panels};
use crate::pq::{adc_score_rows, PqCodebook, PqConfig};
use crate::residency::{ListResidency, TierStats};
use gpu_sim::pool::{PoolLease, PoolStats};
use gpu_sim::{AccessPattern, KernelProfile, LaunchConfig, LaunchSpec};
use rayon::prelude::*;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::residency::DeviceTensor;
use sagegpu_tensor::TensorError;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    pub doc_id: usize,
    pub score: f32,
}

/// The read-side index contract: everything retrieval and serving need,
/// implemented by [`FlatIndex`], [`IvfIndex`] and its [`IvfShard`]s.
pub trait RetrievalIndex: Send + Sync {
    /// Returns the top-`k` hits for `query`, best first. The default is a
    /// batch of one.
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        self.search_batch(std::slice::from_ref(&query.to_vec()), k)
            .pop()
            .unwrap_or_default()
    }
    /// Searches many queries in one pass; per-query hits are identical to
    /// [`Self::search`]'s.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>>;
    /// Number of indexed vectors.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Device-resident footprint of serving this index from a GPU, in
    /// bytes — what must stay pinned for scans to run without re-staging.
    /// This is a property of the index layout (corpus size, codes,
    /// codebooks), not of whether a device is currently attached.
    fn device_bytes(&self) -> u64;
    /// Tiered-residency counters, when the index serves its inverted
    /// lists under a device byte budget ([`crate::residency`]). `None`
    /// for indexes without a residency tier (flat, CPU-only).
    fn residency_stats(&self) -> Option<crate::residency::TierStats> {
        None
    }
    /// Applies a device byte budget for list codes, evicting down in
    /// place when the resident set no longer fits. Returns `false` when
    /// the index has no residency tier to budget (the default).
    fn set_residency_budget(&self, _budget_bytes: u64) -> bool {
        false
    }
    /// Memory-pool counters for every device pool the index allocates
    /// from, shard order. Empty for indexes without pooled device state.
    fn pool_stats(&self) -> Vec<gpu_sim::pool::PoolStats> {
        Vec::new()
    }
}

/// The ranking order hits are returned in: score descending, `doc_id`
/// ascending on ties. [`f32::total_cmp`] keeps the order total even for NaN
/// scores (which rank as greater than every finite score) instead of
/// panicking mid-search.
pub(crate) fn hit_order(a: &SearchHit, b: &SearchHit) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.doc_id.cmp(&b.doc_id))
}

/// Wrapper ordering a max-heap so the *worst* retained hit sits on top —
/// the reverse of [`hit_order`] — making `BinaryHeap` a bounded best-k set.
struct WorstFirst(SearchHit);

impl PartialEq for WorstFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorstFirst {}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `hit_order` sorts best-first, so the greatest element under it is
        // the worst hit — exactly what the max-heap should surface.
        hit_order(&self.0, &other.0)
    }
}

/// A bounded best-`k` set fed one hit at a time, so a scan can select as
/// it scores instead of materializing every candidate first.
pub(crate) struct TopK {
    k: usize,
    heap: std::collections::BinaryHeap<WorstFirst>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            heap: std::collections::BinaryHeap::with_capacity(k + 1),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, hit: SearchHit) {
        if self.heap.len() < self.k {
            self.heap.push(WorstFirst(hit));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if hit_order(&hit, &worst.0) == std::cmp::Ordering::Less {
                *worst = WorstFirst(hit);
            }
        }
    }

    /// The retained hits, best first.
    pub(crate) fn into_sorted(self) -> Vec<SearchHit> {
        let mut out: Vec<SearchHit> = self.heap.into_iter().map(|w| w.0).collect();
        out.sort_by(hit_order);
        out
    }
}

/// Selects the best `k` hits in `O(n log k)` with a bounded heap instead of
/// sorting the full candidate list — the candidate set is the whole corpus
/// (flat), every probed list (IVF), or the shards' local top-k lists at the
/// gather. Because the ranking order is total (ties broken by `doc_id` via
/// `total_cmp`) and document ids are unique across shards, the gather's
/// result is exactly the top-k of every shard's candidates regardless of
/// how they were grouped — the property that makes sharded search
/// bit-identical to a single-shard scan.
pub(crate) fn top_k(scores: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    let mut best = TopK::new(k);
    for hit in scores {
        best.push(hit);
    }
    best.into_sorted()
}

/// Inner-product of one row against a query, in index order — the
/// scoring expression shared by the flat scan, the full-row list scan,
/// refine, and the GPU executor's `dot_scores`, which is what keeps CPU,
/// GPU, and batched paths bit-identical. Centroid searches compute the
/// same sum through [`Panels`].
#[inline]
pub(crate) fn dot(row: &[f32], query: &[f32]) -> f32 {
    row.iter().zip(query).map(|(a, b)| a * b).sum()
}

/// Exact dot-product index.
pub struct FlatIndex {
    dim: usize,
    ids: Vec<usize>,
    /// Row-major `len × dim`.
    vectors: Vec<f32>,
    gpu: Option<GpuExecutor>,
    /// Device-resident copy of `vectors`, uploaded lazily (one charged H2D)
    /// and invalidated by `add`. Repeat searches are residency hits: the
    /// scoring kernel reads the resident matrix without re-transferring.
    device_mat: Mutex<Option<Arc<DeviceTensor>>>,
}

impl FlatIndex {
    /// A CPU-scanned flat index.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            ids: Vec::new(),
            vectors: Vec::new(),
            gpu: None,
            device_mat: Mutex::new(None),
        }
    }

    /// A flat index whose scans run on (and are charged to) a simulated GPU.
    pub fn with_gpu(dim: usize, gpu: GpuExecutor) -> Self {
        Self {
            gpu: Some(gpu),
            ..Self::new(dim)
        }
    }

    /// Adds a vector under a document id.
    pub fn add(&mut self, doc_id: usize, vector: Vec<f32>) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        self.ids.push(doc_id);
        self.vectors.extend(vector);
        *self.device_mat.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    fn cpu_scores(&self, query: &[f32]) -> Vec<f32> {
        self.vectors
            .par_chunks(self.dim)
            .map(|row| dot(row, query))
            .collect()
    }

    /// The resident device matrix, re-uploaded only when `add` invalidated
    /// it (the upload charges the H2D transfer; hits after that are free).
    pub(crate) fn device_matrix(&self) -> Arc<DeviceTensor> {
        let gpu = self
            .gpu
            .as_ref()
            .expect("device matrix requires a GPU index");
        let mut cached = self.device_mat.lock().unwrap_or_else(|e| e.into_inner());
        cached
            .get_or_insert_with(|| {
                let host = Tensor::from_vec(self.ids.len(), self.dim, self.vectors.clone())
                    .expect("index shape");
                Arc::new(gpu.upload(&host).expect("index fits on device"))
            })
            .clone()
    }
}

impl RetrievalIndex for FlatIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        if self.ids.is_empty() {
            return Vec::new();
        }
        let scores = match &self.gpu {
            Some(gpu) => {
                let mat = self.device_matrix();
                gpu.score_rows(&*mat, query).expect("gpu scoring")
            }
            None => self.cpu_scores(query),
        };
        top_k(
            self.ids
                .iter()
                .zip(scores)
                .map(|(&doc_id, score)| SearchHit { doc_id, score })
                .collect(),
            k,
        )
    }

    /// Searches many queries in one pass. On the GPU path the queries go
    /// through [`GpuExecutor::score_rows_batch`], which chunks them across
    /// two streams so the upload of chunk k+1 overlaps the scoring kernel
    /// of chunk k — fewer launches and a shorter simulated makespan than
    /// per-query [`RetrievalIndex::search`], with bit-identical hits.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
        }
        if self.ids.is_empty() {
            return queries.iter().map(|_| Vec::new()).collect();
        }
        let per_query: Vec<Vec<f32>> = match &self.gpu {
            Some(gpu) => {
                let mat = self.device_matrix();
                gpu.score_rows_batch(&*mat, queries).expect("gpu scoring")
            }
            None => queries.iter().map(|q| self.cpu_scores(q)).collect(),
        };
        per_query
            .into_iter()
            .map(|scores| {
                top_k(
                    self.ids
                        .iter()
                        .zip(scores)
                        .map(|(&doc_id, score)| SearchHit { doc_id, score })
                        .collect(),
                    k,
                )
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn device_bytes(&self) -> u64 {
        // The full-precision matrix: len × dim × f32.
        4 * (self.ids.len() * self.dim) as u64
    }
}

/// Trains the coarse quantizer of [`IvfIndex`]: [`lloyd`] under the inner
/// product from `nlist` seeded rows. Returns the centroids, every row's
/// list under them (the list [`Quantizer::assign`] routes it to) and how
/// the loop ended, or a typed error: an empty corpus, `nlist` larger than
/// the corpus, and clusters that stay empty even after deterministic
/// re-seeding (fewer distinct vectors than lists).
pub(crate) fn train_coarse(
    dim: usize,
    nlist: usize,
    data: &[(usize, Vec<f32>)],
    seed: u64,
) -> Result<(Vec<f32>, Vec<usize>, LloydRun), IndexError> {
    if data.is_empty() {
        return Err(IndexError::EmptyTrainingSet);
    }
    if nlist == 0 {
        return Err(IndexError::ZeroClusters);
    }
    if nlist > data.len() {
        return Err(IndexError::NlistExceedsCorpus {
            nlist,
            corpus: data.len(),
        });
    }
    let rows: Vec<&[f32]> = data.iter().map(|(_, v)| v.as_slice()).collect();
    let seeds = seeds(&rows, nlist, seed);
    let (mut centroids, mut assignments, run) = lloyd(&rows, dim, seeds, Metric::Dot);

    // Deterministic empty-cluster repair: re-seed each empty centroid from
    // the worst-fitting member of the largest cluster, then re-assign. A
    // cluster that stays empty through `nlist` repair passes means the
    // corpus has fewer distinct vectors than lists — a typed error, not a
    // degenerate centroid that searches would silently probe.
    for pass in 0..=nlist {
        let mut counts = vec![0usize; nlist];
        for &a in &assignments {
            counts[a] += 1;
        }
        let empty: Vec<usize> = (0..nlist).filter(|&c| counts[c] == 0).collect();
        if empty.is_empty() {
            break;
        }
        if pass == nlist {
            return Err(IndexError::EmptyCluster { list: empty[0] });
        }
        for c in empty {
            // Worst-fitting member of the largest list: lowest similarity
            // to its centroid, lowest row on ties. It has a row to spare,
            // since `c` is empty and there are at least `nlist` rows.
            let donor = (0..nlist).max_by_key(|&d| counts[d]).expect("nlist >= 1");
            let centroid = &centroids[donor * dim..(donor + 1) * dim];
            let row = (0..rows.len())
                .filter(|&row| assignments[row] == donor)
                .map(|row| (row, dot(centroid, rows[row])))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .map(|(row, _)| row)
                .expect("donor is non-empty");
            centroids[c * dim..(c + 1) * dim].copy_from_slice(rows[row]);
            counts[donor] -= 1;
            counts[c] += 1;
            assignments[row] = c;
        }
        assignments = assign(&rows, dim, &centroids, Metric::Dot);
    }

    Ok((centroids, assignments, run))
}

/// How an inverted list stores and scores its rows — FAISS's
/// `IVF{n},Flat` / `IVF{n},PQ{m}` index-factory split. Everything else
/// (coarse quantizer, probing, residency, scan pricing, merge, refine) is
/// the same [`IvfIndex`] for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Full-precision `dim × f32` rows, scored by `dot(v, q)`: exact
    /// within the probed lists.
    Full,
    /// `m`-byte PQ codes of the coarse residual, scored as the query's
    /// centroid score plus the ADC lookup sum (see [`crate::pq`]).
    Pq(PqConfig),
}

/// The trained quantizers every shard of one index shares.
pub(crate) struct Quantizer {
    dim: usize,
    /// Row-major `nlist × dim` coarse centroids.
    centroids: Vec<f32>,
    /// The same centroids as [`Panels`], which routing and probe planning
    /// search.
    panels: Panels,
    /// The residual codebook; `None` for [`Codec::Full`].
    codebook: Option<PqCodebook>,
    /// How the coarse k-means ended.
    coarse: LloydRun,
}

impl Quantizer {
    /// Trains the coarse quantizer on `data`, then (Pq codec) the codebook
    /// on the coarse residuals, priced on `exec` when one is given. Each
    /// residual is taken against the list [`Self::assign`] routes its row
    /// to, so the codebook trains on the residuals the index stores.
    /// Returns the quantizer and those lists, one per row of `data`.
    pub(crate) fn train(
        dim: usize,
        nlist: usize,
        codec: Codec,
        data: &[(usize, Vec<f32>)],
        seed: u64,
        exec: Option<&GpuExecutor>,
    ) -> Result<(Self, Vec<usize>), IndexError> {
        let (centroids, lists, coarse) = train_coarse(dim, nlist, data, seed)?;
        let codebook = match codec {
            Codec::Full => None,
            Codec::Pq(cfg) => {
                // PQ codes each row's residual `v − centroid[list]`.
                let residuals: Vec<(usize, Vec<f32>)> = data
                    .iter()
                    .zip(&lists)
                    .map(|((doc, v), &l)| {
                        let centroid = &centroids[l * dim..(l + 1) * dim];
                        (*doc, v.iter().zip(centroid).map(|(a, b)| a - b).collect())
                    })
                    .collect();
                Some(PqCodebook::train(dim, cfg, &residuals, seed, exec)?)
            }
        };
        let quant = Self {
            dim,
            panels: Panels::new(&centroids, dim),
            centroids,
            codebook,
            coarse,
        };
        Ok((quant, lists))
    }

    pub(crate) fn nlist(&self) -> usize {
        self.panels.rows()
    }

    /// The list a vector routes to: the centroid with the highest inner
    /// product, lowest list on ties.
    pub(crate) fn assign(&self, v: &[f32]) -> usize {
        self.panels.best(v.iter().copied(), Metric::Dot)
    }

    fn centroid(&self, list: usize) -> &[f32] {
        &self.centroids[list * self.dim..(list + 1) * self.dim]
    }

    /// The host half of a batch search: every centroid's score, the
    /// top-`nprobe` lists in probe order (score descending, lowest id on
    /// ties) and, for the Pq codec, the ADC tables. It depends only on the
    /// queries and the quantizers, so every shard of an index scans from
    /// one plan, and the shards together cover exactly the lists an
    /// unsharded scan probes.
    fn plan<'q>(&self, queries: &'q [Vec<f32>], nprobe: usize) -> BatchPlan<'q> {
        let coarse: Vec<Vec<f32>> = queries.iter().map(|q| self.panels.dots(q)).collect();
        let probes = coarse
            .iter()
            .map(|scores| {
                // Probe order is total (`total_cmp`, then the list id), so
                // selecting the top `nprobe` before sorting them gives the
                // prefix a full sort would.
                let order = |a: &usize, b: &usize| scores[*b].total_cmp(&scores[*a]).then(a.cmp(b));
                let mut lists: Vec<usize> = (0..scores.len()).collect();
                if nprobe < lists.len() {
                    lists.select_nth_unstable_by(nprobe, order);
                    lists.truncate(nprobe);
                }
                lists.sort_unstable_by(order);
                lists
            })
            .collect();
        let tables = match &self.codebook {
            Some(cb) => queries.iter().map(|q| cb.adc_rows(q)).collect(),
            None => Vec::new(),
        };
        BatchPlan {
            queries,
            coarse,
            probes,
            tables,
        }
    }
}

/// The host half of one batch search (see [`Quantizer::plan`]).
struct BatchPlan<'q> {
    queries: &'q [Vec<f32>],
    /// Per query: every coarse centroid's score.
    coarse: Vec<Vec<f32>>,
    /// Per query: the top-`nprobe` list ids in probe order.
    probes: Vec<Vec<usize>>,
    /// Per query, Pq codec only: the ADC table as one row per subspace.
    tables: Vec<Vec<[f32; 256]>>,
}

/// Every list's rows in the codec's format, list-major.
enum Rows {
    /// Per list: `len × dim` f32s.
    Full(Vec<Vec<f32>>),
    /// Per list: `len × m` code bytes.
    Pq(Vec<Vec<u8>>),
}

/// Groups `(doc, vector, list)` entries into per-list row buffers of
/// `width` elements a row, entry order within each list: every entry's
/// row slot is cut from its list's buffer first, then
/// `fill(vector, list, slot)` writes the slots in parallel.
fn group_rows<T: Copy + Default + Send>(
    entries: &[(usize, &[f32], usize)],
    ids: &[Vec<usize>],
    width: usize,
    fill: impl Fn(&[f32], usize, &mut [T]) + Sync,
) -> Vec<Vec<T>> {
    let mut lists: Vec<Vec<T>> = ids
        .iter()
        .map(|docs| vec![T::default(); docs.len() * width])
        .collect();
    let mut slots: Vec<_> = lists
        .iter_mut()
        .map(|l| l.chunks_exact_mut(width))
        .collect();
    let jobs: Vec<(&[f32], usize, &mut [T])> = entries
        .iter()
        .map(|&(_, v, list)| (v, list, slots[list].next().expect("one slot per member")))
        .collect();
    jobs.into_par_iter()
        .for_each(|(v, list, slot)| fill(v, list, slot));
    lists
}

/// A shard's device: its executor, the resident centroid matrix and (Pq)
/// codebook the coarse and table kernels read, and the residency tier over
/// the per-list rows.
struct GpuState {
    exec: GpuExecutor,
    centroids: DeviceTensor,
    codebook: Option<DeviceTensor>,
    /// Interior mutability: scans take `&self` but promotion moves leases.
    residency: Mutex<ListResidency>,
}

impl GpuState {
    fn tier(&self) -> std::sync::MutexGuard<'_, ListResidency> {
        self.residency.lock().expect("residency lock")
    }

    /// Prices coarse ranking for a batch of `b` queries as one fused
    /// `ivf_coarse_batch` launch (query block H2D, one kernel over
    /// `b × nlist` dot products, score D2H) — per-*batch* fixed cost, not
    /// per-query, so the launch overhead does not replicate with the batch
    /// size.
    fn price_coarse(&self, b: u64, dim: u64) {
        let nlist = self.centroids.rows() as u64;
        let query_bytes = 4 * b * dim;
        let _q = self
            .exec
            .gpu()
            .htod_pooled(self.exec.pool(), query_bytes)
            .expect("query upload");
        self.exec.residency().add_h2d(query_bytes);
        let cfg = LaunchConfig::for_elements(b * nlist, 256);
        let profile = KernelProfile {
            flops: 2 * b * nlist * dim,
            bytes: self.centroids.size_bytes() + 4 * (b * dim + b * nlist),
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        LaunchSpec::new("ivf_coarse_batch", cfg, profile)
            .run(self.exec.gpu(), || ())
            .expect("coarse scoring kernel");
        let score_bytes = 4 * b * nlist;
        let lease = self.exec.pool().lease(score_bytes).expect("score buffer");
        self.exec.gpu().dtoh_pooled(&lease).expect("score readback");
        self.exec.residency().add_d2h(score_bytes);
    }

    /// Pq codec only: prices the ADC tables of a whole batch as one
    /// `pq_adc_table` launch and leases their device buffer for the scan.
    /// The scan reads the host-side plan tables, so only the bytes are
    /// leased.
    fn price_tables(&self, b: u64, dim: u64) -> Option<PoolLease> {
        let codebook = self.codebook.as_ref()?;
        let table_elems = codebook.rows() as u64;
        let cfg = LaunchConfig::for_elements(b * table_elems, 256);
        let profile = KernelProfile {
            flops: 2 * b * table_elems * codebook.cols() as u64,
            // Codebook (read once from cache), the query block, and the
            // emitted tables.
            bytes: codebook.size_bytes() + 4 * (b * dim + b * table_elems),
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        LaunchSpec::new("pq_adc_table", cfg, profile)
            .run(self.exec.gpu(), || ())
            .expect("adc table kernel");
        Some(
            self.exec
                .pool()
                .lease(4 * b * table_elems)
                .expect("adc tables fit on device"),
        )
    }

    /// Residency gate: every list a batch scans must be device-resident
    /// before the scan launches. Hits are free; misses charge a promotion
    /// copy (and evictions) in front of the kernel — the exposed time the
    /// profiler attributes. Each distinct list is touched once per batch,
    /// first-touch order.
    fn touch_probed(&self, probes: &[Vec<usize>]) {
        let mut res = self.tier();
        let mut seen = vec![false; self.centroids.rows()];
        for &list in probes.iter().flatten() {
            if !std::mem::replace(&mut seen[list], true) {
                res.touch(list).expect("list promotion");
            }
        }
    }

    /// Device-side top-k selection: one coalesced sweep of the raw scores
    /// emitting `b × k` (doc, score) pairs, then a read-back of only the
    /// selected hits. The host selected while scanning.
    fn price_select(&self, k: u64, scanned: u64, selected: &[Vec<SearchHit>]) {
        let b = selected.len() as u64;
        let cfg = LaunchConfig::for_elements(scanned, 256);
        let profile = KernelProfile {
            flops: scanned,
            bytes: 4 * scanned + 8 * b * k,
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        LaunchSpec::new("topk_select", cfg, profile)
            .run(self.exec.gpu(), || ())
            .expect("top-k select kernel");
        let hit_bytes: u64 = selected.iter().map(|h| 8 * h.len() as u64).sum();
        if hit_bytes > 0 {
            let lease = self.exec.pool().lease(hit_bytes).expect("hit buffer");
            self.exec.gpu().dtoh_pooled(&lease).expect("hit readback");
            self.exec.residency().add_d2h(hit_bytes);
        }
    }
}

/// One shard of an [`IvfIndex`]: the rows of the lists placed on it and
/// the device it serves them from. Every shard shares its index's
/// quantizers; an unsharded index is one shard holding every list.
pub struct IvfShard {
    quant: Arc<Quantizer>,
    nprobe: usize,
    /// Per list: member doc ids, insertion order (empty for lists placed
    /// on other shards).
    ids: Vec<Vec<usize>>,
    rows: Rows,
    gpu: Option<GpuState>,
}

impl IvfShard {
    /// Stores `(doc, vector, list)` entries in the codec's row format.
    fn new(quant: Arc<Quantizer>, nprobe: usize, entries: &[(usize, &[f32], usize)]) -> Self {
        let mut ids = vec![Vec::new(); quant.nlist()];
        for &(doc, _, list) in entries {
            ids[list].push(doc);
        }
        let rows = match &quant.codebook {
            None => Rows::Full(group_rows(entries, &ids, quant.dim, |v, _, row| {
                row.copy_from_slice(v)
            })),
            Some(cb) => Rows::Pq(group_rows(entries, &ids, cb.m(), |v, list, codes| {
                cb.encode(v, quant.centroid(list), codes)
            })),
        };
        Self {
            quant,
            nprobe,
            ids,
            rows,
            gpu: None,
        }
    }

    /// Bytes list `list`'s rows occupy, on host or device.
    fn list_bytes(&self, list: usize) -> u64 {
        match &self.rows {
            Rows::Full(rows) => 4 * rows[list].len() as u64,
            Rows::Pq(rows) => rows[list].len() as u64,
        }
    }

    /// Total row bytes across the shard's lists — the spillable payload a
    /// residency budget governs.
    pub(crate) fn payload_bytes(&self) -> u64 {
        (0..self.ids.len()).map(|l| self.list_bytes(l)).sum()
    }

    /// Moves the shard device-resident on `exec`: uploads the coarse
    /// centroids and (Pq) the codebook as [`DeviceTensor`]s (charged H2D)
    /// and puts every list's rows under a [`ListResidency`] tier. With
    /// `budget: None` the tier holds the whole payload and every list pays
    /// its one H2D now, list-id order, so scans never miss; with
    /// `Some(bytes)` cold lists stay on host and promote charge-on-miss.
    /// Residency moves bytes, never values: hits are bit-identical at every
    /// budget.
    pub(crate) fn attach(
        &mut self,
        exec: GpuExecutor,
        budget: Option<u64>,
    ) -> Result<(), IndexError> {
        let q = &self.quant;
        let centroids = exec.upload(&Tensor::from_vec(q.nlist(), q.dim, q.centroids.clone())?)?;
        let codebook = q
            .codebook
            .as_ref()
            .map(|cb| {
                let host =
                    Tensor::from_vec(cb.m() * cb.ksub(), cb.dsub(), cb.centroids().to_vec())?;
                exec.upload(&host)
            })
            .transpose()?;
        let list_bytes: Vec<u64> = (0..self.ids.len()).map(|l| self.list_bytes(l)).collect();
        let mut residency = ListResidency::new(
            exec.clone(),
            &list_bytes,
            budget.unwrap_or_else(|| list_bytes.iter().sum()),
        );
        if budget.is_none() {
            for list in 0..list_bytes.len() {
                residency.touch(list).map_err(TensorError::from)?;
            }
        }
        self.gpu = Some(GpuState {
            exec,
            centroids,
            codebook,
            residency: Mutex::new(residency),
        });
        Ok(())
    }

    /// Scans every query's probed lists and selects its top-k as it
    /// scores: `dot(v, q)` for full rows, the centroid score (already
    /// computed by the coarse stage) plus the ADC sum for residual codes.
    fn scan(&self, plan: &BatchPlan, k: usize) -> Vec<Vec<SearchHit>> {
        let dim = self.quant.dim;
        (0..plan.queries.len())
            .map(|qi| {
                let mut best = TopK::new(k);
                for &list in &plan.probes[qi] {
                    let ids = &self.ids[list];
                    match &self.rows {
                        Rows::Full(rows) => {
                            let q = &plan.queries[qi];
                            for (&doc_id, v) in ids.iter().zip(rows[list].chunks_exact(dim)) {
                                best.push(SearchHit {
                                    doc_id,
                                    score: dot(v, q),
                                });
                            }
                        }
                        Rows::Pq(rows) => {
                            let bias = plan.coarse[qi][list];
                            let table = &plan.tables[qi];
                            for (&doc_id, codes) in
                                ids.iter().zip(rows[list].chunks_exact(table.len()))
                            {
                                best.push(SearchHit {
                                    doc_id,
                                    score: bias + adc_score_rows(table, codes),
                                });
                            }
                        }
                    }
                }
                best.into_sorted()
            })
            .collect()
    }

    /// The scan kernel for `scanned` rows over `b` queries: a coalesced
    /// `ivf_flat_scan` of `2 · dim` flops per full row, or a gather-heavy
    /// `pq_adc_scan` of `m` table lookups per code row.
    fn scan_kernel(&self, b: u64, scanned: u64) -> (&'static str, KernelProfile) {
        match &self.quant.codebook {
            None => {
                let dim = self.quant.dim as u64;
                let profile = KernelProfile {
                    flops: 2 * scanned * dim,
                    // Rows, the query block, and the raw scores left on
                    // device for selection.
                    bytes: 4 * scanned * dim + 4 * b * dim + 4 * scanned,
                    access: AccessPattern::Coalesced,
                    registers_per_thread: 32,
                };
                ("ivf_flat_scan", profile)
            }
            Some(cb) => {
                let (m, ksub) = (cb.m() as u64, cb.ksub() as u64);
                let profile = KernelProfile {
                    flops: scanned * m,
                    // Codes (1 byte each), the resident tables, and the
                    // raw scores left on device for selection.
                    bytes: scanned * m + 4 * b * m * ksub + 4 * scanned,
                    access: AccessPattern::Random,
                    registers_per_thread: 32,
                };
                ("pq_adc_scan", profile)
            }
        }
    }

    /// Searches with a precomputed plan. On a device, coarse ranking,
    /// (Pq) table build, list scan and top-k selection are each priced as
    /// one launch for the whole batch, after the residency touches, so
    /// fixed launch/transfer costs amortize across queries and the scanned
    /// row volume — exactly the work sharding divides — is the term that
    /// scales.
    fn search_planned(&self, plan: &BatchPlan, k: usize) -> Vec<Vec<SearchHit>> {
        let b = plan.queries.len();
        if b == 0 || self.ids.iter().all(Vec::is_empty) {
            return vec![Vec::new(); b];
        }
        let Some(gpu) = &self.gpu else {
            return self.scan(plan, k);
        };
        let dim = self.quant.dim as u64;
        gpu.price_coarse(b as u64, dim);
        let _tables = gpu.price_tables(b as u64, dim);
        let scanned: u64 = plan
            .probes
            .iter()
            .flatten()
            .map(|&list| self.ids[list].len() as u64)
            .sum();
        if scanned == 0 {
            return vec![Vec::new(); b];
        }
        gpu.touch_probed(&plan.probes);
        let (name, profile) = self.scan_kernel(b as u64, scanned);
        let selected = LaunchSpec::new(name, LaunchConfig::for_elements(scanned, 256), profile)
            .run(gpu.exec.gpu(), || self.scan(plan, k))
            .expect("scan kernel");
        gpu.price_select(k as u64, scanned, &selected);
        selected
    }
}

impl RetrievalIndex for IvfShard {
    /// This shard's own scan: its plan, its lists, its device — no merge
    /// and no refine.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        for q in queries {
            assert_eq!(q.len(), self.quant.dim, "query dim mismatch");
        }
        self.search_planned(&self.quant.plan(queries, self.nprobe), k)
    }

    fn len(&self) -> usize {
        self.ids.iter().map(Vec::len).sum()
    }

    fn device_bytes(&self) -> u64 {
        // Coarse centroids + codebook (f32) + the list rows: the
        // compression headline against a flat `4 · len · dim` matrix.
        let codebook = self
            .quant
            .codebook
            .as_ref()
            .map_or(0, |cb| cb.centroids().len());
        4 * (self.quant.centroids.len() + codebook) as u64 + self.payload_bytes()
    }
}

/// The IVF index: one coarse quantizer, inverted lists stored under a
/// [`Codec`], placed over one or more [`IvfShard`]s. Search plans once,
/// scans every shard on its own device, selects the top-k of the shards'
/// local top-k lists, and (Pq with refine) re-ranks those candidates
/// exactly. [`IvfIndex::train`] builds the unsharded host index;
/// [`IvfIndex::build`](crate::shard) places lists over a GPU cluster.
pub struct IvfIndex {
    quant: Arc<Quantizer>,
    nprobe: usize,
    /// Exact re-rank depth (0 = off): the merged top-`max(refine, k)` is
    /// re-scored against `exact` before the final top-k.
    refine: usize,
    pub(crate) shards: Vec<IvfShard>,
    /// doc id → full-precision vector, the refine source: kept only while
    /// `refine > 0`. Host RAM only; never counted in device bytes.
    exact: HashMap<usize, Vec<f32>>,
}

impl std::fmt::Debug for IvfIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvfIndex")
            .field("dim", &self.quant.dim)
            .field("nlist", &self.nlist())
            .field("nprobe", &self.nprobe)
            .field("refine", &self.refine)
            .field("len", &self.len())
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl IvfIndex {
    /// Trains an unsharded host index on all of `data`: the coarse
    /// quantizer, then (Pq) the codebook on the coarse residuals, then
    /// every vector into the list the coarse training left it in, which is
    /// the list it routes to.
    ///
    /// `nprobe` is clamped to `1..=nlist`. Degenerate configurations are
    /// typed errors: an empty corpus, `nlist > data.len()`, `nlist == 0`,
    /// clusters left empty by k-means, or an impossible PQ layout (see
    /// [`IndexError`]).
    pub fn train(
        dim: usize,
        nlist: usize,
        nprobe: usize,
        codec: Codec,
        data: &[(usize, Vec<f32>)],
        seed: u64,
    ) -> Result<Self, IndexError> {
        let (quant, lists) = Quantizer::train(dim, nlist, codec, data, seed, None)?;
        let entries = data
            .iter()
            .zip(lists)
            .map(|((doc, v), list)| (*doc, v.as_slice(), list))
            .collect();
        Ok(Self::assemble(quant, nprobe, vec![entries]))
    }

    /// Stores `per_shard[s]`'s `(doc, vector, list)` entries on shard `s`,
    /// each shard encoding its rows in parallel.
    pub(crate) fn assemble(
        quant: Quantizer,
        nprobe: usize,
        per_shard: Vec<Vec<(usize, &[f32], usize)>>,
    ) -> Self {
        let quant = Arc::new(quant);
        let nprobe = nprobe.clamp(1, quant.nlist());
        let shards = per_shard
            .iter()
            .map(|entries| IvfShard::new(Arc::clone(&quant), nprobe, entries))
            .collect();
        Self {
            quant,
            nprobe,
            refine: 0,
            shards,
            exact: HashMap::new(),
        }
    }

    /// Serves the unsharded index from a simulated GPU (see
    /// [`IvfShard`]'s attach): `budget: None` keeps every list resident,
    /// `Some(bytes)` serves under tiered residency.
    pub fn with_gpu(mut self, exec: GpuExecutor, budget: Option<u64>) -> Result<Self, IndexError> {
        let shards = self.shards.len();
        let [shard] = self.shards.as_mut_slice() else {
            return Err(IndexError::BadShardCount { shards, devices: 1 });
        };
        shard.attach(exec, budget)?;
        Ok(self)
    }

    /// Enables exact refine: search pulls the top-`max(r, k)` candidates,
    /// merged across shards, and re-scores them against the full-precision
    /// vectors of `data` before the final top-k (the FAISS
    /// `IndexRefineFlat` recipe). Refining after the merge keeps the result
    /// independent of the shard count. Full rows already score exactly, so
    /// refine is off for [`Codec::Full`]; `r = 0` keeps codec ranking.
    /// Only a refining index keeps the host copy.
    pub fn with_refine(mut self, r: usize, data: &[(usize, Vec<f32>)]) -> Self {
        self.refine = if self.quant.codebook.is_some() { r } else { 0 };
        self.exact = match self.refine {
            0 => HashMap::new(),
            _ => data.iter().map(|(doc, v)| (*doc, v.clone())).collect(),
        };
        self
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.quant.nlist()
    }

    /// Lists probed per query (global, not per shard).
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Changes the probe count (clamped to `1..=nlist`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.clamp(1, self.nlist());
        for shard in &mut self.shards {
            shard.nprobe = self.nprobe;
        }
    }

    /// Fraction of the database scanned per query, on average.
    pub fn scan_fraction(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            return 0.0;
        }
        (total * self.nprobe / self.nlist()) as f64 / total as f64
    }

    /// How training's Lloyd loops ended: the coarse quantizer's, then each
    /// PQ subspace's in subspace order (none for [`Codec::Full`]).
    pub fn lloyd_runs(&self) -> (LloydRun, &[LloydRun]) {
        let pq = self.quant.codebook.as_ref().map(|cb| &cb.runs[..]);
        (self.quant.coarse, pq.unwrap_or_default())
    }

    /// The shards, in device order (an unsharded index has one).
    pub fn shards(&self) -> &[IvfShard] {
        &self.shards
    }

    /// The attached shards' devices, shard order.
    fn devices(&self) -> impl Iterator<Item = &GpuState> {
        self.shards.iter().filter_map(|shard| shard.gpu.as_ref())
    }

    /// Splits a total device budget over the shards in proportion to each
    /// shard's list payload, so a balanced placement gets a balanced
    /// budget.
    pub(crate) fn split_budget(&self, budget_bytes: u64) -> Vec<u64> {
        let bytes: Vec<u64> = self.shards.iter().map(IvfShard::payload_bytes).collect();
        let total: u64 = bytes.iter().sum();
        bytes
            .iter()
            .map(|&b| match total {
                0 => 0,
                _ => ((budget_bytes as u128 * b as u128) / total as u128) as u64,
            })
            .collect()
    }
}

impl RetrievalIndex for IvfIndex {
    /// Batch search: the host plan is computed once, every shard scans it
    /// in order on the calling thread (pricing its own device), the
    /// per-shard lists merge through one top-k selection, and with refine
    /// the merged top-`max(refine, k)` is re-scored exactly. Hits are
    /// bit-identical to per-query search and to any shard count.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        for q in queries {
            assert_eq!(q.len(), self.quant.dim, "query dim mismatch");
        }
        if queries.is_empty() {
            return Vec::new();
        }
        let kprime = k.max(self.refine);
        let plan = self.quant.plan(queries, self.nprobe);
        let mut per_shard: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.search_planned(&plan, kprime).into_iter())
            .collect();
        let merged = queries.iter().map(|_| {
            let local = per_shard
                .iter_mut()
                .flat_map(|hits| hits.next().unwrap_or_default());
            top_k(local.collect(), kprime)
        });
        if self.refine == 0 {
            return merged.collect();
        }
        queries
            .iter()
            .zip(merged)
            .map(|(q, candidates)| {
                let rescored = candidates
                    .into_iter()
                    .map(|h| SearchHit {
                        doc_id: h.doc_id,
                        score: dot(&self.exact[&h.doc_id], q),
                    })
                    .collect();
                top_k(rescored, k)
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(RetrievalIndex::len).sum()
    }

    fn device_bytes(&self) -> u64 {
        // Sum across devices — honest about the replicated centroids and
        // codebook every shard carries.
        self.shards.iter().map(RetrievalIndex::device_bytes).sum()
    }

    /// The shards' tiers merged (counters and budgets add).
    fn residency_stats(&self) -> Option<TierStats> {
        self.devices()
            .map(|gpu| gpu.tier().stats())
            .reduce(|mut all, stats| {
                all.merge(&stats);
                all
            })
    }

    /// Splits the budget over the shards like the build does.
    fn set_residency_budget(&self, budget_bytes: u64) -> bool {
        let budgets = self.split_budget(budget_bytes);
        for (shard, budget) in self.shards.iter().zip(budgets) {
            if let Some(gpu) = &shard.gpu {
                gpu.tier().set_budget(budget);
            }
        }
        self.devices().next().is_some()
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        self.devices().map(|gpu| gpu.exec.pool().stats()).collect()
    }
}

/// Recall@k of `approx` against the exact `baseline` for the same query.
pub fn recall_at_k(baseline: &[SearchHit], approx: &[SearchHit]) -> f64 {
    if baseline.is_empty() {
        return 1.0;
    }
    let truth: std::collections::HashSet<usize> = baseline.iter().map(|h| h.doc_id).collect();
    let found = approx.iter().filter(|h| truth.contains(&h.doc_id)).count();
    found as f64 / baseline.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::embed::Embedder;

    /// The residual a list member quantizes to: `v − centroid[list]`.
    fn residual(v: &[f32], centroid: &[f32]) -> Vec<f32> {
        v.iter().zip(centroid).map(|(a, b)| a - b).collect()
    }

    fn indexed_corpus(n: usize) -> (Corpus, Embedder, Vec<(usize, Vec<f32>)>) {
        let corpus = Corpus::synthetic(n, 80, 3);
        let embedder = Embedder::new(96, 11);
        let texts: Vec<&str> = corpus.docs().iter().map(|d| d.text.as_str()).collect();
        let data: Vec<(usize, Vec<f32>)> = corpus
            .docs()
            .iter()
            .map(|d| d.id)
            .zip(embedder.embed_batch(&texts))
            .collect();
        (corpus, embedder, data)
    }

    /// Ingest does not depend on the core count: a sharded pipeline built
    /// at thread width 1 (every stage serial) and at width 2 (embedding,
    /// codebook training, routing and encoding fan out) has the same
    /// coarse centroids, codebook, per-list doc ids and served hits, bit
    /// for bit.
    #[test]
    fn sharded_ingest_does_not_depend_on_the_thread_width() {
        use crate::pipeline::build_sharded_pipeline;
        use crate::shard::{Placement, ShardPlan};
        use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
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
        let queries: Vec<String> = (0..16)
            .map(|i| Corpus::topic_query(i % 5, 6, i as u64))
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let build = |width: usize| {
            rayon::set_thread_width(width);
            let gpus = Arc::new(GpuCluster::homogeneous(4, DeviceSpec::t4(), LinkKind::Pcie));
            let p = build_sharded_pipeline(1_200, 96, plan, gpus, 5).expect("builds");
            let quant = &p.index.quant;
            let codebook = quant.codebook.as_ref().expect("Pq codec");
            let lists: Vec<Vec<Vec<usize>>> =
                p.index.shards.iter().map(|s| s.ids.clone()).collect();
            let hits: Vec<Vec<(usize, u32)>> = p
                .retrieve_batch(&refs)
                .iter()
                .map(|(hits, _)| hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect())
                .collect();
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                bits(&quant.centroids),
                bits(codebook.centroids()),
                lists,
                hits,
            )
        };
        let serial = build(1);
        let parallel = build(2);
        assert_eq!(serial.0, parallel.0, "coarse centroids");
        assert_eq!(serial.1, parallel.1, "PQ codebook");
        assert_eq!(serial.2, parallel.2, "per-list doc ids");
        assert_eq!(serial.3, parallel.3, "served hits");
        assert!(serial.3.iter().all(|hits| hits.len() == 3));
    }

    #[test]
    fn flat_search_finds_exact_match() {
        let (_, _, data) = indexed_corpus(20);
        let mut idx = FlatIndex::new(96);
        for (id, v) in &data {
            idx.add(*id, v.clone());
        }
        // A document's own vector must be its top hit.
        let hits = idx.search(&data[7].1, 3);
        assert_eq!(hits[0].doc_id, 7);
        assert!(hits[0].score > hits[1].score);
        assert_eq!(idx.len(), 20);
    }

    #[test]
    fn flat_search_ranks_topic_documents_first() {
        let (corpus, embedder, data) = indexed_corpus(50);
        let mut idx = FlatIndex::new(96);
        for (id, v) in &data {
            idx.add(*id, v.clone());
        }
        // Query with topic-0 (CUDA) vocabulary: the top hits should be
        // predominantly topic-0 documents.
        let q = embedder.embed(&Corpus::topic_query(0, 6, 42));
        let hits = idx.search(&q, 5);
        let topic0 = hits
            .iter()
            .filter(|h| corpus.get(h.doc_id).unwrap().topic == 0)
            .count();
        assert!(topic0 >= 4, "only {topic0}/5 hits were on-topic");
    }

    #[test]
    fn gpu_flat_search_matches_cpu_and_charges_time() {
        use gpu_sim::{DeviceSpec, Gpu};
        use std::sync::Arc;
        let (_, _, data) = indexed_corpus(30);
        let mut cpu = FlatIndex::new(96);
        let gpu_exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let mut gpu = FlatIndex::with_gpu(96, gpu_exec.clone());
        for (id, v) in &data {
            cpu.add(*id, v.clone());
            gpu.add(*id, v.clone());
        }
        let q = &data[3].1;
        let cpu_hits = cpu.search(q, 5);
        let gpu_hits = gpu.search(q, 5);
        assert_eq!(
            cpu_hits.iter().map(|h| h.doc_id).collect::<Vec<_>>(),
            gpu_hits.iter().map(|h| h.doc_id).collect::<Vec<_>>()
        );
        assert!(gpu_exec.gpu().now_ns() > 0, "GPU search must charge time");
    }

    #[test]
    fn gpu_matrix_is_cached_across_searches_and_invalidated_by_add() {
        use gpu_sim::{DeviceSpec, Gpu};
        use std::sync::Arc;
        let (_, _, data) = indexed_corpus(12);
        let gpu_exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let mut idx = FlatIndex::with_gpu(96, gpu_exec);
        for (id, v) in &data {
            idx.add(*id, v.clone());
        }
        let q = &data[0].1;
        let first = idx.search(q, 3);
        let mat_a = idx.device_matrix();
        let second = idx.search(q, 3);
        let mat_b = idx.device_matrix();
        assert!(
            Arc::ptr_eq(&mat_a, &mat_b),
            "repeat searches must reuse the cached device tensor"
        );
        assert_eq!(first, second);
        // `add` invalidates the cache and the new vector becomes visible.
        let (_, embedder, _) = indexed_corpus(1);
        let fresh = embedder.embed("warp divergence stalls the scheduler pipeline");
        idx.add(999, fresh.clone());
        let mat_c = idx.device_matrix();
        assert!(!Arc::ptr_eq(&mat_b, &mat_c), "add must rebuild the tensor");
        assert_eq!(idx.search(&fresh, 1)[0].doc_id, 999);
    }

    #[test]
    fn batch_search_matches_per_query_search_on_cpu_and_gpu() {
        use gpu_sim::{DeviceSpec, Gpu};
        use std::sync::Arc;
        let (_, embedder, data) = indexed_corpus(30);
        let mut cpu = FlatIndex::new(96);
        let gpu_exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let mut gpu = FlatIndex::with_gpu(96, gpu_exec);
        for (id, v) in &data {
            cpu.add(*id, v.clone());
            gpu.add(*id, v.clone());
        }
        let queries: Vec<Vec<f32>> = (0..12)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        let cpu_batch = cpu.search_batch(&queries, 5);
        let gpu_batch = gpu.search_batch(&queries, 5);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(cpu_batch[i], cpu.search(q, 5), "cpu query {i}");
            assert_eq!(gpu_batch[i], gpu.search(q, 5), "gpu query {i}");
        }
        assert_eq!(cpu_batch, gpu_batch);
        // Empty query sets and empty indexes behave like `search`.
        assert!(cpu.search_batch(&[], 5).is_empty());
        let empty = FlatIndex::new(8);
        assert_eq!(empty.search_batch(&[vec![0.0; 8]], 5), vec![Vec::new()]);
    }

    #[test]
    fn ivf_full_probe_matches_flat_exactly() {
        let (_, _, data) = indexed_corpus(40);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        // Probe every list.
        let ivf = IvfIndex::train(96, 8, 8, Codec::Full, &data, 1).expect("trains");
        let q = &data[11].1;
        let exact = flat.search(q, 10);
        let approx = ivf.search(q, 10);
        assert_eq!(recall_at_k(&exact, &approx), 1.0);
    }

    #[test]
    fn ivf_low_probe_trades_recall_for_scan_fraction() {
        let (_, _, data) = indexed_corpus(200);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let mut ivf = IvfIndex::train(96, 16, 16, Codec::Full, &data, 2).expect("trains");
        ivf.set_nprobe(2);
        assert!(
            ivf.scan_fraction() < 0.3,
            "scan fraction {}",
            ivf.scan_fraction()
        );
        // Recall over several queries: below 1.0 is expected but should
        // stay usable (> 0.4) because lists align with topics.
        let mut total_recall = 0.0;
        for probe in 0..10 {
            let q = &data[probe * 17].1;
            let exact = flat.search(q, 5);
            let approx = ivf.search(q, 5);
            total_recall += recall_at_k(&exact, &approx);
        }
        let mean_recall = total_recall / 10.0;
        assert!(mean_recall > 0.4, "mean recall {mean_recall}");
        assert!(mean_recall <= 1.0);
    }

    #[test]
    fn ivf_train_rejects_degenerate_configs_with_typed_errors() {
        let (_, _, data) = indexed_corpus(10);
        // Empty corpus.
        assert_eq!(
            IvfIndex::train(96, 4, 4, Codec::Full, &[], 1).unwrap_err(),
            IndexError::EmptyTrainingSet
        );
        // More lists than vectors (used to be silently clamped).
        assert_eq!(
            IvfIndex::train(96, 11, 4, Codec::Full, &data, 1).unwrap_err(),
            IndexError::NlistExceedsCorpus {
                nlist: 11,
                corpus: 10
            }
        );
        // Zero lists.
        assert_eq!(
            IvfIndex::train(96, 0, 1, Codec::Full, &data, 1).unwrap_err(),
            IndexError::ZeroClusters
        );
    }

    #[test]
    fn ivf_train_rejects_unrepairable_empty_clusters() {
        // Eight copies of the same vector with four lists: every repair
        // re-seeds an identical centroid and assignment collapses back to
        // list 0, so training must surface the empty cluster instead of
        // returning degenerate centroids.
        let (_, embedder, _) = indexed_corpus(1);
        let v = embedder.embed("identical document text");
        let data: Vec<(usize, Vec<f32>)> = (0..8).map(|i| (i, v.clone())).collect();
        let err = IvfIndex::train(96, 4, 4, Codec::Full, &data, 1).unwrap_err();
        assert!(
            matches!(err, IndexError::EmptyCluster { .. }),
            "expected EmptyCluster, got {err:?}"
        );
    }

    #[test]
    fn ivf_train_repairs_recoverable_empty_clusters() {
        // Two tight groups of distinct vectors with four lists. Every list
        // has members when k-means ends, so the repair has nothing to do,
        // and training must leave no list empty.
        let (_, embedder, _) = indexed_corpus(1);
        let mut data: Vec<(usize, Vec<f32>)> = (0..12)
            .map(|i| {
                let topic = i % 2;
                (i, embedder.embed(&format!("topic {topic} variant {i}")))
            })
            .collect();
        let ivf = IvfIndex::train(96, 4, 4, Codec::Full, &data, 1).expect("trains");
        assert!(ivf.shards()[0].ids.iter().all(|l| !l.is_empty()));

        // The same corpus plus one document filed twice. A seeding that
        // picks both copies starts two identical centroids; ties go to the
        // lower list, so k-means leaves a list empty and the repair has to
        // re-seed it from the worst-fitting member of the largest list.
        let twice = embedder.embed("one document filed twice");
        data.extend([(12, twice.clone()), (13, twice)]);
        let rows: Vec<&[f32]> = data.iter().map(|(_, v)| v.as_slice()).collect();
        let (seed, emptied) = (0..64)
            .find_map(|seed| {
                let (_, lists, _) = lloyd(&rows, 96, seeds(&rows, 4, seed), Metric::Dot);
                let empty: Vec<usize> = (0..4).filter(|l| !lists.contains(l)).collect();
                (!empty.is_empty()).then_some((seed, empty))
            })
            .expect("some seeding leaves a list empty after k-means");
        let ivf = IvfIndex::train(96, 4, 4, Codec::Full, &data, seed).expect("repair succeeds");
        let lists = &ivf.shards()[0].ids;
        assert!(
            lists.iter().all(|l| !l.is_empty()),
            "every list must own at least one vector: {:?}",
            lists.iter().map(|l| l.len()).collect::<Vec<_>>()
        );
        for list in emptied {
            for &doc in &lists[list] {
                assert_eq!(
                    ivf.quant.assign(&data[doc].1),
                    list,
                    "re-seeded row {doc} sits outside the list it routes to"
                );
            }
        }
    }

    #[test]
    fn trained_rows_sit_in_the_list_their_vector_routes_to() {
        // Queries probe by the final centroids, so a row filed by an
        // assignment from before the last k-means update is unreachable
        // from its own list. This corpus stops k-means at the iteration
        // cap with 6 such rows when routing follows the last pass's
        // assignments.
        let (_, _, data) = indexed_corpus(1_000);
        let ivf = IvfIndex::train(96, 16, 1, Codec::Full, &data, 1).expect("trains");
        let misfiled: Vec<(usize, usize)> = ivf.shards()[0]
            .ids
            .iter()
            .enumerate()
            .flat_map(|(list, docs)| docs.iter().map(move |&doc| (doc, list)))
            .filter(|&(doc, list)| ivf.quant.assign(&data[doc].1) != list)
            .collect();
        assert!(misfiled.is_empty(), "rows outside their list: {misfiled:?}");
        assert_eq!(ivf.len(), data.len());
    }

    #[test]
    fn codebook_trains_on_the_residuals_the_index_stores() {
        // The corpus of the test above: its coarse k-means stops at the
        // iteration cap, so the last pass's assignments are stale for 6
        // rows, whose residuals the codebook would otherwise train on.
        let (_, _, data) = indexed_corpus(1_000);
        let cfg = PqConfig::new(16, 6);
        let (centroids, lists, _) = train_coarse(96, 16, &data, 1).expect("trains");
        let ivf = IvfIndex::train(96, 16, 1, Codec::Pq(cfg), &data, 1).expect("trains");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut stored = vec![None; data.len()];
        for (list, docs) in ivf.shards()[0].ids.iter().enumerate() {
            for &doc in docs {
                stored[doc] = Some(residual(&data[doc].1, ivf.quant.centroid(list)));
            }
        }
        let training: Vec<(usize, Vec<f32>)> = data
            .iter()
            .zip(&lists)
            .map(|((doc, v), &list)| (*doc, residual(v, &centroids[list * 96..(list + 1) * 96])))
            .collect();
        for ((doc, trained), stored) in training.iter().zip(&stored) {
            let stored = stored.as_ref().expect("every row is stored");
            assert_eq!(bits(trained), bits(stored), "doc {doc}'s residual");
        }
        let want = PqCodebook::train(96, cfg, &training, 1, None).expect("trains");
        let codebook = ivf.quant.codebook.as_ref().expect("Pq codec");
        assert_eq!(bits(codebook.centroids()), bits(want.centroids()));
    }

    #[test]
    fn ivf_batch_search_matches_per_query_on_cpu_and_gpu() {
        use gpu_sim::{DeviceSpec, Gpu};
        use std::sync::Arc;
        let (_, embedder, data) = indexed_corpus(60);
        let cpu = IvfIndex::train(96, 8, 3, Codec::Full, &data, 5).expect("trains");
        let gpu_exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let gpu = IvfIndex::train(96, 8, 3, Codec::Full, &data, 5)
            .expect("trains")
            .with_gpu(gpu_exec.clone(), None)
            .expect("uploads");
        let queries: Vec<Vec<f32>> = (0..12)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        let cpu_batch = cpu.search_batch(&queries, 5);
        let gpu_batch = gpu.search_batch(&queries, 5);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(cpu_batch[i], cpu.search(q, 5), "cpu query {i}");
            assert_eq!(gpu_batch[i], gpu.search(q, 5), "gpu query {i}");
        }
        assert_eq!(cpu_batch, gpu_batch, "device centroid scoring drifted");
        assert!(
            gpu_exec.gpu().now_ns() > 0,
            "batched centroid scoring must charge the device"
        );
        // The centroid matrix upload happens once: batch + per-query reuse it.
        let h2d = gpu_exec.residency_snapshot().h2d_bytes;
        gpu.search_batch(&queries, 5);
        let h2d_after = gpu_exec.residency_snapshot().h2d_bytes;
        // Only query payloads cross again, not the centroid matrix.
        assert!(h2d_after - h2d < 4 * (8 * 96) as u64 + 12 * 4 * 96 + 1);
    }

    #[test]
    fn full_codec_scan_prices_the_flops_the_host_scan_performs() {
        use gpu_sim::trace::RecordBody;
        use gpu_sim::{DeviceSpec, Gpu};
        let (_, embedder, data) = indexed_corpus(60);
        let queries: Vec<Vec<f32>> = (0..5)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let mut ivf = IvfIndex::train(96, 8, 8, Codec::Full, &data, 5)
            .expect("trains")
            .with_gpu(exec.clone(), None)
            .expect("uploads");
        let scan_flops = |ivf: &IvfIndex| -> Vec<u64> {
            let _sink = exec.record_trace();
            ivf.search_batch(&queries, 10);
            let trace = exec
                .finish_trace("ivf-flat-scan")
                .expect("recording was on");
            trace
                .records
                .iter()
                .filter_map(|r| match &r.body {
                    RecordBody::Kernel { name, flops, .. } if name == "ivf_flat_scan" => {
                        Some(*flops)
                    }
                    _ => None,
                })
                .collect()
        };
        // The host scan calls `dot` once per scanned row: `dim` multiplies
        // and `dim` adds. Full probe scans every row for every query.
        assert_eq!(scan_flops(&ivf), vec![2 * 5 * 60 * 96]);
        ivf.set_nprobe(3);
        let plan = ivf.quant.plan(&queries, 3);
        let lists = &ivf.shards()[0].ids;
        let scanned: u64 = plan
            .probes
            .iter()
            .flatten()
            .map(|&l| lists[l].len() as u64)
            .sum();
        assert!(scanned < 5 * 60, "three of eight lists scan fewer rows");
        assert_eq!(scan_flops(&ivf), vec![2 * scanned * 96]);
    }

    #[test]
    fn probe_lists_are_the_prefix_of_a_full_sort_under_ties() {
        // Lists 1, 4 and 6 share a centroid, as do 2 and 5, and several
        // lists score a signed zero against the zero query: scores tie.
        let rows: [[f32; 3]; 8] = [
            [0.5, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 2.0],
            [-1.0, 0.5, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 2.0],
            [1.0, 1.0, 0.0],
            [0.0, -0.0, 0.0],
        ];
        let centroids = rows.concat();
        let quant = Quantizer {
            dim: 3,
            panels: Panels::new(&centroids, 3),
            centroids,
            codebook: None,
            coarse: LloydRun::default(),
        };
        let queries = vec![
            vec![1.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0],
            vec![-1.0, -1.0, 1.0],
            vec![0.0, 0.0, -1.0],
        ];
        for nprobe in [1, 2, 3, 4, 8] {
            let plan = quant.plan(&queries, nprobe);
            for (q, query) in queries.iter().enumerate() {
                let scores = &plan.coarse[q];
                for (row, score) in rows.iter().zip(scores) {
                    let want: f32 = row.iter().zip(query).map(|(a, b)| a * b).sum();
                    assert_eq!(score.to_bits(), want.to_bits(), "coarse score");
                }
                let mut ranked: Vec<usize> = (0..8).collect();
                ranked.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
                ranked.truncate(nprobe);
                assert_eq!(plan.probes[q], ranked, "query {q} nprobe {nprobe}");
            }
        }
        let top = quant.plan(&queries, 1).probes;
        assert_eq!(top, vec![vec![1], vec![0], vec![2], vec![0]]);
    }

    /// The row-at-a-time PQ encoder: for every subspace, the lowest code
    /// at the least squared L2 distance from the residual's slice.
    fn scalar_encode(cb: &PqCodebook, residual: &[f32]) -> Vec<u8> {
        use crate::panel::tests::scalar_argmin;
        let (ksub, dsub) = (cb.ksub(), cb.dsub());
        residual
            .chunks_exact(dsub)
            .zip(cb.centroids().chunks_exact(ksub * dsub))
            .map(|(sub, book)| scalar_argmin(book, dsub, sub) as u8)
            .collect()
    }

    #[test]
    fn built_codes_are_the_scalar_encode_of_each_residual() {
        use crate::shard::{Placement, ShardPlan};
        use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
        let (_, _, data) = indexed_corpus(1_000);
        // The serving layout (16 × 6 bits) and A12's (32 × 8 bits).
        for pq in [PqConfig::new(16, 6), PqConfig::new(32, 8)] {
            let plan = ShardPlan {
                nlist: 16,
                nprobe: 4,
                pq,
                sample: 600,
                shards: 2,
                refine: 0,
                placement: Placement::SizeBalanced,
                budget_bytes: None,
            };
            let gpus = Arc::new(GpuCluster::homogeneous(2, DeviceSpec::t4(), LinkKind::Pcie));
            let index = IvfIndex::build(96, plan, &data, gpus, 9).expect("builds");
            let quant = &index.quant;
            let cb = quant.codebook.as_ref().expect("Pq codec");
            let mut coded = 0;
            for shard in index.shards() {
                let Rows::Pq(lists) = &shard.rows else {
                    panic!("Pq codec stores codes");
                };
                for (list, docs) in shard.ids.iter().enumerate() {
                    for (&doc, codes) in docs.iter().zip(lists[list].chunks_exact(pq.m)) {
                        assert_eq!(data[doc].0, doc);
                        let r = residual(&data[doc].1, quant.centroid(list));
                        assert_eq!(codes, scalar_encode(cb, &r), "doc {doc} under {pq:?}");
                        coded += 1;
                    }
                }
            }
            assert_eq!(coded, data.len());
        }
    }

    #[test]
    fn top_k_truncates_and_orders() {
        let hits = top_k(
            vec![
                SearchHit {
                    doc_id: 1,
                    score: 0.5,
                },
                SearchHit {
                    doc_id: 2,
                    score: 0.9,
                },
                SearchHit {
                    doc_id: 3,
                    score: 0.7,
                },
            ],
            2,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].doc_id, 2);
        assert_eq!(hits[1].doc_id, 3);
    }

    /// Scores drawn from a small palette so ties are common, including
    /// both zeros and both NaN signs (`total_cmp` orders all of them).
    const SCORES: [f32; 8] = [-1.0, -0.0, 0.0, 0.25, 0.25, 1.0, f32::NAN, -f32::NAN];

    /// Bit patterns, so NaN scores compare equal to themselves.
    fn bits(hits: &[SearchHit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_top_k_matches_top_k_and_full_sort(
            docs in proptest::collection::vec(0usize..30, 0..60),
            scores in proptest::collection::vec(0usize..SCORES.len(), 60..61),
            k in 0usize..70,
        ) {
            let hits: Vec<SearchHit> = docs
                .iter()
                .zip(&scores)
                .map(|(&doc_id, &s)| SearchHit { doc_id, score: SCORES[s] })
                .collect();
            let mut sorted = hits.clone();
            sorted.sort_by(hit_order);
            sorted.truncate(k);
            let mut streamed = TopK::new(k);
            for &hit in &hits {
                streamed.push(hit);
            }
            let streamed = bits(&streamed.into_sorted());
            proptest::prop_assert_eq!(&streamed, &bits(&top_k(hits, k)));
            proptest::prop_assert_eq!(&streamed, &bits(&sorted));
        }
    }

    #[test]
    fn top_k_of_shard_top_ks_matches_top_k_of_all_candidates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for trial in 0..40 {
            let shards = rng.gen_range(1..6usize);
            let k = rng.gen_range(0..12usize);
            let mut next_doc = 0usize;
            let candidates: Vec<Vec<SearchHit>> = (0..shards)
                .map(|_| {
                    let n = rng.gen_range(0..20usize);
                    (0..n)
                        .map(|_| {
                            let doc_id = next_doc;
                            next_doc += 1;
                            SearchHit {
                                doc_id,
                                // Coarse grid to force score ties across shards.
                                score: (rng.gen_range(-4..4i32) as f32) / 2.0,
                            }
                        })
                        .collect()
                })
                .collect();
            let local: Vec<SearchHit> = candidates
                .iter()
                .flat_map(|hits| top_k(hits.clone(), k))
                .collect();
            assert_eq!(
                top_k(local, k),
                top_k(candidates.concat(), k),
                "trial {trial}, shards {shards}, k {k}"
            );
        }
    }

    #[test]
    fn nan_scores_do_not_panic_and_keep_finite_order() {
        // Regression: `partial_cmp(...).expect("finite")` panicked here.
        let hits = vec![
            SearchHit {
                doc_id: 0,
                score: 0.4,
            },
            SearchHit {
                doc_id: 1,
                score: f32::NAN,
            },
            SearchHit {
                doc_id: 2,
                score: 0.9,
            },
            SearchHit {
                doc_id: 3,
                score: 0.1,
            },
        ];
        let got = top_k(hits, 3);
        assert_eq!(got.len(), 3);
        // total_cmp ranks NaN above every finite score; the finite hits
        // keep their relative order behind it.
        assert_eq!(got[0].doc_id, 1);
        assert!(got[0].score.is_nan());
        assert_eq!(got[1].doc_id, 2);
        assert_eq!(got[2].doc_id, 0);
    }

    #[test]
    fn ivf_recall_is_monotone_in_nprobe() {
        let (_, _, data) = indexed_corpus(200);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let mut ivf = IvfIndex::train(96, 16, 1, Codec::Full, &data, 2).expect("trains");
        let queries: Vec<&Vec<f32>> = (0..10).map(|i| &data[i * 17].1).collect();
        let exact: Vec<Vec<SearchHit>> = queries.iter().map(|q| flat.search(q, 5)).collect();
        let mut prev = -1.0;
        for nprobe in 1..=ivf.nlist() {
            ivf.set_nprobe(nprobe);
            let mean: f64 = queries
                .iter()
                .zip(&exact)
                .map(|(q, e)| recall_at_k(e, &ivf.search(q, 5)))
                .sum::<f64>()
                / queries.len() as f64;
            assert!(
                mean >= prev - 1e-12,
                "recall dropped from {prev} to {mean} at nprobe {nprobe}"
            );
            prev = mean;
        }
        assert_eq!(prev, 1.0, "probing every list must reach full recall");
    }

    #[test]
    fn ivf_full_probe_reproduces_flat_results_exactly() {
        // nprobe == nlist scans every vector with the same dot-product
        // accumulation order as the flat index, so the hit lists must be
        // identical — doc ids *and* bitwise scores.
        let (_, _, data) = indexed_corpus(60);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let ivf = IvfIndex::train(96, 8, 8, Codec::Full, &data, 5).expect("trains");
        assert_eq!(ivf.nprobe(), ivf.nlist());
        for i in 0..12 {
            let q = &data[i * 5].1;
            assert_eq!(flat.search(q, 10), ivf.search(q, 10), "query {i}");
        }
    }

    #[test]
    fn device_bytes_reflect_index_layouts() {
        let (_, _, data) = indexed_corpus(40);
        let mut flat = FlatIndex::new(96);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        assert_eq!(flat.device_bytes(), 4 * 40 * 96);
        let ivf = IvfIndex::train(96, 8, 4, Codec::Full, &data, 1).expect("trains");
        assert_eq!(ivf.device_bytes(), 4 * (8 * 96 + 40 * 96));
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(8);
        assert!(idx.search(&[0.0; 8], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn recall_of_empty_baseline_is_one() {
        assert_eq!(recall_at_k(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn dimension_mismatch_panics() {
        let mut idx = FlatIndex::new(8);
        idx.add(0, vec![0.0; 4]);
    }
}
