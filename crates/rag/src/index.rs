//! Vector indexes: exact flat search and IVF approximate search.
//!
//! [`FlatIndex`] is FAISS's `IndexFlatIP`: exact dot-product scan, optionally
//! executed on a simulated GPU (Lab 12's "GPU-enabled retriever").
//! [`IvfIndex`] is `IndexIVFFlat`: a k-means coarse quantizer buckets
//! vectors into `nlist` inverted lists; queries probe only the `nprobe`
//! nearest lists, trading recall for latency — the knob the course's
//! latency-optimization lab turns.
//!
//! The read path and the build path are separate contracts:
//! [`RetrievalIndex`] is everything a serving layer needs (search, batched
//! search, footprint) and is object-shaped enough to cover immutable
//! compound indexes like [`crate::shard::ShardedIndex`]; [`VectorIndex`]
//! extends it with `add` for indexes that grow in place.

use crate::error::IndexError;
use rand::prelude::*;
use rand::rngs::SmallRng;
use rayon::prelude::*;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::residency::DeviceTensor;
use std::sync::{Arc, Mutex};

/// One search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    pub doc_id: usize,
    pub score: f32,
}

/// The read-side index contract: everything retrieval and serving need,
/// implemented by every index shape (flat, IVF, IVF-PQ, sharded).
pub trait RetrievalIndex: Send + Sync {
    /// Returns the top-`k` hits for `query`, best first.
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit>;
    /// Searches many queries in one pass. The default walks queries one by
    /// one; GPU-backed indexes override it with batched device scoring.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }
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

/// The build-side extension: indexes that can grow in place.
pub trait VectorIndex: RetrievalIndex {
    /// Adds a vector under a document id.
    fn add(&mut self, doc_id: usize, vector: Vec<f32>);
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
/// (flat) or every probed list (IVF), while `k` is a handful.
pub(crate) fn top_k(scores: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    let mut best = TopK::new(k);
    for hit in scores {
        best.push(hit);
    }
    best.into_sorted()
}

/// Merges two lists already sorted by [`hit_order`], keeping at most `k`.
fn merge_two(a: Vec<SearchHit>, b: Vec<SearchHit>, k: usize) -> Vec<SearchHit> {
    let mut out = Vec::with_capacity(k.min(a.len() + b.len()));
    let (mut ai, mut bi) = (0usize, 0usize);
    while out.len() < k && (ai < a.len() || bi < b.len()) {
        let take_a = match (a.get(ai), b.get(bi)) {
            (Some(x), Some(y)) => hit_order(x, y) != std::cmp::Ordering::Greater,
            (Some(_), None) => true,
            _ => false,
        };
        if take_a {
            out.push(a[ai]);
            ai += 1;
        } else {
            out.push(b[bi]);
            bi += 1;
        }
    }
    out
}

/// The gather-side top-k merge tree: pairwise-merges per-shard hit lists
/// (each already sorted by the ranking order, as `top_k` returns them)
/// round by round until one list of at most `k` survivors remains —
/// `log₂(shards)` merge rounds instead of re-sorting the concatenation.
///
/// Because the ranking order is total (ties broken by `doc_id` via
/// `total_cmp`) and document ids are unique across shards, the result is
/// exactly `top_k` of the concatenated candidates regardless of shard
/// order — the property that makes sharded search bit-identical to a
/// single-shard scan.
pub fn merge_top_k(lists: Vec<Vec<SearchHit>>, k: usize) -> Vec<SearchHit> {
    if k == 0 {
        return Vec::new();
    }
    let mut round = lists;
    while round.len() > 1 {
        let mut next = Vec::with_capacity(round.len().div_ceil(2));
        let mut it = round.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(a, b, k)),
                None => next.push(a),
            }
        }
        round = next;
    }
    let mut out = round.pop().unwrap_or_default();
    out.truncate(k);
    out
}

/// Inner-product of one row against a query, in index order — the single
/// scoring expression shared by the flat scan, the coarse quantizer, and
/// the GPU executor's `dot_scores`, which is what keeps CPU, GPU, and
/// batched paths bit-identical.
#[inline]
pub(crate) fn dot(row: &[f32], query: &[f32]) -> f32 {
    row.iter().zip(query).map(|(a, b)| a * b).sum()
}

/// Index of the centroid with the highest inner product (first wins on
/// ties) — the coarse-assignment rule shared by training, [`IvfIndex::add`],
/// and shard construction, so every path buckets a vector identically.
pub(crate) fn nearest_centroid(centroids: &[f32], dim: usize, v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_score = f32::NEG_INFINITY;
    for c in 0..centroids.len() / dim {
        let score = dot(&centroids[c * dim..(c + 1) * dim], v);
        if score > best_score {
            best_score = score;
            best = c;
        }
    }
    best
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

impl VectorIndex for FlatIndex {
    fn add(&mut self, doc_id: usize, vector: Vec<f32>) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        self.ids.push(doc_id);
        self.vectors.extend(vector);
        *self.device_mat.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Seeded Lloyd k-means over unit vectors under inner-product assignment:
/// the coarse-quantizer trainer shared by [`IvfIndex`] and
/// [`crate::pq::IvfPqIndex`]. Returns `(centroids, assignments)` or a
/// typed error: an empty corpus, `nlist` larger than the corpus, and
/// clusters that stay empty even after deterministic re-seeding (fewer
/// distinct vectors than lists) are all [`IndexError`]s, never panics or
/// silently degenerate centroids.
pub(crate) fn train_coarse(
    dim: usize,
    nlist: usize,
    data: &[(usize, Vec<f32>)],
    seed: u64,
) -> Result<(Vec<f32>, Vec<usize>), IndexError> {
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

    // Seeded init from distinct data points.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pick: Vec<usize> = (0..data.len()).collect();
    pick.shuffle(&mut rng);
    let mut centroids: Vec<f32> = pick[..nlist]
        .iter()
        .flat_map(|&i| data[i].1.iter().copied())
        .collect();

    let mut assignments = vec![0usize; data.len()];
    for _ in 0..10 {
        // Assignment step.
        let new_assignments: Vec<usize> = data
            .par_iter()
            .map(|(_, v)| nearest_centroid(&centroids, dim, v))
            .collect();
        let changed = new_assignments != assignments;
        assignments = new_assignments;
        // Update step (mean, renormalized — vectors are unit length).
        let mut sums = vec![0.0f32; nlist * dim];
        let mut counts = vec![0usize; nlist];
        for ((_, v), &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(v) {
                *s += x;
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                continue; // re-seeded after the loop if still empty
            }
            let slice = &mut sums[c * dim..(c + 1) * dim];
            let norm = slice.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                slice.iter_mut().for_each(|x| *x /= norm);
            }
            centroids[c * dim..(c + 1) * dim].copy_from_slice(slice);
        }
        if !changed {
            break;
        }
    }

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
            let donor = (0..nlist).max_by_key(|&d| counts[d]).expect("nlist >= 1");
            if counts[donor] <= 1 {
                return Err(IndexError::EmptyCluster { list: c });
            }
            // Worst-fitting member: lowest similarity to the donor centroid,
            // lowest row on ties.
            let row = assignments
                .iter()
                .enumerate()
                .filter(|(_, &a)| a == donor)
                .map(|(row, _)| {
                    (
                        row,
                        dot(&centroids[donor * dim..(donor + 1) * dim], &data[row].1),
                    )
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .map(|(row, _)| row)
                .expect("donor is non-empty");
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[row].1);
            counts[donor] -= 1;
            counts[c] += 1;
            assignments[row] = c;
        }
        assignments = data
            .par_iter()
            .map(|(_, v)| nearest_centroid(&centroids, dim, v))
            .collect();
    }

    Ok((centroids, assignments))
}

/// IVF approximate index: k-means centroids + inverted lists.
pub struct IvfIndex {
    dim: usize,
    nprobe: usize,
    /// Row-major `nlist × dim`.
    centroids: Vec<f32>,
    /// Inverted lists: per centroid, (doc_id, vector offset) pairs.
    lists: Vec<Vec<usize>>,
    ids: Vec<usize>,
    vectors: Vec<f32>,
    gpu: Option<GpuExecutor>,
    /// Cached device-resident centroid matrix (uploaded lazily, one charged
    /// H2D). Centroids are immutable after training, so `add` never
    /// invalidates it.
    device_centroids: Mutex<Option<Arc<DeviceTensor>>>,
}

impl std::fmt::Debug for IvfIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvfIndex")
            .field("dim", &self.dim)
            .field("nlist", &self.lists.len())
            .field("nprobe", &self.nprobe)
            .field("len", &self.ids.len())
            .field("gpu", &self.gpu.is_some())
            .finish()
    }
}

impl IvfIndex {
    /// Trains the coarse quantizer on `data` and assigns every vector.
    ///
    /// `nprobe` is clamped to `nlist`. Degenerate configurations are typed
    /// errors: an empty corpus, `nlist > data.len()`, `nlist == 0`, or
    /// clusters left empty by k-means (see [`IndexError`]).
    pub fn train(
        dim: usize,
        nlist: usize,
        nprobe: usize,
        data: &[(usize, Vec<f32>)],
        seed: u64,
    ) -> Result<Self, IndexError> {
        let (centroids, assignments) = train_coarse(dim, nlist, data, seed)?;
        let nprobe = nprobe.clamp(1, nlist);

        // Build inverted lists.
        let mut lists = vec![Vec::new(); nlist];
        let mut ids = Vec::with_capacity(data.len());
        let mut vectors = Vec::with_capacity(data.len() * dim);
        for (row, ((doc_id, v), &a)) in data.iter().zip(&assignments).enumerate() {
            ids.push(*doc_id);
            vectors.extend(v.iter().copied());
            lists[a].push(row);
        }

        Ok(Self {
            dim,
            nprobe,
            centroids,
            lists,
            ids,
            vectors,
            gpu: None,
            device_centroids: Mutex::new(None),
        })
    }

    /// Routes centroid scoring through a simulated GPU: the centroid matrix
    /// is cached device-resident and queries are scored with the same
    /// batched kernels as [`FlatIndex`], so the server's micro-batcher no
    /// longer rebuilds per-query centroid work.
    pub fn with_gpu(mut self, gpu: GpuExecutor) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Lists probed per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Changes the probe count (clamped to `nlist`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.clamp(1, self.nlist());
    }

    /// Fraction of the database scanned per query, on average.
    pub fn scan_fraction(&self) -> f64 {
        let probed: usize = {
            // Average list size × nprobe / total.
            let total: usize = self.lists.iter().map(|l| l.len()).sum();
            if total == 0 {
                return 0.0;
            }
            total * self.nprobe / self.lists.len()
        };
        probed as f64 / self.ids.len().max(1) as f64
    }

    /// The cached device-resident centroid matrix.
    fn centroid_matrix(&self) -> Arc<DeviceTensor> {
        let gpu = self
            .gpu
            .as_ref()
            .expect("centroid matrix requires a GPU index");
        let mut cached = self
            .device_centroids
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        cached
            .get_or_insert_with(|| {
                let host = Tensor::from_vec(self.nlist(), self.dim, self.centroids.clone())
                    .expect("centroid shape");
                Arc::new(gpu.upload(&host).expect("centroids fit on device"))
            })
            .clone()
    }

    fn host_centroid_scores(&self, query: &[f32]) -> Vec<f32> {
        (0..self.nlist())
            .map(|c| dot(&self.centroids[c * self.dim..(c + 1) * self.dim], query))
            .collect()
    }

    /// Probes the `nprobe` best lists given precomputed centroid scores —
    /// the shared back half of `search` and `search_batch`.
    fn search_with_centroid_scores(
        &self,
        query: &[f32],
        centroid_scores: &[f32],
        k: usize,
    ) -> Vec<SearchHit> {
        let mut ranked: Vec<(usize, f32)> = centroid_scores.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut hits = Vec::new();
        for &(c, _) in ranked.iter().take(self.nprobe) {
            for &row in &self.lists[c] {
                let v = &self.vectors[row * self.dim..(row + 1) * self.dim];
                hits.push(SearchHit {
                    doc_id: self.ids[row],
                    score: dot(v, query),
                });
            }
        }
        top_k(hits, k)
    }
}

impl RetrievalIndex for IvfIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        assert_eq!(query.len(), self.dim, "query dim mismatch");
        if self.ids.is_empty() {
            return Vec::new();
        }
        let centroid_scores = match &self.gpu {
            Some(gpu) => {
                let mat = self.centroid_matrix();
                gpu.score_rows(&*mat, query).expect("gpu centroid scoring")
            }
            None => self.host_centroid_scores(query),
        };
        self.search_with_centroid_scores(query, &centroid_scores, k)
    }

    /// Batched centroid scoring through the cached device matrix, mirroring
    /// [`FlatIndex`]'s batch path: all queries score against the resident
    /// centroids in chunked double-buffered launches, then each probes its
    /// lists. Hits are bit-identical to per-query [`RetrievalIndex::search`].
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
        }
        if self.ids.is_empty() || queries.is_empty() {
            return queries.iter().map(|_| Vec::new()).collect();
        }
        let per_query: Vec<Vec<f32>> = match &self.gpu {
            Some(gpu) => {
                let mat = self.centroid_matrix();
                gpu.score_rows_batch(&*mat, queries)
                    .expect("gpu centroid scoring")
            }
            None => queries
                .iter()
                .map(|q| self.host_centroid_scores(q))
                .collect(),
        };
        queries
            .iter()
            .zip(per_query)
            .map(|(q, scores)| self.search_with_centroid_scores(q, &scores, k))
            .collect()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn device_bytes(&self) -> u64 {
        // Centroids plus the full-precision vectors the probed lists scan.
        4 * (self.centroids.len() + self.vectors.len()) as u64
    }
}

impl VectorIndex for IvfIndex {
    fn add(&mut self, doc_id: usize, vector: Vec<f32>) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        let best = nearest_centroid(&self.centroids, self.dim, &vector);
        let row = self.ids.len();
        self.ids.push(doc_id);
        self.vectors.extend(vector);
        self.lists[best].push(row);
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

    fn indexed_corpus(n: usize) -> (Corpus, Embedder, Vec<(usize, Vec<f32>)>) {
        let corpus = Corpus::synthetic(n, 80, 3);
        let embedder = Embedder::new(96, 11);
        let data: Vec<(usize, Vec<f32>)> = corpus
            .docs()
            .iter()
            .map(|d| (d.id, embedder.embed(&d.text)))
            .collect();
        (corpus, embedder, data)
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
        let ivf = IvfIndex::train(96, 8, 8, &data, 1).expect("trains");
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
        let mut ivf = IvfIndex::train(96, 16, 16, &data, 2).expect("trains");
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
            IvfIndex::train(96, 4, 4, &[], 1).unwrap_err(),
            IndexError::EmptyTrainingSet
        );
        // More lists than vectors (used to be silently clamped).
        assert_eq!(
            IvfIndex::train(96, 11, 4, &data, 1).unwrap_err(),
            IndexError::NlistExceedsCorpus {
                nlist: 11,
                corpus: 10
            }
        );
        // Zero lists.
        assert_eq!(
            IvfIndex::train(96, 0, 1, &data, 1).unwrap_err(),
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
        let err = IvfIndex::train(96, 4, 4, &data, 1).unwrap_err();
        assert!(
            matches!(err, IndexError::EmptyCluster { .. }),
            "expected EmptyCluster, got {err:?}"
        );
    }

    #[test]
    fn ivf_train_repairs_recoverable_empty_clusters() {
        // Two tight groups of distinct vectors with four lists: k-means
        // wants two clusters, so two lists start empty; the deterministic
        // re-seeding must fill them from the crowded lists.
        let (_, embedder, _) = indexed_corpus(1);
        let data: Vec<(usize, Vec<f32>)> = (0..12)
            .map(|i| {
                let topic = i % 2;
                (i, embedder.embed(&format!("topic {topic} variant {i}")))
            })
            .collect();
        let ivf = IvfIndex::train(96, 4, 4, &data, 1).expect("repair succeeds");
        assert!(
            ivf.lists.iter().all(|l| !l.is_empty()),
            "every list must own at least one vector: {:?}",
            ivf.lists.iter().map(|l| l.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ivf_add_after_train_is_searchable() {
        let (_, embedder, data) = indexed_corpus(20);
        let mut ivf = IvfIndex::train(96, 4, 4, &data, 3).expect("trains");
        let new_vec = embedder.embed("kernel kernel kernel occupancy warp");
        ivf.add(999, new_vec.clone());
        assert_eq!(ivf.len(), 21);
        let hits = ivf.search(&new_vec, 1);
        assert_eq!(hits[0].doc_id, 999);
    }

    #[test]
    fn ivf_batch_search_matches_per_query_on_cpu_and_gpu() {
        use gpu_sim::{DeviceSpec, Gpu};
        use std::sync::Arc;
        let (_, embedder, data) = indexed_corpus(60);
        let cpu = IvfIndex::train(96, 8, 3, &data, 5).expect("trains");
        let gpu_exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let gpu = IvfIndex::train(96, 8, 3, &data, 5)
            .expect("trains")
            .with_gpu(gpu_exec.clone());
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
    fn merge_tree_matches_top_k_of_concatenation() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for trial in 0..40 {
            let shards = rng.gen_range(1..6usize);
            let k = rng.gen_range(0..12usize);
            let mut next_doc = 0usize;
            let lists: Vec<Vec<SearchHit>> = (0..shards)
                .map(|_| {
                    let n = rng.gen_range(0..20usize);
                    let hits: Vec<SearchHit> = (0..n)
                        .map(|_| {
                            let doc_id = next_doc;
                            next_doc += 1;
                            SearchHit {
                                doc_id,
                                // Coarse grid to force score ties across shards.
                                score: (rng.gen_range(-4..4i32) as f32) / 2.0,
                            }
                        })
                        .collect();
                    top_k(hits, k)
                })
                .collect();
            let concatenated: Vec<SearchHit> = lists.iter().flatten().copied().collect();
            assert_eq!(
                merge_top_k(lists.clone(), k),
                top_k(concatenated, k),
                "trial {trial}, shards {shards}, k {k}"
            );
        }
        assert!(merge_top_k(vec![], 3).is_empty());
        assert!(merge_top_k(vec![vec![], vec![]], 0).is_empty());
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
        let mut ivf = IvfIndex::train(96, 16, 1, &data, 2).expect("trains");
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
        let ivf = IvfIndex::train(96, 8, 8, &data, 5).expect("trains");
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
        let ivf = IvfIndex::train(96, 8, 4, &data, 1).expect("trains");
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
