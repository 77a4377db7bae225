//! Online RAG serving: the request-facing layer of Assignment 4.
//!
//! [`crate::pipeline::RagPipeline`] answers *workloads* — a batch driver
//! walks a fixed query list. A deployed service sees individual requests
//! arriving at unpredictable times and must bound its own resources. This
//! module adds that layer, assembled from the course's serving lessons:
//!
//! - **Bounded admission with load-shedding** — at most
//!   [`ServerConfig::queue_capacity`] requests may be in flight; beyond
//!   that, [`RagServer::submit`] fails fast with
//!   [`ServeError::Overloaded`] instead of letting the queue (and tail
//!   latency) grow without bound.
//! - **Dynamic micro-batching** — a batcher thread coalesces whatever
//!   requests are waiting, dispatching when [`ServerConfig::max_batch`]
//!   requests have gathered or the [`ServerConfig::batch_window`] deadline
//!   ticks over, whichever comes first. Batched decode amortizes the
//!   generator's weight streaming exactly as transformer serving does.
//! - **LRU retrieval caching** — embedding + top-k retrieval is
//!   deterministic per query text, so repeats are answered from an LRU
//!   cache ([`RetrievalCache`]) and skip the index scan entirely.
//! - **Fault-tolerant dispatch** — batches run as cluster tasks under the
//!   configured [`RetryPolicy`], so the fault plans of PR 1 (worker
//!   crashes, stragglers, dropped results) are retried instead of
//!   panicking the server.
//! - **Per-stage observability** — queue-wait / retrieve / generate
//!   histograms, per-request [`RequestSpan`]s for the profiler's
//!   chrome-trace serving lanes, cache hit rates, and shed counts, all in
//!   the [`ServerReport`] returned by [`RagServer::shutdown`].
//!
//! Answers are seeded per *request* (admission order), not per batch, so
//! the text a request receives does not depend on which batch-mates it was
//! coalesced with — a fault-injected run returns the same answers as a
//! fault-free one.

use crate::index::{RetrievalIndex, SearchHit};
use crate::pipeline::{split_exact, RagPipeline, RagResponse};
use sagegpu_profiler::chrome_trace::RequestSpan;
use sagegpu_profiler::histogram::Histogram;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taskflow::future::TaskFuture;
use taskflow::metrics::SchedulerMetrics;
use taskflow::{LocalCluster, RetryPolicy, TaskError, TaskOptions};

// ---------------------------------------------------------------------
// Configuration and errors
// ---------------------------------------------------------------------

/// Tuning knobs for a [`RagServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Most requests coalesced into one dispatched batch.
    pub max_batch: usize,
    /// How long the batcher holds an underfull batch open waiting for
    /// company before dispatching anyway.
    pub batch_window: Duration,
    /// Admission bound: maximum requests in flight (queued, batching, or
    /// executing). Submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Retrieval-cache entries kept (0 disables caching).
    pub cache_capacity: usize,
    /// Retry/backoff policy for dispatched batches.
    pub retry: RetryPolicy,
    /// Base generation seed; request `i` generates with `seed + i`.
    pub seed: u64,
    /// Device byte budget for the index's inverted-list codes, applied to
    /// the pipeline's index at startup ([`crate::residency`] tiering —
    /// cold lists spill to host and promote on access). `None` leaves the
    /// index's own residency configuration untouched.
    pub residency_budget: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 8,
            batch_window: Duration::from_micros(500),
            queue_capacity: 128,
            cache_capacity: 512,
            retry: RetryPolicy::fixed(2, Duration::ZERO),
            seed: 0,
            residency_budget: None,
        }
    }
}

impl ServerConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    pub fn batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn residency_budget(mut self, bytes: u64) -> Self {
        self.residency_budget = Some(bytes);
        self
    }
}

/// Errors surfaced to request submitters and waiters.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission was refused: the in-flight bound is already met.
    Overloaded { in_flight: usize, capacity: usize },
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The dispatched batch exhausted its retry budget.
    Task(TaskError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                in_flight,
                capacity,
            } => write!(
                f,
                "request shed: {in_flight} requests in flight at capacity {capacity}"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Task(e) => write!(f, "batch dispatch failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TaskError> for ServeError {
    fn from(e: TaskError) -> Self {
        ServeError::Task(e)
    }
}

// ---------------------------------------------------------------------
// Retrieval cache
// ---------------------------------------------------------------------

/// Cache occupancy and hit-rate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone)]
struct CacheEntry {
    hits: Vec<SearchHit>,
    context: String,
    stamp: u64,
}

/// An LRU cache of `query text → (top-k hits, assembled context)`.
///
/// Retrieval is a pure function of the query text for a fixed index, so a
/// hit is exactly the result a cold search would produce, minus the index
/// scan. Recency is tracked with a lazily-compacted stamp queue: every
/// touch pushes a fresh `(key, stamp)` pair and eviction skips pairs whose
/// stamp no longer matches the live entry, keeping all operations O(1)
/// amortized.
pub struct RetrievalCache {
    capacity: usize,
    map: HashMap<String, CacheEntry>,
    order: VecDeque<(String, u64)>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
}

impl RetrievalCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        RetrievalCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, key: &str) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.push_back((key.to_owned(), stamp));
        stamp
    }

    /// Looks `query` up, refreshing its recency on a hit.
    pub fn get(&mut self, query: &str) -> Option<(Vec<SearchHit>, String)> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        let stamp = self.touch(query);
        match self.map.get_mut(query) {
            Some(entry) => {
                entry.stamp = stamp;
                self.hits += 1;
                Some((entry.hits.clone(), entry.context.clone()))
            }
            None => {
                // The speculative touch is stale; eviction will skip it.
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a retrieval result, evicting the least-recently-used entry
    /// when full.
    pub fn insert(&mut self, query: &str, hits: Vec<SearchHit>, context: String) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.touch(query);
        self.map.insert(
            query.to_owned(),
            CacheEntry {
                hits,
                context,
                stamp,
            },
        );
        while self.map.len() > self.capacity {
            match self.order.pop_front() {
                Some((key, stamp)) => {
                    if self.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                        self.map.remove(&key);
                    }
                }
                None => break,
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Response plumbing
// ---------------------------------------------------------------------

/// One served request's answer plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServedResponse {
    pub response: RagResponse,
    /// Admission-order request id (also the generation-seed offset).
    pub request_id: u64,
    /// Micro-batch the request was coalesced into, and its size.
    pub batch_id: u64,
    pub batch_size: usize,
    /// Whether retrieval was answered from the cache.
    pub cache_hit: bool,
    /// Time spent in the admission queue before dispatch (wall ns on the
    /// cluster clock).
    pub queue_wait_ns: u64,
}

#[derive(Debug)]
struct SlotInner {
    slot: Mutex<Option<Result<ServedResponse, ServeError>>>,
    cv: Condvar,
}

/// A waitable handle to a submitted request's eventual response.
#[derive(Debug)]
pub struct ResponseHandle {
    inner: Arc<SlotInner>,
}

impl ResponseHandle {
    /// Blocks until the request completes (or its batch fails).
    pub fn wait(self) -> Result<ServedResponse, ServeError> {
        let mut slot = self.inner.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn fulfill(slot: &SlotInner, result: Result<ServedResponse, ServeError>) {
    let mut guard = slot.slot.lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_none() {
        *guard = Some(result);
    }
    drop(guard);
    slot.cv.notify_all();
}

// ---------------------------------------------------------------------
// Server internals
// ---------------------------------------------------------------------

struct PendingRequest {
    id: u64,
    query: String,
    enqueue_ns: u64,
    slot: Arc<SlotInner>,
}

struct QueueState {
    pending: VecDeque<PendingRequest>,
    in_flight: usize,
    open: bool,
}

#[derive(Default)]
struct ServeStats {
    served: u64,
    failed: u64,
    batches: u64,
    queue_wait: Histogram,
    retrieve: Histogram,
    generate: Histogram,
    service: Histogram,
    spans: Vec<RequestSpan>,
    first_enqueue_ns: Option<u64>,
    last_done_ns: u64,
}

struct Shared<I: RetrievalIndex + 'static> {
    pipeline: Arc<RagPipeline<I>>,
    cluster: LocalCluster,
    cfg: ServerConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    cache: Arc<Mutex<RetrievalCache>>,
    stats: Mutex<ServeStats>,
    next_id: AtomicU64,
    shed: AtomicU64,
}

type BatchResult = Vec<(RagResponse, bool)>;

struct InFlightBatch {
    batch_id: u64,
    dispatch_ns: u64,
    requests: Vec<(u64, u64, Arc<SlotInner>)>, // (id, enqueue_ns, slot)
    future: TaskFuture<BatchResult>,
}

/// Answers one micro-batch on a worker: cache-aware retrieval, then one
/// shared batched decode with per-request seeds. Retrieval time is
/// attributed only to cache misses (hits never touched the device);
/// generation time is split exactly across the batch.
fn answer_batch_cached<I: RetrievalIndex + 'static>(
    pipeline: &RagPipeline<I>,
    cache: &Mutex<RetrievalCache>,
    queries: &[String],
    seeds: &[u64],
) -> BatchResult {
    let device = pipeline.gpu().gpu();
    let t0 = device.now_ns();
    // Cache pass first, then ONE batched index search over all misses —
    // GPU-backed indexes score every miss through their batched device
    // kernels instead of rebuilding per-query work inside the batcher.
    let mut per_query: Vec<Option<(Vec<SearchHit>, String, bool)>> = queries
        .iter()
        .map(|q| {
            cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(q)
                .map(|(hits, ctx)| (hits, ctx, true))
        })
        .collect();
    let miss_idx: Vec<usize> = (0..queries.len())
        .filter(|&i| per_query[i].is_none())
        .collect();
    if !miss_idx.is_empty() {
        let miss_queries: Vec<&str> = miss_idx.iter().map(|&i| queries[i].as_str()).collect();
        let retrieved = pipeline.retrieve_batch(&miss_queries);
        for (&i, (hits, ctx)) in miss_idx.iter().zip(retrieved) {
            cache.lock().unwrap_or_else(|e| e.into_inner()).insert(
                &queries[i],
                hits.clone(),
                ctx.clone(),
            );
            per_query[i] = Some((hits, ctx, false));
        }
    }
    let per_query: Vec<(Vec<SearchHit>, String, bool)> =
        per_query.into_iter().map(|e| e.expect("filled")).collect();
    let t1 = device.now_ns();
    let contexts: Vec<&str> = per_query.iter().map(|(_, c, _)| c.as_str()).collect();
    let answers = pipeline.generator.generate_batch_seeded(
        pipeline.gpu(),
        &contexts,
        pipeline.answer_tokens,
        seeds,
    );
    let t2 = device.now_ns();

    let n = queries.len() as u64;
    let misses = per_query.iter().filter(|(_, _, hit)| !hit).count() as u64;
    let mut miss_rank = 0u64;
    queries
        .iter()
        .zip(per_query)
        .zip(answers)
        .enumerate()
        .map(|(i, ((q, (hits, _, cache_hit)), answer))| {
            let retrieve_ns = if cache_hit {
                0
            } else {
                let share = split_exact(t1 - t0, misses.max(1), miss_rank);
                miss_rank += 1;
                share
            };
            (
                RagResponse {
                    query: q.clone(),
                    answer,
                    hits,
                    retrieve_ns,
                    generate_ns: split_exact(t2 - t1, n, i as u64),
                },
                cache_hit,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------

/// An online RAG server: bounded admission → micro-batcher → fault-tolerant
/// cluster dispatch, with an LRU retrieval cache shared by all workers.
///
/// ```
/// use sagegpu_rag::pipeline::build_flat_pipeline;
/// use sagegpu_rag::serve::{RagServer, ServerConfig};
/// use sagegpu_tensor::gpu_exec::GpuExecutor;
/// use gpu_sim::{DeviceSpec, Gpu};
/// use taskflow::ClusterBuilder;
/// use std::sync::Arc;
///
/// let gpu = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
/// let pipeline = Arc::new(build_flat_pipeline(30, 64, gpu, 7));
/// let cluster = ClusterBuilder::new().workers(2).build();
/// let server = RagServer::start(pipeline, cluster, ServerConfig::new());
/// let handle = server.submit("kernel occupancy shared memory").unwrap();
/// let served = handle.wait().unwrap();
/// assert!(!served.response.answer.is_empty());
/// let report = server.shutdown();
/// assert_eq!(report.served, 1);
/// ```
pub struct RagServer<I: RetrievalIndex + 'static> {
    shared: Arc<Shared<I>>,
    batcher: Option<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
}

impl<I: RetrievalIndex + 'static> RagServer<I> {
    /// Spawns the batcher and collector threads over `cluster` and starts
    /// accepting requests.
    pub fn start(pipeline: Arc<RagPipeline<I>>, cluster: LocalCluster, cfg: ServerConfig) -> Self {
        if let Some(budget) = cfg.residency_budget {
            // Serving under a memory budget: re-budget the index's
            // residency tier in place (a no-op for indexes without one).
            pipeline.index.set_residency_budget(budget);
        }
        let cache = Arc::new(Mutex::new(RetrievalCache::new(cfg.cache_capacity)));
        let shared = Arc::new(Shared {
            pipeline,
            cluster,
            cfg,
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                in_flight: 0,
                open: true,
            }),
            queue_cv: Condvar::new(),
            cache,
            stats: Mutex::new(ServeStats::default()),
            next_id: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        });

        let (tx, rx) = mpsc::channel::<InFlightBatch>();
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared, &tx))
        };
        let collector = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || collector_loop(&shared, &rx))
        };
        RagServer {
            shared,
            batcher: Some(batcher),
            collector: Some(collector),
        }
    }

    /// Admits one query, or sheds it when the in-flight bound is met.
    pub fn submit(&self, query: impl Into<String>) -> Result<ResponseHandle, ServeError> {
        let query = query.into();
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if !q.open {
            return Err(ServeError::ShuttingDown);
        }
        if q.in_flight >= self.shared.cfg.queue_capacity {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded {
                in_flight: q.in_flight,
                capacity: self.shared.cfg.queue_capacity,
            });
        }
        q.in_flight += 1;
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(SlotInner {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        q.pending.push_back(PendingRequest {
            id,
            query,
            enqueue_ns: self.shared.cluster.now_ns(),
            slot: Arc::clone(&slot),
        });
        drop(q);
        self.shared.queue_cv.notify_all();
        Ok(ResponseHandle { inner: slot })
    }

    /// Starts recording every command the pipeline's device submits into a
    /// portable `gpu_sim::TraceV1` — the batch-scoring kernels, staging
    /// copies, and stream syncs of every batch served from here on.
    pub fn record_trace(&self) -> gpu_sim::TraceSink {
        self.shared.pipeline.gpu().record_trace()
    }

    /// Stops recording and returns the finished trace artifact, or `None`
    /// when [`Self::record_trace`] was never called. Call after the
    /// traffic of interest has been served (typically right before
    /// [`Self::shutdown`]).
    pub fn finish_trace(&self, workload: &str) -> Option<gpu_sim::TraceV1> {
        self.shared.pipeline.gpu().finish_trace(workload)
    }

    /// Requests shed at admission since startup.
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Current retrieval-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats()
    }

    /// The underlying cluster's scheduler metrics (retries, steals, spans).
    pub fn scheduler_metrics(&self) -> SchedulerMetrics {
        self.shared.cluster.metrics()
    }

    /// Stops admissions, drains every queued request, joins the serving
    /// threads, and returns the aggregated report.
    pub fn shutdown(mut self) -> ServerReport {
        self.finish().expect("first shutdown produces a report")
    }

    fn finish(&mut self) -> Option<ServerReport> {
        let batcher = self.batcher.take()?;
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.open = false;
        }
        self.shared.queue_cv.notify_all();
        let _ = batcher.join();
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
        let stats =
            std::mem::take(&mut *self.shared.stats.lock().unwrap_or_else(|e| e.into_inner()));
        let cache = self.cache_stats();
        let retries = self.shared.cluster.metrics().total_retries();
        let span_ns = stats
            .last_done_ns
            .saturating_sub(stats.first_enqueue_ns.unwrap_or(0));
        let requests = stats.served + stats.failed;
        Some(ServerReport {
            served: stats.served,
            failed: stats.failed,
            shed: self.shed_count(),
            batches: stats.batches,
            mean_batch_size: if stats.batches == 0 {
                0.0
            } else {
                requests as f64 / stats.batches as f64
            },
            throughput_qps: if span_ns == 0 {
                0.0
            } else {
                stats.served as f64 / (span_ns as f64 * 1e-9)
            },
            queue_wait: stats.queue_wait,
            retrieve: stats.retrieve,
            generate: stats.generate,
            service: stats.service,
            cache,
            retries,
            spans: stats.spans,
            residency: self.shared.pipeline.index.residency_stats(),
            pools: self.shared.pipeline.index.pool_stats(),
        })
    }
}

impl<I: RetrievalIndex + 'static> Drop for RagServer<I> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

fn batcher_loop<I: RetrievalIndex + 'static>(shared: &Shared<I>, tx: &mpsc::Sender<InFlightBatch>) {
    let mut next_batch_id = 0u64;
    while let Some(batch) = collect_batch(shared) {
        if batch.is_empty() {
            continue;
        }
        let batch_id = next_batch_id;
        next_batch_id += 1;
        let dispatch_ns = shared.cluster.now_ns();
        let queries: Vec<String> = batch.iter().map(|r| r.query.clone()).collect();
        let seeds: Vec<u64> = batch
            .iter()
            .map(|r| shared.cfg.seed.wrapping_add(r.id))
            .collect();
        let pipeline = Arc::clone(&shared.pipeline);
        let cache = Arc::clone(&shared.cache);
        let opts = TaskOptions::new()
            .retry(shared.cfg.retry.clone())
            .label(format!("serve-batch-{batch_id}"));
        let future = shared.cluster.submit_with(opts, move |_ctx| {
            answer_batch_cached(&pipeline, &cache, &queries, &seeds)
        });
        let requests = batch
            .into_iter()
            .map(|r| (r.id, r.enqueue_ns, r.slot))
            .collect();
        if tx
            .send(InFlightBatch {
                batch_id,
                dispatch_ns,
                requests,
                future,
            })
            .is_err()
        {
            return; // collector is gone; nothing left to deliver to
        }
    }
}

/// Blocks for the next micro-batch: waits for a first request, then holds
/// the batch open until it fills or the batch-window deadline ticks over.
/// Returns `None` once the queue is closed and drained.
fn collect_batch<I: RetrievalIndex + 'static>(shared: &Shared<I>) -> Option<Vec<PendingRequest>> {
    let max_batch = shared.cfg.max_batch.max(1);
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    while q.pending.is_empty() {
        if !q.open {
            return None;
        }
        q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
    let mut batch = Vec::with_capacity(max_batch);
    let deadline = Instant::now() + shared.cfg.batch_window;
    loop {
        while batch.len() < max_batch {
            match q.pending.pop_front() {
                Some(r) => batch.push(r),
                None => break,
            }
        }
        if batch.len() >= max_batch || !q.open {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, timeout) = shared
            .queue_cv
            .wait_timeout(q, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        q = guard;
        if timeout.timed_out() && q.pending.is_empty() {
            break;
        }
    }
    Some(batch)
}

fn collector_loop<I: RetrievalIndex + 'static>(
    shared: &Shared<I>,
    rx: &mpsc::Receiver<InFlightBatch>,
) {
    while let Ok(batch) = rx.recv() {
        let result = batch.future.wait();
        let done_ns = shared.cluster.now_ns();
        let batch_size = batch.requests.len();
        {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.in_flight -= batch_size;
        }
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.batches += 1;
        match result {
            Ok(responses) => {
                for ((id, enqueue_ns, slot), (response, cache_hit)) in
                    batch.requests.into_iter().zip(responses)
                {
                    let queue_wait_ns = batch.dispatch_ns.saturating_sub(enqueue_ns);
                    stats.served += 1;
                    stats.queue_wait.record(queue_wait_ns);
                    stats.retrieve.record(response.retrieve_ns);
                    stats.generate.record(response.generate_ns);
                    stats.service.record(response.total_ns());
                    stats.first_enqueue_ns = Some(match stats.first_enqueue_ns {
                        Some(first) => first.min(enqueue_ns),
                        None => enqueue_ns,
                    });
                    stats.last_done_ns = stats.last_done_ns.max(done_ns);
                    stats.spans.push(RequestSpan {
                        request_id: id,
                        batch_id: batch.batch_id,
                        enqueue_ns,
                        dispatch_ns: batch.dispatch_ns,
                        retrieve_ns: response.retrieve_ns,
                        generate_ns: response.generate_ns,
                        cache_hit,
                    });
                    fulfill(
                        &slot,
                        Ok(ServedResponse {
                            response,
                            request_id: id,
                            batch_id: batch.batch_id,
                            batch_size,
                            cache_hit,
                            queue_wait_ns,
                        }),
                    );
                }
            }
            Err(err) => {
                for (_, enqueue_ns, slot) in batch.requests {
                    stats.failed += 1;
                    stats.first_enqueue_ns = Some(match stats.first_enqueue_ns {
                        Some(first) => first.min(enqueue_ns),
                        None => enqueue_ns,
                    });
                    stats.last_done_ns = stats.last_done_ns.max(done_ns);
                    fulfill(&slot, Err(ServeError::Task(err.clone())));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Everything a shut-down server observed, per stage.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Requests answered successfully.
    pub served: u64,
    /// Requests whose batch exhausted its retry budget.
    pub failed: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Micro-batches dispatched, and their mean size.
    pub batches: u64,
    pub mean_batch_size: f64,
    /// Served requests per wall-clock second (cluster clock, admission of
    /// the first request to completion of the last).
    pub throughput_qps: f64,
    /// Wall-clock time spent in the admission queue.
    pub queue_wait: Histogram,
    /// Simulated retrieval time (0 for cache hits).
    pub retrieve: Histogram,
    /// Simulated generation time.
    pub generate: Histogram,
    /// Simulated service time per request (retrieve + generate).
    pub service: Histogram,
    /// Retrieval-cache counters at shutdown.
    pub cache: CacheStats,
    /// Task retries the cluster performed on the server's behalf.
    pub retries: u64,
    /// Per-request lifecycles for the profiler's serving lanes.
    pub spans: Vec<RequestSpan>,
    /// Tiered-residency counters from the index at shutdown (merged
    /// across shards); `None` when the index has no residency tier.
    pub residency: Option<crate::residency::TierStats>,
    /// Per-device memory-pool counters from the index at shutdown.
    pub pools: Vec<gpu_sim::pool::PoolStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::pipeline::build_flat_pipeline;
    use gpu_sim::{DeviceSpec, Gpu};
    use sagegpu_profiler::chrome_trace::ChromeTrace;
    use sagegpu_tensor::gpu_exec::GpuExecutor;
    use taskflow::ClusterBuilder;

    fn gpu() -> GpuExecutor {
        GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())))
    }

    #[test]
    fn lru_cache_hits_evicts_and_counts() {
        let mut c = RetrievalCache::new(2);
        let hit = |id: usize| SearchHit {
            doc_id: id,
            score: 1.0,
        };
        assert_eq!(c.get("a"), None);
        c.insert("a", vec![hit(1)], "ctx-a".into());
        c.insert("b", vec![hit(2)], "ctx-b".into());
        assert_eq!(c.get("a"), Some((vec![hit(1)], "ctx-a".into())));
        // "b" is now least-recently-used; inserting "c" evicts it.
        c.insert("c", vec![hit(3)], "ctx-c".into());
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some((vec![hit(1)], "ctx-a".into())));
        assert_eq!(c.get("c"), Some((vec![hit(3)], "ctx-c".into())));
        let stats = c.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mut c = RetrievalCache::new(0);
        c.insert("a", vec![], "ctx".into());
        assert_eq!(c.get("a"), None);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn reinserting_a_key_does_not_grow_the_cache() {
        let mut c = RetrievalCache::new(2);
        for i in 0..10 {
            c.insert("same", vec![], format!("ctx-{i}"));
        }
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.get("same"), Some((vec![], "ctx-9".into())));
    }

    #[test]
    fn served_traffic_records_a_replayable_trace() {
        // The serving path's command stream — batch-scoring kernels,
        // staging copies, stream syncs — captured through the submit
        // interposer must identity-replay exactly, with no server around.
        let pipeline = Arc::new(build_flat_pipeline(40, 64, gpu(), 5));
        let cluster = ClusterBuilder::new().workers(2).build();
        let server = RagServer::start(pipeline, cluster, ServerConfig::new());
        let _sink = server.record_trace();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                server
                    .submit(Corpus::topic_query(i % 3, 5, i as u64))
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let trace = server.finish_trace("rag-serve").expect("recording was on");
        server.shutdown();
        assert!(trace.kernel_launches >= 1, "batches charged kernels");
        let rep = gpu_sim::trace::replay(&trace, &gpu_sim::WhatIf::default()).unwrap();
        assert_eq!(rep.sim_time_ns, trace.sim_time_ns);
        assert_eq!(rep.submissions, trace.submissions());
        assert_eq!(rep.kernel_launches, trace.kernel_launches);
    }

    #[test]
    fn server_answers_queries_and_reports_stages() {
        let pipeline = Arc::new(build_flat_pipeline(40, 64, gpu(), 5));
        let cluster = ClusterBuilder::new().workers(2).build();
        let server = RagServer::start(pipeline, cluster, ServerConfig::new());
        let handles: Vec<_> = (0..10)
            .map(|i| {
                server
                    .submit(Corpus::topic_query(i % 5, 5, i as u64))
                    .expect("capacity is ample")
            })
            .collect();
        for h in handles {
            let served = h.wait().unwrap();
            assert!(!served.response.answer.is_empty());
            assert_eq!(served.response.hits.len(), 3);
            assert!(served.batch_size >= 1);
        }
        let report = server.shutdown();
        assert_eq!(report.served, 10);
        assert_eq!(report.failed, 0);
        assert_eq!(report.shed, 0);
        assert!(report.batches >= 1 && report.batches <= 10);
        assert!(report.mean_batch_size >= 1.0);
        assert_eq!(report.generate.count(), 10);
        assert_eq!(report.queue_wait.count(), 10);
        assert_eq!(report.spans.len(), 10);
        assert!(report.throughput_qps > 0.0);
        // The trace is valid JSON with a process name, 3 lanes and 3
        // slices per request.
        let trace = ChromeTrace::new().serving(&report.spans).to_json();
        let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
        assert_eq!(parsed["traceEvents"].as_array().unwrap().len(), 1 + 3 + 30);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let pipeline = Arc::new(build_flat_pipeline(20, 64, gpu(), 3));
        let cluster = ClusterBuilder::new().workers(1).build();
        // A long batch window would park requests; shutdown must not lose
        // them.
        let server = RagServer::start(
            pipeline,
            cluster,
            ServerConfig::new()
                .max_batch(64)
                .batch_window(Duration::from_secs(5)),
        );
        let handles: Vec<_> = (0..4)
            .map(|i| server.submit(Corpus::topic_query(i, 4, i as u64)).unwrap())
            .collect();
        let report = server.shutdown();
        assert_eq!(report.served, 4);
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let pipeline = Arc::new(build_flat_pipeline(20, 64, gpu(), 3));
        let cluster = ClusterBuilder::new().workers(1).build();
        let server = RagServer::start(pipeline, cluster, ServerConfig::new());
        // Close the queue through the shared state the way Drop would,
        // then verify the public error path.
        {
            let mut q = server.shared.queue.lock().unwrap();
            q.open = false;
        }
        assert_eq!(
            server.submit("anything").unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn serve_error_display_is_informative() {
        let e = ServeError::Overloaded {
            in_flight: 8,
            capacity: 8,
        };
        assert!(e.to_string().contains("capacity 8"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
        let t = ServeError::from(TaskError::Panicked("boom".into()));
        assert!(t.to_string().contains("boom"));
    }
}
