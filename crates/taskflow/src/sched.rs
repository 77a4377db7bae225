//! The shared work-stealing deque scheduler behind [`crate::cluster::LocalCluster`].
//!
//! A *worker* is a context, not a thread: its two FIFO deques, its
//! [`ObjectStore`], its pinned [`Gpu`] and its counters. A *pinned* queue
//! holds `submit_to` tasks (data/GPU affinity — never stolen) and a
//! *stealable* queue holds plain `submit` tasks, placed round-robin.
//!
//! The scheduler runs a cluster's `n` workers on
//! `min(n, rayon::available_cores())` OS threads. A thread claims a worker
//! that is not already running a task, pops one job from that worker's
//! pinned queue (else its stealable queue), runs the whole job with the
//! worker's [`WorkerCtx`], releases the claim, and goes straight on to the
//! next runnable worker in ring order. So a worker runs at most one task at
//! a time and its pinned tasks run in submission order, whichever thread
//! picks each one up. Only when no unclaimed worker has work of its own
//! does a thread steal, and only under [`Dispatch::WorkStealing`]: it
//! claims an idle worker and pops one task from the *back* of a
//! neighbour's stealable deque (owners pop from the front, so thief and
//! owner contend on opposite ends). [`Dispatch::RoundRobin`] disables
//! stealing, the static-partitioning baseline the ablation compares
//! against.
//!
//! Threads park on a condvar keyed by a generation counter. Every push
//! bumps the generation and wakes at most one parked thread; a thread that
//! saw no runnable work re-scans instead of sleeping if the generation
//! moved since its scan began, and a thread that releases a worker always
//! re-scans before it parks, so neither a push nor a released worker's
//! backlog can be stranded. Dropping the scheduler marks shutdown, wakes
//! everyone, and joins; threads drain every queue before exiting, so every
//! accepted task is executed.
//!
//! Each thread caps the data parallelism of the tasks it runs at
//! `max(1, cores / threads)`, so rayon-style `par_*` calls inside a task
//! split this thread's share of the cores instead of spawning onto cores
//! the other threads already fill.

use crate::metrics::{SchedulerMetrics, TaskSpan, WorkerMetrics};
use crate::policy::Dispatch;
use crate::store::ObjectStore;
use crate::worker::WorkerCtx;
use gpu_sim::GpuCluster;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work. The closure encapsulates the full attempt loop (fault
/// injection, retries, deadline, promise fulfillment) built at submit time.
pub(crate) type Job = Box<dyn FnOnce(ExecEnv<'_>) + Send>;

/// What the executing job sees: the worker context plus scheduler services
/// (clock, span recording).
pub(crate) struct ExecEnv<'a> {
    pub(crate) ctx: &'a WorkerCtx,
    pub(crate) stolen: bool,
    inner: &'a Inner,
}

impl ExecEnv<'_> {
    /// Nanoseconds since the cluster epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// Records one executed attempt: aggregate counters always, the span
    /// itself only when span recording is enabled.
    pub(crate) fn record_attempt(&self, span: TaskSpan) {
        let worker = self.ctx.worker_id;
        {
            let mut counters = lock(&self.inner.workers[worker].counters);
            counters.tasks_run += 1;
            counters.busy_ns += span.dur_ns();
            if span.attempt > 0 {
                counters.retries += 1;
            }
        }
        if self.inner.record_spans {
            lock(&self.inner.spans).push(span);
        }
    }

    /// Records a marker span (e.g. deadline abandonment) that did not
    /// execute the task body, so it must not count as an attempt.
    pub(crate) fn record_marker(&self, span: TaskSpan) {
        if self.inner.record_spans {
            lock(&self.inner.spans).push(span);
        }
    }
}

/// One worker: its queues, the context its tasks run with, its counters,
/// and the claim that keeps it on at most one thread at a time.
struct Worker {
    /// `submit_to` tasks — affinity-bound, never stolen.
    pinned: Mutex<VecDeque<Job>>,
    /// `submit` tasks — stealable under [`Dispatch::WorkStealing`].
    stealable: Mutex<VecDeque<Job>>,
    /// Set while a thread runs one of this worker's tasks.
    claimed: AtomicBool,
    ctx: WorkerCtx,
    counters: Mutex<WorkerMetrics>,
}

impl Worker {
    /// Takes the worker for the calling thread. The `Acquire` pairs with
    /// [`release`](Self::release)'s `Release`, so the new holder sees
    /// everything the previous holder's task wrote.
    fn try_claim(&self) -> bool {
        !self.claimed.load(Ordering::Relaxed)
            && self
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    fn release(&self) {
        self.claimed.store(false, Ordering::Release);
    }

    /// The front of this worker's own queues, pinned first. Holds one
    /// queue lock at a time: [`push`](Self::push) takes both, in either
    /// order.
    fn pop_own(&self) -> Option<Job> {
        let pinned = lock(&self.pinned).pop_front();
        pinned.or_else(|| lock(&self.stealable).pop_front())
    }

    /// Records a push and the resulting queue depth.
    fn push(&self, job: Job, pinned: bool) {
        let depth = {
            let (mut own, other) = if pinned {
                (lock(&self.pinned), &self.stealable)
            } else {
                (lock(&self.stealable), &self.pinned)
            };
            own.push_back(job);
            own.len() + lock(other).len()
        };
        let mut counters = lock(&self.counters);
        counters.max_queue_depth = counters.max_queue_depth.max(depth);
    }
}

struct Gate {
    generation: u64,
    /// Threads parked on the condvar.
    idle: usize,
    shutdown: bool,
}

struct Inner {
    /// Cluster-unique id, so a future can tell whether it is being waited
    /// on from one of its own cluster's threads.
    id: u64,
    workers: Vec<Worker>,
    dispatch: Dispatch,
    gate: Mutex<Gate>,
    cv: Condvar,
    epoch: Instant,
    spans: Mutex<Vec<TaskSpan>>,
    record_spans: bool,
}

/// Poison-tolerant lock: a panicking task must not wedge the scheduler.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// The id of the cluster whose scheduler thread this is, if any.
    static CLUSTER: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Whether the calling thread is one of cluster `id`'s scheduler threads,
/// i.e. the caller is a task of that cluster.
pub(crate) fn on_cluster_thread(id: u64) -> bool {
    CLUSTER.with(Cell::get) == Some(id)
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Signals new work to at most one parked thread.
    fn bump(&self) {
        let mut gate = lock(&self.gate);
        gate.generation = gate.generation.wrapping_add(1);
        let idle = gate.idle > 0;
        drop(gate);
        if idle {
            self.cv.notify_one();
        }
    }

    /// Claims a runnable worker and pops its next job, scanning in ring
    /// order from `from`: first any unclaimed worker with work of its own,
    /// then (work-stealing only) an unclaimed worker that takes the back of
    /// a neighbour's stealable queue. Returns the claimed worker's index,
    /// the job, and whether it was stolen; the caller must release the
    /// claim after running the job.
    fn claim_work(&self, from: usize) -> Option<(usize, Job, bool)> {
        let n = self.workers.len();
        for w in (0..n).map(|k| (from + k) % n) {
            let worker = &self.workers[w];
            if worker.try_claim() {
                if let Some(job) = worker.pop_own() {
                    return Some((w, job, false));
                }
                worker.release();
            }
        }
        if self.dispatch != Dispatch::WorkStealing {
            return None;
        }
        let w = (0..n)
            .map(|k| (from + k) % n)
            .find(|&w| self.workers[w].try_claim())?;
        if let Some(job) = self.workers[w].pop_own() {
            return Some((w, job, false));
        }
        let stolen = (1..n)
            .map(|k| (w + k) % n)
            .find_map(|victim| lock(&self.workers[victim].stealable).pop_back());
        if stolen.is_none() {
            self.workers[w].release();
        }
        stolen.map(|job| (w, job, true))
    }
}

fn thread_loop(inner: Arc<Inner>, threads: usize, first: usize) {
    rayon::set_thread_width(rayon::available_cores() / threads);
    CLUSTER.with(|c| c.set(Some(inner.id)));
    let n = inner.workers.len();
    let mut next = first;
    loop {
        let seen_gen = lock(&inner.gate).generation;
        if let Some((w, job, stolen)) = inner.claim_work(next) {
            let worker = &inner.workers[w];
            if stolen {
                lock(&worker.counters).steals += 1;
            }
            job(ExecEnv {
                ctx: &worker.ctx,
                stolen,
                inner: &inner,
            });
            worker.release();
            next = (w + 1) % n;
            continue;
        }
        // Nothing runnable for this scan. Sleep (or, at shutdown, exit)
        // only if nothing was pushed since the scan started; a push in
        // between bumped the generation, so re-scan instead. Work left on
        // a claimed worker is the claiming thread's: it re-scans after
        // releasing the worker.
        let mut gate = lock(&inner.gate);
        if gate.generation != seen_gen {
            continue;
        }
        if gate.shutdown {
            return;
        }
        gate.idle += 1;
        let mut gate = inner.cv.wait(gate).unwrap_or_else(|e| e.into_inner());
        gate.idle -= 1;
    }
}

/// Owns the scheduler threads and the workers they run.
pub(crate) struct Scheduler {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Builds `stores.len()` workers and spawns `min(workers, cores)`
    /// threads to run them. `gpus` (if present) must have one device per
    /// worker.
    pub(crate) fn start(
        stores: &[Arc<ObjectStore>],
        gpus: Option<&Arc<GpuCluster>>,
        dispatch: Dispatch,
        record_spans: bool,
    ) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let n = stores.len();
        assert!(n > 0, "cluster needs at least one worker");
        let workers = stores
            .iter()
            .enumerate()
            .map(|(id, store)| Worker {
                pinned: Mutex::new(VecDeque::new()),
                stealable: Mutex::new(VecDeque::new()),
                claimed: AtomicBool::new(false),
                ctx: WorkerCtx {
                    worker_id: id,
                    gpu: gpus.map(|c| Arc::clone(c.device(id).expect("worker per device"))),
                    store: Arc::clone(store),
                },
                counters: Mutex::new(WorkerMetrics {
                    worker_id: id,
                    ..WorkerMetrics::default()
                }),
            })
            .collect();
        let inner = Arc::new(Inner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            workers,
            dispatch,
            gate: Mutex::new(Gate {
                generation: 0,
                idle: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            record_spans,
        });
        let threads = n.min(rayon::available_cores());
        let handles = (0..threads)
            .map(|t| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("taskflow-{t}"))
                    .spawn(move || thread_loop(inner, threads, t))
                    .expect("spawn scheduler thread")
            })
            .collect();
        Scheduler { inner, handles }
    }

    /// The cluster-unique id futures of this scheduler carry.
    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Nanoseconds since the cluster epoch (the span/metrics time base).
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// Enqueues an affinity-bound job on `worker`'s pinned queue.
    pub(crate) fn push_pinned(&self, worker: usize, job: Job) {
        self.inner.workers[worker].push(job, true);
        self.inner.bump();
    }

    /// Enqueues a stealable job on `worker`'s deque.
    pub(crate) fn push_stealable(&self, worker: usize, job: Job) {
        self.inner.workers[worker].push(job, false);
        self.inner.bump();
    }

    /// Snapshot of all counters and recorded spans.
    pub(crate) fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            workers: self
                .inner
                .workers
                .iter()
                .map(|w| lock(&w.counters).clone())
                .collect(),
            spans: lock(&self.inner.spans).clone(),
            wall_ns: self.inner.now_ns(),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        lock(&self.inner.gate).shutdown = true;
        self.inner.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
