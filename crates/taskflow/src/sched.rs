//! The shared work-stealing deque scheduler behind [`crate::cluster::LocalCluster`].
//!
//! Every worker owns two FIFO deques: a *pinned* queue for `submit_to`
//! tasks (data/GPU affinity — never stolen) and a *stealable* queue for
//! plain `submit` tasks. Submission places stealable tasks round-robin;
//! under [`Dispatch::WorkStealing`] an idle worker that finds both of its
//! own queues empty scans its neighbors in ring order and steals one task
//! from the *back* of a victim's stealable deque (the owner pops from the
//! front, so thief and owner contend on opposite ends). Under
//! [`Dispatch::RoundRobin`] stealing is disabled and the scheduler
//! degenerates to the static-partitioning baseline the ablation compares
//! against.
//!
//! Workers park on a condvar keyed by a generation counter: every push
//! bumps the generation, so a worker that saw empty queues re-scans before
//! sleeping and wake-ups cannot be lost. Dropping the scheduler marks
//! shutdown, wakes everyone, and joins; workers drain all remaining queues
//! before exiting so every accepted task is executed.
//!
//! Each worker caps the data parallelism of the tasks it runs at
//! `max(1, cores / workers)` threads, so rayon-style `par_*` calls inside a
//! task split this worker's share of the cores instead of spawning onto
//! cores the other workers already fill.

use crate::metrics::{SchedulerMetrics, TaskSpan, WorkerMetrics};
use crate::policy::Dispatch;
use crate::store::ObjectStore;
use crate::worker::WorkerCtx;
use gpu_sim::{Gpu, GpuCluster};
use std::collections::VecDeque;
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
            let mut counters = lock(&self.inner.counters[worker]);
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

struct WorkerQueues {
    /// `submit_to` tasks — affinity-bound, never stolen.
    pinned: Mutex<VecDeque<Job>>,
    /// `submit` tasks — stealable under [`Dispatch::WorkStealing`].
    stealable: Mutex<VecDeque<Job>>,
}

struct Gate {
    generation: u64,
    shutdown: bool,
}

struct Inner {
    queues: Vec<WorkerQueues>,
    dispatch: Dispatch,
    gate: Mutex<Gate>,
    cv: Condvar,
    epoch: Instant,
    counters: Vec<Mutex<WorkerMetrics>>,
    spans: Mutex<Vec<TaskSpan>>,
    record_spans: bool,
}

/// Poison-tolerant lock: a panicking task must not wedge the scheduler.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Signals new work (or shutdown) to parked workers.
    fn bump(&self) {
        let mut gate = lock(&self.gate);
        gate.generation = gate.generation.wrapping_add(1);
        drop(gate);
        self.cv.notify_all();
    }

    /// Next job for `worker`: own pinned queue, own stealable queue, then
    /// (work-stealing only) the back of each neighbor's stealable queue.
    fn find_work(&self, worker: usize) -> Option<(Job, bool)> {
        if let Some(job) = lock(&self.queues[worker].pinned).pop_front() {
            return Some((job, false));
        }
        if let Some(job) = lock(&self.queues[worker].stealable).pop_front() {
            return Some((job, false));
        }
        if self.dispatch == Dispatch::WorkStealing {
            let n = self.queues.len();
            for k in 1..n {
                let victim = (worker + k) % n;
                if let Some(job) = lock(&self.queues[victim].stealable).pop_back() {
                    return Some((job, true));
                }
            }
        }
        None
    }

    fn queues_empty(&self) -> bool {
        self.queues
            .iter()
            .all(|q| lock(&q.pinned).is_empty() && lock(&q.stealable).is_empty())
    }
}

fn worker_loop(
    inner: Arc<Inner>,
    worker_id: usize,
    gpu: Option<Arc<Gpu>>,
    store: Arc<ObjectStore>,
) {
    rayon::set_thread_width(rayon::available_cores() / inner.queues.len());
    let ctx = WorkerCtx {
        worker_id,
        gpu,
        store,
    };
    loop {
        let seen_gen = lock(&inner.gate).generation;
        if let Some((job, stolen)) = inner.find_work(worker_id) {
            if stolen {
                lock(&inner.counters[worker_id]).steals += 1;
            }
            job(ExecEnv {
                ctx: &ctx,
                stolen,
                inner: &inner,
            });
            continue;
        }
        let gate = lock(&inner.gate);
        if gate.shutdown && inner.queues_empty() {
            return;
        }
        // Sleep only if nothing was pushed since the scan started; a push
        // in between bumped the generation, so re-scan instead.
        if gate.generation == seen_gen && !gate.shutdown {
            let _unused = inner.cv.wait(gate).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Owns the worker threads and the shared queues.
pub(crate) struct Scheduler {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `stores.len()` workers. `gpus` (if present) must have one
    /// device per worker.
    pub(crate) fn start(
        stores: &[Arc<ObjectStore>],
        gpus: Option<&Arc<GpuCluster>>,
        dispatch: Dispatch,
        record_spans: bool,
    ) -> Self {
        let n = stores.len();
        assert!(n > 0, "cluster needs at least one worker");
        let inner = Arc::new(Inner {
            queues: (0..n)
                .map(|_| WorkerQueues {
                    pinned: Mutex::new(VecDeque::new()),
                    stealable: Mutex::new(VecDeque::new()),
                })
                .collect(),
            dispatch,
            gate: Mutex::new(Gate {
                generation: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            counters: (0..n)
                .map(|id| {
                    Mutex::new(WorkerMetrics {
                        worker_id: id,
                        ..WorkerMetrics::default()
                    })
                })
                .collect(),
            spans: Mutex::new(Vec::new()),
            record_spans,
        });
        let handles = (0..n)
            .map(|id| {
                let inner = Arc::clone(&inner);
                let store = Arc::clone(&stores[id]);
                let gpu = gpus.map(|c| Arc::clone(c.device(id).expect("worker per device")));
                std::thread::Builder::new()
                    .name(format!("taskflow-worker-{id}"))
                    .spawn(move || worker_loop(inner, id, gpu, store))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler { inner, handles }
    }

    /// Nanoseconds since the cluster epoch (the span/metrics time base).
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    /// Enqueues an affinity-bound job on `worker`'s pinned queue.
    pub(crate) fn push_pinned(&self, worker: usize, job: Job) {
        let depth = {
            let mut q = lock(&self.inner.queues[worker].pinned);
            q.push_back(job);
            q.len() + lock(&self.inner.queues[worker].stealable).len()
        };
        let mut counters = lock(&self.inner.counters[worker]);
        counters.max_queue_depth = counters.max_queue_depth.max(depth);
        drop(counters);
        self.inner.bump();
    }

    /// Enqueues a stealable job on `worker`'s deque.
    pub(crate) fn push_stealable(&self, worker: usize, job: Job) {
        let depth = {
            let mut q = lock(&self.inner.queues[worker].stealable);
            q.push_back(job);
            q.len() + lock(&self.inner.queues[worker].pinned).len()
        };
        let mut counters = lock(&self.inner.counters[worker]);
        counters.max_queue_depth = counters.max_queue_depth.max(depth);
        drop(counters);
        self.inner.bump();
    }

    /// Snapshot of all counters and recorded spans.
    pub(crate) fn metrics(&self) -> SchedulerMetrics {
        SchedulerMetrics {
            workers: self
                .inner
                .counters
                .iter()
                .map(|c| lock(c).clone())
                .collect(),
            spans: lock(&self.inner.spans).clone(),
            wall_ns: self.inner.now_ns(),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        lock(&self.inner.gate).shutdown = true;
        self.inner.bump();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
