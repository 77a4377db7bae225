//! The local cluster: builder-configured worker pool + Dask-style client
//! verbs over the shared work-stealing scheduler.

use crate::future::{oneshot, TaskFuture};
use crate::metrics::{SchedulerMetrics, SpanOutcome, TaskSpan};
use crate::policy::{Dispatch, FaultKind, FaultPlan, RetryPolicy, TaskOptions};
use crate::sched::{ExecEnv, Job, Scheduler};
use crate::store::{DataKey, ObjectStore};
use crate::worker::WorkerCtx;
use crate::TaskError;
use gpu_sim::GpuCluster;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configures and builds a [`LocalCluster`].
///
/// ```
/// use taskflow::cluster::ClusterBuilder;
/// use taskflow::policy::RetryPolicy;
/// use std::time::Duration;
///
/// let cluster = ClusterBuilder::new()
///     .workers(4)
///     .retry_policy(RetryPolicy::fixed(2, Duration::ZERO))
///     .build();
/// assert_eq!(cluster.len(), 4);
/// ```
#[derive(Clone)]
pub struct ClusterBuilder {
    workers: usize,
    gpus: Option<Arc<GpuCluster>>,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    fault_plan: FaultPlan,
    dispatch: Dispatch,
    metrics: bool,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// A single CPU-only worker, work-stealing dispatch, no retries, no
    /// timeout, no fault injection, span recording on.
    pub fn new() -> Self {
        ClusterBuilder {
            workers: 1,
            gpus: None,
            retry: RetryPolicy::none(),
            timeout: None,
            fault_plan: FaultPlan::none(),
            dispatch: Dispatch::default(),
            metrics: true,
        }
    }

    /// Pool size. Ignored when [`gpus`](Self::gpus) is set (one worker per
    /// device).
    ///
    /// A worker is a queue pair, an object store and an optional GPU, not
    /// a thread: the cluster runs its `n` workers on
    /// `min(n, rayon::available_cores())` threads, each taking whole tasks
    /// back to back. A worker still runs one task at a time, its pinned
    /// tasks in submission order.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Pin one worker to each GPU in `gpus` — Algorithm 1 line 4: "assign
    /// each worker to a GPU". Overrides [`workers`](Self::workers).
    pub fn gpus(mut self, gpus: Arc<GpuCluster>) -> Self {
        self.gpus = Some(gpus);
        self
    }

    /// Default retry/backoff policy for every task (overridable per task
    /// via [`TaskOptions`]).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Default deadline for every task, measured from submission. A task
    /// whose retry loop is still failing at the deadline surfaces
    /// [`TaskError::DeadlineExceeded`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Deterministic seeded fault injection applied to every attempt.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Placement/stealing mode; the scheduler ablation flips this.
    pub fn dispatch(mut self, dispatch: Dispatch) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Whether to record per-attempt [`TaskSpan`]s (aggregate counters are
    /// always kept). Disable for long benchmark runs where span storage
    /// would dominate.
    pub fn metrics(mut self, record_spans: bool) -> Self {
        self.metrics = record_spans;
        self
    }

    /// Spawns the workers and returns the live cluster.
    pub fn build(self) -> LocalCluster {
        let n = self.gpus.as_ref().map_or(self.workers, |g| g.len());
        assert!(n > 0, "cluster needs at least one worker");
        let stores: Vec<Arc<ObjectStore>> = (0..n).map(|_| Arc::new(ObjectStore::new())).collect();
        let sched = Scheduler::start(&stores, self.gpus.as_ref(), self.dispatch, self.metrics);
        LocalCluster {
            sched,
            stores,
            gpus: self.gpus,
            next_rr: AtomicUsize::new(0),
            next_task_id: AtomicU64::new(0),
            retry: self.retry,
            timeout: self.timeout,
            fault_plan: self.fault_plan,
        }
    }
}

/// A pool of workers with Dask-like submission semantics, run on one
/// thread per core (at most one per worker).
///
/// Built via [`ClusterBuilder`]. Dropping the cluster signals shutdown;
/// the threads drain every queue and are joined.
///
/// As in Dask, tasks do not block on sibling tasks: with fewer threads
/// than workers, a task waiting on a future of its own cluster could hold
/// the thread the sibling needs. [`TaskFuture::wait`] called from inside a
/// task of the same cluster therefore returns [`TaskError::SiblingWait`]
/// at once; submit follow-up work from the client, or wait on a future of
/// another cluster.
///
/// Task bodies are `Fn` rather than `FnOnce` because a retried attempt
/// re-invokes the same closure; plain tasks that never retry pay nothing
/// for this. Tasks placed with [`submit`](Self::submit) may execute on any
/// worker under work-stealing dispatch — tasks that read scattered data
/// through `ctx.store` must use [`submit_to`](Self::submit_to), whose
/// pinned queue is never stolen from.
pub struct LocalCluster {
    sched: Scheduler,
    stores: Vec<Arc<ObjectStore>>,
    gpus: Option<Arc<GpuCluster>>,
    next_rr: AtomicUsize,
    next_task_id: AtomicU64,
    retry: RetryPolicy,
    timeout: Option<Duration>,
    fault_plan: FaultPlan,
}

impl LocalCluster {
    /// Number of workers.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether the pool is empty (never true for a live cluster).
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// The GPU cluster backing this worker pool, if any.
    pub fn gpus(&self) -> Option<&Arc<GpuCluster>> {
        self.gpus.as_ref()
    }

    /// Submits `f` to a round-robin-chosen worker's stealable deque.
    pub fn submit<T, F>(&self, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx) -> T + Send + 'static,
    {
        self.submit_with(TaskOptions::new(), f)
    }

    /// [`submit`](Self::submit) with per-task retry/timeout/label
    /// overrides.
    pub fn submit_with<T, F>(&self, opts: TaskOptions, f: F) -> TaskFuture<T>
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx) -> T + Send + 'static,
    {
        let w = self.next_rr.fetch_add(1, Ordering::Relaxed) % self.len();
        let (fut, job) = self.make_job(opts, f);
        self.sched.push_stealable(w, job);
        fut
    }

    /// Submits `f` to a specific worker (data/GPU affinity). Pinned tasks
    /// are never stolen: they run on `worker`, in submission order.
    pub fn submit_to<T, F>(&self, worker: usize, f: F) -> Result<TaskFuture<T>, TaskError>
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx) -> T + Send + 'static,
    {
        self.submit_to_with(worker, TaskOptions::new(), f)
    }

    /// [`submit_to`](Self::submit_to) with per-task overrides.
    pub fn submit_to_with<T, F>(
        &self,
        worker: usize,
        opts: TaskOptions,
        f: F,
    ) -> Result<TaskFuture<T>, TaskError>
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx) -> T + Send + 'static,
    {
        if worker >= self.len() {
            return Err(TaskError::UnknownWorker {
                worker,
                pool: self.len(),
            });
        }
        let (fut, job) = self.make_job(opts, f);
        self.sched.push_pinned(worker, job);
        Ok(fut)
    }

    /// Builds the erased job closure: the full attempt loop — fault
    /// injection, panic capture, per-attempt span recording, backoff,
    /// deadline — runs inline on whichever worker picks the job up.
    fn make_job<T, F>(&self, opts: TaskOptions, f: F) -> (TaskFuture<T>, Job)
    where
        T: Send + 'static,
        F: Fn(&WorkerCtx) -> T + Send + 'static,
    {
        let task_id = self.next_task_id.fetch_add(1, Ordering::Relaxed);
        let label = opts.label.unwrap_or_else(|| format!("task-{task_id}"));
        let retry = opts.retry.unwrap_or_else(|| self.retry.clone());
        let timeout = opts.timeout.or(self.timeout);
        let fault_plan = self.fault_plan.clone();
        let queued_ns = self.sched.now_ns();
        let deadline_ns = timeout.map(|t| queued_ns.saturating_add(t.as_nanos() as u64));
        let (fut, promise) = oneshot::<T>(self.sched.id());

        let job: Job = Box::new(move |env: ExecEnv<'_>| {
            let worker = env.ctx.worker_id;
            let mut attempt: u32 = 0;
            let final_result = loop {
                if let Some(d) = deadline_ns {
                    let now = env.now_ns();
                    if now >= d {
                        env.record_marker(TaskSpan {
                            task_id,
                            label: label.clone(),
                            worker,
                            attempt,
                            queued_ns,
                            start_ns: now,
                            end_ns: now,
                            stolen: env.stolen,
                            outcome: SpanOutcome::TimedOut,
                        });
                        break Err(TaskError::DeadlineExceeded {
                            timeout_ms: timeout.map_or(0, |t| t.as_millis() as u64),
                            attempts: attempt,
                        });
                    }
                }
                let fault = fault_plan.fault_for(task_id, attempt);
                let start_ns = env.now_ns();
                let (outcome, result) = match fault {
                    Some(FaultKind::Crash) => (
                        SpanOutcome::InjectedCrash,
                        Err(TaskError::Panicked(format!(
                            "injected worker crash (task {task_id}, attempt {attempt})"
                        ))),
                    ),
                    other => {
                        if other == Some(FaultKind::Slow) {
                            std::thread::sleep(fault_plan.slow_delay);
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(env.ctx))) {
                            Ok(_) if other == Some(FaultKind::DropResult) => (
                                SpanOutcome::InjectedDrop,
                                Err(TaskError::Panicked(format!(
                                    "injected result drop (task {task_id}, attempt {attempt})"
                                ))),
                            ),
                            Ok(v) => (SpanOutcome::Completed, Ok(v)),
                            Err(payload) => (
                                SpanOutcome::Panicked,
                                Err(TaskError::Panicked(panic_message(payload))),
                            ),
                        }
                    }
                };
                let end_ns = env.now_ns();
                env.record_attempt(TaskSpan {
                    task_id,
                    label: label.clone(),
                    worker,
                    attempt,
                    queued_ns,
                    start_ns,
                    end_ns,
                    stolen: env.stolen,
                    outcome,
                });
                match result {
                    Ok(v) => break Ok(v),
                    Err(err) => {
                        if attempt >= retry.max_retries {
                            break Err(err);
                        }
                        let mut pause = retry.backoff;
                        if let Some(d) = deadline_ns {
                            // Never sleep past the deadline.
                            let remaining = d.saturating_sub(env.now_ns());
                            pause = pause.min(Duration::from_nanos(remaining));
                        }
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        attempt += 1;
                    }
                }
            };
            // Release what the body captured before the waiter sees the
            // result: a waiter that then drops its handle to this cluster
            // must not leave the last one to be dropped on the cluster's
            // own thread.
            drop(f);
            promise.fulfill(final_result);
        });
        (fut, job)
    }

    /// Scatters `items` across workers round-robin (item `i` → worker
    /// `i % n`), returning `(key, worker)` placements.
    pub fn scatter<T: Any + Send + Sync>(&self, items: Vec<T>) -> Vec<(DataKey, usize)> {
        items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let w = i % self.len();
                let key = DataKey::fresh();
                self.stores[w].put(key, item);
                (key, w)
            })
            .collect()
    }

    /// Stores one shared value on *every* worker under a single key
    /// (Algorithm 1 line 8: "Broadcast θ to all workers").
    pub fn broadcast<T: Any + Send + Sync>(&self, item: T) -> DataKey {
        let key = DataKey::fresh();
        let shared: Arc<dyn Any + Send + Sync> = Arc::new(item);
        for store in &self.stores {
            store.put_shared(key, Arc::clone(&shared));
        }
        key
    }

    /// Waits for every future, returning results in submission order.
    pub fn gather<T>(&self, futures: Vec<TaskFuture<T>>) -> Result<Vec<T>, TaskError> {
        futures.into_iter().map(|f| f.wait()).collect()
    }

    /// Nanoseconds elapsed on the scheduler's wall clock — the same axis
    /// task spans are stamped on, so layered services (batch deadlines,
    /// queue-wait accounting) can timestamp events that line up with the
    /// scheduler lanes in a merged chrome trace.
    pub fn now_ns(&self) -> u64 {
        self.sched.now_ns()
    }

    /// Snapshot of the scheduler's per-worker counters and task spans.
    pub fn metrics(&self) -> SchedulerMetrics {
        self.sched.metrics()
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::cluster::LinkKind;
    use gpu_sim::DeviceSpec;

    #[test]
    fn submit_and_gather_preserve_order() {
        let c = ClusterBuilder::new().workers(3).build();
        let futs: Vec<_> = (0..10).map(|i| c.submit(move |_| i * 2)).collect();
        assert_eq!(
            c.gather(futs).unwrap(),
            (0..10).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn submit_to_targets_specific_worker() {
        let c = ClusterBuilder::new().workers(4).build();
        for w in 0..4 {
            let got = c
                .submit_to(w, move |ctx| ctx.worker_id)
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(got, w);
        }
        assert!(matches!(
            c.submit_to(9, |_| ()),
            Err(TaskError::UnknownWorker { worker: 9, pool: 4 })
        ));
    }

    #[test]
    fn panics_become_errors_and_pool_survives() {
        let c = ClusterBuilder::new().workers(2).build();
        let bad = c.submit(|_| -> u32 { panic!("kaboom {}", 7) });
        assert!(matches!(bad.wait(), Err(TaskError::Panicked(msg)) if msg.contains("kaboom")));
        // The pool still works afterwards.
        let ok = c.submit(|_| 5u32);
        assert_eq!(ok.wait().unwrap(), 5);
    }

    #[test]
    fn scatter_places_round_robin_and_tasks_read_locally() {
        let c = ClusterBuilder::new().workers(2).build();
        let placements = c.scatter(vec![10u32, 20, 30, 40]);
        assert_eq!(placements.len(), 4);
        assert_eq!(placements[0].1, 0);
        assert_eq!(placements[1].1, 1);
        assert_eq!(placements[2].1, 0);
        // A task with affinity to the data reads it from its local store.
        let (key, worker) = placements[3];
        let v = c
            .submit_to(worker, move |ctx| *ctx.store.get::<u32>(key).unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(v, 40);
    }

    #[test]
    fn broadcast_visible_on_all_workers() {
        let c = ClusterBuilder::new().workers(3).build();
        let key = c.broadcast(vec![1.0f32, 2.0, 3.0]);
        for w in 0..3 {
            let sum = c
                .submit_to(w, move |ctx| {
                    ctx.store.get::<Vec<f32>>(key).unwrap().iter().sum::<f32>()
                })
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(sum, 6.0);
        }
    }

    #[test]
    fn gpu_pinned_workers_see_their_device() {
        let gpus = Arc::new(GpuCluster::homogeneous(3, DeviceSpec::t4(), LinkKind::Pcie));
        let c = ClusterBuilder::new().gpus(Arc::clone(&gpus)).build();
        assert_eq!(c.len(), 3);
        for w in 0..3 {
            let ordinal = c
                .submit_to(w, |ctx| ctx.gpu().ordinal())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(ordinal as usize, w);
        }
        assert!(c.gpus().is_some());
    }

    #[test]
    fn tasks_on_one_worker_run_sequentially() {
        // A worker runs one task at a time: tasks submitted to it cannot
        // overlap.
        let c = ClusterBuilder::new().workers(1).build();
        let counter = Arc::new(AtomicUsize::new(0));
        let futs: Vec<_> = (0..100)
            .map(|_| {
                let counter = Arc::clone(&counter);
                c.submit(move |_| {
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst); // safe only if serial
                })
            })
            .collect();
        c.gather(futs).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn parallel_speed_is_not_the_contract_but_results_are() {
        // 8 tasks across 4 workers all complete with correct results.
        let c = ClusterBuilder::new().workers(4).build();
        let futs: Vec<_> = (0..8)
            .map(|i| {
                c.submit(move |ctx| {
                    // Long enough that one worker cannot drain the whole
                    // queue before the others wake up.
                    std::thread::sleep(Duration::from_millis(10));
                    (ctx.worker_id, i)
                })
            })
            .collect();
        let got = c.gather(futs).unwrap();
        let workers_used: std::collections::HashSet<usize> = got.iter().map(|&(w, _)| w).collect();
        assert!(workers_used.len() > 1, "work spread across workers");
    }

    #[test]
    fn builder_covers_cpu_and_gpu_constructions() {
        let c = ClusterBuilder::new().workers(2).build();
        assert_eq!(c.len(), 2);
        assert_eq!(c.submit(|_| 1 + 1).wait().unwrap(), 2);

        let gpus = Arc::new(GpuCluster::homogeneous(2, DeviceSpec::t4(), LinkKind::Pcie));
        let c = ClusterBuilder::new().gpus(gpus).build();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn metrics_count_tasks_and_record_spans() {
        let c = ClusterBuilder::new().workers(2).build();
        let futs: Vec<_> = (0..6).map(|i| c.submit(move |_| i)).collect();
        c.gather(futs).unwrap();
        let m = c.metrics();
        assert_eq!(m.total_tasks(), 6);
        assert_eq!(m.spans.len(), 6);
        assert_eq!(m.total_retries(), 0);
        assert!(m.wall_ns > 0);
        assert!(m.workers.iter().all(|w| w.worker_id < 2));
        // Span recording can be disabled while counters stay on.
        let c = ClusterBuilder::new().workers(1).metrics(false).build();
        c.submit(|_| ()).wait().unwrap();
        let m = c.metrics();
        assert_eq!(m.total_tasks(), 1);
        assert!(m.spans.is_empty());
    }

    #[test]
    fn retry_recovers_from_injected_crash() {
        // Find a seed whose plan crashes task 0 on attempt 0 but lets
        // attempt 1 through, so the retry must visibly recover.
        let plan = (0..u64::MAX)
            .map(|seed| FaultPlan::crashes(seed, 0.5))
            .find(|p| p.fault_for(0, 0) == Some(FaultKind::Crash) && p.fault_for(0, 1).is_none())
            .unwrap();
        let c = ClusterBuilder::new()
            .workers(1)
            .fault_plan(plan)
            .retry_policy(RetryPolicy::fixed(3, Duration::ZERO))
            .build();
        assert_eq!(c.submit(|_| 99u32).wait().unwrap(), 99);
        let m = c.metrics();
        assert_eq!(m.total_tasks(), 2, "crash attempt + successful retry");
        assert_eq!(m.total_retries(), 1);
        assert!(m
            .spans
            .iter()
            .any(|s| s.outcome == SpanOutcome::InjectedCrash));
    }

    #[test]
    fn retry_budget_exhausted_surfaces_original_error() {
        let c = ClusterBuilder::new()
            .workers(1)
            .retry_policy(RetryPolicy::fixed(2, Duration::ZERO))
            .build();
        let err = c
            .submit(|_| -> u32 { panic!("always fails") })
            .wait()
            .unwrap_err();
        assert!(matches!(err, TaskError::Panicked(msg) if msg.contains("always fails")));
        assert_eq!(c.metrics().total_tasks(), 3, "initial attempt + 2 retries");
    }

    #[test]
    fn deadline_cuts_off_the_retry_loop() {
        let c = ClusterBuilder::new()
            .workers(1)
            .retry_policy(RetryPolicy::fixed(10_000, Duration::from_millis(1)))
            .timeout(Duration::from_millis(20))
            .build();
        let err = c
            .submit(|_| -> u32 { panic!("never succeeds") })
            .wait()
            .unwrap_err();
        match err {
            TaskError::DeadlineExceeded {
                timeout_ms,
                attempts,
            } => {
                assert_eq!(timeout_ms, 20);
                assert!(attempts >= 1, "at least one attempt ran before cutoff");
                assert!(attempts < 10_000, "deadline fired well before the budget");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(c
            .metrics()
            .spans
            .iter()
            .any(|s| s.outcome == SpanOutcome::TimedOut));
    }

    #[test]
    fn per_task_options_override_cluster_defaults() {
        let c = ClusterBuilder::new().workers(1).build(); // no retries by default
        let fut = c.submit_with(
            TaskOptions::new()
                .retry(RetryPolicy::fixed(1, Duration::ZERO))
                .label("flaky"),
            {
                let first = AtomicUsize::new(0);
                move |_| {
                    if first.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first attempt fails");
                    }
                    7u32
                }
            },
        );
        assert_eq!(fut.wait().unwrap(), 7);
        let m = c.metrics();
        assert!(m.spans.iter().all(|s| s.label == "flaky"));
        assert_eq!(m.total_retries(), 1);
    }

    #[test]
    fn idle_workers_steal_queued_tasks() {
        // Worker 0 is blocked on a long task while short tasks pile up in
        // its deque; under work-stealing dispatch worker 1 drains them.
        let run = |dispatch: Dispatch| {
            let c = ClusterBuilder::new().workers(2).dispatch(dispatch).build();
            let mut futs = Vec::new();
            // rr placement: task 0 (long) → worker 0, odd ids → worker 1,
            // even ids → worker 0 (stuck behind the long task).
            futs.push(c.submit(|_| {
                std::thread::sleep(Duration::from_millis(60));
                0u64
            }));
            for i in 1..12u64 {
                futs.push(c.submit(move |_| i));
            }
            let got = c.gather(futs).unwrap();
            assert_eq!(got, (0..12).collect::<Vec<_>>());
            c.metrics().total_steals()
        };
        // Stealing needs a second thread to run an idle worker while worker
        // 0 sleeps; on one core the cluster has one thread, so every task
        // runs on the worker it was placed on.
        if rayon::available_cores() > 1 {
            assert!(run(Dispatch::WorkStealing) > 0, "idle worker must steal");
        } else {
            assert_eq!(run(Dispatch::WorkStealing), 0, "one thread never steals");
        }
        assert_eq!(run(Dispatch::RoundRobin), 0, "baseline never steals");
    }

    #[test]
    fn waiting_on_a_sibling_task_is_an_error() {
        let c = Arc::new(ClusterBuilder::new().workers(2).build());
        let client = Arc::clone(&c);
        let outer = c.submit_to(0, move |_| {
            let sibling = client.submit_to(1, |_| 5u32).expect("worker exists");
            sibling.wait()
        });
        assert_eq!(outer.unwrap().wait().unwrap(), Err(TaskError::SiblingWait));
        // The client thread is not a task: it still waits as usual.
        assert_eq!(c.submit(|_| 6u32).wait(), Ok(6));
    }

    #[test]
    fn waiting_on_another_clusters_task_blocks_until_done() {
        let other = Arc::new(ClusterBuilder::new().workers(1).build());
        let c = ClusterBuilder::new().workers(1).build();
        let remote = Arc::clone(&other);
        let got = c
            .submit(move |_| remote.submit(|_| 7u32).wait())
            .wait()
            .unwrap();
        assert_eq!(got, Ok(7));
    }

    #[test]
    fn pinned_tasks_are_never_stolen() {
        let c = ClusterBuilder::new()
            .workers(2)
            .dispatch(Dispatch::WorkStealing)
            .build();
        // Worker 0 gets a long pinned task plus many short pinned tasks;
        // worker 1 idles nearby but must not take any of them.
        let mut futs = Vec::new();
        futs.push(
            c.submit_to(0, |ctx| {
                std::thread::sleep(Duration::from_millis(40));
                ctx.worker_id
            })
            .unwrap(),
        );
        for _ in 0..10 {
            futs.push(c.submit_to(0, |ctx| ctx.worker_id).unwrap());
        }
        let got = c.gather(futs).unwrap();
        assert!(
            got.iter().all(|&w| w == 0),
            "pinned tasks stay home: {got:?}"
        );
        assert_eq!(c.metrics().total_steals(), 0);
    }
}
