//! # taskflow — a Dask-like distributed task scheduler
//!
//! Algorithm 1 of the reproduced paper orchestrates distributed GCN
//! training with Dask: "Initialize Dask cluster; assign each worker to a
//! GPU", scatter graph partitions to workers, broadcast model parameters,
//! run per-worker gradient computations, and aggregate. There is no Dask in
//! Rust, so this crate implements the subset of its execution model that
//! the algorithm (and the course's week-6 RAPIDS/Dask labs) relies on:
//!
//! - [`cluster::ClusterBuilder`] / [`cluster::LocalCluster`] — a pool of
//!   workers over a shared work-stealing deque scheduler that runs them on
//!   one thread per core, each worker optionally pinned to a simulated GPU
//!   ([`gpu_sim::Gpu`]), with
//!   Dask's client verbs: `submit`, `submit_to`, `scatter`, `broadcast`,
//!   `gather`.
//! - [`policy`] — per-task retry/backoff policies, deadline timeouts, and
//!   deterministic seeded fault injection (worker crash, slow worker,
//!   dropped result) for resilience experiments.
//! - [`metrics`] — per-worker counters (tasks run, steals, retries, queue
//!   depth, busy time) and per-attempt task spans that
//!   `sagegpu-profiler` renders onto its chrome-trace timeline.
//! - [`future::TaskFuture`] — a waitable handle to a task's result; worker
//!   panics surface as [`TaskError::Panicked`] instead of poisoning the
//!   pool.
//! - [`store`] — per-worker keyed object stores (Dask's distributed
//!   memory), type-safe via downcasting.
//! - [`graph::TaskGraph`] — named tasks with dependencies and costs, and
//!   the deterministic list-scheduling makespan of each scheduling policy
//!   (FIFO vs. critical path) that the scheduler-ablation benchmark
//!   compares.
//!
//! ```
//! use taskflow::cluster::ClusterBuilder;
//!
//! let cluster = ClusterBuilder::new().workers(4).build();
//! let futs: Vec<_> = (0..8)
//!     .map(|i| cluster.submit(move |_ctx| i * i))
//!     .collect();
//! let squares: Vec<i32> = cluster.gather(futs).unwrap();
//! assert_eq!(squares[7], 49);
//! ```

pub mod cluster;
pub mod future;
pub mod graph;
pub mod metrics;
pub mod policy;
pub(crate) mod sched;
pub mod store;
pub mod worker;

pub use cluster::{ClusterBuilder, LocalCluster};
pub use policy::{Dispatch, FaultKind, FaultPlan, RetryPolicy, TaskOptions};

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::cluster::{ClusterBuilder, LocalCluster};
    pub use crate::future::TaskFuture;
    pub use crate::graph::{SchedulePolicy, TaskGraph};
    pub use crate::metrics::{SchedulerMetrics, TaskSpan, WorkerMetrics};
    pub use crate::policy::{Dispatch, FaultPlan, RetryPolicy, TaskOptions};
    pub use crate::store::DataKey;
    pub use crate::worker::WorkerCtx;
    pub use crate::TaskError;
}

/// Errors surfaced by task execution.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskError {
    /// The task panicked on its worker (after exhausting any retry budget).
    Panicked(String),
    /// The cluster shut down before the task produced a result.
    ClusterShutDown,
    /// A worker index outside the pool was addressed.
    UnknownWorker { worker: usize, pool: usize },
    /// The task missed its deadline: its retry loop was still failing when
    /// the configured timeout elapsed.
    DeadlineExceeded { timeout_ms: u64, attempts: u32 },
    /// A task asked for the pinned GPU on a CPU-only worker.
    NoGpu { worker: usize },
    /// A task referenced an unknown dependency name.
    UnknownDependency { task: String, dep: String },
    /// A duplicate task name was added to a graph.
    DuplicateTask(String),
    /// A task waited on a future of its own cluster. Tasks must not block
    /// on sibling tasks: the sibling may need the very thread the waiter
    /// holds.
    SiblingWait,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            TaskError::ClusterShutDown => write!(f, "cluster shut down before completion"),
            TaskError::UnknownWorker { worker, pool } => {
                write!(f, "worker {worker} does not exist (pool size {pool})")
            }
            TaskError::DeadlineExceeded {
                timeout_ms,
                attempts,
            } => write!(
                f,
                "task missed its {timeout_ms} ms deadline after {attempts} attempt(s)"
            ),
            TaskError::NoGpu { worker } => write!(
                f,
                "worker {worker} has no pinned GPU; build the cluster with ClusterBuilder::gpus"
            ),
            TaskError::UnknownDependency { task, dep } => {
                write!(f, "task '{task}' depends on unknown task '{dep}'")
            }
            TaskError::DuplicateTask(name) => write!(f, "duplicate task name '{name}'"),
            TaskError::SiblingWait => write!(
                f,
                "a task waited on a future of its own cluster; tasks must not block on sibling tasks"
            ),
        }
    }
}

impl std::error::Error for TaskError {}
