//! Property-based invariants of the work-stealing scheduler.
//!
//! The fault model:
//! (a) deterministic fault injection plus a sufficient retry budget is
//!     invisible to callers — `gather` returns exactly what a fault-free
//!     run returns, in the same order;
//! (b) a task that fails every attempt surfaces `TaskError::Panicked`
//!     once the budget is spent instead of hanging `gather`.
//!
//! The thread model (workers are contexts run by `min(workers, cores)`
//! threads):
//! (c) under either dispatch mode, every task runs exactly once; each
//!     worker runs one task at a time; pinned tasks run on their worker in
//!     submission order; and no more than `min(workers, cores)` distinct
//!     threads run tasks.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use taskflow::cluster::{ClusterBuilder, LocalCluster};
use taskflow::policy::{Dispatch, FaultPlan, RetryPolicy};
use taskflow::TaskError;

/// A deterministic task body: mixes the task index so reordering or lost
/// results would show up as a wrong value, not just a wrong count.
fn run_bag(cluster: &LocalCluster, tasks: usize) -> Result<Vec<u64>, TaskError> {
    let futures: Vec<_> = (0..tasks)
        .map(|i| {
            cluster.submit(move |_ctx| {
                let x = (i as u64).wrapping_mul(0x9e37_79b9) ^ 0xabcd;
                x.rotate_left((i % 31) as u32)
            })
        })
        .collect();
    cluster.gather(futures)
}

/// What one run of a mixed task bag observed.
#[derive(Default)]
struct Observed {
    /// Runs per task index.
    runs: Vec<AtomicU32>,
    /// Tasks in flight per worker id.
    in_flight: Vec<AtomicUsize>,
    /// Set when a worker was seen running two tasks at once.
    overlapped: AtomicBool,
    /// Pinned task indices per worker, in the order they started.
    pinned_order: Vec<Mutex<Vec<usize>>>,
    /// Pinned tasks that ran on a worker other than their own.
    misplaced: AtomicU32,
    threads: Mutex<HashSet<std::thread::ThreadId>>,
}

/// Submits `placements` in order (`Some(w)`: pinned to worker `w`, `None`:
/// stealable), each task sleeping `pause_us[i]` µs, and waits for all.
fn run_mixed(
    workers: usize,
    dispatch: Dispatch,
    placements: &[Option<usize>],
    pause_us: &[u64],
) -> Arc<Observed> {
    let cluster = ClusterBuilder::new()
        .workers(workers)
        .dispatch(dispatch)
        .build();
    let seen = Arc::new(Observed {
        runs: placements.iter().map(|_| AtomicU32::new(0)).collect(),
        in_flight: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
        pinned_order: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        ..Observed::default()
    });
    let futures: Vec<_> = placements
        .iter()
        .zip(pause_us)
        .enumerate()
        .map(|(i, (&place, &pause))| {
            let seen = Arc::clone(&seen);
            let body = move |ctx: &taskflow::worker::WorkerCtx| {
                let w = ctx.worker_id;
                if seen.in_flight[w].fetch_add(1, Ordering::SeqCst) != 0 {
                    seen.overlapped.store(true, Ordering::SeqCst);
                }
                seen.threads
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
                if let Some(home) = place {
                    if home != w {
                        seen.misplaced.fetch_add(1, Ordering::SeqCst);
                    }
                    seen.pinned_order[w].lock().unwrap().push(i);
                }
                std::thread::sleep(Duration::from_micros(pause));
                seen.runs[i].fetch_add(1, Ordering::SeqCst);
                seen.in_flight[w].fetch_sub(1, Ordering::SeqCst);
            };
            match place {
                Some(w) => cluster.submit_to(w, body).expect("worker exists"),
                None => cluster.submit(body),
            }
        })
        .collect();
    cluster.gather(futures).expect("every task succeeds");
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (c) Exactly-once execution, one task per worker at a time, pinned
    /// FIFO, and a thread count bounded by the core count.
    #[test]
    fn threads_run_workers_one_task_at_a_time(
        workers in 1usize..=16,
        // Below 32: pinned to worker `v % workers`; 32 and up: stealable.
        slots in prop::collection::vec(0usize..64, 1..48),
        pauses in prop::collection::vec(0u64..300, 48..49),
        stealing in 0u8..2,
    ) {
        let dispatch = if stealing == 1 { Dispatch::WorkStealing } else { Dispatch::RoundRobin };
        let placements: Vec<Option<usize>> = slots
            .iter()
            .map(|&v| (v < 32).then_some(v % workers))
            .collect();
        let pause_us = &pauses[..placements.len()];
        let seen = run_mixed(workers, dispatch, &placements, pause_us);

        for (i, runs) in seen.runs.iter().enumerate() {
            prop_assert_eq!(runs.load(Ordering::SeqCst), 1, "task {} ran once", i);
        }
        prop_assert!(!seen.overlapped.load(Ordering::SeqCst), "a worker ran two tasks at once");
        prop_assert_eq!(seen.misplaced.load(Ordering::SeqCst), 0, "pinned tasks stay home");
        for (w, order) in seen.pinned_order.iter().enumerate() {
            let order = order.lock().unwrap();
            let submitted: Vec<usize> = placements
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p == Some(w))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(&*order, &submitted, "worker {} ran its pinned tasks in order", w);
        }
        let threads = seen.threads.lock().unwrap().len();
        let cap = workers.min(rayon::available_cores());
        prop_assert!(threads <= cap, "{} threads ran tasks, cap {}", threads, cap);
    }

    /// (a) Faulty run + retries == fault-free run, bit for bit.
    #[test]
    fn seeded_faults_with_retries_are_invisible(
        seed in 0u64..10_000,
        workers in 1usize..5,
        tasks in 1usize..40,
        crash_pct in 1u32..25,
    ) {
        let clean = ClusterBuilder::new().workers(workers).build();
        let expected = run_bag(&clean, tasks).expect("fault-free run succeeds");

        // Crash + drop + slow all active; the retry budget is deep enough
        // that an all-attempts-fail streak is astronomically unlikely
        // (<= 0.31^17 per task).
        let faulty = ClusterBuilder::new()
            .workers(workers)
            .dispatch(Dispatch::WorkStealing)
            .fault_plan(FaultPlan {
                seed,
                crash_rate: crash_pct as f64 / 100.0,
                slow_rate: 0.05,
                drop_rate: 0.01,
                slow_delay: Duration::from_micros(20),
            })
            .retry_policy(RetryPolicy::fixed(16, Duration::ZERO))
            .build();
        let got = run_bag(&faulty, tasks).expect("faults are absorbed by retries");
        prop_assert_eq!(got, expected);
    }

    /// (b) Unconditional panics exhaust the budget, run exactly
    /// `retries + 1` attempts, and surface as `Panicked` — `gather` and
    /// `wait` both return instead of hanging.
    #[test]
    fn panics_exhaust_budget_and_surface(
        retries in 0u32..4,
        workers in 1usize..4,
    ) {
        let cluster = ClusterBuilder::new()
            .workers(workers)
            .retry_policy(RetryPolicy::fixed(retries, Duration::ZERO))
            .build();
        let attempts = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&attempts);
        let fut = cluster.submit(move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            panic!("always fails");
        });
        match fut.wait() {
            Err(TaskError::Panicked(msg)) => prop_assert!(msg.contains("always fails"), "{}", msg),
            other => prop_assert!(false, "expected Panicked, got {:?}", other),
        }
        prop_assert_eq!(attempts.load(Ordering::SeqCst), retries + 1);

        // The cluster is still healthy: a follow-up task runs normally.
        let ok = cluster.submit(|_| 7u32).wait();
        prop_assert_eq!(ok, Ok(7));
    }
}
