//! Scheduling, retry, and fault-injection configuration.
//!
//! Dask clusters in the reproduced course run on preemptible cloud
//! capacity: workers die, straggle, and lose results. The knobs here let
//! experiments reproduce those failure modes deterministically — every
//! fault decision is a pure function of `(seed, task id, attempt)`, so two
//! runs with the same plan inject exactly the same faults regardless of
//! which worker executes which task.

use std::time::Duration;

/// How `submit` places tasks on workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Round-robin placement; each task runs where it was placed. This is
    /// the static-partitioning baseline of the scheduler ablation.
    RoundRobin,
    /// Round-robin placement, but idle workers steal queued tasks from
    /// their neighbors' deques. Strictly better under imbalanced task
    /// durations; the ablation quantifies by how much.
    #[default]
    WorkStealing,
}

/// Retry budget and backoff for failed task attempts.
///
/// An attempt fails when the task panics or when fault injection crashes
/// it or drops its result. After `max_retries` additional attempts the
/// original error surfaces to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail fast).
    pub max_retries: u32,
    /// Sleep before every retry.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }

    /// `n` retries with a fixed (possibly zero) pause between attempts.
    pub fn fixed(n: u32, backoff: Duration) -> Self {
        RetryPolicy {
            max_retries: n,
            backoff,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// The fault injected into one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker crashes before the task body runs (the supervisor
    /// restarts it, as Dask's nanny restarts dead workers). Because the
    /// body never starts, a retried attempt reruns from identical state.
    Crash,
    /// The worker straggles: the attempt is delayed, then runs normally.
    Slow,
    /// The task runs but its result is lost in transit; the attempt counts
    /// as failed and is retried.
    DropResult,
}

/// Deterministic seeded fault injection.
///
/// Rates are probabilities per *attempt*; they must sum to at most 1.
/// Injection decisions hash `(seed, task_id, attempt)`, so they are stable
/// across dispatch modes, worker counts, and thread interleavings.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability an attempt dies before the task body runs.
    pub crash_rate: f64,
    /// Probability an attempt is delayed by `slow_delay`.
    pub slow_rate: f64,
    /// Probability an attempt's result is dropped after running.
    pub drop_rate: f64,
    /// Straggler delay applied to slow attempts.
    pub slow_delay: Duration,
}

impl FaultPlan {
    /// A plan that never injects anything (the fault-free baseline).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crash_rate: 0.0,
            slow_rate: 0.0,
            drop_rate: 0.0,
            slow_delay: Duration::ZERO,
        }
    }

    /// Crash-only plan: each attempt dies with probability `rate`.
    pub fn crashes(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            crash_rate: rate,
            ..Self::none()
        }
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0 || self.slow_rate > 0.0 || self.drop_rate > 0.0
    }

    /// The fault (if any) injected into attempt `attempt` of task
    /// `task_id`. Pure and deterministic.
    pub fn fault_for(&self, task_id: u64, attempt: u32) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        debug_assert!(
            self.crash_rate + self.slow_rate + self.drop_rate <= 1.0 + 1e-9,
            "fault rates must sum to at most 1"
        );
        let u = unit_hash(self.seed, task_id, attempt);
        if u < self.crash_rate {
            Some(FaultKind::Crash)
        } else if u < self.crash_rate + self.slow_rate {
            Some(FaultKind::Slow)
        } else if u < self.crash_rate + self.slow_rate + self.drop_rate {
            Some(FaultKind::DropResult)
        } else {
            None
        }
    }
}

/// SplitMix64-style avalanche of `(seed, task_id, attempt)` to a uniform
/// value in `[0, 1)`.
fn unit_hash(seed: u64, task_id: u64, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_add(task_id.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((attempt as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-task overrides of the cluster-level execution policy.
#[derive(Debug, Clone, Default)]
pub struct TaskOptions {
    /// Retry policy for this task (defaults to the cluster's).
    pub retry: Option<RetryPolicy>,
    /// Deadline for this task (defaults to the cluster's, if any).
    pub timeout: Option<Duration>,
    /// Label shown on the profiler timeline (defaults to `task-<id>`).
    pub label: Option<String>,
}

impl TaskOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_decisions_are_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            crash_rate: 0.2,
            slow_rate: 0.2,
            drop_rate: 0.2,
            slow_delay: Duration::from_millis(1),
        };
        for task in 0..200u64 {
            for attempt in 0..3 {
                assert_eq!(plan.fault_for(task, attempt), plan.fault_for(task, attempt));
            }
        }
    }

    #[test]
    fn fault_rates_are_roughly_respected() {
        let plan = FaultPlan {
            seed: 7,
            crash_rate: 0.25,
            slow_rate: 0.0,
            drop_rate: 0.25,
            slow_delay: Duration::ZERO,
        };
        let n = 20_000u64;
        let mut crashes = 0;
        let mut drops = 0;
        for task in 0..n {
            match plan.fault_for(task, 0) {
                Some(FaultKind::Crash) => crashes += 1,
                Some(FaultKind::DropResult) => drops += 1,
                Some(FaultKind::Slow) => panic!("slow rate is zero"),
                None => {}
            }
        }
        let quarter = n as f64 * 0.25;
        assert!(
            (crashes as f64 - quarter).abs() < quarter * 0.15,
            "{crashes}"
        );
        assert!((drops as f64 - quarter).abs() < quarter * 0.15, "{drops}");
    }

    #[test]
    fn different_attempts_get_independent_faults() {
        // With a 50% crash rate, some task must crash on attempt 0 and
        // succeed on attempt 1 — otherwise retries would be pointless.
        let plan = FaultPlan::crashes(3, 0.5);
        let recovered = (0..100u64).any(|t| {
            plan.fault_for(t, 0) == Some(FaultKind::Crash) && plan.fault_for(t, 1).is_none()
        });
        assert!(recovered);
    }

    #[test]
    fn inactive_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!((0..1000u64).all(|t| plan.fault_for(t, 0).is_none()));
        assert!(!plan.is_active());
    }
}
