//! Dependency graphs and their list-scheduling makespan.
//!
//! Dask programs are task graphs; this module gives the reproduction an
//! explicit one: named tasks with declared dependencies and costs, a
//! critical-path metric, and a deterministic list-scheduling makespan
//! estimate. The scheduling policy — FIFO insertion order vs.
//! critical-path-first — is the knob the scheduler-ablation benchmark
//! turns. The graph only prices schedules; tasks run on a
//! [`LocalCluster`](crate::cluster::LocalCluster).

use crate::TaskError;
use std::collections::HashMap;

struct TaskNode {
    deps: Vec<usize>,
    /// Estimated cost (arbitrary units) used by critical-path scheduling.
    cost: f64,
}

/// Order in which ready tasks are released to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Insertion order.
    Fifo,
    /// Tasks on the longest downstream path first.
    CriticalPath,
}

/// A named-task dependency graph.
#[derive(Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    index: HashMap<String, usize>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Adds a task. `deps` are names of previously added tasks, so the
    /// graph is acyclic by construction. `cost` feeds the critical-path
    /// schedule (use 1.0 when unknown).
    pub fn add_task(&mut self, name: &str, deps: &[&str], cost: f64) -> Result<(), TaskError> {
        if self.index.contains_key(name) {
            return Err(TaskError::DuplicateTask(name.to_owned()));
        }
        let dep_ids = deps
            .iter()
            .map(|d| {
                self.index
                    .get(*d)
                    .copied()
                    .ok_or_else(|| TaskError::UnknownDependency {
                        task: name.to_owned(),
                        dep: (*d).to_owned(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.index.insert(name.to_owned(), self.tasks.len());
        self.tasks.push(TaskNode {
            deps: dep_ids,
            cost,
        });
        Ok(())
    }

    /// Longest-path-to-sink weight per task (the critical-path priority).
    fn downstream_weight(&self) -> Vec<f64> {
        // Children lists.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                children[d].push(i);
            }
        }
        // Since add_task only allows deps on earlier tasks, reverse index
        // order is a valid topological order.
        let mut weight = vec![0.0; self.tasks.len()];
        for i in (0..self.tasks.len()).rev() {
            let best_child = children[i]
                .iter()
                .map(|&c| weight[c])
                .fold(0.0f64, f64::max);
            weight[i] = self.tasks[i].cost + best_child;
        }
        weight
    }

    /// Total weight of the heaviest dependency chain.
    pub fn critical_path(&self) -> f64 {
        self.downstream_weight().into_iter().fold(0.0, f64::max)
    }

    /// Deterministic list-scheduling makespan estimate on `workers`
    /// identical workers using the declared task costs: whenever a worker
    /// frees up, it takes the ready task `policy` ranks first. This is the
    /// quantity the scheduler-policy ablation compares — critical-path
    /// ordering provably dominates FIFO on fork-join graphs with skewed
    /// chain lengths.
    pub fn estimate_makespan(&self, workers: usize, policy: SchedulePolicy) -> f64 {
        assert!(workers > 0, "need at least one worker");
        let n = self.tasks.len();
        if n == 0 {
            return 0.0;
        }
        let weight = self.downstream_weight();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut remaining_deps: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        for (i, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                children[d].push(i);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_deps[i] == 0).collect();
        let mut idle = workers;
        // Running tasks: (finish_time, task).
        let mut running: Vec<(f64, usize)> = Vec::new();
        let mut time = 0.0f64;
        let mut makespan = 0.0f64;
        loop {
            // Dispatch ready tasks onto idle workers at the current time.
            while idle > 0 && !ready.is_empty() {
                let pick = match policy {
                    SchedulePolicy::Fifo => 0,
                    SchedulePolicy::CriticalPath => ready
                        .iter()
                        .enumerate()
                        .max_by(|a, b| weight[*a.1].partial_cmp(&weight[*b.1]).expect("finite"))
                        .map(|(i, _)| i)
                        .expect("non-empty ready"),
                };
                let task = ready.remove(pick);
                let finish = time + self.tasks[task].cost;
                running.push((finish, task));
                makespan = makespan.max(finish);
                idle -= 1;
            }
            if running.is_empty() {
                break;
            }
            // Advance to the earliest completion; release its worker and
            // its now-unblocked children.
            let next: f64 = running
                .iter()
                .map(|&(f, _)| f)
                .fold(f64::INFINITY, f64::min);
            time = next;
            let mut still_running = Vec::with_capacity(running.len());
            for (finish, task) in running {
                if finish <= time + 1e-12 {
                    idle += 1;
                    for &c in &children[task] {
                        remaining_deps[c] -= 1;
                        if remaining_deps[c] == 0 {
                            ready.push(c);
                        }
                    }
                } else {
                    still_running.push((finish, task));
                }
            }
            running = still_running;
        }
        makespan
    }

    /// Sum of all task costs (serial execution weight).
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a → b, a → c, (b, c) → d
        let mut g = TaskGraph::new();
        g.add_task("a", &[], 1.0).unwrap();
        g.add_task("b", &["a"], 2.0).unwrap();
        g.add_task("c", &["a"], 3.0).unwrap();
        g.add_task("d", &["b", "c"], 1.0).unwrap();
        g
    }

    #[test]
    fn critical_path_and_total_work() {
        let g = diamond();
        // Longest chain: a(1) → c(3) → d(1) = 5.
        assert_eq!(g.critical_path(), 5.0);
        assert_eq!(g.total_work(), 7.0);
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut g = TaskGraph::new();
        let err = g.add_task("x", &["ghost"], 1.0).unwrap_err();
        assert!(matches!(err, TaskError::UnknownDependency { .. }));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut g = TaskGraph::new();
        g.add_task("x", &[], 1.0).unwrap();
        assert!(matches!(
            g.add_task("x", &[], 1.0),
            Err(TaskError::DuplicateTask(_))
        ));
    }

    #[test]
    fn makespan_bounds_hold() {
        let g = diamond();
        for workers in 1..=4 {
            for policy in [SchedulePolicy::Fifo, SchedulePolicy::CriticalPath] {
                let m = g.estimate_makespan(workers, policy);
                assert!(m >= g.critical_path() - 1e-9, "below critical path: {m}");
                assert!(m <= g.total_work() + 1e-9, "above serial time: {m}");
            }
        }
        // One worker = serial execution.
        assert!((g.estimate_makespan(1, SchedulePolicy::Fifo) - g.total_work()).abs() < 1e-9);
        // Unlimited workers on the diamond = critical path.
        assert!(
            (g.estimate_makespan(8, SchedulePolicy::CriticalPath) - g.critical_path()).abs() < 1e-9
        );
    }

    #[test]
    fn critical_path_policy_beats_fifo_on_skewed_forks() {
        // One long chain (10+10) and many short tasks, 2 workers. FIFO
        // starts the shorts first and the chain straggles; critical-path
        // starts the chain immediately.
        // FIFO dispatches in insertion order, so the shorts go in first.
        let mut g = TaskGraph::new();
        for i in 0..6 {
            g.add_task(&format!("short-{i}"), &[], 2.0).unwrap();
        }
        g.add_task("chain-a", &[], 10.0).unwrap();
        g.add_task("chain-b", &["chain-a"], 10.0).unwrap();
        let fifo = g.estimate_makespan(2, SchedulePolicy::Fifo);
        let cp = g.estimate_makespan(2, SchedulePolicy::CriticalPath);
        assert!(
            cp < fifo,
            "critical path {cp} should beat FIFO {fifo} on skewed forks"
        );
        // Critical-path is optimal here: chain (20) || shorts (12) → 20.
        assert!((cp - 20.0).abs() < 1e-9, "cp {cp}");
        // FIFO delays the chain by at least one short task.
        assert!(fifo >= 22.0 - 1e-9, "fifo {fifo}");
    }

    #[test]
    fn empty_graph_runs() {
        let g = TaskGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.critical_path(), 0.0);
        assert_eq!(g.estimate_makespan(1, SchedulePolicy::Fifo), 0.0);
    }
}
