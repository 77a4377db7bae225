//! Per-principal cost ledger, budget caps, and usage reporting.
//!
//! §III-A: "each student's usage was capped for all assessments … students
//! could request additional resources, capped at \$100 per student for the
//! semester". The ledger enforces those caps at provisioning time and
//! produces the per-student hour/cost aggregates behind Fig. 5.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// One finalized usage record (written when an instance terminates or a
/// notebook session closes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageRecord {
    /// Principal (student role name) the usage bills to.
    pub principal: String,
    /// Instance type name.
    pub instance_type: String,
    /// Number of GPUs on the resource.
    pub gpus: u32,
    /// Billable seconds.
    pub secs: u64,
    /// Cost in USD.
    pub usd: f64,
    /// Free-form tag, e.g. `"lab-3"` or `"assignment-2"`.
    pub activity: String,
}

impl UsageRecord {
    /// Billable hours.
    pub fn hours(&self) -> f64 {
        self.secs as f64 / 3600.0
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    records: Vec<UsageRecord>,
    budgets: HashMap<String, f64>,
}

/// Thread-safe billing ledger shared across the provider.
#[derive(Debug, Clone, Default)]
pub struct BillingLedger {
    inner: Arc<RwLock<LedgerInner>>,
}

impl BillingLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or raises) a principal's budget cap in USD.
    pub fn set_budget(&self, principal: &str, usd: f64) {
        self.inner.write().budgets.insert(principal.to_owned(), usd);
    }

    /// The principal's budget cap, if any.
    pub fn budget_of(&self, principal: &str) -> Option<f64> {
        self.inner.read().budgets.get(principal).copied()
    }

    /// Appends a finalized usage record.
    pub fn record(&self, rec: UsageRecord) {
        self.inner.write().records.push(rec);
    }

    /// Total spend of a principal so far.
    pub fn cost_for(&self, principal: &str) -> f64 {
        self.inner
            .read()
            .records
            .iter()
            .filter(|r| r.principal == principal)
            .map(|r| r.usd)
            .sum()
    }

    /// Total GPU-hours of a principal so far (records with ≥1 GPU).
    pub fn gpu_hours_for(&self, principal: &str) -> f64 {
        self.inner
            .read()
            .records
            .iter()
            .filter(|r| r.principal == principal && r.gpus > 0)
            .map(|r| r.hours())
            .sum()
    }

    /// Remaining headroom under the principal's budget; `f64::INFINITY`
    /// when no cap is set.
    pub fn remaining_budget(&self, principal: &str) -> f64 {
        match self.budget_of(principal) {
            Some(cap) => cap - self.cost_for(principal),
            None => f64::INFINITY,
        }
    }

    /// Whether new provisioning would be allowed: spend strictly below cap.
    pub fn within_budget(&self, principal: &str) -> bool {
        self.remaining_budget(principal) > 0.0
    }

    /// Total spend across all principals.
    pub fn total_cost(&self) -> f64 {
        self.inner.read().records.iter().map(|r| r.usd).sum()
    }

    /// Cost aggregated per activity tag (lab/assignment breakdowns).
    pub fn cost_by_activity(&self) -> HashMap<String, f64> {
        let mut out: HashMap<String, f64> = HashMap::new();
        for r in self.inner.read().records.iter() {
            *out.entry(r.activity.clone()).or_default() += r.usd;
        }
        out
    }

    /// (mean GPU-hours, mean cost) per distinct principal with any usage —
    /// the two series of the paper's Fig. 5. Uses an ordered map so float
    /// summation order (hence the result) is deterministic.
    pub fn per_student_averages(&self) -> (f64, f64) {
        let inner = self.inner.read();
        let mut per: std::collections::BTreeMap<&str, (f64, f64)> =
            std::collections::BTreeMap::new();
        for r in inner.records.iter() {
            let e = per.entry(&r.principal).or_default();
            if r.gpus > 0 {
                e.0 += r.hours();
            }
            e.1 += r.usd;
        }
        if per.is_empty() {
            return (0.0, 0.0);
        }
        let n = per.len() as f64;
        let (h, c) = per
            .values()
            .fold((0.0, 0.0), |(ah, ac), (h, c)| (ah + h, ac + c));
        (h / n, c / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(p: &str, gpus: u32, secs: u64, usd: f64, act: &str) -> UsageRecord {
        UsageRecord {
            principal: p.into(),
            instance_type: "g4dn.xlarge".into(),
            gpus,
            secs,
            usd,
            activity: act.into(),
        }
    }

    #[test]
    fn cost_and_hours_aggregate_per_principal() {
        let l = BillingLedger::new();
        l.record(rec("alice", 1, 3600, 0.526, "lab-1"));
        l.record(rec("alice", 1, 7200, 1.052, "lab-2"));
        l.record(rec("bob", 1, 3600, 0.526, "lab-1"));
        assert!((l.cost_for("alice") - 1.578).abs() < 1e-9);
        assert!((l.gpu_hours_for("alice") - 3.0).abs() < 1e-9);
        assert!((l.total_cost() - 2.104).abs() < 1e-9);
    }

    #[test]
    fn cpu_only_usage_excluded_from_gpu_hours() {
        let l = BillingLedger::new();
        l.record(rec("alice", 0, 3600, 0.05, "notebook"));
        l.record(rec("alice", 1, 3600, 0.526, "lab-1"));
        assert!((l.gpu_hours_for("alice") - 1.0).abs() < 1e-9);
        assert!((l.cost_for("alice") - 0.576).abs() < 1e-9);
    }

    #[test]
    fn budget_enforcement() {
        let l = BillingLedger::new();
        l.set_budget("alice", 1.0);
        assert!(l.within_budget("alice"));
        l.record(rec("alice", 1, 3600, 0.9, "lab-1"));
        assert!(l.within_budget("alice"));
        assert!((l.remaining_budget("alice") - 0.1).abs() < 1e-9);
        l.record(rec("alice", 1, 3600, 0.2, "lab-2"));
        assert!(!l.within_budget("alice"));
    }

    #[test]
    fn no_budget_means_infinite_headroom() {
        let l = BillingLedger::new();
        l.record(rec("carol", 1, 3600, 100.0, "x"));
        assert!(l.within_budget("carol"));
        assert!(l.remaining_budget("carol").is_infinite());
    }

    #[test]
    fn activity_breakdown() {
        let l = BillingLedger::new();
        l.record(rec("a", 1, 3600, 1.0, "lab-1"));
        l.record(rec("b", 1, 3600, 2.0, "lab-1"));
        l.record(rec("a", 1, 3600, 3.0, "assignment-1"));
        let by = l.cost_by_activity();
        assert!((by["lab-1"] - 3.0).abs() < 1e-9);
        assert!((by["assignment-1"] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_student_averages_over_distinct_students() {
        let l = BillingLedger::new();
        l.record(rec("a", 1, 2 * 3600, 1.0, "lab"));
        l.record(rec("b", 1, 4 * 3600, 3.0, "lab"));
        let (h, c) = l.per_student_averages();
        assert!((h - 3.0).abs() < 1e-9);
        assert!((c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_averages_are_zero() {
        assert_eq!(BillingLedger::new().per_student_averages(), (0.0, 0.0));
    }
}
