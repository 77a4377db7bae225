//! Algorithm 1 end-to-end: distributed GCN training with METIS
//! partitioning over Dask-style workers pinned to simulated GPUs.
//!
//! Reproduces §III-B's experiment: sequential baseline, then METIS and
//! random partitioning across 2 and 3 GPUs, reporting accuracy, simulated
//! time, speedup, and partition quality.
//!
//! ```text
//! cargo run --release --example distributed_gcn
//! ```

use sagemaker_gpu_workflows::sagegpu::gcn::distributed::{
    train_distributed, train_distributed_with_opts, DistOptions, PartitionStrategy,
};
use sagemaker_gpu_workflows::sagegpu::gcn::experiment::{render_scaling_table, scaling_experiment};
use sagemaker_gpu_workflows::sagegpu::gcn::sequential::full_graph_test_accuracy;
use sagemaker_gpu_workflows::sagegpu::gcn::TrainConfig;
use sagemaker_gpu_workflows::sagegpu::graph::generators::{sbm, SbmParams};
use sagemaker_gpu_workflows::sagegpu::taskflow::policy::{FaultPlan, RetryPolicy};
use std::time::Duration;

fn main() {
    // A PubMed-shaped planted-partition graph: 3 communities whose labels
    // are homophilous, with enough cross-community "noise" edges that
    // partitioning has something to clean up.
    let ds = sbm(
        &SbmParams {
            block_sizes: vec![120, 120, 120],
            p_in: 0.12,
            p_out: 0.03,
            feature_dim: 64,
            feature_separation: 0.22,
            train_fraction: 0.3,
        },
        2025,
    )
    .expect("valid SBM");
    println!(
        "dataset {}: {} nodes, {} edges, homophily {:.2}",
        ds.name,
        ds.num_nodes(),
        ds.graph.num_edges(),
        ds.edge_homophily()
    );

    let cfg = TrainConfig {
        epochs: 25,
        ..Default::default()
    };

    // The full sweep of §III-B.
    let rows = scaling_experiment(&ds, &[2, 3], &cfg).expect("experiment runs");
    println!("\n{}", render_scaling_table(&rows));

    // Detail view of one run: per-epoch loss and per-device utilization.
    let detail = train_distributed(&ds, 3, &cfg, PartitionStrategy::Metis).expect("trains");
    println!("METIS k=3 details:");
    println!(
        "  edge cut {} (balance {:.3})",
        detail.edge_cut, detail.balance
    );
    println!(
        "  device utilization: {:?}",
        detail
            .device_utilization
            .iter()
            .map(|u| format!("{:.0}%", 100.0 * u))
            .collect::<Vec<_>>()
    );
    for e in detail.epoch_stats.iter().step_by(5) {
        println!("  epoch {:>2}  loss {:.4}", e.epoch, e.loss);
    }
    println!(
        "  partitioned-inference accuracy {:.4} | full-graph inference {:.4}",
        detail.test_accuracy,
        full_graph_test_accuracy(&detail.model, &ds)
    );

    // Resilience: seeded fault injection kills workers mid-run; the retry
    // budget absorbs it and the run converges to the same losses.
    let faulty = train_distributed_with_opts(
        &ds,
        3,
        &cfg,
        PartitionStrategy::Metis,
        DistOptions {
            fault_plan: FaultPlan::crashes(7, 0.1),
            retry: RetryPolicy::fixed(5, Duration::ZERO),
            ..DistOptions::default()
        },
    )
    .expect("trains under faults");
    let m = &faulty.sched_metrics;
    println!("\nresilience (10% injected crash rate, 5 retries):");
    println!(
        "  {} attempts, {} retries absorbed, busy imbalance {:.2}",
        m.total_tasks(),
        m.total_retries(),
        m.busy_imbalance()
    );
    println!(
        "  final loss identical to fault-free run: {}",
        faulty.epoch_stats.last().map(|e| e.loss) == detail.epoch_stats.last().map(|e| e.loss)
    );
    println!("\npaper's claims to check: minimal speedup; METIS accuracy >= sequential");
}
