//! The `gcn-train` workload: Algorithm 1 on the A10 stochastic-block-model
//! graph, submitted as back-to-back training jobs. One job — one
//! `train_distributed_with_opts` call of [`EPOCHS`] epochs — is the unit of
//! work the shared end-to-end metrics count as a request.

use crate::procfs;
use crate::stats;
use crate::{Clock, Metric, Outcome};
use gpu_sim::{LinkKind, Topology};
use sagegpu_gcn::distributed::{
    train_distributed_with_opts, CommMode, DistOptions, DistResult, PartitionStrategy,
    ResidencyMode,
};
use sagegpu_gcn::exec::ExecMode;
use sagegpu_gcn::TrainConfig;
use sagegpu_graph::generators::{sbm, GraphDataset, SbmParams};
use std::time::Instant;

const WORKERS: usize = 8;
const EPOCHS: usize = 25;
/// Graphs an untraced run draws from its seed; `setup_s` is the median
/// time to generate one. METIS balance, and with it sim time, varies from
/// graph to graph, so per-graph medians keep the run steady.
const GRAPHS: usize = 4;
/// `metis_partition` calls timed in the traced run.
const PARTITIONS: usize = 3;

/// The A10 dataset (3 200 nodes in four blocks), drawn from `seed`.
fn dataset(seed: u64) -> Result<GraphDataset, String> {
    sbm(
        &SbmParams {
            block_sizes: vec![800; 4],
            p_in: 0.10,
            p_out: 0.02,
            feature_dim: 256,
            feature_separation: 0.5,
            train_fraction: 0.3,
        },
        seed,
    )
    .map_err(|e| format!("SBM generation failed: {e}"))
}

struct Job {
    /// Index of the graph the job trained on.
    graph: usize,
    result: DistResult,
    wall_s: f64,
    cpu_s: f64,
}

fn train(ds: &GraphDataset, graph: usize, record_trace: bool) -> Result<Job, String> {
    let cfg = TrainConfig {
        epochs: EPOCHS,
        hidden: 128,
        ..Default::default()
    };
    let opts = DistOptions {
        topology: Topology::Flat(LinkKind::Ethernet),
        comm: CommMode::BucketedOverlap { bucket_bytes: 2560 },
        residency: ResidencyMode::Resident,
        exec: ExecMode::FusedOverlapped,
        record_trace,
        ..DistOptions::default()
    };
    let cpu0 = procfs::cpu_seconds()?;
    let t = Instant::now();
    let result = train_distributed_with_opts(ds, WORKERS, &cfg, PartitionStrategy::Metis, opts)
        .map_err(|e| format!("training failed: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Job {
        graph,
        result,
        wall_s,
        cpu_s: procfs::cpu_seconds()? - cpu0,
    })
}

/// What must repeat exactly from job to job on one dataset.
fn fingerprint(r: &DistResult) -> (u32, u64, u64) {
    let loss = r.epoch_stats.last().map_or(f32::NAN, |e| e.loss);
    (loss.to_bits(), r.test_accuracy.to_bits(), r.sim_time_ns)
}

/// The end-to-end metrics over a set of jobs. Sim time is a property of
/// the graph, so it is taken per graph and the median reported.
fn job_metrics(jobs: &[Job]) -> Vec<Metric> {
    let n = Some(jobs.len());
    let mut wall_ms: Vec<f64> = jobs.iter().map(|j| j.wall_s * 1e3).collect();
    wall_ms.sort_by(f64::total_cmp);
    let sims: Vec<f64> = jobs
        .iter()
        .map(|j| (j.graph, j.result.sim_time_ns as f64 / 1e3))
        .collect::<std::collections::BTreeMap<_, _>>()
        .into_values()
        .collect();
    let sim_us = stats::median(&sims);
    let cpu_us: f64 = jobs.iter().map(|j| j.cpu_s).sum::<f64>() * 1e6 / jobs.len() as f64;
    let p50 = stats::percentile(&wall_ms, 0.5).unwrap_or(f64::NAN);
    let graphs = Some(sims.len());
    vec![
        Metric::new("latency_p50_wall_ms", p50, "ms", Clock::Wall, n),
        Metric::new(
            "latency_p99_wall_ms",
            stats::percentile(&wall_ms, 0.99).unwrap_or(f64::NAN),
            "ms",
            Clock::Wall,
            n,
        ),
        Metric::new("cpu_us_per_request", cpu_us, "us", Clock::Cpu, n),
        Metric::new("sim_us_per_request", sim_us, "us", Clock::Sim, graphs),
        Metric::new("train_wall_s", p50 / 1e3, "s", Clock::Wall, n),
        Metric::new(
            "epoch_sim_ms",
            sim_us / 1e3 / EPOCHS as f64,
            "ms",
            Clock::Sim,
            graphs,
        ),
    ]
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let graphs = if traced { 1 } else { GRAPHS };
    let mut setup = Vec::with_capacity(graphs);
    let mut datasets = Vec::with_capacity(graphs);
    let mut state = seed;
    for _ in 0..graphs {
        let graph_seed = stats::splitmix64(&mut state);
        let t = Instant::now();
        datasets.push(dataset(graph_seed)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    out.metrics.push(Metric::new(
        "setup_s",
        stats::median(&setup),
        "s",
        Clock::Wall,
        Some(setup.len()),
    ));

    // Untraced jobs round-robin over the graphs, each graph at least
    // twice, until the run's time is spent (the traced run stops there).
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < 2 * graphs || (!traced && start.elapsed().as_secs_f64() < seconds) {
        let g = jobs.len() % graphs;
        jobs.push(train(&datasets[g], g, false)?);
    }
    let mut failed = 0u64;
    for (g, ds) in datasets.iter().enumerate() {
        let runs: Vec<&Job> = jobs.iter().filter(|j| j.graph == g).collect();
        let want = fingerprint(&runs[0].result);
        failed += runs
            .iter()
            .filter(|j| fingerprint(&j.result) != want)
            .count() as u64;
        let r = &runs[0].result;
        out.lines.push(format!(
            "graph {g}: nodes={} edge_cut={} final_loss={} test_accuracy={} sim_ms={} jobs={}",
            ds.num_nodes(),
            r.edge_cut,
            r.epoch_stats.last().map_or(f32::NAN, |e| e.loss),
            r.test_accuracy,
            r.sim_time_ns as f64 / 1e6,
            runs.len()
        ));
    }
    let mut attempted = jobs.len() as u64;
    let list = |f: &dyn Fn(&Job) -> f64| -> Vec<String> {
        jobs.iter().map(|j| format!("{:.1}", f(j))).collect()
    };
    out.lines.push(format!(
        "job wall_ms=[{}] cpu_ms=[{}]",
        list(&|j| j.wall_s * 1e3).join(", "),
        list(&|j| j.cpu_s * 1e3).join(", ")
    ));

    if traced {
        let plain = job_metrics(&jobs);
        out.metrics
            .extend(plain.into_iter().map(|m| m.prefixed("untraced.")));
        let job = train(&datasets[0], 0, true)?;
        attempted += 1;
        if fingerprint(&job.result) != fingerprint(&jobs[0].result) {
            failed += 1;
        }
        let plain_cpu = jobs.iter().map(|j| j.cpu_s).sum::<f64>() / jobs.len() as f64;
        out.metrics.push(Metric::new(
            "tracing.cpu_overhead_ratio",
            job.cpu_s / plain_cpu,
            "ratio",
            Clock::Cpu,
            Some(1),
        ));
        layer_metrics(&datasets[0], &job, &mut out)?;
        out.metrics.extend(job_metrics(std::slice::from_ref(&job)));
    } else {
        out.metrics.extend(job_metrics(&jobs));
    }
    out.lines.push(format!(
        "jobs: attempted={attempted} mismatched={failed} \
         (final loss, test accuracy and sim time must repeat exactly per graph)"
    ));
    out.metrics.push(Metric::new(
        "peak_rss_mb",
        procfs::peak_rss_mb()?,
        "MB",
        Clock::None,
        None,
    ));
    out.correct &= failed == 0;
    out.attempted = attempted;
    out.failed = failed;
    Ok(out)
}

fn layer_metrics(ds: &GraphDataset, job: &Job, out: &mut Outcome) -> Result<(), String> {
    let r = &job.result;
    let trace = r.trace.as_ref().ok_or("traced job returns its trace")?;
    let subs = trace.submissions();
    let t = Instant::now();
    let replayed = gpu_sim::trace::replay(trace, &gpu_sim::WhatIf::default())
        .map_err(|e| format!("trace replay failed: {e}"))?;
    let replay_ns = t.elapsed().as_nanos() as f64;
    if replayed.sim_time_ns != trace.sim_time_ns || replayed.submissions != subs {
        out.correct = false;
        out.lines.push(format!(
            "replay mismatch: sim {} vs {} ns, {} vs {subs} submissions",
            replayed.sim_time_ns, trace.sim_time_ns, replayed.submissions
        ));
    }
    let t = Instant::now();
    sagegpu_profiler::ingest::ingest_trace(trace).map_err(|e| format!("ingest failed: {e}"))?;
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut partition_ms = Vec::with_capacity(PARTITIONS);
    for _ in 0..PARTITIONS {
        let t = Instant::now();
        std::hint::black_box(
            sagegpu_graph::partition::metis_partition(&ds.graph, WORKERS)
                .map_err(|e| format!("partition failed: {e}"))?,
        );
        partition_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let epochs = EPOCHS as f64;
    let per_epoch = |name: &str, v: f64, unit: &str, clock: Clock| {
        Metric::new(name, v / epochs, unit, clock, Some(EPOCHS))
    };
    let util = &r.device_utilization;
    out.metrics.extend([
        Metric::new(
            "gpu.wall_ns_per_submission",
            replay_ns / subs.max(1) as f64,
            "ns",
            Clock::Wall,
            Some(subs as usize),
        ),
        Metric::new(
            "gpu.submissions_per_request",
            subs as f64,
            "count",
            Clock::None,
            Some(1),
        ),
        Metric::new(
            "gpu.kernels_per_request",
            r.kernel_launches as f64,
            "count",
            Clock::None,
            Some(1),
        ),
        Metric::new(
            "profiler.ingest_wall_ms",
            ingest_ms,
            "ms",
            Clock::Wall,
            Some(subs as usize),
        ),
        Metric::new(
            "partition.wall_ms",
            stats::median(&partition_ms),
            "ms",
            Clock::Wall,
            Some(PARTITIONS),
        ),
        per_epoch(
            "gcn.kernel_launches_per_epoch",
            r.kernel_launches as f64,
            "count",
            Clock::None,
        ),
        per_epoch(
            "gcn.submissions_per_epoch",
            subs as f64,
            "count",
            Clock::None,
        ),
        per_epoch(
            "gcn.exposed_comm_ms_per_epoch",
            r.exposed_comm_ns as f64 / 1e6,
            "ms",
            Clock::Sim,
        ),
        per_epoch(
            "gcn.overlapped_comm_ms_per_epoch",
            r.overlapped_comm_ns as f64 / 1e6,
            "ms",
            Clock::Sim,
        ),
        per_epoch(
            "gcn.p2p_mb_per_epoch",
            r.p2p_bytes as f64 / 1e6,
            "MB",
            Clock::None,
        ),
        Metric::new(
            "gcn.device_utilization_mean",
            util.iter().sum::<f64>() / util.len().max(1) as f64,
            "share",
            Clock::Sim,
            Some(util.len()),
        ),
        per_epoch(
            "taskflow.tasks_per_batch",
            r.sched_metrics.total_tasks() as f64,
            "count",
            Clock::None,
        ),
        Metric::new(
            "taskflow.steals",
            r.sched_metrics.total_steals() as f64,
            "count",
            Clock::None,
            None,
        ),
    ]);
    Ok(())
}
