//! One function per reproduced experiment (DESIGN.md E01–E21).

use sagegpu_core::cloud::pricing::InstanceCatalog;
use sagegpu_core::edu::cohort::{Cohort, Level, Semester};
use sagegpu_core::edu::evaluation::{evaluation_profile, EVALUATION_QUESTIONS};
use sagegpu_core::edu::grades::{grade_distribution, simulate_grades};
use sagegpu_core::edu::satisfaction::{satisfaction_counts, satisfaction_percentages};
use sagegpu_core::edu::scores::appendix_c_scores;
use sagegpu_core::edu::surveys::{survey_summary, SurveyQuestion, SurveyWave};
use sagegpu_core::edu::usage::{simulate_semester_usage, UsageSummary};
use sagegpu_core::gcn::experiment::{scaling_experiment, ScalingRow};
use sagegpu_core::gcn::TrainConfig;
use sagegpu_core::gpu::{DeviceSpec, Gpu};
use sagegpu_core::graph::generators::{sbm, GraphDataset, SbmParams};
use sagegpu_core::graph::partition::{
    edge_cut, metis_partition, partition_balance, random_partition,
};
use sagegpu_core::rag::corpus::Corpus;
use sagegpu_core::rag::embed::Embedder;
use sagegpu_core::rag::index::{recall_at_k, Codec, FlatIndex, IvfIndex, RetrievalIndex};
use sagegpu_core::rag::pipeline::build_flat_pipeline;
use sagegpu_core::stats::boxplot::{boxplot, BoxplotData};
use sagegpu_core::stats::describe::{describe, DescriptiveStats};
use sagegpu_core::stats::histogram::{histogram_range, Histogram};
use sagegpu_core::stats::levene::{levene_test, Center, LeveneResult};
use sagegpu_core::stats::likert::LikertSummary;
use sagegpu_core::stats::mannwhitney::{mann_whitney_u, MannWhitneyResult};
use sagegpu_core::stats::qq::{qq_correlation, qq_points};
use sagegpu_core::stats::shapiro::{shapiro_wilk, ShapiroResult};
use sagegpu_core::tensor::dense::Tensor;
use sagegpu_core::tensor::gpu_exec::GpuExecutor;
use std::sync::Arc;

use crate::artifact::{artifact_schema, bounds, rows, Check, NumField};
use serde_json::Value;

/// The fixed seed every experiment uses (determinism is part of the
/// reproduction contract).
pub const SEED: u64 = 2025;

// ---------------------------------------------------------------------
// E01 — Fig. 1: enrollment
// ---------------------------------------------------------------------

/// (semester label, undergraduates, graduates).
pub fn fig1_enrollment() -> Vec<(&'static str, usize, usize)> {
    [
        Semester::Fall2024,
        Semester::Spring2025,
        Semester::Summer2025,
    ]
    .iter()
    .map(|&s| {
        let (ug, g) = sagegpu_core::edu::cohort::enrollment(s);
        (s.label(), ug, g)
    })
    .collect()
}

// ---------------------------------------------------------------------
// E02 — Fig. 2: grade distribution
// ---------------------------------------------------------------------

/// (semester label, [A, B, C, D, F] counts).
pub fn fig2_grades() -> Vec<(&'static str, [usize; 5])> {
    Semester::analyzed()
        .iter()
        .map(|&s| {
            let cohort = Cohort::generate(s, SEED);
            let outcomes = simulate_grades(&cohort, SEED);
            (s.label(), grade_distribution(&outcomes))
        })
        .collect()
}

// ---------------------------------------------------------------------
// E04 — Table II / Fig. 3: end-of-semester evaluations
// ---------------------------------------------------------------------

/// (question text, level, percentages [Never..Always]).
pub fn fig3_evaluations() -> Vec<(&'static str, Level, [f64; 5])> {
    let mut out = Vec::new();
    for (i, q) in EVALUATION_QUESTIONS.iter().enumerate() {
        for level in [Level::Undergraduate, Level::Graduate] {
            out.push((*q, level, evaluation_profile(i, level).percentages()));
        }
    }
    out
}

// ---------------------------------------------------------------------
// E05–E08 — Fig. 4: confidence surveys
// ---------------------------------------------------------------------

/// (question, semester label, wave, counts [SD..SA]).
pub fn fig4_surveys() -> Vec<(SurveyQuestion, &'static str, SurveyWave, LikertSummary)> {
    let mut out = Vec::new();
    for sem in Semester::analyzed() {
        let cohort = Cohort::generate(sem, SEED);
        for q in SurveyQuestion::ALL {
            for wave in [SurveyWave::Mid, SurveyWave::Final] {
                if let Some(s) = survey_summary(&cohort, q, wave, SEED) {
                    out.push((q, sem.label(), wave, s));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// E09 — Fig. 5 / Appendix A: AWS usage and cost
// ---------------------------------------------------------------------

/// Per-semester usage summaries from the cloud-sim replay.
pub fn fig5_usage() -> Vec<UsageSummary> {
    Semester::analyzed()
        .iter()
        .map(|&s| simulate_semester_usage(&Cohort::generate(s, SEED), SEED))
        .collect()
}

// ---------------------------------------------------------------------
// E10 — Table III: assumption tests
// ---------------------------------------------------------------------

/// Shapiro–Wilk per group plus Levene across groups.
pub struct TableIii {
    pub grad: ShapiroResult,
    pub undergrad: ShapiroResult,
    pub levene: LeveneResult,
}

/// Runs the Table III assumption tests on the simulated cohort scores.
pub fn table3_assumptions() -> TableIii {
    let s = appendix_c_scores(SEED);
    TableIii {
        grad: shapiro_wilk(&s.graduate).expect("valid sample"),
        undergrad: shapiro_wilk(&s.undergraduate).expect("valid sample"),
        levene: levene_test(&[&s.graduate, &s.undergraduate], Center::Mean).expect("two groups"),
    }
}

// ---------------------------------------------------------------------
// E11 — Table IV: descriptive statistics
// ---------------------------------------------------------------------

/// (group name, statistics).
pub fn table4_descriptives() -> Vec<(&'static str, DescriptiveStats)> {
    let s = appendix_c_scores(SEED);
    vec![
        ("Graduate", describe(&s.graduate).expect("n=20")),
        ("Undergraduate", describe(&s.undergraduate).expect("n=20")),
    ]
}

// ---------------------------------------------------------------------
// E12 — Fig. 6: histograms
// ---------------------------------------------------------------------

/// (group, histogram over [50, 100] with 10 bins).
pub fn fig6_histograms() -> Vec<(&'static str, Histogram)> {
    let s = appendix_c_scores(SEED);
    vec![
        (
            "Graduate",
            histogram_range(&s.graduate, 10, 50.0, 100.0).expect("valid"),
        ),
        (
            "Undergraduate",
            histogram_range(&s.undergraduate, 10, 50.0, 100.0).expect("valid"),
        ),
    ]
}

// ---------------------------------------------------------------------
// E13 — Figs. 7–8: Q–Q plots
// ---------------------------------------------------------------------

/// (group, straightness correlation, number of points).
pub fn fig7_8_qq() -> Vec<(&'static str, f64, usize)> {
    let s = appendix_c_scores(SEED);
    [
        ("Graduate", &s.graduate),
        ("Undergraduate", &s.undergraduate),
    ]
    .iter()
    .map(|(name, xs)| {
        let pts = qq_points(xs).expect("n=20");
        let r = qq_correlation(&pts).expect("non-degenerate");
        (*name, r, pts.len())
    })
    .collect()
}

// ---------------------------------------------------------------------
// E14 — Appendix C: Mann–Whitney U
// ---------------------------------------------------------------------

/// The group-difference test (paper: U = 332, p = .0004).
pub fn mwu_test() -> MannWhitneyResult {
    let s = appendix_c_scores(SEED);
    mann_whitney_u(&s.graduate, &s.undergraduate).expect("valid samples")
}

// ---------------------------------------------------------------------
// E15 — Fig. 9: boxplots
// ---------------------------------------------------------------------

/// (group, boxplot data).
pub fn fig9_boxplots() -> Vec<(&'static str, BoxplotData)> {
    let s = appendix_c_scores(SEED);
    vec![
        ("Graduate", boxplot(&s.graduate).expect("n=20")),
        ("Undergraduate", boxplot(&s.undergraduate).expect("n=20")),
    ]
}

// ---------------------------------------------------------------------
// E16 — Figs. 10–11: satisfaction
// ---------------------------------------------------------------------

/// (semester, counts, percentages), ascending satisfaction order.
pub fn fig10_11_satisfaction() -> Vec<(&'static str, [usize; 5], [f64; 5])> {
    Semester::analyzed()
        .iter()
        .map(|&s| {
            (
                s.label(),
                satisfaction_counts(s),
                satisfaction_percentages(s),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// E17 — §III-B: GCN scaling (speedup + accuracy)
// ---------------------------------------------------------------------

/// The standard experiment dataset: a PubMed-shaped SBM small enough to
/// sweep quickly. Deliberately *hard*: weak feature signal and a real
/// share of cross-community "noise" edges, so (a) sequential accuracy
/// stays below the ceiling and (b) METIS partitioning — which cuts mostly
/// the noise edges — can genuinely improve accuracy, the paper's §III-B
/// observation.
pub fn gcn_dataset() -> GraphDataset {
    sbm(
        &SbmParams {
            block_sizes: vec![120, 120, 120],
            p_in: 0.12,
            p_out: 0.03,
            feature_dim: 64,
            feature_separation: 0.22,
            train_fraction: 0.3,
        },
        SEED,
    )
    .expect("valid SBM parameters")
}

/// Sequential vs. distributed (METIS and random) across k.
pub fn gcn_scaling(ks: &[usize], epochs: usize) -> Vec<ScalingRow> {
    let ds = gcn_dataset();
    scaling_experiment(
        &ds,
        ks,
        &TrainConfig {
            epochs,
            ..Default::default()
        },
    )
    .expect("experiment runs")
}

// ---------------------------------------------------------------------
// E18 — partition quality sweep
// ---------------------------------------------------------------------

/// One row of the partition-quality table.
pub struct PartitionRow {
    pub k: usize,
    pub metis_cut: f64,
    pub random_cut: f64,
    pub metis_balance: f64,
    pub cut_ratio: f64,
}

/// Edge-cut and balance, METIS vs. random, across k.
pub fn partition_sweep(ks: &[usize]) -> Vec<PartitionRow> {
    let ds = gcn_dataset();
    let g = &ds.graph;
    ks.iter()
        .map(|&k| {
            let metis = metis_partition(g, k).expect("k <= n");
            let random = random_partition(g.num_nodes(), k, 1).expect("k <= n");
            let metis_cut = edge_cut(g, &metis);
            let random_cut = edge_cut(g, &random);
            PartitionRow {
                k,
                metis_cut,
                random_cut,
                metis_balance: partition_balance(g, &metis, k),
                cut_ratio: metis_cut / random_cut.max(1.0),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E19 — matmul / memory-bottleneck sweep (Labs 2–3, Assignment 1)
// ---------------------------------------------------------------------

/// One row of the matmul sweep.
pub struct MatmulRow {
    pub n: usize,
    pub kernel_us: f64,
    pub transfer_us: f64,
    pub achieved_gflops: f64,
    pub transfer_fraction: f64,
}

/// Uploads, multiplies, downloads for each size; reports the split.
pub fn matmul_sweep(sizes: &[usize]) -> Vec<MatmulRow> {
    sizes
        .iter()
        .map(|&n| {
            let gpu = Arc::new(Gpu::new(0, DeviceSpec::t4()));
            let exec = GpuExecutor::new(Arc::clone(&gpu));
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(SEED);
            let a = Tensor::randn(n, n, &mut rng);
            let b = Tensor::randn(n, n, &mut rng);
            exec.upload(&a).expect("fits");
            exec.upload(&b).expect("fits");
            let c = exec.matmul(&a, &b).expect("valid shapes");
            exec.download(&c).expect("fits");
            let stats = sagegpu_core::profiler::opstats::OpStatsTable::from_events(
                &gpu.recorder().snapshot(),
            );
            let kernel = stats.get("sgemm").expect("kernel ran");
            let transfer_ns: u64 = stats
                .rows
                .iter()
                .filter(|r| r.kind.is_transfer())
                .map(|r| r.total_ns)
                .sum();
            MatmulRow {
                n,
                kernel_us: kernel.total_ns as f64 / 1e3,
                transfer_us: transfer_ns as f64 / 1e3,
                achieved_gflops: kernel.achieved_gflops(),
                transfer_fraction: transfer_ns as f64 / (transfer_ns + kernel.total_ns) as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E20 — RAG latency/throughput (Labs 11–13, Assignment 4)
// ---------------------------------------------------------------------

/// Flat-vs-IVF retrieval quality/latency row.
pub struct RetrievalRow {
    pub index: String,
    pub nprobe: usize,
    pub scan_fraction: f64,
    pub mean_recall_at_5: f64,
}

/// Retrieval sweep: exact flat scan vs. IVF at several probe counts.
pub fn rag_retrieval_sweep(corpus_size: usize, nprobes: &[usize]) -> Vec<RetrievalRow> {
    let corpus = Corpus::synthetic(corpus_size, 80, SEED);
    let embedder = Embedder::new(96, SEED);
    let data: Vec<(usize, Vec<f32>)> = corpus
        .docs()
        .iter()
        .map(|d| (d.id, embedder.embed(&d.text)))
        .collect();
    let mut flat = FlatIndex::new(96);
    for (id, v) in &data {
        flat.add(*id, v.clone());
    }
    let queries: Vec<Vec<f32>> = (0..20)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();
    let mut rows = vec![RetrievalRow {
        index: "flat (exact)".into(),
        nprobe: 0,
        scan_fraction: 1.0,
        mean_recall_at_5: 1.0,
    }];
    let nlist = (corpus_size / 20).max(4);
    for &nprobe in nprobes {
        let mut ivf =
            IvfIndex::train(96, nlist, nlist, Codec::Full, &data, SEED).expect("ivf trains");
        ivf.set_nprobe(nprobe);
        let mut recall = 0.0;
        for q in &queries {
            let exact = flat.search(q, 5);
            let approx = ivf.search(q, 5);
            recall += recall_at_k(&exact, &approx);
        }
        rows.push(RetrievalRow {
            index: format!("ivf nlist={nlist}"),
            nprobe,
            scan_fraction: ivf.scan_fraction(),
            mean_recall_at_5: recall / queries.len() as f64,
        });
    }
    rows
}

/// Batch-size throughput row for end-to-end serving.
pub struct ServingRow {
    pub batch: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub throughput_qps: f64,
}

/// End-to-end serving sweep over batch sizes.
pub fn rag_serving_sweep(batches: &[usize]) -> Vec<ServingRow> {
    let queries: Vec<String> = (0..32)
        .map(|i| Corpus::topic_query(i % 5, 5, i as u64))
        .collect();
    batches
        .iter()
        .map(|&batch| {
            let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
            let pipeline = build_flat_pipeline(60, 96, exec, SEED);
            let rep = pipeline.run_workload(&queries, batch, SEED);
            ServingRow {
                batch,
                p50_us: rep.p50_us,
                p99_us: rep.p99_us,
                throughput_qps: rep.throughput_qps,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A05 — ablation: online serving (batch window x cache, under faults)
// ---------------------------------------------------------------------

/// One row of the online-serving ablation.
pub struct ServeAblationRow {
    pub max_batch: usize,
    pub window_us: u64,
    pub cache: bool,
    /// Simulated service time (retrieve + generate) percentiles.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Served requests per second of simulated device time.
    pub sim_qps: f64,
    /// Mean wall-clock admission-queue wait.
    pub mean_queue_wait_us: f64,
    pub cache_hit_rate: f64,
    pub mean_batch: f64,
    pub retries: u64,
    pub failed: u64,
    pub shed: u64,
}

/// Drives 64 requests (16 distinct queries, each repeated 4x) through the
/// online [`RagServer`](sagegpu_core::rag::serve::RagServer) under an
/// injected fault plan, sweeping micro-batch size / batch window / cache.
/// The batch-1 cold-cache row is the naive baseline; micro-batching
/// amortizes decode weight streaming and the warm cache removes repeat
/// retrievals, so p99 service time drops and simulated throughput rises.
pub fn serving_ablation() -> Vec<ServeAblationRow> {
    use sagegpu_core::rag::serve::{RagServer, ServerConfig};
    use sagegpu_core::taskflow::cluster::ClusterBuilder;
    use sagegpu_core::taskflow::policy::{FaultPlan, RetryPolicy};
    use std::time::Duration;

    let queries: Vec<String> = (0..64)
        .map(|i| {
            let distinct = i % 16;
            Corpus::topic_query(distinct % 5, 5, distinct as u64)
        })
        .collect();
    let faults = FaultPlan {
        seed: SEED,
        crash_rate: 0.10,
        slow_rate: 0.05,
        drop_rate: 0.05,
        slow_delay: Duration::from_micros(200),
    };

    let run = |max_batch: usize, window_us: u64, cache: bool| -> ServeAblationRow {
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let pipeline = Arc::new(build_flat_pipeline(60, 96, exec, SEED));
        let cluster = ClusterBuilder::new()
            .workers(4)
            .fault_plan(faults.clone())
            .build();
        let server = RagServer::start(
            Arc::clone(&pipeline),
            cluster,
            ServerConfig::new()
                .max_batch(max_batch)
                .batch_window(Duration::from_micros(window_us))
                .queue_capacity(256)
                .cache_capacity(if cache { 64 } else { 0 })
                .retry(RetryPolicy::fixed(6, Duration::ZERO))
                .seed(SEED),
        );
        let handles: Vec<_> = queries
            .iter()
            .map(|q| server.submit(q.clone()).expect("capacity 256 is ample"))
            .collect();
        for h in handles {
            h.wait().expect("retries absorb the injected faults");
        }
        let report = server.shutdown();
        let sim_span_s = pipeline.gpu().gpu().now_ns() as f64 * 1e-9;
        ServeAblationRow {
            max_batch,
            window_us,
            cache,
            p50_us: report.service.percentile_ns(0.50) as f64 / 1e3,
            p99_us: report.service.percentile_ns(0.99) as f64 / 1e3,
            sim_qps: if sim_span_s > 0.0 {
                report.served as f64 / sim_span_s
            } else {
                0.0
            },
            mean_queue_wait_us: report.queue_wait.mean_ns() / 1e3,
            cache_hit_rate: report.cache.hit_rate(),
            mean_batch: report.mean_batch_size,
            retries: report.retries,
            failed: report.failed,
            shed: report.shed,
        }
    };

    vec![
        run(1, 0, false),
        run(1, 0, true),
        run(8, 0, false),
        run(8, 0, true),
        run(8, 200, false),
        run(8, 200, true),
    ]
}

// ---------------------------------------------------------------------
// S01 — supplementary: Labs 8/10 + Assignment 3 (RL agents)
// ---------------------------------------------------------------------

/// One row of the RL comparison.
pub struct RlRow {
    pub agent: String,
    pub early_return: f64,
    pub late_return: f64,
    pub greedy_return: f64,
    pub greedy_steps: usize,
    pub sim_ms: f64,
}

/// Tabular Q vs DQN vs 3-GPU data-parallel DQN on the lab gridworld.
pub fn rl_comparison() -> Vec<RlRow> {
    use sagegpu_core::rl::dqn::{DqnAgent, DqnConfig};
    use sagegpu_core::rl::env::{Environment, GridWorld};
    use sagegpu_core::rl::parallel::train_parallel_dqn;
    use sagegpu_core::rl::tabular::QLearner;
    let mut rows = Vec::new();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;

    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(SEED);
    let mut env = GridWorld::lab4x4();
    let mut q = QLearner::new(env.num_states(), env.num_actions());
    let returns = q.train(&mut env, 300, &mut rng);
    let (g_ret, g_steps) = q.evaluate(&mut env, &mut rng);
    rows.push(RlRow {
        agent: "tabular-Q (Lab 10)".into(),
        early_return: mean(&returns[..30]),
        late_return: mean(&returns[returns.len() - 30..]),
        greedy_return: g_ret,
        greedy_steps: g_steps,
        sim_ms: 0.0, // CPU-side agent
    });

    let gpu = Gpu::new(0, DeviceSpec::t4());
    let mut env = GridWorld::lab4x4();
    let mut agent = DqnAgent::new(
        env.num_states(),
        env.num_actions(),
        DqnConfig {
            epsilon_decay_episodes: 80,
            ..Default::default()
        },
        SEED,
    );
    let returns = agent.train(&mut env, 120, &gpu, &mut rng);
    let (g_ret, g_steps) = agent.evaluate(&mut env, &mut rng);
    rows.push(RlRow {
        agent: "DQN 1 GPU (Lab 8)".into(),
        early_return: mean(&returns[..20]),
        late_return: mean(&returns[returns.len() - 20..]),
        greedy_return: g_ret,
        greedy_steps: g_steps,
        sim_ms: gpu.now_ns() as f64 / 1e6,
    });

    let r = train_parallel_dqn(3, 12, 6, DqnConfig::default(), SEED);
    rows.push(RlRow {
        agent: "DQN 3 GPUs (Asgn 3)".into(),
        early_return: r.round_returns[0],
        late_return: *r.round_returns.last().expect("rounds ran"),
        greedy_return: r.final_return,
        greedy_steps: r.final_steps,
        sim_ms: r.sim_time_ns as f64 / 1e6,
    });
    rows
}

// ---------------------------------------------------------------------
// S02 — supplementary: Lab 6 / Assignment 2 (distributed dataframes)
// ---------------------------------------------------------------------

/// One row of the distributed-groupby scaling table.
pub struct DfRow {
    pub workers: usize,
    pub sim_ms: f64,
    pub max_abs_error: f64,
}

/// Two-phase distributed group-by vs the single-node reference.
pub fn df_scaling(rows_in: usize, worker_counts: &[usize]) -> Vec<DfRow> {
    use sagegpu_core::df::distributed::PartitionedFrame;
    use sagegpu_core::df::frame::{Agg, DataFrame};
    use sagegpu_core::gpu::cluster::LinkKind;
    use sagegpu_core::gpu::GpuCluster;
    use sagegpu_core::taskflow::cluster::ClusterBuilder;

    let trips = DataFrame::taxi_trips(rows_in, SEED);
    let reference = trips
        .groupby_i64("zone", &[("fare", Agg::Mean)])
        .expect("reference");
    let ref_means = reference.f64_column("fare_mean").expect("column").to_vec();
    worker_counts
        .iter()
        .map(|&workers| {
            let gpus = Arc::new(GpuCluster::homogeneous(
                workers,
                DeviceSpec::t4(),
                LinkKind::Pcie,
            ));
            let cluster = Arc::new(ClusterBuilder::new().gpus(Arc::clone(&gpus)).build());
            let pf = PartitionedFrame::from_frame(trips.clone(), cluster);
            let result = pf
                .groupby_mean("zone", "fare")
                .expect("distributed groupby");
            let means = result.f64_column("fare_mean").expect("column");
            let max_abs_error = means
                .iter()
                .zip(&ref_means)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            DfRow {
                workers,
                sim_ms: gpus.makespan_ns() as f64 / 1e6,
                max_abs_error,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A01 — ablation: interconnect class for Algorithm 1
// ---------------------------------------------------------------------

/// One row of the interconnect ablation.
pub struct InterconnectRow {
    pub link: &'static str,
    pub sim_time_ms: f64,
    pub speedup_vs_sequential: f64,
}

/// Re-runs the k=3 METIS configuration over each interconnect class.
/// Answers "would the paper's minimal speedup persist with better links?"
pub fn interconnect_ablation(epochs: usize) -> Vec<InterconnectRow> {
    use sagegpu_core::gcn::distributed::{train_distributed_with_link, PartitionStrategy};
    use sagegpu_core::gcn::sequential::train_sequential;
    use sagegpu_core::gpu::cluster::LinkKind;
    let ds = gcn_dataset();
    let cfg = TrainConfig {
        epochs,
        ..Default::default()
    };
    let seq = train_sequential(&ds, &cfg).sim_time_ns as f64;
    [
        ("ethernet (course)", LinkKind::Ethernet),
        ("pcie", LinkKind::Pcie),
        ("nvlink", LinkKind::NvLink),
    ]
    .into_iter()
    .map(|(name, link)| {
        let r = train_distributed_with_link(&ds, 3, &cfg, PartitionStrategy::Metis, link)
            .expect("trains");
        InterconnectRow {
            link: name,
            sim_time_ms: r.sim_time_ns as f64 / 1e6,
            speedup_vs_sequential: seq / r.sim_time_ns as f64,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------
// A02 — ablation: taskflow scheduling policy
// ---------------------------------------------------------------------

/// One row of the scheduler-policy ablation.
pub struct SchedulerRow {
    pub workers: usize,
    pub fifo_makespan: f64,
    pub critical_path_makespan: f64,
    pub lower_bound: f64,
}

/// List-scheduling makespans of a skewed fork-join graph (one long chain
/// plus many short independent tasks) under both policies.
pub fn scheduler_ablation(worker_counts: &[usize]) -> Vec<SchedulerRow> {
    use sagegpu_core::taskflow::graph::{SchedulePolicy, TaskGraph};
    let mut g = TaskGraph::new();
    // Many short independent tasks first (FIFO's trap) …
    for i in 0..12 {
        g.add_task(&format!("short-{i}"), &[], 2.0)
            .expect("fresh name");
    }
    // … then a long dependent chain that dominates the critical path.
    g.add_task("chain-0", &[], 8.0).expect("fresh name");
    for i in 1..4 {
        g.add_task(&format!("chain-{i}"), &[&format!("chain-{}", i - 1)], 8.0)
            .expect("fresh name");
    }
    worker_counts
        .iter()
        .map(|&workers| SchedulerRow {
            workers,
            fifo_makespan: g.estimate_makespan(workers, SchedulePolicy::Fifo),
            critical_path_makespan: g.estimate_makespan(workers, SchedulePolicy::CriticalPath),
            lower_bound: g.critical_path().max(g.total_work() / workers as f64),
        })
        .collect()
}

// ---------------------------------------------------------------------
// A04 — ablation: cluster dispatch mode on an imbalanced task bag
// ---------------------------------------------------------------------

/// One row of the dispatch-mode ablation.
pub struct DispatchRow {
    pub dispatch: &'static str,
    pub wall_ms: f64,
    pub steals: u64,
    pub busy_imbalance: f64,
}

/// Runs an imbalanced task bag — every `workers`-th task is ~1 ms, the
/// rest are trivial, so round-robin placement piles all the long tasks on
/// worker 0 — under both dispatch modes of the real cluster. Work stealing
/// lets idle workers drain worker 0's queue; the round-robin baseline
/// serializes the long tasks on one thread.
pub fn dispatch_ablation(workers: usize, tasks: usize) -> Vec<DispatchRow> {
    use sagegpu_core::taskflow::cluster::ClusterBuilder;
    use sagegpu_core::taskflow::policy::Dispatch;

    let run = |name: &'static str, dispatch: Dispatch| {
        let cluster = ClusterBuilder::new()
            .workers(workers)
            .dispatch(dispatch)
            .build();
        let start = std::time::Instant::now();
        let futures: Vec<_> = (0..tasks)
            .map(|i| {
                let long = i % workers == 0;
                cluster.submit(move |_| {
                    if long {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i
                })
            })
            .collect();
        let got = cluster.gather(futures).expect("tasks succeed");
        assert_eq!(got.len(), tasks);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let m = cluster.metrics();
        DispatchRow {
            dispatch: name,
            wall_ms,
            steals: m.total_steals(),
            busy_imbalance: m.busy_imbalance(),
        }
    };
    vec![
        run("round-robin", Dispatch::RoundRobin),
        run("work-stealing", Dispatch::WorkStealing),
    ]
}

// ---------------------------------------------------------------------
// A03 — ablation: access patterns and shared-memory tiling (week 3/5)
// ---------------------------------------------------------------------

/// One row of the access-pattern ablation.
pub struct AccessRow {
    pub kernel: String,
    pub sim_us: f64,
    pub slowdown_vs_best: f64,
}

/// Cost-model sweep: coalesced vs strided vs random elementwise traffic,
/// and tiled vs naive matmul — the week-3/5 optimization lessons.
pub fn access_ablation() -> Vec<AccessRow> {
    use sagegpu_core::gpu::{AccessPattern, Gpu, KernelProfile, LaunchConfig};
    let gpu = Gpu::new(0, DeviceSpec::t4());
    let n = 1u64 << 22;
    let cfg = LaunchConfig::for_elements(n, 256);
    let base = KernelProfile::elementwise(n, 1, 12);
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (name, access) in [
        ("elementwise coalesced", AccessPattern::Coalesced),
        ("elementwise strided", AccessPattern::Strided),
        ("elementwise random", AccessPattern::Random),
    ] {
        let (dur, _) = gpu
            .kernel_duration_ns(&cfg, &base.with_access(access))
            .expect("valid");
        rows.push((name.to_owned(), dur));
    }
    let m = 1024u64;
    let mm_cfg = LaunchConfig::for_matrix(m, m, 16);
    let (tiled, _) = gpu
        .kernel_duration_ns(&mm_cfg, &KernelProfile::matmul(m, m, m))
        .expect("valid");
    let (naive, _) = gpu
        .kernel_duration_ns(&mm_cfg, &KernelProfile::matmul_naive(m, m, m))
        .expect("valid");
    rows.push(("matmul 1024 tiled (shared mem)".to_owned(), tiled));
    rows.push(("matmul 1024 naive".to_owned(), naive));

    // Normalize per group: the first three against coalesced, the matmuls
    // against tiled.
    let elem_best = rows[0].1 as f64;
    let mm_best = tiled as f64;
    rows.into_iter()
        .enumerate()
        .map(|(i, (kernel, dur))| AccessRow {
            kernel,
            sim_us: dur as f64 / 1e3,
            slowdown_vs_best: dur as f64 / if i < 3 { elem_best } else { mm_best },
        })
        .collect()
}

// ---------------------------------------------------------------------
// A06 — ablation: device residency (resident vs naive data movement)
// ---------------------------------------------------------------------

/// One GCN training run under a residency mode.
pub struct ResidencyGcnRow {
    pub mode: &'static str,
    pub h2d_kb: f64,
    pub d2h_kb: f64,
    pub p2p_kb: f64,
    pub host_link_bytes: u64,
    pub sim_time_ms: f64,
    pub final_loss: f32,
    pub test_accuracy: f64,
    /// Device 0's residency-aware bottleneck class.
    pub bottleneck: String,
    pub residency_hit_ratio: f64,
}

/// One batched RAG retrieval run under a residency mode.
pub struct ResidencyRagRow {
    pub mode: &'static str,
    pub h2d_kb: f64,
    pub d2h_kb: f64,
    pub host_link_bytes: u64,
    pub residency_hit_ratio: f64,
}

/// The full residency ablation: multi-epoch distributed GCN training and
/// a batched RAG retrieval workload, each naive vs resident.
pub struct ResidencyAblation {
    pub gcn: Vec<ResidencyGcnRow>,
    /// Naive ÷ resident host-link bytes for the GCN runs.
    pub gcn_reduction: f64,
    /// True when both GCN runs produced bit-identical losses and accuracy.
    pub gcn_identical: bool,
    pub rag: Vec<ResidencyRagRow>,
    /// Naive ÷ resident host-link bytes for the RAG runs.
    pub rag_reduction: f64,
    /// True when both RAG runs returned identical scores for every query.
    pub rag_identical: bool,
}

/// A06 — the tentpole acceptance experiment. Trains the E17 GCN dataset
/// for 60 epochs on 2 NVLink-connected GPUs with θ/optimizer state naive
/// (re-staged through host RAM every epoch) vs device-resident (uploaded
/// once, synced back once), then scores 32 RAG queries against a 60-doc
/// index with the document matrix re-staged per query vs resident. Both
/// comparisons must be value-identical — residency only changes where the
/// bytes flow.
pub fn residency_ablation() -> ResidencyAblation {
    use sagegpu_core::gcn::distributed::{
        train_distributed_with_opts, DistOptions, PartitionStrategy, ResidencyMode,
    };
    use sagegpu_core::gpu::cluster::{LinkKind, Topology};

    let ds = gcn_dataset();
    let cfg = TrainConfig {
        epochs: 60,
        hidden: 32,
        ..Default::default()
    };
    let run_gcn = |mode: ResidencyMode| {
        train_distributed_with_opts(
            &ds,
            2,
            &cfg,
            PartitionStrategy::Metis,
            DistOptions {
                topology: Topology::Flat(LinkKind::NvLink),
                residency: mode,
                ..DistOptions::default()
            },
        )
        .expect("trains")
    };
    let naive = run_gcn(ResidencyMode::Naive);
    let resident = run_gcn(ResidencyMode::Resident);
    let gcn_identical = naive.epoch_stats == resident.epoch_stats
        && naive.test_accuracy == resident.test_accuracy
        && naive.model.get_parameters() == resident.model.get_parameters();
    let gcn_reduction = naive.host_link_bytes() as f64 / resident.host_link_bytes().max(1) as f64;
    let gcn_rows = [naive, resident]
        .into_iter()
        .map(|r| ResidencyGcnRow {
            mode: r.residency,
            h2d_kb: r.h2d_bytes as f64 / 1e3,
            d2h_kb: r.d2h_bytes as f64 / 1e3,
            p2p_kb: r.p2p_bytes as f64 / 1e3,
            host_link_bytes: r.host_link_bytes(),
            sim_time_ms: r.sim_time_ns as f64 / 1e6,
            final_loss: r.epoch_stats.last().expect("epochs ran").loss,
            test_accuracy: r.test_accuracy,
            bottleneck: format!("{:?}", r.bottleneck.class),
            residency_hit_ratio: r.residency_lookups.hit_ratio(),
        })
        .collect();

    // RAG: 32 queries against a 60-doc, 96-dim document matrix.
    let embedder = Embedder::new(96, SEED);
    let corpus = Corpus::synthetic(60, 80, SEED);
    let rows: Vec<Vec<f32>> = corpus
        .docs()
        .iter()
        .map(|d| embedder.embed(&d.text))
        .collect();
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let mat = Tensor::from_vec(60, 96, flat).expect("dims");
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();

    let run_rag = |resident: bool| -> (ResidencyRagRow, Vec<Vec<f32>>) {
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let device_mat = if resident {
            Some(exec.upload(&mat).expect("index fits"))
        } else {
            None
        };
        let scores: Vec<Vec<f32>> = queries
            .iter()
            .map(|q| match &device_mat {
                Some(dm) => exec.score_rows(dm, q).expect("scores"),
                None => exec.score_rows(&mat, q).expect("scores"),
            })
            .collect();
        let snap = exec.residency_snapshot();
        (
            ResidencyRagRow {
                mode: if resident { "resident" } else { "naive" },
                h2d_kb: snap.h2d_bytes as f64 / 1e3,
                d2h_kb: snap.d2h_bytes as f64 / 1e3,
                host_link_bytes: snap.host_link_bytes(),
                residency_hit_ratio: snap.hit_ratio(),
            },
            scores,
        )
    };
    let (rag_naive, naive_scores) = run_rag(false);
    let (rag_resident, resident_scores) = run_rag(true);
    let rag_identical = naive_scores == resident_scores;
    let rag_reduction =
        rag_naive.host_link_bytes as f64 / rag_resident.host_link_bytes.max(1) as f64;

    ResidencyAblation {
        gcn: gcn_rows,
        gcn_reduction,
        gcn_identical,
        rag: vec![rag_naive, rag_resident],
        rag_reduction,
        rag_identical,
    }
}

// ---------------------------------------------------------------------
// A07 — fused kernels + stream pipelining ablation
// ---------------------------------------------------------------------

artifact_schema! {
    /// One distributed GCN training run under an execution mode.
    pub struct FusionGcnRow {
        pub mode: &'static str,
        /// Total kernel launches charged across both workers.
        pub kernel_launches: u64,
        pub sim_time_ms: f64,
        /// Device 0's share of kernel time lost to fixed launch overhead.
        pub launch_overhead_fraction: f64,
        pub final_loss: f32,
        pub test_accuracy: f64,
    }

    /// One 32-query RAG scoring run under an execution mode.
    pub struct FusionRagRow {
        pub mode: &'static str,
        pub kernel_launches: u64,
        pub sim_time_us: f64,
        /// Engine-busy ÷ makespan: above the serial run's value means the
        /// two-stream pipeline genuinely overlapped copies with compute.
        pub overlap_efficiency: f64,
    }

    /// The full fusion ablation: distributed GCN training charged per-op vs
    /// with fused epilogues, and RAG scoring per-query vs double-buffered.
    pub struct FusionAblation {
        pub gcn: Vec<FusionGcnRow>,
        /// Serial ÷ fused kernel launches for the GCN runs.
        pub gcn_launch_reduction: f64,
        /// Serial ÷ fused simulated makespan for the GCN runs.
        pub gcn_speedup: f64,
        /// True when both GCN runs produced bit-identical losses, accuracy,
        /// and trained parameters.
        pub gcn_identical: bool,
        pub rag: Vec<FusionRagRow>,
        /// Serial ÷ fused kernel launches for the RAG runs.
        pub rag_launch_reduction: f64,
        /// Serial ÷ fused simulated makespan for the RAG runs.
        pub rag_speedup: f64,
        /// True when both RAG runs returned identical scores for every query.
        pub rag_identical: bool,
    }
}

/// A07 — the perf-optimization acceptance experiment. Trains the E17 GCN
/// dataset for 40 epochs on 2 NVLink-connected resident workers with every
/// logical op its own launch vs fused epilogues + overlapped feature
/// upload, then scores 32 RAG queries per-query vs through the two-stream
/// double-buffered batch path. Fusion and overlap only change the cost
/// model: both comparisons must be value-identical while the fused side
/// launches strictly fewer kernels in strictly less simulated time.
pub fn fusion_ablation() -> FusionAblation {
    use sagegpu_core::gcn::distributed::{
        train_distributed_with_opts, DistOptions, PartitionStrategy, ResidencyMode,
    };
    use sagegpu_core::gcn::exec::ExecMode;
    use sagegpu_core::gpu::cluster::{LinkKind, Topology};
    use sagegpu_core::profiler::bottleneck::analyze;
    use sagegpu_core::profiler::timeline::Timeline;

    let ds = gcn_dataset();
    let cfg = TrainConfig {
        epochs: 40,
        hidden: 32,
        ..Default::default()
    };
    let run_gcn = |mode: ExecMode| {
        train_distributed_with_opts(
            &ds,
            2,
            &cfg,
            PartitionStrategy::Metis,
            DistOptions {
                topology: Topology::Flat(LinkKind::NvLink),
                residency: ResidencyMode::Resident,
                exec: mode,
                ..DistOptions::default()
            },
        )
        .expect("trains")
    };
    let serial = run_gcn(ExecMode::PerOpSerial);
    let fused = run_gcn(ExecMode::FusedOverlapped);
    let gcn_identical = serial.epoch_stats == fused.epoch_stats
        && serial.test_accuracy == fused.test_accuracy
        && serial.model.get_parameters() == fused.model.get_parameters();
    let gcn_launch_reduction = serial.kernel_launches as f64 / fused.kernel_launches.max(1) as f64;
    let gcn_speedup = serial.sim_time_ns as f64 / fused.sim_time_ns.max(1) as f64;
    let gcn_rows = [serial, fused]
        .into_iter()
        .map(|r| FusionGcnRow {
            mode: r.exec,
            kernel_launches: r.kernel_launches,
            sim_time_ms: r.sim_time_ns as f64 / 1e6,
            launch_overhead_fraction: r.bottleneck.launch_overhead_fraction,
            final_loss: r.epoch_stats.last().expect("epochs ran").loss,
            test_accuracy: r.test_accuracy,
        })
        .collect();

    // RAG: the A06 workload — 32 queries against a 60-doc, 96-dim resident
    // index — scored one launch per query vs chunked across two streams.
    let embedder = Embedder::new(96, SEED);
    let corpus = Corpus::synthetic(60, 80, SEED);
    let rows: Vec<Vec<f32>> = corpus
        .docs()
        .iter()
        .map(|d| embedder.embed(&d.text))
        .collect();
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let mat = Tensor::from_vec(60, 96, flat).expect("dims");
    let queries: Vec<Vec<f32>> = (0..32)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();

    let run_rag = |batch: bool| -> (FusionRagRow, Vec<Vec<f32>>) {
        let gpu = Arc::new(Gpu::new(0, DeviceSpec::t4()));
        let exec = GpuExecutor::new(Arc::clone(&gpu));
        let device_mat = exec.upload(&mat).expect("index fits");
        let scores: Vec<Vec<f32>> = if batch {
            exec.score_rows_batch(&device_mat, &queries)
                .expect("scores")
        } else {
            queries
                .iter()
                .map(|q| exec.score_rows(&device_mat, q).expect("scores"))
                .collect()
        };
        let timeline = Timeline::from_recorder(gpu.recorder());
        let report = analyze(&timeline, 0, &DeviceSpec::t4());
        (
            FusionRagRow {
                mode: if batch { "fused" } else { "serial" },
                kernel_launches: gpu.kernels_launched(),
                sim_time_us: gpu.now_ns() as f64 / 1e3,
                overlap_efficiency: report.overlap_efficiency,
            },
            scores,
        )
    };
    let (rag_serial, serial_scores) = run_rag(false);
    let (rag_fused, fused_scores) = run_rag(true);
    let rag_identical = serial_scores == fused_scores;
    let rag_launch_reduction =
        rag_serial.kernel_launches as f64 / rag_fused.kernel_launches.max(1) as f64;
    let rag_speedup = rag_serial.sim_time_us / rag_fused.sim_time_us.max(1e-9);

    FusionAblation {
        gcn: gcn_rows,
        gcn_launch_reduction,
        gcn_speedup,
        gcn_identical,
        rag: vec![rag_serial, rag_fused],
        rag_launch_reduction,
        rag_speedup,
        rag_identical,
    }
}

/// A07's bounds: in both domains the fused/pipelined run (row 1) makes
/// strictly fewer launches in strictly less sim time than the serial run
/// (row 0) with bit-identical outputs; fusion shrinks the GCN launch-
/// overhead share and pipelining lifts RAG overlap efficiency.
pub(crate) fn check_fusion(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    let (gcn_serial, gcn_fused) = (&v["gcn"][0], &v["gcn"][1]);
    let (rag_serial, rag_fused) = (&v["rag"][0], &v["rag"][1]);
    bounds!(
        c,
        rows(v, "gcn").len() == 2,
        gcn_serial["mode"] == "serial" && gcn_fused["mode"] == "fused",
        gcn_fused.num("kernel_launches") < gcn_serial.num("kernel_launches"),
        gcn_fused.num("launch_overhead_fraction") < gcn_serial.num("launch_overhead_fraction"),
        v.num("gcn_speedup") > 1.0,
        v.num("gcn_launch_reduction") > 1.0,
        v["gcn_identical"] == true,
        rows(v, "rag").len() == 2,
        rag_serial["mode"] == "serial" && rag_fused["mode"] == "fused",
        rag_fused.num("kernel_launches") < rag_serial.num("kernel_launches"),
        rag_fused.num("overlap_efficiency") > rag_serial.num("overlap_efficiency"),
        v.num("rag_speedup") > 1.0,
        v.num("rag_launch_reduction") > 1.0,
        v["rag_identical"] == true,
    );
    c.finish()
}

// ---------------------------------------------------------------------
// A08 — overlapped bucketed all-reduce + worker-scaling ablation
// ---------------------------------------------------------------------

/// Worker counts the A08 sweep covers.
pub const COMM_SCALING_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Bucket size cap used by the bucketed arms of A08/A10. Sized to the
/// model's layer boundary: the A08/A10 GCN carries W2+b2 (2 064 B, retired
/// first by backward) and W1+b1 (131 584 B, retired last). Any cap in
/// [2 064, 2 575] closes `{b2,W2}` on its own and leaves b1 and W1 in two
/// size-capped buckets that retire at the same launch, which
/// `merge_simultaneous_buckets` sends as one: two buckets per epoch — the
/// small output-layer bucket launches mid-backward while the input-layer
/// gradients are still being computed. The old 1 MiB cap exceeded the
/// whole 133 648 B payload and silently degenerated the "bucketed" arm to
/// one monolithic-shaped bucket at every k (`buckets_per_epoch: 1`); the
/// per-bucket latency this cap adds is absorbed by the cluster's
/// round-robin comm channels, which let the two buckets' collectives
/// overlap each other as well as backward.
pub const COMM_SCALING_BUCKET_BYTES: u64 = 2560;

/// The A08 workload: a four-community SBM large enough that the per-epoch
/// Ethernet gradient exchange (W1 is 256x128) is commensurate with the
/// per-worker compute — the regime where the paper's course clusters saw
/// "minimal performance improvement" from splitting the graph.
pub fn comm_scaling_dataset() -> GraphDataset {
    sbm(
        &SbmParams {
            block_sizes: vec![200, 200, 200, 200],
            p_in: 0.10,
            p_out: 0.02,
            feature_dim: 256,
            feature_separation: 0.5,
            train_fraction: 0.3,
        },
        SEED,
    )
    .expect("valid SBM parameters")
}

artifact_schema! {
    /// One distributed GCN run at a worker count under a comm schedule.
    pub struct CommScalingRow {
        pub workers: usize,
        /// "monolithic" or "bucketed".
        pub comm: &'static str,
        pub sim_time_ms: f64,
        /// Same-schedule 1-worker sim time ÷ this run's sim time.
        pub speedup: f64,
        /// Gradient-exchange time left on the critical path, summed over epochs.
        pub exposed_comm_ms: f64,
        /// Gradient-exchange time hidden behind backward compute.
        pub overlapped_comm_ms: f64,
        /// Device 0's profiler verdict: fraction of comm-lane time not covered
        /// by concurrent kernels.
        pub comm_exposed_fraction: f64,
        pub buckets_per_epoch: u64,
        pub final_loss: f32,
        pub test_accuracy: f64,
    }

    /// The full A08 sweep: workers × {monolithic, bucketed-overlap}.
    pub struct CommScalingAblation {
        pub rows: Vec<CommScalingRow>,
        /// True when, at every worker count, both schedules produced
        /// bit-identical losses, accuracy, and trained parameters.
        pub identical_all_k: bool,
        pub monolithic_speedup_at_4: f64,
        pub bucketed_speedup_at_4: f64,
        /// Monolithic ÷ bucketed sim time at 4 workers — the headline win.
        pub overlap_win_at_4: f64,
    }
}

/// A08 — the comm-overlap acceptance experiment. Sweeps 1/2/4/8 resident
/// fused workers over Ethernet with the gradient exchange charged as one
/// exposed monolithic all-reduce vs a bucketed chunked ring launched from
/// inside backward. Both schedules average gradients identically; only the
/// timeline changes, so every pairwise comparison must be bit-identical
/// while the bucketed arm strictly shrinks exposed communication at k ≥ 2.
pub fn comm_scaling_ablation() -> CommScalingAblation {
    use sagegpu_core::gcn::distributed::{
        train_distributed_with_opts, CommMode, DistOptions, PartitionStrategy, ResidencyMode,
    };
    use sagegpu_core::gcn::exec::ExecMode;
    use sagegpu_core::gpu::cluster::{LinkKind, Topology};

    let ds = comm_scaling_dataset();
    let cfg = TrainConfig {
        epochs: 25,
        hidden: 128,
        ..Default::default()
    };
    let run = |k: usize, comm: CommMode| {
        train_distributed_with_opts(
            &ds,
            k,
            &cfg,
            PartitionStrategy::Metis,
            DistOptions {
                topology: Topology::Flat(LinkKind::Ethernet),
                residency: ResidencyMode::Resident,
                exec: ExecMode::FusedOverlapped,
                comm,
                ..DistOptions::default()
            },
        )
        .expect("trains")
    };

    let mut rows: Vec<CommScalingRow> = Vec::new();
    let mut identical_all_k = true;
    let (mut mono_base_ns, mut buck_base_ns) = (0f64, 0f64);
    for &k in &COMM_SCALING_WORKERS {
        let mono = run(k, CommMode::Monolithic);
        let buck = run(
            k,
            CommMode::BucketedOverlap {
                bucket_bytes: COMM_SCALING_BUCKET_BYTES,
            },
        );
        identical_all_k &= mono.epoch_stats == buck.epoch_stats
            && mono.test_accuracy == buck.test_accuracy
            && mono.model.get_parameters() == buck.model.get_parameters();
        for r in [mono, buck] {
            let base_ns = if r.comm == "monolithic" {
                &mut mono_base_ns
            } else {
                &mut buck_base_ns
            };
            if k == 1 {
                *base_ns = r.sim_time_ns as f64;
            }
            rows.push(CommScalingRow {
                workers: k,
                comm: r.comm,
                sim_time_ms: r.sim_time_ns as f64 / 1e6,
                speedup: *base_ns / r.sim_time_ns.max(1) as f64,
                exposed_comm_ms: r.exposed_comm_ns as f64 / 1e6,
                overlapped_comm_ms: r.overlapped_comm_ns as f64 / 1e6,
                comm_exposed_fraction: r.bottleneck.comm_exposed_fraction,
                buckets_per_epoch: r.comm_buckets_per_epoch,
                final_loss: r.epoch_stats.last().expect("epochs ran").loss,
                test_accuracy: r.test_accuracy,
            });
        }
    }

    let at = |k: usize, comm: &str| {
        rows.iter()
            .find(|r| r.workers == k && r.comm == comm)
            .expect("swept row")
    };
    let monolithic_speedup_at_4 = at(4, "monolithic").speedup;
    let bucketed_speedup_at_4 = at(4, "bucketed").speedup;
    let overlap_win_at_4 = at(4, "monolithic").sim_time_ms / at(4, "bucketed").sim_time_ms;
    CommScalingAblation {
        rows,
        identical_all_k,
        monolithic_speedup_at_4,
        bucketed_speedup_at_4,
        overlap_win_at_4,
    }
}

/// A08's bounds: both schedules train bit-identically at every k; the
/// bucketed arm splits each epoch into >= 2 buckets and, at every k >= 2,
/// overlaps some comm and finishes strictly sooner (for k <= 4 it also
/// shrinks the absolute exposed tail; at k=8 the flat Ethernet ring is
/// latency-bound, which A10 addresses); at k=4 it recovers scaling.
pub(crate) fn check_comm_scaling(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    bounds!(
        c,
        rows(v, "rows").len() == 2 * COMM_SCALING_WORKERS.len(),
        v["identical_all_k"] == true,
        v.num("overlap_win_at_4") > 1.0,
        v.num("bucketed_speedup_at_4") > v.num("monolithic_speedup_at_4"),
    );
    for k in COMM_SCALING_WORKERS {
        c.scope(format!("k={k}"));
        let [mono, buck] = ["monolithic", "bucketed"]
            .map(|comm| c.row(v, "rows", comm, |r| r["workers"] == k && r["comm"] == comm));
        bounds!(
            c,
            mono["final_loss"] == buck["final_loss"],
            mono["test_accuracy"] == buck["test_accuracy"],
            mono.num("overlapped_comm_ms") == 0.0,
            mono.num("buckets_per_epoch") == 0.0,
            buck.num("buckets_per_epoch") >= 2.0,
            k < 2 || buck.num("overlapped_comm_ms") > 0.0,
            k < 2 || buck.num("comm_exposed_fraction") < 1.0,
            k < 2 || buck.num("sim_time_ms") < mono.num("sim_time_ms"),
            !(2..=4).contains(&k) || buck.num("exposed_comm_ms") < mono.num("exposed_comm_ms"),
            k != 4 || buck.num("comm_exposed_fraction") < mono.num("comm_exposed_fraction"),
        );
    }
    c.finish()
}

// ---------------------------------------------------------------------
// A09 — graph capture/replay ablation
// ---------------------------------------------------------------------

artifact_schema! {
    /// One distributed GCN training run under a submission mode.
    pub struct GraphGcnRow {
        /// "eager" or "captured".
        pub submit: &'static str,
        /// Real command submissions charged across both workers — a replayed
        /// graph counts as one launch regardless of how many nodes it holds.
        pub kernel_launches: u64,
        pub sim_time_ms: f64,
        /// Device 0's share of kernel time lost to fixed launch overhead.
        pub launch_overhead_fraction: f64,
        pub final_loss: f32,
        pub test_accuracy: f64,
    }

    /// One batched RAG scoring loop under a submission mode.
    pub struct GraphRagRow {
        /// "eager" or "captured".
        pub submit: &'static str,
        pub kernel_launches: u64,
        pub sim_time_us: f64,
    }

    /// The full A09 ablation: distributed GCN training and a repeated RAG
    /// batch-scoring loop, each submitted eagerly vs replayed from a captured
    /// command graph.
    pub struct GraphAblation {
        pub gcn: Vec<GraphGcnRow>,
        /// Eager ÷ captured kernel launches for the GCN runs.
        pub gcn_launch_reduction: f64,
        /// True when both GCN runs produced bit-identical losses, accuracy,
        /// and trained parameters.
        pub gcn_identical: bool,
        pub rag: Vec<GraphRagRow>,
        /// Eager ÷ captured kernel launches for the RAG runs.
        pub rag_launch_reduction: f64,
        /// True when both RAG loops returned identical scores for every query.
        pub rag_identical: bool,
    }
}

/// A09 — the command-stream acceptance experiment. Trains the E17 GCN
/// dataset for 40 epochs on 2 NVLink-connected resident fused workers with
/// every epoch submitted kernel-by-kernel vs captured once and replayed,
/// then drives 288 RAG queries through the two-stream batch scorer in six
/// 48-query rounds (six 8-query chunks each), per-chunk submission vs one
/// captured graph replayed per round. Capture only changes how commands
/// reach the device: outputs must be bit-identical while the captured side
/// amortizes per-kernel launch overhead into one submission per replay.
pub fn graph_ablation() -> GraphAblation {
    use sagegpu_core::gcn::distributed::{
        train_distributed_with_opts, DistOptions, PartitionStrategy, ResidencyMode,
    };
    use sagegpu_core::gcn::exec::{ExecMode, SubmitMode};
    use sagegpu_core::gpu::cluster::{LinkKind, Topology};

    let ds = gcn_dataset();
    let cfg = TrainConfig {
        epochs: 40,
        hidden: 32,
        ..Default::default()
    };
    let run_gcn = |submit: SubmitMode| {
        train_distributed_with_opts(
            &ds,
            2,
            &cfg,
            PartitionStrategy::Metis,
            DistOptions {
                topology: Topology::Flat(LinkKind::NvLink),
                residency: ResidencyMode::Resident,
                exec: ExecMode::FusedOverlapped,
                submit,
                ..DistOptions::default()
            },
        )
        .expect("trains")
    };
    let eager = run_gcn(SubmitMode::Eager);
    let captured = run_gcn(SubmitMode::Captured);
    let gcn_identical = eager.epoch_stats == captured.epoch_stats
        && eager.test_accuracy == captured.test_accuracy
        && eager.model.get_parameters() == captured.model.get_parameters();
    let gcn_launch_reduction =
        eager.kernel_launches as f64 / captured.kernel_launches.max(1) as f64;
    let gcn_rows = [eager, captured]
        .into_iter()
        .map(|r| GraphGcnRow {
            submit: r.submit,
            kernel_launches: r.kernel_launches,
            sim_time_ms: r.sim_time_ns as f64 / 1e6,
            launch_overhead_fraction: r.bottleneck.launch_overhead_fraction,
            final_loss: r.epoch_stats.last().expect("epochs ran").loss,
            test_accuracy: r.test_accuracy,
        })
        .collect();

    // RAG: the A06/A07 index — a 60-doc, 96-dim resident matrix — hit by
    // a serving loop of six fixed-shape 48-query rounds. Each round spans
    // six 8-query chunks, so the eager scorer pays six submissions per
    // round where the captured scorer replays one graph.
    let embedder = Embedder::new(96, SEED);
    let corpus = Corpus::synthetic(60, 80, SEED);
    let rows: Vec<Vec<f32>> = corpus
        .docs()
        .iter()
        .map(|d| embedder.embed(&d.text))
        .collect();
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let mat = Tensor::from_vec(60, 96, flat).expect("dims");
    let queries: Vec<Vec<f32>> = (0..288)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();

    let run_rag = |captured: bool| -> (GraphRagRow, Vec<Vec<f32>>) {
        let gpu = Arc::new(Gpu::new(0, DeviceSpec::t4()));
        let exec = GpuExecutor::new(Arc::clone(&gpu));
        let device_mat = exec.upload(&mat).expect("index fits");
        let mut scores: Vec<Vec<f32>> = Vec::new();
        for round in queries.chunks(48) {
            let batch = if captured {
                exec.score_rows_batch_captured(&device_mat, round)
                    .expect("scores")
            } else {
                exec.score_rows_batch(&device_mat, round).expect("scores")
            };
            scores.extend(batch);
        }
        (
            GraphRagRow {
                submit: if captured { "captured" } else { "eager" },
                kernel_launches: gpu.kernels_launched(),
                sim_time_us: gpu.now_ns() as f64 / 1e3,
            },
            scores,
        )
    };
    let (rag_eager, eager_scores) = run_rag(false);
    let (rag_captured, captured_scores) = run_rag(true);
    let rag_identical = eager_scores == captured_scores;
    let rag_launch_reduction =
        rag_eager.kernel_launches as f64 / rag_captured.kernel_launches.max(1) as f64;

    GraphAblation {
        gcn: gcn_rows,
        gcn_launch_reduction,
        gcn_identical,
        rag: vec![rag_eager, rag_captured],
        rag_launch_reduction,
        rag_identical,
    }
}

/// A09's bounds: eager (row 0) and captured (row 1) submission agree
/// bit-for-bit in both domains; replay cuts submissions >= 4x and sim
/// time strictly; the eager fused GCN epoch is launch-bound (overhead share
/// > 0.15) and capture more than halves that share.
pub(crate) fn check_graph(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    let (gcn_eager, gcn_captured) = (&v["gcn"][0], &v["gcn"][1]);
    let (rag_eager, rag_captured) = (&v["rag"][0], &v["rag"][1]);
    let gcn_eager_share = gcn_eager.num("launch_overhead_fraction");
    bounds!(
        c,
        rows(v, "gcn").len() == 2,
        gcn_eager["submit"] == "eager" && gcn_captured["submit"] == "captured",
        v["gcn_identical"] == true,
        gcn_eager["final_loss"] == gcn_captured["final_loss"],
        gcn_eager["test_accuracy"] == gcn_captured["test_accuracy"],
        v.num("gcn_launch_reduction") >= 4.0,
        gcn_captured.num("kernel_launches") < gcn_eager.num("kernel_launches"),
        gcn_captured.num("sim_time_ms") < gcn_eager.num("sim_time_ms"),
        gcn_eager_share > 0.15,
        gcn_captured.num("launch_overhead_fraction") < gcn_eager_share / 2.0,
        rows(v, "rag").len() == 2,
        rag_eager["submit"] == "eager" && rag_captured["submit"] == "captured",
        v["rag_identical"] == true,
        v.num("rag_launch_reduction") >= 4.0,
        rag_captured.num("kernel_launches") < rag_eager.num("kernel_launches"),
        rag_captured.num("sim_time_us") < rag_eager.num("sim_time_us"),
    );
    c.finish()
}

// ---------------------------------------------------------------------
// A10 — two-tier topology x hierarchical collectives ablation
// ---------------------------------------------------------------------

/// Worker counts the A10 sweep covers — extending A08's sweep past the
/// k=8 collapse to k=16.
pub const TOPOLOGY_SCALING_WORKERS: [usize; 4] = [1, 4, 8, 16];

/// Devices per NVLink island in the hierarchical arms — the common cloud
/// shape (a g4dn.12xlarge holds 4 T4s on a fast intra-node fabric).
pub const TOPOLOGY_ISLAND: usize = 4;

/// The A10 workload: the A08 SBM scaled 4× to 3 200 nodes so each worker
/// still holds a substantial partition at k=16 and the backward window the
/// bucketed collectives hide inside stays wide. The gradient payload is
/// unchanged (same 256→128→4 model), so the comm cost per epoch is
/// identical to A08's — only the compute-to-comm ratio moves.
pub fn topology_scaling_dataset() -> GraphDataset {
    sbm(
        &SbmParams {
            block_sizes: vec![800, 800, 800, 800],
            p_in: 0.10,
            p_out: 0.02,
            feature_dim: 256,
            feature_separation: 0.5,
            train_fraction: 0.3,
        },
        SEED,
    )
    .expect("valid SBM parameters")
}

artifact_schema! {
    /// One distributed GCN run at a worker count under a topology, comm
    /// schedule, and gradient wire format.
    pub struct TopologyScalingRow {
        pub workers: usize,
        /// "flat" or "hierarchical".
        pub topology: &'static str,
        /// "monolithic" or "bucketed".
        pub comm: &'static str,
        /// "f32" or "fp16".
        pub compression: &'static str,
        pub sim_time_ms: f64,
        /// Same-arm 1-worker sim time ÷ this run's sim time.
        pub speedup: f64,
        pub exposed_comm_ms: f64,
        pub overlapped_comm_ms: f64,
        /// Device 0's profiler verdict: fraction of comm-lane time not covered
        /// by concurrent kernels.
        pub comm_exposed_fraction: f64,
        /// The same verdict, restricted to intra-island (or flat-ring) steps.
        pub comm_exposed_fraction_intra: f64,
        /// The same verdict, restricted to bridge-tier steps.
        pub comm_exposed_fraction_inter: f64,
        pub buckets_per_epoch: u64,
        pub p2p_gb: f64,
        pub final_loss: f32,
        pub test_accuracy: f64,
    }

    /// The full A10 sweep: workers × {flat, hierarchical} × {monolithic,
    /// bucketed}, plus an fp16-compressed hierarchical+bucketed arm.
    pub struct TopologyScalingAblation {
        pub rows: Vec<TopologyScalingRow>,
        /// True when, at every worker count, all four uncompressed arms
        /// produced bit-identical losses, accuracy, and trained parameters.
        pub identical_all_k: bool,
        /// Profiler comm-exposed fraction of the hierarchical+bucketed arm at
        /// k=8 — the number the A08 collapse was about.
        pub hier_bucketed_exposed_fraction_at_8: f64,
        /// Flat-monolithic sim time ÷ hierarchical+bucketed sim time at k=8.
        pub speedup_vs_mono_at_8: f64,
        /// The same ratio at k=16 — must strictly exceed the k=8 ratio: the
        /// flat exchange keeps collapsing while the hierarchy keeps it hidden.
        pub speedup_vs_mono_at_16: f64,
        /// Largest |f32 − fp16| final-loss gap across worker counts on the
        /// hierarchical+bucketed arm — the error-feedback bound, empirically.
        pub fp16_max_final_loss_drift: f64,
        /// f32 ÷ fp16 peer-link bytes at k=8 (≈2 by construction).
        pub fp16_wire_reduction_at_8: f64,
    }
}

/// A10 — the topology acceptance experiment. Re-runs the A08 sweep to
/// k=16 with the interconnect either flat VPC Ethernet (the course's
/// shape, and why its scaling collapsed) or NVLink islands of
/// [`TOPOLOGY_ISLAND`] bridged by that same Ethernet, crossed with the
/// monolithic vs bucketed exchange. Collectives are charge-only, so every
/// uncompressed cell must train bit-identically; the fp16 arm instead
/// pins the error-feedback drift bound and the halved wire payload.
pub fn topology_scaling_ablation() -> TopologyScalingAblation {
    use sagegpu_core::gcn::distributed::{
        train_distributed_with_opts, CommMode, DistOptions, PartitionStrategy, ResidencyMode,
    };
    use sagegpu_core::gcn::exec::ExecMode;
    use sagegpu_core::gpu::cluster::{LinkKind, Topology};
    use sagegpu_core::nn::parallel::Compression;

    let ds = topology_scaling_dataset();
    let cfg = TrainConfig {
        epochs: 25,
        hidden: 128,
        ..Default::default()
    };
    let run = |k: usize, topology: Topology, comm: CommMode, compression: Compression| {
        train_distributed_with_opts(
            &ds,
            k,
            &cfg,
            PartitionStrategy::Metis,
            DistOptions {
                topology,
                compression,
                residency: ResidencyMode::Resident,
                exec: ExecMode::FusedOverlapped,
                comm,
                ..DistOptions::default()
            },
        )
        .expect("trains")
    };

    let flat = Topology::Flat(LinkKind::Ethernet);
    let hier = Topology::nvlink_islands(TOPOLOGY_ISLAND);
    let buck = CommMode::BucketedOverlap {
        bucket_bytes: COMM_SCALING_BUCKET_BYTES,
    };
    let arms: [(Topology, CommMode, Compression); 5] = [
        (flat, CommMode::Monolithic, Compression::None),
        (flat, buck, Compression::None),
        (hier, CommMode::Monolithic, Compression::None),
        (hier, buck, Compression::None),
        (hier, buck, Compression::Fp16ErrorFeedback),
    ];

    let mut rows: Vec<TopologyScalingRow> = Vec::new();
    let mut identical_all_k = true;
    let mut fp16_max_final_loss_drift = 0f64;
    let mut base_ns = [0f64; 5];
    let mut fp16_wire_reduction_at_8 = 0f64;
    for &k in &TOPOLOGY_SCALING_WORKERS {
        let mut reference: Option<(Vec<sagegpu_core::gcn::EpochStats>, f64, Vec<Tensor>)> = None;
        let mut f32_final_loss = 0f32;
        let mut f32_p2p_bytes = 0u64;
        for (arm, &(topology, comm, compression)) in arms.iter().enumerate() {
            let r = run(k, topology, comm, compression);
            match compression {
                Compression::None => {
                    // Every uncompressed cell must match the first one
                    // bit-for-bit: topology and schedule only reprice.
                    let params = r.model.get_parameters();
                    match &reference {
                        None => reference = Some((r.epoch_stats.clone(), r.test_accuracy, params)),
                        Some((stats, acc, p)) => {
                            identical_all_k &=
                                r.epoch_stats == *stats && r.test_accuracy == *acc && params == *p;
                        }
                    }
                    if topology == hier && comm == buck {
                        f32_final_loss = r.epoch_stats.last().expect("epochs ran").loss;
                        f32_p2p_bytes = r.p2p_bytes;
                    }
                }
                Compression::Fp16ErrorFeedback => {
                    let drift = (r.epoch_stats.last().expect("epochs ran").loss - f32_final_loss)
                        .abs() as f64;
                    fp16_max_final_loss_drift = fp16_max_final_loss_drift.max(drift);
                    if k == 8 {
                        fp16_wire_reduction_at_8 = f32_p2p_bytes as f64 / r.p2p_bytes.max(1) as f64;
                    }
                }
            }
            if k == 1 {
                base_ns[arm] = r.sim_time_ns as f64;
            }
            rows.push(TopologyScalingRow {
                workers: k,
                topology: r.topology,
                comm: r.comm,
                compression: r.compression,
                sim_time_ms: r.sim_time_ns as f64 / 1e6,
                speedup: base_ns[arm] / r.sim_time_ns.max(1) as f64,
                exposed_comm_ms: r.exposed_comm_ns as f64 / 1e6,
                overlapped_comm_ms: r.overlapped_comm_ns as f64 / 1e6,
                comm_exposed_fraction: r.bottleneck.comm_exposed_fraction,
                comm_exposed_fraction_intra: r.bottleneck.comm_exposed_fraction_intra,
                comm_exposed_fraction_inter: r.bottleneck.comm_exposed_fraction_inter,
                buckets_per_epoch: r.comm_buckets_per_epoch,
                p2p_gb: r.p2p_bytes as f64 / 1e9,
                final_loss: r.epoch_stats.last().expect("epochs ran").loss,
                test_accuracy: r.test_accuracy,
            });
        }
    }

    let at = |k: usize, topology: &str, comm: &str, compression: &str| {
        rows.iter()
            .find(|r| {
                r.workers == k
                    && r.topology == topology
                    && r.comm == comm
                    && r.compression == compression
            })
            .expect("swept row")
    };
    let hier_bucketed_exposed_fraction_at_8 =
        at(8, "hierarchical", "bucketed", "f32").comm_exposed_fraction;
    let speedup_vs_mono = |k: usize| {
        at(k, "flat", "monolithic", "f32").sim_time_ms
            / at(k, "hierarchical", "bucketed", "f32").sim_time_ms
    };
    TopologyScalingAblation {
        identical_all_k,
        hier_bucketed_exposed_fraction_at_8,
        speedup_vs_mono_at_8: speedup_vs_mono(8),
        speedup_vs_mono_at_16: speedup_vs_mono(16),
        fp16_max_final_loss_drift,
        fp16_wire_reduction_at_8,
        rows,
    }
}

/// A10's bounds: hierarchical+bucketed keeps the k=8 exposed comm fraction
/// under 0.25 and beats flat+bucketed there; its lead over flat-monolithic
/// widens from k=8 to k=16; every f32 arm trains bit-identically; fp16
/// halves the wire with final-loss drift under 0.05; bucketed arms split
/// into >= 2 buckets; flat arms expose nothing on the bridge tier.
pub(crate) fn check_topology_scaling(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    let row = |c: &mut Check, k: usize, topology: &str, comm: &str, wire: &str| {
        let label = format!("k={k} {topology}/{comm}/{wire}");
        c.row(v, "rows", &label, |r| {
            r["workers"] == k
                && r["topology"] == topology
                && r["comm"] == comm
                && r["compression"] == wire
        })
    };
    let hier_8 = row(&mut c, 8, "hierarchical", "bucketed", "f32");
    let flat_8 = row(&mut c, 8, "flat", "bucketed", "f32");
    let fp16_8 = row(&mut c, 8, "hierarchical", "bucketed", "fp16");
    bounds!(
        c,
        rows(v, "rows").len() == 20,
        v["identical_all_k"] == true,
        v.num("hier_bucketed_exposed_fraction_at_8") < 0.25,
        hier_8.num("comm_exposed_fraction") < 0.25,
        hier_8.num("sim_time_ms") < flat_8.num("sim_time_ms"),
        v.num("speedup_vs_mono_at_8") > 1.0,
        v.num("speedup_vs_mono_at_16") > v.num("speedup_vs_mono_at_8"),
        v.num("fp16_wire_reduction_at_8") > 1.9,
        v.num("fp16_max_final_loss_drift") < 0.05,
        fp16_8.num("p2p_gb") < hier_8.num("p2p_gb"),
    );
    for k in TOPOLOGY_SCALING_WORKERS {
        let base = row(&mut c, k, "flat", "monolithic", "f32");
        for (topology, comm) in [
            ("flat", "bucketed"),
            ("hierarchical", "monolithic"),
            ("hierarchical", "bucketed"),
        ] {
            let r = row(&mut c, k, topology, comm, "f32");
            c.scope(format!("k={k} {topology}/{comm}"));
            bounds!(
                c,
                r["final_loss"] == base["final_loss"],
                r["test_accuracy"] == base["test_accuracy"],
            );
        }
    }
    for r in rows(v, "rows") {
        c.scope(format!(
            "k={} {}/{}",
            r["workers"], r["topology"], r["comm"]
        ));
        let buckets = r.num("buckets_per_epoch");
        bounds!(
            c,
            r["comm"] == "bucketed" || r["comm"] == "monolithic",
            r["comm"] != "bucketed" || buckets >= 2.0,
            r["comm"] != "monolithic" || buckets == 0.0,
            r["topology"] != "flat" || r.num("comm_exposed_fraction_inter") == 0.0,
        );
    }
    c.finish()
}

// ---------------------------------------------------------------------
// A11 — trace what-if replay
// ---------------------------------------------------------------------

artifact_schema! {
    /// One replay arm of the A11 what-if study.
    pub struct WhatIfArm {
        /// "identity", "flat-ethernet", "nvlink-everywhere", "comm-streams-1".
        pub arm: &'static str,
        /// Replay-predicted makespan under the override.
        pub predicted_ms: f64,
        /// Ground truth from a fresh run with the same configuration — `None`
        /// for predicted-only arms (no fresh run exists to compare against).
        pub fresh_ms: Option<f64>,
        /// |predicted − fresh| / fresh × 100, when ground truth exists.
        pub err_pct: Option<f64>,
        /// (predicted − recorded) / recorded × 100 — what the override buys
        /// or costs relative to the recorded schedule.
        pub delta_vs_recorded_pct: f64,
    }

    /// The A11 study: the k=8 hierarchical+bucketed A10 arm recorded through
    /// the `gpu_sim::trace` interposer, then re-priced under interconnect and
    /// comm-stream overrides *without re-running the workload*.
    pub struct WhatIfAblation {
        pub workers: usize,
        /// Recorded (hierarchical, bucketed) makespan.
        pub recorded_ms: f64,
        pub recorded_submissions: u64,
        pub recorded_kernel_launches: u64,
        /// True when the no-override replay reproduced sim-time, submission
        /// count, and kernel-launch count exactly.
        pub identity_exact: bool,
        pub arms: Vec<WhatIfArm>,
        /// Headline: NVLink-everywhere prediction error vs its fresh run (%).
        pub nvlink_err_pct: f64,
    }
}

/// A11 — record the k=8 hierarchical trace once, then answer "what if the
/// interconnect were flat Ethernet / NVLink everywhere / collectives had
/// one comm stream instead of two" from the artifact alone, checking the
/// interconnect predictions against fresh ground-truth runs.
pub fn whatif_ablation() -> WhatIfAblation {
    use sagegpu_core::gcn::distributed::{
        train_distributed_with_opts, CommMode, DistOptions, PartitionStrategy, ResidencyMode,
    };
    use sagegpu_core::gcn::exec::ExecMode;
    use sagegpu_core::gpu::cluster::{LinkKind, Topology};
    use sagegpu_core::gpu::trace::{replay, WhatIf};

    let ds = topology_scaling_dataset();
    let cfg = TrainConfig {
        epochs: 25,
        hidden: 128,
        ..Default::default()
    };
    let k = 8;
    let run = |topology: Topology, record: bool| {
        train_distributed_with_opts(
            &ds,
            k,
            &cfg,
            PartitionStrategy::Metis,
            DistOptions {
                topology,
                residency: ResidencyMode::Resident,
                exec: ExecMode::FusedOverlapped,
                comm: CommMode::BucketedOverlap {
                    bucket_bytes: COMM_SCALING_BUCKET_BYTES,
                },
                record_trace: record,
                ..DistOptions::default()
            },
        )
        .expect("trains")
    };

    let recorded = run(Topology::nvlink_islands(TOPOLOGY_ISLAND), true);
    let trace = recorded.trace.expect("record_trace captures the run");
    let recorded_ms = trace.sim_time_ns as f64 / 1e6;
    let ms = |ns: u64| ns as f64 / 1e6;
    let delta = |pred: f64| (pred - recorded_ms) / recorded_ms * 100.0;
    let err = |pred: f64, fresh: f64| (pred - fresh).abs() / fresh * 100.0;

    let identity = replay(&trace, &WhatIf::default()).expect("identity replay");
    let identity_exact = identity.sim_time_ns == trace.sim_time_ns
        && identity.submissions == trace.submissions()
        && identity.kernel_launches == trace.kernel_launches;

    let mut arms = Vec::new();
    let identity_ms = ms(identity.sim_time_ns);
    arms.push(WhatIfArm {
        arm: "identity",
        predicted_ms: identity_ms,
        fresh_ms: Some(recorded_ms),
        err_pct: Some(err(identity_ms, recorded_ms)),
        delta_vs_recorded_pct: delta(identity_ms),
    });

    let whatif_topo = |t: Topology| WhatIf {
        topology: Some(t),
        ..WhatIf::default()
    };
    let eth_pred = ms(
        replay(&trace, &whatif_topo(Topology::Flat(LinkKind::Ethernet)))
            .expect("ethernet replay")
            .sim_time_ns,
    );
    let eth_fresh = ms(run(Topology::Flat(LinkKind::Ethernet), false).sim_time_ns);
    arms.push(WhatIfArm {
        arm: "flat-ethernet",
        predicted_ms: eth_pred,
        fresh_ms: Some(eth_fresh),
        err_pct: Some(err(eth_pred, eth_fresh)),
        delta_vs_recorded_pct: delta(eth_pred),
    });

    let nv_pred = ms(
        replay(&trace, &whatif_topo(Topology::Flat(LinkKind::NvLink)))
            .expect("nvlink replay")
            .sim_time_ns,
    );
    let nv_fresh = ms(run(Topology::Flat(LinkKind::NvLink), false).sim_time_ns);
    let nvlink_err_pct = err(nv_pred, nv_fresh);
    arms.push(WhatIfArm {
        arm: "nvlink-everywhere",
        predicted_ms: nv_pred,
        fresh_ms: Some(nv_fresh),
        err_pct: Some(nvlink_err_pct),
        delta_vs_recorded_pct: delta(nv_pred),
    });

    let s1_pred = ms(replay(
        &trace,
        &WhatIf {
            streams: Some(1),
            ..WhatIf::default()
        },
    )
    .expect("single-stream replay")
    .sim_time_ns);
    arms.push(WhatIfArm {
        arm: "comm-streams-1",
        predicted_ms: s1_pred,
        fresh_ms: None,
        err_pct: None,
        delta_vs_recorded_pct: delta(s1_pred),
    });

    WhatIfAblation {
        workers: k,
        recorded_ms,
        recorded_submissions: trace.submissions(),
        recorded_kernel_launches: trace.kernel_launches,
        identity_exact,
        arms,
        nvlink_err_pct,
    }
}

/// A11's bounds: the identity replay of the recorded k=8 trace is exact;
/// the NVLink-everywhere and flat-Ethernet what-ifs predict their fresh
/// runs within 5% (and Ethernet cannot be faster than the recording); the
/// one-comm-stream arm is predicted-only.
pub(crate) fn check_whatif(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    let [identity, ethernet, nvlink, one_stream] = [
        "identity",
        "flat-ethernet",
        "nvlink-everywhere",
        "comm-streams-1",
    ]
    .map(|name| c.row(v, "arms", name, |a| a["arm"] == name));
    bounds!(
        c,
        v["workers"] == 8,
        v["identity_exact"] == true,
        identity.num("err_pct") == 0.0,
        identity["predicted_ms"] == v["recorded_ms"],
        v.num("nvlink_err_pct") < 5.0,
        nvlink.num("err_pct") == v.num("nvlink_err_pct"),
        nvlink.num("fresh_ms") > 0.0,
        ethernet.num("err_pct") < 5.0,
        ethernet.num("delta_vs_recorded_pct") >= 0.0,
        one_stream["fresh_ms"].is_null(),
        one_stream["err_pct"].is_null(),
        one_stream.num("predicted_ms") > 0.0,
    );
    c.finish()
}

// ---------------------------------------------------------------------
// E21 — Appendix A pricing reconciliation
// ---------------------------------------------------------------------

/// (label, modeled $/h, paper $/h).
pub fn pricing_reconciliation() -> Vec<(&'static str, f64, f64)> {
    let cat = InstanceCatalog::us_east_1();
    vec![
        (
            "single-GPU hourly average",
            cat.course_single_gpu_avg(),
            1.262,
        ),
        (
            "multi-GPU hourly average",
            cat.course_multi_gpu_avg(),
            2.314,
        ),
    ]
}

// ---------------------------------------------------------------------
// A12 — retrieval at scale: sharded IVF-PQ
// ---------------------------------------------------------------------

artifact_schema! {
    /// One arm of the A12 retrieval-scale study.
    pub struct RetrievalArm {
        /// "flat", "ivf", "ivfpq", or "sharded".
        pub arm: &'static str,
        /// Lists probed (0 for the exhaustive flat scan).
        pub nprobe: usize,
        /// Shard count (1 for single-device arms).
        pub shards: usize,
        /// Mean recall@10 against the exact flat baseline.
        pub recall_at_10: f64,
        /// Index bytes resident on device (summed across shards).
        pub device_bytes: u64,
        /// Simulated time to search the whole query batch (per-device max).
        pub search_ms: f64,
    }

    /// How one IVF-PQ index's Lloyd k-means loops ended (the cap is 10
    /// iterations).
    pub struct LloydLoops {
        /// "ivfpq" (trained on every row, as the "ivf" arm's identical
        /// coarse loop is) or "sharded" (trained on the seeded sample, the
        /// same at every shard count).
        pub index: &'static str,
        pub training_rows: usize,
        pub coarse_iterations: usize,
        pub coarse_capped: bool,
        /// The most iterations any PQ subspace ran.
        pub pq_max_iterations: usize,
        /// PQ subspaces stopped at the cap with assignments still changing.
        pub pq_capped_subspaces: usize,
    }

    /// The A12 study: Flat vs IVF vs IVF-PQ accuracy/latency/memory on one
    /// device, then the same IVF-PQ index scattered across 1/2/4 shards.
    pub struct RetrievalScaleAblation {
        pub corpus: usize,
        pub dim: usize,
        pub queries: usize,
        pub nlist: usize,
        pub pq_m: usize,
        pub pq_nbits: u32,
        pub arms: Vec<RetrievalArm>,
        /// Flat index bytes — the uncompressed baseline.
        pub flat_bytes: u64,
        /// Single-shard IVF-PQ bytes (centroids + codebook + codes).
        pub pq_bytes: u64,
        /// Exact re-rank depth applied to the PQ/sharded arms.
        pub refine: usize,
        /// `flat_bytes / pq_bytes` — the compression headline.
        pub memory_reduction: f64,
        /// Best IVF-PQ recall@10 over the swept nprobe values.
        pub best_pq_recall: f64,
        /// Sharded search speedup from 1 to 4 shards at fixed nprobe.
        pub sharded_speedup_4x: f64,
        /// True when 4-shard scatter-gather hits equal 1-shard hits bitwise.
        pub sharded_identical: bool,
        /// How the IVF-PQ and sharded indexes' k-means loops ended.
        pub lloyd: Vec<LloydLoops>,
    }
}

impl LloydLoops {
    fn of(index: &'static str, training_rows: usize, ivf: &IvfIndex) -> Self {
        let (coarse, pq) = ivf.lloyd_runs();
        LloydLoops {
            index,
            training_rows,
            coarse_iterations: coarse.iterations,
            coarse_capped: coarse.capped,
            pq_max_iterations: pq.iter().map(|r| r.iterations).max().unwrap_or(0),
            pq_capped_subspaces: pq.iter().filter(|r| r.capped).count(),
        }
    }
}

/// Batch-search an index on its own device and return (per-query hits,
/// simulated milliseconds the search took on that device).
fn timed_search<I: RetrievalIndex>(
    idx: &I,
    gpu: &Arc<Gpu>,
    queries: &[Vec<f32>],
    k: usize,
) -> (Vec<Vec<sagegpu_core::rag::index::SearchHit>>, f64) {
    let t0 = gpu.now_ns();
    let hits = idx.search_batch(queries, k);
    (hits, (gpu.now_ns() - t0) as f64 / 1e6)
}

/// A12 — the retrieval-at-scale ablation behind `BENCH_A12.json`.
pub fn retrieval_scale_ablation() -> RetrievalScaleAblation {
    use sagegpu_core::gpu::cluster::{GpuCluster, LinkKind};
    use sagegpu_core::rag::pq::PqConfig;
    use sagegpu_core::rag::shard::{Placement, ShardPlan, ShardedIndex};

    const CORPUS: usize = 20_000;
    const DIM: usize = 96;
    const NLIST: usize = 64;
    const PQ: PqConfig = PqConfig { m: 32, nbits: 8 };
    const NPROBES: [usize; 5] = [1, 4, 8, 16, 32];
    const SHARD_NPROBE: usize = 16;
    const QUERIES: usize = 32;
    const K: usize = 10;
    const SAMPLE: usize = 2_048;
    const REFINE: usize = 40;

    let corpus = Corpus::synthetic(CORPUS, 80, SEED);
    let embedder = Embedder::new(DIM, SEED.wrapping_add(1));
    let data: Vec<(usize, Vec<f32>)> = corpus
        .docs()
        .iter()
        .map(|d| (d.id, embedder.embed(&d.text)))
        .collect();
    let queries: Vec<Vec<f32>> = (0..QUERIES)
        .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
        .collect();

    let device = || Arc::new(Gpu::new(0, DeviceSpec::t4()));
    let cluster = |n: usize| Arc::new(GpuCluster::homogeneous(n, DeviceSpec::t4(), LinkKind::Pcie));

    // Exact baseline: flat GPU scan — ground truth for every recall figure.
    let gpu = device();
    let mut flat = FlatIndex::with_gpu(DIM, GpuExecutor::new(gpu.clone()));
    for (id, v) in &data {
        flat.add(*id, v.clone());
    }
    let (exact, flat_ms) = timed_search(&flat, &gpu, &queries, K);
    let flat_bytes = flat.device_bytes();
    let mean_recall = |hits: &[Vec<sagegpu_core::rag::index::SearchHit>]| -> f64 {
        exact
            .iter()
            .zip(hits)
            .map(|(e, h)| recall_at_k(e, h))
            .sum::<f64>()
            / exact.len() as f64
    };

    let mut arms = vec![RetrievalArm {
        arm: "flat",
        nprobe: 0,
        shards: 1,
        recall_at_10: 1.0,
        device_bytes: flat_bytes,
        search_ms: flat_ms,
    }];

    // IVF: same coarse quantizer, full-precision lists.
    let gpu = device();
    let mut ivf = IvfIndex::train(DIM, NLIST, 1, Codec::Full, &data, SEED)
        .expect("ivf trains")
        .with_gpu(GpuExecutor::new(gpu.clone()), None)
        .expect("uploads");
    for &nprobe in &NPROBES {
        ivf.set_nprobe(nprobe);
        let (hits, ms) = timed_search(&ivf, &gpu, &queries, K);
        arms.push(RetrievalArm {
            arm: "ivf",
            nprobe,
            shards: 1,
            recall_at_10: mean_recall(&hits),
            device_bytes: ivf.device_bytes(),
            search_ms: ms,
        });
    }

    // IVF-PQ: coded lists, ADC scans.
    let gpu = device();
    let mut ivfpq = IvfIndex::train(DIM, NLIST, 1, Codec::Pq(PQ), &data, SEED)
        .expect("ivfpq trains")
        .with_gpu(GpuExecutor::new(gpu.clone()), None)
        .expect("uploads")
        .with_refine(REFINE, &data);
    let pq_bytes = ivfpq.device_bytes();
    let mut lloyd = vec![LloydLoops::of("ivfpq", CORPUS, &ivfpq)];
    let mut best_pq_recall = 0.0f64;
    for &nprobe in &NPROBES {
        ivfpq.set_nprobe(nprobe);
        let (hits, ms) = timed_search(&ivfpq, &gpu, &queries, K);
        let recall = mean_recall(&hits);
        best_pq_recall = best_pq_recall.max(recall);
        arms.push(RetrievalArm {
            arm: "ivfpq",
            nprobe,
            shards: 1,
            recall_at_10: recall,
            device_bytes: pq_bytes,
            search_ms: ms,
        });
    }

    // Sharded IVF-PQ at fixed nprobe: the same search scattered over
    // 1/2/4 devices, timed as cluster makespan.
    let plan = |shards: usize| ShardPlan {
        nlist: NLIST,
        nprobe: SHARD_NPROBE,
        pq: PQ,
        sample: SAMPLE,
        shards,
        refine: REFINE,
        placement: Placement::SizeBalanced,
        budget_bytes: None,
    };
    let mut sharded_ms = Vec::new();
    let mut sharded_hits = Vec::new();
    for shards in [1usize, 2, 4] {
        let gpus = cluster(shards);
        let idx = ShardedIndex::build(DIM, plan(shards), &data, gpus.clone(), SEED)
            .expect("sharded index builds");
        if shards == 1 {
            lloyd.push(LloydLoops::of("sharded", SAMPLE, &idx));
        }
        let t0 = gpus.makespan_ns();
        let hits = idx.search_batch(&queries, K);
        let ms = (gpus.makespan_ns() - t0) as f64 / 1e6;
        sharded_ms.push(ms);
        arms.push(RetrievalArm {
            arm: "sharded",
            nprobe: SHARD_NPROBE,
            shards,
            recall_at_10: mean_recall(&hits),
            device_bytes: idx.device_bytes(),
            search_ms: ms,
        });
        sharded_hits.push(hits);
    }
    let sharded_speedup_4x = sharded_ms[0] / sharded_ms[2];
    let sharded_identical =
        sharded_hits[0] == sharded_hits[1] && sharded_hits[0] == sharded_hits[2];

    RetrievalScaleAblation {
        corpus: CORPUS,
        dim: DIM,
        queries: QUERIES,
        nlist: NLIST,
        pq_m: PQ.m,
        pq_nbits: PQ.nbits,
        arms,
        flat_bytes,
        pq_bytes,
        refine: REFINE,
        memory_reduction: flat_bytes as f64 / pq_bytes as f64,
        best_pq_recall,
        sharded_speedup_4x,
        sharded_identical,
        lloyd,
    }
}

/// A12's bounds: one flat arm, >= 3 swept nprobes per IVF kind, shards
/// 1/2/4; IVF-PQ is >= 8x smaller with recall@10 >= 0.9, both on one swept
/// arm; refined PQ recall equals plain IVF's at every nprobe; 4 shards are
/// >= 2x faster than 1, makespan falls with every shard, hits identical.
pub(crate) fn check_retrieval(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    let arms = |name: &'static str| rows(v, "arms").iter().filter(move |a| a["arm"] == name);
    let shards: Vec<f64> = arms("sharded").map(|a| a.num("shards")).collect();
    let sharded_ms: Vec<f64> = arms("sharded").map(|a| a.num("search_ms")).collect();
    let pq_arm_clears_both_floors = arms("ivfpq").any(|a| {
        a.num("recall_at_10") >= 0.9 && v.num("flat_bytes") / a.num("device_bytes") >= 8.0
    });
    bounds!(
        c,
        arms("flat").count() == 1,
        arms("ivf").count() >= 3,
        arms("ivfpq").count() >= 3,
        shards == [1.0, 2.0, 4.0],
        v.num("memory_reduction") >= 8.0,
        v.num("best_pq_recall") >= 0.9,
        pq_arm_clears_both_floors,
        v.num("refine") > 0.0,
        v.num("sharded_speedup_4x") >= 2.0,
        v["sharded_identical"] == true,
        sharded_ms.windows(2).all(|w| w[0] > w[1]),
    );
    for pq in arms("ivfpq") {
        c.scope(format!("nprobe {}", pq["nprobe"]));
        let ivf = arms("ivf").find(|a| a["nprobe"] == pq["nprobe"]);
        bounds!(
            c,
            ivf.is_some_and(|ivf| ivf["recall_at_10"] == pq["recall_at_10"])
        );
    }
    c.finish()
}

// ---------------------------------------------------------------------
// A13 — tiered residency: sharded serving under a device budget
// ---------------------------------------------------------------------

artifact_schema! {
    /// One arm of the A13 residency-serving study: a live
    /// [`RagServer`](sagegpu_core::rag::serve::RagServer) over
    /// a 4-shard IVF-PQ index whose inverted lists live under a device byte
    /// budget, driven by one query-skew pattern.
    pub struct ResidencyServingArm {
        /// "uniform" or "zipf".
        pub skew: &'static str,
        /// Device budget as a percent of the packed list-code bytes.
        pub budget_pct: u64,
        /// Absolute budget handed to the server (bytes, summed over shards).
        pub budget_bytes: u64,
        /// Requests served to completion.
        pub served: u64,
        /// Served queries per second of simulated cluster time (makespan
        /// delta over the serving window).
        pub sim_qps: f64,
        /// p99 simulated retrieval latency (ms, ceil nearest-rank).
        pub p99_retrieve_ms: f64,
        /// Tier hit ratio over the serving window (build prewarm excluded).
        pub hit_ratio: f64,
        /// Host-link bytes moved by charge-on-miss promotions while serving.
        pub host_link_bytes: u64,
        /// Peak resident bytes under the budget in force (summed over shards).
        pub high_water_bytes: u64,
        /// True when the high-water never exceeded the budget.
        pub budget_ok: bool,
        /// True when every served hit equals the fully-resident ground truth.
        pub hits_identical: bool,
        /// Allocator reuse ratio across the shard pools at shutdown.
        pub pool_reuse_ratio: f64,
        /// `trim()` calls that released spilled reservations to the device.
        pub pool_trims: u64,
    }

    /// The A13 study: budget {100, 50, 25, 10}% of index code bytes × query
    /// skew {uniform, Zipfian} on a live server, plus the profiler's offline
    /// promotion-copy attribution of the tightest interesting arm (25% +
    /// zipf).
    pub struct ResidencyServingAblation {
        pub corpus: usize,
        pub dim: usize,
        pub shards: usize,
        pub nlist: usize,
        pub nprobe: usize,
        /// Requests served per arm.
        pub requests: usize,
        /// Distinct queries in the pool the streams draw from.
        pub distinct_queries: usize,
        /// Total packed list-code bytes — the spillable set budgets scale.
        pub code_bytes: u64,
        pub arms: Vec<ResidencyServingArm>,
        /// sim-QPS(25% budget, zipf) / sim-QPS(100% budget, zipf) — the
        /// serving-throughput price of a 4x smaller device footprint.
        pub qps_ratio_25_zipf: f64,
        /// Max promotion-copy exposed fraction across devices, from the
        /// profiler's offline ingestion of the 25%-zipf arm's trace.
        pub promotion_exposed_fraction: f64,
        /// Promotion H2D bytes the profiler attributed in that trace.
        pub promotion_h2d_bytes: u64,
        /// True when the grow-budget/shrink-nprobe advice fired on any device.
        pub advice_fired: bool,
    }
}

/// Deterministic 64-bit mix (splitmix64) — the experiment's only source
/// of "randomness", fully seeded.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(s=1) rank over `n` items: inverse-CDF over the harmonic weights,
/// driven by one splitmix64 draw. Rank 0 is the hottest item.
fn zipf_rank(n: usize, state: &mut u64) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let u = splitmix64(state) as f64 / u64::MAX as f64 * total;
    let mut cum = 0.0;
    for r in 0..n {
        cum += 1.0 / (r + 1) as f64;
        if u <= cum {
            return r;
        }
    }
    n - 1
}

/// A13 — the residency-serving ablation behind `BENCH_A13.json`.
pub fn residency_serving_ablation() -> ResidencyServingAblation {
    use sagegpu_core::gpu::cluster::{GpuCluster, LinkKind};
    use sagegpu_core::gpu::trace::TraceV1;
    use sagegpu_core::profiler::bottleneck::analyze_serving;
    use sagegpu_core::profiler::ingest::ingest_trace;
    use sagegpu_core::rag::pipeline::build_sharded_pipeline;
    use sagegpu_core::rag::pq::PqConfig;
    use sagegpu_core::rag::serve::{RagServer, ServerConfig};
    use sagegpu_core::rag::shard::{Placement, ShardPlan};
    use sagegpu_core::taskflow::cluster::ClusterBuilder;

    const CORPUS: usize = 4_000;
    const DIM: usize = 96;
    const NLIST: usize = 32;
    const NPROBE: usize = 8;
    const SHARDS: usize = 4;
    const REQUESTS: usize = 160;
    const POOL: usize = 40;
    const BUDGETS: [u64; 4] = [100, 50, 25, 10];

    let plan = || ShardPlan {
        nlist: NLIST,
        nprobe: NPROBE,
        pq: PqConfig::new(16, 6),
        sample: 512,
        shards: SHARDS,
        refine: 16,
        placement: Placement::SizeBalanced,
        budget_bytes: None,
    };
    let cluster = || {
        Arc::new(GpuCluster::homogeneous(
            SHARDS,
            DeviceSpec::t4(),
            LinkKind::Pcie,
        ))
    };

    // Fully-resident ground truth: every arm's served hits must equal
    // these bitwise, whatever its budget did to the resident set.
    let reference_pipeline =
        build_sharded_pipeline(CORPUS, DIM, plan(), cluster(), SEED).expect("reference builds");
    let code_bytes = reference_pipeline
        .index
        .residency_stats()
        .expect("GPU-attached index has a tier")
        .list_bytes;
    let pool_queries: Vec<String> = (0..POOL)
        .map(|j| Corpus::topic_query(j % 5, 6, j as u64))
        .collect();
    let reference: Vec<_> = pool_queries
        .iter()
        .map(|q| reference_pipeline.retrieve(q).0)
        .collect();

    // Request streams: index into the pool per request, fixed up front so
    // every arm of one skew serves the identical sequence.
    let uniform: Vec<usize> = (0..REQUESTS).map(|i| i % POOL).collect();
    let mut rng = SEED;
    let zipf: Vec<usize> = (0..REQUESTS).map(|_| zipf_rank(POOL, &mut rng)).collect();

    let run_arm = |skew: &'static str,
                   stream: &[usize],
                   budget_pct: u64,
                   record: bool|
     -> (ResidencyServingArm, Option<TraceV1>) {
        let gpus = cluster();
        let pipeline = Arc::new(
            build_sharded_pipeline(CORPUS, DIM, plan(), gpus.clone(), SEED).expect("builds"),
        );
        // Attach the recorder after the build so the trace covers only
        // the serving window — the promotions the budget forces.
        let sink = record.then(|| gpus.record_trace());
        let budget = code_bytes * budget_pct / 100;
        let workers = ClusterBuilder::new().workers(1).build();
        let server = RagServer::start(
            Arc::clone(&pipeline),
            workers,
            ServerConfig::new()
                .cache_capacity(0)
                .residency_budget(budget),
        );
        // `start` applied the budget synchronously: snapshot the tier so
        // the arm's counters cover the serving window alone (the build's
        // prewarm misses are excluded).
        let tier0 = pipeline
            .index
            .residency_stats()
            .expect("tiered index reports stats");
        let t0 = gpus.makespan_ns();
        let mut identical = true;
        let mut retrieve_ns: Vec<u64> = Vec::with_capacity(stream.len());
        for &qi in stream {
            let served = server
                .submit(pool_queries[qi].clone())
                .expect("ample capacity")
                .wait()
                .expect("fault-free cluster serves");
            identical &= served.response.hits == reference[qi];
            retrieve_ns.push(served.response.retrieve_ns);
        }
        let span_ns = gpus.makespan_ns() - t0;
        let report = server.shutdown();
        let trace = sink.map(|_| gpus.finish_trace("a13-tiered-serving").expect("recording"));

        let tier = report
            .residency
            .as_ref()
            .expect("tiered index reports stats")
            .since(&tier0);
        retrieve_ns.sort_unstable();
        let p99 = retrieve_ns[((retrieve_ns.len() as f64 * 0.99).ceil() as usize).max(1) - 1];
        let (allocs, reuse) = report
            .pools
            .iter()
            .fold((0u64, 0u64), |(a, r), p| (a + p.allocs, r + p.reuse_hits));
        let arm = ResidencyServingArm {
            skew,
            budget_pct,
            budget_bytes: tier.budget_bytes,
            served: report.served,
            sim_qps: report.served as f64 / (span_ns.max(1) as f64 * 1e-9),
            p99_retrieve_ms: p99 as f64 / 1e6,
            hit_ratio: tier.hit_ratio(),
            host_link_bytes: tier.promoted_bytes,
            high_water_bytes: tier.high_water_bytes,
            budget_ok: tier.high_water_bytes <= tier.budget_bytes,
            hits_identical: identical,
            pool_reuse_ratio: if allocs == 0 {
                0.0
            } else {
                reuse as f64 / allocs as f64
            },
            pool_trims: report.pools.iter().map(|p| p.trims).sum(),
        };
        (arm, trace)
    };

    let mut arms = Vec::new();
    let mut attribution_trace = None;
    for (skew, stream) in [("uniform", &uniform), ("zipf", &zipf)] {
        for &pct in &BUDGETS {
            let record = skew == "zipf" && pct == 25;
            let (arm, trace) = run_arm(skew, stream, pct, record);
            arms.push(arm);
            if let Some(t) = trace {
                attribution_trace = Some(t);
            }
        }
    }

    let qps_of = |skew: &str, pct: u64| -> f64 {
        arms.iter()
            .find(|a| a.skew == skew && a.budget_pct == pct)
            .map(|a| a.sim_qps)
            .unwrap_or(0.0)
    };
    let qps_ratio_25_zipf = qps_of("zipf", 25) / qps_of("zipf", 100).max(f64::MIN_POSITIVE);

    // Offline promotion attribution: identity-replay the 25%-zipf trace
    // and re-analyze each lane with the serving-aware entrypoint.
    let trace = attribution_trace.expect("the 25%-zipf arm records");
    let analysis = ingest_trace(&trace).expect("trace ingests");
    let mut promotion_exposed_fraction = 0.0f64;
    let mut promotion_h2d_bytes = 0u64;
    let mut advice_fired = false;
    for d in &trace.devices {
        let report = analyze_serving(&analysis.timeline, d.ordinal, &d.spec, None, None);
        promotion_exposed_fraction =
            promotion_exposed_fraction.max(report.promotion_exposed_fraction);
        promotion_h2d_bytes += report.promotion_h2d_bytes;
        advice_fired |= report
            .recommendations
            .iter()
            .any(|r| r.contains("grow the residency budget"));
    }

    ResidencyServingAblation {
        corpus: CORPUS,
        dim: DIM,
        shards: SHARDS,
        nlist: NLIST,
        nprobe: NPROBE,
        requests: REQUESTS,
        distinct_queries: POOL,
        code_bytes,
        arms,
        qps_ratio_25_zipf,
        promotion_exposed_fraction,
        promotion_h2d_bytes,
        advice_fired,
    }
}

/// A13's bounds: every arm of the 4-budget x 2-skew grid serves the whole
/// stream with hits bit-identical to the fully-resident index, stays
/// within its budget and reports a hit ratio in [0, 1]; full budgets never
/// promote, 25%/10% budgets promote and trim; Zipf beats the uniform sweep
/// at every spilling budget; a 25% budget keeps >= 0.5x the unbudgeted
/// Zipf QPS; the profiler sees exposed promotions (> 0.25) and advises.
pub(crate) fn check_residency_serving(v: &Value) -> Vec<String> {
    let mut c = Check::default();
    for skew in ["uniform", "zipf"] {
        for pct in [100, 50, 25, 10] {
            let label = format!("{skew}/{pct}%");
            c.row(v, "arms", &label, |a| {
                a["skew"] == skew && a["budget_pct"] == pct
            });
        }
    }
    let at = |skew: &str, pct: f64, field: &str| {
        rows(v, "arms")
            .iter()
            .find(|a| a["skew"] == skew && a.num("budget_pct") == pct)
            .map_or(f64::NAN, |a| a.num(field))
    };
    let (zipf_full, zipf_quarter) = (at("zipf", 100.0, "sim_qps"), at("zipf", 25.0, "sim_qps"));
    let exposed = v.num("promotion_exposed_fraction");
    bounds!(
        c,
        v.num("qps_ratio_25_zipf") >= 0.5,
        zipf_full > 0.0 && zipf_quarter > 0.0,
        (zipf_quarter / zipf_full - v.num("qps_ratio_25_zipf")).abs() < 1e-9,
        v.num("promotion_h2d_bytes") > 0.0,
        exposed > 0.25 && exposed <= 1.0,
        v["advice_fired"] == true,
    );
    for a in rows(v, "arms") {
        let pct = a.num("budget_pct");
        c.scope(format!("{}/{pct}%", a["skew"].as_str().unwrap_or("?")));
        bounds!(
            c,
            a.num("served") == v.num("requests"),
            a["hits_identical"] == true,
            a["budget_ok"] == true,
            a.num("high_water_bytes") <= a.num("budget_bytes"),
            (0.0..=1.0).contains(&a.num("hit_ratio")),
            pct != 100.0 || a.num("host_link_bytes") == 0.0,
            pct != 100.0 || a.num("hit_ratio") == 1.0,
            pct > 25.0 || a.num("host_link_bytes") > 0.0,
            pct > 25.0 || a.num("pool_trims") > 0.0,
            a["skew"] != "zipf"
                || pct == 100.0
                || a.num("hit_ratio") > at("uniform", pct, "hit_ratio"),
        );
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_totals_are_paper_shaped() {
        let rows = fig1_enrollment();
        assert_eq!(rows.len(), 3);
        let spring = rows.iter().find(|r| r.0.contains("Spring")).unwrap();
        assert_eq!(spring.2, 15, "fifteen graduate students in Spring 2025");
    }

    #[test]
    fn table3_reproduces_paper_conclusions() {
        let t = table3_assumptions();
        assert!(t.grad.p_value < 0.01);
        assert!(t.grad.w < t.undergrad.w);
        assert!(t.levene.p_value > 0.05);
    }

    #[test]
    fn mwu_is_significant() {
        let r = mwu_test();
        assert!(r.p_value < 0.01);
        assert!(r.u1 > 290.0);
    }

    #[test]
    fn partition_sweep_shows_metis_advantage() {
        // The experiment dataset is deliberately noisy (weak communities),
        // so the METIS advantage is smaller than on clean SBM graphs --
        // but it must still be decisively below the random baseline.
        for row in partition_sweep(&[2, 4]) {
            assert!(row.cut_ratio < 0.85, "k={}: ratio {}", row.k, row.cut_ratio);
            assert!(row.metis_balance < 1.15);
        }
    }

    #[test]
    fn matmul_sweep_is_monotone_in_time() {
        let rows = matmul_sweep(&[64, 128, 256]);
        assert!(rows[2].kernel_us > rows[0].kernel_us);
        assert!(rows[2].achieved_gflops > rows[0].achieved_gflops);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.transfer_fraction));
        }
    }

    #[test]
    fn rag_sweeps_have_expected_shape() {
        let retrieval = rag_retrieval_sweep(100, &[1, 4]);
        assert_eq!(retrieval[0].mean_recall_at_5, 1.0);
        // More probes → recall does not decrease.
        assert!(retrieval[2].mean_recall_at_5 >= retrieval[1].mean_recall_at_5 - 1e-9);
        let serving = rag_serving_sweep(&[1, 8]);
        assert!(serving[1].throughput_qps > serving[0].throughput_qps);
    }

    #[test]
    fn serving_ablation_shows_batching_and_cache_wins() {
        let rows = serving_ablation();
        assert_eq!(rows.len(), 6);
        // Every fault-injected run completes: nothing panics, nothing is
        // shed (capacity is ample), and retries absorb every fault.
        for r in &rows {
            assert_eq!(r.failed, 0, "batch={} cache={}", r.max_batch, r.cache);
            assert_eq!(r.shed, 0);
        }
        assert!(
            rows.iter().any(|r| r.retries > 0),
            "the fault plan must force at least one retry somewhere"
        );
        let cold = rows
            .iter()
            .find(|r| r.max_batch == 1 && !r.cache)
            .expect("baseline row");
        let warm = rows
            .iter()
            .find(|r| r.max_batch == 8 && r.window_us == 200 && r.cache)
            .expect("batched+cached row");
        assert!(
            warm.p99_us < cold.p99_us,
            "micro-batching + warm cache must cut p99: {} vs {}",
            warm.p99_us,
            cold.p99_us
        );
        assert!(
            warm.sim_qps > cold.sim_qps,
            "and raise throughput: {} vs {}",
            warm.sim_qps,
            cold.sim_qps
        );
        assert!(warm.cache_hit_rate > 0.4, "{}", warm.cache_hit_rate);
        assert!(warm.mean_batch > cold.mean_batch);
    }

    #[test]
    fn work_stealing_beats_round_robin_on_imbalanced_bag() {
        let rows = dispatch_ablation(4, 48);
        let rr = &rows[0];
        let ws = &rows[1];
        assert_eq!(rr.dispatch, "round-robin");
        assert_eq!(rr.steals, 0, "round-robin must never steal");
        // Stealing needs a second thread to run an idle worker while
        // worker 0 sleeps; on one core the cluster has one thread.
        if std::thread::available_parallelism().map_or(1, |p| p.get()) == 1 {
            assert_eq!(ws.steals, 0, "one thread never steals");
            return;
        }
        assert!(ws.steals > 0, "stealing must actually occur");
        // 12 one-millisecond tasks all land on worker 0 under round-robin
        // (>= 12 ms serialized); stealing workers split them over the
        // cluster's threads.
        assert!(
            ws.wall_ms < rr.wall_ms,
            "work stealing ({:.2} ms) should beat round-robin ({:.2} ms)",
            ws.wall_ms,
            rr.wall_ms
        );
        assert!(
            ws.busy_imbalance < rr.busy_imbalance,
            "stealing should even out busy time ({:.2} vs {:.2})",
            ws.busy_imbalance,
            rr.busy_imbalance
        );
    }

    #[test]
    fn residency_ablation_meets_acceptance() {
        let a = residency_ablation();
        // Bit-identical outputs in both domains.
        assert!(a.gcn_identical, "GCN training trajectories diverged");
        assert!(a.rag_identical, "RAG scores diverged");
        // ≥5× fewer host-link bytes for resident execution.
        assert!(
            a.gcn_reduction >= 5.0,
            "GCN host-link reduction {:.1}× below 5×",
            a.gcn_reduction
        );
        assert!(
            a.rag_reduction >= 5.0,
            "RAG host-link reduction {:.1}× below 5×",
            a.rag_reduction
        );
        // The resident GCN run is classified compute-bound by the
        // residency-aware profiler; residency hit ratios split 0 vs 1.
        assert_eq!(a.gcn[1].mode, "resident");
        assert_eq!(a.gcn[1].bottleneck, "ComputeBound", "resident run verdict");
        assert_eq!(a.gcn[1].residency_hit_ratio, 1.0);
        assert_eq!(a.gcn[0].residency_hit_ratio, 0.0);
        assert_eq!(a.rag[1].residency_hit_ratio, 1.0);
    }

    #[test]
    fn pricing_within_tolerance_of_paper() {
        for (label, modeled, paper) in pricing_reconciliation() {
            assert!(
                (modeled - paper).abs() / paper < 0.10,
                "{label}: modeled {modeled} vs paper {paper}"
            );
        }
    }
}
