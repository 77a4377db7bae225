//! Text rendering of experiment results, paper values alongside measured.

use crate::experiments::*;
use sagegpu_core::edu::modules::render_modules_table;
use sagegpu_core::gcn::experiment::render_scaling_table;

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// E01 — Fig. 1.
pub fn render_fig1() -> String {
    let mut out = header("Fig. 1 — Enrollment per Term (UG / Grad)");
    for (sem, ug, grad) in fig1_enrollment() {
        out.push_str(&format!("{sem:<12} UG {ug:>3}   Grad {grad:>3}\n"));
    }
    out.push_str("paper: Spring 2025 had 15 graduate students; ~39-40 total across F24+S25\n");
    out
}

/// E02 — Fig. 2.
pub fn render_fig2() -> String {
    let mut out = header("Fig. 2 — Grade Distribution");
    out.push_str(&format!(
        "{:<12} {:>4} {:>4} {:>4} {:>4} {:>4}\n",
        "semester", "A", "B", "C", "D", "F"
    ));
    for (sem, counts) in fig2_grades() {
        out.push_str(&format!(
            "{:<12} {:>4} {:>4} {:>4} {:>4} {:>4}\n",
            sem, counts[0], counts[1], counts[2], counts[3], counts[4]
        ));
    }
    out.push_str("paper: F24 majority B; S25 over 60% A; exams 75-80% both semesters\n");
    out
}

/// E03 — Table I.
pub fn render_table1() -> String {
    let mut out = header("Table I — Course Modules");
    out.push_str(&render_modules_table());
    out
}

/// E04 — Fig. 3.
pub fn render_fig3() -> String {
    let mut out = header("Fig. 3 — Evaluation responses (% Never/Seldom/Sometimes/Often/Always)");
    for (q, level, pct) in fig3_evaluations() {
        out.push_str(&format!(
            "{:<13} [{:>4.0} {:>4.0} {:>4.0} {:>4.0} {:>4.0}]  {}\n",
            format!("{level:?}"),
            pct[0],
            pct[1],
            pct[2],
            pct[3],
            pct[4],
            &q[..q.len().min(60)]
        ));
    }
    out.push_str("paper: UG highest on content Qs, grads on skill Qs; lab Qs lowest 'Always'\n");
    out
}

/// E05–E08 — Fig. 4.
pub fn render_fig4() -> String {
    let mut out = header("Fig. 4 — Confidence surveys (counts SD/D/N/A/SA)");
    for (q, sem, wave, s) in fig4_surveys() {
        out.push_str(&format!(
            "{:<11} {:<12} {:<6} {:?}  mean {:.2}\n",
            format!("{q:?}"),
            sem,
            format!("{wave:?}"),
            s.counts,
            s.mean_score()
        ));
    }
    out.push_str("paper anchors: 4a F24 final 2/2/1/2/2; 4a S25 final 0/0/9/7/5;\n");
    out.push_str(
        "4b improves mid->final; 4c dips (smaller dip in S25); 4d S25 has 10 disagreements\n",
    );
    out
}

/// E09 — Fig. 5.
pub fn render_fig5() -> String {
    let mut out = header("Fig. 5 / Appendix A — AWS usage per student");
    out.push_str(&format!(
        "{:<12} {:>9} {:>11} {:>12} {:>8} {:>9}\n",
        "semester", "GPU h", "cost $", "total $", "reaped", "proj h"
    ));
    for u in fig5_usage() {
        out.push_str(&format!(
            "{:<12} {:>9.1} {:>11.2} {:>12.2} {:>8} {:>9.2}\n",
            u.semester,
            u.mean_gpu_hours,
            u.mean_cost_usd,
            u.total_cost_usd,
            u.reaped_instances,
            u.mean_project_hours
        ));
    }
    out.push_str(
        "paper: 40-45 h and $50-60 per student; S25 hours higher (2 extra labs); project < 2 h\n",
    );
    out
}

/// E10 — Table III.
pub fn render_table3() -> String {
    let t = table3_assumptions();
    let mut out = header("Table III — Assumption tests (measured vs paper)");
    out.push_str(&format!(
        "Shapiro-Wilk (Graduate)      W = {:.3}  p = {:.4}   (paper: W = 0.722, p < .001)\n",
        t.grad.w, t.grad.p_value
    ));
    out.push_str(&format!(
        "Shapiro-Wilk (Undergraduate) W = {:.3}  p = {:.4}   (paper: W = 0.898, p = .037)\n",
        t.undergrad.w, t.undergrad.p_value
    ));
    out.push_str(&format!(
        "Levene                       F = {:.3}  p = {:.4}   (paper: F = 2.437, p = .127)\n",
        t.levene.f_statistic, t.levene.p_value
    ));
    out
}

/// E11 — Table IV.
pub fn render_table4() -> String {
    let mut out = header("Table IV — Descriptive statistics (measured vs paper)");
    out.push_str(&format!(
        "{:<14} {:>7} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>6}\n",
        "group", "mean", "std", "min", "Q1", "median", "Q3", "max", "n"
    ));
    for (name, d) in table4_descriptives() {
        out.push_str(&format!(
            "{:<14} {:>7.2} {:>8.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>6}\n",
            name, d.mean, d.std_dev, d.min, d.q1, d.median, d.q3, d.max, d.count
        ));
    }
    out.push_str("paper:  Graduate     94.36    6.91   74.38  90.06   97.92  98.80  99.17    20\n");
    out.push_str("paper:  Undergrad    83.51   11.33   53.75  80.79   85.94  91.05  98.54    20\n");
    out
}

/// E12 — Fig. 6.
pub fn render_fig6() -> String {
    let mut out = header("Fig. 6 — Score histograms (bins of 5 over [50, 100])");
    for (name, h) in fig6_histograms() {
        out.push_str(&format!("{name:<14}"));
        for (c, count) in h.centers().iter().zip(&h.counts) {
            out.push_str(&format!(" {:.0}:{:<2}", c, count));
        }
        out.push('\n');
    }
    out.push_str("paper: graduate mass piled at the ceiling; undergrad spread with a low tail\n");
    out
}

/// E13 — Figs. 7–8.
pub fn render_fig7_8() -> String {
    let mut out = header("Figs. 7-8 — Normal Q-Q straightness (correlation)");
    for (name, r, n) in fig7_8_qq() {
        out.push_str(&format!("{name:<14} r = {r:.4}  ({n} points)\n"));
    }
    out.push_str("paper: clear departures from the Q-Q line, stronger for graduates\n");
    out
}

/// E14 — Mann–Whitney.
pub fn render_mwu() -> String {
    let r = mwu_test();
    let mut out = header("Appendix C — Mann-Whitney U (measured vs paper)");
    out.push_str(&format!(
        "U(graduate) = {:.1}  U(undergrad) = {:.1}  p = {:.5}  [{:?}]\n",
        r.u1, r.u2, r.p_value, r.method
    ));
    out.push_str("paper: U = 332.00, p = .0004 — graduates significantly higher\n");
    out
}

/// E15 — Fig. 9.
pub fn render_fig9() -> String {
    let mut out = header("Fig. 9 — Boxplots");
    for (name, b) in fig9_boxplots() {
        out.push_str(&format!(
            "{:<14} whiskers [{:.2}, {:.2}]  box [{:.2}, {:.2}, {:.2}]  outliers {:?}\n",
            name, b.whisker_low, b.whisker_high, b.q1, b.median, b.q3, b.outliers
        ));
    }
    out.push_str("paper: higher median and tighter box for graduates, low outliers present\n");
    out
}

/// E16 — Figs. 10–11.
pub fn render_fig10_11() -> String {
    let mut out = header("Figs. 10-11 — Satisfaction (VeryLow..VeryHigh)");
    for (sem, counts, pct) in fig10_11_satisfaction() {
        out.push_str(&format!(
            "{:<12} counts {:?}  percent [{:.1} {:.1} {:.1} {:.1} {:.1}]\n",
            sem, counts, pct[0], pct[1], pct[2], pct[3], pct[4]
        ));
    }
    out.push_str("paper: F24 87.5% VeryHigh + one VeryLow; S25 60% VeryHigh / 40% High\n");
    out
}

/// E17 — GCN scaling.
pub fn render_gcn() -> String {
    let mut out = header("§III-B — Distributed GCN scaling (Algorithm 1)");
    out.push_str(&render_scaling_table(&gcn_scaling(&[2, 3], 25)));
    out.push_str(
        "paper: minimal speedup from splitting; accuracy improves vs sequential (METIS)\n",
    );
    out
}

/// E18 — partition quality.
pub fn render_partition() -> String {
    let mut out = header("Partitioning quality — METIS vs random");
    out.push_str(&format!(
        "{:>2} {:>11} {:>12} {:>9} {:>14}\n",
        "k", "metis-cut", "random-cut", "balance", "metis/random"
    ));
    for row in partition_sweep(&[2, 4, 8]) {
        out.push_str(&format!(
            "{:>2} {:>11.0} {:>12.0} {:>9.3} {:>14.3}\n",
            row.k, row.metis_cut, row.random_cut, row.metis_balance, row.cut_ratio
        ));
    }
    out.push_str("expected: METIS cut far below random on community graphs\n");
    out
}

/// E19 — matmul sweep.
pub fn render_matmul() -> String {
    let mut out = header("Labs 2-3 / Assignment 1 — Matmul and memory bottleneck");
    out.push_str(&format!(
        "{:>5} {:>12} {:>13} {:>12} {:>10}\n",
        "n", "kernel(us)", "transfer(us)", "GFLOP/s", "xfer-frac"
    ));
    for r in matmul_sweep(&[64, 128, 256, 512, 1024]) {
        out.push_str(&format!(
            "{:>5} {:>12.1} {:>13.1} {:>12.1} {:>10.2}\n",
            r.n, r.kernel_us, r.transfer_us, r.achieved_gflops, r.transfer_fraction
        ));
    }
    out.push_str("expected: achieved GFLOP/s climbs with n; transfers dominate end-to-end\n");
    out
}

/// E20 — RAG sweeps.
pub fn render_rag() -> String {
    let mut out = header("Labs 11-13 / Assignment 4 — RAG retrieval and serving");
    out.push_str("retrieval (corpus 200):\n");
    out.push_str(&format!(
        "{:<16} {:>7} {:>11} {:>10}\n",
        "index", "nprobe", "scan-frac", "recall@5"
    ));
    for r in rag_retrieval_sweep(200, &[1, 2, 4, 10]) {
        out.push_str(&format!(
            "{:<16} {:>7} {:>11.2} {:>10.2}\n",
            r.index, r.nprobe, r.scan_fraction, r.mean_recall_at_5
        ));
    }
    out.push_str("serving (32 queries):\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>9}\n",
        "batch", "p50(us)", "p99(us)", "QPS"
    ));
    for r in rag_serving_sweep(&[1, 2, 4, 8, 16, 32]) {
        out.push_str(&format!(
            "{:>6} {:>10.1} {:>10.1} {:>9.0}\n",
            r.batch, r.p50_us, r.p99_us, r.throughput_qps
        ));
    }
    out.push_str("expected: fewer probes = less scanning at lower recall; batching raises QPS\n");
    out
}

/// A05 — online-serving ablation.
pub fn render_serving() -> String {
    let mut out = header("Ablation — online RAG serving: batch window x cache, under faults");
    out.push_str("64 requests (16 distinct x4), 4 workers, crash 10% / slow 5% / drop 5%:\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>6} {:>9} {:>9} {:>10} {:>9} {:>9} {:>8} {:>8}\n",
        "batch",
        "window(us)",
        "cache",
        "p50(us)",
        "p99(us)",
        "sim-QPS",
        "wait(us)",
        "hit-rate",
        "mean-b",
        "retries"
    ));
    for r in serving_ablation() {
        out.push_str(&format!(
            "{:>6} {:>10} {:>6} {:>9.1} {:>9.1} {:>10.0} {:>9.1} {:>9.2} {:>8.1} {:>8}\n",
            r.max_batch,
            r.window_us,
            if r.cache { "on" } else { "off" },
            r.p50_us,
            r.p99_us,
            r.sim_qps,
            r.mean_queue_wait_us,
            r.cache_hit_rate,
            r.mean_batch,
            r.retries
        ));
    }
    out.push_str("expected: batching amortizes decode, the warm cache removes repeat retrieval,\n");
    out.push_str("          and injected faults are retried without failing any request\n");
    out
}

/// A06 — residency ablation.
pub fn render_residency() -> String {
    let a = residency_ablation();
    let mut out = header("Ablation — device residency: resident vs naive data movement (A06)");
    out.push_str("GCN: 60 epochs, hidden=32, k=2 over NVLink, METIS partitions:\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>8} {:>14} {:>9}\n",
        "mode",
        "h2d(KB)",
        "d2h(KB)",
        "p2p(KB)",
        "sim-time(ms)",
        "loss",
        "acc",
        "bottleneck",
        "hit-ratio"
    ));
    for r in &a.gcn {
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>10.1} {:>12.2} {:>9.4} {:>8.3} {:>14} {:>9.2}\n",
            r.mode,
            r.h2d_kb,
            r.d2h_kb,
            r.p2p_kb,
            r.sim_time_ms,
            r.final_loss,
            r.test_accuracy,
            r.bottleneck,
            r.residency_hit_ratio
        ));
    }
    out.push_str(&format!(
        "GCN host-link reduction: {:.1}x  (bit-identical: {})\n\n",
        a.gcn_reduction, a.gcn_identical
    ));
    out.push_str("RAG: 32 queries against a 60-doc x 96-dim index:\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>9}\n",
        "mode", "h2d(KB)", "d2h(KB)", "hit-ratio"
    ));
    for r in &a.rag {
        out.push_str(&format!(
            "{:<10} {:>10.1} {:>10.1} {:>9.2}\n",
            r.mode, r.h2d_kb, r.d2h_kb, r.residency_hit_ratio
        ));
    }
    out.push_str(&format!(
        "RAG host-link reduction: {:.1}x  (identical scores: {})\n",
        a.rag_reduction, a.rag_identical
    ));
    out.push_str("expected: >=5x fewer host-link bytes in both domains, identical outputs,\n");
    out.push_str("          and the resident GCN run classified compute-bound\n");
    out
}

/// S01 — RL agents.
pub fn render_rl() -> String {
    let mut out = header("Supplementary — Labs 8/10 + Assignment 3: RL agents");
    out.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9} {:>7} {:>9}\n",
        "agent", "early-ret", "late-ret", "greedy", "steps", "sim(ms)"
    ));
    for r in rl_comparison() {
        out.push_str(&format!(
            "{:<22} {:>9.2} {:>9.2} {:>9.2} {:>7} {:>9.2}\n",
            r.agent, r.early_return, r.late_return, r.greedy_return, r.greedy_steps, r.sim_ms
        ));
    }
    out.push_str("expected: all three agents improve and reach the goal greedily\n");
    out
}

/// S02 — distributed dataframes.
pub fn render_df() -> String {
    let mut out = header("Supplementary — Lab 6 / Assignment 2: distributed group-by");
    out.push_str(&format!(
        "{:>8} {:>9} {:>14}\n",
        "workers", "sim(ms)", "max-abs-error"
    ));
    for r in df_scaling(20_000, &[1, 2, 4]) {
        out.push_str(&format!(
            "{:>8} {:>9.2} {:>14.2e}\n",
            r.workers, r.sim_ms, r.max_abs_error
        ));
    }
    out.push_str(
        "expected: two-phase aggregation is exact; per-worker time shrinks with workers\n",
    );
    out
}

/// A01 — interconnect ablation.
pub fn render_interconnect() -> String {
    let mut out = header("Ablation — Algorithm 1 across interconnects (k=3, METIS)");
    out.push_str(&format!(
        "{:<20} {:>12} {:>9}\n",
        "link", "sim-time(ms)", "speedup"
    ));
    for r in interconnect_ablation(15) {
        out.push_str(&format!(
            "{:<20} {:>12.2} {:>9.2}\n",
            r.link, r.sim_time_ms, r.speedup_vs_sequential
        ));
    }
    out.push_str(
        "expected: the course's VPC Ethernet is the slowest; better links recover speedup\n",
    );
    out.push_str("note: speedup can exceed k because METIS partitioning drops cut edges,\n");
    out.push_str("      shrinking total aggregation work relative to the full-graph baseline\n");
    out
}

/// A02 — scheduler-policy ablation.
pub fn render_scheduler() -> String {
    let mut out = header("Ablation — taskflow scheduling policy (skewed fork-join graph)");
    out.push_str(&format!(
        "{:>8} {:>9} {:>14} {:>12}\n",
        "workers", "fifo", "critical-path", "lower-bound"
    ));
    for r in scheduler_ablation(&[1, 2, 4]) {
        out.push_str(&format!(
            "{:>8} {:>9.1} {:>14.1} {:>12.1}\n",
            r.workers, r.fifo_makespan, r.critical_path_makespan, r.lower_bound
        ));
    }
    out.push_str(
        "expected: critical-path ordering tracks the lower bound; FIFO straggles the chain\n",
    );
    out
}

/// A04 — dispatch-mode ablation on the real cluster.
pub fn render_dispatch() -> String {
    let mut out =
        header("Ablation — cluster dispatch: round-robin vs work stealing (imbalanced bag)");
    out.push_str(&format!(
        "{:<16} {:>9} {:>8} {:>11}\n",
        "dispatch", "wall(ms)", "steals", "imbalance"
    ));
    for r in dispatch_ablation(4, 48) {
        out.push_str(&format!(
            "{:<16} {:>9.2} {:>8} {:>11.2}\n",
            r.dispatch, r.wall_ms, r.steals, r.busy_imbalance
        ));
    }
    out.push_str("expected: round-robin piles the long tasks on worker 0; stealing drains them\n");
    out.push_str("          (lower wall time, steals > 0, lower busy imbalance; with one thread\n");
    out.push_str("          per core, 4 workers on 2 cores sit near imbalance 2.0)\n");
    out
}

/// A03 — access-pattern / tiling ablation.
pub fn render_access() -> String {
    let mut out = header("Ablation — memory access patterns and tiling (cost model)");
    out.push_str(&format!(
        "{:<32} {:>10} {:>10}\n",
        "kernel", "sim(us)", "slowdown"
    ));
    for r in access_ablation() {
        out.push_str(&format!(
            "{:<32} {:>10.1} {:>9.1}x\n",
            r.kernel, r.sim_us, r.slowdown_vs_best
        ));
    }
    out.push_str("expected: coalesced < strided < random; tiling collapses naive matmul traffic\n");
    out.push_str("note: the simulator has no cache model, so the naive-matmul penalty is an\n");
    out.push_str("      upper bound; real L2 caches absorb part of the re-read traffic\n");
    out
}

/// E21 — pricing.
pub fn render_pricing() -> String {
    let mut out = header("Appendix A — Pricing reconciliation");
    for (label, modeled, paper) in pricing_reconciliation() {
        out.push_str(&format!(
            "{label:<28} modeled ${modeled:.3}/h   paper ${paper:.3}/h\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_renderer_produces_nonempty_output() {
        for (name, text) in [
            ("fig1", render_fig1()),
            ("fig2", render_fig2()),
            ("table1", render_table1()),
            ("fig3", render_fig3()),
            ("fig5", render_fig5()),
            ("table3", render_table3()),
            ("table4", render_table4()),
            ("fig6", render_fig6()),
            ("fig7_8", render_fig7_8()),
            ("mwu", render_mwu()),
            ("fig9", render_fig9()),
            ("fig10_11", render_fig10_11()),
            ("partition", render_partition()),
            ("pricing", render_pricing()),
            ("dispatch", render_dispatch()),
        ] {
            assert!(text.len() > 80, "{name} output too short");
            assert!(text.contains("==="), "{name} missing header");
        }
    }

    #[test]
    fn table3_render_cites_paper_values() {
        let t = render_table3();
        assert!(t.contains("0.722"));
        assert!(t.contains("2.437"));
    }
}
