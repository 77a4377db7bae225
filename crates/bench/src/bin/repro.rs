//! `repro` — regenerates every table and figure of the reproduced paper.
//!
//! Usage:
//! ```text
//! repro                 # run every experiment
//! repro --exp table3    # one experiment
//! repro --list          # list experiment ids
//! ```

use sagegpu_bench::render;

/// (id, description, renderer).
type Experiment = (&'static str, &'static str, fn() -> String);

fn experiments() -> Vec<Experiment> {
    vec![
        (
            "fig1",
            "Enrollment per term",
            render::render_fig1 as fn() -> String,
        ),
        ("fig2", "Grade distributions", render::render_fig2),
        ("table1", "Course modules", render::render_table1),
        ("fig3", "End-of-semester evaluations", render::render_fig3),
        ("fig4", "Confidence surveys (4a-4d)", render::render_fig4),
        ("fig5", "AWS usage and cost", render::render_fig5),
        ("table3", "Shapiro-Wilk + Levene", render::render_table3),
        ("table4", "Descriptive statistics", render::render_table4),
        ("fig6", "Score histograms", render::render_fig6),
        ("fig7_8", "Q-Q straightness", render::render_fig7_8),
        ("mwu", "Mann-Whitney U", render::render_mwu),
        ("fig9", "Boxplots", render::render_fig9),
        ("fig10_11", "Satisfaction", render::render_fig10_11),
        ("gcn", "Distributed GCN scaling", render::render_gcn),
        (
            "partition",
            "METIS vs random partitioning",
            render::render_partition,
        ),
        ("matmul", "Matmul memory bottleneck", render::render_matmul),
        ("rag", "RAG retrieval + serving", render::render_rag),
        ("pricing", "Appendix A pricing", render::render_pricing),
        ("rl", "RL agents (Labs 8/10, Asgn 3)", render::render_rl),
        ("df", "Distributed dataframes (Lab 6)", render::render_df),
        (
            "interconnect",
            "Ablation: Algorithm 1 interconnects",
            render::render_interconnect,
        ),
        (
            "scheduler",
            "Ablation: scheduling policy",
            render::render_scheduler,
        ),
        (
            "dispatch",
            "Ablation: work stealing vs round-robin",
            render::render_dispatch,
        ),
        (
            "access",
            "Ablation: access patterns & tiling",
            render::render_access,
        ),
        (
            "serving",
            "Ablation: online serving (A05)",
            render::render_serving,
        ),
        (
            "residency",
            "Ablation: device residency (A06)",
            render::render_residency,
        ),
        (
            "fusion",
            "Ablation: fused kernels + stream pipelining (A07)",
            render::render_fusion,
        ),
        (
            "scaling",
            "Ablation: comm overlap x worker scaling (A08)",
            render::render_comm_scaling,
        ),
        (
            "graph",
            "Ablation: graph capture/replay (A09)",
            render::render_graph,
        ),
        (
            "topology",
            "Ablation: two-tier topology x hierarchical collectives (A10)",
            render::render_topology,
        ),
        (
            "whatif",
            "Ablation: trace what-if replay (A11)",
            render::render_whatif,
        ),
        (
            "retrieval",
            "Ablation: sharded IVF-PQ retrieval at scale (A12)",
            render::render_retrieval,
        ),
        (
            "residency_serving",
            "Ablation: tiered-residency serving under device budgets (A13)",
            render::render_residency_serving,
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exps = experiments();

    if args.iter().any(|a| a == "--list") {
        for (id, desc, _) in &exps {
            println!("{id:<10} {desc}");
        }
        return;
    }

    let selected: Option<&str> = match args.iter().position(|a| a == "--exp") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(id) => Some(id.as_str()),
            None => {
                eprintln!("usage: repro [--list | --exp <id>]");
                std::process::exit(2);
            }
        },
    };

    let mut matched = false;
    for (id, _, f) in &exps {
        if selected.is_none_or(|s| s == *id) {
            print!("{}", f());
            matched = true;
        }
    }
    if !matched {
        eprintln!(
            "unknown experiment '{}'; try --list",
            selected.unwrap_or_default()
        );
        std::process::exit(1);
    }
}
