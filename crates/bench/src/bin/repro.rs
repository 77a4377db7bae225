//! `repro` — regenerates every table and figure of the reproduced paper.
//!
//! Usage:
//! ```text
//! repro                 # run every experiment
//! repro --exp table3    # one experiment
//! repro --list          # list experiment ids and their BENCH_A*.json artifacts
//! ```

use sagegpu_bench::artifact::{Ablation, ABLATIONS, ARTIFACT_DIR};
use sagegpu_bench::render;
use std::path::Path;

/// (id, description, renderer) of the experiments without an artifact;
/// they run before the [`ABLATIONS`].
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
    ]
}

/// Runs one ablation, writes its artifact and checks its bounds. Returns
/// false when the write failed or a bound is violated.
fn reproduce(ablation: &Ablation) -> bool {
    let v = ablation.run();
    print!("{}", ablation.render(&v));
    let file = format!("BENCH_{}.json", ablation.artifact);
    let mut ok = match ablation.publish(Path::new(ARTIFACT_DIR), &v) {
        Ok(()) => {
            println!("wrote {file}");
            true
        }
        Err(e) => {
            eprintln!("error: could not write {file}: {e}");
            false
        }
    };
    for violation in ablation.check(&v) {
        eprintln!("{}: bound violated: {violation}", ablation.artifact);
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exps = experiments();

    if args.iter().any(|a| a == "--list") {
        for (id, desc, _) in &exps {
            println!("{id:<18} -    {desc}");
        }
        for a in &ABLATIONS {
            println!("{:<18} {}  Ablation: {}", a.id, a.artifact, a.title);
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

    let wanted = |id: &str| selected.is_none_or(|s| s == id);
    let mut matched = false;
    for (_, _, f) in exps.iter().filter(|e| wanted(e.0)) {
        print!("{}", f());
        matched = true;
    }
    let mut ok = true;
    for a in ABLATIONS.iter().filter(|a| wanted(a.id)) {
        ok &= reproduce(a);
        matched = true;
    }
    if !matched {
        eprintln!(
            "unknown experiment '{}'; try --list",
            selected.unwrap_or_default()
        );
        std::process::exit(1);
    }
    if !ok {
        std::process::exit(1);
    }
}
