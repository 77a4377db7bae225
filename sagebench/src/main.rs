//! sagebench — the end-to-end and per-layer benchmark of sagegpu.
//!
//! ```text
//! cargo run --release --manifest-path sagebench/Cargo.toml -- \
//!     --workload rag-hot|rag-cold|gcn-train --seed N --seconds S --trace 0|1
//! ```
//!
//! Every metric is printed on its own line with its unit, its clock (wall,
//! cpu or sim) and its sample count. The last line of standard output is
//! one JSON object: `--trace 0` carries the end-to-end metrics, `--trace 1`
//! the per-layer ones. See `sagebench/README.md` for the metric table.

mod procfs;
mod serving;
mod stats;
mod training;

use std::fmt::Write as _;
use std::process::ExitCode;

/// The end-to-end metrics of an untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_wall_ms", "ms"),
    ("cpu_us_per_request", "us"),
    ("sim_us_per_request", "us"),
];

/// The per-layer metrics of a traced run: `(name, unit)`. A count or ratio
/// of a layer the workload never runs is reported as 0.
const PER_LAYER: [(&str, &str); 17] = [
    ("tracing.cpu_overhead_ratio", "ratio"),
    ("gpu.wall_ns_per_submission", "ns"),
    ("gpu.submissions_per_request", "count"),
    ("gpu.kernels_per_request", "count"),
    ("gpu.pool_reuse_ratio", "ratio"),
    ("profiler.ingest_wall_ms", "ms"),
    ("taskflow.tasks_per_batch", "count"),
    ("taskflow.steals", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("residency.hit_ratio", "ratio"),
    ("residency.promoted_kb_per_batch", "KB"),
    ("residency.evictions_per_batch", "count"),
    ("gcn.kernel_launches_per_epoch", "count"),
    ("gcn.submissions_per_epoch", "count"),
    ("gcn.p2p_mb_per_epoch", "MB"),
    ("gcn.device_utilization_mean", "share"),
];

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time.
    Wall,
    /// Process user + system CPU time.
    Cpu,
    /// The simulated GPU clock.
    Sim,
    /// Not a time: a count, ratio or size.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub clock: Clock,
    /// Samples the value was computed from, where that is meaningful.
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, clock: Clock, n: Option<usize>) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            clock,
            n,
        }
    }

    pub fn prefixed(mut self, prefix: &str) -> Self {
        self.name = format!("{prefix}{}", self.name);
        self
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests (training jobs for `gcn-train`) the headline phase tried.
    pub attempted: u64,
    /// Of those, shed, failed or answered wrongly.
    pub failed: u64,
    /// Free-form report lines printed before the metrics.
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            lines: Vec::new(),
            metrics: Vec::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(1..=600).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=600", args.seconds));
    }
    Ok(args)
}

/// The result line: exactly the metrics `names` lists, in that order.
fn result_json(out: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match out.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.unit != *unit => {
                return Err(format!("{name} measured in {} not {unit}", m.unit))
            }
            Some(m) => m.value,
            None if !is_time_unit(unit) => 0.0,
            None => return Err(format!("{name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    ))
}

fn is_time_unit(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "us" | "ns")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sagebench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let outcome = match args.workload.as_str() {
        "rag-hot" => serving::run(serving::Kind::Hot, args.seed, seconds, args.trace),
        "rag-cold" => serving::run(serving::Kind::Cold, args.seed, seconds, args.trace),
        "gcn-train" => training::run(args.seed, seconds, args.trace),
        other => Err(format!(
            "unknown workload '{other}'; try rag-hot, rag-cold or gcn-train"
        )),
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sagebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        let n = m.n.map_or(String::new(), |n| format!(" (n={n})"));
        println!(
            "metric {} = {} {} [{}]{n}",
            m.name,
            m.value,
            m.unit,
            m.clock.label()
        );
    }
    println!(
        "correct={} attempted={} failed={}",
        out.correct, out.attempted, out.failed
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_json(&out, names) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sagebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_exactly_the_named_metrics() {
        let out = Outcome {
            attempted: 3,
            metrics: vec![
                Metric::new("a_ms", 1.25, "ms", Clock::Wall, Some(3)),
                Metric::new("extra", 9.0, "count", Clock::None, None),
            ],
            ..Outcome::default()
        };
        let json = result_json(&out, &[("a_ms", "ms"), ("b", "count")]).unwrap();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        // A missing time is a bug, never a silent zero.
        assert!(result_json(&out, &[("c_ms", "ms")]).is_err());
        assert!(result_json(&out, &[("a_ms", "s")]).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names_in = |key: &str| -> Vec<(String, String)> {
            let section = &text[text.find(&format!("\"{key}\"")).expect(key)..];
            let section = &section[..section.find(']').expect("list ends")];
            section
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let key = format!("\"{f}\": \"");
                        let rest = &entry[entry.find(&key).expect(f) + key.len()..];
                        rest[..rest.find('"').expect("closing quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in("end_to_end"), own(&END_TO_END));
        assert_eq!(names_in("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload rag-hot --seed 9 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("rag-hot", 9, 5, true)
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
    }
}
