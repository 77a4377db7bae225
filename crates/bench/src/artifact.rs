//! The one artifact path of the A07–A13 ablations.
//!
//! Each ablation has a typed struct, declared through `artifact_schema!`,
//! whose fields are its `BENCH_<id>.json` schema; a check function holding
//! its acceptance bounds; and one row in [`ABLATIONS`]. Everything else is
//! shared: [`Ablation::run`] stamps the artifact's identity,
//! [`Ablation::publish`] writes it, [`Ablation::render`] prints it, and
//! [`Ablation::check`] runs the same bounds on a fresh run and on a
//! committed file alike.

use crate::experiments::*;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A value with a JSON form: the write half of an artifact struct.
pub trait ToJson {
    fn to_json(&self) -> Value;
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! number_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*};
}
number_to_json!(u32, u64, usize, f64);

/// `f32` keeps its own shortest form: `0.0009348008`, not the widened
/// `0.0009348007733933628`.
impl ToJson for f32 {
    fn to_json(&self) -> Value {
        Value::Number(self.to_string().parse().unwrap_or(f64::NAN))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

/// Declares artifact structs, doc comments and all, and derives their
/// [`ToJson`]: one JSON member per field, named after the field.
macro_rules! artifact_schema {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    )*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl $crate::artifact::ToJson for $name {
            fn to_json(&self) -> serde_json::Value {
                serde_json::Value::Object(std::collections::BTreeMap::from([$((
                    stringify!($field).to_owned(),
                    $crate::artifact::ToJson::to_json(&self.$field),
                ),)*]))
            }
        }
    )*};
}
pub(crate) use artifact_schema;

/// Collects the bounds an artifact violates, in the style of
/// [`check_gate`](crate::gate::check_gate): empty means it passes.
#[derive(Default)]
pub(crate) struct Check {
    violations: Vec<String>,
    scope: String,
}

/// Records each condition that does not hold as violated, worded as
/// written (prefixed by the current [`Check::scope`]), the way `assert!`
/// words its panics.
macro_rules! bounds {
    ($check:expr, $($cond:expr),+ $(,)?) => {
        $($check.ensure($cond, stringify!($cond));)+
    };
}
pub(crate) use bounds;

static NULL: Value = Value::Null;

impl Check {
    /// Records `bound` as violated unless `ok`.
    pub fn ensure(&mut self, ok: bool, bound: &str) {
        if !ok {
            let sep = if self.scope.is_empty() { "" } else { ": " };
            self.violations.push(format!("{}{sep}{bound}", self.scope));
        }
    }

    /// Prefixes the violations recorded from here on, e.g. with `k=8`.
    pub fn scope(&mut self, scope: impl Into<String>) {
        self.scope = scope.into();
    }

    /// The first element of the array `v[key]` matching `pred`. Records a
    /// violation and returns `null` (whose fields all read as missing) when
    /// none does.
    pub fn row<'a>(
        &mut self,
        v: &'a Value,
        key: &str,
        label: &str,
        pred: impl Fn(&Value) -> bool,
    ) -> &'a Value {
        let found = rows(v, key).iter().find(|r| pred(r));
        self.ensure(found.is_some(), &format!("`{key}` has a {label} row"));
        found.unwrap_or(&NULL)
    }

    pub fn finish(self) -> Vec<String> {
        self.violations
    }
}

/// Numeric reads for checks.
pub(crate) trait NumField {
    /// Member `key` as a number; NaN when it is missing or not a number, so
    /// every bound on it fails.
    fn num(&self, key: &str) -> f64;
}

impl NumField for Value {
    fn num(&self, key: &str) -> f64 {
        self[key].as_f64().unwrap_or(f64::NAN)
    }
}

/// The array at `v[key]`, empty when missing.
pub(crate) fn rows<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v[key].as_array().map_or(&[], Vec::as_slice)
}

/// One A07–A13 ablation: everything that differs between artifacts.
pub struct Ablation {
    /// Experiment id for `repro --exp`.
    pub id: &'static str,
    /// Artifact id: the ablation writes `BENCH_<artifact>.json`.
    pub artifact: &'static str,
    /// The artifact's `title`.
    pub title: &'static str,
    run: fn() -> Value,
    check: fn(&Value) -> Vec<String>,
    /// The setup and what the numbers should show, printed after them.
    expected: &'static str,
}

/// Where the artifacts are committed: the repository root.
pub const ARTIFACT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The registry: every ablation that ships an artifact, in `repro` order.
pub const ABLATIONS: [Ablation; 7] = [
    Ablation {
        id: "fusion",
        artifact: "A07",
        title: "fused kernels + stream pipelining",
        run: || fusion_ablation().to_json(),
        check: check_fusion,
        expected: "GCN: 40 epochs, k=2 over NVLink; RAG: 32 queries, 60x96 index.\n\
                   Fused/pipelined runs: strictly fewer launches, strictly less time,\n\
                   bit-identical outputs, smaller overhead share, overlap above 1.",
    },
    Ablation {
        id: "scaling",
        artifact: "A08",
        title: "overlapped bucketed all-reduce worker scaling",
        run: || comm_scaling_ablation().to_json(),
        check: check_comm_scaling,
        expected: "GCN: 25 epochs, 800-node SBM, Ethernet. Bucketed overlap hides part\n\
                   of the exchange inside backward and strictly beats monolithic at\n\
                   every k >= 2 with identical outputs.",
    },
    Ablation {
        id: "graph",
        artifact: "A09",
        title: "graph capture/replay",
        run: || graph_ablation().to_json(),
        check: check_graph,
        expected: "GCN: 40 epochs, k=2 over NVLink; RAG: 6 rounds x 48 queries. One\n\
                   graph launch per replay amortizes launch overhead (>15% of the\n\
                   eager fused epoch) with bit-identical outputs.",
    },
    Ablation {
        id: "topology",
        artifact: "A10",
        title: "two-tier topology x hierarchical collectives",
        run: || topology_scaling_ablation().to_json(),
        check: check_topology_scaling,
        expected: "GCN: 25 epochs, 3200-node SBM; hierarchical = NVLink islands of 4\n\
                   over Ethernet. Exposed fraction < 0.25 at k=8, a lead over flat\n\
                   monolithic that widens to k=16, half the wire under fp16.",
    },
    Ablation {
        id: "whatif",
        artifact: "A11",
        title: "trace record + what-if replay",
        run: || whatif_ablation().to_json(),
        check: check_whatif,
        expected: "Replay re-prices the recorded k=8 trace without re-running it:\n\
                   identity is exact and interconnect what-ifs land within 5% of\n\
                   fresh runs; one comm stream is predicted-only.",
    },
    Ablation {
        id: "retrieval",
        artifact: "A12",
        title: "sharded IVF-PQ retrieval at scale",
        run: || retrieval_scale_ablation().to_json(),
        check: check_retrieval,
        expected: "PQ shrinks the index ~10x with recall@10 >= 0.9 at some nprobe;\n\
                   4 shards cut search makespan >= 2x with identical hits, because\n\
                   refine runs after the total-order merge.",
    },
    Ablation {
        id: "residency_serving",
        artifact: "A13",
        title: "tiered-residency serving under device budgets",
        run: || residency_serving_ablation().to_json(),
        check: check_residency_serving,
        expected: "Hits stay bit-identical at every budget and the high-water stays\n\
                   under it; Zipf beats the uniform sweep's hit ratio; a 25% budget\n\
                   keeps >= 0.5x the unbudgeted throughput.",
    },
];

impl Ablation {
    /// Runs the experiment and stamps the artifact's `experiment` and
    /// `title`.
    pub fn run(&self) -> Value {
        let mut v = (self.run)();
        if let Value::Object(fields) = &mut v {
            fields.insert("experiment".into(), Value::String(self.artifact.into()));
            fields.insert("title".into(), Value::String(self.title.into()));
        }
        v
    }

    /// The bounds `v` violates, its identity included; empty means it
    /// passes.
    pub fn check(&self, v: &Value) -> Vec<String> {
        let mut c = Check::default();
        bounds!(
            c,
            v["experiment"] == self.artifact,
            v["title"] == self.title
        );
        c.violations.extend((self.check)(v));
        c.violations
    }

    /// `BENCH_<artifact>.json` under `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("BENCH_{}.json", self.artifact))
    }

    /// Writes `v` as the artifact under `dir`.
    pub fn publish(&self, dir: &Path, v: &Value) -> std::io::Result<()> {
        let text = serde_json::to_string_pretty(v).map_err(std::io::Error::other)?;
        std::fs::write(self.path(dir), text + "\n")
    }

    /// Text rendering of an artifact: scalars as `key: value`, arrays of
    /// rows as tables headed by field name, then the expectation note.
    pub fn render(&self, v: &Value) -> String {
        let mut out = format!("\n=== Ablation — {} ({}) ===\n", self.title, self.artifact);
        let fields = v.as_object().cloned().unwrap_or_default();
        let is_table = |x: &Value| {
            x.as_array()
                .is_some_and(|a| a.iter().all(|r| r.as_object().is_some()))
        };
        for (key, x) in &fields {
            if !is_table(x) && key != "experiment" && key != "title" {
                out.push_str(&format!("{key}: {}\n", cell(x)));
            }
        }
        for (key, x) in fields.iter().filter(|(_, x)| is_table(x)) {
            out.push_str(&format!("{key}:\n{}", table(x.as_array().expect("table"))));
        }
        out.push_str(&format!(
            "expected: {}\n",
            self.expected.replace('\n', "\n          ")
        ));
        out
    }
}

/// One scalar as a table cell: `-` for null, strings bare, fractions to
/// four places (scientific below 1e-3).
fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".into(),
        Value::String(s) => s.clone(),
        Value::Number(x) if x.fract() != 0.0 && x.abs() < 1e-3 => format!("{x:.3e}"),
        Value::Number(x) if x.fract() != 0.0 => format!("{x:.4}"),
        other => other.to_string(),
    }
}

/// Rows as an aligned table, text columns first, then the rest by name.
fn table(rows: &[Value]) -> String {
    let empty = BTreeMap::new();
    let first = rows.first().and_then(Value::as_object).unwrap_or(&empty);
    let mut columns: Vec<&str> = first.keys().map(String::as_str).collect();
    columns.sort_by_key(|k| first[*k].as_str().is_none());
    let mut lines = vec![columns.iter().map(|c| c.to_string()).collect::<Vec<_>>()];
    lines.extend(
        rows.iter()
            .map(|r| columns.iter().map(|c| cell(&r[*c])).collect()),
    );
    let widths: Vec<usize> = (0..columns.len())
        .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
        .collect();
    let pad = |l: &Vec<String>| -> Vec<String> {
        l.iter()
            .zip(&widths)
            .map(|(s, w)| format!("{s:<w$}"))
            .collect()
    };
    lines
        .iter()
        .map(|l| format!("  {}\n", pad(l).join("  ").trim_end()))
        .collect()
}
