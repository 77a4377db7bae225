//! # sagegpu-profiler — Nsight-style profiling over simulated GPU traces
//!
//! Week 4 of the reproduced course ("GPU Profiling Tools & Bottleneck
//! Analysis") teaches Nsight Systems and the PyTorch profiler; the paper
//! credits profiling with developing students' "critical thinking and
//! problem-solving skills … exposing performance bottlenecks and scaling
//! issues". This crate is the reproduction's profiler: it consumes the
//! [`gpu_sim::EventRecorder`] streams every simulated device emits and
//! produces the same artifacts the real tools do:
//!
//! - [`timeline::Timeline`] — per-device event lanes with gap/idle
//!   analysis and makespan (Nsight's timeline view).
//! - [`opstats::OpStatsTable`] — per-operation aggregate statistics
//!   (`nsys stats` / PyTorch profiler's `key_averages()`).
//! - [`bottleneck`] — classification of a run as compute-bound,
//!   transfer-bound, or idle-bound, with per-kernel roofline verdicts and
//!   the textual recommendations the labs ask students to derive.
//! - [`chrome_trace`] — Chrome `about:tracing` JSON export, the
//!   interchange format both real profilers speak: one
//!   [`ChromeTrace`](chrome_trace::ChromeTrace) document that takes GPU
//!   kernel/copy lanes (sim clock), the taskflow scheduler's per-attempt
//!   worker lanes (wall clock; retries, injected faults and steals all
//!   visible) and online-serving request lifecycles (queue wait →
//!   retrieve → generate, cache hits categorized), alone or merged, with
//!   every slice naming its clock.
//! - [`ingest`] — offline ingestion of recorded `gpu_sim::trace` artifacts:
//!   identity-replay a `TraceV1` file and run the same bottleneck analysis
//!   with no access to the originating workload.
//! - [`histogram`] — fixed-footprint log2-bucketed latency histograms for
//!   per-stage p50/p99 reporting under sustained serving load.
//! - [`roofline`] — roofline-model plot data: per-kernel (intensity,
//!   achieved FLOP/s) points against the device's compute and bandwidth
//!   roofs.

pub mod bottleneck;
pub mod chrome_trace;
pub mod histogram;
pub mod ingest;
pub mod opstats;
pub mod roofline;
pub mod timeline;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::bottleneck::{
        analyze, analyze_serving, analyze_with_residency, BottleneckClass, BottleneckReport,
        PoolSummary,
    };
    pub use crate::chrome_trace::{ChromeTrace, RequestSpan};
    pub use crate::histogram::Histogram;
    pub use crate::ingest::{ingest_trace, ingest_trace_file, TraceAnalysis};
    pub use crate::opstats::{OpStats, OpStatsTable};
    pub use crate::roofline::{roofline, Roofline, RooflinePoint};
    pub use crate::timeline::Timeline;
}
