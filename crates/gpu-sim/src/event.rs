//! Trace events emitted by the simulator.
//!
//! Every simulated operation — kernel launch, host↔device transfer, peer
//! copy, synchronization, user range — appends a [`TraceEvent`] to the
//! device's [`EventRecorder`]. `sagegpu-profiler` consumes these streams to
//! build Nsight-Systems-style timelines, per-op statistics, and bottleneck
//! reports.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The kind of simulated operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A kernel execution.
    Kernel,
    /// Host-to-device transfer (cudaMemcpyHostToDevice).
    MemcpyH2D,
    /// Device-to-host transfer.
    MemcpyD2H,
    /// Device-to-device copy on the same GPU.
    MemcpyD2D,
    /// Peer-to-peer copy between GPUs.
    MemcpyP2P,
    /// A blocking synchronization point.
    Sync,
    /// A user-annotated NVTX-style range.
    Range,
}

impl EventKind {
    /// Human-readable label used in profiler tables.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Kernel => "kernel",
            EventKind::MemcpyH2D => "memcpy-h2d",
            EventKind::MemcpyD2H => "memcpy-d2h",
            EventKind::MemcpyD2D => "memcpy-d2d",
            EventKind::MemcpyP2P => "memcpy-p2p",
            EventKind::Sync => "sync",
            EventKind::Range => "range",
        }
    }

    /// Whether the event represents data movement.
    pub fn is_transfer(&self) -> bool {
        matches!(
            self,
            EventKind::MemcpyH2D
                | EventKind::MemcpyD2H
                | EventKind::MemcpyD2D
                | EventKind::MemcpyP2P
        )
    }
}

/// One entry on the simulated timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    pub kind: EventKind,
    /// Operation name (kernel name, transfer tag, or range label).
    pub name: String,
    /// Device the event executed on (0-based ordinal).
    pub device: u32,
    /// Stream ordinal within the device.
    pub stream: u32,
    /// Simulated start timestamp in nanoseconds.
    pub start_ns: u64,
    /// Simulated duration in nanoseconds.
    pub dur_ns: u64,
    /// Bytes moved (transfers) or touched (kernels); 0 when not applicable.
    pub bytes: u64,
    /// FLOPs performed (kernels); 0 otherwise.
    pub flops: u64,
    /// Achieved occupancy in `[0, 1]` for kernels; 0 otherwise.
    pub occupancy: f64,
    /// Whether the event was re-issued by a [`Graph`](crate::command::Graph)
    /// replay rather than submitted individually. Replayed kernel nodes
    /// carry no per-launch overhead (the graph launch pays it once), so the
    /// profiler excludes them from launch counting.
    pub graph: bool,
}

impl TraceEvent {
    /// Simulated end timestamp.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Thread-safe, shareable sink of trace events.
///
/// A recorder may be shared by several devices (a cluster records all its
/// GPUs into one timeline) and by the profiler.
#[derive(Debug, Clone, Default)]
pub struct EventRecorder {
    inner: Arc<Mutex<Vec<TraceEvent>>>,
}

impl EventRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn record(&self, ev: TraceEvent) {
        self.inner.lock().push(ev);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Snapshot of all events, sorted by start time (stable on ties).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut evs = self.inner.lock().clone();
        evs.sort_by_key(|e| (e.start_ns, e.device, e.stream));
        evs
    }

    /// Removes all recorded events.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, device: u32, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Kernel,
            name: name.into(),
            device,
            stream: 0,
            start_ns: start,
            dur_ns: dur,
            bytes: 0,
            flops: 0,
            occupancy: 0.5,
            graph: false,
        }
    }

    #[test]
    fn snapshot_sorts_by_start_time() {
        let rec = EventRecorder::new();
        rec.record(ev("b", 0, 100, 10));
        rec.record(ev("a", 0, 50, 10));
        let snap = rec.snapshot();
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[1].name, "b");
    }

    #[test]
    fn clear_empties_recorder() {
        let rec = EventRecorder::new();
        rec.record(ev("k", 0, 0, 1));
        assert!(!rec.is_empty());
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.len(), 0);
    }

    #[test]
    fn kind_labels_and_transfer_flags() {
        assert_eq!(EventKind::Kernel.label(), "kernel");
        assert!(EventKind::MemcpyH2D.is_transfer());
        assert!(EventKind::MemcpyP2P.is_transfer());
        assert!(!EventKind::Kernel.is_transfer());
        assert!(!EventKind::Sync.is_transfer());
    }
}
