//! Recording interposer and portable, replayable execution traces.
//!
//! Every charging operation in the simulator funnels through one of two
//! choke points: the [`Gpu::submit`]/[`Gpu::doorbell`] command path
//! (kernels, copies, event record/wait edges) or a handful of
//! cluster-level entry points (chunked/blocking collectives, barriers,
//! peer copies). This module taps both. A [`TraceSink`] attached with
//! [`Gpu::record_trace`] or
//! [`GpuCluster::record_trace`](crate::cluster::GpuCluster::record_trace)
//! mirrors each operation — with its *pricing inputs*, not just its
//! resolved cost — into a versioned, schema-checked artifact
//! ([`TraceV1`]) that serializes to JSON and is replayable *without the
//! originating workload*:
//!
//! - **identity replay** ([`replay`] with a default [`WhatIf`])
//!   reproduces the recorded simulated time, submission count, and
//!   kernel-launch count exactly — the deterministic perf-regression
//!   gate `scripts/check.sh` enforces against `tests/golden/`;
//! - **what-if replay** ([`WhatIf`] overrides) swaps the interconnect,
//!   GPU generation, topology, or comm-stream count and re-prices /
//!   re-schedules every recorded command on fresh devices, answering
//!   "what would this epoch cost on NVLink?" without rerunning GCN
//!   training or RAG serving (experiment A11).
//!
//! Two deliberate non-goals: graph-captured work is not recorded
//! ([`Graph::replay`](crate::command::Graph::replay) bypasses `submit`;
//! record with eager submission instead), and host-side computation is
//! invisible (the trace captures device-visible charges only).
//!
//! ## Canonical ordering
//!
//! Workers submit to their own devices concurrently, so raw arrival
//! order is not deterministic. The sink therefore keys every record with
//! `(phase, device, seq)`: cluster-level operations (which are
//! driver-serial) bump `phase`, per-device commands order by their
//! submission sequence number within a phase, and [`TraceV1::records`]
//! is the stable sort of those keys. Replaying the sorted records
//! device-by-device within each phase is equivalent to the original
//! interleaving because cross-device interaction happens only at the
//! phase-bumping cluster operations.

use crate::arch::{DeviceSpec, MemorySpec};
use crate::cluster::{LinkKind, Topology};
use crate::command::{CollectiveCommand, Command, CopyCommand, KernelCommand};
use crate::device::{Gpu, StreamId};
use crate::dim::Dim3;
use crate::event::{EventKind, EventRecorder, TraceEvent};
use crate::kernel::{AccessPattern, KernelPricing, KernelProfile, LaunchConfig};
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Schema version this module writes and the only one it reads.
pub const TRACE_VERSION: u64 = 1;

/// Errors raised while serializing, deserializing, or replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The artifact declares a schema version this build does not speak.
    Version {
        /// The `version` field found in the artifact.
        found: u64,
    },
    /// The input is not valid JSON.
    Parse { reason: String },
    /// The JSON is well-formed but violates the `TraceV1` schema.
    Schema { reason: String },
    /// Reading or writing the artifact file failed.
    Io { reason: String },
    /// The trace is structurally valid but cannot be replayed (e.g. a
    /// collective with no recorded topology, or a what-if device that
    /// rejects a recorded launch configuration).
    Replay { reason: String },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Version { found } => write!(
                f,
                "unsupported trace version {found} (this build reads version {TRACE_VERSION})"
            ),
            TraceError::Parse { reason } => write!(f, "trace is not valid JSON: {reason}"),
            TraceError::Schema { reason } => write!(f, "trace violates schema: {reason}"),
            TraceError::Io { reason } => write!(f, "trace I/O failed: {reason}"),
            TraceError::Replay { reason } => write!(f, "trace cannot be replayed: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

fn schema(reason: impl Into<String>) -> TraceError {
    TraceError::Schema {
        reason: reason.into(),
    }
}

fn replay_err(reason: impl Into<String>) -> TraceError {
    TraceError::Replay {
        reason: reason.into(),
    }
}

/// Direction of a recorded copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// Host to device over PCIe.
    H2d,
    /// Device to host over PCIe.
    D2h,
    /// Device-local copy through global memory.
    D2d,
}

impl CopyKind {
    /// The trace-event kind this copy retires as.
    pub fn event_kind(&self) -> EventKind {
        match self {
            CopyKind::H2d => EventKind::MemcpyH2D,
            CopyKind::D2h => EventKind::MemcpyD2H,
            CopyKind::D2d => EventKind::MemcpyD2D,
        }
    }

    fn from_event(kind: EventKind) -> Option<Self> {
        match kind {
            EventKind::MemcpyH2D => Some(CopyKind::H2d),
            EventKind::MemcpyD2H => Some(CopyKind::D2h),
            EventKind::MemcpyD2D => Some(CopyKind::D2d),
            _ => None,
        }
    }

    fn tag(&self) -> &'static str {
        match self {
            CopyKind::H2d => "h2d",
            CopyKind::D2h => "d2h",
            CopyKind::D2d => "d2d",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "h2d" => Some(CopyKind::H2d),
            "d2h" => Some(CopyKind::D2h),
            "d2d" => Some(CopyKind::D2d),
            _ => None,
        }
    }
}

/// Payload of one trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordBody {
    /// A kernel launch. `pricing` carries the roofline inputs so replay
    /// can re-derive `dur_ns` on a what-if device; without it the kernel
    /// replays at its recorded duration.
    Kernel {
        name: String,
        dur_ns: u64,
        bytes: u64,
        flops: u64,
        occupancy: f64,
        pricing: Option<KernelPricing>,
    },
    /// A host↔device or device-local copy; `bytes` + `kind` are the
    /// pricing inputs (link speed comes from the replay device).
    Copy {
        name: String,
        kind: CopyKind,
        dur_ns: u64,
        bytes: u64,
    },
    /// `cudaEventRecord` on the record's stream into `slot`.
    EventRecord { slot: u32 },
    /// `cudaStreamWaitEvent` on the record's stream for `slot`.
    EventWait { slot: u32 },
    /// A raw collective step submitted outside
    /// [`GpuCluster::all_reduce_chunked`](crate::cluster::GpuCluster::all_reduce_chunked)
    /// (rare; replays at recorded cost).
    CollectiveStep {
        name: String,
        dur_ns: u64,
        bytes: u64,
        not_before_ns: u64,
    },
    /// One *logical* chunked collective: replay regenerates its lockstep
    /// ring schedule from the (possibly overridden) topology. `ready_ns`
    /// are the recorded per-device payload-ready times; `gates[i]`, when
    /// present, names the event slot whose resolved value gated device
    /// `i`, letting replay recompute readiness under a what-if device.
    Collective {
        name: String,
        bytes: u64,
        channel: u32,
        ready_ns: Vec<u64>,
        gates: Vec<Option<u32>>,
    },
    /// Orders all devices after every collective issued since the last
    /// sync (`GpuCluster::advance_all_to`). `t_ns` is the recorded
    /// target, used only when no collective preceded it in the replay.
    CollectiveSync { t_ns: u64 },
    /// Cluster-wide clock alignment (`GpuCluster::barrier`).
    Barrier,
    /// `cudaDeviceSynchronize` across one device's streams
    /// (`Gpu::sync_streams`).
    StreamSync,
    /// A blocking all-reduce priced from topology
    /// (`GpuCluster::all_reduce_cost`).
    BlockingAllReduce { bytes: u64 },
    /// A peer copy between two devices (`GpuCluster::p2p`).
    P2p { src: u32, dst: u32, bytes: u64 },
}

impl RecordBody {
    fn op(&self) -> &'static str {
        match self {
            RecordBody::Kernel { .. } => "kernel",
            RecordBody::Copy { .. } => "copy",
            RecordBody::EventRecord { .. } => "event_record",
            RecordBody::EventWait { .. } => "event_wait",
            RecordBody::CollectiveStep { .. } => "collective_step",
            RecordBody::Collective { .. } => "collective",
            RecordBody::CollectiveSync { .. } => "collective_sync",
            RecordBody::Barrier => "barrier",
            RecordBody::StreamSync => "stream_sync",
            RecordBody::BlockingAllReduce { .. } => "blocking_all_reduce",
            RecordBody::P2p { .. } => "p2p",
        }
    }
}

/// One recorded operation, in canonical order within [`TraceV1::records`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Device the operation targeted (0 for cluster-wide operations).
    pub device: u32,
    /// Stream ordinal the operation targeted (0 when not stream-bound).
    pub stream: u32,
    /// What happened.
    pub body: RecordBody,
}

/// Static description of one recorded device.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDevice {
    /// Device ordinal (0-based).
    pub ordinal: u32,
    /// Number of streams that existed when recording finished (replay
    /// recreates them up front; streams are independent, so early
    /// creation does not perturb timing).
    pub streams: u32,
    /// Full architecture description, so replay needs no registry.
    pub spec: DeviceSpec,
}

/// A portable, versioned execution trace (schema version 1).
///
/// The artifact is self-contained: device specs, topology, and per-command
/// pricing inputs travel with it, so [`replay`] needs nothing but the
/// trace. Unknown JSON fields are ignored on read (forward compatibility);
/// a different `version` is a typed [`TraceError::Version`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceV1 {
    /// Free-form workload label (e.g. `"gcn-epoch"`).
    pub workload: String,
    /// Comm channels per device at record time.
    pub comm_channels: u32,
    /// Interconnect shape, when recorded on a cluster.
    pub topology: Option<Topology>,
    /// Makespan at [`finish`](TraceSink::finish) time (max device clock).
    pub sim_time_ns: u64,
    /// Total kernel launches across devices at finish time.
    pub kernel_launches: u64,
    /// Recorded devices, ordered by ordinal.
    pub devices: Vec<TraceDevice>,
    /// Recorded operations in canonical `(phase, device, seq)` order.
    pub records: Vec<TraceRecord>,
}

impl TraceV1 {
    /// Number of recorded operations (the gate's submission-count metric;
    /// one logical collective counts once).
    pub fn submissions(&self) -> u64 {
        self.records.len() as u64
    }

    /// Serializes the trace to its JSON artifact form.
    pub fn to_json(&self) -> String {
        let json = serde_json::to_string_pretty(&trace_to_value(self))
            .expect("writing a JSON value cannot fail");
        json + "\n"
    }

    /// Parses a JSON artifact, checking `version` before anything else.
    pub fn from_json(input: &str) -> Result<Self, TraceError> {
        let v = serde_json::from_str(input).map_err(|e| TraceError::Parse {
            reason: e.to_string(),
        })?;
        parse_trace(&v)
    }

    /// Writes the JSON artifact to `path`.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        std::fs::write(path.as_ref(), self.to_json()).map_err(|e| TraceError::Io {
            reason: format!("{}: {e}", path.as_ref().display()),
        })
    }

    /// Reads and parses the JSON artifact at `path`.
    pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| TraceError::Io {
            reason: format!("{}: {e}", path.as_ref().display()),
        })?;
        Self::from_json(&text)
    }
}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

type SortKey = (u64, u32, u64, u64);

#[derive(Debug, Default)]
struct SinkState {
    /// Bumped around cluster-level (driver-serial) operations.
    phase: u64,
    /// Global arrival counter, the final tie-breaker.
    tick: u64,
    /// While positive, per-command records are dropped (a cluster op is
    /// recording itself as one logical record instead).
    suppress: u32,
    entries: Vec<(SortKey, TraceRecord)>,
}

/// Thread-safe recording sink shared by every device of a workload.
///
/// Created by [`Gpu::record_trace`] /
/// [`GpuCluster::record_trace`](crate::cluster::GpuCluster::record_trace);
/// consumed by [`Gpu::finish_trace`] /
/// [`GpuCluster::finish_trace`](crate::cluster::GpuCluster::finish_trace).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<SinkState>>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records captured so far.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push_suppress(&self) {
        self.inner.lock().suppress += 1;
    }

    pub(crate) fn pop_suppress(&self) {
        let mut st = self.inner.lock();
        st.suppress = st.suppress.saturating_sub(1);
    }

    /// Mirrors one submitted command (called from [`Gpu::submit`] with
    /// the command-processor lock held; this sink lock is a leaf).
    pub(crate) fn record_submission(&self, device: u32, stream: u32, seq: u64, cmd: &Command) {
        let body = match cmd {
            Command::Kernel(k) => RecordBody::Kernel {
                name: k.name.clone(),
                dur_ns: k.dur_ns,
                bytes: k.bytes,
                flops: k.flops,
                occupancy: k.occupancy,
                pricing: k.pricing,
            },
            Command::Copy(c) => match CopyKind::from_event(c.kind) {
                Some(kind) => RecordBody::Copy {
                    name: c.name.clone(),
                    kind,
                    dur_ns: c.dur_ns,
                    bytes: c.bytes,
                },
                None => return, // not a chargeable direction; nothing to replay
            },
            Command::EventRecord { event } => RecordBody::EventRecord { slot: event.0 },
            Command::EventWait { event } => RecordBody::EventWait { slot: event.0 },
            Command::Collective(c) => RecordBody::CollectiveStep {
                name: c.name.clone(),
                dur_ns: c.dur_ns,
                bytes: c.bytes,
                not_before_ns: c.not_before_ns,
            },
        };
        let mut st = self.inner.lock();
        if st.suppress > 0 {
            return;
        }
        st.tick += 1;
        let key = (st.phase, device, seq, st.tick);
        st.entries.push((
            key,
            TraceRecord {
                device,
                stream,
                body,
            },
        ));
    }

    /// Records a device-scoped non-command operation (stream sync),
    /// ordered at the device's current submission frontier.
    pub(crate) fn record_device(&self, device: u32, seq: u64, body: RecordBody) {
        let mut st = self.inner.lock();
        if st.suppress > 0 {
            return;
        }
        st.tick += 1;
        let key = (st.phase, device, seq, st.tick);
        st.entries.push((
            key,
            TraceRecord {
                device,
                stream: 0,
                body,
            },
        ));
    }

    /// Records a cluster-wide (driver-serial) operation, fencing the
    /// per-device records before it from those after it.
    pub(crate) fn record_global(&self, body: RecordBody) {
        let mut st = self.inner.lock();
        if st.suppress > 0 {
            return;
        }
        st.tick += 1;
        st.phase += 1;
        let key = (st.phase, 0, 0, st.tick);
        st.phase += 1;
        st.entries.push((
            key,
            TraceRecord {
                device: 0,
                stream: 0,
                body,
            },
        ));
    }

    /// Assembles the portable artifact: sorts records into canonical
    /// order, back-matches each collective's ready times to the event
    /// slots that produced them (so what-if replay can recompute
    /// readiness), and snapshots device state.
    pub fn finish(
        &self,
        devices: &[&Gpu],
        topology: Option<Topology>,
        comm_channels: u32,
        workload: &str,
    ) -> TraceV1 {
        let mut entries = std::mem::take(&mut self.inner.lock().entries);
        entries.sort_by_key(|e| e.0);
        let mut records: Vec<TraceRecord> = entries.into_iter().map(|(_, r)| r).collect();

        // Gate back-matching: a collective's ready_ns[i] usually *is* the
        // resolved value of an event the workload recorded on device i
        // (the gradient-ready mark). Bind the latest earlier matching
        // slot so replay can re-derive readiness under a what-if device.
        for i in 0..records.len() {
            let (ready, n) = match &records[i].body {
                RecordBody::Collective { ready_ns, .. } => (ready_ns.clone(), ready_ns.len()),
                _ => continue,
            };
            let mut gates: Vec<Option<u32>> = vec![None; n];
            for (d, &r) in ready.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                let Some(gpu) = devices.iter().find(|g| g.ordinal() as usize == d) else {
                    continue;
                };
                for rec in records[..i].iter() {
                    if rec.device as usize != d {
                        continue;
                    }
                    if let RecordBody::EventRecord { slot } = rec.body {
                        if gpu.cmd_event_ns(crate::command::CmdEvent(slot)) == Some(r) {
                            gates[d] = Some(slot);
                        }
                    }
                }
            }
            if let RecordBody::Collective { gates: g, .. } = &mut records[i].body {
                *g = gates;
            }
        }

        let mut trace_devices: Vec<TraceDevice> = devices
            .iter()
            .map(|g| TraceDevice {
                ordinal: g.ordinal(),
                streams: g.stream_count() as u32,
                spec: g.spec().clone(),
            })
            .collect();
        trace_devices.sort_by_key(|d| d.ordinal);
        TraceV1 {
            workload: workload.to_owned(),
            comm_channels,
            topology,
            sim_time_ns: devices.iter().map(|g| g.now_ns()).max().unwrap_or(0),
            kernel_launches: devices.iter().map(|g| g.kernels_launched()).sum(),
            devices: trace_devices,
            records,
        }
    }
}

impl Gpu {
    /// Starts mirroring every submission on this device into a fresh
    /// [`TraceSink`]; returns the sink (attach it to further devices
    /// with [`Gpu::attach_trace_sink`] to record a multi-device
    /// workload, or use
    /// [`GpuCluster::record_trace`](crate::cluster::GpuCluster::record_trace)).
    pub fn record_trace(&self) -> TraceSink {
        let sink = TraceSink::new();
        self.attach_trace_sink(sink.clone());
        sink
    }

    /// Stops recording on this device and assembles the portable trace.
    /// Returns `None` when no sink was attached.
    pub fn finish_trace(&self, workload: &str) -> Option<TraceV1> {
        let sink = self.detach_trace_sink()?;
        Some(sink.finish(&[self], None, 0, workload))
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// Overrides applied by [`replay`]. `Default` is the identity replay.
#[derive(Debug, Clone, Default)]
pub struct WhatIf {
    /// Replace the interconnect with a flat topology on this link
    /// (shorthand for `topology: Some(Topology::Flat(link))`).
    pub link: Option<LinkKind>,
    /// Replace every device's architecture; kernels carrying pricing
    /// inputs and all copies are re-priced on it.
    pub gpu_profile: Option<DeviceSpec>,
    /// Number of comm channels collectives round-robin over (recorded
    /// channel assignment otherwise).
    pub streams: Option<u32>,
    /// Replace the full interconnect topology (wins over `link`).
    pub topology: Option<Topology>,
}

impl WhatIf {
    /// Effective topology for collective pricing, if any.
    fn topology(&self, recorded: Option<Topology>) -> Option<Topology> {
        self.topology.or(self.link.map(Topology::Flat)).or(recorded)
    }
}

/// Outcome of one [`replay`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Makespan across replayed devices.
    pub sim_time_ns: u64,
    /// Trace records processed (mirrors [`TraceV1::submissions`]).
    pub submissions: u64,
    /// Kernel launches counted by the replay devices.
    pub kernel_launches: u64,
    /// Final clock per device, ordinal order.
    pub per_device_ns: Vec<u64>,
    /// Resolved timestamp of every replayed `EventRecord`, record order.
    pub event_ns: Vec<u64>,
    /// The replayed timeline (feed to the profiler for bottleneck /
    /// exposed-communication analysis of the replayed schedule).
    pub events: Vec<TraceEvent>,
}

/// Re-prices and re-schedules a recorded trace on fresh devices,
/// optionally under [`WhatIf`] overrides. With no overrides this is the
/// identity replay: it reproduces the recorded `sim_time_ns`,
/// submission count, and kernel-launch count exactly.
pub fn replay(trace: &TraceV1, whatif: &WhatIf) -> Result<ReplayReport, TraceError> {
    if trace.devices.is_empty() {
        return Err(replay_err("trace describes no devices"));
    }
    let recorder = EventRecorder::new();
    let topo = whatif.topology(trace.topology);
    let mut ordinal_to_idx: HashMap<u32, usize> = HashMap::new();
    let mut gpus: Vec<Gpu> = Vec::with_capacity(trace.devices.len());
    for (idx, td) in trace.devices.iter().enumerate() {
        let spec = whatif
            .gpu_profile
            .clone()
            .unwrap_or_else(|| td.spec.clone());
        let g = Gpu::with_recorder(td.ordinal, spec, recorder.clone());
        for _ in 1..td.streams.max(1) {
            g.create_stream();
        }
        ordinal_to_idx.insert(td.ordinal, idx);
        gpus.push(g);
    }
    let n = gpus.len();
    let dev = |ordinal: u32| -> Result<&Gpu, TraceError> {
        ordinal_to_idx
            .get(&ordinal)
            .map(|&i| &gpus[i])
            .ok_or_else(|| replay_err(format!("record references unknown device {ordinal}")))
    };
    // Recorded event slots are per-device templates; allocate fresh
    // slots on first sight.
    let mut slots: HashMap<(u32, u32), crate::command::CmdEvent> = HashMap::new();
    let mut event_ns: Vec<u64> = Vec::new();
    let mut event_refs: Vec<(u32, crate::command::CmdEvent)> = Vec::new();
    let mut collective_idx: u64 = 0;
    // Max end of the collectives issued since the last CollectiveSync.
    let mut pending_comm_end: Option<u64> = None;

    for rec in &trace.records {
        match &rec.body {
            RecordBody::Kernel {
                name,
                dur_ns,
                bytes,
                flops,
                occupancy,
                pricing,
            } => {
                let g = dev(rec.device)?;
                ensure_stream(g, rec.stream);
                let (dur, occ) = match pricing {
                    Some(p) => {
                        let (d, o) = g.kernel_duration_ns(&p.cfg, &p.profile).map_err(|e| {
                            replay_err(format!("kernel '{name}' rejected by replay device: {e}"))
                        })?;
                        (d, o.occupancy)
                    }
                    None => (*dur_ns, *occupancy),
                };
                g.submit(
                    StreamId(rec.stream),
                    Command::Kernel(KernelCommand {
                        name: name.clone(),
                        dur_ns: dur,
                        bytes: *bytes,
                        flops: *flops,
                        occupancy: occ,
                        graph: false,
                        pricing: *pricing,
                    }),
                );
                doorbell(g)?;
            }
            RecordBody::Copy {
                name,
                kind,
                dur_ns,
                bytes,
            } => {
                let g = dev(rec.device)?;
                ensure_stream(g, rec.stream);
                // Re-price only under a device override; the recorded
                // duration is otherwise authoritative (that is what the
                // regression gate diffs).
                let dur = if whatif.gpu_profile.is_some() {
                    copy_cost_ns(g.spec(), *kind, *bytes)
                } else {
                    *dur_ns
                };
                g.submit(
                    StreamId(rec.stream),
                    Command::Copy(CopyCommand {
                        name: name.clone(),
                        kind: kind.event_kind(),
                        dur_ns: dur,
                        bytes: *bytes,
                        graph: false,
                    }),
                );
                doorbell(g)?;
            }
            RecordBody::EventRecord { slot } => {
                let g = dev(rec.device)?;
                ensure_stream(g, rec.stream);
                let fresh = g.create_cmd_event();
                slots.insert((rec.device, *slot), fresh);
                g.submit(StreamId(rec.stream), Command::EventRecord { event: fresh });
                doorbell(g)?;
                event_refs.push((rec.device, fresh));
            }
            RecordBody::EventWait { slot } => {
                let g = dev(rec.device)?;
                ensure_stream(g, rec.stream);
                let fresh = *slots.get(&(rec.device, *slot)).ok_or_else(|| {
                    replay_err(format!(
                        "device {} waits on slot {slot} never recorded in the trace",
                        rec.device
                    ))
                })?;
                g.submit(StreamId(rec.stream), Command::EventWait { event: fresh });
                doorbell(g)?;
            }
            RecordBody::CollectiveStep {
                name,
                dur_ns,
                bytes,
                not_before_ns,
            } => {
                let g = dev(rec.device)?;
                ensure_stream(g, rec.stream);
                g.submit(
                    StreamId(rec.stream),
                    Command::Collective(CollectiveCommand {
                        name: name.clone(),
                        dur_ns: *dur_ns,
                        bytes: *bytes,
                        not_before_ns: *not_before_ns,
                    }),
                );
                doorbell(g)?;
            }
            RecordBody::Collective {
                name,
                bytes,
                channel,
                ready_ns,
                gates,
            } => {
                if n <= 1 {
                    collective_idx += 1;
                    continue;
                }
                let topo = topo.ok_or_else(|| {
                    replay_err(format!("collective '{name}' but the trace has no topology"))
                })?;
                let phases = topo.all_reduce_phases(n, *bytes);
                let ch = match whatif.streams {
                    Some(s) => (collective_idx % u64::from(s.max(1))) as u32,
                    None => *channel,
                };
                collective_idx += 1;
                // Comm channel `ch` lives on stream ordinal 1 + ch (the
                // cluster creates its comm streams first); grow devices
                // that never saw that many streams (stream-count what-if).
                let comm = 1 + ch;
                let mut start = 0u64;
                for (i, g) in gpus.iter().enumerate() {
                    ensure_stream(g, comm);
                    let bound = gates
                        .get(i)
                        .copied()
                        .flatten()
                        .and_then(|slot| slots.get(&(g.ordinal(), slot)))
                        .and_then(|ev| g.cmd_event_ns(*ev))
                        .unwrap_or_else(|| ready_ns.get(i).copied().unwrap_or(0));
                    start = start.max(g.stream_time(StreamId(comm)).max(bound));
                }
                let mut end = start;
                for g in &gpus {
                    let mut s = 0u64;
                    for p in &phases {
                        for _ in 0..p.steps {
                            g.submit(
                                StreamId(comm),
                                Command::Collective(CollectiveCommand {
                                    name: p.tag.step_name(name, s),
                                    dur_ns: p.step_dur,
                                    bytes: p.chunk,
                                    not_before_ns: start,
                                }),
                            );
                            s += 1;
                        }
                    }
                    doorbell(g)?;
                    end = end.max(g.stream_time(StreamId(comm)));
                }
                pending_comm_end = Some(pending_comm_end.unwrap_or(0).max(end));
            }
            RecordBody::CollectiveSync { t_ns } => {
                let t = pending_comm_end.take().unwrap_or(*t_ns);
                for g in &gpus {
                    g.advance_to(t);
                }
            }
            RecordBody::Barrier => {
                let t = gpus.iter().map(|g| g.now_ns()).max().unwrap_or(0);
                for g in &gpus {
                    g.advance_to(t);
                }
            }
            RecordBody::StreamSync => {
                dev(rec.device)?.sync_streams();
            }
            RecordBody::BlockingAllReduce { bytes } => {
                if n <= 1 {
                    continue;
                }
                let topo = topo.ok_or_else(|| {
                    replay_err("blocking all-reduce but the trace has no topology")
                })?;
                let phases = topo.all_reduce_phases(n, *bytes);
                let dur: u64 = phases.iter().map(|p| p.steps * p.step_dur).sum();
                let per_dev_bytes: u64 = phases.iter().map(|p| p.steps * p.chunk).sum();
                let start = gpus.iter().map(|g| g.now_ns()).max().unwrap_or(0);
                for g in &gpus {
                    g.advance_to(start + dur);
                    recorder.record(TraceEvent {
                        kind: EventKind::MemcpyP2P,
                        name: "all-reduce".to_owned(),
                        device: g.ordinal(),
                        stream: 0,
                        start_ns: start,
                        dur_ns: dur,
                        bytes: per_dev_bytes,
                        flops: 0,
                        occupancy: 0.0,
                        graph: false,
                    });
                }
            }
            RecordBody::P2p { src, dst, bytes } => {
                let topo =
                    topo.ok_or_else(|| replay_err("p2p copy but the trace has no topology"))?;
                let sg = dev(*src)?;
                let dg = dev(*dst)?;
                let dur = topo
                    .link_between(*src as usize, *dst as usize)
                    .step_ns(*bytes);
                let start = sg.now_ns().max(dg.now_ns());
                sg.advance_to(start + dur);
                dg.advance_to(start + dur);
                recorder.record(TraceEvent {
                    kind: EventKind::MemcpyP2P,
                    name: format!("p2p {}->{}", src, dst),
                    device: *src,
                    stream: 0,
                    start_ns: start,
                    dur_ns: dur,
                    bytes: *bytes,
                    flops: 0,
                    occupancy: 0.0,
                    graph: false,
                });
            }
        }
    }
    for g in &gpus {
        doorbell(g)?;
    }
    for (d, ev) in &event_refs {
        let g = dev(*d)?;
        event_ns.push(g.cmd_event_ns(*ev).unwrap_or(0));
    }
    let per_device_ns: Vec<u64> = gpus.iter().map(|g| g.now_ns()).collect();
    Ok(ReplayReport {
        sim_time_ns: per_device_ns.iter().copied().max().unwrap_or(0),
        submissions: trace.records.len() as u64,
        kernel_launches: gpus.iter().map(|g| g.kernels_launched()).sum(),
        per_device_ns,
        event_ns,
        events: recorder.snapshot(),
    })
}

fn doorbell(g: &Gpu) -> Result<(), TraceError> {
    g.doorbell()
        .map_err(|e| replay_err(format!("device {} stalled: {e}", g.ordinal())))
}

fn ensure_stream(g: &Gpu, ordinal: u32) {
    while (g.stream_count() as u32) <= ordinal {
        g.create_stream();
    }
}

/// Copy cost on `spec`: PCIe for host transfers, global-memory for
/// device-local copies — the same formulas the eager entry points use.
fn copy_cost_ns(spec: &DeviceSpec, kind: CopyKind, bytes: u64) -> u64 {
    match kind {
        CopyKind::H2d | CopyKind::D2h => (spec.pcie_latency_ns
            + bytes as f64 / spec.pcie_bandwidth_bytes_per_sec * 1e9)
            .ceil() as u64,
        CopyKind::D2d => (spec.memory.latency_ns
            + bytes as f64 / spec.memory.bandwidth_bytes_per_sec * 1e9)
            .ceil() as u64,
    }
}

// ---------------------------------------------------------------------
// JSON form: each `*_to_value` writer sits beside the `parse_*` reader it
// inverts. Numbers go through `f64` both ways; Rust's shortest round-trip
// float formatting makes the read-back bit-identical.
// ---------------------------------------------------------------------

fn link_tag(l: LinkKind) -> &'static str {
    match l {
        LinkKind::Pcie => "pcie",
        LinkKind::NvLink => "nvlink",
        LinkKind::Ethernet => "ethernet",
    }
}

fn link_from_tag(tag: &str) -> Option<LinkKind> {
    match tag {
        "pcie" => Some(LinkKind::Pcie),
        "nvlink" => Some(LinkKind::NvLink),
        "ethernet" => Some(LinkKind::Ethernet),
        _ => None,
    }
}

fn access_tag(a: AccessPattern) -> &'static str {
    match a {
        AccessPattern::Coalesced => "coalesced",
        AccessPattern::Strided => "strided",
        AccessPattern::Random => "random",
    }
}

fn access_from_tag(tag: &str) -> Option<AccessPattern> {
    match tag {
        "coalesced" => Some(AccessPattern::Coalesced),
        "strided" => Some(AccessPattern::Strided),
        "random" => Some(AccessPattern::Random),
        _ => None,
    }
}

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, TraceError> {
    v.get(key)
        .ok_or_else(|| schema(format!("missing field '{key}'")))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, TraceError> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| schema(format!("field '{key}' must be a non-negative integer")))
}

fn req_u32(v: &Value, key: &str) -> Result<u32, TraceError> {
    Ok(req_u64(v, key)? as u32)
}

fn req_f64(v: &Value, key: &str) -> Result<f64, TraceError> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| schema(format!("field '{key}' must be a number")))
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, TraceError> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| schema(format!("field '{key}' must be a string")))
}

/// `v[key]` as an array, each entry read by `entry` (`None` rejects it).
fn req_array<T>(
    v: &Value,
    key: &str,
    entry: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, TraceError> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| schema(format!("field '{key}' must be an array")))?
        .iter()
        .map(|x| entry(x).ok_or_else(|| schema(format!("field '{key}' has an invalid entry"))))
        .collect()
}

fn parse_link(v: &Value, key: &str) -> Result<LinkKind, TraceError> {
    let tag = req_str(v, key)?;
    link_from_tag(tag).ok_or_else(|| schema(format!("unknown link kind '{tag}'")))
}

fn topology_to_value(t: &Option<Topology>) -> Value {
    match t {
        None => Value::Null,
        Some(Topology::Flat(link)) => json!({ "kind": "flat", "link": link_tag(*link) }),
        Some(Topology::TwoTier {
            island,
            intra,
            inter,
        }) => json!({
            "kind": "two_tier",
            "island": *island,
            "intra": link_tag(*intra),
            "inter": link_tag(*inter),
        }),
    }
}

fn parse_topology(v: &Value) -> Result<Option<Topology>, TraceError> {
    if v.is_null() {
        return Ok(None);
    }
    match req_str(v, "kind")? {
        "flat" => Ok(Some(Topology::Flat(parse_link(v, "link")?))),
        "two_tier" => Ok(Some(Topology::TwoTier {
            island: req_u64(v, "island")? as usize,
            intra: parse_link(v, "intra")?,
            inter: parse_link(v, "inter")?,
        })),
        other => Err(schema(format!("unknown topology kind '{other}'"))),
    }
}

fn dim_to_value(d: Dim3) -> Value {
    json!(vec![d.x, d.y, d.z])
}

fn parse_dim(v: &Value, key: &str) -> Result<Dim3, TraceError> {
    match req_array(v, key, |x| x.as_u64().map(|x| x as u32))?[..] {
        [x, y, z] => Ok(Dim3 { x, y, z }),
        _ => Err(schema(format!("field '{key}' must be a [x,y,z] array"))),
    }
}

fn spec_to_value(s: &DeviceSpec) -> Value {
    json!({
        "name": s.name.as_str(),
        "sm_count": s.sm_count,
        "cores_per_sm": s.cores_per_sm,
        "warp_size": s.warp_size,
        "clock_ghz": s.clock_ghz,
        "max_threads_per_sm": s.max_threads_per_sm,
        "max_blocks_per_sm": s.max_blocks_per_sm,
        "max_threads_per_block": s.max_threads_per_block,
        "shared_mem_per_sm": s.shared_mem_per_sm,
        "registers_per_sm": s.registers_per_sm,
        "memory": json!({
            "capacity_bytes": s.memory.capacity_bytes,
            "bandwidth_bytes_per_sec": s.memory.bandwidth_bytes_per_sec,
            "latency_ns": s.memory.latency_ns,
        }),
        "pcie_bandwidth_bytes_per_sec": s.pcie_bandwidth_bytes_per_sec,
        "pcie_latency_ns": s.pcie_latency_ns,
        "launch_overhead_ns": s.launch_overhead_ns,
    })
}

fn parse_spec(v: &Value) -> Result<DeviceSpec, TraceError> {
    let mem = req(v, "memory")?;
    Ok(DeviceSpec {
        name: req_str(v, "name")?.to_owned(),
        sm_count: req_u32(v, "sm_count")?,
        cores_per_sm: req_u32(v, "cores_per_sm")?,
        warp_size: req_u32(v, "warp_size")?,
        clock_ghz: req_f64(v, "clock_ghz")?,
        max_threads_per_sm: req_u32(v, "max_threads_per_sm")?,
        max_blocks_per_sm: req_u32(v, "max_blocks_per_sm")?,
        max_threads_per_block: req_u32(v, "max_threads_per_block")?,
        shared_mem_per_sm: req_u32(v, "shared_mem_per_sm")?,
        registers_per_sm: req_u32(v, "registers_per_sm")?,
        memory: MemorySpec {
            capacity_bytes: req_u64(mem, "capacity_bytes")?,
            bandwidth_bytes_per_sec: req_f64(mem, "bandwidth_bytes_per_sec")?,
            latency_ns: req_f64(mem, "latency_ns")?,
        },
        pcie_bandwidth_bytes_per_sec: req_f64(v, "pcie_bandwidth_bytes_per_sec")?,
        pcie_latency_ns: req_f64(v, "pcie_latency_ns")?,
        launch_overhead_ns: req_f64(v, "launch_overhead_ns")?,
    })
}

fn pricing_to_value(p: &KernelPricing) -> Value {
    json!({
        "grid": dim_to_value(p.cfg.grid),
        "block": dim_to_value(p.cfg.block),
        "shared_mem_bytes": p.cfg.shared_mem_bytes,
        "flops": p.profile.flops,
        "bytes": p.profile.bytes,
        "access": access_tag(p.profile.access),
        "registers_per_thread": p.profile.registers_per_thread,
    })
}

fn parse_pricing(v: &Value) -> Result<KernelPricing, TraceError> {
    let access_tag = req_str(v, "access")?;
    Ok(KernelPricing {
        cfg: LaunchConfig {
            grid: parse_dim(v, "grid")?,
            block: parse_dim(v, "block")?,
            shared_mem_bytes: req_u32(v, "shared_mem_bytes")?,
        },
        profile: KernelProfile {
            flops: req_u64(v, "flops")?,
            bytes: req_u64(v, "bytes")?,
            access: access_from_tag(access_tag)
                .ok_or_else(|| schema(format!("unknown access pattern '{access_tag}'")))?,
            registers_per_thread: req_u32(v, "registers_per_thread")?,
        },
    })
}

/// The body's members plus `op`, `device` and `stream`; a kernel without
/// pricing omits the `pricing` key.
fn record_to_value(r: &TraceRecord) -> Value {
    let body = match &r.body {
        RecordBody::Kernel {
            name,
            dur_ns,
            bytes,
            flops,
            occupancy,
            pricing,
        } => {
            let mut kernel = json!({
                "name": name.as_str(),
                "dur_ns": *dur_ns,
                "bytes": *bytes,
                "flops": *flops,
                "occupancy": *occupancy,
            });
            if let (Value::Object(members), Some(p)) = (&mut kernel, pricing) {
                members.insert("pricing".into(), pricing_to_value(p));
            }
            kernel
        }
        RecordBody::Copy {
            name,
            kind,
            dur_ns,
            bytes,
        } => json!({
            "name": name.as_str(),
            "kind": kind.tag(),
            "dur_ns": *dur_ns,
            "bytes": *bytes,
        }),
        RecordBody::EventRecord { slot } | RecordBody::EventWait { slot } => {
            json!({ "slot": *slot })
        }
        RecordBody::CollectiveStep {
            name,
            dur_ns,
            bytes,
            not_before_ns,
        } => json!({
            "name": name.as_str(),
            "dur_ns": *dur_ns,
            "bytes": *bytes,
            "not_before_ns": *not_before_ns,
        }),
        RecordBody::Collective {
            name,
            bytes,
            channel,
            ready_ns,
            gates,
        } => json!({
            "name": name.as_str(),
            "bytes": *bytes,
            "channel": *channel,
            "ready_ns": ready_ns.clone(),
            "gates": gates.clone(),
        }),
        RecordBody::CollectiveSync { t_ns } => json!({ "t_ns": *t_ns }),
        RecordBody::Barrier | RecordBody::StreamSync => json!({}),
        RecordBody::BlockingAllReduce { bytes } => json!({ "bytes": *bytes }),
        RecordBody::P2p { src, dst, bytes } => {
            json!({ "src": *src, "dst": *dst, "bytes": *bytes })
        }
    };
    let Value::Object(mut members) = body else {
        unreachable!("every record body is a JSON object")
    };
    members.insert("op".into(), json!(r.body.op()));
    members.insert("device".into(), json!(r.device));
    members.insert("stream".into(), json!(r.stream));
    Value::Object(members)
}

fn parse_record(v: &Value) -> Result<TraceRecord, TraceError> {
    let op = req_str(v, "op")?;
    let device = req_u32(v, "device")?;
    let stream = req_u32(v, "stream")?;
    let body = match op {
        "kernel" => RecordBody::Kernel {
            name: req_str(v, "name")?.to_owned(),
            dur_ns: req_u64(v, "dur_ns")?,
            bytes: req_u64(v, "bytes")?,
            flops: req_u64(v, "flops")?,
            occupancy: req_f64(v, "occupancy")?,
            pricing: match v.get("pricing") {
                Some(p) if !p.is_null() => Some(parse_pricing(p)?),
                _ => None,
            },
        },
        "copy" => {
            let tag = req_str(v, "kind")?;
            RecordBody::Copy {
                name: req_str(v, "name")?.to_owned(),
                kind: CopyKind::from_tag(tag)
                    .ok_or_else(|| schema(format!("unknown copy kind '{tag}'")))?,
                dur_ns: req_u64(v, "dur_ns")?,
                bytes: req_u64(v, "bytes")?,
            }
        }
        "event_record" => RecordBody::EventRecord {
            slot: req_u32(v, "slot")?,
        },
        "event_wait" => RecordBody::EventWait {
            slot: req_u32(v, "slot")?,
        },
        "collective_step" => RecordBody::CollectiveStep {
            name: req_str(v, "name")?.to_owned(),
            dur_ns: req_u64(v, "dur_ns")?,
            bytes: req_u64(v, "bytes")?,
            not_before_ns: req_u64(v, "not_before_ns")?,
        },
        "collective" => RecordBody::Collective {
            name: req_str(v, "name")?.to_owned(),
            bytes: req_u64(v, "bytes")?,
            channel: req_u32(v, "channel")?,
            ready_ns: req_array(v, "ready_ns", Value::as_u64)?,
            gates: req_array(v, "gates", |x| match x {
                Value::Null => Some(None),
                x => x.as_u64().map(|slot| Some(slot as u32)),
            })?,
        },
        "collective_sync" => RecordBody::CollectiveSync {
            t_ns: req_u64(v, "t_ns")?,
        },
        "barrier" => RecordBody::Barrier,
        "stream_sync" => RecordBody::StreamSync,
        "blocking_all_reduce" => RecordBody::BlockingAllReduce {
            bytes: req_u64(v, "bytes")?,
        },
        "p2p" => RecordBody::P2p {
            src: req_u32(v, "src")?,
            dst: req_u32(v, "dst")?,
            bytes: req_u64(v, "bytes")?,
        },
        other => return Err(schema(format!("unknown record op '{other}'"))),
    };
    Ok(TraceRecord {
        device,
        stream,
        body,
    })
}

fn trace_to_value(t: &TraceV1) -> Value {
    let devices: Vec<Value> = t
        .devices
        .iter()
        .map(|d| {
            json!({
                "ordinal": d.ordinal,
                "streams": d.streams,
                "spec": spec_to_value(&d.spec),
            })
        })
        .collect();
    json!({
        "version": TRACE_VERSION,
        "workload": t.workload.as_str(),
        "comm_channels": t.comm_channels,
        "topology": topology_to_value(&t.topology),
        "sim_time_ns": t.sim_time_ns,
        "kernel_launches": t.kernel_launches,
        "devices": devices,
        "records": t.records.iter().map(record_to_value).collect::<Vec<_>>(),
    })
}

fn parse_trace(v: &Value) -> Result<TraceV1, TraceError> {
    let version = req_u64(v, "version")?;
    if version != TRACE_VERSION {
        return Err(TraceError::Version { found: version });
    }
    let devices = req(v, "devices")?
        .as_array()
        .ok_or_else(|| schema("'devices' must be an array"))?
        .iter()
        .map(|d| {
            Ok(TraceDevice {
                ordinal: req_u32(d, "ordinal")?,
                streams: req_u32(d, "streams")?,
                spec: parse_spec(req(d, "spec")?)?,
            })
        })
        .collect::<Result<Vec<TraceDevice>, TraceError>>()?;
    let records = req(v, "records")?
        .as_array()
        .ok_or_else(|| schema("'records' must be an array"))?
        .iter()
        .map(parse_record)
        .collect::<Result<Vec<TraceRecord>, TraceError>>()?;
    Ok(TraceV1 {
        workload: req_str(v, "workload")?.to_owned(),
        comm_channels: req_u32(v, "comm_channels")?,
        topology: parse_topology(req(v, "topology")?)?,
        sim_time_ns: req_u64(v, "sim_time_ns")?,
        kernel_launches: req_u64(v, "kernel_launches")?,
        devices,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::LaunchSpec;

    fn recorded_single_device() -> (TraceV1, u64, u64) {
        let g = Gpu::new(0, DeviceSpec::t4());
        g.record_trace();
        let s = g.create_stream();
        let _ = g.htod(&vec![0u8; 1 << 20]).unwrap();
        let cfg = LaunchConfig::for_elements(1 << 16, 256);
        let profile = KernelProfile::elementwise(1 << 16, 4, 8);
        LaunchSpec::new("k0", cfg, profile).run(&g, || ()).unwrap();
        let ev = g.record_event(StreamId::DEFAULT);
        g.stream_wait(s, &ev);
        LaunchSpec::new("k1", cfg, profile)
            .on(s)
            .run(&g, || ())
            .unwrap();
        g.sync_streams();
        let launches = g.kernels_launched();
        let now = g.now_ns();
        let trace = g.finish_trace("unit").unwrap();
        (trace, now, launches)
    }

    #[test]
    fn identity_replay_matches_recorded_state() {
        let (trace, now, launches) = recorded_single_device();
        assert_eq!(trace.sim_time_ns, now);
        assert_eq!(trace.kernel_launches, launches);
        let rep = replay(&trace, &WhatIf::default()).unwrap();
        assert_eq!(rep.sim_time_ns, trace.sim_time_ns);
        assert_eq!(rep.kernel_launches, trace.kernel_launches);
        assert_eq!(rep.submissions, trace.submissions());
    }

    #[test]
    fn json_roundtrip_preserves_trace() {
        let (trace, _, _) = recorded_single_device();
        let json = trace.to_json();
        let back = TraceV1::from_json(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn every_record_body_round_trips_and_unpriced_kernels_omit_pricing() {
        let record = |body| TraceRecord {
            device: 1,
            stream: 2,
            body,
        };
        let trace = TraceV1 {
            workload: "every \"op\"".into(),
            comm_channels: 1,
            topology: Some(Topology::TwoTier {
                island: 2,
                intra: LinkKind::NvLink,
                inter: LinkKind::Ethernet,
            }),
            sim_time_ns: 9,
            kernel_launches: 1,
            devices: vec![TraceDevice {
                ordinal: 0,
                streams: 3,
                spec: DeviceSpec::t4(),
            }],
            records: vec![
                record(RecordBody::Kernel {
                    name: "k".into(),
                    dur_ns: 5,
                    bytes: 6,
                    flops: 7,
                    occupancy: 0.375,
                    pricing: None,
                }),
                record(RecordBody::Copy {
                    name: "htod".into(),
                    kind: CopyKind::H2d,
                    dur_ns: 1,
                    bytes: 2,
                }),
                record(RecordBody::EventRecord { slot: 3 }),
                record(RecordBody::EventWait { slot: 3 }),
                record(RecordBody::CollectiveStep {
                    name: "step".into(),
                    dur_ns: 4,
                    bytes: 5,
                    not_before_ns: 6,
                }),
                record(RecordBody::Collective {
                    name: "ar".into(),
                    bytes: 8,
                    channel: 1,
                    ready_ns: vec![1, 2],
                    gates: vec![Some(3), None],
                }),
                record(RecordBody::CollectiveSync { t_ns: 7 }),
                record(RecordBody::Barrier),
                record(RecordBody::StreamSync),
                record(RecordBody::BlockingAllReduce { bytes: 9 }),
                record(RecordBody::P2p {
                    src: 0,
                    dst: 1,
                    bytes: 10,
                }),
            ],
        };
        let json = trace.to_json();
        assert_eq!(TraceV1::from_json(&json).unwrap(), trace);
        let kernel = &serde_json::from_str(&json).unwrap()["records"][0];
        assert_eq!(kernel["op"], "kernel");
        assert_eq!(
            kernel.get("pricing"),
            None,
            "an unpriced kernel omits the key"
        );
    }

    #[test]
    fn wrong_version_is_typed_error() {
        let (trace, _, _) = recorded_single_device();
        let json = trace.to_json().replace("\"version\": 1", "\"version\": 99");
        match TraceV1::from_json(&json) {
            Err(TraceError::Version { found }) => assert_eq!(found, 99),
            other => panic!("expected TraceError::Version, got {other:?}"),
        }
    }

    #[test]
    fn unknown_future_field_is_ignored() {
        let (trace, _, _) = recorded_single_device();
        let json = trace.to_json().replace(
            "\"version\": 1",
            "\"version\": 1,\n  \"future_field\": {\"x\": [1,2,3]}",
        );
        let back = TraceV1::from_json(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn faster_gpu_whatif_shrinks_kernel_time() {
        let (trace, _, _) = recorded_single_device();
        let rep = replay(
            &trace,
            &WhatIf {
                gpu_profile: Some(DeviceSpec::v100()),
                ..WhatIf::default()
            },
        )
        .unwrap();
        assert!(
            rep.sim_time_ns < trace.sim_time_ns,
            "V100 replay {} should beat T4 recording {}",
            rep.sim_time_ns,
            trace.sim_time_ns
        );
    }

    #[test]
    fn graph_replays_are_not_recorded() {
        let g = Gpu::new(0, DeviceSpec::t4());
        let cfg = LaunchConfig::for_elements(1 << 10, 256);
        let profile = KernelProfile::elementwise(1 << 10, 2, 8);
        g.begin_capture("pair").unwrap();
        LaunchSpec::new("a", cfg, profile).run(&g, || ()).unwrap();
        let graph = g.end_capture().unwrap();
        g.record_trace();
        graph.replay(&g).unwrap();
        let trace = g.finish_trace("graphed").unwrap();
        assert!(
            trace.records.is_empty(),
            "graph replay bypasses submit and must not be traced"
        );
    }
}
