//! Multi-GPU nodes: peer links, P2P copies, collectives, barriers.
//!
//! Models the multi-GPU AWS instances the course used for its DDP and
//! distributed-GCN labs (up to 3 GPUs per instance, per Appendix A). Devices
//! in a cluster share one [`EventRecorder`] so profilers see a unified
//! timeline, and are connected by a [`Topology`]: either one homogeneous
//! link class, or NVLink islands bridged by slower Ethernet — the shape of
//! a fleet of multi-GPU instances inside one VPC.

use crate::arch::DeviceSpec;
use crate::command::{CollectiveCommand, Command};
use crate::device::{Gpu, StreamId};
use crate::error::GpuError;
use crate::event::{EventKind, EventRecorder, TraceEvent};
use crate::memory::DeviceBuffer;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Interconnect class between a pair of devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkKind {
    /// Through host PCIe root complex (same machine, slow path).
    Pcie,
    /// Direct NVLink-class peer connection (same machine, fast path).
    NvLink,
    /// 10 GbE VPC networking between *separate instances* — how the
    /// course's students actually connected their 2–3 single-GPU
    /// instances (§III-A places them "within the same VPC").
    Ethernet,
}

impl LinkKind {
    /// Modeled unidirectional bandwidth in bytes/sec.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        match self {
            LinkKind::Pcie => 12e9,
            LinkKind::NvLink => 50e9,
            LinkKind::Ethernet => 1.25e9, // 10 Gb/s
        }
    }

    /// Fixed per-message latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        match self {
            LinkKind::Pcie => 10_000.0,
            LinkKind::NvLink => 2_000.0,
            LinkKind::Ethernet => 60_000.0, // TCP round-trip in a VPC
        }
    }

    /// One lockstep step duration for a `chunk`-byte exchange with a peer
    /// on this link.
    pub fn step_ns(&self, chunk: u64) -> u64 {
        (self.latency_ns() + chunk as f64 / self.bandwidth_bytes_per_sec() * 1e9).ceil() as u64
    }
}

/// Interconnect shape of a cluster.
///
/// [`Topology::Flat`] is the pre-existing model: every device pair shares
/// one link class. [`Topology::TwoTier`] models what multi-GPU cloud fleets
/// actually look like — islands of `island` GPUs joined by a fast
/// `intra` link (NVLink inside a p3/p4 instance), with the islands bridged
/// by a slower `inter` link (VPC Ethernet between instances). Collectives
/// on a two-tier cluster run hierarchically (see
/// [`GpuCluster::all_reduce_chunked`]), cutting per-device bridge traffic
/// by roughly the island size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Homogeneous: every pair of devices is connected by the same link.
    Flat(LinkKind),
    /// Islands of `island` devices on `intra` links, bridged by `inter`.
    TwoTier {
        /// Devices per island (consecutive ordinals share an island). The
        /// cost model assumes equal islands; when `island` does not divide
        /// the device count, the ragged last island is charged as full.
        island: usize,
        /// Link class inside an island.
        intra: LinkKind,
        /// Link class bridging islands.
        inter: LinkKind,
    },
}

impl Topology {
    /// Homogeneous topology on `link`.
    pub fn flat(link: LinkKind) -> Self {
        Topology::Flat(link)
    }

    /// The common cloud shape: NVLink islands of `island` GPUs, bridged by
    /// VPC Ethernet.
    pub fn nvlink_islands(island: usize) -> Self {
        Topology::TwoTier {
            island,
            intra: LinkKind::NvLink,
            inter: LinkKind::Ethernet,
        }
    }

    /// The slowest link any transfer may cross — the bridge on a two-tier
    /// cluster, the single link class on a flat one.
    pub fn bridge(&self) -> LinkKind {
        match self {
            Topology::Flat(l) => *l,
            Topology::TwoTier { inter, .. } => *inter,
        }
    }

    /// Human-readable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Flat(_) => "flat",
            Topology::TwoTier { .. } => "hierarchical",
        }
    }

    /// `(island_size, island_count)` for an `n`-device cluster. A flat
    /// cluster is one island of `n`.
    fn shape(&self, n: usize) -> (usize, usize) {
        match self {
            Topology::Flat(_) => (n.max(1), 1),
            Topology::TwoTier { island, .. } => {
                let m = (*island).clamp(1, n.max(1));
                (m, n.max(1).div_ceil(m))
            }
        }
    }

    /// The link between devices `a` and `b`.
    pub(crate) fn link_between(&self, a: usize, b: usize) -> LinkKind {
        match self {
            Topology::Flat(l) => *l,
            Topology::TwoTier {
                island,
                intra,
                inter,
            } => {
                let m = (*island).max(1);
                if a / m == b / m {
                    *intra
                } else {
                    *inter
                }
            }
        }
    }

    /// The lockstep schedule all-reducing `bytes` over `n` devices, as a
    /// sequence of uniform phases. Flat: one group of `n`. Two-tier
    /// (m-device islands, g islands): an intra-island reduce-scatter over
    /// `bytes`, an inter-island all-reduce of each device's `bytes / m`
    /// shard over the bridge, then an intra-island all-gather. Each group
    /// of `p` runs the schedule [`group_halves`] picks for it.
    pub(crate) fn all_reduce_phases(&self, n: usize, bytes: u64) -> Vec<CommPhase> {
        if n <= 1 {
            return Vec::new();
        }
        let (m, g) = self.shape(n);
        match *self {
            Topology::TwoTier { intra, inter, .. } if g > 1 => {
                // Single-device islands (m = 1) leave the intra halves
                // empty: everything crosses the bridge.
                let [intra_rs, intra_ag] = group_halves(
                    intra,
                    m as u64,
                    bytes,
                    [PhaseTag::IntraRs, PhaseTag::IntraAg],
                );
                let shard = bytes.div_ceil(m as u64);
                let [inter_rs, inter_ag] =
                    group_halves(inter, g as u64, shard, [PhaseTag::Inter, PhaseTag::Inter]);
                [intra_rs, inter_rs, inter_ag, intra_ag].concat()
            }
            // One island: the hierarchy degenerates to one flat group on
            // the fast tier.
            Topology::TwoTier { intra: link, .. } | Topology::Flat(link) => {
                group_halves(link, n as u64, bytes, [PhaseTag::Rs, PhaseTag::Ag]).concat()
            }
        }
    }
}

/// The reduce-scatter and all-gather halves of an all-reduce of `bytes`
/// over a group of `p` devices on `link`.
///
/// When `p` is a power of two they run recursive halving and doubling
/// (Rabenseifner): reduce-scatter step `i = 1..=log2 p` exchanges
/// `bytes / 2^i` with the partner `2^(i-1)` ranks away, and the all-gather
/// replays the steps in reverse. Each half moves the ring's
/// `(p-1)/p · bytes` per device in `log2 p` steps instead of `p-1`, so only
/// the per-step latency term shrinks. Any other `p` keeps the ring:
/// `p-1` steps of `bytes / p` each way. At `p = 2` the two coincide.
fn group_halves(
    link: LinkKind,
    p: u64,
    bytes: u64,
    [rs, ag]: [PhaseTag; 2],
) -> [Vec<CommPhase>; 2] {
    let phase = |tag, steps, chunk| CommPhase {
        tag,
        steps,
        chunk,
        step_dur: link.step_ns(chunk),
    };
    if p.is_power_of_two() {
        let chunks = (1..=p.trailing_zeros()).map(|i| bytes.div_ceil(1 << i));
        [
            chunks.clone().map(|c| phase(rs, 1, c)).collect(),
            chunks.rev().map(|c| phase(ag, 1, c)).collect(),
        ]
    } else {
        let chunk = bytes.div_ceil(p);
        [vec![phase(rs, p - 1, chunk)], vec![phase(ag, p - 1, chunk)]]
    }
}

/// Step naming within a collective; `inter*` names are what the profiler
/// keys tier attribution on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseTag {
    Rs,
    Ag,
    IntraRs,
    Inter,
    IntraAg,
}

impl PhaseTag {
    pub(crate) fn step_name(&self, collective: &str, s: u64) -> String {
        match self {
            PhaseTag::Rs => format!("{collective}/rs{s}"),
            PhaseTag::Ag => format!("{collective}/ag{s}"),
            PhaseTag::IntraRs => format!("{collective}/intra-rs{s}"),
            PhaseTag::Inter => format!("{collective}/inter{s}"),
            PhaseTag::IntraAg => format!("{collective}/intra-ag{s}"),
        }
    }

    fn crosses_bridge(&self) -> bool {
        matches!(self, PhaseTag::Inter)
    }
}

/// One uniform run of lockstep steps (same chunk, same link).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommPhase {
    pub(crate) tag: PhaseTag,
    pub(crate) steps: u64,
    pub(crate) chunk: u64,
    pub(crate) step_dur: u64,
}

/// Number of dedicated communication streams ("channels") per device.
///
/// Like NCCL channels: independent collectives round-robin across them, so
/// a second gradient bucket's collective can be in flight while the first is
/// still paying its per-step link latency. Collectives assigned to the
/// *same* channel serialize (a channel models one set of link contexts).
pub const COMM_CHANNELS: usize = 2;

/// Timeline footprint of one chunked collective launched with
/// [`GpuCluster::all_reduce_chunked`]. The caller decides what to order
/// after it — e.g. `advance_to(end_ns)` before the optimizer step — so
/// independent compute can keep running while the collective is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReduceHandle {
    /// When the collective started (every participant ready, its comm
    /// channel free).
    pub start_ns: u64,
    /// When the last step completed on every device.
    pub end_ns: u64,
    /// Number of lockstep steps charged.
    pub steps: u64,
    /// Payload size reduced across the group.
    pub bytes: u64,
    /// Bytes each device moved over its links (`Σ steps × chunk`).
    pub per_dev_bytes: u64,
    /// Steps that crossed the inter-island bridge (zero on flat
    /// topologies, where there is no bridge tier).
    pub inter_steps: u64,
    /// Bytes each device moved over the bridge (zero on flat topologies).
    pub inter_bytes: u64,
    /// Comm channel (round-robin ordinal) the collective ran on.
    pub channel: u32,
}

impl ReduceHandle {
    /// Wall-clock duration of the collective.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single node holding several simulated GPUs.
#[derive(Debug)]
pub struct GpuCluster {
    devices: Vec<Arc<Gpu>>,
    topology: Topology,
    recorder: EventRecorder,
    /// [`COMM_CHANNELS`] dedicated communication streams per device
    /// (NCCL-style), created at construction so collectives never contend
    /// with compute streams.
    comm_streams: Vec<Vec<StreamId>>,
    /// Round-robin cursor assigning collectives to channels.
    next_channel: AtomicUsize,
    /// Active trace sink, mirroring cluster-level operations (barriers,
    /// collectives, peer copies) as logical records. Per-device command
    /// recording is handled by the devices themselves (the same sink is
    /// attached to each).
    trace_sink: parking_lot::Mutex<Option<crate::trace::TraceSink>>,
}

impl GpuCluster {
    /// Builds a homogeneous cluster of `n` devices of the given spec,
    /// connected flat with `link`, recording into one shared timeline.
    pub fn homogeneous(n: usize, spec: DeviceSpec, link: LinkKind) -> Self {
        Self::with_topology(n, spec, Topology::Flat(link))
    }

    /// Builds a cluster of `n` devices of the given spec wired as
    /// `topology`, recording into one shared timeline.
    pub fn with_topology(n: usize, spec: DeviceSpec, topology: Topology) -> Self {
        let recorder = EventRecorder::new();
        let devices: Vec<Arc<Gpu>> = (0..n)
            .map(|i| Arc::new(Gpu::with_recorder(i as u32, spec.clone(), recorder.clone())))
            .collect();
        let comm_streams = devices
            .iter()
            .map(|d| (0..COMM_CHANNELS).map(|_| d.create_stream()).collect())
            .collect();
        Self {
            devices,
            topology,
            recorder,
            comm_streams,
            next_channel: AtomicUsize::new(0),
            trace_sink: parking_lot::Mutex::new(None),
        }
    }

    /// Starts recording every device submission and cluster-level
    /// operation into a fresh [`crate::trace::TraceSink`]; finish with
    /// [`GpuCluster::finish_trace`].
    pub fn record_trace(&self) -> crate::trace::TraceSink {
        let sink = crate::trace::TraceSink::new();
        for d in &self.devices {
            d.attach_trace_sink(sink.clone());
        }
        *self.trace_sink.lock() = Some(sink.clone());
        sink
    }

    /// Stops recording and assembles the portable trace (topology and
    /// comm-channel count travel with it). Returns `None` when
    /// [`GpuCluster::record_trace`] was never called.
    pub fn finish_trace(&self, workload: &str) -> Option<crate::trace::TraceV1> {
        let sink = self.trace_sink.lock().take()?;
        for d in &self.devices {
            d.detach_trace_sink();
        }
        let devices: Vec<&Gpu> = self.devices.iter().map(|d| d.as_ref()).collect();
        Some(sink.finish(
            &devices,
            Some(self.topology),
            COMM_CHANNELS as u32,
            workload,
        ))
    }

    fn sink(&self) -> Option<crate::trace::TraceSink> {
        self.trace_sink.lock().clone()
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the cluster has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The shared event recorder.
    pub fn recorder(&self) -> &EventRecorder {
        &self.recorder
    }

    /// The interconnect shape.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Borrow device `i`.
    pub fn device(&self, i: usize) -> Result<&Arc<Gpu>, GpuError> {
        self.devices
            .get(i)
            .ok_or(GpuError::NoSuchDevice { device: i as u32 })
    }

    /// Iterate over all devices.
    pub fn devices(&self) -> impl Iterator<Item = &Arc<Gpu>> {
        self.devices.iter()
    }

    fn p2p_ns(&self, src: usize, dst: usize, bytes: u64) -> u64 {
        self.topology.link_between(src, dst).step_ns(bytes)
    }

    /// Copies a buffer from its owning device to device `dst`, consuming the
    /// source buffer and charging peer-link time on both devices (both must
    /// wait for the copy to complete, like `cudaMemcpyPeer`). On a two-tier
    /// topology the charged link is the intra link when source and
    /// destination share an island, the bridge otherwise.
    pub fn p2p<T: Copy + Send + Sync + 'static>(
        &self,
        buf: DeviceBuffer<T>,
        dst: usize,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        let src = buf.device() as usize;
        let dst_dev = self.device(dst)?;
        let src_dev = self.device(src)?;
        let bytes = buf.size_bytes();
        if let Some(sink) = self.sink() {
            sink.record_global(crate::trace::RecordBody::P2p {
                src: src as u32,
                dst: dst as u32,
                bytes,
            });
        }
        let dur = self.p2p_ns(src, dst, bytes);
        let start = src_dev.now_ns().max(dst_dev.now_ns());
        let end = start + dur;
        src_dev.advance_to(end);
        dst_dev.advance_to(end);
        self.recorder.record(TraceEvent {
            kind: EventKind::MemcpyP2P,
            name: format!("p2p {}->{}", src, dst),
            device: src as u32,
            stream: 0,
            start_ns: start,
            dur_ns: dur,
            bytes,
            flops: 0,
            occupancy: 0.0,
            graph: false,
        });
        let data = buf.into_vec();
        // Re-allocate on destination (charges its capacity, not time —
        // the time was charged as the P2P event).
        DeviceBuffer::from_vec(data, dst as u32, dst_dev.memory_accounting())
    }

    /// Synchronizes all devices to the latest clock among them (a barrier,
    /// like the implicit sync in synchronous data-parallel training).
    /// Returns the barrier timestamp.
    pub fn barrier(&self) -> u64 {
        if let Some(sink) = self.sink() {
            sink.record_global(crate::trace::RecordBody::Barrier);
        }
        let t = self.devices.iter().map(|d| d.now_ns()).max().unwrap_or(0);
        for d in &self.devices {
            d.advance_to(t);
        }
        t
    }

    /// Advances every device clock to at least `t_ns` — the ordering
    /// point data-parallel trainers place after their gradient
    /// collectives (typically `handle.end_ns`) before the optimizer
    /// step. Centralized here so the trace records it as one logical
    /// operation that replay can re-target when a what-if changes the
    /// collectives' timing.
    pub fn advance_all_to(&self, t_ns: u64) {
        if let Some(sink) = self.sink() {
            sink.record_global(crate::trace::RecordBody::CollectiveSync { t_ns });
        }
        for d in &self.devices {
            d.advance_to(t_ns);
        }
    }

    /// Models a blocking all-reduce of `bytes` per device under the
    /// cluster's topology (flat, or hierarchical on two tiers).
    /// Advances all device clocks past the collective and records one event
    /// per device.
    ///
    /// Returns the modeled duration in nanoseconds.
    pub fn all_reduce_cost(&self, bytes: u64) -> u64 {
        let n = self.devices.len();
        if n <= 1 {
            return 0;
        }
        let sink = self.sink();
        if let Some(s) = &sink {
            // One logical record; the inner barrier must not record itself.
            s.record_global(crate::trace::RecordBody::BlockingAllReduce { bytes });
            s.push_suppress();
        }
        let phases = self.topology.all_reduce_phases(n, bytes);
        let dur: u64 = phases.iter().map(|p| p.steps * p.step_dur).sum();
        let per_dev_bytes: u64 = phases.iter().map(|p| p.steps * p.chunk).sum();
        let start = self.barrier();
        for d in &self.devices {
            d.advance_to(start + dur);
            self.recorder.record(TraceEvent {
                kind: EventKind::MemcpyP2P,
                name: "all-reduce".to_owned(),
                device: d.ordinal(),
                stream: 0,
                start_ns: start,
                dur_ns: dur,
                bytes: per_dev_bytes,
                flops: 0,
                occupancy: 0.0,
                graph: false,
            });
        }
        if let Some(s) = &sink {
            s.pop_suppress();
        }
        dur
    }

    /// Comm stream of device `i` on channel `ch` (`ch < COMM_CHANNELS`).
    pub fn comm_channel(&self, i: usize, ch: usize) -> Result<StreamId, GpuError> {
        self.comm_streams
            .get(i)
            .and_then(|chs| chs.get(ch))
            .copied()
            .ok_or(GpuError::NoSuchDevice { device: i as u32 })
    }

    /// Chunked all-reduce of `bytes`, charged as discrete lockstep steps on
    /// one of each device's dedicated comm streams: a reduce-scatter then
    /// an all-gather. On a flat topology a power-of-two `n` runs recursive
    /// halving-doubling (`2 log2 n` steps moving `bytes / 2`, `bytes / 4`,
    /// …); any other `n` runs the NCCL ring (`2 (n-1)` steps of
    /// `bytes / n`). Both move `2 (n-1)/n · bytes` per device. On a
    /// two-tier topology the schedule is hierarchical: reduce-scatter
    /// inside each island on the fast links, an all-reduce of each
    /// device's `bytes / m` shard across the `g` islands over the bridge
    /// (the only steps that touch the slow tier), then an intra-island
    /// all-gather; each tier picks halving-doubling or the ring by its own
    /// group size. Step events are named `{name}/rs{s}`, `{name}/ag{s}`
    /// (flat) or `{name}/intra-rs{s}`, `{name}/inter{s}`,
    /// `{name}/intra-ag{s}` (two-tier) so profilers can attribute exposed
    /// time per tier.
    ///
    /// `ready_ns[i]` is when device `i`'s payload becomes available (e.g.
    /// the event timestamp of the backward op producing the last gradient
    /// in a bucket); the collective starts once every participant is ready
    /// *and* its assigned channel has drained its previous collective.
    /// Collectives round-robin over [`COMM_CHANNELS`] channels, so
    /// back-to-back buckets overlap like independent NCCL channels instead
    /// of serializing on one stream. Unlike
    /// [`GpuCluster::all_reduce_cost`], this neither barriers the devices
    /// nor advances their default streams, so compute issued afterwards
    /// overlaps the collective; callers order dependents explicitly via
    /// the returned [`ReduceHandle`] (typically `advance_to(end_ns)`).
    pub fn all_reduce_chunked(&self, bytes: u64, name: &str, ready_ns: &[u64]) -> ReduceHandle {
        let n = self.devices.len();
        if n <= 1 {
            let t = ready_ns.first().copied().unwrap_or(0);
            return ReduceHandle {
                start_ns: t,
                end_ns: t,
                steps: 0,
                bytes,
                per_dev_bytes: 0,
                inter_steps: 0,
                inter_bytes: 0,
                channel: 0,
            };
        }
        assert_eq!(
            ready_ns.len(),
            self.devices.len(),
            "one ready timestamp per device"
        );
        // Trace as ONE logical collective: the per-device step commands and
        // channel-probe event records below are regenerated by replay from
        // the (possibly what-if) topology, so they must not record
        // themselves.
        let sink = self.sink();
        if let Some(s) = &sink {
            s.push_suppress();
        }
        let phases = self.topology.all_reduce_phases(n, bytes);
        let ch = self.next_channel.fetch_add(1, Ordering::Relaxed) % COMM_CHANNELS;
        // Lockstep schedule: every step is a synchronous peer exchange,
        // so the collective starts only when the *slowest* participant is
        // ready and its channel is free.
        let start = self
            .devices
            .iter()
            .zip(self.comm_streams.iter())
            .zip(ready_ns.iter())
            .map(|((d, chs), &r)| d.record_event(chs[ch]).timestamp_ns().max(r))
            .max()
            .unwrap_or(0);
        for (d, chs) in self.devices.iter().zip(self.comm_streams.iter()) {
            let mut s = 0u64;
            for p in &phases {
                for _ in 0..p.steps {
                    d.submit(
                        chs[ch],
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
            d.doorbell()
                .expect("collective steps carry no event dependencies");
        }
        let steps: u64 = phases.iter().map(|p| p.steps).sum();
        let dur: u64 = phases.iter().map(|p| p.steps * p.step_dur).sum();
        let inter_steps: u64 = phases
            .iter()
            .filter(|p| p.tag.crosses_bridge())
            .map(|p| p.steps)
            .sum();
        let inter_bytes: u64 = phases
            .iter()
            .filter(|p| p.tag.crosses_bridge())
            .map(|p| p.steps * p.chunk)
            .sum();
        if let Some(s) = &sink {
            s.pop_suppress();
            s.record_global(crate::trace::RecordBody::Collective {
                name: name.to_owned(),
                bytes,
                channel: ch as u32,
                ready_ns: ready_ns.to_vec(),
                gates: vec![None; n],
            });
        }
        ReduceHandle {
            start_ns: start,
            end_ns: start + dur,
            steps,
            bytes,
            per_dev_bytes: phases.iter().map(|p| p.steps * p.chunk).sum(),
            inter_steps,
            inter_bytes,
            channel: ch as u32,
        }
    }

    /// Wall-clock of the slowest device (makespan of the simulated program).
    pub fn makespan_ns(&self) -> u64 {
        self.devices.iter().map(|d| d.now_ns()).max().unwrap_or(0)
    }
}

impl Gpu {
    /// Shared memory-accounting handle (used by cluster P2P re-allocation).
    pub(crate) fn memory_accounting(&self) -> Arc<crate::memory::MemoryAccounting> {
        self.accounting_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, link: LinkKind) -> GpuCluster {
        GpuCluster::homogeneous(n, DeviceSpec::t4(), link)
    }

    fn two_tier(n: usize, island: usize) -> GpuCluster {
        GpuCluster::with_topology(n, DeviceSpec::t4(), Topology::nvlink_islands(island))
    }

    #[test]
    fn homogeneous_cluster_has_ordinal_devices() {
        let c = cluster(3, LinkKind::Pcie);
        assert_eq!(c.len(), 3);
        for (i, d) in c.devices().enumerate() {
            assert_eq!(d.ordinal() as usize, i);
        }
        assert!(c.device(3).is_err());
    }

    #[test]
    fn p2p_moves_data_and_memory_accounting() {
        let c = cluster(2, LinkKind::NvLink);
        let d0 = c.device(0).unwrap();
        let d1 = c.device(1).unwrap();
        let buf = d0.htod(&vec![7f32; 1024]).unwrap();
        assert_eq!(d0.mem_used(), 4096);
        let moved = c.p2p(buf, 1).unwrap();
        assert_eq!(moved.device(), 1);
        assert_eq!(d0.mem_used(), 0, "source allocation freed");
        assert_eq!(d1.mem_used(), 4096, "destination allocation charged");
        assert_eq!(d1.dtoh(&moved).unwrap(), vec![7f32; 1024]);
    }

    #[test]
    fn p2p_advances_both_clocks_to_same_point() {
        let c = cluster(2, LinkKind::Pcie);
        let d0 = c.device(0).unwrap();
        let d1 = c.device(1).unwrap();
        let buf = d0.htod(&vec![0u8; 1 << 20]).unwrap();
        let _ = c.p2p(buf, 1).unwrap();
        assert_eq!(d0.now_ns(), d1.now_ns());
        assert!(d1.now_ns() > 0);
    }

    #[test]
    fn nvlink_faster_than_pcie() {
        let time_with = |link| {
            let c = cluster(2, link);
            let d0 = c.device(0).unwrap();
            let buf = d0.htod(&vec![0u8; 64 << 20]).unwrap();
            let before = c.makespan_ns();
            let _ = c.p2p(buf, 1).unwrap();
            c.makespan_ns() - before
        };
        assert!(time_with(LinkKind::Pcie) > 3 * time_with(LinkKind::NvLink));
    }

    #[test]
    fn two_tier_p2p_charges_intra_link_inside_an_island() {
        // Devices 0 and 1 share the first NVLink island of a 4-device,
        // 2-per-island cluster; devices 1 and 2 straddle the bridge.
        let bytes = 16u64 << 20;
        let intra = {
            let c = two_tier(4, 2);
            let buf = c
                .device(0)
                .unwrap()
                .htod(&vec![0u8; bytes as usize])
                .unwrap();
            let before = c.makespan_ns();
            let _ = c.p2p(buf, 1).unwrap();
            c.makespan_ns() - before
        };
        let inter = {
            let c = two_tier(4, 2);
            let buf = c
                .device(1)
                .unwrap()
                .htod(&vec![0u8; bytes as usize])
                .unwrap();
            let before = c.makespan_ns();
            let _ = c.p2p(buf, 2).unwrap();
            c.makespan_ns() - before
        };
        assert_eq!(intra, LinkKind::NvLink.step_ns(bytes));
        assert_eq!(inter, LinkKind::Ethernet.step_ns(bytes));
        assert!(inter > 10 * intra);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let c = cluster(3, LinkKind::Pcie);
        c.device(0).unwrap().advance_to(5_000);
        c.device(2).unwrap().advance_to(9_000);
        let t = c.barrier();
        assert_eq!(t, 9_000);
        for d in c.devices() {
            assert_eq!(d.now_ns(), 9_000);
        }
    }

    #[test]
    fn all_reduce_scales_with_device_count_and_bytes() {
        let small = cluster(2, LinkKind::Pcie).all_reduce_cost(1 << 20);
        let more_devices = cluster(4, LinkKind::Pcie).all_reduce_cost(1 << 20);
        let more_bytes = cluster(2, LinkKind::Pcie).all_reduce_cost(16 << 20);
        assert!(more_devices > small, "more ring steps cost more latency");
        assert!(more_bytes > 4 * small);
        assert_eq!(cluster(1, LinkKind::Pcie).all_reduce_cost(1 << 20), 0);
    }

    #[test]
    fn all_reduce_records_event_per_device() {
        let c = cluster(3, LinkKind::NvLink);
        c.all_reduce_cost(1 << 10);
        let evs = c.recorder().snapshot();
        assert_eq!(evs.iter().filter(|e| e.name == "all-reduce").count(), 3);
    }

    #[test]
    fn hierarchical_all_reduce_cost_beats_flat_bridge_ring() {
        // 8 devices as 2 NVLink islands of 4 bridged by Ethernet must beat
        // 8 devices flat on Ethernet: only 2 (g-1) small shard-exchanges
        // cross the slow tier instead of the whole 2 (n-1)-step ring.
        let bytes = 1u64 << 20;
        let flat = cluster(8, LinkKind::Ethernet).all_reduce_cost(bytes);
        let hier = two_tier(8, 4).all_reduce_cost(bytes);
        assert!(
            hier * 3 < flat,
            "hierarchical {hier} ns not well below flat {flat} ns"
        );
        // And it cannot beat the all-NVLink flat ring it embeds.
        let nvlink = cluster(8, LinkKind::NvLink).all_reduce_cost(bytes);
        assert!(hier > nvlink);
    }

    #[test]
    fn degenerate_two_tier_topologies_match_flat_rings() {
        let bytes = 3u64 << 20;
        // island >= n: one island, pure intra.
        let one_island = GpuCluster::with_topology(
            4,
            DeviceSpec::t4(),
            Topology::TwoTier {
                island: 4,
                intra: LinkKind::NvLink,
                inter: LinkKind::Ethernet,
            },
        );
        assert_eq!(
            one_island.all_reduce_cost(bytes),
            cluster(4, LinkKind::NvLink).all_reduce_cost(bytes)
        );
        // island == 1: every hop crosses the bridge.
        let all_bridge = GpuCluster::with_topology(
            4,
            DeviceSpec::t4(),
            Topology::TwoTier {
                island: 1,
                intra: LinkKind::NvLink,
                inter: LinkKind::Ethernet,
            },
        );
        assert_eq!(
            all_bridge.all_reduce_cost(bytes),
            cluster(4, LinkKind::Ethernet).all_reduce_cost(bytes)
        );
    }

    #[test]
    fn chunked_all_reduce_matches_monolithic_cost_model() {
        // Same bytes, same topology: the chunked schedule and the blocking
        // cost model now share one phase table, so durations are equal.
        let bytes = 1u64 << 20;
        for mk in [|| cluster(4, LinkKind::Pcie), || two_tier(8, 4)] {
            let mono = mk().all_reduce_cost(bytes);
            let c = mk();
            let h = c.all_reduce_chunked(bytes, "grads", &vec![0; c.len()]);
            assert_eq!(h.dur_ns(), mono);
        }
        // n = 4 is a power of two: recursive halving-doubling, 2 log2 4
        // steps.
        let c = cluster(4, LinkKind::Pcie);
        let h = c.all_reduce_chunked(bytes, "grads", &[0, 0, 0, 0]);
        assert_eq!(h.steps, 4);
        assert!(h.per_dev_bytes >= (2 * 3 * bytes) / 4);
        assert_eq!(h.inter_steps, 0, "flat ring has no bridge tier");
        assert_eq!(h.inter_bytes, 0);
    }

    #[test]
    fn chunked_all_reduce_records_lockstep_steps_on_comm_streams() {
        let c = cluster(3, LinkKind::NvLink);
        let h = c.all_reduce_chunked(3 << 10, "b0", &[0, 0, 0]);
        let evs = c.recorder().snapshot();
        let steps: Vec<_> = evs.iter().filter(|e| e.name.starts_with("b0/")).collect();
        // 2 (n-1) steps on each of the 3 devices, all on one comm channel.
        assert_eq!(steps.len(), 12);
        assert!(steps.iter().all(|e| e.kind == EventKind::MemcpyP2P));
        for i in 0..3 {
            let stream = c.comm_channel(i, h.channel as usize).unwrap().ordinal();
            let mut dev_steps: Vec<_> = steps
                .iter()
                .filter(|e| e.device == i as u32 && e.stream == stream)
                .collect();
            dev_steps.sort_by_key(|e| e.start_ns);
            assert_eq!(dev_steps.len(), 4);
            // Lockstep: back-to-back spans starting at the collective start.
            assert_eq!(dev_steps[0].start_ns, h.start_ns);
            for w in dev_steps.windows(2) {
                assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
            }
        }
        assert_eq!(
            h.end_ns,
            steps.iter().map(|e| e.start_ns + e.dur_ns).max().unwrap()
        );
    }

    #[test]
    fn hierarchical_steps_charge_their_own_tier_only() {
        // Property from the issue: intra-island chunks must never charge
        // time on the bridge link. Every intra step's duration is computed
        // from NVLink latency/bandwidth (well under the Ethernet RTT), and
        // every bridge step pays at least the Ethernet RTT.
        let bytes = 1u64 << 20;
        let c = two_tier(8, 4);
        let h = c.all_reduce_chunked(bytes, "g", &[0; 8]);
        let evs = c.recorder().snapshot();
        let intra: Vec<_> = evs.iter().filter(|e| e.name.contains("/intra-")).collect();
        let inter: Vec<_> = evs.iter().filter(|e| e.name.contains("/inter")).collect();
        assert!(!intra.is_empty() && !inter.is_empty());
        // m = 4 halves inside each island (B/2 then B/4); g = 2 exchanges
        // the B/4 shard's halves over the bridge.
        let intra_steps = [bytes / 2, bytes / 4].map(|c| LinkKind::NvLink.step_ns(c));
        let inter_chunk = bytes.div_ceil(8);
        for e in &intra {
            assert!(
                intra_steps.contains(&e.dur_ns),
                "{} is no halving step",
                e.name
            );
            assert!(
                (e.dur_ns as f64) < LinkKind::Ethernet.latency_ns(),
                "intra step {} charged bridge-scale time",
                e.name
            );
        }
        for e in &inter {
            assert_eq!(e.dur_ns, LinkKind::Ethernet.step_ns(inter_chunk));
            assert!(e.dur_ns as f64 >= LinkKind::Ethernet.latency_ns());
        }
        // Per device: log2 m = 2 intra-rs, 2 log2 g = 2 inter, 2 intra-ag.
        assert_eq!(intra.len(), 8 * 4);
        assert_eq!(inter.len(), 8 * 2);
        assert_eq!(h.steps, 6);
        assert_eq!(h.inter_steps, 2);
        assert_eq!(h.inter_bytes, 2 * inter_chunk);
    }

    #[test]
    fn two_tier_bridge_traffic_is_cut_by_island_size() {
        // Flat over the bridge: every device pushes 2 (n-1)/n · bytes over
        // Ethernet. Hierarchical: only 2 (g-1)/(m g) · bytes ≈ 1/m as much.
        let bytes = 4u64 << 20;
        let flat = cluster(8, LinkKind::Ethernet);
        let hf = flat.all_reduce_chunked(bytes, "g", &[0; 8]);
        let hier = two_tier(8, 4);
        let hh = hier.all_reduce_chunked(bytes, "g", &[0; 8]);
        // Flat: all per-device bytes cross the one (bridge-class) link.
        let flat_bridge_bytes = hf.per_dev_bytes;
        assert!(hh.inter_bytes * 5 < flat_bridge_bytes);
    }

    #[test]
    fn chunked_all_reduce_waits_for_slowest_participant() {
        let c = cluster(2, LinkKind::Pcie);
        let h = c.all_reduce_chunked(1 << 10, "g", &[1_000, 50_000]);
        assert_eq!(h.start_ns, 50_000);
    }

    #[test]
    fn chunked_all_reduce_overlaps_default_stream_compute() {
        let c = cluster(2, LinkKind::Pcie);
        let h = c.all_reduce_chunked(1 << 20, "g", &[0, 0]);
        assert!(h.dur_ns() > 0);
        // The default stream was not advanced: new compute can start at 0,
        // concurrent with the in-flight collective.
        for d in c.devices() {
            let ev = d.record_event(StreamId::DEFAULT);
            assert_eq!(ev.timestamp_ns(), 0);
        }
        // But the device makespan covers the collective.
        assert_eq!(c.makespan_ns(), h.end_ns);
    }

    #[test]
    fn collectives_round_robin_channels_and_serialize_per_channel() {
        // Two back-to-back collectives land on different channels and
        // overlap like independent NCCL channels; the third reuses the
        // first channel and queues behind its collective.
        let c = cluster(2, LinkKind::Pcie);
        let a = c.all_reduce_chunked(1 << 16, "a", &[0, 0]);
        let b = c.all_reduce_chunked(1 << 16, "b", &[0, 0]);
        let third = c.all_reduce_chunked(1 << 16, "c", &[0, 0]);
        assert_ne!(a.channel, b.channel);
        assert_eq!(b.start_ns, 0, "second bucket overlaps the first");
        assert_eq!(third.channel, a.channel);
        assert_eq!(
            third.start_ns, a.end_ns,
            "third bucket queues behind the first on its channel"
        );
    }

    #[test]
    fn chunked_all_reduce_single_device_is_free() {
        let c = cluster(1, LinkKind::Ethernet);
        let h = c.all_reduce_chunked(1 << 20, "g", &[123]);
        assert_eq!(h.dur_ns(), 0);
        assert_eq!(h.steps, 0);
        assert!(c.recorder().snapshot().is_empty());
    }

    #[test]
    fn shared_recorder_sees_all_devices() {
        let c = cluster(2, LinkKind::Pcie);
        let _ = c.device(0).unwrap().htod(&[0f32; 16]).unwrap();
        let _ = c.device(1).unwrap().htod(&[0f32; 16]).unwrap();
        let devices: std::collections::HashSet<u32> =
            c.recorder().snapshot().iter().map(|e| e.device).collect();
        assert_eq!(devices.len(), 2);
    }
}
