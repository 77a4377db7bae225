//! A live simulated GPU: allocator, clock, kernel launch, transfers.
//!
//! Since the command-stream rework, every charging entry point here is a
//! thin wrapper over [`crate::command`]: it encodes the operation as a
//! [`Command`], submits it, and rings the doorbell immediately, which makes
//! the resulting timeline bit-identical to the historical synchronous
//! charges while sharing one retirement path with batched submission and
//! graph replay.

use crate::arch::DeviceSpec;
use crate::command::{Command, CommandProcessor, CopyCommand, KernelCommand};
use crate::dim::Dim3;
use crate::error::{invalid_launch, GpuError};
use crate::event::{EventKind, EventRecorder, TraceEvent};
use crate::kernel::{KernelProfile, LaunchConfig};
use crate::memory::{DeviceBuffer, MemoryAccounting};
use crate::occupancy::{occupancy, OccupancyResult};
use crate::pool::{MemoryPool, PoolLease};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated GPU device.
///
/// The device keeps a monotonically advancing *simulated* clock (ns).
/// Kernels and transfers advance it by their modeled duration; real
/// wall-clock execution time of the kernel body is irrelevant to the
/// simulated timeline, which makes the timeline deterministic.
#[derive(Debug)]
pub struct Gpu {
    ordinal: u32,
    spec: DeviceSpec,
    accounting: Arc<MemoryAccounting>,
    /// Floor the whole device has been synchronized past (cluster barriers).
    clock_ns: AtomicU64,
    /// Next-free timestamp per stream; index = stream ordinal, 0 = default.
    streams: parking_lot::Mutex<Vec<u64>>,
    recorder: EventRecorder,
    kernels_launched: AtomicU64,
    /// Driver-side command processor (queues, event table, capture state).
    /// Lock ordering: `cmd` before `streams`, never the reverse.
    pub(crate) cmd: parking_lot::Mutex<CommandProcessor>,
}

/// Handle to an asynchronous stream created with [`Gpu::create_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(pub(crate) u32);

impl StreamId {
    /// The always-present default stream.
    pub const DEFAULT: StreamId = StreamId(0);

    /// Stream ordinal as it appears in trace events.
    pub fn ordinal(&self) -> u32 {
        self.0
    }
}

/// A recorded point on a stream's timeline (`cudaEventRecord`).
///
/// Events capture the timestamp at which all work previously issued on the
/// recording stream completes; another stream can order itself after that
/// point with [`Gpu::stream_wait`] — the building block for copy/compute
/// pipelines that span streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuEvent {
    stream: u32,
    t_ns: u64,
    /// Backing slot in the command processor's event table.
    cmd: crate::command::CmdEvent,
}

impl GpuEvent {
    /// Simulated time at which the event fires (all prior work on the
    /// recording stream has completed). Zero while the event is only
    /// captured in a graph (it resolves per replay).
    pub fn timestamp_ns(&self) -> u64 {
        self.t_ns
    }

    /// Ordinal of the stream the event was recorded on.
    pub fn stream_ordinal(&self) -> u32 {
        self.stream
    }
}

impl Gpu {
    /// Creates a device with its own private event recorder.
    pub fn new(ordinal: u32, spec: DeviceSpec) -> Self {
        Self::with_recorder(ordinal, spec, EventRecorder::new())
    }

    /// Creates a device recording into a shared recorder (cluster use).
    pub fn with_recorder(ordinal: u32, spec: DeviceSpec, recorder: EventRecorder) -> Self {
        let accounting = Arc::new(MemoryAccounting::new(spec.memory.capacity_bytes));
        Self {
            ordinal,
            spec,
            accounting,
            clock_ns: AtomicU64::new(0),
            streams: parking_lot::Mutex::new(vec![0]),
            recorder,
            kernels_launched: AtomicU64::new(0),
            cmd: parking_lot::Mutex::new(CommandProcessor::default()),
        }
    }

    /// Creates a new asynchronous stream. Operations issued on different
    /// streams may overlap in simulated time (copy/compute overlap);
    /// operations within one stream serialize — CUDA's stream semantics.
    pub fn create_stream(&self) -> StreamId {
        let mut streams = self.streams.lock();
        streams.push(0);
        StreamId((streams.len() - 1) as u32)
    }

    /// Aligns every stream (and the device floor) to the latest timestamp
    /// among them — `cudaDeviceSynchronize` across streams. Returns it.
    /// Drains any pending commands first. Not capturable: call it outside
    /// [`Gpu::begin_capture`]/[`Gpu::end_capture`] windows.
    pub fn sync_streams(&self) -> u64 {
        if let Some(sink) = self.trace_sink() {
            // Keyed at the submission frontier so the sync sorts after
            // everything submitted so far on this device.
            sink.record_device(
                self.ordinal,
                self.next_submission_seq(),
                crate::trace::RecordBody::StreamSync,
            );
        }
        self.doorbell()
            .expect("cannot sync streams: command queue stalled");
        let t = {
            let mut streams = self.streams.lock();
            let t = streams
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .max(self.clock_ns.load(Ordering::SeqCst));
            for s in streams.iter_mut() {
                *s = t;
            }
            t
        };
        self.advance_to(t);
        self.record_on(EventKind::Sync, "stream-sync", 0, t, 0, 0, 0, 0.0);
        t
    }

    /// Records an event on `stream` (`cudaEventRecord`): captures the time
    /// at which everything issued on the stream so far will have finished.
    /// During graph capture the returned event is an unresolved template
    /// (`timestamp_ns() == 0`); it resolves per replay.
    pub fn record_event(&self, stream: StreamId) -> GpuEvent {
        let cmd = self.create_cmd_event();
        self.submit(stream, Command::EventRecord { event: cmd });
        self.doorbell().expect("an event record can always retire");
        let t_ns = self.cmd_event_ns(cmd).unwrap_or(0);
        GpuEvent {
            stream: stream.0,
            t_ns,
            cmd,
        }
    }

    /// Makes all future work on `stream` wait for `event`
    /// (`cudaStreamWaitEvent`): the stream's next-free slot is pushed to at
    /// least the event timestamp. Costs no simulated time itself.
    pub fn stream_wait(&self, stream: StreamId, event: &GpuEvent) {
        self.submit(stream, Command::EventWait { event: event.cmd });
        self.doorbell()
            .expect("an eager stream_wait needs an already-recorded event");
    }

    /// Device ordinal (0-based).
    pub fn ordinal(&self) -> u32 {
        self.ordinal
    }

    /// Static architecture description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The recorder this device emits trace events into.
    pub fn recorder(&self) -> &EventRecorder {
        &self.recorder
    }

    /// Current simulated time in nanoseconds: the furthest point any
    /// stream has reached (or the synchronization floor, if later).
    pub fn now_ns(&self) -> u64 {
        let stream_max = self.streams.lock().iter().copied().max().unwrap_or(0);
        stream_max.max(self.clock_ns.load(Ordering::SeqCst))
    }

    /// Bytes of device memory currently allocated.
    pub fn mem_used(&self) -> u64 {
        self.accounting.used()
    }

    /// Number of kernels launched so far.
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched.load(Ordering::Relaxed)
    }

    pub(crate) fn accounting_handle(&self) -> Arc<MemoryAccounting> {
        Arc::clone(&self.accounting)
    }

    /// Reserves `dur_ns` on a stream: the op starts when the stream is
    /// free (but never before the device floor) and returns its start.
    /// Called only from command retirement.
    pub(crate) fn advance_on(&self, stream: StreamId, dur_ns: u64) -> u64 {
        let floor = self.clock_ns.load(Ordering::SeqCst);
        let mut streams = self.streams.lock();
        let slot = &mut streams[stream.0 as usize];
        let start = (*slot).max(floor);
        *slot = start + dur_ns;
        start
    }

    /// Current time on one stream: its next-free slot, or the device
    /// floor if later. Does not move the stream.
    pub(crate) fn stream_time(&self, stream: StreamId) -> u64 {
        let floor = self.clock_ns.load(Ordering::SeqCst);
        self.streams.lock()[stream.0 as usize].max(floor)
    }

    /// Pushes a stream's next-free slot to at least `t_ns` (event-wait
    /// retirement). Costs no simulated time.
    pub(crate) fn wait_until(&self, stream: StreamId, t_ns: u64) {
        let mut streams = self.streams.lock();
        let slot = &mut streams[stream.0 as usize];
        *slot = (*slot).max(t_ns);
    }

    /// Number of streams that exist on this device.
    pub(crate) fn stream_count(&self) -> usize {
        self.streams.lock().len()
    }

    /// Counts one kernel launch (retirement of a non-graph kernel).
    pub(crate) fn count_kernel_launch(&self) {
        self.kernels_launched.fetch_add(1, Ordering::Relaxed);
    }

    /// Reserves `dur_ns` on `stream` with an extra lower bound on the
    /// start: the op begins at `max(stream free, device floor,
    /// not_before_ns)` and the stream's next-free slot moves past it.
    /// Returns the start. Used by cluster collectives to place lockstep
    /// collective steps on per-device comm streams without touching the floor.
    pub(crate) fn reserve_on(&self, stream: StreamId, not_before_ns: u64, dur_ns: u64) -> u64 {
        let floor = self.clock_ns.load(Ordering::SeqCst);
        let mut streams = self.streams.lock();
        let slot = &mut streams[stream.0 as usize];
        let start = (*slot).max(floor).max(not_before_ns);
        *slot = start + dur_ns;
        start
    }

    /// Advances the device clock to at least `t_ns` (used by cluster ops to
    /// model cross-device waits). Returns the new time.
    pub fn advance_to(&self, t_ns: u64) -> u64 {
        let mut cur = self.now_ns();
        while cur < t_ns {
            match self
                .clock_ns
                .compare_exchange(cur, t_ns, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return t_ns,
                Err(actual) => cur = actual,
            }
        }
        cur
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        kind: EventKind,
        name: &str,
        start: u64,
        dur: u64,
        bytes: u64,
        flops: u64,
        occ: f64,
    ) {
        self.record_on(kind, name, 0, start, dur, bytes, flops, occ);
    }

    #[allow(clippy::too_many_arguments)]
    fn record_on(
        &self,
        kind: EventKind,
        name: &str,
        stream: u32,
        start: u64,
        dur: u64,
        bytes: u64,
        flops: u64,
        occ: f64,
    ) {
        self.recorder.record(TraceEvent {
            kind,
            name: name.to_owned(),
            device: self.ordinal,
            stream,
            start_ns: start,
            dur_ns: dur,
            bytes,
            flops,
            occupancy: occ,
            graph: false,
        });
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Allocates an uninitialized-in-spirit (zeroed) buffer of `n` elements.
    /// Like `cudaMalloc`, allocation itself costs no simulated time.
    pub fn alloc_zeroed<T: Copy + Default + Send + Sync + 'static>(
        &self,
        n: usize,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        DeviceBuffer::from_vec(
            vec![T::default(); n],
            self.ordinal,
            Arc::clone(&self.accounting),
        )
    }

    fn transfer_ns(&self, bytes: u64) -> u64 {
        let t =
            self.spec.pcie_latency_ns + bytes as f64 / self.spec.pcie_bandwidth_bytes_per_sec * 1e9;
        t.ceil() as u64
    }

    /// Submits one copy command and rings the doorbell (the eager-wrapper
    /// path shared by all transfer entry points).
    fn charge_copy(
        &self,
        stream: StreamId,
        kind: EventKind,
        name: &str,
        dur_ns: u64,
        bytes: u64,
    ) -> Result<(), GpuError> {
        self.submit(
            stream,
            Command::Copy(CopyCommand {
                name: name.to_owned(),
                kind,
                dur_ns,
                bytes,
                graph: false,
            }),
        );
        self.doorbell()
    }

    /// Copies host data to a new device buffer, charging PCIe time.
    pub fn htod<T: Copy + Send + Sync + 'static>(
        &self,
        host: &[T],
    ) -> Result<DeviceBuffer<T>, GpuError> {
        self.htod_on(StreamId::DEFAULT, host)
    }

    /// Copies a device buffer back to host, charging PCIe time.
    pub fn dtoh<T: Copy + Send + Sync + 'static>(
        &self,
        buf: &DeviceBuffer<T>,
    ) -> Result<Vec<T>, GpuError> {
        self.dtoh_on(StreamId::DEFAULT, buf)
    }

    /// Duplicates a buffer on the same device, charging global-memory time.
    pub fn dtod<T: Copy + Send + Sync + 'static>(
        &self,
        buf: &DeviceBuffer<T>,
    ) -> Result<DeviceBuffer<T>, GpuError> {
        buf.expect_device(self.ordinal)?;
        let copy = DeviceBuffer::from_vec(
            buf.host_view().to_vec(),
            self.ordinal,
            Arc::clone(&self.accounting),
        )?;
        let bytes = 2 * buf.size_bytes(); // read + write
        let dur = (self.spec.memory.latency_ns
            + bytes as f64 / self.spec.memory.bandwidth_bytes_per_sec * 1e9)
            .ceil() as u64;
        self.charge_copy(StreamId::DEFAULT, EventKind::MemcpyD2D, "dtod", dur, bytes)?;
        Ok(copy)
    }

    /// Charges an H2D transfer of `bytes` into pooled device memory on the
    /// default stream, returning the (now resident) lease.
    ///
    /// This is the residency layer's upload primitive: the payload itself
    /// lives in the caller's host structures (the simulator computes on
    /// host RAM), so only the cost and the capacity reservation are
    /// modeled here.
    pub fn htod_pooled(&self, pool: &MemoryPool, bytes: u64) -> Result<PoolLease, GpuError> {
        self.htod_pooled_on(StreamId::DEFAULT, pool, bytes)
    }

    /// [`Self::htod_pooled`] on an explicit stream (`cudaMemcpyAsync` into
    /// a pooled buffer).
    pub fn htod_pooled_on(
        &self,
        stream: StreamId,
        pool: &MemoryPool,
        bytes: u64,
    ) -> Result<PoolLease, GpuError> {
        self.htod_pooled_named_on(stream, pool, bytes, "htod")
    }

    /// [`Self::htod_pooled`] with a caller-supplied event name on the
    /// default stream. Tiered-residency layers use this to label
    /// promotion copies (e.g. `"promote-list"`) so the profiler can
    /// attribute cold-miss traffic separately from first-time uploads.
    pub fn htod_pooled_named(
        &self,
        pool: &MemoryPool,
        bytes: u64,
        name: &str,
    ) -> Result<PoolLease, GpuError> {
        self.htod_pooled_named_on(StreamId::DEFAULT, pool, bytes, name)
    }

    /// [`Self::htod_pooled_named`] on an explicit stream.
    pub fn htod_pooled_named_on(
        &self,
        stream: StreamId,
        pool: &MemoryPool,
        bytes: u64,
        name: &str,
    ) -> Result<PoolLease, GpuError> {
        if pool.device() != self.ordinal {
            return Err(GpuError::WrongDevice {
                expected: pool.device(),
                actual: self.ordinal,
            });
        }
        let lease = pool.lease(bytes)?;
        let dur = self.transfer_ns(bytes);
        self.charge_copy(stream, EventKind::MemcpyH2D, name, dur, bytes)?;
        Ok(lease)
    }

    /// Charges a D2H readback of a pooled buffer on the default stream.
    /// The lease stays resident — reading back does not evict.
    pub fn dtoh_pooled(&self, lease: &PoolLease) -> Result<(), GpuError> {
        self.dtoh_pooled_on(StreamId::DEFAULT, lease)
    }

    /// [`Self::dtoh_pooled`] on an explicit stream.
    pub fn dtoh_pooled_on(&self, stream: StreamId, lease: &PoolLease) -> Result<(), GpuError> {
        if lease.device() != self.ordinal {
            return Err(GpuError::WrongDevice {
                expected: lease.device(),
                actual: self.ordinal,
            });
        }
        let bytes = lease.bytes();
        let dur = self.transfer_ns(bytes);
        self.charge_copy(stream, EventKind::MemcpyD2H, "dtoh", dur, bytes)
    }

    // ------------------------------------------------------------------
    // Kernel launch
    // ------------------------------------------------------------------

    fn validate(
        &self,
        cfg: &LaunchConfig,
        profile: &KernelProfile,
    ) -> Result<OccupancyResult, GpuError> {
        if !cfg.grid.is_valid_extent() || !cfg.block.is_valid_extent() {
            return Err(invalid_launch(
                cfg.grid,
                cfg.block,
                "grid/block components must be >= 1",
            ));
        }
        if cfg.threads_per_block() > self.spec.max_threads_per_block as u64 {
            return Err(invalid_launch(
                cfg.grid,
                cfg.block,
                "threads per block exceeds device limit",
            ));
        }
        if cfg.shared_mem_bytes > self.spec.shared_mem_per_sm {
            return Err(invalid_launch(
                cfg.grid,
                cfg.block,
                "shared memory per block exceeds SM capacity",
            ));
        }
        occupancy(&self.spec, cfg, profile.registers_per_thread)
            .ok_or_else(|| invalid_launch(cfg.grid, cfg.block, "launch cannot be placed on an SM"))
    }

    /// Modeled kernel duration, without running anything. Exposed so cost
    /// analyses (and tests) can query the roofline directly.
    pub fn kernel_duration_ns(
        &self,
        cfg: &LaunchConfig,
        profile: &KernelProfile,
    ) -> Result<(u64, OccupancyResult), GpuError> {
        let occ = self.validate(cfg, profile)?;
        // Effective compute throughput scales with occupancy up to ~50%,
        // past which latency is fully hidden — the standard CUDA rule of
        // thumb the course's optimization module teaches.
        let occ_factor = (occ.occupancy * 2.0).clamp(0.05, 1.0);
        let compute_s = profile.flops as f64 / (self.spec.peak_flops() * occ_factor);
        let bw = self.spec.memory.bandwidth_bytes_per_sec * profile.access.bandwidth_efficiency();
        let mem_s = profile.bytes as f64 / bw + self.spec.memory.latency_ns * 1e-9;
        let dur = self.spec.launch_overhead_ns + compute_s.max(mem_s) * 1e9;
        Ok((dur.ceil() as u64, occ))
    }

    /// Asynchronous host-to-device copy on a stream (`cudaMemcpyAsync`).
    pub fn htod_on<T: Copy + Send + Sync + 'static>(
        &self,
        stream: StreamId,
        host: &[T],
    ) -> Result<DeviceBuffer<T>, GpuError> {
        let buf =
            DeviceBuffer::from_vec(host.to_vec(), self.ordinal, Arc::clone(&self.accounting))?;
        let bytes = buf.size_bytes();
        let dur = self.transfer_ns(bytes);
        self.charge_copy(stream, EventKind::MemcpyH2D, "htod", dur, bytes)?;
        Ok(buf)
    }

    /// Asynchronous device-to-host copy on a stream.
    pub fn dtoh_on<T: Copy + Send + Sync + 'static>(
        &self,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
    ) -> Result<Vec<T>, GpuError> {
        buf.expect_device(self.ordinal)?;
        let bytes = buf.size_bytes();
        let dur = self.transfer_ns(bytes);
        self.charge_copy(stream, EventKind::MemcpyD2H, "dtoh", dur, bytes)?;
        Ok(buf.host_view().to_vec())
    }

    /// Records a blocking synchronization point (`cudaDeviceSynchronize`).
    pub fn synchronize(&self) {
        let now = self.now_ns();
        self.record(EventKind::Sync, "device-sync", now, 0, 0, 0, 0.0);
    }

    /// Wraps `body` in an NVTX-style named range on the timeline.
    pub fn range<R>(&self, name: &str, body: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = body();
        let end = self.now_ns();
        self.record(EventKind::Range, name, start, end - start, 0, 0, 0.0);
        out
    }
}

/// Builder describing one kernel launch — the single entry point that
/// replaced the historical `launch`/`launch_on`/`launch_map`/
/// `launch_threads` quartet.
///
/// ```
/// use gpu_sim::prelude::*;
/// use gpu_sim::device::LaunchSpec;
///
/// let gpu = Gpu::new(0, DeviceSpec::t4());
/// let cfg = LaunchConfig::for_elements(1024, 256);
/// let profile = KernelProfile::elementwise(1024, 1, 8);
/// let s = gpu.create_stream();
/// LaunchSpec::new("scale", cfg, profile)
///     .on(s)
///     .run(&gpu, || ())
///     .unwrap();
/// assert_eq!(gpu.kernels_launched(), 1);
/// ```
///
/// Terminals ([`LaunchSpec::run`], [`LaunchSpec::map`],
/// [`LaunchSpec::for_each_thread`]) validate the configuration, run the
/// body on the host, and submit one [`KernelCommand`] with the modeled
/// duration; eagerly ringing the doorbell keeps the timeline identical to
/// the old synchronous charge. During graph capture the command lands in
/// the graph instead.
#[derive(Debug, Clone, Copy)]
pub struct LaunchSpec<'a> {
    name: &'a str,
    cfg: LaunchConfig,
    profile: KernelProfile,
    stream: StreamId,
}

impl<'a> LaunchSpec<'a> {
    /// A launch of `name` with an explicit grid/block configuration,
    /// targeting the default stream.
    pub fn new(name: &'a str, cfg: LaunchConfig, profile: KernelProfile) -> Self {
        Self {
            name,
            cfg,
            profile,
            stream: StreamId::DEFAULT,
        }
    }

    /// Targets an explicit stream (kernels on different streams may
    /// overlap with transfers and each other).
    pub fn on(mut self, stream: StreamId) -> Self {
        self.stream = stream;
        self
    }

    /// Replaces the configuration with a one-thread-per-element grid over
    /// `n` elements (blocks of 256 threads).
    pub fn threads(mut self, n: u64) -> Self {
        self.cfg = LaunchConfig::for_elements(n, 256);
        self
    }

    /// The launch configuration this spec will submit.
    pub fn config(&self) -> &LaunchConfig {
        &self.cfg
    }

    /// Validates, runs `body` (the real computation), and submits the
    /// kernel command. `body` is expected to parallelize itself (e.g.
    /// rayon) if beneficial; the simulated duration comes from the
    /// profile, not wall time.
    pub fn run<R>(&self, gpu: &Gpu, body: impl FnOnce() -> R) -> Result<R, GpuError> {
        let (dur, occ) = gpu.kernel_duration_ns(&self.cfg, &self.profile)?;
        let out = body();
        gpu.submit(
            self.stream,
            Command::Kernel(KernelCommand {
                name: self.name.to_owned(),
                dur_ns: dur,
                bytes: self.profile.bytes,
                flops: self.profile.flops,
                occupancy: occ.occupancy,
                graph: false,
                pricing: Some(crate::kernel::KernelPricing {
                    cfg: self.cfg,
                    profile: self.profile,
                }),
            }),
        );
        gpu.doorbell()?;
        Ok(out)
    }

    /// CUDA's "one thread per output element" idiom, made safe: thread `i`
    /// computes `f(i, n)` into `out[i]`. The grid must cover `out.len()`.
    pub fn map<T, F>(&self, gpu: &Gpu, out: &mut DeviceBuffer<T>, f: F) -> Result<(), GpuError>
    where
        T: Copy + Send + Sync + 'static,
        F: Fn(usize, usize) -> T + Sync,
    {
        out.expect_device(gpu.ordinal)?;
        let n = out.len();
        if self.cfg.total_threads() < n as u64 {
            return Err(GpuError::ShapeMismatch {
                expected: n as u64,
                actual: self.cfg.total_threads(),
            });
        }
        self.run(gpu, || {
            out.host_view_mut()
                .par_iter_mut()
                .enumerate()
                .for_each(|(i, slot)| *slot = f(i, n));
        })
    }

    /// Runs `f(block_idx, thread_idx)` for every thread in the launch,
    /// parallelized over blocks (threads within a block run sequentially,
    /// which legalizes shared-memory-style per-block state in `f`'s
    /// captures only via synchronization). Intended for instructional
    /// kernels.
    pub fn for_each_thread<F>(&self, gpu: &Gpu, f: F) -> Result<(), GpuError>
    where
        F: Fn(Dim3, Dim3) + Sync,
    {
        let grid = self.cfg.grid;
        let block = self.cfg.block;
        self.run(gpu, || {
            (0..grid.count()).into_par_iter().for_each(|b| {
                let bidx = grid.delinearize(b).expect("in range");
                for t in 0..block.count() {
                    let tidx = block.delinearize(t).expect("in range");
                    f(bidx, tidx);
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::AccessPattern;

    fn gpu() -> Gpu {
        Gpu::new(0, DeviceSpec::t4())
    }

    #[test]
    fn htod_dtoh_roundtrip_preserves_data_and_charges_time() {
        let g = gpu();
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let t0 = g.now_ns();
        let buf = g.htod(&data).unwrap();
        let t1 = g.now_ns();
        assert!(t1 > t0, "transfer must cost simulated time");
        let back = g.dtoh(&buf).unwrap();
        assert_eq!(back, data);
        assert!(g.now_ns() > t1);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let g = gpu();
        let small = g.transfer_ns(1 << 10);
        let big = g.transfer_ns(1 << 30);
        assert!(big > 100 * small);
    }

    #[test]
    fn alloc_tracks_memory_and_drop_frees() {
        let g = gpu();
        assert_eq!(g.mem_used(), 0);
        let buf = g.alloc_zeroed::<f32>(1024).unwrap();
        assert_eq!(g.mem_used(), 4096);
        drop(buf);
        assert_eq!(g.mem_used(), 0);
    }

    #[test]
    fn oom_on_tiny_device() {
        let g = Gpu::new(0, DeviceSpec::test_tiny());
        // 1 MiB capacity; ask for 2 MiB of f32.
        let err = g.alloc_zeroed::<f32>(512 * 1024).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn launch_map_computes_correctly() {
        let g = gpu();
        let mut out = g.alloc_zeroed::<f32>(1000).unwrap();
        let cfg = LaunchConfig::for_elements(1000, 256);
        LaunchSpec::new("square", cfg, KernelProfile::elementwise(1000, 1, 8))
            .map(&g, &mut out, |i, _| (i as f32) * (i as f32))
            .unwrap();
        let host = g.dtoh(&out).unwrap();
        assert_eq!(host[7], 49.0);
        assert_eq!(host[999], 999.0 * 999.0);
    }

    #[test]
    fn launch_map_rejects_undersized_grid() {
        let g = gpu();
        let mut out = g.alloc_zeroed::<f32>(1000).unwrap();
        let cfg = LaunchConfig::new(Dim3::x(1), Dim3::x(256)); // only 256 threads
        let err = LaunchSpec::new("bad", cfg, KernelProfile::elementwise(1000, 1, 8))
            .map(&g, &mut out, |_, _| 0.0)
            .unwrap_err();
        assert!(matches!(err, GpuError::ShapeMismatch { .. }));
    }

    #[test]
    fn invalid_block_size_rejected() {
        let g = gpu();
        let cfg = LaunchConfig::new(Dim3::x(1), Dim3::x(2048));
        let err = LaunchSpec::new("k", cfg, KernelProfile::elementwise(10, 1, 4))
            .run(&g, || ())
            .unwrap_err();
        assert!(matches!(err, GpuError::InvalidLaunch { .. }));
    }

    #[test]
    fn zero_grid_rejected() {
        let g = gpu();
        let cfg = LaunchConfig::new(Dim3::x(0), Dim3::x(128));
        assert!(
            LaunchSpec::new("k", cfg, KernelProfile::elementwise(10, 1, 4))
                .run(&g, || ())
                .is_err()
        );
    }

    #[test]
    fn memory_bound_kernel_slower_with_worse_access_pattern() {
        let g = gpu();
        let cfg = LaunchConfig::for_elements(1 << 20, 256);
        let base = KernelProfile::elementwise(1 << 20, 1, 12);
        let (coal, _) = g.kernel_duration_ns(&cfg, &base).unwrap();
        let (strided, _) = g
            .kernel_duration_ns(&cfg, &base.with_access(AccessPattern::Strided))
            .unwrap();
        let (random, _) = g
            .kernel_duration_ns(&cfg, &base.with_access(AccessPattern::Random))
            .unwrap();
        assert!(strided > 2 * coal);
        assert!(random > 2 * strided);
    }

    #[test]
    fn compute_bound_kernel_ignores_access_pattern() {
        let g = gpu();
        // Huge FLOPs, tiny bytes: the compute roof dominates either way.
        let cfg = LaunchConfig::for_elements(1 << 16, 256);
        let p = KernelProfile {
            flops: 1 << 40,
            bytes: 1 << 10,
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        };
        let (a, _) = g.kernel_duration_ns(&cfg, &p).unwrap();
        let (b, _) = g
            .kernel_duration_ns(&cfg, &p.with_access(AccessPattern::Random))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn timeline_is_deterministic() {
        let run = || {
            let g = gpu();
            let mut out = g.alloc_zeroed::<f32>(4096).unwrap();
            let cfg = LaunchConfig::for_elements(4096, 128);
            for _ in 0..5 {
                LaunchSpec::new("k", cfg, KernelProfile::elementwise(4096, 2, 8))
                    .map(&g, &mut out, |i, _| i as f32)
                    .unwrap();
            }
            g.now_ns()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn launch_spec_entry_points_share_one_submission_path() {
        // The four LaunchSpec entry points (run / on+run / map /
        // for_each_thread) must price and charge identically: one kernel
        // command each through the same submission path, deterministic
        // across repeated runs, with map results visible on the host.
        let cfg = LaunchConfig::for_elements(1024, 256);
        let profile = KernelProfile::elementwise(1024, 2, 8);
        let run = || {
            let g = gpu();
            let s = g.create_stream();
            let mut out = g.alloc_zeroed::<f32>(1024).unwrap();
            LaunchSpec::new("a", cfg, profile).run(&g, || ()).unwrap();
            LaunchSpec::new("b", cfg, profile)
                .on(s)
                .run(&g, || ())
                .unwrap();
            LaunchSpec::new("c", cfg, profile)
                .map(&g, &mut out, |i, _| i as f32)
                .unwrap();
            LaunchSpec::new("d", cfg, profile)
                .for_each_thread(&g, |_, _| ())
                .unwrap();
            g.synchronize();
            (g.now_ns(), g.kernels_launched(), g.dtoh(&out).unwrap())
        };
        let (now, launches, out) = run();
        assert_eq!(launches, 4, "one launch per entry point");
        assert_eq!(out[17], 17.0, "map wrote through to host");
        // Every entry point priced via kernel_duration_ns: the default
        // stream carries a/c/d, the side stream only b, and the device
        // clock covers both.
        let g = gpu();
        let (dur, _) = g.kernel_duration_ns(&cfg, &profile).unwrap();
        assert_eq!(now, 3 * dur, "default stream serializes a, c, d");
        assert_eq!(run(), (now, launches, out), "deterministic timeline");
    }

    #[test]
    fn events_recorded_in_order_with_kernel_metadata() {
        let g = gpu();
        let data = vec![0f32; 256];
        let buf = g.htod(&data).unwrap();
        let mut out = g.alloc_zeroed::<f32>(256).unwrap();
        let cfg = LaunchConfig::for_elements(256, 128);
        LaunchSpec::new("copy", cfg, KernelProfile::elementwise(256, 0, 8))
            .map(&g, &mut out, |i, _| buf.host_view()[i])
            .unwrap();
        g.synchronize();
        let evs = g.recorder().snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::MemcpyH2D);
        assert_eq!(evs[1].kind, EventKind::Kernel);
        assert_eq!(evs[1].name, "copy");
        assert!(evs[1].start_ns >= evs[0].end_ns());
        assert_eq!(evs[2].kind, EventKind::Sync);
        assert_eq!(g.kernels_launched(), 1);
    }

    #[test]
    fn launch_threads_visits_every_thread_once() {
        use std::sync::atomic::AtomicU32;
        let g = gpu();
        let cfg = LaunchConfig::new(Dim3::xy(4, 2), Dim3::x(32));
        let hits: Vec<AtomicU32> = (0..256).map(|_| AtomicU32::new(0)).collect();
        LaunchSpec::new("count", cfg, KernelProfile::elementwise(256, 1, 4))
            .for_each_thread(&g, |b, t| {
                let bid = Dim3::xy(4, 2).linearize(b).unwrap() as usize;
                let tid = bid * 32 + t.x as usize;
                hits[tid].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn range_wraps_inner_events() {
        let g = gpu();
        g.range("step", || {
            let _ = g.htod(&vec![0u8; 1024]).unwrap();
        });
        let evs = g.recorder().snapshot();
        let range = evs.iter().find(|e| e.kind == EventKind::Range).unwrap();
        let h2d = evs.iter().find(|e| e.kind == EventKind::MemcpyH2D).unwrap();
        assert!(range.start_ns <= h2d.start_ns);
        assert!(range.end_ns() >= h2d.end_ns());
    }

    #[test]
    fn dtod_copies_and_charges_bandwidth_time() {
        let g = gpu();
        let a = g.htod(&vec![5f32; 512]).unwrap();
        let t0 = g.now_ns();
        let b = g.dtod(&a).unwrap();
        assert!(g.now_ns() > t0);
        assert_eq!(b.host_view(), a.host_view());
        assert_eq!(g.mem_used(), 2 * 512 * 4);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let g = gpu();
        g.advance_to(1000);
        assert_eq!(g.now_ns(), 1000);
        g.advance_to(500); // never goes backwards
        assert_eq!(g.now_ns(), 1000);
    }

    #[test]
    fn streams_overlap_copy_and_compute() {
        // Serial: copy then kernel. Streamed: copy on s1 while kernel on s2.
        let serial = {
            let g = gpu();
            let _ = g.htod(&vec![0u8; 8 << 20]).unwrap();
            LaunchSpec::new(
                "k",
                LaunchConfig::for_elements(1 << 20, 256),
                KernelProfile::elementwise(1 << 20, 64, 8),
            )
            .run(&g, || ())
            .unwrap();
            g.now_ns()
        };
        let overlapped = {
            let g = gpu();
            let s1 = g.create_stream();
            let s2 = g.create_stream();
            let _ = g.htod_on(s1, &vec![0u8; 8 << 20]).unwrap();
            LaunchSpec::new(
                "k",
                LaunchConfig::for_elements(1 << 20, 256),
                KernelProfile::elementwise(1 << 20, 64, 8),
            )
            .on(s2)
            .run(&g, || ())
            .unwrap();
            g.sync_streams()
        };
        assert!(
            overlapped < serial,
            "overlap {overlapped} should beat serial {serial}"
        );
        // The overlapped makespan is the max of the two durations, not the sum.
        assert!(overlapped as f64 > 0.45 * serial as f64);
    }

    #[test]
    fn same_stream_operations_serialize() {
        let g = gpu();
        let s = g.create_stream();
        let cfg = LaunchConfig::for_elements(1 << 16, 256);
        let p = KernelProfile::elementwise(1 << 16, 4, 8);
        LaunchSpec::new("a", cfg, p).on(s).run(&g, || ()).unwrap();
        LaunchSpec::new("b", cfg, p).on(s).run(&g, || ()).unwrap();
        let evs = g.recorder().snapshot();
        assert_eq!(evs.len(), 2);
        assert!(evs[1].start_ns >= evs[0].end_ns(), "in-stream ordering");
        assert_eq!(evs[0].stream, s.ordinal());
    }

    #[test]
    fn sync_streams_aligns_everything() {
        let g = gpu();
        let s1 = g.create_stream();
        let _ = g.htod_on(s1, &vec![0u8; 1 << 20]).unwrap();
        let t = g.sync_streams();
        assert_eq!(t, g.now_ns());
        // A default-stream op after the sync starts at or after t.
        let _ = g.htod(&vec![0u8; 1024]).unwrap();
        let last = g.recorder().snapshot().into_iter().last().unwrap();
        assert!(last.start_ns >= t);
    }

    #[test]
    fn stream_events_carry_their_ordinal() {
        let g = gpu();
        let s1 = g.create_stream();
        let s2 = g.create_stream();
        assert_ne!(s1, s2);
        let _ = g.htod_on(s2, &[0u8; 64]).unwrap();
        let ev = g.recorder().snapshot().into_iter().next().unwrap();
        assert_eq!(ev.stream, s2.ordinal());
        assert_eq!(StreamId::DEFAULT.ordinal(), 0);
    }

    #[test]
    fn two_stream_makespan_never_exceeds_serial_sum() {
        // Makespan of N ops spread over two streams is bounded above by the
        // serial sum of their durations (and below by the longest op).
        let durations: Vec<u64> = {
            let g = gpu();
            let sizes = [1usize << 18, 1 << 20, 1 << 16, 1 << 19];
            sizes
                .iter()
                .map(|&n| {
                    let t0 = g.now_ns();
                    let _ = g.htod(&vec![0u8; n]).unwrap();
                    g.now_ns() - t0
                })
                .collect()
        };
        let serial_sum: u64 = durations.iter().sum();
        let longest = *durations.iter().max().unwrap();
        let overlapped = {
            let g = gpu();
            let s1 = g.create_stream();
            let s2 = g.create_stream();
            for (i, &n) in [1usize << 18, 1 << 20, 1 << 16, 1 << 19].iter().enumerate() {
                let s = if i % 2 == 0 { s1 } else { s2 };
                let _ = g.htod_on(s, &vec![0u8; n]).unwrap();
            }
            g.sync_streams()
        };
        assert!(overlapped <= serial_sum, "{overlapped} > {serial_sum}");
        assert!(overlapped >= longest);
    }

    #[test]
    fn per_stream_events_are_monotonic() {
        let g = gpu();
        let s = g.create_stream();
        let cfg = LaunchConfig::for_elements(1 << 14, 256);
        let p = KernelProfile::elementwise(1 << 14, 2, 8);
        let mut last = g.record_event(s).timestamp_ns();
        for _ in 0..4 {
            LaunchSpec::new("k", cfg, p).on(s).run(&g, || ()).unwrap();
            let t = g.record_event(s).timestamp_ns();
            assert!(t > last, "stream clock must advance per launch");
            last = t;
        }
    }

    #[test]
    fn stream_wait_orders_consumer_after_producer() {
        let g = gpu();
        let producer = g.create_stream();
        let consumer = g.create_stream();
        // Producer: a sizeable H2D copy. Record an event after it.
        let _ = g.htod_on(producer, &vec![0u8; 4 << 20]).unwrap();
        let ev = g.record_event(producer);
        assert!(ev.timestamp_ns() > 0);
        assert_eq!(ev.stream_ordinal(), producer.ordinal());
        // Consumer waits on the event, then launches.
        g.stream_wait(consumer, &ev);
        LaunchSpec::new(
            "use",
            LaunchConfig::for_elements(1 << 10, 256),
            KernelProfile::elementwise(1 << 10, 1, 8),
        )
        .on(consumer)
        .run(&g, || ())
        .unwrap();
        let evs = g.recorder().snapshot();
        let kernel = evs.iter().find(|e| e.kind == EventKind::Kernel).unwrap();
        assert!(
            kernel.start_ns >= ev.timestamp_ns(),
            "consumer kernel must start after the producer event"
        );
        // Without the wait, an identical kernel on a fresh stream starts at 0.
        let free = g.create_stream();
        LaunchSpec::new(
            "unordered",
            LaunchConfig::for_elements(1 << 10, 256),
            KernelProfile::elementwise(1 << 10, 1, 8),
        )
        .on(free)
        .run(&g, || ())
        .unwrap();
        let unordered = g
            .recorder()
            .snapshot()
            .into_iter()
            .find(|e| e.name == "unordered")
            .unwrap();
        assert!(unordered.start_ns < ev.timestamp_ns());
    }

    #[test]
    fn wrong_device_buffer_rejected() {
        let g0 = Gpu::new(0, DeviceSpec::t4());
        let g1 = Gpu::new(1, DeviceSpec::t4());
        let buf = g0.htod(&[1f32; 16]).unwrap();
        assert!(matches!(g1.dtoh(&buf), Err(GpuError::WrongDevice { .. })));
    }
}
