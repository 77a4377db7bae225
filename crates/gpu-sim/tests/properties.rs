//! Property-based invariants of the GPU simulator.

use gpu_sim::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transfer time is strictly monotone in bytes and never below latency.
    #[test]
    fn transfer_time_monotone(a in 1usize..1_000_000, b in 1usize..1_000_000) {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let buf_a = gpu.htod(&vec![0u8; a]).unwrap();
        let t_a = gpu.now_ns();
        drop(buf_a);
        let gpu2 = Gpu::new(0, DeviceSpec::t4());
        let buf_b = gpu2.htod(&vec![0u8; b]).unwrap();
        let t_b = gpu2.now_ns();
        drop(buf_b);
        if a < b {
            prop_assert!(t_a <= t_b);
        }
        prop_assert!(t_a as f64 >= DeviceSpec::t4().pcie_latency_ns);
    }

    /// LaunchSpec::map computes f(i) at every index, for any covering config.
    #[test]
    fn launch_map_total_coverage(n in 1usize..4096, block in 1u32..512) {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let mut out = gpu.alloc_zeroed::<f32>(n).unwrap();
        let cfg = LaunchConfig::for_elements(n as u64, block);
        LaunchSpec::new("idx", cfg, KernelProfile::elementwise(n as u64, 1, 8))
            .map(&gpu, &mut out, |i, _| i as f32)
            .unwrap();
        let host = gpu.dtoh(&out).unwrap();
        for (i, &v) in host.iter().enumerate() {
            prop_assert_eq!(v, i as f32);
        }
    }

    /// Command retirement respects stream order and event edges for ANY
    /// batch of kernels spread over streams with record/wait pairs: within
    /// a stream completions retire in submission order back-to-back, and
    /// every waiting command starts at or after the event it waits on.
    #[test]
    fn retirement_respects_stream_and_event_edges(
        durs in proptest::collection::vec(1u64..50_000, 2..24),
        raw_edges in proptest::collection::vec(0usize..(24 * 24), 0..8),
    ) {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let streams = [StreamId::DEFAULT, gpu.create_stream(), gpu.create_stream()];
        // Producer half on stream 1, consumer half on stream 2; an event
        // edge (p, c) orders consumer kernel c after producer kernel p.
        let n = durs.len();
        let mut events = Vec::new();
        for e in &raw_edges {
            let (p, c) = (e / 24, e % 24);
            events.push((p % (n / 2), n / 2 + c % (n - n / 2), gpu.create_cmd_event()));
        }
        let mut kernel_seq = vec![0u64; n];
        for (i, &dur) in durs.iter().enumerate() {
            let stream = streams[if i < n / 2 { 1 } else { 2 }];
            for (_, _, ev) in events.iter().filter(|(_, c, _)| *c == i) {
                gpu.submit(stream, Command::EventWait { event: *ev });
            }
            kernel_seq[i] = gpu.submit(stream, Command::Kernel(KernelCommand {
                name: format!("k{i}"),
                dur_ns: dur,
                bytes: 0,
                flops: 0,
                occupancy: 0.5,
                graph: false,
                pricing: None,
            }));
            for (_, _, ev) in events.iter().filter(|(p, _, _)| *p == i) {
                gpu.submit(stream, Command::EventRecord { event: *ev });
            }
        }
        // Per-stream: completions retire in submission order, back-to-back
        // (a later command never starts before an earlier one ends).
        let all = gpu.sync().unwrap();
        let mut by_seq = std::collections::HashMap::new();
        for s in &streams[1..] {
            let comps: Vec<Completion> = all
                .iter()
                .filter(|c| c.stream == s.ordinal())
                .copied()
                .collect();
            for w in comps.windows(2) {
                prop_assert!(w[0].seq < w[1].seq, "in-stream submission order");
                prop_assert!(w[1].start_ns >= w[0].end_ns, "no overlap within a stream");
            }
            for c in comps {
                by_seq.insert(c.seq, c);
            }
        }
        // Every event edge is respected: the event resolved to the
        // producer kernel's end, and the consumer starts at or after it.
        for (p, c, ev) in &events {
            let t = gpu.cmd_event_ns(*ev);
            prop_assert!(t.is_some(), "all events resolved");
            let t = t.unwrap();
            prop_assert!(t >= by_seq[&kernel_seq[*p]].end_ns, "record after producer");
            prop_assert!(by_seq[&kernel_seq[*c]].start_ns >= t, "consumer after event");
        }
        prop_assert_eq!(gpu.pending_commands(), 0);
        prop_assert_eq!(gpu.kernels_launched(), n as u64);
    }

    /// Replaying a captured random command DAG is deterministic: two
    /// replays of the same trace yield identical per-stream retirement
    /// orders (the full replayed timeline matches event-for-event) and
    /// identical resolved `cmd_event_ns` timestamps.
    #[test]
    fn replay_of_random_dag_is_deterministic(
        durs in proptest::collection::vec(1u64..50_000, 2..16),
        raw_edges in proptest::collection::vec(0usize..(16 * 16), 0..6),
    ) {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let sink = gpu.record_trace();
        let streams = [gpu.create_stream(), gpu.create_stream()];
        let n = durs.len();
        let mut events = Vec::new();
        for e in &raw_edges {
            let (p, c) = (e / 16, e % 16);
            events.push((p % (n / 2), n / 2 + c % (n - n / 2), gpu.create_cmd_event()));
        }
        for (i, &dur) in durs.iter().enumerate() {
            let stream = streams[if i < n / 2 { 0 } else { 1 }];
            for (_, _, ev) in events.iter().filter(|(_, c, _)| *c == i) {
                gpu.submit(stream, Command::EventWait { event: *ev });
            }
            gpu.submit(stream, Command::Kernel(KernelCommand {
                name: format!("k{i}"),
                dur_ns: dur,
                bytes: 0,
                flops: 0,
                occupancy: 0.5,
                graph: false,
                pricing: None,
            }));
            for (_, _, ev) in events.iter().filter(|(p, _, _)| *p == i) {
                gpu.submit(stream, Command::EventRecord { event: *ev });
            }
        }
        gpu.sync().unwrap();
        drop(sink);
        let trace = gpu.finish_trace("prop-dag").unwrap();
        let a = gpu_sim::trace::replay(&trace, &WhatIf::default()).unwrap();
        let b = gpu_sim::trace::replay(&trace, &WhatIf::default()).unwrap();
        prop_assert_eq!(a.event_ns, b.event_ns, "cmd_event_ns must be deterministic");
        prop_assert_eq!(a.per_device_ns, b.per_device_ns);
        prop_assert_eq!(a.sim_time_ns, b.sim_time_ns);
        prop_assert_eq!(a.submissions, b.submissions);
        prop_assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            prop_assert_eq!(&x.name, &y.name);
            prop_assert_eq!((x.stream, x.start_ns, x.dur_ns), (y.stream, y.start_ns, y.dur_ns));
        }
        // And the identity replay agrees with the recorded run itself.
        prop_assert_eq!(a.sim_time_ns, trace.sim_time_ns);
        prop_assert_eq!(a.kernel_launches, trace.kernel_launches);
    }

    /// Occupancy never increases when registers per thread grow.
    #[test]
    fn occupancy_antitone_in_registers(block in 32u32..1024, r1 in 1u32..128, r2 in 1u32..128) {
        let spec = DeviceSpec::t4();
        let cfg = LaunchConfig::new(gpu_sim::Dim3::x(64), gpu_sim::Dim3::x(block));
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let occ_lo = gpu_sim::occupancy::occupancy(&spec, &cfg, lo);
        let occ_hi = gpu_sim::occupancy::occupancy(&spec, &cfg, hi);
        if let (Some(a), Some(b)) = (occ_lo, occ_hi) {
            prop_assert!(a.occupancy >= b.occupancy - 1e-12);
        }
    }

    /// P2P moves conserve data and memory accounting across devices.
    #[test]
    fn p2p_conserves_data(n in 1usize..10_000, val in -1e6f32..1e6) {
        let c = GpuCluster::homogeneous(2, DeviceSpec::t4(), LinkKind::NvLink);
        let d0 = c.device(0).unwrap();
        let d1 = c.device(1).unwrap();
        let buf = d0.htod(&vec![val; n]).unwrap();
        let moved = c.p2p(buf, 1).unwrap();
        prop_assert_eq!(d0.mem_used(), 0);
        prop_assert_eq!(d1.mem_used(), 4 * n as u64);
        let back = d1.dtoh(&moved).unwrap();
        prop_assert!(back.iter().all(|&x| x == val));
    }

    /// Any interleaving of pool leases and frees never overshoots device
    /// capacity, and OOM surfaces as a `GpuError`, never a panic.
    #[test]
    fn pool_never_exceeds_capacity(ops in proptest::collection::vec(0u64..4_000_000, 1..64)) {
        let gpu = Gpu::new(0, DeviceSpec::test_tiny()); // 1 MiB capacity
        let cap = gpu.spec().memory.capacity_bytes;
        let pool = MemoryPool::new(&gpu);
        let mut live = Vec::new();
        for op in ops {
            // Low bit chooses free-vs-keep, the rest is the request size.
            let (free_first, bytes) = (op & 1 == 1, op >> 1);
            if free_first && !live.is_empty() {
                live.pop(); // drop a lease: slab goes back to the cache
            }
            match pool.lease(bytes) {
                Ok(lease) => live.push(lease),
                Err(e) => prop_assert!(matches!(e, GpuError::OutOfMemory { .. })),
            }
            prop_assert!(gpu.mem_used() <= cap, "used {} > cap {}", gpu.mem_used(), cap);
        }
    }

    /// After every lease drops, trimming the cache restores `mem_used()` to
    /// its baseline — the pool leaks nothing.
    #[test]
    fn pool_restores_baseline_after_drops(sizes in proptest::collection::vec(1u64..300_000, 1..32)) {
        let gpu = Gpu::new(0, DeviceSpec::test_tiny());
        let baseline = gpu.mem_used();
        let pool = MemoryPool::new(&gpu);
        let mut live = Vec::new();
        for bytes in sizes {
            if let Ok(lease) = pool.lease(bytes) {
                live.push(lease);
            }
        }
        let stats = pool.stats();
        prop_assert!(stats.high_water_bytes <= gpu.spec().memory.capacity_bytes);
        drop(live);
        pool.trim();
        prop_assert_eq!(gpu.mem_used(), baseline);
        let stats = pool.stats();
        prop_assert_eq!(stats.allocs, stats.frees);
        prop_assert_eq!(stats.in_use_bytes, 0);
        prop_assert_eq!(pool.resident_count(), 0);
    }

    /// Hierarchical collectives keep every step on its own tier: for ANY
    /// payload and island size, intra-island steps are priced from the fast
    /// link (strictly cheaper than even the smallest per-device share moved
    /// over the bridge), bridge steps always pay at least the bridge RTT,
    /// the chunked schedule costs exactly what the blocking cost model
    /// says, and the hierarchical schedule never loses to running the
    /// whole ring over the bridge.
    #[test]
    fn hierarchical_steps_stay_on_their_tier(
        bytes in 1u64..(8 << 20),
        island in 1usize..9,
        n_idx in 0usize..3,
    ) {
        let n = [2usize, 4, 8][n_idx];
        let topo = Topology::TwoTier {
            island,
            intra: LinkKind::NvLink,
            inter: LinkKind::Ethernet,
        };
        let c = GpuCluster::with_topology(n, DeviceSpec::t4(), topo);
        let h = c.all_reduce_chunked(bytes, "g", &vec![0; n]);
        let mono = GpuCluster::with_topology(n, DeviceSpec::t4(), topo).all_reduce_cost(bytes);
        prop_assert_eq!(h.dur_ns(), mono, "chunked and blocking schedules agree");
        let flat_bridge =
            GpuCluster::homogeneous(n, DeviceSpec::t4(), LinkKind::Ethernet).all_reduce_cost(bytes);
        prop_assert!(h.dur_ns() <= flat_bridge, "hierarchy never loses to the flat bridge ring");
        // Pricing the smallest possible per-device share (bytes / n) on the
        // bridge already beats any intra-island step, whose chunk is at
        // least as large: if an intra step somehow got bridge pricing, it
        // would cost at least this much.
        let bridge_floor = LinkKind::Ethernet.step_ns(bytes.div_ceil(n as u64));
        let bridge_rtt = LinkKind::Ethernet.latency_ns();
        for e in c.recorder().snapshot() {
            if e.kind != EventKind::MemcpyP2P {
                continue;
            }
            if e.name.contains("/intra-") {
                prop_assert!(
                    e.dur_ns < bridge_floor,
                    "intra step {} ({} ns) charged bridge-scale time", e.name, e.dur_ns
                );
            } else if e.name.contains("/inter") {
                prop_assert!(e.dur_ns as f64 >= bridge_rtt);
            }
        }
    }

    /// A flat all-reduce over a power-of-two group runs recursive
    /// halving-doubling: the ring's wire bytes up to per-step rounding, in
    /// `2 log2 n` steps instead of `2 (n-1)`, so it is never slower and
    /// strictly faster from `n = 4`. Any other group size keeps the ring to
    /// the nanosecond. The chunked and blocking paths always agree.
    #[test]
    fn power_of_two_groups_halve_and_double_others_keep_the_ring(
        n in 2usize..=64,
        b_idx in 0usize..5,
        l_idx in 0usize..3,
    ) {
        let bytes = [1u64, 17, 2_064, 131_584, 1 << 20][b_idx];
        let link = [LinkKind::Ethernet, LinkKind::Pcie, LinkKind::NvLink][l_idx];
        let c = GpuCluster::homogeneous(n, DeviceSpec::t4(), link);
        let h = c.all_reduce_chunked(bytes, "g", &vec![0; n]);
        let mono = GpuCluster::homogeneous(n, DeviceSpec::t4(), link).all_reduce_cost(bytes);
        prop_assert_eq!(h.dur_ns(), mono, "chunked and blocking schedules agree");
        let (k, ring_chunk) = (n as u64 - 1, bytes.div_ceil(n as u64));
        let ring_bytes = 2 * k * ring_chunk;
        let ring_ns = 2 * k * link.step_ns(ring_chunk);
        if n.is_power_of_two() {
            let half: u64 = (1..=n.trailing_zeros()).map(|i| bytes.div_ceil(1 << i)).sum();
            prop_assert_eq!(h.steps, 2 * u64::from(n.trailing_zeros()));
            prop_assert_eq!(h.per_dev_bytes, 2 * half);
            prop_assert!(h.per_dev_bytes.abs_diff(ring_bytes) <= 2 * k, "same wire bytes");
            prop_assert!(h.dur_ns() <= ring_ns);
            if n >= 4 {
                prop_assert!(h.dur_ns() < ring_ns, "fewer latency terms at n = {}", n);
            }
        } else {
            prop_assert_eq!(h.steps, 2 * k);
            prop_assert_eq!(h.per_dev_bytes, ring_bytes);
            prop_assert_eq!(h.dur_ns(), ring_ns);
            for e in c.recorder().snapshot() {
                prop_assert_eq!((e.bytes, e.dur_ns), (ring_chunk, link.step_ns(ring_chunk)));
            }
        }
    }

    /// The roofline duration equals max(compute, memory) + overhead.
    #[test]
    fn roofline_is_max_of_roofs(flops in 1u64..1_000_000_000_000, bytes in 1u64..1_000_000_000) {
        let gpu = Gpu::new(0, DeviceSpec::t4());
        let cfg = LaunchConfig::for_elements(1 << 16, 256);
        let p = KernelProfile { flops, bytes, access: AccessPattern::Coalesced, registers_per_thread: 32 };
        let (dur, occ) = gpu.kernel_duration_ns(&cfg, &p).unwrap();
        let spec = gpu.spec();
        let occ_factor = (occ.occupancy * 2.0).clamp(0.05, 1.0);
        let compute = flops as f64 / (spec.peak_flops() * occ_factor) * 1e9;
        let mem = bytes as f64 / (spec.memory.bandwidth_bytes_per_sec * 0.85) * 1e9 + spec.memory.latency_ns;
        let expected = spec.launch_overhead_ns + compute.max(mem);
        prop_assert!((dur as f64 - expected).abs() <= expected * 1e-6 + 2.0);
    }
}
