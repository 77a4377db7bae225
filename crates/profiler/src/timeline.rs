//! Per-device timelines: lanes, busy time and utilization.

use gpu_sim::{EventKind, EventRecorder, TraceEvent};
use std::collections::BTreeMap;

/// A profiled timeline: events grouped into per-device lanes.
#[derive(Debug, Clone)]
pub struct Timeline {
    lanes: BTreeMap<u32, Vec<TraceEvent>>,
}

impl Timeline {
    /// Builds a timeline from a recorder snapshot. User ranges are kept in
    /// the lanes but never counted as busy time.
    pub fn from_recorder(recorder: &EventRecorder) -> Self {
        Self::from_events(recorder.snapshot())
    }

    /// Builds from an explicit event list.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let mut lanes: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
        for ev in events {
            lanes.entry(ev.device).or_default().push(ev);
        }
        for lane in lanes.values_mut() {
            lane.sort_by_key(|e| (e.start_ns, e.dur_ns));
        }
        Self { lanes }
    }

    /// Devices present on the timeline.
    pub fn devices(&self) -> Vec<u32> {
        self.lanes.keys().copied().collect()
    }

    /// Events of one device's lane (empty slice if unknown).
    pub fn lane(&self, device: u32) -> &[TraceEvent] {
        self.lanes.get(&device).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Total event count across lanes.
    pub fn len(&self) -> usize {
        self.lanes.values().map(|l| l.len()).sum()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// End of the last non-range event across all devices: the span of the
    /// work [`Self::busy_ns`] counts, however far a user range reaches.
    pub fn makespan_ns(&self) -> u64 {
        self.lanes
            .values()
            .flatten()
            .filter(|e| e.kind != EventKind::Range)
            .map(|e| e.end_ns())
            .max()
            .unwrap_or(0)
    }

    /// Busy nanoseconds of one device (union of non-range event intervals,
    /// so overlapping events are not double-counted).
    pub fn busy_ns(&self, device: u32) -> u64 {
        let mut intervals: Vec<(u64, u64)> = self
            .lane(device)
            .iter()
            .filter(|e| e.kind != EventKind::Range)
            .map(|e| (e.start_ns, e.end_ns()))
            .collect();
        intervals.sort_unstable();
        let mut busy = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in intervals {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    busy += ce - cs;
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            busy += ce - cs;
        }
        busy
    }

    /// Engine-busy nanoseconds of one device: the *sum* of non-range event
    /// durations, so work running concurrently on different streams counts
    /// once per stream. Dividing by the makespan gives the overlap
    /// efficiency — a value above 1× busy time means copies and kernels
    /// genuinely ran side by side.
    pub fn engine_busy_ns(&self, device: u32) -> u64 {
        self.lane(device)
            .iter()
            .filter(|e| e.kind != EventKind::Range)
            .map(|e| e.dur_ns)
            .sum()
    }

    /// Device utilization relative to the *global* makespan, in `[0, 1]`.
    pub fn utilization(&self, device: u32) -> f64 {
        let span = self.makespan_ns();
        if span == 0 {
            return 0.0;
        }
        self.busy_ns(device) as f64 / span as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: u32, kind: EventKind, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name: "x".into(),
            device,
            stream: 0,
            start_ns: start,
            dur_ns: dur,
            bytes: 0,
            flops: 0,
            occupancy: 0.0,
            graph: false,
        }
    }

    #[test]
    fn lanes_group_by_device() {
        let t = Timeline::from_events(vec![
            ev(0, EventKind::Kernel, 0, 10),
            ev(1, EventKind::Kernel, 5, 10),
            ev(0, EventKind::MemcpyH2D, 20, 5),
        ]);
        assert_eq!(t.devices(), vec![0, 1]);
        assert_eq!(t.lane(0).len(), 2);
        assert_eq!(t.lane(1).len(), 1);
        assert_eq!(t.lane(9).len(), 0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn makespan_is_last_event_end() {
        let t = Timeline::from_events(vec![
            ev(0, EventKind::Kernel, 0, 10),
            ev(1, EventKind::Kernel, 90, 15),
        ]);
        assert_eq!(t.makespan_ns(), 105);
        assert!(Timeline::from_events(vec![]).is_empty());
        assert_eq!(Timeline::from_events(vec![]).makespan_ns(), 0);
    }

    #[test]
    fn busy_merges_overlaps_and_skips_ranges() {
        let t = Timeline::from_events(vec![
            ev(0, EventKind::Kernel, 0, 10),
            ev(0, EventKind::Kernel, 5, 10), // overlaps → union [0, 15]
            ev(0, EventKind::MemcpyH2D, 20, 5),
            ev(0, EventKind::Range, 0, 1000), // ignored
        ]);
        assert_eq!(t.busy_ns(0), 20);
    }

    #[test]
    fn engine_busy_counts_overlapped_streams_separately() {
        let mut copy = ev(0, EventKind::MemcpyH2D, 0, 10);
        copy.stream = 1;
        let kernel = ev(0, EventKind::Kernel, 0, 10); // overlaps the stream-1 copy
        let t = Timeline::from_events(vec![
            kernel.clone(),
            copy.clone(),
            ev(0, EventKind::Range, 0, 1000), // ignored
        ]);
        // Union busy time merges the overlap; engine-busy does not.
        assert_eq!(t.busy_ns(0), 10);
        assert_eq!(t.engine_busy_ns(0), 20);
        // Utilization divides the union, so full overlap reads 1.0, not 2.0.
        let t = Timeline::from_events(vec![kernel, copy]);
        assert_eq!(t.utilization(0), 1.0);
    }

    #[test]
    fn a_range_stretches_neither_makespan_nor_utilization() {
        let t = Timeline::from_events(vec![
            ev(0, EventKind::Range, 0, 1000),
            ev(0, EventKind::Kernel, 100, 10),
        ]);
        assert_eq!(t.makespan_ns(), 110);
        assert_eq!(t.utilization(0), 10.0 / 110.0);
        let t = Timeline::from_events(vec![
            ev(0, EventKind::Range, 0, 1000),
            ev(0, EventKind::Kernel, 0, 10),
        ]);
        assert_eq!(t.utilization(0), 1.0);
        assert_eq!(t.len(), 2, "the range stays in its lane");
    }

    #[test]
    fn utilization_is_against_the_global_makespan() {
        let t = Timeline::from_events(vec![
            ev(0, EventKind::Kernel, 0, 100),
            ev(1, EventKind::Kernel, 0, 50),
        ]);
        assert!((t.utilization(0) - 1.0).abs() < 1e-12);
        assert!((t.utilization(1) - 0.5).abs() < 1e-12);
    }
}
