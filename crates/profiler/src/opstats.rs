//! Per-operation aggregate statistics (`nsys stats` style).

use gpu_sim::{EventKind, TraceEvent};
use serde::Serialize;
use std::collections::BTreeMap;

/// Aggregate statistics for one (kind, name) operation group.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OpStats {
    pub kind: EventKind,
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub total_bytes: u64,
    pub total_flops: u64,
    /// Mean achieved occupancy across instances (kernels only).
    pub mean_occupancy: f64,
}

impl OpStats {
    /// Mean duration per instance.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Achieved bandwidth in GB/s (transfers and kernels with bytes).
    pub fn achieved_gbps(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.total_ns as f64
        }
    }

    /// Achieved GFLOP/s.
    pub fn achieved_gflops(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.total_flops as f64 / self.total_ns as f64
        }
    }
}

/// The full per-op table, sorted by total time descending (the profiler's
/// "where did the time go" view).
#[derive(Debug, Clone, Default, Serialize)]
pub struct OpStatsTable {
    pub rows: Vec<OpStats>,
}

impl OpStatsTable {
    /// Aggregates events into the table. User ranges are excluded.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut groups: BTreeMap<(u8, String), OpStats> = BTreeMap::new();
        let kind_ord = |k: EventKind| -> u8 {
            match k {
                EventKind::Kernel => 0,
                EventKind::MemcpyH2D => 1,
                EventKind::MemcpyD2H => 2,
                EventKind::MemcpyD2D => 3,
                EventKind::MemcpyP2P => 4,
                EventKind::Sync => 5,
                EventKind::Range => 6,
            }
        };
        for ev in events.iter().filter(|e| e.kind != EventKind::Range) {
            let entry = groups
                .entry((kind_ord(ev.kind), ev.name.clone()))
                .or_insert_with(|| OpStats {
                    kind: ev.kind,
                    name: ev.name.clone(),
                    count: 0,
                    total_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                    total_bytes: 0,
                    total_flops: 0,
                    mean_occupancy: 0.0,
                });
            entry.count += 1;
            entry.total_ns += ev.dur_ns;
            entry.min_ns = entry.min_ns.min(ev.dur_ns);
            entry.max_ns = entry.max_ns.max(ev.dur_ns);
            entry.total_bytes += ev.bytes;
            entry.total_flops += ev.flops;
            // Running mean of occupancy.
            entry.mean_occupancy += (ev.occupancy - entry.mean_occupancy) / entry.count as f64;
        }
        let mut rows: Vec<OpStats> = groups.into_values().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        Self { rows }
    }

    /// The row for an op name, if present.
    pub fn get(&self, name: &str) -> Option<&OpStats> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Total time across all rows.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.total_ns).sum()
    }

    /// Renders an aligned text table (the artifact students read in labs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<24} {:>7} {:>12} {:>12} {:>10} {:>10} {:>6}\n",
            "kind", "name", "count", "total(us)", "mean(us)", "GB/s", "GFLOP/s", "occ"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<24} {:>7} {:>12.1} {:>12.1} {:>10.2} {:>10.2} {:>6.2}\n",
                r.kind.label(),
                r.name,
                r.count,
                r.total_ns as f64 / 1e3,
                r.mean_ns() / 1e3,
                r.achieved_gbps(),
                r.achieved_gflops(),
                r.mean_occupancy,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &str, dur: u64, bytes: u64, flops: u64, occ: f64) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.into(),
            device: 0,
            stream: 0,
            start_ns: 0,
            dur_ns: dur,
            bytes,
            flops,
            occupancy: occ,
            graph: false,
        }
    }

    #[test]
    fn aggregates_by_name() {
        let table = OpStatsTable::from_events(&[
            ev(EventKind::Kernel, "sgemm", 100, 10, 1000, 0.5),
            ev(EventKind::Kernel, "sgemm", 300, 30, 3000, 1.0),
            ev(EventKind::MemcpyH2D, "htod", 50, 500, 0, 0.0),
        ]);
        let sgemm = table.get("sgemm").unwrap();
        assert_eq!(sgemm.count, 2);
        assert_eq!(sgemm.total_ns, 400);
        assert_eq!(sgemm.min_ns, 100);
        assert_eq!(sgemm.max_ns, 300);
        assert_eq!(sgemm.total_flops, 4000);
        assert!((sgemm.mean_occupancy - 0.75).abs() < 1e-12);
        assert_eq!(sgemm.mean_ns(), 200.0);
    }

    #[test]
    fn sorted_by_total_time_descending() {
        let table = OpStatsTable::from_events(&[
            ev(EventKind::Kernel, "small", 10, 0, 0, 0.0),
            ev(EventKind::Kernel, "big", 1000, 0, 0, 0.0),
        ]);
        assert_eq!(table.rows[0].name, "big");
        assert_eq!(table.rows[1].name, "small");
    }

    #[test]
    fn ranges_excluded() {
        let table = OpStatsTable::from_events(&[ev(EventKind::Range, "epoch", 999, 0, 0, 0.0)]);
        assert!(table.rows.is_empty());
        assert_eq!(table.total_ns(), 0);
    }

    #[test]
    fn achieved_rates() {
        // 1000 bytes in 100 ns → 10 bytes/ns = 10 GB/s.
        let table =
            OpStatsTable::from_events(&[ev(EventKind::MemcpyH2D, "htod", 100, 1000, 0, 0.0)]);
        let row = table.get("htod").unwrap();
        assert!((row.achieved_gbps() - 10.0).abs() < 1e-12);
        assert_eq!(row.achieved_gflops(), 0.0);
    }

    #[test]
    fn render_contains_header_and_rows() {
        let table = OpStatsTable::from_events(&[ev(EventKind::Kernel, "spmm", 100, 0, 0, 0.5)]);
        let text = table.render();
        assert!(text.contains("name"));
        assert!(text.contains("spmm"));
        assert!(text.contains("kernel"));
    }
}
