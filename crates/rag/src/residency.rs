//! Tiered list residency: hot inverted lists on device, cold lists on host.
//!
//! An index that pins every inverted list's rows in pooled device memory
//! for its lifetime can only serve corpora that fit aggregate GPU memory.
//! [`ListResidency`] breaks that ceiling the way FAISS's
//! `OnDiskInvertedLists` and the PyTorch caching allocator break theirs:
//! rows (full-precision vectors or PQ codes) always *exist* on host (the
//! simulator computes on host RAM anyway), and the manager decides which
//! lists additionally hold a device [`PoolLease`] under a configurable
//! byte **budget**. A probed list that is already resident is
//! a *hit* (no transfer); a cold list is a *miss* that promotes
//! charge-on-miss — victims are evicted until the list fits, then one H2D
//! copy named `"promote-list"` is charged through the residency layer, so
//! the profiler can attribute exposed promotion time separately from
//! first-time uploads.
//!
//! Residency only moves bytes, never values: the scan arithmetic reads the
//! same host-side rows whether a list is hot or cold, so search
//! results are bit-identical to a fully-resident index at every budget.
//! What the budget changes is the *cost* — promotion copies serialize in
//! front of the scan kernel on the command stream, which is exactly the
//! time the A13 serving ablation measures.
//!
//! Victims are picked by exact LRU (oldest last-touch stamp). Evictions
//! drop the lease (slab returns to the pool cache) and then
//! [`gpu_sim::MemoryPool::trim`] hands the cached reservations back to the
//! device ledger — the spill path is the one place the simulator is
//! genuinely under memory pressure.

use gpu_sim::pool::PoolLease;
use gpu_sim::GpuError;
use sagegpu_tensor::gpu_exec::GpuExecutor;

/// Event name promotion copies are charged under, so traces and the
/// profiler can tell cold-miss traffic from first-time `"htod"` uploads.
pub const PROMOTE_COPY_NAME: &str = "promote-list";

/// Per-list residency bookkeeping.
#[derive(Debug, Default)]
struct Slot {
    /// Row bytes this list occupies when resident (0 = empty list).
    bytes: u64,
    /// The device slab while hot; `None` while spilled to host.
    lease: Option<PoolLease>,
    /// Monotonic touch stamp (LRU ordering).
    last_touch: u64,
}

/// Aggregate point-in-time view of a [`ListResidency`] manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Device byte budget for list codes.
    pub budget_bytes: u64,
    /// Total row bytes across all lists (the spillable set).
    pub list_bytes: u64,
    /// Probes that found their list already resident.
    pub hits: u64,
    /// Probes that promoted (or streamed) a cold list.
    pub misses: u64,
    /// Lists evicted to make room.
    pub evictions: u64,
    /// H2D bytes charged by promotions (the host-link cost of misses).
    pub promoted_bytes: u64,
    /// Bytes currently resident under the budget.
    pub resident_bytes: u64,
    /// Peak resident bytes ever reached — must never exceed the budget.
    pub high_water_bytes: u64,
    /// Lists currently resident.
    pub resident_lists: usize,
    /// Total lists managed (including empty ones).
    pub total_lists: usize,
}

impl TierStats {
    /// Fraction of probes served without a host-link transfer.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot; gauge fields
    /// (budget, resident, high-water) keep their current values.
    pub fn since(&self, earlier: &TierStats) -> TierStats {
        TierStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            promoted_bytes: self.promoted_bytes - earlier.promoted_bytes,
            ..*self
        }
    }

    /// Element-wise merge across shards: counters add, gauges add, the
    /// budget and high-water sum (each shard enforces its own slice).
    pub fn merge(&mut self, other: &TierStats) {
        self.budget_bytes += other.budget_bytes;
        self.list_bytes += other.list_bytes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.promoted_bytes += other.promoted_bytes;
        self.resident_bytes += other.resident_bytes;
        self.high_water_bytes += other.high_water_bytes;
        self.resident_lists += other.resident_lists;
        self.total_lists += other.total_lists;
    }
}

/// Budgeted device residency for one index's inverted lists.
///
/// The manager owns the device leases; the index keeps the authoritative
/// host copy of the codes. [`ListResidency::touch`] is the only hot-path
/// entry point: it must be called for every list a scan is about to read,
/// and it returns the H2D bytes the call charged (0 on a hit).
pub struct ListResidency {
    exec: GpuExecutor,
    budget: u64,
    slots: Vec<Slot>,
    /// Monotonic clock for LRU stamps.
    tick: u64,
    resident_bytes: u64,
    high_water: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    promoted_bytes: u64,
}

impl ListResidency {
    /// Creates a cold manager for lists of the given byte sizes. Nothing
    /// is promoted up front: the first probe of each list pays its H2D.
    pub fn new(exec: GpuExecutor, list_bytes: &[u64], budget: u64) -> Self {
        let slots = list_bytes
            .iter()
            .map(|&bytes| Slot {
                bytes,
                ..Slot::default()
            })
            .collect();
        Self {
            exec,
            budget,
            slots,
            tick: 0,
            resident_bytes: 0,
            high_water: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            promoted_bytes: 0,
        }
    }

    /// Shrinks or grows the budget, evicting down immediately when the
    /// resident set no longer fits.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
        if self.resident_bytes > budget {
            self.evict_until_fits(0);
            // Spill path: freshly dropped leases only cache their slabs —
            // hand the reservations back to the device ledger.
            self.exec.pool().trim();
        }
        // The old peak belongs to the old budget regime: restart the
        // high-water mark so `high_water ≤ budget` is checkable against
        // the budget that was actually in force.
        self.high_water = self.resident_bytes;
    }

    /// Ensures `list`'s codes are device-resident, promoting on miss.
    /// Returns the H2D bytes charged (0 on a hit or an empty list).
    ///
    /// A list larger than the whole budget is *streamed*: its copy is
    /// charged and the transient lease dropped immediately, so the
    /// resident set never exceeds the budget even for degenerate shapes.
    pub fn touch(&mut self, list: usize) -> Result<u64, GpuError> {
        self.tick += 1;
        let tick = self.tick;
        let slot = &mut self.slots[list];
        if slot.bytes == 0 {
            return Ok(0);
        }
        if slot.lease.is_some() {
            slot.last_touch = tick;
            self.hits += 1;
            self.exec.residency().record_hit();
            return Ok(0);
        }
        let bytes = slot.bytes;
        self.misses += 1;
        self.exec.residency().record_miss();
        if bytes > self.budget {
            // Oversized list: stream it through a transient lease.
            let lease =
                self.exec
                    .gpu()
                    .htod_pooled_named(self.exec.pool(), bytes, PROMOTE_COPY_NAME)?;
            drop(lease);
            self.exec.pool().trim();
            self.exec.residency().add_h2d(bytes);
            self.promoted_bytes += bytes;
            return Ok(bytes);
        }
        let evicted = self.evict_until_fits(bytes);
        if evicted {
            // Spill path under pressure: dropped leases cached their
            // slabs; trim so the reservation truly leaves the ledger
            // before the promotion reserves anew.
            self.exec.pool().trim();
        }
        let lease =
            self.exec
                .gpu()
                .htod_pooled_named(self.exec.pool(), bytes, PROMOTE_COPY_NAME)?;
        self.exec.residency().add_h2d(bytes);
        self.promoted_bytes += bytes;
        self.resident_bytes += bytes;
        self.high_water = self.high_water.max(self.resident_bytes);
        let slot = &mut self.slots[list];
        slot.lease = Some(lease);
        slot.last_touch = tick;
        Ok(bytes)
    }

    /// Evicts resident lists until `incoming` more bytes fit under the
    /// budget. Returns whether anything was evicted.
    fn evict_until_fits(&mut self, incoming: u64) -> bool {
        let mut any = false;
        while self.resident_bytes + incoming > self.budget {
            let Some(victim) = self.pick_victim() else {
                break;
            };
            let slot = &mut self.slots[victim];
            slot.lease = None; // drop: slab returns to the pool cache
            self.resident_bytes -= slot.bytes;
            self.evictions += 1;
            any = true;
        }
        any
    }

    /// Picks the least recently used resident list, or `None` when nothing
    /// is resident.
    fn pick_victim(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lease.is_some())
            .min_by_key(|(i, s)| (s.last_touch, *i))
            .map(|(i, _)| i)
    }

    /// Aggregate snapshot of the tier.
    pub fn stats(&self) -> TierStats {
        TierStats {
            budget_bytes: self.budget,
            list_bytes: self.slots.iter().map(|s| s.bytes).sum(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            promoted_bytes: self.promoted_bytes,
            resident_bytes: self.resident_bytes,
            high_water_bytes: self.high_water,
            resident_lists: self.slots.iter().filter(|s| s.lease.is_some()).count(),
            total_lists: self.slots.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};
    use std::sync::Arc;

    fn exec() -> GpuExecutor {
        GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())))
    }

    #[test]
    fn cold_touch_promotes_and_charges_h2d() {
        let e = exec();
        let mut res = ListResidency::new(e.clone(), &[1000, 2000, 0], 4096);
        assert_eq!(res.touch(0).unwrap(), 1000);
        assert_eq!(res.touch(0).unwrap(), 0, "second touch is a hit");
        assert_eq!(res.touch(2).unwrap(), 0, "empty lists cost nothing");
        let s = res.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.resident_bytes, 1000);
        assert_eq!(e.residency_snapshot().h2d_bytes, 1000);
        assert!(e.gpu().now_ns() > 0, "promotion must charge stream time");
    }

    #[test]
    fn lru_evicts_coldest_and_never_exceeds_budget() {
        let e = exec();
        let sizes = [1000u64, 1000, 1000, 1000];
        let mut res = ListResidency::new(e.clone(), &sizes, 2500);
        res.touch(0).unwrap();
        res.touch(1).unwrap();
        res.touch(2).unwrap(); // must evict list 0 (coldest)
        assert_eq!(res.stats().evictions, 1);
        assert_eq!(res.touch(1).unwrap(), 0, "list 1 stayed resident"); // refresh 1
        res.touch(3).unwrap(); // must evict 2, not 1
        assert_eq!(res.touch(1).unwrap(), 0, "list 1 stayed resident");
        assert_eq!(res.touch(2).unwrap(), 1000, "list 2 was evicted");
        let s = res.stats();
        assert!(s.high_water_bytes <= s.budget_bytes);
        assert_eq!(s.evictions, 3);
    }

    #[test]
    fn oversized_list_streams_without_residing() {
        let e = exec();
        let mut res = ListResidency::new(e.clone(), &[10_000], 1024);
        assert_eq!(res.touch(0).unwrap(), 10_000);
        let s = res.stats();
        assert_eq!(s.resident_bytes, 0, "streamed list must not reside");
        assert_eq!(s.high_water_bytes, 0);
        assert_eq!(s.promoted_bytes, 10_000);
        assert_eq!(res.touch(0).unwrap(), 10_000, "every touch re-streams");
    }

    #[test]
    fn spill_path_trims_pool_reservations() {
        let e = exec();
        let sizes = [1 << 20, 1 << 20];
        let mut res = ListResidency::new(e.clone(), &sizes, 1 << 20);
        res.touch(0).unwrap();
        let before = e.pool().stats().trims;
        res.touch(1).unwrap(); // evicts 0 → spill path must trim
        assert!(e.pool().stats().trims > before, "spill must call trim()");
        assert!(res.stats().high_water_bytes <= 1 << 20);
    }

    #[test]
    fn shrinking_budget_evicts_down() {
        let e = exec();
        let mut res = ListResidency::new(e.clone(), &[1000, 1000, 1000], 4096);
        res.touch(0).unwrap();
        res.touch(1).unwrap();
        res.touch(2).unwrap();
        assert_eq!(res.stats().resident_bytes, 3000);
        res.set_budget(1500);
        let s = res.stats();
        assert!(s.resident_bytes <= 1500);
        assert_eq!(s.resident_lists, 1);
    }

    #[test]
    fn tier_stats_since_and_merge() {
        let mut a = TierStats {
            budget_bytes: 100,
            hits: 10,
            misses: 4,
            evictions: 2,
            promoted_bytes: 400,
            ..TierStats::default()
        };
        let earlier = TierStats {
            hits: 6,
            misses: 1,
            ..TierStats::default()
        };
        let d = a.since(&earlier);
        assert_eq!(d.hits, 4);
        assert_eq!(d.misses, 3);
        assert_eq!(d.budget_bytes, 100, "gauges keep current values");
        let b = TierStats {
            budget_bytes: 50,
            hits: 2,
            ..TierStats::default()
        };
        a.merge(&b);
        assert_eq!(a.budget_bytes, 150);
        assert_eq!(a.hits, 12);
        assert!((a.hit_ratio() - 12.0 / 16.0).abs() < 1e-12);
    }
}
