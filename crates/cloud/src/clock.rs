//! The simulated wall clock shared by every cloud subsystem.
//!
//! Cloud billing happens at human time scales (seconds to semesters), so the
//! clock is a plain seconds counter advanced explicitly by the caller —
//! tests and experiments decide how fast time passes, and every run is
//! deterministic.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable, monotonically advancing simulated clock (seconds).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_secs: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds since epoch (t = 0 at creation).
    pub fn now_secs(&self) -> u64 {
        self.now_secs.load(Ordering::SeqCst)
    }

    /// Advances the clock by `secs`.
    pub fn advance_secs(&self, secs: u64) {
        self.now_secs.fetch_add(secs, Ordering::SeqCst);
    }

    /// Advances the clock by whole hours.
    pub fn advance_hours(&self, hours: u64) {
        self.advance_secs(hours * 3600);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_secs(), 0);
        c.advance_secs(90);
        assert_eq!(c.now_secs(), 90);
        c.advance_hours(2);
        assert_eq!(c.now_secs(), 90 + 7200);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_secs(10);
        assert_eq!(b.now_secs(), 10);
    }
}
