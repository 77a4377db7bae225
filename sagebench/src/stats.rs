//! Seeded load generation and the exact statistics every metric uses.
//!
//! Nothing here touches the system under test: the arrival schedule, the
//! query-popularity draws, the percentile rule and the SLO verdict are pure
//! functions of their inputs, so they are unit-tested on their own.

/// One step of splitmix64: the benchmark's only source of randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in the half-open interval (0, 1], from the top 53 bits.
pub fn unit(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Poisson arrival times (ns after the rung starts) for `rate_per_s`
/// requests per second over `duration_ns`: exponential gaps drawn by
/// inverse CDF from the seeded stream.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut state = seed;
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9) as usize + 16);
    loop {
        t += -unit(&mut state).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Zipf(s = 1) over ranks `0..n`, sampled by binary search over the
/// precomputed cumulative harmonic weights. Rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, state: &mut u64) -> usize {
        let u = unit(state);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Ceil nearest-rank percentile of an ascending sample: the ⌈p·n⌉-th
/// smallest value. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median by the same nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// The `p` percentile of each `window_ns`-long slice of `(due_ns, value)`
/// points, in window order, skipping windows with fewer than
/// `min_samples` points.
pub fn window_percentiles(
    points: &[(u64, f64)],
    window_ns: u64,
    p: f64,
    min_samples: usize,
) -> Vec<f64> {
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(due, v) in points {
        windows.entry(due / window_ns).or_default().push(v);
    }
    windows
        .into_values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|mut w| {
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect()
}

/// The latency limit a rung's p99 must meet.
pub const SLO_P99_MS: f64 = 50.0;
/// How late the generator may submit, at p99, and still count as keeping
/// its schedule.
pub const MAX_GEN_LATE_P99_MS: f64 = 5.0;

/// Everything the SLO verdict looks at for one rung.
#[derive(Debug, Clone)]
pub struct RungOutcome {
    pub rate_rps: f64,
    /// Requests the schedule asked for.
    pub attempted: u64,
    /// Due-to-response wall latency (ms) of each request served correctly,
    /// ascending.
    pub latencies_ms: Vec<f64>,
    /// The same latencies keyed by due time (ns into the rung).
    pub by_due: Vec<(u64, f64)>,
    /// Shed at admission.
    pub shed: u64,
    /// Batch dispatch failed.
    pub failed: u64,
    /// Served, but with hits that differ from the reference.
    pub wrong: u64,
    /// p99 of how late the submitter ran against the schedule (ms).
    pub gen_late_p99_ms: f64,
    /// Requests admitted but not yet answered when the last one was sent.
    pub backlog_at_end: u64,
}

impl RungOutcome {
    pub fn misses(&self) -> u64 {
        self.shed + self.failed + self.wrong
    }

    /// p99 with every miss counted as an infinite latency.
    pub fn p99_with_misses_ms(&self) -> f64 {
        let mut all = self.latencies_ms.clone();
        all.extend((0..self.misses()).map(|_| f64::INFINITY));
        all.sort_by(f64::total_cmp);
        percentile(&all, 0.99).unwrap_or(f64::INFINITY)
    }

    /// The rung meets the SLO when p99 (misses counted as violations) is
    /// within the limit, nothing was shed, and the generator kept its
    /// schedule.
    pub fn meets_slo(&self) -> bool {
        self.attempted > 0
            && self.p99_with_misses_ms() <= SLO_P99_MS
            && self.shed == 0
            && self.gen_late_p99_ms <= MAX_GEN_LATE_P99_MS
    }
}

/// The highest rate among `rungs` that meets the SLO, where every rung
/// below it (in rate order) also met it; 0 when none does.
pub fn max_rate_at_slo(rungs: &[RungOutcome]) -> f64 {
    let mut sorted: Vec<&RungOutcome> = rungs.iter().collect();
    sorted.sort_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps));
    let mut best = 0.0;
    for r in sorted {
        if !r.meets_slo() {
            break;
        }
        best = r.rate_rps;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 1000.0, 2_000_000_000);
        let b = poisson_schedule(7, 1000.0, 2_000_000_000);
        let c = poisson_schedule(8, 1000.0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // 2 000 expected arrivals; a Poisson count stays within 5 sigma.
        let n = a.len() as f64;
        assert!((n - 2000.0).abs() < 5.0 * 2000f64.sqrt(), "{n} arrivals");
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(100);
        let draw = |seed: u64| -> Vec<usize> {
            let mut s = seed;
            (0..5000).map(|_| z.sample(&mut s)).collect()
        };
        assert_eq!(draw(3), draw(3));
        let d = draw(3);
        assert!(d.iter().all(|&r| r < 100));
        let top = d.iter().filter(|&&r| r == 0).count() as f64 / d.len() as f64;
        // P(rank 0) = 1 / H(100) ≈ 0.193.
        assert!((top - 0.193).abs() < 0.03, "rank-0 share {top}");
    }

    #[test]
    fn percentile_is_ceil_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        let small: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.99), Some(10.0), "p99 of 10 is the max");
        assert_eq!(percentile(&small, 0.5), Some(5.0));
        assert_eq!(percentile(&[4.0], 0.01), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_percentiles_split_by_due_time() {
        // Window 0 holds 1..=100, window 1 holds 101..=200 and window 2 a
        // lone point that is too thin to report.
        let pts: Vec<(u64, f64)> = (1..=200u64)
            .map(|i| ((i - 1) / 100 * 1_000, i as f64))
            .chain([(2_500, 7.0)])
            .collect();
        assert_eq!(window_percentiles(&pts, 1_000, 0.99, 10), vec![99.0, 199.0]);
        assert_eq!(
            window_percentiles(&pts, 1_000, 0.5, 1),
            vec![50.0, 150.0, 7.0]
        );
    }

    fn rung(rate: f64, lat_ms: f64, shed: u64, late_ms: f64) -> RungOutcome {
        RungOutcome {
            rate_rps: rate,
            attempted: 200 + shed,
            latencies_ms: vec![lat_ms; 200],
            by_due: Vec::new(),
            shed,
            failed: 0,
            wrong: 0,
            gen_late_p99_ms: late_ms,
            backlog_at_end: 0,
        }
    }

    #[test]
    fn slo_verdict_counts_misses_sheds_and_lateness() {
        assert!(rung(1000.0, 1.0, 0, 0.1).meets_slo());
        assert!(
            !rung(1000.0, 60.0, 0, 0.1).meets_slo(),
            "p99 over the limit"
        );
        assert!(!rung(1000.0, 1.0, 1, 0.1).meets_slo(), "anything shed");
        assert!(
            !rung(1000.0, 1.0, 0, 9.0).meets_slo(),
            "generator fell behind"
        );
        // Three wrong answers in 200 push the p99 past the limit.
        let mut r = rung(1000.0, 1.0, 0, 0.1);
        r.wrong = 3;
        assert!(!r.meets_slo());
        r.wrong = 1;
        assert!(r.meets_slo(), "one miss in 201 stays under the 1% tail");
    }

    #[test]
    fn ladder_takes_the_highest_rung_below_the_first_failure() {
        let rungs = vec![
            rung(4000.0, 1.0, 0, 0.1), // meets, but above a failing rung
            rung(1000.0, 1.0, 0, 0.1),
            rung(2000.0, 80.0, 0, 0.1),
        ];
        assert_eq!(max_rate_at_slo(&rungs), 1000.0);
        assert_eq!(max_rate_at_slo(&rungs[..2]), 4000.0);
        assert_eq!(max_rate_at_slo(&[rung(500.0, 1.0, 2, 0.1)]), 0.0);
    }
}
