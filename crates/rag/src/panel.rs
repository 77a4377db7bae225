//! Centroid panels: the one kernel every centroid search runs.
//!
//! Coarse k-means, routing, PQ training, PQ encode, probe planning and the
//! ADC table all score one vector against every row of a small centroid
//! matrix. Scoring a row at a time is one serial add chain per row, so the
//! core mostly waits on add latency. [`Panels`] stores the rows as column
//! panels of [`WIDTH`] rows instead: panel `p` holds rows
//! `p·WIDTH .. p·WIDTH + WIDTH` transposed, one `WIDTH`-lane column per
//! dimension, zero past the last row. One pass over the vector's
//! dimensions then updates `WIDTH` independent accumulators, which the
//! compiler keeps in vector registers.
//!
//! Every score is bit-identical to the row-at-a-time sum. Lane `l` of
//! panel `p` sums row `p·WIDTH + l` alone, in dimension order, from the
//! −0.0 that `Iterator::sum` folds from, with the row's term computed as
//! before (`row · x`, or `(x − row)²` with one rounded subtraction and one
//! rounded multiply) and added as a separate rounded add: Rust never
//! contracts a multiply and an add into an FMA. Lanes never mix, so the
//! padding lanes cannot change a real row's score.
//!
//! The searches apply the scalar rule to the scores in row order: a row
//! wins when its score is strictly better than the best so far, starting
//! from −∞ for the inner-product maximum and +∞ for the L2 minimum at row
//! 0. So the lowest row wins a tie, a NaN score never wins, and a vector
//! with no winning row maps to row 0.

/// Rows per panel: 16 f32 lanes are four SSE or two AVX registers.
pub(crate) const WIDTH: usize = 16;

/// The rule a centroid search ranks rows by.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Metric {
    /// Highest inner product (coarse routing and k-means).
    Dot,
    /// Smallest squared L2 distance (PQ encoding and k-means).
    L2,
}

/// The inner-product term of row element `c` and vector element `x`.
#[inline(always)]
fn dot_term(c: f32, x: f32) -> f32 {
    c * x
}

/// The squared-L2 term of row element `c` and vector element `x`.
#[inline(always)]
fn l2_term(c: f32, x: f32) -> f32 {
    let d = x - c;
    d * d
}

/// A row-major centroid matrix stored as column panels of [`WIDTH`] rows.
#[derive(Debug, Clone)]
pub(crate) struct Panels {
    dim: usize,
    rows: usize,
    /// `rows.div_ceil(WIDTH)` panels of `dim × WIDTH`: row `r`'s element
    /// `d` sits at `(r / WIDTH · dim + d) · WIDTH + r % WIDTH`.
    lanes: Vec<f32>,
}

impl Panels {
    /// Transposes `rows` (row-major, `dim` columns) into panels.
    pub(crate) fn new(rows: &[f32], dim: usize) -> Self {
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "rows must be a whole number of dim-{dim} rows"
        );
        let n = rows.len() / dim;
        let mut lanes = vec![0.0f32; n.div_ceil(WIDTH) * dim * WIDTH];
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            let base = r / WIDTH * dim * WIDTH + r % WIDTH;
            for (d, &x) in row.iter().enumerate() {
                lanes[base + d * WIDTH] = x;
            }
        }
        Self {
            dim,
            rows: n,
            lanes,
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Panel `p`'s per-row sums of `term(row[d], x[d])` over `d` in order.
    /// Lanes past the last row hold the padding rows' sums.
    #[inline(always)]
    fn panel(
        &self,
        p: usize,
        x: impl Iterator<Item = f32>,
        term: impl Fn(f32, f32) -> f32,
    ) -> [f32; WIDTH] {
        let mut acc = [-0.0f32; WIDTH];
        let panel = &self.lanes[p * self.dim * WIDTH..(p + 1) * self.dim * WIDTH];
        for (column, xd) in panel.chunks_exact(WIDTH).zip(x) {
            for (a, &c) in acc.iter_mut().zip(column) {
                *a += term(c, xd);
            }
        }
        acc
    }

    /// The row the scalar rule picks: the scores in row order (panel by
    /// panel, lane by lane), each compared with the best so far.
    #[inline(always)]
    fn select(
        &self,
        x: impl Iterator<Item = f32> + Clone,
        term: impl Fn(f32, f32) -> f32 + Copy,
        better: impl Fn(f32, f32) -> bool + Copy,
        start: f32,
    ) -> usize {
        let (mut best, mut row) = (start, 0);
        for p in 0..self.rows.div_ceil(WIDTH) {
            let scores = self.panel(p, x.clone(), term);
            let valid = (self.rows - p * WIDTH).min(WIDTH);
            for (l, &s) in scores[..valid].iter().enumerate() {
                if better(s, best) {
                    best = s;
                    row = p * WIDTH + l;
                }
            }
        }
        row
    }

    /// Writes `row · x` for every row into `out[..rows]`.
    pub(crate) fn dots_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.dim, "vector dim mismatch");
        for (p, chunk) in out[..self.rows].chunks_mut(WIDTH).enumerate() {
            let scores = self.panel(p, x.iter().copied(), dot_term);
            chunk.copy_from_slice(&scores[..chunk.len()]);
        }
    }

    /// `row · x` for every row.
    pub(crate) fn dots(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows];
        self.dots_into(x, &mut out);
        out
    }

    /// The best row for `x` under `metric`, lowest row on ties. `x`
    /// yields the vector's `dim` elements; it is walked once per panel.
    pub(crate) fn best(
        &self,
        x: impl ExactSizeIterator<Item = f32> + Clone,
        metric: Metric,
    ) -> usize {
        assert_eq!(x.len(), self.dim, "vector dim mismatch");
        match metric {
            Metric::Dot => self.select(x, dot_term, |s, b| s > b, f32::NEG_INFINITY),
            Metric::L2 => self.select(x, l2_term, |s, b| s < b, f32::INFINITY),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::SmallRng;

    /// The row-at-a-time inner product the panel replaces.
    pub(crate) fn scalar_dot(row: &[f32], x: &[f32]) -> f32 {
        row.iter().zip(x).map(|(a, b)| a * b).sum()
    }

    /// The row-at-a-time squared L2 distance the panel replaces.
    pub(crate) fn scalar_l2(x: &[f32], row: &[f32]) -> f32 {
        x.iter()
            .zip(row)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// The scalar argmax rule: strictly greater than the best so far,
    /// starting from −∞ at row 0.
    pub(crate) fn scalar_argmax(rows: &[f32], dim: usize, x: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_score = f32::NEG_INFINITY;
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            let score = scalar_dot(row, x);
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }

    /// The scalar argmin rule: strictly less than the best so far,
    /// starting from +∞ at row 0.
    pub(crate) fn scalar_argmin(rows: &[f32], dim: usize, x: &[f32]) -> usize {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (c, row) in rows.chunks_exact(dim).enumerate() {
            let d = scalar_l2(x, row);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Values that stress the bit rules: signed zeros, NaN, infinities,
    /// huge and tiny magnitudes, and a few repeated small integers (exact
    /// ties).
    fn awkward(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..16) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => f32::MAX,
            6 => f32::MIN_POSITIVE,
            7 => rng.gen_range(-2i32..3) as f32,
            _ => rng.gen_range(-1.0f32..1.0),
        }
    }

    /// Every row's L2 score, read from the panels' lanes.
    fn l2_scores(panels: &Panels, x: &[f32]) -> Vec<f32> {
        (0..panels.rows.div_ceil(WIDTH))
            .flat_map(|p| panels.panel(p, x.iter().copied(), l2_term))
            .take(panels.rows)
            .collect()
    }

    /// Equal bits, or both NaN: Rust leaves the sign and payload of a NaN
    /// that arithmetic produces unspecified (LLVM may swap the operands
    /// of an add or multiply), so not even the scalar sum's NaN bits are
    /// fixed. A NaN never wins a search either way.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn check(rows: &[f32], dim: usize, x: &[f32]) {
        let panels = Panels::new(rows, dim);
        let dots = panels.dots(x);
        let l2 = l2_scores(&panels, x);
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            let want = scalar_dot(row, x);
            assert!(
                same(dots[r], want),
                "dot row {r} dim {dim}: {} vs {want}",
                dots[r]
            );
            let want = scalar_l2(x, row);
            assert!(
                same(l2[r], want),
                "l2 row {r} dim {dim}: {} vs {want}",
                l2[r]
            );
        }
        assert_eq!(
            panels.best(x.iter().copied(), Metric::Dot),
            scalar_argmax(rows, dim, x),
            "argmax dim {dim}"
        );
        assert_eq!(
            panels.best(x.iter().copied(), Metric::L2),
            scalar_argmin(rows, dim, x),
            "argmin dim {dim}"
        );
    }

    #[test]
    fn accumulators_start_where_iterator_sum_starts() {
        let empty: f32 = std::iter::empty::<f32>().sum();
        assert_eq!(empty.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn scores_and_picks_match_the_scalar_rules_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(27);
        for dim in 1..=130 {
            for &n in &[1usize, 17, 257] {
                let uniform: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                check(&uniform, dim, &x);
                let odd: Vec<f32> = (0..n * dim).map(|_| awkward(&mut rng)).collect();
                let y: Vec<f32> = (0..dim).map(|_| awkward(&mut rng)).collect();
                check(&odd, dim, &y);
                check(&odd, dim, &x);
                check(&uniform, dim, &y);
            }
        }
    }

    #[test]
    fn exact_ties_pick_the_lowest_row() {
        // Rows 3, 20 and 40 tie for the best score (in other lanes and
        // panels), and rows 6, 21 and 22 at zero distance (22 shares row
        // 6's lane, 21 sits in the next lane).
        let dim = 4;
        let mut rows = vec![0.25f32; 48 * dim];
        for r in [3, 20, 40] {
            rows[r * dim..(r + 1) * dim].copy_from_slice(&[1.0, 1.0, 0.0, -0.0]);
        }
        let x = [1.0, 1.0, 0.0, 0.0];
        assert_eq!(Panels::new(&rows, dim).best(x.into_iter(), Metric::Dot), 3);
        assert_eq!(scalar_argmax(&rows, dim, &x), 3);
        let mut rows = vec![0.5f32; 48 * dim];
        for r in [22, 21, 6] {
            rows[r * dim..(r + 1) * dim].copy_from_slice(&x);
        }
        let panels = Panels::new(&rows, dim);
        assert_eq!(panels.best(x.iter().copied(), Metric::L2), 6);
        assert_eq!(scalar_argmin(&rows, dim, &x), 6);
        // Signed zeros tie: +0.0 at row 17 does not beat −0.0 at row 2.
        let rows = [
            [-1.0f32].repeat(2),
            vec![-0.0],
            [-1.0f32].repeat(14),
            vec![0.0],
        ]
        .concat();
        assert_eq!(
            Panels::new(&rows, 1).best([1.0].into_iter(), Metric::Dot),
            2
        );
        assert_eq!(scalar_argmax(&rows, 1, &[1.0]), 2);
    }

    #[test]
    fn no_winning_row_maps_to_row_zero() {
        // All-NaN scores and scores equal to the start value never win.
        let rows = vec![f32::NAN; 17 * 3];
        let panels = Panels::new(&rows, 3);
        assert_eq!(panels.best([1.0, 2.0, 3.0].into_iter(), Metric::Dot), 0);
        assert_eq!(panels.best([1.0f32, 2.0, 3.0].into_iter(), Metric::L2), 0);
        let rows = vec![f32::INFINITY; 17];
        let panels = Panels::new(&rows, 1);
        assert_eq!(
            panels.best([-1.0].into_iter(), Metric::Dot),
            0,
            "every score is −∞"
        );
        assert_eq!(
            panels.best([0.0f32].into_iter(), Metric::L2),
            0,
            "every distance is +∞"
        );
    }

    #[test]
    fn padding_lanes_never_win() {
        // One row in a 16-lane panel: the 15 zero padding rows would beat
        // it on both rules if they were scored.
        let panels = Panels::new(&[-1.0, -1.0], 2);
        assert_eq!(panels.best([1.0, 1.0].into_iter(), Metric::Dot), 0);
        let panels = Panels::new(&[-1.0, -1.0, 5.0, 5.0], 2);
        assert_eq!(panels.best([0.0f32, 0.0].into_iter(), Metric::L2), 0);
        assert_eq!(panels.dots(&[1.0, 1.0]), vec![-2.0, 10.0]);
    }
}
