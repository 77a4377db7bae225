//! Row-major dense f32 matrices/vectors.

use crate::kernels::{self, Isa};
use crate::TensorError;
use rand::Rng;
use rayon::prelude::*;
use std::borrow::Cow;

/// A dense, row-major f32 tensor of rank ≤ 2.
///
/// Vectors are represented as `1 × n` or `n × 1` matrices; the curriculum's
/// workloads never need higher rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// An `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// An `rows × cols` tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// An `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{rows}x{cols} = {} elements", rows * cols),
                got: format!("{} elements", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Builds from row slices (all rows must share a length).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        assert!(rows.iter().all(|x| x.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Standard-normal random tensor (Box–Muller over the given RNG).
    pub fn randn(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen();
                ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
            })
            .collect();
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialization for a layer `in_dim × out_dim`.
    pub fn xavier(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f64).sqrt() as f32;
        let data = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Self {
            rows: in_dim,
            cols: out_dim,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn zip_check(&self, other: &Self) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                got: format!("{}x{}", other.rows, other.cols),
            });
        }
        Ok(())
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_check(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_check(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_check(other)?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * k).collect(),
        }
    }

    /// Adds a `1 × cols` bias row to every row.
    pub fn add_row_broadcast(&self, bias: &Self) -> Result<Self, TensorError> {
        if bias.rows != 1 || bias.cols != self.cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("1x{}", self.cols),
                got: format!("{}x{}", bias.rows, bias.cols),
            });
        }
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        Ok(out)
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// ReLU: `+0.0` where `x ≤ 0` (so `-0.0` too), `x` elsewhere. A NaN
    /// passes through, as in PyTorch, so an output is `≤ 0` exactly where
    /// its input is — the rule a ReLU's backward mask needs.
    pub fn relu(&self) -> Self {
        self.map(|x| if x <= 0.0 { 0.0 } else { x })
    }

    /// Transpose, processed in `32 × 32` blocks so both the source reads
    /// and the destination writes stay inside one cache-resident tile —
    /// the naive row-major/column-major walk strides through the whole
    /// matrix for every element on one side.
    pub fn transpose(&self) -> Self {
        const BLOCK: usize = 32;
        let mut out = Self::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(BLOCK) {
            let r_end = (rb + BLOCK).min(self.rows);
            for cb in (0..self.cols).step_by(BLOCK) {
                let c_end = (cb + BLOCK).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Dense matmul `self (m×k) · other (k×n)`, parallelized over tiles of
    /// four output rows.
    ///
    /// Each output element starts at `+0.0` and adds `a[i,kk] · b[kk,j]` in
    /// `kk` order, skipping zero `a[i,kk]`; the product and the sum round
    /// separately (no FMA) and a NaN result is stored as [`f32::NAN`]. The
    /// result is therefore the same bits as that plain scalar loop on every
    /// CPU, whichever compilation of the private `kernels` module runs: on
    /// AVX-512 hosts a 4-row × 64-column register tile, elsewhere one row
    /// at a time. An `m × 0` result is empty.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                expected: format!(
                    "inner dims to agree ({}x{} · {}x{})",
                    self.rows, self.cols, other.rows, other.cols
                ),
                got: format!("{} vs {}", self.cols, other.rows),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        Ok(Self::from_row_tiles(m, n, |isa, i0, out_tile| {
            let a = &self.data[i0 * k..(i0 + out_tile.len() / n) * k];
            kernels::matmul_rows(isa, a, k, &other.data, n, out_tile);
        }))
    }

    /// `selfᵀ · other` for `self` `k × m` and `other` `k × n`, without
    /// building the transpose. The result is bit for bit
    /// `self.transpose().matmul(other)`: output row `i` takes its weights
    /// from column `i` of `self`, in `kk` order, skipping zeros.
    pub fn t_matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                expected: format!(
                    "row counts to agree ({}x{}ᵀ · {}x{})",
                    self.rows, self.cols, other.rows, other.cols
                ),
                got: format!("{} vs {}", self.rows, other.rows),
            });
        }
        let (m, n) = (self.cols, other.cols);
        Ok(Self::from_row_tiles(m, n, |isa, i0, out_tile| {
            kernels::t_matmul_rows(isa, &self.data, m, i0, &other.data, n, out_tile);
        }))
    }

    /// An `m × n` product computed in parallel over tiles of
    /// `kernels::TILE_ROWS` output rows: `tile(isa, i0, out_tile)` fills the
    /// whole rows `i0..` that `out_tile` holds. An `m × 0` result is empty.
    fn from_row_tiles(m: usize, n: usize, tile: impl Fn(Isa, usize, &mut [f32]) + Sync) -> Self {
        let mut data = vec![0.0f32; m * n];
        if n > 0 {
            let isa = Isa::detect();
            data.par_chunks_mut(kernels::TILE_ROWS * n)
                .enumerate()
                .for_each(|(t, out_tile)| tile(isa, t * kernels::TILE_ROWS, out_tile));
        }
        Self {
            rows: m,
            cols: n,
            data,
        }
    }

    /// Row-wise softmax (an `m × 0` tensor is returned as is).
    pub fn softmax_rows(&self) -> Self {
        let mut out = self.clone();
        if self.cols == 0 {
            return out;
        }
        out.data.par_chunks_mut(self.cols).for_each(|row| {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        });
        out
    }

    /// Row-wise log-softmax, numerically stable (an `m × 0` tensor is
    /// returned as is).
    pub fn log_softmax_rows(&self) -> Self {
        let mut out = self.clone();
        if self.cols == 0 {
            return out;
        }
        out.data.par_chunks_mut(self.cols).for_each(|row| {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
            for v in row.iter_mut() {
                *v -= log_sum;
            }
        });
        out
    }

    /// Index of the max element in each row. Uses IEEE total ordering, so
    /// NaN logits rank highest instead of panicking mid-comparison.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.data
            .chunks(self.cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Memory footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }
}

/// A tensor handed over by value, for an API that owns or borrows.
impl From<Tensor> for Cow<'_, Tensor> {
    fn from(t: Tensor) -> Self {
        Cow::Owned(t)
    }
}

/// A tensor lent for `'a`, for an API that owns or borrows.
impl<'a> From<&'a Tensor> for Cow<'a, Tensor> {
    fn from(t: &'a Tensor) -> Self {
        Cow::Borrowed(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_shape() {
        let z = Tensor::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert_eq!(z.len(), 6);
        assert!(Tensor::zeros(0, 0).is_empty());
        let e = Tensor::eye(3);
        assert_eq!(e.get(1, 1), 1.0);
        assert_eq!(e.get(0, 1), 0.0);
        assert_eq!(e.sum(), 3.0);
        assert!(Tensor::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Tensor::ones(3, 4);
        let b = Tensor::ones(4, 5);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (3, 5));
        assert!(c.data().iter().all(|&x| x == 4.0));
        assert!(a.matmul(&Tensor::ones(3, 4)).is_err());
    }

    #[test]
    fn matmul_matches_naive_on_random_input() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Tensor::randn(7, 5, &mut rng);
        let b = Tensor::randn(5, 9, &mut rng);
        let c = a.matmul(&b).unwrap();
        for i in 0..7 {
            for j in 0..9 {
                let mut acc = 0.0;
                for k in 0..5 {
                    acc += a.get(i, k) * b.get(k, j);
                }
                assert!((c.get(i, j) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matmul_is_bitwise_the_accumulating_scalar_loop() {
        // Widths on and off the 64-column register block, zero entries in
        // A (skipped) and non-finite entries in B; NaN results are stored as
        // the canonical `f32::NAN`.
        let mut rng = SmallRng::seed_from_u64(11);
        for &(m, k, n) in &[
            (3, 0, 5),
            (4, 7, 1),
            (5, 9, 64),
            (3, 13, 131),
            (6, 5, 200),
            (9, 130, 4),
            (10, 37, 128),
        ] {
            let mut a = Tensor::randn(m, k, &mut rng);
            let mut b = Tensor::randn(k, n, &mut rng);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            for (i, v) in b.data_mut().iter_mut().enumerate() {
                match i % 17 {
                    0 => *v = f32::INFINITY,
                    5 => *v = -0.0,
                    9 => *v = f32::NAN,
                    _ => {}
                }
            }
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let x = a.get(i, kk);
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        want[i * n + j] += x * b.get(kk, j);
                    }
                }
            }
            for w in want.iter_mut().filter(|w| w.is_nan()) {
                *w = f32::NAN;
            }
            let got = a.matmul(&b).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data()), bits(&want), "{m}x{k}·{k}x{n}");
        }
    }

    #[test]
    fn t_matmul_is_bitwise_transpose_then_matmul() {
        // Zeros in the left operand (skipped, some tile rows only) and
        // non-finite entries on the right, on and off the tile and lane grid.
        let mut rng = SmallRng::seed_from_u64(12);
        for &(k, m, n) in &[
            (0, 3, 5),
            (7, 1, 4),
            (130, 9, 4),
            (37, 10, 128),
            (20, 6, 70),
        ] {
            let mut a = Tensor::randn(k, m, &mut rng);
            let mut b = Tensor::randn(k, n, &mut rng);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
            }
            for (i, v) in b.data_mut().iter_mut().enumerate() {
                match i % 13 {
                    0 => *v = f32::NEG_INFINITY,
                    4 => *v = f32::NAN,
                    _ => {}
                }
            }
            let want = a.transpose().matmul(&b).unwrap();
            let got = a.t_matmul(&b).unwrap();
            assert_eq!(got.shape(), (m, n));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data()), bits(want.data()), "{k}x{m}ᵀ·{k}x{n}");
        }
        assert!(Tensor::ones(3, 2).t_matmul(&Tensor::ones(2, 3)).is_err());
    }

    /// Regression: a right-hand operand with no columns made `matmul` and
    /// `t_matmul` panic ("chunk size must be positive").
    #[test]
    fn zero_width_products_are_empty() {
        let c = Tensor::ones(3, 4).matmul(&Tensor::zeros(4, 0)).unwrap();
        assert_eq!(c.shape(), (3, 0));
        assert!(c.is_empty());
        let c = Tensor::ones(4, 3).t_matmul(&Tensor::zeros(4, 0)).unwrap();
        assert_eq!(c.shape(), (3, 0));
        assert!(c.is_empty());
    }

    /// Regression: softmax over rows of width 0 panicked like `matmul`.
    #[test]
    fn softmax_rows_of_zero_width_is_empty() {
        let s = Tensor::zeros(3, 0).softmax_rows();
        assert_eq!(s.shape(), (3, 0));
    }

    /// Regression: log-softmax over rows of width 0 panicked like `matmul`.
    #[test]
    fn log_softmax_rows_of_zero_width_is_empty() {
        let s = Tensor::zeros(3, 0).log_softmax_rows();
        assert_eq!(s.shape(), (3, 0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        let b = Tensor::ones(2, 2);
        assert_eq!(a.add(&b).unwrap().get(0, 1), -1.0);
        assert_eq!(a.sub(&b).unwrap().get(0, 0), 0.0);
        assert_eq!(a.hadamard(&a).unwrap().get(1, 1), 16.0);
        assert_eq!(a.scale(2.0).get(1, 0), 6.0);
        assert_eq!(a.relu().get(0, 1), 0.0);
        assert_eq!(a.relu().get(1, 0), 3.0);
        assert!(a.add(&Tensor::ones(1, 2)).is_err());
    }

    #[test]
    fn relu_zeroes_non_positive_and_passes_nan() {
        let a = Tensor::from_rows(&[&[-0.0, 0.0, -1e-40, f32::NEG_INFINITY, 2.5, f32::NAN]]);
        let r = a.relu();
        let bits: Vec<u32> = r.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&bits[..4], &[0; 4], "non-positive inputs give +0.0");
        assert_eq!(r.get(0, 4), 2.5);
        assert!(r.get(0, 5).is_nan());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = SmallRng::seed_from_u64(2);
        let a = Tensor::randn(4, 6, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(5, 3), a.get(3, 5));
    }

    #[test]
    fn transpose_crosses_block_boundaries() {
        // Shapes straddling the 32-wide blocking in both dimensions.
        let mut rng = SmallRng::seed_from_u64(7);
        for &(r, c) in &[(1, 1), (31, 33), (32, 32), (33, 31), (65, 2), (2, 65)] {
            let a = Tensor::randn(r, c, &mut rng);
            let t = a.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t.get(j, i), a.get(i, j), "({i},{j}) of {r}x{c}");
                }
            }
        }
    }

    /// Regression: `argmax_rows` used `partial_cmp(..).expect("finite")`
    /// and panicked on the first NaN logit a diverged model produced.
    #[test]
    fn argmax_rows_tolerates_nan_logits() {
        let a = Tensor::from_rows(&[&[1.0, f32::NAN, 0.5], &[0.0, -1.0, 2.0]]);
        let idx = a.argmax_rows();
        // total_cmp ranks NaN above every finite value.
        assert_eq!(idx, vec![1, 2]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_argmax() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[10.0, -10.0, 0.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(s.argmax_rows(), vec![2, 0]);
        // Row 0 ordering preserved.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let a = Tensor::from_rows(&[&[0.5, 1.5, -0.3]]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for c in 0..3 {
            assert!((ls.get(0, c) - s.get(0, c).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_values_without_overflow() {
        let a = Tensor::from_rows(&[&[1000.0, 1001.0, 999.0]]);
        let s = a.softmax_rows();
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn row_broadcast() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let bias = Tensor::from_rows(&[&[10.0, 20.0]]);
        let ab = a.add_row_broadcast(&bias).unwrap();
        assert_eq!(ab.get(2, 1), 26.0);
        assert!(a.add_row_broadcast(&Tensor::ones(2, 2)).is_err());
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(Tensor::zeros(0, 0).mean(), 0.0);
        assert_eq!(a.size_bytes(), 8);
    }

    #[test]
    fn randn_and_xavier_have_sane_statistics() {
        let mut rng = SmallRng::seed_from_u64(3);
        let r = Tensor::randn(100, 100, &mut rng);
        let mean = r.mean();
        assert!(mean.abs() < 0.05, "mean {mean}");
        let var: f32 = r
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
        let x = Tensor::xavier(64, 32, &mut rng);
        let limit = (6.0f32 / 96.0).sqrt();
        assert!(x.data().iter().all(|v| v.abs() <= limit));
    }
}
