//! Compressed sparse row matrices and SpMM.
//!
//! GCN layers compute `Â · X · W` where `Â` is the normalized adjacency —
//! a sparse matrix. Neighbor aggregation (`Â · X`) is the data-dependent
//! gather the course's multi-GPU labs profile, so it gets a first-class
//! CSR implementation here.

use crate::dense::Tensor;
use crate::kernels::{self, Isa};
use crate::TensorError;
use rayon::prelude::*;
use std::fmt;
use std::sync::OnceLock;

/// A CSR (compressed sparse row) f32 matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, length `nnz`.
    indices: Vec<usize>,
    /// Values, length `nnz`.
    values: Vec<f32>,
    /// [`Self::transposed`], built on first use. A matrix is immutable
    /// once built, so the memo never goes stale.
    transposed: TransposeMemo,
}

/// The memoized transpose of a [`CsrMatrix`]. It is derived from the
/// matrix, so it takes no part in equality and prints as filled or empty.
#[derive(Clone, Default)]
struct TransposeMemo(OnceLock<Box<CsrMatrix>>);

impl PartialEq for TransposeMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for TransposeMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = if self.0.get().is_some() {
            "filled"
        } else {
            "empty"
        };
        write!(f, "TransposeMemo({state})")
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the invariants.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, TensorError> {
        if indptr.len() != rows + 1
            || indices.len() != values.len()
            || indptr.first() != Some(&0)
            || *indptr.last().unwrap_or(&0) != indices.len()
            || indptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TensorError::ShapeMismatch {
                expected: "consistent CSR arrays".to_owned(),
                got: format!(
                    "indptr len {} (rows {rows}), nnz {} vs values {}",
                    indptr.len(),
                    indices.len(),
                    values.len()
                ),
            });
        }
        if indices.iter().any(|&c| c >= cols) {
            return Err(TensorError::OutOfBounds {
                index: *indices.iter().find(|&&c| c >= cols).expect("exists"),
                len: cols,
            });
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transposed: TransposeMemo::default(),
        })
    }

    /// Builds from COO triplets (row, col, value); duplicates are summed.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self, TensorError> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(TensorError::OutOfBounds {
                    index: r,
                    len: rows,
                });
            }
            if c >= cols {
                return Err(TensorError::OutOfBounds {
                    index: c,
                    len: cols,
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicate (row, col) entries by summation.
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        let mut current_row = 0usize;
        for (r, c, v) in merged {
            while current_row < r {
                current_row += 1;
                indptr[current_row] = indices.len();
            }
            indices.push(c);
            values.push(v);
        }
        while current_row < rows {
            current_row += 1;
            indptr[current_row] = indices.len();
        }
        Self::new(rows, cols, indptr, indices, values)
    }

    /// Matrix dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the (col, value) entries of a row.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Sparse-dense product `self (m×k) · dense (k×n)`, rayon over rows.
    /// Each output element sums `v · dense[c, j]` in stored-entry order
    /// (explicit zeros included). An `m × 0` result is empty.
    pub fn spmm(&self, dense: &Tensor) -> Result<Tensor, TensorError> {
        if self.cols != dense.rows() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} rows in dense operand", self.cols),
                got: format!("{}", dense.rows()),
            });
        }
        let n = dense.cols();
        let mut out = vec![0.0f32; self.rows * n];
        if n > 0 {
            let isa = Isa::detect();
            out.par_chunks_mut(n).enumerate().for_each(|(r, out_row)| {
                let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
                kernels::spmm_row(
                    isa,
                    &self.indices[lo..hi],
                    &self.values[lo..hi],
                    dense.data(),
                    n,
                    out_row,
                );
            });
        }
        Tensor::from_vec(self.rows, n, out)
    }

    /// Densifies (for tests and small matrices only).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }

    /// Transposed copy (CSR of the transpose): a counting transpose in
    /// O(rows + cols + nnz). Rows are visited in order, so each output row
    /// comes out sorted by column; repeated entries are then summed left to
    /// right, exactly as [`Self::from_triplets`] merges duplicates.
    pub fn transpose(&self) -> Self {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            indptr[c + 1] += indptr[c];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                indices[next[c]] = r;
                values[next[c]] = v;
                next[c] += 1;
            }
        }
        // Merge repeated (row, col) entries in place; `kept` never passes
        // the read position, so nothing is read after being overwritten.
        let mut kept = 0usize;
        for c in 0..self.cols {
            let (lo, hi) = (indptr[c], indptr[c + 1]);
            indptr[c] = kept;
            for p in lo..hi {
                if kept > indptr[c] && indices[kept - 1] == indices[p] {
                    values[kept - 1] += values[p];
                } else {
                    indices[kept] = indices[p];
                    values[kept] = values[p];
                    kept += 1;
                }
            }
        }
        indptr[self.cols] = kept;
        indices.truncate(kept);
        values.truncate(kept);
        Self {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            transposed: TransposeMemo::default(),
        }
    }

    /// [`Self::transpose`], built on the first call and returned by every
    /// later one (a clone made after it copies the memo) — for operands
    /// such as a GCN's `Â`, whose `Âᵀ` every backward pass reads.
    pub fn transposed(&self) -> &CsrMatrix {
        self.transposed.0.get_or_init(|| Box::new(self.transpose()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0]]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn from_triplets_builds_valid_csr() {
        let m = sample();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 4);
        let dense = m.to_dense();
        assert_eq!(dense.get(0, 2), 2.0);
        assert_eq!(dense.get(1, 1), 0.0);
        assert_eq!(dense.get(2, 1), 4.0);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]).unwrap();
        assert_eq!(m.to_dense().get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn spmm_matches_dense_product() {
        let m = sample();
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let got = m.spmm(&x).unwrap();
        let want = m.to_dense().matmul(&x).unwrap();
        assert_eq!(got, want);
    }

    /// Regression: a dense operand with no columns made `spmm` panic
    /// ("chunk size must be positive").
    #[test]
    fn spmm_with_zero_width_operand_is_empty() {
        let m = CsrMatrix::from_triplets(3, 4, &[(0, 1, 2.0), (2, 3, -1.0)]).unwrap();
        let got = m.spmm(&Tensor::zeros(4, 0)).unwrap();
        assert_eq!(got.shape(), (3, 0));
        assert!(got.is_empty());
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(3, 3, 9.0)]).unwrap();
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(3).count(), 1);
        assert_eq!(m.to_dense().get(3, 3), 9.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose().to_dense(), m.to_dense());
    }

    /// Reference transpose: re-sort the swapped triplets through
    /// `from_triplets`.
    fn transpose_via_triplets(m: &CsrMatrix) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(m.nnz());
        for r in 0..m.rows {
            for (c, v) in m.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_triplets(m.cols, m.rows, &triplets).unwrap()
    }

    fn value_bits(m: &CsrMatrix) -> Vec<u32> {
        m.values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn counting_transpose_merges_duplicates_like_from_triplets() {
        // Row 0 repeats column 2 three times (out of order), row 1 is
        // empty, row 3 repeats column 0 as two -0.0 entries; column 1 of
        // the input is empty.
        let m = CsrMatrix::new(
            4,
            3,
            vec![0, 4, 4, 5, 8],
            vec![2, 0, 2, 2, 0, 0, 0, 2],
            vec![0.1, 1.0, 0.2, 0.3, 5.0, -0.0, -0.0, 7.0],
        )
        .unwrap();
        let t = m.transpose();
        let want = transpose_via_triplets(&m);
        assert_eq!(t, want);
        assert_eq!(value_bits(&t), value_bits(&want));
        assert_eq!(t.nnz(), 5);
        assert_eq!(t.row_entries(1).count(), 0);
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        let merged: Vec<u32> = t.row_entries(0).map(|(_, v)| v.to_bits()).collect();
        // The merge starts from the first value, so -0.0 + -0.0 stays -0.0.
        assert_eq!(merged[2], (-0.0f32).to_bits());
    }

    #[test]
    fn transposed_is_memoized_and_ignored_by_equality() {
        let m =
            CsrMatrix::new(3, 2, vec![0, 2, 2, 3], vec![1, 1, 0], vec![0.5, -0.0, 2.0]).unwrap();
        let fresh = m.clone();
        let t = m.transposed();
        assert_eq!(t, &m.transpose());
        assert_eq!(value_bits(t), value_bits(&m.transpose()));
        assert!(std::ptr::eq(t, m.transposed()), "built once");
        assert_eq!(m, fresh);
        assert_eq!(
            format!("{fresh:?}"),
            format!("{m:?}").replace("filled", "empty")
        );
        // A clone taken after the fill carries the memo along.
        let copy = m.clone();
        assert!(format!("{copy:?}").contains("TransposeMemo(filled)"));
        assert_eq!(copy.transposed(), t);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random CSR arrays (unsorted and repeated columns, empty rows)
        /// transpose to exactly what `from_triplets` builds.
        #[test]
        fn counting_transpose_equals_from_triplets(
            rows in 1usize..12,
            cols in 1usize..12,
            lens in prop::collection::vec(0usize..6, 12..13),
            raw_cols in prop::collection::vec(0usize..12, 72..73),
            raw_vals in prop::collection::vec(-4.0f32..4.0, 72..73),
        ) {
            let mut indptr = vec![0usize];
            for &len in &lens[..rows] {
                indptr.push(indptr.last().unwrap() + len);
            }
            let nnz = *indptr.last().unwrap();
            let indices: Vec<usize> = raw_cols[..nnz].iter().map(|&c| c % cols).collect();
            let m = CsrMatrix::new(rows, cols, indptr, indices, raw_vals[..nnz].to_vec()).unwrap();
            let t = m.transpose();
            let want = transpose_via_triplets(&m);
            prop_assert_eq!(&t, &want);
            prop_assert_eq!(value_bits(&t), value_bits(&want));
            prop_assert_eq!(t.transpose(), transpose_via_triplets(&t));
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
        assert!(CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // bad indptr len
        assert!(CsrMatrix::new(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err()); // nnz mismatch
        assert!(CsrMatrix::new(1, 2, vec![0, 1], vec![7], vec![1.0]).is_err()); // col oob
        let m = sample();
        assert!(m.spmm(&Tensor::ones(2, 2)).is_err());
    }
}
