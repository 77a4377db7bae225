//! Host row kernels shared by dense [`matmul`](crate::dense::Tensor::matmul)
//! and sparse [`spmm`](crate::sparse::CsrMatrix::spmm).
//!
//! Both products reduce to one loop: an output row is a weighted sum of
//! rows of a dense right-hand side, `out[j] = Σ_t w_t · rhs[r_t, j]`. The
//! kernel holds a [`BLOCK`]-wide slice of the output row in registers across
//! every term, so a term costs one read of `BLOCK` rhs values and no
//! read-modify-write of the output.
//!
//! **Bit-identity contract.** Every output element starts at `0.0` and adds
//! `w_t * rhs[r_t, j]` in term order: one rounding for the product, one for
//! the sum, exactly as a plain scalar loop would. Blocking over `j`
//! never reorders the sum of any one element. Fused multiply-add is never
//! enabled, because it rounds once and so changes result bits.
//!
//! A NaN result is stored as the canonical quiet NaN, [`f32::NAN`]. When
//! both operands of an add are NaN, x86 returns the first one, and the
//! compiler may swap the operands of an add differently in each
//! compilation; without the canonical store the sign of a NaN would depend
//! on the host CPU, and `total_cmp` (behind `argmax_rows`) ranks a NaN by
//! its sign.
//!
//! The same source is compiled twice, once with AVX2 enabled (a 64-wide
//! block is eight 256-bit registers) and once for the baseline target;
//! [`Isa::detect`] picks between them at run time.

/// Output columns kept in registers per pass over the terms.
const BLOCK: usize = 64;

/// Which compilation of the row kernels to run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Isa {
    /// True only when [`Isa::detect`] saw AVX2 on the running CPU.
    avx2: bool,
}

impl Isa {
    /// The baseline-target kernels, valid on every CPU.
    #[cfg(test)]
    pub(crate) const PORTABLE: Isa = Isa { avx2: false };

    /// The fastest kernels the running CPU supports.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            Isa {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa { avx2: false }
        }
    }
}

/// `out = Σ_t w_t · rhs[r_t, ..]` over `terms = (r_t, w_t)`, with `rhs`
/// row-major `n` columns wide and `out.len() == n`.
#[inline(always)]
fn weighted_row_sum<I>(terms: I, rhs: &[f32], n: usize, out: &mut [f32])
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    let mut blocks = out.chunks_exact_mut(BLOCK);
    let mut j0 = 0;
    for out_block in &mut blocks {
        let mut acc = [0.0f32; BLOCK];
        for (r, w) in terms.clone() {
            let rhs_block = &rhs[r * n + j0..][..BLOCK];
            for (a, &b) in acc.iter_mut().zip(rhs_block) {
                *a += w * b;
            }
        }
        for (o, a) in out_block.iter_mut().zip(acc) {
            *o = canonical(a);
        }
        j0 += BLOCK;
    }
    let tail = blocks.into_remainder();
    if tail.is_empty() {
        return;
    }
    tail.fill(0.0);
    for (r, w) in terms {
        let rhs_tail = &rhs[r * n + j0..(r + 1) * n];
        for (a, &b) in tail.iter_mut().zip(rhs_tail) {
            *a += w * b;
        }
    }
    for a in tail {
        *a = canonical(*a);
    }
}

/// `x`, with every NaN replaced by [`f32::NAN`].
#[inline(always)]
fn canonical(x: f32) -> f32 {
    if x.is_nan() {
        f32::NAN
    } else {
        x
    }
}

/// Terms of one dense row: `(kk, a[kk])`, skipping exact zeros (`±0.0`).
#[inline(always)]
fn dense_terms(a_row: &[f32]) -> impl Iterator<Item = (usize, f32)> + Clone + '_ {
    a_row
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a != 0.0)
        .map(|(kk, &a)| (kk, a))
}

/// Terms of one sparse row: every stored `(col, value)`, zeros included.
#[inline(always)]
fn sparse_terms<'a>(
    cols: &'a [usize],
    vals: &'a [f32],
) -> impl Iterator<Item = (usize, f32)> + Clone + 'a {
    cols.iter().copied().zip(vals.iter().copied())
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_row_avx2(a_row: &[f32], rhs: &[f32], n: usize, out: &mut [f32]) {
    weighted_row_sum(dense_terms(a_row), rhs, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn spmm_row_avx2(cols: &[usize], vals: &[f32], rhs: &[f32], n: usize, out: &mut [f32]) {
    weighted_row_sum(sparse_terms(cols, vals), rhs, n, out);
}

/// One row of a dense product: `out = a_row · rhs`, with `rhs` a
/// `a_row.len() × n` row-major matrix.
pub(crate) fn matmul_row(isa: Isa, a_row: &[f32], rhs: &[f32], n: usize, out: &mut [f32]) {
    if isa.avx2 {
        // SAFETY: `isa.avx2` is only ever true when `Isa::detect` found
        // AVX2 on the running CPU, which is all this call requires.
        #[cfg(target_arch = "x86_64")]
        return unsafe { matmul_row_avx2(a_row, rhs, n, out) };
    }
    weighted_row_sum(dense_terms(a_row), rhs, n, out);
}

/// One row of a sparse-dense product: `out = Σ vals[t] · rhs[cols[t], ..]`.
pub(crate) fn spmm_row(
    isa: Isa,
    cols: &[usize],
    vals: &[f32],
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    if isa.avx2 {
        // SAFETY: `isa.avx2` is only ever true when `Isa::detect` found
        // AVX2 on the running CPU, which is all this call requires.
        #[cfg(target_arch = "x86_64")]
        return unsafe { spmm_row_avx2(cols, vals, rhs, n, out) };
    }
    weighted_row_sum(sparse_terms(cols, vals), rhs, n, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference: the plain scalar loop, accumulating straight into the
    /// output row term by term, then the canonical NaN store.
    fn reference_row(terms: &[(usize, f32)], rhs: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n];
        for &(r, w) in terms {
            for (o, &b) in out.iter_mut().zip(&rhs[r * n..(r + 1) * n]) {
                *o += w * b;
            }
        }
        out.into_iter().map(canonical).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values with the awkward cases mixed in: signed zeros, infinities
    /// and NaN, each with about a 1-in-16 chance.
    fn special_mix(raw: &[f32], selector: &[u8]) -> Vec<f32> {
        raw.iter()
            .zip(selector)
            .map(|(&x, &s)| match s {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::NAN,
                _ => x,
            })
            .collect()
    }

    fn dense_case(
        k: usize,
        n: usize,
        a_raw: &[f32],
        a_sel: &[u8],
        b_raw: &[f32],
        b_sel: &[u8],
    ) -> (Vec<f32>, Vec<f32>) {
        // A holds zeros (to exercise the skip) but stays finite; B carries
        // the signed zeros, infinities and NaN.
        let a: Vec<f32> = a_raw[..k]
            .iter()
            .zip(a_sel)
            .map(|(&x, &s)| match s {
                0 => 0.0,
                1 => -0.0,
                _ => x,
            })
            .collect();
        let b = special_mix(&b_raw[..k * n], &b_sel[..k * n]);
        (a, b)
    }

    fn check_all_paths(
        name: &str,
        want: &[f32],
        run: impl Fn(Isa, &mut [f32]),
    ) -> Result<(), TestCaseError> {
        for isa in [Isa::PORTABLE, Isa::detect()] {
            // Pre-fill with garbage: the kernels own every output element.
            let mut got = vec![7.5f32; want.len()];
            run(isa, &mut got);
            prop_assert_eq!(bits(&got), bits(want), "{} {:?}", name, isa);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Dense rows: both compilations equal the scalar reference loop
        /// bit for bit, for widths on and off the 8- and 64-lane grid.
        #[test]
        fn matmul_row_paths_are_bitwise_equal(
            k in 0usize..20,
            n in 1usize..150,
            a_raw in prop::collection::vec(-2.0f32..2.0, 20..21),
            a_sel in prop::collection::vec(0u8..4, 20..21),
            b_raw in prop::collection::vec(-3.0f32..3.0, 3000..3001),
            b_sel in prop::collection::vec(0u8..16, 3000..3001),
        ) {
            let (a, b) = dense_case(k, n, &a_raw, &a_sel, &b_raw, &b_sel);
            let terms: Vec<(usize, f32)> =
                a.iter().copied().enumerate().filter(|&(_, x)| x != 0.0).collect();
            let want = reference_row(&terms, &b, n);
            check_all_paths("matmul", &want, |isa, out| matmul_row(isa, &a, &b, n, out))?;
        }

        /// Sparse rows (duplicate and unsorted columns allowed, explicit
        /// zeros kept): both compilations equal the scalar loop.
        #[test]
        fn spmm_row_paths_are_bitwise_equal(
            nnz in 0usize..24,
            n in 1usize..150,
            cols in prop::collection::vec(0usize..20, 24..25),
            v_raw in prop::collection::vec(-2.0f32..2.0, 24..25),
            v_sel in prop::collection::vec(0u8..8, 24..25),
            b_raw in prop::collection::vec(-3.0f32..3.0, 3000..3001),
            b_sel in prop::collection::vec(0u8..16, 3000..3001),
        ) {
            let vals: Vec<f32> = v_raw[..nnz]
                .iter()
                .zip(&v_sel)
                .map(|(&x, &s)| if s == 0 { 0.0 } else { x })
                .collect();
            let cols = &cols[..nnz];
            let b = special_mix(&b_raw[..20 * n], &b_sel[..20 * n]);
            let terms: Vec<(usize, f32)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            let want = reference_row(&terms, &b, n);
            check_all_paths("spmm", &want, |isa, out| spmm_row(isa, cols, &vals, &b, n, out))?;
        }
    }

    #[test]
    fn edge_shapes_match_reference() {
        // k = 0 and all-zero rows give +0.0 everywhere; -0.0 weights are
        // skipped like +0.0; widths straddle the register block.
        for &n in &[1usize, 7, 8, 9, 63, 64, 65, 128, 131] {
            let b: Vec<f32> = (0..3 * n).map(|i| (i as f32 * 0.37).sin()).collect();
            for a in [vec![], vec![0.0, -0.0, 0.0], vec![-0.0, 1.5, 0.0]] {
                let terms: Vec<(usize, f32)> = a
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, x)| x != 0.0)
                    .collect();
                let want = reference_row(&terms, &b, n);
                for isa in [Isa::PORTABLE, Isa::detect()] {
                    let mut got = vec![f32::NAN; n];
                    matmul_row(isa, &a, &b, n, &mut got);
                    assert_eq!(bits(&got), bits(&want), "n={n} a={a:?} {isa:?}");
                }
            }
            let mut got = vec![f32::NAN; n];
            spmm_row(Isa::detect(), &[], &[], &b, n, &mut got);
            assert!(
                got.iter().all(|x| x.to_bits() == 0),
                "empty sparse row is +0.0"
            );
        }
    }
}
