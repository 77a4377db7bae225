//! Host kernels shared by dense [`matmul`](crate::dense::Tensor::matmul),
//! [`t_matmul`](crate::dense::Tensor::t_matmul) and sparse
//! [`spmm`](crate::sparse::CsrMatrix::spmm).
//!
//! All three products reduce to one loop: an output row is a weighted sum
//! of rows of a dense right-hand side, `out[j] = Σ_t w_t · rhs[r_t, j]`. The
//! row kernel holds a [`BLOCK`]-wide slice of the output row in registers
//! across every term, so a term costs one read of `BLOCK` rhs values and no
//! read-modify-write of the output.
//!
//! **Bit-identity contract.** Every output element starts at `0.0` and adds
//! `w_t * rhs[r_t, j]` in term order: one rounding for the product, one for
//! the sum, exactly as a plain scalar loop would. Blocking over `j` or over
//! output rows never reorders the sum of any one element. Fused
//! multiply-add is never used, because it rounds once and so changes result
//! bits. The dense products skip a zero weight (`±0.0`); `spmm` multiplies
//! every stored entry.
//!
//! A NaN result is stored as the canonical quiet NaN, [`f32::NAN`]. When
//! both operands of an add are NaN, x86 returns the first one, and the
//! compiler may swap the operands of an add differently in each
//! compilation; without the canonical store the sign of a NaN would depend
//! on the host CPU, and `total_cmp` (behind `argmax_rows`) ranks a NaN by
//! its sign.
//!
//! There are three compilations, and [`Isa::detect`] picks the fastest one
//! the running CPU supports:
//!
//! - **portable**: the row kernel for the baseline target;
//! - **AVX2**: the same source with AVX2 enabled (a 64-wide block is eight
//!   256-bit registers);
//! - **AVX-512**: for the dense products, a register tile written with
//!   explicit intrinsics. It computes [`TILE_ROWS`] output rows × 64
//!   columns in sixteen 512-bit accumulators, so each block of a rhs row is
//!   loaded once per tile instead of once per output row. `spmm` rows share
//!   no terms, so it keeps the AVX2 row kernel there.

/// Output columns kept in registers per pass over the terms.
const BLOCK: usize = 64;

/// Output rows per register tile of the AVX-512 dense kernel, and the row
/// count callers hand each parallel task.
pub(crate) const TILE_ROWS: usize = 4;

/// Which compilation of the kernels to run. Only [`Isa::detect`] builds a
/// level above portable, which is what the `unsafe` dispatch relies on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Isa(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Portable,
    /// The CPU has AVX2.
    Avx2,
    /// The CPU has AVX2 and AVX-512F.
    Avx512,
}

impl Isa {
    /// The fastest kernels the running CPU supports.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if !is_x86_feature_detected!("avx2") {
                Isa(Level::Portable)
            } else if is_x86_feature_detected!("avx512f") {
                Isa(Level::Avx512)
            } else {
                Isa(Level::Avx2)
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa(Level::Portable)
        }
    }

    /// Every compilation the running CPU supports, portable first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        let best = Isa::detect().0;
        [Level::Portable, Level::Avx2, Level::Avx512]
            .into_iter()
            .filter(|&level| level <= best)
            .map(Isa)
            .collect()
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

/// Terms of one dense row, given its weights in `kk` order: `(kk, w)`,
/// skipping exact zeros (`±0.0`).
#[inline(always)]
fn dense_terms<I>(weights: I) -> impl Iterator<Item = (usize, f32)> + Clone
where
    I: Iterator<Item = f32> + Clone,
{
    weights.enumerate().filter(|&(_, w)| w != 0.0)
}

/// Terms of one sparse row: every stored `(col, value)`, zeros included.
#[inline(always)]
fn sparse_terms<'a>(
    cols: &'a [usize],
    vals: &'a [f32],
) -> impl Iterator<Item = (usize, f32)> + Clone + 'a {
    cols.iter().copied().zip(vals.iter().copied())
}

/// Row by row: `out = a · rhs`, with `a` row-major `k` wide.
#[inline(always)]
fn matmul_rows_by_row(a: &[f32], k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        weighted_row_sum(dense_terms(a_row.iter().copied()), rhs, n, out_row);
    }
}

/// Row by row: output rows `i0..` of `aᵀ · rhs`, with `a` row-major `m`
/// wide. Output row `i` takes its weights from column `i` of `a`.
#[inline(always)]
fn t_matmul_rows_by_row(a: &[f32], m: usize, i0: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    for (t, out_row) in out.chunks_exact_mut(n).enumerate() {
        let column = a.iter().skip(i0 + t).step_by(m).copied();
        weighted_row_sum(dense_terms(column), rhs, n, out_row);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_rows_avx2(a: &[f32], k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    matmul_rows_by_row(a, k, rhs, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn t_matmul_rows_avx2(a: &[f32], m: usize, i0: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    t_matmul_rows_by_row(a, m, i0, rhs, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn spmm_row_avx2(cols: &[usize], vals: &[f32], rhs: &[f32], n: usize, out: &mut [f32]) {
    weighted_row_sum(sparse_terms(cols, vals), rhs, n, out);
}

/// Rows of a dense product: `out = a · rhs`, where `out` holds whole rows
/// `n > 0` wide, `a` holds the same rows `k` wide, and `rhs` is `k × n`,
/// all row-major.
pub(crate) fn matmul_rows(isa: Isa, a: &[f32], k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
    assert!(
        n > 0 && out.len().is_multiple_of(n) && a.len() == out.len() / n * k && rhs.len() == k * n,
        "matmul_rows operand lengths"
    );
    match isa.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: only `Isa::detect` builds `Level::Avx512`, and only after
        // it found AVX2 and AVX-512F on the running CPU.
        Level::Avx512 => unsafe { avx512::matmul_rows(a, k, rhs, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: only `Isa::detect` builds `Level::Avx2`, and only after it
        // found AVX2 on the running CPU.
        Level::Avx2 => unsafe { matmul_rows_avx2(a, k, rhs, n, out) },
        _ => matmul_rows_by_row(a, k, rhs, n, out),
    }
}

/// Rows `i0..` of a transposed-left product `aᵀ · rhs`, where `a` is
/// `k × m` and `rhs` is `k × n` (`n > 0`), both row-major, and `out` holds
/// whole output rows `n` wide. No transpose of `a` is built.
pub(crate) fn t_matmul_rows(
    isa: Isa,
    a: &[f32],
    m: usize,
    i0: usize,
    rhs: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert!(
        n > 0
            && m > 0
            && out.len().is_multiple_of(n)
            && i0 + out.len() / n <= m
            && a.len().is_multiple_of(m)
            && a.len() / m * n == rhs.len(),
        "t_matmul_rows operand lengths"
    );
    match isa.0 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: only `Isa::detect` builds `Level::Avx512`, and only after
        // it found AVX2 and AVX-512F on the running CPU.
        Level::Avx512 => unsafe { avx512::t_matmul_rows(a, m, i0, rhs, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: only `Isa::detect` builds `Level::Avx2`, and only after it
        // found AVX2 on the running CPU.
        Level::Avx2 => unsafe { t_matmul_rows_avx2(a, m, i0, rhs, n, out) },
        _ => t_matmul_rows_by_row(a, m, i0, rhs, n, out),
    }
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
    if isa.0 >= Level::Avx2 {
        // SAFETY: only `Isa::detect` builds a level at or above
        // `Level::Avx2`, and only after it found AVX2 on the running CPU,
        // which is all this call requires.
        #[cfg(target_arch = "x86_64")]
        return unsafe { spmm_row_avx2(cols, vals, rhs, n, out) };
    }
    weighted_row_sum(sparse_terms(cols, vals), rhs, n, out);
}

/// The AVX-512 register tile for the dense products.
///
/// A tile is `R` output rows (`R` = [`TILE_ROWS`], or 1 for the last rows of
/// a matrix) by one column block. A wide block is 64 columns, four
/// `__m512` per row; the last block of a row (and the whole row when
/// `n < 64`) is one to four vectors whose final one is masked to the
/// columns that exist. Per term `kk` the block loads its slice of rhs row
/// `kk` once and adds `w[r] · b` into every row `r` of the tile.
///
/// Zero weights are skipped per element, as the scalar loop does. In a
/// wide block, when all `R` weights of a term are non-zero, one unbranched
/// step runs; otherwise each row's add is masked by its own `w[r] != 0`.
/// Narrow blocks always take the masked add, a select
/// `acc = (w != 0) ? acc + w·b : acc` with no branch: it leaves the
/// accumulator bit for bit as skipping would, whatever `w · b` is.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BLOCK, TILE_ROWS};
    use std::arch::x86_64::*;

    /// Lanes per `__m512`.
    const LANES: usize = 16;

    /// Rows of `out = a · rhs`, shaped as for [`super::matmul_rows`]: full
    /// tiles of [`TILE_ROWS`] rows, then the remaining rows one at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn matmul_rows(a: &[f32], k: usize, rhs: &[f32], n: usize, out: &mut [f32]) {
        let rows = out.len() / n;
        let (tiled, rest) = out.split_at_mut(rows / TILE_ROWS * TILE_ROWS * n);
        for (t, out_tile) in tiled.chunks_exact_mut(TILE_ROWS * n).enumerate() {
            let a_tile = &a[t * TILE_ROWS * k..(t + 1) * TILE_ROWS * k];
            let (a0, a1) = a_tile.split_at(k);
            let (a1, a2) = a1.split_at(k);
            let (a2, a3) = a2.split_at(k);
            let weights = a0
                .iter()
                .zip(a1)
                .zip(a2)
                .zip(a3)
                .map(|(((&w0, &w1), &w2), &w3)| [w0, w1, w2, w3]);
            // SAFETY: AVX-512F per this function's contract.
            unsafe { tile::<TILE_ROWS, _>(weights, rhs, n, out_tile) };
        }
        let a_rest = &a[rows / TILE_ROWS * TILE_ROWS * k..];
        for (i, out_row) in rest.chunks_exact_mut(n).enumerate() {
            let weights = a_rest[i * k..(i + 1) * k].iter().map(|&w| [w]);
            // SAFETY: AVX-512F per this function's contract.
            unsafe { tile::<1, _>(weights, rhs, n, out_row) };
        }
    }

    /// Rows `i0..` of `out = aᵀ · rhs`, shaped as for
    /// [`super::t_matmul_rows`]. The weights of output rows `i..i + R` for
    /// term `kk` are `a[kk, i..i + R]`, which sit next to each other.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn t_matmul_rows(
        a: &[f32],
        m: usize,
        i0: usize,
        rhs: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let rows = out.len() / n;
        let (tiled, rest) = out.split_at_mut(rows / TILE_ROWS * TILE_ROWS * n);
        for (t, out_tile) in tiled.chunks_exact_mut(TILE_ROWS * n).enumerate() {
            let c0 = i0 + t * TILE_ROWS;
            let weights = a.chunks_exact(m).map(move |a_row| {
                <[f32; TILE_ROWS]>::try_from(&a_row[c0..c0 + TILE_ROWS]).expect("4 columns")
            });
            // SAFETY: AVX-512F per this function's contract.
            unsafe { tile::<TILE_ROWS, _>(weights, rhs, n, out_tile) };
        }
        let c_rest = i0 + rows / TILE_ROWS * TILE_ROWS;
        for (i, out_row) in rest.chunks_exact_mut(n).enumerate() {
            let weights = a.chunks_exact(m).map(move |a_row| [a_row[c_rest + i]]);
            // SAFETY: AVX-512F per this function's contract.
            unsafe { tile::<1, _>(weights, rhs, n, out_row) };
        }
    }

    /// One tile: `out[r, ..] = Σ_kk w_kk[r] · rhs[kk, ..]` for the `R` rows
    /// of `out`, zero weights skipped, over every column block. Terms stop
    /// at the shorter of `weights` and the rows of `rhs`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile<const R: usize, W>(weights: W, rhs: &[f32], n: usize, out: &mut [f32])
    where
        W: Iterator<Item = [f32; R]> + Clone,
    {
        // Every store below relies on this.
        assert_eq!(out.len(), R * n, "tile output length");
        let mut j0 = 0;
        while j0 + BLOCK <= n {
            // SAFETY: AVX-512F per this function's contract; columns
            // `j0..j0 + 64` exist, so all four vectors are whole.
            unsafe { block::<R, 4, false, _>(weights.clone(), rhs, n, j0, !0, out) };
            j0 += BLOCK;
        }
        let rem = n - j0;
        if rem == 0 {
            return;
        }
        let vectors = rem.div_ceil(LANES);
        let last = ((1u32 << (rem - (vectors - 1) * LANES)) - 1) as __mmask16;
        // SAFETY: AVX-512F per this function's contract; the first
        // `vectors - 1` vectors cover columns below `n`, and `last` keeps
        // the `1..=16` columns that remain.
        unsafe {
            match vectors {
                1 => block::<R, 1, true, _>(weights, rhs, n, j0, last, out),
                2 => block::<R, 2, true, _>(weights, rhs, n, j0, last, out),
                3 => block::<R, 3, true, _>(weights, rhs, n, j0, last, out),
                _ => block::<R, 4, true, _>(weights, rhs, n, j0, last, out),
            }
        }
    }

    /// Columns `j0..j0 + 16·C` of a tile (the last vector masked by
    /// `last`), accumulated in `R × C` registers across every term and
    /// stored once, NaNs canonical. `SELECT` makes every step the masked
    /// select; otherwise a step whose `R` weights are all non-zero runs
    /// unmasked.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `out.len() == R * n`, `rhs` holds at
    /// least as many `n`-wide rows as `weights` yields, columns
    /// `j0..j0 + 16·(C - 1)` exist, and `last` has bits only for columns
    /// below `n` in vector `C - 1`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn block<const R: usize, const C: usize, const SELECT: bool, W>(
        weights: W,
        rhs: &[f32],
        n: usize,
        j0: usize,
        last: __mmask16,
        out: &mut [f32],
    ) where
        W: Iterator<Item = [f32; R]>,
    {
        let zero = _mm512_setzero_ps();
        let mut acc = [[zero; C]; R];
        for (w, b_row) in weights.zip(rhs.chunks_exact(n)) {
            let p = b_row.as_ptr();
            let mut b = [zero; C];
            for (c, b) in b.iter_mut().enumerate() {
                let col = j0 + c * LANES;
                // SAFETY: `b_row` is `n` wide; an unmasked vector covers
                // columns `col..col + 16`, which exist by this function's
                // contract, and the masked one reads only lanes in `last`.
                *b = unsafe {
                    if c + 1 < C {
                        _mm512_loadu_ps(p.add(col))
                    } else {
                        _mm512_maskz_loadu_ps(last, p.add(col))
                    }
                };
            }
            if !SELECT && w.iter().all(|&x| x != 0.0) {
                for (acc_r, &w_r) in acc.iter_mut().zip(&w) {
                    let wv = _mm512_set1_ps(w_r);
                    for (a, &b) in acc_r.iter_mut().zip(&b) {
                        *a = _mm512_add_ps(*a, _mm512_mul_ps(wv, b));
                    }
                }
            } else {
                for (acc_r, &w_r) in acc.iter_mut().zip(&w) {
                    let wv = _mm512_set1_ps(w_r);
                    // All lanes when `w_r != 0.0` (NaN included), else none.
                    let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(wv, zero);
                    for (a, &b) in acc_r.iter_mut().zip(&b) {
                        *a = _mm512_mask_add_ps(*a, keep, *a, _mm512_mul_ps(wv, b));
                    }
                }
            }
        }
        let nan = _mm512_set1_ps(f32::NAN);
        for (r, acc_r) in acc.iter().enumerate() {
            for (c, &a) in acc_r.iter().enumerate() {
                let v = _mm512_mask_mov_ps(a, _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(a, a), nan);
                let q = out[r * n..].as_mut_ptr();
                let col = j0 + c * LANES;
                // SAFETY: row `r` of `out` is `n` wide; the unmasked
                // vectors write columns that exist, the masked one only the
                // lanes in `last`.
                unsafe {
                    if c + 1 < C {
                        _mm512_storeu_ps(q.add(col), v)
                    } else {
                        _mm512_mask_storeu_ps(q.add(col), last, v)
                    }
                }
            }
        }
    }
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

    /// Reference rows of `a · rhs` (`a` is `m × k`), zero weights skipped.
    fn reference_matmul(a: &[f32], m: usize, k: usize, rhs: &[f32], n: usize) -> Vec<f32> {
        (0..m)
            .flat_map(|i| {
                let terms: Vec<(usize, f32)> = a[i * k..(i + 1) * k]
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, x)| x != 0.0)
                    .collect();
                reference_row(&terms, rhs, n)
            })
            .collect()
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

    /// A finite left operand with `±0.0` mixed in (to exercise the skip):
    /// selector values 0 and 1 give the two zeros.
    fn with_zeros(raw: &[f32], selector: &[u8]) -> Vec<f32> {
        raw.iter()
            .zip(selector)
            .map(|(&x, &s)| match s {
                0 => 0.0,
                1 => -0.0,
                _ => x,
            })
            .collect()
    }

    /// `a` (`rows × cols`) transposed.
    fn transposed(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols)
            .flat_map(|c| (0..rows).map(move |r| a[r * cols + c]))
            .collect()
    }

    fn check_all_paths(
        name: &str,
        want: &[f32],
        run: impl Fn(Isa, &mut [f32]),
    ) -> Result<(), TestCaseError> {
        for isa in Isa::supported() {
            // Pre-fill with garbage: the kernels own every output element.
            let mut got = vec![7.5f32; want.len()];
            run(isa, &mut got);
            prop_assert_eq!(bits(&got), bits(want), "{} {:?}", name, isa);
        }
        Ok(())
    }

    /// Output width: a narrow one (at most one vector) half the time,
    /// else a width on or off the 16- and 64-lane grid.
    fn width(narrow: u8, n_narrow: usize, n_wide: usize) -> usize {
        if narrow == 1 {
            n_narrow
        } else {
            n_wide
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Dense products: every compilation equals the scalar reference
        /// loop bit for bit. `m ∈ 0..=9` runs zero, one and two full tiles
        /// with every row remainder; the zeros in A (one term in four)
        /// leave most tiles with only some rows zero at a given `kk`.
        #[test]
        fn matmul_row_paths_are_bitwise_equal(
            m in 0usize..=9,
            k in 0usize..20,
            narrow in 0u8..2,
            n_narrow in 1usize..=16,
            n_wide in 17usize..150,
            a_raw in prop::collection::vec(-2.0f32..2.0, 180..181),
            a_sel in prop::collection::vec(0u8..8, 180..181),
            b_raw in prop::collection::vec(-3.0f32..3.0, 3000..3001),
            b_sel in prop::collection::vec(0u8..16, 3000..3001),
        ) {
            let n = width(narrow, n_narrow, n_wide);
            let a = with_zeros(&a_raw[..m * k], &a_sel);
            let b = special_mix(&b_raw[..k * n], &b_sel[..k * n]);
            let want = reference_matmul(&a, m, k, &b, n);
            check_all_paths("matmul", &want, |isa, out| matmul_rows(isa, &a, k, &b, n, out))?;
        }

        /// `aᵀ · rhs` with `a` stored `k × m`: every compilation equals the
        /// reference on the explicit transpose, whether the rows come in
        /// one call or in `TILE_ROWS`-row calls at offsets `i0`.
        #[test]
        fn t_matmul_rows_paths_are_bitwise_equal(
            m in 1usize..=9,
            k in 0usize..20,
            narrow in 0u8..2,
            n_narrow in 1usize..=16,
            n_wide in 17usize..150,
            a_raw in prop::collection::vec(-2.0f32..2.0, 180..181),
            a_sel in prop::collection::vec(0u8..8, 180..181),
            b_raw in prop::collection::vec(-3.0f32..3.0, 3000..3001),
            b_sel in prop::collection::vec(0u8..16, 3000..3001),
        ) {
            let n = width(narrow, n_narrow, n_wide);
            let a = with_zeros(&a_raw[..k * m], &a_sel);
            let b = special_mix(&b_raw[..k * n], &b_sel[..k * n]);
            let want = reference_matmul(&transposed(&a, k, m), m, k, &b, n);
            check_all_paths("t_matmul", &want, |isa, out| t_matmul_rows(isa, &a, m, 0, &b, n, out))?;
            check_all_paths("t_matmul tiles", &want, |isa, out| {
                for (t, out_tile) in out.chunks_mut(TILE_ROWS * n).enumerate() {
                    t_matmul_rows(isa, &a, m, t * TILE_ROWS, &b, n, out_tile);
                }
            })?;
        }

        /// Sparse rows (duplicate and unsorted columns allowed, explicit
        /// zeros kept): every compilation equals the scalar loop.
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
        // skipped like +0.0; widths straddle the 16- and 64-lane grid.
        for &n in &[1usize, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 131] {
            let b: Vec<f32> = (0..3 * n).map(|i| (i as f32 * 0.37).sin()).collect();
            for a in [vec![], vec![0.0, -0.0, 0.0], vec![-0.0, 1.5, 0.0]] {
                let k = a.len();
                let want = reference_matmul(&a, 1, k, &b[..k * n], n);
                for isa in Isa::supported() {
                    let mut got = vec![f32::NAN; n];
                    matmul_rows(isa, &a, k, &b[..k * n], n, &mut got);
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

    #[test]
    fn partial_zero_tiles_skip_per_row() {
        // Row r of A is zero exactly where kk % 4 == r, so every term of a
        // 4-row tile has one zero row; B's infinities make any product the
        // kernel failed to skip turn into NaN (0 · inf).
        let (m, k) = (4, 12);
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                let (r, kk) = (i / k, i % k);
                match (kk % 4 == r, kk % 2) {
                    (true, 0) => 0.0,
                    (true, _) => -0.0,
                    _ => 1.0 + i as f32 * 0.25,
                }
            })
            .collect();
        for n in [4usize, 64, 100] {
            let b: Vec<f32> = (0..k * n)
                .map(|i| match i % 5 {
                    0 => f32::INFINITY,
                    1 => f32::NEG_INFINITY,
                    _ => (i as f32 * 0.61).cos(),
                })
                .collect();
            let want = reference_matmul(&a, m, k, &b, n);
            // (Aᵀ)ᵀ · B = A · B, with the tile's weights read side by side.
            let a_t = transposed(&a, m, k);
            for isa in Isa::supported() {
                let mut got = vec![7.5; m * n];
                matmul_rows(isa, &a, k, &b, n, &mut got);
                assert_eq!(bits(&got), bits(&want), "matmul n={n} {isa:?}");
                let mut got = vec![7.5; m * n];
                t_matmul_rows(isa, &a_t, m, 0, &b, n, &mut got);
                assert_eq!(bits(&got), bits(&want), "t_matmul n={n} {isa:?}");
            }
        }
    }
}
