//! Kernel launch configuration and cost profiles.
//!
//! The simulator separates a kernel's *semantics* (a real Rust closure run
//! over the index space) from its *cost* (a [`KernelProfile`] describing how
//! much arithmetic and memory traffic the kernel performs). Simulated
//! duration follows a roofline model:
//!
//! ```text
//! t = launch_overhead
//!   + max( flops / (peak_flops × occupancy),
//!          bytes / (peak_bw × coalescing_factor) )
//! ```
//!
//! so memory-bound kernels (low arithmetic intensity, poor access patterns)
//! dominate at the bandwidth roof and compute-bound kernels at the FLOP roof
//! — exactly the distinction the course's profiling labs teach.

use crate::dim::Dim3;
use serde::{Deserialize, Serialize};

/// How a kernel's threads touch global memory.
///
/// Determines the fraction of peak bandwidth the kernel achieves. Values
/// follow the usual CUDA guidance: fully coalesced warps reach near-peak,
/// strided access wastes most of each 128-byte transaction, random access
/// is worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive threads read consecutive addresses.
    Coalesced,
    /// Fixed-stride access (e.g. column-major walk of a row-major matrix).
    Strided,
    /// Data-dependent gather/scatter (e.g. graph neighbor aggregation).
    Random,
}

impl AccessPattern {
    /// Fraction of peak memory bandwidth achieved.
    pub fn bandwidth_efficiency(&self) -> f64 {
        match self {
            AccessPattern::Coalesced => 0.85,
            AccessPattern::Strided => 0.25,
            AccessPattern::Random => 0.08,
        }
    }
}

/// Cost description of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Total floating-point operations performed by the whole launch.
    pub flops: u64,
    /// Total bytes read from + written to global memory.
    pub bytes: u64,
    /// Global-memory access pattern.
    pub access: AccessPattern,
    /// Registers used per thread (occupancy input).
    pub registers_per_thread: u32,
}

impl KernelProfile {
    /// Profile for an elementwise kernel over `n` elements performing
    /// `flops_per_elem` FLOPs and moving `bytes_per_elem` bytes each.
    pub fn elementwise(n: u64, flops_per_elem: u64, bytes_per_elem: u64) -> Self {
        Self {
            flops: n * flops_per_elem,
            bytes: n * bytes_per_elem,
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        }
    }

    /// Profile for a dense `m×k · k×n` single-precision matrix multiply
    /// using shared-memory tiling (bytes model: each operand tile is reused,
    /// so traffic ≈ inputs + output rather than 2·m·n·k).
    pub fn matmul(m: u64, k: u64, n: u64) -> Self {
        Self {
            flops: 2 * m * k * n,
            bytes: 4 * (m * k + k * n + m * n),
            access: AccessPattern::Coalesced,
            registers_per_thread: 64,
        }
    }

    /// Naive matmul without tiling: every product term re-reads its operands.
    pub fn matmul_naive(m: u64, k: u64, n: u64) -> Self {
        Self {
            flops: 2 * m * k * n,
            bytes: 4 * (2 * m * n * k + m * n),
            access: AccessPattern::Strided,
            registers_per_thread: 40,
        }
    }

    /// Profile for a reduction over `n` elements (sum, max, …).
    pub fn reduction(n: u64) -> Self {
        Self {
            flops: n,
            bytes: 4 * n,
            access: AccessPattern::Coalesced,
            registers_per_thread: 24,
        }
    }

    /// Profile for sparse gather/aggregation over `nnz` edges with feature
    /// width `d` (the GCN neighbor-aggregation workload).
    pub fn sparse_aggregate(nnz: u64, d: u64) -> Self {
        Self {
            flops: 2 * nnz * d,
            bytes: 4 * (2 * nnz * d),
            access: AccessPattern::Random,
            registers_per_thread: 48,
        }
    }

    /// Fused `m×k · k×n` matmul with a bias epilogue (`X·W + b`): the
    /// bias add happens in registers before the store, so the profile is
    /// the tiled matmul plus the bias read and `m·n` extra FLOPs — the
    /// intermediate `m×n` product is never written to or re-read from
    /// global memory, and only one launch overhead is charged.
    pub fn fused_linear(m: u64, k: u64, n: u64) -> Self {
        Self {
            flops: 2 * m * k * n + m * n,
            bytes: 4 * (m * k + k * n + n + m * n),
            access: AccessPattern::Coalesced,
            registers_per_thread: 64,
        }
    }

    /// [`Self::fused_linear`] with a ReLU epilogue as well (`relu(X·W + b)`)
    /// — one more FLOP per output element, still zero extra traffic.
    pub fn fused_linear_relu(m: u64, k: u64, n: u64) -> Self {
        Self {
            flops: 2 * m * k * n + 2 * m * n,
            bytes: 4 * (m * k + k * n + n + m * n),
            access: AccessPattern::Coalesced,
            registers_per_thread: 72,
        }
    }

    /// Fused backward pass of a linear layer: one launch computes
    /// `dX = dY·Wᵀ`, `dW = Xᵀ·dY` and `dB = colsum(dY)`, reading the
    /// upstream gradient once instead of three times. `relu_mask` adds the
    /// in-register masking of `dY` by the forward activation.
    pub fn fused_linear_bwd(m: u64, k: u64, n: u64, relu_mask: bool) -> Self {
        let mask_flops = if relu_mask { m * n } else { 0 };
        Self {
            flops: 4 * m * k * n + m * n + mask_flops,
            bytes: 4 * (2 * (m * k) + 2 * (k * n) + m * n + n),
            access: AccessPattern::Coalesced,
            registers_per_thread: 80,
        }
    }

    /// [`Self::fused_linear_bwd`] with the ReLU mask, for a layer whose
    /// input needs no gradient: the same launch less the `dX = dY·Wᵀ`
    /// product, its `X`-sized write and its `W` read. It reads `X` and `dY`
    /// once and writes `dW` and `dB`.
    pub fn fused_linear_relu_param_bwd(m: u64, k: u64, n: u64) -> Self {
        let full = Self::fused_linear_bwd(m, k, n, true);
        Self {
            flops: full.flops - 2 * m * k * n,
            bytes: full.bytes - 4 * (m * k + k * n),
            ..full
        }
    }

    /// Sparse aggregation over `nnz` edges at width `d` with a ReLU
    /// epilogue over the `rows × d` output applied in registers: same
    /// traffic as [`Self::sparse_aggregate`], plus the epilogue FLOPs.
    pub fn spmm_relu(nnz: u64, d: u64, rows: u64) -> Self {
        Self {
            flops: 2 * nnz * d + rows * d,
            bytes: 4 * (2 * nnz * d),
            access: AccessPattern::Random,
            registers_per_thread: 48,
        }
    }

    /// Fused scale + row softmax over `n` elements: one read, one write,
    /// with the scaling folded into the exponentiation pass.
    pub fn scale_softmax(n: u64) -> Self {
        Self {
            flops: 5 * n,
            bytes: 8 * n,
            access: AccessPattern::Coalesced,
            registers_per_thread: 32,
        }
    }

    /// Overrides the access pattern.
    pub fn with_access(mut self, access: AccessPattern) -> Self {
        self.access = access;
        self
    }

    /// Arithmetic intensity in FLOPs per byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

/// The pricing inputs of one kernel launch — everything
/// [`crate::device::Gpu::kernel_duration_ns`] needs to re-derive the
/// modeled duration on a *different* device. Commands carrying a pricing
/// block can be re-priced by [`crate::trace::replay`] under a what-if GPU
/// profile; commands without one replay at their recorded duration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelPricing {
    /// Grid/block geometry of the launch.
    pub cfg: LaunchConfig,
    /// Roofline cost profile.
    pub profile: KernelProfile,
}

/// Grid/block geometry of a launch, mirroring CUDA's `<<<grid, block>>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
    /// Dynamic shared memory requested per block, bytes.
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// A launch with the given grid and block shapes.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        Self {
            grid: grid.into(),
            block: block.into(),
            shared_mem_bytes: 0,
        }
    }

    /// 1-D launch covering `n` elements with `block_size` threads per block
    /// (grid size rounded up, the canonical CUDA idiom).
    pub fn for_elements(n: u64, block_size: u32) -> Self {
        let bs = block_size.max(1) as u64;
        let blocks = n.div_ceil(bs).max(1);
        Self::new(Dim3::x(blocks as u32), Dim3::x(block_size.max(1)))
    }

    /// 2-D launch covering an `rows × cols` domain with `tile × tile` blocks.
    pub fn for_matrix(rows: u64, cols: u64, tile: u32) -> Self {
        let t = tile.max(1) as u64;
        let gx = cols.div_ceil(t).max(1) as u32;
        let gy = rows.div_ceil(t).max(1) as u32;
        Self::new(Dim3::xy(gx, gy), Dim3::xy(tile.max(1), tile.max(1)))
    }

    /// Adds a dynamic shared memory request.
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        self.block.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_elements_rounds_grid_up() {
        let cfg = LaunchConfig::for_elements(1000, 256);
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.block.x, 256);
        assert!(cfg.total_threads() >= 1000);
    }

    #[test]
    fn for_elements_handles_exact_multiple_and_tiny_n() {
        assert_eq!(LaunchConfig::for_elements(512, 256).grid.x, 2);
        assert_eq!(LaunchConfig::for_elements(1, 256).grid.x, 1);
        assert_eq!(LaunchConfig::for_elements(0, 256).grid.x, 1);
    }

    #[test]
    fn for_matrix_covers_domain() {
        let cfg = LaunchConfig::for_matrix(100, 70, 16);
        assert_eq!(cfg.grid.y, 7); // ceil(100/16)
        assert_eq!(cfg.grid.x, 5); // ceil(70/16)
        assert_eq!(cfg.block.count(), 256);
    }

    #[test]
    fn matmul_profile_flops() {
        let p = KernelProfile::matmul(128, 64, 32);
        assert_eq!(p.flops, 2 * 128 * 64 * 32);
        assert!(p.arithmetic_intensity() > 1.0);
    }

    #[test]
    fn naive_matmul_moves_more_bytes_than_tiled() {
        let tiled = KernelProfile::matmul(256, 256, 256);
        let naive = KernelProfile::matmul_naive(256, 256, 256);
        assert!(naive.bytes > 10 * tiled.bytes);
        assert_eq!(naive.flops, tiled.flops);
    }

    #[test]
    fn fused_linear_drops_intermediate_traffic() {
        let (m, k, n) = (256, 64, 32);
        // Serial path: matmul writes m*n, bias-add re-reads m*n + n and
        // writes m*n, relu re-reads and re-writes m*n again.
        let serial_bytes = KernelProfile::matmul(m, k, n).bytes
            + 4 * (m * n + n + m * n) // bias add: read out + bias, write out
            + 4 * (2 * m * n); // relu: read + write
        let fused = KernelProfile::fused_linear_relu(m, k, n);
        assert!(fused.bytes < serial_bytes);
        // FLOPs are identical: matmul + bias + relu.
        let serial_flops = KernelProfile::matmul(m, k, n).flops + m * n + m * n;
        assert_eq!(fused.flops, serial_flops);
        assert!(KernelProfile::fused_linear(m, k, n).bytes == fused.bytes);
        assert!(KernelProfile::fused_linear(m, k, n).flops < fused.flops);
    }

    #[test]
    fn spmm_relu_matches_sparse_aggregate_traffic() {
        let fused = KernelProfile::spmm_relu(10_000, 32, 500);
        let base = KernelProfile::sparse_aggregate(10_000, 32);
        assert_eq!(fused.bytes, base.bytes);
        assert_eq!(fused.flops, base.flops + 500 * 32);
        assert_eq!(fused.access, AccessPattern::Random);
    }

    #[test]
    fn fused_linear_bwd_reads_gradient_once() {
        let plain = KernelProfile::fused_linear_bwd(128, 64, 32, false);
        let masked = KernelProfile::fused_linear_bwd(128, 64, 32, true);
        assert_eq!(masked.bytes, plain.bytes);
        assert_eq!(masked.flops, plain.flops + 128 * 32);
        // Three separate backward matmuls would read dY three times.
        let three_reads = 4 * 3 * (128 * 32);
        assert!(plain.bytes < KernelProfile::matmul(128, 32, 64).bytes * 3 + three_reads);
    }

    #[test]
    fn param_only_linear_bwd_drops_the_input_gradient() {
        let (m, k, n) = (128, 64, 32);
        let params = KernelProfile::fused_linear_relu_param_bwd(m, k, n);
        // dW, dB and the mask; reads X and dY, writes dW and dB.
        assert_eq!(params.flops, 2 * m * k * n + 2 * m * n);
        assert_eq!(params.bytes, 4 * (m * k + m * n + k * n + n));
    }

    #[test]
    fn access_pattern_ordering() {
        assert!(
            AccessPattern::Coalesced.bandwidth_efficiency()
                > AccessPattern::Strided.bandwidth_efficiency()
        );
        assert!(
            AccessPattern::Strided.bandwidth_efficiency()
                > AccessPattern::Random.bandwidth_efficiency()
        );
    }

    #[test]
    fn elementwise_intensity_is_low() {
        // vecadd: 1 FLOP per 12 bytes — firmly memory bound.
        let p = KernelProfile::elementwise(1 << 20, 1, 12);
        assert!(p.arithmetic_intensity() < 0.1);
    }

    #[test]
    fn zero_byte_profile_has_infinite_intensity() {
        let p = KernelProfile {
            flops: 100,
            bytes: 0,
            access: AccessPattern::Coalesced,
            registers_per_thread: 16,
        };
        assert!(p.arithmetic_intensity().is_infinite());
    }
}
