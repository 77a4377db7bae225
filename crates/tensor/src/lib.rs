//! # sagegpu-tensor — dense f32 tensors with CPU and simulated-GPU backends
//!
//! The course this repository reproduces teaches GPU programming through
//! matrix workloads: CuPy vector/matrix operations (week 2), matmul with
//! memory profiling (week 3, Assignment 1), and the linear algebra inside
//! GCN training and RAG retrieval (weeks 8–14). This crate provides the
//! tensor substrate those workloads run on:
//!
//! - [`dense::Tensor`] — a row-major f32 host tensor with the operations
//!   the curriculum needs (matmul, elementwise ops, softmax, reductions),
//!   parallelized with rayon where it pays.
//! - [`sparse::CsrMatrix`] — compressed sparse row matrices and SpMM, the
//!   workhorse of GCN neighbor aggregation.
//! - [`gpu_exec::GpuExecutor`] — the same operations routed through a
//!   [`gpu_sim::Gpu`]: the arithmetic is executed for real on the host
//!   while the simulator charges roofline time and emits trace events, so
//!   profilers observe GPU-shaped timelines.
//! - [`residency`] — placement-aware handles ([`residency::DeviceTensor`],
//!   [`residency::TensorRef`]) so executor ops charge transfers only on a
//!   residency miss and keep outputs device-resident.
//!
//! ```
//! use sagegpu_tensor::dense::Tensor;
//!
//! let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c, a);
//! ```

pub mod dense;
pub mod gpu_exec;
mod kernels;
pub mod residency;
pub mod sparse;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::dense::Tensor;
    pub use crate::gpu_exec::GpuExecutor;
    pub use crate::residency::{DeviceTensor, Placement, TensorRef};
    pub use crate::sparse::CsrMatrix;
    pub use crate::TensorError;
}

/// Errors raised by tensor operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Operand shapes are incompatible.
    ShapeMismatch { expected: String, got: String },
    /// Index out of bounds.
    OutOfBounds { index: usize, len: usize },
    /// Underlying GPU simulator error.
    Gpu(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            TensorError::OutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            TensorError::Gpu(msg) => write!(f, "gpu error: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<gpu_sim::GpuError> for TensorError {
    fn from(e: gpu_sim::GpuError) -> Self {
        TensorError::Gpu(e.to_string())
    }
}
