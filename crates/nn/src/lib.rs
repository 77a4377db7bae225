//! # sagegpu-nn — reverse-mode autograd, layers, and optimizers
//!
//! The paper's post-midterm modules train neural networks on GPUs: CNNs
//! (week 8), DQN agents (week 9), DDP multi-GPU training (week 10), and —
//! the centerpiece, Algorithm 1 — Graph Convolutional Networks trained
//! data-parallel over METIS partitions. The authors used PyTorch; this
//! crate provides the from-scratch equivalent the reproduction needs:
//!
//! - [`tape::Tape`] / [`tape::Var`] — a tape-based reverse-mode autograd
//!   over [`sagegpu_tensor::dense::Tensor`], with the operations GCN and
//!   MLP training require (matmul, sparse aggregation, bias broadcast,
//!   ReLU, masked cross-entropy).
//! - [`layers`] — `Linear`, `GcnLayer`, and the two-layer [`layers::Gcn`]
//!   model of Kipf & Welling.
//! - [`conv`] — im2col convolution and the week-8 CNN lab's small
//!   classifier (conv → ReLU → global average pool → linear).
//! - [`optim`] — SGD (with momentum) and Adam.
//! - [`parallel`] — synchronous data-parallel utilities: gradient
//!   averaging across workers (Algorithm 1 lines 11–13), host-side or over
//!   the cluster's peer links.
//! - [`resident`] — device-resident training state: parameters and
//!   optimizer moments that live in the GPU memory pool across steps, with
//!   explicit `to_host` sync points.
//! - [`metrics`] — classification accuracy.
//!
//! ## Gradient correctness
//!
//! Every differentiable op is validated against central-difference
//! numerical gradients in this crate's tests — the autograd is the
//! foundation the paper's accuracy claims rest on, so it gets the
//! strictest checks in the workspace.

pub mod conv;
pub mod layers;
pub mod metrics;
pub mod optim;
pub mod parallel;
pub mod resident;
pub mod tape;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::conv::{im2col, ImageBatch, SmallCnn};
    pub use crate::layers::{Gcn, GcnLayer, Linear, Mlp};
    pub use crate::metrics::accuracy;
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::resident::{ResidentAdam, ResidentParams};
    pub use crate::tape::{Tape, Var};
}
