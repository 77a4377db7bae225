//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation as a node; [`Tape::backward`] walks
//! the tape in reverse, accumulating gradients. Variables are lightweight
//! indices into the tape, so graphs are cheap to build per training step
//! (the PyTorch "define-by-run" style the course taught, minus the Python).
//!
//! Each node records whether it needs a gradient (PyTorch's
//! `requires_grad`): a [`Tape::leaf`] does, a [`Tape::constant`] does not,
//! and an op does when any input does. `backward` computes no gradient for
//! a node that does not need one, so feeding a data matrix in as a constant
//! skips its input-gradient products (for a GCN, whose layer 1 reads the
//! precomputed aggregate `ÂX`: the `∂(ÂX)` sgemm).
//!
//! A leaf or constant holds its tensor owned or borrowed: a `Tape<'a>`
//! borrows data that outlives it (parameters, a cached aggregate) instead
//! of copying it, and owns what an op computes.

use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::sparse::CsrMatrix;
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

/// A variable: an index into its tape plus the forward value's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    /// A leaf: a parameter, an input or a constant.
    Leaf,
    /// `C = A · B`.
    MatMul(Var, Var),
    /// `C = S · X` with a constant sparse operand.
    Spmm(Arc<CsrMatrix>, Var),
    /// `C = A + B` (same shape).
    Add(Var, Var),
    /// `C = A + bias` (bias broadcast across rows).
    AddBias(Var, Var),
    /// `C = relu(A)`.
    Relu(Var),
    /// Fused linear layer `C = x·w + b`, optionally with a ReLU epilogue —
    /// one node (and one simulated kernel) instead of two or three. The
    /// backward pass composes the MatMul/AddBias/Relu rules verbatim, so
    /// gradients are bit-identical to the unfused chain.
    Linear { x: Var, w: Var, b: Var, relu: bool },
    /// `C = k · A`.
    Scale(Var, f32),
    /// Masked mean cross-entropy from logits (scalar output).
    CrossEntropy {
        logits: Var,
        labels: Arc<Vec<usize>>,
        mask: Arc<Vec<bool>>,
    },
    /// Mean squared error over one selected column per row (scalar
    /// output) — the Q-learning regression loss.
    MseIndexed {
        pred: Var,
        indices: Arc<Vec<usize>>,
        targets: Arc<Vec<f32>>,
    },
    /// Mean over consecutive groups of `group` rows (global average
    /// pooling when rows are an image's spatial patches).
    MeanPoolRows { input: Var, group: usize },
}

struct Node<'a> {
    op: Op,
    value: Cow<'a, Tensor>,
    /// Whether a gradient flows to this node: false for constants and for
    /// ops whose inputs are all constant.
    needs_grad: bool,
}

/// The multiply-add shape of one recorded node, as [`Tape::node_work`]
/// reports it: enough to count the arithmetic a forward and backward pass
/// perform, and so to check a cost model against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeWork {
    /// `S · X` over `nnz` non-zeros of `S` and `cols` columns of `X`.
    /// `backward` runs `Sᵀ · ∂` of the same shape when `needs_grad`.
    Spmm {
        nnz: usize,
        cols: usize,
        needs_grad: bool,
    },
    /// `x·w + b` with `x` `m×k` and `w` `k×n`. `backward` computes `∂x`
    /// only when `x_needs_grad` and `∂w` only when `w_needs_grad`.
    Linear {
        m: usize,
        k: usize,
        n: usize,
        x_needs_grad: bool,
        w_needs_grad: bool,
    },
    /// Any other node.
    Other,
}

/// The autograd tape. `'a` bounds the tensors its leaves borrow.
#[derive(Default)]
pub struct Tape<'a> {
    nodes: RefCell<Vec<Node<'a>>>,
}

impl<'a> Tape<'a> {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn push(&self, op: Op, value: impl Into<Cow<'a, Tensor>>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let needs_grad = match &op {
            Op::Leaf => true,
            Op::MatMul(a, b) | Op::Add(a, b) | Op::AddBias(a, b) => {
                nodes[a.0].needs_grad || nodes[b.0].needs_grad
            }
            Op::Spmm(_, a)
            | Op::Relu(a)
            | Op::Scale(a, _)
            | Op::CrossEntropy { logits: a, .. }
            | Op::MseIndexed { pred: a, .. }
            | Op::MeanPoolRows { input: a, .. } => nodes[a.0].needs_grad,
            Op::Linear { x, w, b, .. } => {
                nodes[x.0].needs_grad || nodes[w.0].needs_grad || nodes[b.0].needs_grad
            }
        };
        nodes.push(Node {
            op,
            value: value.into(),
            needs_grad,
        });
        Var(nodes.len() - 1)
    }

    /// Records a leaf holding `value` (a parameter or an input whose
    /// gradient is wanted), owned or borrowed.
    pub fn leaf(&self, value: impl Into<Cow<'a, Tensor>>) -> Var {
        self.push(Op::Leaf, value)
    }

    /// Records a leaf holding `value` that needs no gradient (a data
    /// matrix), owned or borrowed: `backward` returns `None` for it and
    /// computes no gradient that only it would consume. Parameter
    /// gradients are bit-identical to the same tape built with
    /// [`Self::leaf`].
    pub fn constant(&self, value: impl Into<Cow<'a, Tensor>>) -> Var {
        let v = self.leaf(value);
        self.nodes.borrow_mut()[v.0].needs_grad = false;
        v
    }

    /// The forward value of `v` (cloned).
    pub fn value(&self, v: Var) -> Tensor {
        Tensor::clone(&self.nodes.borrow()[v.0].value)
    }

    /// Shape of `v`'s value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// `a · b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0]
                .value
                .matmul(&nodes[b.0].value)
                .expect("matmul shapes")
        };
        self.push(Op::MatMul(a, b), value)
    }

    /// `s · x` with constant sparse `s` (GCN aggregation).
    pub fn spmm(&self, s: Arc<CsrMatrix>, x: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            s.spmm(&nodes[x.0].value).expect("spmm shapes")
        };
        self.push(Op::Spmm(s, x), value)
    }

    /// `a + b` (same shape).
    pub fn add(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.add(&nodes[b.0].value).expect("add shapes")
        };
        self.push(Op::Add(a, b), value)
    }

    /// `a + bias`, bias a `1 × cols` row broadcast over `a`'s rows.
    pub fn add_bias(&self, a: Var, bias: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0]
                .value
                .add_row_broadcast(&nodes[bias.0].value)
                .expect("bias shape")
        };
        self.push(Op::AddBias(a, bias), value)
    }

    /// `relu(a)`.
    pub fn relu(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0].value.relu();
        self.push(Op::Relu(a), value)
    }

    /// Fused `x·w + b` as a single node (the `linear` kernel on the
    /// simulated device). Values and gradients are bit-identical to
    /// `add_bias(matmul(x, w), b)`.
    pub fn linear(&self, x: Var, w: Var, b: Var) -> Var {
        self.linear_impl(x, w, b, false)
    }

    /// Fused `relu(x·w + b)` as a single node. Bit-identical to
    /// `relu(add_bias(matmul(x, w), b))`.
    pub fn linear_relu(&self, x: Var, w: Var, b: Var) -> Var {
        self.linear_impl(x, w, b, true)
    }

    fn linear_impl(&self, x: Var, w: Var, b: Var, relu: bool) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let mut h = nodes[x.0]
                .value
                .matmul(&nodes[w.0].value)
                .expect("matmul shapes");
            let bias = &nodes[b.0].value;
            assert_eq!(bias.shape(), (1, h.cols()), "bias shape");
            // The epilogue in one pass over the product, bit for bit
            // `add_row_broadcast` followed by `Tensor::relu`.
            if h.cols() > 0 {
                for row in h.data_mut().chunks_exact_mut(bias.cols()) {
                    for (o, &bc) in row.iter_mut().zip(bias.data()) {
                        let pre = *o + bc;
                        *o = if relu && pre <= 0.0 { 0.0 } else { pre };
                    }
                }
            }
            h
        };
        self.push(Op::Linear { x, w, b, relu }, value)
    }

    /// `k · a`.
    pub fn scale(&self, a: Var, k: f32) -> Var {
        let value = self.nodes.borrow()[a.0].value.scale(k);
        self.push(Op::Scale(a, k), value)
    }

    /// Masked mean cross-entropy over rows of `logits`: softmax + NLL on
    /// rows where `mask` is true, averaged. Returns a scalar (1×1) var.
    pub fn cross_entropy(&self, logits: Var, labels: &[usize], mask: &[bool]) -> Var {
        let labels = Arc::new(labels.to_vec());
        let mask = Arc::new(mask.to_vec());
        let value = {
            let nodes = self.nodes.borrow();
            let logp = nodes[logits.0].value.log_softmax_rows();
            let mut total = 0.0f32;
            let mut count = 0usize;
            for r in 0..logp.rows() {
                if mask[r] {
                    total -= logp.get(r, labels[r]);
                    count += 1;
                }
            }
            Tensor::from_vec(
                1,
                1,
                vec![if count > 0 { total / count as f32 } else { 0.0 }],
            )
            .expect("scalar")
        };
        self.push(
            Op::CrossEntropy {
                logits,
                labels,
                mask,
            },
            value,
        )
    }

    /// Mean squared error between `pred[r, indices[r]]` and `targets[r]`,
    /// averaged over rows — the DQN temporal-difference loss
    /// `mean((Q(s, a) − y)²)`. Returns a scalar (1×1) var.
    pub fn mse_indexed(&self, pred: Var, indices: &[usize], targets: &[f32]) -> Var {
        let indices = Arc::new(indices.to_vec());
        let targets = Arc::new(targets.to_vec());
        let value = {
            let nodes = self.nodes.borrow();
            let p = &nodes[pred.0].value;
            assert_eq!(p.rows(), indices.len(), "one action index per row");
            assert_eq!(p.rows(), targets.len(), "one target per row");
            let n = p.rows().max(1) as f32;
            let total: f32 = (0..p.rows())
                .map(|r| {
                    let d = p.get(r, indices[r]) - targets[r];
                    d * d
                })
                .sum();
            Tensor::from_vec(1, 1, vec![total / n]).expect("scalar")
        };
        self.push(
            Op::MseIndexed {
                pred,
                indices,
                targets,
            },
            value,
        )
    }

    /// Averages each consecutive group of `group` rows into one output row
    /// (`input.rows()` must be a multiple of `group`). With rows laid out
    /// as per-image spatial patches, this is global average pooling.
    pub fn mean_pool_rows(&self, input: Var, group: usize) -> Var {
        assert!(group > 0, "group must be positive");
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[input.0].value;
            assert_eq!(
                x.rows() % group,
                0,
                "rows must divide into groups of {group}"
            );
            let out_rows = x.rows() / group;
            let mut out = Tensor::zeros(out_rows, x.cols());
            for r in 0..x.rows() {
                let o = r / group;
                for c in 0..x.cols() {
                    out.set(o, c, out.get(o, c) + x.get(r, c) / group as f32);
                }
            }
            out
        };
        self.push(Op::MeanPoolRows { input, group }, value)
    }

    /// The multiply-add shape of every recorded node, in tape order.
    pub fn node_work(&self) -> Vec<NodeWork> {
        let nodes = self.nodes.borrow();
        nodes
            .iter()
            .map(|node| match &node.op {
                Op::Spmm(s, x) => NodeWork::Spmm {
                    nnz: s.nnz(),
                    cols: nodes[x.0].value.cols(),
                    needs_grad: node.needs_grad,
                },
                Op::Linear { x, w, .. } => {
                    let (m, k) = nodes[x.0].value.shape();
                    NodeWork::Linear {
                        m,
                        k,
                        n: nodes[w.0].value.cols(),
                        x_needs_grad: nodes[x.0].needs_grad,
                        w_needs_grad: nodes[w.0].needs_grad,
                    }
                }
                _ => NodeWork::Other,
            })
            .collect()
    }

    /// Reverse pass from scalar `loss`; returns gradient tensors indexed by
    /// var id: each leaf's that needs one and receives one, `None` for every
    /// other node. An op's gradient is moved on to its inputs, not copied,
    /// so an op never keeps one (PyTorch's default for non-leaf tensors).
    pub fn backward(&self, loss: Var) -> Vec<Option<Tensor>> {
        let nodes = self.nodes.borrow();
        let n = nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        let (lr, lc) = nodes[loss.0].value.shape();
        assert_eq!((lr, lc), (1, 1), "backward() requires a scalar loss");
        if nodes[loss.0].needs_grad {
            grads[loss.0] = Some(Tensor::ones(1, 1));
        }
        let needs = |v: &Var| nodes[v.0].needs_grad;

        let accumulate = |slot: &mut Option<Tensor>, add: Tensor| {
            *slot = Some(match slot.take() {
                Some(existing) => existing.add(&add).expect("grad shapes"),
                None => add,
            });
        };

        for i in (0..n).rev() {
            // A leaf passes nothing on; its gradient is only returned.
            if matches!(nodes[i].op, Op::Leaf) {
                continue;
            }
            let Some(grad) = grads[i].take() else {
                continue;
            };
            match &nodes[i].op {
                Op::Leaf => unreachable!("leaves are skipped above"),
                Op::MatMul(a, b) => {
                    if needs(a) {
                        let b_val = &nodes[b.0].value;
                        let da = grad.matmul(&b_val.transpose()).expect("dA");
                        accumulate(&mut grads[a.0], da);
                    }
                    if needs(b) {
                        let a_val = &nodes[a.0].value;
                        let db = a_val.t_matmul(&grad).expect("dB");
                        accumulate(&mut grads[b.0], db);
                    }
                }
                Op::Spmm(s, x) => {
                    // The op needs a gradient only if `x` does. `Sᵀ` is
                    // built once per matrix and reused across tapes.
                    let dx = s.transposed().spmm(&grad).expect("dX");
                    accumulate(&mut grads[x.0], dx);
                }
                Op::Add(a, b) => {
                    if needs(a) {
                        accumulate(&mut grads[a.0], grad.clone());
                    }
                    if needs(b) {
                        accumulate(&mut grads[b.0], grad);
                    }
                }
                Op::AddBias(a, bias) => {
                    let db = needs(bias).then(|| column_sums(&grad));
                    if needs(a) {
                        accumulate(&mut grads[a.0], grad);
                    }
                    if let Some(db) = db {
                        accumulate(&mut grads[bias.0], db);
                    }
                }
                Op::Relu(a) => {
                    let mut da = grad;
                    mask_non_positive(&mut da, &nodes[a.0].value);
                    accumulate(&mut grads[a.0], da);
                }
                Op::Linear { x, w, b, relu } => {
                    let mut g = grad;
                    if *relu {
                        // `out = relu(pre)` is `≤ 0` exactly where `pre`
                        // is (`-0.0` maps to `+0.0`, NaN stays NaN), so
                        // masking by the fused output reproduces the
                        // unfused Relu rule without storing `pre`.
                        mask_non_positive(&mut g, &nodes[i].value);
                    }
                    if needs(x) {
                        let w_val = &nodes[w.0].value;
                        let dx = g.matmul(&w_val.transpose()).expect("dX");
                        accumulate(&mut grads[x.0], dx);
                    }
                    if needs(w) {
                        let x_val = &nodes[x.0].value;
                        let dw = x_val.t_matmul(&g).expect("dW");
                        accumulate(&mut grads[w.0], dw);
                    }
                    if needs(b) {
                        accumulate(&mut grads[b.0], column_sums(&g));
                    }
                }
                Op::Scale(a, k) => {
                    accumulate(&mut grads[a.0], grad.scale(*k));
                }
                Op::MeanPoolRows { input, group } => {
                    let x = &nodes[input.0].value;
                    let mut dx = Tensor::zeros(x.rows(), x.cols());
                    for r in 0..x.rows() {
                        let o = r / group;
                        for c in 0..x.cols() {
                            dx.set(r, c, grad.get(o, c) / *group as f32);
                        }
                    }
                    accumulate(&mut grads[input.0], dx);
                }
                Op::MseIndexed {
                    pred,
                    indices,
                    targets,
                } => {
                    let upstream = grad.get(0, 0);
                    let p = &nodes[pred.0].value;
                    let n = p.rows().max(1) as f32;
                    let mut dp = Tensor::zeros(p.rows(), p.cols());
                    for r in 0..p.rows() {
                        let d = p.get(r, indices[r]) - targets[r];
                        dp.set(r, indices[r], upstream * 2.0 * d / n);
                    }
                    accumulate(&mut grads[pred.0], dp);
                }
                Op::CrossEntropy {
                    logits,
                    labels,
                    mask,
                } => {
                    let upstream = grad.get(0, 0);
                    let logit_val = &nodes[logits.0].value;
                    let soft = logit_val.softmax_rows();
                    let count = mask.iter().filter(|&&m| m).count().max(1) as f32;
                    let mut dl = Tensor::zeros(logit_val.rows(), logit_val.cols());
                    for r in 0..logit_val.rows() {
                        if !mask[r] {
                            continue;
                        }
                        for c in 0..logit_val.cols() {
                            let onehot = if c == labels[r] { 1.0 } else { 0.0 };
                            dl.set(r, c, upstream * (soft.get(r, c) - onehot) / count);
                        }
                    }
                    accumulate(&mut grads[logits.0], dl);
                }
            }
        }
        grads
    }
}

/// The ReLU backward rule: zeroes `grad` wherever `x ≤ 0` (NaN keeps its
/// gradient). A select rather than a branch, so the mask costs the same
/// whatever the share of zeros.
fn mask_non_positive(grad: &mut Tensor, x: &Tensor) {
    for (g, &x) in grad.data_mut().iter_mut().zip(x.data()) {
        *g = if x <= 0.0 { 0.0 } else { *g };
    }
}

/// `1 × cols` column sums of `grad` (a broadcast bias's gradient), summed
/// top to bottom.
fn column_sums(grad: &Tensor) -> Tensor {
    let cols = grad.cols();
    let mut db = Tensor::zeros(1, cols);
    for r in 0..grad.rows() {
        for c in 0..cols {
            db.set(0, c, db.get(0, c) + grad.get(r, c));
        }
    }
    db
}

impl Var {
    /// The raw tape index (for gradient lookup after `backward`).
    pub fn index(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Central-difference numerical gradient of `f` w.r.t. `param`.
    fn numerical_grad(param: &Tensor, f: &dyn Fn(&Tensor) -> f32) -> Tensor {
        let eps = 1e-3f32;
        let mut grad = Tensor::zeros(param.rows(), param.cols());
        for r in 0..param.rows() {
            for c in 0..param.cols() {
                let mut plus = param.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = param.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                grad.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        grad
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn matmul_gradient_matches_numerical() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a0 = Tensor::randn(3, 4, &mut rng).scale(0.5);
        let b0 = Tensor::randn(4, 2, &mut rng).scale(0.5);
        let labels = vec![0, 1, 0];
        let mask = vec![true, true, true];

        let run = |a: &Tensor, b: &Tensor| -> f32 {
            let tape = Tape::new();
            let va = tape.leaf(a.clone());
            let vb = tape.leaf(b.clone());
            let c = tape.matmul(va, vb);
            let loss = tape.cross_entropy(c, &labels, &mask);
            tape.value(loss).get(0, 0)
        };

        let tape = Tape::new();
        let va = tape.leaf(a0.clone());
        let vb = tape.leaf(b0.clone());
        let c = tape.matmul(va, vb);
        let loss = tape.cross_entropy(c, &labels, &mask);
        let grads = tape.backward(loss);

        let num_a = numerical_grad(&a0, &|a| run(a, &b0));
        let num_b = numerical_grad(&b0, &|b| run(&a0, b));
        assert_close(grads[va.index()].as_ref().unwrap(), &num_a, 2e-3);
        assert_close(grads[vb.index()].as_ref().unwrap(), &num_b, 2e-3);
    }

    #[test]
    fn relu_and_bias_gradients_match_numerical() {
        let mut rng = SmallRng::seed_from_u64(2);
        let x0 = Tensor::randn(4, 3, &mut rng);
        let b0 = Tensor::randn(1, 3, &mut rng).scale(0.3);
        let labels = vec![2, 0, 1, 1];
        let mask = vec![true, false, true, true];

        let run = |x: &Tensor, b: &Tensor| -> f32 {
            let tape = Tape::new();
            let vx = tape.leaf(x.clone());
            let vb = tape.leaf(b.clone());
            let h = tape.relu(tape.add_bias(vx, vb));
            let loss = tape.cross_entropy(h, &labels, &mask);
            tape.value(loss).get(0, 0)
        };

        let tape = Tape::new();
        let vx = tape.leaf(x0.clone());
        let vb = tape.leaf(b0.clone());
        let h = tape.relu(tape.add_bias(vx, vb));
        let loss = tape.cross_entropy(h, &labels, &mask);
        let grads = tape.backward(loss);

        assert_close(
            grads[vx.index()].as_ref().unwrap(),
            &numerical_grad(&x0, &|x| run(x, &b0)),
            3e-3,
        );
        assert_close(
            grads[vb.index()].as_ref().unwrap(),
            &numerical_grad(&b0, &|b| run(&x0, b)),
            3e-3,
        );
    }

    #[test]
    fn spmm_gradient_matches_numerical() {
        let mut rng = SmallRng::seed_from_u64(3);
        let s = Arc::new(
            CsrMatrix::from_triplets(
                3,
                3,
                &[
                    (0, 0, 0.5),
                    (0, 1, 0.5),
                    (1, 1, 1.0),
                    (2, 0, 0.3),
                    (2, 2, 0.7),
                ],
            )
            .unwrap(),
        );
        let x0 = Tensor::randn(3, 2, &mut rng);
        let labels = vec![0, 1, 0];
        let mask = vec![true, true, true];

        let run = |x: &Tensor| -> f32 {
            let tape = Tape::new();
            let vx = tape.leaf(x.clone());
            let agg = tape.spmm(Arc::clone(&s), vx);
            let loss = tape.cross_entropy(agg, &labels, &mask);
            tape.value(loss).get(0, 0)
        };

        let tape = Tape::new();
        let vx = tape.leaf(x0.clone());
        let agg = tape.spmm(Arc::clone(&s), vx);
        let loss = tape.cross_entropy(agg, &labels, &mask);
        let grads = tape.backward(loss);
        assert_close(
            grads[vx.index()].as_ref().unwrap(),
            &numerical_grad(&x0, &run),
            2e-3,
        );
    }

    /// `Op::Spmm`'s backward reads the matrix's memoized `Sᵀ`; on every
    /// tape that shares the matrix it equals a freshly built
    /// `s.transpose().spmm(..)` bit for bit.
    #[test]
    fn spmm_backward_through_memoized_transpose_is_bitwise_fresh() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Unsorted and repeated columns (the transpose merges them), an
        // empty row and a -0.0 entry.
        let s = Arc::new(
            CsrMatrix::new(
                5,
                4,
                vec![0, 3, 3, 5, 8, 9],
                vec![2, 0, 2, 3, 1, 0, 0, 2, 3],
                vec![0.1, 1.0, 0.2, -0.0, 5.0, 0.3, -0.7, 7.0, 0.25],
            )
            .unwrap(),
        );
        let fresh = CsrMatrix::clone(&s);
        for tape_no in 0..3 {
            let x = Tensor::randn(4, 3, &mut rng);
            let (u, r) = (Tensor::randn(1, 5, &mut rng), Tensor::randn(3, 1, &mut rng));
            let tape = Tape::new();
            let vx = tape.leaf(&x);
            let agg = tape.spmm(Arc::clone(&s), vx);
            let (vu, vr) = (tape.constant(&u), tape.constant(&r));
            let loss = tape.matmul(tape.matmul(vu, agg), vr);
            let grads = tape.backward(loss);
            // `backward` moves an op's gradient on, so `∂agg` is rebuilt
            // here by the two MatMul rules it applied.
            assert!(grads[agg.index()].is_none());
            let upstream = u.t_matmul(&Tensor::ones(1, 1).matmul(&r.transpose()).unwrap());
            let want = s.transpose().spmm(&upstream.unwrap()).unwrap();
            let got = grads[vx.index()].as_ref().unwrap();
            assert_eq!(bits(got), bits(&want), "tape {tape_no}");
        }
        // The filled memo takes no part in equality.
        assert_eq!(*s, fresh);
        assert_eq!(fresh, *s);
    }

    #[test]
    fn gradient_accumulates_when_var_reused() {
        // loss = CE(a + a) — gradient through both branches sums.
        let a0 = Tensor::from_rows(&[&[0.2, -0.4]]);
        let labels = vec![0];
        let mask = vec![true];
        let run = |a: &Tensor| -> f32 {
            let tape = Tape::new();
            let va = tape.leaf(a.clone());
            let s = tape.add(va, va);
            let loss = tape.cross_entropy(s, &labels, &mask);
            tape.value(loss).get(0, 0)
        };
        let tape = Tape::new();
        let va = tape.leaf(a0.clone());
        let s = tape.add(va, va);
        let loss = tape.cross_entropy(s, &labels, &mask);
        let grads = tape.backward(loss);
        assert_close(
            grads[va.index()].as_ref().unwrap(),
            &numerical_grad(&a0, &run),
            2e-3,
        );
    }

    #[test]
    fn scale_gradient() {
        let a0 = Tensor::from_rows(&[&[1.0, 2.0]]);
        let tape = Tape::new();
        let va = tape.leaf(a0.clone());
        let scaled = tape.scale(va, 3.0);
        let loss = tape.cross_entropy(scaled, &[1], &[true]);
        let grads = tape.backward(loss);
        let run = |a: &Tensor| -> f32 {
            let tape = Tape::new();
            let va = tape.leaf(a.clone());
            let scaled = tape.scale(va, 3.0);
            let loss = tape.cross_entropy(scaled, &[1], &[true]);
            tape.value(loss).get(0, 0)
        };
        assert_close(
            grads[va.index()].as_ref().unwrap(),
            &numerical_grad(&a0, &run),
            2e-3,
        );
    }

    #[test]
    fn cross_entropy_value_is_correct() {
        // Uniform logits over 4 classes → loss = ln 4.
        let logits = Tensor::zeros(2, 4);
        let tape = Tape::new();
        let v = tape.leaf(logits);
        let loss = tape.cross_entropy(v, &[0, 3], &[true, true]);
        let got = tape.value(loss).get(0, 0);
        assert!((got - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn masked_rows_do_not_contribute() {
        let mut logits = Tensor::zeros(2, 3);
        logits.set(1, 0, 100.0); // would dominate if unmasked
        let tape = Tape::new();
        let v = tape.leaf(logits);
        let loss = tape.cross_entropy(v, &[0, 2], &[true, false]);
        let got = tape.value(loss).get(0, 0);
        assert!((got - 3.0f32.ln()).abs() < 1e-5);
        let grads = tape.backward(loss);
        let g = grads[v.index()].as_ref().unwrap();
        for c in 0..3 {
            assert_eq!(g.get(1, c), 0.0, "masked row must have zero grad");
        }
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::zeros(2, 2));
        let _ = tape.backward(v);
    }

    #[test]
    fn mse_indexed_value_and_gradient() {
        // pred rows: [1, 2], [3, 4]; select cols [1, 0]; targets [0, 1].
        // loss = ((2-0)^2 + (3-1)^2)/2 = 4.
        let pred0 = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let tape = Tape::new();
        let v = tape.leaf(pred0.clone());
        let loss = tape.mse_indexed(v, &[1, 0], &[0.0, 1.0]);
        assert!((tape.value(loss).get(0, 0) - 4.0).abs() < 1e-6);
        let grads = tape.backward(loss);
        let g = grads[v.index()].as_ref().unwrap();
        // Analytic: d/dpred[0,1] = 2*(2-0)/2 = 2; d/dpred[1,0] = 2*(3-1)/2 = 2.
        assert!((g.get(0, 1) - 2.0).abs() < 1e-6);
        assert!((g.get(1, 0) - 2.0).abs() < 1e-6);
        assert_eq!(g.get(0, 0), 0.0);
        assert_eq!(g.get(1, 1), 0.0);
        // Numerical check through a matmul upstream.
        let run = |p: &Tensor| -> f32 {
            let tape = Tape::new();
            let v = tape.leaf(p.clone());
            let w = tape.leaf(Tensor::eye(2));
            let q = tape.matmul(v, w);
            tape.value(tape.mse_indexed(q, &[1, 0], &[0.0, 1.0]))
                .get(0, 0)
        };
        let tape = Tape::new();
        let v = tape.leaf(pred0.clone());
        let w = tape.leaf(Tensor::eye(2));
        let q = tape.matmul(v, w);
        let loss = tape.mse_indexed(q, &[1, 0], &[0.0, 1.0]);
        let grads = tape.backward(loss);
        let num = numerical_grad(&pred0, &run);
        assert_close(grads[v.index()].as_ref().unwrap(), &num, 3e-2);
    }

    #[test]
    fn fused_linear_matches_unfused_chain_bitwise() {
        let mut rng = SmallRng::seed_from_u64(9);
        let x0 = Tensor::randn(5, 4, &mut rng);
        let w0 = Tensor::randn(4, 3, &mut rng).scale(0.5);
        let b0 = Tensor::randn(1, 3, &mut rng).scale(0.2);
        let labels = vec![0, 2, 1, 0, 2];
        let mask = vec![true, true, false, true, true];

        let unfused = {
            let tape = Tape::new();
            let (vx, vw, vb) = (
                tape.leaf(x0.clone()),
                tape.leaf(w0.clone()),
                tape.leaf(b0.clone()),
            );
            let h = tape.relu(tape.add_bias(tape.matmul(vx, vw), vb));
            let loss = tape.cross_entropy(h, &labels, &mask);
            let grads = tape.backward(loss);
            (
                tape.value(h),
                tape.value(loss),
                grads[vx.index()].clone().unwrap(),
                grads[vw.index()].clone().unwrap(),
                grads[vb.index()].clone().unwrap(),
            )
        };
        let fused = {
            let tape = Tape::new();
            let (vx, vw, vb) = (
                tape.leaf(x0.clone()),
                tape.leaf(w0.clone()),
                tape.leaf(b0.clone()),
            );
            let h = tape.linear_relu(vx, vw, vb);
            let loss = tape.cross_entropy(h, &labels, &mask);
            let grads = tape.backward(loss);
            (
                tape.value(h),
                tape.value(loss),
                grads[vx.index()].clone().unwrap(),
                grads[vw.index()].clone().unwrap(),
                grads[vb.index()].clone().unwrap(),
            )
        };
        // Bitwise equality, not approximate: fusion only merges nodes.
        assert_eq!(unfused.0, fused.0);
        assert_eq!(unfused.1, fused.1);
        assert_eq!(unfused.2, fused.2);
        assert_eq!(unfused.3, fused.3);
        assert_eq!(unfused.4, fused.4);

        // Without the epilogue, linear == add_bias(matmul).
        let tape = Tape::new();
        let (vx, vw, vb) = (tape.leaf(x0.clone()), tape.leaf(w0), tape.leaf(b0));
        let plain = tape.linear(vx, vw, vb);
        let chain = tape.add_bias(tape.matmul(vx, vw), vb);
        assert_eq!(tape.value(plain), tape.value(chain));

        // Pre-activations of ±0, NaN, ±inf and subnormals, compared bit
        // for bit. The loss `1ᵀ·h·1` hands `h` an all-ones gradient
        // whatever `h` holds, so the mask alone decides what reaches `x`,
        // `w` and `b`.
        let mut x0 = Tensor::randn(7, 3, &mut rng);
        let w0 = Tensor::randn(3, 5, &mut rng);
        // Row 1 is zero, so its pre-activations are the bias itself; rows
        // 2–4 carry ±inf and NaN through the product; row 5 is subnormal.
        for c in 0..3 {
            x0.set(1, c, 0.0);
            for r in 2..5 {
                x0.set(r, c, 0.0);
            }
            x0.set(5, c, 1e-40);
        }
        x0.set(2, 0, f32::INFINITY);
        x0.set(3, 1, f32::NEG_INFINITY);
        x0.set(4, 2, f32::NAN);
        let b0 = Tensor::from_rows(&[&[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]]);

        let run = |fused: bool| {
            let tape = Tape::new();
            let (vx, vw, vb) = (
                tape.leaf(x0.clone()),
                tape.leaf(w0.clone()),
                tape.leaf(b0.clone()),
            );
            let h = if fused {
                tape.linear_relu(vx, vw, vb)
            } else {
                tape.relu(tape.add_bias(tape.matmul(vx, vw), vb))
            };
            let ones_l = tape.constant(Tensor::ones(1, 7));
            let ones_r = tape.constant(Tensor::ones(5, 1));
            let loss = tape.matmul(tape.matmul(ones_l, h), ones_r);
            let grads = tape.backward(loss);
            [
                tape.value(h),
                grads[vx.index()].clone().unwrap(),
                grads[vw.index()].clone().unwrap(),
                grads[vb.index()].clone().unwrap(),
            ]
        };
        let (unfused, fused) = (run(false), run(true));
        let pre = x0.matmul(&w0).unwrap().add_row_broadcast(&b0).unwrap();
        assert!(pre.data().iter().any(|v| v.is_nan()));
        assert!(pre.data().contains(&f32::INFINITY));
        assert!(pre.data().contains(&f32::NEG_INFINITY));
        assert!(pre.data().contains(&0.0));
        for (name, (u, f)) in ["h", "dx", "dw", "db"]
            .iter()
            .zip(unfused.iter().zip(&fused))
        {
            assert_eq!(bits(u), bits(f), "{name}");
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_linear_gradient_matches_numerical() {
        let mut rng = SmallRng::seed_from_u64(10);
        let x0 = Tensor::randn(4, 3, &mut rng);
        let w0 = Tensor::randn(3, 2, &mut rng).scale(0.5);
        let b0 = Tensor::randn(1, 2, &mut rng).scale(0.3);
        let labels = vec![0, 1, 1, 0];
        let mask = vec![true, true, true, true];
        let run = |w: &Tensor| -> f32 {
            let tape = Tape::new();
            let (vx, vw, vb) = (
                tape.leaf(x0.clone()),
                tape.leaf(w.clone()),
                tape.leaf(b0.clone()),
            );
            let h = tape.linear_relu(vx, vw, vb);
            tape.value(tape.cross_entropy(h, &labels, &mask)).get(0, 0)
        };
        let tape = Tape::new();
        let (vx, vw, vb) = (
            tape.leaf(x0.clone()),
            tape.leaf(w0.clone()),
            tape.leaf(b0.clone()),
        );
        let h = tape.linear_relu(vx, vw, vb);
        let loss = tape.cross_entropy(h, &labels, &mask);
        let grads = tape.backward(loss);
        assert_close(
            grads[vw.index()].as_ref().unwrap(),
            &numerical_grad(&w0, &run),
            3e-3,
        );
    }

    #[test]
    fn constant_input_gets_no_gradient_and_leaves_param_grads_bitwise() {
        // x -> spmm -> linear_relu -> matmul -> cross-entropy, with x fed
        // once as a leaf and once as a constant.
        let mut rng = SmallRng::seed_from_u64(12);
        let s = Arc::new(
            CsrMatrix::from_triplets(4, 4, &[(0, 1, 0.5), (1, 0, 0.5), (2, 2, 1.0), (3, 0, 0.2)])
                .unwrap(),
        );
        let x0 = Tensor::randn(4, 3, &mut rng);
        let w0 = Tensor::randn(3, 5, &mut rng);
        let b0 = Tensor::randn(1, 5, &mut rng);
        let v0 = Tensor::randn(5, 2, &mut rng);
        let run = |constant: bool| {
            let tape = Tape::new();
            let vx = if constant {
                tape.constant(&x0)
            } else {
                tape.leaf(x0.clone())
            };
            let (vw, vb, vv) = (
                tape.leaf(w0.clone()),
                tape.leaf(b0.clone()),
                tape.leaf(v0.clone()),
            );
            let agg = tape.spmm(Arc::clone(&s), vx);
            let h = tape.linear_relu(agg, vw, vb);
            let logits = tape.matmul(h, vv);
            let loss = tape.cross_entropy(logits, &[0, 1, 1, 0], &[true; 4]);
            let grads = tape.backward(loss);
            let params: Vec<Tensor> = [vw, vb, vv]
                .iter()
                .map(|v| grads[v.index()].clone().expect("param grad"))
                .collect();
            let NodeWork::Spmm { needs_grad, .. } = tape.node_work()[agg.index()] else {
                panic!("agg is an spmm");
            };
            (grads[vx.index()].is_some(), needs_grad, params)
        };
        let (leaf_x, leaf_agg, leaf_params) = run(false);
        let (const_x, const_agg, const_params) = run(true);
        assert!(leaf_x && leaf_agg, "a leaf input receives a gradient");
        assert!(!const_x, "a constant input gets None");
        assert!(!const_agg, "an op over constants only needs no gradient");
        assert_eq!(
            leaf_params, const_params,
            "parameter gradients bitwise equal"
        );
    }

    #[test]
    fn loss_over_constants_only_has_no_gradients() {
        let tape = Tape::new();
        let v = tape.constant(Tensor::zeros(2, 3));
        let loss = tape.cross_entropy(v, &[0, 1], &[true, true]);
        assert!(tape.backward(loss).iter().all(Option::is_none));
    }

    #[test]
    fn no_mask_rows_gives_zero_loss() {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::zeros(2, 3));
        let loss = tape.cross_entropy(v, &[0, 1], &[false, false]);
        assert_eq!(tape.value(loss).get(0, 0), 0.0);
    }
}
