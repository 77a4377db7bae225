//! Layers and models: Linear, MLP, and the two-layer GCN.

use crate::tape::{Tape, Var};
use rand::Rng;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::sparse::CsrMatrix;
use std::borrow::Borrow;
use std::sync::Arc;

/// A dense affine layer `y = x · W + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    pub weight: Tensor,
    pub bias: Tensor,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Tensor::xavier(in_dim, out_dim, rng),
            bias: Tensor::zeros(1, out_dim),
        }
    }

    /// Records the forward pass, returning `(output, weight_var, bias_var)`
    /// — the param vars are needed to read gradients after `backward`.
    /// Recorded as one fused `linear` node (sgemm + bias epilogue); values
    /// and gradients are bit-identical to `add_bias(matmul(x, w), b)`. The
    /// tape borrows the parameters.
    pub fn forward<'a>(&'a self, tape: &Tape<'a>, x: Var) -> (Var, Var, Var) {
        let (w, b) = (tape.leaf(&self.weight), tape.leaf(&self.bias));
        (tape.linear(x, w, b), w, b)
    }

    /// [`Self::forward`] with a fused ReLU epilogue: `relu(x·W + b)` as a
    /// single node.
    pub fn forward_relu<'a>(&'a self, tape: &Tape<'a>, x: Var) -> (Var, Var, Var) {
        let (w, b) = (tape.leaf(&self.weight), tape.leaf(&self.bias));
        (tape.linear_relu(x, w, b), w, b)
    }

    /// Flat list of parameter tensors (for optimizers / all-reduce sizing).
    pub fn parameters(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    /// Mutable parameter access in the same order as [`Self::parameters`].
    pub fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// One graph convolution: `H' = σ(Â · H · W + b)` (σ applied by caller).
#[derive(Debug, Clone, PartialEq)]
pub struct GcnLayer {
    pub linear: Linear,
}

impl GcnLayer {
    /// Xavier-initialized GCN layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            linear: Linear::new(in_dim, out_dim, rng),
        }
    }
}

/// The two-layer GCN of Kipf & Welling:
/// `Z = Â · relu(Â X W₁ + b₁) · W₂ + b₂`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gcn {
    pub layer1: GcnLayer,
    pub layer2: GcnLayer,
}

/// Recorded parameter vars of one GCN forward pass, in optimizer order.
#[derive(Debug, Clone, Copy)]
pub struct GcnForward {
    pub logits: Var,
    pub params: [Var; 4],
}

impl Gcn {
    /// A GCN with the given layer dimensions.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, rng: &mut impl Rng) -> Self {
        Self {
            layer1: GcnLayer::new(in_dim, hidden, rng),
            layer2: GcnLayer::new(hidden, classes, rng),
        }
    }

    /// A GCN holding exactly `params`, in the order of
    /// [`GcnForward::params`] (a broadcast receive, or a read of a
    /// device-resident replica's values).
    pub fn from_parameters<T: Borrow<Tensor>>(params: &[T]) -> Self {
        let [w1, b1, w2, b2] = params else {
            panic!("a GCN has 4 parameter tensors, got {}", params.len());
        };
        let layer = |weight: &T, bias: &T| GcnLayer {
            linear: Linear {
                weight: weight.borrow().clone(),
                bias: bias.borrow().clone(),
            },
        };
        Self {
            layer1: layer(w1, b1),
            layer2: layer(w2, b2),
        }
    }

    /// Layer 1's aggregate `ÂX`. Â and X are fixed for a whole training
    /// run, so `ÂX` is too: compute it once and pass it to every
    /// [`Self::forward`].
    pub fn aggregate(adj: &CsrMatrix, x: &Tensor) -> Tensor {
        adj.spmm(x).expect("adjacency columns match feature rows")
    }

    /// Records the forward pass over `ax` = [`Self::aggregate`]`(adj, x)`
    /// with adjacency `adj` (layer 2 aggregates its hidden state per pass).
    pub fn forward<'a>(
        &'a self,
        tape: &Tape<'a>,
        adj: Arc<CsrMatrix>,
        ax: &'a Tensor,
    ) -> GcnForward {
        Self::forward_with(&self.parameters(), tape, adj, ax)
    }

    /// [`Self::forward`] of the GCN holding `params`, in the order of
    /// [`GcnForward::params`], without building one: a device replica's
    /// views or a broadcast θ. The tape borrows the parameters, and `ax`
    /// as a [`Tape::constant`]: nothing reads its gradient, so `backward`
    /// computes none.
    pub fn forward_with<'a>(
        params: &[&'a Tensor],
        tape: &Tape<'a>,
        adj: Arc<CsrMatrix>,
        ax: &'a Tensor,
    ) -> GcnForward {
        let &[w1, b1, w2, b2] = params else {
            panic!("a GCN has 4 parameter tensors, got {}", params.len());
        };
        let vax = tape.constant(ax);
        let (w1, b1) = (tape.leaf(w1), tape.leaf(b1));
        let h1 = tape.linear_relu(vax, w1, b1);
        let agg = tape.spmm(adj, h1);
        let (w2, b2) = (tape.leaf(w2), tape.leaf(b2));
        GcnForward {
            logits: tape.linear(agg, w2, b2),
            params: [w1, b1, w2, b2],
        }
    }

    /// Parameter tensors in the order of [`GcnForward::params`].
    pub fn parameters(&self) -> Vec<&Tensor> {
        vec![
            &self.layer1.linear.weight,
            &self.layer1.linear.bias,
            &self.layer2.linear.weight,
            &self.layer2.linear.bias,
        ]
    }

    /// Mutable parameters in the same order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.layer1.linear.weight,
            &mut self.layer1.linear.bias,
            &mut self.layer2.linear.weight,
            &mut self.layer2.linear.bias,
        ]
    }

    /// Total parameter bytes (the all-reduce payload in Algorithm 1).
    pub fn parameter_bytes(&self) -> u64 {
        self.parameters().iter().map(|t| t.size_bytes()).sum()
    }

    /// Clones the parameters out (broadcast send).
    pub fn get_parameters(&self) -> Vec<Tensor> {
        self.parameters().into_iter().cloned().collect()
    }
}

/// A plain two-layer MLP (used by the DQN/agent examples).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    pub layer1: Linear,
    pub layer2: Linear,
}

/// Recorded parameter vars of one MLP forward pass.
#[derive(Debug, Clone, Copy)]
pub struct MlpForward {
    pub logits: Var,
    pub params: [Var; 4],
}

impl Mlp {
    /// A two-layer MLP with ReLU hidden activation.
    pub fn new(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            layer1: Linear::new(in_dim, hidden, rng),
            layer2: Linear::new(hidden, out_dim, rng),
        }
    }

    /// Records the forward pass over input rows `x` (a borrowed
    /// [`Tape::constant`]).
    pub fn forward<'a>(&'a self, tape: &Tape<'a>, x: &'a Tensor) -> MlpForward {
        let vx = tape.constant(x);
        let (h, w1, b1) = self.layer1.forward_relu(tape, vx);
        let (logits, w2, b2) = self.layer2.forward(tape, h);
        MlpForward {
            logits,
            params: [w1, b1, w2, b2],
        }
    }

    /// Mutable parameters in forward-pass order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.layer1.weight,
            &mut self.layer1.bias,
            &mut self.layer2.weight,
            &mut self.layer2.bias,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape_and_value() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lin = Linear::new(3, 2, &mut rng);
        lin.weight = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        lin.bias = Tensor::from_rows(&[&[10.0, 20.0]]);
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let (out, _, _) = lin.forward(&tape, x);
        let v = tape.value(out);
        assert_eq!(v.shape(), (1, 2));
        assert_eq!(v.get(0, 0), 1.0 + 3.0 + 10.0);
        assert_eq!(v.get(0, 1), 2.0 + 3.0 + 20.0);
    }

    #[test]
    fn gcn_forward_produces_class_logits() {
        let mut rng = SmallRng::seed_from_u64(2);
        let gcn = Gcn::new(4, 8, 3, &mut rng);
        let adj = Arc::new(
            CsrMatrix::from_triplets(
                5,
                5,
                &[
                    (0, 0, 1.0),
                    (1, 1, 1.0),
                    (2, 2, 1.0),
                    (3, 3, 1.0),
                    (4, 4, 1.0),
                ],
            )
            .unwrap(),
        );
        let x = Tensor::randn(5, 4, &mut rng);
        let tape = Tape::new();
        let ax = Gcn::aggregate(&adj, &x);
        let fwd = gcn.forward(&tape, adj, &ax);
        assert_eq!(tape.shape(fwd.logits), (5, 3));
        assert_eq!(gcn.parameter_bytes(), 4 * (32 + 8 + 24 + 3) as u64);
    }

    #[test]
    fn gcn_training_step_reduces_loss() {
        // One gradient-descent step on a toy problem must reduce the loss.
        let mut rng = SmallRng::seed_from_u64(4);
        let mut gcn = Gcn::new(4, 8, 2, &mut rng);
        let adj = Arc::new(
            CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)])
                .unwrap(),
        );
        let ax = Gcn::aggregate(&adj, &Tensor::randn(4, 4, &mut rng));
        let labels = vec![0, 0, 1, 1];
        let mask = vec![true; 4];

        let loss_of = |g: &Gcn| -> f32 {
            let tape = Tape::new();
            let fwd = g.forward(&tape, Arc::clone(&adj), &ax);
            let loss = tape.cross_entropy(fwd.logits, &labels, &mask);
            tape.value(loss).get(0, 0)
        };

        let before = loss_of(&gcn);
        let tape = Tape::new();
        let fwd = gcn.forward(&tape, Arc::clone(&adj), &ax);
        let loss = tape.cross_entropy(fwd.logits, &labels, &mask);
        let grads = tape.backward(loss);
        let lr = 0.5f32;
        for (param, var) in gcn.parameters_mut().into_iter().zip(fwd.params) {
            let g = grads[var.index()].as_ref().expect("param grad");
            *param = param.sub(&g.scale(lr)).unwrap();
        }
        let after = loss_of(&gcn);
        assert!(after < before, "loss {before} → {after}");
    }

    /// Parameter gradients of one backward pass, in `params` order.
    fn param_grads(tape: &Tape, logits: Var, params: [Var; 4], labels: &[usize]) -> Vec<Tensor> {
        let loss = tape.cross_entropy(logits, labels, &vec![true; labels.len()]);
        let grads = tape.backward(loss);
        // Every forward records its input first, as node 0.
        assert!(grads[0].is_none(), "the constant input gets no gradient");
        params
            .iter()
            .map(|v| grads[v.index()].clone().expect("param grad"))
            .collect()
    }

    #[test]
    fn gcn_over_hoisted_aggregate_matches_spmm_in_tape_bitwise() {
        // `forward` over a precomputed ÂX must equal the chain that
        // aggregates inside the tape, `linear_relu(spmm(Â, X))`, with X
        // as a constant or as a leaf: same logits, same parameter grads.
        let mut rng = SmallRng::seed_from_u64(6);
        let gcn = Gcn::new(5, 8, 3, &mut rng);
        let adj = Arc::new(
            CsrMatrix::from_triplets(
                4,
                4,
                &[
                    (0, 0, 0.5),
                    (0, 1, 0.5),
                    (1, 1, 1.0),
                    (2, 3, 0.7),
                    (3, 2, 0.7),
                    (3, 3, 0.3),
                ],
            )
            .unwrap(),
        );
        let x = Tensor::randn(4, 5, &mut rng);
        let labels = [0, 2, 1, 1];

        let ax = Gcn::aggregate(&adj, &x);
        let tape = Tape::new();
        let fwd = gcn.forward(&tape, Arc::clone(&adj), &ax);
        let hoisted_logits = tape.value(fwd.logits);
        let hoisted = param_grads(&tape, fwd.logits, fwd.params, &labels);

        for leaf_input in [false, true] {
            let tape = Tape::new();
            let vx = if leaf_input {
                tape.leaf(x.clone())
            } else {
                tape.constant(x.clone())
            };
            let agg = tape.spmm(Arc::clone(&adj), vx);
            let (h1, w1, b1) = gcn.layer1.linear.forward_relu(&tape, agg);
            let agg2 = tape.spmm(Arc::clone(&adj), h1);
            let (logits, w2, b2) = gcn.layer2.linear.forward(&tape, agg2);
            assert_eq!(
                tape.value(logits),
                hoisted_logits,
                "leaf input: {leaf_input}"
            );
            let loss = tape.cross_entropy(logits, &labels, &[true; 4]);
            let grads = tape.backward(loss);
            assert_eq!(grads[vx.index()].is_some(), leaf_input);
            let in_tape: Vec<Tensor> = [w1, b1, w2, b2]
                .iter()
                .map(|v| grads[v.index()].clone().unwrap())
                .collect();
            assert_eq!(in_tape, hoisted, "leaf input: {leaf_input}");
        }
    }

    #[test]
    fn mlp_constant_input_matches_leaf_input_bitwise() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mlp = Mlp::new(6, 10, 3, &mut rng);
        let x = Tensor::randn(5, 6, &mut rng);
        let labels = [0, 1, 2, 1, 0];

        let tape = Tape::new();
        let fwd = mlp.forward(&tape, &x);
        let constant = param_grads(&tape, fwd.logits, fwd.params, &labels);

        let tape = Tape::new();
        let vx = tape.leaf(x);
        let (h, w1, b1) = mlp.layer1.forward_relu(&tape, vx);
        let (logits, w2, b2) = mlp.layer2.forward(&tape, h);
        let loss = tape.cross_entropy(logits, &labels, &[true; 5]);
        let grads = tape.backward(loss);
        assert!(grads[vx.index()].is_some());
        let leaf: Vec<Tensor> = [w1, b1, w2, b2]
            .iter()
            .map(|v| grads[v.index()].clone().unwrap())
            .collect();
        assert_eq!(constant, leaf);
    }

    #[test]
    fn gcn_from_parameters_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(8);
        let a = Gcn::new(4, 6, 2, &mut rng);
        assert_eq!(Gcn::from_parameters(&a.get_parameters()), a);
        // Borrowed tensors too, as a device replica's views are read.
        assert_eq!(Gcn::from_parameters(&a.parameters()), a);
    }

    #[test]
    #[should_panic(expected = "4 parameter tensors")]
    fn gcn_from_parameters_rejects_wrong_count() {
        let _ = Gcn::from_parameters(&[Tensor::zeros(1, 1)]);
    }

    #[test]
    fn mlp_forward_shape() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mlp = Mlp::new(6, 16, 4, &mut rng);
        let tape = Tape::new();
        let x = Tensor::randn(10, 6, &mut rng);
        let fwd = mlp.forward(&tape, &x);
        assert_eq!(tape.shape(fwd.logits), (10, 4));
    }
}
