//! Convolution via im2col — the week-8 CNN lab's substrate.
//!
//! Lab 7 ("CNN model training on GPU using PyTorch") trains a small
//! convolutional classifier. The standard GPU implementation of
//! convolution lowers it to a matrix multiply: every k×k receptive field
//! becomes a row of the *im2col* matrix, and convolution is
//! `im2col(X) · W` — which is exactly how cuDNN's GEMM algorithms work and
//! why the course teaches conv on top of matmul. The im2col transform is
//! treated as a constant data layout, so the autograd (which already
//! differentiates matmul) trains the filters for free.

use crate::layers::Linear;
use crate::tape::{Tape, Var};
use rand::Rng;
use sagegpu_tensor::dense::Tensor;

/// A greyscale image batch: `batch` images of `height × width`.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageBatch {
    pub batch: usize,
    pub height: usize,
    pub width: usize,
    /// Row-major pixels, image-major: `batch × (height·width)`.
    pub pixels: Vec<f32>,
}

impl ImageBatch {
    /// Pixel accessor.
    pub fn get(&self, image: usize, row: usize, col: usize) -> f32 {
        self.pixels[image * self.height * self.width + row * self.width + col]
    }
}

/// Valid-padding im2col: for each image, every k×k patch (stride 1)
/// becomes one row with k² columns. Output shape:
/// `(batch · out_h · out_w) × k²` where `out_h = height − k + 1`.
pub fn im2col(images: &ImageBatch, k: usize) -> Tensor {
    assert!(
        k >= 1 && k <= images.height && k <= images.width,
        "kernel must fit"
    );
    let out_h = images.height - k + 1;
    let out_w = images.width - k + 1;
    let rows = images.batch * out_h * out_w;
    let mut data = Vec::with_capacity(rows * k * k);
    for b in 0..images.batch {
        for r in 0..out_h {
            for c in 0..out_w {
                for dr in 0..k {
                    for dc in 0..k {
                        data.push(images.get(b, r + dr, c + dc));
                    }
                }
            }
        }
    }
    Tensor::from_vec(rows, k * k, data).expect("im2col dims")
}

/// Number of patches per image for a given kernel size.
pub fn patches_per_image(height: usize, width: usize, k: usize) -> usize {
    (height - k + 1) * (width - k + 1)
}

/// A small CNN: one k×k conv (`filters` channels) → ReLU → global average
/// pooling → linear classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallCnn {
    pub k: usize,
    /// Filter bank as a `k² × filters` matrix (im2col-ready).
    pub conv: Linear,
    pub head: Linear,
}

/// Parameter vars recorded by one CNN forward pass.
#[derive(Debug, Clone, Copy)]
pub struct CnnForward {
    pub logits: Var,
    pub params: [Var; 4],
}

impl SmallCnn {
    /// A CNN with `filters` k×k filters and a `classes`-way head.
    pub fn new(k: usize, filters: usize, classes: usize, rng: &mut impl Rng) -> Self {
        Self {
            k,
            conv: Linear::new(k * k, filters, rng),
            head: Linear::new(filters, classes, rng),
        }
    }

    /// Forward pass over an image batch.
    pub fn forward<'a>(&'a self, tape: &Tape<'a>, images: &ImageBatch) -> CnnForward {
        let cols = im2col(images, self.k);
        let p = patches_per_image(images.height, images.width, self.k);
        let x = tape.constant(cols);
        let (conv_out, w_conv, b_conv) = self.conv.forward(tape, x);
        let activated = tape.relu(conv_out);
        // Global average pooling: one row per image.
        let pooled = tape.mean_pool_rows(activated, p);
        let (logits, w_head, b_head) = self.head.forward(tape, pooled);
        CnnForward {
            logits,
            params: [w_conv, b_conv, w_head, b_head],
        }
    }

    /// Mutable parameters in forward order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Tensor> {
        vec![
            &mut self.conv.weight,
            &mut self.conv.bias,
            &mut self.head.weight,
            &mut self.head.bias,
        ]
    }
}

/// A synthetic 8×8 "digits" dataset with four stroke classes: horizontal
/// bar, vertical bar, main diagonal, and centered blob — plus pixel noise.
/// Linearly hard in raw pixels when strokes shift position; trivially
/// separable after a convolution learns stroke detectors.
pub fn stroke_digits(n: usize, noise: f32, seed: u64) -> (ImageBatch, Vec<usize>) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let (h, w) = (8usize, 8usize);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pixels = vec![0.0f32; n * h * w];
    let mut labels = Vec::with_capacity(n);
    for img in 0..n {
        let class = img % 4;
        labels.push(class);
        let base = img * h * w;
        let offset = rng.gen_range(1..7usize); // stroke position shifts
        match class {
            0 => {
                for c in 0..w {
                    pixels[base + offset * w + c] = 1.0;
                }
            }
            1 => {
                for r in 0..h {
                    pixels[base + r * w + offset] = 1.0;
                }
            }
            2 => {
                for d in 0..h {
                    pixels[base + d * w + d] = 1.0;
                }
            }
            _ => {
                for r in 3..5 {
                    for c in 3..5 {
                        pixels[base + r * w + c] = 1.0;
                    }
                }
            }
        }
        if noise > 0.0 {
            for p in pixels[base..base + h * w].iter_mut() {
                *p += rng.gen_range(-noise..noise);
            }
        }
    }
    (
        ImageBatch {
            batch: n,
            height: h,
            width: w,
            pixels,
        },
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn im2col_extracts_correct_patches() {
        // One 3×3 image, 2×2 kernel → 4 patches.
        let images = ImageBatch {
            batch: 1,
            height: 3,
            width: 3,
            pixels: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        };
        let cols = im2col(&images, 2);
        assert_eq!(cols.shape(), (4, 4));
        assert_eq!(cols.row(0), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(cols.row(1), &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(cols.row(2), &[4.0, 5.0, 7.0, 8.0]);
        assert_eq!(cols.row(3), &[5.0, 6.0, 8.0, 9.0]);
        assert_eq!(patches_per_image(3, 3, 2), 4);
    }

    #[test]
    fn cnn_constant_im2col_matches_leaf_input_bitwise() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cnn = SmallCnn::new(3, 4, 4, &mut rng);
        let (images, labels) = stroke_digits(3, 0.2, 9);
        let mask = vec![true; labels.len()];
        let param_grads = |tape: &Tape, logits: Var, params: [Var; 4]| {
            let loss = tape.cross_entropy(logits, &labels, &mask);
            let grads = tape.backward(loss);
            let input_grad = grads[0].is_some();
            let params: Vec<Tensor> = params
                .iter()
                .map(|v| grads[v.index()].clone().expect("param grad"))
                .collect();
            (input_grad, params)
        };

        let tape = Tape::new();
        let fwd = cnn.forward(&tape, &images);
        let (const_input_grad, constant) = param_grads(&tape, fwd.logits, fwd.params);

        // The same forward with the im2col matrix recorded as a leaf.
        let tape = Tape::new();
        let x = tape.leaf(im2col(&images, cnn.k));
        let (conv_out, w_conv, b_conv) = cnn.conv.forward(&tape, x);
        let pooled = tape.mean_pool_rows(
            tape.relu(conv_out),
            patches_per_image(images.height, images.width, cnn.k),
        );
        let (logits, w_head, b_head) = cnn.head.forward(&tape, pooled);
        let (leaf_input_grad, leaf) = param_grads(&tape, logits, [w_conv, b_conv, w_head, b_head]);

        assert!(!const_input_grad, "the im2col constant gets no gradient");
        assert!(leaf_input_grad);
        assert_eq!(constant, leaf);
    }

    #[test]
    fn im2col_matmul_equals_naive_convolution() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (images, _) = stroke_digits(2, 0.3, 5);
        let k = 3usize;
        let filter = Tensor::randn(k * k, 1, &mut rng);
        let cols = im2col(&images, k);
        let fast = cols.matmul(&filter).unwrap();
        // Naive direct convolution, image 0, patch (r, c).
        let out_w = images.width - k + 1;
        for (r, c) in [(0usize, 0usize), (2, 3), (5, 5)] {
            let mut acc = 0.0f32;
            for dr in 0..k {
                for dc in 0..k {
                    acc += images.get(0, r + dr, c + dc) * filter.get(dr * k + dc, 0);
                }
            }
            let row = r * out_w + c;
            assert!((fast.get(row, 0) - acc).abs() < 1e-4, "patch ({r},{c})");
        }
    }

    #[test]
    fn mean_pool_rows_value_and_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_rows(&[
            &[1.0, 2.0],
            &[3.0, 4.0],
            &[5.0, 6.0],
            &[7.0, 8.0],
        ]));
        let pooled = tape.mean_pool_rows(x, 2);
        let v = tape.value(pooled);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.get(0, 0), 2.0);
        assert_eq!(v.get(1, 1), 7.0);
        // Gradient: each input row receives upstream/2.
        let loss = tape.cross_entropy(pooled, &[0, 1], &[true, true]);
        let grads = tape.backward(loss);
        let g = grads[x.index()].as_ref().unwrap();
        assert_eq!(g.shape(), (4, 2));
        assert!(
            (g.get(0, 0) - g.get(1, 0)).abs() < 1e-7,
            "rows in a group share gradient"
        );
    }

    #[test]
    fn cnn_learns_stroke_classification() {
        let (train, train_labels) = stroke_digits(64, 0.15, 2);
        let (test, test_labels) = stroke_digits(32, 0.15, 99);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cnn = SmallCnn::new(3, 8, 4, &mut rng);
        let mut opt = Adam::new(0.03);
        let mask = vec![true; train.batch];
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for step in 0..60 {
            let tape = Tape::new();
            let fwd = cnn.forward(&tape, &train);
            let loss = tape.cross_entropy(fwd.logits, &train_labels, &mask);
            let loss_val = tape.value(loss).get(0, 0);
            if step == 0 {
                first_loss = loss_val;
            }
            last_loss = loss_val;
            let grads = tape.backward(loss);
            let grad_tensors: Vec<Tensor> = fwd
                .params
                .iter()
                .map(|v| grads[v.index()].clone().expect("param grad"))
                .collect();
            opt.step_all(cnn.parameters_mut(), &grad_tensors);
        }
        assert!(
            last_loss < 0.5 * first_loss,
            "loss {first_loss} → {last_loss}"
        );
        // Generalization to unseen shifted strokes.
        let tape = Tape::new();
        let fwd = cnn.forward(&tape, &test);
        let logits = tape.value(fwd.logits);
        let acc = accuracy(&logits, &test_labels, &vec![true; test.batch]);
        assert!(acc > 0.7, "test accuracy {acc}");
    }

    #[test]
    fn stroke_digits_are_balanced_and_deterministic() {
        let (images, labels) = stroke_digits(40, 0.1, 7);
        assert_eq!(images.batch, 40);
        for class in 0..4 {
            assert_eq!(labels.iter().filter(|&&l| l == class).count(), 10);
        }
        let (again, _) = stroke_digits(40, 0.1, 7);
        assert_eq!(images, again);
    }

    #[test]
    #[should_panic(expected = "kernel must fit")]
    fn oversized_kernel_rejected() {
        let (images, _) = stroke_digits(1, 0.0, 0);
        let _ = im2col(&images, 9);
    }
}
