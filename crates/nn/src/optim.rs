//! Optimizers: SGD (with momentum) and Adam.

use sagegpu_tensor::dense::Tensor;

/// The optimizer contract: update parameter `i` in place given its gradient.
///
/// Slot `i` must refer to the same parameter across steps (state such as
/// momentum is keyed on it).
pub trait Optimizer {
    /// Applies one update to parameter slot `i`.
    fn step(&mut self, i: usize, param: &mut Tensor, grad: &Tensor);

    /// Convenience: update a full parameter list against matching grads.
    fn step_all(&mut self, params: Vec<&mut Tensor>, grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        for (i, (p, g)) in params.into_iter().zip(grads).enumerate() {
            self.step(i, p, g);
        }
    }
}

/// One SGD step's scalars: the one-pass update kernels [`Sgd`] applies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SgdStep {
    pub lr: f32,
    pub momentum: f32,
}

impl SgdStep {
    /// `p ← p − d·lr` in place: the plain SGD step (`d` = the gradient), and
    /// the first momentum step, whose velocity is the gradient itself.
    pub fn descend(&self, p: &mut Tensor, d: &Tensor) {
        assert_eq!(p.shape(), d.shape(), "param/grad shapes");
        for (p, &d) in p.data_mut().iter_mut().zip(d.data()) {
            *p -= d * self.lr;
        }
    }

    /// A later momentum step in one pass: `v ← v·β + g; p ← p − v·lr`.
    pub fn momentum(&self, p: &mut Tensor, v: &mut Tensor, g: &Tensor) {
        assert_eq!(p.shape(), g.shape(), "param/grad shapes");
        assert_eq!(v.shape(), g.shape(), "velocity/grad shapes");
        for ((p, v), &g) in p.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
            *v = *v * self.momentum + g;
            *p -= *v * self.lr;
        }
    }
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `β`: `v ← βv + g; p ← p − lr·v`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, i: usize, param: &mut Tensor, grad: &Tensor) {
        let step = SgdStep {
            lr: self.lr,
            momentum: self.momentum,
        };
        if step.momentum == 0.0 {
            step.descend(param, grad);
            return;
        }
        if self.velocity.len() <= i {
            self.velocity.resize(i + 1, None);
        }
        match &mut self.velocity[i] {
            Some(v) => step.momentum(param, v, grad),
            slot @ None => {
                step.descend(param, grad);
                *slot = Some(grad.clone());
            }
        }
    }
}

/// One Adam step's scalars: the hyper-parameters plus the bias-correction
/// reciprocals `k₁ = 1/(1 − β₁ᵗ)`, `k₂ = 1/(1 − β₂ᵗ)` of step `t`. [`Adam`]
/// and [`ResidentAdam`](crate::resident::ResidentAdam) both update through
/// [`AdamStep::apply`], so host and resident trajectories are bit-identical.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    k1: f32,
    k2: f32,
}

impl AdamStep {
    /// The scalars of step `t` (steps before the first count as the first).
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32, t: i32) -> Self {
        let t = t.max(1) as f32;
        Self {
            lr,
            beta1,
            beta2,
            eps,
            k1: 1.0 / (1.0 - beta1.powf(t)),
            k2: 1.0 / (1.0 - beta2.powf(t)),
        }
    }

    /// Updates parameter `p` and moments `m`, `v` (zeros before the first
    /// step) in place from gradient `g`, one pass per element:
    ///
    /// - `m ← m·β₁ + g·(1 − β₁)`
    /// - `v ← v·β₂ + (g·g)·(1 − β₂)`
    /// - `p ← p − lr·(m·k₁) / (√(v·k₂) + ε)`
    ///
    /// Every product and sum rounds on its own (no FMA), in the order given.
    pub fn apply(&self, p: &mut Tensor, m: &mut Tensor, v: &mut Tensor, g: &Tensor) {
        assert_eq!(p.shape(), g.shape(), "param/grad shapes");
        assert_eq!(m.shape(), g.shape(), "moment/grad shapes");
        assert_eq!(v.shape(), g.shape(), "moment/grad shapes");
        let (c1, c2) = (1.0 - self.beta1, 1.0 - self.beta2);
        let moments = m.data_mut().iter_mut().zip(v.data_mut());
        for ((p, (m, v)), &g) in p.data_mut().iter_mut().zip(moments).zip(g.data()) {
            *m = *m * self.beta1 + g * c1;
            *v = *v * self.beta2 + g * g * c2;
            *p -= self.lr * (*m * self.k1) / ((*v * self.k2).sqrt() + self.eps);
        }
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: i32,
    /// First and second moments per parameter slot.
    moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Adam with the canonical defaults (β₁ = .9, β₂ = .999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Advances the shared timestep; call once per optimizer step *before*
    /// the per-parameter updates (done automatically by `step_all`).
    pub fn tick(&mut self) {
        self.t += 1;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, i: usize, param: &mut Tensor, grad: &Tensor) {
        if self.moments.len() <= i {
            self.moments.resize(i + 1, None);
        }
        let step = AdamStep::new(self.lr, self.beta1, self.beta2, self.eps, self.t);
        let (m, v) = self.moments[i].get_or_insert_with(|| {
            let zeros = Tensor::zeros(grad.rows(), grad.cols());
            (zeros.clone(), zeros)
        });
        step.apply(param, m, v, grad);
    }

    fn step_all(&mut self, params: Vec<&mut Tensor>, grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        self.tick();
        for (i, (p, g)) in params.into_iter().zip(grads).enumerate() {
            self.step(i, p, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl f(p) = ‖p − target‖²; gradient 2(p − target).
    fn quadratic_grad(p: &Tensor, target: &Tensor) -> Tensor {
        p.sub(target).unwrap().scale(2.0)
    }

    fn loss(p: &Tensor, target: &Tensor) -> f32 {
        let d = p.sub(target).unwrap();
        d.data().iter().map(|x| x * x).sum()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let target = Tensor::from_rows(&[&[3.0, -2.0]]);
        let mut p = Tensor::zeros(1, 2);
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = quadratic_grad(&p, &target);
            opt.step(0, &mut p, &g);
        }
        assert!(loss(&p, &target) < 1e-6);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let target = Tensor::from_rows(&[&[5.0]]);
        let steps_to_converge = |mut opt: Sgd| -> usize {
            let mut p = Tensor::zeros(1, 1);
            for step in 0..1000 {
                let g = quadratic_grad(&p, &target);
                opt.step(0, &mut p, &g);
                if loss(&p, &target) < 1e-6 {
                    return step;
                }
            }
            1000
        };
        let plain = steps_to_converge(Sgd::new(0.02));
        let with_momentum = steps_to_converge(Sgd::with_momentum(0.02, 0.9));
        assert!(
            with_momentum < plain,
            "momentum {with_momentum} steps vs plain {plain}"
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let target = Tensor::from_rows(&[&[1.0, -4.0, 2.5]]);
        let mut p = Tensor::zeros(1, 3);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let g = quadratic_grad(&p, &target);
            opt.step_all(vec![&mut p], &[g]);
        }
        assert!(loss(&p, &target) < 1e-4, "loss {}", loss(&p, &target));
    }

    #[test]
    fn adam_handles_sparse_scale_differences() {
        // One coordinate has a 100× larger gradient scale; Adam normalizes.
        let mut p = Tensor::zeros(1, 2);
        let target = Tensor::from_rows(&[&[1.0, 1.0]]);
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let mut g = quadratic_grad(&p, &target);
            g.set(0, 0, g.get(0, 0) * 100.0);
            opt.step_all(vec![&mut p], &[g]);
        }
        assert!((p.get(0, 0) - 1.0).abs() < 0.05);
        assert!((p.get(0, 1) - 1.0).abs() < 0.05);
    }

    #[test]
    fn separate_slots_keep_separate_state() {
        let mut a = Tensor::zeros(1, 1);
        let mut b = Tensor::zeros(1, 1);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let ga = Tensor::from_rows(&[&[1.0]]);
        let gb = Tensor::from_rows(&[&[-1.0]]);
        for _ in 0..5 {
            opt.step(0, &mut a, &ga);
            opt.step(1, &mut b, &gb);
        }
        // Symmetric gradients must yield symmetric trajectories.
        assert!((a.get(0, 0) + b.get(0, 0)).abs() < 1e-6);
    }

    /// The multi-pass Adam chain [`AdamStep::apply`] replaced: one
    /// allocating tensor op per term. Returns the new `(p, m, v)`.
    fn adam_reference(
        opt: &Adam,
        t: i32,
        p: &Tensor,
        m_prev: &Tensor,
        v_prev: &Tensor,
        g: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let t = t.max(1) as f32;
        let m = m_prev
            .scale(opt.beta1)
            .add(&g.scale(1.0 - opt.beta1))
            .unwrap();
        let v = v_prev
            .scale(opt.beta2)
            .add(&g.hadamard(g).unwrap().scale(1.0 - opt.beta2))
            .unwrap();
        let m_hat = m.scale(1.0 / (1.0 - opt.beta1.powf(t)));
        let v_hat = v.scale(1.0 / (1.0 - opt.beta2.powf(t)));
        let mut update = m_hat;
        for (u, vh) in update.data_mut().iter_mut().zip(v_hat.data()) {
            *u = opt.lr * *u / (vh.sqrt() + opt.eps);
        }
        (p.sub(&update).unwrap(), m, v)
    }

    /// The multi-pass SGD chain [`SgdStep`] replaced. Returns the new
    /// parameter and velocity (`None` for plain SGD).
    fn sgd_reference(
        lr: f32,
        momentum: f32,
        p: &Tensor,
        velocity: Option<Tensor>,
        g: &Tensor,
    ) -> (Tensor, Option<Tensor>) {
        if momentum == 0.0 {
            return (p.sub(&g.scale(lr)).unwrap(), None);
        }
        let v = match velocity {
            Some(prev) => prev.scale(momentum).add(g).unwrap(),
            None => g.clone(),
        };
        (p.sub(&v.scale(lr)).unwrap(), Some(v))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Signed zeros, subnormals and magnitudes whose square overflows.
    const SPECIAL: [f32; 7] = [0.0, -0.0, 1e-40, -1e-40, 1e-45, 1e30, -1e30];

    /// Step `step`'s gradient: entries cycle through `pool` so shapes of
    /// any size draw on every special value the pool holds.
    fn gradient(rows: usize, cols: usize, step: usize, pool: &[f32]) -> Tensor {
        let data = (0..rows * cols)
            .map(|j| pool[(j * 7 + step * 13) % pool.len()])
            .collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    fn pool(picks: &[usize], vals: &[f32]) -> Vec<f32> {
        picks
            .iter()
            .zip(vals)
            .map(|(&k, &v)| SPECIAL.get(k).copied().unwrap_or(v))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The one-pass Adam kernel reproduces the multi-pass chain bit for
        /// bit: parameter after every step, and both moments at the end.
        #[test]
        fn adam_kernel_matches_multi_pass_chain_bitwise(
            rows in 1usize..34,
            cols in 1usize..18,
            steps in 1usize..31,
            lr in 1e-4f32..0.5,
            picks in proptest::collection::vec(0usize..21, 64..65),
            vals in proptest::collection::vec(-4.0f32..4.0, 64..65),
        ) {
            let pool = pool(&picks, &vals);
            let mut opt = Adam::new(lr);
            let mut p = gradient(rows, cols, 99, &pool);
            let mut want = (p.clone(), Tensor::zeros(rows, cols), Tensor::zeros(rows, cols));
            for step in 0..steps {
                let g = gradient(rows, cols, step, &pool);
                opt.step_all(vec![&mut p], std::slice::from_ref(&g));
                want = adam_reference(&opt, step as i32 + 1, &want.0, &want.1, &want.2, &g);
                proptest::prop_assert_eq!(bits(&p), bits(&want.0));
            }
            let (m, v) = opt.moments[0].as_ref().unwrap();
            proptest::prop_assert_eq!(bits(m), bits(&want.1));
            proptest::prop_assert_eq!(bits(v), bits(&want.2));
        }

        /// The one-pass SGD steps reproduce the multi-pass chain bit for
        /// bit, with and without momentum.
        #[test]
        fn sgd_kernel_matches_multi_pass_chain_bitwise(
            rows in 1usize..34,
            cols in 1usize..18,
            steps in 1usize..31,
            lr in 1e-4f32..0.5,
            with_momentum in 0usize..2,
            picks in proptest::collection::vec(0usize..21, 64..65),
            vals in proptest::collection::vec(-4.0f32..4.0, 64..65),
        ) {
            let pool = pool(&picks, &vals);
            let momentum = if with_momentum == 1 { 0.9 } else { 0.0 };
            let mut opt = Sgd::with_momentum(lr, momentum);
            let mut p = gradient(rows, cols, 99, &pool);
            let mut want = (p.clone(), None);
            for step in 0..steps {
                let g = gradient(rows, cols, step, &pool);
                opt.step(0, &mut p, &g);
                want = sgd_reference(lr, momentum, &want.0, want.1, &g);
                proptest::prop_assert_eq!(bits(&p), bits(&want.0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn step_all_validates_lengths() {
        let mut p = Tensor::zeros(1, 1);
        Sgd::new(0.1).step_all(vec![&mut p], &[]);
    }
}
