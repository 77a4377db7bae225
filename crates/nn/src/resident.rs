//! Device-resident training state: parameters and optimizer moments that
//! live on the GPU across steps.
//!
//! The host-path training loop implicitly "re-uploads" parameters every
//! step and pulls every gradient back — exactly the data-movement failure
//! mode the course's profiling weeks teach students to spot. This module
//! keeps the long-lived state where real frameworks keep it:
//!
//! - [`ResidentParams`] — model parameters uploaded **once** and mutated
//!   in place on the device; the only way back to the host is the explicit
//!   [`ResidentParams::to_host`] sync point, which charges the D2H.
//! - [`ResidentAdam`] — Adam whose moment state is allocated from the
//!   device pool on first use and never leaves. It shares the kernel of
//!   [`crate::optim::Adam`] (one in-place pass per element), so resident
//!   training is **bit-identical** to the host path.
//!
//! Forward/backward activations are the third leg: they are born resident
//! because every `GpuExecutor` op output already is (see
//! `sagegpu_tensor::residency`); inside a fused training-step kernel they
//! never exist on the host at all.

use crate::optim::AdamStep;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::residency::DeviceTensor;
use sagegpu_tensor::TensorError;

/// Model parameters resident in device memory.
#[derive(Debug)]
pub struct ResidentParams {
    tensors: Vec<DeviceTensor>,
}

impl ResidentParams {
    /// Uploads `params` onto `exec`'s device, charging one H2D per tensor.
    /// This is the scatter-once moment of a training run.
    pub fn upload(exec: &GpuExecutor, params: &[Tensor]) -> Result<Self, TensorError> {
        let tensors = params
            .iter()
            .map(|p| exec.upload(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { tensors })
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether there are no parameters.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total bytes of device memory the parameters occupy.
    pub fn bytes(&self) -> u64 {
        self.tensors.iter().map(|t| t.size_bytes()).sum()
    }

    /// The resident handles.
    pub fn tensors(&self) -> &[DeviceTensor] {
        &self.tensors
    }

    /// Mutable resident handles, for in-place device updates.
    pub fn tensors_mut(&mut self) -> &mut [DeviceTensor] {
        &mut self.tensors
    }

    /// Device-side views of the values — what a kernel on the owning
    /// device reads. Free; does not cross the host link.
    pub fn device_views(&self) -> Vec<&Tensor> {
        self.tensors.iter().map(|t| t.tensor()).collect()
    }

    /// Explicit synchronization point: reads every parameter back to the
    /// host, charging one D2H transfer per tensor. The parameters stay
    /// resident — this is a copy, not an eviction.
    pub fn to_host(&self, exec: &GpuExecutor) -> Result<Vec<Tensor>, TensorError> {
        self.tensors.iter().map(|t| exec.download(t)).collect()
    }
}

/// Adam whose first/second-moment state is device-resident.
///
/// Arithmetic matches [`Adam`](crate::optim::Adam) exactly; see the module docs.
#[derive(Debug)]
pub struct ResidentAdam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: i32,
    /// First and second moments per parameter, in the device pool.
    moments: Vec<Option<(DeviceTensor, DeviceTensor)>>,
}

impl ResidentAdam {
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

    /// The number of steps taken so far.
    pub fn steps(&self) -> i32 {
        self.t
    }

    /// Applies one Adam update per parameter on the device. Moments are
    /// pool-allocated on first use and mutated in place afterwards.
    pub fn step_all(
        &mut self,
        exec: &GpuExecutor,
        params: &mut ResidentParams,
        grads: &[Tensor],
    ) -> Result<(), TensorError> {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        self.t += 1;
        if self.moments.len() < params.len() {
            self.moments.resize_with(params.len(), || None);
        }
        let step = AdamStep::new(self.lr, self.beta1, self.beta2, self.eps, self.t);
        for (i, (p, grad)) in params.tensors_mut().iter_mut().zip(grads).enumerate() {
            let slot = &mut self.moments[i];
            if slot.is_none() {
                let zeros = || exec.alloc_on_device(Tensor::zeros(grad.rows(), grad.cols()));
                *slot = Some((zeros()?, zeros()?));
            }
            let (m, v) = slot.as_mut().expect("moments allocated");
            step.apply(p.tensor_mut(), m.tensor_mut(), v.tensor_mut(), grad);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use gpu_sim::{DeviceSpec, EventKind, Gpu};
    use std::sync::Arc;

    fn exec() -> GpuExecutor {
        GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())))
    }

    fn toy_grads(step: usize) -> Vec<Tensor> {
        vec![
            Tensor::full(2, 2, 0.3 + step as f32 * 0.07),
            Tensor::full(1, 2, -0.2 + step as f32 * 0.01),
        ]
    }

    #[test]
    fn resident_adam_is_bit_identical_to_host_adam() {
        let e = exec();
        let init = vec![Tensor::full(2, 2, 1.0), Tensor::full(1, 2, -0.5)];

        let mut host_params = init.clone();
        let mut host_opt = Adam::new(0.05);

        let mut dev_params = ResidentParams::upload(&e, &init).unwrap();
        let mut dev_opt = ResidentAdam::new(0.05);

        for step in 0..7 {
            let grads = toy_grads(step);
            host_opt.step_all(host_params.iter_mut().collect(), &grads);
            dev_opt.step_all(&e, &mut dev_params, &grads).unwrap();
        }
        let back = dev_params.to_host(&e).unwrap();
        assert_eq!(back, host_params, "trajectories must match exactly");
        assert_eq!(dev_opt.steps(), 7);
    }

    #[test]
    fn training_steps_charge_no_host_transfers() {
        let e = exec();
        let init = vec![Tensor::full(4, 4, 0.5)];
        let mut params = ResidentParams::upload(&e, &init).unwrap();
        let mut opt = ResidentAdam::new(0.01);
        let transfers = |e: &GpuExecutor| {
            e.gpu()
                .recorder()
                .snapshot()
                .iter()
                .filter(|ev| ev.kind.is_transfer())
                .count()
        };
        let before = transfers(&e);
        for step in 0..4 {
            let grads = vec![Tensor::full(4, 4, 0.1 * (step + 1) as f32)];
            opt.step_all(&e, &mut params, &grads).unwrap();
        }
        assert_eq!(transfers(&e), before, "optimizer steps must stay on-device");
        // Moments + params stay resident in the pool across steps.
        assert_eq!(e.pool().resident_count(), 3);
    }

    #[test]
    fn to_host_is_the_explicit_sync_point() {
        let e = exec();
        let init = vec![Tensor::full(2, 2, 1.0), Tensor::full(1, 2, 2.0)];
        let params = ResidentParams::upload(&e, &init).unwrap();
        let before = e.gpu().recorder().len();
        let host = params.to_host(&e).unwrap();
        assert_eq!(host, init);
        let evs = e.gpu().recorder().snapshot().split_off(before);
        let d2h: Vec<_> = evs
            .iter()
            .filter(|ev| ev.kind == EventKind::MemcpyD2H)
            .collect();
        assert_eq!(d2h.len(), 2, "one D2H per parameter");
        assert_eq!(d2h.iter().map(|ev| ev.bytes).sum::<u64>(), params.bytes());
    }

    #[test]
    fn params_report_bytes_and_views() {
        let e = exec();
        let init = vec![Tensor::zeros(2, 3), Tensor::zeros(1, 3)];
        let params = ResidentParams::upload(&e, &init).unwrap();
        assert_eq!(params.len(), 2);
        assert!(!params.is_empty());
        assert_eq!(params.bytes(), 4 * (6 + 3));
        let views = params.device_views();
        assert_eq!(views[0].shape(), (2, 3));
    }
}
