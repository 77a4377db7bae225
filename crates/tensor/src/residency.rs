//! Device residency: placement-aware tensor handles.
//!
//! The naive executor API treats the GPU as a pure function server — every
//! op takes host tensors and (dis)honestly re-stages them. This module is
//! the fix: a [`DeviceTensor`] owns a pooled slab of simulated device
//! memory (a [`PoolLease`]) alongside its values, so the executor can tell
//! *where an operand lives* and only charge a PCIe transfer on a residency
//! miss. [`TensorRef`] is the call-site glue: executor ops accept
//! `impl Into<TensorRef>`, so passing `&Tensor` (host, will be staged) and
//! `&DeviceTensor` (resident, free) both just work.
//!
//! The simulator computes on host RAM either way, which is what keeps the
//! host and device paths bit-identical: a `DeviceTensor` wraps the *same*
//! `Tensor` arithmetic, plus a capacity reservation and an identity the
//! pool can track.

use crate::dense::Tensor;
use crate::sparse::CsrMatrix;
use gpu_sim::pool::{BufferId, PoolLease};

/// Where a tensor's backing memory logically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Host RAM: using it on a device costs an H2D transfer.
    Host,
    /// Resident in the memory pool of device `ordinal`.
    Device(u32),
}

/// A tensor resident in simulated device memory.
///
/// Owns the values and a [`PoolLease`]; dropping it returns the slab to the
/// device pool's cache. Obtain one from `GpuExecutor::upload` or as the
/// output of any executor op.
#[derive(Debug)]
pub struct DeviceTensor {
    data: Tensor,
    lease: PoolLease,
}

impl DeviceTensor {
    pub(crate) fn new(data: Tensor, lease: PoolLease) -> Self {
        Self { data, lease }
    }

    /// Device-side view of the values (what a kernel on the owning device
    /// would read). Host code wanting the data *on the host* should go
    /// through `GpuExecutor::download`, which charges the D2H transfer.
    pub fn tensor(&self) -> &Tensor {
        &self.data
    }

    /// Mutable device-side view, for in-place device updates (optimizer
    /// steps). No transfer is charged: the write happens on-device.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        &mut self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.data.cols()
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.data.shape()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    /// Bytes of device memory the values occupy.
    pub fn size_bytes(&self) -> u64 {
        self.data.size_bytes()
    }

    /// Ordinal of the owning device.
    pub fn device(&self) -> u32 {
        self.lease.device()
    }

    /// Unique identity of the backing allocation.
    pub fn id(&self) -> BufferId {
        self.lease.id()
    }

    /// This tensor's placement.
    pub fn placement(&self) -> Placement {
        Placement::Device(self.lease.device())
    }

    pub(crate) fn lease(&self) -> &PoolLease {
        &self.lease
    }
}

/// Borrowed operand for executor ops: host- or device-resident.
#[derive(Debug, Clone, Copy)]
pub enum TensorRef<'a> {
    /// Host tensor: the executor stages it (charges H2D) before the kernel.
    Host(&'a Tensor),
    /// Device-resident tensor: used in place, no transfer.
    Device(&'a DeviceTensor),
}

impl<'a> TensorRef<'a> {
    /// The underlying values, wherever they live.
    pub fn tensor(&self) -> &'a Tensor {
        match self {
            TensorRef::Host(t) => t,
            TensorRef::Device(dt) => dt.tensor(),
        }
    }

    /// The operand's placement.
    pub fn placement(&self) -> Placement {
        match self {
            TensorRef::Host(_) => Placement::Host,
            TensorRef::Device(dt) => dt.placement(),
        }
    }

    /// Bytes the operand occupies.
    pub fn size_bytes(&self) -> u64 {
        self.tensor().size_bytes()
    }
}

impl<'a> From<&'a Tensor> for TensorRef<'a> {
    fn from(t: &'a Tensor) -> Self {
        TensorRef::Host(t)
    }
}

impl<'a> From<&'a DeviceTensor> for TensorRef<'a> {
    fn from(dt: &'a DeviceTensor) -> Self {
        TensorRef::Device(dt)
    }
}

impl<'a> From<&'a mut DeviceTensor> for TensorRef<'a> {
    fn from(dt: &'a mut DeviceTensor) -> Self {
        TensorRef::Device(dt)
    }
}

/// Bytes of device memory for a CSR matrix: values (f32) + column
/// indices (u32) per nonzero, plus the `rows + 1` row-pointer array.
pub(crate) fn csr_size_bytes(mat: &CsrMatrix) -> u64 {
    let (rows, _) = mat.shape();
    (8 * mat.nnz() + 4 * (rows + 1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_ref_from_host_reports_placement() {
        let t = Tensor::ones(2, 3);
        let r = TensorRef::from(&t);
        assert_eq!(r.placement(), Placement::Host);
        assert_eq!(r.tensor(), &t);
        assert_eq!(r.size_bytes(), 24);
    }

    #[test]
    fn csr_size_accounts_values_indices_and_indptr() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 1.0)]).unwrap();
        // 2 nnz * 8 bytes + 4 indptr entries * 4 bytes
        assert_eq!(csr_size_bytes(&m), 2 * 8 + 4 * 4);
    }
}
