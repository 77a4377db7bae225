//! Typed errors for index training and construction.
//!
//! Training a coarse quantizer or a product-quantization codebook can fail
//! in ways the caller must handle — an empty corpus, more lists than
//! vectors, a subspace layout that does not divide the embedding — and
//! silently clamping or panicking hides real configuration bugs.
//! [`IndexError`] names each failure; `sagegpu_core::error::SageError`
//! lifts it across layer boundaries like every other layer error.

use sagegpu_tensor::TensorError;

/// Any failure building or training a retrieval index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexError {
    /// Training was given no vectors at all.
    EmptyTrainingSet,
    /// More inverted lists were requested than training vectors exist, so
    /// some list could never receive a member.
    NlistExceedsCorpus { nlist: usize, corpus: usize },
    /// `nlist` (or a subquantizer count) of zero was requested.
    ZeroClusters,
    /// k-means converged with an inverted list that owns no vectors and
    /// could not be re-seeded (the training set has fewer distinct
    /// vectors than lists) — searches probing it would silently scan a
    /// degenerate centroid.
    EmptyCluster { list: usize },
    /// The product-quantization layout is impossible: `m` must divide
    /// `dim` and `nbits` must be in `1..=8`.
    BadPqConfig {
        dim: usize,
        m: usize,
        nbits: u32,
        reason: &'static str,
    },
    /// Codebook training needs at least `ksub` vectors per subspace.
    InsufficientTraining { needed: usize, got: usize },
    /// A sharded index was built over a cluster with no devices, or with
    /// more shards than devices.
    BadShardCount { shards: usize, devices: usize },
    /// A query's dimensionality does not match the index.
    DimMismatch { expected: usize, got: usize },
    /// Device residency failed while pinning codes or tables.
    Tensor(TensorError),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::EmptyTrainingSet => write!(f, "cannot train an index on zero vectors"),
            IndexError::NlistExceedsCorpus { nlist, corpus } => write!(
                f,
                "nlist {nlist} exceeds the {corpus}-vector training corpus"
            ),
            IndexError::ZeroClusters => write!(f, "cluster count must be at least 1"),
            IndexError::EmptyCluster { list } => write!(
                f,
                "inverted list {list} is empty after training (too few distinct vectors)"
            ),
            IndexError::BadPqConfig {
                dim,
                m,
                nbits,
                reason,
            } => write!(
                f,
                "bad PQ config (dim {dim}, m {m}, nbits {nbits}): {reason}"
            ),
            IndexError::InsufficientTraining { needed, got } => {
                write!(f, "codebook training needs {needed} vectors, got {got}")
            }
            IndexError::BadShardCount { shards, devices } => {
                write!(f, "cannot place {shards} shards on {devices} devices")
            }
            IndexError::DimMismatch { expected, got } => {
                write!(f, "query dim {got} does not match index dim {expected}")
            }
            IndexError::Tensor(e) => write!(f, "device residency: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for IndexError {
    fn from(e: TensorError) -> Self {
        IndexError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = IndexError::NlistExceedsCorpus {
            nlist: 32,
            corpus: 10,
        };
        assert!(e.to_string().contains("nlist 32"));
        assert!(e.to_string().contains("10-vector"));
        let e = IndexError::EmptyCluster { list: 3 };
        assert!(e.to_string().contains("list 3"));
    }

    #[test]
    fn source_chains_to_wrapped_layers() {
        use std::error::Error;
        let e = IndexError::from(TensorError::ShapeMismatch {
            expected: "4".into(),
            got: "3".into(),
        });
        assert!(e.source().is_some());
        assert!(IndexError::EmptyTrainingSet.source().is_none());
    }
}
