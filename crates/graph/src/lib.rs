//! # sagegpu-graph — graphs, generators, and METIS-like partitioning
//!
//! The reproduced paper's central technical artifact (Algorithm 1) trains
//! GCNs over "large-scale, real-world networks such as PubMed and Reddit",
//! partitioned with METIS and distributed across GPUs; students also
//! compared against random partitioning and analyzed GPU utilization.
//!
//! Neither dataset can be downloaded in this environment, and METIS is a C
//! library — so this crate builds both substrates from scratch:
//!
//! - [`csr::Graph`] — undirected graphs in CSR form with node/edge weights.
//! - [`generators`] — stochastic-block-model datasets with class-correlated
//!   node features, one parameterized to PubMed's shape (plus label-free
//!   fixtures: rings, grids, G(n, p)).
//!   SBM graphs have the property the GCN experiments need: label
//!   homophily, so neighbor aggregation genuinely helps classification.
//! - [`normalize`] — the symmetric GCN normalization Â = D^{-1/2}(A+I)D^{-1/2}.
//! - [`partition`] — multilevel k-way partitioning in the METIS style
//!   (heavy-edge-matching coarsening → greedy region-growing initial
//!   partition → boundary refinement), the random baseline, and the
//!   edge-cut/balance metrics the course's labs report.

pub mod csr;
pub mod generators;
pub mod normalize;
pub mod partition;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::csr::Graph;
    pub use crate::generators::{GraphDataset, SbmParams};
    pub use crate::normalize::normalized_adjacency;
    pub use crate::partition::{edge_cut, metis_partition, partition_balance, random_partition};
    pub use crate::GraphError;
}

/// Errors raised by graph construction and partitioning.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge endpoint exceeds the node count.
    NodeOutOfRange { node: usize, n: usize },
    /// Requested more partitions than nodes.
    TooManyPartitions { parts: usize, nodes: usize },
    /// A parameter was outside its domain.
    BadParameter(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::TooManyPartitions { parts, nodes } => {
                write!(f, "cannot cut {nodes} nodes into {parts} partitions")
            }
            GraphError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}
