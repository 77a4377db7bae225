//! Graph and dataset generators.
//!
//! The paper's GCN labs ran on PubMed (~19.7k nodes, 3 classes, 500-d
//! TF-IDF features) and Reddit (232k nodes, 41 classes). Those datasets
//! are not available offline, so experiments use stochastic-block-model
//! (planted-partition) graphs with class-conditional Gaussian features —
//! the standard synthetic stand-in for citation/community networks. SBM
//! graphs preserve the property the experiments measure: labels are
//! *homophilous* (neighbors tend to share classes), so GCN aggregation
//! carries real signal, and community structure gives METIS something to
//! find that random partitioning misses. [`sbm`] builds one from explicit
//! parameters and [`pubmed_like`] at PubMed's proportions; [`ring`],
//! [`grid`] and [`erdos_renyi`] are label-free fixtures for the
//! partitioners.

use crate::csr::Graph;
use crate::GraphError;
use rand::prelude::*;
use rand::rngs::SmallRng;
use rayon::prelude::*;

/// Parameters of a stochastic block model.
#[derive(Debug, Clone, PartialEq)]
pub struct SbmParams {
    /// Nodes per block (block count = `block_sizes.len()`).
    pub block_sizes: Vec<usize>,
    /// Within-block edge probability.
    pub p_in: f64,
    /// Cross-block edge probability.
    pub p_out: f64,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Distance between class feature means (signal strength).
    pub feature_separation: f32,
    /// Fraction of nodes marked as training examples.
    pub train_fraction: f64,
}

impl SbmParams {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.block_sizes.is_empty() || self.block_sizes.contains(&0) {
            return Err(GraphError::BadParameter(
                "block sizes must be non-empty and positive".into(),
            ));
        }
        for (name, p) in [
            ("p_in", self.p_in),
            ("p_out", self.p_out),
            ("train_fraction", self.train_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(GraphError::BadParameter(format!(
                    "{name} must be in [0,1], got {p}"
                )));
            }
        }
        if self.feature_dim == 0 {
            return Err(GraphError::BadParameter("feature_dim must be >= 1".into()));
        }
        Ok(())
    }
}

/// A node-classification dataset: graph + features + labels + split.
#[derive(Debug, Clone)]
pub struct GraphDataset {
    pub graph: Graph,
    /// Row-major `n × d` feature matrix.
    pub features: Vec<f32>,
    pub feature_dim: usize,
    /// Class label per node.
    pub labels: Vec<usize>,
    pub num_classes: usize,
    /// Training-set membership per node.
    pub train_mask: Vec<bool>,
    /// Human-readable dataset name.
    pub name: String,
}

impl GraphDataset {
    /// Feature row of node `u`.
    pub fn feature_row(&self, u: usize) -> &[f32] {
        &self.features[u * self.feature_dim..(u + 1) * self.feature_dim]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Indices of training nodes.
    pub fn train_nodes(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&u| self.train_mask[u])
            .collect()
    }

    /// Indices of held-out nodes.
    pub fn test_nodes(&self) -> Vec<usize> {
        (0..self.num_nodes())
            .filter(|&u| !self.train_mask[u])
            .collect()
    }

    /// Fraction of edges whose endpoints share a label (homophily).
    pub fn edge_homophily(&self) -> f64 {
        let edges = self.graph.edges();
        if edges.is_empty() {
            return 0.0;
        }
        let same = edges
            .iter()
            .filter(|&&(u, v, _)| self.labels[u] == self.labels[v])
            .count();
        same as f64 / edges.len() as f64
    }
}

/// Samples an SBM dataset.
pub fn sbm(params: &SbmParams, seed: u64) -> Result<GraphDataset, GraphError> {
    params.validate()?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = params.block_sizes.len();
    let n: usize = params.block_sizes.iter().sum();

    // Node labels by block.
    let mut labels = Vec::with_capacity(n);
    for (b, &size) in params.block_sizes.iter().enumerate() {
        labels.extend(std::iter::repeat_n(b, size));
    }

    // Edges: Bernoulli per pair is O(n²); geometric skipping over the
    // strictly-upper-triangular pair index keeps sparse graphs fast at
    // PubMed scale.
    let mut edges = Vec::new();
    let total_pairs = n * (n - 1) / 2;
    // Walk pairs with geometric jumps at rate p_max, then accept each
    // visited pair at p_actual / p_max — one pass, exact distribution.
    // The pair index maps to (u, v) incrementally since idx only grows.
    let p_max = params.p_in.max(params.p_out);
    if p_max > 0.0 {
        let mut idx = 0usize;
        let mut u = 0usize;
        let mut row_start = 0usize; // pair index of the first pair in row u
        while idx < total_pairs {
            // Jump ~ Geometric(p_max).
            let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = if p_max >= 1.0 {
                0
            } else {
                (r.ln() / (1.0 - p_max).ln()).floor() as usize
            };
            idx = idx.saturating_add(skip);
            if idx >= total_pairs {
                break;
            }
            while idx >= row_start + (n - 1 - u) {
                row_start += n - 1 - u;
                u += 1;
            }
            let v = u + 1 + (idx - row_start);
            let p = if labels[u] == labels[v] {
                params.p_in
            } else {
                params.p_out
            };
            if rng.gen::<f64>() < p / p_max {
                edges.push((u, v));
            }
            idx += 1;
        }
    }

    // Class-conditional features: mean direction per class + unit noise.
    let d = params.feature_dim;
    let mut class_means = vec![0.0f32; k * d];
    for c in 0..k {
        for j in 0..d {
            // Deterministic orthogonal-ish means: class c loads dims c, c+k, ...
            if j % k == c {
                class_means[c * d + j] = params.feature_separation;
            }
        }
    }
    // Box–Muller noise, one (u1, u2) pair per feature in row-major order.
    // The transforms (`ln`, `sqrt`, `cos`) run over blocks of rows in
    // parallel: each block redraws its pairs from a copy of the stream taken
    // where its first pair falls, which a serial pass finds by drawing every
    // pair in order. The features do not depend on the core count, and the
    // train-mask draws below read the stream where the last pair left it.
    const BLOCK_ROWS: usize = 64;
    let uniform_pair =
        |rng: &mut SmallRng| -> (f64, f64) { (rng.gen_range(1e-12..1.0), rng.gen()) };
    let block_rngs: Vec<SmallRng> = (0..n)
        .step_by(BLOCK_ROWS)
        .map(|first| {
            let start = rng.clone();
            for _ in 0..BLOCK_ROWS.min(n - first) * d {
                uniform_pair(&mut rng);
            }
            start
        })
        .collect();
    let mut features = vec![0.0f32; n * d];
    features
        .par_chunks_mut(BLOCK_ROWS * d)
        .enumerate()
        .for_each(|(b, block)| {
            let mut rng = block_rngs[b].clone();
            for (row, &c) in block.chunks_exact_mut(d).zip(&labels[b * BLOCK_ROWS..]) {
                for (f, &mean) in row.iter_mut().zip(&class_means[c * d..(c + 1) * d]) {
                    let (u1, u2) = uniform_pair(&mut rng);
                    let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    *f = mean + noise as f32;
                }
            }
        });

    let train_mask: Vec<bool> = (0..n)
        .map(|_| rng.gen::<f64>() < params.train_fraction)
        .collect();

    Ok(GraphDataset {
        graph: Graph::from_edges(n, &edges)?,
        features,
        feature_dim: d,
        labels,
        num_classes: k,
        train_mask,
        name: format!("sbm-n{n}-k{k}"),
    })
}

/// A PubMed-shaped SBM: 3 classes, 500-d features, mean degree ≈ 4.5.
/// `scale` shrinks the node count for fast experiments (1.0 ≈ 19.7k nodes).
pub fn pubmed_like(scale: f64, seed: u64) -> Result<GraphDataset, GraphError> {
    let base = [7875, 7739, 4103]; // PubMed's class proportions
    let block_sizes: Vec<usize> = base
        .iter()
        .map(|&b| ((b as f64 * scale) as usize).max(8))
        .collect();
    let n: usize = block_sizes.iter().sum();
    // Calibrate p_in/p_out to a mean degree ≈ 4.5 with strong homophily.
    let target_degree = 4.5;
    let p_in = target_degree * 0.8 / (n as f64 / 3.0);
    let p_out = target_degree * 0.2 / (2.0 * n as f64 / 3.0);
    let mut ds = sbm(
        &SbmParams {
            block_sizes,
            p_in: p_in.min(1.0),
            p_out: p_out.min(1.0),
            feature_dim: 500,
            feature_separation: 1.2,
            train_fraction: 0.3,
        },
        seed,
    )?;
    ds.name = format!("pubmed-like-{}", ds.num_nodes());
    Ok(ds)
}

/// A cycle graph on `n` nodes.
pub fn ring(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::BadParameter("ring needs n >= 3".into()));
    }
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

/// A `rows × cols` 4-neighbor grid.
pub fn grid(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::BadParameter("grid needs positive dims".into()));
    }
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            if c + 1 < cols {
                edges.push((u, u + 1));
            }
            if r + 1 < rows {
                edges.push((u, u + cols));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// Erdős–Rényi G(n, p).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::BadParameter(format!(
            "p must be in [0,1], got {p}"
        )));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen::<f64>() < p {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Features and train mask recorded when every Box–Muller pair was
    /// drawn and transformed in one serial loop. 1 000 nodes make 16 row
    /// blocks, so the parallel transform fans out; the pin holds at any
    /// core count.
    #[test]
    fn sbm_features_and_split_are_pinned() {
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![500, 500],
                p_in: 0.05,
                p_out: 0.01,
                feature_dim: 12,
                feature_separation: 1.0,
                train_fraction: 0.3,
            },
            3,
        )
        .unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let bits = ds.features.iter().map(|v| u64::from(v.to_bits()));
        for x in bits.chain(ds.train_mask.iter().map(|&m| u64::from(m))) {
            h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(h, 0xadab_92c3_f0f3_4fbe);
        assert_eq!(ds.graph.num_edges(), 14_809);
    }

    #[test]
    fn sbm_basic_shape() {
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![50, 50, 50],
                p_in: 0.2,
                p_out: 0.01,
                feature_dim: 16,
                feature_separation: 1.0,
                train_fraction: 0.5,
            },
            1,
        )
        .unwrap();
        assert_eq!(ds.num_nodes(), 150);
        assert_eq!(ds.num_classes, 3);
        assert_eq!(ds.labels.iter().filter(|&&l| l == 0).count(), 50);
        assert_eq!(ds.features.len(), 150 * 16);
        assert!(!ds.train_nodes().is_empty());
        assert!(!ds.test_nodes().is_empty());
    }

    #[test]
    fn sbm_is_homophilous_when_p_in_dominates() {
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![80, 80],
                p_in: 0.25,
                p_out: 0.01,
                feature_dim: 8,
                feature_separation: 1.0,
                train_fraction: 0.5,
            },
            7,
        )
        .unwrap();
        assert!(
            ds.edge_homophily() > 0.8,
            "homophily {}",
            ds.edge_homophily()
        );
    }

    #[test]
    fn sbm_edge_count_near_expectation() {
        let n_per = 100usize;
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![n_per, n_per],
                p_in: 0.1,
                p_out: 0.02,
                feature_dim: 4,
                feature_separation: 1.0,
                train_fraction: 0.5,
            },
            3,
        )
        .unwrap();
        let within = 2.0 * (n_per * (n_per - 1) / 2) as f64 * 0.1;
        let across = (n_per * n_per) as f64 * 0.02;
        let expected = within + across;
        let got = ds.graph.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn sbm_deterministic_per_seed() {
        let p = SbmParams {
            block_sizes: vec![30, 30],
            p_in: 0.3,
            p_out: 0.05,
            feature_dim: 4,
            feature_separation: 1.0,
            train_fraction: 0.5,
        };
        let a = sbm(&p, 99).unwrap();
        let b = sbm(&p, 99).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.features, b.features);
        let c = sbm(&p, 100).unwrap();
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn features_carry_class_signal() {
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![60, 60],
                p_in: 0.1,
                p_out: 0.01,
                feature_dim: 10,
                feature_separation: 3.0,
                train_fraction: 0.5,
            },
            5,
        )
        .unwrap();
        // Class-0 nodes should average high on dim 0, class-1 on dim 1.
        let avg = |class: usize, dim: usize| -> f32 {
            let nodes: Vec<usize> = (0..ds.num_nodes())
                .filter(|&u| ds.labels[u] == class)
                .collect();
            nodes.iter().map(|&u| ds.feature_row(u)[dim]).sum::<f32>() / nodes.len() as f32
        };
        assert!(avg(0, 0) > 2.0);
        assert!(avg(1, 0) < 1.0);
        assert!(avg(1, 1) > 2.0);
    }

    #[test]
    fn pubmed_like_shape() {
        let ds = pubmed_like(0.02, 11).unwrap();
        assert_eq!(ds.num_classes, 3);
        assert_eq!(ds.feature_dim, 500);
        assert!(ds.num_nodes() > 300);
        let mean_degree = 2.0 * ds.graph.num_edges() as f64 / ds.num_nodes() as f64;
        assert!(
            mean_degree > 2.0 && mean_degree < 8.0,
            "mean degree {mean_degree}"
        );
    }

    #[test]
    fn ring_and_grid_shapes() {
        let r = ring(10).unwrap();
        assert_eq!(r.num_edges(), 10);
        assert!(r.has_edge(9, 0));
        assert!(ring(2).is_err());
        let g = grid(3, 4).unwrap();
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(grid(0, 5).is_err());
    }

    #[test]
    fn erdos_renyi_edge_density() {
        let g = erdos_renyi(100, 0.1, 42).unwrap();
        let expected = (100.0 * 99.0 / 2.0) * 0.1;
        let got = g.num_edges() as f64;
        assert!((got - expected).abs() < 0.3 * expected);
        assert!(erdos_renyi(10, 1.5, 0).is_err());
    }

    #[test]
    fn invalid_sbm_params_rejected() {
        let mut p = SbmParams {
            block_sizes: vec![],
            p_in: 0.1,
            p_out: 0.1,
            feature_dim: 4,
            feature_separation: 1.0,
            train_fraction: 0.5,
        };
        assert!(sbm(&p, 0).is_err());
        p.block_sizes = vec![10];
        p.p_in = 1.5;
        assert!(sbm(&p, 0).is_err());
        p.p_in = 0.1;
        p.feature_dim = 0;
        assert!(sbm(&p, 0).is_err());
    }
}
