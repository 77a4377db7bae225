//! Undirected graphs in compressed sparse row form.

use crate::GraphError;
use serde::{Deserialize, Serialize};

/// An undirected graph stored as symmetric CSR with integer node weights
/// and f64 edge weights (weights matter during multilevel coarsening).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    edge_weights: Vec<f64>,
    node_weights: Vec<u64>,
}

impl Graph {
    /// Builds from an undirected edge list (each pair listed once);
    /// self-loops and duplicate edges are merged (weights summed).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let weighted: Vec<(usize, usize, f64)> = edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
        Self::from_weighted_edges(n, &weighted, vec![1; n])
    }

    /// Builds from weighted undirected edges with explicit node weights.
    /// Edge weights must be finite and non-negative.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(usize, usize, f64)],
        node_weights: Vec<u64>,
    ) -> Result<Self, GraphError> {
        if node_weights.len() != n {
            return Err(GraphError::BadParameter(format!(
                "node_weights length {} != n {n}",
                node_weights.len()
            )));
        }
        // Symmetrize, drop self-loops, merge duplicates.
        let mut sym: Vec<(usize, usize, f64)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v, w) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if !(w.is_finite() && w >= 0.0) {
                return Err(GraphError::BadParameter(format!(
                    "edge ({u}, {v}) has weight {w}; weights must be finite and non-negative"
                )));
            }
            if u == v {
                continue;
            }
            sym.push((u, v, w));
            sym.push((v, u, w));
        }
        sym.sort_by_key(|a| (a.0, a.1));
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sym.len());
        for (u, v, w) in sym {
            match merged.last_mut() {
                Some((lu, lv, lw)) if *lu == u && *lv == v => *lw += w,
                _ => merged.push((u, v, w)),
            }
        }
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::with_capacity(merged.len());
        let mut edge_weights = Vec::with_capacity(merged.len());
        let mut row = 0usize;
        for (u, v, w) in merged {
            while row < u {
                row += 1;
                indptr[row] = indices.len();
            }
            indices.push(v);
            edge_weights.push(w);
        }
        while row < n {
            row += 1;
            indptr[row] = indices.len();
        }
        Ok(Self::from_csr(indptr, indices, edge_weights, node_weights))
    }

    /// Wraps CSR arrays the caller has already made symmetric, with
    /// ascending self-loop-free rows and no duplicate neighbours.
    pub(crate) fn from_csr(
        indptr: Vec<usize>,
        indices: Vec<usize>,
        edge_weights: Vec<f64>,
        node_weights: Vec<u64>,
    ) -> Self {
        let n = node_weights.len();
        debug_assert_eq!(indptr.len(), n + 1);
        debug_assert_eq!(indptr[n], indices.len());
        debug_assert_eq!(indices.len(), edge_weights.len());
        Self {
            n,
            indptr,
            indices,
            edge_weights,
            node_weights,
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.indices.len() / 2
    }

    /// Degree of `u` (number of distinct neighbors).
    pub fn degree(&self, u: usize) -> usize {
        self.indptr[u + 1] - self.indptr[u]
    }

    /// Iterates `(neighbor, edge_weight)` pairs of `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[u];
        let hi = self.indptr[u + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.edge_weights[lo..hi])
            .map(|(&v, &w)| (v, w))
    }

    /// The integer weight of node `u` (1 unless coarsened).
    pub fn node_weight(&self, u: usize) -> u64 {
        self.node_weights[u]
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> u64 {
        self.node_weights.iter().sum()
    }

    /// Whether an edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).any(|(x, _)| x == v)
    }

    /// All undirected edges `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.num_edges());
        for u in 0..self.n {
            for (v, w) in self.neighbors(u) {
                if u < v {
                    out.push((u, v, w));
                }
            }
        }
        out
    }

    /// Extracts the induced subgraph on `nodes` (local id `i` is
    /// `nodes[i]`), returning it plus the mapping from new local ids to the
    /// original ids. The CSR is built row by row from this graph's rows:
    /// each induced edge `{i, j}`, `i < j`, is read once from row
    /// `nodes[i]` and written to rows `i` and `j`. Rows are visited in
    /// ascending `i`, so a row's lower neighbours arrive sorted; its upper
    /// neighbours follow the parent row's order, which is ascending when
    /// `nodes` ascends and is sorted otherwise.
    pub fn subgraph(&self, nodes: &[usize]) -> Result<(Graph, Vec<usize>), GraphError> {
        let mut local = vec![usize::MAX; self.n];
        for (i, &u) in nodes.iter().enumerate() {
            if u >= self.n {
                return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
            }
            local[u] = i;
        }
        let ascending = nodes.windows(2).all(|w| w[0] < w[1]);
        let n = nodes.len();
        let mut degree = vec![0usize; n];
        let mut upper: Vec<(usize, f64)> = Vec::new();
        let mut upper_ptr = Vec::with_capacity(n + 1);
        upper_ptr.push(0);
        for (i, &u) in nodes.iter().enumerate() {
            let start = upper.len();
            for (v, w) in self.neighbors(u) {
                let j = local[v];
                if j != usize::MAX && i < j {
                    upper.push((j, w));
                    degree[i] += 1;
                    degree[j] += 1;
                }
            }
            if !ascending {
                upper[start..].sort_unstable_by_key(|&(j, _)| j);
            }
            upper_ptr.push(upper.len());
        }
        let mut indptr = vec![0usize; n + 1];
        for i in 0..n {
            indptr[i + 1] = indptr[i] + degree[i];
        }
        let mut indices = vec![0usize; upper.len() * 2];
        let mut edge_weights = vec![0.0f64; upper.len() * 2];
        let mut next = indptr[..n].to_vec();
        for i in 0..n {
            for &(j, w) in &upper[upper_ptr[i]..upper_ptr[i + 1]] {
                for (row, col) in [(i, j), (j, i)] {
                    indices[next[row]] = col;
                    edge_weights[next[row]] = w;
                    next[row] += 1;
                }
            }
        }
        let node_weights = nodes.iter().map(|&u| self.node_weights[u]).collect();
        let g = Self::from_csr(indptr, indices, edge_weights, node_weights);
        Ok((g, nodes.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn basic_counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.total_node_weight(), 3);
    }

    #[test]
    fn symmetry_of_neighbors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn self_loops_dropped_duplicates_merged() {
        let g =
            Graph::from_weighted_edges(3, &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 2.0)], vec![1, 1, 1])
                .unwrap();
        assert_eq!(g.num_edges(), 1);
        let (v, w) = g.neighbors(0).next().unwrap();
        assert_eq!(v, 1);
        assert_eq!(w, 3.0); // 1.0 + 2.0 merged
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4).count(), 0);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn bad_edge_weights_rejected() {
        // A 400-node ring with a bad weight on every 7th node's edges. NaN
        // used to get through here and panic later, inside METIS matching.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let edges: Vec<_> = (0..400)
                .map(|u| {
                    let w = if u % 7 == 0 || (u + 1) % 7 == 0 {
                        bad
                    } else {
                        1.0
                    };
                    (u, (u + 1) % 400, w)
                })
                .collect();
            assert!(matches!(
                Graph::from_weighted_edges(400, &edges, vec![1; 400]),
                Err(GraphError::BadParameter(_))
            ));
        }
    }

    #[test]
    fn edges_listed_once_with_u_less_than_v() {
        let g = triangle();
        let es = g.edges();
        assert_eq!(es.len(), 3);
        assert!(es.iter().all(|&(u, v, _)| u < v));
    }

    #[test]
    fn subgraph_keeps_internal_edges_only() {
        // Path 0-1-2-3; induced on {1, 2, 3} keeps edges 1-2, 2-3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (sub, mapping) = g.subgraph(&[1, 2, 3]).unwrap();
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(mapping, vec![1, 2, 3]);
        assert!(sub.has_edge(0, 1)); // old 1-2
        assert!(sub.has_edge(1, 2)); // old 2-3
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn node_weights_carried_into_subgraph() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 1.0)], vec![7, 8, 9]).unwrap();
        let (sub, _) = g.subgraph(&[2, 0]).unwrap();
        assert_eq!(sub.node_weight(0), 9);
        assert_eq!(sub.node_weight(1), 7);
    }
}
