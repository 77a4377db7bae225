//! Graph partitioning: multilevel k-way (METIS-style) and the random
//! baseline, plus the quality metrics the course's labs report.
//!
//! Algorithm 1 line 3: "Partition G into {G₁, …, G_k} using METIS". METIS
//! itself is a C library; this module reimplements its three-phase
//! multilevel scheme:
//!
//! 1. **Coarsening** — heavy-edge matching collapses matched pairs into
//!    super-nodes (weights summed, parallel edges merged) until the graph
//!    is small. Each coarse level's CSR is built straight from the fine
//!    CSR, with no edge list and no sort.
//! 2. **Initial partitioning** — greedy region growing on the coarsest
//!    graph: BFS floods carve off ~1/k of the node weight per part, then
//!    refinement passes (below) polish it there.
//! 3. **Uncoarsening + refinement** — the partition is projected back
//!    through every level to the original graph, which is refined once
//!    more: boundary nodes greedily move to the neighboring part with the
//!    highest edge-cut gain, subject to a balance constraint
//!    (Kernighan–Lin/Fiduccia–Mattheyses style passes). Unlike METIS, the
//!    intermediate levels are not refined.
//!
//! The contract matches what the paper's experiments need: far lower edge
//! cut than random partitioning on community-structured graphs, with node
//! balance within a few percent.

use crate::csr::Graph;
use crate::GraphError;
use rand::prelude::*;
use rand::rngs::SmallRng;
use std::borrow::Cow;

/// Total weight of edges whose endpoints lie in different parts.
pub fn edge_cut(g: &Graph, parts: &[usize]) -> f64 {
    (0..g.num_nodes())
        .flat_map(|u| g.neighbors(u).map(move |(v, w)| (u, v, w)))
        .filter(|&(u, v, _)| u < v && parts[u] != parts[v])
        .map(|(_, _, w)| w)
        .sum()
}

/// Maximum part node-weight divided by the ideal `total / k`
/// (1.0 = perfectly balanced).
pub fn partition_balance(g: &Graph, parts: &[usize], k: usize) -> f64 {
    let mut weights = vec![0u64; k];
    for u in 0..g.num_nodes() {
        weights[parts[u]] += g.node_weight(u);
    }
    let ideal = g.total_node_weight() as f64 / k as f64;
    weights.iter().map(|&w| w as f64).fold(0.0, f64::max) / ideal
}

/// Balanced random partition: a seeded shuffle chunked into k equal parts —
/// the baseline the paper had students compare METIS against.
pub fn random_partition(n: usize, k: usize, seed: u64) -> Result<Vec<usize>, GraphError> {
    if k == 0 || k > n {
        return Err(GraphError::TooManyPartitions { parts: k, nodes: n });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut parts = vec![0usize; n];
    for (i, &u) in order.iter().enumerate() {
        parts[u] = i * k / n;
    }
    Ok(parts)
}

/// Heavy-edge matching: each unmatched node grabs its heaviest unmatched
/// neighbor. Returns the fine→coarse map and the coarse node count.
fn heavy_edge_matching(g: &Graph, visit_order: &[usize]) -> (Vec<usize>, usize) {
    let n = g.num_nodes();
    let mut matched = vec![usize::MAX; n];
    let mut coarse_id = vec![usize::MAX; n];
    let mut next = 0usize;
    for &u in visit_order {
        if matched[u] != usize::MAX {
            continue;
        }
        let best = g
            .neighbors(u)
            .filter(|&(v, _)| matched[v] == usize::MAX && v != u)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"))
            .map(|(v, _)| v);
        match best {
            Some(v) => {
                matched[u] = v;
                matched[v] = u;
                coarse_id[u] = next;
                coarse_id[v] = next;
            }
            None => {
                matched[u] = u;
                coarse_id[u] = next;
            }
        }
        next += 1;
    }
    (coarse_id, next)
}

/// The weight of the coarse edge joining a node with members `mc` to one
/// with members `mv`, from its fine-edge weights: `joins[2a + b]` joins
/// `mc[a]` to `mv[b]`, for each slot set in `present`. A matching merges at
/// most two nodes, so at most 2 × 2 fine edges join two coarse nodes.
///
/// The terms are summed left to right from the first in ascending
/// `(min, max)` fine-endpoint order. That is the order in which sorting and
/// merging the contracted edge list adds them, so the bits match it for any
/// finite weights, and w(a, b) and w(b, a) sum the same terms alike. One or
/// two terms sum the same in any order, so only three or four are sorted.
fn coarse_weight(mc: &[usize; 2], mv: &[usize; 2], joins: &[f64; 4], present: u8) -> f64 {
    let (low, high) = (present.trailing_zeros(), 7 - present.leading_zeros());
    match present.count_ones() {
        1 => return joins[low as usize],
        2 => return joins[low as usize] + joins[high as usize],
        _ => {}
    }
    let mut terms = [((0, 0), 0f64); 4];
    let mut len = 0;
    for (slot, &w) in joins.iter().enumerate() {
        if present & (1 << slot) != 0 {
            let (u, v) = (mc[slot / 2], mv[slot % 2]);
            terms[len] = ((u.min(v), u.max(v)), w);
            len += 1;
        }
    }
    let terms = &mut terms[..len];
    terms.sort_unstable_by_key(|&(key, _)| key);
    let (first, rest) = terms.split_first().expect("a coarse edge has a fine edge");
    rest.iter().fold(first.1, |sum, &(_, w)| sum + w)
}

/// One coarsening level: a heavy-edge matching over a shuffled visit order,
/// and the coarse graph it induces. Returns the coarse graph and the
/// fine→coarse map.
///
/// The coarse CSR is built straight from the fine one in one pass, O(E + n)
/// with no sort: coarse nodes in id order, each row gathered from its one or
/// two members' fine rows into a join table indexed by coarse neighbour. A
/// bitset over the coarse ids marks the row's neighbours, and reading it
/// word by word yields them in ascending id order, which the next level's
/// matching tie-breaks depend on.
fn coarsen(g: &Graph, rng: &mut SmallRng) -> (Graph, Vec<usize>) {
    let n = g.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let (fine_to_coarse, coarse_n) = heavy_edge_matching(g, &order);

    // Members in ascending fine id, the second `usize::MAX` if unmatched.
    let mut members = vec![[usize::MAX; 2]; coarse_n];
    let mut node_weights = vec![0u64; coarse_n];
    for (u, &c) in fine_to_coarse.iter().enumerate() {
        let m = &mut members[c];
        if m[0] == usize::MAX {
            m[0] = u;
        } else {
            m[1] = u;
        }
        node_weights[c] += g.node_weight(u);
    }

    // For the row being built: `joins[cv]` and `present[cv]` hold the fine
    // edges to coarse neighbour `cv` (see `coarse_weight`), and bit `cv` of
    // `marked` is set. Emitting the row clears all three.
    let mut joins = vec![[0f64; 4]; coarse_n];
    let mut present = vec![0u8; coarse_n];
    let mut marked = vec![0u64; coarse_n.div_ceil(64)];
    let mut indptr = Vec::with_capacity(coarse_n + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(2 * g.num_edges());
    let mut edge_weights = Vec::with_capacity(2 * g.num_edges());
    for (c, mc) in members.iter().enumerate() {
        let (mut lo, mut hi) = (marked.len(), 0);
        for (a, &u) in mc.iter().enumerate().filter(|&(_, &u)| u != usize::MAX) {
            for (v, w) in g.neighbors(u) {
                let cv = fine_to_coarse[v];
                if cv == c {
                    continue;
                }
                let slot = 2 * a + usize::from(members[cv][0] != v);
                joins[cv][slot] = w;
                present[cv] |= 1 << slot;
                marked[cv / 64] |= 1 << (cv % 64);
                lo = lo.min(cv / 64);
                hi = hi.max(cv / 64 + 1);
            }
        }
        for (word, bits) in marked.iter_mut().enumerate().take(hi).skip(lo) {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let cv = 64 * word + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mask = std::mem::take(&mut present[cv]);
                indices.push(cv);
                edge_weights.push(coarse_weight(mc, &members[cv], &joins[cv], mask));
            }
        }
        indptr.push(indices.len());
    }
    let graph = Graph::from_csr(indptr, indices, edge_weights, node_weights);
    (graph, fine_to_coarse)
}

/// Greedy region growing on the (coarsest) graph.
fn initial_partition(g: &Graph, k: usize, rng: &mut SmallRng) -> Vec<usize> {
    let n = g.num_nodes();
    let total = g.total_node_weight();
    let target = total as f64 / k as f64;
    let mut parts = vec![usize::MAX; n];
    let mut assigned = 0usize;

    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.shuffle(rng);
    let mut seed_cursor = 0usize;

    for part in 0..k.saturating_sub(1) {
        let mut weight = 0f64;
        let mut queue = std::collections::VecDeque::new();
        while assigned < n && weight < target {
            if queue.is_empty() {
                // New flood seed: first unassigned node in shuffled order.
                while seed_cursor < n && parts[seeds[seed_cursor]] != usize::MAX {
                    seed_cursor += 1;
                }
                if seed_cursor >= n {
                    break;
                }
                queue.push_back(seeds[seed_cursor]);
            }
            let Some(u) = queue.pop_front() else { break };
            if parts[u] != usize::MAX {
                continue;
            }
            parts[u] = part;
            assigned += 1;
            weight += g.node_weight(u) as f64;
            for (v, _) in g.neighbors(u) {
                if parts[v] == usize::MAX {
                    queue.push_back(v);
                }
            }
        }
    }
    // Remainder to the last part.
    for p in parts.iter_mut() {
        if *p == usize::MAX {
            *p = k - 1;
        }
    }
    parts
}

/// Boundary refinement passes: move nodes to the adjacent part with the
/// best positive edge-cut gain while keeping every part under
/// `(1 + imbalance) × target` weight.
fn refine(g: &Graph, parts: &mut [usize], k: usize, passes: usize, imbalance: f64) {
    let n = g.num_nodes();
    let total = g.total_node_weight() as f64;
    let max_weight = (1.0 + imbalance) * total / k as f64;
    let mut part_weight = vec![0f64; k];
    for u in 0..n {
        part_weight[parts[u]] += g.node_weight(u) as f64;
    }
    // Connectivity of the node being visited to each part.
    let mut conn = vec![0f64; k];
    for _ in 0..passes {
        let mut moved = false;
        for u in 0..n {
            let home = parts[u];
            conn.fill(0.0);
            for (v, w) in g.neighbors(u) {
                conn[parts[v]] += w;
            }
            let (mut best_part, mut best_gain) = (home, 0.0f64);
            for p in 0..k {
                if p == home {
                    continue;
                }
                let gain = conn[p] - conn[home];
                let uw = g.node_weight(u) as f64;
                if gain > best_gain
                    && part_weight[p] + uw <= max_weight
                    && part_weight[home] - uw > 0.0
                {
                    best_gain = gain;
                    best_part = p;
                }
            }
            if best_part != home {
                let uw = g.node_weight(u) as f64;
                part_weight[home] -= uw;
                part_weight[best_part] += uw;
                parts[u] = best_part;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Multilevel k-way partitioning in the METIS style. Deterministic for a
/// given `(graph, k)` (internal RNG is fix-seeded).
pub fn metis_partition(g: &Graph, k: usize) -> Result<Vec<usize>, GraphError> {
    let n = g.num_nodes();
    if k == 0 || k > n {
        return Err(GraphError::TooManyPartitions { parts: k, nodes: n });
    }
    if k == 1 {
        return Ok(vec![0; n]);
    }
    let mut rng = SmallRng::seed_from_u64(0x006d_6574_6973);

    // Phase 1: coarsen until small or stuck. Only the fine→coarse maps are
    // kept: phase 3 projects through them and never reads a coarse graph.
    let coarsen_stop = (30 * k).max(120);
    let mut maps: Vec<Vec<usize>> = Vec::new();
    let mut current = Cow::Borrowed(g);
    while current.num_nodes() > coarsen_stop {
        let (coarse, fine_to_coarse) = coarsen(&current, &mut rng);
        // Matching can stall on star-like graphs; require 10% shrink.
        if coarse.num_nodes() as f64 > 0.9 * current.num_nodes() as f64 {
            break;
        }
        current = Cow::Owned(coarse);
        maps.push(fine_to_coarse);
    }

    // Phase 2: initial partition on the coarsest graph, refined there.
    let mut parts = initial_partition(&current, k, &mut rng);
    refine(&current, &mut parts, k, 6, 0.05);

    // Phase 3: project back through every level without refining, then
    // refine on the original graph.
    for fine_to_coarse in maps.iter().rev() {
        parts = fine_to_coarse.iter().map(|&c| parts[c]).collect();
    }
    refine(g, &mut parts, k, 8, 0.05);
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, ring, sbm, SbmParams};
    use proptest::prelude::*;

    fn two_cliques(size: usize) -> Graph {
        // Two dense cliques joined by a single bridge edge.
        let mut edges = Vec::new();
        for u in 0..size {
            for v in u + 1..size {
                edges.push((u, v));
                edges.push((size + u, size + v));
            }
        }
        edges.push((0, size)); // bridge
        Graph::from_edges(2 * size, &edges).unwrap()
    }

    /// FNV-1a over the part ids: a fingerprint that pins a whole partition.
    fn fingerprint(parts: &[usize]) -> u64 {
        parts.iter().fold(0xcbf2_9ce4_8422_2325, |h, &p| {
            (h ^ p as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The A10 training graph: 3 200 nodes in four blocks. SBM draws the
    /// edges before the features, so the small `feature_dim` leaves the
    /// graph unchanged.
    fn a10_graph(seed: u64) -> Graph {
        sbm(
            &SbmParams {
                block_sizes: vec![800; 4],
                p_in: 0.10,
                p_out: 0.02,
                feature_dim: 1,
                feature_separation: 0.5,
                train_fraction: 0.3,
            },
            seed,
        )
        .unwrap()
        .graph
    }

    /// The sort-based builder `coarsen` replaced: contract every fine edge
    /// through the map, then let `from_weighted_edges` symmetrise, sort and
    /// merge the list.
    fn coarsen_by_sorting(g: &Graph, fine_to_coarse: &[usize], coarse_n: usize) -> Graph {
        let mut node_weights = vec![0u64; coarse_n];
        for u in 0..g.num_nodes() {
            node_weights[fine_to_coarse[u]] += g.node_weight(u);
        }
        let mut edges = Vec::new();
        for (u, v, w) in g.edges() {
            let (cu, cv) = (fine_to_coarse[u], fine_to_coarse[v]);
            if cu != cv {
                edges.push((cu, cv, w));
            }
        }
        Graph::from_weighted_edges(coarse_n, &edges, node_weights).unwrap()
    }

    /// The sort-based builder `Graph::subgraph` replaced: every induced
    /// edge once in local ids (`i < j`), then `from_weighted_edges`
    /// symmetrises, sorts and merges the list.
    fn subgraph_by_sorting(g: &Graph, nodes: &[usize]) -> Graph {
        let mut local = vec![usize::MAX; g.num_nodes()];
        for (i, &u) in nodes.iter().enumerate() {
            local[u] = i;
        }
        let mut edges = Vec::new();
        for (i, &u) in nodes.iter().enumerate() {
            for (v, w) in g.neighbors(u) {
                let j = local[v];
                if j != usize::MAX && i < j {
                    edges.push((i, j, w));
                }
            }
        }
        let node_weights = nodes.iter().map(|&u| g.node_weight(u)).collect();
        Graph::from_weighted_edges(nodes.len(), &edges, node_weights).unwrap()
    }

    /// Node weights and every CSR row, with edge weights as bits.
    fn csr_bits(g: &Graph) -> (Vec<u64>, Vec<Vec<(usize, u64)>>) {
        let rows = (0..g.num_nodes())
            .map(|u| g.neighbors(u).map(|(v, w)| (v, w.to_bits())).collect())
            .collect();
        ((0..g.num_nodes()).map(|u| g.node_weight(u)).collect(), rows)
    }

    /// A random weighted graph: non-integer weights spanning many binades
    /// (some zero), duplicate edges to merge, self-loops to drop, a hub
    /// whose leaves mostly stay unmatched, and a tail of isolated nodes.
    fn random_graph(n: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let active = n - n / 5;
        let weight = |rng: &mut SmallRng| {
            if rng.gen_range(0..20) == 0 {
                0.0
            } else {
                rng.gen::<f64>() * 2f64.powi(rng.gen_range(-12..12))
            }
        };
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0..4 * active) {
            let (u, v) = (rng.gen_range(0..active), rng.gen_range(0..active));
            let w = weight(&mut rng);
            edges.push((u, v, w));
        }
        for leaf in 1..active.min(12) {
            let w = weight(&mut rng);
            edges.push((0, leaf, w));
        }
        let node_weights = (0..n).map(|_| rng.gen_range(1..4)).collect();
        Graph::from_weighted_edges(n, &edges, node_weights).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Three levels of the direct CSR build match the sort-based
        /// builder bit for bit: row order, node weights and every edge
        /// weight's bits.
        #[test]
        fn coarsen_matches_the_sort_based_builder(n in 1usize..120, seed in 0u64..u64::MAX) {
            let mut g = random_graph(n, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..3 {
                let (coarse, fine_to_coarse) = coarsen(&g, &mut rng);
                let reference = coarsen_by_sorting(&g, &fine_to_coarse, coarse.num_nodes());
                prop_assert_eq!(csr_bits(&coarse), csr_bits(&reference));
                g = coarse;
            }
        }
    }

    /// Two coarse nodes joined by four fine edges and two joined by three,
    /// with weights whose sum depends on the order of its terms: 1 + 1 +
    /// 1e16 keeps the ones, 1e16 + 1 + 1 rounds them away. Each row's join
    /// sums them in the sort-based builder's order, bit for bit, in both
    /// directions, whichever ids the matching hands out.
    #[test]
    fn coarsen_sums_three_and_four_fine_edges_in_endpoint_order() {
        // The 1e17 edges force the matching {0, 1}, {2, 3}, {4, 5}, {6, 7}.
        let edges = [
            (0, 1, 1e17),
            (2, 3, 1e17),
            (0, 2, 1.0),
            (0, 3, 1e16),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (4, 5, 1e17),
            (6, 7, 1e17),
            (4, 6, 1.0),
            (4, 7, 1e16),
            (5, 6, 1.0),
        ];
        let g = Graph::from_weighted_edges(8, &edges, vec![1; 8]).unwrap();
        for seed in 0..8 {
            let (coarse, fine_to_coarse) = coarsen(&g, &mut SmallRng::seed_from_u64(seed));
            let c = |u: usize| fine_to_coarse[u];
            assert_eq!(coarse.num_nodes(), 4);
            assert!([(0, 1), (2, 3), (4, 5), (6, 7)]
                .iter()
                .all(|&(u, v)| c(u) == c(v)));
            let reference = coarsen_by_sorting(&g, &fine_to_coarse, 4);
            assert_eq!(csr_bits(&coarse), csr_bits(&reference), "seed {seed}");
            for (u, v) in [(0, 2), (2, 0), (4, 6), (6, 4)] {
                let joined: Vec<f64> = coarse
                    .neighbors(c(u))
                    .filter(|&(cv, _)| cv == c(v))
                    .map(|(_, w)| w)
                    .collect();
                assert_eq!(joined, [1e16], "seed {seed}, {u} → {v}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The row-by-row induced CSR matches the sort-based builder bit
        /// for bit on random weighted graphs, for a random node list
        /// (any order, repeats allowed) and for its sorted, deduplicated
        /// copy.
        #[test]
        fn subgraph_matches_the_sort_based_builder(n in 1usize..120, seed in 0u64..u64::MAX) {
            let g = random_graph(n, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ab);
            let mut nodes: Vec<usize> = (0..rng.gen_range(0..=n)).map(|_| rng.gen_range(0..n)).collect();
            for _ in 0..2 {
                let (sub, mapping) = g.subgraph(&nodes).unwrap();
                prop_assert_eq!(&mapping, &nodes);
                prop_assert_eq!(csr_bits(&sub), csr_bits(&subgraph_by_sorting(&g, &nodes)));
                nodes.sort_unstable();
                nodes.dedup();
            }
        }
    }

    /// Every METIS partition of the A10 graph, with its nodes ascending
    /// (as the Algorithm 1 scatter gathers them) and shuffled: the
    /// row-by-row induced CSR matches the sort-based builder bit for bit.
    #[test]
    fn subgraph_matches_the_sort_based_builder_on_a10_partitions() {
        let g = a10_graph(7);
        let parts = metis_partition(&g, 8).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for part in 0..8 {
            let mut nodes: Vec<usize> = (0..g.num_nodes()).filter(|&u| parts[u] == part).collect();
            for _ in 0..2 {
                let (sub, _) = g.subgraph(&nodes).unwrap();
                assert!(sub.num_edges() > 0);
                assert_eq!(csr_bits(&sub), csr_bits(&subgraph_by_sorting(&g, &nodes)));
                nodes.shuffle(&mut rng);
            }
        }
    }

    /// Partitions recorded before coarsening built each level's CSR
    /// straight from the fine CSR; that rewrite must not move a single node.
    #[test]
    fn partitions_are_pinned() {
        let cases: Vec<(&str, Graph, usize, u64, f64)> = vec![
            (
                "a10 seed 2025",
                a10_graph(2025),
                8,
                0x0ba4_d23f_48d0_80b3,
                172_101.0,
            ),
            (
                "a10 seed 7",
                a10_graph(7),
                8,
                0xdfdc_cfb9_8678_dfe9,
                172_122.0,
            ),
            (
                "grid 16x16",
                grid(16, 16).unwrap(),
                2,
                0x8efe_459c_acda_a19c,
                27.0,
            ),
            (
                "grid 16x16",
                grid(16, 16).unwrap(),
                4,
                0x8b4f_a239_408e_d024,
                49.0,
            ),
            ("ring 64", ring(64).unwrap(), 2, 0xdccc_97ad_452b_43c5, 2.0),
            ("ring 64", ring(64).unwrap(), 4, 0x43d9_bad9_c67c_dea5, 6.0),
            (
                "two cliques 20",
                two_cliques(20),
                2,
                0x8dc4_d591_3824_6439,
                1.0,
            ),
            (
                "two cliques 20",
                two_cliques(20),
                4,
                0x7e30_bbb1_65b4_f40d,
                218.0,
            ),
        ];
        for (name, g, k, hash, cut) in cases {
            let parts = metis_partition(&g, k).unwrap();
            assert_eq!(fingerprint(&parts), hash, "{name}, k = {k}");
            assert_eq!(edge_cut(&g, &parts), cut, "{name}, k = {k}");
        }
    }

    #[test]
    fn metis_cuts_the_bridge_between_cliques() {
        let g = two_cliques(20);
        let parts = metis_partition(&g, 2).unwrap();
        assert_eq!(edge_cut(&g, &parts), 1.0, "only the bridge should be cut");
        assert!(partition_balance(&g, &parts, 2) < 1.05);
        // The cliques end up whole.
        assert!((0..20).all(|u| parts[u] == parts[0]));
        assert!((20..40).all(|u| parts[u] == parts[20]));
        assert_ne!(parts[0], parts[20]);
    }

    #[test]
    fn metis_beats_random_on_community_graphs() {
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![100, 100, 100, 100],
                p_in: 0.15,
                p_out: 0.005,
                feature_dim: 4,
                feature_separation: 1.0,
                train_fraction: 0.5,
            },
            17,
        )
        .unwrap();
        let g = &ds.graph;
        let metis = metis_partition(g, 4).unwrap();
        let random = random_partition(g.num_nodes(), 4, 1).unwrap();
        let metis_cut = edge_cut(g, &metis);
        let random_cut = edge_cut(g, &random);
        assert!(
            metis_cut < 0.5 * random_cut,
            "METIS cut {metis_cut} should be far below random cut {random_cut}"
        );
        assert!(partition_balance(g, &metis, 4) < 1.10);
    }

    #[test]
    fn grid_partition_is_contiguousish_and_balanced() {
        let g = grid(16, 16).unwrap();
        let parts = metis_partition(&g, 4).unwrap();
        assert!(partition_balance(&g, &parts, 4) < 1.10);
        // A 16×16 grid cut into 4 parts needs ≥ 2×16 cut edges in the
        // ideal quadrant cut; accept up to 3× that for the heuristic.
        let cut = edge_cut(&g, &parts);
        assert!(cut <= 96.0, "cut {cut} too high for a grid");
        // Every part non-empty.
        for p in 0..4 {
            assert!(parts.contains(&p), "part {p} empty");
        }
    }

    #[test]
    fn ring_bisection_cuts_two_edges_or_close() {
        let g = ring(64).unwrap();
        let parts = metis_partition(&g, 2).unwrap();
        let cut = edge_cut(&g, &parts);
        // Optimal is exactly 2; allow a small slack for the heuristic.
        assert!(cut <= 6.0, "ring cut {cut}");
        assert!(partition_balance(&g, &parts, 2) < 1.07);
    }

    #[test]
    fn k_equals_one_and_errors() {
        let g = ring(10).unwrap();
        assert_eq!(metis_partition(&g, 1).unwrap(), vec![0; 10]);
        assert!(matches!(
            metis_partition(&g, 0),
            Err(GraphError::TooManyPartitions { .. })
        ));
        assert!(matches!(
            metis_partition(&g, 11),
            Err(GraphError::TooManyPartitions { .. })
        ));
        assert!(random_partition(10, 0, 0).is_err());
    }

    #[test]
    fn metis_is_deterministic() {
        let g = two_cliques(15);
        assert_eq!(
            metis_partition(&g, 2).unwrap(),
            metis_partition(&g, 2).unwrap()
        );
    }

    #[test]
    fn random_partition_is_balanced() {
        let parts = random_partition(1000, 4, 7).unwrap();
        for p in 0..4 {
            let count = parts.iter().filter(|&&x| x == p).count();
            assert_eq!(count, 250);
        }
    }

    #[test]
    fn random_partition_cut_near_expectation() {
        let g = ring(400).unwrap();
        let parts = random_partition(400, 4, 3).unwrap();
        // Random 4-way: each edge cut with probability 3/4 → ~300 of 400.
        let cut = edge_cut(&g, &parts);
        assert!(cut > 250.0 && cut < 350.0, "cut {cut}");
    }

    #[test]
    fn partition_balance_of_degenerate_assignment() {
        let g = ring(8).unwrap();
        let all_zero = vec![0usize; 8];
        // Everything in part 0 of 2: max weight 8 vs ideal 4 → balance 2.0.
        assert!((partition_balance(&g, &all_zero, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_nodes_respected_in_balance() {
        let g = Graph::from_weighted_edges(
            4,
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            vec![10, 1, 1, 10],
        )
        .unwrap();
        let parts = metis_partition(&g, 2).unwrap();
        // The heavy endpoints must land in different parts for balance.
        assert_ne!(parts[0], parts[3]);
    }

    #[test]
    fn all_parts_nonempty_on_larger_k() {
        let ds = sbm(
            &SbmParams {
                block_sizes: vec![60; 8],
                p_in: 0.2,
                p_out: 0.01,
                feature_dim: 2,
                feature_separation: 1.0,
                train_fraction: 0.5,
            },
            23,
        )
        .unwrap();
        let parts = metis_partition(&ds.graph, 8).unwrap();
        for p in 0..8 {
            assert!(parts.contains(&p), "part {p} empty");
        }
        assert!(partition_balance(&ds.graph, &parts, 8) < 1.2);
    }
}
