//! Sharded IVF-PQ: one corpus partitioned across N simulated GPUs.
//!
//! [`ShardedIndex`] places inverted lists across the devices of a
//! [`GpuCluster`] under a [`Placement`] policy — size-balanced greedy by
//! default (largest list onto the lightest shard, so a skewed corpus
//! cannot pile its biggest lists onto one device the way the old blind
//! `c % n` round-robin could). Every shard holds the *same* coarse
//! centroids and PQ codebook but encodes only its own lists, so
//! per-device memory shrinks ~linearly with the shard count while the
//! probe decision stays global.
//!
//! Search plans once and scans each shard inline. The host half of a
//! batch — coarse scores, probe lists, ADC tables — depends only on the
//! queries and the shared quantizers, so it is computed once and handed
//! to every shard. Each shard then, in order on the calling thread, prices
//! its own command sequence on its own device (coarse probe, table build,
//! residency touches, scan, top-k select, hit read-back), scans the
//! intersection of the global top-`nprobe` lists with its own, and returns
//! its local top-k; the per-shard lists fold through the [`merge_top_k`]
//! merge tree. Because every shard prices its scan on its own device's
//! command stream, the simulated latency is the cluster makespan — the
//! per-device *max*, which is what shrinks as shards are added. The host
//! scans run serially: a thread pool scattering four sub-millisecond
//! scans cost more in wake-ups than it saved.
//!
//! The merge is bit-identical to a single-shard scan: shards partition
//! exactly the rows one shard would visit, score them with the identical
//! ADC arithmetic, and the ranking order is total (ties broken by
//! `doc_id` via `total_cmp`), so the global top-k is independent of how
//! candidates were grouped.
//!
//! Construction is itself parallel: the quantizers train once on a
//! sample, then every shard encodes and uploads its partition
//! concurrently on its own device.

use crate::error::IndexError;
use crate::index::{merge_top_k, nearest_centroid, train_coarse, RetrievalIndex, SearchHit};
use crate::pq::{IvfPqIndex, PqCodebook, PqConfig};
use crate::residency::TierStats;
use gpu_sim::pool::PoolStats;
use gpu_sim::GpuCluster;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::TensorError;
use std::sync::Arc;
use taskflow::ClusterBuilder;

/// How inverted lists map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Size-balanced greedy: lists sorted largest-first, each assigned to
    /// the shard currently holding the fewest code bytes — the classic
    /// longest-processing-time heuristic, so one hot topic cannot pile
    /// the corpus onto a single device.
    #[default]
    SizeBalanced,
    /// Blind `list % shards` striping (the pre-placement behavior, kept
    /// for comparison): balanced only when list sizes are uniform.
    RoundRobin,
}

/// Build-time parameters for a [`ShardedIndex`].
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    /// Inverted lists in the coarse quantizer.
    pub nlist: usize,
    /// Lists probed per query (global, not per shard).
    pub nprobe: usize,
    /// Product-quantization layout.
    pub pq: PqConfig,
    /// Training-sample size for both quantizers (capped at the corpus).
    pub sample: usize,
    /// Number of shards; must not exceed the cluster's device count.
    pub shards: usize,
    /// Exact re-rank depth at the gather node: when > 0, the merged PQ
    /// top-`max(refine, k)` is re-scored against full-precision host
    /// vectors before the final top-k. Refining *after* the merge keeps
    /// the result independent of the shard count.
    pub refine: usize,
    /// List → shard mapping policy.
    pub placement: Placement,
    /// Total device byte budget for packed list codes across all shards,
    /// split proportionally to each shard's code payload. `None` keeps
    /// every list pinned (fully resident); `Some(b)` serves under tiered
    /// residency — cold lists spill to host and promote on access.
    pub budget_bytes: Option<u64>,
}

/// Maps each list to a shard. `sizes[c]` is list `c`'s member count (any
/// monotone proxy for its code bytes works — bytes are `count × m`).
fn place_lists(sizes: &[usize], shards: usize, placement: Placement) -> Vec<usize> {
    match placement {
        Placement::RoundRobin => (0..sizes.len()).map(|c| c % shards).collect(),
        Placement::SizeBalanced => {
            let mut order: Vec<usize> = (0..sizes.len()).collect();
            // Largest first; ties to the lowest list id (deterministic).
            order.sort_by_key(|&c| (std::cmp::Reverse(sizes[c]), c));
            let mut load = vec![0usize; shards];
            let mut assignment = vec![0usize; sizes.len()];
            for c in order {
                let lightest = (0..shards)
                    .min_by_key(|&s| (load[s], s))
                    .expect("shards > 0");
                assignment[c] = lightest;
                load[lightest] += sizes[c];
            }
            assignment
        }
    }
}

/// An IVF-PQ index partitioned across the devices of a simulated cluster.
pub struct ShardedIndex {
    dim: usize,
    len: usize,
    refine: usize,
    shards: Vec<IvfPqIndex>,
    /// Full-precision host copy (doc id → vector) — the gather-side
    /// refine source. Host RAM only; never counted in device bytes.
    host_vectors: std::collections::HashMap<usize, Vec<f32>>,
    gpus: Arc<GpuCluster>,
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("dim", &self.dim)
            .field("len", &self.len)
            .field("shards", &self.shards.len())
            .field("devices", &self.gpus.len())
            .finish()
    }
}

impl ShardedIndex {
    /// Trains the quantizers on a sample, partitions the corpus, and
    /// encodes every shard concurrently on its own device.
    pub fn build(
        dim: usize,
        plan: ShardPlan,
        data: &[(usize, Vec<f32>)],
        gpus: Arc<GpuCluster>,
        seed: u64,
    ) -> Result<Self, IndexError> {
        if plan.shards == 0 || plan.shards > gpus.len() {
            return Err(IndexError::BadShardCount {
                shards: plan.shards,
                devices: gpus.len(),
            });
        }
        if data.is_empty() {
            return Err(IndexError::EmptyTrainingSet);
        }

        // Train once on a sample (deterministic: seeded pick, original
        // order preserved so `sample >= len` degenerates to full-corpus
        // training, byte-for-byte the single-index path).
        let sample_n = plan.sample.min(data.len());
        if sample_n < plan.nlist {
            return Err(IndexError::InsufficientTraining {
                needed: plan.nlist,
                got: sample_n,
            });
        }
        let sample_data: Vec<(usize, Vec<f32>)> = if sample_n == data.len() {
            data.to_vec()
        } else {
            use rand::prelude::*;
            let mut picks: Vec<usize> = (0..data.len()).collect();
            picks.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(seed));
            picks.truncate(sample_n);
            picks.sort_unstable();
            picks.into_iter().map(|i| data[i].clone()).collect()
        };
        let (centroids, sample_assignments) = train_coarse(dim, plan.nlist, &sample_data, seed)?;
        // PQ trains on coarse residuals — the same distribution the
        // per-shard encoders will quantize. The k-means work is priced on
        // device 0 (batch-shaped assign/update launches); the codebook
        // values are bit-identical to the unpriced host train.
        let sample_residuals: Vec<(usize, Vec<f32>)> = sample_data
            .iter()
            .zip(&sample_assignments)
            .map(|((doc, v), &a)| {
                (
                    *doc,
                    crate::pq::residual(v, &centroids[a * dim..(a + 1) * dim]),
                )
            })
            .collect();
        let train_exec = GpuExecutor::new(gpus.device(0).map_err(TensorError::from)?.clone());
        let codebook =
            PqCodebook::train_priced(dim, plan.pq, &sample_residuals, seed, &train_exec)?;

        // Partition: assign every vector to its list, then place the
        // lists on shards (size-balanced greedy by default).
        let mut assigned: Vec<(usize, &Vec<f32>, usize)> = Vec::with_capacity(data.len());
        let mut list_sizes = vec![0usize; plan.nlist];
        for (doc, v) in data {
            if v.len() != dim {
                return Err(IndexError::DimMismatch {
                    expected: dim,
                    got: v.len(),
                });
            }
            let list = nearest_centroid(&centroids, dim, v);
            list_sizes[list] += 1;
            assigned.push((*doc, v, list));
        }
        let shard_of = place_lists(&list_sizes, plan.shards, plan.placement);
        let mut per_shard: Vec<Vec<(usize, Vec<f32>, usize)>> =
            (0..plan.shards).map(|_| Vec::new()).collect();
        for (doc, v, list) in assigned {
            per_shard[shard_of[list]].push((doc, v.clone(), list));
        }

        // Budget split: each shard's slice of the device budget is
        // proportional to its code payload, so a balanced placement gets
        // a balanced budget.
        let m = plan.pq.m as u64;
        let shard_code_bytes: Vec<u64> = per_shard.iter().map(|e| e.len() as u64 * m).collect();
        let total_code_bytes: u64 = shard_code_bytes.iter().sum();
        let shard_budget = |s: usize| -> Option<u64> {
            plan.budget_bytes.map(|b| {
                if total_code_bytes == 0 {
                    0
                } else {
                    ((b as u128 * shard_code_bytes[s] as u128) / total_code_bytes as u128) as u64
                }
            })
        };

        // Encode + upload every shard concurrently, pinned to its device.
        let cluster = ClusterBuilder::new().gpus(gpus.clone()).build();
        let centroids = Arc::new(centroids);
        let codebook = Arc::new(codebook);
        let mut futures = Vec::with_capacity(plan.shards);
        for (s, entries) in per_shard.into_iter().enumerate() {
            let entries = Arc::new(entries);
            let centroids = Arc::clone(&centroids);
            let codebook = Arc::clone(&codebook);
            let (nlist, nprobe) = (plan.nlist, plan.nprobe);
            let budget = shard_budget(s);
            let fut = cluster.submit_to(s, move |ctx| {
                let refs: Vec<(usize, &[f32], usize)> = entries
                    .iter()
                    .map(|(doc, v, list)| (*doc, v.as_slice(), *list))
                    .collect();
                let idx = IvfPqIndex::from_trained(
                    dim,
                    nlist,
                    nprobe,
                    centroids.as_ref().clone(),
                    codebook.as_ref().clone(),
                    &refs,
                );
                let exec = GpuExecutor::new(ctx.gpu().clone());
                match budget {
                    Some(b) => idx.with_gpu_tiered(exec, b),
                    None => idx.with_gpu(exec),
                }
            })?;
            futures.push(fut);
        }
        let mut shards = Vec::with_capacity(plan.shards);
        for fut in futures {
            shards.push(fut.wait().map_err(IndexError::Task)??);
        }

        let host_vectors = if plan.refine > 0 {
            data.iter().map(|(doc, v)| (*doc, v.clone())).collect()
        } else {
            std::collections::HashMap::new()
        };
        Ok(Self {
            dim,
            len: data.len(),
            refine: plan.refine,
            shards,
            host_vectors,
            gpus,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard indexes (shard `s` is pinned to device `s`).
    pub fn shards(&self) -> &[IvfPqIndex] {
        &self.shards
    }

    /// The simulated cluster the shards live on.
    pub fn gpus(&self) -> &Arc<GpuCluster> {
        &self.gpus
    }

    /// Simulated wall-clock of the slowest device — the sharded search
    /// latency metric (per-device work shrinks as shards are added).
    pub fn makespan_ns(&self) -> u64 {
        self.gpus.makespan_ns()
    }
}

impl RetrievalIndex for ShardedIndex {
    fn search(&self, query: &[f32], k: usize) -> Vec<SearchHit> {
        self.search_batch(&[query.to_vec()], k)
            .pop()
            .unwrap_or_default()
    }

    /// Batch search: the host plan (coarse scores, probe lists, ADC
    /// tables) is computed once — every shard holds the same centroids and
    /// codebook — then each shard, in order on the calling thread, prices
    /// its own commands on its own device and returns its local top-k per
    /// query, and the per-shard lists merge through the order-stable merge
    /// tree. When `refine > 0` the merged PQ top-`max(refine, k)` is
    /// re-scored exactly after the merge, so the candidate set (and
    /// therefore the refined top-k) is shard-count independent.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<SearchHit>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dim mismatch");
        }
        if queries.is_empty() {
            return Vec::new();
        }
        // With refine, shards return a deeper candidate list; the exact
        // re-rank then cuts it back to k.
        let kprime = if self.refine > 0 {
            self.refine.max(k)
        } else {
            k
        };
        let plan = self.shards[0].plan(queries);
        let mut per_shard: Vec<_> = self
            .shards
            .iter()
            .map(|shard| shard.search_planned(&plan, queries, kprime).into_iter())
            .collect();
        let merged = queries.iter().map(|_| {
            let lists = per_shard
                .iter_mut()
                .map(|hits| hits.next().unwrap_or_default())
                .collect();
            merge_top_k(lists, kprime)
        });
        if self.refine == 0 {
            return merged.collect();
        }
        queries
            .iter()
            .zip(merged)
            .map(|(q, cands)| {
                let rescored = cands
                    .into_iter()
                    .map(|h| SearchHit {
                        doc_id: h.doc_id,
                        score: crate::index::dot(&self.host_vectors[&h.doc_id], q),
                    })
                    .collect();
                crate::index::top_k(rescored, k)
            })
            .collect()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn device_bytes(&self) -> u64 {
        // Sum across devices — honest about the replicated centroids and
        // codebook every shard carries.
        self.shards.iter().map(|s| s.device_bytes()).sum()
    }

    fn residency_stats(&self) -> Option<TierStats> {
        let mut merged: Option<TierStats> = None;
        for shard in &self.shards {
            if let Some(stats) = shard.residency_stats() {
                match &mut merged {
                    Some(acc) => acc.merge(&stats),
                    None => merged = Some(stats),
                }
            }
        }
        merged
    }

    fn set_residency_budget(&self, budget_bytes: u64) -> bool {
        // Split proportionally to each shard's code payload, mirroring
        // the build-time split.
        let bytes: Vec<u64> = self.shards.iter().map(|s| s.list_code_bytes()).collect();
        let total: u64 = bytes.iter().sum();
        let mut any = false;
        for (shard, &b) in self.shards.iter().zip(&bytes) {
            let slice = if total == 0 {
                0
            } else {
                ((budget_bytes as u128 * b as u128) / total as u128) as u64
            };
            any |= shard.set_residency_budget(slice);
        }
        any
    }

    fn pool_stats(&self) -> Vec<PoolStats> {
        self.shards.iter().flat_map(|s| s.pool_stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::embed::Embedder;
    use gpu_sim::{DeviceSpec, LinkKind};

    fn corpus_data(n: usize) -> (Embedder, Vec<(usize, Vec<f32>)>) {
        let corpus = Corpus::synthetic(n, 80, 3);
        let embedder = Embedder::new(96, 11);
        let data = corpus
            .docs()
            .iter()
            .map(|d| (d.id, embedder.embed(&d.text)))
            .collect();
        (embedder, data)
    }

    fn plan(shards: usize) -> ShardPlan {
        ShardPlan {
            nlist: 16,
            nprobe: 4,
            pq: PqConfig::new(16, 6),
            sample: usize::MAX,
            shards,
            refine: 0,
            placement: Placement::SizeBalanced,
            budget_bytes: None,
        }
    }

    fn cluster(n: usize) -> Arc<GpuCluster> {
        Arc::new(GpuCluster::homogeneous(n, DeviceSpec::t4(), LinkKind::Pcie))
    }

    #[test]
    fn build_rejects_bad_shard_counts_and_tiny_samples() {
        let (_, data) = corpus_data(60);
        let gpus = cluster(2);
        let err = ShardedIndex::build(96, plan(3), &data, gpus.clone(), 1).unwrap_err();
        assert_eq!(
            err,
            IndexError::BadShardCount {
                shards: 3,
                devices: 2
            }
        );
        let mut small = plan(2);
        small.sample = 8; // < nlist = 16
        let err = ShardedIndex::build(96, small, &data, gpus, 1).unwrap_err();
        assert_eq!(err, IndexError::InsufficientTraining { needed: 16, got: 8 });
    }

    #[test]
    fn shards_partition_the_corpus_without_loss() {
        let (_, data) = corpus_data(120);
        let idx = ShardedIndex::build(96, plan(4), &data, cluster(4), 1).expect("builds");
        assert_eq!(idx.shard_count(), 4);
        assert_eq!(idx.len(), 120);
        let total: usize = idx.shards().iter().map(|s| s.len()).sum();
        assert_eq!(total, 120, "every vector lands in exactly one shard");
        // Work actually spread out: no shard owns everything.
        assert!(idx.shards().iter().all(|s| s.len() < 120));
    }

    /// Satellite regression: on a corpus whose lists are heavily skewed
    /// (one hot topic dominates), size-balanced greedy placement must
    /// spread code bytes across shards strictly better than blind
    /// round-robin — and both placements must return identical hits,
    /// since placement only decides *where* a list lives, never what it
    /// scores.
    #[test]
    fn size_balanced_placement_beats_round_robin_on_skew() {
        let embedder = Embedder::new(96, 11);
        // 70% of documents share one topic → a few giant lists.
        let data: Vec<(usize, Vec<f32>)> = (0..600)
            .map(|i| {
                let topic = if i % 10 < 7 { 0 } else { i % 10 };
                (
                    i,
                    embedder.embed(&format!("document {i} about topic {topic} gpu kernels")),
                )
            })
            .collect();
        let spread = |placement: Placement| -> (u64, ShardedIndex) {
            let mut p = plan(4);
            p.placement = placement;
            let idx = ShardedIndex::build(96, p, &data, cluster(4), 5).expect("builds");
            let bytes: Vec<u64> = idx.shards().iter().map(|s| s.device_bytes()).collect();
            let max = *bytes.iter().max().unwrap();
            let min = *bytes.iter().min().unwrap();
            (max - min, idx)
        };
        let (skew_rr, rr) = spread(Placement::RoundRobin);
        let (skew_sb, sb) = spread(Placement::SizeBalanced);
        assert!(
            skew_sb < skew_rr,
            "greedy placement must reduce byte skew: balanced {skew_sb} vs round-robin {skew_rr}"
        );
        let queries: Vec<Vec<f32>> = (0..6)
            .map(|i| embedder.embed(&format!("topic {} gpu kernels", i % 10)))
            .collect();
        assert_eq!(
            rr.search_batch(&queries, 10),
            sb.search_batch(&queries, 10),
            "placement must not change results"
        );
    }

    #[test]
    fn sharded_search_matches_single_shard_bitwise() {
        let (embedder, data) = corpus_data(150);
        let one = ShardedIndex::build(96, plan(1), &data, cluster(1), 7).expect("builds");
        let four = ShardedIndex::build(96, plan(4), &data, cluster(4), 7).expect("builds");
        let queries: Vec<Vec<f32>> = (0..8)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        assert_eq!(
            one.search_batch(&queries, 10),
            four.search_batch(&queries, 10),
            "sharded search must be bit-identical to one shard"
        );
        assert_eq!(one.search(&queries[0], 5), four.search(&queries[0], 5));
    }

    /// The workload must be big enough that the data-dependent scan term
    /// (which sharding divides) dominates the per-shard fixed costs: each
    /// shard pays ~4 launches + 3 host-link round-trips per batch
    /// (~40 µs on the simulated T4) no matter how little it scans, so a
    /// toy corpus shows no speedup — exactly the small-problem scaling
    /// wall the real hardware has.
    #[test]
    fn sharding_shrinks_makespan_and_per_device_memory() {
        let (embedder, data) = corpus_data(9_600);
        let queries: Vec<Vec<f32>> = (0..32)
            .map(|i| embedder.embed(&Corpus::topic_query(i % 5, 6, i as u64)))
            .collect();
        let mut p = plan(1);
        p.nlist = 32;
        p.nprobe = 16;
        p.sample = 1_024;
        let one = ShardedIndex::build(96, p, &data, cluster(1), 3).expect("builds");
        let t0 = one.makespan_ns();
        one.search_batch(&queries, 10);
        let t_one = one.makespan_ns() - t0;
        p.shards = 4;
        let four = ShardedIndex::build(96, p, &data, cluster(4), 3).expect("builds");
        let t0 = four.makespan_ns();
        four.search_batch(&queries, 10);
        let t_four = four.makespan_ns() - t0;
        assert!(
            (t_one as f64) / (t_four as f64) > 1.5,
            "expected sharded speedup, got {t_one} vs {t_four}"
        );
        // Per-device memory shrinks even though centroids+codebook are
        // replicated: the largest shard holds well under the full corpus.
        let max_shard = four
            .shards()
            .iter()
            .map(|s| s.device_bytes())
            .max()
            .unwrap();
        let single = one.device_bytes();
        assert!(
            (max_shard as f64) < 0.6 * single as f64,
            "per-device bytes {max_shard} vs single {single}"
        );
    }
}
