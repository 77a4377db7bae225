//! Sharding: one IVF index's inverted lists placed across N simulated GPUs.
//!
//! [`IvfIndex::build`] places lists across the devices of a [`GpuCluster`]
//! size-balanced (largest list onto the lightest shard, so a skewed corpus
//! cannot pile its biggest lists onto one device). Every shard holds the
//! *same* coarse centroids and codebook but stores only its own lists, so
//! per-device memory shrinks ~linearly with the shard count while the
//! probe decision stays global. [`ShardedIndex`] is the same type as
//! [`IvfIndex`]: an unsharded index is the one-shard case.
//!
//! Search plans once and scans each shard inline. The host half of a
//! batch — coarse scores, probe lists, ADC tables — depends only on the
//! queries and the shared quantizers, so it is computed once and handed
//! to every shard. Each shard then, in order on the calling thread, prices
//! its own command sequence on its own device (coarse probe, table build,
//! residency touches, scan, top-k select, hit read-back), scans the
//! intersection of the global top-`nprobe` lists with its own, and returns
//! its local top-k; the gather keeps the top-k of those lists. Because
//! every shard prices its scan on its own device's command stream, the
//! simulated latency is the cluster makespan — the per-device *max*,
//! which is what shrinks as shards are added. The host scans run
//! serially: a thread pool scattering four sub-millisecond scans cost
//! more in wake-ups than it saved.
//!
//! The merge is bit-identical to a single-shard scan: shards partition
//! exactly the rows one shard would visit, score them with the identical
//! arithmetic, and the ranking order is total (ties broken by `doc_id` via
//! `total_cmp`), so the global top-k is independent of how candidates were
//! grouped.
//!
//! The quantizers train once on a sample (the codebook's k-means priced on
//! device 0, its subspaces trained in parallel), then every vector routes
//! to its list in parallel, each shard encodes its rows in parallel, and
//! each attaches to its own device.

use crate::error::IndexError;
use crate::index::{Codec, IvfIndex, Quantizer};
use crate::pq::PqConfig;
use gpu_sim::GpuCluster;
use rand::prelude::*;
use rand::rngs::SmallRng;
use rayon::prelude::*;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use sagegpu_tensor::TensorError;
use std::sync::Arc;

/// A sharded IVF index: the IVF core with its lists placed over a cluster.
pub type ShardedIndex = IvfIndex;

/// How inverted lists map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Size-balanced greedy: lists sorted largest-first, each assigned to
    /// the shard currently holding the fewest rows — the classic
    /// longest-processing-time heuristic, so one hot topic cannot pile
    /// the corpus onto a single device.
    #[default]
    SizeBalanced,
}

/// Build-time parameters for a sharded index.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan {
    /// Inverted lists in the coarse quantizer.
    pub nlist: usize,
    /// Lists probed per query (global, not per shard).
    pub nprobe: usize,
    /// Product-quantization layout of [`IvfIndex::build`]'s Pq codec.
    pub pq: PqConfig,
    /// Training-sample size for both quantizers (capped at the corpus).
    pub sample: usize,
    /// Number of shards; must not exceed the cluster's device count.
    pub shards: usize,
    /// Exact re-rank depth at the gather node (see
    /// [`IvfIndex::with_refine`]).
    pub refine: usize,
    /// List → shard mapping policy.
    pub placement: Placement,
    /// Total device byte budget for list rows across all shards, split
    /// proportionally to each shard's payload. `None` keeps every list
    /// resident; `Some(b)` serves under tiered residency — cold lists
    /// spill to host and promote on access.
    pub budget_bytes: Option<u64>,
}

/// Maps each list to a shard, size-balanced. `sizes[c]` is list `c`'s
/// member count (any monotone proxy for its bytes works).
fn place_lists(sizes: &[usize], shards: usize) -> Vec<usize> {
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

impl IvfIndex {
    /// Builds a sharded IVF-PQ index: [`Self::build_with_codec`] with
    /// `Codec::Pq(plan.pq)`.
    pub fn build(
        dim: usize,
        plan: ShardPlan,
        data: &[(usize, Vec<f32>)],
        gpus: Arc<GpuCluster>,
        seed: u64,
    ) -> Result<Self, IndexError> {
        Self::build_with_codec(dim, Codec::Pq(plan.pq), plan, data, gpus, seed)
    }

    /// Trains the quantizers on a seeded sample of `data`, routes every
    /// vector to its list, places the lists over `plan.shards` devices of
    /// `gpus`, stores each shard's rows under `codec` and attaches shard
    /// `s` to device `s` with its slice of the budget. `plan.pq` is not
    /// read; `codec` decides the rows.
    pub fn build_with_codec(
        dim: usize,
        codec: Codec,
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
        // order preserved so `sample >= len` trains on the whole corpus).
        let sample_n = plan.sample.min(data.len());
        if sample_n < plan.nlist {
            return Err(IndexError::InsufficientTraining {
                needed: plan.nlist,
                got: sample_n,
            });
        }
        let mut picks: Vec<usize> = (0..data.len()).collect();
        picks.shuffle(&mut SmallRng::seed_from_u64(seed));
        picks.truncate(sample_n);
        picks.sort_unstable();
        let sample: Vec<_> = picks.into_iter().map(|i| data[i].clone()).collect();
        let device = |s: usize| -> Result<GpuExecutor, IndexError> {
            let gpu = gpus.device(s).map_err(TensorError::from)?;
            Ok(GpuExecutor::new(gpu.clone()))
        };
        let (quant, _) =
            Quantizer::train(dim, plan.nlist, codec, &sample, seed, Some(&device(0)?))?;

        // Partition: route every vector to its list (in parallel), count
        // the lists in data order, then place the lists on shards.
        if let Some((_, v)) = data.iter().find(|(_, v)| v.len() != dim) {
            return Err(IndexError::DimMismatch {
                expected: dim,
                got: v.len(),
            });
        }
        let lists: Vec<usize> = data.par_iter().map(|(_, v)| quant.assign(v)).collect();
        let mut list_sizes = vec![0usize; plan.nlist];
        for &list in &lists {
            list_sizes[list] += 1;
        }
        let shard_of = place_lists(&list_sizes, plan.shards);
        let mut per_shard = vec![Vec::new(); plan.shards];
        for ((doc, v), &list) in data.iter().zip(&lists) {
            per_shard[shard_of[list]].push((*doc, v.as_slice(), list));
        }

        let mut index = Self::assemble(quant, plan.nprobe, per_shard);
        let budgets = plan.budget_bytes.map(|b| index.split_budget(b));
        for (s, shard) in index.shards.iter_mut().enumerate() {
            shard.attach(device(s)?, budgets.as_ref().map(|b| b[s]))?;
        }
        Ok(index.with_refine(plan.refine, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::embed::Embedder;
    use crate::index::RetrievalIndex;
    use gpu_sim::{DeviceSpec, LinkKind};

    fn corpus_data(n: usize) -> (Embedder, Vec<(usize, Vec<f32>)>) {
        let corpus = Corpus::synthetic(n, 80, 3);
        let embedder = Embedder::new(96, 11);
        let texts: Vec<&str> = corpus.docs().iter().map(|d| d.text.as_str()).collect();
        let data = corpus
            .docs()
            .iter()
            .map(|d| d.id)
            .zip(embedder.embed_batch(&texts))
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
        assert_eq!(idx.shards().len(), 4);
        assert_eq!(idx.len(), 120);
        let total: usize = idx.shards().iter().map(|s| s.len()).sum();
        assert_eq!(total, 120, "every vector lands in exactly one shard");
        // Work actually spread out: no shard owns everything.
        assert!(idx.shards().iter().all(|s| s.len() < 120));
    }

    /// On a corpus whose lists are heavily skewed (one hot topic
    /// dominates), size-balanced greedy placement keeps the per-shard
    /// device bytes within a pinned spread of 10 code rows.
    #[test]
    fn size_balanced_placement_spreads_skewed_lists() {
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
        let idx = ShardedIndex::build(96, plan(4), &data, cluster(4), 5).expect("builds");
        let bytes: Vec<u64> = idx.shards().iter().map(|s| s.device_bytes()).collect();
        let spread = bytes.iter().max().unwrap() - bytes.iter().min().unwrap();
        assert_eq!(spread, 160, "per-shard bytes {bytes:?}");
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
        let gpus = cluster(1);
        let one = ShardedIndex::build(96, p, &data, gpus.clone(), 3).expect("builds");
        let t0 = gpus.makespan_ns();
        one.search_batch(&queries, 10);
        let t_one = gpus.makespan_ns() - t0;
        p.shards = 4;
        let gpus = cluster(4);
        let four = ShardedIndex::build(96, p, &data, gpus.clone(), 3).expect("builds");
        let t0 = gpus.makespan_ns();
        four.search_batch(&queries, 10);
        let t_four = gpus.makespan_ns() - t0;
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
