//! Pins the served RAG path to recorded values: a seeded 4-shard IVF-PQ
//! pipeline at a 25% residency budget answers a fixed query list in fixed
//! batches, and the hits (doc id and score bits), contexts, answers and
//! every device's sim clock and kernel count must match the constants
//! below. Host-side speedups of retrieval or generation must leave all of
//! them unchanged; a pricing change has to re-record them deliberately.

use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
use sagegpu_rag::corpus::Corpus;
use sagegpu_rag::index::RetrievalIndex;
use sagegpu_rag::pipeline::build_sharded_pipeline;
use sagegpu_rag::pq::PqConfig;
use sagegpu_rag::shard::{Placement, ShardPlan};
use std::sync::Arc;

const DOCS: usize = 1_200;
const DIM: usize = 96;
const M: usize = 16;
const BATCHES: [usize; 8] = [1, 3, 8, 2, 5, 8, 1, 4];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn served_path_matches_recorded_fingerprint() {
    let gpus = Arc::new(GpuCluster::homogeneous(4, DeviceSpec::t4(), LinkKind::Pcie));
    let plan = ShardPlan {
        nlist: 32,
        nprobe: 8,
        pq: PqConfig::new(M, 6),
        sample: 512,
        shards: 4,
        // No exact re-rank, so the returned scores are the ADC scores
        // themselves and their bits reach the fingerprint.
        refine: 0,
        placement: Placement::SizeBalanced,
        budget_bytes: Some((DOCS * M / 4) as u64),
    };
    let p = build_sharded_pipeline(DOCS, DIM, plan, Arc::clone(&gpus), 5).expect("builds");

    let mut fnv = Fnv::new();
    let mut next = 0u64;
    for &size in &BATCHES {
        let queries: Vec<String> = (next..next + size as u64)
            .map(|i| Corpus::topic_query((i % 5) as usize, 6, i))
            .collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let retrieved = p.retrieve_batch(&refs);
        let contexts: Vec<&str> = retrieved.iter().map(|(_, c)| c.as_str()).collect();
        let seeds: Vec<u64> = (next..next + size as u64).collect();
        let answers =
            p.generator
                .generate_batch_seeded(p.gpu(), &contexts, p.answer_tokens, &seeds);
        for ((hits, context), answer) in retrieved.iter().zip(&answers) {
            for h in hits {
                fnv.bytes(&(h.doc_id as u64).to_le_bytes());
                fnv.bytes(&h.score.to_bits().to_le_bytes());
            }
            fnv.bytes(context.as_bytes());
            fnv.bytes(answer.as_bytes());
        }
        next += size as u64;
    }
    let clocks: Vec<(u64, u64)> = gpus
        .devices()
        .map(|g| (g.now_ns(), g.kernels_launched()))
        .collect();
    let tier = p.index.residency_stats().expect("budgeted tier");
    let tier = (tier.hits, tier.misses, tier.evictions);
    assert_eq!(
        fnv.0, 0x55a6_f0e4_8787_ccda,
        "hits, contexts or answers drifted"
    );
    assert_eq!(
        clocks,
        [
            (2_427_191, 244),
            (731_956, 32),
            (667_314, 30),
            (724_358, 32)
        ],
        "a device's sim clock or kernel count drifted"
    );
    assert_eq!(tier, (13, 164, 138), "residency touches drifted");
}
