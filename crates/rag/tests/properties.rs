//! Property-based invariants of the RAG stack.

use proptest::prelude::*;
use sagegpu_rag::embed::{cosine, Embedder, PAR_MIN_TEXTS};
use sagegpu_rag::index::{recall_at_k, Codec, FlatIndex, IvfIndex, RetrievalIndex, SearchHit};
use sagegpu_rag::pq::PqConfig;
use sagegpu_rag::shard::{Placement, ShardPlan, ShardedIndex};
use sagegpu_rag::tokenize::tokenize;
use std::sync::Arc;

/// Codec 0 stores full-precision rows; codec 1 the PQ layout the
/// IVF-PQ properties below use.
fn codec(id: usize) -> Codec {
    match id {
        0 => Codec::Full,
        _ => Codec::Pq(PqConfig::new(8, 6)),
    }
}

fn embedded_docs(n: usize, dim: usize, seed: u64) -> (Embedder, Vec<(usize, Vec<f32>)>) {
    let e = Embedder::new(dim, seed);
    let data = (0..n)
        .map(|i| (i, e.embed(&format!("document {i} topic {}", i % 3))))
        .collect();
    (e, data)
}

/// Words covering the tokenizer's edge cases: case variants that share a
/// direction, non-ASCII alphanumerics (with their own case rules), and
/// punctuation-only and empty pieces that yield no token.
const WORDS: [&str; 16] = [
    "gpu",
    "GPU",
    "Gpu",
    "kernel",
    "KERNEL",
    "warp",
    "naïve",
    "NAÏVE",
    "straße",
    "日本語",
    "ΣΊΣΥΦΟΣ",
    "σίσυφος",
    "x86_64",
    "!!!",
    "--",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `embed_batch` equals per-text `embed` bit for bit: on a batch of
    /// texts drawn from [`WORDS`] (repeats, case variants, non-ASCII,
    /// empty and punctuation-only texts) plus a free-form text, and on the
    /// same texts tiled into a batch large enough to fan out across three
    /// threads.
    #[test]
    fn embed_batch_matches_embed(
        picks in prop::collection::vec(prop::collection::vec(0usize..WORDS.len(), 0..10), 0..24),
        free in "[a-cA-CéÉßΣσ日 .,!-]{0,16}",
        dim in 1usize..100,
        seed in 0u64..1000,
    ) {
        let e = Embedder::new(dim, seed);
        let mut texts: Vec<String> = picks
            .iter()
            .map(|words| words.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" "))
            .collect();
        texts.push(free);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let singles: Vec<Vec<u32>> = refs.iter().map(|t| bits(&e.embed(t))).collect();
        let batch: Vec<Vec<u32>> = e.embed_batch(&refs).iter().map(|v| bits(v)).collect();
        prop_assert_eq!(&batch, &singles);

        let big: Vec<&str> = refs.iter().copied().cycle().take(3 * PAR_MIN_TEXTS + 7).collect();
        rayon::set_thread_width(3);
        let fanned: Vec<Vec<u32>> = e.embed_batch(&big).iter().map(|v| bits(v)).collect();
        let want: Vec<Vec<u32>> = singles.iter().cycle().take(big.len()).cloned().collect();
        prop_assert_eq!(fanned, want);
    }

    /// Embeddings of non-empty token sets are unit vectors; empty are zero.
    #[test]
    fn embeddings_normalized(text in "[a-z ]{0,80}", dim in 4usize..128, seed in 0u64..100) {
        let e = Embedder::new(dim, seed);
        let v = e.embed(&text);
        prop_assert_eq!(v.len(), dim);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if tokenize(&text).is_empty() {
            prop_assert_eq!(norm, 0.0);
        } else {
            prop_assert!((norm - 1.0).abs() < 1e-4, "norm {}", norm);
        }
    }

    /// Cosine self-similarity of a non-empty embedding is 1.
    #[test]
    fn self_similarity(words in prop::collection::vec("[a-z]{1,8}", 1..12), seed in 0u64..50) {
        let text = words.join(" ");
        let e = Embedder::new(64, seed);
        let v = e.embed(&text);
        prop_assert!((cosine(&v, &v) - 1.0).abs() < 1e-4);
    }

    /// Flat search returns at most k hits, sorted descending, all ids real.
    #[test]
    fn flat_search_wellformed(n in 1usize..80, k in 1usize..20, seed in 0u64..50) {
        let e = Embedder::new(32, seed);
        let mut idx = FlatIndex::new(32);
        for i in 0..n {
            idx.add(i, e.embed(&format!("doc number {i} about topic {}", i % 5)));
        }
        let q = e.embed("topic 3 doc");
        let hits = idx.search(&q, k);
        prop_assert!(hits.len() <= k);
        prop_assert!(hits.len() <= n);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for h in &hits {
            prop_assert!(h.doc_id < n);
        }
    }

    /// Recall@k is always within [0, 1] and equals 1 against itself.
    #[test]
    fn recall_bounds(ids_a in prop::collection::vec(0usize..100, 0..10), ids_b in prop::collection::vec(0usize..100, 0..10)) {
        let to_hits = |ids: &[usize]| -> Vec<SearchHit> {
            ids.iter().map(|&doc_id| SearchHit { doc_id, score: 0.0 }).collect()
        };
        let a = to_hits(&ids_a);
        let b = to_hits(&ids_b);
        let r = recall_at_k(&a, &b);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert_eq!(recall_at_k(&a, &a), 1.0);
    }

    /// IVF with full probing reproduces flat exactly, with its scans
    /// priced on a GPU.
    #[test]
    fn ivf_full_probe_exact(n in 8usize..60, nlist in 1usize..8, seed in 0u64..20) {
        use gpu_sim::{DeviceSpec, Gpu};
        use sagegpu_tensor::gpu_exec::GpuExecutor;
        let e = Embedder::new(48, seed);
        let data: Vec<(usize, Vec<f32>)> = (0..n)
            .map(|i| (i, e.embed(&format!("document {i} topic {}", i % 3))))
            .collect();
        let mut flat = FlatIndex::new(48);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let ivf = IvfIndex::train(48, nlist, nlist, Codec::Full, &data, seed)
            .expect("ivf trains")
            .with_gpu(exec.clone(), None)
            .expect("attaches");
        let q = e.embed("topic 1 document");
        let exact = flat.search(&q, 5);
        let approx = ivf.search(&q, 5);
        prop_assert_eq!(recall_at_k(&exact, &approx), 1.0);
        prop_assert_eq!(approx, exact);
        prop_assert!(exec.gpu().kernels_launched() > 0, "the scan must be priced");
    }

    /// Sharded scatter-gather search is bit-identical to a single shard,
    /// for either codec and any shard count the cluster can hold: shards
    /// partition exactly the rows one shard would scan, score them with the
    /// same arithmetic, and the gather's ranking is a total order — so
    /// the global top-k cannot depend on how candidates were grouped.
    #[test]
    fn sharded_search_is_shard_count_invariant(
        codec_id in 0usize..2,
        n in 40usize..120,
        shards in 2usize..5,
        nprobe in 1usize..9,
        k in 1usize..12,
        refine in 0usize..20,
        seed in 0u64..10,
    ) {
        use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
        let (e, data) = embedded_docs(n, 48, seed);
        let plan = |s: usize| ShardPlan {
            nlist: 8,
            nprobe,
            pq: PqConfig::new(8, 6),
            sample: usize::MAX,
            shards: s,
            refine,
            placement: Placement::SizeBalanced,
            budget_bytes: None,
        };
        let cluster = |s: usize| {
            Arc::new(GpuCluster::homogeneous(s, DeviceSpec::t4(), LinkKind::Pcie))
        };
        let build = |s: usize| {
            ShardedIndex::build_with_codec(48, codec(codec_id), plan(s), &data, cluster(s), seed)
                .expect("builds")
        };
        let (one, many) = (build(1), build(shards));
        let queries: Vec<Vec<f32>> = (0..4)
            .map(|i| e.embed(&format!("topic {} document", i % 3)))
            .collect();
        prop_assert_eq!(one.search_batch(&queries, k), many.search_batch(&queries, k));
    }

    /// Tiered residency moves bytes, never values: for either codec and
    /// random corpora, budgets and query streams, a budgeted index returns
    /// hits bit-identical to the fully-resident one — and the tier's
    /// resident-byte high-water never exceeds the budget.
    #[test]
    fn tiered_search_is_bit_identical_and_respects_budget(
        codec_id in 0usize..2,
        n in 40usize..120,
        budget_pct in 2u64..120,
        stream in prop::collection::vec(0usize..6, 1..10),
        seed in 0u64..10,
    ) {
        use gpu_sim::{DeviceSpec, Gpu};
        use sagegpu_tensor::gpu_exec::GpuExecutor;
        let (e, data) = embedded_docs(n, 48, seed);
        let exec = || GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let train = |budget: Option<u64>| {
            IvfIndex::train(48, 8, 3, codec(codec_id), &data, seed)
                .expect("trains")
                .with_gpu(exec(), budget)
                .expect("attaches")
        };
        let full = train(None);
        let list_bytes = full.residency_stats().expect("tier attached").list_bytes;
        let tiered = train(Some(list_bytes * budget_pct / 100));
        for &t in &stream {
            let q = e.embed(&format!("topic {t} document"));
            prop_assert_eq!(full.search(&q, 5), tiered.search(&q, 5));
        }
        let batch: Vec<Vec<f32>> = stream
            .iter()
            .map(|&t| e.embed(&format!("document about topic {t}")))
            .collect();
        prop_assert_eq!(full.search_batch(&batch, 5), tiered.search_batch(&batch, 5));
        let stats = tiered.residency_stats().expect("tier attached");
        prop_assert!(
            stats.high_water_bytes <= stats.budget_bytes,
            "resident high-water {} exceeded budget {}",
            stats.high_water_bytes,
            stats.budget_bytes
        );
        prop_assert!(stats.resident_bytes <= stats.budget_bytes);
        prop_assert!(stats.hits + stats.misses > 0, "stream must touch the tier");
    }

    /// IVF-PQ recall against the exact flat baseline never drops as
    /// nprobe grows: each probe set is a superset of the last, so the
    /// candidate pool only gains rows.
    #[test]
    fn ivfpq_recall_monotone_in_nprobe(n in 60usize..150, seed in 0u64..10) {
        let (e, data) = embedded_docs(n, 48, seed);
        let mut flat = FlatIndex::new(48);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let mut idx = IvfIndex::train(48, 8, 1, Codec::Pq(PqConfig::new(8, 8)), &data, seed)
            .expect("trains");
        let queries: Vec<Vec<f32>> = (0..4)
            .map(|i| e.embed(&format!("topic {} document", i % 3)))
            .collect();
        let exact: Vec<Vec<SearchHit>> = queries.iter().map(|q| flat.search(q, 5)).collect();
        let mut prev = -1.0f64;
        for nprobe in [1usize, 2, 4, 8] {
            idx.set_nprobe(nprobe);
            let mean: f64 = queries
                .iter()
                .zip(&exact)
                .map(|(q, ex)| recall_at_k(ex, &idx.search(q, 5)))
                .sum::<f64>() / queries.len() as f64;
            prop_assert!(
                mean >= prev - 1e-12,
                "recall dropped from {} to {} at nprobe {}", prev, mean, nprobe
            );
            prev = mean;
        }
    }

    /// On a corpus small enough that PQ is lossless (every distinct
    /// residual fits the codebook), full-probe IVF-PQ reproduces the
    /// exact flat top-k: quantization introduces zero error and probing
    /// covers every list, so recall is exactly 1. The PQ score regroups
    /// flat's sum as `query·centroid + query·residual`, which can move
    /// the last ulp — inputs whose flat ranking has a near-tie exactly at
    /// the k boundary are discarded rather than letting fp regrouping
    /// legitimately swap them.
    #[test]
    fn lossless_pq_full_probe_matches_flat(n in 6usize..40, seed in 0u64..10) {
        let (e, data) = embedded_docs(n, 48, seed);
        let mut flat = FlatIndex::new(48);
        for (id, v) in &data {
            flat.add(*id, v.clone());
        }
        let nlist = 4.min(n);
        let idx = IvfIndex::train(48, nlist, nlist, Codec::Pq(PqConfig::new(1, 8)), &data, seed)
            .expect("trains");
        let q = e.embed("topic 1 document");
        let exact = flat.search(&q, n);
        prop_assume!((exact[4].score - exact[5].score).abs() > 1e-4);
        prop_assert_eq!(recall_at_k(&exact[..5], &idx.search(&q, 5)), 1.0);
    }
}
