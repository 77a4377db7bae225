//! # sagegpu-rag — retrieval-augmented generation on simulated GPUs
//!
//! Weeks 12–14 of the reproduced course build RAG systems: "experiment
//! with GPU-tuned retrievers and generators to optimize latency and
//! throughput" (§I), with FAISS retrieval in Lab 11, a GPU-enabled
//! retriever + small LLM in Lab 12, and a deployed real-time inference
//! pipeline in Lab 13 / Assignment 4.
//!
//! FAISS and an actual LLM are out of reach offline, so this crate builds
//! the equivalents from scratch:
//!
//! - [`corpus`] — a deterministic synthetic technical corpus (documents
//!   about GPUs, CUDA, cloud infrastructure — the course's own subject
//!   matter) so retrieval quality is meaningfully testable.
//! - [`tokenize`] — lowercase word tokenizer + vocabulary.
//! - [`embed`] — hashed bag-of-words with seeded random projection to a
//!   dense unit vector (a deterministic stand-in for a sentence encoder).
//! - [`index`] — [`index::FlatIndex`] (exact dot-product search, optionally
//!   scored on a simulated GPU; the exact oracle) and [`index::IvfIndex`]:
//!   one k-means coarse quantizer (`nlist`/`nprobe`) whose inverted lists
//!   store rows under an [`index::Codec`] — full precision or PQ codes,
//!   FAISS's `IVF{n},Flat` / `IVF{n},PQ{m}` — with recall@k measurement
//!   against the exact baseline. On a GPU every list scan is priced, and
//!   the lists live under the [`residency`] tier.
//! - [`generate`] — a bigram Markov "small LLM" whose decode cost is
//!   charged to the GPU per token (the latency shape of autoregressive
//!   generation).
//! - [`pq`] — product quantization: trained per-subspace codebooks and
//!   asymmetric-distance (ADC) tables, the Pq codec's arithmetic — corpora
//!   far larger than device memory stay resident (the FAISS `IndexIVFPQ`
//!   design).
//! - [`shard`] — an [`index::IvfIndex`]'s lists placed across a simulated
//!   multi-GPU cluster (size-balanced greedy placement): one shared search
//!   plan per batch, inline per-shard scans, a total-order top-k gather,
//!   and one exact refine after it. [`shard::ShardedIndex`] names the same
//!   type.
//! - [`residency`] — [`residency::ListResidency`]: tiered list residency
//!   under a device byte budget — hot lists hold pooled leases, cold
//!   lists spill to host and promote charge-on-miss, with clock/LRU
//!   victim selection; results stay bit-identical at every budget.
//! - [`pipeline`] — the end-to-end RAG service: retrieve → assemble
//!   context → generate, single-query and batched, with per-stage
//!   simulated-latency breakdowns and a workload harness reporting
//!   p50/p99/throughput (experiment E20).
//! - [`serve`] — the online serving layer over the pipeline: bounded
//!   admission with load-shedding, dynamic micro-batching, an LRU
//!   retrieval cache, fault-tolerant cluster dispatch with retries, and
//!   per-stage histograms + chrome-trace request spans (experiment A05).

pub mod corpus;
pub mod embed;
pub mod error;
pub mod generate;
pub mod index;
mod lloyd;
mod panel;
pub mod pipeline;
pub mod pq;
pub mod residency;
pub mod serve;
pub mod shard;
pub mod tokenize;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::corpus::{Corpus, Document};
    pub use crate::embed::Embedder;
    pub use crate::error::IndexError;
    pub use crate::generate::MarkovGenerator;
    pub use crate::index::{recall_at_k, Codec, FlatIndex, IvfIndex, RetrievalIndex, SearchHit};
    pub use crate::pipeline::{LatencyReport, RagPipeline, RagResponse};
    pub use crate::pq::{PqCodebook, PqConfig};
    pub use crate::residency::{ListResidency, TierStats};
    pub use crate::serve::{
        CacheStats, RagServer, ResponseHandle, RetrievalCache, ServeError, ServedResponse,
        ServerConfig, ServerReport,
    };
    pub use crate::shard::{Placement, ShardPlan, ShardedIndex};
    pub use crate::tokenize::tokenize;
}
