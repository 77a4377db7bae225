//! Deterministic text embedding: hashed bag-of-words + random projection.
//!
//! A seeded stand-in for the sentence encoders the course's RAG labs used:
//! each token hashes into a sparse high-dimensional slot, a fixed random
//! projection maps it into `dim` dense dimensions, and the result is
//! L2-normalized so dot product = cosine similarity. Deterministic, fast,
//! and — because identical tokens map to identical directions — documents
//! sharing vocabulary genuinely embed closer together, which is all the
//! retrieval experiments need.

use crate::tokenize::tokens;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Texts per thread below which [`Embedder::embed_batch`] does not fan
/// out: a corpus splits across the cores, a query micro-batch starts no
/// thread.
pub const PAR_MIN_TEXTS: usize = 256;

/// A deterministic text embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    seed: u64,
}

impl Embedder {
    /// An embedder producing `dim`-dimensional unit vectors.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        Self { dim, seed }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds one token's pseudo-random ±1 direction (hash-seeded signs) to
    /// `out` — the only place a direction is derived.
    fn token_direction(&self, token: &str, out: &mut [f32]) {
        let mut h = DefaultHasher::new();
        (self.seed, token).hash(&mut h);
        let mut state = h.finish() | 1;
        for slot in out.iter_mut() {
            // xorshift64* stream per token.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            // Map to ±1 with a small dense spread.
            *slot += if r & 1 == 0 { 1.0 } else { -1.0 };
        }
    }

    /// Sums `add_direction` over `text`'s tokens in token order into the
    /// zeroed `v`, then L2-normalizes. Empty text leaves the zero vector
    /// (no direction is honest for no content).
    fn embed_into(
        &self,
        text: &str,
        v: &mut [f32],
        mut add_direction: impl FnMut(&str, &mut [f32]),
    ) {
        for token in tokens(&text.to_lowercase()) {
            add_direction(token, v);
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            v.iter_mut().for_each(|x| *x /= norm);
        }
    }

    /// Embeds text into an L2-normalized vector. Empty text embeds to the
    /// zero vector.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        self.embed_into(text, &mut v, |token, v| self.token_direction(token, v));
        v
    }

    /// Embeds a batch of texts, bit-identical to [`embed`](Self::embed) on
    /// each. Each distinct token's direction is derived once per block of
    /// texts and added from a table: the directions are exactly ±1.0 and
    /// are added in token order, so every sum rounds as it does in
    /// `embed`. Batches of at least [`PAR_MIN_TEXTS`] texts per thread
    /// split into one contiguous block per thread of the caller's
    /// `rayon` width, each with its own table; smaller batches (a serving
    /// micro-batch) run on the calling thread. The vectors are allocated
    /// on the calling thread either way, so a corpus's embeddings do not
    /// outlive the workers in their allocator arenas.
    pub fn embed_batch(&self, texts: &[&str]) -> Vec<Vec<f32>> {
        let mut out = vec![vec![0.0f32; self.dim]; texts.len()];
        let width = rayon::current_num_threads().min(texts.len() / PAR_MIN_TEXTS);
        if width <= 1 {
            self.embed_block(texts, &mut out);
            return out;
        }
        let block = texts.len().div_ceil(width);
        std::thread::scope(|s| {
            for (texts, out) in texts.chunks(block).zip(out.chunks_mut(block)) {
                s.spawn(move || self.embed_block(texts, out));
            }
        });
        out
    }

    /// [`embed_batch`](Self::embed_batch) of `texts` into the zeroed `out`
    /// on the calling thread, with one direction table for the block.
    fn embed_block(&self, texts: &[&str], out: &mut [Vec<f32>]) {
        let dim = self.dim;
        let mut slots: HashMap<String, usize> = HashMap::new();
        let mut directions: Vec<f32> = Vec::new();
        for (text, v) in texts.iter().zip(out) {
            self.embed_into(text, v, |token, v| {
                let slot = match slots.get(token) {
                    Some(&slot) => slot,
                    None => {
                        let slot = slots.len();
                        directions.resize((slot + 1) * dim, 0.0);
                        self.token_direction(token, &mut directions[slot * dim..(slot + 1) * dim]);
                        slots.insert(token.to_owned(), slot);
                        slot
                    }
                };
                for (acc, d) in v.iter_mut().zip(&directions[slot * dim..(slot + 1) * dim]) {
                    *acc += d;
                }
            });
        }
    }
}

/// Cosine similarity of two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embeddings_are_unit_length() {
        let e = Embedder::new(64, 1);
        let v = e.embed("cuda kernel launch overhead");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn deterministic() {
        let e = Embedder::new(32, 5);
        assert_eq!(e.embed("warp divergence"), e.embed("warp divergence"));
        let e2 = Embedder::new(32, 6);
        assert_ne!(e.embed("warp divergence"), e2.embed("warp divergence"));
    }

    #[test]
    fn shared_vocabulary_embeds_closer() {
        let e = Embedder::new(128, 2);
        let a = e.embed("kernel occupancy registers shared memory blocks");
        let b = e.embed("kernel occupancy warp blocks memory coalesced");
        let c = e.embed("billing budget subnet iam role region instance");
        assert!(
            cosine(&a, &b) > cosine(&a, &c) + 0.1,
            "same-topic {:.3} vs cross-topic {:.3}",
            cosine(&a, &b),
            cosine(&a, &c)
        );
    }

    #[test]
    fn word_order_does_not_matter_but_words_do() {
        let e = Embedder::new(64, 3);
        let a = e.embed("gpu memory bandwidth");
        let b = e.embed("bandwidth memory gpu");
        assert!(
            (cosine(&a, &b) - 1.0).abs() < 1e-5,
            "bag-of-words is order-free"
        );
        let c = e.embed("gpu memory latency");
        assert!(cosine(&a, &c) < 0.999);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = Embedder::new(16, 4);
        assert!(e.embed("").iter().all(|&x| x == 0.0));
        assert!(e.embed("!!!").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn batch_matches_singles() {
        let e = Embedder::new(32, 7);
        let batch = e.embed_batch(&["a b c", "d e f"]);
        assert_eq!(batch[0], e.embed("a b c"));
        assert_eq!(batch[1], e.embed("d e f"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Embedder::new(0, 0);
    }
}
