//! The "small LLM": a bigram Markov generator with GPU-charged decode.
//!
//! Lab 12 pairs the retriever with a "small LLM". Offline, the smallest
//! honest stand-in with the same *system* behavior is a Markov text model:
//! it is trained on the corpus, conditions on retrieved context, emits one
//! token per step, and each decode step costs a matrix-vector-shaped GPU
//! kernel — so batched decoding amortizes launches exactly the way
//! transformer serving does, which is what the latency/throughput labs
//! measure.

use gpu_sim::{AccessPattern, KernelProfile, LaunchConfig, LaunchSpec};
use rand::prelude::*;
use rand::rngs::SmallRng;
use sagegpu_tensor::gpu_exec::GpuExecutor;
use std::collections::HashMap;

/// A bigram Markov language model over interned tokens.
#[derive(Debug, Clone)]
pub struct MarkovGenerator {
    /// Token id → token text.
    vocab: Vec<String>,
    /// Token text → token id.
    ids: HashMap<String, u32>,
    /// Successor ids per token id, in text order (multiplicity = observed
    /// frequency).
    succ: Vec<Vec<u32>>,
    /// Simulated "model width" used for the decode cost model.
    model_dim: u64,
}

impl MarkovGenerator {
    /// Trains on `text`. `model_dim` scales the simulated per-token cost
    /// (a stand-in for transformer hidden width).
    pub fn train(text: &str, model_dim: u64) -> Self {
        let mut vocab: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut succ: Vec<Vec<u32>> = Vec::new();
        let mut prev: Option<u32> = None;
        for token in text.to_lowercase().split(|c: char| !c.is_alphanumeric()) {
            if token.is_empty() {
                continue;
            }
            let id = match ids.get(token) {
                Some(&id) => id,
                None => {
                    let id = vocab.len() as u32;
                    vocab.push(token.to_owned());
                    ids.insert(token.to_owned(), id);
                    succ.push(Vec::new());
                    id
                }
            };
            if let Some(p) = prev {
                succ[p as usize].push(id);
            }
            prev = Some(id);
        }
        Self {
            vocab,
            ids,
            succ,
            model_dim: model_dim.max(1),
        }
    }

    /// Vocabulary size seen in training.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// The per-token decode kernel profile (matrix-vector shape:
    /// `2 × dim²` FLOPs, weight-streaming bytes).
    pub fn decode_profile(&self, batch: u64) -> KernelProfile {
        KernelProfile {
            flops: 2 * self.model_dim * self.model_dim * batch,
            // Weights are re-streamed once per step regardless of batch —
            // this is why batching raises throughput.
            bytes: 4 * self.model_dim * self.model_dim + 4 * self.model_dim * batch,
            access: AccessPattern::Coalesced,
            registers_per_thread: 64,
        }
    }

    /// Greedy-ish sampling of up to `max_tokens` starting from the last
    /// token of `context` (seeded; deterministic per inputs).
    pub fn generate(&self, context: &str, max_tokens: usize, seed: u64) -> String {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lowered = context.to_lowercase();
        let last = lowered
            .rsplit(|c: char| !c.is_alphanumeric())
            .find(|t| !t.is_empty());
        let Some(mut current) = last.and_then(|t| self.ids.get(t)).copied() else {
            return String::new();
        };
        let mut out = String::new();
        for _ in 0..max_tokens {
            let Some(&next) = self.succ[current as usize].choose(&mut rng) else {
                break;
            };
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&self.vocab[next as usize]);
            current = next;
        }
        out
    }

    /// Generates for a batch of contexts while charging decode kernels to
    /// `gpu`: one kernel per token *step*, shared across the whole batch.
    /// Returns the generated strings.
    pub fn generate_batch_on_gpu(
        &self,
        gpu: &GpuExecutor,
        contexts: &[&str],
        max_tokens: usize,
        seed: u64,
    ) -> Vec<String> {
        let seeds: Vec<u64> = (0..contexts.len() as u64)
            .map(|i| seed.wrapping_add(i))
            .collect();
        self.generate_batch_seeded(gpu, contexts, max_tokens, &seeds)
    }

    /// [`generate_batch_on_gpu`](Self::generate_batch_on_gpu) with one seed
    /// per context instead of a batch-positional seed, so an online server
    /// that coalesces whatever requests happen to be waiting produces the
    /// same answer for a request regardless of which batch it landed in.
    /// The decode cost model (one shared kernel per step) is identical.
    pub fn generate_batch_seeded(
        &self,
        gpu: &GpuExecutor,
        contexts: &[&str],
        max_tokens: usize,
        seeds: &[u64],
    ) -> Vec<String> {
        assert_eq!(contexts.len(), seeds.len(), "one seed per context");
        let batch = contexts.len().max(1) as u64;
        let cfg = LaunchConfig::for_elements(self.model_dim * batch, 256);
        let profile = self.decode_profile(batch);
        // One launch per decode step (the autoregressive loop).
        for step in 0..max_tokens {
            let _ = step;
            LaunchSpec::new("llm_decode_step", cfg, profile)
                .run(gpu.gpu(), || ())
                .expect("decode launch valid");
        }
        contexts
            .iter()
            .zip(seeds)
            .map(|(ctx, &s)| self.generate(ctx, max_tokens, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;
    use gpu_sim::{DeviceSpec, Gpu};
    use proptest::prelude::*;
    use std::sync::Arc;

    const TRAINING: &str = "the gpu runs the kernel and the kernel uses shared memory \
                            and the gpu runs fast when the kernel is coalesced";

    #[test]
    fn generates_only_observed_bigrams() {
        let g = MarkovGenerator::train(TRAINING, 64);
        let text = g.generate("the", 20, 1);
        let ids: Vec<u32> = tokenize(&format!("the {text}"))
            .iter()
            .map(|t| g.ids[t])
            .collect();
        for w in ids.windows(2) {
            assert!(
                g.succ[w[0] as usize].contains(&w[1]),
                "unseen bigram {:?} {:?}",
                g.vocab[w[0] as usize],
                g.vocab[w[1] as usize]
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = MarkovGenerator::train(TRAINING, 64);
        assert_eq!(g.generate("kernel", 10, 5), g.generate("kernel", 10, 5));
    }

    #[test]
    fn unknown_or_empty_context_is_graceful() {
        let g = MarkovGenerator::train(TRAINING, 64);
        assert_eq!(g.generate("zzzunknown", 5, 0), "");
        assert_eq!(g.generate("", 5, 0), "");
        // "coalesced" is terminal (last token): no successors.
        assert_eq!(g.generate("coalesced", 5, 0), "");
    }

    #[test]
    fn vocab_size_counts_distinct_tokens() {
        let g = MarkovGenerator::train("a b a c", 8);
        assert_eq!(g.vocab_size(), 3);
    }

    #[test]
    fn batched_decode_amortizes_weight_streaming() {
        // Per-query decode time must drop as batch grows: weights are
        // streamed once per step regardless of batch size.
        let g = MarkovGenerator::train(TRAINING, 512);
        let time_for = |batch: usize| -> u64 {
            let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
            let contexts: Vec<&str> = vec!["the"; batch];
            g.generate_batch_on_gpu(&exec, &contexts, 16, 0);
            exec.gpu().now_ns()
        };
        let t1 = time_for(1);
        let t16 = time_for(16);
        let per_query_1 = t1 as f64;
        let per_query_16 = t16 as f64 / 16.0;
        assert!(
            per_query_16 < 0.5 * per_query_1,
            "batching should amortize: {per_query_1} vs {per_query_16}"
        );
    }

    #[test]
    fn seeded_generation_is_invariant_to_batch_composition() {
        let g = MarkovGenerator::train(TRAINING, 64);
        let exec = GpuExecutor::new(Arc::new(Gpu::new(0, DeviceSpec::t4())));
        let pair = g.generate_batch_seeded(&exec, &["the", "kernel"], 8, &[11, 22]);
        let solo = g.generate_batch_seeded(&exec, &["kernel"], 8, &[22]);
        assert_eq!(pair[1], solo[0], "answer must not depend on batch-mates");
    }

    #[test]
    fn decode_profile_scales_with_batch() {
        let g = MarkovGenerator::train(TRAINING, 128);
        let p1 = g.decode_profile(1);
        let p8 = g.decode_profile(8);
        assert_eq!(p8.flops, 8 * p1.flops);
        // Bytes grow sub-linearly (weight streaming dominates).
        assert!(p8.bytes < 2 * p1.bytes);
    }

    /// The string-keyed generator the interned one replaced: successor
    /// lists of owned strings, context tokenized in full for its last
    /// token. Kept as the reference the interned tables must reproduce.
    struct StringMapOracle(HashMap<String, Vec<String>>);

    impl StringMapOracle {
        fn train(text: &str) -> Self {
            let tokens = tokenize(text);
            let mut transitions: HashMap<String, Vec<String>> = HashMap::new();
            for w in tokens.windows(2) {
                transitions
                    .entry(w[0].clone())
                    .or_default()
                    .push(w[1].clone());
            }
            Self(transitions)
        }

        fn generate(&self, context: &str, max_tokens: usize, seed: u64) -> String {
            let mut rng = SmallRng::seed_from_u64(seed);
            let Some(mut current) = tokenize(context).pop() else {
                return String::new();
            };
            let mut out = Vec::new();
            while out.len() < max_tokens {
                let Some(successors) = self.0.get(&current) else {
                    break;
                };
                let next = successors.choose(&mut rng).expect("non-empty").clone();
                out.push(next.clone());
                current = next;
            }
            out.join(" ")
        }
    }

    /// Mixed case, punctuation glued to words, and non-ASCII text whose
    /// lowercase form depends on context (final sigma) or is longer than
    /// the input (dotted capital I).
    const WORDS: [&str; 14] = [
        "the",
        "GPU",
        "kernel",
        "Kernel!",
        "naïve",
        "Straße",
        "ΣΟΦΟΣ",
        "İstanbul",
        "x86_64",
        "über.",
        "CUDA,",
        "memory",
        "shared",
        "fast",
    ];
    const TAILS: [&str; 5] = ["", ".", "!?", " — ", "…"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn interned_generator_matches_string_map_oracle(
            train in prop::collection::vec(0usize..WORDS.len(), 0..40),
            context in prop::collection::vec(0usize..WORDS.len() + 1, 0..6),
            tail in 0usize..TAILS.len(),
            terminal in 0usize..2,
            max_tokens in 0usize..12,
            seed in 0u64..1_000,
        ) {
            let text: Vec<&str> = train.iter().map(|&w| WORDS[w]).collect();
            let text = text.join(" ");
            let g = MarkovGenerator::train(&text, 8);
            let oracle = StringMapOracle::train(&text);
            let distinct: std::collections::HashSet<String> =
                tokenize(&text).into_iter().collect();
            prop_assert_eq!(g.vocab_size(), distinct.len());
            // Index `WORDS.len()` stands for a token the model never saw.
            let mut ctx: Vec<&str> = context
                .iter()
                .map(|&w| WORDS.get(w).copied().unwrap_or("zzunknown"))
                .collect();
            if terminal == 1 {
                // The training text's last token has no successors.
                ctx.extend(train.last().map(|&w| WORDS[w]));
            }
            let ctx = ctx.join(" ") + TAILS[tail];
            prop_assert_eq!(
                g.generate(&ctx, max_tokens, seed),
                oracle.generate(&ctx, max_tokens, seed),
                "context {:?}",
                ctx
            );
        }
    }
}
