//! Sequential (single-GPU) GCN training — the paper's baseline.

use crate::exec::{charge_aggregate, charge_epoch, EpochDims, ExecMode};
use crate::{EpochStats, TrainConfig};
use gpu_sim::{DeviceSpec, Gpu, StreamId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sagegpu_graph::generators::GraphDataset;
use sagegpu_graph::normalize::normalized_adjacency;
use sagegpu_nn::layers::Gcn;
use sagegpu_nn::metrics::accuracy;
use sagegpu_nn::optim::{Adam, Optimizer};
use sagegpu_nn::tape::Tape;
use sagegpu_tensor::dense::Tensor;
use sagegpu_tensor::sparse::CsrMatrix;
use std::sync::Arc;

/// Result of a sequential training run.
#[derive(Debug, Clone)]
pub struct SeqResult {
    pub epoch_stats: Vec<EpochStats>,
    /// Accuracy on held-out nodes, full-graph inference.
    pub test_accuracy: f64,
    /// Accuracy on training nodes (sanity signal).
    pub train_accuracy: f64,
    /// Simulated wall-clock of the whole run (ns).
    pub sim_time_ns: u64,
    /// The trained model.
    pub model: Gcn,
}

/// Builds the normalized-adjacency sparse matrix of a dataset.
pub fn dataset_adjacency(ds: &GraphDataset) -> Arc<CsrMatrix> {
    let (indptr, indices, values) = normalized_adjacency(&ds.graph);
    Arc::new(
        CsrMatrix::new(ds.num_nodes(), ds.num_nodes(), indptr, indices, values)
            .expect("normalization yields valid CSR"),
    )
}

/// Dataset features as a dense tensor.
pub fn dataset_features(ds: &GraphDataset) -> Tensor {
    Tensor::from_vec(ds.num_nodes(), ds.feature_dim, ds.features.clone())
        .expect("feature matrix dims")
}

/// One real forward/backward + optimizer step over `ax` =
/// [`Gcn::aggregate`]`(adj, x)`; returns the loss.
pub fn train_step(
    model: &mut Gcn,
    opt: &mut Adam,
    adj: &Arc<CsrMatrix>,
    ax: &Tensor,
    labels: &[usize],
    mask: &[bool],
) -> f32 {
    let tape = Tape::new();
    let fwd = model.forward(&tape, Arc::clone(adj), ax);
    let loss = tape.cross_entropy(fwd.logits, labels, mask);
    let loss_val = tape.value(loss).get(0, 0);
    let mut grads = tape.backward(loss);
    let grad_tensors: Vec<Tensor> = fwd
        .params
        .iter()
        .map(|v| grads[v.index()].take().expect("param gradient"))
        .collect();
    opt.step_all(model.parameters_mut(), &grad_tensors);
    loss_val
}

/// Inference logits under the GCN holding `params` (see
/// [`Gcn::forward_with`]) over `ax` = [`Gcn::aggregate`]`(adj, x)`.
pub fn infer(params: &[&Tensor], adj: &Arc<CsrMatrix>, ax: &Tensor) -> Tensor {
    let tape = Tape::new();
    let fwd = Gcn::forward_with(params, &tape, Arc::clone(adj), ax);
    tape.value(fwd.logits)
}

/// Held-out accuracy of `model` run over the full, uncut graph of `ds`: the
/// figure to set beside a distributed run's partitioned-inference
/// [`DistResult::test_accuracy`](crate::distributed::DistResult::test_accuracy),
/// whose nodes aggregate only within their partition.
pub fn full_graph_test_accuracy(model: &Gcn, ds: &GraphDataset) -> f64 {
    let adj = dataset_adjacency(ds);
    let ax = Gcn::aggregate(&adj, &dataset_features(ds));
    let logits = infer(&model.parameters(), &adj, &ax);
    accuracy(&logits, &ds.labels, &ds.test_nodes_mask())
}

/// Trains on the full graph on one simulated GPU (Algorithm 1 with k = 1,
/// i.e. the "sequential approach" of §III-B).
pub fn train_sequential(ds: &GraphDataset, cfg: &TrainConfig) -> SeqResult {
    let gpu = Gpu::new(0, DeviceSpec::t4());
    let adj = dataset_adjacency(ds);
    let x = dataset_features(ds);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut model = Gcn::new(ds.feature_dim, cfg.hidden, ds.num_classes, &mut rng);
    let mut opt = Adam::new(cfg.lr);

    // Features move to the device once, and layer 1's aggregate ÂX is
    // computed (and charged) once from them.
    let _feat_buf = gpu.htod(x.data()).expect("features fit");
    let dims = EpochDims {
        n: ds.num_nodes() as u64,
        nnz: (2 * ds.graph.num_edges() + ds.num_nodes()) as u64,
        d: ds.feature_dim as u64,
        h: cfg.hidden as u64,
        c: ds.num_classes as u64,
    };
    let ax = charge_aggregate(&gpu, StreamId::DEFAULT, dims, || Gcn::aggregate(&adj, &x));

    let mut epoch_stats = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let loss = charge_epoch(&gpu, ExecMode::FusedOverlapped, dims, || {
            train_step(&mut model, &mut opt, &adj, &ax, &ds.labels, &ds.train_mask)
        });
        epoch_stats.push(EpochStats { epoch, loss });
    }

    let logits = infer(&model.parameters(), &adj, &ax);
    let test_accuracy = accuracy(&logits, &ds.labels, &ds.test_nodes_mask());
    let train_accuracy = accuracy(&logits, &ds.labels, &ds.train_mask);
    SeqResult {
        epoch_stats,
        test_accuracy,
        train_accuracy,
        sim_time_ns: gpu.now_ns(),
        model,
    }
}

/// Helper trait-ish extension: mask of test nodes.
trait MaskExt {
    fn test_nodes_mask(&self) -> Vec<bool>;
}

impl MaskExt for GraphDataset {
    fn test_nodes_mask(&self) -> Vec<bool> {
        self.train_mask.iter().map(|&m| !m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagegpu_graph::generators::{sbm, SbmParams};

    fn small_ds() -> GraphDataset {
        sbm(
            &SbmParams {
                block_sizes: vec![40, 40, 40],
                p_in: 0.2,
                p_out: 0.01,
                feature_dim: 16,
                feature_separation: 1.5,
                train_fraction: 0.5,
            },
            7,
        )
        .unwrap()
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = small_ds();
        let r = train_sequential(
            &ds,
            &TrainConfig {
                epochs: 25,
                ..Default::default()
            },
        );
        let first = r.epoch_stats.first().unwrap().loss;
        let last = r.epoch_stats.last().unwrap().loss;
        assert!(last < 0.7 * first, "loss {first} → {last}");
    }

    #[test]
    fn accuracy_beats_chance_on_separable_data() {
        let ds = small_ds();
        let r = train_sequential(
            &ds,
            &TrainConfig {
                epochs: 40,
                ..Default::default()
            },
        );
        // 3 balanced classes → chance = 1/3; the SBM is very separable.
        assert!(r.test_accuracy > 0.7, "test accuracy {}", r.test_accuracy);
        assert!(r.train_accuracy >= r.test_accuracy - 0.1);
    }

    #[test]
    fn simulated_time_advances_with_epochs() {
        let ds = small_ds();
        let short = train_sequential(
            &ds,
            &TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let long = train_sequential(
            &ds,
            &TrainConfig {
                epochs: 20,
                ..Default::default()
            },
        );
        assert!(long.sim_time_ns > 3 * short.sim_time_ns);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = small_ds();
        let cfg = TrainConfig {
            epochs: 10,
            ..Default::default()
        };
        let a = train_sequential(&ds, &cfg);
        let b = train_sequential(&ds, &cfg);
        assert_eq!(a.test_accuracy, b.test_accuracy);
        assert_eq!(a.sim_time_ns, b.sim_time_ns);
        assert_eq!(a.epoch_stats, b.epoch_stats);
    }
}
