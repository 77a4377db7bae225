//! Lloyd's k-means: the one trainer behind the coarse quantizer and every
//! PQ subspace codebook. Each caller picks the rows it seeds from: the
//! coarse trainer all rows, PQ the distinct subvectors.

use crate::panel::{Metric, Panels};
use rand::prelude::*;
use rand::rngs::SmallRng;
use rayon::prelude::*;

/// How one Lloyd loop ended; the default is "no loop ran".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LloydRun {
    /// Iterations run, each one assignment pass and one update.
    pub iterations: usize,
    /// Whether it stopped at the 10-iteration cap, assignments still changing.
    pub capped: bool,
}

/// The seed centroids: `k` of `candidates`, in a `seed`ed shuffle's order.
pub(crate) fn seeds(candidates: &[&[f32]], k: usize, seed: u64) -> Vec<f32> {
    let mut pick: Vec<usize> = (0..candidates.len()).collect();
    pick.shuffle(&mut SmallRng::seed_from_u64(seed));
    pick[..k]
        .iter()
        .flat_map(|&i| candidates[i].iter().copied())
        .collect()
}

/// Every row's best centroid under `metric`, lowest on ties, fanned out
/// over the caller's `rayon` width (inline on a PQ subspace's block thread).
pub(crate) fn assign(rows: &[&[f32]], dim: usize, centroids: &[f32], metric: Metric) -> Vec<usize> {
    let panels = Panels::new(centroids, dim);
    let best = |row: &&[f32]| panels.best(row.iter().copied(), metric);
    rows.par_iter().map(best).collect()
}

/// Lloyd's k-means on `rows` (each `dim` long) from the seed `centroids`
/// (row-major `k × dim`), until an iteration changes no assignment or for
/// 10 iterations. A centroid with members moves to their sum renormalised
/// to unit length under [`Metric::Dot`] (spherical k-means), to their mean
/// under [`Metric::L2`]; one without keeps its place. Returns the
/// centroids, every row's centroid under them, and how the loop ended.
pub(crate) fn lloyd(
    rows: &[&[f32]],
    dim: usize,
    mut centroids: Vec<f32>,
    metric: Metric,
) -> (Vec<f32>, Vec<usize>, LloydRun) {
    let k = centroids.len() / dim;
    let mut assignments = vec![0usize; rows.len()];
    let (mut iterations, mut changed) = (0, true);
    while changed && iterations < 10 {
        iterations += 1;
        let next = assign(rows, dim, &centroids, metric);
        changed = next != assignments;
        assignments = next;
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0usize; k];
        for (row, &a) in rows.iter().zip(&assignments) {
            counts[a] += 1;
            sums[a * dim..(a + 1) * dim]
                .iter_mut()
                .zip(*row)
                .for_each(|(s, x)| *s += x);
        }
        for c in (0..k).filter(|&c| counts[c] > 0) {
            let sum = &mut sums[c * dim..(c + 1) * dim];
            let scale = match metric {
                Metric::Dot => sum.iter().map(|x| x * x).sum::<f32>().sqrt(),
                Metric::L2 => counts[c] as f32,
            };
            if scale > 0.0 {
                sum.iter_mut().for_each(|x| *x /= scale);
            }
            centroids[c * dim..(c + 1) * dim].copy_from_slice(sum);
        }
    }
    // Unchanged assignments moved no centroid, so they are final; a capped
    // loop moved the centroids after its last assignment pass.
    let capped = changed;
    if capped {
        assignments = assign(rows, dim, &centroids, metric);
    }
    (centroids, assignments, LloydRun { iterations, capped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::panel::tests::{scalar_argmax, scalar_argmin};

    /// `n` rows of `dim` in 8 loose clumps, unit length for `Dot`.
    fn clumps(n: usize, dim: usize, metric: Metric, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        (0..n)
            .map(|i| {
                let mut v: Vec<f32> = centers[i % 8]
                    .iter()
                    .map(|c| c + rng.gen_range(-0.9..0.9))
                    .collect();
                if let Metric::Dot = metric {
                    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                    v.iter_mut().for_each(|x| *x /= norm);
                }
                v
            })
            .collect()
    }

    #[test]
    fn capped_loops_return_assignments_under_their_final_centroids() {
        let (dim, k) = (6, 24);
        for metric in [Metric::Dot, Metric::L2] {
            let mut capped = 0;
            for seed in 0..8 {
                let data = clumps(1_500, dim, metric, seed);
                let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                let (centroids, assignments, run) = lloyd(&rows, dim, rows[..k].concat(), metric);
                assert_eq!(centroids.len(), k * dim);
                for (row, &a) in rows.iter().zip(&assignments) {
                    let want = match metric {
                        Metric::Dot => scalar_argmax(&centroids, dim, row),
                        Metric::L2 => scalar_argmin(&centroids, dim, row),
                    };
                    assert_eq!(a, want, "{metric:?} seed {seed}");
                }
                assert!((1..=10).contains(&run.iterations));
                assert!(!run.capped || run.iterations == 10);
                capped += run.capped as usize;
            }
            assert!(capped > 0, "{metric:?}: no loop reached the cap");
        }
    }

    #[test]
    fn a_converged_loop_stops_early_and_keeps_unpicked_centroids() {
        // Two exact clumps and a third seed no row is nearest: the second
        // iteration changes nothing, and the unpicked seed stays put.
        let data = [[0.0f32, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let seeds = vec![0.0, 0.0, 10.0, 10.0, -50.0, -50.0];
        let (centroids, assignments, run) = lloyd(&rows, 2, seeds, Metric::L2);
        assert_eq!(centroids, [0.0, 0.5, 10.0, 10.5, -50.0, -50.0]);
        assert_eq!(assignments, [0, 0, 1, 1]);
        let converged = LloydRun {
            iterations: 2,
            capped: false,
        };
        assert_eq!(run, converged);
    }
}
