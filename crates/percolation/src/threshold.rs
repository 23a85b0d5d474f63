//! Critical-probability estimation.
//!
//! The mesh result (Theorem 4) applies for every `p > p_c^d`, and the
//! background results the experiments reproduce include `p_c² = 1/2` for the
//! two-dimensional mesh and the `1/n` giant-component threshold of the
//! hypercube. This module estimates thresholds by Monte-Carlo evaluation of
//! the giant-component fraction combined with bisection, exploiting the
//! monotone coupling of [`crate::PercolationConfig::with_p`] (the same seed
//! reuses the same underlying uniforms, so the fraction is monotone in `p`
//! sample by sample and the bisection is well behaved).

use faultnet_topology::Topology;

use crate::components::ComponentCensus;
use crate::sample::BitsetSample;
use crate::trial_batch::{clamp_lanes, TrialBatch};
use crate::PercolationConfig;

/// Mean giant-component fraction of `graph` at probability `p`, averaged over
/// `trials` independent instances derived from `base_seed`.
///
/// Each instance is materialised once as a [`BitsetSample`] before the
/// census, so the union-find pass reads bits rather than hashing every edge.
/// Equivalent to [`mean_giant_fraction_with_census_threads`] with one census
/// thread.
pub fn mean_giant_fraction<T: Topology + Sync>(
    graph: &T,
    p: f64,
    trials: u32,
    base_seed: u64,
) -> f64 {
    mean_giant_fraction_with_census_threads(graph, p, trials, base_seed, 1)
}

/// Like [`mean_giant_fraction`], but each per-instance census runs on
/// `census_threads` workers through
/// [`ComponentCensus::compute_parallel`] — *intra*-instance parallelism,
/// complementary to the harness's per-trial fan-out. The returned mean is
/// identical for every `census_threads` value (the parallel census is
/// bit-identical to the sequential one); only wall-clock time changes.
pub fn mean_giant_fraction_with_census_threads<T: Topology + Sync>(
    graph: &T,
    p: f64,
    trials: u32,
    base_seed: u64,
    census_threads: usize,
) -> f64 {
    assert!(trials > 0, "at least one trial is required");
    let mut total = 0.0;
    for t in 0..trials {
        let cfg = PercolationConfig::new(p, base_seed.wrapping_add(t as u64));
        let sample = BitsetSample::from_config(graph, &cfg);
        let census = ComponentCensus::compute_parallel(graph, &sample, census_threads);
        total += census.giant_fraction();
    }
    total / trials as f64
}

/// Like [`mean_giant_fraction_with_census_threads`], but trials are
/// materialised through the trial-batched (multispin) store: chunks of up
/// to `min(trial_batch, 64)` consecutive trials share one
/// [`TrialBatch`], censused lane by lane by
/// [`TrialBatch::lane_components`]. On this path `census_threads` splits
/// the lanes of a batch across that many workers.
///
/// The mean is **bit-identical** to the scalar engine for every
/// `trial_batch` and `census_threads` value: lane `l` of the chunk
/// starting at trial `t0` realises exactly the scalar trial `t0 + l`
/// (same seed, same edge states, same partition, so the same largest
/// component), and the per-trial fractions are summed in trial order, so
/// even the `f64` addition sequence matches.
/// Topologies without a closed-form edge index fall back to the scalar
/// loop outright. The equivalence suite in `tests/trial_equivalence.rs`
/// pins both claims across the family zoo.
///
/// # Panics
///
/// Panics if `trials` or `trial_batch` is zero (`trial_batch = 0` means
/// "batching off" at the CLI layer and must not reach this function).
pub fn mean_giant_fraction_batched<T: Topology + Sync>(
    graph: &T,
    p: f64,
    trials: u32,
    base_seed: u64,
    census_threads: usize,
    trial_batch: usize,
) -> f64 {
    assert!(trials > 0, "at least one trial is required");
    assert!(
        trial_batch > 0,
        "trial_batch 0 means 'off'; use the scalar engine"
    );
    if !TrialBatch::supported(graph) {
        return mean_giant_fraction_with_census_threads(
            graph,
            p,
            trials,
            base_seed,
            census_threads,
        );
    }
    let lanes_per_chunk = clamp_lanes(trial_batch);
    let mut total = 0.0;
    let mut t0 = 0u32;
    while t0 < trials {
        let lanes = lanes_per_chunk.min((trials - t0) as usize);
        let cfg = PercolationConfig::new(p, base_seed.wrapping_add(t0 as u64));
        let batch = TrialBatch::from_config(graph, &cfg, lanes);
        for lane in batch.lane_components(census_threads) {
            total += lane.giant_fraction();
        }
        t0 += lanes as u32;
    }
    total / trials as f64
}

/// One point of a giant-fraction sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Retention probability at which the fraction was measured.
    pub p: f64,
    /// Mean giant-component fraction over the trials.
    pub giant_fraction: f64,
}

/// Evaluates the mean giant fraction at each probability in `ps`.
pub fn giant_fraction_sweep<T: Topology + Sync>(
    graph: &T,
    ps: &[f64],
    trials: u32,
    base_seed: u64,
) -> Vec<SweepPoint> {
    giant_fraction_sweep_with_census_threads(graph, ps, trials, base_seed, 1)
}

/// Like [`giant_fraction_sweep`], with each census on `census_threads`
/// workers (the points are identical for every value).
pub fn giant_fraction_sweep_with_census_threads<T: Topology + Sync>(
    graph: &T,
    ps: &[f64],
    trials: u32,
    base_seed: u64,
    census_threads: usize,
) -> Vec<SweepPoint> {
    ps.iter()
        .map(|&p| SweepPoint {
            p,
            giant_fraction: mean_giant_fraction_with_census_threads(
                graph,
                p,
                trials,
                base_seed,
                census_threads,
            ),
        })
        .collect()
}

/// Like [`giant_fraction_sweep_with_census_threads`], with each point's
/// mean evaluated through [`mean_giant_fraction_batched`] (bit-identical
/// points, batched wall clock).
pub fn giant_fraction_sweep_batched<T: Topology + Sync>(
    graph: &T,
    ps: &[f64],
    trials: u32,
    base_seed: u64,
    census_threads: usize,
    trial_batch: usize,
) -> Vec<SweepPoint> {
    ps.iter()
        .map(|&p| SweepPoint {
            p,
            giant_fraction: mean_giant_fraction_batched(
                graph,
                p,
                trials,
                base_seed,
                census_threads,
                trial_batch,
            ),
        })
        .collect()
}

/// Estimates the probability at which the mean giant fraction first exceeds
/// `target_fraction`, by bisection to within `tolerance`.
///
/// This is the standard finite-size proxy for the percolation threshold: for
/// a fixed finite graph the giant fraction is a smooth increasing function of
/// `p`, and the crossing point of a fixed level (e.g. 0.2) converges to `p_c`
/// as the graph grows.
///
/// # Panics
///
/// Panics if `target_fraction` is not in `(0, 1)` or `tolerance` is not
/// positive.
pub fn estimate_threshold<T: Topology + Sync>(
    graph: &T,
    target_fraction: f64,
    trials: u32,
    tolerance: f64,
    base_seed: u64,
) -> f64 {
    estimate_threshold_with_census_threads(graph, target_fraction, trials, tolerance, base_seed, 1)
}

/// Like [`estimate_threshold`], with each giant-fraction evaluation's census
/// on `census_threads` workers. The bisection is inherently sequential in
/// `p`, so intra-census parallelism is the only lever on a single
/// estimate's wall-clock time; the estimate itself is identical for every
/// `census_threads` value.
///
/// # Panics
///
/// Panics under the same conditions as [`estimate_threshold`].
pub fn estimate_threshold_with_census_threads<T: Topology + Sync>(
    graph: &T,
    target_fraction: f64,
    trials: u32,
    tolerance: f64,
    base_seed: u64,
    census_threads: usize,
) -> f64 {
    assert!(
        (0.0..1.0).contains(&target_fraction) && target_fraction > 0.0,
        "target fraction must be in (0, 1)"
    );
    assert!(tolerance > 0.0, "tolerance must be positive");
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        let fraction =
            mean_giant_fraction_with_census_threads(graph, mid, trials, base_seed, census_threads);
        if fraction >= target_fraction {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Like [`estimate_threshold_with_census_threads`], with every
/// giant-fraction evaluation on the trial-batched engine. Because the
/// batched mean is bit-identical to the scalar mean at every probe point,
/// the bisection takes exactly the same branch at every step and the
/// estimate is bit-identical too.
///
/// # Panics
///
/// Panics under the same conditions as [`estimate_threshold`], plus when
/// `trial_batch` is zero.
pub fn estimate_threshold_batched<T: Topology + Sync>(
    graph: &T,
    target_fraction: f64,
    trials: u32,
    tolerance: f64,
    base_seed: u64,
    census_threads: usize,
    trial_batch: usize,
) -> f64 {
    assert!(
        (0.0..1.0).contains(&target_fraction) && target_fraction > 0.0,
        "target fraction must be in (0, 1)"
    );
    assert!(tolerance > 0.0, "tolerance must be positive");
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        let fraction =
            mean_giant_fraction_batched(graph, mid, trials, base_seed, census_threads, trial_batch);
        if fraction >= target_fraction {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_topology::{
        complete::CompleteGraph, hypercube::Hypercube, mesh::Mesh, torus::Torus,
    };

    #[test]
    fn giant_fraction_is_monotone_in_p() {
        let cube = Hypercube::new(8);
        let f_low = mean_giant_fraction(&cube, 0.1, 5, 42);
        let f_mid = mean_giant_fraction(&cube, 0.3, 5, 42);
        let f_high = mean_giant_fraction(&cube, 0.8, 5, 42);
        assert!(f_low <= f_mid + 1e-9);
        assert!(f_mid <= f_high + 1e-9);
        assert!(f_high > 0.9);
    }

    #[test]
    fn sweep_returns_requested_points() {
        let mesh = Mesh::new(2, 8);
        let ps = [0.2, 0.5, 0.8];
        let sweep = giant_fraction_sweep(&mesh, &ps, 3, 7);
        assert_eq!(sweep.len(), 3);
        for (point, p) in sweep.iter().zip(ps) {
            assert_eq!(point.p, p);
            assert!((0.0..=1.0).contains(&point.giant_fraction));
        }
    }

    #[test]
    fn two_dimensional_threshold_is_near_one_half() {
        // p_c = 1/2 for the 2-d square lattice; a 24x24 torus gives a crude
        // but stable finite-size estimate.
        let torus = Torus::new(2, 24);
        let est = estimate_threshold(&torus, 0.25, 4, 0.02, 11);
        assert!(
            (0.35..0.65).contains(&est),
            "2-d threshold estimate {est} too far from 0.5"
        );
    }

    #[test]
    fn complete_graph_threshold_is_near_one_over_n() {
        // G(n, p) has a giant component for p > 1/n; with n = 200 the
        // threshold estimate should be well below 0.05.
        let k = CompleteGraph::new(200);
        let est = estimate_threshold(&k, 0.2, 3, 0.005, 5);
        assert!(est < 0.05, "G(n,p) threshold estimate {est} too large");
        assert!(est > 0.001, "G(n,p) threshold estimate {est} too small");
    }

    #[test]
    fn census_thread_count_never_changes_the_numbers() {
        // The intra-census knob is a pure wall-clock lever: means, sweeps,
        // and bisection estimates are bit-identical for every value.
        let cube = Hypercube::new(8);
        let base = mean_giant_fraction(&cube, 0.3, 4, 17);
        for census_threads in [1usize, 2, 4, 8] {
            assert_eq!(
                base,
                mean_giant_fraction_with_census_threads(&cube, 0.3, 4, 17, census_threads),
                "census_threads {census_threads}"
            );
        }
        let torus = Torus::new(2, 12);
        assert_eq!(
            estimate_threshold(&torus, 0.25, 2, 0.05, 3),
            estimate_threshold_with_census_threads(&torus, 0.25, 2, 0.05, 3, 4),
        );
        assert_eq!(
            giant_fraction_sweep(&torus, &[0.2, 0.6], 2, 5),
            giant_fraction_sweep_with_census_threads(&torus, &[0.2, 0.6], 2, 5, 3),
        );
    }

    #[test]
    fn batched_mean_is_bit_identical_to_scalar() {
        // The zoo-wide version lives in tests/trial_equivalence.rs; this
        // pins the unit contract, including ragged tails (5 % 4 != 0).
        let cube = Hypercube::new(7);
        let scalar = mean_giant_fraction(&cube, 0.3, 5, 17);
        for trial_batch in [1usize, 4, 64, 200] {
            assert_eq!(
                scalar,
                mean_giant_fraction_batched(&cube, 0.3, 5, 17, 1, trial_batch),
                "trial_batch {trial_batch}"
            );
        }
        let torus = Torus::new(2, 12);
        assert_eq!(
            estimate_threshold(&torus, 0.25, 2, 0.05, 3),
            estimate_threshold_batched(&torus, 0.25, 2, 0.05, 3, 1, 64),
        );
        assert_eq!(
            giant_fraction_sweep(&torus, &[0.2, 0.6], 2, 5),
            giant_fraction_sweep_batched(&torus, &[0.2, 0.6], 2, 5, 1, 3),
        );
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn batched_zero_trials_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = mean_giant_fraction_batched(&mesh, 0.5, 0, 0, 1, 64);
    }

    #[test]
    #[should_panic(expected = "trial_batch 0")]
    fn batched_zero_batch_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = mean_giant_fraction_batched(&mesh, 0.5, 1, 0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "target fraction")]
    fn bad_target_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = estimate_threshold(&mesh, 1.5, 1, 0.1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let mesh = Mesh::new(2, 4);
        let _ = mean_giant_fraction(&mesh, 0.5, 0, 0);
    }
}
