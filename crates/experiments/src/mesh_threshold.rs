//! E8b — mesh critical probabilities.
//!
//! Theorem 4 applies for every `p > p_c^d`; the paper quotes `p_c² = 1/2` and
//! `p_c^d = (1 + o(1))/2d` (§1.2). This experiment estimates the thresholds
//! by bisection on the giant-fraction curve of tori (wrap-around meshes, to
//! suppress boundary effects) of growing side length.

use faultnet_analysis::sweep::Sweep;
use faultnet_analysis::table::{fmt_float, Table};
use faultnet_percolation::threshold::{
    estimate_threshold_batched, estimate_threshold_with_census_threads,
    giant_fraction_sweep_batched, giant_fraction_sweep_with_census_threads,
};
use faultnet_topology::torus::Torus;

use crate::report::{Effort, ExperimentReport};

/// The E8b experiment.
#[derive(Debug, Clone)]
pub struct MeshThresholdExperiment {
    /// `(dimension, side lengths)` pairs to evaluate.
    pub cases: Vec<(u32, Vec<u64>)>,
    /// Giant-fraction level whose crossing defines the finite-size threshold.
    pub target_fraction: f64,
    /// Trials per probability evaluation.
    pub trials: u32,
    /// Bisection tolerance on `p`.
    pub tolerance: f64,
    /// Probabilities for the reported giant-fraction sweep.
    pub sweep_ps: Vec<f64>,
    /// Base seed.
    pub base_seed: u64,
    /// Worker threads: the per-(dimension, side) bisections run in parallel
    /// (each bisection is inherently sequential in `p`). 1 = sequential; the
    /// reported numbers are identical for every value.
    pub threads: usize,
    /// Intra-census worker threads: each giant-fraction evaluation inside a
    /// bisection runs its census on this many workers — the only
    /// parallelism available *within* one bisection. With `trial_batch >
    /// 0` the workers split each batch's lanes instead. 1 = sequential; the
    /// reported numbers are identical for every value.
    pub census_threads: usize,
    /// Trial-batch lane request: each probability evaluation inside a
    /// bisection samples its trials on the multispin engine. 0 = scalar;
    /// the reported numbers are identical for every value.
    pub trial_batch: usize,
}

impl MeshThresholdExperiment {
    /// Configuration at the requested effort level.
    pub fn with_effort(effort: Effort) -> Self {
        MeshThresholdExperiment {
            // The side-96 / side-20 points shrink the finite-size drift of
            // the p_c estimates; they assume the parallel bisections.
            cases: effort.pick(
                vec![(2, vec![16, 24]), (3, vec![6, 8])],
                vec![(2, vec![24, 40, 64, 96]), (3, vec![8, 12, 16, 20])],
            ),
            target_fraction: 0.25,
            trials: effort.pick(4, 20),
            tolerance: effort.pick(0.02, 0.005),
            sweep_ps: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            base_seed: 0xFA05,
            threads: 1,
            census_threads: 1,
            trial_batch: 0,
        }
    }

    /// Quick configuration (seconds) for tests and benches.
    pub fn quick() -> Self {
        Self::with_effort(Effort::Quick)
    }

    /// Full configuration used to produce EXPERIMENTS.md.
    pub fn full() -> Self {
        Self::with_effort(Effort::Full)
    }

    /// Sets the worker-thread count (the `--threads` knob of the binaries).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the intra-census worker count (the `--census-threads` knob).
    #[must_use]
    pub fn with_census_threads(mut self, census_threads: usize) -> Self {
        self.census_threads = census_threads.max(1);
        self
    }

    /// Sets the trial-batch lane request (the `--trial-batch` knob;
    /// 0 keeps the scalar engine).
    #[must_use]
    pub fn with_trial_batch(mut self, trial_batch: usize) -> Self {
        self.trial_batch = trial_batch;
        self
    }

    /// Runs the experiment and assembles the report.
    pub fn run(&self) -> ExperimentReport {
        let _span = faultnet_obs::span("experiment.mesh_threshold");
        let mut report = ExperimentReport::new(
            "E8b: mesh percolation thresholds",
            "§1.2 background — p_c² = 1/2, p_c^d decreasing in d (applicability boundary of Theorem 4)",
        );
        let mut estimates =
            Table::new(["d", "side", "estimated p_c", "reference"]).with_title(format!(
                "threshold estimates (giant fraction crossing {}, tolerance {})",
                self.target_fraction, self.tolerance
            ));
        // Flatten the (dimension, side) grid so every bisection can run on
        // its own worker; the sweep preserves order, so the table rows come
        // out identical to a sequential run.
        let mut bisection_points = Vec::new();
        for (case_index, (d, sides)) in self.cases.iter().enumerate() {
            for (side_index, &side) in sides.iter().enumerate() {
                bisection_points.push((case_index, *d, side_index, side));
            }
        }
        let estimated = Sweep::over(bisection_points).run_parallel(
            self.threads.max(1),
            |&(case_index, d, side_index, side)| {
                let torus = Torus::new(d, side);
                let seed = self
                    .base_seed
                    .wrapping_add((case_index as u64) << 20)
                    .wrapping_add(side_index as u64);
                if self.trial_batch > 0 {
                    estimate_threshold_batched(
                        &torus,
                        self.target_fraction,
                        self.trials,
                        self.tolerance,
                        seed,
                        self.census_threads,
                        self.trial_batch,
                    )
                } else {
                    estimate_threshold_with_census_threads(
                        &torus,
                        self.target_fraction,
                        self.trials,
                        self.tolerance,
                        seed,
                        self.census_threads,
                    )
                }
            },
        );
        for point in &estimated {
            let (_, d, _, side) = point.parameter;
            let reference = match d {
                2 => "0.5 (exact)".to_string(),
                3 => "\u{2248} 0.2488".to_string(),
                other => format!(
                    "\u{2248} {:.3} (1/2d heuristic)",
                    1.0 / (2.0 * other as f64)
                ),
            };
            estimates.push_row([
                d.to_string(),
                side.to_string(),
                fmt_float(point.value),
                reference,
            ]);
        }
        for (case_index, (d, sides)) in self.cases.iter().enumerate() {
            // A giant-fraction sweep for the largest side of this dimension.
            let &largest = sides.last().expect("at least one side per case");
            let torus = Torus::new(*d, largest);
            let sweep_seed = self.base_seed.wrapping_add(777 + case_index as u64);
            let sweep = if self.trial_batch > 0 {
                giant_fraction_sweep_batched(
                    &torus,
                    &self.sweep_ps,
                    self.trials,
                    sweep_seed,
                    self.census_threads,
                    self.trial_batch,
                )
            } else {
                giant_fraction_sweep_with_census_threads(
                    &torus,
                    &self.sweep_ps,
                    self.trials,
                    sweep_seed,
                    self.census_threads,
                )
            };
            let mut sweep_table = Table::new(["p", "giant fraction"]).with_title(format!(
                "giant fraction sweep, d = {d}, torus side {largest}"
            ));
            for point in sweep {
                sweep_table.push_row([fmt_float(point.p), fmt_float(point.giant_fraction)]);
            }
            report.push_table(sweep_table);
        }
        report.push_table(estimates);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::threshold::estimate_threshold;

    #[test]
    fn two_dimensional_estimate_is_near_one_half() {
        let torus = Torus::new(2, 20);
        let est = estimate_threshold(&torus, 0.25, 4, 0.02, 9);
        assert!((0.35..0.65).contains(&est), "estimate {est}");
    }

    #[test]
    fn three_dimensional_threshold_is_below_two_dimensional() {
        let t2 = estimate_threshold(&Torus::new(2, 16), 0.25, 4, 0.02, 5);
        let t3 = estimate_threshold(&Torus::new(3, 7), 0.25, 4, 0.02, 5);
        assert!(t3 < t2, "t3 {t3} should be below t2 {t2}");
    }

    #[test]
    fn quick_report_renders() {
        let report = MeshThresholdExperiment::quick().run();
        assert!(report.tables().len() >= 3);
        assert!(report.render().contains("p_c"));
    }

    #[test]
    fn quick_report_is_byte_identical_with_batching() {
        // Every probability evaluation inside every bisection must land on
        // the same bits whether its trials are scalar or lane-packed —
        // otherwise the bisection could take a *different path* through p.
        let scalar = MeshThresholdExperiment::quick().run().render();
        let batched = MeshThresholdExperiment::quick()
            .with_trial_batch(64)
            .with_threads(2)
            .run()
            .render();
        assert_eq!(scalar, batched);
    }
}
