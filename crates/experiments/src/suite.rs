//! The experiment registry — the single source of truth for what `run_all`
//! executes.
//!
//! Kept as a library function so the `run_all` binary and the end-to-end
//! regression tests run the exact same sequence: the tests assert that the
//! rendered output is byte-identical across `--threads` values, which is the
//! determinism contract the parallel harness promises.
//!
//! Every experiment registers itself exactly once, in [`registry`]; `run_all`
//! (and anything else that wants "every experiment") enumerates the registry
//! instead of maintaining a second hand-written list, so a newly registered
//! experiment is automatically picked up by `run_all_reports`, the
//! byte-identity regression test, and the docs listing. The registry's
//! uniqueness invariants are themselves tested.

use crate::{
    ablation::AblationExperiment, chemical_distance::ChemicalDistanceExperiment,
    churn::ChurnExperiment, double_tree::DoubleTreeExperiment, fault_models::FaultModelsExperiment,
    gnp::GnpExperiment, hypercube_giant::HypercubeGiantExperiment,
    hypercube_lower_bound::HypercubeLowerBoundExperiment,
    hypercube_transition::HypercubeTransitionExperiment, mesh_routing::MeshRoutingExperiment,
    mesh_threshold::MeshThresholdExperiment, open_questions::OpenQuestionsExperiment,
    real_world::RealWorldExperiment, Effort, ExperimentReport,
};

/// One registered experiment: its identity plus a uniform way to run it at
/// any effort/thread configuration.
pub struct RegisteredExperiment {
    /// Experiment id in the paper-mapping scheme (`"E4"`, `"E8a"`, …).
    pub id: &'static str,
    /// Name of the dedicated binary (`"exp_mesh_routing"`, …).
    pub binary: &'static str,
    /// One-line description (paper result or scenario).
    pub title: &'static str,
    /// Whether this experiment consumes the `--trial-batch` knob (the
    /// trial-fan-out experiments: E8a, E8b, E11, E13). For the rest the knob
    /// is a no-op — their trial structure has nothing for lanes to pack.
    pub supports_trial_batch: bool,
    run: fn(Effort, usize, usize, usize) -> ExperimentReport,
}

impl RegisteredExperiment {
    /// Runs the experiment at the given effort across `threads` trial
    /// workers and `census_threads` intra-census workers (ignored by the
    /// routing experiments, which run no census), with the
    /// trial-batched engine at `trial_batch` lanes (0 = scalar; ignored by
    /// experiments that don't [`Self::supports_trial_batch`]). All three
    /// knobs are pure wall-clock levers: the report is a function of
    /// `effort` alone.
    pub fn run(
        &self,
        effort: Effort,
        threads: usize,
        census_threads: usize,
        trial_batch: usize,
    ) -> ExperimentReport {
        // `binary` is 'static, so it doubles as the span name: one span per
        // experiment, visible in `--trace` output as `exp_mesh_routing` etc.
        let _span = faultnet_obs::span(self.binary);
        (self.run)(effort, threads, census_threads, trial_batch)
    }
}

/// Every experiment, in canonical E1→E13 order. The one list to extend when
/// adding an experiment; `run_all` and the end-to-end tests derive from it.
pub fn registry() -> Vec<RegisteredExperiment> {
    // A macro keeps each entry to one line and guarantees every experiment
    // is wired through the same with_effort/with_threads/run protocol. The
    // marker states which builders beyond `with_threads` the experiment's
    // struct has: `routing` entries take neither knob, `scalar` entries take
    // `with_census_threads`, and `batched` entries take it and
    // `with_trial_batch`. Knobs an entry lacks are dropped.
    macro_rules! experiments {
        (@run routing, $ty:ty) => {
            |effort, threads, _census_threads, _trial_batch| {
                <$ty>::with_effort(effort).with_threads(threads).run()
            }
        };
        (@run scalar, $ty:ty) => {
            |effort, threads, census_threads, _trial_batch| {
                <$ty>::with_effort(effort)
                    .with_threads(threads)
                    .with_census_threads(census_threads)
                    .run()
            }
        };
        (@run batched, $ty:ty) => {
            |effort, threads, census_threads, trial_batch| {
                <$ty>::with_effort(effort)
                    .with_threads(threads)
                    .with_census_threads(census_threads)
                    .with_trial_batch(trial_batch)
                    .run()
            }
        };
        (@supports routing) => {
            false
        };
        (@supports scalar) => {
            false
        };
        (@supports batched) => {
            true
        };
        ($($id:literal, $binary:literal, $title:literal => $marker:ident $ty:ty;)+) => {
            vec![$(RegisteredExperiment {
                id: $id,
                binary: $binary,
                title: $title,
                supports_trial_batch: experiments!(@supports $marker),
                run: experiments!(@run $marker, $ty),
            }),+]
        };
    }
    experiments! {
        "E1/E3", "exp_hypercube_transition", "Theorem 3 — hypercube routing phase transition" => routing HypercubeTransitionExperiment;
        "E2", "exp_hypercube_lower_bound", "Lemma 5 — cut lower bound vs. measured cost" => routing HypercubeLowerBoundExperiment;
        "E4", "exp_mesh_routing", "Theorem 4 — O(n) mesh routing above p_c" => routing MeshRoutingExperiment;
        "E5", "exp_chemical_distance", "Lemma 8 — chemical distance is linear above p_c" => routing ChemicalDistanceExperiment;
        "E6", "exp_double_tree", "Lemma 6 + Theorems 7, 9 — double tree local vs. oracle" => routing DoubleTreeExperiment;
        "E7", "exp_gnp", "Theorems 10, 11 — G(n,p) local n² vs. oracle n^{3/2}" => routing GnpExperiment;
        "E8a", "exp_hypercube_giant", "§1.2 — hypercube giant/connectivity thresholds" => batched HypercubeGiantExperiment;
        "E8b", "exp_mesh_threshold", "§1.2 — mesh percolation threshold" => batched MeshThresholdExperiment;
        "E9", "exp_open_questions", "§6 open questions — constant-degree families" => scalar OpenQuestionsExperiment;
        "E10", "exp_ablation", "design-choice ablations" => routing AblationExperiment;
        "E11", "exp_fault_models", "fault-model scenario matrix (node/correlated/adversarial)" => batched FaultModelsExperiment;
        "E12", "exp_churn", "dynamic fault churn — incremental census over fail/repair dynamics" => scalar ChurnExperiment;
        "E13", "exp_real_world", "fault-model matrix on real-world/scale-free substrates" => batched RealWorldExperiment;
    }
}

/// Runs every registered experiment at the given effort across `threads`
/// trial workers and `census_threads` intra-census workers, the
/// trial-batched engine at `trial_batch` lanes (0 = scalar), in registry
/// order, and returns the reports.
///
/// The reported numbers are a pure function of `effort` (each experiment
/// bakes in its base seed); `threads`, `census_threads`, and `trial_batch`
/// only change wall-clock time.
pub fn run_all_reports(
    effort: Effort,
    threads: usize,
    census_threads: usize,
    trial_batch: usize,
) -> Vec<ExperimentReport> {
    registry()
        .iter()
        .map(|experiment| experiment.run(effort, threads, census_threads, trial_batch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_ids_and_binaries_are_unique() {
        let experiments = registry();
        let ids: HashSet<_> = experiments.iter().map(|e| e.id).collect();
        let binaries: HashSet<_> = experiments.iter().map(|e| e.binary).collect();
        assert_eq!(ids.len(), experiments.len(), "duplicate experiment id");
        assert_eq!(binaries.len(), experiments.len(), "duplicate binary name");
    }

    #[test]
    fn fault_models_experiment_is_registered() {
        assert!(
            registry().iter().any(|e| e.binary == "exp_fault_models"),
            "exp_fault_models missing from the registry — run_all would skip it"
        );
    }

    #[test]
    fn churn_experiment_is_registered_as_scalar() {
        let experiments = registry();
        let churn = experiments
            .iter()
            .find(|e| e.binary == "exp_churn")
            .expect("exp_churn missing from the registry — run_all would skip it");
        assert_eq!(churn.id, "E12");
        assert!(
            !churn.supports_trial_batch,
            "the churn walk is a single evolving instance per trial; there \
             is no trial fan-out for the multispin engine to pack"
        );
    }

    #[test]
    fn exactly_the_trial_fan_out_experiments_support_batching() {
        let batched: Vec<&str> = registry()
            .iter()
            .filter(|e| e.supports_trial_batch)
            .map(|e| e.binary)
            .collect();
        assert_eq!(
            batched,
            [
                "exp_hypercube_giant",
                "exp_mesh_threshold",
                "exp_fault_models",
                "exp_real_world"
            ],
            "the --trial-batch consumers changed; update the binaries' \
             warn_trial_batch_ignored list and docs/EXPERIMENTS.md"
        );
    }
}
