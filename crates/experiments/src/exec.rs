//! Execution knobs shared by the trial-fan-out measurement functions.
//!
//! The trial-fan-out experiments (E8a giant scans, E8b threshold
//! bisections, the E11 matrix) thread three orthogonal wall-clock levers
//! through every measurement: per-trial fan-out (`--threads`),
//! intra-census fan-out (`--census-threads`), and the trial-batched
//! multispin engine (`--trial-batch`). [`TrialExec`] bundles them so
//! measurement functions take one knobs value instead of a growing tail of
//! `usize` parameters — and so a new lever lands in one place instead of
//! every signature.
//!
//! All three knobs share the same contract: **they never change a reported
//! number**. The parallel harness folds in trial order, the parallel
//! census is bit-identical to the sequential one, and the batched engine
//! is bit-identical to the scalar one (each proven by its own equivalence
//! suite), so a `TrialExec` is purely a wall-clock configuration.

/// Wall-clock execution knobs for a trial-fan-out measurement.
///
/// # Examples
///
/// ```
/// use faultnet_experiments::exec::TrialExec;
///
/// let exec = TrialExec::sequential().with_threads(4).with_trial_batch(64);
/// assert_eq!(exec.threads, 4);
/// assert_eq!(exec.census_threads, 1);
/// assert!(exec.batched());
/// assert!(!TrialExec::default().batched());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialExec {
    /// Per-trial (or per-chunk, when batched) worker threads; at least 1.
    pub threads: usize,
    /// Intra-census worker threads; 1 = sequential census. On the batched
    /// giant-scan path these workers split a batch's lanes instead.
    pub census_threads: usize,
    /// Trial-batch lane request: 0 = scalar engine, `N >= 1` = multispin
    /// engine with `min(N, 64)` lanes per word.
    pub trial_batch: usize,
}

impl TrialExec {
    /// Fully sequential scalar execution: one thread, sequential census,
    /// batching off. The baseline every other configuration must
    /// bit-identically reproduce.
    pub fn sequential() -> Self {
        TrialExec {
            threads: 1,
            census_threads: 1,
            trial_batch: 0,
        }
    }

    /// Sets the per-trial worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the intra-census worker count (clamped to at least 1).
    #[must_use]
    pub fn with_census_threads(mut self, census_threads: usize) -> Self {
        self.census_threads = census_threads.max(1);
        self
    }

    /// Sets the trial-batch lane request (0 keeps the scalar engine).
    #[must_use]
    pub fn with_trial_batch(mut self, trial_batch: usize) -> Self {
        self.trial_batch = trial_batch;
        self
    }

    /// Whether the trial-batched engine was requested.
    pub fn batched(&self) -> bool {
        self.trial_batch > 0
    }
}

impl Default for TrialExec {
    fn default() -> Self {
        TrialExec::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_default() {
        assert_eq!(TrialExec::default(), TrialExec::sequential());
        assert_eq!(TrialExec::sequential().threads, 1);
        assert_eq!(TrialExec::sequential().census_threads, 1);
        assert!(!TrialExec::sequential().batched());
    }

    #[test]
    fn builders_clamp_threads_but_not_the_batch() {
        let exec = TrialExec::sequential()
            .with_threads(0)
            .with_census_threads(0)
            .with_trial_batch(0);
        assert_eq!(exec.threads, 1);
        assert_eq!(exec.census_threads, 1);
        // 0 is meaningful for the batch knob: it means "scalar engine".
        assert_eq!(exec.trial_batch, 0);
        assert!(TrialExec::sequential().with_trial_batch(200).batched());
    }
}
