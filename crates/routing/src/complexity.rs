//! Measuring routing complexity (Definition 2 of the paper).
//!
//! The routing complexity of an algorithm `A` with respect to `u, v` is the
//! number of probes `A` makes to find a path in `G_p`, **conditioned on the
//! event `{u ∼ v}`**. The harness in this module turns that definition into a
//! measurement procedure: sample independent percolation instances, discard
//! those where `u` and `v` are not connected (checking connectivity with the
//! un-metered bidirectional search [`connected`] — the ground truth, not a
//! router), run the router on the remaining instances, verify any returned
//! path, and record the probe counts.
//!
//! The fault process itself is pluggable: the default `measure` /
//! `measure_parallel` methods realise the paper's i.i.d. Bernoulli edge
//! faults through the lazy [`faultnet_percolation::EdgeSampler`], while the
//! `*_with_model` variants run the identical conditioned-trial procedure
//! under any [`faultnet_faultmodel::FaultModel`] (node faults, correlated
//! fault regions, adversarial cuts, …). Both paths share one trial
//! classifier, and both obey the same determinism contract: trial `t` is a
//! pure function of `config.seed() + t`, so parallel measurement merges to
//! bit-identical statistics for every model and thread count.

use faultnet_analysis::sweep::Sweep;
use faultnet_faultmodel::FaultModel;
use faultnet_percolation::bfs::connected;
use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::trial_batch::{clamp_lanes, LaneView, TrialBatch};
use faultnet_percolation::PercolationConfig;
use faultnet_topology::{Topology, VertexId};

use crate::probe::ProbeEngine;
use crate::router::{RouteError, Router};

/// Outcome classification of a single conditioned trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialResult {
    /// The router found a valid open path; the probe count is recorded.
    Routed {
        /// Probes spent in this trial.
        probes: u64,
    },
    /// The router terminated without a path even though `u ∼ v` held
    /// (possible for deliberately incomplete routers such as strict greedy
    /// or the paper-faithful paired-DFS oracle).
    GaveUp {
        /// Probes spent before giving up.
        probes: u64,
    },
    /// The router hit its probe budget.
    BudgetExhausted {
        /// The budget that was in force.
        budget: u64,
    },
    /// The router returned a path that is not a valid open `u → v` path
    /// (this indicates a bug in the router; the harness surfaces it rather
    /// than silently accepting the claim).
    InvalidPath,
}

/// Aggregated routing-complexity statistics for one router and vertex pair.
///
/// Two `ComplexityStats` compare equal iff every counter **and** the ordered
/// list of per-trial probe counts agree; this is the equality the parallel
/// harness's determinism contract is stated in (see
/// [`ComplexityHarness::measure_parallel`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexityStats {
    router: String,
    attempted: u32,
    conditioned: u32,
    probe_counts: Vec<u64>,
    gave_up: u32,
    budget_exhausted: u32,
    invalid_paths: u32,
}

impl ComplexityStats {
    fn empty(router: String, attempted: u32) -> Self {
        ComplexityStats {
            router,
            attempted,
            conditioned: 0,
            probe_counts: Vec::new(),
            gave_up: 0,
            budget_exhausted: 0,
            invalid_paths: 0,
        }
    }

    /// Folds one conditioned trial outcome into the statistics.
    fn record(&mut self, result: TrialResult) {
        self.conditioned += 1;
        match result {
            TrialResult::Routed { probes } => self.probe_counts.push(probes),
            TrialResult::GaveUp { .. } => self.gave_up += 1,
            TrialResult::BudgetExhausted { .. } => self.budget_exhausted += 1,
            TrialResult::InvalidPath => self.invalid_paths += 1,
        }
    }

    /// Name of the router that was measured.
    pub fn router(&self) -> &str {
        &self.router
    }

    /// Number of percolation instances sampled in total.
    pub fn attempted_trials(&self) -> u32 {
        self.attempted
    }

    /// Number of instances that satisfied the conditioning event `{u ∼ v}`.
    pub fn conditioned_trials(&self) -> u32 {
        self.conditioned
    }

    /// Empirical probability of the conditioning event.
    pub fn connectivity_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.conditioned as f64 / self.attempted as f64
        }
    }

    /// Probe counts of the successful (routed) trials.
    pub fn probe_counts(&self) -> &[u64] {
        &self.probe_counts
    }

    /// Number of conditioned trials in which the router found a valid path.
    pub fn successes(&self) -> u32 {
        self.probe_counts.len() as u32
    }

    /// Number of conditioned trials in which the router gave up.
    pub fn give_ups(&self) -> u32 {
        self.gave_up
    }

    /// Number of conditioned trials stopped by the probe budget.
    pub fn budget_exhaustions(&self) -> u32 {
        self.budget_exhausted
    }

    /// Number of conditioned trials in which the router returned an invalid
    /// path (always 0 unless a router is buggy).
    pub fn invalid_paths(&self) -> u32 {
        self.invalid_paths
    }

    /// Fraction of conditioned trials in which the router found a path.
    pub fn success_rate(&self) -> f64 {
        if self.conditioned == 0 {
            0.0
        } else {
            self.successes() as f64 / self.conditioned as f64
        }
    }

    /// Mean probe count over successful trials (`NaN` if there were none).
    pub fn mean_probes(&self) -> f64 {
        if self.probe_counts.is_empty() {
            f64::NAN
        } else {
            self.probe_counts.iter().sum::<u64>() as f64 / self.probe_counts.len() as f64
        }
    }

    /// Median probe count over successful trials (`None` if there were none).
    pub fn median_probes(&self) -> Option<u64> {
        if self.probe_counts.is_empty() {
            return None;
        }
        let mut sorted = self.probe_counts.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    /// Maximum probe count over successful trials.
    pub fn max_probes(&self) -> Option<u64> {
        self.probe_counts.iter().copied().max()
    }

    /// Minimum probe count over successful trials.
    pub fn min_probes(&self) -> Option<u64> {
        self.probe_counts.iter().copied().min()
    }
}

/// Measurement harness realising Definition 2 for a fixed topology, failure
/// probability, and vertex pair.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::PercolationConfig;
/// use faultnet_routing::{bfs::FloodRouter, complexity::ComplexityHarness};
/// use faultnet_topology::{hypercube::Hypercube, Topology};
///
/// let cube = Hypercube::new(8);
/// let cfg = PercolationConfig::new(0.6, 7);
/// let harness = ComplexityHarness::new(cube, cfg);
/// let (u, v) = harness.graph().canonical_pair();
/// let stats = harness.measure(&FloodRouter::new(), u, v, 10);
/// assert!(stats.success_rate() > 0.9);
/// ```
#[derive(Debug, Clone)]
pub struct ComplexityHarness<T> {
    graph: T,
    config: PercolationConfig,
    probe_budget: Option<u64>,
}

impl<T: Topology> ComplexityHarness<T> {
    /// Creates a harness for `graph` at the given percolation configuration.
    /// Trial `t` uses seed `config.seed() + t`.
    pub fn new(graph: T, config: PercolationConfig) -> Self {
        ComplexityHarness {
            graph,
            config,
            probe_budget: None,
        }
    }

    /// Caps every trial at `budget` probes; trials that exceed it are
    /// recorded as [`TrialResult::BudgetExhausted`] instead of running to
    /// completion. Essential when measuring routers in their exponential
    /// regime (Theorems 3(i) and 7).
    #[must_use]
    pub fn with_probe_budget(mut self, budget: u64) -> Self {
        self.probe_budget = Some(budget);
        self
    }

    /// The topology under measurement.
    pub fn graph(&self) -> &T {
        &self.graph
    }

    /// The percolation configuration (probability and base seed).
    pub fn config(&self) -> PercolationConfig {
        self.config
    }

    /// Classifies one conditioned trial: runs `router` against the given
    /// edge `states` and buckets the outcome. Shared by the Bernoulli fast
    /// path and the fault-model path, so the two classify identically.
    fn classify_trial<R, S>(&self, router: &R, states: &S, u: VertexId, v: VertexId) -> TrialResult
    where
        S: EdgeStates,
        R: Router<T, S>,
    {
        let span = faultnet_obs::span("routing.trial");
        let mut engine = ProbeEngine::with_locality(&self.graph, states, router.locality(), u);
        if let Some(budget) = self.probe_budget {
            engine = engine.with_budget(budget);
        }
        let result = match router.route(&mut engine, u, v) {
            Ok(outcome) => match outcome.path {
                Some(path) => {
                    if path.connects(u, v) && path.is_valid_open_path(&self.graph, states) {
                        TrialResult::Routed {
                            probes: outcome.probes,
                        }
                    } else {
                        TrialResult::InvalidPath
                    }
                }
                None => TrialResult::GaveUp {
                    probes: outcome.probes,
                },
            },
            Err(RouteError::Probe(crate::probe::ProbeError::BudgetExhausted { budget })) => {
                TrialResult::BudgetExhausted { budget }
            }
            Err(other) => panic!("router {} failed: {other}", router.name()),
        };
        drop(span);
        faultnet_obs::count("routing.trials.conditioned", 1);
        match &result {
            TrialResult::Routed { probes } => {
                faultnet_obs::count("routing.trials.routed", 1);
                faultnet_obs::record("routing.probes_per_trial", *probes);
            }
            TrialResult::GaveUp { .. } => faultnet_obs::count("routing.trials.gave_up", 1),
            TrialResult::BudgetExhausted { .. } => {
                faultnet_obs::count("routing.trials.budget_exhausted", 1)
            }
            TrialResult::InvalidPath => faultnet_obs::count("routing.trials.invalid_path", 1),
        }
        result
    }

    /// Runs a single conditioned trial with the given seed, or `None` if the
    /// conditioning event `{u ∼ v}` fails in that instance.
    pub fn run_trial<R>(
        &self,
        router: &R,
        u: VertexId,
        v: VertexId,
        seed: u64,
    ) -> Option<TrialResult>
    where
        R: Router<T, faultnet_percolation::EdgeSampler>,
    {
        let cfg = self.config.with_seed(seed);
        let sampler = cfg.sampler();
        if !connected(&self.graph, &sampler, u, v) {
            faultnet_obs::count("routing.trials.rejected", 1);
            return None;
        }
        Some(self.classify_trial(router, &sampler, u, v))
    }

    /// Like [`ComplexityHarness::run_trial`], but draws the instance from an
    /// arbitrary [`FaultModel`] instead of the Bernoulli edge sampler. The
    /// routed pair is forwarded to the model so pair-targeting models (the
    /// adversary) aim at the measured flow.
    pub fn run_trial_with_model<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        seed: u64,
    ) -> Option<TrialResult>
    where
        M: FaultModel + ?Sized,
        R: Router<T, faultnet_faultmodel::FaultInstance>,
    {
        let cfg = self.config.with_seed(seed);
        let instance = model.instance(&self.graph, cfg, Some((u, v)));
        if !connected(&self.graph, &instance, u, v) {
            faultnet_obs::count("routing.trials.rejected", 1);
            return None;
        }
        Some(self.classify_trial(router, &instance, u, v))
    }

    /// One conditioned trial drawing its instance from a hoisted
    /// [`PairPlacement`] (see [`FaultModel::pair_placement`]) instead of
    /// asking the model from scratch. Shared by the sequential and parallel
    /// model measurements so both amortise identically.
    fn run_trial_with_placement<M, R>(
        &self,
        model: &M,
        placement: &faultnet_faultmodel::PairPlacement,
        router: &R,
        u: VertexId,
        v: VertexId,
        seed: u64,
    ) -> Option<TrialResult>
    where
        M: FaultModel + ?Sized,
        R: Router<T, faultnet_faultmodel::FaultInstance>,
    {
        let cfg = self.config.with_seed(seed);
        let instance = model.instance_from_placement(placement, &self.graph, cfg, (u, v));
        if !connected(&self.graph, &instance, u, v) {
            faultnet_obs::count("routing.trials.rejected", 1);
            return None;
        }
        Some(self.classify_trial(router, &instance, u, v))
    }

    /// Measures `router` between `u` and `v` over `trials` independent
    /// percolation instances, conditioning on `{u ∼ v}`.
    ///
    /// # Panics
    ///
    /// Panics if the router reports an error other than budget exhaustion
    /// (locality violations and unsupported-topology errors indicate misuse
    /// and should fail loudly in experiments).
    pub fn measure<R>(&self, router: &R, u: VertexId, v: VertexId, trials: u32) -> ComplexityStats
    where
        R: Router<T, faultnet_percolation::EdgeSampler>,
    {
        let mut stats = ComplexityStats::empty(router.name(), trials);
        for t in 0..trials {
            let seed = self.config.seed().wrapping_add(t as u64);
            if let Some(result) = self.run_trial(router, u, v, seed) {
                stats.record(result);
            }
        }
        stats
    }

    /// Like [`ComplexityHarness::measure`], but fans the conditioned trials
    /// out across up to `threads` worker threads.
    ///
    /// Trials are independent by construction — trial `t` is a pure function
    /// of seed `config.seed() + t` — so the trial indices are fanned across
    /// scoped workers through [`Sweep::run_parallel`] (the workspace's one
    /// work-queue primitive), which preserves parameter order. The per-trial
    /// outcomes are then folded **in trial order**, which makes the result
    /// *bit-identical* to the sequential path: for every router, seed, and
    /// thread count, `measure_parallel(r, u, v, n, k) == measure(r, u, v, n)`
    /// (the property tests assert this equality across seeds and thread
    /// counts). Experiment tables therefore do not change when the
    /// `--threads` knob does.
    ///
    /// `threads == 1` runs the sequential path directly.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, if a worker panics, or if the router reports
    /// an error other than budget exhaustion (as in
    /// [`ComplexityHarness::measure`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use faultnet_percolation::PercolationConfig;
    /// use faultnet_routing::{bfs::FloodRouter, complexity::ComplexityHarness};
    /// use faultnet_topology::{hypercube::Hypercube, Topology};
    ///
    /// let harness = ComplexityHarness::new(Hypercube::new(7), PercolationConfig::new(0.6, 3));
    /// let (u, v) = harness.graph().canonical_pair();
    /// let sequential = harness.measure(&FloodRouter::new(), u, v, 12);
    /// let parallel = harness.measure_parallel(&FloodRouter::new(), u, v, 12, 4);
    /// assert_eq!(sequential, parallel);
    /// ```
    pub fn measure_parallel<R>(
        &self,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
        threads: usize,
    ) -> ComplexityStats
    where
        T: Sync,
        R: Router<T, faultnet_percolation::EdgeSampler> + Sync,
    {
        assert!(threads > 0, "at least one thread is required");
        let threads = threads.min(trials.max(1) as usize);
        if threads == 1 {
            return self.measure(router, u, v, trials);
        }
        let per_trial = Sweep::over(0..trials).run_parallel(threads, |&t| {
            let seed = self.config.seed().wrapping_add(t as u64);
            self.run_trial(router, u, v, seed)
        });
        let mut stats = ComplexityStats::empty(router.name(), trials);
        for point in per_trial {
            if let Some(result) = point.value {
                stats.record(result);
            }
        }
        stats
    }

    /// Like [`ComplexityHarness::measure`], but samples each trial's
    /// instance from an arbitrary [`FaultModel`] instead of the Bernoulli
    /// edge sampler — the conditioning, verification, and bucketing are
    /// identical.
    ///
    /// Measuring `BernoulliEdges` through this method reproduces
    /// [`ComplexityHarness::measure`] exactly (the model delegates to the
    /// same pure `(seed, edge)` function; the tests assert equality).
    /// The seed-independent part of the model's placement (the adversary's
    /// greedy cut set) is computed **once** per measurement through
    /// [`FaultModel::pair_placement`] and reused across all `trials` — by
    /// the placement contract this changes nothing but wall-clock time (a
    /// regression test asserts byte-identity against the uncached per-trial
    /// path).
    pub fn measure_with_model<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
    ) -> ComplexityStats
    where
        M: FaultModel + ?Sized,
        R: Router<T, faultnet_faultmodel::FaultInstance>,
    {
        let placement = model.pair_placement(&self.graph, (u, v));
        let mut stats = ComplexityStats::empty(router.name(), trials);
        for t in 0..trials {
            let seed = self.config.seed().wrapping_add(t as u64);
            if let Some(result) =
                self.run_trial_with_placement(model, &placement, router, u, v, seed)
            {
                stats.record(result);
            }
        }
        stats
    }

    /// Like [`ComplexityHarness::measure_parallel`], but under an arbitrary
    /// [`FaultModel`].
    ///
    /// The determinism contract carries over model-independently: a model's
    /// instance is a pure function of `(model, graph, seed, pair)` (the
    /// [`FaultModel`] contract), trial outcomes are folded in trial order,
    /// so for every model, router, seed, and thread count
    /// `measure_parallel_with_model(m, r, u, v, n, k) ==
    /// measure_with_model(m, r, u, v, n)` — bit for bit.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ComplexityHarness::measure_parallel`].
    pub fn measure_parallel_with_model<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
        threads: usize,
    ) -> ComplexityStats
    where
        T: Sync,
        M: FaultModel + Sync + ?Sized,
        R: Router<T, faultnet_faultmodel::FaultInstance> + Sync,
    {
        assert!(threads > 0, "at least one thread is required");
        let threads = threads.min(trials.max(1) as usize);
        if threads == 1 {
            return self.measure_with_model(model, router, u, v, trials);
        }
        // Hoist the seed-independent placement once, shared by all workers.
        let placement = model.pair_placement(&self.graph, (u, v));
        let per_trial = Sweep::over(0..trials).run_parallel(threads, |&t| {
            let seed = self.config.seed().wrapping_add(t as u64);
            self.run_trial_with_placement(model, &placement, router, u, v, seed)
        });
        let mut stats = ComplexityStats::empty(router.name(), trials);
        for point in per_trial {
            if let Some(result) = point.value {
                stats.record(result);
            }
        }
        stats
    }

    /// Like [`ComplexityHarness::measure_parallel`], but runs the trials
    /// through the trial-batched (multispin) engine: chunks of up to
    /// `min(trial_batch, 64)` consecutive trials share one
    /// [`TrialBatch`], the Definition 2 conditioning event `{u ∼ v}` is
    /// decided for the whole chunk by one bit-parallel BFS
    /// ([`TrialBatch::connected_lanes`]), and each conditioned lane is
    /// routed over its single-bit-read [`LaneView`]. Chunks fan out across
    /// `threads` workers, so batching multiplies with the trial fan-out
    /// instead of competing with it.
    ///
    /// The statistics are **bit-identical** to [`ComplexityHarness::measure`]
    /// for every `trial_batch` and `threads` value: lane `l` of the chunk
    /// starting at trial `t0` reads exactly the edge states of the scalar
    /// trial with seed `config.seed() + t0 + l` (the transpose is a
    /// relayout, not a resample), the batched conditioning computes per lane
    /// the same connectivity event as the scalar BFS/census, and outcomes
    /// are folded in trial order. The `trial_equivalence` suites pin this
    /// across routers, seeds, thread counts, and batch sizes. Topologies
    /// without a closed-form edge index fall back to the scalar engine
    /// outright.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `trial_batch == 0` (`0` is the CLI's
    /// "batching off" sentinel and must not reach the engine), or under the
    /// same router-error conditions as [`ComplexityHarness::measure`].
    pub fn measure_batched<R>(
        &self,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
        trial_batch: usize,
        threads: usize,
    ) -> ComplexityStats
    where
        T: Sync,
        R: Router<T, faultnet_percolation::EdgeSampler>
            + for<'b, 'g> Router<T, LaneView<'b, 'g, T>>
            + Sync,
    {
        assert!(threads > 0, "at least one thread is required");
        assert!(
            trial_batch > 0,
            "trial_batch 0 means 'off'; use measure/measure_parallel"
        );
        if !TrialBatch::supported(&self.graph) {
            return self.measure_parallel(router, u, v, trials, threads);
        }
        let name = Router::<T, faultnet_percolation::EdgeSampler>::name(router);
        let lanes_per_chunk = clamp_lanes(trial_batch);
        let starts: Vec<u32> = (0..trials).step_by(lanes_per_chunk).collect();
        let run_chunk = |t0: u32| -> Vec<Option<TrialResult>> {
            let lanes = lanes_per_chunk.min((trials - t0) as usize);
            let cfg = self
                .config
                .with_seed(self.config.seed().wrapping_add(t0 as u64));
            let batch = TrialBatch::from_config(&self.graph, &cfg, lanes);
            let conditioned = batch.connected_lanes(u, v);
            (0..lanes)
                .map(|l| {
                    if conditioned >> l & 1 == 1 {
                        Some(self.classify_trial(router, &batch.lane_view(l), u, v))
                    } else {
                        faultnet_obs::count("routing.trials.rejected", 1);
                        None
                    }
                })
                .collect()
        };
        let threads = threads.min(starts.len().max(1));
        let per_chunk: Vec<Vec<Option<TrialResult>>> = if threads <= 1 {
            starts.iter().map(|&t0| run_chunk(t0)).collect()
        } else {
            Sweep::over(starts)
                .run_parallel(threads, |&t0| run_chunk(t0))
                .into_iter()
                .map(|point| point.value)
                .collect()
        };
        let mut stats = ComplexityStats::empty(name, trials);
        for result in per_chunk.into_iter().flatten().flatten() {
            stats.record(result);
        }
        stats
    }

    /// Like [`ComplexityHarness::measure_batched`], but under an arbitrary
    /// [`FaultModel`]: the hoisted placement builds one [`FaultInstance`]
    /// per lane (seed `config.seed() + t0 + l`, exactly the scalar trial's
    /// seed), and [`TrialBatch::from_lane_states`] transposes the chunk —
    /// node-mask and severed-edge overlays densify per lane like any other
    /// `EdgeStates` producer, so they compose identically on the batched
    /// substrate (property-tested).
    ///
    /// Models with [`FaultModel::lane_batchable`]` == false` (the
    /// adversary) fall back to
    /// [`ComplexityHarness::measure_parallel_with_model`], announced once
    /// per process via [`faultnet_faultmodel::warn_scalar_fallback`]; the
    /// results are bit-identical either way.
    ///
    /// [`FaultInstance`]: faultnet_faultmodel::FaultInstance
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ComplexityHarness::measure_batched`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_batched_with_model<M, R>(
        &self,
        model: &M,
        router: &R,
        u: VertexId,
        v: VertexId,
        trials: u32,
        trial_batch: usize,
        threads: usize,
    ) -> ComplexityStats
    where
        T: Sync,
        M: FaultModel + Sync + ?Sized,
        R: Router<T, faultnet_faultmodel::FaultInstance>
            + for<'b, 'g> Router<T, LaneView<'b, 'g, T>>
            + Sync,
    {
        assert!(threads > 0, "at least one thread is required");
        assert!(
            trial_batch > 0,
            "trial_batch 0 means 'off'; use measure/measure_parallel"
        );
        if !model.lane_batchable() {
            faultnet_faultmodel::warn_scalar_fallback(&model.name());
            return self.measure_parallel_with_model(model, router, u, v, trials, threads);
        }
        if !TrialBatch::supported(&self.graph) {
            return self.measure_parallel_with_model(model, router, u, v, trials, threads);
        }
        let name = Router::<T, faultnet_faultmodel::FaultInstance>::name(router);
        let placement = model.pair_placement(&self.graph, (u, v));
        let lanes_per_chunk = clamp_lanes(trial_batch);
        let starts: Vec<u32> = (0..trials).step_by(lanes_per_chunk).collect();
        let run_chunk = |t0: u32| -> Vec<Option<TrialResult>> {
            let lanes = lanes_per_chunk.min((trials - t0) as usize);
            let instances: Vec<faultnet_faultmodel::FaultInstance> = (0..lanes)
                .map(|l| {
                    let seed = self
                        .config
                        .seed()
                        .wrapping_add(t0 as u64)
                        .wrapping_add(l as u64);
                    model.instance_from_placement(
                        &placement,
                        &self.graph,
                        self.config.with_seed(seed),
                        (u, v),
                    )
                })
                .collect();
            let batch = TrialBatch::from_lane_states(&self.graph, &instances);
            let conditioned = batch.connected_lanes(u, v);
            (0..lanes)
                .map(|l| {
                    if conditioned >> l & 1 == 1 {
                        Some(self.classify_trial(router, &batch.lane_view(l), u, v))
                    } else {
                        faultnet_obs::count("routing.trials.rejected", 1);
                        None
                    }
                })
                .collect()
        };
        let threads = threads.min(starts.len().max(1));
        let per_chunk: Vec<Vec<Option<TrialResult>>> = if threads <= 1 {
            starts.iter().map(|&t0| run_chunk(t0)).collect()
        } else {
            Sweep::over(starts)
                .run_parallel(threads, |&t0| run_chunk(t0))
                .into_iter()
                .map(|point| point.value)
                .collect()
        };
        let mut stats = ComplexityStats::empty(name, trials);
        for result in per_chunk.into_iter().flatten().flatten() {
            stats.record(result);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::FloodRouter;
    use crate::gnp::{BidirectionalGrowthRouter, IncrementalLocalRouter};
    use crate::hypercube::GreedyHypercubeRouter;
    use faultnet_topology::complete::CompleteGraph;
    use faultnet_topology::hypercube::Hypercube;

    #[test]
    fn flood_router_never_fails_under_conditioning() {
        let cube = Hypercube::new(8);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.4, 11));
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure(&FloodRouter::new(), u, v, 20);
        assert_eq!(stats.attempted_trials(), 20);
        assert!(stats.conditioned_trials() > 0);
        assert_eq!(stats.successes(), stats.conditioned_trials());
        assert_eq!(stats.give_ups(), 0);
        assert_eq!(stats.invalid_paths(), 0);
        assert_eq!(stats.success_rate(), 1.0);
        assert!(stats.mean_probes() > 0.0);
        assert!(stats.median_probes().unwrap() <= stats.max_probes().unwrap());
        assert!(stats.min_probes().unwrap() <= stats.median_probes().unwrap());
        assert_eq!(stats.router(), "flood-bfs");
    }

    #[test]
    fn incomplete_router_records_give_ups() {
        // Strict greedy strands regularly at p = 0.4 on the 9-cube.
        let cube = Hypercube::new(9);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.4, 3));
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure(&GreedyHypercubeRouter::strict(), u, v, 30);
        assert_eq!(
            stats.successes() + stats.give_ups(),
            stats.conditioned_trials()
        );
        assert!(stats.give_ups() > 0, "expected greedy to strand at p = 0.4");
        assert!(stats.success_rate() < 1.0);
    }

    #[test]
    fn budget_exhaustion_is_recorded() {
        let cube = Hypercube::new(8);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5)).with_probe_budget(3);
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure(&FloodRouter::new(), u, v, 10);
        assert!(stats.budget_exhaustions() > 0);
        assert_eq!(stats.successes(), 0);
    }

    #[test]
    fn connectivity_rate_reflects_percolation() {
        let cube = Hypercube::new(8);
        let harness_high = ComplexityHarness::new(cube, PercolationConfig::new(0.9, 1));
        let harness_low = ComplexityHarness::new(cube, PercolationConfig::new(0.05, 1));
        let (u, v) = cube.canonical_pair();
        let high = harness_high.measure(&FloodRouter::new(), u, v, 20);
        let low = harness_low.measure(&FloodRouter::new(), u, v, 20);
        assert!(high.connectivity_rate() > low.connectivity_rate());
        assert_eq!(low.conditioned_trials(), 0);
        assert_eq!(low.success_rate(), 0.0);
        assert!(low.mean_probes().is_nan());
        assert!(low.median_probes().is_none());
    }

    #[test]
    fn parallel_measure_is_bit_identical_to_sequential() {
        let cube = Hypercube::new(8);
        for seed in [1u64, 7, 42] {
            let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.45, seed));
            let (u, v) = cube.canonical_pair();
            let sequential = harness.measure(&FloodRouter::new(), u, v, 16);
            for threads in [1usize, 2, 3, 8, 32] {
                let parallel = harness.measure_parallel(&FloodRouter::new(), u, v, 16, threads);
                assert_eq!(sequential, parallel, "seed {seed}, threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_measure_preserves_budget_classification() {
        let cube = Hypercube::new(8);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5)).with_probe_budget(3);
        let (u, v) = cube.canonical_pair();
        let sequential = harness.measure(&FloodRouter::new(), u, v, 10);
        let parallel = harness.measure_parallel(&FloodRouter::new(), u, v, 10, 4);
        assert_eq!(sequential, parallel);
        assert!(parallel.budget_exhaustions() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let _ = harness.measure_parallel(&FloodRouter::new(), u, v, 4, 0);
    }

    #[test]
    fn parallel_measure_with_zero_trials() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure_parallel(&FloodRouter::new(), u, v, 0, 4);
        assert_eq!(stats.attempted_trials(), 0);
        assert_eq!(stats.conditioned_trials(), 0);
    }

    #[test]
    fn bernoulli_edges_model_reproduces_the_legacy_measurement_exactly() {
        use faultnet_faultmodel::BernoulliEdges;
        // The paper's model through the FaultModel path must be
        // indistinguishable from the pre-fault-model harness: same
        // conditioning decisions, same probe counts, same buckets.
        let cube = Hypercube::new(8);
        for (p, seed) in [(0.4, 11u64), (0.55, 3), (0.9, 42)] {
            let harness = ComplexityHarness::new(cube, PercolationConfig::new(p, seed));
            let (u, v) = cube.canonical_pair();
            let legacy = harness.measure(&FloodRouter::new(), u, v, 16);
            let through_model =
                harness.measure_with_model(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 16);
            assert_eq!(legacy, through_model, "p = {p}, seed = {seed}");
        }
    }

    #[test]
    fn every_fault_model_measures_bit_identically_across_thread_counts() {
        use faultnet_faultmodel::FaultModelSpec;
        // The acceptance criterion of the fault-model subsystem: for every
        // model, the parallel merge is bit-identical to the sequential fold.
        let cube = Hypercube::new(7);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.7, 5));
        let (u, v) = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let sequential = harness.measure_with_model(&model, &FloodRouter::new(), u, v, 12);
            assert!(
                sequential.conditioned_trials() > 0,
                "{spec}: no conditioned trials — the determinism check would be vacuous"
            );
            for threads in [1usize, 2, 4] {
                let parallel = harness.measure_parallel_with_model(
                    &model,
                    &FloodRouter::new(),
                    u,
                    v,
                    12,
                    threads,
                );
                assert_eq!(sequential, parallel, "{spec} diverged at threads {threads}");
            }
        }
    }

    #[test]
    fn node_faults_lower_connectivity_below_edge_faults() {
        use faultnet_faultmodel::{BernoulliEdges, BernoulliNodes};
        // At equal p, node faults are strictly harsher than edge faults on
        // the conditioning event: the routed pair itself must survive.
        let cube = Hypercube::new(8);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.8, 9));
        let (u, v) = cube.canonical_pair();
        let edges =
            harness.measure_with_model(&BernoulliEdges::new(), &FloodRouter::new(), u, v, 30);
        let nodes =
            harness.measure_with_model(&BernoulliNodes::new(), &FloodRouter::new(), u, v, 30);
        assert!(
            nodes.connectivity_rate() < edges.connectivity_rate(),
            "nodes {} vs edges {}",
            nodes.connectivity_rate(),
            edges.connectivity_rate()
        );
        // Flood routing stays complete under conditioning for every model.
        assert_eq!(nodes.successes(), nodes.conditioned_trials());
    }

    #[test]
    fn adversary_with_full_degree_budget_defeats_conditioning() {
        use faultnet_faultmodel::AdversarialBudget;
        let cube = Hypercube::new(6);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(1.0, 2));
        let (u, v) = cube.canonical_pair();
        // Budget = deg(u): the adversary isolates the source even with no
        // random faults at all, so no trial ever satisfies {u ∼ v}.
        let stats =
            harness.measure_with_model(&AdversarialBudget::new(6), &FloodRouter::new(), u, v, 8);
        assert_eq!(stats.conditioned_trials(), 0);
        // One cut short of the degree leaves the pair routable at p = 1:
        // every trial conditions and floods its way around the cuts.
        let stats =
            harness.measure_with_model(&AdversarialBudget::new(5), &FloodRouter::new(), u, v, 8);
        assert_eq!(stats.successes(), 8);
        assert_eq!(stats.connectivity_rate(), 1.0);
    }

    #[test]
    fn census_conditioning_is_bit_identical_to_bfs_conditioning() {
        // The harness conditions on {u ∼ v} with the bidirectional
        // `connected`; the component census (sequential or parallel)
        // decides the same event through `same_component`. The two must
        // agree on every instance — the Bernoulli sampler and every fault
        // model — and for pairs beyond the canonical one.
        use faultnet_faultmodel::FaultModelSpec;
        use faultnet_percolation::components::ComponentCensus;
        fn agree<S: EdgeStates + Sync>(
            cube: &Hypercube,
            states: &S,
            pairs: &[(VertexId, VertexId)],
            outcomes: &mut [u32; 2],
            label: &str,
        ) {
            let census = ComponentCensus::compute(cube, states);
            let parallel = ComponentCensus::compute_parallel(cube, states, 4);
            for &(a, b) in pairs {
                let expected = census.same_component(a, b);
                assert_eq!(parallel.same_component(a, b), expected, "{label}");
                assert_eq!(
                    connected(cube, states, a, b),
                    expected,
                    "{label} ({a}, {b})"
                );
                outcomes[usize::from(expected)] += 1;
            }
        }
        let cube = Hypercube::new(8);
        let cfg = PercolationConfig::new(0.45, 9);
        let (u, v) = cube.canonical_pair();
        let pairs = [
            (u, v),
            (VertexId(3), VertexId(200)),
            (VertexId(17), VertexId(17)),
        ];
        let mut outcomes = [0u32; 2];
        for t in 0..14 {
            let sampler = cfg.with_seed(9 + t).sampler();
            agree(&cube, &sampler, &pairs, &mut outcomes, "bernoulli");
        }
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            for t in 0..10 {
                let instance = model.instance(&cube, cfg.with_seed(9 + t), Some((u, v)));
                agree(&cube, &instance, &pairs, &mut outcomes, &spec.to_string());
            }
        }
        assert!(
            outcomes[0] > 0 && outcomes[1] > 0,
            "vacuous check: {outcomes:?}"
        );
    }

    #[test]
    fn cached_adversary_placement_is_byte_identical_to_per_trial_recomputation() {
        // measure_with_model hoists the adversary's greedy placement once
        // per measurement; the uncached path recomputes it inside every
        // run_trial_with_model call. The two must agree byte for byte.
        use faultnet_faultmodel::AdversarialBudget;
        let cube = Hypercube::new(7);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.75, 13));
        let (u, v) = cube.canonical_pair();
        let model = AdversarialBudget::new(3);
        let trials = 12;
        let cached = harness.measure_with_model(&model, &FloodRouter::new(), u, v, trials);
        let router = FloodRouter::new();
        let mut uncached = ComplexityStats::empty(
            Router::<Hypercube, faultnet_faultmodel::FaultInstance>::name(&router),
            trials,
        );
        for t in 0..trials {
            let seed = harness.config().seed().wrapping_add(t as u64);
            if let Some(result) =
                harness.run_trial_with_model(&model, &FloodRouter::new(), u, v, seed)
            {
                uncached.record(result);
            }
        }
        assert_eq!(cached, uncached);
        assert!(cached.conditioned_trials() > 0, "vacuous comparison");
        // And the parallel path shares the same hoisted placement.
        let parallel =
            harness.measure_parallel_with_model(&model, &FloodRouter::new(), u, v, trials, 3);
        assert_eq!(cached, parallel);
    }

    #[test]
    fn batched_measure_is_bit_identical_to_sequential() {
        // The zoo-wide version lives in tests/trial_equivalence.rs; this
        // unit test pins the contract on one family, including the ragged
        // tail (14 % 4 != 0) and single-lane batches.
        let cube = Hypercube::new(8);
        for seed in [1u64, 42] {
            let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.45, seed));
            let (u, v) = cube.canonical_pair();
            let scalar = harness.measure(&FloodRouter::new(), u, v, 14);
            assert!(scalar.conditioned_trials() > 0, "vacuous check");
            for trial_batch in [1usize, 4, 64, 200] {
                for threads in [1usize, 3] {
                    let batched = harness.measure_batched(
                        &FloodRouter::new(),
                        u,
                        v,
                        14,
                        trial_batch,
                        threads,
                    );
                    assert_eq!(
                        scalar, batched,
                        "seed {seed}, trial_batch {trial_batch}, threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_measure_preserves_budget_classification() {
        let cube = Hypercube::new(8);
        let harness =
            ComplexityHarness::new(cube, PercolationConfig::new(0.5, 5)).with_probe_budget(3);
        let (u, v) = cube.canonical_pair();
        let scalar = harness.measure(&FloodRouter::new(), u, v, 10);
        let batched = harness.measure_batched(&FloodRouter::new(), u, v, 10, 64, 2);
        assert_eq!(scalar, batched);
        assert!(batched.budget_exhaustions() > 0);
    }

    #[test]
    fn batched_measure_with_zero_trials_is_empty() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let stats = harness.measure_batched(&FloodRouter::new(), u, v, 0, 64, 4);
        assert_eq!(stats.attempted_trials(), 0);
        assert_eq!(stats.conditioned_trials(), 0);
    }

    #[test]
    #[should_panic(expected = "trial_batch 0")]
    fn batched_measure_rejects_zero_batch() {
        let cube = Hypercube::new(4);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.5, 1));
        let (u, v) = cube.canonical_pair();
        let _ = harness.measure_batched(&FloodRouter::new(), u, v, 4, 0, 1);
    }

    #[test]
    fn every_fault_model_measures_bit_identically_batched() {
        // Benign models ride the multispin store; the adversary declares
        // itself non-batchable and falls back to the scalar engine. Either
        // way the statistics must not move by a bit.
        use faultnet_faultmodel::FaultModelSpec;
        let cube = Hypercube::new(7);
        let harness = ComplexityHarness::new(cube, PercolationConfig::new(0.7, 5));
        let (u, v) = cube.canonical_pair();
        for spec in FaultModelSpec::ALL {
            let model = spec.build();
            let scalar = harness.measure_with_model(&model, &FloodRouter::new(), u, v, 12);
            assert!(scalar.conditioned_trials() > 0, "{spec}: vacuous check");
            for trial_batch in [1usize, 5, 64] {
                let batched = harness.measure_batched_with_model(
                    &model,
                    &FloodRouter::new(),
                    u,
                    v,
                    12,
                    trial_batch,
                    2,
                );
                assert_eq!(
                    scalar, batched,
                    "{spec} diverged at trial_batch {trial_batch}"
                );
            }
        }
    }

    #[test]
    fn gnp_routers_measured_through_the_harness() {
        let k = CompleteGraph::new(80);
        let p = 2.5 / 80.0;
        let harness = ComplexityHarness::new(k, PercolationConfig::new(p, 17));
        let (u, v) = k.canonical_pair();
        let local = harness.measure(&IncrementalLocalRouter::new(), u, v, 15);
        let oracle = harness.measure(&BidirectionalGrowthRouter::new(), u, v, 15);
        assert_eq!(local.success_rate(), 1.0);
        assert_eq!(oracle.success_rate(), 1.0);
        assert!(oracle.mean_probes() < local.mean_probes());
    }
}
