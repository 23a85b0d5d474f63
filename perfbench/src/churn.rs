//! `churn`: E12 runs on `H_16` through `ChurnExperiment`'s public fields,
//! in two regimes — uniform 4%/6% fail/repair churn (many events per step,
//! deep rewinds and rebuild fallbacks) and low-rate churn over more steps
//! (few events per step).
//!
//! This workload writes to the census (unions, rewinds, replays) where
//! `giant_scan` only reads it.

use faultnet_analysis::table::fmt_float;
use faultnet_experiments::churn::ChurnExperiment;
use faultnet_faultmodel::dynamic::{Churned, DynamicFaultModel};
use faultnet_faultmodel::{FaultModel, FaultModelSpec};
use faultnet_percolation::dynamic::IncrementalCensus;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::Topology;

use crate::stats::splitmix;
use crate::trace::{Layer, Tracer};
use crate::{Counters, PassOutput, Workload};

/// Hypercube dimension churned.
const DIMENSION: u32 = 16;
/// Side of the small mesh every E12 run also churns.
const MESH_SIDE: u64 = 8;

/// One churn regime: rates chosen so `repair / (fail + repair) = p`.
struct Regime {
    name: &'static str,
    fail_rate: f64,
    repair_rate: f64,
    timesteps: usize,
}

const REGIMES: [Regime; 2] = [
    Regime {
        name: "uniform",
        fail_rate: 0.04,
        repair_rate: 0.06,
        timesteps: 4,
    },
    Regime {
        name: "low-rate",
        fail_rate: 0.001,
        repair_rate: 0.0015,
        timesteps: 10,
    },
];
/// Initial retention probability (the stationary open fraction).
const P: f64 = 0.6;
/// Per-edge failure-rate spread.
const HETEROGENEITY: f64 = 0.5;
/// Experiment runs per regime and pass, each one trial at its own seed.
const RUNS_PER_REGIME: u64 = 1;

/// The workload's state after set-up.
pub struct Churn {
    cube: Hypercube,
    mesh: Mesh,
    experiments: Vec<ChurnExperiment>,
}

impl Churn {
    /// Builds the graphs (inside `topology.build` spans) and configures
    /// one `ChurnExperiment` per regime and run.
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let cube = tracer.span("topology.build", Layer::Topology, || {
            Hypercube::new(DIMENSION)
        });
        let mesh = tracer.span("topology.build", Layer::Topology, || {
            Mesh::new(2, MESH_SIDE)
        });
        let mut experiments = Vec::new();
        for (r, regime) in REGIMES.iter().enumerate() {
            for run in 0..RUNS_PER_REGIME {
                experiments.push(ChurnExperiment {
                    cube_dimensions: vec![DIMENSION],
                    mesh_side: MESH_SIDE,
                    p: P,
                    fail_rate: regime.fail_rate,
                    repair_rate: regime.repair_rate,
                    heterogeneity: HETEROGENEITY,
                    timesteps: regime.timesteps,
                    trials: 1,
                    base_seed: splitmix(seed, r as u64 * 100 + run),
                    model: FaultModelSpec::BernoulliEdges,
                    threads: 1,
                    census_threads: 1,
                    rescan: false,
                });
            }
        }
        // Warm up with the first run's initial census on the cube.
        let first = &experiments[0];
        let model = first.model.build();
        let config = PercolationConfig::new(first.p, first.base_seed.wrapping_sub(1));
        let initial = tracer.span("faultmodel.instance", Layer::FaultModel, || {
            model.instance(&cube, config, None)
        });
        tracer.span("percolation.churn_init", Layer::Percolation, || {
            std::hint::black_box(IncrementalCensus::new(&cube, &initial));
        });
        Churn {
            cube,
            mesh,
            experiments,
        }
    }
}

/// One family's per-timestep table rows, rebuilt from layer calls the way
/// `ChurnExperiment` folds them: initial instance and schedule
/// (faultmodel), incremental census creation and steps (percolation).
fn traced_family(
    experiment: &ChurnExperiment,
    graph: &dyn Topology,
    family: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Vec<String> {
    let base = experiment.model.build();
    let dynamic = Churned::new(&base, experiment.fail_rate, experiment.repair_rate)
        .with_heterogeneity(experiment.heterogeneity);
    let pair = graph.canonical_pair();
    let steps = experiment.timesteps;
    let mut events_total = vec![0usize; steps + 1];
    let mut giant_total = vec![0.0f64; steps + 1];
    let mut routable = vec![0u32; steps + 1];
    for t in 0..experiment.trials {
        let seed = experiment
            .base_seed
            .wrapping_add(family << 32)
            .wrapping_add(u64::from(t));
        let config = PercolationConfig::new(experiment.p, seed);
        let initial = tracer.span("faultmodel.instance", Layer::FaultModel, || {
            dynamic.initial(graph, config, Some(pair))
        });
        counters.add("faultmodel.instances", 1.0);
        let schedule = tracer.span("faultmodel.schedule", Layer::FaultModel, || {
            dynamic.schedule(graph, config, Some(pair), &initial, steps)
        });
        let mut census = tracer.span("percolation.churn_init", Layer::Percolation, || {
            IncrementalCensus::new(graph, &initial)
        });
        giant_total[0] += census.giant_fraction();
        routable[0] += u32::from(census.same_component(pair.0, pair.1));
        for step in 0..steps {
            let events = schedule.timestep(step);
            let stats = tracer.span("percolation.churn_step", Layer::Percolation, || {
                census.step(events)
            });
            counters.add("percolation.churn_steps", 1.0);
            counters.add("percolation.churn_events", events.len() as f64);
            counters.add("percolation.churn_replayed", stats.replayed as f64);
            counters.add(
                "percolation.churn_rebuilds",
                f64::from(u8::from(stats.rebuilt)),
            );
            events_total[step + 1] += events.len();
            giant_total[step + 1] += census.giant_fraction();
            routable[step + 1] += u32::from(census.same_component(pair.0, pair.1));
        }
    }
    let trials = f64::from(experiment.trials);
    (0..=steps)
        .map(|t| {
            format!(
                "{t} | {} | {} | {}\n",
                fmt_float(events_total[t] as f64 / trials),
                fmt_float(giant_total[t] / trials),
                fmt_float(f64::from(routable[t]) / trials)
            )
        })
        .collect()
}

impl Workload for Churn {
    fn untraced_pass(&mut self, _pass: usize, latencies_us: &mut Vec<f64>) -> PassOutput {
        let mut canonical = String::new();
        let mut rendered = String::new();
        // One latency sample per pass: the two regimes are different
        // operations, and a median over both would fall on the seam
        // between them.
        let started = std::time::Instant::now();
        for experiment in &self.experiments {
            let report = experiment.run();
            for table in report.tables() {
                for row in table.rows() {
                    canonical.push_str(&row.join(" | "));
                    canonical.push('\n');
                }
            }
            rendered.push_str(&report.render());
        }
        latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
        PassOutput {
            canonical,
            rendered,
            // Exact event counts come from the layer pipeline's schedules.
            work: 0,
            attempted: self.experiments.len() as u64,
            failed: 0,
        }
    }

    fn traced_pass(
        &mut self,
        _pass: usize,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> PassOutput {
        let events_before = counters.get("percolation.churn_events");
        let mut canonical = String::new();
        for experiment in &self.experiments {
            let families: [&dyn Topology; 2] = [&self.cube, &self.mesh];
            for (family, graph) in families.into_iter().enumerate() {
                for row in traced_family(experiment, graph, family as u64, tracer, counters) {
                    canonical.push_str(&row);
                }
            }
        }
        PassOutput {
            canonical,
            rendered: String::new(),
            work: (counters.get("percolation.churn_events") - events_before) as u64,
            attempted: self.experiments.len() as u64,
            failed: 0,
        }
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        let regimes: Vec<String> = REGIMES
            .iter()
            .map(|r| {
                format!(
                    "{}: fail {} repair {} x {} steps",
                    r.name, r.fail_rate, r.repair_rate, r.timesteps
                )
            })
            .collect();
        vec![
            (
                "graphs",
                format!("{} + {}", self.cube.name(), self.mesh.name()),
            ),
            ("threads", "1".into()),
            ("census_threads", "1".into()),
            ("regimes", regimes.join("; ")),
            ("runs_per_regime", RUNS_PER_REGIME.to_string()),
            (
                "latency_op",
                "one pass: ChurnExperiment::run in both regimes".into(),
            ),
            ("work_unit", "churn events".into()),
        ]
    }
}
