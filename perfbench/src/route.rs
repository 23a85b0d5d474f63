//! `route_transition`: an E1/E3 α-sweep on `H_16` with the Theorem 3(ii)
//! segment router, plus an E4 mesh-routing grid above `p_c` (Theorem 4),
//! both on the scalar harness: lazy edge sampler, probe budget,
//! conditioning BFS.
//!
//! The probe engine and the conditioning BFS do the work; the census and
//! the batched engine do none. The α grid leans to the hard side
//! (α ≥ 1/2) so that routing, not the conditioning BFS, dominates.

use faultnet_analysis::table::{fmt_float, Table};
use faultnet_experiments::report::ExperimentReport;
use faultnet_percolation::bfs::connected;
use faultnet_percolation::{EdgeSampler, PercolationConfig};
use faultnet_routing::complexity::{ComplexityHarness, TrialResult};
use faultnet_routing::hypercube::SegmentRouter;
use faultnet_routing::mesh::MeshLandmarkRouter;
use faultnet_routing::probe::{ProbeEngine, ProbeError};
use faultnet_routing::router::{RouteError, Router};
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::mesh::Mesh;
use faultnet_topology::{Topology, VertexId};

use crate::stats::splitmix;
use crate::trace::{Layer, Tracer};
use crate::{Counters, PassOutput, Workload};

/// Hypercube dimension of the α sweep.
const DIMENSION: u32 = 16;
/// Fault exponents `α` (`p = n^{-α}`), weighted to the hard side.
const ALPHAS: [f64; 3] = [0.6, 0.7, 0.8];
/// Conditioned-trial attempts per α point.
const CUBE_TRIALS: u32 = 16;
/// Probe budget per trial on the hypercube.
const PROBE_BUDGET: u64 = 250_000;
/// Largest segment depth of the segment router.
const SEGMENT_CAP: u64 = 16;
/// Mesh pair distance (the mesh side leaves a margin of 2 on each end).
const MESH_DISTANCE: u64 = 60;
/// Retention probabilities of the mesh grid, all above `p_c = 1/2`.
const MESH_PS: [f64; 2] = [0.6, 0.75];
/// Trial attempts per mesh point (mesh trials take milliseconds).
const MESH_TRIALS: u32 = 8;

struct Point<T> {
    label: String,
    harness: ComplexityHarness<T>,
    trials: u32,
}

/// The workload's state after set-up.
pub struct RouteTransition {
    cube_pair: (VertexId, VertexId),
    mesh_pair: (VertexId, VertexId),
    cube_points: Vec<(Point<Hypercube>, SegmentRouter)>,
    mesh_points: Vec<Point<Mesh>>,
}

impl<T: Topology> Point<T> {
    /// Seed of the first trial of pass `pass`: every pass measures fresh
    /// trials, so a run averages over many instances.
    fn first_seed(&self, pass: usize) -> u64 {
        let offset = pass as u64 * u64::from(self.trials);
        self.harness.config().seed().wrapping_add(offset)
    }
}

type Results = Vec<Vec<Option<TrialResult>>>;

impl RouteTransition {
    /// Builds both graphs (inside `topology.build` spans) and the grid.
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let cube = tracer.span("topology.build", Layer::Topology, || {
            Hypercube::new(DIMENSION)
        });
        let margin = 2;
        let side = MESH_DISTANCE + 2 * margin + 1;
        let mesh = tracer.span("topology.build", Layer::Topology, || Mesh::new(2, side));
        let mesh_pair = (
            mesh.vertex_at(&[margin, side / 2]),
            mesh.vertex_at(&[margin + MESH_DISTANCE, side / 2]),
        );
        let cube_points = ALPHAS
            .iter()
            .enumerate()
            .map(|(i, &alpha)| {
                let p = f64::from(DIMENSION).powf(-alpha).min(1.0);
                let config = PercolationConfig::new(p, splitmix(seed, i as u64));
                let harness = ComplexityHarness::new(cube, config).with_probe_budget(PROBE_BUDGET);
                let point = Point {
                    label: format!("alpha = {alpha:.2}"),
                    harness,
                    trials: CUBE_TRIALS,
                };
                (point, SegmentRouter::for_alpha(alpha, SEGMENT_CAP))
            })
            .collect();
        let mesh_points = MESH_PS
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let config = PercolationConfig::new(p, splitmix(seed, 100 + i as u64));
                Point {
                    label: format!("p = {p:.2}"),
                    harness: ComplexityHarness::new(mesh, config),
                    trials: MESH_TRIALS,
                }
            })
            .collect();
        let workload = RouteTransition {
            cube_pair: cube.canonical_pair(),
            mesh_pair,
            cube_points,
            mesh_points,
        };
        // Warm up the conditioning BFS on each graph with every edge open,
        // so the warm-up cost does not depend on the seed.
        let all_open = PercolationConfig::new(1.0, seed).sampler();
        tracer.span("percolation.condition", Layer::Percolation, || {
            let (u, v) = workload.cube_pair;
            std::hint::black_box(connected(&cube, &all_open, u, v));
            let (u, v) = workload.mesh_pair;
            std::hint::black_box(connected(&mesh, &all_open, u, v));
        });
        workload
    }

    fn labels(&self) -> impl Iterator<Item = (&str, f64)> {
        self.cube_points
            .iter()
            .map(|(point, _)| (point.label.as_str(), point.harness.config().p()))
            .chain(
                self.mesh_points
                    .iter()
                    .map(|point| (point.label.as_str(), point.harness.config().p())),
            )
    }

    fn output(&self, results: &Results, rendered: String) -> PassOutput {
        let mut canonical = String::new();
        let mut work = 0;
        let mut attempted = 0;
        let mut failed = 0;
        for trials in results {
            for result in trials {
                canonical.push_str(&format!("{result:?}\n"));
                attempted += 1;
                work += match result {
                    Some(TrialResult::Routed { probes } | TrialResult::GaveUp { probes }) => {
                        *probes
                    }
                    Some(TrialResult::BudgetExhausted { budget }) => *budget,
                    Some(TrialResult::InvalidPath) => {
                        failed += 1;
                        0
                    }
                    None => 0,
                };
            }
        }
        PassOutput {
            canonical,
            rendered,
            work,
            attempted,
            failed,
        }
    }

    fn render(&self, results: &Results) -> String {
        let mut report = ExperimentReport::new(
            "route_transition: segment-router α sweep and mesh landmark routing",
            "Theorem 3 (hypercube transition at α = 1/2) and Theorem 4 (mesh routing is O(n))",
        );
        let headers = [
            "point",
            "p",
            "attempted",
            "conditioned",
            "routed",
            "budget-hit",
            "mean probes",
        ];
        let mut cube_table = Table::new(headers).with_title(format!(
            "H_{DIMENSION} segment router, budget {PROBE_BUDGET}"
        ));
        let mut mesh_table = Table::new(headers).with_title(format!(
            "2-d mesh landmark router, distance {MESH_DISTANCE}"
        ));
        for (i, ((label, p), trials)) in self.labels().zip(results).enumerate() {
            let conditioned = trials.iter().flatten().count();
            let routed: Vec<u64> = trials
                .iter()
                .filter_map(|r| match r {
                    Some(TrialResult::Routed { probes }) => Some(*probes),
                    _ => None,
                })
                .collect();
            let exhausted = trials
                .iter()
                .filter(|r| matches!(r, Some(TrialResult::BudgetExhausted { .. })))
                .count();
            let mean = if routed.is_empty() {
                f64::NAN
            } else {
                routed.iter().sum::<u64>() as f64 / routed.len() as f64
            };
            let row = [
                label.to_string(),
                fmt_float(p),
                trials.len().to_string(),
                conditioned.to_string(),
                routed.len().to_string(),
                exhausted.to_string(),
                fmt_float(mean),
            ];
            if i < self.cube_points.len() {
                cube_table.push_row(row);
            } else {
                mesh_table.push_row(row);
            }
        }
        report.push_table(cube_table);
        report.push_table(mesh_table);
        report.render()
    }
}

/// One point through [`ComplexityHarness::run_trial`], the per-trial entry
/// point `measure` loops over. Pushes the latency of every conditioned
/// trial (`u ∼ v`: conditioning BFS, route and path check).
fn untraced_point<T, R>(
    point: &Point<T>,
    pass: usize,
    router: &R,
    (u, v): (VertexId, VertexId),
    latencies_us: &mut Vec<f64>,
) -> Vec<Option<TrialResult>>
where
    T: Topology + Sync,
    R: Router<T, EdgeSampler>,
{
    let base = point.first_seed(pass);
    (0..point.trials)
        .map(|t| {
            let started = std::time::Instant::now();
            let result = point
                .harness
                .run_trial(router, u, v, base.wrapping_add(u64::from(t)));
            if result.is_some() {
                latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            result
        })
        .collect()
}

/// [`ComplexityHarness::run_trial`] rebuilt from layer calls: the lazy
/// sampler, the conditioning BFS (percolation), then the router on a
/// budgeted probe engine and the path check (routing).
fn traced_point<T, R>(
    point: &Point<T>,
    pass: usize,
    router: &R,
    (u, v): (VertexId, VertexId),
    budget: Option<u64>,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Vec<Option<TrialResult>>
where
    T: Topology + Sync,
    R: Router<T, EdgeSampler>,
{
    let graph = point.harness.graph();
    let config = point.harness.config();
    let base = point.first_seed(pass);
    (0..point.trials)
        .map(|t| {
            let sampler = config.with_seed(base.wrapping_add(u64::from(t))).sampler();
            let accepted = tracer.span("percolation.condition", Layer::Percolation, || {
                connected(graph, &sampler, u, v)
            });
            counters.add("percolation.condition_calls", 1.0);
            if !accepted {
                return None;
            }
            counters.add("percolation.condition_accepted", 1.0);
            let (result, probes) = tracer.span("routing.route", Layer::Routing, || {
                let mut engine = ProbeEngine::with_locality(graph, &sampler, router.locality(), u);
                if let Some(budget) = budget {
                    engine = engine.with_budget(budget);
                }
                let result = match router.route(&mut engine, u, v) {
                    Ok(outcome) => match outcome.path {
                        Some(path)
                            if path.connects(u, v) && path.is_valid_open_path(graph, &sampler) =>
                        {
                            TrialResult::Routed {
                                probes: outcome.probes,
                            }
                        }
                        Some(_) => TrialResult::InvalidPath,
                        None => TrialResult::GaveUp {
                            probes: outcome.probes,
                        },
                    },
                    Err(RouteError::Probe(ProbeError::BudgetExhausted { budget })) => {
                        TrialResult::BudgetExhausted { budget }
                    }
                    Err(other) => panic!("router {} failed: {other}", router.name()),
                };
                (result, engine.probes_used())
            });
            counters.add("routing.trials", 1.0);
            counters.add("routing.probes", probes as f64);
            if matches!(result, TrialResult::BudgetExhausted { .. }) {
                counters.add("routing.budget_exhausted", 1.0);
            }
            Some(result)
        })
        .collect()
}

impl Workload for RouteTransition {
    fn untraced_pass(&mut self, pass: usize, latencies_us: &mut Vec<f64>) -> PassOutput {
        // One latency sample per conditioned trial, about 50 per pass and
        // 400 per run, so the p99 is a percentile rather than the slowest
        // of a few passes. Rejected attempts (`u ≁ v`, no routing) are
        // left out: most take microseconds, and they would put the median
        // on the seam between them and the routed trials.
        let mut results = Vec::new();
        for (point, router) in &self.cube_points {
            results.push(untraced_point(
                point,
                pass,
                router,
                self.cube_pair,
                latencies_us,
            ));
        }
        for point in &self.mesh_points {
            let router = MeshLandmarkRouter::new();
            results.push(untraced_point(
                point,
                pass,
                &router,
                self.mesh_pair,
                latencies_us,
            ));
        }
        let rendered = self.render(&results);
        self.output(&results, rendered)
    }

    fn traced_pass(
        &mut self,
        pass: usize,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> PassOutput {
        let mut results = Vec::new();
        for (point, router) in &self.cube_points {
            results.push(traced_point(
                point,
                pass,
                router,
                self.cube_pair,
                Some(PROBE_BUDGET),
                tracer,
                counters,
            ));
        }
        for point in &self.mesh_points {
            let router = MeshLandmarkRouter::new();
            results.push(traced_point(
                point,
                pass,
                &router,
                self.mesh_pair,
                None,
                tracer,
                counters,
            ));
        }
        let rendered = tracer.span("experiments.render", Layer::Experiments, || {
            self.render(&results)
        });
        self.output(&results, rendered)
    }

    fn record(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "graphs",
                format!("H_{DIMENSION} + 2-d mesh, distance {MESH_DISTANCE}"),
            ),
            ("threads", "1".into()),
            ("census_threads", "1".into()),
            ("lanes", "0 (scalar harness)".into()),
            ("alphas", format!("{ALPHAS:?}")),
            ("probe_budget", PROBE_BUDGET.to_string()),
            (
                "latency_op",
                "one conditioned trial (ComplexityHarness::run_trial with u ~ v)".into(),
            ),
            ("work_unit", "probes".into()),
        ]
    }
}
