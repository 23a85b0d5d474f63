//! `giant_scan`: an E8a-style scan of giant-component size and
//! connectivity on `H_16` and on a Barabási–Albert substrate, under
//! Bernoulli edge faults, through the 64-lane batched engine.
//!
//! Sampling and the component census do almost all the work here and
//! routing does none, so a census change shows on this workload.

use faultnet_analysis::table::{fmt_float, Table};
use faultnet_experiments::exec::TrialExec;
use faultnet_experiments::hypercube_giant::{measure_giant_point_with_model, HypercubePoint};
use faultnet_experiments::report::ExperimentReport;
use faultnet_faultmodel::{BernoulliEdges, FaultModel};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::trial_batch::TrialBatch;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::explicit::ExplicitGraph;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::load::SubstrateSpec;
use faultnet_topology::Topology;

use crate::stats::splitmix;
use crate::trace::{Layer, Tracer};
use crate::{Counters, PassOutput, Workload};

/// Hypercube dimension of the scan.
const DIMENSION: u32 = 16;
/// The irregular substrate: hubs instead of a regular degree.
const SUBSTRATE: SubstrateSpec = SubstrateSpec::BarabasiAlbert { n: 65_536, m: 3 };
/// Instances per grid point (half of one 64-lane word).
const TRIALS: u32 = 32;
/// Lanes per batch (the batched engine's word width).
const LANES: usize = 64;
/// The hypercube grid: a supercritical `p = c/n` point of the giant scan
/// and a point in the connectivity region.
const CUBE_GRID: [Grid; 2] = [Grid::OverN(2.0), Grid::Abs(0.5)];
/// Retention probabilities of the substrate scan.
const SUBSTRATE_GRID: [f64; 1] = [0.3];

#[derive(Clone, Copy)]
enum Grid {
    OverN(f64),
    Abs(f64),
}

struct Point {
    on_cube: bool,
    label: String,
    p: f64,
    base_seed: u64,
}

/// The workload's state after set-up: both graphs and the fixed grid.
pub struct GiantScan {
    cube: Hypercube,
    substrate: ExplicitGraph,
    points: Vec<Point>,
}

fn exec() -> TrialExec {
    TrialExec::sequential().with_trial_batch(LANES)
}

impl GiantScan {
    /// Builds both graphs (inside `topology.build` spans) and the grid,
    /// then warms up with one census of each graph.
    pub fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let cube = tracer.span("topology.build", Layer::Topology, || {
            Hypercube::new(DIMENSION)
        });
        let substrate = tracer.span("topology.build", Layer::Topology, || SUBSTRATE.build());
        let warm = PercolationConfig::new(0.5, seed).sampler();
        tracer.span("percolation.census", Layer::Percolation, || {
            std::hint::black_box(ComponentCensus::compute(&cube, &warm));
            std::hint::black_box(ComponentCensus::compute(&substrate, &warm));
        });
        let mut points = Vec::new();
        for (i, grid) in CUBE_GRID.iter().enumerate() {
            let (label, p) = match *grid {
                Grid::OverN(c) => (format!("c = {c:.2}"), c / DIMENSION as f64),
                Grid::Abs(p) => (format!("p = {p:.2}"), p),
            };
            points.push(Point {
                on_cube: true,
                label,
                p,
                base_seed: splitmix(seed, i as u64),
            });
        }
        for (i, &p) in SUBSTRATE_GRID.iter().enumerate() {
            points.push(Point {
                on_cube: false,
                label: format!("p = {p:.2}"),
                p,
                base_seed: splitmix(seed, 100 + i as u64),
            });
        }
        GiantScan {
            cube,
            substrate,
            points,
        }
    }

    fn render(&self, results: &[HypercubePoint]) -> String {
        let mut report = ExperimentReport::new(
            "giant_scan: giant fraction and connectivity under Bernoulli edge faults",
            "§1.2 background — E8a points on H_16 plus a Barabási–Albert substrate",
        );
        for on_cube in [true, false] {
            let name = if on_cube {
                self.cube.name()
            } else {
                SUBSTRATE.canonical_name()
            };
            let mut table = Table::new(["point", "p", "giant fraction", "Pr[connected]"])
                .with_title(format!("{name} ({TRIALS} instances/point)"));
            for (point, result) in self.points.iter().zip(results) {
                if point.on_cube == on_cube {
                    table.push_row([
                        point.label.clone(),
                        fmt_float(point.p),
                        fmt_float(result.giant_fraction),
                        fmt_float(result.connectivity),
                    ]);
                }
            }
            report.push_table(table);
        }
        report.render()
    }

    fn output(&self, results: &[HypercubePoint], rendered: String) -> PassOutput {
        let canonical = results
            .iter()
            .map(|r| {
                format!(
                    "{:016x} {:016x} {:016x}\n",
                    r.p.to_bits(),
                    r.giant_fraction.to_bits(),
                    r.connectivity.to_bits()
                )
            })
            .collect();
        PassOutput {
            canonical,
            rendered,
            work: u64::from(TRIALS) * self.points.len() as u64,
            attempted: self.points.len() as u64,
            failed: 0,
        }
    }
}

/// [`measure_giant_point_with_model`] rebuilt from layer calls, with a
/// span around each: placement and instances (faultmodel), the transpose
/// into one word per edge (percolation), one census per lane
/// (percolation). Trial-order summation keeps every f64 bit equal.
fn traced_point<G: Topology + Sync>(
    graph: &G,
    point: &Point,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> HypercubePoint {
    let model = BernoulliEdges::new();
    let pair = graph.canonical_pair();
    let placement = tracer.span("faultmodel.placement", Layer::FaultModel, || {
        model.pair_placement(graph, pair)
    });
    let mut giant_total = 0.0;
    let mut connected = 0u32;
    for t0 in (0..TRIALS).step_by(LANES) {
        let lanes = LANES.min((TRIALS - t0) as usize);
        let instances: Vec<_> = tracer.span("faultmodel.instance", Layer::FaultModel, || {
            (0..lanes)
                .map(|l| {
                    let seed = point
                        .base_seed
                        .wrapping_add(u64::from(t0))
                        .wrapping_add(l as u64);
                    let config = PercolationConfig::new(point.p, seed);
                    model.instance_from_placement(&placement, graph, config, pair)
                })
                .collect()
        });
        counters.add("faultmodel.instances", lanes as f64);
        let batch = tracer.span("percolation.transpose", Layer::Percolation, || {
            TrialBatch::from_lane_states(graph, &instances)
        });
        counters.add("percolation.lane_bytes", (batch.words().len() * 8) as f64);
        for lane in 0..lanes {
            let census = tracer.span("percolation.census", Layer::Percolation, || {
                ComponentCensus::compute(graph, &batch.lane_view(lane))
            });
            counters.add("percolation.census_calls", 1.0);
            counters.add("percolation.census_edges", graph.num_edges() as f64);
            giant_total += census.giant_fraction();
            connected += u32::from(census.num_components() == 1);
        }
    }
    HypercubePoint {
        p: point.p,
        giant_fraction: giant_total / f64::from(TRIALS),
        connectivity: f64::from(connected) / f64::from(TRIALS),
    }
}

impl Workload for GiantScan {
    fn untraced_pass(&mut self, _pass: usize, latencies_us: &mut Vec<f64>) -> PassOutput {
        let model = BernoulliEdges::new();
        let mut results = Vec::with_capacity(self.points.len());
        for point in &self.points {
            let started = std::time::Instant::now();
            let result = if point.on_cube {
                measure_giant_point_with_model(
                    &model,
                    &self.cube,
                    point.p,
                    TRIALS,
                    point.base_seed,
                    exec(),
                )
            } else {
                measure_giant_point_with_model(
                    &model,
                    &self.substrate,
                    point.p,
                    TRIALS,
                    point.base_seed,
                    exec(),
                )
            };
            latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
            results.push(result);
        }
        let rendered = self.render(&results);
        self.output(&results, rendered)
    }

    fn traced_pass(
        &mut self,
        _pass: usize,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> PassOutput {
        let mut results = Vec::with_capacity(self.points.len());
        for point in &self.points {
            let result = if point.on_cube {
                traced_point(&self.cube, point, tracer, counters)
            } else {
                traced_point(&self.substrate, point, tracer, counters)
            };
            results.push(result);
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
                format!("{} + {}", self.cube.name(), SUBSTRATE.canonical_name()),
            ),
            ("threads", "1".into()),
            ("census_threads", "1".into()),
            ("lanes", LANES.to_string()),
            ("trials_per_point", TRIALS.to_string()),
            ("points", self.points.len().to_string()),
            ("latency_op", format!("one grid point ({TRIALS} instances)")),
            ("work_unit", "fault instances".into()),
        ]
    }
}
