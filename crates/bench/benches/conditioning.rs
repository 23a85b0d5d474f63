//! Bench target for the two halves of a scalar routing trial: the
//! conditioning check `{u ∼ v}` and the metered probe search.
//!
//! * `conditioning/h16_alpha_0.6` — the canonical pair of `H_16` at
//!   `p = 16^-0.6` (the hardest α of the `route_transition` sweep's easy
//!   end), over a fixed set of seeds: the one-sided BFS with an early exit
//!   at `v` (the check the harness used to run), the bidirectional
//!   [`connected`] it runs now, and a two-worker component census asked
//!   the same question (`same_component`). All three return the same bits.
//! * `routing/segment_trial` — one conditioned segment-router trial on
//!   `H_14` at `α = 0.6` with a fixed seed. Its throughput is in probes
//!   (the trial's distinct-probe count is fixed by the seed), so
//!   `cargo bench` prints the per-probe cost as `ns/elem`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use faultnet_percolation::bfs::{bfs, connected, BfsOptions};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::PercolationConfig;
use faultnet_routing::hypercube::SegmentRouter;
use faultnet_routing::probe::ProbeEngine;
use faultnet_routing::router::Router;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;
use std::time::Duration;

/// Seeds per iteration of the conditioning group.
const SEEDS: u64 = 4;

fn bench_conditioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("conditioning/h16_alpha_0.6");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    let cube = Hypercube::new(16);
    let (u, v) = cube.canonical_pair();
    let config = PercolationConfig::new(16f64.powf(-0.6), 11);
    let samplers: Vec<_> = (0..SEEDS).map(|s| config.with_seed(s).sampler()).collect();
    let target = BfsOptions {
        max_depth: None,
        target: Some(v),
    };
    group.throughput(Throughput::Elements(SEEDS));
    group.bench_function("one_sided_bfs", |b| {
        b.iter(|| {
            samplers
                .iter()
                .filter(|s| bfs(&cube, *s, u, target).reached(v))
                .count()
        })
    });
    group.bench_function("bidirectional", |b| {
        b.iter(|| {
            samplers
                .iter()
                .filter(|s| connected(&cube, *s, u, v))
                .count()
        })
    });
    group.bench_function("census_par2", |b| {
        b.iter(|| {
            samplers
                .iter()
                .filter(|s| ComponentCensus::compute_parallel(&cube, *s, 2).same_component(u, v))
                .count()
        })
    });
    group.finish();
}

fn bench_segment_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing/segment_trial");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    let cube = Hypercube::new(14);
    let (u, v) = cube.canonical_pair();
    let alpha = 0.6;
    let config = PercolationConfig::new(14f64.powf(-alpha), 0);
    // The first seed whose instance satisfies the conditioning event, so
    // the trial routes to completion.
    let sampler = (0..)
        .map(|seed| config.with_seed(seed).sampler())
        .find(|s| connected(&cube, s, u, v))
        .expect("some seed connects the pair");
    let router = SegmentRouter::for_alpha(alpha, 16);
    let route = || {
        let mut engine = ProbeEngine::local(&cube, &sampler, u);
        let outcome = router.route(&mut engine, u, v).expect("routing succeeds");
        assert!(outcome.is_success());
        outcome.probes
    };
    group.throughput(Throughput::Elements(route()));
    group.bench_function("h14_alpha_0.6", |b| b.iter(route));
    group.finish();
}

criterion_group!(benches, bench_conditioning, bench_segment_trial);
criterion_main!(benches);
