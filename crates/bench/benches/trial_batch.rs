//! Bench target for the trial-batched (multispin) percolation engine:
//! scalar per-trial sampling + census vs 64 lane-packed trials per word,
//! on hypercubes n = 14 and 16.
//!
//! What the transpose buys: `TrialBatch::from_config` runs the same 64
//! sampler calls per edge as 64 scalar `BitsetSample`s (the lanes *are*
//! those trials), but stores them as one word per edge, so the per-trial
//! overhead left is a single `lane_view` bit-read per census probe and the
//! conditioning check collapses to one bit-parallel BFS fixpoint
//! (`connected_lanes`) deciding all 64 lanes in single ALU ops instead of
//! 64 scalar BFS passes, and the census collapses to one edge list per
//! batch swept once per lane (`lane_components`) instead of 64 full
//! censuses through `lane_view`. The `percolation/trial_batch` group
//! reports the scalar and batched paths over identical trial sets — they
//! are bit-identical in output (see crates/percolation/tests/
//! trial_equivalence.rs), so any measured gap is pure wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::sample::BitsetSample;
use faultnet_percolation::trial_batch::TrialBatch;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::hypercube::Hypercube;
use faultnet_topology::Topology;
use std::time::Duration;

const TRIALS: usize = 64;
const P: f64 = 0.5;
const SEED: u64 = 7;

/// Edge sampling: 64 scalar bitsets vs one 64-lane batch (the same 64
/// seed streams, relaid out).
fn bench_edge_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/trial_batch");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[14u32, 16] {
        let cube = Hypercube::new(n);
        group.throughput(Throughput::Elements(cube.num_edges() * TRIALS as u64));
        group.bench_with_input(BenchmarkId::new("sample_scalar", n), &n, |b, _| {
            b.iter(|| {
                (0..TRIALS)
                    .map(|t| {
                        let cfg = PercolationConfig::new(P, SEED.wrapping_add(t as u64));
                        BitsetSample::from_config(&cube, &cfg).num_open()
                    })
                    .sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("sample_batched", n), &n, |b, _| {
            b.iter(|| {
                let cfg = PercolationConfig::new(P, SEED);
                let batch = TrialBatch::from_config(&cube, &cfg, TRIALS);
                (0..TRIALS).map(|l| batch.lane_open_count(l)).sum::<u64>()
            })
        });
    }
    group.finish();
}

/// Census + conditioning over 64 trials: scalar (64 samples, 64 censuses,
/// 64 pair checks) vs batched (one batch, 64 lane censuses, one
/// bit-parallel `connected_lanes` fixpoint) vs the lane sweep (one batch,
/// one edge list, 64 union-find sweeps over it, one fixpoint). The
/// sweep's target is to stay within 2× of `sample_batched` above.
fn bench_census_and_conditioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("percolation/trial_batch");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.sample_size(10);
    for &n in &[14u32, 16] {
        let cube = Hypercube::new(n);
        let (u, v) = cube.canonical_pair();
        group.throughput(Throughput::Elements(cube.num_edges() * TRIALS as u64));
        group.bench_with_input(BenchmarkId::new("census_scalar", n), &n, |b, _| {
            b.iter(|| {
                (0..TRIALS)
                    .map(|t| {
                        let cfg = PercolationConfig::new(P, SEED.wrapping_add(t as u64));
                        let sample = BitsetSample::from_config(&cube, &cfg);
                        let census = ComponentCensus::compute(&cube, &sample);
                        u64::from(census.same_component(u, v))
                    })
                    .sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("census_batched", n), &n, |b, _| {
            b.iter(|| {
                let cfg = PercolationConfig::new(P, SEED);
                let batch = TrialBatch::from_config(&cube, &cfg, TRIALS);
                let connected = batch.connected_lanes(u, v);
                let giants: u64 = (0..TRIALS)
                    .map(|l| {
                        ComponentCensus::compute(&cube, &batch.lane_view(l))
                            .largest_component_size()
                    })
                    .sum();
                giants.wrapping_add(u64::from(connected.count_ones()))
            })
        });
        group.bench_with_input(BenchmarkId::new("census_lane_sweep", n), &n, |b, _| {
            b.iter(|| {
                let cfg = PercolationConfig::new(P, SEED);
                let batch = TrialBatch::from_config(&cube, &cfg, TRIALS);
                let connected = batch.connected_lanes(u, v);
                let giants: u64 = batch.lane_components(1).iter().map(|l| l.largest).sum();
                giants.wrapping_add(u64::from(connected.count_ones()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_edge_sampling, bench_census_and_conditioning);
criterion_main!(benches);
