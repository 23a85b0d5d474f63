//! Zoo-wide equivalence suite for the trial-batched (multispin) engine.
//!
//! The contract under test: a [`TrialBatch`] is a **pure relayout** of the
//! scalar trials it packs — lane `l` of a batch built from base seed `s`
//! holds bit-for-bit the [`BitsetSample`] of the scalar trial at seed
//! `s + l`, a census over a [`LaneView`] equals the census over that scalar
//! sample on *every* public accessor, the bit-parallel
//! [`TrialBatch::connected_lanes`] fixpoint decides per-lane connectivity
//! exactly as the scalar census does, the batched lane sweep
//! ([`TrialBatch::lane_components`]) reads the same largest component and
//! component count as a per-lane census, and the batched trial means
//! ([`mean_giant_fraction_batched`]) are bit-identical to the scalar loop
//! for every batch size — including the ragged tails where
//! `trials % lanes != 0`.
//!
//! This is the mold of `census_equivalence.rs` one layer up: that suite
//! pins the parallel census to the sequential census; this one pins the
//! transposed substrate to the scalar substrate both suites walk.

use faultnet_percolation::{
    components::ComponentCensus,
    sample::{BitsetSample, EdgeStates, FrozenSample},
    threshold::{mean_giant_fraction_batched, mean_giant_fraction_with_census_threads},
    trial_batch::{clamp_lanes, TrialBatch},
    PercolationConfig,
};
use faultnet_topology::{
    binary_tree::BinaryTree,
    butterfly::Butterfly,
    complete::CompleteGraph,
    cycle_matching::{CycleWithMatching, MatchingKind},
    de_bruijn::DeBruijn,
    double_tree::DoubleBinaryTree,
    explicit::ExplicitGraph,
    hypercube::Hypercube,
    load::SubstrateSpec,
    mesh::Mesh,
    shuffle_exchange::ShuffleExchange,
    torus::Torus,
    Topology, VertexId,
};
use proptest::prelude::*;

/// One small instance of every built-in family (the same zoo as
/// `census_equivalence.rs`).
fn family_zoo() -> Vec<Box<dyn Topology + Sync>> {
    vec![
        Box::new(Hypercube::new(5)),
        Box::new(Mesh::new(2, 5)),
        Box::new(Torus::new(2, 4)),
        Box::new(CompleteGraph::new(16)),
        Box::new(DeBruijn::new(5)),
        Box::new(ShuffleExchange::new(5)),
        Box::new(Butterfly::new(3)),
        Box::new(BinaryTree::new(4)),
        Box::new(DoubleBinaryTree::new(3)),
        Box::new(CycleWithMatching::new(16, MatchingKind::Antipodal)),
        Box::new(CycleWithMatching::new(16, MatchingKind::Random { seed: 5 })),
        Box::new(ExplicitGraph::from_topology(&Mesh::new(2, 4))),
    ]
}

/// The batch sizes the tentpole contract names: a single lane, both sides
/// of the word boundary, and a request past the 64-lane cap.
const BATCH_SIZES: [usize; 5] = [1, 63, 64, 65, 200];

/// Compares every public accessor of two censuses of the same instance.
fn assert_census_identical<T: Topology + ?Sized>(
    graph: &T,
    scalar: &ComponentCensus,
    batched: &ComponentCensus,
    context: &str,
) {
    assert_eq!(
        scalar.num_vertices(),
        batched.num_vertices(),
        "num_vertices diverged: {context}"
    );
    assert_eq!(
        scalar.num_components(),
        batched.num_components(),
        "num_components diverged: {context}"
    );
    assert_eq!(
        scalar.largest_component_size(),
        batched.largest_component_size(),
        "largest_component_size diverged: {context}"
    );
    assert_eq!(
        scalar.giant_fraction(),
        batched.giant_fraction(),
        "giant_fraction diverged: {context}"
    );
    assert_eq!(
        scalar.sizes_descending(),
        batched.sizes_descending(),
        "sizes_descending diverged: {context}"
    );
    assert_eq!(
        scalar.second_largest_component_size(),
        batched.second_largest_component_size(),
        "second_largest_component_size diverged: {context}"
    );
    assert_eq!(
        scalar.giant_component_vertices(),
        batched.giant_component_vertices(),
        "giant_component_vertices diverged: {context}"
    );
    for v in (0..graph.num_vertices()).map(VertexId) {
        assert_eq!(
            scalar.component_of(v),
            batched.component_of(v),
            "component_of({v}) diverged: {context}"
        );
    }
}

proptest! {
    // Each case walks the full zoo × batch sizes; keep the case count low so
    // `cargo test -q` stays within the 1-core box's budget. The exhaustive
    // sweep lives in `exhaustive_lane_by_lane_census_sweep` below (#[ignore],
    // run by the CI exhaustive job).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property, zoo-wide: every lane of a batch *is* its
    /// scalar trial. The packed words agree edge-for-edge with the scalar
    /// [`BitsetSample`] of seed `base + lane`, and the census through the
    /// [`faultnet_percolation::LaneView`] agrees with the census over that
    /// scalar sample on every accessor.
    #[test]
    fn every_lane_equals_its_scalar_trial_across_the_zoo(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
    ) {
        for graph in family_zoo() {
            let graph = graph.as_ref();
            prop_assert!(
                TrialBatch::supported(graph),
                "{} lost its closed-form edge indices",
                graph.name()
            );
            for lanes in [1usize, 63, 64] {
                let cfg = PercolationConfig::new(p, base_seed);
                let batch = TrialBatch::from_config(graph, &cfg, lanes);
                for lane in 0..batch.lanes() {
                    let scalar_cfg =
                        cfg.with_seed(base_seed.wrapping_add(lane as u64));
                    let scalar = BitsetSample::from_config(graph, &scalar_cfg);
                    let view = batch.lane_view(lane);
                    for e in graph.edges() {
                        prop_assert_eq!(
                            scalar.is_open(e),
                            view.is_open(e),
                            "edge {} diverged: {}, lane {}/{}",
                            e, graph.name(), lane, lanes
                        );
                    }
                    let scalar_census = ComponentCensus::compute(graph, &scalar);
                    let lane_census = ComponentCensus::compute(graph, &view);
                    assert_census_identical(
                        graph,
                        &scalar_census,
                        &lane_census,
                        &format!("{}, lane {lane}/{lanes}, p {p}, seed {base_seed}", graph.name()),
                    );
                }
            }
        }
    }

    /// The bit-parallel connectivity fixpoint decides the Definition 2
    /// conditioning event for all lanes at once, and each of its bits must
    /// agree with what the scalar census says about that lane.
    #[test]
    fn connected_lanes_matches_the_scalar_census_across_the_zoo(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
        lanes in 1usize..=64,
    ) {
        for graph in family_zoo() {
            let graph = graph.as_ref();
            let cfg = PercolationConfig::new(p, base_seed);
            let batch = TrialBatch::from_config(graph, &cfg, lanes);
            let (u, v) = graph.canonical_pair();
            let connected = batch.connected_lanes(u, v);
            prop_assert_eq!(
                connected & !batch.lane_mask(),
                0,
                "ragged-tail bits leaked: {}",
                graph.name()
            );
            for lane in 0..batch.lanes() {
                let census = ComponentCensus::compute(graph, &batch.lane_view(lane));
                prop_assert_eq!(
                    connected >> lane & 1 == 1,
                    census.same_component(u, v),
                    "lane {} of {} diverged from the census",
                    lane, graph.name()
                );
            }
        }
    }

    /// The batched trial mean is bit-identical to the scalar loop for every
    /// batch size in the contract — including 65 and 200, which clamp to 64
    /// — and for ragged trial counts on both sides of the word boundary.
    /// (Per concrete family: the threshold entry points are generic over
    /// `T: Topology + Sync`, so the type-erased zoo can't feed them.)
    #[test]
    fn batched_means_are_bit_identical_across_the_zoo(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
    ) {
        assert_batched_means_identical(&Hypercube::new(5), p, base_seed);
        assert_batched_means_identical(&Mesh::new(2, 5), p, base_seed);
        assert_batched_means_identical(&Torus::new(2, 4), p, base_seed);
        assert_batched_means_identical(&CompleteGraph::new(16), p, base_seed);
        assert_batched_means_identical(&DeBruijn::new(5), p, base_seed);
        assert_batched_means_identical(&ShuffleExchange::new(5), p, base_seed);
        assert_batched_means_identical(&Butterfly::new(3), p, base_seed);
        assert_batched_means_identical(&BinaryTree::new(4), p, base_seed);
        assert_batched_means_identical(&DoubleBinaryTree::new(3), p, base_seed);
        assert_batched_means_identical(
            &CycleWithMatching::new(16, MatchingKind::Antipodal),
            p,
            base_seed,
        );
        assert_batched_means_identical(
            &ExplicitGraph::from_topology(&Mesh::new(2, 4)),
            p,
            base_seed,
        );
    }
}

/// Asserts [`mean_giant_fraction_batched`] == the scalar loop, to the bit,
/// for the contract's trial counts and batch sizes on one family.
fn assert_batched_means_identical<T: Topology + Sync>(graph: &T, p: f64, base_seed: u64) {
    for trials in [1u32, 63, 65] {
        let scalar = mean_giant_fraction_with_census_threads(graph, p, trials, base_seed, 1);
        for batch in BATCH_SIZES {
            let batched = mean_giant_fraction_batched(graph, p, trials, base_seed, 1, batch);
            assert_eq!(
                scalar.to_bits(),
                batched.to_bits(),
                "{}: trials {trials}, batch {batch}, p {p}, seed {base_seed}",
                graph.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite 1 — the lane-salted seed streams never alias: the scalar
    /// samples at seeds `s` and `s + k` (k in 1..64) produce different
    /// [`BitsetSample::words`] on a graph with enough edges (80 on H_5;
    /// collision probability ≈ 2^-80 per pair at p = 1/2), so distinct
    /// lanes of one batch are genuinely independent trials, not copies.
    #[test]
    fn lane_salted_streams_never_alias(base_seed in any::<u64>()) {
        let cube = Hypercube::new(5);
        let words_at = |seed: u64| -> Vec<u64> {
            BitsetSample::from_config(&cube, &PercolationConfig::new(0.5, seed))
                .words()
                .to_vec()
        };
        let base = words_at(base_seed);
        for lane in 1u64..64 {
            prop_assert_ne!(
                &base,
                &words_at(base_seed.wrapping_add(lane)),
                "lane offset {} reproduced the base stream",
                lane
            );
        }
    }

    /// Satellite 1, transpose direction — the batch's words are exactly the
    /// transpose of the per-lane scalar words: bit `l` of
    /// `batch.words()[edge]` equals bit `edge` of lane `l`'s scalar bitset.
    /// The relayout moves bits, it never resamples them.
    #[test]
    fn batch_words_are_the_transpose_of_scalar_words(
        p in 0.0f64..1.0,
        base_seed in any::<u64>(),
        lanes in 1usize..=64,
    ) {
        let cube = Hypercube::new(5);
        let cfg = PercolationConfig::new(p, base_seed);
        let batch = TrialBatch::from_config(&cube, &cfg, lanes);
        for lane in 0..batch.lanes() {
            let scalar = BitsetSample::from_config(
                &cube,
                &cfg.with_seed(base_seed.wrapping_add(lane as u64)),
            );
            let bound = cube
                .edge_index_bound()
                .expect("hypercube has closed-form edge indices");
            for index in 0..bound as usize {
                let batch_bit = batch.words()[index] >> lane & 1;
                let scalar_bit = scalar.words()[index / 64] >> (index % 64) & 1;
                prop_assert_eq!(
                    batch_bit, scalar_bit,
                    "edge index {} lane {}", index, lane
                );
            }
        }
    }
}

/// Satellite 2 — the ragged tails and degenerate censuses, pinned as plain
/// tests so they run on every `cargo test` regardless of proptest's dice.
#[test]
fn ragged_trial_counts_are_bit_identical() {
    let torus = Torus::new(2, 4);
    for trials in [1u32, 63, 65] {
        let scalar = mean_giant_fraction_with_census_threads(&torus, 0.45, trials, 17, 1);
        for batch in BATCH_SIZES {
            let batched = mean_giant_fraction_batched(&torus, 0.45, trials, 17, 1, batch);
            assert_eq!(
                scalar.to_bits(),
                batched.to_bits(),
                "trials {trials}, batch {batch}"
            );
        }
    }
}

/// An all-lanes-closed batch censuses every lane to isolated singletons; a
/// batch with a single open lane keeps the other lanes untouched.
#[test]
fn degenerate_lane_censuses() {
    let mesh = Mesh::new(1, 9);
    let all_closed = FrozenSample::new();
    let closed_lanes: Vec<&FrozenSample> = vec![&all_closed; 5];
    let batch = TrialBatch::from_lane_states(&mesh, &closed_lanes);
    for lane in 0..5 {
        let census = ComponentCensus::compute(&mesh, &batch.lane_view(lane));
        assert_eq!(census.num_components() as u64, mesh.num_vertices());
        assert_eq!(census.largest_component_size(), 1);
    }

    let full_cfg = PercolationConfig::new(1.0, 0);
    let open = FrozenSample::from_sampler(&mesh, &full_cfg.sampler());
    let states: Vec<&FrozenSample> = vec![&all_closed, &open, &all_closed];
    let batch = TrialBatch::from_lane_states(&mesh, &states);
    let open_census = ComponentCensus::compute(&mesh, &batch.lane_view(1));
    assert_eq!(open_census.num_components(), 1);
    for lane in [0usize, 2] {
        let closed_census = ComponentCensus::compute(&mesh, &batch.lane_view(lane));
        assert_eq!(
            closed_census.num_components() as u64,
            mesh.num_vertices(),
            "open lane leaked into lane {lane}"
        );
    }
}

/// The batched census, [`TrialBatch::lane_components`], reports for every
/// lane exactly the largest component and component count of the per-lane
/// census over [`TrialBatch::lane_view`] — across the zoo, the `explicit:`
/// substrates and the 0- and 1-vertex graphs, at ragged and full batches,
/// the empty, a mid and the full retention, and one or two sweep workers.
#[test]
fn lane_components_equal_per_lane_census_across_the_zoo() {
    let mut graphs = family_zoo();
    for name in ["ba-256-3", "fattree-4", "karate"] {
        let spec = SubstrateSpec::parse(name).expect("a valid substrate name");
        graphs.push(Box::new(spec.build()));
    }
    graphs.push(Box::new(ExplicitGraph::new(0)));
    graphs.push(Box::new(ExplicitGraph::new(1)));
    for graph in &graphs {
        let graph = graph.as_ref();
        for lanes in [1usize, 63, 64] {
            for p in [0.0, 0.3, 1.0] {
                let batch = TrialBatch::from_config(graph, &PercolationConfig::new(p, 29), lanes);
                let census: Vec<ComponentCensus> = (0..lanes)
                    .map(|lane| ComponentCensus::compute(graph, &batch.lane_view(lane)))
                    .collect();
                for census_threads in [1usize, 2] {
                    let swept = batch.lane_components(census_threads);
                    let context = format!(
                        "{}, {lanes} lanes, p {p}, census_threads {census_threads}",
                        graph.name()
                    );
                    assert_eq!(swept.len(), lanes, "{context}");
                    for (lane, (got, want)) in swept.iter().zip(&census).enumerate() {
                        assert_eq!(
                            got.largest,
                            want.largest_component_size(),
                            "largest diverged: {context}, lane {lane}"
                        );
                        assert_eq!(
                            got.components,
                            want.num_components() as u64,
                            "components diverged: {context}, lane {lane}"
                        );
                        assert_eq!(
                            got.giant_fraction().to_bits(),
                            want.giant_fraction().to_bits(),
                            "giant fraction diverged: {context}, lane {lane}"
                        );
                    }
                }
            }
        }
    }
}

/// The exhaustive cross-product the proptest cap trims: all zoo families ×
/// all contract batch sizes × a seed grid, every lane censused against its
/// scalar trial. Minutes of work — `#[ignore]`d locally, run by the CI
/// exhaustive job (`cargo test -- --ignored`).
#[test]
#[ignore = "exhaustive cross-product; run via cargo test -- --ignored (CI exhaustive job)"]
fn exhaustive_lane_by_lane_census_sweep() {
    for graph in family_zoo() {
        let graph = graph.as_ref();
        for &(p, base_seed) in &[(0.1, 3u64), (0.5, 11), (0.9, 19)] {
            for batch_size in BATCH_SIZES {
                let cfg = PercolationConfig::new(p, base_seed);
                // `from_config` takes a lane count, not a knob value: the
                // engines clamp the `--trial-batch` knob through
                // `clamp_lanes` before constructing, and so does this sweep.
                let batch = TrialBatch::from_config(graph, &cfg, clamp_lanes(batch_size));
                let (u, v) = graph.canonical_pair();
                let connected = batch.connected_lanes(u, v);
                for lane in 0..batch.lanes() {
                    let scalar = BitsetSample::from_config(
                        graph,
                        &cfg.with_seed(base_seed.wrapping_add(lane as u64)),
                    );
                    let scalar_census = ComponentCensus::compute(graph, &scalar);
                    let lane_census = ComponentCensus::compute(graph, &batch.lane_view(lane));
                    assert_census_identical(
                        graph,
                        &scalar_census,
                        &lane_census,
                        &format!(
                            "{}, p {p}, seed {base_seed}, batch {batch_size}, lane {lane}",
                            graph.name()
                        ),
                    );
                    assert_eq!(
                        connected >> lane & 1 == 1,
                        scalar_census.same_component(u, v),
                        "{}: connected_lanes bit {lane} diverged",
                        graph.name()
                    );
                }
            }
        }
    }
}
