//! Ground truth for the conditioning check `{u ∼ v}`.
//!
//! Every routing trial is conditioned on [`connected`], so a wrong answer
//! would bias every routing-complexity estimate while all the engine-vs-
//! engine suites kept agreeing. This suite checks it against two
//! independent references:
//!
//! * **Exact enumeration.** On graphs with at most 12 edges (the cycle
//!   `C_8`, `K_4`, the 3×3 mesh and `H_3`), every one of the `2^|E|` open
//!   sets is built, and for every vertex pair `connected` must equal
//!   union-find connectivity of the open edges.
//! * **Differential.** Across the topology zoo plus two loaded substrates
//!   (`ba-256-3`, `karate`), at `p ∈ {0, 0.2, 0.5, 1}`, `connected` must
//!   equal the one-sided BFS's `reached(v)` for `u = v`, isolated
//!   endpoints, the canonical pair and fixed-seed random pairs.

use faultnet_percolation::bfs::{bfs, connected, BfsOptions};
use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::subgraph::PercolatedGraph;
use faultnet_percolation::union_find::UnionFind;
use faultnet_percolation::PercolationConfig;
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
    EdgeId, Topology, VertexId,
};

/// One open set of a small graph: bit `i` of `mask` opens `edges[i]`.
struct MaskStates<'a> {
    edges: &'a [EdgeId],
    mask: u32,
}

impl EdgeStates for MaskStates<'_> {
    fn is_open(&self, edge: EdgeId) -> bool {
        let index = self
            .edges
            .iter()
            .position(|e| *e == edge)
            .expect("only edges of the graph are queried");
        self.mask >> index & 1 == 1
    }
}

fn enumerate_all_open_sets<T: Topology>(graph: &T) -> u64 {
    let edges = graph.edges();
    assert!(
        edges.len() <= 12,
        "{} has {} edges",
        graph.name(),
        edges.len()
    );
    let n = graph.num_vertices() as usize;
    let mut checked = 0u64;
    for mask in 0..1u32 << edges.len() {
        let states = MaskStates {
            edges: &edges,
            mask,
        };
        let mut union_find = UnionFind::new(n);
        for (i, edge) in edges.iter().enumerate() {
            if mask >> i & 1 == 1 {
                union_find.union(edge.lo().0 as usize, edge.hi().0 as usize);
            }
        }
        for a in 0..n {
            for b in 0..n {
                let expected = union_find.connected(a, b);
                let got = connected(graph, &states, VertexId(a as u64), VertexId(b as u64));
                assert_eq!(
                    got,
                    expected,
                    "{}: open set {mask:#b}, pair ({a}, {b})",
                    graph.name()
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn connected_equals_union_find_on_every_open_set_of_c8() {
    let cycle = Torus::new(1, 8);
    assert_eq!(cycle.num_edges(), 8);
    assert_eq!(enumerate_all_open_sets(&cycle), (1 << 8) * 64);
}

#[test]
fn connected_equals_union_find_on_every_open_set_of_k4() {
    let k4 = CompleteGraph::new(4);
    assert_eq!(k4.num_edges(), 6);
    assert_eq!(enumerate_all_open_sets(&k4), (1 << 6) * 16);
}

#[test]
fn connected_equals_union_find_on_every_open_set_of_the_3x3_mesh() {
    let mesh = Mesh::new(2, 3);
    assert_eq!(mesh.num_edges(), 12);
    assert_eq!(enumerate_all_open_sets(&mesh), (1 << 12) * 81);
}

#[test]
fn connected_equals_union_find_on_every_open_set_of_h3() {
    let cube = Hypercube::new(3);
    assert_eq!(cube.num_edges(), 12);
    assert_eq!(enumerate_all_open_sets(&cube), (1 << 12) * 64);
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compares `connected` with the one-sided BFS on `graph` at every
/// retention probability, tallying the expected answers in `outcomes`.
fn check_against_bfs<T: Topology>(graph: &T, outcomes: &mut [u32; 2]) {
    let n = graph.num_vertices();
    let (far_u, far_v) = graph.canonical_pair();
    for (pi, p) in [0.0, 0.2, 0.5, 1.0].into_iter().enumerate() {
        for seed in 0..3u64 {
            let sampler = PercolationConfig::new(p, 100 * pi as u64 + seed).sampler();
            let gp = PercolatedGraph::new(graph, &sampler);
            let last = VertexId(n - 1);
            let mut pairs = vec![
                (far_u, far_v),
                (far_v, far_u),
                (VertexId(0), VertexId(0)),
                (last, last),
            ];
            if let Some(x) = graph.vertices().find(|v| gp.open_degree(*v) == 0) {
                pairs.extend([(x, x), (x, far_v), (far_u, x)]);
            }
            let mut rng = seed ^ n;
            for _ in 0..12 {
                let a = VertexId(splitmix(&mut rng) % n);
                let b = VertexId(splitmix(&mut rng) % n);
                pairs.push((a, b));
            }
            for (a, b) in pairs {
                let expected = bfs(graph, &sampler, a, BfsOptions::default()).reached(b);
                assert_eq!(
                    connected(graph, &sampler, a, b),
                    expected,
                    "{} at p = {p}, seed {seed}, pair ({a}, {b})",
                    graph.name()
                );
                outcomes[usize::from(expected)] += 1;
            }
        }
    }
}

/// The topology zoo of the other property suites, plus two loaded
/// substrates (a scale-free graph and a real network).
#[test]
fn connected_equals_one_sided_bfs_across_the_zoo() {
    let mut outcomes = [0u32; 2];
    check_against_bfs(&Hypercube::new(5), &mut outcomes);
    check_against_bfs(&Mesh::new(2, 5), &mut outcomes);
    check_against_bfs(&Torus::new(2, 4), &mut outcomes);
    check_against_bfs(&CompleteGraph::new(16), &mut outcomes);
    check_against_bfs(&DeBruijn::new(5), &mut outcomes);
    check_against_bfs(&ShuffleExchange::new(5), &mut outcomes);
    check_against_bfs(&Butterfly::new(3), &mut outcomes);
    check_against_bfs(&BinaryTree::new(4), &mut outcomes);
    check_against_bfs(&DoubleBinaryTree::new(3), &mut outcomes);
    check_against_bfs(
        &CycleWithMatching::new(16, MatchingKind::Antipodal),
        &mut outcomes,
    );
    check_against_bfs(
        &CycleWithMatching::new(16, MatchingKind::Random { seed: 5 }),
        &mut outcomes,
    );
    check_against_bfs(
        &ExplicitGraph::from_topology(&Mesh::new(2, 4)),
        &mut outcomes,
    );
    for substrate in ["ba-256-3", "karate"] {
        let graph = SubstrateSpec::parse(substrate).unwrap().build();
        check_against_bfs(&graph, &mut outcomes);
    }
    assert!(outcomes[0] > 100 && outcomes[1] > 100, "{outcomes:?}");
}
