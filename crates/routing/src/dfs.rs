//! Generic local depth-first-search router.
//!
//! The flooding router ([`crate::bfs::FloodRouter`]) explores the discovered
//! component breadth first; this router explores it depth first. Both are
//! "exhaustive" local algorithms in the sense of the paper's baseline upper
//! bound, and both are subject to the same lower bounds (Lemma 5,
//! Theorems 3(i), 7, 10), but their probe counts differ on individual
//! instances: DFS commits to long speculative walks and can get lucky (or
//! very unlucky), while BFS pays for the full frontier at every radius. The
//! ablation experiments use the pair to show that the paper's lower bounds
//! are about *any* local strategy, not about one particular search order.

use faultnet_percolation::sample::EdgeStates;
use faultnet_topology::hash::{FxHashMap, FxHashSet};
use faultnet_topology::{Topology, VertexId};

use crate::path::Path;
use crate::probe::ProbeEngine;
use crate::router::{Locality, RouteError, RouteOutcome, Router};

/// How the depth-first router orders the neighbors it tries first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborOrder {
    /// The topology's natural neighbor order.
    #[default]
    Natural,
    /// Prefer neighbors closer to the target under the topology's metric
    /// (falls back to natural order when no metric is available).
    GreedyTowardsTarget,
    /// Reverse of the natural order.
    Reversed,
}

/// Local depth-first-search router, generic over the topology.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::PercolationConfig;
/// use faultnet_routing::{dfs::DepthFirstRouter, probe::ProbeEngine, router::Router};
/// use faultnet_topology::{mesh::Mesh, Topology};
///
/// let grid = Mesh::new(2, 8);
/// let sampler = PercolationConfig::new(1.0, 0).sampler();
/// let (u, v) = grid.canonical_pair();
/// let mut engine = ProbeEngine::local(&grid, &sampler, u);
/// let outcome = DepthFirstRouter::default().route(&mut engine, u, v)?;
/// assert!(outcome.is_success());
/// # Ok::<(), faultnet_routing::router::RouteError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthFirstRouter {
    order: NeighborOrder,
}

impl DepthFirstRouter {
    /// Creates a DFS router with the given neighbor ordering.
    pub fn new(order: NeighborOrder) -> Self {
        DepthFirstRouter { order }
    }

    /// The configured neighbor ordering.
    pub fn order(&self) -> NeighborOrder {
        self.order
    }

    fn ordered_neighbors<T: Topology>(
        &self,
        graph: &T,
        v: VertexId,
        target: VertexId,
    ) -> Vec<VertexId> {
        // The DFS pops candidates from the *back* of the returned vector, so
        // the most-preferred neighbor must come last.
        let mut neighbors = graph.neighbors(v);
        match self.order {
            NeighborOrder::Natural => neighbors.reverse(),
            NeighborOrder::Reversed => {}
            NeighborOrder::GreedyTowardsTarget => {
                if graph.distance(v, target).is_some() {
                    neighbors.sort_by_key(|w| {
                        std::cmp::Reverse(graph.distance(*w, target).unwrap_or(u64::MAX))
                    });
                }
            }
        }
        neighbors
    }
}

impl<T: Topology, S: EdgeStates> Router<T, S> for DepthFirstRouter {
    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> String {
        format!("dfs({:?})", self.order)
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, T, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        if source == target {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::trivial(source)),
            ));
        }
        let graph = engine.graph();
        let mut visited: FxHashSet<VertexId> = FxHashSet::default();
        visited.insert(source);
        let mut parent: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        // Explicit stack of (vertex, neighbors yet to try).
        let mut stack = vec![(source, self.ordered_neighbors(graph, source, target))];
        while let Some(top) = stack.last_mut() {
            let v = top.0;
            let Some(w) = top.1.pop() else {
                stack.pop();
                continue;
            };
            if visited.contains(&w) {
                continue;
            }
            if !engine.probe_between(v, w)? {
                continue;
            }
            visited.insert(w);
            parent.insert(w, v);
            if w == target {
                let mut vertices = vec![w];
                let mut cur = w;
                while cur != source {
                    cur = parent[&cur];
                    vertices.push(cur);
                }
                vertices.reverse();
                return Ok(RouteOutcome::from_engine(engine, Some(Path::new(vertices))));
            }
            let next = self.ordered_neighbors(graph, w, target);
            stack.push((w, next));
        }
        Ok(RouteOutcome::from_engine(engine, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::bfs::connected;
    use faultnet_percolation::PercolationConfig;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;

    #[test]
    fn dfs_is_complete_on_the_mesh() {
        let grid = Mesh::new(2, 8);
        let (u, v) = grid.canonical_pair();
        for seed in 0..15 {
            let sampler = PercolationConfig::new(0.6, seed).sampler();
            let mut engine = ProbeEngine::local(&grid, &sampler, u);
            let outcome = DepthFirstRouter::default()
                .route(&mut engine, u, v)
                .unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&grid, &sampler, u, v),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&grid, &sampler));
                assert!(path.connects(u, v));
                assert!(path.is_simple());
            }
        }
    }

    #[test]
    fn dfs_is_complete_on_the_hypercube() {
        let cube = Hypercube::new(8);
        let (u, v) = cube.canonical_pair();
        for seed in 0..10 {
            let sampler = PercolationConfig::new(0.35, seed).sampler();
            let mut engine = ProbeEngine::local(&cube, &sampler, u);
            let outcome = DepthFirstRouter::new(NeighborOrder::GreedyTowardsTarget)
                .route(&mut engine, u, v)
                .unwrap();
            assert_eq!(outcome.is_success(), connected(&cube, &sampler, u, v));
        }
    }

    #[test]
    fn greedy_order_is_cheap_on_fault_free_graphs() {
        let cube = Hypercube::new(10);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (u, v) = cube.canonical_pair();
        let mut greedy_engine = ProbeEngine::local(&cube, &sampler, u);
        let greedy = DepthFirstRouter::new(NeighborOrder::GreedyTowardsTarget)
            .route(&mut greedy_engine, u, v)
            .unwrap();
        let mut natural_engine = ProbeEngine::local(&cube, &sampler, u);
        let natural = DepthFirstRouter::new(NeighborOrder::Natural)
            .route(&mut natural_engine, u, v)
            .unwrap();
        assert!(greedy.is_success() && natural.is_success());
        // With every edge open, target-directed DFS walks straight there.
        assert!(greedy.probes <= 10, "greedy probes {}", greedy.probes);
        assert!(greedy.probes <= natural.probes);
    }

    #[test]
    fn orders_differ_but_both_terminate() {
        let grid = Mesh::new(2, 6);
        let (u, v) = grid.canonical_pair();
        let sampler = PercolationConfig::new(0.55, 4).sampler();
        for order in [
            NeighborOrder::Natural,
            NeighborOrder::Reversed,
            NeighborOrder::GreedyTowardsTarget,
        ] {
            let mut engine = ProbeEngine::local(&grid, &sampler, u);
            let outcome = DepthFirstRouter::new(order)
                .route(&mut engine, u, v)
                .unwrap();
            assert_eq!(outcome.is_success(), connected(&grid, &sampler, u, v));
        }
    }

    #[test]
    fn trivial_route_and_metadata() {
        use faultnet_percolation::EdgeSampler;
        let grid = Mesh::new(2, 4);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let mut engine = ProbeEngine::local(&grid, &sampler, VertexId(3));
        let outcome = DepthFirstRouter::default()
            .route(&mut engine, VertexId(3), VertexId(3))
            .unwrap();
        assert!(outcome.is_success());
        assert_eq!(outcome.probes, 0);
        let router = DepthFirstRouter::default();
        assert_eq!(
            Router::<Mesh, EdgeSampler>::locality(&router),
            Locality::Local
        );
        assert!(Router::<Mesh, EdgeSampler>::name(&router).contains("dfs"));
        assert_eq!(router.order(), NeighborOrder::Natural);
    }
}
