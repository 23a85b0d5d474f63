//! Landmark-based routing along a fault-free geodesic.
//!
//! Both efficient local algorithms in the paper share one skeleton:
//!
//! 1. Fix a shortest path `u = u_0, u_1, …, u_m = v` of the *fault-free*
//!    graph (the "landmarks"); this costs no probes because the topology is
//!    known.
//! 2. From the landmark reached so far, run a breadth-first search *in the
//!    percolated graph* (paying one probe per inspected edge) until any later
//!    landmark `u_j` is reached, then continue from `u_j`.
//!
//! Theorem 4 (mesh) uses exactly this with unbounded searches — the
//! Antal–Pisztora chemical-distance bound makes each search cheap in
//! expectation. Theorem 3(ii) (hypercube, `p = n^{-α}`, `α < 1/2`) uses
//! bounded-depth searches between consecutive good vertices; this module
//! supports both through a configurable depth-escalation policy.
//!
//! [`crate::mesh::MeshLandmarkRouter`] and [`crate::hypercube::SegmentRouter`]
//! are thin wrappers around [`LandmarkBfsRouter`] with the paper's defaults.

use std::collections::VecDeque;

use faultnet_percolation::sample::EdgeStates;
use faultnet_topology::hash::FxHashMap;
use faultnet_topology::{Topology, VertexId};

use crate::path::Path;
use crate::probe::ProbeEngine;
use crate::router::{Locality, RouteError, RouteOutcome, Router};

/// How deep the per-landmark breadth-first searches are allowed to go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthPolicy {
    /// Depth of the first search attempt from each landmark.
    pub initial_depth: u64,
    /// Upper limit for the doubling escalation (inclusive). `None` means the
    /// escalation may keep doubling without bound.
    pub max_depth: Option<u64>,
    /// Whether to fall back to an unbounded search once `max_depth` failed.
    /// With the fallback enabled the router is *complete*: it finds a path
    /// whenever one exists.
    pub exhaustive_fallback: bool,
}

impl DepthPolicy {
    /// Unbounded searches from every landmark (the Theorem 4 configuration).
    pub fn unbounded() -> Self {
        DepthPolicy {
            initial_depth: u64::MAX,
            max_depth: None,
            exhaustive_fallback: true,
        }
    }

    /// Bounded searches that start at `initial_depth`, double up to
    /// `max_depth`, and finally fall back to an unbounded search (the
    /// Theorem 3(ii) configuration).
    pub fn escalating(initial_depth: u64, max_depth: u64) -> Self {
        DepthPolicy {
            initial_depth: initial_depth.max(1),
            max_depth: Some(max_depth.max(initial_depth.max(1))),
            exhaustive_fallback: true,
        }
    }
}

impl Default for DepthPolicy {
    fn default() -> Self {
        DepthPolicy::unbounded()
    }
}

/// Local router that walks a fault-free geodesic landmark by landmark,
/// bridging the gaps with probing breadth-first searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkBfsRouter {
    policy: DepthPolicy,
}

impl LandmarkBfsRouter {
    /// Creates a landmark router with the given depth policy.
    pub fn new(policy: DepthPolicy) -> Self {
        LandmarkBfsRouter { policy }
    }

    /// The configured depth policy.
    pub fn policy(&self) -> DepthPolicy {
        self.policy
    }

    /// One probing BFS from `start`, truncated at `depth`, stopping at the
    /// first vertex for which `is_goal` returns `Some(rank)`. Returns the
    /// goal vertex together with the discovered open path `start → goal`.
    fn bounded_search<T: Topology, S: EdgeStates>(
        engine: &mut ProbeEngine<'_, T, S>,
        start: VertexId,
        depth: u64,
        is_goal: &impl Fn(VertexId) -> bool,
    ) -> Result<Option<(VertexId, Vec<VertexId>)>, RouteError> {
        let graph = engine.graph();
        let mut dist: FxHashMap<VertexId, u64> = FxHashMap::default();
        let mut parent: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        dist.insert(start, 0);
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            if d >= depth {
                continue;
            }
            for w in graph.neighbors(v) {
                if dist.contains_key(&w) {
                    continue;
                }
                if !engine.probe_between(v, w)? {
                    continue;
                }
                dist.insert(w, d + 1);
                parent.insert(w, v);
                if is_goal(w) {
                    let mut chain = vec![w];
                    let mut cur = w;
                    while cur != start {
                        cur = parent[&cur];
                        chain.push(cur);
                    }
                    chain.reverse();
                    return Ok(Some((w, chain)));
                }
                queue.push_back(w);
            }
        }
        Ok(None)
    }
}

impl Default for LandmarkBfsRouter {
    fn default() -> Self {
        LandmarkBfsRouter::new(DepthPolicy::default())
    }
}

impl<T: Topology, S: EdgeStates> Router<T, S> for LandmarkBfsRouter {
    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> String {
        match (self.policy.max_depth, self.policy.initial_depth) {
            (None, u64::MAX) => "landmark-bfs(unbounded)".to_string(),
            _ => format!(
                "landmark-bfs(depth={}..{:?})",
                self.policy.initial_depth, self.policy.max_depth
            ),
        }
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
        let landmarks = graph.geodesic(source, target).ok_or_else(|| {
            RouteError::Unsupported(format!(
                "{} does not provide a closed-form geodesic",
                graph.name()
            ))
        })?;
        // Rank of each landmark along the geodesic.
        let rank: FxHashMap<VertexId, usize> =
            landmarks.iter().enumerate().map(|(i, v)| (*v, i)).collect();
        let final_rank = landmarks.len() - 1;

        let mut full_path: Vec<VertexId> = vec![source];
        let mut current = source;
        let mut current_rank = 0usize;

        while current_rank < final_rank {
            let is_goal = |w: VertexId| rank.get(&w).is_some_and(|r| *r > current_rank);
            let mut depth = self.policy.initial_depth;
            let found = loop {
                let attempt = Self::bounded_search(engine, current, depth, &is_goal)?;
                if attempt.is_some() {
                    break attempt;
                }
                match self.policy.max_depth {
                    // Unbounded policy: the single search already explored the
                    // whole component of `current`.
                    None if depth == u64::MAX => break None,
                    None => {
                        depth = depth.saturating_mul(2);
                    }
                    Some(max) if depth >= max => {
                        if self.policy.exhaustive_fallback && depth != u64::MAX {
                            depth = u64::MAX;
                        } else {
                            break None;
                        }
                    }
                    Some(_) => {
                        depth = depth.saturating_mul(2);
                    }
                }
            };
            match found {
                Some((goal, chain)) => {
                    // chain starts at `current`, which is already on the path.
                    full_path.extend(chain.into_iter().skip(1));
                    current_rank = rank[&goal];
                    current = goal;
                }
                None => {
                    // The whole component of `current` contains no later
                    // landmark; in particular it does not contain the target.
                    return Ok(RouteOutcome::from_engine(engine, None));
                }
            }
        }
        Ok(RouteOutcome::from_engine(
            engine,
            Some(Path::new(full_path)),
        ))
    }
}

/// Removes cycles from a walk, producing a simple path with the same
/// endpoints that uses a subset of the walk's edges.
///
/// The landmark router's concatenated segments can in principle revisit a
/// vertex (a later BFS may cut back through an earlier segment); callers that
/// need simple paths can post-process with this helper.
pub fn simplify_walk(walk: &[VertexId]) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = Vec::with_capacity(walk.len());
    let mut position: FxHashMap<VertexId, usize> = FxHashMap::default();
    for &v in walk {
        if let Some(&idx) = position.get(&v) {
            // Cut the loop: drop everything after the first occurrence.
            for dropped in out.drain(idx + 1..) {
                position.remove(&dropped);
            }
        } else {
            position.insert(v, out.len());
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::bfs::connected;
    use faultnet_percolation::PercolationConfig;
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh, Topology};

    #[test]
    fn unbounded_policy_routes_on_fully_open_mesh_with_linear_probes() {
        let mesh = Mesh::new(2, 20);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (u, v) = mesh.canonical_pair();
        let mut engine = ProbeEngine::local(&mesh, &sampler, u);
        let router = LandmarkBfsRouter::default();
        let outcome = router.route(&mut engine, u, v).unwrap();
        let path = outcome.path.unwrap();
        assert!(path.is_valid_open_path(&mesh, &sampler));
        assert!(path.connects(u, v));
        assert_eq!(path.len() as u64, mesh.distance(u, v).unwrap());
        // Each landmark step inspects only the edges at the current vertex.
        let dist = mesh.distance(u, v).unwrap();
        assert!(
            outcome.probes <= 4 * (dist + 1),
            "probes {} for distance {dist}",
            outcome.probes
        );
    }

    #[test]
    fn router_is_complete_on_percolated_mesh() {
        let mesh = Mesh::new(2, 12);
        let (u, v) = mesh.canonical_pair();
        let router = LandmarkBfsRouter::default();
        for seed in 0..20 {
            let sampler = PercolationConfig::new(0.7, seed).sampler();
            let mut engine = ProbeEngine::local(&mesh, &sampler, u);
            let outcome = router.route(&mut engine, u, v).unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&mesh, &sampler, u, v),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&mesh, &sampler));
                assert!(path.connects(u, v));
            }
        }
    }

    #[test]
    fn escalating_policy_is_complete_on_hypercube() {
        let cube = Hypercube::new(9);
        let (u, v) = cube.canonical_pair();
        let router = LandmarkBfsRouter::new(DepthPolicy::escalating(2, 4));
        for seed in 0..10 {
            let sampler = PercolationConfig::new(0.5, seed).sampler();
            let mut engine = ProbeEngine::local(&cube, &sampler, u);
            let outcome = router.route(&mut engine, u, v).unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&cube, &sampler, u, v),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&cube, &sampler));
            }
        }
    }

    #[test]
    fn unsupported_topology_reports_an_error() {
        // The double tree has no closed-form geodesic.
        use faultnet_topology::double_tree::DoubleBinaryTree;
        let tt = DoubleBinaryTree::new(3);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (x, y) = tt.roots();
        let mut engine = ProbeEngine::local(&tt, &sampler, x);
        let err = LandmarkBfsRouter::default()
            .route(&mut engine, x, y)
            .unwrap_err();
        assert!(matches!(err, RouteError::Unsupported(_)));
    }

    #[test]
    fn trivial_route() {
        let mesh = Mesh::new(2, 4);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let mut engine = ProbeEngine::local(&mesh, &sampler, VertexId(3));
        let outcome = LandmarkBfsRouter::default()
            .route(&mut engine, VertexId(3), VertexId(3))
            .unwrap();
        assert!(outcome.is_success());
        assert_eq!(outcome.probes, 0);
    }

    #[test]
    fn depth_policy_constructors() {
        let unbounded = DepthPolicy::unbounded();
        assert_eq!(unbounded.max_depth, None);
        let esc = DepthPolicy::escalating(0, 0);
        assert_eq!(esc.initial_depth, 1);
        assert_eq!(esc.max_depth, Some(1));
        let esc = DepthPolicy::escalating(2, 8);
        assert_eq!(esc.initial_depth, 2);
        assert_eq!(esc.max_depth, Some(8));
    }

    #[test]
    fn simplify_walk_removes_cycles() {
        let walk = vec![
            VertexId(0),
            VertexId(1),
            VertexId(2),
            VertexId(1),
            VertexId(3),
        ];
        assert_eq!(
            simplify_walk(&walk),
            vec![VertexId(0), VertexId(1), VertexId(3)]
        );
        let simple = vec![VertexId(4), VertexId(5)];
        assert_eq!(simplify_walk(&simple), simple);
        assert!(simplify_walk(&[]).is_empty());
    }
}
