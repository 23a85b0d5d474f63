//! Routing in the Erdős–Rényi graph `G_{n,p}` (§5 of the paper).
//!
//! `G_{n,p}` is the percolated complete graph — "a faulty complete graph" in
//! the paper's words. Two results are reproduced:
//!
//! * **Theorem 10** — for `p = c/n` with `c > 1`, *every* local router needs
//!   `Ω(n²)` probes in expectation: the only way to reach new vertices is to
//!   probe edges leaving the discovered set, each succeeding with probability
//!   `c/n`, and the discovered set must reach size `≈ n/c` before an edge to
//!   the target becomes likely. [`IncrementalLocalRouter`] is the natural
//!   local algorithm in this model.
//! * **Theorem 11** — an oracle router achieves average complexity
//!   `O(n^{3/2})` (and no oracle router can do better than `Ω(n^{3/2})`):
//!   grow discovered sets from *both* endpoints to size `≈ √n` and probe the
//!   cross edges, a birthday-paradox argument. [`BidirectionalGrowthRouter`]
//!   implements the algorithm from the proof of Theorem 11.

use std::collections::VecDeque;

use faultnet_percolation::sample::EdgeStates;
use faultnet_topology::complete::CompleteGraph;
use faultnet_topology::hash::{FxHashMap, FxHashSet};
use faultnet_topology::{Topology, VertexId};

use crate::path::Path;
use crate::probe::ProbeEngine;
use crate::router::{Locality, RouteError, RouteOutcome, Router};

/// Local router on `G_{n,p}`: grow the discovered set one open edge at a
/// time, always probing the edge to the target first whenever a new vertex is
/// discovered.
///
/// This is the algorithm implicit in the proof of Theorem 10 (and no local
/// algorithm can beat its asymptotics): reaching each additional vertex costs
/// `≈ n/c` probes, and `Θ(n/c)` vertices must be reached before the target
/// becomes reachable, for a total of `Ω(n²)` probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalLocalRouter;

impl IncrementalLocalRouter {
    /// Creates the local `G_{n,p}` router.
    pub fn new() -> Self {
        IncrementalLocalRouter
    }
}

impl<S: EdgeStates> Router<CompleteGraph, S> for IncrementalLocalRouter {
    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> String {
        "gnp-incremental-local".to_string()
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, CompleteGraph, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        if source == target {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::trivial(source)),
            ));
        }
        let n = engine.graph().num_vertices();
        let mut parent: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        let mut reached: FxHashSet<VertexId> = FxHashSet::default();
        reached.insert(source);
        // Queue of reached vertices whose outgoing edges still need probing.
        let mut queue: VecDeque<VertexId> = VecDeque::from([source]);

        // Whenever a vertex is discovered, its edge to the target is probed
        // immediately (the cheapest possible way to finish).
        let check_target = |engine: &mut ProbeEngine<'_, CompleteGraph, S>,
                            w: VertexId|
         -> Result<bool, RouteError> {
            Ok(w != target && engine.probe_between(w, target)?)
        };

        if check_target(engine, source)? {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::new(vec![source, target])),
            ));
        }

        while let Some(v) = queue.pop_front() {
            for other in 0..n {
                let w = VertexId(other);
                if w == v || reached.contains(&w) || w == target {
                    continue;
                }
                if !engine.probe_between(v, w)? {
                    continue;
                }
                reached.insert(w);
                parent.insert(w, v);
                if check_target(engine, w)? {
                    // Reconstruct source → … → w → target.
                    let mut vertices = vec![target, w];
                    let mut cur = w;
                    while cur != source {
                        cur = parent[&cur];
                        vertices.push(cur);
                    }
                    vertices.reverse();
                    return Ok(RouteOutcome::from_engine(engine, Some(Path::new(vertices))));
                }
                queue.push_back(w);
            }
        }
        Ok(RouteOutcome::from_engine(engine, None))
    }
}

/// Oracle router on `G_{n,p}`: the bidirectional-growth algorithm from the
/// proof of Theorem 11.
///
/// Maintains discovered sets `U_t` (grown from the source) and `V_t` (grown
/// from the target). At every step it (1) probes an unprobed `U_t`–`V_t`
/// cross edge if one exists, otherwise (2) grows the smaller of the two sets
/// by probing an unprobed edge towards a previously unreached vertex. A path
/// is produced as soon as an open cross edge is found. Both sets reach size
/// `Θ(√n)` before a cross edge is likely, giving the `Θ(n^{3/2})` complexity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BidirectionalGrowthRouter;

impl BidirectionalGrowthRouter {
    /// Creates the oracle `G_{n,p}` router.
    pub fn new() -> Self {
        BidirectionalGrowthRouter
    }
}

#[derive(Debug)]
struct GrowthSide {
    members: Vec<VertexId>,
    parent: FxHashMap<VertexId, VertexId>,
    /// Per-member cursor over candidate vertex ids for growth probes.
    next_candidate: FxHashMap<VertexId, u64>,
    /// Index into `members` of the member currently being expanded.
    expand_index: usize,
}

impl GrowthSide {
    fn new(root: VertexId) -> Self {
        let mut next_candidate = FxHashMap::default();
        next_candidate.insert(root, 0);
        GrowthSide {
            members: vec![root],
            parent: FxHashMap::default(),
            next_candidate,
            expand_index: 0,
        }
    }

    fn contains(&self, v: VertexId) -> bool {
        self.next_candidate.contains_key(&v)
    }

    fn add(&mut self, v: VertexId, from: VertexId) {
        self.members.push(v);
        self.parent.insert(v, from);
        self.next_candidate.insert(v, 0);
    }

    fn chain_to_root(&self, from: VertexId, root: VertexId) -> Vec<VertexId> {
        let mut chain = vec![from];
        let mut cur = from;
        while cur != root {
            cur = self.parent[&cur];
            chain.push(cur);
        }
        chain
    }
}

impl<S: EdgeStates> Router<CompleteGraph, S> for BidirectionalGrowthRouter {
    fn locality(&self) -> Locality {
        Locality::Oracle
    }

    fn name(&self) -> String {
        "gnp-bidirectional-growth".to_string()
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, CompleteGraph, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        if source == target {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::trivial(source)),
            ));
        }
        let n = engine.graph().num_vertices();
        let mut u_side = GrowthSide::new(source);
        let mut v_side = GrowthSide::new(target);
        // Unprobed cross pairs; a pair is pushed exactly once, when the later
        // of its endpoints joins its side.
        let mut pending_cross: VecDeque<(VertexId, VertexId)> = VecDeque::from([(source, target)]);

        loop {
            // (1) Probe a pending cross edge if any.
            if let Some((a, b)) = pending_cross.pop_front() {
                if engine.probe_between(a, b)? {
                    let mut vertices = u_side.chain_to_root(a, source);
                    vertices.reverse();
                    vertices.extend(v_side.chain_to_root(b, target));
                    return Ok(RouteOutcome::from_engine(engine, Some(Path::new(vertices))));
                }
                continue;
            }
            // (2) Grow the smaller side by one probe.
            let grow_u = u_side.members.len() <= v_side.members.len();
            let grew = {
                let (side, other) = if grow_u {
                    (&mut u_side, &v_side)
                } else {
                    (&mut v_side, &u_side)
                };
                grow_one(engine, side, other, n)?
            };
            match grew {
                GrowthStep::Added(new_vertex) => {
                    // Schedule cross probes between the new vertex and every
                    // member of the opposite side.
                    let opposite = if grow_u { &v_side } else { &u_side };
                    for b in &opposite.members {
                        pending_cross.push_back(if grow_u {
                            (new_vertex, *b)
                        } else {
                            (*b, new_vertex)
                        });
                    }
                }
                GrowthStep::Probed => {}
                GrowthStep::Exhausted => {
                    // The chosen side cannot grow any further; try the other
                    // one, and give up only when both are stuck.
                    let other_grew = {
                        let (side, other) = if grow_u {
                            (&mut v_side, &u_side)
                        } else {
                            (&mut u_side, &v_side)
                        };
                        grow_one(engine, side, other, n)?
                    };
                    match other_grew {
                        GrowthStep::Added(new_vertex) => {
                            let opposite = if grow_u { &u_side } else { &v_side };
                            for b in &opposite.members {
                                pending_cross.push_back(if grow_u {
                                    (*b, new_vertex)
                                } else {
                                    (new_vertex, *b)
                                });
                            }
                        }
                        GrowthStep::Probed => {}
                        GrowthStep::Exhausted => {
                            return Ok(RouteOutcome::from_engine(engine, None));
                        }
                    }
                }
            }
        }
    }
}

enum GrowthStep {
    /// An open growth edge was found; the vertex was added to the side.
    Added(VertexId),
    /// A growth edge was probed but found closed.
    Probed,
    /// No unprobed growth edge remains for this side.
    Exhausted,
}

/// Probes one growth edge for `side`: an unprobed edge from some member to a
/// vertex belonging to neither side.
fn grow_one<S: EdgeStates>(
    engine: &mut ProbeEngine<'_, CompleteGraph, S>,
    side: &mut GrowthSide,
    other: &GrowthSide,
    n: u64,
) -> Result<GrowthStep, RouteError> {
    let num_members = side.members.len();
    for _ in 0..num_members {
        if side.expand_index >= side.members.len() {
            side.expand_index = 0;
        }
        let member = side.members[side.expand_index];
        loop {
            let cursor = *side.next_candidate.get(&member).expect("member cursor");
            if cursor >= n {
                break;
            }
            *side.next_candidate.get_mut(&member).expect("member cursor") = cursor + 1;
            let candidate = VertexId(cursor);
            if candidate == member || side.contains(candidate) || other.contains(candidate) {
                continue;
            }
            let open = engine.probe_between(member, candidate)?;
            if open {
                side.add(candidate, member);
                return Ok(GrowthStep::Added(candidate));
            }
            return Ok(GrowthStep::Probed);
        }
        // This member has no candidates left; move to the next member.
        side.expand_index += 1;
    }
    Ok(GrowthStep::Exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::bfs::connected;
    use faultnet_percolation::PercolationConfig;

    #[test]
    fn local_router_is_complete() {
        let k = CompleteGraph::new(60);
        let (u, v) = k.canonical_pair();
        let p = 2.0 / 60.0;
        for seed in 0..15 {
            let sampler = PercolationConfig::new(p, seed).sampler();
            let mut engine = ProbeEngine::local(&k, &sampler, u);
            let outcome = IncrementalLocalRouter::new()
                .route(&mut engine, u, v)
                .unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&k, &sampler, u, v),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&k, &sampler));
                assert!(path.connects(u, v));
            }
        }
    }

    #[test]
    fn oracle_router_is_complete() {
        let k = CompleteGraph::new(60);
        let (u, v) = k.canonical_pair();
        let p = 2.0 / 60.0;
        for seed in 0..15 {
            let sampler = PercolationConfig::new(p, seed).sampler();
            let mut engine = ProbeEngine::oracle(&k, &sampler);
            let outcome = BidirectionalGrowthRouter::new()
                .route(&mut engine, u, v)
                .unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&k, &sampler, u, v),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&k, &sampler));
                assert!(path.connects(u, v));
            }
        }
    }

    #[test]
    fn oracle_beats_local_on_average() {
        // Theorem 10 vs Theorem 11: Ω(n²) local vs Θ(n^{3/2}) oracle.
        let n = 150u64;
        let k = CompleteGraph::new(n);
        let (u, v) = k.canonical_pair();
        let p = 3.0 / n as f64;
        let mut local_total = 0u64;
        let mut oracle_total = 0u64;
        let mut counted = 0u64;
        for seed in 0..20 {
            let sampler = PercolationConfig::new(p, seed).sampler();
            if !connected(&k, &sampler, u, v) {
                continue;
            }
            let mut le = ProbeEngine::local(&k, &sampler, u);
            let lo = IncrementalLocalRouter::new().route(&mut le, u, v).unwrap();
            let mut oe = ProbeEngine::oracle(&k, &sampler);
            let oo = BidirectionalGrowthRouter::new()
                .route(&mut oe, u, v)
                .unwrap();
            assert!(lo.is_success() && oo.is_success());
            local_total += lo.probes;
            oracle_total += oo.probes;
            counted += 1;
        }
        assert!(counted >= 10, "too few connected instances");
        assert!(
            oracle_total * 2 < local_total,
            "oracle {oracle_total} should be well below local {local_total}"
        );
    }

    #[test]
    fn both_routers_handle_direct_edge() {
        let k = CompleteGraph::new(10);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (u, v) = (VertexId(0), VertexId(7));
        let mut le = ProbeEngine::local(&k, &sampler, u);
        let lo = IncrementalLocalRouter::new().route(&mut le, u, v).unwrap();
        assert_eq!(lo.path.unwrap().len(), 1);
        let mut oe = ProbeEngine::oracle(&k, &sampler);
        let oo = BidirectionalGrowthRouter::new()
            .route(&mut oe, u, v)
            .unwrap();
        assert_eq!(oo.path.unwrap().len(), 1);
        assert_eq!(oo.probes, 1);
    }

    #[test]
    fn trivial_pair() {
        let k = CompleteGraph::new(5);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let mut le = ProbeEngine::local(&k, &sampler, VertexId(2));
        let lo = IncrementalLocalRouter::new()
            .route(&mut le, VertexId(2), VertexId(2))
            .unwrap();
        assert!(lo.is_success());
        assert_eq!(lo.probes, 0);
        let mut oe = ProbeEngine::oracle(&k, &sampler);
        let oo = BidirectionalGrowthRouter::new()
            .route(&mut oe, VertexId(2), VertexId(2))
            .unwrap();
        assert!(oo.is_success());
    }

    #[test]
    fn disconnected_instance_reports_no_path() {
        let k = CompleteGraph::new(30);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        let (u, v) = k.canonical_pair();
        let mut le = ProbeEngine::local(&k, &sampler, u);
        assert!(!IncrementalLocalRouter::new()
            .route(&mut le, u, v)
            .unwrap()
            .is_success());
        let mut oe = ProbeEngine::oracle(&k, &sampler);
        assert!(!BidirectionalGrowthRouter::new()
            .route(&mut oe, u, v)
            .unwrap()
            .is_success());
    }

    #[test]
    fn router_metadata() {
        use faultnet_percolation::EdgeSampler;
        let local = IncrementalLocalRouter::new();
        let oracle = BidirectionalGrowthRouter::new();
        assert_eq!(
            Router::<CompleteGraph, EdgeSampler>::locality(&local),
            Locality::Local
        );
        assert_eq!(
            Router::<CompleteGraph, EdgeSampler>::locality(&oracle),
            Locality::Oracle
        );
        assert!(Router::<CompleteGraph, EdgeSampler>::name(&local).contains("local"));
        assert!(Router::<CompleteGraph, EdgeSampler>::name(&oracle).contains("growth"));
    }
}
