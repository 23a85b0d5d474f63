//! Routing on the double binary tree `TT_n` (§2.1 and §5 of the paper).
//!
//! The double tree is the paper's cleanest separation between local and
//! oracle routing:
//!
//! * **Theorem 7** — for `1/√2 < p < 1`, *every* local router between the two
//!   roots makes at least `a·p^{-n}` probes with probability `1 − O(a)`:
//!   exponential in the diameter. [`LeafPenetrationRouter`] is the natural
//!   local algorithm (depth-first exploration that descends the first tree
//!   and penetrates the second through the shared leaves); its measured cost
//!   exhibits the exponential growth.
//! * **Theorem 9** — an *oracle* router achieves average complexity `O(n)`:
//!   probe each first-tree edge **together with its mirror image** in the
//!   second tree, and depth-first search for a root-to-leaf branch whose
//!   pairs are all open. This is [`PairedDfsOracleRouter`]; the search is
//!   exactly a supercritical Galton–Watson exploration (edge-pair probability
//!   `p² > 1/2`), so failed branches have constant expected size.

use faultnet_percolation::sample::EdgeStates;
use faultnet_topology::double_tree::{DoubleBinaryTree, TreeSide};
use faultnet_topology::hash::{FxHashMap, FxHashSet};
use faultnet_topology::{Topology, VertexId};

use crate::path::Path;
use crate::probe::ProbeEngine;
use crate::router::{Locality, RouteError, RouteOutcome, Router};

/// Local depth-first router on the double tree.
///
/// Starting from the source root it explores the percolated graph depth
/// first, preferring to descend towards the shared leaves before climbing
/// back up; it stops when the target is reached or the whole reachable
/// component has been explored. Any local algorithm is subject to the
/// Theorem 7 lower bound, and this one makes the mechanism visible: the
/// search must find a leaf whose second-tree branch happens to be open, and
/// almost every leaf fails deep inside the second tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafPenetrationRouter;

impl LeafPenetrationRouter {
    /// Creates the local double-tree router.
    pub fn new() -> Self {
        LeafPenetrationRouter
    }
}

impl<S: EdgeStates> Router<DoubleBinaryTree, S> for LeafPenetrationRouter {
    fn locality(&self) -> Locality {
        Locality::Local
    }

    fn name(&self) -> String {
        "double-tree-leaf-penetration".to_string()
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, DoubleBinaryTree, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        if source == target {
            return Ok(RouteOutcome::from_engine(
                engine,
                Some(Path::trivial(source)),
            ));
        }
        let tree = *engine.graph();
        // Iterative DFS over the open subgraph, probing edges as they are
        // first considered. Children (descending towards the leaves) are
        // pushed last so they are explored first.
        let mut parent: FxHashMap<VertexId, VertexId> = FxHashMap::default();
        let mut visited: FxHashSet<VertexId> = FxHashSet::default();
        visited.insert(source);
        let mut stack = vec![source];
        while let Some(v) = stack.pop() {
            // Order neighbors so that deeper vertices are explored first:
            // parents (towards a root) first on the stack, children last.
            let mut neighbors = tree.neighbors(v);
            neighbors.sort_by_key(|w| tree.depth_of(*w));
            for w in neighbors {
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
                stack.push(w);
            }
        }
        Ok(RouteOutcome::from_engine(engine, None))
    }
}

/// The Theorem 9 oracle router: paired-edge depth-first search.
///
/// Probes every first-tree edge together with its mirror image in the second
/// tree and searches for a root-to-leaf branch all of whose edge *pairs* are
/// open; the route is then that branch followed by its mirror image climbed
/// back up to the other root. Faithful to the paper, the router only looks
/// for such mirror-symmetric paths: when none exists it reports failure even
/// if an asymmetric open path happens to exist (the complexity harness
/// records these as routing failures under the `u ∼ v` conditioning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairedDfsOracleRouter;

impl PairedDfsOracleRouter {
    /// Creates the paired-DFS oracle router.
    pub fn new() -> Self {
        PairedDfsOracleRouter
    }
}

impl<S: EdgeStates> Router<DoubleBinaryTree, S> for PairedDfsOracleRouter {
    fn locality(&self) -> Locality {
        Locality::Oracle
    }

    fn name(&self) -> String {
        "double-tree-paired-dfs".to_string()
    }

    fn route(
        &self,
        engine: &mut ProbeEngine<'_, DoubleBinaryTree, S>,
        source: VertexId,
        target: VertexId,
    ) -> Result<RouteOutcome, RouteError> {
        let tree = *engine.graph();
        let (x, y) = tree.roots();
        let (first_root, _second_root) = if source == x && target == y {
            (x, y)
        } else if source == y && target == x {
            (y, x)
        } else {
            return Err(RouteError::Unsupported(
                "the paired-DFS oracle router routes between the two roots of the double tree"
                    .to_string(),
            ));
        };

        // Depth-first search over branch prefixes whose edge pairs are all
        // open. The stack holds the current branch from the root.
        let mut branch: Vec<VertexId> = vec![first_root];
        // For each level of the branch, which children indices remain to try.
        let mut pending: Vec<Vec<VertexId>> = vec![children_of(&tree, first_root)];
        while let Some(options) = pending.last_mut() {
            match options.pop() {
                Some(child) => {
                    let here = *branch.last().expect("branch is never empty");
                    let open = probe_pair(engine, &tree, here, child)?;
                    if !open {
                        continue;
                    }
                    if tree.side(child) == TreeSide::Leaf {
                        // Found a doubly-open branch: assemble the full path.
                        branch.push(child);
                        let mut vertices = branch.clone();
                        let up = tree.branch_to_root(
                            child,
                            if tree.side(first_root) == TreeSide::First {
                                TreeSide::Second
                            } else {
                                TreeSide::First
                            },
                        );
                        vertices.extend(up.into_iter().skip(1));
                        return Ok(RouteOutcome::from_engine(engine, Some(Path::new(vertices))));
                    }
                    branch.push(child);
                    pending.push(children_of(&tree, child));
                }
                None => {
                    pending.pop();
                    branch.pop();
                }
            }
        }
        Ok(RouteOutcome::from_engine(engine, None))
    }
}

/// The two children of an internal vertex (descending towards the leaves).
fn children_of(tree: &DoubleBinaryTree, v: VertexId) -> Vec<VertexId> {
    match tree.children(v) {
        Some((a, b)) => vec![a, b],
        None => Vec::new(),
    }
}

/// Probes the edge `{parent, child}` together with its mirror image; returns
/// `true` only if both are open.
fn probe_pair<S: EdgeStates>(
    engine: &mut ProbeEngine<'_, DoubleBinaryTree, S>,
    tree: &DoubleBinaryTree,
    parent: VertexId,
    child: VertexId,
) -> Result<bool, RouteError> {
    let first_open = engine.probe_between(parent, child)?;
    let mirror_open = engine.probe_between(tree.mirror(parent), tree.mirror(child))?;
    Ok(first_open && mirror_open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::bfs::connected;
    use faultnet_percolation::PercolationConfig;

    #[test]
    fn local_router_finds_root_to_root_paths() {
        let tt = DoubleBinaryTree::new(5);
        let (x, y) = tt.roots();
        for seed in 0..15 {
            let sampler = PercolationConfig::new(0.85, seed).sampler();
            let mut engine = ProbeEngine::local(&tt, &sampler, x);
            let outcome = LeafPenetrationRouter::new()
                .route(&mut engine, x, y)
                .unwrap();
            assert_eq!(
                outcome.is_success(),
                connected(&tt, &sampler, x, y),
                "seed {seed}"
            );
            if let Some(path) = outcome.path {
                assert!(path.is_valid_open_path(&tt, &sampler));
                assert!(path.connects(x, y));
            }
        }
    }

    #[test]
    fn local_router_on_fault_free_tree_uses_direct_branch() {
        let tt = DoubleBinaryTree::new(4);
        let (x, y) = tt.roots();
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut engine = ProbeEngine::local(&tt, &sampler, x);
        let outcome = LeafPenetrationRouter::new()
            .route(&mut engine, x, y)
            .unwrap();
        let path = outcome.path.unwrap();
        // shortest possible root-to-root path has length 2n
        assert!(path.len() as u64 >= 8);
        assert!(path.is_valid_open_path(&tt, &sampler));
    }

    #[test]
    fn oracle_router_finds_mirror_paths_and_validates() {
        let tt = DoubleBinaryTree::new(6);
        let (x, y) = tt.roots();
        let mut successes = 0;
        for seed in 0..30 {
            let sampler = PercolationConfig::new(0.9, seed).sampler();
            let mut engine = ProbeEngine::oracle(&tt, &sampler);
            let outcome = PairedDfsOracleRouter::new()
                .route(&mut engine, x, y)
                .unwrap();
            if let Some(path) = outcome.path {
                successes += 1;
                assert!(path.is_valid_open_path(&tt, &sampler));
                assert!(path.connects(x, y));
                assert_eq!(path.len() as u64, 2 * 6, "mirror path has length 2n");
            }
        }
        // p = 0.9 → pair probability 0.81, far above 1/2: most instances have
        // a doubly-open branch.
        assert!(successes > 15, "only {successes} successes");
    }

    #[test]
    fn oracle_router_success_implies_connectivity() {
        let tt = DoubleBinaryTree::new(5);
        let (x, y) = tt.roots();
        for seed in 0..20 {
            let sampler = PercolationConfig::new(0.8, seed).sampler();
            let mut engine = ProbeEngine::oracle(&tt, &sampler);
            let outcome = PairedDfsOracleRouter::new()
                .route(&mut engine, x, y)
                .unwrap();
            if outcome.is_success() {
                assert!(connected(&tt, &sampler, x, y), "seed {seed}");
            }
        }
    }

    #[test]
    fn oracle_router_rejects_non_root_pairs() {
        let tt = DoubleBinaryTree::new(3);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut engine = ProbeEngine::oracle(&tt, &sampler);
        let err = PairedDfsOracleRouter::new()
            .route(&mut engine, tt.leaf(0), tt.roots().1)
            .unwrap_err();
        assert!(matches!(err, RouteError::Unsupported(_)));
    }

    #[test]
    fn oracle_router_accepts_reversed_roots() {
        let tt = DoubleBinaryTree::new(4);
        let (x, y) = tt.roots();
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut engine = ProbeEngine::oracle(&tt, &sampler);
        let outcome = PairedDfsOracleRouter::new()
            .route(&mut engine, y, x)
            .unwrap();
        let path = outcome.path.unwrap();
        assert!(path.connects(y, x));
        assert!(path.is_valid_open_path(&tt, &sampler));
    }

    #[test]
    fn oracle_probes_grow_linearly_while_local_probes_explode() {
        // Qualitative Theorem 7 vs Theorem 9 comparison at p = 0.8.
        let p = 0.8;
        let mut local_means = Vec::new();
        let mut oracle_means = Vec::new();
        for depth in [4u32, 6, 8] {
            let tt = DoubleBinaryTree::new(depth);
            let (x, y) = tt.roots();
            let mut local_total = 0u64;
            let mut oracle_total = 0u64;
            let mut counted = 0u64;
            for seed in 0..30 {
                let sampler = PercolationConfig::new(p, seed).sampler();
                if !connected(&tt, &sampler, x, y) {
                    continue;
                }
                let mut le = ProbeEngine::local(&tt, &sampler, x);
                let lo = LeafPenetrationRouter::new().route(&mut le, x, y).unwrap();
                let mut oe = ProbeEngine::oracle(&tt, &sampler);
                let oo = PairedDfsOracleRouter::new().route(&mut oe, x, y).unwrap();
                local_total += lo.probes;
                oracle_total += oo.probes;
                counted += 1;
            }
            assert!(counted > 0);
            local_means.push(local_total as f64 / counted as f64);
            oracle_means.push(oracle_total as f64 / counted as f64);
        }
        // Local cost grows much faster than the oracle cost.
        let local_growth = local_means[2] / local_means[0];
        let oracle_growth = oracle_means[2] / oracle_means[0];
        assert!(
            local_growth > oracle_growth,
            "local {local_means:?} oracle {oracle_means:?}"
        );
    }

    #[test]
    fn router_metadata() {
        use faultnet_percolation::EdgeSampler;
        let local = LeafPenetrationRouter::new();
        let oracle = PairedDfsOracleRouter::new();
        assert_eq!(
            Router::<DoubleBinaryTree, EdgeSampler>::locality(&local),
            Locality::Local
        );
        assert_eq!(
            Router::<DoubleBinaryTree, EdgeSampler>::locality(&oracle),
            Locality::Oracle
        );
        assert!(Router::<DoubleBinaryTree, EdgeSampler>::name(&local).contains("leaf"));
        assert!(Router::<DoubleBinaryTree, EdgeSampler>::name(&oracle).contains("paired"));
    }
}
