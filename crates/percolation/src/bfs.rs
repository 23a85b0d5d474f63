//! Breadth-first search over the open subgraph.
//!
//! Provides percolation ("chemical") distances, open shortest paths, open
//! balls, and reachability — the ground truth against which the metered
//! routers in `faultnet-routing` are validated. [`connected`], the
//! conditioning check `{u ∼ v}` of every routing trial, is a bidirectional
//! search of its own rather than a BFS tree.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use faultnet_topology::hash::FxHashMap;
use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::sample::EdgeStates;
use crate::subgraph::PercolatedGraph;

/// Result of a (possibly truncated) BFS from a source vertex in the open
/// subgraph.
#[derive(Debug, Clone)]
pub struct BfsTree {
    source: VertexId,
    /// Distance from the source, for every reached vertex.
    dist: FxHashMap<VertexId, u64>,
    /// BFS predecessor for every reached vertex other than the source.
    parent: FxHashMap<VertexId, VertexId>,
}

impl BfsTree {
    /// The source vertex of the search.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of vertices reached (including the source).
    pub fn num_reached(&self) -> usize {
        self.dist.len()
    }

    /// Distance from the source to `v`, if `v` was reached.
    pub fn distance_to(&self, v: VertexId) -> Option<u64> {
        self.dist.get(&v).copied()
    }

    /// Returns `true` if `v` was reached.
    pub fn reached(&self, v: VertexId) -> bool {
        self.dist.contains_key(&v)
    }

    /// The vertices reached, in no particular order.
    pub fn reached_vertices(&self) -> Vec<VertexId> {
        self.dist.keys().copied().collect()
    }

    /// The open path from the source to `v` recorded by the search, if `v`
    /// was reached.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// The eccentricity of the source within its component (the largest
    /// recorded distance).
    pub fn eccentricity(&self) -> u64 {
        self.dist.values().copied().max().unwrap_or(0)
    }

    /// The farthest vertex from the source (ties broken arbitrarily).
    pub fn farthest_vertex(&self) -> VertexId {
        self.dist
            .iter()
            .max_by_key(|(v, d)| (**d, v.0))
            .map(|(v, _)| *v)
            .unwrap_or(self.source)
    }
}

/// Options controlling a BFS sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsOptions {
    /// Stop expanding beyond this depth (the ball radius), if set.
    pub max_depth: Option<u64>,
    /// Stop as soon as this vertex is reached, if set.
    pub target: Option<VertexId>,
}

/// Runs a BFS from `source` in the open subgraph of `graph`.
pub fn bfs<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    source: VertexId,
    options: BfsOptions,
) -> BfsTree {
    let gp = PercolatedGraph::new(graph, states);
    let mut dist = FxHashMap::default();
    let mut parent = FxHashMap::default();
    let mut queue = VecDeque::new();
    // Instrumentation accumulates in locals and reports once at the end,
    // so a disabled build pays one relaxed load per BFS, not per vertex.
    let mut visited = 0u64;
    dist.insert(source, 0u64);
    queue.push_back(source);
    'outer: while let Some(v) = queue.pop_front() {
        visited += 1;
        let d = dist[&v];
        if let Some(max) = options.max_depth {
            if d >= max {
                continue;
            }
        }
        for w in gp.open_neighbors(v) {
            if let Entry::Vacant(slot) = dist.entry(w) {
                slot.insert(d + 1);
                parent.insert(w, v);
                if options.target == Some(w) {
                    break 'outer;
                }
                queue.push_back(w);
            }
        }
    }
    faultnet_obs::count("percolation.bfs.calls", 1);
    faultnet_obs::count("percolation.bfs.visits", visited);
    BfsTree {
        source,
        dist,
        parent,
    }
}

/// The percolation (chemical) distance between `u` and `v`, i.e. the length
/// of a shortest open path; `None` if they are not connected in the open
/// subgraph.
pub fn percolation_distance<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> Option<u64> {
    if u == v {
        return Some(0);
    }
    let tree = bfs(
        graph,
        states,
        u,
        BfsOptions {
            max_depth: None,
            target: Some(v),
        },
    );
    tree.distance_to(v)
}

/// A shortest open path between `u` and `v`, if any.
pub fn shortest_open_path<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> Option<Vec<VertexId>> {
    if u == v {
        return Some(vec![u]);
    }
    let tree = bfs(
        graph,
        states,
        u,
        BfsOptions {
            max_depth: None,
            target: Some(v),
        },
    );
    tree.path_to(v)
}

/// Returns `true` if `u` and `v` are connected by an open path (the paper's
/// event `{u ∼ v}`).
///
/// A bidirectional search: one frontier grows from each endpoint, always
/// the smaller one by a whole level, and every reached vertex carries the
/// mark of the side that reached it. The answer is `true` the moment an
/// open edge joins a vertex of one side to a vertex of the other, and
/// `false` once either frontier empties (that side's open component is
/// exhausted without meeting the other). Memory grows with the vertices
/// touched, not with `|V|`, and no distances or parents are kept.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::{bfs::connected, PercolationConfig};
/// use faultnet_topology::{hypercube::Hypercube, Topology};
///
/// let cube = Hypercube::new(8);
/// let (u, v) = cube.canonical_pair();
/// assert!(connected(&cube, &PercolationConfig::new(1.0, 0).sampler(), u, v));
/// assert!(!connected(&cube, &PercolationConfig::new(0.0, 0).sampler(), u, v));
/// ```
pub fn connected<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    u: VertexId,
    v: VertexId,
) -> bool {
    if u == v {
        return true;
    }
    // side[w] is the index (0 = u's side, 1 = v's side) of the search that
    // reached w first.
    let mut side: FxHashMap<VertexId, usize> = FxHashMap::default();
    side.insert(u, 0);
    side.insert(v, 1);
    let mut frontiers = [vec![u], vec![v]];
    let mut next = Vec::new();
    // Instrumentation accumulates in locals and reports once at the end,
    // as in `bfs`.
    let mut visited = 0u64;
    let met = 'search: loop {
        let s = usize::from(frontiers[1].len() < frontiers[0].len());
        if frontiers[s].is_empty() {
            break false;
        }
        for &x in &frontiers[s] {
            visited += 1;
            for w in graph.neighbors(x) {
                match side.entry(w) {
                    Entry::Occupied(mark) => {
                        if *mark.get() != s && states.is_open(EdgeId::new(x, w)) {
                            break 'search true;
                        }
                    }
                    Entry::Vacant(slot) => {
                        if states.is_open(EdgeId::new(x, w)) {
                            slot.insert(s);
                            next.push(w);
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut frontiers[s], &mut next);
        next.clear();
    };
    faultnet_obs::count("percolation.connected.calls", 1);
    faultnet_obs::count("percolation.connected.visits", visited);
    met
}

/// The set of vertices within open distance `radius` of `center` (an open
/// ball).
pub fn open_ball<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    center: VertexId,
    radius: u64,
) -> Vec<VertexId> {
    bfs(
        graph,
        states,
        center,
        BfsOptions {
            max_depth: Some(radius),
            target: None,
        },
    )
    .reached_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::FrozenSample;
    use crate::PercolationConfig;
    use faultnet_topology::{hypercube::Hypercube, mesh::Mesh, EdgeId};

    #[test]
    fn bfs_on_fully_open_hypercube_matches_hamming() {
        let cube = Hypercube::new(6);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let tree = bfs(&cube, &sampler, VertexId(0), BfsOptions::default());
        assert_eq!(tree.num_reached() as u64, cube.num_vertices());
        for v in cube.vertices() {
            assert_eq!(tree.distance_to(v), cube.distance(VertexId(0), v));
        }
        assert_eq!(tree.eccentricity(), 6);
    }

    #[test]
    fn path_to_is_a_valid_open_path() {
        let cube = Hypercube::new(8);
        let sampler = PercolationConfig::new(0.6, 4).sampler();
        let gp = PercolatedGraph::new(&cube, &sampler);
        let tree = bfs(&cube, &sampler, VertexId(0), BfsOptions::default());
        let target = tree.farthest_vertex();
        let path = tree.path_to(target).unwrap();
        assert!(gp.is_open_path(&path));
        assert_eq!(path.len() as u64, tree.distance_to(target).unwrap() + 1);
        assert_eq!(path[0], VertexId(0));
        assert_eq!(*path.last().unwrap(), target);
    }

    #[test]
    fn unreachable_vertex_not_in_tree() {
        // Path graph 0-1-2-3 with edge {1,2} closed.
        let mesh = Mesh::new(1, 4);
        let mut sample = FrozenSample::new();
        sample.open_edge(EdgeId::new(VertexId(0), VertexId(1)));
        sample.open_edge(EdgeId::new(VertexId(2), VertexId(3)));
        let tree = bfs(&mesh, &sample, VertexId(0), BfsOptions::default());
        assert!(tree.reached(VertexId(1)));
        assert!(!tree.reached(VertexId(2)));
        assert_eq!(tree.path_to(VertexId(3)), None);
        assert!(!connected(&mesh, &sample, VertexId(0), VertexId(3)));
        assert_eq!(
            percolation_distance(&mesh, &sample, VertexId(0), VertexId(3)),
            None
        );
    }

    #[test]
    fn percolation_distance_at_least_graph_distance() {
        let cube = Hypercube::new(9);
        let sampler = PercolationConfig::new(0.55, 17).sampler();
        let u = VertexId(0);
        for v in [VertexId(3), VertexId(100), VertexId(511)] {
            if let Some(d) = percolation_distance(&cube, &sampler, u, v) {
                assert!(d >= cube.distance(u, v).unwrap());
            }
        }
    }

    #[test]
    fn distance_to_self_is_zero() {
        let mesh = Mesh::new(2, 4);
        let sampler = PercolationConfig::new(0.0, 0).sampler();
        assert_eq!(
            percolation_distance(&mesh, &sampler, VertexId(5), VertexId(5)),
            Some(0)
        );
        assert_eq!(
            shortest_open_path(&mesh, &sampler, VertexId(5), VertexId(5)),
            Some(vec![VertexId(5)])
        );
    }

    #[test]
    fn max_depth_truncates_the_ball() {
        let cube = Hypercube::new(8);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let ball2 = open_ball(&cube, &sampler, VertexId(0), 2);
        // 1 + 8 + 28 vertices within Hamming distance 2.
        assert_eq!(ball2.len(), 37);
        let ball0 = open_ball(&cube, &sampler, VertexId(0), 0);
        assert_eq!(ball0, vec![VertexId(0)]);
    }

    #[test]
    fn shortest_open_path_is_shortest() {
        let mesh = Mesh::new(2, 5);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let (u, v) = (VertexId(0), VertexId(24));
        let path = shortest_open_path(&mesh, &sampler, u, v).unwrap();
        assert_eq!(path.len() as u64, mesh.distance(u, v).unwrap() + 1);
    }

    #[test]
    fn early_exit_on_target_still_returns_correct_distance() {
        let cube = Hypercube::new(7);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let u = VertexId(0);
        let v = VertexId(0b1111111);
        assert_eq!(percolation_distance(&cube, &sampler, u, v), Some(7));
    }
}
