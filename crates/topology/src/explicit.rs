//! An explicit adjacency-list graph.
//!
//! Most of the workspace operates on the implicit families, but an explicit
//! graph is occasionally useful: as a conversion target when an algorithm
//! genuinely needs to materialise a (small) graph, as a test double for
//! hand-crafted counter-examples, and as the escape hatch for user-supplied
//! topologies.

use crate::{EdgeId, Topology, VertexId};

/// A graph stored as adjacency lists.
///
/// # Examples
///
/// ```
/// use faultnet_topology::{explicit::ExplicitGraph, Topology, VertexId};
///
/// // A triangle with a pendant vertex.
/// let g = ExplicitGraph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(VertexId(2)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitGraph {
    adjacency: Vec<Vec<VertexId>>,
    /// Prefix sums of the degrees (CSR offsets, `V + 1` entries):
    /// `offsets[v]` is where `v`'s adjacency slots start in the edge-index
    /// space, and `offsets[V] = 2|E|` is the index bound.
    offsets: Vec<u64>,
    num_edges: u64,
    /// Cached so `max_degree` needs no O(V) scan.
    max_degree: usize,
    label: String,
}

impl ExplicitGraph {
    /// Creates an empty graph on `n` isolated vertices.
    pub fn new(n: u64) -> Self {
        ExplicitGraph {
            adjacency: vec![Vec::new(); n as usize],
            offsets: vec![0; n as usize + 1],
            num_edges: 0,
            max_degree: 0,
            label: format!("explicit(n={n})"),
        }
    }

    /// Builds a graph on `n` vertices from an edge list. Duplicate edges are
    /// counted once and self-loops are ignored — this is the loader-facing
    /// contract, so raw real-world edge lists (AS graphs ship both) build
    /// without preprocessing. Direction is irrelevant: `(a, b)` and `(b, a)`
    /// are the same undirected edge.
    ///
    /// The whole list is canonicalised, sorted, and deduplicated in
    /// `O(E log E)` before adjacency construction — no per-insertion
    /// duplicate scan, so hub vertices (scale-free graphs routinely
    /// concentrate thousands of edges on one vertex) cost the same per edge
    /// as everything else. Adjacency lists come out sorted by neighbor id,
    /// a deterministic order independent of the input order, so
    /// [`Topology::edge_index`] slots — and everything rendered from them —
    /// are byte-stable across permutations of the same edge set.
    ///
    /// For incremental, strictly validated construction use
    /// [`ExplicitGraph::add_edge`], which *panics* on self-loops instead of
    /// skipping them.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<I>(n: u64, edges: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut canonical: Vec<(u64, u64)> = Vec::new();
        for (a, b) in edges {
            assert!(a < n, "vertex v{a} out of range");
            assert!(b < n, "vertex v{b} out of range");
            if a == b {
                continue; // self-loops are ignored on the bulk path
            }
            canonical.push((a.min(b), a.max(b)));
        }
        canonical.sort_unstable();
        canonical.dedup();
        let mut adjacency = vec![Vec::new(); n as usize];
        // Scanning canonical (lo, hi) pairs in sorted order appends each
        // vertex's smaller neighbors in increasing order first (edges where
        // it is `hi`, sorted by `lo`) and then its larger neighbors in
        // increasing order (edges where it is `lo`, sorted by `hi`), so
        // every adjacency list ends up fully sorted without a second pass.
        for &(a, b) in &canonical {
            adjacency[a as usize].push(VertexId(b));
            adjacency[b as usize].push(VertexId(a));
        }
        let max_degree = adjacency.iter().map(Vec::len).max().unwrap_or(0);
        let offsets = std::iter::once(0)
            .chain(adjacency.iter().scan(0u64, |end, list| {
                *end += list.len() as u64;
                Some(*end)
            }))
            .collect();
        ExplicitGraph {
            adjacency,
            offsets,
            num_edges: canonical.len() as u64,
            max_degree,
            label: format!("explicit(n={n})"),
        }
    }

    /// Materialises any [`Topology`] into an explicit graph (intended for
    /// small graphs; the hypercube at `n = 20` would need hundreds of MB).
    ///
    /// Built through the bulk [`ExplicitGraph::from_edges`] path, so the
    /// adjacency lists are sorted by neighbor id regardless of the source's
    /// enumeration order.
    pub fn from_topology<T: Topology + ?Sized>(source: &T) -> Self {
        let mut g = ExplicitGraph::from_edges(
            source.num_vertices(),
            source.edges().into_iter().map(|e| (e.lo().0, e.hi().0)),
        );
        g.label = format!("explicit({})", source.name());
        g
    }

    /// Adds the undirected edge `{a, b}`. Returns `true` if the edge was new.
    ///
    /// This is the strict direct API: hand-built graphs want a self-loop to
    /// fail loudly, so unlike the forgiving bulk [`ExplicitGraph::from_edges`]
    /// path it panics rather than skipping. It appends in insertion order
    /// (no re-sort) and scans one adjacency list per call to detect
    /// duplicates, then refreshes the edge-index offsets from the lower
    /// endpoint onward (O(V)) — fine for hand-crafted graphs, quadratic on
    /// larger ones; bulk construction should go through
    /// [`ExplicitGraph::from_edges`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or `a == b`.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        assert!(self.contains(a), "vertex {a} out of range");
        assert!(self.contains(b), "vertex {b} out of range");
        assert_ne!(a, b, "self-loops are not supported");
        if self.adjacency[a.0 as usize].contains(&b) {
            return false;
        }
        self.adjacency[a.0 as usize].push(b);
        self.adjacency[b.0 as usize].push(a);
        // Every offset past `lo` moves by one slot, every offset past `hi`
        // by two.
        let (lo, hi) = (a.0.min(b.0) as usize, a.0.max(b.0) as usize);
        for offset in &mut self.offsets[lo + 1..=hi] {
            *offset += 1;
        }
        for offset in &mut self.offsets[hi + 1..] {
            *offset += 2;
        }
        self.max_degree = self
            .max_degree
            .max(self.adjacency[a.0 as usize].len())
            .max(self.adjacency[b.0 as usize].len());
        self.num_edges += 1;
        true
    }

    /// Sets the human-readable name reported by [`Topology::name`].
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }
}

impl Topology for ExplicitGraph {
    fn num_vertices(&self) -> u64 {
        self.adjacency.len() as u64
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    fn neighbors(&self, v: VertexId) -> Vec<VertexId> {
        assert!(self.contains(v), "vertex {v} out of range");
        self.adjacency[v.0 as usize].clone()
    }

    fn degree(&self, v: VertexId) -> usize {
        assert!(self.contains(v), "vertex {v} out of range");
        self.adjacency[v.0 as usize].len()
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    /// `offsets[lo] + slot`, where `offsets` is the prefix sum of the
    /// degrees (CSR layout) and `slot` is the position of `hi` in `lo`'s
    /// adjacency list, so the index space is exactly the `2|E|` adjacency
    /// slots (see [`Topology::edge_index_bound`]). Indices are a pure
    /// function of the graph's current adjacency (later `add_edge` calls
    /// re-shape the space — rebuild any materialised sample after
    /// mutating). Each query scans one adjacency list (O(Δ)), which keeps
    /// the escape hatch on the bitset path without maintaining an extra map.
    fn edge_index(&self, edge: EdgeId) -> Option<u64> {
        if !self.contains(edge.hi()) {
            return None;
        }
        let slot = self.adjacency[edge.lo().0 as usize]
            .iter()
            .position(|w| *w == edge.hi())?;
        Some(self.offsets[edge.lo().0 as usize] + slot as u64)
    }

    /// `2|E|`: one slot per adjacency entry, of which each edge uses the
    /// one at its lower endpoint.
    fn edge_index_bound(&self) -> Option<u64> {
        Some(self.offsets[self.adjacency.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_topology_invariants, hypercube::Hypercube, mesh::Mesh};

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = ExplicitGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(g.num_edges(), 5);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        check_topology_invariants(&g);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let g = ExplicitGraph::from_edges(3, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn from_edges_skips_self_loops_per_the_documented_contract() {
        // The loader-contract pin: a raw real-world edge list — self-loops,
        // duplicates in both orientations, all mixed in — must build the
        // documented graph without panicking. (The strict add_edge path
        // still panics on a self-loop; see self_loop_rejected below.)
        let g = ExplicitGraph::from_edges(
            4,
            [
                (0, 0),
                (0, 1),
                (1, 0),
                (2, 2),
                (1, 2),
                (0, 1),
                (3, 3),
                (2, 3),
            ],
        );
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(VertexId(0)), vec![VertexId(1)]);
        assert_eq!(g.neighbors(VertexId(2)), vec![VertexId(1), VertexId(3)]);
        check_topology_invariants(&g);
    }

    #[test]
    fn from_edges_is_deterministic_across_input_permutations() {
        // Same edge set, shuffled and re-oriented: identical graph,
        // identical adjacency order, identical edge_index slots.
        let a = ExplicitGraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let b = ExplicitGraph::from_edges(5, [(3, 1), (0, 4), (3, 2), (2, 1), (1, 0), (4, 3)]);
        assert_eq!(a, b);
        for e in a.edges() {
            assert_eq!(a.edge_index(e), b.edge_index(e));
        }
        // And adjacency lists are sorted by neighbor id.
        for v in a.vertices() {
            let neigh = a.neighbors(v);
            let mut sorted = neigh.clone();
            sorted.sort();
            assert_eq!(neigh, sorted, "adjacency of {v} is not sorted");
        }
    }

    #[test]
    fn bulk_and_incremental_construction_agree_on_clean_input() {
        // On an already-clean edge list the bulk path and the strict path
        // build the same graph up to adjacency order (which the bulk path
        // canonicalises by sorting).
        let edges = [(0u64, 1u64), (1, 2), (2, 0), (2, 3), (3, 4)];
        let bulk = ExplicitGraph::from_edges(5, edges);
        let mut strict = ExplicitGraph::new(5);
        for (a, b) in edges {
            assert!(strict.add_edge(VertexId(a), VertexId(b)));
        }
        assert_eq!(bulk.num_edges(), strict.num_edges());
        assert_eq!(bulk.max_degree(), strict.max_degree());
        for v in bulk.vertices() {
            let mut s = strict.neighbors(v);
            s.sort();
            assert_eq!(bulk.neighbors(v), s);
        }
    }

    #[test]
    fn from_topology_preserves_structure() {
        let cube = Hypercube::new(4);
        let g = ExplicitGraph::from_topology(&cube);
        assert_eq!(g.num_vertices(), cube.num_vertices());
        assert_eq!(g.num_edges(), cube.num_edges());
        for v in cube.vertices() {
            let mut a = cube.neighbors(v);
            let mut b = g.neighbors(v);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        check_topology_invariants(&g);
    }

    #[test]
    fn from_topology_mesh() {
        let mesh = Mesh::new(2, 4);
        let g = ExplicitGraph::from_topology(&mesh);
        assert_eq!(g.num_edges(), mesh.num_edges());
        check_topology_invariants(&g);
    }

    #[test]
    fn edge_index_uses_adjacency_slots() {
        let mut g = ExplicitGraph::from_edges(5, [(0, 1), (1, 2), (2, 0)]);
        g.add_edge(VertexId(2), VertexId(3));
        g.add_edge(VertexId(2), VertexId(4));
        assert_eq!(g.max_degree(), 4);
        // Degrees [2, 2, 4, 1, 1]: offsets [0, 2, 4, 8, 9, 10], bound 2|E|.
        assert_eq!(g.edge_index_bound(), Some(2 * 5));
        // {0, 1}: slot 0 of vertex 0.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(1))), Some(0));
        // {1, 2}: vertex 1's adjacency is [0, 2], so offset 2 + slot 1.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(1), VertexId(2))), Some(3));
        // {2, 4}: vertex 2's adjacency is [0, 1, 3, 4] (bulk-sorted prefix,
        // then add_edge insertion order), so offset 4 + slot 3.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(2), VertexId(4))), Some(7));
        // Non-edge and out-of-range pairs are rejected.
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(3))), None);
        assert_eq!(g.edge_index(EdgeId::new(VertexId(0), VertexId(9))), None);
    }

    #[test]
    fn labels() {
        let mut g = ExplicitGraph::new(3);
        assert_eq!(g.name(), "explicit(n=3)");
        g.set_label("triangle");
        assert_eq!(g.name(), "triangle");
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = ExplicitGraph::new(2);
        g.add_edge(VertexId(1), VertexId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let mut g = ExplicitGraph::new(2);
        g.add_edge(VertexId(0), VertexId(5));
    }
}
