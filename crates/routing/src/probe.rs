//! The probe engine: metered access to edge states.
//!
//! Every router in this crate learns about the percolation instance
//! exclusively through a [`ProbeEngine`]. The engine
//!
//! * answers "is this edge open?" queries,
//! * counts them (both raw queries and distinct edges probed — the paper's
//!   complexity counts queries, and all our routers are written so the two
//!   coincide),
//! * optionally enforces the **locality** constraint of Definition 1: a
//!   probe is only legal if one endpoint of the edge is already connected to
//!   the start vertex by a path of previously-probed open edges,
//! * optionally enforces a probe **budget**, so lower-bound experiments can
//!   stop an exponential search without running it to completion.

use std::fmt;

use faultnet_percolation::sample::EdgeStates;
use faultnet_topology::hash::{FxHashMap, FxHashSet};
use faultnet_topology::{EdgeId, Topology, VertexId};

use crate::router::Locality;

/// Errors raised by [`ProbeEngine::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeError {
    /// The probed pair is not an edge of the underlying topology.
    NotAnEdge {
        /// The offending edge.
        edge: EdgeId,
    },
    /// A local engine was asked to probe an edge neither endpoint of which
    /// has been reached from the start vertex.
    LocalityViolation {
        /// The offending edge.
        edge: EdgeId,
    },
    /// The probe budget has been exhausted.
    BudgetExhausted {
        /// The budget that was in force.
        budget: u64,
    },
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::NotAnEdge { edge } => write!(f, "{edge} is not an edge of the topology"),
            ProbeError::LocalityViolation { edge } => {
                write!(f, "local probe of {edge} from an unreached vertex")
            }
            ProbeError::BudgetExhausted { budget } => {
                write!(f, "probe budget of {budget} exhausted")
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// Metered access to the open/closed state of edges of one percolation
/// instance.
///
/// # Examples
///
/// ```
/// use faultnet_percolation::PercolationConfig;
/// use faultnet_routing::probe::ProbeEngine;
/// use faultnet_topology::{hypercube::Hypercube, Topology, VertexId};
///
/// let cube = Hypercube::new(4);
/// let sampler = PercolationConfig::new(1.0, 0).sampler();
/// let mut engine = ProbeEngine::local(&cube, &sampler, VertexId(0));
/// let open = engine.probe_between(VertexId(0), VertexId(1))?;
/// assert!(open);
/// assert_eq!(engine.probes_used(), 1);
/// # Ok::<(), faultnet_routing::probe::ProbeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProbeEngine<'a, T, S> {
    graph: &'a T,
    states: &'a S,
    cache: FxHashMap<EdgeId, bool>,
    queries: u64,
    budget: Option<u64>,
    locality: Option<LocalityState>,
}

#[derive(Debug, Clone)]
struct LocalityState {
    start: VertexId,
    reached: FxHashSet<VertexId>,
}

impl<'a, T: Topology, S: EdgeStates> ProbeEngine<'a, T, S> {
    /// Creates an engine for *oracle* routing: any edge of the topology may
    /// be probed at any time.
    pub fn oracle(graph: &'a T, states: &'a S) -> Self {
        ProbeEngine {
            graph,
            states,
            cache: FxHashMap::default(),
            queries: 0,
            budget: None,
            locality: None,
        }
    }

    /// Creates an engine for *local* routing from `start`: a probe is legal
    /// only if one endpoint of the edge has already been reached from
    /// `start` through probed open edges (Definition 1).
    pub fn local(graph: &'a T, states: &'a S, start: VertexId) -> Self {
        let mut reached = FxHashSet::default();
        reached.insert(start);
        ProbeEngine {
            graph,
            states,
            cache: FxHashMap::default(),
            queries: 0,
            budget: None,
            locality: Some(LocalityState { start, reached }),
        }
    }

    /// Creates an engine matching `locality` (local engines start at `start`).
    pub fn with_locality(graph: &'a T, states: &'a S, locality: Locality, start: VertexId) -> Self {
        match locality {
            Locality::Local => ProbeEngine::local(graph, states, start),
            Locality::Oracle => ProbeEngine::oracle(graph, states),
        }
    }

    /// Limits the number of distinct probes; exceeding it makes
    /// [`ProbeEngine::probe`] return [`ProbeError::BudgetExhausted`].
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The underlying fault-free topology.
    pub fn graph(&self) -> &'a T {
        self.graph
    }

    /// Whether this engine enforces locality.
    pub fn locality(&self) -> Locality {
        if self.locality.is_some() {
            Locality::Local
        } else {
            Locality::Oracle
        }
    }

    /// The probe budget, if one is set.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Number of *distinct edges* probed so far — the paper's routing
    /// complexity (all routers in this crate avoid re-probing, so this equals
    /// the number of queries they issue).
    pub fn probes_used(&self) -> u64 {
        self.cache.len() as u64
    }

    /// Number of raw probe calls, counting repeats (repeats are answered
    /// from the cache and are not charged against the budget).
    pub fn queries_issued(&self) -> u64 {
        self.queries
    }

    /// Probes the edge `edge`.
    ///
    /// # Errors
    ///
    /// * [`ProbeError::NotAnEdge`] if `edge` is not an edge of the topology.
    /// * [`ProbeError::LocalityViolation`] if the engine is local and neither
    ///   endpoint has been reached.
    /// * [`ProbeError::BudgetExhausted`] if the probe budget would be
    ///   exceeded by a new (non-cached) probe.
    pub fn probe(&mut self, edge: EdgeId) -> Result<bool, ProbeError> {
        if !self.graph.has_edge(edge.lo(), edge.hi()) {
            return Err(ProbeError::NotAnEdge { edge });
        }
        if let Some(local) = &self.locality {
            if !local.reached.contains(&edge.lo()) && !local.reached.contains(&edge.hi()) {
                return Err(ProbeError::LocalityViolation { edge });
            }
        }
        self.queries += 1;
        if let Some(&cached) = self.cache.get(&edge) {
            // A repeated query costs nothing new: the algorithm already knows
            // the answer, so only bookkeeping happens here.
            self.note_open_edge(edge, cached);
            return Ok(cached);
        }
        if let Some(budget) = self.budget {
            if self.cache.len() as u64 >= budget {
                return Err(ProbeError::BudgetExhausted { budget });
            }
        }
        let open = self.states.is_open(edge);
        self.cache.insert(edge, open);
        self.note_open_edge(edge, open);
        Ok(open)
    }

    /// Probes the edge between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same as [`ProbeEngine::probe`].
    pub fn probe_between(&mut self, a: VertexId, b: VertexId) -> Result<bool, ProbeError> {
        self.probe(EdgeId::new(a, b))
    }

    /// The set of vertices currently reached from the start vertex (local
    /// engines only).
    pub fn reached(&self) -> Option<&FxHashSet<VertexId>> {
        self.locality.as_ref().map(|l| &l.reached)
    }

    /// Returns `true` if `v` has been reached from the start vertex. Oracle
    /// engines return `true` for every vertex (they have no restriction).
    pub fn is_reached(&self, v: VertexId) -> bool {
        match &self.locality {
            Some(local) => local.reached.contains(&v),
            None => true,
        }
    }

    /// The start vertex of a local engine.
    pub fn start(&self) -> Option<VertexId> {
        self.locality.as_ref().map(|l| l.start)
    }

    fn note_open_edge(&mut self, edge: EdgeId, open: bool) {
        if !open {
            return;
        }
        if let Some(local) = &mut self.locality {
            let lo_in = local.reached.contains(&edge.lo());
            let hi_in = local.reached.contains(&edge.hi());
            if lo_in && !hi_in {
                local.reached.insert(edge.hi());
            } else if hi_in && !lo_in {
                local.reached.insert(edge.lo());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_percolation::sample::FrozenSample;
    use faultnet_percolation::PercolationConfig;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;

    #[test]
    fn oracle_engine_counts_distinct_probes() {
        let cube = Hypercube::new(4);
        let sampler = PercolationConfig::new(0.5, 3).sampler();
        let mut engine = ProbeEngine::oracle(&cube, &sampler);
        let e = EdgeId::new(VertexId(0), VertexId(1));
        let f = EdgeId::new(VertexId(0), VertexId(2));
        let first = engine.probe(e).unwrap();
        let second = engine.probe(e).unwrap();
        assert_eq!(first, second);
        engine.probe(f).unwrap();
        assert_eq!(engine.probes_used(), 2);
        assert_eq!(engine.queries_issued(), 3);
        assert_eq!(engine.locality(), Locality::Oracle);
        assert!(engine.is_reached(VertexId(13)));
    }

    #[test]
    fn probing_a_non_edge_fails() {
        let cube = Hypercube::new(4);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut engine = ProbeEngine::oracle(&cube, &sampler);
        let err = engine
            .probe(EdgeId::new(VertexId(0), VertexId(3)))
            .unwrap_err();
        assert!(matches!(err, ProbeError::NotAnEdge { .. }));
        assert_eq!(engine.probes_used(), 0);
    }

    #[test]
    fn locality_is_enforced_and_grows_with_open_edges() {
        // Path graph 0-1-2-3, all edges open.
        let mesh = Mesh::new(1, 4);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut engine = ProbeEngine::local(&mesh, &sampler, VertexId(0));
        // Probing far away is illegal before anything is reached.
        let err = engine.probe_between(VertexId(2), VertexId(3)).unwrap_err();
        assert!(matches!(err, ProbeError::LocalityViolation { .. }));
        // Legal probes extend the reached set.
        assert!(engine.probe_between(VertexId(0), VertexId(1)).unwrap());
        assert!(engine.is_reached(VertexId(1)));
        assert!(engine.probe_between(VertexId(1), VertexId(2)).unwrap());
        assert!(engine.probe_between(VertexId(2), VertexId(3)).unwrap());
        assert_eq!(engine.reached().unwrap().len(), 4);
        assert_eq!(engine.start(), Some(VertexId(0)));
        assert_eq!(engine.locality(), Locality::Local);
    }

    #[test]
    fn closed_edges_do_not_extend_reach() {
        // Path graph 0-1-2 with edge {0,1} closed and {1,2} open.
        let mesh = Mesh::new(1, 3);
        let mut sample = FrozenSample::new();
        sample.open_edge(EdgeId::new(VertexId(1), VertexId(2)));
        let mut engine = ProbeEngine::local(&mesh, &sample, VertexId(0));
        assert!(!engine.probe_between(VertexId(0), VertexId(1)).unwrap());
        assert!(!engine.is_reached(VertexId(1)));
        // {1,2} is still illegal: 1 was never reached because {0,1} is closed.
        let err = engine.probe_between(VertexId(1), VertexId(2)).unwrap_err();
        assert!(matches!(err, ProbeError::LocalityViolation { .. }));
    }

    #[test]
    fn budget_is_enforced_on_new_probes_only() {
        let cube = Hypercube::new(4);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let mut engine = ProbeEngine::oracle(&cube, &sampler).with_budget(2);
        assert_eq!(engine.budget(), Some(2));
        let e1 = EdgeId::new(VertexId(0), VertexId(1));
        let e2 = EdgeId::new(VertexId(0), VertexId(2));
        let e3 = EdgeId::new(VertexId(0), VertexId(4));
        engine.probe(e1).unwrap();
        engine.probe(e2).unwrap();
        // repeated probe is free
        engine.probe(e1).unwrap();
        let err = engine.probe(e3).unwrap_err();
        assert_eq!(err, ProbeError::BudgetExhausted { budget: 2 });
        assert_eq!(engine.probes_used(), 2);
    }

    #[test]
    fn with_locality_constructor() {
        let cube = Hypercube::new(3);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let local = ProbeEngine::with_locality(&cube, &sampler, Locality::Local, VertexId(0));
        let oracle = ProbeEngine::with_locality(&cube, &sampler, Locality::Oracle, VertexId(0));
        assert_eq!(local.locality(), Locality::Local);
        assert_eq!(oracle.locality(), Locality::Oracle);
    }

    #[test]
    fn error_display() {
        let e = EdgeId::new(VertexId(0), VertexId(1));
        assert!(ProbeError::NotAnEdge { edge: e }
            .to_string()
            .contains("not an edge"));
        assert!(ProbeError::LocalityViolation { edge: e }
            .to_string()
            .contains("local probe"));
        assert!(ProbeError::BudgetExhausted { budget: 5 }
            .to_string()
            .contains("budget"));
    }
}
