//! Lower bounds on local routing complexity (Lemma 5, §2; Theorem 3(i), §3.1;
//! Theorem 7, §2.1).
//!
//! The Lower Bound Lemma states: let `V = S ∪ S̄` be a partition with
//! `v ∈ S`, and suppose every edge `e` crossing the cut satisfies
//! `Pr[(v ∼ e) ∈ S] ≤ η`. Then for any local router and any `t`,
//!
//! ```text
//! Pr[X < t] ≤ (t·η + Pr[(u ∼ v) ∈ S]) / Pr[u ∼ v]
//! ```
//!
//! (with the numerator reduced to `t·η` when `u ∉ S`). This module provides
//!
//! * [`CutBound`] — the inequality as a value, with helpers to evaluate it
//!   and to invert it ("how many probes are needed before the success
//!   probability can reach δ?"),
//! * Monte-Carlo estimators for the quantities entering the bound
//!   (`η`, `Pr[(u ∼ v) ∈ S]`, `Pr[u ∼ v]`) on arbitrary graphs and cuts,
//! * the closed-form path-counting bound for hypercube balls from the proof
//!   of Theorem 3(i), evaluated in log-space so that doubly-exponentially
//!   small quantities remain representable, and
//! * the Theorem 7 bound for the double tree.

use std::collections::{HashMap, HashSet, VecDeque};

use faultnet_percolation::sample::EdgeStates;
use faultnet_percolation::PercolationConfig;
use faultnet_topology::hash::FxHashSet;
use faultnet_topology::{EdgeId, Topology, VertexId};

/// The Lemma 5 inequality, packaged with the three probabilities it needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutBound {
    /// Upper bound `η` on `Pr[(v ∼ e) ∈ S]` over cut edges `e`.
    pub eta: f64,
    /// `Pr[(u ∼ v) ∈ S]` — the probability that `u` connects to `v` without
    /// leaving `S` (zero when `u ∉ S`).
    pub prob_connected_within_s: f64,
    /// `Pr[u ∼ v]` — the probability of the conditioning event.
    pub prob_connected: f64,
}

impl CutBound {
    /// Evaluates the right-hand side of Lemma 5: an upper bound on
    /// `Pr[X < t]` for every local router.
    ///
    /// # Panics
    ///
    /// Panics if `prob_connected` is not positive (the bound conditions on
    /// `{u ∼ v}`).
    pub fn probability_fewer_than(&self, t: u64) -> f64 {
        assert!(
            self.prob_connected > 0.0,
            "the bound conditions on a positive connection probability"
        );
        ((t as f64 * self.eta + self.prob_connected_within_s) / self.prob_connected).min(1.0)
    }

    /// The largest `t` for which the lemma still certifies
    /// `Pr[X < t] ≤ delta`, i.e. a probe count that every local router must
    /// reach with probability at least `1 − delta`. Returns 0 when even
    /// `t = 1` cannot be certified.
    pub fn certified_probes(&self, delta: f64) -> u64 {
        assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");
        let numerator = delta * self.prob_connected - self.prob_connected_within_s;
        if numerator <= 0.0 || self.eta <= 0.0 {
            if self.eta <= 0.0 && numerator > 0.0 {
                return u64::MAX;
            }
            return 0;
        }
        (numerator / self.eta).floor() as u64
    }
}

/// Monte-Carlo estimate of `Pr[(a ∼ b) ∈ S]`: the probability that `a` and
/// `b` are connected by an open path that stays inside the vertex set `S`.
pub fn restricted_connection_probability<T: Topology>(
    graph: &T,
    p: f64,
    s: &HashSet<VertexId>,
    a: VertexId,
    b: VertexId,
    trials: u32,
    base_seed: u64,
) -> f64 {
    assert!(trials > 0, "at least one trial is required");
    let mut hits = 0u32;
    for t in 0..trials {
        let sampler = PercolationConfig::new(p, base_seed.wrapping_add(t as u64)).sampler();
        if connected_within(graph, &sampler, s, a, b) {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// BFS restricted to the vertex set `s`: is there an open path from `a` to
/// `b` all of whose vertices lie in `s`?
pub fn connected_within<T: Topology, S: EdgeStates>(
    graph: &T,
    states: &S,
    s: &HashSet<VertexId>,
    a: VertexId,
    b: VertexId,
) -> bool {
    if a == b {
        return s.contains(&a);
    }
    if !s.contains(&a) || !s.contains(&b) {
        return false;
    }
    let mut seen: FxHashSet<VertexId> = FxHashSet::default();
    seen.insert(a);
    let mut queue = VecDeque::from([a]);
    while let Some(x) = queue.pop_front() {
        for y in graph.neighbors(x) {
            if !s.contains(&y) || seen.contains(&y) {
                continue;
            }
            if !states.is_open(EdgeId::new(x, y)) {
                continue;
            }
            if y == b {
                return true;
            }
            seen.insert(y);
            queue.push_back(y);
        }
    }
    false
}

/// Monte-Carlo estimate of every ingredient of Lemma 5 for the cut defined
/// by the vertex set `s` (which must contain `v`): `η` is estimated as the
/// *maximum* over cut edges of the restricted connection probability from `v`
/// to the edge's endpoint inside `s`.
///
/// The estimate of `η` is itself a random quantity; with enough trials it
/// upper-bounds the true maximum closely enough for the qualitative
/// comparisons the experiments make.
pub fn estimate_cut_bound<T: Topology>(
    graph: &T,
    p: f64,
    s: &HashSet<VertexId>,
    u: VertexId,
    v: VertexId,
    trials: u32,
    base_seed: u64,
) -> CutBound {
    assert!(s.contains(&v), "the cut set S must contain the target v");
    // Endpoints inside S of edges crossing the cut.
    let mut inner_endpoints: FxHashSet<VertexId> = FxHashSet::default();
    for &x in s {
        for y in graph.neighbors(x) {
            if !s.contains(&y) {
                inner_endpoints.insert(x);
            }
        }
    }
    let mut eta: f64 = 0.0;
    for &x in &inner_endpoints {
        let prob = restricted_connection_probability(graph, p, s, v, x, trials, base_seed);
        eta = eta.max(prob);
    }
    let prob_connected_within_s = if s.contains(&u) {
        restricted_connection_probability(graph, p, s, u, v, trials, base_seed.wrapping_add(1))
    } else {
        0.0
    };
    let mut connected_hits = 0u32;
    for t in 0..trials {
        let sampler = PercolationConfig::new(p, base_seed.wrapping_add(2 + t as u64)).sampler();
        if faultnet_percolation::bfs::connected(graph, &sampler, u, v) {
            connected_hits += 1;
        }
    }
    CutBound {
        eta,
        prob_connected_within_s,
        prob_connected: connected_hits as f64 / trials as f64,
    }
}

/// The closed-form hypercube bound of §3.1 (proof of Theorem 3(i)), in
/// natural-log space.
///
/// For `p = n^{-α}` and a ball `S` of radius `l = n^β` around the target, the
/// probability that the target connects *within the ball* to any fixed
/// boundary vertex is at most
///
/// ```text
/// η  =  (l·p)^l / (1 − n·l²·p²)   =   n^{(β−α)·n^β} / (1 − n^{2β+1−2α})
/// ```
///
/// provided `n·l²·p² < 1` (equivalently `2β + 1 − 2α < 0`). This function
/// returns `ln η`; `None` if the geometric series does not converge (the
/// bound is vacuous there).
pub fn hypercube_ball_log_eta(n: u32, alpha: f64, beta: f64) -> Option<f64> {
    let n_f = n as f64;
    let exponent = 2.0 * beta + 1.0 - 2.0 * alpha;
    let ratio = n_f.powf(exponent);
    if ratio >= 1.0 {
        return None;
    }
    let l = n_f.powf(beta);
    // ln((l·p)^l) = l · (ln l + ln p) = l · (β − α) · ln n
    let log_numerator = l * (beta - alpha) * n_f.ln();
    Some(log_numerator - (1.0 - ratio).ln())
}

/// Natural log of the Theorem 3(i) probe requirement: any local router on
/// `H_{n,p}` with `p = n^{-α}` (`α > 1/2`) needs at least
/// `n^{(α−β)·n^β} / n` probes w.h.p. (for any `0 < β < α − 1/2`). Returns
/// `None` when `β` is out of range.
pub fn hypercube_required_log_probes(n: u32, alpha: f64, beta: f64) -> Option<f64> {
    if beta <= 0.0 || beta >= alpha - 0.5 {
        return None;
    }
    let n_f = n as f64;
    let l = n_f.powf(beta);
    Some(l * (alpha - beta) * n_f.ln() - n_f.ln())
}

/// The Theorem 7 bound for the double tree: with `1/√2 < p < 1`, any local
/// router between the two roots of `TT_n` makes at least `a·p^{-n}` probes
/// with probability at least `1 − a / c(p)`, where `c(p)` is the probability
/// that the roots are connected. This function evaluates the failure bound
/// `a / c(p)` (capped at 1) for a requested probe count `t = a·p^{-n}`.
pub fn double_tree_failure_bound(p: f64, depth: u32, probes: u64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
    // a = t · p^n
    let a = probes as f64 * p.powi(depth as i32);
    let c = faultnet_percolation::branching::double_tree_connection_probability(p, depth);
    if c <= 0.0 {
        return 1.0;
    }
    (a / c).min(1.0)
}

/// Number of probes below which the Theorem 7 bound certifies failure
/// probability at most `delta`: `t = delta · c(p) · p^{-n}`.
pub fn double_tree_certified_probes(p: f64, depth: u32, delta: f64) -> u64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
    assert!((0.0..=1.0).contains(&delta), "delta must be in [0, 1]");
    let c = faultnet_percolation::branching::double_tree_connection_probability(p, depth);
    (delta * c * p.powi(-(depth as i32))).floor() as u64
}

/// A helper that builds the ball cut used by the hypercube lower-bound
/// experiment: all vertices within Hamming distance `radius` of `center`.
pub fn hypercube_ball_cut(
    cube: &faultnet_topology::hypercube::Hypercube,
    center: VertexId,
    radius: u32,
) -> HashSet<VertexId> {
    cube.ball(center, radius).into_iter().collect()
}

/// Empirical distribution of `Pr[(v ∼ e) ∈ S]` over the cut's inner
/// endpoints, useful for reporting how tight the worst-case `η` is compared
/// to typical boundary vertices.
pub fn restricted_probability_profile<T: Topology>(
    graph: &T,
    p: f64,
    s: &HashSet<VertexId>,
    v: VertexId,
    trials: u32,
    base_seed: u64,
) -> HashMap<VertexId, f64> {
    let mut inner_endpoints: FxHashSet<VertexId> = FxHashSet::default();
    for &x in s {
        for y in graph.neighbors(x) {
            if !s.contains(&y) {
                inner_endpoints.insert(x);
            }
        }
    }
    inner_endpoints
        .into_iter()
        .map(|x| {
            (
                x,
                restricted_connection_probability(graph, p, s, v, x, trials, base_seed),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultnet_topology::double_tree::DoubleBinaryTree;
    use faultnet_topology::hypercube::Hypercube;
    use faultnet_topology::mesh::Mesh;
    use faultnet_topology::Topology;

    #[test]
    fn cut_bound_evaluation_and_inversion() {
        let bound = CutBound {
            eta: 1e-4,
            prob_connected_within_s: 0.0,
            prob_connected: 0.5,
        };
        assert!(bound.probability_fewer_than(10) <= 0.002 + 1e-12);
        assert_eq!(bound.probability_fewer_than(10_000_000), 1.0);
        // Inversion: with delta = 0.1 we can certify t = 0.1*0.5/1e-4 = 500.
        assert_eq!(bound.certified_probes(0.1), 500);
        // If eta is zero the bound certifies arbitrarily many probes.
        let zero_eta = CutBound {
            eta: 0.0,
            prob_connected_within_s: 0.0,
            prob_connected: 1.0,
        };
        assert_eq!(zero_eta.certified_probes(0.5), u64::MAX);
        // If the within-S probability already exceeds delta, nothing is certified.
        let saturated = CutBound {
            eta: 0.1,
            prob_connected_within_s: 0.9,
            prob_connected: 1.0,
        };
        assert_eq!(saturated.certified_probes(0.5), 0);
    }

    #[test]
    #[should_panic(expected = "positive connection probability")]
    fn cut_bound_requires_positive_conditioning() {
        let bound = CutBound {
            eta: 0.1,
            prob_connected_within_s: 0.0,
            prob_connected: 0.0,
        };
        let _ = bound.probability_fewer_than(1);
    }

    #[test]
    fn connected_within_respects_the_set() {
        // Path 0-1-2-3 fully open, but S = {0, 1, 3}: 0 and 3 are NOT
        // connected within S because the path must pass through 2.
        let mesh = Mesh::new(1, 4);
        let sampler = PercolationConfig::new(1.0, 0).sampler();
        let s: HashSet<VertexId> = [VertexId(0), VertexId(1), VertexId(3)]
            .into_iter()
            .collect();
        assert!(connected_within(
            &mesh,
            &sampler,
            &s,
            VertexId(0),
            VertexId(1)
        ));
        assert!(!connected_within(
            &mesh,
            &sampler,
            &s,
            VertexId(0),
            VertexId(3)
        ));
        assert!(!connected_within(
            &mesh,
            &sampler,
            &s,
            VertexId(0),
            VertexId(2)
        ));
        assert!(connected_within(
            &mesh,
            &sampler,
            &s,
            VertexId(3),
            VertexId(3)
        ));
        assert!(!connected_within(
            &mesh,
            &sampler,
            &s,
            VertexId(2),
            VertexId(2)
        ));
    }

    #[test]
    fn restricted_probability_is_a_probability_and_monotone_in_p() {
        let cube = Hypercube::new(7);
        let v = VertexId(0);
        let s = hypercube_ball_cut(&cube, v, 2);
        let x = *s.iter().find(|x| cube.distance(v, **x) == Some(2)).unwrap();
        let lo = restricted_connection_probability(&cube, 0.2, &s, v, x, 60, 3);
        let hi = restricted_connection_probability(&cube, 0.8, &s, v, x, 60, 3);
        assert!((0.0..=1.0).contains(&lo));
        assert!((0.0..=1.0).contains(&hi));
        assert!(lo <= hi);
    }

    #[test]
    fn estimated_cut_bound_bounds_actual_router_behaviour() {
        // On the double tree at p = 0.8, estimate the bound with S = the
        // second tree plus the leaves, and check the basic sanity properties.
        let tt = DoubleBinaryTree::new(4);
        let (x, y) = tt.roots();
        let s: HashSet<VertexId> = tt
            .vertices()
            .filter(|v| {
                !matches!(tt.side(*v), faultnet_topology::double_tree::TreeSide::First) || *v == y
            })
            .collect();
        // S = everything except the first tree's internal nodes; v = y ∈ S,
        // u = x ∉ S.
        let s: HashSet<VertexId> = s.into_iter().filter(|v| *v != x).collect();
        let bound = estimate_cut_bound(&tt, 0.8, &s, x, y, 80, 9);
        assert!(bound.eta > 0.0 && bound.eta < 1.0);
        assert_eq!(bound.prob_connected_within_s, 0.0);
        assert!(bound.prob_connected > 0.0);
        // The bound must be monotone in t and reach 1 eventually.
        assert!(bound.probability_fewer_than(1) <= bound.probability_fewer_than(100));
        assert_eq!(bound.probability_fewer_than(u64::MAX / 2), 1.0);
    }

    #[test]
    fn hypercube_log_eta_behaviour() {
        // α > 1/2, small β: the series converges and η is tiny.
        let log_eta = hypercube_ball_log_eta(20, 0.8, 0.1).unwrap();
        assert!(log_eta < 0.0);
        // Larger n makes the bound (log η) more negative.
        let log_eta_big = hypercube_ball_log_eta(40, 0.8, 0.1).unwrap();
        assert!(log_eta_big < log_eta);
        // α < 1/2: the series diverges, the bound is vacuous.
        assert!(hypercube_ball_log_eta(20, 0.3, 0.2).is_none());
    }

    #[test]
    fn hypercube_required_probes_grow_with_n_and_alpha() {
        let a = hypercube_required_log_probes(16, 0.7, 0.1).unwrap();
        let b = hypercube_required_log_probes(32, 0.7, 0.1).unwrap();
        let c = hypercube_required_log_probes(32, 0.9, 0.1).unwrap();
        assert!(b > a, "bound should grow with n");
        assert!(c > b, "bound should grow with alpha");
        // Out-of-range β is rejected.
        assert!(hypercube_required_log_probes(16, 0.6, 0.2).is_none());
        assert!(hypercube_required_log_probes(16, 0.6, 0.0).is_none());
    }

    #[test]
    fn double_tree_bounds() {
        // At p = 0.8, depth 10: p^{-10} ≈ 9.3; asking for only a handful of
        // probes keeps the failure probability small.
        let failure = double_tree_failure_bound(0.8, 10, 1);
        assert!(failure < 0.3, "failure bound {failure}");
        // Requesting far more probes than p^{-n} saturates the bound.
        assert_eq!(double_tree_failure_bound(0.8, 10, 1_000_000), 1.0);
        // The certified probe count is increasing in depth.
        let t1 = double_tree_certified_probes(0.8, 10, 0.2);
        let t2 = double_tree_certified_probes(0.8, 20, 0.2);
        assert!(t2 > t1);
    }

    #[test]
    fn profile_contains_only_boundary_endpoints() {
        let cube = Hypercube::new(6);
        let v = VertexId(0);
        let s = hypercube_ball_cut(&cube, v, 1);
        let profile = restricted_probability_profile(&cube, 0.5, &s, v, 20, 1);
        // With radius 1, every non-center vertex of the ball touches the cut.
        assert_eq!(profile.len(), 6);
        for (x, prob) in profile {
            assert!(s.contains(&x));
            assert!((0.0..=1.0).contains(&prob));
        }
    }
}
