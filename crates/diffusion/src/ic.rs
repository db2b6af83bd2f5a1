//! Independent Cascade model: per-edge probabilities and simulation.
//!
//! The IC model underlies four of the paper's baselines (DE, ST, EM,
//! Emb-IC). [`EdgeProbs`] stores one probability per directed edge, laid out
//! parallel to the graph's flat CSR out-edge array so lookups are O(log d)
//! and iteration over a node's out-edges is contiguous. [`simulate`] runs
//! one cascade; [`monte_carlo`] estimates per-node activation probabilities
//! from repeated simulation, which is how IC-based methods are scored on the
//! diffusion-prediction task (§V-B2, 5,000 runs in the paper).

use inf2vec_graph::{DiGraph, NodeId};
use inf2vec_util::rng::Xoshiro256pp;

/// Per-edge IC probabilities, parallel to the graph's CSR out-edge array.
#[derive(Debug, Clone)]
pub struct EdgeProbs {
    probs: Vec<f32>,
}

impl EdgeProbs {
    /// All edges share probability `p`.
    pub fn uniform(graph: &DiGraph, p: f32) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        Self {
            probs: vec![p; graph.edge_count()],
        }
    }

    /// The weighted-cascade assignment `P_uv = 1 / indegree(v)` (the DE
    /// baseline and the classic Kempe et al. benchmark setting).
    pub fn weighted_cascade(graph: &DiGraph) -> Self {
        Self::from_fn(graph, |_, v| 1.0 / graph.in_degree(v).max(1) as f32)
    }

    /// Computes each edge's probability from `(source, target)`.
    pub fn from_fn<F: FnMut(NodeId, NodeId) -> f32>(graph: &DiGraph, mut f: F) -> Self {
        let mut probs = vec![0.0f32; graph.edge_count()];
        for u in graph.nodes() {
            let range = graph.out_edge_range(u);
            for (slot, &v) in range.clone().zip(graph.out_neighbors(u)) {
                let p = f(u, NodeId(v));
                debug_assert!((0.0..=1.0).contains(&p), "P_{u}{v} = {p} out of range");
                probs[slot] = p.clamp(0.0, 1.0);
            }
        }
        Self { probs }
    }

    /// Wraps a raw probability vector (must match the edge count).
    pub fn from_vec(graph: &DiGraph, probs: Vec<f32>) -> Self {
        assert_eq!(probs.len(), graph.edge_count(), "length mismatch");
        Self { probs }
    }

    /// Probability of edge `u -> v`, or 0 when the edge does not exist.
    #[inline]
    pub fn get(&self, graph: &DiGraph, u: NodeId, v: NodeId) -> f32 {
        graph
            .edge_index(u, v)
            .map_or(0.0, |i| self.probs[i])
    }

    /// Probability at flat edge slot `i` (see [`DiGraph::edge_index`]).
    #[inline]
    pub fn at(&self, i: usize) -> f32 {
        self.probs[i]
    }

    /// The raw flat probability array.
    pub fn as_slice(&self) -> &[f32] {
        &self.probs
    }
}

/// Runs one IC cascade from `seeds`; returns the newly activated nodes (the
/// seeds excluded) in activation order.
///
/// Each node, on the round after it activates, gets a single chance to
/// activate each currently-inactive out-neighbor with the edge probability.
pub fn simulate(
    graph: &DiGraph,
    probs: &EdgeProbs,
    seeds: &[NodeId],
    rng: &mut Xoshiro256pp,
) -> Vec<NodeId> {
    let mut active = vec![false; graph.node_count() as usize];
    let mut frontier: Vec<u32> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        if !active[s.index()] {
            active[s.index()] = true;
            frontier.push(s.0);
        }
    }
    let mut activated = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            let range = graph.out_edge_range(NodeId(u));
            for (slot, &v) in range.zip(graph.out_neighbors(NodeId(u))) {
                if !active[v as usize] && rng.next_f32() < probs.at(slot) {
                    active[v as usize] = true;
                    next.push(v);
                    activated.push(NodeId(v));
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    activated
}

/// Estimates each node's activation probability from `runs` simulated
/// cascades. Seeds report probability 1. Runs in `O(runs · spread)`.
pub fn monte_carlo(
    graph: &DiGraph,
    probs: &EdgeProbs,
    seeds: &[NodeId],
    runs: usize,
    rng: &mut Xoshiro256pp,
) -> Vec<f64> {
    assert!(runs > 0, "need at least one run");
    let mut counts = vec![0u32; graph.node_count() as usize];
    for &s in seeds {
        counts[s.index()] = runs as u32;
    }
    for _ in 0..runs {
        for v in simulate(graph, probs, seeds, rng) {
            counts[v.index()] += 1;
        }
    }
    counts
        .into_iter()
        .map(|c| c as f64 / runs as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_graph::GraphBuilder;
    use proptest::prelude::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn path(k: u32) -> DiGraph {
        let mut b = GraphBuilder::new();
        for i in 0..k - 1 {
            b.add_edge(n(i), n(i + 1));
        }
        b.build()
    }

    #[test]
    fn certain_edges_cascade_fully() {
        let g = path(5);
        let p = EdgeProbs::uniform(&g, 1.0);
        let mut rng = Xoshiro256pp::new(1);
        let got = simulate(&g, &p, &[n(0)], &mut rng);
        assert_eq!(got, vec![n(1), n(2), n(3), n(4)]);
    }

    #[test]
    fn zero_edges_never_cascade() {
        let g = path(5);
        let p = EdgeProbs::uniform(&g, 0.0);
        let mut rng = Xoshiro256pp::new(1);
        assert!(simulate(&g, &p, &[n(0)], &mut rng).is_empty());
    }

    #[test]
    fn weighted_cascade_matches_indegree() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(2));
        b.add_edge(n(1), n(2));
        b.add_edge(n(0), n(1));
        let g = b.build();
        let p = EdgeProbs::weighted_cascade(&g);
        assert!((p.get(&g, n(0), n(2)) - 0.5).abs() < 1e-6);
        assert!((p.get(&g, n(0), n(1)) - 1.0).abs() < 1e-6);
        assert_eq!(p.get(&g, n(2), n(0)), 0.0);
    }

    #[test]
    fn monte_carlo_matches_analytic_path() {
        // On a 3-node path with p = 0.5, P(node1) = 0.5, P(node2) = 0.25.
        let g = path(3);
        let p = EdgeProbs::uniform(&g, 0.5);
        let mut rng = Xoshiro256pp::new(42);
        let probs = monte_carlo(&g, &p, &[n(0)], 40_000, &mut rng);
        assert_eq!(probs[0], 1.0);
        assert!((probs[1] - 0.5).abs() < 0.01, "got {}", probs[1]);
        assert!((probs[2] - 0.25).abs() < 0.01, "got {}", probs[2]);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = path(3);
        let p = EdgeProbs::uniform(&g, 1.0);
        let mut rng = Xoshiro256pp::new(2);
        let got = simulate(&g, &p, &[n(0), n(0)], &mut rng);
        assert_eq!(got, vec![n(1), n(2)]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_checks_len() {
        let g = path(3);
        let _ = EdgeProbs::from_vec(&g, vec![0.5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Higher probabilities never shrink expected spread (coupling
        /// argument approximated statistically).
        #[test]
        fn proptest_monotone_in_p(seed in any::<u64>()) {
            let g = path(6);
            let spread = |p: f32, seed: u64| {
                let probs = EdgeProbs::uniform(&g, p);
                let mut rng = Xoshiro256pp::new(seed);
                let mc = monte_carlo(&g, &probs, &[n(0)], 2000, &mut rng);
                mc.iter().sum::<f64>()
            };
            prop_assert!(spread(0.8, seed) >= spread(0.2, seed) - 0.2);
        }

        /// Activated sets never include seeds and only contain reachable
        /// nodes.
        #[test]
        fn proptest_activation_sane(seed in any::<u64>(), p in 0.0f32..1.0) {
            let g = path(6);
            let probs = EdgeProbs::uniform(&g, p);
            let mut rng = Xoshiro256pp::new(seed);
            let got = simulate(&g, &probs, &[n(2)], &mut rng);
            for v in &got {
                prop_assert!(v.0 > 2, "node {v} not downstream of seed");
            }
            // No duplicates.
            let set: std::collections::BTreeSet<u32> = got.iter().map(|v| v.0).collect();
            prop_assert_eq!(set.len(), got.len());
        }
    }
}
