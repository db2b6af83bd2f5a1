//! EM: expectation-maximization for the IC model (Saito et al., KES'08).
//!
//! Learns one probability per social edge by alternating:
//!
//! - **E-step**: for every activation of `v` with earlier-activated
//!   in-neighbors `U_v`, attribute responsibility
//!   `γ_uv = p_uv / (1 - Π_{u'∈U_v} (1 - p_u'v))` to each parent.
//! - **M-step**: `p_uv = Σ γ_uv / #trials(u, v)`, where a *trial* is any
//!   training episode in which `u` activated and had the chance to activate
//!   `v` (i.e. `v` activated later — success trial — or never — failure
//!   trial).
//!
//! This is the classic, and per the paper comparatively expensive, way to
//! learn IC parameters from episodes.

use inf2vec_diffusion::{EdgeProbs, Episode};
use inf2vec_eval::score::CascadeModel;
use inf2vec_graph::{DiGraph, NodeId};
use inf2vec_util::FxHashMap;

/// EM hyper-parameters.
#[derive(Debug, Clone)]
pub struct IcEmConfig {
    /// EM iterations (the paper observes convergence in 10–20).
    pub iterations: usize,
    /// Initial probability for every edge.
    pub init_prob: f32,
}

impl Default for IcEmConfig {
    fn default() -> Self {
        Self {
            iterations: 15,
            init_prob: 0.1,
        }
    }
}

/// The trained EM model: per-edge probabilities parallel to the CSR edge
/// array.
#[derive(Debug, Clone)]
pub struct IcEm {
    probs: Vec<f32>,
    /// Flat edge index mirror of the training graph (for `edge_prob`).
    graph_nodes: u32,
}

impl IcEm {
    /// Runs EM over the training episodes.
    pub fn train(graph: &DiGraph, episodes: &[&Episode], config: &IcEmConfig) -> Self {
        assert!(config.iterations > 0);
        assert!((0.0..=1.0).contains(&config.init_prob));
        let m = graph.edge_count();
        let mut probs = vec![config.init_prob; m];

        // Precompute, per episode: for each activation of v, the flat edge
        // slots of its earlier-activated parents (success trials); and for
        // each never-activated out-neighbor of an activated u, the edge slot
        // (failure trials). Trials are fixed across iterations.
        let mut success_groups: Vec<Vec<u32>> = Vec::new();
        let mut trials = vec![0u32; m];
        for e in episodes {
            let times: FxHashMap<u32, u64> =
                e.activations().iter().map(|&(u, t)| (u.0, t)).collect();
            for &(v, tv) in e.activations() {
                let mut group = Vec::new();
                for &u in graph.in_neighbors(v) {
                    if times.get(&u).is_some_and(|&tu| tu < tv) {
                        let slot = graph
                            .edge_index(NodeId(u), v)
                            .expect("in-neighbor edge exists");
                        group.push(slot as u32);
                        trials[slot] += 1;
                    }
                }
                if !group.is_empty() {
                    success_groups.push(group);
                }
            }
            // Failure trials: u activated, its out-neighbor v never did.
            for &(u, _) in e.activations() {
                for (slot, &v) in graph
                    .out_edge_range(u)
                    .zip(graph.out_neighbors(u))
                {
                    if !times.contains_key(&v) {
                        trials[slot] += 1;
                    }
                }
            }
        }

        let mut numer = vec![0.0f64; m];
        for _ in 0..config.iterations {
            numer.fill(0.0);
            // E-step.
            for group in &success_groups {
                let mut fail = 1.0f64;
                for &slot in group {
                    fail *= 1.0 - probs[slot as usize] as f64;
                }
                let p_v = (1.0 - fail).max(1e-12);
                for &slot in group {
                    numer[slot as usize] += probs[slot as usize] as f64 / p_v;
                }
            }
            // M-step.
            for slot in 0..m {
                if trials[slot] > 0 {
                    probs[slot] = (numer[slot] / trials[slot] as f64).clamp(0.0, 1.0) as f32;
                }
            }
        }

        Self {
            probs,
            graph_nodes: graph.node_count(),
        }
    }

    /// The learned probability at a flat edge slot.
    pub fn prob_at(&self, slot: usize) -> f32 {
        self.probs[slot]
    }

    /// Looks up `P_uv` against the graph the model was trained on.
    pub fn prob(&self, graph: &DiGraph, u: NodeId, v: NodeId) -> f64 {
        assert_eq!(graph.node_count(), self.graph_nodes, "wrong graph");
        graph
            .edge_index(u, v)
            .map_or(0.0, |slot| self.probs[slot] as f64)
    }
}

/// [`IcEm`] bound to its training graph, for the eval traits.
#[derive(Debug, Clone)]
pub struct BoundIcEm<'g> {
    /// The trained model.
    pub model: IcEm,
    /// The training graph.
    pub graph: &'g DiGraph,
}

impl CascadeModel for BoundIcEm<'_> {
    fn edge_prob(&self, u: NodeId, v: NodeId) -> f64 {
        self.model.prob(self.graph, u, v)
    }

    fn edge_probs(&self, graph: &DiGraph) -> EdgeProbs {
        assert_eq!(graph.node_count(), self.model.graph_nodes);
        EdgeProbs::from_vec(graph, self.model.probs.clone())
    }
}

impl IcEm {
    /// Binds the model to its graph for evaluation.
    pub fn bind<'g>(self, graph: &'g DiGraph) -> BoundIcEm<'g> {
        BoundIcEm { model: self, graph }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inf2vec_diffusion::ItemId;
    use inf2vec_graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Single edge 0 -> 1, and v activates after u in half the episodes in
    /// which u activates: EM must converge to p ≈ 0.5.
    #[test]
    fn recovers_bernoulli_rate() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(n(0), n(1));
        let g = b.build();
        let mut episodes = Vec::new();
        for i in 0..10u32 {
            let acts = if i % 2 == 0 {
                vec![(n(0), 0), (n(1), 1)]
            } else {
                vec![(n(0), 0)]
            };
            episodes.push(Episode::new(ItemId(i), acts));
        }
        let refs: Vec<&Episode> = episodes.iter().collect();
        let em = IcEm::train(&g, &refs, &IcEmConfig::default());
        let p = em.prob(&g, n(0), n(1));
        assert!((p - 0.5).abs() < 1e-6, "p = {p}");
    }

    /// Two parents explain one activation; EM splits the credit and the
    /// failure trials pull the probabilities down symmetrically.
    #[test]
    fn splits_credit_between_parents() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(n(0), n(2));
        b.add_edge(n(1), n(2));
        let g = b.build();
        let episodes = [Episode::new(
            ItemId(0),
            vec![(n(0), 0), (n(1), 1), (n(2), 2)],
        )];
        let refs: Vec<&Episode> = episodes.iter().collect();
        let em = IcEm::train(&g, &refs, &IcEmConfig::default());
        let p0 = em.prob(&g, n(0), n(2));
        let p1 = em.prob(&g, n(1), n(2));
        assert!((p0 - p1).abs() < 1e-6, "symmetric parents: {p0} vs {p1}");
        assert!(p0 > 0.0 && p0 <= 1.0);
    }

    /// Edges that only ever fail go to zero.
    #[test]
    fn pure_failure_edges_go_to_zero() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(n(0), n(1));
        let g = b.build();
        let episodes = [Episode::new(ItemId(0), vec![(n(0), 0)]),
            Episode::new(ItemId(1), vec![(n(0), 0)])];
        let refs: Vec<&Episode> = episodes.iter().collect();
        let em = IcEm::train(&g, &refs, &IcEmConfig::default());
        assert_eq!(em.prob(&g, n(0), n(1)), 0.0);
    }

    /// Probabilities stay in [0, 1] on real-ish data.
    #[test]
    fn probabilities_bounded_on_synthetic_data() {
        let s = inf2vec_diffusion::synth::generate(
            &inf2vec_diffusion::synth::SyntheticConfig::tiny(),
            1,
        );
        let refs: Vec<&Episode> = s.dataset.log.episodes().iter().take(30).collect();
        let em = IcEm::train(
            &s.dataset.graph,
            &refs,
            &IcEmConfig {
                iterations: 5,
                init_prob: 0.1,
            },
        );
        for slot in 0..s.dataset.graph.edge_count() {
            let p = em.prob_at(slot);
            assert!((0.0..=1.0).contains(&p), "slot {slot}: {p}");
        }
    }
}
