//! Mutable graph construction.

use crate::csr::DiGraph;
use crate::node::NodeId;

/// Accumulates edges and freezes them into an immutable [`DiGraph`].
///
/// Duplicate edges are collapsed and self-loops dropped at [`build`] time
/// (neither carries information for influence propagation: a user cannot
/// influence themself, and the action-log semantics are binary "follows").
///
/// [`build`]: GraphBuilder::build
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that already knows it has at least `n` nodes
    /// (isolated nodes are preserved in the built graph).
    pub fn with_nodes(n: u32) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-reserves capacity for `m` edges.
    pub fn reserve_edges(&mut self, m: usize) {
        self.edges.reserve(m);
    }

    /// Adds a directed edge `u -> v`, growing the node count as needed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.n = self.n.max(u.0 + 1).max(v.0 + 1);
        self.edges.push((u.0, v.0));
    }

    /// Adds both `u -> v` and `v -> u`.
    pub fn add_edge_both(&mut self, u: NodeId, v: NodeId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Number of nodes known so far.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Freezes into a CSR [`DiGraph`], deduplicating edges and dropping
    /// self-loops.
    pub fn build(mut self) -> DiGraph {
        self.edges.retain(|&(u, v)| u != v);
        self.edges.sort_unstable();
        self.edges.dedup();
        DiGraph::from_sorted_unique_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new();
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(2), NodeId(2));
        b.add_edge(NodeId(1), NodeId(0));
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(2), NodeId(2)));
    }

    #[test]
    fn with_nodes_preserves_isolated() {
        let b = GraphBuilder::with_nodes(5);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(NodeId(4)), 0);
    }

    #[test]
    fn both_direction_helper() {
        let mut b = GraphBuilder::new();
        b.add_edge_both(NodeId(3), NodeId(7));
        let g = b.build();
        assert!(g.has_edge(NodeId(3), NodeId(7)));
        assert!(g.has_edge(NodeId(7), NodeId(3)));
        assert_eq!(g.node_count(), 8);
    }
}
