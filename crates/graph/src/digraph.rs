//! A directed multigraph with per-edge capacity and weight.

/// Node handle (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Edge handle (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Dense index of the edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct Edge {
    src: NodeId,
    dst: NodeId,
    capacity: f64,
    weight: f64,
}

/// A directed multigraph. Nodes and edges are referenced by dense ids;
/// deletion is not supported (the reproduced systems never delete
/// topology elements — failures are modelled as capacity changes).
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    names: Vec<String>,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with a display name; returns its handle.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Add `n` anonymous nodes named `prefix0..prefixN`.
    pub fn add_nodes(&mut self, prefix: &str, n: usize) -> Vec<NodeId> {
        (0..n).map(|i| self.add_node(&format!("{prefix}{i}"))).collect()
    }

    /// Add a directed edge. Multi-edges are allowed.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, capacity: f64, weight: f64) -> EdgeId {
        assert!(src.index() < self.names.len() && dst.index() < self.names.len());
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, capacity, weight });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Add a symmetric pair of edges (the WAN convention: one fiber,
    /// both directions). Returns `(forward, backward)`.
    pub fn add_bidi(&mut self, a: NodeId, b: NodeId, capacity: f64, weight: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, capacity, weight), self.add_edge(b, a, capacity, weight))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Node display name.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// `(src, dst)` endpoints of an edge.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.src, edge.dst)
    }

    /// Capacity of an edge.
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].capacity
    }

    /// Overwrite an edge's capacity (used to model failures/restoration).
    pub fn set_capacity(&mut self, e: EdgeId, capacity: f64) {
        self.edges[e.index()].capacity = capacity;
    }

    /// Routing weight of an edge.
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].weight
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_adj[n.index()]
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_adj[n.index()]
    }

    /// Out-neighbours of `n` (with multiplicity).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[n.index()].iter().map(move |&e| self.edges[e.index()].dst)
    }

    /// The first edge from `a` to `b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.out_adj[a.index()].iter().copied().find(|&e| self.edges[e.index()].dst == b)
    }

    /// Whether the graph is (weakly) connected. Empty graphs count as
    /// connected.
    pub fn is_connected(&self) -> bool {
        if self.names.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.names.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &e in &self.out_adj[n.index()] {
                let d = self.edges[e.index()].dst;
                if !seen[d.index()] {
                    seen[d.index()] = true;
                    count += 1;
                    stack.push(d);
                }
            }
            for &e in &self.in_adj[n.index()] {
                let s = self.edges[e.index()].src;
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    count += 1;
                    stack.push(s);
                }
            }
        }
        count == self.names.len()
    }

    /// Total capacity leaving `n`.
    pub fn out_capacity(&self, n: NodeId) -> f64 {
        self.out_adj[n.index()].iter().map(|&e| self.edges[e.index()].capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (DiGraph, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ns = g.add_nodes("n", 3);
        g.add_bidi(ns[0], ns[1], 10.0, 1.0);
        g.add_bidi(ns[1], ns[2], 10.0, 1.0);
        g.add_bidi(ns[2], ns[0], 10.0, 1.0);
        (g, ns)
    }

    #[test]
    fn counts_and_names() {
        let (g, ns) = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.node_name(ns[1]), "n1");
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, ns) = triangle();
        assert_eq!(g.out_edges(ns[0]).len(), 2);
        assert_eq!(g.in_edges(ns[0]).len(), 2);
        let succ: Vec<_> = g.successors(ns[0]).collect();
        assert!(succ.contains(&ns[1]) && succ.contains(&ns[2]));
    }

    #[test]
    fn find_edge_direction_matters() {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 5.0, 1.0);
        assert_eq!(g.find_edge(a, b), Some(e));
        assert_eq!(g.find_edge(b, a), None);
    }

    #[test]
    fn capacity_updates_model_failures() {
        let (mut g, ns) = triangle();
        let e = g.find_edge(ns[0], ns[1]).unwrap();
        g.set_capacity(e, 0.0);
        assert_eq!(g.capacity(e), 0.0);
        assert_eq!(g.out_capacity(ns[0]), 10.0); // only n0->n2 remains
    }

    #[test]
    fn connectivity() {
        let (g, _) = triangle();
        assert!(g.is_connected());
        let mut g2 = DiGraph::new();
        g2.add_node("a");
        g2.add_node("b");
        assert!(!g2.is_connected());
    }

    #[test]
    fn multi_edges_allowed() {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 1.0, 1.0);
        g.add_edge(a, b, 2.0, 1.0);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_capacity(a), 3.0);
    }
}
