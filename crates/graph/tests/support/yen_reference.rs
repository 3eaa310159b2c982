//! Reference k-shortest paths: Yen's algorithm over a fresh, unbounded
//! Dijkstra per search. It is the oracle the tree-bounded generator in
//! `netrepro_graph::paths` must match edge for edge and cost bit for
//! cost bit.
//!
//! Test-only. Include it with `#[path = ".../yen_reference.rs"] mod …;`
//! from a module that has `DiGraph`, `EdgeId`, `NodeId` and
//! `netrepro_graph::paths::Path` in scope.

use super::{DiGraph, EdgeId, NodeId, Path};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; ties broken by node id.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `src` to `dst` avoiding the banned nodes and edges.
pub fn dijkstra_path(
    g: &DiGraph,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_edges: &[bool],
) -> Option<Path> {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<EdgeId>> = vec![None; n];
    let mut done = vec![false; n];
    if banned_nodes[src.index()] {
        return None;
    }
    dist[src.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem { dist: 0.0, node: src });
    while let Some(HeapItem { dist: d, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if node == dst {
            break;
        }
        for &e in g.out_edges(node) {
            if banned_edges[e.index()] {
                continue;
            }
            let (_, to) = g.endpoints(e);
            if banned_nodes[to.index()] || done[to.index()] {
                continue;
            }
            let nd = d + g.weight(e);
            if nd < dist[to.index()] {
                dist[to.index()] = nd;
                prev[to.index()] = Some(e);
                heap.push(HeapItem { dist: nd, node: to });
            }
        }
    }
    if !dist[dst.index()].is_finite() {
        return None;
    }
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let e = prev[cur.index()]?;
        edges.push(e);
        cur = g.endpoints(e).0;
    }
    edges.reverse();
    let cost = edges.iter().map(|&e| g.weight(e)).sum();
    Some(Path { edges, src, dst, cost })
}

/// Yen's algorithm: up to `k` loop-free shortest paths by weight, in
/// nondecreasing cost order (none for `k == 0`).
pub fn k_shortest_paths(g: &DiGraph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    let mut result: Vec<Path> = Vec::new();
    if k == 0 {
        return result;
    }
    let Some(first) =
        dijkstra_path(g, src, dst, &vec![false; g.num_nodes()], &vec![false; g.num_edges()])
    else {
        return result;
    };
    result.push(first);
    let mut candidates: Vec<Path> = Vec::new();

    while result.len() < k {
        let Some(last) = result.last().cloned() else { break };
        let last_nodes = last.nodes(g);
        for i in 0..last.edges.len() {
            let spur_node = last_nodes[i];
            let root_edges = &last.edges[..i];

            let mut banned_edges = vec![false; g.num_edges()];
            for p in &result {
                if p.edges.len() > i && p.edges[..i] == *root_edges {
                    banned_edges[p.edges[i].index()] = true;
                }
            }
            let mut banned_nodes = vec![false; g.num_nodes()];
            for &n in &last_nodes[..i] {
                banned_nodes[n.index()] = true;
            }

            if let Some(spur) = dijkstra_path(g, spur_node, dst, &banned_nodes, &banned_edges) {
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur.edges);
                let cost = edges.iter().map(|&e| g.weight(e)).sum();
                let cand = Path { edges, src, dst, cost };
                if !candidates.iter().any(|c| c.edges == cand.edges)
                    && !result.iter().any(|c| c.edges == cand.edges)
                {
                    candidates.push(cand);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal));
        result.push(candidates.remove(0));
    }
    result
}
