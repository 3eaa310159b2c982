//! Path-finding: BFS (hop metric), Dijkstra (weight metric) and Yen's
//! k-shortest simple paths — the tunnel generator NCFlow and ARROW both
//! assume.
//!
//! Every weighted search runs one Dijkstra loop (`Search::run`): pop
//! in `(dist, node)` order, relax with strict `<`, stop when the
//! destination pops. Yen's searches add a potential: one reverse
//! shortest-path tree per destination gives each node's exact distance
//! `h` to the destination in the full graph. A search whose graph has
//! banned nodes and edges then keeps an upper bound `UB` on its answer:
//! any reached node whose tree path avoids every ban closes a real
//! walk of length `g + h`. A node with `g + h` above `UB` (plus a
//! relative slack of 1e-9 for rounding) is neither recorded nor
//! expanded.
//!
//! The result is bit-identical to the unbounded search. A banned graph
//! is a subgraph of the full one, so `h` is a lower bound on its
//! distances and every node on a shortest path of length `D` has
//! `g + h ≤ D ≤ UB`. So does every tight predecessor `u` of such a node
//! `v`, since `h(u) ≤ w(u, v) + h(v)`. Those nodes therefore get the
//! same distances, pop in the same order and relax the same edges; the
//! search drops only relaxations above a node's minimum, so the first
//! relaxation that reaches the minimum still sets `prev`. Plain A\*
//! would pop in `(g + h, node)` order and so break ties differently;
//! unit-weight graphs (rings, grids, fat trees, NCFlow's contracted
//! graph) are full of ties.

use crate::digraph::{DiGraph, EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A simple path: the edge sequence plus its endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Edges from source to destination, in order.
    pub edges: Vec<EdgeId>,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total weight under the metric that produced it.
    pub cost: f64,
}

impl Path {
    /// Node sequence, source first.
    pub fn nodes(&self, g: &DiGraph) -> Vec<NodeId> {
        let mut out = vec![self.src];
        for &e in &self.edges {
            out.push(g.endpoints(e).1);
        }
        out
    }

    /// Minimum capacity along the path.
    pub fn bottleneck(&self, g: &DiGraph) -> f64 {
        self.edges.iter().map(|&e| g.capacity(e)).fold(f64::INFINITY, f64::min)
    }

    /// Hop count.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True for the trivial (src == dst) path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Breadth-first shortest path by hop count. Edges with zero capacity
/// are skipped when `respect_capacity` is set.
pub fn bfs_path(g: &DiGraph, src: NodeId, dst: NodeId, respect_capacity: bool) -> Option<Path> {
    let mut prev: Vec<Option<EdgeId>> = vec![None; g.num_nodes()];
    let mut seen = vec![false; g.num_nodes()];
    seen[src.index()] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(n) = q.pop_front() {
        if n == dst {
            break;
        }
        for &e in g.out_edges(n) {
            if respect_capacity && g.capacity(e) <= 0.0 {
                continue;
            }
            let d = g.endpoints(e).1;
            if !seen[d.index()] {
                seen[d.index()] = true;
                prev[d.index()] = Some(e);
                q.push_back(d);
            }
        }
    }
    if !seen[dst.index()] {
        return None;
    }
    reconstruct(g, src, dst, &prev)
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance; ties broken by node id for determinism.
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

/// Relative slack on the pruning bound, so rounding in `g + h` never
/// drops a node that lies on a shortest path.
const BOUND_SLACK: f64 = 1e-9;

/// A mask entry; indexes past the end read as unset.
fn is_set(mask: &[bool], i: usize) -> bool {
    mask.get(i).copied().unwrap_or(false)
}

/// What a search knows about distances to its destination.
trait Bound {
    /// A lower bound on `v`'s distance to the destination.
    fn h(&self, v: NodeId) -> f64;
    /// Whether `v` has a known path to the destination, of length
    /// `h(v)`, that avoids every banned node and edge.
    fn clear_of(&self, g: &DiGraph, v: NodeId, banned_nodes: &[bool], banned_edges: &[bool]) -> bool;
}

/// Plain Dijkstra: nothing known, nothing pruned.
struct NoBound;

impl Bound for NoBound {
    fn h(&self, _: NodeId) -> f64 {
        0.0
    }

    fn clear_of(&self, _: &DiGraph, _: NodeId, _: &[bool], _: &[bool]) -> bool {
        false
    }
}

/// Dijkstra's working state, reused across searches: each search resets
/// only the entries the previous one touched.
struct Search {
    dist: Vec<f64>,
    prev: Vec<Option<EdgeId>>,
    done: Vec<bool>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<HeapItem>,
}

impl Search {
    fn new(n: usize) -> Self {
        Search {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            done: vec![false; n],
            touched: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
        }
    }

    /// The Dijkstra loop. From `src`, avoiding the banned nodes and
    /// edges, until `dst` pops (or the reachable graph is exhausted).
    /// `REVERSE` follows in-edges, so distances are *to* `src`. With a
    /// `bound` toward `dst`, nodes that cannot lie on a shortest path are
    /// pruned as the module docs describe; `NoBound` prunes nothing.
    fn run<const REVERSE: bool, B: Bound>(
        &mut self,
        g: &DiGraph,
        src: NodeId,
        dst: Option<NodeId>,
        banned_nodes: &[bool],
        banned_edges: &[bool],
        bound: &B,
    ) {
        let Search { dist, prev, done, touched, heap } = self;
        // The last search recorded the nodes it popped and those still
        // in its heap, and nothing else.
        for v in touched.drain(..).chain(heap.drain().map(|item| item.node)) {
            dist[v.index()] = f64::INFINITY;
            prev[v.index()] = None;
            done[v.index()] = false;
        }
        if is_set(banned_nodes, src.index()) || bound.h(src).is_infinite() {
            return;
        }
        let clear = |v: NodeId| bound.clear_of(g, v, banned_nodes, banned_edges);
        // The upper bound, and the bound plus its slack. Until a bound is
        // known, `limit` prunes only nodes that cannot reach `dst`.
        let (mut ub, mut limit) = (f64::INFINITY, f64::MAX);
        if clear(src) {
            ub = bound.h(src);
            limit = ub + ub * BOUND_SLACK;
        }
        dist[src.index()] = 0.0;
        heap.push(HeapItem { dist: 0.0, node: src });
        while let Some(HeapItem { dist: d, node }) = heap.pop() {
            if done[node.index()] {
                continue;
            }
            done[node.index()] = true;
            touched.push(node);
            if Some(node) == dst {
                break;
            }
            if d + bound.h(node) > limit {
                continue;
            }
            let arcs = if REVERSE { g.in_edges(node) } else { g.out_edges(node) };
            for &e in arcs {
                if is_set(banned_edges, e.index()) {
                    continue;
                }
                let (from, to) = g.endpoints(e);
                let to = if REVERSE { from } else { to };
                if is_set(banned_nodes, to.index()) || done[to.index()] {
                    continue;
                }
                let nd = d + g.weight(e);
                if nd < dist[to.index()] {
                    let f = nd + bound.h(to);
                    if f > limit {
                        continue;
                    }
                    dist[to.index()] = nd;
                    prev[to.index()] = Some(e);
                    heap.push(HeapItem { dist: nd, node: to });
                    if f < ub && clear(to) {
                        ub = f;
                        limit = f + f * BOUND_SLACK;
                    }
                }
            }
        }
    }

    /// The path the last forward search found from `src` to `dst`.
    fn path(&self, g: &DiGraph, src: NodeId, dst: NodeId) -> Option<Path> {
        if self.dist[dst.index()].is_infinite() {
            return None;
        }
        reconstruct(g, src, dst, &self.prev)
    }
}

/// Dijkstra shortest path by edge weight. `banned_nodes` and
/// `banned_edges` support failure studies; masks shorter than the graph
/// leave the remaining nodes or edges allowed.
pub fn dijkstra_path(
    g: &DiGraph,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &[bool],
    banned_edges: &[bool],
) -> Option<Path> {
    let mut search = Search::new(g.num_nodes());
    search.run::<false, _>(g, src, Some(dst), banned_nodes, banned_edges, &NoBound);
    search.path(g, src, dst)
}

/// Walk `prev` back from `dst`, which the search reached.
fn reconstruct(g: &DiGraph, src: NodeId, dst: NodeId, prev: &[Option<EdgeId>]) -> Option<Path> {
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

/// The reverse shortest-path tree toward one destination: every node's
/// exact distance to it and the first edge of a shortest path there.
struct ReverseTree {
    dst: NodeId,
    /// Distance to `dst`; infinite where `dst` is unreachable.
    dist: Vec<f64>,
    /// First edge of the node's tree path; `None` at `dst` and where
    /// `dst` is unreachable.
    next: Vec<Option<EdgeId>>,
}

impl ReverseTree {
    fn new(g: &DiGraph, dst: NodeId) -> Self {
        let mut search = Search::new(g.num_nodes());
        search.run::<true, _>(g, dst, None, &[], &[], &NoBound);
        ReverseTree { dst, dist: search.dist, next: search.prev }
    }
}

impl Bound for ReverseTree {
    fn h(&self, v: NodeId) -> f64 {
        self.dist[v.index()]
    }

    /// Walks `v`'s tree path.
    fn clear_of(&self, g: &DiGraph, mut v: NodeId, banned_nodes: &[bool], banned_edges: &[bool]) -> bool {
        loop {
            if is_set(banned_nodes, v.index()) {
                return false;
            }
            let Some(e) = self.next[v.index()] else {
                return v == self.dst;
            };
            if is_set(banned_edges, e.index()) {
                return false;
            }
            v = g.endpoints(e).1;
        }
    }
}

/// Yen's k-shortest simple paths for many pairs on one graph. Builds
/// one reverse shortest-path tree per destination on first use (see the
/// module docs), reuses the search buffers and ban masks across calls,
/// and returns exactly what unbounded Yen would.
pub struct KShortest<'g> {
    g: &'g DiGraph,
    /// Indexed by destination.
    trees: Vec<Option<ReverseTree>>,
    search: Search,
    banned_nodes: Vec<bool>,
    banned_edges: Vec<bool>,
}

impl<'g> KShortest<'g> {
    /// A generator over `g`.
    pub fn new(g: &'g DiGraph) -> Self {
        KShortest {
            g,
            trees: (0..g.num_nodes()).map(|_| None).collect(),
            search: Search::new(g.num_nodes()),
            banned_nodes: vec![false; g.num_nodes()],
            banned_edges: vec![false; g.num_edges()],
        }
    }

    /// Up to `k` loop-free shortest paths from `src` to `dst` by weight,
    /// in nondecreasing cost order; none for `k == 0`.
    pub fn paths(&mut self, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let mut result: Vec<Path> = Vec::new();
        if k == 0 {
            return result;
        }
        let g = self.g;
        let tree = self.trees[dst.index()].get_or_insert_with(|| ReverseTree::new(g, dst));
        let Self { search, banned_nodes, banned_edges, .. } = self;
        search.run::<false, _>(g, src, Some(dst), banned_nodes, banned_edges, tree);
        let Some(first) = search.path(g, src, dst) else {
            return result;
        };
        result.push(first);
        let mut candidates: Vec<Path> = Vec::new();

        while result.len() < k {
            let last = &result[result.len() - 1];
            let last_nodes = last.nodes(g);
            for i in 0..last.edges.len() {
                // Ban the root path's nodes and, of every accepted path
                // sharing that root, the edge leaving it.
                let root_edges = &last.edges[..i];
                if i > 0 {
                    banned_nodes[last_nodes[i - 1].index()] = true;
                }
                for p in &result {
                    if p.edges.len() > i && p.edges[..i] == *root_edges {
                        banned_edges[p.edges[i].index()] = true;
                    }
                }
                let spur_node = last_nodes[i];
                search.run::<false, _>(g, spur_node, Some(dst), banned_nodes, banned_edges, tree);
                for p in &result {
                    if p.edges.len() > i {
                        banned_edges[p.edges[i].index()] = false;
                    }
                }
                if let Some(spur) = search.path(g, spur_node, dst) {
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
            for &n in &last_nodes {
                banned_nodes[n.index()] = false;
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap_or(Ordering::Equal));
            result.push(candidates.remove(0));
        }
        result
    }
}

#[cfg(test)]
#[path = "../tests/support/yen_reference.rs"]
mod yen_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{fat_tree, grid, ring, FatTreeSpec};
    use proptest::prelude::*;

    /// A 4-node diamond: a->b->d (cheap), a->c->d (expensive), a->d (direct, costliest).
    fn diamond() -> (DiGraph, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ns = g.add_nodes("n", 4);
        g.add_edge(ns[0], ns[1], 10.0, 1.0);
        g.add_edge(ns[1], ns[3], 10.0, 1.0);
        g.add_edge(ns[0], ns[2], 10.0, 2.0);
        g.add_edge(ns[2], ns[3], 10.0, 2.0);
        g.add_edge(ns[0], ns[3], 10.0, 5.0);
        (g, ns)
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        let (g, ns) = diamond();
        let p = bfs_path(&g, ns[0], ns[3], false).unwrap();
        assert_eq!(p.len(), 1); // direct edge
    }

    #[test]
    fn bfs_respects_capacity() {
        let (mut g, ns) = diamond();
        let direct = g.find_edge(ns[0], ns[3]).unwrap();
        g.set_capacity(direct, 0.0);
        let p = bfs_path(&g, ns[0], ns[3], true).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn dijkstra_prefers_lowest_weight() {
        let (g, ns) = diamond();
        let p = dijkstra_path(&g, ns[0], ns[3], &[false; 4], &[false; 5]).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.nodes(&g), vec![ns[0], ns[1], ns[3]]);
    }

    #[test]
    fn dijkstra_none_when_disconnected() {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        assert!(dijkstra_path(&g, a, b, &[false; 2], &[]).is_none());
    }

    #[test]
    fn k_shortest_returns_distinct_ordered_paths() {
        let (g, ns) = diamond();
        let ps = KShortest::new(&g).paths(ns[0], ns[3], 3);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].cost, 2.0);
        assert_eq!(ps[1].cost, 4.0);
        assert_eq!(ps[2].cost, 5.0);
        // Paths are simple (no repeated node).
        for p in &ps {
            let nodes = p.nodes(&g);
            let mut dedup = nodes.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), nodes.len());
        }
    }

    #[test]
    fn k_shortest_caps_at_available_paths() {
        let (g, ns) = diamond();
        let ps = KShortest::new(&g).paths(ns[0], ns[3], 10);
        assert_eq!(ps.len(), 3);
    }

    #[test]
    fn path_bottleneck() {
        let (mut g, ns) = diamond();
        let e = g.find_edge(ns[0], ns[1]).unwrap();
        g.set_capacity(e, 3.0);
        let p = dijkstra_path(&g, ns[0], ns[3], &[false; 4], &[false; 5]).unwrap();
        assert_eq!(p.bottleneck(&g), 3.0);
    }

    #[test]
    fn trivial_path_src_eq_dst() {
        let (g, ns) = diamond();
        let p = bfs_path(&g, ns[0], ns[0], false).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.cost, 0.0);
    }

    /// A path set as comparable keys: edge lists and cost bits.
    fn keys(ps: &[Path]) -> Vec<(Vec<EdgeId>, u64)> {
        ps.iter().map(|p| (p.edges.clone(), p.cost.to_bits())).collect()
    }

    /// One generator (so trees are shared across pairs, as in
    /// `build_tunnels`) against the reference on every ordered pair of
    /// `g` and every `k` in 0..=6.
    fn assert_all_pairs_match(label: &str, g: &DiGraph) {
        let mut yen = KShortest::new(g);
        for s in g.nodes() {
            for d in g.nodes() {
                for k in 0..=6 {
                    assert_eq!(
                        keys(&yen.paths(s, d, k)),
                        keys(&yen_reference::k_shortest_paths(g, s, d, k)),
                        "{label}: {s:?} -> {d:?}, k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_zero_yields_no_paths() {
        let (g, ns) = diamond();
        assert!(KShortest::new(&g).paths(ns[0], ns[3], 0).is_empty());
    }

    #[test]
    fn unit_weight_topologies_match_reference_on_all_pairs() {
        for n in [5, 6, 8, 11] {
            assert_all_pairs_match(&format!("ring({n})"), &ring(n, 10.0));
        }
        assert_all_pairs_match("grid(5,5)", &grid(5, 5, 10.0));
        assert_all_pairs_match("fat_tree(4)", &fat_tree(&FatTreeSpec::new(4)).graph);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random multigraphs: float weights, or small integers with
        /// zeros (ties everywhere), parallel edges and self-loops, and
        /// unreachable pairs whenever the arcs run out.
        #[test]
        fn tree_bounded_yen_matches_reference(
            n in 1usize..9,
            arcs in proptest::collection::vec(
                (0usize..9, 0usize..9, 0.05f64..4.0, 0u32..4, any::<bool>()),
                0..28,
            ),
            integer in any::<bool>(),
            k in 0usize..7,
        ) {
            let mut g = DiGraph::new();
            let ns = g.add_nodes("v", n);
            for (a, b, w, iw, twice) in arcs {
                let w = if integer { f64::from(iw) } else { w };
                for _ in 0..1 + usize::from(twice) {
                    g.add_edge(ns[a % n], ns[b % n], 1.0, w);
                }
            }
            let mut yen = KShortest::new(&g);
            for s in g.nodes() {
                for d in g.nodes() {
                    prop_assert_eq!(
                        keys(&yen.paths(s, d, k)),
                        keys(&yen_reference::k_shortest_paths(&g, s, d, k)),
                        "{:?} -> {:?}, k = {}", s, d, k
                    );
                }
            }
        }
    }
}
