//! Property tests over the graph substrate: path algorithms, max-flow
//! bounds, partitioning and cut structure on random Waxman WANs.

use netrepro_graph::cuts::cut_structure;
use netrepro_graph::gen::{waxman, TopologySpec};
use netrepro_graph::maxflow::max_flow_value;
use netrepro_graph::partition::partition;
use netrepro_graph::paths::{bfs_path, dijkstra_path, KShortest};
use netrepro_graph::NodeId;
use proptest::prelude::*;

fn wan(nodes: usize, seed: u64) -> netrepro_graph::DiGraph {
    waxman(&TopologySpec::new("prop", nodes, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dijkstra_is_never_longer_than_any_k_path(seed in 0u64..1000, nodes in 6usize..24) {
        let g = wan(nodes, seed);
        let (s, d) = (NodeId(0), NodeId((nodes - 1) as u32));
        let best = dijkstra_path(&g, s, d, &vec![false; nodes], &vec![false; g.num_edges()]);
        let ks = KShortest::new(&g).paths(s, d, 4);
        if let Some(best) = best {
            prop_assert!(!ks.is_empty());
            for p in &ks {
                prop_assert!(best.cost <= p.cost + 1e-12);
            }
            // Yen's output is sorted by cost.
            for w in ks.windows(2) {
                prop_assert!(w[0].cost <= w[1].cost + 1e-12);
            }
        } else {
            prop_assert!(ks.is_empty());
        }
    }

    #[test]
    fn k_paths_are_simple_and_distinct(seed in 0u64..1000, nodes in 6usize..20) {
        let g = wan(nodes, seed);
        let ks = KShortest::new(&g).paths(NodeId(0), NodeId((nodes / 2) as u32), 5);
        for (i, p) in ks.iter().enumerate() {
            let nodes_on = p.nodes(&g);
            let mut dedup = nodes_on.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), nodes_on.len(), "path {} revisits a node", i);
            for q in &ks[i + 1..] {
                prop_assert_ne!(&p.edges, &q.edges, "duplicate path");
            }
        }
    }

    #[test]
    fn bfs_hop_count_is_minimal(seed in 0u64..500, nodes in 6usize..20) {
        let g = wan(nodes, seed);
        let (s, d) = (NodeId(1), NodeId((nodes - 2) as u32));
        if let Some(p) = bfs_path(&g, s, d, false) {
            // No k-shortest (by hops = uniform weights) path can be shorter.
            let mut uniform = g.clone();
            let _ = &mut uniform; // weights already positive; use dijkstra on hop metric
            // Build a hop-metric check: any dijkstra path with weight=1 per
            // edge has cost >= bfs hops. Approximate by comparing edge counts
            // of the dijkstra path on the real metric.
            let dj = dijkstra_path(&g, s, d, &vec![false; nodes], &vec![false; g.num_edges()]);
            if let Some(dj) = dj {
                prop_assert!(p.len() <= dj.len() || p.len() <= dj.edges.len());
            }
        }
    }

    #[test]
    fn maxflow_bounded_by_source_and_sink_capacity(seed in 0u64..500, nodes in 6usize..20) {
        let g = wan(nodes, seed);
        let (s, d) = (NodeId(0), NodeId((nodes - 1) as u32));
        let f = max_flow_value(&g, s, d);
        prop_assert!(f >= 0.0);
        prop_assert!(f <= g.out_capacity(s) + 1e-9);
        let in_cap: f64 = g.in_edges(d).iter().map(|&e| g.capacity(e)).sum();
        prop_assert!(f <= in_cap + 1e-9);
    }

    #[test]
    fn removing_a_bridge_really_disconnects(seed in 0u64..300, nodes in 6usize..18) {
        let g = wan(nodes, seed);
        let cs = cut_structure(&g);
        for &bridge in cs.bridges.iter().take(2) {
            let (s, d) = g.endpoints(bridge);
            let mut cut = g.clone();
            cut.set_capacity(bridge, 0.0);
            let (a, b) = (s, d);
            let rev = cut.find_edge(b, a);
            if let Some(r) = rev {
                cut.set_capacity(r, 0.0);
            }
            // With both directions of the bridge at zero capacity, no
            // capacity-respecting path crosses it.
            let p = bfs_path(&cut, a, b, true);
            prop_assert!(
                p.is_none(),
                "bridge {:?} removal left a path {:?}",
                bridge,
                p.map(|p| p.nodes(&cut))
            );
        }
    }

    #[test]
    fn partition_covers_and_is_deterministic(seed in 0u64..500, nodes in 4usize..30, k in 1usize..6) {
        let g = wan(nodes, seed);
        let p1 = partition(&g, k);
        let p2 = partition(&g, k);
        prop_assert_eq!(&p1.cluster_of, &p2.cluster_of);
        let total: usize = p1.members.iter().map(|m| m.len()).sum();
        prop_assert_eq!(total, nodes);
        for (i, &c) in p1.cluster_of.iter().enumerate() {
            prop_assert!(p1.members[c].contains(&NodeId(i as u32)));
        }
    }
}
