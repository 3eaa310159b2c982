//! The strongest end-to-end check in the crate: for random datasets
//! and random concrete packets, the symbolic pipeline (atomic
//! predicates + selective BFS) must agree with the literal
//! packet-walking simulator on where every packet is delivered.

use netrepro_bdd::EngineProfile;
use netrepro_dpv::ap::{ApVerifier, AtomSet};
use netrepro_dpv::dataset::{generate, DatasetOpts};
use netrepro_dpv::header::HeaderLayout;
use netrepro_dpv::reach::selective_bfs;
use netrepro_dpv::sim::{simulate, Packet, Verdict};
use netrepro_graph::gen::{waxman, TopologySpec};
use netrepro_graph::NodeId;
use proptest::prelude::*;

const WIDTH: u32 = 12;

fn packet_bits(addr: u32) -> Vec<bool> {
    (0..WIDTH).map(|i| (addr >> (WIDTH - 1 - i)) & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulator_agrees_with_symbolic_reachability(
        seed in 0u64..400,
        nodes in 5usize..11,
        faults in 0.0f64..0.7,
        addrs in prop::collection::vec(0u32..(1 << WIDTH), 8),
    ) {
        let graph = waxman(&TopologySpec::new("oracle", nodes, seed));
        let ds = generate(
            graph,
            HeaderLayout::new(WIDTH),
            &DatasetOpts { prefixes_per_device: 1, fault_rate: faults, seed },
        );
        let mut v = ApVerifier::build(&ds.network, EngineProfile::Cached);
        // delivered[s][d]: the atoms injected at s that are delivered at d.
        let delivered: Vec<Vec<AtomSet>> = (0..nodes)
            .map(|s| {
                (0..nodes)
                    .map(|d| selective_bfs(&v, NodeId(s as u32), NodeId(d as u32)).delivered)
                    .collect()
            })
            .collect();

        for &addr in &addrs {
            for (s, from_s) in delivered.iter().enumerate() {
                let verdict = simulate(
                    &ds.network,
                    NodeId(s as u32),
                    Packet { dst: addr, src: 0, dport: 0 },
                    4 * nodes,
                );
                match verdict {
                    Verdict::Delivered(at) => {
                        // The symbolic sets must contain this packet in
                        // exactly the (s, at) delivered set.
                        for (d, set) in from_s.iter().enumerate() {
                            let bdd = v.atoms.to_bdd(&mut v.manager, set);
                            let member = v.manager.eval(bdd, &packet_bits(addr)) == Ok(true);
                            prop_assert_eq!(
                                member,
                                d == at.index(),
                                "packet {:#x} from {} delivered at {} but symbolic set of {} says {}",
                                addr, s, at.index(), d, member
                            );
                        }
                    }
                    Verdict::Dropped(_) | Verdict::Looping(_) => {
                        // The packet must appear in no delivered set from s.
                        for (d, set) in from_s.iter().enumerate() {
                            let bdd = v.atoms.to_bdd(&mut v.manager, set);
                            prop_assert!(
                                v.manager.eval(bdd, &packet_bits(addr)) != Ok(true),
                                "dropped/looping packet {:#x} from {} appears delivered at {}",
                                addr, s, d
                            );
                        }
                    }
                }
            }
        }
    }
}
