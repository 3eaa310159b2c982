//! A concrete packet-forwarding simulator — the ground-truth oracle.
//!
//! Symbolic verifiers are only trustworthy relative to something that
//! executes the data plane literally. This module walks one concrete
//! packet — a destination address — through the network, one
//! first-match forwarding lookup per hop, with a TTL to cut loops. The property suite then checks, for random packets on
//! random datasets, that the simulator's verdict matches the atomic-
//! predicates pipeline bit for bit — the strongest end-to-end check in
//! the crate.

use crate::network::{Action, Network};
use netrepro_graph::NodeId;

/// A concrete packet: the header field forwarding reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Destination address.
    pub dst: u32,
}

/// Where a simulated packet ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Delivered at this device.
    Delivered(NodeId),
    /// Dropped at this device (no matching rule, or an explicit drop).
    Dropped(NodeId),
    /// The TTL expired: the packet is looping. The device where the
    /// TTL ran out is reported.
    Looping(NodeId),
}

/// Walk `packet` from `start` through `net`. `ttl` bounds the hop count
/// (any value above the device count detects every persistent loop).
pub fn simulate(net: &Network, start: NodeId, packet: Packet, ttl: usize) -> Verdict {
    let width = net.layout.width;
    let mut here = start;
    for _ in 0..ttl {
        let action = net.device(here).action_for(packet.dst, width);
        match action {
            Action::Deliver => return Verdict::Delivered(here),
            Action::Drop => return Verdict::Dropped(here),
            Action::Forward(e) => here = net.graph.endpoints(e).1,
        }
    }
    Verdict::Looping(here)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetOpts};
    use crate::header::HeaderLayout;
    use crate::network::Rule;
    use crate::Prefix;
    use netrepro_graph::gen::ring;
    use netrepro_graph::DiGraph;

    #[test]
    fn delivers_owned_prefix_on_clean_ring() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        for d in 0..5usize {
            let addr = ds.owned[d][0].addr;
            let v = simulate(&ds.network, NodeId(0), Packet { dst: addr }, 32);
            assert_eq!(v, Verdict::Delivered(NodeId(d as u32)));
        }
    }

    #[test]
    fn unowned_space_drops() {
        // 5 devices need 3 id bits, so ids 5-7 are unowned; 0xFFF sits
        // in id 7's slice. (With a power-of-two device count the owned
        // prefixes would cover the whole space.)
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let v = simulate(&ds.network, NodeId(0), Packet { dst: 0xFFF }, 32);
        assert!(matches!(v, Verdict::Dropped(_)), "got {v:?}");
    }

    #[test]
    fn detects_ping_pong_loop() {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let (ab, ba) = g.add_bidi(a, b, 1.0, 1.0);
        let mut net = Network::new(g, HeaderLayout::new(8));
        let p = Prefix { addr: 0b1000_0000, len: 1 };
        net.device_mut(a).insert(Rule { prefix: p, priority: 1, action: Action::Forward(ab) });
        net.device_mut(b).insert(Rule { prefix: p, priority: 1, action: Action::Forward(ba) });
        let v = simulate(&net, a, Packet { dst: 0b1010_0000 }, 16);
        assert!(matches!(v, Verdict::Looping(_)));
    }
}
