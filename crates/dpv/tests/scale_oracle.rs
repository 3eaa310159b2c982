//! Exact packet-level oracle for the partitioned scale verifier.
//!
//! For every verified destination prefix `p`, every device `v` and
//! every concrete header in `p`, the literal simulator walks the packet
//! from `v` with a TTL of `n + 1` hops (enough to terminate every
//! loop-free walk over `n` devices, so running out of hops means a
//! loop). The walks are tallied back into a [`DestVerdict`], which must
//! equal the symbolic verifier's field for field.
//!
//! Fat-trees, with hosts and switch-only, exercise the verifier's
//! common case (every device delivers all of `p` or none of it), which
//! it verifies by forwarding class. The seeded Waxman datasets inject
//! more-specific faulty rules, which produce the partial-delivery and
//! loop verdicts fabrics never reach. A layout with ACL fields pins the
//! header counts when the header is wider than the destination field:
//! forwarding ignores the extra fields, so each walked destination
//! address stands for `2^(total_bits - width)` headers.

use netrepro_dpv::dataset::{generate, DatasetOpts};
use netrepro_dpv::fabric::{build, FabricSpec};
use netrepro_dpv::header::HeaderLayout;
use netrepro_dpv::scale::{verify_destinations, verify_per_destination, DestVerdict, ScaleOpts};
use netrepro_dpv::sim::{simulate, Packet, Verdict};
use netrepro_dpv::{Action, Network, Prefix};
use netrepro_graph::gen::{waxman, TopologySpec};
use netrepro_graph::NodeId;

/// What the oracle saw across one batch of destinations.
#[derive(Default)]
struct Coverage {
    dests: usize,
    partial: usize,
    looping: usize,
}

/// Rebuild one destination's verdict by walking every header in `prefix`
/// from every device.
fn simulate_verdict(net: &Network, owner: NodeId, prefix: Prefix) -> DestVerdict {
    let n = net.graph.num_nodes();
    let width = net.layout.width;
    let span = 1u64 << (width - u32::from(prefix.len));
    let free = 1u64 << (net.layout.total_bits() - width);
    let base = prefix.addr & !((span - 1) as u32);
    let mut v = DestVerdict {
        dest: owner.0,
        prefix,
        full: 0,
        partial: 0,
        none: 0,
        delivered_headers: 0,
        bh_local: 0,
        bh_devices: 0,
        bh_headers: 0,
        loop_devices: Vec::new(),
    };
    for dev in 0..n {
        let (mut delivered, mut dropped, mut looped, mut drops_locally) = (0u64, 0u64, false, false);
        for offset in 0..span {
            let dst = base | offset as u32;
            drops_locally |= net.devices[dev].action_for(dst, width) == Action::Drop;
            let packet = Packet { dst, src: 0, dport: 0 };
            match simulate(net, NodeId(dev as u32), packet, n + 1) {
                Verdict::Delivered(_) => delivered += 1,
                Verdict::Dropped(_) => dropped += 1,
                Verdict::Looping(_) => looped = true,
            }
        }
        match delivered {
            0 => v.none += 1,
            d if d == span => v.full += 1,
            _ => v.partial += 1,
        }
        v.delivered_headers += delivered * free;
        v.bh_local += u32::from(drops_locally);
        v.bh_devices += u32::from(dropped > 0);
        v.bh_headers += dropped * free;
        if looped {
            v.loop_devices.push(dev as u32);
        }
    }
    v
}

/// Verify `dests` symbolically, by class and by the per-destination
/// fixpoint, and check every verdict of both against the simulator.
fn check(net: &Network, dests: &[(NodeId, Prefix)], what: &str) -> Coverage {
    assert!(net.egress_acls.is_empty(), "the scale verifier models FIBs only");
    let verdicts = verify_destinations(net, dests, &ScaleOpts::default()).expect("verify");
    let fixpoints = verify_per_destination(net, dests, &ScaleOpts::default()).expect("verify");
    assert_eq!(verdicts.len(), dests.len());
    let mut cov = Coverage::default();
    for ((&(owner, prefix), got), fixpoint) in dests.iter().zip(&verdicts).zip(&fixpoints) {
        let want = simulate_verdict(net, owner, prefix);
        assert_eq!(got, &want, "{what}: dest {} prefix {prefix:?}", owner.0);
        assert_eq!(fixpoint, &want, "{what}: dest {} prefix {prefix:?} (fixpoint)", owner.0);
        cov.dests += 1;
        cov.partial += usize::from(want.partial > 0);
        cov.looping += usize::from(!want.loop_devices.is_empty());
    }
    cov
}

#[test]
fn fabric_verdicts_match_packet_simulation() {
    let mut dests = 0;
    for with_hosts in [true, false] {
        for (k, link_downs) in [(4usize, [0usize, 10]), (8, [6, 40])] {
            for link_down in link_downs {
                for seed in 0..3u64 {
                    let f = build(&FabricSpec { k, seed, link_down, with_hosts });
                    let all: Vec<_> = (0..f.num_dests()).map(|i| f.dest(i)).collect();
                    let what = format!("k={k} link_down={link_down} seed={seed} hosts={with_hosts}");
                    dests += check(&f.network, &all, &what).dests;
                }
            }
        }
    }
    assert_eq!(dests, 2 * (6 * 16 + 6 * 128));
}

#[test]
fn header_counts_cover_the_fields_forwarding_ignores() {
    for (k, link_down, with_hosts) in [(4usize, 10usize, true), (8, 6, true), (8, 40, false)] {
        let mut f = build(&FabricSpec { k, seed: 1, link_down, with_hosts });
        let width = f.network.layout.width;
        f.network.layout = HeaderLayout::with_acl_fields(width, 3, 2);
        let all: Vec<_> = (0..f.num_dests()).map(|i| f.dest(i)).collect();
        check(&f.network, &all, &format!("k={k} link_down={link_down} hosts={with_hosts} acl"));
    }
    let graph = waxman(&TopologySpec::new("scale-oracle-acl", 8, 3));
    let opts = DatasetOpts { prefixes_per_device: 2, fault_rate: 0.5, seed: 3 };
    let mut ds = generate(graph, HeaderLayout::new(10), &opts);
    ds.network.layout = HeaderLayout::with_acl_fields(10, 3, 2);
    let dests: Vec<_> = ds
        .owned
        .iter()
        .enumerate()
        .flat_map(|(d, ps)| ps.iter().map(move |&p| (NodeId(d as u32), p)))
        .collect();
    check(&ds.network, &dests, "waxman acl");
}

#[test]
fn faulty_dataset_verdicts_match_packet_simulation() {
    let mut cov = Coverage::default();
    for i in 0..60u64 {
        let nodes = 6 + (i % 8) as usize;
        let graph = waxman(&TopologySpec::new("scale-oracle", nodes, i));
        let opts = DatasetOpts { prefixes_per_device: 2, fault_rate: 0.5, seed: i };
        let ds = generate(graph, HeaderLayout::new(10), &opts);
        let dests: Vec<_> = ds
            .owned
            .iter()
            .enumerate()
            .flat_map(|(d, ps)| ps.iter().map(move |&p| (NodeId(d as u32), p)))
            .collect();
        let c = check(&ds.network, &dests, &format!("waxman nodes={nodes} seed={i}"));
        cov.dests += c.dests;
        cov.partial += c.partial;
        cov.looping += c.looping;
    }
    // The faults must actually reach the verifier's slow paths: partial
    // delivery and loops, not just all-or-nothing destinations (these
    // seeds give 1,124 destinations, 142 partial and 28 looping).
    assert!(cov.partial >= 100, "only {} destinations with partial delivery", cov.partial);
    assert!(cov.looping >= 20, "only {} destinations with loops", cov.looping);
    assert!(cov.dests >= 1_000, "only {} destinations", cov.dests);
}
