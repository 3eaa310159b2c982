//! Hyper-scale DCN dataplanes: structured ECMP FIBs over k-ary
//! fat-trees, built without any all-pairs routing state.
//!
//! [`crate::dataset::generate`] runs a Dijkstra per (destination,
//! source) pair — fine for the paper's WAN-scale instances, hopeless at
//! 10k–100k devices. A fat-tree needs none of that: its routing is a
//! pure function of index arithmetic (Al-Fares et al.), so this module
//! emits each device's FIB directly from the topology coordinates, in
//! one streaming pass:
//!
//! * hosts get a dense, prefix-exact address block (`k/2` is a power of
//!   two, so every edge-switch block and pod is one exact prefix);
//! * downward routes are exact block prefixes;
//! * upward routes pick one of the `k/2` candidate uplinks by a
//!   deterministic seeded hash of `(seed, device, destination block)` —
//!   the usual hashed-ECMP model, collapsed to a single next hop so
//!   forwarding stays deterministic per header;
//! * optional `link_down` churn severs a seeded sample of links and
//!   rewrites the FIB rules that used them to [`Action::Drop`] — the
//!   blackhole scenario the partitioned verifier has to witness.

use crate::header::{HeaderLayout, Prefix};
use crate::network::{Action, Network, Rule};
use netrepro_graph::gen::{fat_tree, FatTree, FatTreeSpec};
use netrepro_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt for the churn RNG stream, so link_down sampling is independent
/// of the ECMP hash stream for the same seed.
const SALT_CHURN: u64 = 0x6c69_6e6b_646f_776e;

/// Specification of a verification fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricSpec {
    /// Fat-tree arity (even, `k/2` a power of two, `k >= 4`).
    pub k: usize,
    /// Seed for ECMP uplink choices and churn sampling.
    pub seed: u64,
    /// Number of links to sever (each direction counts separately).
    pub link_down: usize,
    /// Materialize hosts as devices. `false` models the switch-only
    /// dataplane (edge switches deliver their block), which is how the
    /// 100k-device scales stay memory-bounded.
    pub with_hosts: bool,
}

impl FabricSpec {
    /// A clean fabric (no churn) with hosts.
    pub fn new(k: usize, seed: u64) -> Self {
        FabricSpec { k, seed, link_down: 0, with_hosts: true }
    }
}

/// A built fabric: the populated dataplane plus the fat-tree index
/// arithmetic needed to address destinations.
#[derive(Debug)]
pub struct Fabric {
    /// The dataplane (topology + FIBs + layout).
    pub network: Network,
    /// Index arithmetic for the fat-tree. Its `graph` field is empty —
    /// the topology lives in `network.graph`; this value only serves
    /// the pure coordinate/id computations.
    pub tree: FatTree,
    /// Host-address bits (`log2(k³/4)`).
    pub host_bits: u32,
    /// The spec this fabric was built from.
    pub spec: FabricSpec,
}

impl Fabric {
    /// Number of verification devices (graph nodes).
    pub fn num_devices(&self) -> usize {
        self.network.graph.num_nodes()
    }

    /// Number of addressable destinations (always host-granular, even
    /// in switch-only fabrics).
    pub fn num_dests(&self) -> usize {
        self.tree.num_hosts()
    }

    /// The `(owner device, address prefix)` of destination `idx`
    /// (a dense host index in `0..num_dests()`). In switch-only
    /// fabrics the owner is the host's edge switch.
    pub fn dest(&self, idx: usize) -> (NodeId, Prefix) {
        let (p, e, h) = self.tree.host_coords(idx);
        let owner = if self.spec.with_hosts { self.tree.host(p, e, h) } else { self.tree.edge(p, e) };
        (owner, self.host_prefix(idx))
    }

    /// The exact prefix of host `idx`, left-aligned in the layout width.
    pub fn host_prefix(&self, idx: usize) -> Prefix {
        let shift = self.network.layout.width - self.host_bits;
        Prefix { addr: (idx as u32) << shift, len: self.host_bits as u8 }
    }
}

/// Deterministic ECMP choice: a splitmix64-style mix of the seed, the
/// choosing device, and the destination block, reduced mod `n`.
fn ecmp_pick(seed: u64, device: u32, key: u32, n: usize) -> usize {
    let mut z = seed ^ ((device as u64) << 32) ^ (key as u64);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n as u64) as usize
}

/// Build the fabric: generate the fat-tree, emit every FIB from index
/// arithmetic, then apply churn. O(V + E + rules) time and memory.
pub fn build(spec: &FabricSpec) -> Fabric {
    let ft = fat_tree(&FatTreeSpec { k: spec.k, capacity: 40.0, with_hosts: spec.with_hosts });
    let half = ft.half();
    let m = half.trailing_zeros(); // log2(k/2)
    let host_bits = 3 * m + 1; // log2(k³/4) for k = 2^(m+1)
    let width = host_bits + 1; // one spare bit of unowned residue space
    assert!(width <= 32, "fat-tree arity too large for a 32-bit header");
    let layout = HeaderLayout::new(width);

    // Move the topology into the Network; keep an arithmetic-only tree.
    let FatTree { graph, k, with_hosts } = ft;
    let tree = FatTree { graph: DiGraph::new(), k, with_hosts };
    let mut net = Network::new(graph, layout);

    let shift = width - host_bits;
    let host_len = host_bits as u8; // /host prefix
    let eb_len = (host_bits - m) as u8; // /edge-block prefix
    let pb_len = (host_bits - 2 * m) as u8; // /pod prefix
    let host_pfx = |idx: usize| Prefix { addr: (idx as u32) << shift, len: host_len };
    let eb_pfx = |p: usize, e: usize| Prefix {
        addr: (((p * half + e) * half) as u32) << shift,
        len: eb_len,
    };
    let pod_pfx = |p: usize| Prefix { addr: ((p * half * half) as u32) << shift, len: pb_len };
    // Every link looked up here was just created by the generator; if
    // one were ever absent (a generator bug), the rule degrades to an
    // explicit drop — visible as a blackhole verdict — instead of
    // unwinding mid-build.
    let port = |g: &DiGraph, a: NodeId, b: NodeId| -> Action {
        match g.find_edge(a, b) {
            Some(e) => Action::Forward(e),
            None => Action::Drop,
        }
    };

    // Hosts: deliver own prefix, default-route everything up.
    if with_hosts {
        for p in 0..k {
            for e in 0..half {
                for h in 0..half {
                    let hn = tree.host(p, e, h);
                    let up = port(&net.graph, hn, tree.edge(p, e));
                    let dev = net.device_mut(hn);
                    dev.insert(Rule {
                        prefix: host_pfx(tree.host_index(p, e, h)),
                        priority: host_len as u32,
                        action: Action::Deliver,
                    });
                    dev.insert(Rule { prefix: Prefix::ANY, priority: 0, action: up });
                }
            }
        }
    }

    // Edge switches.
    for p in 0..k {
        for e in 0..half {
            let en = tree.edge(p, e);
            // Downward: own hosts (or deliver the whole block when the
            // hosts are not materialized).
            let mut rules: Vec<Rule> = Vec::new();
            if with_hosts {
                for h in 0..half {
                    let down = port(&net.graph, en, tree.host(p, e, h));
                    rules.push(Rule {
                        prefix: host_pfx(tree.host_index(p, e, h)),
                        priority: host_len as u32,
                        action: down,
                    });
                }
            } else {
                rules.push(Rule { prefix: eb_pfx(p, e), priority: eb_len as u32, action: Action::Deliver });
            }
            // Sideways: sibling edge blocks via a hashed agg uplink.
            for e2 in 0..half {
                if e2 == e {
                    continue;
                }
                let j = ecmp_pick(spec.seed, en.0, (p * half + e2) as u32, half);
                let up = port(&net.graph, en, tree.agg(p, j));
                rules.push(Rule { prefix: eb_pfx(p, e2), priority: eb_len as u32, action: up });
            }
            // Upward: remote pods via a hashed agg uplink.
            for q in 0..k {
                if q == p {
                    continue;
                }
                let j = ecmp_pick(spec.seed, en.0, (k * half + q) as u32, half);
                let up = port(&net.graph, en, tree.agg(p, j));
                rules.push(Rule { prefix: pod_pfx(q), priority: pb_len as u32, action: up });
            }
            let dev = net.device_mut(en);
            for r in rules {
                dev.insert(r);
            }
        }
    }

    // Aggregation switches.
    for p in 0..k {
        for j in 0..half {
            let an = tree.agg(p, j);
            let mut rules: Vec<Rule> = Vec::new();
            // Downward: every edge block of the pod.
            for e in 0..half {
                let down = port(&net.graph, an, tree.edge(p, e));
                rules.push(Rule { prefix: eb_pfx(p, e), priority: eb_len as u32, action: down });
            }
            // Upward: remote pods via a hashed core of group j.
            for q in 0..k {
                if q == p {
                    continue;
                }
                let c = j * half + ecmp_pick(spec.seed, an.0, q as u32, half);
                let up = port(&net.graph, an, tree.core(c));
                rules.push(Rule { prefix: pod_pfx(q), priority: pb_len as u32, action: up });
            }
            let dev = net.device_mut(an);
            for r in rules {
                dev.insert(r);
            }
        }
    }

    // Cores: one downward pod route each, toward the core's agg group.
    for c in 0..tree.num_cores() {
        let cn = tree.core(c);
        let g = c / half;
        let mut rules: Vec<Rule> = Vec::new();
        for p in 0..k {
            let down = port(&net.graph, cn, tree.agg(p, g));
            rules.push(Rule { prefix: pod_pfx(p), priority: pb_len as u32, action: down });
        }
        let dev = net.device_mut(cn);
        for r in rules {
            dev.insert(r);
        }
    }

    let mut fabric = Fabric { network: net, tree, host_bits, spec: *spec };
    if spec.link_down > 0 {
        apply_churn(&mut fabric);
    }
    fabric
}

/// Sever a seeded sample of `link_down` distinct directed links:
/// every FIB rule forwarding out of a severed link becomes an explicit
/// [`Action::Drop`] (the dead-port model, mirroring
/// [`crate::dataset::FibDataset::corrupt_links`]).
fn apply_churn(fabric: &mut Fabric) {
    let total = fabric.network.graph.num_edges();
    let want = fabric.spec.link_down.min(total);
    let mut rng = StdRng::seed_from_u64(fabric.spec.seed ^ SALT_CHURN);
    let mut severed = vec![false; total];
    let mut picked = 0;
    // Bounded rejection sampling keeps this deterministic and cheap.
    let mut tries = 0;
    while picked < want && tries < want * 64 + 64 {
        tries += 1;
        let e = rng.random_range(0..total as u32) as usize;
        if !severed[e] {
            severed[e] = true;
            picked += 1;
        }
    }
    for dev in fabric.network.devices.iter_mut() {
        for rule in dev.rules.iter_mut() {
            if let Action::Forward(e) = rule.action {
                if severed[e.index()] {
                    rule.action = Action::Drop;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, Packet, Verdict};

    #[test]
    fn fabric_shape_and_rule_counts() {
        let f = build(&FabricSpec::new(4, 7));
        assert_eq!(f.num_devices(), 20 + 16);
        assert_eq!(f.num_dests(), 16);
        assert_eq!(f.host_bits, 4);
        assert_eq!(f.network.layout.width, 5);
        // Every core: k pod routes; every agg: k/2 + (k-1); every edge:
        // k/2 hosts + (k/2 - 1) siblings + (k - 1) pods; hosts: 2.
        let k = 4;
        let half = 2;
        let expect = (half * half) * k
            + (k * half) * (half + k - 1)
            + (k * half) * (half + half - 1 + k - 1)
            + (k * half * half) * 2;
        assert_eq!(f.network.num_rules(), expect);
    }

    #[test]
    fn every_host_pair_delivers_on_clean_fabric() {
        let f = build(&FabricSpec::new(4, 3));
        let w = f.network.layout.width;
        for s in 0..f.num_dests() {
            for d in 0..f.num_dests() {
                let (src, _) = f.dest(s);
                let (dst, pfx) = f.dest(d);
                let addr = pfx.addr; // lowest address of the /host prefix
                let v = simulate(&f.network, src, Packet { dst: addr }, 64);
                match v {
                    Verdict::Delivered(at) => assert_eq!(at, dst, "{s}->{d} delivered at wrong device"),
                    other => panic!("{s}->{d} (addr {addr:#x}, width {w}): {other:?}"),
                }
            }
        }
    }

    #[test]
    fn switch_only_fabric_delivers_at_edge_switches() {
        let f = build(&FabricSpec { k: 4, seed: 3, link_down: 0, with_hosts: false });
        assert_eq!(f.num_devices(), 20);
        for s in [0usize, 5, 9] {
            for d in [2usize, 7, 15] {
                let (src, _) = f.dest(s);
                let (dst, pfx) = f.dest(d);
                let v = simulate(&f.network, src, Packet { dst: pfx.addr }, 64);
                assert_eq!(v, Verdict::Delivered(dst), "{s}->{d}");
            }
        }
    }

    #[test]
    fn fabric_is_deterministic_and_seed_sensitive() {
        let a = build(&FabricSpec::new(8, 11));
        let b = build(&FabricSpec::new(8, 11));
        let c = build(&FabricSpec::new(8, 12));
        let dump = |f: &Fabric| {
            f.network
                .devices
                .iter()
                .flat_map(|d| d.rules.iter().map(|r| (r.prefix, r.priority, r.action)))
                .collect::<Vec<_>>()
        };
        assert_eq!(dump(&a), dump(&b));
        assert_ne!(dump(&a), dump(&c), "ECMP choices must depend on the seed");
    }

    #[test]
    fn churn_introduces_drop_rules() {
        let clean = build(&FabricSpec { k: 8, seed: 5, link_down: 0, with_hosts: false });
        let churned = build(&FabricSpec { k: 8, seed: 5, link_down: 40, with_hosts: false });
        let drops = |f: &Fabric| {
            f.network
                .devices
                .iter()
                .flat_map(|d| d.rules.iter())
                .filter(|r| r.action == Action::Drop)
                .count()
        };
        assert_eq!(drops(&clean), 0);
        assert!(drops(&churned) > 0, "churn must convert forwards to drops");
        // Same seed, same churn: deterministic.
        let again = build(&FabricSpec { k: 8, seed: 5, link_down: 40, with_hosts: false });
        assert_eq!(drops(&churned), drops(&again));
    }
}
