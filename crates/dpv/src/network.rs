//! The data-plane model: devices with prioritised forwarding rules over
//! a [`netrepro_graph::DiGraph`] topology.
//!
//! Each graph node is a device; each directed edge is a port of its
//! source device, linked to the destination device. Two synthetic ports
//! exist per device: *deliver* (packets destined to locally owned
//! prefixes) and *drop* (the implicit default). A rule matches on the
//! destination field alone, so a device's forwarding table is its whole
//! behaviour: a packet leaves by the port its first matching rule names.

use crate::header::{HeaderLayout, Prefix};
use netrepro_bdd::{BddManager, Ref, FALSE};
use netrepro_graph::{DiGraph, EdgeId, NodeId};

/// Forwarding action of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Forward out of the given topology edge.
    Forward(EdgeId),
    /// Deliver locally (the destination is attached here).
    Deliver,
    /// Drop explicitly.
    Drop,
}

/// A prioritised longest-prefix rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Match on the destination field.
    pub prefix: Prefix,
    /// Higher wins; by convention the prefix length.
    pub priority: u32,
    /// Action on match.
    pub action: Action,
}

/// A device: its rules, sorted by decreasing priority (insertion order
/// breaks ties, mirroring real FIB behaviour).
#[derive(Debug, Clone, Default)]
pub struct Device {
    /// Rules in decreasing-priority order.
    pub rules: Vec<Rule>,
}

impl Device {
    /// Insert a rule, keeping the decreasing-priority order (stable:
    /// equal priorities keep insertion order, later rules lose).
    pub fn insert(&mut self, rule: Rule) {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Remove the first rule equal to `rule`; returns whether found.
    pub fn remove(&mut self, rule: &Rule) -> bool {
        if let Some(pos) = self.rules.iter().position(|r| r == rule) {
            self.rules.remove(pos);
            true
        } else {
            false
        }
    }

    /// The action taken for a concrete address (linear scan oracle used
    /// by tests to validate the BDD pipeline).
    pub fn action_for(&self, addr: u32, width: u32) -> Action {
        for r in &self.rules {
            if r.prefix.contains(addr, width) {
                return r.action;
            }
        }
        Action::Drop
    }
}

/// A full data plane: topology + per-device FIBs + header layout.
#[derive(Debug, Clone)]
pub struct Network {
    /// The topology (nodes are devices, edges are ports).
    pub graph: DiGraph,
    /// Per-device forwarding tables, indexed by node.
    pub devices: Vec<Device>,
    /// Header layout shared by every FIB.
    pub layout: HeaderLayout,
}

/// The compiled forwarding behaviour of one device: a predicate per
/// action, mutually disjoint and jointly covering the header space.
#[derive(Debug, Clone)]
pub struct PortPredicates {
    /// `(action, predicate)` pairs; `Drop` holds the residue.
    pub preds: Vec<(Action, Ref)>,
}

impl Network {
    /// An empty data plane over `graph`.
    pub fn new(graph: DiGraph, layout: HeaderLayout) -> Self {
        let devices = (0..graph.num_nodes()).map(|_| Device::default()).collect();
        Network { graph, devices, layout }
    }

    /// The device at `n`.
    pub fn device(&self, n: NodeId) -> &Device {
        &self.devices[n.index()]
    }

    /// Mutable device access.
    pub fn device_mut(&mut self, n: NodeId) -> &mut Device {
        &mut self.devices[n.index()]
    }

    /// Total rule count across all devices.
    pub fn num_rules(&self) -> usize {
        self.devices.iter().map(|d| d.rules.len()).sum()
    }

    /// Compile the device at `n` into per-action *hit* predicates:
    /// priority-ordered first-match semantics, i.e. each rule's hit is
    /// its match minus all higher-priority matches. The `Drop` entry
    /// accumulates both explicit drops and the unmatched residue.
    pub fn port_predicates(&self, m: &mut BddManager, n: NodeId) -> PortPredicates {
        let dev = &self.devices[n.index()];
        let mut preds: Vec<(Action, Ref)> = Vec::new();
        // `covered` = union of all higher-priority matches so far.
        let mut covered = FALSE;
        m.ref_inc(covered);
        for rule in &dev.rules {
            let matched = self.layout.prefix_pred(m, rule.prefix);
            m.ref_inc(matched);
            let hit = m.diff(matched, covered);
            m.ref_inc(hit);
            let new_covered = m.or(covered, matched);
            m.ref_inc(new_covered);
            m.ref_dec(covered);
            m.ref_dec(matched);
            covered = new_covered;
            if hit != FALSE {
                match preds.iter_mut().find(|(a, _)| *a == rule.action) {
                    Some((_, p)) => {
                        let np = m.or(*p, hit);
                        m.ref_inc(np);
                        m.ref_dec(*p);
                        *p = np;
                        m.ref_dec(hit);
                    }
                    None => preds.push((rule.action, hit)),
                }
            } else {
                m.ref_dec(hit);
            }
        }
        // Residue goes to Drop.
        let residue = m.not(covered);
        m.ref_inc(residue);
        m.ref_dec(covered);
        if residue != FALSE {
            match preds.iter_mut().find(|(a, _)| *a == Action::Drop) {
                Some((_, p)) => {
                    let np = m.or(*p, residue);
                    m.ref_inc(np);
                    m.ref_dec(*p);
                    *p = np;
                    m.ref_dec(residue);
                }
                None => preds.push((Action::Drop, residue)),
            }
        } else {
            m.ref_dec(residue);
        }
        PortPredicates { preds }
    }
}

impl PortPredicates {
    /// Release this compilation's BDD references.
    pub fn release(self, m: &mut BddManager) {
        for (_, p) in self.preds {
            m.ref_dec(p);
        }
    }

    /// Predicate for a specific action (FALSE if absent).
    pub fn for_action(&self, a: Action) -> Ref {
        self.preds.iter().find(|(act, _)| *act == a).map(|&(_, p)| p).unwrap_or(FALSE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrepro_bdd::EngineProfile;

    fn two_node_net(width: u32) -> (Network, NodeId, NodeId, EdgeId) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 1.0, 1.0);
        (Network::new(g, HeaderLayout::new(width)), a, b, e)
    }

    #[test]
    fn insert_keeps_priority_order() {
        let (mut net, a, _, e) = two_node_net(8);
        let dev = net.device_mut(a);
        dev.insert(Rule { prefix: Prefix { addr: 0, len: 1 }, priority: 1, action: Action::Forward(e) });
        dev.insert(Rule { prefix: Prefix { addr: 0, len: 3 }, priority: 3, action: Action::Drop });
        dev.insert(Rule { prefix: Prefix { addr: 0, len: 2 }, priority: 2, action: Action::Deliver });
        let prios: Vec<u32> = dev.rules.iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![3, 2, 1]);
    }

    #[test]
    fn equal_priority_keeps_insertion_order() {
        let (mut net, a, _, e) = two_node_net(8);
        let dev = net.device_mut(a);
        let r1 = Rule { prefix: Prefix { addr: 0b00000000, len: 2 }, priority: 2, action: Action::Forward(e) };
        let r2 = Rule { prefix: Prefix { addr: 0b0100_0000, len: 2 }, priority: 2, action: Action::Drop };
        dev.insert(r1);
        dev.insert(r2);
        assert_eq!(dev.rules[0], r1);
        assert_eq!(dev.rules[1], r2);
    }

    #[test]
    fn action_for_respects_priority() {
        let (mut net, a, _, e) = two_node_net(8);
        let dev = net.device_mut(a);
        dev.insert(Rule { prefix: Prefix { addr: 0, len: 0 }, priority: 0, action: Action::Forward(e) });
        dev.insert(Rule { prefix: Prefix { addr: 0b10000000, len: 1 }, priority: 1, action: Action::Drop });
        assert_eq!(dev.action_for(0b1100_0000, 8), Action::Drop);
        assert_eq!(dev.action_for(0b0100_0000, 8), Action::Forward(e));
    }

    #[test]
    fn port_predicates_partition_header_space() {
        let (mut net, a, _, e) = two_node_net(8);
        net.device_mut(a).insert(Rule {
            prefix: Prefix { addr: 0b10000000, len: 1 },
            priority: 1,
            action: Action::Forward(e),
        });
        let mut m = net.layout.manager(EngineProfile::Cached);
        let pp = net.port_predicates(&mut m, a);
        // Forward gets half the space, Drop the other half.
        let fwd = pp.for_action(Action::Forward(e));
        let drop = pp.for_action(Action::Drop);
        assert_eq!(m.sat_count(fwd), 128.0);
        assert_eq!(m.sat_count(drop), 128.0);
        assert_eq!(m.and(fwd, drop), FALSE);
        let all = m.or(fwd, drop);
        assert_eq!(m.sat_count(all), 256.0);
    }

    #[test]
    fn longest_prefix_shadows_shorter() {
        let (mut net, a, _, e) = two_node_net(8);
        let dev = net.device_mut(a);
        dev.insert(Rule { prefix: Prefix { addr: 0, len: 0 }, priority: 0, action: Action::Forward(e) });
        dev.insert(Rule {
            prefix: Prefix { addr: 0b10100000, len: 4 },
            priority: 4,
            action: Action::Drop,
        });
        let mut m = net.layout.manager(EngineProfile::Cached);
        let pp = net.port_predicates(&mut m, a);
        let fwd = pp.for_action(Action::Forward(e));
        // 256 - 16 shadowed by the /4 drop.
        assert_eq!(m.sat_count(fwd), 240.0);
        assert_eq!(m.sat_count(pp.for_action(Action::Drop)), 16.0);
    }

    #[test]
    fn pp_agrees_with_scan_oracle() {
        let (mut net, a, _, e) = two_node_net(6);
        let dev = net.device_mut(a);
        dev.insert(Rule { prefix: Prefix { addr: 0b100000, len: 1 }, priority: 1, action: Action::Forward(e) });
        dev.insert(Rule { prefix: Prefix { addr: 0b101000, len: 3 }, priority: 3, action: Action::Deliver });
        dev.insert(Rule { prefix: Prefix { addr: 0b000000, len: 2 }, priority: 2, action: Action::Drop });
        let mut m = net.layout.manager(EngineProfile::Cached);
        let pp = net.port_predicates(&mut m, a);
        for addr in 0u32..64 {
            let bits: Vec<bool> = (0..6).map(|i| (addr >> (5 - i)) & 1 == 1).collect();
            let oracle = net.device(a).action_for(addr, 6);
            let via_bdd = pp
                .preds
                .iter()
                .find(|&&(_, p)| m.eval(p, &bits) == Ok(true))
                .map(|&(act, _)| act)
                .unwrap_or(Action::Drop);
            assert_eq!(via_bdd, oracle, "addr {addr}");
        }
    }

    #[test]
    fn remove_rule() {
        let (mut net, a, _, e) = two_node_net(8);
        let r = Rule { prefix: Prefix { addr: 0, len: 1 }, priority: 1, action: Action::Forward(e) };
        net.device_mut(a).insert(r);
        assert!(net.device_mut(a).remove(&r));
        assert!(!net.device_mut(a).remove(&r));
        assert_eq!(net.num_rules(), 0);
    }
}
