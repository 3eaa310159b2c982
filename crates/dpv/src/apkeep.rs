//! APKeep (Zhang et al., NSDI 2020): real-time incremental data-plane
//! verification.
//!
//! APKeep maintains, per device, the *hit* predicate of every rule (its
//! match minus all higher-priority matches) and a port–predicate map
//! (PPM). A rule insertion or deletion is processed by identifying the
//! *changes* it causes — header spaces that move between ports — and
//! applying only those to the PPM. The insertion routine below is the
//! pseudocode the HotNets'23 paper reproduces as its Figure 6
//! (`IdentifyChangesInsert`), including the `bddEngine.diff`/`deRef`
//! reference-count discipline of the Java original.

use crate::ap::{AtomicPredicates, ApVerifier, AtomSet};
use crate::atoms::DynamicAtoms;
use crate::header::HeaderLayout;
use crate::network::{Action, Network, Rule};
use netrepro_bdd::{BddManager, EngineProfile, Ref, FALSE, TRUE};
use netrepro_graph::NodeId;

/// A behaviour change: header space `hs` moves from port `from` to
/// port `to` on one device.
#[derive(Debug, Clone, Copy)]
pub struct Change {
    /// The moved header space.
    pub hs: Ref,
    /// Previous action.
    pub from: Action,
    /// New action.
    pub to: Action,
}

#[derive(Debug, Clone)]
struct ApkRule {
    rule: Rule,
    /// The rule's hit: match minus all higher-priority matches.
    hit: Ref,
}

#[derive(Debug)]
struct ApkDevice {
    /// Decreasing priority; ties broken by insertion order (earlier wins).
    rules: Vec<ApkRule>,
    /// Hit of the implicit lowest-priority default-drop rule.
    default_hit: Ref,
}

/// The incremental verifier state.
#[derive(Debug)]
pub struct ApKeep {
    /// The BDD engine (JDD stand-in by default, per the paper both the
    /// open-source and reproduced APKeep use JDD).
    pub manager: BddManager,
    layout: HeaderLayout,
    devices: Vec<ApkDevice>,
    /// PPM: per device, `(action, predicate)` — disjoint, covers TRUE.
    ppm: Vec<Vec<(Action, Ref)>>,
    /// Real-time atomic predicates, maintained by split/merge on every
    /// change (APKeep's core structure; see [`crate::atoms`]).
    pub atoms: DynamicAtoms,
    /// Ports currently down (their traffic shows as dropped in the PPM).
    downed: std::collections::HashSet<netrepro_graph::EdgeId>,
    edge_endpoints: Vec<(NodeId, NodeId)>,
    /// Total changes identified so far (workload metric).
    pub changes_applied: u64,
}

impl ApKeep {
    /// An APKeep instance over the (rule-less) topology of `net`. Rules
    /// are fed through [`ApKeep::insert`] / [`ApKeep::remove`].
    pub fn new(net: &Network, profile: EngineProfile) -> Self {
        let mut manager = net.layout.manager(profile);
        let n = net.graph.num_nodes();
        let devices = (0..n)
            .map(|_| ApkDevice { rules: Vec::new(), default_hit: TRUE })
            .collect();
        let ppm = (0..n)
            .map(|_| {
                let p = vec![(Action::Drop, TRUE)];
                p
            })
            .collect();
        let _ = &mut manager;
        ApKeep {
            manager,
            layout: net.layout,
            devices,
            ppm,
            atoms: DynamicAtoms::new(n),
            downed: std::collections::HashSet::new(),
            edge_endpoints: net.graph.edges().map(|e| net.graph.endpoints(e)).collect(),
            changes_applied: 0,
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Total installed rules (excluding the implicit defaults).
    pub fn num_rules(&self) -> usize {
        self.devices.iter().map(|d| d.rules.len()).sum()
    }

    /// Insert `rule` at `device`: identify the changes (Algorithm 1 /
    /// the HotNets paper's Figure 6) and apply them to the PPM.
    /// Returns the number of changes.
    pub fn insert(&mut self, device: NodeId, rule: Rule) -> usize {
        let m = &mut self.manager;
        let dev = &mut self.devices[device.index()];

        // r.hit <- r.match
        let matched = self.layout.prefix_pred(m, rule.prefix);
        let mut hit = matched;
        m.ref_inc(hit);

        let mut changes: Vec<Change> = Vec::new();

        // Pass 1: subtract every higher-priority hit (>= : existing
        // rules win priority ties, matching FIB insertion semantics).
        for r in dev.rules.iter().filter(|r| r.rule.priority >= rule.priority) {
            let inter = m.and(hit, r.hit);
            if inter != FALSE {
                let new_hit = m.diff(hit, r.hit);
                m.ref_inc(new_hit);
                m.ref_dec(hit);
                hit = new_hit;
                if hit == FALSE {
                    break;
                }
            }
        }

        // Pass 2: steal from lower-priority hits, emitting changes where
        // the egress differs (Figure 6's second branch).
        if hit != FALSE {
            for r in dev.rules.iter_mut().filter(|r| r.rule.priority < rule.priority) {
                let inter = m.and(hit, r.hit);
                if inter != FALSE {
                    if r.rule.action != rule.action {
                        m.ref_inc(inter);
                        changes.push(Change { hs: inter, from: r.rule.action, to: rule.action });
                    }
                    let new_hit = m.diff(r.hit, hit);
                    m.ref_inc(new_hit);
                    m.ref_dec(r.hit);
                    r.hit = new_hit;
                }
            }
            // Remainder comes from the default-drop rule.
            let from_default = m.and(hit, dev.default_hit);
            if from_default != FALSE {
                if rule.action != Action::Drop {
                    m.ref_inc(from_default);
                    changes.push(Change { hs: from_default, from: Action::Drop, to: rule.action });
                }
                let nd = m.diff(dev.default_hit, hit);
                m.ref_inc(nd);
                if !dev.default_hit.is_terminal() {
                    m.ref_dec(dev.default_hit);
                }
                dev.default_hit = nd;
            }
        }

        // Insert r into R (decreasing priority, stable).
        let pos = dev.rules.partition_point(|r| r.rule.priority >= rule.priority);
        dev.rules.insert(pos, ApkRule { rule, hit });

        let n = changes.len();
        self.apply_changes(device, changes);
        n
    }

    /// Remove the first installed rule equal to `rule`, redistributing
    /// its hit downward. Returns the number of changes, or `None` if the
    /// rule was not installed.
    pub fn remove(&mut self, device: NodeId, rule: &Rule) -> Option<usize> {
        let dev_idx = device.index();
        let pos = self.devices[dev_idx].rules.iter().position(|r| r.rule == *rule)?;
        let removed = self.devices[dev_idx].rules.remove(pos);
        let m = &mut self.manager;

        let mut remaining = removed.hit;
        let mut changes: Vec<Change> = Vec::new();

        // Lower-priority rules reclaim the freed space in priority order.
        for r in self.devices[dev_idx].rules[pos..].iter_mut() {
            if remaining == FALSE {
                break;
            }
            let rmatch = self.layout.prefix_pred(m, r.rule.prefix);
            let moved = m.and(remaining, rmatch);
            if moved != FALSE {
                if r.rule.action != removed.rule.action {
                    m.ref_inc(moved);
                    changes.push(Change { hs: moved, from: removed.rule.action, to: r.rule.action });
                }
                let nh = m.or(r.hit, moved);
                m.ref_inc(nh);
                m.ref_dec(r.hit);
                r.hit = nh;
                let nr = m.diff(remaining, rmatch);
                m.ref_inc(nr);
                m.ref_dec(remaining);
                remaining = nr;
            }
        }
        // Whatever is left falls back to default drop.
        if remaining != FALSE {
            if removed.rule.action != Action::Drop {
                m.ref_inc(remaining);
                changes.push(Change { hs: remaining, from: removed.rule.action, to: Action::Drop });
            }
            let dev = &mut self.devices[dev_idx];
            let nd = m.or(dev.default_hit, remaining);
            m.ref_inc(nd);
            if !dev.default_hit.is_terminal() {
                m.ref_dec(dev.default_hit);
            }
            dev.default_hit = nd;
            m.ref_dec(remaining);
        }

        let n = changes.len();
        self.apply_changes(device, changes);
        Some(n)
    }

    fn apply_changes(&mut self, device: NodeId, changes: Vec<Change>) {
        // A downed port behaves as Drop in the PPM (the FIB still names
        // it; see link_down/link_up), so translate before applying.
        let mut translated = Vec::with_capacity(changes.len());
        for mut ch in changes {
            if let Action::Forward(e) = ch.from {
                if self.downed.contains(&e) {
                    ch.from = Action::Drop;
                }
            }
            if let Action::Forward(e) = ch.to {
                if self.downed.contains(&e) {
                    ch.to = Action::Drop;
                }
            }
            if ch.from == ch.to {
                if !ch.hs.is_terminal() {
                    self.manager.ref_dec(ch.hs);
                }
                continue;
            }
            translated.push(ch);
        }
        self.apply_changes_raw(device, translated);
    }

    /// Take a port down: every header space the owning device currently
    /// forwards out of `edge` behaves as dropped until [`ApKeep::link_up`].
    /// Returns the number of changes (0 or 1). Idempotent.
    pub fn link_down(&mut self, edge: netrepro_graph::EdgeId) -> usize {
        if !self.downed.insert(edge) {
            return 0;
        }
        let device = self.edge_endpoints[edge.index()].0;
        let moved = self.union_of_hits(device, edge);
        if moved == FALSE {
            return 0;
        }
        // union_of_hits left one protection on `moved`.
        let changes = vec![Change { hs: moved, from: Action::Forward(edge), to: Action::Drop }];
        // apply_changes translates `to`; `from` must stay the live port,
        // so temporarily... the translation maps Forward(downed) -> Drop
        // on BOTH sides; bypass it by applying directly.
        self.apply_changes_raw(device, changes);
        1
    }

    /// Bring a port back: the forwarding space returns from Drop.
    /// Returns the number of changes (0 or 1). Idempotent.
    pub fn link_up(&mut self, edge: netrepro_graph::EdgeId) -> usize {
        if !self.downed.remove(&edge) {
            return 0;
        }
        let device = self.edge_endpoints[edge.index()].0;
        let moved = self.union_of_hits(device, edge);
        if moved == FALSE {
            return 0;
        }
        let changes = vec![Change { hs: moved, from: Action::Drop, to: Action::Forward(edge) }];
        self.apply_changes_raw(device, changes);
        1
    }

    /// Whether a port is currently down.
    pub fn is_down(&self, edge: netrepro_graph::EdgeId) -> bool {
        self.downed.contains(&edge)
    }

    /// Union of the hits of every installed rule forwarding out of
    /// `edge` on `device`; the result carries one protection.
    fn union_of_hits(&mut self, device: NodeId, edge: netrepro_graph::EdgeId) -> Ref {
        let m = &mut self.manager;
        let mut acc = FALSE;
        m.ref_inc(acc);
        for r in &self.devices[device.index()].rules {
            if r.rule.action == Action::Forward(edge) {
                let na = m.or(acc, r.hit);
                m.ref_inc(na);
                m.ref_dec(acc);
                acc = na;
            }
        }
        acc
    }

    /// Apply changes without the downed-port translation (used by the
    /// link events themselves, whose `from`/`to` are already final).
    fn apply_changes_raw(&mut self, device: NodeId, changes: Vec<Change>) {
        let m = &mut self.manager;
        let ppm = &mut self.ppm[device.index()];
        for ch in changes {
            self.atoms.apply_change(m, device.index(), ch.hs, ch.from, ch.to);
            if let Some(entry) = ppm.iter_mut().find(|(a, _)| *a == ch.from) {
                let np = m.diff(entry.1, ch.hs);
                m.ref_inc(np);
                if !entry.1.is_terminal() {
                    m.ref_dec(entry.1);
                }
                entry.1 = np;
            }
            match ppm.iter_mut().find(|(a, _)| *a == ch.to) {
                Some(entry) => {
                    let np = m.or(entry.1, ch.hs);
                    m.ref_inc(np);
                    if !entry.1.is_terminal() {
                        m.ref_dec(entry.1);
                    }
                    entry.1 = np;
                }
                None => {
                    m.ref_inc(ch.hs);
                    ppm.push((ch.to, ch.hs));
                }
            }
            if !ch.hs.is_terminal() {
                m.ref_dec(ch.hs);
            }
            self.changes_applied += 1;
        }
    }

    /// The PPM predicate for `(device, action)` (FALSE if absent).
    pub fn ppm_pred(&self, device: NodeId, action: Action) -> Ref {
        self.ppm[device.index()]
            .iter()
            .find(|(a, _)| *a == action)
            .map(|&(_, p)| p)
            .unwrap_or(FALSE)
    }

    /// Number of atomic predicates — O(1), read off the real-time
    /// [`DynamicAtoms`] structure. The headline metric Table C compares
    /// against the batch AP verifier.
    pub fn num_atomic_predicates(&mut self) -> usize {
        self.atoms.len()
    }

    /// Recompute the atom count from scratch by refining the PPM
    /// predicates (the batch algorithm). Used to cross-validate the
    /// incremental maintenance; tests assert it always equals
    /// [`ApKeep::num_atomic_predicates`].
    pub fn recount_atomic_predicates(&mut self) -> usize {
        let sources: Vec<Ref> = self
            .ppm
            .iter()
            .flatten()
            .map(|&(_, p)| p)
            .filter(|p| !p.is_terminal())
            .collect();
        let atoms = AtomicPredicates::compute(&mut self.manager, &sources);
        let n = atoms.len();
        atoms.release(&mut self.manager);
        n
    }

    /// Snapshot the PPM into atom-set tables compatible with the
    /// [`crate::reach`] traversals (loop / blackhole checks).
    pub fn snapshot(mut self) -> ApVerifier {
        let sources: Vec<Ref> = self
            .ppm
            .iter()
            .flatten()
            .map(|&(_, p)| p)
            .filter(|p| !p.is_terminal())
            .collect();
        let num_predicates = sources.len();
        let atoms = AtomicPredicates::compute(&mut self.manager, &sources);
        let tables: Vec<Vec<(Action, AtomSet)>> = self
            .ppm
            .iter()
            .map(|preds| {
                preds
                    .iter()
                    .map(|&(a, p)| (a, atoms.represent(&mut self.manager, p)))
                    .collect()
            })
            .collect();
        ApVerifier {
            manager: self.manager,
            atoms,
            tables,
            num_predicates,
            edge_endpoints: self.edge_endpoints.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetOpts};
    use crate::header::Prefix;
    use crate::network::Network;
    use netrepro_graph::gen::ring;
    use netrepro_graph::DiGraph;

    fn two_nodes(width: u32) -> (Network, NodeId, NodeId, netrepro_graph::EdgeId) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 1.0, 1.0);
        g.add_edge(b, a, 1.0, 1.0);
        (Network::new(g, HeaderLayout::new(width)), a, b, e)
    }

    #[test]
    fn insert_moves_space_from_default() {
        let (net, a, _, e) = two_nodes(8);
        let mut k = ApKeep::new(&net, EngineProfile::Cached);
        let n = k.insert(a, Rule {
            prefix: Prefix { addr: 0b1000_0000, len: 1 },
            priority: 1,
            action: Action::Forward(e),
        });
        assert_eq!(n, 1, "one change: half the space leaves default-drop");
        let fwd = k.ppm_pred(a, Action::Forward(e));
        assert_eq!(k.manager.sat_count(fwd), 128.0);
        let drop = k.ppm_pred(a, Action::Drop);
        assert_eq!(k.manager.sat_count(drop), 128.0);
    }

    #[test]
    fn shadowed_insert_causes_no_change() {
        let (net, a, _, e) = two_nodes(8);
        let mut k = ApKeep::new(&net, EngineProfile::Cached);
        k.insert(a, Rule { prefix: Prefix { addr: 0, len: 0 }, priority: 5, action: Action::Forward(e) });
        // Lower-priority rule entirely shadowed: zero changes.
        let n = k.insert(a, Rule { prefix: Prefix { addr: 0b1100_0000, len: 2 }, priority: 2, action: Action::Drop });
        assert_eq!(n, 0);
    }

    #[test]
    fn same_action_movement_is_not_a_change() {
        let (net, a, _, e) = two_nodes(8);
        let mut k = ApKeep::new(&net, EngineProfile::Cached);
        k.insert(a, Rule { prefix: Prefix { addr: 0, len: 1 }, priority: 1, action: Action::Forward(e) });
        // Higher-priority rule to the same port: space moves between
        // rules but behaviour is unchanged -> no change emitted.
        let n = k.insert(a, Rule { prefix: Prefix { addr: 0b0100_0000, len: 2 }, priority: 2, action: Action::Forward(e) });
        assert_eq!(n, 0);
        let fwd = k.ppm_pred(a, Action::Forward(e));
        assert_eq!(k.manager.sat_count(fwd), 128.0);
    }

    #[test]
    fn remove_restores_previous_behaviour() {
        let (net, a, _, e) = two_nodes(8);
        let mut k = ApKeep::new(&net, EngineProfile::Cached);
        let r = Rule { prefix: Prefix { addr: 0b1000_0000, len: 1 }, priority: 1, action: Action::Forward(e) };
        k.insert(a, r);
        let n = k.remove(a, &r).expect("installed");
        assert_eq!(n, 1);
        assert_eq!(k.ppm_pred(a, Action::Forward(e)), FALSE);
        assert_eq!(k.manager.sat_count(k.ppm_pred(a, Action::Drop)), 256.0);
    }

    #[test]
    fn remove_uncovers_shadowed_rule() {
        let (net, a, _, e) = two_nodes(8);
        let mut k = ApKeep::new(&net, EngineProfile::Cached);
        let low = Rule { prefix: Prefix { addr: 0b1000_0000, len: 1 }, priority: 1, action: Action::Forward(e) };
        let high = Rule { prefix: Prefix { addr: 0b1100_0000, len: 2 }, priority: 2, action: Action::Drop };
        k.insert(a, low);
        k.insert(a, high);
        k.remove(a, &high).unwrap();
        // The /2 slice returns to the low rule's port.
        let fwd = k.ppm_pred(a, Action::Forward(e));
        assert_eq!(k.manager.sat_count(fwd), 128.0);
    }

    #[test]
    fn remove_missing_rule_is_none() {
        let (net, a, _, e) = two_nodes(8);
        let mut k = ApKeep::new(&net, EngineProfile::Cached);
        let r = Rule { prefix: Prefix { addr: 0, len: 1 }, priority: 1, action: Action::Forward(e) };
        assert!(k.remove(a, &r).is_none());
    }

    #[test]
    fn incremental_ppm_matches_batch_compilation() {
        // Feed a whole dataset through APKeep; the resulting PPM must
        // equal the batch-compiled port predicates of the network.
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts { fault_rate: 0.5, seed: 7, ..Default::default() });
        let mut k = ApKeep::new(&ds.network, EngineProfile::Cached);
        for v in ds.network.graph.nodes() {
            for r in &ds.network.device(v).rules {
                k.insert(v, *r);
            }
        }
        for v in ds.network.graph.nodes() {
            let pp = ds.network.port_predicates(&mut k.manager, v);
            for &(action, batch_pred) in &pp.preds {
                let incr = k.ppm_pred(v, action);
                assert_eq!(incr, batch_pred, "device {v:?} action {action:?} differs");
            }
        }
    }

    #[test]
    fn atom_count_matches_ap_verifier() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let mut k = ApKeep::new(&ds.network, EngineProfile::Cached);
        for v in ds.network.graph.nodes() {
            for r in &ds.network.device(v).rules {
                k.insert(v, *r);
            }
        }
        let ap = ApVerifier::build(&ds.network, EngineProfile::Cached);
        assert_eq!(k.num_atomic_predicates(), ap.num_atoms());
    }

    #[test]
    fn snapshot_supports_reachability() {
        let ds = generate(ring(5, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let mut k = ApKeep::new(&ds.network, EngineProfile::Cached);
        for v in ds.network.graph.nodes() {
            for r in &ds.network.device(v).rules {
                k.insert(v, *r);
            }
        }
        let v = k.snapshot();
        let r = crate::reach::selective_bfs(&v, NodeId(0), NodeId(2));
        assert!(!r.delivered.is_empty());
    }

    #[test]
    fn insert_then_remove_round_trips_everything() {
        let ds = generate(ring(4, 1.0), HeaderLayout::new(12), &DatasetOpts::default());
        let mut k = ApKeep::new(&ds.network, EngineProfile::Cached);
        for v in ds.network.graph.nodes() {
            for r in &ds.network.device(v).rules {
                k.insert(v, *r);
            }
        }
        for v in ds.network.graph.nodes() {
            for r in &ds.network.device(v).rules {
                k.remove(v, r).expect("was installed");
            }
        }
        assert_eq!(k.num_rules(), 0);
        for v in ds.network.graph.nodes() {
            assert_eq!(k.manager.sat_count(k.ppm_pred(v, Action::Drop)), 2f64.powi(12));
        }
        assert_eq!(k.num_atomic_predicates(), 1);
    }
}
