//! Partitioned hyper-scale verification: per-destination reachability,
//! blackhole and loop verdicts over disjoint destination chunks, each
//! chunk served by its **own** [`BddManager`].
//!
//! The global atomic-predicates pipeline ([`crate::ap`]) computes one
//! shared atom universe — inherently serial and quadratic-ish in rule
//! diversity, fine at WAN scale, hopeless on a 10k-device DCN. This
//! module takes the HeTu-style route instead: verification decomposes
//! *by destination prefix*. For one destination `p` every device's
//! behaviour collapses to a tiny LPM-restricted predicate table, and a
//! backward fixpoint over the forwarding adjacency classifies every
//! injector exactly:
//!
//! * `D(v)` — headers in `p` injected at `v` that are eventually
//!   delivered (least fixpoint seeded by the owner's deliver rule);
//! * `B(v)` — headers that eventually hit an explicit drop or the
//!   unmatched residue (blackholes);
//! * `p ∖ D(v) ∖ B(v)` — headers that never terminate: a forwarding
//!   loop, exact because LPM forwarding is deterministic per header.
//!
//! Most destinations never need that fixpoint. Their *class prefix* `q`
//! is the longest rule prefix strictly covering `p` (a fat tree's edge
//! block). A device whose first rule overlapping `q` covers it, or
//! that has no rule overlapping `q`, does one thing to every header of
//! every `p ⊆ q`; the others *split* the class (on a fat tree, the
//! block's edge switch and hosts). One pass per run of destinations
//! sharing `q` resolves every uniform device's fate — delivered,
//! dropped, loops, or reaches splitting device `s` first — by path
//! walks over that functional graph. Each destination then scans only
//! the splitting devices: when each of them treats `p` uniformly too,
//! every device delivers, drops or loops all of `p`, and the verdict
//! is a count. Otherwise (a rule inside `p`) it falls back to the
//! fixpoint.
//!
//! Destinations are independent, so any partition of the destination
//! list into chunks — each verified by a private manager — yields the
//! *same* verdicts as one serial manager: a [`DestVerdict`] contains
//! only semantic data (device counts, exact header counts, sorted
//! device ids), never manager state. That is the determinism argument
//! the partition/merge layer in `core` and the byte-identity proptests
//! rest on; [`render`] fixes the byte encoding.

use crate::header::Prefix;
use crate::network::{Action, Device, Network};
use netrepro_bdd::{BddError, BddManager, EngineProfile, Ref, FALSE};
use netrepro_graph::NodeId;
use std::collections::{HashSet, VecDeque};
use std::ops::Range;

/// Errors surfaced by the partitioned verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleError {
    /// The chunk's BDD manager exhausted its node budget (or another
    /// typed BDD fault). The worker is intact; the coordinator decides
    /// whether to retry with a larger budget.
    Bdd(BddError),
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::Bdd(e) => write!(f, "scale verification failed: {e}"),
        }
    }
}

impl std::error::Error for ScaleError {}

impl From<BddError> for ScaleError {
    fn from(e: BddError) -> Self {
        ScaleError::Bdd(e)
    }
}

/// Options shared by the serial and partitioned verifiers.
#[derive(Debug, Clone, Copy)]
pub struct ScaleOpts {
    /// Engine profile for every chunk manager.
    pub profile: EngineProfile,
    /// Hard per-manager node budget (see [`BddManager::try_and`]);
    /// `None` = unbounded.
    pub node_cap: Option<usize>,
}

impl Default for ScaleOpts {
    fn default() -> Self {
        ScaleOpts { profile: EngineProfile::Cached, node_cap: None }
    }
}

/// Manager-independent verdict for one destination prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DestVerdict {
    /// Owner device of the destination prefix.
    pub dest: u32,
    /// The destination prefix.
    pub prefix: Prefix,
    /// Devices whose entire `p`-space is delivered (`D(v) = p`).
    pub full: u32,
    /// Devices with partial delivery (`∅ ⊂ D(v) ⊂ p`).
    pub partial: u32,
    /// Devices delivering nothing (`D(v) = ∅`).
    pub none: u32,
    /// Exact delivered header count, summed over devices (`Σ |D(v)|`).
    pub delivered_headers: u64,
    /// Devices that locally drop some `p`-header.
    pub bh_local: u32,
    /// Devices from which some `p`-header eventually blackholes.
    pub bh_devices: u32,
    /// Exact blackholed header count, summed over devices (`Σ |B(v)|`).
    pub bh_headers: u64,
    /// Devices (ascending) from which some `p`-header loops forever.
    pub loop_devices: Vec<u32>,
}

/// Split `n` items into `parts` contiguous, near-equal, canonical
/// ranges (the first `n % parts` ranges are one longer). `parts` is
/// clamped to at least 1; ranges past `n` come back empty.
pub fn partition_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Verify a slice of destinations with one private manager. This is
/// the chunk worker: callers partition `dests` and call this per chunk.
///
/// Consecutive destinations with the same class prefix (see
/// [`ClassIndex`]) are verified by one class pass plus a few splitting
/// devices each; everything else, and any destination a splitting
/// device treats unevenly, goes through the per-destination BDD
/// fixpoint of [`verify_per_destination`]. Both give the same verdict.
pub fn verify_destinations(
    net: &Network,
    dests: &[(NodeId, Prefix)],
    opts: &ScaleOpts,
) -> Result<Vec<DestVerdict>, ScaleError> {
    Chunk::new(net, opts).verify(dests)
}

/// Verify every destination with its own backward BDD fixpoint: the
/// fallback of [`verify_destinations`] and its reference.
pub fn verify_per_destination(
    net: &Network,
    dests: &[(NodeId, Prefix)],
    opts: &ScaleOpts,
) -> Result<Vec<DestVerdict>, ScaleError> {
    let mut chunk = Chunk::new(net, opts);
    dests.iter().map(|&(owner, prefix)| chunk.one(owner, prefix)).collect()
}

/// One chunk's verifier: the network, a BDD manager made on first use
/// (class-verified chunks never need one), and the reused scratch.
struct Chunk<'n> {
    net: &'n Network,
    opts: ScaleOpts,
    mgr: Option<BddManager>,
    work: Work,
    /// Destinations verified by the per-destination fixpoint.
    fixpoints: usize,
}

impl<'n> Chunk<'n> {
    fn new(net: &'n Network, opts: &ScaleOpts) -> Self {
        Chunk { net, opts: *opts, mgr: None, work: Work::new(net.graph.num_nodes()), fixpoints: 0 }
    }

    fn verify(&mut self, dests: &[(NodeId, Prefix)]) -> Result<Vec<DestVerdict>, ScaleError> {
        if dests.len() < 2 {
            // No class index for one destination: it costs one fixpoint.
            return dests.iter().map(|&(owner, prefix)| self.one(owner, prefix)).collect();
        }
        let mut out = Vec::with_capacity(dests.len());
        let classes = ClassIndex::new(self.net);
        let mut start = 0;
        while start < dests.len() {
            let q = classes.of(dests[start].1);
            let same = dests[start + 1..]
                .iter()
                .take_while(|d| q.is_some() && classes.of(d.1) == q)
                .count();
            let run = &dests[start..start + 1 + same];
            start += run.len();
            let by_class = match q {
                Some(q) if run.len() > 1 => class_pass(self.net, &mut self.work, q),
                _ => false,
            };
            for &(owner, prefix) in run {
                let verdict = by_class.then(|| assemble(self.net, &mut self.work, owner, prefix));
                out.push(match verdict.flatten() {
                    Some(v) => v,
                    None => self.one(owner, prefix)?,
                });
            }
        }
        Ok(out)
    }

    /// One destination by its BDD fixpoint. The manager is
    /// garbage-collected whenever its table outgrows a threshold, so
    /// memory stays bounded by the largest single destination, not the
    /// chunk length. GC timing never affects verdicts: they are
    /// extracted as plain counts before the next destination begins.
    fn one(&mut self, owner: NodeId, prefix: Prefix) -> Result<DestVerdict, ScaleError> {
        let (net, opts) = (self.net, self.opts);
        let m = self.mgr.get_or_insert_with(|| match opts.node_cap {
            Some(cap) => BddManager::with_node_cap(net.layout.total_bits(), opts.profile, cap),
            None => net.layout.manager(opts.profile),
        });
        let verdict = verify_one(net, m, &mut self.work, owner, prefix)?;
        // GC once the table holds more garbage than half the budget (or
        // a fixed high-water mark when unbounded). Nothing is protected
        // between destinations: a full sweep.
        if m.node_count() > opts.node_cap.map_or(1 << 16, |c| (c / 2).max(1)) {
            m.gc();
        }
        self.fixpoints += 1;
        Ok(verdict)
    }
}

/// The set of rule prefixes in a network, for finding each
/// destination's *class prefix*: the longest rule prefix that strictly
/// covers it. On a fat tree that is the destination's edge block.
struct ClassIndex {
    width: u32,
    /// Every rule prefix, canonical (bits past the length cleared).
    rule_set: HashSet<Prefix>,
    /// Bit `l` is set when some rule prefix has length `l`.
    lens: u64,
}

impl ClassIndex {
    fn new(net: &Network) -> Self {
        let width = net.layout.width;
        let mut rule_set = HashSet::new();
        let mut lens = 0u64;
        for rule in net.devices.iter().flat_map(|d| &d.rules) {
            rule_set.insert(truncate(rule.prefix, rule.prefix.len, width));
            lens |= 1 << rule.prefix.len;
        }
        ClassIndex { width, rule_set, lens }
    }

    /// The class prefix of `p`, if any rule prefix strictly covers it.
    fn of(&self, p: Prefix) -> Option<Prefix> {
        (0..p.len)
            .rev()
            .filter(|&len| self.lens & (1 << len) != 0)
            .map(|len| truncate(p, len, self.width))
            .find(|q| self.rule_set.contains(q))
    }
}

/// The first `len` bits of `x`, as a canonical prefix.
fn truncate(x: Prefix, len: u8, width: u32) -> Prefix {
    let mask = if len == 0 { 0 } else { !0u32 << (width - u32::from(len)) };
    Prefix { addr: x.addr & mask, len }
}

// Next-hop and fate codes of the class pass. Device ids stay below all
// of them.
/// Deliver here (next hop), or eventually delivered (fate).
const DELIVER: u32 = u32::MAX;
/// Drop here (next hop), or eventually dropped (fate).
const DROP: u32 = u32::MAX - 1;
/// Fate: forwarded forever.
const LOOPS: u32 = u32::MAX - 2;
/// Fate: not resolved yet.
const UNSEEN: u32 = u32::MAX - 3;
/// Fate: on the path being resolved.
const ON_PATH: u32 = u32::MAX - 4;
/// Next hop: a splitting device, whose hop depends on the destination.
const SPLIT: u32 = u32::MAX - 5;

/// The next hop `dev` gives every header of `x`, or `None` when the
/// first rule overlapping `x` covers only part of it. With no
/// overlapping rule, `x` falls into the residue drop.
fn uniform_hop(net: &Network, dev: &Device, x: Prefix) -> Option<u32> {
    let width = net.layout.width;
    for rule in &dev.rules {
        if rule.prefix.covers(&x, width) {
            return Some(match rule.action {
                Action::Forward(e) => net.graph.endpoints(e).1 .0,
                Action::Deliver => DELIVER,
                Action::Drop => DROP,
            });
        }
        if x.covers(&rule.prefix, width) {
            return None;
        }
    }
    Some(DROP)
}

/// The class pass for class prefix `q`: give every `q`-uniform device
/// its one next hop, collect the splitting devices, and resolve each
/// uniform device's fate by a path walk. Returns `false`, having done
/// no walk, when more than half the devices split the class: the
/// per-destination fixpoint is then the cheaper way.
fn class_pass(net: &Network, w: &mut Work, q: Prefix) -> bool {
    w.split.clear();
    for (v, dev) in net.devices.iter().enumerate() {
        w.next[v] = uniform_hop(net, dev, q).unwrap_or_else(|| {
            w.split.push(v as u32);
            SPLIT
        });
    }
    let n = w.next.len();
    if w.split.len() * 2 > n {
        return false;
    }
    w.fate.fill(UNSEEN);
    for v in 0..n {
        if w.next[v] != SPLIT {
            // A walk ends at a deliver or drop, or on reaching a
            // splitting device, which becomes the fate.
            walk(w, v as u32, |w, c| match w.next[c] {
                hop @ (DELIVER | DROP) => Err(hop),
                hop if w.next[hop as usize] == SPLIT => Err(hop),
                hop => Ok(hop),
            });
        }
    }
    // Per-fate device counts; `loops` comes out ascending.
    w.reach.fill(0);
    w.loops.clear();
    (w.delivered_n, w.dropped_n, w.local_drop_n) = (0, 0, 0);
    for v in 0..n {
        if w.next[v] == SPLIT {
            continue;
        }
        match w.fate[v] {
            DELIVER => w.delivered_n += 1,
            DROP => w.dropped_n += 1,
            LOOPS => w.loops.push(v as u32),
            s => w.reach[s as usize] += 1,
        }
        w.local_drop_n += u32::from(w.next[v] == DROP);
    }
    true
}

/// Resolve the fate of `start` and of every device on its way. From
/// each unresolved device `c`, `step(w, c)` gives `Ok(next device)` or
/// `Err(fate)`. A resolved device ends the walk with its fate, and a
/// device already on this walk's path with `LOOPS`; every device on the
/// path gets the walk's fate.
fn walk(w: &mut Work, start: u32, step: impl Fn(&Work, usize) -> Result<u32, u32>) {
    w.path.clear();
    let mut cur = start;
    let fate = loop {
        let c = cur as usize;
        match w.fate[c] {
            UNSEEN => {}
            ON_PATH => break LOOPS,
            fate => break fate,
        }
        w.fate[c] = ON_PATH;
        w.path.push(cur);
        match step(w, c) {
            Ok(next) => cur = next,
            Err(fate) => break fate,
        }
    };
    for &x in &w.path {
        w.fate[x as usize] = fate;
    }
}

/// Destination `p`'s verdict from the current class pass: scan only the
/// splitting devices, resolve their fates among themselves, and count.
/// `None` when a splitting device treats the headers of `p` unevenly
/// (a rule inside `p`, i.e. partial delivery): the caller then runs the
/// fixpoint.
fn assemble(net: &Network, w: &mut Work, owner: NodeId, prefix: Prefix) -> Option<DestVerdict> {
    for &s in &w.split {
        w.hop[s as usize] = uniform_hop(net, &net.devices[s as usize], prefix)?;
        w.fate[s as usize] = UNSEEN;
    }
    for i in 0..w.split.len() {
        // From a splitting device, go to the next splitting device:
        // directly, or through a uniform device whose class fate it is.
        walk(w, w.split[i], |w, c| match w.hop[c] {
            hop @ (DELIVER | DROP) => Err(hop),
            hop if w.next[hop as usize] == SPLIT => Ok(hop),
            hop => match w.fate[hop as usize] {
                fate @ (DELIVER | DROP | LOOPS) => Err(fate),
                s => Ok(s),
            },
        });
    }
    let (mut full, mut bh_devices, mut bh_local) = (w.delivered_n, w.dropped_n, w.local_drop_n);
    let mut split_loops = false;
    for &s in &w.split {
        let s = s as usize;
        let reached = 1 + w.reach[s];
        match w.fate[s] {
            DELIVER => full += reached,
            DROP => bh_devices += reached,
            _ => split_loops = true,
        }
        bh_local += u32::from(w.hop[s] == DROP);
    }
    let loop_devices = if split_loops {
        (0..w.next.len() as u32)
            .filter(|&v| {
                // A uniform device loops when its class fate does, or
                // when the splitting device it reaches loops on `p`.
                let f = w.fate[v as usize];
                f == LOOPS || (w.next[v as usize] != SPLIT && f < LOOPS && w.fate[f as usize] == LOOPS)
            })
            .collect()
    } else {
        w.loops.clone()
    };
    // `|p|` as the fixpoint's model count gives it: every header field
    // past the destination prefix is free.
    let p_count = 2f64.powi((net.layout.total_bits() - u32::from(prefix.len)) as i32) as u64;
    let n = w.next.len() as u32;
    Some(DestVerdict {
        dest: owner.0,
        prefix,
        full,
        partial: 0,
        none: n - full,
        delivered_headers: u64::from(full) * p_count,
        bh_local,
        bh_devices,
        bh_headers: u64::from(bh_devices) * p_count,
        loop_devices,
    })
}

/// One chunk's scratch buffers, sized to the network and reused by
/// every class and destination the chunk verifies, so neither loop
/// allocates once the first destination has grown them.
struct Work {
    /// Forwarding edges `(from, to, hit)` restricted to the current
    /// destination, in device and then rule order.
    edges: Vec<(u32, u32, Ref)>,
    /// Reverse adjacency in CSR form: the edges into `v` are
    /// `radj[rstart[v]..rstart[v + 1]]`, as `(from, hit)` in `edges`
    /// order.
    rstart: Vec<u32>,
    radj: Vec<(u32, Ref)>,
    deliver: Vec<Ref>,
    local_drop: Vec<Ref>,
    delivered: Vec<Ref>,
    blackholed: Vec<Ref>,
    queued: Vec<bool>,
    queue: VecDeque<u32>,
    /// Class pass: each device's next hop for the class prefix
    /// (a device, `DELIVER`, `DROP` or `SPLIT`).
    next: Vec<u32>,
    /// Class fate of each uniform device (`DELIVER`, `DROP`, `LOOPS` or
    /// the splitting device it reaches first); a splitting device's
    /// entry holds its fate for the current destination.
    fate: Vec<u32>,
    /// A splitting device's next hop for the current destination.
    hop: Vec<u32>,
    /// Per splitting device: the uniform devices that reach it first.
    reach: Vec<u32>,
    /// The splitting devices of the current class, ascending.
    split: Vec<u32>,
    /// Uniform devices whose class fate is `LOOPS`, ascending.
    loops: Vec<u32>,
    /// The path of the current fate walk.
    path: Vec<u32>,
    /// Uniform devices whose class fate is delivered or dropped, and
    /// those whose one next hop is a drop.
    delivered_n: u32,
    dropped_n: u32,
    local_drop_n: u32,
}

impl Work {
    fn new(n: usize) -> Self {
        Work {
            edges: Vec::new(),
            rstart: vec![0; n + 1],
            radj: Vec::new(),
            deliver: vec![FALSE; n],
            local_drop: vec![FALSE; n],
            delivered: vec![FALSE; n],
            blackholed: vec![FALSE; n],
            queued: vec![false; n],
            queue: VecDeque::with_capacity(n),
            next: vec![0; n],
            fate: vec![UNSEEN; n],
            hop: vec![0; n],
            reach: vec![0; n],
            split: Vec::new(),
            loops: Vec::new(),
            path: Vec::new(),
            delivered_n: 0,
            dropped_n: 0,
            local_drop_n: 0,
        }
    }

    /// Rebuild the reverse adjacency from `edges` with a stable
    /// counting sort, so each node's in-edges keep their `edges` order.
    fn index_reverse(&mut self) {
        let n = self.deliver.len();
        self.rstart.fill(0);
        for &(_, to, _) in &self.edges {
            self.rstart[to as usize] += 1;
        }
        let mut sum = 0;
        for c in &mut self.rstart[..n] {
            sum += *c;
            *c = sum;
        }
        self.rstart[n] = sum;
        // Placing back to front from each node's end leaves `rstart[v]`
        // at its start and keeps the edges of one node in order.
        self.radj.clear();
        self.radj.resize(self.edges.len(), (0, FALSE));
        for &(from, to, hit) in self.edges.iter().rev() {
            self.rstart[to as usize] -= 1;
            self.radj[self.rstart[to as usize] as usize] = (from, hit);
        }
    }
}

/// One destination: LPM-restrict every device to `p`, run the backward
/// delivery and blackhole fixpoints, classify every injector.
fn verify_one(
    net: &Network,
    m: &mut BddManager,
    w: &mut Work,
    owner: NodeId,
    prefix: Prefix,
) -> Result<DestVerdict, ScaleError> {
    let width = net.layout.width;
    let p = net.layout.prefix_pred(m, prefix);

    // Per-device forwarding edges and local deliver/drop predicates,
    // all restricted to `p` under first-match LPM semantics.
    w.edges.clear();
    w.deliver.fill(FALSE);
    w.local_drop.fill(FALSE);
    for (v, dev) in net.devices.iter().enumerate() {
        let mut covered = FALSE; // within p
        for rule in &dev.rules {
            // Two prefixes overlap only when one covers the other, and
            // their intersection is then the longer of the two. Rules
            // that miss `p` contribute nothing and cost no BDD work.
            let matched = if rule.prefix.covers(&prefix, width) {
                p
            } else if prefix.covers(&rule.prefix, width) {
                net.layout.prefix_pred(m, rule.prefix)
            } else {
                continue;
            };
            let hit = m.try_diff(matched, covered)?;
            covered = m.try_or(covered, matched)?;
            if hit == FALSE {
                continue;
            }
            match rule.action {
                Action::Forward(e) => {
                    let next = net.graph.endpoints(e).1;
                    w.edges.push((v as u32, next.0, hit));
                }
                Action::Deliver => w.deliver[v] = m.try_or(w.deliver[v], hit)?,
                Action::Drop => w.local_drop[v] = m.try_or(w.local_drop[v], hit)?,
            }
            if covered == p {
                break; // everything in p is matched; rest is shadowed
            }
        }
        // Unmatched residue within p drops implicitly.
        let residue = m.try_diff(p, covered)?;
        if residue != FALSE {
            w.local_drop[v] = m.try_or(w.local_drop[v], residue)?;
        }
    }

    w.index_reverse();
    let radj = (&w.rstart[..], &w.radj[..]);
    backward_fixpoint(m, &w.deliver, radj, &mut w.delivered, &mut w.queued, &mut w.queue)?;
    backward_fixpoint(m, &w.local_drop, radj, &mut w.blackholed, &mut w.queued, &mut w.queue)?;

    let mut verdict = DestVerdict {
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
    // Header widths stay ≤ 32 bits, so sat counts are exact in f64 and
    // fit u64. On fabrics nearly every set is all of `p` or nothing, so
    // count `p` once and model-count only the partial sets.
    let p_count = m.sat_count(p) as u64;
    let count = |m: &BddManager, r: Ref| match r {
        FALSE => 0,
        r if r == p => p_count,
        r => m.sat_count(r) as u64,
    };
    for v in 0..w.deliver.len() {
        let d = w.delivered[v];
        if d == p {
            verdict.full += 1;
        } else if d == FALSE {
            verdict.none += 1;
        } else {
            verdict.partial += 1;
        }
        verdict.delivered_headers += count(m, d);
        if w.local_drop[v] != FALSE {
            verdict.bh_local += 1;
        }
        let b = w.blackholed[v];
        if b != FALSE {
            verdict.bh_devices += 1;
            verdict.bh_headers += count(m, b);
        }
        let term = m.try_or(d, b)?;
        let looping = m.try_diff(p, term)?;
        if looping != FALSE {
            verdict.loop_devices.push(v as u32);
        }
    }
    Ok(verdict)
}

/// Least fixpoint of `X(v) = base(v) ∨ ⋁ {pred ∧ X(next)}` computed
/// backward over the CSR reverse adjacency `(rstart, radj)` with a
/// worklist, into `x`. Monotone over a finite lattice, so termination
/// is structural; the worklist order only affects intermediate work,
/// never the result. `queued` (all false) and `queue` (empty) are
/// scratch, and a completed run leaves them that way.
fn backward_fixpoint(
    m: &mut BddManager,
    base: &[Ref],
    (rstart, radj): (&[u32], &[(u32, Ref)]),
    x: &mut Vec<Ref>,
    queued: &mut [bool],
    queue: &mut VecDeque<u32>,
) -> Result<(), ScaleError> {
    x.clear();
    x.extend_from_slice(base);
    for (v, &xv) in x.iter().enumerate() {
        if xv != FALSE {
            queue.push_back(v as u32);
            queued[v] = true;
        }
    }
    while let Some(u) = queue.pop_front() {
        let u = u as usize;
        queued[u] = false;
        let xu = x[u];
        for &(v, pred) in &radj[rstart[u] as usize..rstart[u + 1] as usize] {
            let contrib = m.try_and(pred, xu)?;
            if contrib == FALSE {
                continue;
            }
            let v = v as usize;
            let nv = m.try_or(x[v], contrib)?;
            if nv != x[v] {
                x[v] = nv;
                if !queued[v] {
                    queue.push_back(v as u32);
                    queued[v] = true;
                }
            }
        }
    }
    Ok(())
}

/// Canonical byte rendering of a verdict slice: one fixed-format line
/// per destination. Byte-identity of partitioned vs serial verification
/// is asserted over exactly this encoding (plus [`digest`] of it).
pub fn render(verdicts: &[DestVerdict]) -> String {
    let mut s = String::with_capacity(verdicts.len() * 96 + 16);
    for v in verdicts {
        s.push_str(&format!(
            "dest={} prefix={:x}/{} full={} partial={} none={} delivered={} bh_local={} bh_dev={} bh_headers={} loops={}",
            v.dest,
            v.prefix.addr,
            v.prefix.len,
            v.full,
            v.partial,
            v.none,
            v.delivered_headers,
            v.bh_local,
            v.bh_devices,
            v.bh_headers,
            v.loop_devices.len(),
        ));
        for (i, d) in v.loop_devices.iter().take(8).enumerate() {
            s.push_str(if i == 0 { "[" } else { "," });
            s.push_str(&d.to_string());
        }
        if !v.loop_devices.is_empty() {
            s.push(']');
        }
        s.push('\n');
    }
    s
}

/// Deterministically sample `queries` distinct destination indices out
/// of `total` (everything, when `queries >= total`), returned
/// **ascending** so the sampled list is itself canonical. A seeded
/// partial Fisher–Yates shuffle: O(total) memory, O(queries) swaps.
pub fn sample_dests(total: usize, queries: usize, seed: u64) -> Vec<usize> {
    if queries >= total {
        return (0..total).collect();
    }
    let mut idx: Vec<usize> = (0..total).collect();
    let mut state = seed ^ 0x5ca1_e0de_5eed_0001;
    for i in 0..queries {
        // splitmix64 step — the same generator the fabric's ECMP hash
        // uses, so sampling stays dependency-free and reproducible.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = i + (z as usize % (total - i));
        idx.swap(i, j);
    }
    let mut out = idx[..queries].to_vec();
    out.sort_unstable();
    out
}

/// FNV-1a 64 digest of a rendered verdict block — a compact fingerprint
/// for journals and bench reports.
pub fn digest(rendered: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rendered.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{build, FabricSpec};
    use crate::network::Rule;
    use crate::sim::{simulate, Packet, Verdict};
    use proptest::prelude::*;

    fn fabric_dests(f: &crate::fabric::Fabric) -> Vec<(NodeId, Prefix)> {
        (0..f.num_dests()).map(|i| f.dest(i)).collect()
    }

    #[test]
    fn clean_fabric_is_fully_reachable() {
        let f = build(&FabricSpec::new(4, 9));
        let dests = fabric_dests(&f);
        let verdicts = verify_destinations(&f.network, &dests, &ScaleOpts::default()).expect("verify");
        let devs = f.num_devices() as u32;
        for v in &verdicts {
            // Every device — hosts default-route upward too — delivers
            // the whole host prefix on an unfaulted fabric.
            assert_eq!(v.full, devs, "dest {}: {v:?}", v.dest);
            assert_eq!(v.partial, 0);
            assert_eq!(v.none, 0);
            assert_eq!(v.bh_devices, 0);
            assert!(v.loop_devices.is_empty());
            // Each of the `devs` devices delivers the full /host block
            // (2 headers wide at k=4: 5-bit space, 4-bit prefix).
            assert_eq!(v.delivered_headers, u64::from(devs) * 2);
        }
    }

    #[test]
    fn chunked_equals_serial_on_clean_and_churned_fabrics() {
        for link_down in [0usize, 12] {
            let f = build(&FabricSpec { k: 4, seed: 21, link_down, with_hosts: true });
            let dests = fabric_dests(&f);
            let serial = verify_destinations(&f.network, &dests, &ScaleOpts::default()).expect("serial");
            for parts in [1usize, 2, 4, 8] {
                let mut chunked = Vec::new();
                for r in partition_ranges(dests.len(), parts) {
                    let chunk =
                        verify_destinations(&f.network, &dests[r], &ScaleOpts::default()).expect("chunk");
                    chunked.extend(chunk);
                }
                assert_eq!(chunked, serial, "P={parts} link_down={link_down}");
                assert_eq!(render(&chunked), render(&serial));
            }
        }
    }

    #[test]
    fn reverse_index_keeps_per_node_edge_order() {
        // In-edges of each node must come out in `edges` order, as a
        // per-node `Vec` push would leave them: the fixpoint's worklist
        // then does the same work in the same order.
        let edges = vec![(0, 2, FALSE), (1, 0, FALSE), (3, 2, FALSE), (2, 0, FALSE), (1, 2, FALSE)];
        let n = 4;
        let mut w = Work::new(n);
        w.edges = edges.clone();
        w.index_reverse();
        let mut want: Vec<Vec<(u32, Ref)>> = vec![Vec::new(); n];
        for &(from, to, hit) in &edges {
            want[to as usize].push((from, hit));
        }
        for (v, row) in want.iter().enumerate() {
            let (lo, hi) = (w.rstart[v] as usize, w.rstart[v + 1] as usize);
            assert_eq!(&w.radj[lo..hi], &row[..], "node {v}");
        }
        // Reuse: a second, smaller edge list fully replaces the first.
        w.edges = vec![(3, 1, FALSE)];
        w.index_reverse();
        assert_eq!(w.rstart, vec![0, 0, 1, 1, 1]);
        assert_eq!(w.radj, vec![(3, FALSE)]);
    }

    #[test]
    fn churn_produces_blackholes_agreeing_with_simulation() {
        let f = build(&FabricSpec { k: 4, seed: 2, link_down: 10, with_hosts: true });
        let dests = fabric_dests(&f);
        let verdicts = verify_destinations(&f.network, &dests, &ScaleOpts::default()).expect("verify");
        assert!(
            verdicts.iter().any(|v| v.bh_devices > 0),
            "10 severed links on a k=4 fabric must blackhole something"
        );
        // Cross-check every verdict class against the packet simulator.
        for (i, v) in verdicts.iter().enumerate() {
            let (_, pfx) = f.dest(i);
            let lo = pfx.addr; // lowest address in the block
            for dev in 0..f.num_devices() {
                let sim = simulate(&f.network, NodeId(dev as u32), Packet { dst: lo, src: 0, dport: 0 }, 256);
                let delivered = matches!(sim, Verdict::Delivered(at) if at.0 == v.dest);
                if v.full == f.num_devices() as u32 {
                    assert!(delivered, "dest {i} dev {dev}: verdict says full but sim {sim:?}");
                }
                if v.delivered_headers == 0 {
                    assert!(!delivered, "dest {i} dev {dev}: verdict says none but sim delivered");
                }
            }
        }
    }

    #[test]
    fn injected_ping_pong_loop_is_witnessed_exactly() {
        let mut f = build(&FabricSpec { k: 4, seed: 5, link_down: 0, with_hosts: false });
        // Make edge(0,0) and agg(0,1) ping-pong a remote pod's prefix
        // with rules more specific than anything the fabric installed.
        let dest_idx = f.num_dests() - 1; // a pod-3 host
        let (owner, pfx) = f.dest(dest_idx);
        let e00 = f.tree.edge(0, 0);
        let a01 = f.tree.agg(0, 1);
        let up = f.network.graph.find_edge(e00, a01).expect("edge↔agg");
        let down = f.network.graph.find_edge(a01, e00).expect("agg↔edge");
        let hot = Rule { prefix: pfx, priority: pfx.len as u32, action: Action::Forward(up) };
        f.network.device_mut(e00).insert(hot);
        f.network
            .device_mut(a01)
            .insert(Rule { prefix: pfx, priority: pfx.len as u32, action: Action::Forward(down) });
        let verdicts =
            verify_destinations(&f.network, &[(owner, pfx)], &ScaleOpts::default()).expect("verify");
        let v = &verdicts[0];
        assert!(
            v.loop_devices.contains(&e00.0) && v.loop_devices.contains(&a01.0),
            "cycle members must be loop devices: {v:?}"
        );
        // The simulator agrees the loop exists.
        let sim = simulate(&f.network, e00, Packet { dst: pfx.addr, src: 0, dport: 0 }, 512);
        assert!(matches!(sim, Verdict::Looping(_)), "sim says {sim:?}");
    }

    /// Verify `dests` by class and by the per-destination fixpoint;
    /// return the class verdicts (equal to the reference) and how many
    /// destinations the class verifier sent to the fixpoint.
    fn class_vs_reference(net: &Network, dests: &[(NodeId, Prefix)]) -> (Vec<DestVerdict>, usize) {
        let mut chunk = Chunk::new(net, &ScaleOpts::default());
        let got = chunk.verify(dests).expect("class");
        let want = verify_per_destination(net, dests, &ScaleOpts::default()).expect("reference");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "dest {} prefix {:?}", w.dest, w.prefix);
        }
        (got, chunk.fixpoints)
    }

    #[test]
    fn class_prefix_is_the_edge_block_and_its_edge_and_hosts_split_it() {
        let f = build(&FabricSpec { k: 8, seed: 4, link_down: 0, with_hosts: true });
        let classes = ClassIndex::new(&f.network);
        let width = f.network.layout.width;
        let eb_len = f.host_bits as u8 - 2; // log2(k/2) = 2 bits of host index
        let mut w = Work::new(f.num_devices());
        for idx in [0usize, 5, 77, 127] {
            let q = classes.of(f.host_prefix(idx)).expect("a class");
            assert_eq!(q, truncate(f.host_prefix(idx), eb_len, width), "host {idx}");
            assert!(class_pass(&f.network, &mut w, q));
            let (p, e, _) = f.tree.host_coords(idx);
            let mut want: Vec<u32> = (0..4).map(|h| f.tree.host(p, e, h).0).collect();
            want.push(f.tree.edge(p, e).0);
            want.sort_unstable();
            assert_eq!(w.split, want, "host {idx}");
        }
        // Nothing strictly covers the all-matching prefix.
        assert_eq!(classes.of(Prefix::ANY), None);
    }

    #[test]
    fn churned_k8_fabrics_take_the_class_path_for_every_destination() {
        for with_hosts in [true, false] {
            let f = build(&FabricSpec { k: 8, seed: 2023, link_down: 6, with_hosts });
            let (got, fixpoints) = class_vs_reference(&f.network, &fabric_dests(&f));
            assert_eq!(fixpoints, 0, "with_hosts={with_hosts}: no destination may fall back");
            assert!(got.iter().any(|v| v.bh_devices > 0), "churn must blackhole something");
        }
    }

    #[test]
    fn a_rule_inside_one_destination_sends_only_it_to_the_fixpoint() {
        let mut f = build(&FabricSpec { k: 4, seed: 8, link_down: 0, with_hosts: true });
        // Half of host 5's block dropped at an aggregation switch of
        // another pod: that switch now splits host 5's class, and treats
        // host 5's headers unevenly.
        let (_, pfx) = f.dest(5);
        let half = Prefix { addr: pfx.addr | 1, len: pfx.len + 1 };
        let agg = f.tree.agg(2, 1);
        f.network.device_mut(agg).insert(Rule { prefix: half, priority: 5, action: Action::Drop });
        let (got, fixpoints) = class_vs_reference(&f.network, &fabric_dests(&f));
        assert_eq!(fixpoints, 1);
        assert!(got[5].partial > 0, "{:?}", got[5]);
    }

    #[test]
    fn a_loop_between_splitting_devices_is_witnessed_by_class() {
        // The ping-pong of the test below, verified with every other
        // destination: both cycle members split the class, stay uniform
        // on the destination, and loop among themselves.
        let mut f = build(&FabricSpec { k: 4, seed: 5, link_down: 0, with_hosts: true });
        let dest_idx = f.num_dests() - 1;
        let (_, pfx) = f.dest(dest_idx);
        let e00 = f.tree.edge(0, 0);
        let a01 = f.tree.agg(0, 1);
        let up = f.network.graph.find_edge(e00, a01).expect("edge↔agg");
        let down = f.network.graph.find_edge(a01, e00).expect("agg↔edge");
        let prio = u32::from(pfx.len);
        for (dev, port) in [(e00, up), (a01, down)] {
            let rule = Rule { prefix: pfx, priority: prio, action: Action::Forward(port) };
            f.network.device_mut(dev).insert(rule);
        }
        let (got, fixpoints) = class_vs_reference(&f.network, &fabric_dests(&f));
        assert_eq!(fixpoints, 0);
        let loops = &got[dest_idx].loop_devices;
        assert!(loops.contains(&e00.0) && loops.contains(&a01.0), "{loops:?}");
        // Pod-0 hosts reach the cycle through e00: uniform devices whose
        // class fate is a splitting device.
        assert!(loops.contains(&f.tree.host(0, 0, 0).0), "{loops:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Class verification equals the per-destination fixpoint on
        /// churned fabrics, with and without hosts, from any starting
        /// destination (so chunk boundaries cut classes), and with
        /// injected rules down to single addresses, which make splitting
        /// devices non-uniform and send destinations to the fixpoint.
        #[test]
        fn class_verdicts_equal_the_per_destination_fixpoint(
            seed in 0u64..1_000,
            k in prop_oneof![Just(4usize), Just(8)],
            link_down in 0usize..25,
            with_hosts in any::<bool>(),
            injected in prop::collection::vec((any::<u32>(), any::<u32>(), 0u32..8, 0u32..4), 0..6),
            start in any::<u32>(),
        ) {
            let mut f = build(&FabricSpec { k, seed, link_down, with_hosts });
            let width = f.network.layout.width;
            for &(dev, addr, len_pick, action_pick) in &injected {
                // Mostly single addresses and host halves, sometimes any
                // length: new lengths make new classes too.
                let len = if len_pick < 3 { width - len_pick } else { addr % (width + 1) } as u8;
                let prefix = truncate(Prefix { addr: addr >> (32 - width), len }, len, width);
                let node = NodeId(dev % f.num_devices() as u32);
                let outs = f.network.graph.out_edges(node);
                let action = match action_pick {
                    0 => Action::Drop,
                    1 => Action::Deliver,
                    _ => Action::Forward(outs[addr as usize % outs.len()]),
                };
                f.network.device_mut(node).insert(Rule { prefix, priority: u32::from(len), action });
            }
            let dests = fabric_dests(&f);
            let from = start as usize % dests.len();
            let (_, fixpoints) = class_vs_reference(&f.network, &dests[from..]);
            if injected.is_empty() {
                prop_assert_eq!(fixpoints, usize::from(dests.len() - from == 1));
            }
        }
    }

    #[test]
    fn node_cap_exhaustion_is_typed_and_chunk_scoped() {
        let f = build(&FabricSpec::new(4, 1));
        // Fabric rules align exactly with host blocks, so per-host
        // destinations hash-cons into already-minted predicate nodes.
        // The ANY destination forces unions of *disjoint* host blocks —
        // genuinely new nodes — which a tight cap must refuse.
        let any = vec![(f.dest(0).0, Prefix::ANY)];
        let tight = ScaleOpts { profile: EngineProfile::Cached, node_cap: Some(8) };
        match verify_destinations(&f.network, &any, &tight) {
            Err(ScaleError::Bdd(BddError::TableExhausted { nodes, cap })) => {
                // `prefix_pred` builds base predicates with infallible
                // (soft-cap) ops, so `nodes` may already sit above the
                // cap; the typed refusal is what matters here.
                assert_eq!(cap, 8);
                assert!(nodes >= cap, "refusal fires only at or above the cap");
            }
            other => panic!("expected TableExhausted, got {other:?}"),
        }
        // A sane budget verifies the same query and the whole fabric.
        let roomy = ScaleOpts { profile: EngineProfile::Cached, node_cap: Some(1 << 16) };
        assert!(verify_destinations(&f.network, &any, &roomy).is_ok());
        assert!(verify_destinations(&f.network, &fabric_dests(&f), &roomy).is_ok());
    }

    #[test]
    fn profiles_agree_on_verdicts() {
        let f = build(&FabricSpec { k: 4, seed: 13, link_down: 6, with_hosts: true });
        let dests = fabric_dests(&f);
        let cached = verify_destinations(
            &f.network,
            &dests,
            &ScaleOpts { profile: EngineProfile::Cached, node_cap: None },
        )
        .expect("cached");
        let uncached = verify_destinations(
            &f.network,
            &dests,
            &ScaleOpts { profile: EngineProfile::Uncached, node_cap: None },
        )
        .expect("uncached");
        assert_eq!(cached, uncached);
    }

    #[test]
    fn partition_ranges_are_contiguous_and_exhaustive() {
        for n in [0usize, 1, 7, 16, 129] {
            for parts in [1usize, 2, 3, 4, 8, 200] {
                let ranges = partition_ranges(n, parts);
                assert_eq!(ranges.len(), parts.max(1));
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, n);
                let (a, b) = (ranges[0].len(), ranges[ranges.len() - 1].len());
                assert!(a >= b && a - b <= 1, "near-equal chunks: {a} vs {b}");
            }
        }
    }

    #[test]
    fn render_is_stable() {
        let v = DestVerdict {
            dest: 3,
            prefix: Prefix { addr: 0x18, len: 4 },
            full: 30,
            partial: 2,
            none: 4,
            delivered_headers: 66,
            bh_local: 1,
            bh_devices: 5,
            bh_headers: 9,
            loop_devices: vec![7, 9],
        };
        assert_eq!(
            render(&[v]),
            "dest=3 prefix=18/4 full=30 partial=2 none=4 delivered=66 bh_local=1 bh_dev=5 bh_headers=9 loops=2[7,9]\n"
        );
    }
}
