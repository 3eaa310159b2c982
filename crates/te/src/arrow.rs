//! ARROW (Zhong et al., SIGCOMM 2021): restoration-aware traffic
//! engineering over an optical WAN.
//!
//! When a fiber is cut, optical restoration can re-provision part of its
//! capacity over surviving spectrum. ARROW plans TE so the network
//! carries a committed bandwidth per commodity under *every* failure
//! scenario, given candidate restoration allocations ("lottery
//! tickets").
//!
//! The HotNets'23 paper (participant B) found the released ARROW code
//! and the paper text disagree — "some predefined parameters in the
//! paper are implemented as decision variables in the open-source
//! prototype", and the definition of a restorable tunnel differs —
//! causing up to 30% objective discrepancy. Both formulations are
//! implemented here:
//!
//! * [`ArrowVariant::Faithful`] — what participant B built from the
//!   paper text: each cut fiber's restored capacity is a **predefined
//!   parameter** (the restoration budget split evenly across the cut
//!   fibers of a scenario), and a tunnel counts as restorable only if
//!   every cut fiber it crosses receives restoration.
//! * [`ArrowVariant::OpenSource`] — what the released prototype does:
//!   restored capacities are **decision variables** sharing the same
//!   total budget, jointly optimised with the flow.
//!
//! The open-source variant dominates the faithful one by construction;
//! Table B measures the gap.

use crate::mcf::{build_tunnels, TeInstance};
use crate::TeError;
use netrepro_graph::EdgeId;
use netrepro_lp::{LpSolver, Problem, Sense, Status, VarId};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Which formulation to solve (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrowVariant {
    /// Paper-text formulation: predefined restoration parameters.
    Faithful,
    /// Released-code formulation: restoration as decision variables.
    OpenSource,
}

/// A failure scenario: the set of cut fibers (edge ids; cutting an edge
/// cuts its reverse too, as both directions ride the same fiber).
#[derive(Debug, Clone)]
pub struct FailureScenario {
    /// Cut fiber edges.
    pub cut: Vec<EdgeId>,
}

/// An ARROW instance: a TE instance plus failure scenarios and the
/// restoration budget fraction.
#[derive(Debug, Clone)]
pub struct ArrowInstance {
    /// The underlying TE instance (topology, demands, tunnel budget).
    pub te: TeInstance,
    /// The failure scenarios to survive.
    pub scenarios: Vec<FailureScenario>,
    /// Fraction of a scenario's lost capacity that restoration can
    /// recover in total (the "lottery ticket" budget).
    pub restoration_fraction: f64,
}

/// Outcome of an ARROW solve.
#[derive(Debug, Clone)]
pub struct ArrowSolution {
    /// Total committed (guaranteed-under-all-scenarios) bandwidth.
    pub committed: f64,
    /// Committed bandwidth per commodity.
    pub per_commodity: Vec<f64>,
    /// Wall-clock solve time.
    pub solve_time: Duration,
    /// LP pivots.
    pub lp_iterations: u64,
}

impl ArrowInstance {
    /// Expand the cut set of a scenario to include reverse edges (both
    /// directions of a fiber fail together).
    fn full_cut(&self, s: &FailureScenario) -> BTreeSet<EdgeId> {
        let g = &self.te.graph;
        let mut out = BTreeSet::new();
        for &e in &s.cut {
            out.insert(e);
            let (a, b) = g.endpoints(e);
            if let Some(rev) = g.find_edge(b, a) {
                out.insert(rev);
            }
        }
        out
    }
}

/// Solve an ARROW instance under the chosen variant.
pub fn solve_arrow(
    inst: &ArrowInstance,
    variant: ArrowVariant,
    solver: &dyn LpSolver,
) -> Result<ArrowSolution, TeError> {
    let start = Instant::now();
    let g = &inst.te.graph;
    let commodities = inst.te.commodities();
    let tunnels = build_tunnels(g, &commodities, inst.te.paths_per_commodity);

    let mut p = Problem::new(Sense::Maximize);
    // Committed bandwidth per commodity: the objective.
    let b: Vec<VarId> =
        commodities.iter().map(|&(_, _, demand)| p.add_var(0.0, demand, 1.0)).collect();

    // Scenario 0 is "no failure": the nominal allocation must also work.
    // BTreeSet, not HashSet: the cut is *iterated* below — the f64
    // budget sum and the LP restoration-variable order must not depend
    // on hash order.
    let mut scenario_cuts: Vec<BTreeSet<EdgeId>> = vec![BTreeSet::new()];
    for s in &inst.scenarios {
        scenario_cuts.push(inst.full_cut(s));
    }

    for cut in &scenario_cuts {
        // Restored capacity per cut fiber.
        let budget: f64 = cut.iter().map(|&e| g.capacity(e)).sum::<f64>()
            * inst.restoration_fraction
            / 2.0; // per direction: each fiber counted twice in `cut`
        let mut restored: std::collections::HashMap<EdgeId, RestoredCap> =
            std::collections::HashMap::new();
        match variant {
            ArrowVariant::Faithful => {
                // Predefined parameter: budget split evenly across the
                // scenario's cut fibers (per direction).
                let n_cut = cut.len().max(1) as f64;
                for &e in cut {
                    restored.insert(e, RestoredCap::Fixed(2.0 * budget / n_cut));
                }
            }
            ArrowVariant::OpenSource => {
                // Decision variables with a shared budget per direction
                // pairing; bounded by the fiber's own capacity.
                let mut row: Vec<(VarId, f64)> = Vec::new();
                for &e in cut {
                    let v = p.add_var(0.0, g.capacity(e), 0.0);
                    restored.insert(e, RestoredCap::Var(v));
                    row.push((v, 1.0));
                }
                if !row.is_empty() {
                    p.add_le(&row, 2.0 * budget);
                }
            }
        }

        // Per-scenario flows.
        let mut edge_rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); g.num_edges()];
        for (k, paths) in tunnels.tunnels.iter().enumerate() {
            if paths.is_empty() {
                let (src, dst, _) = commodities[k];
                return Err(TeError::NoTunnels { src, dst });
            }
            let mut row: Vec<(VarId, f64)> = Vec::new();
            for path in paths {
                let crosses: Vec<EdgeId> =
                    path.edges.iter().copied().filter(|e| cut.contains(e)).collect();
                // Faithful restorable-tunnel rule (the stricter reading
                // participant B took from the paper text): a tunnel is
                // restorable only if it crosses at most ONE cut fiber
                // and that fiber's predefined restoration is non-zero.
                // The released code has no such restriction: any tunnel
                // may use whatever restored capacity the optimiser buys.
                let usable = match variant {
                    ArrowVariant::Faithful => {
                        crosses.len() <= 1
                            && crosses.iter().all(|e| {
                                matches!(restored.get(e), Some(RestoredCap::Fixed(c)) if *c > 1e-12)
                            })
                    }
                    ArrowVariant::OpenSource => true,
                };
                if !usable {
                    continue;
                }
                let x = p.add_var(0.0, f64::INFINITY, 0.0);
                row.push((x, 1.0));
                for &e in &path.edges {
                    edge_rows[e.index()].push((x, 1.0));
                }
            }
            if row.is_empty() {
                // No usable tunnel in this scenario: commitment is 0.
                p.add_le(&[(b[k], 1.0)], 0.0);
            } else {
                // b_k <= served flow in scenario q.
                let mut srv: Vec<(VarId, f64)> = vec![(b[k], 1.0)];
                srv.extend(row.iter().map(|&(v, c)| (v, -c)));
                p.add_le(&srv, 0.0);
            }
        }
        // Capacities: survivors at full, cut fibers at restored.
        for (ei, row) in edge_rows.iter().enumerate() {
            if row.is_empty() {
                continue;
            }
            let e = EdgeId(ei as u32);
            match restored.get(&e) {
                None if cut.contains(&e) => {
                    // Unrestorable (cannot happen — every cut fiber gets
                    // an entry) — forbid use.
                    p.add_le(row, 0.0);
                }
                None => p.add_le(row, g.capacity(e)),
                Some(RestoredCap::Fixed(c)) => p.add_le(row, c.min(g.capacity(e))),
                Some(RestoredCap::Var(v)) => {
                    // sum x - r <= 0
                    let mut r2 = row.clone();
                    r2.push((*v, -1.0));
                    p.add_le(&r2, 0.0);
                }
            }
        }
    }

    let sol = solver.solve(&p)?;
    if sol.status != Status::Optimal {
        return Err(TeError::UnexpectedStatus(sol.status));
    }
    let per_commodity: Vec<f64> = b.iter().map(|&v| sol.value(v)).collect();
    Ok(ArrowSolution {
        committed: sol.objective,
        per_commodity,
        solve_time: start.elapsed(),
        lp_iterations: sol.iterations,
    })
}

enum RestoredCap {
    Fixed(f64),
    Var(VarId),
}

/// Build `count` large-scale cut scenarios of `fibers_per_scenario`
/// fibers each, chosen round-robin over the highest-capacity fibers —
/// the "massive fiber cut" regime ARROW's evaluation focuses on, and
/// the one where predefined-vs-optimised restoration splits diverge.
pub fn multi_fiber_scenarios(
    te: &TeInstance,
    count: usize,
    fibers_per_scenario: usize,
) -> Vec<FailureScenario> {
    let singles = single_fiber_scenarios(te, count * fibers_per_scenario);
    let mut out: Vec<FailureScenario> = (0..count).map(|_| FailureScenario { cut: Vec::new() }).collect();
    for (i, s) in singles.into_iter().enumerate() {
        out[i % count].cut.extend(s.cut);
    }
    out.retain(|s| !s.cut.is_empty());
    out
}

/// Like [`multi_fiber_scenarios`], but never cuts a bridge fiber:
/// cutting a bridge partitions the WAN, where no restoration policy can
/// help and every formulation trivially agrees. Restoration-sensitive
/// experiments want exactly the non-bridge cuts.
pub fn non_bridge_scenarios(
    te: &TeInstance,
    count: usize,
    fibers_per_scenario: usize,
) -> Vec<FailureScenario> {
    let cs = netrepro_graph::cuts::cut_structure(&te.graph);
    let bridge_set: std::collections::HashSet<EdgeId> = cs
        .bridges
        .iter()
        .flat_map(|&e| {
            let (a, b) = te.graph.endpoints(e);
            let rev = te.graph.find_edge(b, a);
            std::iter::once(e).chain(rev)
        })
        .collect();
    let mut out = multi_fiber_scenarios(te, count, fibers_per_scenario);
    for s in &mut out {
        s.cut.retain(|e| !bridge_set.contains(e));
    }
    out.retain(|s| !s.cut.is_empty());
    out
}

/// Build failure scenarios by cutting the `count` highest-capacity
/// fibers one at a time (single-failure scenarios, ARROW's common case).
pub fn single_fiber_scenarios(te: &TeInstance, count: usize) -> Vec<FailureScenario> {
    let g = &te.graph;
    // Consider each fiber once (pick the direction with the lower id).
    let mut fibers: Vec<EdgeId> = g
        .edges()
        .filter(|&e| {
            let (a, b) = g.endpoints(e);
            match g.find_edge(b, a) {
                Some(rev) => e < rev,
                None => true,
            }
        })
        .collect();
    fibers.sort_by(|&x, &y| {
        g.capacity(y).total_cmp(&g.capacity(x)).then_with(|| x.cmp(&y))
    });
    fibers
        .into_iter()
        .take(count)
        .map(|e| FailureScenario { cut: vec![e] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrepro_graph::gen::ring;
    use netrepro_graph::traffic::TrafficMatrix;
    use netrepro_graph::NodeId;
    use netrepro_lp::revised::RevisedSimplex;

    fn instance() -> ArrowInstance {
        let graph = ring(6, 10.0);
        let mut tm = TrafficMatrix::zeros(6);
        tm.set(NodeId(0), NodeId(3), 15.0);
        tm.set(NodeId(1), NodeId(4), 8.0);
        let te = TeInstance { name: "ring".into(), graph, tm, paths_per_commodity: 3, max_commodities: 8 };
        let scenarios = single_fiber_scenarios(&te, 2);
        ArrowInstance { te, scenarios, restoration_fraction: 0.5 }
    }

    #[test]
    fn open_source_dominates_faithful() {
        let inst = instance();
        let f = solve_arrow(&inst, ArrowVariant::Faithful, &RevisedSimplex::default()).unwrap();
        let o = solve_arrow(&inst, ArrowVariant::OpenSource, &RevisedSimplex::default()).unwrap();
        assert!(
            o.committed >= f.committed - 1e-6,
            "open-source {} must dominate faithful {}",
            o.committed,
            f.committed
        );
    }

    #[test]
    fn committed_at_most_demand() {
        let inst = instance();
        let commodities = inst.te.commodities();
        for v in [ArrowVariant::Faithful, ArrowVariant::OpenSource] {
            let s = solve_arrow(&inst, v, &RevisedSimplex::default()).unwrap();
            for (c, (_, _, d)) in s.per_commodity.iter().zip(&commodities) {
                assert!(*c <= d + 1e-6);
            }
        }
    }

    #[test]
    fn no_scenarios_equals_plain_te() {
        let mut inst = instance();
        inst.scenarios.clear();
        let s = solve_arrow(&inst, ArrowVariant::OpenSource, &RevisedSimplex::default()).unwrap();
        let flat = crate::mcf::solve_mcf(&inst.te, &RevisedSimplex::default()).unwrap();
        assert!((s.committed - flat.total_flow).abs() < 1e-5);
    }

    #[test]
    fn zero_restoration_still_survives_via_reroute() {
        // On a ring, cutting one fiber leaves the long way round.
        let mut inst = instance();
        inst.restoration_fraction = 0.0;
        let s = solve_arrow(&inst, ArrowVariant::OpenSource, &RevisedSimplex::default()).unwrap();
        assert!(s.committed > 0.0);
    }

    #[test]
    fn more_restoration_never_hurts() {
        let mut inst = instance();
        inst.restoration_fraction = 0.0;
        let low = solve_arrow(&inst, ArrowVariant::OpenSource, &RevisedSimplex::default()).unwrap();
        inst.restoration_fraction = 1.0;
        let high = solve_arrow(&inst, ArrowVariant::OpenSource, &RevisedSimplex::default()).unwrap();
        assert!(high.committed >= low.committed - 1e-6);
    }

    #[test]
    fn non_bridge_scenarios_avoid_bridges() {
        // A barbell: the middle fiber is a bridge and must never be cut.
        let mut graph = netrepro_graph::DiGraph::new();
        let ns = graph.add_nodes("n", 6);
        graph.add_bidi(ns[0], ns[1], 10.0, 1.0);
        graph.add_bidi(ns[1], ns[2], 10.0, 1.0);
        graph.add_bidi(ns[2], ns[0], 10.0, 1.0);
        graph.add_bidi(ns[3], ns[4], 10.0, 1.0);
        graph.add_bidi(ns[4], ns[5], 10.0, 1.0);
        graph.add_bidi(ns[5], ns[3], 10.0, 1.0);
        let bridge = graph.add_bidi(ns[2], ns[3], 100.0, 1.0); // juiciest capacity
        let mut tm = netrepro_graph::traffic::TrafficMatrix::zeros(6);
        tm.set(ns[0], ns[5], 5.0);
        let te = TeInstance { name: "bar".into(), graph, tm, paths_per_commodity: 2, max_commodities: 4 };
        let scenarios = non_bridge_scenarios(&te, 2, 2);
        for s in &scenarios {
            assert!(!s.cut.contains(&bridge.0) && !s.cut.contains(&bridge.1));
        }
    }

    #[test]
    fn single_fiber_scenarios_pick_distinct_fibers() {
        let inst = instance();
        let g = &inst.te.graph;
        let mut seen = std::collections::HashSet::new();
        for s in &inst.scenarios {
            assert_eq!(s.cut.len(), 1);
            let (a, b) = g.endpoints(s.cut[0]);
            assert!(seen.insert((a.min(b), a.max(b))), "duplicate fiber");
        }
    }
}
