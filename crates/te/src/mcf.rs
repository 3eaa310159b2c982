//! The flat path-based multicommodity-flow LP ("PF", the formulation
//! NCFlow contracts and ARROW extends).
//!
//! Variables: one flow variable per (commodity, tunnel). Constraints:
//! per-commodity demand caps and per-edge capacity caps. Objective:
//! maximise total admitted flow — NCFlow's objective.

use crate::TeError;
use netrepro_graph::paths::{KShortest, Path};
use netrepro_graph::{DiGraph, NodeId, TrafficMatrix};
use netrepro_lp::{LpSolver, Problem, Sense, Status, VarId};
use std::time::Instant;

/// A TE problem instance: topology, demands and tunnel budget.
#[derive(Debug, Clone)]
pub struct TeInstance {
    /// Instance display name (the stand-in WAN).
    pub name: String,
    /// The topology.
    pub graph: DiGraph,
    /// The demand matrix.
    pub tm: TrafficMatrix,
    /// Tunnels (k-shortest paths) per commodity.
    pub paths_per_commodity: usize,
    /// Only the `max_commodities` largest demands are engineered
    /// (mirrors how the original evaluations subsample demand matrices).
    pub max_commodities: usize,
}

impl TeInstance {
    /// The engineered commodities: the largest demands first, at most
    /// `max_commodities` of them.
    pub fn commodities(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut all = self.tm.commodities();
        all.sort_by(|a, b| b.2.total_cmp(&a.2));
        all.truncate(self.max_commodities);
        all
    }

    /// Total engineered demand.
    pub fn total_demand(&self) -> f64 {
        self.commodities().iter().map(|c| c.2).sum()
    }
}

/// Which objective the LP maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McfObjective {
    /// Maximise total admitted flow (NCFlow's objective).
    #[default]
    TotalFlow,
    /// Maximise the common served fraction `t` with every commodity
    /// guaranteed `t · demand` (max-concurrent flow — fairness).
    MaxConcurrent,
}

/// A solved MCF: objective, per-commodity admitted flow, timings.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// Total admitted flow (the objective value).
    pub total_flow: f64,
    /// Common served fraction (only for [`McfObjective::MaxConcurrent`]).
    pub concurrency: Option<f64>,
    /// Admitted flow per engineered commodity, same order as
    /// [`TeInstance::commodities`].
    pub per_commodity: Vec<f64>,
    /// Admitted flow per (commodity, tunnel), same shapes as the tunnel
    /// set used by the solve.
    pub per_path: Vec<Vec<f64>>,
    /// Wall-clock solve time (model build + LP).
    pub solve_time: std::time::Duration,
    /// LP pivots.
    pub lp_iterations: u64,
}

/// Per-commodity tunnels used by a solve, exposed for inspection.
#[derive(Debug, Clone)]
pub struct TunnelSet {
    /// `tunnels[i]` are the paths of commodity `i`.
    pub tunnels: Vec<Vec<Path>>,
}

/// Compute the k-shortest-path tunnels for each commodity (none when
/// `k == 0`). One generator serves every commodity, so commodities that
/// share a destination share its reverse shortest-path tree.
pub fn build_tunnels(
    graph: &DiGraph,
    commodities: &[(NodeId, NodeId, f64)],
    k: usize,
) -> TunnelSet {
    let mut yen = KShortest::new(graph);
    let tunnels = commodities.iter().map(|&(s, d, _)| yen.paths(s, d, k)).collect();
    TunnelSet { tunnels }
}

/// Solve the flat MCF (total-flow objective) with the given LP solver.
pub fn solve_mcf(inst: &TeInstance, solver: &dyn LpSolver) -> Result<McfSolution, TeError> {
    let start = Instant::now();
    let commodities = inst.commodities();
    let tunnels = build_tunnels(&inst.graph, &commodities, inst.paths_per_commodity);
    solve_mcf_with_tunnels(&inst.graph, &commodities, &tunnels, solver, start)
}

/// Solve the flat MCF under an explicit objective.
pub fn solve_mcf_with_objective(
    inst: &TeInstance,
    objective: McfObjective,
    solver: &dyn LpSolver,
) -> Result<McfSolution, TeError> {
    match objective {
        McfObjective::TotalFlow => solve_mcf(inst, solver),
        McfObjective::MaxConcurrent => solve_max_concurrent(inst, solver),
    }
}

/// Max-concurrent flow: maximise `t` such that every engineered
/// commodity is served at least `t · demand` within edge capacities
/// (`t` is capped at 1 — fully served).
fn solve_max_concurrent(inst: &TeInstance, solver: &dyn LpSolver) -> Result<McfSolution, TeError> {
    let start = Instant::now();
    let commodities = inst.commodities();
    let tunnels = build_tunnels(&inst.graph, &commodities, inst.paths_per_commodity);

    let mut p = Problem::new(Sense::Maximize);
    let t_var = p.add_var(0.0, 1.0, 1.0);
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(commodities.len());
    for (ci, &(src, dst, demand)) in commodities.iter().enumerate() {
        let paths = &tunnels.tunnels[ci];
        if paths.is_empty() {
            return Err(TeError::NoTunnels { src, dst });
        }
        let vs: Vec<VarId> = paths.iter().map(|_| p.add_var(0.0, f64::INFINITY, 0.0)).collect();
        // Demand cap and the concurrency floor: Σx >= t·demand.
        let row: Vec<_> = vs.iter().map(|&v| (v, 1.0)).collect();
        p.add_le(&row, demand);
        let mut floor: Vec<(VarId, f64)> = vec![(t_var, demand)];
        floor.extend(vs.iter().map(|&v| (v, -1.0)));
        p.add_le(&floor, 0.0); // t·demand − Σx <= 0
        vars.push(vs);
    }
    add_capacity_rows(&mut p, &inst.graph, &tunnels, &vars);

    let sol = solver.solve(&p)?;
    if sol.status != Status::Optimal {
        return Err(TeError::UnexpectedStatus(sol.status));
    }
    let per_path: Vec<Vec<f64>> =
        vars.iter().map(|vs| vs.iter().map(|&v| sol.value(v)).collect()).collect();
    let per_commodity: Vec<f64> = per_path.iter().map(|vs| vs.iter().sum()).collect();
    Ok(McfSolution {
        total_flow: per_commodity.iter().sum(),
        concurrency: Some(sol.value(t_var)),
        per_commodity,
        per_path,
        solve_time: start.elapsed(),
        lp_iterations: sol.iterations,
    })
}

/// Edge capacity caps, one row per edge some tunnel crosses, in edge
/// order: the flow of every (commodity, tunnel) over the edge is at
/// most its capacity.
fn add_capacity_rows(p: &mut Problem, graph: &DiGraph, tunnels: &TunnelSet, vars: &[Vec<VarId>]) {
    let mut edge_rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); graph.num_edges()];
    for (ci, paths) in tunnels.tunnels.iter().enumerate() {
        for (pi, path) in paths.iter().enumerate() {
            for &e in &path.edges {
                edge_rows[e.index()].push((vars[ci][pi], 1.0));
            }
        }
    }
    for (e, row) in graph.edges().zip(&edge_rows) {
        if !row.is_empty() {
            p.add_le(row, graph.capacity(e));
        }
    }
}

/// The total-flow MCF over `graph` with the given tunnels, which must
/// hold at least one path per commodity.
pub(crate) fn solve_mcf_with_tunnels(
    graph: &DiGraph,
    commodities: &[(NodeId, NodeId, f64)],
    tunnels: &TunnelSet,
    solver: &dyn LpSolver,
    start: Instant,
) -> Result<McfSolution, TeError> {
    let mut p = Problem::new(Sense::Maximize);
    // Flow variable per (commodity, tunnel).
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(commodities.len());
    for (ci, &(src, dst, demand)) in commodities.iter().enumerate() {
        let paths = &tunnels.tunnels[ci];
        if paths.is_empty() {
            return Err(TeError::NoTunnels { src, dst });
        }
        let vs: Vec<VarId> = paths.iter().map(|_| p.add_var(0.0, f64::INFINITY, 1.0)).collect();
        // Demand cap.
        let row: Vec<_> = vs.iter().map(|&v| (v, 1.0)).collect();
        p.add_le(&row, demand);
        vars.push(vs);
    }
    add_capacity_rows(&mut p, graph, tunnels, &vars);

    let sol = solver.solve(&p)?;
    if sol.status != Status::Optimal {
        return Err(TeError::UnexpectedStatus(sol.status));
    }
    let per_path: Vec<Vec<f64>> = vars
        .iter()
        .map(|vs| vs.iter().map(|&v| sol.value(v)).collect())
        .collect();
    let per_commodity: Vec<f64> = per_path.iter().map(|vs| vs.iter().sum()).collect();
    Ok(McfSolution {
        total_flow: sol.objective,
        concurrency: None,
        per_commodity,
        per_path,
        solve_time: start.elapsed(),
        lp_iterations: sol.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrepro_graph::gen::ring;
    use netrepro_graph::maxflow::max_flow_value;
    use netrepro_graph::traffic::{self, TrafficMatrix};
    use netrepro_lp::dense::DenseSimplex;
    use netrepro_lp::revised::RevisedSimplex;

    fn single_commodity_instance() -> TeInstance {
        let graph = ring(6, 10.0);
        let mut tm = TrafficMatrix::zeros(6);
        tm.set(NodeId(0), NodeId(3), 100.0); // wants more than capacity
        TeInstance { name: "ring".into(), graph, tm, paths_per_commodity: 4, max_commodities: 16 }
    }

    #[test]
    fn single_commodity_matches_maxflow() {
        let inst = single_commodity_instance();
        let sol = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let mf = max_flow_value(&inst.graph, NodeId(0), NodeId(3));
        // Two disjoint ring arcs of 10 each = 20.
        assert!((mf - 20.0).abs() < 1e-9);
        assert!((sol.total_flow - mf).abs() < 1e-6);
    }

    #[test]
    fn flow_capped_by_demand() {
        let mut inst = single_commodity_instance();
        inst.tm = TrafficMatrix::zeros(6);
        inst.tm.set(NodeId(0), NodeId(3), 5.0);
        let sol = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        assert!((sol.total_flow - 5.0).abs() < 1e-6);
    }

    #[test]
    fn solvers_agree_on_gravity_instance() {
        let graph = ring(8, 10.0);
        let tm = traffic::gravity(&graph, 120.0, 3);
        let inst = TeInstance {
            name: "g".into(),
            graph,
            tm,
            paths_per_commodity: 3,
            max_commodities: 12,
        };
        let fast = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let slow = solve_mcf(&inst, &DenseSimplex::default()).unwrap();
        assert!(
            (fast.total_flow - slow.total_flow).abs() < 1e-4,
            "fast {} vs slow {}",
            fast.total_flow,
            slow.total_flow
        );
    }

    #[test]
    fn per_commodity_never_exceeds_demand() {
        let graph = ring(8, 10.0);
        let tm = traffic::gravity(&graph, 200.0, 5);
        let inst = TeInstance {
            name: "g".into(),
            graph,
            tm,
            paths_per_commodity: 3,
            max_commodities: 10,
        };
        let commodities = inst.commodities();
        let sol = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        for (f, (_, _, d)) in sol.per_commodity.iter().zip(&commodities) {
            assert!(*f <= d + 1e-6);
        }
    }

    #[test]
    fn max_commodities_subsamples_largest() {
        let graph = ring(6, 10.0);
        let mut tm = TrafficMatrix::zeros(6);
        tm.set(NodeId(0), NodeId(1), 1.0);
        tm.set(NodeId(1), NodeId(2), 9.0);
        tm.set(NodeId(2), NodeId(3), 5.0);
        let inst = TeInstance { name: "s".into(), graph, tm, paths_per_commodity: 2, max_commodities: 2 };
        let c = inst.commodities();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].2, 9.0);
        assert_eq!(c[1].2, 5.0);
    }

    #[test]
    fn no_tunnels_is_an_error() {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let _ = (a, b);
        let mut tm = TrafficMatrix::zeros(2);
        tm.set(NodeId(0), NodeId(1), 1.0);
        let inst = TeInstance { name: "x".into(), graph: g, tm, paths_per_commodity: 2, max_commodities: 4 };
        assert!(matches!(
            solve_mcf(&inst, &RevisedSimplex::default()),
            Err(TeError::NoTunnels { .. })
        ));
    }

    #[test]
    fn zero_tunnel_budget_is_an_error() {
        let inst = TeInstance { paths_per_commodity: 0, ..single_commodity_instance() };
        for objective in [McfObjective::TotalFlow, McfObjective::MaxConcurrent] {
            assert!(matches!(
                solve_mcf_with_objective(&inst, objective, &RevisedSimplex::default()),
                Err(TeError::NoTunnels { .. })
            ));
        }
    }
}

#[cfg(test)]
mod concurrent_tests {
    use super::*;
    use netrepro_graph::gen::ring;
    use netrepro_graph::traffic::{self, TrafficMatrix};
    use netrepro_lp::revised::RevisedSimplex;

    #[test]
    fn fully_servable_demands_reach_t_one() {
        let graph = ring(6, 100.0);
        let mut tm = TrafficMatrix::zeros(6);
        tm.set(NodeId(0), NodeId(3), 5.0);
        tm.set(NodeId(1), NodeId(4), 5.0);
        let inst = TeInstance { name: "r".into(), graph, tm, paths_per_commodity: 3, max_commodities: 8 };
        let s = solve_mcf_with_objective(&inst, McfObjective::MaxConcurrent, &RevisedSimplex::default()).unwrap();
        assert!((s.concurrency.unwrap() - 1.0).abs() < 1e-6);
        assert!((s.total_flow - 10.0).abs() < 1e-6);
    }

    #[test]
    fn oversubscribed_demands_share_fairly() {
        // One bottleneck edge chain of capacity 10; two commodities of 10 each
        // crossing it: t = 0.5 each.
        let mut graph = netrepro_graph::DiGraph::new();
        let ns = graph.add_nodes("n", 4);
        graph.add_edge(ns[0], ns[1], 100.0, 1.0);
        graph.add_edge(ns[1], ns[2], 10.0, 1.0); // bottleneck
        graph.add_edge(ns[2], ns[3], 100.0, 1.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set(ns[0], ns[2], 10.0);
        tm.set(ns[1], ns[3], 10.0);
        let inst = TeInstance { name: "b".into(), graph, tm, paths_per_commodity: 2, max_commodities: 4 };
        let s = solve_mcf_with_objective(&inst, McfObjective::MaxConcurrent, &RevisedSimplex::default()).unwrap();
        assert!((s.concurrency.unwrap() - 0.5).abs() < 1e-6, "t = {:?}", s.concurrency);
        for f in &s.per_commodity {
            assert!(*f >= 5.0 - 1e-6, "every commodity gets its share");
        }
    }

    #[test]
    fn concurrency_guarantee_holds_on_random_instance() {
        let graph = netrepro_graph::gen::waxman(&netrepro_graph::gen::TopologySpec::new("t", 16, 9));
        let tm = traffic::gravity(&graph, 900.0, 10);
        let inst = TeInstance { name: "t".into(), graph, tm, paths_per_commodity: 3, max_commodities: 12 };
        let commodities = inst.commodities();
        let s = solve_mcf_with_objective(&inst, McfObjective::MaxConcurrent, &RevisedSimplex::default()).unwrap();
        let t = s.concurrency.unwrap();
        for (f, (_, _, d)) in s.per_commodity.iter().zip(&commodities) {
            assert!(*f + 1e-6 >= t * d, "floor violated: {f} < {t}*{d}");
        }
    }

    #[test]
    fn max_concurrent_total_not_above_total_flow_optimum() {
        let graph = ring(8, 10.0);
        let tm = traffic::gravity(&graph, 300.0, 2);
        let inst = TeInstance { name: "r".into(), graph, tm, paths_per_commodity: 3, max_commodities: 10 };
        let mc = solve_mcf_with_objective(&inst, McfObjective::MaxConcurrent, &RevisedSimplex::default()).unwrap();
        let tf = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        assert!(mc.total_flow <= tf.total_flow + 1e-6);
    }
}
