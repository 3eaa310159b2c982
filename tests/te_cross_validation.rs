//! Cross-crate TE properties: the algorithm hierarchy
//! (greedy ≤ NCFlow ≤ flat LP ≤ total demand) must hold on arbitrary
//! seeded instances, with both LP solvers agreeing throughout.

use netrepro::core::validate::{lp_scale_instance, lp_scale_specs};
use netrepro::graph::gen::{waxman, TopologySpec};
use netrepro::graph::paths::Path;
use netrepro::graph::traffic;
use netrepro::graph::{DiGraph, EdgeId, NodeId};
use netrepro::lp::dense::DenseSimplex;
use netrepro::lp::presolve::{presolve, reduce};
use netrepro::lp::revised::RevisedSimplex;
use netrepro::lp::standard::StandardLp;
use netrepro::lp::{LpError, LpSolver, Problem, Solution};
use netrepro::te::baseline::solve_greedy;
use netrepro::te::mcf::{build_tunnels, solve_mcf, TeInstance};
use netrepro::te::ncflow::{solve_ncflow, NcFlowConfig};
use proptest::prelude::*;
use std::sync::Mutex;

#[path = "../crates/graph/tests/support/yen_reference.rs"]
mod yen_reference;

fn instance(nodes: usize, seed: u64, commodities: usize, demand_scale: f64) -> TeInstance {
    let graph = waxman(&TopologySpec::new("prop", nodes, seed));
    let tm = traffic::gravity(&graph, nodes as f64 * demand_scale, seed + 1);
    TeInstance { name: "prop".into(), graph, tm, paths_per_commodity: 3, max_commodities: commodities }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn algorithm_hierarchy(seed in 0u64..500, nodes in 10usize..26, scale in 5.0f64..60.0) {
        let inst = instance(nodes, seed, 12, scale);
        let flat = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let greedy = solve_greedy(&inst);
        let cfg = NcFlowConfig { num_clusters: 3, paths_per_commodity: 3, parallel_r2: false };
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        let demand = inst.total_demand();

        // Everything is bounded by total demand.
        prop_assert!(flat.total_flow <= demand + 1e-6);
        prop_assert!(greedy.total_flow <= demand + 1e-6);
        prop_assert!(ncf.total_flow <= demand + 1e-6);
        // The flat LP is the optimum of the richest formulation the
        // heuristics approximate.
        prop_assert!(ncf.total_flow <= flat.total_flow + 1e-4,
            "ncflow {} > flat {}", ncf.total_flow, flat.total_flow);
        // Greedy may beat NCFlow's decomposition but never the flat LP
        // over the same path budget... greedy has unlimited paths, so
        // only the demand bound applies to it. Check non-negativity.
        prop_assert!(greedy.total_flow >= -1e-9);
    }

    #[test]
    fn solvers_agree_on_te(seed in 0u64..500, nodes in 10usize..20) {
        let inst = instance(nodes, seed, 8, 25.0);
        let fast = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let slow = solve_mcf(&inst, &DenseSimplex::default()).unwrap();
        prop_assert!((fast.total_flow - slow.total_flow).abs() < 1e-4,
            "revised {} vs dense {}", fast.total_flow, slow.total_flow);
    }

    #[test]
    fn ncflow_cluster_count_never_breaks_feasibility(seed in 0u64..200, k in 1usize..6) {
        let inst = instance(18, seed, 10, 30.0);
        let flat = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let cfg = NcFlowConfig { num_clusters: k, paths_per_commodity: 3, parallel_r2: false };
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        prop_assert!(ncf.total_flow <= flat.total_flow + 1e-4);
        prop_assert!(ncf.total_flow >= 0.0);
    }

    #[test]
    fn per_commodity_flows_respect_demands(seed in 0u64..300) {
        let inst = instance(14, seed, 10, 40.0);
        let commodities = inst.commodities();
        let sol = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        for (f, (_, _, d)) in sol.per_commodity.iter().zip(&commodities) {
            prop_assert!(*f <= d + 1e-6);
            prop_assert!(*f >= -1e-9);
        }
        let sum: f64 = sol.per_commodity.iter().sum();
        prop_assert!((sum - sol.total_flow).abs() < 1e-6);
    }
}

/// `build_tunnels` (one reverse tree per destination, bounded spur
/// searches) yields the reference Yen's tunnels on the 1× and 10×
/// `lp_scale` rungs: same edges, same cost bits, same order.
#[test]
fn tunnels_match_reference_yen_on_lp_scale_rungs() {
    for spec in lp_scale_specs().into_iter().filter(|s| s.label != "100x") {
        let inst = lp_scale_instance(&spec);
        let commodities = inst.commodities();
        let got = build_tunnels(&inst.graph, &commodities, spec.paths);
        assert_eq!(got.tunnels.len(), commodities.len());
        for (paths, &(s, d, _)) in got.tunnels.iter().zip(&commodities) {
            let want = yen_reference::k_shortest_paths(&inst.graph, s, d, spec.paths);
            let key = |ps: &[Path]| -> Vec<(Vec<EdgeId>, u64)> {
                ps.iter().map(|p| (p.edges.clone(), p.cost.to_bits())).collect()
            };
            assert_eq!(key(paths), key(&want), "lp_scale {}: {s:?} -> {d:?}", spec.label);
        }
    }
}

/// Keeps a copy of every problem it is handed, then solves it with the
/// revised simplex.
struct Capture(Mutex<Vec<Problem>>);

impl LpSolver for Capture {
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        self.0.lock().unwrap().push(problem.clone());
        RevisedSimplex::default().solve(problem)
    }

    fn name(&self) -> &'static str {
        "capture"
    }
}

/// Standard form built from a presolve `Reduction` over the caller's
/// model is, bit for bit, standard form of the presolved copy of the
/// model, on every LP the MCF and NCFlow solve on the 1× and 10×
/// `lp_scale` rungs and the MCF on the 100× rung.
#[test]
fn reduced_standard_form_matches_the_presolved_copy_on_lp_scale_rungs() {
    let capture = Capture(Mutex::new(Vec::new()));
    for spec in lp_scale_specs() {
        let inst = lp_scale_instance(&spec);
        solve_mcf(&inst, &capture).expect("MCF solves");
        if spec.label != "100x" {
            let cfg = NcFlowConfig::for_instance(&inst);
            solve_ncflow(&inst, &cfg, &capture).expect("NCFlow solves");
        }
    }
    let problems = capture.0.into_inner().unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let col_bits = |s: &StandardLp| -> Vec<Vec<(usize, u64)>> {
        s.cols.iter().map(|col| col.iter().map(|&(r, v)| (r, v.to_bits())).collect()).collect()
    };
    let mut reduced = 0;
    for p in &problems {
        let reduction = reduce(p).expect("feasible");
        reduced += usize::from(reduction.rows.len() < p.num_constraints());
        let got = StandardLp::from_reduction(p, &reduction);
        let want = StandardLp::from_problem(&presolve(p).expect("feasible"));
        assert_eq!(got.m, want.m);
        assert_eq!(col_bits(&got), col_bits(&want));
        assert_eq!(bits(&got.b), bits(&want.b));
        assert_eq!(bits(&got.c), bits(&want.c));
    }
    assert!(problems.len() > 3 && reduced > 0, "{reduced} of {} problems reduced", problems.len());
}
