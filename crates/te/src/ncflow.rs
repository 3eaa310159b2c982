//! NCFlow (Abuzaid et al., NSDI 2021): solving flow problems quickly by
//! contracting the topology.
//!
//! The pipeline mirrors the published decomposition:
//!
//! 1. **Partition** the WAN into `k` clusters
//!    ([`netrepro_graph::partition`]).
//! 2. **R1** — solve the flat MCF on the *contracted* graph (one node
//!    per cluster, one edge per adjacent cluster pair whose capacity is
//!    the sum of its cut edges). This allocates every inter-cluster
//!    commodity to cluster-level paths.
//! 3. **R2** — for every cluster, solve a *local* MCF over the induced
//!    subgraph plus portal nodes standing for the neighbouring
//!    clusters; transit demands equal the R1 allocations. Clusters are
//!    independent and solved in parallel (std scoped threads).
//! 4. **R3** — reconcile: each inter-cluster commodity realises the
//!    minimum of its R1 allocation and its R2 admissions along the
//!    cluster path; intra-cluster commodities realise their R2
//!    admission directly.
//!
//! As in the original system, the reconciled objective is a lower bound
//! on the flat-LP optimum; the point of the exercise is that R1+R2 are
//! much smaller LPs than the flat formulation.

use crate::mcf::{build_tunnels, solve_mcf_with_tunnels, McfSolution, TeInstance, TunnelSet};
use crate::TeError;
use netrepro_graph::partition::{partition, Partition};
use netrepro_graph::{DiGraph, NodeId, TrafficMatrix};
use netrepro_lp::LpSolver;
use std::time::{Duration, Instant};

/// NCFlow configuration.
#[derive(Debug, Clone)]
pub struct NcFlowConfig {
    /// Number of clusters (NCFlow uses ≈√N).
    pub num_clusters: usize,
    /// Tunnels per commodity in R1 and R2.
    pub paths_per_commodity: usize,
    /// Solve R2 cluster problems on parallel threads.
    pub parallel_r2: bool,
}

impl NcFlowConfig {
    /// The paper's default: `√N` clusters, 4 paths.
    pub fn for_instance(inst: &TeInstance) -> Self {
        NcFlowConfig {
            num_clusters: (inst.graph.num_nodes() as f64).sqrt().round().max(2.0) as usize,
            paths_per_commodity: inst.paths_per_commodity,
            parallel_r2: true,
        }
    }
}

/// An NCFlow run's outcome and phase timings.
#[derive(Debug, Clone)]
pub struct NcfSolution {
    /// Total realised flow after reconciliation.
    pub total_flow: f64,
    /// Wall-clock for the whole pipeline.
    pub solve_time: Duration,
    /// R1 (contracted LP) time.
    pub r1_time: Duration,
    /// R2 (per-cluster LPs) time, wall-clock.
    pub r2_time: Duration,
    /// Number of clusters used.
    pub num_clusters: usize,
    /// Sum of LP pivots across R1 and R2.
    pub lp_iterations: u64,
}

/// Solve `inst` with the NCFlow decomposition.
pub fn solve_ncflow(
    inst: &TeInstance,
    cfg: &NcFlowConfig,
    solver: &(dyn LpSolver + Sync),
) -> Result<NcfSolution, TeError> {
    let start = Instant::now();
    let part = partition(&inst.graph, cfg.num_clusters);
    let k = part.k();
    let commodities = inst.commodities();

    // Split commodities by whether they cross clusters.
    let mut intra: Vec<(usize, NodeId, NodeId, f64)> = Vec::new(); // (cluster, s, d, demand)
    let mut inter: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for &(s, d, dem) in &commodities {
        let (cs, cd) = (part.cluster(s), part.cluster(d));
        if cs == cd {
            intra.push((cs, s, d, dem));
        } else {
            inter.push((s, d, dem));
        }
    }

    // ---- R1: contracted LP over clusters. ----
    let r1_start = Instant::now();
    let contracted = contract(&inst.graph, &part);
    let mut agg_tm = TrafficMatrix::zeros(k);
    for &(s, d, dem) in &inter {
        let (cs, cd) = (part.cluster(s), part.cluster(d));
        let cur = agg_tm.get(NodeId(cs as u32), NodeId(cd as u32));
        agg_tm.set(NodeId(cs as u32), NodeId(cd as u32), cur + dem);
    }
    let agg_commodities = agg_tm.commodities();
    let (r1, agg_tunnels): (McfSolution, TunnelSet) = if agg_commodities.is_empty() {
        (
            McfSolution {
                total_flow: 0.0,
                concurrency: None,
                per_commodity: Vec::new(),
                per_path: Vec::new(),
                solve_time: Duration::ZERO,
                lp_iterations: 0,
            },
            TunnelSet { tunnels: Vec::new() },
        )
    } else {
        let tunnels = build_tunnels(&contracted.graph, &agg_commodities, cfg.paths_per_commodity);
        let sol =
            solve_mcf_with_tunnels(&contracted.graph, &agg_commodities, &tunnels, solver, Instant::now())?;
        (sol, tunnels)
    };
    let r1_time = r1_start.elapsed();

    // Transit demands per cluster: (cluster, from_cluster?, to_cluster?, amount, key)
    // key identifies the (agg commodity, agg path) pair for R3.
    #[derive(Debug, Clone)]
    struct Transit {
        cluster: usize,
        enter_from: Option<usize>, // None => commodity originates here
        exit_to: Option<usize>,    // None => commodity terminates here
        src: NodeId,               // real endpoints (for origin/terminus)
        dst: NodeId,
        amount: f64,
        key: (usize, usize),
    }
    let mut transits: Vec<Transit> = Vec::new();
    for (ci, paths) in agg_tunnels.tunnels.iter().enumerate() {
        let (acs, acd, _) = agg_commodities[ci];
        // Real endpoints: aggregate commodities bundle several real ones;
        // we spread the allocation over the member commodities in
        // proportion to demand (NCFlow does the same within clusters).
        for (pi, path) in paths.iter().enumerate() {
            let alloc = r1.per_path[ci][pi];
            if alloc <= 1e-9 {
                continue;
            }
            let cluster_seq: Vec<usize> =
                path.nodes(&contracted.graph).iter().map(|n| n.index()).collect();
            debug_assert_eq!(cluster_seq.first(), Some(&acs.index()));
            debug_assert_eq!(cluster_seq.last(), Some(&acd.index()));
            for (hop, &c) in cluster_seq.iter().enumerate() {
                transits.push(Transit {
                    cluster: c,
                    enter_from: if hop == 0 { None } else { Some(cluster_seq[hop - 1]) },
                    exit_to: if hop + 1 == cluster_seq.len() {
                        None
                    } else {
                        Some(cluster_seq[hop + 1])
                    },
                    src: member_source(&inter, &part, acs.index()),
                    dst: member_sink(&inter, &part, acd.index()),
                    amount: alloc,
                    key: (ci, pi),
                });
            }
        }
    }

    // ---- R2: per-cluster local LPs. ----
    let r2_start = Instant::now();
    type ClusterInput = (Vec<(usize, NodeId, NodeId, f64)>, Vec<Transit>);
    let mut cluster_inputs: Vec<ClusterInput> =
        (0..k).map(|_| (Vec::new(), Vec::new())).collect();
    for t in &intra {
        cluster_inputs[t.0].0.push(*t);
    }
    for t in &transits {
        cluster_inputs[t.cluster].1.push(t.clone());
    }

    // Each cluster solve returns (intra admissions, per-transit-key admissions, iterations).
    type R2Out = (Vec<f64>, Vec<((usize, usize), f64)>, u64);
    let solve_cluster = |c: usize| -> Result<R2Out, TeError> {
        let (ref intra_c, ref transit_c) = cluster_inputs[c];
        if intra_c.is_empty() && transit_c.is_empty() {
            return Ok((Vec::new(), Vec::new(), 0));
        }
        let local = LocalProblem::build(&inst.graph, &part, c, transit_c.iter().map(|t| {
            (t.enter_from, t.exit_to, t.src, t.dst, t.amount, t.key)
        }).collect(), intra_c);
        local.solve(cfg.paths_per_commodity, solver)
    };

    let r2_results: Vec<Result<R2Out, TeError>> = if cfg.parallel_r2 {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..k)
                .map(|c| {
                    let solve_cluster = &solve_cluster;
                    scope.spawn(move || solve_cluster(c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    } else {
        (0..k).map(solve_cluster).collect()
    };
    let r2_time = r2_start.elapsed();

    // ---- R3: reconcile. ----
    let mut total = 0.0;
    let mut iterations = r1.lp_iterations;
    // Per (agg commodity, path) key: min admission across clusters.
    // A BTreeMap, not a HashMap: the values are summed below, and f64
    // addition order must not depend on RandomState.
    let mut key_min: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for (ci, paths) in agg_tunnels.tunnels.iter().enumerate() {
        for (pi, _) in paths.iter().enumerate() {
            if r1.per_path[ci][pi] > 1e-9 {
                key_min.insert((ci, pi), r1.per_path[ci][pi]);
            }
        }
    }
    for r in r2_results {
        let (intra_adm, transit_adm, iters) = r?;
        iterations += iters;
        total += intra_adm.iter().sum::<f64>();
        for (key, adm) in transit_adm {
            key_min
                .entry(key)
                .and_modify(|m| *m = m.min(adm))
                .or_insert(adm);
        }
    }
    total += key_min.values().sum::<f64>();

    Ok(NcfSolution {
        total_flow: total,
        solve_time: start.elapsed(),
        r1_time,
        r2_time,
        num_clusters: k,
        lp_iterations: iterations,
    })
}

/// Representative real source inside a cluster for an aggregate
/// commodity (the highest-demand member; used to anchor local tunnels).
fn member_source(inter: &[(NodeId, NodeId, f64)], part: &Partition, cluster: usize) -> NodeId {
    inter
        .iter()
        .filter(|(s, _, _)| part.cluster(*s) == cluster)
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|&(s, _, _)| s)
        .unwrap_or_else(|| part.members[cluster][0])
}

fn member_sink(inter: &[(NodeId, NodeId, f64)], part: &Partition, cluster: usize) -> NodeId {
    inter
        .iter()
        .filter(|(_, d, _)| part.cluster(*d) == cluster)
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|&(_, d, _)| d)
        .unwrap_or_else(|| part.members[cluster][0])
}

/// The contracted graph plus bookkeeping.
struct Contracted {
    graph: DiGraph,
}

/// One contracted node per cluster; one edge per ordered adjacent
/// cluster pair with capacity = sum of its cut-edge capacities.
fn contract(g: &DiGraph, part: &Partition) -> Contracted {
    let mut cg = DiGraph::new();
    let nodes = cg.add_nodes("cluster", part.k());
    // Ordered map: edges must be added in a run-independent order.
    let mut caps: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    for e in g.edges() {
        let (s, d) = g.endpoints(e);
        let (cs, cd) = (part.cluster(s), part.cluster(d));
        if cs != cd {
            *caps.entry((cs, cd)).or_insert(0.0) += g.capacity(e);
        }
    }
    for ((cs, cd), cap) in caps {
        cg.add_edge(nodes[cs], nodes[cd], cap, 1.0);
    }
    Contracted { graph: cg }
}

/// What a cluster-local solve returns: intra admissions, per-key
/// transit admissions, and LP pivot count.
type LocalSolveOutput = (Vec<f64>, Vec<((usize, usize), f64)>, u64);

/// A cluster-local MCF: the induced subgraph plus portal nodes.
struct LocalProblem {
    graph: DiGraph,
    /// (src, dst, demand) in local node ids.
    commodities: Vec<(NodeId, NodeId, f64)>,
    /// Which commodity indexes are transit, with their R3 keys.
    transit_keys: Vec<(usize, (usize, usize))>,
    /// How many commodities are intra.
    num_intra: usize,
}

impl LocalProblem {
    #[allow(clippy::type_complexity)]
    fn build(
        g: &DiGraph,
        part: &Partition,
        cluster: usize,
        transits: Vec<(Option<usize>, Option<usize>, NodeId, NodeId, f64, (usize, usize))>,
        intra: &[(usize, NodeId, NodeId, f64)],
    ) -> Self {
        let mut lg = DiGraph::new();
        let mut map: std::collections::HashMap<NodeId, NodeId> = std::collections::HashMap::new();
        for &n in &part.members[cluster] {
            let ln = lg.add_node(g.node_name(n));
            map.insert(n, ln);
        }
        // Internal edges.
        for e in g.edges() {
            let (s, d) = g.endpoints(e);
            if part.cluster(s) == cluster && part.cluster(d) == cluster {
                lg.add_edge(map[&s], map[&d], g.capacity(e), g.weight(e));
            }
        }
        // Portals: one per neighbouring cluster, with per-cut-edge arcs.
        let mut portals: std::collections::HashMap<usize, NodeId> = std::collections::HashMap::new();
        for e in g.edges() {
            let (s, d) = g.endpoints(e);
            let (cs, cd) = (part.cluster(s), part.cluster(d));
            if cs != cluster && cd == cluster {
                // entry cut edge: portal(cs) -> d
                let p = *portals
                    .entry(cs)
                    .or_insert_with(|| lg.add_node(&format!("portal{cs}")));
                lg.add_edge(p, map[&d], g.capacity(e), g.weight(e));
            } else if cs == cluster && cd != cluster {
                let p = *portals
                    .entry(cd)
                    .or_insert_with(|| lg.add_node(&format!("portal{cd}")));
                lg.add_edge(map[&s], p, g.capacity(e), g.weight(e));
            }
        }

        let mut commodities: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let num_intra = intra.len();
        for &(_, s, d, dem) in intra {
            commodities.push((map[&s], map[&d], dem));
        }
        let mut transit_keys = Vec::new();
        for (enter, exit, src, dst, amount, key) in transits {
            let from = match enter {
                Some(c) => match portals.get(&c) {
                    Some(&p) => p,
                    None => continue, // no cut edges materialised; skip
                },
                None => map[&src],
            };
            let to = match exit {
                Some(c) => match portals.get(&c) {
                    Some(&p) => p,
                    None => continue,
                },
                None => map[&dst],
            };
            if from == to {
                continue;
            }
            transit_keys.push((commodities.len(), key));
            commodities.push((from, to, amount));
        }
        LocalProblem { graph: lg, commodities, transit_keys, num_intra }
    }

    /// Solve; returns (intra admissions, per-key transit admissions,
    /// pivots).
    fn solve(
        &self,
        paths_per_commodity: usize,
        solver: &dyn LpSolver,
    ) -> Result<LocalSolveOutput, TeError> {
        if self.commodities.is_empty() {
            return Ok((Vec::new(), Vec::new(), 0));
        }
        // Commodities with no local path are skipped (admission 0).
        // The kept tunnels are moved out of `tunnels_all`, not cloned:
        // this runs once per cluster per R2 solve.
        let tunnels_all = build_tunnels(&self.graph, &self.commodities, paths_per_commodity);
        let mut kept: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut kept_idx: Vec<usize> = Vec::new();
        let mut kept_tunnels = Vec::with_capacity(tunnels_all.tunnels.len());
        for (i, t) in tunnels_all.tunnels.into_iter().enumerate() {
            if !t.is_empty() {
                kept.push(self.commodities[i]);
                kept_idx.push(i);
                kept_tunnels.push(t);
            }
        }
        if kept.is_empty() {
            return Ok((vec![0.0; self.num_intra], Vec::new(), 0));
        }
        let tunnels = TunnelSet { tunnels: kept_tunnels };
        let sol = solve_mcf_with_tunnels(&self.graph, &kept, &tunnels, solver, Instant::now())?;
        // Scatter admissions back to original commodity indexes.
        let mut adm = vec![0.0; self.commodities.len()];
        for (ki, &i) in kept_idx.iter().enumerate() {
            adm[i] = sol.per_commodity[ki];
        }
        let intra_adm = adm[..self.num_intra].to_vec();
        let transit_adm = self
            .transit_keys
            .iter()
            .map(|&(idx, key)| (key, adm[idx]))
            .collect();
        Ok((intra_adm, transit_adm, sol.lp_iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcf::solve_mcf;
    use netrepro_graph::gen::{waxman, TopologySpec};
    use netrepro_graph::traffic;
    use netrepro_lp::revised::RevisedSimplex;

    fn instance(nodes: usize, seed: u64, commodities: usize) -> TeInstance {
        let graph = waxman(&TopologySpec::new("t", nodes, seed));
        let tm = traffic::gravity(&graph, nodes as f64 * 40.0, seed + 1);
        TeInstance {
            name: "t".into(),
            graph,
            tm,
            paths_per_commodity: 4,
            max_commodities: commodities,
        }
    }

    #[test]
    fn ncflow_never_exceeds_flat_lp() {
        let inst = instance(24, 3, 20);
        let flat = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let cfg = NcFlowConfig { num_clusters: 4, paths_per_commodity: 4, parallel_r2: false };
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        assert!(
            ncf.total_flow <= flat.total_flow + 1e-4,
            "ncflow {} > flat {}",
            ncf.total_flow,
            flat.total_flow
        );
    }

    #[test]
    fn ncflow_achieves_reasonable_fraction() {
        let inst = instance(24, 3, 20);
        let flat = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        let cfg = NcFlowConfig { num_clusters: 4, paths_per_commodity: 4, parallel_r2: false };
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        assert!(
            ncf.total_flow >= 0.5 * flat.total_flow,
            "ncflow {} too far below flat {}",
            ncf.total_flow,
            flat.total_flow
        );
    }

    #[test]
    fn parallel_and_serial_r2_agree() {
        let inst = instance(20, 5, 15);
        let base = NcFlowConfig { num_clusters: 4, paths_per_commodity: 3, parallel_r2: false };
        let par = NcFlowConfig { parallel_r2: true, ..base.clone() };
        let a = solve_ncflow(&inst, &base, &RevisedSimplex::default()).unwrap();
        let b = solve_ncflow(&inst, &par, &RevisedSimplex::default()).unwrap();
        assert!((a.total_flow - b.total_flow).abs() < 1e-6);
    }

    #[test]
    fn single_cluster_degenerates_to_flat() {
        let inst = instance(12, 7, 10);
        let cfg = NcFlowConfig { num_clusters: 1, paths_per_commodity: 4, parallel_r2: false };
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        let flat = solve_mcf(&inst, &RevisedSimplex::default()).unwrap();
        // With one cluster everything is intra: identical formulations.
        assert!((ncf.total_flow - flat.total_flow).abs() < 1e-5);
    }

    #[test]
    fn intra_only_traffic() {
        // All demand between neighbours: heavy intra component.
        let graph = netrepro_graph::gen::ring(8, 10.0);
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(NodeId(0), NodeId(1), 5.0);
        tm.set(NodeId(4), NodeId(5), 5.0);
        let inst = TeInstance { name: "r".into(), graph, tm, paths_per_commodity: 2, max_commodities: 10 };
        let cfg = NcFlowConfig { num_clusters: 2, paths_per_commodity: 2, parallel_r2: false };
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        assert!(ncf.total_flow >= 9.9, "got {}", ncf.total_flow);
    }

    #[test]
    fn reports_phase_timings() {
        let inst = instance(16, 9, 10);
        let cfg = NcFlowConfig::for_instance(&inst);
        let ncf = solve_ncflow(&inst, &cfg, &RevisedSimplex::default()).unwrap();
        assert!(ncf.num_clusters >= 2);
        assert!(ncf.solve_time >= ncf.r1_time);
    }
}
