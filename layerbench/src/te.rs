//! `te-lp100`: the `lp_scale` 100× traffic-engineering instance (80
//! nodes, 1,600 commodities, 4 tunnels each), solved first as one flat
//! MCF with the revised simplex, then by NCFlow with √N clusters and R2
//! solved serially. The two stress the LP differently — one ~2,400-row
//! solve against many small ones — and the traced run splits them.

use crate::trace::{self, CheckedLp, Tracer};
use crate::{closed_loop, host, metric, stats, Layers, Report, SETUP_REPS};
use netrepro_core::validate::te_instance;
use netrepro_graph::gen::TopologySpec;
use netrepro_lp::standard::StandardLp;
use netrepro_lp::Status;
use netrepro_te::baseline::solve_greedy;
use netrepro_te::mcf::{build_tunnels, solve_mcf, TeInstance};
use netrepro_te::ncflow::{solve_ncflow, NcFlowConfig};
use std::time::Instant;

const NODES: usize = 80;
const COMMODITIES: usize = 1600;
const PATHS: usize = 4;
/// Relative slack on flow comparisons and feasibility.
const TOL: f64 = 1e-6;
/// Instances per run, solved round-robin; a 15 s run solves each about
/// twice. Solve time differs by about a tenth from one topology to the
/// next, less than one operation's run-to-run noise, so `latency_ms` is
/// the plain median over all operations.
const POOL: u64 = 8;

/// The 100× rung of `core::validate::lp_scale_specs`, with the
/// topology drawn from `seed` (2023 gives the committed rung exactly).
fn instance(seed: u64) -> TeInstance {
    te_instance(
        &TopologySpec::new("lpscale-100x", NODES, seed),
        COMMODITIES,
        PATHS,
    )
}

fn ncflow_config(inst: &TeInstance) -> NcFlowConfig {
    NcFlowConfig {
        parallel_r2: false,
        ..NcFlowConfig::for_instance(inst)
    }
}

/// One instance of the pool with its greedy flow and total demand.
struct Entry {
    inst: TeInstance,
    greedy: f64,
    demand: f64,
}

struct Ctx {
    dir: host::Scratch,
    /// Instances drawn from topology seeds `seed, seed + 1, …`.
    pool: Vec<Entry>,
}

fn setup(seed: u64) -> Result<Ctx, String> {
    let dir = host::Scratch::new("te")?;
    let seeds: Vec<u64> = (0..POOL).map(|j| seed.wrapping_add(j)).collect();
    let pool = host::par_map(&seeds, |&s| {
        let inst = instance(s);
        let greedy = solve_greedy(&inst).total_flow;
        let demand = inst.commodities().iter().map(|c| c.2).sum();
        Entry {
            inst,
            greedy,
            demand,
        }
    });
    Ok(Ctx { dir, pool })
}

/// Every captured LP solution is optimal and feasible for its problem.
fn solutions_ok(lp: &CheckedLp) -> bool {
    let solved = lp.take();
    !solved.is_empty()
        && solved
            .iter()
            .all(|(p, s)| s.status == Status::Optimal && p.is_feasible(&s.values, TOL * 1e3))
}

/// `lo <= hi` up to the relative tolerance.
fn at_most(lo: f64, hi: f64) -> bool {
    lo <= hi + TOL * hi.abs().max(1.0)
}

/// Record one operation's flows on disk, as the CLI's `te` output would.
fn write_flows(ctx: &Ctx, i: u64, mcf: f64, ncflow: f64) -> Result<(), String> {
    let path = ctx.dir.path().join(format!("solve-{i}.json"));
    let json = format!("{{\"op\": {i}, \"mcf_flow\": {mcf}, \"ncflow_flow\": {ncflow}}}\n");
    std::fs::write(path, json).map_err(|e| e.to_string())
}

fn mcf_once(inst: &TeInstance, lp: &CheckedLp) -> Result<f64, String> {
    solve_mcf(inst, lp)
        .map(|s| s.total_flow)
        .map_err(|e| e.to_string())
}

fn ncflow_once(inst: &TeInstance, lp: &CheckedLp) -> Result<f64, String> {
    solve_ncflow(inst, &ncflow_config(inst), lp)
        .map(|s| s.total_flow)
        .map_err(|e| e.to_string())
}

/// The end-to-end run on `nproc` client threads, each solving one
/// instance at a time: one client per core keeps every core busy, as
/// the other workloads do (on a shared 2-vCPU host a lone thread's
/// speed drifts by a fifth from run to run; a loaded run repeats within
/// a few percent). Every captured LP solution must be optimal and feasible,
/// and on each instance greedy ≤ MCF, 0 < NCFlow ≤ MCF ≤ demand. Greedy
/// is no lower bound for NCFlow: on these uncongested instances greedy
/// and the MCF carry every demand while NCFlow carries two thirds to
/// nine tenths of it.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let t = closed_loop(
        seconds,
        SETUP_REPS,
        1,
        host::nproc(),
        || setup(seed),
        |ctx, i| {
            let e = &ctx.pool[(i % POOL) as usize];
            let lp = CheckedLp::new(None);
            let mcf = mcf_once(&e.inst, &lp)?;
            let ncflow = ncflow_once(&e.inst, &lp)?;
            write_flows(ctx, i, mcf, ncflow)?;
            Ok((i % POOL, mcf, ncflow, lp))
        },
        |ctx, (j, mcf, ncflow, lp)| {
            let e = &ctx.pool[j as usize];
            solutions_ok(&lp)
                && at_most(e.greedy, mcf)
                && ncflow > 0.0
                && at_most(ncflow, mcf)
                && at_most(mcf, e.demand)
        },
    )?;
    Ok(Report::from_timed(&t, params(seed)))
}

fn params(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("te.nodes", NODES.to_string()),
        ("te.commodities", COMMODITIES.to_string()),
        ("te.paths", PATHS.to_string()),
        ("te.topology_seeds", format!("{seed} .. {seed} + {POOL}")),
        ("te.ncflow_r2", "serial".into()),
    ]
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median ms of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            ms_since(start)
        })
        .collect();
    stats::median(&v)
}

/// Plain/traced pairs in the traced round: one pair of 1.7 s solves is
/// within a shared host's run-to-run noise of the tracing overhead.
const TRACE_REPS: u64 = 3;

/// The traced round: alternating plain and traced solves of each shape,
/// and direct calls to tunnels, presolve, standardisation and
/// partitioning. Traced rep `r` stamps its MCF spans with request `2r`
/// and its NCFlow spans with `2r + 1`.
pub fn layers(seed: u64) -> Result<Layers, String> {
    let inst = instance(seed);
    let greedy = solve_greedy(&inst).total_flow;
    let tracer = Tracer::new();
    let mut checks = Vec::new();
    let (mut mcf_plain, mut ncf_plain, mut plain_ms, mut traced_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut problem = None;
    for rep in 0..TRACE_REPS {
        let plain = CheckedLp::new(None);
        let start = Instant::now();
        let mcf_flow = mcf_once(&inst, &plain)?;
        mcf_plain.push(ms_since(start));
        let start = Instant::now();
        let ncf_flow = ncflow_once(&inst, &plain)?;
        ncf_plain.push(ms_since(start));
        plain_ms.push(mcf_plain[mcf_plain.len() - 1] + ncf_plain[ncf_plain.len() - 1]);
        checks.extend([
            solutions_ok(&plain),
            at_most(greedy, mcf_flow),
            at_most(ncf_flow, mcf_flow),
        ]);

        let mcf_lp = CheckedLp::new(Some((tracer.clone(), 2 * rep)));
        let ncf_lp = CheckedLp::new(Some((tracer.clone(), 2 * rep + 1)));
        let start = Instant::now();
        let traced_flow = tracer.span("te.mcf", 2 * rep, || mcf_once(&inst, &mcf_lp))?;
        tracer.span("te.ncflow", 2 * rep + 1, || ncflow_once(&inst, &ncf_lp))?;
        traced_ms.push(ms_since(start));
        let mcf_solved = mcf_lp.take();
        checks.push(mcf_solved.len() == 1);
        checks.push((traced_flow - mcf_flow).abs() <= TOL * mcf_flow.abs().max(1.0));
        let ncf_solved = ncf_lp.take();
        checks.extend(
            mcf_solved
                .iter()
                .chain(&ncf_solved)
                .map(|(p, s)| s.status == Status::Optimal && p.is_feasible(&s.values, TOL * 1e3)),
        );
        problem = mcf_solved.into_iter().next().map(|(p, _)| p);
    }
    let problem = problem.ok_or("the MCF made no LP call")?;

    let commodities = inst.commodities();
    let tunnels_ms = median_ms(3, || {
        std::hint::black_box(build_tunnels(&inst.graph, &commodities, PATHS));
    });
    let presolved =
        netrepro_lp::presolve::presolve(&problem).map_err(|s| format!("presolve: {s:?}"))?;
    let presolve_ms = median_ms(5, || {
        std::hint::black_box(netrepro_lp::presolve::presolve(&problem).ok());
    });
    let std_lp = StandardLp::from_problem(&presolved);
    let standardize_ms = median_ms(5, || {
        std::hint::black_box(StandardLp::from_problem(&presolved));
    });
    let clusters = ncflow_config(&inst).num_clusters;
    let partition_ms = median_ms(5, || {
        std::hint::black_box(netrepro_graph::partition::partition(&inst.graph, clusters));
    });

    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    // Per traced rep: self time of the `name` span, and the count,
    // summed ms and summed pivots of its LP calls.
    let per_rep = |name: &str, req: u64| -> (f64, f64, f64, f64) {
        let own = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && s.req == req)
            .map(|(_, &v)| v as f64 / 1e6)
            .sum();
        let lp = spans
            .iter()
            .filter(|s| s.name == "lp.solve" && s.req == req);
        let (n, ms, pivots) = lp.fold((0.0, 0.0, 0.0), |(n, d, a), s| {
            (n + 1.0, d + s.dur() as f64 / 1e6, a + s.amount as f64)
        });
        (own, n, ms, pivots)
    };
    let reps = |f: &dyn Fn(u64) -> f64| stats::median(&(0..TRACE_REPS).map(f).collect::<Vec<_>>());
    let solve_ms = reps(&|r| per_rep("te.mcf", 2 * r).2);
    let pivots = reps(&|r| per_rep("te.mcf", 2 * r).3);
    let metrics = vec![
        metric("paths.tunnels_ms", tunnels_ms, "ms"),
        // Self time of the MCF span: tunnels (timed alone as
        // `paths.tunnels_ms`), model building and solution recovery.
        metric("te.model_ms", reps(&|r| per_rep("te.mcf", 2 * r).0), "ms"),
        metric("lp.presolve_ms", presolve_ms, "ms"),
        metric("lp.standardize_ms", standardize_ms, "ms"),
        metric("lp.solve_ms", solve_ms, "ms"),
        metric("lp.pivots", pivots, "count"),
        metric("lp.us_per_pivot", solve_ms * 1e3 / pivots.max(1.0), "us"),
        metric("lp.rows", std_lp.m as f64, "count"),
        metric("lp.cols", std_lp.n() as f64, "count"),
        metric("te.mcf_ms", stats::median(&mcf_plain), "ms"),
        metric("te.ncflow_ms", stats::median(&ncf_plain), "ms"),
        metric("ncflow.partition_ms", partition_ms, "ms"),
        metric(
            "ncflow.lp_calls",
            reps(&|r| per_rep("te.ncflow", 2 * r + 1).1),
            "count",
        ),
        metric(
            "ncflow.lp_ms",
            reps(&|r| per_rep("te.ncflow", 2 * r + 1).2),
            "ms",
        ),
        metric(
            "ncflow.pivots",
            reps(&|r| per_rep("te.ncflow", 2 * r + 1).3),
            "count",
        ),
        metric(
            "ncflow.self_ms",
            reps(&|r| per_rep("te.ncflow", 2 * r + 1).0),
            "ms",
        ),
    ];
    let mut params = params(seed);
    params.push(("te.ncflow_clusters", clusters.to_string()));
    Ok(Layers {
        metrics,
        overhead: stats::median(&traced_ms) / stats::median(&plain_ms),
        attempted: checks.len() as u64,
        failed: checks.iter().filter(|ok| !**ok).count() as u64,
        spans,
        params,
    })
}
