//! Performance gates: the invariants the memoized sweep and the LP
//! kernels must keep, with their floors.
//!
//! The pivot-path pins hold every LP caller's pivot count and objective
//! bits fixed: `solve_mcf` and NCFlow on each `lp_scale` rung, and both
//! ARROW formulations on Table B's instances. No sweep cell reaches the
//! LP, so the sweep goldens cannot catch a change to its pivot path.
//!
//! The tunnel gate holds `build_tunnels` to the reference Yen's output
//! on the 100× rung and to a speed-up floor over it.
//!
//! The DPV class gate holds `verify_destinations` (verification by
//! forwarding class) to the per-destination fixpoint's verdicts on the
//! churned k=16 fabric and to a speed-up floor over it.
//!
//! The warm-memo count gate is exact and runs with every `cargo test`.
//! The timing gates are `#[ignore]`d because they need an optimized
//! build and a quiet host; run them with
//!
//! ```text
//! cargo test --release --test perf_gates -- --include-ignored --test-threads=1
//! ```

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netrepro::core::cache::CellMemo;
use netrepro::core::fault::FaultProfile;
use netrepro::core::harness::{GateFn, MemoryJournal, Sweep, SweepConfig, TaskLimits, TopoScale};
use netrepro::core::paper::TargetSystem;
use netrepro::core::prompt::PromptStyle;
use netrepro::core::validate::{lp_scale_instance, lp_scale_specs, te_instance};
use netrepro::dpv::fabric::{build, FabricSpec};
use netrepro::dpv::scale::{verify_destinations, verify_per_destination, ScaleOpts};
use netrepro::graph::gen::TopologySpec;
use netrepro::graph::paths::Path;
use netrepro::graph::{DiGraph, EdgeId, NodeId};
use netrepro::lp::dense::DenseSimplex;
use netrepro::lp::revised::RevisedSimplex;
use netrepro::lp::{LpError, LpSolver, Problem, Solution};
use netrepro::te::arrow::{multi_fiber_scenarios, solve_arrow, ArrowInstance, ArrowVariant};
use netrepro::te::mcf::{build_tunnels, solve_mcf};
use netrepro::te::ncflow::{solve_ncflow, NcFlowConfig};

#[path = "../crates/graph/tests/support/yen_reference.rs"]
mod yen_reference;

/// Warm/cold sweep speedup floor at every worker count.
const WARM_SPEEDUP_FLOOR: f64 = 1.5;
/// Dense/revised solve-time floor on the 10× `lp_scale` rung: the
/// sparse-LU kernel must keep the fast-vs-slow solver gap wide open.
const LP_SCALE_FLOOR: f64 = 5.0;
/// Reference-Yen/`build_tunnels` time floor on the 100× `lp_scale`
/// rung: one reverse tree per destination must keep the tunnels well
/// ahead of a fresh unbounded Dijkstra per search (10–14× measured on a
/// 2-vCPU host, release build).
const TUNNEL_FLOOR: f64 = 4.0;
/// Per-destination/class verification time floor on the churned k=16
/// fabric: one pass per edge block must stay well ahead of one BDD
/// fixpoint per destination (17–27× measured on a 2-vCPU host, release
/// build).
const DPV_CLASS_FLOOR: f64 = 4.0;
/// Relative objective agreement between the two LP solvers.
const OBJECTIVE_TOL: f64 = 1e-6;

/// The 112-cell quick matrix: two systems, one style, 28 seeds, a clean
/// and a faulty profile.
fn quick_config() -> SweepConfig {
    SweepConfig {
        systems: vec![TargetSystem::RockPaperScissors, TargetSystem::ApVerifier],
        styles: vec![PromptStyle::ModularText],
        seeds: (0..28).collect(),
        profiles: vec![FaultProfile::None, FaultProfile::Heavy],
        scales: vec![TopoScale::Paper],
        limits: TaskLimits::default(),
    }
}

/// One pass over the quick matrix, with the analysis static gate, through
/// `memo`; returns its journal and wall time.
fn pass(workers: usize, memo: &Arc<CellMemo>) -> (String, Duration) {
    let gate: GateFn = Box::new(|spec, arts| {
        let (report, _) = netrepro::analysis::gate::gate_artifacts(spec, arts);
        netrepro::analysis::gate::static_gate(&report)
    });
    let sweep = Sweep::new(quick_config())
        .with_workers(workers)
        .with_gate(gate)
        .with_cache(Arc::clone(memo));
    let mut sink = MemoryJournal::new();
    let t0 = Instant::now();
    sweep.run(&mut sink).expect("quick matrix sweeps");
    (sink.text().to_string(), t0.elapsed())
}

#[test]
fn warm_memo_pass_misses_nothing_and_journals_identically() {
    assert_eq!(quick_config().total_cells(), 112);
    for workers in [1, 4] {
        let memo = CellMemo::shared();
        let (cold, _) = pass(workers, &memo);
        let after_cold = memo.work_stats();
        let (warm, _) = pass(workers, &memo);
        let after_warm = memo.work_stats();
        assert_eq!(after_warm.misses, after_cold.misses, "workers={workers}: warm pass missed");
        assert!(after_warm.hits > after_cold.hits, "workers={workers}: warm pass never hit");
        assert_eq!(warm, cold, "workers={workers}: warm journal differs from cold");
    }
}

#[test]
#[ignore = "timing gate: run with --release --include-ignored --test-threads=1"]
fn warm_memo_pass_is_faster_than_cold() {
    for workers in [1, 4] {
        let memo = CellMemo::shared();
        let (_, cold) = pass(workers, &memo);
        // A warm pass takes microseconds per cell, so one timing is
        // mostly scheduler noise: take the best of three.
        let warm = (0..3).map(|_| pass(workers, &memo).1).min().expect("three passes");
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        assert!(
            speedup >= WARM_SPEEDUP_FLOOR,
            "workers={workers}: warm/cold speedup {speedup:.2}x below the \
             {WARM_SPEEDUP_FLOOR}x floor (cold {cold:?}, best warm {warm:?})"
        );
    }
}

#[test]
#[ignore = "slow in debug builds: run with --release --include-ignored --test-threads=1"]
fn lp_scale_solvers_agree_and_revised_clears_the_floor() {
    let mut checked_floor = false;
    for spec in lp_scale_specs().into_iter().filter(|s| s.run_dense) {
        let inst = lp_scale_instance(&spec);
        let t0 = Instant::now();
        let revised = solve_mcf(&inst, &RevisedSimplex::default()).expect("revised solves");
        let revised_secs = t0.elapsed().as_secs_f64().max(1e-9);
        let t1 = Instant::now();
        let dense = solve_mcf(&inst, &DenseSimplex::default()).expect("dense solves");
        let dense_secs = t1.elapsed().as_secs_f64();
        let rel = (dense.total_flow - revised.total_flow).abs() / revised.total_flow.abs().max(1.0);
        assert!(
            rel <= OBJECTIVE_TOL,
            "lp_scale {}: revised {} and dense {} objectives diverged",
            spec.label,
            revised.total_flow,
            dense.total_flow
        );
        if spec.label == "10x" {
            let ratio = dense_secs / revised_secs;
            assert!(
                ratio >= LP_SCALE_FLOOR,
                "lp_scale 10x: dense/revised {ratio:.1}x below the {LP_SCALE_FLOOR}x floor"
            );
            checked_floor = true;
        }
    }
    assert!(checked_floor, "the 10x rung must run both solvers");
}

/// `RevisedSimplex::default()` that sums the pivots of every LP it
/// solves.
struct CountingSimplex {
    inner: RevisedSimplex,
    pivots: Cell<u64>,
}

impl LpSolver for CountingSimplex {
    fn solve(&self, problem: &Problem) -> Result<Solution, LpError> {
        let sol = self.inner.solve(problem)?;
        self.pivots.set(self.pivots.get() + sol.iterations);
        Ok(sol)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[test]
#[ignore = "timing gate: run with --release --include-ignored --test-threads=1"]
fn dpv_class_verification_matches_the_fixpoint_and_clears_the_floor() {
    let fabric = build(&FabricSpec { k: 16, seed: 2023, link_down: 6, with_hosts: true });
    let dests: Vec<_> = (0..fabric.num_dests()).map(|i| fabric.dest(i)).collect();
    let opts = ScaleOpts::default();
    // Best of three of each, serially: the class pass takes
    // milliseconds, so one timing is mostly scheduler noise.
    let best_of_three = |verify: &dyn Fn() -> Vec<_>| {
        let mut best = Duration::MAX;
        let mut out = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            out = verify();
            best = best.min(t0.elapsed());
        }
        (out, best)
    };
    let (reference, per_dest) = best_of_three(&|| {
        verify_per_destination(&fabric.network, &dests, &opts).expect("per-destination")
    });
    let (classes, by_class) = best_of_three(&|| {
        verify_destinations(&fabric.network, &dests, &opts).expect("by class")
    });
    assert_eq!(classes, reference, "k=16 churn 6: class verdicts differ from the fixpoint's");
    let speedup = per_dest.as_secs_f64() / by_class.as_secs_f64().max(1e-9);
    assert!(
        speedup >= DPV_CLASS_FLOOR,
        "k=16 churn 6: per-destination/class {speedup:.1}x below the {DPV_CLASS_FLOOR}x floor \
         (per-destination {per_dest:?}, by class {by_class:?})"
    );
}

#[test]
#[ignore = "timing gate: run with --release --include-ignored --test-threads=1"]
fn lp_scale_100x_tunnels_match_reference_and_clear_the_floor() {
    let spec = lp_scale_specs()
        .into_iter()
        .find(|s| s.label == "100x")
        .expect("rung exists");
    let inst = lp_scale_instance(&spec);
    let commodities = inst.commodities();
    let key = |ps: &[Path]| -> Vec<(Vec<EdgeId>, u64)> {
        ps.iter().map(|p| (p.edges.clone(), p.cost.to_bits())).collect()
    };
    // Best of three of each: one timing is tens of milliseconds and
    // mostly at the mercy of the scheduler.
    let mut reference = Vec::new();
    let mut best_reference = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        reference = commodities
            .iter()
            .map(|&(s, d, _)| yen_reference::k_shortest_paths(&inst.graph, s, d, spec.paths))
            .collect::<Vec<_>>();
        best_reference = best_reference.min(t0.elapsed());
    }
    let mut tunnels = Vec::new();
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let t0 = Instant::now();
        tunnels = build_tunnels(&inst.graph, &commodities, spec.paths).tunnels;
        best = best.min(t0.elapsed());
    }
    assert_eq!(tunnels.len(), reference.len());
    for (i, (got, want)) in tunnels.iter().zip(&reference).enumerate() {
        assert_eq!(key(got), key(want), "lp_scale 100x: commodity {i} tunnels differ");
    }
    let speedup = best_reference.as_secs_f64() / best.as_secs_f64().max(1e-9);
    assert!(
        speedup >= TUNNEL_FLOOR,
        "lp_scale 100x: reference/build_tunnels {speedup:.1}x below the {TUNNEL_FLOOR}x floor \
         (reference {best_reference:?}, build_tunnels {best:?})"
    );
}

/// Solve one `lp_scale` rung's MCF and check its pivot count and the
/// bits of its objective. Pricing, ratio test and refactorization are
/// all deterministic, so any change to the pivot path, however
/// harmless numerically, shows up here.
fn assert_pivot_path(label: &str, pivots: u64, objective_bits: u64) {
    let spec = lp_scale_specs()
        .into_iter()
        .find(|s| s.label == label)
        .expect("rung exists");
    let solver = CountingSimplex { inner: RevisedSimplex::default(), pivots: Cell::new(0) };
    let sol = solve_mcf(&lp_scale_instance(&spec), &solver).expect("revised solves");
    assert_eq!(
        (solver.pivots.get(), sol.total_flow.to_bits()),
        (pivots, objective_bits),
        "lp_scale {label}: pivot path moved (objective {})",
        sol.total_flow
    );
}

#[test]
fn lp_scale_1x_pivot_path_is_pinned() {
    assert_pivot_path("1x", 54, 0x4065_2868_a0e4_0511);
}

#[test]
fn lp_scale_10x_pivot_path_is_pinned() {
    assert_pivot_path("10x", 552, 0x407d_0e73_649e_5297);
}

#[test]
#[ignore = "slow in debug builds: run with --release --include-ignored --test-threads=1"]
fn lp_scale_100x_pivot_path_is_pinned() {
    assert_pivot_path("100x", 4383, 0x409d_018d_1abb_eaae);
}

/// Solve one `lp_scale` rung with NCFlow (its default configuration)
/// and check the summed pivots of its R1 and R2 LPs and the bits of its
/// total flow.
fn assert_ncflow_path(label: &str, pivots: u64, objective_bits: u64) {
    let spec = lp_scale_specs()
        .into_iter()
        .find(|s| s.label == label)
        .expect("rung exists");
    let inst = lp_scale_instance(&spec);
    let sol = solve_ncflow(&inst, &NcFlowConfig::for_instance(&inst), &RevisedSimplex::default())
        .expect("ncflow solves");
    assert_eq!(
        (sol.lp_iterations, sol.total_flow.to_bits()),
        (pivots, objective_bits),
        "ncflow {label}: pivot path moved (objective {})",
        sol.total_flow
    );
}

#[test]
fn ncflow_1x_pivot_path_is_pinned() {
    assert_ncflow_path("1x", 88, 0x4065_2868_a0e4_0511);
}

#[test]
fn ncflow_10x_pivot_path_is_pinned() {
    assert_ncflow_path("10x", 637, 0x407d_0e73_649e_5296);
}

#[test]
#[ignore = "slow in debug builds: run with --release --include-ignored --test-threads=1"]
fn ncflow_100x_pivot_path_is_pinned() {
    assert_ncflow_path("100x", 2159, 0x4098_7d00_bd44_d5ea);
}

/// Table B's ARROW instance `index` (0-based), built as the
/// `table_b_arrow` bin builds it: demand scaled 4× so restoration
/// binds, three 3-fiber cut scenarios, half the lost capacity
/// restorable.
fn table_b_arrow_instance(index: usize) -> ArrowInstance {
    let spec = match index {
        0 => TopologySpec::new("OpticalA", 16, 2023 + 100),
        _ => TopologySpec::new("OpticalB", 24, 2023 + 101),
    };
    let mut te = te_instance(&spec, 10, 3);
    te.tm.scale(4.0);
    let scenarios = multi_fiber_scenarios(&te, 3, 3);
    ArrowInstance { te, scenarios, restoration_fraction: 0.5 }
}

/// Solve Table B's ARROW instance `index` in both formulations and
/// check each one's pivots and committed-bandwidth bits.
fn assert_arrow_paths(index: usize, open: (u64, u64), faithful: (u64, u64)) {
    let inst = table_b_arrow_instance(index);
    for (variant, want) in [(ArrowVariant::OpenSource, open), (ArrowVariant::Faithful, faithful)] {
        let sol = solve_arrow(&inst, variant, &RevisedSimplex::default()).expect("arrow solves");
        assert_eq!(
            (sol.lp_iterations, sol.committed.to_bits()),
            want,
            "arrow instance {} {variant:?}: pivot path moved (committed {})",
            index + 1,
            sol.committed
        );
    }
}

#[test]
fn arrow_instance_1_pivot_paths_are_pinned() {
    assert_arrow_paths(0, (276, 0x4085_ab60_d67a_69c8), (258, 0x4085_ab60_d67a_69c8));
}

#[test]
fn arrow_instance_2_pivot_paths_are_pinned() {
    assert_arrow_paths(1, (362, 0x4079_e0a7_b790_049b), (332, 0x4079_e0a7_b790_049a));
}
