//! Subcommand implementations.

use crate::args::{ArgError, Args};
use analysis::Severity;
use netrepro_bdd::EngineProfile;
use netrepro_core::cache::CellMemo;
use netrepro_core::diagnosis::{diagnose_dpv, diagnose_resilience, diagnose_te, RootCause};
use netrepro_core::fault::FaultOutcome;
use netrepro_core::framework::AutoEngineer;
use netrepro_core::harness::{self, JournalSink, Sweep, SweepConfig, SweepReport};
use netrepro_core::paper::TargetSystem;
use netrepro_core::prompt::PromptStyle;
use netrepro_core::student::Participant;
use netrepro_core::survey::{build_corpus, SurveyStats};
use netrepro_core::validate as val;
use netrepro_core::wal;
use netrepro_core::{FaultInjector, FaultPlan, ReproductionSession};
use netrepro_dpv::ap::ApVerifier;
use netrepro_dpv::dataset::{generate, DatasetOpts};
use netrepro_dpv::header::HeaderLayout;
use netrepro_dpv::reach::{blackholes, find_loops, selective_bfs};
use netrepro_graph::gen::{waxman, TopologySpec};
use netrepro_graph::{traffic, NodeId};
use netrepro_lp::dense::DenseSimplex;
use netrepro_lp::revised::RevisedSimplex;
use netrepro_lp::LpSolver;
use netrepro_te::arrow::{multi_fiber_scenarios, ArrowInstance};
use netrepro_te::mcf::{solve_mcf_with_objective, McfObjective, TeInstance};
use netrepro_te::ncflow::{solve_ncflow, NcFlowConfig};
use std::sync::Arc;

/// Top-level usage text.
pub const USAGE: &str = "netrepro — reproduce 'Toward Reproducing Network Research Results
Using Large Language Models' (HotNets 2023)

commands:
  report    [--dir results]                         summarise captured experiment JSON
  survey    [--seed N]                              Figure 1/2 statistics
  te        [--nodes N] [--seed N] [--commodities K] [--paths P]
            [--solver revised|dense] [--ncflow K] [--objective total|concurrent]
  dpv       [--nodes N] [--width W] [--faults F] [--seed N]
            [--check loops|blackholes|reach] [--src A --dst B]
  dpv-scale [--k K] [--seed N] [--churn L] [--queries Q] [--partitions P]
            [--workers W] [--node-cap N] [--check-serial] [--out FILE]
            partitioned parallel fat-tree verification (CI smoke: --check-serial)
  session   [--system ncflow|arrow|apkeep|ap|rps] [--seed N] [--auto]
            [--faults none|light|heavy|chaos]
  validate  [--participant a|b|c|d] [--seed N] [--faults none|light|heavy|chaos]
  analyze   [--system ncflow|arrow|apkeep|ap|rps] [--seed N] [--style mono|text|pseudo]
            [--stage raw|final] [--json] [--fail-on error|warning|never] [--self-check]
  sweep     [--systems CSV] [--styles CSV] [--seeds N] [--profiles CSV] [--scales CSV]
            [--journal PATH] [--resume PATH] [--deadline N] [--attempts N] [--breaker N]
            [--workers N] [--json] [--out FILE] [--halt-after K] [--throttle-ms MS]
            [--no-cache]
  rps       serve [--addr H:P] | play [--addr H:P] [--moves RPSR...]
  serve     [--addr H:P] [--dir DIR] [--workers N] [--queue-cap N] [--tenant-quota N]
            [--job-breaker N] [--quantum N] [--throttle-ms MS] [--no-cache]
  submit    [--addr H:P] [--tenant T] [--nonce N] [--wait] [--out FILE] [--clock N]
            [sweep matrix/limit flags | --spec TOKEN]
            | --status ID | --results ID | --cancel ID | --health | --drain
";

type CmdResult = Result<(), ArgError>;

/// `netrepro report` — summarise the JSON tables the bench binaries
/// wrote under `results/`.
pub fn report(a: &Args) -> CmdResult {
    let dir = a.get("dir").unwrap_or("results");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| ArgError(format!("cannot read {dir}: {e} (run the bench bins first)")))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(ArgError(format!("no JSON tables in {dir}; run the bench bins first")));
    }
    println!("{} captured experiment table(s) in {dir}:\n", entries.len());
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ArgError(format!("{}: {e}", path.display())))?;
        let table: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| ArgError(format!("{}: bad JSON: {e}", path.display())))?;
        let id = table["id"].as_str().unwrap_or("?");
        let caption = table["caption"].as_str().unwrap_or("");
        let rows = table["rows"].as_array().map(|r| r.len()).unwrap_or(0);
        println!("  {id:<22} {rows:>3} rows  — {caption}");
    }
    println!("\n(render any table with its generating bin, e.g. `cargo run -p netrepro-bench --bin table_a_ncflow`)");
    Ok(())
}

/// `netrepro survey`
pub fn survey(a: &Args) -> CmdResult {
    let seed: u64 = a.get_or("seed", 2023)?;
    let corpus = build_corpus(seed);
    let s = SurveyStats::compute(&corpus);
    println!("corpus: {} papers (SIGCOMM+NSDI 2013-2022, seed {seed})", corpus.len());
    println!(
        "open-source rates: SIGCOMM {:.1}%  NSDI {:.1}%  both {:.1}%",
        100.0 * s.sigcomm_rate,
        100.0 * s.nsdi_rate,
        100.0 * s.both_rate
    );
    println!(
        "comparisons: >=2 compared {:.1}%; manual >=1 {:.1}%; manual >=2 {:.1}%; \
         conditional mean {:.2}",
        100.0 * s.pct_ge2_compared,
        100.0 * s.pct_ge1_manual,
        100.0 * s.pct_ge2_manual,
        s.mean_manual_conditional
    );
    Ok(())
}

fn solver_from(a: &Args) -> Result<Box<dyn LpSolver + Sync>, ArgError> {
    match a.get("solver").unwrap_or("revised") {
        "revised" => Ok(Box::new(RevisedSimplex::default())),
        "dense" => Ok(Box::new(DenseSimplex::default())),
        other => Err(ArgError(format!("--solver must be revised|dense, got '{other}'"))),
    }
}

/// `netrepro te`
pub fn te(a: &Args) -> CmdResult {
    let nodes: usize = a.get_or("nodes", 24)?;
    let seed: u64 = a.get_or("seed", 2023)?;
    let commodities: usize = a.get_or("commodities", 20)?;
    let paths: usize = a.get_or("paths", 4)?;
    if paths == 0 {
        return Err(ArgError("--paths must be at least 1".into()));
    }
    let clusters: Option<usize> = if a.has("ncflow") { Some(a.get_or("ncflow", 4)?) } else { None };
    if clusters == Some(0) {
        return Err(ArgError("--ncflow must be at least 1".into()));
    }
    let solver = solver_from(a)?;

    let graph = waxman(&TopologySpec::new("cli", nodes, seed));
    let tm = traffic::gravity(&graph, nodes as f64 * 30.0, seed + 1);
    let inst = TeInstance {
        name: format!("cli-{nodes}"),
        graph,
        tm,
        paths_per_commodity: paths,
        max_commodities: commodities,
    };
    println!(
        "instance: {} nodes, {} edges, {} commodities, {} demand",
        inst.graph.num_nodes(),
        inst.graph.num_edges(),
        inst.commodities().len(),
        format_flow(inst.total_demand())
    );

    if let Some(k) = clusters {
        let cfg = NcFlowConfig { num_clusters: k, paths_per_commodity: paths, parallel_r2: true };
        let s = solve_ncflow(&inst, &cfg, solver.as_ref())
            .map_err(|e| ArgError(format!("ncflow: {e}")))?;
        println!(
            "NCFlow (k={}): flow {} in {:?} (R1 {:?}, R2 {:?}; {} pivots)",
            s.num_clusters,
            format_flow(s.total_flow),
            s.solve_time,
            s.r1_time,
            s.r2_time,
            s.lp_iterations
        );
        return Ok(());
    }

    let objective = match a.get("objective").unwrap_or("total") {
        "total" => McfObjective::TotalFlow,
        "concurrent" => McfObjective::MaxConcurrent,
        other => return Err(ArgError(format!("--objective must be total|concurrent, got '{other}'"))),
    };
    let s = solve_mcf_with_objective(&inst, objective, solver.as_ref())
        .map_err(|e| ArgError(format!("mcf: {e}")))?;
    match s.concurrency {
        Some(t) => println!(
            "max-concurrent flow: t = {t:.3}, total {} in {:?} ({} pivots)",
            format_flow(s.total_flow),
            s.solve_time,
            s.lp_iterations
        ),
        None => println!(
            "max total flow: {} in {:?} ({} pivots)",
            format_flow(s.total_flow),
            s.solve_time,
            s.lp_iterations
        ),
    }
    Ok(())
}

fn format_flow(f: f64) -> String {
    // An empty sum is -0.0; print every zero flow unsigned.
    let f = if f == 0.0 { 0.0 } else { f };
    format!("{f:.2} Gbps")
}

/// `netrepro dpv`
pub fn dpv(a: &Args) -> CmdResult {
    let nodes: usize = a.get_or("nodes", 16)?;
    let width: u32 = a.get_or("width", 14)?;
    let faults: f64 = a.get_or("faults", 0.0)?;
    let seed: u64 = a.get_or("seed", 2023)?;
    let graph = waxman(&TopologySpec::new("cli", nodes, seed));
    let ds = generate(
        graph,
        HeaderLayout::new(width),
        &DatasetOpts { prefixes_per_device: 1, fault_rate: faults, seed },
    );
    let v = ApVerifier::build(&ds.network, EngineProfile::Cached);
    println!(
        "dataset: {} devices, {} rules; {} atomic predicates",
        nodes,
        ds.network.num_rules(),
        v.num_atoms()
    );
    match a.get("check").unwrap_or("loops") {
        "loops" => {
            let loops = find_loops(&v, 16);
            println!("forwarding loops: {}", loops.len());
            for l in loops {
                println!("  via device {} carrying {} atom(s)", l.device.0, l.atoms.len());
            }
        }
        "blackholes" => {
            let src: u32 = a.get_or("src", 0)?;
            let bh = blackholes(&v, NodeId(src));
            println!("blackhole sites reachable from device {src}: {}", bh.len());
            for (d, atoms) in bh {
                println!("  device {} swallows {} atom(s)", d.0, atoms.len());
            }
        }
        "reach" => {
            let src: u32 = a.require("src")?;
            let dst: u32 = a.require("dst")?;
            if src as usize >= nodes || dst as usize >= nodes {
                return Err(ArgError("--src/--dst out of range".into()));
            }
            let r = selective_bfs(&v, NodeId(src), NodeId(dst));
            println!(
                "reachability {src} -> {dst}: {} atom(s) arrive, {} delivered",
                r.arrived.len(),
                r.delivered.len()
            );
        }
        other => return Err(ArgError(format!("--check must be loops|blackholes|reach, got '{other}'"))),
    }
    Ok(())
}

/// `netrepro dpv-scale` — partitioned parallel DPV over a seeded k-ary
/// fat-tree: build the fabric, verify the (sampled) destination set in
/// `--partitions` chunks on `--workers` pool threads, print the
/// canonical digest. `--check-serial` re-verifies serially and fails if
/// the merged verdict stream is not byte-identical — the CI smoke gate.
pub fn dpv_scale(a: &Args) -> CmdResult {
    let k: usize = a.get_or("k", 8)?;
    if !(4..=64).contains(&k) || !k.is_multiple_of(2) || !(k / 2).is_power_of_two() {
        return Err(ArgError(format!(
            "--k must be even with k/2 a power of two (4, 8, 16, 32, 64), got {k}"
        )));
    }
    let spec = netrepro_core::dpv_scale::DpvScaleSpec {
        k,
        seed: a.get_or("seed", 2023)?,
        link_down: a.get_or("churn", 0)?,
        queries: match a.get("queries") {
            Some(_) => Some(a.require("queries")?),
            None => None,
        },
        partitions: a.get_or("partitions", 4)?,
        workers: a.get_or("workers", 4)?,
        node_cap: match a.get("node-cap") {
            Some(_) => Some(a.require("node-cap")?),
            None => None,
        },
    };
    let report = netrepro_core::dpv_scale::run_spec(&spec)
        .map_err(|e| ArgError(format!("dpv-scale: {e}")))?;
    println!(
        "fabric: k={} → {} devices; {} destination(s) verified in {} partition(s) on {} worker(s)",
        spec.k, report.devices, report.queried, spec.partitions, spec.workers
    );
    let (mut full, mut bh, mut loops) = (0u64, 0u64, 0u64);
    for v in &report.verdicts {
        full += u64::from(v.none == 0 && v.partial == 0);
        bh += u64::from(v.bh_devices > 0 || v.bh_local > 0);
        loops += u64::from(!v.loop_devices.is_empty());
    }
    println!(
        "verdicts: {full} fully reachable, {bh} with blackholes, {loops} with loops; digest {:016x}",
        report.digest
    );
    if a.has("check-serial") {
        let serial = netrepro_core::dpv_scale::run_spec(&netrepro_core::dpv_scale::DpvScaleSpec {
            partitions: 1,
            workers: 1,
            ..spec
        })
        .map_err(|e| ArgError(format!("dpv-scale serial check: {e}")))?;
        if serial.rendered != report.rendered {
            return Err(ArgError(format!(
                "partitioned verdicts diverge from serial: {:016x} != {:016x}",
                report.digest, serial.digest
            )));
        }
        println!(
            "serial check: byte-identical at P={} W={} vs P=1 W=1",
            spec.partitions, spec.workers
        );
    }
    if let Some(path) = a.get("out") {
        let json = format!(
            "{{\"k\": {}, \"devices\": {}, \"queried\": {}, \"partitions\": {}, \
             \"workers\": {}, \"link_down\": {}, \"digest\": \"{:016x}\", \
             \"full\": {full}, \"blackholed\": {bh}, \"looping\": {loops}}}\n",
            spec.k, report.devices, report.queried, spec.partitions, spec.workers,
            spec.link_down, report.digest
        );
        std::fs::write(path, json).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Build a fault injector from `--faults <profile>` (disabled when the
/// flag is absent). The plan is seeded independently of the workload
/// seed so `--seed` sweeps keep the same fault schedule.
fn faults_from(a: &Args, seed: u64) -> Result<FaultInjector, ArgError> {
    match a.get("faults") {
        Some(spec) => Ok(FaultPlan::parse(spec, seed).map_err(ArgError)?.injector()),
        None => Ok(FaultInjector::disabled()),
    }
}

/// Print the resilience ledger after a fault-injected run: headline
/// counters, the per-site breakdown, the deterministic trace, and the
/// trust diagnosis.
fn print_resilience(faults: &FaultInjector) {
    if !faults.enabled() {
        return;
    }
    let r = faults.report();
    println!(
        "faults ({} profile, seed {}): {} injected, {} absorbed, {} escaped ({:.0}% absorption)",
        r.profile,
        r.seed,
        r.injected,
        r.absorbed,
        r.escaped,
        100.0 * r.absorption_rate()
    );
    for s in &r.by_site {
        if s.injected > 0 {
            println!(
                "  {:<12} {:>3} injected  {:>3} absorbed  {:>3} escaped",
                s.site, s.injected, s.absorbed, s.escaped
            );
        }
    }
    let trace: Vec<String> = r
        .trace
        .iter()
        .map(|e| {
            let mark = match e.outcome {
                FaultOutcome::Absorbed => "+",
                FaultOutcome::Escaped => "!",
            };
            format!("{}{}@{}", mark, e.kind.name(), e.site.name())
        })
        .collect();
    if !trace.is_empty() {
        println!("fault trace: {}", trace.join(" "));
    }
    let d = diagnose_resilience(&r);
    println!("resilience diagnosis: {:?} — {}", d.cause, d.evidence);
}

fn system_from(a: &Args) -> Result<TargetSystem, ArgError> {
    let spec = a.get("system").unwrap_or("ncflow");
    TargetSystem::parse(spec).ok_or_else(|| {
        ArgError(format!("--system must be ncflow|arrow|apkeep|ap|rps, got '{spec}'"))
    })
}

/// `netrepro session`
pub fn session(a: &Args) -> CmdResult {
    let system = system_from(a)?;
    let seed: u64 = a.get_or("seed", 2023)?;
    let mut faults = faults_from(a, seed)?;
    if a.has("auto") {
        let attempts = AutoEngineer::default().run_with_faults(system, seed, &mut faults);
        for (i, at) in attempts.iter().enumerate() {
            println!(
                "attempt {} ({:?}): {} prompts, {} words, {} LoC, accepted={}",
                i + 1,
                at.style,
                at.report.total_prompts(),
                at.report.total_words(),
                at.report.artifact.loc,
                at.accepted
            );
        }
        print_resilience(&faults);
        return Ok(());
    }
    let r = ReproductionSession::new(Participant::preset(system), seed).run_with_faults(&mut faults);
    println!(
        "participant {} reproducing {}: {} prompts, {} words",
        r.participant,
        system.name(),
        r.total_prompts(),
        r.total_words()
    );
    println!(
        "artifact: {} LoC across {} components ({}% of the open-source prototype)",
        r.artifact.loc,
        r.artifact.components,
        (100.0 * r.artifact.loc_ratio()).round()
    );
    println!("residual defects: {:?}", r.residual_defects);
    let spec = netrepro_core::paper::PaperSpec::for_system(system);
    let (report, d) = analysis::gate::gate_artifacts(&spec, &r.component_artifacts);
    println!("static audit: {}", report.summary_line());
    println!("static diagnosis: {:?} — {}", d.cause, d.evidence);
    print_resilience(&faults);
    // Exit non-zero on rejection, matching `analyze`: a failure verdict
    // with exit 0 reads as success to any script driving the CLI.
    if d.cause == RootCause::StaticallyRejected {
        return Err(ArgError(
            "session rejected: static gate found error-severity defects".into(),
        ));
    }
    if faults.enabled() {
        let escaped = faults.report().escaped;
        if escaped > 0 {
            return Err(ArgError(format!(
                "session rejected: {escaped} injected fault(s) escaped"
            )));
        }
    }
    Ok(())
}

/// `netrepro validate`
pub fn validate(a: &Args) -> CmdResult {
    let seed: u64 = a.get_or("seed", 2023)?;
    let mut faults = faults_from(a, seed)?;
    match a.get("participant").unwrap_or("a") {
        "a" => {
            let inst = val::te_instance(&TopologySpec::new("CRL", 33, seed), 100, 4);
            let v = val::validate_ncflow_with_faults(&inst, &mut faults)
                .map_err(|e| ArgError(e.to_string()))?;
            let d = diagnose_te(&v);
            println!(
                "NCFlow on {}: obj diff {:.3}%, latency {:?} vs {:?} ({:.1}x)",
                v.instance,
                v.obj_diff_pct(),
                v.latency_open,
                v.latency_repro,
                v.latency_ratio()
            );
            println!("diagnosis: {:?} — {}", d.cause, d.evidence);
        }
        "b" => {
            let mut te = val::te_instance(&TopologySpec::new("OpticalA", 16, seed + 100), 10, 3);
            te.tm.scale(4.0);
            let scenarios = multi_fiber_scenarios(&te, 3, 3);
            let inst = ArrowInstance { te, scenarios, restoration_fraction: 0.5 };
            let v = val::validate_arrow_with_faults(&inst, &mut faults)
                .map_err(|e| ArgError(e.to_string()))?;
            let d = diagnose_te(&v);
            println!(
                "ARROW on {}: committed {} (open) vs {} (faithful), diff {:.1}%",
                v.instance,
                format_flow(v.obj_open),
                format_flow(v.obj_repro),
                v.obj_diff_pct()
            );
            println!("diagnosis: {:?} — {}", d.cause, d.evidence);
        }
        "c" => {
            let ds = val::dpv_dataset("Internet2", 9, 12, seed);
            let v = val::validate_apkeep_with_faults(&ds, "Internet2", &mut faults);
            let d = diagnose_dpv(&v);
            println!(
                "APKeep on {}: atoms {} vs {} (equal={})",
                v.dataset, v.atoms_open, v.atoms_repro, v.results_equal
            );
            println!("diagnosis: {:?} — {}", d.cause, d.evidence);
        }
        "d" => {
            let ds = val::dpv_dataset("Purdue", 18, 14, seed);
            let queries = netrepro_graph::gen::sample_pairs(&ds.network.graph, 5, seed + 7);
            let v = val::validate_ap_with_faults(&ds, "Purdue", &queries, 100_000, &mut faults);
            let d = diagnose_dpv(&v);
            println!(
                "AP on {}: atoms {} vs {}; pred {:.1}x; verify {:.0}x (equal={})",
                v.dataset,
                v.atoms_open,
                v.atoms_repro,
                v.pred_ratio(),
                v.verify_ratio(),
                v.results_equal
            );
            println!("diagnosis: {:?} — {}", d.cause, d.evidence);
        }
        other => {
            return Err(ArgError(format!("--participant must be a|b|c|d, got '{other}'")))
        }
    }
    print_resilience(&faults);
    Ok(())
}

/// `netrepro analyze` — the Tier A static auditor on generated
/// artifacts: detect the §3.3 defect taxonomy without executing
/// anything. `--stage raw` audits what the LLM first produced,
/// `--stage final` audits what the session shipped after debugging.
/// Exit is non-zero when findings reach `--fail-on` (default: error).
/// `--effects` instead runs the workspace determinism analyzer (the
/// same engine as `repolint --effects`) on `--root` (default `.`).
pub fn analyze(a: &Args) -> CmdResult {
    if a.has("effects") {
        let root = std::path::PathBuf::from(a.get("root").unwrap_or("."));
        let report =
            analysis::effects::analyze(&root, &analysis::effects::EffectConfig::workspace_default())
                .map_err(|e| ArgError(format!("effects scan failed: {e}")))?;
        if a.has("json") {
            print!("{}", report.render_json());
        } else {
            print!("{}", report.render_text());
        }
        let findings = report.findings();
        let n = findings.count_at_least(Severity::Warning);
        if n > 0 {
            if !a.has("json") {
                print!("{}", findings.render_text());
            }
            return Err(ArgError(format!("{n} effect finding(s)")));
        }
        return Ok(());
    }
    if a.has("self-check") {
        let stats = analysis::selfcheck::self_check(8).map_err(ArgError)?;
        println!(
            "analyze self-check passed: {} artifact audits across all systems/styles, \
             {} latent defects all detected statically, zero false positives",
            stats.artifacts, stats.defects
        );
        return Ok(());
    }
    let system = system_from(a)?;
    let seed: u64 = a.get_or("seed", 2023)?;
    let stage = a.get("stage").unwrap_or("raw");
    let style_spec = a.get("style").unwrap_or("text");
    let style = PromptStyle::parse(style_spec).ok_or_else(|| {
        ArgError(format!("--style must be mono|text|pseudo, got '{style_spec}'"))
    })?;
    let spec = netrepro_core::paper::PaperSpec::for_system(system);
    let artifacts = match stage {
        "raw" => {
            let mut llm = netrepro_core::llm::SimulatedLlm::new(seed);
            spec.components
                .iter()
                .enumerate()
                .map(|(i, c)| llm.implement(c, i, style))
                .collect::<Vec<_>>()
        }
        "final" => {
            ReproductionSession::new(Participant::preset(system), seed).run().component_artifacts
        }
        other => return Err(ArgError(format!("--stage must be raw|final, got '{other}'"))),
    };
    let (report, diagnosis) = analysis::gate::gate_artifacts(&spec, &artifacts);
    if a.has("json") {
        println!("{}", report.render_json());
    } else {
        println!(
            "static audit: {} ({} component artifact(s), stage {stage}, seed {seed})",
            system.name(),
            artifacts.len()
        );
        print!("{}", report.render_text());
        println!("diagnosis: {:?} — {}", diagnosis.cause, diagnosis.evidence);
    }
    let fail_on = a.get("fail-on").unwrap_or("error");
    if fail_on != "never" {
        let sev = Severity::parse(fail_on)
            .ok_or_else(|| ArgError(format!("--fail-on must be error|warning|never, got '{fail_on}'")))?;
        let n = report.count_at_least(sev);
        if n > 0 {
            return Err(ArgError(format!("{n} finding(s) at or above severity '{sev}'")));
        }
    }
    Ok(())
}

/// Default sweep worker count: the machine's available parallelism,
/// capped at 8. Cells commit in canonical order whatever the worker
/// count, so this choice only ever moves latency, never a journal
/// byte.
fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// The sweep's [`wal::FileSink`] plus two crash-test hooks.
struct FileJournal {
    sink: wal::FileSink,
    lines_written: u64,
    /// Crash-simulation aid: write only the first half of line K (no
    /// newline) and exit(3) — a deterministic torn write.
    halt_after: Option<u64>,
    /// Sleep per appended line so an external test can land a SIGKILL
    /// mid-run.
    throttle_ms: u64,
}

impl FileJournal {
    fn new(sink: wal::FileSink, halt_after: Option<u64>, throttle_ms: u64) -> FileJournal {
        FileJournal { sink, lines_written: 0, halt_after, throttle_ms }
    }
}

impl JournalSink for FileJournal {
    fn append(&mut self, line: &str) -> Result<(), String> {
        if self.throttle_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.throttle_ms));
        }
        if self.halt_after == Some(self.lines_written + 1) {
            let mut cut = line.len() / 2;
            while cut > 0 && !line.is_char_boundary(cut) {
                cut -= 1;
            }
            let _ = self.sink.append(&line[..cut]);
            std::process::exit(3);
        }
        self.sink.append(line)?;
        self.lines_written += 1;
        Ok(())
    }
}

/// Aggregate the sweep's cells into a per-(system, style, profile) text
/// table: coverage plus mean prompts/LoC over completed cells.
fn print_sweep_table(report: &SweepReport) {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Agg {
        cells: u64,
        completed: u64,
        quarantined: u64,
        skipped: u64,
        prompts: u64,
        loc: u64,
    }
    let mut rows: BTreeMap<String, Agg> = BTreeMap::new();
    for cell in &report.cells {
        let key = format!(
            "{:<8} {:<7} {:<6}",
            cell.cell.system.name(),
            cell.cell.style.name(),
            cell.cell.profile.name()
        );
        let agg = rows.entry(key).or_default();
        agg.cells += 1;
        match cell.status {
            harness::CellStatus::Completed => agg.completed += 1,
            harness::CellStatus::Quarantined => agg.quarantined += 1,
            harness::CellStatus::SkippedByBreaker => agg.skipped += 1,
        }
        if let Some(r) = &cell.result {
            agg.prompts += r.prompts;
            agg.loc += r.loc;
        }
    }
    println!(
        "{:<8} {:<7} {:<6}  {:>5} {:>5} {:>5} {:>5}  {:>11} {:>9}",
        "system", "style", "prof", "cells", "done", "quar", "skip", "avg-prompts", "avg-loc"
    );
    for (key, agg) in rows {
        let (avg_p, avg_l) = if agg.completed > 0 {
            (
                format!("{:.1}", agg.prompts as f64 / agg.completed as f64),
                format!("{:.0}", agg.loc as f64 / agg.completed as f64),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        println!(
            "{key}  {:>5} {:>5} {:>5} {:>5}  {avg_p:>11} {avg_l:>9}",
            agg.cells, agg.completed, agg.quarantined, agg.skipped
        );
    }
}

/// Parse the sweep's matrix + limit flags into a [`SweepConfig`]. Each
/// flag is named after its [`SweepConfig::FIELDS`] entry and lists take
/// `,`; an omitted flag keeps the [`SweepConfig::default`] value.
fn sweep_config_from(a: &Args) -> Result<SweepConfig, ArgError> {
    let mut config = SweepConfig::default();
    for key in SweepConfig::FIELDS {
        if let Some(v) = a.get(key) {
            config
                .set_field(key, v.split(',').map(str::trim))
                .map_err(|e| ArgError(format!("--{key}: {e}")))?;
        }
    }
    Ok(config)
}

/// The sweep's worker count: `--workers N` or the machine default.
fn sweep_workers_from(a: &Args) -> Result<usize, ArgError> {
    let workers: usize = match a.get("workers") {
        Some(_) => a.get_or("workers", 1)?,
        None => default_workers(),
    };
    if workers == 0 {
        return Err(ArgError("--workers must be at least 1".into()));
    }
    Ok(workers)
}

/// A [`Sweep`] wired with the Tier A static gate and, when given, a
/// shared deterministic memo: the one builder behind `sweep` and the
/// daemon's jobs. Memoization is on by default: execute_cell is a pure
/// function of the cell id, so the memo cannot change a single journal
/// or report byte (property-tested) — `--no-cache` exists for A/B
/// timing, not correctness.
fn sweep_runtime(config: &SweepConfig, workers: usize, memo: Option<Arc<CellMemo>>) -> Sweep {
    let runtime = Sweep::new(config.clone())
        .with_workers(workers)
        .with_gate(Box::new(|spec, arts| {
            let (report, _) = analysis::gate::gate_artifacts(spec, arts);
            analysis::gate::static_gate(&report)
        }));
    match memo {
        Some(memo) => runtime.with_cache(memo),
        None => runtime,
    }
}

/// The flags `sweep` reads besides [`SweepConfig::FIELDS`].
const SWEEP_FLAGS: [&str; 8] =
    ["journal", "resume", "workers", "json", "out", "halt-after", "throttle-ms", "no-cache"];

/// `netrepro sweep` — the crash-safe orchestration runtime over the
/// full system × style × seed × profile matrix. Every finished cell is
/// appended to a JSONL journal before the sweep moves on; `--resume`
/// replays a journal (dropping a torn trailing record) and executes
/// only the remainder, producing a byte-identical report.
pub fn sweep(a: &Args) -> CmdResult {
    a.only(&[&SweepConfig::FIELDS[..], &SWEEP_FLAGS[..]].concat()).map_err(|e| {
        ArgError(format!(
            "{e}. The sweep runs in one process: --workers N sets its threads, and \
             --resume PATH continues a run after a crash"
        ))
    })?;
    let config = sweep_config_from(a)?;
    let workers = sweep_workers_from(a)?;
    let runtime = sweep_runtime(&config, workers, (!a.has("no-cache")).then(CellMemo::shared));
    let halt_after =
        if a.has("halt-after") { Some(a.require::<u64>("halt-after")?) } else { None };
    let throttle_ms: u64 = a.get_or("throttle-ms", 0)?;

    let report = if let Some(path) = a.get("resume") {
        let text = read_resumed(path)?;
        let replay = harness::parse_journal(&text, &config)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        if replay.dropped_partial {
            eprintln!("journal {path}: dropped a torn trailing record; its cell re-runs");
        }
        eprintln!(
            "resuming {path}: {} of {} cells journaled",
            replay.records.len(),
            config.total_cells()
        );
        let file = wal::reopen(path.as_ref(), replay.valid_bytes).map_err(ArgError)?;
        let mut sink = FileJournal::new(file, halt_after, throttle_ms);
        runtime.run_from(&replay, &mut sink).map_err(ArgError)?
    } else {
        let path = a.get("journal").unwrap_or("results/sweep.jsonl");
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ArgError(format!("{}: {e}", parent.display())))?;
            }
        }
        let file = wal::reopen(path.as_ref(), 0).map_err(ArgError)?;
        let mut sink = FileJournal::new(file, halt_after, throttle_ms);
        runtime.run(&mut sink).map_err(ArgError)?
    };
    if let Some(out) = a.get("out") {
        std::fs::write(out, report.render_json())
            .map_err(|e| ArgError(format!("{out}: {e}")))?;
    }
    if a.has("json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.summary());
        print_sweep_table(&report);
    }
    Ok(())
}

/// Read the journal that `--resume` names; it must exist.
fn read_resumed(path: &str) -> Result<String, ArgError> {
    if !std::path::Path::new(path).exists() {
        return Err(ArgError(format!("cannot read journal {path}: no such file")));
    }
    wal::read(path.as_ref()).map_err(ArgError)
}

/// `netrepro rps serve|play`
pub fn rps(a: &Args) -> CmdResult {
    let addr = a.get("addr").unwrap_or("127.0.0.1:4444").to_string();
    match a.pos(1) {
        Some("serve") => {
            let server = netrepro_rps::RpsServer::bind(&addr[..])
                .map_err(|e| ArgError(format!("bind {addr}: {e}")))?;
            println!("serving rock-paper-scissors on {addr} (ctrl-c to stop)");
            server.serve_forever().map_err(|e| ArgError(e.to_string()))
        }
        Some("play") => {
            let moves = a.get("moves").unwrap_or("RPSRPS");
            let mut client = netrepro_rps::RpsClient::connect(&addr[..])
                .map_err(|e| ArgError(format!("connect {addr}: {e}")))?;
            let (mut w, mut l, mut dr) = (0, 0, 0);
            for ch in moves.chars() {
                let m = netrepro_rps::Move::parse(&ch.to_string())
                    .ok_or_else(|| ArgError(format!("bad move '{ch}' (use R/P/S)")))?;
                let r = client.play(m).map_err(|e| ArgError(e.to_string()))?;
                match r.outcome {
                    netrepro_rps::Outcome::Win => w += 1,
                    netrepro_rps::Outcome::Lose => l += 1,
                    netrepro_rps::Outcome::Draw => dr += 1,
                }
                println!(
                    "round {}: {} vs {} -> {:?}",
                    r.round,
                    r.you.letter(),
                    r.server.letter(),
                    r.outcome
                );
            }
            let n = client.disconnect().map_err(|e| ArgError(e.to_string()))?;
            println!("{w} wins / {l} losses / {dr} draws over {n} rounds");
            Ok(())
        }
        _ => Err(ArgError("rps needs a mode: serve|play".into())),
    }
}

/// The daemon's per-job runtime: [`sweep_runtime`] with one worker per
/// job and the one warm memo shared across every request — the
/// CLI-side half of the determinism contract: a job submitted over the
/// wire runs through the identical pipeline as `netrepro sweep`, so its
/// journal bytes cannot depend on the path.
fn serve_factory(cache: bool) -> netrepro_serve::RuntimeFactory {
    let memo = cache.then(CellMemo::shared);
    Arc::new(move |config: &SweepConfig| sweep_runtime(config, 1, memo.clone()))
}

/// `netrepro serve` — the persistent, multi-tenant sweep daemon.
/// Recovers its write-ahead ledger from `--dir` on startup (resuming
/// any job that was in flight when the last process died), then
/// accepts job verbs over TCP. There is no signal handler (the
/// workspace forbids unsafe code): stop it with SIGKILL/SIGTERM —
/// the ledger makes that safe — or drain it first via
/// `netrepro submit --drain`.
/// [`JobStorage`](netrepro_serve::JobStorage) wrapper that sleeps
/// after every journal append — the same crash-window widener as
/// `sweep --throttle-ms`, so the kill/resume CI job can SIGKILL the
/// daemon reliably mid-matrix. Pacing never touches the bytes.
struct ThrottledStorage {
    inner: netrepro_serve::FileStorage,
    throttle_ms: u64,
}

struct ThrottledSink {
    inner: Box<dyn JournalSink + Send>,
    throttle_ms: u64,
}

impl JournalSink for ThrottledSink {
    fn append(&mut self, line: &str) -> Result<(), String> {
        self.inner.append(line)?;
        std::thread::sleep(std::time::Duration::from_millis(self.throttle_ms));
        Ok(())
    }
}

impl netrepro_serve::JobStorage for ThrottledStorage {
    fn ledger_load(&self) -> Result<String, String> {
        self.inner.ledger_load()
    }

    fn ledger_truncate(&self, valid_bytes: u64) -> Result<(), String> {
        self.inner.ledger_truncate(valid_bytes)
    }

    fn ledger_append(&self, line: &str) -> Result<(), String> {
        self.inner.ledger_append(line)
    }

    fn journal_load(&self, job: u64) -> Result<String, String> {
        self.inner.journal_load(job)
    }

    fn journal_truncate(&self, job: u64, valid_bytes: u64) -> Result<(), String> {
        self.inner.journal_truncate(job, valid_bytes)
    }

    fn journal_sink(&self, job: u64) -> Result<Box<dyn JournalSink + Send>, String> {
        let inner = self.inner.journal_sink(job)?;
        Ok(Box::new(ThrottledSink { inner, throttle_ms: self.throttle_ms }))
    }
}

pub fn serve(a: &Args) -> CmdResult {
    let addr = a.get("addr").unwrap_or("127.0.0.1:4545").to_string();
    let dir = a.get("dir").unwrap_or("results/serve");
    let defaults = netrepro_serve::SchedConfig::default();
    let cfg = netrepro_serve::SchedConfig {
        workers: sweep_workers_from(a)?,
        queue_cap: a.get_or("queue-cap", defaults.queue_cap)?,
        tenant_quota: a.get_or("tenant-quota", defaults.tenant_quota)?,
        breaker_threshold: a.get_or("job-breaker", defaults.breaker_threshold)?,
        quantum: a.get_or("quantum", defaults.quantum)?,
    };
    let file_storage = netrepro_serve::FileStorage::open(dir).map_err(ArgError)?;
    let throttle_ms: u64 = a.get_or("throttle-ms", 0)?;
    let storage: Arc<dyn netrepro_serve::JobStorage> = if throttle_ms > 0 {
        Arc::new(ThrottledStorage { inner: file_storage, throttle_ms })
    } else {
        Arc::new(file_storage)
    };
    let factory = serve_factory(!a.has("no-cache"));
    let sched = Arc::new(
        netrepro_serve::Scheduler::recover(cfg, factory, storage).map_err(ArgError)?,
    );
    let (queued, running, done) = sched.health();
    let _workers = sched.start_workers();
    let daemon = netrepro_serve::Daemon::bind(&addr[..], sched).map_err(ArgError)?;
    println!(
        "serving sweep jobs on {addr} (state in {dir}; recovered {queued} queued, \
         {running} running, {done} finished)"
    );
    daemon.serve_forever().map_err(ArgError)
}

/// Render one wire response for humans.
fn print_job_response(resp: &netrepro_rps::JobResponse) {
    print!("{}", resp.wire());
}

/// `netrepro submit` — client side of the job protocol. By default
/// submits one sweep job built from the same matrix flags as
/// `netrepro sweep` (or a raw `--spec` token) and prints the job id;
/// `--wait` polls until the job is terminal and fetches the report.
/// The control verbs (`--status`, `--results`, `--cancel`,
/// `--health`, `--drain`) talk to a running daemon without
/// submitting anything.
pub fn submit(a: &Args) -> CmdResult {
    let addr = a.get("addr").unwrap_or("127.0.0.1:4545");
    let mut client = netrepro_serve::JobClient::connect(addr)
        .map_err(|e| ArgError(format!("connect {addr}: {e}")))?;
    let wire_err = |e: netrepro_rps::ProtocolError| ArgError(e.to_string());

    if a.has("status") {
        print_job_response(&client.status(a.require("status")?).map_err(wire_err)?);
        return Ok(());
    }
    if a.has("cancel") {
        print_job_response(&client.cancel(a.require("cancel")?).map_err(wire_err)?);
        return Ok(());
    }
    if a.has("health") {
        print_job_response(&client.health().map_err(wire_err)?);
        return Ok(());
    }
    if a.has("drain") {
        print_job_response(&client.drain().map_err(wire_err)?);
        return Ok(());
    }
    if a.has("results") {
        let id = a.require("results")?;
        return match client.results(id).map_err(wire_err)? {
            Ok(payload) => emit_job_report(a, &payload),
            Err(other) => Err(ArgError(format!("job {id} has no results yet: {}", other.wire().trim_end()))),
        };
    }

    let tenant = a.get("tenant").unwrap_or("cli");
    let nonce: u64 = a.get_or("nonce", 0)?;
    let spec_token = match a.get("spec") {
        Some(s) => s.to_string(),
        None => {
            let config = sweep_config_from(a)?;
            let clock_limit: u64 = a.get_or("clock", 0)?;
            netrepro_serve::JobSpec { config, clock_limit }.wire()
        }
    };
    let id = match client.submit(tenant, nonce, &spec_token).map_err(wire_err)? {
        netrepro_rps::JobResponse::Accepted(id) => id,
        other => return Err(ArgError(format!("daemon refused the job: {}", other.wire().trim_end()))),
    };
    eprintln!("job {id} accepted (tenant {tenant}, nonce {nonce})");
    if !a.has("wait") {
        println!("{id}");
        return Ok(());
    }
    // Poll at 2 ms, doubling up to 100 ms: a small job is fetched within
    // milliseconds, a long one costs the daemon ten polls a second.
    let mut poll = std::time::Duration::from_millis(2);
    loop {
        match client.status(id).map_err(wire_err)? {
            netrepro_rps::JobResponse::State { state, journaled, total, .. } => {
                if state == netrepro_rps::JobState::Done {
                    eprintln!("job {id} done ({journaled}/{total} cells)");
                    break;
                }
                if !state.is_live() {
                    return Err(ArgError(format!("job {id} ended {}", state.wire())));
                }
                std::thread::sleep(poll);
                poll = (poll * 2).min(std::time::Duration::from_millis(100));
            }
            other => return Err(ArgError(format!("bad status reply: {}", other.wire().trim_end()))),
        }
    }
    match client.results(id).map_err(wire_err)? {
        Ok(payload) => emit_job_report(a, &payload),
        Err(other) => Err(ArgError(format!("results refused: {}", other.wire().trim_end()))),
    }
}

/// `--out`/stdout tail for a fetched report payload (already JSON).
fn emit_job_report(a: &Args, payload: &str) -> CmdResult {
    if let Some(out) = a.get("out") {
        std::fs::write(out, payload).map_err(|e| ArgError(format!("{out}: {e}")))?;
        return Ok(());
    }
    println!("{payload}");
    Ok(())
}
