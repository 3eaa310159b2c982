//! Effect-inference determinism analyzer.
//!
//! The soundness of the memo layer (`core::cache`), the out-of-order
//! pool (`core::pool`) and journal resume (`core::harness`) all rest on
//! one claim: *`execute_cell` is a pure function of `CellId`*. This
//! module proves that claim transitively instead of trusting
//! hand-maintained per-file lists.
//!
//! **Lattice.** Every function gets a set of effects:
//!
//! * `SeededRng` — draws from a seeded RNG (deterministic, but
//!   stream-order-sensitive);
//! * `Wallclock` — reads real time (`Instant::now`, `elapsed`, …);
//! * `UnorderedIter` — iterates a `HashMap`/`HashSet`;
//! * `GlobalState` — atomics, locks, channels, env, threads, process
//!   state;
//! * `Io` — filesystem, sockets, stdio;
//! * `Panic` — can unwind (`panic!`, `unwrap`, `resume_unwind`).
//!
//! The empty set is *Pure*. `assert!`-family macros are deliberately
//! not `Panic`: they express invariants whose failure is a bug, not a
//! behavior.
//!
//! **Inference.** Intrinsic effects are seeded from a std-API table
//! (call paths like `Instant::now`, method names like `.lock(…)`,
//! macros like `println!`) plus hash-iteration facts from the call
//! graph, then propagated caller-ward to a fixpoint over
//! [`crate::callgraph`] edges. Method calls resolve by name to every
//! workspace method in the caller's *dependency cone* — `core` code
//! calling `.append(…)` on a `dyn` sink unions the sinks `core` can
//! see, not the CLI's file journal (which the CLI's own cone does
//! see). Workspace resolution and the std table are unioned, so a
//! wrapper named like a std API keeps its real effects.
//!
//! **Allowances.** `// effect-allow(Effect, …): reason` on a function
//! masks those effects from propagating to callers — the audited
//! boundary (e.g. memo stat counters are `GlobalState` internally but
//! invisible to replay). Stale or unknown allowances are findings, so
//! the escape hatch burns down like `repolint.allow` does.
//!
//! **Enforcement.** Roots with budgets: `execute_cell` must be
//! `Pure|SeededRng`, the commit path must be pure, the pool driver
//! may add `GlobalState|Panic` (locks, channel ops, panic re-raise)
//! but never `Wallclock`. Every violation prints a
//! witness chain `root → … → offending fn` ending at the intrinsic
//! source. A root that no longer matches any function is itself an
//! error, so a rename cannot silently drop enforcement.
//!
//! **Known limits** (documented, deliberate): effects behind trait
//! objects whose impls live outside the caller's cone are invisible
//! (sinks are audited boundaries instead); indexing/division panics
//! and allocator aborts are not modeled; `shims/*` are treated as the
//! external APIs they stand in for.

use crate::callgraph::{CallGraph, CallKind, CallSite, FnInfo};
use crate::finding::{AnalysisReport, Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One effect in the determinism lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Draws from a seeded RNG stream.
    SeededRng,
    /// Reads the real clock.
    Wallclock,
    /// Iterates a `HashMap`/`HashSet` (order not deterministic).
    UnorderedIter,
    /// Touches process-global state: atomics, locks, channels,
    /// threads, env.
    GlobalState,
    /// Filesystem / socket / stdio I/O.
    Io,
    /// May unwind.
    Panic,
}

impl Effect {
    /// All effects, in canonical order.
    pub const ALL: [Effect; 6] = [
        Effect::SeededRng,
        Effect::Wallclock,
        Effect::UnorderedIter,
        Effect::GlobalState,
        Effect::Io,
        Effect::Panic,
    ];

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Effect::SeededRng => "SeededRng",
            Effect::Wallclock => "Wallclock",
            Effect::UnorderedIter => "UnorderedIter",
            Effect::GlobalState => "GlobalState",
            Effect::Io => "Io",
            Effect::Panic => "Panic",
        }
    }

    /// Parse a canonical name.
    pub fn parse(s: &str) -> Option<Effect> {
        Effect::ALL.iter().copied().find(|e| e.name() == s)
    }

    fn bit(self) -> u8 {
        match self {
            Effect::SeededRng => 1,
            Effect::Wallclock => 2,
            Effect::UnorderedIter => 4,
            Effect::GlobalState => 8,
            Effect::Io => 16,
            Effect::Panic => 32,
        }
    }
}

/// A set of [`Effect`]s; empty means *Pure*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(u8);

impl EffectSet {
    /// The empty (pure) set.
    pub const PURE: EffectSet = EffectSet(0);

    /// Build from a slice.
    pub fn of(effects: &[Effect]) -> EffectSet {
        let mut s = EffectSet::PURE;
        for e in effects {
            s.insert(*e);
        }
        s
    }

    /// Add one effect.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// Set union.
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Set difference.
    pub fn minus(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 & !other.0)
    }

    /// Membership.
    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// Is this Pure?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Members in canonical order.
    pub fn iter(self) -> impl Iterator<Item = Effect> {
        Effect::ALL.into_iter().filter(move |e| self.contains(*e))
    }

    /// `Pure` or `A|B|C`.
    pub fn label(self) -> String {
        if self.is_empty() {
            "Pure".to_string()
        } else {
            self.iter().map(|e| e.name()).collect::<Vec<_>>().join("|")
        }
    }
}

/// An enforcement root: a function (suffix-matched by qualified path)
/// with an effect budget.
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// Qualified-path suffix, e.g. `core::harness::Sweep::execute_cell`.
    pub path: String,
    /// Effects the root may expose.
    pub budget: EffectSet,
    /// Why this budget (shown in reports).
    pub note: String,
}

/// Analyzer configuration: roots and inventory scope.
#[derive(Debug, Clone)]
pub struct EffectConfig {
    /// Enforcement roots.
    pub roots: Vec<RootSpec>,
    /// Effects inventoried (intrinsic occurrences listed in the
    /// report/baseline).
    pub inventory: EffectSet,
    /// Crates excluded from the inventory (e.g. `bench`, whose whole
    /// point is wall-clock measurement).
    pub inventory_skip_crates: Vec<String>,
}

impl EffectConfig {
    /// The netrepro workspace's root budgets.
    pub fn workspace_default() -> EffectConfig {
        use Effect::*;
        let root = |path: &str, budget: &[Effect], note: &str| RootSpec {
            path: path.to_string(),
            budget: EffectSet::of(budget),
            note: note.to_string(),
        };
        EffectConfig {
            roots: vec![
                root(
                    "core::harness::Sweep::execute_cell",
                    &[SeededRng],
                    "memo replay is sound only if a cell is a pure function of CellId",
                ),
                root(
                    "core::harness::Sweep::execute_cell_uncached",
                    &[SeededRng],
                    "the uncached path is the function the memo layer claims to replay",
                ),
                root(
                    "core::harness::Sweep::commit_cell",
                    &[],
                    "commit advances the virtual clock and breakers; any effect here skews resume",
                ),
                root(
                    "core::pool::run_ordered",
                    &[SeededRng, GlobalState, Panic],
                    "the one sweep executor: workers may lock and re-raise, never time-observe",
                ),
                root(
                    "core::session::ReproductionSession::run_with_faults",
                    &[SeededRng],
                    "a session is replayed byte-for-byte from its seed",
                ),
                root(
                    "te::ncflow::solve_ncflow",
                    &[Wallclock, GlobalState, Panic],
                    "R2 solves run on scoped threads that join deterministically; \
                     resume_unwind re-raises worker bugs; timing is report-only",
                ),
                root(
                    "te::arrow::solve_arrow",
                    &[Wallclock],
                    "solver timing is reported, but results must not depend on hash order",
                ),
                root(
                    "lp::fallback::FallbackSolver::solve",
                    &[],
                    "TE results depend on the solve alone; it must be a pure function of the model",
                ),
                root(
                    "bdd::manager::BddManager::apply",
                    &[],
                    "node numbering must be reproducible across runs",
                ),
                root(
                    "serve::sched::Scheduler::submit",
                    &[GlobalState],
                    "admission is a pure decision over locked state; its ledger write-ahead \
                     goes through the storage boundary's audited Io allows",
                ),
                root(
                    "serve::sched::Scheduler::worker_loop",
                    &[SeededRng, GlobalState, Panic],
                    "scheduling (locks, condvars, poison-job catch_unwind) around seeded cell \
                     execution; wall-clock reads here would skew fairness and resume",
                ),
                root(
                    "serve::sched::Scheduler::recover",
                    &[GlobalState],
                    "restart must rebuild state purely from ledger + journal bytes",
                ),
                root(
                    "core::wal::parse",
                    &[],
                    "every journal and ledger recovers through this one prefix parser; \
                     it must be a pure function of the log's bytes",
                ),
                root(
                    "serve::ledger::parse_ledger",
                    &[],
                    "ledger replay is pure parse; any effect here breaks crash recovery",
                ),
                root(
                    "serve::spec::JobSpec::parse",
                    &[],
                    "a spec token must deterministically build the same SweepConfig as the CLI",
                ),
            ],
            inventory: EffectSet::of(&[SeededRng, Wallclock, UnorderedIter, GlobalState]),
            inventory_skip_crates: vec!["bench".to_string()],
        }
    }
}

/// Where an effect enters a function directly.
#[derive(Debug, Clone)]
struct IntrinsicSource {
    effect: Effect,
    label: String,
    line: usize,
}

/// One budget violation with its witness chain.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The effect exceeding the budget.
    pub effect: Effect,
    /// Qualified call chain from the root to the intrinsic source.
    pub chain: Vec<String>,
    /// Human description of the source (`\`Instant::now\` at file:line`).
    pub source: String,
}

/// Per-root verdict.
#[derive(Debug, Clone)]
pub struct RootReport {
    /// The configured root path.
    pub root: String,
    /// Its budget.
    pub budget: EffectSet,
    /// Functions it matched (empty = enforcement hole, reported as an
    /// error).
    pub matched: Vec<String>,
    /// Exposed effects (after allowances), unioned over matches.
    pub effects: EffectSet,
    /// Budget violations.
    pub violations: Vec<Violation>,
}

/// One declared `effect-allow` boundary.
#[derive(Debug, Clone)]
pub struct AllowanceReport {
    /// Qualified function path.
    pub function: String,
    /// Declared effects.
    pub effects: EffectSet,
    /// The audit reason.
    pub reason: String,
    /// Source file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Declared effects the function does not actually have (finding).
    pub stale: EffectSet,
    /// Effect names that did not parse (finding).
    pub unknown: Vec<String>,
}

/// Engine counters.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Crates scanned.
    pub crates: usize,
    /// Files scanned.
    pub files: usize,
    /// Non-test functions analyzed.
    pub functions: usize,
    /// Resolved workspace call edges.
    pub edges: usize,
    /// Intrinsic effect sources found.
    pub intrinsic_sources: usize,
}

/// The full analysis result.
#[derive(Debug)]
pub struct EffectReport {
    /// Counters.
    pub stats: EngineStats,
    /// Per-root verdicts, in config order.
    pub roots: Vec<RootReport>,
    /// Declared audited boundaries.
    pub allowances: Vec<AllowanceReport>,
    /// Effect name → sorted intrinsic occurrences
    /// (`fn — source @ file:line`).
    pub inventory: BTreeMap<String, Vec<String>>,
}

impl EffectReport {
    /// Fold into the shared finding model (Error per violation or
    /// unmatched root, Warning per stale/unknown allowance).
    pub fn findings(&self) -> AnalysisReport {
        let mut report = AnalysisReport::default();
        for r in &self.roots {
            if r.matched.is_empty() {
                report.push(Finding {
                    rule: "effectroot".into(),
                    severity: Severity::Error,
                    subject: r.root.clone(),
                    message: "enforcement root matches no function — renamed or removed? \
                              update EffectConfig so the budget keeps applying"
                        .into(),
                });
            }
            for v in &r.violations {
                report.push(Finding {
                    rule: "effectroot".into(),
                    severity: Severity::Error,
                    subject: r.root.clone(),
                    message: format!(
                        "undeclared effect {} (budget {}): {} · source: {}",
                        v.effect.name(),
                        r.budget.label(),
                        v.chain.join(" → "),
                        v.source
                    ),
                });
            }
        }
        for a in &self.allowances {
            for u in &a.unknown {
                report.push(Finding {
                    rule: "effectallow".into(),
                    severity: Severity::Warning,
                    subject: a.function.clone(),
                    message: format!("unknown effect `{u}` in effect-allow directive"),
                });
            }
            if !a.stale.is_empty() {
                report.push(Finding {
                    rule: "effectallow".into(),
                    severity: Severity::Warning,
                    subject: a.function.clone(),
                    message: format!(
                        "stale allowance: declares {} but analysis finds no such effect — \
                         delete it or re-audit",
                        a.stale.label()
                    ),
                });
            }
        }
        report
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "effects: {} crates · {} files · {} functions · {} edges · {} intrinsic sources\n",
            self.stats.crates,
            self.stats.files,
            self.stats.functions,
            self.stats.edges,
            self.stats.intrinsic_sources
        ));
        out.push_str("\nroots:\n");
        for r in &self.roots {
            let verdict = if r.matched.is_empty() {
                "MISSING"
            } else if r.violations.is_empty() {
                "ok"
            } else {
                "VIOLATION"
            };
            out.push_str(&format!(
                "  [{verdict}] {}  budget={}  effects={}\n",
                r.root,
                r.budget.label(),
                r.effects.label()
            ));
            for v in &r.violations {
                out.push_str(&format!("      {} via {}\n", v.effect.name(), v.chain.join(" → ")));
                out.push_str(&format!("      source: {}\n", v.source));
            }
        }
        out.push_str(&format!("\nallowances ({}):\n", self.allowances.len()));
        for a in &self.allowances {
            out.push_str(&format!(
                "  {}  {}  — {} ({}:{})\n",
                a.function,
                a.effects.label(),
                a.reason,
                a.file,
                a.line
            ));
        }
        out.push_str("\ninventory:\n");
        for (effect, items) in &self.inventory {
            out.push_str(&format!("  {effect} ({}):\n", items.len()));
            for it in items {
                out.push_str(&format!("    {it}\n"));
            }
        }
        out
    }

    /// Stable JSON (schema `effects-v1`) for the committed baseline.
    pub fn render_json(&self) -> String {
        let mut w = String::new();
        w.push_str("{\n  \"schema\": \"effects-v1\",\n");
        w.push_str(&format!(
            "  \"stats\": {{\"crates\": {}, \"files\": {}, \"functions\": {}, \"edges\": {}, \"intrinsic_sources\": {}}},\n",
            self.stats.crates,
            self.stats.files,
            self.stats.functions,
            self.stats.edges,
            self.stats.intrinsic_sources
        ));
        w.push_str("  \"roots\": [\n");
        for (i, r) in self.roots.iter().enumerate() {
            w.push_str("    {");
            w.push_str(&format!("\"root\": {}, ", json_str(&r.root)));
            w.push_str(&format!("\"budget\": {}, ", json_str(&r.budget.label())));
            w.push_str(&format!("\"effects\": {}, ", json_str(&r.effects.label())));
            w.push_str(&format!(
                "\"matched\": [{}], ",
                r.matched.iter().map(|m| json_str(m)).collect::<Vec<_>>().join(", ")
            ));
            w.push_str("\"violations\": [");
            let vs: Vec<String> = r
                .violations
                .iter()
                .map(|v| {
                    format!(
                        "{{\"effect\": {}, \"chain\": [{}], \"source\": {}}}",
                        json_str(v.effect.name()),
                        v.chain.iter().map(|c| json_str(c)).collect::<Vec<_>>().join(", "),
                        json_str(&v.source)
                    )
                })
                .collect();
            w.push_str(&vs.join(", "));
            w.push_str("]}");
            w.push_str(if i + 1 < self.roots.len() { ",\n" } else { "\n" });
        }
        w.push_str("  ],\n  \"allowances\": [\n");
        for (i, a) in self.allowances.iter().enumerate() {
            w.push_str(&format!(
                "    {{\"function\": {}, \"effects\": {}, \"reason\": {}, \"file\": {}, \"line\": {}}}{}",
                json_str(&a.function),
                json_str(&a.effects.label()),
                json_str(&a.reason),
                json_str(&a.file),
                a.line,
                if i + 1 < self.allowances.len() { ",\n" } else { "\n" }
            ));
        }
        w.push_str("  ],\n  \"inventory\": {\n");
        let n = self.inventory.len();
        for (i, (effect, items)) in self.inventory.iter().enumerate() {
            w.push_str(&format!("    {}: [\n", json_str(effect)));
            for (j, it) in items.iter().enumerate() {
                w.push_str(&format!(
                    "      {}{}\n",
                    json_str(it),
                    if j + 1 < items.len() { "," } else { "" }
                ));
            }
            w.push_str(&format!("    ]{}\n", if i + 1 < n { "," } else { "" }));
        }
        w.push_str("  }\n}\n");
        w
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Scan `root` and run the analyzer with `cfg`.
pub fn analyze(root: &Path, cfg: &EffectConfig) -> Result<EffectReport, String> {
    let graph = CallGraph::scan(root)?;
    Ok(analyze_graph(&graph, cfg))
}

/// Run the analyzer over an already-extracted call graph.
pub fn analyze_graph(graph: &CallGraph, cfg: &EffectConfig) -> EffectReport {
    let live: Vec<usize> =
        (0..graph.fns.len()).filter(|&i| !graph.fns[i].is_test).collect();

    // Name indexes over non-test functions.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for &i in &live {
        let f = &graph.fns[i];
        match &f.self_type {
            None => free_by_name.entry(f.name.as_str()).or_default().push(i),
            Some(t) => {
                methods_by_name.entry(f.name.as_str()).or_default().push(i);
                assoc.entry((t.as_str(), f.name.as_str())).or_default().push(i);
            }
        }
    }
    let cones: BTreeMap<&str, BTreeSet<String>> =
        graph.crates.keys().map(|c| (c.as_str(), graph.cone(c))).collect();
    let all_cone: BTreeSet<String> = graph.crates.keys().cloned().collect();
    let cone_of = |crate_id: &str| cones.get(crate_id).unwrap_or(&all_cone);

    // Per-fn: resolved edges, intrinsic effects + sources, declared set.
    let n = graph.fns.len();
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut intrinsic: Vec<EffectSet> = vec![EffectSet::PURE; n];
    let mut sources: Vec<Vec<IntrinsicSource>> = vec![Vec::new(); n];
    let mut declared: Vec<EffectSet> = vec![EffectSet::PURE; n];
    let mut allowances: Vec<AllowanceReport> = Vec::new();

    for &i in &live {
        let f = &graph.fns[i];
        let cone = cone_of(&f.crate_id);
        for call in &f.calls {
            for t in resolve_call(f, call, graph, &free_by_name, &methods_by_name, &assoc, cone) {
                if t != i {
                    edges[i].insert(t);
                }
            }
            if let Some((e, label)) = intrinsic_of(call) {
                intrinsic[i].insert(e);
                sources[i].push(IntrinsicSource { effect: e, label, line: call.line });
            }
        }
        for &line in &f.hash_iter_lines {
            intrinsic[i].insert(Effect::UnorderedIter);
            sources[i].push(IntrinsicSource {
                effect: Effect::UnorderedIter,
                label: "HashMap/HashSet iteration".into(),
                line,
            });
        }
        for (ident, line) in &f.maybe_hash_iters {
            if graph.hash_fields.contains(ident) {
                intrinsic[i].insert(Effect::UnorderedIter);
                sources[i].push(IntrinsicSource {
                    effect: Effect::UnorderedIter,
                    label: format!("iteration over hash-typed field `{ident}`"),
                    line: *line,
                });
            }
        }
        if !f.directives.is_empty() {
            let mut set = EffectSet::PURE;
            let mut unknown = Vec::new();
            let mut reasons = Vec::new();
            let mut line = 0usize;
            for d in &f.directives {
                line = d.line + 1;
                for name in &d.effects {
                    match Effect::parse(name) {
                        Some(e) => set.insert(e),
                        None => unknown.push(name.clone()),
                    }
                }
                if !d.reason.is_empty() {
                    reasons.push(d.reason.clone());
                }
            }
            declared[i] = set;
            allowances.push(AllowanceReport {
                function: f.qualified(),
                effects: set,
                reason: reasons.join("; "),
                file: f.file.clone(),
                line,
                stale: EffectSet::PURE, // filled after the fixpoint
                unknown,
            });
        }
    }

    // Fixpoint: callers absorb callees' effects minus the callee's
    // declared allowances.
    let mut eff = intrinsic.clone();
    loop {
        let mut changed = false;
        for &i in &live {
            let mut acc = eff[i];
            for &g in &edges[i] {
                acc = acc.union(eff[g].minus(declared[g]));
            }
            if acc != eff[i] {
                eff[i] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Stale allowances: declared effects the function never has.
    for a in &mut allowances {
        if let Some(&i) = live.iter().find(|&&i| graph.fns[i].qualified() == a.function) {
            a.stale = a.effects.minus(eff[i]);
        }
    }
    allowances.sort_by(|a, b| a.function.cmp(&b.function));

    // Roots.
    let mut roots = Vec::new();
    for spec in &cfg.roots {
        let want: Vec<&str> = spec.path.split("::").collect();
        let mut matched = Vec::new();
        let mut exposed = EffectSet::PURE;
        let mut violations = Vec::new();
        for &i in &live {
            let f = &graph.fns[i];
            let segs = f.segments();
            if segs.len() < want.len()
                || segs[segs.len() - want.len()..]
                    .iter()
                    .zip(&want)
                    .any(|(a, b)| a != b)
            {
                continue;
            }
            matched.push(f.qualified());
            let ex = eff[i].minus(declared[i]);
            exposed = exposed.union(ex);
            for e in ex.minus(spec.budget).iter() {
                if let Some(v) = witness(i, e, graph, &edges, &eff, &declared, &intrinsic, &sources)
                {
                    violations.push(v);
                }
            }
        }
        matched.sort();
        roots.push(RootReport {
            root: spec.path.clone(),
            budget: spec.budget,
            matched,
            effects: exposed,
            violations,
        });
    }

    // Inventory of intrinsic sources for the reviewable baseline.
    let mut inventory: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for &i in &live {
        let f = &graph.fns[i];
        if cfg.inventory_skip_crates.contains(&f.crate_id) {
            continue;
        }
        for s in &sources[i] {
            if cfg.inventory.contains(s.effect) {
                inventory.entry(s.effect.name().to_string()).or_default().push(format!(
                    "{} — {} @ {}:{}",
                    f.qualified(),
                    s.label,
                    f.file,
                    s.line + 1
                ));
            }
        }
    }
    for items in inventory.values_mut() {
        items.sort();
        items.dedup();
    }

    let stats = EngineStats {
        crates: graph.crates.len(),
        files: graph.files,
        functions: live.len(),
        edges: edges.iter().map(|e| e.len()).sum(),
        intrinsic_sources: sources.iter().map(|s| s.len()).sum(),
    };
    EffectReport { stats, roots, allowances, inventory }
}

/// Shortest caller→…→source chain for `e` starting at `from`.
#[allow(clippy::too_many_arguments)]
fn witness(
    from: usize,
    e: Effect,
    graph: &CallGraph,
    edges: &[BTreeSet<usize>],
    eff: &[EffectSet],
    declared: &[EffectSet],
    intrinsic: &[EffectSet],
    sources: &[Vec<IntrinsicSource>],
) -> Option<Violation> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    let mut seen = BTreeSet::new();
    queue.push_back(from);
    seen.insert(from);
    while let Some(cur) = queue.pop_front() {
        if intrinsic[cur].contains(e) {
            let mut chain = vec![graph.fns[cur].qualified()];
            let mut at = cur;
            while let Some(&p) = parent.get(&at) {
                chain.push(graph.fns[p].qualified());
                at = p;
            }
            chain.reverse();
            let src = sources[cur]
                .iter()
                .find(|s| s.effect == e)
                .map(|s| format!("{} at {}:{}", s.label, graph.fns[cur].file, s.line + 1))
                .unwrap_or_else(|| "intrinsic".to_string());
            return Some(Violation { effect: e, chain, source: src });
        }
        for &g in &edges[cur] {
            if !seen.contains(&g) && eff[g].minus(declared[g]).contains(e) {
                seen.insert(g);
                parent.insert(g, cur);
                queue.push_back(g);
            }
        }
    }
    None
}

/// Resolve a call site to workspace functions within the caller's
/// dependency cone.
fn resolve_call(
    caller: &FnInfo,
    call: &CallSite,
    graph: &CallGraph,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    methods_by_name: &BTreeMap<&str, Vec<usize>>,
    assoc: &BTreeMap<(&str, &str), Vec<usize>>,
    cone: &BTreeSet<String>,
) -> Vec<usize> {
    match call.kind {
        CallKind::Macro => Vec::new(),
        CallKind::Method => {
            let name = call.path.first().map(|s| s.as_str()).unwrap_or("");
            methods_by_name
                .get(name)
                .map(|c| {
                    c.iter()
                        .copied()
                        .filter(|&i| cone.contains(&graph.fns[i].crate_id))
                        .collect()
                })
                .unwrap_or_default()
        }
        CallKind::Plain => {
            let mut segs: Vec<&str> = call.path.iter().map(|s| s.as_str()).collect();
            let mut same_crate_only = false;
            while matches!(segs.first(), Some(&"crate") | Some(&"self") | Some(&"super")) {
                same_crate_only = true;
                segs.remove(0);
            }
            // `std::…` / `core::…` absolute std paths are never
            // workspace items (our own crate ids shadow neither since
            // the workspace `core` crate is reached as `netrepro_core`
            // in code, mapped below via suffix match on module path).
            if matches!(segs.first(), Some(&"std")) {
                return Vec::new();
            }
            let Some(&name) = segs.last() else { return Vec::new() };
            let quals = &segs[..segs.len() - 1];
            let type_qual = quals
                .last()
                .filter(|q| q.chars().next().is_some_and(|c| c.is_uppercase() || **q == "Self"));
            if let Some(&q) = type_qual {
                let ty = if q == "Self" {
                    match &caller.self_type {
                        Some(t) => t.as_str(),
                        None => return Vec::new(),
                    }
                } else {
                    q
                };
                return assoc
                    .get(&(ty, name))
                    .map(|c| {
                        c.iter()
                            .copied()
                            .filter(|&i| cone.contains(&graph.fns[i].crate_id))
                            .collect()
                    })
                    .unwrap_or_default();
            }
            let Some(cands) = free_by_name.get(name) else { return Vec::new() };
            let viable: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &graph.fns[i];
                    if !cone.contains(&f.crate_id) {
                        return false;
                    }
                    if same_crate_only && f.crate_id != caller.crate_id {
                        return false;
                    }
                    if quals.is_empty() {
                        return true;
                    }
                    // Module-suffix match: call `pool::run_ordered` matches
                    // `core::pool::…::run_ordered`.
                    let segs_f = f.segments();
                    let path_part = &segs_f[..segs_f.len() - 1];
                    path_part.len() >= quals.len()
                        && path_part[path_part.len() - quals.len()..]
                            .iter()
                            .zip(quals.iter())
                            .all(|(a, b)| a == b)
                })
                .collect();
            // Prefer the tightest scope for bare names: same module,
            // then same crate, then the whole cone.
            if quals.is_empty() {
                let same_mod: Vec<usize> = viable
                    .iter()
                    .copied()
                    .filter(|&i| {
                        graph.fns[i].crate_id == caller.crate_id
                            && graph.fns[i].module == caller.module
                    })
                    .collect();
                if !same_mod.is_empty() {
                    return same_mod;
                }
                let same_crate: Vec<usize> = viable
                    .iter()
                    .copied()
                    .filter(|&i| graph.fns[i].crate_id == caller.crate_id)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
            }
            viable
        }
    }
}

/// The std-API intrinsic table: what a call site means when it does
/// not (only) resolve to workspace code.
fn intrinsic_of(call: &CallSite) -> Option<(Effect, String)> {
    let last = call.path.last().map(|s| s.as_str()).unwrap_or("");
    match call.kind {
        CallKind::Macro => {
            let e = match last {
                "panic" | "unreachable" | "todo" | "unimplemented" => Effect::Panic,
                "println" | "print" | "eprintln" | "eprint" | "dbg" | "write" | "writeln" => {
                    Effect::Io
                }
                _ => return None,
            };
            Some((e, format!("`{last}!` macro")))
        }
        CallKind::Method => {
            let e = match last {
                "unwrap" | "expect" | "unwrap_err" | "expect_err" => Effect::Panic,
                "elapsed" => Effect::Wallclock,
                "random" | "random_range" | "random_bool" | "random_ratio" | "gen_range"
                | "gen_bool" | "sample" | "shuffle" | "choose" => Effect::SeededRng,
                "fetch_add" | "fetch_sub" | "fetch_and" | "fetch_or" | "fetch_xor"
                | "fetch_max" | "fetch_min" | "fetch_update" | "compare_exchange"
                | "compare_exchange_weak" => Effect::GlobalState,
                "lock" | "try_lock" | "call_once" | "wait" | "wait_timeout" | "wait_while"
                | "notify_one" | "notify_all" | "recv" | "try_recv" | "recv_timeout" | "send"
                | "try_wait" | "spawn" => Effect::GlobalState,
                "flush" | "write_all" | "write_fmt" | "sync_all" | "sync_data"
                | "read_to_string" | "read_to_end" | "read_line" | "read_exact" | "accept"
                | "set_nonblocking" | "kill" => Effect::Io,
                "load" | "store" | "swap" if call.has_ordering_arg => Effect::GlobalState,
                _ => return None,
            };
            Some((e, format!("`.{last}(…)`")))
        }
        CallKind::Plain => {
            if call.path.iter().any(|s| s == "Error") {
                return None; // io::Error::new etc. — constructors, pure.
            }
            let two = if call.path.len() >= 2 {
                format!("{}::{}", call.path[call.path.len() - 2], last)
            } else {
                String::new()
            };
            let e = match two.as_str() {
                "Instant::now" | "SystemTime::now" => Some(Effect::Wallclock),
                "thread::sleep" => Some(Effect::Wallclock),
                "rand::rng" => Some(Effect::GlobalState),
                _ => None,
            };
            if let Some(e) = e {
                return Some((e, format!("`{two}`")));
            }
            let e = match last {
                "thread_rng" => Some(Effect::GlobalState),
                "seed_from_u64" | "from_seed" | "from_os_rng" | "from_entropy" => {
                    Some(Effect::SeededRng)
                }
                "available_parallelism" => Some(Effect::GlobalState),
                "panic_any" | "resume_unwind" => Some(Effect::Panic),
                "set_hook" | "take_hook" => Some(Effect::GlobalState),
                _ => None,
            };
            if let Some(e) = e {
                return Some((e, format!("`{last}`")));
            }
            for seg in &call.path {
                let e = match seg.as_str() {
                    "fs" | "File" | "OpenOptions" | "TcpStream" | "TcpListener" | "UdpSocket"
                    | "Command" | "Stdio" | "io" => Some(Effect::Io),
                    "env" | "process" | "mpsc" | "thread" => Some(Effect::GlobalState),
                    "StdRng" | "SmallRng" | "SeedableRng" => Some(Effect::SeededRng),
                    _ => None,
                };
                if let Some(e) = e {
                    return Some((e, format!("`{}`", call.path.join("::"))));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallKind, CallSite};

    fn call(kind: CallKind, path: &[&str]) -> CallSite {
        CallSite {
            kind,
            path: path.iter().map(|s| s.to_string()).collect(),
            line: 0,
            has_ordering_arg: false,
        }
    }

    #[test]
    fn effect_set_algebra() {
        let a = EffectSet::of(&[Effect::SeededRng, Effect::Io]);
        let b = EffectSet::of(&[Effect::Io]);
        assert_eq!(a.minus(b), EffectSet::of(&[Effect::SeededRng]));
        assert!(a.union(b).contains(Effect::Io));
        assert_eq!(EffectSet::PURE.label(), "Pure");
        assert_eq!(a.label(), "SeededRng|Io");
        assert_eq!(Effect::parse("Wallclock"), Some(Effect::Wallclock));
        assert_eq!(Effect::parse("wallclock"), None);
    }

    #[test]
    fn intrinsic_table_classifies_std_calls() {
        let cases = [
            (call(CallKind::Plain, &["Instant", "now"]), Some(Effect::Wallclock)),
            (call(CallKind::Plain, &["std", "thread", "sleep"]), Some(Effect::Wallclock)),
            (call(CallKind::Plain, &["fs", "read_to_string"]), Some(Effect::Io)),
            (call(CallKind::Plain, &["io", "Error", "new"]), None),
            (call(CallKind::Plain, &["StdRng", "seed_from_u64"]), Some(Effect::SeededRng)),
            (call(CallKind::Plain, &["env", "var"]), Some(Effect::GlobalState)),
            (call(CallKind::Plain, &["helper"]), None),
            (call(CallKind::Method, &["unwrap"]), Some(Effect::Panic)),
            (call(CallKind::Method, &["elapsed"]), Some(Effect::Wallclock)),
            (call(CallKind::Method, &["random_range"]), Some(Effect::SeededRng)),
            (call(CallKind::Method, &["lock"]), Some(Effect::GlobalState)),
            (call(CallKind::Method, &["insert"]), None),
            (call(CallKind::Macro, &["panic"]), Some(Effect::Panic)),
            (call(CallKind::Macro, &["println"]), Some(Effect::Io)),
            (call(CallKind::Macro, &["assert_eq"]), None),
            (call(CallKind::Macro, &["format"]), None),
        ];
        for (c, want) in cases {
            let got = intrinsic_of(&c).map(|(e, _)| e);
            assert_eq!(got, want, "case {:?} {:?}", c.kind, c.path);
        }
    }

    #[test]
    fn atomic_load_needs_ordering_arg() {
        let mut c = call(CallKind::Method, &["load"]);
        assert_eq!(intrinsic_of(&c), None);
        c.has_ordering_arg = true;
        assert_eq!(intrinsic_of(&c).map(|(e, _)| e), Some(Effect::GlobalState));
    }
}
