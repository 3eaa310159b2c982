//! `sweep-paper`: cold passes of `netrepro sweep` over the paper's
//! 1,344-cell matrix, each writing its journal to disk.

use crate::trace::{cli_gate, traced_gate, FileJournal, TracedSink, Tracer};
use crate::{closed_loop, host, metric, stats, Layers, Metric, Report, SETUP_REPS};
use netrepro_core::cache::CellMemo;
use netrepro_core::harness::{
    self, JournalSink, Sweep, SweepConfig, SweepReport, TaskLimits, TopoScale,
};
use netrepro_core::paper::TargetSystem;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seeds per cell class in the paper matrix.
const SEEDS: u64 = 28;

/// Seed windows a run cycles through: pass `i` sweeps the matrix with
/// seeds `seed + 28·(i mod 8) ..`. Breakers trip on different cells in
/// different windows (a fifth of a pass can be skipped), so one window
/// alone ties a run's figures to its seed.
const WINDOWS: u64 = 8;

/// Repetitions of each pass kind in the traced round.
const TRACE_REPS: usize = 5;

/// The paper matrix — 4 systems × 3 styles × 28 seeds × 4 fault
/// profiles — with the seed range starting at `base`, parsed from the
/// same flag values the CI golden run passes to `netrepro sweep`.
pub fn paper_config(base: u64) -> SweepConfig {
    let list = |csv: &str| csv.split(',').map(str::to_string).collect::<Vec<_>>();
    SweepConfig {
        systems: list("ncflow,arrow,apkeep,ap")
            .iter()
            .filter_map(|s| TargetSystem::parse(s))
            .collect(),
        styles: list("mono,text,pseudo")
            .iter()
            .filter_map(|s| netrepro_core::prompt::PromptStyle::parse(s))
            .collect(),
        seeds: (base..base + SEEDS).collect(),
        profiles: list("none,light,heavy,chaos")
            .iter()
            .filter_map(|s| netrepro_core::fault::FaultProfile::parse(s))
            .collect(),
        scales: vec![TopoScale::Paper],
        limits: TaskLimits::default(),
    }
}

/// How a pass is wired.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wiring {
    /// The CLI default: `min(nproc, 8)` workers, memo on.
    Default,
    /// One worker, memo on.
    OneWorker,
    /// One worker, memo off: the reference the others must match.
    Serial,
}

fn runtime(config: &SweepConfig, wiring: Wiring, tracer: Option<(&Arc<Tracer>, u64)>) -> Sweep {
    let gate = match tracer {
        Some((t, req)) => traced_gate(Arc::clone(t), req),
        None => cli_gate(),
    };
    let workers = if wiring == Wiring::Default {
        host::default_workers()
    } else {
        1
    };
    let sweep = Sweep::new(config.clone())
        .with_workers(workers)
        .with_gate(gate);
    if wiring == Wiring::Serial {
        sweep
    } else {
        sweep.with_cache(CellMemo::shared())
    }
}

/// One pass writing its journal to `path`, as `netrepro sweep --journal`.
fn pass(
    config: &SweepConfig,
    wiring: Wiring,
    path: &Path,
    tracer: Option<(&Arc<Tracer>, u64)>,
) -> Result<SweepReport, String> {
    let sweep = runtime(config, wiring, tracer);
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sink: Box<dyn JournalSink + Send> = Box::new(FileJournal { file });
    if let Some((t, req)) = tracer {
        sink = Box::new(TracedSink {
            inner: sink,
            tracer: Arc::clone(t),
            name: "journal.append",
            req,
        });
    }
    sweep.run(sink.as_mut())
}

/// One seed window: its matrix and serial reference journal.
struct Window {
    base: u64,
    config: SweepConfig,
    reference: Vec<u8>,
}

struct Ctx {
    dir: host::Scratch,
    windows: Vec<Window>,
}

impl Ctx {
    fn journal(&self, i: u64) -> PathBuf {
        self.dir.path().join(format!("pass-{i}.jsonl"))
    }

    fn window(&self, i: u64) -> &Window {
        &self.windows[(i % WINDOWS) as usize]
    }
}

/// Scratch directory, and each window's matrix and serial reference.
fn setup(seed: u64) -> Result<Ctx, String> {
    let dir = host::Scratch::new("sweep")?;
    let bases: Vec<u64> = (0..WINDOWS).map(|w| seed.wrapping_add(w * SEEDS)).collect();
    let windows = host::par_map(&bases, |&base| {
        let config = paper_config(base);
        let path = dir.path().join(format!("reference-{base}.jsonl"));
        pass(&config, Wiring::Serial, &path, None)?;
        let reference = std::fs::read(&path).map_err(|e| e.to_string())?;
        Ok(Window {
            base,
            config,
            reference,
        })
    });
    Ok(Ctx {
        dir,
        windows: windows.into_iter().collect::<Result<_, String>>()?,
    })
}

/// Whether the journal at `path` matches its window's serial reference
/// (and, for seed base 0, the committed golden journal) byte for byte.
/// Removes it.
fn journal_ok(w: &Window, path: &Path, report: &SweepReport) -> bool {
    let got = std::fs::read(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    let golden_ok = w.base != 0
        || std::fs::read("tests/golden/sweep_1344.jsonl").is_ok_and(|g| g == w.reference);
    got == w.reference && golden_ok && report.coverage.consistent()
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let t = closed_loop(
        seconds,
        SETUP_REPS,
        WINDOWS,
        1,
        || setup(seed),
        |ctx, i| {
            pass(
                &ctx.window(i).config,
                Wiring::Default,
                &ctx.journal(i),
                None,
            )
            .map(|r| (i, r))
        },
        |ctx, (i, report)| journal_ok(ctx.window(i), &ctx.journal(i), &report),
    )?;
    Ok(Report::from_timed(&t, params(seed)))
}

fn params(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        (
            "sweep.matrix",
            "ncflow,arrow,apkeep,ap x mono,text,pseudo x 28 seeds x none,light,heavy,chaos".into(),
        ),
        ("sweep.seed_bases", format!("{seed} + 28k, k < {WINDOWS}")),
        ("sweep.workers", host::default_workers().to_string()),
        ("sweep.memo", "on".into()),
    ]
}

/// The traced round: plain passes of each wiring, traced one-worker
/// passes, and a direct `parse_journal` over one pass's journal.
pub fn layers(seed: u64) -> Result<Layers, String> {
    let ctx = setup(seed)?;
    let w = ctx.window(0);
    let tracer = Tracer::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut wall = |wiring: Wiring, traced: bool, i: u64| -> Result<(f64, SweepReport), String> {
        let path = ctx.journal(i);
        let start = Instant::now();
        let report = if traced {
            tracer.span("pass", i, || {
                pass(&w.config, wiring, &path, Some((&tracer, i)))
            })?
        } else {
            pass(&w.config, wiring, &path, None)?
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        failed += u64::from(!journal_ok(w, &path, &report));
        Ok((ms, report))
    };
    let (mut default_ms, mut serial_ms, mut one_ms, mut traced_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for rep in 0..TRACE_REPS as u64 {
        default_ms.push(wall(Wiring::Default, false, 4 * rep)?.0);
        serial_ms.push(wall(Wiring::Serial, false, 4 * rep + 1)?.0);
        one_ms.push(wall(Wiring::OneWorker, false, 4 * rep + 2)?.0);
        let (ms, report) = wall(Wiring::OneWorker, true, 4 * rep + 3)?;
        traced_ms.push(ms);
        last = Some(report);
    }
    let report = last.expect("at least one traced pass");

    let text = String::from_utf8(w.reference.clone()).map_err(|e| e.to_string())?;
    let mut parse_ms = vec![];
    for _ in 0..TRACE_REPS {
        let start = Instant::now();
        let replay = harness::parse_journal(&text, &w.config).map_err(|e| e.to_string())?;
        parse_ms.push(start.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        failed += u64::from(replay.records.len() != w.config.total_cells());
    }

    let spans = tracer.spans();
    let selfs = crate::trace::self_times(&spans);
    let per_pass = |name: &str| -> Vec<f64> {
        (0..TRACE_REPS as u64)
            .map(|rep| {
                let req = 4 * rep + 3;
                spans
                    .iter()
                    .filter(|s| s.req == req && s.name == name)
                    .map(|s| s.dur() as f64)
                    .sum::<f64>()
                    / 1e6
            })
            .collect()
    };
    let session: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "pass")
        .map(|(_, &own)| own as f64 / 1e6)
        .collect();
    let (gate_ms, journal_ms, pass_ms) = (
        per_pass("gate"),
        per_pass("journal.append"),
        per_pass("pass"),
    );
    let accounted: Vec<f64> = (0..TRACE_REPS)
        .map(|i| (session[i] + gate_ms[i] + journal_ms[i]) / pass_ms[i].max(1e-9))
        .collect();
    let reps = TRACE_REPS as f64;
    let (gate_calls, _, _) = crate::trace::totals(&spans, "gate");
    let (appends, _, bytes) = crate::trace::totals(&spans, "journal.append");
    let c = report.coverage;
    let metrics: Vec<Metric> = vec![
        metric("sweep.cells_completed", c.completed as f64, "count"),
        metric("sweep.cells_quarantined", c.quarantined as f64, "count"),
        metric("sweep.cells_skipped", c.skipped_by_breaker as f64, "count"),
        metric("sweep.pass_1w_ms", stats::median(&one_ms), "ms"),
        metric("gate.calls", gate_calls as f64 / reps, "count"),
        metric("gate.busy_ms", stats::median(&gate_ms), "ms"),
        metric("journal.appends", appends as f64 / reps, "count"),
        metric("journal.bytes", bytes as f64 / reps, "bytes"),
        metric("journal.busy_ms", stats::median(&journal_ms), "ms"),
        metric("session.self_ms", stats::median(&session), "ms"),
        metric("sweep.accounted_ratio", stats::median(&accounted), "ratio"),
        metric("journal.parse_ms", stats::median(&parse_ms), "ms"),
        metric(
            "pool.speedup_sweep",
            stats::median(&serial_ms) / stats::median(&default_ms),
            "ratio",
        ),
    ];
    let mut params = params(seed);
    params.push(("sweep.trace_reps", TRACE_REPS.to_string()));
    Ok(Layers {
        metrics,
        overhead: stats::median(&traced_ms) / stats::median(&one_ms),
        attempted,
        failed,
        spans,
        params,
    })
}
