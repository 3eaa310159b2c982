//! `layerbench` — the netrepro benchmark: four seeded workloads, each
//! driven through the same public entry points its CLI subcommand
//! calls, measured end to end with tracing off, and split into layers
//! by a separate traced run.
//!
//! ```text
//! layerbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the named workload for `--seconds`
//! and reports its end-to-end metrics. With `--trace 1` it makes one
//! traced round over every workload's layers and reports the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when any output check failed. See `README.md`.

mod dpv;
mod host;
mod serve;
mod stats;
mod sweep;
mod te;
mod trace;

use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["sweep-paper", "dpv-ft16", "te-lp100", "serve-mix"];

/// End-to-end metrics every workload reports with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Times each workload repeats its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a closed-loop workload measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Each timed operation: its input class and latency in ms.
    pub samples: Vec<(u64, f64)>,
    /// Process CPU seconds over the timed section.
    pub cpu_s: f64,
    /// Operations run (the untimed warm-up included).
    pub attempted: u64,
    /// Operations that errored or failed their output check.
    pub failed: u64,
}

impl Timed {
    /// The end-to-end metrics of [`END_TO_END`].
    pub fn end_to_end(&self) -> Vec<Metric> {
        let ops = self.samples.len().max(1) as f64;
        vec![
            metric("setup_s", stats::median(&self.setup_s), "s"),
            metric("latency_ms", stats::median_of_medians(&self.samples), "ms"),
            metric("cpu_ms_per_op", self.cpu_s * 1e3 / ops, "ms"),
            metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        ]
    }

    fn record<O>(&mut self, outcome: Result<O, String>, check: impl FnOnce(O) -> bool) {
        self.attempted += 1;
        match outcome {
            Ok(out) => self.failed += u64::from(!check(out)),
            Err(e) => {
                eprintln!("operation failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Run a closed-loop workload: `setup` `setup_reps` times (keeping the
/// last context), one untimed warm-up `op`, then `threads` client
/// threads each running `op`s back to back until `seconds` have passed.
/// Operation `i` works on input `i % inputs`; `check` validates each
/// output outside the operation's timing.
pub fn closed_loop<C: Sync, O>(
    seconds: f64,
    setup_reps: usize,
    inputs: u64,
    threads: usize,
    mut setup: impl FnMut() -> Result<C, String>,
    op: impl Fn(&C, u64) -> Result<O, String> + Sync,
    check: impl Fn(&C, O) -> bool + Sync,
) -> Result<Timed, String> {
    let mut t = Timed::default();
    let mut ctx = None;
    for _ in 0..setup_reps.max(1) {
        drop(ctx.take());
        let start = Instant::now();
        ctx = Some(setup()?);
        t.setup_s.push(start.elapsed().as_secs_f64());
    }
    let ctx = ctx.expect("at least one set-up ran");
    t.record(op(&ctx, 0), |o| check(&ctx, o));
    let threads = threads.max(1) as u64;
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let clients: Vec<Timed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let (op, check, ctx) = (&op, &check, &ctx);
                s.spawn(move || {
                    let mut mine = Timed::default();
                    let mut i = 1 + k;
                    while mine.samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
                        let began = Instant::now();
                        let out = op(ctx, i);
                        let ms = began.elapsed().as_secs_f64() * 1e3;
                        if out.is_ok() {
                            mine.samples.push((i % inputs.max(1), ms));
                        }
                        mine.record(out, |o| check(ctx, o));
                        if mine.attempted > 3 && mine.samples.is_empty() {
                            break;
                        }
                        i += threads;
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    t.cpu_s = host::cpu_seconds() - cpu;
    for c in clients {
        t.samples.extend(c.samples);
        t.attempted += c.attempted;
        t.failed += c.failed;
    }
    if t.samples.is_empty() {
        return Err("every operation failed".into());
    }
    Ok(t)
}

/// A workload's result: the counts, the metrics, its parameters for the
/// manifest, and any trace lines to write.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (errored, refused, or failed a check).
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Workload parameters for the manifest.
    pub params: Vec<(&'static str, String)>,
    /// Trace lines (JSON objects) for the traced run.
    pub trace: Vec<String>,
}

impl Report {
    /// Fold `t`'s counts and end-to-end metrics into a report.
    pub fn from_timed(t: &Timed, params: Vec<(&'static str, String)>) -> Report {
        Report {
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.end_to_end(),
            params,
            trace: Vec::new(),
        }
    }
}

/// Per-layer metric names the traced run reports, with units. Kept in
/// step with `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("sweep.cells_completed", "count"),
    ("sweep.cells_quarantined", "count"),
    ("sweep.cells_skipped", "count"),
    ("sweep.pass_1w_ms", "ms"),
    ("gate.calls", "count"),
    ("gate.busy_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.busy_ms", "ms"),
    ("session.self_ms", "ms"),
    ("sweep.accounted_ratio", "ratio"),
    ("journal.parse_ms", "ms"),
    ("pool.speedup_sweep", "ratio"),
    ("pool.speedup_dpv", "ratio"),
    ("memo.misses", "count"),
    ("memo.hits", "count"),
    ("memo.hit_ratio", "ratio"),
    ("fabric.build_ms", "ms"),
    ("fabric.devices", "count"),
    ("scale.verify_busy_ms", "ms"),
    ("scale.dest_p50_us", "us"),
    ("scale.dest_max_us", "us"),
    ("scale.partition_max_over_mean", "ratio"),
    ("dpv_scale.merge_render_ms", "ms"),
    ("paths.tunnels_ms", "ms"),
    ("te.model_ms", "ms"),
    ("lp.presolve_ms", "ms"),
    ("lp.standardize_ms", "ms"),
    ("lp.solve_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("te.mcf_ms", "ms"),
    ("te.ncflow_ms", "ms"),
    ("ncflow.partition_ms", "ms"),
    ("ncflow.lp_calls", "count"),
    ("ncflow.lp_ms", "ms"),
    ("ncflow.pivots", "count"),
    ("ncflow.self_ms", "ms"),
    ("rps.request_p50_us", "us"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.queue_wait_tail_ms", "ms"),
    ("sched.service_p50_ms", "ms"),
    ("sched.rejected_queue_full", "count"),
    ("sched.rejected_over_quota", "count"),
    ("sched.rejected_breaker_open", "count"),
    ("sched.rejected_too_large", "count"),
    ("storage.ledger_appends", "count"),
    ("storage.ledger_ms", "ms"),
    ("storage.journal_appends", "count"),
    ("storage.journal_bytes", "bytes"),
    ("storage.journal_ms", "ms"),
    ("storage.load_bytes", "bytes"),
    ("storage.load_ms", "ms"),
    ("storage.reread_ratio", "ratio"),
    ("serve.jobs_measured", "count"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("serve.job_tail_pct", "percentile"),
    ("serve.ladder_rungs_met", "count"),
    ("serve.max_jobs_per_s", "jobs/s"),
    ("loadgen.lag_p50_ms", "ms"),
    ("loadgen.lag_tail_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.overhead_sweep", "ratio"),
    ("trace.overhead_dpv", "ratio"),
    ("trace.overhead_te", "ratio"),
    ("trace.overhead_serve", "ratio"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2023,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Report, String> {
    let seconds = args.seconds as f64;
    if args.trace {
        return traced_round(&args.workload, args.seed, seconds);
    }
    match args.workload.as_str() {
        "sweep-paper" => sweep::run(args.seed, seconds),
        "dpv-ft16" => dpv::run(args.seed, seconds),
        "te-lp100" => te::run(args.seed, seconds),
        "serve-mix" => serve::run(args.seed, seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Per-layer results of one workload's traced section.
pub struct Layers {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Traced wall time over plain wall time for the same work.
    pub overhead: f64,
    /// Output checks attempted and failed in the section.
    pub attempted: u64,
    /// Failed checks.
    pub failed: u64,
    /// The section's spans.
    pub spans: Vec<trace::Span>,
    /// Section parameters for the manifest.
    pub params: Vec<(&'static str, String)>,
}

/// One traced round over every workload's layers. `workload` picks the
/// overhead ratio reported as `trace.overhead_ratio`.
fn traced_round(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let sections: [(&str, Layers); 4] = [
        ("sweep", sweep::layers(seed)?),
        ("dpv", dpv::layers(seed)?),
        ("te", te::layers(seed)?),
        ("serve", serve::layers(seed, seconds)?),
    ];
    let mut report = Report::default();
    let mut spans_total = 0u64;
    for (section, layers) in &sections {
        report.attempted += layers.attempted;
        report.failed += layers.failed;
        report.metrics.extend(layers.metrics.iter().cloned());
        report.metrics.push(metric(
            format!("trace.overhead_{section}"),
            layers.overhead,
            "ratio",
        ));
        report.params.extend(layers.params.iter().cloned());
        spans_total += layers.spans.len() as u64;
        report.trace.push(format!(
            "{{\"section\": {}, \"overhead_ratio\": {}, \"spans\": {}}}",
            host::json_str(section),
            layers.overhead,
            layers.spans.len()
        ));
        let selfs = trace::self_times(&layers.spans);
        for (s, own) in layers.spans.iter().zip(selfs) {
            report.trace.push(format!(
                "{{\"section\": {}, \"id\": {}, \"parent\": {}, \"req\": {}, \"name\": {}, \
                 \"start_us\": {:.3}, \"dur_us\": {:.3}, \"self_us\": {:.3}, \"amount\": {}}}",
                host::json_str(section),
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.req,
                host::json_str(s.name),
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                own as f64 / 1e3,
                s.amount
            ));
        }
    }
    let key = match workload {
        "sweep-paper" => "sweep",
        "dpv-ft16" => "dpv",
        "te-lp100" => "te",
        _ => "serve",
    };
    let own = sections
        .iter()
        .find(|(s, _)| *s == key)
        .map_or(1.0, |(_, l)| l.overhead);
    report
        .metrics
        .push(metric("trace.overhead_ratio", own, "ratio"));
    report
        .metrics
        .push(metric("trace.spans", spans_total as f64, "count"));
    Ok(report)
}

/// Check that `metrics` are exactly the names in `expected`, in order.
fn conform(metrics: &mut Vec<Metric>, expected: &[(&str, &str)]) -> Result<(), String> {
    let mut out = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit || !m.value.is_finite() {
            return Err(format!(
                "metric {name}: bad unit {} or value {}",
                m.unit, m.value
            ));
        }
        out.push(m.clone());
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| !expected.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not declared", extra.name));
    }
    *metrics = out;
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: layerbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = conform(&mut report.metrics, expected) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let manifest = host::manifest(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &report.params,
    );
    println!("{manifest}");
    for m in &report.metrics {
        println!(
            "{:<12} {:<32} {:>16.4} {}",
            args.workload, m.name, m.value, m.unit
        );
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::json_str(&m.name),
                m.value,
                host::json_str(m.unit)
            )
        })
        .collect();
    let correct = report.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = host::out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        std::fs::write(
            dir.join(format!("result-{stem}.json")),
            format!("{manifest}\n{line}\n"),
        )?;
        if args.trace {
            let mut text = manifest.clone();
            for l in &report.trace {
                text.push('\n');
                text.push_str(l);
            }
            text.push('\n');
            std::fs::write(dir.join(format!("trace-{stem}.jsonl")), text)?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("warning: cannot write results under {}: {e}", dir.display());
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
