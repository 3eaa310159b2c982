//! `serve-mix`: an in-process `netrepro serve` daemon (scheduler,
//! `FileStorage`, loopback TCP) driven open-loop by one generator
//! thread over two connections. Four tenants submit seeded sweep jobs
//! of 8 to 300 cells whose matrices overlap, so the shared memo answers
//! many cells; each job is timed from when it was due until its report
//! is fetched.

use crate::stats::{self, Arrival, Rung};
use crate::trace::{cli_gate, totals, TracedStorage, Tracer};
use crate::{host, metric, Layers, Metric, Report, SETUP_REPS};
use netrepro_core::cache::CellMemo;
use netrepro_core::harness::{MemoryJournal, Sweep, SweepConfig};
use netrepro_rps::{JobResponse, JobState, RejectReason};
use netrepro_serve::{
    Daemon, FileStorage, JobClient, JobSpec, JobStorage, RuntimeFactory, SchedConfig, Scheduler,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants sharing the daemon.
const TENANTS: u64 = 4;
/// Job sizes in cells, each used once per eight jobs in seeded order,
/// so every seed offers the same size mix.
const SIZES: [u64; 8] = [8, 16, 32, 48, 96, 144, 200, 300];
/// The nominal offered rate, jobs per second, at which the end-to-end
/// latency is measured.
pub const NOMINAL_RATE: f64 = 8.0;
/// Jobs due in the first second only warm the daemon (memo, page
/// cache) and are not timed.
pub const WARMUP_S: f64 = 1.0;
/// The rate ladder, jobs per second.
pub const LADDER: [f64; 5] = [8.0, 16.0, 32.0, 64.0, 128.0];
/// Seconds each ladder rung runs.
pub const RUNG_S: f64 = 1.5;
/// The tail-latency limit a rung must meet, in ms.
pub const TAIL_LIMIT_MS: f64 = 250.0;
/// Share of arrivals that may pile up before a backlog counts as growing.
pub const BACKLOG_SHARE: f64 = 0.1;
/// Seconds of each nominal-rate segment in the traced round.
const SEGMENT_S: f64 = 5.0;
/// Interval between status polls of outstanding jobs.
const POLL: Duration = Duration::from_millis(2);
/// Longest the generator waits for outstanding jobs after the last is due.
const DRAIN_S: f64 = 30.0;

/// One job to submit.
#[derive(Debug, Clone)]
struct Plan {
    tenant: String,
    spec: String,
    /// Cells in the job's matrix: its entry of [`SIZES`], rounded up to
    /// whole seeds.
    cells: u64,
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `k` distinct items of `pool`, `1 ≤ k ≤ max`, in seeded order.
fn pick(rng: &mut u64, pool: &[&str], max: usize) -> Vec<String> {
    let take = 1 + (splitmix(rng) as usize) % max.min(pool.len());
    let mut v: Vec<&str> = pool.to_vec();
    for i in 0..take {
        let j = i + (splitmix(rng) as usize) % (v.len() - i);
        v.swap(i, j);
    }
    v[..take].iter().map(|s| s.to_string()).collect()
}

/// `n` seeded jobs. Each picks random subsets of systems, styles and
/// profiles, then the fewest seeds that reach its size. Seeds always start at
/// 0, so jobs sharing a subset repeat each other's cells.
fn mix(seed: u64, n: usize) -> Vec<Plan> {
    const SYSTEMS: [&str; 5] = ["ncflow", "arrow", "apkeep", "ap", "rps"];
    const STYLES: [&str; 3] = ["mono", "text", "pseudo"];
    const PROFILES: [&str; 4] = ["none", "light", "heavy", "chaos"];
    let mut rng = seed ^ 0x5e12_7e00_0000_0001;
    let mut order = SIZES;
    (0..n)
        .map(|i| {
            if i % SIZES.len() == 0 {
                for a in (1..order.len()).rev() {
                    order.swap(a, (splitmix(&mut rng) as usize) % (a + 1));
                }
            }
            let target = order[i % SIZES.len()];
            let (sys, sty, prof) = loop {
                let picked = (
                    pick(&mut rng, &SYSTEMS, 3),
                    pick(&mut rng, &STYLES, 3),
                    pick(&mut rng, &PROFILES, 4),
                );
                if ((picked.0.len() * picked.1.len() * picked.2.len()) as u64) <= target {
                    break picked;
                }
            };
            let per_seed = (sys.len() * sty.len() * prof.len()) as u64;
            let seeds = target.div_ceil(per_seed);
            Plan {
                tenant: format!("tenant{}", i as u64 % TENANTS),
                spec: format!(
                    "systems={};styles={};profiles={};seeds={seeds}",
                    sys.join("+"),
                    sty.join("+"),
                    prof.join("+")
                ),
                cells: per_seed * seeds,
            }
        })
        .collect()
}

/// The daemon's per-job runtime, wired as `netrepro serve` wires it:
/// the CLI gate and one memo shared by every job.
fn factory(memo: Arc<CellMemo>) -> RuntimeFactory {
    Arc::new(move |config: &SweepConfig| {
        Sweep::new(config.clone())
            .with_gate(cli_gate())
            .with_cache(Arc::clone(&memo))
    })
}

/// A started daemon: scheduler workers running, listener bound.
struct Running {
    sched: Arc<Scheduler>,
    workers: Vec<std::thread::JoinHandle<()>>,
    daemon: Daemon,
    memo: Arc<CellMemo>,
    storage: FileStorage,
    _dir: host::Scratch,
}

/// Set-up as `netrepro serve` does it: open the state directory,
/// recover the ledger, start the workers, bind loopback.
fn start(tag: &str, tracer: Option<&Arc<Tracer>>) -> Result<Running, String> {
    let dir = host::Scratch::new(tag)?;
    let storage = FileStorage::open(dir.path().join("state"))?;
    let store: Arc<dyn JobStorage> = match tracer {
        Some(t) => Arc::new(TracedStorage {
            inner: storage.clone(),
            tracer: Arc::clone(t),
        }),
        None => Arc::new(storage.clone()),
    };
    let memo = CellMemo::shared();
    let cfg = SchedConfig {
        workers: host::default_workers(),
        ..SchedConfig::default()
    };
    let sched = Arc::new(Scheduler::recover(cfg, factory(Arc::clone(&memo)), store)?);
    let workers = sched.start_workers();
    let daemon = Daemon::bind("127.0.0.1:0", Arc::clone(&sched))?;
    Ok(Running {
        sched,
        workers,
        daemon,
        memo,
        storage,
        _dir: dir,
    })
}

impl Running {
    fn stop(self) {
        self.sched.shutdown();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// What one generator run saw.
#[derive(Debug, Default)]
struct Drive {
    /// Completed jobs: plan index, job id, timing, report payload.
    done: Vec<(usize, u64, Arrival, String)>,
    /// Refusals by reason: queue-full, over-quota, breaker-open, too-large.
    rejected: [u64; 4],
    /// Jobs that errored or ended in another state than `done`.
    failed: u64,
    /// Client-side round trip of every request, in µs.
    rtt_us: Vec<f64>,
    /// `(time, outstanding jobs)` after each poll sweep.
    backlog: Vec<(f64, f64)>,
}

fn wire(e: netrepro_rps::ProtocolError) -> String {
    format!("job protocol: {e}")
}

/// Serve `run`'s listener on two connections while one generator
/// thread submits `plans[i]` when `due[i]` seconds have passed, polls
/// outstanding jobs, and fetches each report once its job is done.
/// `nonce0` keeps nonces unique across calls on one daemon.
fn drive(run: &Running, plans: &[Plan], due: &[f64], nonce0: u64) -> Result<Drive, String> {
    let addr = run.daemon.local_addr()?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| run.daemon.serve_connections(2));
        // Connect both before anything else can fail: the server's
        // accept loop waits for exactly two connections.
        let submit = JobClient::connect(addr).map_err(wire);
        let poll = JobClient::connect(addr).map_err(wire);
        let out = match (submit, poll) {
            (Ok(mut s), Ok(mut p)) => generate(&mut s, &mut p, plans, due, nonce0),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        server
            .join()
            .map_err(|_| "server thread panicked".to_string())??;
        out
    })
}

fn generate(
    submit: &mut JobClient,
    poll: &mut JobClient,
    plans: &[Plan],
    due: &[f64],
    nonce0: u64,
) -> Result<Drive, String> {
    struct Pending {
        idx: usize,
        id: u64,
        due: f64,
        sent: f64,
    }
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let deadline = due.last().copied().unwrap_or(0.0) + DRAIN_S;
    let mut d = Drive::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    loop {
        if next < due.len() && due[next] <= now() {
            let plan = &plans[next];
            let sent = now();
            let began = Instant::now();
            let resp = submit
                .submit(&plan.tenant, nonce0 + next as u64, &plan.spec)
                .map_err(wire)?;
            d.rtt_us.push(began.elapsed().as_secs_f64() * 1e6);
            match resp {
                JobResponse::Accepted(id) => pending.push(Pending {
                    idx: next,
                    id,
                    due: due[next],
                    sent,
                }),
                JobResponse::Rejected(reason) => {
                    d.rejected[match reason {
                        RejectReason::QueueFull => 0,
                        RejectReason::TenantOverQuota => 1,
                        RejectReason::TenantBreakerOpen => 2,
                        RejectReason::PayloadTooLarge => 3,
                    }] += 1
                }
                other => {
                    eprintln!("submit refused: {}", other.wire().trim_end());
                    d.failed += 1;
                }
            }
            next += 1;
            continue;
        }
        if next == due.len() && pending.is_empty() {
            return Ok(d);
        }
        if now() > deadline {
            d.failed += pending.len() as u64;
            return Ok(d);
        }
        let mut i = 0;
        while i < pending.len() {
            let p = &pending[i];
            let began = Instant::now();
            let status = poll.status(p.id).map_err(wire)?;
            d.rtt_us.push(began.elapsed().as_secs_f64() * 1e6);
            match status {
                JobResponse::State {
                    state: JobState::Done,
                    ..
                } => {
                    let began = Instant::now();
                    let payload = poll.results(p.id).map_err(wire)?;
                    d.rtt_us.push(began.elapsed().as_secs_f64() * 1e6);
                    match payload {
                        Ok(json) => {
                            let at = Arrival {
                                due: p.due,
                                sent: p.sent,
                                done: now(),
                            };
                            d.done.push((p.idx, p.id, at, json));
                        }
                        Err(_) => d.failed += 1,
                    }
                    pending.swap_remove(i);
                }
                JobResponse::State { state, .. } if !state.is_live() => {
                    d.failed += 1;
                    pending.swap_remove(i);
                }
                _ => i += 1,
            }
        }
        d.backlog.push((now(), pending.len() as f64));
        let wait = if next < due.len() {
            (due[next] - now()).min(POLL.as_secs_f64())
        } else {
            POLL.as_secs_f64()
        };
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// Due times (seconds from the start) of `n` jobs at `rate` per second.
fn schedule(rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    (0..n).map(|i| i as f64 / rate).collect()
}

/// One-shot journals and reports, keyed by spec, for the byte checks.
#[derive(Default)]
struct OneShot(BTreeMap<String, (String, String)>);

impl OneShot {
    /// One-shot runs of every distinct spec in `plans`.
    fn prepare(plans: &[Plan]) -> Result<OneShot, String> {
        let mut specs: Vec<&str> = plans.iter().map(|p| p.spec.as_str()).collect();
        specs.sort_unstable();
        specs.dedup();
        let runs = host::par_map(&specs, |spec| -> Result<(String, String), String> {
            let config = JobSpec::parse(spec).map_err(|e| e.to_string())?.config;
            let mut sink = MemoryJournal::new();
            let report = Sweep::new(config).with_gate(cli_gate()).run(&mut sink)?;
            Ok((sink.text().to_string(), report.render_json()))
        });
        let mut cache = OneShot::default();
        for (spec, run) in specs.into_iter().zip(runs) {
            cache.0.insert(spec.to_string(), run?);
        }
        Ok(cache)
    }

    /// Whether job `id`'s journal on disk and its fetched report are
    /// byte-identical to a one-shot `Sweep::run` of the same spec.
    fn matches(&mut self, storage: &FileStorage, spec: &str, id: u64, report: &str) -> bool {
        if !self.0.contains_key(spec) {
            let Ok(parsed) = JobSpec::parse(spec) else {
                return false;
            };
            let mut sink = MemoryJournal::new();
            let Ok(r) = Sweep::new(parsed.config)
                .with_gate(cli_gate())
                .run(&mut sink)
            else {
                return false;
            };
            self.0
                .insert(spec.to_string(), (sink.text().to_string(), r.render_json()));
        }
        let (journal, rendered) = &self.0[spec];
        let on_disk = std::fs::read_to_string(storage.journal_path(id)).unwrap_or_default();
        on_disk == *journal && report == rendered
    }

    /// Count the jobs of `d` that fail the byte check.
    fn failures(&mut self, storage: &FileStorage, plans: &[Plan], d: &Drive) -> u64 {
        d.done
            .iter()
            .filter(|(idx, id, _, report)| !self.matches(storage, &plans[*idx].spec, *id, report))
            .count() as u64
    }
}

fn ms(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    xs.map(|s| s * 1e3).collect()
}

/// The end-to-end run: set up (daemon start plus the one-shot runs the
/// jobs are checked against), warm up, then the nominal rate until
/// `seconds`. `latency_ms` is the median latency of the timed jobs;
/// every seed's mix holds each job size equally often.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let due = schedule(NOMINAL_RATE, seconds.max(WARMUP_S + 1.0));
    let plans = mix(seed, due.len());
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some((r, _)) = ready.take() {
            Running::stop(r);
        }
        let began = Instant::now();
        let running = start("serve", None)?;
        let one_shot = OneShot::prepare(&plans);
        setup_s.push(began.elapsed().as_secs_f64());
        match one_shot {
            Ok(o) => ready = Some((running, o)),
            Err(e) => {
                running.stop();
                return Err(e);
            }
        }
    }
    let (running, mut one_shot) = ready.expect("at least one set-up ran");
    let cpu = host::cpu_seconds();
    let d = drive(&running, &plans, &due, 0);
    let cpu_s = host::cpu_seconds() - cpu;
    let d = match d {
        Ok(d) => d,
        Err(e) => {
            running.stop();
            return Err(e);
        }
    };
    let latencies: Vec<f64> = ms(d
        .done
        .iter()
        .filter(|x| x.2.due >= WARMUP_S)
        .map(|x| x.2.latency()));
    let refused: u64 = d.rejected.iter().sum();
    let mismatched = one_shot.failures(&running.storage, &plans, &d);
    running.stop();
    if let Some((p, v)) = stats::tail(&latencies) {
        eprintln!(
            "serve-mix: {} timed jobs, p50 {:.2} ms, p{p} {v:.2} ms",
            latencies.len(),
            stats::median(&latencies)
        );
    }
    let lags = ms(d.done.iter().map(|x| x.2.lag()));
    eprintln!(
        "serve-mix: generator lag p50 {:.3} ms, max {:.3} ms",
        stats::median(&lags),
        lags.iter().copied().fold(0.0, f64::max)
    );
    let metrics = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("latency_ms", stats::median(&latencies), "ms"),
        metric(
            "cpu_ms_per_op",
            cpu_s * 1e3 / d.done.len().max(1) as f64,
            "ms",
        ),
        metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
    ];
    let mut params = params(seed, seconds);
    let cells: u64 = plans.iter().map(|p| p.cells).sum();
    params.push(("serve.jobs", plans.len().to_string()));
    params.push((
        "serve.mean_job_cells",
        format!("{:.1}", cells as f64 / plans.len() as f64),
    ));
    Ok(Report {
        attempted: due.len() as u64,
        failed: d.failed + refused + mismatched,
        metrics,
        params,
        trace: Vec::new(),
    })
}

fn params(seed: u64, seconds: f64) -> Vec<(&'static str, String)> {
    vec![
        ("serve.mix_seed", seed.to_string()),
        ("serve.tenants", TENANTS.to_string()),
        ("serve.job_cells", format!("{SIZES:?}")),
        ("serve.nominal_rate", NOMINAL_RATE.to_string()),
        ("serve.warmup_s", WARMUP_S.to_string()),
        ("serve.ladder", format!("{LADDER:?}")),
        ("serve.rung_s", RUNG_S.to_string()),
        ("serve.tail_limit_ms", TAIL_LIMIT_MS.to_string()),
        ("serve.seconds", seconds.to_string()),
        ("serve.workers", host::default_workers().to_string()),
        ("serve.connections", "2".into()),
    ]
}

/// The traced round: the rate ladder (untraced), then one nominal-rate
/// segment with traced storage and one without, on fresh daemons.
pub fn layers(seed: u64, seconds: f64) -> Result<Layers, String> {
    let mut one_shot = OneShot::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rejected = [0u64; 4];

    // Ladder: one daemon, a warm-up, then ascending rungs until one
    // misses the limit. Rungs drain before the next starts.
    let ladder = start("ladder", None)?;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut nonce = 0u64;
    let result = (|| -> Result<(), String> {
        let mut steps = vec![(LADDER[0], WARMUP_S, false)];
        steps.extend(LADDER.iter().map(|&r| (r, RUNG_S, true)));
        for (k, (rate, secs, timed)) in steps.into_iter().enumerate() {
            let due = schedule(rate, secs);
            let plans = mix(seed.wrapping_add(k as u64 * 7919), due.len());
            let d = drive(&ladder, &plans, &due, nonce)?;
            nonce += due.len() as u64;
            attempted += d.done.len() as u64;
            failed += one_shot.failures(&ladder.storage, &plans, &d);
            for (r, n) in rejected.iter_mut().zip(d.rejected) {
                *r += n;
            }
            if !timed {
                continue;
            }
            let rung = Rung {
                rate,
                latencies_ms: ms(d.done.iter().map(|x| x.2.latency())),
                failed: d.failed + d.rejected.iter().sum::<u64>(),
                backlog_growing: stats::backlog_growing(&d.backlog, rate, BACKLOG_SHARE),
            };
            let met = rung.meets(TAIL_LIMIT_MS);
            rungs.push(rung);
            if !met {
                break;
            }
        }
        Ok(())
    })();
    ladder.stop();
    result?;

    // Nominal segments: identical schedules, traced then plain.
    let due = schedule(NOMINAL_RATE, SEGMENT_S.min(seconds.max(1.0)));
    let plans = mix(seed, due.len());
    let tracer = Tracer::new();
    let traced = start("traced", Some(&tracer))?;
    let t = drive(&traced, &plans, &due, 0);
    let memo = traced.memo.work_stats();
    let t = t.inspect(|t| failed += one_shot.failures(&traced.storage, &plans, t));
    traced.stop();
    let t = t?;
    let plain = start("plain", None)?;
    let p = drive(&plain, &plans, &due, 0);
    let p = p.inspect(|p| failed += one_shot.failures(&plain.storage, &plans, p));
    plain.stop();
    let p = p?;
    attempted += (t.done.len() + p.done.len()) as u64;
    failed += t.failed + p.failed;
    for d in [&t, &p] {
        for (r, n) in rejected.iter_mut().zip(d.rejected) {
            *r += n;
        }
    }

    let spans = tracer.spans();
    let first = |name: &str, job: u64, end: bool| -> Option<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.req == job)
            .map(|s| if end { s.end } else { s.start })
            .min()
            .map(|ns| ns as f64 / 1e6)
    };
    let (mut waits, mut services) = (Vec::new(), Vec::new());
    for &(_, id, _, _) in &t.done {
        if let (Some(ack), Some(open), Some(done)) = (
            first("storage.ledger_submit", id, true),
            first("storage.open", id, false),
            first("storage.ledger_done", id, false),
        ) {
            waits.push(open - ack);
            services.push(done - open);
        }
    }
    let sum3 = |names: &[&str]| {
        names
            .iter()
            .map(|n| totals(&spans, n))
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    };
    let (ledger_n, ledger_ns, _) = sum3(&[
        "storage.ledger_submit",
        "storage.ledger_done",
        "storage.ledger_header",
    ]);
    let (append_n, append_ns, append_bytes) = totals(&spans, "storage.append");
    let (_, load_ns, load_bytes) = totals(&spans, "storage.load");
    let lat_t = ms(t.done.iter().map(|x| x.2.latency()));
    let lat_p = ms(p.done.iter().map(|x| x.2.latency()));
    let lag_p = ms(p.done.iter().map(|x| x.2.lag()));
    let (tail_pct, tail_ms) =
        stats::tail(&lat_p).unwrap_or((100.0, lat_p.iter().copied().fold(0.0, f64::max)));
    let hits = memo.hits as f64;
    let lookups = (memo.hits + memo.misses) as f64;
    let metrics: Vec<Metric> = vec![
        metric("rps.request_p50_us", stats::median(&t.rtt_us), "us"),
        metric("sched.queue_wait_p50_ms", stats::median(&waits), "ms"),
        metric(
            "sched.queue_wait_tail_ms",
            stats::tail(&waits).map_or(0.0, |x| x.1),
            "ms",
        ),
        metric("sched.service_p50_ms", stats::median(&services), "ms"),
        metric("sched.rejected_queue_full", rejected[0] as f64, "count"),
        metric("sched.rejected_over_quota", rejected[1] as f64, "count"),
        metric("sched.rejected_breaker_open", rejected[2] as f64, "count"),
        metric("sched.rejected_too_large", rejected[3] as f64, "count"),
        metric("storage.ledger_appends", ledger_n as f64, "count"),
        metric("storage.ledger_ms", ledger_ns as f64 / 1e6, "ms"),
        metric("storage.journal_appends", append_n as f64, "count"),
        metric("storage.journal_bytes", append_bytes as f64, "bytes"),
        metric("storage.journal_ms", append_ns as f64 / 1e6, "ms"),
        metric("storage.load_bytes", load_bytes as f64, "bytes"),
        metric("storage.load_ms", load_ns as f64 / 1e6, "ms"),
        metric(
            "storage.reread_ratio",
            load_bytes as f64 / (append_bytes as f64).max(1.0),
            "ratio",
        ),
        metric("memo.misses", memo.misses as f64, "count"),
        metric("memo.hits", hits, "count"),
        metric(
            "memo.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        metric("serve.jobs_measured", lat_p.len() as f64, "count"),
        metric("serve.job_p50_ms", stats::median(&lat_p), "ms"),
        metric("serve.job_tail_ms", tail_ms, "ms"),
        metric("serve.job_tail_pct", tail_pct, "percentile"),
        metric(
            "serve.ladder_rungs_met",
            rungs.iter().filter(|r| r.meets(TAIL_LIMIT_MS)).count() as f64,
            "count",
        ),
        metric(
            "serve.max_jobs_per_s",
            stats::max_rate(&rungs, TAIL_LIMIT_MS),
            "jobs/s",
        ),
        metric("loadgen.lag_p50_ms", stats::median(&lag_p), "ms"),
        metric(
            "loadgen.lag_tail_ms",
            stats::tail(&lag_p).map_or(lag_p.iter().copied().fold(0.0, f64::max), |x| x.1),
            "ms",
        ),
    ];
    Ok(Layers {
        metrics,
        overhead: stats::median(&lat_t) / stats::median(&lat_p).max(1e-9),
        attempted,
        failed,
        spans,
        params: params(seed, seconds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_sized() {
        let a = mix(7, 64);
        let b = mix(7, 64);
        assert_eq!(
            a.iter().map(|p| &p.spec).collect::<Vec<_>>(),
            b.iter().map(|p| &p.spec).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|p| &p.spec).collect::<Vec<_>>(),
            mix(8, 64).iter().map(|p| &p.spec).collect::<Vec<_>>()
        );
        for p in &a {
            // At most 3 systems × 3 styles × 4 profiles cells per seed.
            assert!(
                (8..300 + 36).contains(&p.cells),
                "{} has {} cells",
                p.spec,
                p.cells
            );
            let config = JobSpec::parse(&p.spec).expect("spec parses").config;
            assert_eq!(config.total_cells() as u64, p.cells);
        }
    }
}
