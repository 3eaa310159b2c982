//! `dpv-ft16`: `netrepro dpv-scale` on a k=16 fat tree — 1,344
//! devices, six severed links, all 1,024 destinations, four partitions.

use crate::trace::Tracer;
use crate::{closed_loop, host, metric, stats, Layers, Report};
use netrepro_bdd::EngineProfile;
use netrepro_core::dpv_scale::{run_spec, spec_dests, DpvScaleReport, DpvScaleSpec};
use netrepro_dpv::fabric::{build, FabricSpec};
use netrepro_dpv::scale::{digest, partition_ranges, render, verify_destinations, ScaleOpts};
use std::time::Instant;

/// Fat-tree arity.
const K: usize = 16;
/// Directed links severed (blackhole churn).
const LINK_DOWN: usize = 6;
/// Destination partitions, each with a private BDD manager.
const PARTITIONS: usize = 4;
/// Fabrics per run, verified round-robin: fabric seeds `seed` and
/// `seed + 1`. Which links go down shifts the work by up to a fifth, so
/// two fabrics keep one seed's draw from setting the run's figure.
const FABRICS: u64 = 2;
/// Set-up repeats: each one runs both serial references (a second each,
/// side by side).
const SETUP_REPS: usize = 2;

fn spec(seed: u64) -> DpvScaleSpec {
    DpvScaleSpec {
        link_down: LINK_DOWN,
        partitions: PARTITIONS,
        workers: host::default_workers(),
        ..DpvScaleSpec::new(K, seed)
    }
}

fn serial(seed: u64) -> DpvScaleSpec {
    DpvScaleSpec {
        partitions: 1,
        workers: 1,
        ..spec(seed)
    }
}

struct Ctx {
    dir: host::Scratch,
    /// Serial rendering of each fabric, by fabric index.
    references: Vec<String>,
}

/// The summary `dpv-scale --out` writes.
fn write_summary(
    dir: &host::Scratch,
    i: u64,
    spec: &DpvScaleSpec,
    r: &DpvScaleReport,
) -> Result<(), String> {
    let json = format!(
        "{{\"k\": {}, \"devices\": {}, \"queried\": {}, \"partitions\": {}, \"workers\": {}, \
         \"link_down\": {}, \"digest\": \"{:016x}\"}}\n",
        spec.k, r.devices, r.queried, spec.partitions, spec.workers, spec.link_down, r.digest
    );
    std::fs::write(dir.path().join(format!("dpv-{i}.json")), json).map_err(|e| e.to_string())
}

fn setup(seed: u64) -> Result<Ctx, String> {
    let dir = host::Scratch::new("dpv")?;
    let seeds: Vec<u64> = (0..FABRICS).map(|j| seed.wrapping_add(j)).collect();
    let references = host::par_map(&seeds, |&s| {
        run_spec(&serial(s))
            .map(|r| r.rendered)
            .map_err(|e| e.to_string())
    });
    Ok(Ctx {
        dir,
        references: references.into_iter().collect::<Result<_, _>>()?,
    })
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let t = closed_loop(
        seconds,
        SETUP_REPS,
        FABRICS,
        1,
        || setup(seed),
        |ctx, i| {
            let spec = spec(seed.wrapping_add(i % FABRICS));
            let r = run_spec(&spec).map_err(|e| e.to_string())?;
            write_summary(&ctx.dir, i, &spec, &r)?;
            Ok((i % FABRICS, r))
        },
        |ctx, (j, r)| r.rendered == ctx.references[j as usize] && r.queried == 1024,
    )?;
    Ok(Report::from_timed(&t, params(seed)))
}

fn params(seed: u64) -> Vec<(&'static str, String)> {
    let s = spec(seed);
    vec![
        ("dpv.k", s.k.to_string()),
        ("dpv.fabric_seeds", format!("{seed}, {seed} + 1")),
        ("dpv.link_down", s.link_down.to_string()),
        ("dpv.partitions", s.partitions.to_string()),
        ("dpv.workers", s.workers.to_string()),
    ]
}

/// Plain/traced pairs in the traced round: one pair of 0.6 s runs is
/// within a shared host's run-to-run noise of the tracing overhead.
const TRACE_REPS: u64 = 3;

/// The traced round: a serial run, then alternating plain default runs
/// and the same pipeline as `run_spec` with a span per layer call
/// (traced rep `r` stamps request `r`), and one direct
/// `verify_destinations` call per destination.
pub fn layers(seed: u64) -> Result<Layers, String> {
    let spec = spec(seed);
    let timed = |s: &DpvScaleSpec| -> Result<(f64, DpvScaleReport), String> {
        let start = Instant::now();
        let r = run_spec(s).map_err(|e| e.to_string())?;
        Ok((start.elapsed().as_secs_f64() * 1e3, r))
    };
    let (serial_ms, reference) = timed(&serial(seed))?;

    let tracer = Tracer::new();
    let opts = ScaleOpts {
        profile: EngineProfile::Cached,
        node_cap: spec.node_cap,
    };
    let fspec = FabricSpec {
        k: spec.k,
        seed: spec.seed,
        link_down: spec.link_down,
        with_hosts: true,
    };
    let traced_run = |rep: u64| -> Result<(String, usize), String> {
        tracer.span("dpv", rep, || {
            let fabric = tracer.span("fabric.build", rep, || build(&fspec));
            let dests = spec_dests(&fabric, &spec);
            let ranges = partition_ranges(dests.len(), spec.partitions);
            let mut merged = Vec::with_capacity(dests.len());
            let mut first_err = None;
            netrepro_core::pool::run_ordered_items(
                spec.workers,
                &ranges,
                |_, r| {
                    tracer.span("scale.partition", rep, || {
                        verify_destinations(&fabric.network, &dests[r.clone()], &opts)
                    })
                },
                |_, out| match out {
                    Ok(mut chunk) => {
                        merged.append(&mut chunk);
                        Ok(())
                    }
                    Err(e) => {
                        first_err = Some(e.to_string());
                        Err("chunk failed".into())
                    }
                },
            )?;
            if let Some(e) = first_err {
                return Err(e);
            }
            let rendered = tracer.span("dpv_scale.merge_render", rep, || {
                let rendered = render(&merged);
                std::hint::black_box(digest(&rendered));
                rendered
            });
            Ok((rendered, fabric.num_devices()))
        })
    };
    let (mut plain_ms, mut traced_ms, mut checks) = (vec![], vec![], vec![]);
    let mut devices = 0;
    for rep in 0..TRACE_REPS {
        let (ms, plain) = timed(&spec)?;
        plain_ms.push(ms);
        checks.push(plain.rendered == reference.rendered);
        let start = Instant::now();
        let (rendered, n) = traced_run(rep)?;
        traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        checks.push(rendered == reference.rendered);
        devices = n;
    }

    // Per destination: one private manager each, serially.
    let fabric = build(&fspec);
    let dests = spec_dests(&fabric, &spec);
    let mut dest_us = Vec::with_capacity(dests.len());
    let mut per_dest = Vec::with_capacity(dests.len());
    for (i, d) in dests.iter().enumerate() {
        let start = Instant::now();
        let v = tracer.span("scale.dest", i as u64, || {
            verify_destinations(&fabric.network, std::slice::from_ref(d), &opts)
        });
        dest_us.push(start.elapsed().as_secs_f64() * 1e6);
        per_dest.extend(v.map_err(|e| e.to_string())?);
    }
    let build_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(build(&fspec));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let spans = tracer.spans();
    let of = |name: &str, rep: u64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.req == rep)
            .map(|s| s.dur() as f64 / 1e6)
            .collect()
    };
    let per_rep =
        |f: &dyn Fn(u64) -> f64| stats::median(&(0..TRACE_REPS).map(f).collect::<Vec<_>>());
    let busy = per_rep(&|r| of("scale.partition", r).iter().sum());
    let balance = per_rep(&|r| {
        let parts = of("scale.partition", r);
        let mean = parts.iter().sum::<f64>() / parts.len().max(1) as f64;
        parts.iter().copied().fold(0.0, f64::max) / mean.max(1e-9)
    });
    let merge_ms = per_rep(&|r| of("dpv_scale.merge_render", r).iter().sum());
    checks.push(render(&per_dest) == reference.rendered);
    let metrics = vec![
        metric("fabric.build_ms", stats::median(&build_ms), "ms"),
        metric("fabric.devices", devices as f64, "count"),
        metric("scale.verify_busy_ms", busy, "ms"),
        metric("scale.dest_p50_us", stats::median(&dest_us), "us"),
        metric(
            "scale.dest_max_us",
            dest_us.iter().copied().fold(0.0, f64::max),
            "us",
        ),
        metric("scale.partition_max_over_mean", balance, "ratio"),
        metric("dpv_scale.merge_render_ms", merge_ms, "ms"),
        metric(
            "pool.speedup_dpv",
            serial_ms / stats::median(&plain_ms),
            "ratio",
        ),
    ];
    Ok(Layers {
        metrics,
        overhead: stats::median(&traced_ms) / stats::median(&plain_ms),
        attempted: checks.len() as u64,
        failed: checks.iter().filter(|ok| !**ok).count() as u64,
        spans,
        params: params(seed),
    })
}
