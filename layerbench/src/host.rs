//! Host facts and process counters: CPU time, peak RSS, core count,
//! the run manifest, and a scratch directory inside the working tree.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count the CLI defaults to: available parallelism, capped at 8.
pub fn default_workers() -> usize {
    nproc().min(8)
}

/// Available parallelism (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `f` over `items` on up to `nproc` scoped threads, results in item
/// order. Set-up work runs this way so that it loads every core, as the
/// timed operations do, rather than whichever core one thread lands on.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..nproc().min(items.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("a set-up thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; the command
    // name in field 2 may hold spaces, so count from its closing paren.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // rest starts at field 3, so utime (14) and stime (15) sit at 11, 12.
    (tick(11) + tick(12)) / CLOCK_TICKS
}

/// `sysconf(_SC_CLK_TCK)` on every Linux target the workspace builds for.
const CLOCK_TICKS: f64 = 100.0;

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a version command, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Escape `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run manifest as one JSON object: revision, toolchain, build
/// profile, cores, workload seed and workload parameters.
pub fn manifest(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    params: &[(&str, String)],
) -> String {
    // Only a checkout that is itself a git work tree has a revision; a
    // parent directory's repository would name the wrong code.
    let revision = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    };
    let params: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"manifest\": {{\"revision\": {}, \"rustc\": {}, \"profile\": {}, \"nproc\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \"params\": {{{}}}}}}}",
        json_str(&revision),
        json_str(&command_line("rustc", &["--version"])),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        nproc(),
        json_str(workload),
        trace,
        params.join(", ")
    )
}

/// A fresh scratch directory under `.layerbench/` in the working
/// directory, removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create `.layerbench/tmp-<pid>-<tag>`, emptying any leftover.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where results and traces are written: `.layerbench/` in the
/// working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".layerbench")
}
