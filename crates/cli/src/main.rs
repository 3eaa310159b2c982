//! `netrepro` — the command-line face of the workspace.
//!
//! ```text
//! netrepro report   [--dir results]
//! netrepro survey   [--seed N]
//! netrepro te       [--nodes N] [--seed N] [--commodities K] [--paths P]
//!                   [--solver revised|dense] [--ncflow K] [--objective total|concurrent]
//! netrepro dpv      [--nodes N] [--width W] [--faults F] [--seed N]
//!                   [--check loops|blackholes|reach] [--src A --dst B]
//! netrepro dpv-scale [--k K] [--seed N] [--churn L] [--queries Q] [--partitions P]
//!                   [--workers W] [--node-cap N] [--check-serial] [--out FILE]
//! netrepro session  [--system ncflow|arrow|apkeep|ap|rps] [--seed N] [--auto]
//!                   [--faults none|light|heavy|chaos]
//! netrepro validate [--participant a|b|c|d] [--seed N] [--faults none|light|heavy|chaos]
//! netrepro analyze  [--system ncflow|arrow|apkeep|ap|rps] [--seed N] [--style mono|text|pseudo]
//!                   [--stage raw|final] [--json] [--fail-on error|warning|never] [--self-check]
//! netrepro sweep    [--systems CSV] [--styles CSV] [--seeds N] [--profiles CSV]
//!                   [--scales CSV] [--journal PATH] [--resume PATH] [--deadline N]
//!                   [--attempts N] [--breaker N] [--workers N] [--json] [--out FILE]
//!                   [--halt-after K] [--throttle-ms MS] [--no-cache]
//! netrepro rps      serve [--addr HOST:PORT] | play [--addr HOST:PORT] [--moves RPS...]
//! netrepro serve    [--addr HOST:PORT] [--dir DIR] [--workers N] [--queue-cap N]
//!                   [--tenant-quota N] [--job-breaker N] [--quantum N]
//!                   [--throttle-ms MS] [--no-cache]
//! netrepro submit   [--addr HOST:PORT] [--tenant T] [--nonce N] [--wait] [--out FILE]
//!                   [sweep matrix flags | --spec TOKEN]
//!                   | --status ID | --results ID | --cancel ID | --health | --drain
//! ```
//!
//! Every command is seeded and prints plain text; exit status is
//! non-zero on bad arguments or failed runs.

mod args;
mod cmd;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{}", cmd::USAGE);
        return;
    }
    let a = Args::parse(raw);
    let result = match a.pos(0) {
        Some("report") => cmd::report(&a),
        Some("survey") => cmd::survey(&a),
        Some("te") => cmd::te(&a),
        Some("dpv") => cmd::dpv(&a),
        Some("dpv-scale") => cmd::dpv_scale(&a),
        Some("session") => cmd::session(&a),
        Some("validate") => cmd::validate(&a),
        Some("analyze") => cmd::analyze(&a),
        Some("sweep") => cmd::sweep(&a),
        Some("rps") => cmd::rps(&a),
        Some("serve") => cmd::serve(&a),
        Some("submit") => cmd::submit(&a),
        Some(other) => Err(args::ArgError(format!("unknown command '{other}'\n{}", cmd::USAGE))),
        None => Err(args::ArgError(cmd::USAGE.to_string())),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
