//! The write-ahead job ledger: the daemon's durable memory.
//!
//! Every admission writes a [`LedgerLine::Submitted`] *before* the
//! client sees `ACCEPTED`, and every terminal transition writes a
//! [`LedgerLine::Done`] after the job's journal is flushed — the same
//! write-ahead discipline as the sweep journal (`core::harness`). A
//! SIGKILL'd daemon therefore restarts knowing
//! exactly which jobs were admitted and which finished; everything in
//! between resumes from its own journal's valid prefix and re-runs
//! byte-identically (cells are pure functions of the cell id).
//!
//! The file is a `core::wal` log — versioned header, one JSON line per
//! record — and [`parse_ledger`] recovers it under that module's policy,
//! like every other journal. This module is pure parse/format — all
//! file I/O lives in `core::wal`'s file layer, so the effects analyzer
//! can budget these paths without an `Io` grant.

use netrepro_core::wal;
use serde::{Deserialize, Serialize};

/// Ledger layout version.
pub const LEDGER_VERSION: u32 = 1;

/// First line of the ledger file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerHeader {
    /// Layout version ([`LEDGER_VERSION`]).
    pub version: u32,
}

/// One ledger record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LedgerLine {
    /// A job was admitted (written *before* the `ACCEPTED` reply).
    Submitted {
        /// Daemon-assigned job id.
        job: u64,
        /// Submitting tenant.
        tenant: String,
        /// The client's idempotency nonce.
        nonce: u64,
        /// The spec token exactly as submitted.
        spec: String,
    },
    /// A job reached a terminal state (written after its journal and
    /// report were flushed).
    Done {
        /// Which job finished.
        job: u64,
        /// Terminal [`JobState`](netrepro_rps::JobState) wire name
        /// (`done`, `failed`, `cancelled`, `deadline`).
        outcome: String,
    },
}

/// Parse a ledger file's text under `core::wal`'s recovery policy: a
/// torn or unparseable *trailing* line (the write the crash
/// interrupted) is dropped; an unparseable earlier line, or a header of
/// another [`LEDGER_VERSION`], is an error.
pub fn parse_ledger(text: &str) -> Result<wal::Prefix<LedgerHeader, LedgerLine>, String> {
    wal::parse(
        text,
        |header: &LedgerHeader| match header.version {
            LEDGER_VERSION => Ok(()),
            v => Err(format!("version {v} (this build writes {LEDGER_VERSION})")),
        },
        |_, line: LedgerLine| Ok(line),
    )
    .map_err(|e: String| format!("ledger {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut text = wal::line(&LedgerHeader { version: LEDGER_VERSION }).unwrap();
        text.push_str(
            &wal::line(&LedgerLine::Submitted {
                job: 1,
                tenant: "alice".into(),
                nonce: 7,
                spec: "seeds=1".into(),
            })
            .unwrap(),
        );
        text.push_str(&wal::line(&LedgerLine::Done { job: 1, outcome: "done".into() }).unwrap());
        text
    }

    #[test]
    fn round_trips() {
        let replay = parse_ledger(&sample()).unwrap();
        assert!(replay.header.is_some());
        assert!(!replay.dropped_partial);
        assert_eq!(replay.records.len(), 2);
        assert!(matches!(replay.records[0], LedgerLine::Submitted { job: 1, .. }));
        assert!(matches!(replay.records[1], LedgerLine::Done { job: 1, .. }));
    }

    #[test]
    fn torn_tail_is_dropped() {
        let clean = sample();
        let mut text = clean.clone();
        text.push_str("{\"Submitted\":{\"job\":2,\"ten"); // the crash
        let replay = parse_ledger(&text).unwrap();
        assert!(replay.dropped_partial);
        assert_eq!(replay.records.len(), 2, "torn line must not surface");
        assert_eq!(replay.valid_bytes, clean.len() as u64);
    }

    #[test]
    fn corrupt_interior_line_is_a_hard_error() {
        let sample = sample();
        let lines: Vec<&str> = sample.lines().collect();
        let text = format!("{}\nnot json\n{}\n", lines[0], lines[2]);
        assert!(parse_ledger(&text).is_err());
    }

    #[test]
    fn corrupt_trailing_line_with_newline_is_dropped() {
        let clean = sample();
        let text = format!("{clean}{{\"Submitted\": garbage\n");
        let replay = parse_ledger(&text).unwrap();
        assert!(replay.dropped_partial);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.valid_bytes, clean.len() as u64);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let text = "{\"version\":99}\n";
        assert!(parse_ledger(text).unwrap_err().contains("version"));
    }

    #[test]
    fn empty_ledger_is_empty() {
        let replay = parse_ledger("").unwrap();
        assert!(replay.header.is_none());
        assert!(replay.records.is_empty());
    }
}
