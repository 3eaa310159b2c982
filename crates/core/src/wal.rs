//! The write-ahead log behind every crash-safe file in the workspace:
//! the sweep journal ([`crate::harness`]) and the serve daemon's
//! ledger and per-job journals.
//!
//! **Format.** Line 1 is a JSON header; every later line is one JSON
//! event. A writer appends each line through a flushed-per-line sink
//! ([`FileSink`]) before it moves on, so a `SIGKILL` loses at most the
//! line being written.
//!
//! **Recovery** ([`parse`]) keeps the longest valid prefix and returns
//! it as a [`Prefix`], the one replay type of every log:
//!
//! * an unterminated header means a fresh log;
//! * a terminated header that does not parse is corrupt at line 0;
//! * a header that parses but disagrees with the reader is the
//!   caller's typed mismatch;
//! * a failing *last* line — torn (no newline) or terminated but
//!   unparseable — is dropped, and its event is redone;
//! * a failing earlier line means the file is not a prefix of any
//!   write history: [`Corrupt`].
//!
//! **Bytes** ([`read`]). Only the unterminated tail may be invalid
//! UTF-8 — a write torn inside a multi-byte character — because the
//! tail is dropped anyway. Invalid UTF-8 anywhere else is an error.
//!
//! The parser is pure; the file layer ([`read`], [`reopen`],
//! [`FileSink`]) is the only code that touches log files and holds
//! their audited `effect-allow(Io)` grants.

use crate::harness::JournalSink;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A non-trailing line is unreadable: the log is damaged beyond the
/// safe drop-the-tail recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt {
    /// 0-based line number (0 is the header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl From<Corrupt> for String {
    fn from(c: Corrupt) -> String {
        format!("line {}: {}", c.line, c.message)
    }
}

/// The replayable prefix of a log: what every log's parser returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Prefix<H, T> {
    /// The header, if the valid prefix includes it.
    pub header: Option<H>,
    /// What the caller kept of every accepted event, in write order.
    pub records: Vec<T>,
    /// Byte length of the valid prefix; a resuming writer truncates the
    /// file to this length before appending ([`reopen`]).
    pub valid_bytes: u64,
    /// Whether a torn or corrupt trailing line was dropped.
    pub dropped_partial: bool,
}

impl<H, T> Default for Prefix<H, T> {
    /// The empty prefix: a log not yet written.
    fn default() -> Self {
        Prefix { header: None, records: Vec::new(), valid_bytes: 0, dropped_partial: false }
    }
}

/// Parse `text` as a log of header `H` and events `L`, keeping the
/// valid prefix (the policy in the module docs).
///
/// `vet_header` checks a parsed header; its error is returned as is.
/// `vet_line` checks one parsed event, given how many were accepted
/// before it, and returns what the caller keeps of it.
pub fn parse<H, L, T, E>(
    text: &str,
    vet_header: impl FnOnce(&H) -> Result<(), E>,
    mut vet_line: impl FnMut(usize, L) -> Result<T, String>,
) -> Result<Prefix<H, T>, E>
where
    H: Deserialize,
    L: Deserialize,
    E: From<Corrupt>,
{
    let mut prefix = Prefix::default();
    let Some(head_len) = text.find('\n') else {
        prefix.dropped_partial = !text.is_empty();
        return Ok(prefix);
    };
    let header: H = serde_json::from_str(&text[..head_len])
        .map_err(|e| Corrupt { line: 0, message: e.to_string() })?;
    vet_header(&header)?;
    prefix.header = Some(header);
    prefix.valid_bytes = head_len as u64 + 1;

    let mut start = head_len + 1;
    let mut n = 1;
    while start < text.len() {
        let Some(len) = text[start..].find('\n') else {
            // Torn write: the process died mid-append.
            prefix.dropped_partial = true;
            break;
        };
        let end = start + len + 1;
        let parsed = serde_json::from_str(&text[start..start + len])
            .map_err(|e| e.to_string())
            .and_then(|line| vet_line(prefix.records.len(), line));
        match parsed {
            Ok(kept) => {
                prefix.records.push(kept);
                prefix.valid_bytes = end as u64;
            }
            Err(_) if end == text.len() => {
                prefix.dropped_partial = true;
                break;
            }
            Err(message) => return Err(Corrupt { line: n, message }.into()),
        }
        start = end;
        n += 1;
    }
    Ok(prefix)
}

/// One log line: `value` as compact JSON plus the terminating newline.
pub fn line<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value)
        .map(|mut s| {
            s.push('\n');
            s
        })
        .map_err(|e| e.to_string())
}

/// Read the log at `path`. A missing file is an empty log. Invalid
/// UTF-8 in the unterminated tail is replaced (the tail is dropped
/// anyway); anywhere else it is an error, as is any other I/O failure.
// effect-allow(Io): reading a log file; the one read behind every
// journal and ledger.
pub fn read(path: &Path) -> Result<String, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(String::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    String::from_utf8(bytes).or_else(|e| {
        let at = e.utf8_error().valid_up_to();
        let bytes = e.into_bytes();
        if bytes[at..].contains(&b'\n') {
            return Err(format!("{}: invalid UTF-8 at byte {at}", path.display()));
        }
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    })
}

/// Truncate the log at `path` to `valid_bytes` (creating it if
/// missing) and open it for append: the one resume step of every log.
/// `valid_bytes == 0` starts a fresh log.
pub fn reopen(path: &Path, valid_bytes: u64) -> Result<FileSink, String> {
    let sink = FileSink::open(path)?;
    sink.file.set_len(valid_bytes).map_err(|e| format!("truncate {}: {e}", path.display()))?;
    Ok(sink)
}

/// An append handle on a log file; every line is written and flushed
/// before [`JournalSink::append`] returns.
#[derive(Debug)]
pub struct FileSink {
    file: std::fs::File,
    path: PathBuf,
}

impl FileSink {
    /// Open the log at `path` for append, creating it if missing and
    /// keeping what it holds.
    // effect-allow(Io): opening a log's append handle.
    pub fn open(path: &Path) -> Result<FileSink, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        Ok(FileSink { file, path: path.to_path_buf() })
    }
}

impl JournalSink for FileSink {
    // effect-allow(Io): the write-ahead append, flushed before return
    // so an acknowledged line survives SIGKILL.
    fn append(&mut self, line: &str) -> Result<(), String> {
        self.file
            .write_all(line.as_bytes())
            .and_then(|_| self.file.flush())
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Deserialize)]
    struct Head {
        v: u32,
    }

    fn parse_u32(text: &str) -> Result<Prefix<Head, u32>, String> {
        parse(
            text,
            |h: &Head| if h.v == 1 { Ok(()) } else { Err(format!("version {}", h.v)) },
            |i, x: u32| if x as usize == i { Ok(x) } else { Err(format!("{x} out of order")) },
        )
    }

    #[test]
    fn read_keeps_a_torn_multibyte_tail_and_rejects_interior_damage() {
        let dir = std::env::temp_dir().join(format!("netrepro-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        assert_eq!(read(&path).unwrap(), "", "a missing log is empty");

        std::fs::write(&path, b"{\"v\":1}\n0\n\"caf\xC3").unwrap();
        let text = read(&path).unwrap();
        let prefix = parse_u32(&text).unwrap();
        assert_eq!((prefix.records, prefix.valid_bytes, prefix.dropped_partial), (vec![0], 10, true));

        std::fs::write(&path, b"{\"v\":1}\n\"caf\xC3\n1\n").unwrap();
        assert!(read(&path).unwrap_err().contains("invalid UTF-8 at byte 12"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
