//! Durable storage for the daemon: the job ledger and one journal
//! file per job.
//!
//! The scheduler talks to a [`JobStorage`] trait so its decision paths
//! stay free of file-system effects; [`FileStorage`] is the real
//! implementation (one directory, `ledger.jsonl` plus
//! `job-<id>.jsonl`, each read, truncated and appended through
//! `core::wal`'s file layer), [`MemStorage`] backs unit and property
//! tests.

use netrepro_core::harness::JournalSink;
use netrepro_core::wal;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Where the daemon's ledger and per-job journals live.
pub trait JobStorage: Send + Sync {
    /// Read the whole ledger (empty string if absent).
    fn ledger_load(&self) -> Result<String, String>;
    /// Truncate the ledger to its valid prefix (crash-torn tail).
    fn ledger_truncate(&self, valid_bytes: u64) -> Result<(), String>;
    /// Append one newline-terminated ledger line, flushed before
    /// return (the write-ahead barrier).
    fn ledger_append(&self, line: &str) -> Result<(), String>;
    /// Read one job's journal (empty string if absent).
    fn journal_load(&self, job: u64) -> Result<String, String>;
    /// Truncate one job's journal to its valid prefix.
    fn journal_truncate(&self, job: u64, valid_bytes: u64) -> Result<(), String>;
    /// Open an append sink for one job's journal; every appended line
    /// is flushed before the append returns.
    fn journal_sink(&self, job: u64) -> Result<Box<dyn JournalSink + Send>, String>;
}

// ---------------------------------------------------------------- mem

#[derive(Debug, Default)]
struct MemInner {
    ledger: String,
    journals: BTreeMap<u64, String>,
}

/// In-memory storage for tests and embedding.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStorage {
    /// Fresh, empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The current journal text of `job` (for assertions).
    pub fn journal_text(&self, job: u64) -> String {
        self.lock().journals.get(&job).cloned().unwrap_or_default()
    }

    /// Chop bytes off the *end* of a job journal, simulating a crash
    /// that tore the final write.
    pub fn tear_journal(&self, job: u64, drop_bytes: usize) {
        let mut inner = self.lock();
        if let Some(j) = inner.journals.get_mut(&job) {
            let keep = j.len().saturating_sub(drop_bytes);
            j.truncate(keep);
        }
    }
}

struct MemSink {
    storage: MemStorage,
    job: u64,
}

impl JournalSink for MemSink {
    fn append(&mut self, line: &str) -> Result<(), String> {
        self.storage.lock().journals.entry(self.job).or_default().push_str(line);
        Ok(())
    }
}

impl JobStorage for MemStorage {
    fn ledger_load(&self) -> Result<String, String> {
        Ok(self.lock().ledger.clone())
    }

    fn ledger_truncate(&self, valid_bytes: u64) -> Result<(), String> {
        self.lock().ledger.truncate(valid_bytes as usize);
        Ok(())
    }

    fn ledger_append(&self, line: &str) -> Result<(), String> {
        self.lock().ledger.push_str(line);
        Ok(())
    }

    fn journal_load(&self, job: u64) -> Result<String, String> {
        Ok(self.journal_text(job))
    }

    fn journal_truncate(&self, job: u64, valid_bytes: u64) -> Result<(), String> {
        let mut inner = self.lock();
        if let Some(j) = inner.journals.get_mut(&job) {
            j.truncate(valid_bytes as usize);
        }
        Ok(())
    }

    fn journal_sink(&self, job: u64) -> Result<Box<dyn JournalSink + Send>, String> {
        Ok(Box::new(MemSink { storage: self.clone(), job }))
    }
}

// --------------------------------------------------------------- file

/// Directory-backed storage: `ledger.jsonl` + `job-<id>.jsonl`.
#[derive(Debug, Clone)]
pub struct FileStorage {
    dir: PathBuf,
}

impl FileStorage {
    /// Use (and create) `dir` as the daemon's state directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileStorage, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(FileStorage { dir })
    }

    /// The path of one job's journal file.
    pub fn journal_path(&self, job: u64) -> PathBuf {
        self.dir.join(format!("job-{job}.jsonl"))
    }

    fn ledger_path(&self) -> PathBuf {
        self.dir.join("ledger.jsonl")
    }
}

impl JobStorage for FileStorage {
    fn ledger_load(&self) -> Result<String, String> {
        wal::read(&self.ledger_path())
    }

    fn ledger_truncate(&self, valid_bytes: u64) -> Result<(), String> {
        wal::reopen(&self.ledger_path(), valid_bytes).map(drop)
    }

    fn ledger_append(&self, line: &str) -> Result<(), String> {
        wal::FileSink::open(&self.ledger_path())?.append(line)
    }

    fn journal_load(&self, job: u64) -> Result<String, String> {
        wal::read(&self.journal_path(job))
    }

    fn journal_truncate(&self, job: u64, valid_bytes: u64) -> Result<(), String> {
        wal::reopen(&self.journal_path(job), valid_bytes).map(drop)
    }

    fn journal_sink(&self, job: u64) -> Result<Box<dyn JournalSink + Send>, String> {
        Ok(Box::new(wal::FileSink::open(&self.journal_path(job))?))
    }
}
