//! Keyed write-ahead journal for long-running services.
//!
//! The workspace's one durability primitive: an append-only, *keyed*
//! record log, keyed by the evaluation service with `(config digest,
//! seed)`.
//!
//! * **Atomic append** — each record is one `write(2)` of one complete
//!   line to an `O_APPEND` descriptor, so concurrent appenders (the
//!   worker pool) never interleave bytes and a crash can only lose or
//!   tear the *final* record, never corrupt an earlier one.
//! * **Torn-tail recovery** — on open, a partial final record (no
//!   trailing newline: the signature of `SIGKILL` or power loss mid
//!   `write`) is detected, reported, and **truncated away**, so the next
//!   append starts on a clean line instead of gluing new data onto
//!   garbage.
//! * **Batched fsync** — appends are flushed to the OS immediately
//!   (surviving process death) and `fsync`ed every
//!   [`WAL_SYNC_BATCH`] records and at every [`Wal::commit`] (batch
//!   boundary), bounding what a *machine* crash can lose without paying
//!   a disk round-trip per record.
//!
//! Records are `(key, payload)` string pairs, tab-separated, with
//! backslash, tab and newline escaped; replay returns them in append
//! order so "last record wins" deduplication is the caller's one-liner
//! ([`WalReplay::into_map`]).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Appends between automatic `fsync`s: a machine crash loses at most
/// this many acknowledged records (a process crash loses none past the
/// OS page cache). [`Wal::commit`] forces the sync earlier at batch
/// boundaries.
pub const WAL_SYNC_BATCH: usize = 64;

/// What [`Wal::open`] recovered from an existing journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Every parseable `(key, payload)` record, in append order.
    pub records: Vec<(String, String)>,
    /// Complete lines that failed to parse (foreign schema, bit rot).
    /// They are skipped, not fatal: their keys simply recompute.
    pub corrupt: usize,
    /// True when the file ended in a partial record (no trailing
    /// newline) — the expected signature of a `SIGKILL` mid-append. The
    /// torn bytes were truncated away before reopening for append.
    pub torn_tail: bool,
}

impl WalReplay {
    /// Collapse the replay into a key → payload map, last record wins.
    pub fn into_map(self) -> HashMap<String, String> {
        self.records.into_iter().collect()
    }
}

/// Escape a key or payload for the one-line-per-record format.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n")
}

/// Inverse of [`escape`]; `None` on a malformed escape.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

struct WalInner {
    file: std::fs::File,
    unsynced: usize,
    records: u64,
}

/// A keyed, crash-tolerant, append-only journal (see module docs).
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
}

fn parse_record(line: &str) -> Option<(String, String)> {
    let (k, v) = line.split_once('\t')?;
    Some((unescape(k)?, unescape(v)?))
}

impl Wal {
    /// Open (creating if absent) the journal at `path`, replaying every
    /// complete record and truncating a torn final record so appends
    /// resume on a clean line.
    pub fn open(path: &Path) -> std::io::Result<(Self, WalReplay)> {
        let mut records = Vec::new();
        let mut corrupt = 0usize;
        let mut torn_tail = false;
        if path.exists() {
            let mut bytes = Vec::new();
            std::fs::File::open(path)?.read_to_end(&mut bytes)?;
            // valid region: everything up to and including the last
            // newline; anything past it is a torn record
            let valid_len = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            torn_tail = valid_len < bytes.len();
            for line in String::from_utf8_lossy(&bytes[..valid_len]).lines() {
                match parse_record(line) {
                    Some(kv) => records.push(kv),
                    None => corrupt += 1,
                }
            }
            if torn_tail {
                // drop the torn bytes before reopening for append
                let f = std::fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(valid_len as u64)?;
                f.sync_data()?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        let n = records.len() as u64;
        Ok((
            Self {
                path: path.to_path_buf(),
                inner: Mutex::new(WalInner { file, unsynced: 0, records: n }),
            },
            WalReplay { records, corrupt, torn_tail },
        ))
    }

    /// Append one record. The escaped line is written with a single
    /// `write` call on an append-mode descriptor (atomic with respect
    /// to other appenders); the OS has the bytes when this returns, and
    /// an `fsync` happens automatically every [`WAL_SYNC_BATCH`]
    /// appends.
    pub fn append(&self, key: &str, payload: &str) -> std::io::Result<()> {
        let line = format!("{}\t{}\n", escape(key), escape(payload));
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        g.file.write_all(line.as_bytes())?;
        g.records += 1;
        g.unsynced += 1;
        if g.unsynced >= WAL_SYNC_BATCH {
            g.file.sync_data()?;
            g.unsynced = 0;
        }
        Ok(())
    }

    /// Force an `fsync` of any unsynced appends — called at batch
    /// boundaries (end of a request batch, graceful shutdown) so
    /// durability lines up with the points the service has acknowledged.
    pub fn commit(&self) -> std::io::Result<()> {
        let mut g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if g.unsynced > 0 {
            g.file.sync_data()?;
            g.unsynced = 0;
        }
        Ok(())
    }

    /// Records written over the journal's lifetime (replayed + appended).
    pub fn records(&self) -> u64 {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).records
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current on-disk size in bytes (diagnostics; 0 if unreadable).
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("noc_exp_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "tab\there", "line\nbreak", "back\\slash", "\\t\\n\\\\"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None, "unknown escape is rejected");
        assert_eq!(unescape("trailing\\"), None, "truncated escape is rejected");
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("round_trip.wal");
        {
            let (wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.records.is_empty() && !replay.torn_tail);
            wal.append("k1", "payload one").unwrap();
            wal.append("k2", "tabs\tand\nnewlines\\").unwrap();
            wal.append("k1", "updated").unwrap();
            wal.commit().unwrap();
            assert_eq!(wal.records(), 3);
        }
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.corrupt, 0);
        assert!(!replay.torn_tail);
        assert_eq!(
            replay.records,
            vec![
                ("k1".into(), "payload one".into()),
                ("k2".into(), "tabs\tand\nnewlines\\".into()),
                ("k1".into(), "updated".into()),
            ]
        );
        let map = replay.into_map();
        assert_eq!(map.get("k1").map(String::as_str), Some("updated"), "last record wins");
        assert_eq!(wal.records(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume_cleanly() {
        let path = tmp("torn.wal");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            wal.append("a", "1").unwrap();
            wal.append("b", "2").unwrap();
            wal.commit().unwrap();
        }
        // simulate SIGKILL mid-append: a partial record with no newline
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"c\thalf-writ").unwrap();
        }
        let (wal, replay) = Wal::open(&path).unwrap();
        assert!(replay.torn_tail, "partial final record must be detected");
        assert_eq!(replay.corrupt, 0, "a torn tail is tolerated, not counted as corruption");
        assert_eq!(replay.records.len(), 2);
        wal.append("c", "rewritten").unwrap();
        wal.commit().unwrap();
        drop(wal);
        // the torn bytes are gone: the new record is intact, not glued
        // onto the old partial line
        let (_, replay) = Wal::open(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.corrupt, 0);
        assert_eq!(replay.records.last().unwrap(), &("c".into(), "rewritten".into()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_corruption_is_skipped_and_counted() {
        let path = tmp("corrupt.wal");
        std::fs::write(&path, "a\t1\nnot a record line\nb\t2\n").unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.corrupt, 1);
        assert_eq!(replay.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = tmp("fresh.wal");
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay, WalReplay { records: vec![], corrupt: 0, torn_tail: false });
        assert_eq!(wal.records(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
