//! Durable job journal for `prf-serve`: an append-only write-ahead log.
//!
//! The server's batch queue lives in memory; without a journal, killing
//! the process loses every submitted-but-unfinished batch with no trace.
//! With `PRF_JOURNAL_DIR` set, every batch submission is appended to
//! `serve.wal` as a checksummed, length-framed record *before* the
//! client's submit is acknowledged, and every finished batch is marked
//! done. On startup the server replays the journal and re-enqueues every
//! batch that has no matching [`Record::BatchDone`]; because jobs are
//! content-addressed digests and completed jobs hit the warmed result
//! cache, recovery is exactly-once by construction — re-run jobs are
//! answered from the cache bit-identically and only genuinely
//! unfinished work simulates again.
//!
//! ## On-disk format
//!
//! ```text
//! "PRFWAL1\n"                                  8-byte magic + version
//! [len: u32 LE][sum: 8 bytes][payload: len]    frame 0
//! [len: u32 LE][sum: 8 bytes][payload: len]    frame 1
//! ...
//! ```
//!
//! `sum` is the first 8 bytes of the SHA-256 of the payload (the same
//! hand-rolled digest the result cache keys on, [`crate::digest`]).
//! Payloads are single-line JSON records. Replay stops at the first
//! frame that is truncated, oversized, or fails its checksum: a torn
//! tail — the expected artefact of a crash mid-append — costs at most
//! that one record and never a panic. A file whose *magic* is wrong is
//! not a torn journal but a foreign or corrupt file; it is preserved as
//! `serve.wal.corrupt` (never deleted) and a fresh journal is started.
//!
//! ## Durability placement
//!
//! Every record ([`Record::Submit`], [`Record::BatchDone`],
//! [`Record::Next`]) is fsynced before `append` returns: each changes
//! what recovery would re-enqueue. The journal records no per-job
//! progress; the result cache, not the journal, is what makes
//! re-running a finished job free. See DESIGN.md §10.
//!
//! Once every recorded batch is done the journal is compacted: a fresh
//! file carrying only the batch-id high-water mark is written to the
//! side and renamed over `serve.wal`, followed by a directory fsync.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::digest::Sha256;
use crate::json::Json;
use crate::vfs::Vfs;

/// Magic prefix of a journal file: identifies the format and its
/// version. Bump the digit on breaking frame-format changes.
pub const JOURNAL_MAGIC: &[u8; 8] = b"PRFWAL1\n";

/// Journal file name inside the journal directory.
pub const JOURNAL_FILE: &str = "serve.wal";

/// Upper bound on one record's payload. Far above any real submit (the
/// server refuses request lines over 1 MiB). The length field is read
/// before the checksum can vouch for it, so this bound is what keeps a
/// garbage length cheap during replay: anything larger is classified as
/// a torn/corrupt tail instead of attempted as an allocation.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

/// One journal record. `batch` ids are the server's protocol-visible
/// batch numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A batch was accepted: its id and the raw job specs (verbatim
    /// protocol JSON, so recovery rebuilds jobs through the same
    /// [`crate::serve::jobs_from_specs`] path as a live submit).
    Submit {
        /// Protocol batch id.
        batch: u64,
        /// Raw job specs as submitted.
        jobs: Vec<Json>,
    },
    /// Every job of the batch is done and its report exists.
    BatchDone {
        /// The completed batch.
        batch: u64,
    },
    /// Batch-id high-water mark, written on open and by compaction so
    /// ids stay unique across restarts even after the history is gone.
    Next {
        /// The next batch id to hand out.
        id: u64,
    },
}

impl Record {
    fn to_json(&self) -> Json {
        match self {
            Record::Submit { batch, jobs } => Json::obj()
                .field("t", "submit")
                .field("batch", *batch)
                .field("jobs", Json::Arr(jobs.clone())),
            Record::BatchDone { batch } => {
                Json::obj().field("t", "batch_done").field("batch", *batch)
            }
            Record::Next { id } => Json::obj().field("t", "next").field("id", *id),
        }
    }

    fn from_json(doc: &Json) -> Option<Record> {
        let t = doc.get("t")?.as_str()?;
        let batch = || doc.get("batch")?.as_u64();
        match t {
            "submit" => Some(Record::Submit {
                batch: batch()?,
                jobs: doc.get("jobs")?.as_arr()?.to_vec(),
            }),
            "batch_done" => Some(Record::BatchDone { batch: batch()? }),
            "next" => Some(Record::Next {
                id: doc.get("id")?.as_u64()?,
            }),
            _ => None,
        }
    }
}

/// Frames one payload: `[len][8-byte truncated SHA-256][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(payload);
    let sum = h.finish();
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("record fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&sum[..8]);
    out.extend_from_slice(payload);
    out
}

/// What replay found in an existing journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Batches submitted but never marked done, in batch-id order:
    /// `(batch id, raw job specs)`. These are what the server
    /// re-enqueues.
    pub pending: Vec<(u64, Vec<Json>)>,
    /// Next batch id to hand out (one past the highest id seen).
    pub next_id: u64,
    /// True when the file ended in a torn/corrupt frame (the expected
    /// artefact of a crash mid-append; at most one record was lost).
    pub torn_tail: bool,
    /// True when an existing file had a foreign magic and was preserved
    /// aside as `serve.wal.corrupt`.
    pub quarantined: bool,
    /// Byte length of the valid prefix (magic plus complete frames).
    /// Everything beyond it is the torn tail, which [`Journal::open`]
    /// truncates before appending — a new frame written after a partial
    /// one would be unreachable to the next replay.
    pub valid_len: usize,
}

/// Replays journal bytes (including magic). Never panics: stops cleanly
/// at the first torn or corrupt frame.
fn replay(bytes: &[u8]) -> Recovery {
    let mut rec = Recovery::default();
    let Some(body) = bytes.strip_prefix(&JOURNAL_MAGIC[..]) else {
        // Caller decides what to do with a foreign file; an empty or
        // magic-less journal replays as empty.
        rec.torn_tail = !bytes.is_empty();
        return rec;
    };
    let mut pending: BTreeMap<u64, Vec<Json>> = BTreeMap::new();
    let mut pos = 0usize;
    while pos < body.len() {
        let Some(header) = body.get(pos..pos + 12) else {
            rec.torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        if len > MAX_RECORD_BYTES {
            rec.torn_tail = true;
            break;
        }
        let Some(payload) = body.get(pos + 12..pos + 12 + len) else {
            rec.torn_tail = true;
            break;
        };
        let mut h = Sha256::new();
        h.update(payload);
        if h.finish()[..8] != header[4..12] {
            rec.torn_tail = true;
            break;
        }
        let parsed = String::from_utf8(payload.to_vec())
            .ok()
            .and_then(|s| Json::parse(&s).ok())
            .and_then(|doc| Record::from_json(&doc));
        pos += 12 + len;
        // A checksummed but unintelligible record — written by a future
        // version, or a per-job progress record of an older one — is
        // skipped rather than dropping the rest of the log.
        let Some(record) = parsed else { continue };
        match record {
            Record::Submit { batch, jobs } => {
                rec.next_id = rec.next_id.max(batch + 1);
                pending.insert(batch, jobs);
            }
            Record::BatchDone { batch } => {
                pending.remove(&batch);
            }
            Record::Next { id } => {
                rec.next_id = rec.next_id.max(id);
            }
        }
    }
    rec.pending = pending.into_iter().collect();
    rec.valid_len = JOURNAL_MAGIC.len() + pos;
    rec
}

/// Handle on an open journal. All appends go through the [`Vfs`], so
/// tests can inject write failures; an append error leaves the on-disk
/// log with at most a torn tail, which the next replay tolerates.
#[derive(Debug)]
pub struct Journal {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    path: PathBuf,
    /// Batches submitted but not yet marked done (drives compaction).
    outstanding: Vec<u64>,
    next_id: u64,
}

impl Journal {
    /// Opens (or creates) the journal in `dir` and replays any existing
    /// log. The returned [`Recovery`] lists the batches a previous
    /// process left unfinished; the caller re-enqueues them and then
    /// records their completion through this same journal.
    ///
    /// # Errors
    ///
    /// Only on I/O errors that prevent having a journal at all (cannot
    /// create the directory, cannot write the magic). A torn or even
    /// fully corrupt existing file is handled, not an error.
    pub fn open(dir: &Path, vfs: Arc<dyn Vfs>) -> io::Result<(Journal, Recovery)> {
        vfs.create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let existing = match vfs.read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let foreign = existing
            .as_deref()
            .is_some_and(|b| !b.is_empty() && !b.starts_with(JOURNAL_MAGIC));
        let mut recovery = existing.as_deref().map(replay).unwrap_or_default();
        if foreign {
            // Foreign magic: preserve the file for forensics and start
            // fresh. Quarantine, never delete.
            let aside = dir.join(format!("{JOURNAL_FILE}.corrupt"));
            if let Err(e) = vfs.rename(&path, &aside) {
                // Starting fresh would truncate the evidence; refuse to
                // journal instead (the caller degrades to non-durable).
                return Err(io::Error::other(format!(
                    "cannot quarantine corrupt {}: {e}",
                    path.display()
                )));
            }
            recovery.quarantined = true;
            recovery.torn_tail = false;
        }
        // The log is usable when it starts with our magic; a missing,
        // empty, or just-quarantined file needs a fresh header.
        let usable = existing
            .as_deref()
            .is_some_and(|b| b.starts_with(JOURNAL_MAGIC));
        let mut journal = Journal {
            vfs,
            dir: dir.to_path_buf(),
            path,
            outstanding: recovery.pending.iter().map(|(id, _)| *id).collect(),
            next_id: recovery.next_id,
        };
        if !usable {
            // Fresh log: magic plus the id high-water mark, fsynced.
            journal.vfs.write_file(&journal.path, JOURNAL_MAGIC)?;
            journal.append(&Record::Next {
                id: journal.next_id,
            })?;
        } else if recovery.torn_tail {
            // Cut the torn tail before appending anything: a frame
            // written after a partial frame would be unreachable to the
            // next replay. Atomic rewrite, same recipe as compaction —
            // but here a failure is an open error, because appending to
            // an untrimmed log silently loses every new record.
            let existing = existing.as_deref().unwrap_or_default();
            let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
            journal
                .vfs
                .write_file(&tmp, &existing[..recovery.valid_len])?;
            journal.vfs.rename(&tmp, &journal.path)?;
            journal.vfs.sync_dir(dir)?;
        }
        Ok((journal, recovery))
    }

    /// Opens the journal in `dir` (`PRF_JOURNAL_DIR`). Open failures
    /// disable journaling with a diagnostic rather than refusing to serve.
    pub fn open_or_disable(dir: &Path, vfs: Arc<dyn Vfs>) -> Option<(Journal, Recovery)> {
        match Journal::open(dir, vfs) {
            Ok(opened) => Some(opened),
            Err(e) => {
                eprintln!(
                    "PRF_JOURNAL_DIR: cannot open journal in {}: {e}; serving WITHOUT durability",
                    dir.display()
                );
                None
            }
        }
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record and fsyncs it. Tracks outstanding batches and
    /// compacts the log once none remain.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error; the on-disk log is left
    /// with at most a torn tail. The server reacts by flipping to a
    /// loud non-durable mode — it never refuses traffic over this.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        let payload = record.to_json().to_json();
        self.vfs.append(&self.path, &frame(payload.as_bytes()))?;
        match record {
            Record::Submit { batch, .. } => {
                self.next_id = self.next_id.max(batch + 1);
                if !self.outstanding.contains(batch) {
                    self.outstanding.push(*batch);
                }
            }
            Record::BatchDone { batch } => {
                self.outstanding.retain(|b| b != batch);
                if self.outstanding.is_empty() {
                    self.compact();
                }
            }
            Record::Next { id } => self.next_id = self.next_id.max(*id),
        }
        Ok(())
    }

    /// Batches recorded as submitted but not yet done.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Rewrites the log as just `magic + Next{next_id}` — correct only
    /// when no batch is outstanding, which `append` guarantees at its
    /// call site. Best-effort: on failure the old (valid, longer) log
    /// simply survives, so errors are logged, not propagated.
    fn compact(&mut self) {
        let tmp = self.dir.join(format!("{JOURNAL_FILE}.tmp"));
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&frame(
            Record::Next { id: self.next_id }
                .to_json()
                .to_json()
                .as_bytes(),
        ));
        let publish = self
            .vfs
            .write_file(&tmp, &bytes)
            .and_then(|()| self.vfs.rename(&tmp, &self.path))
            .and_then(|()| self.vfs.sync_dir(&self.dir));
        if let Err(e) = publish {
            eprintln!("journal: compaction failed ({e}); keeping the full log");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, FaultyVfs};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prf_journal_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> Json {
        Json::obj()
            .field("workload", "BFS")
            .field("rf", "partitioned")
            .field("seed", seed)
    }

    #[test]
    fn record_round_trips_through_json() {
        for record in [
            Record::Submit {
                batch: 3,
                jobs: vec![spec(0), spec(1)],
            },
            Record::BatchDone { batch: 3 },
            Record::Next { id: 9 },
        ] {
            let doc = record.to_json();
            assert_eq!(Record::from_json(&doc), Some(record));
        }
    }

    #[test]
    fn replay_recovers_unfinished_batches_only() {
        let dir = temp_dir("replay");
        let vfs = crate::vfs::real();
        {
            let (mut j, rec) = Journal::open(&dir, Arc::clone(&vfs)).unwrap();
            assert!(rec.pending.is_empty());
            j.append(&Record::Submit {
                batch: 0,
                jobs: vec![spec(0)],
            })
            .unwrap();
            j.append(&Record::Submit {
                batch: 1,
                jobs: vec![spec(1), spec(2)],
            })
            .unwrap();
            // Batch 0 never gets its BatchDone; the process "crashes".
        }
        let (j2, rec) = Journal::open(&dir, vfs).unwrap();
        assert_eq!(
            rec.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(rec.pending[1].1.len(), 2, "specs survive verbatim");
        assert_eq!(rec.next_id, 2);
        assert!(!rec.torn_tail);
        assert_eq!(j2.outstanding(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_with_per_job_progress_records_still_replays() {
        // Older servers also logged per-job `start`/`job_done` frames.
        // They are checksummed records replay no longer knows, so it
        // skips them without calling the tail torn.
        let dir = temp_dir("progress");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for record in [
            Record::Next { id: 0 }.to_json(),
            Record::Submit {
                batch: 0,
                jobs: vec![spec(0), spec(1)],
            }
            .to_json(),
            Json::obj()
                .field("t", "start")
                .field("batch", 0u64)
                .field("job", 0u64),
            Json::obj()
                .field("t", "job_done")
                .field("batch", 0u64)
                .field("job", 0u64),
        ] {
            bytes.extend_from_slice(&frame(record.to_json().as_bytes()));
        }
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, &bytes).unwrap();
        let vfs = crate::vfs::real();
        let (mut j, rec) = Journal::open(&dir, Arc::clone(&vfs)).unwrap();
        assert_eq!(
            rec.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0]
        );
        assert!(!rec.torn_tail);
        assert_eq!(rec.valid_len, bytes.len(), "nothing is truncated");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // Finishing the batch replays and compacts as usual.
        j.append(&Record::BatchDone { batch: 0 }).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < bytes.len() as u64);
        let (_, rec) = Journal::open(&dir, vfs).unwrap();
        assert!(rec.pending.is_empty());
        assert_eq!(rec.next_id, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completion_of_every_batch_compacts_the_log() {
        let dir = temp_dir("compact");
        let vfs = crate::vfs::real();
        let (mut j, _) = Journal::open(&dir, Arc::clone(&vfs)).unwrap();
        for batch in 0..3u64 {
            j.append(&Record::Submit {
                batch,
                jobs: vec![spec(batch)],
            })
            .unwrap();
        }
        let grown = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        for batch in 0..3u64 {
            j.append(&Record::BatchDone { batch }).unwrap();
        }
        let compacted = std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len();
        assert!(
            compacted < grown,
            "compaction must shrink the log ({compacted} vs {grown})"
        );
        // The compacted log still carries the id high-water mark.
        let (_, rec) = Journal::open(&dir, vfs).unwrap();
        assert!(rec.pending.is_empty());
        assert_eq!(rec.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_loses_at_most_the_last_record() {
        let dir = temp_dir("torn");
        let vfs = crate::vfs::real();
        let (mut j, _) = Journal::open(&dir, Arc::clone(&vfs)).unwrap();
        j.append(&Record::Submit {
            batch: 0,
            jobs: vec![spec(0)],
        })
        .unwrap();
        j.append(&Record::Submit {
            batch: 1,
            jobs: vec![spec(1)],
        })
        .unwrap();
        let path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Tear the final frame: drop its last 3 bytes.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (mut j2, rec) = Journal::open(&dir, Arc::clone(&vfs)).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(
            rec.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0],
            "only the torn record is lost"
        );
        // Open must have trimmed the tail: records appended after a torn
        // frame must be reachable to the next replay.
        j2.append(&Record::Submit {
            batch: 5,
            jobs: vec![spec(5)],
        })
        .unwrap();
        drop(j2);
        let (_, rec) = Journal::open(&dir, vfs).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 5],
            "the post-tear append survives the next replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_quarantined_not_deleted() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(&path, b"this is not a journal").unwrap();
        let vfs = crate::vfs::real();
        let (_, rec) = Journal::open(&dir, vfs).unwrap();
        assert!(rec.quarantined);
        assert!(!rec.torn_tail);
        assert_eq!(
            std::fs::read(dir.join(format!("{JOURNAL_FILE}.corrupt"))).unwrap(),
            b"this is not a journal",
            "foreign bytes preserved verbatim"
        );
        assert!(
            std::fs::read(&path).unwrap().starts_with(JOURNAL_MAGIC),
            "a fresh journal took its place"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_cut_mid_append_recovers_the_prefix() {
        let dir = temp_dir("powercut");
        let vfs = Arc::new(FaultyVfs::new());
        let (mut j, _) = Journal::open(&dir, vfs.clone() as Arc<dyn Vfs>).unwrap();
        j.append(&Record::Submit {
            batch: 0,
            jobs: vec![spec(0)],
        })
        .unwrap();
        vfs.set_plan(FaultPlan {
            power_cut_after_ops: Some(0),
            ..FaultPlan::default()
        });
        // The cut lands mid-frame: half the bytes reach the disk.
        assert!(j
            .append(&Record::Submit {
                batch: 1,
                jobs: vec![spec(1)],
            })
            .is_err());
        vfs.revive();
        let (_, rec) = Journal::open(&dir, vfs as Arc<dyn Vfs>).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(
            rec.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0],
            "the un-acknowledged record is the only loss"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_failure_leaves_log_replayable() {
        let dir = temp_dir("enospc");
        let vfs = Arc::new(FaultyVfs::new());
        let (mut j, _) = Journal::open(&dir, vfs.clone() as Arc<dyn Vfs>).unwrap();
        j.append(&Record::Submit {
            batch: 0,
            jobs: vec![spec(0)],
        })
        .unwrap();
        vfs.set_plan(FaultPlan {
            fail_writes: true,
            ..FaultPlan::default()
        });
        assert!(j.append(&Record::BatchDone { batch: 0 }).is_err());
        vfs.revive();
        let (_, rec) = Journal::open(&dir, vfs as Arc<dyn Vfs>).unwrap();
        // The failed BatchDone never landed, so recovery conservatively
        // re-offers batch 0 — the cache makes the re-run free.
        assert_eq!(rec.pending.len(), 1);
        assert!(!rec.torn_tail, "ENOSPC wrote nothing: no torn frame");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
