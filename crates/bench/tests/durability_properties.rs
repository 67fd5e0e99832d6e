//! Property tests for the durability layer (ISSUE 9): cache entries
//! with any single flipped byte are quarantined — never parsed into a
//! served result — and journal replay tolerates truncation at every
//! byte offset, losing at most the torn tail record.
//!
//! The vendored proptest subset has no byte-string strategy, so flip
//! positions and truncation offsets are drawn as `u64`s and reduced
//! modulo the artefact length.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use prf_bench::cache::ResultCache;
use prf_bench::digest::job_digest;
use prf_bench::journal::{Journal, Record, JOURNAL_FILE, JOURNAL_MAGIC};
use prf_bench::json::Json;
use prf_bench::runner::{run_matrix_resilient_configured, RetryPolicy};
use prf_bench::serve::job_from_spec;
use prf_bench::vfs;
use proptest::prelude::*;

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "prf_durability_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job_spec() -> Json {
    Json::obj()
        .field("workload", "BFS")
        .field("rf", "partitioned")
        .field("seed", 0u64)
        .field("audit", true)
}

/// Runs the reference job exactly once and returns `(digest, entry
/// bytes)` of the cache entry it produces. Every flip case perturbs a
/// copy of these bytes instead of re-simulating.
fn reference_entry() -> &'static (String, Vec<u8>) {
    static ENTRY: OnceLock<(String, Vec<u8>)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let dir = unique_dir("reference");
        let cache = ResultCache::at(&dir);
        let job = job_from_spec(&job_spec()).unwrap();
        let digest = job_digest(&job);
        let outcome = run_matrix_resilient_configured(
            std::slice::from_ref(&job),
            RetryPolicy::none(),
            1,
            None,
            Some(&cache),
        );
        assert!(
            outcome.reports[0].result.is_some(),
            "reference job must run"
        );
        let bytes = std::fs::read(dir.join(format!("{digest}.json"))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (digest, bytes)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single flipped byte — header, body, separator, or checksum
    /// footer — quarantines the entry. It is never served, never
    /// deleted, and never panics the reader.
    #[test]
    fn any_single_byte_flip_is_quarantined_not_served(pos in any::<u64>(), mask in any::<u64>()) {
        let (digest, entry) = reference_entry();
        let mut flipped = entry.clone();
        let pos = (pos % flipped.len() as u64) as usize;
        let mask = 1 + (mask % 255) as u8; // nonzero: the byte really changes
        flipped[pos] ^= mask;

        let dir = unique_dir("flip");
        std::fs::create_dir_all(&dir).unwrap();
        let entry_path = dir.join(format!("{digest}.json"));
        std::fs::write(&entry_path, &flipped).unwrap();
        let cache = ResultCache::at(&dir);
        let job = job_from_spec(&job_spec()).unwrap();

        prop_assert!(
            cache.load(digest, &job).is_none(),
            "flipped byte {pos} (mask {mask:#04x}) must not be served"
        );
        prop_assert_eq!(cache.quarantined(), 1);
        let jailed = cache.quarantine_dir().join(format!("{digest}.json"));
        prop_assert!(jailed.exists(), "quarantined, not deleted");
        prop_assert_eq!(std::fs::read(&jailed).unwrap(), flipped);
        prop_assert!(!entry_path.exists(), "the corrupt entry leaves the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every prefix of a valid journal recovers without panicking, and
    /// the recovered pending set is exactly what the fully-contained
    /// frame prefix implies — at most the torn tail record is lost.
    #[test]
    fn journal_replay_survives_truncation_at_every_offset(cut in any::<u64>()) {
        let full = reference_journal();
        let cut = (cut % (full.len() as u64 + 1)) as usize;
        let dir = unique_dir("truncate");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(JOURNAL_FILE), &full[..cut]).unwrap();

        let (mut journal, recovery) = Journal::open(&dir, vfs::real()).unwrap();
        if cut < JOURNAL_MAGIC.len() {
            // Not even a full magic: an empty file replays as empty, a
            // partial one is preserved aside as foreign.
            prop_assert!(recovery.pending.is_empty());
            prop_assert_eq!(recovery.quarantined, cut > 0);
        } else {
            let contained = frames_within(&full[JOURNAL_MAGIC.len()..cut]);
            let expect = expected_pending(contained);
            let got: Vec<u64> = recovery.pending.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(&got, &expect, "cut at {} ({} full frames)", cut, contained);
            prop_assert_eq!(recovery.torn_tail, cut != frame_end(full, contained));
        }
        // The reopened journal is usable: an append lands and survives
        // the next replay regardless of where the tear was.
        journal.append(&Record::Submit { batch: 77, jobs: vec![job_spec()] }).unwrap();
        drop(journal);
        let (_, again) = Journal::open(&dir, vfs::real()).unwrap();
        prop_assert!(again.pending.iter().any(|(id, _)| *id == 77));
        prop_assert!(!again.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Strips the wall-clock provenance fields (`elapsed_ns`, phase
/// timings) from a cache entry's body. Everything left — digest,
/// cycles, energy, audit, telemetry — is deterministic and must
/// repopulate bit-identically.
fn deterministic_body(entry: &[u8]) -> Json {
    fn mask(doc: Json) -> Json {
        match doc {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| {
                        if k == "elapsed_ns" || k == "phases" {
                            (k, Json::Null)
                        } else {
                            (k, mask(v))
                        }
                    })
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(mask).collect()),
            other => other,
        }
    }
    let text = std::str::from_utf8(entry).unwrap();
    let body = text.split('\n').next().unwrap();
    mask(Json::parse(body).unwrap())
}

/// Quarantine plus re-run repopulates a bit-identical entry: the
/// corrupt bytes go to `corrupt/`, the slot is a plain miss, and the
/// deterministic simulator rebuilds exactly the original payload (only
/// the wall-clock provenance fields may differ).
#[test]
fn quarantine_and_rerun_repopulates_a_byte_identical_entry() {
    let (digest, entry) = reference_entry();
    let mut flipped = entry.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;

    let dir = unique_dir("repopulate");
    std::fs::create_dir_all(&dir).unwrap();
    let entry_path = dir.join(format!("{digest}.json"));
    std::fs::write(&entry_path, &flipped).unwrap();
    let cache = ResultCache::at(&dir);
    let job = job_from_spec(&job_spec()).unwrap();
    assert!(cache.load(digest, &job).is_none());
    assert_eq!(cache.quarantined(), 1);

    // Re-run through the matrix runner: miss, simulate, store.
    let outcome = run_matrix_resilient_configured(
        std::slice::from_ref(&job),
        RetryPolicy::none(),
        1,
        None,
        Some(&cache),
    );
    assert_eq!(outcome.reports[0].cached, Some(false), "must be a miss");
    let repopulated = std::fs::read(&entry_path).unwrap();
    assert_eq!(
        deterministic_body(&repopulated).to_json(),
        deterministic_body(entry).to_json(),
        "repopulated entry is bit-identical up to wall-clock provenance"
    );
    // And the repopulated entry passes integrity: a warm load serves it.
    assert!(cache.load(digest, &job).is_some());
    // And the quarantined corpse is still there for forensics.
    assert!(cache
        .quarantine_dir()
        .join(format!("{digest}.json"))
        .exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The known record sequence behind [`reference_journal`], as the
/// effect of each record on the pending set. `Next` touches no pending
/// state.
const JOURNAL_SCRIPT: &[Record2] = &[
    Record2::Next,
    Record2::Submit(0),
    Record2::Submit(1),
    Record2::Done(0),
    Record2::Submit(2),
];

#[derive(Clone, Copy)]
enum Record2 {
    Next,
    Submit(u64),
    Done(u64),
}

/// Builds (once) a journal holding [`JOURNAL_SCRIPT`] and returns its
/// raw bytes. `Journal::open` itself writes the leading `Next` record.
fn reference_journal() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = unique_dir("journal_build");
        let (mut journal, _) = Journal::open(&dir, vfs::real()).unwrap();
        journal
            .append(&Record::Submit {
                batch: 0,
                jobs: vec![job_spec(), job_spec().field("seed", 1u64)],
            })
            .unwrap();
        journal
            .append(&Record::Submit {
                batch: 1,
                jobs: vec![job_spec().field("seed", 2u64)],
            })
            .unwrap();
        journal.append(&Record::BatchDone { batch: 0 }).unwrap();
        journal
            .append(&Record::Submit {
                batch: 2,
                jobs: vec![job_spec().field("seed", 3u64)],
            })
            .unwrap();
        drop(journal);
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// Number of complete `[len][sum][payload]` frames fully contained in
/// `body` (journal bytes after the magic).
fn frames_within(body: &[u8]) -> usize {
    let mut pos = 0usize;
    let mut frames = 0usize;
    while let Some(header) = body.get(pos..pos + 12) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        if body.get(pos + 12..pos + 12 + len).is_none() {
            break;
        }
        pos += 12 + len;
        frames += 1;
    }
    frames
}

/// Byte offset (in the full journal) one past frame `n`.
fn frame_end(full: &[u8], n: usize) -> usize {
    let body = &full[JOURNAL_MAGIC.len()..];
    let mut pos = 0usize;
    for _ in 0..n {
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
    }
    JOURNAL_MAGIC.len() + pos
}

/// Pending batch ids after replaying the first `records` entries of
/// [`JOURNAL_SCRIPT`].
fn expected_pending(records: usize) -> Vec<u64> {
    let mut pending = Vec::new();
    for record in JOURNAL_SCRIPT.iter().take(records) {
        match record {
            Record2::Submit(b) => pending.push(*b),
            Record2::Done(b) => pending.retain(|p| p != b),
            Record2::Next => {}
        }
    }
    pending.sort_unstable();
    pending
}
