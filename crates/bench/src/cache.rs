//! On-disk experiment result cache keyed by canonical job digests.
//!
//! When `PRF_CACHE_DIR` is set, the resilient matrix runner consults this
//! cache before simulating: a job whose [`crate::digest::job_digest`]
//! matches a stored entry is answered from disk, bit-identically to the
//! run that produced it, and the simulation is skipped entirely. Entries
//! are written atomically (tempfile + rename in the same directory), so
//! concurrent shards — or a crash mid-write — can never publish a torn
//! entry; a reader either sees a complete entry or none.
//!
//! ## What is cacheable
//!
//! Only results that round-trip exactly through the entry schema are
//! stored:
//!
//! - observability extras must be off (`trace_capacity == 0`, no
//!   `sampling`, no `per_warp_stats`) — those payloads are large and not
//!   part of any figure's numbers;
//! - audited runs are stored only when **clean** (violation records carry
//!   `&'static str` invariants that cannot be restored from disk — and a
//!   violating run is precisely the one you want to re-execute).
//!
//! Non-cacheable jobs simply run; they count as misses in the matrix
//! footer but are never stored.
//!
//! ## Versioning
//!
//! Entries embed both [`CACHE_SCHEMA_VERSION`] (the entry layout) and the
//! digest itself embeds [`crate::digest::DIGEST_VERSION`] plus the
//! `Debug` rendering of every config struct, so struct changes invalidate
//! old entries without any migration logic: the digest simply stops
//! matching. Stale files are inert and can be deleted at leisure.
//!
//! ## Integrity
//!
//! Every entry carries a checksum footer — `sha256=<64 hex>` of the body
//! including its newline — verified on every read, so bit rot or a torn
//! write can never masquerade as a bit-exact cached result. Entries that
//! fail verification are **quarantined**: moved (never deleted, never
//! served) into a `corrupt/` subdirectory for forensics, counted in
//! [`CacheStats`], and surfaced in the matrix footer. Entries predating
//! the footer (schema v1) parse as valid-but-stale JSON and are plain
//! misses, not corruption. Opening a cache sweeps orphaned `.tmp-*`
//! files left by interrupted writes; a published `rename` is followed by
//! a directory fsync so entries survive power loss (platform caveats in
//! DESIGN.md §10).
//!
//! All file operations go through the [`crate::vfs::Vfs`] layer, so the
//! durability tests drive this cache over an injected-fault backend: a
//! write failure of any kind degrades to miss-and-recompute — counted in
//! [`CacheStats::write_errors`], never a panic, never a half-published
//! entry.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prf_core::{ExperimentResult, PhaseTimings, RfTelemetry};
use prf_isa::{Reg, MAX_ARCH_REGS};
use prf_sim::{AuditReport, PartitionAccessCounts, RegisterAccessHistogram, SimResult, SmStats};

use crate::digest::Sha256;
use crate::json::Json;
use crate::runner::{Job, JobOutcome};
use crate::vfs::{self, Vfs};

/// Version of the on-disk entry layout. Bump on any change to the entry
/// JSON shape; old entries are then ignored (treated as misses).
/// v2 added the `sha256=` checksum footer — v1 entries have none, so
/// they classify as stale (a miss), not corrupt. v3 added the drowsy
/// register-cycle counts to the telemetry.
pub const CACHE_SCHEMA_VERSION: u64 = 3;

/// Name of the quarantine subdirectory for corrupt entries.
pub const QUARANTINE_DIR: &str = "corrupt";

/// A cached job outcome: everything the matrix runner needs to replay the
/// job bit-identically without simulating.
#[derive(Debug)]
pub struct CachedOutcome {
    /// The outcome of the run that produced the entry (`Completed` or
    /// `Retried` — failures are never cached).
    pub outcome: JobOutcome,
    /// Worker wall-clock of the original run, replayed so `BENCH_*.json`
    /// job records are bit-identical between cold and warm runs.
    pub elapsed: Duration,
    /// The restored experiment result.
    pub result: ExperimentResult,
}

/// Durability telemetry for one cache handle, shared by its clones.
/// These counters are what turns a silently-degraded cache into a
/// visible `[cache: … write-err / … quarantined]` footer segment.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Failed entry publishes (tempfile write, rename, or directory
    /// fsync). Each one degraded a store to miss-and-recompute.
    pub write_errors: AtomicU64,
    /// Entries that failed checksum/parse verification and were moved
    /// to the quarantine directory.
    pub quarantined: AtomicU64,
    /// Orphaned `.tmp-*` files swept at open.
    pub swept_tmp: AtomicU64,
}

/// Handle on a cache directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    stats: Arc<CacheStats>,
}

impl ResultCache {
    /// The cache at `dir` (`PRF_CACHE_DIR`), created eagerly; on failure
    /// the cache is disabled with a diagnostic rather than failing the run.
    pub fn open_or_disable(dir: &Path) -> Option<ResultCache> {
        match ResultCache::open(dir, vfs::real()) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!(
                    "PRF_CACHE_DIR: cannot create {}: {e}; caching disabled",
                    dir.display()
                );
                None
            }
        }
    }

    /// A cache rooted at an explicit directory (created if needed).
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn at(dir: impl Into<PathBuf>) -> ResultCache {
        let dir = dir.into();
        ResultCache::open(dir.clone(), vfs::real())
            .unwrap_or_else(|e| panic!("cannot create cache dir {}: {e}", dir.display()))
    }

    /// Opens a cache over an explicit [`Vfs`] backend — the injectable
    /// seam the durability tests use. Creates the directory and sweeps
    /// orphaned `.tmp-*` files left by interrupted writes (a crashed
    /// process can leave a tempfile behind; it was never published, so
    /// removing it is safe and keeps the directory from silting up).
    ///
    /// # Errors
    ///
    /// Only when the directory cannot be created; sweep failures are
    /// diagnostics, not errors.
    pub fn open(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> io::Result<ResultCache> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let cache = ResultCache {
            dir,
            vfs,
            stats: Arc::new(CacheStats::default()),
        };
        cache.sweep_tmp();
        Ok(cache)
    }

    fn sweep_tmp(&self) {
        let Ok(entries) = self.vfs.list_dir(&self.dir) else {
            return;
        };
        for path in entries {
            let orphan = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"));
            if orphan && self.vfs.remove_file(&path).is_ok() {
                self.stats.swept_tmp.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Failed entry publishes so far (each degraded a store to
    /// miss-and-recompute).
    pub fn write_errors(&self) -> u64 {
        self.stats.write_errors.load(Ordering::Relaxed)
    }

    /// Corrupt entries quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.stats.quarantined.load(Ordering::Relaxed)
    }

    /// Orphaned `.tmp-*` files swept at open.
    pub fn swept_tmp(&self) -> u64 {
        self.stats.swept_tmp.load(Ordering::Relaxed)
    }

    /// Where quarantined entries live.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    /// True when the job's configuration produces a result this cache can
    /// round-trip exactly (see the module docs for the rules).
    pub fn is_cacheable(job: &Job) -> bool {
        job.gpu.trace_capacity == 0 && !job.gpu.per_warp_stats && job.gpu.sampling.is_none()
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Moves a corrupt entry into the quarantine directory — never
    /// deleted, never served — and counts it. If the move itself fails
    /// the file stays in place (still never served: the caller already
    /// rejected it), which is the conservative failure mode.
    fn quarantine(&self, digest: &str, why: &str) {
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
        let src = self.entry_path(digest);
        let dst = self.quarantine_dir().join(format!("{digest}.json"));
        let moved = self
            .vfs
            .create_dir_all(&self.quarantine_dir())
            .and_then(|()| self.vfs.rename(&src, &dst));
        match moved {
            Ok(()) => eprintln!("cache: quarantined corrupt entry {digest}: {why}"),
            Err(e) => {
                eprintln!("cache: corrupt entry {digest} ({why}); quarantine move failed: {e}")
            }
        }
    }

    /// Looks up an entry. Returns `None` on any mismatch — missing file,
    /// wrong schema version, or an entry whose RF name differs from the
    /// job's (paranoia: the digest should preclude it). An entry whose
    /// bytes fail checksum verification is quarantined as a side effect
    /// (see the module docs); a stale-but-intact pre-footer entry is a
    /// plain miss.
    pub fn load(&self, digest: &str, job: &Job) -> Option<CachedOutcome> {
        let bytes = self.vfs.read(&self.entry_path(digest)).ok()?;
        let text = match String::from_utf8(bytes) {
            Ok(t) => t,
            Err(_) => {
                self.quarantine(digest, "entry is not UTF-8");
                return None;
            }
        };
        let body = match verify_entry(&text) {
            EntryCheck::Valid(body) => body,
            EntryCheck::Stale => return None,
            EntryCheck::Corrupt(why) => {
                self.quarantine(digest, why);
                return None;
            }
        };
        let Ok(doc) = Json::parse(body) else {
            // The checksum vouched for these bytes, yet they are not a
            // JSON document: a writer bug, not bit rot — quarantine so
            // the evidence survives.
            self.quarantine(digest, "checksummed body is not JSON");
            return None;
        };
        if doc.get("cache_schema_version")?.as_u64()? != CACHE_SCHEMA_VERSION {
            return None;
        }
        if doc.get("digest")?.as_str()? != digest {
            return None;
        }
        // `rf_name` is `&'static str`: restore it from the job's own
        // RfKind, after checking it names the same organisation.
        let rf_name = job.rf.name();
        if doc.get("rf")?.as_str()? != rf_name {
            return None;
        }
        let attempts = doc.get("attempts")?.as_u64()?;
        let outcome = if attempts <= 1 {
            JobOutcome::Completed
        } else {
            JobOutcome::Retried {
                attempts: u32::try_from(attempts).ok()?,
            }
        };
        Some(CachedOutcome {
            outcome,
            elapsed: Duration::from_nanos(doc.get("elapsed_ns")?.as_u64()?),
            result: result_from_json(doc.get("result")?, rf_name)?,
        })
    }

    /// Stores a successful job result. Returns `false` (without writing)
    /// when the result is not exactly round-trippable — observability
    /// payloads present, or a non-clean audit — or on I/O failure (with a
    /// diagnostic; a broken cache must not fail the run).
    pub fn store(
        &self,
        digest: &str,
        job: &Job,
        outcome: &JobOutcome,
        elapsed: Duration,
        result: &ExperimentResult,
    ) -> bool {
        if !Self::is_cacheable(job) || !result_is_storable(result) {
            return false;
        }
        let attempts = match outcome {
            JobOutcome::Completed => 1,
            JobOutcome::Retried { attempts } => u64::from(*attempts),
            _ => return false,
        };
        let doc = Json::obj()
            .field("cache_schema_version", CACHE_SCHEMA_VERSION)
            .field("digest", digest)
            .field("job_name", job.name.as_str())
            .field("rf", job.rf.name())
            .field("attempts", attempts)
            .field(
                "elapsed_ns",
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            )
            .field("result", result_to_json(result));
        // Body line, then the checksum footer over the body *including*
        // its newline — a reader re-hashes exactly what precedes the
        // footer line.
        let mut entry = doc.to_json();
        entry.push('\n');
        let mut hasher = Sha256::new();
        hasher.update(entry.as_bytes());
        entry.push_str(CHECKSUM_PREFIX);
        entry.push_str(&hasher.finish_hex());
        entry.push('\n');
        // Atomic publish: write the full entry to a private temp file in
        // the same directory, then rename over the final name. Renames
        // within a directory are atomic, so concurrent shards racing on
        // the same digest simply last-write-wins with identical bytes.
        // Any I/O failure — tempfile write, rename, directory fsync — is
        // counted as a write error: the job's result is still returned
        // to the caller, the cache just degraded to miss-and-recompute.
        let tmp = self
            .dir
            .join(format!(".tmp-{digest}-{}", std::process::id()));
        if let Err(e) = self.vfs.write_file(&tmp, entry.as_bytes()) {
            eprintln!("cache: cannot write {}: {e}", tmp.display());
            self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            let _ = self.vfs.remove_file(&tmp);
            return false;
        }
        if let Err(e) = self.vfs.rename(&tmp, &self.entry_path(digest)) {
            eprintln!(
                "cache: cannot publish {}: {e}",
                self.entry_path(digest).display()
            );
            self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            let _ = self.vfs.remove_file(&tmp);
            return false;
        }
        // Make the rename durable: fsync the directory. On platforms
        // where directories cannot be fsynced this is a no-op inside
        // RealVfs (see `Vfs::sync_dir`); an injected failure here still
        // counts — the entry is published for this boot but might not
        // survive power loss.
        if let Err(e) = self.vfs.sync_dir(&self.dir) {
            eprintln!("cache: cannot fsync {}: {e}", self.dir.display());
            self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        true
    }
}

/// The checksum footer label.
const CHECKSUM_PREFIX: &str = "sha256=";

/// Classification of raw entry text.
enum EntryCheck<'a> {
    /// Footer present and the checksum matches: `body` (without the
    /// footer line) is integrity-verified.
    Valid(&'a str),
    /// No footer, but the whole file is an intact JSON document with a
    /// `cache_schema_version` field — a pre-footer (schema v1) entry.
    /// Stale, not corrupt: a plain miss.
    Stale,
    /// Anything else: truncated, bit-flipped, or foreign bytes.
    Corrupt(&'static str),
}

/// Verifies the `sha256=` footer of entry text. The expected layout is
/// `<single-line JSON body>\n` followed by `sha256=<64 lowercase hex>\n`;
/// the checksum covers everything before the footer line.
fn verify_entry(text: &str) -> EntryCheck<'_> {
    let stale_or = |why: &'static str| {
        // Distinguish an old-format entry from damage: v1 entries are
        // intact JSON documents (with a schema field) and no footer.
        let looks_v1 = Json::parse(text.trim_end())
            .ok()
            .and_then(|doc| doc.get("cache_schema_version")?.as_u64())
            .is_some();
        if looks_v1 {
            EntryCheck::Stale
        } else {
            EntryCheck::Corrupt(why)
        }
    };
    let Some(without_final_newline) = text.strip_suffix('\n') else {
        return stale_or("missing trailing newline");
    };
    let Some((body, footer)) = without_final_newline.rsplit_once('\n') else {
        return stale_or("no checksum footer");
    };
    let Some(hex) = footer.strip_prefix(CHECKSUM_PREFIX) else {
        return stale_or("footer is not a sha256= line");
    };
    if hex.len() != 64 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return EntryCheck::Corrupt("malformed checksum hex");
    }
    // Re-hash the body plus its newline — exactly the bytes that
    // preceded the footer line on disk.
    let mut hasher = Sha256::new();
    hasher.update(body.as_bytes());
    hasher.update(b"\n");
    if hasher.finish_hex() != hex {
        return EntryCheck::Corrupt("checksum mismatch");
    }
    EntryCheck::Valid(body)
}

/// True when the result round-trips exactly through the entry schema:
/// no trace/sample/per-warp payloads, and every audit (if any) clean.
fn result_is_storable(r: &ExperimentResult) -> bool {
    let audits_clean = r.audit.as_ref().is_none_or(AuditReport::is_clean)
        && r.per_launch
            .iter()
            .all(|l| l.audit.as_ref().is_none_or(AuditReport::is_clean));
    let no_extras = r.stats.per_warp.is_empty()
        && r.per_launch
            .iter()
            .all(|l| l.trace.is_empty() && l.samples.is_empty() && l.stats.per_warp.is_empty());
    audits_clean && no_extras
}

fn u64_arr(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
}

fn regs_arr(regs: &[Reg]) -> Json {
    Json::Arr(regs.iter().map(|r| Json::from(r.index())).collect())
}

fn opt_u64(x: Option<u64>) -> Json {
    x.map_or(Json::Null, Json::from)
}

fn histogram_json(h: &RegisterAccessHistogram) -> Json {
    u64_arr(h.counts())
}

fn partition_json(p: &PartitionAccessCounts) -> Json {
    let (reads, writes) = p.raw();
    Json::obj()
        .field("reads", u64_arr(reads))
        .field("writes", u64_arr(writes))
}

fn stats_json(s: &SmStats) -> Json {
    Json::obj()
        .field("instructions", s.instructions)
        .field("active_cycles", s.active_cycles)
        .field("issue_cycles", s.issue_cycles)
        .field("reg_accesses", histogram_json(&s.reg_accesses))
        .field("partition_accesses", partition_json(&s.partition_accesses))
        .field("bank_conflict_waits", s.bank_conflict_waits)
        .field("collector_stalls", s.collector_stalls)
        .field("l1_hits", s.l1_hits)
        .field("l1_misses", s.l1_misses)
        .field("mem_transactions", s.mem_transactions)
        .field("mem_instructions", s.mem_instructions)
        .field("stall_mem", s.stall_mem)
        .field("stall_barrier", s.stall_barrier)
        .field("stall_collector", s.stall_collector)
        .field("stall_alu_dep", s.stall_alu_dep)
        .field("divergent_branches", s.divergent_branches)
        .field("total_branches", s.total_branches)
        .field("active_lane_sum", s.active_lane_sum)
        .field("rf_repairs", u64_arr(&s.rf_repairs))
}

fn audit_json(a: &AuditReport) -> Json {
    Json::obj()
        .field("issue_events", a.issue_events)
        .field("collect_events", a.collect_events)
        .field("rf_events", partition_json(&a.rf_events))
        .field("writeback_events", a.writeback_events)
        .field("lsu_complete_events", a.lsu_complete_events)
        .field("sb_reserve_events", a.sb_reserve_events)
        .field("sb_release_events", a.sb_release_events)
        .field("rfc_evict_events", a.rfc_evict_events)
        .field("rf_repair_events", u64_arr(&a.rf_repair_events))
        .field("checks", a.checks)
}

fn telemetry_json(t: &RfTelemetry) -> Json {
    Json::obj()
        .field("rfc_hits", t.rfc_hits)
        .field("rfc_read_hits", t.rfc_read_hits)
        .field("rfc_misses", t.rfc_misses)
        .field("rfc_writebacks", t.rfc_writebacks)
        .field("frf_high_epochs", t.frf_high_epochs)
        .field("frf_low_epochs", t.frf_low_epochs)
        .field("fault_remaps", t.fault_remaps)
        .field("fault_spills", t.fault_spills)
        .field("fault_escalations", t.fault_escalations)
        .field("drowsy_reg_cycles", t.drowsy_reg_cycles)
        .field("live_reg_cycles", t.live_reg_cycles)
        .field("compiler_hot_regs", regs_arr(&t.compiler_hot_regs))
        .field("pilot_hot_regs", regs_arr(&t.pilot_hot_regs))
        .field("pilot_done_cycle", opt_u64(t.pilot_done_cycle))
}

fn phases_json(p: &PhaseTimings) -> Json {
    // Exact nanosecond integers, not milliseconds-as-float: the warm run
    // must reproduce the cold run's phase profile bit-for-bit.
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    Json::obj()
        .field("setup_ns", ns(p.setup))
        .field("simulate_ns", ns(p.simulate))
        .field("energy_ns", ns(p.energy))
        .field("audit_ns", ns(p.audit))
}

fn launch_json(l: &SimResult) -> Json {
    Json::obj()
        .field("kernel", l.kernel.as_str())
        .field("cycles", l.cycles)
        .field("stats", stats_json(&l.stats))
        .field("pilot_warp_finish", opt_u64(l.pilot_warp_finish))
        .field("per_sm_instructions", u64_arr(&l.per_sm_instructions))
        .field("audit", l.audit.as_ref().map_or(Json::Null, audit_json))
}

fn result_to_json(r: &ExperimentResult) -> Json {
    Json::obj()
        .field("cycles", r.cycles)
        .field("stats", stats_json(&r.stats))
        .field(
            "per_launch",
            Json::Arr(r.per_launch.iter().map(launch_json).collect()),
        )
        .field("telemetry", telemetry_json(&r.telemetry))
        .field("dynamic_energy_pj", r.dynamic_energy_pj)
        .field("baseline_dynamic_energy_pj", r.baseline_dynamic_energy_pj)
        .field("leakage_energy_pj", r.leakage_energy_pj)
        .field("baseline_leakage_energy_pj", r.baseline_leakage_energy_pj)
        .field("repair_energy_pj", r.repair_energy_pj)
        .field("phases", phases_json(&r.phases))
        .field("audit", r.audit.as_ref().map_or(Json::Null, audit_json))
}

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key)?.as_u64()
}

fn get_f64(j: &Json, key: &str) -> Option<f64> {
    j.get(key)?.as_f64()
}

fn u64s(j: &Json) -> Option<Vec<u64>> {
    j.as_arr()?.iter().map(Json::as_u64).collect()
}

fn fixed<const N: usize>(v: Vec<u64>) -> Option<[u64; N]> {
    v.try_into().ok()
}

fn histogram_from(j: &Json) -> Option<RegisterAccessHistogram> {
    let counts: [u64; MAX_ARCH_REGS] = fixed(u64s(j)?)?;
    Some(RegisterAccessHistogram::from_counts(counts))
}

fn partition_from(j: &Json) -> Option<PartitionAccessCounts> {
    let reads: [u64; 8] = fixed(u64s(j.get("reads")?)?)?;
    let writes: [u64; 8] = fixed(u64s(j.get("writes")?)?)?;
    Some(PartitionAccessCounts::from_raw(reads, writes))
}

fn regs_from(j: &Json) -> Option<Vec<Reg>> {
    j.as_arr()?
        .iter()
        .map(|x| {
            let i = x.as_u64()?;
            u8::try_from(i).ok().map(Reg)
        })
        .collect()
}

fn opt_u64_from(j: &Json, key: &str) -> Option<Option<u64>> {
    match j.get(key)? {
        Json::Null => Some(None),
        other => Some(Some(other.as_u64()?)),
    }
}

fn stats_from(j: &Json) -> Option<SmStats> {
    Some(SmStats {
        instructions: get_u64(j, "instructions")?,
        active_cycles: get_u64(j, "active_cycles")?,
        issue_cycles: get_u64(j, "issue_cycles")?,
        reg_accesses: histogram_from(j.get("reg_accesses")?)?,
        partition_accesses: partition_from(j.get("partition_accesses")?)?,
        bank_conflict_waits: get_u64(j, "bank_conflict_waits")?,
        collector_stalls: get_u64(j, "collector_stalls")?,
        per_warp: Default::default(),
        l1_hits: get_u64(j, "l1_hits")?,
        l1_misses: get_u64(j, "l1_misses")?,
        mem_transactions: get_u64(j, "mem_transactions")?,
        mem_instructions: get_u64(j, "mem_instructions")?,
        stall_mem: get_u64(j, "stall_mem")?,
        stall_barrier: get_u64(j, "stall_barrier")?,
        stall_collector: get_u64(j, "stall_collector")?,
        stall_alu_dep: get_u64(j, "stall_alu_dep")?,
        divergent_branches: get_u64(j, "divergent_branches")?,
        total_branches: get_u64(j, "total_branches")?,
        active_lane_sum: get_u64(j, "active_lane_sum")?,
        rf_repairs: fixed(u64s(j.get("rf_repairs")?)?)?,
    })
}

fn audit_from(j: &Json) -> Option<AuditReport> {
    Some(AuditReport {
        issue_events: get_u64(j, "issue_events")?,
        collect_events: get_u64(j, "collect_events")?,
        rf_events: partition_from(j.get("rf_events")?)?,
        writeback_events: get_u64(j, "writeback_events")?,
        lsu_complete_events: get_u64(j, "lsu_complete_events")?,
        sb_reserve_events: get_u64(j, "sb_reserve_events")?,
        sb_release_events: get_u64(j, "sb_release_events")?,
        rfc_evict_events: get_u64(j, "rfc_evict_events")?,
        rf_repair_events: fixed(u64s(j.get("rf_repair_events")?)?)?,
        checks: get_u64(j, "checks")?,
        // Only clean runs are stored, so restoring an empty violation
        // list is exact.
        violations: Vec::new(),
    })
}

fn opt_audit_from(j: &Json, key: &str) -> Option<Option<AuditReport>> {
    match j.get(key)? {
        Json::Null => Some(None),
        other => Some(Some(audit_from(other)?)),
    }
}

fn telemetry_from(j: &Json) -> Option<RfTelemetry> {
    Some(RfTelemetry {
        rfc_hits: get_u64(j, "rfc_hits")?,
        rfc_read_hits: get_u64(j, "rfc_read_hits")?,
        rfc_misses: get_u64(j, "rfc_misses")?,
        rfc_writebacks: get_u64(j, "rfc_writebacks")?,
        frf_high_epochs: get_u64(j, "frf_high_epochs")?,
        frf_low_epochs: get_u64(j, "frf_low_epochs")?,
        fault_remaps: get_u64(j, "fault_remaps")?,
        fault_spills: get_u64(j, "fault_spills")?,
        fault_escalations: get_u64(j, "fault_escalations")?,
        drowsy_reg_cycles: get_u64(j, "drowsy_reg_cycles")?,
        live_reg_cycles: get_u64(j, "live_reg_cycles")?,
        compiler_hot_regs: regs_from(j.get("compiler_hot_regs")?)?,
        pilot_hot_regs: regs_from(j.get("pilot_hot_regs")?)?,
        pilot_done_cycle: opt_u64_from(j, "pilot_done_cycle")?,
    })
}

fn phases_from(j: &Json) -> Option<PhaseTimings> {
    Some(PhaseTimings {
        setup: Duration::from_nanos(get_u64(j, "setup_ns")?),
        simulate: Duration::from_nanos(get_u64(j, "simulate_ns")?),
        energy: Duration::from_nanos(get_u64(j, "energy_ns")?),
        audit: Duration::from_nanos(get_u64(j, "audit_ns")?),
    })
}

fn launch_from(j: &Json) -> Option<SimResult> {
    Some(SimResult {
        kernel: j.get("kernel")?.as_str()?.to_string(),
        cycles: get_u64(j, "cycles")?,
        stats: stats_from(j.get("stats")?)?,
        pilot_warp_finish: opt_u64_from(j, "pilot_warp_finish")?,
        per_sm_instructions: u64s(j.get("per_sm_instructions")?)?,
        trace: Vec::new(),
        samples: Vec::new(),
        audit: opt_audit_from(j, "audit")?,
    })
}

fn result_from_json(j: &Json, rf_name: &'static str) -> Option<ExperimentResult> {
    Some(ExperimentResult {
        rf_name,
        cycles: get_u64(j, "cycles")?,
        stats: stats_from(j.get("stats")?)?,
        per_launch: j
            .get("per_launch")?
            .as_arr()?
            .iter()
            .map(launch_from)
            .collect::<Option<Vec<_>>>()?,
        telemetry: telemetry_from(j.get("telemetry")?)?,
        dynamic_energy_pj: get_f64(j, "dynamic_energy_pj")?,
        baseline_dynamic_energy_pj: get_f64(j, "baseline_dynamic_energy_pj")?,
        leakage_energy_pj: get_f64(j, "leakage_energy_pj")?,
        baseline_leakage_energy_pj: get_f64(j, "baseline_leakage_energy_pj")?,
        repair_energy_pj: get_f64(j, "repair_energy_pj")?,
        phases: phases_from(j.get("phases")?)?,
        audit: opt_audit_from(j, "audit")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::job_digest;
    use prf_core::RfKind;
    use prf_sim::GpuConfig;
    use std::fs;
    use std::path::Path;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("prf_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::at(dir)
    }

    /// Rewrites an entry's body line through `f` and recomputes the
    /// checksum footer, so the result is *intact* (not corrupt) but
    /// carries the transformed body.
    fn rewrite_body(path: &Path, f: impl Fn(&str) -> String) {
        let text = fs::read_to_string(path).unwrap();
        let body = text.split('\n').next().unwrap();
        let mut entry = f(body);
        entry.push('\n');
        let mut h = Sha256::new();
        h.update(entry.as_bytes());
        entry.push_str(CHECKSUM_PREFIX);
        entry.push_str(&h.finish_hex());
        entry.push('\n');
        fs::write(path, entry).unwrap();
    }

    fn run_job(seed: u64, audit: bool) -> (Job, Duration, ExperimentResult) {
        let w = prf_workloads::suite::bfs();
        let gpu = GpuConfig {
            jitter_seed: seed,
            audit,
            ..GpuConfig::kepler_single_sm()
        };
        let rf = RfKind::Partitioned(prf_core::PartitionedRfConfig::paper_default());
        let job = Job::new(format!("BFS/seed{seed}"), &w, &gpu, &rf);
        let result = prf_core::run_experiment_with_faults(
            &job.gpu,
            &job.rf,
            &job.workload.launches,
            &job.workload.mem_init,
            job.faults.as_ref(),
        )
        .expect("tiny workload simulates cleanly");
        (job, Duration::from_micros(1234), result)
    }

    #[test]
    fn round_trips_a_real_result_bit_identically() {
        let cache = temp_cache("roundtrip");
        let (job, elapsed, result) = run_job(0, true);
        let digest = job_digest(&job);
        assert!(cache.load(&digest, &job).is_none(), "cold cache is empty");
        assert!(cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        let hit = cache.load(&digest, &job).expect("entry stored");
        assert_eq!(hit.outcome, JobOutcome::Completed);
        assert_eq!(hit.elapsed, elapsed);
        // Full structural equality: every counter, energy figure, phase
        // duration, audit counter, and telemetry value survives the disk
        // round-trip exactly.
        assert_eq!(hit.result, result);
    }

    #[test]
    fn changed_seed_is_a_miss() {
        let cache = temp_cache("seed_miss");
        let (job0, elapsed, result) = run_job(0, false);
        let digest0 = job_digest(&job0);
        assert!(cache.store(&digest0, &job0, &JobOutcome::Completed, elapsed, &result));
        let (job1, _, _) = run_job(1, false);
        let digest1 = job_digest(&job1);
        assert_ne!(digest0, digest1, "seed must be part of the digest");
        assert!(cache.load(&digest1, &job1).is_none());
    }

    #[test]
    fn non_cacheable_configs_are_refused() {
        let (job, elapsed, result) = run_job(0, false);
        let mut traced = job.clone();
        traced.gpu.trace_capacity = 1024;
        assert!(!ResultCache::is_cacheable(&traced));
        let mut warped = job.clone();
        warped.gpu.per_warp_stats = true;
        assert!(!ResultCache::is_cacheable(&warped));
        assert!(ResultCache::is_cacheable(&job));
        let cache = temp_cache("refuse");
        assert!(!cache.store(
            &job_digest(&traced),
            &traced,
            &JobOutcome::Completed,
            elapsed,
            &result
        ));
    }

    #[test]
    fn schema_version_mismatch_is_a_stale_miss_not_corruption() {
        let cache = temp_cache("schema");
        let (job, elapsed, result) = run_job(0, false);
        let digest = job_digest(&job);
        assert!(cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        let path = cache.entry_path(&digest);
        rewrite_body(&path, |body| {
            let bumped = body.replace(
                &format!("\"cache_schema_version\":{CACHE_SCHEMA_VERSION}"),
                "\"cache_schema_version\":999999",
            );
            assert_ne!(body, bumped, "version field must be present");
            bumped
        });
        assert!(cache.load(&digest, &job).is_none());
        assert_eq!(
            cache.quarantined(),
            0,
            "an intact entry from another version is stale, not corrupt"
        );
    }

    #[test]
    fn pre_footer_v1_entries_are_stale_misses_not_corruption() {
        let cache = temp_cache("v1_stale");
        let (job, elapsed, result) = run_job(0, false);
        let digest = job_digest(&job);
        assert!(cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        let path = cache.entry_path(&digest);
        // Strip the footer and claim schema v1: exactly what a pre-PR
        // entry looks like on disk.
        let text = fs::read_to_string(&path).unwrap();
        let body = text.split('\n').next().unwrap().replace(
            &format!("\"cache_schema_version\":{CACHE_SCHEMA_VERSION}"),
            "\"cache_schema_version\":1",
        );
        fs::write(&path, format!("{body}\n")).unwrap();
        assert!(cache.load(&digest, &job).is_none());
        assert_eq!(cache.quarantined(), 0, "v1 entries must not be quarantined");
        assert!(path.exists(), "stale entries stay in place");
    }

    #[test]
    fn torn_or_corrupt_entries_are_quarantined_never_served() {
        let cache = temp_cache("corrupt");
        let (job, elapsed, result) = run_job(0, false);
        let digest = job_digest(&job);
        assert!(cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        let path = cache.entry_path(&digest);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.load(&digest, &job).is_none(), "truncated entry");
        assert_eq!(cache.quarantined(), 1);
        let jailed = cache.quarantine_dir().join(format!("{digest}.json"));
        assert!(jailed.exists(), "quarantined, not deleted");
        assert!(!path.exists(), "quarantined entry leaves the cache dir");

        fs::write(&path, "not json at all").unwrap();
        assert!(cache.load(&digest, &job).is_none(), "garbage entry");
        assert_eq!(cache.quarantined(), 2);

        // Quarantine + re-run repopulates: the slot is free again and a
        // fresh store round-trips.
        assert!(cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        assert!(cache.load(&digest, &job).is_some());
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            text,
            "repopulated entry is byte-identical to the original"
        );
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files() {
        let dir = std::env::temp_dir().join(format!("prf_cache_test_sweep_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".tmp-deadbeef-12345"), b"half-written").unwrap();
        fs::write(dir.join("keepme.json"), b"{}").unwrap();
        let cache = ResultCache::at(&dir);
        assert_eq!(cache.swept_tmp(), 1);
        assert!(!dir.join(".tmp-deadbeef-12345").exists());
        assert!(dir.join("keepme.json").exists(), "sweep only takes .tmp-*");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failures_degrade_to_miss_and_are_counted() {
        use crate::vfs::{FaultPlan, FaultyVfs};
        let dir =
            std::env::temp_dir().join(format!("prf_cache_test_enospc_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let faulty = Arc::new(FaultyVfs::new());
        let cache = ResultCache::open(&dir, faulty.clone() as Arc<dyn Vfs>).unwrap();
        let (job, elapsed, result) = run_job(0, false);
        let digest = job_digest(&job);

        faulty.set_plan(FaultPlan {
            fail_writes: true,
            ..FaultPlan::default()
        });
        assert!(!cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        assert_eq!(cache.write_errors(), 1, "ENOSPC counts");

        faulty.set_plan(FaultPlan {
            fail_rename: true,
            ..FaultPlan::default()
        });
        assert!(!cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        assert_eq!(cache.write_errors(), 2, "rename failure counts");
        assert!(
            cache.load(&digest, &job).is_none(),
            "failed publishes leave no entry"
        );

        faulty.revive();
        assert!(cache.store(&digest, &job, &JobOutcome::Completed, elapsed, &result));
        assert!(cache.load(&digest, &job).is_some(), "healed disk stores");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_outcome_survives_the_round_trip() {
        let cache = temp_cache("retried");
        let (job, elapsed, result) = run_job(0, false);
        let digest = job_digest(&job);
        let outcome = JobOutcome::Retried { attempts: 3 };
        assert!(cache.store(&digest, &job, &outcome, elapsed, &result));
        let hit = cache.load(&digest, &job).expect("stored");
        assert_eq!(hit.outcome, outcome);
    }

    #[test]
    fn failures_are_never_stored() {
        let cache = temp_cache("failures");
        let (job, elapsed, result) = run_job(0, false);
        let digest = job_digest(&job);
        for outcome in [
            JobOutcome::Panicked {
                message: "boom".into(),
            },
            JobOutcome::TimedOut {
                timeout: Duration::from_secs(1),
            },
        ] {
            assert!(!cache.store(&digest, &job, &outcome, elapsed, &result));
        }
        assert!(cache.load(&digest, &job).is_none());
    }
}
