//! Injectable filesystem layer for the durable experiment engine.
//!
//! Every file operation the cache ([`crate::cache`]), the job journal
//! ([`crate::journal`]) and the run reports ([`crate::bench_report`])
//! perform is routed through the [`Vfs`] trait. Production code uses
//! [`RealVfs`] — a thin passthrough to `std::fs` — while tests use
//! [`FaultyVfs`] to inject the failures a long campaign actually meets:
//! disk-full (`ENOSPC`), short/torn writes, rename failure, and a
//! "power cut after N operations" mode that kills every subsequent
//! mutation mid-flight. The durability tests drive the whole engine
//! through a `FaultyVfs` and assert that every scenario ends in
//! *recover or quarantine*, never a panic and never silently corrupt
//! served data.
//!
//! The trait is deliberately tiny: whole-file read, atomic-publish
//! sized writes, appends, rename, remove, directory listing/creation,
//! and directory fsync. Nothing here buffers — callers hand over
//! complete byte slices, which is what makes torn-write injection
//! meaningful (the backend decides how many bytes "reached the disk").

use std::fmt::Debug;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Filesystem operations used by the cache, journal, and report layers.
///
/// All mutating methods are durability-annotated: `write_file` syncs
/// file contents before returning, `append` syncs only when asked, and
/// [`Vfs::sync_dir`] makes a preceding `rename` survive power loss on
/// platforms where directory fsync is meaningful (see the method docs).
pub trait Vfs: Send + Sync + Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (truncating) `path`, writes `bytes`, and fsyncs the file.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path` (creating it if absent); fsyncs the
    /// file when `sync` is true.
    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> io::Result<()>;

    /// Renames `from` to `to` (atomic within one directory on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries of a directory (file names resolved to full
    /// paths, order unspecified).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Fsyncs a *directory*, making completed renames inside it
    /// durable across power loss.
    ///
    /// Platform caveat: on Linux this opens the directory and calls
    /// `fsync` on it, which is the documented way to persist a rename.
    /// On platforms where directories cannot be opened or synced
    /// (e.g. Windows), implementations should degrade to a no-op — the
    /// rename is still atomic against process crashes, just not
    /// guaranteed against power loss. See DESIGN.md §10.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// True when `path` exists (any file type).
    fn exists(&self, path: &Path) -> bool;
}

/// The production backend: a stateless passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

/// Shared handle on the production backend.
pub fn real() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        fs::read_dir(path)?
            .map(|entry| entry.map(|e| e.path()))
            .collect()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it persists the
        // rename that published an entry inside it (Linux semantics).
        // Platforms that refuse to open directories degrade to a no-op:
        // atomicity against crashes still holds, power-loss durability
        // is best-effort there.
        match fs::File::open(path) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// What the [`FaultyVfs`] test backend should break.
///
/// All faults default to off; a default plan makes `FaultyVfs` behave
/// exactly like [`RealVfs`].
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Every write/append fails with `ENOSPC`-style errors (no bytes
    /// reach the disk).
    pub fail_writes: bool,
    /// Writes and appends land only their first `n` bytes, then fail —
    /// a short/torn write.
    pub torn_write_bytes: Option<usize>,
    /// Every rename fails (the publish step of an atomic write).
    pub fail_rename: bool,
    /// Directory fsync fails.
    pub fail_sync_dir: bool,
    /// After this many further mutating operations, the "machine loses
    /// power": the operation that crosses the budget lands only half
    /// its bytes (for writes/appends) or nothing (for other
    /// mutations), and every later mutation fails until
    /// [`FaultyVfs::revive`]. Reads keep working — they model
    /// inspecting the disk after reboot.
    pub power_cut_after_ops: Option<u64>,
}

/// Test backend: a [`RealVfs`] over a real directory, with injected
/// faults controlled by a [`FaultPlan`]. Shared freely (`Arc`) — the
/// plan can be swapped mid-test with [`FaultyVfs::set_plan`] to break
/// the disk at a chosen moment.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: RealVfs,
    plan: Mutex<FaultPlan>,
    /// Mutating operations performed so far (for power-cut budgets).
    ops: AtomicU64,
    /// Set once the power-cut budget is exhausted.
    dead: AtomicU64,
}

impl Default for FaultyVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultyVfs {
    /// A fault-free instance (behaves like [`RealVfs`]).
    pub fn new() -> Self {
        FaultyVfs {
            inner: RealVfs,
            plan: Mutex::new(FaultPlan::default()),
            ops: AtomicU64::new(0),
            dead: AtomicU64::new(0),
        }
    }

    /// Installs a new fault plan (replacing the previous one). The
    /// operation counter restarts so a `power_cut_after_ops` budget is
    /// measured from this moment, not from instance creation.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap() = plan;
        self.ops.store(0, Ordering::SeqCst);
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// True once a power cut has been simulated.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst) != 0
    }

    /// "Reboots the machine": clears the power-cut state and the fault
    /// plan so subsequent operations succeed again.
    pub fn revive(&self) {
        self.dead.store(0, Ordering::SeqCst);
        self.ops.store(0, Ordering::SeqCst);
        *self.plan.lock().unwrap() = FaultPlan::default();
    }

    fn enospc() -> io::Error {
        io::Error::other("injected fault: no space left on device")
    }

    fn power_cut() -> io::Error {
        io::Error::other("injected fault: power cut")
    }

    /// Charges one mutating operation against the power-cut budget.
    /// Returns `Err` when the machine is already dead, `Ok(true)` when
    /// this very operation is the one the power cut interrupts, and
    /// `Ok(false)` for a healthy operation.
    fn charge_op(&self) -> io::Result<bool> {
        if self.is_dead() {
            return Err(Self::power_cut());
        }
        let budget = self.plan.lock().unwrap().power_cut_after_ops;
        let Some(budget) = budget else {
            self.ops.fetch_add(1, Ordering::SeqCst);
            return Ok(false);
        };
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n >= budget {
            self.dead.store(1, Ordering::SeqCst);
            return Ok(true);
        }
        Ok(false)
    }
}

impl Vfs for FaultyVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads survive the power cut: they model post-reboot recovery.
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let cut = self.charge_op()?;
        let plan = self.plan.lock().unwrap().clone();
        if plan.fail_writes {
            return Err(Self::enospc());
        }
        let torn = if cut {
            Some(bytes.len() / 2)
        } else {
            plan.torn_write_bytes.filter(|&n| n < bytes.len())
        };
        if let Some(n) = torn {
            // The torn prefix really lands on disk — that's the point.
            self.inner.write_file(path, &bytes[..n])?;
            return Err(if cut {
                Self::power_cut()
            } else {
                Self::enospc()
            });
        }
        self.inner.write_file(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
        let cut = self.charge_op()?;
        let plan = self.plan.lock().unwrap().clone();
        if plan.fail_writes {
            return Err(Self::enospc());
        }
        let torn = if cut {
            Some(bytes.len() / 2)
        } else {
            plan.torn_write_bytes.filter(|&n| n < bytes.len())
        };
        if let Some(n) = torn {
            self.inner.append(path, &bytes[..n], false)?;
            return Err(if cut {
                Self::power_cut()
            } else {
                Self::enospc()
            });
        }
        self.inner.append(path, bytes, sync)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.charge_op()? {
            return Err(Self::power_cut());
        }
        if self.plan.lock().unwrap().fail_rename {
            return Err(io::Error::other("injected fault: rename failed"));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.charge_op()? {
            return Err(Self::power_cut());
        }
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.charge_op()? {
            return Err(Self::power_cut());
        }
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if self.charge_op()? {
            return Err(Self::power_cut());
        }
        if self.plan.lock().unwrap().fail_sync_dir {
            return Err(io::Error::other("injected fault: directory fsync failed"));
        }
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prf_vfs_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_vfs_round_trips_and_lists() {
        let dir = temp_dir("real");
        let vfs = RealVfs;
        let path = dir.join("a.txt");
        vfs.write_file(&path, b"hello").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        vfs.append(&path, b" world", true).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        let renamed = dir.join("b.txt");
        vfs.rename(&path, &renamed).unwrap();
        assert!(vfs.exists(&renamed) && !vfs.exists(&path));
        vfs.sync_dir(&dir).unwrap();
        let listing = vfs.list_dir(&dir).unwrap();
        assert_eq!(listing, vec![renamed.clone()]);
        vfs.remove_file(&renamed).unwrap();
        assert!(vfs.list_dir(&dir).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_vfs_injects_enospc_and_torn_writes() {
        let dir = temp_dir("faulty");
        let vfs = FaultyVfs::new();
        let path = dir.join("x.bin");
        vfs.write_file(&path, b"fine").unwrap();

        vfs.set_plan(FaultPlan {
            fail_writes: true,
            ..FaultPlan::default()
        });
        assert!(vfs.write_file(&path, b"nope").is_err());
        assert_eq!(
            vfs.read(&path).unwrap(),
            b"fine",
            "failed write left no bytes"
        );

        vfs.set_plan(FaultPlan {
            torn_write_bytes: Some(2),
            ..FaultPlan::default()
        });
        assert!(vfs.write_file(&path, b"longer").is_err());
        assert_eq!(vfs.read(&path).unwrap(), b"lo", "torn prefix must land");

        vfs.revive();
        vfs.write_file(&path, b"healed").unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"healed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_cut_kills_mutations_but_not_reads() {
        let dir = temp_dir("powercut");
        let vfs = FaultyVfs::new();
        let path = dir.join("wal");
        vfs.append(&path, b"AAAA", true).unwrap();
        vfs.set_plan(FaultPlan {
            power_cut_after_ops: Some(1),
            ..FaultPlan::default()
        });
        vfs.append(&path, b"BBBB", true).unwrap(); // within budget
        let torn = vfs.append(&path, b"CCCC", true); // the cut: half lands
        assert!(torn.is_err());
        assert!(vfs.is_dead());
        assert_eq!(vfs.read(&path).unwrap(), b"AAAABBBBCC");
        assert!(
            vfs.append(&path, b"DDDD", true).is_err(),
            "dead disk stays dead"
        );
        assert!(vfs.rename(&path, &dir.join("moved")).is_err());
        // Post-reboot inspection still works.
        assert_eq!(vfs.read(&path).unwrap(), b"AAAABBBBCC");
        vfs.revive();
        vfs.append(&path, b"EEEE", true).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"AAAABBBBCCEEEE");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_failure_is_injectable() {
        let dir = temp_dir("rename");
        let vfs = FaultyVfs::new();
        let a = dir.join("a");
        vfs.write_file(&a, b"x").unwrap();
        vfs.set_plan(FaultPlan {
            fail_rename: true,
            ..FaultPlan::default()
        });
        assert!(vfs.rename(&a, &dir.join("b")).is_err());
        assert!(vfs.exists(&a), "failed rename must leave the source");
        let _ = fs::remove_dir_all(&dir);
    }
}
