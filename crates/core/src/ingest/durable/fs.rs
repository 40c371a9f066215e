//! Filesystem abstraction for the durable ingest path.
//!
//! Every file operation the WAL/snapshot/lock machinery performs goes
//! through [`WalFs`], so the whole durability layer can run against either
//! the real filesystem ([`StdFs`]) or a deterministic fault injector
//! ([`FaultyFs`]) that fails the Nth operation with EIO, writes short,
//! reports ENOSPC, lies about `fsync`, or tears a rename between unlink
//! and link. The injector is what lets tests and CI *prove* the recovery
//! invariants under disk failure instead of hoping.
//!
//! Transient-failure handling lives here too: [`IoPolicy`] bounds
//! retry-with-exponential-backoff, and `with_retry` is the single retry
//! loop every durable I/O call goes through (retries are counted by the
//! caller via the returned attempt count).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `EIO` — the transient read/write error a flaky disk or controller
/// reports.
pub const EIO: i32 = 5;
/// `ENOSPC` — the volume is full; retryable because log shipping /
/// compaction elsewhere may free space.
pub const ENOSPC: i32 = 28;

// ---------------------------------------------------------------------------
// Traits
// ---------------------------------------------------------------------------

/// An open append-only file handle on a [`WalFs`].
pub trait WalFile: Send {
    /// Appends bytes at the end of the file, returning how many were
    /// written — a short count models a partial write (interrupted or
    /// out of space mid-buffer) and the caller must resubmit the rest.
    fn append(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// Flushes file data to stable storage (`fdatasync`). A faulty
    /// implementation may *lie* — report success without persisting —
    /// which is exactly the failure mode [`FaultKind::SyncLies`] injects.
    fn sync(&mut self) -> io::Result<()>;
}

/// Every filesystem operation the durable path performs, as one
/// object-safe trait. Implemented by [`StdFs`] (the real thing) and
/// [`FaultyFs`] (seeded fault schedules); held as `Arc<dyn WalFs>` inside
/// [`super::DurableConfig`].
pub trait WalFs: Send + Sync + std::fmt::Debug {
    /// Creates (or truncates) a file for appending.
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>>;
    /// Creates a file that must not already exist (`O_EXCL`), writing
    /// `contents` in full — the lock-file primitive.
    fn create_new(&self, path: &Path, contents: &[u8]) -> io::Result<()>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` onto `to` (the snapshot publish step).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Lists the file names (not full paths) in a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Truncates a file to `len` bytes (torn-tail healing).
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File size in bytes, or `None` if the file does not exist.
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>>;
}

/// Removes `path` through `fs`; `Ok(false)` when it was already gone.
pub(crate) fn remove_existing(fs: &dyn WalFs, path: &Path) -> io::Result<bool> {
    match fs.remove(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// The real filesystem: thin wrappers over `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

struct StdFile(File);

impl WalFile for StdFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl WalFs for StdFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }

    fn create_new(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(contents)?;
        f.sync_data()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// The disk failure a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails with `EIO` (nothing written).
    WriteEio,
    /// The write succeeds but short: only half the buffer (at least one
    /// byte) is written.
    WriteShort,
    /// The write fails with `ENOSPC` (nothing written).
    WriteEnospc,
    /// `fsync` reports success but persists nothing — the data is still
    /// only in the page cache and a machine crash
    /// ([`FaultyFs::machine_crash`]) drops it.
    SyncLies,
    /// The rename is torn between unlink and link: the destination is
    /// removed but the source is not linked over it, and the call reports
    /// `EIO`. A retry can still complete it (the source is intact).
    RenameTorn,
}

/// One scheduled fault: fire `kind` on the `op`-th counted I/O operation
/// (writes, syncs and renames share one global counter, so a schedule is a
/// deterministic function of the I/O sequence, not of wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// 0-based index into the global operation sequence.
    pub op: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

#[derive(Default)]
struct FaultyState {
    /// op index -> fault to inject (consumed on fire).
    plan: HashMap<u64, FaultKind>,
    /// Honestly-synced length per file — what survives a machine crash.
    synced: HashMap<PathBuf, u64>,
}

/// The shared core of a [`FaultyFs`] — `Arc`ed into every open file so
/// all handles draw from one global op counter and fault plan.
#[derive(Default)]
struct FaultyShared {
    ops: AtomicU64,
    injected: AtomicU64,
    state: Mutex<FaultyState>,
}

impl FaultyShared {
    /// Draw the planned fault for the next op index, if any.
    fn draw(&self) -> Option<FaultKind> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let kind = self
            .state
            .lock()
            .expect("faulty fs poisoned")
            .plan
            .remove(&op);
        if kind.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        kind
    }

    fn note_synced(&self, path: &Path, len: u64) {
        self.state
            .lock()
            .expect("faulty fs poisoned")
            .synced
            .insert(path.to_path_buf(), len);
    }
}

/// A deterministic fault-injecting filesystem: wraps the real [`StdFs`]
/// (so files genuinely exist and a `SIGKILL` + separate-process recovery
/// still works) but fails operations according to a seeded schedule.
///
/// Operations are counted globally across all files in submission order:
/// the Nth write/sync/rename fires the fault planned for index N. With a
/// single-shard pipeline the count sequence is fully deterministic; with
/// several shards the *set* of injected faults is fixed but which shard
/// absorbs each one depends on thread interleaving — the recovery
/// invariants are attribution-independent, so both modes are useful.
pub struct FaultyFs {
    inner: StdFs,
    shared: Arc<FaultyShared>,
}

impl std::fmt::Debug for FaultyFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyFs")
            .field("ops", &self.ops())
            .field("injected", &self.injected())
            .finish()
    }
}

impl FaultyFs {
    /// A fault injector firing each `schedule` entry at its op index.
    pub fn new(schedule: &[FaultSpec]) -> FaultyFs {
        let plan = schedule.iter().map(|s| (s.op, s.kind)).collect();
        FaultyFs {
            inner: StdFs,
            shared: Arc::new(FaultyShared {
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                state: Mutex::new(FaultyState {
                    plan,
                    synced: HashMap::new(),
                }),
            }),
        }
    }

    /// How many I/O operations (writes, syncs, renames) have been counted.
    pub fn ops(&self) -> u64 {
        self.shared.ops.load(Ordering::Relaxed)
    }

    /// How many faults actually fired.
    pub fn injected(&self) -> u64 {
        self.shared.injected.load(Ordering::Relaxed)
    }

    /// Simulates a machine (power) crash: every tracked file is truncated
    /// back to its last *honestly synced* length, dropping everything the
    /// page cache held — including data a lying fsync claimed was safe.
    /// Files never synced are truncated to their length at open.
    pub fn machine_crash(&self) -> io::Result<()> {
        let synced: Vec<(PathBuf, u64)> = {
            let state = self.shared.state.lock().expect("faulty fs poisoned");
            state.synced.iter().map(|(p, &l)| (p.clone(), l)).collect()
        };
        for (path, len) in synced {
            // The file may have been renamed or removed since; only
            // truncate what still exists.
            if self.inner.file_len(&path)?.is_some() {
                self.inner.set_len(&path, len)?;
            }
        }
        Ok(())
    }
}

struct FaultyFile {
    file: File,
    path: PathBuf,
    len: u64,
    shared: Arc<FaultyShared>,
}

impl WalFile for FaultyFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.shared.draw() {
            Some(FaultKind::WriteEio) => Err(io::Error::from_raw_os_error(EIO)),
            Some(FaultKind::WriteEnospc) => Err(io::Error::from_raw_os_error(ENOSPC)),
            Some(FaultKind::WriteShort) => {
                let n = (buf.len() / 2).max(1).min(buf.len());
                self.file.write_all(&buf[..n])?;
                self.len += n as u64;
                Ok(n)
            }
            // A sync/rename fault scheduled on a write op degrades to an
            // honest write (those kinds only bite on their own op types).
            Some(FaultKind::SyncLies) | Some(FaultKind::RenameTorn) | None => {
                self.file.write_all(buf)?;
                self.len += buf.len() as u64;
                Ok(buf.len())
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.shared.draw() {
            Some(FaultKind::SyncLies) => Ok(()), // reports success, persists nothing
            Some(FaultKind::WriteEio) => Err(io::Error::from_raw_os_error(EIO)),
            Some(FaultKind::WriteEnospc) => Err(io::Error::from_raw_os_error(ENOSPC)),
            _ => {
                self.file.sync_data()?;
                self.shared.note_synced(&self.path, self.len);
                Ok(())
            }
        }
    }
}

impl WalFs for FaultyFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        let file = File::create(path)?;
        self.shared.note_synced(path, 0);
        Ok(Box::new(FaultyFile {
            file,
            path: path.to_path_buf(),
            len: 0,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn create_new(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.inner.create_new(path, contents)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.shared.draw() {
            Some(FaultKind::RenameTorn) => {
                // Torn between unlink and link: the destination is gone,
                // the source still exists, and the caller sees EIO.
                remove_existing(&self.inner, to)?;
                Err(io::Error::from_raw_os_error(EIO))
            }
            Some(FaultKind::WriteEio) => Err(io::Error::from_raw_os_error(EIO)),
            Some(FaultKind::WriteEnospc) => Err(io::Error::from_raw_os_error(ENOSPC)),
            _ => self.inner.rename(from, to),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.set_len(path, len)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.inner.file_len(path)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Bounded retry-with-exponential-backoff for transient I/O faults.
///
/// An operation failing with a transient error ([`IoPolicy::transient`])
/// is retried up to `max_retries` times, sleeping `backoff_base * 2^k`
/// (capped at `backoff_max`) before retry `k`. Exhausting the budget
/// surfaces the last error to the caller, which degrades instead of
/// panicking (see [`super::Durability::Degraded`]).
#[derive(Debug, Clone)]
pub struct IoPolicy {
    /// Retries after the first attempt (0 = fail on first error).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each time.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for IoPolicy {
    fn default() -> IoPolicy {
        IoPolicy {
            max_retries: 4,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(100),
        }
    }
}

impl IoPolicy {
    /// A policy for tests: `max_retries` attempts, no sleeping.
    pub fn no_backoff(max_retries: u32) -> IoPolicy {
        IoPolicy {
            max_retries,
            backoff_base: Duration::ZERO,
            backoff_max: Duration::ZERO,
        }
    }

    /// Whether an error is worth retrying: interrupted syscalls and the
    /// disk-level transients (`EIO`, `ENOSPC`) — corruption and
    /// configuration errors are not.
    pub fn transient(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) || matches!(e.raw_os_error(), Some(EIO) | Some(ENOSPC))
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }
}

/// Runs `op` under `policy`, returning the final result and how many
/// retries were spent (for the `wal_io_retries` counter). Non-transient
/// errors are returned immediately without burning the retry budget.
pub(crate) fn with_retry<T>(
    policy: &IoPolicy,
    mut op: impl FnMut() -> io::Result<T>,
) -> (io::Result<T>, u64) {
    let mut retries = 0u64;
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return (Ok(v), retries),
            Err(e) if IoPolicy::transient(&e) && attempt < policy.max_retries => {
                let pause = policy.backoff(attempt);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
                attempt += 1;
                retries += 1;
            }
            Err(e) => return (Err(e), retries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_recovers_from_transients_and_counts() {
        let policy = IoPolicy::no_backoff(3);
        let mut failures = 2;
        let (res, retries) = with_retry(&policy, || {
            if failures > 0 {
                failures -= 1;
                Err(io::Error::from_raw_os_error(EIO))
            } else {
                Ok(42)
            }
        });
        assert_eq!(res.unwrap(), 42);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let policy = IoPolicy::no_backoff(2);
        let (res, retries) =
            with_retry::<()>(&policy, || Err(io::Error::from_raw_os_error(ENOSPC)));
        let err = res.unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        assert_eq!(retries, 2);
    }

    #[test]
    fn non_transient_errors_skip_the_retry_budget() {
        let policy = IoPolicy::no_backoff(5);
        let (res, retries) = with_retry::<()>(&policy, || {
            Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt"))
        });
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(retries, 0);
    }

    #[test]
    fn faulty_fs_injects_on_schedule() {
        let dir = std::env::temp_dir().join(format!("wtts-faultyfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FaultyFs::new(&[
            FaultSpec {
                op: 0,
                kind: FaultKind::WriteEio,
            },
            FaultSpec {
                op: 1,
                kind: FaultKind::WriteShort,
            },
        ]);
        let path = dir.join("a.bin");
        let mut f = WalFs::create(&fs, &path).unwrap();
        let err = f.append(b"hello world!").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        // Short write: half the buffer lands.
        assert_eq!(f.append(b"hello world!").unwrap(), 6);
        // No more faults planned: full write.
        assert_eq!(f.append(b"!!").unwrap(), 2);
        assert_eq!(fs.injected(), 2);
        assert_eq!(fs.file_len(&path).unwrap(), Some(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_fsync_loses_data_at_machine_crash() {
        let dir = std::env::temp_dir().join(format!("wtts-liarfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Op 0: honest write. Op 1: lying sync. Op 2+: honest.
        let fs = FaultyFs::new(&[FaultSpec {
            op: 1,
            kind: FaultKind::SyncLies,
        }]);
        let path = dir.join("w.bin");
        let mut f = WalFs::create(&fs, &path).unwrap();
        f.append(b"abcd").unwrap();
        f.sync().unwrap(); // lies: claims durability, records nothing
        drop(f);
        assert_eq!(fs.file_len(&path).unwrap(), Some(4));
        fs.machine_crash().unwrap();
        // Everything after the last honest sync (none) is gone.
        assert_eq!(fs.file_len(&path).unwrap(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_rename_removes_destination_but_keeps_source() {
        let dir = std::env::temp_dir().join(format!("wtts-tornfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fs = FaultyFs::new(&[FaultSpec {
            op: 0,
            kind: FaultKind::RenameTorn,
        }]);
        let src = dir.join("new.bin");
        let dst = dir.join("cur.bin");
        std::fs::write(&src, b"new").unwrap();
        std::fs::write(&dst, b"old").unwrap();
        let err = fs.rename(&src, &dst).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert_eq!(fs.file_len(&dst).unwrap(), None, "destination unlinked");
        assert_eq!(fs.file_len(&src).unwrap(), Some(3), "source intact");
        // The retry completes the move.
        fs.rename(&src, &dst).unwrap();
        assert_eq!(fs.file_len(&dst).unwrap(), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
