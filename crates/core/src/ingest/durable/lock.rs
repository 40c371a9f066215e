//! Single-writer guard for a durable directory.
//!
//! Two `DurablePipeline`s appending to the same WAL directory would
//! interleave segments and corrupt each other's books, so every
//! create/recover first acquires `ingest.lock` — a small text file naming
//! the owner (`pid`) and the configuration fingerprint it runs under.
//!
//! Acquisition rules (tested in `mod tests` below and `tests/durable.rs`):
//!
//! * no lock file → acquire (atomic `O_EXCL` create);
//! * lock held under a **different fingerprint** → refuse, always — a
//!   takeover must not splice logs across configurations;
//! * owner **alive** → [`LockError::Held`], always — takeover never fences
//!   a live writer;
//! * owner **dead** (stale lock from a crash) → [`LockError::Stale`]
//!   unless takeover is requested, in which case the stale lock is
//!   replaced and recovery proceeds (counted `lock_takeovers`);
//! * unparseable lock file → [`LockError::Corrupt`] unless takeover is
//!   requested (an unreadable owner cannot be liveness-checked, so only
//!   an explicit operator decision may break it).
//!
//! Liveness is judged by `/proc/<pid>` on Linux; elsewhere an existing
//! lock is conservatively presumed alive (only takeover can break it).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::fs::{remove_existing, WalFs};

/// The lock file name inside a durable directory.
pub const LOCK_FILE: &str = "ingest.lock";

/// Why the single-writer lock could not be acquired.
#[derive(Debug)]
pub enum LockError {
    /// The directory is owned by a live process.
    Held {
        /// The owner's PID as recorded in the lock file.
        pid: u32,
        /// The lock file path.
        path: PathBuf,
    },
    /// The directory is owned by a dead process and takeover was not
    /// requested — pass `takeover` to fence it and recover.
    Stale {
        /// The dead owner's PID.
        pid: u32,
        /// The lock file path.
        path: PathBuf,
    },
    /// The lock was written under a different configuration fingerprint;
    /// neither plain acquisition nor takeover may cross that line.
    FingerprintMismatch {
        /// Fingerprint recorded in the lock file.
        held: u64,
        /// Fingerprint of the acquiring pipeline.
        ours: u64,
    },
    /// The lock file exists but cannot be parsed (and takeover was not
    /// requested).
    Corrupt(PathBuf),
    /// An underlying filesystem error.
    Io(io::Error),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Held { pid, path } => {
                write!(
                    f,
                    "durable dir locked by live pid {pid} ({})",
                    path.display()
                )
            }
            LockError::Stale { pid, path } => write!(
                f,
                "durable dir locked by dead pid {pid} ({}); pass takeover to fence it",
                path.display()
            ),
            LockError::FingerprintMismatch { held, ours } => write!(
                f,
                "durable dir locked under fingerprint {held:016x}, ours is {ours:016x}"
            ),
            LockError::Corrupt(path) => write!(
                f,
                "unparseable lock file {} (pass takeover to break it)",
                path.display()
            ),
            LockError::Io(e) => write!(f, "lock i/o error: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

impl From<io::Error> for LockError {
    fn from(e: io::Error) -> LockError {
        LockError::Io(e)
    }
}

/// Parsed contents of a lock file.
struct LockContents {
    pid: u32,
    fingerprint: u64,
}

fn render(pid: u32, fingerprint: u64) -> String {
    format!("pid={pid}\nfingerprint={fingerprint:016x}\n")
}

fn parse(bytes: &[u8]) -> Option<LockContents> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut pid = None;
    let mut fingerprint = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("pid=") {
            pid = v.parse::<u32>().ok();
        } else if let Some(v) = line.strip_prefix("fingerprint=") {
            fingerprint = u64::from_str_radix(v, 16).ok();
        }
    }
    Some(LockContents {
        pid: pid?,
        fingerprint: fingerprint?,
    })
}

/// Whether a PID names a live process. On Linux `/proc/<pid>` is the
/// authority; elsewhere we conservatively presume alive so only an
/// explicit takeover can break a lock.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// How a lock acquisition ended up succeeding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acquired {
    /// The directory was unowned.
    Fresh,
    /// A stale (or corrupt, under takeover) lock was fenced and replaced.
    TookOver,
}

/// The held single-writer lock: removing the file on drop releases it.
#[derive(Debug)]
pub(crate) struct LockGuard {
    fs: Arc<dyn WalFs>,
    path: PathBuf,
    held: bool,
}

impl LockGuard {
    /// Acquires the single-writer lock for `dir` under the rules in the
    /// module docs.
    pub(crate) fn acquire(
        fs: Arc<dyn WalFs>,
        dir: &Path,
        fingerprint: u64,
        takeover: bool,
    ) -> Result<(LockGuard, Acquired), LockError> {
        let path = dir.join(LOCK_FILE);
        let pid = std::process::id();
        let contents = render(pid, fingerprint);
        let mut fenced = false;
        // At most two attempts: one against the existing owner, one after
        // fencing a stale lock.
        for _ in 0..2 {
            match fs.create_new(&path, contents.as_bytes()) {
                Ok(()) => {
                    return Ok((
                        LockGuard {
                            fs,
                            path,
                            held: true,
                        },
                        if fenced {
                            Acquired::TookOver
                        } else {
                            Acquired::Fresh
                        },
                    ));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let held = match fs.read(&path) {
                        Ok(bytes) => parse(&bytes),
                        // The owner released between our create and read;
                        // try again.
                        Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                        Err(e) => return Err(LockError::Io(e)),
                    };
                    match held {
                        None => {
                            if !takeover {
                                return Err(LockError::Corrupt(path));
                            }
                        }
                        Some(held) => {
                            if held.fingerprint != fingerprint {
                                return Err(LockError::FingerprintMismatch {
                                    held: held.fingerprint,
                                    ours: fingerprint,
                                });
                            }
                            if pid_alive(held.pid) {
                                return Err(LockError::Held {
                                    pid: held.pid,
                                    path,
                                });
                            }
                            if !takeover {
                                return Err(LockError::Stale {
                                    pid: held.pid,
                                    path,
                                });
                            }
                        }
                    }
                    // Fence the dead/corrupt owner and retry the create.
                    remove_existing(fs.as_ref(), &path)?;
                    fenced = true;
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        // Two owners raced us through both attempts; report the second.
        Err(LockError::Io(io::Error::new(
            io::ErrorKind::WouldBlock,
            "lost the lock race twice",
        )))
    }

    /// Releases the lock early (idempotent). Also called on drop; used
    /// explicitly when a cooperative kill simulation ends a run — within
    /// one process a dead "instance" cannot be told apart from a dead
    /// process by PID, so the simulated corpse must not keep the lock.
    pub(crate) fn release(&mut self) {
        if self.held {
            self.held = false;
            let _ = self.fs.remove(&self.path);
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::durable::fs::StdFs;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wtts-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fs() -> Arc<dyn WalFs> {
        Arc::new(StdFs)
    }

    #[test]
    fn fresh_dir_acquires_and_releases_on_drop() {
        let dir = scratch("fresh");
        let (guard, how) = LockGuard::acquire(fs(), &dir, 7, false).unwrap();
        assert_eq!(how, Acquired::Fresh);
        assert!(dir.join(LOCK_FILE).exists());
        drop(guard);
        assert!(!dir.join(LOCK_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_owner_is_refused_even_with_takeover() {
        let dir = scratch("live");
        // Our own PID is alive by definition.
        let (_guard, _) = LockGuard::acquire(fs(), &dir, 7, false).unwrap();
        for takeover in [false, true] {
            match LockGuard::acquire(fs(), &dir, 7, takeover) {
                Err(LockError::Held { pid, .. }) => assert_eq!(pid, std::process::id()),
                other => panic!("expected Held, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_owner_requires_takeover() {
        let dir = scratch("stale");
        // A PID that cannot be alive: PID_MAX on Linux is < 2^22.
        std::fs::write(dir.join(LOCK_FILE), render(u32::MAX - 1, 7)).unwrap();
        match LockGuard::acquire(fs(), &dir, 7, false) {
            Err(LockError::Stale { pid, .. }) => assert_eq!(pid, u32::MAX - 1),
            other => panic!("expected Stale, got {other:?}"),
        }
        let (guard, how) = LockGuard::acquire(fs(), &dir, 7, true).unwrap();
        assert_eq!(how, Acquired::TookOver);
        drop(guard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_refused_even_with_takeover() {
        let dir = scratch("fp");
        std::fs::write(dir.join(LOCK_FILE), render(u32::MAX - 1, 7)).unwrap();
        for takeover in [false, true] {
            match LockGuard::acquire(fs(), &dir, 8, takeover) {
                Err(LockError::FingerprintMismatch { held, ours }) => {
                    assert_eq!((held, ours), (7, 8));
                }
                other => panic!("expected FingerprintMismatch, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lock_requires_takeover() {
        let dir = scratch("corrupt");
        std::fs::write(dir.join(LOCK_FILE), b"\xFF\xFEnot a lock").unwrap();
        match LockGuard::acquire(fs(), &dir, 7, false) {
            Err(LockError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let (_guard, how) = LockGuard::acquire(fs(), &dir, 7, true).unwrap();
        assert_eq!(how, Acquired::TookOver);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
