//! Storage-backend selection for the out-of-core data path.
//!
//! A run either keeps everything in RAM or spills one thing to disk: a
//! generator workload whose only consumer is the offline stage streams
//! into an on-disk segment store, which the offline simulation reads back
//! one segment at a time, so the full interaction log is never resident.
//! Every other workload (a given log or chain, a scenario, a replay or
//! live stage) stays resident. The choice is a [`StorageBackend`] value
//! threaded from the CLI down into the experiment pipeline. Spilled and
//! resident runs produce **byte-identical** reports; the backend trades
//! only peak memory for disk traffic.

use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where the heavy data structures of a run live.
///
/// # Examples
///
/// ```
/// use blockpart_types::StorageBackend;
///
/// let b = StorageBackend::spill("/tmp/blockpart");
/// assert!(b.is_spill());
/// assert_eq!(b.spill_dir(), Some(std::path::Path::new("/tmp/blockpart")));
/// assert!(!StorageBackend::InMemory.is_spill());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum StorageBackend {
    /// Everything resident: the fastest path when the working set fits.
    #[default]
    InMemory,
    /// Spill to disk: the segment store lives in a per-run session
    /// directory under `dir`.
    Spill {
        /// Root directory for spill sessions (each run gets a unique subdir).
        dir: PathBuf,
    },
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageBackend::InMemory => write!(f, "in-memory"),
            StorageBackend::Spill { dir } => write!(f, "spill({})", dir.display()),
        }
    }
}

impl StorageBackend {
    /// A spill backend rooted at `dir`.
    pub fn spill(dir: impl Into<PathBuf>) -> Self {
        StorageBackend::Spill { dir: dir.into() }
    }

    /// `true` for the spill-to-disk variant.
    pub fn is_spill(&self) -> bool {
        matches!(self, StorageBackend::Spill { .. })
    }

    /// The spill root, when one is configured.
    pub fn spill_dir(&self) -> Option<&Path> {
        match self {
            StorageBackend::InMemory => None,
            StorageBackend::Spill { dir } => Some(dir.as_path()),
        }
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A per-run unique spill directory with deterministic cleanup semantics:
/// removed on success ([`SpillSession::finish`]), kept — with its path
/// logged to stderr — when dropped without finishing (a failed run), so
/// repeated CI runs do not accumulate segments while crash evidence
/// survives.
///
/// # Examples
///
/// ```
/// use blockpart_types::SpillSession;
///
/// let session = SpillSession::create(std::env::temp_dir()).unwrap();
/// let path = session.path().to_path_buf();
/// assert!(path.is_dir());
/// session.finish().unwrap();
/// assert!(!path.exists());
/// ```
#[derive(Debug)]
pub struct SpillSession {
    path: PathBuf,
    finished: bool,
}

impl SpillSession {
    /// Creates a fresh uniquely-named subdirectory under `root`
    /// (creating `root` itself if needed).
    pub fn create(root: impl AsRef<Path>) -> std::io::Result<Self> {
        let root = root.as_ref();
        std::fs::create_dir_all(root)?;
        // Uniqueness: pid + per-process counter + a per-call random nonce
        // (from the stdlib's seeded hasher) guards against collisions
        // with concurrent processes and stale directories alike.
        for _ in 0..64 {
            let mut h = std::collections::hash_map::RandomState::new().build_hasher();
            h.write_u64(SPILL_COUNTER.fetch_add(1, Ordering::Relaxed));
            let nonce = h.finish();
            let name = format!(
                "run-{:08x}-{:012x}",
                std::process::id(),
                nonce & 0xffff_ffff_ffff
            );
            let path = root.join(name);
            match std::fs::create_dir(&path) {
                Ok(()) => {
                    return Ok(SpillSession {
                        path,
                        finished: false,
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            "could not allocate a unique spill directory",
        ))
    }

    /// The session's private directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Marks the run successful and removes the directory and all spill
    /// files in it.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finished = true;
        std::fs::remove_dir_all(&self.path)
    }
}

impl Drop for SpillSession {
    fn drop(&mut self) {
        if !self.finished {
            eprintln!(
                "blockpart: spill directory kept for inspection: {}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_accessors() {
        let b = StorageBackend::spill("/tmp/x");
        assert!(b.is_spill());
        assert_eq!(b.spill_dir(), Some(Path::new("/tmp/x")));
        assert_eq!(StorageBackend::default(), StorageBackend::InMemory);
        assert_eq!(StorageBackend::InMemory.spill_dir(), None);
        assert!(!StorageBackend::InMemory.to_string().is_empty());
        assert!(b.to_string().contains("spill"));
    }

    #[test]
    fn spill_sessions_are_unique_and_cleaned() {
        let root = std::env::temp_dir().join("blockpart-types-test-spill");
        let a = SpillSession::create(&root).unwrap();
        let b = SpillSession::create(&root).unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir());
        // an unfinished session (a failed run) keeps its directory
        let kept = b.path().to_path_buf();
        drop(b);
        a.finish().unwrap();
        assert!(kept.is_dir());
        std::fs::remove_dir_all(kept).unwrap();
        let _ = std::fs::remove_dir(&root);
    }
}
