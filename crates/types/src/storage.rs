//! Storage-backend selection for the out-of-core data path.
//!
//! A run either keeps everything in RAM or moves two things to disk: a
//! generator workload whose only consumer is the offline stage streams
//! into an on-disk segment store, which the offline simulation reads back
//! one segment at a time, and replay and live stages ship 2PC state
//! through an on-disk account-state spool. The choice is a
//! [`StorageBackend`] value threaded from the CLI / environment down into
//! the experiment pipeline. Spilled and resident runs produce
//! **byte-identical** reports; the backend trades only peak memory for
//! disk traffic.

use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable naming the memory budget (e.g. `512m`, `2g`,
/// `1048576`). When set, commands that accept a backend default to
/// [`StorageBackend::Spill`].
pub const MEM_BUDGET_ENV: &str = "BLOCKPART_MEM_BUDGET";

/// Environment variable naming the spill directory root. Defaults to the
/// system temp directory when unset.
pub const SPILL_DIR_ENV: &str = "BLOCKPART_SPILL_DIR";

/// Where the heavy data structures of a run live.
///
/// # Examples
///
/// ```
/// use blockpart_types::StorageBackend;
///
/// let b = StorageBackend::spill("/tmp/blockpart", 512 * 1024 * 1024);
/// assert!(b.is_spill());
/// assert_eq!(b.mem_budget_bytes(), Some(512 * 1024 * 1024));
/// assert!(!StorageBackend::InMemory.is_spill());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum StorageBackend {
    /// Everything resident: the fastest path when the working set fits.
    #[default]
    InMemory,
    /// Spill to disk: the segment store and the account-state spool live
    /// in a per-run session directory under `dir`.
    Spill {
        /// Root directory for spill sessions (each run gets a unique subdir).
        dir: PathBuf,
        /// The configured budget, in bytes. It selects this backend and
        /// is printed in the `generate` and `study` progress lines;
        /// nothing is sized or bounded by it.
        mem_budget_bytes: u64,
    },
}

impl fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageBackend::InMemory => write!(f, "in-memory"),
            StorageBackend::Spill {
                dir,
                mem_budget_bytes,
            } => write!(f, "spill({}, {} bytes)", dir.display(), mem_budget_bytes),
        }
    }
}

impl StorageBackend {
    /// A spill backend rooted at `dir` with the given budget.
    pub fn spill(dir: impl Into<PathBuf>, mem_budget_bytes: u64) -> Self {
        StorageBackend::Spill {
            dir: dir.into(),
            mem_budget_bytes,
        }
    }

    /// `true` for the spill-to-disk variant.
    pub fn is_spill(&self) -> bool {
        matches!(self, StorageBackend::Spill { .. })
    }

    /// The memory budget, when one is configured.
    pub fn mem_budget_bytes(&self) -> Option<u64> {
        match self {
            StorageBackend::InMemory => None,
            StorageBackend::Spill {
                mem_budget_bytes, ..
            } => Some(*mem_budget_bytes),
        }
    }

    /// The spill root, when one is configured.
    pub fn spill_dir(&self) -> Option<&Path> {
        match self {
            StorageBackend::InMemory => None,
            StorageBackend::Spill { dir, .. } => Some(dir.as_path()),
        }
    }

    /// Resolves the backend from the environment:
    /// [`MEM_BUDGET_ENV`] selects spill mode with that budget, rooted at
    /// [`SPILL_DIR_ENV`] (or the system temp directory). Returns
    /// [`StorageBackend::InMemory`] when the budget variable is unset or
    /// unparseable.
    pub fn from_env() -> Self {
        let Some(budget) = std::env::var(MEM_BUDGET_ENV)
            .ok()
            .and_then(|v| parse_mem_budget(&v))
        else {
            return StorageBackend::InMemory;
        };
        let dir = std::env::var_os(SPILL_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        StorageBackend::spill(dir, budget)
    }
}

/// Parses a memory budget: a plain byte count, or a number with a binary
/// suffix `k`/`m`/`g` (case-insensitive, optional trailing `b` / `ib`).
///
/// # Examples
///
/// ```
/// use blockpart_types::parse_mem_budget;
///
/// assert_eq!(parse_mem_budget("4096"), Some(4096));
/// assert_eq!(parse_mem_budget("512m"), Some(512 * 1024 * 1024));
/// assert_eq!(parse_mem_budget("2GiB"), Some(2 * 1024 * 1024 * 1024));
/// assert_eq!(parse_mem_budget("lots"), None);
/// ```
pub fn parse_mem_budget(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let lower = s.to_ascii_lowercase();
    let lower = lower
        .strip_suffix("ib")
        .or_else(|| lower.strip_suffix('b'))
        .unwrap_or(&lower);
    let (digits, mult) = match lower.as_bytes().last()? {
        b'k' => (&lower[..lower.len() - 1], 1u64 << 10),
        b'm' => (&lower[..lower.len() - 1], 1u64 << 20),
        b'g' => (&lower[..lower.len() - 1], 1u64 << 30),
        _ => (lower, 1),
    };
    let value: u64 = digits.trim().parse().ok()?;
    value.checked_mul(mult)
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

    /// Keeps the directory on disk (e.g. for post-mortem inspection)
    /// without logging a failure.
    pub fn keep(mut self) -> PathBuf {
        self.finished = true;
        std::mem::take(&mut self.path)
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
    fn parse_budgets() {
        assert_eq!(parse_mem_budget("0"), Some(0));
        assert_eq!(parse_mem_budget(" 64k "), Some(64 << 10));
        assert_eq!(parse_mem_budget("3M"), Some(3 << 20));
        assert_eq!(parse_mem_budget("1g"), Some(1 << 30));
        assert_eq!(parse_mem_budget("512mb"), Some(512 << 20));
        assert_eq!(parse_mem_budget("512MiB"), Some(512 << 20));
        assert_eq!(parse_mem_budget(""), None);
        assert_eq!(parse_mem_budget("-1"), None);
        assert_eq!(parse_mem_budget("12q"), None);
        assert_eq!(parse_mem_budget("99999999999g"), None); // overflow
    }

    #[test]
    fn backend_accessors() {
        let b = StorageBackend::spill("/tmp/x", 7);
        assert!(b.is_spill());
        assert_eq!(b.mem_budget_bytes(), Some(7));
        assert_eq!(b.spill_dir(), Some(Path::new("/tmp/x")));
        assert_eq!(StorageBackend::default(), StorageBackend::InMemory);
        assert_eq!(StorageBackend::InMemory.mem_budget_bytes(), None);
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
        let kept = b.keep();
        a.finish().unwrap();
        assert!(kept.is_dir());
        std::fs::remove_dir_all(kept).unwrap();
        let _ = std::fs::remove_dir(&root);
    }
}
