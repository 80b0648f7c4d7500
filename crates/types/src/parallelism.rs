//! Worker-count resolution for the workspace's one parallel layer, the
//! `Experiment` strategy × k fan-out in `blockpart-core`.
//!
//! [`resolve_workers`] takes a `workers: usize` request where `0` means
//! "decide for me":
//!
//! 1. a positive explicit request wins;
//! 2. otherwise the `BLOCKPART_THREADS` environment variable, if set to a
//!    positive integer;
//! 3. otherwise [`std::thread::available_parallelism`].
//!
//! The fan-out is *deterministic in its worker count*: any value returned
//! here produces byte-identical reports, so the knob trades only
//! wall-clock time, never results.

/// Resolves a requested worker count (`0` = automatic) to a concrete
/// positive count.
///
/// # Examples
///
/// ```
/// use blockpart_types::resolve_workers;
///
/// assert_eq!(resolve_workers(3), 3);
/// assert!(resolve_workers(0) >= 1);
/// ```
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("BLOCKPART_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_workers(7), 7);
    }

    #[test]
    fn auto_is_positive() {
        assert!(resolve_workers(0) >= 1);
    }
}
