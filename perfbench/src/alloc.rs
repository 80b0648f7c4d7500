//! A counting global allocator: live bytes, the peak of live bytes since
//! the last [`mark`], and total bytes allocated.
//!
//! It wraps the system allocator and adds three relaxed atomic updates
//! per allocation. The counters are statistics that publish no other
//! data, so `Relaxed` is enough; on a multi-threaded call the peak is
//! exact for the interleaving that happened.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The benchmark binary's global allocator.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    TOTAL.fetch_add(bytes as u64, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters afterwards, so `System`'s
// guarantees (alignment, size, ownership) carry over exactly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        out
    }
}

/// A point in the allocation history; see [`since`].
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    live: usize,
    total: u64,
}

/// What happened between a [`mark`] and [`since`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Usage {
    /// Bytes allocated in the interval (frees not subtracted).
    pub allocated: u64,
    /// Peak live bytes in the interval above the live bytes at the mark.
    pub peak_above: u64,
}

/// Starts an interval: restarts the peak at the current live bytes.
/// Intervals must not nest, since each mark restarts the one peak.
pub fn mark() -> Mark {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    Mark {
        live,
        total: TOTAL.load(Relaxed),
    }
}

/// Closes the interval opened by `mark`.
pub fn since(mark: Mark) -> Usage {
    Usage {
        allocated: TOTAL.load(Relaxed) - mark.total,
        peak_above: PEAK.load(Relaxed).saturating_sub(mark.live) as u64,
    }
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
