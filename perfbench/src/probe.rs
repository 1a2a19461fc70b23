//! Host resource probes, all inside this binary: a counting global
//! allocator (heap high-water mark and bytes allocated), peak resident
//! set size from `/proc/self/status`, and on-CPU time from the kernel's
//! per-thread `schedstat` files.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting as it goes. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOCATED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// touched only after a successful call and never affect the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A reallocation counts as freeing the old block and
            // allocating the new one.
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Heap counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Bytes allocated since the process started (never decreases).
    pub allocated: u64,
    /// Highest live byte count since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads the heap counters.
pub fn heap() -> Heap {
    Heap { allocated: ALLOCATED.load(Relaxed), peak: PEAK.load(Relaxed) }
}

/// Restarts the high-water mark from the current live byte count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 =
        line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

/// On-CPU nanoseconds of the calling thread: the first field of its
/// `schedstat`. (`/proc/self/schedstat` would cover the main thread
/// only, so fanout workers read their own.)
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .expect("schedstat is readable on Linux")
}
