//! A global allocator that can count live heap bytes and their peak, for
//! the per-op memory metric.
//!
//! Counting is off except during the untimed reference pass, so timed ops
//! pay one relaxed load of a flag per allocation and no shared counter
//! updates. Process peak RSS (`VmHWM`) repeats badly on this workload mix:
//! allocator arenas of the server's per-request threads make it bimodal,
//! and on the generated pool it tracks the single heaviest program.
//! Live-heap accounting is exact for a given input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Net bytes allocated while counting. Signed: memory allocated before
/// counting started may be freed while it is on.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live bytes while [`COUNTING`] is set.
struct Counting;

fn grow(n: usize) {
    if COUNTING.load(Relaxed) {
        let n = n as isize;
        let now = LIVE.fetch_add(n, Relaxed) + n;
        // Racing threads can lose a few bytes of peak here; every op joins
        // its helper threads before the peak is read.
        if now > PEAK.load(Relaxed) {
            PEAK.store(now, Relaxed);
        }
    }
}

fn shrink(n: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(n as isize, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Switches counting on or off; only call between ops.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Starts a new peak window at the current live size; returns that size.
pub fn reset_peak() -> isize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> isize {
    PEAK.load(Relaxed)
}
