//! A counting global allocator: the high-water mark of live heap bytes.
//!
//! `VmHWM` of a 13 MB process moves by 2–3 MB from run to run on one
//! seed (allocator arenas of short-lived threads, which pages of the
//! binary happen to be resident), an 18 % spread that would hide a
//! journal kept alive twice as long. The bytes the program *asked for*
//! repeat exactly, so that is the end-to-end memory metric; `VmHWM`
//! stays as the per-layer `bench.peak_rss_mb`.
//!
//! Counting costs three atomic read-modify-writes per allocation and
//! release — 9 % of `sim_paper`'s throughput, whose journal codec
//! allocates ten thousand times a job. So it runs from process start
//! through set-up and the warm-up rounds, which are not timed, and is
//! switched off for good before the measured loop: `peak_heap_mb` is the
//! high-water mark of set-up plus five rounds, and a slow per-job leak is
//! not what it is for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

// Statistics only: none of these publishes other data, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

/// Stop counting. There is no way back: releases that go uncounted
/// would leave `LIVE` meaningless.
pub fn stop_counting() {
    COUNTING.store(false, Ordering::Relaxed);
}

/// `System`, counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// High-water mark of live heap bytes from process start until
/// [`stop_counting`], MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}
