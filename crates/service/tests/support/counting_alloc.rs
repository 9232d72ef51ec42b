//! A counting global allocator with three readings:
//!
//! * [`allocations`] counts the heap allocations a closure makes on the
//!   calling thread, so a test can show that a warm path allocates
//!   nothing. The count is per thread, so the harness's own threads
//!   cannot disturb it.
//! * [`retained_bytes`] is the heap a closure leaves allocated on the
//!   calling thread, so a test can show that a path keeps nothing past
//!   what it returns.
//! * [`largest_allocation`] is the largest single allocation the test
//!   process has asked for on any thread, so a test can show that a
//!   peer's length prefix was refused before its advertised payload was
//!   buffered.
//!
//! Include it in a test binary with `#[path]`; it installs itself as that
//! binary's `#[global_allocator]`. A binary usually reads only some of
//! them, hence the `dead_code` allowance.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The largest single allocation this test process has asked for.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; recording touches
// only const-initialized thread-locals and an atomic, none of which
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
pub fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Bytes `f` leaves allocated on this thread: allocated minus freed.
pub fn retained_bytes(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

/// The largest single allocation so far, in bytes.
pub fn largest_allocation() -> usize {
    LARGEST.load(Ordering::Relaxed)
}
