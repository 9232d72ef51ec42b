//! Counts heap allocations on the rendering path. A key reply is 640
//! integers; once a connection's `FrameScratch` has grown to its largest
//! frame, encoding another must not touch the heap, and neither may
//! `Json::write_compact` into a buffer with room. Decoding builds a
//! `Json` tree and does allocate; it is not counted here.
//!
//! The counting allocator is global to this test binary, so the count is
//! kept per thread: the harness's own threads cannot disturb it.

use hwm_jsonio::Json;
use hwm_service::wire::{encode_frame, FrameScratch};
use hwm_service::{ErrorCode, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn rendering_allocates_nothing_in_steady_state() {
    // A 640-symbol key as the designer sends it, plus a few wide symbols
    // so every digit count is rendered.
    let mut key: Vec<u64> = (0..640).map(|i| i * 7 % 4).collect();
    key[..4].copy_from_slice(&[9, 10, 1 << 40, u64::MAX]);
    let key_reply = Response::Key {
        ic: "fab-0/ic-1234".into(),
        key,
    }
    .to_json();
    let refusal = Response::Error {
        code: ErrorCode::Throttled,
        message: "slow down \"fab\"\n\t\u{1}é€𝄞".into(),
        retry_at: Some(42),
    }
    .to_json();
    let scalars = Json::Arr(vec![
        Json::F64(2.0),
        Json::F64(-0.015),
        Json::F64(1e300),
        Json::I64(i64::MIN),
        Json::I64(-7),
        Json::Null,
        Json::Bool(true),
    ]);

    let mut scratch = FrameScratch::new();
    for payload in [&key_reply, &refusal, &scalars] {
        encode_frame(&mut scratch, payload).expect("warm-up frame");
    }
    for (what, payload) in [
        ("key reply", &key_reply),
        ("refusal", &refusal),
        ("scalars", &scalars),
    ] {
        let n = allocations(|| {
            encode_frame(&mut scratch, payload).expect("frame");
        });
        assert_eq!(n, 0, "encode_frame of a {what} allocated {n} times");

        let mut out = String::with_capacity(64 * 1024);
        let n = allocations(|| payload.write_compact(&mut out));
        assert_eq!(n, 0, "write_compact of a {what} allocated {n} times");
        assert_eq!(out, payload.to_string());
    }
}
