//! A hostile peer for client read-path tests: a raw `TcpListener` that
//! answers the first request burst with bytes no honest server sends.
//! Also a counting global allocator, so a test can show that a client
//! never allocated the length a frame prefix advertised. Shared by the
//! service and cluster client tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// The largest single allocation this test process has asked for.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only records sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest single allocation so far, in bytes.
pub fn largest_allocation() -> usize {
    LARGEST.load(Ordering::Relaxed)
}

/// How long the peer keeps a connection open after its reply. A client
/// that waited for more bytes would stall this long, far past the
/// tests' promptness bound.
pub const HOLD: Duration = Duration::from_secs(10);

/// What the peer answers with.
#[derive(Debug, Clone, Copy)]
pub enum Reply {
    /// The first half of a well-formed frame, then the peer closes its
    /// write side.
    HalfFrame,
    /// A length prefix of `u32::MAX` bytes (far above `MAX_FRAME`) and no
    /// payload; the connection stays open.
    OversizedPrefix,
}

/// Spawns a peer that accepts one connection, reads the first request
/// bytes, sends `reply`, and then drains the connection until the client
/// hangs up (or [`HOLD`] passes), so the client's error is its own and
/// not a reset.
pub fn spawn(reply: Reply) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind hostile peer");
    let addr = listener.local_addr().expect("peer address");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = [0u8; 1024];
        let _ = stream.read(&mut request);
        match reply {
            Reply::HalfFrame => {
                let payload = br#"{"type":"ack","shard":0,"seq":0,"pad":"................"}"#;
                let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
                frame.extend_from_slice(payload);
                let _ = stream.write_all(&frame[..frame.len() / 2]);
                let _ = stream.shutdown(Shutdown::Write);
            }
            Reply::OversizedPrefix => {
                let _ = stream.write_all(&u32::MAX.to_be_bytes());
            }
        }
        let _ = stream.set_read_timeout(Some(HOLD));
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    (addr, peer)
}
