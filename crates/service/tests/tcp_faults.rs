//! The TCP server against hostile clients: raw sockets that send torn
//! request frames, oversized length prefixes and many short-lived
//! connections to the shipping accept loop and frame decoder.
//!
//! Over real sockets a broken frame kills the *connection*, not the
//! process, so the recovery story the tests pin is the client's: a
//! request frame cut short by a hang-up is never dispatched, and
//! reconnecting + retrying the same request converges to exactly the
//! fault-free outcome. A connection the server ends is closed at once
//! (its peer reads EOF, its descriptor is released), and shutdown must
//! join every handler thread even while a client still holds an idle
//! connection open (the listener-leak regression).

use hwm_metering::{Designer, Foundry, LockOptions};
use hwm_service::wire::{readout_to_bits_string, MAX_FRAME};
use frames::write_frame;
use hwm_service::{
    ActivationServer, Client, Registry, Request, Response, ServerConfig, TcpClient, TcpServer,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/frames.rs"]
mod frames;

const SEED: u64 = 2024;

fn designer() -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            black_holes: 1,
            ..LockOptions::default()
        },
        SEED,
    )
    .expect("designer")
}

fn server() -> Arc<ActivationServer> {
    Arc::new(ActivationServer::new(
        designer(),
        Registry::in_memory(),
        ServerConfig::default(),
    ))
}

fn one_readout() -> String {
    let mut foundry = Foundry::new(designer().blueprint().clone(), SEED ^ 1);
    readout_to_bits_string(&foundry.fabricate_one().scan_flip_flops().0)
}

fn register(readout: &str) -> Request {
    Request::Register {
        client: "fab".into(),
        ic: "ic-0".into(),
        readout: readout.into(),
    }
}

/// The register request as one whole frame on the wire.
fn register_frame(readout: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &register(readout).to_json()).expect("encode");
    frame
}

/// Sends `bytes` on a fresh raw connection and half-closes it, then
/// returns everything the server sent back before closing its side. The
/// server must close within 2 s.
fn send_and_hang_up(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut back = Vec::new();
    stream
        .read_to_end(&mut back)
        .expect("the server must close the connection");
    back
}

/// Sends `torn` (a cut-short register frame) and hangs up; the frame
/// must not be dispatched. A retry on a new connection, and the unlock
/// after it, then get exactly the fault-free answers.
fn torn_frame_is_never_dispatched(torn: impl FnOnce(&[u8]) -> Vec<u8>) {
    let server = server();
    let tcp = TcpServer::spawn("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let readout = one_readout();
    let back = send_and_hang_up(tcp.addr(), &torn(&register_frame(&readout)));
    assert!(back.is_empty(), "a torn frame got a reply: {back:?}");
    assert_eq!(server.status().registered, 0, "torn frame was dispatched");
    let mut client = TcpClient::connect(tcp.addr()).expect("reconnect");
    let resp = client.call(&register(&readout)).expect("retry");
    assert!(
        matches!(resp, Response::Registered { .. }),
        "retry failed: {resp:?}"
    );
    let resp = client
        .call(&Request::Unlock {
            client: "fab".into(),
            readout,
        })
        .expect("unlock");
    assert!(
        matches!(resp, Response::Key { .. }),
        "unlock failed: {resp:?}"
    );
    tcp.shutdown();
    let status = server.status();
    assert_eq!((status.registered, status.unlocked), (1, 1));
}

#[test]
fn dropped_request_frame_is_never_dispatched_and_retry_recovers() {
    // The whole length prefix and half the payload, then a hang-up.
    torn_frame_is_never_dispatched(|frame| frame[..4 + (frame.len() - 4) / 2].to_vec());
}

#[test]
fn torn_request_frame_is_never_dispatched_and_retry_recovers() {
    // Two bytes of the length prefix, then a hang-up.
    torn_frame_is_never_dispatched(|frame| frame[..2].to_vec());
}

#[test]
fn oversized_prefix_closes_the_connection_and_others_are_still_served() {
    let server = server();
    let tcp = TcpServer::spawn("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    // A prefix far above MAX_FRAME, with the write side left open: the
    // server refuses it and must close the connection itself.
    let mut stream = TcpStream::connect(tcp.addr()).expect("connect");
    stream.write_all(&u32::MAX.to_be_bytes()).expect("send");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut buf = [0u8; 64];
    let n = stream
        .read(&mut buf)
        .expect("the server must close the connection within 2 s");
    assert_eq!(n, 0, "an oversized prefix got a reply");
    assert!(
        counting_alloc::largest_allocation() < MAX_FRAME,
        "an allocation of {} bytes",
        counting_alloc::largest_allocation()
    );
    // A well-behaved client is still served.
    let mut client = TcpClient::connect(tcp.addr()).expect("connect");
    let resp = client.call(&register(&one_readout())).expect("register");
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    tcp.shutdown();
    assert_eq!(server.status().registered, 1);
}

/// Open descriptors of this process.
#[cfg(target_os = "linux")]
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    let server = server();
    let tcp = TcpServer::spawn("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    let status = Request::Status {
        client: "fab".into(),
        ic: None,
    };
    let before = open_fds();
    for _ in 0..200 {
        let mut client = TcpClient::connect(tcp.addr()).expect("connect");
        client.call(&status).expect("status");
    }
    // Each handler sees EOF and ends on its own thread; wait for them.
    // Other tests in this binary open sockets too, hence the slack.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() > before + 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = open_fds();
    assert!(
        after <= before + 8,
        "{before} descriptors before 200 closed connections, {after} after"
    );
    // The server is still up.
    let mut client = TcpClient::connect(tcp.addr()).expect("connect");
    client.call(&status).expect("status after the churn");
    tcp.shutdown();
}

#[test]
fn shutdown_joins_cleanly_with_an_idle_connection_open() {
    let server = server();
    let tcp = TcpServer::spawn("127.0.0.1:0", Arc::clone(&server)).expect("bind");
    // One served request, then the client goes idle without hanging up —
    // its handler thread is parked reading the next frame.
    let readout = one_readout();
    let mut client = TcpClient::connect(tcp.addr()).expect("connect");
    client.call(&register(&readout)).expect("register");
    // Shutdown must unblock that handler and join it (the regression was
    // a leaked listener/handler thread that hung the join forever). The
    // test's own timeout is the watchdog.
    tcp.shutdown();
    assert_eq!(server.status().registered, 1);
    // The held socket is dead afterwards.
    client
        .call(&Request::Status {
            client: "fab".into(),
            ic: None,
        })
        .expect_err("connection must be torn down by shutdown");
}
