//! The TCP client's read path against a hostile server: half a reply
//! frame followed by a hang-up, and a length prefix far above
//! [`MAX_FRAME`] with the connection held open. A single call and a
//! pipelined burst must each return an error promptly, without panicking
//! and without allocating the advertised length.

use hwm_service::wire::MAX_FRAME;
use hwm_service::{Client, Request, TcpClient};
use std::time::{Duration, Instant};

#[path = "support/hostile.rs"]
mod hostile;

use hostile::Reply;

fn status() -> Request {
    Request::Status {
        client: "fab".into(),
        ic: None,
    }
}

/// Runs `exchange` against a fresh hostile peer and checks the contract.
fn refused_promptly(reply: Reply, exchange: impl FnOnce(&mut TcpClient) -> bool) {
    let (addr, peer) = hostile::spawn(reply);
    let mut client = TcpClient::connect(addr).expect("connect");
    let t0 = Instant::now();
    let failed = exchange(&mut client);
    let elapsed = t0.elapsed();
    drop(client);
    peer.join().expect("peer thread");
    assert!(failed, "{reply:?}: the client accepted a hostile reply");
    assert!(
        elapsed < Duration::from_secs(2),
        "{reply:?}: the client took {elapsed:?} to give up"
    );
    assert!(
        hostile::largest_allocation() < MAX_FRAME,
        "{reply:?}: an allocation of {} bytes",
        hostile::largest_allocation()
    );
}

#[test]
fn call_refuses_hostile_replies() {
    for reply in [Reply::HalfFrame, Reply::OversizedPrefix] {
        refused_promptly(reply, |client| client.call(&status()).is_err());
    }
}

#[test]
fn pipelined_burst_refuses_hostile_replies() {
    for reply in [Reply::HalfFrame, Reply::OversizedPrefix] {
        refused_promptly(reply, |client| {
            client
                .call_pipelined(&[status(), status(), status()])
                .is_err()
        });
    }
}
