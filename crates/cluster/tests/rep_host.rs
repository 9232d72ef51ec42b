//! The replication port over real sockets. A [`RepHost`] is the
//! service's TCP front end serving a [`ShardNode`], so it must answer a
//! frame that is JSON but not a [`RepFrame`] with an error and keep the
//! connection, answer a pipelined burst in order, and shut down promptly
//! with an idle [`TcpLink`] attached (the front end's own case is
//! `tcp_shutdown_joins_promptly` in `hwm-service`'s pipeline tests). The
//! router's side of a refusal is pinned here too: a follower that
//! refuses a batch ends the shipment there.

use frames::{read_frame, write_frame};
use hwm_cluster::{
    ClusterRouter, LocalLink, NodeLink, RepFrame, RepHost, ShardGroup, ShardNode, TcpLink,
};
use hwm_jsonio::Json;
use hwm_metering::{Designer, Foundry, LockOptions};
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    ActivationServer, FrameService, Handler, Registry, RegistrySnapshot, Request, Response,
    ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

#[path = "../../service/tests/support/frames.rs"]
mod frames;

fn designer(seed: u64) -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            black_holes: 1,
            ..LockOptions::default()
        },
        seed,
    )
    .expect("designer")
}

/// Shard `shard`'s replica over a fresh in-memory server.
fn node(shard: u64, seed: u64) -> Arc<ShardNode> {
    let server = ActivationServer::new(
        designer(seed),
        Registry::in_memory(),
        ServerConfig::default(),
    );
    Arc::new(ShardNode::new(shard, Arc::new(server)))
}

/// A frame that parses as JSON but is no replication frame.
fn not_a_frame() -> Json {
    Json::parse(r#"{"type":"gossip","shard":0}"#).expect("json")
}

fn checkpoint() -> Json {
    RepFrame::Checkpoint {
        shard: 0,
        trace: None,
    }
    .to_json()
}

fn reply(stream: &mut TcpStream) -> RepFrame {
    let payload = read_frame(stream).expect("read").expect("reply frame");
    RepFrame::from_json(&payload).expect("reply decodes")
}

/// A well-formed registry snapshot in the retired `snapshot` catch-up
/// frame: the type is unknown now, so nothing may be installed.
fn snapshot_frame() -> Json {
    let snap = RegistrySnapshot {
        seq: 5,
        digest: 7,
        records: Vec::new(),
        clones: Vec::new(),
    };
    Json::obj(vec![
        ("type", Json::Str("snapshot".into())),
        ("shard", Json::U64(0)),
        ("snapshot", Json::Str(snap.to_json())),
        ("audit", Json::Arr(Vec::new())),
    ])
}

#[test]
fn bad_frame_gets_error_and_connection_stays_open() {
    let host = RepHost::spawn("127.0.0.1:0", node(0, 3)).expect("bind");
    let mut stream = TcpStream::connect(host.addr()).expect("connect");
    for bad in [not_a_frame(), snapshot_frame()] {
        write_frame(&mut stream, &bad).expect("send");
        assert!(
            matches!(reply(&mut stream), RepFrame::Error { .. }),
            "{bad} must be refused"
        );
        // The node's state is unchanged and the connection still serves.
        write_frame(&mut stream, &checkpoint()).expect("send");
        assert_eq!(
            reply(&mut stream),
            RepFrame::Ack {
                shard: 0,
                seq: 0,
                spans: Vec::new()
            }
        );
    }
}

#[test]
fn burst_in_one_write_is_answered_in_order() {
    let seed = 11;
    let designer = designer(seed);
    let mut foundry = Foundry::new(designer.blueprint().clone(), seed);
    let forward = |tick: u64, i: usize, readout: String| RepFrame::Forward {
        shard: 0,
        tick,
        req: Request::Register {
            client: "fab".into(),
            ic: format!("die-{i}"),
            readout,
        },
        trace: None,
    };
    let mut frames = vec![checkpoint()];
    for i in 0..3 {
        let chip = foundry.fabricate_one();
        let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
        frames.push(forward(i as u64 + 1, i, readout).to_json());
        frames.push(checkpoint());
    }
    frames.push(not_a_frame());
    frames.push(
        RepFrame::Checkpoint {
            shard: 1,
            trace: None,
        }
        .to_json(),
    );
    frames.push(checkpoint());

    // The oracle: a twin replica answering the same frames one by one.
    let twin = node(0, seed);
    let expected: Vec<RepFrame> = frames
        .iter()
        .map(|f| RepFrame::from_json(&twin.answer(f)).expect("oracle reply"))
        .collect();
    // Each checkpoint sees every registration sent before it.
    let seqs: Vec<u64> = expected
        .iter()
        .filter_map(|r| match r {
            RepFrame::Ack { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(seqs, [0, 1, 2, 3, 3]);

    let host = RepHost::spawn("127.0.0.1:0", node(0, seed)).expect("bind");
    let mut stream = TcpStream::connect(host.addr()).expect("connect");
    let mut burst = Vec::new();
    for f in &frames {
        write_frame(&mut burst, f).expect("encode");
    }
    stream.write_all(&burst).expect("send burst");
    let got: Vec<RepFrame> = frames.iter().map(|_| reply(&mut stream)).collect();
    assert_eq!(got, expected);
}

#[test]
fn drop_with_idle_link_returns_promptly() {
    let host = RepHost::spawn("127.0.0.1:0", node(0, 5)).expect("bind");
    let mut link = TcpLink::connect(host.addr()).expect("connect");
    let ack = link
        .call(&RepFrame::Checkpoint {
            shard: 0,
            trace: None,
        })
        .expect("probe");
    assert!(matches!(ack, RepFrame::Ack { .. }));
    // The link stays connected and idle: the handler is parked in a
    // socket read, which the host's shutdown must unblock.
    let t0 = Instant::now();
    drop(host);
    assert!(
        t0.elapsed().as_millis() < 2_000,
        "drop took {:?}",
        t0.elapsed()
    );
    drop(link);
}

#[test]
fn refusing_follower_ends_the_shipment() {
    let seed = 13;
    let leader = node(0, seed);
    leader.server().enable_replication();
    // Follower 0 belongs to shard 1, so it refuses every shard-0 batch.
    let misplaced = node(1, seed);
    let healthy = node(0, seed);
    let router = ClusterRouter::new(
        vec![ShardGroup {
            leader: Box::new(LocalLink::new(leader)),
            followers: vec![
                Box::new(LocalLink::new(misplaced)) as Box<dyn NodeLink>,
                Box::new(LocalLink::new(Arc::clone(&healthy))),
            ],
        }],
        8,
        None,
    );
    let designer = designer(seed);
    let chip = Foundry::new(designer.blueprint().clone(), seed).fabricate_one();
    let resp = router.handle(&Request::Register {
        client: "fab".into(),
        ic: "die-0".into(),
        readout: readout_to_bits_string(&chip.scan_flip_flops().0),
    });
    match resp {
        Response::Error { message, .. } => assert!(
            message.contains("follower 0 of shard 0 refused entries"),
            "{message}"
        ),
        other => panic!("a refused batch must fail the request, got {other:?}"),
    }
    assert_eq!(
        healthy.server().with_registry(|r| r.journal_len()),
        0,
        "the follower after a refusal must not be sent the batch"
    );
}
