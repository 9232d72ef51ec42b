//! End-to-end tests of the activation service: the Figure-2 flow spoken
//! over the wire protocol, duplicate-readout (clone) detection, the
//! wrong-readout lockout, restart recovery, and the TCP front end.

use hwm_metering::{Designer, Foundry, LockOptions, UnlockKey};
use hwm_service::wire::readout_to_bits_string;
use hwm_service::{
    ActivationServer, Client, ErrorCode, IcState, LocalClient, Registry, Request, Response,
    ServerConfig, TcpClient, TcpServer, ThrottleConfig,
};
use std::sync::Arc;

fn designer(seed: u64) -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(5, 2),
        LockOptions {
            added_modules: 2,
            // Remote disable needs a hole to drive the die into.
            black_holes: 1,
            ..LockOptions::default()
        },
        seed,
    )
    .expect("designer")
}

fn server_with(designer: &Designer, registry: Registry, throttle: ThrottleConfig) -> Arc<ActivationServer> {
    Arc::new(ActivationServer::new(
        designer.clone(),
        registry,
        ServerConfig {
            throttle,
            ..ServerConfig::default()
        },
    ))
}

fn local(designer: &Designer) -> (Arc<ActivationServer>, LocalClient) {
    let server = server_with(designer, Registry::in_memory(), ThrottleConfig::default());
    let client = LocalClient::new(Arc::clone(&server));
    (server, client)
}

/// A fabricated chip plus its wire-format readout.
fn fabricate(foundry: &mut Foundry) -> (hwm_metering::Chip, String) {
    let chip = foundry.fabricate_one();
    let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
    (chip, readout)
}

#[test]
fn register_unlock_disable_lifecycle() {
    let designer = designer(11);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 12);
    let (server, mut client) = local(&designer);
    let (mut chip, readout) = fabricate(&mut foundry);

    // Foundry reports the die.
    let resp = client
        .call(&Request::Register {
            client: "fab".into(),
            ic: "ic-0".into(),
            readout: readout.clone(),
        })
        .expect("transport");
    assert_eq!(
        resp,
        Response::Registered {
            ic: "ic-0".into(),
            total: 1
        }
    );

    // Test facility asks for the key; the key must actually unlock the die.
    let resp = client
        .call(&Request::Unlock {
            client: "fab".into(),
            readout: readout.clone(),
        })
        .expect("transport");
    let key = match resp {
        Response::Key { ref ic, ref key } => {
            assert_eq!(ic, "ic-0");
            UnlockKey { values: key.clone() }
        }
        other => panic!("expected a key, got {other:?}"),
    };
    chip.apply_key(&key).expect("key accepted by the die");
    assert!(chip.is_unlocked(), "issued key must unlock the silicon");
    assert_eq!(server.activations(), 1, "one royalty counted");

    // A second unlock for the same die is refused (keys are issued once).
    let resp = client
        .call(&Request::Unlock {
            client: "fab".into(),
            readout: readout.clone(),
        })
        .expect("transport");
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::AlreadyUnlocked,
            ..
        }
    ));

    // Remote disable returns the kill sequence, and the sequence works.
    let resp = client
        .call(&Request::RemoteDisable {
            client: "alice".into(),
            ic: "ic-0".into(),
        })
        .expect("transport");
    let kill = match resp {
        Response::Disabled { ref ic, ref kill } => {
            assert_eq!(ic, "ic-0");
            kill.clone()
        }
        other => panic!("expected disable, got {other:?}"),
    };
    assert!(chip.remote_disable(&kill), "kill sequence must trap the die");

    // Status reflects the whole history.
    let resp = client
        .call(&Request::Status {
            client: "alice".into(),
            ic: Some("ic-0".into()),
        })
        .expect("transport");
    match resp {
        Response::Status(s) => {
            // States are exclusive: a disabled die no longer counts as
            // unlocked.
            assert_eq!((s.registered, s.unlocked, s.disabled), (1, 0, 1));
            assert_eq!(s.ic_state.as_deref(), Some("disabled"));
        }
        other => panic!("expected status, got {other:?}"),
    }
    server.with_registry(|r| {
        assert_eq!(r.by_ic("ic-0").unwrap().state, IcState::Disabled);
    });
}

#[test]
fn duplicate_readout_is_rejected_as_clone_evidence() {
    let designer = designer(21);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 22);
    let (_server, mut client) = local(&designer);
    let (_chip, readout) = fabricate(&mut foundry);

    let ok = client
        .call(&Request::Register {
            client: "fab".into(),
            ic: "ic-0".into(),
            readout: readout.clone(),
        })
        .unwrap();
    assert!(!matches!(ok, Response::Error { .. }), "{ok:?}");
    // The same readout under a different label: a cloned die.
    let resp = client
        .call(&Request::Register {
            client: "fab".into(),
            ic: "ic-clone".into(),
            readout,
        })
        .unwrap();
    match resp {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::DuplicateReadout);
            assert!(message.contains("ic-0"), "names the original die: {message}");
        }
        other => panic!("expected duplicate error, got {other:?}"),
    }
    let resp = client
        .call(&Request::Status {
            client: "fab".into(),
            ic: None,
        })
        .unwrap();
    match resp {
        Response::Status(s) => assert_eq!((s.registered, s.duplicates), (1, 1)),
        other => panic!("expected status, got {other:?}"),
    }
}

#[test]
fn wrong_readouts_trigger_exponential_lockout() {
    let designer = designer(31);
    let throttle = ThrottleConfig {
        burst: 1_000,
        refill_ticks: 1,
        failure_threshold: 3,
        base_lockout_ticks: 50,
        max_lockout_ticks: 1 << 20,
    };
    let server = server_with(&designer, Registry::in_memory(), throttle);
    let mut client = LocalClient::new(Arc::clone(&server));

    // A guessed readout of the right length that no registered die owns.
    let width = designer.blueprint().scan_layout().total();
    let guess: String = "0".repeat(width);
    let mut attempts = 0u64;
    let locked_at = loop {
        attempts += 1;
        let resp = client
            .call(&Request::Unlock {
                client: "mallory".into(),
                readout: guess.clone(),
            })
            .unwrap();
        match resp {
            Response::Error {
                code: ErrorCode::UnknownReadout,
                retry_at,
                ..
            } => {
                if let Some(until) = retry_at {
                    break until;
                }
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    };
    assert_eq!(
        attempts, 3,
        "the Nth wrong readout (threshold) must trigger the lockout"
    );
    assert_eq!(locked_at, attempts + 50, "base lockout duration");
    // While locked out, even well-formed requests bounce.
    let resp = client
        .call(&Request::Status {
            client: "mallory".into(),
            ic: None,
        })
        .unwrap();
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::LockedOut,
            ..
        }
    ));
    // Another client is unaffected.
    let resp = client
        .call(&Request::Status {
            client: "fab".into(),
            ic: None,
        })
        .unwrap();
    match resp {
        Response::Status(s) => assert_eq!(s.lockouts, 1),
        other => panic!("expected status, got {other:?}"),
    }
}

#[test]
fn token_bucket_throttles_bursts() {
    let designer = designer(41);
    let throttle = ThrottleConfig {
        burst: 2,
        refill_ticks: 10,
        ..ThrottleConfig::default()
    };
    let server = server_with(&designer, Registry::in_memory(), throttle);
    let mut client = LocalClient::new(Arc::clone(&server));
    let status = |client: &mut LocalClient| {
        client
            .call(&Request::Status {
                client: "fab".into(),
                ic: None,
            })
            .unwrap()
    };
    for _ in 0..2 {
        let resp = status(&mut client);
        assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");
    }
    let resp = status(&mut client);
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Throttled,
                retry_at: Some(_),
                ..
            }
        ),
        "third back-to-back request exceeds the burst: {resp:?}"
    );
}

#[test]
fn journal_replay_recovers_state_across_restart() {
    let dir = std::env::temp_dir().join(format!("hwm-service-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("registry.jsonl");
    let _ = std::fs::remove_file(&path);

    let designer = designer(51);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 52);
    let (_chip, readout) = fabricate(&mut foundry);

    // First server life: register + unlock.
    {
        let server = server_with(
            &designer,
            Registry::open(&path).unwrap(),
            ThrottleConfig::default(),
        );
        let mut client = LocalClient::new(Arc::clone(&server));
        let resp = client
            .call(&Request::Register {
                client: "fab".into(),
                ic: "ic-0".into(),
                readout: readout.clone(),
            })
            .unwrap();
        assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");
        assert!(matches!(
            client
                .call(&Request::Unlock {
                    client: "fab".into(),
                    readout: readout.clone(),
                })
                .unwrap(),
            Response::Key { .. }
        ));
    }

    // Second life: the journal replays; the die is still unlocked, its
    // readout still collides, and its key is not reissued.
    let server = server_with(
        &designer,
        Registry::open(&path).unwrap(),
        ThrottleConfig::default(),
    );
    let mut client = LocalClient::new(Arc::clone(&server));
    let resp = client
        .call(&Request::Status {
            client: "fab".into(),
            ic: Some("ic-0".into()),
        })
        .unwrap();
    match resp {
        Response::Status(s) => {
            assert_eq!((s.registered, s.unlocked), (1, 1));
            assert_eq!(s.ic_state.as_deref(), Some("unlocked"));
        }
        other => panic!("expected status, got {other:?}"),
    }
    let resp = client
        .call(&Request::Unlock {
            client: "fab".into(),
            readout: readout.clone(),
        })
        .unwrap();
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::AlreadyUnlocked,
            ..
        }
    ));
    let resp = client
        .call(&Request::Register {
            client: "fab".into(),
            ic: "ic-again".into(),
            readout,
        })
        .unwrap();
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::DuplicateReadout,
            ..
        }
    ));

    drop(client);
    drop(server);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn tcp_round_trip_matches_local_semantics() {
    let designer = designer(61);
    let mut foundry = Foundry::new(designer.blueprint().clone(), 62);
    let server = server_with(&designer, Registry::in_memory(), ThrottleConfig::default());
    let tcp = match TcpServer::spawn("127.0.0.1:0", Arc::clone(&server)) {
        Ok(tcp) => tcp,
        Err(e) => {
            // Sandboxes may refuse loopback binds; the protocol itself is
            // covered by the LocalClient tests above.
            eprintln!("skipping TCP test: bind failed: {e}");
            return;
        }
    };
    let addr = tcp.addr();

    // Two concurrent connections register their own dies and unlock them.
    // The tiny test lock has few flip-flops, so skip power-up collisions.
    let mut chips: Vec<String> = Vec::new();
    while chips.len() < 4 {
        let (_chip, readout) = fabricate(&mut foundry);
        if !chips.contains(&readout) {
            chips.push(readout);
        }
    }
    let mut handles = Vec::new();
    for (w, chunk) in chips.chunks(2).enumerate() {
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut client = TcpClient::connect(addr).expect("connect");
            for (i, readout) in chunk.iter().enumerate() {
                let ic = format!("ic-{w}-{i}");
                let resp = client
                    .call(&Request::Register {
                        client: format!("fab-{w}"),
                        ic: ic.clone(),
                        readout: readout.clone(),
                    })
                    .expect("register over tcp");
                assert!(!matches!(resp, Response::Error { .. }), "{resp:?}");
                let resp = client
                    .call(&Request::Unlock {
                        client: format!("fab-{w}"),
                        readout: readout.clone(),
                    })
                    .expect("unlock over tcp");
                assert!(matches!(resp, Response::Key { .. }), "{resp:?}");
            }
        }));
    }
    for h in handles {
        h.join().expect("tcp worker");
    }
    tcp.shutdown();
    let status = server.status();
    assert_eq!((status.registered, status.unlocked), (4, 4));
}
