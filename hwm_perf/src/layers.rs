//! The per-layer replay (`--layers`, `--trace 1`): each workload's inputs
//! (generated from the same seed, at replay size) are fed through each
//! layer's public entry point, with an `hwm_trace` span around the calls.
//!
//! Nanosecond-scale layers (a chip step, a ring lookup, an admission
//! check) are timed in batches, one span per batch, so span overhead does
//! not swamp them; a counter under each span records the calls it covers.
//! A layer's time per call is its span's total over its calls — the
//! benchmark's layer spans are siblings, so no layer's time includes
//! another's (spans the program opens inside a layer count as that
//! layer's).
//!
//! Every replay runs whatever `--workload` names, because each per-layer
//! metric belongs to the workload whose inputs exercise it (see
//! [`crate::report::PER_LAYER`]). The end-to-end numbers come only from
//! the untraced passes; the layer table of each workload scales the
//! replay's per-call times by the calls one untraced pass makes and shows
//! the residual.

use crate::cluster::{self, Cluster};
use crate::report::{LayerRow, WorkloadResult, PER_LAYER};
use crate::serving::{self, Kind, Oracle, Served, Stream};
use crate::table3;
use hwm_attacks::brute::run_seed;
use hwm_logic::Bits;
use hwm_metering::{Chip, Designer, Foundry, ScanReadout};
use hwm_metrics::MetricsRegistry;
use hwm_service::wire::{encode_frame, parse_readout_bits, FrameDecoder, FrameScratch};
use hwm_service::{
    ActivationServer, ErrorCode, FlushPolicy, Handler, RateLimiter, RecoverOptions, Registry,
    Request, Response, TcpClient, TracedRequest,
};
use hwm_trace::Summary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Runs `f` inside a span named `name` that covers `calls` operations.
fn timed<T>(name: &'static str, calls: usize, f: impl FnOnce() -> T) -> T {
    let _span = hwm_trace::span(name);
    hwm_trace::counter("calls", calls as u64);
    f()
}

/// Replay sizes.
struct Sizes {
    /// Attacks per lock in the Table 3 replay (one lock per input width).
    attacks: usize,
    /// Requests replayed from the head of each serving stream.
    activate: usize,
    register: usize,
    cluster: usize,
}

impl Sizes {
    fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                attacks: 1,
                activate: 40,
                register: 40,
                cluster: 20,
            }
        } else {
            Sizes {
                attacks: 4,
                activate: 300,
                register: 4_000,
                cluster: 2_000,
            }
        }
    }
}

/// Guesses drawn per batch of the Table 3 replay.
const BATCH: usize = 4096;

/// One brute-force attack replayed in batches, exactly as `brute_force`
/// walks it (check, draw, step; cap at [`table3::CAP`]), with the guess
/// draws, the steps and the unlock/trap checks timed apart: a walk with
/// the checks decides how many guesses each batch uses, its twin then
/// steps exactly those without checks, and the checks run on their own.
/// Returns the guesses counted and whether the chip unlocked.
fn replay_attack(mut walk: Chip, rng: &mut StdRng) -> (u64, bool) {
    let width = walk.blueprint().num_inputs();
    let mut twin = walk.clone();
    let mut attempts = 0u64;
    loop {
        let inputs: Vec<Bits> = timed("attacks.input", BATCH, || {
            (0..BATCH)
                .map(|_| (0..width).map(|_| rng.random_bool(0.5)).collect())
                .collect()
        });
        let mut used = 0;
        let mut done = false;
        for input in &inputs {
            if walk.is_unlocked() || walk.is_trapped() || attempts == table3::CAP {
                done = true;
                break;
            }
            walk.step(input);
            attempts += 1;
            used += 1;
        }
        timed("core.chip_step", used, || {
            for input in &inputs[..used] {
                twin.step(input);
            }
        });
        timed("core.chip_checks", used, || {
            for _ in 0..used {
                black_box(black_box(&twin).is_unlocked());
                black_box(black_box(&twin).is_trapped());
            }
        });
        if done {
            // A trapped walk burns the rest of the cap, as `brute_force`
            // counts it.
            let guesses = if walk.is_trapped() {
                table3::CAP
            } else {
                attempts
            };
            return (guesses, walk.is_unlocked());
        }
    }
}

/// Table 3: for each input width, instance 0 of the row's cell — build the
/// lock, then replay `attacks` attacks on fresh chips.
fn table3_replay(quick: bool, attacks: usize, counts: &mut BTreeMap<&'static str, f64>) {
    let row = table3::row(quick);
    let (mut guesses, mut runs, mut unlocked) = (0u64, 0u64, 0u64);
    for &(b, _) in row
        .cells
        .iter()
        .take(if quick { 1 } else { row.cells.len() })
    {
        let seed = table3::instance_seed(row.ffs, b, 0);
        let designer = timed("core.designer_new", 1, || table3::lock(row.ffs, b, seed));
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xFAB);
        for i in 0..attacks {
            let chip = timed("core.fabricate", 1, || foundry.fabricate_one());
            let mut rng = StdRng::seed_from_u64(run_seed(seed ^ 0xA77, i as u64));
            let (g, u) = replay_attack(chip, &mut rng);
            guesses += g;
            runs += 1;
            unlocked += u64::from(u);
        }
    }
    counts.insert("attacks.guesses", guesses as f64);
    counts.insert("attacks.unlock_share", unlocked as f64 / runs.max(1) as f64);
}

/// Journal events a reply implies, in the order the server appends them.
enum Append<'a> {
    Register {
        client: &'a str,
        ic: &'a str,
        readout: &'a str,
    },
    Unlock {
        client: &'a str,
        ic: &'a str,
        key_len: usize,
    },
    Disable {
        client: &'a str,
        ic: &'a str,
    },
}

fn appends<'a>(reqs: &'a [Request], replies: &'a [Response]) -> Vec<Append<'a>> {
    reqs.iter()
        .zip(replies)
        .filter_map(|(req, reply)| match (req, reply) {
            (
                Request::Register {
                    client,
                    ic,
                    readout,
                },
                Response::Registered { .. },
            )
            | (
                Request::Register {
                    client,
                    ic,
                    readout,
                },
                Response::Error {
                    code: ErrorCode::DuplicateReadout,
                    ..
                },
            ) => Some(Append::Register {
                client,
                ic,
                readout,
            }),
            (Request::Unlock { client, .. }, Response::Key { ic, key }) => Some(Append::Unlock {
                client,
                ic,
                key_len: key.len(),
            }),
            (Request::RemoteDisable { client, ic }, Response::Disabled { .. }) => {
                Some(Append::Disable { client, ic })
            }
            _ => None,
        })
        .collect()
}

/// Builds the lock's key table with the first key it issues (the
/// warm-up die's, timed); the warm lock is then cloned into every server
/// of the replay.
fn warm_key_table(designer: &mut Designer, warmup: &[Request]) -> Result<(), String> {
    let readout = match &warmup[1] {
        Request::Unlock { readout, .. } => readout,
        other => return Err(format!("warm-up must end with an unlock, not {other:?}")),
    };
    let bits = parse_readout_bits(readout).map_err(|e| e.message)?;
    timed("core.key_table", 1, || {
        designer.issue_key(&ScanReadout(bits))
    })
    .map(|_| ())
    .map_err(|e| format!("warm-up key: {e}"))
}

/// A served lock of `modules`, timed as one `Designer::new`.
fn lock(modules: usize) -> Designer {
    timed("core.designer_new", 1, || serving::new_designer(modules))
}

fn head(stream: &Stream, n: usize) -> Stream {
    let n = n.min(stream.reqs.len());
    Stream {
        warmup: stream.warmup.clone(),
        reqs: stream.reqs[..n].to_vec(),
        kinds: stream.kinds[..n].to_vec(),
        chips: Default::default(),
    }
}

fn same(got: &[Response], want: &[Response], layer: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{layer} replay diverged from the oracle"))
    }
}

/// A fresh registry: a group-commit journal at `path`, or in memory.
fn fresh_registry(path: Option<&Path>) -> Result<Registry, String> {
    let Some(path) = path else {
        return Ok(Registry::in_memory());
    };
    let _ = std::fs::remove_file(path);
    Registry::open_with(
        path,
        RecoverOptions {
            flush: FlushPolicy::group_commit(),
            ..RecoverOptions::default()
        },
    )
    .map_err(|e| format!("replay journal {}: {e}", path.display()))
}

/// `ActivationServer::handle` over the stream, after the warm-up, with
/// live metrics on or off.
fn in_process(
    designer: &Designer,
    stream: &Stream,
    journal: Option<&Path>,
    span: &'static str,
    metrics: bool,
) -> Result<Vec<Response>, String> {
    let server = ActivationServer::new(
        designer.clone(),
        fresh_registry(journal)?,
        serving::server_config(),
    );
    server.metrics().set_enabled(metrics);
    for req in &stream.warmup {
        server.handle(req);
    }
    let replies = timed(span, stream.reqs.len(), || {
        stream.reqs.iter().map(|r| server.handle(r)).collect()
    });
    drop(server);
    if let Some(path) = journal {
        let _ = std::fs::remove_file(path);
    }
    Ok(replies)
}

/// The service layers on one stream: codec, admission, readout decoding,
/// journal appends, the handler with and without live metrics, and (with
/// a journal directory) the TCP round trip.
fn service_stack(
    designer: &Designer,
    stream: &Stream,
    oracle: &Oracle,
    tmp: Option<&Path>,
    journal_counts: Option<&mut BTreeMap<&'static str, f64>>,
) -> Result<(), String> {
    let n = stream.reqs.len();
    let want = &oracle.replies;
    let mut scratch = FrameScratch::new();
    let (req_frames, resp_frames) = timed("service.wire_encode", n, || {
        let mut reqs = Vec::with_capacity(n);
        let mut resps = Vec::with_capacity(n);
        for (req, resp) in stream.reqs.iter().zip(want) {
            reqs.push(encode_frame(&mut scratch, &req.to_json()).map(<[u8]>::to_vec));
            resps.push(encode_frame(&mut scratch, &resp.to_json()).map(<[u8]>::to_vec));
        }
        (reqs, resps)
    });
    let decoded = timed(
        "service.wire_decode",
        n,
        || -> Result<(Vec<Request>, Vec<Response>), String> {
            let mut decoder = FrameDecoder::new();
            let mut next = |frame: std::io::Result<Vec<u8>>| -> Result<hwm_jsonio::Json, String> {
                decoder.extend(&frame.map_err(|e| e.to_string())?);
                decoder
                    .next_frame()
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "frame incomplete".to_string())
            };
            let mut reqs = Vec::with_capacity(n);
            let mut resps = Vec::with_capacity(n);
            for (rf, pf) in req_frames.into_iter().zip(resp_frames) {
                reqs.push(
                    TracedRequest::from_json(&next(rf)?)
                        .map_err(|e| e.message)?
                        .req,
                );
                resps.push(Response::from_json(&next(pf)?).map_err(|e| e.message)?);
            }
            Ok((reqs, resps))
        },
    )?;
    if decoded.0 != stream.reqs || decoded.1 != *want {
        return Err("codec round trip changed a message".into());
    }

    let config = serving::server_config();
    let mut limiter = RateLimiter::new(config.throttle);
    let first_tick = stream.warmup.len() as u64 + 1;
    timed("service.throttle", n, || {
        for (i, req) in stream.reqs.iter().enumerate() {
            black_box(limiter.check(req.client(), first_tick + i as u64));
        }
    });

    let blueprint = designer.blueprint();
    let readouts: Vec<Bits> = stream
        .reqs
        .iter()
        .filter_map(|r| match r {
            Request::Register { readout, .. } => parse_readout_bits(readout).ok(),
            _ => None,
        })
        .collect();
    timed("core.parse_readout", readouts.len(), || {
        for bits in &readouts {
            black_box(blueprint.parse_readout(black_box(bits)).ok());
        }
    });

    // Journal appends in oracle order, warm-up first (untimed), on a fresh
    // group-commit journal (or in memory, as the cluster's replicas keep
    // theirs). The resulting digest must be the oracle's.
    let journal = tmp.map(|dir| dir.join("replay.jsonl"));
    let mut registry = fresh_registry(journal.as_deref())?;
    let metrics = Arc::new(MetricsRegistry::default());
    registry.set_metrics(Arc::clone(&metrics));
    let apply = |registry: &mut Registry, events: &[Append]| {
        for event in events {
            let _ = match *event {
                Append::Register {
                    client,
                    ic,
                    readout,
                } => {
                    let group = parse_readout_bits(readout)
                        .ok()
                        .and_then(|bits| blueprint.parse_readout(&bits).ok())
                        .map_or(0, |(_, g)| g);
                    registry.register(client, ic, readout, group)
                }
                Append::Unlock {
                    client,
                    ic,
                    key_len,
                } => registry.mark_unlocked(ic, key_len, client),
                Append::Disable { client, ic } => registry.mark_disabled(ic, client),
            };
        }
    };
    apply(&mut registry, &appends(&stream.warmup, &oracle.warmup));
    let events = appends(&stream.reqs, want);
    let before = registry.journal_len();
    timed("service.registry_append", events.len(), || {
        apply(&mut registry, &events)
    });
    registry.commit().map_err(|e| e.to_string())?;
    if registry.rolling_digest() != oracle.digest {
        return Err("journal replay diverged from the oracle's digest".into());
    }
    if let (Some(path), Some(counts)) = (&journal, journal_counts) {
        let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        let total = registry.journal_len().max(1);
        counts.insert(
            "service.journal_bytes_per_event",
            bytes as f64 / total as f64,
        );
        let flushes = metrics
            .snapshot()
            .gauge("journal_group_commit_flushes", &[])
            .unwrap_or(0);
        counts.insert(
            "service.commits_per_1k_events",
            1000.0 * flushes as f64 / (registry.journal_len() - before).max(1) as f64,
        );
    }
    drop(registry);
    if let Some(path) = &journal {
        let _ = std::fs::remove_file(path);
    }

    let journal = journal.as_deref();
    same(
        &in_process(designer, stream, journal, "service.handle", true)?,
        want,
        "handler",
    )?;
    same(
        &in_process(
            designer,
            stream,
            journal,
            "service.handle_metrics_off",
            false,
        )?,
        want,
        "handler",
    )?;

    if let Some(dir) = tmp {
        let served = Served::start(designer.clone(), &dir.join("replay-tcp.jsonl"))?;
        let mut client = TcpClient::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
        let _ = serving::closed_loop(&mut client, &stream.warmup);
        let (got, _, err) = timed("service.tcp_round_trip", n, || {
            serving::closed_loop(&mut client, &stream.reqs)
        });
        drop(client);
        served.finish(&mut Default::default(), None, "replay");
        if let Some(e) = err {
            return Err(format!("TCP replay: {e}"));
        }
        same(&got, want, "TCP")?;
    }
    Ok(())
}

fn activate_replay(
    quick: bool,
    seed: u64,
    n: usize,
    tmp: &Path,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let sizes = serving::Sizes::new(quick);
    let modules = serving::lock_modules(quick, serving::ACTIVATE_MODULES);
    let mut designer = lock(modules);
    let stream = serving::activate_stream(&designer, seed, sizes.clients, sizes.per_client);
    warm_key_table(&mut designer, &stream.warmup)?;
    let prefix = head(&stream, n);
    let oracle = serving::oracle(designer.clone(), &prefix);
    let keyed: Vec<Bits> = prefix
        .reqs
        .iter()
        .zip(&oracle.replies)
        .filter_map(|(req, reply)| match (req, reply) {
            (Request::Unlock { readout, .. }, Response::Key { .. }) => {
                parse_readout_bits(readout).ok()
            }
            _ => None,
        })
        .collect();
    let mut keys = designer.clone();
    let lens = timed("core.issue_key", keyed.len(), || {
        keyed
            .iter()
            .map(|bits| keys.issue_key(&ScanReadout(bits.clone())).map(|k| k.len()))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("issue_key replay: {e}"))?;
    counts.insert(
        "core.key_len",
        lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64,
    );
    service_stack(&designer, &prefix, &oracle, Some(tmp), None)
}

fn register_replay(
    quick: bool,
    seed: u64,
    n: usize,
    tmp: &Path,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let modules = serving::lock_modules(quick, serving::REGISTER_MODULES);
    let mut designer = lock(modules);
    let stream = serving::register_stream(&designer, seed, n);
    warm_key_table(&mut designer, &stream.warmup)?;
    let prefix = head(&stream, n);
    let oracle = serving::oracle(designer.clone(), &prefix);
    service_stack(&designer, &prefix, &oracle, Some(tmp), Some(counts))
}

fn cluster_replay(quick: bool, seed: u64, n: usize) -> Result<(), String> {
    let modules = serving::lock_modules(quick, serving::REGISTER_MODULES);
    let mut designer = lock(modules);
    let stream = cluster::stream(&designer, seed, quick);
    warm_key_table(&mut designer, &stream.warmup)?;
    let prefix = head(&stream, n);
    let oracle = serving::oracle(designer.clone(), &prefix);
    service_stack(&designer, &prefix, &oracle, None, None)?;
    let ring = hwm_cluster::HashRing::new(cluster::SHARDS, cluster::VNODES);
    let keys: Vec<&str> = prefix
        .reqs
        .iter()
        .map(|r| match r {
            Request::Register { readout, .. } | Request::Unlock { readout, .. } => readout.as_str(),
            Request::Status { ic: Some(ic), .. } | Request::RemoteDisable { ic, .. } => ic.as_str(),
            other => other.client(),
        })
        .collect();
    timed("cluster.route", keys.len(), || {
        for key in &keys {
            black_box(ring.route(black_box(key)));
        }
    });
    for (tcp, span) in [
        (false, "cluster.router_local"),
        (true, "cluster.router_tcp"),
    ] {
        let c = Cluster::start(&designer, tcp)?;
        for req in &prefix.warmup {
            c.router.handle(req);
        }
        // A replication host accepts on a 10 ms poll; let every link's
        // connection be accepted so the first timed frame does not wait.
        std::thread::sleep(std::time::Duration::from_millis(25));
        let got: Vec<Response> = timed(span, prefix.reqs.len(), || {
            prefix.reqs.iter().map(|r| c.router.handle(r)).collect()
        });
        same(&got, &oracle.replies, span)?;
        if c.followers_converged()?.contains(&false) {
            return Err(format!("{span}: a follower diverged"));
        }
    }
    Ok(())
}

/// The replay's results: the span summary (what `--trace-out` writes)
/// and every per-layer metric.
pub struct Replay {
    /// Span summary of the whole replay.
    pub summary: Summary,
    /// Per-layer metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

/// Seconds per call of every layer the replay under `root` measured: a
/// span's total over its calls, and the layers defined as the difference
/// of two spans (socket = TCP round trip - handler - codec;
/// instrumentation = handler with live metrics - without; replication =
/// router over in-process links - single-node handler; link = router over
/// TCP links - router over in-process links).
fn layer_times(summary: &Summary, root: &str) -> BTreeMap<&'static str, f64> {
    let span = |layer: &str| {
        let path = format!("{root}/{layer}");
        let row = summary.span(&path)?;
        let calls = summary.counter(&path, "calls")?.max(1);
        Some(row.total_ns as f64 / calls as f64 / 1e9)
    };
    let mut times = BTreeMap::new();
    for layer in [
        "core.designer_new",
        "core.key_table",
        "core.fabricate",
        "core.chip_step",
        "core.chip_checks",
        "attacks.input",
        "core.issue_key",
        "core.parse_readout",
        "service.wire_encode",
        "service.wire_decode",
        "service.throttle",
        "service.registry_append",
        "service.handle",
        "cluster.route",
    ] {
        if let Some(t) = span(layer) {
            times.insert(layer, t);
        }
    }
    let handle = span("service.handle");
    let local = span("cluster.router_local");
    let derived = [
        (
            "service.socket",
            span("service.tcp_round_trip").zip(handle).map(|(rtt, h)| {
                rtt - h
                    - times.get("service.wire_encode").unwrap_or(&0.0)
                    - times.get("service.wire_decode").unwrap_or(&0.0)
            }),
        ),
        (
            "service.instrumentation",
            handle
                .zip(span("service.handle_metrics_off"))
                .map(|(on, off)| on - off),
        ),
        ("cluster.replication", local.zip(handle).map(|(l, h)| l - h)),
        (
            "cluster.link",
            span("cluster.router_tcp").zip(local).map(|(t, l)| t - l),
        ),
    ];
    for (layer, t) in derived {
        if let Some(t) = t {
            times.insert(layer, t);
        }
    }
    times
}

/// Replays every workload's layers.
///
/// # Errors
///
/// A replay whose outputs diverged from its oracle, or a socket failure.
pub fn replay(quick: bool, seed: u64, tmp: &Path) -> Result<Replay, String> {
    let sizes = Sizes::new(quick);
    let mut counts = BTreeMap::new();
    hwm_trace::reset();
    hwm_trace::set_enabled(true);
    let outcome = (|| {
        {
            let _root = hwm_trace::span("table3_15ff");
            table3_replay(quick, sizes.attacks, &mut counts);
        }
        {
            let _root = hwm_trace::span("activate_15ff");
            activate_replay(quick, seed, sizes.activate, tmp, &mut counts)?;
        }
        {
            let _root = hwm_trace::span("register_18ff");
            register_replay(quick, seed, sizes.register, tmp, &mut counts)?;
        }
        let _root = hwm_trace::span("cluster_2x1");
        cluster_replay(quick, seed, sizes.cluster)
    })();
    hwm_trace::set_enabled(false);
    outcome?;
    let summary = hwm_trace::summary();
    // A timed metric is named `<layer>_<unit>`; the rest are counts the
    // replays recorded.
    let mut values = BTreeMap::new();
    for def in &PER_LAYER {
        let scale = match def.unit {
            "ms" => 1e3,
            "us" => 1e6,
            "ns" => 1e9,
            _ => {
                if let Some(v) = counts.get(def.name) {
                    values.insert(def.name, *v);
                }
                continue;
            }
        };
        let layer = def
            .name
            .rsplit_once('_')
            .map_or(def.name, |(layer, _)| layer);
        if let Some(t) = layer_times(&summary, def.owner).get(layer) {
            values.insert(def.name, t * scale);
        }
    }
    Ok(Replay { summary, values })
}

/// Fills `result.layers`: the replay's per-call times for the layers of
/// this workload, scaled by the calls one untraced pass makes. Depth-0
/// rows sum to the end-to-end time; depth-1 rows are parts of the row
/// above them.
pub fn table(result: &mut WorkloadResult, summary: &Summary) {
    let times = layer_times(summary, result.name);
    let requests = result.ops("requests");
    let rows: Vec<(&str, &str, usize, f64)> = match result.name {
        "table3_15ff" => vec![
            (
                "core.designer_new (set-up)",
                "core.designer_new",
                0,
                result.ops("locks"),
            ),
            ("core.fabricate", "core.fabricate", 0, result.ops("attacks")),
            ("attacks.input", "attacks.input", 0, result.ops("guesses")),
            ("core.chip_step", "core.chip_step", 0, result.ops("guesses")),
            (
                "core.chip_checks",
                "core.chip_checks",
                0,
                result.ops("guesses"),
            ),
        ],
        "cluster_2x1" => vec![
            ("core.designer_new (set-up)", "core.designer_new", 0, 1.0),
            ("core.key_table (set-up)", "core.key_table", 0, 1.0),
            ("service.wire_encode", "service.wire_encode", 0, requests),
            ("service.wire_decode", "service.wire_decode", 0, requests),
            (
                "service.handle (single node)",
                "service.handle",
                0,
                requests,
            ),
            ("cluster.route", "cluster.route", 1, requests),
            ("cluster.replication", "cluster.replication", 0, requests),
            ("cluster.link", "cluster.link", 0, requests),
        ],
        serving => {
            let mut rows = vec![
                ("core.designer_new (set-up)", "core.designer_new", 0, 1.0),
                ("core.key_table (set-up)", "core.key_table", 0, 1.0),
                ("service.wire_encode", "service.wire_encode", 0, requests),
                ("service.wire_decode", "service.wire_decode", 0, requests),
                ("service.socket", "service.socket", 0, requests),
                ("service.handle", "service.handle", 0, requests),
                ("service.throttle", "service.throttle", 1, requests),
                (
                    "core.parse_readout",
                    "core.parse_readout",
                    1,
                    result.ops("registers"),
                ),
            ];
            if serving == "activate_15ff" {
                rows.push(("core.issue_key", "core.issue_key", 1, result.ops("keys")));
            }
            rows.push((
                "service.registry_append",
                "service.registry_append",
                1,
                result.ops("appends"),
            ));
            rows.push((
                "service.instrumentation",
                "service.instrumentation",
                1,
                requests,
            ));
            rows
        }
    };
    result.layers = rows
        .into_iter()
        .map(|(name, layer, depth, calls)| LayerRow {
            name: name.to_string(),
            depth,
            per_call_s: times.get(layer).copied().unwrap_or(0.0),
            calls,
        })
        .collect();
}

/// Per-pass operation counts of a serving stream for the layer table.
pub fn serving_ops(
    reqs: &[Request],
    kinds: &[Kind],
    replies: &[Response],
) -> Vec<(&'static str, f64)> {
    let keys = replies
        .iter()
        .filter(|r| matches!(r, Response::Key { .. }))
        .count();
    vec![
        ("requests", reqs.len() as f64),
        (
            "registers",
            kinds.iter().filter(|k| **k == Kind::Register).count() as f64,
        ),
        ("keys", keys as f64),
        ("appends", appends(reqs, replies).len() as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwm_attacks::brute::brute_force;

    #[test]
    fn the_attack_replay_counts_the_guesses_brute_force_counts() {
        let row = table3::row(true);
        let seed = table3::instance_seed(row.ffs, row.cells[0].0, 0);
        let designer = table3::lock(row.ffs, row.cells[0].0, seed);
        let mut foundry = Foundry::new(designer.blueprint().clone(), seed ^ 0xFAB);
        for i in 0..3 {
            let chip = foundry.fabricate_one();
            let rng = || StdRng::seed_from_u64(run_seed(seed ^ 0xA77, i));
            let want = brute_force(&mut chip.clone(), table3::CAP, &mut rng());
            assert_eq!(
                replay_attack(chip, &mut rng()),
                (want.attempts, want.unlocked)
            );
        }
    }
}
