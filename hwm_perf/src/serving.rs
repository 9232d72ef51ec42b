//! The serving workloads, `activate_18ff` and `register_18ff`: request
//! streams generated from the workload seed, sent to an
//! [`ActivationServer`] over one loopback TCP connection, with every reply
//! checked.

use crate::report::{Checks, WorkloadResult};
use crate::stats;
use hwm_metering::{Chip, Designer, Foundry, LockOptions, UnlockKey};
use hwm_service::registry::journal_digest;
use hwm_service::wire::{encode_frame, readout_to_bits_string, FrameDecoder, FrameScratch};
use hwm_service::{
    ActivationServer, Client, FlushPolicy, RecoverOptions, Registry, Request, Response,
    ServerConfig, TcpClient, TcpServer, ThrottleConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Construction seed of the served lock. The lock is the server's
/// configuration, not a workload input, so it stays fixed; the dies and
/// request streams come from `--seed`.
pub const LOCK_SEED: u64 = 2024;

/// Offered rate of the `activate_15ff` open-loop pass: about a third of
/// the closed-loop capacity, so latency shows queueing behind slow keys
/// without a growing backlog.
pub const OPEN_LOOP_RATE: f64 = 2_500.0;

/// Rates of the `--curve` sweep.
pub const CURVE_RATES: [f64; 5] = [1_250.0, 2_500.0, 3_750.0, 5_000.0, 6_250.0];

/// Added modules of the `activate_15ff` lock (15 FF). At 18 FF a key
/// costs about 2.5 ms and searches eight times as many states, and in an
/// interleaved comparison on a shared two-vCPU host that workload's
/// medians moved about 1.6 times as much between runs; at 15 FF a key
/// costs about 150 us, still over 90% of the handler's time for an
/// unlock.
pub const ACTIVATE_MODULES: usize = 5;

/// Added modules of the `register_18ff` and `cluster_2x1` lock (18 FF):
/// about 1 duplicate readout per 1,000 dies, so registrations rarely
/// collide.
pub const REGISTER_MODULES: usize = 6;

/// The lock of every serving workload under `--quick` (12 FF), so
/// debug-build tests stay fast.
pub const QUICK_MODULES: usize = 4;

/// `full` modules, or [`QUICK_MODULES`] under `--quick`.
pub fn lock_modules(quick: bool, full: usize) -> usize {
    if quick {
        QUICK_MODULES
    } else {
        full
    }
}

/// A served lock of `modules` added modules: one black hole, remote
/// disable on (the defaults).
pub fn new_designer(modules: usize) -> Designer {
    Designer::new(
        hwm_fsm::Stg::ring_counter(6, 2),
        LockOptions {
            added_modules: modules,
            black_holes: 1,
            ..LockOptions::default()
        },
        LOCK_SEED,
    )
    .expect("the served lock's fixed options construct")
}

/// Server policy: a bucket generous enough for a fab's bursts, a tight
/// lockout for wrong readouts, and the group-commit journal.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        throttle: ThrottleConfig {
            burst: 256,
            refill_ticks: 1,
            failure_threshold: 5,
            base_lockout_ticks: 1_000,
            max_lockout_ticks: 1 << 20,
        },
        flush: FlushPolicy::group_commit(),
        ..ServerConfig::default()
    }
}

/// Derives the seed of one generator stream from the workload seed
/// (SplitMix64 finalizer over a golden-ratio stride).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a request in a stream is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A die's registration.
    Register,
    /// An unlock with a guessed (almost surely wrong) readout.
    Guess,
    /// An unlock with a registered die's readout.
    Unlock,
    /// A remote disable.
    Disable,
    /// A status read.
    Status,
}

/// A generated request stream.
pub struct Stream {
    /// Register + unlock of one extra die, sent during set-up: it builds
    /// the server's lazy key table before anything is timed.
    pub warmup: Vec<Request>,
    /// The measured requests, in send order.
    pub reqs: Vec<Request>,
    /// What each measured request is for.
    pub kinds: Vec<Kind>,
    /// The fabricated dies by IC label, for checking issued keys.
    pub chips: HashMap<String, Chip>,
}

fn warmup(
    foundry_seed: u64,
    designer: &Designer,
    chips: &mut HashMap<String, Chip>,
) -> Vec<Request> {
    let chip = Foundry::new(designer.blueprint().clone(), foundry_seed).fabricate_one();
    let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
    chips.insert("warmup-0".into(), chip);
    vec![
        Request::Register {
            client: "warmup".into(),
            ic: "warmup-0".into(),
            readout: readout.clone(),
        },
        Request::Unlock {
            client: "warmup".into(),
            readout,
        },
    ]
}

/// The honest fab mix: `clients` fabs with `per_client` dies each. Every
/// die is registered and unlocked; every 4th also gets a wrong guess
/// first, every 8th is then remotely disabled, and each client ends with
/// a status read. Clients are interleaved round-robin.
pub fn activate_stream(
    designer: &Designer,
    seed: u64,
    clients: usize,
    per_client: usize,
) -> Stream {
    let blueprint = designer.blueprint().clone();
    let width = blueprint.scan_layout().total();
    let mut chips = HashMap::new();
    let warmup = warmup(mix(seed, 0xFFFF), designer, &mut chips);
    let plans: Vec<Vec<(Request, Kind)>> = (0..clients)
        .map(|i| {
            let mut foundry = Foundry::new(blueprint.clone(), mix(seed, i as u64));
            let mut rng = StdRng::seed_from_u64(mix(seed, i as u64) ^ 0x10AD);
            let client = format!("fab-{i}");
            let mut plan = Vec::new();
            for c in 0..per_client {
                let chip = foundry.fabricate_one();
                let readout = readout_to_bits_string(&chip.scan_flip_flops().0);
                let ic = format!("ic-{i}-{c}");
                chips.insert(ic.clone(), chip);
                plan.push((
                    Request::Register {
                        client: client.clone(),
                        ic: ic.clone(),
                        readout: readout.clone(),
                    },
                    Kind::Register,
                ));
                if c % 4 == 3 {
                    let guess: String = (0..width)
                        .map(|_| if rng.random_bool(0.5) { '1' } else { '0' })
                        .collect();
                    plan.push((
                        Request::Unlock {
                            client: client.clone(),
                            readout: guess,
                        },
                        Kind::Guess,
                    ));
                }
                plan.push((
                    Request::Unlock {
                        client: client.clone(),
                        readout,
                    },
                    Kind::Unlock,
                ));
                if c % 8 == 5 {
                    plan.push((
                        Request::RemoteDisable {
                            client: client.clone(),
                            ic,
                        },
                        Kind::Disable,
                    ));
                }
            }
            plan.push((Request::Status { client, ic: None }, Kind::Status));
            plan
        })
        .collect();
    let (mut reqs, mut kinds) = (Vec::new(), Vec::new());
    let longest = plans.iter().map(Vec::len).max().unwrap_or(0);
    for step in 0..longest {
        for plan in &plans {
            if let Some((req, kind)) = plan.get(step) {
                reqs.push(req.clone());
                kinds.push(*kind);
            }
        }
    }
    Stream {
        warmup,
        reqs,
        kinds,
        chips,
    }
}

/// One fab registering `registrations` dies, reading one IC's status
/// after every 4th registration.
pub fn register_stream(designer: &Designer, seed: u64, registrations: usize) -> Stream {
    let mut chips = HashMap::new();
    let warmup = warmup(mix(seed, 0xFFFF), designer, &mut chips);
    let mut foundry = Foundry::new(designer.blueprint().clone(), mix(seed, 0x4E6));
    let (mut reqs, mut kinds) = (Vec::new(), Vec::new());
    for k in 0..registrations {
        let readout = readout_to_bits_string(&foundry.fabricate_one().scan_flip_flops().0);
        let ic = format!("ic-{k}");
        reqs.push(Request::Register {
            client: "fab-0".into(),
            ic: ic.clone(),
            readout,
        });
        kinds.push(Kind::Register);
        if k % 4 == 3 {
            reqs.push(Request::Status {
                client: "fab-0".into(),
                ic: Some(ic),
            });
            kinds.push(Kind::Status);
        }
    }
    Stream {
        warmup,
        reqs,
        kinds,
        chips,
    }
}

/// What the single-node oracle answered.
pub struct Oracle {
    /// Replies to the warm-up.
    pub warmup: Vec<Response>,
    /// Replies to the stream.
    pub replies: Vec<Response>,
    /// Journal digest after both, which every served pass must reproduce.
    pub digest: u64,
}

/// The single-node oracle: the warm-up and the stream handled in process
/// on an in-memory registry.
pub fn oracle(designer: Designer, stream: &Stream) -> Oracle {
    let server = ActivationServer::new(designer, Registry::in_memory(), server_config());
    let warmup = stream.warmup.iter().map(|r| server.handle(r)).collect();
    let replies = stream.reqs.iter().map(|r| server.handle(r)).collect();
    Oracle {
        warmup,
        replies,
        digest: server.with_registry(|r| r.rolling_digest()),
    }
}

/// A running server: the activation server behind a TCP front end,
/// journaling to its own file under group commit.
pub struct Served {
    server: Arc<ActivationServer>,
    front: TcpServer,
    journal: PathBuf,
}

impl Served {
    /// Opens a fresh journal at `journal` and starts serving `designer`.
    ///
    /// # Errors
    ///
    /// Journal or socket failures.
    pub fn start(designer: Designer, journal: &Path) -> Result<Served, String> {
        let _ = std::fs::remove_file(journal);
        let registry = Registry::open_with(
            journal,
            RecoverOptions {
                flush: FlushPolicy::group_commit(),
                ..RecoverOptions::default()
            },
        )
        .map_err(|e| format!("open journal {}: {e}", journal.display()))?;
        let config = server_config();
        let server = Arc::new(ActivationServer::new(designer, registry, config));
        let front =
            TcpServer::spawn_with_poll("127.0.0.1:0", Arc::clone(&server), config.accept_poll_ms)
                .map_err(|e| format!("bind: {e}"))?;
        Ok(Served {
            server,
            front,
            journal: journal.to_path_buf(),
        })
    }

    /// The front end's address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Stops serving and checks the journal: the bytes on disk must be
    /// the bytes the registry appended, and (when given) their digest
    /// must equal `want`. Returns the digest; the journal file is removed.
    pub fn finish(self, checks: &mut Checks, want: Option<u64>, what: &str) -> u64 {
        let Served {
            server,
            front,
            journal,
        } = self;
        front.shutdown();
        if let Err(e) = server.commit_journal() {
            checks.fail(1, format!("{what}: journal commit failed: {e}"));
        }
        let digest = server.with_registry(|r| r.rolling_digest());
        match std::fs::read(&journal) {
            Ok(bytes) if journal_digest(&bytes) == digest => {}
            Ok(_) => checks.fail(
                1,
                format!("{what}: journal file differs from the appended events"),
            ),
            Err(e) => checks.fail(1, format!("{what}: journal unreadable: {e}")),
        }
        if let Some(w) = want.filter(|w| *w != digest) {
            checks.fail(
                1,
                format!("{what}: journal digest {digest:#018x} differs from {w:#018x}"),
            );
        }
        drop(server);
        let _ = std::fs::remove_file(&journal);
        digest
    }
}

/// A pass's set-up: build the lock, start the server on a fresh journal,
/// connect, and send the warm-up. Returns the server, the connected
/// client and the set-up time.
///
/// # Errors
///
/// Any failure before the server answers the warm-up.
pub fn set_up(
    modules: usize,
    journal: &Path,
    warmup: &[Request],
) -> Result<(Served, TcpClient, Duration), String> {
    let t0 = Instant::now();
    let served = Served::start(new_designer(modules), journal)?;
    let mut client = TcpClient::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    for req in warmup {
        client.call(req).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((served, client, t0.elapsed()))
}

/// Sends `reqs` one at a time, each after the previous reply. Returns the
/// replies and each request's round-trip nanoseconds; stops at the first
/// transport error, which it returns with the replies so far.
pub fn closed_loop(
    client: &mut impl Client,
    reqs: &[Request],
) -> (Vec<Response>, Vec<u64>, Option<String>) {
    let mut responses = Vec::with_capacity(reqs.len());
    let mut latencies = Vec::with_capacity(reqs.len());
    for req in reqs {
        let t = Instant::now();
        match client.call(req) {
            Ok(resp) => {
                latencies.push(t.elapsed().as_nanos() as u64);
                responses.push(resp);
            }
            Err(e) => return (responses, latencies, Some(e.to_string())),
        }
    }
    (responses, latencies, None)
}

fn clip(text: String) -> String {
    if text.len() <= 160 {
        text
    } else {
        let mut end = 160;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &text[..end])
    }
}

/// Counts every reply that differs from the reference, and every missing
/// reply, as a failed operation.
pub fn compare_responses(checks: &mut Checks, got: &[Response], want: &[Response], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            checks.fail(
                1,
                clip(format!("{what}: reply {i} is {g:?}, expected {w:?}")),
            );
        }
    }
    if got.len() < want.len() {
        checks.fail(
            (want.len() - got.len()) as u64,
            format!("{what}: {} replies missing", want.len() - got.len()),
        );
    }
}

/// Counts every issued key that does not unlock its die as a failed
/// operation: the key is applied to a copy of the die
/// ([`Chip::apply_key`]) and the die must end unlocked.
pub fn verify_keys(
    checks: &mut Checks,
    responses: &[Response],
    chips: &HashMap<String, Chip>,
) -> usize {
    let mut keys = 0;
    for resp in responses {
        if let Response::Key { ic, key } = resp {
            keys += 1;
            let unlocked = chips.get(ic).is_some_and(|chip| {
                let mut die = chip.clone();
                die.apply_key(&UnlockKey {
                    values: key.clone(),
                })
                .is_ok()
                    && die.is_unlocked()
            });
            if !unlocked {
                checks.fail(1, format!("key issued for {ic} does not unlock it"));
            }
        }
    }
    keys
}

/// One open-loop run.
pub struct OpenLoop {
    /// Replies, in request order.
    pub responses: Vec<Response>,
    /// Nanoseconds from each request's due time to its reply.
    pub latency_ns: Vec<u64>,
    /// Nanoseconds each request left after its due time.
    pub lateness_ns: Vec<u64>,
    /// Replies per second over the run.
    pub achieved_per_s: f64,
}

/// Sends `reqs` at a fixed `rate` over one connection whatever the server
/// does: the sender sleeps until the next request is due and writes every
/// due frame in one write; a receiver thread timestamps the replies.
/// Latency counts from the intended send time, so a stall also charges
/// the requests queued behind it.
///
/// # Errors
///
/// Socket failures, a reply that does not decode, or replies missing
/// after 10 s of silence.
pub fn open_loop(addr: SocketAddr, reqs: &[Request], rate: f64) -> Result<OpenLoop, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    reader
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut scratch = FrameScratch::new();
    let frames = reqs
        .iter()
        .map(|r| encode_frame(&mut scratch, &r.to_json()).map(<[u8]>::to_vec))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("encode: {e}"))?;
    let n = reqs.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = stats::due_times(start, n, rate);
    let mut sent = vec![start; n];
    let (received, sent_ok) = std::thread::scope(|s| {
        let receiver = s.spawn(move || -> Result<Vec<(Instant, Response)>, String> {
            let mut decoder = FrameDecoder::new();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let k = reader
                    .read(&mut chunk)
                    .map_err(|e| format!("read reply: {e}"))?;
                if k == 0 {
                    return Err(format!("server closed after {} of {n} replies", out.len()));
                }
                let at = Instant::now();
                decoder.extend(&chunk[..k]);
                while let Some(frame) = decoder
                    .next_frame()
                    .map_err(|e| format!("reply frame: {e}"))?
                {
                    out.push((at, Response::from_json(&frame).map_err(|e| e.to_string())?));
                }
            }
            Ok(out)
        });
        let mut burst = Vec::new();
        let mut i = 0;
        let mut sent_ok = Ok(());
        while i < n {
            let now = Instant::now();
            if now < due[i] {
                std::thread::sleep(due[i] - now);
            }
            let now = Instant::now();
            burst.clear();
            while i < n && due[i] <= now {
                burst.extend_from_slice(&frames[i]);
                sent[i] = now;
                i += 1;
            }
            if let Err(e) = (&stream).write_all(&burst) {
                sent_ok = Err(format!("send: {e}"));
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
        }
        (
            receiver.join().expect("reply receiver thread panicked"),
            sent_ok,
        )
    });
    sent_ok?;
    let received = received?;
    let at: Vec<Instant> = received.iter().map(|(t, _)| *t).collect();
    let elapsed = at
        .last()
        .map_or(0.0, |last| last.duration_since(start).as_secs_f64());
    Ok(OpenLoop {
        latency_ns: stats::since_due_ns(&due, &at),
        lateness_ns: stats::since_due_ns(&due, &sent),
        achieved_per_s: n as f64 / elapsed.max(1e-9),
        responses: received.into_iter().map(|(_, r)| r).collect(),
    })
}

/// The latencies of the requests of `kind`, in request order.
pub fn of_kind(latency_ns: &[u64], kinds: &[Kind], kind: Kind) -> Vec<u64> {
    latency_ns
        .iter()
        .zip(kinds)
        .filter(|(_, k)| **k == kind)
        .map(|(l, _)| *l)
        .collect()
}

/// p50 samples per pass: the pass's latencies, in send order, are cut
/// into this many consecutive segments and each segment's p50 is one
/// sample, so a contention burst of a fraction of a second moves a few
/// samples rather than the whole pass's value.
const P50_SEGMENTS: usize = 10;

/// Records one closed-loop pass: its time, `completed` requests per
/// second, the p50 of each tenth of `latencies` (in send order) and the
/// p99 of all of them.
pub fn record_closed(
    result: &mut WorkloadResult,
    run: Duration,
    completed: usize,
    mut latencies: Vec<u64>,
) {
    result.sample("run_s", run.as_secs_f64());
    result.sample("throughput", completed as f64 / run.as_secs_f64().max(1e-9));
    result.latency_count = latencies.len();
    for segment in latencies.chunks(latencies.len().div_ceil(P50_SEGMENTS).max(1)) {
        result.sample("p50_ms", stats::percentile_ms(&mut segment.to_vec(), 50.0));
    }
    result.sample("p99_ms", stats::percentile_ms(&mut latencies, 99.0));
}

/// Sizes of the serving workloads.
pub struct Sizes {
    /// `activate_15ff` clients.
    pub clients: usize,
    /// `activate_15ff` dies per client.
    pub per_client: usize,
    /// `register_18ff` registrations.
    pub registrations: usize,
}

impl Sizes {
    /// Full sizes, or tiny ones for `--quick`.
    pub fn new(quick: bool) -> Sizes {
        if quick {
            Sizes {
                clients: 2,
                per_client: 8,
                registrations: 40,
            }
        } else {
            Sizes {
                clients: 2,
                per_client: 2_000,
                registrations: 40_000,
            }
        }
    }
}

/// `activate_15ff`: closed-loop passes for four fifths of the budget, each
/// on a fresh server, then one open-loop pass at [`OPEN_LOOP_RATE`] over
/// the head of the stream for the last fifth. The closed passes give the
/// metrics (p50/p99 are unlock round trips); the open pass is a
/// diagnostic, since on a shared two-core machine its tail moves by
/// several times between runs. Every pass must reproduce the first pass's
/// replies and journal, and every issued key must unlock its die.
pub fn activate(quick: bool, seconds: Duration, seed: u64, tmp: &Path) -> WorkloadResult {
    let mut result = WorkloadResult::new("activate_15ff");
    let sizes = Sizes::new(quick);
    let modules = lock_modules(quick, ACTIVATE_MODULES);
    let stream = activate_stream(
        &new_designer(modules),
        seed,
        sizes.clients,
        sizes.per_client,
    );
    let mut reference: Option<(Vec<Response>, u64)> = None;
    let journal = tmp.join("activate.jsonl");
    let n = stream.reqs.len() as u64;
    let open_share = seconds / 5;
    let start = Instant::now();
    crate::run_passes(start + seconds - open_share, 2, |pass| {
        let what = format!("closed pass {pass}");
        let (served, mut client, setup) = match set_up(modules, &journal, &stream.warmup) {
            Ok(s) => s,
            Err(e) => {
                result.checks.attempted += n;
                result.checks.fail(n, format!("{what}: set-up failed: {e}"));
                return;
            }
        };
        result.sample("setup_s", setup.as_secs_f64());
        let t = Instant::now();
        let (responses, latencies, err) = closed_loop(&mut client, &stream.reqs);
        let run = t.elapsed();
        drop(client);
        result.checks.attempted += n;
        if let Some(e) = err {
            // Later passes count missing replies against the reference.
            let missing = if reference.is_none() {
                n - responses.len() as u64
            } else {
                0
            };
            result
                .checks
                .fail(missing, format!("{what}: transport: {e}"));
        }
        let unlocks = of_kind(&latencies, &stream.kinds, Kind::Unlock);
        record_closed(&mut result, run, responses.len(), unlocks);
        match &reference {
            None => {
                let keys = verify_keys(&mut result.checks, &responses, &stream.chips);
                let digest = served.finish(&mut result.checks, None, &what);
                result.notes.push(format!(
                    "{n} requests per pass; {keys} keys issued per pass, each applied to its die and checked unlocked; p50/p99 are unlock round trips"
                ));
                reference = Some((responses, digest));
            }
            Some((want, digest)) => {
                compare_responses(&mut result.checks, &responses, want, &what);
                served.finish(&mut result.checks, Some(*digest), &what);
            }
        }
    });
    let count = ((OPEN_LOOP_RATE * open_share.as_secs_f64()) as usize).clamp(1, stream.reqs.len());
    let head = &stream.reqs[..count];
    result.checks.attempted += count as u64;
    match set_up(modules, &journal, &stream.warmup).and_then(|(served, client, setup)| {
        drop(client);
        result.sample("setup_s", setup.as_secs_f64());
        let run = open_loop(served.addr(), head, OPEN_LOOP_RATE);
        served.finish(&mut result.checks, None, "open pass");
        run
    }) {
        Ok(run) => {
            if let Some((want, _)) = &reference {
                compare_responses(
                    &mut result.checks,
                    &run.responses,
                    &want[..count],
                    "open pass",
                );
            }
            let mut unlocks = of_kind(&run.latency_ns, &stream.kinds[..count], Kind::Unlock);
            let mut late = run.lateness_ns;
            result.notes.push(format!(
                "open loop at {OPEN_LOOP_RATE} req/s, first {count} requests (diagnostic): unlock latency from the intended send time p50 {:.3} ms, p99 {:.3} ms; generator lateness p99 {:.3} ms, max {:.3} ms",
                stats::percentile_ms(&mut unlocks.clone(), 50.0),
                stats::percentile_ms(&mut unlocks, 99.0),
                stats::percentile_ms(&mut late.clone(), 99.0),
                stats::percentile_ms(&mut late, 100.0),
            ));
        }
        Err(e) => result.checks.fail(count as u64, format!("open pass: {e}")),
    }
    if let Some((replies, _)) = &reference {
        result.ops = crate::layers::serving_ops(&stream.reqs, &stream.kinds, replies);
    }
    result
}

/// `register_18ff`: serial closed-loop passes of the registration stream,
/// each on a fresh server; every reply and the journal digest must equal
/// the in-process single-node oracle's.
pub fn register(quick: bool, seconds: Duration, seed: u64, tmp: &Path) -> WorkloadResult {
    let mut result = WorkloadResult::new("register_18ff");
    let sizes = Sizes::new(quick);
    let modules = lock_modules(quick, REGISTER_MODULES);
    let designer = new_designer(modules);
    let stream = register_stream(&designer, seed, sizes.registrations);
    let Oracle {
        replies: want,
        digest,
        ..
    } = oracle(designer, &stream);
    let journal = tmp.join("register.jsonl");
    let n = stream.reqs.len() as u64;
    crate::run_passes(Instant::now() + seconds, 2, |pass| {
        let what = format!("pass {pass}");
        let (served, mut client, setup) = match set_up(modules, &journal, &stream.warmup) {
            Ok(s) => s,
            Err(e) => {
                result.checks.attempted += n;
                result.checks.fail(n, format!("{what}: set-up failed: {e}"));
                return;
            }
        };
        result.sample("setup_s", setup.as_secs_f64());
        let t = Instant::now();
        let (responses, latencies, err) = closed_loop(&mut client, &stream.reqs);
        let run = t.elapsed();
        drop(client);
        result.checks.attempted += n;
        if let Some(e) = err {
            result.checks.fail(0, format!("{what}: transport: {e}"));
        }
        record_closed(&mut result, run, responses.len(), latencies);
        compare_responses(&mut result.checks, &responses, &want, &what);
        served.finish(&mut result.checks, Some(digest), &what);
    });
    result.ops = crate::layers::serving_ops(&stream.reqs, &stream.kinds, &want);
    result.notes.push(format!(
        "{n} requests per pass; every reply and the journal digest {digest:#018x} equal the single-node oracle's"
    ));
    result
}

/// The `--curve` sweep: `activate_15ff` open loop at each of
/// [`CURVE_RATES`], each step on a fresh server for `step` of sending.
/// Diagnostic only: prints p50/p99 unlock latency, generator lateness and
/// a backlog flag per step, then the knee.
pub fn curve(quick: bool, seed: u64, step: Duration, tmp: &Path) -> String {
    let sizes = Sizes::new(quick);
    let modules = lock_modules(quick, ACTIVATE_MODULES);
    let stream = activate_stream(
        &new_designer(modules),
        seed,
        sizes.clients,
        sizes.per_client,
    );
    let journal = tmp.join("curve.jsonl");
    let mut out = String::from(
        "== latency vs offered load (activate_15ff, open loop; diagnostic, not gated)\n",
    );
    out.push_str(
        "  offered   achieved   unlock p50   unlock p99   late p99   late max   n  backlog\n",
    );
    let mut last_ok: Option<f64> = None;
    let mut knee: Option<f64> = None;
    for rate in CURVE_RATES {
        let count = ((rate * step.as_secs_f64()) as usize).clamp(1, stream.reqs.len());
        let reqs = &stream.reqs[..count];
        let run = set_up(modules, &journal, &stream.warmup).and_then(|(served, client, _)| {
            drop(client);
            let run = open_loop(served.addr(), reqs, rate);
            served.finish(&mut Checks::default(), None, "curve");
            run
        });
        match run {
            Ok(run) => {
                let mut unlocks = of_kind(&run.latency_ns, &stream.kinds[..count], Kind::Unlock);
                let backlog = stats::backlogged(&unlocks, rate, run.achieved_per_s);
                let mut late = run.lateness_ns;
                out.push_str(&format!(
                    "  {:>7.0}  {:>9.1}  {:>8.3} ms  {:>8.3} ms  {:>6.3} ms  {:>6.3} ms  {:>4}  {}\n",
                    rate,
                    run.achieved_per_s,
                    stats::percentile_ms(&mut unlocks.clone(), 50.0),
                    stats::percentile_ms(&mut unlocks, 99.0),
                    stats::percentile_ms(&mut late.clone(), 99.0),
                    stats::percentile_ms(&mut late, 100.0),
                    count,
                    if backlog { "yes" } else { "no" }
                ));
                if backlog && knee.is_none() {
                    knee = Some(rate);
                } else if knee.is_none() {
                    last_ok = Some(rate);
                }
            }
            Err(e) => out.push_str(&format!("  {rate:>7.0}  failed: {e}\n")),
        }
    }
    out.push_str(&match (last_ok, knee) {
        (_, None) => format!(
            "  knee: none up to {:.0} req/s\n",
            CURVE_RATES[CURVE_RATES.len() - 1]
        ),
        (Some(ok), Some(k)) => format!("  knee: between {ok:.0} and {k:.0} req/s\n"),
        (None, Some(k)) => format!("  knee: at or below {k:.0} req/s\n"),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let d = new_designer(QUICK_MODULES);
        let a = activate_stream(&d, 5, 2, 8);
        let b = activate_stream(&d, 5, 2, 8);
        let c = activate_stream(&d, 6, 2, 8);
        assert_eq!(a.reqs, b.reqs);
        assert_ne!(a.reqs, c.reqs);
        assert_eq!(a.reqs.len(), a.kinds.len());
        // 16 registers + 16 unlocks + 4 guesses + 2 disables + 2 statuses.
        assert_eq!(a.reqs.len(), 40);
        let r = register_stream(&d, 5, 8);
        assert_eq!(r.reqs.len(), 10);
        assert_eq!(register_stream(&d, 5, 4).reqs[..], r.reqs[..5]);
    }

    #[test]
    fn a_tampered_reply_and_a_wrong_key_each_count_as_a_failure() {
        let d = new_designer(QUICK_MODULES);
        let stream = activate_stream(&d, 3, 2, 8);
        let want = oracle(d, &stream).replies;
        let mut checks = Checks::default();
        assert!(verify_keys(&mut checks, &want, &stream.chips) > 0);
        compare_responses(&mut checks, &want, &want, "clean");
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);

        let mut tampered = want.clone();
        let i = tampered
            .iter()
            .position(|r| matches!(r, Response::Key { .. }))
            .expect("the fab mix issues keys");
        if let Response::Key { key, .. } = &mut tampered[i] {
            key[0] ^= 1;
            key.truncate(1);
        }
        compare_responses(&mut checks, &tampered, &want, "tampered");
        assert_eq!(checks.failed, 1);
        verify_keys(&mut checks, &tampered, &stream.chips);
        assert_eq!(checks.failed, 2);
        compare_responses(&mut checks, &want[..3], &want, "short");
        assert_eq!(checks.failed, 2 + (want.len() as u64 - 3));
    }
}
