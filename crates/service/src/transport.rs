//! Transports: how frames reach a [`FrameService`].
//!
//! Every client round trip — activation requests and the cluster's
//! replication frames alike — runs through one [`FrameTransport`] per
//! transport. Its one method sends N frames as a burst and reads back
//! exactly N replies:
//!
//! * [`LocalWire`] — in-process. Frames are encoded onto an in-memory
//!   wire, answered through [`FrameService::answer`], and the replies are
//!   decoded from the same bytes TCP would carry, so protocol bugs cannot
//!   hide behind direct calls. There are no sockets and no scheduler: a
//!   fixed request sequence produces a byte-identical registry journal on
//!   every run. This is the transport the deterministic benchmarks and
//!   tests use.
//! * [`FrameConn`] — one TCP connection. The burst leaves in one
//!   `write_all` and the replies are read through a [`FrameDecoder`].
//!
//! Typed clients are thin mappings over a transport. [`FrameClient`]
//! maps [`Request`] to [`Response`] ([`LocalClient`] and [`TcpClient`]
//! name its two instances); `hwm-cluster`'s links map replication
//! frames. [`Client::call`] is a burst of one.
//!
//! The server side is one accept loop, [`TcpServer`], with one handler
//! thread per connection (handlers serialize on the server mutex;
//! concurrency covers framing and I/O). Journal ordering across
//! *concurrent* TCP clients follows mutex acquisition order and is
//! therefore not deterministic — documented in DESIGN.md. The server
//! serves any [`FrameService`], so the cluster's replication port is this
//! same accept loop over a replica.
//!
//! [`LocalWire`] accepts an optional fault layer for the crash
//! simulation. Injected transport faults (short reads, connection drops)
//! always strike **before dispatch**: the request is lost, the server
//! state is untouched, and the client's retry after reconnect/restart is
//! exact — the property the simulation's oracle comparison relies on.
//! (Storage faults, which strike *after* dispatch but before the
//! mutation commits, strike the journal append through the registry's
//! [`crate::fault::FaultInjector`].) The TCP server has no fault layer:
//! torn and dropped frames over TCP are tested with hostile clients that
//! send real bytes to the shipping decoder.

use crate::fault::{ArmedFault, FaultInjector};
use crate::server::ActivationServer;
use crate::wire::{
    encode_frame, ErrorCode, FrameDecoder, FrameScratch, Request, Response, TracedRequest,
    WireError,
};
use hwm_jsonio::Json;
use hwm_trace::TraceContext;
use std::collections::HashMap;
use std::io;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A client able to submit requests and receive responses.
pub trait Client {
    /// Submits one request, blocking for the response.
    fn call(&mut self, req: &Request) -> Result<Response, WireError>;

    /// Arms a trace context for the *next* call only: that request is
    /// sent as a [`TracedRequest`] envelope, after which the client
    /// reverts to untraced frames.
    fn set_trace(&mut self, ctx: TraceContext);
}

/// Anything that can answer a wire request: a single
/// [`ActivationServer`], or a cluster router fronting many of them.
/// Both transports dispatch through this, so the cluster reuses the
/// frame codec, the fault layer and the TCP front end unchanged.
pub trait Handler: Send + Sync {
    /// Handles one decoded request carrying an optional trace context.
    fn handle_traced(&self, req: &Request, trace: Option<&TraceContext>) -> Response;

    /// Handles one untraced request.
    fn handle(&self, req: &Request) -> Response {
        self.handle_traced(req, None)
    }
}

/// Anything a [`TcpServer`] can serve: answers one decoded JSON frame
/// with one JSON frame. Every [`Handler`] is one (the activation
/// protocol); the cluster's replication port implements it over its own
/// frame type, so both ride the same accept loop and pipelined decoder.
pub trait FrameService: Send + Sync {
    /// Answers one decoded frame. A frame that is JSON but not a valid
    /// message gets an error frame back; the connection stays open.
    fn answer(&self, frame: &Json) -> Json;
}

impl<H: Handler> FrameService for H {
    fn answer(&self, frame: &Json) -> Json {
        let resp = match TracedRequest::from_json(frame) {
            Ok(traced) => self.handle_traced(&traced.req, traced.trace.as_ref()),
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.message,
                retry_at: None,
            },
        };
        resp.to_json()
    }
}

impl Handler for ActivationServer {
    fn handle_traced(&self, req: &Request, trace: Option<&TraceContext>) -> Response {
        self.handle_at_traced(req, None, trace)
    }
}

fn io_err(context: &str, e: io::Error) -> WireError {
    WireError::new(format!("{context}: {e}"))
}

/// One frame round trip per transport: the only code that moves client
/// frames, for every protocol.
pub trait FrameTransport {
    /// Sends `frames` as one burst, then hands the replies to `reply` in
    /// order: exactly one per frame, or an error that ends the burst.
    /// The peer answers in arrival order, so a burst dispatches exactly
    /// as the same frames sent one by one.
    ///
    /// # Errors
    ///
    /// The first codec, transport or injected failure, or the first
    /// error `reply` returns. Replies not yet handed over are lost, as
    /// on a torn connection.
    fn burst(
        &mut self,
        frames: impl IntoIterator<Item = Json>,
        reply: impl FnMut(Json) -> Result<(), WireError>,
    ) -> Result<(), WireError>;

    /// One frame, one reply: a burst of one.
    ///
    /// # Errors
    ///
    /// As [`FrameTransport::burst`].
    fn call(&mut self, frame: Json) -> Result<Json, WireError> {
        let mut answer = None;
        self.burst([frame], |j| {
            answer = Some(j);
            Ok(())
        })?;
        answer.ok_or_else(|| WireError::new("burst of one returned no reply"))
    }
}

/// The in-process transport: each burst is encoded onto an in-memory
/// wire, the service decodes and answers every frame in order through
/// [`FrameService::answer`], and the replies come back as frames too.
/// Works for any service — a [`Handler`] or a cluster replica. The
/// wire's buffers are reused across bursts.
pub struct LocalWire<S> {
    service: Arc<S>,
    faults: Option<FaultInjector>,
    scratch: FrameScratch,
    /// Request bytes on their way to the service.
    inbound: FrameDecoder,
    /// Reply bytes on their way back.
    outbound: FrameDecoder,
}

impl<S: FrameService> LocalWire<S> {
    /// A wire into `service`. With `faults`, every frame consumes the
    /// transport fault armed on the injector as it goes onto the wire
    /// (crash simulation only): a short read delivers a prefix of the
    /// frame, a connection drop loses it whole — either way before the
    /// service sees it, and the burst ends with the error.
    pub fn new(service: Arc<S>, faults: Option<FaultInjector>) -> LocalWire<S> {
        LocalWire {
            service,
            faults,
            scratch: FrameScratch::new(),
            inbound: FrameDecoder::new(),
            outbound: FrameDecoder::new(),
        }
    }

    /// The service this wire dispatches into.
    pub fn service(&self) -> &Arc<S> {
        &self.service
    }

    /// Puts `frame` on the wire, or the part of it an armed transport
    /// fault lets through; returns that fault's error.
    fn send(&mut self, frame: &Json) -> Result<Option<&'static str>, WireError> {
        let bytes =
            encode_frame(&mut self.scratch, frame).map_err(|e| io_err("encode frame", e))?;
        if let Some(injector) = &self.faults {
            match injector.take() {
                Some(ArmedFault::ConnDrop) => {
                    return Ok(Some(
                        "injected connection drop: request frame lost in flight",
                    ));
                }
                Some(ArmedFault::ShortRead { salt }) => {
                    let keep = (salt % bytes.len() as u64) as usize;
                    self.inbound.extend(&bytes[..keep]);
                    return Ok(Some("injected short read: request frame truncated"));
                }
                // Storage faults pass through: the journal store consumes
                // those after dispatch.
                Some(other) => injector.arm(other),
                None => {}
            }
        }
        self.inbound.extend(bytes);
        Ok(None)
    }

    fn run_burst(
        &mut self,
        frames: impl IntoIterator<Item = Json>,
        mut reply: impl FnMut(Json) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let mut sent = 0;
        let mut lost = None;
        for frame in frames {
            lost = self.send(&frame)?;
            if lost.is_some() {
                break;
            }
            sent += 1;
        }
        // The service drains the wire in order, answering every whole
        // frame — the ones before a struck frame included.
        for _ in 0..sent {
            let frame = self
                .inbound
                .next_frame()
                .map_err(|e| io_err("decode frame", e))?
                .ok_or_else(|| WireError::new("frame truncated"))?;
            let answer = self.service.answer(&frame);
            let bytes =
                encode_frame(&mut self.scratch, &answer).map_err(|e| io_err("encode reply", e))?;
            self.outbound.extend(bytes);
        }
        if let Some(lost) = lost {
            // Whatever of the struck frame arrived must not decode.
            return match self.inbound.next_frame() {
                Ok(Some(_)) => Err(WireError::new("a torn frame decoded whole — codec bug")),
                _ => Err(WireError::new(lost)),
            };
        }
        for _ in 0..sent {
            let answer = self
                .outbound
                .next_frame()
                .map_err(|e| io_err("decode reply", e))?
                .ok_or_else(|| WireError::new("reply frame truncated"))?;
            reply(answer)?;
        }
        Ok(())
    }
}

impl<S: FrameService> FrameTransport for LocalWire<S> {
    fn burst(
        &mut self,
        frames: impl IntoIterator<Item = Json>,
        reply: impl FnMut(Json) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let result = self.run_burst(frames, reply);
        if result.is_err() {
            // A failed burst leaves a torn wire behind; the next starts
            // clean, like a reconnect.
            self.inbound = FrameDecoder::new();
            self.outbound = FrameDecoder::new();
        }
        result
    }
}

/// One TCP connection speaking length-prefixed frames. The stream, the
/// encode scratch, the burst staging buffer, the reply decoder and the
/// read chunk all live here, so a steady-state round trip allocates no
/// buffers and zeroes none.
pub struct FrameConn {
    stream: TcpStream,
    scratch: FrameScratch,
    burst: Vec<u8>,
    decoder: FrameDecoder,
    chunk: Box<[u8]>,
}

impl FrameConn {
    /// Connects to a [`TcpServer`] (or anything speaking its framing).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<FrameConn> {
        let stream = TcpStream::connect(addr)?;
        // Frames are tiny request/response pairs; Nagle + delayed ACK
        // would stall each round trip.
        stream.set_nodelay(true)?;
        Ok(FrameConn {
            stream,
            scratch: FrameScratch::new(),
            burst: Vec::new(),
            decoder: FrameDecoder::new(),
            chunk: vec![0u8; 16 * 1024].into_boxed_slice(),
        })
    }
}

impl FrameTransport for FrameConn {
    fn burst(
        &mut self,
        frames: impl IntoIterator<Item = Json>,
        mut reply: impl FnMut(Json) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        // The burst leaves as one contiguous byte run in one write_all.
        self.burst.clear();
        let mut sent = 0;
        for frame in frames {
            let bytes =
                encode_frame(&mut self.scratch, &frame).map_err(|e| io_err("send frame", e))?;
            self.burst.extend_from_slice(bytes);
            sent += 1;
        }
        self.stream
            .write_all(&self.burst)
            .map_err(|e| io_err("send frame", e))?;
        // Each socket read pulls as many reply frames as the kernel has
        // buffered. The decoder refuses an oversized length prefix
        // before buffering its payload.
        for _ in 0..sent {
            let answer = loop {
                if let Some(answer) = self
                    .decoder
                    .next_frame()
                    .map_err(|e| io_err("read reply", e))?
                {
                    break answer;
                }
                let n = self
                    .stream
                    .read(&mut self.chunk)
                    .map_err(|e| io_err("read reply", e))?;
                if n == 0 {
                    return Err(WireError::new("peer closed the connection"));
                }
                self.decoder.extend(&self.chunk[..n]);
            };
            reply(answer)?;
        }
        Ok(())
    }
}

/// The activation protocol over any [`FrameTransport`]: requests go out
/// as [`TracedRequest`] frames, replies come back as [`Response`]s.
pub struct FrameClient<T> {
    transport: T,
    trace: Option<TraceContext>,
}

/// The in-process activation client: a [`FrameClient`] over a
/// [`LocalWire`] into a [`Handler`].
pub type LocalClient<H = ActivationServer> = FrameClient<LocalWire<H>>;

/// The TCP activation client: a [`FrameClient`] over a [`FrameConn`].
pub type TcpClient = FrameClient<FrameConn>;

impl<H: Handler> FrameClient<LocalWire<H>> {
    /// A client bound to the given server.
    pub fn new(server: Arc<H>) -> LocalClient<H> {
        FrameClient::over(LocalWire::new(server, None))
    }

    /// A client that consumes transport faults armed on `injector`
    /// (crash simulation only): an armed short read truncates the
    /// request frame in flight, an armed connection drop loses it
    /// entirely — in both cases before the server sees it.
    pub fn with_faults(server: Arc<H>, injector: FaultInjector) -> LocalClient<H> {
        FrameClient::over(LocalWire::new(server, Some(injector)))
    }

    /// The server this client dispatches into.
    pub fn server(&self) -> &Arc<H> {
        self.transport.service()
    }
}

impl FrameClient<FrameConn> {
    /// Connects to a [`TcpServer`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        FrameConn::connect(addr).map(FrameClient::over)
    }
}

impl<T: FrameTransport> FrameClient<T> {
    fn over(transport: T) -> FrameClient<T> {
        FrameClient {
            transport,
            trace: None,
        }
    }

    /// Submits `reqs` as one pipelined burst: every request frame is on
    /// the wire before the first response is read, so a connection pays
    /// one round-trip latency for the whole window. Dispatch order — and
    /// therefore every journal byte and deterministic counter — is
    /// identical to sequential [`Client::call`]s. An armed trace context
    /// rides on the first request.
    ///
    /// # Errors
    ///
    /// Returns the first frame-level failure; responses after it are
    /// lost (the connection should be considered dead).
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        let mut trace = self.trace.take();
        let frames = reqs.iter().map(|req| {
            TracedRequest {
                req: req.clone(),
                trace: trace.take(),
            }
            .to_json()
        });
        let mut out = Vec::with_capacity(reqs.len());
        self.transport.burst(frames, |answer| {
            out.push(Response::from_json(&answer)?);
            Ok(())
        })?;
        Ok(out)
    }
}

impl<T: FrameTransport> Client for FrameClient<T> {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let traced = TracedRequest {
            req: req.clone(),
            trace: self.trace.take(),
        };
        Response::from_json(&self.transport.call(traced.to_json())?)
    }

    fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = Some(ctx);
    }
}

/// Default accept-loop poll sleep in milliseconds (between polls of the
/// nonblocking listener and the shutdown flag, and after a failed
/// accept). Configurable per server via
/// [`crate::server::ServerConfig::accept_poll_ms`] /
/// [`TcpServer::spawn_with_poll`].
pub const DEFAULT_ACCEPT_POLL_MS: u64 = 2;

/// The live connections of one [`TcpServer`], by connection id. A
/// handler removes its own entry when it returns, so the socket closes
/// then; shutdown shuts down whatever is still registered.
type ConnRegistry = Arc<Mutex<HashMap<u64, Arc<TcpStream>>>>;

fn lock_conns(conns: &ConnRegistry) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<TcpStream>>> {
    // Poisoned only if another thread panicked while holding it; the
    // guarded sections only insert, remove or shut down streams, so no
    // peer bytes can make this fire.
    conns.lock().expect("connection registry poisoned")
}

/// A running TCP front end: nonblocking accept loop plus one handler
/// thread per accepted connection, answering through a [`FrameService`].
pub struct TcpServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Every live connection, so shutdown can unblock handlers parked in
    /// a read (see `stop`).
    conns: ConnRegistry,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving with the
    /// default accept poll ([`DEFAULT_ACCEPT_POLL_MS`]).
    pub fn spawn<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
    ) -> io::Result<TcpServer> {
        TcpServer::spawn_inner(addr, server, DEFAULT_ACCEPT_POLL_MS)
    }

    /// Binds `addr` and serves with an explicit accept-loop poll sleep —
    /// how a front end honors
    /// [`crate::server::ServerConfig::accept_poll_ms`].
    pub fn spawn_with_poll<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
        poll_ms: u64,
    ) -> io::Result<TcpServer> {
        TcpServer::spawn_inner(addr, server, poll_ms)
    }

    fn spawn_inner<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
        poll_ms: u64,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let conns: ConnRegistry = Arc::default();
        let conn_registry = Arc::clone(&conns);
        let base = hwm_trace::current_path();
        let accept_poll = Duration::from_millis(poll_ms.max(1));
        let accept_thread = std::thread::spawn(move || {
            let _scope = hwm_trace::thread_scope(&base);
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            let mut next_id = 0u64;
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Frames are tiny request/response pairs; Nagle +
                        // delayed ACK would stall each round trip ~40ms.
                        let _ = stream.set_nodelay(true);
                        let stream = Arc::new(stream);
                        let id = next_id;
                        next_id += 1;
                        lock_conns(&conn_registry).insert(id, Arc::clone(&stream));
                        // Keep only live handlers, so the list stays as
                        // long as the open connections, not the served ones.
                        handlers.retain(|h| !h.is_finished());
                        let server = Arc::clone(&server);
                        let registry = Arc::clone(&conn_registry);
                        let base = hwm_trace::current_path();
                        handlers.push(std::thread::spawn(move || {
                            let _scope = hwm_trace::thread_scope(&base);
                            serve_connection(&stream, server.as_ref());
                            // The last reference goes with `stream`, so
                            // the socket closes as the handler ends.
                            lock_conns(&registry).remove(&id);
                        }));
                    }
                    // Nothing to accept, or a failed accept (out of fds,
                    // an aborted handshake): wait one poll and retry, so a
                    // transient error never ends the server.
                    Err(_) => std::thread::sleep(accept_poll),
                }
            }
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(TcpServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop (which in turn joins
    /// every connection handler).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Handlers block in a read until their peer hangs up; shut the
        // sockets down so those reads return and the joins below cannot
        // hang on an idle connection.
        if let Ok(conns) = self.conns.lock() {
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serves one connection until EOF or I/O error. Every frame that
/// decodes as JSON is answered by the service (a bad message gets an
/// error frame; the connection stays open). Broken frames tear the
/// connection down, and a frame cut short by EOF is never dispatched.
fn serve_connection<S: FrameService>(mut stream: &TcpStream, service: &S) {
    // Per-connection scratch: a decoder that drains request bursts with
    // large reads, an encode scratch, and a response staging buffer.
    // Responses accumulate while the decoder still holds complete frames
    // and leave in one write when the buffer runs dry, so a pipelined
    // window costs one read and one write instead of one syscall pair
    // per request. A serial client sees the exact old pattern: read one
    // frame, write one response.
    let mut scratch = FrameScratch::new();
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut staged: Vec<u8> = Vec::new();
    loop {
        // Pull the next request: straight from the decoder while the
        // burst lasts; once it runs dry, flush staged responses and
        // block on the socket.
        let payload = loop {
            match decoder.next_frame() {
                Ok(Some(p)) => break p,
                Ok(None) => {}
                Err(_) => return,
            }
            if !staged.is_empty() {
                if stream.write_all(&staged).and_then(|()| stream.flush()).is_err() {
                    return;
                }
                staged.clear();
            }
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => decoder.extend(&chunk[..n]),
                Err(_) => return,
            }
        };
        match encode_frame(&mut scratch, &service.answer(&payload)) {
            Ok(frame) => staged.extend_from_slice(frame),
            Err(_) => return,
        }
    }
}
