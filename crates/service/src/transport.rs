//! Transports: how requests reach the [`ActivationServer`].
//!
//! Two transports speak the same framed protocol ([`crate::wire`]):
//!
//! * [`LocalClient`] — in-process. Every request and response still round-
//!   trips through the real frame codec (length prefix, JSON encode,
//!   strict decode), so protocol bugs cannot hide behind direct calls,
//!   but there are no sockets and no scheduler: a fixed request sequence
//!   produces a byte-identical registry journal on every run. This is the
//!   transport the deterministic benchmarks and tests use.
//! * [`TcpServer`] / [`TcpClient`] — real sockets, one handler thread per
//!   connection (handlers serialize on the server mutex; concurrency
//!   covers framing and I/O). Journal ordering across *concurrent* TCP
//!   clients follows mutex acquisition order and is therefore not
//!   deterministic — documented in DESIGN.md. The server serves any
//!   [`FrameService`], so the cluster's replication port is this same
//!   accept loop over a replica.
//!
//! Both transports accept an optional fault layer for the crash
//! simulation. Injected transport faults (short reads, connection drops,
//! delayed accepts) always strike **before dispatch**: the request is
//! lost, the server state is untouched, and the client's retry after
//! reconnect/restart is exact — the property the simulation's oracle
//! comparison relies on. (Storage faults, which strike *after* dispatch
//! but before the mutation commits, live in [`crate::fault::FaultyStore`].)

use crate::fault::{ArmedFault, FaultInjector, FaultKind, FaultPlan};
use crate::server::ActivationServer;
use crate::wire::{
    encode_frame, read_frame, write_frame_with, ErrorCode, FrameDecoder, FrameScratch, Request,
    Response, TracedRequest, WireError,
};
use hwm_jsonio::Json;
use hwm_trace::TraceContext;
use std::io;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A client able to submit requests and receive responses.
pub trait Client {
    /// Submits one request, blocking for the response.
    fn call(&mut self, req: &Request) -> Result<Response, WireError>;

    /// Arms a trace context for the *next* call only: that request is
    /// sent as a [`TracedRequest`] envelope, after which the client
    /// reverts to untraced frames. Default is a no-op so transports
    /// without tracing support keep compiling.
    fn set_trace(&mut self, _ctx: TraceContext) {}
}

/// Anything that can answer a wire request: a single
/// [`ActivationServer`], or a cluster router fronting many of them.
/// Both transports dispatch through this, so the cluster reuses the
/// frame codec, the fault layer and the TCP front end unchanged.
pub trait Handler: Send + Sync {
    /// Handles one decoded request.
    fn handle(&self, req: &Request) -> Response;

    /// Handles one decoded request carrying an optional trace context.
    /// The default drops the context so handlers that predate tracing
    /// keep working; tracing-aware handlers override this.
    fn handle_traced(&self, req: &Request, _trace: Option<&TraceContext>) -> Response {
        self.handle(req)
    }
}

/// Anything a [`TcpServer`] can serve: answers one decoded JSON frame
/// with one JSON frame. Every [`Handler`] is one (the activation
/// protocol); the cluster's replication port implements it over its own
/// frame type, so both ride the same accept loop, pipelined decoder and
/// fault hooks.
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
    fn handle(&self, req: &Request) -> Response {
        ActivationServer::handle(self, req)
    }

    fn handle_traced(&self, req: &Request, trace: Option<&TraceContext>) -> Response {
        ActivationServer::handle_traced(self, req, trace)
    }
}

/// In-process transport: frames each request into a buffer, decodes it
/// back, dispatches, and frames the response the same way. Encode
/// buffers are per-client scratch, reused across calls.
pub struct LocalClient<H: Handler = ActivationServer> {
    server: Arc<H>,
    faults: Option<FaultInjector>,
    trace: Option<TraceContext>,
    scratch: FrameScratch,
    /// Staging buffer for in-flight frames (the "wire" of the in-process
    /// transport), reused across calls.
    wire_buf: Vec<u8>,
}

impl<H: Handler> LocalClient<H> {
    /// A client bound to the given server.
    pub fn new(server: Arc<H>) -> LocalClient<H> {
        LocalClient {
            server,
            faults: None,
            trace: None,
            scratch: FrameScratch::new(),
            wire_buf: Vec::new(),
        }
    }

    /// A client that consumes transport faults armed on `injector`
    /// (crash simulation only): an armed short read truncates the
    /// request frame in flight, an armed connection drop loses it
    /// entirely — in both cases before the server sees it.
    pub fn with_faults(server: Arc<H>, injector: FaultInjector) -> LocalClient<H> {
        LocalClient {
            server,
            faults: Some(injector),
            trace: None,
            scratch: FrameScratch::new(),
            wire_buf: Vec::new(),
        }
    }

    /// The server this client dispatches into.
    pub fn server(&self) -> &Arc<H> {
        &self.server
    }

    /// Submits up to `window` requests as one pipelined burst: every
    /// request is encoded into the in-process wire before the first
    /// response is decoded, exactly the frame interleaving a pipelined
    /// TCP client produces. Dispatch order — and therefore every journal
    /// byte and deterministic counter — is identical to `window`
    /// sequential [`Client::call`]s.
    ///
    /// # Errors
    ///
    /// Returns the first frame-level failure; responses before it are
    /// lost (as they would be on a torn connection).
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        // Phase 1: every request goes onto the wire back-to-back.
        self.wire_buf.clear();
        for req in reqs {
            let traced = TracedRequest {
                req: req.clone(),
                trace: self.trace.take(),
            };
            write_frame_with(&mut self.scratch, &mut self.wire_buf, &traced.to_json())
                .map_err(|e| io_err("encode request", e))?;
        }
        // Phase 2: the server drains the stream in order; responses are
        // framed back onto a response wire.
        let mut rd = &self.wire_buf[..];
        let mut resp_wire = Vec::new();
        for _ in reqs {
            let decoded = read_frame(&mut rd)
                .map_err(|e| io_err("decode request", e))?
                .ok_or_else(|| WireError::new("request frame truncated"))?;
            let traced = TracedRequest::from_json(&decoded)?;
            let resp = self
                .server
                .handle_traced(&traced.req, traced.trace.as_ref());
            write_frame_with(&mut self.scratch, &mut resp_wire, &resp.to_json())
                .map_err(|e| io_err("encode response", e))?;
        }
        // Phase 3: the client decodes the response burst.
        let mut rd = &resp_wire[..];
        let mut out = Vec::with_capacity(reqs.len());
        for _ in reqs {
            let decoded = read_frame(&mut rd)
                .map_err(|e| io_err("decode response", e))?
                .ok_or_else(|| WireError::new("response frame truncated"))?;
            out.push(Response::from_json(&decoded)?);
        }
        Ok(out)
    }
}

fn io_err(context: &str, e: io::Error) -> WireError {
    WireError::new(format!("{context}: {e}"))
}

impl<H: Handler> Client for LocalClient<H> {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        // Encode the request through the real codec — as a traced
        // envelope when a context is armed, as a bare request otherwise,
        // so untraced traffic stays byte-identical to the old protocol.
        let traced = TracedRequest {
            req: req.clone(),
            trace: self.trace.take(),
        };
        self.wire_buf.clear();
        write_frame_with(&mut self.scratch, &mut self.wire_buf, &traced.to_json())
            .map_err(|e| io_err("encode request", e))?;
        // An armed transport fault strikes the request in flight — the
        // server never sees it. Storage faults pass through (the journal
        // store consumes those after dispatch).
        if let Some(injector) = &self.faults {
            match injector.take() {
                Some(ArmedFault::ConnDrop) => {
                    return Err(WireError::new(
                        "injected connection drop: request frame lost in flight",
                    ));
                }
                Some(ArmedFault::ShortRead { salt }) => {
                    // Deliver only a prefix of the frame; the codec must
                    // reject the truncation.
                    let keep = (salt % self.wire_buf.len().max(1) as u64) as usize;
                    self.wire_buf.truncate(keep);
                    let short = read_frame(&mut self.wire_buf.as_slice())
                        .map_err(|e| io_err("decode request", e))?;
                    return match short {
                        None => Err(WireError::new("injected short read: request frame truncated")),
                        Some(_) => Err(WireError::new(
                            "injected short read left a whole frame — codec bug",
                        )),
                    };
                }
                Some(other) => injector.arm(other),
                None => {}
            }
        }
        let decoded = read_frame(&mut self.wire_buf.as_slice())
            .map_err(|e| io_err("decode request", e))?
            .ok_or_else(|| WireError::new("request frame truncated"))?;
        let traced = TracedRequest::from_json(&decoded)?;
        // ...dispatch, then round-trip the response too.
        let resp = self
            .server
            .handle_traced(&traced.req, traced.trace.as_ref());
        self.wire_buf.clear();
        write_frame_with(&mut self.scratch, &mut self.wire_buf, &resp.to_json())
            .map_err(|e| io_err("encode response", e))?;
        let decoded = read_frame(&mut self.wire_buf.as_slice())
            .map_err(|e| io_err("decode response", e))?
            .ok_or_else(|| WireError::new("response frame truncated"))?;
        Response::from_json(&decoded)
    }

    fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = Some(ctx);
    }
}

/// Default accept-loop poll sleep in milliseconds (between polls of the
/// nonblocking listener and the shutdown flag). Configurable per server
/// via [`crate::server::ServerConfig::accept_poll_ms`] /
/// [`TcpServer::spawn_with_poll`]; lowered from the historical fixed
/// 10 ms so connection setup and shutdown respond faster.
pub const DEFAULT_ACCEPT_POLL_MS: u64 = 2;

/// Deterministically scheduled TCP faults (crash simulation): the plan's
/// ticks index accepted connections (delayed accepts) or received frames
/// (short reads / connection drops).
pub struct TcpFaults {
    plan: FaultPlan,
    conns: AtomicU64,
    frames: AtomicU64,
}

impl TcpFaults {
    /// Faults following `plan`.
    pub fn new(plan: FaultPlan) -> Arc<TcpFaults> {
        Arc::new(TcpFaults {
            plan,
            conns: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        })
    }
}

/// A running TCP front end: nonblocking accept loop plus one handler
/// thread per accepted connection, answering through a [`FrameService`].
pub struct TcpServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// One clone per live connection, so shutdown can unblock handlers
    /// parked in `read_frame` (see `stop`).
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving with the
    /// default accept poll ([`DEFAULT_ACCEPT_POLL_MS`]).
    pub fn spawn<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
    ) -> io::Result<TcpServer> {
        TcpServer::spawn_inner(addr, server, None, DEFAULT_ACCEPT_POLL_MS)
    }

    /// Binds `addr` and serves with an explicit accept-loop poll sleep —
    /// how a front end honors
    /// [`crate::server::ServerConfig::accept_poll_ms`].
    pub fn spawn_with_poll<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
        poll_ms: u64,
    ) -> io::Result<TcpServer> {
        TcpServer::spawn_inner(addr, server, None, poll_ms)
    }

    /// Binds `addr` and serves with a deterministic fault schedule
    /// (crash simulation only).
    pub fn spawn_with_faults<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
        faults: Arc<TcpFaults>,
    ) -> io::Result<TcpServer> {
        TcpServer::spawn_inner(addr, server, Some(faults), DEFAULT_ACCEPT_POLL_MS)
    }

    fn spawn_inner<S: FrameService + 'static>(
        addr: impl ToSocketAddrs,
        server: Arc<S>,
        faults: Option<Arc<TcpFaults>>,
        poll_ms: u64,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let conns = Arc::new(Mutex::new(Vec::new()));
        let conn_registry = Arc::clone(&conns);
        let base = hwm_trace::current_path();
        let accept_poll = Duration::from_millis(poll_ms.max(1));
        let accept_thread = std::thread::spawn(move || {
            let _scope = hwm_trace::thread_scope(&base);
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Some(f) = &faults {
                            let conn = f.conns.fetch_add(1, Ordering::SeqCst);
                            if f.plan.kind == FaultKind::DelayedAccept && f.plan.is_crash(conn) {
                                std::thread::sleep(Duration::from_millis(
                                    f.plan.accept_delay_ms(conn),
                                ));
                            }
                        }
                        // Frames are tiny request/response pairs; Nagle +
                        // delayed ACK would stall each round trip ~40ms.
                        let _ = stream.set_nodelay(true);
                        if let Ok(clone) = stream.try_clone() {
                            conn_registry
                                .lock()
                                .expect("connection registry poisoned")
                                .push(clone);
                        }
                        let server = Arc::clone(&server);
                        let faults = faults.clone();
                        let base = hwm_trace::current_path();
                        handlers.push(std::thread::spawn(move || {
                            let _scope = hwm_trace::thread_scope(&base);
                            serve_connection(stream, server.as_ref(), faults.as_deref());
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(accept_poll);
                    }
                    Err(_) => break,
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
        // Handlers block in read_frame until their peer hangs up; shut
        // the sockets down so those reads return and the joins below
        // cannot hang on an idle connection.
        if let Ok(conns) = self.conns.lock() {
            for stream in conns.iter() {
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
/// connection down. An injected fault loses the incoming request —
/// short-read tears it mid-frame, conn-drop discards it whole — and
/// closes the connection before anything is dispatched.
fn serve_connection<S: FrameService>(
    mut stream: TcpStream,
    service: &S,
    faults: Option<&TcpFaults>,
) {
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
        if let Some(f) = faults {
            let frame = f.frames.fetch_add(1, Ordering::SeqCst);
            if f.plan.is_crash(frame) {
                match f.plan.kind {
                    FaultKind::ShortRead => {
                        // Read part of the length prefix, then hang up:
                        // the frame died mid-wire. (Fault plans drive
                        // serial clients, so the decoder is empty here.)
                        let mut partial = [0u8; 2];
                        let _ = stream.read(&mut partial);
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                    FaultKind::ConnDrop => {
                        // Receive the whole frame, then drop it on the
                        // floor and hang up — never dispatched.
                        let _ = read_frame(&mut stream);
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                    // Storage and accept faults are handled elsewhere.
                    _ => {}
                }
            }
        }
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

/// A blocking TCP client speaking the framed protocol, with a reusable
/// per-connection encode scratch.
pub struct TcpClient {
    stream: TcpStream,
    trace: Option<TraceContext>,
    scratch: FrameScratch,
    burst: Vec<u8>,
    decoder: FrameDecoder,
}

impl TcpClient {
    /// Connects to a [`TcpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream,
            trace: None,
            scratch: FrameScratch::new(),
            burst: Vec::new(),
            decoder: FrameDecoder::new(),
        })
    }

    /// Submits `reqs` as one pipelined burst: every request frame is
    /// written before the first response is read, so the connection pays
    /// one round-trip latency for the whole window instead of one per
    /// request. The server dispatches in arrival order, so journal bytes
    /// and deterministic counters are identical to sequential calls.
    ///
    /// # Errors
    ///
    /// Returns the first frame-level failure; responses after it are
    /// lost (the connection should be considered dead).
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, WireError> {
        // Write the burst as one contiguous byte run: frames are
        // appended to the reusable staging buffer and leave in a single
        // write_all, minimizing syscalls and packets.
        self.burst.clear();
        for req in reqs {
            let traced = TracedRequest {
                req: req.clone(),
                trace: self.trace.take(),
            };
            write_frame_with(&mut self.scratch, &mut self.burst, &traced.to_json())
                .map_err(|e| io_err("send request", e))?;
        }
        self.stream
            .write_all(&self.burst)
            .map_err(|e| io_err("send request", e))?;
        self.stream.flush().map_err(|e| io_err("send request", e))?;
        // Drain responses through the decoder: each socket read pulls as
        // many response frames as the kernel has buffered, instead of
        // two read syscalls per frame.
        let mut out = Vec::with_capacity(reqs.len());
        let mut chunk = [0u8; 16 * 1024];
        while out.len() < reqs.len() {
            if let Some(payload) = self
                .decoder
                .next_frame()
                .map_err(|e| io_err("read response", e))?
            {
                out.push(Response::from_json(&payload)?);
                continue;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| io_err("read response", e))?;
            if n == 0 {
                return Err(WireError::new("server closed the connection"));
            }
            self.decoder.extend(&chunk[..n]);
        }
        Ok(out)
    }
}

impl Client for TcpClient {
    fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        let traced = TracedRequest {
            req: req.clone(),
            trace: self.trace.take(),
        };
        write_frame_with(&mut self.scratch, &mut self.stream, &traced.to_json())
            .map_err(|e| io_err("send request", e))?;
        match read_frame(&mut self.stream).map_err(|e| io_err("read response", e))? {
            Some(payload) => Response::from_json(&payload),
            None => Err(WireError::new("server closed the connection")),
        }
    }

    fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = Some(ctx);
    }
}
