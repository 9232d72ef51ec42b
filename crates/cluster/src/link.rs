//! Links: how the router reaches a replica.
//!
//! Mirrors the service's transport split. [`LocalLink`] is in-process
//! but still round-trips every frame through the real codec, so the
//! deterministic simulations exercise the same bytes TCP would carry;
//! [`TcpLink`] speaks to a [`RepHost`]: the activation front end's own
//! [`TcpServer`] serving a [`ShardNode`], so replication shares its
//! accept loop, pipelined frame decoder, accept poll and fault hooks.

use crate::frame::RepFrame;
use crate::node::ShardNode;
use crate::ClusterError;
use hwm_jsonio::Json;
use hwm_service::wire::{write_frame_with, FrameScratch};
use hwm_service::{read_frame, write_frame, FrameService, TcpServer};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// A channel to one replica. `Sync` is part of the contract: the
/// router's windowed fan-out calls followers from scoped threads, so a
/// link must tolerate being shared (both built-in links serialize
/// internally — [`LocalLink`] via the node's own lock, [`TcpLink`] via
/// its stream mutex).
pub trait NodeLink: Send + Sync {
    /// Sends one frame, blocking for the reply.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] for codec or transport failures (a
    /// [`RepFrame::Error`] reply is *not* a link error — the caller
    /// decides what a refusal means).
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError>;
}

fn io_err(context: &str, e: io::Error) -> ClusterError {
    ClusterError::new(format!("{context}: {e}"))
}

/// In-process link: encodes the frame through the real codec, decodes
/// it back, dispatches, and round-trips the reply the same way.
pub struct LocalLink {
    node: Arc<ShardNode>,
}

impl LocalLink {
    /// A link bound to the given replica.
    pub fn new(node: Arc<ShardNode>) -> LocalLink {
        LocalLink { node }
    }
}

impl NodeLink for LocalLink {
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError> {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame.to_json()).map_err(|e| io_err("encode frame", e))?;
        let decoded = read_frame(&mut buf.as_slice())
            .map_err(|e| io_err("decode frame", e))?
            .ok_or_else(|| ClusterError::new("frame truncated"))?;
        let reply = self.node.handle_rep(&RepFrame::from_json(&decoded)?);
        let mut buf = Vec::new();
        write_frame(&mut buf, &reply.to_json()).map_err(|e| io_err("encode reply", e))?;
        let decoded = read_frame(&mut buf.as_slice())
            .map_err(|e| io_err("decode reply", e))?
            .ok_or_else(|| ClusterError::new("reply frame truncated"))?;
        RepFrame::from_json(&decoded)
    }
}

/// TCP link to a [`RepHost`]. One connection, requests serialized on an
/// internal mutex (the router already serializes dispatch, so this is
/// belt-and-braces, not a bottleneck). The encode scratch sits under the
/// same mutex, so sending a frame allocates no buffers.
pub struct TcpLink {
    conn: Mutex<(TcpStream, FrameScratch)>,
}

impl TcpLink {
    /// Connects to a replica's replication port.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpLink> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpLink {
            conn: Mutex::new((stream, FrameScratch::new())),
        })
    }
}

impl NodeLink for TcpLink {
    fn call(&self, frame: &RepFrame) -> Result<RepFrame, ClusterError> {
        let mut conn = self.conn.lock().expect("link stream poisoned");
        let (stream, scratch) = &mut *conn;
        write_frame_with(scratch, stream, &frame.to_json()).map_err(|e| io_err("send frame", e))?;
        match read_frame(stream).map_err(|e| io_err("read reply", e))? {
            Some(payload) => RepFrame::from_json(&payload),
            None => Err(ClusterError::new("replica closed the connection")),
        }
    }
}

/// A replica's replication port: the service's [`TcpServer`] serving a
/// [`ShardNode`] through the [`FrameService`] impl below.
pub type RepHost = TcpServer;

/// The replication protocol as a frame service: a frame that decodes as
/// JSON but not as a [`RepFrame`] gets a [`RepFrame::Error`] back, and
/// the connection stays open.
impl FrameService for ShardNode {
    fn answer(&self, frame: &Json) -> Json {
        let reply = match RepFrame::from_json(frame) {
            Ok(frame) => self.handle_rep(&frame),
            Err(e) => RepFrame::Error { message: e.message },
        };
        reply.to_json()
    }
}
