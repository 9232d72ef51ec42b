//! Links: how the router reaches a replica.
//!
//! A link is [`hwm_service`]'s frame client carrying [`RepFrame`]s: one
//! [`FrameLink`] maps replication frames over either of the service's
//! two frame transports. [`LocalLink`] runs over a
//! [`LocalWire`](hwm_service::LocalWire), in-process but still through
//! the real codec, so the deterministic simulations exercise the same
//! bytes TCP would carry. [`TcpLink`] runs over a
//! [`FrameConn`](hwm_service::FrameConn) to a [`RepHost`]: the
//! activation front end's own [`TcpServer`] serving a [`ShardNode`], so
//! replication shares its accept loop, pipelined frame decoder and
//! accept poll.
//!
//! The router owns its links and calls them under its own lock, one
//! round trip at a time, so a link needs no lock of its own.

use crate::frame::RepFrame;
use crate::node::ShardNode;
use crate::ClusterError;
use hwm_jsonio::Json;
use hwm_service::{FrameConn, FrameService, FrameTransport, LocalWire, TcpServer};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::Arc;

/// A channel to one replica, owned by the router. `call` takes
/// `&mut self`: the router calls each link from under its own lock, so
/// a link is never shared and needs only to be `Send`.
pub trait NodeLink: Send {
    /// Sends one frame, blocking for the reply.
    ///
    /// # Errors
    ///
    /// [`ClusterError`] for codec or transport failures (a
    /// [`RepFrame::Error`] reply is *not* a link error — the caller
    /// decides what a refusal means).
    fn call(&mut self, frame: &RepFrame) -> Result<RepFrame, ClusterError>;
}

/// The replication protocol over a frame transport, one round trip at a
/// time. The link owns the transport and its buffers, so a round trip
/// allocates no buffers.
pub struct FrameLink<T> {
    conn: T,
}

/// In-process link: a [`FrameLink`] over a [`LocalWire`] into the
/// replica.
pub type LocalLink = FrameLink<LocalWire<ShardNode>>;

/// TCP link to a [`RepHost`]: a [`FrameLink`] over one [`FrameConn`].
pub type TcpLink = FrameLink<FrameConn>;

impl FrameLink<LocalWire<ShardNode>> {
    /// A link bound to the given replica.
    pub fn new(node: Arc<ShardNode>) -> LocalLink {
        FrameLink {
            conn: LocalWire::new(node, None),
        }
    }
}

impl FrameLink<FrameConn> {
    /// Connects to a replica's replication port.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpLink> {
        Ok(FrameLink {
            conn: FrameConn::connect(addr)?,
        })
    }
}

impl<T: FrameTransport + Send> NodeLink for FrameLink<T> {
    fn call(&mut self, frame: &RepFrame) -> Result<RepFrame, ClusterError> {
        RepFrame::from_json(&self.conn.call(frame.to_json())?)
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
