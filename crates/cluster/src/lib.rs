//! Sharded activation cluster: consistent-hash routing, journal-shipping
//! replication, and deterministic failover.
//!
//! The paper's designer is one trusted party; the ROADMAP's fleet is
//! millions of ICs. This crate scales the single [`hwm_service`]
//! activation server out without changing the wire protocol a client
//! speaks:
//!
//! * [`ring`] — a deterministic FNV-1a consistent-hash ring with
//!   configurable virtual nodes. Readouts (and with them clone
//!   detection) colocate on one shard; growing the ring remaps only the
//!   keys the new shard takes over.
//! * [`frame`] — the replication protocol: length-prefixed JSON frames
//!   (the service's codec, reused byte-for-byte) carrying forwarded
//!   requests, shipped journal entries + audit events, snapshot
//!   catch-up, checkpoints and promotion. Parsing is strict, and a
//!   frame addressed to the wrong shard is refused outright.
//! * [`node`] — one replica: a [`hwm_service::ActivationServer`] in a
//!   leader or follower role, answering replication frames.
//! * [`link`] — how the router reaches a replica: in-process (through
//!   the real codec, deterministic) or over TCP ([`link::RepHost`]
//!   hosts a node's replication port).
//! * [`router`] — the cluster front end. It owns the *global* logical
//!   clock, routes each request to its shard at an explicit tick, ships
//!   the resulting journal entries to the shard's followers
//!   synchronously (acks tracked as a replicated-seq watermark), and on
//!   a plan-scheduled leader crash promotes the most-caught-up follower
//!   and re-dispatches. The recovered cluster matches a fault-free
//!   single-node oracle exactly — responses, registry state, audit
//!   bytes, summed det-class counters — per DESIGN.md §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod link;
pub mod node;
pub mod ring;
pub mod router;

pub use frame::RepFrame;
pub use link::{FrameLink, LocalLink, NodeLink, RepHost, TcpLink};
pub use node::ShardNode;
pub use ring::HashRing;
pub use router::{ClusterRouter, FailoverEvent, ShardGroup};

use std::fmt;

/// A cluster-level failure: a broken replication frame, a dead link, or
/// a replica that refused an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError {
    /// Human-readable description.
    pub message: String,
}

impl ClusterError {
    /// Builds an error from any message.
    pub fn new(message: impl Into<String>) -> ClusterError {
        ClusterError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster error: {}", self.message)
    }
}

impl std::error::Error for ClusterError {}

impl From<hwm_jsonio::FieldError> for ClusterError {
    fn from(e: hwm_jsonio::FieldError) -> ClusterError {
        ClusterError::new(e.message)
    }
}

impl From<hwm_service::WireError> for ClusterError {
    fn from(e: hwm_service::WireError) -> ClusterError {
        ClusterError::new(e.message)
    }
}
