//! The IC-activation service: the paper's metering protocol as a server.
//!
//! The offline crates reproduce the *mechanics* of hardware metering —
//! BFSM locking, key computation, attacks. This crate reproduces its
//! *operation*: the designer (Alice) runs an activation service, fabs and
//! test facilities connect to it, and every interaction of Figure 2
//! becomes a request:
//!
//! * `register` — the foundry reports a fabricated IC's power-up readout
//!   (passive metering: duplicate readouts expose cloned dies);
//! * `unlock` — a readout comes back and the designer answers with the
//!   unlock key (active metering: one key per reported die, royalties
//!   counted);
//! * `remote_disable` — the designer revokes a die with the §8 kill
//!   sequence;
//! * `status` — registry counts and per-IC state.
//!
//! Layering:
//!
//! * [`wire`] — message types, a strict hand-rolled JSON codec (unknown
//!   fields rejected), and 4-byte length-prefixed framing;
//! * [`registry`] — the persistent IC registry: a write-ahead JSONL
//!   journal replayed on startup, with duplicate-readout detection,
//!   atomic snapshot + compaction, and torn-tail crash recovery;
//! * [`storage`] / [`snapshot`] — the journal store shim (with the
//!   [`storage::FlushPolicy`] durability knob) and the schema-v1
//!   snapshot format;
//! * [`fault`] — seeded, tick-driven fault injection (torn writes,
//!   disk-full, short reads, dropped connections, delayed accepts) for
//!   the crash simulation;
//! * [`throttle`] — per-client token bucket plus exponential lockout on
//!   wrong readouts, driven by a logical clock (one tick per request) so
//!   admission decisions are deterministic;
//! * [`server`] — the handler core tying designer + registry + limiter
//!   together behind one mutex;
//! * [`transport`] — one frame round trip per transport (in-process,
//!   deterministic but still through the real codec; and TCP), the typed
//!   clients over them, and the TCP front end (thread per connection).
//!
//! The serving benchmark lives in `hwm-bench` (`serve_bench`); the online
//! brute-force analysis lives in `hwm-attacks` (`online`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod registry;
pub mod server;
pub mod snapshot;
pub mod storage;
pub mod throttle;
pub mod transport;
pub mod wire;

pub use fault::{ArmedFault, FaultInjector, FaultKind, FaultPlan};
pub use registry::{
    CloneEvidence, IcRecord, IcState, RecoverError, RecoverOptions, Registry, RegistryCounts,
    RegistryError, TornTail,
};
pub use server::{ActivationServer, ServerConfig, ServerRole};
pub use snapshot::{snapshot_path, RegistrySnapshot};
pub use storage::FlushPolicy;
pub use throttle::{Decision, RateLimiter, ThrottleConfig};
pub use transport::{
    Client, FrameClient, FrameConn, FrameService, FrameTransport, Handler, LocalClient, LocalWire,
    TcpClient, TcpFaults, TcpServer,
};
pub use wire::{
    read_frame, write_frame, ErrorCode, Request, Response, StatusReport, TracedRequest, WireError,
};
