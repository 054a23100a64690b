//! # nebula-serve
//!
//! The serving plane: a real coordinator/worker deployment of the
//! dispatch [`Transport`](nebula_core::Transport) over `nebula-wire`
//! frames on TCP and Unix-domain sockets.
//!
//! The simulator's strategies fan a round's training jobs out through a
//! transport; in-process that is [`nebula_core::Loopback`]. This crate
//! provides the remote half:
//!
//! * [`round`] — the served round as one pure state machine: a `Slot`
//!   per job; events in (start, send, result, worker lost, hedge tick,
//!   deadline), sends and counter bumps out. It decides placement (one
//!   longest-first queue, each worker up to its credit), reassignment
//!   under the shared retry budget, hedging, and which result may land
//!   (the `JobTag` guard); it touches no socket, lock, clock or thread.
//! * [`coordinator`] — the machine's drivers: listeners, the worker
//!   registry with the hello/ack handshake, liveness pings, and
//!   [`coordinator::SocketTransport`], a deadline-driven round barrier
//!   that degrades what a dying fleet leaves into the round's existing
//!   fault fates (never hangs).
//! * [`worker`] — a worker process: connect, handshake, then a small
//!   thread pool executing jobs bit-identically to the loopback path.
//! * [`proto`] — job/result/shutdown messages as wire control frames
//!   (JSON header record + binary blob records).
//! * [`ops`] — a hand-rolled HTTP/1.1 endpoint serving `/healthz`,
//!   `/metrics` (the telemetry registry as JSON) and `/round`.
//!
//! Everything is `std::net`/`std::os::unix::net` plus blocking threads:
//! no async runtime. Workers answer every job with a `Raw` result
//! frame; whatever codec a round runs, the coordinator keeps the only
//! cross-frame state (the upload's error-feedback carry), which is what
//! makes a remote worker's output byte-identical to in-process execution.

pub mod coordinator;
pub mod netio;
pub mod ops;
pub mod proto;
pub mod round;
pub mod worker;

use std::fmt;

use nebula_modular::ModularConfig;
use serde::{Deserialize, Serialize};

pub use coordinator::{Coordinator, ServeConfig, SocketTransport};
pub use netio::{ChaosConn, Conn, Endpoint, NetFaultPlan};
pub use ops::OpsServer;
pub use worker::{run_worker, WorkerConfig, WorkerReport};

/// Serving-plane failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Socket-level failure (connect, read, write, bind).
    Io(String),
    /// A malformed or unverifiable serving-plane message.
    Proto(String),
    /// The handshake did not complete (closed before the ack, an
    /// undecodable ack). Possibly transient — a coordinator dying
    /// mid-restart looks the same as an auth mismatch from here — so
    /// the worker rejoin loop retries these a bounded number of times
    /// before giving up.
    Handshake(String),
    /// The deployment permanently refused this worker — an explicit
    /// handshake rejection (an unsupported proto revision) or a
    /// run config this worker cannot satisfy. Never retried: the same
    /// hello would be refused again, forever.
    Rejected(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(why) => write!(f, "io: {why}"),
            ServeError::Proto(why) => write!(f, "protocol: {why}"),
            ServeError::Handshake(why) => write!(f, "handshake: {why}"),
            ServeError::Rejected(why) => write!(f, "rejected: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

/// The run configuration a coordinator ships to every admitted worker
/// inside [`nebula_wire::HelloAck::config_json`]. The auth key is *not*
/// part of it — a worker proves it already holds the shared secret at
/// the handshake; secrets never ride the wire.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkerRunConfig {
    /// Architecture of the modular model, when the run dispatches
    /// Nebula jobs. `None` leaves the worker dense-only.
    pub modular: Option<ModularConfig>,
    /// Unread (no codec sparsifies); kept while `nebula_benchmark` names it.
    pub delta_threshold: f32,
    /// Whether the *inner* payload/update frames are device-MAC'd (the
    /// strategy's `WireConfig::auth_key` is set coordinator-side). The
    /// worker then applies its own locally-held key — only the boolean
    /// rides the wire, never the key.
    pub payload_auth: bool,
}
