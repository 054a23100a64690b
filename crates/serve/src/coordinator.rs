//! The cloud coordinator: listeners, the handshake, the worker registry,
//! liveness pings, and the socket transport with its deadline-driven
//! round barrier. What a round *decides* is not here: every served round
//! is one [`crate::round::Machine`], and the threads in this file are its
//! drivers.
//!
//! ## Driving the machine
//!
//! Three kinds of thread feed the machine events: the thread inside
//! [`SocketTransport::round_trip`] (`start`, `on_tick`, `on_deadline`),
//! each connection's reader thread (`on_result`, and `on_worker_lost` at
//! EOF), and the liveness monitor (`on_worker_lost` for a silent worker).
//! A driver snapshots the live workers with their credit, locks the
//! machine, feeds **one event**, bumps the counters the event returned,
//! unlocks, and frames the sends it returned (`Shared::feed`,
//! `Shared::perform`). A frame goes to its connection's writer thread, the
//! only thread that writes to that socket, so no driver ever blocks on a
//! worker that is slow to read. A send to a worker that is gone loses it,
//! which is one more event; its sends join the same queue, so nothing
//! recurses. The registry lock and the machine lock are never held
//! together.
//!
//! ## Placement
//!
//! A worker's *credit* is the executor count its hello announced plus one:
//! every executor busy and one job frame queued behind them. `round_trip`
//! opens the round, which queues the jobs longest first and sends each
//! live worker its credit's worth; from then on the reader thread that
//! delivers a result sends that worker its next job. A worker that
//! finishes early takes more of the round, and no worker holds a backlog
//! another could be running.
//!
//! ## Round barrier and failure semantics
//!
//! After the first writes, `round_trip` blocks on a condvar until every
//! slot is resolved or the wall-clock deadline passes. A worker that dies
//! mid-round is dropped from the registry and its jobs are reassigned
//! under the retry budget ([`ServeConfig::max_retries`]), ahead of the
//! jobs still queued; a job out of budget or out of workers
//! resolves [`TransportError::Closed`], one still open at the deadline
//! [`TransportError::Timeout`]. The strategy above maps every error onto
//! its `link_dropped` fate, so a dying or straggling worker degrades the
//! round exactly like a simulated lossy cohort and can never hang the
//! run. The transition table is in [`crate::round`] and DESIGN §15.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use nebula_core::{DispatchJob, JobResult, Transport, TransportError};
use nebula_telemetry::Telemetry;
use nebula_wire::hello::{decode_hello, encode_hello_ack, read_hello, HelloAck, HELLO_PROTO};
use nebula_wire::stream::{read_frame, write_frame};
use nebula_wire::FrameKey;

use crate::netio::Conn;
use crate::proto::{self, JobTag, Message};
use crate::round::{self, Machine, Outcome, Step};
use crate::{ServeError, WorkerRunConfig};

/// Coordinator deployment knobs.
pub struct ServeConfig {
    /// TCP listen address (`host:port`), if any.
    pub tcp: Option<String>,
    /// Unix-domain socket path, if any (an existing file is replaced).
    pub uds: Option<PathBuf>,
    /// Shared master key; when set the handshake and all job traffic
    /// are MAC'd and unauthenticated workers are rejected.
    pub auth_key: Option<[u8; 16]>,
    /// What admitted workers are told to run.
    pub worker_config: WorkerRunConfig,
    /// Round barrier wall-clock deadline.
    pub deadline_ms: u64,
    /// Reassignment budget for jobs on dying workers: re-sends before a
    /// job resolves [`TransportError::Closed`]. 2 by default, the
    /// simulator's default `RoundPolicy::max_retries`.
    pub max_retries: u32,
    /// Evict a worker that has been silent (no result, no pong) for this
    /// long. `0` disables liveness: a half-open connection then costs the
    /// full `deadline_ms`, as it did before liveness existed. When on,
    /// the coordinator pings every worker at a quarter of this interval;
    /// workers answer from their reader thread, so a busy-but-live
    /// worker always answers promptly while a frozen one stays silent.
    pub liveness_timeout_ms: u64,
    /// Speculatively re-dispatch a job still unresolved after this long
    /// to a second live worker (a *hedge*, at a bumped attempt). `0`
    /// disables hedging. Whichever copy answers first resolves the slot;
    /// the loser is counted, never aggregated. Hedges do not consume the
    /// retry budget — they are a latency bet, not a failure response.
    pub hedge_after_ms: u64,
    pub telemetry: Telemetry,
}

impl ServeConfig {
    /// A config with no listeners yet: set `tcp` and/or `uds` before
    /// [`Coordinator::bind`].
    pub fn new(worker_config: WorkerRunConfig) -> Self {
        ServeConfig {
            tcp: None,
            uds: None,
            auth_key: None,
            worker_config,
            deadline_ms: 60_000,
            max_retries: 2,
            liveness_timeout_ms: 0,
            hedge_after_ms: 0,
            telemetry: Telemetry::off(),
        }
    }
}

/// One admitted worker connection.
struct WorkerHandle {
    name: String,
    /// Unresolved copies the round machine may give this worker at once:
    /// its hello's executor count plus one, at least 1.
    credit: u32,
    /// Frames for the connection's writer thread ([`writer_loop`]).
    outbox: mpsc::Sender<Vec<u8>>,
    /// Severing a connection wakes its reader thread, and a writer thread
    /// blocked mid-write on a half-open socket's full buffer — exactly what
    /// eviction needs to unblock.
    closer: Conn,
    /// Milliseconds (on the coordinator's clock, [`Shared::now_ms`]) of
    /// the last inbound frame from this worker. Shared with the reader
    /// thread, which stamps it without touching the registry lock.
    last_seen: Arc<AtomicU64>,
}

impl WorkerHandle {
    /// A handle on `conn` with its writer thread started.
    fn new(
        name: String,
        credit: u32,
        conn: &Conn,
        last_seen: Arc<AtomicU64>,
    ) -> std::io::Result<WorkerHandle> {
        let (outbox, frames) = mpsc::channel();
        let writer = conn.try_clone()?;
        thread::spawn(move || writer_loop(writer, frames));
        Ok(WorkerHandle { name, credit, outbox, closer: conn.try_clone()?, last_seen })
    }
}

/// A connection's writer thread, the only thread that writes to its
/// socket: it writes the queued frames in order until the worker leaves
/// the registry. So no other thread ever waits on a worker that is not
/// reading — least of all the reader thread that refills a worker, which
/// must go on reading the results the worker is writing. A failed write
/// severs the link; the reader thread then drops the worker.
fn writer_loop(mut conn: Conn, frames: mpsc::Receiver<Vec<u8>>) {
    for frame in frames {
        if write_frame(&mut conn, &frame).is_err() {
            conn.shutdown();
            return;
        }
    }
}

struct Shared {
    key: Option<FrameKey>,
    config_json: String,
    deadline_ms: u64,
    telemetry: Telemetry,
    workers: Mutex<BTreeMap<u64, WorkerHandle>>,
    /// The round machine (it holds the retry budget, the hedge trigger and
    /// the barrier epoch). Every access is one event; see the module docs.
    round: Mutex<Machine>,
    round_done: Condvar,
    next_worker_id: AtomicU64,
    rounds_completed: AtomicU64,
    /// Zero point of [`Shared::now_ms`] (liveness stamps, `/healthz` age).
    started_at: Instant,
    /// `now_ms()` when the last round barrier resolved; `u64::MAX` =
    /// no round has completed yet.
    last_round_ms: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    /// Milliseconds since the coordinator started: the clock liveness
    /// stamps, `/healthz` ages and the machine's `now_ms` are expressed in.
    fn now_ms(&self) -> u64 {
        self.started_at.elapsed().as_millis() as u64
    }

    /// Live workers with their credit, in id order.
    fn live(&self) -> Vec<(u64, u32)> {
        self.workers.lock().unwrap().iter().map(|(&id, w)| (id, w.credit)).collect()
    }

    /// Queues one encoded frame for a worker's writer thread; false when
    /// the worker is gone or its link failed.
    fn write_to(&self, worker: u64, frame: Vec<u8>) -> bool {
        self.workers.lock().unwrap().get(&worker).is_some_and(|w| w.outbox.send(frame).is_ok())
    }

    /// Feeds the machine one event — given the live workers — bumps
    /// the counters it returns, wakes the barrier when it resolved the
    /// last slot, and hands back the sends it asks for. The counters are
    /// bumped before the lock is released, so whoever sees a slot resolved
    /// (the barrier, then `round_trip`'s caller) also sees it counted.
    fn feed(&self, event: impl FnOnce(&mut Machine, &[(u64, u32)]) -> Step) -> Vec<round::Send> {
        let live = self.live();
        let mut machine = self.round.lock().unwrap();
        let step = event(&mut machine, &live);
        for name in step.counters {
            self.telemetry.counter_add(name, 1);
        }
        if machine.outstanding() == 0 {
            self.round_done.notify_all();
        }
        step.sends
    }

    /// Performs `sends` in order. A send that causes an event — a send to
    /// a worker that is gone loses it, a job that will not frame resolves —
    /// adds that event's sends to the queue.
    fn perform(&self, sends: Vec<round::Send>) {
        let mut queue = VecDeque::from(sends);
        while let Some(send) = queue.pop_front() {
            queue.extend(self.write_job(&send));
        }
    }

    /// Asks the machine whether `send` is still wanted, frames the job
    /// under the machine lock and queues it for the worker's writer
    /// outside it. Returns the sends of the event a failure feeds: the lost
    /// worker's when it is gone, the refill when the job would not frame.
    fn write_job(&self, send: &round::Send) -> Vec<round::Send> {
        let mut buf = Vec::new();
        let framed = {
            let mut machine = self.round.lock().unwrap();
            let Some(job) = machine.on_send(send, self.now_ms()) else { return Vec::new() };
            proto::encode_job(&mut buf, job, send.tag, self.key.as_ref())
        };
        if let Err(e) = framed {
            let failed = Err(TransportError::Wire(e.to_string()));
            return self.feed(|machine, live| machine.on_result(send.tag, failed, live));
        }
        if !self.write_to(send.worker, buf) {
            return self.lose_worker(send.worker);
        }
        self.telemetry.counter_add("serve.jobs_sent", 1);
        Vec::new()
    }

    /// A result frame arrived from a worker; the credit it frees is
    /// refilled at once. A worker-side rejection is deterministic —
    /// re-running it elsewhere returns the same refusal, so it resolves
    /// the slot like any other outcome, no retry.
    fn deliver(&self, tag: JobTag, outcome: Result<JobResult, String>) {
        let outcome = outcome.map_err(TransportError::Rejected);
        self.perform(self.feed(|machine, live| machine.on_result(tag, outcome, live)));
    }

    /// Drops `dead` from the registry, severs its socket (so both the
    /// blocked reader thread and the remote process observe the drop) and
    /// tells the machine, which re-homes the worker's unresolved jobs.
    fn lose_worker(&self, dead: u64) -> Vec<round::Send> {
        let handle = self.workers.lock().unwrap().remove(&dead);
        if let Some(w) = handle {
            self.telemetry.counter_add("serve.workers_lost", 1);
            w.closer.shutdown();
        }
        self.feed(|machine, live| machine.on_worker_lost(dead, live))
    }

    /// [`Shared::lose_worker`], sends performed. Safe to call repeatedly
    /// and from any thread.
    fn drop_worker(&self, dead: u64) {
        self.perform(self.lose_worker(dead));
    }
}

/// The liveness loop: every quarter-timeout, ping every worker and
/// evict any that has been silent past the timeout. Workers answer
/// pings from their reader thread, so silence means a frozen process or
/// a half-open connection — exactly what the round barrier cannot see
/// on its own (a dead-but-ACKing socket never errors a write).
fn liveness_monitor(shared: Arc<Shared>, timeout: u64) {
    let interval = (timeout / 4).clamp(10, 1_000);
    let mut buf = Vec::new();
    let mut nonce = 0u64;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Sleep in short steps so shutdown is observed promptly.
        let mut slept = 0;
        while slept < interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = (interval - slept).min(25);
            thread::sleep(Duration::from_millis(step));
            slept += step;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        nonce += 1;
        if proto::encode_ping(&mut buf, nonce, shared.key.as_ref()).is_err() {
            continue;
        }
        let snapshot: Vec<(u64, Arc<AtomicU64>)> = {
            let map = shared.workers.lock().unwrap();
            map.iter().map(|(id, w)| (*id, Arc::clone(&w.last_seen))).collect()
        };
        let now = shared.now_ms();
        for (id, last_seen) in snapshot {
            if now.saturating_sub(last_seen.load(Ordering::SeqCst)) > timeout {
                // Severing the socket wakes the worker's blocked reader
                // into the same drop path.
                shared.telemetry.counter_add("serve.workers_evicted", 1);
                shared.drop_worker(id);
            } else if shared.write_to(id, buf.clone()) {
                shared.telemetry.counter_add("serve.pings_sent", 1);
            } else {
                shared.drop_worker(id);
            }
        }
    }
}

/// A coordinator: cheaply cloneable handle over the shared serving
/// state (listeners, registry, round barrier).
#[derive(Clone)]
pub struct Coordinator {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl Coordinator {
    /// Binds the configured listeners and starts accepting workers.
    pub fn bind(cfg: ServeConfig) -> Result<Coordinator, ServeError> {
        let config_json =
            serde_json::to_string(&cfg.worker_config).map_err(|e| ServeError::Proto(e.to_string()))?;
        let shared = Arc::new(Shared {
            key: cfg.auth_key.map(|k| FrameKey::from_bytes(&k)),
            config_json,
            deadline_ms: cfg.deadline_ms,
            telemetry: cfg.telemetry,
            workers: Mutex::new(BTreeMap::new()),
            round: Mutex::new(Machine::new(cfg.max_retries, cfg.hedge_after_ms)),
            round_done: Condvar::new(),
            next_worker_id: AtomicU64::new(1),
            rounds_completed: AtomicU64::new(0),
            started_at: Instant::now(),
            last_round_ms: AtomicU64::new(u64::MAX),
            shutdown: AtomicBool::new(false),
        });
        if cfg.liveness_timeout_ms > 0 {
            let s = Arc::clone(&shared);
            thread::spawn(move || liveness_monitor(s, cfg.liveness_timeout_ms));
        }
        let mut tcp_addr = None;
        if let Some(addr) = &cfg.tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            let s = Arc::clone(&shared);
            thread::spawn(move || accept(listener.incoming(), Conn::tcp, s));
        }
        if let Some(path) = &cfg.uds {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            let s = Arc::clone(&shared);
            thread::spawn(move || accept(listener.incoming(), Conn::Uds, s));
        }
        Ok(Coordinator { shared, tcp_addr, uds_path: cfg.uds })
    }

    /// The bound TCP address (useful after binding port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    pub fn worker_count(&self) -> usize {
        self.shared.workers.lock().unwrap().len()
    }

    /// Names of the live workers, in id order (ops/status surface).
    pub fn worker_names(&self) -> Vec<String> {
        self.shared.workers.lock().unwrap().values().map(|w| w.name.clone()).collect()
    }

    pub fn rounds_completed(&self) -> u64 {
        self.shared.rounds_completed.load(Ordering::SeqCst)
    }

    /// Seconds since the last round barrier resolved; `None` before the
    /// first round. External probes use this to spot a wedged
    /// coordinator that still accepts connections.
    pub fn seconds_since_last_round(&self) -> Option<f64> {
        match self.shared.last_round_ms.load(Ordering::SeqCst) {
            u64::MAX => None,
            at => Some(self.shared.now_ms().saturating_sub(at) as f64 / 1_000.0),
        }
    }

    /// Polls until at least `n` workers are registered. Returns false
    /// on timeout.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.worker_count() < n {
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
        true
    }

    /// A transport handle for `Runner::transport` /
    /// `AdaptStrategy::set_transport`. Many handles may exist; one round
    /// runs at a time (the strategy drives rounds sequentially).
    pub fn transport(&self) -> SocketTransport {
        SocketTransport { shared: Arc::clone(&self.shared) }
    }

    /// The telemetry registry snapshot as JSON (`{}` when telemetry is
    /// off). What `/metrics` serves.
    pub fn metrics_json(&self) -> String {
        let snapshot = self.shared.telemetry.metrics().and_then(|snap| serde_json::to_string(&snap).ok());
        snapshot.unwrap_or_else(|| "{}".into())
    }

    /// Tells every worker to drain and exit, then closes the listeners.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut buf = Vec::new();
        if proto::encode_shutdown(&mut buf, self.shared.key.as_ref()).is_ok() {
            for (id, _) in self.shared.live() {
                // The notice alone ends a conforming worker (it severs
                // its own side); severing here could discard the frame
                // from the socket buffer, and a worker that misses it
                // reads the close as a crash and tries to rejoin. Only
                // an unwritable connection is cut outright.
                if !self.shared.write_to(id, buf.clone()) {
                    self.shared.drop_worker(id);
                }
            }
        }
        self.close_listeners();
    }

    /// Simulates a coordinator crash: slams every worker connection and
    /// the listeners shut *without* the shutdown notice, so workers see
    /// exactly what a killed process leaves behind (EOF mid-session)
    /// and enter their rejoin loop. Chaos-harness use; a production
    /// teardown wants [`Coordinator::shutdown`].
    pub fn abort(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for w in workers.values() {
            w.closer.shutdown();
        }
        self.close_listeners();
    }

    /// Dials the listeners once so their accept loops observe the
    /// shutdown flag, and unlinks the UDS path for a future rebind.
    fn close_listeners(&self) {
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.uds_path {
            let _ = UnixStream::connect(path);
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One listener's accept loop; `conn` wraps an accepted stream.
fn accept<S>(incoming: impl Iterator<Item = std::io::Result<S>>, conn: fn(S) -> Conn, shared: Arc<Shared>) {
    for stream in incoming {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(s) = stream {
            spawn_conn(conn(s), Arc::clone(&shared));
        }
    }
}

fn spawn_conn(conn: Conn, shared: Arc<Shared>) {
    shared.telemetry.counter_add("serve.connections", 1);
    thread::spawn(move || {
        if handshake_and_serve(conn, &shared).is_err() {
            shared.telemetry.counter_add("serve.handshake_failed", 1);
        }
    });
}

/// Admits one connection: hello → validate → ack (+ run config), then
/// runs the connection's reader loop until EOF/error.
fn handshake_and_serve(mut conn: Conn, shared: &Arc<Shared>) -> Result<(), ServeError> {
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut buf = Vec::new();
    // Held to a hello's size, not the stream's cap, until the peer has
    // proven anything.
    if !read_hello(&mut conn, &mut buf)? {
        return Err(ServeError::Handshake("closed before hello".into()));
    }
    let hello = decode_hello(&buf, shared.key.as_ref())
        .map_err(|e| ServeError::Handshake(format!("bad hello: {e:?}")))?;
    let refusal = if hello.proto != HELLO_PROTO {
        Some(format!("unsupported handshake revision {}", hello.proto))
    } else {
        None
    };
    let accepted = refusal.is_none();
    let ack = HelloAck {
        accepted,
        worker_id: if accepted { shared.next_worker_id.fetch_add(1, Ordering::SeqCst) } else { 0 },
        reason: refusal.unwrap_or_default(),
        config_json: if accepted { shared.config_json.clone() } else { String::new() },
    };
    encode_hello_ack(&mut buf, &ack, shared.key.as_ref());
    write_frame(&mut conn, &buf)?;
    if !ack.accepted {
        return Err(ServeError::Handshake(ack.reason));
    }
    conn.set_read_timeout(None)?;

    let id = ack.worker_id;
    let credit = u32::from(hello.threads) + 1;
    let last_seen = Arc::new(AtomicU64::new(shared.now_ms()));
    let handle = WorkerHandle::new(hello.name.clone(), credit, &conn, Arc::clone(&last_seen))?;
    shared.workers.lock().unwrap().insert(id, handle);
    shared.telemetry.counter_add("serve.workers_joined", 1);
    shared.telemetry.emit("serve_worker", |e| {
        e.ints.insert("worker".into(), id);
        e.text.insert("name".into(), hello.name.clone());
    });

    while let Ok(true) = read_frame(&mut conn, &mut buf) {
        // Any well-framed inbound traffic — results, pongs — proves the
        // worker's reader loop is alive.
        last_seen.store(shared.now_ms(), Ordering::SeqCst);
        match proto::decode_message(&buf, shared.key.as_ref()) {
            Ok(Message::Result(tag, outcome)) => shared.deliver(tag, outcome),
            Ok(_) => {}
            Err(_) => {
                // An undecodable frame (MAC mismatch, corruption) means
                // the stream can no longer be trusted: drop the worker
                // now so its outstanding jobs reassign immediately
                // instead of idling until the round deadline.
                shared.telemetry.counter_add("serve.bad_frames", 1);
                break;
            }
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // Not on a clean teardown: `shutdown()` owns the registry then. It is
    // writing (or has written) the shutdown notice on this very socket,
    // and severing here races the notice out of the stream — the worker
    // reads a torn frame or a bare EOF, mistakes the teardown for a crash,
    // and burns its whole rejoin dial budget against a deployment that no
    // longer exists.
    if !shared.shutdown.load(Ordering::SeqCst) {
        shared.drop_worker(id);
    }
    Ok(())
}

/// The remote [`Transport`]: ships each round's jobs to the registered
/// workers and blocks on the deadline barrier.
pub struct SocketTransport {
    shared: Arc<Shared>,
}

impl Transport for SocketTransport {
    fn kind(&self) -> &'static str {
        "socket"
    }

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Outcome> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let shared = &*self.shared;
        let mut span = shared.telemetry.span("serve.round_trip");
        span.int("jobs", n as u64);
        if shared.live().is_empty() {
            shared.telemetry.counter_add("serve.rounds_unserved", 1);
            return (0..n).map(|_| Err(TransportError::Closed("no workers connected".into()))).collect();
        }
        let started = shared.now_ms();
        let deadline = started + shared.deadline_ms;
        shared.perform(shared.feed(|machine, live| machine.start(jobs, live)));

        // The barrier: one tick (or the deadline) per wake-up, then a wait
        // that re-checks the machine under its lock, so a result landing
        // while a hedge was being written is never slept through.
        let results = loop {
            let now = shared.now_ms();
            let mut wake = deadline;
            shared.perform(shared.feed(|machine, live| {
                let step = if now >= deadline {
                    machine.on_deadline(now - started)
                } else {
                    machine.on_tick(now, live)
                };
                wake = step.wake_ms.map_or(deadline, |at| at.min(deadline));
                step
            }));
            let mut machine = shared.round.lock().unwrap();
            if machine.outstanding() == 0 {
                break machine.finish();
            }
            let left = Duration::from_millis(wake.saturating_sub(shared.now_ms()));
            drop(shared.round_done.wait_timeout(machine, left).unwrap());
        };
        shared.rounds_completed.fetch_add(1, Ordering::SeqCst);
        shared.last_round_ms.store(shared.now_ms(), Ordering::SeqCst);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_core::{JobSpec, TrainParams};
    use nebula_data::Dataset;
    use nebula_tensor::Tensor;

    fn shared() -> Shared {
        shared_with(2, 0, 1_000)
    }

    fn shared_with(max_retries: u32, hedge_after_ms: u64, deadline_ms: u64) -> Shared {
        Shared {
            key: None,
            config_json: String::new(),
            deadline_ms,
            telemetry: Telemetry::off(),
            workers: Mutex::new(BTreeMap::new()),
            round: Mutex::new(Machine::new(max_retries, hedge_after_ms)),
            round_done: Condvar::new(),
            next_worker_id: AtomicU64::new(1),
            rounds_completed: AtomicU64::new(0),
            started_at: Instant::now(),
            last_round_ms: AtomicU64::new(u64::MAX),
            shutdown: AtomicBool::new(false),
        }
    }

    fn toy_job(device: u64) -> DispatchJob {
        let xs: Vec<f32> = (0..8).map(|i| i as f32).collect();
        DispatchJob {
            round: 0,
            device,
            spec: JobSpec::Dense {
                input: 4,
                width: 4,
                blocks: 1,
                block_hidden: 4,
                classes: 2,
                ratio: 1.0,
                params: vec![0.0; 4],
            },
            rng_state: [1, 2, 3, 4],
            train: TrainParams { epochs: 1, batch_size: 4, lr: 0.1 },
            data: Dataset::new(Tensor::from_vec(xs, &[2, 4]), vec![0, 1], 2),
        }
    }

    /// A round at `epoch` with every job written to worker 1 at attempt 0.
    fn install_round(s: &Shared, epoch: u64, devices: &[u64]) {
        let jobs: Vec<DispatchJob> = devices.iter().map(|&d| toy_job(d)).collect();
        s.round.lock().unwrap().install(epoch, jobs, 1);
    }

    /// Marks job `j` as hedged to `(worker, attempt)`, reserving the
    /// attempt number exactly like the hedge timer does.
    fn install_hedge(s: &Shared, j: usize, worker: u64, attempt: u32) {
        s.round.lock().unwrap().install_hedge(j, worker, attempt);
    }

    fn outstanding(s: &Shared) -> usize {
        s.round.lock().unwrap().outstanding()
    }

    fn resolved(s: &Shared, j: usize) -> bool {
        outcome_of(s, j).is_some()
    }

    /// Slots of the installed round still waiting for an outcome.
    fn unresolved(s: &Shared) -> usize {
        s.round.lock().unwrap().slots().iter().filter(|slot| slot.result.is_none()).count()
    }

    /// The slot's primary copy: `(worker, attempt)`.
    fn assigned_of(s: &Shared, j: usize) -> (u64, u32) {
        let primary = s.round.lock().unwrap().slots()[j].primary.expect("a placed slot");
        (primary.worker, primary.attempt)
    }

    /// The slot's in-flight hedge copy, if any.
    fn hedge_of(s: &Shared, j: usize) -> Option<(u64, u32)> {
        s.round.lock().unwrap().slots()[j].hedge.map(|h| (h.worker, h.attempt))
    }

    fn retries_of(s: &Shared, j: usize) -> u32 {
        s.round.lock().unwrap().slots()[j].retries_used
    }

    fn outcome_of(s: &Shared, j: usize) -> Option<Outcome> {
        s.round.lock().unwrap().slots().get(j).and_then(|slot| slot.result.clone())
    }

    /// Registers worker `id` with `credit` over a socket pair and returns
    /// the far end: what the coordinator writes to the worker is read there.
    fn add_worker(s: &Shared, id: u64, credit: u32) -> Conn {
        let (near, far) = UnixStream::pair().expect("socket pair");
        far.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let near = Conn::Uds(near);
        let handle = WorkerHandle::new(format!("w{id}"), credit, &near, Arc::new(AtomicU64::new(0)));
        s.workers.lock().unwrap().insert(id, handle.expect("clone"));
        Conn::Uds(far)
    }

    /// The tag of the next job frame the coordinator wrote to this worker.
    fn read_job_tag(far: &mut Conn) -> JobTag {
        let mut buf = Vec::new();
        assert!(read_frame(far, &mut buf).expect("a job frame"), "worker link closed");
        match proto::decode_message(&buf, None).expect("frame decodes") {
            Message::Job(_, tag) => tag,
            _ => panic!("expected a job frame"),
        }
    }

    /// Runs one real `round_trip` of toy jobs for `devices` on its own
    /// thread: the barrier, the hedge timer and the deadline all run.
    fn run_round(s: &Arc<Shared>, devices: &[u64]) -> thread::JoinHandle<Vec<Outcome>> {
        let jobs: Vec<DispatchJob> = devices.iter().map(|&d| toy_job(d)).collect();
        let mut transport = SocketTransport { shared: Arc::clone(s) };
        thread::spawn(move || transport.round_trip(jobs))
    }

    /// The stale-result guard: a result only lands when its epoch,
    /// attempt and device all match the slot's live assignment. In
    /// particular a straggler from a previous round (older epoch, same
    /// slot at attempt 0) must never be accepted as the new round's
    /// update.
    #[test]
    fn deliver_rejects_stale_epoch_attempt_and_device() {
        let s = shared();
        install_round(&s, 2, &[7, 8]);
        let ok: Result<JobResult, String> = Ok(JobResult::Params(vec![1.0]));
        // Previous round's straggler: old epoch, otherwise a perfect match.
        s.deliver(JobTag { job: 0, attempt: 0, epoch: 1, device: 7 }, ok.clone());
        // Superseded attempt.
        s.deliver(JobTag { job: 0, attempt: 5, epoch: 2, device: 7 }, ok.clone());
        // Right slot, wrong device.
        s.deliver(JobTag { job: 0, attempt: 0, epoch: 2, device: 8 }, ok.clone());
        // Out-of-range slot.
        s.deliver(JobTag { job: 9, attempt: 0, epoch: 2, device: 7 }, ok.clone());
        assert_eq!(outstanding(&s), 2, "no stale echo may resolve a slot");
        // The genuine copy still lands.
        s.deliver(JobTag { job: 0, attempt: 0, epoch: 2, device: 7 }, ok);
        assert_eq!(outstanding(&s), 1);
        assert!(resolved(&s, 0) && !resolved(&s, 1));
    }

    /// Hedging × the stale guard: both live copies of a hedged job are
    /// acceptable, whichever lands first resolves the slot exactly once,
    /// and the loser is a counted duplicate — `outstanding` moves by one
    /// and only one.
    #[test]
    fn hedged_pair_resolves_exactly_once_either_order() {
        let ok: Result<JobResult, String> = Ok(JobResult::Params(vec![1.0]));
        // Hedge (attempt 1) first, then the original (attempt 0).
        let s = shared();
        install_round(&s, 3, &[7, 8]);
        install_hedge(&s, 0, 2, 1);
        s.deliver(JobTag { job: 0, attempt: 1, epoch: 3, device: 7 }, ok.clone());
        assert_eq!(outstanding(&s), 1, "the hedge copy must resolve its slot");
        s.deliver(JobTag { job: 0, attempt: 0, epoch: 3, device: 7 }, ok.clone());
        assert_eq!(outstanding(&s), 1, "the losing original is a duplicate, not a second resolve");
        // Original first, then the hedge.
        let s = shared();
        install_round(&s, 3, &[7, 8]);
        install_hedge(&s, 0, 2, 1);
        s.deliver(JobTag { job: 0, attempt: 0, epoch: 3, device: 7 }, ok.clone());
        assert_eq!(outstanding(&s), 1);
        s.deliver(JobTag { job: 0, attempt: 1, epoch: 3, device: 7 }, ok);
        assert_eq!(outstanding(&s), 1, "the losing hedge is a duplicate, not a second resolve");
    }

    /// A hedged attempt from a *previous* epoch must not land in the
    /// current round, even when the attempt number happens to match the
    /// live hedge.
    #[test]
    fn hedge_results_cannot_cross_rounds() {
        let s = shared();
        install_round(&s, 5, &[7, 8]);
        install_hedge(&s, 0, 2, 1);
        let ok: Result<JobResult, String> = Ok(JobResult::Params(vec![1.0]));
        s.deliver(JobTag { job: 0, attempt: 1, epoch: 4, device: 7 }, ok.clone());
        assert_eq!(outstanding(&s), 2, "an old-epoch hedge echo is stale");
        s.deliver(JobTag { job: 0, attempt: 1, epoch: 5, device: 8 }, ok);
        assert_eq!(outstanding(&s), 2, "a wrong-device hedge echo is stale");
    }

    /// Eviction mid-hedge: when the primary's worker dies, the hedge
    /// copy is promoted to the live assignment (no retry burned) and the
    /// dead primary's late echo is rejected as stale.
    #[test]
    fn eviction_promotes_hedge_and_rejects_dead_primary_echo() {
        let s = shared();
        install_round(&s, 6, &[7, 8]);
        // Job 0 primary on worker 1 (attempt 0), hedge on worker 2 (attempt 1).
        install_hedge(&s, 0, 2, 1);
        s.drop_worker(1);
        assert_eq!(assigned_of(&s, 0), (2, 1), "the hedge must be promoted to primary");
        assert_eq!(hedge_of(&s, 0), None);
        assert_eq!(retries_of(&s, 0), 0, "promotion must not burn the retry budget");
        // Job 1 had no hedge and no live workers remain: Closed.
        assert!(resolved(&s, 1), "unhedged job with no survivors must resolve Closed");
        let ok: Result<JobResult, String> = Ok(JobResult::Params(vec![1.0]));
        s.deliver(JobTag { job: 0, attempt: 0, epoch: 6, device: 7 }, ok.clone());
        assert!(!resolved(&s, 0), "the dead primary's attempt 0 is superseded, must not land");
        s.deliver(JobTag { job: 0, attempt: 1, epoch: 6, device: 7 }, ok);
        assert!(resolved(&s, 0), "the promoted hedge attempt still lands");
        assert_eq!(outstanding(&s), 0);
    }

    /// The retry budget is per slot: when a worker dies, a slot that has
    /// already spent its budget resolves `Closed` while a sibling on the
    /// same worker with budget left is reassigned to a survivor.
    #[test]
    fn budget_exhaustion_closes_one_slot_while_its_sibling_reassigns() {
        let s = shared_with(1, 0, 1_000);
        let _w2 = add_worker(&s, 2, 3);
        let _w3 = add_worker(&s, 3, 1);
        install_round(&s, 4, &[7, 8]);
        install_hedge(&s, 1, 2, 1);
        // Worker 1 dies: job 0 is reassigned to worker 2, the one with
        // more credit to spare (one retry); job 1 is promoted onto its
        // hedge on worker 2 (free).
        s.drop_worker(1);
        assert_eq!((assigned_of(&s, 0), retries_of(&s, 0)), ((2, 1), 1));
        assert_eq!((assigned_of(&s, 1), retries_of(&s, 1)), ((2, 1), 0));
        // Worker 2 dies: job 0 has no budget left, job 1 still has one.
        s.drop_worker(2);
        assert!(
            matches!(outcome_of(&s, 0), Some(Err(TransportError::Closed(_)))),
            "an over-budget slot must resolve Closed: {:?}",
            outcome_of(&s, 0)
        );
        assert!(!resolved(&s, 1), "the sibling still has budget and must stay in flight");
        assert_eq!((assigned_of(&s, 1), retries_of(&s, 1)), ((3, 2), 1));
        assert_eq!(outstanding(&s), 1);
        let ok: Result<JobResult, String> = Ok(JobResult::Params(vec![1.0]));
        s.deliver(JobTag { job: 1, attempt: 2, epoch: 4, device: 8 }, ok);
        assert_eq!(outstanding(&s), 0);
    }

    /// Every copy of a job — first send, hedge, reassignment — goes out
    /// under its own attempt number, whichever of the hedge timer and a
    /// worker loss comes first. Runs the real barrier: the tags are read
    /// off the workers' sockets.
    #[test]
    fn hedge_timer_and_reassignment_never_share_an_attempt() {
        let ok: Result<JobResult, String> = Ok(JobResult::Params(vec![1.0]));
        // The hedge fires first, then both copies lose their worker.
        let s = Arc::new(shared_with(2, 20, 10_000));
        let (mut w1, mut w2, mut w3) = (add_worker(&s, 1, 3), add_worker(&s, 2, 3), add_worker(&s, 3, 3));
        let barrier = run_round(&s, &[7]);
        let first = read_job_tag(&mut w1);
        let hedge = read_job_tag(&mut w2);
        assert_eq!(hedge_of(&s, 0), Some((2, hedge.attempt)));
        s.drop_worker(2);
        s.drop_worker(1);
        let moved = read_job_tag(&mut w3);
        assert_eq!((first.attempt, hedge.attempt, moved.attempt), (0, 1, 2));
        assert_eq!((assigned_of(&s, 0), retries_of(&s, 0)), ((3, 2), 1));
        for tag in [hedge, moved] {
            assert_eq!((tag.job, tag.epoch, tag.device), (first.job, first.epoch, first.device));
        }
        s.deliver(moved, ok.clone());
        assert!(matches!(barrier.join().unwrap()[..], [Ok(_)]));

        // The worker is lost first; the hedge timer restarts from the
        // re-dispatch and races the moved copy.
        let s = Arc::new(shared_with(2, 400, 10_000));
        let (mut w1, mut w2, mut w3) = (add_worker(&s, 1, 3), add_worker(&s, 2, 3), add_worker(&s, 3, 3));
        let barrier = run_round(&s, &[7]);
        let first = read_job_tag(&mut w1);
        s.drop_worker(1);
        let moved = read_job_tag(&mut w2);
        let hedge = read_job_tag(&mut w3);
        assert_eq!((first.attempt, moved.attempt, hedge.attempt), (0, 1, 2));
        assert_eq!((assigned_of(&s, 0), hedge_of(&s, 0)), ((2, 1), Some((3, 2))));
        s.deliver(hedge, ok);
        assert!(matches!(barrier.join().unwrap()[..], [Ok(_)]));
    }

    /// The deadline resolves exactly the slots still unresolved, as
    /// `Timeout`; a slot that already has its outcome keeps it.
    #[test]
    fn deadline_times_out_exactly_the_unresolved_slots() {
        let s = Arc::new(shared_with(2, 0, 300));
        let mut w1 = add_worker(&s, 1, 3);
        let barrier = run_round(&s, &[7, 8, 9]);
        let tags = [read_job_tag(&mut w1), read_job_tag(&mut w1), read_job_tag(&mut w1)];
        s.deliver(tags[1], Ok(JobResult::Params(vec![1.0])));
        let results = barrier.join().unwrap();
        assert!(
            matches!(
                results[..],
                [
                    Err(TransportError::Timeout { waited_ms: 300.. }),
                    Ok(_),
                    Err(TransportError::Timeout { waited_ms: 300.. })
                ]
            ),
            "{results:?}"
        );
    }

    proptest::proptest! {
        /// Any storm of result echoes — arbitrary job indices, attempts,
        /// epochs and devices, duplicated and reordered — can never
        /// double-resolve a slot or corrupt the `outstanding` count:
        /// after every delivery, `outstanding` equals the number of
        /// unresolved slots, and it only ever decreases.
        #[test]
        fn outstanding_accounting_survives_echo_storms(
            // Each echo is one packed draw: job (4) x attempt (3) x
            // epoch 1..4 (3) x device 6..10 (4) x ok (2) = 288 codes.
            echoes in proptest::collection::vec(0u64..288, 0..48),
            // Hedge: job 0..3 (3) x attempt 1..3 (2) = 6 codes.
            hedges in proptest::collection::vec(0u64..6, 0..3),
        ) {
            let s = shared();
            install_round(&s, 2, &[7, 8, 9]);
            for code in hedges {
                install_hedge(&s, (code % 3) as usize, 2, 1 + (code / 3) as u32);
            }
            let mut last = outstanding(&s);
            for code in echoes {
                let ok = code % 2 == 0;
                let c = code / 2;
                let device = 6 + (c % 4);
                let c = c / 4;
                let epoch = 1 + (c % 3);
                let c = c / 3;
                let attempt = (c % 3) as u32;
                let job = c / 3;
                let outcome: Result<JobResult, String> = if ok {
                    Ok(JobResult::Params(vec![0.5]))
                } else {
                    Err("boom".into())
                };
                s.deliver(JobTag { job, attempt, epoch, device }, outcome);
                proptest::prop_assert_eq!(outstanding(&s), unresolved(&s),
                    "outstanding must always equal the unresolved slot count");
                proptest::prop_assert!(outstanding(&s) <= last, "outstanding may never grow");
                last = outstanding(&s);
            }
        }
    }
}
