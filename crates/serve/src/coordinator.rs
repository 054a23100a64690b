//! The cloud coordinator: listeners, the worker registry, and the
//! socket transport with its deadline-driven round barrier.
//!
//! ## Round barrier
//!
//! [`SocketTransport::round_trip`] installs the batch as the current
//! round, spreads the jobs round-robin over the live workers, and
//! blocks on a condvar until every slot is resolved or the wall-clock
//! deadline passes. Results stream in on per-worker reader threads.
//!
//! ## Failure semantics
//!
//! A worker that dies mid-round (reader hits EOF/error, or a send
//! fails) is dropped from the registry and its outstanding jobs are
//! *reassigned* to the survivors, each reassignment consuming one unit
//! of the job's retry budget ([`nebula_core::RetryPolicy`], the same
//! policy family the simulated fault paths use). A job that exhausts
//! the budget — or has no surviving worker to go to — resolves to
//! [`TransportError::Closed`]; jobs still unresolved at the deadline
//! resolve to [`TransportError::Timeout`]. The strategy above maps
//! every error onto its existing `link_dropped` fate, so a dying or
//! straggling worker degrades the round exactly like a simulated lossy
//! cohort and can never hang the run.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use nebula_core::{DispatchJob, JobResult, RetryPolicy, Transport, TransportError};
use nebula_telemetry::Telemetry;
use nebula_wire::hello::{decode_hello, encode_hello_ack, HelloAck, HELLO_PROTO};
use nebula_wire::stream::{read_frame, write_frame, DEFAULT_MAX_FRAME_LEN};
use nebula_wire::{CodecKind, FrameKey};

use crate::netio::Conn;
use crate::proto::{self, JobTag, Message};
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
    /// Reassignment budget for jobs on dying workers.
    pub retry: RetryPolicy,
    /// Hostile-length cap for inbound frames.
    pub max_frame_len: usize,
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
            retry: RetryPolicy::default(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            liveness_timeout_ms: 0,
            hedge_after_ms: 0,
            telemetry: Telemetry::off(),
        }
    }
}

/// One admitted worker connection.
struct WorkerHandle {
    name: String,
    /// Write half; reads happen on the connection's own reader thread.
    writer: Arc<Mutex<Conn>>,
    /// Unguarded shutdown handle: severing a connection must not wait
    /// on the writer mutex — a writer blocked mid-write on a half-open
    /// socket's full buffer is exactly what eviction needs to unblock.
    closer: Conn,
    /// Milliseconds (on the coordinator's clock, [`Shared::now_ms`]) of
    /// the last inbound frame from this worker. Shared with the reader
    /// thread, which stamps it without touching the registry lock.
    last_seen: Arc<AtomicU64>,
}

/// The in-flight round, if any.
struct RoundState {
    /// Barrier epoch this round's jobs were stamped with — monotonic
    /// across rounds, so a straggler result from a round that already
    /// hit the deadline can never land in a later round's slot.
    epoch: u64,
    jobs: Vec<DispatchJob>,
    /// Per job: (owning worker id, dispatch attempt). Worker ids start
    /// at 1, so the initial `(0, 0)` never matches a real owner.
    assigned: Vec<(u64, u32)>,
    /// Per job: the secondary in-flight copy `(worker, attempt)` when a
    /// hedge was dispatched. Either copy may resolve the slot; the other
    /// is then a counted duplicate.
    hedge: Vec<Option<(u64, u32)>>,
    /// Per job: a hedge was attempted (at most one per job per round).
    hedged: Vec<bool>,
    /// Per job: highest attempt number ever issued. Every dispatch —
    /// initial, reassignment, or hedge — reserves `issued + 1`, so no
    /// two copies of a job can ever share an attempt number and a
    /// straggler from any superseded dispatch can never collide with a
    /// live one.
    issued: Vec<u32>,
    /// Per job: reassignments consumed from the retry budget (hedges
    /// are free — they race the original, they don't replace it).
    retries_used: Vec<u32>,
    /// Per job: when the primary copy was (re)dispatched; what the
    /// hedging timer measures against.
    sent_at: Vec<Instant>,
    results: Vec<Option<Result<JobResult, TransportError>>>,
    outstanding: usize,
}

impl RoundState {
    fn new(epoch: u64, jobs: Vec<DispatchJob>) -> RoundState {
        let n = jobs.len();
        RoundState {
            epoch,
            jobs,
            assigned: vec![(0, 0); n],
            hedge: vec![None; n],
            hedged: vec![false; n],
            issued: vec![0; n],
            retries_used: vec![0; n],
            sent_at: vec![Instant::now(); n],
            results: vec![None; n],
            outstanding: n,
        }
    }
}

struct Shared {
    key: Option<FrameKey>,
    config_json: String,
    deadline_ms: u64,
    retry: RetryPolicy,
    max_frame_len: usize,
    liveness_timeout_ms: u64,
    hedge_after_ms: u64,
    telemetry: Telemetry,
    workers: Mutex<BTreeMap<u64, WorkerHandle>>,
    round: Mutex<Option<RoundState>>,
    round_done: Condvar,
    next_worker_id: AtomicU64,
    /// Source of [`RoundState::epoch`]; bumped once per `round_trip`.
    round_epoch: AtomicU64,
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
    /// stamps and `/healthz` ages are expressed in.
    fn now_ms(&self) -> u64 {
        self.started_at.elapsed().as_millis() as u64
    }

    /// Live worker writers, in id order. Never held together with the
    /// round lock — callers snapshot, release, then lock the round.
    fn live_workers(&self) -> Vec<(u64, Arc<Mutex<Conn>>)> {
        let map = self.workers.lock().unwrap();
        map.iter().map(|(id, w)| (*id, Arc::clone(&w.writer))).collect()
    }

    /// Resolves `job_idx` under the round lock (idempotent).
    fn resolve(&self, st: &mut RoundState, job_idx: usize, outcome: Result<JobResult, TransportError>) {
        if st.results[job_idx].is_some() {
            return;
        }
        match &outcome {
            Ok(_) => self.telemetry.counter_add("serve.results_ok", 1),
            Err(_) => self.telemetry.counter_add("serve.results_failed", 1),
        }
        st.results[job_idx] = Some(outcome);
        st.outstanding -= 1;
        if st.outstanding == 0 {
            self.round_done.notify_all();
        }
    }

    /// Records the dispatch and encodes under the round lock, writes
    /// outside it. A primary send updates the slot's live assignment
    /// (and restarts its hedge timer); a hedge send records the second
    /// in-flight copy. Returns false when the write failed (caller
    /// drops the target worker).
    fn send_copy(
        &self,
        job_idx: usize,
        target: u64,
        attempt: u32,
        writer: &Mutex<Conn>,
        hedge: bool,
    ) -> bool {
        let mut buf = Vec::new();
        {
            let mut round = self.round.lock().unwrap();
            let Some(st) = round.as_mut() else { return true };
            if st.results[job_idx].is_some() {
                return true;
            }
            if hedge {
                st.hedge[job_idx] = Some((target, attempt));
            } else {
                st.assigned[job_idx] = (target, attempt);
                st.sent_at[job_idx] = Instant::now();
            }
            st.issued[job_idx] = st.issued[job_idx].max(attempt);
            let tag =
                JobTag { job: job_idx as u64, attempt, epoch: st.epoch, device: st.jobs[job_idx].device };
            if let Err(e) = proto::encode_job(&mut buf, &st.jobs[job_idx], tag, self.key.as_ref()) {
                self.resolve(st, job_idx, Err(TransportError::Wire(e.to_string())));
                return true;
            }
        }
        let ok = {
            let mut w = writer.lock().unwrap();
            write_frame(&mut *w, &buf).is_ok()
        };
        if ok {
            self.telemetry.counter_add("serve.jobs_sent", 1);
        }
        ok
    }

    fn send_job(&self, job_idx: usize, target: u64, attempt: u32, writer: &Mutex<Conn>) -> bool {
        self.send_copy(job_idx, target, attempt, writer, false)
    }

    /// A result frame arrived from a worker. Lands only when the echoed
    /// tag matches the current round's epoch, the slot's device, and one
    /// of the slot's *live* attempts — the primary assignment or its
    /// hedge: anything else is a stale echo (a superseded attempt, or a
    /// straggler from a round that already hit the deadline barrier) and
    /// is dropped, not aggregated. When both live copies answer, the
    /// first resolves the slot and the second is counted as a duplicate
    /// — also never aggregated.
    fn deliver(&self, tag: JobTag, outcome: Result<JobResult, String>) {
        let mut round = self.round.lock().unwrap();
        let Some(st) = round.as_mut() else { return };
        let j = tag.job as usize;
        if tag.epoch != st.epoch || j >= st.results.len() || st.jobs[j].device != tag.device {
            self.telemetry.counter_add("serve.stale_results", 1);
            return;
        }
        let primary = st.assigned[j].1 == tag.attempt;
        let hedged = st.hedge[j].is_some_and(|(_, a)| a == tag.attempt);
        if !primary && !hedged {
            self.telemetry.counter_add("serve.stale_results", 1);
            return;
        }
        if st.results[j].is_some() {
            // The other copy of a hedged pair already landed.
            self.telemetry.counter_add("serve.dup_results", 1);
            return;
        }
        if hedged && !primary {
            self.telemetry.counter_add("serve.hedge_wins", 1);
        } else if st.hedge[j].is_some() {
            self.telemetry.counter_add("serve.hedge_losses", 1);
        }
        // A worker-side rejection is deterministic — re-running it
        // elsewhere returns the same refusal, so no retry.
        self.resolve(st, j, outcome.map_err(TransportError::Rejected));
    }

    /// Drops `dead` from the registry, severs its socket (so both the
    /// blocked reader thread and the remote process observe the drop),
    /// and re-homes its unresolved jobs: a job whose hedge copy is still
    /// in flight on a live worker is promoted to that copy for free;
    /// every true reassignment burns one retry; over-budget (or
    /// unplaceable) jobs resolve to `Closed`. Safe to call repeatedly
    /// and from any thread; recursion through failed resends is bounded
    /// by the worker count.
    fn drop_worker(&self, dead: u64) {
        let handle = self.workers.lock().unwrap().remove(&dead);
        if let Some(w) = handle {
            self.telemetry.counter_add("serve.workers_lost", 1);
            w.closer.shutdown();
        }
        let live = self.live_workers();
        let mut sends: Vec<(usize, u32, u64, Arc<Mutex<Conn>>)> = Vec::new();
        {
            let mut round = self.round.lock().unwrap();
            let Some(st) = round.as_mut() else { return };
            let mut spread = 0usize;
            for j in 0..st.jobs.len() {
                if st.results[j].is_some() {
                    continue;
                }
                if st.hedge[j].is_some_and(|(w, _)| w == dead) {
                    st.hedge[j] = None;
                }
                if st.assigned[j].0 != dead {
                    continue;
                }
                if let Some((hw, ha)) = st.hedge[j] {
                    // The hedge copy is already in flight on a live
                    // worker: promote it to primary, no resend needed.
                    st.assigned[j] = (hw, ha);
                    st.hedge[j] = None;
                    continue;
                }
                let used = st.retries_used[j] + 1;
                if live.is_empty() || used > self.retry.max_retries {
                    self.resolve(
                        st,
                        j,
                        Err(TransportError::Closed(format!(
                            "worker {dead} lost (retry {used}/{} budget)",
                            self.retry.max_retries
                        ))),
                    );
                    continue;
                }
                st.retries_used[j] = used;
                let attempt = st.issued[j] + 1;
                st.issued[j] = attempt;
                let (wid, writer) = live[spread % live.len()].clone();
                spread += 1;
                st.assigned[j] = (wid, attempt);
                sends.push((j, attempt, wid, writer));
            }
        }
        for (j, attempt, wid, writer) in sends {
            self.telemetry.counter_add("serve.jobs_reassigned", 1);
            if !self.send_job(j, wid, attempt, &writer) {
                self.drop_worker(wid);
            }
        }
    }

    /// Liveness eviction: sever the socket first (waking the worker's
    /// blocked reader into the drop path) and reassign through
    /// [`Shared::drop_worker`].
    fn evict_worker(&self, id: u64) {
        self.telemetry.counter_add("serve.workers_evicted", 1);
        self.drop_worker(id);
    }
}

/// The liveness loop: every quarter-timeout, ping every worker and
/// evict any that has been silent past the timeout. Workers answer
/// pings from their reader thread, so silence means a frozen process or
/// a half-open connection — exactly what the round barrier cannot see
/// on its own (a dead-but-ACKing socket never errors a write).
fn liveness_monitor(shared: Arc<Shared>) {
    let timeout = shared.liveness_timeout_ms;
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
        let snapshot: Vec<(u64, Arc<Mutex<Conn>>, Arc<AtomicU64>)> = {
            let map = shared.workers.lock().unwrap();
            map.iter().map(|(id, w)| (*id, Arc::clone(&w.writer), Arc::clone(&w.last_seen))).collect()
        };
        let now = shared.now_ms();
        for (id, writer, last_seen) in snapshot {
            if now.saturating_sub(last_seen.load(Ordering::SeqCst)) > timeout {
                shared.evict_worker(id);
                continue;
            }
            let ok = {
                let mut w = writer.lock().unwrap();
                write_frame(&mut *w, &buf).is_ok()
            };
            if ok {
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
            retry: cfg.retry,
            max_frame_len: cfg.max_frame_len,
            liveness_timeout_ms: cfg.liveness_timeout_ms,
            hedge_after_ms: cfg.hedge_after_ms,
            telemetry: cfg.telemetry,
            workers: Mutex::new(BTreeMap::new()),
            round: Mutex::new(None),
            round_done: Condvar::new(),
            next_worker_id: AtomicU64::new(1),
            round_epoch: AtomicU64::new(0),
            rounds_completed: AtomicU64::new(0),
            started_at: Instant::now(),
            last_round_ms: AtomicU64::new(u64::MAX),
            shutdown: AtomicBool::new(false),
        });
        if cfg.liveness_timeout_ms > 0 {
            let s = Arc::clone(&shared);
            thread::spawn(move || liveness_monitor(s));
        }
        let mut tcp_addr = None;
        if let Some(addr) = &cfg.tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            let s = Arc::clone(&shared);
            thread::spawn(move || accept_tcp(listener, s));
        }
        if let Some(path) = &cfg.uds {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            let s = Arc::clone(&shared);
            thread::spawn(move || accept_uds(listener, s));
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
        match self.shared.telemetry.metrics() {
            Some(snap) => serde_json::to_string(&snap).unwrap_or_else(|_| "{}".into()),
            None => "{}".into(),
        }
    }

    /// Tells every worker to drain and exit, then closes the listeners.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut buf = Vec::new();
        if proto::encode_shutdown(&mut buf, self.shared.key.as_ref()).is_ok() {
            for (id, writer) in self.shared.live_workers() {
                // The notice alone ends a conforming worker (it severs
                // its own side); severing here could discard the frame
                // from the socket buffer, and a worker that misses it
                // reads the close as a crash and tries to rejoin. Only
                // an unwritable connection is cut outright.
                let failed = {
                    let mut w = writer.lock().unwrap();
                    write_frame(&mut *w, &buf).is_err()
                };
                if failed {
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
        let snapshot: Vec<u64> = self.shared.workers.lock().unwrap().keys().copied().collect();
        for id in snapshot {
            if let Some(w) = self.shared.workers.lock().unwrap().get(&id) {
                w.closer.shutdown();
            }
        }
        self.shared.workers.lock().unwrap().clear();
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

fn accept_tcp(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(s) = stream {
            s.set_nodelay(true).ok();
            spawn_conn(Conn::Tcp(s), Arc::clone(&shared));
        }
    }
}

fn accept_uds(listener: UnixListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(s) = stream {
            spawn_conn(Conn::Uds(s), Arc::clone(&shared));
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
    if !read_frame(&mut conn, shared.max_frame_len, &mut buf)? {
        return Err(ServeError::Handshake("closed before hello".into()));
    }
    let hello = decode_hello(&buf, shared.key.as_ref())
        .map_err(|e| ServeError::Handshake(format!("bad hello: {e:?}")))?;
    let reject = |reason: &str| HelloAck {
        accepted: false,
        codec: CodecKind::Raw,
        worker_id: 0,
        reason: reason.into(),
        config_json: String::new(),
    };
    let ack = if hello.proto != HELLO_PROTO {
        reject(&format!("unsupported handshake revision {}", hello.proto))
    } else if hello.codec != CodecKind::Raw {
        // Stateful codecs would need the coordinator's channel state on
        // the worker; the serving plane speaks Raw only.
        reject(&format!("codec {:?} not served; speak Raw", hello.codec))
    } else {
        HelloAck {
            accepted: true,
            codec: CodecKind::Raw,
            worker_id: shared.next_worker_id.fetch_add(1, Ordering::SeqCst),
            reason: String::new(),
            config_json: shared.config_json.clone(),
        }
    };
    encode_hello_ack(&mut buf, &ack, shared.key.as_ref());
    write_frame(&mut conn, &buf)?;
    if !ack.accepted {
        return Err(ServeError::Handshake(ack.reason));
    }
    conn.set_read_timeout(None)?;

    let id = ack.worker_id;
    let writer = Arc::new(Mutex::new(conn.try_clone()?));
    let closer = conn.try_clone()?;
    let last_seen = Arc::new(AtomicU64::new(shared.now_ms()));
    shared.workers.lock().unwrap().insert(
        id,
        WorkerHandle { name: hello.name.clone(), writer, closer, last_seen: Arc::clone(&last_seen) },
    );
    shared.telemetry.counter_add("serve.workers_joined", 1);
    shared.telemetry.emit("serve_worker", |e| {
        e.ints.insert("worker".into(), id);
        e.text.insert("name".into(), hello.name.clone());
    });

    while let Ok(true) = read_frame(&mut conn, shared.max_frame_len, &mut buf) {
        // Any well-framed inbound traffic — results, pongs — proves the
        // worker's reader loop is alive.
        last_seen.store(shared.now_ms(), Ordering::SeqCst);
        match proto::decode_message(&buf, shared.key.as_ref()) {
            Ok(Message::Result(tag, outcome)) => {
                shared.deliver(tag, outcome);
            }
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
    if shared.shutdown.load(Ordering::SeqCst) {
        // Clean teardown. `shutdown()` owns the registry now: it is
        // writing (or has written) the shutdown notice on this very
        // socket, and severing here races the notice out of the stream —
        // the worker reads a torn frame or a bare EOF, mistakes the
        // teardown for a crash, and burns its whole rejoin dial budget
        // against a deployment that no longer exists.
        return Ok(());
    }
    shared.drop_worker(id);
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

    fn round_trip(&mut self, jobs: Vec<DispatchJob>) -> Vec<Result<JobResult, TransportError>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut span = self.shared.telemetry.span("serve.round_trip");
        span.int("jobs", n as u64);
        let live = self.shared.live_workers();
        if live.is_empty() {
            self.shared.telemetry.counter_add("serve.rounds_unserved", 1);
            return (0..n).map(|_| Err(TransportError::Closed("no workers connected".into()))).collect();
        }
        let epoch = self.shared.round_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        *self.shared.round.lock().unwrap() = Some(RoundState::new(epoch, jobs));
        for j in 0..n {
            let (wid, writer) = live[j % live.len()].clone();
            if !self.shared.send_job(j, wid, 0, &writer) {
                self.shared.drop_worker(wid);
            }
        }

        let started = Instant::now();
        let deadline = started + Duration::from_millis(self.shared.deadline_ms);
        let hedge_after = self.shared.hedge_after_ms;
        let mut round = self.shared.round.lock().unwrap();
        loop {
            let outstanding = round.as_ref().map_or(0, |st| st.outstanding);
            if outstanding == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                // Stragglers missed the barrier: the round degrades, it
                // does not hang.
                let waited_ms = started.elapsed().as_millis() as u64;
                if let Some(st) = round.as_mut() {
                    for j in 0..st.results.len() {
                        if st.results[j].is_none() {
                            self.shared.resolve(st, j, Err(TransportError::Timeout { waited_ms }));
                        }
                    }
                }
                self.shared.telemetry.counter_add("serve.round_timeouts", 1);
                break;
            }
            // The hedge timer: wake early enough to re-dispatch the
            // slowest unresolved jobs to a second worker. Each job is
            // hedged at most once per round, at a freshly reserved
            // attempt number (reserved under the round lock here, sent
            // outside it).
            let mut wake = deadline;
            let mut due: Vec<(usize, u32, u64)> = Vec::new();
            if hedge_after > 0 {
                let h = Duration::from_millis(hedge_after);
                if let Some(st) = round.as_mut() {
                    for j in 0..st.jobs.len() {
                        if st.results[j].is_some() || st.hedged[j] {
                            continue;
                        }
                        let at = st.sent_at[j] + h;
                        if at <= now {
                            st.hedged[j] = true;
                            let attempt = st.issued[j] + 1;
                            st.issued[j] = attempt;
                            due.push((j, attempt, st.assigned[j].0));
                        } else {
                            wake = wake.min(at);
                        }
                    }
                }
            }
            if !due.is_empty() {
                drop(round);
                let live = self.shared.live_workers();
                let mut spread = 0usize;
                for (j, attempt, owner) in due {
                    // Hedge to a worker other than the slow owner; with
                    // no second worker there is nowhere to race the job.
                    let others: Vec<_> = live.iter().filter(|(id, _)| *id != owner).collect();
                    if others.is_empty() {
                        continue;
                    }
                    let (wid, writer) = others[spread % others.len()].clone();
                    spread += 1;
                    self.shared.telemetry.counter_add("serve.jobs_hedged", 1);
                    if !self.shared.send_copy(j, wid, attempt, &writer, true) {
                        self.shared.drop_worker(wid);
                    }
                }
                round = self.shared.round.lock().unwrap();
                continue;
            }
            let (guard, _) = self.shared.round_done.wait_timeout(round, wake - now).unwrap();
            round = guard;
        }
        let st = round.take().expect("round state present until the barrier resolves");
        drop(round);
        self.shared.rounds_completed.fetch_add(1, Ordering::SeqCst);
        self.shared.last_round_ms.store(self.shared.now_ms(), Ordering::SeqCst);
        st.results
            .into_iter()
            .map(|r| r.unwrap_or(Err(TransportError::Closed("round aborted".into()))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_core::{JobSpec, TrainParams};
    use nebula_data::Dataset;
    use nebula_tensor::Tensor;

    fn shared() -> Shared {
        shared_with(RetryPolicy::default().max_retries, 0, 1_000)
    }

    fn shared_with(max_retries: u32, hedge_after_ms: u64, deadline_ms: u64) -> Shared {
        Shared {
            key: None,
            config_json: String::new(),
            deadline_ms,
            retry: RetryPolicy { max_retries, ..RetryPolicy::default() },
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            liveness_timeout_ms: 0,
            hedge_after_ms,
            telemetry: Telemetry::off(),
            workers: Mutex::new(BTreeMap::new()),
            round: Mutex::new(None),
            round_done: Condvar::new(),
            next_worker_id: AtomicU64::new(1),
            round_epoch: AtomicU64::new(0),
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

    fn install_round(s: &Shared, epoch: u64, devices: &[u64]) {
        let jobs: Vec<DispatchJob> = devices.iter().map(|&d| toy_job(d)).collect();
        let n = jobs.len();
        let mut st = RoundState::new(epoch, jobs);
        st.assigned = vec![(1, 0); n];
        *s.round.lock().unwrap() = Some(st);
    }

    /// Marks job `j` as hedged to `(worker, attempt)`, reserving the
    /// attempt number exactly like the barrier's hedge timer does.
    fn install_hedge(s: &Shared, j: usize, worker: u64, attempt: u32) {
        let mut round = s.round.lock().unwrap();
        let st = round.as_mut().unwrap();
        st.hedged[j] = true;
        st.issued[j] = st.issued[j].max(attempt);
        st.hedge[j] = Some((worker, attempt));
    }

    fn outstanding(s: &Shared) -> usize {
        s.round.lock().unwrap().as_ref().map_or(0, |st| st.outstanding)
    }

    fn resolved(s: &Shared, j: usize) -> bool {
        s.round.lock().unwrap().as_ref().is_some_and(|st| st.results[j].is_some())
    }

    /// Slots of the installed round still waiting for an outcome.
    fn unresolved(s: &Shared) -> usize {
        s.round.lock().unwrap().as_ref().map_or(0, |st| st.results.iter().filter(|r| r.is_none()).count())
    }

    /// The slot's primary copy: `(worker, attempt)`.
    fn assigned_of(s: &Shared, j: usize) -> (u64, u32) {
        s.round.lock().unwrap().as_ref().unwrap().assigned[j]
    }

    /// The slot's in-flight hedge copy, if any.
    fn hedge_of(s: &Shared, j: usize) -> Option<(u64, u32)> {
        s.round.lock().unwrap().as_ref().unwrap().hedge[j]
    }

    fn retries_of(s: &Shared, j: usize) -> u32 {
        s.round.lock().unwrap().as_ref().unwrap().retries_used[j]
    }

    fn outcome_of(s: &Shared, j: usize) -> Option<Result<JobResult, TransportError>> {
        s.round.lock().unwrap().as_ref().unwrap().results[j].clone()
    }

    /// Registers worker `id` over a socket pair and returns the far end:
    /// what the coordinator writes to the worker is read there.
    fn add_worker(s: &Shared, id: u64) -> Conn {
        let (near, far) = UnixStream::pair().expect("socket pair");
        far.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let near = Conn::Uds(near);
        let handle = WorkerHandle {
            name: format!("w{id}"),
            closer: near.try_clone().expect("clone"),
            writer: Arc::new(Mutex::new(near)),
            last_seen: Arc::new(AtomicU64::new(0)),
        };
        s.workers.lock().unwrap().insert(id, handle);
        Conn::Uds(far)
    }

    /// The tag of the next job frame the coordinator wrote to this worker.
    fn read_job_tag(far: &mut Conn) -> JobTag {
        let mut buf = Vec::new();
        assert!(read_frame(far, DEFAULT_MAX_FRAME_LEN, &mut buf).expect("a job frame"), "worker link closed");
        match proto::decode_message(&buf, None).expect("frame decodes") {
            Message::Job(_, tag) => tag,
            _ => panic!("expected a job frame"),
        }
    }

    /// Runs one real `round_trip` of toy jobs for `devices` on its own
    /// thread: the barrier, the hedge timer and the deadline all run.
    fn run_round(
        s: &Arc<Shared>,
        devices: &[u64],
    ) -> thread::JoinHandle<Vec<Result<JobResult, TransportError>>> {
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
        let _w2 = add_worker(&s, 2);
        let _w3 = add_worker(&s, 3);
        install_round(&s, 4, &[7, 8]);
        install_hedge(&s, 1, 2, 1);
        // Worker 1 dies: job 0 is reassigned to worker 2 (one retry), job
        // 1 is promoted onto its hedge on worker 2 (free).
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
        let (mut w1, mut w2, mut w3) = (add_worker(&s, 1), add_worker(&s, 2), add_worker(&s, 3));
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
        let (mut w1, mut w2, mut w3) = (add_worker(&s, 1), add_worker(&s, 2), add_worker(&s, 3));
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
        let mut w1 = add_worker(&s, 1);
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
