//! A worker process: dial the coordinator, handshake, then pull jobs
//! off the connection into a small thread pool and stream results back.
//!
//! Execution is routed through the same [`JobRunner`]s the in-process
//! [`nebula_core::Loopback`] transport uses — that is what makes a
//! remote round byte-identical to an in-process one under every codec
//! (test-pinned in this crate). A job forks nothing: the executor
//! pool is the worker's parallelism.
//!
//! A worker outlives its connection: [`run_worker`] wraps one *session*
//! (connect → handshake → serve until shutdown or loss) in a rejoin
//! loop, so a coordinator that crashes and restarts gets its fleet back
//! without anyone re-launching worker processes. Only an orderly
//! shutdown notice — or a permanent rejection — ends the worker.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use nebula_baselines::DenseJobRunner;
use nebula_core::{backoff_ms, DispatchJob, JobRunner, JobSpec, ModularRunner, TransportError, WireConfig};
use nebula_telemetry::Telemetry;
use nebula_wire::hello::{decode_hello_ack, encode_hello, Hello, HELLO_PROTO};
use nebula_wire::stream::{read_frame, write_frame};
use nebula_wire::FrameKey;

use crate::netio::{Conn, Endpoint, NetFaultPlan};
use crate::proto::{self, JobTag, Message};
use crate::{ServeError, WorkerRunConfig};

/// Worker deployment knobs.
pub struct WorkerConfig {
    /// Coordinator endpoint to dial.
    pub endpoint: Endpoint,
    /// Shared master key; must match the coordinator's (or both unset).
    pub auth_key: Option<[u8; 16]>,
    /// Name announced in the hello (logs/telemetry only).
    pub name: String,
    /// Executor threads (0 = 1), announced in the hello.
    pub threads: usize,
    /// Dial attempts before giving up (the coordinator may start late).
    pub connect_attempts: u32,
    /// Re-dial and re-handshake after a lost session instead of exiting.
    /// Permanent rejections and local protocol failures still exit; only
    /// link loss (coordinator crash, eviction, network cut) is retried.
    pub rejoin: bool,
    /// Seeded fault plan applied to this worker's link *after* the
    /// handshake (chaos harness only). With [`NetFaultPlan::once`] set,
    /// rejoined sessions get a clean link; otherwise each session `s`
    /// replays the plan under `seed ^ s`.
    pub chaos: Option<NetFaultPlan>,
    pub telemetry: Telemetry,
}

impl WorkerConfig {
    pub fn new(endpoint: Endpoint) -> Self {
        WorkerConfig {
            endpoint,
            auth_key: None,
            name: "worker".into(),
            threads: 2,
            connect_attempts: 20,
            rejoin: true,
            chaos: None,
            telemetry: Telemetry::off(),
        }
    }
}

/// What a finished worker reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerReport {
    /// Coordinator-assigned id of the final session.
    pub worker_id: u64,
    /// Jobs executed (successfully or not) across all sessions.
    pub jobs_run: u64,
    /// Admitted sessions over the worker's life; >1 means the rejoin
    /// loop recovered at least one lost connection.
    pub sessions: u64,
}

/// How one serving session ended.
enum SessionEnd {
    /// The coordinator sent an orderly shutdown notice.
    Shutdown,
    /// The link died without one (coordinator crash, eviction, fault).
    Lost(String),
}

/// Routes each job family to its executor; what the pool threads run.
struct CompositeRunner {
    modular: Option<ModularRunner>,
    dense: DenseJobRunner,
}

impl JobRunner for CompositeRunner {
    fn run(&self, job: DispatchJob) -> Result<nebula_core::JobResult, TransportError> {
        match &job.spec {
            JobSpec::Modular { .. } => match &self.modular {
                Some(r) => r.run(job),
                None => Err(TransportError::Rejected("worker has no modular model configured".into())),
            },
            JobSpec::Dense { .. } => self.dense.run(job),
        }
    }
}

/// Per-attempt ceiling on the dial backoff: without it the exponential
/// curve reaches ~27 minutes per sleep by attempt 16, so a worker whose
/// coordinator never comes up would block for over an hour before
/// reporting failure.
const DIAL_BACKOFF_CAP_MS: f64 = 5_000.0;

/// Consecutive ambiguous handshake failures tolerated before the rejoin
/// loop gives up. "Closed before ack" and "bad ack" are indistinguishable
/// between a coordinator dying mid-restart (transient) and an auth
/// mismatch silently garbling the ack (permanent), so we retry a few
/// times and then surface the error rather than spin forever.
const HANDSHAKE_STRIKES: u32 = 3;

/// The sleep before re-dialing after a failed connect `attempt`:
/// exponential from 25 ms, clamped to [`DIAL_BACKOFF_CAP_MS`].
fn dial_backoff(attempt: u32) -> Duration {
    Duration::from_millis(backoff_ms(25.0, attempt).min(DIAL_BACKOFF_CAP_MS) as u64)
}

/// Dials with capped exponential backoff so a worker may start before
/// its coordinator's listener is up.
fn connect(endpoint: &Endpoint, attempts: u32) -> Result<Conn, ServeError> {
    let tries = attempts.max(1);
    for attempt in 0..tries {
        match Conn::connect(endpoint) {
            Ok(c) => return Ok(c),
            Err(e) if attempt + 1 == tries => {
                return Err(ServeError::Io(format!("connect {endpoint}: {e}")));
            }
            Err(_) => thread::sleep(dial_backoff(attempt)),
        }
    }
    unreachable!("loop returns on the final attempt");
}

/// Runs a worker to completion: blocks until the coordinator sends a
/// shutdown notice, the deployment permanently rejects it, or (with
/// `rejoin` off) the connection closes.
///
/// Error classification drives the loop:
/// * [`ServeError::Rejected`] — permanent; exit immediately with the
///   coordinator's reason. The same hello would be refused forever.
/// * [`ServeError::Handshake`] — ambiguous; retried up to
///   `HANDSHAKE_STRIKES` consecutive times, then surfaced.
/// * [`ServeError::Io`] / [`ServeError::Proto`] — a dial budget already
///   exhausted by capped backoff, or a corrupt stream or run config
///   this worker cannot answer; exit immediately.
/// * A *lost session* (connection died after admission) is not an error
///   while `rejoin` is set: the worker re-dials, re-handshakes, and is
///   assigned a fresh id.
pub fn run_worker(cfg: WorkerConfig) -> Result<WorkerReport, ServeError> {
    let master = cfg.auth_key.map(|k| FrameKey::from_bytes(&k));
    let mut sessions: u64 = 0;
    let mut jobs_total: u64 = 0;
    let mut strikes: u32 = 0;
    loop {
        match run_session(&cfg, master.as_ref(), sessions) {
            Ok((worker_id, jobs, end)) => {
                sessions += 1;
                jobs_total += jobs;
                strikes = 0;
                match end {
                    SessionEnd::Shutdown => {
                        return Ok(WorkerReport { worker_id, jobs_run: jobs_total, sessions });
                    }
                    SessionEnd::Lost(why) => {
                        if !cfg.rejoin {
                            return Err(ServeError::Io(why));
                        }
                        cfg.telemetry.counter_add("serve.worker_rejoins", 1);
                        thread::sleep(Duration::from_millis(50));
                    }
                }
            }
            Err(ServeError::Handshake(why)) => {
                strikes += 1;
                if !cfg.rejoin || strikes >= HANDSHAKE_STRIKES {
                    return Err(ServeError::Handshake(why));
                }
                thread::sleep(dial_backoff(strikes));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One serving session: connect, handshake, serve until shutdown or
/// loss. Returns the session's assigned id, jobs executed, and how it
/// ended; handshake-stage failures come back as errors for the rejoin
/// loop to classify.
fn run_session(
    cfg: &WorkerConfig,
    master: Option<&FrameKey>,
    session: u64,
) -> Result<(u64, u64, SessionEnd), ServeError> {
    let mut conn = connect(&cfg.endpoint, cfg.connect_attempts)?;

    // Handshake: hello out, ack (with the run config) back.
    let mut buf = Vec::new();
    let hello = Hello {
        proto: HELLO_PROTO,
        threads: cfg.threads.clamp(1, u16::MAX as usize) as u16,
        name: cfg.name.clone(),
    };
    encode_hello(&mut buf, &hello, master);
    // I/O failures here are handshake failures, not `Io`: a worker can
    // dial the backlog of a listener mid-teardown, and that race must
    // be retriable rather than fatal.
    write_frame(&mut conn, &buf).map_err(|e| ServeError::Handshake(format!("hello write: {e}")))?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    match read_frame(&mut conn, &mut buf) {
        Ok(true) => {}
        Ok(false) => return Err(ServeError::Handshake("coordinator closed before ack".into())),
        Err(e) => return Err(ServeError::Handshake(format!("ack read: {e}"))),
    }
    let ack = decode_hello_ack(&buf, master).map_err(|e| ServeError::Handshake(format!("bad ack: {e:?}")))?;
    if !ack.accepted {
        return Err(ServeError::Rejected(ack.reason));
    }
    conn.set_read_timeout(None)?;
    // A config that does not validate would panic an executor at its
    // first job, so it is refused here, as malformed JSON is.
    let run_cfg: WorkerRunConfig =
        serde_json::from_str(&ack.config_json).map_err(|e| ServeError::Proto(format!("run config: {e}")))?;
    if let Some(Err(broken)) = run_cfg.modular.as_ref().map(|m| m.validate()) {
        return Err(ServeError::Proto(format!("run config: {broken}")));
    }
    if run_cfg.payload_auth && cfg.auth_key.is_none() {
        return Err(ServeError::Rejected(
            "run requires device-MAC'd payload frames but this worker holds no key".into(),
        ));
    }

    // Fault injection sits below the session, above the socket: the
    // handshake always completes cleanly, then the link degrades.
    if let Some(plan) = cfg.chaos {
        if !(plan.once && session > 0) {
            let mut p = plan;
            p.seed ^= session;
            conn = conn.chaos(p);
        }
    }

    let wire =
        WireConfig { auth_key: if run_cfg.payload_auth { cfg.auth_key } else { None }, ..WireConfig::raw() };
    let runner = Arc::new(CompositeRunner {
        modular: run_cfg.modular.map(|m| ModularRunner::new(m, wire)),
        dense: DenseJobRunner::default(),
    });

    // Pool: the connection reader feeds a channel; each executor thread
    // takes a job, runs it, and writes the result under the shared
    // write half. A failed result write poisons the session and severs
    // the socket so the reader fails fast instead of idling on a
    // connection that can no longer deliver anything.
    let threads = cfg.threads.max(1);
    let (tx, rx) = mpsc::channel::<(Box<DispatchJob>, JobTag)>();
    let rx = Arc::new(Mutex::new(rx));
    let writer = Arc::new(Mutex::new(conn.try_clone()?));
    let jobs_run = Arc::new(AtomicU64::new(0));
    let poisoned = Arc::new(AtomicBool::new(false));
    let master_owned = master.cloned();
    let pool: Vec<_> = (0..threads)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let runner = Arc::clone(&runner);
            let writer = Arc::clone(&writer);
            let jobs_run = Arc::clone(&jobs_run);
            let poisoned = Arc::clone(&poisoned);
            let master = master_owned;
            let telemetry = cfg.telemetry.clone();
            thread::spawn(move || loop {
                // Hold the receiver lock only while taking a job, never
                // while training.
                let msg = rx.lock().unwrap().recv();
                let Ok((job, tag)) = msg else { break };
                let mut span = telemetry.span("serve.job");
                span.int("device", job.device);
                let outcome = runner.run(*job);
                drop(span);
                jobs_run.fetch_add(1, Ordering::SeqCst);
                let mut out = Vec::new();
                // The tag goes back verbatim (epoch included) so the
                // coordinator can tell this copy from any stale echo.
                if proto::encode_result(&mut out, tag, &outcome, master.as_ref()).is_ok() {
                    let mut w = writer.lock().unwrap();
                    if write_frame(&mut *w, &out).is_err() {
                        // A silently dead executor would leave the
                        // worker looking alive while every result it
                        // computes vanishes. Poison the session and cut
                        // the socket: the reader loop wakes immediately
                        // and ends the session with a reason.
                        poisoned.store(true, Ordering::SeqCst);
                        w.shutdown();
                        break;
                    }
                }
            })
        })
        .collect();

    let mut end: Option<SessionEnd> = None;
    let mut fail: Option<ServeError> = None;
    let mut pong = Vec::new();
    loop {
        match read_frame(&mut conn, &mut buf) {
            Ok(true) => match proto::decode_message(&buf, master) {
                Ok(Message::Job(job, tag)) => {
                    if tx.send((job, tag)).is_err() {
                        end = Some(SessionEnd::Lost("executor pool gone".into()));
                        break;
                    }
                }
                Ok(Message::Ping(nonce)) => {
                    // Answered here, not in the pool: the reader thread
                    // is free even while every executor is training, so
                    // a busy-but-live worker still pongs promptly.
                    let ok = proto::encode_pong(&mut pong, nonce, master).is_ok()
                        && write_frame(&mut *writer.lock().unwrap(), &pong).is_ok();
                    if !ok {
                        end = Some(SessionEnd::Lost("pong write failed".into()));
                        break;
                    }
                }
                Ok(Message::Shutdown) => {
                    end = Some(SessionEnd::Shutdown);
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    // An undecodable job frame (MAC mismatch, corrupt
                    // stream) can't be answered — its index may be
                    // unrecoverable — so close the connection instead of
                    // silently skipping it: the coordinator's drop path
                    // then reassigns every outstanding job immediately
                    // rather than idling until the round deadline.
                    cfg.telemetry.counter_add("serve.bad_frames", 1);
                    fail = Some(ServeError::Proto(format!("undecodable inbound frame: {e}")));
                    break;
                }
            },
            Ok(false) | Err(_) if poisoned.load(Ordering::SeqCst) => {
                end = Some(SessionEnd::Lost("result write failed; session poisoned".into()));
                break;
            }
            Ok(false) => {
                end = Some(SessionEnd::Lost("connection closed without shutdown notice".into()));
                break;
            }
            Err(e) => {
                end = Some(SessionEnd::Lost(format!("connection lost: {e}")));
                break;
            }
        }
    }
    drop(tx);
    for h in pool {
        let _ = h.join();
    }
    conn.shutdown();
    if let Some(e) = fail {
        return Err(e);
    }
    let end = end.expect("loop breaks only after recording an end or a failure");
    Ok((ack.worker_id, jobs_run.load(Ordering::SeqCst), end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dial_backoff_grows_then_caps() {
        assert_eq!(dial_backoff(0), Duration::from_millis(25));
        assert_eq!(dial_backoff(3), Duration::from_millis(200));
        // From attempt 8 on (25ms * 2^8 = 6.4s) the cap holds, so even a
        // long dial budget stays minutes, not hours.
        for attempt in [8, 16, 20, u32::MAX] {
            assert_eq!(dial_backoff(attempt), Duration::from_millis(5_000));
        }
    }
}
