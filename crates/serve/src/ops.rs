//! A hand-rolled HTTP/1.1 ops endpoint for the coordinator.
//!
//! Three read-only routes, all JSON, all `Connection: close`:
//!
//! * `GET /healthz` — liveness plus the live worker count, rounds
//!   completed, and seconds since the last round barrier closed.
//! * `GET /metrics` — the telemetry metrics registry snapshot.
//! * `GET /round`   — round-barrier progress.
//!
//! The parser accepts exactly what `curl`/probes emit: a request line
//! and headers, no bodies, no keep-alive, all of it inside one
//! [`REQUEST_DEADLINE`] (else `408`). Anything else gets a 400/404 and
//! the connection is closed either way.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::coordinator::Coordinator;
use crate::ServeError;

/// A running ops endpoint. Dropping it stops and joins the listener
/// thread; [`OpsServer::stop`] does the same eagerly when teardown
/// order matters.
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves the coordinator's
    /// status until [`OpsServer::stop`].
    pub fn spawn(addr: &str, coordinator: Coordinator) -> Result<OpsServer, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut s) = stream {
                    let _ = serve_one(&mut s, &coordinator);
                }
            }
        });
        Ok(OpsServer { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    /// The actual teardown: raise the flag, unblock `accept` with a
    /// self-dial, join. Idempotent so `stop` + `Drop` compose.
    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        // An ops endpoint abandoned on an early-return path must not
        // leave a listener thread (and its bound port) behind.
        self.halt();
    }
}

/// How long a client has, from accept, to finish sending its request.
/// One deadline for the whole request, not one per read: the accept loop
/// is single-threaded, so a client trickling a byte at a time would
/// otherwise hold `/healthz` away from every other probe.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Reads one request (capped at 8 KiB and [`REQUEST_DEADLINE`]), routes
/// it, writes one response.
fn serve_one(stream: &mut TcpStream, coordinator: &Coordinator) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    while !raw.windows(4).any(|w| w == b"\r\n\r\n") {
        if raw.len() > 8192 {
            return respond(stream, 400, "{\"error\":\"request too large\"}");
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return respond(stream, 408, "{\"error\":\"request timeout\"}");
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(stream, 405, "{\"error\":\"method not allowed\"}");
    }
    match path {
        "/healthz" => {
            let names = serde_json::to_string(&coordinator.worker_names()).unwrap_or_else(|_| "[]".into());
            let age = match coordinator.seconds_since_last_round() {
                Some(s) => format!("{s:.3}"),
                None => "null".into(),
            };
            let body = format!(
                "{{\"ok\":true,\"workers\":{},\"names\":{names},\"rounds_completed\":{},\"last_round_age_s\":{age}}}",
                coordinator.worker_count(),
                coordinator.rounds_completed(),
            );
            respond(stream, 200, &body)
        }
        "/metrics" => respond(stream, 200, &coordinator.metrics_json()),
        "/round" => {
            let body = format!(
                "{{\"rounds_completed\":{},\"workers\":{}}}",
                coordinator.rounds_completed(),
                coordinator.worker_count()
            );
            respond(stream, 200, &body)
        }
        _ => respond(stream, 404, "{\"error\":\"not found\"}"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, WorkerRunConfig};

    /// One client sends `GET /he` and then a byte a second — under a
    /// per-read timeout it would own the single-threaded endpoint for as
    /// long as it kept trickling. With one deadline per request it is
    /// answered `408` and the probe queued behind it gets its `200`.
    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint_past_the_request_deadline() {
        let coordinator = Coordinator::bind(ServeConfig::new(WorkerRunConfig::default())).expect("bind");
        let ops = OpsServer::spawn("127.0.0.1:0", coordinator).expect("ops binds");
        let started = Instant::now();
        let mut slow = TcpStream::connect(ops.addr()).expect("slow client connects");
        slow.write_all(b"GET /he").expect("request prefix");
        let mut trickle = slow.try_clone().expect("clone");
        let trickler = thread::spawn(move || {
            for _ in 0..8 {
                thread::sleep(Duration::from_secs(1));
                if trickle.write_all(b"a").is_err() {
                    break;
                }
            }
        });

        let mut probe = TcpStream::connect(ops.addr()).expect("probe connects");
        probe.write_all(b"GET /healthz HTTP/1.1\r\nHost: ops\r\n\r\n").expect("probe request");
        let mut health = String::new();
        probe.read_to_string(&mut health).expect("probe response");
        let waited = started.elapsed();
        assert!(health.starts_with("HTTP/1.1 200"), "the probe behind the slow client: {health}");
        assert!(waited < REQUEST_DEADLINE + Duration::from_secs(1), "the probe waited {waited:?}");

        let mut refusal = String::new();
        let _ = slow.read_to_string(&mut refusal);
        assert!(refusal.starts_with("HTTP/1.1 408"), "the slow client: {refusal}");
        trickler.join().expect("trickler thread");
        ops.stop();
    }
}
