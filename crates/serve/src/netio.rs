//! Socket plumbing shared by coordinator and worker: one connection
//! type over both TCP and Unix-domain streams, the endpoint addressing
//! that picks between them, and a seeded fault-injection wrapper
//! ([`ChaosConn`]) that perturbs the *outbound frame stream* for the
//! chaos harness.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Where a worker dials (or a listener sits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port`.
    Tcp(String),
    /// Filesystem path of a Unix-domain socket.
    Uds(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint string: anything containing a `/` is a UDS
    /// path, everything else a TCP `host:port`.
    pub fn parse(s: &str) -> Endpoint {
        if s.contains('/') {
            Endpoint::Uds(PathBuf::from(s))
        } else {
            Endpoint::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp://{a}"),
            Endpoint::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

/// A connected byte stream, TCP or UDS, with uniform clone/timeout
/// controls. Frame I/O goes through [`nebula_wire::stream`] on top.
/// The [`Conn::Chaos`] variant threads the same stream through a
/// seeded fault plan (chaos tests only; never built in production
/// paths unless explicitly configured).
pub enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
    Chaos(Box<ChaosConn>),
}

impl Conn {
    /// A TCP connection, dialled or accepted: frames are written whole, so
    /// Nagle's delay buys nothing.
    pub fn tcp(stream: TcpStream) -> Conn {
        stream.set_nodelay(true).ok();
        Conn::Tcp(stream)
    }

    /// Dials `endpoint` once.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => Ok(Conn::tcp(TcpStream::connect(addr)?)),
            Endpoint::Uds(path) => Ok(Conn::Uds(UnixStream::connect(path)?)),
        }
    }

    /// Wraps `self` in a deterministic fault injector. All handles
    /// cloned from the result share one fault state, so a stall or kill
    /// triggered by the write half is observed by the read half too.
    pub fn chaos(self, plan: NetFaultPlan) -> Conn {
        Conn::Chaos(Box::new(ChaosConn {
            inner: Box::new(self),
            state: Arc::new(Mutex::new(ChaosState::new(plan))),
        }))
    }

    /// An independently owned handle to the same socket (shared file
    /// description: one side may read while the other writes).
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
            Conn::Chaos(c) => Ok(Conn::Chaos(Box::new(ChaosConn {
                inner: Box::new(c.inner.try_clone()?),
                state: Arc::clone(&c.state),
            }))),
        }
    }

    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Uds(s) => s.set_read_timeout(dur),
            Conn::Chaos(c) => c.inner.set_read_timeout(dur),
        }
    }

    /// Tears the connection down in both directions; a blocked reader
    /// on the other handle wakes with EOF/error.
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Chaos(c) => c.inner.shutdown(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
            Conn::Chaos(c) => c.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
            Conn::Chaos(c) => c.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
            Conn::Chaos(c) => c.flush(),
        }
    }
}

/// A deterministic per-connection network-fault plan for [`ChaosConn`].
///
/// Faults act on whole *outbound frames* (the wrapper reassembles the
/// `nebula_wire::stream` u32-LE length-delimited framing from the byte
/// stream) so a dropped frame is a lost message, never a desynchronised
/// stream. All randomness derives from `seed` and the outbound frame
/// index alone — replaying the same plan over the same frame sequence
/// injects the same faults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetFaultPlan {
    /// Seed of the per-frame fault rolls.
    pub seed: u64,
    /// Probability an outbound frame is silently dropped.
    pub drop_prob: f64,
    /// Probability an outbound frame is written twice back-to-back.
    pub dup_prob: f64,
    /// Fixed delay applied before each outbound frame write, ms.
    pub delay_ms: u64,
    /// After this many outbound frames, write a truncated prefix of the
    /// next frame and kill the connection (torn write).
    pub truncate_after: Option<u64>,
    /// Kill the connection outright after this many outbound frames.
    pub kill_after: Option<u64>,
    /// Half-open stall after this many outbound frames: subsequent
    /// writes are silently swallowed and reads block until the peer
    /// closes — the socket stays open, the process just goes mute.
    pub stall_after: Option<u64>,
    /// Apply the faults to the first session only; a rejoined session
    /// gets a clean link (see `WorkerConfig::chaos`).
    pub once: bool,
}

impl NetFaultPlan {
    /// A plan with the given seed and no faults armed.
    pub fn seeded(seed: u64) -> NetFaultPlan {
        NetFaultPlan { seed, ..NetFaultPlan::default() }
    }
}

/// SplitMix64: the per-frame fault roll in [0, 1).
fn roll(seed: u64, frame: u64, salt: u64) -> f64 {
    let mut z = seed ^ frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Shared fault state across cloned handles of one chaos connection.
struct ChaosState {
    plan: NetFaultPlan,
    /// Bytes written but not yet forming a complete frame.
    pending: Vec<u8>,
    /// Outbound frames seen so far (fault-roll index).
    frames_out: u64,
    /// The connection was killed by a fault; all I/O fails from here.
    dead: bool,
    /// Half-open: writes are swallowed, reads block until peer close.
    stalled: bool,
}

impl ChaosState {
    fn new(plan: NetFaultPlan) -> ChaosState {
        ChaosState { plan, pending: Vec::new(), frames_out: 0, dead: false, stalled: false }
    }
}

/// What the fault plan decided for one complete outbound frame.
enum FrameFate {
    Forward { delay_ms: u64, copies: u8 },
    Drop,
    Truncate,
    Kill,
    Stall,
}

/// A [`Conn`] whose outbound frames pass through a [`NetFaultPlan`].
/// Inbound traffic is untouched except under a stall, which silences
/// both directions (a frozen process neither writes nor reads).
pub struct ChaosConn {
    inner: Box<Conn>,
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosConn {
    /// Blocks until the peer closes, discarding anything that arrives:
    /// the read half of a half-open stall. Returning the close lets the
    /// session end (and, on a worker, the rejoin loop take over).
    fn stalled_read(&mut self) -> io::Result<usize> {
        let _ = self.inner.set_read_timeout(Some(Duration::from_millis(50)));
        let mut scratch = [0u8; 1024];
        loop {
            match self.inner.read(&mut scratch) {
                Ok(0) => return Ok(0),
                Ok(_) => {} // swallowed: a stalled process reads nothing
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let (dead, stalled) = {
            let st = self.state.lock().unwrap();
            (st.dead, st.stalled)
        };
        if dead {
            return Ok(0);
        }
        if stalled {
            return self.stalled_read();
        }
        self.inner.read(buf)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Decide each complete frame's fate under the lock, perform the
        // slow I/O (delays, writes) outside it.
        let mut actions: Vec<(Vec<u8>, FrameFate)> = Vec::new();
        {
            let mut st = self.state.lock().unwrap();
            if st.dead {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection killed"));
            }
            if st.stalled {
                return Ok(buf.len()); // swallowed
            }
            st.pending.extend_from_slice(buf);
            while st.pending.len() >= 4 {
                let len =
                    u32::from_le_bytes([st.pending[0], st.pending[1], st.pending[2], st.pending[3]]) as usize;
                if st.pending.len() < 4 + len {
                    break;
                }
                let frame: Vec<u8> = st.pending.drain(..4 + len).collect();
                let n = st.frames_out;
                st.frames_out += 1;
                let plan = st.plan;
                let fate = if plan.stall_after.is_some_and(|k| n >= k) {
                    st.stalled = true;
                    FrameFate::Stall
                } else if plan.truncate_after.is_some_and(|k| n >= k) {
                    st.dead = true;
                    FrameFate::Truncate
                } else if plan.kill_after.is_some_and(|k| n >= k) {
                    st.dead = true;
                    FrameFate::Kill
                } else if roll(plan.seed, n, 0xD20F) < plan.drop_prob {
                    FrameFate::Drop
                } else {
                    let copies = if roll(plan.seed, n, 0xD0B1) < plan.dup_prob { 2 } else { 1 };
                    FrameFate::Forward { delay_ms: plan.delay_ms, copies }
                };
                actions.push((frame, fate));
            }
        }
        for (frame, fate) in actions {
            match fate {
                FrameFate::Forward { delay_ms, copies } => {
                    if delay_ms > 0 {
                        std::thread::sleep(Duration::from_millis(delay_ms));
                    }
                    for _ in 0..copies {
                        self.inner.write_all(&frame)?;
                    }
                }
                FrameFate::Drop | FrameFate::Stall => {}
                FrameFate::Truncate => {
                    // A torn write: half the frame, then the plug is pulled.
                    let _ = self.inner.write_all(&frame[..frame.len() / 2]);
                    let _ = self.inner.flush();
                    self.inner.shutdown();
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: truncated frame"));
                }
                FrameFate::Kill => {
                    self.inner.shutdown();
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection killed"));
                }
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let blocked = {
            let st = self.state.lock().unwrap();
            st.dead || st.stalled
        };
        if blocked {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing_picks_the_family() {
        assert_eq!(Endpoint::parse("127.0.0.1:7070"), Endpoint::Tcp("127.0.0.1:7070".into()));
        assert_eq!(Endpoint::parse("/tmp/nebula.sock"), Endpoint::Uds(PathBuf::from("/tmp/nebula.sock")));
        assert_eq!(Endpoint::parse("./run.sock"), Endpoint::Uds(PathBuf::from("./run.sock")));
    }

    /// (chaos sender, plain receiver) over a socketpair.
    fn chaos_pair(plan: NetFaultPlan) -> (Conn, Conn) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (Conn::Uds(a).chaos(plan), Conn::Uds(b))
    }

    fn send_frames(conn: &mut Conn, n: usize) {
        use nebula_wire::stream::write_frame;
        for i in 0..n {
            let body = vec![i as u8; 8 + i];
            let _ = write_frame(conn, &body);
        }
    }

    fn recv_frames(conn: &mut Conn) -> Vec<Vec<u8>> {
        use nebula_wire::stream::read_frame;
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while let Ok(true) = read_frame(conn, 1 << 20, &mut buf) {
            out.push(buf.clone());
        }
        out
    }

    /// The same seed perturbs the same frame stream identically, and a
    /// different seed perturbs it differently — the property the chaos
    /// scorecard's determinism gate rests on.
    #[test]
    fn chaos_drop_and_dup_are_seed_deterministic() {
        let run = |seed: u64| {
            let plan = NetFaultPlan { drop_prob: 0.4, dup_prob: 0.3, ..NetFaultPlan::seeded(seed) };
            let (mut tx, mut rx) = chaos_pair(plan);
            send_frames(&mut tx, 32);
            tx.shutdown();
            recv_frames(&mut rx)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must produce the same surviving frame sequence");
        assert!(a.len() < 64, "with drop_prob 0.4 not every frame (and dup) can survive");
        let c = run(8);
        assert_ne!(a, c, "a different seed must perturb differently");
    }

    /// kill_after severs the stream at an exact frame boundary; the
    /// receiver sees precisely the surviving prefix and then EOF.
    #[test]
    fn chaos_kill_after_cuts_at_the_frame_boundary() {
        let plan = NetFaultPlan { kill_after: Some(3), ..NetFaultPlan::seeded(1) };
        let (mut tx, mut rx) = chaos_pair(plan);
        send_frames(&mut tx, 10);
        let got = recv_frames(&mut rx);
        assert_eq!(got.len(), 3, "exactly kill_after frames must survive");
    }

    /// A stalled connection swallows writes without erroring (half-open:
    /// the peer sees silence, not a close) and the read half unblocks
    /// only when the peer hangs up.
    #[test]
    fn chaos_stall_goes_half_open_until_peer_close() {
        let plan = NetFaultPlan { stall_after: Some(1), ..NetFaultPlan::seeded(1) };
        let (mut tx, mut rx) = chaos_pair(plan);
        send_frames(&mut tx, 5); // frame 0 passes, the rest vanish without error
        let mut reader = tx.try_clone().expect("clone shares the stall state");
        let peer = std::thread::spawn(move || {
            // Bounded read: the stalled sender will never complete frame 2.
            rx.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
            let got = recv_frames(&mut rx);
            rx.shutdown();
            got
        });
        // The stalled read must block until the peer closes, then EOF.
        let mut scratch = [0u8; 64];
        use std::io::Read;
        assert_eq!(reader.read(&mut scratch).expect("stalled read ends at peer close"), 0);
        let got = peer.join().expect("peer thread");
        assert_eq!(got.len(), 1, "only the pre-stall frame may reach the peer");
    }
}
