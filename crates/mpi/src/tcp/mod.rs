//! The TCP transport: real kernel sockets under the same mailbox matcher.
//!
//! Two deployment shapes, one [`Transport`] implementation:
//!
//! * **Loopback mesh** ([`TcpTransport::mesh`]): every endpoint lives in
//!   this process (exactly like the in-memory fabric), but each unordered
//!   endpoint pair is joined by a genuine `127.0.0.1` socket pair and every
//!   non-self message is framed, written to the kernel, and read back by
//!   the connection's reader thread on the other side. This is what
//!   `HEAR_TRANSPORT=tcp` selects under the [`Simulator`](crate::Simulator):
//!   the whole existing test matrix runs with real syscalls, real torn
//!   reads, and real socket buffering in the path.
//! * **Multi-process** ([`TcpTransport::connect`]): one OS process per
//!   rank. Every rank binds an ephemeral data listener; rank 0 additionally
//!   binds a rendezvous listener (fixed port via `HEAR_PORT_BASE`, or an
//!   ephemeral port published through `HEAR_RENDEZVOUS_FILE`). Non-zero
//!   ranks dial rank 0, introduce themselves with a `Hello{rank, port}`
//!   frame, and receive the full rank→port `Table`; the pairwise mesh is
//!   then completed with rank *i* dialing every rank *j < i* (the
//!   rendezvous connections double as the data connections to rank 0).
//!
//! After the mesh exists, a ring RTT probe (`Ping`/`Pong` to the next
//! rank) measures the real round trip so deadline budgets derived from
//! [`Transport::rtt_estimate`] stay meaningful over sockets.
//!
//! **The live data path is event-driven and single-copy.** Every socket is
//! blocking. Each inbound connection has one reader thread parked in
//! `read`: it reads the 32-byte header, then reads the payload straight
//! into its final buffer — a typed, aligned `Vec<T>` for the built-in
//! primitive codecs, one exact-size `Vec<u8>` (decoded lazily at
//! `recv_on`) for registered user codecs — and deposits it into the same
//! [`Mailbox`] array the in-memory fabric uses (so `recv_on` semantics —
//! FIFO per `(source, tag)`, typed deadlines, death flags — are shared
//! code, not reimplemented). A send writes header and payload with one
//! vectored write under the connection's writer lock, primitive payloads
//! borrowed in place. Readers never write and never wait for a rank
//! thread, so every inbound byte is always drained and two ranks blocked
//! in large writes to each other cannot deadlock.
//!
//! Failure mapping: EOF / read error / corrupt frame header on a
//! connection marks the attributed peer dead and wakes every waiter, so
//! blocked receives resolve to `CommError::PeerDead`; a payload that
//! cannot be decoded poisons only its own message (the matching receive
//! gets `CommError::TypeMismatch`). A write that makes no progress for one
//! heartbeat interval marks the peer *suspect* (slow, not dead); progress
//! clears it, and only a hard I/O error or a stall that outlives the
//! heartbeat silence budget hardens into `PeerDead`. Deadline expiry stays
//! `Timeout`, same as the in-memory fabric. Fault plans are applied
//! *before* encoding, while the payload is still typed, so the chaos
//! suite's corrupt / duplicate / drop / delay / kill injections work
//! unchanged over sockets.

pub mod wire;

use std::any::Any;
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::fabric::{
    count_delivery, lock_unpoisoned, recv_on_mailboxes, LinkClock, Mailbox, NetConfig,
};
use crate::fault::{filter_send, FaultPlan, FaultState, SendDecision, SendVerdict};
use crate::transport::{Envelope, Transport};
use wire::{encode_frame, Frame, FrameHeader, FrameKind, HEADER_LEN};

/// Default ceiling on connection establishment (bind + rendezvous + mesh
/// + RTT probe), overridable with `HEAR_TCP_SETUP_TIMEOUT_MS`.
const DEFAULT_SETUP_TIMEOUT: Duration = Duration::from_secs(10);

/// Floor for the measured RTT: below this, condvar wake latency dominates
/// and a tighter deadline budget would only produce false timeouts.
const RTT_FLOOR: Duration = Duration::from_micros(50);

/// Ping/pong iterations of the setup RTT probe.
const RTT_PROBES: u32 = 4;

/// Stack of a reader (or the timer) thread: it holds a header, calls into
/// the codec and the mailbox, and keeps every payload on the heap. A mesh
/// of `n` endpoints parks `n × (n − 1)` readers.
const SERVICE_STACK: usize = 128 << 10;

/// A connection's encode scratch is kept between sends up to this size;
/// one larger message does not pin its buffer for the life of the world.
const SCRATCH_KEEP: usize = 4 << 20;

fn setup_timeout() -> Duration {
    std::env::var("HEAR_TCP_SETUP_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(DEFAULT_SETUP_TIMEOUT)
}

/// The one liveness constant pair of the transport. A peer not heard from
/// (any inbound byte) for `interval × miss_budget` is dead; a frame write
/// that makes no progress for the same span is talking to a dead peer.
///
/// In the multi-process mesh a timer thread pings every peer each
/// `interval` and checks the silence budget, so hung-open sockets (a peer
/// stopped by SIGSTOP, a half-broken NAT path) harden into a typed
/// `PeerDead` instead of an unbounded hang; an outright SIGKILL is still
/// caught faster by EOF. In both topologies `interval` is the socket write
/// timeout: a write that expires with the buffer still full marks the peer
/// suspect, and `miss_budget` such expiries in a row declare it dead.
#[derive(Debug, Clone, Copy)]
struct Heartbeat {
    interval: Duration,
    miss_budget: u32,
}

impl Heartbeat {
    /// `HEAR_HEARTBEAT_MS` (default 100) and `HEAR_HEARTBEAT_MISS`
    /// (default 10): detection within ~1 s out of the box.
    fn from_env() -> Heartbeat {
        let ms = std::env::var("HEAR_HEARTBEAT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(100)
            .max(1);
        let miss = std::env::var("HEAR_HEARTBEAT_MISS")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
            .unwrap_or(10)
            .max(1);
        Heartbeat {
            interval: Duration::from_millis(ms),
            miss_budget: miss,
        }
    }
}

/// How rank 0's rendezvous listener is found by the other ranks.
#[derive(Debug, Clone)]
pub enum Rendezvous {
    /// Rank 0 binds exactly this port; everyone else dials it directly.
    Port(u16),
    /// Rank 0 binds an ephemeral port and publishes it through this file
    /// (written atomically via rename); everyone else polls the file.
    /// This is the hygienic default: no fixed port, so concurrent
    /// launchers on one host never collide.
    File(PathBuf),
}

impl Rendezvous {
    /// `HEAR_PORT_BASE` (explicit port) or `HEAR_RENDEZVOUS_FILE`.
    pub fn from_env() -> Option<Rendezvous> {
        if let Ok(p) = std::env::var("HEAR_PORT_BASE") {
            return p.parse::<u16>().ok().map(Rendezvous::Port);
        }
        std::env::var("HEAR_RENDEZVOUS_FILE")
            .ok()
            .map(|p| Rendezvous::File(PathBuf::from(p)))
    }
}

/// The write side of one connection. The read side is a clone of
/// `stream` owned by the connection's reader thread.
struct Conn {
    stream: TcpStream,
    /// Held for the whole of a frame write, so frames never interleave;
    /// the buffer is the scratch a user-codec payload is encoded into.
    /// (`shutdown` goes through `stream` directly and needs no lock, so it
    /// also unblocks a writer stalled mid-frame.)
    tx: Mutex<Vec<u8>>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            tx: Mutex::new(Vec::new()),
        }
    }
}

/// Which endpoints this process hosts, and how frames route out.
enum Topology {
    /// All endpoints in-process; `conns[from * total + to]` is the
    /// from-side of the socket pair joining the two.
    Mesh { conns: Vec<Option<Conn>> },
    /// One process per rank; `conns[peer]` is the connection to `peer`.
    Proc { me: usize, conns: Vec<Option<Conn>> },
}

impl Topology {
    fn conns(&self) -> &[Option<Conn>] {
        match self {
            Topology::Mesh { conns } | Topology::Proc { conns, .. } => conns,
        }
    }
}

/// An inbound user-codec payload still in wire form. It is decoded at
/// `recv_on` time, so codec registration only has to happen before the
/// *receiver* asks — not before the sender's bytes hit this process
/// (multi-process setup races otherwise). Built-in primitive payloads
/// need no registration and arrive already typed.
struct RawPayload {
    wire_id: u32,
    bytes: Vec<u8>,
}

struct Inner {
    total: usize,
    topo: Topology,
    mailboxes: Vec<Mailbox>,
    dead: Vec<AtomicBool>,
    /// Endpoints inside a fault plan's injected disconnect window:
    /// receivers report `Disconnected` (retryable) instead of `Timeout`
    /// while the flag is up.
    suspect: Vec<AtomicBool>,
    /// Endpoints a frame write to which is stalled right now. Read as
    /// suspect too, but kept apart so a write that resumes cannot close
    /// an injected window early.
    stalled: Vec<AtomicBool>,
    /// Milliseconds since `start` at which each peer was last heard from
    /// (any inbound bytes). Drives the heartbeat miss budget.
    last_heard: Vec<AtomicU64>,
    start: Instant,
    heartbeat: Heartbeat,
    clock: LinkClock,
    faults: Option<(FaultPlan, FaultState)>,
    rtt: Duration,
    shutdown: AtomicBool,
}

/// See the [module docs](self) for the protocol; see [`Transport`] for
/// the contract this satisfies.
pub struct TcpTransport {
    inner: Arc<Inner>,
    /// One reader per inbound connection, plus the heartbeat timer in the
    /// multi-process topology.
    threads: Vec<JoinHandle<()>>,
}

impl Inner {
    /// A healthy world of `total` endpoints over `topo`, not yet live.
    fn new(
        topo: Topology,
        total: usize,
        net: NetConfig,
        faults: Option<FaultPlan>,
        rtt: Duration,
    ) -> Inner {
        Inner {
            total,
            topo,
            mailboxes: (0..total).map(|_| Mailbox::default()).collect(),
            dead: (0..total).map(|_| AtomicBool::new(false)).collect(),
            suspect: (0..total).map(|_| AtomicBool::new(false)).collect(),
            stalled: (0..total).map(|_| AtomicBool::new(false)).collect(),
            last_heard: (0..total).map(|_| AtomicU64::new(0)).collect(),
            start: Instant::now(),
            heartbeat: Heartbeat::from_env(),
            clock: LinkClock::new(net),
            faults: faults.map(|p| (p, FaultState::new(total))),
            rtt: rtt.max(net.alpha * 2),
            shutdown: AtomicBool::new(false),
        }
    }

    fn mark_dead(&self, endpoint: usize) {
        if endpoint < self.total && !self.dead[endpoint].swap(true, Ordering::SeqCst) {
            for mb in &self.mailboxes {
                mb.wake();
            }
        }
    }

    fn is_dead(&self, endpoint: usize) -> bool {
        endpoint < self.total && self.dead[endpoint].load(Ordering::SeqCst)
    }

    fn is_suspect(&self, endpoint: usize) -> bool {
        endpoint < self.total
            && (self.suspect[endpoint].load(Ordering::SeqCst)
                || self.stalled[endpoint].load(Ordering::SeqCst))
    }

    /// Raise or lower one of the two suspicion flags of `endpoint`.
    fn set_suspicion(&self, flags: &[AtomicBool], endpoint: usize, flag: bool) {
        if endpoint >= self.total {
            return;
        }
        if flags[endpoint].swap(flag, Ordering::SeqCst) && !flag {
            // The link healed: wake parked receivers so they stop
            // resolving to `Disconnected`.
            for mb in &self.mailboxes {
                mb.wake();
            }
        }
    }

    /// Record liveness evidence for `peer` (any inbound bytes count).
    fn note_heard(&self, peer: usize) {
        if peer < self.total {
            let ms = self.start.elapsed().as_millis() as u64;
            self.last_heard[peer].store(ms, Ordering::Relaxed);
        }
    }

    fn conn_for(&self, from: usize, to: usize) -> Option<&Conn> {
        match &self.topo {
            Topology::Mesh { conns } => conns.get(from * self.total + to)?.as_ref(),
            Topology::Proc { conns, .. } => conns.get(to)?.as_ref(),
        }
    }

    /// Whether a message `from → to` is deposited straight into the local
    /// mailbox (no socket): self-sends in mesh mode, the local rank in
    /// multi-process mode.
    fn deposits_locally(&self, from: usize, to: usize) -> bool {
        match &self.topo {
            Topology::Mesh { .. } => from == to,
            Topology::Proc { me, .. } => to == *me,
        }
    }

    fn deposit(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: usize,
        extra: Duration,
    ) {
        let available_at = self.clock.available_at(from, to, bytes, extra);
        self.mailboxes[to].deposit(
            from,
            tag,
            Envelope {
                payload,
                available_at,
            },
        );
    }

    /// Route a typed message: a local deposit, or one frame down the right
    /// socket with the payload's bytes borrowed in place (primitives) or
    /// encoded once into the connection's scratch (user codecs).
    ///
    /// Deliveries are counted here, on the sending rank's thread — once
    /// per local deposit, once per frame fully written — so a registry
    /// installed on the rank threads sees socket traffic too.
    fn ship(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        payload: Box<dyn Any + Send>,
        bytes: usize,
        extra: Duration,
    ) {
        if to >= self.total {
            debug_assert!(
                false,
                "send to endpoint {to} outside this transport ({})",
                self.total
            );
            return;
        }
        if self.deposits_locally(from, to) {
            count_delivery(bytes);
            self.deposit(from, to, tag, payload, bytes, extra);
            return;
        }
        let Some(conn) = self.conn_for(from, to) else {
            return;
        };
        let mut scratch = lock_unpoisoned(&conn.tx);
        let (type_id, body) = match wire::primitive_bytes(payload.as_ref()) {
            Some(borrowed) => borrowed,
            None => {
                let id = wire::encode_payload_into(payload.as_ref(), &mut scratch);
                (id, &scratch[..])
            }
        };
        let header = FrameHeader {
            kind: FrameKind::Msg,
            type_id,
            from: from as u32,
            to: to as u32,
            tag,
            delay_ns: u64::try_from(extra.as_nanos())
                .unwrap_or(u64::MAX)
                .min(u32::MAX as u64) as u32,
            len: 0,
        };
        if self.write_frame(to, &conn.stream, header, body, false) {
            count_delivery(body.len());
        }
        if scratch.capacity() > SCRATCH_KEEP {
            *scratch = Vec::new();
        }
    }

    /// Write one frame — header and body in a single vectored write,
    /// resumed from the exact byte reached after a short write — to a
    /// blocking socket whose write timeout is one heartbeat interval. The
    /// caller holds the connection's `tx` lock.
    ///
    /// Slow is not dead: a timeout with the buffer still full marks the
    /// peer suspect (the `stalled` flag), any progress clears it and
    /// resets the stall budget, a frame that stalled and still got
    /// through counts one reconnect, and only a hard error or
    /// `miss_budget` timeouts in a row (the heartbeat silence budget)
    /// declare the peer dead. A `skippable`
    /// frame (a heartbeat) is instead abandoned at the first timeout if
    /// not one byte of it was accepted. Returns whether the whole frame
    /// reached the kernel.
    fn write_frame(
        &self,
        to: usize,
        mut stream: &TcpStream,
        mut header: FrameHeader,
        body: &[u8],
        skippable: bool,
    ) -> bool {
        assert!(
            body.len() <= wire::MAX_FRAME_LEN as usize,
            "frame payload too large"
        );
        header.len = body.len() as u32;
        let head = header.encode();
        let total = HEADER_LEN + body.len();
        let mut off = 0usize;
        // Timeouts in a row, and whether this frame ever stalled.
        let (mut stalls, mut stalled) = (0u32, false);
        while off < total {
            let res = if off < HEADER_LEN {
                stream.write_vectored(&[IoSlice::new(&head[off..]), IoSlice::new(body)])
            } else {
                stream.write(&body[off - HEADER_LEN..])
            };
            match res {
                Ok(0) => break,
                Ok(n) => {
                    off += n;
                    if stalls > 0 {
                        stalls = 0;
                        self.set_suspicion(&self.stalled, to, false);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if skippable && off == 0 {
                        return false;
                    }
                    stalls += 1;
                    if stalls >= self.heartbeat.miss_budget {
                        break;
                    }
                    stalled = true;
                    self.set_suspicion(&self.stalled, to, true);
                }
                Err(_) => break,
            }
        }
        if stalls > 0 {
            self.set_suspicion(&self.stalled, to, false);
        }
        if off == total {
            if stalled {
                // One healed link per frame, however often it hiccuped.
                hear_telemetry::incr(hear_telemetry::Metric::ReconnectsTotal);
            }
            return true;
        }
        self.mark_dead(to);
        false
    }

    /// One tick of the multi-process supervision timer: declare dead any
    /// peer silent past the heartbeat miss budget, ping the others. A
    /// connection whose writer lock is taken is not pinged: whoever holds
    /// it is moving bytes to that peer right now, which is all a ping
    /// would prove.
    fn supervise(&self) {
        let Topology::Proc { me, conns } = &self.topo else {
            return;
        };
        let hb = self.heartbeat;
        let elapsed = self.start.elapsed().as_millis() as u64;
        let budget = (hb.interval.as_millis() as u64).saturating_mul(hb.miss_budget as u64);
        for (peer, conn) in conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            if self.is_dead(peer) {
                continue;
            }
            let heard = self.last_heard[peer].load(Ordering::Relaxed);
            if elapsed.saturating_sub(heard) > budget {
                self.mark_dead(peer);
                continue;
            }
            let _tx = match conn.tx.try_lock() {
                Ok(tx) => tx,
                Err(TryLockError::Poisoned(tx)) => tx.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            let ping = FrameHeader::control(FrameKind::Ping, *me);
            if self.write_frame(peer, &conn.stream, ping, &[], true) {
                hear_telemetry::incr(hear_telemetry::Metric::HeartbeatsTotal);
            }
        }
    }

    /// Read one frame off a connection and act on it: a `Msg` payload goes
    /// into its final buffer and then the destination mailbox; control
    /// frames only count as liveness evidence (their bytes were noted by
    /// the reader), so a reader never has to write.
    fn read_frame(&self, r: &mut impl Read) -> std::io::Result<()> {
        let mut head = [0u8; HEADER_LEN];
        r.read_exact(&mut head)?;
        let header = FrameHeader::decode(&head)?;
        let len = header.len as usize;
        if header.kind != FrameKind::Msg {
            // Live-phase `Ping`s, `Pong`s from older peers, stale setup
            // kinds: skip whatever payload the frame declares.
            std::io::copy(&mut r.by_ref().take(len as u64), &mut std::io::sink())?;
            return Ok(());
        }
        let payload = match wire::read_primitive(header.type_id, len, r) {
            Some(typed) => typed?,
            None => {
                let mut bytes = vec![0u8; len];
                r.read_exact(&mut bytes)?;
                Box::new(RawPayload {
                    wire_id: header.type_id,
                    bytes,
                })
            }
        };
        let to = header.to as usize;
        if to < self.total {
            let extra = Duration::from_nanos(header.delay_ns as u64);
            self.deposit(header.from as usize, to, header.tag, payload, len, extra);
        }
        Ok(())
    }
}

/// A connection's read side as its reader thread sees it: every
/// successful read is liveness evidence for the peer.
struct PeerStream<'a> {
    inner: &'a Inner,
    stream: &'a TcpStream,
    peer: usize,
}

impl Read for PeerStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.inner.note_heard(self.peer);
        }
        Ok(n)
    }
}

/// One inbound connection's reader: parked in a blocking `read` until the
/// peer's next frame, until the peer goes away (EOF, reset, or a corrupt
/// header — an unrecoverable desync — all implicate `peer`), or until
/// `Drop` shuts the socket down.
fn reader_loop(inner: Arc<Inner>, stream: TcpStream, peer: usize) {
    let mut r = PeerStream {
        inner: &inner,
        stream: &stream,
        peer,
    };
    while inner.read_frame(&mut r).is_ok() {}
    if !inner.shutdown.load(Ordering::SeqCst) {
        inner.mark_dead(peer);
    }
}

/// The multi-process topology's supervision timer: once per heartbeat
/// interval, ping every peer and check who has gone silent. The first
/// ping goes out immediately, so short-lived worlds still record
/// supervision activity. `Drop` unparks it.
fn heartbeat_loop(inner: Arc<Inner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        inner.supervise();
        std::thread::park_timeout(inner.heartbeat.interval);
    }
}

fn spawn_service(
    name: &str,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.into())
        .stack_size(SERVICE_STACK)
        .spawn(body)
}

/// A connected loopback socket pair.
fn socket_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let addr = listener.local_addr()?;
    let client = TcpStream::connect(addr)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// `read_exact` with an absolute deadline (setup phase only).
fn read_exact_deadline(
    stream: &mut TcpStream,
    mut buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<()> {
    while !buf.is_empty() {
        let now = Instant::now();
        if now >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "setup deadline expired waiting for a frame",
            ));
        }
        stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(100))))?;
        match stream.read(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed during setup",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read exactly one setup frame (`Hello`, `Table`, `Ping`, `Pong`) — and
/// not one byte more, so nothing the peer sends next is stranded in a
/// buffer when the connection is handed to its reader thread.
fn read_frame_deadline(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<Frame> {
    let mut head = [0u8; HEADER_LEN];
    read_exact_deadline(stream, &mut head, deadline)?;
    let header = FrameHeader::decode(&head)?;
    let mut payload = vec![0u8; header.len as usize];
    read_exact_deadline(stream, &mut payload, deadline)?;
    Ok(Frame { header, payload })
}

fn expect_kind(frame: &Frame, kind: FrameKind) -> std::io::Result<()> {
    if frame.header.kind == kind {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "expected {kind:?} frame during setup, got {:?}",
                frame.header.kind
            ),
        ))
    }
}

fn accept_deadline(listener: &TcpListener, deadline: Instant) -> std::io::Result<TcpStream> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "setup deadline expired waiting for a connection",
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn connect_retry(port: u16, deadline: Instant) -> std::io::Result<TcpStream> {
    let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, port));
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("setup deadline expired dialing 127.0.0.1:{port}"),
            ));
        }
        match TcpStream::connect_timeout(&addr, (deadline - now).min(Duration::from_millis(250))) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            // The peer's listener may simply not exist yet.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Atomically publish rank 0's rendezvous port: write-to-temp + rename,
/// so pollers never observe a half-written file.
fn publish_port(path: &Path, port: u16) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, format!("{port}\n"))?;
    std::fs::rename(&tmp, path)
}

fn poll_port_file(path: &Path, deadline: Instant) -> std::io::Result<u16> {
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return Ok(port);
            }
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("rendezvous file {} never appeared", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

impl TcpTransport {
    /// Build an in-process loopback mesh over `endpoints` endpoints: one
    /// real socket pair per unordered endpoint pair, every non-self
    /// message crossing the kernel. Modeled α–β delay (`net`) and fault
    /// injection compose on top exactly as in the in-memory fabric.
    pub fn mesh(
        endpoints: usize,
        net: NetConfig,
        faults: Option<FaultPlan>,
    ) -> std::io::Result<TcpTransport> {
        let total = endpoints;
        let mut conns: Vec<Option<Conn>> = (0..total * total).map(|_| None).collect();
        for a in 0..total {
            for b in a + 1..total {
                // Frames written into `sa` (by endpoint a) surface on `sb`
                // and vice versa.
                let (sa, sb) = socket_pair()?;
                conns[a * total + b] = Some(Conn::new(sa));
                conns[b * total + a] = Some(Conn::new(sb));
            }
        }

        // RTT probe over the (0, 1) pair, before any reader owns it.
        let mut rtt = RTT_FLOOR;
        if total >= 2 {
            let deadline = Instant::now() + setup_timeout();
            let ping01 = encode_frame(FrameHeader::control(FrameKind::Ping, 0), &[]);
            let pong10 = encode_frame(FrameHeader::control(FrameKind::Pong, 1), &[]);
            let mut s01 = conns[1]
                .as_ref()
                .expect("pair (0,1) exists")
                .stream
                .try_clone()?;
            let mut s10 = conns[total]
                .as_ref()
                .expect("pair (1,0) exists")
                .stream
                .try_clone()?;
            let t0 = Instant::now();
            for _ in 0..RTT_PROBES {
                s01.write_all(&ping01)?;
                expect_kind(&read_frame_deadline(&mut s10, deadline)?, FrameKind::Ping)?;
                s10.write_all(&pong10)?;
                expect_kind(&read_frame_deadline(&mut s01, deadline)?, FrameKind::Pong)?;
            }
            rtt = (t0.elapsed() / RTT_PROBES).max(RTT_FLOOR);
        }

        let inner = Inner::new(Topology::Mesh { conns }, total, net, faults, rtt);
        // Mirror `Fabric::with_faults`: endpoints scheduled to die before
        // their first send are dead from the start, not merely on first use.
        if let Some((plan, _)) = &inner.faults {
            for ep in plan.dead_on_arrival() {
                inner.dead[ep].store(true, Ordering::SeqCst);
            }
        }
        Self::finish(inner)
    }

    /// Join a multi-process world as `rank` of `world`: full-mesh
    /// connection establishment through the rendezvous rank (see the
    /// [module docs](self)), a ring RTT probe, then the reader threads
    /// and the heartbeat timer.
    ///
    /// The returned transport serves exactly the `world` rank endpoints;
    /// in-network switch endpoints are a single-process (mesh/fabric)
    /// feature.
    pub fn connect(
        rank: usize,
        world: usize,
        rendezvous: Rendezvous,
        net: NetConfig,
    ) -> std::io::Result<TcpTransport> {
        assert!(rank < world, "rank {rank} outside world {world}");
        let deadline = Instant::now() + setup_timeout();
        let mut conns: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();

        if world > 1 {
            if rank == 0 {
                let listener = match &rendezvous {
                    Rendezvous::Port(p) => TcpListener::bind((Ipv4Addr::LOCALHOST, *p))?,
                    Rendezvous::File(path) => {
                        let l = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
                        publish_port(path, l.local_addr()?.port())?;
                        l
                    }
                };
                let mut ports = vec![0u16; world];
                for _ in 1..world {
                    let mut s = accept_deadline(&listener, deadline)?;
                    let hello = read_frame_deadline(&mut s, deadline)?;
                    expect_kind(&hello, FrameKind::Hello)?;
                    let peer = hello.header.from as usize;
                    if peer == 0
                        || peer >= world
                        || conns[peer].is_some()
                        || hello.payload.len() != 2
                    {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad hello from alleged rank {peer}"),
                        ));
                    }
                    ports[peer] = u16::from_le_bytes([hello.payload[0], hello.payload[1]]);
                    conns[peer] = Some(s);
                }
                let table: Vec<u8> = ports.iter().flat_map(|p| p.to_le_bytes()).collect();
                let frame = encode_frame(FrameHeader::control(FrameKind::Table, 0), &table);
                for s in conns.iter_mut().flatten() {
                    s.write_all(&frame)?;
                }
            } else {
                // Every rank binds its data listener *before* talking to
                // rank 0, so any port published in the table is live.
                let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
                let my_port = listener.local_addr()?.port();
                let rdv_port = match &rendezvous {
                    Rendezvous::Port(p) => *p,
                    Rendezvous::File(path) => poll_port_file(path, deadline)?,
                };
                let mut s = connect_retry(rdv_port, deadline)?;
                s.write_all(&encode_frame(
                    FrameHeader::control(FrameKind::Hello, rank),
                    &my_port.to_le_bytes(),
                ))?;
                let table = read_frame_deadline(&mut s, deadline)?;
                expect_kind(&table, FrameKind::Table)?;
                let ports: Vec<u16> = table
                    .payload
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]))
                    .collect();
                if ports.len() != world {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "rendezvous table has the wrong arity",
                    ));
                }
                conns[0] = Some(s);
                // Mesh among non-zero ranks: dial every lower rank, accept
                // from every higher one.
                for (j, port) in ports.iter().enumerate().take(rank).skip(1) {
                    let mut s = connect_retry(*port, deadline)?;
                    s.write_all(&encode_frame(
                        FrameHeader::control(FrameKind::Hello, rank),
                        &[],
                    ))?;
                    conns[j] = Some(s);
                }
                for _ in rank + 1..world {
                    let mut s = accept_deadline(&listener, deadline)?;
                    let hello = read_frame_deadline(&mut s, deadline)?;
                    expect_kind(&hello, FrameKind::Hello)?;
                    let peer = hello.header.from as usize;
                    if peer <= rank || peer >= world || conns[peer].is_some() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad mesh hello from alleged rank {peer}"),
                        ));
                    }
                    conns[peer] = Some(s);
                }
            }
        }

        // Ring RTT probe: ping the next rank, serve the previous one.
        // First writes are unconditional, so the ring cannot deadlock; per
        // connection FIFO guarantees the probe frames drain before any
        // data frame a reader thread should see.
        let mut rtt = RTT_FLOOR;
        if world > 1 {
            let next = (rank + 1) % world;
            let prev = (rank + world - 1) % world;
            let t0 = Instant::now();
            for _ in 0..RTT_PROBES {
                {
                    let s = conns[next].as_mut().expect("ring neighbour connected");
                    s.write_all(&encode_frame(
                        FrameHeader::control(FrameKind::Ping, rank),
                        &[],
                    ))?;
                }
                {
                    let s = conns[prev].as_mut().expect("ring neighbour connected");
                    expect_kind(&read_frame_deadline(s, deadline)?, FrameKind::Ping)?;
                    s.write_all(&encode_frame(
                        FrameHeader::control(FrameKind::Pong, rank),
                        &[],
                    ))?;
                }
                {
                    let s = conns[next].as_mut().expect("ring neighbour connected");
                    expect_kind(&read_frame_deadline(s, deadline)?, FrameKind::Pong)?;
                }
            }
            rtt = (t0.elapsed() / RTT_PROBES).max(RTT_FLOOR);
        }

        let topo = Topology::Proc {
            me: rank,
            conns: conns.into_iter().map(|s| s.map(Conn::new)).collect(),
        };
        Self::finish(Inner::new(topo, world, net, None, rtt))
    }

    /// [`TcpTransport::connect`] configured entirely from the environment
    /// the [`Launcher`](crate::Launcher) sets: `HEAR_RANK`, `HEAR_WORLD`,
    /// and `HEAR_PORT_BASE` / `HEAR_RENDEZVOUS_FILE`. Returns the
    /// transport plus `(rank, world)`. `None` when the environment says
    /// this is not a launched child.
    pub fn connect_from_env() -> Option<std::io::Result<(TcpTransport, usize, usize)>> {
        let rank = std::env::var("HEAR_RANK").ok()?.parse::<usize>().ok()?;
        let world = std::env::var("HEAR_WORLD").ok()?.parse::<usize>().ok()?;
        let rendezvous = Rendezvous::from_env()?;
        Some(
            TcpTransport::connect(rank, world, rendezvous, NetConfig::instant())
                .map(|t| (t, rank, world)),
        )
    }

    /// Go live: every socket fully blocking on the read side and bounded
    /// by one heartbeat interval per stalled write, one reader thread per
    /// connection, and — in the multi-process topology only — the
    /// heartbeat timer. On an error part-way, dropping the transport stops
    /// the threads that already started.
    fn finish(inner: Inner) -> std::io::Result<TcpTransport> {
        let inner = Arc::new(inner);
        let mut transport = TcpTransport {
            inner: inner.clone(),
            threads: Vec::new(),
        };
        for (slot, conn) in inner.topo.conns().iter().enumerate() {
            let Some(conn) = conn else { continue };
            conn.stream.set_read_timeout(None)?;
            conn.stream
                .set_write_timeout(Some(inner.heartbeat.interval))?;
            // Frames on `conns[from * total + to]` (mesh) or `conns[to]`
            // (multi-process) come from endpoint `to`.
            let (inner, stream, peer) =
                (inner.clone(), conn.stream.try_clone()?, slot % inner.total);
            transport
                .threads
                .push(spawn_service("hear-tcp-reader", move || {
                    reader_loop(inner, stream, peer)
                })?);
        }
        if let Topology::Proc { .. } = inner.topo {
            let inner = inner.clone();
            transport
                .threads
                .push(spawn_service("hear-tcp-heartbeat", move || {
                    heartbeat_loop(inner)
                })?);
        }
        Ok(transport)
    }
}

impl Transport for TcpTransport {
    fn endpoints(&self) -> usize {
        self.inner.total
    }

    fn send_boxed(
        &self,
        from: usize,
        to: usize,
        tag: u64,
        mut payload: Box<dyn Any + Send>,
        bytes: usize,
    ) {
        let inner = &*self.inner;
        if inner.is_dead(from) {
            return; // a dead endpoint emits nothing
        }
        let SendVerdict {
            decision,
            kill_after,
            suspect,
        } = filter_send(
            inner.faults.as_ref(),
            inner.is_dead(to),
            from,
            to,
            tag,
            &mut payload,
        );
        if let Some(flag) = suspect {
            inner.set_suspicion(&inner.suspect, from, flag);
        }
        if let SendDecision::Deliver { dup, extra_delay } = decision {
            if let Some(copy) = dup {
                inner.ship(from, to, tag, copy, bytes, Duration::ZERO);
            }
            inner.ship(from, to, tag, payload, bytes, extra_delay);
        }
        if kill_after {
            hear_telemetry::incr(hear_telemetry::Metric::FaultKill);
            self.kill(from);
        }
    }

    fn recv_on(
        &self,
        me: usize,
        source: usize,
        tag: u64,
        deadline: Option<Instant>,
    ) -> Result<Envelope, CommError> {
        let inner = &*self.inner;
        let mut env = recv_on_mailboxes(
            &inner.mailboxes,
            &|ep| inner.is_dead(ep),
            &|ep| inner.is_suspect(ep),
            me,
            source,
            tag,
            deadline,
        )?;
        // Socket-borne user-codec messages arrive encoded (see
        // `RawPayload`); primitive payloads and local deposits are already
        // typed and pass through untouched.
        if env.payload.is::<RawPayload>() {
            let raw = env
                .payload
                .downcast::<RawPayload>()
                .expect("checked RawPayload");
            env.payload = wire::decode_payload(raw.wire_id, &raw.bytes);
        }
        Ok(env)
    }

    fn pending_queues(&self, endpoint: usize) -> usize {
        self.inner.mailboxes[endpoint].pending_queues()
    }

    fn is_dead(&self, endpoint: usize) -> bool {
        self.inner.is_dead(endpoint)
    }

    fn kill(&self, endpoint: usize) {
        self.inner.mark_dead(endpoint);
        // In multi-process mode, killing the *local* rank must be visible
        // to the other processes: shutting the sockets gives every peer an
        // EOF, which their reader threads map to a dead endpoint.
        if let Topology::Proc { me, conns } = &self.inner.topo {
            if endpoint == *me {
                for conn in conns.iter().flatten() {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
            }
        }
    }

    fn rtt_estimate(&self) -> Duration {
        self.inner.rtt
    }

    fn name(&self) -> &'static str {
        "tcp"
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Shutting a socket down wakes its reader out of `read` (and a
        // writer stalled on it out of `write`); the timer is parked.
        for conn in self.inner.topo.conns().iter().flatten() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: usize) -> TcpTransport {
        TcpTransport::mesh(n, NetConfig::instant(), None).expect("loopback mesh")
    }

    /// A live transport of `total` endpoints whose only connection, 0 → 1,
    /// ends in a raw socket the test drives by hand: what the test writes
    /// there the connection's reader thread sees as coming from endpoint
    /// 1, and what endpoint 0 sends to 1 piles up there until the test
    /// reads it.
    fn raw_link(total: usize, heartbeat: Heartbeat) -> (TcpTransport, TcpStream) {
        let (near, far) = socket_pair().expect("loopback pair");
        let mut conns: Vec<Option<Conn>> = (0..total * total).map(|_| None).collect();
        conns[1] = Some(Conn::new(near));
        let mut inner = Inner::new(
            Topology::Mesh { conns },
            total,
            NetConfig::instant(),
            None,
            RTT_FLOOR,
        );
        inner.heartbeat = heartbeat;
        (TcpTransport::finish(inner).expect("go live"), far)
    }

    const PATIENT: Heartbeat = Heartbeat {
        interval: Duration::from_millis(100),
        miss_budget: 10,
    };

    fn msg_frame(from: u32, to: u32, tag: u64, payload: &[u64]) -> Vec<u8> {
        let (type_id, body) = wire::encode_payload(&payload.to_vec());
        let header = FrameHeader {
            kind: FrameKind::Msg,
            type_id,
            from,
            to,
            tag,
            delay_ns: 0,
            len: 0,
        };
        encode_frame(header, &body)
    }

    fn far_future() -> Option<Instant> {
        Some(Instant::now() + Duration::from_secs(10))
    }

    /// Pin: no timed sleep on the receive path. 2 000 round trips of 16
    /// bytes must fit in 200 ms (100 µs each) in the best of three tries —
    /// loose enough for a busy runner, but a 100 µs poll sleep per hop
    /// needs ≈ 770 ms.
    #[test]
    fn mesh_ping_pong_has_no_timed_sleep_in_the_hop() {
        const ROUNDS: u64 = 2_000;
        let t = Arc::new(mesh(2));
        let best = (0..3)
            .map(|_| {
                let echo = {
                    let t = t.clone();
                    std::thread::spawn(move || {
                        for i in 0..ROUNDS {
                            let env = t.recv_on(1, 0, i, far_future()).unwrap();
                            t.send_boxed(1, 0, i, env.payload, 16);
                        }
                    })
                };
                let t0 = Instant::now();
                for i in 0..ROUNDS {
                    t.send_boxed(0, 1, i, Box::new(vec![i, !i]), 16);
                    let env = t.recv_on(0, 1, i, far_future()).unwrap();
                    assert_eq!(*env.payload.downcast::<Vec<u64>>().unwrap(), vec![i, !i]);
                }
                let took = t0.elapsed();
                echo.join().unwrap();
                took
            })
            .min()
            .unwrap();
        assert!(
            best < Duration::from_millis(200),
            "{ROUNDS} round trips took {best:?}: something sleeps on the hop"
        );
    }

    /// Torn delivery straight off a socket: a header split across two
    /// writes and a payload dribbled one byte at a time reassemble, and
    /// the frame behind them is still in step.
    #[test]
    fn torn_delivery_reassembles_off_a_raw_socket() {
        let (t, mut far) = raw_link(2, PATIENT);
        let first = msg_frame(1, 0, 5, &[0xDEAD_BEEF, 7, u64::MAX]);
        far.write_all(&first[..13]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        far.write_all(&first[13..HEADER_LEN]).unwrap();
        for b in &first[HEADER_LEN..] {
            far.write_all(std::slice::from_ref(b)).unwrap();
        }
        far.write_all(&msg_frame(1, 0, 5, &[1])).unwrap();
        for want in [vec![0xDEAD_BEEF, 7, u64::MAX], vec![1]] {
            let env = t.recv_on(0, 1, 5, far_future()).unwrap();
            assert_eq!(*env.payload.downcast::<Vec<u64>>().unwrap(), want);
        }
        assert!(!t.is_dead(1));
    }

    /// A corrupt header is an unrecoverable desync of that one stream: the
    /// peer behind it is dead, nobody else is.
    #[test]
    fn corrupt_header_kills_exactly_that_peer() {
        let (t, mut far) = raw_link(3, PATIENT);
        far.write_all(&msg_frame(1, 0, 1, &[9])).unwrap();
        let mut bad = msg_frame(1, 0, 2, &[9]);
        bad[0] ^= 0xFF;
        far.write_all(&bad).unwrap();
        let env = t.recv_on(0, 1, 1, far_future()).unwrap();
        assert_eq!(*env.payload.downcast::<Vec<u64>>().unwrap(), vec![9]);
        assert_eq!(
            t.recv_on(0, 1, 2, far_future()).unwrap_err(),
            CommError::PeerDead { peer: 1 }
        );
        assert!(t.is_dead(1));
        assert!(!t.is_dead(0) && !t.is_dead(2));
    }

    /// A frame with a `type_id` nobody registered is read off the stream
    /// whole and fails only its own receive, as a `TypeMismatch`; the
    /// frame behind it and the connection are fine.
    #[test]
    fn unregistered_type_id_is_a_type_mismatch_for_one_receive_only() {
        let (t, mut far) = raw_link(2, PATIENT);
        let mut alien = msg_frame(1, 0, 1, &[1, 2]);
        alien[4..8].copy_from_slice(&0x3FFF_FFF0u32.to_le_bytes());
        far.write_all(&alien).unwrap();
        far.write_all(&msg_frame(1, 0, 2, &[3])).unwrap();
        let comm = crate::Communicator::new(0, 2, Arc::new(t));
        let wait = Duration::from_secs(10);
        assert!(matches!(
            comm.recv_timeout::<u64>(1, 1, wait),
            Err(CommError::TypeMismatch {
                source: 1,
                tag: 1,
                ..
            })
        ));
        assert_eq!(comm.recv_timeout::<u64>(1, 2, wait), Ok(vec![3]));
        assert!(!comm.is_peer_dead(1));
    }

    /// Every reader of a 4-endpoint mesh (12 of them) is parked in `read`
    /// with nothing to read; `Drop` must get them all out promptly.
    #[test]
    fn drop_unparks_readers_blocked_in_read() {
        let t = mesh(4);
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(t);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "drop took {:?}",
            t0.elapsed()
        );
    }

    /// Slow is not dead: a write into a full socket buffer marks the peer
    /// suspect while it makes no progress, and finishes — peer alive, no
    /// longer suspect, frame intact, one reconnect counted however often
    /// the write hiccuped — once the far end drains. A fault plan's
    /// disconnect window on the same endpoint is a separate flag: the
    /// write healing must not close it.
    #[test]
    fn stalled_write_is_suspect_then_heals() {
        const LEN: usize = 32 << 20;
        let hb = Heartbeat {
            interval: Duration::from_millis(20),
            miss_budget: 500,
        };
        let (t, mut far) = raw_link(2, hb);
        let t = Arc::new(t);
        let sender = {
            let t = t.clone();
            std::thread::spawn(move || {
                let reg = hear_telemetry::Registry::new_enabled();
                let _g = reg.install(None);
                t.send_boxed(0, 1, 3, Box::new(vec![0xA5u8; LEN]), LEN);
                reg.counter(hear_telemetry::Metric::ReconnectsTotal)
            })
        };
        let t0 = Instant::now();
        while !t.inner.is_suspect(1) {
            assert!(t0.elapsed() < Duration::from_secs(5), "never went suspect");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!t.is_dead(1));
        t.inner.set_suspicion(&t.inner.suspect, 1, true);
        let mut frame = vec![0u8; HEADER_LEN + LEN];
        // Drain in two gulps with a pause, so the write stalls twice.
        far.read_exact(&mut frame[..LEN / 2]).unwrap();
        std::thread::sleep(Duration::from_millis(60));
        far.read_exact(&mut frame[LEN / 2..]).unwrap();
        assert_eq!(sender.join().unwrap(), 1, "one reconnect per frame");
        assert!(t.inner.is_suspect(1), "the injected window was closed");
        t.inner.set_suspicion(&t.inner.suspect, 1, false);
        assert!(!t.is_dead(1) && !t.inner.is_suspect(1));
        assert_eq!(
            FrameHeader::decode(frame[..HEADER_LEN].try_into().unwrap())
                .unwrap()
                .len as usize,
            LEN
        );
        assert!(frame[HEADER_LEN..].iter().all(|b| *b == 0xA5));
    }

    /// A stall that outlives `interval × miss_budget` is a dead peer, and
    /// the blocked send returns.
    #[test]
    fn stall_past_the_silence_budget_is_peer_dead() {
        const LEN: usize = 32 << 20;
        let hb = Heartbeat {
            interval: Duration::from_millis(10),
            miss_budget: 3,
        };
        let (t, _far) = raw_link(2, hb);
        let t0 = Instant::now();
        t.send_boxed(0, 1, 3, Box::new(vec![0u8; LEN]), LEN);
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(t.is_dead(1) && !t.inner.is_suspect(1));
    }

    #[test]
    fn mesh_message_crosses_a_real_socket() {
        let t = mesh(2);
        t.send_boxed(0, 1, 7, Box::new(vec![1u64, 2, 3]), 24);
        let env = t
            .recv_on(1, 0, 7, Some(Instant::now() + Duration::from_secs(5)))
            .unwrap();
        assert_eq!(*env.payload.downcast::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn mesh_self_send_short_circuits() {
        let t = mesh(2);
        t.send_boxed(0, 0, 9, Box::new(vec![5u32]), 4);
        let env = t
            .recv_on(0, 0, 9, Some(Instant::now() + Duration::from_secs(5)))
            .unwrap();
        assert_eq!(*env.payload.downcast::<Vec<u32>>().unwrap(), vec![5]);
    }

    #[test]
    fn mesh_fifo_survives_framing() {
        let t = mesh(2);
        for i in 0..50u32 {
            t.send_boxed(0, 1, 3, Box::new(vec![i]), 4);
        }
        for i in 0..50u32 {
            let env = t
                .recv_on(1, 0, 3, Some(Instant::now() + Duration::from_secs(5)))
                .unwrap();
            assert_eq!(*env.payload.downcast::<Vec<u32>>().unwrap(), vec![i]);
        }
    }

    #[test]
    fn mesh_kill_resolves_waiters_to_peer_dead() {
        let t = Arc::new(mesh(2));
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.recv_on(1, 0, 0, None));
        std::thread::sleep(Duration::from_millis(20));
        t.kill(0);
        assert_eq!(
            h.join().unwrap().unwrap_err(),
            CommError::PeerDead { peer: 0 }
        );
        // And a corpse emits nothing: the send is suppressed and the
        // receive short-circuits on the death flag.
        t.send_boxed(0, 1, 1, Box::new(vec![1u8]), 1);
        let err = t
            .recv_on(1, 0, 1, Some(Instant::now() + Duration::from_millis(30)))
            .unwrap_err();
        assert_eq!(err, CommError::PeerDead { peer: 0 });
    }

    #[test]
    fn mesh_timeout_is_typed() {
        let t = mesh(2);
        let err = t
            .recv_on(1, 0, 42, Some(Instant::now() + Duration::from_millis(10)))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CommError::Timeout {
                    source: 0,
                    tag: 42,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn mesh_measures_a_positive_rtt() {
        let t = mesh(3);
        assert!(t.rtt_estimate() >= RTT_FLOOR);
        assert!(
            t.rtt_estimate() < Duration::from_secs(1),
            "loopback rtt {:?}",
            t.rtt_estimate()
        );
        assert_eq!(t.name(), "tcp");
        assert_eq!(t.endpoints(), 3);
    }

    #[test]
    fn mesh_faults_drop_and_duplicate_over_sockets() {
        // Drop everything: nothing arrives.
        let t = TcpTransport::mesh(
            2,
            NetConfig::instant(),
            Some(FaultPlan::seeded(1).drop_one_in(1)),
        )
        .unwrap();
        t.send_boxed(0, 1, 0, Box::new(vec![1u32]), 4);
        assert!(matches!(
            t.recv_on(1, 0, 0, Some(Instant::now() + Duration::from_millis(40))),
            Err(CommError::Timeout { .. })
        ));

        // Duplicate everything: two copies arrive through the socket.
        let t = TcpTransport::mesh(
            2,
            NetConfig::instant(),
            Some(FaultPlan::seeded(1).duplicate_one_in(1)),
        )
        .unwrap();
        t.send_boxed(0, 1, 0, Box::new(vec![7u32]), 4);
        for _ in 0..2 {
            let env = t
                .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_secs(5)))
                .unwrap();
            assert_eq!(*env.payload.downcast::<Vec<u32>>().unwrap(), vec![7]);
        }
    }

    #[test]
    fn mesh_fault_corrupt_flips_bits_before_encoding() {
        let t = TcpTransport::mesh(
            2,
            NetConfig::instant(),
            Some(FaultPlan::seeded(1).corrupt_one_in(1)),
        )
        .unwrap();
        t.send_boxed(0, 1, 0, Box::new(vec![0u32; 4]), 16);
        let env = t
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_secs(5)))
            .unwrap();
        let got = env.payload.downcast::<Vec<u32>>().unwrap();
        let flipped: u32 = got.iter().map(|w| w.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped: {got:?}");
    }

    #[test]
    fn mesh_injected_delay_rides_the_header() {
        let t = TcpTransport::mesh(
            2,
            NetConfig::instant(),
            Some(FaultPlan::seeded(1).delay_one_in(1, Duration::from_millis(60))),
        )
        .unwrap();
        t.send_boxed(0, 1, 0, Box::new(vec![9u8]), 1);
        // The delayed message times out a tight deadline ("late, not
        // lost")...
        let err = t
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_millis(10)))
            .unwrap_err();
        assert!(matches!(err, CommError::Timeout { .. }));
        // ...and is delivered intact to a patient receiver.
        let env = t
            .recv_on(1, 0, 0, Some(Instant::now() + Duration::from_secs(5)))
            .unwrap();
        assert_eq!(*env.payload.downcast::<Vec<u8>>().unwrap(), vec![9]);
    }

    #[test]
    fn mesh_alpha_beta_model_applies_over_sockets() {
        let net = NetConfig {
            alpha: Duration::from_millis(30),
            beta_ns_per_byte: 0.0,
        };
        let t = TcpTransport::mesh(2, net, None).unwrap();
        let t0 = Instant::now();
        t.send_boxed(0, 1, 0, Box::new(vec![1u8]), 1);
        t.recv_on(1, 0, 0, None).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(28),
            "elapsed {:?}",
            t0.elapsed()
        );
    }
}
