//! The shard node: a [`BlobStore`] served over the framed TCP protocol.
//!
//! A node is `workers` identical serving loops. Each owns the
//! connections it accepted and `poll(2)`s them together with the shared
//! non-blocking listener (`sys.rs`, as the client's completion loop
//! does): requests are read with the resumable [`FrameReader`], run
//! against the [`BlobStore`] inline, and answered with `write_gathered`
//! from wherever the socket stopped, so a quiet connection holds no
//! thread. A connection is served one request at a time and is not read
//! while its answer is going out (docs/STORE.md §1). Every wait — the
//! frame, idle and write-stall deadlines, the injected delay, the drain
//! after a `BadFrame` answer — is a per-connection instant that bounds
//! the poll.
//!
//! Hostile-input posture: a frame's length prefix is bounded before any
//! allocation ([`crate::proto::MAX_BODY`]), malformed payloads get typed
//! `ERR` responses on an intact stream, and framing-level damage gets
//! one `ERR BadFrame` answer before the connection is closed (after a
//! framing error the stream position is unknowable).

use crate::blob::{BlobError, BlobStore};
use crate::error::RemoteErrorCode;
use crate::proto::{
    self, err_payload, frame_crc, frame_head, op, status, write_gathered, Frame, FrameError,
    FrameReader, PayloadReader, HEAD_LEN,
};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::tree::HashBlob;
use ec_wire::merkle::MerkleTree;
use std::io::{ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A peer that started a frame must finish it within this budget
/// (slow-loris bound), and a peer being answered must take bytes at
/// least this often.
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Idle connections are closed after this long without a frame.
const IDLE_DEADLINE: Duration = Duration::from_secs(60);

/// Connections past this many open on the node are closed at accept
/// (connection floods must not grow server memory).
const MAX_CONNECTIONS: usize = 1024;

/// How long a loop leaves the listener out of its poll set after a
/// failed `accept` (EMFILE under an fd-exhaustion flood): a listener
/// that stays readable would otherwise spin the loop at 100% CPU.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a connection closed for a framing error is drained.
const DRAIN: Duration = Duration::from_millis(250);

/// Default serving-loop count when `workers == 0`.
const DEFAULT_WORKERS: usize = 4;

struct Shared {
    store: BlobStore,
    /// Non-blocking; every loop polls it and accepts from it.
    listener: TcpListener,
    shutdown: AtomicBool,
    /// Connections open across every loop, capped at [`MAX_CONNECTIONS`].
    open: AtomicUsize,
    /// Artificial per-request service delay (RTT injection for latency
    /// benchmarks and the CI slow-node round). Applied after a request
    /// frame is read, before it is dispatched.
    response_delay: Option<Duration>,
    /// When set, [`Shared::response_delay`] applies only to keyed
    /// requests whose key starts with this prefix (e.g. `"s:"` to slow
    /// shard traffic while manifest traffic stays fast).
    delay_key_prefix: Option<String>,
}

/// Tuning knobs for [`NodeHandle::spawn_with`].
#[derive(Clone, Debug, Default)]
pub struct NodeOptions {
    /// Serving loops, one thread each, each serving any number of
    /// connections (`0` = default).
    pub workers: usize,
    /// Hold each request this long before answering it — a deterministic
    /// stand-in for network RTT, used to demonstrate that cluster
    /// operations pay max-of-RTT rather than sum-of-RTT.
    pub response_delay: Option<Duration>,
    /// Restrict [`NodeOptions::response_delay`] to keyed requests whose
    /// key starts with this prefix. `None` delays every request.
    pub delay_key_prefix: Option<String>,
}

/// A running shard node. Dropping the handle (or calling
/// [`NodeHandle::shutdown`]) stops the serving loops and closes every
/// connection.
pub struct NodeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// Serve `dir` on `bind` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) with `workers` serving loops (`0` = default).
    pub fn spawn(dir: &Path, bind: &str, workers: usize) -> std::io::Result<NodeHandle> {
        NodeHandle::spawn_with(
            dir,
            bind,
            NodeOptions {
                workers,
                ..NodeOptions::default()
            },
        )
    }

    /// [`NodeHandle::spawn`] with the full option set.
    pub fn spawn_with(dir: &Path, bind: &str, opts: NodeOptions) -> std::io::Result<NodeHandle> {
        let store = BlobStore::open(dir)?;
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            listener,
            shutdown: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            response_delay: opts.response_delay,
            delay_key_prefix: opts.delay_key_prefix,
        });
        let workers = if opts.workers == 0 {
            DEFAULT_WORKERS
        } else {
            opts.workers
        };
        let threads = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name(format!("store-serve-{i}"))
                    .spawn(move || serve(&shared))
            })
            .collect::<std::io::Result<_>>()?;
        Ok(NodeHandle {
            addr,
            shared,
            threads,
        })
    }

    /// The address the node is actually listening on (resolves the
    /// ephemeral port of a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving: the loops exit, every connection is closed, and
    /// all threads are joined. From the clients' perspective the node
    /// is dead (connection refused / reset) — this is also how tests
    /// and the example kill nodes.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every loop polls the listener, so throwaway connections wake
        // them. One per loop: a loop accepts at most one connection between
        // two looks at the flag, and a wake it accepts is lost to the rest.
        for _ in &self.threads {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One serving loop: wait until the listener or a connection is ready or
/// due, move each such connection as far as it goes, take at most one
/// new connection, and again — until shutdown.
fn serve(shared: &Shared) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // When the listener rejoins the poll set after a failed `accept`.
    let mut listen_at = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        let listening = now >= listen_at;
        let mut wake = (!listening).then_some(listen_at);
        fds.clear();
        if listening {
            fds.push(PollFd::new(&shared.listener, POLLIN));
        }
        for conn in &conns {
            fds.push(PollFd::new(&conn.stream, conn.phase.events()));
            wake = Some(wake.map_or(conn.deadline, |w| w.min(conn.deadline)));
        }
        // Nothing due: sleep until the listener or a connection speaks.
        let timeout = wake.map_or(Duration::MAX, |w| w.saturating_duration_since(now));
        if sys::poll_ready(&mut fds, timeout).is_err() {
            // ENOMEM: back off rather than spin.
            thread::sleep(ACCEPT_BACKOFF);
            continue;
        }
        let now = Instant::now();
        let (listener, conn_fds) = fds.split_at(listening as usize);
        let mut revents = conn_fds.iter().map(|fd| fd.revents);
        conns.retain_mut(|conn| {
            let revents = revents.next().expect("one pollfd per connection");
            let keep = (revents == 0 && now < conn.deadline) || conn.advance(revents, now, shared);
            if !keep {
                shared.open.fetch_sub(1, Ordering::Relaxed);
            }
            keep
        });
        if listener.first().is_some_and(|fd| fd.revents != 0) {
            match shared.listener.accept() {
                Ok((stream, _peer)) => conns.extend(admit(stream, shared)),
                // Another loop took it.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(_) => listen_at = now + ACCEPT_BACKOFF,
            }
        }
    }
}

/// A freshly accepted connection — or `None`, the socket closed, when the
/// node is full (flood protection) or the socket cannot be set up.
fn admit(stream: TcpStream, shared: &Shared) -> Option<Conn> {
    if shared.open.fetch_add(1, Ordering::Relaxed) >= MAX_CONNECTIONS
        || stream.set_nonblocking(true).is_err()
    {
        shared.open.fetch_sub(1, Ordering::Relaxed);
        return None;
    }
    let _ = stream.set_nodelay(true);
    Some(Conn {
        stream,
        reader: FrameReader::default(),
        phase: Phase::Reading,
        deadline: Instant::now() + IDLE_DEADLINE,
    })
}

/// One connection a loop serves.
struct Conn {
    stream: TcpStream,
    /// The request being received; keeps its place across `WouldBlock`.
    reader: FrameReader,
    phase: Phase,
    /// The idle or frame deadline while reading, the stall deadline while
    /// writing, the end of a drain — past it the connection is closed —
    /// or when a delayed request is due.
    deadline: Instant,
}

enum Phase {
    /// Waiting for a request frame, or for the rest of one.
    Reading,
    /// A request is in; it is served at the deadline — at once, unless a
    /// response delay is injected.
    Delayed(Frame),
    /// An answer is going out, `written` bytes of it so far; `close`
    /// after a framing error.
    Writing {
        head: [u8; HEAD_LEN],
        payload: Vec<u8>,
        crc: [u8; 4],
        written: usize,
        close: bool,
    },
    /// Half-closed after a framing error: what the peer still sends is
    /// read and dropped, until it closes or the drain runs out.
    Draining,
}

impl Phase {
    /// What `poll` should watch the socket for. A delayed answer waits
    /// on its deadline alone (errors are reported regardless).
    fn events(&self) -> i16 {
        match self {
            Phase::Reading | Phase::Draining => POLLIN,
            Phase::Writing { .. } => POLLOUT,
            Phase::Delayed(_) => 0,
        }
    }
}

impl Conn {
    /// Move the connection as far as its socket and deadline allow, given
    /// what `poll` reported for it. `false` = done with: close it.
    fn advance(&mut self, revents: i16, now: Instant, shared: &Shared) -> bool {
        match self.phase {
            // An error or hang-up while the answer was held.
            Phase::Delayed(_) if revents != 0 => return false,
            Phase::Delayed(_) => {}
            // Idle too long, a frame or an answer stalled, a drain done.
            _ if now >= self.deadline => return false,
            _ => {}
        }
        loop {
            match &mut self.phase {
                Phase::Reading => {
                    let in_frame = self.reader.in_frame();
                    match self.reader.read(&mut self.stream) {
                        Ok(frame) => {
                            let delay = shared
                                .response_delay
                                .filter(|_| delay_applies(shared, &frame));
                            self.deadline = Instant::now() + delay.unwrap_or_default();
                            self.phase = Phase::Delayed(frame);
                        }
                        Err(FrameError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {
                            if !in_frame && self.reader.in_frame() {
                                self.deadline = Instant::now() + FRAME_DEADLINE;
                            }
                            return true;
                        }
                        Err(FrameError::Eof | FrameError::Io(_)) => return false,
                        Err(e) => {
                            // One best-effort typed answer, then close.
                            // No request id was recovered from the broken
                            // frame, so the answer carries the reserved one.
                            let payload = err_payload(RemoteErrorCode::BadFrame, &e.detail());
                            self.send(status::ERR, proto::NO_REQUEST_ID, payload, true);
                        }
                    }
                }
                Phase::Delayed(_) if Instant::now() < self.deadline => return true,
                Phase::Delayed(_) => {
                    let Phase::Delayed(frame) = std::mem::replace(&mut self.phase, Phase::Reading)
                    else {
                        unreachable!("matched above")
                    };
                    // A panic while serving one request (a bug, or an
                    // assert in a lower layer) drops this connection, not
                    // the loop and every other connection on it.
                    let store = &shared.store;
                    let served = panic::catch_unwind(AssertUnwindSafe(|| dispatch(&frame, store)));
                    let Ok((tag, payload)) = served else {
                        return false;
                    };
                    // Payload-level errors are typed `ERR` answers on an
                    // intact stream. The answer echoes the request's id,
                    // so a pipelining peer can match it.
                    self.send(tag, frame.request_id, payload, false);
                }
                Phase::Writing {
                    head,
                    payload,
                    crc,
                    written,
                    close,
                } => {
                    let (before, close) = (*written, *close);
                    let bufs = [&head[..], &payload[..], &crc[..]];
                    match write_gathered(&mut self.stream, &bufs, written) {
                        Ok(()) if close => {
                            // Half-close and briefly drain what the peer
                            // already sent: closing a socket with unread
                            // received bytes RSTs the connection, which
                            // would destroy the answer before the peer
                            // can read it.
                            let _ = self.stream.shutdown(Shutdown::Write);
                            self.phase = Phase::Draining;
                            self.deadline = Instant::now() + DRAIN;
                        }
                        Ok(()) => {
                            self.phase = Phase::Reading;
                            self.deadline = Instant::now() + IDLE_DEADLINE;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            if *written > before {
                                self.deadline = Instant::now() + FRAME_DEADLINE;
                            }
                            return true;
                        }
                        Err(_) => return false,
                    }
                }
                Phase::Draining => match (&self.stream).read(&mut [0u8; 4096]) {
                    Ok(1..) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                    _ => return false,
                },
            }
        }
    }

    /// Start writing one answer frame; `close` the connection after it.
    fn send(&mut self, tag: u8, request_id: u32, payload: Vec<u8>, close: bool) {
        let head = frame_head(tag, request_id, payload.len());
        let crc = frame_crc(&head[4..], &[&payload]);
        self.phase = Phase::Writing {
            head,
            payload,
            crc,
            written: 0,
            close,
        };
        self.deadline = Instant::now() + FRAME_DEADLINE;
    }
}

/// Whether the injected [`Shared::response_delay`] applies to `frame`.
/// With no key-prefix filter every request is delayed; with one, only
/// keyed requests (put/get/delete/stat) whose key matches the prefix.
fn delay_applies(shared: &Shared, frame: &Frame) -> bool {
    let Some(prefix) = &shared.delay_key_prefix else {
        return true;
    };
    if !matches!(
        frame.tag,
        op::PUT_SHARD | op::GET_SHARD | op::DELETE | op::STAT
    ) {
        return false;
    }
    let mut r = PayloadReader::new(&frame.payload);
    r.key()
        .map(|key| key.starts_with(prefix.as_str()))
        .unwrap_or(false)
}

/// Handle one parsed request frame; returns the response tag + payload.
fn dispatch(frame: &Frame, store: &BlobStore) -> (u8, Vec<u8>) {
    match handle(frame, store) {
        Ok(payload) => (status::OK, payload),
        Err((code, msg)) => (status::ERR, err_payload(code, &msg)),
    }
}

type Handled = Result<Vec<u8>, (RemoteErrorCode, String)>;

fn blob_err(e: BlobError) -> (RemoteErrorCode, String) {
    match e {
        BlobError::NotFound => (RemoteErrorCode::NotFound, "no such key".into()),
        BlobError::Corrupt(msg) => (RemoteErrorCode::CorruptBlob, msg),
        BlobError::Io(e) => (RemoteErrorCode::Io, e.to_string()),
    }
}

fn bad_req(msg: String) -> (RemoteErrorCode, String) {
    (RemoteErrorCode::BadRequest, msg)
}

fn handle(frame: &Frame, store: &BlobStore) -> Handled {
    let mut r = PayloadReader::new(&frame.payload);
    match frame.tag {
        op::PUT_SHARD => {
            let key = r.key().map_err(bad_req)?;
            let data = r.rest();
            store.put(key, data).map_err(blob_err)?;
            Ok(Vec::new())
        }
        op::GET_SHARD => {
            let key = r.key().map_err(bad_req)?;
            r.finish().map_err(bad_req)?;
            let payload = store.get(key).map_err(blob_err)?;
            // The blob layer allows up to 4 GiB; the frame layer does
            // not. A blob written out-of-band past the frame cap must
            // get a typed answer, not panic `write_frame`'s contract.
            if payload.len() + 6 > proto::MAX_BODY {
                return Err((
                    RemoteErrorCode::Io,
                    format!(
                        "blob of {} bytes exceeds the {}-byte frame cap",
                        payload.len(),
                        proto::MAX_BODY
                    ),
                ));
            }
            Ok(payload)
        }
        op::DELETE => {
            let key = r.key().map_err(bad_req)?;
            r.finish().map_err(bad_req)?;
            let existed = store.delete(key).map_err(blob_err)?;
            Ok(vec![existed as u8])
        }
        op::LIST => {
            let prefix = r.str_bounded(proto::MAX_KEY, "prefix").map_err(bad_req)?;
            r.finish().map_err(bad_req)?;
            let keys = store.list(prefix).map_err(|e| blob_err(e.into()))?;
            let mut payload = Vec::new();
            payload.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            for key in &keys {
                proto::put_str(&mut payload, key);
            }
            if payload.len() + 6 > proto::MAX_BODY {
                return Err(bad_req(format!(
                    "listing of {} keys exceeds the frame cap; narrow the prefix",
                    keys.len()
                )));
            }
            Ok(payload)
        }
        op::LIST_AGED => {
            let prefix = r.str_bounded(proto::MAX_KEY, "prefix").map_err(bad_req)?;
            r.finish().map_err(bad_req)?;
            let entries = store.list_meta(prefix).map_err(|e| blob_err(e.into()))?;
            let mut payload = Vec::new();
            payload.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, age_secs, len) in &entries {
                proto::put_str(&mut payload, key);
                payload.extend_from_slice(&age_secs.to_le_bytes());
                payload.extend_from_slice(&len.to_le_bytes());
            }
            if payload.len() + 6 > proto::MAX_BODY {
                return Err(bad_req(format!(
                    "listing of {} keys exceeds the frame cap; narrow the prefix",
                    entries.len()
                )));
            }
            Ok(payload)
        }
        op::STAT => {
            let key = r.key().map_err(bad_req)?;
            r.finish().map_err(bad_req)?;
            let stat = store.stat(key).map_err(blob_err)?;
            let mut payload = Vec::with_capacity(13);
            payload.extend_from_slice(&stat.len.to_le_bytes());
            payload.extend_from_slice(&stat.crc.to_le_bytes());
            payload.push(stat.ok as u8);
            Ok(payload)
        }
        op::HEALTH => {
            r.finish().map_err(bad_req)?;
            let (blobs, bytes) = store.usage().map_err(|e| blob_err(e.into()))?;
            let mut payload = Vec::with_capacity(16);
            payload.extend_from_slice(&blobs.to_le_bytes());
            payload.extend_from_slice(&bytes.to_le_bytes());
            Ok(payload)
        }
        op::HASH_SUBTREE => {
            let key = r.key().map_err(bad_req)?;
            let leaf_size = r.u32().map_err(bad_req)?;
            let source = r.u8().map_err(bad_req)?;
            let level = r.u8().map_err(bad_req)?;
            let start = r.u32().map_err(bad_req)? as usize;
            let count = r.u32().map_err(bad_req)? as usize;
            r.finish().map_err(bad_req)?;
            if leaf_size == 0 {
                return Err(bad_req("zero leaf size".into()));
            }
            // Both trees are rebuilt on demand rather than cached: a
            // scrub asks for a handful of levels per shard, and
            // recomputation is what makes the *computed* answer reflect
            // the blob bytes as they are right now — the whole point.
            let tree = match source {
                0 => {
                    let shard = store.get(key).map_err(blob_err)?;
                    MerkleTree::from_payload(&shard, leaf_size as usize)
                }
                1 => {
                    let blob = store.get(key).map_err(blob_err)?;
                    let hashes = HashBlob::from_bytes(&blob)
                        .map_err(|e| (RemoteErrorCode::CorruptBlob, e.to_string()))?;
                    if hashes.leaf_size != leaf_size {
                        return Err((
                            RemoteErrorCode::CorruptBlob,
                            format!(
                                "stored hash blob is at leaf size {}, requested {leaf_size}",
                                hashes.leaf_size
                            ),
                        ));
                    }
                    MerkleTree::from_leaves(hashes.leaves)
                }
                other => return Err(bad_req(format!("unknown hash source {other}"))),
            };
            let nodes = tree
                .level(level as usize)
                .ok_or_else(|| bad_req(format!("level {level} above the root")))?;
            let end = start
                .checked_add(count)
                .filter(|&e| e <= nodes.len())
                .ok_or_else(|| {
                    bad_req(format!(
                        "slice [{start}, {start}+{count}) outside level {level} of \
                         width {}",
                        nodes.len()
                    ))
                })?;
            let slice = &nodes[start..end];
            let mut payload = Vec::with_capacity(4 + slice.len() * 32);
            payload.extend_from_slice(&(slice.len() as u32).to_le_bytes());
            for node in slice {
                payload.extend_from_slice(node);
            }
            if payload.len() + 6 > proto::MAX_BODY {
                return Err(bad_req("hash slice exceeds the frame cap".into()));
            }
            Ok(payload)
        }
        other => Err(bad_req(format!("unknown opcode {other:#04x}"))),
    }
}
