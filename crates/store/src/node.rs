//! The shard node: a [`BlobStore`] served over the framed TCP protocol.
//!
//! The threading model mirrors `xor_runtime::ExecPool`: one acceptor
//! thread pushes connections into a `Mutex<VecDeque>` + `Condvar` queue
//! and a small fixed set of worker threads pops and serves them — no
//! thread-per-connection, no async runtime, bounded memory under a
//! connection flood (the queue has a hard cap; overflow connections are
//! dropped at accept).
//!
//! Hostile-input posture: a frame's length prefix is bounded before any
//! allocation ([`crate::proto::MAX_BODY`]), malformed payloads get typed
//! `ERR` responses on an intact stream, and framing-level damage gets
//! one `ERR BadFrame` answer before the connection is closed (after a
//! framing error the stream position is unknowable). A worker stuck on
//! a silent peer gives up after [`FRAME_DEADLINE`]; an in-flight
//! shutdown is noticed within [`POLL_TICK`].

use crate::blob::{BlobError, BlobStore};
use crate::error::RemoteErrorCode;
use crate::proto::{
    self, err_payload, op, read_frame, status, write_frame, Frame, FrameError,
    PayloadReader,
};
use crate::tree::HashBlob;
use ec_wire::merkle::MerkleTree;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use xor_runtime::lock_unpoisoned as lock;

/// How often a blocked worker re-checks the shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(100);

/// A peer that started a frame must finish it within this budget
/// (slow-loris bound); an idle connection may sit quietly for
/// [`IDLE_DEADLINE`] between frames.
const FRAME_DEADLINE: Duration = Duration::from_secs(10);

/// Idle connections are closed after this long without a frame.
const IDLE_DEADLINE: Duration = Duration::from_secs(60);

/// Accepted-but-unserved connections beyond this are dropped (connection
/// floods must not grow server memory).
const ACCEPT_BACKLOG: usize = 1024;

/// Default worker-thread count when `workers == 0`.
const DEFAULT_WORKERS: usize = 4;

struct Shared {
    store: BlobStore,
    shutdown: AtomicBool,
    /// Connections awaiting a worker, each with the instant it went
    /// idle (preserved across yields so the idle deadline still fires
    /// for a connection that keeps getting requeued).
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
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
    /// Connection-serving threads (`0` = default).
    pub workers: usize,
    /// Sleep this long before answering each request — a deterministic
    /// stand-in for network RTT, used to demonstrate that cluster
    /// operations pay max-of-RTT rather than sum-of-RTT.
    pub response_delay: Option<Duration>,
    /// Restrict [`NodeOptions::response_delay`] to keyed requests whose
    /// key starts with this prefix. `None` delays every request.
    pub delay_key_prefix: Option<String>,
}

/// A running shard node. Dropping the handle (or calling
/// [`NodeHandle::shutdown`]) stops the acceptor, drains the workers and
/// closes every in-flight connection.
pub struct NodeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// Serve `dir` on `bind` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) with `workers` connection-serving threads (`0` = default).
    pub fn spawn(dir: &Path, bind: &str, workers: usize) -> std::io::Result<NodeHandle> {
        NodeHandle::spawn_with(dir, bind, NodeOptions { workers, ..NodeOptions::default() })
    }

    /// [`NodeHandle::spawn`] with the full option set.
    pub fn spawn_with(dir: &Path, bind: &str, opts: NodeOptions) -> std::io::Result<NodeHandle> {
        let store = BlobStore::open(dir)?;
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            response_delay: opts.response_delay,
            delay_key_prefix: opts.delay_key_prefix,
        });
        let workers = if opts.workers == 0 { DEFAULT_WORKERS } else { opts.workers };
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("store-accept-{addr}"))
                    .spawn(move || acceptor_loop(&listener, &shared))?,
            );
        }
        for i in 0..workers {
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("store-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(NodeHandle { addr, shared, threads })
    }

    /// The address the node is actually listening on (resolves the
    /// ephemeral port of a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving: the acceptor exits, queued and in-flight
    /// connections are dropped, and all threads are joined. From the
    /// clients' perspective the node is dead (connection refused /
    /// reset) — this is also how tests and the example kill nodes.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of `accept()` with a throwaway
        // connection, and the workers out of their condvar wait.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        self.shared.ready.notify_all();
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

fn acceptor_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _peer)) = conn else {
            // Persistent accept failures (EMFILE under an fd-exhaustion
            // flood) would otherwise busy-spin at 100% CPU.
            thread::sleep(Duration::from_millis(10));
            continue;
        };
        // Short read timeouts let workers poll the shutdown flag; the
        // write timeout bounds a worker stuck sending to a stalled peer.
        let _ = stream.set_read_timeout(Some(POLL_TICK));
        let _ = stream.set_write_timeout(Some(FRAME_DEADLINE));
        let _ = stream.set_nodelay(true);
        let mut q = lock(&shared.queue);
        if q.len() >= ACCEPT_BACKLOG {
            continue; // drop the connection: flood protection
        }
        q.push_back((stream, Instant::now()));
        drop(q);
        shared.ready.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (stream, idle_since) = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(s) = q.pop_front() {
                    break s;
                }
                q = shared
                    .ready
                    .wait_timeout(q, POLL_TICK)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
        };
        // A panic while serving one connection (a bug, or an assert in
        // a lower layer) must not shrink the worker pool for the node's
        // lifetime — contain it and move to the next connection.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_connection(stream, idle_since, shared)
        }));
        if let Ok(ConnOutcome::Yield(stream, idle_since)) = outcome {
            let mut q = lock(&shared.queue);
            if q.len() < ACCEPT_BACKLOG {
                q.push_back((stream, idle_since));
                drop(q);
                shared.ready.notify_one();
            }
        }
    }
}

/// What a worker should do with a connection it stopped serving.
enum ConnOutcome {
    /// Finished (EOF, error, deadline, shutdown): drop it.
    Done,
    /// Idle while other connections were waiting: requeue it (with its
    /// original idle timestamp, so the idle deadline still accrues).
    Yield(TcpStream, Instant),
}

/// Wraps the socket so `read_frame` blocks *interruptibly* while a
/// frame is in flight: timeouts are swallowed and retried until the
/// frame deadline passes (slow-loris bound) or the node shuts down.
/// Idle waiting *between* frames lives in [`serve_connection`], which
/// can yield the worker instead of camping on a silent peer.
struct PatientReader<'a> {
    stream: &'a TcpStream,
    shared: &'a Shared,
    deadline: Instant,
}

impl Read for PatientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "node shutting down",
                ));
            }
            // Checked every iteration — not only on timeouts — so a
            // peer trickling one byte per poll tick cannot dodge the
            // slow-loris bound by keeping each read() successful.
            if Instant::now() > self.deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame not completed in time",
                ));
            }
            let mut sock = self.stream; // `impl Read for &TcpStream`
            match sock.read(buf) {
                Ok(n) => return Ok(n),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    mut idle_since: Instant,
    shared: &Shared,
) -> ConnOutcome {
    loop {
        // Idle phase: wait for the first byte of the next frame without
        // monopolizing the worker. A silent connection yields whenever
        // other connections are queued, so `workers` quiet peers cannot
        // starve the node.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return ConnOutcome::Done, // EOF between frames
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return ConnOutcome::Done;
                }
                if Instant::now().duration_since(idle_since) > IDLE_DEADLINE {
                    return ConnOutcome::Done;
                }
                if !lock(&shared.queue).is_empty() {
                    return ConnOutcome::Yield(stream, idle_since);
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnOutcome::Done,
        }
        // A frame has begun: read it whole under the slow-loris bound.
        let frame = {
            let mut reader = PatientReader {
                stream: &stream,
                shared,
                deadline: Instant::now() + FRAME_DEADLINE,
            };
            read_frame(&mut reader)
        };
        match frame {
            Ok(frame) => {
                // RTT injection for benchmarks: pretend the request
                // spent `response_delay` on the wire. Sleep in poll-tick
                // slices so shutdown still lands promptly.
                if let Some(delay) = shared.response_delay.filter(|_| delay_applies(shared, &frame)) {
                    let until = Instant::now() + delay;
                    while Instant::now() < until {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return ConnOutcome::Done;
                        }
                        thread::sleep(POLL_TICK.min(until.saturating_duration_since(Instant::now())));
                    }
                }
                // Payload-level errors answer with a typed ERR on an
                // intact stream and keep serving; only a failed write
                // (or the framing errors below) closes the connection.
                // The response echoes the request's id, so a pipelining
                // peer can match it.
                let (tag, payload) = dispatch(&frame, &shared.store);
                if write_frame(&mut stream, tag, frame.request_id, &[&payload]).is_err() {
                    return ConnOutcome::Done;
                }
                idle_since = Instant::now();
            }
            Err(FrameError::Eof) => return ConnOutcome::Done,
            Err(e) => {
                // One best-effort typed answer, then close: after a
                // framing error the stream position is unknowable.
                // No request id was recovered from the broken frame, so
                // the answer carries the reserved one.
                let payload = err_payload(RemoteErrorCode::BadFrame, &e.detail());
                let _ = write_frame(&mut stream, status::ERR, proto::NO_REQUEST_ID, &[&payload]);
                // Half-close and briefly drain what the peer already
                // sent: closing a socket with unread received bytes
                // RSTs the connection, which would destroy the ERR
                // answer before the peer can read it.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let deadline = Instant::now() + Duration::from_millis(250);
                let mut sink = [0u8; 4096];
                let mut s = &stream;
                while Instant::now() < deadline {
                    match s.read(&mut sink) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(err)
                            if matches!(
                                err.kind(),
                                std::io::ErrorKind::WouldBlock
                                    | std::io::ErrorKind::TimedOut
                            ) => {}
                        Err(_) => break,
                    }
                }
                return ConnOutcome::Done;
            }
        }
    }
}

/// Whether the injected [`Shared::response_delay`] applies to `frame`.
/// With no key-prefix filter every request is delayed; with one, only
/// keyed requests (put/get/delete/stat) whose key matches the prefix.
fn delay_applies(shared: &Shared, frame: &Frame) -> bool {
    let Some(prefix) = &shared.delay_key_prefix else {
        return true;
    };
    if !matches!(frame.tag, op::PUT_SHARD | op::GET_SHARD | op::DELETE | op::STAT) {
        return false;
    }
    let mut r = PayloadReader::new(&frame.payload);
    r.key().map(|key| key.starts_with(prefix.as_str())).unwrap_or(false)
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
                    let hashes = HashBlob::from_bytes(&blob).map_err(|e| {
                        (RemoteErrorCode::CorruptBlob, e.to_string())
                    })?;
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
