//! Client side of the node protocol, with one I/O model: connections
//! that never block, driven by the completion loop in `fanout.rs`.
//!
//! A `Conn` is one connection to one node. `dial` starts the connect
//! without waiting, `stage` frames a request ([`BatchOp`]) under a fresh
//! request id, `push` writes as much of the frame as the socket takes,
//! and `pull` reads as much of an answer as has arrived; each is called
//! again when the socket is ready. The loop keeps every node's `Conn`
//! moving from one thread and matches each answer to its job by id. An
//! answer whose id is not in flight is a typed protocol violation (a
//! lying or confused node), and the loop drops that connection.
//!
//! A [`NodeClient`] is a handle on one node, not a second way to use
//! the wire: each of its calls is a round of one job on that loop, over
//! the connection the handle keeps between calls under the same rule as
//! a `Cluster`'s (reused while fresh and quiet, otherwise redialed).
//!
//! Requests whose *body* is bulky (`PUT`) and requests whose *answer*
//! may be (`GET`, the listings, `HASH_SUBTREE`) are never outstanding
//! together on one connection — the protocol's "small on one side"
//! discipline (`docs/STORE.md` §1). Every cluster round is all of one
//! kind; a `debug_assert` where requests are staged holds the line.

use crate::blob::BlobStat;
use crate::error::StoreError;
use crate::fanout::{ParallelConnSet, Pool, Post};
use crate::proto::{
    frame_crc, frame_head, op, parse_err, put_str, status, write_gathered, FrameError, FrameReader,
    PayloadReader, MAX_BODY, MAX_KEY, NO_REQUEST_ID,
};
use crate::sys;
use ec_wire::merkle::Hash;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A node's `HEALTH` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeHealth {
    /// Number of blobs stored.
    pub blobs: u64,
    /// Total payload bytes stored (framing excluded).
    pub bytes: u64,
}

/// One request to a node: what a round's job carries.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BatchOp<'a> {
    /// Store `data` under `key`.
    Put { key: &'a str, data: &'a [u8] },
    /// Fetch the blob under `key`.
    Get { key: &'a str },
    /// Delete the blob under `key`.
    Delete { key: &'a str },
    /// Size and integrity of the blob under `key`, without moving it.
    Stat { key: &'a str },
    /// All keys starting with `prefix`.
    List { prefix: &'a str },
    /// All keys starting with `prefix`, with age and payload length.
    ListAged { prefix: &'a str },
    /// Node liveness and usage.
    Health,
    /// `count` hashes from `start` of one level of a Merkle tree — see
    /// [`NodeClient::hash_subtree`].
    HashSubtree {
        key: &'a str,
        leaf_size: u32,
        stored: bool,
        level: u8,
        start: u32,
        count: u32,
    },
}

impl<'a> BatchOp<'a> {
    /// The opcode, the small leading part of the payload (key or prefix
    /// and fixed fields), and the bulk part sent as it lies.
    fn encode(&self) -> (u8, Vec<u8>, &'a [u8]) {
        let lead = |key: &str| {
            let mut lead = Vec::with_capacity(2 + key.len() + 14);
            put_str(&mut lead, key);
            lead
        };
        match *self {
            BatchOp::Put { key, data } => (op::PUT_SHARD, lead(key), data),
            BatchOp::Get { key } => (op::GET_SHARD, lead(key), &[]),
            BatchOp::Delete { key } => (op::DELETE, lead(key), &[]),
            BatchOp::Stat { key } => (op::STAT, lead(key), &[]),
            BatchOp::List { prefix } => (op::LIST, lead(prefix), &[]),
            BatchOp::ListAged { prefix } => (op::LIST_AGED, lead(prefix), &[]),
            BatchOp::Health => (op::HEALTH, Vec::new(), &[]),
            BatchOp::HashSubtree {
                key,
                leaf_size,
                stored,
                level,
                start,
                count,
            } => {
                let mut lead = lead(key);
                lead.extend_from_slice(&leaf_size.to_le_bytes());
                lead.push(stored as u8);
                lead.push(level);
                lead.extend_from_slice(&start.to_le_bytes());
                lead.extend_from_slice(&count.to_le_bytes());
                (op::HASH_SUBTREE, lead, &[])
            }
        }
    }
}

/// Whether an opcode's answer can be bulky (see the module docs).
fn bulky_answer(tag: u8) -> bool {
    matches!(
        tag,
        op::GET_SHARD | op::LIST | op::LIST_AGED | op::HASH_SUBTREE
    )
}

/// What a node said to one request: the `OK` payload, or its typed
/// `ERR` as [`StoreError::Remote`].
pub(crate) type Answer = Result<Vec<u8>, StoreError>;

/// One request frame on its way out: `[lead | bulk | crc]`, and how much
/// of it the socket has taken. The bulk part is borrowed, never copied.
pub(crate) struct Staged<'a> {
    /// The id the answer will carry.
    pub(crate) id: u32,
    /// Frame head and the request's leading payload bytes.
    lead: Vec<u8>,
    bulk: &'a [u8],
    crc: [u8; 4],
    written: usize,
}

/// One non-blocking connection to one shard node (module docs).
pub(crate) struct Conn {
    stream: TcpStream,
    next_id: u32,
    /// Opcode of every request on the wire and not yet answered: an
    /// answer must carry one of these ids.
    pending: HashMap<u32, u8>,
    /// The answer being received; keeps its place across reads.
    reader: FrameReader,
}

fn resolve_addr(addr: &str) -> Result<SocketAddr, StoreError> {
    addr.to_socket_addrs()
        .map_err(|e| StoreError::InvalidArg(format!("cannot resolve node address `{addr}`: {e}")))?
        .next()
        .ok_or_else(|| StoreError::InvalidArg(format!("node address `{addr}` resolves to nothing")))
}

impl Conn {
    fn over(stream: TcpStream) -> Conn {
        Conn {
            stream,
            next_id: 1,
            pending: HashMap::new(),
            reader: FrameReader::default(),
        }
    }

    /// Start connecting to `addr` without waiting for the node. Poll the
    /// [`Conn::socket`] for writability, then ask [`Conn::established`].
    pub(crate) fn dial(addr: &str) -> Result<Conn, StoreError> {
        let stream = sys::connect_nonblocking(&resolve_addr(addr)?).map_err(StoreError::Io)?;
        Ok(Conn::over(stream))
    }

    /// Whether a dialed connection got through, once its socket polls
    /// writable.
    pub(crate) fn established(&mut self) -> Result<(), StoreError> {
        if let Some(e) = self.stream.take_error()? {
            return Err(StoreError::Io(e));
        }
        self.stream.set_nodelay(true).map_err(StoreError::Io)
    }

    /// The socket, for `poll(2)`.
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.stream
    }

    /// Frame `op` under a fresh request id, ready to [`Conn::push`].
    pub(crate) fn stage<'a>(&mut self, op: &BatchOp<'a>) -> Result<Staged<'a>, StoreError> {
        let (tag, payload_lead, bulk) = op.encode();
        let payload_len = payload_lead.len() + bulk.len();
        if payload_len + 6 > MAX_BODY {
            // Checked here so an oversized blob is a typed error, not a
            // panic of `frame_head`'s contract assert.
            return Err(StoreError::InvalidArg(format!(
                "request payload of {payload_len} bytes exceeds the {MAX_BODY}-byte frame cap"
            )));
        }
        debug_assert!(
            !self.pending.values().any(|&t| match tag {
                op::PUT_SHARD => bulky_answer(t),
                _ => bulky_answer(tag) && t == op::PUT_SHARD,
            }),
            "a PUT and a request with a bulky answer outstanding on one connection"
        );
        let id = self.next_id;
        // The reserved id is the node's, never a request's: skip it
        // when the counter wraps.
        self.next_id = match self.next_id.wrapping_add(1) {
            NO_REQUEST_ID => NO_REQUEST_ID + 1,
            next => next,
        };
        let head = frame_head(tag, id, payload_len);
        let crc = frame_crc(&head[4..], &[&payload_lead, bulk]);
        let mut lead = Vec::with_capacity(head.len() + payload_lead.len());
        lead.extend_from_slice(&head);
        lead.extend_from_slice(&payload_lead);
        self.pending.insert(id, tag);
        Ok(Staged {
            id,
            lead,
            bulk,
            crc,
            written: 0,
        })
    }

    /// Write what is left of `staged`, as one gathered write where the
    /// socket has room. `WouldBlock` means "call again when writable".
    pub(crate) fn push(&mut self, staged: &mut Staged<'_>) -> std::io::Result<()> {
        let bufs = [&staged.lead[..], staged.bulk, &staged.crc];
        write_gathered(&mut self.stream, &bufs, &mut staged.written)
    }

    /// Read the next answer off the wire: the id it is for and what it
    /// says. `None` when the socket has no more to give right now — "call
    /// again when readable". An `Err` is a connection that can no longer
    /// be trusted: closed, a broken frame, or an id that is not
    /// outstanding.
    pub(crate) fn pull(&mut self) -> Result<Option<(u32, Answer)>, StoreError> {
        let frame = match self.reader.read(&mut self.stream) {
            Ok(frame) => frame,
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return Ok(None)
            }
            Err(FrameError::Eof) => {
                return Err(StoreError::Protocol(
                    "node closed the connection mid-request".into(),
                ))
            }
            Err(other) => return Err(other.into()),
        };
        let answer = match frame.tag {
            status::OK => Ok(frame.payload),
            status::ERR => Err(parse_err(&frame.payload)),
            other => {
                return Err(StoreError::Protocol(format!(
                    "unexpected response tag {other:#04x}"
                )))
            }
        };
        match frame.request_id {
            // The reserved id mid-pipeline: nodes answer framing errors
            // this way before closing.
            NO_REQUEST_ID => Err(answer.err().unwrap_or_else(|| {
                StoreError::Protocol("un-addressed response frame in a pipelined exchange".into())
            })),
            id if self.pending.remove(&id).is_some() => Ok(Some((id, answer))),
            // An id we never issued (or one already answered): the node
            // is lying or desynchronized. The stream can no longer be
            // trusted.
            id => Err(StoreError::Protocol(format!(
                "response carries unexpected request id {id}"
            ))),
        }
    }
}

/// A handle on one shard node. Each call is one request, run as a round
/// of one job on the completion loop a `Cluster`'s rounds use, over a
/// connection the handle keeps between calls: reused while it is fresh
/// and quiet, dialed afresh otherwise (a node that closed it is simply
/// redialed). The `timeout` given at [`NodeClient::connect`] bounds the
/// connect and every wait for the connection to move; a request on which
/// nothing moves that long fails with [`StoreError::Timeout`].
pub struct NodeClient {
    addr: String,
    timeout: Duration,
    pool: Arc<Pool>,
}

impl NodeClient {
    /// Connect to `addr` (a `host:port` string), waiting at most
    /// `timeout`: an unreachable node is an error here, not at the first
    /// request.
    pub fn connect(addr: &str, timeout: Duration) -> Result<NodeClient, StoreError> {
        let stream =
            TcpStream::connect_timeout(&resolve_addr(addr)?, timeout).map_err(StoreError::Io)?;
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let pool = Arc::new(Pool::default());
        pool.keep(addr, Conn::over(stream));
        Ok(NodeClient {
            addr: addr.to_string(),
            timeout,
            pool,
        })
    }

    /// Run `op` as a round of one job, and make its result with `post`.
    fn call<T>(&self, op: BatchOp<'_>, post: impl Post<T>) -> Result<T, StoreError> {
        let mut conns = ParallelConnSet::new(self.timeout, None).with_pool(&self.pool);
        conns
            .run_batch(vec![(&*self.addr, op, post)])
            .pop()
            .expect("one job, one result")
    }

    /// Store `data` under `key` on the node.
    pub fn put(&mut self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        self.call(BatchOp::Put { key, data }, reply::put)
    }

    /// Fetch the blob under `key`.
    pub fn get(&mut self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.call(BatchOp::Get { key }, std::convert::identity)
    }

    /// Delete the blob under `key`; returns whether it existed.
    pub fn delete(&mut self, key: &str) -> Result<bool, StoreError> {
        self.call(BatchOp::Delete { key }, reply::delete)
    }

    /// All keys on the node starting with `prefix`.
    pub fn list(&mut self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.call(BatchOp::List { prefix }, reply::list)
    }

    /// All keys on the node starting with `prefix`, each with its age
    /// in seconds (node-clock mtime) and payload length — the
    /// scrub-time GC's view of a node.
    pub fn list_aged(&mut self, prefix: &str) -> Result<Vec<(String, u64, u64)>, StoreError> {
        self.call(BatchOp::ListAged { prefix }, reply::list_aged)
    }

    /// Size and integrity of the blob under `key`, without transferring
    /// it.
    pub fn stat(&mut self, key: &str) -> Result<BlobStat, StoreError> {
        self.call(BatchOp::Stat { key }, reply::stat)
    }

    /// A slice of one level of the Merkle tree over the blob at `key`:
    /// `stored == false` re-hashes the shard blob at `leaf_size` on the
    /// node (its *computed* tree), `stored == true` rebuilds the tree
    /// from the node's `t:` hash blob. Level 0 is the leaves; the slice
    /// is `[start, start + count)` within that level. This is the scrub
    /// descent's transport: O(log leaves) hash bytes instead of the
    /// shard payload.
    pub fn hash_subtree(
        &mut self,
        key: &str,
        leaf_size: u32,
        stored: bool,
        level: u8,
        start: u32,
        count: u32,
    ) -> Result<Vec<Hash>, StoreError> {
        let op = BatchOp::HashSubtree {
            key,
            leaf_size,
            stored,
            level,
            start,
            count,
        };
        self.call(op, |answer| reply::hash_subtree(answer, count))
    }

    /// Node liveness and usage.
    pub fn health(&mut self) -> Result<NodeHealth, StoreError> {
        self.call(BatchOp::Health, reply::health)
    }
}

/// What each opcode's answer means — for the jobs of every round, which
/// interpret an [`Answer`] as it arrives. A transport failure or typed
/// `ERR` passes through; an `OK` payload the opcode cannot have produced
/// is a [`StoreError::Protocol`].
pub(crate) mod reply {
    use super::*;

    /// Run `parse` over an `OK` payload that it must consume whole.
    fn parsed<T>(
        answer: Answer,
        what: &str,
        parse: impl FnOnce(&mut PayloadReader) -> Result<T, String>,
    ) -> Result<T, StoreError> {
        let payload = answer?;
        let mut r = PayloadReader::new(&payload);
        parse(&mut r)
            .and_then(|value| r.finish().map(|()| value))
            .map_err(|e| StoreError::Protocol(format!("malformed {what} response: {e}")))
    }

    pub(crate) fn put(answer: Answer) -> Result<(), StoreError> {
        if answer?.is_empty() {
            Ok(())
        } else {
            Err(StoreError::Protocol(
                "unexpected payload in empty response".into(),
            ))
        }
    }

    /// Whether the deleted key existed.
    pub(crate) fn delete(answer: Answer) -> Result<bool, StoreError> {
        match answer?[..] {
            [existed] => Ok(existed != 0),
            _ => Err(StoreError::Protocol("malformed DELETE response".into())),
        }
    }

    pub(crate) fn stat(answer: Answer) -> Result<BlobStat, StoreError> {
        parsed(answer, "STAT", |r| {
            Ok(BlobStat {
                len: r.u64()?,
                crc: r.u32()?,
                ok: r.u8()? != 0,
            })
        })
    }

    pub(crate) fn list(answer: Answer) -> Result<Vec<String>, StoreError> {
        parsed(answer, "LIST", |r| {
            let count = r.u32()? as usize;
            // The frame cap already bounds the payload; this only guards
            // a lying count against a huge up-front reservation.
            let mut keys = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                keys.push(r.str_bounded(MAX_KEY, "key")?.to_string());
            }
            Ok(keys)
        })
    }

    /// `(key, age_secs, len)` per entry.
    pub(crate) fn list_aged(answer: Answer) -> Result<Vec<(String, u64, u64)>, StoreError> {
        parsed(answer, "LIST_AGED", |r| {
            let count = r.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let key = r.str_bounded(MAX_KEY, "key")?.to_string();
                entries.push((key, r.u64()?, r.u64()?));
            }
            Ok(entries)
        })
    }

    pub(crate) fn health(answer: Answer) -> Result<NodeHealth, StoreError> {
        parsed(answer, "HEALTH", |r| {
            Ok(NodeHealth {
                blobs: r.u64()?,
                bytes: r.u64()?,
            })
        })
    }

    /// The `count` hashes a `HASH_SUBTREE` asked for.
    pub(crate) fn hash_subtree(answer: Answer, count: u32) -> Result<Vec<Hash>, StoreError> {
        parsed(answer, "HASH_SUBTREE", |r| {
            let got = r.u32()? as usize;
            if got != count as usize {
                return Err(format!("asked for {count} hashes, node sent {got}"));
            }
            let mut hashes = Vec::with_capacity(got.min(4096));
            for _ in 0..got {
                let mut h = [0u8; 32];
                for b in &mut h {
                    *b = r.u8()?;
                }
                hashes.push(h);
            }
            Ok(hashes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RemoteErrorCode;
    use crate::node::NodeHandle;
    use crate::proto::{err_payload, read_frame, write_frame};
    use crate::sys::{PollFd, POLLIN};
    use std::net::TcpListener;

    const PATIENCE: Duration = Duration::from_secs(10);

    fn listener() -> (TcpListener, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        (listener, addr)
    }

    #[test]
    fn the_reserved_id_is_the_nodes_alone() {
        // Never issued, not even when the counter wraps.
        let (_unserved, addr) = listener();
        let mut conn = Conn::dial(&addr).unwrap();
        conn.next_id = u32::MAX;
        let ids: Vec<u32> = (0..2)
            .map(|_| conn.stage(&BatchOp::Health).unwrap().id)
            .collect();
        assert_eq!(ids, [u32::MAX, 1]);

        // And an `ERR` carrying it is the node's verdict on the stream,
        // surfaced as the typed error it holds.
        let (node, addr) = listener();
        let peer = std::thread::spawn(move || {
            let (mut peer, _) = node.accept().unwrap();
            let id = read_frame(&mut peer).unwrap().request_id;
            let refusal = err_payload(RemoteErrorCode::BadFrame, "frame checksum mismatch");
            write_frame(&mut peer, status::ERR, NO_REQUEST_ID, &[&refusal]).unwrap();
            id
        });
        let mut client = NodeClient::connect(&addr, PATIENCE).unwrap();
        match client.health() {
            Err(StoreError::Remote {
                code: RemoteErrorCode::BadFrame,
                message,
            }) => {
                assert_eq!(message, "frame checksum mismatch");
            }
            other => panic!("expected the node's BadFrame, got {other:?}"),
        }
        assert_eq!(
            peer.join().unwrap(),
            1,
            "the first request goes out under id 1"
        );
    }

    #[test]
    fn every_opcode_pipelines_and_resolves_in_any_order() {
        let dir = std::env::temp_dir().join(format!("ec_store_allops_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node = NodeHandle::spawn(&dir, "127.0.0.1:0", 2).unwrap();
        let addr = node.addr().to_string();
        let mut c = NodeClient::connect(&addr, PATIENCE).unwrap();
        c.put("s:one", &[1u8; 100]).unwrap();
        c.put("s:two", &[2u8; 50]).unwrap();
        // Six requests in one round on one connection, each answer
        // matched to its job by id as it arrives.
        let jobs = vec![
            BatchOp::Stat { key: "s:one" },
            BatchOp::List { prefix: "s:" },
            BatchOp::ListAged { prefix: "s:t" },
            BatchOp::Health,
            BatchOp::HashSubtree {
                key: "s:one",
                leaf_size: 64,
                stored: false,
                level: 1,
                start: 0,
                count: 1,
            },
            BatchOp::Stat { key: "absent" },
        ];
        let mut conns = ParallelConnSet::new(PATIENCE, None);
        let jobs = jobs
            .into_iter()
            .map(|op| (&*addr, op, std::convert::identity))
            .collect();
        let mut answers = conns.run_batch(jobs).into_iter();
        assert_eq!(conns.connect_attempts(&addr), 1);
        let stat = reply::stat(answers.next().unwrap()).unwrap();
        assert!(stat.ok && stat.len == 100);
        assert_eq!(
            reply::list(answers.next().unwrap()).unwrap(),
            ["s:one", "s:two"]
        );
        let aged = reply::list_aged(answers.next().unwrap()).unwrap();
        assert_eq!(aged.len(), 1);
        assert_eq!((aged[0].0.as_str(), aged[0].2), ("s:two", 50));
        assert_eq!(reply::health(answers.next().unwrap()).unwrap().blobs, 2);
        assert_eq!(
            reply::hash_subtree(answers.next().unwrap(), 1)
                .unwrap()
                .len(),
            1
        );
        // A typed refusal resolves like any other answer and leaves the
        // connection serving.
        match reply::stat(answers.next().unwrap()) {
            Err(StoreError::Remote {
                code: RemoteErrorCode::NotFound,
                ..
            }) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
        assert_eq!(c.get("s:two").unwrap(), [2u8; 50]);
        drop(conns);
        node.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_node_client_redials_after_its_node_closed_the_connection() {
        // Each connection answers one HEALTH and is closed.
        let (node, addr) = listener();
        let peer = std::thread::spawn(move || {
            for blobs in 1..=2u64 {
                let (mut stream, _) = node.accept().unwrap();
                let id = read_frame(&mut stream).unwrap().request_id;
                let payload = [blobs.to_le_bytes(), 0u64.to_le_bytes()].concat();
                write_frame(&mut stream, status::OK, id, &[&payload]).unwrap();
            }
        });
        let mut client = NodeClient::connect(&addr, PATIENCE).unwrap();
        assert_eq!(client.health().unwrap(), NodeHealth { blobs: 1, bytes: 0 });
        // Wait until the kept connection shows the node's close.
        let polled = client.pool.with_kept(&addr, |conn, _| {
            let mut fds = [PollFd::new(conn.socket(), POLLIN)];
            sys::poll_ready(&mut fds, PATIENCE).unwrap()
        });
        assert_eq!(polled, Some(1), "the kept connection never turned readable");
        assert_eq!(client.health().unwrap(), NodeHealth { blobs: 2, bytes: 0 });
        assert_eq!(client.pool.dials(&addr), 1);
        peer.join().unwrap();
    }
}
