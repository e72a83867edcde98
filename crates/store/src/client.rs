//! Client side of the node protocol: one [`NodeClient`] per TCP
//! connection, with typed request methods, uniform timeouts, and a
//! pipelined send/receive path.
//!
//! Every request is a [`BatchOp`]; every opcode has a `send_*` that puts
//! its frame on the wire without waiting and a `recv_*` that resolves
//! it, and the blocking methods (`get`, `put`, …) are the two in a row.
//! The protocol's request ids (`docs/STORE.md`) let several
//! requests ride one connection: [`NodeClient::recv_matching`] collects
//! answers in *any* arrival order — responses for other outstanding
//! requests are parked until their turn. A response carrying an id that
//! was never issued is a typed protocol violation (a lying or confused
//! node), after which the connection must be abandoned.
//!
//! The same frames move two ways. A connection from
//! [`NodeClient::connect`] blocks, under its timeout. The cluster's
//! completion loop (`fanout.rs`) dials its own with `NodeClient::dial`:
//! those never block, a frame that does not fit the socket buffer is
//! `push`ed on when the socket is writable again, and an answer that
//! has only half arrived is `pull`ed on when it is readable — one thread
//! keeps every node's connection moving.
//!
//! Requests whose *body* is bulky (`PUT`) and requests whose *answer*
//! may be (`GET`, the listings, `HASH_SUBTREE`) are never outstanding
//! together on one connection: a blocking client that is busy writing
//! the one while the node is busy writing the other deadlocks two finite
//! TCP buffers. Every cluster round is all of one kind; a `debug_assert`
//! where requests are staged holds the line.

use crate::blob::BlobStat;
use crate::error::StoreError;
use crate::proto::{
    frame_crc, frame_head, op, parse_err, put_str, status, write_gathered, FrameError,
    FrameReader, PayloadReader, MAX_BODY, MAX_KEY, NO_REQUEST_ID,
};
use crate::sys;
use ec_wire::merkle::Hash;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A node's `HEALTH` answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeHealth {
    /// Number of blobs stored.
    pub blobs: u64,
    /// Total payload bytes stored (framing excluded).
    pub bytes: u64,
}

/// One request to a node — what [`NodeClient::send`] frames, and what a
/// cluster round carries per job.
#[derive(Clone, Copy, Debug)]
pub enum BatchOp<'a> {
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
    HashSubtree { key: &'a str, leaf_size: u32, stored: bool, level: u8, start: u32, count: u32 },
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
            BatchOp::HashSubtree { key, leaf_size, stored, level, start, count } => {
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
    matches!(tag, op::GET_SHARD | op::LIST | op::LIST_AGED | op::HASH_SUBTREE)
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

/// One connection to one shard node. All operations observe the
/// connect/read/write timeout given at [`NodeClient::connect`] (each
/// individual socket read/write, not whole operations — the cluster
/// layer owns per-operation deadlines).
pub struct NodeClient {
    stream: TcpStream,
    next_id: u32,
    /// Opcode of every request issued and not yet answered. Bounds
    /// `parked`: only answers to ids in this map are ever parked, so a
    /// hostile node cannot grow client memory with unsolicited frames.
    pending: HashMap<u32, u8>,
    /// Answers that arrived while the caller was waiting for a
    /// different id.
    parked: HashMap<u32, Answer>,
    /// The answer being received; keeps its place across the reads of a
    /// connection that does not block.
    reader: FrameReader,
}

fn resolve_addr(addr: &str) -> Result<SocketAddr, StoreError> {
    addr.to_socket_addrs()
        .map_err(|e| StoreError::InvalidArg(format!("cannot resolve node address `{addr}`: {e}")))?
        .next()
        .ok_or_else(|| StoreError::InvalidArg(format!("node address `{addr}` resolves to nothing")))
}

impl NodeClient {
    fn over(stream: TcpStream) -> NodeClient {
        NodeClient {
            stream,
            next_id: 1,
            pending: HashMap::new(),
            parked: HashMap::new(),
            reader: FrameReader::default(),
        }
    }

    /// Connect to `addr` (a `host:port` string) with `timeout` applied
    /// to the connect itself and to every subsequent read and write.
    pub fn connect(addr: &str, timeout: Duration) -> Result<NodeClient, StoreError> {
        let stream = TcpStream::connect_timeout(&resolve_addr(addr)?, timeout)
            .map_err(StoreError::Io)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(NodeClient::over(stream))
    }

    /// Start connecting to `addr` without waiting for the node: the
    /// completion loop's connection, which never blocks. Poll the
    /// [`NodeClient::socket`] for writability, then ask
    /// [`NodeClient::established`].
    pub(crate) fn dial(addr: &str) -> Result<NodeClient, StoreError> {
        let stream = sys::connect_nonblocking(&resolve_addr(addr)?).map_err(StoreError::Io)?;
        Ok(NodeClient::over(stream))
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

    /// Frame `op` under a fresh request id, ready to [`NodeClient::push`].
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
        Ok(Staged { id, lead, bulk, crc, written: 0 })
    }

    /// Write what is left of `staged`, as one gathered write where the
    /// socket has room. On a connection that does not block,
    /// `WouldBlock` means "call again when writable".
    pub(crate) fn push(&mut self, staged: &mut Staged<'_>) -> std::io::Result<()> {
        let bufs = [&staged.lead[..], staged.bulk, &staged.crc];
        write_gathered(&mut self.stream, &bufs, &mut staged.written)
    }

    /// Read the next answer off the wire: the id it is for and what it
    /// says. `None` when the socket has no more to give right now — a
    /// blocking connection's timeout, or simply "call again when
    /// readable" on one that does not block. An `Err` is a connection
    /// that can no longer be trusted: closed, a broken frame, or an id
    /// that is not outstanding.
    pub(crate) fn pull(&mut self) -> Result<Option<(u32, Answer)>, StoreError> {
        let frame = match self.reader.read(&mut self.stream) {
            Ok(frame) => frame,
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(None)
            }
            Err(FrameError::Eof) => {
                return Err(StoreError::Protocol("node closed the connection mid-request".into()))
            }
            Err(other) => return Err(other.into()),
        };
        let answer = match frame.tag {
            status::OK => Ok(frame.payload),
            status::ERR => Err(parse_err(&frame.payload)),
            other => {
                return Err(StoreError::Protocol(format!("unexpected response tag {other:#04x}")))
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

    /// Put one request on the wire without waiting for the answer;
    /// returns the request id to resolve with the opcode's `recv_*`
    /// method (or [`NodeClient::recv_matching`]).
    pub fn send(&mut self, op: &BatchOp<'_>) -> Result<u32, StoreError> {
        let mut staged = self.stage(op)?;
        self.push(&mut staged)?;
        Ok(staged.id)
    }

    /// Put a whole batch of requests on the wire back-to-back; returns
    /// the request ids in operation order. Collect the answers with the
    /// matching `recv_*` method per op (any order).
    pub fn send_batch(&mut self, ops: &[BatchOp<'_>]) -> Result<Vec<u32>, StoreError> {
        ops.iter().map(|op| self.send(op)).collect()
    }

    /// Receive the response for request `id`, tolerating out-of-order
    /// arrival: responses to *other* outstanding requests are parked and
    /// handed out when their id is asked for. Returns the `OK` payload,
    /// a typed [`StoreError::Remote`] for an `ERR` answer, or a
    /// [`StoreError::Protocol`] for an id that was never issued (after
    /// which the connection is poisoned and must be dropped).
    pub fn recv_matching(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        if let Some(answer) = self.parked.remove(&id) {
            return answer;
        }
        if !self.pending.contains_key(&id) {
            return Err(StoreError::Protocol(format!(
                "request id {id} is not outstanding on this connection"
            )));
        }
        loop {
            match self.pull()? {
                None => return Err(StoreError::Timeout),
                Some((rid, answer)) if rid == id => return answer,
                Some((rid, answer)) => {
                    self.parked.insert(rid, answer);
                }
            }
        }
    }

    /// Pipelined send of a PUT; resolve with [`NodeClient::recv_put`].
    pub fn send_put(&mut self, key: &str, data: &[u8]) -> Result<u32, StoreError> {
        self.send(&BatchOp::Put { key, data })
    }

    /// Resolve a pipelined PUT.
    pub fn recv_put(&mut self, id: u32) -> Result<(), StoreError> {
        reply::put(self.recv_matching(id))
    }

    /// Pipelined send of a GET; resolve with [`NodeClient::recv_get`].
    pub fn send_get(&mut self, key: &str) -> Result<u32, StoreError> {
        self.send(&BatchOp::Get { key })
    }

    /// Resolve a pipelined GET.
    pub fn recv_get(&mut self, id: u32) -> Result<Vec<u8>, StoreError> {
        self.recv_matching(id)
    }

    /// Pipelined send of a DELETE; resolve with
    /// [`NodeClient::recv_delete`].
    pub fn send_delete(&mut self, key: &str) -> Result<u32, StoreError> {
        self.send(&BatchOp::Delete { key })
    }

    /// Resolve a pipelined DELETE; returns whether the key existed.
    pub fn recv_delete(&mut self, id: u32) -> Result<bool, StoreError> {
        reply::delete(self.recv_matching(id))
    }

    /// Pipelined send of a STAT; resolve with [`NodeClient::recv_stat`].
    pub fn send_stat(&mut self, key: &str) -> Result<u32, StoreError> {
        self.send(&BatchOp::Stat { key })
    }

    /// Resolve a pipelined STAT.
    pub fn recv_stat(&mut self, id: u32) -> Result<BlobStat, StoreError> {
        reply::stat(self.recv_matching(id))
    }

    /// Pipelined send of a LIST; resolve with [`NodeClient::recv_list`].
    pub fn send_list(&mut self, prefix: &str) -> Result<u32, StoreError> {
        self.send(&BatchOp::List { prefix })
    }

    /// Resolve a pipelined LIST.
    pub fn recv_list(&mut self, id: u32) -> Result<Vec<String>, StoreError> {
        reply::list(self.recv_matching(id))
    }

    /// Pipelined send of a LIST_AGED; resolve with
    /// [`NodeClient::recv_list_aged`].
    pub fn send_list_aged(&mut self, prefix: &str) -> Result<u32, StoreError> {
        self.send(&BatchOp::ListAged { prefix })
    }

    /// Resolve a pipelined LIST_AGED.
    pub fn recv_list_aged(&mut self, id: u32) -> Result<Vec<(String, u64, u64)>, StoreError> {
        reply::list_aged(self.recv_matching(id))
    }

    /// Pipelined send of a HEALTH; resolve with
    /// [`NodeClient::recv_health`].
    pub fn send_health(&mut self) -> Result<u32, StoreError> {
        self.send(&BatchOp::Health)
    }

    /// Resolve a pipelined HEALTH.
    pub fn recv_health(&mut self, id: u32) -> Result<NodeHealth, StoreError> {
        reply::health(self.recv_matching(id))
    }

    /// Pipelined send of a HASH_SUBTREE (arguments as
    /// [`NodeClient::hash_subtree`]); resolve with
    /// [`NodeClient::recv_hash_subtree`].
    pub fn send_hash_subtree(
        &mut self,
        key: &str,
        leaf_size: u32,
        stored: bool,
        level: u8,
        start: u32,
        count: u32,
    ) -> Result<u32, StoreError> {
        self.send(&BatchOp::HashSubtree { key, leaf_size, stored, level, start, count })
    }

    /// Resolve a pipelined HASH_SUBTREE that asked for `count` hashes.
    pub fn recv_hash_subtree(&mut self, id: u32, count: u32) -> Result<Vec<Hash>, StoreError> {
        reply::hash_subtree(self.recv_matching(id), count)
    }

    /// Store `data` under `key` on the node.
    pub fn put(&mut self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        let id = self.send_put(key, data)?;
        self.recv_put(id)
    }

    /// Fetch the blob under `key`.
    pub fn get(&mut self, key: &str) -> Result<Vec<u8>, StoreError> {
        let id = self.send_get(key)?;
        self.recv_get(id)
    }

    /// Delete the blob under `key`; returns whether it existed.
    pub fn delete(&mut self, key: &str) -> Result<bool, StoreError> {
        let id = self.send_delete(key)?;
        self.recv_delete(id)
    }

    /// All keys on the node starting with `prefix`.
    pub fn list(&mut self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let id = self.send_list(prefix)?;
        self.recv_list(id)
    }

    /// All keys on the node starting with `prefix`, each with its age
    /// in seconds (node-clock mtime) and payload length — the
    /// scrub-time GC's view of a node.
    pub fn list_aged(&mut self, prefix: &str) -> Result<Vec<(String, u64, u64)>, StoreError> {
        let id = self.send_list_aged(prefix)?;
        self.recv_list_aged(id)
    }

    /// Size and integrity of the blob under `key`, without transferring
    /// it.
    pub fn stat(&mut self, key: &str) -> Result<BlobStat, StoreError> {
        let id = self.send_stat(key)?;
        self.recv_stat(id)
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
        let id = self.send_hash_subtree(key, leaf_size, stored, level, start, count)?;
        self.recv_hash_subtree(id, count)
    }

    /// Node liveness and usage.
    pub fn health(&mut self) -> Result<NodeHealth, StoreError> {
        let id = self.send_health()?;
        self.recv_health(id)
    }
}

/// What each opcode's answer means — shared by the `recv_*` methods
/// and by the cluster's rounds, whose jobs interpret an [`Answer`] as it
/// arrives. A transport failure or typed `ERR` passes through; an `OK`
/// payload the opcode cannot have produced is a [`StoreError::Protocol`].
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
            Err(StoreError::Protocol("unexpected payload in empty response".into()))
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
            Ok(BlobStat { len: r.u64()?, crc: r.u32()?, ok: r.u8()? != 0 })
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
        parsed(answer, "HEALTH", |r| Ok(NodeHealth { blobs: r.u64()?, bytes: r.u64()? }))
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
    use crate::proto::{err_payload, read_frame, write_frame};
    use std::net::TcpListener;

    #[test]
    fn the_reserved_id_is_the_nodes_alone() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut client = NodeClient::connect(&addr, Duration::from_secs(10)).unwrap();

        // Never issued, not even when the counter wraps.
        client.next_id = u32::MAX;
        let ids: Vec<u32> =
            (0..2).map(|_| client.stage(&BatchOp::Health).unwrap().id).collect();
        assert_eq!(ids, [u32::MAX, 1]);

        // And an `ERR` carrying it is the node's verdict on the stream,
        // surfaced as the typed error it holds.
        let (mut peer, _) = listener.accept().unwrap();
        let id = client.send_health().unwrap();
        assert_eq!(read_frame(&mut peer).unwrap().request_id, id);
        let refusal = err_payload(RemoteErrorCode::BadFrame, "frame checksum mismatch");
        write_frame(&mut peer, status::ERR, NO_REQUEST_ID, &[&refusal]).unwrap();
        match client.recv_health(id) {
            Err(StoreError::Remote { code: RemoteErrorCode::BadFrame, message }) => {
                assert_eq!(message, "frame checksum mismatch");
            }
            other => panic!("expected the node's BadFrame, got {other:?}"),
        }
    }
}
