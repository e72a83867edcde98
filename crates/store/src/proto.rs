//! The shard-node wire protocol: length-prefixed, CRC-framed request /
//! response messages over TCP (`docs/STORE.md` is the normative spec).
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌────────────┬──────────────────────────────────────┬───────────────┐
//! │ u32 LE len │ body (len bytes)                     │ u32 LE CRC-32 │
//! │            │  [0] version  [1] tag                │ of the body   │
//! │            │  [2..6] u32 request id               │               │
//! │            │  [..] payload                        │               │
//! └────────────┴──────────────────────────────────────┴───────────────┘
//! ```
//!
//! The u32 **request id** between the tag and the payload is an echo
//! token: a node answers with the id of the request it is answering,
//! which lets a client keep several requests in flight on one
//! connection and match responses without trusting arrival order. One
//! frame version is written and read; a frame carrying any other
//! version byte is refused with a typed [`FrameError::BadVersion`].
//!
//! The reader is hostile-input hardened: the length prefix is bounded by
//! [`MAX_BODY`] *before* any allocation, the CRC covers the whole body,
//! and every parse failure is a typed error — a node never panics on
//! line noise and never allocates more than the cap for a single frame.

use crate::error::{RemoteErrorCode, StoreError};
use std::io::{Read, Write};

/// The one protocol version this build writes and reads.
pub const PROTO_VERSION: u8 = 2;

/// The reserved request id meaning "no request recovered": a node puts
/// it on the `ERR BadFrame` answer to a frame too broken to carry an id
/// of its own. Clients never issue it.
pub const NO_REQUEST_ID: u32 = 0;

/// Upper bound on a frame body (version + tag + id + payload). Shard
/// payloads dominate; 64 MiB bounds a single object shard, and a
/// hostile length prefix beyond it is rejected before any buffer is
/// sized from it.
pub const MAX_BODY: usize = 64 << 20;

/// Upper bound on a blob key. Keys are hex-encoded into node-local file
/// names, so this also keeps the encoded name well under the common
/// 255-byte file-name limit.
pub const MAX_KEY: usize = 100;

/// Request opcodes (frame tag byte, client → node).
pub mod op {
    /// Store a blob: `[u16 key_len][key][payload…]`.
    pub const PUT_SHARD: u8 = 0x01;
    /// Fetch a blob: `[u16 key_len][key]`.
    pub const GET_SHARD: u8 = 0x02;
    /// Delete a blob: `[u16 key_len][key]`.
    pub const DELETE: u8 = 0x03;
    /// List keys by prefix: `[u16 prefix_len][prefix]`.
    pub const LIST: u8 = 0x04;
    /// Blob metadata + integrity: `[u16 key_len][key]`.
    pub const STAT: u8 = 0x05;
    /// Node liveness and usage: empty payload.
    pub const HEALTH: u8 = 0x06;
    /// List keys by prefix with per-blob age and size:
    /// `[u16 prefix_len][prefix]` → OK payload
    /// `[u32 count] count × ([u16 key_len][key][u64 age_secs][u64 len])`.
    /// Age is seconds since the blob's last write *on the node's own
    /// clock*, which is what lets the scrub-time GC apply its grace
    /// window without any cross-node clock agreement.
    pub const LIST_AGED: u8 = 0x07;
    /// Read a slice of one level of a shard's Merkle tree:
    /// `[u16 key_len][key][u32 leaf_size][u8 source][u8 level]
    /// [u32 start][u32 count]` → OK payload `[u32 count][count × 32]`.
    /// `source` 0 re-hashes the shard blob under `key` at `leaf_size`
    /// (the node's *computed* tree); 1 parses the stored `t:` hash blob
    /// named by `key` and rebuilds the tree from its leaves. Level 0 is
    /// the leaves, the top level is the root — widths are a pure
    /// function of the leaf count, so both ends derive the same
    /// coordinates with no tree bytes on the wire. This is what lets
    /// scrub verify a healthy shard in 32 bytes and descend into a
    /// damaged one fetching O(log leaves) hashes instead of the payload.
    pub const HASH_SUBTREE: u8 = 0x08;
}

/// Response tags (node → client).
pub mod status {
    /// Success; payload is operation-specific.
    pub const OK: u8 = 0x80;
    /// Failure; payload is `[u8 code][u16 msg_len][msg]`.
    pub const ERR: u8 = 0x81;
}

/// Why reading a frame failed. `Eof` (clean close before the first
/// length byte) is the normal end of a connection; everything else is a
/// protocol violation or a transport failure.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// The stream ended mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_BODY`], or is too short to hold
    /// the version, tag and request id.
    BadLength(u32),
    /// The body checksum does not match.
    BadCrc,
    /// Unsupported protocol version byte.
    BadVersion(u8),
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl FrameError {
    /// Human-readable detail for error responses and logs.
    pub fn detail(&self) -> String {
        match self {
            FrameError::Eof => "connection closed".into(),
            FrameError::Truncated => "stream ended mid-frame".into(),
            FrameError::BadLength(len) => {
                format!("frame length {len} outside 6..={MAX_BODY}")
            }
            FrameError::BadCrc => "frame checksum mismatch".into(),
            FrameError::BadVersion(v) => {
                format!("unsupported protocol version {v} (this build speaks {PROTO_VERSION})")
            }
            FrameError::Io(e) => format!("i/o error: {e}"),
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            _ => FrameError::Io(e),
        }
    }
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => {
                if io.kind() == std::io::ErrorKind::WouldBlock
                    || io.kind() == std::io::ErrorKind::TimedOut
                {
                    StoreError::Timeout
                } else {
                    StoreError::Io(io)
                }
            }
            other => StoreError::Protocol(other.detail()),
        }
    }
}

/// A parsed frame: the tag byte, the request id and the payload.
#[derive(Debug, PartialEq, Eq)]
pub struct Frame {
    pub tag: u8,
    /// Echo token for pipelining: a node answering a request copies the
    /// request's id into the response ([`NO_REQUEST_ID`] when it could
    /// not recover one).
    pub request_id: u32,
    pub payload: Vec<u8>,
}

/// The bytes every frame opens with — `[u32 len][version][tag][u32 id]`
/// — and fewer than any legal frame (header, payload, CRC) has.
pub(crate) const HEAD_LEN: usize = 10;

/// Encode a frame's opening bytes for a payload of `payload_len` bytes.
/// Bytes `[4..]` are the part of the body the CRC covers ahead of the
/// payload.
pub(crate) fn frame_head(tag: u8, request_id: u32, payload_len: usize) -> [u8; HEAD_LEN] {
    let body_len = payload_len + HEAD_LEN - 4;
    assert!(body_len <= MAX_BODY, "frame payload exceeds MAX_BODY");
    let mut head = [0u8; HEAD_LEN];
    head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    head[4] = PROTO_VERSION;
    head[5] = tag;
    head[6..].copy_from_slice(&request_id.to_le_bytes());
    head
}

/// The CRC trailer of a frame whose body is `body_head` (version, tag,
/// id) followed by `parts`.
pub(crate) fn frame_crc(body_head: &[u8], parts: &[&[u8]]) -> [u8; 4] {
    let mut crc = ec_wire::Crc32::new();
    crc.update(body_head);
    for part in parts {
        crc.update(part);
    }
    crc.finish().to_le_bytes()
}

pub(crate) use ec_wire::write_gathered;

/// Write one frame (`tag` + concatenated `parts`) to the stream, as one
/// gathered write: `[head | parts… | crc]`.
///
/// Taking the payload in parts lets callers frame a shard without first
/// copying it into one contiguous buffer.
pub fn write_frame(
    w: &mut impl Write,
    tag: u8,
    request_id: u32,
    parts: &[&[u8]],
) -> std::io::Result<()> {
    let payload_len: usize = parts.iter().map(|p| p.len()).sum();
    let head = frame_head(tag, request_id, payload_len);
    let crc = frame_crc(&head[4..], parts);
    let mut bufs = Vec::with_capacity(parts.len() + 2);
    bufs.push(&head[..]);
    bufs.extend_from_slice(parts);
    bufs.push(&crc);
    write_gathered(w, &bufs, &mut 0)?;
    w.flush()
}

/// Read and validate one frame.
///
/// The length prefix is checked against [`MAX_BODY`] before the body
/// buffer is allocated, so a hostile peer cannot make the node reserve
/// more than the cap. An unknown version byte is still CRC-checked
/// before being rejected — a corrupted frame reports `BadCrc`, not a
/// phantom version error.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    FrameReader::default().read(r)
}

/// A frame parser that keeps its place: [`FrameReader::read`] returns a
/// whole frame or an error, and after an error that only means "no more
/// bytes *yet*" (`WouldBlock` from a non-blocking socket) the next call
/// carries on from the byte where the stream stopped.
///
/// A frame costs two reads where the stream delivers: the first into a
/// 10-byte buffer — the header exactly, and less than the shortest
/// legal frame, so it never runs into the frame pipelined behind this
/// one — and the second for payload and CRC trailer together, into one
/// buffer whose tail is split off.
#[derive(Default)]
pub struct FrameReader {
    head: [u8; HEAD_LEN],
    head_filled: usize,
    /// Payload then CRC trailer; empty until the header is in (after
    /// that never, since the trailer alone is four bytes).
    body: Vec<u8>,
    body_filled: usize,
}

impl FrameReader {
    /// Read (or go on reading) one frame from `r`.
    pub fn read(&mut self, r: &mut impl Read) -> Result<Frame, FrameError> {
        while self.head_filled < HEAD_LEN {
            let k = read_some(r, &mut self.head[self.head_filled..], self.head_filled == 0)?;
            self.head_filled += k;
            self.check_head()?;
        }
        let body_len = u32::from_le_bytes(self.head[..4].try_into().expect("4 bytes"));
        let payload_len = body_len as usize - (HEAD_LEN - 4);
        if self.body.is_empty() {
            // Sized from a length `check_head` bounded by `MAX_BODY`.
            self.body = vec![0u8; payload_len + 4];
        }
        while self.body_filled < self.body.len() {
            self.body_filled += read_some(r, &mut self.body[self.body_filled..], false)?;
        }
        let (head, mut payload) = (self.head, std::mem::take(&mut self.body));
        *self = FrameReader::default();
        let crc = frame_crc(&head[4..], &[&payload[..payload_len]]);
        let intact = payload[payload_len..] == crc;
        payload.truncate(payload_len);
        if !intact {
            return Err(FrameError::BadCrc);
        }
        if head[4] != PROTO_VERSION {
            return Err(FrameError::BadVersion(head[4]));
        }
        let request_id = u32::from_le_bytes(head[6..].try_into().expect("4 bytes"));
        Ok(Frame {
            tag: head[5],
            request_id,
            payload,
        })
    }

    /// Whether part of a frame is in and the rest is not.
    pub(crate) fn in_frame(&self) -> bool {
        self.head_filled > 0
    }

    /// Judge the length prefix the moment its four bytes are in —
    /// before anything is allocated, and without waiting for bytes a
    /// hostile or confused peer may never send.
    fn check_head(&self) -> Result<(), FrameError> {
        if self.head_filled < 4 {
            return Ok(());
        }
        let body_len = u32::from_le_bytes(self.head[..4].try_into().expect("4 bytes"));
        if (body_len as usize) < HEAD_LEN - 4 || body_len as usize > MAX_BODY {
            return Err(FrameError::BadLength(body_len));
        }
        Ok(())
    }
}

/// One `read` into `buf`, retried over `Interrupted`. The stream ending
/// is [`FrameError::Eof`] between frames (`at_start`: the normal end of
/// a connection) and [`FrameError::Truncated`] anywhere inside one.
fn read_some(r: &mut impl Read, buf: &mut [u8], at_start: bool) -> Result<usize, FrameError> {
    loop {
        match r.read(buf) {
            Ok(0) if at_start => return Err(FrameError::Eof),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(k) => return Ok(k),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

// ---------------------------------------------------------------------
// Payload helpers: the `[u16 len][bytes]` strings used by every opcode.
// ---------------------------------------------------------------------

/// Append a length-prefixed string to a payload under construction.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a received payload with typed, bounds-checked reads.
/// Every failure is a `BadRequest`-grade parse error, never a panic.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> PayloadReader<'a> {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let r = &self.buf[self.pos..];
        self.pos = self.buf.len();
        r
    }

    pub fn u8(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("payload truncated")?;
        self.pos += 1;
        Ok(b)
    }

    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let end = self.pos.checked_add(N).ok_or("payload truncated")?;
        let slice = self.buf.get(self.pos..end).ok_or("payload truncated")?;
        self.pos = end;
        Ok(slice.try_into().expect("length checked"))
    }

    /// A `[u16 len][bytes]` string, validated as UTF-8 and bounded by
    /// `max` bytes.
    pub fn str_bounded(&mut self, max: usize, what: &str) -> Result<&'a str, String> {
        let len = self.u16()? as usize;
        if len > max {
            return Err(format!("{what} length {len} exceeds the cap of {max}"));
        }
        let end = self.pos.checked_add(len).ok_or("payload truncated")?;
        let bytes = self.buf.get(self.pos..end).ok_or("payload truncated")?;
        self.pos = end;
        std::str::from_utf8(bytes).map_err(|_| format!("{what} is not valid UTF-8"))
    }

    /// A blob key (bounded by [`MAX_KEY`]).
    pub fn key(&mut self) -> Result<&'a str, String> {
        let key = self.str_bounded(MAX_KEY, "key")?;
        if key.is_empty() {
            return Err("key must not be empty".into());
        }
        Ok(key)
    }

    /// Assert the payload is fully consumed (trailing garbage is a
    /// malformed request, not something to silently ignore).
    pub fn finish(self) -> Result<(), String> {
        if self.pos != self.buf.len() {
            return Err(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// Build the payload of an `ERR` response.
pub fn err_payload(code: RemoteErrorCode, message: &str) -> Vec<u8> {
    // Truncate pathological messages — on a char boundary, since the
    // receiver validates the message as UTF-8 and a split multi-byte
    // character would turn a clean typed error into "malformed frame".
    let mut end = message.len().min(512);
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    let msg = &message.as_bytes()[..end];
    let mut out = Vec::with_capacity(3 + msg.len());
    out.push(code as u8);
    out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
    out.extend_from_slice(msg);
    out
}

/// Parse an `ERR` payload into a [`StoreError::Remote`].
pub fn parse_err(payload: &[u8]) -> StoreError {
    let mut r = PayloadReader::new(payload);
    let parsed = (|| -> Result<StoreError, String> {
        let code = r.u8()?;
        let msg = r.str_bounded(u16::MAX as usize, "error message")?;
        let code =
            RemoteErrorCode::from_wire(code).ok_or_else(|| format!("unknown error code {code}"))?;
        Ok(StoreError::Remote {
            code,
            message: msg.to_string(),
        })
    })();
    parsed.unwrap_or_else(|e| StoreError::Protocol(format!("malformed ERR frame: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_wire::crc32;
    use std::io::{Cursor, IoSlice};

    /// `body` framed by hand — length prefix, CRC trailer — for bodies
    /// `write_frame` would never produce.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::from((body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
        buf.extend_from_slice(&crc32(body).to_le_bytes());
        buf
    }

    #[test]
    fn v2_frame_roundtrips_with_id() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            op::PUT_SHARD,
            0xDEAD_BEEF,
            &[b"abc", b"", b"defg"],
        )
        .unwrap();
        let frame = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(frame.tag, op::PUT_SHARD);
        assert_eq!(frame.request_id, 0xDEAD_BEEF);
        assert_eq!(frame.payload, b"abcdefg");
    }

    #[test]
    fn retired_version_is_refused_by_name() {
        // What the retired layout put on the wire — `[version 1][tag]
        // [payload]`, no id, CRC valid — is refused whole: as a version
        // this build does not speak once there are enough bytes to read
        // it as a frame, as a length no frame can have before that.
        let get = framed(&[&[1u8, op::GET_SHARD][..], b"\x03\x00key"].concat());
        let err = read_frame(&mut Cursor::new(get)).unwrap_err();
        assert!(matches!(err, FrameError::BadVersion(1)), "{err:?}");
        assert_eq!(
            err.detail(),
            "unsupported protocol version 1 (this build speaks 2)"
        );
        let err = read_frame(&mut Cursor::new(framed(&[1u8, op::HEALTH]))).unwrap_err();
        assert!(matches!(err, FrameError::BadLength(2)), "{err:?}");
    }

    #[test]
    fn clean_eof_between_frames() {
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn truncation_everywhere_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::HEALTH, 7, &[b"xy"]).unwrap();
        // Cutting the stream at every byte boundary: the first 0..4
        // bytes are a truncated length prefix (or clean EOF at 0);
        // everything after is a truncated body/CRC.
        for cut in 1..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        // A 4 GiB length prefix followed by nothing: must fail on the
        // *length check*, not by attempting the allocation (the cursor
        // has no further bytes, so an attempted read would report
        // truncation instead).
        let mut buf = Vec::from(u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadLength(u32::MAX))
        ));
        // Lengths too short for version + tag + id are equally invalid.
        for short in 0u32..6 {
            let buf = short.to_le_bytes();
            assert!(matches!(
                read_frame(&mut Cursor::new(&buf)),
                Err(FrameError::BadLength(_))
            ));
        }
    }

    #[test]
    fn v2_frame_too_short_for_its_id_is_bad_length() {
        // A frame must carry at least version + tag + u32 id: a
        // CRC-valid body shorter than that is structurally invalid.
        for body in [vec![2u8, op::HEALTH], vec![2u8, op::HEALTH, 0, 0]] {
            assert!(matches!(
                read_frame(&mut Cursor::new(framed(&body))),
                Err(FrameError::BadLength(_))
            ));
        }
    }

    #[test]
    fn corrupt_body_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::GET_SHARD, 42, &[b"key"]).unwrap();
        for flip in 4..buf.len() {
            let mut bad = buf.clone();
            bad[flip] ^= 0x20;
            let err = read_frame(&mut Cursor::new(&bad)).unwrap_err();
            assert!(matches!(err, FrameError::BadCrc), "flip at {flip}: {err:?}");
        }
    }

    #[test]
    fn wrong_version_detected_after_crc() {
        // A well-formed frame of a future protocol version: CRC valid,
        // version byte unsupported.
        let buf = framed(&[9u8, op::HEALTH, 1, 0, 0, 0]);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadVersion(9))
        ));
        // The same future-version frame with a corrupt byte reports the
        // CRC failure, not a phantom version error.
        let mut bad = buf.clone();
        bad[5] ^= 0x01;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(FrameError::BadCrc)
        ));
    }

    #[test]
    fn payload_reader_bounds_everything() {
        let mut payload = Vec::new();
        put_str(&mut payload, "hello");
        payload.extend_from_slice(&7u32.to_le_bytes());
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.key().unwrap(), "hello");
        assert_eq!(r.u32().unwrap(), 7);
        r.finish().unwrap();

        // Truncated string
        let mut r = PayloadReader::new(&[5, 0, b'a']);
        assert!(r.str_bounded(100, "s").is_err());
        // Over-cap key
        let mut long = Vec::new();
        put_str(&mut long, &"k".repeat(MAX_KEY + 1));
        assert!(PayloadReader::new(&long).key().is_err());
        // Empty key
        let mut empty = Vec::new();
        put_str(&mut empty, "");
        assert!(PayloadReader::new(&empty).key().is_err());
        // Trailing garbage
        let mut r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.finish().is_err());
        // Invalid UTF-8
        let mut r = PayloadReader::new(&[2, 0, 0xFF, 0xFE]);
        assert!(r.str_bounded(100, "s").unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn err_frames_roundtrip() {
        let payload = err_payload(RemoteErrorCode::NotFound, "no such key");
        match parse_err(&payload) {
            StoreError::Remote { code, message } => {
                assert_eq!(code, RemoteErrorCode::NotFound);
                assert_eq!(message, "no such key");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown code or malformed payload degrade to Protocol, not a
        // panic.
        assert!(matches!(parse_err(&[99, 0, 0]), StoreError::Protocol(_)));
        assert!(matches!(parse_err(&[]), StoreError::Protocol(_)));
    }

    // -----------------------------------------------------------------
    // Gathered writer and two-read reader against the field-by-field
    // pair they replaced.
    // -----------------------------------------------------------------

    /// The frame writer and reader as they were before the gathered
    /// write and the two-read parse: one `write_all` per field (six per
    /// frame), one `read_exact` per field (five). Kept as the oracle.
    mod oracle {
        use super::super::*;

        pub fn write_frame(
            w: &mut impl Write,
            tag: u8,
            request_id: u32,
            parts: &[&[u8]],
        ) -> std::io::Result<()> {
            let payload_len: usize = parts.iter().map(|p| p.len()).sum();
            let head = [PROTO_VERSION, tag];
            let id = request_id.to_le_bytes();
            let body_len = payload_len + head.len() + id.len();
            assert!(body_len <= MAX_BODY, "frame payload exceeds MAX_BODY");
            let mut crc = ec_wire::Crc32::new();
            crc.update(&head);
            crc.update(&id);
            for part in parts {
                crc.update(part);
            }
            w.write_all(&(body_len as u32).to_le_bytes())?;
            w.write_all(&head)?;
            w.write_all(&id)?;
            for part in parts {
                w.write_all(part)?;
            }
            w.write_all(&crc.finish().to_le_bytes())?;
            w.flush()
        }

        pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
            let mut len_bytes = [0u8; 4];
            read_exact_or_eof(r, &mut len_bytes)?;
            let body_len = u32::from_le_bytes(len_bytes);
            if body_len < 6 || body_len as usize > MAX_BODY {
                return Err(FrameError::BadLength(body_len));
            }
            let mut head = [0u8; 2];
            r.read_exact(&mut head)?;
            let mut id = [0u8; 4];
            r.read_exact(&mut id)?;
            let mut payload = vec![0u8; body_len as usize - 6];
            r.read_exact(&mut payload)?;
            let mut crc_bytes = [0u8; 4];
            r.read_exact(&mut crc_bytes)?;
            let mut crc = ec_wire::Crc32::new();
            crc.update(&head);
            crc.update(&id);
            crc.update(&payload);
            if u32::from_le_bytes(crc_bytes) != crc.finish() {
                return Err(FrameError::BadCrc);
            }
            if head[0] != PROTO_VERSION {
                return Err(FrameError::BadVersion(head[0]));
            }
            Ok(Frame {
                tag: head[1],
                request_id: u32::from_le_bytes(id),
                payload,
            })
        }

        fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
            let mut filled = 0;
            while filled < buf.len() {
                match r.read(&mut buf[filled..]) {
                    Ok(0) if filled == 0 => return Err(FrameError::Eof),
                    Ok(0) => return Err(FrameError::Truncated),
                    Ok(k) => filled += k,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(())
        }
    }

    /// A sink that takes at most `per_call` bytes per call and counts
    /// its calls by kind.
    struct Sink {
        bytes: Vec<u8>,
        per_call: usize,
        vectored_calls: usize,
        plain_calls: usize,
    }

    impl Sink {
        fn taking(per_call: usize) -> Sink {
            Sink {
                bytes: Vec::new(),
                per_call,
                vectored_calls: 0,
                plain_calls: 0,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain_calls += 1;
            let n = buf.len().min(self.per_call);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_calls += 1;
            let mut room = self.per_call;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A reader that hands out `bytes` in pieces of the sizes in
    /// `pieces` (cycled; a zero counts as one), and — when `stutter` —
    /// reports `WouldBlock` before every piece, the way a non-blocking
    /// socket does between segments.
    struct Pieces<'a> {
        bytes: &'a [u8],
        pieces: Vec<usize>,
        calls: usize,
        stutter: bool,
    }

    impl<'a> Pieces<'a> {
        fn of(bytes: &'a [u8], pieces: &[usize]) -> Pieces<'a> {
            Pieces {
                bytes,
                pieces: pieces.to_vec(),
                calls: 0,
                stutter: false,
            }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.stutter && self.calls % 2 == 1 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let piece = self.pieces[self.calls % self.pieces.len()].max(1);
            let n = piece.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// What a read came to, in a form two readers can be compared by:
    /// the frame, or which error (with its value where it has one).
    fn verdict(result: Result<Frame, FrameError>) -> String {
        match result {
            Ok(frame) => format!("{frame:?}"),
            Err(FrameError::Io(e)) => format!("Io({:?})", e.kind()),
            Err(e) => format!("{e:?}"),
        }
    }

    fn encoded(tag: u8, id: u32, parts: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        oracle::write_frame(&mut bytes, tag, id, parts).unwrap();
        bytes
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Same bytes as the oracle for any tag, id and split of the
        /// payload into parts — through a sink that takes everything
        /// (one `write_vectored`, nothing else) and through one that
        /// takes `k` bytes a call.
        #[test]
        fn gathered_writer_matches_the_oracle(
            tag in proptest::prelude::any::<u8>(),
            id in proptest::prelude::any::<u32>(),
            parts in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
                0..5,
            ),
            k in 1usize..64,
        ) {
            let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let want = encoded(tag, id, &parts);

            let mut roomy = Sink::taking(usize::MAX);
            write_frame(&mut roomy, tag, id, &parts).unwrap();
            assert_eq!(roomy.bytes, want);
            assert_eq!((roomy.vectored_calls, roomy.plain_calls), (1, 0));

            let mut tight = Sink::taking(k);
            write_frame(&mut tight, tag, id, &parts).unwrap();
            assert_eq!(tight.bytes, want);
            assert_eq!(tight.vectored_calls, want.len().div_ceil(k));
        }

        /// Same frame as the oracle however the stream is cut up — a
        /// byte at a time, at arbitrary points, with `WouldBlock`
        /// between any two pieces — and the same error for every
        /// truncation.
        #[test]
        fn two_read_reader_matches_the_oracle(
            tag in proptest::prelude::any::<u8>(),
            id in proptest::prelude::any::<u32>(),
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            pieces in proptest::collection::vec(0usize..40, 1..8),
        ) {
            let bytes = encoded(tag, id, &[&payload]);
            let want = verdict(oracle::read_frame(&mut Cursor::new(&bytes)));
            assert_eq!(want, format!("{:?}", Frame { tag, request_id: id, payload }));

            assert_eq!(verdict(read_frame(&mut Cursor::new(&bytes))), want);
            assert_eq!(verdict(read_frame(&mut Pieces::of(&bytes, &[1]))), want);
            assert_eq!(verdict(read_frame(&mut Pieces::of(&bytes, &pieces))), want);

            // The same reader carries on across `WouldBlock`s.
            let mut stream = Pieces { stutter: true, ..Pieces::of(&bytes, &pieces) };
            let mut reader = FrameReader::default();
            let got = loop {
                match reader.read(&mut stream) {
                    Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    done => break done,
                }
            };
            assert_eq!(verdict(got), want);

            for cut in 0..bytes.len() {
                let want = verdict(oracle::read_frame(&mut Cursor::new(&bytes[..cut])));
                for pieces in [&[usize::MAX][..], &[1], &pieces] {
                    let got = read_frame(&mut Pieces::of(&bytes[..cut], pieces));
                    assert_eq!(verdict(got), want, "cut at {cut}, pieces {pieces:?}");
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_reads_as_the_oracle_reads_it() {
        let bytes = encoded(op::GET_SHARD, 0x0102_0304, &[b"k", b"ey"]);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let want = verdict(oracle::read_frame(&mut Cursor::new(&bad)));
            for pieces in [&[usize::MAX][..], &[1], &[3, 7]] {
                let got = read_frame(&mut Pieces::of(&bad, pieces));
                assert_eq!(verdict(got), want, "bit {bit}, pieces {pieces:?}");
            }
        }
    }

    #[test]
    fn inflated_length_is_refused_on_its_fourth_byte() {
        // A stream that blocks for good after the length prefix: the
        // verdict must come from the prefix alone — no buffer is sized
        // from it, no further byte is waited for. One past the cap and
        // the largest prefix there is; the cap itself is a legal length
        // and does wait.
        for (len, refused) in [
            (MAX_BODY as u32 + 1, true),
            (u32::MAX, true),
            (MAX_BODY as u32, false),
        ] {
            let prefix = len.to_le_bytes();
            let mut stream = Pieces {
                stutter: true,
                ..Pieces::of(&prefix, &[1])
            };
            let mut reader = FrameReader::default();
            let mut blocked = 0;
            let verdict = loop {
                match reader.read(&mut stream) {
                    Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        blocked += 1;
                        if blocked > 8 {
                            break None;
                        }
                    }
                    other => break Some(other),
                }
            };
            match verdict {
                Some(Err(FrameError::BadLength(l))) => assert!(refused && l == len),
                // The stream ran dry mid-header: the reader was still
                // waiting, as it must for a legal length.
                Some(Err(FrameError::Truncated)) => assert!(!refused, "length {len}"),
                other => panic!("length {len}: {other:?}"),
            }
        }
    }

    #[test]
    fn back_to_back_frames_parse_as_two_with_no_over_read() {
        let first = encoded(op::PUT_SHARD, 1, &[b"key", &[7u8; 100]]);
        for second in [
            encoded(op::HEALTH, 2, &[]),
            encoded(op::GET_SHARD, NO_REQUEST_ID, &[b"a-longer-payload"]),
        ] {
            for (a, b) in [(&first, &second), (&second, &first)] {
                let mut both = a.clone();
                both.extend_from_slice(b);
                let mut cursor = Cursor::new(&both);
                let mut reader = FrameReader::default();
                let one = reader.read(&mut cursor).unwrap();
                assert_eq!(
                    cursor.position() as usize,
                    a.len(),
                    "read into the next frame"
                );
                let two = reader.read(&mut cursor).unwrap();
                assert_eq!(
                    verdict(Ok(one)),
                    verdict(oracle::read_frame(&mut Cursor::new(a)))
                );
                assert_eq!(
                    verdict(Ok(two)),
                    verdict(oracle::read_frame(&mut Cursor::new(b)))
                );
                assert!(matches!(reader.read(&mut cursor), Err(FrameError::Eof)));
            }
        }
    }
}
