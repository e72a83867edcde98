//! Error type of the object-store subsystem.

use ec_core::EcError;
use std::fmt;

/// A typed error code carried on the wire in `ERR` response frames
/// (`docs/STORE.md`). The numeric values are part of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RemoteErrorCode {
    /// The requested key does not exist on this node.
    NotFound = 1,
    /// The stored blob failed its CRC or framing check (bit-rot on the
    /// node's disk — attributable to this shard, repairable from peers).
    CorruptBlob = 2,
    /// The request frame parsed but its payload is malformed (bad key
    /// length, oversized key, trailing bytes, unknown opcode, …).
    BadRequest = 3,
    /// The node failed on a local I/O operation.
    Io = 4,
    /// The byte stream is not a valid protocol frame (bad length prefix,
    /// CRC mismatch, unsupported version). The node answers once and
    /// closes the connection: after a framing error the stream position
    /// is unknowable.
    BadFrame = 5,
}

impl RemoteErrorCode {
    /// Decode a wire byte; unknown values map to `None` (a future node
    /// speaking a newer protocol revision).
    pub fn from_wire(b: u8) -> Option<RemoteErrorCode> {
        match b {
            1 => Some(RemoteErrorCode::NotFound),
            2 => Some(RemoteErrorCode::CorruptBlob),
            3 => Some(RemoteErrorCode::BadRequest),
            4 => Some(RemoteErrorCode::Io),
            5 => Some(RemoteErrorCode::BadFrame),
            _ => None,
        }
    }
}

impl fmt::Display for RemoteErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RemoteErrorCode::NotFound => "not found",
            RemoteErrorCode::CorruptBlob => "corrupt blob",
            RemoteErrorCode::BadRequest => "bad request",
            RemoteErrorCode::Io => "i/o failure",
            RemoteErrorCode::BadFrame => "bad frame",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong in the store: node-local failures,
/// protocol violations, and cluster-level unavailability.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (socket, disk).
    Io(std::io::Error),
    /// A codec-level failure bubbled up from `ec-core`.
    Codec(EcError),
    /// The peer sent bytes that do not form a valid protocol frame, or a
    /// frame whose payload is malformed. Detected *locally* (contrast
    /// [`StoreError::Remote`]).
    Protocol(String),
    /// The remote node answered with a typed `ERR` frame.
    Remote {
        code: RemoteErrorCode,
        message: String,
    },
    /// The object has no manifest on any reachable node.
    NotFound(String),
    /// Too few shards of the object are retrievable to reconstruct it.
    Unavailable {
        object: String,
        needed: usize,
        have: usize,
    },
    /// A stored manifest is malformed or inconsistent.
    Manifest(String),
    /// Invalid caller-supplied arguments (object name, geometry, node
    /// set).
    InvalidArg(String),
    /// A per-operation deadline (or a per-I/O socket timeout) expired
    /// before the operation completed.
    Timeout,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            StoreError::Remote { code, message } => {
                write!(f, "remote error ({code}): {message}")
            }
            StoreError::NotFound(object) => {
                write!(f, "object `{object}` not found on any reachable node")
            }
            StoreError::Unavailable {
                object,
                needed,
                have,
            } => write!(
                f,
                "object `{object}` unavailable: {have} of the {needed} shards \
                 needed for reconstruction are retrievable"
            ),
            StoreError::Manifest(msg) => write!(f, "invalid manifest: {msg}"),
            StoreError::InvalidArg(msg) => write!(f, "invalid argument: {msg}"),
            StoreError::Timeout => f.write_str("operation deadline exceeded"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        // A socket read/write timeout surfaces as WouldBlock or TimedOut
        // depending on the platform; both mean "the deadline expired",
        // which callers want to see as the typed variant.
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            StoreError::Timeout
        } else {
            StoreError::Io(e)
        }
    }
}

impl From<EcError> for StoreError {
    fn from(e: EcError) -> Self {
        StoreError::Codec(e)
    }
}
