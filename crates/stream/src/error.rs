//! Error type of the streaming archive subsystem.

use ec_core::EcError;
use std::fmt;

/// Everything that can go wrong while writing, reading or repairing an
/// archive.
#[derive(Debug)]
pub enum StreamError {
    /// An underlying I/O failure (file missing, disk full, …).
    Io(std::io::Error),
    /// A codec-level failure bubbled up from `ec-core`.
    Codec(EcError),
    /// The shard bytes do not form a valid archive (bad magic, version,
    /// header checksum, inconsistent parameters, …).
    Format(String),
    /// Chunk `chunk` has more missing/corrupt slices than the parity
    /// count can repair (damage is counted per chunk: chunk-local
    /// corruption can exceed the archive-wide damaged-file count).
    TooDamaged {
        chunk: u64,
        missing: usize,
        parity: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error: {e}"),
            StreamError::Codec(e) => write!(f, "codec error: {e}"),
            StreamError::Format(msg) => write!(f, "invalid archive format: {msg}"),
            StreamError::TooDamaged {
                chunk,
                missing,
                parity,
            } => write!(
                f,
                "chunk {chunk}: {missing} shards damaged but only {parity} parity shards available"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<EcError> for StreamError {
    fn from(e: EcError) -> Self {
        StreamError::Codec(e)
    }
}
