//! The one error type of every codec family.

use std::fmt;
use xor_runtime::ExecError;

/// Everything that can go wrong when constructing or using a codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EcError {
    /// Invalid code parameters, or an out-of-range shard / row index.
    InvalidParams(String),
    /// Wrong number of shards passed to an operation.
    ShardCount { expected: usize, got: usize },
    /// Shards have inconsistent or invalid lengths.
    ShardLength(String),
    /// More shards are missing than the parity count can repair.
    TooManyErasures { missing: usize, parity: usize },
    /// The erasure pattern contains no data shards, so there is nothing
    /// to decode (parity-only loss is repaired by re-encoding, not by a
    /// decode program). A typed variant so callers can tell "nothing to
    /// do" apart from caller error.
    NoDataLost,
    /// The survivor submatrix is singular — the erasure pattern is not
    /// decodable under this code's matrix (for a non-MDS code such as
    /// LRC, the pattern exceeds the construction's guarantees).
    SingularPattern { lost: Vec<usize> },
    /// A codec name or wire ID that no registered codec answers to, or a
    /// spec whose parameters the named codec cannot satisfy.
    UnknownCodec(String),
    /// A repair-plan source shard that [`crate::XorCodec::repair_sources`]
    /// requires was not provided to
    /// [`crate::XorCodec::reconstruct_subset`].
    MissingSource { shard: usize },
    /// Executor-level failure (bubbled up; indicates a bug if it ever
    /// escapes this crate).
    Exec(ExecError),
}

impl fmt::Display for EcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcError::InvalidParams(msg) => write!(f, "invalid codec parameters: {msg}"),
            EcError::ShardCount { expected, got } => {
                write!(f, "expected {expected} shards, got {got}")
            }
            EcError::ShardLength(msg) => write!(f, "bad shard length: {msg}"),
            EcError::TooManyErasures { missing, parity } => write!(
                f,
                "{missing} shards missing but only {parity} parity shards available"
            ),
            EcError::NoDataLost => write!(
                f,
                "no data shards lost; decoding is a no-op (re-encode to repair parity)"
            ),
            EcError::SingularPattern { lost } => write!(
                f,
                "erasure pattern {lost:?} is not decodable under this code's matrix"
            ),
            EcError::UnknownCodec(msg) => write!(f, "unknown codec: {msg}"),
            EcError::MissingSource { shard } => {
                write!(f, "repair-plan source shard {shard} was not provided")
            }
            EcError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for EcError {}

impl From<ExecError> for EcError {
    fn from(e: ExecError) -> Self {
        EcError::Exec(e)
    }
}
