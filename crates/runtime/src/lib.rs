//! The execution backend: SIMD XOR kernels, cache-conflict-aware buffer
//! arenas, and the blocked interpreter that runs optimized SLPs over real
//! byte arrays.
//!
//! The paper executes optimized SLPs "line-by-line in the host language in
//! the interpreter style" (§2) with the *blocking* technique of §6.1:
//! every array is processed in `B`-byte chunks so that the working set of
//! one chunk iteration fits in L1. Three ingredients matter for speed:
//!
//! * [`Kernel`] — how one `dst ← ⊕(s1, …, sk)` over a chunk is computed:
//!   byte-wise (`xor1` of §7.2), `u64`-wide, 32-byte AVX2 (`xor32`),
//!   64-byte AVX-512 (`xor64`) or 16-byte NEON (`xor16`), feature-detected
//!   at runtime and interchangeable byte-for-byte;
//! * [`VarArena`] — variable buffers allocated so that
//!   `A(v_i) ≡ i·B (mod 4096)`, the anti-conflict staggering of §7.4 that
//!   keeps blocks from colliding in L1 cache sets;
//! * [`ExecProgram`] — a compiled SLP: slot-resolved instructions run for
//!   every chunk index over input, variable, and output buffers without
//!   any per-run allocation. Delta updates and verification run the same
//!   program through a fused loop that forms, transforms and consumes
//!   each block in block-local strips, never writing an intermediate
//!   array.
//!
//! Parallelism is one shared subsystem: the process has one persistent
//! worker pool (one grow-on-demand [`VarArena`] per worker, sized by
//! [`default_parallelism`]), and [`ExecProgram::run_striped`],
//! [`ExecProgram::run_delta_striped`] and [`ExecProgram::verify_striped`]
//! split a byte range into at most `max_stripes` blocksize-aligned
//! stripes and run them on it with zero steady-state allocation. A call
//! of one stripe runs inline on the caller's thread and never builds the
//! pool; codecs pass their `parallelism` as the cap.

mod arena;
mod exec;
mod kernels;
mod partition;
mod pool;

pub use arena::{with_ref_scratch, AlignedBuf, StripedBuf, VarArena, CACHE_PAGE};
pub use exec::{ExecError, ExecProgram};
pub use kernels::{available_kernels, xor_accumulate, xor_into, xor_slices, Kernel};
pub use pool::{default_parallelism, env_parallelism, lock_unpoisoned};
