//! What every workload shares: the six operations, the pinned engine,
//! the op tally, and the timing helpers.

use ec_core::{Kernel, RsConfig};
use std::time::{Duration, Instant};
use xor_runtime::{ExecProgram, VarArena};

/// RS(10,4) everywhere — the paper's code.
pub const N: usize = 10;
pub const P: usize = 4;

/// The six operations every workload performs once per cycle, in this
/// order. `<op>_MBps` are the end-to-end metric names.
pub const OPS: [&str; 6] = [
    "write",
    "read",
    "read_degraded",
    "update",
    "repair",
    "scrub",
];

/// The layers a decomposed replay attributes time to (crate names).
pub const LAYERS: [&str; 5] = ["runtime", "core", "wire", "stream", "store"];
pub const RUNTIME: usize = 0;
pub const CORE: usize = 1;
pub const WIRE: usize = 2;
pub const STREAM: usize = 3;
pub const STORE: usize = 4;

/// Per-op, per-layer self time in seconds for one replayed cycle.
pub type LayerTimes = [[f64; LAYERS.len()]; OPS.len()];

pub const BLOCKSIZE: usize = 1024;

/// The engine every codec in the benchmark runs on, pinned explicitly:
/// on two cores the auto-sized pool is bimodal from run to run (6.4 vs
/// 2.9 GB/s on the same stripe), and the tuned profile is a measurement
/// of its own.
pub fn engine() -> RsConfig {
    RsConfig::new(N, P)
        .kernel(Kernel::Auto)
        .blocksize(BLOCKSIZE)
        .parallelism(1)
}

/// Operations attempted and failed. A failed op is a wrong or refused
/// result; the run then reports `correct: false` and exits non-zero.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one attempted op; `ok == false` makes it a failed one.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("trajectory: FAILED op: {what}");
            }
        }
    }
}

/// One timed sample of one op: where it began and how long its timed
/// spans took together (prepare/damage/verify steps between them are
/// not counted).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub start: Instant,
    pub secs: f64,
}

/// Accumulates the timed spans of one sample.
pub struct Stopwatch {
    start: Instant,
    total: Duration,
}

impl Stopwatch {
    pub fn new() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            total: Duration::ZERO,
        }
    }

    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.total += t.elapsed();
        r
    }

    pub fn sample(&self) -> Sample {
        Sample {
            start: self.start,
            secs: self.total.as_secs_f64(),
        }
    }
}

/// Time one closure, in seconds.
pub fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// A workload: a fixture (built by its constructor, which is what
/// `setup_s` times) and a cycle that performs every op once.
pub trait Workload {
    /// Perform every op once, round-robin, so that every metric samples
    /// the same stretch of wall time. `cycle` drives the rotation of
    /// names, patterns and ranges.
    fn cycle(&mut self, cycle: usize) -> [Sample; OPS.len()];

    /// User payload bytes one sample of each op covers.
    fn payload_bytes(&self) -> [u64; OPS.len()];

    /// Replay the bytes of cycle `cycle` through each layer's public
    /// functions and return every layer's self time per op. `ops` are
    /// the samples that cycle just measured.
    fn replay(&mut self, cycle: usize, ops: &[Sample; OPS.len()]) -> LayerTimes;

    /// Bytes held over live user bytes, taken after initial population.
    fn stored_bytes_per_user_byte(&self) -> f64;

    /// Final checks after the last cycle (state the run must leave).
    fn finish(&mut self);

    fn tally(&self) -> Tally;
}

/// A byte buffer that starts on a cache-line boundary. The XOR kernels
/// run a fifth slower on buffers that straddle lines, and where `Vec`
/// puts its bytes depends on everything allocated before it — so the
/// buffers the harness hands to slice-taking calls are aligned by
/// construction, not by the luck of the heap.
pub struct Aligned {
    buf: Vec<u8>,
    offset: usize,
    len: usize,
}

impl Aligned {
    const LINE: usize = 64;

    pub fn copy_of(bytes: &[u8]) -> Aligned {
        let buf = vec![0u8; bytes.len() + Aligned::LINE];
        let offset = buf.as_ptr().align_offset(Aligned::LINE);
        let mut a = Aligned {
            buf,
            offset,
            len: bytes.len(),
        };
        a.as_mut_slice().copy_from_slice(bytes);
        a
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.offset..self.offset + self.len]
    }

    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.buf[self.offset..self.offset + self.len]
    }
}

/// A compiled program with the scratch it needs to run repeatedly
/// without allocating: the `runtime` layer as the replay sees it.
pub struct Prog {
    prog: ExecProgram,
    arena: VarArena,
    out: Vec<Vec<u8>>,
}

impl Prog {
    pub fn compile(slp: &slp::Slp, packet_len: usize) -> Prog {
        let prog = ExecProgram::compile(slp, BLOCKSIZE, Kernel::Auto);
        let arena = prog.make_arena(packet_len);
        let out = vec![vec![0u8; packet_len]; prog.n_outputs()];
        Prog { prog, arena, out }
    }

    /// Run over `inputs` into the program's own output scratch.
    pub fn run(&mut self, inputs: &[&[u8]]) {
        let mut outs: Vec<&mut [u8]> = self.out.iter_mut().map(Vec::as_mut_slice).collect();
        self.prog
            .run_with_arena(inputs, &mut outs, &mut self.arena)
            .expect("replay program shape matches its inputs");
    }

    /// Run over `inputs` into the caller's `outputs`.
    pub fn run_into(&mut self, inputs: &[&[u8]], outputs: &mut [&mut [u8]]) {
        self.prog
            .run_with_arena(inputs, outputs, &mut self.arena)
            .expect("replay program shape matches its inputs");
    }
}

/// Replay programs by name, compiled on first use (in the traced run
/// only, so that `setup_s` never pays for them).
#[derive(Default)]
pub struct ProgCache(std::collections::HashMap<String, Prog>);

impl ProgCache {
    pub fn get(
        &mut self,
        key: String,
        packet_len: usize,
        slp: impl FnOnce() -> slp::Slp,
    ) -> &mut Prog {
        self.0
            .entry(key)
            .or_insert_with(|| Prog::compile(&slp(), packet_len))
    }
}

/// Time `prog` over the packets of the first `N` shards of `stripe`
/// that are not in `lost` — the inputs the codec would feed it.
pub fn exec_stripe(prog: &mut Prog, stripe: &[Vec<u8>], lost: &[usize]) -> f64 {
    let inputs = packets_of(
        (0..stripe.len())
            .filter(|i| !lost.contains(i))
            .take(N)
            .map(|i| stripe[i].as_slice()),
    );
    secs(|| prog.run(&inputs)).1
}

/// The eight packets of each shard, in order — a program's input list.
pub fn packets_of<'a>(shards: impl IntoIterator<Item = &'a [u8]>) -> Vec<&'a [u8]> {
    shards
        .into_iter()
        .flat_map(|s| s.chunks_exact(s.len() / 8))
        .collect()
}
