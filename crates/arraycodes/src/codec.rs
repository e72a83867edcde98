//! [`XorCodec`]: the one codec engine. A systematic XOR-linear erasure
//! code is a parity bit-matrix plus a packet count per shard; everything
//! else — encode, delta update, partial re-encode, decode, repair plans,
//! verify, the program table — is the same for every such code and lives
//! here, once.

use crate::error::EcError;
use crate::layout;
use crate::lru::LruCache;
use bitmatrix::BitMatrix;
use slp::{binary_slp_from_bitmatrix, Slp};
use slp_optimizer::{optimize, OptConfig};
use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};
use xor_runtime::{lock_unpoisoned as lock, ExecProgram, Kernel};

/// The engine knobs of an [`XorCodec`]: how programs are optimized,
/// compiled and executed. Which *code* runs is not in here.
///
/// Precedence, lowest to highest:
///
/// 1. the paper's constants ([`EngineConfig::PAPER`]; §7.4:
///    `Dfs(Fu(XorRePair(P)))`, `B = 1024`, the widest XOR kernel the CPU
///    offers, up to one stripe per CPU);
/// 2. environment: `XORSLP_KERNEL` (`scalar` | `wide64` | `avx2` |
///    `avx512` | `neon` | `auto`) and `XORSLP_PARALLELISM` (`0` = auto or
///    a stripe cap) — CI uses these to force the whole suite through
///    each engine configuration;
/// 3. explicit field writes on the value [`EngineConfig::new`] returns.
///
/// Steps 1–2 are applied in [`EngineConfig::new`] and nowhere else. The
/// best `B` is a property of the machine (§7.4 picks 1K on Intel, 2K on
/// AMD); the `table_7_2_blocksize` / `table_7_4_blocksize` binaries
/// re-measure it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// SLP optimization pipeline (§4–§6).
    pub opt: OptConfig,
    /// Blocking parameter `B` in bytes (§6.1, §7.4).
    pub blocksize: usize,
    /// XOR kernel (§7.2's `xor1` vs `xor32`).
    pub kernel: Kernel,
    /// The most stripes one call hands the process's one worker pool:
    /// `0` = auto ([`xor_runtime::default_parallelism`], the pool's
    /// size), `1` = serial (every call runs inline on the calling thread,
    /// arena-reusing and mutex-free, and no thread is started), `k > 1` =
    /// at most `k` stripes per call; caps above the pool's size queue on
    /// it.
    pub parallelism: usize,
}

impl EngineConfig {
    /// The paper's engine.
    pub const PAPER: EngineConfig = EngineConfig {
        opt: OptConfig::FULL_DFS,
        blocksize: 1024,
        kernel: Kernel::Auto,
        parallelism: 0,
    };

    /// The default engine: [`EngineConfig::PAPER`] with the
    /// `XORSLP_KERNEL` / `XORSLP_PARALLELISM` overrides applied (see the
    /// type docs).
    pub fn new() -> EngineConfig {
        let paper = EngineConfig::PAPER;
        EngineConfig {
            kernel: Kernel::from_env().unwrap_or(paper.kernel),
            parallelism: xor_runtime::env_parallelism().unwrap_or(paper.parallelism),
            ..paper
        }
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::new()
    }
}

/// A request to the program table: what a program is compiled for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// Rebuild the lost data shards of an erasure pattern (ascending,
    /// deduplicated, losing at least one data shard).
    Pattern(Vec<usize>),
    /// Column block `i` of the parity matrix: scales one data shard's
    /// *change* into the parity shards (delta updates).
    Column(usize),
    /// A strict subset of parity shards (ascending, 0-based within the
    /// parity block): re-encodes only those (partial repair).
    Rows(Vec<usize>),
}

/// A compiled XOR program and the packets it reads and writes.
///
/// Two requests with the same `(inputs, outputs)` compute the same
/// linear map of the code over the same packets, so they share one
/// `Program`: the decode of `{0, 1}` and of `{0, 1, 12, 13}` under
/// RS(10, 4) pick the same survivors and are one entry.
struct Program {
    /// The optimized SLP (kept for metrics: XOR counts prove the delta
    /// and partial-repair wins).
    slp: Slp,
    prog: ExecProgram,
    /// `(shard, packet)` feeding each program input, in input order,
    /// grouped by shard. A decode reads only the survivor packets its
    /// recovery rows use: under LRC, one local group.
    inputs: Vec<(usize, usize)>,
    /// `(shard, packet)` each program output writes, ascending. A column
    /// program skips the parity packets its column block does not feed.
    outputs: Vec<(usize, usize)>,
}

/// The distinct shards of a packet list grouped by shard, in order: a
/// program's exact read set, or the data shards a decode rebuilds.
fn shards_of(packets: &[(usize, usize)]) -> impl Iterator<Item = usize> + '_ {
    packets.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0)
}

/// The stripe cap an [`EngineConfig::parallelism`] stands for.
fn stripe_cap(parallelism: usize) -> usize {
    match parallelism {
        0 => xor_runtime::default_parallelism(),
        k => k,
    }
}

/// A systematic XOR-linear erasure codec over `n` data and `p` parity
/// shards of `w` packets each, defined by its `p·w × n·w` parity
/// bit-matrix and computed entirely by optimized XOR programs.
///
/// Construction compiles the optimized encode program once. Every other
/// program — the decode of an erasure pattern (pick surviving packets,
/// invert over GF(2), optimize the recovery rows), a delta update's
/// column program, a partial repair's row program — is compiled on first
/// use into one bounded LRU program table. Requests that resolve to the
/// same packets share one program ([`XorCodec::programs`] counts them).
/// All methods take `&self` and the codec is `Send + Sync`.
///
/// Execution stripes across the process's one worker pool, at most
/// [`EngineConfig::parallelism`] stripes per call: every worker owns a
/// persistent grow-on-demand arena, so concurrent callers never
/// serialize on shared scratch buffers. The codec owns no thread; one at
/// `parallelism = 1` never uses the pool. In the steady state at
/// `parallelism = 1`,
/// [`encode_into`](XorCodec::encode_into),
/// [`update_parity`](XorCodec::update_parity) and
/// [`verify`](XorCodec::verify) allocate nothing,
/// [`decode`](XorCodec::decode) allocates only the buffer it returns, and
/// [`reconstruct`](XorCodec::reconstruct) one `Vec` per rebuilt shard
/// (ec-core's `alloc_steady` test pins all five).
pub struct XorCodec {
    n: usize,
    p: usize,
    w: usize,
    cfg: EngineConfig,
    /// Full `(n+p)·w × n·w` generator: the identity, then the parity
    /// bit-matrix.
    generator: BitMatrix,
    /// Shard-level support of the parity matrix, `p × n`: parity shard
    /// `r` reads data shard `j` iff their `w × w` block is non-zero.
    reads: BitMatrix,
    /// Locality groups (shard indices per group, data members plus the
    /// group's local parity shard). Empty for a code without locality;
    /// otherwise steers survivor selection toward the cheap local rows.
    groups: Vec<Vec<usize>>,
    enc_slp: Slp,
    enc_prog: ExecProgram,
    /// The stripe cap of one call, resolved from `cfg.parallelism`.
    stripes: usize,
    table: Mutex<LruCache<Key, Arc<Program>>>,
}

impl XorCodec {
    /// Build the codec of the systematic code whose parity packets are
    /// `parity · data packets` over GF(2).
    ///
    /// `parity` is `p·w × n·w`: row `w·r + b` is packet `b` of parity
    /// shard `r`, column `w·i + b` packet `b` of data shard `i`. `groups`
    /// lists the locality groups of the code, if any (shard indices,
    /// `0..n+p`).
    pub fn new(
        n: usize,
        p: usize,
        w: usize,
        parity: &BitMatrix,
        groups: Vec<Vec<usize>>,
        cfg: EngineConfig,
    ) -> Result<XorCodec, EcError> {
        if n == 0 || p == 0 || w == 0 {
            return Err(EcError::InvalidParams(
                "need at least one data shard, one parity shard and one packet per shard".into(),
            ));
        }
        if cfg.blocksize == 0 {
            return Err(EcError::InvalidParams("blocksize must be positive".into()));
        }
        if (parity.rows(), parity.cols()) != (p * w, n * w) {
            return Err(EcError::InvalidParams(format!(
                "parity bit-matrix is {}×{}, expected {}×{}",
                parity.rows(),
                parity.cols(),
                p * w,
                n * w
            )));
        }
        // Neither has an XOR program: a parity packet that is always
        // zero, a data shard whose change moves no parity.
        if let Some(r) = (0..p * w).find(|&r| parity.row_popcount(r) == 0) {
            return Err(EcError::InvalidParams(format!(
                "parity bit-matrix row {r} is all-zero"
            )));
        }
        let mut reads = BitMatrix::zero(p, n);
        for r in 0..p * w {
            for c in parity.ones_in_row(r) {
                reads.set(r / w, c / w, true);
            }
        }
        if let Some(j) = (0..n).find(|&j| (0..p).all(|r| !reads.get(r, j))) {
            return Err(EcError::InvalidParams(format!(
                "data shard {j} feeds no parity shard"
            )));
        }
        if groups.iter().flatten().any(|&i| i >= n + p) {
            return Err(EcError::InvalidParams(format!(
                "locality group names a shard outside 0..{}",
                n + p
            )));
        }
        let mut generator = BitMatrix::zero((n + p) * w, n * w);
        generator.paste(0, 0, &BitMatrix::identity(n * w));
        generator.paste(n * w, 0, parity);
        let enc_slp = optimize(&binary_slp_from_bitmatrix(parity), cfg.opt);
        let enc_prog = ExecProgram::compile(&enc_slp, cfg.blocksize, cfg.kernel);
        // The table holds every single and double erasure pattern
        // (t + C(t, 2) keys — the patterns repair traffic cycles through),
        // every column and single-row program (t keys: the delta-update
        // and parity-repair working set), and one key more.
        let t = n + p;
        let capacity = 1 + 2 * t + t * (t - 1) / 2;
        Ok(XorCodec {
            n,
            p,
            w,
            cfg,
            generator,
            reads,
            groups,
            enc_slp,
            enc_prog,
            stripes: stripe_cap(cfg.parallelism),
            table: Mutex::new(LruCache::new(capacity)),
        })
    }

    /// Set a new [`EngineConfig::parallelism`]; compiled programs are
    /// kept.
    pub(crate) fn with_parallelism(mut self, parallelism: usize) -> XorCodec {
        self.cfg.parallelism = parallelism;
        self.stripes = stripe_cap(parallelism);
        self
    }

    /// Number of data shards `n`.
    pub fn data_shards(&self) -> usize {
        self.n
    }

    /// Number of parity shards `p`.
    pub fn parity_shards(&self) -> usize {
        self.p
    }

    /// Total shards `n + p`.
    pub fn total_shards(&self) -> usize {
        self.n + self.p
    }

    /// Packets per shard `w`; shard lengths are multiples of this.
    pub fn packets_per_shard(&self) -> usize {
        self.w
    }

    /// The engine knobs this codec was built with.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Locality groups of the code: each entry lists the shard indices
    /// (data + local parity) of one repair group. Empty without locality.
    pub fn locality_groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The optimized encoding SLP (for inspection and metrics; §7.5).
    pub fn encode_slp(&self) -> &Slp {
        &self.enc_slp
    }

    /// Number of distinct compiled programs in the program table
    /// (decode, column and row-subset; requests that share a program
    /// count once).
    pub fn programs(&self) -> usize {
        lock(&self.table).values().map(Arc::as_ptr).collect::<HashSet<_>>().len()
    }

    /// The optimized decoding SLP for an erasure pattern (for metrics;
    /// Figure 1). `lost` lists missing shard indices (data or parity).
    ///
    /// # Errors
    /// [`EcError::NoDataLost`] when the pattern erases parity only —
    /// decoding is then a no-op with no program to return (repair parity
    /// with [`XorCodec::encode_parity_partial`] instead).
    pub fn decode_slp(&self, lost: &[usize]) -> Result<Slp, EcError> {
        match self.decode_program(lost)? {
            Some(dec) => Ok(dec.slp.clone()),
            None => Err(EcError::NoDataLost),
        }
    }

    /// Optimize and compile the XOR program of a bit-matrix.
    fn compile(&self, bits: &BitMatrix) -> (Slp, ExecProgram) {
        let slp = optimize(&binary_slp_from_bitmatrix(bits), self.cfg.opt);
        let prog = ExecProgram::compile(&slp, self.cfg.blocksize, self.cfg.kernel);
        (slp, prog)
    }

    fn check_data_index(&self, shard_index: usize) -> Result<(), EcError> {
        if shard_index >= self.n {
            return Err(EcError::InvalidParams(format!(
                "data shard index {shard_index} out of range (data shards: {})",
                self.n
            )));
        }
        Ok(())
    }

    fn check_total(&self, got: usize) -> Result<(), EcError> {
        let expected = self.n + self.p;
        if got != expected {
            return Err(EcError::ShardCount { expected, got });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Encoding
    // ------------------------------------------------------------------

    /// The validation prologue shared by every parity-producing entry
    /// point: check shard counts against `(expected_data,
    /// expected_parity)` and return the common, packet-aligned shard
    /// length. Zero-length shards are valid everywhere and make the
    /// operation a no-op — callers early-return on `Ok(0)`.
    fn encode_prologue(
        &self,
        data: &[&[u8]],
        parity: &[&mut [u8]],
        expected_data: usize,
        expected_parity: usize,
    ) -> Result<usize, EcError> {
        if data.len() != expected_data {
            return Err(EcError::ShardCount { expected: expected_data, got: data.len() });
        }
        if parity.len() != expected_parity {
            return Err(EcError::ShardCount { expected: expected_parity, got: parity.len() });
        }
        layout::common_shard_len(
            data.iter().copied().chain(parity.iter().map(|s| &**s)),
            self.w,
        )
    }

    /// Run `prog` from whole data shards into whole output shards, with
    /// the packet lists in thread-local scratch.
    fn run_shards(
        &self,
        prog: &ExecProgram,
        data: &[&[u8]],
        out: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        xor_runtime::with_ref_scratch(|inputs, outputs| {
            inputs.extend(data.iter().flat_map(|s| layout::packets(s, self.w)));
            outputs.extend(out.iter_mut().flat_map(|s| layout::packets_mut(s, self.w)));
            Ok(prog.run_striped(inputs, outputs, self.stripes)?)
        })
    }

    /// Compute all parity shards from data shards, zero-copy.
    ///
    /// Every shard (input and output) must have the same length, a
    /// multiple of `w`.
    pub fn encode_parity(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), EcError> {
        match self.encode_prologue(data, parity, self.n, self.p)? {
            0 => Ok(()),
            _ => self.run_shards(&self.enc_prog, data, parity),
        }
    }

    /// The shard length [`XorCodec::encode`] and [`XorCodec::encode_into`]
    /// produce for `data_len` bytes of input: the smallest packet-aligned
    /// length whose `n` shards cover the data.
    pub fn shard_len(&self, data_len: usize) -> usize {
        layout::shard_len_for(data_len, self.n, self.w)
    }

    /// Split `data` into the `n` padded data shards [`XorCodec::encode`]
    /// would produce, without computing parity. This is the one
    /// authoritative definition of the data→shard layout — callers that
    /// diff against stored shards (e.g. delta overwrites) use it so the
    /// split can never drift from the encode path.
    pub fn split_data(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let len = self.shard_len(data.len());
        (0..self.n)
            .map(|i| {
                let mut shard = Vec::new();
                fill_data_shard(&mut shard, data, i, len);
                shard
            })
            .collect()
    }

    /// Encode a byte buffer into `n + p` shards (convenience allocation
    /// path). The data is split across `n` shards, zero-padding the tail;
    /// use the original length with [`XorCodec::decode`] to strip padding.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, EcError> {
        let mut shards = vec![Vec::new(); self.total_shards()];
        self.encode_into(data, &mut shards)?;
        Ok(shards)
    }

    /// [`XorCodec::encode`] into caller-owned shard buffers: each of the
    /// `n + p` vectors is resized to [`XorCodec::shard_len`] and filled
    /// (data split + zero padding, then parity).
    ///
    /// This is the steady-state streaming entry point: buffer capacity is
    /// retained across calls, the packet-reference lists live in
    /// thread-local scratch ([`xor_runtime::with_ref_scratch`]), and a
    /// single-stripe execution plan runs inline on the caller's
    /// persistent arena — so re-encoding same-sized chunks into the same
    /// buffers performs **zero allocations** after the first call (with
    /// `parallelism = 1`; a striped call hands its stripes to the pool's
    /// workers, whose arenas are persistent too, but task submission
    /// allocates).
    pub fn encode_into(&self, data: &[u8], shards: &mut [Vec<u8>]) -> Result<(), EcError> {
        self.check_total(shards.len())?;
        let len = self.shard_len(data.len());
        for (i, shard) in shards.iter_mut().take(self.n).enumerate() {
            fill_data_shard(shard, data, i, len);
        }
        for shard in shards.iter_mut().skip(self.n) {
            // Size only — no clear(): the XOR program overwrites every
            // parity byte, and re-zeroing p × len per chunk is wasted
            // bandwidth on the steady-state streaming path.
            shard.resize(len, 0);
        }
        if len == 0 {
            return Ok(());
        }
        let pl = len / self.w;
        let (data_part, parity_part) = shards.split_at_mut(self.n);
        xor_runtime::with_ref_scratch(|inputs, outputs| {
            inputs.extend(data_part.iter().flat_map(|s| s.chunks_exact(pl)));
            outputs.extend(parity_part.iter_mut().flat_map(|s| s.chunks_exact_mut(pl)));
            self.enc_prog.run_striped(inputs, outputs, self.stripes)
        })?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // The program table
    // ------------------------------------------------------------------

    /// The compiled program for `key`. A hit is one hash lookup. A miss
    /// resolves the request to the packets its program reads and writes;
    /// a live entry with that signature is shared, otherwise the program
    /// is compiled outside the lock.
    fn program(&self, key: Key) -> Result<Arc<Program>, EcError> {
        if let Some(hit) = lock(&self.table).get(&key) {
            return Ok(hit);
        }
        let (bits, inputs, outputs) = self.resolve(&key)?;
        let packets = |rows: Vec<usize>| -> Vec<(usize, usize)> {
            rows.into_iter().map(|g| (g / self.w, g % self.w)).collect()
        };
        let (inputs, outputs) = (packets(inputs), packets(outputs));
        let shared = |table: &LruCache<Key, Arc<Program>>| {
            table.values().find(|p| p.inputs == inputs && p.outputs == outputs).cloned()
        };
        let mut table = lock(&self.table);
        let program = match shared(&table) {
            Some(program) => program,
            None => {
                drop(table);
                let (slp, prog) = self.compile(&bits);
                table = lock(&self.table);
                // A concurrent miss may have compiled it meanwhile.
                shared(&table).unwrap_or_else(|| Arc::new(Program { slp, prog, inputs, outputs }))
            }
        };
        table.insert(key, program.clone());
        Ok(program)
    }

    /// Resolve a request to the bit-matrix of its program and the
    /// generator rows — packet `g % w` of shard `g / w` — it reads and
    /// writes. A data packet is also a column of the parity matrix.
    ///
    /// The pipeline is exactly the full-encode pipeline applied to a
    /// sub-matrix of the generator: a column block (delta update), a row
    /// subset (partial repair), or the recovery rows of an inverse
    /// (decode). An equal signature implies an identical matrix: the
    /// chosen survivor packets are independent, so the lost packets have
    /// exactly one expression over the ones a decode reads.
    fn resolve(&self, key: &Key) -> Result<(BitMatrix, Vec<usize>, Vec<usize>), EcError> {
        let (n, p, w) = (self.n, self.p, self.w);
        match key {
            Key::Pattern(lost) => {
                // Greedy independent-row selection over the surviving
                // generator rows: any n·w independent packets decode. The
                // candidate ordering steers *which* basis wins —
                // locality-first for a grouped code, natural order (≡ the
                // classic first-n choice for an MDS code) otherwise.
                let candidates = self.survivor_order(lost);
                let rows: Vec<usize> =
                    candidates.iter().flat_map(|&i| i * w..(i + 1) * w).collect();
                let surviving = self.generator.select_rows(&rows);
                let chosen = surviving.select_independent_rows();
                if chosen.len() < n * w {
                    return Err(EcError::SingularPattern { lost: lost.clone() });
                }
                let inv = surviving
                    .select_rows(&chosen)
                    .invert()
                    .expect("independent rows form an invertible square");
                // Rows of the inverse for the lost data packets express
                // them as combinations of the chosen survivor packets.
                let lost_rows: Vec<usize> =
                    lost.iter().filter(|&&i| i < n).flat_map(|&i| i * w..(i + 1) * w).collect();
                let rec = inv.select_rows(&lost_rows);
                // Drop survivor packets no recovery row reads: the
                // program's inputs then name exactly the shards a repair
                // must fetch.
                let mut used = BTreeSet::new();
                for r in 0..rec.rows() {
                    used.extend(rec.ones_in_row(r));
                }
                let used: Vec<usize> = used.into_iter().collect();
                let inputs = used.iter().map(|&c| rows[chosen[c]]).collect();
                Ok((rec.select_cols(&used), inputs, lost_rows))
            }
            Key::Column(i) => {
                // Keep only the parity packets this column block feeds: a
                // zero row contributes nothing and has no SLP form.
                let block = self.generator.col_range(i * w, w);
                let rows: Vec<usize> =
                    (n * w..(n + p) * w).filter(|&g| block.row_popcount(g) > 0).collect();
                Ok((block.select_rows(&rows), (i * w..(i + 1) * w).collect(), rows))
            }
            Key::Rows(shards) => {
                let rows: Vec<usize> =
                    shards.iter().flat_map(|&r| (n + r) * w..(n + r + 1) * w).collect();
                Ok((self.generator.select_rows(&rows), (0..n * w).collect(), rows))
            }
        }
    }

    // ------------------------------------------------------------------
    // Partial programs: delta updates and partial repair
    // ------------------------------------------------------------------

    /// Validate and normalize a parity-row subset: ascending, in-range,
    /// non-empty. Returns `None` when the subset is the *full* row set —
    /// the caller then uses the already-compiled encode program.
    fn normalize_rows(&self, rows: &[usize]) -> Result<Option<Vec<usize>>, EcError> {
        let p = self.p;
        if rows.is_empty() {
            return Err(EcError::InvalidParams("parity row subset must not be empty".into()));
        }
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            return Err(EcError::InvalidParams("parity rows must be strictly increasing".into()));
        }
        if *rows.last().expect("non-empty") >= p {
            return Err(EcError::InvalidParams(format!(
                "parity row index out of range (parity shards: {p})"
            )));
        }
        if rows.len() == p {
            return Ok(None); // 0..p in order: the full encode program
        }
        Ok(Some(rows.to_vec()))
    }

    /// Delta parity update: after data shard `shard_index` changes from
    /// `old` to `new`, bring **all** `p` parity shards up to date in
    /// place — without touching the other `n − 1` data shards.
    ///
    /// Parity is linear in the data, so
    /// `parity' = parity ⊕ P[·][i] · (old_i ⊕ new_i)`: the update runs
    /// the cached *column* program of shard `i` over the data delta (one
    /// column block's XORs instead of all `n`) and accumulates the result
    /// into `parity`. This is the read-modify-write fast path of
    /// production erasure-coded storage: a single-shard write costs
    /// `O(p)` shard reads/writes instead of a full-stripe re-encode.
    ///
    /// `old`, `new` and every parity shard must share one length, a
    /// multiple of `w`. Zero-length shards are a no-op.
    pub fn update_parity(
        &self,
        shard_index: usize,
        old: &[u8],
        new: &[u8],
        parity: &mut [&mut [u8]],
    ) -> Result<(), EcError> {
        self.check_data_index(shard_index)?;
        if self.encode_prologue(&[old, new], parity, 2, self.p)? == 0 {
            return Ok(());
        }
        // parity ⊕= column program (old ⊕ new), one fused blocked pass.
        // The program covers only the parity packets this column feeds;
        // with a locality-grouped matrix that is the shard's own local
        // parity plus the globals, so the untouched packets are skipped
        // here. The packet list is thread-local scratch: a steady-state
        // update allocates nothing.
        let entry = self.program(Key::Column(shard_index))?;
        let (n, w) = (self.n, self.w);
        xor_runtime::with_ref_scratch(|_, touched| {
            touched.extend(
                parity
                    .iter_mut()
                    .flat_map(|s| layout::packets_mut(s, w))
                    .enumerate()
                    .filter(|(r, _)| entry.outputs.binary_search(&(n + r / w, r % w)).is_ok())
                    .map(|(_, packet)| packet),
            );
            Ok(entry.prog.run_delta_striped(
                self.w,
                old,
                new,
                touched,
                self.stripes,
            )?)
        })
    }

    /// Re-encode a *subset* of the parity shards from the full data.
    ///
    /// `rows` lists the parity shards to produce (0-based within the
    /// parity block, strictly increasing); `parity[k]` receives row
    /// `rows[k]`. Repairing one lost parity shard this way costs one
    /// row's XOR program, not the whole `p`-row encode. Passing all `p`
    /// rows is equivalent to [`XorCodec::encode_parity`] and reuses its
    /// program.
    pub fn encode_parity_partial(
        &self,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
        rows: &[usize],
    ) -> Result<(), EcError> {
        let Some(key) = self.normalize_rows(rows)? else {
            return self.encode_parity(data, parity);
        };
        if self.encode_prologue(data, parity, self.n, key.len())? == 0 {
            return Ok(());
        }
        let entry = self.program(Key::Rows(key))?;
        self.run_shards(&entry.prog, data, parity)
    }

    /// The optimized SLP of the delta-update column program for one data
    /// shard (for metrics: its XOR count is what a single-shard write
    /// pays, against [`XorCodec::encode_slp`] for the full stripe).
    pub fn update_slp(&self, shard_index: usize) -> Result<Slp, EcError> {
        self.check_data_index(shard_index)?;
        Ok(self.program(Key::Column(shard_index))?.slp.clone())
    }

    /// The optimized SLP of a parity-row-subset program (for metrics).
    /// The full row set returns the encode SLP itself.
    pub fn partial_encode_slp(&self, rows: &[usize]) -> Result<Slp, EcError> {
        match self.normalize_rows(rows)? {
            None => Ok(self.enc_slp.clone()),
            Some(key) => Ok(self.program(Key::Rows(key))?.slp.clone()),
        }
    }

    // ------------------------------------------------------------------
    // Decoding
    // ------------------------------------------------------------------

    /// The decode program of an erasure pattern, or `None` when the
    /// pattern loses no data shard (nothing to decode).
    fn decode_program(&self, lost: &[usize]) -> Result<Option<Arc<Program>>, EcError> {
        let (n, p) = (self.n, self.p);
        let mut lost: Vec<usize> = lost.to_vec();
        lost.sort_unstable();
        lost.dedup();
        if lost.iter().any(|&i| i >= n + p) {
            return Err(EcError::InvalidParams(format!(
                "erased shard index out of range (total {})",
                n + p
            )));
        }
        if lost.len() > p {
            return Err(EcError::TooManyErasures { missing: lost.len(), parity: p });
        }
        if lost.iter().all(|&i| i >= n) {
            return Ok(None);
        }
        self.program(Key::Pattern(lost)).map(Some)
    }

    /// The surviving shards of an erasure pattern, in the order row
    /// selection should try them. Without locality groups the natural
    /// order is kept (for an MDS code the greedy scan then degenerates to
    /// the classic "first n survivors" choice). With groups, members of
    /// groups containing a lost shard come first, then remaining data
    /// shards, then the other local parities, then the globals — so a
    /// pattern a local group can repair compiles an r-input program and
    /// never touches a global row.
    fn survivor_order(&self, lost: &[usize]) -> Vec<usize> {
        let mut candidates: Vec<usize> =
            (0..self.n + self.p).filter(|i| !lost.contains(i)).collect();
        if self.groups.is_empty() {
            return candidates;
        }
        let affected: Vec<&Vec<usize>> = self
            .groups
            .iter()
            .filter(|g| g.iter().any(|i| lost.contains(i)))
            .collect();
        let in_affected = |i: usize| affected.iter().any(|g| g.contains(&i));
        let class = |i: usize| {
            if i < self.n {
                0 // data: free identity rows
            } else if self.groups.iter().any(|g| g.contains(&i)) {
                1 // local parity: touches one group
            } else {
                2 // global parity: touches everything
            }
        };
        candidates.sort_by_key(|&i| (usize::from(!in_affected(i)), class(i), i));
        candidates
    }

    /// Run a decode program from the survivor packets its inputs name
    /// (the caller has checked they are present) into `outputs`, one
    /// `pl`-byte packet per `(shard, packet)` of its outputs, in order.
    /// The packet lists live in thread-local scratch.
    fn run_decode<'a>(
        &self,
        dec: &Program,
        shards: &'a [Option<Vec<u8>>],
        pl: usize,
        outputs: impl Iterator<Item = &'a mut [u8]>,
    ) -> Result<(), EcError> {
        xor_runtime::with_ref_scratch(|ins, outs| {
            ins.extend(dec.inputs.iter().map(|&(i, k)| {
                &shards[i].as_deref().expect("survivor present")[k * pl..(k + 1) * pl]
            }));
            outs.extend(outputs);
            Ok(dec.prog.run_striped(ins, outs, self.stripes)?)
        })
    }

    /// The exact shard set a [`XorCodec::reconstruct_subset`] of `lost`
    /// reads: the decode program's survivor inputs plus, for each lost
    /// parity shard, the surviving data shards its generator rows touch.
    /// This is the repair *plan* — a networked repair fetches precisely
    /// these shards and nothing else, which is where a locally-repairable
    /// code's traffic win comes from.
    pub fn repair_sources(&self, lost: &[usize]) -> Result<Vec<usize>, EcError> {
        let dec = self.decode_program(lost)?;
        let mut sources: BTreeSet<usize> = dec.iter().flat_map(|d| shards_of(&d.inputs)).collect();
        for &i in lost.iter().filter(|&&i| i >= self.n) {
            sources.extend(
                (0..self.n).filter(|j| !lost.contains(j) && self.reads.get(i - self.n, *j)),
            );
        }
        Ok(sources.into_iter().collect())
    }

    /// Rebuild every missing shard in place (data via the decode program,
    /// parity by re-encoding). Each rebuilt shard is one `Vec`, allocated
    /// once and written by its program.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        self.check_total(shards.len())?;
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        self.reconstruct_subset(shards, &missing)
    }

    /// Rebuild exactly the shards in `targets`, reading only the shards
    /// the repair plan ([`XorCodec::repair_sources`]) names — other `None`
    /// entries are treated as *unavailable, not wanted* and are left
    /// untouched. This is the source-restricted repair path: a networked
    /// caller fetches the plan's shards, leaves the rest `None`, and
    /// pays the plan's bytes, not the full survivor set's.
    ///
    /// # Errors
    /// [`EcError::MissingSource`] when a shard the plan requires is
    /// `None` ([`XorCodec::reconstruct_from`] fetches the plan and
    /// widens it).
    pub fn reconstruct_subset(
        &self,
        shards: &mut [Option<Vec<u8>>],
        targets: &[usize],
    ) -> Result<(), EcError> {
        let n = self.n;
        self.check_total(shards.len())?;
        if targets.is_empty() {
            return Ok(());
        }
        let dec = self.decode_program(targets)?;
        let mut sources = dec.iter().flat_map(|d| shards_of(&d.inputs));
        if let Some(absent) = sources.find(|&s| shards[s].is_none()) {
            return Err(EcError::MissingSource { shard: absent });
        }
        let len =
            layout::common_shard_len(shards.iter().flatten().map(Vec::as_slice), self.w)?;

        // Phase 1: reconstruct lost data shards from the program's
        // survivor inputs.
        if let Some(dec) = &dec {
            let mut rebuilt: Vec<Vec<u8>> =
                shards_of(&dec.outputs).map(|_| vec![0u8; len]).collect();
            if len > 0 {
                let packets = rebuilt.iter_mut().flat_map(|s| layout::packets_mut(s, self.w));
                self.run_decode(dec, shards, len / self.w, packets)?;
            }
            for (i, shard) in shards_of(&dec.outputs).zip(rebuilt) {
                shards[i] = Some(shard);
            }
        }

        // Phase 2: re-encode only the *target* parity rows (their data
        // inputs are complete now) — repair work is proportional to what
        // was lost, not to p. Data shards outside the plan may still be
        // `None`; they are substituted with zeros, legal only because the
        // target rows' generator blocks there are zero (checked). The
        // zeros are allocated only when such a shard is absent.
        let mut target_rows: Vec<usize> =
            targets.iter().filter(|&&i| i >= n).map(|&i| i - n).collect();
        target_rows.sort_unstable();
        target_rows.dedup();
        if !target_rows.is_empty() {
            if let Some(absent) = (0..n).find(|&j| {
                shards[j].is_none() && target_rows.iter().any(|&r| self.reads.get(r, j))
            }) {
                return Err(EcError::MissingSource { shard: absent });
            }
            let zeros = shards[..n].iter().any(Option::is_none).then(|| vec![0u8; len]);
            let data_refs: Vec<&[u8]> = shards[..n]
                .iter()
                .map(|s| s.as_deref().or(zeros.as_deref()).expect("zeros exist if one is absent"))
                .collect();
            let mut rebuilt: Vec<Vec<u8>> = target_rows.iter().map(|_| vec![0u8; len]).collect();
            {
                let mut refs: Vec<&mut [u8]> =
                    rebuilt.iter_mut().map(Vec::as_mut_slice).collect();
                self.encode_parity_partial(&data_refs, &mut refs, &target_rows)?;
            }
            for (&r, shard) in target_rows.iter().zip(rebuilt) {
                shards[n + r] = Some(shard);
            }
        }
        Ok(())
    }

    /// Rebuild the `lost` shards, fetching their sources on demand: the
    /// one repair loop of every container that holds shards elsewhere.
    ///
    /// `fetch(want, shards)` fills the entries of `want` it can get and
    /// leaves the rest `None`; it is only asked for `None` entries. The
    /// loop asks for the plan's shards ([`XorCodec::repair_sources`])
    /// that `shards` lacks and rebuilds `lost` from them. If a planned
    /// source stays absent, it asks once for every other shard outside
    /// `lost` and rebuilds every shard still `None` — the plan may have
    /// read one of them.
    ///
    /// # Errors
    /// A plan error ([`EcError::TooManyErasures`],
    /// [`EcError::SingularPattern`]) returns before any fetch; after the
    /// widened fetch, the same errors count every shard still absent.
    pub fn reconstruct_from(
        &self,
        shards: &mut [Option<Vec<u8>>],
        lost: &[usize],
        mut fetch: impl FnMut(&[usize], &mut [Option<Vec<u8>>]),
    ) -> Result<(), EcError> {
        self.check_total(shards.len())?;
        let mut want = self.repair_sources(lost)?;
        want.retain(|&i| shards[i].is_none());
        if !want.is_empty() {
            fetch(&want, shards);
        }
        match self.reconstruct_subset(shards, lost) {
            Err(EcError::MissingSource { .. }) => {}
            done => return done,
        }
        let rest: Vec<usize> = (0..shards.len())
            .filter(|i| shards[*i].is_none() && !lost.contains(i) && !want.contains(i))
            .collect();
        if !rest.is_empty() {
            fetch(&rest, shards);
        }
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        self.reconstruct_subset(shards, &missing)
    }

    /// Recover the original byte buffer from surviving shards.
    ///
    /// `data_len` is the length passed to [`XorCodec::encode`] (padding is
    /// stripped). Only lost *data* shards are reconstructed; missing
    /// parity is ignored. The decode program writes each rebuilt packet
    /// into the returned buffer, the one shard-sized allocation.
    pub fn decode(&self, shards: &[Option<Vec<u8>>], data_len: usize) -> Result<Vec<u8>, EcError> {
        let n = self.n;
        self.check_total(shards.len())?;
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        if missing.len() > self.p {
            return Err(EcError::TooManyErasures { missing: missing.len(), parity: self.p });
        }
        let len =
            layout::common_shard_len(shards.iter().flatten().map(Vec::as_slice), self.w)?;
        if self.shard_len(data_len) > len {
            return Err(EcError::ShardLength(format!(
                "shards of {len} bytes cannot hold {data_len} bytes of data"
            )));
        }

        // Survivors are copied in, each lost data shard gets a zero-filled
        // slot, and the decode program writes its output packets straight
        // into those slots.
        let dec = self.decode_program(&missing)?;
        let mut out = Vec::with_capacity(n * len);
        for shard in &shards[..n] {
            match shard {
                Some(s) => out.extend_from_slice(s),
                None => out.resize(out.len() + len, 0),
            }
        }
        if let Some(dec) = dec.filter(|_| len > 0) {
            let (w, pl) = (self.w, len / self.w);
            let slots = out
                .chunks_exact_mut(pl)
                .enumerate()
                .filter(|(g, _)| dec.outputs.binary_search(&(g / w, g % w)).is_ok())
                .map(|(_, packet)| packet);
            self.run_decode(&dec, shards, pl, slots)?;
        }
        out.truncate(data_len);
        Ok(out)
    }

    /// Verify that parity shards are consistent with the data shards.
    ///
    /// The encode program runs through the fused blocked loop with a
    /// compare epilogue: each block of expected parity is computed in
    /// block-local strips and compared with the stored parity block while
    /// both are in L1, so no expected parity is written out. On one
    /// stripe the scan stops at the first mismatching block, so
    /// corruption near the front of a large stripe costs a few blocks of
    /// work, not a full re-encode; a codec at `parallelism > 1` stripes
    /// the scan like encode.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, EcError> {
        self.check_total(shards.len())?;
        let len = layout::common_shard_len(shards.iter().map(Vec::as_slice), self.w)?;
        if len == 0 {
            return Ok(true);
        }
        xor_runtime::with_ref_scratch(|packets, _| {
            packets.extend(shards.iter().flat_map(|s| layout::packets(s, self.w)));
            let (data, parity) = packets.split_at(self.n * self.w);
            Ok(self.enc_prog.verify_striped(data, parity, self.stripes)?)
        })
    }
}

/// Fill `shard` with slot `i`'s slice of `data`, zero-padded to `len`
/// (the layout shared by `encode_into` and `split_data`).
fn fill_data_shard(shard: &mut Vec<u8>, data: &[u8], i: usize, len: usize) {
    let lo = (i * len).min(data.len());
    let hi = ((i + 1) * len).min(data.len());
    shard.clear();
    shard.extend_from_slice(&data[lo..hi]);
    shard.resize(len, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayCodec;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 151 + 17) as u8).collect()
    }

    #[test]
    fn evenodd_roundtrip_every_double_erasure() {
        let codec = ArrayCodec::evenodd(5); // p = 5, w = 4
        assert_eq!(codec.prime(), 5);
        let data = sample(5 * 4 * 9 + 3);
        let shards = codec.encode(&data).unwrap();
        let total = codec.total_shards();
        for d1 in 0..total {
            for d2 in d1..total {
                let mut rx: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                rx[d1] = None;
                rx[d2] = None;
                assert_eq!(
                    codec.decode(&rx, data.len()).unwrap(),
                    data,
                    "EVENODD lost {d1},{d2}"
                );
            }
        }
    }

    #[test]
    fn rdp_roundtrip_every_double_erasure() {
        let codec = ArrayCodec::rdp(4); // p = 5, w = 4
        assert_eq!(codec.prime(), 5);
        let data = sample(4 * 4 * 11);
        let shards = codec.encode(&data).unwrap();
        let total = codec.total_shards();
        for d1 in 0..total {
            for d2 in d1..total {
                let mut rx: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                rx[d1] = None;
                rx[d2] = None;
                assert_eq!(
                    codec.decode(&rx, data.len()).unwrap(),
                    data,
                    "RDP lost {d1},{d2}"
                );
            }
        }
    }

    #[test]
    fn padded_lengths_roundtrip() {
        for len in [0usize, 1, 7, 40, 41] {
            let codec = ArrayCodec::evenodd(3);
            let data = sample(len);
            let shards = codec.encode(&data).unwrap();
            let rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            assert_eq!(codec.decode(&rx, len).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn three_erasures_rejected() {
        let codec = ArrayCodec::rdp(4);
        let data = sample(64);
        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rx[0] = None;
        rx[1] = None;
        rx[2] = None;
        assert!(matches!(
            codec.decode(&rx, data.len()),
            Err(EcError::TooManyErasures { missing: 3, parity: 2 })
        ));
    }

    #[test]
    fn encode_slp_is_pure_xor_and_optimized() {
        let codec = ArrayCodec::evenodd(8); // p = 11, w = 10
        let slp = codec.encode_slp();
        // fused, scheduled program: far fewer instructions than raw rows
        assert!(slp.instrs.len() < 2 * 10 * 8);
        assert!(slp.xor_count() > 0);
    }

    #[test]
    fn parallel_and_serial_codecs_agree() {
        let data = sample(5 * 4 * 1024 + 7);
        let serial = ArrayCodec::evenodd(5).with_parallelism(1);
        let parallel = ArrayCodec::evenodd(5).with_parallelism(4);
        let s1 = serial.encode(&data).unwrap();
        let s2 = parallel.encode(&data).unwrap();
        assert_eq!(s1, s2);
        let mut rx: Vec<Option<Vec<u8>>> = s2.into_iter().map(Some).collect();
        rx[0] = None;
        rx[6] = None; // diagonal parity
        assert_eq!(parallel.decode(&rx, data.len()).unwrap(), data);
        assert_eq!(serial.decode(&rx, data.len()).unwrap(), data);
    }

    fn parity_of(codec: &ArrayCodec, shards: &[Vec<u8>]) -> Vec<Vec<u8>> {
        shards[codec.data_shards()..].to_vec()
    }

    #[test]
    fn delta_update_matches_full_reencode() {
        for codec in [ArrayCodec::evenodd(5), ArrayCodec::rdp(4)] {
            let k = codec.data_shards();
            let w = codec.symbols_per_shard();
            let data = sample(k * w * 6);
            let shards = codec.encode(&data).unwrap();
            let shard_len = shards[0].len();
            for disk in 0..k {
                let mut new_bytes = data.clone();
                // Mutate only this disk's byte range.
                for b in new_bytes[disk * shard_len..(disk + 1) * shard_len].iter_mut() {
                    *b = b.wrapping_mul(113).wrapping_add(29);
                }
                let expected = codec.encode(&new_bytes).unwrap();

                let mut parity = parity_of(&codec, &shards);
                {
                    let mut prefs: Vec<&mut [u8]> =
                        parity.iter_mut().map(Vec::as_mut_slice).collect();
                    codec
                        .update_parity(
                            disk,
                            &shards[disk],
                            &expected[disk],
                            &mut prefs,
                        )
                        .unwrap();
                }
                assert_eq!(
                    parity,
                    parity_of(&codec, &expected),
                    "{} disk {disk}",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn delta_update_program_is_cheaper_than_full_encode() {
        let codec = ArrayCodec::rdp(8);
        let full = codec.encode_slp().xor_count();
        for disk in 0..codec.data_shards() {
            let upd = codec.update_slp(disk).unwrap().xor_count();
            assert!(upd < full, "disk {disk}: {upd} XORs vs full {full}");
        }
    }

    #[test]
    fn delta_update_validates_inputs() {
        let codec = ArrayCodec::evenodd(3); // p = 3, w = 2
        let w = codec.symbols_per_shard();
        let good = vec![0u8; 4 * w];
        let mut parity = vec![vec![0u8; 4 * w]; 2];
        {
            let mut prefs: Vec<&mut [u8]> =
                parity.iter_mut().map(Vec::as_mut_slice).collect();
            assert!(codec.update_parity(5, &good, &good, &mut prefs).is_err());
            let short = vec![0u8; 2 * w];
            assert!(codec.update_parity(0, &good, &short, &mut prefs).is_err());
            let odd = vec![0u8; 4 * w + 1];
            let mut odd_parity = vec![vec![0u8; 4 * w + 1]; 2];
            let mut oprefs: Vec<&mut [u8]> =
                odd_parity.iter_mut().map(Vec::as_mut_slice).collect();
            assert!(codec.update_parity(0, &odd, &odd, &mut oprefs).is_err());
            // zero length is a no-op
            let empty: Vec<u8> = Vec::new();
            let mut zero = [Vec::new(), Vec::new()];
            let mut zrefs: Vec<&mut [u8]> =
                zero.iter_mut().map(Vec::as_mut_slice).collect();
            codec.update_parity(0, &empty, &empty, &mut zrefs).unwrap();
        }
        assert!(codec.update_slp(99).is_err());
    }

    #[test]
    fn larger_parameters_roundtrip() {
        let codec = ArrayCodec::rdp(8); // p = 11, w = 10
        let data = sample(8 * 10 * 5 + 9);
        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rx[3] = None;
        rx[9] = None; // diagonal parity disk
        assert_eq!(codec.decode(&rx, data.len()).unwrap(), data);
    }

    // ------------------------------------------------------------------
    // The engine as an engine: a code no registry entry covers
    // ------------------------------------------------------------------

    /// n = 3, p = 3, w = 3 (so `w ∤ 8`). Deliberately irregular: P0's
    /// block over d1 has rank 2 and an all-zero row (a parity packet its
    /// column block does not feed; a shard that raises the GF(2) rank by
    /// less than w), P1 is an MDS-style row over GF(8) companions, P2
    /// ignores d2 entirely — so some ≤ p erasure patterns are
    /// rank-deficient.
    fn toy_parity() -> BitMatrix {
        BitMatrix::parse(&[
            "100 100 100",
            "010 000 010",
            "001 011 001",
            "100 001 010",
            "010 101 011",
            "001 010 101",
            "100 100 000",
            "010 010 000",
            "001 001 000",
        ])
    }

    fn toy_with(cfg: EngineConfig) -> XorCodec {
        XorCodec::new(3, 3, 3, &toy_parity(), Vec::new(), cfg).unwrap()
    }

    fn toy() -> XorCodec {
        toy_with(EngineConfig { blocksize: 64, ..EngineConfig::new() })
    }

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// Every erasure pattern of at most `p` shards.
    fn patterns(codec: &XorCodec) -> Vec<Vec<usize>> {
        let t = codec.total_shards();
        (0u32..1 << t)
            .filter(|m| m.count_ones() as usize <= codec.parity_shards())
            .map(|m| (0..t).filter(|i| m >> i & 1 == 1).collect())
            .collect()
    }

    /// The independent solvability oracle: the surviving generator rows
    /// have full column rank over GF(2).
    fn solvable(codec: &XorCodec, lost: &[usize]) -> bool {
        let w = codec.packets_per_shard();
        let rows: Vec<usize> = (0..codec.total_shards() * w)
            .filter(|r| !lost.contains(&(r / w)))
            .collect();
        codec.generator.select_rows(&rows).rank() == codec.data_shards() * w
    }

    fn erase(shards: &[Vec<u8>], lost: &[usize]) -> Vec<Option<Vec<u8>>> {
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| (!lost.contains(&i)).then(|| s.clone()))
            .collect()
    }

    #[test]
    fn parity_equals_the_unoptimized_reference_program() {
        let evenodd = ArrayCodec::evenodd(4);
        let rdp = ArrayCodec::rdp(4);
        for (name, codec) in [("toy", &toy()), ("evenodd", &*evenodd), ("rdp", &*rdp)] {
            let (n, p, w) =
                (codec.data_shards(), codec.parity_shards(), codec.packets_per_shard());
            let parity_bits = codec.generator.row_range(n * w, p * w);
            let reference = binary_slp_from_bitmatrix(&parity_bits);
            for (seed, pl) in [(1u64, 1usize), (2, 37), (3, 200)] {
                let data = random_bytes(n * w * pl, seed);
                let shards = codec.encode(&data).unwrap();
                assert_eq!(shards[0].len(), w * pl, "{name}");
                let packets: Vec<&[u8]> = data.chunks_exact(pl).collect();
                let expect = reference.run_reference(&packets);
                let got: Vec<&[u8]> =
                    shards[n..].iter().flat_map(|s| s.chunks_exact(pl)).collect();
                assert_eq!(got, expect, "{name} packet length {pl}");
            }
        }
    }

    #[test]
    fn every_solvable_pattern_roundtrips_and_the_rest_are_typed() {
        let codec = toy();
        let data = random_bytes(3 * 3 * 50 + 4, 7);
        let shards = codec.encode(&data).unwrap();
        let (mut good, mut bad) = (0, 0);
        for lost in patterns(&codec) {
            let mut rx = erase(&shards, &lost);
            if solvable(&codec, &lost) {
                good += 1;
                assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "lost {lost:?}");
                codec.reconstruct(&mut rx).unwrap();
                let rebuilt: Vec<Vec<u8>> = rx.into_iter().map(Option::unwrap).collect();
                assert_eq!(rebuilt, shards, "lost {lost:?}");
            } else {
                bad += 1;
                let typed = EcError::SingularPattern { lost: lost.clone() };
                assert_eq!(codec.decode(&rx, data.len()), Err(typed.clone()), "lost {lost:?}");
                assert_eq!(codec.reconstruct(&mut rx), Err(typed.clone()), "lost {lost:?}");
                assert_eq!(codec.repair_sources(&lost), Err(typed), "lost {lost:?}");
            }
        }
        // d2 with both parities that read it; d0 and d1 with the MDS row.
        assert!(!solvable(&codec, &[2, 3, 4]) && !solvable(&codec, &[0, 1, 4]));
        assert!(good > 30 && bad >= 2, "{good} solvable, {bad} deficient");
    }

    #[test]
    fn decode_selects_packets_not_whole_shards() {
        // Losing d1: d0 and d2 give rank 6, P0 adds only two independent
        // packets (its block over d1 has rank 2), P1's first packet
        // completes the basis and P2 is never read.
        let codec = toy();
        assert_eq!(codec.repair_sources(&[1]).unwrap(), vec![0, 2, 3, 4]);
        let dec = codec.decode_program(&[1]).unwrap().expect("data lost");
        assert_eq!(
            dec.inputs,
            vec![(0, 0), (0, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (4, 0)]
        );
        assert_eq!(codec.decode_slp(&[1]).unwrap().n_consts, 8);
        // A lost parity reads exactly the data shards its rows touch.
        assert_eq!(codec.repair_sources(&[5]).unwrap(), vec![0, 1]);
        // ... and can be rebuilt with the untouched data shard absent.
        let shards = codec.encode(&random_bytes(90, 3)).unwrap();
        let mut rx = erase(&shards, &[2, 3, 4, 5]);
        codec.reconstruct_subset(&mut rx, &[5]).unwrap();
        assert_eq!(rx[5].as_ref(), Some(&shards[5]));
        assert!(rx[2].is_none(), "unwanted shards stay untouched");
        assert_eq!(
            codec.reconstruct_subset(&mut erase(&shards, &[1, 5]), &[5]),
            Err(EcError::MissingSource { shard: 1 })
        );
    }

    #[test]
    fn update_and_partial_programs_match_the_full_encode() {
        let codec = toy();
        let (n, p, w) = (3, 3, 3);
        let len = w * 41;
        let data: Vec<Vec<u8>> = (0..n).map(|i| random_bytes(len, 10 + i as u64)).collect();
        let full = |data: &[Vec<u8>]| {
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let mut parity = vec![vec![0u8; len]; p];
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity(&refs, &mut prefs).unwrap();
            parity
        };
        let base = full(&data);

        // Column programs produce only the parity packets they feed.
        let rows = |i| -> Vec<usize> {
            let column = codec.program(Key::Column(i)).unwrap();
            column.outputs.iter().map(|&(shard, b)| (shard - n) * w + b).collect()
        };
        assert_eq!(rows(0), (0..9).collect::<Vec<_>>());
        assert_eq!(rows(1), vec![0, 2, 3, 4, 5, 6, 7, 8], "P0 packet 1 ignores d1");
        assert_eq!(rows(2), (0..6).collect::<Vec<_>>(), "P2 ignores d2");
        for i in 0..n {
            let mut changed = data.clone();
            changed[i] = random_bytes(len, 20 + i as u64);
            let mut parity = base.clone();
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.update_parity(i, &data[i], &changed[i], &mut prefs).unwrap();
            assert_eq!(parity, full(&changed), "column {i}");
        }

        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        for rows in [vec![0], vec![1], vec![2], vec![0, 1], vec![0, 2], vec![1, 2], vec![0, 1, 2]] {
            let mut out = vec![vec![0u8; len]; rows.len()];
            let mut orefs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity_partial(&refs, &mut orefs, &rows).unwrap();
            let expect: Vec<&Vec<u8>> = rows.iter().map(|&r| &base[r]).collect();
            assert_eq!(out.iter().collect::<Vec<_>>(), expect, "rows {rows:?}");
        }

        // Lengths must be multiples of w = 3, not of 8.
        let mut shards = codec.encode(&random_bytes(3 * 8, 1)).unwrap();
        assert_eq!(shards[0].len(), 9);
        assert!(codec.verify(&shards).unwrap());
        shards.iter_mut().for_each(|s| s.truncate(8));
        assert!(matches!(codec.verify(&shards), Err(EcError::ShardLength(_))));
    }

    #[test]
    fn constructor_rejects_malformed_codes() {
        let cfg = EngineConfig::new();
        let new = |n, p, w, m: &BitMatrix, groups, cfg| {
            XorCodec::new(n, p, w, m, groups, cfg).map(|_| ())
        };
        let invalid = |r: Result<(), EcError>| matches!(r, Err(EcError::InvalidParams(_)));
        let m = toy_parity();
        assert!(new(3, 3, 3, &m, vec![vec![0, 1, 5]], cfg).is_ok());
        assert!(invalid(new(0, 3, 3, &m, vec![], cfg)));
        assert!(invalid(new(3, 3, 0, &m, vec![], cfg)));
        assert!(invalid(new(3, 3, 4, &m, vec![], cfg)), "shape mismatch");
        assert!(invalid(new(3, 3, 3, &m, vec![vec![0, 6]], cfg)), "group out of range");
        assert!(invalid(new(3, 3, 3, &m, vec![], EngineConfig { blocksize: 0, ..cfg })));
        let mut zero_row = m.clone();
        for c in 0..9 {
            zero_row.set(4, c, false);
        }
        assert!(invalid(new(3, 3, 3, &zero_row, vec![], cfg)), "always-zero parity packet");
        let unprotected = BitMatrix::parse(&["110"]);
        assert!(invalid(new(3, 1, 1, &unprotected, vec![], cfg)), "d2 feeds no parity");
    }

    // ------------------------------------------------------------------
    // The program table
    // ------------------------------------------------------------------

    #[test]
    fn program_table_evicts_least_recently_used() {
        let codec = toy();
        *lock(&codec.table) = LruCache::new(2);
        let p0 = codec.decode_program(&[0]).unwrap().unwrap();
        let p1 = codec.decode_program(&[1]).unwrap().unwrap();
        // Touch [0] so [1] is the LRU entry, then insert a third pattern.
        let p0_again = codec.decode_program(&[0]).unwrap().unwrap();
        assert!(Arc::ptr_eq(&p0, &p0_again));
        let _p2 = codec.decode_program(&[2]).unwrap();
        // [1] was evicted → recompiled on next request (a fresh Arc).
        // ([0] may itself be evicted by re-inserting [1]; only the
        // recompilation of [1] is the invariant under cap 2.)
        let p1_fresh = codec.decode_program(&[1]).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&p1, &p1_fresh));
        let data = random_bytes(9 * 24, 5);
        let shards = codec.encode(&data).unwrap();
        for lost in 0..6 {
            let rx = erase(&shards, &[lost]);
            assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "lost {lost}");
            assert!(lock(&codec.table).len() <= 2, "table exceeded its capacity");
        }
    }

    #[test]
    fn program_table_is_reused() {
        let codec = toy();
        assert_eq!(lock(&codec.table).cap(), 1 + 2 * 6 + 15, "auto capacity");
        let p1 = codec.decode_program(&[0]).unwrap().unwrap();
        let p2 = codec.decode_program(&[0]).unwrap().unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        // different order (and a repeat), same pattern
        let p3 = codec.decode_program(&[1, 0, 1]).unwrap().unwrap();
        let p4 = codec.decode_program(&[0, 1]).unwrap().unwrap();
        assert!(Arc::ptr_eq(&p3, &p4));
        assert_eq!(codec.programs(), 2);
        // A pattern that loses no data shard holds no entry.
        assert!(codec.decode_program(&[3, 5]).unwrap().is_none());
        assert!(codec.decode_program(&[]).unwrap().is_none());
        assert_eq!(lock(&codec.table).len(), 2);
    }

    #[test]
    fn equal_signatures_share_one_program() {
        // Losing d0 reads d1, d2 and P0 (its first three independent
        // packets complete the basis); losing P2 as well changes nothing
        // the decode reads, so both keys hold one program.
        let codec = toy();
        let alone = codec.decode_program(&[0]).unwrap().unwrap();
        let with_p2 = codec.decode_program(&[0, 5]).unwrap().unwrap();
        assert_eq!(alone.inputs, with_p2.inputs);
        assert!(Arc::ptr_eq(&alone, &with_p2));
        let keys = lock(&codec.table).len();
        assert_eq!((keys, codec.programs()), (2, 1));
        // A different survivor set is a different program.
        let with_p0 = codec.decode_program(&[0, 3]).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&alone, &with_p0));
        assert_eq!(codec.programs(), 2);
        // The shared program rebuilds both patterns.
        let data = random_bytes(9 * 30, 8);
        let shards = codec.encode(&data).unwrap();
        for lost in [vec![0], vec![0, 5], vec![0, 3]] {
            let mut rx = erase(&shards, &lost);
            assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "lost {lost:?}");
            codec.reconstruct(&mut rx).unwrap();
            assert_eq!(rx.into_iter().map(Option::unwrap).collect::<Vec<_>>(), shards);
        }
    }

    #[test]
    fn column_and_row_programs_share_the_table() {
        let codec = toy();
        *lock(&codec.table) = LruCache::new(2);
        let a = codec.program(Key::Column(0)).unwrap();
        let b = codec.program(Key::Column(0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit must return the same program");
        // Fill past the capacity with distinct columns: LRU evicts column 0.
        for i in 1..3 {
            let _ = codec.program(Key::Column(i)).unwrap();
        }
        assert_eq!(codec.programs(), 2);
        assert!(!lock(&codec.table).contains(&Key::Column(0)));
        let fresh = codec.program(Key::Column(0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &fresh), "an evicted program must recompile");
        // Row-subset and decode keys share the same table.
        let _ = codec.program(Key::Rows(vec![1])).unwrap();
        assert!(codec.programs() <= 2, "table exceeded its capacity");
        assert!(lock(&codec.table).contains(&Key::Rows(vec![1])));
        let _ = codec.decode_program(&[1]).unwrap();
        assert!(lock(&codec.table).contains(&Key::Pattern(vec![1])));
        assert!(!lock(&codec.table).contains(&Key::Column(0)));
    }

    // ------------------------------------------------------------------
    // The repair loop
    // ------------------------------------------------------------------

    /// A `fetch` that serves `all` but withholds `refuse`, recording
    /// every request.
    fn recorder<'a>(
        all: &'a [Vec<u8>],
        refuse: &'a [usize],
        asked: &'a mut Vec<Vec<usize>>,
    ) -> impl FnMut(&[usize], &mut [Option<Vec<u8>>]) + 'a {
        move |want, shards| {
            asked.push(want.to_vec());
            for &i in want.iter().filter(|i| !refuse.contains(i)) {
                shards[i] = Some(all[i].clone());
            }
        }
    }

    #[test]
    fn reconstruct_from_fetches_exactly_the_plan() {
        // MDS: losing d0 of EVENODD(5) reads the first n survivors.
        let codec = ArrayCodec::evenodd(5);
        let shards = codec.encode(&random_bytes(5 * 4 * 16, 11)).unwrap();
        let mut asked = Vec::new();
        let mut rx = vec![None; shards.len()];
        codec.reconstruct_from(&mut rx, &[0], recorder(&shards, &[], &mut asked)).unwrap();
        assert_eq!(asked, vec![codec.repair_sources(&[0]).unwrap()]);
        assert_eq!(asked[0], vec![1, 2, 3, 4, 5]);
        assert_eq!(rx[0].as_ref(), Some(&shards[0]));
        assert!(rx[6].is_none(), "the unplanned parity is never fetched");
    }

    #[test]
    fn reconstruct_from_repairs_a_single_loss_from_its_group() {
        // XOR locals L0 = d0 ⊕ d1, L1 = d2 ⊕ d3 and a global d0 ⊕ d3.
        let parity = BitMatrix::parse(&["1100", "0011", "1001"]);
        let groups = vec![vec![0, 1, 4], vec![2, 3, 5]];
        let codec = XorCodec::new(4, 3, 1, &parity, groups, EngineConfig::new()).unwrap();
        let shards = codec.encode(&random_bytes(4 * 40, 12)).unwrap();
        let mut asked = Vec::new();
        let mut rx = vec![None; shards.len()];
        codec.reconstruct_from(&mut rx, &[2], recorder(&shards, &[], &mut asked)).unwrap();
        assert_eq!(asked, vec![vec![3, 5]]);
        assert_eq!(rx[2].as_ref(), Some(&shards[2]));
    }

    #[test]
    fn reconstruct_from_widens_once_when_a_planned_source_is_refused() {
        let codec = ArrayCodec::evenodd(5);
        let shards = codec.encode(&random_bytes(5 * 4 * 16, 13)).unwrap();
        let mut asked = Vec::new();
        let mut rx = vec![None; shards.len()];
        codec.reconstruct_from(&mut rx, &[0], recorder(&shards, &[3], &mut asked)).unwrap();
        // The plan, then every other shard outside `lost` — only Q here.
        assert_eq!(asked, vec![vec![1, 2, 3, 4, 5], vec![6]]);
        // The refused source is rebuilt too: every shard equals the encode.
        let rebuilt: Vec<Vec<u8>> = rx.into_iter().map(Option::unwrap).collect();
        assert_eq!(rebuilt, shards);
    }

    #[test]
    fn reconstruct_from_plan_errors_fetch_nothing() {
        let codec = ArrayCodec::evenodd(5); // p = 2
        let shards = codec.encode(&random_bytes(5 * 4 * 16, 14)).unwrap();
        let mut asked = Vec::new();
        let mut rx = vec![None; shards.len()];
        assert_eq!(
            codec.reconstruct_from(&mut rx, &[0, 1, 2], recorder(&shards, &[], &mut asked)),
            Err(EcError::TooManyErasures { missing: 3, parity: 2 })
        );
        let toy = toy();
        let lost = [2, 3, 4];
        assert!(!solvable(&toy, &lost));
        let shards = toy.encode(&random_bytes(90, 15)).unwrap();
        let mut rx = vec![None; shards.len()];
        assert_eq!(
            toy.reconstruct_from(&mut rx, &lost, recorder(&shards, &[], &mut asked)),
            Err(EcError::SingularPattern { lost: lost.to_vec() })
        );
        assert!(asked.is_empty(), "{asked:?}");
    }

    // ------------------------------------------------------------------
    // Decoding into the returned buffer, against rebuild-then-stitch
    // ------------------------------------------------------------------

    /// The oracle for [`XorCodec::decode`] and [`XorCodec::reconstruct`]:
    /// the decode that rebuilt each lost data shard into a `Vec` of its
    /// own and then copied every data shard into a fresh output. The
    /// caller passes a tolerable pattern over equal-length shards.
    fn stitched_decode(codec: &XorCodec, shards: &[Option<Vec<u8>>], data_len: usize) -> Vec<u8> {
        let (n, w) = (codec.n, codec.w);
        let missing: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        let len = shards.iter().flatten().next().expect("a survivor").len();
        let mut rebuilt: Vec<Vec<u8>> = Vec::new();
        if let Some(dec) = codec.decode_program(&missing).unwrap() {
            rebuilt = vec![vec![0u8; len]; dec.outputs.len() / w];
            if len > 0 {
                let pl = len / w;
                let inputs: Vec<&[u8]> = dec
                    .inputs
                    .iter()
                    .map(|&(i, k)| &shards[i].as_deref().unwrap()[k * pl..(k + 1) * pl])
                    .collect();
                let mut outputs: Vec<&mut [u8]> =
                    rebuilt.iter_mut().flat_map(|s| layout::packets_mut(s, w)).collect();
                dec.prog
                    .run_striped(&inputs, &mut outputs, codec.stripes)
                    .unwrap();
            }
        }
        let mut out = Vec::with_capacity(n * len);
        let mut rebuilt_iter = rebuilt.iter();
        for shard in &shards[..n] {
            out.extend_from_slice(match shard {
                Some(s) => s,
                None => rebuilt_iter.next().expect("one rebuilt shard per lost data"),
            });
        }
        out.truncate(data_len);
        out
    }

    /// Multiplication by the GF(2^8) element `a` (modulo `0x11D`, the
    /// field of the shipped RS and LRC codes) as an 8 × 8 bit-matrix: a
    /// sum of powers of the multiply-by-`x` matrix, whose last column is
    /// `x^8 = x^4 + x^3 + x^2 + 1`.
    fn times(a: u8) -> BitMatrix {
        let x = BitMatrix::from_fn(8, 8, |i, j| match j {
            7 => 0x1D >> i & 1 == 1,
            _ => i == j + 1,
        });
        let mut power = BitMatrix::identity(8);
        let mut m = BitMatrix::zero(8, 8);
        for b in 0..8 {
            if a >> b & 1 == 1 {
                m = m.xor(&power);
            }
            power = x.mul(&power);
        }
        m
    }

    /// A `p × n` matrix of 8 × 8 blocks.
    fn blocks(p: usize, n: usize, block: impl Fn(usize, usize) -> BitMatrix) -> BitMatrix {
        let mut m = BitMatrix::zero(8 * p, 8 * n);
        for r in 0..p {
            for j in 0..n {
                m.paste(8 * r, 8 * j, &block(r, j));
            }
        }
        m
    }

    /// RS(n, p) with the ISA-L power matrix: parity block `(r, j)` is
    /// `α^(r·j)`, `α = x`.
    fn rs(n: usize, p: usize, cfg: EngineConfig) -> XorCodec {
        let power = |e: usize| (0..e).fold(BitMatrix::identity(8), |m, _| times(2).mul(&m));
        XorCodec::new(n, p, 8, &blocks(p, n, |r, j| power(r * j)), Vec::new(), cfg).unwrap()
    }

    /// LRC(n, p, r): `n / r` XOR local rows over groups of `r`, then
    /// Cauchy globals `1 / ((n + t) + j)`.
    fn lrc(n: usize, p: usize, r: usize, cfg: EngineConfig) -> XorCodec {
        let locals = n / r;
        let parity = blocks(p, n, |row, j| match row {
            _ if row < locals && j / r == row => BitMatrix::identity(8),
            _ if row < locals => BitMatrix::zero(8, 8),
            _ => times((n + row - locals) as u8 ^ j as u8).invert().unwrap(),
        });
        let groups = (0..locals).map(|g| (g * r..(g + 1) * r).chain([n + g]).collect()).collect();
        XorCodec::new(n, p, 8, &parity, groups, cfg).unwrap()
    }

    #[test]
    fn rs_and_lrc_built_here_are_the_shipped_codes() {
        // FNV-1a of the encode SLP's text: the digests
        // tests/program_identity.rs pins for RsCodec and LrcCodec.
        let digest = |codec: &XorCodec| {
            let text = codec.encode_slp().to_string();
            text.bytes().chain([0]).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let cfg = EngineConfig::new();
        assert_eq!(digest(&rs(10, 4, cfg)), 0x211a_76a4_3a36_ffaf);
        assert_eq!(digest(&lrc(12, 4, 6, cfg)), 0xb18c_bc70_7fba_cf97);
    }

    /// Decode at every `data_len` edge, and reconstruct, for each pattern
    /// at parallelism 1 and 2, byte for byte against the oracle. Packets
    /// of 136 bytes at `B = 64` run as two uneven stripes on two workers.
    fn assert_written_in_place(
        name: &str,
        build: impl Fn(EngineConfig) -> XorCodec,
        lost: &[Vec<usize>],
    ) {
        const PL: usize = 136;
        for parallelism in [1, 2] {
            let codec = build(EngineConfig { blocksize: 64, parallelism, ..EngineConfig::new() });
            let (n, len) = (codec.n, codec.w * PL);
            let data = random_bytes(n * len, (n * 100 + codec.p) as u64);
            let shards = codec.encode(&data).unwrap();
            for lost in lost {
                let ctx = format!("{name}, parallelism {parallelism}, lost {lost:?}");
                let mut rx = erase(&shards, lost);
                for data_len in [0, 1, len - 1, (n - 1) * len + 1, n * len - 1, n * len] {
                    let got = codec.decode(&rx, data_len).unwrap();
                    let want = stitched_decode(&codec, &rx, data_len);
                    assert_eq!(got, want, "{ctx}, {data_len} bytes");
                    assert_eq!(got, data[..data_len], "{ctx}, {data_len} bytes");
                }
                let stitched = stitched_decode(&codec, &rx, n * len);
                codec.reconstruct(&mut rx).unwrap();
                let rebuilt: Vec<Vec<u8>> = rx.into_iter().map(Option::unwrap).collect();
                assert_eq!(rebuilt[..n].concat(), stitched, "{ctx}");
                assert_eq!(rebuilt, shards, "{ctx}");
            }
        }
    }

    /// Every pattern of at most `p` losses that loses a data shard and
    /// that the code tolerates.
    fn tolerable_data_losses(codec: &XorCodec) -> Vec<Vec<usize>> {
        patterns(codec)
            .into_iter()
            .filter(|lost| lost.iter().any(|&i| i < codec.n) && solvable(codec, lost))
            .collect()
    }

    #[test]
    fn written_in_place_evenodd_and_rdp_every_tolerable_pattern() {
        let codes = [("EVENODD(5)", ArrayCodec::evenodd(5)), ("RDP(4)", ArrayCodec::rdp(4))];
        for (name, code) in codes {
            let (n, p, w) = (code.n, code.p, code.w);
            let parity = code.generator.row_range(n * w, p * w);
            let build = |cfg| XorCodec::new(n, p, w, &parity, Vec::new(), cfg).unwrap();
            assert_written_in_place(name, build, &tolerable_data_losses(&code));
        }
    }

    #[test]
    fn written_in_place_lrc_10_4_r5_every_tolerable_pattern() {
        // Every pattern compiles two decode programs, about a minute for
        // all of them unoptimized: `cargo test` runs every eighth and
        // `cargo test --release` (a CI row) all of them.
        let stride = if cfg!(debug_assertions) { 8 } else { 1 };
        let all = tolerable_data_losses(&lrc(10, 4, 5, EngineConfig::new()));
        let lost: Vec<Vec<usize>> = all.into_iter().step_by(stride).collect();
        assert_written_in_place("LRC(10,4,r=5)", |cfg| lrc(10, 4, 5, cfg), &lost);
    }

    #[test]
    fn written_in_place_rs_10_4() {
        // Every 1- and 2-loss pattern that loses data, the paper's
        // {2, 4, 5, 6}, and a seeded sample of 3- and 4-loss patterns.
        let mut lost: Vec<Vec<usize>> = (0..10)
            .flat_map(|a| (a..14).map(move |b| if a == b { vec![a] } else { vec![a, b] }))
            .collect();
        lost.push(vec![2, 4, 5, 6]);
        for (k, pick) in random_bytes(32 * 4, 37).chunks_exact(4).enumerate() {
            let mut l: Vec<usize> =
                pick[..3 + k % 2].iter().map(|&b| usize::from(b) % 14).collect();
            l[0] %= 10;
            l.sort_unstable();
            l.dedup();
            lost.push(l);
        }
        assert_written_in_place("RS(10,4)", |cfg| rs(10, 4, cfg), &lost);
    }
}
