//! `archive`: one 2 MiB file through `ec-stream`'s `Archive`, 256 KiB
//! chunks, shard directory on the scratch filesystem.
//!
//! Every byte crosses `wire` (CRC-32, SHA-256, Merkle) and `stream`
//! framing once, single-threaded; the XOR program is a few per cent.

use crate::gen::{repair_patterns, Rng};
use crate::host::dir_bytes;
use crate::workload::*;
use ec_core::{codec_for_with, CodecSpec, ErasureCoder, RsCodec};
use ec_stream::{shard_file_name, Archive, StreamDecoder, StreamEncoder, HEADER_LEN};
use ec_wire::crc32;
use ec_wire::merkle::{leaf_hash, Hash, MerkleTree};
use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// Two MiB, eight chunks: at four a cycle took a third of a second and
/// a run gave each op some 55 samples, too few for a fast decile.
pub const FILE_BYTES: usize = 2 << 20;
pub const CHUNK_BYTES: usize = 256 << 10;
const PATTERNS: usize = 8;

pub struct ArchiveWorkload {
    input_path: PathBuf,
    input: Vec<u8>,
    out_path: PathBuf,
    scratch_dir: PathBuf,
    /// All shards present: `read` and `scrub`.
    clean: Archive,
    /// Two data shard files moved aside at set-up: `read_degraded`.
    degraded: Archive,
    /// Loses one data and one parity file every cycle: `repair`.
    repairable: Archive,
    /// Every archive of the same input holds the same shard files.
    reference: Vec<Vec<u8>>,
    degraded_lost: Vec<usize>,
    repairs: Vec<Vec<usize>>,
    stored_ratio: f64,
    tally: Tally,
    replay: Option<Replay>,
}

impl ArchiveWorkload {
    pub fn build(seed: u64, dir: &Path) -> ArchiveWorkload {
        let mut rng = Rng::new(seed, "archive");
        let input = rng.bytes(FILE_BYTES);
        let input_path = dir.join("input.bin");
        fs::write(&input_path, &input).expect("write input file");
        let create = |name: &str| {
            Archive::create_with_config(&input_path, &dir.join(name), engine(), CHUNK_BYTES)
                .expect("create archive")
        };
        let clean = create("clean");
        let degraded = create("degraded");
        let repairable = create("repairable");
        let aside = dir.join("aside");
        fs::create_dir(&aside).expect("create aside dir");
        let degraded_lost = crate::gen::data_pair_patterns(&mut rng, N).swap_remove(0);
        for &i in &degraded_lost {
            fs::rename(degraded.shard_path(i), aside.join(shard_file_name(i)))
                .expect("move shard aside");
        }
        let reference: Vec<Vec<u8>> = (0..N + P)
            .map(|i| fs::read(clean.shard_path(i)).expect("read shard file"))
            .collect();
        let stored = dir_bytes(&dir.join("clean")).expect("size of archive dir");
        let mut repairs = repair_patterns(&mut rng, N, P);
        repairs.truncate(PATTERNS);
        for lost in &repairs {
            // Compiles the pattern's decode program into the handle's cache.
            repairable
                .codec()
                .repair_sources(lost)
                .expect("repair plan");
        }
        ArchiveWorkload {
            input_path,
            input,
            out_path: dir.join("out.bin"),
            scratch_dir: dir.join("scratch"),
            clean,
            degraded,
            repairable,
            reference,
            degraded_lost,
            repairs,
            stored_ratio: stored as f64 / FILE_BYTES as f64,
            tally: Tally::default(),
            replay: None,
        }
    }

    fn create_scratch(&mut self, what: &str) -> Sample {
        let mut sw = Stopwatch::new();
        let r = sw.time(|| {
            Archive::create_with_config(&self.input_path, &self.scratch_dir, engine(), CHUNK_BYTES)
        });
        let ok = r.is_ok_and(|a| {
            a.meta().original_len == FILE_BYTES as u64
                && (0..N + P)
                    .all(|i| fs::read(a.shard_path(i)).is_ok_and(|b| b == self.reference[i]))
        });
        self.tally.op(ok, what);
        sw.sample()
    }

    fn extract(&mut self, degraded: bool) -> Sample {
        let _ = fs::remove_file(&self.out_path);
        let archive = if degraded {
            &self.degraded
        } else {
            &self.clean
        };
        let mut sw = Stopwatch::new();
        let r = sw.time(|| archive.extract(&self.out_path));
        let chunks = (FILE_BYTES / CHUNK_BYTES) as u64;
        let ok = r.is_ok_and(|rep| rep.chunks_repaired == if degraded { chunks } else { 0 })
            && fs::read(&self.out_path).is_ok_and(|b| b == self.input);
        self.tally.op(
            ok,
            if degraded {
                "extract (2 shard files missing)"
            } else {
                "extract"
            },
        );
        sw.sample()
    }
}

impl Workload for ArchiveWorkload {
    fn cycle(&mut self, cycle: usize) -> [Sample; OPS.len()] {
        // write into an empty directory, then update over the populated one
        let _ = fs::remove_dir_all(&self.scratch_dir);
        let write = self.create_scratch("create into an empty dir");
        let update = self.create_scratch("create over a populated dir");

        let read = self.extract(false);
        let read_degraded = self.extract(true);

        let pattern = &self.repairs[cycle % PATTERNS];
        for &i in pattern {
            fs::remove_file(self.repairable.shard_path(i)).expect("remove shard file");
        }
        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.repairable.repair());
        let ok = r.is_ok_and(|rep| rep.repaired == *pattern)
            && pattern.iter().all(|&i| {
                fs::read(self.repairable.shard_path(i)).is_ok_and(|b| b == self.reference[i])
            });
        self.tally.op(ok, "repair (1 data + 1 parity file removed)");
        let repair = sw.sample();

        let mut sw = Stopwatch::new();
        let r = sw.time(|| self.clean.scrub());
        self.tally
            .op(r.is_ok_and(|rep| rep.clean()), "scrub of a clean archive");
        let scrub = sw.sample();

        [write, read, read_degraded, update, repair, scrub]
    }

    fn payload_bytes(&self) -> [u64; OPS.len()] {
        [FILE_BYTES as u64; OPS.len()]
    }

    fn replay(&mut self, cycle: usize, _ops: &[Sample; OPS.len()]) -> LayerTimes {
        let replay = self.replay.get_or_insert_with(|| Replay::new(&self.input));
        replay.run(
            &self.input,
            &self.degraded_lost,
            &self.repairs[cycle % PATTERNS],
        )
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.stored_ratio
    }

    fn finish(&mut self) {
        let healthy = self.repairable.verify().is_ok_and(|v| v.all_ok());
        self.tally.op(healthy, "repaired archive verifies at exit");
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

/// The archive's bytes held in memory so that each layer can be run on
/// them alone: per-chunk shard slices, their leaf hashes, and the
/// in-memory shard files a `StreamDecoder` reads.
struct Replay {
    codec: RsCodec,
    /// `slices[chunk][shard]`.
    slices: Vec<Vec<Vec<u8>>>,
    /// `leaves[shard][chunk]`.
    leaves: Vec<Vec<Hash>>,
    files: Vec<Vec<u8>>,
    progs: ProgCache,
}

impl Replay {
    fn new(input: &[u8]) -> Replay {
        let codec = RsCodec::with_config(engine()).expect("RS(10,4)");
        let slices: Vec<Vec<Vec<u8>>> = input
            .chunks(CHUNK_BYTES)
            .map(|c| codec.encode(c).expect("encode chunk"))
            .collect();
        let leaves = (0..N + P)
            .map(|i| slices.iter().map(|chunk| leaf_hash(&chunk[i])).collect())
            .collect();
        let (files, _) = encode_to_memory(&codec, input);
        Replay {
            codec,
            slices,
            leaves,
            files,
            progs: ProgCache::default(),
        }
    }

    /// Run one of the codec's programs over every chunk's packets.
    fn exec(&mut self, key: String, lost: &[usize], slp: impl FnOnce(&RsCodec) -> slp::Slp) -> f64 {
        let packet_len = self.slices[0][0].len() / 8;
        let prog = self.progs.get(key, packet_len, || slp(&self.codec));
        self.slices
            .iter()
            .map(|chunk| exec_stripe(prog, chunk, lost))
            .sum()
    }

    /// Every chunk's stripe with only the shards `keep` selects present.
    fn without(&self, keep: impl Fn(usize) -> bool) -> Vec<Vec<Option<Vec<u8>>>> {
        self.slices
            .iter()
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, s)| keep(i).then(|| s.clone()))
                    .collect()
            })
            .collect()
    }

    /// CRC-32 and leaf hash of shards `which` of every chunk: what the
    /// framing computes per frame read or written.
    fn integrity(&self, which: impl Fn(usize) -> bool) -> f64 {
        secs(|| {
            for chunk in &self.slices {
                for (_, slice) in chunk.iter().enumerate().filter(|(i, _)| which(*i)) {
                    std::hint::black_box((crc32(slice), leaf_hash(slice)));
                }
            }
        })
        .1
    }

    fn decode_from_memory(&self, lost: &[usize]) -> f64 {
        let sources = (0..N + P)
            .map(|i| {
                (!lost.contains(&i)).then(|| {
                    let mut c = Cursor::new(self.files[i].as_slice());
                    c.set_position(HEADER_LEN as u64);
                    c
                })
            })
            .collect();
        let meta = ec_stream::ArchiveMeta::with_spec(
            &CodecSpec::rs(N, P),
            CHUNK_BYTES as u32,
            FILE_BYTES as u64,
        );
        let mut dec = StreamDecoder::new(&self.codec, meta, sources).expect("decoder");
        for (i, leaves) in self.leaves.iter().enumerate() {
            dec.set_trusted_leaves(i, leaves.clone());
        }
        let mut out = Vec::with_capacity(FILE_BYTES);
        secs(|| dec.pump(&mut out).expect("in-memory extract")).1
    }

    fn run(&mut self, input: &[u8], degraded: &[usize], repair: &[usize]) -> LayerTimes {
        let mut t = [[0.0; LAYERS.len()]; OPS.len()];
        let all = |_: usize| true;

        // write / update: build the codec (every create does), encode
        // each chunk, checksum and hash each slice, frame into sinks.
        let (_, build) = secs(|| codec_for_with(&CodecSpec::rs(N, P), engine()).expect("codec"));
        let mut bufs = vec![Vec::new(); N + P];
        let encode = secs(|| {
            for chunk in input.chunks(CHUNK_BYTES) {
                self.codec
                    .encode_into(chunk, &mut bufs)
                    .expect("encode chunk");
            }
        })
        .1;
        let exec_enc = self.exec("enc".into(), &[], |c| c.encode_slp().clone());
        let integrity_out = self.integrity(all);
        let merkle = secs(|| {
            for leaves in &self.leaves {
                std::hint::black_box(MerkleTree::from_leaves(leaves.clone()).root());
            }
        })
        .1;
        let (_, framed) = encode_to_memory(&self.codec, input);
        for op in [0, 3] {
            t[op][RUNTIME] = exec_enc;
            t[op][CORE] = build + encode - exec_enc;
            t[op][WIRE] = integrity_out + merkle;
            t[op][STREAM] = framed - encode - integrity_out - merkle;
        }

        // read: every frame of every shard is checked, data is stitched.
        let integrity_in = self.integrity(all);
        t[1][WIRE] = integrity_in;
        t[1][STREAM] = self.decode_from_memory(&[]) - integrity_in;

        // read_degraded: twelve shards checked, every chunk decoded.
        let lost = degraded;
        let integrity_12 = self.integrity(|i| !lost.contains(&i));
        let exec_dec = self.exec(format!("dec{lost:?}"), lost, |c| {
            c.decode_slp(lost).expect("data lost")
        });
        let survivors = self.without(|i| !lost.contains(&i));
        let decode = secs(|| {
            for (shards, data) in survivors.iter().zip(input.chunks(CHUNK_BYTES)) {
                std::hint::black_box(self.codec.decode(shards, data.len()).expect("decode"));
            }
        })
        .1;
        t[2][RUNTIME] = exec_dec;
        t[2][CORE] = decode - exec_dec;
        t[2][WIRE] = integrity_12;
        t[2][STREAM] = self.decode_from_memory(lost) - decode - integrity_12;

        // repair: a verify pass over the twelve files present, a rebuild
        // pass over the ten the plan reads, two files written; `Archive`
        // has no in-memory form, so `stream` (and the filesystem) is the
        // part left unattributed.
        let lost = repair;
        let present = |i: usize| !lost.contains(&i);
        let plan = self.codec.repair_sources(lost).expect("repair plan");
        let integrity_repair = self.integrity(present)
            + self.integrity(|i| plan.contains(&i))
            + self.integrity(|i| lost.contains(&i));
        let exec_repair = self.exec(format!("dec{lost:?}"), lost, |c| {
            c.decode_slp(lost).expect("data lost")
        }) + self.exec(format!("row{}", lost[1]), &[], |c| {
            c.partial_encode_slp(&[lost[1] - N]).expect("parity row")
        });
        let mut sources = self.without(|i| plan.contains(&i));
        let reconstruct = secs(|| {
            for shards in &mut sources {
                self.codec
                    .reconstruct_subset(shards, lost)
                    .expect("reconstruct");
            }
        })
        .1;
        t[4][RUNTIME] = exec_repair;
        t[4][CORE] = reconstruct - exec_repair;
        t[4][WIRE] = integrity_repair;

        // scrub: every frame checked, every chunk re-encoded and compared.
        let verify = secs(|| {
            for chunk in &self.slices {
                assert!(
                    self.codec.verify(chunk).expect("verify"),
                    "replay stripe is consistent"
                );
            }
        })
        .1;
        t[5][RUNTIME] = exec_enc;
        t[5][CORE] = verify - exec_enc;
        t[5][WIRE] = self.integrity(all);
        t
    }
}

/// `StreamEncoder` over in-memory sinks: the shard files and the time.
pub fn encode_to_memory(codec: &dyn ErasureCoder, input: &[u8]) -> (Vec<Vec<u8>>, f64) {
    let sinks: Vec<Cursor<Vec<u8>>> = (0..N + P).map(|_| Cursor::new(Vec::new())).collect();
    let (files, t) = secs(|| {
        let mut enc = StreamEncoder::new(codec, CHUNK_BYTES, sinks).expect("encoder");
        enc.write_all(input).expect("encode to memory");
        enc.finalize().expect("finalize").1
    });
    (files.into_iter().map(Cursor::into_inner).collect(), t)
}
