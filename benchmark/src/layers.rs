//! Per-layer rows: each layer's public functions timed on their own, by
//! the same fast-tail rule as the end-to-end ops. Every row is a
//! closure sampled for a share of the traced run's time budget.

use crate::archive::{encode_to_memory, CHUNK_BYTES, FILE_BYTES};
use crate::codec_rs::STRIPE_BYTES;
use crate::gen::Rng;
use crate::stats::{fast, sorted};
use crate::workload::*;
use array_codes::ArrayCodec;
use ec_core::{Kernel, LrcCodec, OptConfig, RsCodec};
use ec_store::{BlobStore, Cluster, NodeClient, NodeHandle, NodeOptions};
use ec_stream::{Archive, ArchiveMeta, StreamDecoder, HEADER_LEN};
use ec_wire::merkle::MerkleTree;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

/// A named per-layer value.
pub type Row = (&'static str, f64);

/// Fast tail of what `sample` returns (seconds), taken for `budget`:
/// at least 5 samples, at most `cap`.
fn fast_sampled(budget: Duration, cap: usize, mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < cap) {
        samples.push(sample());
    }
    fast(&sorted(samples))
}

/// Fast-tail seconds per call of `f`, sampled for `budget`. Calls are
/// batched so that a sample lasts about a millisecond.
fn fast_of(budget: Duration, mut f: impl FnMut()) -> f64 {
    let (_, once) = secs(&mut f);
    let batch = ((1e-3 / once.max(1e-9)) as usize).clamp(1, 10_000);
    fast_sampled(budget, 100_000, || {
        secs(|| (0..batch).for_each(|_| f())).1 / batch as f64
    })
}

fn mbps(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / seconds / 1e6
}

/// All rows that do not depend on the workload, `budget` per row.
pub fn measure(seed: u64, dir: &Path, budget: Duration) -> Vec<Row> {
    let mut rows = Vec::new();
    runtime_optimizer_core(seed, budget, &mut rows);
    arraycodes(seed, budget, &mut rows);
    wire(seed, budget, &mut rows);
    stream(seed, dir, budget, &mut rows);
    store(seed, dir, budget, &mut rows);
    rows
}

fn runtime_optimizer_core(seed: u64, budget: Duration, rows: &mut Vec<Row>) {
    let mut rng = Rng::new(seed, "layers.core");
    let kernel = Kernel::Auto.resolve();
    let data = rng.bytes(STRIPE_BYTES);
    let shard = STRIPE_BYTES / N;

    let mut copy = vec![0u8; STRIPE_BYTES];
    let t = fast_of(budget, || {
        copy.copy_from_slice(std::hint::black_box(&data));
        // Without a reader the copy is dead code, and the row read 2 PB/s.
        std::hint::black_box(&mut copy);
    });
    rows.push(("runtime.memcpy_MBps", mbps(STRIPE_BYTES, t)));

    // Four sources into one destination, all L2-resident: the ceiling of
    // every program. Once on cache-line boundaries and once 16 bytes off
    // them, which is where `malloc` puts a `Vec`: the gap is what a
    // library-side buffer that is not line-aligned costs (the codecs'
    // delta scratch is one), and closing it shows in `codec_rs`.
    let mut block = Aligned::copy_of(&data[..5 * shard + 64]);
    for (name, offset) in [
        ("runtime.xor_kernel_MBps", 0),
        ("runtime.xor_kernel_unaligned_MBps", 16),
    ] {
        let (srcs, dst) = block.as_mut_slice()[offset..][..5 * shard].split_at_mut(4 * shard);
        let srcs: Vec<&[u8]> = srcs.chunks_exact(shard).collect();
        let t = fast_of(budget, || xor_runtime::xor_slices(kernel, dst, &srcs));
        rows.push((name, mbps(4 * shard, t)));
    }

    // The optimizer, on the paper's encode matrix.
    let matrix = gf256::encoding_matrix(gf256::MatrixKind::IsalPower, N, P);
    let parity_rows: Vec<usize> = (N..N + P).collect();
    let bits = bitmatrix::BitMatrix::expand_gf_matrix(&matrix.select_rows(&parity_rows));
    let base = slp::binary_slp_from_bitmatrix(&bits);
    let optimized = slp_optimizer::optimize(&base, OptConfig::default());
    rows.push(("optimizer.enc_xors_base_count", base.xor_count() as f64));
    rows.push(("optimizer.enc_xors_opt_count", optimized.xor_count() as f64));
    rows.push((
        "optimizer.enc_mem_accesses_opt_count",
        optimized.mem_accesses() as f64,
    ));
    let t = fast_of(budget, || {
        std::hint::black_box(slp_optimizer::optimize(&base, OptConfig::default()));
    });
    rows.push(("optimizer.optimize_ms", t * 1e3));

    let t = fast_of(budget, || {
        std::hint::black_box(RsCodec::with_config(engine()).expect("codec"));
    });
    rows.push(("core.codec_build_ms", t * 1e3));

    let codec = RsCodec::with_config(engine()).expect("codec");
    let stripe = codec.encode(&data).expect("encode");
    let mut enc = Prog::compile(codec.encode_slp(), shard / 8);
    let t_exec = fast_of(budget, || {
        exec_stripe(&mut enc, &stripe, &[]);
    });
    rows.push(("runtime.exec_enc_MBps", mbps(STRIPE_BYTES, t_exec)));

    let lost = [2, 5];
    let mut dec = Prog::compile(&codec.decode_slp(&lost).expect("data lost"), shard / 8);
    let t = fast_of(budget, || {
        exec_stripe(&mut dec, &stripe, &lost);
    });
    rows.push(("runtime.exec_dec2_MBps", mbps(STRIPE_BYTES, t)));

    // The paper's stripe size: 10 MB, far beyond the caches. Kept as a
    // row, not a workload — see README.md for what it measured instead.
    {
        let big_shard = 1 << 20;
        let big: Vec<Vec<u8>> = (0..N).map(|_| rng.bytes(big_shard)).collect();
        let mut enc_big = Prog::compile(codec.encode_slp(), big_shard / 8);
        let t = fast_of(budget, || {
            exec_stripe(&mut enc_big, &big, &[]);
        });
        rows.push(("runtime.exec_enc_paper10MB_MBps", mbps(N * big_shard, t)));
    }

    let mut shards = vec![Vec::new(); N + P];
    let t_call = fast_of(budget, || {
        codec.encode_into(&data, &mut shards).expect("encode_into")
    });
    rows.push((
        "core.encode_call_overhead_pct",
        (1.0 - t_exec / t_call) * 100.0,
    ));

    // First use of an erasure pattern compiles its program: a tiny
    // stripe, so that the decode itself is nothing, and on every call a
    // pattern this codec has not seen (two data shards and one parity
    // shard lost: 180 cache keys, each a two-shard decode program).
    let tiny = codec.encode(&data[..N * 8]).expect("encode");
    let mut fresh =
        (0..N).flat_map(|a| (a + 1..N).flat_map(move |b| (N..N + P).map(move |q| [a, b, q])));
    let compile_codec = RsCodec::with_config(engine()).expect("codec");
    let t = fast_sampled(budget, 100, || {
        let lost = fresh.next().expect("fewer than 180 samples");
        let held: Vec<Option<Vec<u8>>> = tiny
            .iter()
            .enumerate()
            .map(|(i, s)| (!lost.contains(&i)).then(|| s.clone()))
            .collect();
        secs(|| compile_codec.decode(&held, N * 8).expect("decode")).1
    });
    rows.push(("core.decode_compile_ms", t * 1e3));

    let new_shard = rng.bytes(shard);
    let mut parity = stripe[N..].to_vec();
    let mut flip = false;
    let t = fast_of(budget, || {
        let (from, to) = if flip {
            (&new_shard, &stripe[3])
        } else {
            (&stripe[3], &new_shard)
        };
        flip = !flip;
        let mut refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec
            .update_parity(3, from, to, &mut refs)
            .expect("update_parity");
    });
    rows.push(("core.update_parity_MBps", mbps(shard, t)));

    let mut held: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
    let t = fast_of(budget, || {
        held[4] = None;
        held[N + 1] = None;
        codec.reconstruct(&mut held).expect("reconstruct");
    });
    rows.push(("core.reconstruct_MBps", mbps(STRIPE_BYTES, t)));

    let t = fast_of(budget, || assert!(codec.verify(&stripe).expect("verify")));
    rows.push(("core.verify_MBps", mbps(STRIPE_BYTES, t)));

    // LRC(10, r = 5): two local XOR parities and two global ones.
    let lrc = LrcCodec::with_config(engine(), 5).expect("LRC(10, 5, 2)");
    let mut lrc_shards = vec![Vec::new(); N + P];
    let t = fast_of(budget, || {
        lrc.encode_into(&data, &mut lrc_shards).expect("lrc encode")
    });
    rows.push(("core.lrc_encode_MBps", mbps(STRIPE_BYTES, t)));
    let sources = lrc.repair_sources(&[1]).expect("local repair plan");
    let mut held: Vec<Option<Vec<u8>>> = lrc_shards
        .iter()
        .enumerate()
        .map(|(i, s)| sources.contains(&i).then(|| s.clone()))
        .collect();
    let t = fast_of(budget, || {
        held[1] = None;
        lrc.reconstruct_subset(&mut held, &[1])
            .expect("local repair");
    });
    rows.push(("core.lrc_local_repair_MBps", mbps(shard, t)));
}

fn arraycodes(seed: u64, budget: Duration, rows: &mut Vec<Row>) {
    let data = Rng::new(seed, "layers.arraycodes").bytes(STRIPE_BYTES);
    let evenodd = ArrayCodec::evenodd(N).with_parallelism(1);
    let len = evenodd.shard_len(data.len());
    let mut shards = vec![vec![0u8; len]; N + 2];
    let t = fast_of(budget, || {
        evenodd
            .encode_into(&data, &mut shards)
            .expect("evenodd encode")
    });
    rows.push(("arraycodes.evenodd_encode_MBps", mbps(data.len(), t)));
    let held: Vec<Option<Vec<u8>>> = shards
        .iter()
        .enumerate()
        .map(|(i, s)| (i != 1 && i != 6).then(|| s.clone()))
        .collect();
    let t = fast_of(budget, || {
        std::hint::black_box(evenodd.decode(&held, data.len()).expect("evenodd decode"));
    });
    rows.push(("arraycodes.evenodd_decode2_MBps", mbps(data.len(), t)));
    let rdp = ArrayCodec::rdp(N).with_parallelism(1);
    let mut shards = vec![vec![0u8; rdp.shard_len(data.len())]; N + 2];
    let t = fast_of(budget, || {
        rdp.encode_into(&data, &mut shards).expect("rdp encode")
    });
    rows.push(("arraycodes.rdp_encode_MBps", mbps(data.len(), t)));
}

fn wire(seed: u64, budget: Duration, rows: &mut Vec<Row>) {
    // One store_large shard's worth of bytes: resident in L2.
    let data = Rng::new(seed, "layers.wire").bytes(1 << 20);
    let shard = &data[..data.len() / N];
    let t = fast_of(budget, || {
        std::hint::black_box(ec_wire::crc32(shard));
    });
    rows.push(("wire.crc32_MBps", mbps(shard.len(), t)));
    let t = fast_of(budget, || {
        std::hint::black_box(ec_wire::sha256(shard));
    });
    rows.push(("wire.sha256_MBps", mbps(shard.len(), t)));
    let t = fast_of(budget, || {
        std::hint::black_box(MerkleTree::from_payload(&data, 64 << 10).root());
    });
    rows.push(("wire.merkle_build_MBps", mbps(data.len(), t)));
}

fn stream(seed: u64, dir: &Path, budget: Duration, rows: &mut Vec<Row>) {
    let input = Rng::new(seed, "layers.stream").bytes(FILE_BYTES);
    let codec = RsCodec::with_config(engine()).expect("codec");
    let t_mem = fast_sampled(budget, 1000, || encode_to_memory(&codec, &input).1);
    rows.push(("stream.encoder_mem_MBps", mbps(FILE_BYTES, t_mem)));

    let (files, _) = encode_to_memory(&codec, &input);
    let meta = ArchiveMeta::with_spec(
        &ec_core::CodecSpec::rs(N, P),
        CHUNK_BYTES as u32,
        FILE_BYTES as u64,
    );
    let mut out = Vec::with_capacity(FILE_BYTES);
    let t = fast_of(budget, || {
        let sources = files
            .iter()
            .map(|f| {
                let mut c = Cursor::new(f.as_slice());
                c.set_position(HEADER_LEN as u64);
                Some(c)
            })
            .collect();
        out.clear();
        StreamDecoder::new(&codec, meta, sources)
            .expect("decoder")
            .pump(&mut out)
            .expect("pump");
    });
    assert!(out == input, "in-memory round trip");
    rows.push(("stream.decoder_mem_MBps", mbps(FILE_BYTES, t)));

    // The same encode through `Archive`, to the filesystem: what is left
    // after the in-memory share is file I/O and the per-archive codec.
    let root = dir.join("layers-stream");
    let input_path = root.join("input.bin");
    std::fs::create_dir_all(&root).expect("create dir");
    std::fs::write(&input_path, &input).expect("write input");
    let archive_dir = root.join("archive");
    let t_fs = fast_of(budget, || {
        Archive::create_with_config(&input_path, &archive_dir, engine(), CHUNK_BYTES)
            .expect("create");
    });
    rows.push(("stream.fs_share_pct", (1.0 - t_mem / t_fs) * 100.0));
    let t = fast_of(budget, || {
        std::hint::black_box(Archive::open(&archive_dir).expect("open"));
    });
    rows.push(("stream.archive_open_ms", t * 1e3));
    let _ = std::fs::remove_dir_all(&root);
}

fn store(seed: u64, dir: &Path, budget: Duration, rows: &mut Vec<Row>) {
    let mut rng = Rng::new(seed, "layers.store");
    let root = dir.join("layers-store");
    // One store_large shard, and one store_small object.
    let shard = rng.bytes((1 << 20) / N);
    let small = rng.bytes(4 << 10);
    let timeout = Duration::from_secs(10);

    let blobs = BlobStore::open(&root.join("blobs")).expect("open blob store");
    let t = fast_of(budget, || blobs.put("s:shard", &shard).expect("blob put"));
    rows.push(("store.blob_put_MBps", mbps(shard.len(), t)));
    let t = fast_of(budget, || {
        std::hint::black_box(blobs.get("s:shard").expect("blob get"));
    });
    rows.push(("store.blob_get_MBps", mbps(shard.len(), t)));
    let t_blob_small = fast_of(budget, || blobs.put("s:small", &small).expect("blob put"));
    rows.push(("store.blob_put_4KiB_us", t_blob_small * 1e6));

    let nodes: Vec<NodeHandle> = (0..N + P)
        .map(|i| {
            let opts = NodeOptions {
                workers: 2,
                ..NodeOptions::default()
            };
            NodeHandle::spawn_with(&root.join(format!("node{i:02}")), "127.0.0.1:0", opts)
                .expect("spawn node")
        })
        .collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr().to_string()).collect();
    let t = fast_of(budget, || {
        std::hint::black_box(NodeClient::connect(&addrs[0], timeout).expect("connect"));
    });
    rows.push(("store.connect_us", t * 1e6));
    let mut node = NodeClient::connect(&addrs[0], timeout).expect("connect");
    let t = fast_of(budget, || {
        std::hint::black_box(node.health().expect("health"));
    });
    rows.push(("store.frame_rtt_us", t * 1e6));
    let t = fast_of(budget, || node.put("r:shard", &shard).expect("node put"));
    rows.push(("store.node_put_MBps", mbps(shard.len(), t)));
    let t = fast_of(budget, || {
        std::hint::black_box(node.get("r:shard").expect("node get"));
    });
    rows.push(("store.node_get_MBps", mbps(shard.len(), t)));

    let cluster = Cluster::new(addrs, engine())
        .expect("cluster")
        .with_timeout(timeout)
        .with_gc_grace(Duration::ZERO);
    let t_put_small = fast_of(budget, || {
        cluster.put("small", &small).expect("cluster put");
    });
    rows.push((
        "store.put_round_overhead_ms",
        (t_put_small - (N + P) as f64 * t_blob_small) * 1e3,
    ));
    let scrub = cluster.scrub().expect("scrub");
    assert!(scrub.clean(), "the layer cluster is healthy");
    rows.push((
        "store.scrub_payload_bytes_read_count",
        scrub.payload_bytes_read as f64,
    ));
    drop(nodes);
    let _ = std::fs::remove_dir_all(&root);
}
